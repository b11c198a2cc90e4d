"""Construction, canonicalization, face enumeration and the generators."""

import random
import time
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from scx import (
    DuplicateVertexInFacet,
    FaceNotInComplex,
    FacetFormatError,
    InvalidLabel,
    InvalidParameter,
    SimplicialComplex,
    TooLarge,
    VoidComplex,
    bit_indices,
    boundary_simplex,
    cross_polytope,
    cycle,
    enumerate_all_complexes,
    f_polynomial,
    from_facets,
    full_simplex,
    make,
    parse_facet_text,
    random_complex,
    whiskered_cycle,
)
from oracles import (antichain_families, closed_under_subsets, faces_of, join_by_labels,
                     link_by_faces)

EX3 = [[1, 2, 3], [2, 4], [3, 4]]  # the running 4-vertex example


# -- construction --------------------------------------------------------------

def test_from_facets_canonical():
    c = from_facets(EX3)
    assert c.labels == ("1", "2", "3", "4")
    assert c.facets() == (("1", "2", "3"), ("2", "4"), ("3", "4"))
    assert c == from_facets([["3", "4"], ["2", "4"], ["1", "2", "3"], ["2", "4"]])


def test_from_facets_empty_complex():
    c = from_facets([[]])
    assert not c.is_void
    assert c.n == 0
    assert c.dimension() == -1
    assert c.is_pure()
    assert tuple(c.f_vector()) == (1,)


def test_from_facets_absorbs_dominated():
    c = from_facets([[1, 2], [1, 2, 3]])
    assert c.facets() == (("1", "2", "3"),)
    # an empty facet is dominated by anything
    assert from_facets([[], [1]]).facets() == (("1",),)


def test_from_facets_void():
    v = from_facets([])
    assert v.is_void
    assert v.kind == "void"
    with pytest.raises(VoidComplex):
        v.f_vector()
    with pytest.raises(VoidComplex):
        v.dimension()
    with pytest.raises(VoidComplex):
        v.link([])
    with pytest.raises(VoidComplex):
        v.euler_characteristics()
    with pytest.raises(VoidComplex):
        v.suspension()
    # no facets at all is the void complex, however it is built
    bare = SimplicialComplex((), ())
    assert bare == v and hash(bare) == hash(v) and bare.kind == "void"
    with pytest.raises(VoidComplex):
        bare.f_vector()
    with pytest.raises(VoidComplex):
        v.join(from_facets([[1]]))


def test_from_facets_label_errors():
    with pytest.raises(DuplicateVertexInFacet):
        from_facets([[1, 1]])
    with pytest.raises(InvalidLabel):
        from_facets([[""]])
    for label in ("a b", "a\u00a0b", "\u2003x", "\x1c", "a\tb", "x\n"):
        with pytest.raises(InvalidLabel) as info:
            from_facets([["ok", label]])
        assert str(info.value) == f"label {label!r} contains whitespace"
    assert from_facets([["a\u200bb", "\u00e9"]]).labels == ("a\u200bb", "\u00e9")
    with pytest.raises(InvalidLabel):
        from_facets([[None]])


def test_constructor_keeps_the_maximal_masks_sorted():
    c = SimplicialComplex(("1", "2"), (1, 3))
    assert c.facet_masks == (3,) and c.facets() == (("1", "2"),) and c.is_pure()
    assert c == from_facets([[1], [1, 2]])
    twice = SimplicialComplex(["1", "2", "3"], iter([4, 3, 3, 1]))
    assert twice.facets() == (("1", "2"), ("3",)) and twice.facet_masks == (3, 4)
    assert twice == from_facets([[3], [1, 2], [2, 1], [1]])
    assert SimplicialComplex((), [0, 0]) == from_facets([[]])
    assert SimplicialComplex((), []) == from_facets([])


@pytest.mark.parametrize("labels, masks", [
    (("1", "2"), (-1,)),            # a negative mask
    (("1", "2"), (3, -4)),
    (("1", "2"), (1, 4)),           # a bit past the last label
    (("1", "2", "3"), (3,)),        # a label that no facet holds
    (("1",), ()),                   # labels, but no facets
    ((), (1,)),
    (("2", "1"), (3,)),             # labels out of order
    (("1", "1"), (3,)),             # a repeated label
    (("1", 2), (3,)),               # labels that do not compare
    (("1", "2"), (1.0, 2)),         # a mask that is no integer
    (("1",), ([1],)),
])
def test_constructor_refuses_masks_that_do_not_cover_the_labels(labels, masks):
    with pytest.raises(InvalidParameter, match="facet masks must cover exactly the strictly"):
        SimplicialComplex(labels, masks)


def test_integer_labels_cost_what_their_strings_cost():
    # the per-label path checks repeats with a dict, not by scanning the labels so far
    ints = list(range(1, 20_001))
    strings = [str(i) for i in ints]

    def best(facet):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            c = from_facets([facet])
            times.append(time.perf_counter() - start)
        return min(times), c

    int_time, by_ints = best(ints)
    str_time, by_strings = best(strings)
    assert by_ints == by_strings and by_ints.n == 20_000
    assert int_time < 5 * str_time + 0.5, (int_time, str_time)
    with pytest.raises(DuplicateVertexInFacet):
        from_facets([ints + [20_000]])


# -- counting ---------------------------------------------------------------------

def test_f_vector_examples():
    assert tuple(from_facets(EX3).f_vector()) == (1, 4, 5, 1)
    assert tuple(boundary_simplex(3).f_vector()) == (1, 4, 6, 4)
    assert tuple(from_facets([[]]).f_vector()) == (1,)


def test_dimension_and_purity():
    c = from_facets(EX3)
    assert c.dimension() == 2 and not c.is_pure()
    t = boundary_simplex(3)
    assert t.dimension() == 2 and t.is_pure()
    empty = from_facets([[]])
    assert empty.dimension() == -1 and empty.is_pure()


def test_euler_characteristics():
    assert boundary_simplex(3).euler_characteristics() == (1, 2)
    assert from_facets(EX3).euler_characteristics() == (-1, 0)
    assert from_facets([[]]).euler_characteristics() == (-1, 0)


def test_chi_relation_holds_everywhere(corpus4, random_corpus):
    for c in corpus4 + random_corpus[:100]:
        chi, chi_top = c.euler_characteristics()
        assert chi_top == chi + 1


# -- link -----------------------------------------------------------------------------

def test_link_examples():
    c = from_facets(EX3)
    assert c.link(["4"]).facets() == (("2",), ("3",))
    assert c.link([]) == c
    vertex_link = boundary_simplex(3).link(["1"])
    assert vertex_link.facets() == (("2", "3"), ("2", "4"), ("3", "4"))
    assert tuple(vertex_link.f_vector()) == (1, 3, 3)


def test_link_of_facet_is_empty_complex():
    c = from_facets(EX3)
    lk = c.link(["1", "2", "3"])
    assert lk.dimension() == -1
    assert tuple(lk.f_vector()) == (1,)


def test_link_errors():
    c = from_facets(EX3)
    with pytest.raises(FaceNotInComplex):
        c.link(["1", "4"])      # not a face
    with pytest.raises(FaceNotInComplex):
        c.link(["9"])           # not even a vertex


def test_membership_and_links_read_the_facets():
    # 2^31 faces, far over the face budget: the facets answer without them
    big = full_simplex(30)
    assert big.has_face(["1", "31"]) and big.has_face([]) and not big.has_face(["32"])
    lk = big.link(["1"])
    assert lk.labels == tuple(sorted(str(i) for i in range(2, 32))) and lk.is_pure()
    assert big.link(big.labels) == from_facets([[]])
    c = from_facets(EX3)
    assert c.has_face(["2", "3"]) and not c.has_face(["1", "4"])
    assert c.link(["2"]).facets() == (("1", "3"), ("4",))
    with pytest.raises(FaceNotInComplex, match=r"\{1 4\} is not a face"):
        c.link(["4", "1"])
    for complex_ in (big, c):
        assert "_cover" not in complex_.__dict__ and "face_mask_set" not in complex_.__dict__


def test_membership_and_links_match_the_face_set(corpus4):
    for c in corpus4:
        faces = faces_of(c)
        for mask in range(1 << c.n):
            face = [c.labels[v] for v in bit_indices(mask)]
            assert c.has_face(face) == (mask in faces)
            want = link_by_faces(c, mask)
            if want is None:
                with pytest.raises(FaceNotInComplex):
                    c.link(face)
                continue
            labels, facets = want
            lk = c.link(face)
            assert lk.labels == labels
            want_facets = (tuple(c.labels[v] for v in bit_indices(m)) for m in facets)
            assert sorted(lk.facets()) == sorted(want_facets)


def test_a_face_argument_is_a_collection_of_labels():
    c = from_facets([[1, 2], [12, 3]])
    assert c.link(["12"]).facets() == (("3",),)
    assert c.has_face(["12", "3"]) and c.has_face((1, 2)) and not c.has_face(["9"])
    # a bare string would read as its characters: "12" as the face {1, 2}
    for bare in ("12", b"12", 5, None):
        for query in (c.has_face, c.link):
            with pytest.raises(InvalidParameter):
                query(bare)


def test_vertex_link_face_count_identity(corpus3, random_corpus):
    # (j+1) f_j = sum over vertices of f_{j-1} of the vertex link
    for c in corpus3 + random_corpus[:60]:
        if c.is_void or c.n == 0:
            continue
        f = c.f_vector()
        d = f.d
        link_fs = [c.link([lab]).f_vector() for lab in c.labels]
        for j in range(d):
            total = sum(lf[j] if j <= lf.d else 0 for lf in link_fs)
            assert (j + 1) * f[j + 1] == total


# -- join and suspension ------------------------------------------------------------------

drawn_complexes = st.lists(st.lists(st.sampled_from("abcd5"), unique=True, max_size=4),
                          min_size=1, max_size=6).map(from_facets)


@settings(max_examples=300)
@given(drawn_complexes, drawn_complexes)
def test_join_builds_from_masks(a, b):
    # the join never reads labels back: its masks are a | b shifted past a's vertices
    with mock.patch("scx.complexes.from_facets", side_effect=AssertionError("label round trip")):
        joined = a.join(b)
    want = join_by_labels(a, b)
    assert (joined.labels, joined.facet_masks) == (want.labels, want.facet_masks)
    assert joined.facets() == want.facets()


def test_join_with_empty_complex_relabels_only():
    c = from_facets(EX3)
    j = from_facets([[]]).join(c)
    assert tuple(j.f_vector()) == tuple(c.f_vector())
    assert j.facets() == tuple(sorted(tuple("R." + v for v in f) for f in c.facets()))


def test_join_two_point_complexes_is_four_cycle():
    s0 = from_facets([[1], [2]])
    square = s0.join(s0)
    assert tuple(square.f_vector()) == (1, 4, 4)
    assert square.dimension() == 1 and square.is_pure()


def test_join_of_two_triangles_f_vector():
    j = cycle(3).join(cycle(3))
    assert tuple(j.f_vector()) == (1, 6, 15, 18, 9)
    assert j.dimension() == cycle(3).dimension() * 2 + 1


def test_join_f_polynomial_multiplicative(random_corpus):
    rng = random.Random(7)
    pool = [c for c in random_corpus if not c.is_void and c.n <= 6]
    for _ in range(25):
        a, b = rng.choice(pool), rng.choice(pool)
        product = f_polynomial(a.f_vector()) * f_polynomial(b.f_vector())
        assert f_polynomial(a.join(b).f_vector()) == product


def test_suspension_examples():
    two_points = from_facets([[]]).suspension()
    assert tuple(two_points.f_vector()) == (1, 2)
    assert tuple(cycle(3).suspension().f_vector()) == (1, 5, 9, 6)


# -- generators ------------------------------------------------------------------------------

def test_boundary_simplex_binomials():
    from math import comb
    for d in range(1, 7):
        f = boundary_simplex(d).f_vector()
        assert f.d == d
        assert all(f[i] == comb(d + 1, i) for i in range(d + 1))


def test_cycle_and_whiskers():
    assert tuple(cycle(3).f_vector()) == (1, 3, 3)
    assert tuple(whiskered_cycle(3, 1).f_vector()) == (1, 4, 4)
    assert whiskered_cycle(3, 0) == cycle(3)
    assert tuple(cycle(12).f_vector()) == (1, 12, 12)


def test_full_simplex_faces():
    c = full_simplex(3)
    assert tuple(c.f_vector()) == (1, 4, 6, 4, 1)
    assert c.dimension() == 3


def test_face_budget_refuses_before_enumerating(monkeypatch):
    import scx.complexes as complexes

    # 2^31 possible faces: refused by the bound, without building any face
    big = full_simplex(30)
    for query in (lambda: big.face_mask_set, big.f_vector, big.faces):
        with pytest.raises(TooLarge, match=f"2147483648, over the face budget of {complexes.FACE_BUDGET}"):
            query()
    assert big.dimension() == 30 and big.is_pure()
    # the guard compares sum over facets of 2^|F| with the budget: equal passes
    monkeypatch.setattr(complexes, "FACE_BUDGET", 12)
    assert len(from_facets([[1, 2, 3], [3, 4]]).face_mask_set) == 10
    with pytest.raises(TooLarge, match="by 14, over the face budget of 12"):
        from_facets([[1, 2, 3], [3, 4], [5]]).f_vector()


# each generator with the vertex entries its facet list holds, counted by hand
GENERATOR_ENTRIES = [
    (boundary_simplex, (4,), 4 * 5),
    (full_simplex, (4,), 4 + 1),
    (cycle, (10,), 2 * 10),
    (cross_polytope, (4,), 4 * 2 ** 4),
    (whiskered_cycle, (5, 3), 2 * (5 + 3)),
    (random_complex, (0, 4, 6, 9), 6 * min(9, 4)),
]


@pytest.mark.parametrize("fn, params, entries", GENERATOR_ENTRIES,
                         ids=[fn.__name__ for fn, _, _ in GENERATOR_ENTRIES])
def test_generators_build_at_the_face_budget_and_refuse_over_it(monkeypatch, fn, params, entries):
    import scx.complexes as complexes

    monkeypatch.setattr(complexes, "FACE_BUDGET", entries)
    assert fn(*params).n > 0
    monkeypatch.setattr(complexes, "FACE_BUDGET", entries - 1)
    with pytest.raises(TooLarge, match=f"would list more than {entries - 1} vertex entries"):
        fn(*params)


def test_cross_polytope_refuses_past_the_budget_bit_length(monkeypatch):
    import scx.complexes as complexes

    # FACE_BUDGET = 7 has bit length 3; d = 4 and 9 compare a capped d * 2^3
    monkeypatch.setattr(complexes, "FACE_BUDGET", 7)
    assert cross_polytope(1).n == 2
    for d in (2, 3, 4, 9):
        with pytest.raises(TooLarge, match=rf"cross_polytope\({d}\) would list more than 7"):
            cross_polytope(d)


def test_cross_polytope_matches_iterated_join():
    for d in range(1, 5):
        direct = cross_polytope(d)
        joined = from_facets([[1], [2]])
        for _ in range(d - 1):
            joined = from_facets([[1], [2]]).join(joined)
        assert tuple(direct.f_vector()) == tuple(joined.f_vector())
    assert tuple(cross_polytope(2).f_vector()) == (1, 4, 4)


def test_make_dispatch():
    assert make("boundary-simplex", 3) == boundary_simplex(3)
    assert make("whiskered_cycle", 4, 2) == whiskered_cycle(4, 2)
    with pytest.raises(InvalidParameter):
        make("dodecahedron", 1)
    with pytest.raises(InvalidParameter):
        make("cycle")            # wrong arity
    with pytest.raises(InvalidParameter):
        make("cycle", 2)         # n too small
    with pytest.raises(InvalidParameter):
        boundary_simplex(0)
    with pytest.raises(InvalidParameter):
        whiskered_cycle(3, -1)


# -- enumeration -------------------------------------------------------------------------------

def test_enumerate_tiny_cases():
    ones = list(enumerate_all_complexes(1))
    assert [c.facets() for c in ones] == [((),), (("1",),)]
    twos = list(enumerate_all_complexes(2))
    assert [c.facets() for c in twos] == [
        ((),),
        (("1",),),
        (("1",), ("2",)),
        (("2",),),
        (("1", "2"),),
    ]


def test_enumerate_counts_and_determinism(corpus3):
    assert len(corpus3) == 19
    assert corpus3 == list(enumerate_all_complexes(3))
    assert len(set(corpus3)) == len(corpus3)


def test_enumerate_matches_bruteforce_antichains(corpus3, corpus4):
    # the brute force includes the empty family, which plays the role of the
    # empty-face complex in the count
    for n, corpus in ((2, list(enumerate_all_complexes(2))), (3, corpus3), (4, corpus4)):
        families = antichain_families(n)
        assert len(corpus) == len(families)
        expected = {from_facets([[]])} | {
            from_facets([[str(i + 1) for i in range(n) if mask >> i & 1] for mask in family])
            for family in families if family}
        assert set(corpus) == expected


def test_enumerate_bounds():
    with pytest.raises(InvalidParameter):
        list(enumerate_all_complexes(0))
    with pytest.raises(TooLarge):
        list(enumerate_all_complexes(6))


# -- random complexes -----------------------------------------------------------------------------

def test_random_complex_deterministic():
    a = random_complex(0, 6, 4, 3)
    b = random_complex(0, 6, 4, 3)
    assert a == b
    assert any(random_complex(s, 6, 4, 3) != a for s in range(1, 6))


def test_random_complex_invariants(random_corpus):
    for c in random_corpus[:200]:
        assert not c.is_void
        # facets form an antichain
        for m in c.facet_masks:
            assert not any(m != o and m & o == m for o in c.facet_masks)
        assert closed_under_subsets(c)
        # every vertex occurs in some facet
        used = 0
        for m in c.facet_masks:
            used |= m
        assert used == (1 << c.n) - 1


def test_random_complex_parameter_validation():
    with pytest.raises(InvalidParameter):
        random_complex(0, 0, 1, 1)
    with pytest.raises(InvalidParameter):
        random_complex(0, 3, 0, 1)
    with pytest.raises(InvalidParameter):
        random_complex(0, 3, 1, 0)


def test_closure_exhaustive(corpus3):
    for c in corpus3:
        assert closed_under_subsets(c)


# -- facet text format ------------------------------------------------------------------------------

def test_parse_facet_text_roundtrip(corpus3):
    for c in corpus3:
        assert parse_facet_text(c.to_facet_text()) == c


def test_parse_facet_text_forms():
    assert parse_facet_text("facet 1 2\nfacet 2 3\n") == from_facets([[1, 2], [2, 3]])
    assert parse_facet_text("# comment\n\nfacet\n") == from_facets([[]])
    assert parse_facet_text("# nothing here\n").is_void
    assert parse_facet_text("").is_void
    with pytest.raises(FacetFormatError):
        parse_facet_text("simplex 1 2\n")
    with pytest.raises(DuplicateVertexInFacet):
        parse_facet_text("facet 1 1\n")


def test_to_facet_text_frozen_forms():
    assert from_facets([[]]).to_facet_text() == "facet\n"
    assert from_facets(EX3).to_facet_text() == "facet 1 2 3\nfacet 2 4\nfacet 3 4\n"
    void_text = from_facets([]).to_facet_text()
    assert parse_facet_text(void_text).is_void


def test_repr_smoke():
    assert "2 4" in repr(from_facets(EX3))
    assert repr(from_facets([])) == "SimplicialComplex(void)"
