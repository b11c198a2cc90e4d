"""Construction, canonicalization, face enumeration and the generators."""

import random
import sys
import time
from math import comb
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
    classify,
    cross_polytope,
    cycle,
    enumerate_all_complexes,
    f_polynomial,
    fine_e_polynomial,
    from_facets,
    full_simplex,
    make,
    minimal_nonfaces,
    parse_facet_text,
    random_complex,
    taylor_coefficient,
    vector_json,
    whiskered_cycle,
)
from scx.complexes import _bits, _listed
from oracles import (NOT_LINE_ENDS, antichain_families, closed_under_subsets, complexes_by_labels, faces_of,
                     join_by_labels, link_by_faces, listed_by_labels, vertices_of)

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
    assert not from_facets([[]]).is_void   # {} has the empty face
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
    # the face set carries the rule for faces(); the facet readers check it themselves
    for query in (v.faces, v.is_pure, lambda: v.has_face([]), lambda: from_facets([[1]]).join(v)):
        with pytest.raises(VoidComplex):
            query()
    # no facets at all is the void complex, however it is built
    bare = SimplicialComplex((), ())
    assert bare == v and hash(bare) == hash(v) and bare.is_void
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
    (("a b",), (1,)),               # a label that is two words
    (("",), (1,)),                  # an empty label
    ((1, 2), (3,)),                 # labels that are no strings
    (None, (1,)),                   # labels that are no collection
    ("ab", (3,)),                   # a string, which would split into one-letter labels
])
def test_constructor_refuses_masks_that_do_not_cover_the_labels(labels, masks):
    with pytest.raises(InvalidParameter, match="facet masks must cover exactly the strictly"):
        SimplicialComplex(labels, masks)


def test_bit_indices_refuses_a_negative_mask():
    assert list(bit_indices(0b10110)) == [1, 2, 4] and list(bit_indices(0)) == []
    # -1 has endless set bits: next, not list, so a walk that never ends shows as a failure
    with pytest.raises(InvalidParameter, match="nonnegative mask, got -1"):
        next(bit_indices(-1))
    for bad in (1.5, "a"):
        with pytest.raises(InvalidParameter, match="nonnegative mask, got "):
            next(bit_indices(bad))


def test_the_one_decoder_lists_the_set_bits_ascending():
    # the oracles' digit scan is the reference
    rng = random.Random(12)
    masks = [*range(1 << 12), *(rng.getrandbits(rng.randint(13, 200)) for _ in range(3000))]
    for m in masks:
        assert _bits(m) == vertices_of(m) == list(bit_indices(m)), m
    assert list(bit_indices(True)) == [0]  # a bool is an int, and bit_indices checks no more


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


def test_n_is_the_label_count_on_every_construction_path():
    c = from_facets(EX3)
    built = [c, from_facets([[]]), from_facets([]), SimplicialComplex(("a", "b"), [1, 2, 3]),
             c.join(cycle(3)), c.link(["2"]), c.link(["1", "2", "3"]), c.suspension(),
             parse_facet_text("facet x y\nfacet y z\n"), random_complex(3, 9, 4, 3),
             boundary_simplex(3), full_simplex(2), cycle(5), cross_polytope(3), whiskered_cycle(4, 2),
             make("cycle", 4), *enumerate_all_complexes(3)]
    for x in built:
        assert x.n == len(x.labels), x
    assert [x.n for x in built[:7]] == [4, 0, 0, 2, 7, 3, 0]
    assert [fine_e_polynomial(x).n for x in (c, built[1])] == [4, 0]


# -- counting ---------------------------------------------------------------------

def test_f_vector_examples():
    assert tuple(from_facets(EX3).f_vector()) == (1, 4, 5, 1)
    assert tuple(boundary_simplex(3).f_vector()) == (1, 4, 6, 4)
    assert tuple(from_facets([[]]).f_vector()) == (1,)


def test_f_vector_is_built_once_per_complex():
    import scx.complexes as complexes

    c = from_facets(EX3)
    with mock.patch.object(complexes, "FVector", wraps=complexes.FVector) as build:
        f = c.f_vector()
        classify(c)
        vector_json(c.f_vector())
        c.euler_characteristics()
    assert build.call_count == 1 and c.f_vector() is f and c.f_vector() is c.f_vector()
    void = from_facets([])
    for _ in range(2):
        with pytest.raises(VoidComplex):
            void.f_vector()


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
        assert "_faces" not in complex_.__dict__


def test_membership_and_links_match_the_faces(corpus4):
    for c in corpus4:
        faces = faces_of(c)
        for mask in range(1 << c.n):
            face = [c.labels[v] for v in vertices_of(mask)]
            assert c.has_face(face) == (mask in faces)
            want = link_by_faces(c, mask)
            if want is None:
                with pytest.raises(FaceNotInComplex):
                    c.link(face)
                continue
            labels, facets = want
            lk = c.link(face)
            assert lk.labels == labels
            want_facets = (tuple(c.labels[v] for v in vertices_of(m)) for m in facets)
            assert sorted(lk.facets()) == sorted(want_facets)


def test_a_face_argument_is_a_collection_of_labels():
    c = from_facets([[1, 2], [12, 3]])
    assert c.link(["12"]).facets() == (("3",),)
    assert c.has_face(["12", "3"]) and c.has_face((1, 2)) and not c.has_face(["9"])
    # a bare string would read as its characters: "12" as the face {1, 2}
    for bare in ("12", b"12", 5, None):
        for query in (c.has_face, c.link, from_facets, lambda facet: from_facets([["3"], facet])):
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
    assert cycle(3) != 3 and cycle(3).__eq__("x") is NotImplemented
    assert tuple(cycle(12).f_vector()) == (1, 12, 12)


def test_full_simplex_faces():
    c = full_simplex(3)
    assert tuple(c.f_vector()) == (1, 4, 6, 4, 1)
    assert c.dimension() == 3


def _assert_faces_match_the_combinations(c):
    want = sorted((tuple(c.labels[v] for v in vertices_of(m)) for m in faces_of(c)),
                  key=lambda face: (len(face), face))
    assert c.faces() == want, c


def test_faces_match_the_combinations(corpus4):
    families = [*(cross_polytope(d) for d in range(1, 8)), *(boundary_simplex(d) for d in range(1, 10)),
                *(cycle(n) for n in range(3, 51)), whiskered_cycle(5, 3)]
    for c in [*corpus4, from_facets([[]]), *families]:
        _assert_faces_match_the_combinations(c)
    assert from_facets([[]]).faces() == [()]


@given(drawn_complexes)
def test_faces_match_the_combinations_on_drawn_complexes(c):
    _assert_faces_match_the_combinations(c)


def test_the_mask_order_is_the_label_order(corpus5):
    # labels 1..14 sort "10" before "2", so the index order is no numeric order
    for c in [*corpus5, *(random_complex(seed, 14, 30, 6) for seed in range(200))]:
        for masks in (c._fine_terms, *c._faces):
            assert _listed(c.n, masks) == listed_by_labels(c.labels, masks), c


def test_faces_walk_the_facets_not_the_minimal_nonface_search():
    # the search tries every pair of vertices and keeps ~n^2/2 minimal
    # non-faces on a long cycle; faces() costs one step a face and facet
    c = cycle(2000)
    assert len(c.faces()) == 1 + 2000 + 2000
    assert "_faces" not in vars(c)


def test_face_budget_refuses_before_enumerating(monkeypatch):
    import scx.complexes as complexes

    # 2^31 faces and no shared one: the f-vector is exact, the listing refused
    # by the exact face count, without building any face
    big = full_simplex(30)
    assert tuple(big.f_vector()) == tuple(comb(31, k) for k in range(32))
    with pytest.raises(TooLarge) as refused:
        big.faces()
    assert str(refused.value) == "the face count is 2147483648, over the face budget of 4194304"
    assert big.dimension() == 30 and big.is_pure() and "_faces" not in vars(big)
    # the guard compares the exact face count with the budget: equal passes
    c = from_facets([[1, 2, 3], [3, 4]])
    monkeypatch.setattr(complexes, "FACE_BUDGET", 10)
    assert sum(c.f_vector()) == len(c.faces()) == 10
    monkeypatch.setattr(complexes, "FACE_BUDGET", 9)
    with pytest.raises(TooLarge, match="^the face count is 10, over the face budget of 9$"):
        c.faces()


def test_face_budget_message_is_the_same_for_the_shared_faces(monkeypatch):
    import scx.complexes as complexes

    # the shared faces are refused as the minimal non-faces are, by a running
    # count: S of the tetrahedron's boundary is its 11 faces of at most 2
    # vertices, and with a cap of 4 the search stops before it descends from {2}
    monkeypatch.setattr(complexes, "FACE_BUDGET", 8)
    c = SimplicialComplex(tuple("1234"), [7, 11, 13, 14])
    with pytest.raises(TooLarge) as refused:
        c.f_vector()
    assert str(refused.value) == "5 shared faces found so far, over half the face budget of 8"
    assert "_shared" not in vars(c)
    # a budget of 2 |S| = 22 passes: the facets' bound, 4 * 2^3 = 32, may be far above it
    monkeypatch.setattr(complexes, "FACE_BUDGET", 22)
    assert tuple(c.f_vector()) == (1, 4, 6, 4) and len(c._shared) == 11


def _facet_bound(c):
    return sum(1 << m.bit_count() for m in c.facet_masks)


def _assert_the_budget_rests_on_the_facet_bound(c):
    # a shared face is in two facets and a face in one, so the facets, counted
    # once each, bound 2 |S| and the face count by sum over facets of 2^|F|
    bound = _facet_bound(c)
    assert 2 * len(c._shared) <= bound and sum(c.f_vector()) <= bound, c
    # at a budget of that bound every build answers, the minimal non-faces
    # whenever they number no more than it: the bound never priced them
    count = len(c._faces[1])
    fresh = SimplicialComplex(c.labels, c.facet_masks)
    with mock.patch("scx.complexes.FACE_BUDGET", bound):
        assert fresh.f_vector() == c.f_vector()
        assert len(fresh.faces()) == sum(c.f_vector())
        assert taylor_coefficient(fine_e_polynomial(fresh), (0,) * c.n) == 1
        if count <= bound:
            assert len(minimal_nonfaces(fresh)) == count
        else:
            with pytest.raises(TooLarge, match="minimal non-faces found so far"):
                minimal_nonfaces(fresh)


def test_every_complex_the_facet_bound_admits_is_admitted(corpus5):
    for c in corpus5:
        _assert_the_budget_rests_on_the_facet_bound(c)


@given(st.lists(st.frozensets(st.integers(1, 12), max_size=7), min_size=1, max_size=10).map(from_facets))
def test_every_drawn_complex_the_facet_bound_admits_is_admitted(c):
    _assert_the_budget_rests_on_the_facet_bound(c)


def test_the_exact_face_count_admits_what_the_facet_bound_refused(monkeypatch):
    import scx.complexes as complexes

    # two triangles on an edge: 12 faces, 4 of them shared, and the facets bound them by 16
    c = from_facets([[1, 2, 3], [2, 3, 4]])
    monkeypatch.setattr(complexes, "FACE_BUDGET", 12)
    assert _facet_bound(c) == 16 and len(c.faces()) == 12 and minimal_nonfaces(c) == (("1", "4"),)
    assert taylor_coefficient(fine_e_polynomial(c), (1, 1, 1, 0)) == 1


def test_face_counts_are_exact_past_the_face_budget():
    for d in range(1, 61):
        assert tuple(full_simplex(d).f_vector()) == tuple(comb(d + 1, k) for k in range(d + 2)), d
    # two facets of a and b vertices sharing c: 2^a + 2^b - 2^c faces
    for a, b, c in [(30, 30, 10), (40, 25, 0), (45, 45, 12), (60, 2, 1), (3, 50, 3)]:
        facets = [range(a), range(a - c, a - c + b)]
        assert sum(from_facets(facets).f_vector()) == 2 ** a + 2 ** b - 2 ** c, (a, b, c)


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
    for args in ((None, 3), (3,)):   # a kind that is no string
        with pytest.raises(InvalidParameter, match=f"^unknown kind {args[0]} "):
            make(*args)
    assert make("full_simplex", True) == full_simplex(1)  # a bool counts as an int


@pytest.mark.parametrize("fn, args", [
    (cycle, (4.0,)), (cycle, ("3",)), (cross_polytope, (2.0,)), (boundary_simplex, (2.5,)),
    (random_complex, (1, "3", 2, 2)), (make, ("cycle", "3")),
    (lambda n: next(enumerate_all_complexes(n)), ("a",)),
], ids=lambda v: getattr(v, "__name__", None) or repr(v))
def test_size_parameters_must_be_ints(fn, args):
    with pytest.raises(InvalidParameter):
        fn(*args)


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


def test_enumerate_counts_and_determinism(corpus3, corpus4, corpus5):
    # the Dedekind numbers less one: every antichain of subsets of {1..n} but the empty one
    sizes = [len(list(enumerate_all_complexes(n))) for n in (1, 2)] + [len(corpus3), len(corpus4), len(corpus5)]
    assert sizes == [2, 5, 19, 167, 7580]
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


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_enumerate_matches_the_label_built_oracle(n):
    # the same complexes, with the same labels, in the same order
    assert [(c.labels, c.facet_masks) for c in enumerate_all_complexes(n)] == [
        (c.labels, c.facet_masks) for c in complexes_by_labels(n)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_enumerated_complexes_answer_as_the_checked_constructor_does(n):
    # the enumerator skips the constructor's checks and filter, and builds on
    # first use the very vertex bitsets the filter stores
    for c in enumerate_all_complexes(n):
        checked = SimplicialComplex(c.labels, c.facet_masks)
        assert checked.facet_masks == c.facet_masks and checked.is_void is c.is_void and checked.n == c.n
        assert c._holders == checked._holders, c
        assert c.f_vector() == checked.f_vector(), c
        assert list(c._shared.items()) == list(checked._shared.items()), c
        assert c._faces[0] == checked._faces[0] and tuple(c._faces[1]) == tuple(checked._faces[1]), c
        assert c._fine_terms == checked._fine_terms, c
        assert classify(c) == classify(checked) and minimal_nonfaces(c) == minimal_nonfaces(checked), c


def test_enumerated_complexes_build_their_vertex_bitsets_on_first_use():
    for c in enumerate_all_complexes(4):
        assert "_holders" not in vars(c), c
        c.f_vector()
        # one facet shares nothing, so its search never starts
        assert ("_holders" in vars(c)) == (len(c.facet_masks) > 1), c
    for c in (from_facets([[]]), from_facets([[1, 2]]), from_facets([[1, 2], [2, 3]]), cross_polytope(3)):
        assert "_holders" in vars(c), c


def _assert_bit_j_marks_the_jth_facet_from_the_last(c):
    stored = vars(c)["_holders"]
    assert len(stored) == c.n and stored == SimplicialComplex._holders.func(c), c
    for v, bits in enumerate(stored):
        assert bits >> len(c.facet_masks) == 0, (c, v)
        for j in range(len(c.facet_masks)):
            assert bits >> j & 1 == c.facet_masks[~j] >> v & 1, (c, v, j)


def test_every_construction_path_stores_the_one_bitset_order():
    # the filter's bitsets, as the constructor stores them, are the ones a
    # complex that skipped it would build: bit j marks facet_masks[~j]
    paths = [
        from_facets([[1, 2], [2, 1], [3], [1, 2, 3], [4], [4], [], [2, 4], [5]]),
        from_facets([[]]), from_facets([[], []]), from_facets([[], [1]]), from_facets(EX3),
        from_facets([["6"], ["1", "2", "3", "4", "5"], ["1", "2"], ["6"], []]),
        SimplicialComplex(tuple("abcdef"), [0b100000, 0b011111, 0b000011, 0b100000, 0]),
        SimplicialComplex(("a", "b", "c"), [0b011, 0b110, 0b010, 0b101, 0b011]),
        cycle(5).join(from_facets(EX3)), from_facets(EX3).suspension(),
        cross_polytope(3).link(["1+"]), boundary_simplex(4).link(["1", "2"]),
        boundary_simplex(4), full_simplex(3), cycle(7), cross_polytope(4), whiskered_cycle(5, 3),
        *(random_complex(seed, 12, 30, 6) for seed in range(20)),
    ]
    for c in paths:
        _assert_bit_j_marks_the_jth_facet_from_the_last(c)


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
    with pytest.raises(InvalidParameter, match=r"^the seed must be an int, got \[1\]$"):
        random_complex([1], 5, 3, 2)
    # random.sample draws from range(1, n + 1), whose length must fit a C ssize_t
    with pytest.raises(InvalidParameter, match=f"n at most {sys.maxsize}, got {sys.maxsize + 1}$"):
        random_complex(4, sys.maxsize + 1, 3, 2)
    assert random_complex(4, sys.maxsize, 3, 2).facets() == (
        ("1429366960706537028", "613493506904739668"), ("5067337601641261879",), ("951538679902697981",))


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
    for bad in (None, b"facet a"):
        with pytest.raises(InvalidParameter, match="parse_facet_text needs a str"):
            parse_facet_text(bad)


def test_not_line_ends_are_every_other_splitlines_boundary():
    breaks = {chr(i) for i in range(0x10000) if len(f"a{chr(i)}b".splitlines()) > 1}
    assert breaks == set(NOT_LINE_ENDS) | {"\n", "\r"}
    assert all(ch.isspace() for ch in NOT_LINE_ENDS)


@pytest.mark.parametrize("ch", NOT_LINE_ENDS, ids=repr)
def test_only_universal_newlines_end_a_line(ch):
    # inside a comment the character is comment text, so no facet hides behind it
    assert parse_facet_text(f"# note{ch}facet z\nfacet a b\n") == from_facets([["a", "b"]])
    assert parse_facet_text(f"# note{ch}facet z\n").is_void
    # inside a facet line it separates labels like any other whitespace
    assert parse_facet_text(f"facet a{ch}b\n") == from_facets([["a", "b"]])
    assert parse_facet_text(f"{ch}facet a b{ch}\n") == from_facets([["a", "b"]])
    # so an error names the whole line, numbered by universal newlines alone
    with pytest.raises(FacetFormatError) as info:
        parse_facet_text(f"facet a\nsimplex{ch}b\nfacet c\n")
    assert str(info.value) == f"line 2: expected a 'facet' line, got {f'simplex{ch}b'!r}"


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
def test_line_ends(end):
    lines = ["# four vertices", "facet 1 2 3", "", "facet 2 4", "  facet 3 4  ", "# done"]
    assert parse_facet_text(end.join(lines) + end) == from_facets(EX3)
    assert parse_facet_text(end.join(lines)) == from_facets(EX3)
    # error line numbers count LF, CRLF and CR alone, each as one line end
    with pytest.raises(FacetFormatError, match=r"^line 4: expected a 'facet' line, got 'simplex 1 2'$"):
        parse_facet_text(end.join(["# c", "facet 1", "", "simplex 1 2", "facet 2"]))


def test_mixed_line_ends_and_the_byte_order_mark():
    assert parse_facet_text("facet 1 2 3\r\nfacet 2 4\rfacet 3 4\n") == from_facets(EX3)
    with pytest.raises(FacetFormatError, match=r"^line 3: expected a 'facet' line, got 'simplex'$"):
        parse_facet_text("facet 1\r\n\rsimplex\r\n")
    # one leading U+FEFF is skipped; a second one, or one further on, is text
    assert parse_facet_text("\ufeff# c\r\nfacet 1 2 3\nfacet 2 4\nfacet 3 4\n") == from_facets(EX3)
    assert parse_facet_text("\ufeff").is_void
    assert parse_facet_text("facet \ufeffa\n") == from_facets([["\ufeffa"]])
    with pytest.raises(FacetFormatError) as info:
        parse_facet_text("\ufeff\ufefffacet a\n")
    assert str(info.value) == "line 1: expected a 'facet' line, got '\\ufefffacet a'"


def test_to_facet_text_frozen_forms():
    assert from_facets([[]]).to_facet_text() == "facet\n"
    assert from_facets(EX3).to_facet_text() == "facet 1 2 3\nfacet 2 4\nfacet 3 4\n"
    void_text = from_facets([]).to_facet_text()
    assert parse_facet_text(void_text).is_void


def test_repr_smoke():
    assert "2 4" in repr(from_facets(EX3))
    assert repr(from_facets([])) == "SimplicialComplex(void)"
