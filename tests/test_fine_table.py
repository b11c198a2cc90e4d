"""The shared faces, the fine coefficient table and the Eulerian checks read
off them, and the lazy superset-sum table behind taylor_coefficient, against
the submask walk's cover, the brute-force link sums, subset walks, the all-faces zeta kernel
and the term scans of oracles.py."""

import io
import random
import sys
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from scx import (
    SimplicialComplex,
    bit_indices,
    boundary_simplex,
    check_weak_property_e,
    classify,
    coarse_from_fine,
    cross_polytope,
    cycle,
    evaluate_e_poly_exact,
    f_to_e,
    fine_e_polynomial,
    from_facets,
    full_simplex,
    is_eulerian,
    is_eulerian_sphere,
    minimal_nonfaces,
    random_complex,
    taylor_coefficient,
    whiskered_cycle,
)
from scx import properties
from scx.cli import run
from scx.complexes import _mask_of
from scx.errors import InvalidParameter, ScxError, VoidComplex
from scx.hilbert import FineEPolynomial
from oracles import (
    cover_by_submask_walk,
    eulerian_by_link_sums,
    eulerian_sphere_by_link_sums,
    f_vector_of,
    fine_terms_by_submask_walk,
    fine_terms_by_zeta,
    search_order_key,
    superset_sum_by_term_scan,
)


def _families():
    out = [cross_polytope(d) for d in range(1, 7)]
    out += [boundary_simplex(d) for d in range(1, 9)]
    out += [full_simplex(d) for d in range(1, 9)]
    out += [whiskered_cycle(n, k) for n in (3, 4, 6) for k in (0, 1, 2)]
    out.append(cross_polytope(2).join(boundary_simplex(2)))
    out.append(boundary_simplex(3).suspension())
    return out


def _random(seeds=range(40), max_n=10):
    # facets of one size give pure complexes; random_complex mixes sizes
    out = []
    for seed in seeds:
        rng = random.Random(seed)
        n = rng.randint(4, max_n)
        size = rng.randint(1, min(n, 5))
        out.append(from_facets([rng.sample(range(1, n + 1), size)
                                for _ in range(rng.randint(1, 12))]))
        out.append(random_complex(seed, n, rng.randint(1, 12), size))
    return out


@pytest.fixture(scope="module")
def sample(corpus5):
    return corpus5 + _families() + _random()


def test_is_eulerian_matches_link_sums(sample):
    for c in sample:
        v = is_eulerian(c)
        assert (v.ok, v.witness) == eulerian_by_link_sums(c), c


def test_is_eulerian_sphere_matches_link_sums(sample):
    for c in sample:
        v = is_eulerian_sphere(c)
        assert (v.ok, v.witness) == eulerian_sphere_by_link_sums(c), c


def test_fine_table_matches_submask_walk(sample):
    for c in sample:
        assert fine_e_polynomial(c).sorted_terms() == fine_terms_by_submask_walk(c), c


drawn_complexes = st.lists(st.frozensets(st.integers(1, 8), max_size=5), min_size=1, max_size=8).map(from_facets)


@given(drawn_complexes)
def test_fine_table_matches_submask_walk_on_drawn_complexes(c):
    assert fine_e_polynomial(c).sorted_terms() == fine_terms_by_submask_walk(c)


def test_fine_table_matches_the_zeta_kernel_on_corpus5(corpus5):
    for c in corpus5:
        assert c._fine_terms == fine_terms_by_zeta(c), c
        assert tuple(c.f_vector()) == f_vector_of(c), c


def _large_families():
    # the benchmark's shapes: spheres, full simplices, a join and a suspension
    spheres = [cross_polytope(6), cross_polytope(7), boundary_simplex(9), boundary_simplex(10),
               cross_polytope(3).join(boundary_simplex(4)), boundary_simplex(7).suspension()]
    return [(c, True) for c in spheres] + [(full_simplex(10), False), (full_simplex(12), False)]


def test_fine_table_matches_the_zeta_kernel_on_large_families():
    for c, sphere in _large_families():
        assert c._fine_terms == fine_terms_by_zeta(c), c
        assert tuple(c.f_vector()) == f_vector_of(c), c
        report = classify(c)
        assert (report.property_e, report.eulerian, report.eulerian_sphere) == (sphere,) * 3, c
        if not sphere:  # the oracle stops at the first vertex; on spheres it would sum F^2 terms
            v = is_eulerian(c)
            assert (v.ok, v.witness) == eulerian_by_link_sums(c), c


wider_complexes = st.lists(st.frozensets(st.integers(1, 12), min_size=1, max_size=7),
                           min_size=1, max_size=12).map(from_facets)


@given(wider_complexes)
def test_fine_table_matches_the_zeta_kernel_on_drawn_complexes(c):
    assert c._fine_terms == fine_terms_by_zeta(c)
    assert tuple(c.f_vector()) == f_vector_of(c)


def _terms_by_labels(c):
    return {frozenset(c.labels[i] for i in bit_indices(m)): x for m, x in c._fine_terms.items()}


@given(drawn_complexes, st.permutations(range(1, 9)))
def test_relabelling_permutes_the_table(c, perm):
    # both kernels run in bit order, and "w<k>" sorts as k does, so the bits move
    rename = {str(v): f"w{k}" for v, k in zip(range(1, 9), perm)}
    moved = from_facets([[rename[lab] for lab in f] for f in c.facets()])
    assert _terms_by_labels(moved) == {frozenset(rename[lab] for lab in s): x
                                       for s, x in _terms_by_labels(c).items()}
    assert moved.f_vector() == c.f_vector()
    assert (sorted((len(s), x) for s, x in fine_e_polynomial(moved).sorted_terms())
            == sorted((len(s), x) for s, x in fine_e_polynomial(c).sorted_terms()))
    before, after = classify(c).to_dict(), classify(moved).to_dict()
    named_before, named_after = before.pop("witness"), after.pop("witness")
    assert before == after
    # a witness that names a face may name another of the same size: the first in the new order
    v = is_eulerian(moved)
    assert v.ok == is_eulerian(c).ok
    assert (v.ok, v.witness) == eulerian_by_link_sums(moved)
    if named_before and named_before.startswith("face "):
        assert len(named_after.split("}")[0].split()) == len(named_before.split("}")[0].split())
    else:
        assert named_after == named_before


# vertices 1..8 may or may not occur in a drawn complex; the rest are no labels
label_like = st.one_of(st.integers(0, 9), st.integers(0, 9).map(str), st.booleans(), st.floats(0, 9),
                       st.sampled_from([" 1", "1 2", "\t", "", "1.0"]))
face_arguments = st.one_of(st.lists(label_like, max_size=4), st.frozensets(st.integers(1, 8), max_size=3),
                           st.text(max_size=3), st.binary(max_size=2), st.integers(), st.none())


@given(drawn_complexes, face_arguments)
def test_coefficient_decodes_labels_as_the_complex_does(c, x):
    # one label rule: the fine polynomial refuses exactly the arguments the complex refuses
    p = fine_e_polynomial(c)
    try:
        mask = _mask_of(c._index, x)
    except ScxError:
        with pytest.raises(InvalidParameter):
            p.coefficient(x)
    else:
        assert p.coefficient(x) == c._fine_terms.get(mask, 0)


@pytest.mark.parametrize("facets", [
    [[]],                                   # the complex {}: only the empty face
    [["a"]],                                # a single vertex
    [["a", "b"], ["b", "c"], ["z"]],        # the top-index vertex is isolated
    [["0"], ["a", "b"], ["b", "c"]],        # the lowest-index vertex is isolated
    [["0"], ["a", "b", "c"], ["z"]],        # both ends isolated
])
def test_fine_table_edge_cases(facets):
    c = from_facets(facets)
    assert fine_e_polynomial(c).sorted_terms() == fine_terms_by_submask_walk(c)


def test_fine_table_of_facet_masks_that_are_no_antichain():
    # the constructor keeps the maximal masks: {1} below {1, 2} is neither a facet nor a new face
    for masks in ((1, 3), (3, 1, 2), (0, 1), (5, 6, 7)):
        c = SimplicialComplex(("1", "2", "3")[:max(masks).bit_length()], masks)
        assert c._fine_terms == fine_terms_by_zeta(c), masks


def test_void_complex_has_no_fine_table():
    void = from_facets([])
    for check in (fine_e_polynomial, is_eulerian, is_eulerian_sphere, classify):
        with pytest.raises(VoidComplex):
            check(void)


def test_sphere_verdict_reads_c_empty_not_the_f_vector(monkeypatch):
    # c_empty = 1 - chi_top, so the sphere test needs no Euler characteristic of its own
    def refuse(self):
        raise AssertionError("euler_characteristics called")

    monkeypatch.setattr(SimplicialComplex, "euler_characteristics", refuse)
    assert is_eulerian_sphere(cross_polytope(3)).ok
    assert is_eulerian_sphere(from_facets([[]])).ok
    points = is_eulerian_sphere(from_facets([[1], [2], [3]]))
    assert (points.ok, points.witness) == (False, "chi_top=3, want 2 for a sphere")
    two = from_facets(list(combinations("1234", 3)) + list(combinations("5678", 3)))
    verdict = is_eulerian_sphere(two)
    assert (verdict.ok, verdict.witness) == (False, "chi_top=4, want 2 for a sphere")


def test_fine_table_is_compact():
    # full simplices keep one term of all their faces; cross-polytopes keep them all
    for c in (full_simplex(10), cross_polytope(6), boundary_simplex(5)):
        table = c._fine_terms
        assert 0 not in table.values()
        assert sys.getsizeof(table) == sys.getsizeof(dict(table)), c
    assert len(full_simplex(10)._fine_terms) == 1


def _joins_and_suspensions():
    parts = [cycle(4), boundary_simplex(2), full_simplex(1), whiskered_cycle(3, 1),
             from_facets([[1], [2], [3]]), from_facets([[1, 2], [3]])]
    return [a.join(b) for a, b in combinations(parts, 2)] + [p.suspension() for p in parts]


def test_klee_eulerian_complexes_have_weak_property_e(sample):
    # Klee: Eulerian implies general Dehn-Sommerville, which is weak Property E,
    # so classify may report a complex without it as not Eulerian unchecked
    seen = set()
    for c in sample + _joins_and_suspensions():
        weak = check_weak_property_e(c).ok
        if not weak:
            assert not eulerian_by_link_sums(c)[0], c
        report = classify(c)
        assert (report.eulerian, report.eulerian_sphere) == (
            is_eulerian(c).ok, is_eulerian_sphere(c).ok), c
        seen.add((weak, report.eulerian))
    assert seen == {(False, False), (True, False), (True, True)}


def test_sample_reaches_both_verdicts(sample):
    verdicts = [eulerian_by_link_sums(c) for c in sample]
    witnesses = {w.split(":")[0].split("{")[0] for ok, w in verdicts if not ok}
    assert any(ok for ok, _ in verdicts)
    assert {"not pure", "face "} <= witnesses
    assert any(eulerian_by_link_sums(c)[0] and not eulerian_sphere_by_link_sums(c)[0]
               for c in sample)


def test_classify_runs_the_eulerian_test_once(monkeypatch):
    # once when weak Property E holds; never when it fails, since Klee's theorem
    # already rules Eulerian out, and then the fine table stays unbuilt
    import scx.properties as properties

    calls = []
    real = properties.is_eulerian

    def counting(c):
        calls.append(c)
        return real(c)

    monkeypatch.setattr(properties, "is_eulerian", counting)
    weak_seen = set()
    for c in (cross_polytope(3), full_simplex(2), whiskered_cycle(4, 1), from_facets([[1], [2], [3]]),
              boundary_simplex(3).suspension(), from_facets([[1, 2], [3]])):
        calls.clear()
        report = classify(c)
        weak = check_weak_property_e(c).ok
        weak_seen.add(weak)
        assert len(calls) == weak
        assert ("_fine_terms" in vars(c)) == weak
        assert (report.eulerian, report.eulerian_sphere) == (
            eulerian_by_link_sums(c)[0], eulerian_sphere_by_link_sums(c)[0])
    assert weak_seen == {True, False}


def test_one_table_serves_the_complex_in_either_order():
    for classify_first in (True, False):
        c = cross_polytope(3)
        if classify_first:
            assert classify(c).eulerian_sphere
            assert "_fine_terms" in vars(c)
        p = fine_e_polynomial(c)
        assert classify(c).eulerian_sphere
        assert p._terms is c._fine_terms


# -- the shared faces -----------------------------------------------------------

def _one_facet_complexes():
    return [from_facets([[]]), from_facets([[1]]), from_facets([["a", "b"]])] + [full_simplex(d) for d in (1, 5, 9)]


def _assert_shared_faces_match_the_cover(c):
    assert c._shared == {m: k for m, k in cover_by_submask_walk(c).items() if k > 1}, c
    assert tuple(c.f_vector()) == f_vector_of(c), c


def test_shared_faces_match_the_cover(corpus4, corpus5):
    cycles = [cycle(n) for n in range(3, 9)]
    for c in [*corpus4, *corpus5, *_families(), *cycles, *_joins_and_suspensions(), *_one_facet_complexes()]:
        _assert_shared_faces_match_the_cover(c)
    for c, _ in _large_families():
        _assert_shared_faces_match_the_cover(c)
        assert c._fine_terms == fine_terms_by_zeta(c), c


drawn_random_complexes = st.builds(random_complex, st.integers(0, 10**6), st.integers(1, 12),
                                   st.integers(1, 24), st.integers(1, 8))


@given(drawn_random_complexes)
def test_shared_faces_match_the_cover_on_random_complexes(c):
    _assert_shared_faces_match_the_cover(c)
    assert c._fine_terms == fine_terms_by_zeta(c)


def test_one_facet_shares_nothing_and_two_share_their_meet():
    assert all(c._shared == {} for c in _one_facet_complexes())
    c = from_facets([[1, 2, 3], [2, 3, 4]])  # {2, 3} and its faces, each in both facets
    assert c._shared == {0: 2, 0b100: 2, 0b110: 2, 0b10: 2}


def _assert_subsets_come_first(c):
    # the fine table's walk relies on the shared-face search's pre-order
    # listing every proper subset of a face before it; the face set's search
    # needs only that each drop of a joined pair comes earlier, which the
    # minimal-non-face oracles check through their output
    position = {m: i for i, m in enumerate(c._shared)}
    for m, i in position.items():
        sub = m
        while sub:
            sub = (sub - 1) & m
            assert position[sub] < i, (c, m, sub)


def test_the_shared_faces_list_every_subset_first(corpus5):
    for c in [*corpus5, *_families(), *(c for c, _ in _large_families())]:
        _assert_subsets_come_first(c)


@given(drawn_random_complexes)
def test_the_shared_faces_list_every_subset_first_on_random_complexes(c):
    _assert_subsets_come_first(c)


def _assert_each_subtree_is_the_run_after_it(c):
    # the two properties _fine_terms' walk reads off list(c._shared), stated
    # without the search: every shared proper subset of a face comes before
    # it, and the masks after it, up to the next one no larger, are exactly
    # its shared supersets that add only vertices above its top one
    _assert_subsets_come_first(c)
    order = list(c._shared)
    for i, face in enumerate(order):
        end = next((j for j in range(i + 1, len(order)) if order[j] <= face), len(order))
        low = (1 << face.bit_length()) - 1  # the top vertex and those below it
        subtree = {m for m in order if m != face and m & face == face and not m & ~face & low}
        assert set(order[i + 1:end]) == subtree, (c, face)


def test_each_shared_face_is_followed_by_its_subtree(corpus4, corpus5):
    for c in [*corpus4, *corpus5]:
        _assert_each_subtree_is_the_run_after_it(c)


@given(drawn_random_complexes)
def test_each_shared_face_is_followed_by_its_subtree_on_random_complexes(c):
    _assert_each_subtree_is_the_run_after_it(c)


def _assert_the_search_pre_order(c):
    # _fine_terms reads each face's subtree as the run of masks after it
    assert list(c._shared) == sorted(c._shared, key=search_order_key), c


def test_the_shared_faces_keep_the_search_pre_order(corpus5):
    for c in [*corpus5, *_families(), *(c for c, _ in _large_families())]:
        _assert_the_search_pre_order(c)


@given(drawn_random_complexes)
def test_the_shared_faces_keep_the_search_pre_order_on_random_complexes(c):
    _assert_the_search_pre_order(c)


def test_counting_and_the_table_never_build_the_cover():
    # the f-vector, the fine table and a passing Eulerian check read the shared faces alone
    for make in (lambda: cross_polytope(4), lambda: boundary_simplex(5), lambda: random_complex(2, 12, 30, 5)):
        c = make()
        c.f_vector()
        assert "_faces" not in vars(c) and "_shared" in vars(c)
        fine_e_polynomial(c)._terms
        assert "_faces" not in vars(c)
    for sphere in (cross_polytope(4), boundary_simplex(5), cross_polytope(2).join(boundary_simplex(2))):
        report = classify(sphere)
        assert report.eulerian_sphere and "_faces" not in vars(sphere), sphere


def test_the_cli_counts_and_checks_without_the_cover(monkeypatch):
    def refuse(self):
        raise AssertionError("the face set was built")

    monkeypatch.setattr(SimplicialComplex, "_faces", property(refuse))
    for c in (cross_polytope(3), random_complex(4, 10, 20, 4)):
        text = c.to_facet_text()
        for argv in (["check", "-"], ["vectors", "-"], ["info", "-"], ["series", "--fine", "-"]):
            out, err = io.StringIO(), io.StringIO()
            assert run(argv, stdin=io.StringIO(text), stdout=out, stderr=err) == 0, (argv, err.getvalue())
    with pytest.raises(AssertionError, match="face set was built"):
        minimal_nonfaces(cross_polytope(3))


@pytest.mark.parametrize("facets, witness", [
    # {1 2} lies in one triangle: its link is a point, c = 0
    ([[1, 2, 6], [1, 3, 5], [1, 3, 6], [1, 4, 5], [1, 5, 6], [2, 3, 4], [2, 3, 5], [2, 4, 5], [2, 4, 6],
      [3, 4, 6]], "face {1 2}: link chi_top=1, want 2"),
    # {1 2} lies in three triangles: its link is three points, c = -2
    ([[1, 2, 3], [1, 2, 4], [1, 2, 5], [1, 3, 5], [1, 5, 6], [2, 3, 6], [2, 4, 6], [3, 4, 5], [3, 4, 6],
      [4, 5, 6]], "face {1 2}: link chi_top=3, want 2"),
    # every vertex is shared and every edge a facet, so the shared faces decide
    ([[1, 2], [1, 3], [1, 4], [2, 3], [2, 4]], "face {1}: link chi_top=3, want 2"),
    # the same failing vertex, beside a vertex in one edge
    ([[1, 2], [1, 3], [1, 4], [2, 3]], "face {1}: link chi_top=3, want 2"),
    # vertex 1 lies in one edge, before vertex 2 in three
    ([[1, 2], [2, 3], [2, 4], [3, 4]], "face {1}: link chi_top=1, want 2"),
    # every vertex passes; at size 2, {1 2} lies in one triangle, before {2 3} in three
    ([[1, 2, 6], [1, 3, 4], [1, 3, 6], [1, 4, 5], [1, 5, 6], [2, 3, 4], [2, 3, 5], [2, 3, 6], [2, 4, 5],
      [4, 5, 6]], "face {1 2}: link chi_top=1, want 2"),
    # every vertex passes; at size 2, {1 4} lies in three triangles, before {1 5} in one
    ([[1, 2, 4], [1, 2, 6], [1, 3, 4], [1, 3, 6], [1, 4, 5], [2, 3, 5], [2, 3, 6], [2, 5, 6], [3, 4, 5],
      [4, 5, 6]], "face {1 4}: link chi_top=3, want 2"),
    # d = 4 and every vertex passes: the smallest lone face is the edge {1 6}, in {1 3 4 6} alone
    ([[1, 2, 3, 4], [1, 2, 3, 5], [1, 2, 4, 5], [1, 3, 4, 5], [1, 3, 4, 6], [2, 3, 4, 6], [2, 3, 5, 6],
      [2, 4, 5, 6], [3, 4, 5, 6]], "face {1 6}: link chi_top=1, want 0"),
    # the suspension of the first complex, d = 4: its smallest lone faces have size 3
    (from_facets([[1, 2, 6], [1, 3, 5], [1, 3, 6], [1, 4, 5], [1, 5, 6], [2, 3, 4], [2, 3, 5], [2, 4, 5],
                  [2, 4, 6], [3, 4, 6]]).suspension().facets(), "face {L.1}: link chi_top=1, want 2"),
    # one facet on 21 vertices: each vertex is alone in it, its link a 19-simplex
    (full_simplex(20).facets(), "face {1}: link chi_top=1, want 0"),
    # the hexagonal disk: every vertex is shared, and each boundary vertex has
    # an arc for its link, c = 0, so no table key names it
    ([[0, i, i % 6 + 1] for i in range(1, 7)], "face {1}: link chi_top=1, want 0"),
])
def test_eulerian_witnesses_name_the_first_failing_face(facets, witness):
    c = from_facets(facets)
    assert is_eulerian(c) == (False, witness)
    # the failing faces are each facet's first subset of the failing size that
    # is not right-signed, read off the fine table: no face set is built
    assert "_faces" not in vars(c)
    if c.n < 20:  # the link sums are quadratic in the faces, out of reach at 2^21
        assert eulerian_by_link_sums(c) == (False, witness)


def test_a_failing_vertex_is_named_without_walking_the_facets(monkeypatch):
    # 300 of the 4,368 5-subsets of 16 vertices: pure, and short of f_1 already
    rng = random.Random(5)
    c = from_facets(rng.sample(list(combinations(range(16), 5)), 300))
    assert c.is_pure() and c.n == 16 and len(c.facet_masks) == 300

    def refuse(*args):
        raise AssertionError("the facets' subsets were walked")

    monkeypatch.setattr(properties, "combinations", refuse)
    v = is_eulerian(c)
    assert len(v.witness.split("}")[0].split()) == 2  # "face {<one label>"
    assert (v.ok, v.witness) == eulerian_by_link_sums(c)


# -- the superset-sum table ----------------------------------------------------

def _assert_table_matches_scan(p, masks):
    for mask in masks:
        want = superset_sum_by_term_scan(p, mask)
        assert p.superset_sum([p.labels[i] for i in bit_indices(mask)]) == want, (p, mask)
        assert taylor_coefficient(p, tuple(mask >> i & 1 for i in range(p.n))) == want, (p, mask)


def test_every_subset_of_corpus4(corpus4):
    for c in corpus4:
        _assert_table_matches_scan(fine_e_polynomial(c), range(1 << c.n))


def test_zero_one_degrees_of_families_and_random_complexes():
    sample = _families() + _random(range(40, 70), max_n=12)
    assert max(c.n for c in sample) == 12
    for c in sample:
        _assert_table_matches_scan(fine_e_polynomial(c), range(1 << c.n))


def test_the_table_transforms_any_coefficients():
    # not only the tables of complexes: arbitrary masks and coefficients, zeros included
    rng = random.Random(0)
    for n in range(1, 9):
        labels = tuple(str(i) for i in range(n))
        for _ in range(10):
            terms = {rng.randrange(1 << n): rng.randint(-3, 3) for _ in range(rng.randint(0, 12))}
            p = FineEPolynomial(labels, n, terms, {lab: i for i, lab in enumerate(labels)})
            _assert_table_matches_scan(p, range(1 << n))


@given(st.lists(st.lists(st.integers(1, 8), max_size=5), min_size=1, max_size=8),
       st.lists(st.integers(0, 3), min_size=8, max_size=8))
def test_taylor_coefficient_equals_the_term_scan(facets, degree):
    p = fine_e_polynomial(from_facets([set(f) for f in facets]))
    a = tuple(degree[:p.n])
    support = sum(1 << i for i, ai in enumerate(a) if ai)
    assert taylor_coefficient(p, a) == superset_sum_by_term_scan(p, support)


def _assert_the_table_is_priced_by_its_size(c):
    # e(2) = f(1): the terms weighted by 2^|tau| count the faces, one table key each
    p = fine_e_polynomial(c)
    weighted = sum(x << m.bit_count() for m, x in p._terms.items())
    assert weighted == sum(c.f_vector()) == len(p._superset_sums) == evaluate_e_poly_exact(f_to_e(c.f_vector()), 2)


def test_the_superset_sums_hold_one_key_a_face(corpus5):
    for c in corpus5:
        _assert_the_table_is_priced_by_its_size(c)


@given(drawn_complexes)
def test_the_superset_sums_of_drawn_complexes_hold_one_key_a_face(c):
    _assert_the_table_is_priced_by_its_size(c)


def test_fine_e_polynomial_leaves_the_table_unbuilt():
    c = cross_polytope(3)
    p = fine_e_polynomial(c)
    coarse_from_fine(p)
    p.sorted_terms()
    p.coefficient(["1+"])
    assert "_superset_sums" not in vars(p)
    assert taylor_coefficient(p, (1,) + (0,) * (c.n - 1)) == 1
    assert "_superset_sums" in vars(p)


def test_superset_queries_leave_the_complex_table_unchanged():
    for c in (cross_polytope(3), whiskered_cycle(4, 1), from_facets([[1, 2, 3], [2, 4], [3, 4]])):
        p = fine_e_polynomial(c)
        before = dict(c._fine_terms)
        _assert_table_matches_scan(p, range(1 << c.n))
        assert c._fine_terms == before
        assert p._terms is c._fine_terms
        v = is_eulerian(c)
        assert (v.ok, v.witness) == eulerian_by_link_sums(c)


def test_classify_and_the_cli_never_build_the_table(monkeypatch):
    def refuse(self):
        raise AssertionError("the superset-sum table was built")

    monkeypatch.setattr(FineEPolynomial, "_superset_sums", property(refuse))
    classify(cross_polytope(4))
    text = "facet 1 2 3\nfacet 2 4\nfacet 3 4\n"
    for argv in (["series", "--fine", "-"], ["check", "-"], ["info", "-"]):
        assert run(argv, stdin=io.StringIO(text), stdout=io.StringIO(), stderr=io.StringIO()) == 0
    with pytest.raises(AssertionError, match="table was built"):
        taylor_coefficient(fine_e_polynomial(cross_polytope(1)), (0, 0))
