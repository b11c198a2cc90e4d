"""Property E, Dehn-Sommerville, Eulerian checks and their equivalences."""

import random

import pytest
from hypothesis import given, strategies as st

from scx import (
    HypothesisNotMet,
    IntPolynomial,
    InvalidParameter,
    LinkIdentityResult,
    Verdict,
    VoidComplex,
    boundary_simplex,
    check_classical_ds,
    check_general_ds,
    check_join_property_e,
    check_link_identity,
    check_property_e,
    check_weak_property_e,
    classify,
    cross_polytope,
    cycle,
    e_polynomial,
    f_to_e,
    from_facets,
    full_simplex,
    is_connected,
    is_eulerian,
    is_eulerian_sphere,
    whiskered_cycle,
)
from oracles import connected_bfs, random_tree_with_extras

EX3 = [[1, 2, 3], [2, 4], [3, 4]]


# -- Property E ----------------------------------------------------------------

def test_property_e_examples():
    assert check_property_e(boundary_simplex(3)).ok
    verdict = check_property_e(from_facets(EX3))
    assert not verdict.ok
    assert verdict.witness.startswith("k=0")
    assert check_property_e(whiskered_cycle(3, 1)).ok


def test_weak_property_e_examples():
    assert check_weak_property_e(boundary_simplex(3)).ok
    verdict = check_weak_property_e(from_facets(EX3))
    assert not verdict.ok
    assert verdict.witness.startswith("k=1")
    assert check_weak_property_e(cycle(4)).ok


def test_point_has_weak_but_not_full_property_e():
    point = from_facets([[1]])
    assert check_weak_property_e(point).ok
    assert not check_property_e(point).ok


def test_empty_complex_has_property_e():
    empty = from_facets([[]])
    assert check_property_e(empty).ok
    assert check_weak_property_e(empty).ok   # vacuous range
    assert is_eulerian_sphere(empty).ok      # the (-1)-sphere


def test_checks_reject_void():
    void = from_facets([])
    for check in (check_property_e, check_weak_property_e, check_classical_ds,
                  check_general_ds, is_eulerian, is_eulerian_sphere,
                  classify, is_connected):
        with pytest.raises(VoidComplex):
            check(void)


# -- Dehn-Sommerville ----------------------------------------------------------------

def test_classical_ds_examples():
    assert check_classical_ds(boundary_simplex(3)).ok
    assert check_classical_ds(whiskered_cycle(3, 1)).ok
    assert not check_classical_ds(from_facets(EX3)).ok


def test_general_ds_examples():
    assert check_general_ds(boundary_simplex(3)).ok
    verdict = check_general_ds(from_facets(EX3))
    assert not verdict.ok
    assert verdict.witness is not None
    # a point satisfies the general equations but not the classical ones
    point = from_facets([[1]])
    assert check_general_ds(point).ok
    assert not check_classical_ds(point).ok


def test_theorem_level_equivalences_exhaustive(corpus4):
    for c in corpus4:
        assert check_weak_property_e(c).ok == check_general_ds(c).ok
        assert check_property_e(c).ok == check_classical_ds(c).ok


def test_theorem_level_equivalences_random():
    from scx import random_complex
    for seed in range(10_000, 12_000):
        n = seed % 8 + 1
        c = random_complex(seed, n, facet_count=seed % 9 + 1,
                           max_facet_size=min(n, seed % 5 + 1))
        assert check_weak_property_e(c).ok == check_general_ds(c).ok
        assert check_property_e(c).ok == check_classical_ds(c).ok


# -- Eulerian ------------------------------------------------------------------------

def test_eulerian_examples():
    assert is_eulerian(boundary_simplex(3)).ok
    assert is_eulerian_sphere(boundary_simplex(3)).ok
    verdict = is_eulerian(whiskered_cycle(3, 1))
    assert not verdict.ok
    assert "face {" in verdict.witness
    for d in (2, 3, 4):
        assert is_eulerian_sphere(cross_polytope(d)).ok


def test_eulerian_rejects_impure_and_disks():
    assert is_eulerian(from_facets(EX3)).witness == "not pure"
    assert not is_eulerian(full_simplex(2)).ok        # a disk is not Eulerian
    assert not is_eulerian_sphere(from_facets([[1]])).ok


def test_eulerian_vertex_link_equivalence(corpus4):
    # Eulerian iff pure and every vertex link is an Eulerian sphere,
    # the right side computed through actual link complexes
    for c in corpus4:
        if c.n == 0:
            continue
        lhs = is_eulerian(c).ok
        rhs = c.is_pure() and all(is_eulerian_sphere(c.link([lab])).ok for lab in c.labels)
        assert lhs == rhs


def test_eulerian_implies_weak_property_e(corpus4):
    structured = [boundary_simplex(d) for d in range(1, 6)] + \
                 [cross_polytope(d) for d in range(1, 5)] + \
                 [cycle(n) for n in range(3, 9)]
    for c in corpus4 + structured:
        if not is_eulerian(c).ok:
            continue
        assert check_weak_property_e(c).ok
        if c.dimension() % 2 == 1 or is_eulerian_sphere(c).ok:
            assert check_property_e(c).ok


def test_property_e_forces_sphere_euler_characteristic(corpus4):
    for c in corpus4:
        if check_property_e(c).ok:
            e = f_to_e(c.f_vector())
            d = e.d
            assert e[0] == (-1) ** d


# -- vertex-link identities --------------------------------------------------------------

def test_link_identity_examples():
    tetra = check_link_identity(boundary_simplex(3))
    assert tetra.ok and tetra.hypothesis_met
    octa = check_link_identity(cross_polytope(3))
    assert octa.ok and octa.hypothesis_met
    edge = check_link_identity(from_facets([[1, 2]]))
    assert edge.ok and not edge.hypothesis_met   # links are points, vacuous
    with pytest.raises(InvalidParameter):
        check_link_identity(from_facets([[]]))   # no vertices


def test_results_are_true_exactly_when_ok():
    assert bool(is_eulerian(boundary_simplex(3))) and not is_eulerian(full_simplex(2))
    assert not Verdict(False, "witness") and Verdict(True)
    assert bool(check_link_identity(cross_polytope(3)))
    # a vacuous result is ok, and a failed identity is not, whatever the hypothesis says
    assert LinkIdentityResult(True, False, "vacuous") and not LinkIdentityResult(False, True)


def test_derivative_identity(corpus3):
    # d/dt e(t) equals the sum of the vertex links' e-polynomials
    structured = [boundary_simplex(3), cross_polytope(3), whiskered_cycle(4, 2)]
    for c in corpus3 + structured:
        if c.n == 0:
            continue
        e_poly = e_polynomial(f_to_e(c.f_vector()))
        total = IntPolynomial()
        for lab in c.labels:
            total = total + e_polynomial(f_to_e(c.link([lab]).f_vector()))
        assert e_poly.derivative() == total


@given(st.lists(st.frozensets(st.integers(1, 9), max_size=5), min_size=1, max_size=8).map(from_facets))
def test_derivative_identity_on_drawn_complexes(c):
    # a face of size s lists s times among the vertex links, one size down
    total = IntPolynomial()
    for lab in c.labels:
        total = total + e_polynomial(f_to_e(c.link([lab]).f_vector()))
    assert e_polynomial(f_to_e(c.f_vector())).derivative() == total


def test_join_property_e():
    assert check_join_property_e(cycle(3), cycle(3))
    assert check_join_property_e(whiskered_cycle(3, 1), cycle(4))
    joined = whiskered_cycle(3, 1).join(cycle(4))
    assert not is_eulerian(joined).ok            # Property E without Eulerian
    s0 = from_facets([[1], [2]])
    assert check_property_e(s0).ok
    assert check_join_property_e(s0, whiskered_cycle(3, 1))
    with pytest.raises(HypothesisNotMet):
        check_join_property_e(from_facets([[1, 2]]), cycle(3))


def test_suspension_of_whiskered_cycle_keeps_property_e():
    susp = whiskered_cycle(3, 1).suspension()
    report = classify(susp)
    assert report.property_e and report.classical_ds
    assert not report.eulerian
    assert susp.dimension() == 2


# -- half-point evaluations ---------------------------------------------------------------

def test_half_point_vanishes_for_even_dimensional_property_e():
    # with Property E, e(t) == (-1)^d f(-t), while e(t) == f(t-1) always;
    # at t = 1/2 these force e(1/2) = 0 whenever d is odd (even dimension),
    # making -ln 2 a root of the coarse exponential series there
    import math
    from fractions import Fraction
    from scx import evaluate_coarse, evaluate_e_poly_exact
    corpus = ([boundary_simplex(d) for d in range(1, 7)]
              + [cross_polytope(d) for d in range(1, 6)]
              + [cycle(3).join(cycle(4)), whiskered_cycle(3, 2).suspension()])
    seen = 0
    for c in corpus:
        if not check_property_e(c).ok or c.dimension() % 2 == 1:
            continue
        e = f_to_e(c.f_vector())
        assert evaluate_e_poly_exact(e, Fraction(1, 2)) == 0
        assert abs(evaluate_coarse(e, -math.log(2.0))) < 1e-9
        seen += 1
    assert seen >= 5


def test_half_evaluation_reports_false_flags_without_raising():
    # the triangle cycle is an odd-dimensional Eulerian sphere with Property E
    # whose e-polynomial does not vanish at 1/2 (the value is 1/4): no theorem
    # gives a root there, so the value is reported and nothing raises
    from fractions import Fraction
    from scx import evaluate_e_poly_exact
    report = classify(cycle(3))
    assert report.eulerian_sphere and report.property_e
    e = f_to_e(cycle(3).f_vector())
    assert evaluate_e_poly_exact(e, Fraction(1, 2)) == Fraction(1, 4)


# -- classify --------------------------------------------------------------------------------

def test_classify_examples():
    tetra = classify(boundary_simplex(3))
    assert tetra.to_dict() == {
        "property_e": True, "weak_property_e": True, "classical_ds": True,
        "general_ds": True, "eulerian": True, "eulerian_sphere": True,
        "pure": True, "witness": None,
    }
    ex3 = classify(from_facets(EX3))
    assert not any((ex3.property_e, ex3.weak_property_e, ex3.classical_ds,
                    ex3.general_ds, ex3.eulerian, ex3.eulerian_sphere, ex3.pure))
    assert ex3.witness is not None
    whisk = classify(whiskered_cycle(3, 1))
    assert whisk.property_e and whisk.classical_ds and whisk.pure
    assert not whisk.eulerian and not whisk.eulerian_sphere


def test_classify_never_inconsistent(corpus4, random_corpus):
    for c in corpus4 + random_corpus[:150]:
        classify(c)   # raises InternalInconsistency on any cross-check failure


# -- one-dimensional characterization -----------------------------------------------------------

def test_connectivity():
    assert is_connected(cycle(5))
    assert is_connected(from_facets([[1]]))
    assert is_connected(from_facets([[]]))
    assert not is_connected(from_facets([[1, 2], [3, 4]]))
    assert not is_connected(from_facets([[1, 2], [3]]))
    # both hold far more faces than the face budget lets face_mask_set build
    assert is_connected(full_simplex(30))
    halves = [[str(i) for i in range(25)], [str(i) for i in range(25, 50)]]
    assert not is_connected(from_facets(halves))


def test_connectivity_matches_bfs(random_corpus):
    for c in random_corpus[:200]:
        assert is_connected(c) == connected_bfs(c)


def test_one_dimensional_characterization(corpus4):
    found_cycle_with_tree = False
    for c in corpus4:
        if c.is_void or c.n == 0 or c.dimension() != 1 or not is_connected(c):
            continue
        f = c.f_vector()
        assert check_property_e(c).ok == (f[1] == f[2])
        assert check_property_e(c).ok == check_weak_property_e(c).ok
        found_cycle_with_tree |= check_property_e(c).ok
    assert found_cycle_with_tree


def test_one_dimensional_random_spanning_structures():
    rng = random.Random(20240817)
    for _ in range(150):
        n = rng.randint(2, 7)
        extras = rng.randint(0, 4)
        c = from_facets(random_tree_with_extras(rng, n, extras))
        assert c.dimension() == 1 and is_connected(c)
        f = c.f_vector()
        assert check_property_e(c).ok == (f[1] == f[2])
