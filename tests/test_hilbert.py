"""Fine and coarse exponential series, graded dimensions, free module series."""

import gc
import math
import weakref
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import product

import pytest

from scx import hilbert
from scx import (
    DimensionMismatch,
    InternalInconsistency,
    InvalidParameter,
    TooLarge,
    VoidComplex,
    boundary_simplex,
    classify,
    coarse_from_fine,
    cross_polytope,
    cycle,
    evaluate_coarse,
    evaluate_e_poly_exact,
    f_to_e,
    fine_e_polynomial,
    free_module_series_eval,
    from_facets,
    full_simplex,
    graded_dimension,
    minimal_nonfaces,
    random_complex,
    taylor_coefficient,
    whiskered_cycle,
)
from hypothesis import given, strategies as st

from oracles import (
    coarse_series_direct,
    faces_of,
    free_module_by_decimal,
    minimal_nonfaces_by_candidate_scan,
    minimal_transversals_of_complements,
    truncated_free_module_sum,
    vertices_of,
)

EX3 = [[1, 2, 3], [2, 4], [3, 4]]


# -- minimal non-faces ---------------------------------------------------------

def test_minimal_nonfaces_examples():
    assert minimal_nonfaces(from_facets(EX3)) == (("1", "4"), ("2", "3", "4"))
    assert minimal_nonfaces(full_simplex(3)) == ()
    for d in (1, 2, 3, 4):
        top = tuple(str(i) for i in range(1, d + 2))
        assert minimal_nonfaces(boundary_simplex(d)) == (top,)
    with pytest.raises(VoidComplex):
        minimal_nonfaces(from_facets([]))


def test_minimal_nonfaces_characterize_faces(corpus4):
    # a vertex subset is a face exactly when it contains no minimal non-face
    for c in corpus4:
        nonfaces = minimal_nonfaces(c)
        masks = []
        for nf in nonfaces:
            m = 0
            for lab in nf:
                m |= 1 << c.labels.index(lab)
            masks.append(m)
        # the non-faces form an antichain
        for m in masks:
            assert not any(m != o and m & o == m for o in masks)
        faces = faces_of(c)
        for subset in range(1 << c.n):
            is_face = subset in faces
            contains_nonface = any(m & subset == m for m in masks)
            assert is_face == (not contains_nonface)


def test_minimal_nonfaces_do_not_keep_the_complex_alive():
    # labels no other test uses, so no equal complex was seen before
    c = from_facets([["wa", "wb", "wc"], ["wb", "wd"], ["wc", "wd"]])
    ref = weakref.ref(c)
    assert minimal_nonfaces(c) == (("wa", "wd"), ("wb", "wc", "wd"))
    assert graded_dimension(c, (1, 0, 0, 1)) == 0
    assert not classify(c).eulerian
    assert taylor_coefficient(fine_e_polynomial(c), (1, 0, 0, 1)) == 0
    del c
    gc.collect()
    assert ref() is None


def test_minimal_nonfaces_match_the_candidate_scan(corpus5, random_corpus):
    # the long cycle alone has 44,550 minimal non-faces; a drop test that
    # looked a face up before the search added it would miss one here. The
    # search keeps them in its own order, each once: sorted, they are the scan's
    wide = [cross_polytope(7), cycle(300), whiskered_cycle(50, 200), random_complex(2, 60, 300, 4),
            boundary_simplex(9)]
    for c in [*corpus5, *(c for c in random_corpus if not c.is_void), *wide]:
        assert tuple(sorted(c._faces[1])) == minimal_nonfaces_by_candidate_scan(c), c


def test_minimal_nonfaces_are_the_minimal_transversals_of_the_facet_complements(corpus4, corpus5):
    for c in [*corpus4, *corpus5]:
        assert tuple(sorted(c._faces[1])) == minimal_transversals_of_complements(c), c


def test_minimal_nonfaces_and_graded_dimension_refuse_as_the_cover_does():
    import scx.complexes as complexes

    # 2^31 possible faces and no minimal non-face: refused by the bound, before any face
    big = full_simplex(30)
    message = f"2147483648, over the face budget of {complexes.FACE_BUDGET}"
    for query in (lambda: minimal_nonfaces(big), lambda: graded_dimension(big, (1,) * 31)):
        with pytest.raises(TooLarge, match=message):
            query()
    assert "_faces" not in big.__dict__
    void = from_facets([])
    for query in (lambda: minimal_nonfaces(void), lambda: graded_dimension(void, ())):
        with pytest.raises(VoidComplex, match="the void complex has no faces"):
            query()


def test_minimal_nonfaces_obey_the_face_budget(monkeypatch):
    import scx.complexes as complexes

    # the facets bound the faces of the 12-cycle by 48, under a budget of 50,
    # but it has 12 * 9 / 2 = 54 minimal non-faces: the search stops at the 51st
    monkeypatch.setattr(complexes, "FACE_BUDGET", 50)
    c = cycle(12)
    for query in (lambda: minimal_nonfaces(c), lambda: graded_dimension(c, (0,) * 12)):
        with pytest.raises(TooLarge, match=r"^51 minimal non-faces found so far, over the face budget of 50$"):
            query()
    assert "_faces" not in c.__dict__
    assert tuple(c.f_vector()) == (1, 12, 12)
    assert len(c.faces()) == 25
    monkeypatch.setattr(complexes, "FACE_BUDGET", 54)
    assert len(minimal_nonfaces(c)) == 54


# -- graded dimensions ------------------------------------------------------------

def test_graded_dimension_examples():
    c = from_facets(EX3)
    assert graded_dimension(c, (1, 2, 1, 0)) == 1
    assert graded_dimension(c, (1, 0, 0, 1)) == 0
    assert graded_dimension(c, (0, 0, 0, 0)) == 1
    with pytest.raises(DimensionMismatch):
        graded_dimension(c, (1, 0, 0))
    with pytest.raises(InvalidParameter):
        graded_dimension(c, (1, 0, 0, -1))
    with pytest.raises(VoidComplex):
        graded_dimension(from_facets([]), ())
    # the degree is read before the faces: a wrong length on void is a mismatch
    with pytest.raises(DimensionMismatch):
        graded_dimension(from_facets([]), (1,))


def test_graded_dimension_raises_when_its_two_tests_disagree(monkeypatch):
    c = from_facets(EX3)
    # with no minimal non-face, divisibility admits the non-face {1, 4}
    monkeypatch.setattr(c, "_faces", (c._faces[0], ()))
    with pytest.raises(InternalInconsistency, match=r"^support test says False but divisibility says True "
                                                     r"for \(1, 0, 0, 1\)$"):
        graded_dimension(c, (1, 0, 0, 1))


BAD_ENTRIES = [-1, 1.5, "1", None]


@pytest.mark.parametrize("bad", BAD_ENTRIES, ids=repr)
def test_multidegree_entries_must_be_nonnegative_integers(bad):
    c = from_facets(EX3)
    p = fine_e_polynomial(c)
    a = (1, 0, bad, 0)
    for query in (lambda: graded_dimension(c, a), lambda: taylor_coefficient(p, a),
                  lambda: free_module_series_eval(a, (0.5,) * 4)):
        with pytest.raises(InvalidParameter) as info:
            query()
        assert str(info.value) == f"multidegree entries must be nonnegative integers, got {bad!r}"


def test_multidegree_length_must_match_the_vertex_count():
    c = from_facets(EX3)
    p = fine_e_polynomial(c)
    for a in ((), (1, 0, 0), (1, 0, 0, 0, 0)):
        for query in (lambda: graded_dimension(c, a), lambda: taylor_coefficient(p, a)):
            with pytest.raises(DimensionMismatch) as info:
                query()
            assert str(info.value) == f"multidegree length {len(a)} != vertex count 4"


def test_multidegree_entries_may_be_bools():
    # bool is an int subclass, so True counts as 1 and False as 0
    c = from_facets(EX3)
    p = fine_e_polynomial(c)
    for a in product((False, True), repeat=4):
        ints = tuple(int(x) for x in a)
        assert graded_dimension(c, a) == graded_dimension(c, ints)
        assert taylor_coefficient(p, a) == taylor_coefficient(p, ints)
    assert graded_dimension(c, (True, False, False, True)) == 0
    assert taylor_coefficient(p, (False, True, True, True)) == 0
    assert taylor_coefficient(p, (True, True, True, False)) == 1


# -- the packing slot: the last tuple of exact ints packed, with its mask --------


def test_a_float_equal_to_a_packed_tuple_is_still_refused():
    c = from_facets(EX3)
    p = fine_e_polynomial(c)
    assert graded_dimension(c, (1, 0, 0, 1)) == taylor_coefficient(p, (1, 0, 0, 1)) == 0
    a = (1.0, 0, 0, 1)
    assert a == (1, 0, 0, 1)
    for query in (lambda: graded_dimension(c, a), lambda: taylor_coefficient(p, a)):
        with pytest.raises(InvalidParameter) as info:
            query()
        assert str(info.value) == "multidegree entries must be nonnegative integers, got 1.0"


def test_a_list_changed_between_the_pair_is_read_anew():
    c = from_facets(EX3)
    p = fine_e_polynomial(c)
    a = [1, 0, 0, 1]
    assert graded_dimension(c, a) == 0
    a[3] = 0
    assert taylor_coefficient(p, a) == 1
    a[2] = 1.5
    with pytest.raises(InvalidParameter, match="got 1.5$"):
        graded_dimension(c, a)


def test_a_packed_tuple_on_another_vertex_count_is_a_mismatch():
    c = from_facets(EX3)
    a = (1, 0, 0, 1)
    assert graded_dimension(c, a) == 0
    five = cycle(5)
    for query in (lambda: graded_dimension(five, a), lambda: taylor_coefficient(fine_e_polynomial(five), a)):
        with pytest.raises(DimensionMismatch) as info:
            query()
        assert str(info.value) == "multidegree length 4 != vertex count 5"
    # the same vertex count on another complex reads that complex
    assert graded_dimension(cycle(4), a) == 1


class _CountedInt(int):
    """An int subclass that counts its comparisons."""

    compared = 0

    def __lt__(self, other):
        _CountedInt.compared += 1
        return int(self) < other


def test_bool_and_int_subclass_tuples_are_packed_on_every_query():
    c = from_facets(EX3)
    p = fine_e_polynomial(c)
    one = _CountedInt(1)
    for a in ((True, False, False, True), (one, 0, 0, one), (False, True, one, False)):
        ints = tuple(map(int, a))
        expected = graded_dimension(c, ints), taylor_coefficient(p, ints)
        _CountedInt.compared = 0
        assert (graded_dimension(c, a), taylor_coefficient(p, a)) == expected
        assert hilbert._last[0] is ints
        # both queries on a compared each of its int-subclass entries with 0
        assert _CountedInt.compared == 2 * sum(x is one for x in a)


def test_a_failed_query_leaves_the_slot_as_it_was():
    c = from_facets(EX3)
    p = fine_e_polynomial(c)
    assert graded_dimension(c, (0, 1, 1, 0)) == 1
    before = hilbert._last
    for bad in ((1, 0, -1, 0), (1, 0, 0), (1, 0, 0, 1.0), (True, 0, 0, -1), 4, None):
        for query in (lambda: graded_dimension(c, bad), lambda: taylor_coefficient(p, bad)):
            with pytest.raises((InvalidParameter, DimensionMismatch)):
                query()
            assert hilbert._last is before


def test_the_paired_query_reads_the_slot(monkeypatch):
    c = from_facets(EX3)
    p = fine_e_polynomial(c)
    a = tuple([1, 0, 0, 2])  # built at run time, so no other test holds it
    assert graded_dimension(c, a) == 0
    assert hilbert._last == (a, 4, 0b1001) and hilbert._last[0] is a
    # a planted mask for a, that of the face {1, 2}, is what taylor_coefficient reads
    monkeypatch.setattr(hilbert, "_last", (a, 4, 0b0011))
    assert taylor_coefficient(p, a) == 1
    assert taylor_coefficient(p, tuple(a)) == 1  # tuple(a) is a itself
    assert taylor_coefficient(p, (1, 0, 0, 2)) == 0


# -- fine polynomial ----------------------------------------------------------------

def test_fine_coefficients_worked_example():
    p = fine_e_polynomial(from_facets(EX3))
    assert p.coefficient(["1", "2", "3"]) == 1
    assert p.coefficient(["1"]) == 0
    assert p.coefficient([]) == 1          # e_0 of this complex
    assert p.coefficient(["2", "4"]) == 1
    with pytest.raises(InvalidParameter):
        p.coefficient(["9"])


def test_coefficient_reads_labels_by_the_complex_rule():
    p = fine_e_polynomial(from_facets([[1, 2], [12, 3], ["True"]]))
    assert p.coefficient(["12", "3"]) == 1
    assert p.coefficient(["True"]) == 1 and p.coefficient([12]) == 0
    # a bare string or int is no collection; True and 1.0 are no labels
    for bad in ("12", 5, [True], [1.0], [" 1"], [""]):
        with pytest.raises(InvalidParameter):
            p.coefficient(bad)
        with pytest.raises(InvalidParameter):
            p.superset_sum(bad)


def test_fine_constant_term_is_e0(corpus4):
    for c in corpus4:
        p = fine_e_polynomial(c)
        e = f_to_e(c.f_vector())
        assert p.coefficient([]) == e[0]


def test_fine_nonzero_keys_are_faces(corpus4):
    for c in corpus4:
        p = fine_e_polynomial(c)
        for subset, coeff in p.sorted_terms():
            assert coeff != 0
            assert c.has_face(subset)


def test_fine_superset_sums_detect_faces(corpus4):
    # binomial inversion: sum of c_tau over supersets of rho is [rho is a face]
    for c in corpus4:
        p = fine_e_polynomial(c)
        faces = faces_of(c)
        for subset in range(1 << c.n):
            labs = [c.labels[i] for i in vertices_of(subset)]
            expected = 1 if subset in faces else 0
            assert p.superset_sum(labs) == expected


def test_coarse_from_fine_examples(corpus4):
    assert tuple(coarse_from_fine(fine_e_polynomial(from_facets(EX3)))) == (1, -3, 2, 1)
    assert tuple(coarse_from_fine(fine_e_polynomial(boundary_simplex(3)))) == (-1, 4, -6, 4)
    assert tuple(coarse_from_fine(fine_e_polynomial(from_facets([[]])))) == (1,)
    for c in corpus4:
        assert coarse_from_fine(fine_e_polynomial(c)) == f_to_e(c.f_vector())


# -- Taylor coefficients -----------------------------------------------------------------

def test_taylor_coefficient_examples():
    p = fine_e_polynomial(from_facets(EX3))
    assert taylor_coefficient(p, (0, 3, 5, 0)) == 1
    assert taylor_coefficient(p, (2, 0, 0, 7)) == 0
    assert taylor_coefficient(p, (0, 0, 0, 0)) == 1
    with pytest.raises(DimensionMismatch):
        taylor_coefficient(p, (1, 2))


def test_taylor_equals_graded_dimension(corpus4):
    # exhaustive with entries up to 3; both quantities depend only on the
    # support, so this bound exercises every support with mixed multiplicities
    for c in corpus4:
        p = fine_e_polynomial(c)
        for a in product(range(4), repeat=c.n):
            assert taylor_coefficient(p, a) == graded_dimension(c, a)


# -- free module series -------------------------------------------------------------------

def test_free_module_eval_zero_degree_is_product_of_exponentials():
    assert free_module_series_eval((0, 0, 0), (1.0, 2.0, -0.5)) == pytest.approx(
        math.exp(1.0) * math.exp(2.0) * math.exp(-0.5), rel=1e-14)


def test_free_module_eval_examples():
    assert free_module_series_eval((1,), (1.0,)) == pytest.approx(math.e - 1, rel=1e-14)
    value = free_module_series_eval((1, 2), (1.0, 1.0))
    assert value == pytest.approx((math.e - 1) * (math.e - 2), rel=1e-14)
    brute = truncated_free_module_sum((1, 2), (1.0, 1.0), 3 + 30)
    assert value == pytest.approx(brute, rel=1e-11)


def test_free_module_eval_overflow_reports_infinity():
    assert free_module_series_eval((0,), (1000.0,)) == math.inf


def test_free_module_eval_builds_each_term_from_the_last():
    # 200! and (1e200)^2 are beyond the double range; x^k / k! need not be
    assert abs(free_module_series_eval((200,), (1.0,))) < 1e-15
    assert free_module_series_eval((3,), (-1e200,)) == -math.inf
    assert free_module_series_eval((3,), (1e200,)) == math.inf  # exp(x) wins over x^2/2


@pytest.mark.parametrize("a, x", [
    ((200,), (1.0,)),              # 1/200! and more: below the doubles, never negative
    ((200, 0), (1.0, 800.0)),      # ... yet a factor exp(800) lifts it to about 3e-28
    ((3,), (1e-5,)),               # about 1.7e-16, where the head cancels every digit
    ((0, 0), (-1000.0, 1000.0)),   # exp(-1000) * exp(1000) = 1, though each factor leaves the doubles
    ((2, 5), (-3.5, 40.0)),
    ((7,), (-2.0,)), ((7,), (-7.0,)), ((7,), (-7.5,)), ((7,), (-60.0,)),
    ((1,), (-800.0,)), ((4,), (-800.0,)), ((30,), (29.5,)), ((30,), (31.0,)), ((1,), (1e-300,)),
])
def test_free_module_eval_keeps_its_digits(a, x):
    want = free_module_by_decimal(a, x)
    got = free_module_series_eval(a, x)
    assert math.isclose(got, want, rel_tol=1e-12), (got, want)
    assert got >= 0 or want < 0


@given(st.lists(st.tuples(st.integers(0, 40), st.floats(-100, 100)), min_size=1, max_size=3))
def test_free_module_eval_matches_the_decimal_reference(pairs):
    a, x = zip(*pairs)
    want = free_module_by_decimal(a, x)
    assert math.isclose(free_module_series_eval(a, x), want, rel_tol=1e-10, abs_tol=1e-300)


def test_free_module_eval_meets_infinity():
    # an infinite point gives infinity of the tail's sign; against a zero factor it is 0 * inf
    assert free_module_series_eval((0, 2), (math.inf, 1.0)) == math.inf
    assert free_module_series_eval((2,), (-math.inf,)) == math.inf
    assert free_module_series_eval((3,), (-math.inf,)) == -math.inf
    assert free_module_series_eval((1,), (-math.inf,)) == -1.0
    assert free_module_series_eval((0,), (-math.inf,)) == 0.0
    assert free_module_series_eval((2, 1), (0.0, 5.0)) == 0.0
    with pytest.raises(TooLarge):
        free_module_series_eval((2, 0), (0.0, math.inf))
    with pytest.raises(TooLarge):
        free_module_series_eval((1,), (math.nan,))
    # at +inf every tail is +inf, whatever its degree, alone or beside a finite factor
    for a in (1, 2, 3):
        assert free_module_series_eval((a,), (math.inf,)) == math.inf
        assert free_module_series_eval((a, 2), (math.inf, 1.5)) == math.inf
        assert free_module_series_eval((2, a), (-0.5, math.inf)) == math.inf


def test_free_module_eval_meets_a_degree_past_the_double_range():
    # lgamma(a + 1) overflows past about 10^305, so a finite point there raises TooLarge
    assert free_module_series_eval((10**305,), (0.5,)) == 0.0
    for a, x in (((10**400,), (0.5,)), ((10**306,), (0.5,)), ((10**400, 1), (-math.inf, 1.0)),
                 ((2**1024,), (1.7e308,))):
        with pytest.raises(TooLarge, match="past the double range"):
            free_module_series_eval(a, x)
    # a zero factor and an infinite point need no double of the degree
    assert free_module_series_eval((10**400,), (0.0,)) == 0.0
    assert free_module_series_eval((10**400, 2), (math.inf, 1.0)) == math.inf


def test_free_module_eval_validation():
    with pytest.raises(DimensionMismatch):
        free_module_series_eval((1, 2), (1.0,))
    with pytest.raises(InvalidParameter):
        free_module_series_eval((-1,), (1.0,))


# -- numeric and exact evaluation ------------------------------------------------------------

def test_evaluate_coarse_matches_direct_face_sum():
    samples = [from_facets(EX3), boundary_simplex(3), whiskered_cycle(4, 2),
               cross_polytope(3), cycle(5), from_facets([[]])]
    ts = [-2.0, -1.3, -0.7, 0.0, 0.4, 1.1, 2.0]
    for c in samples:
        e = f_to_e(c.f_vector())
        for t in ts:
            direct = coarse_series_direct(c, t)
            assert evaluate_coarse(e, t) == pytest.approx(direct, rel=1e-12, abs=1e-12)


def test_evaluate_coarse_overflow_takes_the_leading_sign():
    assert evaluate_coarse((0, 0, 1), 1000) == math.inf
    assert evaluate_coarse((-1, 4, -6, 4), 400) == math.inf
    assert evaluate_coarse((1, -3, 2, 1), 1000) == math.inf
    assert evaluate_coarse((-1, 4, -6, 4), -1000) == -1.0
    assert evaluate_coarse((1,), 1000) == 1.0
    assert evaluate_coarse((1, -3, 2, 1), math.inf) == math.inf
    assert evaluate_coarse((1, -3, 2, 1), -math.inf) == 1.0   # e_0
    assert math.isnan(evaluate_coarse((1, -3, 2, 1), math.nan))
    # an int past the double range takes the same rule as an infinite t
    assert evaluate_coarse((1, -3, 2, 1), 10**400) == math.inf
    assert evaluate_coarse((1,), 10**400) == 1.0
    assert evaluate_coarse((1, -3, 2, 1), -(10**400)) == 1.0


def test_evaluate_coarse_with_entries_beyond_the_double_range():
    # the series at t = 0 is sum(e) = 1; at t = -5 it is about -0.99 * 10^400
    e = (-(10**400), 10**400 + 1)
    assert evaluate_coarse(e, 0.0) == 1.0
    assert evaluate_coarse(e, -5.0) == -math.inf


def test_evaluate_coarse_where_exp_overflows():
    # exp(t) overflows past t = 709.79; y^2 - 10^400 y + 10^400 changes sign near
    # y = 10^400 (t = 921.03), and on both sides it is far beyond the double range
    e = (10**400, -(10**400), 1)
    with localcontext() as ctx:
        ctx.prec, ctx.Emax = 60, 10**6
        for t in (709.9, 710.0, 800.0, 920.0, 921.5, 930.0, 2000.0):
            y = Decimal(t).exp()
            exact = sum(Decimal(x) * y**k for k, x in enumerate(e))
            assert evaluate_coarse(e, t) == math.copysign(math.inf, exact), t
    assert evaluate_coarse(e, 1e300) == math.inf  # past the root bound: no exact evaluation


def test_evaluate_coarse_rounds_the_exact_value_once():
    # the reference: the exact rational value at the double y = exp(t), rounded by float()
    for e in ((0, 1), (1, -3, 2, 1), (-(10**400), 10**400 + 1), (-(10**30), 3 * 10**30, -2 * 10**30, 1)):
        for t in (-740.0, -700.0, -3.7, -0.1, 0.3, 1.7, 50.0, 300.0):
            exact = sum(c * Fraction(math.exp(t)) ** k for k, c in enumerate(e))
            try:
                want = float(exact)
            except OverflowError:
                want = math.inf if exact > 0 else -math.inf
            assert evaluate_coarse(e, t) == want, (e, t)


def test_evaluate_coarse_at_zero_is_one(corpus4):
    for c in corpus4:
        e = f_to_e(c.f_vector())
        assert evaluate_coarse(e, 0.0) == pytest.approx(1.0, rel=1e-12)


def test_evaluate_exact_examples():
    tetra_e = f_to_e(boundary_simplex(3).f_vector())
    assert evaluate_e_poly_exact(tetra_e, Fraction(1, 2)) == 0
    assert evaluate_e_poly_exact(tetra_e, 1) == 1
    assert evaluate_e_poly_exact((1, -3, 2, 1), Fraction(1, 3)) == Fraction(7, 27)
    assert evaluate_e_poly_exact((1,), Fraction(5, 7)) == 1


def _named(value):
    return getattr(value, "__name__", None) or repr(value)


C4 = cycle(4)
P4 = fine_e_polynomial(C4)
NOT_NUMBERS = [
    (evaluate_coarse, ((1,), "x")),
    (evaluate_coarse, ((1,), None)),
    (evaluate_coarse, ((1,), [1])),
    (evaluate_e_poly_exact, ((1,), math.nan)),
    (evaluate_e_poly_exact, ((1,), math.inf)),
    (evaluate_e_poly_exact, ((1,), "abc")),
    (evaluate_e_poly_exact, ((1,), None)),
    (free_module_series_eval, ((1,), ("x",))),
    (free_module_series_eval, ((1,), (None,))),
    (free_module_series_eval, (None, None)),
    (graded_dimension, (C4, None)),
    (taylor_coefficient, (P4, None)),
]


@pytest.mark.parametrize("fn, args", NOT_NUMBERS, ids=_named)
def test_evaluators_refuse_what_is_not_a_number(fn, args):
    with pytest.raises(InvalidParameter):
        fn(*args)
