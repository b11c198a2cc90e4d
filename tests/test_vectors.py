"""Vector transforms, polynomials and Pascal matrices."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, strategies as st

from scx import (
    EVector,
    FVector,
    HVector,
    IntPolynomial,
    InvalidParameter,
    NotAnEVector,
    NotAnHVector,
    e_polynomial,
    e_to_f,
    evaluate_coarse,
    f_polynomial,
    f_to_e,
    f_to_h,
    from_facets,
    h_polynomial,
    h_poly_from_f_poly,
    h_to_e,
    h_to_f,
    pascal_matrices,
    shift_poly,
    vector_json,
)
from oracles import h_by_monomial_counting


# -- constructors -----------------------------------------------------------

def test_fvector_validation():
    FVector((1,))
    FVector((1, 4, 5, 1))
    with pytest.raises(ValueError):
        FVector((2, 4))          # f_-1 must be 1
    with pytest.raises(ValueError):
        FVector((1, -1, 3))      # negative count
    with pytest.raises(ValueError):
        FVector((1, 3, 0))       # d not tight
    with pytest.raises(ValueError):
        FVector(())
    with pytest.raises(ValueError):
        FVector((1, 2.0))        # floats refused


def test_evector_validation():
    EVector((1,))
    EVector((1, -3, 2, 1))
    with pytest.raises(ValueError):
        EVector((1, 1))          # sum != 1
    with pytest.raises(ValueError):
        EVector((2, -2, 1, 0))   # leading entry must be >= 1


def test_hvector_validation():
    HVector((1,))
    HVector((1, 1, 0, -1))
    with pytest.raises(ValueError):
        HVector((0, 1))          # h_0 must be 1
    with pytest.raises(ValueError):
        HVector((1, -5))         # sums to f_{d-1} >= 1


# -- f <-> e ------------------------------------------------------------------

def test_f_to_e_worked_examples():
    assert tuple(f_to_e((1, 4, 5, 1))) == (1, -3, 2, 1)
    assert tuple(f_to_e((1, 4, 6, 4))) == (-1, 4, -6, 4)
    assert tuple(f_to_e((1,))) == (1,)


def test_e_to_f_worked_examples():
    assert tuple(e_to_f((1, -3, 2, 1))) == (1, 4, 5, 1)
    assert tuple(e_to_f((-1, 4, -6, 4))) == (1, 4, 6, 4)
    assert tuple(e_to_f((1,))) == (1,)


def test_e_to_f_rejects_non_e_vectors():
    # passes the cheap constructor checks (sum 1, positive leader) but the
    # face counts come out negative
    with pytest.raises(NotAnEVector):
        e_to_f((5, -6, 2))
    with pytest.raises(NotAnEVector):
        e_to_f((0, 0))  # constructor-level: sum != 1


# -- f <-> h ------------------------------------------------------------------

def test_f_to_h_worked_examples():
    assert tuple(f_to_h((1, 4, 6, 4))) == (1, 1, 1, 1)
    assert tuple(f_to_h((1, 4, 5, 1))) == (1, 1, 0, -1)
    assert tuple(f_to_h((1,))) == (1,)


def test_f_to_h_matches_inline_formula():
    # independent evaluation of h_k = sum (-1)^(k-i) C(d-i, k-i) f_{i-1}
    for f in [(1, 4, 5, 1), (1, 4, 6, 4), (1, 2), (1, 5, 9, 6)]:
        d = len(f) - 1
        inline = tuple(
            sum((-1) ** (k - i) * comb(d - i, k - i) * f[i] for i in range(k + 1))
            for k in range(d + 1))
        assert tuple(f_to_h(f)) == inline


def test_f_to_h_matches_monomial_counting_oracle(corpus4):
    for c in corpus4[:60]:
        assert tuple(f_to_h(c.f_vector())) == h_by_monomial_counting(c)


def test_h_to_f_worked_examples():
    assert tuple(h_to_f((1, 1, 1, 1))) == (1, 4, 6, 4)
    assert tuple(h_to_f((1, 1, 0, -1))) == (1, 4, 5, 1)
    assert tuple(h_to_f((1,))) == (1,)


def test_h_to_f_rejects_non_h_vectors():
    with pytest.raises(NotAnHVector):
        h_to_f((1, -5, 5))   # f_0 would be -3
    with pytest.raises(NotAnHVector):
        h_to_f((2, 0))       # constructor-level: h_0 != 1


# -- h -> e ---------------------------------------------------------------------

def test_h_to_e_sign_regression():
    # guards the sign (-1)^(d-k) of the formula in h_to_e's docstring: the
    # boundary of the tetrahedron has e = (-1, 4, -6, 4)
    assert tuple(h_to_e((1, 1, 1, 1))) == (-1, 4, -6, 4)


def test_h_to_e_worked_examples():
    assert tuple(h_to_e((1, 1, 0, -1))) == (1, -3, 2, 1)
    assert tuple(h_to_e((1,))) == (1,)


def test_h_to_e_equals_composition(corpus4, random_corpus):
    for c in corpus4 + random_corpus[:200]:
        h = f_to_h(c.f_vector())
        assert h_to_e(h) == f_to_e(h_to_f(h))


def test_h_to_e_rejects_non_h_vectors():
    with pytest.raises(NotAnHVector):
        h_to_e((1, -5, 5))


# -- typed errors on malformed vectors -----------------------------------------------

@pytest.mark.parametrize("bad", [(1, 2.0), (2, 4)])
@pytest.mark.parametrize("func", [f_to_e, f_to_h, vector_json, f_polynomial, h_poly_from_f_poly])
def test_bad_f_vectors_raise_invalid_parameter(func, bad):
    with pytest.raises(InvalidParameter):
        func(bad)


def test_bad_e_and_h_vectors_raise_typed_errors():
    with pytest.raises(NotAnEVector):
        e_polynomial((1, 1))          # sum != 1
    with pytest.raises(NotAnEVector):
        evaluate_coarse((1, 1), 0.0)
    with pytest.raises(NotAnEVector):
        e_to_f(5)                     # not a sequence at all
    with pytest.raises(NotAnHVector):
        h_polynomial((0, 1))          # h_0 != 1
    with pytest.raises(InvalidParameter):
        shift_poly((1, 2.0), 1)


# -- round trips and sum identities ------------------------------------------------

def test_round_trips_exhaustive(corpus4):
    for c in corpus4:
        f = c.f_vector()
        assert e_to_f(f_to_e(f)) == f
        assert h_to_f(f_to_h(f)) == f


# facets of up to 12 vertices give the f-vectors of complexes up to d = 12
drawn_facets = st.lists(st.frozensets(st.integers(1, 14), max_size=12), min_size=1, max_size=6)


@given(drawn_facets)
@example([frozenset(range(1, 13))])
@example([frozenset(range(1, 13)), frozenset(range(3, 15)), frozenset({1, 14})])
def test_round_trips_of_drawn_f_vectors(facets):
    f = from_facets(facets).f_vector()
    assert f.d <= 12
    assert e_to_f(f_to_e(f)) == f
    h = f_to_h(f)
    assert h_to_f(h) == f
    assert h_to_e(h) == f_to_e(h_to_f(h))


# complexes on at most 6 vertices keep every join within the face budget
small_complexes = st.lists(st.frozensets(st.integers(1, 6), max_size=4), min_size=1, max_size=4).map(from_facets)


@given(small_complexes, small_complexes)
def test_join_multiplies_e_and_h_polynomials(a, b):
    joined = a.join(b).f_vector()
    fa, fb = a.f_vector(), b.f_vector()
    assert e_polynomial(f_to_e(joined)) == e_polynomial(f_to_e(fa)) * e_polynomial(f_to_e(fb))
    assert h_polynomial(f_to_h(joined)) == h_polynomial(f_to_h(fa)) * h_polynomial(f_to_h(fb))


def test_euler_identities(corpus4):
    for c in corpus4:
        f = c.f_vector()
        e = f_to_e(f)
        chi, chi_top = c.euler_characteristics()
        assert e[0] == -chi
        assert sum(e) == 1
        assert sum(e[i] for i in range(1, len(e))) == chi_top


# -- Pascal matrices -----------------------------------------------------------------

def test_pascal_small_cases():
    A, A_inv, _, _ = pascal_matrices(1)
    assert A == [[1, 0], [-1, 1]]
    assert A_inv == [[1, 0], [1, 1]]
    A3 = pascal_matrices(3)[0]
    assert A3[3] == [-1, 3, -3, 1]


def test_pascal_inverse_pairs_exact():
    for d in range(7):
        A, A_inv, B, B_inv = pascal_matrices(d)
        size = d + 1
        for X, Y in ((A, A_inv), (B, B_inv)):
            prod = [[sum(X[i][k] * Y[k][j] for k in range(size)) for j in range(size)]
                    for i in range(size)]
            assert prod == [[int(i == j) for j in range(size)] for i in range(size)]
        assert A_inv == [[abs(x) for x in row] for row in A]
        assert B_inv == [[abs(x) for x in row] for row in B]


def test_pascal_matrices_agree_with_transforms():
    f = (1, 4, 5, 1)
    d = 3
    A, _, B, _ = pascal_matrices(d)
    row_e = [sum(f[i] * A[i][j] for i in range(d + 1)) for j in range(d + 1)]
    assert row_e == list(f_to_e(f))
    col_h = [sum(B[k][j] * f[j] for j in range(d + 1)) for k in range(d + 1)]
    assert col_h == list(f_to_h(f))


def test_pascal_matrices_reject_negative_size():
    assert pascal_matrices(0) == ([[1]], [[1]], [[1]], [[1]])
    with pytest.raises(InvalidParameter):
        pascal_matrices(-1)


# the full simplex on 60 vertices adds d = 60, with entries far beyond 64 bits
@given(drawn_facets.map(lambda facets: from_facets(facets).f_vector()))
@example(FVector(tuple(comb(60, i) for i in range(61))))
def test_transforms_match_pascal_matrices(f):
    size = len(f)
    A, A_inv, B, B_inv = pascal_matrices(size - 1)
    e, h = f_to_e(f), f_to_h(f)
    assert list(e) == [sum(f[i] * A[i][j] for i in range(size)) for j in range(size)]
    assert list(h) == [sum(B[k][j] * f[j] for j in range(size)) for k in range(size)]
    assert list(e_to_f(e)) == [sum(e[i] * A_inv[i][j] for i in range(size)) for j in range(size)]
    assert list(h_to_f(h)) == [sum(B_inv[k][j] * h[j] for j in range(size)) for k in range(size)]


# -- polynomials -----------------------------------------------------------------------

def test_polynomial_constructors():
    assert f_polynomial((1, 4, 5, 1)).coeffs == (1, 4, 5, 1)
    assert e_polynomial((-1, 4, -6, 4)).coeffs == (-1, 4, -6, 4)
    assert f_polynomial((1,)).coeffs == (1,)


def test_int_polynomial_arithmetic():
    p = IntPolynomial((1, 2))        # 1 + 2t
    q = IntPolynomial((0, 0, 3))     # 3t^2
    assert (p + q).coeffs == (1, 2, 3)
    assert (p * q).coeffs == (0, 0, 3, 6)
    assert (2 * p).coeffs == (2, 4)
    assert (p - p).coeffs == ()
    assert IntPolynomial((1, 0, 0)).coeffs == (1,)   # trailing zeros stripped
    assert q.derivative().coeffs == (0, 6)
    assert p(Fraction(1, 2)) == 2
    assert IntPolynomial()(5) == 0
    with pytest.raises(ValueError):
        IntPolynomial((1.5,))


def test_int_polynomial_text():
    assert str(IntPolynomial()) == str(IntPolynomial((0, 0))) == "0"
    assert str(IntPolynomial((1, -2, 0, 3))) == "1 - 2*t + 3*t^3"
    assert str(IntPolynomial((-1, 1))) == "-1 + 1*t"
    assert str(IntPolynomial((0, 0, -5))) == "-5*t^2"


def test_shift_poly_examples():
    assert shift_poly(IntPolynomial((1, 4, 5, 1)), -1).coeffs == (1, -3, 2, 1)
    assert shift_poly(IntPolynomial((1,)), 17).coeffs == (1,)
    cubed = IntPolynomial((0, 0, 0, 1))
    shifted = shift_poly(cubed, -1)
    assert shifted.coeffs == (-1, 3, -3, 1)
    assert shift_poly(shifted, 1) == cubed


def test_shift_matches_e_polynomial(corpus4):
    for c in corpus4:
        f = c.f_vector()
        assert shift_poly(f_polynomial(f), -1) == e_polynomial(f_to_e(f))


def test_h_poly_from_f_poly_examples():
    assert h_poly_from_f_poly((1, 4, 6, 4)).coeffs == (1, 1, 1, 1)
    assert h_poly_from_f_poly((1, 4, 5, 1)).coeffs == (1, 1, 0, -1)
    assert h_poly_from_f_poly((1,)).coeffs == (1,)


def test_h_poly_from_f_poly_matches_transform(corpus4):
    for c in corpus4:
        f = c.f_vector()
        assert h_poly_from_f_poly(f) == h_polynomial(f_to_h(f))


def test_compose_linear_reflection():
    f = f_polynomial((1, 4, 6, 4))
    reflected = f.compose_linear(-1, 0)
    assert reflected.coeffs == (1, -4, 6, -4)


# -- serialization -----------------------------------------------------------------------

def test_vector_json_shape():
    payload = vector_json((1, 4, 5, 1))
    assert payload == {
        "d": 3,
        "f": ["1", "4", "5", "1"],
        "h": ["1", "1", "0", "-1"],
        "e": ["1", "-3", "2", "1"],
    }
    assert all(isinstance(s, str) for s in payload["f"] + payload["h"] + payload["e"])


def test_big_integers_stay_exact():
    # a simplex skeleton large enough that naive 64-bit arithmetic would wrap
    d = 60
    f = tuple(comb(d + 1, i) for i in range(d + 1))
    assert f[0] == 1
    e = f_to_e(f)
    assert e_to_f(e) == FVector(f)
    h = f_to_h(f)
    assert h_to_f(h) == FVector(f)
    assert sum(e) == 1
