"""Exponential Hilbert series data for the face ring of a complex.

The Stanley-Reisner (face) ring of a complex on vertices x_1..x_n is the
polynomial ring modulo the squarefree monomials supported on non-faces. A
monomial survives in the quotient exactly when its support is a face, so the
finely graded exponential series sum_a dim(M_a) x^a / a! collapses to the
finite closed form

    sum over faces sigma of prod_{i in sigma} (exp(x_i) - 1),

a polynomial in the exp(x_i). This module expands that product into its
exact subset-indexed coefficient table (:class:`FineEPolynomial`), recovers
the coarse e-vector by equating the variables, evaluates per-multidegree
graded dimensions with an independent divisibility cross-check, and provides
the numeric closed form for the series of a free module generated in a fixed
multidegree. The coarse series evaluates in ints at the exact ratio of the
double exp(t); only :func:`evaluate_e_poly_exact` returns a Fraction.

The oracle pair :func:`graded_dimension` and :func:`taylor_coefficient`
reads a multidegree a only through its support mask, and packs a once for
the pair: the module keeps the last tuple of exact ints it packed, with its
mask, and answers the same object for the same vertex count from it.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Iterable, Sequence

from .complexes import SimplicialComplex, _bits, _check_faces, _listed, _mask_of
from .errors import DimensionMismatch, InternalInconsistency, InvalidParameter, ScxError, TooLarge
from .vectors import EVector, _check_int, e_polynomial

__all__ = [
    "FineEPolynomial",
    "minimal_nonfaces",
    "graded_dimension",
    "fine_e_polynomial",
    "coarse_from_fine",
    "taylor_coefficient",
    "free_module_series_eval",
    "evaluate_coarse",
    "evaluate_e_poly_exact",
]


class FineEPolynomial:
    """Coefficients c_tau of the fine series sum_tau c_tau prod_{i in tau} exp(x_i).

    Stored sparsely by face bitmask; only subsets of faces can carry a
    nonzero coefficient, and absent keys mean zero. The constant term
    c_empty equals e_0, and the superset sums recover face membership:
    sum of c_tau over tau containing rho is 1 when rho is a face, else 0.
    The first superset-sum query builds a table of them in O(n * #faces)
    steps, once, one key a face; every query after that is one O(1) lookup.
    The table is priced first by the face count e(2) = sum of c_tau 2^|tau|,
    exact from the terms alone: past FACE_BUDGET, TooLarge. Immutable once
    built; construct through :func:`fine_e_polynomial`, which passes the
    complex's label index and its fine table, shared rather than copied.
    """

    def __init__(self, labels: tuple[str, ...], d: int, terms: dict[int, int], index: dict[str, int]):
        self.labels = labels
        self.n = len(labels)  # a plain attribute: every multidegree query reads it
        self.d = d
        self._terms = terms
        self._index = index

    def _mask(self, subset: Iterable) -> int:
        try:
            return _mask_of(self._index, subset)
        except ScxError as exc:  # a malformed or unknown label, or no collection
            raise InvalidParameter(str(exc)) from None

    def coefficient(self, subset: Iterable = ()) -> int:
        """Coefficient of the vertex subset, a collection of labels read by the
        complex's one label rule (0 when absent, InvalidParameter when unreadable)."""
        return self._terms.get(self._mask(subset), 0)

    def superset_sum(self, subset: Iterable = ()) -> int:
        """Sum of coefficients over every superset of the given subset.

        The first call builds the superset-sum table in O(n * #faces) steps;
        every call after that is O(1).
        """
        return self._superset_sums.get(self._mask(subset), 0)

    @cached_property
    def _superset_sums(self) -> dict[int, int]:
        # one key a face: sum over tau of c_tau 2^|tau| is e(2) = f(1), the face count
        _check_faces(sum(x << m.bit_count() for m, x in self._terms.items()))
        # the zeta transform run upwards from the terms: the pass for vertex v
        # adds h(m) into h(m minus v) for each key m holding v; keys absent
        # from the copy start at 0, and masks below no term stay absent (sum 0)
        h = dict(self._terms)
        for bit in [1 << v for v in range(self.n)]:
            for m, x in [(m, x) for m, x in h.items() if m & bit]:
                h[m ^ bit] = h.get(m ^ bit, 0) + x
        return h

    def sorted_terms(self) -> list[tuple[tuple[str, ...], int]]:
        """Nonzero terms as (label tuple, coefficient), by size, then labels."""
        labels, terms = self.labels, self._terms
        return [(tuple([labels[i] for i in _bits(m)]), terms[m]) for m in _listed(self.n, terms)]

    def __repr__(self):
        return f"FineEPolynomial(n={self.n}, d={self.d}, terms={len(self._terms)})"


def minimal_nonfaces(c: SimplicialComplex) -> tuple[tuple[str, ...], ...]:
    """Inclusion-minimal non-faces: supports of the ideal's squarefree generators.

    A subset of the vertices is a face exactly when it contains none of these.
    The complex finds them with its face set, in one search, and keeps both.
    """
    return tuple(map(c._labels_of_mask, _listed(c.n, c._faces[1])))


# The last multidegree packed, (a, n, mask), so that the query pair on one a
# packs it once. Keyed by identity, as (1.0, 0) == (1, 0) and only the second
# passes; only an exact tuple of exact ints fills it, so what it holds cannot
# change, and the reference keeps its id from being reused.
_last = ((), 0, 0)


def _support_mask(n: int, a: Sequence[int]) -> int:
    global _last
    last = _last
    if a is last[0] and n == last[1]:
        return last[2]
    try:
        length = len(a)
    except TypeError:
        raise InvalidParameter(f"a multidegree must be a sequence, got {a!r}") from None
    if length != n:
        raise DimensionMismatch(f"multidegree length {length} != vertex count {n}")
    mask = 0
    bit = 1
    exact = a.__class__ is tuple
    for ai in a:
        # exact ints skip the isinstance call; bool and other int subclasses take it
        if ai.__class__ is not int:
            exact = False
            if not isinstance(ai, int):
                break
        if ai < 0:
            break
        if ai:
            mask |= bit
        bit <<= 1
    else:
        if exact:
            _last = (a, n, mask)
        return mask
    raise InvalidParameter(f"multidegree entries must be nonnegative integers, got {ai!r}")


def graded_dimension(c: SimplicialComplex, a: Sequence[int]) -> int:
    """0/1 dimension of the degree-a graded piece of the face ring.

    Computed two ways, from face membership of the support and from
    divisibility by the minimal non-face monomials, which the complex builds
    together; disagreement would be a bug and raises InternalInconsistency.
    With :func:`taylor_coefficient` on the same tuple of ints, a is packed once.
    """
    support = _support_mask(c.n, a)
    faces, nonfaces = c._faces
    by_support = support in faces
    by_divisibility = True
    for nf in nonfaces:
        if nf & support == nf:
            by_divisibility = False
            break
    if by_support != by_divisibility:
        raise InternalInconsistency(
            f"support test says {by_support} but divisibility says {by_divisibility} for {tuple(a)}")
    return 1 if by_support else 0


def fine_e_polynomial(c: SimplicialComplex) -> FineEPolynomial:
    """Expand sum over faces of prod (exp(x_i) - 1) into subset coefficients.

    The coefficient of subset tau is the signed count of faces above it:
    sum over faces sigma containing tau of (-1)^(|sigma| - |tau|). It is 1 on
    a facet and 0 on a face in exactly one facet that is not the facet, so
    only the shared faces S (those in two facets or more) need a transform:
    one depth-first search finds them, and each pass walks only the shared
    faces that hold its vertex. On a face it is 1 - chi_top(link of tau).
    The polynomial shares the complex's fine table, which the complex builds
    on first use (or already built for is_eulerian) and keeps for its
    lifetime.
    """
    return FineEPolynomial(c.labels, c.dimension() + 1, c._fine_terms, c._index)


def coarse_from_fine(p: FineEPolynomial) -> EVector:
    """Equate all variables: e_k collects the coefficients of the size-k subsets."""
    entries = [0] * (p.d + 1)
    for m, coeff in p._terms.items():
        entries[m.bit_count()] += coeff
    return EVector(tuple(entries))


def taylor_coefficient(p: FineEPolynomial, a: Sequence[int]) -> int:
    """Coefficient of x^a / a! in the fine series.

    Each exponential monomial contributes that coefficient exactly when its
    subset contains the support of a, so this is the superset sum over
    supp(a); it must always equal :func:`graded_dimension` for the same a.
    The first query on p builds its superset-sum table in O(n * #faces)
    steps, or raises TooLarge when the face count e(2) is over the face
    budget; each query after that is O(1). With :func:`graded_dimension` on
    the same tuple of ints, a is packed once.
    """
    return p._superset_sums.get(_support_mask(p.n, a), 0)


def _real(x, what: str) -> float:
    """x as a float, an int past the double range as an infinity of its sign;
    InvalidParameter unless x is a real number."""
    if not isinstance(x, (str, bytes, bytearray)):  # float() would parse these
        try:
            return float(x)
        except OverflowError:
            return math.inf if x > 0 else -math.inf
        except (TypeError, ValueError):
            pass
    raise InvalidParameter(f"{what} must be a real number, got {x!r}")


def _tail(a: int, x: float) -> tuple[int, float]:
    """(sign, log |t|) of the tail t = sum_{k >= a} x^k / k! of exp(x), without cancellation.

    With |x| <= a the terms fall from the first, so t = x^a / a! times
    sum_j x^j a! / (a + j)!, a sum near 1. Otherwise t = exp(x) - head, where
    the head sum_{k < a} x^k / k! is x^(a-1) / (a-1)! times sum_j (a-1)...(a-j) / x^j,
    whose terms fall from the first too; for x > a the head is less than
    exp(x), and for x < -a it is larger in size, so neither term cancels the other.
    At x = +inf the tail is +inf for every a. An a past the double range raises
    OverflowError.
    """
    if a == 0 or x == math.inf:
        return 1, x
    if x == 0:
        return 0, -math.inf
    log_x = math.log(abs(x))
    negative = x < 0  # then x^k is negative exactly when k is odd
    if abs(x) <= a:
        total = term = 1.0
        j = a
        while abs(term) > 1e-17 * total:
            j += 1
            term *= x / j
            total += term
        return (-1 if negative and a % 2 else 1), a * log_x - math.lgamma(a + 1) + math.log(total)
    total = term = 1.0
    for k in range(a - 1, 0, -1):
        term *= k / x
        total += term
        if abs(term) <= 1e-17 * total:
            break
    log_head = (a - 1) * log_x - math.lgamma(a) + math.log(total) if a > 1 else 0.0
    if x > 0:
        return 1, x + math.log1p(-math.exp(log_head - x))
    head_sign = -1 if negative and (a - 1) % 2 else 1
    return -head_sign, log_head + math.log1p(-head_sign * math.exp(x - log_head))


def free_module_series_eval(a: Sequence[int], x: Sequence[float]) -> float:
    """Closed form of the exponential series of the free module generated in degree a.

    Evaluates prod_i (exp(x_i) - sum_{k < a_i} x_i^k / k!) numerically. Each
    factor is the tail sum_{k >= a_i} x_i^k / k! of exp(x_i), taken as a sign
    and a log-magnitude without cancellation, and the factors combine by
    adding their logs, so a factor beyond the double range may meet one that
    brings it back. A value beyond the range is infinity of its sign, or 0.0;
    TooLarge is raised where an infinite x_i meets a zero factor (0 * inf),
    an x_i is nan, or a nonzero x_i short of +inf meets an a_i too large for a
    double to carry its factor's log (past about 10^305, where lgamma overflows).
    """
    try:
        mismatch = len(a) != len(x)
    except TypeError:
        raise InvalidParameter(f"the degree and the point must be sequences, got {a!r}, {x!r}") from None
    if mismatch:
        raise DimensionMismatch(f"degree length {len(a)} != point length {len(x)}")
    sign, log_value = 1, 0.0
    for ai, xi in zip(a, x):
        _check_int(ai, "multidegree entries must be nonnegative integers", 0)
        xi = _real(xi, "a point coordinate")
        try:
            factor_sign, factor_log = _tail(ai, xi)
        except OverflowError:
            raise TooLarge(f"a degree entry of {ai.bit_length()} bits at {xi!r} is past the double range") from None
        sign *= factor_sign
        log_value += factor_log
    if math.isnan(log_value):
        raise TooLarge(f"the closed form at {tuple(x)} is undefined in doubles (0 * inf, or nan)")
    try:
        return sign * math.exp(log_value)
    except OverflowError:
        return sign * math.inf


def evaluate_coarse(e, t: float) -> float:
    """Numeric value of the coarse exponential series sum_k e_k exp(k t).

    Exact at the double y = exp(t), rounded once, so huge entries may
    cancel; a value beyond the double range is infinity of its sign. Where exp(t)
    overflows, y is 2^k exp(t - k ln 2), unless t > 711 is past Cauchy's root bound
    ln(1 + max|e_k|) by 1: as e_d >= 1, p(y) >= y^d / 2 there, past the double range.
    """
    p = e_polynomial(e)
    t = _real(t, "t")
    if math.isnan(t):
        return math.nan
    try:
        num, den = math.exp(t).as_integer_ratio()
    except OverflowError:
        if t > max(math.log(1 + max(map(abs, p))) + 1, 711):
            return math.inf if p.degree else 1.0
        k = math.ceil((t - 700) / math.log(2))
        num, den = math.exp(t - k * math.log(2)).as_integer_ratio()
        num <<= k
    # p(num / den) is top / den^d in ints, and int true division rounds once
    top = sum(c * num ** k * den ** (p.degree - k) for k, c in enumerate(p))
    try:
        return top / den ** p.degree
    except OverflowError:
        return math.inf if top > 0 else -math.inf


def evaluate_e_poly_exact(e, q):
    """Exact rational value of the e-polynomial sum_k e_k q^k, as a Fraction."""
    from fractions import Fraction  # here, so that importing scx does not load it

    p = e_polynomial(e)
    try:
        q = Fraction(q)
    except (TypeError, ValueError, OverflowError):
        raise InvalidParameter(f"q must be a rational number, got {q!r}") from None
    return p(q)
