"""Exact transforms between the f-, h- and e-vectors of a simplicial complex.

For a complex of dimension d-1 all three vectors have length d+1:

* ``f = (f_-1, f_0, ..., f_{d-1})``: face counts by dimension, where
  ``f_-1 = 1`` counts the empty face,
* ``h = (h_0, ..., h_d)``: numerator coefficients of the coarse ordinary
  Hilbert series of the face ring, ``sum_k h_k t^k / (1-t)^d``,
* ``e = (e_0, ..., e_d)``: coefficients of the coarse exponential Hilbert
  series read as a polynomial in ``y = exp(t)``.

Each vector determines the other two through invertible lower-triangular
integer systems, all one binomial shift: with f(t) = sum_i f_{i-1} t^i, the
e-polynomial is f(t - 1), and the reversed h-polynomial is the reversed
f-polynomial at t - 1. The five transforms share that one kernel,
:func:`_shift`; :func:`shift_poly` and :func:`h_poly_from_f_poly` stay
independent of it, each by Horner's rule over :class:`IntPolynomial`, so the
tests can compare the transforms against them.
Everything is exact: Python big integers throughout, and a polynomial
evaluates exactly at an int or a Fraction. No float ever enters a transform.
The vectors and polynomials are int tuples.
"""

from __future__ import annotations

from itertools import zip_longest
from typing import Iterable

from .errors import InvalidParameter, NotAnEVector, NotAnHVector

__all__ = [
    "FVector",
    "HVector",
    "EVector",
    "IntPolynomial",
    "f_to_e",
    "e_to_f",
    "f_to_h",
    "h_to_f",
    "h_to_e",
    "f_polynomial",
    "e_polynomial",
    "h_polynomial",
    "shift_poly",
    "h_poly_from_f_poly",
    "vector_json",
]


def _sign(k: int) -> int:
    """(-1)**k, well defined for negative k too."""
    return -1 if k % 2 else 1


def _check_int(x, message: str, low: int | None = None) -> None:
    """InvalidParameter unless x is an int (a bool counts), at least low when given."""
    if not isinstance(x, int) or low is not None and x < low:
        raise InvalidParameter(f"{message}, got {x!r}")


class _Ints(tuple):
    """A tuple of ints, equal only to one of its own class, never to a plain tuple."""

    __slots__ = ()

    def __new__(cls, values=()):
        self = tuple.__new__(cls, values)
        for x in self:
            if not isinstance(x, int):
                raise ValueError(f"{cls.__name__} entries must be int, got {x!r}")
        return self

    def __eq__(self, other):
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__

    def __repr__(self):
        return f"{type(self).__name__}({tuple.__repr__(self)})"


class _IntVector(_Ints):
    __slots__ = ()

    def __new__(cls, entries):
        self = super().__new__(cls, entries)
        if not self:
            raise ValueError(f"{cls.__name__} cannot be empty")
        self._validate()
        return self

    @property
    def d(self) -> int:
        """Length minus one; equals dim(complex) + 1 for vectors of a complex."""
        return len(self) - 1


class FVector(_IntVector):
    """Face counts ``(f_-1, f_0, ..., f_{d-1})``; ``f[i]`` holds ``f_{i-1}``."""

    __slots__ = ()

    def _validate(self) -> None:
        if self[0] != 1:
            raise ValueError("f_-1 must be 1 (the empty face)")
        if any(x < 0 for x in self):
            raise ValueError("face counts cannot be negative")
        if self[-1] < 1:
            raise ValueError("top face count must be positive (the length is tight)")


class EVector(_IntVector):
    """Coefficients ``(e_0, ..., e_d)`` of the coarse exponential series in y = exp(t).

    Always sums to 1 (the series value at t = 0 counts only the empty face)
    and has positive leading coefficient e_d = f_{d-1}. These two checks do
    not characterize e-vectors, and neither does :func:`e_to_f`'s check of
    the face counts.
    """

    __slots__ = ()

    def _validate(self) -> None:
        if sum(self) != 1:
            raise ValueError("e-vector entries must sum to 1")
        if self[-1] < 1:
            raise ValueError("leading e-vector entry must be positive")


class HVector(_IntVector):
    """Coefficients ``(h_0, ..., h_d)`` of the coarse Hilbert series numerator."""

    __slots__ = ()

    def _validate(self) -> None:
        if self[0] != 1:
            raise ValueError("h_0 must be 1")
        if sum(self) < 1:
            raise ValueError("h-vector entries must sum to f_{d-1} >= 1")


def _as(cls, v, error, prefix: str = ""):
    """v as a cls vector; the constructor's complaint is raised, after prefix, as the typed error."""
    if isinstance(v, cls):
        return v
    try:
        return cls(v)
    except (ValueError, TypeError) as exc:
        raise error(prefix + str(exc)) from exc


def _shift(coeffs, c: int) -> list[int]:
    """Coefficients of p(t + c) by d passes of synthetic division, no binomials."""
    a = list(coeffs)
    d = len(a) - 1
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            a[j] += c * a[j + 1]
    return a


def f_to_e(f: FVector | Iterable[int]) -> EVector:
    """e_k = sum_{i=k..d} (-1)^(i-k) C(i,k) f_{i-1}.

    This is the coefficient of y^k after expanding sum_i f_{i-1} (y-1)^i,
    the coarse exponential series of the face ring: e(y) = f(y - 1).
    """
    return EVector(tuple(_shift(_as(FVector, f, InvalidParameter), -1)))


def e_to_f(e: EVector | Iterable[int]) -> FVector:
    """Inverse transform: f_{i-1} = sum_{j=i..d} C(j,i) e_j, i.e. f(t) = e(t + 1).

    Raises NotAnEVector when the result fails the FVector checks (f_-1 = 1,
    no negative count, a top count of at least 1). Counts that pass need not
    be any complex's: ``e_to_f((2, -2, 1))`` is (1, 0, 1), an edge without
    vertices; the Kruskal-Katona inequalities are not checked.
    """
    entries = tuple(_shift(_as(EVector, e, NotAnEVector), 1))
    return _as(FVector, entries, NotAnEVector, f"no complex has face counts {entries}: ")


def f_to_h(f: FVector | Iterable[int]) -> HVector:
    """h_k = sum_{i=0..k} (-1)^(k-i) C(d-i, k-i) f_{i-1}."""
    f = _as(FVector, f, InvalidParameter)
    return HVector(tuple(reversed(_shift(reversed(f), -1))))


def h_to_f(h: HVector | Iterable[int]) -> FVector:
    """Inverse transform: f_{i-1} = sum_{j=0..i} C(d-j, i-j) h_j.

    Raises NotAnHVector when the result fails the FVector checks, as e_to_f
    does: ``h_to_f((1, 0, -1, 1))`` is (1, 3, 2, 1), a triangle with two edges.
    """
    h = _as(HVector, h, NotAnHVector)
    entries = tuple(reversed(_shift(reversed(h), 1)))
    return _as(FVector, entries, NotAnHVector, f"no complex has face counts {entries}: ")


def h_to_e(h: HVector | Iterable[int]) -> EVector:
    """e_k = (-1)^(d-k) sum_{j=d-k..d} C(j, d-k) h_j.

    That is the t^k coefficient of e(t) = sum_j h_j (t-1)^j t^(d-j). It is
    computed as f_to_e(h_to_f(h)), whose first step validates the input,
    raising NotAnHVector on garbage.
    """
    return f_to_e(h_to_f(h))


class IntPolynomial(_Ints):
    """Dense univariate polynomial over the integers, ascending degree.

    Normalized so the top coefficient is nonzero; the zero polynomial is the
    empty tuple. Its operators are arithmetic, not the tuple's: ``+``, ``-``
    and ``*`` add, subtract and multiply polynomials, and ``*`` by an int
    scales. Differentiation, affine argument substitution and evaluation at
    integers or Fractions are all exact.
    """

    __slots__ = ()

    def __new__(cls, coeffs=()):
        self = super().__new__(cls, coeffs)
        top = len(self)
        while top and not self[top - 1]:
            top -= 1
        return self if top == len(self) else tuple.__new__(cls, self[:top])

    coeffs = property(tuple)  # the plain tuple

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self) - 1

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        if not isinstance(other, IntPolynomial):
            raise TypeError(f"an IntPolynomial adds only an IntPolynomial, not {type(other).__name__}")
        return IntPolynomial(a + b for a, b in zip_longest(self, other, fillvalue=0))

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(-c for c in self)

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial(other * c for c in self)
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        out = [0] * (len(self) + len(other) - 1)
        for i, a in enumerate(self):
            if a:
                for j, b in enumerate(other):
                    out[i + j] += a * b
        return IntPolynomial(out)

    __rmul__ = __mul__

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial(tuple(i * c for i, c in enumerate(self))[1:])

    def compose_linear(self, a: int, b: int) -> "IntPolynomial":
        """Exact substitution t -> a*t + b, by Horner's rule."""
        result = IntPolynomial()
        base = IntPolynomial((b, a))
        for c in reversed(self):
            result = result * base + IntPolynomial((c,))
        return result

    def __call__(self, x):
        acc = 0
        for c in reversed(self):
            acc = acc * x + c
        return acc

    def __str__(self) -> str:
        if not self:
            return "0"
        parts = []
        for i, c in enumerate(self):
            if not c:
                continue
            term = str(c) if i == 0 else (f"{c}*t" if i == 1 else f"{c}*t^{i}")
            parts.append(term)
        return " + ".join(parts).replace("+ -", "- ")


def f_polynomial(f: FVector | Iterable[int]) -> IntPolynomial:
    """sum_i f_{i-1} t^i."""
    return IntPolynomial(_as(FVector, f, InvalidParameter))


def e_polynomial(e: EVector | Iterable[int]) -> IntPolynomial:
    """sum_k e_k t^k."""
    return IntPolynomial(_as(EVector, e, NotAnEVector))


def h_polynomial(h: HVector | Iterable[int]) -> IntPolynomial:
    """sum_k h_k t^k."""
    return IntPolynomial(_as(HVector, h, NotAnHVector))


def shift_poly(p: IntPolynomial | Iterable[int], c: int) -> IntPolynomial:
    """p(t + c), exactly. shift_poly(f_polynomial(f), -1) is the e-polynomial."""
    _check_int(c, "the shift c must be an int")
    return _as(IntPolynomial, p, InvalidParameter).compose_linear(1, c)


def h_poly_from_f_poly(f: FVector | Iterable[int]) -> IntPolynomial:
    """Expand sum_i f_{i-1} t^i (1-t)^(d-i), the rational-substitution route
    (1-t)^d f(t/(1-t)) to the h-polynomial, without leaving integer arithmetic."""
    one_minus_t = IntPolynomial((1, -1))
    total = IntPolynomial()
    # after step i, total = sum_{j<=i} f_{j-1} t^j (1-t)^(i-j)
    for i, c in enumerate(_as(FVector, f, InvalidParameter)):
        total = total * one_minus_t + IntPolynomial((0,) * i + (c,))
    return total


def vector_json(f: FVector | Iterable[int]) -> dict:
    """The f/h/e triple as a JSON-ready dict with exact decimal strings."""
    f = _as(FVector, f, InvalidParameter)
    return {
        "d": f.d,
        "f": [str(x) for x in f],
        "h": [str(x) for x in f_to_h(f)],
        "e": [str(x) for x in f_to_e(f)],
    }
