"""Structural property checks: Property E, Dehn-Sommerville conditions, Eulerian tests.

A (d-1)-dimensional complex has Property E when its e-vector is the
alternating mirror of its f-vector, e_k = (-1)^(d-k) f_{k-1} for every
0 <= k <= d; weak Property E only asks this for k >= 1. These conditions
turn out to coincide with the classical (h_k = h_{d-k}) and the general
Dehn-Sommerville conditions on the h-vector. Each theorem is one check with
a full and a weak form:

- Property E and weak Property E: one loop over k, from ``first_k`` 0 or 1.
- Classical and general Dehn-Sommerville: one loop over
  h_k - h_{d-k} = (-1)^k C(d,k) * defect, with the defect 0 or
  1 + (-1)^(d-1) - chi_top.
- Eulerian sphere and Eulerian: the fine table against the f-vector; the
  sphere also asks the fine coefficient c_empty = 1 - chi_top to be (-1)^d.

The vertex-link identity e(t) + (-1)^(d+1) f(-t) = e_0 + (-1)^(d+1) is weak
Property E read coefficientwise; its hypothesis is that every vertex link is
(d-2)-dimensional with Property E. The complex counts the links' f-vectors
by its own f-vector's formula, so no link complex is built; this module
reads facets, f-vectors and fine tables, never the shared faces.
:func:`classify` computes the e-side and the h-side from first principles,
separately, and treats any disagreement as a bug
(:class:`~scx.errors.InternalInconsistency`), never as a result.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import NamedTuple

from .complexes import SimplicialComplex, _bits, _link_face_counts, _listed
from .errors import HypothesisNotMet, InternalInconsistency, InvalidParameter
from .vectors import EVector, FVector, HVector, _sign, e_polynomial, f_to_e, f_to_h

__all__ = [
    "Verdict",
    "PropertyReport",
    "LinkIdentityResult",
    "check_property_e",
    "check_weak_property_e",
    "check_classical_ds",
    "check_general_ds",
    "is_eulerian",
    "is_eulerian_sphere",
    "check_link_identity",
    "check_join_property_e",
    "classify",
    "is_connected",
]


class Verdict(NamedTuple):
    """Boolean outcome plus a witness describing the first failure, if any."""

    ok: bool
    witness: str | None = None

    def __bool__(self) -> bool:
        return self.ok


class LinkIdentityResult(NamedTuple):
    """Result of the vertex-link polynomial identity check."""

    ok: bool
    hypothesis_met: bool
    note: str | None = None

    def __bool__(self) -> bool:
        return self.ok


class PropertyReport(NamedTuple):
    property_e: bool
    weak_property_e: bool
    classical_ds: bool
    general_ds: bool
    eulerian: bool
    eulerian_sphere: bool
    pure: bool
    witness: str | None = None

    def to_dict(self) -> dict:
        return self._asdict()


def _property_e_from(f: FVector, e: EVector, first_k: int) -> Verdict:
    d = f.d
    for k in range(first_k, d + 1):
        want = _sign(d - k) * f[k]
        if e[k] != want:
            return Verdict(False, f"k={k}: e_{k}={e[k]}, want (-1)^(d-k)*f_{k - 1}={want}")
    return Verdict(True)


def check_property_e(c: SimplicialComplex) -> Verdict:
    """Does e_k == (-1)^(d-k) f_{k-1} hold for every 0 <= k <= d?"""
    f = c.f_vector()
    return _property_e_from(f, f_to_e(f), 0)


def check_weak_property_e(c: SimplicialComplex) -> Verdict:
    """The same equalities restricted to 1 <= k <= d."""
    f = c.f_vector()
    return _property_e_from(f, f_to_e(f), 1)


def _ds_from(h: HVector, defect: int) -> Verdict:
    d = h.d
    for k in range(d + 1):
        lhs = h[k] - h[d - k]
        rhs = _sign(k) * comb(d, k) * defect
        if lhs != rhs:
            return Verdict(False, f"k={k}: h_{k}-h_{d - k}={lhs}, want {rhs}")
    return Verdict(True)


def _sphere_defect(c: SimplicialComplex) -> int:
    _, chi_top = c.euler_characteristics()
    return 1 + _sign(c.f_vector().d - 1) - chi_top


def check_classical_ds(c: SimplicialComplex) -> Verdict:
    """Classical Dehn-Sommerville: the h-vector is symmetric, h_k == h_{d-k}."""
    return _ds_from(f_to_h(c.f_vector()), 0)


def check_general_ds(c: SimplicialComplex) -> Verdict:
    """General Dehn-Sommerville: h_k - h_{d-k} == (-1)^k C(d,k) * defect for all k,
    where the defect is the (d-1)-sphere Euler characteristic 1 + (-1)^(d-1)
    minus the complex's own chi_top."""
    return _ds_from(f_to_h(c.f_vector()), _sphere_defect(c))


def is_eulerian(c: SimplicialComplex) -> Verdict:
    """Pure, and every nonempty face's link has the Euler characteristic of a
    sphere of the complementary dimension: chi_top(link of sigma) must equal
    1 + (-1)^(d + dim sigma), i.e. the fine coefficient c_sigma, which is
    1 - chi_top(link of sigma), must be (-1)^(d - |sigma|). The coefficients
    come from the complex's fine table, built on first use and shared with
    fine_e_polynomial.

    Call c_sigma right-signed when it is (-1)^(d - |sigma|). Each one is +-1,
    so the table holds it, and one pass over the table counts the
    right-signed faces of each size k: the complex is Eulerian exactly when
    that count is f_k for every 1 <= k < d. The witness names the first
    failing face by size, then labels: at the smallest size k short of f_k,
    the least of each facet's first k-subset, in label order, that is not
    right-signed; at k = 1 that is the least failing vertex. No face set is
    built."""
    if not c.is_pure():
        return Verdict(False, "not pure")
    d = c.dimension() + 1
    table = c._fine_terms
    wanted = [_sign(d - k) for k in range(d + 1)]
    right = [0] * (d + 1)  # the right-signed faces of each size
    for m, x in table.items():
        if x == wanted[k := m.bit_count()]:
            right[k] += 1
    f = c.f_vector()
    size = next((k for k in range(1, d) if right[k] < f[k]), d)
    if size == d:
        return Verdict(True)
    want = wanted[size]
    # the candidates share a size, so the first listed has the least labels
    firsts = (next((m for m in map(sum, combinations([1 << v for v in _bits(F)], size))
                    if table.get(m, 0) != want), 0) for F in c.facet_masks)
    sigma = _listed(c.n, filter(None, firsts))[0]
    face = " ".join(c._labels_of_mask(sigma))  # chi_top(link) = 1 - c_sigma
    return Verdict(False, f"face {{{face}}}: link chi_top={1 - table.get(sigma, 0)}, want {1 - want}")


def _sphere_from(c: SimplicialComplex, eul: Verdict) -> Verdict:
    # an Eulerian complex has its fine table built; c_empty = 1 - chi_top(c)
    if not eul.ok:
        return eul
    want = _sign(c.dimension() + 1)
    c_empty = c._fine_terms.get(0, 0)
    if c_empty != want:
        return Verdict(False, f"chi_top={1 - c_empty}, want {1 - want} for a sphere")
    return Verdict(True)


def is_eulerian_sphere(c: SimplicialComplex) -> Verdict:
    """Eulerian, with the global Euler characteristic of a (d-1)-sphere, read
    as the fine coefficient c_empty = 1 - chi_top, which must be (-1)^d."""
    return _sphere_from(c, is_eulerian(c))


def check_link_identity(c: SimplicialComplex) -> LinkIdentityResult:
    """If every vertex link is (d-2)-dimensional with Property E, then
    coefficientwise e(t) + (-1)^(d+1) f(-t) == e_0 + (-1)^(d+1).

    For k >= 1 the t^k coefficient of the left side is
    e_k - (-1)^(d-k) f_{k-1}, and the constant terms always agree, so the
    identity is weak Property E. Its proof sums the links' e-polynomials into
    e'(t), which needs every link of dimension d-2. Vacuously true, with a
    note, when some link has another dimension or lacks Property E. A failure
    while the hypothesis holds returns False and would point at a bug (or a
    counterexample, which does not exist).

    No link is built: each link's faces are counted from the facets and the
    shared faces that hold its vertex. The vertices go in label order, each
    with its dimension test first. The shared faces are found for the whole
    complex, so their cap, half the face budget, applies to it as a whole:
    past it, TooLarge, even where one small link would settle the hypothesis.
    """
    d = c.dimension() + 1
    if d < 1:
        raise InvalidParameter("the identity needs at least one vertex")
    for lab, f in _link_face_counts(c):
        if len(f) != d:
            return LinkIdentityResult(True, False, f"link of vertex {lab!r} has dimension {len(f) - 2}, "
                                                   f"not {d - 2}; nothing to check")
        if not _property_e_from(FVector(f), f_to_e(f), 0).ok:
            return LinkIdentityResult(True, False, f"link of vertex {lab!r} lacks Property E; nothing to check")
    weak = check_weak_property_e(c)
    if weak.ok:
        return LinkIdentityResult(True, True)
    return LinkIdentityResult(False, True, f"identity fails: {weak.witness}")


def check_join_property_e(c1: SimplicialComplex, c2: SimplicialComplex) -> bool:
    """Join two Property E complexes and confirm the join has Property E and
    that its e-polynomial is the product of the factors' e-polynomials.

    Raises HypothesisNotMet when either factor lacks Property E.
    """
    for which, factor in (("first", c1), ("second", c2)):
        pe = check_property_e(factor)
        if not pe.ok:
            raise HypothesisNotMet(f"{which} factor lacks Property E ({pe.witness})")
    joined = c1.join(c2)
    product_ok = (e_polynomial(f_to_e(joined.f_vector()))
                  == e_polynomial(f_to_e(c1.f_vector())) * e_polynomial(f_to_e(c2.f_vector())))
    return check_property_e(joined).ok and product_ok


def classify(c: SimplicialComplex) -> PropertyReport:
    """Full report over all checks, with the e-side and h-side conditions
    computed independently; a mismatch between the two raises
    InternalInconsistency instead of returning.

    The Eulerian test runs at most once, and its verdict feeds the sphere
    test. It runs only when weak Property E holds: an Eulerian complex
    satisfies the general Dehn-Sommerville equations (Klee, "A combinatorial
    analogue of Poincaré's duality theorem", 1964), which are weak Property
    E, so without it the complex is not Eulerian and the fine table is not
    built. The report is the same either way, since Property E then fails too
    and its witness comes first. The e-vector and the h-vector are each
    computed once, both from the f-vector."""
    f = c.f_vector()
    e, h = f_to_e(f), f_to_h(f)
    pe = _property_e_from(f, e, 0)
    weak = _property_e_from(f, e, 1)
    cds = _ds_from(h, 0)
    gds = _ds_from(h, _sphere_defect(c))
    eul = is_eulerian(c) if weak.ok else Verdict(False, "no weak Property E, so not Eulerian")
    sphere = _sphere_from(c, eul)
    if weak.ok != gds.ok:
        raise InternalInconsistency(
            f"weak Property E is {weak.ok} but general Dehn-Sommerville is {gds.ok}")
    if pe.ok != cds.ok:
        raise InternalInconsistency(
            f"Property E is {pe.ok} but classical Dehn-Sommerville is {cds.ok}")
    witness = next((v.witness for v in (pe, weak, cds, gds, eul, sphere) if v.witness), None)
    return PropertyReport(pe.ok, weak.ok, cds.ok, gds.ok, eul.ok, sphere.ok, c.is_pure(), witness)


def is_connected(c: SimplicialComplex) -> bool:
    """Graph connectivity of the 1-skeleton, read from the facets alone.

    Any two vertices of a facet span an edge, so vertex 0's component grows
    by whole facets until a pass over them adds nothing; no face is built.
    """
    c._require_faces()
    everything = (1 << c.n) - 1
    reached, grew = everything & 1, True  # vertex 0, when there is one
    while grew:
        grew = False
        for m in c.facet_masks:
            if m & reached and m & ~reached:
                reached |= m
                grew = True
    return reached == everything
