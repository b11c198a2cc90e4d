"""Abstract simplicial complexes stored by their facets over labeled vertices.

A complex is determined by its facets (inclusion-maximal faces). Vertex
labels are arbitrary whitespace-free tokens; internally they map to dense
indices 0..n-1 in sorted label order and every face is an integer bitmask
over those indices, so subset tests and power-set walks are single-word
operations at the sizes this library targets (a few dozen vertices). This
module owns that format: the constructor keeps the facet masks a sorted
antichain, ``_mask_of`` reads a collection of labels by the one label rule,
and ``_listed`` lists masks in the one order, by size, then labels.

Two degenerate complexes are kept apart deliberately: the *void* complex has
no faces at all, not even the empty one, and every counting operation rejects
it with :class:`~scx.errors.VoidComplex`; the complex ``{}`` whose only face
is the empty face is perfectly ordinary, with dimension -1 and face count
vector ``(1,)``.

All values are immutable after construction and every operation is a pure
function, so concurrent use needs no coordination. A complex builds its
derived tables on first use and keeps them for its lifetime; nothing is
cached at module level. Membership and links read the facets alone. One
walk over the facets' submasks gives the cover, every face with the number
of facets that contain it: its keys are the face set, which gives the
f-vector and the minimal non-faces, and its shared faces (in two facets or
more) are all the fine table needs, for the Eulerian checks and the series.
"""

from __future__ import annotations

import random as _random
from bisect import bisect_left
from collections import Counter
from collections.abc import KeysView
from functools import cached_property, reduce
from itertools import chain, combinations, product
from operator import lt, or_
from typing import Iterable, Iterator

from .errors import (
    DuplicateVertexInFacet,
    FaceNotInComplex,
    FacetFormatError,
    InvalidLabel,
    InvalidParameter,
    TooLarge,
    VoidComplex,
)
from .vectors import FVector, _sign

__all__ = [
    "SimplicialComplex",
    "from_facets",
    "parse_facet_text",
    "boundary_simplex",
    "full_simplex",
    "cycle",
    "cross_polytope",
    "whiskered_cycle",
    "make",
    "GENERATORS",
    "enumerate_all_complexes",
    "random_complex",
    "bit_indices",
]


# The most faces the cover may count, checked against the cheap upper bound
# sum over facets of 2^|F| before any face is counted. On 64-bit CPython 3.11 a
# face costs 72-91 bytes in the finished cover (up to 121 while it grows), so
# a full budget holds about 0.4 GB. The generators hold the vertex entries of
# the facet lists they build to the same number.
FACE_BUDGET = 1 << 22


def bit_indices(mask: int) -> Iterator[int]:
    """Indices of the set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _submasks(mask: int) -> list[int]:
    """Every submask of mask: each set bit in turn joins all the submasks so far."""
    subs = [0]
    while mask:
        low = mask & -mask
        subs += [s | low for s in subs]
        mask ^= low
    return subs


def _check_label(raw) -> str:
    if isinstance(raw, bool) or not isinstance(raw, (str, int)):
        raise InvalidLabel(f"vertex labels must be strings or integers, got {raw!r}")
    if isinstance(raw, int):
        return str(raw)
    if not raw:
        raise InvalidLabel("empty vertex label")
    if raw.split() != [raw]:
        raise InvalidLabel(f"label {raw!r} contains whitespace")
    return raw


def _mask_of(index: dict[str, int], labels: Iterable) -> int:
    """The mask of a collection of labels, by the one label rule: InvalidParameter
    for a bare string or a non-collection, InvalidLabel for a malformed label and
    FaceNotInComplex for one that names no vertex."""
    if isinstance(labels, (str, bytes)) or not isinstance(labels, Iterable):
        raise InvalidParameter(f"a face is a collection of labels, got {labels!r}")
    mask = 0
    for raw in labels:
        label = _check_label(raw)
        if label not in index:
            raise FaceNotInComplex(f"no vertex labeled {label!r}")
        mask |= 1 << index[label]
    return mask


def _listed(labels: tuple[str, ...], masks: Iterable[int]) -> list[tuple[tuple[str, ...], int]]:
    """(label tuple, mask) pairs in the one listing order: by size, then labels."""
    return sorted(((tuple(labels[i] for i in bit_indices(m)), m) for m in masks),
                  key=lambda item: (len(item[0]), item[0]))


class SimplicialComplex:
    """Immutable complex; build one with :func:`from_facets` or a generator below.

    ``labels`` maps dense vertex indices to their string labels, strictly
    increasing, and ``facet_masks`` holds the maximal faces as sorted bitmasks
    over those indices; no facets at all is the void complex. Equality is
    structural. The constructor owns the antichain: it takes any masks that
    cover exactly the labels, else raises InvalidParameter, and keeps each
    maximal one once, so the facets answer every query they can. It finds
    dominated masks largest first with one bitset per vertex, bit j set when
    the j-th mask kept holds the vertex: a mask is dominated exactly when the
    AND of its vertices' bitsets is nonzero. On m distinct masks of at most
    |F| vertices that is O(m * |F|) word operations, not m^2 subset tests.
    """

    def __init__(self, labels: Iterable[str], facet_masks: Iterable[int]):
        labels = tuple(labels)
        try:  # one OR tells a negative mask, a bit past the labels and an unheld label
            masks = set(facet_masks)
            ok = reduce(or_, masks, 0) == (1 << len(labels)) - 1 and all(map(lt, labels, labels[1:]))
        except TypeError:
            ok = False
        if not ok:
            raise InvalidParameter("facet masks must cover exactly the strictly increasing labels")
        # every mask kept before m is at least as large as m and differs from it,
        # so a kept mask holding all of m's vertices is a strict superset of m
        above = [0] * len(labels)  # bit j of above[v]: the j-th kept mask holds v
        kept: list[int] = []
        for m in sorted(masks, key=int.bit_count, reverse=True):
            vertices = list(bit_indices(m))
            common = -1 if kept else 0  # -1 stands for every kept mask, so [] drops
            for v in vertices:
                common &= above[v]
                if not common:
                    break
            if not common:
                bit = 1 << len(kept)
                for v in vertices:
                    above[v] |= bit
                kept.append(m)
        self.labels = labels
        self.facet_masks = tuple(sorted(kept))
        # a plain attribute, not a property: the void guard runs on every query
        self.is_void = not kept

    # -- identity ---------------------------------------------------------

    @property
    def n(self) -> int:
        """Vertex count."""
        return len(self.labels)

    @property
    def kind(self) -> str:
        """'void' or 'nonvoid', as ``scx info`` reports it."""
        return "void" if self.is_void else "nonvoid"

    def __eq__(self, other):
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return (self.labels, self.facet_masks) == (other.labels, other.facet_masks)

    def __hash__(self):
        return hash((self.labels, self.facet_masks))

    def __repr__(self):
        if self.is_void:
            return "SimplicialComplex(void)"
        inside = ", ".join("{" + " ".join(f) + "}" for f in self.facets())
        return f"SimplicialComplex({inside})"

    def _require_faces(self) -> None:
        if self.is_void:
            raise VoidComplex("the void complex has no faces")

    # -- faces --------------------------------------------------------------

    @cached_property
    def _cover(self) -> Counter[int]:
        """Every face mask, the empty face included, with m(sigma), the number
        of facets that contain it (empty for void).

        One walk over each facet's submasks counts them. Raises TooLarge,
        before counting anything, when the facets could hold more than
        FACE_BUDGET faces.
        """
        if self.is_void:
            return Counter()
        bound = sum(1 << m.bit_count() for m in self.facet_masks)
        if bound > FACE_BUDGET:
            raise TooLarge(f"the facets bound the face count by {bound}, "
                           f"over the face budget of {FACE_BUDGET}")
        return Counter(chain.from_iterable(map(_submasks, self.facet_masks)))

    @cached_property
    def face_mask_set(self) -> KeysView[int]:
        """Every face as a bitmask, the empty face included (empty for void):
        the cover's keys, a read-only set-like view, built once and never copied.
        Raises TooLarge as the cover does."""
        return self._cover.keys()

    @cached_property
    def _minimal_nonface_masks(self) -> tuple[int, ...]:
        # a minimal non-face is one vertex more than some face, and dropping
        # any one of its vertices leaves a face
        faces = self.face_mask_set
        candidates = {face | (1 << v) for face in faces for v in range(self.n)} - faces
        return tuple(sorted(m for m in candidates
                            if all(m ^ (1 << v) in faces for v in bit_indices(m))))

    @cached_property
    def _fine_terms(self) -> dict[int, int]:
        """Nonzero fine coefficients c_tau by face mask, from the shared faces alone.

        c_tau is the sum over faces sigma containing tau of (-1)^(|sigma| - |tau|).
        Split each 1 as m(sigma) - (m(sigma) - 1), with m(sigma) the facets
        containing sigma: the first parts sum, facet by facet, over whole
        intervals [tau, F], to 1 when tau is a facet and 0 otherwise. So
        c_tau = [tau is a facet] + sum over shared sigma containing tau of
        (-1)^(|sigma| - |tau|) (1 - m(sigma)), where the shared faces S are
        those with m >= 2. S is closed downward, so c is 0 off S and the
        facets.

        The sum is a signed superset-sum transform over S: c starts at
        1 - m(sigma), and the pass for vertex v subtracts c(m) from c(m minus v)
        for each shared m holding v. A pass reads only masks holding v and
        writes only masks without it, so it may update values while it
        iterates, and it starts at 2^v in the sorted shared faces, since no
        smaller mask holds v. That is O(n * |S|) steps after the cover walk.
        The facets form an antichain, so none of them is shared, and each
        one's coefficient is set to 1. The build holds one dict and one
        sorted list of S; zero terms are deleted in place.
        """
        c = {m: 1 - k for m, k in self._cover.items() if k > 1}
        order = sorted(c)
        for v in range(self.n):
            bit = 1 << v
            for m in order[bisect_left(order, bit):]:
                if m & bit:
                    c[m ^ bit] -= c[m]
        c.update(dict.fromkeys(self.facet_masks, 1))
        for m in [m for m, x in c.items() if not x]:
            del c[m]
        # a dict keeps its table after deletions: copy it when most faces dropped
        return c if 2 * len(c) >= len(order) else dict(c)

    def faces(self) -> list[tuple[str, ...]]:
        """All faces as label tuples, ordered by size then labels."""
        self._require_faces()
        return [face for face, _ in _listed(self.labels, self.face_mask_set)]

    def facets(self) -> tuple[tuple[str, ...], ...]:
        """The maximal faces as sorted label tuples."""
        return tuple(sorted(self._labels_of_mask(m) for m in self.facet_masks))

    def has_face(self, face: Iterable) -> bool:
        """Is ``face``, a collection of labels read by the one label rule, a face?
        From the facets; an unknown label answers False, a malformed one raises InvalidLabel."""
        self._require_faces()
        try:
            mask = _mask_of(self._index, face)
        except FaceNotInComplex:
            return False
        return any(fm & mask == mask for fm in self.facet_masks)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {label: i for i, label in enumerate(self.labels)}

    def _labels_of_mask(self, mask: int) -> tuple[str, ...]:
        return tuple(self.labels[i] for i in bit_indices(mask))

    # -- counting -------------------------------------------------------------

    def dimension(self) -> int:
        """Largest facet dimension; -1 for the empty-face complex."""
        self._require_faces()
        return max(m.bit_count() for m in self.facet_masks) - 1

    def is_pure(self) -> bool:
        """True when all facets share the top dimension."""
        self._require_faces()
        return len({m.bit_count() for m in self.facet_masks}) == 1

    @cached_property
    def _face_counts(self) -> tuple[int, ...]:
        counts = [0] * (max(m.bit_count() for m in self.facet_masks) + 1)
        for m in self._cover:
            counts[m.bit_count()] += 1
        return tuple(counts)

    def f_vector(self) -> FVector:
        """Exact face counts (f_-1, ..., f_{d-1}), by counting every face of the cover."""
        self._require_faces()
        return FVector(self._face_counts)

    def euler_characteristics(self) -> tuple[int, int]:
        """(chi, chi_top), two alternating sums of the face counts.

        chi counts the empty face, so the constant coefficient of the coarse
        exponential series is -chi; chi_top = f_0 - f_1 + ... is the ordinary
        topological Euler characteristic. chi_top == chi + 1 always.
        """
        f = self.f_vector()
        chi = -sum(_sign(i) * f[i] for i in range(len(f)))
        chi_top = sum(_sign(i) * f[i + 1] for i in range(len(f) - 1))
        return chi, chi_top

    # -- constructions ----------------------------------------------------------

    def link(self, face: Iterable = ()) -> "SimplicialComplex":
        """Link of a face: faces disjoint from it whose union with it is a face.

        ``face`` is a collection of labels, read as by :meth:`has_face`; a set no
        facet holds raises FaceNotInComplex. Returned as a canonical complex over
        the surviving vertex labels; the link of the empty face is the complex itself.
        """
        self._require_faces()
        mask = _mask_of(self._index, face)
        residues = [fm & ~mask for fm in self.facet_masks if fm & mask == mask]
        if not residues:
            raise FaceNotInComplex("{" + " ".join(self._labels_of_mask(mask)) + "} is not a face")
        return from_facets([self._labels_of_mask(m) for m in residues])

    def join(self, other: "SimplicialComplex") -> "SimplicialComplex":
        """Join: faces are unions of one face from each side.

        Labels get 'L.'/'R.' prefixes to keep the vertex sets disjoint, and
        stay sorted; the facets are the pairwise unions of facet masks.
        """
        self._require_faces()
        other._require_faces()
        labels = tuple("L." + lab for lab in self.labels) + tuple("R." + lab for lab in other.labels)
        return SimplicialComplex(labels, [a | b << self.n for a in self.facet_masks
                                          for b in other.facet_masks])

    def suspension(self) -> "SimplicialComplex":
        """Join with two isolated points."""
        self._require_faces()
        return from_facets([["1"], ["2"]]).join(self)

    # -- serialization -------------------------------------------------------------

    def to_facet_text(self) -> str:
        """Facet-list format: one 'facet <label> ...' line per facet."""
        if self.is_void:
            return "# void complex (no faces)\n"
        lines = []
        for face in self.facets():
            lines.append(("facet " + " ".join(face)) if face else "facet")
        return "\n".join(lines) + "\n"


def from_facets(facets: Iterable[Iterable]) -> SimplicialComplex:
    """Build the canonical complex with the given facets.

    Duplicate facets merge, dominated facets drop, and labels sort into a
    deterministic index order (lexicographic). ``[[]]`` yields the complex
    whose only face is the empty face; an empty outer list yields the void
    complex. Integer labels are accepted and stored as their decimal strings.

    A facet given as a list or tuple of plain, distinct labels is checked
    whole: it must be its own split, word for word. Any other facet, and any
    that fails, goes through the label rule one label at a time, which names
    the fault.
    """
    normalized: list[Iterable[str]] = []
    for facet in facets:
        if facet.__class__ is list or facet.__class__ is tuple:
            try:
                plain = " ".join(facet).split() == list(facet) and len(set(facet)) == len(facet)
            except TypeError:  # a label that is no string
                plain = False
            if plain:
                normalized.append(facet)
                continue
        seen: dict[str, None] = {}
        for raw in facet:
            label = _check_label(raw)
            if label in seen:
                raise DuplicateVertexInFacet(f"vertex {label!r} repeats within a facet")
            seen[label] = None
        normalized.append(seen)
    labels = tuple(sorted({lab for f in normalized for lab in f}))
    index = {lab: i for i, lab in enumerate(labels)}
    masks = []
    for f in normalized:
        m = 0
        for lab in f:
            m |= 1 << index[lab]
        masks.append(m)
    return SimplicialComplex(labels, masks)


def parse_facet_text(text: str) -> SimplicialComplex:
    """Parse the facet-list format.

    Lines are '#' comments or 'facet <label> <label> ...'; blank lines are
    skipped. A lone 'facet' line denotes the empty face, so a file containing
    only that line is the complex {}; a file with no facet lines at all is
    the void complex.
    """
    facet_lists: list[list[str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] != "facet":
            raise FacetFormatError(f"line {lineno}: expected a 'facet' line, got {line!r}")
        facet_lists.append(parts[1:])
    return from_facets(facet_lists)


# -- generators ----------------------------------------------------------------


def _check_listing(what: str, entries: int) -> None:
    """Raise TooLarge when a generator's facets would hold more than FACE_BUDGET
    vertex entries, before any facet is built."""
    if entries > FACE_BUDGET:
        raise TooLarge(f"{what} would list more than {FACE_BUDGET} vertex entries, "
                       f"the face budget")


def boundary_simplex(d: int) -> SimplicialComplex:
    """Boundary of the d-simplex: all proper subsets of a (d+1)-point set."""
    if d < 1:
        raise InvalidParameter("boundary_simplex needs d >= 1")
    _check_listing(f"boundary_simplex({d})", d * (d + 1))
    verts = [str(i) for i in range(1, d + 2)]
    return from_facets(combinations(verts, d))


def full_simplex(d: int) -> SimplicialComplex:
    """The full d-simplex: one facet on d+1 vertices."""
    if d < 1:
        raise InvalidParameter("full_simplex needs d >= 1")
    _check_listing(f"full_simplex({d})", d + 1)
    return from_facets([[str(i) for i in range(1, d + 2)]])


def cycle(n: int) -> SimplicialComplex:
    """The n-gon graph: vertices 1..n, edges between cyclic neighbors."""
    if n < 3:
        raise InvalidParameter("cycle needs n >= 3")
    _check_listing(f"cycle({n})", 2 * n)
    return from_facets([[str(i), str(i % n + 1)] for i in range(1, n + 1)])


def cross_polytope(d: int) -> SimplicialComplex:
    """Boundary of the d-dimensional cross-polytope.

    d antipodal vertex pairs ('i+', 'i-'); the facets pick one vertex from
    each pair. Equivalent to the d-fold join of two-point complexes, without
    the nested label prefixes that iterated joins would produce.
    """
    if d < 1:
        raise InvalidParameter("cross_polytope needs d >= 1")
    # d * 2^d entries; past the budget's bit length the capped shift is over it
    # anyway, and a huge d never builds a huge integer
    _check_listing(f"cross_polytope({d})", d << min(d, FACE_BUDGET.bit_length()))
    pairs = [(f"{i}+", f"{i}-") for i in range(1, d + 1)]
    return from_facets(product(*pairs))


def whiskered_cycle(n: int, k: int) -> SimplicialComplex:
    """An n-cycle with k pendant edges attached to vertex 1.

    Where the whiskers attach does not matter for any property this library
    decides, so one canonical representative suffices.
    """
    if n < 3:
        raise InvalidParameter("whiskered_cycle needs n >= 3")
    if k < 0:
        raise InvalidParameter("whiskered_cycle needs k >= 0")
    _check_listing(f"whiskered_cycle({n}, {k})", 2 * (n + k))
    edges = [[str(i), str(i % n + 1)] for i in range(1, n + 1)]
    edges.extend(["1", str(n + j)] for j in range(1, k + 1))
    return from_facets(edges)


GENERATORS = {
    "boundary_simplex": (boundary_simplex, 1),
    "full_simplex": (full_simplex, 1),
    "cycle": (cycle, 1),
    "cross_polytope": (cross_polytope, 1),
    "whiskered_cycle": (whiskered_cycle, 2),
}


def make(kind: str, *params: int) -> SimplicialComplex:
    """Dispatch to a named generator; '-' and '_' both accepted in the name."""
    key = kind.replace("-", "_")
    entry = GENERATORS.get(key)
    if entry is None:
        known = ", ".join(sorted(GENERATORS))
        raise InvalidParameter(f"unknown kind {kind!r} (known: {known})")
    fn, arity = entry
    if len(params) != arity:
        raise InvalidParameter(f"{kind} takes {arity} integer parameter(s), got {len(params)}")
    return fn(*params)


def enumerate_all_complexes(n: int) -> Iterator[SimplicialComplex]:
    """Every non-void complex whose vertices come from {1, ..., n}, exactly once.

    The empty-face complex comes first; after that, one complex per antichain
    of nonempty subsets of {1..n} (the possible facet sets), produced in
    lexicographic order of the sorted facet masks. Complexes on different
    vertex subsets are distinct even when isomorphic. n > 5 is refused since
    the count grows like the Dedekind numbers.
    """
    if n < 1:
        raise InvalidParameter("enumeration needs n >= 1")
    if n > 5:
        raise TooLarge("refusing to enumerate beyond 5 vertices")
    yield from_facets([[]])
    top = 1 << n
    labels = [str(i + 1) for i in range(n)]

    def grow(start: int, chosen: tuple[int, ...]) -> Iterator[SimplicialComplex]:
        for m in range(start, top):
            # m > c for every chosen c, so only containment c within m can occur
            if any(c & m == c for c in chosen):
                continue
            picked = chosen + (m,)
            yield from_facets([[labels[i] for i in bit_indices(x)] for x in picked])
            yield from grow(m + 1, picked)

    yield from grow(1, ())


def random_complex(seed: int, n: int, facet_count: int, max_facet_size: int) -> SimplicialComplex:
    """Seed-deterministic complex: draw facets uniformly, then canonicalize.

    Facet sizes are uniform on 1..min(max_facet_size, n) and the vertices of
    each facet are sampled without replacement from 1..n; vertices that end up
    in no facet simply do not occur in the complex.
    """
    if n < 1 or facet_count < 1 or max_facet_size < 1:
        raise InvalidParameter("n, facet_count and max_facet_size must all be >= 1")
    cap = min(max_facet_size, n)
    _check_listing(f"random_complex({seed}, {n}, {facet_count}, {max_facet_size})", facet_count * cap)
    rng = _random.Random(seed)
    facets = []
    for _ in range(facet_count):
        size = rng.randint(1, cap)
        facets.append([str(v) for v in rng.sample(range(1, n + 1), size)])
    return from_facets(facets)
