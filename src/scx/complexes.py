"""Abstract simplicial complexes stored by their facets over labeled vertices.

A complex is determined by its facets (inclusion-maximal faces). Vertex
labels are arbitrary whitespace-free tokens; internally they map to dense
indices 0..n-1 in sorted label order and every face is an integer bitmask
over those indices, so a subset test is one AND and one compare: a single
word up to 64 vertices, and a few dozen words on the thousands of vertices
of a long cycle. This module owns that format: the constructor keeps the
facet masks a sorted antichain, the enumerator, whose masks are one
already, sets them through the unchecked builder ``_of_antichain``, and
``_mask_of`` reads a collection of labels by the one label rule. There are
two listing orders: ``_listed`` sorts face and subset masks by size, then
labels, with no label tuples, while ``facets()``, and so
``to_facet_text``, ``scx info`` and ``repr``, sorts the facets' label
tuples lexicographically.

Two degenerate complexes are kept apart deliberately: the *void* complex has
no faces at all, not even the empty one, and every counting operation rejects
it with :class:`~scx.errors.VoidComplex`; the complex ``{}`` whose only face
is the empty face is perfectly ordinary, with dimension -1 and face count
vector ``(1,)``. The rule lives with the faces: the shared-face search
raises VoidComplex before it starts, and so do the face set and ``faces()``,
which read the face count from it first, and the queries that read the
facets first (membership, dimension, purity, links and joins), so whatever
reads one of them first needs no check of its own.

All values are immutable after construction and every operation is a pure
function, so concurrent use needs no coordination. A complex builds its
derived tables on first use and keeps them for its lifetime; nothing is
cached at module level; the vertex count ``n`` is a plain attribute, and
``f_vector()`` returns the one FVector built on first use. Membership and
links read the facets alone. One depth-first search from the vertex
bitsets finds the shared faces S, those in two facets or more, each
with the number of facets that contain it; no other module reads S. Every
face count follows from S and the facet sizes by one formula, the complex's
and its vertex links', and S is all the fine table needs, which the Eulerian
checks and the series read. One search of the same shape, from the same
bitsets, builds the face set and the minimal non-faces together, which only
``minimal_nonfaces`` and ``graded_dimension`` read.
"""

from __future__ import annotations

import random as _random
import sys
from functools import cached_property, reduce
from itertools import chain, combinations, islice, product
from math import comb
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
from .vectors import FVector, _check_int, _sign

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
    "enumerate_all_complexes",
    "random_complex",
    "bit_indices",
]


# The most faces the face set, faces() or a superset-sum table may hold, by the
# exact face count read off the shared faces S first; the most minimal
# non-faces, and twice the most shared faces, found so far by their searches.
# A shared face lies in two facets, so 2|S| <= sum over facets of 2^|F|, as is
# the face count: a complex whose facets bound its faces by the budget passes.
# On 64-bit CPython 3.11 (VmHWM, one process) the face set of full_simplex(21),
# the full budget, keeps about 64 bytes a face and peaks at 67 while it grows,
# at 298 MB; faces() builds its own face set and peaks at about 177 bytes a
# face on full_simplex(17). At the cap on S, three 21-vertex facets on 22
# vertices (|S| = 2^21), `scx vectors` peaks at 178 MB and `scx series --fine`
# at 319 MB; four 20-vertex facets on 21 vertices (|S| = 1,441,792), the
# largest S found that the facets' bound admitted, at 178 and 299 MB. The
# generators hold the vertex entries of the facet lists they build to the same
# number.
FACE_BUDGET = 1 << 22


def bit_indices(mask: int) -> Iterator[int]:
    """Indices of the set bits, ascending; InvalidParameter for a mask that is no
    nonnegative int."""
    if not isinstance(mask, int) or mask < 0:
        raise InvalidParameter(f"bit_indices needs a nonnegative mask, got {mask!r}")
    yield from _bits(mask)


def _bits(mask: int) -> list[int]:
    """The indices of the set bits of a mask known to be a nonnegative int,
    ascending: the library's one decoder, unchecked."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


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


def _check_collection(x, message: str) -> None:
    """InvalidParameter for a bare string or bytes, which would split into its
    characters, or for anything that is no collection."""
    if isinstance(x, (str, bytes)) or not isinstance(x, Iterable):
        raise InvalidParameter(f"{message}, got {x!r}")


def _mask_of(index: dict[str, int], labels: Iterable) -> int:
    """The mask of a collection of labels, by the one label rule: InvalidParameter
    for a bare string or a non-collection, InvalidLabel for a malformed label and
    FaceNotInComplex for one that names no vertex."""
    _check_collection(labels, "a face is a collection of labels")
    mask = 0
    for raw in labels:
        label = _check_label(raw)
        if label not in index:
            raise FaceNotInComplex(f"no vertex labeled {label!r}")
        mask |= 1 << index[label]
    return mask


def _check_faces(count: int) -> None:
    """TooLarge when a build would hold more than FACE_BUDGET faces, by their exact count."""
    if count > FACE_BUDGET:
        raise TooLarge(f"the face count is {count}, over the face budget of {FACE_BUDGET}")


def _face_counts(facets: Iterable[int], shared: Iterable[tuple[int, int]]) -> list[int]:
    """Face counts by size, by the formula of ``f_vector``, from an antichain of
    facet masks and the (mask, m(sigma)) pairs of its shared faces."""
    sizes = [m.bit_count() for m in facets]
    counts = [0] * (max(sizes) + 1)
    for s in set(sizes):
        k = sizes.count(s)
        for i in range(s + 1):
            counts[i] += k * comb(s, i)
    for m, k in shared:
        counts[m.bit_count()] -= k - 1
    return counts


def _link_face_counts(c: SimplicialComplex) -> Iterator[tuple[str, list[int]]]:
    """(label, face counts of its link) per vertex v, in label order: lk v has
    the facets F - v and the shared faces sigma - v, with m(sigma), of the F
    and sigma that hold v."""
    shared = c._shared.items()
    for v, lab in enumerate(c.labels):
        bit = 1 << v
        yield lab, _face_counts([m ^ bit for m in c.facet_masks if m & bit],
                                [(m ^ bit, k) for m, k in shared if m & bit])


def _antichain(masks: Iterable[int], n: int) -> tuple[list[int], list[int]]:
    """(kept, bitsets) from distinct masks over n vertices in descending
    numeric order: the maximal masks, still descending, and one bitset per
    vertex, bit j set when ``kept[j]`` holds it; the one builder of the
    vertex bitsets. A mask is dominated exactly when the AND of its
    vertices' bitsets is nonzero: O(m * |F|) word operations on m masks of
    at most |F| vertices, not m^2 subset tests."""
    # a strict superset of m is a larger number, so every mask that could
    # dominate m is visited first, and a kept mask holding all of m's
    # vertices differs from m: it is a strict superset of m
    above = [0] * n
    kept: list[int] = []
    for m in masks:
        vertices = _bits(m)
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
    return kept, above


def _listed(n: int, masks: Iterable[int]) -> list[int]:
    """The masks in the one listing order, by size, then labels: two stable
    sorts, descending by the bits read from vertex 0 up (index order is label
    order, so lesser labels read larger), then by size. No label tuple is built."""
    digits = f"0{n}b"
    out = sorted(masks, key=lambda m: format(m, digits)[::-1], reverse=True)
    out.sort(key=int.bit_count)
    return out


class SimplicialComplex:
    """Immutable complex; build one with :func:`from_facets` or a generator below.

    ``labels`` maps dense vertex indices to their string labels, strictly
    increasing, and ``facet_masks`` holds the maximal faces as sorted bitmasks
    over those indices; no facets at all is the void complex. Equality is
    structural. The constructor owns the antichain: it takes any masks that
    cover exactly the labels, strings that pass the label rule, else raises
    InvalidParameter, and keeps each maximal one once, so the facets answer
    every query they can. Its filter, ``_antichain``, visits the distinct
    masks largest number first, so every strict superset of a mask comes
    before it. The masks kept descend, so ``facet_masks`` is their reversal
    and bit j of the filter's vertex bitsets marks ``facet_masks[~j]``.
    These are ``_holders``, where the shared-face search starts: the
    constructor stores them, and a complex from ``_of_antichain`` runs the
    one filter on first use, so on every construction path a reader may take
    facet indices from them.
    """

    def __init__(self, labels: Iterable[str], facet_masks: Iterable[int]):
        try:  # one OR tells a negative mask, a bit past the labels and an unheld label
            ok = not isinstance(labels, str)  # a string would split into one-letter labels
            labels = tuple(labels)
            masks = set(facet_masks)
            ok = (ok and reduce(or_, masks, 0) == (1 << len(labels)) - 1 and all(map(lt, labels, labels[1:]))
                  and " ".join(labels).split() == list(labels))  # each label one nonempty word
        except TypeError:
            ok = False
        if not ok:
            raise InvalidParameter("facet masks must cover exactly the strictly increasing labels, "
                                   "each a nonempty string without whitespace")
        # the filter's bitsets are stored, so no search builds them again
        kept, self._holders = _antichain(sorted(masks, reverse=True), len(labels))
        self._of_antichain(labels, tuple(reversed(kept)))  # kept descends

    def _of_antichain(self, labels: tuple[str, ...], masks: tuple[int, ...]) -> SimplicialComplex:
        """Set the four attributes from a sorted antichain of masks that cover
        exactly the labels, unchecked, and return self: the one place that sets
        them, called by the constructor after its checks and by the enumerator
        on a bare instance."""
        self.labels = labels
        self.facet_masks = masks
        # plain attributes, not properties: the void guard runs on every query,
        # and every multidegree query reads the vertex count
        self.is_void = not masks
        self.n = len(labels)
        return self

    @cached_property
    def _holders(self) -> list[int]:
        """One bitset per vertex, bit j set when ``facet_masks[~j]`` holds it:
        ``_antichain``'s, stored by the constructor, else built on first use
        over the facets descending, every one of which an antichain keeps."""
        return _antichain(reversed(self.facet_masks), self.n)[1]

    # -- identity ---------------------------------------------------------

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
    def _shared(self) -> dict[int, int]:
        """The shared faces S, those in two facets or more, each mask with
        m(sigma), the number of facets that contain it, in the pre-order of
        one depth-first search (VoidComplex for void).

        The search starts from the bitsets ``_holders``, one per vertex, bit
        j set when ``facet_masks[~j]`` holds the vertex: m(sigma) is a bit
        count. A child of a face adds a vertex above its top one, and its
        bitset is the AND of the face's and the vertex's: it is shared when
        that has two bits or more. S is
        closed downward, so a vertex that failed for a face fails for its
        children too, and each child tries only the vertices of its shared
        siblings (Eclat). The search visits each shared face once and no
        other. Children go largest vertex first, so a face's subtree is the
        run of masks after it, up to the next one no larger than it. Past
        FACE_BUDGET // 2 shared faces found, the search stops with TooLarge
        before it descends again: a shared face lies in two facets, so no
        complex whose facets bound its faces by the budget has more. Every
        subset of a face comes before it, so a face of k vertices that
        descends has 2^k shared faces before it, and the recursion is at most
        about 22 deep.
        """
        self._require_faces()
        cap = FACE_BUDGET // 2
        shared: dict[int, int] = {}

        def search(children: list[tuple[int, int]]) -> None:
            # (face, facet bitset) of shared siblings, largest new vertex first
            tried: list[tuple[int, int]] = []
            for face, facets in children:
                shared[face] = facets.bit_count()
                if tried:
                    below = [(face | f, x) for f, h in tried if (x := h & facets).bit_count() > 1]
                    if below:
                        if len(shared) > cap:
                            raise TooLarge(f"{len(shared)} shared faces found so far, "
                                           f"over half the face budget of {FACE_BUDGET}")
                        search(below)
                tried.append((face, facets))

        if len(self.facet_masks) > 1:
            shared[0] = len(self.facet_masks)
            search([(1 << v, h) for v, h in reversed(list(enumerate(self._holders))) if h.bit_count() > 1])
        return shared

    @cached_property
    def _faces(self) -> tuple[set[int], tuple[int, ...]]:
        """(face set, minimal non-faces): every face mask, the empty one
        included, and the face set's negative border (Mannila-Toivonen, 1997),
        from one search shaped as ``_shared``'s, after the exact face count's
        check.

        A child joins a face with an earlier sibling, its bitset the AND of
        theirs, and is a face when that is nonzero. Each face and minimal
        non-face of two vertices or more joins the drops of its top two. A
        zero AND is a minimal non-face when dropping each vertex the siblings
        share leaves a face. The pre-order compares ascending vertex sequences
        largest first; at the dropped vertex, a drop holds a larger one and
        does not descend from the face joined, so it is in the set already.
        Both are returned as built, the minimal non-faces in the search's order,
        which their readers list or only scan: a copy would add to the peak.
        The face count does not price the minimal non-faces (a cycle of
        n vertices has n(n-3)/2 of them), so past FACE_BUDGET of them the
        search stops with TooLarge."""
        _check_faces(sum(self.f_vector()))
        faces = {0}
        found: list[int] = []

        def search(children: list[tuple[int, int]]) -> None:
            # (face, facet bitset) of sibling faces, largest new vertex first
            tried: list[tuple[int, int]] = []
            for face, facets in children:
                faces.add(face)
                below = []
                for f, h in tried:
                    m = face | f
                    if x := h & facets:
                        below.append((m, x))
                        continue
                    shared = face & f
                    while shared:
                        low = shared & -shared
                        if m ^ low not in faces:
                            break
                        shared ^= low
                    else:
                        found.append(m)
                        if len(found) > FACE_BUDGET:
                            raise TooLarge(f"{len(found)} minimal non-faces found so far, "
                                           f"over the face budget of {FACE_BUDGET}")
                if below:
                    search(below)
                tried.append((face, facets))

        search([(1 << v, h) for v, h in reversed(list(enumerate(self._holders)))])
        return faces, tuple(found)

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
        for each shared m holding v. Those m are the subtrees of the search
        entered through v, the faces whose top vertex is v, so each pass
        walks only them. A face's pass runs when a walk over S in the
        search's pre-order leaves its subtree, after its descendants' passes:
        every pass then reads a face after each pass of a higher vertex has
        written into it and before any pass of a lower one does, as running
        the passes from the top vertex down would. That is one step per
        (shared face, vertex) pair, and the build holds one dict, one list of
        S and the open faces. The facets form an antichain, so none of them is
        shared, and each one's coefficient is set to 1; zero terms are deleted
        in place.
        """
        shared = self._shared
        c = {m: 1 - k for m, k in shared.items()}
        order = list(shared)
        # a face's subtree ends before the next face no larger than it: a leaf
        # is a face the next one does not exceed, so its run is itself, and the
        # other faces wait on a stack above the root, which no vertex enters
        stack = [0]
        for j, (face, after) in enumerate(zip(islice(order, 1, None), chain(islice(order, 2, None), (0,))), 1):
            if after > face:
                stack.append(j)
                continue
            c[face ^ 1 << face.bit_length() - 1] -= c[face]
            while order[stack[-1]] > after:
                i = stack.pop()
                bit = 1 << order[i].bit_length() - 1
                for x in order[i:j + 1]:
                    c[x ^ bit] -= c[x]
        c.update(dict.fromkeys(self.facet_masks, 1))
        for m in [m for m, x in c.items() if not x]:
            del c[m]
        # a dict keeps its table after deletions: copy it when most faces dropped
        return c if 2 * len(c) >= len(shared) else dict(c)

    def faces(self) -> list[tuple[str, ...]]:
        """All faces as label tuples, ordered by size then labels, from the
        facets' submasks: ``_faces`` tries every pair of vertices."""
        _check_faces(sum(self.f_vector()))
        masks = _listed(self.n, set(chain.from_iterable(map(_submasks, self.facet_masks))))
        return list(map(self._labels_of_mask, masks))

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
        return tuple([self.labels[i] for i in _bits(mask)])

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
    def _f_vector(self) -> FVector:
        # _shared raises VoidComplex, and TooLarge past its cap, first
        return FVector(_face_counts(self.facet_masks, self._shared.items()))

    def f_vector(self) -> FVector:
        """Exact face counts (f_-1, ..., f_{d-1}), counting no face: the facets
        count each face once per facet that holds it, so
        f_k = sum over facets of C(|F|, k) - sum over shared sigma of size k of
        (m(sigma) - 1). One FVector, built on first use and returned by every call."""
        return self._f_vector

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
        return from_facets([["1"], ["2"]]).join(self)

    # -- serialization -------------------------------------------------------------

    def to_facet_text(self) -> str:
        """Facet-list format: one 'facet <label> ...' line per facet."""
        if self.is_void:
            return "# void complex (no faces)\n"
        return "".join(" ".join(("facet",) + face) + "\n" for face in self.facets())


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
    _check_collection(facets, "from_facets needs a collection of facets")
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
        _check_collection(facet, "a facet is a collection of labels")
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

    Lines end at LF, CRLF or CR, as open() reads a file; other whitespace,
    form feed and U+2028 included, is comment text or separates labels. One
    leading U+FEFF is skipped. Every scx verb reads its input through here.
    """
    if not isinstance(text, str):
        raise InvalidParameter(f"parse_facet_text needs a str, got {text!r}")
    facet_lists: list[list[str]] = []
    text = text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n")
    for lineno, raw in enumerate(text.split("\n"), start=1):
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
    _check_int(d, "boundary_simplex needs an int d >= 1", 1)
    _check_listing(f"boundary_simplex({d})", d * (d + 1))
    verts = [str(i) for i in range(1, d + 2)]
    return from_facets(combinations(verts, d))


def full_simplex(d: int) -> SimplicialComplex:
    """The full d-simplex: one facet on d+1 vertices."""
    _check_int(d, "full_simplex needs an int d >= 1", 1)
    _check_listing(f"full_simplex({d})", d + 1)
    return from_facets([[str(i) for i in range(1, d + 2)]])


def cycle(n: int) -> SimplicialComplex:
    """The n-gon graph: vertices 1..n, edges between cyclic neighbors."""
    _check_int(n, "cycle needs an int n >= 3", 3)
    _check_listing(f"cycle({n})", 2 * n)
    return from_facets([[str(i), str(i % n + 1)] for i in range(1, n + 1)])


def cross_polytope(d: int) -> SimplicialComplex:
    """Boundary of the d-dimensional cross-polytope.

    d antipodal vertex pairs ('i+', 'i-'); the facets pick one vertex from
    each pair. Equivalent to the d-fold join of two-point complexes, without
    the nested label prefixes that iterated joins would produce.
    """
    _check_int(d, "cross_polytope needs an int d >= 1", 1)
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
    _check_int(n, "whiskered_cycle needs an int n >= 3", 3)
    _check_int(k, "whiskered_cycle needs an int k >= 0", 0)
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
    entry = GENERATORS.get(kind.replace("-", "_")) if isinstance(kind, str) else None
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
    the count grows like the Dedekind numbers: 2, 5, 19, 167 and 7,580 for
    n = 1..5. The antichains grow one mask at a time, in increasing order, so
    a chosen mask can only be a subset of a later one: each mask has one int
    whose bits mark its supersets among the 2^n candidates, the OR of the
    chosen masks' ints bars every candidate they exclude, and the candidates
    left are the bits of one int. Each antichain's masks are squeezed onto
    the dense indices of its vertex set, which keeps their increasing order,
    and the labels 1..5 sort as their numbers do: each is a sorted antichain
    over exactly its labels already, so it skips the constructor's checks
    and filter, and its vertex bitsets are built only if a search asks.
    """
    _check_int(n, "enumeration needs an int n >= 1", 1)
    if n > 5:
        raise TooLarge("refusing to enumerate beyond 5 vertices")
    bare = SimplicialComplex.__new__
    yield bare(SimplicialComplex)._of_antichain((), (0,))
    top = 1 << n
    labels = [str(i + 1) for i in range(n)]
    # per vertex set: its labels, and each of its subsets on its dense indices;
    # both submask lists add the set bits in the same order, lowest first
    dense = [(tuple(labels[i] for i in _bits(u)),
              dict(zip(_submasks(u), _submasks((1 << u.bit_count()) - 1)))) for u in range(top)]
    # bit s of above[m]: the candidate s is a superset of m
    above = [sum(1 << s for s in range(m, top) if s & m == m) for m in range(top)]

    def grow(start: int, chosen: tuple[int, ...], used: int, barred: int) -> Iterator[SimplicialComplex]:
        # barred holds the supersets of the chosen masks, the candidates they exclude
        for m in _bits((1 << top) - (1 << start) & ~barred):
            picked = chosen + (m,)
            vertices, squeeze = dense[used | m]
            yield bare(SimplicialComplex)._of_antichain(vertices, tuple([squeeze[x] for x in picked]))
            yield from grow(m + 1, picked, used | m, barred | above[m])

    yield from grow(1, (), 0, 0)


def random_complex(seed: int, n: int, facet_count: int, max_facet_size: int) -> SimplicialComplex:
    """Seed-deterministic complex: draw facets uniformly, then canonicalize.

    Facet sizes are uniform on 1..min(max_facet_size, n) and the vertices of
    each facet are sampled without replacement from 1..n, so n is at most
    sys.maxsize; vertices that end up in no facet simply do not occur in the
    complex.
    """
    _check_int(seed, "the seed must be an int")  # random.Random's other seed types vary by version
    for x in (n, facet_count, max_facet_size):
        _check_int(x, "n, facet_count and max_facet_size must all be ints >= 1", 1)
    if n > sys.maxsize:  # random.sample needs len(range(1, n + 1))
        raise InvalidParameter(f"random_complex draws its vertices from 1..n, n at most {sys.maxsize}, got {n}")
    cap = min(max_facet_size, n)
    _check_listing(f"random_complex({seed}, {n}, {facet_count}, {max_facet_size})", facet_count * cap)
    rng = _random.Random(seed)
    facets = []
    for _ in range(facet_count):
        size = rng.randint(1, cap)
        facets.append([str(v) for v in rng.sample(range(1, n + 1), size)])
    return from_facets(facets)
