"""Hand-rolled reference computations, deliberately independent of the library
paths they cross-check. They read a complex only through its labels and
facet masks, and build their own faces from those; link_identity_by_links
alone builds each vertex link through SimplicialComplex.link, a route that
shares no code with the shared-face count it checks."""

import math
from collections import Counter
from decimal import Decimal, localcontext
from itertools import combinations
from operator import itemgetter

from scx import (IntPolynomial, InvalidParameter, LinkIdentityResult, bit_indices, check_property_e,
                 check_weak_property_e, from_facets, shift_poly)

# VT, FF, FS, GS, RS, NEL, LINE SEPARATOR and PARAGRAPH SEPARATOR: whitespace, and line ends
# to str.splitlines(), but not to universal newlines, as open() and sys.stdin read a file
NOT_LINE_ENDS = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")

_FACT = [1.0]
for _k in range(1, 80):
    _FACT.append(_FACT[-1] * _k)


def faces_of(c):
    """Every face mask of c, the empty face included: each subset of each
    facet's vertices, by itertools.combinations."""
    faces = set()
    for facet in c.facet_masks:
        vertices = [v for v in range(c.n) if facet >> v & 1]
        for k in range(len(vertices) + 1):
            faces.update(sum(1 << v for v in combo) for combo in combinations(vertices, k))
    return faces


def cover_by_submask_walk(c):
    """Every face mask of c, the empty face included, with m(sigma), the
    number of facets that contain it: one walk over each facet's submasks,
    stepping down by (sub - 1) & facet."""
    cover = Counter()
    for facet in c.facet_masks:
        sub = facet
        while True:
            cover[sub] += 1
            if not sub:
                break
            sub = (sub - 1) & facet
    return cover


def f_vector_of(c):
    """Face counts by size, (f_-1, f_0, ...), from faces_of."""
    counts = [0] * (max(m.bit_count() for m in c.facet_masks) + 1)
    for m in faces_of(c):
        counts[m.bit_count()] += 1
    return tuple(counts)


def antichain_families(universe_size):
    """Every antichain of nonempty subsets of a universe_size-set, brute force.

    Filters all 2^(2^n - 1) families of nonempty subsets; only sane for
    universe_size <= 4. Returns the families as tuples of bitmasks.
    """
    subsets = list(range(1, 1 << universe_size))
    families = []
    for pick in range(1 << len(subsets)):
        chosen = [subsets[i] for i in range(len(subsets)) if pick >> i & 1]
        ok = True
        for i, a in enumerate(chosen):
            for b in chosen[i + 1:]:
                meet = a & b
                if meet == a or meet == b:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            families.append(tuple(chosen))
    return families


def h_by_monomial_counting(c):
    """h-vector from the ordinary Hilbert function.

    Counts, degree by degree, the monomials whose support is a face (the
    graded dimensions of the face ring), multiplies the resulting series by
    (1-t)^d, and reads off the numerator coefficients. Also asserts that the
    numerator really terminates at degree d.
    """
    sizes = [m.bit_count() for m in faces_of(c)]
    d = max(sizes)

    def dim_at(k):
        if k == 0:
            return 1
        # monomials of total degree k with support exactly a face of size s
        return sum(math.comb(k - 1, s - 1) for s in sizes if s >= 1)

    def numerator_coeff(j):
        return sum((-1) ** m * math.comb(d, m) * dim_at(j - m) for m in range(j + 1))

    h = tuple(numerator_coeff(j) for j in range(d + 1))
    for j in range(d + 1, d + 4):
        assert numerator_coeff(j) == 0, "numerator does not terminate at degree d"
    return h


def pascal_matrices(d):
    """The four (d+1)x(d+1) signed Pascal matrices realizing the transforms.

    Returns ``(A, A_inv, B, B_inv)`` as plain lists of integer rows:

    * ``A[i][j] = (-1)^(i-j) C(i,j)``  -- row vector f maps to e via f^T A,
    * ``A_inv[i][j] = C(i,j)`` -- entrywise absolute value of A, its inverse,
    * ``B[i][j] = (-1)^(i-j) C(d-j, i-j)`` -- column vector f maps to h via B f,
    * ``B_inv[i][j] = C(d-j, i-j)`` -- again the absolute value.

    A * A_inv and B * B_inv are exactly the identity. A size that is not an
    int >= 0 raises InvalidParameter, as the library's transforms do.
    """
    if not isinstance(d, int) or d < 0:
        raise InvalidParameter(f"matrix size parameter d must be an int >= 0, got {d!r}")
    size = d + 1
    A = [[(-1) ** (i - j) * math.comb(i, j) if j <= i else 0 for j in range(size)] for i in range(size)]
    A_inv = [[math.comb(i, j) if j <= i else 0 for j in range(size)] for i in range(size)]
    B = [[(-1) ** (i - j) * math.comb(d - j, i - j) if j <= i else 0 for j in range(size)]
         for i in range(size)]
    B_inv = [[math.comb(d - j, i - j) if j <= i else 0 for j in range(size)] for i in range(size)]
    return A, A_inv, B, B_inv


def truncated_free_module_sum(a, x, order):
    """Direct truncated sum of x^b / b! over b >= a componentwise, |b| <= order."""
    n = len(a)

    def rec(i, budget):
        if i == n:
            return 1.0
        total = 0.0
        for bi in range(a[i], budget + 1):
            total += (x[i] ** bi / _FACT[bi]) * rec(i + 1, budget - bi)
        return total

    return rec(0, order)


def free_module_by_decimal(a, x, digits=1200):
    """prod_i (exp(x_i) - sum_{k < a_i} x_i^k / k!) in decimal arithmetic with
    `digits` significant digits, rounded once to a double at the end.

    Each x_i is read exactly and exp is correctly rounded, so the digits the
    subtraction cancels come out of the spare ones: with the default, a factor
    keeps its double precision while it is above 1e-1100 times exp(x_i).
    """
    with localcontext() as ctx:
        ctx.prec = digits
        value = Decimal(1)
        for ai, xi in zip(a, x):
            xd = Decimal(xi)
            head, term = Decimal(0), Decimal(1)
            for k in range(1, ai + 1):
                head += term
                term = term * xd / k
            value *= xd.exp() - head
        return float(value)


def coarse_series_direct(c, t):
    """sum over faces of (exp(t) - 1)^|face|, straight from the definition."""
    y = math.exp(t) - 1.0
    return sum(y ** m.bit_count() for m in faces_of(c))


def closed_under_subsets(c):
    """Brute-force closure check: dropping any vertex from a face gives a face."""
    faces = faces_of(c)
    for m in faces:
        for v in bit_indices(m):
            if (m ^ (1 << v)) not in faces:
                return False
    return True


def connected_bfs(c):
    """Graph connectivity of the 1-skeleton by breadth-first search."""
    n = c.n
    if n <= 1:
        return True
    adjacency = {i: set() for i in range(n)}
    for m in faces_of(c):
        if m.bit_count() == 2:
            i, j = bit_indices(m)
            adjacency[i].add(j)
            adjacency[j].add(i)
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for v in frontier:
            for w in adjacency[v]:
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return len(seen) == n


def random_tree_with_extras(rng, n_vertices, extra_edges):
    """Edge list of a random connected graph: a recursive random tree plus
    extra distinct random edges."""
    edges = {(rng.randrange(1, v), v) for v in range(2, n_vertices + 1)}
    candidates = [(a, b) for a, b in combinations(range(1, n_vertices + 1), 2)
                  if (a, b) not in edges]
    rng.shuffle(candidates)
    edges.update(candidates[:extra_edges])
    return [[str(a), str(b)] for a, b in sorted(edges)]


def eulerian_by_link_sums(c):
    """(ok, witness) of the Eulerian test, one link Euler characteristic per face.

    For every nonempty face sigma, chi_top(link of sigma) is summed directly
    over the faces strictly above sigma and compared with the sphere value
    1 + (-1)^(d + |sigma| - 1); faces are visited in (size, labels) order so
    the witness names the first failure. O(F^2) on purpose.
    """
    if not c.is_pure():
        return False, "not pure"
    d = c.dimension() + 1
    faces = faces_of(c)
    for sigma in sorted(faces, key=lambda m: (m.bit_count(), c._labels_of_mask(m))):
        if sigma == 0:
            continue
        size = sigma.bit_count()
        chi_top = sum((-1) ** (tau.bit_count() - size - 1)
                      for tau in faces if tau != sigma and tau & sigma == sigma)
        want = 1 + (-1) ** (d + size - 1)
        if chi_top != want:
            lab = " ".join(c._labels_of_mask(sigma))
            return False, f"face {{{lab}}}: link chi_top={chi_top}, want {want}"
    return True, None


def eulerian_sphere_by_link_sums(c):
    """(ok, witness): Eulerian by link sums, and chi_top summed over the faces
    equals the (d-1)-sphere value 1 + (-1)^(d-1)."""
    ok, witness = eulerian_by_link_sums(c)
    if not ok:
        return ok, witness
    d = c.dimension() + 1
    chi_top = sum((-1) ** (m.bit_count() - 1) for m in faces_of(c) if m)
    want = 1 + (-1) ** (d - 1)
    if chi_top != want:
        return False, f"chi_top={chi_top}, want {want} for a sphere"
    return True, None


def link_identity_by_polynomials(c):
    """Does e(t) + (-1)^(d+1) f(-t) == e_0 + (-1)^(d+1) hold as polynomials?

    The conclusion of the vertex-link identity, by polynomial arithmetic on
    f from faces_of and e(t) = f(t - 1), where the library reads it as weak
    Property E, one coefficient at a time.
    """
    counts = f_vector_of(c)  # (f_-1, ..., f_{d-1})
    f = IntPolynomial(counts)
    e = shift_poly(f, -1)
    sign = (-1) ** len(counts)  # (-1)^(d+1)
    return e + sign * f.compose_linear(-1, 0) == IntPolynomial((e(0) + sign,))


def link_identity_by_links(c):
    """The vertex-link identity's result, building each vertex link as its own
    complex through SimplicialComplex.link and checking it with the public
    Property E check; the library counts the links' faces off its shared faces."""
    d = c.dimension() + 1
    if d < 1:
        raise InvalidParameter("the identity needs at least one vertex")
    for lab in c.labels:
        link = c.link([lab])
        if link.dimension() != d - 2:
            return LinkIdentityResult(True, False, f"link of vertex {lab!r} has dimension {link.dimension()}, "
                                                   f"not {d - 2}; nothing to check")
        if not check_property_e(link).ok:
            return LinkIdentityResult(True, False, f"link of vertex {lab!r} lacks Property E; nothing to check")
    weak = check_weak_property_e(c)
    if weak.ok:
        return LinkIdentityResult(True, True)
    return LinkIdentityResult(False, True, f"identity fails: {weak.witness}")


def listed_by_labels(labels, masks):
    """The masks in the listing order by its definition, by size, then labels:
    two stable sorts of (label tuple, mask) pairs, by the tuples, then by size."""
    items = sorted(((tuple(labels[i] for i in bit_indices(m)), m) for m in masks), key=itemgetter(0))
    items.sort(key=lambda item: len(item[0]))
    return [m for _, m in items]


def search_order_key(mask):
    """The shared-face search's pre-order as a sort key: the mask's vertices,
    ascending and negated, compared lexicographically. A child adds a vertex
    above its face's top one, so a face is a prefix of, and comes before, its
    whole subtree, one contiguous run; siblings go largest new vertex first."""
    return tuple(-v for v in range(mask.bit_length()) if mask >> v & 1)


def fine_terms_by_submask_walk(c):
    """Nonzero fine coefficients as sorted (labels, coeff) pairs, expanding
    prod over i in sigma of (exp(x_i) - 1) for every face by walking its subsets."""
    terms = {}
    for face in faces_of(c):
        size = face.bit_count()
        sub = face
        while True:
            terms[sub] = terms.get(sub, 0) + (-1) ** (size - sub.bit_count())
            if sub == 0:
                break
            sub = (sub - 1) & face
    out = [(c._labels_of_mask(m), x) for m, x in terms.items() if x]
    out.sort(key=lambda item: (len(item[0]), item[0]))
    return out


def fine_terms_by_zeta(c):
    """Nonzero fine coefficients by face mask, by the signed superset-sum
    transform over every face: c starts at 1 on each face, and the pass for
    vertex v subtracts c(m) from c(m minus v) for each face m holding v."""
    order = sorted(faces_of(c))
    table = dict.fromkeys(order, 1)
    for v in range(c.n):
        bit = 1 << v
        for m in order:
            if m & bit:
                table[m ^ bit] -= table[m]
    return {m: x for m, x in table.items() if x}


def maximal_masks_by_pairs(masks):
    """The inclusion-maximal members of a family of bitmasks, sorted.

    Duplicates count once; a mask drops when another distinct mask contains
    it, found by testing every pair. O(m^2) on purpose.
    """
    masks = set(masks)
    return tuple(sorted(
        m for m in masks if not any(m != o and m & o == m for o in masks)))


def superset_sum_by_term_scan(p, mask):
    """Sum of the fine coefficients over every term whose subset contains
    mask, scanning all the terms. O(#terms) per query on purpose."""
    return sum(coeff for m, coeff in p._terms.items() if m & mask == mask)


def join_by_labels(a, b):
    """The join of a and b built through from_facets from prefixed label
    tuples: every union of one facet from each side, read back as labels."""
    def named(c, prefix, mask):
        return tuple(prefix + c.labels[v] for v in range(c.n) if mask >> v & 1)

    return from_facets([named(a, "L.", x) + named(b, "R.", y)
                        for x in a.facet_masks for y in b.facet_masks])


def link_by_faces(c, mask):
    """(labels, facet masks over c's indices) of the link of the face mask,
    from faces_of: the faces disjoint from it whose union with it is a face,
    kept when no other such face contains them. None for a non-face."""
    faces = faces_of(c)
    if mask not in faces:
        return None
    link = {m for m in faces if not m & mask and m | mask in faces}
    facets = maximal_masks_by_pairs(link)
    return tuple(c.labels[v] for v in range(c.n) if any(m >> v & 1 for m in facets)), facets


def minimal_nonfaces_by_candidate_scan(c):
    """The minimal non-face masks, sorted: every face plus one vertex is a
    candidate, kept when it is no face and dropping any of its vertices leaves
    one. n * #faces candidates, from faces_of."""
    faces = faces_of(c)
    candidates = {face | (1 << v) for face in faces for v in range(c.n)} - faces
    return tuple(sorted(m for m in candidates if all(m ^ (1 << v) in faces for v in bit_indices(m))))


def minimal_transversals_of_complements(c):
    """The minimal non-face masks, sorted, from the facets alone: a vertex set
    is a non-face exactly when it meets the complement of every facet, so the
    minimal non-faces are the minimal transversals of the complements, grown
    one complement at a time (Berge). Exponential in the worst case."""
    everything = (1 << c.n) - 1
    transversals = {0}  # the empty set meets every edge of the empty family
    for facet in c.facet_masks:
        edge = everything & ~facet
        grown = {t for t in transversals if t & edge}
        grown |= {t | (1 << v) for t in transversals if not t & edge for v in bit_indices(edge)}
        transversals = {t for t in grown if not any(o != t and o & t == o for o in grown)}
    return tuple(sorted(transversals))


def complexes_by_labels(n):
    """enumerate_all_complexes(n) rebuilt through from_facets from label lists:
    the empty-face complex, then one complex per antichain of nonempty subsets
    of {1..n}, the antichains as sorted mask tuples in lexicographic order."""
    antichains = []

    def extend(chosen):
        for m in range((chosen[-1] if chosen else 0) + 1, 1 << n):
            if all(c & m != c for c in chosen):
                antichains.append(chosen + (m,))
                extend(chosen + (m,))

    extend(())
    return [from_facets([[]])] + [
        from_facets([[str(v + 1) for v in bit_indices(m)] for m in chosen]) for chosen in sorted(antichains)]
