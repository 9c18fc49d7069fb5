"""Exact polyhedral geometry over the rationals.

Cones are handled through both descriptions: generators (V-representation)
and inequality/equation normals (H-representation).  Conversions between
them enumerate small subsets and solve tiny exact linear systems; this is
deliberate: fan ranks are capped at 6 and generator counts stay in the
tens, where subset enumeration is cheap and easy to trust.  The predicates
that validate a fan need no conversion: membership tries only bases of
the generator span, and strong convexity and the common-face test of two
cones are sign conditions (Gordan's alternative) decided on the circuits
of a few vectors.  Everything is deterministic: outputs are sorted tuples
of primitive integer vectors.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .lattice import (
    dot,
    rational_kernel,
    rational_rank,
    rational_solve,
    scale_to_integer,
)

Vec = tuple[int, ...]


# Entries kept by each per-fan cache, here and in fan, divisor and cohomology:
# a job touches one fan, so a small bound keeps a long-lived process from
# holding every fan it has seen.
CACHE_SIZE = 16


def _kernel(rows, n: int) -> list[tuple[Fraction, ...]]:
    """Rational kernel basis of the rows in Q^n; all of Q^n when there are none."""
    if not rows:
        return [tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)]
    return rational_kernel(rows)


def cone_dim(gens) -> int:
    """Dimension of cone(gens): the rank of the generator span."""
    return rational_rank(gens)


def _positively_dependent(vecs) -> bool:
    """Whether sum lambda_i v_i = 0 for some nonzero lambda >= 0.

    Gordan's alternative: this fails exactly when some linear form is
    positive on every vector.  A nonnegative kernel vector is a conformal
    sum of circuit vectors (Rockafellar 1969), so it exists iff some
    circuit has a one-signed kernel vector.  With N vectors and a kernel of
    dimension d, every circuit lies in a subset of N - d + 1 vectors whose
    kernel is a line, and only those subsets are tried.
    """
    if any(not any(v) for v in vecs):
        return True
    if not vecs:
        return False
    # The vectors are the columns.  Each kernel basis vector has a 1 in its
    # free column, so it is one-signed iff it is nonnegative.
    rows = list(zip(*vecs))
    kernel = rational_kernel(rows)
    if len(kernel) <= 1:
        return any(min(k) >= 0 for k in kernel)
    for subset in combinations(range(len(vecs)), len(vecs) - len(kernel) + 1):
        kern = rational_kernel([[row[j] for j in subset] for row in rows])
        if len(kern) == 1 and min(kern[0]) >= 0:
            return True
    return False


def cone_contains(gens, x) -> bool:
    """Exact membership x in cone(gens) = {sum lambda_i g_i : lambda_i >= 0}.

    Caratheodory: a member is a nonnegative combination of linearly
    independent generators, and those extend to a basis of span(gens)
    drawn from gens, so only such bases are tried, one rational solve
    each.  The first solve, over all generators, answers False when x lies
    outside span(gens).  A later subset that is not a basis may still give
    a nonnegative solution, which is then a valid certificate.
    """
    if not any(x):
        return True
    gens = [tuple(g) for g in gens]
    if not gens:
        return False
    n = len(gens[0])

    def solve(subset):
        return rational_solve([[g[i] for g in subset] for i in range(n)], x)

    coeffs = solve(gens)
    if coeffs is None:
        return False
    if all(c >= 0 for c in coeffs):
        return True
    d = rational_rank(gens)
    for subset in combinations(gens, d):
        coeffs = solve(subset)
        if coeffs is not None and all(c >= 0 for c in coeffs):
            return True
    return False


def is_pointed(gens) -> bool:
    """No line through the origin: cone(gens) is strongly convex.

    cone(G) contains a line iff its nonzero generators are positively
    dependent; a linearly independent set answers after one elimination.
    """
    return not _positively_dependent([tuple(g) for g in gens if any(g)])


def meet_in_common_face(gens1, gens2, n: int) -> bool:
    """Whether cone(gens1) and cone(gens2) meet in a face of both.

    Both cones must be pointed with irredundant primitive generators, as
    the maximal cones of a fan are once checked.  Separation lemma (Cox-
    Little-Schenck, Lemma 1.2.13): they meet in a common face iff some
    linear form m vanishes on the shared generators S, is positive on the
    other generators of the first cone and negative on the other
    generators of the second; the common face is then cone(S).  Writing m
    over a kernel basis of S, this asks for a form positive on the other
    generators of the first cone and the negated other generators of the
    second, projected to Q^n/span(S): Gordan's alternative.
    """
    gens1 = [tuple(g) for g in gens1]
    gens2 = [tuple(g) for g in gens2]
    shared = set(gens1) & set(gens2)
    basis = [scale_to_integer(k) for k in _kernel(sorted(shared), n)]
    vecs = [tuple(dot(k, g) for k in basis) for g in gens1 if g not in shared]
    vecs += [tuple(-dot(k, g) for k in basis) for g in gens2 if g not in shared]
    return not _positively_dependent(vecs)


@lru_cache(maxsize=CACHE_SIZE)
def _cone_hrep_cached(gens: tuple[Vec, ...], n: int):
    gens = [g for g in gens if any(g)]
    # Equations: integer basis of the orthogonal complement of span(gens).
    eqs = tuple(sorted(scale_to_integer(v) for v in _kernel(gens, n)))
    if not gens:
        return (), eqs
    d = rational_rank(gens)
    ineqs = set()
    for subset in combinations(gens, d - 1):
        if rational_rank(subset) != d - 1:
            continue
        kern = _kernel(subset, n)
        # Candidates: kernel vectors not orthogonal to every generator.  All
        # such vectors agree on sign pattern up to a global flip, so the
        # first one decides.
        for cand in kern:
            vals = [sum(Fraction(c) * g[i] for i, c in enumerate(cand)) for g in gens]
            if all(v == 0 for v in vals):
                continue
            if all(v >= 0 for v in vals):
                ineqs.add(scale_to_integer(cand))
            elif all(v <= 0 for v in vals):
                ineqs.add(scale_to_integer([-c for c in cand]))
            break
    return tuple(sorted(ineqs)), eqs


def cone_hrep(gens, n: int) -> tuple[tuple[Vec, ...], tuple[Vec, ...]]:
    """H-representation of cone(gens) in rank n.

    Returns (inequalities, equations): the cone is exactly
    {x : a.x >= 0 for all a in inequalities, e.x = 0 for all e in equations}.
    Normals are primitive integer vectors, sorted.
    """
    return _cone_hrep_cached(tuple(sorted(tuple(g) for g in gens)), n)


def cone_extreme_rays(ineqs, eqs, n: int) -> tuple[Vec, ...]:
    """Extreme rays of the pointed cone {x : A x >= 0, E x = 0}.

    An extreme ray is cut out by equations plus tight inequalities of rank
    n-1; enumerating subsets of the right size finds them all.  The cone
    must be pointed (rank of all normals = n), otherwise rays are not
    well-defined and the result is meaningless.
    """
    ineqs = [tuple(a) for a in ineqs]
    eqs = [tuple(e) for e in eqs]
    base = rational_rank(eqs)
    need = n - 1 - base
    if need < 0:
        return ()
    rays = set()
    for subset in combinations(ineqs, need):
        rows = eqs + list(subset)
        kern = _kernel(rows, n)
        if len(kern) != 1:
            continue
        v = scale_to_integer(kern[0])
        if all(dot(a, v) >= 0 for a in ineqs):
            rays.add(v)
        w = tuple(-x for x in v)
        if all(dot(a, w) >= 0 for a in ineqs):
            rays.add(w)
    return tuple(sorted(rays))


def hull_facets(points, n: int):
    """Facet description of conv(points) for rational points in rank n.

    Returns (facets, eqs) where facets is a list of (normal, rhs) with the
    hull satisfying normal.x >= rhs, and eqs is a list of (normal, value)
    affine-hull equations normal.x = value.  Brute force over d-subsets of
    the points, d = affine dimension.
    """
    pts = sorted({tuple(Fraction(c) for c in p) for p in points})
    if not pts:
        raise ValueError("hull of an empty point set")
    p0 = pts[0]
    dirs = [tuple(a - b for a, b in zip(p, p0)) for p in pts[1:]]
    d = rational_rank(dirs)
    eqs = []
    for normal in _kernel(dirs, n):
        nn = scale_to_integer(normal)
        value = sum(Fraction(a) * b for a, b in zip(nn, p0))
        eqs.append((nn, value))
    facets = {}
    if d == 0:
        return [], eqs
    for subset in combinations(pts, d):
        s0 = subset[0]
        rows = [[a - b for a, b in zip(p, s0)] for p in subset[1:]]
        if rational_rank(rows) != d - 1:
            continue
        for cand in _kernel(rows, n):
            vals = [sum(c * (a - b) for c, a, b in zip(cand, p, s0)) for p in pts]
            if all(v == 0 for v in vals):
                continue
            if all(v >= 0 for v in vals):
                nn = scale_to_integer(cand)
            elif all(v <= 0 for v in vals):
                nn = scale_to_integer([-c for c in cand])
            else:
                break
            rhs = sum(Fraction(a) * b for a, b in zip(nn, s0))
            facets[nn] = rhs
            break
    return sorted(facets.items()), eqs
