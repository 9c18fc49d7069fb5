"""Brute-force exact polyhedral geometry over the rationals.

Cones are handled through both descriptions: generators (V-representation)
and inequality/equation normals (H-representation).  All conversions work
by enumerating small subsets and solving tiny exact linear systems; this is
deliberate: fan ranks are capped at 6 and generator counts stay in the
tens, where subset enumeration beats any clever geometry and is easy to
trust.  Everything is deterministic: outputs are sorted tuples of primitive
integer vectors.
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


def cone_contains(gens, x) -> bool:
    """Exact membership x in cone(gens) = {sum lambda_i g_i : lambda_i >= 0}.

    Caratheodory: a member lies in the cone over some linearly independent
    subset of the generators, so it suffices to test those subsets, each via
    one rational solve with a nonnegativity check.
    """
    gens = [tuple(g) for g in gens]
    if all(v == 0 for v in x):
        return True
    if not gens:
        return False
    n = len(gens[0])
    d = rational_rank(gens)
    for k in range(1, d + 1):
        for subset in combinations(gens, k):
            if rational_rank(subset) != k:
                continue
            # columns = subset vectors; solve for the coefficients
            a = [[subset[j][i] for j in range(k)] for i in range(n)]
            coeffs = rational_solve(a, x)
            if coeffs is not None and all(c >= 0 for c in coeffs):
                return True
    return False


def is_pointed(gens) -> bool:
    """No line through the origin: cone(gens) is strongly convex.

    cone(G) contains a line iff -g lies in cone(G) for some generator g.
    """
    gens = [tuple(g) for g in gens]
    return not any(
        any(v != 0 for v in g) and cone_contains(gens, tuple(-v for v in g)) for g in gens
    )


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


def cone_intersection_rays(gens1, gens2, n: int) -> tuple[Vec, ...]:
    """Extreme rays of cone(gens1) ∩ cone(gens2), computed polyhedrally
    (independent of any fan bookkeeping; used as the intersection oracle)."""
    a1, e1 = cone_hrep(gens1, n)
    a2, e2 = cone_hrep(gens2, n)
    ineqs = tuple(sorted(set(a1) | set(a2)))
    eqs = tuple(sorted(set(e1) | set(e2)))
    return cone_extreme_rays(ineqs, eqs, n)


def is_face_of(face_gens, cone_gens, n: int) -> bool:
    """Whether cone(face_gens) is a face of cone(cone_gens).

    The smallest face of a cone containing a subset K is obtained by making
    tight every inequality that vanishes on K; K is a face iff it equals
    that smallest face.  Both sides are compared through their primitive
    extreme-ray sets.
    """
    face_gens = [tuple(g) for g in face_gens if any(g)]
    if not all(cone_contains(cone_gens, g) for g in face_gens):
        return False
    ineqs, eqs = cone_hrep(cone_gens, n)
    tight = [a for a in ineqs if all(dot(a, g) == 0 for g in face_gens)]
    smallest = cone_extreme_rays(ineqs, tuple(eqs) + tuple(tight), n)
    # face_gens may list redundant generators; compare extreme-ray sets.
    a_f, e_f = cone_hrep(face_gens, n)
    face_extreme = cone_extreme_rays(a_f, e_f, n)
    return tuple(sorted(smallest)) == tuple(sorted(face_extreme))


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
