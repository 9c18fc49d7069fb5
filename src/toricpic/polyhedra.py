"""Exact polyhedral geometry over the rationals.

Cones are handled through both descriptions: generators (V-representation)
and inequality/equation normals (H-representation).  One routine,
`cone_hrep`, converts generators to facet normals by enumerating small
subsets and solving tiny exact linear systems; this is deliberate: fan
ranks are capped at 6 and generator counts stay in the tens, where subset
enumeration is cheap and easy to trust.  The other conversions are facet
lists of one cone (Ziegler, Lectures on Polytopes, 1.5 and 2.2): the
facets of a hull are those of the cone over the points lifted to height 1
(homogenization), and the extreme rays of a pointed cone are the facet
normals of its dual, which the inequality and equation normals generate.
The per-cone checks that validate a fan (strong convexity, irredundant
generators, one cone inside another) read the same facet list
(`fan.validate_fan`).  The common-face test of two cones needs no
conversion: it is a sign condition (Gordan's alternative), decided by one
test on the circuits of a few vectors.  Every kernel basis read here is
one of primitive integer vectors (`lattice.rational_kernel`), so these
routines compare integers only; a Fraction appears just in the
right-hand sides of hull facets.  Everything is deterministic: outputs
are sorted tuples of primitive integer vectors.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .lattice import content, dot, rational_kernel, rational_rank, scale_to_integer

Vec = tuple[int, ...]


# Entries kept by each per-fan cache, here and in fan, divisor and cohomology:
# a job touches one fan, so a small bound keeps a long-lived process from
# holding every fan it has seen.
CACHE_SIZE = 16


def _kernel(rows, n: int) -> list[Vec]:
    """Primitive integer kernel basis of the rows in Q^n; the unit vectors
    when there are none."""
    if not rows:
        return [tuple(int(i == j) for j in range(n)) for i in range(n)]
    return rational_kernel(rows)


def _positively_dependent(vecs) -> bool:
    """Whether sum lambda_i v_i = 0 for some nonzero lambda >= 0; the one
    test behind `meet_in_common_face`.

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
    # The vectors are the columns.  Each kernel basis vector is positive in
    # its free column, so it is one-signed iff it is nonnegative.
    rows = list(zip(*vecs))
    kernel = rational_kernel(rows)
    if len(kernel) <= 1:
        return any(min(k) >= 0 for k in kernel)
    for subset in combinations(range(len(vecs)), len(vecs) - len(kernel) + 1):
        kern = rational_kernel([[row[j] for j in subset] for row in rows])
        if len(kern) == 1 and min(kern[0]) >= 0:
            return True
    return False


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
    basis = _kernel(sorted(shared), n)
    vecs = [tuple(dot(k, g) for k in basis) for g in gens1 if g not in shared]
    vecs += [tuple(-dot(k, g) for k in basis) for g in gens2 if g not in shared]
    return not _positively_dependent(vecs)


@lru_cache(maxsize=CACHE_SIZE)
def _cone_hrep_cached(gens: tuple[Vec, ...], n: int):
    gens = [g for g in gens if any(g)]
    # Equations: integer basis of the orthogonal complement of span(gens).
    eqs = tuple(sorted(_kernel(gens, n)))
    if not gens:
        return (), eqs
    d = rational_rank(gens)
    # Every facet holds the lineality space, so it holds each generator whose
    # negation is a generator too: subsets are drawn from the others only.
    present = set(gens)
    lines = [g for g in gens if tuple(-x for x in g) in present]
    rest = [g for g in gens if tuple(-x for x in g) not in present]
    ineqs = set()
    for subset in combinations(rest, max(d - 1 - rational_rank(lines), 0)):
        kern = _kernel(lines + list(subset), n)
        if len(kern) != n - d + 1:
            continue  # the rows span less than a hyperplane of span(gens)
        # Candidates: kernel vectors not orthogonal to every generator.  All
        # such vectors agree on sign pattern up to a global flip, so the
        # first one decides.
        for a in kern:
            vals = [dot(a, g) for g in gens]
            if not any(vals):
                continue
            if min(vals) >= 0:
                ineqs.add(a)
            elif max(vals) <= 0:
                ineqs.add(tuple(-x for x in a))
            break
    return tuple(sorted(ineqs)), eqs


def cone_hrep(gens, n: int) -> tuple[tuple[Vec, ...], tuple[Vec, ...]]:
    """H-representation of cone(gens) in rank n.

    Returns (inequalities, equations): the cone is exactly
    {x : a.x >= 0 for all a in inequalities, e.x = 0 for all e in equations}.
    Normals are primitive integer vectors, sorted.  The inequalities are
    the facet normals: each vanishes on d - 1 linearly independent
    generators (d = dim cone) and is nonnegative on all of them.
    """
    return _cone_hrep_cached(tuple(sorted({tuple(g) for g in gens})), n)


def cone_extreme_rays(ineqs, eqs, n: int) -> tuple[Vec, ...]:
    """Extreme rays of the pointed cone C = {x : A x >= 0, E x = 0}, sorted.

    Duality: C is the dual of C* = cone(rows of A, E and -E), and the
    extreme rays of C are the facet normals of C*, read off `cone_hrep`.
    C* is full-dimensional exactly when C is pointed (rank of all normals
    = n); the cone must be pointed, otherwise rays are not well-defined and
    the result is meaningless.
    """
    eqs = [tuple(e) for e in eqs]
    gens = [tuple(a) for a in ineqs] + eqs + [tuple(-x for x in e) for e in eqs]
    return cone_hrep(gens, n)[0]


def _affine_row(row) -> tuple[Vec, Fraction]:
    """A lifted row (a0, a) read as (a / content(a), -a0 / content(a))."""
    g = content(row[1:])
    return tuple(x // g for x in row[1:]), Fraction(-row[0], g)


def hull_facets(points, n: int):
    """Facet description of conv(points) for rational points in rank n.

    Returns (facets, eqs) where facets is a sorted list of (normal, rhs)
    with the hull satisfying normal.x >= rhs, and eqs is a list of
    (normal, value) affine-hull equations normal.x = value.  Normals are
    primitive integer vectors.

    Homogenization: conv(points) is the slice x0 = 1 of the cone over the
    lifted points (1, p), and `cone_hrep` of that cone in rank n + 1 gives
    both lists.  A row (a0, a) reads a.x >= -a0 (or = -a0) on the slice,
    scaled by the content of a.  The row with a = 0 (x0 >= 0) is a facet
    only when the hull is a single point, and is dropped.  The equations
    come in the sorted order of their lifted rows.
    """
    lifted = {scale_to_integer((1, *p)) for p in points}
    if not lifted:
        raise ValueError("hull of an empty point set")
    ineqs, eqs = cone_hrep(lifted, n + 1)
    facets = sorted(_affine_row(a) for a in ineqs if any(a[1:]))
    return facets, [_affine_row(e) for e in eqs]
