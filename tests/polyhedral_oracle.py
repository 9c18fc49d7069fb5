"""Slow, independent cone predicates that the tests compare the library against.

These are the brute-force routes: intersections through H-representations
and extreme-ray enumeration, and membership through every linearly
independent subset of the generators.  They share no logic with
`polyhedra.meet_in_common_face` or with the readings of one cone's facet
list that `fan.validate_fan` makes (pointedness, redundant generators,
one cone inside another).

The subset routes below each search subsets of their own rows for the
answer, where the library reads all three off `polyhedra.cone_hrep` of one
cone: extreme rays from tight rank-(n - 1) subsets of the inequalities,
hull facets from affinely independent d-subsets of the points, and
polytope vertices from rank-n subsets of the rows that satisfy every row.

`dual_graph_completeness` is the completeness test that `fan._completeness`
replaced: the same facet pairing, followed by a walk of the dual graph
that the library proves redundant on valid fans.  `reference_report`
validates a fan from these predicates and the definitions alone.
"""

import math
from fractions import Fraction
from itertools import combinations

from toricpic.fan import FanReport
from toricpic.lattice import det, dot, rational_kernel, rational_rank, rational_solve, scale_to_integer
from toricpic.polyhedra import cone_hrep


def kernel(rows, n: int):
    """Rational kernel basis of the rows in Q^n; all of Q^n when there are none."""
    if not rows:
        return [tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)]
    return rational_kernel(rows)


def subset_extreme_rays(ineqs, eqs, n: int):
    """Extreme rays of the pointed cone {x : A x >= 0, E x = 0}, sorted.

    An extreme ray is cut out by the equations plus tight inequalities of
    rank n - 1, so every subset of the inequalities of the right size is
    tried.
    """
    ineqs = [tuple(a) for a in ineqs]
    eqs = [tuple(e) for e in eqs]
    need = n - 1 - rational_rank(eqs)
    if need < 0:
        return ()
    rays = set()
    for subset in combinations(ineqs, need):
        kern = kernel(eqs + list(subset), n)
        if len(kern) != 1:
            continue
        v = scale_to_integer(kern[0])
        for w in (v, tuple(-x for x in v)):
            if all(dot(a, w) >= 0 for a in ineqs):
                rays.add(w)
    return tuple(sorted(rays))


def subset_hull_facets(points, n: int):
    """(facets, eqs) of conv(points), as `polyhedra.hull_facets` returns them.

    Facets are tried on every d-subset of the points (d the affine
    dimension): a normal to the subset's affine span that is one-signed on
    all points.  Equations come in the order of the kernel basis.
    """
    pts = sorted({tuple(Fraction(c) for c in p) for p in points})
    p0 = pts[0]
    dirs = [tuple(a - b for a, b in zip(p, p0)) for p in pts[1:]]
    d = rational_rank(dirs)
    eqs = []
    for normal in kernel(dirs, n):
        nn = scale_to_integer(normal)
        eqs.append((nn, sum(Fraction(a) * b for a, b in zip(nn, p0))))
    facets = {}
    if d == 0:
        return [], eqs
    for subset in combinations(pts, d):
        s0 = subset[0]
        rows = [[a - b for a, b in zip(p, s0)] for p in subset[1:]]
        if rational_rank(rows) != d - 1:
            continue
        for cand in kernel(rows, n):
            vals = [sum(c * (a - b) for c, a, b in zip(cand, p, s0)) for p in pts]
            if all(v == 0 for v in vals):
                continue
            if all(v >= 0 for v in vals):
                nn = scale_to_integer(cand)
            elif all(v <= 0 for v in vals):
                nn = scale_to_integer([-c for c in cand])
            else:
                break
            facets[nn] = sum(Fraction(a) * b for a, b in zip(nn, s0))
            break
    return sorted(facets.items()), eqs


def subset_polytope_vertices(rays, coeffs):
    """Sorted vertices of the bounded P_D = {m : <m, u> >= -a}: the solutions
    of rank-n subsets of the rows that satisfy every row."""
    n = len(rays[0])
    vertices = set()
    for subset in combinations(range(len(rays)), n):
        rows = [rays[i] for i in subset]
        if rational_rank(rows) != n:
            continue
        point = rational_solve(rows, [-coeffs[i] for i in subset])
        if all(dot(u, point) >= -a for u, a in zip(rays, coeffs)):
            vertices.add(tuple(point))
    return tuple(sorted(vertices))


def caratheodory_contains(gens, x) -> bool:
    """x in cone(gens), trying every subset of rank(gens) generators.

    Caratheodory: x in cone(gens) is a nonnegative combination of linearly
    independent generators, which extend by generators to a basis of
    span(gens); on that basis the combination is the unique solution.
    """
    gens = [tuple(g) for g in gens]
    if all(v == 0 for v in x):
        return True
    if not gens:
        return False
    n = len(gens[0])
    for subset in combinations(gens, rational_rank(gens)):
        coeffs = rational_solve([[g[i] for g in subset] for i in range(n)], x)
        if coeffs is not None and all(c >= 0 for c in coeffs):
            return True
    return False


def has_line(gens) -> bool:
    """cone(gens) contains a line iff -g lies in cone(gens) for a nonzero generator g."""
    return any(any(g) and caratheodory_contains(gens, tuple(-v for v in g)) for g in gens)


def cone_intersection_rays(gens1, gens2, n: int):
    """Extreme rays of cone(gens1) ∩ cone(gens2), from the joined H-representations."""
    a1, e1 = cone_hrep(gens1, n)
    a2, e2 = cone_hrep(gens2, n)
    ineqs = tuple(sorted(set(a1) | set(a2)))
    eqs = tuple(sorted(set(e1) | set(e2)))
    return subset_extreme_rays(ineqs, eqs, n)


def is_face_of(face_gens, cone_gens, n: int) -> bool:
    """Whether cone(face_gens) is a face of cone(cone_gens).

    The smallest face containing a set K makes tight every inequality that
    vanishes on K; K spans a face iff it spans that smallest face.  Both
    sides are compared through their primitive extreme-ray sets.
    """
    face_gens = [tuple(g) for g in face_gens if any(g)]
    if not all(caratheodory_contains(cone_gens, g) for g in face_gens):
        return False
    ineqs, eqs = cone_hrep(cone_gens, n)
    tight = [a for a in ineqs if all(dot(a, g) == 0 for g in face_gens)]
    smallest = subset_extreme_rays(ineqs, tuple(eqs) + tuple(tight), n)
    a_f, e_f = cone_hrep(face_gens, n)
    return sorted(smallest) == sorted(subset_extreme_rays(a_f, e_f, n))


def meet_in_common_face(gens1, gens2, n: int) -> bool:
    """Whether the polyhedral intersection of the two cones is a face of both."""
    meet = cone_intersection_rays(gens1, gens2, n)
    return is_face_of(meet, gens1, n) and is_face_of(meet, gens2, n)


def dual_graph_completeness(fan):
    """(complete, diagnostic) of a valid fan: pure, every facet of a maximal
    cone in exactly two maximal cones, and the dual graph connected."""
    n = fan.rank
    for c in fan.max_cones:
        if c.dim != n:
            return False, f"maximal cone {list(c.ray_indices)} is not full-dimensional; completeness test requires a pure fan"
    facet_incidence = {}
    for ci, c in enumerate(fan.max_cones):
        ineqs, _ = cone_hrep(fan.ray_vectors(c), n)
        for a in ineqs:
            key = frozenset(i for i in c.ray_indices if dot(a, fan.rays[i]) == 0)
            facet_incidence.setdefault(key, []).append(ci)
    if any(len(cones) != 2 for cones in facet_incidence.values()):
        return False, None
    adj = {i: set() for i in range(len(fan.max_cones))}
    for first, second in facet_incidence.values():
        adj[first].add(second)
        adj[second].add(first)
    seen = {0}
    stack = [0]
    while stack:
        for j in adj[stack.pop()]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == len(fan.max_cones), None


def is_unimodular(gens) -> bool:
    """Whether the k generators extend to a basis of Z^n: their k x k minors
    have gcd 1."""
    n = len(gens[0]) if gens else 0
    minors = [det([[g[i] for i in cols] for g in gens]) for cols in combinations(range(n), len(gens))]
    return math.gcd(*minors) == 1


def reference_report(fan) -> FanReport:
    """The `FanReport` of a fan from the definitions: every ray used, every
    maximal cone free of lines with no generator in the cone of the others,
    no maximal cone inside another, and every pairwise intersection a face
    of both.  Diagnostics name the first violation of each kind, in the
    order `fan.validate_fan` checks them."""
    n = fan.rank
    diags = []
    unused = sorted(set(range(len(fan.rays))) - {i for c in fan.max_cones for i in c.ray_indices})
    if unused:
        diags.append(f"ray {unused[0]} belongs to no maximal cone")
    for c in fan.max_cones:
        gens = fan.ray_vectors(c)
        if has_line(gens):
            diags.append(f"cone {list(c.ray_indices)} contains a line through the origin")
            break
        redundant = [i for t, i in enumerate(c.ray_indices) if caratheodory_contains(gens[:t] + gens[t + 1:], gens[t])]
        if redundant:
            diags.append(f"ray {redundant[0]} is redundant in cone {list(c.ray_indices)}")
            break
    if not diags:
        for a, b in combinations(fan.max_cones, 2):
            ga, gb = fan.ray_vectors(a), fan.ray_vectors(b)
            if all(caratheodory_contains(gb, g) for g in ga) or all(caratheodory_contains(ga, g) for g in gb):
                diags.append(f"maximal cone {list(a.ray_indices)} and {list(b.ray_indices)}: one contains the other")
                break
            if not meet_in_common_face(ga, gb, n):
                diags.append(f"intersection of cones {list(a.ray_indices)} and {list(b.ray_indices)} is not a common face")
                break
    valid = not diags
    smooth = valid and all(is_unimodular(fan.ray_vectors(c)) for c in fan.max_cones)
    complete = False
    if valid:
        complete, diag = dual_graph_completeness(fan)
        if diag:
            diags.append(diag)
    return FanReport(valid, smooth, complete, tuple(diags))
