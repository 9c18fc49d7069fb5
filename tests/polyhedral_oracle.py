"""Slow, independent cone predicates that the tests compare the library against.

These are the brute-force routes: intersections through H-representations
and extreme-ray enumeration, and membership through every linearly
independent subset of the generators.  They share no logic with
`polyhedra.meet_in_common_face`, `polyhedra.cone_contains` or
`polyhedra.is_pointed`.
"""

from itertools import combinations

from toricpic.lattice import dot, rational_rank, rational_solve
from toricpic.polyhedra import cone_extreme_rays, cone_hrep


def caratheodory_contains(gens, x) -> bool:
    """x in cone(gens), trying every linearly independent subset of every size."""
    gens = [tuple(g) for g in gens]
    if all(v == 0 for v in x):
        return True
    if not gens:
        return False
    n = len(gens[0])
    for k in range(1, rational_rank(gens) + 1):
        for subset in combinations(gens, k):
            if rational_rank(subset) != k:
                continue
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
    return cone_extreme_rays(ineqs, eqs, n)


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
    smallest = cone_extreme_rays(ineqs, tuple(eqs) + tuple(tight), n)
    a_f, e_f = cone_hrep(face_gens, n)
    return sorted(smallest) == sorted(cone_extreme_rays(a_f, e_f, n))


def meet_in_common_face(gens1, gens2, n: int) -> bool:
    """Whether the polyhedral intersection of the two cones is a face of both."""
    meet = cone_intersection_rays(gens1, gens2, n)
    return is_face_of(meet, gens1, n) and is_face_of(meet, gens2, n)
