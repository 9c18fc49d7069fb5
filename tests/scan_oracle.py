"""Lattice points by rational membership tests, kept as a test oracle.

Every point of the box is tested against the rational inequalities in
`Fraction` arithmetic, with no denominators cleared and no threshold
rounded: a row (normal, rhs) holds at m when sum(c * x) >= rhs, or > rhs
for a strict row.  The support-region rows and box are rebuilt here with
rational right-hand sides from the hull of the Cartier witnesses and the
polytope vertices, as the region was defined; the vertices lie in the
witnesses' hull, which `toricpic` uses alone.  `toricpic` stores the rows
as integer thresholds and scans with integer sums only.
"""

import math
from fractions import Fraction
from itertools import product

from toricpic.cohomology import require_cohomology_fan
from toricpic.divisor import as_divisor, cartier_witnesses, divisor_polytope
from toricpic.polyhedra import hull_facets


def value(normal, m) -> Fraction:
    return sum(Fraction(c) * x for c, x in zip(normal, m))


def holds(normal, rhs, m, strict=False) -> bool:
    return value(normal, m) > rhs if strict else value(normal, m) >= rhs


def fraction_scan(box, rows, strict=()):
    """Integer points of the box meeting every rational row, in
    `itertools.product` order; rows whose index is in `strict` are strict."""
    points = product(*(range(lo, hi + 1) for lo, hi in box))
    return [
        m for m in points
        if all(holds(normal, rhs, m, k in strict) for k, (normal, rhs) in enumerate(rows))
    ]


def rational_support_rows(fan, divisor):
    """The support region's rows (normal, rhs) with rational rhs, as two
    lists: one row per facet of the hull, and a pair of opposite rows per
    equation of its affine hull, each moved out by the normal's l1 norm
    (the Minkowski sum with the unit cube)."""
    d = as_divisor(fan, divisor)
    require_cohomology_fan(fan)
    points = [tuple(Fraction(x) for x in w) for w in cartier_witnesses(fan, d)]
    points.extend(divisor_polytope(fan, d).vertices)
    facets, eqs = hull_facets(points, fan.rank)
    facet_rows = [(normal, rhs - sum(abs(c) for c in normal)) for normal, rhs in facets]
    equation_rows = []
    for normal, value in eqs:
        slack = sum(abs(c) for c in normal)
        equation_rows.append((normal, value - slack))
        equation_rows.append((tuple(-c for c in normal), -value - slack))
    return facet_rows, equation_rows


def support_box(fan, divisor):
    """The integer box around the Cartier witnesses and the polytope
    vertices, dilated by one in each coordinate."""
    d = as_divisor(fan, divisor)
    points = [*cartier_witnesses(fan, d), *divisor_polytope(fan, d).vertices]
    return tuple(
        (math.ceil(min(p[i] for p in points)) - 1, math.floor(max(p[i] for p in points)) + 1)
        for i in range(fan.rank)
    )


def polytope_lattice_points(polytope, interior_only=False):
    """Lattice points of P, or of its relative interior: there every row
    that is not tight on all vertices (an implicit equality) is strict."""
    verts = polytope.vertices
    if not verts:
        return []
    n = len(verts[0])
    box = [(math.ceil(min(v[i] for v in verts)), math.floor(max(v[i] for v in verts))) for i in range(n)]
    rows = polytope.inequalities
    strict = ()
    if interior_only:
        strict = {
            k for k, (normal, rhs) in enumerate(rows)
            if not all(value(normal, v) == rhs for v in verts)
        }
    return fraction_scan(box, rows, strict)
