"""Exact line-bundle cohomology on complete simplicial fans.

H^i(X, O(D)) is computed degree by degree through the M-graded Čech
complex over the maximal-cone cover: the degree-m piece keeps exactly the
chart tuples on whose intersection chi^m is a section, and its cohomology
is computed from exact ranks of the ±1 boundary matrices, taken by the
fraction-free elimination kernel of `lattice` (over GF(p) as well, when a
mod-p cross-check is asked for).  Degrees are enumerated over a
finite support region (convex hull of the Cartier witnesses and the
polytope vertices, dilated by one in every coordinate); degrees sharing a
sign pattern share a complex, so each pattern is ranked once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

from .divisor import (
    as_divisor,
    cartier_witnesses,
    divisor_polytope,
    is_basepoint_free,
    lattice_points,
)
from .errors import ConsistencyError, HypothesisError, InputError
from .fan import Fan, validate_fan
from .lattice import IntVector, dot, is_prime, rank_mod_p, rational_rank
from .polyhedra import CACHE_SIZE, hull_facets


def require_cohomology_fan(fan: Fan) -> None:
    report = validate_fan(fan)
    if not report.valid:
        raise InputError(f"fan is not valid: {report.diagnostics}")
    if not report.complete:
        raise HypothesisError("cohomology requires a complete fan")
    for c in fan.max_cones:
        if len(c.ray_indices) != c.dim:
            raise HypothesisError("cohomology requires a simplicial fan")


@lru_cache(maxsize=CACHE_SIZE)
def _cover_subsets(fan: Fan):
    """All nonempty tuples of maximal-cone indices together with the ray set
    of the corresponding intersection (valid fans: shared rays)."""
    r = len(fan.max_cones)
    out = []
    for k in range(1, r + 1):
        for subset in combinations(range(r), k):
            rays = set(fan.max_cones[subset[0]].ray_indices)
            for i in subset[1:]:
                rays &= set(fan.max_cones[i].ray_indices)
            out.append((subset, tuple(sorted(rays))))
    return tuple(out)


def _sign_pattern(fan: Fan, coeffs, m) -> tuple[bool, ...]:
    return tuple(dot(m, u) >= -a for u, a in zip(fan.rays, coeffs))


def support_complex(fan: Fan, divisor, m) -> list[tuple[int, ...]]:
    """Chart tuples I with chi^m a section of O(D) on the intersection U_I.

    Membership of a tuple asks the polytope inequalities only on the rays
    of the intersection cone, so the family is upward closed: once a tuple
    is present, every larger tuple is present as well.
    """
    d = as_divisor(fan, divisor)
    require_cohomology_fan(fan)
    m = tuple(int(x) for x in m)
    pattern = _sign_pattern(fan, d.coeffs, m)
    return [
        subset
        for subset, rays in _cover_subsets(fan)
        if all(pattern[i] for i in rays)
    ]


def _dims(sizes, ranks) -> list[int]:
    """dim H^k = dim C^k - rank(d^k) - rank(d^(k-1)), with ranks[k] = rank(d^k)."""
    ranks = list(ranks) + [0]
    return [sizes[k] - ranks[k] - (ranks[k - 1] if k else 0) for k in range(len(sizes))]


def _pattern_dims(fan: Fan, pattern, check_prime=None) -> tuple[int, ...]:
    """Cohomology dimensions of the Čech complex attached to a sign pattern.

    C^k is spanned by the present (k+1)-tuples; the differential is the
    standard alternating sum over dropped indices (absent sub-tuples
    contribute nothing, which is consistent because presence is upward
    closed).  Each boundary is ranked once over Q and, with `check_prime`,
    once over GF(p).  Returns a tuple of length rank+1; degrees beyond the
    fan rank must vanish and are checked, not trusted.
    """
    r = len(fan.max_cones)
    present: list[list[tuple[int, ...]]] = [[] for _ in range(r)]
    for subset, rays in _cover_subsets(fan):
        if all(pattern[i] for i in rays):
            present[len(subset) - 1].append(subset)
    index = {subset: pos for tuples in present for pos, subset in enumerate(tuples)}
    sizes = [len(tuples) for tuples in present]
    boundaries = []
    for k in range(r - 1):
        rows = []
        for target in present[k + 1]:
            row = [0] * sizes[k]
            for drop in range(len(target)):
                pos = index.get(target[:drop] + target[drop + 1 :])
                if pos is not None:
                    row[pos] = -1 if drop % 2 else 1
            rows.append(row)
        boundaries.append(rows)

    dims = _dims(sizes, [rational_rank(b) if b else 0 for b in boundaries])
    if check_prime is not None:
        dims_mod = _dims(sizes, [rank_mod_p(b, check_prime) if b else 0 for b in boundaries])
        if dims_mod != dims:
            raise ConsistencyError(
                f"graded Čech ranks differ between Q and GF({check_prime}): {dims} vs {dims_mod}"
            )

    n = fan.rank
    if any(dims[k] for k in range(n + 1, r)):
        raise ConsistencyError(f"nonzero cohomology above the fan rank: {dims}")
    dims = dims[: n + 1] + [0] * max(0, n + 1 - r)
    return tuple(dims)


def graded_piece_cohomology(fan: Fan, divisor, m, check_prime=None) -> list[int]:
    """Dimensions of H^i(X, O(D)) in the single degree m, for i = 0..rank."""
    d = as_divisor(fan, divisor)
    require_cohomology_fan(fan)
    m = tuple(int(x) for x in m)
    if len(m) != fan.rank:
        raise InputError(f"degree has length {len(m)}, expected {fan.rank}")
    return list(_pattern_dims(fan, _sign_pattern(fan, d.coeffs, m), check_prime))


@dataclass(frozen=True)
class SupportRegion:
    """Finite region of M guaranteed to contain every degree with nonzero
    graded cohomology: hull of Cartier witnesses and polytope vertices,
    dilated by 1 in every coordinate (Minkowski sum with the unit cube)."""

    inequalities: tuple[tuple[IntVector, Fraction], ...]
    box: tuple[tuple[int, int], ...]

    def contains(self, m) -> bool:
        return all(
            sum(Fraction(c) * x for c, x in zip(normal, m)) >= rhs
            for normal, rhs in self.inequalities
        )

    def points(self) -> list[IntVector]:
        box = product(*(range(lo, hi + 1) for lo, hi in self.box))
        return [m for m in box if self.contains(m)]


def support_region(fan: Fan, divisor) -> SupportRegion:
    d = as_divisor(fan, divisor)
    require_cohomology_fan(fan)
    witnesses = cartier_witnesses(fan, d)
    if witnesses is None:
        raise HypothesisError("support region needs a Cartier divisor")
    points = [tuple(Fraction(x) for x in w) for w in witnesses]
    points.extend(divisor_polytope(fan, d).vertices)
    n = fan.rank
    facets, eqs = hull_facets(points, n)
    ineqs = []
    for normal, rhs in facets:
        ineqs.append((normal, rhs - sum(abs(c) for c in normal)))
    for normal, value in eqs:
        slack = sum(abs(c) for c in normal)
        ineqs.append((normal, value - slack))
        ineqs.append((tuple(-c for c in normal), -value - slack))
    box = []
    for i in range(n):
        lo = min(p[i] for p in points)
        hi = max(p[i] for p in points)
        box.append((math.ceil(lo) - 1, math.floor(hi) + 1))
    return SupportRegion(tuple(ineqs), tuple(box))


@dataclass(frozen=True)
class CohomologyTable:
    """Total (and optionally graded) cohomology of O(D)."""

    dims: dict
    graded: dict | None

    def euler_characteristic(self) -> int:
        return sum((-1) ** i * v for i, v in self.dims.items())


def cohomology(fan: Fan, divisor, want_graded: bool = False, check_prime=None) -> CohomologyTable:
    """H^i(X, O(D)) for i = 0..rank, summed over the support region.

    One Čech complex is ranked per sign pattern; degrees sharing a pattern
    share the result.  With `check_prime`, every rank is recomputed modulo
    that prime and any disagreement raises.
    """
    d = as_divisor(fan, divisor)
    require_cohomology_fan(fan)
    if check_prime is not None and not is_prime(int(check_prime)):
        raise InputError(f"--modp-check value {check_prime} is not prime")
    region = support_region(fan, d)
    n = fan.rank
    pattern_cache: dict[tuple[bool, ...], tuple[int, ...]] = {}
    dims = {i: 0 for i in range(n + 1)}
    graded: dict[int, list] = {i: [] for i in range(n + 1)} if want_graded else None
    for m in region.points():
        pattern = _sign_pattern(fan, d.coeffs, m)
        piece = pattern_cache.get(pattern)
        if piece is None:
            piece = _pattern_dims(fan, pattern, check_prime)
            pattern_cache[pattern] = piece
        for i in range(n + 1):
            if piece[i]:
                dims[i] += piece[i]
                if graded is not None:
                    graded[i].append((m, piece[i]))
    if graded is not None:
        graded_out = {i: tuple(sorted(graded[i])) for i in range(n + 1)}
    else:
        graded_out = None
    return CohomologyTable(dims, graded_out)


@dataclass(frozen=True)
class CheckVerdict:
    """Outcome of a vanishing-theorem check: pass, fail, or not-applicable."""

    status: str  # "pass" | "fail" | "not-applicable"
    details: dict

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def demazure_vanishing_check(fan: Fan, divisor) -> CheckVerdict:
    """Basepoint-free Cartier divisors have no higher cohomology."""
    d = as_divisor(fan, divisor)
    require_cohomology_fan(fan)
    if cartier_witnesses(fan, d) is None:
        return CheckVerdict("not-applicable", {"reason": "divisor is not Cartier"})
    if not is_basepoint_free(fan, d):
        return CheckVerdict("not-applicable", {"reason": "divisor is not basepoint free"})
    table = cohomology(fan, d)
    for i in range(1, fan.rank + 1):
        if table.dims[i]:
            return CheckVerdict(
                "fail", {"offending_degree": i, "dimension": table.dims[i], "dims": table.dims}
            )
    return CheckVerdict("pass", {"dims": table.dims})


def batyrev_borisov_check(fan: Fan, divisor) -> CheckVerdict:
    """For basepoint-free D: H^i(X, O(-D)) vanishes except in degree
    dim P_D, where a basis is indexed by -(interior lattice points of P_D).
    Both sides are computed independently and compared exactly."""
    d = as_divisor(fan, divisor)
    require_cohomology_fan(fan)
    if cartier_witnesses(fan, d) is None:
        return CheckVerdict("not-applicable", {"reason": "divisor is not Cartier"})
    if not is_basepoint_free(fan, d):
        return CheckVerdict("not-applicable", {"reason": "divisor is not basepoint free"})
    polytope = divisor_polytope(fan, d)
    interior = lattice_points(polytope, interior_only=True)
    predicted = sorted(tuple(-x for x in m) for m in interior)
    table = cohomology(fan, -d, want_graded=True)
    details = {
        "polytope_dim": polytope.dim,
        "interior_count": len(interior),
        "basis_degrees": tuple(predicted),
        "dims": table.dims,
    }
    for i in range(fan.rank + 1):
        if i != polytope.dim and table.dims[i]:
            details["offending_degree"] = i
            return CheckVerdict("fail", details)
    if polytope.dim >= 0:
        actual = sorted(m for m, mult in table.graded[polytope.dim] for _ in range(mult))
        if actual != predicted:
            details["computed_degrees"] = tuple(actual)
            return CheckVerdict("fail", details)
    return CheckVerdict("pass", details)
