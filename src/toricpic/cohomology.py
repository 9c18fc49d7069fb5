"""Exact line-bundle cohomology on complete simplicial fans.

H^i(X, O(D)) is computed degree by degree from the complex of negative
cones (Cox–Little–Schenck, Toric Varieties, Thm 9.1.3): in degree m,
H^p(X, O(D))_m is the reduced cohomology H~^(p-1) of V_{D,m}, and on a
simplicial fan V_{D,m} is the simplicial complex of the cones whose rays
u all satisfy <m, u> < -a.  Its cochains are at most the cones of the fan
plus the empty face, so the work per degree is polynomial in fan size.
The ±1 coboundaries are ranked exactly by the fraction-free elimination
kernel of `lattice` (over GF(p) as well, when a mod-p cross-check is
asked for).  Degrees are enumerated over a finite support region (convex
hull of the Cartier witnesses, which holds P_D, dilated by one in every
coordinate); degrees sharing a sign pattern share a complex, so each
pattern is ranked once.  The region's rational inequalities are cleared
once to integer rows with ceiling thresholds, which select the same
integer degrees, and its box is scanned by the interval scanner of
`lattice`, the one `divisor.lattice_points` uses too.  A box of more than
`lattice.SCAN_LIMIT` points is refused with InputError when the region is
built.  A degree's sign pattern is read off the rays as integer rows
(u, -a), with the scanner's own row test sum(u·m) >= -a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from operator import mul

from .divisor import (
    as_divisor,
    cartier_witnesses,
    divisor_polytope,
    is_basepoint_free,
    lattice_points,
)
from .errors import ConsistencyError, HypothesisError, InputError
from .fan import Fan, validate_fan
from .lattice import (
    IntVector,
    _scan_box,
    dot,
    is_prime,
    rank_mod_p,
    rational_rank,
    require_scannable,
)
from .polyhedra import CACHE_SIZE, hull_facets


def require_cohomology_fan(fan: Fan) -> None:
    report = validate_fan(fan).require_valid()
    if not report.complete:
        raise HypothesisError("cohomology requires a complete fan")
    for c in fan.max_cones:
        if len(c.ray_indices) != c.dim:
            raise HypothesisError("cohomology requires a simplicial fan")


def _require_prime(check_prime) -> None:
    if check_prime is None:
        return
    if type(check_prime) is not int or not is_prime(check_prime):
        raise InputError(f"--modp-check value {check_prime} is not prime")


@lru_cache(maxsize=CACHE_SIZE)
def _cones_by_size(fan: Fan) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Every cone of a simplicial fan as a sorted tuple of ray indices,
    grouped by size: entry s lists the cones with s rays, from the zero
    cone up to the maximal cones.  The cones are the faces of the maximal
    cones, that is, all subsets of their rays."""
    found: list[set[tuple[int, ...]]] = [set() for _ in range(fan.rank + 1)]
    for cone in fan.max_cones:
        for s in range(len(cone.ray_indices) + 1):
            found[s].update(combinations(cone.ray_indices, s))
    return tuple(tuple(sorted(cones)) for cones in found)


def _sign_rows(fan: Fan, coeffs) -> tuple[tuple[IntVector, int], ...]:
    """Each ray as the integer row (u, -a): <m, u> >= -a is its sign at m."""
    return tuple((u, -a) for u, a in zip(fan.rays, coeffs))


def _sign_pattern(rows, m) -> tuple[bool, ...]:
    return tuple(sum(map(mul, u, m)) >= t for u, t in rows)


def _dims(sizes, ranks) -> list[int]:
    """dim H^k = dim C^k - rank(d^k) - rank(d^(k-1)), with ranks[k] = rank(d^k)."""
    ranks = list(ranks) + [0]
    return [sizes[k] - ranks[k] - (ranks[k - 1] if k else 0) for k in range(len(sizes))]


def _pattern_dims(fan: Fan, pattern, check_prime=None) -> tuple[int, ...]:
    """Cohomology dimensions h^0..h^rank in the degrees of one sign pattern.

    The complex keeps the cones whose rays are all negative (False in the
    pattern), the zero cone included; it is closed under taking faces.  Its
    cones with s rays span the reduced cochains C~^(s-1), the zero cone
    giving the augmentation, so h^p = h~^(p-1) is entry p of the result.
    The coboundary of a cone drops one ray at a time with alternating
    signs.  Each coboundary is ranked once over Q and, with `check_prime`,
    once over GF(p).
    """
    present = [
        [cone for cone in cones if not any(pattern[i] for i in cone)]
        for cones in _cones_by_size(fan)
    ]
    boundaries = []
    for s in range(fan.rank):
        index = {cone: pos for pos, cone in enumerate(present[s])}
        rows = []
        for target in present[s + 1]:
            row = [0] * len(present[s])
            for drop in range(len(target)):
                row[index[target[:drop] + target[drop + 1 :]]] = -1 if drop % 2 else 1
            rows.append(row)
        boundaries.append(rows)

    sizes = [len(cones) for cones in present]
    dims = _dims(sizes, [rational_rank(b) if b else 0 for b in boundaries])
    if check_prime is not None:
        dims_mod = _dims(sizes, [rank_mod_p(b, check_prime) if b else 0 for b in boundaries])
        if dims_mod != dims:
            raise ConsistencyError(
                f"graded ranks differ between Q and GF({check_prime}): {dims} vs {dims_mod}"
            )
    return tuple(dims)


def graded_piece_cohomology(fan: Fan, divisor, m, check_prime=None) -> list[int]:
    """Dimensions of H^i(X, O(D)) in the single degree m, for i = 0..rank."""
    d = as_divisor(fan, divisor)
    require_cohomology_fan(fan)
    _require_prime(check_prime)
    m = tuple(int(x) for x in m)
    if len(m) != fan.rank:
        raise InputError(f"degree has length {len(m)}, expected {fan.rank}")
    return list(_pattern_dims(fan, _sign_pattern(_sign_rows(fan, d.coeffs), m), check_prime))


@dataclass(frozen=True)
class SupportRegion:
    """Finite region of M guaranteed to contain every degree with nonzero
    graded cohomology: hull of the Cartier witnesses, dilated by 1 in every
    coordinate (Minkowski sum with the unit cube).  The hull holds P_D: for
    m in P_D and u = sum lambda_rho u_rho (lambda >= 0) in a cone sigma,
    <m, u> >= sum lambda_rho (-a_rho) = <m_sigma, u>, and the cones cover N_R.

    `inequalities` are integer rows (normal, threshold) meaning
    normal·m >= threshold; each threshold is the ceiling of the rational
    right-hand side, which selects the same integer points m.
    """

    inequalities: tuple[tuple[IntVector, int], ...]
    box: tuple[tuple[int, int], ...]

    def contains(self, m) -> bool:
        """Whether the integer point m lies in the region."""
        return all(dot(normal, m) >= t for normal, t in self.inequalities)

    def points(self) -> list[IntVector]:
        return _scan_box(self.box, self.inequalities)


def support_region(fan: Fan, divisor) -> SupportRegion:
    d = as_divisor(fan, divisor)
    require_cohomology_fan(fan)
    witnesses = cartier_witnesses(fan, d)
    if witnesses is None:
        raise HypothesisError("support region needs a Cartier divisor")
    facets, eqs = hull_facets(witnesses, fan.rank)
    ineqs = []
    for normal, rhs in facets:
        ineqs.append((normal, math.ceil(rhs - sum(abs(c) for c in normal))))
    for normal, value in eqs:
        slack = sum(abs(c) for c in normal)
        ineqs.append((normal, math.ceil(value - slack)))
        ineqs.append((tuple(-c for c in normal), math.ceil(-value - slack)))
    box = tuple((min(c) - 1, max(c) + 1) for c in zip(*witnesses))
    require_scannable(box)
    return SupportRegion(tuple(ineqs), box)


@dataclass(frozen=True)
class CohomologyTable:
    """Total (and optionally graded) cohomology of O(D)."""

    dims: dict
    graded: dict | None

    def euler_characteristic(self) -> int:
        return sum((-1) ** i * v for i, v in self.dims.items())


def cohomology(fan: Fan, divisor, want_graded: bool = False, check_prime=None) -> CohomologyTable:
    """H^i(X, O(D)) for i = 0..rank, summed over the support region.

    One complex of negative cones is ranked per sign pattern; degrees
    sharing a pattern share the result.  With `check_prime`, every rank is
    recomputed modulo that prime and any disagreement raises.
    """
    d = as_divisor(fan, divisor)
    require_cohomology_fan(fan)
    _require_prime(check_prime)
    region = support_region(fan, d)
    n = fan.rank
    rows = _sign_rows(fan, d.coeffs)
    pattern_cache: dict[tuple[bool, ...], tuple[int, ...]] = {}
    dims = {i: 0 for i in range(n + 1)}
    graded: dict[int, list] = {i: [] for i in range(n + 1)} if want_graded else None
    for m in region.points():
        pattern = _sign_pattern(rows, m)
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
    actual = sorted(m for m, mult in table.graded[polytope.dim] for _ in range(mult))
    if actual != predicted:
        details["computed_degrees"] = tuple(actual)
        return CheckVerdict("fail", details)
    return CheckVerdict("pass", details)
