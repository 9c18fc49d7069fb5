"""Torus-invariant divisors and everything they generate.

Covers the class group as the cokernel of the ray-pairing map, Cartier
data and the Picard subgroup, the monic-monomial cocycle model of a line
bundle on the maximal-cone cover, divisor polytopes with exact rational
vertices, and basepoint-freeness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations

from .errors import HypothesisError, InputError
from .fan import Fan, validate_fan
from .lattice import (
    AbelianGroupPresentation,
    GroupElement,
    IntMatrix,
    IntVector,
    _scan_box,
    cokernel,
    dot,
    integer_kernel,
    rational_rank,
    rational_solve,
    solve_integer_system,
    vec_scale,
    vec_sub,
)
from .polyhedra import CACHE_SIZE

QVector = tuple[Fraction, ...]


@dataclass(frozen=True)
class TDivisor:
    """A torus-invariant divisor: one integer coefficient per fan ray."""

    coeffs: IntVector

    def __add__(self, other: "TDivisor") -> "TDivisor":
        if len(self.coeffs) != len(other.coeffs):
            raise InputError("divisors live on different ray sets")
        return TDivisor(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "TDivisor":
        return TDivisor(tuple(-a for a in self.coeffs))

    def __rmul__(self, t: int) -> "TDivisor":
        return TDivisor(vec_scale(int(t), self.coeffs))


def as_divisor(fan: Fan, coeffs) -> TDivisor:
    if isinstance(coeffs, TDivisor):
        d = coeffs
    else:
        d = TDivisor(tuple(int(a) for a in coeffs))
    if len(d.coeffs) != len(fan.rays):
        raise InputError(
            f"divisor has {len(d.coeffs)} coefficients for a fan with {len(fan.rays)} rays"
        )
    return d


def principal_divisor(fan: Fan, m) -> TDivisor:
    """div(m): coefficient <m, u_rho> on each ray."""
    m = tuple(int(x) for x in m)
    if len(m) != fan.rank:
        raise InputError(f"lattice point has length {len(m)}, expected {fan.rank}")
    return TDivisor(tuple(dot(m, u) for u in fan.rays))


def div_map(fan: Fan) -> IntMatrix:
    """Matrix of m -> (<m, u_rho>)_rho: one row per ray."""
    return fan.rays  # rays are rows; pairing is the standard dot product


@dataclass(frozen=True)
class ClassGroup:
    """Cl(X) presented as the cokernel of the ray-pairing map, with a
    projection from divisor coordinates to class coordinates."""

    presentation: AbelianGroupPresentation
    div_map: IntMatrix

    def project(self, divisor: TDivisor) -> GroupElement:
        return self.presentation.project(divisor.coeffs)

    def lift(self, elem: GroupElement) -> TDivisor:
        return TDivisor(self.presentation.lift(elem))


def class_group(fan: Fan) -> ClassGroup:
    """Cl(X) = Z^rays / im(div_map).  Requires the rays to span N_R."""
    report = validate_fan(fan)
    if not report.valid:
        raise InputError(f"fan is not valid: {report.diagnostics}")
    a = div_map(fan)
    if rational_rank(a) != fan.rank:
        raise HypothesisError(
            "rays do not span N_R; the divisor sequence needs a torus-factor-free fan"
        )
    return ClassGroup(cokernel(a), a)


def cartier_witnesses(fan: Fan, divisor) -> tuple[IntVector, ...] | None:
    """Per-maximal-cone lattice points m_sigma with <m_sigma, u_rho> = -a_rho
    on the cone's rays, or None when some cone admits no integer solution."""
    d = as_divisor(fan, divisor)
    report = validate_fan(fan)
    if not report.valid:
        raise InputError(f"fan is not valid: {report.diagnostics}")
    if any(c.dim != fan.rank for c in fan.max_cones):
        raise HypothesisError("Cartier data needs full-dimensional maximal cones")
    witnesses = []
    for cone in fan.max_cones:
        rows = fan.ray_vectors(cone)
        rhs = tuple(-d.coeffs[i] for i in cone.ray_indices)
        m = solve_integer_system(rows, rhs)
        if m is None:
            return None
        witnesses.append(m)
    return tuple(witnesses)


def is_cartier(fan: Fan, divisor) -> bool:
    return cartier_witnesses(fan, divisor) is not None


def _cartier_divisor_lattice(fan: Fan) -> tuple[IntVector, ...]:
    """Generators of the lattice of Cartier divisors inside Z^rays.

    a is Cartier iff -a restricted to each maximal cone lies in the image
    of the cone's ray-pairing map; stacking those conditions and projecting
    the integer kernel onto the a-coordinates yields the lattice.
    """
    nrays = len(fan.rays)
    n = fan.rank
    cones = fan.max_cones
    width = nrays + n * len(cones)
    rows = []
    for ci, cone in enumerate(cones):
        for local, ray_idx in enumerate(cone.ray_indices):
            row = [0] * width
            row[ray_idx] = 1
            u = fan.rays[ray_idx]
            for j in range(n):
                row[nrays + n * ci + j] = u[j]
            rows.append(row)
    kernel = integer_kernel(rows)
    return tuple(v[:nrays] for v in kernel)


@dataclass(frozen=True)
class PicardEmbedding:
    """The Picard group as a subgroup of the class group: generators in
    class coordinates plus the index [Cl : Pic] when finite."""

    generators: tuple[GroupElement, ...]
    index: int | None


def picard_group(fan: Fan) -> AbelianGroupPresentation:
    """The subgroup of Cl(X) of Cartier classes, as an abstract group.

    Computed purely from the combinatorics of the fan: the signature has no
    field parameter.  For smooth fans this equals the class group.
    """
    pres, _ = _picard(fan)
    return pres


def picard_embedding(fan: Fan) -> PicardEmbedding:
    """How the Picard group sits inside the class group."""
    _, emb = _picard(fan)
    return emb


@lru_cache(maxsize=CACHE_SIZE)
def _picard(fan: Fan):
    report = validate_fan(fan)
    if not report.valid:
        raise InputError(f"fan is not valid: {report.diagnostics}")
    if not report.complete:
        raise HypothesisError("Picard group computation requires a complete fan")
    cl = class_group(fan)
    pres = cl.presentation
    gens = [pres.project(v) for v in _cartier_divisor_lattice(fan)]

    f = pres.free_rank
    t = len(pres.invariant_factors)
    coords = [list(g.free) + list(g.torsion) for g in gens]
    # Relations among the generators: integer combinations hitting zero in
    # Cl, i.e. zero on the free part and divisible on the torsion part.
    s = len(gens)
    width = s + t
    rows = []
    for i in range(f):
        rows.append([coords[j][i] for j in range(s)] + [0] * t)
    for i in range(t):
        rows.append(
            [coords[j][f + i] for j in range(s)]
            + [pres.invariant_factors[i] if k == i else 0 for k in range(t)]
        )
    if not rows:
        rows = [[0] * width]
    relations = [v[:s] for v in integer_kernel(rows)]
    relation_matrix = [[rel[i] for rel in relations] for i in range(s)] if relations else [[] for _ in range(s)]
    sub_pres = cokernel(relation_matrix, ambient_rank=s)

    # Index [Cl : Pic]: the quotient of Cl by the generated subgroup.
    ambient = f + t
    quot_cols = [list(g.free) + list(g.torsion) for g in gens]
    for i in range(t):
        quot_cols.append([0] * f + [pres.invariant_factors[i] if k == i else 0 for k in range(t)])
    quot_matrix = [[col[i] for col in quot_cols] for i in range(ambient)]
    quotient = cokernel(quot_matrix, ambient_rank=ambient)
    if quotient.free_rank == 0:
        index = 1
        for d in quotient.invariant_factors:
            index *= d
    else:
        index = None

    emb = PicardEmbedding(tuple(gens), index)
    return sub_pres, emb


# ---------------------------------------------------------------------------
# Monic monomial cocycles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonomialCocycle:
    """Gluing exponents of a line bundle on the maximal-cone cover.

    `entries[(i, j)]` for i < j is the exponent m_ij of the monic monomial
    transition from chart j to chart i; the other orientation is determined
    by antisymmetry.  Constants are deliberately absent: the cohomology
    class never depends on them.
    """

    num_cones: int
    rank: int
    entries: tuple[tuple[tuple[int, int], IntVector], ...]

    @cached_property
    def _table(self) -> dict[tuple[int, int], IntVector]:
        return dict(self.entries)

    def entry(self, i: int, j: int) -> IntVector:
        if i == j:
            return (0,) * self.rank
        if (i, j) in self._table:
            return self._table[(i, j)]
        return vec_scale(-1, self._table[(j, i)])

    def scaled(self, t: int) -> "MonomialCocycle":
        return MonomialCocycle(
            self.num_cones,
            self.rank,
            tuple((ij, vec_scale(t, m)) for ij, m in self.entries),
        )

    def diff(self, other: "MonomialCocycle") -> "MonomialCocycle":
        if (self.num_cones, self.rank) != (other.num_cones, other.rank):
            raise InputError("cocycles live on different covers")
        return MonomialCocycle(
            self.num_cones,
            self.rank,
            tuple((ij, vec_sub(m, other.entry(*ij))) for ij, m in self.entries),
        )


def _cocycle_from_witnesses(fan: Fan, witnesses) -> MonomialCocycle:
    r = len(fan.max_cones)
    entries = []
    for i, j in combinations(range(r), 2):
        entries.append(((i, j), vec_sub(witnesses[i], witnesses[j])))
    return MonomialCocycle(r, fan.rank, tuple(entries))


def divisor_to_cocycle(fan: Fan, divisor) -> MonomialCocycle:
    """The monic-monomial cocycle m_ij = m_sigma_i - m_sigma_j of a Cartier
    divisor.  Raises on non-Cartier input."""
    witnesses = cartier_witnesses(fan, divisor)
    if witnesses is None:
        raise HypothesisError("divisor is not Cartier; no cocycle exists")
    return _cocycle_from_witnesses(fan, witnesses)


def check_cocycle(fan: Fan, alpha: MonomialCocycle) -> None:
    """Assert the cocycle identity and dual-cone membership of every entry.

    m_ij + m_jk = m_ik for all triples, and each m_ij pairs >= 0 with every
    ray of sigma_i ∩ sigma_j.  Raises InputError on violation.
    """
    r = len(fan.max_cones)
    if alpha.num_cones != r or alpha.rank != fan.rank:
        raise InputError("cocycle shape does not match the fan")
    for i, j, k in combinations(range(r), 3):
        lhs = tuple(a + b for a, b in zip(alpha.entry(i, j), alpha.entry(j, k)))
        if lhs != alpha.entry(i, k):
            raise InputError(f"cocycle identity fails on cones ({i},{j},{k})")
    for i, j in combinations(range(r), 2):
        shared = set(fan.max_cones[i].ray_indices) & set(fan.max_cones[j].ray_indices)
        for ray_idx in shared:
            if dot(alpha.entry(i, j), fan.rays[ray_idx]) < 0:
                raise InputError(
                    f"entry m_({i},{j}) leaves the dual of the intersection cone"
                )


def cocycle_class_equal(fan: Fan, alpha: MonomialCocycle, beta: MonomialCocycle) -> bool:
    """Whether two monic-monomial cocycles define the same cohomology class.

    alpha - beta must be the coboundary of a 0-cochain of invertible
    monomials, i.e. there are m_i in M with m_i orthogonal to sigma_i and
    (alpha - beta)_ij = m_i - m_j.  On complete fans every maximal cone is
    full-dimensional, the orthogonal lattices vanish, and this degenerates
    to exact equality of entries.
    """
    d = alpha.diff(beta)
    r = len(fan.max_cones)
    n = fan.rank
    bases = []
    for cone in fan.max_cones:
        bases.append(integer_kernel(fan.ray_vectors(cone)) if cone.ray_indices else
                     tuple(tuple(1 if a == b else 0 for b in range(n)) for a in range(n)))
    offsets = [0]
    for b in bases:
        offsets.append(offsets[-1] + len(b))
    total = offsets[-1]
    if total == 0:
        return all(not any(m) for _, m in d.entries)
    rows = []
    rhs = []
    for i, j in combinations(range(r), 2):
        target = d.entry(i, j)
        for coord in range(n):
            row = [0] * total
            for t, vec in enumerate(bases[i]):
                row[offsets[i] + t] = vec[coord]
            for t, vec in enumerate(bases[j]):
                row[offsets[j] + t] = -vec[coord]
            rows.append(row)
            rhs.append(target[coord])
    return solve_integer_system(rows, rhs) is not None


def pullback_by_power_map(alpha: MonomialCocycle, t: int) -> MonomialCocycle:
    """Pullback along the t-th power map: every exponent is multiplied by t."""
    t = int(t)
    if t <= 0:
        raise InputError("power map exponent must be positive")
    return alpha.scaled(t)


# ---------------------------------------------------------------------------
# Divisor polytopes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DivisorPolytope:
    """P_D = {m : <m, u_rho> >= -a_rho for all rays}, with exact vertices.

    dim is -1 for the empty polytope.  `inequalities` are (normal, rhs)
    pairs meaning normal.m >= rhs.
    """

    inequalities: tuple[tuple[IntVector, int], ...]
    vertices: tuple[QVector, ...]
    dim: int

    def contains(self, m) -> bool:
        return all(dot(normal, m) >= rhs for normal, rhs in self.inequalities)


@lru_cache(maxsize=CACHE_SIZE)
def _recession_cone_is_zero(rays, n) -> bool:
    # {m : <m,u> >= 0 for all rays} = {0} iff the rays positively span N_R.
    if rational_rank(rays) < n:
        return False
    from .polyhedra import cone_extreme_rays

    return not cone_extreme_rays(rays, (), n)


def divisor_polytope(fan: Fan, divisor) -> DivisorPolytope:
    """Inequality representation plus vertex enumeration of P_D.

    Vertices are found by intersecting rank-n subsets of the inequality
    rows and filtering for feasibility; that is exhaustive for bounded
    polytopes.  Unbounded P_D (rays fail to positively span, only possible
    on non-complete fans) is a structured error.
    """
    d = as_divisor(fan, divisor)
    n = fan.rank
    if not _recession_cone_is_zero(tuple(tuple(u) for u in fan.rays), n):
        raise HypothesisError(
            "divisor polytope is unbounded: fan rays do not positively span N_R"
        )
    ineqs = tuple((u, -a) for u, a in zip(fan.rays, d.coeffs))
    vertices = set()
    for subset in combinations(range(len(ineqs)), n):
        rows = [fan.rays[i] for i in subset]
        if rational_rank(rows) != n:
            continue
        rhs = [ineqs[i][1] for i in subset]
        point = rational_solve(rows, rhs)
        if point is None:
            continue
        if all(dot(normal, point) >= r for normal, r in ineqs):
            vertices.add(tuple(point))
    verts = tuple(sorted(vertices))
    if not verts:
        return DivisorPolytope(ineqs, (), -1)
    v0 = verts[0]
    dirs = [tuple(a - b for a, b in zip(v, v0)) for v in verts[1:]]
    dim = rational_rank(dirs)
    return DivisorPolytope(ineqs, verts, dim)


def lattice_points(polytope: DivisorPolytope, interior_only: bool = False) -> list[IntVector]:
    """All lattice points of P (or of its relative interior).

    Box scan over the integer bounding box of the vertices.  For the
    relative interior, rows tight on every vertex (implicit equalities
    cutting out the affine hull) keep their equality; all other rows become
    strict, normal·m > rhs, which for integer m and rhs is normal·m >= rhs + 1.
    """
    verts = polytope.vertices
    if not verts:
        return []
    box = [
        (math.ceil(min(v[i] for v in verts)), math.floor(max(v[i] for v in verts)))
        for i in range(len(verts[0]))
    ]
    rows = polytope.inequalities
    if interior_only:
        rows = [
            (normal, rhs if all(dot(normal, v) == rhs for v in verts) else rhs + 1)
            for normal, rhs in rows
        ]
    return _scan_box(box, rows)


def is_basepoint_free(fan: Fan, divisor) -> bool:
    """Whether every Cartier witness m_sigma lies in P_D.

    Equivalent to global generation of O(D) for torus-invariant D.  Raises
    on non-Cartier input.
    """
    d = as_divisor(fan, divisor)
    witnesses = cartier_witnesses(fan, d)
    if witnesses is None:
        raise HypothesisError("basepoint-freeness is only defined for Cartier divisors")
    for m in witnesses:
        for u, a in zip(fan.rays, d.coeffs):
            if dot(m, u) < -a:
                return False
    return True
