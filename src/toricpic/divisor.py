"""Torus-invariant divisors and everything they generate.

Covers the class group as the cokernel of the ray-pairing map, Cartier
data, the Picard group as CDiv_T(X)/M with its index [Z^rays : CDiv_T(X)]
in the class group, the monic-monomial cocycle model of a line bundle on
the maximal-cone cover, divisor polytopes with exact rational vertices,
and basepoint-freeness.
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
    IntVector,
    _scan_box,
    cokernel,
    dot,
    integer_kernel,
    rational_rank,
    solve_integer_system,
    vec_add,
    vec_scale,
    vec_sub,
)
from .polyhedra import CACHE_SIZE, cone_extreme_rays, cone_hrep

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


@dataclass(frozen=True)
class ClassGroup:
    """Cl(X) presented as the cokernel of the ray-pairing map, with a
    projection from divisor coordinates to class coordinates."""

    presentation: AbelianGroupPresentation

    def project(self, divisor: TDivisor) -> GroupElement:
        return self.presentation.project(divisor.coeffs)

    def lift(self, elem: GroupElement) -> TDivisor:
        return TDivisor(self.presentation.lift(elem))


def class_group(fan: Fan) -> ClassGroup:
    """Cl(X) = Z^rays / div(M), where div(m) = (<m, u_rho>)_rho is the
    matrix of rays as rows.  Requires the rays to span N_R."""
    validate_fan(fan).require_valid()
    if rational_rank(fan.rays) != fan.rank:
        raise HypothesisError(
            "rays do not span N_R; the divisor sequence needs a torus-factor-free fan"
        )
    return ClassGroup(cokernel(fan.rays))


def cartier_witnesses(fan: Fan, divisor) -> tuple[IntVector, ...] | None:
    """Per-maximal-cone lattice points m_sigma with <m_sigma, u_rho> = -a_rho
    on the cone's rays, or None when some cone admits no integer solution."""
    d = as_divisor(fan, divisor)
    validate_fan(fan).require_valid()
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


@lru_cache(maxsize=CACHE_SIZE)
def _cartier_divisor_lattice(fan: Fan) -> tuple[IntVector, ...]:
    """Generators of the lattice CDiv_T(X) of Cartier divisors inside Z^rays,
    a basis when every maximal cone is full-dimensional.

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
    """Pic(X) off the exact sequence 0 -> M -> CDiv_T(X) -> Pic(X) -> 0
    (Cox–Little–Schenck, Thm 4.2.1), which holds on complete fans.

    With B a basis of CDiv_T(X), Pic(X) is Z^B modulo the B-coordinates of
    div(e_1), ..., div(e_n); principal divisors are Cartier, so they have
    such coordinates.  Cl(X)/Pic(X) = Z^rays/CDiv_T(X), so the index is
    [Z^rays : CDiv_T(X)], infinite when CDiv_T(X) has lower rank.
    """
    report = validate_fan(fan).require_valid()
    if not report.complete:
        raise HypothesisError("Picard group computation requires a complete fan")
    cl = class_group(fan)
    basis = _cartier_divisor_lattice(fan)
    columns = tuple(zip(*basis))  # one column per generator of CDiv_T(X)
    principal = [solve_integer_system(columns, u) for u in zip(*fan.rays)]
    pres = cokernel(tuple(zip(*principal)), ambient_rank=len(basis))
    quotient = cokernel(columns, ambient_rank=len(fan.rays))
    index = math.prod(quotient.invariant_factors) if quotient.free_rank == 0 else None
    gens = tuple(cl.presentation.project(v) for v in basis)
    return pres, PicardEmbedding(gens, index)


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
    ray of sigma_i ∩ sigma_j.  Raises InputError on violation.  The
    triples (0, j, k) suffice: they give m_jk = m_0k - m_0j, hence every
    identity, and come first in lexicographic order, so the first failing
    triple is one of them.
    """
    r = len(fan.max_cones)
    if alpha.num_cones != r or alpha.rank != fan.rank:
        raise InputError("cocycle shape does not match the fan")
    for j, k in combinations(range(1, r), 2):
        if vec_add(alpha.entry(0, j), alpha.entry(j, k)) != alpha.entry(0, k):
            raise InputError(f"cocycle identity fails on cones (0,{j},{k})")
    for i, j in combinations(range(r), 2):
        shared = set(fan.max_cones[i].ray_indices) & set(fan.max_cones[j].ray_indices)
        for ray_idx in shared:
            if dot(alpha.entry(i, j), fan.rays[ray_idx]) < 0:
                raise InputError(
                    f"entry m_({i},{j}) leaves the dual of the intersection cone"
                )


def cocycle_class_equal(fan: Fan, alpha: MonomialCocycle, beta: MonomialCocycle) -> bool:
    """Whether two monic-monomial cocycles define the same cohomology class.

    alpha - beta = d must be the coboundary of a 0-cochain of invertible
    monomials: m_i in M orthogonal to sigma_i with d_ij = m_i - m_j.  Then
    m_j = m_0 - d_0j, so this asks that d_0i + d_ij = d_0j for all i < j,
    and that one m_0 in M solves <m_0, u> = <d_0j, u> on every ray u of
    every sigma_j (d_00 = 0).  On complete fans every maximal cone is
    full-dimensional, and this reduces to exact equality of entries.
    """
    d = alpha.diff(beta)
    r = len(fan.max_cones)
    if any(vec_add(d.entry(0, i), d.entry(i, j)) != d.entry(0, j) for i, j in combinations(range(1, r), 2)):
        return False
    rows, rhs = [], []
    for j, cone in enumerate(fan.max_cones):
        for u in fan.ray_vectors(cone):
            rows.append(u)
            rhs.append(dot(d.entry(0, j), u))
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


def divisor_polytope(fan: Fan, divisor) -> DivisorPolytope:
    """Inequality representation plus vertex enumeration of P_D.

    Homogenization: P_D is the slice t = 1 of the cone
    K = {(m, t) : <m, u_rho> + a_rho t >= 0, t >= 0}.  When P_D is bounded,
    K meets t = 0 only at the origin, so K is pointed and each of its
    extreme rays (m, t) has t > 0 and gives the vertex m/t.  Unbounded P_D
    (rays fail to positively span, only possible on non-complete fans) is
    a structured error.
    """
    d = as_divisor(fan, divisor)
    n = fan.rank
    # {m : <m,u> >= 0 for all rays} = {0} iff the rays positively span N_R,
    # that is, iff their cone has no facet and no equation.
    if cone_hrep(fan.rays, n) != ((), ()):
        raise HypothesisError(
            "divisor polytope is unbounded: fan rays do not positively span N_R"
        )
    ineqs = tuple((u, -a) for u, a in zip(fan.rays, d.coeffs))
    rows = [(*u, a) for u, a in zip(fan.rays, d.coeffs)] + [(0,) * n + (1,)]
    rays = cone_extreme_rays(rows, (), n + 1)
    verts = tuple(sorted(tuple(Fraction(x, ray[n]) for x in ray[:n]) for ray in rays))
    # K is the cone over P_D, one dimension up; K = {0} when P_D is empty.
    return DivisorPolytope(ineqs, verts, rational_rank(rays) - 1)


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
