"""The p-power-tower layer: Pic(X)[1/p] arithmetic and level-wise cohomology.

A line bundle on the perfectoid cover is modelled as a formal p^k-th root
of a line bundle on X: a class in Pic(X) together with a level k, kept in
a normal form where either k = 0 or the class is not divisible by p in
Pic(X).  Pic(X) is free on a complete fan, Pic(X) = Z^r, so the normal
form divides out p^v with v the p-adic valuation of the class's
coordinates, at most k times.  A bundle is admitted once, by
`from_divisor`: the fan is valid and complete, smooth unless the caller
assumes the trivialization, and D is Cartier.  The tower functions take
the bundle as admitted; the cohomology, basepoint-freeness and polytope
routines they call keep their own gates.  Its cohomology is the completed
colimit of the levels p^n·D along m -> p·m, represented finitely as the
exact dimensions and graded bases of levels 0..n_max.

The colimit rests on one scaling lemma: for t >= 1, <t·m, u> >= -t·a
holds exactly when <m, u> >= -a.  So (t·m, t·D) has the sign pattern of
(m, D), hence the same complex of negative cones (Cox–Little–Schenck,
Thm 9.1.3) and the same graded piece.  Three consequences are therefore
not re-checked here (tests/tower_oracle.py checks them): each level's
basis embeds in the next under m -> p·m with its multiplicities, the
interior points of p^n·P_D map into those of p^(n+1)·P_D, and t·D is
basepoint free exactly when D is.

Levels are computed from the top one down.  Level n's scan box has the
sides ceil(t·lo)-1..floor(t·hi)+1 with t = p^n, and p·t·[lo, hi] holds p
times every integer of t·[lo, hi], so the box never shrinks from one
level to the next: a tower too large to scan is refused at its top level,
before any level is computed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cohomology import CheckVerdict, cohomology
from .divisor import (
    TDivisor,
    _cartier_divisor_lattice,
    as_divisor,
    cartier_witnesses,
    class_group,
    divisor_polytope,
    is_basepoint_free,
    lattice_points,
    picard_group,
)
from .errors import HypothesisError, InputError
from .fan import Fan, validate_fan
from .lattice import GroupElement, content, is_prime, matvec, require_int, solve_integer_system

VANISHES = "vanishes"
STABILIZES = "stabilizes-to-basis"


def _require_perfectoid_fan(fan: Fan, assume_trivialization: bool) -> None:
    report = validate_fan(fan).require_valid()
    if not report.complete:
        raise HypothesisError("the perfectoid cover is defined for complete fans")
    if not report.smooth and not assume_trivialization:
        raise HypothesisError(
            "fan is not smooth; line bundles may fail to trivialize on the cover "
            "(pass assume_trivialization to proceed at your own risk)"
        )


@dataclass(frozen=True)
class PerfectoidBundle:
    """A formal p^level-th root of the line bundle with class `base_class`.

    Normal form: level = 0 or base_class not divisible by p in Pic(X).
    `representative` is a Cartier divisor, used whenever a polytope or a
    cohomology computation is needed, and base_class is its class in
    Cl(X).  Equality is on (fan, p, level, class); the representative is
    auxiliary.
    """

    fan: Fan
    p: int
    level: int
    base_class: GroupElement
    representative: TDivisor = field(compare=False)


def _normalized(fan: Fan, p: int, level: int, rep: TDivisor) -> PerfectoidBundle:
    """The root of level `level` of the Cartier divisor `rep`, in normal form.

    Pic(X) is free on a complete fan (Cox–Little–Schenck, Prop 4.2.5), so
    [rep] = p^v·c with c not divisible by p, v the p-adic valuation of the
    content of [rep]'s coordinates in Pic(X) = Z^r.  One solve in the
    Cartier lattice B gives rep's B-coordinates, and picard_group reads the
    class off them.  With k = min(level, v), and k = level for the class 0,
    the bundle is the root of level `level - k` of p^(v-k)·c, represented
    by the deterministic class-group lift of that class: every divisor of a
    class in Pic(X) is Cartier.  Every bundle is built here, so base_class
    is always the class of the representative.
    """
    cl = class_group(fan)
    if level:
        columns = tuple(zip(*_cartier_divisor_lattice(fan)))  # generators as columns
        pic = picard_group(fan)
        free = pic.project(solve_integer_system(columns, rep.coeffs)).free
        g, k = content(free), 0  # g = 0 for the class 0, so k = level
        while k < level and g % p ** (k + 1) == 0:
            k += 1
        if k:
            root = TDivisor(matvec(columns, pic.lift(pic.element([x // p**k for x in free]))))
            rep, level = cl.lift(cl.project(root)), level - k
    return PerfectoidBundle(fan, p, level, cl.project(rep), rep)


def from_divisor(fan: Fan, divisor, p: int, level: int, assume_trivialization: bool = False) -> PerfectoidBundle:
    """The bundle (class of D)^(1/p^level), normalized."""
    require_int(p, "p")
    require_int(level, "level")
    if not is_prime(p):
        raise InputError(f"p must be prime, got {p}")
    if level < 0:
        raise InputError("level must be non-negative")
    _require_perfectoid_fan(fan, assume_trivialization)
    d = as_divisor(fan, divisor)
    if cartier_witnesses(fan, d) is None:
        raise HypothesisError("divisor is not Cartier; it defines no line bundle")
    return _normalized(fan, p, level, d)


def _check_compatible(l1: PerfectoidBundle, l2: PerfectoidBundle) -> None:
    if l1.fan != l2.fan:
        raise InputError("bundles live on different fans")
    if l1.p != l2.p:
        raise InputError(f"bundles carry different primes: {l1.p} vs {l2.p}")


def tensor(l1: PerfectoidBundle, l2: PerfectoidBundle) -> PerfectoidBundle:
    """Common-denominator addition in Pic(X)[1/p]."""
    _check_compatible(l1, l2)
    fan, p = l1.fan, l1.p
    k = max(l1.level, l2.level)
    rep = p ** (k - l1.level) * l1.representative + p ** (k - l2.level) * l2.representative
    return _normalized(fan, p, k, rep)


def inverse(l: PerfectoidBundle) -> PerfectoidBundle:
    return _normalized(l.fan, l.p, l.level, -l.representative)


def trivial_bundle(fan: Fan, p: int, assume_trivialization: bool = False) -> PerfectoidBundle:
    return from_divisor(fan, (0,) * len(fan.rays), p, 0, assume_trivialization)


def frobenius_pullback(l: PerfectoidBundle) -> PerfectoidBundle:
    """Multiplication by p in Pic(X)[1/p]: drop a level, or multiply the
    class by p at level zero.  A group automorphism."""
    if l.level > 0:
        return _normalized(l.fan, l.p, l.level - 1, l.representative)
    return _normalized(l.fan, l.p, 0, l.p * l.representative)


def formal_root(l: PerfectoidBundle) -> PerfectoidBundle:
    """The formal p-th root: the inverse of frobenius_pullback."""
    return _normalized(l.fan, l.p, l.level + 1, l.representative)


@dataclass(frozen=True)
class PerfectoidPicard:
    """Pic of the cover: Pic(X) with p inverted.

    The free part becomes Z[1/p]^rank; prime-to-p torsion survives, p-power
    torsion dies.
    """

    p: int
    base_free_rank: int
    base_invariant_factors: tuple[int, ...]
    surviving_torsion: tuple[int, ...]

    def describe(self) -> str:
        parts = []
        zp = f"Z[1/{self.p}]"
        if self.base_free_rank == 1:
            parts.append(zp)
        elif self.base_free_rank > 1:
            parts.append(f"{zp}^{self.base_free_rank}")
        parts.extend(f"Z/{d}" for d in self.surviving_torsion)
        return " + ".join(parts) if parts else "0"


def strip_p_part(d: int, p: int) -> int:
    while d % p == 0:
        d //= p
    return d


def perfectoid_pic(fan: Fan, p: int, assume_trivialization: bool = False) -> PerfectoidPicard:
    """Pic(cover) = Pic(X) ⊗ Z[1/p], computed from the invariant factors."""
    require_int(p, "p")
    if not is_prime(p):
        raise InputError(f"p must be prime, got {p}")
    _require_perfectoid_fan(fan, assume_trivialization)
    pres = picard_group(fan)
    surviving = tuple(d for d in (strip_p_part(d, p) for d in pres.invariant_factors) if d > 1)
    return PerfectoidPicard(p, pres.free_rank, pres.invariant_factors, surviving)


@dataclass(frozen=True)
class LevelSeries:
    """dim H^i(X, M^{p^n}) for n = 0..n_max, with the colimit verdict.

    `bases[n]` lists the degrees (with multiplicity) carrying the level-n
    cohomology.  By the scaling lemma, (p·m, p^(n+1)·D) has the graded
    piece of (m, p^n·D), so each level's basis embeds in the next under
    m -> p·m, multiplicities included, and the completed colimit is the
    p-divisible hull of the level bases: the verdict is VANISHES when
    every level is zero and STABILIZES otherwise.
    """

    degree: int
    dims: tuple[int, ...]
    verdict: str
    bases: tuple[tuple[tuple[int, ...], ...], ...]


def _require_tower(n_max: int) -> None:
    require_int(n_max, "n_max")
    if n_max < 0:
        raise InputError("n_max must be non-negative")


def _top_down(n_max: int, level):
    """[level(0), ..., level(n_max)], computed from n_max down so that an
    oversized tower is refused at its top level first."""
    return [level(n) for n in range(n_max, -1, -1)][::-1]


def _level_tables(l: PerfectoidBundle, n_max: int) -> list:
    """The graded cohomology table of p^n·D for n = 0..n_max, one per level."""
    d = l.representative
    return _top_down(n_max, lambda n: cohomology(l.fan, (l.p ** n) * d, want_graded=True))


def _series(tables, degree: int) -> LevelSeries:
    """Read the level series of one cohomological degree off the level tables."""
    dims = tuple(table.dims[degree] for table in tables)
    bases = tuple(
        tuple(m for m, mult in table.graded[degree] for _ in range(mult)) for table in tables
    )
    return LevelSeries(degree, dims, STABILIZES if any(dims) else VANISHES, bases)


def cohomology_series(l: PerfectoidBundle, degree: int, n_max: int) -> LevelSeries:
    """Level-wise cohomology of the bundle: dims[n] = dim H^degree(X, p^n·D)."""
    _require_tower(n_max)
    require_int(degree, "degree")
    if not (0 <= degree <= l.fan.rank):
        raise InputError(f"cohomological degree must lie in 0..{l.fan.rank}")
    return _series(_level_tables(l, n_max), degree)


def polytope_dimension(l: PerfectoidBundle) -> int:
    """dim P_D for any divisor representative of the bundle; -1 when empty.

    Well-defined: replacing the representative by D + div(m) translates the
    polytope, replacing it by p^t·D scales it."""
    return divisor_polytope(l.fan, l.representative).dim


def perfectoid_demazure(l: PerfectoidBundle, n_max: int) -> CheckVerdict:
    """Globally generated bundles on the cover have no higher cohomology:
    every level series in degrees 1..rank must vanish.  Basepoint-freeness
    is tested on D alone, since t·D is basepoint free exactly when D is."""
    _require_tower(n_max)
    if not is_basepoint_free(l.fan, l.representative):
        return CheckVerdict("not-applicable", {"reason": "no basepoint-free representative"})
    tables = _level_tables(l, n_max)
    series = {}
    for i in range(1, l.fan.rank + 1):
        s = _series(tables, i)
        series[i] = s.dims
        if s.verdict != VANISHES:
            return CheckVerdict("fail", {"offending_degree": i, "dims": s.dims})
    return CheckVerdict("pass", {"series": series})


def perfectoid_batyrev_borisov(l: PerfectoidBundle, n_max: int) -> CheckVerdict:
    """Perfectoid Batyrev-Borisov: for the inverse bundle, all levels vanish
    outside degree d = dim P_D; in degree d the level-n basis is indexed by
    the interior lattice points of p^n·P_D.  Both sides are computed
    independently and compared level by level.  Returns the truncated
    p-divisible basis description."""
    _require_tower(n_max)
    fan, rep = l.fan, l.representative
    if not is_basepoint_free(fan, rep):
        return CheckVerdict("not-applicable", {"reason": "no basepoint-free representative"})
    d_dim = polytope_dimension(l)
    interiors = _top_down(
        n_max,
        lambda n: sorted(lattice_points(divisor_polytope(fan, (l.p ** n) * rep), interior_only=True)),
    )
    details = {
        "polytope_dim": d_dim,
        "level_basis_sizes": tuple(len(pts) for pts in interiors),
        "level_bases": tuple(tuple(pts) for pts in interiors),
    }
    # Independent route: the computed cohomology of the inverse bundle, level by level.
    tables = _level_tables(inverse(l), n_max)
    for i in range(fan.rank + 1):
        s = _series(tables, i)
        expected = details["level_basis_sizes"] if i == d_dim else (0,) * (n_max + 1)
        if s.dims != expected:
            details["offending_degree"] = i
            details["dims"] = s.dims
            return CheckVerdict("fail", details)
        for n, pts in enumerate(interiors if i == d_dim else ()):
            if sorted(s.bases[n]) != sorted(tuple(-x for x in m) for m in pts):
                details["offending_degree"] = i
                details["reason"] = f"level {n} basis degrees disagree with -Relint(p^n P_D)"
                return CheckVerdict("fail", details)
    return CheckVerdict("pass", details)
