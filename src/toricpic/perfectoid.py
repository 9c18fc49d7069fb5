"""The p-power-tower layer: Pic(X)[1/p] arithmetic and level-wise cohomology.

A line bundle on the perfectoid cover is modelled as a formal p^k-th root
of a line bundle on X: a class in Pic(X) together with a level k, kept in
a normal form where either k = 0 or the class is not divisible by p.  Its
cohomology is the completed colimit of the level-wise groups, represented
finitely as a series of exact dimensions plus the basis-embedding data.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .cohomology import CheckVerdict, cohomology
from .divisor import (
    ClassGroup,
    TDivisor,
    as_divisor,
    cartier_witnesses,
    class_group,
    divisor_polytope,
    is_basepoint_free,
    lattice_points,
    picard_group,
)
from .errors import ConsistencyError, HypothesisError, InputError
from .fan import Fan, validate_fan
from .lattice import GroupElement, is_prime

VANISHES = "vanishes"
STABILIZES = "stabilizes-to-basis"
GROWING = "growing"


def _require_perfectoid_fan(fan: Fan, assume_trivialization: bool) -> None:
    report = validate_fan(fan)
    if not report.valid:
        raise InputError(f"fan is not valid: {report.diagnostics}")
    if not report.complete:
        raise HypothesisError("the perfectoid cover is defined for complete fans")
    if not report.smooth and not assume_trivialization:
        raise HypothesisError(
            "fan is not smooth; line bundles may fail to trivialize on the cover "
            "(pass assume_trivialization to proceed at your own risk)"
        )


def _divide_class_by_p(cl: ClassGroup, elem: GroupElement, p: int) -> GroupElement | None:
    """Solve p·x = elem in the class group, or None.

    Free coordinates divide exactly or fail; a torsion coordinate c mod d is
    divisible iff gcd(p, d) divides c, and the smallest non-negative
    solution is chosen.
    """
    pres = cl.presentation
    if any(c % p for c in elem.free):
        return None
    free = tuple(c // p for c in elem.free)
    torsion = []
    for c, d in zip(elem.torsion, pres.invariant_factors):
        g = gcd(p, d)
        if c % g:
            return None
        dd = d // g
        x = (c // g) * pow(p // g, -1, dd) % dd if dd > 1 else 0
        torsion.append(x)
    return pres.element(free, torsion)


@dataclass(frozen=True, eq=False)
class PerfectoidBundle:
    """A formal p^level-th root of the line bundle with class `base_class`.

    Normal form: level = 0 or base_class not divisible by p in the class
    group.  `representative` is a Cartier divisor with class base_class,
    used whenever a polytope or a cohomology computation is needed.
    Equality is on (fan, p, level, class); the representative is auxiliary.
    """

    fan: Fan
    p: int
    level: int
    base_class: GroupElement
    representative: TDivisor

    def __eq__(self, other):
        return (
            isinstance(other, PerfectoidBundle)
            and self.fan == other.fan
            and self.p == other.p
            and self.level == other.level
            and self.base_class == other.base_class
        )

    def __hash__(self):
        return hash((self.fan, self.p, self.level, self.base_class))


def _normalized(fan: Fan, p: int, cls: GroupElement, level: int, rep: TDivisor) -> PerfectoidBundle:
    cl = class_group(fan)
    changed = False
    while level > 0:
        divided = _divide_class_by_p(cl, cls, p)
        if divided is None:
            break
        cls = divided
        level -= 1
        changed = True
    if changed:
        rep = cl.lift(cls)
    return PerfectoidBundle(fan, p, level, cls, rep)


def from_divisor(fan: Fan, divisor, p: int, level: int, assume_trivialization: bool = False) -> PerfectoidBundle:
    """The bundle (class of D)^(1/p^level), normalized."""
    p = int(p)
    level = int(level)
    if not is_prime(p):
        raise InputError(f"p must be prime, got {p}")
    if level < 0:
        raise InputError("level must be non-negative")
    _require_perfectoid_fan(fan, assume_trivialization)
    d = as_divisor(fan, divisor)
    if cartier_witnesses(fan, d) is None:
        raise HypothesisError("divisor is not Cartier; it defines no line bundle")
    cls = class_group(fan).project(d)
    return _normalized(fan, p, cls, level, d)


def _check_compatible(l1: PerfectoidBundle, l2: PerfectoidBundle) -> None:
    if l1.fan != l2.fan:
        raise InputError("bundles live on different fans")
    if l1.p != l2.p:
        raise InputError(f"bundles carry different primes: {l1.p} vs {l2.p}")


def tensor(l1: PerfectoidBundle, l2: PerfectoidBundle) -> PerfectoidBundle:
    """Common-denominator addition in Pic(X)[1/p]."""
    _check_compatible(l1, l2)
    fan, p = l1.fan, l1.p
    cl = class_group(fan)
    k = max(l1.level, l2.level)
    s1 = p ** (k - l1.level)
    s2 = p ** (k - l2.level)
    cls = cl.presentation.add(
        cl.presentation.scale(s1, l1.base_class), cl.presentation.scale(s2, l2.base_class)
    )
    rep = s1 * l1.representative + s2 * l2.representative
    return _normalized(fan, p, cls, k, rep)


def inverse(l: PerfectoidBundle) -> PerfectoidBundle:
    cl = class_group(l.fan)
    return PerfectoidBundle(
        l.fan, l.p, l.level, cl.presentation.neg(l.base_class), -l.representative
    )


def trivial_bundle(fan: Fan, p: int, assume_trivialization: bool = False) -> PerfectoidBundle:
    return from_divisor(fan, (0,) * len(fan.rays), p, 0, assume_trivialization)


def frobenius_pullback(l: PerfectoidBundle) -> PerfectoidBundle:
    """Multiplication by p in Pic(X)[1/p]: drop a level, or multiply the
    class by p at level zero.  A group automorphism."""
    if l.level > 0:
        return PerfectoidBundle(l.fan, l.p, l.level - 1, l.base_class, l.representative)
    cl = class_group(l.fan)
    return PerfectoidBundle(
        l.fan, l.p, 0, cl.presentation.scale(l.p, l.base_class), l.p * l.representative
    )


def formal_root(l: PerfectoidBundle) -> PerfectoidBundle:
    """The formal p-th root: the inverse of frobenius_pullback."""
    return _normalized(l.fan, l.p, l.base_class, l.level + 1, l.representative)


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
    p = int(p)
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
    cohomology; StabilizesToBasis means each level's basis embeds in the
    next under m -> p·m, which exhibits the completed colimit as the
    p-divisible hull of the level bases.
    """

    degree: int
    dims: tuple[int, ...]
    verdict: str
    bases: tuple[tuple[tuple[int, ...], ...], ...]


def _level_tables(fan: Fan, l: PerfectoidBundle, n_max: int) -> list:
    """The graded cohomology table of p^n·D for n = 0..n_max, one per level."""
    if fan != l.fan:
        raise InputError("bundle does not live on this fan")
    if n_max < 0:
        raise InputError("n_max must be non-negative")
    d = l.representative
    if cartier_witnesses(fan, d) is None:
        raise HypothesisError("bundle representative is not Cartier")
    return [cohomology(fan, (l.p ** n) * d, want_graded=True) for n in range(n_max + 1)]


def _series(p: int, tables, degree: int) -> LevelSeries:
    """Read the level series of one cohomological degree off the level tables."""
    dims = tuple(table.dims[degree] for table in tables)
    bases = [table.graded[degree] for table in tables]
    if not any(dims):
        verdict = VANISHES
    else:
        verdict = STABILIZES
        for n in range(len(bases) - 1):
            nxt = dict(bases[n + 1])
            for m, mult in bases[n]:
                scaled = tuple(p * x for x in m)
                if nxt.get(scaled, 0) < mult:
                    verdict = GROWING
                    break
            if verdict == GROWING:
                break
    basis_degrees = tuple(
        tuple(m for m, mult in level for _ in range(mult)) for level in bases
    )
    return LevelSeries(degree, dims, verdict, basis_degrees)


def cohomology_series(fan: Fan, l: PerfectoidBundle, degree: int, n_max: int,
                      assume_trivialization: bool = False) -> LevelSeries:
    """Level-wise cohomology of the bundle: dims[n] = dim H^degree(X, p^n·D)."""
    _require_perfectoid_fan(fan, assume_trivialization)
    degree = int(degree)
    if not (0 <= degree <= fan.rank):
        raise InputError(f"cohomological degree must lie in 0..{fan.rank}")
    return _series(l.p, _level_tables(fan, l, int(n_max)), degree)


def polytope_dimension(fan: Fan, l: PerfectoidBundle) -> int:
    """dim P_D for any divisor representative of the bundle; -1 when empty.

    Well-defined: replacing the representative by D + div(m) translates the
    polytope, replacing it by p^t·D scales it."""
    if fan != l.fan:
        raise InputError("bundle does not live on this fan")
    return divisor_polytope(fan, l.representative).dim


def _globally_generated(fan: Fan, l: PerfectoidBundle, n_max: int) -> bool:
    """Basepoint-freeness of the level representatives.

    Scaling invariance makes the t = 0 test decisive, but all levels up to
    n_max are checked anyway as a cheap cross-check."""
    verdicts = [is_basepoint_free(fan, (l.p ** t) * l.representative) for t in range(n_max + 1)]
    if any(v != verdicts[0] for v in verdicts):
        raise ConsistencyError("basepoint-freeness failed to be scaling-invariant")
    return verdicts[0]


def perfectoid_demazure(fan: Fan, l: PerfectoidBundle, n_max: int,
                        assume_trivialization: bool = False) -> CheckVerdict:
    """Globally generated bundles on the cover have no higher cohomology:
    every level series in degrees 1..rank must vanish."""
    _require_perfectoid_fan(fan, assume_trivialization)
    if not _globally_generated(fan, l, n_max):
        return CheckVerdict("not-applicable", {"reason": "no basepoint-free representative"})
    tables = _level_tables(fan, l, n_max)
    series = {}
    for i in range(1, fan.rank + 1):
        s = _series(l.p, tables, i)
        series[i] = s.dims
        if s.verdict != VANISHES:
            return CheckVerdict("fail", {"offending_degree": i, "dims": s.dims})
    return CheckVerdict("pass", {"series": series})


def perfectoid_batyrev_borisov(fan: Fan, l: PerfectoidBundle, n_max: int,
                               assume_trivialization: bool = False) -> CheckVerdict:
    """Perfectoid Batyrev-Borisov: for the inverse bundle, all levels vanish
    outside degree d = dim P_D; in degree d the level-n basis is indexed by
    the interior lattice points of p^n·P_D, and consecutive bases embed
    under m -> p·m.  Returns the truncated p-divisible basis description."""
    _require_perfectoid_fan(fan, assume_trivialization)
    if not _globally_generated(fan, l, n_max):
        return CheckVerdict("not-applicable", {"reason": "no basepoint-free representative"})
    d_dim = polytope_dimension(fan, l)
    rep = l.representative
    interiors = []
    for n in range(n_max + 1):
        poly = divisor_polytope(fan, (l.p ** n) * rep)
        interiors.append(sorted(lattice_points(poly, interior_only=True)))
    details = {
        "polytope_dim": d_dim,
        "level_basis_sizes": tuple(len(pts) for pts in interiors),
        "level_bases": tuple(tuple(pts) for pts in interiors),
    }
    # Transition embedding on the predicted bases.
    for n in range(n_max):
        nxt = set(interiors[n + 1])
        for m in interiors[n]:
            if tuple(l.p * x for x in m) not in nxt:
                details["reason"] = f"basis embedding fails at level {n} for degree {m}"
                return CheckVerdict("fail", details)
    # Independent route: the computed cohomology of the inverse bundle, level by level.
    tables = _level_tables(fan, inverse(l), n_max)
    for i in range(fan.rank + 1):
        s = _series(l.p, tables, i)
        if i != d_dim:
            if any(s.dims):
                details["offending_degree"] = i
                details["dims"] = s.dims
                return CheckVerdict("fail", details)
            continue
        expected = tuple(len(pts) for pts in interiors)
        if s.dims != expected:
            details["offending_degree"] = i
            details["dims"] = s.dims
            return CheckVerdict("fail", details)
        if s.verdict not in (VANISHES, STABILIZES):
            details["offending_degree"] = i
            details["reason"] = "computed bases do not embed under m -> p·m"
            return CheckVerdict("fail", details)
        for n in range(n_max + 1):
            predicted = sorted(tuple(-x for x in m) for m in interiors[n])
            if sorted(s.bases[n]) != predicted:
                details["offending_degree"] = i
                details["reason"] = f"level {n} basis degrees disagree with -Relint(p^n P_D)"
                return CheckVerdict("fail", details)
    return CheckVerdict("pass", details)
