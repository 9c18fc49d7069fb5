"""Seeded job lists for the three workloads, with the expected answer of
every job.

A workload is a sequence of rounds, generated lazily.  Every round holds
the same job templates (command, fan family, size band) in the same
proportions.  The sizes come from catalogues that do not depend on the
seed; the seed picks a signed permutation of each fan's GL(n, Z) image and
each divisor inside its linear-equivalence class, neither of which changes
a job's work.  (Past the signed permutations, later rounds add a shear;
see `fans.new_images`.)  So any number of whole blocks of rounds has the same size
distribution under every seed, and the median and p90 fall inside a band
of one job class rather than on a step between two (see README.md).

The program sees only argv and fan documents.  Expected answers come from
`oracles` (Bott, Künneth, Riemann-Roch, Serre duality, lattice counts,
Demazure, Batyrev-Borisov) and from `expected.json`, evaluated on the base
fan: a GL(n, Z) image must report the same values, with polytope vertices
and graded degrees mapped by g^{-T}.
"""

from __future__ import annotations

import itertools
import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import fans as F
import oracles as O

EXPECTED = json.loads((Path(__file__).with_name("expected.json")).read_text())

# The named fans of the CLI library, with the ray order its documentation gives.
NAMED = {
    "P2": F.projective(2),
    "P3": F.projective(3),
    "P1xP1": (F.SURFACE_STARTS["P1xP1"], ((0, 1), (0, 3), (1, 2), (2, 3))),
    "F1": (F.SURFACE_STARTS["F1"], ((0, 1), (0, 3), (1, 2), (2, 3))),
    "F2": (F.SURFACE_STARTS["F2"], ((0, 1), (0, 3), (1, 2), (2, 3))),
    "P112": (((1, 0), (0, 1), (-1, -2)), ((0, 1), (0, 2), (1, 2))),
}


@dataclass
class Job:
    """One CLI invocation.  `argv` names the fan as `{fan}` when `doc` holds
    a fan document to be written to a file; `expect` returns the results
    section the report must show (key -> exact text, or a predicate)."""

    cls: str
    argv: list
    doc: str | None
    expect: Callable[[], dict]


# ---------------------------------------------------------------------------
# Report formatting, as the CLI prints results
# ---------------------------------------------------------------------------

def fmt(value) -> str:
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}: {fmt(v)}" for k, v in sorted(value.items())) + "}"
    if isinstance(value, (tuple, list)):
        return "[" + ", ".join(fmt(x) for x in value) + "]"
    return str(value)


def dims_result(dims) -> dict:
    return {f"h^{i}": str(d) for i, d in enumerate(dims)}


def graded_result(points) -> str:
    return "[" + ", ".join(f"{fmt(m)}x1" for m in points) + "]"


def multiplicity_total(total):
    """Graded H^1 is only checked through its total multiplicity."""
    return lambda text: sum(int(x) for x in re.findall(r"x(\d+)", text)) == total


def transform(g, points):
    """Degrees on the image fan g·Σ: m -> g^{-T} m, sorted."""
    gi = O.inverse_transpose(g)
    return sorted(tuple(Fraction(x) for x in O.matvec(gi, m)) for m in points)


def ints(points):
    return [tuple(int(x) for x in m) for m in points]


def group_text(free, factors, unit="Z"):
    parts = []
    if free == 1:
        parts.append(unit)
    elif free > 1:
        parts.append(f"{unit}^{free}")
    parts += [f"Z/{d}" for d in factors]
    return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# Size bands
# ---------------------------------------------------------------------------

def spread(rng, lo, hi, count):
    """`count` integers stratified over [lo, hi]: one per equal sub-band,
    at a seeded position inside it."""
    width = (hi - lo + 1) / count
    return [lo + int(width * (i + rng.random())) for i in range(count)]


# ---------------------------------------------------------------------------
# charts: smooth surfaces with 5-7 rays, small divisors
# ---------------------------------------------------------------------------

# (rays, command, count) per round.  The mix puts the median inside the
# 6-ray band and p90 inside the 7-ray band.
CHART_TEMPLATES = (
    (5, "cohomology", 2), (5, "bb", 1), (5, "perf", 1), (5, "picard", 1),
    (6, "cohomology", 3), (6, "modp", 1), (6, "graded", 1), (6, "bb", 1), (6, "perf", 1),
    (7, "cohomology", 1), (7, "modp", 1), (7, "graded", 1),
)


def _small_divisor(rng, k):
    a = [0] * k
    for _ in range(rng.randint(1, 3)):
        a[rng.randrange(k)] += rng.choice((1, 2, -1))
    return a


def _nef_divisor(rng, base):
    rays, cones = base
    for _ in range(200):
        a = [rng.choice((0, 0, 1, 2)) for _ in rays]
        if any(a) and O.is_nef(rays, cones, a):
            return a
    return [0] * len(rays)


def _shift(rng, rays, a):
    """A linearly equivalent divisor D + div(m): the same cohomology and the
    same number of sign patterns, with every degree moved by -m."""
    m = [rng.randint(-3, 3) for _ in rays[0]]
    return [x + sum(s * t for s, t in zip(m, u)) for x, u in zip(a, rays)]


def chart_job(rng, cat, perm, k, kind) -> Job:
    """`cat` picks the surface, the divisor class and a GL(2, Z) image;
    `perm` is a signed permutation applied on top, and `rng` picks the
    divisor inside its class.  Neither changes the number of points or sign
    patterns of the support region, whose box is not GL(2, Z)-invariant."""
    base = F.surface(F.SURFACE_STARTS[cat.choice(sorted(F.SURFACE_STARTS))], k, cat)
    g = F.compose(perm, F.unimodular(2, cat, cat.randint(1, 4)))
    doc = F.document(F.image(base, g))
    rays, cones = base
    cls = f"k{k}.{kind}"
    if kind == "picard":
        def expect():
            free, factors = O.class_group(rays)
            return {"picard_group": group_text(free, factors), "free_rank": str(free),
                    "invariant_factors": "[]", "index_in_class_group": str(O.picard_index(rays, cones))}
        return Job(cls, ["picard", "--fan", "{fan}"], doc, expect)
    if kind == "bb":
        a = _shift(rng, rays, _nef_divisor(cat, base))

        def expect():
            interior = O.lattice_points(rays, a, interior=True)
            dim = O.polytope_dim(O.polytope_vertices(rays, a))
            dims = {i: (len(interior) if i == dim else 0) for i in range(3)}
            basis = sorted(tuple(-x for x in m) for m in ints(transform(g, interior)))
            return {"status": "pass", "basis_degrees": fmt(basis), "dims": fmt(dims),
                    "interior_count": str(len(interior)), "polytope_dim": str(dim)}
        return Job(cls, ["bb", "--fan", "{fan}", "--divisor", ",".join(map(str, a))], doc, expect)
    a = _shift(rng, rays, _small_divisor(cat, k))
    argv = ["cohomology", "--fan", "{fan}", "--divisor", ",".join(map(str, a))]
    if kind == "perf":
        degree = cat.choice((0, 2))
        argv = ["perf-cohomology", "--fan", "{fan}", "--divisor", ",".join(map(str, a)),
                "--p", "2", "--degree", str(degree), "--nmax", "1"]

        def expect():
            dims = [O.surface_dims(rays, a)[degree], O.surface_dims(rays, [2 * x for x in a])[degree]]
            return {"normalized_level": "0", "dims": fmt(dims),
                    "verdict": "stabilizes-to-basis" if any(dims) else "vanishes"}
        return Job(cls, argv, doc, expect)
    if kind == "modp":
        prime = rng.choice((3, 5, 7))
        argv += ["--modp-check", str(prime)]
    if kind == "graded":
        argv.append("--graded")

    def expect():
        dims = O.surface_dims(rays, a)
        out = dims_result(dims)
        if kind == "graded":
            out["graded_h^0"] = graded_result(ints(transform(g, O.lattice_points(rays, a))))
            out["graded_h^1"] = multiplicity_total(dims[1])
            top = [tuple(-x for x in m) for m in O.lattice_points(rays, [-1 - x for x in a])]
            out["graded_h^2"] = graded_result(ints(transform(g, top)))
        if kind == "modp":
            out[f"modp_check_{argv[-1]}"] = "agree"
        return out
    return Job(cls, argv, doc, expect)


CHART_CATALOGUES = 3


def new_fans(jobs, seen) -> bool:
    """Whether none of the jobs' fan documents is in `seen`; if so, add
    them.  A shear times a signed permutation can map a fan to an image
    already used, which would hit the program's caches."""
    docs = {job.doc for job in jobs if job.doc is not None}
    if not seen.isdisjoint(docs):
        return False
    seen |= docs
    return True


def charts(rng):
    """Rounds cycle through CHART_CATALOGUES catalogues of surfaces and
    divisor classes that do not depend on the seed, so every seed runs jobs
    of the same sizes: the cost of a chart job is set by its sign patterns,
    which vary by a factor of two between surfaces with the same number of
    rays.  Each repeat of a catalogue gets its own image from
    `F.new_images`, so no fan is seen twice.  The first 8 * CHART_CATALOGUES
    rounds use signed permutations; later rounds add a shear."""
    images, seen = F.new_images(2, rng), set()
    for r in itertools.count():
        if r % CHART_CATALOGUES == 0:
            g = next(images)
        while True:
            jobs = [chart_job(rng, random.Random(f"charts:{r % CHART_CATALOGUES}:{k}:{kind}:{i}"), g, k, kind)
                    for k, kind, count in CHART_TEMPLATES for i in range(count)]
            if new_fans(jobs, seen):
                break
            g = next(images)
        yield jobs


# ---------------------------------------------------------------------------
# dilations: named fans, large multiples, perfectoid towers
# ---------------------------------------------------------------------------

def named_dims(name, a):
    rays, cones = NAMED[name]
    if name in ("P2", "P3"):
        return O.bott(len(rays[0]), sum(a))
    if name == "P1xP1":
        return O.kunneth(O.bott(1, a[0] + a[2]), O.bott(1, a[1] + a[3]))
    if name in ("F1", "F2"):
        return O.surface_dims(rays, a)
    return O.nef_dims(rays, cones, a, len(rays[0]))


def _named_cohomology(name, a, cls):
    return Job(cls, ["cohomology", "--fan", f"named:{name}", "--divisor", ",".join(map(str, a))], None,
               lambda: dims_result(named_dims(name, a)))


def _vanishing_check(name, a, cls, command):
    rays, cones = NAMED[name]

    def expect():
        n = len(rays[0])
        if command == "demazure":
            return {"status": "pass", "dims": fmt(dict(enumerate(named_dims(name, a))))}
        interior = O.lattice_points(rays, a, interior=True)
        dim = O.polytope_dim(O.polytope_vertices(rays, a))
        return {"status": "pass", "basis_degrees": fmt(sorted(tuple(-x for x in m) for m in interior)),
                "dims": fmt({i: (len(interior) if i == dim else 0) for i in range(n + 1)}),
                "interior_count": str(len(interior)), "polytope_dim": str(dim)}
    return Job(cls, [command, "--fan", f"named:{name}", "--divisor", ",".join(map(str, a))], None, expect)


def _tower(name, a, p, level, nmax, command, degree=None):
    """perf-* jobs on P^n, where the class is the degree sum(a)."""
    rays, _ = NAMED[name]
    n = len(rays[0])
    argv = [command, "--fan", f"named:{name}", "--divisor", ",".join(map(str, a)), "--p", str(p),
            "--level", str(level), "--nmax", str(nmax)]

    def expect():
        deg, lev = sum(a), level
        while lev and deg % p == 0:
            deg, lev = deg // p, lev - 1
        if command == "perf-cohomology":
            dims = [O.bott(n, deg * p ** t)[degree] for t in range(nmax + 1)]
            return {"normalized_level": str(lev), "dims": fmt(dims),
                    "verdict": "stabilizes-to-basis" if any(dims) else "vanishes"}
        if command == "perf-demazure":
            return {"status": "pass", "series": fmt({i: [0] * (nmax + 1) for i in range(1, n + 1)})}
        bases = [O.lattice_points(rays, [x * p ** t for x in a], interior=True) for t in range(nmax + 1)]
        return {"status": "pass", "level_bases": fmt(bases), "level_basis_sizes": fmt([len(b) for b in bases]),
                "polytope_dim": str(O.polytope_dim(O.polytope_vertices(rays, a)))}
    if command == "perf-cohomology":
        argv += ["--degree", str(degree)]
    return Job(f"{name}.{command}", argv, None, expect)


def dilation_round(rng, cat):
    """`cat` picks every size, `rng` the divisor inside its class (on P^n
    and P1xP1 that keeps the class itself, the degree or bidegree)."""
    def d(name, a):
        return _shift(rng, NAMED[name][0], a)

    jobs = []
    for t in spread(cat, 20, 80, 4):
        jobs.append(_named_cohomology("P2", d("P2", (0, 0, t)), "P2.+tH"))
    for t in spread(cat, 20, 80, 4):
        jobs.append(_named_cohomology("P2", d("P2", (0, -t, 0)), "P2.-tH"))
    for t in spread(cat, 6, 13, 2):
        jobs.append(_named_cohomology("P3", d("P3", (t, 0, 0, 0)), "P3.+tH"))
    for t in spread(cat, 6, 13, 2):
        jobs.append(_named_cohomology("P3", d("P3", (0, 0, -t, 0)), "P3.-tH"))
    for t in spread(cat, 10, 40, 2):
        s = cat.randint(5, 20)
        jobs.append(_named_cohomology("P1xP1", d("P1xP1", (t, s, 0, 0)), "P1xP1.+"))
    t = spread(cat, 10, 40, 1)[0]
    jobs.append(_named_cohomology("P1xP1", d("P1xP1", (-t, 0, 0, -cat.randint(5, 20))), "P1xP1.-"))
    for name in ("F1", "F2"):
        t = spread(cat, 15, 40, 1)[0]
        sign = cat.choice((1, -1))
        jobs.append(_named_cohomology(name, d(name, (sign * t, 0, 0, sign * cat.randint(4, 15))), f"{name}.tD"))
    for t in spread(cat, 8, 24, 2):
        jobs.append(_named_cohomology("P112", d("P112", (0, 0, 2 * t * cat.choice((1, -1)))), "P112.tD"))
    jobs.append(_vanishing_check("P2", d("P2", (0, 0, spread(cat, 8, 30, 1)[0])), "P2.bb", "bb"))
    jobs.append(_vanishing_check("P3", d("P3", (0, spread(cat, 3, 6, 1)[0], 0, 0)), "P3.bb", "bb"))
    jobs.append(_vanishing_check("P1xP1", d("P1xP1", (cat.randint(4, 14), cat.randint(4, 14), 0, 0)),
                                 "P1xP1.demazure", "demazure"))
    jobs.append(_vanishing_check("P3", d("P3", (0, 0, 0, spread(cat, 3, 7, 1)[0])), "P3.demazure", "demazure"))
    jobs.append(_tower("P2", d("P2", (0, 0, 1)), 2, 0, 5, "perf-cohomology", degree=0))
    jobs.append(_tower("P2", d("P2", (0, 0, -3)), 2, 0, 4, "perf-cohomology", degree=2))
    jobs.append(_tower("P2", d("P2", (0, 0, 1)), 2, 1, 5, "perf-demazure"))
    jobs.append(_tower("P2", d("P2", (0, 0, 3)), 2, 0, 2, "perf-bb"))
    jobs.append(_tower("P3", d("P3", (0, 0, 0, 1)), 2, 0, 3, "perf-bb"))
    p = cat.choice((2, 3, 5))
    jobs.append(Job("P1xP1.perf-pic", ["perf-pic", "--fan", "named:P1xP1", "--p", str(p)], None,
                    lambda p=p: {"perfectoid_picard": f"Z[1/{p}]^2", "base_free_rank": "2",
                                 "surviving_torsion": "[]"}))
    return jobs


DILATION_CATALOGUES = 3


def dilations(rng):
    """Rounds cycle through DILATION_CATALOGUES catalogues of multiples that
    do not depend on the seed: the cost of a job grows like t^rank."""
    for r in itertools.count():
        yield dilation_round(rng, random.Random(f"dilations:{r % DILATION_CATALOGUES}"))


# ---------------------------------------------------------------------------
# fans: a new fan for every job, caches cold
# ---------------------------------------------------------------------------

def family(name, rng):
    if name.startswith("P") and name[1:].isdigit():
        return F.projective(int(name[1:]))
    if name.startswith("W"):
        return F.weighted(tuple(int(c) for c in name[1:]))
    if name == "P1xP2":
        return F.product(F.projective(1), F.projective(2))
    if name == "BlP3pt":
        return F.star_subdivide(F.projective(3), rng.choice(F.projective(3)[1]))
    if name == "BlP3line":
        cone = rng.choice(F.projective(3)[1])
        return F.star_subdivide(F.projective(3), tuple(sorted(rng.sample(cone, 2))))
    raise KeyError(name)


def fan_dims(name, rays, cones, a):
    n = len(rays[0])
    if name.startswith("P") and name[1:].isdigit():
        return O.bott(n, sum(a))
    if name == "P1xP2":
        return O.kunneth(O.bott(1, a[0] + a[1]), O.bott(2, a[2] + a[3] + a[4]))
    return O.nef_dims(rays, cones, a, n)


def _fan_divisor(rng, rays, cones, nef):
    """A small divisor, or its negative; nef up to sign where the only
    oracle is Demazure/Batyrev-Borisov.  The zero divisor is nef."""
    while True:
        a = [rng.choice((0, 0, 1, 2)) for _ in rays]
        if not nef or O.is_nef(rays, cones, a):
            return a if rng.random() < 0.5 else [-x for x in a]


# (family, command) per round.  Rank-3 families fill the median; six
# validation-bound rank-4 jobs of 230-330 ms hold p90; one P5 validation
# sits above them.
FAN_TEMPLATES = (
    ("P3", "validate"), ("BlP3pt", "validate"), ("BlP3line", "validate"), ("P1xP2", "validate"),
    ("W1112", "validate"), ("P4", "validate"), ("P5", "validate"),
    ("W1123", "classgroup"), ("P1xP2", "classgroup"), ("BlP3line", "classgroup"), ("W11223", "classgroup"),
    ("W1112", "picard"), ("BlP3pt", "picard"), ("W11112", "picard"),
    ("P3", "polytope"), ("P1xP2", "polytope"), ("BlP3line", "polytope"), ("P4", "polytope"),
    ("P3", "perf-pic"), ("BlP3pt", "perf-pic"), ("P4", "perf-pic"), ("W1123", "perf-pic"),
    ("P3", "cohomology"), ("P1xP2", "cohomology"), ("BlP3pt", "cohomology"), ("W1112", "cohomology"),
    ("P3", "perf-cohomology"), ("W11112", "validate"), ("W11223", "picard"),
)


def fan_job(rng, cat, perms, name, command) -> Job:
    """As chart_job: `cat` picks the fan, its GL(n, Z) image and the divisor
    class, `perms[n]` is a signed permutation on top, `rng` picks the
    divisor inside its class."""
    base = family(name, cat)
    rays, cones = base
    n = len(rays[0])
    g = F.compose(perms[n], F.unimodular(n, cat, cat.randint(2, 6)))
    doc = F.document(F.image(base, g))
    info = EXPECTED["families"][name]
    argv = [command, "--fan", "{fan}"]
    cls = f"{name}.{command}"
    if command == "validate":
        return Job(cls, argv, doc, lambda: {"valid": "true", "smooth": str(info["smooth"]).lower(),
                                            "complete": "true"})
    if command == "classgroup":
        free, factors = info["class_group"]
        return Job(cls, argv, doc, lambda: {"class_group": group_text(free, factors),
                                            "free_rank": str(free), "invariant_factors": fmt(factors)})
    if command == "picard":
        free = info["class_group"][0]
        return Job(cls, argv, doc, lambda: {"picard_group": group_text(free, ()), "free_rank": str(free),
                                            "invariant_factors": "[]",
                                            "index_in_class_group": str(info["picard_index"])})
    if command == "perf-pic":
        p = cat.choice((2, 3, 5))
        argv += ["--p", str(p)]
        if not info["smooth"]:
            argv.append("--assume-trivialization")
        free = info["class_group"][0]
        return Job(cls, argv, doc, lambda: {"perfectoid_picard": group_text(free, (), f"Z[1/{p}]"),
                                            "base_free_rank": str(free), "surviving_torsion": "[]"})
    if command == "polytope":
        a = _shift(rng, rays, [cat.randint(-1, 2) for _ in rays])
        argv += ["--divisor", ",".join(map(str, a))]

        def expect():
            verts = O.polytope_vertices(rays, a)
            return {"dim": str(O.polytope_dim(verts)), "vertices": fmt(transform(g, verts)),
                    "lattice_points": str(len(O.lattice_points(rays, a))),
                    "interior_points": str(len(O.lattice_points(rays, a, interior=True)))}
        return Job(cls, argv, doc, expect)
    nef = not (name.startswith("P") and name[1:].isdigit()) and name != "P1xP2"
    a = _shift(rng, rays, _fan_divisor(cat, rays, cones, nef))
    argv += ["--divisor", ",".join(map(str, a))]
    if command == "perf-cohomology":
        degree = 0 if sum(a) >= 0 else n
        argv += ["--p", "2", "--degree", str(degree), "--nmax", "1"]

        def expect():
            dims = [O.bott(n, sum(a))[degree], O.bott(n, 2 * sum(a))[degree]]
            return {"normalized_level": "0", "dims": fmt(dims),
                    "verdict": "stabilizes-to-basis" if any(dims) else "vanishes"}
        return Job(cls, argv, doc, expect)
    return Job(cls, argv, doc, lambda: dims_result(fan_dims(name, rays, cones, a)))


def fans(rng):
    """Every round runs the same catalogue of fans, each under an image of
    its own from `F.new_images`, so every fan is new to the run.  The first
    48 rounds use signed permutations (rank 3 has 48), so their job sizes
    are those of the catalogue; later rounds add a shear in rank 3."""
    images, seen = {n: F.new_images(n, rng) for n in (3, 4, 5)}, set()
    while True:
        perms = {n: next(it) for n, it in images.items()}
        jobs = [fan_job(rng, random.Random(f"fans:{i}"), perms, name, command)
                for i, (name, command) in enumerate(FAN_TEMPLATES)]
        if new_fans(jobs, seen):
            yield jobs


WORKLOADS = {"charts": charts, "dilations": dilations, "fans": fans}
# Rounds per cycle of catalogues: any block of this many rounds has the
# workload's full mix of job sizes.
CYCLE = {"charts": CHART_CATALOGUES, "dilations": DILATION_CATALOGUES, "fans": 1}


def rounds(workload, seed):
    """The workload's rounds for this seed, one list of jobs at a time."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
