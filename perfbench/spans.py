"""Spans around the calls into each toricpic module, recorded from outside.

`Tracer.install()` replaces every binding of a traced function (the
defining module's and each `from .x import y` copy, found by identity) with
a wrapper that records a span; `uninstall()` puts the originals back.
Modules are reached with `importlib.import_module`, because the package
attribute `toricpic.cohomology` is the function, not the submodule.

Spans nest on one stack (one thread, one job at a time).  A span's self
time is its duration minus the durations of its direct child spans, so the
self times of all spans of a job add up to the job's root span, `cli.main`.
Self time goes to the span's layer (its module), except that the scan and
rank spans keep their own buckets, `cohomology.scan` and `cohomology.rank`,
so that `cohomology.self` is the per-point loop of `cohomology()`.  Time in
code that is not wrapped counts as self time of the nearest wrapped caller.
"""

from __future__ import annotations

import importlib
import math
import time
from collections import Counter, defaultdict

MODULES = ("toricpic", "toricpic.cli", "toricpic.fan", "toricpic.polyhedra", "toricpic.lattice",
           "toricpic.divisor", "toricpic.cohomology", "toricpic.perfectoid", "toricpic.library")

# (defining module, function name) -> span group.  Every binding of the
# function in MODULES is wrapped.
FUNCTIONS = {
    ("cli", "main"): "cli.main",
    ("cli", "parse_job"): "cli.parse",
    ("cli", "load_fan"): "cli.parse",
    ("cli", "parse_fan_file"): "cli.parse",
    ("fan", "validate_fan"): "fan.validate",
    ("polyhedra", "cone_extreme_rays"): "polyhedra.extreme_rays",
    ("polyhedra", "hull_facets"): "polyhedra.hull_facets",
    ("lattice", "smith_normal_form"): "lattice.snf",
    ("lattice", "invariant_factors"): "lattice.snf",
    ("lattice", "cokernel"): "lattice.snf",
    ("lattice", "hermite_normal_form"): "lattice.hnf",
    ("lattice", "integer_kernel"): "lattice.hnf",
    ("lattice", "solve_integer_system"): "lattice.hnf",
    ("divisor", "class_group"): "divisor.classgroup",
    ("divisor", "picard_group"): "divisor.picard",
    ("divisor", "picard_embedding"): "divisor.picard",
    ("divisor", "cartier_witnesses"): "divisor.cartier",
    ("divisor", "divisor_polytope"): "divisor.polytope",
    ("divisor", "lattice_points"): "divisor.lattice_points",
    ("cohomology", "cohomology"): "cohomology.cohomology",
    ("cohomology", "support_region"): "cohomology.region",
    ("cohomology", "demazure_vanishing_check"): "cohomology.check",
    ("cohomology", "batyrev_borisov_check"): "cohomology.check",
    ("perfectoid", "cohomology_series"): "perfectoid.series",
    ("perfectoid", "from_divisor"): "perfectoid.entry",
    ("perfectoid", "perfectoid_pic"): "perfectoid.entry",
    ("perfectoid", "perfectoid_demazure"): "perfectoid.entry",
    ("perfectoid", "perfectoid_batyrev_borisov"): "perfectoid.entry",
}
# Wrapped in one place only (see `install`): `rational_rank` as bound in the
# cohomology engine, `SupportRegion.points`, and the perfectoid level loop's
# binding of `cohomology`.
LAYERS = ("cli", "fan", "polyhedra", "lattice", "divisor", "cohomology", "perfectoid")
OWN_BUCKETS = {"cohomology.scan", "cohomology.rank"}


def module(name):
    return importlib.import_module(f"toricpic.{name}" if name != "toricpic" else name)


class Tracer:
    """Span and counter totals over the jobs of the traced rounds."""

    def __init__(self):
        self.stack = []  # per open span: [seconds covered by its children]
        self.active = Counter()
        self.inclusive = defaultdict(float)  # outermost spans of a group only
        self.calls = Counter()
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self.reached = set()
        self.bindings = Counter()
        self._restore = []
        self._job_keys = set()
        self._level_keys = set()

    # -- spans ---------------------------------------------------------
    def wrap(self, group, fn, name, after=None):
        bucket = group if group in OWN_BUCKETS else group.split(".")[0]

        def span(*args, **kwargs):
            self.reached.add(name)
            frame = [0.0]
            self.stack.append(frame)
            self.active[group] += 1
            start = time.process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.process_time() - start
                self.stack.pop()
                self.active[group] -= 1
                self.self_time[bucket] += dt - frame[0]
                if self.stack:
                    self.stack[-1][0] += dt
                if not self.active[group]:
                    self.inclusive[group] += dt
                self.calls[group] += 1
            if after is not None:
                after(args, kwargs, result)
            return result
        span.__wrapped__ = fn
        return span

    def _patch(self, owner, attr, new):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _bind_everywhere(self, original, wrapper):
        for modname in MODULES:
            mod = importlib.import_module(modname)
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)
                    self.bindings[original.__name__] += 1

    # -- counters ------------------------------------------------------
    def _after_lattice_points(self, args, kwargs, points):
        verts = args[0].vertices
        if verts:
            box = math.prod(math.floor(max(v[i] for v in verts)) - math.ceil(min(v[i] for v in verts)) + 1
                            for i in range(len(verts[0])))
            self.counts["lattice_points.points"] += len(points)
            self.counts["lattice_points.box"] += max(box, 0)

    def _after_scan(self, args, kwargs, points):
        self.counts["scan.points"] += len(points)
        self.counts["scan.box"] += math.prod(hi - lo + 1 for lo, hi in args[0].box)

    def _after_rank(self, args, kwargs, _):
        rows = args[0]
        self.counts["rank.entries"] += len(rows) * (len(rows[0]) if rows else 0)

    def _after_cohomology(self, args, kwargs, _):
        key = _key(args, kwargs)
        if key in self._job_keys:
            self.counts["cohomology.duplicates"] += 1
        self._job_keys.add(key)

    def start_job(self):
        self._job_keys.clear()
        self._level_keys.clear()

    # -- install -------------------------------------------------------
    def install(self):
        self.bindings.clear()
        fan = module("fan")
        self._validate_cache = fan.validate_fan
        self._cache_start = fan.validate_fan.cache_info()
        afters = {"lattice_points": self._after_lattice_points, "cohomology": self._after_cohomology}
        wrapped = {}
        for (modname, fname), group in FUNCTIONS.items():
            original = getattr(module(modname), fname)
            wrapper = self.wrap(group, original, f"{modname}.{fname}", afters.get(fname))
            wrapped[(modname, fname)] = wrapper
            self._bind_everywhere(original, wrapper)
        coh = module("cohomology")
        self._patch(coh, "rational_rank",
                    self.wrap("cohomology.rank", coh.rational_rank, "cohomology.rational_rank", self._after_rank))
        region_cls = coh.SupportRegion
        self._patch(region_cls, "points",
                    self.wrap("cohomology.scan", region_cls.points, "cohomology.SupportRegion.points",
                              self._after_scan))
        perf = module("perfectoid")
        inner = wrapped[("cohomology", "cohomology")]

        def level(*args, **kwargs):
            self.reached.add("perfectoid.cohomology")
            self.counts["level.calls"] += 1
            self._level_keys.add(_key(args, kwargs))
            return inner(*args, **kwargs)
        self._patch(perf, "cohomology", level)

    def end_job(self):
        self.counts["level.distinct"] += len(self._level_keys)

    def uninstall(self):
        info = self._validate_cache.cache_info()
        self.counts["validate.hits"] += info.hits - self._cache_start.hits
        self.counts["validate.misses"] += info.misses - self._cache_start.misses
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    @staticmethod
    def names():
        """Every name a traced run wraps."""
        out = {f"{m}.{f}" for m, f in FUNCTIONS}
        return out | {"cohomology.rational_rank", "cohomology.SupportRegion.points", "perfectoid.cohomology"}


def _key(args, kwargs=None):
    fan, divisor = args[0], args[1]
    rest = tuple(args[2:]) + tuple(sorted((kwargs or {}).items()))
    return id(fan), tuple(getattr(divisor, "coeffs", divisor)), rest


def layer_metrics(tr: Tracer, jobs: int) -> dict:
    """Per-job means of the traced spans and counters, by metric name."""
    ms = lambda group: 1000 * tr.inclusive[group] / jobs  # noqa: E731
    per = lambda value: value / jobs  # noqa: E731
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    c = tr.counts
    m = {
        "cli.parse_ms": (ms("cli.parse"), "ms/job"),
        "fan.validate_ms": (ms("fan.validate"), "ms/job"),
        "fan.validate_calls": (per(tr.calls["fan.validate"]), "calls/job"),
        "fan.validate_hit_ratio": (ratio(c["validate.hits"], c["validate.hits"] + c["validate.misses"]), "ratio"),
        "polyhedra.extreme_rays_ms": (ms("polyhedra.extreme_rays"), "ms/job"),
        "polyhedra.extreme_rays_calls": (per(tr.calls["polyhedra.extreme_rays"]), "calls/job"),
        "polyhedra.hull_facets_ms": (ms("polyhedra.hull_facets"), "ms/job"),
        "lattice.snf_ms": (ms("lattice.snf"), "ms/job"),
        "lattice.snf_calls": (per(tr.calls["lattice.snf"]), "calls/job"),
        "lattice.hnf_ms": (ms("lattice.hnf"), "ms/job"),
        "lattice.hnf_calls": (per(tr.calls["lattice.hnf"]), "calls/job"),
        "divisor.classgroup_ms": (ms("divisor.classgroup"), "ms/job"),
        "divisor.picard_ms": (ms("divisor.picard"), "ms/job"),
        "divisor.cartier_ms": (ms("divisor.cartier"), "ms/job"),
        "divisor.polytope_ms": (ms("divisor.polytope"), "ms/job"),
        "divisor.lattice_points_ms": (ms("divisor.lattice_points"), "ms/job"),
        "divisor.lattice_points_yield": (ratio(c["lattice_points.points"], c["lattice_points.box"]), "ratio"),
        "cohomology.region_ms": (ms("cohomology.region"), "ms/job"),
        "cohomology.scan_ms": (ms("cohomology.scan"), "ms/job"),
        "cohomology.region_points": (per(c["scan.points"]), "points/job"),
        "cohomology.box_points": (per(c["scan.box"]), "points/job"),
        "cohomology.scan_yield": (ratio(c["scan.points"], c["scan.box"]), "ratio"),
        "cohomology.rank_ms": (ms("cohomology.rank"), "ms/job"),
        "cohomology.rank_calls": (per(tr.calls["cohomology.rank"]), "calls/job"),
        "cohomology.rank_entries": (per(c["rank.entries"]), "entries/job"),
        "cohomology.calls": (per(tr.calls["cohomology.cohomology"]), "calls/job"),
        "cohomology.duplicate_share": (ratio(c["cohomology.duplicates"], tr.calls["cohomology.cohomology"]), "share"),
        "perfectoid.series_ms": (ms("perfectoid.series"), "ms/job"),
        "perfectoid.level_calls": (per(c["level.calls"]), "calls/job"),
        "perfectoid.level_distinct": (per(c["level.distinct"]), "calls/job"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = (1000 * tr.self_time[layer] / jobs, "ms/job")
    return m
