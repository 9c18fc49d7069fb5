"""Command-line frontend.

One job per invocation: parse a fan (from a file or the named library),
dispatch to the library, and print a structured report on stdout.  Each
command is one entry of the `COMMANDS` table: the flags it requires, in
the order they are checked, and the handler that fills the report.  The
results section is deterministic for identical inputs; diagnostics go to
stderr.  Exit codes: 0 success/pass, 1 theorem-check failure, 2 input
error.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, field
from functools import lru_cache

from . import divisor as dv
from . import perfectoid as perf
from .cohomology import batyrev_borisov_check, cohomology, demazure_vanishing_check
from .errors import ConsistencyError, FanParseError, InputError, ToricError
from .fan import Fan, validate_fan
from .library import NAMED_FAN_NAMES, named_fan

SCHEMA = "toricpic-report/1"


# ---------------------------------------------------------------------------
# Fan document format
# ---------------------------------------------------------------------------

def _parse_bracket_list(text, line_no):
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise FanParseError(f"expected a bracketed list, got {text!r}", line_no)
    inner = text[1:-1].strip()
    if not inner:
        return []
    out = []
    for tok in inner.split(","):
        tok = tok.strip()
        try:
            out.append(int(tok))
        except ValueError:
            raise FanParseError(f"expected an integer, got {tok!r}", line_no) from None
    return out


def parse_fan_file(text: str) -> Fan:
    """Parse the fan document grammar.

    `rank: <int>`, then a `rays:` section with one `[a,b,...]` per line,
    then a `max_cones:` section with one `[i,j,...]` index list per line.
    `#` starts a comment; blank lines and surrounding whitespace are
    ignored; sections may appear in any order.
    """
    rank = None
    rays: list | None = None
    cones: list | None = None
    section = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if section is None:
                raise FanParseError("vector outside of a rays/max_cones section", line_no)
            vec = _parse_bracket_list(line, line_no)
            if section is rays and not any(vec):
                raise FanParseError("zero ray", line_no, kind="semantic")
            section.append((line_no, vec))
            continue
        if ":" not in line:
            raise FanParseError(f"unrecognized line {line!r}", line_no)
        name, _, value = line.partition(":")
        name = name.strip().lower()
        value = value.strip()
        if name == "rank":
            if not value:
                raise FanParseError("rank needs a value", line_no)
            try:
                rank = int(value)
            except ValueError:
                raise FanParseError(f"rank must be an integer, got {value!r}", line_no) from None
            section = None
        elif name in ("rays", "max_cones"):
            if value:
                raise FanParseError(
                    f"{name} section takes one bracketed vector per following line", line_no
                )
            if name == "rays":
                rays = []
                section = rays
            else:
                cones = []
                section = cones
        else:
            raise FanParseError(f"unknown field {name!r}", line_no, kind="semantic")
    if rank is None:
        raise FanParseError("missing field: rank", kind="semantic")
    if rays is None or not rays:
        raise FanParseError("missing field: rays", kind="semantic")
    if cones is None or not cones:
        raise FanParseError("missing field: max_cones", kind="semantic")
    try:
        return Fan(rank, [v for _, v in rays], [v for _, v in cones])
    except InputError as exc:
        raise FanParseError(str(exc), kind="semantic") from exc


def serialize_fan(fan: Fan) -> str:
    lines = [f"rank: {fan.rank}", "rays:"]
    lines.extend("[" + ", ".join(str(x) for x in ray) + "]" for ray in fan.rays)
    lines.append("max_cones:")
    lines.extend(
        "[" + ", ".join(str(i) for i in c.ray_indices) + "]" for c in fan.max_cones
    )
    return "\n".join(lines) + "\n"


def load_fan(source: str) -> Fan:
    if source.startswith("named:"):
        return named_fan(source[len("named:") :])
    try:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read fan file {source!r}: {exc}") from exc
    return parse_fan_file(text)


# ---------------------------------------------------------------------------
# Jobs and reports
# ---------------------------------------------------------------------------

@dataclass
class JobSpec:
    command: str
    fan_source: str
    divisor: tuple[int, ...] | None = None
    p: int | None = None
    level: int = 0
    degree: int | None = None
    nmax: int | None = None
    graded: bool = False
    assume_trivialization: bool = False
    modp_check: int | None = None


@dataclass
class Report:
    command: str
    fan_source: str
    ray_labels: tuple = ()
    inputs: list = field(default_factory=list)
    results: list = field(default_factory=list)
    diagnostics: list = field(default_factory=list)
    status: str = "ok"
    exit_code: int = 0
    timing_ms: int = 0

    def render(self) -> str:
        lines = [f"schema: {SCHEMA}", f"command: {self.command}", f"fan: {self.fan_source}"]
        if self.ray_labels:
            lines.append("ray_labels:")
            for i, ray in enumerate(self.ray_labels):
                lines.append(f"  {i}: {_fmt(ray)}")
        if self.inputs:
            lines.append("inputs:")
            for key, value in self.inputs:
                lines.append(f"  {key}: {value}")
        lines.append("results:")
        for key, value in self.results:
            lines.append(f"  {key}: {value}")
        lines.append(f"status: {self.status}")
        lines.append(f"timing_ms: {self.timing_ms}")
        return "\n".join(lines) + "\n"


def _bundle(fan, job: JobSpec):
    return perf.from_divisor(
        fan, job.divisor, job.p, job.level, assume_trivialization=job.assume_trivialization
    )


def run(job: JobSpec) -> Report:
    """Dispatch a job and assemble its report (never raises on bad input:
    errors become status/exit-code/diagnostics)."""
    report = Report(command=job.command, fan_source=job.fan_source)
    started = time.perf_counter()
    try:
        _run(job, report)
    except InputError as exc:
        report.status = "input-error"
        report.exit_code = 2
        report.diagnostics.append(str(exc))
    except ConsistencyError as exc:
        report.status = "check-failed"
        report.exit_code = 1
        report.diagnostics.append(str(exc))
    except ToricError as exc:  # pragma: no cover - defensive
        report.status = "error"
        report.exit_code = 2
        report.diagnostics.append(str(exc))
    report.timing_ms = int((time.perf_counter() - started) * 1000)
    return report


def _echo_inputs(job: JobSpec, report: Report):
    if job.divisor is not None:
        report.inputs.append(("divisor", _fmt(job.divisor)))
    if job.p is not None:
        report.inputs.append(("p", job.p))
    if job.command.startswith("perf-") and job.command != "perf-pic":
        report.inputs.append(("level", job.level))
    if job.degree is not None:
        report.inputs.append(("degree", job.degree))
    if job.nmax is not None:
        report.inputs.append(("nmax", job.nmax))
    if job.graded:
        report.inputs.append(("graded", "true"))
    if job.assume_trivialization:
        report.inputs.append(("assume_trivialization", "true"))
    if job.modp_check is not None:
        report.inputs.append(("modp_check", job.modp_check))


def _fmt(value) -> str:
    """Dicts as {k: v}, sequences as [a, b]; ints and Fractions by str."""
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}: {_fmt(v)}" for k, v in sorted(value.items())) + "}"
    if isinstance(value, (tuple, list)):
        return "[" + ", ".join(_fmt(x) for x in value) + "]"
    return str(value)


def _verdict_exit(report: Report, verdict) -> None:
    report.results.append(("status", verdict.status))
    if verdict.status == "fail":
        report.status = "check-failed"
        report.exit_code = 1
    for key in sorted(verdict.details):
        report.results.append((key, _fmt(verdict.details[key])))


def _validate(fan, job: JobSpec, report: Report) -> None:
    fr = validate_fan(fan)
    report.results.append(("valid", str(fr.valid).lower()))
    report.results.append(("smooth", str(fr.smooth).lower()))
    report.results.append(("complete", str(fr.complete).lower()))
    report.diagnostics.extend(fr.diagnostics)
    if not fr.valid:
        report.status = "input-error"
        report.exit_code = 2


def _group(report: Report, key: str, pres) -> None:
    report.results.append((key, pres.describe()))
    report.results.append(("free_rank", pres.free_rank))
    report.results.append(("invariant_factors", _fmt(pres.invariant_factors)))


def _picard(fan, job: JobSpec, report: Report) -> None:
    _group(report, "picard_group", dv.picard_group(fan))
    index = dv.picard_embedding(fan).index
    report.results.append(("index_in_class_group", index if index is not None else "infinite"))


def _cocycle(fan, job: JobSpec, report: Report) -> None:
    witnesses = dv.cartier_witnesses(fan, job.divisor)
    if witnesses is None:
        raise InputError("divisor is not Cartier; no cocycle exists")
    report.results.append(("witnesses", _fmt(witnesses)))
    for (i, j), m in dv._cocycle_from_witnesses(fan, witnesses).entries:
        report.results.append((f"m_{i}_{j}", _fmt(m)))


def _polytope(fan, job: JobSpec, report: Report) -> None:
    poly = dv.divisor_polytope(fan, job.divisor)
    report.results.append(("dim", poly.dim))
    report.results.append(("vertices", _fmt(poly.vertices)))
    report.results.append(("lattice_points", len(dv.lattice_points(poly))))
    report.results.append(("interior_points", len(dv.lattice_points(poly, interior_only=True))))


def _cohomology(fan, job: JobSpec, report: Report) -> None:
    table = cohomology(fan, job.divisor, want_graded=job.graded, check_prime=job.modp_check)
    for i in range(fan.rank + 1):
        report.results.append((f"h^{i}", table.dims[i]))
    if job.graded:
        for i in range(fan.rank + 1):
            entries = ", ".join(f"{_fmt(m)}x{mult}" for m, mult in table.graded[i])
            report.results.append((f"graded_h^{i}", "[" + entries + "]"))
    if job.modp_check is not None:
        report.results.append((f"modp_check_{job.modp_check}", "agree"))


def _perf_pic(fan, job: JobSpec, report: Report) -> None:
    desc = perf.perfectoid_pic(fan, job.p, assume_trivialization=job.assume_trivialization)
    report.results.append(("perfectoid_picard", desc.describe()))
    report.results.append(("base_free_rank", desc.base_free_rank))
    report.results.append(("surviving_torsion", _fmt(desc.surviving_torsion)))


def _perf_cohomology(fan, job: JobSpec, report: Report) -> None:
    bundle = _bundle(fan, job)
    series = perf.cohomology_series(bundle, job.degree, job.nmax)
    report.results.append(("normalized_level", bundle.level))
    report.results.append(("dims", _fmt(series.dims)))
    report.results.append(("verdict", series.verdict))
    if job.graded:
        for n, basis in enumerate(series.bases):
            report.results.append((f"basis_level_{n}", _fmt(basis)))


def _tower_verdict(check, fan, job: JobSpec, report: Report) -> None:
    _verdict_exit(report, check(_bundle(fan, job), job.nmax))


# Each command: its required flags, in the order they are checked, and its
# handler.  Handlers look library functions up when they run, so that
# rebinding a module attribute (as a profiler's wrappers do) reaches them.
COMMANDS = {
    "validate": ((), _validate),
    "classgroup": ((), lambda fan, job, report: _group(
        report, "class_group", dv.class_group(fan).presentation)),
    "picard": ((), _picard),
    "cocycle": (("divisor",), _cocycle),
    "polytope": (("divisor",), _polytope),
    "cohomology": (("divisor",), _cohomology),
    "demazure": (("divisor",), lambda fan, job, report: _verdict_exit(
        report, demazure_vanishing_check(fan, job.divisor))),
    "bb": (("divisor",), lambda fan, job, report: _verdict_exit(
        report, batyrev_borisov_check(fan, job.divisor))),
    "perf-pic": (("p",), _perf_pic),
    "perf-cohomology": (("degree", "nmax", "divisor", "p"), _perf_cohomology),
    "perf-demazure": (("nmax", "divisor", "p"), lambda fan, job, report: _tower_verdict(
        perf.perfectoid_demazure, fan, job, report)),
    "perf-bb": (("nmax", "divisor", "p"), lambda fan, job, report: _tower_verdict(
        perf.perfectoid_batyrev_borisov, fan, job, report)),
}


def _run(job: JobSpec, report: Report) -> None:
    fan = load_fan(job.fan_source)
    report.ray_labels = fan.rays
    _echo_inputs(job, report)
    if job.command not in COMMANDS:
        raise InputError(f"unknown command {job.command!r}")
    required, handler = COMMANDS[job.command]
    for flag in required:
        if getattr(job, flag) is None:
            raise InputError(f"command {job.command!r} requires --{flag}")
    handler(fan, job, report)


# ---------------------------------------------------------------------------
# argv plumbing
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: a parser is a web of reference cycles, and
    # one per job would be left for the cycle collector to free.
    parser = argparse.ArgumentParser(
        prog="toricpic",
        description="Picard groups, divisor class groups and line-bundle cohomology "
        "of complete toric varieties, with the p-power-tower (perfectoid cover) model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument(
            "--fan",
            dest="fan_source",
            metavar="FAN",
            required=True,
            help=f"fan document path, or named:<name> with name in {{{', '.join(NAMED_FAN_NAMES)}}}",
        )
        p.add_argument("--divisor", help="comma-separated coefficients in the fan's ray order")
        p.add_argument("--p", type=int, help="the prime of the tower")
        p.add_argument("--level", type=int, default=0, help="root level k (default 0)")
        p.add_argument("--degree", type=int, help="cohomological degree i")
        p.add_argument("--nmax", type=int, help="number of tower levels to compute")
        p.add_argument("--graded", action="store_true", help="include graded degree data")
        p.add_argument(
            "--assume-trivialization",
            action="store_true",
            help="accept non-smooth fans, trusting the trivialization hypothesis",
        )
        p.add_argument("--modp-check", type=int, help="recompute ranks modulo this prime")
    return parser


def parse_job(argv) -> JobSpec:
    # `--divisor -3,0,0` carries a leading dash; glue the value on so
    # argparse does not mistake it for an option.
    glued = []
    i = 0
    while i < len(argv):
        if argv[i] == "--divisor" and i + 1 < len(argv):
            glued.append(f"--divisor={argv[i + 1]}")
            i += 2
        else:
            glued.append(argv[i])
            i += 1
    ns = _build_parser().parse_args(glued)
    divisor = None
    if ns.divisor is not None:
        try:
            divisor = tuple(int(tok.strip()) for tok in ns.divisor.split(","))
        except ValueError:
            raise InputError(f"bad --divisor value {ns.divisor!r}: expected integers") from None
    return JobSpec(**{**vars(ns), "divisor": divisor})


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        job = parse_job(argv)
    except InputError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    report = run(job)
    sys.stdout.write(report.render())
    for diag in report.diagnostics:
        print(diag, file=sys.stderr)
    return report.exit_code
