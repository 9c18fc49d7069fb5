"""Job-batch benchmark of the toricpic CLI.

    python3 perfbench/run.py --workload {charts,dilations,fans} --seed N --seconds S --trace {0,1}

Run from the repository root.  The workload is generated from the seed as
rounds of CLI jobs (see workloads.py).  Jobs go through `toricpic.cli.main`
in this process with stdout captured: one client, one job at a time, no
threads (a closed loop).  Whole blocks of rounds run until the jobs have
taken `--seconds` reference seconds (see `Clock`).  Every answer is checked
against oracles; a job fails on a traceback, an unexpected exit code, a
wrong answer or the per-job time limit, and failed jobs stay in every
statistic.

--trace 0 prints the end-to-end metrics.  --trace 1 traces alternate
blocks of rounds (starting with the first) and prints the per-layer
metrics, with the tracing overhead measured against the untraced blocks.

The last line of stdout is one JSON object with keys correct, attempted,
failed and metrics.  A per-job record goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

DEFAULT_SEED = 1
JOB_LIMIT_S = 30.0
# The probe's CPU time at the reference speed; see `Clock`.
PROBE_REF_S = 0.004
SETUP_REPS = 15
SETUP_PROBES = 3


class JobTimeout(BaseException):
    """Raised from the alarm handler; not an Exception, so the CLI's
    handlers cannot swallow it."""


def _alarm(signum, frame):
    raise JobTimeout


def probe() -> float:
    """CPU seconds of a fixed pure-Python task, Fraction arithmetic and
    tuple/dict churn like the program's own, about 4 ms."""
    start = time.process_time()
    x, seen = Fraction(0), {}
    for i in range(1, 1200):
        x += Fraction(i % 7 + 1, i % 11 + 1)
        seen[(i % 13, i % 17)] = (x.numerator % 1000, i)
    return time.process_time() - start


class Clock:
    """Converts CPU time into reference seconds.

    On a shared host CPU speed can drift by up to 2x within seconds (seen
    on a 2-vCPU VM), and CPU time drifts with it.  Each measured interval is scaled
    by PROBE_REF_S over the mean of the probes taken just before and just
    after it, which removes the drift and keeps the program's own cost."""

    def __init__(self):
        self.last = probe()

    def reference(self, cpu_seconds: float) -> float:
        after = probe()
        scaled = cpu_seconds * PROBE_REF_S * 2 / (self.last + after)
        self.last = after
        return scaled


def results_section(text: str) -> dict:
    out = {}
    inside = False
    for line in text.splitlines():
        if line == "results:":
            inside = True
        elif not line.startswith("  "):
            inside = False
        elif inside:
            key, _, value = line.strip().partition(": ")
            out[key] = value
    return out


def check(job, rc, text) -> str | None:
    """None when the report is right, else the failure reason."""
    if rc != 0:
        return f"exit code {rc}"
    got = results_section(text)
    for key, want in job.expect().items():
        value = got.get(key)
        ok = want(value) if callable(want) and value is not None else value == want
        if not ok:
            return f"wrong answer: {key} = {value!r}, expected {want if not callable(want) else 'check'}"
    return None


def run_job(cli, clock, job, fan_path, tracer=None) -> dict:
    argv = [fan_path if a == "{fan}" else a for a in job.argv]
    out = io.StringIO()
    rc, reason = None, None
    if tracer:
        tracer.start_job()
    signal.setitimer(signal.ITIMER_REAL, JOB_LIMIT_S)
    start, wall = time.process_time(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
    except JobTimeout:
        reason = f"timeout after {JOB_LIMIT_S:g} s"
    except SystemExit as exc:
        reason = f"exit code {exc.code} (SystemExit)"
    except Exception as exc:  # noqa: BLE001 - any escape from main is a failed job
        reason = f"exception {type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    elapsed, wall = time.process_time() - start, time.perf_counter() - wall
    ms = 1000 * clock.reference(elapsed)
    if tracer:
        tracer.end_job()
    if reason is None:
        reason = check(job, rc, out.getvalue())
    return {"cls": job.cls, "argv": argv, "ms": ms, "cpu_ms": 1000 * elapsed,
            "wall_ms": 1000 * wall, "failed": reason}


def startup_seconds() -> float:
    """CPU seconds of Python start-up plus `import toricpic`, as one CLI
    invocation pays it."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    subprocess.run([sys.executable, "-c", "import toricpic"], env=env, cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime


def write_docs(jobs, work: Path, r: int) -> dict:
    """Write the round's fan documents under work; job id -> path."""
    work.mkdir(parents=True, exist_ok=True)
    paths = {}
    for i, job in enumerate(jobs):
        if job.doc is not None:
            path = work / f"{r}-{i}.fan"
            path.write_text(job.doc, encoding="utf-8")
            paths[id(job)] = str(path)
    return paths


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "toricpic" / "__init__.py").is_file():
        print(f"toricpic sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import toricpic
    from toricpic import cli
    if Path(toricpic.__file__).resolve().parent != SRC / "toricpic":
        print(f"imported toricpic from {toricpic.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    # One CPU for the probes, the jobs and the start-up child alike, so that
    # the probes measure the speed of the CPU the measured work ran on.
    with contextlib.suppress(AttributeError, OSError):
        os.sched_setaffinity(0, {sorted(os.sched_getaffinity(0))[0]})
    work_root = HERE / "_work" / str(os.getpid())
    signal.signal(signal.SIGALRM, _alarm)
    try:
        # Set-up: start-up and import, then the first round with its fan
        # documents; later rounds are generated between rounds, untimed.
        # Set-up is short against a probe's noise, so its CPU times are
        # scaled by the median of all the probes taken around them.
        probes, startups, gens = [], [], []
        for _ in range(SETUP_REPS):
            probes += [probe() for _ in range(SETUP_PROBES)]
            startups.append(startup_seconds())
            shutil.rmtree(work_root, ignore_errors=True)
            start = time.process_time()
            pending = workloads.rounds(args.workload, args.seed)
            first = next(pending)
            paths = write_docs(first, work_root, 0)
            gens.append(time.process_time() - start)
        probes += [probe() for _ in range(SETUP_PROBES)]
        scale = PROBE_REF_S / statistics.median(probes)
        setup_s = scale * (statistics.median(startups) + statistics.median(gens))

        clock = Clock()

        tracer = None
        if args.trace:
            import spans
            tracer = spans.Tracer()
        records = []
        traced, untraced = [], []
        # A block of rounds holds every catalogue once, so any whole number
        # of blocks, and both halves of a traced run, have the same mix.
        block = workloads.CYCLE[args.workload]
        for r, jobs in enumerate(itertools.chain([first], pending)):
            if r:
                paths = write_docs(jobs, work_root, r)
            on = tracer is not None and (r // block) % 2 == 0
            if on:
                tracer.install()
            try:
                for job in jobs:
                    rec = run_job(cli, clock, job, paths.get(id(job)), tracer if on else None)
                    rec["round"] = r
                    records.append(rec)
                    (traced if on else untraced).append(rec)
            finally:
                if on:
                    tracer.uninstall()
            done = sum(rec["ms"] for rec in records) / 1000 >= args.seconds
            if done and (r + 1) % block == 0 and (tracer is None or untraced):
                break
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        with contextlib.suppress(OSError):
            (HERE / "_work").rmdir()

    times = [rec["ms"] for rec in records]
    failed = [rec for rec in records if rec["failed"]]
    if args.trace:
        # Spans use the process clock, so layer times and trace.job_ms are
        # CPU ms; the overhead compares reference times of the two halves.
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in spans.layer_metrics(tracer, len(traced)).items()}
        metrics["trace.job_ms"] = {"value": statistics.fmean(rec["cpu_ms"] for rec in traced), "unit": "ms/job"}
        overhead = statistics.fmean(rec["ms"] for rec in traced) / statistics.fmean(rec["ms"] for rec in untraced)
        metrics["trace.overhead_share"] = {"value": overhead - 1, "unit": "share"}
    else:
        deciles = statistics.quantiles(times, n=10)
        metrics = {
            "jobs_per_s": {"value": 1000 * len(times) / sum(times), "unit": "1/s"},
            "job_ms_p50": {"value": deciles[4], "unit": "ms"},
            "job_ms_p90": {"value": deciles[8], "unit": "ms"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }

    summary = {"correct": not failed, "attempted": len(records), "failed": len(failed), "metrics": metrics}
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    record = dict(summary, workload=args.workload, seed=args.seed, trace=args.trace,
                  setup={"cpu_scale": scale, "startup_cpu_s": startups, "generate_cpu_s": gens},
                  failed_share=len(failed) / len(records), rounds=records[-1]["round"] + 1,
                  python=sys.version.split()[0], jobs=records)
    if tracer is not None:
        record["reached"] = sorted(tracer.reached)
        record["bindings"] = dict(tracer.bindings)
        record["self_ms"] = {k: 1000 * v / len(traced) for k, v in tracer.self_time.items()}
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    for rec in failed[:10]:
        print(f"FAILED {rec['cls']}: {rec['failed']} :: {' '.join(rec['argv'])}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:14.4f} {m['unit']}", file=sys.stderr)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
