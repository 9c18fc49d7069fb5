"""Single-job records of the ROADMAP re-anchor baselines.

    python3 perfbench/baselines.py

Runs each baseline job of expected.json through `toricpic.cli.main` in a
fresh process of its own and checks its answer.  It prints one record per
job:
- the reference time of the first run (cold caches);
- the median of REPEATS more runs in the same process (warm caches);
- the time ROADMAP.md records.

A job is flagged when neither time is within 2x of the ROADMAP figure.
Records go to perfbench/results/baselines.json.  Exits 1 if an answer is
wrong.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import signal
import statistics
import subprocess
import sys

import run
import workloads
from fans import document

REPEATS = 3


def measure(index: int) -> dict:
    """Run baseline `index` 1 + REPEATS times in this process."""
    sys.path.insert(0, str(run.SRC))
    from toricpic import cli

    signal.signal(signal.SIGALRM, run._alarm)
    entry = workloads.EXPECTED["baselines"][index]
    work = run.HERE / "_work" / f"baseline-{index}"
    work.mkdir(parents=True, exist_ok=True)
    path = work / "fan.fan"
    if "fan" in entry:
        path.write_text(document((entry["fan"]["rays"], entry["fan"]["cones"])), encoding="utf-8")
    try:
        job = workloads.Job(entry["name"], entry["argv"], None, lambda: entry["results"])
        clock = run.Clock()
        runs = [run.run_job(cli, clock, job, str(path)) for _ in range(1 + REPEATS)]
    finally:
        path.unlink(missing_ok=True)
        work.rmdir()
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    failures = [r["failed"] for r in runs if r["failed"]]
    return {"name": entry["name"], "cold_ms": runs[0]["ms"],
            "warm_ms": statistics.median(r["ms"] for r in runs[1:]),
            "roadmap_ms": entry["roadmap_ms"], "failed": failures[0] if failures else None}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--only", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.only is not None:
        print(json.dumps(measure(args.only)))
        return 0
    records = []
    for index in range(len(workloads.EXPECTED["baselines"])):
        proc = subprocess.run([sys.executable, __file__, "--only", str(index)],
                              capture_output=True, text=True, check=True)
        rec = json.loads(proc.stdout.splitlines()[-1])
        ratios = [rec["cold_ms"] / rec["roadmap_ms"], rec["warm_ms"] / rec["roadmap_ms"]]
        rec["flag"] = "" if any(0.5 <= x <= 2 for x in ratios) else "differs by more than 2x"
        records.append(rec)
        print(f"{rec['name']:26s} cold {rec['cold_ms']:8.1f} ms  warm {rec['warm_ms']:8.1f} ms  "
              f"roadmap {rec['roadmap_ms']:6d} ms  x{ratios[0]:5.2f} / x{ratios[1]:5.2f} "
              f"{rec['flag']} {rec['failed'] or ''}")
    (run.HERE / "results").mkdir(exist_ok=True)
    (run.HERE / "results" / "baselines.json").write_text(
        json.dumps({"python": sys.version.split()[0], "records": records}, indent=1) + "\n")
    return 1 if any(rec["failed"] for rec in records) else 0


if __name__ == "__main__":
    sys.exit(main())
