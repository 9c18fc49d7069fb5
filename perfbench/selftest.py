"""Self-test of the benchmark: oracles, checked-in answers and tracing.

    python3 perfbench/selftest.py

1. Every checked-in value in expected.json agrees with an oracle, on the
   base fan and on a GL(n, Z) image of it.
2. Oracles that overlap agree with each other (Bott against lattice counts
   and Riemann-Roch, Künneth against Riemann-Roch, Demazure and
   Batyrev-Borisov against Bott).
3. A traced run of SECONDS seconds of every workload, with the default
   seed, answers correctly and reports every per-layer metric; every
   wrapped name is reached on some workload;
   `validate_fan` is wrapped in all six modules that bind it; per job, the
   self times add up to the traced job time; and the layer that each
   workload was designed to stress is the largest there:
   - charts: the rank calls (`cohomology.rank`);
   - dilations: the scan plus the per-point loop (`cohomology.scan` +
     `cohomology` self), with the rank calls under a tenth of job time;
   - fans: validation plus polyhedra (`fan` + `polyhedra` self).

Prints one line per check and exits 1 if any fails.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys

import fans as F
import oracles as O
import run
import spans
import workloads

SECONDS = 4
FAILURES = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def check_expected(rng):
    for name, info in workloads.EXPECTED["families"].items():
        base = workloads.family(name, rng)
        n = len(base[0][0])
        for label, (rays, cones) in (("base", base), ("image", F.image(base, F.unimodular(n, rng, 4)))):
            got = {"smooth": O.is_smooth(rays, cones), "class_group": list(O.class_group(rays)),
                   "complete": O.covers_space(rays, cones, rng)}
            got["class_group"][1] = list(got["class_group"][1])
            if label == "base":
                got["picard_index"] = O.picard_index(rays, cones)
            want = dict(info, complete=True)
            check(all(got[k] == want[k] for k in got), f"family {name} ({label}): {got}")
        if name.startswith("W"):
            lcm = math.lcm(*(int(c) for c in name[1:]))
            check(info["picard_index"] == lcm, f"family {name}: Picard index is lcm of the weights ({lcm})")
    for entry in workloads.EXPECTED["baselines"]:
        argv, want = entry["argv"], entry["results"]
        if "fan" in entry:
            rays = [tuple(r) for r in entry["fan"]["rays"]]
            cones = [tuple(c) for c in entry["fan"]["cones"]]
        else:
            rays, cones = workloads.NAMED[argv[2].split(":")[1]]
        n = len(rays[0])
        if argv[0] == "validate":
            # Simplicial cones meeting every random direction exactly once.
            got = {"valid": "true" if O.covers_space(rays, cones, rng) else "false",
                   "smooth": str(O.is_smooth(rays, cones)).lower(), "complete": "true"}
        elif argv[0] == "cohomology":
            a = [int(x) for x in argv[4].split(",")]
            dims = O.surface_dims(rays, a) if n == 2 and len(rays) > 3 else O.bott(n, sum(a))
            got = workloads.dims_result(dims)
        else:
            a = [int(x) for x in argv[4].split(",")]
            sizes = [len(O.lattice_points(rays, [x * 2 ** t for x in a], interior=True)) for t in range(4)]
            got = {"status": "pass", "level_basis_sizes": workloads.fmt(sizes),
                   "polytope_dim": str(O.polytope_dim(O.polytope_vertices(rays, a)))}
        check(got == want, f"baseline {entry['name']}: oracle {got}")


def check_oracles(rng):
    p2, p3 = workloads.NAMED["P2"], workloads.NAMED["P3"]
    for k in range(-8, 9):
        a2, a3 = (0, 0, k), (k, 0, 0, 0)
        check(O.bott(2, k) == O.surface_dims(p2[0], a2), f"Bott = Riemann-Roch/Serre on P2, O({k})")
        check(O.bott(2, k)[0] == len(O.lattice_points(p2[0], a2)), f"Bott h0 = lattice count on P2, O({k})")
        check(O.bott(3, k)[0] == len(O.lattice_points(p3[0], a3)), f"Bott h0 = lattice count on P3, O({k})")
        nef = O.nef_dims(*p3, a3, 3)
        check(nef is None or nef == O.bott(3, k), f"Demazure/Batyrev-Borisov = Bott on P3, O({k})")
    p1p1 = workloads.NAMED["P1xP1"]
    for _ in range(12):
        a = [rng.randint(-4, 4) for _ in range(4)]
        check(O.kunneth(O.bott(1, a[0] + a[2]), O.bott(1, a[1] + a[3])) == O.surface_dims(p1p1[0], a),
              f"Künneth = Riemann-Roch/Serre on P1xP1, D = {a}")


def check_traces(seed, seconds, measured):
    reached = set()
    for workload in sorted(workloads.WORKLOADS):
        proc = subprocess.run([sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed",
                               str(seed), "--seconds", str(seconds), "--trace", "1"],
                              cwd=run.ROOT, capture_output=True, text=True, check=False)
        check(proc.returncode == 0, f"{workload}: traced run exits 0")
        if proc.returncode:
            print(proc.stderr[-2000:])
            continue
        summary = json.loads(proc.stdout.splitlines()[-1])
        record = json.loads((run.HERE / "results" / f"{workload}-seed{seed}-trace1.json").read_text())
        metrics = summary["metrics"]
        check(summary["correct"] and summary["failed"] == 0, f"{workload}: {summary['attempted']} jobs, all correct")
        missing = [m for m in measured if m not in metrics]
        check(not missing, f"{workload}: every per-layer metric reported {missing or ''}")
        reached |= set(record["reached"])
        check(record["bindings"].get("validate_fan") == 6,
              f"{workload}: validate_fan wrapped in {record['bindings'].get('validate_fan')} modules")
        own = record["self_ms"]
        total = sum(own.values())
        job = metrics["trace.job_ms"]["value"]
        check(abs(total - job) <= 0.02 * job, f"{workload}: self times sum to {total:.2f} ms/job, "
              f"traced job time {job:.2f} ms/job, overhead {metrics['trace.overhead_share']['value']:+.3f}")
        shares = ", ".join(f"{k} {v / total:.2f}" for k, v in sorted(own.items(), key=lambda kv: -kv[1]))
        print(f"     {workload} self-time shares: {shares}")
        get = lambda *keys: sum(own.get(k, 0.0) for k in keys)  # noqa: E731
        others = lambda *keys: max(v for k, v in own.items() if k not in keys)  # noqa: E731
        if workload == "charts":
            check(get("cohomology.rank") > others("cohomology.rank"), "charts: rank calls are the largest layer")
        elif workload == "dilations":
            check(get("cohomology.scan", "cohomology") > others("cohomology.scan", "cohomology"),
                  "dilations: scan + per-point loop are the largest layer")
            check(get("cohomology.rank") < 0.1 * total, "dilations: rank calls are minor")
        else:
            check(get("fan", "polyhedra") > others("fan", "polyhedra"),
                  "fans: validation + polyhedra are the largest layer")
    unreached = spans.Tracer.names() - reached
    check(not unreached, f"every wrapped name reached on some workload {sorted(unreached) or ''}")


def main() -> int:
    rng = random.Random(run.DEFAULT_SEED)
    check_expected(rng)
    check_oracles(rng)
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_traces(run.DEFAULT_SEED, SECONDS, [m["name"] for m in bench["per_layer"]])
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
