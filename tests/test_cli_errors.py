"""The CLI's error paths, run through `cli.main`, against a golden transcript:
every missing required flag (alone, and with the flags after it, which pins
the order of the checks), bad divisors, unknown and unreadable fans,
invalid fan documents, a non-Cartier divisor, non-prime primes and negative
levels.  Stdout, stderr and exit code are recorded, with `timing_ms` masked.

The fan documents below are written to a temporary directory, which is the
working directory while the commands run, so their paths print as bare file
names.  Regenerate the golden file (only for an intended output change) with
`PYTHONPATH=src python tests/test_cli_errors.py > tests/cli_errors.golden`.
"""

import contextlib
import io
import os
import re
import shlex
import sys
import tempfile
from pathlib import Path

from toricpic.cli import main

GOLDEN = Path(__file__).with_name("cli_errors.golden")

# Required flags of each command, in the order they are checked, and a value
# for each that is accepted on P2.
REQUIRED = {
    "cocycle": ("divisor",),
    "polytope": ("divisor",),
    "cohomology": ("divisor",),
    "demazure": ("divisor",),
    "bb": ("divisor",),
    "perf-pic": ("p",),
    "perf-cohomology": ("degree", "nmax", "divisor", "p"),
    "perf-demazure": ("nmax", "divisor", "p"),
    "perf-bb": ("nmax", "divisor", "p"),
}
VALUES = {"divisor": "0,0,1", "p": "2", "degree": "0", "nmax": "1"}

FAN_DOCUMENTS = {
    "syntax.fan": "rank: 2\nrays:\n[1, x]\nmax_cones:\n[0]\n",
    "no-cones.fan": "rank: 2\nrays:\n[1, 0]\n[0, 1]\n",
    "zero-ray.fan": "rank: 2\nrays:\n[0, 0]\nmax_cones:\n[0]\n",
    "bad-index.fan": "rank: 2\nrays:\n[1, 0]\n[0, 1]\nmax_cones:\n[0, 5]\n",
    "short-ray.fan": "rank: 2\nrays:\n[1, 0]\n[1]\nmax_cones:\n[0, 1]\n",
    "overlap.fan": "rank: 2\nrays:\n[1, 0]\n[1, 2]\n[1, 1]\n[0, 1]\nmax_cones:\n[0, 1]\n[2, 3]\n",
    "line.fan": "rank: 2\nrays:\n[1, 0]\n[-1, 0]\n[0, 1]\nmax_cones:\n[0, 1, 2]\n",
    "redundant.fan": "rank: 2\nrays:\n[1, 0]\n[1, 1]\n[0, 1]\nmax_cones:\n[0, 1, 2]\n",
    "contained.fan": "rank: 2\nrays:\n[1, 0]\n[0, 1]\nmax_cones:\n[0, 1]\n[0]\n",
    "unused.fan": "rank: 2\nrays:\n[1, 0]\n[0, 1]\n[-1, -1]\nmax_cones:\n[0, 1]\n",
    "incomplete.fan": "rank: 2\nrays:\n[1, 0]\n[0, 1]\nmax_cones:\n[0, 1]\n",
    # The cone over the faces of [-1, 1]^3: complete, neither simplicial nor smooth.
    "cube.fan": "rank: 3\nrays:\n[-1, -1, -1]\n[-1, -1, 1]\n[-1, 1, -1]\n[-1, 1, 1]\n"
    "[1, -1, -1]\n[1, -1, 1]\n[1, 1, -1]\n[1, 1, 1]\nmax_cones:\n"
    "[0, 1, 2, 3]\n[4, 5, 6, 7]\n[0, 1, 4, 5]\n[2, 3, 6, 7]\n[0, 2, 4, 6]\n[1, 3, 5, 7]\n",
}


def commands() -> list[str]:
    out = []
    for command, flags in REQUIRED.items():
        for i, flag in enumerate(flags):
            # The flag alone missing, then it and every flag checked after it.
            for missing in dict.fromkeys([(flag,), flags[i:]]):
                given = "".join(f" --{f} {VALUES[f]}" for f in flags if f not in missing)
                out.append(f"toricpic {command} --fan named:P2{given}")
    for name in FAN_DOCUMENTS:
        out.append(f"toricpic validate --fan {name}")
        out.append(f"toricpic classgroup --fan {name}")
    out += [
        "toricpic cohomology --fan named:P2 --divisor 0,x,1",
        "toricpic cohomology --fan named:P2 --divisor ,",
        "toricpic cohomology --fan named:P2 --divisor 0,0",
        "toricpic polytope --fan named:P2 --divisor 0,0,1,1",
        "toricpic perf-cohomology --fan named:P2 --divisor 1 --p 2 --degree 0 --nmax 1",
        "toricpic cohomology --fan named:P9 --divisor 0,0,1",
        "toricpic picard --fan no-such.fan",
        "toricpic picard --fan incomplete.fan",
        "toricpic cohomology --fan incomplete.fan --divisor 0,0",
        "toricpic cocycle --fan named:P112 --divisor 1,0,0",
        "toricpic perf-demazure --fan named:P112 --divisor 1,0,0 --p 2 --nmax 1 --assume-trivialization",
        "toricpic perf-pic --fan named:P112 --p 2",
        "toricpic perf-pic --fan named:P2 --p 4",
        "toricpic perf-pic --fan named:P2 --p 1",
        "toricpic perf-bb --fan named:P2 --divisor 0,0,1 --p -3 --nmax 1",
        "toricpic cohomology --fan named:P2 --divisor 0,0,1 --modp-check 4",
        "toricpic cohomology --fan named:P2 --divisor 0,0,1 --modp-check 0",
        "toricpic perf-cohomology --fan named:P2 --divisor 0,0,1 --p 2 --degree 0 --nmax 1 --level -1",
        "toricpic perf-demazure --fan named:P2 --divisor 0,0,1 --p 2 --nmax 1 --level -2",
        "toricpic perf-cohomology --fan named:P2 --divisor 0,0,1 --p 2 --degree 0 --nmax -1",
        "toricpic perf-bb --fan named:P2 --divisor 0,0,1 --p 2 --nmax -1",
        "toricpic perf-cohomology --fan named:P2 --divisor 0,0,1 --p 2 --degree 3 --nmax 1",
    ]
    # A non-simplicial bundle passes the tower's entry and is refused by
    # cohomology's own gate, in every tower command.
    zero = "--divisor 0,0,0,0,0,0,0,0 --p 2 --nmax 1 --assume-trivialization"
    out += [
        f"toricpic perf-cohomology --fan cube.fan {zero} --degree 0",
        f"toricpic perf-demazure --fan cube.fan {zero}",
        f"toricpic perf-bb --fan cube.fan {zero}",
    ]
    return out


def transcript() -> str:
    parts = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in FAN_DOCUMENTS.items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for command in commands():
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(shlex.split(command)[1:])
                stdout = re.sub(r"^timing_ms: \d+$", "timing_ms: *", out.getvalue(), flags=re.M)
                parts.append(f"$ {command}\n{stdout}stderr: {err.getvalue()!r}\nexit: {code}\n")
        finally:
            os.chdir(cwd)
    return "\n".join(parts)


def test_cli_error_paths_match_golden():
    assert transcript() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    sys.stdout.write(transcript())
