"""Every command of the README `## CLI` block, run through `cli.main`, against
a golden transcript: stdout, stderr and exit code, with `timing_ms` masked.
The `## Library example` block is run too, and prints what its comments say.

Regenerate the golden file (only for an intended output change) with
`PYTHONPATH=src python tests/test_readme_cli.py > tests/readme_cli.golden`.
"""

import contextlib
import io
import re
import shlex
import sys
from pathlib import Path

from toricpic.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("readme_cli.golden")


def readme_commands() -> list[str]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("toricpic ")]


def transcript() -> str:
    parts = []
    for command in readme_commands():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(shlex.split(command)[1:])
        stdout = re.sub(r"^timing_ms: \d+$", "timing_ms: *", out.getvalue(), flags=re.M)
        parts.append(f"$ {command}\n{stdout}stderr: {err.getvalue()!r}\nexit: {code}\n")
    return "\n".join(parts)


def test_readme_cli_matches_golden():
    assert len(readme_commands()) >= 12
    assert transcript() == GOLDEN.read_text(encoding="utf-8")


def readme_library_example() -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library example\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_example_prints_its_comments():
    code = readme_library_example()
    expected = [line.split("#", 1)[1].strip().strip('"') for line in code.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == expected == ["{0: 10, 1: 0, 2: 0}", "vanishes"]


if __name__ == "__main__":
    sys.stdout.write(transcript())
