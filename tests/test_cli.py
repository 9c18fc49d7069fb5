"""CLI: fan document parsing, dispatch, report format, exit codes."""

import contextlib
import importlib
import io
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from picard_oracle import cube_fan

import toricpic
from toricpic.cli import COMMANDS, JobSpec, load_fan, main, parse_fan_file, run, serialize_fan
from toricpic.errors import ConsistencyError, FanParseError
from toricpic.library import NAMED_FAN_NAMES, named_fan

P2_DOC = """\
# the projective plane
rank: 2
rays:
[1, 0]
[0, 1]
[-1, -1]
max_cones:
[0, 1]
[1, 2]
[2, 0]
"""


def test_parse_p2_document():
    fan = parse_fan_file(P2_DOC)
    assert fan.rank == 2
    assert fan.rays == ((1, 0), (0, 1), (-1, -1))
    assert len(fan.max_cones) == 3


def test_round_trip():
    fan = parse_fan_file(P2_DOC)
    again = parse_fan_file(serialize_fan(fan))
    assert again == fan


def test_round_trip_named_fans():
    from toricpic.library import NAMED_FAN_NAMES

    for name in NAMED_FAN_NAMES:
        fan = named_fan(name)
        assert parse_fan_file(serialize_fan(fan)) == fan


def test_missing_max_cones_is_semantic_error():
    doc = "rank: 2\nrays:\n[1, 0]\n[0, 1]\n"
    with pytest.raises(FanParseError) as err:
        parse_fan_file(doc)
    assert err.value.kind == "semantic"
    assert "max_cones" in str(err.value)


def test_zero_ray_is_semantic_error():
    doc = "rank: 2\nrays:\n[0, 0]\nmax_cones:\n[0]\n"
    with pytest.raises(FanParseError) as err:
        parse_fan_file(doc)
    assert err.value.kind == "semantic"
    assert "zero ray" in str(err.value)
    assert err.value.line == 3


def test_syntax_error_reports_line():
    doc = "rank: 2\nrays:\n[1, x]\nmax_cones:\n[0]\n"
    with pytest.raises(FanParseError) as err:
        parse_fan_file(doc)
    assert err.value.kind == "syntax"
    assert err.value.line == 3


def test_inline_section_value_rejected():
    doc = "rank: 2\nrays: [1, 0]\nmax_cones:\n[0]\n"
    with pytest.raises(FanParseError) as err:
        parse_fan_file(doc)
    assert err.value.line == 2


def test_unknown_field_rejected():
    doc = "rank: 2\nspam: 3\nrays:\n[1, 0]\nmax_cones:\n[0]\n"
    with pytest.raises(FanParseError) as err:
        parse_fan_file(doc)
    assert err.value.kind == "semantic"


def test_comments_and_whitespace_insensitive():
    doc = "  rank :  2  # dim\nrays:  \n  [ 1 , 0 ]\n[0,1]  # second\n[-1,-1]\nmax_cones:\n[0,1]\n[1,2]\n[0,2]\n"
    fan = parse_fan_file(doc)
    assert fan.rays == ((1, 0), (0, 1), (-1, -1))


def test_load_named_fan():
    assert load_fan("named:P2") == named_fan("P2")


def run_main(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cohomology_command(capsys):
    code, out, err = run_main(
        ["cohomology", "--fan", "named:P2", "--divisor", "-3,0,0"], capsys
    )
    assert code == 0
    assert "h^0: 0" in out
    assert "h^1: 0" in out
    assert "h^2: 1" in out
    assert "ray_labels:" in out


def test_perf_pic_command(capsys):
    code, out, _ = run_main(["perf-pic", "--fan", "named:P2", "--p", "2"], capsys)
    assert code == 0
    assert "perfectoid_picard: Z[1/2]" in out


def test_validate_invalid_fan_exits_2(tmp_path, capsys):
    doc = "rank: 2\nrays:\n[1, 0]\n[1, 2]\n[1, 1]\n[0, 1]\nmax_cones:\n[0, 1]\n[2, 3]\n"
    path = tmp_path / "bad.fan"
    path.write_text(doc)
    code, out, err = run_main(["validate", "--fan", str(path)], capsys)
    assert code == 2
    assert "valid: false" in out
    assert "not a common face" in err


def test_validate_good_fan(capsys):
    code, out, _ = run_main(["validate", "--fan", "named:F1"], capsys)
    assert code == 0
    assert "valid: true" in out
    assert "smooth: true" in out
    assert "complete: true" in out


def test_classgroup_command(capsys):
    code, out, _ = run_main(["classgroup", "--fan", "named:F1"], capsys)
    assert code == 0
    assert "class_group: Z^2" in out


def test_picard_command_p112(capsys):
    code, out, _ = run_main(["picard", "--fan", "named:P112"], capsys)
    assert code == 0
    assert "picard_group: Z" in out
    assert "index_in_class_group: 2" in out


def test_picard_command_cube_fan_index_infinite(tmp_path, capsys):
    # Non-simplicial: CDiv_T(X) has rank 4 in Z^8, so Pic(X) = Z has
    # infinite index in Cl(X) = Z^5 + Z/2 + Z/2.
    path = tmp_path / "cube.fan"
    path.write_text(serialize_fan(cube_fan()))
    code, out, _ = run_main(["picard", "--fan", str(path)], capsys)
    assert code == 0
    assert "picard_group: Z\n" in out
    assert "index_in_class_group: infinite" in out


def test_cocycle_command(capsys):
    code, out, _ = run_main(
        ["cocycle", "--fan", "named:P2", "--divisor", "0,0,1"], capsys
    )
    assert code == 0
    assert "witnesses:" in out
    assert "m_0_1:" in out


def test_polytope_command(capsys):
    code, out, _ = run_main(
        ["polytope", "--fan", "named:P2", "--divisor", "0,0,3"], capsys
    )
    assert code == 0
    assert "dim: 2" in out
    assert "lattice_points: 10" in out
    assert "interior_points: 1" in out


def test_demazure_command_pass(capsys):
    code, out, _ = run_main(
        ["demazure", "--fan", "named:P2", "--divisor", "0,0,2"], capsys
    )
    assert code == 0
    assert "status: pass" in out


def test_demazure_not_applicable(capsys):
    code, out, _ = run_main(
        ["demazure", "--fan", "named:P2", "--divisor", "0,0,-1"], capsys
    )
    assert code == 0
    assert "status: not-applicable" in out


def test_bb_command(capsys):
    code, out, _ = run_main(["bb", "--fan", "named:P2", "--divisor", "0,0,3"], capsys)
    assert code == 0
    assert "status: pass" in out
    assert "basis_degrees: [[-1, -1]]" in out


def test_perf_cohomology_command(capsys):
    code, out, _ = run_main(
        [
            "perf-cohomology",
            "--fan",
            "named:P2",
            "--divisor",
            "0,0,-3",
            "--p",
            "2",
            "--degree",
            "2",
            "--nmax",
            "2",
        ],
        capsys,
    )
    assert code == 0
    assert "dims: [1, 10, 55]" in out
    assert "verdict: stabilizes-to-basis" in out


def test_perf_demazure_command(capsys):
    code, out, _ = run_main(
        [
            "perf-demazure",
            "--fan",
            "named:P2",
            "--divisor",
            "0,0,1",
            "--p",
            "2",
            "--level",
            "1",
            "--nmax",
            "3",
        ],
        capsys,
    )
    assert code == 0
    assert "status: pass" in out


def test_perf_bb_command(capsys):
    code, out, _ = run_main(
        [
            "perf-bb",
            "--fan",
            "named:P2",
            "--divisor",
            "0,0,3",
            "--p",
            "2",
            "--nmax",
            "2",
        ],
        capsys,
    )
    assert code == 0
    assert "level_basis_sizes: [1, 10, 55]" in out


def test_missing_required_flag_exits_2(capsys):
    code, out, err = run_main(["cohomology", "--fan", "named:P2"], capsys)
    assert code == 2
    assert "requires --divisor" in err


def test_unknown_command_exits_2():
    report = run(JobSpec(command="nope", fan_source="named:P2"))
    assert report.exit_code == 2
    assert report.status == "input-error"
    assert report.diagnostics == ["unknown command 'nope'"]


def test_non_cartier_input_exits_2(capsys):
    code, out, err = run_main(
        ["cocycle", "--fan", "named:P112", "--divisor", "1,0,0"], capsys
    )
    assert code == 2
    assert "not Cartier" in err


def test_modp_check_flag(capsys):
    code, out, _ = run_main(
        ["cohomology", "--fan", "named:P2", "--divisor", "0,0,-3", "--modp-check", "5"],
        capsys,
    )
    assert code == 0
    assert "modp_check_5: agree" in out


def test_results_deterministic():
    job = JobSpec(command="cohomology", fan_source="named:P2", divisor=(0, 0, -3))
    first = run(job).render()
    second = run(job).render()
    strip = lambda text: "\n".join(
        line for line in text.splitlines() if not line.startswith("timing_ms")
    )
    assert strip(first) == strip(second)


def test_module_entry_point():
    # The child imports the package the tests import, also when only
    # pytest's own pythonpath setting put it on the path.
    src = str(Path(toricpic.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "toricpic", "perf-pic", "--fan", "named:P2", "--p", "2"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "Z[1/2]" in proc.stdout


@pytest.mark.parametrize(
    "argv, count",
    [
        (["perf-cohomology", "--degree", "0"], 16387**2),  # support region of 2^14·H
        (["perf-demazure"], 16387**2),
        (["perf-bb"], 16385**2),  # lattice points of 2^14·P_H
    ],
)
def test_cli_refuses_oversized_tower_up_front(argv, count, capsys):
    # The top level's box is the largest, so it is refused before level 0.
    tower = ["--fan", "named:P2", "--divisor", "0,0,1", "--p", "2", "--nmax", "14"]
    start = time.process_time()
    code, out, err = run_main(argv + tower, capsys)
    elapsed = time.process_time() - start
    assert code == 2
    assert "status: input-error" in out
    assert f"scan box has {count} lattice points, above the limit" in err
    assert elapsed < 0.5


@pytest.mark.parametrize(
    "argv, degree",
    [
        (["demazure", "--divisor", "0,0,2"], 1),
        (["bb", "--divisor", "0,0,3"], 0),
        (["perf-demazure", "--divisor", "0,0,1", "--p", "2", "--nmax", "1"], 1),
        (["perf-bb", "--divisor", "0,0,3", "--p", "2", "--nmax", "1"], 0),
    ],
)
def test_failed_theorem_check_exits_1(argv, degree, monkeypatch, capsys):
    # A corrupted engine moves every piece's dimensions up one degree, h^rank
    # wrapping round to h^0, so each vanishing theorem sees a wrong degree.
    engine = importlib.import_module("toricpic.cohomology")
    honest = engine._pattern_dims
    monkeypatch.setattr(engine, "_pattern_dims", lambda *args: (lambda d: d[-1:] + d[:-1])(honest(*args)))
    code, out, _ = run_main([argv[0], "--fan", "named:P2", *argv[1:]], capsys)
    assert code == 1
    assert "  status: fail\n" in out
    assert f"  offending_degree: {degree}\n" in out
    assert out.endswith("status: check-failed\ntiming_ms: " + out.rsplit("timing_ms: ", 1)[1])


def test_modp_disagreement_exits_1(monkeypatch, capsys):
    # A rank over GF(p) one too large must surface as a failed check.
    engine = importlib.import_module("toricpic.cohomology")
    honest = engine.rank_mod_p
    monkeypatch.setattr(engine, "rank_mod_p", lambda rows, p: honest(rows, p) + 1)
    with pytest.raises(ConsistencyError):
        engine.cohomology(named_fan("P2"), (0, 0, 1), check_prime=5)
    code, out, err = run_main(
        ["cohomology", "--fan", "named:P2", "--divisor", "0,0,1", "--modp-check", "5"], capsys
    )
    assert code == 1
    assert "status: check-failed" in out
    assert "graded ranks differ between Q and GF(5)" in err


def _random_fan_document(rng) -> str:
    n = rng.randint(1, 3)
    rays = [[rng.randint(-2, 2) for _ in range(n + (rng.random() < 0.05))] for _ in range(rng.randint(1, n + 3))]
    cones = [rng.sample(range(len(rays) + 1), rng.randint(1, min(n, len(rays)) + 1)) for _ in range(rng.randint(1, 5))]
    lines = [f"rank: {n}", "rays:", *map(str, rays), "max_cones:", *map(str, cones)]
    if rng.random() < 0.1:
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(["[1, x]", "rank:", "spam: 1", "[]", "rays: [1]"]))
    return "\n".join(lines) + "\n"


def _random_argv(rng, fan_path) -> list[str]:
    command = rng.choice(list(COMMANDS))
    fan = rng.choice([fan_path, f"named:{rng.choice(NAMED_FAN_NAMES)}", f"named:{rng.choice(NAMED_FAN_NAMES)}"])
    argv = [command, "--fan", fan]
    if rng.random() < 0.8:
        length = rng.choice([2, 3, 3, 3, 4, 4])
        argv += ["--divisor", ",".join(str(rng.randint(-2, 2)) for _ in range(length))]
    for flag, values in (
        ("--p", (-1, 0, 1, 2, 2, 3, 4)),
        ("--level", (-1, 0, 1, 2)),
        ("--degree", (-1, 0, 1, 2, 4)),
        ("--nmax", (-1, 0, 1, 2)),
        ("--modp-check", (0, 2, 3, 4)),
    ):
        if rng.random() < (0.2 if flag == "--modp-check" else 0.7):
            argv += [flag, str(rng.choice(values))]
    argv += [flag for flag in ("--graded", "--assume-trivialization") if rng.random() < 0.3]
    return argv


def test_fuzzed_jobs_exit_cleanly(tmp_path):
    # Seeded argparse-valid argv over random fan documents: every job ends
    # with an exit code, never with an exception.
    rng = random.Random(4021)
    codes = {0: 0, 1: 0, 2: 0}
    sink = io.StringIO()
    for trial in range(400):
        path = tmp_path / f"fan{trial}.fan"
        path.write_text(_random_fan_document(rng), encoding="utf-8")
        argv = _random_argv(rng, str(path))
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main(argv)
        assert code in codes, argv
        codes[code] += 1
    assert codes[0] >= 80 and codes[2] >= 80, codes
