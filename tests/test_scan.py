"""The integer lattice-point scanner against a Fraction reference scan, and
the refusal of boxes too large to scan."""

import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from scan_oracle import fraction_scan, holds, polytope_lattice_points, rational_support_rows

import toricpic
from toricpic.cohomology import support_region
from toricpic.divisor import TDivisor, divisor_polytope, lattice_points
from toricpic.errors import InputError
from toricpic.lattice import SCAN_LIMIT, _scan_box, require_scannable
from toricpic.library import NAMED_FAN_NAMES, named_fan

P2 = named_fan("P2")


def random_rhs(rng):
    return Fraction(rng.randint(-30, 30), rng.choice((1, 1, 2, 3, 5)))


def random_region(rng):
    """A box (some sides empty) and rational rows, with an equation given as
    a pair of opposite rows in about a third of the regions."""
    n = rng.randint(1, 4)
    box = []
    for _ in range(n):
        lo = rng.randint(-6, 3)
        box.append((lo, lo + rng.randint(-2 if rng.random() < 0.1 else 0, 7 - n)))
    rows = []
    for _ in range(rng.randint(0, 5)):
        normal = tuple(rng.randint(-3, 3) for _ in range(n))
        rows.append((normal, random_rhs(rng)))
    if rng.random() < 0.35:
        normal = tuple(rng.randint(-2, 2) for _ in range(n))
        value = random_rhs(rng) if rng.random() < 0.3 else Fraction(rng.randint(-4, 4))
        rows.append((normal, value))
        rows.append((tuple(-c for c in normal), -value))
    return box, rows


def test_integer_scan_matches_fraction_reference():
    rng = random.Random(71)
    seen = {"empty box": 0, "non-integer rhs": 0, "negative rhs": 0, "equation": 0, "points": 0,
            "rank 1": 0, "zero last coefficient": 0, "negative last coefficient": 0,
            "empty interval": 0}
    for _ in range(600):
        box, rows = random_region(rng)
        strict = {k for k in range(len(rows)) if rng.random() < 0.3}
        ceiled = [(normal, math.ceil(rhs)) for normal, rhs in rows]
        assert _scan_box(box, ceiled) == fraction_scan(box, rows), (box, rows)
        # A strict row normal·m > rhs is normal·m >= floor(rhs) + 1.
        mixed = [
            (normal, math.floor(rhs) + 1 if k in strict else math.ceil(rhs))
            for k, (normal, rhs) in enumerate(rows)
        ]
        expected = fraction_scan(box, rows, strict)
        assert _scan_box(box, mixed) == expected, (box, rows, strict)
        seen["empty box"] += any(lo > hi for lo, hi in box)
        seen["non-integer rhs"] += any(rhs.denominator > 1 for _, rhs in rows)
        seen["negative rhs"] += any(rhs < 0 for _, rhs in rows)
        seen["equation"] += any(
            tuple(-c for c in a) == b and -r == s for (a, r), (b, s) in zip(rows, rows[1:])
        )
        seen["points"] += bool(expected)
        # The scanner bounds the last coordinate per prefix of the others: an
        # empty prefix at rank 1, a test of the prefix alone when the last
        # coefficient is 0, an upper bound when it is negative, and no
        # points for a nonempty prefix whose interval is empty.
        seen["rank 1"] += len(box) == 1
        seen["zero last coefficient"] += any(normal[-1] == 0 for normal, _ in rows)
        seen["negative last coefficient"] += any(normal[-1] < 0 for normal, _ in rows)
        prefixes = set(product(*(range(lo, hi + 1) for lo, hi in box[:-1])))
        last_lo, last_hi = box[-1]
        seen["empty interval"] += last_lo <= last_hi and bool(
            prefixes - {m[:-1] for m in expected}
        )
    assert all(count >= 20 for count in seen.values()), seen


def test_scan_keeps_product_order_and_unit_thresholds():
    box = ((-1, 1), (0, 2))
    assert _scan_box(box, []) == list(product(range(-1, 2), range(0, 3)))
    # x + y >= 3/2 and x + y <= 3/2 have no integer solution.
    rows = [((1, 1), math.ceil(Fraction(3, 2))), ((-1, -1), math.ceil(Fraction(-3, 2)))]
    assert _scan_box(box, rows) == []
    assert _scan_box(((2, 1), (0, 5)), []) == []


def test_support_region_matches_fraction_reference():
    rng = random.Random(73)
    lower_dimensional = 0
    cases = 0
    for name in NAMED_FAN_NAMES:
        fan = named_fan(name)
        if not fan.max_cones or any(len(c.ray_indices) != fan.rank for c in fan.max_cones):
            continue
        divisors = [TDivisor((0,) * len(fan.rays))]
        divisors += [TDivisor(tuple(rng.randint(-3, 3) for _ in fan.rays)) for _ in range(4)]
        for d in divisors:
            try:
                region = support_region(fan, d)
            except InputError:
                continue  # not Cartier
            facet_rows, equation_rows = rational_support_rows(fan, d)
            rows = facet_rows + equation_rows
            assert region.points() == fraction_scan(region.box, rows), (name, d)
            wide = [(lo - 2, hi + 2) for lo, hi in region.box]
            for m in product(*(range(lo, hi + 1) for lo, hi in wide)):
                assert region.contains(m) == all(holds(n, rhs, m) for n, rhs in rows), (name, d, m)
            assert all(type(t) is int for _, t in region.inequalities)
            lower_dimensional += bool(equation_rows)
            cases += 1
    assert cases >= 30 and lower_dimensional >= 5, (cases, lower_dimensional)


def test_lattice_points_match_fraction_reference():
    rng = random.Random(79)
    fans = [named_fan(name) for name in ("P2", "P1xP1", "F1", "F2", "P112", "P3")]
    dims = set()
    for _ in range(160):
        fan = rng.choice(fans)
        d = TDivisor(tuple(rng.randint(-2, 4) for _ in fan.rays))
        polytope = divisor_polytope(fan, d)
        for interior in (False, True):
            assert lattice_points(polytope, interior) == polytope_lattice_points(
                polytope, interior
            ), (fan.rays, d, interior)
        dims.add((fan.rank, polytope.dim))
    # Full-dimensional, lower-dimensional and empty polytopes all occur.
    assert {(2, 2), (2, 1), (2, 0), (2, -1), (3, 3)} <= dims, dims
    assert any(rank > dim >= 0 for rank, dim in dims)


def bott(n, d):
    """dim H^i(P^n, O(d)) for i = 0..n (Bott's formula)."""
    dims = {i: 0 for i in range(n + 1)}
    if d >= 0:
        dims[0] = math.comb(n + d, n)
    elif d <= -n - 1:
        dims[n] = math.comb(-d - 1, n)
    return dims


def kunneth(a, b):
    """dim H^i(P1 x P1, O(a, b)) for i = 0..2, from the line's h^0 and h^1."""
    line = lambda d: (max(d + 1, 0), max(-d - 1, 0))  # noqa: E731
    (a0, a1), (b0, b1) = line(a), line(b)
    return {0: a0 * b0, 1: a0 * b1 + a1 * b0, 2: a1 * b1}


def test_bench_scale_dims_match_closed_forms():
    """Dilations at the size of the benchmark: dims against Bott and
    Künneth, and the graded h^0 degrees against the Fraction scan of P_D."""
    start = time.process_time()
    cases = [(named_fan("P2"), (0, 0, s * t), bott(2, s * t)) for t in (20, 50, 80) for s in (1, -1)]
    cases += [(named_fan("P3"), (0, 0, 0, s * t), bott(3, s * t)) for t in (6, 13) for s in (1, -1)]
    cases += [
        (named_fan("P1xP1"), (a, b, 0, 0), kunneth(a, b))
        for a, b in ((30, 25), (30, -20), (-25, 40), (-30, -30), (17, -2))
    ]
    graded = 0
    for fan, coeffs, expected in cases:
        d = TDivisor(coeffs)
        table = toricpic.cohomology(fan, d, want_graded=sum(coeffs) > 0)
        assert table.dims == expected, (fan.rays, coeffs)
        if table.graded is not None:
            h0 = [m for m, mult in table.graded[0] for _ in range(mult)]
            assert h0 == polytope_lattice_points(divisor_polytope(fan, d)), (fan.rays, coeffs)
            graded += 1
    assert graded == 9
    assert time.process_time() - start < 2.0


def test_oversized_box_refused():
    assert require_scannable(((0, 999), (1, 1000))) == SCAN_LIMIT
    with pytest.raises(InputError, match=str(SCAN_LIMIT + 1000)):
        _scan_box(((0, 1000), (1, 1000)), [])
    # An empty side makes the box empty, however long the other sides are.
    assert _scan_box(((0, 10**30), (1, 0)), []) == []
    assert _scan_box(((0, 10**30), (2, 0)), []) == []
    with pytest.raises(InputError, match="lattice points"):
        lattice_points(divisor_polytope(P2, (0, 0, 10**4)))


def test_huge_support_region_refused_quickly():
    start = time.process_time()
    with pytest.raises(InputError, match="above the limit"):
        support_region(P2, TDivisor((0, 0, 10**9)))
    assert time.process_time() - start < 1.0


@pytest.mark.parametrize("divisor", ["0,0,99999999999999999999", "0,0,9999999999"])
def test_cli_refuses_huge_divisor(divisor):
    src = str(Path(toricpic.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "toricpic", "cohomology", "--fan", "named:P2", "--divisor", divisor],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "above the limit" in proc.stderr
    assert "status: input-error" in proc.stdout
