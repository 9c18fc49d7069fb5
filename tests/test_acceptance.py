"""Acceptance criteria, one test per criterion, all exact (tolerance zero).

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.
"""

import random
from contextlib import contextmanager
from itertools import product

from toricpic.cohomology import (
    cohomology,
    graded_piece_cohomology,
    support_region,
)
from toricpic.divisor import (
    TDivisor,
    check_cocycle,
    cocycle_class_equal,
    divisor_polytope,
    divisor_to_cocycle,
    is_basepoint_free,
    picard_embedding,
    picard_group,
    principal_divisor,
    pullback_by_power_map,
)
from toricpic.fan import Fan, validate_fan
from toricpic.library import named_fan
from toricpic.perfectoid import (
    STABILIZES,
    VANISHES,
    cohomology_series,
    formal_root,
    frobenius_pullback,
    from_divisor,
    inverse,
    perfectoid_pic,
    polytope_dimension,
    tensor,
    trivial_bundle,
)

SMOOTH_FANS = ("P1", "P2", "P3", "P1xP1", "F1", "F2", "F3")


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"[criterion {number}] FAIL  {description}")
        raise
    print(f"[criterion {number}] PASS  {description}")


def hyperplane(d):
    return TDivisor((0, 0, d))


def simplex_points(d, interior):
    """Enumeration oracle: lattice points of d*(standard 2-simplex)."""
    pts = []
    for x in range(-1, abs(d) + 2):
        for y in range(-1, abs(d) + 2):
            if interior:
                if x > 0 and y > 0 and x + y < d:
                    pts.append((x, y))
            elif x >= 0 and y >= 0 and x + y <= d:
                pts.append((x, y))
    return pts


def test_criterion_1_picard_groups():
    with criterion(1, "Picard groups of the named fans"):
        assert picard_group(named_fan("P2")).describe() == "Z"
        assert picard_group(named_fan("P3")).describe() == "Z"
        assert picard_group(named_fan("P1xP1")).describe() == "Z^2"
        assert picard_group(named_fan("F1")).describe() == "Z^2"
        p112 = named_fan("P112")
        assert picard_group(p112).describe() == "Z"
        assert picard_embedding(p112).index == 2
        from toricpic.divisor import class_group

        assert class_group(p112).presentation.describe() == "Z"


def test_criterion_2_power_map_action():
    with criterion(2, "power-map pullback is multiplication by t on classes"):
        rng = random.Random(101)
        for name in SMOOTH_FANS:
            fan = named_fan(name)
            for _ in range(25):
                d = TDivisor(tuple(rng.randint(-4, 4) for _ in fan.rays))
                alpha = divisor_to_cocycle(fan, d)
                for t in (2, 3, 5):
                    pulled = pullback_by_power_map(alpha, t)
                    direct = divisor_to_cocycle(fan, t * d)
                    assert cocycle_class_equal(fan, pulled, direct), (name, d, t)


def test_criterion_3_cohomology_vs_lattice_counts():
    with criterion(3, "brute Čech equals lattice enumeration on P2"):
        p2 = named_fan("P2")
        for d in range(6):
            table = cohomology(p2, hyperplane(d))
            assert table.dims[0] == len(simplex_points(d, False)), d
            assert table.dims[1] == 0 and table.dims[2] == 0, d
        for d in range(1, 6):
            table = cohomology(p2, hyperplane(-d))
            assert table.dims[0] == 0 and table.dims[1] == 0, d
            assert table.dims[2] == len(simplex_points(d, True)), d


def test_criterion_4_demazure_grid():
    with criterion(4, "Demazure vanishing on the full {0,1,2} coefficient grid"):
        checked = 0
        for name in ("P2", "P1xP1", "F1"):
            fan = named_fan(name)
            for coeffs in product((0, 1, 2), repeat=len(fan.rays)):
                d = TDivisor(coeffs)
                if not is_basepoint_free(fan, d):
                    continue
                table = cohomology(fan, d)
                for i in range(1, fan.rank + 1):
                    assert table.dims[i] == 0, (name, coeffs, i)
                checked += 1
        assert checked > 50  # the grid actually contains basepoint-free divisors


def test_criterion_5_perfectoid_picard_and_bundle_arithmetic():
    with criterion(5, "Pic of the cover is Z[1/2] on P2; bundle arithmetic is a group"):
        p2 = named_fan("P2")
        assert perfectoid_pic(p2, 2).describe() == "Z[1/2]"
        rng = random.Random(103)
        triv = trivial_bundle(p2, 2)
        for _ in range(50):
            d1 = TDivisor(tuple(rng.randint(-4, 4) for _ in p2.rays))
            d2 = TDivisor(tuple(rng.randint(-4, 4) for _ in p2.rays))
            k1, k2 = rng.randint(0, 3), rng.randint(0, 3)
            a = from_divisor(p2, d1, 2, k1)
            b = from_divisor(p2, d2, 2, k2)
            # Normalization identity of the p-th-root bookkeeping.
            assert from_divisor(p2, 2 * d1, 2, k1 + 1) == a
            # Group axioms.
            assert tensor(a, b) == tensor(b, a)
            assert tensor(a, triv) == a
            assert tensor(a, inverse(a)) == triv
            # Frobenius and its root invert each other.
            assert frobenius_pullback(formal_root(a)) == a
            assert formal_root(frobenius_pullback(a)) == a


def test_criterion_6_perfectoid_cohomology_series():
    with criterion(6, "level series of (3H)^{-1} matches enumerated interior counts"):
        p2 = named_fan("P2")
        bundle = inverse(from_divisor(p2, hyperplane(3), 2, 0))
        series = cohomology_series(bundle, 2, 2)
        expected = tuple(len(simplex_points(3 * 2 ** n, True)) for n in range(3))
        assert series.dims == expected
        assert series.verdict == STABILIZES
        for n in range(2):
            nxt = set(series.bases[n + 1])
            for m in series.bases[n]:
                assert tuple(2 * x for x in m) in nxt, (n, m)


def test_criterion_7_perfectoid_demazure():
    with criterion(7, "perfectoid Demazure vanishing for square roots of ample classes"):
        p2 = named_fan("P2")
        half_h = from_divisor(p2, hyperplane(1), 2, 1)
        for i in (1, 2):
            assert cohomology_series(half_h, i, 4).verdict == VANISHES
        p1xp1 = named_fan("P1xP1")
        half_h1h2 = from_divisor(p1xp1, (0, 0, 1, 1), 2, 1)
        for i in (1, 2):
            assert cohomology_series(half_h1h2, i, 4).verdict == VANISHES


def test_criterion_8_property_suites():
    rng = random.Random(107)

    with criterion(8, "property suites (order-independence, invariances, sampling)"):
        # Fan validation order-independence.
        for name in ("P2", "P1xP1", "F2", "P112"):
            fan = named_fan(name)
            base = validate_fan(fan)
            for _ in range(3):
                perm = list(range(len(fan.rays)))
                rng.shuffle(perm)
                inv = {old: new for new, old in enumerate(perm)}
                rays = [fan.rays[old] for old in perm]
                cones = [[inv[i] for i in c.ray_indices] for c in fan.max_cones]
                rng.shuffle(cones)
                other = validate_fan(Fan(fan.rank, rays, cones))
                assert (base.valid, base.smooth, base.complete) == (
                    other.valid,
                    other.smooth,
                    other.complete,
                )

        # Polytope translation and scaling invariances.
        for name in ("P2", "F1"):
            fan = named_fan(name)
            for _ in range(10):
                d = TDivisor(tuple(rng.randint(-2, 4) for _ in fan.rays))
                m = tuple(rng.randint(-3, 3) for _ in range(fan.rank))
                p = divisor_polytope(fan, d)
                q = divisor_polytope(fan, d + principal_divisor(fan, m))
                assert q.dim == p.dim
                assert {tuple(a + b for a, b in zip(v, m)) for v in q.vertices} == set(p.vertices)
                for t in (2, 3):
                    s = divisor_polytope(fan, t * d)
                    assert s.dim == p.dim
                    assert {tuple(t * x for x in v) for v in p.vertices} == set(s.vertices)

        # Support-region outside sampling: 100 samples per fan/divisor.
        cases = [
            (named_fan("P2"), hyperplane(2)),
            (named_fan("P2"), hyperplane(-3)),
            (named_fan("P1xP1"), TDivisor((1, 0, 2, 1))),
            (named_fan("F1"), TDivisor((-1, 2, 1, 0))),
        ]
        for fan, d in cases:
            region = support_region(fan, d)
            lo = [b[0] - 10 for b in region.box]
            hi = [b[1] + 10 for b in region.box]
            checked = 0
            while checked < 100:
                m = tuple(rng.randint(lo[i], hi[i]) for i in range(fan.rank))
                if region.contains(m):
                    continue
                assert graded_piece_cohomology(fan, d, m) == [0] * (fan.rank + 1)
                checked += 1

        # Cocycle antisymmetry and cocycle identity on every generated cocycle.
        for name in SMOOTH_FANS:
            fan = named_fan(name)
            for _ in range(5):
                d = TDivisor(tuple(rng.randint(-3, 3) for _ in fan.rays))
                alpha = divisor_to_cocycle(fan, d)
                check_cocycle(fan, alpha)
                r = alpha.num_cones
                for i in range(r):
                    for j in range(r):
                        assert alpha.entry(i, j) == tuple(-x for x in alpha.entry(j, i))

        # Polytope dimension is representative-independent.
        p2 = named_fan("P2")
        for _ in range(15):
            d = TDivisor(tuple(rng.randint(-3, 3) for _ in p2.rays))
            m = tuple(rng.randint(-3, 3) for _ in range(2))
            l1 = from_divisor(p2, d, 2, 0)
            l2 = from_divisor(p2, d + principal_divisor(p2, m), 2, 0)
            l3 = from_divisor(p2, 4 * d, 2, 2)
            assert polytope_dimension(l1) == polytope_dimension(l2) == polytope_dimension(l3)
