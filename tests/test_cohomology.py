"""Graded cohomology, vanishing checks, support-region soundness, and the
negative-cone engine against the Čech oracle and Serre duality."""

import importlib
import random
from itertools import product

import pytest
from cech_oracle import cech_cohomology, cech_pattern_dims, sign_pattern, support_complex

from toricpic.cohomology import (
    batyrev_borisov_check,
    cohomology,
    demazure_vanishing_check,
    graded_piece_cohomology,
    support_region,
)
from toricpic.divisor import (
    TDivisor,
    divisor_polytope,
    is_basepoint_free,
    is_cartier,
    lattice_points,
    principal_divisor,
)
from toricpic.errors import HypothesisError, InputError
from toricpic.fan import Fan
from toricpic.library import NAMED_FAN_NAMES, named_fan

P2 = named_fan("P2")
P1xP1 = named_fan("P1xP1")
F1 = named_fan("F1")


def hyperplane(d):
    return TDivisor((0, 0, d))


def simplex_count(d, interior):
    """Brute count of lattice points of d*(standard 2-simplex)."""
    total = 0
    for x in range(-1, abs(d) + 2):
        for y in range(-1, abs(d) + 2):
            inside = x >= 0 and y >= 0 and x + y <= d
            strict = x > 0 and y > 0 and x + y < d
            total += strict if interior else inside
    return total


def test_graded_piece_in_polytope():
    assert graded_piece_cohomology(P2, hyperplane(3), (1, 1)) == [1, 0, 0]


def test_graded_piece_top_degree():
    assert graded_piece_cohomology(P2, hyperplane(-3), (-1, -1)) == [0, 0, 1]


def test_graded_piece_full_simplex_support():
    # Any degree inside P_D sees the full simplex, which is contractible.
    for d in (0, 1, 2):
        for m in lattice_points(divisor_polytope(P2, hyperplane(d))):
            assert graded_piece_cohomology(P2, hyperplane(d), m) == [1, 0, 0]


def test_support_complex_upward_closed():
    rng = random.Random(37)
    for fan in (P2, P1xP1, F1):
        for _ in range(10):
            d = TDivisor(tuple(rng.randint(-3, 3) for _ in fan.rays))
            m = tuple(rng.randint(-6, 6) for _ in range(fan.rank))
            present = set(support_complex(fan, d, m))
            universe = range(len(fan.max_cones))
            for face in present:
                for extra in universe:
                    if extra not in face:
                        bigger = tuple(sorted(face + (extra,)))
                        assert bigger in present
            # The full tuple is always present: the total intersection is the
            # zero cone, whose condition is vacuous.
            assert tuple(universe) in present


def test_euler_characteristic_double_entry():
    # Alternating sum of cohomology dims equals the alternating sum of the
    # chain sizes, per degree.
    rng = random.Random(43)
    for fan in (P2, F1):
        for _ in range(8):
            d = TDivisor(tuple(rng.randint(-3, 3) for _ in fan.rays))
            m = tuple(rng.randint(-5, 5) for _ in range(fan.rank))
            faces = support_complex(fan, d, m)
            chain_chi = sum((-1) ** (len(f) - 1) for f in faces)
            dims = graded_piece_cohomology(fan, d, m)
            hom_chi = sum((-1) ** i * h for i, h in enumerate(dims))
            assert chain_chi == hom_chi


def test_cohomology_2h():
    table = cohomology(P2, hyperplane(2))
    assert table.dims == {0: 6, 1: 0, 2: 0}


def test_cohomology_minus_3h():
    table = cohomology(P2, hyperplane(-3))
    assert table.dims == {0: 0, 1: 0, 2: 1}


def test_cohomology_structure_sheaf_p1xp1():
    table = cohomology(P1xP1, (0, 0, 0, 0))
    assert table.dims == {0: 1, 1: 0, 2: 0}


def test_cohomology_h0_counts_sections():
    # dim H^0 equals the lattice point count of P_D for d = 0..5 (and the
    # counts come from an independent brute scan, not the polytope code).
    for d in range(6):
        table = cohomology(P2, hyperplane(d))
        assert table.dims[0] == simplex_count(d, False)
        assert table.dims[1] == 0 and table.dims[2] == 0


def test_cohomology_h2_counts_interiors():
    for d in range(1, 6):
        table = cohomology(P2, hyperplane(-d))
        assert table.dims == {0: 0, 1: 0, 2: simplex_count(d, True)}


def test_cohomology_graded_consistency():
    rng = random.Random(47)
    for fan in (P2, P1xP1):
        for _ in range(6):
            d = TDivisor(tuple(rng.randint(-3, 3) for _ in fan.rays))
            table = cohomology(fan, d, want_graded=True)
            for i, total in table.dims.items():
                assert total == sum(mult for _, mult in table.graded[i])


def test_cohomology_graded_degrees_negate_interior():
    table = cohomology(P2, hyperplane(-3), want_graded=True)
    assert table.graded[2] == (((-1, -1), 1),)


def blown_up_plane(k, rng):
    """A smooth complete surface with k rays: P2 with k - 3 corners blown up."""
    rays = [(1, 0), (0, 1), (-1, -1)]
    while len(rays) < k:
        i = rng.randrange(len(rays))
        u, v = rays[i], rays[(i + 1) % len(rays)]
        rays.insert(i + 1, (u[0] + v[0], u[1] + v[1]))
    return Fan(2, rays, [(i, (i + 1) % k) for i in range(k)])


def test_cohomology_mod_p_cross_check():
    for q in (2, 3, 5):
        table = cohomology(P2, hyperplane(-3), check_prime=q)
        assert table.dims == {0: 0, 1: 0, 2: 1}
    rng = random.Random(67)
    for k in (5, 6, 7):
        fan = blown_up_plane(k, rng)
        d = TDivisor(tuple(rng.randint(-2, 2) for _ in range(k)))
        dims = cohomology(fan, d).dims
        for q in (2, 3):
            assert cohomology(fan, d, check_prime=q).dims == dims


def test_cohomology_mod_p_requires_prime():
    with pytest.raises(InputError):
        cohomology(P2, hyperplane(1), check_prime=4)


def test_graded_piece_mod_p_requires_prime():
    for q in (0, 1, 4, -3, 2.5, "3", True):
        with pytest.raises(InputError):
            graded_piece_cohomology(P2, hyperplane(-3), (-1, -1), check_prime=q)
        with pytest.raises(InputError):
            cohomology(P2, hyperplane(-3), check_prime=q)
    assert graded_piece_cohomology(P2, hyperplane(-3), (-1, -1), check_prime=3) == [0, 0, 1]


def test_cohomology_rejects_incomplete_fan():
    fan = Fan(2, [(1, 0), (0, 1)], [(0, 1)])
    with pytest.raises(HypothesisError):
        cohomology(fan, (0, 0))


def test_cohomology_rejects_non_simplicial_fan():
    fan = Fan(3, [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1), (0, 0, -1)],
              [(0, 1, 2, 3), (0, 1, 4), (1, 2, 4), (2, 3, 4), (3, 0, 4)])
    # The fan itself is fine (validation and faces accept non-simplicial
    # cones); only the cohomology path refuses it.
    from toricpic.fan import validate_fan

    report = validate_fan(fan)
    assert report.valid and report.complete
    with pytest.raises(HypothesisError):
        cohomology(fan, (0,) * 5)


def test_cohomology_p1():
    p1 = named_fan("P1")
    # Divisor of the ray (-1): the degree-1 class.
    for d in range(4):
        table = cohomology(p1, (0, d))
        assert table.dims == {0: d + 1, 1: 0}
    table = cohomology(p1, (0, -3))
    assert table.dims == {0: 0, 1: 2}


def test_cohomology_p3():
    p3 = named_fan("P3")
    h = TDivisor((0, 0, 0, 1))
    assert cohomology(p3, h).dims == {0: 4, 1: 0, 2: 0, 3: 0}
    assert cohomology(p3, (0, 0, 0, 0)).dims == {0: 1, 1: 0, 2: 0, 3: 0}
    # Serre-dual pattern: only the top degree survives for -4H.
    table = cohomology(p3, -4 * h)
    assert table.dims == {0: 0, 1: 0, 2: 0, 3: 1}


def test_support_region_outside_sampling():
    # 100 random degrees outside the support region must be acyclic.
    rng = random.Random(53)
    cases = [
        (P2, hyperplane(3)),
        (P2, hyperplane(-2)),
        (P1xP1, TDivisor((1, 1, 2, 0))),
        (F1, TDivisor((1, 0, 2, 1))),
        (F1, TDivisor((-1, 2, 0, -2))),
    ]
    for fan, d in cases:
        region = support_region(fan, d)
        lo = [b[0] - 12 for b in region.box]
        hi = [b[1] + 12 for b in region.box]
        checked = 0
        while checked < 100:
            m = tuple(rng.randint(lo[i], hi[i]) for i in range(fan.rank))
            if region.contains(m):
                continue
            assert graded_piece_cohomology(fan, d, m) == [0] * (fan.rank + 1), (fan, d, m)
            checked += 1


def test_support_region_contains_all_support():
    # Double entry: scanning a strictly larger box finds no degree with
    # cohomology outside the region.
    for d in (hyperplane(2), hyperplane(-2)):
        region = support_region(P2, d)
        for x in range(region.box[0][0] - 3, region.box[0][1] + 4):
            for y in range(region.box[1][0] - 3, region.box[1][1] + 4):
                if not region.contains((x, y)):
                    assert graded_piece_cohomology(P2, d, (x, y)) == [0, 0, 0]


def test_demazure_pass_examples():
    for d in range(4):
        assert demazure_vanishing_check(P2, hyperplane(d)).passed
    anticanonical = TDivisor((1, 1, 1, 1))
    assert is_basepoint_free(F1, anticanonical)
    assert demazure_vanishing_check(F1, anticanonical).passed


def test_demazure_not_applicable():
    verdict = demazure_vanishing_check(P2, hyperplane(-1))
    assert verdict.status == "not-applicable"


def test_bb_3h():
    verdict = batyrev_borisov_check(P2, hyperplane(3))
    assert verdict.passed
    assert verdict.details["polytope_dim"] == 2
    assert verdict.details["basis_degrees"] == ((-1, -1),)


def test_bb_1h_no_interior():
    verdict = batyrev_borisov_check(P2, hyperplane(1))
    assert verdict.passed
    assert verdict.details["interior_count"] == 0
    assert verdict.details["dims"] == {0: 0, 1: 0, 2: 0}


def test_bb_zero_divisor():
    verdict = batyrev_borisov_check(P2, (0, 0, 0))
    assert verdict.passed
    assert verdict.details["polytope_dim"] == 0
    assert verdict.details["interior_count"] == 1


def test_bb_p1xp1_grid():
    for a, b in [(1, 1), (2, 2)]:
        d = TDivisor((a, b, a, b))
        verdict = batyrev_borisov_check(P1xP1, d)
        assert verdict.passed
        # Independent count of the interior: brute scan of a box strictly
        # containing P_D = [-a,a] x [-b,b].
        count = 0
        for x in range(-a - 1, a + 2):
            for y in range(-b - 1, b + 2):
                if -a < x < a and -b < y < b:
                    count += 1
        assert verdict.details["interior_count"] == count


def test_bb_not_applicable_for_non_bpf():
    verdict = batyrev_borisov_check(P2, hyperplane(-2))
    assert verdict.status == "not-applicable"


def test_classical_checks_solve_the_witnesses_twice(monkeypatch):
    # The checks' gate solves the Cartier witnesses once and reads
    # basepoint-freeness off them; support_region solves its own.
    modules = [importlib.import_module(f"toricpic.{name}") for name in ("divisor", "cohomology")]
    original = modules[0].cartier_witnesses
    calls = []

    def counting(fan, divisor):
        calls.append(divisor)
        return original(fan, divisor)

    for module in modules:
        monkeypatch.setattr(module, "cartier_witnesses", counting)
    cases = [
        (P1xP1, (1, 1, 1, 1), None, 2),
        (P2, hyperplane(-2), "divisor is not basepoint free", 1),
        (named_fan("P112"), (1, 0, 0), "divisor is not Cartier", 1),
    ]
    for check in (demazure_vanishing_check, batyrev_borisov_check):
        for fan, d, reason, solves in cases:
            calls.clear()
            verdict = check(fan, d)
            assert verdict.details.get("reason") == reason, (check.__name__, d)
            assert verdict.passed == (reason is None)
            assert len(calls) == solves, (check.__name__, d)


def test_cohomology_on_simplicial_non_smooth_fan():
    # P(1,1,2) is simplicial but not smooth; Cartier divisors (even
    # multiples of the ray-0 divisor) are in contract.
    p112 = named_fan("P112")
    table = cohomology(p112, (2, 0, 0))
    # Sections: lattice points of the polytope with the half-integer vertex
    # scaled to 2, counted by hand: (-2,0), (-1,0), (0,0), (-2,1).
    assert table.dims == {0: 4, 1: 0, 2: 0}
    assert demazure_vanishing_check(p112, (2, 0, 0)).passed
    assert batyrev_borisov_check(p112, (2, 0, 0)).passed


def test_table_euler_characteristic_matches_chambers():
    # Double entry at the table level: the alternating sum of total dims
    # equals the sum over sign-pattern chambers of (lattice count) x
    # (chamber complex Euler characteristic).
    rng = random.Random(61)
    for fan in (P2, F1):
        for _ in range(5):
            d = TDivisor(tuple(rng.randint(-2, 3) for _ in fan.rays))
            region = support_region(fan, d)
            table = cohomology(fan, d)
            chamber_counts = {}
            for m in region.points():
                pattern = tuple(
                    sum(a * b for a, b in zip(m, u)) >= -c
                    for u, c in zip(fan.rays, d.coeffs)
                )
                chamber_counts[pattern] = chamber_counts.get(pattern, 0) + 1
            total = 0
            for pattern, count in chamber_counts.items():
                m = next(
                    mm
                    for mm in region.points()
                    if tuple(
                        sum(a * b for a, b in zip(mm, u)) >= -c
                        for u, c in zip(fan.rays, d.coeffs)
                    )
                    == pattern
                )
                faces = support_complex(fan, d, m)
                chi = sum((-1) ** (len(f) - 1) for f in faces)
                total += count * chi
            assert total == table.euler_characteristic()


def test_cohomology_rank_four():
    from toricpic.library import projective_space

    p4 = projective_space(4)
    h = TDivisor((0, 0, 0, 0, 1))
    assert cohomology(p4, h).dims == {0: 5, 1: 0, 2: 0, 3: 0, 4: 0}
    assert cohomology(p4, -5 * h).dims == {0: 0, 1: 0, 2: 0, 3: 0, 4: 1}


def test_kunneth_on_p1xp1():
    # Bidegree (a, b) bundles factor through the two rulings, so every
    # cohomology group is a sum of products of line-counts on the factors.
    # This checks the middle degree against a route that never builds the
    # rank-2 Čech complex.
    def h0(d):
        return max(0, d + 1)

    def h1(d):
        return max(0, -d - 1)

    for a in range(-4, 5):
        for b in range(-4, 5):
            table = cohomology(P1xP1, TDivisor((0, 0, a, b)))
            assert table.dims[0] == h0(a) * h0(b), (a, b)
            assert table.dims[1] == h0(a) * h1(b) + h1(a) * h0(b), (a, b)
            assert table.dims[2] == h1(a) * h1(b), (a, b)


def test_principal_twist_does_not_change_cohomology():
    rng = random.Random(59)
    for fan in (P2, F1):
        for _ in range(5):
            d = TDivisor(tuple(rng.randint(-2, 3) for _ in fan.rays))
            m = tuple(rng.randint(-2, 2) for _ in range(fan.rank))
            a = cohomology(fan, d).dims
            b = cohomology(fan, d + principal_divisor(fan, m)).dims
            assert a == b


def test_per_fan_caches_stay_bounded():
    from toricpic.divisor import picard_group

    module = {name: importlib.import_module(f"toricpic.{name}")
              for name in ("fan", "polyhedra", "divisor", "cohomology")}
    polyhedra = module["polyhedra"]
    caches = (module["fan"].validate_fan, polyhedra._cone_hrep_cached, module["divisor"]._picard,
              module["divisor"]._cartier_divisor_lattice, module["divisor"].class_group,
              module["cohomology"]._cones_by_size)
    # Shears of P2: more distinct fans than any cache may hold.
    for s in range(polyhedra.CACHE_SIZE + 4):
        sheared = Fan(2, [(1, 0), (s, 1), (-1 - s, -1)], [(0, 1), (1, 2), (2, 0)])
        assert cohomology(sheared, (0, 0, 1)).dims == {0: 3, 1: 0, 2: 0}
        assert picard_group(sheared).describe() == "Z"
    for cache in caches:
        assert cache.cache_info().maxsize == polyhedra.CACHE_SIZE
        assert cache.cache_info().currsize <= polyhedra.CACHE_SIZE


def cross_check_cases():
    """Every named fan with seeded Cartier divisors, and seeded smooth
    surfaces with 5-8 rays, small enough for the 2^r-cell Čech oracle."""
    rng = random.Random(71)
    cases = []
    for name in NAMED_FAN_NAMES:
        fan = named_fan(name)
        drawn = 0
        while drawn < 3:
            d = TDivisor(tuple(rng.randint(-3, 3) for _ in fan.rays))
            if is_cartier(fan, d):
                cases.append((fan, d))
                drawn += 1
    for k in (5, 6, 7, 8):
        fan = blown_up_plane(k, rng)
        for _ in range(2):
            cases.append((fan, TDivisor(tuple(rng.randint(-2, 2) for _ in range(k)))))
    return cases


def test_negative_cone_engine_matches_cech_oracle():
    cases = cross_check_cases()
    assert any(fan.rays == named_fan("P112").rays for fan, _ in cases)
    for fan, d in cases:
        table = cohomology(fan, d, want_graded=True)
        dims, graded = cech_cohomology(fan, d)
        assert (table.dims, table.graded) == (dims, graded), (fan.rays, d)
        # With a prime, the engine raises unless its GF(q) ranks give its
        # Q dims; the oracle ranks its own complex over GF(q).
        for q in (2, 3):
            table_mod = cohomology(fan, d, want_graded=True, check_prime=q)
            assert (table_mod.dims, table_mod.graded) == cech_cohomology(fan, d, q)


def test_graded_piece_matches_cech_oracle_per_degree():
    for fan, d in cross_check_cases()[::2]:
        region = support_region(fan, d)
        cache = {}
        for m in product(*(range(lo - 1, hi + 2) for lo, hi in region.box)):
            pattern = sign_pattern(fan, d.coeffs, m)
            if pattern not in cache:
                cache[pattern] = list(cech_pattern_dims(fan, pattern))
            assert graded_piece_cohomology(fan, d, m) == cache[pattern], (fan.rays, d, m)


def test_negative_cone_complex_stays_within_the_fan(monkeypatch):
    # The complex of one degree has at most one cell per cone plus the
    # empty face; the Čech nerve of the same surface has 2^16 - 1.
    module = importlib.import_module("toricpic.cohomology")
    shapes = []
    real_rank = module.rational_rank

    def recording_rank(rows):
        shapes.append((len(rows), len(rows[0])))
        return real_rank(rows)

    monkeypatch.setattr(module, "rational_rank", recording_rank)
    fan = blown_up_plane(16, random.Random(79))
    cells = len(fan.rays) + len(fan.max_cones) + 1
    d = TDivisor((2, 1) + (0,) * 14)
    largest = 0
    for m in support_region(fan, d).points():
        shapes.clear()
        graded_piece_cohomology(fan, d, m)
        rows = sum(r for r, _ in shapes)
        assert rows <= cells, (m, shapes)
        largest = max(largest, rows)
    assert largest > 0


def test_serre_duality():
    # h^i(D) = h^(n-i)(K - D) with K = -(sum of all ray divisors) on smooth
    # complete fans (Cox-Little-Schenck Thm 9.2.10): uses neither engine's
    # internals, and reaches surfaces with 10-12 rays.
    rng = random.Random(73)
    fans = [(P2, 4), (P1xP1, 4), (F1, 4), (named_fan("P3"), 3)]
    fans += [(blown_up_plane(k, rng), 3) for k in (10, 11, 12)]
    for fan, trials in fans:
        n = fan.rank
        # The anticanonical divisor has sections, so its dual has top cohomology.
        divisors = [TDivisor((1,) * len(fan.rays))]
        divisors += [TDivisor(tuple(rng.randint(-3, 3) for _ in fan.rays)) for _ in range(trials)]
        for d in divisors:
            dual = TDivisor(tuple(-1 - a for a in d.coeffs))
            h = cohomology(fan, d).dims
            h_dual = cohomology(fan, dual).dims
            assert all(h[i] == h_dual[n - i] for i in range(n + 1)), (fan.rays, d, h, h_dual)
