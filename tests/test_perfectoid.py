"""Bundle arithmetic in Pic[1/p], level series, perfectoid vanishing checks."""

import importlib
import math
import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from test_cohomology import blown_up_plane
from picard_oracle import weighted
from tower_oracle import basepoint_free_levels, divide_by_solving, embedding_failures

from toricpic.cli import main
from toricpic.cohomology import graded_piece_cohomology, support_region
from toricpic.divisor import (
    TDivisor,
    _cartier_divisor_lattice,
    class_group,
    is_cartier,
    picard_group,
    principal_divisor,
)
from toricpic.errors import HypothesisError, InputError
from toricpic.fan import Fan
from toricpic.lattice import matvec, solve_integer_system
from toricpic.library import NAMED_FAN_NAMES, named_fan
from toricpic.perfectoid import (
    STABILIZES,
    VANISHES,
    _normalized,
    cohomology_series,
    formal_root,
    frobenius_pullback,
    from_divisor,
    inverse,
    perfectoid_batyrev_borisov,
    perfectoid_demazure,
    perfectoid_pic,
    polytope_dimension,
    tensor,
    trivial_bundle,
)

P2 = named_fan("P2")
P1xP1 = named_fan("P1xP1")


def hyperplane(d):
    return TDivisor((0, 0, d))


def random_divisor(rng, fan, lo=-4, hi=4):
    return TDivisor(tuple(rng.randint(lo, hi) for _ in fan.rays))


def test_from_divisor_normalizes_divisible_class():
    l = from_divisor(P2, hyperplane(2), 2, 1)
    assert l.level == 0
    assert l.base_class.free == (1,)


def test_from_divisor_keeps_odd_class():
    l = from_divisor(P2, hyperplane(1), 2, 1)
    assert l.level == 1
    assert l.base_class.free == (1,)


def test_from_divisor_p3_level2():
    l = from_divisor(P2, hyperplane(3), 3, 2)
    assert l.level == 1
    assert l.base_class.free == (1,)


def test_from_divisor_requires_smooth_fan():
    p112 = named_fan("P112")
    with pytest.raises(HypothesisError):
        from_divisor(p112, (2, 0, 0), 2, 1)
    # The escape hatch accepts the fan at the user's risk.
    # 2·D_0 generates Pic(P112) = 2Z, so it has no square root in Pic.
    l = from_divisor(p112, (2, 0, 0), 2, 1, assume_trivialization=True)
    assert l.level == 1
    assert is_cartier(p112, l.representative)


def test_from_divisor_requires_prime():
    with pytest.raises(InputError):
        from_divisor(P2, hyperplane(1), 4, 1)


def test_normalization_identity_on_random_divisors():
    rng = random.Random(61)
    for fan in (P2, P1xP1, named_fan("F1")):
        for _ in range(50):
            d = random_divisor(rng, fan)
            k = rng.randint(0, 3)
            assert from_divisor(fan, d, 2, k) == from_divisor(fan, 2 * d, 2, k + 1)


def test_tensor_half_plus_half():
    half = from_divisor(P2, hyperplane(1), 2, 1)
    l = tensor(half, half)
    assert l.level == 0
    assert l.base_class.free == (1,)


def test_tensor_with_inverse_is_trivial():
    rng = random.Random(67)
    for _ in range(20):
        d = random_divisor(rng, P2)
        l = from_divisor(P2, d, 2, rng.randint(0, 3))
        t = tensor(l, inverse(l))
        assert t == trivial_bundle(P2, 2)
        assert t.level == 0 and t.base_class.is_zero()


def test_tensor_half_plus_one():
    half = from_divisor(P2, hyperplane(1), 2, 1)
    one = from_divisor(P2, hyperplane(1), 2, 0)
    l = tensor(half, one)
    assert l.level == 1
    assert l.base_class.free == (3,)


def test_tensor_group_axioms_random():
    rng = random.Random(71)
    triv = trivial_bundle(P2, 2)
    for _ in range(50):
        a = from_divisor(P2, random_divisor(rng, P2), 2, rng.randint(0, 3))
        b = from_divisor(P2, random_divisor(rng, P2), 2, rng.randint(0, 3))
        c = from_divisor(P2, random_divisor(rng, P2), 2, rng.randint(0, 3))
        assert tensor(a, b) == tensor(b, a)
        assert tensor(tensor(a, b), c) == tensor(a, tensor(b, c))
        assert tensor(a, triv) == a
        assert tensor(a, inverse(a)) == triv


def test_tensor_rejects_mismatched_primes():
    a = from_divisor(P2, hyperplane(1), 2, 1)
    b = from_divisor(P2, hyperplane(1), 3, 1)
    with pytest.raises(InputError):
        tensor(a, b)


def test_frobenius_drops_level():
    l = from_divisor(P2, hyperplane(1), 2, 1)
    assert frobenius_pullback(l) == from_divisor(P2, hyperplane(1), 2, 0)


def test_frobenius_at_level_zero_scales():
    l = from_divisor(P2, hyperplane(1), 2, 0)
    assert frobenius_pullback(l) == from_divisor(P2, hyperplane(2), 2, 0)


def test_frobenius_root_round_trip():
    rng = random.Random(73)
    for _ in range(50):
        l = from_divisor(P2, random_divisor(rng, P2), 2, rng.randint(0, 3))
        assert frobenius_pullback(formal_root(l)) == l
        assert formal_root(frobenius_pullback(l)) == l


def test_pic_arithmetic_keeps_cartier_representatives():
    """Roots are divided in Pic(X), not in Cl(X): on smooth and non-smooth
    fans every operation returns a Cartier representative of its class, the
    normal form holds, and formal_root inverts frobenius_pullback."""
    rng = random.Random(83)
    triangle = [(0, 1), (1, 2), (2, 0)]
    nonsmooth = [
        named_fan("P112"),
        Fan(2, [(1, 0), (0, 1), (-2, -3)], triangle),  # P(1,2,3)
        Fan(2, [(2, -1), (-1, 2), (-1, -1)], triangle),  # Cl = Z + Z/3, Pic = 3Z
    ]
    seen = Counter()
    for fan in [P2, P1xP1, named_fan("F1"), named_fan("P3")] + nonsmooth:
        cl = class_group(fan)

        def draw(p):
            while True:
                d = random_divisor(rng, fan, -3, 3)
                if is_cartier(fan, d):
                    return from_divisor(fan, d, p, rng.randint(0, 3), assume_trivialization=True)

        for _ in range(8):
            p = rng.choice((2, 3))
            l, other = draw(p), draw(p)
            for bundle in (l, tensor(l, other), inverse(l), frobenius_pullback(l), formal_root(l)):
                assert is_cartier(fan, bundle.representative), (fan.rays, bundle)
                assert cl.project(bundle.representative) == bundle.base_class
                if bundle.level:
                    # Normal form: the class has no p-th root in Pic(X).
                    again = from_divisor(fan, bundle.representative, p, 1, assume_trivialization=True)
                    assert again.level == 1, (fan.rays, bundle)
            assert formal_root(frobenius_pullback(l)) == l
            assert frobenius_pullback(formal_root(l)) == l
            seen["nonsmooth" if fan in nonsmooth else "smooth"] += 1
            seen["kept level"] += fan in nonsmooth and l.level > 0
    assert seen["smooth"] == 32 and seen["nonsmooth"] == 24 and seen["kept level"] >= 5, seen


def in_p_multiples(pres, g, p):
    """Whether g lies in p·G, G = Z^f + sum Z/d_i; p·Z/d is gcd(p, d)·Z/d."""
    return all(x % p == 0 for x in g.free) and all(
        t % math.gcd(p, d) == 0 for t, d in zip(g.torsion, pres.invariant_factors)
    )


def test_normal_form_divides_in_pic():
    """The bundle (D)^(1/p^k) has normal form (R, level) with
    p^(k - level)·[R] = [D] in Pic(X) and [R] not in p·Pic(X) when
    level > 0.  Classes are read as CDiv_T(X)/M: B-coordinates in the
    Cartier lattice, projected through picard_group."""
    rng = random.Random(89)
    smooth = [P2, P1xP1, named_fan("F1"), named_fan("P3"), blown_up_plane(6, rng)]
    singular = [named_fan("P112"), weighted((1, 2, 3)), weighted((1, 3, 5)), weighted((1, 1, 2, 3))]
    seen = Counter()
    for fan in smooth + singular:
        pic = picard_group(fan)
        columns = tuple(zip(*_cartier_divisor_lattice(fan)))

        def pic_class(d):
            return pic.project(solve_integer_system(columns, d.coeffs))

        for _ in range(10):
            p, k = rng.choice((2, 3)), rng.randint(0, 3)
            d = TDivisor(matvec(columns, [rng.randint(-2, 2) for _ in columns[0]]))
            m = tuple(rng.randint(-2, 2) for _ in range(fan.rank))
            d = p ** rng.choice((0, 0, 1, 2)) * d + principal_divisor(fan, m)
            bundle = from_divisor(fan, d, p, k, assume_trivialization=True)
            r = pic_class(bundle.representative)
            assert pic.scale(p ** (k - bundle.level), r) == pic_class(d), (fan.rays, d, p, k)
            if bundle.level:
                assert not in_p_multiples(pic, r, p), (fan.rays, d, p, k)
            seen["kept" if bundle.level == k else "divided", fan in smooth] += k > 0
    assert min(seen[kind, on_smooth] for kind in ("kept", "divided") for on_smooth in (True, False)) >= 5, seen


def test_normal_form_matches_division_by_solving():
    """_normalized reads the division off one solve; the oracle divides
    one level at a time.  Level, class and representative agree, and
    inverse and frobenius_pullback, which read the class off their new
    representative, agree with negating and scaling the class."""
    rng = random.Random(157)
    triangle = [(0, 1), (1, 2), (2, 0)]
    fans = [P2, P1xP1, named_fan("F1"), named_fan("P3"), blown_up_plane(6, rng)]
    fans += [named_fan("P112"), weighted((1, 2, 3)), Fan(2, [(2, -1), (-1, 2), (-1, -1)], triangle)]
    seen = Counter()
    for fan in fans:
        pres = class_group(fan).presentation
        columns = tuple(zip(*_cartier_divisor_lattice(fan)))
        for _ in range(260):
            p, level = rng.choice((2, 3, 5)), rng.randint(0, 4)
            e = [rng.randint(-3, 3) * (rng.random() > 0.1) for _ in columns[0]]
            m = tuple(rng.randint(-3, 3) for _ in range(fan.rank))
            d = p ** rng.randint(0, 4) * TDivisor(matvec(columns, e)) + principal_divisor(fan, m)
            l = _normalized(fan, p, level, d)
            assert (l.level, l.base_class, l.representative) == divide_by_solving(fan, p, level, d)
            inv, frob = inverse(l), frobenius_pullback(l)
            assert (inv.level, inv.base_class, inv.representative) == (
                l.level, pres.neg(l.base_class), -l.representative
            )
            assert (frob.level, frob.base_class, frob.representative) == (
                (l.level - 1, l.base_class, l.representative) if l.level
                else (0, pres.scale(p, l.base_class), p * l.representative)
            )
            seen["cases"] += 1
            seen["divided"] += l.level < level
            seen["class 0"] += level > 0 and l.base_class.is_zero()
    assert seen["cases"] >= 2000 and seen["divided"] >= 1000 and seen["class 0"] >= 20, seen


def test_normal_form_solves_once(monkeypatch):
    # The class's coordinates in Pic(X) decide every division at once.
    perfectoid = importlib.import_module("toricpic.perfectoid")
    original = perfectoid.solve_integer_system
    calls = []

    def counting(rows, b):
        calls.append(b)
        return original(rows, b)

    monkeypatch.setattr(perfectoid, "solve_integer_system", counting)
    p3 = named_fan("P3")
    for level in range(5):
        calls.clear()
        l = _normalized(p3, 2, level, TDivisor((0, 0, 0, 8)))
        assert (l.level, l.base_class.free) == (max(level - 3, 0), (2 ** (3 - min(level, 3)),))
        assert len(calls) == min(level, 1)


def test_bundle_arithmetic_on_a_warm_fan_computes_no_smith_form(monkeypatch):
    # class_group is cached per fan, so the normal forms behind tensor and
    # inverse read Cl(X) without a new Smith form of the ray matrix.
    divisor = importlib.import_module("toricpic.divisor")
    original = divisor.cokernel
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(divisor, "cokernel", counting)
    l, trivial = from_divisor(P2, hyperplane(1), 2, 1), trivial_bundle(P2, 2)
    calls.clear()
    assert tensor(l, inverse(l)) == trivial
    assert len(calls) == 0


def test_tower_functions_take_an_admitted_bundle():
    # from_divisor admits a bundle once; the tower functions do not re-check
    # smoothness, so a bundle on P112 taken at the user's risk runs through.
    l = from_divisor(named_fan("P112"), (2, 0, 0), 2, 1, assume_trivialization=True)
    assert cohomology_series(l, 0, 1).dims == (4, 9)
    assert perfectoid_demazure(l, 1).passed
    assert perfectoid_batyrev_borisov(l, 1).details["level_basis_sizes"] == (0, 1)


def test_tower_arithmetic_builds_the_cartier_lattice_once():
    # One Cartier lattice per fan, shared by _picard and every division.
    lattice = importlib.import_module("toricpic.divisor")._cartier_divisor_lattice
    fan = Fan(2, [(2, 1), (1, 1), (-3, -2)], [(0, 1), (1, 2), (2, 0)])  # an image of P2
    misses = lattice.cache_info().misses
    l = from_divisor(fan, (0, 0, 4), 2, 3)
    chain = formal_root(tensor(l, from_divisor(fan, (0, 2, 0), 2, 1)))
    assert formal_root(frobenius_pullback(chain)) == chain
    assert perfectoid_pic(fan, 2).describe() == "Z[1/2]"
    assert lattice.cache_info().misses == misses + 1


def test_frobenius_distributes_over_tensor():
    rng = random.Random(79)
    for _ in range(30):
        a = from_divisor(P2, random_divisor(rng, P2), 2, rng.randint(0, 2))
        b = from_divisor(P2, random_divisor(rng, P2), 2, rng.randint(0, 2))
        assert frobenius_pullback(tensor(a, b)) == tensor(
            frobenius_pullback(a), frobenius_pullback(b)
        )


def test_frobenius_matches_cocycle_pullback():
    # At level zero the Frobenius pullback is multiplication by p on classes,
    # exactly like scaling the monomial cocycle.
    from toricpic.divisor import (
        class_group,
        cocycle_class_equal,
        divisor_to_cocycle,
        pullback_by_power_map,
    )

    rng = random.Random(83)
    cl = class_group(P2)
    for _ in range(20):
        d = random_divisor(rng, P2)
        l = from_divisor(P2, d, 2, 0)
        lp = frobenius_pullback(l)
        assert lp.base_class == cl.presentation.scale(2, l.base_class)
        alpha = pullback_by_power_map(divisor_to_cocycle(P2, d), 2)
        beta = divisor_to_cocycle(P2, 2 * d)
        assert cocycle_class_equal(P2, alpha, beta)


def test_perfectoid_pic_p2():
    desc = perfectoid_pic(P2, 2)
    assert desc.describe() == "Z[1/2]"
    assert desc.base_free_rank == 1


def test_perfectoid_pic_f1():
    assert perfectoid_pic(named_fan("F1"), 2).describe() == "Z[1/2]^2"


def test_perfectoid_pic_kills_p_torsion():
    from toricpic.perfectoid import strip_p_part

    assert strip_p_part(8, 2) == 1
    assert strip_p_part(12, 2) == 3
    assert strip_p_part(9, 2) == 9


def test_cohomology_series_vanishing():
    l = from_divisor(P2, hyperplane(2), 2, 0)
    s = cohomology_series(l, 1, 4)
    assert s.dims == (0, 0, 0, 0, 0)
    assert s.verdict == VANISHES


def test_cohomology_series_interior_counts():
    # Enumerated oracle for the interior counts of 3*2^n standard simplices.
    def interior_count(d):
        return sum(
            1
            for x in range(1, d)
            for y in range(1, d)
            if x + y < d
        )

    l = inverse(from_divisor(P2, hyperplane(3), 2, 0))
    s = cohomology_series(l, 2, 2)
    assert s.dims == tuple(interior_count(3 * 2 ** n) for n in range(3))
    assert s.dims == (1, 10, 55)
    assert s.verdict == STABILIZES
    # Level bases embed under m -> 2m.
    for n in range(2):
        nxt = set(s.bases[n + 1])
        for m in s.bases[n]:
            assert tuple(2 * x for x in m) in nxt


def test_cohomology_series_trivial_h0():
    l = trivial_bundle(P2, 2)
    s = cohomology_series(l, 0, 3)
    assert s.dims == (1, 1, 1, 1)


def test_cohomology_series_ignores_bundle_level():
    # The series depends on the representative divisor alone: a root of a
    # class and the class itself produce the same level dims (the tower is
    # re-read from level zero).
    base = from_divisor(P2, hyperplane(1), 2, 0)
    root = from_divisor(P2, hyperplane(1), 2, 1)
    for i in (0, 1, 2):
        assert cohomology_series(base, i, 3).dims == cohomology_series(root, i, 3).dims


def test_cohomology_series_level0_matches_classical():
    from toricpic.cohomology import cohomology

    rng = random.Random(89)
    for _ in range(10):
        d = random_divisor(rng, P2, -3, 3)
        l = from_divisor(P2, d, 2, 0)
        s = cohomology_series(l, 1, 0)
        assert s.dims[0] == cohomology(P2, l.representative).dims[1]


def test_polytope_dimension():
    l = from_divisor(P2, hyperplane(3), 2, 1)
    assert polytope_dimension(l) == 2
    assert polytope_dimension(trivial_bundle(P2, 2)) == 0
    empty = from_divisor(P2, hyperplane(-1), 2, 0)
    assert polytope_dimension(empty) == -1


def test_polytope_dimension_representative_independence():
    rng = random.Random(97)
    from toricpic.divisor import principal_divisor

    for _ in range(20):
        d = random_divisor(rng, P2)
        m = tuple(rng.randint(-3, 3) for _ in range(2))
        l1 = from_divisor(P2, d, 2, 0)
        l2 = from_divisor(P2, d + principal_divisor(P2, m), 2, 0)
        l3 = from_divisor(P2, 2 * d, 2, 1)
        dims = {polytope_dimension(x) for x in (l1, l2, l3)}
        assert len(dims) == 1


def test_perfectoid_demazure_half_hyperplane():
    l = from_divisor(P2, hyperplane(1), 2, 1)
    verdict = perfectoid_demazure(l, 4)
    assert verdict.passed


def test_perfectoid_demazure_p1xp1():
    l = from_divisor(P1xP1, (1, 1, 0, 0), 2, 1)
    verdict = perfectoid_demazure(l, 3)
    assert verdict.passed


def test_perfectoid_demazure_not_applicable():
    l = from_divisor(P2, hyperplane(-1), 2, 0)
    verdict = perfectoid_demazure(l, 2)
    assert verdict.status == "not-applicable"


def test_perfectoid_bb_3h():
    l = from_divisor(P2, hyperplane(3), 2, 0)
    verdict = perfectoid_batyrev_borisov(l, 2)
    assert verdict.passed
    assert verdict.details["level_basis_sizes"] == (1, 10, 55)


def test_perfectoid_bb_h_sizes():
    l = from_divisor(P2, hyperplane(1), 2, 0)
    verdict = perfectoid_batyrev_borisov(l, 2)
    assert verdict.passed
    # Interior of 4*simplex enumerates to 3 points; earlier levels are empty.
    assert verdict.details["level_basis_sizes"] == (0, 0, 3)


def test_perfectoid_bb_trivial():
    verdict = perfectoid_batyrev_borisov(trivial_bundle(P2, 2), 2)
    assert verdict.passed
    assert verdict.details["polytope_dim"] == 0
    assert verdict.details["level_basis_sizes"] == (1, 1, 1)


def test_perfectoid_checks_compute_each_level_once(monkeypatch):
    # One graded table per level, read for every cohomological degree.
    perfectoid = importlib.import_module("toricpic.perfectoid")
    original = perfectoid.cohomology
    calls = []

    def counting(fan, divisor, *args, **kwargs):
        calls.append(divisor)
        return original(fan, divisor, *args, **kwargs)

    monkeypatch.setattr(perfectoid, "cohomology", counting)
    p3 = named_fan("P3")
    l = from_divisor(p3, (0, 0, 0, 1), 2, 0)
    assert perfectoid_batyrev_borisov(l, 3).passed
    assert len(calls) == 4
    calls.clear()
    assert perfectoid_demazure(l, 3).passed
    assert len(calls) == 4


def test_tower_checks_test_basepoint_freeness_once(monkeypatch, capsys):
    # t·D is basepoint free exactly when D is, so one test decides every level.
    perfectoid = importlib.import_module("toricpic.perfectoid")
    original = perfectoid.is_basepoint_free
    calls = []

    def counting(fan, divisor):
        calls.append(divisor)
        return original(fan, divisor)

    monkeypatch.setattr(perfectoid, "is_basepoint_free", counting)
    for command in ("perf-demazure", "perf-bb"):
        calls.clear()
        argv = [command, "--fan", "named:P2", "--divisor", "0,0,1", "--p", "2", "--nmax", "4"]
        assert main(argv) == 0
        assert len(calls) == 1, command
    capsys.readouterr()


def test_tower_arguments_must_be_integers():
    rng = random.Random(137)
    l = from_divisor(P2, hyperplane(1), 2, 1)
    bad = [7.9, 1.9, 0.7, 2.9, 2.0, True, False, "3", Fraction(3)]
    bad += [rng.uniform(-1, 8) for _ in range(5)]
    calls = [
        ("p", lambda v: perfectoid_pic(P2, v)),
        ("p", lambda v: from_divisor(P2, hyperplane(1), v, 1)),
        ("level", lambda v: from_divisor(P2, hyperplane(1), 3, v)),
        ("degree", lambda v: cohomology_series(l, v, 2)),
        ("n_max", lambda v: cohomology_series(l, 0, v)),
        ("n_max", lambda v: perfectoid_demazure(l, v)),
        ("n_max", lambda v: perfectoid_batyrev_borisov(l, v)),
    ]
    for name, call in calls:
        for value in bad:
            with pytest.raises(InputError, match=f"{name} must be an integer"):
                call(value)
    # A negative tower length is refused before any level, basepoint-free or not.
    for bundle in (l, from_divisor(P2, hyperplane(-1), 2, 0)):
        for check in (perfectoid_demazure, perfectoid_batyrev_borisov):
            with pytest.raises(InputError, match="non-negative"):
                check(bundle, -1)


def scaling_cases():
    """Seeded Cartier divisors on every named fan, on smooth 5-8-ray
    surfaces and, a few more, on P3."""
    rng = random.Random(139)
    cases = []
    for fan, count in [(named_fan(name), 2) for name in NAMED_FAN_NAMES] + [(named_fan("P3"), 3)]:
        drawn = 0
        while drawn < count:
            d = random_divisor(rng, fan, -2, 2)
            if is_cartier(fan, d):
                cases.append((fan, d))
                drawn += 1
    for k in (5, 6, 7, 8):
        fan = blown_up_plane(k, rng)
        cases.extend((fan, random_divisor(rng, fan, -2, 2)) for _ in range(2))
    return cases


def test_scaling_lemma_on_graded_pieces():
    # <p·m, u> >= -p·a exactly when <m, u> >= -a: (p·m, p·D) has the graded
    # piece of (m, D), on the whole support region and one step beyond it.
    nonzero = 0
    for fan, d in scaling_cases():
        box = support_region(fan, d).box
        for m in product(*(range(lo - 1, hi + 2) for lo, hi in box)):
            piece = graded_piece_cohomology(fan, d, m)
            nonzero += any(piece)
            for p in (2, 3, 5):
                scaled = graded_piece_cohomology(fan, p * d, tuple(p * x for x in m))
                assert scaled == piece, (fan.rays, d, m, p)
    assert nonzero


def test_tower_oracle_on_seeded_series():
    rng = random.Random(149)
    fans = [P2, P1xP1, named_fan("F1"), named_fan("F2"), named_fan("P3")]
    fans += [blown_up_plane(k, rng) for k in (6, 7, 8)]
    largest = 0
    for fan in fans:
        for _ in range(3):
            p = rng.choice((2, 3))
            l = from_divisor(fan, random_divisor(rng, fan, -2, 2), p, rng.randint(0, 2))
            n_max = 2 if p == 2 and fan.rank == 2 else 1
            for i in range(fan.rank + 1):
                s = cohomology_series(l, i, n_max)
                assert embedding_failures(p, s.bases) == [], (fan.rays, l.representative, i)
                largest = max([largest] + [max(Counter(b).values()) for b in s.bases if b])
    # Some degree carries a graded piece of dimension above 1.
    assert largest > 1


def test_tower_oracle_on_seeded_checks():
    rng = random.Random(151)
    fans = [P2, P1xP1, named_fan("F1"), named_fan("F2"), named_fan("P3"), blown_up_plane(6, rng)]
    outcomes = Counter()
    for fan in fans:
        for _ in range(4):
            p = rng.choice((2, 3))
            l = from_divisor(fan, random_divisor(rng, fan, -1, 2), p, 0)
            n_max = 2 if p == 2 and fan.rank == 2 else 1
            free = basepoint_free_levels(l, n_max)
            assert free == [free[0]] * (n_max + 1)
            demazure = perfectoid_demazure(l, n_max)
            bb = perfectoid_batyrev_borisov(l, n_max)
            expected = "pass" if free[0] else "not-applicable"
            assert (demazure.status, bb.status) == (expected, expected)
            if free[0]:
                assert embedding_failures(p, bb.details["level_bases"]) == []
                for i in range(fan.rank + 1):
                    assert embedding_failures(p, cohomology_series(inverse(l), i, n_max).bases) == []
            outcomes[expected] += 1
    assert outcomes["pass"] and outcomes["not-applicable"]
