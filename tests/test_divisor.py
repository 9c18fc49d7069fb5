"""Divisors, class groups, Picard subgroup, cocycles, polytopes."""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from cocycle_oracle import pairwise_class_equal
from picard_oracle import picard_by_relations, seeded_fans
from test_cohomology import blown_up_plane

from toricpic.cohomology import cohomology, graded_piece_cohomology
from toricpic.errors import HypothesisError, InputError
from toricpic.divisor import (
    MonomialCocycle,
    TDivisor,
    _cartier_divisor_lattice,
    as_divisor,
    cartier_witnesses,
    check_cocycle,
    class_group,
    cocycle_class_equal,
    divisor_polytope,
    divisor_to_cocycle,
    is_basepoint_free,
    is_cartier,
    lattice_points,
    picard_embedding,
    picard_group,
    principal_divisor,
)
from toricpic.fan import Fan, validate_fan
from toricpic.lattice import integer_kernel, solve_integer_system, vec_add, vec_sub
from toricpic.library import named_fan
from toricpic.perfectoid import from_divisor

P2 = named_fan("P2")
F1 = named_fan("F1")
P112 = named_fan("P112")
P1xP1 = named_fan("P1xP1")

# Hyperplane class on P2: the divisor of the ray e0 = (-1,-1) (index 2).
H = TDivisor((0, 0, 1))


def hyperplane(d):
    return TDivisor((0, 0, d))


def test_principal_divisor_p2():
    assert principal_divisor(P2, (1, 0)).coeffs == (1, 0, -1)


def test_principal_divisor_zero():
    assert principal_divisor(F1, (0, 0)).coeffs == (0, 0, 0, 0)


def test_principal_divisor_f1():
    assert principal_divisor(F1, (0, 1)).coeffs == (0, 1, 1, -1)


def test_class_group_p2():
    cl = class_group(P2)
    assert cl.presentation.free_rank == 1
    assert cl.presentation.invariant_factors == ()


def test_class_group_f1():
    cl = class_group(F1)
    assert cl.presentation.free_rank == 2
    assert cl.presentation.invariant_factors == ()


def test_class_group_p112():
    cl = class_group(P112)
    assert cl.presentation.free_rank == 1
    assert cl.presentation.invariant_factors == ()


def test_class_group_rejects_non_spanning_rays():
    fan = Fan(2, [(1, 0)], [(0,)])
    with pytest.raises(HypothesisError):
        class_group(fan)


def test_class_group_kills_principal_divisors():
    rng = random.Random(3)
    for fan in (P2, F1, P112, P1xP1):
        cl = class_group(fan)
        for _ in range(20):
            m = tuple(rng.randint(-5, 5) for _ in range(fan.rank))
            assert cl.project(principal_divisor(fan, m)).is_zero()


def test_smooth_fan_everything_cartier():
    rng = random.Random(5)
    for fan in (P2, F1, P1xP1):
        for _ in range(15):
            d = TDivisor(tuple(rng.randint(-5, 5) for _ in fan.rays))
            witnesses = cartier_witnesses(fan, d)
            assert witnesses is not None
            for cone, m in zip(fan.max_cones, witnesses):
                for i in cone.ray_indices:
                    assert sum(a * b for a, b in zip(m, fan.rays[i])) == -d.coeffs[i]


def test_cartier_on_weighted_plane():
    d0 = TDivisor((1, 0, 0))
    assert not is_cartier(P112, d0)
    assert is_cartier(P112, 2 * d0)


def test_picard_smooth_fans():
    assert picard_group(P2).describe() == "Z"
    assert picard_group(named_fan("P3")).describe() == "Z"
    assert picard_group(P1xP1).describe() == "Z^2"
    assert picard_group(F1).describe() == "Z^2"
    for fan in (P2, F1, P1xP1):
        assert picard_embedding(fan).index == 1


def test_picard_weighted_plane_index_two():
    pres = picard_group(P112)
    assert pres.describe() == "Z"
    emb = picard_embedding(P112)
    assert emb.index == 2


def test_picard_requires_complete_fan():
    fan = Fan(2, [(1, 0), (0, 1)], [(0, 1)])
    with pytest.raises(HypothesisError):
        picard_group(fan)


def test_picard_matches_relation_kernel_oracle():
    """Pic(X) = CDiv_T(X)/M agrees with the relation kernel in Cl(X): same
    group, same index [Cl : Pic], same generators, and the same relations
    on the shared ambient Z^B."""
    rng = random.Random(97)
    indices = set()
    for fan in seeded_fans():
        pres, emb = picard_group(fan), picard_embedding(fan)
        oracle_pres, oracle_emb = picard_by_relations(fan)
        assert pres.describe() == oracle_pres.describe(), fan.rays
        assert pres.invariant_factors == oracle_pres.invariant_factors, fan.rays
        assert emb == oracle_emb, fan.rays
        assert pres.ambient_rank == oracle_pres.ambient_rank
        for _ in range(8):
            x = tuple(rng.randint(-3, 3) for _ in range(pres.ambient_rank))
            assert pres.project(x).is_zero() == oracle_pres.project(x).is_zero(), (fan.rays, x)
        # A principal divisor has B-coordinates, and they vanish in Pic(X).
        columns = tuple(zip(*_cartier_divisor_lattice(fan)))
        m = tuple(rng.randint(-3, 3) for _ in range(fan.rank))
        assert pres.project(solve_integer_system(columns, principal_divisor(fan, m).coeffs)).is_zero()
        indices.add(emb.index)
    assert indices == {1, 2, 6, 9, 10, 15, 18, None}


def test_picard_is_free_on_complete_fans():
    # Cox–Little–Schenck, Prop 4.2.5: Pic(X) of a complete fan is free.
    for fan in seeded_fans():
        assert validate_fan(fan).complete
        assert picard_group(fan).invariant_factors == (), fan.rays


def test_picard_signature_is_field_free():
    # The computation depends on the fan alone; there is no field to pass.
    import inspect

    assert list(inspect.signature(picard_group).parameters) == ["fan"]


def test_picard_equals_class_group_on_smooth_library():
    from toricpic.library import named_fan as nf

    for name in ("P1", "P2", "P3", "P1xP1", "F1", "F2", "F3"):
        fan = nf(name)
        pic = picard_group(fan)
        cl = class_group(fan).presentation
        assert (pic.free_rank, pic.invariant_factors) == (cl.free_rank, cl.invariant_factors)
        assert picard_embedding(fan).index == 1


def test_cocycle_of_hyperplane_frozen():
    # Spec cone ordering {0,1},{1,2},{2,0}: witnesses and entries match the
    # hand-derived Cartier data of H.
    fan = Fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (2, 0)])
    witnesses = cartier_witnesses(fan, (0, 0, 1))
    assert witnesses == ((0, 0), (1, 0), (0, 1))
    alpha = divisor_to_cocycle(fan, (0, 0, 1))
    assert alpha.entry(0, 1) == (-1, 0)
    assert alpha.entry(0, 2) == (0, -1)
    assert alpha.entry(1, 2) == (1, -1)
    check_cocycle(fan, alpha)


def test_cocycle_of_principal_divisor_is_zero():
    rng = random.Random(9)
    for _ in range(10):
        m = tuple(rng.randint(-4, 4) for _ in range(2))
        alpha = divisor_to_cocycle(P2, principal_divisor(P2, m))
        assert all(not any(v) for _, v in alpha.entries)


def test_cocycle_of_zero_divisor_is_zero():
    alpha = divisor_to_cocycle(P2, (0, 0, 0))
    assert all(not any(v) for _, v in alpha.entries)


def test_cocycle_invariants_on_random_cartier_divisors():
    rng = random.Random(13)
    for fan in (P2, F1, P1xP1, named_fan("P3")):
        for _ in range(10):
            d = TDivisor(tuple(rng.randint(-4, 4) for _ in fan.rays))
            alpha = divisor_to_cocycle(fan, d)
            check_cocycle(fan, alpha)
            r = alpha.num_cones
            for i in range(r):
                for j in range(r):
                    assert alpha.entry(i, j) == tuple(-x for x in alpha.entry(j, i))


def test_cocycle_class_reflexive():
    alpha = divisor_to_cocycle(P2, H)
    assert cocycle_class_equal(P2, alpha, alpha)


def test_cocycle_class_invariant_under_principal_shift():
    rng = random.Random(17)
    for fan in (P2, F1):
        for _ in range(10):
            d = TDivisor(tuple(rng.randint(-3, 3) for _ in fan.rays))
            m = tuple(rng.randint(-3, 3) for _ in range(fan.rank))
            alpha = divisor_to_cocycle(fan, d)
            beta = divisor_to_cocycle(fan, d + principal_divisor(fan, m))
            assert cocycle_class_equal(fan, alpha, beta)


def test_cocycle_class_distinguishes_h_from_2h():
    alpha = divisor_to_cocycle(P2, hyperplane(1))
    beta = divisor_to_cocycle(P2, hyperplane(2))
    assert not cocycle_class_equal(P2, alpha, beta)


def test_cocycle_coboundary_on_non_complete_fan():
    # Two half-plane charts meeting in a ray: the orthogonal lattices are
    # nontrivial, so class equality is coarser than entry equality.
    fan = Fan(2, [(1, 0), (0, 1), (-1, 0)], [(0, 1), (1, 2)])
    zero = divisor_to_cocycle(fan, (0, 0, 0))
    shifted = MonomialCocycle(2, 2, (((0, 1), (1, 0)),))
    # (1,0) = m_0 - m_1 with m_0 = (1,0) orthogonal to cone(e2)? No: charts are
    # 2-dimensional, orthogonals vanish... use genuinely lower-dim cones.
    assert not cocycle_class_equal(fan, zero, shifted)
    ray_fan = Fan(2, [(1, 0), (-1, 0)], [(0,), (1,)])
    zero2 = MonomialCocycle(2, 2, (((0, 1), (0, 0)),))
    shifted2 = MonomialCocycle(2, 2, (((0, 1), (0, 3)),))
    # (0,3) = m_0 - m_1 with m_0 = (0,3), m_1 = 0, both orthogonal to (±1,0).
    assert cocycle_class_equal(ray_fan, zero2, shifted2)
    off = MonomialCocycle(2, 2, (((0, 1), (1, 0)),))
    assert not cocycle_class_equal(ray_fan, zero2, off)


def _chart_fans(rng):
    """Complete fans (the seeded oracle fans and smooth surfaces), sub-fans
    on random subsets of their maximal cones, and fans whose maximal cones
    are random faces of their cones, the zero cone included, in a shuffled
    order so that chart 0 is often lower-dimensional."""
    complete = seeded_fans() + [blown_up_plane(k, rng) for k in (5, 6, 7)]
    for fan in complete:
        cones = [c.ray_indices for c in fan.max_cones]
        yield fan
        yield Fan(fan.rank, fan.rays, rng.sample(cones, rng.randint(1, len(cones))))
        for _ in range(3):
            faces = {tuple(rng.sample(c, rng.randint(0, len(c)))) for c in rng.sample(cones, min(len(cones), 5))}
            yield Fan(fan.rank, fan.rays, rng.sample(sorted(faces), len(faces)))


def _coboundary(rank, m):
    pairs = combinations(range(len(m)), 2)
    return MonomialCocycle(len(m), rank, tuple(((i, j), vec_sub(m[i], m[j])) for i, j in pairs))


def _moved(alpha, k, delta):
    """alpha with delta != 0 added to its k-th entry: no longer a cocycle
    once there are three charts, since some triple holds that entry."""
    entries = list(alpha.entries)
    entries[k] = (entries[k][0], vec_add(entries[k][1], delta))
    return MonomialCocycle(alpha.num_cones, alpha.rank, tuple(entries))


def test_cocycle_class_matches_pairwise_oracle():
    # Chart 0 alone against one system over every pair of charts.  beta is
    # alpha plus the coboundary of a shift that is orthogonal to each chart
    # (same class), or not orthogonal on chart 0 only or on random charts;
    # a third of the pairs move one entry, of beta alone or of both.
    rng = random.Random(2311)
    kinds = Counter()
    for fan in _chart_fans(rng):
        n = fan.rank
        orthogonal = [integer_kernel(fan.ray_vectors(c)) if c.ray_indices else
                      tuple(tuple(int(i == j) for j in range(n)) for i in range(n)) for c in fan.max_cones]
        for _ in range(12 if len(fan.max_cones) > 1 else 2):
            m = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in fan.max_cones]
            shift = [tuple(sum(rng.randint(-2, 2) * v[i] for v in basis) for i in range(n)) for basis in orthogonal]
            kind = rng.random()
            if kind < 0.2:
                shift[0] = vec_add(shift[0], tuple(rng.randint(-1, 1) for _ in range(n)))
            elif kind < 0.35:
                shift = [vec_add(v, tuple(rng.randint(-1, 1) for _ in range(n))) if rng.random() < 0.5 else v
                         for v in shift]
            alpha = _coboundary(n, m)
            beta = _coboundary(n, [vec_add(a, b) for a, b in zip(m, shift)])
            if alpha.entries and rng.random() < 1 / 3:
                k = rng.randrange(len(alpha.entries))
                delta = tuple(rng.choice((-1, 1)) * int(i == rng.randrange(n)) for i in range(n))
                beta = _moved(beta, k, delta)
                if rng.random() < 0.5:
                    alpha = _moved(alpha, k, delta)
                try:
                    check_cocycle(fan, beta)
                except InputError as exc:
                    kinds["not a cocycle"] += "identity" in str(exc)
            got = cocycle_class_equal(fan, alpha, beta)
            assert got == pairwise_class_equal(fan, alpha, beta), (fan.rays, fan.max_cones, alpha, beta)
            kinds[got] += 1
            kinds["chart 0 lower-dimensional"] += fan.max_cones[0].dim < n
    assert kinds[True] + kinds[False] >= 3000, kinds
    assert min(kinds[True], kinds[False]) >= 1000, kinds
    assert min(kinds["not a cocycle"], kinds["chart 0 lower-dimensional"]) >= 500, kinds


def test_pullback_power_map_identity():
    alpha = divisor_to_cocycle(P2, H)
    assert pullback_entries(alpha, 1) == dict(alpha.entries)


def pullback_entries(alpha, t):
    from toricpic.divisor import pullback_by_power_map

    return dict(pullback_by_power_map(alpha, t).entries)


def test_pullback_doubles_and_matches_2h():
    from toricpic.divisor import pullback_by_power_map

    alpha = divisor_to_cocycle(P2, hyperplane(1))
    doubled = pullback_by_power_map(alpha, 2)
    beta = divisor_to_cocycle(P2, hyperplane(2))
    assert cocycle_class_equal(P2, doubled, beta)


def test_pullback_zero_cocycle():
    from toricpic.divisor import pullback_by_power_map

    zero = divisor_to_cocycle(P2, (0, 0, 0))
    assert pullback_by_power_map(zero, 7) == zero


def test_polytope_3h():
    p = divisor_polytope(P2, hyperplane(3))
    assert p.dim == 2
    assert set(p.vertices) == {
        (Fraction(0), Fraction(0)),
        (Fraction(3), Fraction(0)),
        (Fraction(0), Fraction(3)),
    }


def test_polytope_zero_divisor():
    p = divisor_polytope(P2, (0, 0, 0))
    assert p.dim == 0
    assert p.vertices == ((Fraction(0), Fraction(0)),)


def test_polytope_minus_h_empty():
    p = divisor_polytope(P2, hyperplane(-1))
    assert p.dim == -1
    assert p.vertices == ()
    assert lattice_points(p) == []


def test_polytope_rational_vertices_on_weighted_plane():
    # P_{D0} on P(1,1,2) has a half-integer vertex; lattice enumeration must
    # still be exact.
    p = divisor_polytope(P112, (1, 0, 0))
    assert p.dim == 2
    assert set(p.vertices) == {
        (Fraction(-1), Fraction(0)),
        (Fraction(0), Fraction(0)),
        (Fraction(-1), Fraction(1, 2)),
    }
    assert sorted(lattice_points(p)) == [(-1, 0), (0, 0)]
    assert lattice_points(p, interior_only=True) == []


def test_polytope_unbounded_rejected():
    fan = Fan(2, [(1, 0), (0, 1)], [(0, 1)])
    with pytest.raises(HypothesisError):
        divisor_polytope(fan, (1, 1))


def box_count(d, interior):
    """Independent oracle: brute lattice count for d*standard simplex."""
    count = 0
    for x in range(-1, d + 2):
        for y in range(-1, d + 2):
            if interior:
                if x > 0 and y > 0 and x + y < d:
                    count += 1
            else:
                if x >= 0 and y >= 0 and x + y <= d:
                    count += 1
    return count


def test_lattice_points_3h():
    p = divisor_polytope(P2, hyperplane(3))
    pts = lattice_points(p)
    assert len(pts) == 10 == box_count(3, False)
    interior = lattice_points(p, interior_only=True)
    assert interior == [(1, 1)]
    assert len(interior) == box_count(3, True)


def test_lattice_points_interior_of_point():
    p = divisor_polytope(P2, (0, 0, 0))
    assert lattice_points(p, interior_only=True) == [(0, 0)]


def test_polytope_translation_invariance():
    rng = random.Random(19)
    for fan in (P2, F1, P1xP1):
        for _ in range(10):
            d = TDivisor(tuple(rng.randint(-2, 4) for _ in fan.rays))
            m = tuple(rng.randint(-3, 3) for _ in range(fan.rank))
            p = divisor_polytope(fan, d)
            q = divisor_polytope(fan, d + principal_divisor(fan, m))
            assert q.dim == p.dim
            # P_{D + div(m)} is P_D translated by -m.
            shifted = {tuple(a + b for a, b in zip(v, m)) for v in q.vertices}
            assert shifted == set(p.vertices)


def test_polytope_scaling_invariance():
    rng = random.Random(23)
    for fan in (P2, F1):
        for _ in range(10):
            d = TDivisor(tuple(rng.randint(-2, 4) for _ in fan.rays))
            for t in (1, 2, 3):
                p = divisor_polytope(fan, d)
                q = divisor_polytope(fan, t * d)
                assert q.dim == p.dim
                scaled = {tuple(t * x for x in v) for v in p.vertices}
                assert scaled == set(q.vertices)


def test_basepoint_free_examples():
    for d in range(0, 4):
        assert is_basepoint_free(P2, hyperplane(d))
    assert not is_basepoint_free(P2, hyperplane(-1))


def test_basepoint_free_scaling_agreement():
    rng = random.Random(29)
    for fan in (P2, F1, P1xP1):
        for _ in range(15):
            d = TDivisor(tuple(rng.randint(-2, 3) for _ in fan.rays))
            verdict = is_basepoint_free(fan, d)
            for p in (2, 3):
                assert is_basepoint_free(fan, p * d) == verdict


P2_CONES = [(0, 1), (1, 2), (2, 0)]


@pytest.mark.parametrize(
    "call",
    [
        lambda v: as_divisor(P2, (0, 0, v)),
        lambda v: cohomology(P2, (0, 0, v)),
        lambda v: from_divisor(P2, (0, 0, v), 2, 0),
        lambda v: v * TDivisor((1, 0, 0)),
        lambda v: principal_divisor(P2, (v, 0)),
        lambda v: graded_piece_cohomology(P2, (0, 0, 2), (v, 0)),
        lambda v: Fan(2, [(v, 0), (0, 1), (-1, -1)], P2_CONES),
        lambda v: Fan(2, P2.rays, [(v, 1), (1, 2), (2, 0)]),
    ],
    ids=["as_divisor", "cohomology", "from_divisor", "rmul", "principal_divisor",
         "graded_piece_cohomology", "fan_ray", "fan_cone_index"],
)
def test_non_integer_input_is_refused(call):
    # Each entry point used to truncate with int(): 2.7 read as 2, 0.9 as 0.
    call(1)
    for value in (2.7, 1.5, 0.9, 2.0, True, "1", Fraction(1)):
        with pytest.raises(InputError, match="must be an integer"):
            call(value)


def test_as_divisor_length_check():
    from toricpic.errors import InputError

    with pytest.raises(InputError):
        as_divisor(P2, (1, 2))
