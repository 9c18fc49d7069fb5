"""Fan construction, validation, face machinery, smooth/complete predicates."""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import polyhedral_oracle as oracle
import pytest
from test_cohomology import blown_up_plane

from toricpic.divisor import divisor_polytope
from toricpic.errors import InputError
from toricpic.fan import Fan, _completeness, cone_intersection, faces, is_complete, is_smooth, validate_fan
from toricpic.lattice import dot, integer_kernel, primitive, rational_rank
from toricpic.library import NAMED_FAN_NAMES, named_fan, projective_space
from toricpic.polyhedra import (
    cone_contains,
    cone_extreme_rays,
    cone_hrep,
    hull_facets,
    is_pointed,
    meet_in_common_face,
)


def test_p2_is_valid_smooth_complete():
    report = validate_fan(named_fan("P2"))
    assert report.valid and report.smooth and report.complete
    assert report.diagnostics == ()


def test_single_cone_valid_not_complete():
    fan = Fan(2, [(1, 0), (0, 1)], [(0, 1)])
    report = validate_fan(fan)
    assert report.valid
    assert not report.complete


def test_non_overlapping_pair_is_valid():
    # Sectors [0,45] and [63.4,90] degrees meet only at the origin, which is
    # a common face, so this fan is valid (and clearly not complete).
    fan = Fan(2, [(1, 0), (1, 1), (1, 2), (0, 1)], [(0, 1), (2, 3)])
    report = validate_fan(fan)
    assert report.valid
    assert not report.complete


def test_overlapping_interiors_invalid():
    # Sectors [0,63.4] and [45,90] degrees overlap in a 2-dimensional set;
    # their intersection is not a face of either.
    fan = Fan(2, [(1, 0), (1, 2), (1, 1), (0, 1)], [(0, 1), (2, 3)])
    report = validate_fan(fan)
    assert not report.valid
    assert any("not a common face" in d for d in report.diagnostics)


def test_nested_max_cones_invalid():
    fan = Fan(2, [(1, 0), (0, 1), (1, 1)], [(0, 1), (0, 2)])
    report = validate_fan(fan)
    assert not report.valid
    assert any("contains the other" in d for d in report.diagnostics)


@pytest.mark.parametrize(
    "rank, rays, cones",
    [
        # A maximal cone that is a face of another: the pair passes the
        # separation test, and only the ray sets show the nesting.
        (2, [(1, 0), (0, 1)], [(0, 1), (0,)]),
        (3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(0, 1, 2), (1, 2)]),
        # The cone over a square and its diagonal: nested, but not a face,
        # so the pair fails the separation test.
        (3, [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)], [(0, 1, 2, 3), (0, 2)]),
    ],
)
def test_nested_ray_sets_contain_one_another(rank, rays, cones):
    report = validate_fan(Fan(rank, rays, cones))
    assert not report.valid
    assert report.diagnostics == (
        f"maximal cone {list(cones[0])} and {list(cones[1])}: one contains the other",
    )


def test_line_through_origin_invalid():
    fan = Fan(1, [(1,), (-1,)], [(0, 1)])
    report = validate_fan(fan)
    assert not report.valid
    assert any("line through the origin" in d for d in report.diagnostics)


def test_redundant_generator_invalid():
    fan = Fan(2, [(1, 0), (0, 1), (1, 1)], [(0, 1, 2)])
    report = validate_fan(fan)
    assert not report.valid
    assert any("redundant" in d for d in report.diagnostics)


def test_unused_ray_invalid():
    fan = Fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1)])
    report = validate_fan(fan)
    assert not report.valid
    assert any("no maximal cone" in d for d in report.diagnostics)


def test_constructor_rejections():
    with pytest.raises(InputError):
        Fan(2, [(0, 0), (1, 0)], [(0, 1)])  # zero ray
    with pytest.raises(InputError):
        Fan(2, [(1, 0), (2, 0)], [(0, 1)])  # duplicate after normalization
    with pytest.raises(InputError):
        Fan(2, [(1, 0), (0, 1)], [(0, 5)])  # index out of range
    with pytest.raises(InputError):
        Fan(7, [tuple(1 if i == j else 0 for j in range(7)) for i in range(7)], [tuple(range(7))])
    with pytest.raises(InputError):
        Fan(2, [(1, 0), (0, 1)], [])  # no maximal cones


def test_rays_normalized_primitive():
    fan = Fan(2, [(2, 4), (3, 0)], [(0, 1)])
    assert fan.rays == ((1, 2), (1, 0))


def test_smoothness_examples():
    assert is_smooth(named_fan("P2"))
    assert is_smooth(named_fan("F1"))
    assert not is_smooth(Fan(2, [(1, 0), (1, 2)], [(0, 1)]))  # determinant 2
    assert not is_smooth(named_fan("P112"))


def test_completeness_examples():
    assert is_complete(named_fan("P2"))
    assert is_complete(named_fan("F1"))
    assert not is_complete(Fan(2, [(1, 0), (0, 1)], [(0, 1)]))


def test_three_quadrants_not_complete():
    # Full-dimensional and pairwise-face-valid, but the support misses the
    # fourth quadrant: boundary facets are incident to one cone only.
    fan = Fan(2, [(1, 0), (0, 1), (-1, 0)], [(0, 1), (1, 2)])
    report = validate_fan(fan)
    assert report.valid
    assert not report.complete


def test_non_pure_fan_gets_completeness_diagnostic():
    fan = Fan(2, [(1, 0), (0, 1)], [(0,), (1,)])
    report = validate_fan(fan)
    assert report.valid
    assert not report.complete
    assert any("full-dimensional" in d for d in report.diagnostics)


def test_predicates_require_valid_fan():
    bad = Fan(2, [(1, 0), (1, 2), (1, 1), (0, 1)], [(0, 1), (2, 3)])
    with pytest.raises(InputError):
        is_smooth(bad)
    with pytest.raises(InputError):
        is_complete(bad)


def test_named_fan_classification():
    smooth_names = {"P1", "P2", "P3", "P1xP1", "F1", "F2", "F3"}
    for name in NAMED_FAN_NAMES:
        fan = named_fan(name)
        report = validate_fan(fan)
        assert report.valid, name
        assert report.complete, name
        assert report.smooth == (name in smooth_names), name


def test_faces_of_smooth_quadrant():
    fan = Fan(2, [(1, 0), (0, 1)], [(0, 1)])
    face_sets = {f.ray_indices for f in faces(fan, fan.max_cones[0])}
    assert face_sets == {(), (0,), (1,), (0, 1)}


def test_faces_of_zero_cone():
    fan = named_fan("P2")
    zero = fan.cone_of(())
    assert faces(fan, zero) == [zero]


def test_faces_of_cone_over_square():
    fan = Fan(3, [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)], [(0, 1, 2, 3)])
    fs = faces(fan, fan.max_cones[0])
    by_dim = {}
    for f in fs:
        by_dim.setdefault(f.dim, []).append(f)
    assert len(by_dim[2]) == 4  # facets
    assert len(by_dim[1]) == 4  # edges
    assert len(by_dim[0]) == 1  # zero cone
    assert len(by_dim[3]) == 1  # the cone itself


def test_cone_intersection_shared_ray():
    fan = named_fan("P2")
    c1 = fan.cone_of((0, 1))
    c2 = fan.cone_of((1, 2))
    assert cone_intersection(fan, c1, c2).ray_indices == (1,)


def test_cone_intersection_idempotent():
    fan = named_fan("P2")
    for c in fan.max_cones:
        assert cone_intersection(fan, c, c) == c


def test_cone_intersection_opposite_cones():
    fan = named_fan("F1")
    c1 = fan.cone_of((0, 1))
    c2 = fan.cone_of((2, 3))
    meet = cone_intersection(fan, c1, c2)
    assert meet.ray_indices == ()
    assert meet.dim == 0


def test_cone_intersection_rejects_invalid_fan():
    bad = Fan(2, [(1, 0), (1, 2), (1, 1), (0, 1)], [(0, 1), (2, 3)])
    with pytest.raises(InputError):
        cone_intersection(bad, bad.max_cones[0], bad.max_cones[1])


def test_cone_intersection_matches_polyhedral_oracle():
    # On every named (simplicial) fan, the ray-set intersection agrees with
    # the rational-polyhedron intersection computed from H-representations.
    for name in NAMED_FAN_NAMES:
        fan = named_fan(name)
        for c1, c2 in combinations(fan.max_cones, 2):
            meet = cone_intersection(fan, c1, c2)
            expected = oracle.cone_intersection_rays(fan.ray_vectors(c1), fan.ray_vectors(c2), fan.rank)
            assert set(fan.ray_vectors(meet)) == set(expected), (name, c1, c2)


def permuted_copy(fan, rng):
    perm = list(range(len(fan.rays)))
    rng.shuffle(perm)
    # perm[new_index] = old_index; build the inverse remap for cones
    inv = {old: new for new, old in enumerate(perm)}
    rays = [fan.rays[old] for old in perm]
    cones = [[inv[i] for i in c.ray_indices] for c in fan.max_cones]
    rng.shuffle(cones)
    return Fan(fan.rank, rays, cones)


def test_validation_order_independence():
    rng = random.Random(41)
    fans = [named_fan(n) for n in NAMED_FAN_NAMES]
    fans.append(Fan(2, [(1, 0), (1, 2), (1, 1), (0, 1)], [(0, 1), (2, 3)]))  # invalid
    fans.append(Fan(2, [(1, 0), (0, 1)], [(0, 1)]))  # valid, not complete
    for fan in fans:
        base = validate_fan(fan)
        for _ in range(4):
            other = validate_fan(permuted_copy(fan, rng))
            assert (base.valid, base.smooth, base.complete) == (
                other.valid,
                other.smooth,
                other.complete,
            )


def test_unknown_named_fan():
    with pytest.raises(InputError):
        named_fan("P4xF2")


def _random_vector(rng, n, bound):
    while True:
        v = tuple(rng.randint(-bound, bound) for _ in range(n))
        if any(v):
            return primitive(v)


def _extreme_generators(gens, n):
    # The primitive extreme rays, or None when cone(gens) holds a line: its
    # normals then span less than the dual space.
    ineqs, eqs = cone_hrep(gens, n)
    if rational_rank(ineqs + eqs) < n:
        return None
    return list(cone_extreme_rays(ineqs, eqs, n))


def _random_cone_pair(rng, n):
    """Two pointed cones with irredundant generators, or None.

    Half the pairs lie on either side of a random hyperplane m = 0 that
    holds their shared generators, so they meet in a common face; a third
    of those get one generator moved to the wrong side.  The other half
    are unrelated cones that may share generators.
    """
    if rng.random() < 0.5:
        m = _random_vector(rng, n, 3)
        plane = integer_kernel([m])
        shared = []
        for _ in range(rng.randint(0, n - 1)):
            v = tuple(sum(rng.randint(-2, 2) * b[i] for b in plane) for i in range(n))
            if any(v):
                shared.append(primitive(v))

        def side(sign, count):
            out = []
            while len(out) < count:
                v = _random_vector(rng, n, 3)
                if sign * dot(m, v) > 0:
                    out.append(v)
            return out

        first = shared + side(1, rng.randint(1, n))
        second = shared + side(-1, rng.randint(1, n))
        if rng.random() < 1 / 3:
            second[-1] = side(1, 1)[0]
    else:
        first = [_random_vector(rng, n, 2) for _ in range(rng.randint(1, n + 2))]
        second = rng.sample(first, rng.randint(0, len(first))) + [
            _random_vector(rng, n, 2) for _ in range(rng.randint(1, n + 1))
        ]
    first, second = _extreme_generators(first, n), _extreme_generators(second, n)
    return None if first is None or second is None else (first, second)


def test_common_face_predicate_matches_polyhedral_oracle():
    # The separation-lemma test against the H-representation route it
    # replaced, on pairs of pointed cones with irredundant generators.
    rng = random.Random(20260318)
    outcomes = {True: 0, False: 0}
    non_simplicial = shared = 0
    pairs = 0
    while pairs < 960:
        n = 2 + pairs % 3
        pair = _random_cone_pair(rng, n)
        if pair is None:
            continue
        first, second = pair
        got = meet_in_common_face(first, second, n)
        assert got == oracle.meet_in_common_face(first, second, n), (n, first, second)
        outcomes[got] += 1
        non_simplicial += len(first) > n or len(second) > n
        shared += bool(set(first) & set(second))
        pairs += 1
    assert min(outcomes.values()) >= 150, outcomes
    assert non_simplicial >= 50 and shared >= 200, (non_simplicial, shared)


def test_separated_cones_nest_only_by_ray_sets():
    # The lemma behind one separation test per pair in validate_fan: two
    # pointed cones with irredundant generators that meet in a common face
    # meet in cone(shared generators), so one lies in the other exactly when
    # its generators are among the other's.  A third of the pairs are a
    # pointed cone (random vectors on one side of a random form) and a
    # random subset of its generators: a face, or a cone through its
    # interior such as a diagonal.
    rng = random.Random(20261020)
    kinds = Counter()
    while kinds["separated"] < 600:
        n = rng.randint(2, 4)
        if rng.random() < 1 / 3:
            form = _random_vector(rng, n, 2)
            vecs = [_random_vector(rng, n, 2) for _ in range(rng.randint(n, n + 3))]
            first = _extreme_generators([v if dot(form, v) > 0 else tuple(-x for x in v) for v in vecs if dot(form, v)], n)
            if first is None or len(first) < 2:
                continue
            if rng.random() < 0.5:
                ineqs, _ = cone_hrep(first, n)
                on = rng.sample(ineqs, rng.randint(1, len(ineqs))) if ineqs else []
                second = [g for g in first if all(dot(a, g) == 0 for a in on)]
            else:
                second = rng.sample(first, rng.randint(min(2, len(first) - 1), len(first) - 1))
            if not second:
                continue
            pair = (first, second) if rng.random() < 0.5 else (second, first)
        else:
            pair = _random_cone_pair(rng, n)
            if pair is None:
                continue
        first, second = pair
        nested = set(first) <= set(second) or set(second) <= set(first)
        if not meet_in_common_face(first, second, n):
            kinds["nested, not a face" if nested else "not separated"] += 1
            continue
        for a, b in (pair, pair[::-1]):
            assert all(cone_contains(b, g) for g in a) == (set(a) <= set(b)), (n, first, second)
        kinds["separated"] += 1
        kinds["separated, nested"] += nested
    assert min(kinds["separated, nested"], kinds["separated"] - kinds["separated, nested"]) >= 150, kinds
    assert kinds["nested, not a face"] >= 20, kinds


def test_cone_membership_and_pointedness_match_oracles():
    # Pointedness against "-g in cone(G)" on every cone, lines included;
    # membership (a Gordan test, so defined for pointed cones only) against
    # every independent subset.  Half the cones are made pointed by
    # orienting the generators along a random form, with redundant positive
    # combinations added, and half are random, often with a generator's
    # negation added.  The cones include zero generators and
    # lower-dimensional spans, and the points include some outside the span.
    rng = random.Random(7130)
    kinds = ("line", "pointed", "zero_generator", "redundant", "inside", "outside_span", "outside_in_span")
    seen = dict.fromkeys(kinds, 0)
    for trial in range(440):
        n = 1 + trial % 4
        basis = [_random_vector(rng, n, 2) for _ in range(rng.randint(1, n))]
        gens = []
        for _ in range(rng.randint(0, n + 3)):
            coeffs = [rng.randint(-2, 2) for _ in basis]
            gens.append(tuple(sum(c * b[i] for c, b in zip(coeffs, basis)) for i in range(n)))
        if trial % 2:
            form = _random_vector(rng, n, 3)
            gens = [g if dot(form, g) >= 0 else tuple(-x for x in g) for g in gens if not any(g) or dot(form, g)]
            nonzero = [g for g in gens if any(g)]
            if len(nonzero) > 1 and rng.random() < 0.75:
                a, b = rng.sample(nonzero, 2)
                gens.append(primitive(tuple(x + rng.randint(1, 2) * y for x, y in zip(a, b))))
                seen["redundant"] += 1
        elif any(map(any, gens)) and rng.random() < 0.5:
            gens.append(tuple(-x for x in rng.choice([g for g in gens if any(g)])))
        pointed = is_pointed(gens)
        assert pointed == (not oracle.has_line(gens)), gens
        seen["pointed" if pointed else "line"] += 1
        seen["zero_generator"] += any(not any(g) for g in gens)
        if not pointed:
            continue
        points = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(4)]
        for _ in range(4):
            weights = [rng.randint(-1, 3) for _ in gens]
            points.append(tuple(sum(w * g[i] for w, g in zip(weights, gens)) for i in range(n)))
        for x in points:
            inside = cone_contains(gens, x)
            assert inside == oracle.caratheodory_contains(gens, x), (gens, x)
            if inside:
                seen["inside"] += 1
            elif rational_rank(gens + [x]) > rational_rank(gens):
                seen["outside_span"] += 1
            else:
                seen["outside_in_span"] += 1
    assert min(seen.values()) >= 100, seen


def test_facet_routines_match_subset_oracles():
    # Hull facets, extreme rays and polytope vertices are all read off
    # cone_hrep; the subset searches they replaced are the reference.
    rng = random.Random(1405)
    hull_dims = Counter()
    for trial in range(240):
        n = 1 + trial % 4
        base = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n))
        dirs = [_random_vector(rng, n, 2) for _ in range(rng.randint(0, n))]
        points = [base]
        for _ in range(rng.randint(0, len(dirs) + 4)):
            w = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in dirs]
            points.append(tuple(b + sum(c * v[i] for c, v in zip(w, dirs)) for i, b in enumerate(base)))
        points += [rng.choice(points) for _ in range(rng.randint(0, 2))]
        facets, eqs = hull_facets(points, n)
        ref_facets, ref_eqs = oracle.subset_hull_facets(points, n)
        assert facets == ref_facets and sorted(eqs) == sorted(ref_eqs), points
        hull_dims[n, n - len(eqs)] += 1
    # Every affine dimension 0..n in every rank, single points included.
    assert all(hull_dims[n, d] >= 5 for n in range(1, 5) for d in range(n + 1)), hull_dims

    cones = faces_seen = 0
    while cones < 200:
        n = 1 + cones % 4
        gens = [_random_vector(rng, n, 2) for _ in range(rng.randint(1, n + 3))]
        ineqs, eqs = cone_hrep(gens, n)
        if rational_rank(ineqs + eqs) < n:
            continue  # cone(gens) holds a line
        cones += 1
        face_eqs = eqs + tuple(rng.sample(ineqs, rng.randint(0, len(ineqs))))
        faces_seen += len(face_eqs) > len(eqs)
        for e in (eqs, face_eqs):
            assert cone_extreme_rays(ineqs, e, n) == oracle.subset_extreme_rays(ineqs, e, n), (ineqs, e)
    assert faces_seen >= 100, faces_seen

    fans = [named_fan(name) for name in NAMED_FAN_NAMES] + [blown_up_plane(k, rng) for k in (5, 6, 8)]
    kinds = Counter()
    for fan in fans:
        for _ in range(16):
            coeffs = tuple(rng.randint(-2, 3) for _ in fan.rays)
            polytope = divisor_polytope(fan, coeffs)
            verts = oracle.subset_polytope_vertices(fan.rays, coeffs)
            dim = rational_rank([[a - b for a, b in zip(v, verts[0])] for v in verts]) if verts else -1
            assert (polytope.vertices, polytope.dim) == (verts, dim), (fan.rays, coeffs)
            kinds["empty" if dim < 0 else "lower" if dim < fan.rank else "full"] += 1
    assert min(kinds.values()) >= 10, kinds


def _unimodular_image(fan, rng):
    """The fan under a random GL(n, Z) map: a few signed elementary row
    operations on the identity, then a sign flip."""
    n = fan.rank
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        m[i] = [x + c * y for x, y in zip(m[i], m[j])]
    m[0] = [rng.choice((-1, 1)) * x for x in m[0]]
    rays = [tuple(dot(row, r) for row in m) for r in fan.rays]
    return Fan(n, rays, [c.ray_indices for c in fan.max_cones])


def _star_subdivision(fan, rng):
    """Stellar subdivision of a simplicial fan at the sum of the rays of a
    random face of dimension >= 2 of a random maximal cone."""
    cone = rng.choice(fan.max_cones).ray_indices
    if len(cone) < 2:
        return fan
    face = set(rng.sample(cone, rng.randint(2, len(cone))))
    new = len(fan.rays)
    ray = primitive(tuple(sum(fan.rays[i][k] for i in face) for k in range(fan.rank)))
    cones = []
    for c in fan.max_cones:
        if face <= set(c.ray_indices):
            cones += [tuple(new if i == t else i for i in c.ray_indices) for t in face]
        else:
            cones.append(c.ray_indices)
    return Fan(fan.rank, fan.rays + (ray,), cones)


def _sub_fan(fan, cones):
    """The fan on the given maximal cones, with unused rays dropped."""
    used = sorted({i for c in cones for i in c})
    index = {old: new for new, old in enumerate(used)}
    return Fan(fan.rank, [fan.rays[i] for i in used], [[index[i] for i in c] for c in cones])


def _merged_neighbours(fan, rng):
    """In a simplicial fan, two maximal cones on rays F + {a} and F + {d}
    replaced by the cone on F + {a, d}, or None when no pair qualifies.  A
    pair qualifies when cone(a, d) meets the relative interior of cone(F):
    the union is then a convex bipyramid whose facets are the old outer
    ones, so the fan stays valid once the rank is at least 3 (in rank 2
    the shared ray would be redundant)."""
    n = fan.rank
    pairs = []
    for first, second in combinations(fan.max_cones, 2):
        shared = set(first.ray_indices) & set(second.ray_indices)
        if len(shared) != n - 1:
            continue
        ends = sorted(set(first.ray_indices) ^ set(second.ray_indices))
        (dependence,) = integer_kernel(list(zip(*[fan.rays[i] for i in ends + sorted(shared)])))
        signs = {x > 0 for x in dependence[2:]} | {x < 0 for x in dependence[:2]}
        if 0 not in dependence and len(signs) == 1:
            pairs.append((first, second))
    if not pairs:
        return None
    a, b = rng.choice(pairs)
    rest = [c.ray_indices for c in fan.max_cones if c not in (a, b)]
    return Fan(n, fan.rays, rest + [tuple(sorted(set(a.ray_indices) | set(b.ray_indices)))])


def test_completeness_matches_dual_graph_oracle():
    # The facet pairing alone against the pairing plus a dual-graph walk,
    # on fans valid by construction: GL(n, Z) images of P^n and (P^1)^n
    # with stellar subdivisions, non-simplicial fans made by merging two
    # neighbours, and sub-fans of both on random proper subsets of the
    # maximal cones.  Every twentieth fan also passes through validate_fan.
    rng = random.Random(5821)
    kinds = Counter()
    while kinds["complete"] + kinds["incomplete"] < 1000:
        n = rng.choice((1, 2, 2, 3, 3, 3, 4))
        if n == 1 or rng.random() < 0.6:
            base = projective_space(n)
        else:
            rays = [tuple(s * int(i == k) for k in range(n)) for s in (1, -1) for i in range(n)]
            base = Fan(n, rays, [[i + n * (bits >> i & 1) for i in range(n)] for bits in range(2**n)])
        fan = _unimodular_image(base, rng)
        for _ in range(rng.randint(0, 4 - n // 2)):
            fan = _star_subdivision(fan, rng)
        candidates = [fan]
        merged = _merged_neighbours(fan, rng) if n > 2 else None
        if merged is not None:
            candidates.append(merged)
        for whole in list(candidates):
            cones = [c.ray_indices for c in whole.max_cones]
            if len(cones) > 1:
                candidates.append(_sub_fan(whole, rng.sample(cones, rng.randint(1, len(cones) - 1))))
        for candidate in candidates:
            complete, diag = _completeness(candidate)
            assert (complete, diag) == oracle.dual_graph_completeness(candidate), candidate.rays
            if (kinds["complete"] + kinds["incomplete"]) % 20 == 0:
                report = validate_fan(candidate)
                assert report.valid and report.complete == complete, report
            kinds["complete" if complete else "incomplete"] += 1
            kinds["non_simplicial"] += any(len(c.ray_indices) > n for c in candidate.max_cones)
            kinds[f"rank{n}"] += 1
    assert min(kinds[k] for k in ("complete", "incomplete", "non_simplicial")) >= 120, kinds
    assert min(kinds[f"rank{n}"] for n in range(1, 5)) >= 50, kinds
