"""Pic(X) by the relation kernel in Cl(X), kept as a test oracle, and the
seeded fans it is compared on.

`toricpic.divisor` reads Pic(X) off 0 -> M -> CDiv_T(X) -> Pic(X) -> 0.
This module takes the longer route: it projects the Cartier lattice B into
Cl(X), solves for the integer relations among the projected generators
over Cl's free and torsion coordinates, and takes two cokernels, one for
Pic(X) and one for Cl(X)/Pic(X).  Both routes present Pic(X) on the same
ambient Z^B, so their presentations can be compared coordinate by
coordinate.
"""

import random
from itertools import combinations, product

from toricpic.divisor import PicardEmbedding, _cartier_divisor_lattice, class_group
from toricpic.fan import Fan
from toricpic.lattice import cokernel, integer_kernel
from toricpic.library import NAMED_FAN_NAMES, named_fan


def picard_by_relations(fan):
    """(Pic(X) presented on Z^B, its embedding in Cl(X)) by the relation kernel."""
    pres = class_group(fan).presentation
    gens = [pres.project(v) for v in _cartier_divisor_lattice(fan)]

    f = pres.free_rank
    t = len(pres.invariant_factors)
    coords = [list(g.free) + list(g.torsion) for g in gens]
    # Relations among the generators: integer combinations hitting zero in
    # Cl, i.e. zero on the free part and divisible on the torsion part.
    s = len(gens)
    rows = [[coords[j][i] for j in range(s)] + [0] * t for i in range(f)]
    for i in range(t):
        rows.append(
            [coords[j][f + i] for j in range(s)]
            + [pres.invariant_factors[i] if k == i else 0 for k in range(t)]
        )
    relations = [v[:s] for v in integer_kernel(rows or [[0] * (s + t)])]
    relation_matrix = [[rel[i] for rel in relations] for i in range(s)] if relations else [[] for _ in range(s)]
    sub_pres = cokernel(relation_matrix, ambient_rank=s)

    # Index [Cl : Pic]: the quotient of Cl by the generated subgroup.
    quot_cols = coords + [
        [0] * f + [pres.invariant_factors[i] if k == i else 0 for k in range(t)] for i in range(t)
    ]
    quotient = cokernel([[col[i] for col in quot_cols] for i in range(f + t)], ambient_rank=f + t)
    index = None
    if quotient.free_rank == 0:
        index = 1
        for d in quotient.invariant_factors:
            index *= d
    return sub_pres, PicardEmbedding(tuple(gens), index)


# ---------------------------------------------------------------------------
# Seeded complete fans
# ---------------------------------------------------------------------------

def weighted(q):
    """P(q_0, ..., q_n) with q_0 = 1: rays e_1..e_n and -sum q_i e_i."""
    n = len(q) - 1
    rays = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    rays.append(tuple(-x for x in q[1:]))
    return Fan(n, rays, combinations(range(n + 1), n))


def fan_product(f, g):
    rays = [u + (0,) * g.rank for u in f.rays] + [(0,) * f.rank + v for v in g.rays]
    off = len(f.rays)
    cones = [a.ray_indices + tuple(off + i for i in b.ray_indices)
             for a in f.max_cones for b in g.max_cones]
    return Fan(f.rank + g.rank, rays, cones)


def star_subdivide(fan, face):
    """Blow up along the cone spanned by the rays `face`: add the sum of its
    generators as a ray and split every maximal cone that contains it."""
    new = tuple(sum(fan.rays[i][j] for i in face) for j in range(fan.rank))
    k = len(fan.rays)
    cones = []
    for cone in fan.max_cones:
        if set(face) <= set(cone.ray_indices):
            cones.extend((set(cone.ray_indices) - {i}) | {k} for i in face)
        else:
            cones.append(cone.ray_indices)
    return Fan(fan.rank, fan.rays + (new,), cones)


def unimodular_image(fan, rng, steps=3):
    """The fan under a seeded GL(n, Z) element: a signed permutation times
    `steps` elementary row operations with multiplier +-1."""
    n = fan.rank
    perm = list(range(n))
    rng.shuffle(perm)
    g = [[(rng.choice((1, -1)) if perm[i] == j else 0) for j in range(n)] for i in range(n)]
    for _ in range(steps if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        t = rng.choice((1, -1))
        g[i] = [a + t * b for a, b in zip(g[i], g[j])]
    rays = [tuple(sum(a * b for a, b in zip(row, u)) for row in g) for u in fan.rays]
    return Fan(n, rays, [c.ray_indices for c in fan.max_cones])


def cube_fan():
    """The fan over the faces of [-1, 1]^3: eight rays, six non-simplicial
    cones.  Pic(X) has rank 1 in a class group of rank 5."""
    rays = list(product((-1, 1), repeat=3))
    cones = [[i for i, u in enumerate(rays) if u[axis] == sign]
             for axis in range(3) for sign in (-1, 1)]
    return Fan(3, rays, cones)


def seeded_fans(seed=101):
    """Named fans, weighted projective spaces, products, blow-ups, a quotient
    of P2 with torsion in Cl(X) and the cube fan, each followed by two
    seeded GL(n, Z) images."""
    p3 = named_fan("P3")
    p1 = named_fan("P1")
    p112 = named_fan("P112")
    p123 = weighted((1, 2, 3))
    p1123 = weighted((1, 1, 2, 3))
    base = [named_fan(name) for name in NAMED_FAN_NAMES]
    base += [
        p123,
        weighted((1, 3, 5)),
        p1123,
        weighted((1, 2, 2, 5)),
        fan_product(p1, named_fan("P2")),
        fan_product(p112, p1),
        fan_product(p123, p1),
        fan_product(fan_product(p1, p1), p1),
        star_subdivide(p3, (0, 1)),
        star_subdivide(p3, (0, 1, 2)),
        star_subdivide(p112, (1, 2)),
        star_subdivide(p1123, (2, 3)),
        star_subdivide(p123, (0, 2)),
        Fan(2, [(2, -1), (-1, 2), (-1, -1)], [(0, 1), (1, 2), (2, 0)]),  # P2/(Z/3)
        cube_fan(),
    ]
    rng = random.Random(seed)
    fans = []
    for fan in base:
        fans.append(fan)
        fans.extend(unimodular_image(fan, rng) for _ in range(2))
    return fans
