"""Fan constructors for generated workloads: projective and weighted
projective spaces, products, star subdivisions (blow-ups), smooth surfaces
by iterated corner blow-ups, and GL(n, Z) images.

A fan is a pair (rays, cones): a tuple of integer tuples and a tuple of
sorted index tuples.  Nothing imports `toricpic`.
"""

from __future__ import annotations

import math
from itertools import combinations, count, permutations
from itertools import product as cartesian


def primitive(v):
    g = 0
    for x in v:
        g = math.gcd(g, x)
    return tuple(x // g for x in v)


def projective(n):
    rays = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    rays.append(tuple(-1 for _ in range(n)))
    return tuple(rays), tuple(combinations(range(n + 1), n))


def weighted(q):
    """P(q_0, ..., q_n) with q_0 = 1: rays e_1..e_n and -sum q_i e_i."""
    n = len(q) - 1
    rays = [tuple(-x for x in q[1:])]
    rays += [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    return tuple(rays), tuple(combinations(range(n + 1), n))


def product(f, g):
    (rf, cf), (rg, cg) = f, g
    nf, ng = len(rf[0]), len(rg[0])
    rays = [tuple(u) + (0,) * ng for u in rf] + [(0,) * nf + tuple(v) for v in rg]
    off = len(rf)
    cones = [tuple(a) + tuple(off + i for i in b) for a in cf for b in cg]
    return tuple(rays), tuple(sorted(cones))


def star_subdivide(fan, face):
    """Blow up along the cone `face` (a sorted index tuple): add the ray
    sum of its generators and split every maximal cone containing it."""
    rays, cones = fan
    new = primitive(tuple(sum(rays[i][j] for i in face) for j in range(len(rays[0]))))
    k = len(rays)
    out = []
    for c in cones:
        if set(face) <= set(c):
            out.extend(tuple(sorted((set(c) - {i}) | {k})) for i in face)
        else:
            out.append(c)
    return tuple(rays) + (new,), tuple(sorted(out))


def surface(start, k, rng):
    """A smooth complete surface with k rays in cyclic order, blown up from
    `start` (a cyclic ray list) at seeded corners.  Cones are (i, i+1)."""
    rays = list(start)
    while len(rays) < k:
        i = rng.randrange(len(rays))
        u, v = rays[i], rays[(i + 1) % len(rays)]
        rays.insert(i + 1, (u[0] + v[0], u[1] + v[1]))
    cones = tuple(sorted(tuple(sorted((i, (i + 1) % k))) for i in range(k)))
    return tuple(rays), cones


SURFACE_STARTS = {
    "P2": ((1, 0), (0, 1), (-1, -1)),
    "P1xP1": ((1, 0), (0, 1), (-1, 0), (0, -1)),
    "F1": ((1, 0), (0, 1), (-1, 1), (0, -1)),
    "F2": ((1, 0), (0, 1), (-1, 2), (0, -1)),
}


def unimodular(n, rng, steps):
    """A seeded matrix in GL(n, Z): a signed permutation times `steps`
    elementary row operations with multiplier +-1."""
    perm = list(range(n))
    rng.shuffle(perm)
    g = [[(rng.choice((1, -1)) if perm[i] == j else 0) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        t = rng.choice((1, -1))
        g[i] = [a + t * b for a, b in zip(g[i], g[j])]
    return g


def signed_permutations(n):
    """All n x n signed permutation matrices: the GL(n, Z) elements that map
    the unit cube to itself."""
    return [[[sign[i] if perm[i] == j else 0 for j in range(n)] for i in range(n)]
            for perm in permutations(range(n)) for sign in cartesian((1, -1), repeat=n)]


def new_images(n, rng):
    """Endless GL(n, Z) elements in a seeded order, no two alike: the signed
    permutations, which keep every bounding box, and then the same again
    after a shear (row 0 += p * row 1) in pass p = 1, 2, ...  A shear
    changes bounding boxes, so only the first pass keeps job sizes exactly
    those of the catalogue."""
    perms = signed_permutations(n)
    rng.shuffle(perms)
    for p in count():
        shear = [[int(i == j) + (p if (i, j) == (0, 1) else 0) for j in range(n)] for i in range(n)]
        for s in perms:
            yield compose(s, shear)


def compose(g, h):
    return [[sum(g[i][t] * h[t][j] for t in range(len(h))) for j in range(len(h[0]))] for i in range(len(g))]


def image(fan, g):
    rays, cones = fan
    return tuple(tuple(sum(a * b for a, b in zip(row, u)) for row in g) for u in rays), cones


def document(fan) -> str:
    """The fan in the CLI's fan-file format."""
    rays, cones = fan
    lines = [f"rank: {len(rays[0])}", "rays:"]
    lines += ["[" + ", ".join(map(str, u)) + "]" for u in rays]
    lines.append("max_cones:")
    lines += ["[" + ", ".join(map(str, c)) + "]" for c in cones]
    return "\n".join(lines) + "\n"
