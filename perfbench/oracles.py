"""Reference answers computed without the code under test.

Everything here is a short, direct transcription of a textbook fact about
complete toric varieties, evaluated with plain integer and `Fraction`
arithmetic.  Nothing imports `toricpic`.

- Bott's formula for O(k) on P^n.
- Künneth for products.
- Riemann-Roch and Serre duality on smooth complete surfaces.
- h^0(O(D)) = #(P_D ∩ M) by a brute-force box count, for every D.
- Demazure and Batyrev-Borisov for nef D, with the nef test done here.
- Class groups from determinantal divisors (gcds of minors), Picard index
  by counting the Cartier lattice modulo N.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import reduce


# ---------------------------------------------------------------------------
# Small exact linear algebra
# ---------------------------------------------------------------------------

def det(rows) -> Fraction:
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    sign = 1
    out = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        out *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return sign * out


def solve(rows, rhs):
    """The unique solution of rows·x = rhs, or None when singular."""
    n = len(rows)
    m = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return None
        m[c], m[piv] = m[piv], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return tuple(m[r][n] for r in range(n))


def rank(vectors) -> int:
    m = [[Fraction(x) for x in v] for v in vectors]
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def inverse_transpose(g):
    """g^{-T} for a unimodular integer matrix g, as integer rows."""
    n = len(g)
    gt = [[g[j][i] for j in range(n)] for i in range(n)]
    cols = [solve(gt, [1 if i == j else 0 for i in range(n)]) for j in range(n)]
    return [[int(cols[j][i]) for j in range(n)] for i in range(n)]


def matvec(g, v):
    return tuple(sum(a * b for a, b in zip(row, v)) for row in g)


# ---------------------------------------------------------------------------
# Divisor polytopes P_D = {m : <m, u_rho> >= -a_rho}
# ---------------------------------------------------------------------------

def polytope_vertices(rays, a) -> tuple:
    """Sorted exact vertices of P_D, by solving every n-subset of facets."""
    n = len(rays[0])
    verts = set()
    for subset in itertools.combinations(range(len(rays)), n):
        m = solve([rays[i] for i in subset], [-a[i] for i in subset])
        if m is None:
            continue
        if all(sum(x * y for x, y in zip(m, u)) >= -c for u, c in zip(rays, a)):
            verts.add(m)
    return tuple(sorted(verts))


def polytope_dim(verts) -> int:
    if not verts:
        return -1
    v0 = verts[0]
    return rank([[x - y for x, y in zip(v, v0)] for v in verts[1:]]) if len(verts) > 1 else 0


def lattice_points(rays, a, interior=False) -> list:
    """Sorted lattice points of P_D (or of its relative interior)."""
    verts = polytope_vertices(rays, a)
    if not verts:
        return []
    n = len(rays[0])
    box = [range(math.ceil(min(v[i] for v in verts)), math.floor(max(v[i] for v in verts)) + 1)
           for i in range(n)]
    # Facets tight on every vertex cut out the affine hull and stay equalities.
    tight = [all(sum(x * y for x, y in zip(v, u)) == -c for v in verts) for u, c in zip(rays, a)]
    out = []
    for m in itertools.product(*box):
        ok = True
        for u, c, t in zip(rays, a, tight):
            val = sum(x * y for x, y in zip(m, u)) + c
            if val < 0 or (interior and not t and val == 0):
                ok = False
                break
        if ok:
            out.append(m)
    return out


def cartier_data(rays, cones, a):
    """Per-cone m_sigma with <m_sigma, u> = -a_u on the cone's rays, or None
    when some cone has no integral solution (D not Cartier)."""
    out = []
    for cone in cones:
        m = solve([rays[i] for i in cone], [-a[i] for i in cone])
        if m is None or any(x.denominator != 1 for x in m):
            return None
        out.append(m)
    return out


def is_nef(rays, cones, a) -> bool:
    """Cartier and basepoint free: every m_sigma lies in P_D."""
    data = cartier_data(rays, cones, a)
    return data is not None and all(
        sum(x * y for x, y in zip(m, u)) >= -c for m in data for u, c in zip(rays, a)
    )


def nef_dims(rays, cones, a, n) -> tuple:
    """Demazure (D nef: only h^0, counted) or Batyrev-Borisov (-D nef: only
    h^{dim P_{-D}}, the relative-interior count).  None if neither applies."""
    if is_nef(rays, cones, a):
        return (len(lattice_points(rays, a)),) + (0,) * n
    neg = [-x for x in a]
    if is_nef(rays, cones, neg):
        dims = [0] * (n + 1)
        d = polytope_dim(polytope_vertices(rays, neg))
        dims[d] = len(lattice_points(rays, neg, interior=True))
        return tuple(dims)
    return None


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def bott(n: int, k: int) -> tuple:
    """dim H^i(P^n, O(k)), i = 0..n."""
    dims = [0] * (n + 1)
    if k >= 0:
        dims[0] = math.comb(n + k, n)
    elif k <= -n - 1:
        dims[n] = math.comb(-k - 1, n)
    return tuple(dims)


def kunneth(a, b) -> tuple:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def surface_dims(rays, a) -> tuple:
    """(h^0, h^1, h^2) of O(D) on a smooth complete surface whose rays are in
    cyclic order: h^0 and h^2 = h^0(K - D) (Serre duality) by lattice counts,
    h^1 from Riemann-Roch chi = 1 + D.(D - K)/2."""
    k = len(rays)
    inter = [[0] * k for _ in range(k)]
    for i in range(k):
        prev, nxt, u = rays[i - 1], rays[(i + 1) % k], rays[i]
        # u_{i-1} + u_{i+1} = b_i u_i and D_i^2 = -b_i.
        s = (prev[0] + nxt[0], prev[1] + nxt[1])
        b = s[0] // u[0] if u[0] else s[1] // u[1]
        inter[i][i] = -b
        inter[i][(i + 1) % k] = inter[(i + 1) % k][i] = 1
    dk = [x + 1 for x in a]  # D - K = D + sum D_rho
    chi = 1 + sum(a[i] * inter[i][j] * dk[j] for i in range(k) for j in range(k)) // 2
    h0 = len(lattice_points(rays, a))
    h2 = len(lattice_points(rays, [-1 - x for x in a]))
    return (h0, h0 + h2 - chi, h2)


# ---------------------------------------------------------------------------
# Groups
# ---------------------------------------------------------------------------

def class_group(rays) -> tuple:
    """(free_rank, invariant factors > 1) of Z^rays / im(m -> (<m, u>)),
    from the determinantal divisors of the ray matrix."""
    n = len(rays[0])
    r = len(rays)
    cols = list(zip(*rays))  # n rows of length r
    divisors = [1]
    for k in range(1, n + 1):
        g = 0
        for rsub in itertools.combinations(range(r), k):
            for csub in itertools.combinations(range(n), k):
                g = math.gcd(g, int(det([[cols[c][i] for c in csub] for i in rsub])))
        divisors.append(g)
    factors = tuple(divisors[k] // divisors[k - 1] for k in range(1, n + 1))
    return r - n, tuple(f for f in factors if f > 1)


def picard_index(rays, cones) -> int:
    """[Cl : Pic] = [Z^rays : Cartier lattice], counted modulo N where N is
    the lcm of the cone determinants (N·Z^rays is Cartier)."""
    dets = [abs(int(det([rays[i] for i in c]))) for c in cones]
    big = reduce(lambda x, y: x * y // math.gcd(x, y), dets, 1)
    r = len(rays)
    count = sum(
        1 for a in itertools.product(range(big), repeat=r) if cartier_data(rays, cones, a) is not None
    )
    return big ** r // count


def is_smooth(rays, cones) -> bool:
    return all(len(c) == len(rays[0]) and abs(det([rays[i] for i in c])) == 1 for c in cones)


def covers_space(rays, cones, rng, samples=200) -> bool:
    """Completeness spot check: every random direction lies in some maximal
    cone, and in the interior of at most one."""
    n = len(rays[0])
    for _ in range(samples):
        v = [rng.randint(-1000, 1000) for _ in range(n)]
        closed = interior = 0
        for c in cones:
            coef = solve([[rays[i][j] for i in c] for j in range(n)], v)
            if coef is not None and all(x >= 0 for x in coef):
                closed += 1
                interior += all(x > 0 for x in coef)
        if not closed or interior > 1:
            return False
    return True
