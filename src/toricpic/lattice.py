"""Exact integer and rational linear algebra.

Everything here runs on plain Python integers (arbitrary precision) or
`fractions.Fraction`; no floating point anywhere.  Matrices are tuples of
row tuples, vectors are tuples.  This module is the substrate for class
group computations and cocycle manipulation: Smith/Hermite normal forms
with unimodular transforms, integer kernels and cokernels, and integer
linear system solving with a deterministic (Hermite-based) particular
solution.  All row elimination over a field goes through one
fraction-free Gauss-Jordan routine, `rref`, over Q or GF(p): ranks,
rational kernels (bases of primitive integer vectors) and solutions, and
determinants read its output.  All lattice-point enumeration goes through
one integer box scanner, `_scan_box`: for each prefix of the first n-1
coordinates it reads the exact interval of the last coordinate off the
integer rows and emits it whole, so no point is tested.  It refuses a box
of more than `SCAN_LIMIT` points, counted over the whole box.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, lcm, prod
from operator import mul

from .errors import InputError

IntVector = tuple[int, ...]
IntMatrix = tuple[tuple[int, ...], ...]

# Most integer points a box scan may visit.  A larger box is refused up
# front: scanning it would run for minutes or exhaust memory, where the
# largest box of the test suite and the benchmark has a few thousand points.
SCAN_LIMIT = 10**6


def _as_matrix(rows) -> list[list[int]]:
    m = [list(map(int, r)) for r in rows]
    if m:
        width = len(m[0])
        if any(len(r) != width for r in m):
            raise InputError("ragged matrix")
    return m


def _freeze(rows) -> IntMatrix:
    return tuple(tuple(r) for r in rows)


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def matmul(a, b) -> IntMatrix:
    ra, ca = len(a), len(a[0]) if a else 0
    rb, cb = len(b), len(b[0]) if b else 0
    if ca != rb:
        raise InputError(f"cannot multiply {ra}x{ca} by {rb}x{cb}")
    return _freeze(
        [[sum(a[i][k] * b[k][j] for k in range(ca)) for j in range(cb)] for i in range(ra)]
    )


def matvec(a, v) -> IntVector:
    if a and len(a[0]) != len(v):
        raise InputError(f"cannot apply {len(a)}x{len(a[0])} to vector of length {len(v)}")
    return tuple(sum(row[k] * v[k] for k in range(len(v))) for row in a)


def dot(u, v) -> int:
    if len(u) != len(v):
        raise InputError("dimension mismatch in pairing")
    return sum(x * y for x, y in zip(u, v))


def vec_add(u, v) -> IntVector:
    return tuple(x + y for x, y in zip(u, v))


def vec_sub(u, v) -> IntVector:
    return tuple(x - y for x, y in zip(u, v))


def vec_scale(t: int, v) -> IntVector:
    return tuple(t * x for x in v)


def is_prime(p: int) -> bool:
    """Trial-division primality (desk-scale inputs)."""
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def content(v) -> int:
    """gcd of the entries (0 for the zero vector)."""
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    return g


def primitive(v) -> IntVector:
    """Divide a nonzero integer vector by the gcd of its entries."""
    g = content(v)
    if g == 0:
        raise InputError("zero vector has no primitive representative")
    return tuple(x // g for x in v)


# ---------------------------------------------------------------------------
# Lattice points of a box cut by integer inequalities
# ---------------------------------------------------------------------------

def require_scannable(box) -> int:
    """Number of integer points in the box of (lo, hi) sides; InputError
    when it exceeds SCAN_LIMIT."""
    count = prod(max(hi - lo + 1, 0) for lo, hi in box)
    if count > SCAN_LIMIT:
        raise InputError(
            f"scan box has {count} lattice points, above the limit of {SCAN_LIMIT}"
        )
    return count


def _scan_box(box, rows) -> list[IntVector]:
    """Integer points m of the box with normal·m >= threshold for every
    integer (normal, threshold) row, in `itertools.product` order (the last
    coordinate varies fastest).

    A rational inequality normal·m >= rhs with an integer normal holds at
    an integer point exactly when normal·m >= ceil(rhs), and a strict one
    normal·m > rhs exactly when normal·m >= floor(rhs) + 1, so callers
    clear their denominators once and use integer arithmetic only.

    No point is tested.  For each prefix x of the first n-1 coordinates a
    row c·y >= s on the last coordinate y (s = threshold - normal'·x) is
    an exact integer bound: y >= ceil(s/c) when c > 0, y <= floor(s/c)
    when c < 0, and a test of the prefix alone when c = 0.  The interval
    they leave is emitted whole, so the cost is prefixes × rows + points.
    """
    if not require_scannable(box):
        return []  # product() would still build every nonempty side's range
    *head, (lo, hi) = box
    split = [(normal[:-1], normal[-1], t) for normal, t in rows]
    points = []
    for prefix in product(*(range(a, b + 1) for a, b in head)):
        start, stop = lo, hi
        for rest, c, t in split:
            s = t - sum(map(mul, rest, prefix))
            if c > 0:
                start = max(start, -(-s // c))
            elif c < 0:
                stop = min(stop, s // c)
            elif s > 0:
                break
        else:
            points.extend(prefix + (y,) for y in range(start, stop + 1))
    return points


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

def _snf_with_inverses(rows):
    """Returns (U, Uinv, S, V) with U·A·V = S in Smith normal form.

    Elementary row/column reduction, pivoting on the least-absolute-value
    nonzero entry.  Entries can grow without bound, hence exact big
    integers throughout.  U, V are unimodular; U's inverse is tracked
    alongside (inverting a unimodular matrix after the fact is avoidable
    bookkeeping), since `cokernel` lifts group elements through it.
    """
    s = _as_matrix(rows)
    r = len(s)
    c = len(s[0]) if s else 0
    u, uinv = _identity(r), _identity(r)
    v = _identity(c)

    def swap_rows(i, j):
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]
        for row in uinv:
            row[i], row[j] = row[j], row[i]

    def swap_cols(i, j):
        for row in s:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, t):
        # row[dst] += t * row[src]
        for j in range(c):
            s[dst][j] += t * s[src][j]
        for j in range(r):
            u[dst][j] += t * u[src][j]
        for i in range(r):
            uinv[i][src] -= t * uinv[i][dst]

    def add_col(src, dst, t):
        for row in s:
            row[dst] += t * row[src]
        for row in v:
            row[dst] += t * row[src]

    def negate_row(i):
        s[i] = [-x for x in s[i]]
        u[i] = [-x for x in u[i]]
        for row in uinv:
            row[i] = -row[i]

    k = 0
    while k < min(r, c):
        # Least-|entry| pivot in the trailing block.
        pivot = None
        best = None
        for i in range(k, r):
            for j in range(k, c):
                x = abs(s[i][j])
                if x and (best is None or x < best):
                    best, pivot = x, (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != k:
            swap_rows(k, pi)
        if pj != k:
            swap_cols(k, pj)
        if s[k][k] < 0:
            negate_row(k)

        dirty = False
        for i in range(k + 1, r):
            if s[i][k]:
                q = s[i][k] // s[k][k]
                add_row(k, i, -q)
                if s[i][k]:
                    dirty = True
        for j in range(k + 1, c):
            if s[k][j]:
                q = s[k][j] // s[k][k]
                add_col(k, j, -q)
                if s[k][j]:
                    dirty = True
        if dirty:
            continue  # remainders left; re-pick a smaller pivot

        # Divisibility: pivot must divide every entry of the trailing block.
        fixed = True
        for i in range(k + 1, r):
            for j in range(k + 1, c):
                if s[i][j] % s[k][k]:
                    add_row(i, k, 1)
                    fixed = False
                    break
            if not fixed:
                break
        if fixed:
            k += 1

    return _freeze(u), _freeze(uinv), _freeze(s), _freeze(v)


def smith_normal_form(rows) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form: returns (U, S, V) with U·A·V = S.

    S is diagonal with non-negative entries forming a divisibility chain
    d_1 | d_2 | ...; U and V are unimodular.  Total on integer matrices
    (including empty ones).
    """
    u, _, s, v = _snf_with_inverses(rows)
    return u, s, v


def invariant_factors(rows) -> tuple[int, ...]:
    """Nonzero diagonal entries of the Smith normal form."""
    _, s, _ = smith_normal_form(rows)
    return tuple(s[i][i] for i in range(min(len(s), len(s[0]) if s else 0)) if s[i][i])


def hermite_normal_form(rows) -> tuple[IntMatrix, IntMatrix]:
    """Column-style Hermite normal form: returns (H, V) with H = A·V.

    V is unimodular; H is in column echelon form (pivots positive, entries
    to the right of each pivot zero, entries to the left reduced into
    [0, pivot)).  Used for image-lattice membership and for deterministic
    particular solutions of integer systems.
    """
    h = _as_matrix(rows)
    r = len(h)
    c = len(h[0]) if h else 0
    v = _identity(c)

    def add_col(src, dst, t):
        for row in h:
            row[dst] += t * row[src]
        for row in v:
            row[dst] += t * row[src]

    def swap_cols(i, j):
        for row in h:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def negate_col(j):
        for row in h:
            row[j] = -row[j]
        for row in v:
            row[j] = -row[j]

    pivot_col = 0
    for i in range(r):
        if pivot_col >= c:
            break
        # gcd-reduce row i across columns pivot_col..c-1
        while True:
            nz = [j for j in range(pivot_col, c) if h[i][j]]
            if not nz:
                break
            jmin = min(nz, key=lambda j: abs(h[i][j]))
            if jmin != pivot_col:
                swap_cols(pivot_col, jmin)
            if h[i][pivot_col] < 0:
                negate_col(pivot_col)
            done = True
            for j in range(pivot_col + 1, c):
                if h[i][j]:
                    q = h[i][j] // h[i][pivot_col]
                    add_col(pivot_col, j, -q)
                    if h[i][j]:
                        done = False
            if done:
                break
        if h[i][pivot_col]:
            for j in range(pivot_col):  # reduce earlier columns mod the pivot
                q = h[i][j] // h[i][pivot_col]
                if q:
                    add_col(pivot_col, j, -q)
            pivot_col += 1

    return _freeze(h), _freeze(v)


def integer_kernel(rows) -> tuple[IntVector, ...]:
    """Basis of the integer kernel {x : A·x = 0} (a saturated sublattice)."""
    h, v = hermite_normal_form(rows)
    c = len(v)
    if c == 0:
        return ()
    zero_cols = [j for j in range(c) if all(h[i][j] == 0 for i in range(len(h)))]
    return tuple(tuple(v[i][j] for i in range(c)) for j in zero_cols)


def solve_integer_system(rows, b) -> IntVector | None:
    """Some integer solution x of A·x = b, or None when no integer solution
    exists.  The solution is the deterministic Hermite-based particular
    solution (forward substitution through H = A·V)."""
    a = _as_matrix(rows)
    r = len(a)
    if r != len(b):
        raise InputError("right-hand side length does not match row count")
    c = len(a[0]) if a else 0
    if c == 0:
        return () if all(x == 0 for x in b) else None
    h, v = hermite_normal_form(a)
    y = [0] * c
    residual = list(map(int, b))
    col = 0
    for i in range(r):
        if col < c and h[i][col]:
            if residual[i] % h[i][col]:
                return None
            t = residual[i] // h[i][col]
            y[col] = t
            for ii in range(r):
                residual[ii] -= t * h[ii][col]
            col += 1
        elif residual[i] != 0:
            return None
    if any(residual):
        return None
    return matvec(v, y)


# ---------------------------------------------------------------------------
# Finitely generated abelian groups as cokernels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroupElement:
    """An element of a presented group: free coordinates plus torsion
    coordinates reduced modulo the invariant factors."""

    free: IntVector
    torsion: IntVector

    def is_zero(self) -> bool:
        return not any(self.free) and not any(self.torsion)


@dataclass(frozen=True)
class AbelianGroupPresentation:
    """Z^ambient_rank / im(A) presented as Z^free_rank + sum of Z/d_i.

    `projection` maps ambient coordinates to group coordinates: the first
    free_rank rows give the free part, the remaining rows give the torsion
    part (to be read modulo the matching invariant factor).  Composed with
    the relation matrix it is zero in the group.
    """

    free_rank: int
    invariant_factors: tuple[int, ...]
    projection: IntMatrix
    ambient_rank: int
    _section: IntMatrix  # group coordinates -> ambient representative

    def project(self, vec) -> GroupElement:
        if len(vec) != self.ambient_rank:
            raise InputError("vector length does not match ambient rank")
        y = matvec(self.projection, vec)
        free = y[: self.free_rank]
        tor = tuple(y[self.free_rank + i] % d for i, d in enumerate(self.invariant_factors))
        return GroupElement(free, tor)

    def lift(self, elem: GroupElement) -> IntVector:
        """A deterministic ambient representative of a group element."""
        coords = tuple(elem.free) + tuple(elem.torsion)
        return matvec(self._section, coords)

    def element(self, free, torsion=()) -> GroupElement:
        free = tuple(int(x) for x in free)
        torsion = tuple(int(x) for x in torsion)
        if len(free) != self.free_rank or len(torsion) != len(self.invariant_factors):
            raise InputError("coordinate shape does not match presentation")
        tor = tuple(t % d for t, d in zip(torsion, self.invariant_factors))
        return GroupElement(free, tor)

    def add(self, a: GroupElement, b: GroupElement) -> GroupElement:
        return self.element(vec_add(a.free, b.free), vec_add(a.torsion, b.torsion))

    def neg(self, a: GroupElement) -> GroupElement:
        return self.element(vec_scale(-1, a.free), vec_scale(-1, a.torsion))

    def scale(self, t: int, a: GroupElement) -> GroupElement:
        return self.element(vec_scale(t, a.free), vec_scale(t, a.torsion))

    def describe(self) -> str:
        """Human-readable isomorphism type, e.g. 'Z^2 + Z/2'."""
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.invariant_factors)
        return " + ".join(parts) if parts else "0"


def cokernel(rows, ambient_rank=None) -> AbelianGroupPresentation:
    """Presentation of Z^rows / im(A).

    A is the matrix of a lattice map into Z^rows (columns are relation
    generators).  free_rank = rows - rank(A); the invariant factors are the
    Smith diagonal entries exceeding 1.
    """
    a = _as_matrix(rows)
    r = len(a) if ambient_rank is None else ambient_rank
    if ambient_rank is not None and len(a) not in (0, ambient_rank):
        raise InputError("ambient rank does not match relation matrix")
    if not a or len(a[0]) == 0:
        # No relations: free of rank r.
        ident = _freeze(_identity(r))
        return AbelianGroupPresentation(r, (), ident, r, ident)

    u, uinv, s, _ = _snf_with_inverses(a)
    k = sum(1 for i in range(min(len(s), len(s[0]))) if s[i][i])
    factors = tuple(s[i][i] for i in range(k) if s[i][i] > 1)
    # y = U·x diagonalizes the relations: coordinates 0..k-1 are killed mod
    # d_i (dropped when d_i = 1), coordinates k..r-1 are free.
    free_rows = [u[i] for i in range(k, r)]
    torsion_rows = [u[i] for i in range(k) if s[i][i] > 1]
    torsion_cols = [i for i in range(k) if s[i][i] > 1]
    projection = _freeze(free_rows + torsion_rows)
    # Section: place group coordinates back into y, then apply U^{-1}.
    cols = list(range(k, r)) + torsion_cols
    section = _freeze([[uinv[i][j] for j in cols] for i in range(r)])
    return AbelianGroupPresentation(r - k, factors, projection, r, section)


# ---------------------------------------------------------------------------
# Exact elimination over Q and GF(p) (used by every layer above this one)
# ---------------------------------------------------------------------------

def _integer_row(row) -> list[int]:
    """The row times the lcm of its denominators: integer, on the same ray."""
    # A list, not a generator: unpacking a generator into the call resizes a
    # fresh argument tuple each time, which CPython's tuple free lists keep.
    den = lcm(*[x.denominator for x in row])
    return [x.numerator * (den // x.denominator) for x in row]


def rref(rows, p=None) -> tuple[list[list[int]], list[int], int, int]:
    """Fraction-free Gauss-Jordan elimination over Q, or over GF(p) for a prime p.

    Rows hold integers or Fractions; each row is first multiplied by the
    lcm of its denominators, which changes neither its row space nor its
    reduced form.  Returns (m, pivots, d, sign) with integer m.  Over Q
    this is Bareiss's one-step integer-preserving elimination: every entry
    stays a minor of the cleared matrix, each division by the previous
    pivot is exact, and m = d·RREF, where d is the last pivot and sign
    the parity of the row swaps.  Over GF(p) entries are reduced mod p,
    rows are only scaled by units (d = 1) and just the pivots are read.
    """
    m = [_integer_row(r) for r in rows]
    if p is not None:
        m = [[x % p for x in r] for r in m]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    prev = sign = 1
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        k = next((i for i in range(r, nrows) if m[i][c]), None)
        if k is None:
            continue
        if k != r:
            m[r], m[k] = m[k], m[r]
            sign = -sign
        top = m[r]
        piv = top[c]
        for i, row in enumerate(m):
            if i == r:
                continue
            f = row[c]
            if p is not None:
                if f:
                    m[i] = [(x * piv - f * y) % p for x, y in zip(row, top)]
            elif f or piv != prev:
                m[i] = [(x * piv - f * y) // prev for x, y in zip(row, top)]
        pivots.append(c)
        if p is None:
            prev = piv
    return m, pivots, prev, sign


def rational_rank(rows) -> int:
    return len(rref(rows)[1])


def rank_mod_p(rows, p: int) -> int:
    return len(rref(rows, p)[1])


def rational_kernel(rows) -> list[IntVector]:
    """Basis of the rational kernel {x : A·x = 0}, one vector per free column.

    Each basis vector is primitive and integer, positive in its own free
    column and 0 in the others: with m = d·RREF, the vector that is 1 in
    free column j and -m[r][j]/d in pivot column r, times |d|.
    """
    if not rows:
        return []
    m, pivots, d, _ = rref(rows)
    ncols = len(m[0])
    sign = 1 if d > 0 else -1
    basis = []
    for j in range(ncols):
        if j in pivots:
            continue
        x = [0] * ncols
        x[j] = abs(d)
        for r, pj in enumerate(pivots):
            x[pj] = -sign * m[r][j]
        basis.append(primitive(x))
    return basis


def rational_solve(rows, b) -> tuple[Fraction, ...] | None:
    """Some rational solution of A·x = b (free variables 0), or None if inconsistent."""
    if not rows:
        return () if all(x == 0 for x in b) else None
    ncols = len(rows[0])
    m, pivots, d, _ = rref([list(r) + [bb] for r, bb in zip(rows, b)])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, pj in enumerate(pivots):
        x[pj] = Fraction(m[r][ncols], d)
    return tuple(x)


def det(rows) -> int:
    """Exact determinant of a square integer matrix: the signed last pivot."""
    a = _as_matrix(rows)
    n = len(a)
    if any(len(r) != n for r in a):
        raise InputError("determinant of a non-square matrix")
    _, pivots, d, sign = rref(a)
    return sign * d if len(pivots) == n else 0


def scale_to_integer(vec) -> IntVector:
    """Clear denominators and divide by the content: the primitive integer
    vector on the same ray as a nonzero rational vector."""
    return primitive(_integer_row(vec))
