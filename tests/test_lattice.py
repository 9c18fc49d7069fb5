"""Exact linear algebra: normal forms, kernels, cokernels, integer solving."""

import random
from fractions import Fraction
from math import gcd

import pytest

from toricpic.lattice import (
    cokernel,
    det,
    hermite_normal_form,
    integer_kernel,
    invariant_factors,
    matmul,
    matvec,
    rank_mod_p,
    rational_kernel,
    rational_rank,
    rational_solve,
    smith_normal_form,
    solve_integer_system,
)


def is_divisibility_chain(diag):
    return all(b % a == 0 for a, b in zip(diag, diag[1:]) if a)


def check_snf(a):
    u, s, v = smith_normal_form(a)
    assert matmul(matmul(u, a), v) == s
    assert abs(det(u)) == 1
    assert abs(det(v)) == 1
    diag = [s[i][i] for i in range(min(len(s), len(s[0]) if s else 0))]
    for i in range(len(s)):
        for j in range(len(s[0]) if s else 0):
            if i != j:
                assert s[i][j] == 0
    assert all(d >= 0 for d in diag)
    nz = [d for d in diag if d]
    assert diag[: len(nz)] == nz, "zero diagonal entries must trail"
    assert is_divisibility_chain(nz)
    return s


def test_snf_projective_plane_ray_matrix():
    a = ((1, 0), (0, 1), (-1, -1))
    s = check_snf(a)
    assert [s[i][i] for i in range(2)] == [1, 1]
    assert s[2] == (0, 0)


def test_snf_identity():
    a = ((1, 0), (0, 1))
    s = check_snf(a)
    assert s == a


def test_snf_divisibility_example():
    s = check_snf(((2, 0), (0, 3)))
    assert (s[0][0], s[1][1]) == (1, 6)


def test_snf_random_matrices():
    rng = random.Random(7)
    for _ in range(60):
        r = rng.randint(1, 5)
        c = rng.randint(1, 5)
        a = tuple(tuple(rng.randint(-9, 9) for _ in range(c)) for _ in range(r))
        check_snf(a)


def test_invariant_factors():
    assert invariant_factors(((2, 0), (0, 3))) == (1, 6)
    assert invariant_factors(((2, 4), (4, 8))) == (2,)


def test_hnf_properties():
    rng = random.Random(11)
    for _ in range(60):
        r = rng.randint(1, 4)
        c = rng.randint(1, 5)
        a = tuple(tuple(rng.randint(-9, 9) for _ in range(c)) for _ in range(r))
        h, v = hermite_normal_form(a)
        assert matmul(a, v) == h
        assert abs(det(v)) == 1
        # Echelon: topmost nonzero of each nonzero column descends strictly.
        tops = [next(i for i in range(r) if h[i][j]) for j in range(c) if any(h[i][j] for i in range(r))]
        assert tops == sorted(tops) and len(set(tops)) == len(tops)


def test_integer_kernel_spans_rational_kernel():
    rng = random.Random(13)
    for _ in range(40):
        r = rng.randint(1, 4)
        c = rng.randint(1, 5)
        a = tuple(tuple(rng.randint(-6, 6) for _ in range(c)) for _ in range(r))
        basis = integer_kernel(a)
        for x in basis:
            assert matvec(a, x) == (0,) * r
        assert len(basis) == c - rational_rank(a)


def test_solve_identity():
    assert solve_integer_system(((1, 0), (0, 1)), (5, 7)) == (5, 7)


def test_solve_two_by_two():
    a = ((0, 1), (-1, -1))
    x = solve_integer_system(a, (0, 1))
    assert x == (-1, 0)
    assert matvec(a, x) == (0, 1)


def test_solve_parity_obstruction():
    assert solve_integer_system(((2, 0),), (1,)) is None


def test_solve_cross_checked_by_brute_force():
    # When the solver says NoSolution, no integer point exists in a small box;
    # when it returns x, substitution must be exact.
    rng = random.Random(17)
    for _ in range(80):
        r = rng.randint(1, 3)
        c = rng.randint(1, 3)
        a = tuple(tuple(rng.randint(-3, 3) for _ in range(c)) for _ in range(r))
        b = tuple(rng.randint(-4, 4) for _ in range(r))
        x = solve_integer_system(a, b)
        if x is not None:
            assert matvec(a, x) == b
            continue
        span = range(-8, 9)

        def search(prefix):
            if len(prefix) == c:
                return matvec(a, prefix) == b
            return any(search(prefix + (t,)) for t in span)

        rational = rational_solve(a, b)
        if rational is not None and all(abs(q) <= 5 for q in rational):
            # Solution coset intersects the search box; brute force is conclusive.
            assert not search(())


def test_in_image_lattice():
    a = ((2, 0), (0, 2))
    assert solve_integer_system(a, (4, -2)) is not None
    assert solve_integer_system(a, (1, 0)) is None


def test_cokernel_projective_plane():
    pres = cokernel(((1, 0), (0, 1), (-1, -1)))
    assert pres.free_rank == 1
    assert pres.invariant_factors == ()


def test_cokernel_no_relations():
    pres = cokernel([[], [], []])
    assert pres.free_rank == 3
    assert pres.invariant_factors == ()


def test_cokernel_weighted_rays():
    pres = cokernel(((1, 0), (0, 1), (-1, -2)))
    assert pres.free_rank == 1
    assert pres.invariant_factors == ()


def test_cokernel_torsion():
    pres = cokernel(((2, 0), (0, 3)))
    assert pres.free_rank == 0
    assert pres.invariant_factors == (6,)


def test_cokernel_row_permutation_invariance():
    rng = random.Random(19)
    for _ in range(30):
        r = rng.randint(1, 5)
        c = rng.randint(1, 4)
        rows = [tuple(rng.randint(-5, 5) for _ in range(c)) for _ in range(r)]
        pres = cokernel(rows)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        other = cokernel(shuffled)
        assert pres.free_rank == other.free_rank
        assert pres.invariant_factors == other.invariant_factors


def test_cokernel_projection_kills_relations():
    rng = random.Random(23)
    for _ in range(30):
        r = rng.randint(1, 5)
        c = rng.randint(1, 4)
        a = tuple(tuple(rng.randint(-5, 5) for _ in range(c)) for _ in range(r))
        pres = cokernel(a)
        for j in range(c):
            col = tuple(a[i][j] for i in range(r))
            assert pres.project(col).is_zero()


def test_projection_lift_round_trip():
    rng = random.Random(29)
    for _ in range(30):
        r = rng.randint(1, 5)
        c = rng.randint(0, 4)
        a = tuple(tuple(rng.randint(-5, 5) for _ in range(c)) for _ in range(r))
        pres = cokernel(a) if c else cokernel([[] for _ in range(r)])
        vec = tuple(rng.randint(-9, 9) for _ in range(r))
        elem = pres.project(vec)
        lifted = pres.lift(elem)
        assert pres.project(lifted) == elem


def test_group_arithmetic():
    pres = cokernel(((2, 0), (0, 3)))  # Z/6
    a = pres.element((), (4,))
    b = pres.element((), (5,))
    assert pres.add(a, b) == pres.element((), (3,))
    assert pres.add(a, pres.neg(a)).is_zero()
    assert pres.scale(3, a) == pres.element((), (0,))
    assert pres.describe() == "Z/6"


def test_describe():
    assert cokernel(((1, 0), (0, 1), (-1, -1))).describe() == "Z"
    assert cokernel([[], []]).describe() == "Z^2"


def random_matrices(seed, count):
    """Seeded integer and rational matrices up to 7x7, some of them with a
    zero row, a repeated row or low rank."""
    rng = random.Random(seed)
    for t in range(count):
        r, c = rng.randint(1, 7), rng.randint(1, 7)
        a = [[rng.randint(-5, 5) for _ in range(c)] for _ in range(r)]
        if t % 3 == 1:
            k = rng.randint(1, min(r, c))
            a = [[sum(rng.randint(-2, 2) * a[s][j] for s in range(k)) for j in range(c)] for _ in range(r)]
        if r > 1 and rng.random() < 0.3:
            a[rng.randrange(r)] = [0] * c
        if r > 1 and rng.random() < 0.3:
            a[rng.randrange(r)] = list(a[rng.randrange(r)])
        if t % 2:
            a = [[Fraction(x, rng.randint(1, 4)) for x in row] for row in a]
        yield a


def cleared(a):
    """Each row times the product of its denominators: an integer matrix
    with the same rank, kernel and solutions."""
    out = []
    for row in a:
        den = 1
        for x in row:
            den *= Fraction(x).denominator
        out.append(tuple(int(x * den) for x in row))
    return out


def test_elimination_readers_random():
    rng = random.Random(37)
    for a in random_matrices(41, 400):
        ncols = len(a[0])
        factors = invariant_factors(cleared(a))
        rank = rational_rank(a)
        assert rank == len(factors)
        if all(isinstance(x, int) for row in a for x in row):
            for p in (2, 3, 5):
                assert rank_mod_p(a, p) == sum(1 for d in factors if d % p)
        kernel = rational_kernel(a)
        assert len(kernel) == ncols - rank
        for x in kernel:
            assert all(sum(q * y for q, y in zip(row, x)) == 0 for row in a)
            assert all(type(y) is int for y in x) and gcd(*x) == 1, x
        for b in (tuple(rng.randint(-4, 4) for _ in a), tuple(sum(row) for row in a)):
            x = rational_solve(a, b)
            consistent = rational_rank([list(row) + [y] for row, y in zip(a, b)]) == rank
            assert (x is not None) == consistent
            if x is not None:
                assert tuple(sum(q * y for q, y in zip(row, x)) for row in a) == b


def test_rational_solve_and_kernel():
    a = ((1, 2), (2, 4))
    assert rational_solve(a, (1, 3)) is None
    x = rational_solve(a, (1, 2))
    assert x is not None and x[0] + 2 * x[1] == 1
    (k,) = rational_kernel(a)
    assert k[0] * 1 + k[1] * 2 == 0
    assert rational_rank(a) == 1


def test_det():
    assert det(((2, 0), (0, 3))) == 6
    assert det(((0, 1), (1, 0))) == -1
    assert det(()) == 1

    def cofactor(m):
        if not m:
            return 1
        return sum((-1) ** j * m[0][j] * cofactor([row[:j] + row[j + 1 :] for row in m[1:]])
                   for j in range(len(m)) if m[0][j])

    for a in random_matrices(31, 120):
        n = min(len(a), len(a[0]))
        square = [row[:n] for row in cleared(a)[:n]]
        assert det(square) == cofactor(square)


def test_ragged_matrix_rejected():
    from toricpic.errors import InputError

    with pytest.raises(InputError):
        det([[1, 2], [3]])
