"""Cocycle class equality by one system over every pair of charts, kept as
a test oracle.

alpha and beta define the same class when alpha - beta = d is the
coboundary of a 0-cochain of invertible monomials: m_i in the lattice
M ∩ sigma_i^perp with d_ij = m_i - m_j for every pair i < j.  Here each
m_i is written over an integer kernel basis of sigma_i's rays, and the
pairwise equations are solved at once in all of those coordinates.
`toricpic.divisor.cocycle_class_equal` reads every m_j off m_0 instead and
solves for m_0 alone.
"""

from itertools import combinations

from toricpic.lattice import integer_kernel, solve_integer_system


def pairwise_class_equal(fan, alpha, beta) -> bool:
    d = alpha.diff(beta)
    r = len(fan.max_cones)
    n = fan.rank
    bases = []
    for cone in fan.max_cones:
        bases.append(integer_kernel(fan.ray_vectors(cone)) if cone.ray_indices else
                     tuple(tuple(1 if a == b else 0 for b in range(n)) for a in range(n)))
    offsets = [0]
    for b in bases:
        offsets.append(offsets[-1] + len(b))
    total = offsets[-1]
    if total == 0:
        return all(not any(m) for _, m in d.entries)
    rows = []
    rhs = []
    for i, j in combinations(range(r), 2):
        target = d.entry(i, j)
        for coord in range(n):
            row = [0] * total
            for t, vec in enumerate(bases[i]):
                row[offsets[i] + t] = vec[coord]
            for t, vec in enumerate(bases[j]):
                row[offsets[j] + t] = -vec[coord]
            rows.append(row)
            rhs.append(target[coord])
    return solve_integer_system(rows, rhs) is not None
