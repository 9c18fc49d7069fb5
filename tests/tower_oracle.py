"""What the tower's scaling lemma implies, kept as a test oracle.

For t >= 1, <t·m, u> >= -t·a holds exactly when <m, u> >= -a, so
(t·m, t·D) has the sign pattern of (m, D), and so the same graded piece.
`toricpic.perfectoid` relies on the lemma and re-checks none of its
consequences.  This module checks them by direct enumeration:

- each level's computed basis embeds in the next under m -> p·m, with its
  multiplicities;
- the interior points of p^n·P_D map into those of p^(n+1)·P_D (the
  predicted Batyrev–Borisov bases);
- t·D is basepoint free exactly when D is, at every level of the tower.

It also keeps the tower's first normal form, `divide_by_solving`, which
divides p out of a class one level at a time.  `toricpic.perfectoid`
reads the same division off the p-adic valuation of the class in
Pic(X) = Z^r, with one solve.
"""

from collections import Counter

from toricpic.divisor import TDivisor, _cartier_divisor_lattice, class_group, is_basepoint_free
from toricpic.lattice import matvec, solve_integer_system


def embedding_failures(p, bases):
    """(n, m) for every level-n degree m whose multiplicity exceeds that of
    p·m at level n + 1; empty when every level embeds in the next.

    `bases[n]` lists the level-n degrees with multiplicity, as
    `LevelSeries.bases` and the Batyrev–Borisov `level_bases` do."""
    failures = []
    for n in range(len(bases) - 1):
        nxt = Counter(bases[n + 1])
        for m, mult in Counter(bases[n]).items():
            if nxt[tuple(p * x for x in m)] < mult:
                failures.append((n, m))
    return failures


def basepoint_free_levels(bundle, n_max):
    """is_basepoint_free of p^t·D for t = 0..n_max, D the representative."""
    return [
        is_basepoint_free(bundle.fan, (bundle.p ** t) * bundle.representative)
        for t in range(n_max + 1)
    ]


def divide_by_solving(fan, p, level, rep):
    """(level, class, representative) of the root of level `level` of the
    Cartier divisor `rep`, with p divided out in Pic(X) while it divides.

    Each division solves p·E + div(m) = D over the integers with E in the
    Cartier lattice, so the quotient's class lies in Pic(X).  A divided
    class is represented by its deterministic class-group lift."""
    basis = tuple(zip(*_cartier_divisor_lattice(fan)))  # generators as columns
    rows = [[p * x for x in row] + list(u) for row, u in zip(basis, fan.rays)]
    divided = False
    while level > 0:
        x = solve_integer_system(rows, rep.coeffs)
        if x is None:
            break
        rep = TDivisor(matvec(basis, x[: len(basis[0])]))
        level -= 1
        divided = True
    cl = class_group(fan)
    cls = cl.project(rep)
    return level, cls, cl.lift(cls) if divided else rep
