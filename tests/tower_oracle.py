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
"""

from collections import Counter

from toricpic.divisor import is_basepoint_free


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
