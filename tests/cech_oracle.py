"""The Čech route to graded line-bundle cohomology, kept as a test oracle.

In degree m, the M-graded Čech complex of O(D) over the cover by the
affine charts of the maximal cones keeps exactly the chart tuples I on
whose intersection U_I the character chi^m is a section, that is, where
<m, u> >= -a holds for every ray u of the intersection cone.  Its ±1
boundary matrices have one row per present (k+1)-tuple, so the complex
has up to 2^r - 1 cells for r maximal cones.  It shares no logic with the
negative-cone complex that `toricpic.cohomology` ranks; only the
elimination kernel and the support region are common.
"""

from functools import lru_cache
from itertools import combinations

from toricpic.cohomology import require_cohomology_fan, support_region
from toricpic.divisor import as_divisor
from toricpic.lattice import dot, rank_mod_p, rational_rank


@lru_cache(maxsize=None)
def cover_subsets(fan):
    """All nonempty tuples of maximal-cone indices together with the ray set
    of the corresponding intersection (valid fans: shared rays)."""
    r = len(fan.max_cones)
    out = []
    for k in range(1, r + 1):
        for subset in combinations(range(r), k):
            rays = set(fan.max_cones[subset[0]].ray_indices)
            for i in subset[1:]:
                rays &= set(fan.max_cones[i].ray_indices)
            out.append((subset, tuple(sorted(rays))))
    return tuple(out)


def sign_pattern(fan, coeffs, m):
    return tuple(dot(m, u) >= -a for u, a in zip(fan.rays, coeffs))


def support_complex(fan, divisor, m):
    """Chart tuples I with chi^m a section of O(D) on the intersection U_I.

    Membership of a tuple asks the polytope inequalities only on the rays
    of the intersection cone, so the family is upward closed: once a tuple
    is present, every larger tuple is present as well.
    """
    d = as_divisor(fan, divisor)
    require_cohomology_fan(fan)
    pattern = sign_pattern(fan, d.coeffs, tuple(int(x) for x in m))
    return [subset for subset, rays in cover_subsets(fan) if all(pattern[i] for i in rays)]


def cech_pattern_dims(fan, pattern, p=None):
    """Čech cohomology dimensions h^0..h^rank for one sign pattern, over Q
    or, with a prime p, over GF(p).

    C^k is spanned by the present (k+1)-tuples; the differential is the
    standard alternating sum over dropped indices (absent sub-tuples
    contribute nothing, which is consistent because presence is upward
    closed).  Degrees beyond the fan rank must vanish and are checked.
    """
    r = len(fan.max_cones)
    present = [[] for _ in range(r)]
    for subset, rays in cover_subsets(fan):
        if all(pattern[i] for i in rays):
            present[len(subset) - 1].append(subset)
    index = {subset: pos for tuples in present for pos, subset in enumerate(tuples)}
    sizes = [len(tuples) for tuples in present]
    ranks = []
    for k in range(r - 1):
        rows = []
        for target in present[k + 1]:
            row = [0] * sizes[k]
            for drop in range(len(target)):
                pos = index.get(target[:drop] + target[drop + 1 :])
                if pos is not None:
                    row[pos] = -1 if drop % 2 else 1
            rows.append(row)
        if not rows:
            ranks.append(0)
        else:
            ranks.append(rational_rank(rows) if p is None else rank_mod_p(rows, p))
    ranks.append(0)
    dims = [sizes[k] - ranks[k] - (ranks[k - 1] if k else 0) for k in range(r)]
    n = fan.rank
    assert not any(dims[n + 1 :]), f"nonzero Čech cohomology above the fan rank: {dims}"
    return tuple(dims[: n + 1] + [0] * max(0, n + 1 - r))


def cech_cohomology(fan, divisor, p=None):
    """Total dims and graded pieces of H^i(X, O(D)) over the support region,
    in the layout of `CohomologyTable.dims` and `CohomologyTable.graded`."""
    d = as_divisor(fan, divisor)
    n = fan.rank
    dims = {i: 0 for i in range(n + 1)}
    graded = {i: [] for i in range(n + 1)}
    cache = {}
    for m in support_region(fan, d).points():
        pattern = sign_pattern(fan, d.coeffs, m)
        if pattern not in cache:
            cache[pattern] = cech_pattern_dims(fan, pattern, p)
        for i, h in enumerate(cache[pattern]):
            if h:
                dims[i] += h
                graded[i].append((m, h))
    return dims, {i: tuple(sorted(graded[i])) for i in range(n + 1)}
