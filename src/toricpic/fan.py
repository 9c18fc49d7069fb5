"""Rational polyhedral fans: construction, validation, faces, predicates.

A fan is stored by its rays (primitive integer vectors in N) and its
maximal cones (index sets into the ray list); faces are derived on demand.
Validation checks geometry, not index sets: for every pair of maximal
cones, the separation lemma decides exactly whether they meet in a common
face, with a few small kernels per pair.  Every routine that needs a
valid fan passes one gate, `validate_fan(fan).require_valid()`.
Completeness of a valid pure fan is read off the facet pairing alone (see
`_completeness`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .errors import InputError
from .lattice import IntVector, dot, invariant_factors, primitive, rational_rank
from .polyhedra import CACHE_SIZE, cone_contains, cone_hrep, is_pointed, meet_in_common_face

MAX_RANK = 6  # all algorithms are exponential in the rank; desk scale is n <= 4


@dataclass(frozen=True, order=True)
class Cone:
    """A cone of a fan, as a sorted tuple of ray indices plus its dimension."""

    ray_indices: tuple[int, ...]
    dim: int


@dataclass(frozen=True)
class FanReport:
    valid: bool
    smooth: bool
    complete: bool
    diagnostics: tuple[str, ...]

    def require_valid(self) -> FanReport:
        """The report itself; InputError naming the diagnostics when the fan
        is not valid."""
        if not self.valid:
            raise InputError(f"fan is not valid: {self.diagnostics}")
        return self


class Fan:
    """A fan in N = Z^rank, given by rays and maximal cones.

    Rays are normalized to primitive vectors at construction; zero rays,
    duplicate rays, out-of-range indices and duplicate cones are rejected
    outright.  Geometric validity (strong convexity, pairwise-face
    condition) is checked separately by `validate_fan`.
    """

    __slots__ = ("rank", "rays", "max_cones")

    def __init__(self, rank: int, rays, max_cones):
        rank = int(rank)
        if rank < 1:
            raise InputError(f"rank must be positive, got {rank}")
        if rank > MAX_RANK:
            raise InputError(f"rank {rank} exceeds the supported limit {MAX_RANK}")
        ray_list = []
        for i, ray in enumerate(rays):
            v = tuple(int(x) for x in ray)
            if len(v) != rank:
                raise InputError(f"ray {i} has length {len(v)}, expected {rank}")
            if not any(v):
                raise InputError(f"ray {i} is zero")
            ray_list.append(primitive(v))
        if not ray_list:
            raise InputError("fan needs at least one ray")
        if len(set(ray_list)) != len(ray_list):
            raise InputError("duplicate ray (after primitive normalization)")
        cones = []
        seen = set()
        for ci, idxs in enumerate(max_cones):
            idxs = tuple(sorted(set(int(i) for i in idxs)))
            for i in idxs:
                if not (0 <= i < len(ray_list)):
                    raise InputError(f"cone {ci} references ray index {i}, out of range")
            if idxs in seen:
                raise InputError(f"duplicate maximal cone {list(idxs)}")
            seen.add(idxs)
            cones.append(idxs)
        if not cones:
            raise InputError("fan needs at least one maximal cone")
        self.rank = rank
        self.rays = tuple(ray_list)
        self.max_cones = tuple(
            Cone(idxs, rational_rank([ray_list[i] for i in idxs])) for idxs in cones
        )

    def ray_vectors(self, cone: Cone) -> tuple[IntVector, ...]:
        return tuple(self.rays[i] for i in cone.ray_indices)

    def cone_of(self, indices) -> Cone:
        idxs = tuple(sorted(set(int(i) for i in indices)))
        for i in idxs:
            if not (0 <= i < len(self.rays)):
                raise InputError(f"ray index {i} out of range")
        return Cone(idxs, rational_rank([self.rays[i] for i in idxs]))

    def __eq__(self, other):
        return (
            isinstance(other, Fan)
            and self.rank == other.rank
            and self.rays == other.rays
            and self.max_cones == other.max_cones
        )

    def __hash__(self):
        return hash((self.rank, self.rays, self.max_cones))

    def __repr__(self):
        return f"Fan(rank={self.rank}, rays={len(self.rays)}, max_cones={len(self.max_cones)})"


@lru_cache(maxsize=CACHE_SIZE)
def validate_fan(fan: Fan) -> FanReport:
    """Full geometric validation plus the smooth/complete predicates.

    valid: every maximal cone strongly convex with irredundant generators,
    no maximal cone contained in another, every ray used, and every
    pairwise intersection of maximal cones is a common face (decided from
    the generators by the separation lemma, see `meet_in_common_face`, not
    read off the index sets).  Two pointed, irredundant cones that pass
    that test meet in cone(shared rays), so one contains the other exactly
    when its ray set lies in the other's; containment is tested only to
    name a failed pair.  Rays need no check: `Fan.__init__`, their
    only writer, stores them primitive.  Diagnostics name the first
    violation of each kind.
    """
    diags = []
    n = fan.rank
    used = set()
    for c in fan.max_cones:
        used.update(c.ray_indices)
    unused = sorted(set(range(len(fan.rays))) - used)
    if unused:
        diags.append(f"ray {unused[0]} belongs to no maximal cone")

    for c in fan.max_cones:
        gens = fan.ray_vectors(c)
        if not is_pointed(gens):
            diags.append(f"cone {list(c.ray_indices)} contains a line through the origin")
            break
        redundant = next(
            (
                c.ray_indices[j]
                for j in range(len(gens))
                if cone_contains([g for t, g in enumerate(gens) if t != j], gens[j])
            ),
            None,
        )
        if redundant is not None:
            diags.append(f"ray {redundant} is redundant in cone {list(c.ray_indices)}")
            break

    if not diags:
        for a, b in combinations(fan.max_cones, 2):
            sa, sb = set(a.ray_indices), set(b.ray_indices)
            nested = sa <= sb or sb <= sa
            ga, gb = fan.ray_vectors(a), fan.ray_vectors(b)
            if not nested and meet_in_common_face(ga, gb, n):
                continue
            if nested or all(cone_contains(gb, g) for g in ga) or all(cone_contains(ga, g) for g in gb):
                diags.append(
                    f"maximal cone {list(a.ray_indices)} and {list(b.ray_indices)}: one contains the other"
                )
            else:
                diags.append(
                    f"intersection of cones {list(a.ray_indices)} and {list(b.ray_indices)} is not a common face"
                )
            break

    valid = not diags
    smooth = valid and _all_cones_smooth(fan)
    complete = False
    if valid:
        complete, completeness_diag = _completeness(fan)
        if completeness_diag:
            diags.append(completeness_diag)
    return FanReport(valid, smooth, complete, tuple(diags))


def _all_cones_smooth(fan: Fan) -> bool:
    # A cone is smooth when its generators extend to a Z-basis of N: the
    # generator matrix must have full row rank with all invariant factors 1.
    # Faces of smooth cones are smooth, so maximal cones suffice.
    for c in fan.max_cones:
        gens = fan.ray_vectors(c)
        factors = invariant_factors(gens)
        if len(factors) != len(gens) or any(d != 1 for d in factors):
            return False
    return True


def _completeness(fan: Fan) -> tuple[bool, str | None]:
    """Facet-pairing completeness test for a valid fan.

    The fan must be pure and full-dimensional, and then it is complete
    exactly when every facet of a maximal cone lies in exactly two maximal
    cones.  On a valid fan the maximal cones meet in common faces, so no
    two interiors overlap.  If every facet lies in two maximal cones, an
    uncovered open set of S^(n-1) would have a boundary point in the
    relative interior of some facet; the facet's two cones lie on either
    side of it and cover a neighbourhood of that point.  So the support is
    all of N_R, and the dual graph of the maximal cones, linked across
    shared facets, is connected.
    """
    n = fan.rank
    for c in fan.max_cones:
        if c.dim != n:
            return False, f"maximal cone {list(c.ray_indices)} is not full-dimensional; completeness test requires a pure fan"
    facet_incidence: dict[frozenset, int] = {}
    for c in fan.max_cones:
        ineqs, _ = cone_hrep(fan.ray_vectors(c), n)
        for a in ineqs:
            key = frozenset(i for i in c.ray_indices if dot(a, fan.rays[i]) == 0)
            facet_incidence[key] = facet_incidence.get(key, 0) + 1
    return all(count == 2 for count in facet_incidence.values()), None


def is_smooth(fan: Fan) -> bool:
    """Whether every cone's generators extend to a basis of N."""
    return validate_fan(fan).require_valid().smooth


def is_complete(fan: Fan) -> bool:
    """Whether the support of the fan is all of N_R (facet-pairing test)."""
    return validate_fan(fan).require_valid().complete


def faces(fan: Fan, cone: Cone) -> list[Cone]:
    """All faces of a cone, from the zero cone up to the cone itself.

    Every face is an intersection of facets, so subsets of the facet
    normals enumerate them; each face is returned as the sub-cone on the
    ray indices lying on the corresponding supporting hyperplanes.
    """
    gens = fan.ray_vectors(cone)
    ineqs, _ = cone_hrep(gens, fan.rank)
    found = {cone.ray_indices}
    for k in range(1, len(ineqs) + 1):
        for subset in combinations(ineqs, k):
            idxs = tuple(
                i for i in cone.ray_indices if all(dot(a, fan.rays[i]) == 0 for a in subset)
            )
            found.add(idxs)
    if cone.ray_indices:
        found.add(())  # pointed cones always contain the zero face
    result = [fan.cone_of(idxs) for idxs in found]
    result.sort(key=lambda c: (c.dim, c.ray_indices))
    return result


def cone_intersection(fan: Fan, c1: Cone, c2: Cone) -> Cone:
    """The common face of two cones of a valid fan.

    Valid fans guarantee the intersection is spanned by the shared rays,
    so the result is just the intersection of the two index sets.
    """
    validate_fan(fan).require_valid()
    shared = tuple(sorted(set(c1.ray_indices) & set(c2.ray_indices)))
    return fan.cone_of(shared)
