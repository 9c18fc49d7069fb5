"""Built-in library of named fans.

P^n is built from e_0 = -e_1-...-e_n with maximal cones over the size-n
subsets of {e_0,...,e_n}; Hirzebruch surfaces F_a use rays
(1,0),(0,1),(-1,a),(0,-1) with the four cones of adjacent rays, and
P1xP1 is F_0, whose rays are (1,0),(0,1),(-1,0),(0,-1); P112 is the
weighted projective plane P(1,1,2).
"""

from __future__ import annotations

from itertools import combinations

from .errors import InputError
from .fan import Fan


def projective_space(n: int) -> Fan:
    rays = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    rays.append(tuple(-1 for _ in range(n)))
    cones = [c for c in combinations(range(n + 1), n)]
    return Fan(n, rays, cones)


def hirzebruch(a: int) -> Fan:
    rays = [(1, 0), (0, 1), (-1, a), (0, -1)]
    cones = [(0, 1), (1, 2), (2, 3), (3, 0)]
    return Fan(2, rays, cones)


def weighted_plane_112() -> Fan:
    rays = [(1, 0), (0, 1), (-1, -2)]
    cones = [(0, 1), (1, 2), (2, 0)]
    return Fan(2, rays, cones)


_BUILDERS = {
    "P1": lambda: projective_space(1),
    "P2": lambda: projective_space(2),
    "P3": lambda: projective_space(3),
    "P1xP1": lambda: hirzebruch(0),
    "F1": lambda: hirzebruch(1),
    "F2": lambda: hirzebruch(2),
    "F3": lambda: hirzebruch(3),
    "P112": weighted_plane_112,
}

NAMED_FAN_NAMES = tuple(sorted(_BUILDERS))


def named_fan(name: str) -> Fan:
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise InputError(
            f"unknown fan name {name!r}; known names: {', '.join(NAMED_FAN_NAMES)}"
        ) from None
    return builder()
