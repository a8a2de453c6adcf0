"""Exact Gromov 4-point hyperbolicity of the graph metric.

For vertices w, x, y, z the three pairings d1 = d(w,x)+d(y,z),
d2 = d(w,y)+d(x,z), d3 = d(w,z)+d(x,y) are compared; the excess is the
largest minus the second largest, and the hyperbolicity is half the maximum
excess over all quadruples. The value is kept as the integer ``2*delta``
internally so no fractional arithmetic occurs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .graphs import (
    INF,
    DistanceProfile,
    Graph,
    NotConnectedError,
    distance_profile,
)


@dataclass(frozen=True)
class HyperbolicityResult:
    """Maximum 4-point excess, halved, with witness and per-component values.

    ``witness`` is the lexicographically smallest quadruple attaining the
    maximum, or ``None`` when no component has four vertices.
    """

    twice_delta: int
    witness: tuple[int, int, int, int] | None
    per_component: tuple[tuple[int, int], ...]
    connected: bool

    @property
    def delta(self) -> Fraction:
        return Fraction(self.twice_delta, 2)


def four_point_excess(profile: DistanceProfile, w: int, x: int, y: int, z: int) -> int:
    """Largest minus second largest of the three pairing sums.

    Repeated vertices are fine (the excess is then 0); vertices from
    different components are rejected.
    """
    d = profile.dist
    pairs = (d[w][x], d[y][z], d[w][y], d[x][z], d[w][z], d[x][y])
    if any(p is INF for p in pairs):
        raise NotConnectedError("quadruple spans more than one connected component")
    sums = sorted((pairs[0] + pairs[1], pairs[2] + pairs[3], pairs[4] + pairs[5]))
    return sums[2] - sums[1]


def hyperbolicity(g: Graph) -> HyperbolicityResult:
    """Exact hyperbolicity, maximised per component (2*delta, as an integer).

    Only unordered quadruples of distinct vertices are scanned; quadruples
    with repeats always have excess 0 and cannot change the maximum.
    """
    return four_point_scan(distance_profile(g))


def four_point_scan(profile: DistanceProfile) -> HyperbolicityResult:
    """:func:`hyperbolicity` from a distance profile already computed."""
    d = profile.dist
    best = 0
    witness: tuple[int, int, int, int] | None = None
    per_component = []
    for cid, comp in enumerate(profile.components):
        cell = comp.vertices
        comp_best = 0
        comp_witness = None
        for w, x, y, z in itertools.combinations(cell, 4):
            s1 = d[w][x] + d[y][z]
            s2 = d[w][y] + d[x][z]
            s3 = d[w][z] + d[x][y]
            hi = max(s1, s2, s3)
            lo = min(s1, s2, s3)
            excess = hi - (s1 + s2 + s3 - hi - lo)
            if excess > comp_best:
                comp_best = excess
                comp_witness = (w, x, y, z)
        per_component.append((cid, comp_best))
        if comp_best > best or (
            comp_best == best
            and comp_witness is not None
            and (witness is None or comp_witness < witness)
        ):
            best = comp_best
            witness = comp_witness
    return HyperbolicityResult(
        twice_delta=best,
        witness=witness,
        per_component=tuple(per_component),
        connected=profile.connected,
    )
