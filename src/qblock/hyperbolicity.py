"""Exact Gromov 4-point hyperbolicity of the graph metric.

For vertices w, x, y, z the three pairings d1 = d(w,x)+d(y,z),
d2 = d(w,y)+d(x,z), d3 = d(w,z)+d(x,y) are compared; the excess is the
largest minus the second largest, and the hyperbolicity is half the maximum
excess over all quadruples. The value is kept as the integer ``2*delta``
internally so no fractional arithmetic occurs.

The maximum is found block by block. Every vertex has a unique gate in each
block B, its closest vertex there, and a quadruple with positive excess has
four distinct gates in some block B, where its excess is that of the gates
(the six distances all pass through B). So the maximum of a component is the
largest maximum of its blocks (Cohen, Coudert & Lancin, "On computing the
Gromov hyperbolicity", ACM JEA 2015), cliques contribute 0, and the
lexicographically smallest witness is found by scanning only the blocks that
attain the maximum, each vertex of such a block standing for the smallest
vertex gated to it. The searches are pruned by two bounds: the excess is at
most the smaller distance of the largest pairing, and at most twice the
smallest of the six distances.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .blocks import BlockCutStructure, block_cut_decomposition
from .graphs import INF, DistanceProfile, Graph, NotConnectedError, Record, connected_components

if TYPE_CHECKING:
    from fractions import Fraction


class HyperbolicityResult(Record):
    """Maximum 4-point excess, halved, with witness and per-component values.

    ``witness`` is the lexicographically smallest quadruple of one component
    attaining that component's maximum excess; when components tie on the
    overall maximum the smaller witness wins. It is ``None`` when the
    maximum is 0.
    """

    twice_delta: int
    witness: tuple[int, int, int, int] | None
    per_component: tuple[tuple[int, int], ...]
    connected: bool

    @property
    def delta(self) -> Fraction:
        from fractions import Fraction

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
    """Exact hyperbolicity, maximised per component (2*delta, as an integer)."""
    return four_point_scan(g, block_cut_decomposition(g))


def four_point_scan(g: Graph, structure: BlockCutStructure) -> HyperbolicityResult:
    """:func:`hyperbolicity` from the graph's block-cut structure.

    Blocks with fewer than four vertices and complete blocks are skipped, so
    block graphs cost no search at all. Each other block gets its own
    distance rows, by breadth-first search inside the block: blocks are
    isometric subgraphs.
    """
    comps = connected_components(g)
    maxima = [0] * len(comps)
    witnesses: list[tuple[int, int, int, int] | None] = [None] * len(comps)
    if not structure.all_blocks_complete:
        component_of = {v: cid for cid, cell in enumerate(comps) for v in cell}
        attaining: list[list[tuple]] = [[] for _ in comps]  # (block, dist, reach) at the maximum
        for blk in structure.blocks:
            if len(blk) < 4:
                continue
            nbrs = _block_adjacency(g, blk)
            if all(len(ws) == len(blk) - 1 for ws in nbrs):
                continue
            dist = _block_distances(nbrs)
            reach = _reach(dist, nbrs)
            top = _block_maximum(dist, reach)
            cid = component_of[blk[0]]
            if top > maxima[cid]:
                maxima[cid], attaining[cid] = top, [(blk, dist, reach)]
            elif top == maxima[cid] > 0:
                attaining[cid].append((blk, dist, reach))
        for cid, top in enumerate(maxima):
            if top:
                witnesses[cid] = min(_block_witness(g, *found, top) for found in attaining[cid])
    # the largest maximum; on a tie, the smaller witness
    best, witness = min(
        ((-top, w) for top, w in zip(maxima, witnesses) if top), default=(0, None)
    )
    return HyperbolicityResult(
        twice_delta=-best,
        witness=witness,
        per_component=tuple(enumerate(maxima)),
        connected=len(comps) == 1,
    )


def _block_adjacency(g: Graph, blk: tuple[int, ...]) -> list[list[int]]:
    """Neighbours inside the block, by position in ``blk``."""
    index = {v: i for i, v in enumerate(blk)}
    return [[index[w] for w in g.adjacency[v] if w in index] for v in blk]


def _block_distances(nbrs: list[list[int]]) -> list[list[int]]:
    """All distances of a connected graph given by its adjacency lists."""
    k = len(nbrs)
    rows = []
    for source in range(k):
        row = [-1] * k
        row[source] = 0
        frontier = [source]
        d = 0
        while frontier:
            d += 1
            reached = []
            for u in frontier:
                for w in nbrs[u]:
                    if row[w] < 0:
                        row[w] = d
                        reached.append(w)
            frontier = reached
        rows.append(row)
    return rows


def _reach(dist: list[list[int]], nbrs: list[list[int]]) -> list[list[int]]:
    """``reach[a][b]``: the largest distance from b to a neighbour of a.

    a is farthest from b locally when ``reach[a][b] <= dist[a][b]``; a pair
    is far apart when each end is farthest from the other locally.
    """
    return [[max(col) for col in zip(*(dist[w] for w in ws))] for ws in nbrs]


def _block_maximum(dist: list[list[int]], reach: list[list[int]]) -> int:
    """Maximum excess of a block, given its own distances.

    Some quadruple attaining the maximum has a largest pairing made of two
    far-apart pairs: moving a to a neighbour farther from b raises the
    largest sum by 1 and each other sum by at most 1. Those pairs are
    taken by decreasing distance, each against every pair before it, and the
    search stops at the first pair whose distance is at most the best excess
    found, since the excess is at most the smaller distance of the largest
    pairing.
    """
    k = len(dist)
    pairs = sorted(
        (
            (dist[a][b], a, b)
            for a in range(k)
            for b in range(a + 1, k)
            if reach[a][b] <= dist[a][b] and reach[b][a] <= dist[a][b]
        ),
        reverse=True,
    )
    best = 0
    for i, (dab, a, b) in enumerate(pairs):
        if dab <= best:
            break
        da, db = dist[a], dist[b]
        for dce, c, e in pairs[:i]:
            s2 = da[c] + db[e]
            s3 = da[e] + db[c]
            # the true excess when this pairing is the largest, else at most it
            excess = dab + dce - (s2 if s2 > s3 else s3)
            if excess > best:
                best = excess
    return best


def _block_witness(
    g: Graph, blk: tuple[int, ...], dist: list[list[int]], reach: list[list[int]], top: int
) -> tuple[int, int, int, int]:
    """Lexicographically smallest quadruple whose gates in ``blk`` are four
    distinct vertices with excess ``top``, the block's maximum.

    Such a quadruple has excess ``top`` itself, and the smallest one takes
    the smallest vertex gated to each of its four gates, so the block is
    scanned in the order of those smallest vertices. A breadth-first search
    from the whole block gives every vertex of its component the gate of its
    search parent.
    """
    gate = {v: i for i, v in enumerate(blk)}
    smallest = list(blk)
    frontier = list(blk)
    while frontier:
        reached = []
        for u in frontier:
            i = gate[u]
            for w in g.adjacency[u]:
                if w not in gate:
                    gate[w] = i
                    if w < smallest[i]:
                        smallest[i] = w
                    reached.append(w)
        frontier = reached
    order = sorted(range(len(blk)), key=smallest.__getitem__)
    dist = [[dist[i][j] for j in order] for i in order]
    reach = [[reach[i][j] for j in order] for i in order]
    return tuple(smallest[order[i]] for i in _first_attaining(dist, reach, top))


def _first_attaining(
    dist: list[list[int]], reach: list[list[int]], top: int
) -> tuple[int, int, int, int]:
    """Lexicographically first quadruple with excess ``top``, the maximum.

    A quadruple attains ``top`` only when its largest pairing has both
    distances at least ``top`` and all six distances are at least
    ``top / 2``. Before a vertex a, and then a pair a, b, is extended, the
    search checks that some quadruple containing it attains ``top``. Moving
    the other vertices away, as in :func:`_block_maximum`, keeps the
    excess, so it suffices to try far-apart pairs and, for a vertex a of
    the largest pairing, partners x that are farthest from a locally.
    """
    k = len(dist)
    near = [frozenset(j for j, d in enumerate(row) if 2 * d >= top) for row in dist]
    far = [frozenset(j for j, d in enumerate(row) if d >= top) for row in dist]
    far_apart = [
        (y, z)
        for y in range(k)
        for z in far[y]
        if y < z and reach[y][z] <= dist[y][z] and reach[z][y] <= dist[y][z]
    ]
    toward = [[x for x in far[v] if reach[x][v] <= dist[x][v]] for v in range(k)]

    def beats(a: int, x: int, y: int, z: int) -> bool:
        """Whether the pairing (a, x), (y, z) beats both others by ``top``."""
        da, dx = dist[a], dist[x]
        s2 = da[y] + dx[z]
        s3 = da[z] + dx[y]
        return da[x] + dist[y][z] - (s2 if s2 > s3 else s3) >= top

    for a in range(k - 3):
        da, near_a = dist[a], near[a]
        if not any(beats(a, x, y, z) for x in toward[a] for y, z in far_apart):
            continue
        for b in sorted(j for j in near_a if j > a):
            db, dab = dist[b], da[b]
            if not (
                (dab >= top and any(beats(a, b, y, z) for y, z in far_apart))
                or any(beats(a, x, b, y) for x in toward[a] for y in toward[b])
            ):
                continue
            near_ab = near_a & near[b]
            for c in sorted(j for j in near_ab if j > b):
                # candidates for e by the pairing that would be the largest
                partners: frozenset[int] = frozenset()
                if dab >= top:
                    partners |= far[c]
                if da[c] >= top:
                    partners |= far[b]
                if db[c] >= top:
                    partners |= far[a]
                for e in sorted(j for j in partners & near_ab & near[c] if j > c):
                    if beats(a, b, c, e) or beats(a, c, b, e) or beats(a, e, b, c):
                        return a, b, c, e
    raise AssertionError("a block's maximum is attained by one of its quadruples")
