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
Gromov hyperbolicity", ACM JEA 2015), and cliques contribute 0.

One breadth-first search from each vertex b of a block gives b's distances
and its dead ends, the vertices with no neighbour farther from b; the
searches pair only far-apart vertices, each a dead end from the other. The
lexicographically smallest witness is the least over the blocks that attain
the maximum, each block vertex standing for its representative, the smallest
vertex gated to it. The scan visits the blocks in the block-cut search's
own tree order, rooted at each component's least vertex, children first,
which yields the representatives, and searches each block with its
vertices in the order of their representatives. The searches are pruned by
two bounds: the excess is at most the smaller distance of the largest
pairing, and at most twice the smallest of the six.
"""

from __future__ import annotations

from functools import cache
from itertools import compress
from operator import itemgetter

from .blocks import BlockCutStructure, block_cut_decomposition
from .graphs import INF, DistanceProfile, Graph, NotConnectedError, Record

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing at start-up
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


def four_point_scan(g: Graph, structure: BlockCutStructure, rows: dict | None = None) -> HyperbolicityResult:
    """:func:`hyperbolicity` from the graph's block-cut structure.

    The block-cut search lists the blocks that are not complete
    (``structure.incomplete``). Every other block, so every block with fewer
    than four vertices, is skipped before its vertices are sorted, and block
    graphs cost no search at all. Each block that is not complete gets its
    own distance rows, by breadth-first search inside the block: blocks are
    isometric subgraphs. Its vertices are taken in the order of their
    representatives: the block's vertex p nearest the root r, the least
    vertex of the component, stands for r; any other vertex v for the least
    vertex of the branch below v, whose blocks the tree lists first.

    ``rows``, when given, receives by block index the vertices and distance
    rows of every block that is not complete, for
    :func:`~qblock.blocks.eccentricities`.
    """
    roots = structure.roots
    low = list(range(g.n))  # least vertex of the branch below each vertex
    maxima = dict.fromkeys(roots, 0)  # per component, by least vertex
    best, attaining = 0, []  # the blocks at the overall maximum, with their rows
    incomplete = set(structure.incomplete)
    for b, p in structure.tree if incomplete else ():
        blk = structure.blocks[b]
        low[p] = min(map(low.__getitem__, blk))  # the representatives below read no low[p]
        if b not in incomplete:
            continue
        reps, blk = zip(*sorted((roots[p] if v == p else low[v], v) for v in blk))
        dist, ends = _block_distances(_block_adjacency(g, blk))
        if rows is not None:
            rows[b] = blk, dist
        pairs = _far_apart(dist, ends)
        top = _block_maximum(dist, pairs)
        maxima[roots[p]] = max(maxima[roots[p]], top)
        if top > best:
            best, attaining = top, []
        if top == best > 0:
            attaining.append((reps, dist, ends, pairs))
    # a block at the overall maximum lies in a component that ties on it
    witness = min((_first_attaining(*rows, best) for rows in attaining), default=None)
    return HyperbolicityResult(best, witness, tuple(enumerate(maxima.values())), len(maxima) == 1)


def _block_adjacency(g: Graph, blk: tuple[int, ...]) -> list[list[int]]:
    """Neighbours inside the block, by position in ``blk``."""
    index = {v: i for i, v in enumerate(blk)}
    return [[index[w] for w in g.adjacency[v] if w in index] for v in blk]


def _block_distances(nbrs: list[list[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Distance rows of a 2-connected graph given by its adjacency lists and,
    per source b, its dead ends: the vertices a with no neighbour at
    ``d(a, b) + 1``, that is, with every neighbour at most ``d(a, b)`` from b."""
    k = len(nbrs)
    rows, ends = [], []
    # every vertex has two neighbours in the block, so each getter returns a tuple
    ahead = [itemgetter(*ws) for ws in nbrs]
    for source in range(k):
        row = [-1] * k
        row[source] = 0
        frontier = [source]
        dead = []
        d = 0
        while frontier:
            d += 1
            reached = []
            for u in frontier:
                before = len(reached)
                for w in nbrs[u]:
                    if row[w] < 0:
                        row[w] = d
                        reached.append(w)
                if before == len(reached) and d not in ahead[u](row):
                    dead.append(u)
            frontier = reached
        rows.append(row)
        ends.append(dead)
    return rows, ends


def _far_apart(dist: list[list[int]], ends: list[list[int]]) -> list[tuple[int, int, int]]:
    """Pairs ``(d(a, b), a, b)``, a < b, each end a dead end from the other,
    by decreasing distance: the far-apart pairs."""
    dead = [set(e) for e in ends]
    pairs = [(dist[a][b], a, b) for b, e in enumerate(ends) for a in e if a < b and b in dead[a]]
    return sorted(pairs, reverse=True)


def _block_maximum(dist: list[list[int]], pairs: list[tuple[int, int, int]]) -> int:
    """Maximum excess of a block, given its distances and far-apart pairs.

    Some quadruple attaining the maximum has a largest pairing made of two
    far-apart pairs: moving a to a neighbour farther from b raises the
    largest sum by 1 and each other sum by at most 1. Those pairs are
    taken by decreasing distance, each against every pair before it, and the
    search stops at the first pair whose distance is at most the best excess
    found, since the excess is at most the smaller distance of the largest
    pairing.
    """
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


def _first_attaining(reps: tuple, dist: list, ends: list, pairs: list, top: int) -> tuple:
    """Lexicographically smallest quadruple whose gates in a block are four
    distinct vertices with excess ``top``, the block's maximum: the first,
    as the block's vertices are in the order of their representatives ``reps``.

    A quadruple attains ``top`` only when its largest pairing has both
    distances at least ``top`` and all six distances are at least
    ``top / 2``. Before a vertex a, and then a pair a, b, is extended, the
    search checks that some quadruple containing it attains ``top``. Moving
    the other vertices away, as in :func:`_block_maximum`, keeps the
    excess, so it suffices to try the far-apart pairs ``(y, z, d(y, z))``
    at distance at least ``top`` and, for a vertex a of the largest
    pairing, partners x that are dead ends from a.
    """
    k = len(dist)
    far_apart = [(a, b, dab) for dab, a, b in pairs if dab >= top]
    half = (top + 1) // 2
    # the vertices near to and far from v, collected when the search reaches v
    near = cache(lambda v: frozenset(compress(range(k), map(half.__le__, dist[v]))))
    far = cache(lambda v: frozenset(compress(range(k), map(top.__le__, dist[v]))))
    toward = [[x for x in dead if row[x] >= top] for row, dead in zip(dist, ends)]

    def beats(a: int, xs, pairs) -> bool:
        """Whether a pairing (a, x), (y, z), for x in ``xs`` and (y, z, d(y, z))
        in ``pairs``, beats both others by ``top``."""
        da = dist[a]
        for x in xs:
            dx = dist[x]
            lead = da[x] - top
            for y, z, dyz in pairs:
                s2 = da[y] + dx[z]
                s3 = da[z] + dx[y]
                if lead + dyz >= (s2 if s2 > s3 else s3):
                    return True
        return False

    for a in range(k - 3):
        da = dist[a]
        if not beats(a, toward[a], far_apart):
            continue
        near_a = near(a)
        for b in compress(range(a + 1, k), map(half.__le__, da[a + 1:])):
            db, dab = dist[b], da[b]
            if not (
                (dab >= top and beats(a, (b,), far_apart))
                or beats(a, toward[a], [(b, y, db[y]) for y in toward[b]])
            ):
                continue
            near_ab = near_a & near(b)
            for c in sorted(j for j in near_ab if j > b):
                dc = dist[c]
                # candidates for e by the pairing that would be the largest
                pairings = ((c, dab), (b, da[c]), (a, db[c]))
                partners = frozenset().union(*(far(v) for v, d in pairings if d >= top))
                for e in sorted(j for j in partners & near_ab & near(c) if j > c):
                    # the three pairings; the other six repeat a vertex, so they beat nothing
                    if beats(a, (b, c, e), ((c, e, dc[e]), (b, e, db[e]), (b, c, db[c]))):
                        return reps[a], reps[b], reps[c], reps[e]
    raise AssertionError("a block's maximum is attained by one of its quadruples")
