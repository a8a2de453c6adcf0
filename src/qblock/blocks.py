"""Biconnected components, cut vertices, and block-graph recognition.

Blocks are maximal 2-connected subgraphs found by an iterative depth-first
lowpoint search (linear in |V| + |E|). An isolated vertex forms a singleton
block and counts as a cut vertex, matching the one-vertex convention that
keeps the root bookkeeping of the decomposition machinery total. The same
search counts the edges of each block, which decides block-graph membership:
those counted since the block's first tree edge, less those of the blocks
closed inside it. An edge is counted at its lower end, where it leads up
the tree, and u's own tree edge is one of those. Taking it into ``low[u]``
is harmless: it brings ``low[u]`` to at most ``disc[parent]``, and the test
``low[u] >= disc[parent]`` that closes a block at the parent comes out the
same. So the search needs no parent to tell tree edges from back edges.

A pendant vertex w, of degree 1 and reached from its one neighbour u, is a
block {u, w} on its own: nothing lies below w and no back edge can leave it.
The search closes that block when it reaches w, without a frame, an iterator
or a place on the waiting list; in stars and caterpillars most vertices are
pendant. The block enters ``tree`` while u's frame is still open, so before
u's parent block, and the tree stays children first. A component's root
gets a frame whatever its degree.

The canonical order of blocks is by size, then lexicographic. Two blocks
share at most one vertex, so two blocks of one size differ in their first
two vertices, and ``(size, b[0], b[1])`` decides the order; with vertices
below n it is the one integer ``(size * n + b[0]) * n + b[1]``, where an
isolated vertex's block, the only one of size 1 at that vertex, puts b[0]
for b[1].

The same forest gives every vertex's eccentricity in two passes: heights
below each vertex, children first, then the distance to the rest of the
component, parents first (:func:`eccentricities`).
"""

from __future__ import annotations

import itertools
from functools import cached_property

from .graphs import Graph, Record, build_graph


class BlockCutStructure(Record):
    """Blocks, cut vertices, internal vertices and their incidence.

    Blocks are sorted vertex tuples in canonical order (by size, then
    lexicographic); ``internal_vertices[i]`` are the vertices lying in no
    block but ``blocks[i]``; ``incidence[i]`` lists the cut vertices of
    ``blocks[i]``; ``incomplete`` lists, increasing, the indices of the
    blocks that do not induce a complete subgraph (each has four or more
    vertices), and ``all_blocks_complete`` says whether there are none, that
    is, whether the graph is a block graph.

    The search's rooted block-cut forest: ``roots[v]`` is the least vertex
    of v's component, where the search starts; ``tree`` pairs each block
    index with the block's vertex nearest that root, children first.
    """

    blocks: tuple[tuple[int, ...], ...]
    cut_vertices: tuple[int, ...]
    incomplete: tuple[int, ...]
    roots: tuple[int, ...]
    tree: tuple[tuple[int, int], ...]

    @property
    def all_blocks_complete(self) -> bool:
        return not self.incomplete

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """Vertex sets of the components, each increasing, by least vertex."""
        cells: dict[int, list[int]] = {}
        for v, root in enumerate(self.roots):
            cells.setdefault(root, []).append(v)
        return tuple(map(tuple, cells.values()))

    @cached_property
    def blocks_of_vertex(self) -> dict[int, tuple[int, ...]]:
        """Block indices containing each vertex."""
        out: dict[int, list[int]] = {}
        for i, blk in enumerate(self.blocks):
            for v in blk:
                out.setdefault(v, []).append(i)
        return {v: tuple(ids) for v, ids in out.items()}

    @cached_property
    def internal_vertices(self) -> tuple[tuple[int, ...], ...]:
        """Per block, its vertices lying in no other block."""
        of = self.blocks_of_vertex
        return tuple(tuple(v for v in blk if len(of[v]) == 1) for blk in self.blocks)

    @cached_property
    def incidence(self) -> tuple[tuple[int, ...], ...]:
        """Per block, its cut vertices."""
        is_cut = set(self.cut_vertices).__contains__
        return tuple(tuple(filter(is_cut, blk)) for blk in self.blocks)


def block_cut_decomposition(g: Graph) -> BlockCutStructure:
    """Decompose ``g`` into blocks and cut vertices (Hopcroft-Tarjan)."""
    adj, n = g.adjacency, g.n
    disc = [n] * n  # discovery times; n marks a vertex not yet reached
    low = [0] * n
    seat = [0] * n  # per vertex, the length of ``waiting`` when it was reached
    mark = [0] * n  # per vertex, ``tally`` when it was reached
    roots = list(range(n))  # a root's own entry is already right
    clock = 0
    cut: set[int] = set()
    raw_blocks: list[tuple[int, ...]] = []
    tops: list[int] = []  # per raw block, its vertex nearest the root
    incomplete: list[int] = []  # raw blocks that are not complete
    waiting: list[int] = []  # reached vertices whose block is still open
    tally = 0  # edges counted and not yet in a closed block

    for root in range(n):
        if disc[root] != n:
            continue
        disc[root] = low[root] = clock
        clock += 1
        if not adj[root]:
            raw_blocks.append((root,))
            tops.append(root)
            cut.add(root)
            continue
        root_closed = False  # the root is a cut vertex once it closes a second block
        stack = [(root, iter(adj[root]))]
        while stack:
            u, it = stack[-1]
            du = disc[u]
            lu = low[u]
            for w in it:
                dw = disc[w]
                if dw < du:  # an edge up the tree: a back edge, or u's own tree edge
                    tally += 1
                    if dw < lu:
                        lu = dw
                elif dw == n:
                    roots[w] = root
                    if len(adj[w]) == 1:  # a pendant vertex: the block {u, w} closes now
                        disc[w] = du  # any value but n: w is reached, and no other edge leads to it
                        raw_blocks.append((u, w) if u < w else (w, u))
                        tops.append(u)
                        if u != root or root_closed:
                            cut.add(u)
                        root_closed = root_closed or u == root
                    else:
                        disc[w] = low[w] = clock
                        clock += 1
                        seat[w] = len(waiting)
                        mark[w] = tally
                        waiting.append(w)
                        low[u] = lu
                        stack.append((w, iter(adj[w])))
                        break
            else:
                stack.pop()
                if not stack:
                    continue
                p = stack[-1][0]
                if lu < low[p]:
                    low[p] = lu
                if lu >= disc[p]:
                    # u and the vertices still waiting above it form a block with p
                    blk = waiting[seat[u]:]
                    del waiting[seat[u]:]
                    block_edges, tally = tally - mark[u], mark[u]
                    blk.append(p)
                    raw_blocks.append(tuple(sorted(blk)))
                    tops.append(p)
                    if 2 * block_edges != len(blk) * (len(blk) - 1):
                        incomplete.append(len(tops) - 1)
                    if p != root or root_closed:
                        cut.add(p)
                    root_closed = root_closed or p == root

    # the (len(b), b) order from one integer per block; see the module docstring
    keys = [(len(b) * n + b[0]) * n + (b[1] if len(b) > 1 else b[0]) for b in raw_blocks]
    order = sorted(range(len(raw_blocks)), key=keys.__getitem__)
    index = [0] * len(order)  # the inverse of order
    for i, b in enumerate(order):
        index[b] = i
    return BlockCutStructure(
        blocks=tuple(map(raw_blocks.__getitem__, order)),
        cut_vertices=tuple(sorted(cut)),
        incomplete=tuple(sorted(map(index.__getitem__, incomplete))),
        roots=tuple(roots),
        tree=tuple(zip(index, tops)),
    )


def eccentricities(structure: BlockCutStructure, rows: dict) -> list[int]:
    """Each vertex's eccentricity in its component, read off the block-cut tree.

    Every path between two blocks runs through the cut vertices between
    them, so a vertex is farthest from v either below v, through the blocks
    whose top (their vertex nearest the root) is v, or through v's parent
    block B. Children first, the height h(u) is the largest of
    ``d_B(u, w) + h(w)`` over the blocks B topped by u and their other
    vertices w; each cut vertex keeps its two largest such values. Parents
    first, for v in B other than its top p, ``up(v)`` is the largest of
    ``d_B(v, u) + g(u)`` over u in B other than v, where ``g(u) = h(u)``
    but ``g(p)`` is the larger of ``up(p)`` and p's largest value from a
    block other than B. The eccentricity is the larger of ``up(v)`` and
    ``h(v)``.

    ``rows`` maps the index of each block that is not complete to its
    vertices and their distance rows inside it, as
    :func:`~qblock.hyperbolicity.four_point_scan` records them; every other
    block is complete, its vertices at distance 1 from each other.
    """
    n, blocks = len(structure.roots), structure.blocks
    h, second, via = [0] * n, [0] * n, [-1] * n  # the two largest heights, and the first's block
    for b, p in structure.tree:
        if b in rows:
            blk, dist = rows[b]
            down = max(d + h[u] for d, u in zip(dist[blk.index(p)], blk) if u != p)
        elif len(blocks[b]) > 1:
            down = 1 + max(h[u] for u in blocks[b] if u != p)
        else:  # an isolated vertex
            continue
        if down > h[p]:
            second[p], h[p], via[p] = h[p], down, b
        elif down > second[p]:
            second[p] = down
    up = [0] * n
    for b, p in reversed(structure.tree):
        if len(blocks[b]) == 1:
            continue
        gp = max(up[p], second[p] if via[p] == b else h[p])  # farthest from p outside B
        if b in rows:
            blk, dist = rows[b]
            gs = [gp if u == p else h[u] for u in blk]
            for v, row in zip(blk, dist):
                if v != p:
                    up[v] = max(d + gu for d, gu in zip(row, gs) if d)
            continue
        best, runner, far = gp, -1, p  # the two largest of g over B, and the first's vertex
        for u in blocks[b]:
            if u != p:
                if h[u] > best:
                    best, runner, far = h[u], best, u
                elif h[u] > runner:
                    runner = h[u]
        for u in blocks[b]:
            if u != p:
                up[u] = 1 + (runner if u == far else best)
    return list(map(max, up, h))


def is_block_graph(g: Graph) -> bool:
    """True iff every block induces a complete subgraph (componentwise)."""
    return block_cut_decomposition(g).all_blocks_complete


def block_graph_of(g: Graph) -> Graph:
    """Intersection graph of the blocks of ``g`` (always a block graph)."""
    structure = block_cut_decomposition(g)
    shared: set[tuple[int, int]] = set()
    for ids in structure.blocks_of_vertex.values():
        shared.update(itertools.combinations(ids, 2))
    return build_graph(len(structure.blocks), shared)
