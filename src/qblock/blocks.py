"""Biconnected components, cut vertices, and block-graph recognition.

Blocks are maximal 2-connected subgraphs found by an iterative depth-first
lowpoint search (linear in |V| + |E|). An isolated vertex forms a singleton
block and counts as a cut vertex, matching the one-vertex convention that
keeps the root bookkeeping of the decomposition machinery total. The same
search counts the edges of each block, which decides block-graph membership:
those counted since the block's first tree edge, less those of the blocks
closed inside it.
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
    ``blocks[i]``; ``all_blocks_complete`` says whether every block induces
    a complete subgraph, that is, whether the graph is a block graph.
    """

    blocks: tuple[tuple[int, ...], ...]
    cut_vertices: tuple[int, ...]
    all_blocks_complete: bool

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
    adj = g.adjacency
    disc = [-1] * g.n
    low = [0] * g.n
    clock = itertools.count()
    cut: set[int] = set()
    raw_blocks: list[tuple[int, ...]] = []
    complete = True
    waiting: list[int] = []  # discovered vertices whose block is still open
    tally = 0  # tree and back edges counted and not yet in a closed block

    for root in range(g.n):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = next(clock)
        if not adj[root]:
            raw_blocks.append((root,))
            cut.add(root)
        root_closed = False  # the root is a cut vertex once it closes a second block
        stack: list[tuple[int, int, object, int, int]] = [(root, -1, iter(adj[root]), 0, 0)]
        while stack:
            u, parent, it, seat, mark = stack[-1]
            w = next(it, None)  # type: ignore[arg-type]
            if w is None:
                stack.pop()
                if not stack:
                    continue
                p = stack[-1][0]
                if low[u] < low[p]:
                    low[p] = low[u]
                if low[u] >= disc[p]:
                    # u and the vertices still waiting above it form a block with p
                    blk = waiting[seat:]
                    del waiting[seat:]
                    block_edges, tally = tally - mark, mark
                    blk.append(p)
                    raw_blocks.append(tuple(sorted(blk)))
                    complete = complete and 2 * block_edges == len(blk) * (len(blk) - 1)
                    if p != root or root_closed:
                        cut.add(p)
                    root_closed = root_closed or p == root
            elif disc[w] == -1:
                disc[w] = low[w] = next(clock)
                stack.append((w, u, iter(adj[w]), len(waiting), tally))
                waiting.append(w)
                tally += 1
            elif w != parent and disc[w] < disc[u]:
                tally += 1
                if disc[w] < low[u]:
                    low[u] = disc[w]

    return BlockCutStructure(
        blocks=tuple(sorted(raw_blocks, key=lambda b: (len(b), b))),
        cut_vertices=tuple(sorted(cut)),
        all_blocks_complete=complete,
    )


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
