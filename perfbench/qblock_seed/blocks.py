"""Biconnected components, cut vertices, and block-graph recognition.

Blocks are maximal 2-connected subgraphs found by an iterative depth-first
lowpoint search (linear in |V| + |E|). An isolated vertex forms a singleton
block and counts as a cut vertex, matching the one-vertex convention that
keeps the root bookkeeping of the decomposition machinery total.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .graphs import Graph, build_graph


@dataclass(frozen=True)
class BlockCutStructure:
    """Blocks, cut vertices, internal vertices and their incidence.

    Blocks are sorted vertex tuples in canonical order (by size, then
    lexicographic); ``internal_vertices[i]`` are the vertices lying in no
    block but ``blocks[i]``; ``incidence[i]`` lists the cut vertices of
    ``blocks[i]``.
    """

    blocks: tuple[tuple[int, ...], ...]
    cut_vertices: tuple[int, ...]
    internal_vertices: tuple[tuple[int, ...], ...]
    incidence: tuple[tuple[int, ...], ...]

    @cached_property
    def blocks_of_vertex(self) -> dict[int, tuple[int, ...]]:
        """Block indices containing each vertex."""
        out: dict[int, list[int]] = {}
        for i, blk in enumerate(self.blocks):
            for v in blk:
                out.setdefault(v, []).append(i)
        return {v: tuple(ids) for v, ids in out.items()}


def block_cut_decomposition(g: Graph) -> BlockCutStructure:
    """Decompose ``g`` into blocks and cut vertices (Hopcroft-Tarjan)."""
    n = g.n
    adj = [sorted(g.adjacency[v]) for v in range(n)]
    disc = [-1] * n
    low = [0] * n
    timer = 0
    cut: set[int] = set()
    raw_blocks: list[tuple[int, ...]] = []
    edge_stack: list[tuple[int, int]] = []

    for root in range(n):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = timer
        timer += 1
        if not adj[root]:
            raw_blocks.append((root,))
            cut.add(root)
            continue
        root_children = 0
        stack: list[tuple[int, int, object]] = [(root, -1, iter(adj[root]))]
        while stack:
            u, parent, it = stack[-1]
            w = next(it, None)  # type: ignore[arg-type]
            if w is None:
                stack.pop()
                if not stack:
                    continue
                p = stack[-1][0]
                if low[u] < low[p]:
                    low[p] = low[u]
                if low[u] >= disc[p]:
                    blk = set()
                    while True:
                        e = edge_stack.pop()
                        blk.add(e[0])
                        blk.add(e[1])
                        if e == (p, u):
                            break
                    raw_blocks.append(tuple(sorted(blk)))
                    if p != root:
                        cut.add(p)
                continue
            if w == parent:
                continue
            if disc[w] == -1:
                edge_stack.append((u, w))
                disc[w] = low[w] = timer
                timer += 1
                if u == root:
                    root_children += 1
                stack.append((w, u, iter(adj[w])))
            elif disc[w] < disc[u]:
                edge_stack.append((u, w))
                if disc[w] < low[u]:
                    low[u] = disc[w]
        if root_children >= 2:
            cut.add(root)

    blocks = tuple(sorted(raw_blocks, key=lambda b: (len(b), b)))
    membership: dict[int, int] = {}
    for blk in blocks:
        for v in blk:
            membership[v] = membership.get(v, 0) + 1
    internal = tuple(
        tuple(v for v in blk if membership[v] == 1) for blk in blocks
    )
    incidence = tuple(
        tuple(v for v in blk if v in cut) for blk in blocks
    )
    return BlockCutStructure(
        blocks=blocks,
        cut_vertices=tuple(sorted(cut)),
        internal_vertices=internal,
        incidence=incidence,
    )


def is_block_graph(g: Graph) -> bool:
    """True iff every block induces a complete subgraph (componentwise)."""
    structure = block_cut_decomposition(g)
    for blk in structure.blocks:
        for u, v in itertools.combinations(blk, 2):
            if not g.has_edge(u, v):
                return False
    return True


def block_graph_of(g: Graph) -> Graph:
    """Intersection graph of the blocks of ``g`` (always a block graph)."""
    structure = block_cut_decomposition(g)
    shared: set[tuple[int, int]] = set()
    for ids in structure.blocks_of_vertex.values():
        shared.update(itertools.combinations(ids, 2))
    return build_graph(len(structure.blocks), shared)
