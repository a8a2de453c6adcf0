"""Block decomposition, cut vertices, and block-graph recognition."""

import itertools
import random

import pytest

from qblock.blocks import block_cut_decomposition, block_graph_of, is_block_graph
from qblock.families import (
    bull_graph,
    bowtie_graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    path_graph,
    star_graph,
)
from qblock.graphs import build_graph, disjoint_union, relabel
from qblock.oracle import random_block_cograph, random_block_graph


def test_bull_decomposition():
    # chin 0, triangle 0-1-2, horns 3 on 1 and 4 on 2
    s = block_cut_decomposition(bull_graph())
    assert s.blocks == ((1, 3), (2, 4), (0, 1, 2))
    assert s.cut_vertices == (1, 2)
    assert s.internal_vertices[s.blocks.index((0, 1, 2))] == (0,)
    assert s.incidence == ((1,), (2,), (1, 2))


def test_p3_decomposition():
    s = block_cut_decomposition(path_graph(3))
    assert s.blocks == ((0, 1), (1, 2))
    assert s.cut_vertices == (1,)


def test_k1_convention():
    s = block_cut_decomposition(complete_graph(1))
    assert s.blocks == ((0,),)
    assert s.cut_vertices == (0,)
    assert s.internal_vertices == ((0,),)


def test_isolated_vertices_in_larger_graph():
    g, _ = disjoint_union([path_graph(3), empty_graph(2)])
    s = block_cut_decomposition(g)
    assert (3,) in s.blocks and (4,) in s.blocks
    assert {3, 4} <= set(s.cut_vertices)


def test_every_edge_in_exactly_one_block():
    rng = random.Random(17)
    for _ in range(30):
        n = rng.randint(1, 9)
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3
        ]
        g = build_graph(n, edges)
        s = block_cut_decomposition(g)
        count = {e: 0 for e in g.edges}
        for blk in s.blocks:
            for u, v in itertools.combinations(blk, 2):
                if g.has_edge(u, v):
                    count[(u, v)] += 1
        assert all(c == 1 for c in count.values())
        # two blocks share at most one vertex, and shared vertices are cut vertices
        for b1, b2 in itertools.combinations(s.blocks, 2):
            shared = set(b1) & set(b2)
            assert len(shared) <= 1
            assert shared <= set(s.cut_vertices)


def test_is_block_graph_examples():
    assert is_block_graph(bull_graph())
    assert not is_block_graph(cycle_graph(4))
    assert is_block_graph(path_graph(6))  # any tree
    assert is_block_graph(star_graph(5))
    assert is_block_graph(empty_graph(4))  # disconnected allowed
    assert not is_block_graph(cycle_graph(5))


def test_block_graph_of_bull_is_p3():
    bb = block_graph_of(bull_graph())
    assert bb.n == 3 and bb.m == 2
    degrees = sorted(bb.degree(v) for v in range(3))
    assert degrees == [1, 1, 2]


def test_block_graph_of_2connected_is_k1():
    assert block_graph_of(cycle_graph(5)) == complete_graph(1)


def test_block_graph_of_p4_is_p3():
    bb = block_graph_of(path_graph(4))
    assert bb.n == 3 and sorted(bb.degree(v) for v in range(3)) == [1, 1, 2]


def test_block_graph_of_always_block_graph():
    rng = random.Random(23)
    for _ in range(25):
        n = rng.randint(1, 9)
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4
        ]
        assert is_block_graph(block_graph_of(build_graph(n, edges)))


def test_blocks_canonical_order_is_relabel_stable():
    g = bowtie_graph()
    s = block_cut_decomposition(g)
    assert s.blocks == ((0, 1, 2), (2, 3, 4))
    perm = [4, 3, 2, 1, 0]
    s2 = block_cut_decomposition(relabel(g, perm))
    assert s2.blocks == ((0, 1, 2), (2, 3, 4))


def test_internal_vertices_and_incidence_by_definition(all_graphs_upto6):
    for g in all_graphs_upto6:
        s = block_cut_decomposition(g)
        cut = set(s.cut_vertices)
        for i, blk in enumerate(s.blocks):
            others = set().union(*(b for k, b in enumerate(s.blocks) if k != i))
            assert s.internal_vertices[i] == tuple(v for v in blk if v not in others)
            assert s.incidence[i] == tuple(v for v in blk if v in cut)


def test_random_block_graphs_recognized():
    for i in range(40):
        g = random_block_graph(1 + i % 7, 600 + i)
        assert is_block_graph(g)


def _check_rooted_forest(g, nx):
    """``roots`` and ``tree`` of ``g`` against networkx components and BFS."""
    s = block_cut_decomposition(g)
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    least = {v: min(cell) for cell in nx.connected_components(h) for v in cell}
    assert s.roots == tuple(least[v] for v in range(g.n))
    assert sorted(b for b, _ in s.tree) == list(range(len(s.blocks)))
    dist = {}
    for r in set(least.values()):
        dist.update(nx.single_source_shortest_path_length(h, r))
    top = dict(s.tree)
    for b, blk in enumerate(s.blocks):
        # the recorded vertex is the block's one vertex nearest the root
        assert [dist[v] for v in blk].count(min(dist[v] for v in blk)) == 1
        assert top[b] == min(blk, key=dist.__getitem__)
    position = {b: i for i, (b, _) in enumerate(s.tree)}
    for b, blk in enumerate(s.blocks):
        for c in range(len(s.blocks)):
            # c hangs below b at a vertex of b other than b's own top
            if c != b and top[c] in blk and top[c] != top[b]:
                assert position[c] < position[b]


def test_roots_and_tree_on_every_graph_upto6(all_graphs_upto6):
    nx = pytest.importorskip("networkx")
    for g in all_graphs_upto6:
        _check_rooted_forest(g, nx)


def test_roots_and_tree_on_random_relabelled_graphs_upto200():
    nx = pytest.importorskip("networkx")
    rng = random.Random(31)
    for _ in range(300):
        parts = []
        while sum(p.n for p in parts) < 150:
            kind, k = rng.randrange(4), rng.randint(1, 60)
            if kind == 0:
                parts.append(random_block_graph(k, rng.randrange(10**6)))
            elif kind == 1:
                parts.append(random_block_cograph(9, rng.randrange(10**6)))
            elif kind == 2:  # a sparse random graph, often with isolated vertices
                parts.append(build_graph(k, [(u, v) for u in range(k) for v in range(u) if rng.random() < 2.5 / k]))
            else:
                parts.append(empty_graph(rng.randint(1, 3)))
        g = disjoint_union(parts)[0]
        g = build_graph(min(g.n, 200), [e for e in g.edges if max(e) < 200])
        perm = list(range(g.n))
        rng.shuffle(perm)
        _check_rooted_forest(relabel(g, perm), nx)
