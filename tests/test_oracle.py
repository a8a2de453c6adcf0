"""Brute-force oracles: automorphisms, Schmidt, isomorphism, enumeration."""

import itertools
import random

import pytest

from qblock.blocks import is_block_graph
from qblock.families import (
    bull_graph,
    bowtie_graph,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)
from qblock.graphs import build_graph, complement, is_connected, relabel
from qblock.hyperbolicity import hyperbolicity
from qblock.oracle import (
    CapExceededError,
    SizeLimitError,
    enumerate_automorphisms,
    enumerate_labeled_graphs,
    is_isomorphic_bruteforce,
    random_block_graph,
    schmidt_bruteforce,
)


@pytest.mark.parametrize(
    "graph,order",
    [
        (bull_graph(), 2),
        (complete_graph(4), 24),
        (cycle_graph(5), 10),
        (bowtie_graph(), 8),
        (cycle_graph(4), 8),
        (star_graph(4), 24),
        (path_graph(4), 2),
    ],
)
def test_automorphism_orders(graph, order):
    assert enumerate_automorphisms(graph).order == order


def test_automorphisms_preserve_adjacency():
    for g in [bull_graph(), cycle_graph(6), star_graph(3)]:
        auts = enumerate_automorphisms(g)
        perms = set(auts.perms)
        assert tuple(range(g.n)) in perms
        for p in auts.perms:
            assert relabel(g, p) == g
            # closure under inverse
            inverse = [0] * g.n
            for old, new in enumerate(p):
                inverse[new] = old
            assert tuple(inverse) in perms
        # closure under composition on a sample
        rng = random.Random(1)
        sample = list(auts.perms)
        for _ in range(10):
            a, b = rng.choice(sample), rng.choice(sample)
            assert tuple(b[a[v]] for v in range(g.n)) in perms


def test_cap_exceeded_is_an_error():
    with pytest.raises(CapExceededError):
        enumerate_automorphisms(complete_graph(5), cap=10)


def test_cap_bounds_the_whole_group():
    # K6 has disjoint transpositions among its first automorphisms, but a
    # Schmidt verdict is given only for groups of at most ``cap`` elements
    with pytest.raises(CapExceededError, match="more than 100 automorphisms"):
        schmidt_bruteforce(complete_graph(6), cap=100)
    assert enumerate_automorphisms(build_graph(0, []), cap=0).order == 1
    assert enumerate_automorphisms(bowtie_graph(), cap=8).order == 8
    with pytest.raises(CapExceededError, match="more than 7 automorphisms"):
        enumerate_automorphisms(bowtie_graph(), cap=7)


def test_size_limits():
    with pytest.raises(SizeLimitError):
        enumerate_automorphisms(build_graph(13, []))
    with pytest.raises(SizeLimitError):
        is_isomorphic_bruteforce(build_graph(11, []), build_graph(11, []))
    with pytest.raises(SizeLimitError):
        list(enumerate_labeled_graphs(7))


@pytest.mark.parametrize(
    "graph,expected",
    [
        (complete_graph(4), True),
        (star_graph(3), False),
        (bowtie_graph(), True),
        (bull_graph(), False),
        (path_graph(4), False),
        (star_graph(4), True),
    ],
)
def test_schmidt(graph, expected):
    assert schmidt_bruteforce(graph) is expected


def test_isomorphism_bruteforce():
    bull = bull_graph()
    assert is_isomorphic_bruteforce(bull, complement(bull))
    assert not is_isomorphic_bruteforce(star_graph(3), path_graph(4))
    rng = random.Random(3)
    for i in range(20):
        g = random_block_graph(1 + i % 5, 900 + i)
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert is_isomorphic_bruteforce(g, relabel(g, perm))


def test_enumeration_counts():
    graphs4 = list(enumerate_labeled_graphs(4))
    assert len(graphs4) == 64
    assert sum(1 for g in graphs4 if is_connected(g)) == 38
    # oracle-derived regression values for the block-graph filter
    graphs3 = list(enumerate_labeled_graphs(3))
    assert sum(1 for g in graphs3 if is_block_graph(g)) == 8
    assert sum(1 for g in graphs3 if is_connected(g) and is_block_graph(g)) == 4


def _vf2_corpus():
    """Seeded graphs with n = 0..10 at densities 0.2, 0.5 and 0.8, and K1..K7."""
    rng = random.Random(12)
    graphs = [complete_graph(n) for n in range(1, 8)]
    for i in range(150):
        n, p = i % 11, (0.2, 0.5, 0.8)[i % 3]
        graphs.append(build_graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p]))
    return graphs


def test_oracle_agrees_with_networkx_vf2():
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    def to_nx(g):
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges)
        return h

    rng = random.Random(13)
    graphs = _vf2_corpus()
    for g in graphs:
        G = to_nx(g)
        maps = sorted(tuple(m[v] for v in range(g.n)) for m in GraphMatcher(G, G).isomorphisms_iter())
        assert list(enumerate_automorphisms(g).perms) == maps
        supports = [{v for v, w in enumerate(p) if v != w} for p in maps]
        disjoint = any(s and t and not s & t for s, t in itertools.combinations(supports, 2))
        assert schmidt_bruteforce(g) is disjoint
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert is_isomorphic_bruteforce(g, relabel(g, perm))
    verdicts = []
    for i in range(150):
        n = 4 + i % 7
        pairs = list(itertools.combinations(range(n), 2))
        m = rng.randint(0, len(pairs))
        g, h = (build_graph(n, rng.sample(pairs, m)) for _ in range(2))
        verdicts.append(is_isomorphic_bruteforce(g, h))
        assert verdicts[-1] == nx.is_isomorphic(to_nx(g), to_nx(h))
    assert any(verdicts) and not all(verdicts)


def test_random_block_graph_contract():
    assert random_block_graph(1, 5) == complete_graph(1)
    g = random_block_graph(10, 42)
    assert is_block_graph(g) and is_connected(g)
    assert 10 <= g.n <= 14
    assert random_block_graph(10, 42) == g  # seeded determinism
    assert hyperbolicity(random_block_graph(8, 3)).twice_delta == 0
