"""Shared corpora, built once per session."""

from __future__ import annotations

import pytest

from qblock.analyze import GraphAnalysis
from qblock.blocks import is_block_graph
from qblock.cographs import is_block_cograph
from qblock.graphs import Graph, distance_profile, is_connected
from qblock.oracle import (
    enumerate_labeled_graphs,
    random_block_cograph,
    random_block_graph,
)


@pytest.fixture(scope="session")
def all_graphs_upto6() -> list[Graph]:
    """Every labeled graph on 0..6 vertices (33,868 graphs)."""
    out = []
    for n in range(7):
        out.extend(enumerate_labeled_graphs(n))
    return out


@pytest.fixture(scope="session")
def connected_block_graphs_upto6(all_graphs_upto6) -> list[Graph]:
    return [
        g
        for g in all_graphs_upto6
        if g.n >= 1 and g.m >= g.n - 1 and is_connected(g) and is_block_graph(g)
    ]


@pytest.fixture(scope="session")
def random_block_graphs_500() -> list[Graph]:
    """500 seeded connected block graphs on at most 9 vertices."""
    corpus = [random_block_graph(1 + i % 6, 1000 + i) for i in range(500)]
    assert all(g.n <= 9 for g in corpus)
    return corpus


@pytest.fixture(scope="session")
def block_graph_corpus(connected_block_graphs_upto6, random_block_graphs_500):
    return connected_block_graphs_upto6 + random_block_graphs_500


@pytest.fixture(scope="session")
def block_cographs_upto6(all_graphs_upto6) -> list[Graph]:
    return [g for g in all_graphs_upto6 if is_block_cograph(g)]


@pytest.fixture(scope="session")
def random_block_cographs_300() -> list[Graph]:
    """300 seeded random cotree graphs on at most 9 vertices."""
    corpus = [random_block_cograph(9, 50000 + i) for i in range(300)]
    assert all(g.n <= 9 for g in corpus)
    return corpus


def _check_eccentricities(g: Graph) -> GraphAnalysis:
    """Eccentricities, components and connectivity of ``GraphAnalysis(g)``,
    read off the block-cut tree, against ``distance_profile``; the analysis."""
    a = GraphAnalysis(g)
    profile = distance_profile(g)
    assert a.components == profile.components
    assert (len(a.components) == 1) == profile.connected
    for comp in a.components:
        for v in comp.vertices:
            assert a.eccentricity[v] == max(profile.dist[v][u] for u in comp.vertices)
    if profile.connected:
        # the centre of a connected graph lies inside one block (Harary 1969)
        assert any(set(a.components[0].centre) <= set(blk) for blk in a.structure.blocks)
    return a


@pytest.fixture(scope="session")
def check_eccentricities():
    """:func:`_check_eccentricities`, for test modules that build their own graphs."""
    return _check_eccentricities
