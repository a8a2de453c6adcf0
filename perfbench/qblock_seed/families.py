"""Small named graphs used across tests, the selftest and documentation."""

from __future__ import annotations

import itertools

from .graphs import Graph, build_graph


def complete_graph(n: int) -> Graph:
    return build_graph(n, itertools.combinations(range(n), 2))


def empty_graph(n: int) -> Graph:
    return build_graph(n, [])


def path_graph(n: int) -> Graph:
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> Graph:
    """K_{1,leaves} with the hub at vertex 0."""
    return build_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def bull_graph() -> Graph:
    """Triangle 1,2,3 with horns 4-2 and 5-3; vertex 1 is the chin.

    Vertex ids follow that description shifted down by one: triangle 0,1,2,
    horns 3-1 and 4-2, chin 0.
    """
    return build_graph(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4)])


def bowtie_graph() -> Graph:
    """Two triangles sharing the cut vertex 2."""
    return build_graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
