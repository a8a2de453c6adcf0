"""Core graph values, constructions, and distance profiles."""

import copy
import pickle
import random

import pytest

from qblock.families import (
    bull_graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    path_graph,
)
from qblock.graphs import (
    INF,
    Graph,
    GraphError,
    build_graph,
    complement,
    connected_components,
    disjoint_union,
    distance_profile,
    induced_subgraph,
    is_connected,
    relabel,
)


def test_build_graph_p3():
    g = build_graph(3, [(0, 1), (1, 2)])
    assert g.n == 3 and g.m == 2


def test_build_graph_deduplicates_orientations():
    g = build_graph(4, [(0, 1), (1, 0)])
    assert g.m == 1
    assert g.sorted_edges() == [(0, 1)]


def test_build_graph_rejects_loop():
    with pytest.raises(GraphError, match="loop"):
        build_graph(2, [(0, 0)])


def test_build_graph_rejects_out_of_range():
    with pytest.raises(GraphError, match="out of range"):
        build_graph(2, [(0, 2)])


def test_complement_c4_is_2k2():
    co = complement(cycle_graph(4))
    assert co.m == 2
    assert len(connected_components(co)) == 2


def test_complement_of_complete_is_empty():
    assert complement(complete_graph(5)) == empty_graph(5)


def test_complement_is_involution():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(0, 9)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
        g = build_graph(n, edges)
        assert complement(complement(g)) == g


def test_disjoint_union_counts():
    g, offsets = disjoint_union([complete_graph(2), complete_graph(2)])
    assert g.n == 4 and g.m == 2 and offsets == (0, 2)
    single, _ = disjoint_union([complete_graph(1)])
    assert single == complete_graph(1)
    mixed, _ = disjoint_union([path_graph(3), complete_graph(3)])
    assert mixed.n == 6 and mixed.m == 5
    assert len(connected_components(mixed)) == 2


def test_union_component_counts_add():
    g, _ = disjoint_union([cycle_graph(5), empty_graph(3)])
    assert len(connected_components(g)) == 1 + 3


def test_induced_subgraph_of_bull_triangle():
    sub, vmap = induced_subgraph(bull_graph(), {0, 1, 2})
    assert sub == complete_graph(3)
    assert vmap == (0, 1, 2)


def test_induced_subgraph_trivial_cases():
    g = bull_graph()
    nothing, _ = induced_subgraph(g, set())
    assert nothing.n == 0
    everything, vmap = induced_subgraph(g, range(g.n))
    assert everything == g and vmap == tuple(range(g.n))


def _induced_by_edge_scan(g, s):
    """The definition ``induced_subgraph`` had: one scan over every edge of ``g``."""
    vmap = tuple(sorted(set(s)))
    for v in vmap:
        if not (0 <= v < g.n):
            raise GraphError(f"vertex {v} out of range 0..{g.n - 1}")
    index = {old: new for new, old in enumerate(vmap)}
    edges = {(index[u], index[v]) for u, v in g.edges if u in index and v in index}
    return Graph(len(vmap), frozenset(edges)), vmap


def test_induced_subgraph_matches_the_edge_scan_definition():
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randint(0, 12)
        p = rng.random()
        g = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        for s in ([], range(n), rng.sample(range(n), rng.randint(0, n)), [v for v in range(n) if v % 2] * 2):
            assert induced_subgraph(g, s) == _induced_by_edge_scan(g, s)


@pytest.mark.parametrize("s", [[0, 4], [-1, 2], [7, 5, 2], [3, -2, 9], [4]])
def test_induced_subgraph_names_the_first_vertex_out_of_range(s):
    g = path_graph(4)
    with pytest.raises(GraphError) as expected:
        _induced_by_edge_scan(g, s)
    with pytest.raises(GraphError) as raised:
        induced_subgraph(g, s)
    assert str(raised.value) == str(expected.value)


def test_connected_components_shapes():
    two_k2, _ = disjoint_union([complete_graph(2), complete_graph(2)])
    assert connected_components(two_k2) == ((0, 1), (2, 3))
    assert connected_components(cycle_graph(5)) == ((0, 1, 2, 3, 4),)
    assert connected_components(empty_graph(3)) == ((0,), (1,), (2,))


def test_distance_profile_p5():
    prof = distance_profile(path_graph(5))
    assert prof.radius == 2 and prof.diameter == 4
    assert prof.centre == (2,)
    assert prof.connected


def test_distance_profile_k4():
    prof = distance_profile(complete_graph(4))
    assert all(prof.dist[u][v] == 1 for u in range(4) for v in range(4) if u != v)
    assert prof.centre == (0, 1, 2, 3)


def test_distance_profile_bull():
    # chin 0, triangle 0-1-2, horns 3 on 1 and 4 on 2
    prof = distance_profile(bull_graph())
    assert prof.centre == (0, 1, 2)
    assert prof.radius == 2 and prof.diameter == 3
    assert prof.ecc == (2, 2, 2, 3, 3)


def test_distance_profile_invariants_random():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 8)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.35]
        g = build_graph(n, edges)
        prof = distance_profile(g)
        for u in range(n):
            assert prof.dist[u][u] == 0
            for v in range(n):
                assert prof.dist[u][v] == prof.dist[v][u]
        # triangle inequality over finite entries
        for u in range(n):
            for v in range(n):
                for w in range(n):
                    duv, dvw, duw = prof.dist[u][v], prof.dist[v][w], prof.dist[u][w]
                    if INF not in (duv, dvw, duw):
                        assert duw <= duv + dvw
        for v in range(n):
            assert prof.ecc[v] == max(prof.dist[v])
            assert prof.eccentric_sets[v] == tuple(
                u for u in range(n) if prof.dist[v][u] == prof.ecc[v]
            )
        assert prof.centre == tuple(v for v in range(n) if prof.ecc[v] == prof.radius)
        if is_connected(g):
            assert prof.centre
            assert all(e is not INF for e in prof.ecc)


def test_disconnected_profile_is_per_component():
    g, _ = disjoint_union([path_graph(3), complete_graph(2)])
    prof = distance_profile(g)
    assert not prof.connected
    assert prof.radius is INF and prof.diameter is INF
    assert [c.centre for c in prof.components] == [(1,), (3, 4)]
    assert [c.radius for c in prof.components] == [1, 1]


def test_inf_rejects_arithmetic():
    assert INF > 10**12
    assert INF == INF and INF >= INF and INF <= INF
    assert not INF < 3
    with pytest.raises(TypeError):
        INF + 1  # type: ignore[operator]


def test_inf_survives_pickle_and_copy():
    assert pickle.loads(pickle.dumps(INF)) is INF
    assert copy.deepcopy(INF) is INF
    prof = distance_profile(Graph(2, frozenset()))
    for other in (pickle.loads(pickle.dumps(prof)), copy.deepcopy(prof)):
        assert other.radius is INF and other.dist[0][1] is INF
        assert prof == other and other == prof


def test_relabel_roundtrip():
    g = bull_graph()
    perm = [3, 0, 4, 1, 2]
    h = relabel(g, perm)
    inverse = [0] * 5
    for old, new in enumerate(perm):
        inverse[new] = old
    assert relabel(h, inverse) == g


def _check_adjacency(g):
    """Each entry a tuple of distinct neighbours; the pairs read off equal ``edges``."""
    adj = g.adjacency
    assert type(adj) is tuple and len(adj) == g.n
    pairs = set()
    for v, nbrs in enumerate(adj):
        assert type(nbrs) is tuple and len(set(nbrs)) == len(nbrs)
        pairs.update((v, w) for w in nbrs if v < w)
        assert all(v in adj[w] for w in nbrs)
    assert pairs == g.edges


def test_adjacency_contract_on_every_graph_upto6(all_graphs_upto6):
    for g in all_graphs_upto6:
        _check_adjacency(g)


def test_adjacency_contract_on_random_graphs():
    rng = random.Random(41)
    for _ in range(200):
        n = rng.randint(0, 80)
        p = rng.random() * rng.choice([0.1, 1])
        _check_adjacency(build_graph(n, [(u, v) for u in range(n) for v in range(u) if rng.random() < p]))
