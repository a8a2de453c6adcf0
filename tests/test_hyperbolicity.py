"""Four-point excess and exact hyperbolicity."""

import itertools
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qblock.analyze import GraphAnalysis
from qblock.blocks import block_cut_decomposition, is_block_graph
from qblock.cographs import cotree_flags
from qblock.families import bull_graph, complete_graph, cycle_graph, path_graph
from qblock.graphs import (
    NotConnectedError,
    bfs_distances,
    build_graph,
    complement,
    connected_components,
    disjoint_union,
    distance_profile,
    induced_subgraph,
    relabel,
)
from qblock.hyperbolicity import (
    _C4_TRIES,
    _block_adjacency,
    _block_distances,
    _c4_search,
    _diameter_two,
    _far_apart,
    _near_distances,
    four_point_excess,
    hyperbolicity,
)
from qblock.oracle import (
    enumerate_labeled_graphs,
    hyperbolicity_bruteforce,
    random_block_cograph,
    random_block_graph,
)


def test_four_point_excess_c4():
    prof = distance_profile(cycle_graph(4))
    assert four_point_excess(prof, 0, 1, 2, 3) == 2


def test_four_point_excess_repeats_are_zero():
    prof = distance_profile(cycle_graph(5))
    for w, x, y in itertools.product(range(5), repeat=3):
        assert four_point_excess(prof, w, w, x, y) == 0


def test_four_point_excess_k4():
    prof = distance_profile(complete_graph(4))
    assert four_point_excess(prof, 0, 1, 2, 3) == 0


def test_four_point_excess_rejects_cross_component():
    g, _ = disjoint_union([complete_graph(2), complete_graph(2)])
    prof = distance_profile(g)
    with pytest.raises(NotConnectedError):
        four_point_excess(prof, 0, 1, 2, 3)


def test_spot_values():
    assert hyperbolicity(bull_graph()).delta == 0
    assert hyperbolicity(cycle_graph(4)).delta == 1
    assert hyperbolicity(cycle_graph(5)).delta == Fraction(1, 2)
    assert hyperbolicity(complete_graph(4)).delta == 0
    assert hyperbolicity(build_graph(0, [])).delta == 0


def test_witness_attains_maximum():
    result = hyperbolicity(cycle_graph(4))
    prof = distance_profile(cycle_graph(4))
    assert result.witness is not None
    assert four_point_excess(prof, *result.witness) == result.twice_delta
    assert result.witness == (0, 1, 2, 3)


def test_relabel_invariance():
    rng = random.Random(21)
    g = cycle_graph(6)
    base = hyperbolicity(g).twice_delta
    for _ in range(10):
        perm = list(range(6))
        rng.shuffle(perm)
        assert hyperbolicity(relabel(g, perm)).twice_delta == base


def test_disconnected_is_max_over_components():
    g, _ = disjoint_union([cycle_graph(4), path_graph(4)])
    result = hyperbolicity(g)
    assert not result.connected
    assert result.per_component == ((0, 2), (1, 0))
    assert result.twice_delta == 2


def test_brute_force_including_repeats_agrees_small():
    # quadruples with repeated vertices never change the maximum
    rng = random.Random(5)
    for _ in range(15):
        n = rng.randint(4, 7)
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
        ]
        g = build_graph(n, edges)
        prof = distance_profile(g)
        best = 0
        for cell in connected_components(g):
            for quad in itertools.product(cell, repeat=4):
                best = max(best, four_point_excess(prof, *quad))
        assert best == hyperbolicity(g).twice_delta


def test_zero_iff_block_graph_n5():
    for n in range(6):
        for g in enumerate_labeled_graphs(n):
            assert (hyperbolicity(g).twice_delta == 0) == is_block_graph(g)


def _shuffled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return relabel(g, perm)


def _with_chords(g, count, rng, max_dist):
    """``g`` plus up to ``count`` chords between vertices at distance 2..max_dist."""
    candidates = [
        (u, v)
        for u in range(g.n)
        for v, d in enumerate(bfs_distances(g, u))
        if u < v and isinstance(d, int) and 2 <= d <= max_dist
    ]
    return build_graph(g.n, [*g.edges, *rng.sample(candidates, min(count, len(candidates)))])


def _block_graph_with_chords(n, chords, rng, max_dist):
    base = random_block_graph(n, rng.randrange(2**32))
    while base.n != n:
        base = random_block_graph(n, rng.randrange(2**32))
    return _with_chords(_shuffled(base, rng), chords, rng, max_dist)


def _cycle_with_chords(n, rng):
    order = list(range(n))
    rng.shuffle(order)
    ring = build_graph(n, [(order[i], order[(i + 1) % n]) for i in range(n)])
    return _with_chords(ring, n // 5, rng, n)


def test_matches_brute_force_on_all_graphs_upto6(all_graphs_upto6):
    for g in all_graphs_upto6:
        assert hyperbolicity(g) == hyperbolicity_bruteforce(g)


@pytest.mark.parametrize("n", range(12, 31, 3))
def test_matches_brute_force_on_chorded_block_graphs_and_cycles(n):
    rng = random.Random(n)
    graphs = [_block_graph_with_chords(n, chords, rng, n) for chords in (1, 2, 3)]
    graphs += [_cycle_with_chords(n, rng) for _ in range(2)]
    for g in graphs:
        assert hyperbolicity(g) == hyperbolicity_bruteforce(g)


def test_matches_brute_force_on_unions_tying_on_the_maximum():
    rng = random.Random(8)
    for n in (8, 10, 12):
        g = _cycle_with_chords(n, rng)
        mate = _shuffled(g, rng)  # same maximum, other witness
        union, _ = disjoint_union([g, _block_graph_with_chords(n, 2, rng, 3), mate])
        for _ in range(4):
            h = _shuffled(union, rng)
            result = hyperbolicity(h)
            assert result == hyperbolicity_bruteforce(h)
            assert sum(top == result.twice_delta for _, top in result.per_component) >= 2


def test_witness_spanning_two_blocks():
    # a 4-cycle on 1..4 with the pendant vertex 0 on 1: 0 stands for its gate 1
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 1)])
    assert hyperbolicity(g) == hyperbolicity_bruteforce(g)
    assert hyperbolicity(g).witness == (0, 2, 3, 4)


def test_witness_when_two_blocks_attain_the_maximum():
    # 4-cycles 2-3-4-5 and 0-1-6-5 share the cut vertex 5; the first block's
    # smallest quadruple is (0, 2, 3, 4), the second's (0, 1, 2, 6)
    g = build_graph(7, [(2, 3), (3, 4), (4, 5), (5, 2), (0, 1), (1, 6), (6, 5), (5, 0)])
    result = hyperbolicity(g)
    assert result == hyperbolicity_bruteforce(g)
    assert result.twice_delta == 2
    assert result.witness == (0, 1, 2, 6)


def _numpy_scan(g):
    """``(twice_delta, witness, per_component)`` by a vectorised scan of every
    quadruple w < x < y < z of each component, lexicographically first witness."""
    best, witness, per_component = 0, None, []
    for cid, cell in enumerate(connected_components(g)):
        k = len(cell)
        d = np.array([[bfs_distances(g, u)[v] for v in cell] for u in cell], dtype=np.int64)
        comp_best, comp_witness = 0, None
        for w in range(k - 3):
            # x, y, z range over the vertices after w
            rest = d[w + 1:, w + 1:]
            x, y, z = np.ix_(*[range(k - w - 1)] * 3)
            s1 = d[w, w + 1:][x] + rest[y, z]
            s2 = d[w, w + 1:][y] + rest[x, z]
            s3 = d[w, w + 1:][z] + rest[x, y]
            hi = np.maximum(np.maximum(s1, s2), s3)
            lo = np.minimum(np.minimum(s1, s2), s3)
            excess = np.where((x < y) & (y < z), 2 * hi + lo - s1 - s2 - s3, -1)
            top = int(excess.max())
            if top > comp_best:
                first = np.argwhere(excess == top)[0] + w + 1
                comp_best, comp_witness = top, (cell[w], *(cell[i] for i in first))
        per_component.append((cid, comp_best))
        if comp_best > best or (
            comp_best == best and comp_witness and (witness is None or comp_witness < witness)
        ):
            best, witness = comp_best, comp_witness
    return best, witness, tuple(per_component)


@pytest.mark.parametrize("n", range(40, 81, 10))
def test_matches_numpy_scan_beyond_brute_force_size(n):
    rng = random.Random(100 + n)
    graphs = [_block_graph_with_chords(n, 3, rng, 3), _cycle_with_chords(n, rng)]
    graphs.append(_shuffled(disjoint_union(graphs)[0], rng))
    for g in graphs:
        result = hyperbolicity(g)
        assert (result.twice_delta, result.witness, result.per_component) == _numpy_scan(g)


@st.composite
def _graphs(draw, max_n=9):
    n = draw(st.integers(0, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return build_graph(n, [e for e, keep in zip(pairs, present) if keep])


@settings(derandomize=True, deadline=None)
@given(_graphs(), st.randoms(use_true_random=False))
def test_property_brute_force_relabelling_and_witness(g, rng):
    result = hyperbolicity(g)
    assert result == hyperbolicity_bruteforce(g)
    assert hyperbolicity(_shuffled(g, rng)).twice_delta == result.twice_delta
    if result.witness is None:
        assert result.twice_delta == 0
    else:
        assert four_point_excess(distance_profile(g), *result.witness) == result.twice_delta


def _reach(dist, nbrs):
    """``reach[a][b]``, the largest distance from b to a neighbour of a: a is
    farthest from b locally when ``reach[a][b] <= dist[a][b]``."""
    return [[max(col) for col in zip(*(dist[w] for w in ws))] for ws in nbrs]


def _assert_dead_ends_are_locally_farthest(g, blk):
    nbrs = _block_adjacency(g, blk)
    dist, ends = _block_distances(nbrs)
    # blocks are isometric subgraphs
    assert dist == [[bfs_distances(g, u)[v] for v in blk] for u in blk]
    reach = _reach(dist, nbrs)
    k = len(blk)
    for b in range(k):
        assert sorted(ends[b]) == [a for a in range(k) if reach[a][b] <= dist[a][b]]
    far_apart = [
        (dist[a][b], a, b)
        for a in range(k)
        for b in range(a + 1, k)
        if reach[a][b] <= dist[a][b] and reach[b][a] <= dist[a][b]
    ]
    assert _far_apart(dist, ends) == sorted(far_apart, reverse=True)


def test_dead_ends_match_the_reach_formula_on_2_connected_graphs_upto6(all_graphs_upto6):
    checked = 0
    for g in all_graphs_upto6:
        whole = tuple(range(g.n))
        if g.n >= 3 and block_cut_decomposition(g).blocks == (whole,):
            _assert_dead_ends_are_locally_farthest(g, whole)
            checked += 1
    # labelled 2-connected graphs on 3, 4, 5 and 6 vertices
    assert checked == 1 + 10 + 238 + 11368


@pytest.mark.parametrize("n", range(12, 81, 4))
def test_dead_ends_match_the_reach_formula_on_chorded_blocks(n):
    rng = random.Random(200 + n)
    graphs = [_block_graph_with_chords(n, chords, rng, 3) for chords in (2, 4)]
    graphs += [_cycle_with_chords(n, rng) for _ in range(2)]
    for g in graphs:
        for blk in block_cut_decomposition(g).blocks:
            if len(blk) >= 3:
                _assert_dead_ends_are_locally_farthest(g, blk)


def _glued(parts, rng):
    """The graphs of ``parts`` in a random tree: each part's vertex 0 is a
    random vertex of the parts before it. Randomly relabelled."""
    n, edges = 0, []
    for h in parts:
        label = [rng.randrange(n), *range(n, n + h.n - 1)] if n else list(range(h.n))
        edges += [(label[u], label[v]) for u, v in h.edges]
        n = max(label) + 1
    return _shuffled(build_graph(n, edges), rng)


def _witness_far_from_the_first_blocks(g, result):
    """Whether at least three blocks attain the maximum and the witness has
    its four gates in a block that is not ``blocks[0]`` and misses vertex 0."""
    blocks = block_cut_decomposition(g).blocks
    dist = distance_profile(g).dist
    attaining = [
        blk for blk in blocks
        if hyperbolicity(induced_subgraph(g, blk)[0]).twice_delta == result.twice_delta
    ]
    (home,) = [
        i for i, blk in enumerate(blocks)
        if len({min(blk, key=dist[v].__getitem__) for v in result.witness}) == 4
    ]
    return len(attaining) >= 3 and home != 0 and 0 not in blocks[home]


def _glued_with_far_witness(parts, rng):
    while True:
        g = _glued(rng.sample(parts, len(parts)), rng)
        if _witness_far_from_the_first_blocks(g, hyperbolicity(g)):
            return g


def test_witness_among_three_attaining_blocks_small():
    rng = random.Random(31)
    diamond = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    graphs = [
        _glued_with_far_witness([part] * 3, rng) for part in (cycle_graph(4), diamond) for _ in range(3)
    ]
    for g in graphs:
        assert g.n <= 10
        assert hyperbolicity(g) == hyperbolicity_bruteforce(g)
    for _ in range(3):
        h = _shuffled(disjoint_union(rng.sample(graphs, 3))[0], rng)
        assert hyperbolicity(h) == hyperbolicity_bruteforce(h)


@pytest.mark.parametrize("n", [40, 50, 60])
def test_witness_among_three_attaining_blocks_beyond_brute_force_size(n):
    rng = random.Random(300 + n)
    part = _cycle_with_chords(10, rng)
    graphs = [
        _glued_with_far_witness([part] * copies + [path_graph(2)] * (n - 9 * copies - 1), rng)
        for copies in (3, 4)
    ]
    graphs.append(_shuffled(disjoint_union(graphs)[0], rng))
    for g in graphs:
        result = hyperbolicity(g)
        assert (result.twice_delta, result.witness, result.per_component) == _numpy_scan(g)


def _bridged_chain(parts, rng):
    """The graphs of ``parts`` in a row, a bridge from a random vertex of each
    to a random vertex of the next. Randomly relabelled."""
    n, edges = 0, []
    for h in parts:
        if n:
            edges.append((rng.randrange(n - prev, n), n + rng.randrange(h.n)))
        edges += [(n + u, n + v) for u, v in h.edges]
        n, prev = n + h.n, h.n
    return _shuffled(build_graph(n, edges), rng)


def test_many_tied_blocks_match_brute_force():
    rng = random.Random(41)
    diamond = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    graphs = []
    for _ in range(12):
        # cacti of 4-, 5- and 6-cycles sharing cut vertices, n <= 12
        parts, n = [], 1
        while True:
            k = rng.choice((4, 5, 6))
            if n + k - 1 > 12:
                break
            parts.append(cycle_graph(k))
            n += k - 1
        graphs.append(_glued(parts, rng))
        # 2-connected blocks in a row, joined by bridges, n <= 12
        graphs.append(_bridged_chain(rng.choices((cycle_graph(4), diamond), k=3), rng))
        graphs.append(_bridged_chain(rng.choices((cycle_graph(4), diamond, cycle_graph(5)), k=2), rng))
    for g in graphs:
        assert g.n <= 12
        for h in (g, _shuffled(g, rng)):
            assert hyperbolicity(h) == hyperbolicity_bruteforce(h)


def test_cactus_of_2000_four_cycles():
    # block i is the 4-cycle 3i, 3i+1, 3i+2, 3i+3; vertex 3i+3 is a cut vertex
    blocks = [(3 * i, 3 * i + 1, 3 * i + 2, 3 * i + 3) for i in range(2000)]
    g = build_graph(6001, [(b[j], b[j - 1]) for b in blocks for j in range(4)])
    result = hyperbolicity(g)
    assert result.twice_delta == 2
    assert result.witness == (0, 1, 2, 3)
    assert result.per_component == ((0, 2),)


@pytest.mark.parametrize("n", range(12, 61, 8))
def test_eccentricities_on_chorded_block_graphs_and_cycles(n, check_eccentricities):
    rng = random.Random(1800 + n)
    graphs = [_block_graph_with_chords(n, chords, rng, n) for chords in (1, 2, 3)]
    graphs += [_cycle_with_chords(n, rng) for _ in range(2)]
    part = _cycle_with_chords(10, rng)
    graphs.append(_glued([part] * 3 + [path_graph(2)] * (n - 28), rng))
    graphs.append(_shuffled(disjoint_union(graphs[:3])[0], rng))
    for g in graphs:
        check_eccentricities(g)


def test_eccentricities_on_tied_block_cacti(check_eccentricities):
    rng = random.Random(1841)
    diamond = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    for _ in range(40):
        parts = [cycle_graph(rng.choice((4, 5, 6))) for _ in range(rng.randint(1, 6))]
        check_eccentricities(_glued(parts, rng))
        check_eccentricities(_bridged_chain(rng.choices((cycle_graph(4), diamond, cycle_graph(5)), k=4), rng))
    blocks = [(3 * i, 3 * i + 1, 3 * i + 2, 3 * i + 3) for i in range(100)]
    check_eccentricities(build_graph(301, [(b[j], b[j - 1]) for b in blocks for j in range(4)]))


def _atlas_graphs():
    """Every graph on at most 7 vertices, one per isomorphism class."""
    nx = pytest.importorskip("networkx")
    return [build_graph(h.number_of_nodes(), h.edges()) for h in nx.graph_atlas_g()]


def _check_near_distances(g):
    """On each block of ``g`` that is not complete: bit rows exactly when the
    diameter is 2, and then the breadth-first rows and dead ends; the number
    of such blocks of diameter 2."""
    structure, found = block_cut_decomposition(g), 0
    for b in structure.incomplete:
        nbrs = _block_adjacency(g, structure.blocks[b])
        dist, ends = _block_distances(nbrs)
        bits = _diameter_two(nbrs)
        assert (bits is not None) == (max(map(max, dist)) == 2)
        if bits is not None:
            assert bits == [sum(1 << a for a in range(len(row)) if row[a] < 2) for row in dist]
            near_dist, near_ends = _near_distances(nbrs, bits)
            assert near_dist == dist
            assert list(map(sorted, near_ends)) == list(map(sorted, ends))
            found += 1
    return found


def test_near_distances_equal_the_breadth_first_rows_on_every_graph_upto7():
    assert sum(map(_check_near_distances, _atlas_graphs())) > 500


def _dense_random_graph(rng, n):
    p = rng.uniform(0.4, 0.95)
    return build_graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])


def test_near_distances_equal_the_breadth_first_rows_on_dense_random_graphs():
    rng = random.Random(2800)
    graphs = [_dense_random_graph(rng, rng.randint(4, 30)) for _ in range(2000)]
    assert sum(map(_check_near_distances, graphs)) > 1500


def _by_pair_search(g, monkeypatch):
    """``hyperbolicity(g)`` with every block on breadth-first rows and the
    pair search, as before blocks of diameter 2 took their own path."""
    module = sys.modules["qblock.hyperbolicity"]  # the package binds the function to the name
    with monkeypatch.context() as patch:
        patch.setattr(module, "_diameter_two", lambda nbrs: None)
        return hyperbolicity(g)


def _threshold_graph(n):
    """Each odd vertex i joined to every j < i: a block-cograph whose one
    block that is not complete (from n = 6) has diameter 2 and no induced C4."""
    return build_graph(n, [(j, i) for i in range(1, n, 2) for j in range(i)])


def _join(g, h):
    return complement(disjoint_union([complement(g), complement(h)])[0])


def _hyp_mid_graphs(seeds):
    """The graphs of the benchmark's hyp-mid workload at ``seeds``."""
    bench = str(Path(__file__).resolve().parents[1] / "perfbench")
    sys.path.insert(0, bench)
    try:
        from corpus import build

        return [g for seed in seeds for g in build("hyp-mid", seed).graphs]
    finally:
        sys.path.remove(bench)


def test_diameter_two_maxima_equal_the_pair_search_on_the_hyp_mid_graphs(monkeypatch):
    for g0 in _hyp_mid_graphs(range(1, 11)):
        g = build_graph(g0.n, g0.edges)
        assert hyperbolicity(g) == _by_pair_search(g, monkeypatch)


def test_diameter_two_maxima_equal_the_pair_search_on_random_block_cographs(monkeypatch):
    for seed in range(3000):
        g = random_block_cograph(4 + seed % 37, seed)
        assert hyperbolicity(g) == _by_pair_search(g, monkeypatch)


@pytest.mark.parametrize("n", [*range(6, 41), 60, 100, 200])
def test_diameter_two_maxima_equal_the_pair_search_on_threshold_graphs(n, monkeypatch):
    g = _threshold_graph(n)
    result = hyperbolicity(g)
    assert result == _by_pair_search(g, monkeypatch)
    assert result.twice_delta == 1
    assert GraphAnalysis(g).hyperbolicity == result


def test_diameter_two_maxima_equal_the_pair_search_on_joins_of_random_graphs(monkeypatch):
    rng = random.Random(2900)
    for _ in range(400):
        parts = []
        for _ in range(rng.choice((2, 2, 3))):
            n, p = rng.randint(1, 10), rng.choice((0.0, 0.2, 0.5, 0.9))
            parts.append(build_graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p]))
        g = _shuffled(_join(*parts) if len(parts) == 2 else _join(_join(*parts[:2]), parts[2]), rng)
        result = hyperbolicity(g)
        assert result == _by_pair_search(g, monkeypatch)
        assert GraphAnalysis(g).hyperbolicity == result
        if g.n <= 9:
            assert result == hyperbolicity_bruteforce(g)


def _diameter_two_blocks(g):
    """The vertices and bit rows of each block of ``g`` of diameter 2."""
    structure = block_cut_decomposition(g)
    for b in structure.incomplete:
        blk = structure.blocks[b]
        bits = _diameter_two(_block_adjacency(g, blk))
        if bits is not None:
            yield blk, bits


def test_each_side_of_the_c4_search_budget_agrees_with_the_whole_search():
    # the budgeted search, where it decides, and the cotree's C4 flag, where
    # the block is a block-cograph, equal the search run to its end
    rng = random.Random(2950)
    graphs = [random_block_cograph(4 + seed % 27, seed) for seed in range(300)]
    graphs += [_dense_random_graph(rng, rng.randint(4, 12)) for _ in range(200)]
    graphs += [_threshold_graph(n) for n in (40, 80)]
    reached = set()
    for g in graphs:
        for blk, bits in _diameter_two_blocks(g):
            k = len(bits)
            whole = _c4_search(bits, k**3)
            budgeted = _c4_search(bits, _C4_TRIES * k)
            flags = cotree_flags(g, (blk,))
            assert budgeted in (None, whole)
            if flags is not None:
                assert flags[0] == whole
            reached.add((budgeted is None, flags is None))
    assert reached == {(False, False), (False, True), (True, False)}


def _split_graph(k, rng, c4=False):
    """A clique on 0..k-1 and k more vertices, each joined to 0, 1 and three
    other clique vertices: one block, of diameter 2 and with no induced C4
    (split graphs have none). With ``c4``, also x, y joined to 0 and k - 1,
    and p, q each joined to 0, x and y: the 4-cycle x p y q, on the last
    labels, past where the search's budget runs out."""
    edges = list(itertools.combinations(range(k), 2))
    for v in range(k, 2 * k):
        edges += [(u, v) for u in (0, 1, *rng.sample(range(2, k), 3))]
    if not c4:
        return build_graph(2 * k, edges)
    x, y, p, q = range(2 * k, 2 * k + 4)
    edges += [(0, x), (k - 1, x), (0, y), (k - 1, y)]
    edges += [(u, v) for v in (p, q) for u in (0, x, y)]
    return build_graph(2 * k + 4, edges)


def test_a_large_split_block_past_the_search_budget_finishes_the_search(monkeypatch):
    # too many non-adjacent pairs for the budget, and not a block-cograph:
    # the search runs to its end, and finds the 4-cycle put last
    rng = random.Random(2960)
    for k, c4 in itertools.product((30, 40), (False, True)):
        g = _split_graph(k, rng, c4)
        ((blk, bits),) = _diameter_two_blocks(g)
        assert _c4_search(bits, _C4_TRIES * len(bits)) is None
        assert cotree_flags(g, (blk,)) is None
        result = hyperbolicity(g)
        assert result == _by_pair_search(g, monkeypatch)
        assert result.twice_delta == 1 + c4


def test_a_block_of_diameter_2_is_searched_no_further(monkeypatch):
    module = sys.modules["qblock.hyperbolicity"]

    def refuse(*args):
        raise AssertionError("pair search on a block of diameter 2")

    monkeypatch.setattr(module, "_block_maximum", refuse)
    monkeypatch.setattr(module, "_block_distances", refuse)
    for g in (_threshold_graph(30), random_block_cograph(400, 2), cycle_graph(4), complement(cycle_graph(7))):
        hyperbolicity(g)
