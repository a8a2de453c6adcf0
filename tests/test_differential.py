"""Cross-checks against networkx on graphs beyond brute-force size (n = 20..80)."""

import random

import pytest

from qblock.blocks import block_cut_decomposition
from qblock.cographs import canonical_code_cograph
from qblock.decomposition import canonical_code, select_anchor
from qblock.graphs import build_graph, complement, distance_profile, relabel
from qblock.oracle import random_block_cograph, random_block_graph

nx = pytest.importorskip("networkx")
pytestmark = pytest.mark.filterwarnings("ignore:The hashes produced")

SIZES = range(20, 81, 4)


def _nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


def _shuffled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return relabel(g, perm)


def _with_pendant(g, v):
    return build_graph(g.n + 1, [*g.edges, (v, g.n)])


def _nx_isomorphic(g, h):
    """networkx's verdict. VF2 can stall on near-symmetric pairs and on dense
    graphs with many twins, so Weisfeiler-Lehman hashes settle most
    non-isomorphic pairs first, and VF2++ runs on the sparser of the graphs
    and their complements."""
    if 4 * g.m > g.n * (g.n - 1):
        g, h = complement(g), complement(h)
    a, b = _nx(g), _nx(h)
    if nx.weisfeiler_lehman_graph_hash(a, iterations=g.n) != nx.weisfeiler_lehman_graph_hash(b, iterations=h.n):
        return False
    return nx.vf2pp_is_isomorphic(a, b)


def _agree(code, g, h):
    assert (code(g) == code(h)) == _nx_isomorphic(g, h)


@pytest.mark.parametrize(
    "make, code",
    [(random_block_graph, canonical_code), (random_block_cograph, canonical_code_cograph)],
)
def test_code_equality_agrees_with_networkx(make, code):
    rng = random.Random(20)
    for n in SIZES:
        g = make(n, 7100 + n)
        _agree(code, g, _shuffled(g, rng))
        _agree(code, g, make(n, 7200 + n))


def test_pendant_placements_agree_with_networkx():
    # a pendant at u and one at w give isomorphic graphs iff u and w share an orbit
    rng = random.Random(22)
    same = 0
    for n in SIZES:
        g = random_block_graph(n, 7600 + n)
        for _ in range(6):
            u, w = rng.randrange(g.n), rng.randrange(g.n)
            a, b = _with_pendant(g, u), _shuffled(_with_pendant(g, w), rng)
            _agree(canonical_code, a, b)
            same += canonical_code(a) == canonical_code(b)
    assert same > 0


def test_anchor_is_the_distance_profile_centre():
    for n in SIZES:
        for seed in range(3):
            g = random_block_graph(n, 7300 + 10 * n + seed)
            assert select_anchor(g).anchor == tuple(sorted(distance_profile(g).centre))


def test_blocks_match_biconnected_components():
    rng = random.Random(21)
    for n in SIZES:
        graphs = [random_block_graph(n, 7400 + n), random_block_cograph(n, 7500 + n)]
        # sparse random graphs: many blocks, some not complete, some isolated vertices
        graphs.append(build_graph(n, [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 1.5 / n
        ]))
        for g in graphs:
            structure = block_cut_decomposition(g)
            h = _nx(g)
            theirs = {tuple(sorted(c)) for c in nx.biconnected_components(h)}
            isolated = {(v,) for v in nx.isolates(h)}
            assert set(structure.blocks) == theirs | isolated
            assert set(structure.cut_vertices) == set(nx.articulation_points(h)) | {v for v, in isolated}
            complete = all(h.subgraph(b).number_of_edges() == len(b) * (len(b) - 1) // 2 for b in theirs)
            assert structure.all_blocks_complete == complete
