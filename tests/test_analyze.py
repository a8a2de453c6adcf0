"""Reports: the iterative tree writer against a recursive reference, and
eccentricities from the block-cut tree against all-pairs distances."""

import json
import random
import sys
from pathlib import Path

import pytest

from qblock.analyze import GraphAnalysis, analyze_graph, tree_to_json
from qblock.cli import _split_inputs
from qblock.decomposition import select_anchor
from qblock.families import cycle_graph, path_graph, star_graph
from qblock.formats import decode_graph6, encode_graph6, parse_edge_list
from qblock.graphs import build_graph, disjoint_union, distance_profile, relabel
from qblock.hyperbolicity import four_point_scan, hyperbolicity
from qblock.oracle import random_block_cograph, random_block_graph

GOLDEN = Path(__file__).resolve().parent / "golden"


def recursive_tree_to_json(node) -> dict:
    """The recursive writer ``tree_to_json`` replaced."""
    out: dict = {"kind": node.kind, "size": node.size, "code": node.code}
    if node.kind == "top_block":
        out["z"] = node.z
        out["classes"] = [
            {"multiplicity": a, "node": recursive_tree_to_json(c)} for c, a in node.classes
        ]
    elif node.kind == "leaf":
        out["tag"] = node.tag
        out["graph6"] = encode_graph6(node.graph)
    elif node.children:
        out["children"] = [recursive_tree_to_json(c) for c in node.children]
    return out


def kids(node) -> tuple:
    return tuple(c for c, _ in node.classes) if node.kind == "top_block" else node.children


def depth(node) -> int:
    """Tree levels below and including ``node``."""
    level, deepest = [node], 0
    while level:
        deepest += 1
        level = [c for n in level for c in kids(n)]
    return deepest


def golden_graphs():
    for name, fmt in (("inputs.g6", "graph6"), ("pairs.g6", "graph6"), ("edges.txt", "edgelist")):
        for _, payload in _split_inputs((GOLDEN / name).read_text(encoding="utf-8"), fmt):
            try:
                yield decode_graph6(payload) if fmt == "graph6" else parse_edge_list(payload)
            except ValueError:  # the malformed inputs of the golden cases
                continue


def assert_same_tree_json(g) -> int:
    """Compare both writers on every tree of ``g``; the number of trees."""
    trees = GraphAnalysis(g).trees or ()
    for tree in trees:
        # json.dumps without sort_keys: key order must match too
        assert json.dumps(tree_to_json(tree)) == json.dumps(recursive_tree_to_json(tree))
    return len(trees)


def test_tree_json_matches_the_recursive_writer_on_golden_inputs():
    graphs = list(golden_graphs())
    assert len(graphs) > 100
    assert sum(assert_same_tree_json(g) for g in graphs) > 50


def test_tree_json_matches_the_recursive_writer_below_400_levels():
    graphs = [path_graph(n) for n in (1, 2, 3, 4, 101, 700)] + [star_graph(30)]
    graphs += [random_block_graph(n, seed) for seed, n in enumerate((20, 60, 150, 400))]
    graphs += [random_block_cograph(12, 700 + seed) for seed in range(20)]
    deepest = 0
    for g in graphs:
        assert_same_tree_json(g)
        deepest = max([deepest] + [depth(t) for t in GraphAnalysis(g).trees or ()])
    assert 300 < deepest < 400


def depth_of_json(tree: dict) -> int:
    """Levels along the first child of each node (all of them on a path)."""
    levels = 0
    while tree is not None:
        levels += 1
        nodes = tree.get("children") or [c["node"] for c in tree.get("classes", ())]
        tree = nodes[0] if nodes else None
    return levels


def test_report_of_a_path_deeper_than_the_recursion_limit():
    report = analyze_graph(path_graph(1000))
    assert report.graph_class == "block-graph" and report.aut_order == 2
    assert depth_of_json(report.decomposition) > 400


def _gnp(n, p, rng):
    return build_graph(n, [(u, v) for u in range(n) for v in range(u) if rng.random() < p])


def _shuffled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return relabel(g, perm)


def test_eccentricities_on_every_graph_upto6(all_graphs_upto6, check_eccentricities):
    for g in all_graphs_upto6:
        check_eccentricities(g)


def test_eccentricities_on_random_block_cographs(random_block_cographs_300, check_eccentricities):
    for g in random_block_cographs_300:
        check_eccentricities(g)


def test_eccentricities_and_report_on_random_graphs_upto40(check_eccentricities):
    rng = random.Random(18)
    graphs = [_gnp(rng.randint(0, 40), rng.choice((0.02, 0.05, 0.1, 0.2, 0.5)), rng) for _ in range(498)]
    graphs += [build_graph(0, []), disjoint_union([cycle_graph(5), path_graph(1), star_graph(3)])[0]]
    disconnected = 0
    for g in graphs:
        a = check_eccentricities(g)
        profile, report = distance_profile(g), analyze_graph(g)
        disconnected += g.n > 0 and not profile.connected
        assert report.connected == profile.connected
        assert report.centre == (list(profile.centre) if profile.connected else None)
        assert report.hyperbolicity == a.hyperbolicity.twice_delta / 2 == hyperbolicity(g).twice_delta / 2
        assert [(c["vertices"], c["radius"], c["diameter"], c["centre"]) for c in report.per_component] == [
            (list(c.vertices), c.radius, c.diameter, list(c.centre)) for c in profile.components
        ]
    assert disconnected > 100


def test_eccentricities_match_networkx_on_connected_graphs_outside_the_class():
    nx = pytest.importorskip("networkx")
    rng = random.Random(19)
    for n in range(20, 301, 20):
        ring = list(range(n))
        rng.shuffle(ring)
        cycle = [(ring[i - 1], ring[i]) for i in range(n)]
        tree = [(v, rng.randrange(v)) for v in range(1, n)]
        for edges in (cycle, tree, [*cycle, *tree]):
            chords = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(1, n // 5))]
            g = build_graph(n, [*edges, *chords])
            a = GraphAnalysis(g)
            if a.is_block_graph:
                continue
            h = nx.Graph(list(g.edges))
            assert nx.is_connected(h) and len(a.components) == 1
            assert dict(enumerate(a.eccentricity)) == nx.eccentricity(h)
            assert a.components[0].centre == tuple(sorted(nx.center(h)))
            # the centre of a connected graph lies inside one block (Harary 1969)
            assert any(set(a.components[0].centre) <= set(blk) for blk in a.structure.blocks)


def test_anchor_of_connected_block_graphs_is_select_anchor(random_block_graphs_500):
    rng = random.Random(20)
    graphs = random_block_graphs_500 + [_shuffled(random_block_graph(n, 2000 + n), rng) for n in range(10, 301, 10)]
    graphs += [path_graph(n) for n in (1, 2, 7, 8)] + [star_graph(9)]
    for g in graphs:
        anchored = select_anchor(g)
        assert analyze_graph(g).anchor == {"kind": anchored.kind, "vertices": list(anchored.anchor)}


def test_analyze_builds_no_all_pairs_distances(monkeypatch):
    def refuse(*args):
        raise AssertionError("analyze reads no all-pairs distances")

    for name, module in list(sys.modules.items()):
        if name == "qblock" or name.startswith("qblock."):
            for attr in ("distance_profile", "bfs_distances"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refuse)
    rng = random.Random(21)
    for g in [path_graph(300), star_graph(300), random_block_graph(300, 5), random_block_cograph(12, 5)]:
        analyze_graph(g)
    for _ in range(30):
        analyze_graph(_gnp(rng.randint(0, 30), 0.15, rng))


def test_eccentricity_keeps_the_scan_as_the_hyperbolicity():
    g = build_graph(7, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 5), (5, 6), (6, 4)])
    a = GraphAnalysis(g)
    assert a.eccentricity == [3, 4, 3, 2, 3, 4, 4]
    assert a.__dict__["hyperbolicity"] == hyperbolicity(g)


def test_hyperbolicity_then_components_scans_once(monkeypatch):
    import qblock.analyze as analyze

    calls = []

    def counting(*args):
        calls.append(args[0])
        return four_point_scan(*args)

    monkeypatch.setattr(analyze, "four_point_scan", counting)
    g = build_graph(7, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 5), (5, 6), (6, 4)])
    a = GraphAnalysis(g)
    assert a.hyperbolicity == hyperbolicity(g)
    assert [c.radius for c in a.components] == [2]
    assert a.eccentricity == [3, 4, 3, 2, 3, 4, 4]
    assert calls == [g]
