"""Report trees: the iterative writer against a recursive reference."""

import json
from pathlib import Path

from qblock.analyze import GraphAnalysis, analyze_graph, tree_to_json
from qblock.cli import _split_inputs
from qblock.families import path_graph, star_graph
from qblock.formats import decode_graph6, encode_graph6, parse_edge_list
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
