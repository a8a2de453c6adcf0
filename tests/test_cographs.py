"""Block-cograph recognition, cotrees, codes and group expressions."""

import random
import sys

import pytest

from qblock.blocks import is_block_graph
from qblock.cographs import (
    canonical_code_cograph,
    cotree_decompose,
    expr_block_cograph,
    is_block_cograph,
)
from qblock.decomposition import canonical_code
from qblock.families import (
    bull_graph,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)
from qblock.graphs import Graph, build_graph, complement, disjoint_union, is_connected, relabel
from qblock.groups import (
    UnsupportedClassError,
    classical_order,
    normalize_expr,
    sym,
    wreath,
)
from qblock.oracle import (
    enumerate_automorphisms,
    is_isomorphic_bruteforce,
    random_block_cograph,
    random_block_graph,
    schmidt_bruteforce,
)


def test_c4_shape():
    node = cotree_decompose(cycle_graph(4))
    assert node is not None
    # C4 is co-disconnected: complement then union of two K2 cotrees
    assert node.kind == "complement"
    assert node.children[0].kind == "union"
    assert len(node.children[0].children) == 2


def test_bull_is_a_leaf():
    node = cotree_decompose(bull_graph())
    assert node.kind == "leaf" and node.tag == "block-graph"


def test_one_vertex_leaf_constants_are_what_leaf_writes():
    from qblock import cographs

    records: dict = {}
    assert cographs._leaf(Graph(1, frozenset()), None, records) == cographs._K1
    assert records == cographs._K1_RECORDS
    assert list(records) == list(cographs._K1_RECORDS)  # children first


def test_c5_not_in_class():
    assert cotree_decompose(cycle_graph(5)) is None
    assert not is_block_cograph(cycle_graph(5))
    # complement of C5 is again a 5-cycle
    assert is_isomorphic_bruteforce(cycle_graph(5), complement(cycle_graph(5)))


def test_block_graphs_are_block_cographs():
    for i in range(30):
        g = random_block_graph(1 + i % 6, 2500 + i)
        assert is_block_cograph(g)


def test_expr_c4():
    e = expr_block_cograph(cycle_graph(4))
    assert e == normalize_expr(wreath(sym(2), 2))
    assert classical_order(e) == 8


def test_expr_3k2():
    g, _ = disjoint_union([complete_graph(2)] * 3)
    e = expr_block_cograph(g)
    assert e == normalize_expr(wreath(sym(2), 3))
    assert classical_order(e) == 48


def test_expr_bull():
    assert expr_block_cograph(bull_graph()) == sym(2)


def test_expr_complement_invariance():
    graphs = [
        cycle_graph(4),
        bull_graph(),
        star_graph(4),
        path_graph(4),
        disjoint_union([complete_graph(3), complete_graph(2)])[0],
    ] + [random_block_cograph(8, 3000 + i) for i in range(40)]
    for g in graphs:
        assert expr_block_cograph(g) == expr_block_cograph(complement(g))


def test_expr_not_in_class_is_error():
    with pytest.raises(UnsupportedClassError):
        expr_block_cograph(cycle_graph(5))
    with pytest.raises(UnsupportedClassError):
        canonical_code_cograph(cycle_graph(5))


def test_code_relabel_invariance():
    rng = random.Random(41)
    for i in range(40):
        g = random_block_cograph(8, 4000 + i)
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert canonical_code_cograph(g) == canonical_code_cograph(relabel(g, perm))


def test_bull_and_complement_share_code():
    bull = bull_graph()
    assert canonical_code_cograph(bull) == canonical_code_cograph(complement(bull))


def test_codes_partition_exhaustive_corpus_into_iso_classes():
    # all 1087 labeled block-cographs on 1..5 vertices fall into 51 classes,
    # sound and complete against the brute-force oracle
    from collections import defaultdict

    from qblock.analyze import GraphAnalysis
    from qblock.decomposition import canonical_code
    from qblock.groups import block_graph_expr
    from qblock.oracle import enumerate_labeled_graphs

    groups = defaultdict(list)
    by_analysis = defaultdict(list)  # the key qblock iso compares
    for n in range(1, 6):
        for g in enumerate_labeled_graphs(n):
            if is_block_cograph(g):
                groups[canonical_code_cograph(g)].append(g)
                a = GraphAnalysis(g)
                by_analysis[a.graph_class, a.code].append(g)
                # the analysis reads both classes off one trees field
                if a.is_block_graph:
                    assert (a.code, a.expr) == (canonical_code(g), block_graph_expr(g))
                else:
                    assert (a.code, a.expr) == (canonical_code_cograph(g), expr_block_cograph(g))
    assert sum(len(m) for m in groups.values()) == 1087
    assert len(groups) == 51
    assert {frozenset(map(id, m)) for m in by_analysis.values()} == {
        frozenset(map(id, m)) for m in groups.values()
    }
    for code, members in groups.items():
        rep = members[0]
        for other in members[1:]:
            assert is_isomorphic_bruteforce(rep, other), code
    by_invariant = defaultdict(list)
    for members in groups.values():
        g = members[0]
        key = (g.n, g.m, tuple(sorted(g.degree(v) for v in range(g.n))))
        by_invariant[key].append(g)
    for bucket in by_invariant.values():
        for i in range(len(bucket)):
            for j in range(i + 1, len(bucket)):
                assert not is_isomorphic_bruteforce(bucket[i], bucket[j])


def test_code_agrees_with_bruteforce():
    for i in range(80):
        g = random_block_cograph(7, 5000 + i)
        h = random_block_cograph(7, 5500 + i)
        same = canonical_code_cograph(g) == canonical_code_cograph(h)
        assert same == is_isomorphic_bruteforce(g, h)


def test_order_and_schmidt_agree_with_oracle():
    from qblock.groups import is_commutative_quantum

    for i in range(50):
        g = random_block_cograph(8, 6000 + i)
        e = expr_block_cograph(g)
        assert classical_order(e) == enumerate_automorphisms(g).order
        assert (not is_commutative_quantum(e)) == schmidt_bruteforce(g)


def test_block_graph_route_and_cograph_route_agree():
    # a block graph is also a block-cograph; both expression routes must
    # describe the same group
    from qblock.groups import block_graph_expr, is_commutative_quantum

    for i in range(60):
        g = random_block_graph(1 + i % 6, 6800 + i)
        via_blocks = block_graph_expr(g)
        via_cotree = expr_block_cograph(g)
        assert classical_order(via_blocks) == classical_order(via_cotree)
        assert is_commutative_quantum(via_blocks) == is_commutative_quantum(via_cotree)


def test_cotree_of_k2_descends_through_complement():
    # K2 is co-disconnected, so it is not a base leaf
    node = cotree_decompose(complete_graph(2))
    assert node.kind == "complement"
    assert node.children[0].kind == "union"
    leaves = node.children[0].children
    assert all(leaf.kind == "leaf" and leaf.size == 1 for leaf in leaves)


def test_union_children_are_not_unions():
    g, _ = disjoint_union([complete_graph(2), complete_graph(2), complete_graph(1)])
    node = cotree_decompose(g)
    assert node.kind == "union"
    assert len(node.children) == 3
    assert all(c.kind != "union" for c in node.children)


def test_leaf_invariants_hold_everywhere():
    from qblock.blocks import is_block_graph
    from qblock.graphs import is_connected

    def walk(node):
        if node.kind == "leaf":
            g = node.graph
            assert is_connected(g) and is_connected(complement(g))
            assert is_block_graph(g) or is_block_graph(complement(g))
        if node.kind == "complement":
            assert node.children[0].kind == "union"
        if node.kind == "union":
            assert len(node.children) >= 2
            assert all(c.kind != "union" for c in node.children)
        for c in node.children:
            walk(c)

    for i in range(40):
        node = cotree_decompose(random_block_cograph(9, 6500 + i))
        assert node is not None
        walk(node)



def test_analysis_builds_the_block_cut_structure_of_a_leaf_once(monkeypatch):
    import qblock.analyze as analyze
    import qblock.cographs as cographs
    from qblock.blocks import block_cut_decomposition

    # connected leaves with connected complements: unsupported, co-block graph
    cases = [(g, cotree_decompose(g)) for g in (cycle_graph(5), complement(path_graph(5)))]
    built = []

    def counting(g):
        built.append(g)
        return block_cut_decomposition(g)

    monkeypatch.setattr(analyze, "block_cut_decomposition", counting)
    monkeypatch.setattr(cographs, "block_cut_decomposition", counting)
    for g, cotree in cases:
        built.clear()
        a = analyze.GraphAnalysis(g)
        assert a.graph_class == ("unsupported" if cotree is None else "block-cograph")
        assert a.cotree == cotree
        assert built.count(g) == 1


def _self_complementary_block_graphs(graphs):
    """Codes of the connected block graphs whose complement is one too."""
    codes = set()
    for g in graphs:
        co = complement(g)
        if is_connected(co) and is_block_graph(co):
            assert canonical_code(g) == canonical_code(co)
            codes.add(canonical_code(g))
    return codes


def test_only_k1_p4_and_the_bull_are_block_graphs_both_ways(connected_block_graphs_upto6):
    # the theorem behind deciding a cotree leaf from the graph's side alone
    expected = {canonical_code(g) for g in (complete_graph(1), path_graph(4), bull_graph())}
    assert _self_complementary_block_graphs(connected_block_graphs_upto6) == expected


def test_on_seven_vertices_no_connected_block_graph_has_one_as_complement():
    nx = pytest.importorskip("networkx")
    graphs = [build_graph(7, h.edges()) for h in nx.graph_atlas_g() if h.number_of_nodes() == 7]
    assert len(graphs) == 1044
    candidates = [g for g in graphs if is_connected(g) and is_block_graph(g)]
    assert candidates
    assert _self_complementary_block_graphs(candidates) == set()


def test_a_block_graph_leaf_builds_one_block_cut_structure(monkeypatch):
    import qblock.cographs as cographs
    from qblock.blocks import block_cut_decomposition

    built = []

    def counting(g):
        built.append(g)
        return block_cut_decomposition(g)

    monkeypatch.setattr(cographs, "block_cut_decomposition", counting)
    node = cographs.cotree_decompose(path_graph(5))
    assert (node.kind, node.tag) == ("leaf", "block-graph")
    assert built == [path_graph(5)]


@pytest.mark.parametrize("k", [5, 300])
def test_a_leaf_on_the_complement_side_builds_one_complement(k, monkeypatch):
    import qblock.cographs as cographs

    built = []

    def counting(g):
        built.append(g.n)
        return complement(g)

    monkeypatch.setattr(cographs, "complement", counting)
    # the join of two copies of Pk: two leaves on the complement side, each
    # the complement of Pk, which is no block graph for k >= 5
    union, _ = disjoint_union([complement(path_graph(k))] * 2)
    node = cographs.cotree_decompose(complement(union))
    (top,) = node.children
    assert [leaf.tag for leaf in top.children] == ["co-block-graph"] * 2
    assert built == [k, k]


def _reference_cotree(g, structure=None):
    """The recursion ``cotree_decompose`` replaced, which builds a complement
    graph and an induced copy at every level and recurses into them."""
    from qblock.blocks import block_cut_decomposition
    from qblock.cographs import CotreeNode
    from qblock.decomposition import decompose_components
    from qblock.graphs import connected_components, induced_subgraph

    if g.n == 0:
        return None
    comps = connected_components(g)
    if len(comps) > 1:
        children = []
        for cell in comps:
            child = _reference_cotree(induced_subgraph(g, cell)[0])
            if child is None:
                return None
            children.append(child)
        children.sort(key=lambda nd: nd.code)
        code = "u{" + ",".join(nd.code for nd in children) + "}"
        return CotreeNode("union", g.n, code, tuple(children))
    co = complement(g)
    if not is_connected(co):
        child = _reference_cotree(co)
        if child is None:
            return None
        return CotreeNode("complement", g.n, f"c({child.code})", (child,))
    if structure is None:
        structure = block_cut_decomposition(g)
    if structure.all_blocks_complete:
        prefix, tag, blocks = "b:", "block-graph", structure
    else:
        prefix, tag, blocks = "cb:", "co-block-graph", block_cut_decomposition(co)
        if not blocks.all_blocks_complete:
            return None
    side = decompose_components(blocks)[0]
    return CotreeNode("leaf", g.n, prefix + side.code, graph=g, tag=tag)


def _random_graph(rng, max_n):
    n = rng.randint(0, max_n)
    p = rng.random()
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def test_cotree_equals_the_reference_on_every_graph_upto6(all_graphs_upto6):
    # codes, tags and leaf graphs: CotreeNode equality compares them all
    for g in all_graphs_upto6:
        assert cotree_decompose(g) == _reference_cotree(g), g


def test_cotree_equals_the_reference_on_random_graphs():
    from qblock.blocks import block_cut_decomposition

    rng = random.Random(14)
    graphs = [random_block_cograph(9, 50000 + i) for i in range(3000)]
    graphs += [_random_graph(rng, 14) for _ in range(2000)]
    for i, g in enumerate(graphs):
        # the analysis hands its block-cut structure in
        structure = block_cut_decomposition(g) if i % 2 else None
        assert cotree_decompose(g, structure) == _reference_cotree(g, structure), g


def _threshold_graph(n):
    """Each odd vertex i joined to every j < i: for even n, n - 1 nested
    complement nodes over one-vertex leaves."""
    return build_graph(n, [(j, i) for i in range(1, n, 2) for j in range(i)])


def _threshold_code(n):
    return "c(u{b:Q{1;}," * (n - 2) + "c(u{b:Q{1;},b:Q{1;}})" + "})" * (n - 2)


def test_no_graph_is_copied_above_the_leaves(monkeypatch):
    import qblock.cographs as cographs

    calls = {"complement": 0, "induced_subgraph": 0}

    def counting(name):
        fn = getattr(cographs, name)

        def counted(*args):
            calls[name] += 1
            return fn(*args)

        return counted

    for name in calls:
        monkeypatch.setattr(cographs, name, counting(name))
    assert cographs.cotree_decompose(_threshold_graph(40)).code == _threshold_code(40)
    assert calls == {"complement": 0, "induced_subgraph": 0}
    for i in range(300):
        for name in calls:
            calls[name] = 0
        stack = [cographs.cotree_decompose(random_block_cograph(9, 50000 + i))]
        leaves = 0  # one-vertex leaves are one shared node, built once
        while stack:
            node = stack.pop()
            leaves += node.kind == "leaf" and node.size > 1
            stack.extend(node.children)
        assert calls["induced_subgraph"] <= leaves
        assert calls["complement"] <= 2 * leaves


def test_the_600_vertex_threshold_graph_within_a_recursion_limit_of_200():
    g = _threshold_graph(600)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        node = cotree_decompose(g)
    finally:
        sys.setrecursionlimit(limit)
    assert node.code == _threshold_code(600)


def test_a_threshold_graph_with_600_vertices():
    from qblock.analyze import classify
    from qblock.groups import render_classical

    g = _threshold_graph(600)
    assert classify(g) == "block-cograph"
    assert canonical_code_cograph(g) == _threshold_code(600)
    assert render_classical(expr_block_cograph(g)) == "S2"
