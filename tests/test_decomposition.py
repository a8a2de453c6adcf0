"""Anchors, the splitting operation, decomposition trees, and canonical codes."""

import random

import pytest

from qblock.blocks import block_cut_decomposition
from qblock.decomposition import (
    AnchoredGraph,
    NotBlockGraphError,
    RootedGraph,
    anchored_graph,
    canonical_code,
    decompose,
    decompose_rooted,
    is_isomorphic,
    psi,
    rooted_components,
    select_anchor,
)
from qblock.families import (
    bull_graph,
    bowtie_graph,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)
from qblock.graphs import (
    GraphError,
    NotConnectedError,
    build_graph,
    disjoint_union,
    relabel,
)
from qblock.oracle import is_isomorphic_bruteforce, random_block_graph


def test_select_anchor_examples():
    bull = select_anchor(bull_graph())
    assert bull.anchor == (0, 1, 2) and bull.kind == "block"
    p5 = select_anchor(path_graph(5))
    assert p5.anchor == (2,) and p5.kind == "cut"
    k4 = select_anchor(complete_graph(4))
    assert k4.anchor == (0, 1, 2, 3) and k4.kind == "block"
    k1 = select_anchor(complete_graph(1))
    assert k1.anchor == (0,) and k1.kind == "block"


def test_select_anchor_errors():
    with pytest.raises(NotConnectedError):
        select_anchor(disjoint_union([complete_graph(2)] * 2)[0])
    with pytest.raises(NotBlockGraphError):
        select_anchor(cycle_graph(4))


def test_anchored_graph_validation():
    with pytest.raises(GraphError):
        anchored_graph(cycle_graph(4), (0, 1))  # neither block nor cut vertex
    with pytest.raises(GraphError):
        anchored_graph(path_graph(3), (0,))  # endpoint is not a cut vertex
    assert anchored_graph(path_graph(3), (1,)).kind == "cut"
    assert anchored_graph(cycle_graph(4), range(4)).kind == "block"


def test_rooted_graph_validation():
    with pytest.raises(GraphError):
        RootedGraph(path_graph(3), (0, 2))
    with pytest.raises(GraphError):
        RootedGraph(disjoint_union([complete_graph(2)] * 2)[0], (0,))
    rg = RootedGraph(disjoint_union([complete_graph(2)] * 2)[0], (2, 0))
    assert rg.roots == (0, 2)


def test_psi_at_cut_vertex_bowtie():
    split = psi(anchored_graph(bowtie_graph(), (2,)))
    assert split.graph.n == 6  # the cut vertex is duplicated
    comps = rooted_components(split)
    assert len(comps) == 2
    for comp in comps:
        assert comp.graph == complete_graph(3)


def test_psi_on_full_block_k4():
    split = psi(anchored_graph(complete_graph(4), range(4)))
    assert split.graph.n == 4 and split.graph.m == 0
    assert split.roots == (0, 1, 2, 3)


def test_psi_on_bull_centre():
    split = psi(anchored_graph(bull_graph(), (0, 1, 2)))
    comps = sorted(rooted_components(split), key=lambda c: c.graph.n)
    assert [c.graph.n for c in comps] == [1, 2, 2]
    assert all(c.graph.n == 1 or c.graph.m == 1 for c in comps)


def test_psi_vertex_count_bookkeeping():
    for i in range(60):
        g = random_block_graph(1 + i % 7, 7000 + i)
        ag = select_anchor(g)
        split = psi(ag)
        k = len(rooted_components(split))
        if ag.kind == "block":
            assert split.graph.n == g.n
        else:
            assert split.graph.n == g.n + k - 1


def test_decompose_rooted_examples():
    assert decompose_rooted(RootedGraph(complete_graph(3), (0,))).code == "B{•,•}"
    assert decompose_rooted(RootedGraph(path_graph(3), (0,))).code == "L(L(•))"
    hub = decompose_rooted(RootedGraph(star_graph(4), (0,)))
    assert hub.kind == "cut_root"
    assert hub.code == "C{L(•),L(•),L(•),L(•)}"
    assert decompose_rooted(RootedGraph(complete_graph(1), (0,))).code == "•"


def test_decompose_rooted_k_n_fixes_a_vertex():
    # K2's root has degree 1, so the pendant rule fires there instead
    assert decompose_rooted(RootedGraph(complete_graph(2), (0,))).kind == "degree_one_root"
    for n in range(3, 6):
        node = decompose_rooted(RootedGraph(complete_graph(n), (0,)))
        assert node.kind == "block_root"
        assert len(node.children) == n - 1
        assert all(c.kind == "leaf_k1" for c in node.children)


def test_decompose_examples():
    bull = decompose(bull_graph())
    assert bull.kind == "top_block" and bull.z == 1
    assert bull.code == "Q{1;L(•)^2}"
    assert [(c.code, a) for c, a in bull.classes] == [("L(•)", 2)]

    bowtie = decompose(bowtie_graph())
    assert bowtie.kind == "top_cut"
    assert bowtie.code == "A{B{•,•},B{•,•}}"

    k4 = decompose(complete_graph(4))
    assert k4.kind == "top_block" and k4.z == 4 and k4.classes == ()

    k1 = decompose(complete_graph(1))
    assert k1.kind == "top_block" and k1.z == 1 and k1.size == 1


def test_decompose_errors():
    with pytest.raises(NotConnectedError):
        decompose(disjoint_union([complete_graph(2)] * 2)[0])
    with pytest.raises(NotBlockGraphError):
        decompose(cycle_graph(5))


def test_node_sizes_cover_graph_and_shrink():
    def walk(node):
        for child in node.children:
            assert child.size < node.size
            walk(child)
        if node.kind == "cut_root":
            assert node.size == 1 + sum(c.size - 1 for c in node.children)
        elif node.kind == "block_root":
            assert node.size == 1 + sum(c.size for c in node.children)

    for i in range(40):
        g = random_block_graph(1 + i % 7, 8000 + i)
        node = decompose(g)
        assert node.size == g.n
        walk(node)


def test_top_block_z_counts_internal_centre_vertices():
    for i in range(60):
        g = random_block_graph(1 + i % 7, 8500 + i)
        ag = select_anchor(g)
        if ag.kind != "block":
            continue
        node = decompose(g)
        structure = block_cut_decomposition(g)
        idx = structure.blocks.index(ag.anchor)
        assert node.z == len(structure.internal_vertices[idx])


def test_canonical_code_relabel_invariance():
    rng = random.Random(31)
    for i in range(60):
        g = random_block_graph(1 + i % 6, 9000 + i)
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert canonical_code(g) == canonical_code(relabel(g, perm))


def test_codes_distinguish_anchor_types():
    assert canonical_code(bull_graph()).startswith("Q{")
    assert canonical_code(path_graph(5)).startswith("A{")
    assert canonical_code(bull_graph()) != canonical_code(path_graph(5))


def test_rooted_codes_from_examples():
    k3 = canonical_code(RootedGraph(complete_graph(3), (0,)))
    p3 = canonical_code(RootedGraph(path_graph(3), (0,)))
    assert k3 == "B{•,•}" and p3 == "L(L(•))"


def test_rooted_code_depends_on_the_root():
    p4 = path_graph(4)
    end = canonical_code(RootedGraph(p4, (0,)))
    inner = canonical_code(RootedGraph(p4, (1,)))
    assert end != inner


def test_disconnected_code_is_component_multiset():
    g, _ = disjoint_union([complete_graph(3), path_graph(2), complete_graph(3)])
    code = canonical_code(g)
    assert code == "U{Q{2;},Q{3;},Q{3;}}"


def test_is_isomorphic_examples():
    bull = bull_graph()
    assert is_isomorphic(bull, relabel(bull, [4, 2, 0, 3, 1]))
    assert not is_isomorphic(star_graph(3), path_graph(4))
    with pytest.raises(NotBlockGraphError):
        is_isomorphic(cycle_graph(4), cycle_graph(4))


def test_codes_partition_exhaustive_corpus_into_iso_classes(
    connected_block_graphs_upto6,
):
    # sound and complete against the brute-force oracle: 4793 labeled
    # connected block graphs on <= 6 vertices fall into 39 classes
    from collections import defaultdict

    groups = defaultdict(list)
    for g in connected_block_graphs_upto6:
        groups[canonical_code(g)].append(g)
    assert sum(len(m) for m in groups.values()) == 4793
    assert len(groups) == 39
    for code, members in groups.items():
        rep = members[0]
        for other in members[1:]:
            assert is_isomorphic_bruteforce(rep, other), code
    by_invariant = defaultdict(list)
    for code, members in groups.items():
        g = members[0]
        key = (g.n, g.m, tuple(sorted(g.degree(v) for v in range(g.n))))
        by_invariant[key].append(g)
    for bucket in by_invariant.values():
        for i in range(len(bucket)):
            for j in range(i + 1, len(bucket)):
                assert not is_isomorphic_bruteforce(bucket[i], bucket[j])


def test_is_isomorphic_matches_bruteforce():
    for i in range(120):
        g = random_block_graph(1 + i % 5, 40000 + i)
        h = random_block_graph(1 + i % 5, 41000 + i)
        assert is_isomorphic(g, h) == is_isomorphic_bruteforce(g, h)


def test_class_multisets_are_well_formed():
    def walk(node):
        codes = [c.code for c in node.children]
        assert codes == sorted(codes)
        if node.kind == "top_block":
            class_codes = [c.code for c, _ in node.classes]
            assert class_codes == sorted(class_codes)
            assert len(set(class_codes)) == len(class_codes)
            assert all(a >= 1 for _, a in node.classes)
            assert all(c.kind != "leaf_k1" for c, _ in node.classes)
        for child in node.children:
            walk(child)

    for i in range(40):
        walk(decompose(random_block_graph(1 + i % 7, 12000 + i)))


def test_degree_one_root_reduction_applies_first():
    # a pendant root on a K3: the degree-1 step must fire before anything else,
    # and the attachment vertex stops being a cut vertex once the root is gone
    g = build_graph(4, [(0, 1), (1, 2), (1, 3), (2, 3)])
    node = decompose_rooted(RootedGraph(g, (0,)))
    assert node.kind == "degree_one_root"
    assert node.children[0].kind == "block_root"
    assert node.code == "L(B{•,•})"


def test_long_paths_have_closed_form_codes():
    # deeper than the interpreter's recursion limit
    k = 1500
    x = "L(" * k + "•" + ")" * k
    y = "L(" * (k - 1) + "•" + ")" * (k - 1)
    for g, code in ((path_graph(3000), f"Q{{0;{y}^2}}"), (path_graph(3001), f"A{{{x},{x}}}")):
        assert canonical_code(g) == code
        assert decompose(g).code == code


def test_wide_star_has_closed_form_code():
    assert canonical_code(star_graph(10000)) == "A{" + ",".join(["L(•)"] * 10000) + "}"

