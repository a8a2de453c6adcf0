"""Anchors, the splitting operation, decomposition trees, and canonical codes."""

import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qblock.blocks import block_cut_decomposition
from qblock.decomposition import (
    AnchoredGraph,
    DecompositionNode,
    NotBlockGraphError,
    RootedGraph,
    LEAF_CODE,
    anchored_graph,
    canonical_code,
    component_codes,
    decompose,
    decompose_components,
    decompose_rooted,
    is_isomorphic,
    join_codes,
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
from qblock.formats import encode_graph6
from qblock.graphs import (
    GraphError,
    NotConnectedError,
    build_graph,
    connected_components,
    disjoint_union,
    distance_profile,
    induced_subgraph,
    relabel,
)
from qblock.oracle import is_isomorphic_bruteforce, random_block_graph


def union_code(nodes) -> str:
    """The code of a forest of decomposition nodes."""
    return join_codes(nd.code for nd in nodes)


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


def _reference_multiset(kind, bracket, kids, shared):
    kids = tuple(sorted(kids, key=lambda nd: nd.code))
    size = 1 + sum(c.size - shared for c in kids)
    return DecompositionNode(kind, size, bracket + "{" + ",".join(c.code for c in kids) + "}", kids)


@functools.cache  # the small corpora repeat rooted subgraphs many times over
def _reference_rooted(rg):
    """Node of a connected rooted block graph by the recursion that the
    block-cut tree walk replaced, on copies of the graph: a single vertex is
    a leaf, a degree-1 root is peeled, a cut-vertex root is split by
    ``psi``, and an internal root is deleted and the rest split by ``psi``
    at the remainder of its block."""
    g, r = rg.graph, rg.root
    if g.n == 1:
        return DecompositionNode("leaf_k1", 1, "•")
    structure = block_cut_decomposition(g)
    if r in structure.cut_vertices:
        return _reference_multiset("cut_root", "C", _reference_parts(anchored_graph(g, (r,))), 1)
    (block,) = [b for b in structure.blocks if r in b]
    rest, vmap = induced_subgraph(g, set(range(g.n)) - {r})
    others = tuple(vmap.index(v) for v in block if v != r)
    if len(others) == 1:
        child = _reference_rooted(RootedGraph(rest, others))
        return DecompositionNode("degree_one_root", child.size + 1, f"L({child.code})", (child,))
    return _reference_multiset("block_root", "B", _reference_parts(anchored_graph(rest, others)), 0)


@functools.cache
def _reference_parts(ag):
    return [_reference_rooted(p) for p in rooted_components(psi(ag))]


def _reference_anchored(ag):
    parts = _reference_parts(ag)
    if ag.kind == "cut":
        return _reference_multiset("top_cut", "A", parts, 1)
    z = sum(p.kind == "leaf_k1" for p in parts)
    codes = [p.code for p in parts if p.kind != "leaf_k1"]
    classes = tuple(
        (next(p for p in parts if p.code == c), codes.count(c)) for c in sorted(set(codes))
    )
    body = ",".join(f"{c.code}^{a}" for c, a in classes)
    size = z + sum(c.size * a for c, a in classes)
    return DecompositionNode("top_block", size, f"Q{{{z};{body}}}", z=z, classes=classes)


def _reference_decomposition(g):
    """Per component, ordered by least vertex: the recursion anchored at the
    centre of the component's distance profile."""
    out = []
    for cell in connected_components(g):
        sub, _ = induced_subgraph(g, cell)
        out.append(_reference_anchored(anchored_graph(sub, distance_profile(sub).centre)))
    return tuple(out)


@pytest.fixture
def reference_memo():
    """Empties the reference's memo tables (some 80 MB) after the test."""
    yield
    _reference_rooted.cache_clear()
    _reference_parts.cache_clear()


def _anchors(g):
    structure = block_cut_decomposition(g)
    return [(v,) for v in structure.cut_vertices] + list(structure.blocks)


def test_tree_walk_equals_the_reference_on_every_block_graph_upto6(
    connected_block_graphs_upto6, reference_memo
):
    # DecompositionNode equality compares kind, size, code, children in order,
    # z and classes, node for node
    for g in connected_block_graphs_upto6:
        assert decompose_components(block_cut_decomposition(g)) == _reference_decomposition(g), g
        for r in range(g.n):
            rg = RootedGraph(g, (r,))
            assert decompose_rooted(rg) == _reference_rooted(rg), (g, r)
        for anchor in _anchors(g):
            ag = anchored_graph(g, anchor)
            assert canonical_code(ag) == _reference_anchored(ag).code, (g, anchor)


def _random_block_forest(rng):
    """A relabelled disjoint union of random block graphs and isolated
    vertices, at most 40 vertices in all."""
    parts = []
    budget = rng.randint(1, 40)
    while budget > 0:
        if budget < 4 or rng.random() < 0.2:
            parts.append(complete_graph(1))
        else:  # n to n + 3 vertices
            parts.append(random_block_graph(rng.randint(1, budget - 3), rng.randrange(2**32)))
        budget -= parts[-1].n
        if rng.random() < 0.5:
            break
    g, _ = disjoint_union(parts)
    perm = list(range(g.n))
    rng.shuffle(perm)
    return relabel(g, perm)


def test_tree_walk_equals_the_reference_on_random_block_forests(reference_memo):
    rng = random.Random(16)
    kinds = {"disconnected": 0, "isolated": 0}
    for _ in range(500):
        g = _random_block_forest(rng)
        comps = connected_components(g)
        kinds["disconnected"] += len(comps) > 1
        kinds["isolated"] += any(len(c) == 1 for c in comps) and g.n > 1
        reference = _reference_decomposition(g)
        assert decompose_components(block_cut_decomposition(g)) == reference, g
        assert canonical_code(g) == union_code(reference)
        # one random root per component, and every anchor of one component
        roots = tuple(rng.choice(c) for c in comps)
        expected = [_reference_rooted(RootedGraph(*induced_subgraph(g, c)[:1], (c.index(r),)))
                    for c, r in zip(comps, roots)]
        assert canonical_code(RootedGraph(g, roots)) == union_code(expected), (g, roots)
        sub, _ = induced_subgraph(g, rng.choice(comps))
        for anchor in _anchors(sub):
            ag = anchored_graph(sub, anchor)
            assert canonical_code(ag) == _reference_anchored(ag).code, (sub, anchor)
            assert canonical_code(psi(ag)) == union_code(
                _reference_rooted(p) for p in rooted_components(psi(ag))
            )
    assert kinds["disconnected"] > 100 and kinds["isolated"] > 50, kinds


def _caterpillar(spine, leaves, rng):
    """A path of ``spine`` vertices with ``leaves`` pendant vertices hung on
    random spine vertices."""
    edges = [(i, i + 1) for i in range(spine - 1)]
    edges += [(rng.randrange(spine), spine + k) for k in range(leaves)]
    return build_graph(spine + leaves, edges)


def _shuffled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return relabel(g, perm)


def test_codes_build_no_decomposition_node(monkeypatch, tmp_path, capsys, reference_memo):
    import qblock.cli as cli

    rng = random.Random(20)
    block = random_block_graph(80, 5)
    forest, _ = disjoint_union([block, path_graph(301), complete_graph(1), star_graph(50)])
    connected = [block, path_graph(301), path_graph(300), star_graph(200), _caterpillar(30, 40, rng)]
    rooted = [RootedGraph(g, tuple(rng.choice(c) for c in connected_components(g))) for g in (block, forest)]
    anchored = [anchored_graph(block, a) for a in _anchors(block)]
    # the node path first, as the reference
    expected = [union_code(decompose_components(block_cut_decomposition(g))) for g in connected + [forest]]
    expected += [union_code(decompose_rooted(RootedGraph(*induced_subgraph(rg.graph, c)[:1], (c.index(r),)))
                            for c, r in zip(connected_components(rg.graph), rg.roots)) for rg in rooted]
    expected += [_reference_anchored(ag).code for ag in anchored]
    path = tmp_path / "graphs.g6"
    path.write_text("".join(encode_graph6(g) + "\n" for g in connected + [forest]))
    pairs = tmp_path / "pairs.g6"
    pairs.write_text("".join(f"{encode_graph6(g)}\n{encode_graph6(_shuffled(g, rng))}\n" for g in connected))

    def refuse(self, *args, **kwargs):
        raise AssertionError("codes build no decomposition node")

    monkeypatch.setattr(DecompositionNode, "__init__", refuse)
    with pytest.raises(AssertionError):
        decompose_components(block_cut_decomposition(block))
    got = [canonical_code(g) for g in connected + [forest]]
    got += [canonical_code(rg) for rg in rooted] + [canonical_code(ag) for ag in anchored]
    assert got == expected
    assert cli.main(["canon", "--text", "--in", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"line:{i + 1}: {code}" for i, code in enumerate(expected[: len(connected) + 1])]
    assert cli.main(["iso", "--text", "--in", str(pairs)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(connected) and all("isomorphic: true;" in line for line in lines)


def _reachable(nodes):
    """Every node object below ``nodes``, once each."""
    seen, stack = {}, list(nodes)
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node.children)
            stack.extend(c for c, _ in node.classes)
    return list(seen.values())


def test_equal_subtrees_of_one_call_are_one_object():
    (star,) = decompose_components(block_cut_decomposition(star_graph(2000)))
    assert len(star.children) == 2000 and len({id(c) for c in star.children}) == 1
    k = 1000
    (odd,) = decompose_components(block_cut_decomposition(path_graph(2 * k + 1)))
    assert odd.children[0] is odd.children[1]
    (even,) = decompose_components(block_cut_decomposition(path_graph(2 * k)))
    assert [a for _, a in even.classes] == [2]
    assert len(_reachable([even])) == k + 1  # the top, then one chain of k nodes down to the leaf
    twins, _ = disjoint_union([complete_graph(3), path_graph(5), complete_graph(3)])
    first, _, last = decompose_components(block_cut_decomposition(twins))
    assert first is last
    rng = random.Random(17)
    for g in [random_block_graph(150, 3), _caterpillar(40, 60, rng), _random_block_forest(rng)]:
        nodes = _reachable(decompose_components(block_cut_decomposition(g)))
        assert len(nodes) == len({nd.code for nd in nodes})


def _hub(sizes):
    """A hub, vertex 0, with one pendant complete block of each of ``sizes``
    (an edge for 2): K1,n when every size is 2."""
    edges, n = [], 1
    for k in sizes:
        edges += itertools.combinations([0, *range(n, n + k - 1)], 2)
        n += k - 1
    return build_graph(n, edges)


def test_leaf_blocks_are_counted_at_their_cut_vertex(reference_memo):
    # leaf blocks (one cut vertex, not pinned) never enter the peel: their
    # codes are written by size at the cut vertex. Isolated vertices list
    # themselves as their cut vertex, and stay centres of their own
    hub = _hub([2, 3, 2, 4, 3, 2, 4])
    forest, _ = disjoint_union([complete_graph(1), complete_graph(2), path_graph(3), complete_graph(1), hub])
    closed = {
        complete_graph(1): "Q{1;}",
        complete_graph(2): "Q{2;}",
        path_graph(3): "A{L(•),L(•)}",
        star_graph(5): "A{L(•),L(•),L(•),L(•),L(•)}",
        hub: "A{B{•,•,•},B{•,•,•},B{•,•},B{•,•},L(•),L(•),L(•)}",
    }
    rng = random.Random(21)
    graphs = [*closed, forest, _caterpillar(6, 9, rng)]
    for g in graphs + [_shuffled(g, rng) for g in graphs]:
        structure, records = block_cut_decomposition(g), {}
        reference = _reference_decomposition(g)
        assert component_codes(structure, records) == [nd.code for nd in reference]
        assert decompose_components(structure) == reference, g
        if g in closed:
            assert canonical_code(g) == closed[g]
        seen = {LEAF_CODE}  # records come children first
        for code, (_, kids, _) in records.items():
            assert seen.issuperset(kids), code
            seen.add(code)
        comps = connected_components(g)
        if len(comps) > 1:
            for roots in itertools.islice(itertools.product(*comps), 50):
                expected = [_reference_rooted(RootedGraph(*induced_subgraph(g, c)[:1], (c.index(r),)))
                            for c, r in zip(comps, roots)]
                assert canonical_code(RootedGraph(g, roots)) == union_code(expected), (g, roots)
            continue
        # the centre: a vertex for K1, not a cut vertex
        assert select_anchor(g) == anchored_graph(g, distance_profile(g).centre)
        for r in range(g.n):  # inside leaf blocks, and at cut vertices carrying them
            rg = RootedGraph(g, (r,))
            assert decompose_rooted(rg) == _reference_rooted(rg), (g, r)
            assert canonical_code(rg) == _reference_rooted(rg).code
        for anchor in _anchors(g):  # leaf blocks among them
            ag = anchored_graph(g, anchor)
            assert canonical_code(ag) == _reference_anchored(ag).code, (g, anchor)
    assert select_anchor(complete_graph(1)).kind == "block"


@st.composite
def _block_graphs(draw):
    """A relabelled random block graph (at most 200 vertices), path, star or
    caterpillar."""
    kind = draw(st.sampled_from(["random", "path", "star", "caterpillar"]))
    n = draw(st.integers(1, 197))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        g = random_block_graph(n, rng.randrange(2**32))  # n to n + 3 vertices
    elif kind == "path":
        g = path_graph(n)
    elif kind == "star":
        g = star_graph(n - 1)
    else:
        spine = rng.randint(1, n)
        g = _caterpillar(spine, n - spine, rng)
    return _shuffled(g, rng), rng


@settings(derandomize=True, deadline=None)
@given(_block_graphs())
def test_property_codes_equal_the_trees_codes(case):
    g, rng = case
    assert union_code(decompose_components(block_cut_decomposition(g))) == canonical_code(g)
    assert canonical_code(_shuffled(g, rng)) == canonical_code(g)
