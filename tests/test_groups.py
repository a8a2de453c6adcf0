"""Group expressions: normalization, orders, commutativity, quantum verdicts."""

import pytest

from qblock.decomposition import decompose
from qblock.families import (
    bull_graph,
    bowtie_graph,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)
from qblock.graphs import build_graph, disjoint_union, is_connected, relabel
from qblock.groups import (
    TRIV,
    UnsupportedClassError,
    block_graph_expr,
    classical_order,
    expr_from_decomposition,
    has_quantum_symmetry,
    is_commutative_quantum,
    is_quantum_asymmetric,
    normalize_expr,
    product,
    render_classical,
    render_quantum,
    sym,
    wreath,
)
from qblock.oracle import enumerate_automorphisms, random_block_graph, schmidt_bruteforce


def test_normalize_rewrites():
    assert normalize_expr(wreath(TRIV, 3)) == sym(3)
    assert normalize_expr(product([TRIV, sym(2)])) == sym(2)
    assert normalize_expr(wreath(sym(2), 1)) == sym(2)
    assert normalize_expr(wreath(sym(2), 0)) == TRIV
    assert normalize_expr(sym(0)) == TRIV
    assert normalize_expr(sym(1)) == TRIV
    assert normalize_expr(product([])) == TRIV
    nested = product([product([sym(2), sym(3)]), sym(2)])
    flat = normalize_expr(nested)
    assert flat.kind == "product" and len(flat.factors) == 3


def test_normalize_idempotent_and_sorted():
    e = normalize_expr(product([sym(3), wreath(sym(2), 2), sym(2)]))
    assert normalize_expr(e) == e
    keys = [render_classical(f) for f in e.factors]
    assert keys == sorted(keys)


def test_classical_orders():
    assert classical_order(sym(4)) == 24
    assert classical_order(normalize_expr(wreath(sym(2), 2))) == 8
    assert classical_order(TRIV) == 1
    assert classical_order(product([sym(3), sym(2)])) == 12
    assert classical_order(wreath(sym(3), 4)) == 6**4 * 24


def test_renderings():
    w = normalize_expr(wreath(sym(2), 2))
    assert render_classical(w) == "(S2 wr S2)"
    assert render_quantum(w) == "(S2+ fwr S2+)"
    p = normalize_expr(product([sym(3), sym(2)]))
    assert render_classical(p) == "(S2 x S3)"
    assert render_quantum(p) == "(S2+ * S3+)"
    assert render_classical(TRIV) == "1"
    assert render_quantum(TRIV) == "C"


def test_commutativity():
    assert is_commutative_quantum(TRIV)
    assert is_commutative_quantum(sym(2))
    assert is_commutative_quantum(sym(3))
    assert not is_commutative_quantum(sym(4))
    assert not is_commutative_quantum(wreath(sym(2), 2))
    assert not is_commutative_quantum(product([sym(2), sym(2)]))


def test_expr_examples():
    assert expr_from_decomposition(decompose(bull_graph())) == sym(2)
    assert expr_from_decomposition(decompose(bowtie_graph())) == normalize_expr(
        wreath(sym(2), 2)
    )
    assert expr_from_decomposition(decompose(star_graph(4))) == sym(4)
    assert expr_from_decomposition(decompose(path_graph(4))) == sym(2)


def test_expr_complete_graphs():
    from qblock.decomposition import RootedGraph, decompose_rooted

    for n in range(1, 6):
        assert block_graph_expr(complete_graph(n)) == normalize_expr(sym(n))
        rooted = decompose_rooted(RootedGraph(complete_graph(n), (0,)))
        assert expr_from_decomposition(rooted) == normalize_expr(sym(n - 1))


def test_expressions_of_trees_deeper_than_the_recursion_limit():
    assert block_graph_expr(path_graph(3000)) == sym(2)
    # 1000 triangles in a row, each sharing one vertex with the next
    triangle = ((0, 1), (1, 2), (0, 2))
    chain = build_graph(2001, [(2 * i + a, 2 * i + b) for i in range(1000) for a, b in triangle])
    assert block_graph_expr(chain) == normalize_expr(wreath(sym(2), 2))


def test_disconnected_block_graph_expr():
    three_k2, _ = disjoint_union([complete_graph(2)] * 3)
    e = block_graph_expr(three_k2)
    assert e == normalize_expr(wreath(sym(2), 3))
    assert classical_order(e) == 48
    mixed, _ = disjoint_union([complete_graph(3), complete_graph(2)])
    e = block_graph_expr(mixed)
    assert classical_order(e) == 12
    assert e.kind == "product"


def test_expr_order_matches_oracle_sample():
    for g in [
        bull_graph(),
        bowtie_graph(),
        star_graph(4),
        path_graph(6),
        complete_graph(5),
        disjoint_union([bull_graph(), bull_graph()])[0],
    ]:
        assert classical_order(block_graph_expr(g)) == enumerate_automorphisms(g).order


def test_expr_relabel_stable():
    g = bowtie_graph()
    assert block_graph_expr(g) == block_graph_expr(relabel(g, [4, 3, 2, 1, 0]))


@pytest.mark.parametrize(
    "graph,expected",
    [
        (star_graph(3), False),
        (star_graph(4), True),
        (complete_graph(4), True),
        (path_graph(4), False),
        (bull_graph(), False),
        (cycle_graph(4), True),
        (bowtie_graph(), True),
    ],
)
def test_has_quantum_symmetry(graph, expected):
    assert has_quantum_symmetry(graph) is expected
    assert schmidt_bruteforce(graph) is expected


def test_quantum_symmetry_rejects_unsupported():
    with pytest.raises(UnsupportedClassError):
        has_quantum_symmetry(cycle_graph(5))
    with pytest.raises(UnsupportedClassError):
        is_quantum_asymmetric(cycle_graph(5))


def test_is_quantum_asymmetric():
    assert is_quantum_asymmetric(complete_graph(1))
    assert not is_quantum_asymmetric(bull_graph())
    # spider with three branches of pairwise different lengths
    asym_tree = build_graph(7, [(0, 1), (1, 2), (2, 3), (2, 4), (4, 5), (5, 6)])
    assert enumerate_automorphisms(asym_tree).order == 1
    assert is_quantum_asymmetric(asym_tree)


def test_rooted_expressions_match_the_oracle():
    from qblock.decomposition import RootedGraph, decompose_rooted

    trees = 0
    for s in range(300):
        g = random_block_graph(1 + s % 9, 900 + s)
        if not is_connected(g):
            continue
        perms = enumerate_automorphisms(g).perms
        for r in range(g.n):
            expr = expr_from_decomposition(decompose_rooted(RootedGraph(g, (r,))))
            assert classical_order(expr) == sum(p[r] == r for p in perms), (g, r)
            trees += 1
    assert trees == 1789
