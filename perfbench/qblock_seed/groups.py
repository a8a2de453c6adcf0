"""Symbolic automorphism groups with a classical and a quantum reading.

One expression grammar covers both readings: Triv / Sym(n) / Product /
Wreath(base, n) reads classically as the trivial group, S_n, direct product
and wreath product with S_n, and quantumly as C, S_n^+, free product and
free wreath product with S_n^+. The two formulas for a block graph are
term-for-term parallel, so a single grammar keeps them from drifting apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .blocks import is_block_graph
from .decomposition import DecompositionNode, decompose, group_by_code
from .graphs import Graph, connected_components, induced_subgraph


class UnsupportedClassError(ValueError):
    """Quantum verdicts are only justified for block graphs and block-cographs."""


@dataclass(frozen=True)
class GroupExpr:
    """Expression over {Triv, Sym(n), Product, Wreath}.

    In normal form a Product has at least two factors, none trivial and none
    itself a Product, sorted by rendering; a Wreath has n >= 2 and a
    nontrivial base.
    """

    kind: str  # "triv" | "sym" | "product" | "wreath"
    n: int = 0
    factors: tuple[GroupExpr, ...] = ()
    base: GroupExpr | None = None


TRIV = GroupExpr("triv")


def sym(n: int) -> GroupExpr:
    if n < 0:
        raise ValueError("symmetric group rank must be nonnegative")
    return GroupExpr("sym", n=n)


def product(factors) -> GroupExpr:
    return GroupExpr("product", factors=tuple(factors))


def wreath(base: GroupExpr, n: int) -> GroupExpr:
    if n < 0:
        raise ValueError("wreath multiplicity must be nonnegative")
    return GroupExpr("wreath", n=n, base=base)


def render_classical(e: GroupExpr) -> str:
    """Classical reading: direct products and wreath products with S_n."""
    if e.kind == "triv":
        return "1"
    if e.kind == "sym":
        return f"S{e.n}"
    if e.kind == "wreath":
        return f"({render_classical(e.base)} wr S{e.n})"
    return "(" + " x ".join(render_classical(f) for f in e.factors) + ")"


def render_quantum(e: GroupExpr) -> str:
    """Quantum reading: free products and free wreath products with S_n^+."""
    if e.kind == "triv":
        return "C"
    if e.kind == "sym":
        return f"S{e.n}+"
    if e.kind == "wreath":
        return f"({render_quantum(e.base)} fwr S{e.n}+)"
    return "(" + " * ".join(render_quantum(f) for f in e.factors) + ")"


def normalize_expr(e: GroupExpr) -> GroupExpr:
    """Rewrite to normal form; idempotent.

    Sym(0), Sym(1) and empty products collapse to Triv; Wreath(Triv, n)
    rewrites to Sym(n), Wreath(b, 1) to b, Wreath(b, 0) to Triv; products
    flatten, drop trivial factors and sort.
    """
    if e.kind == "triv":
        return TRIV
    if e.kind == "sym":
        return TRIV if e.n <= 1 else GroupExpr("sym", n=e.n)
    if e.kind == "wreath":
        base = normalize_expr(e.base)
        if e.n == 0:
            return TRIV
        if e.n == 1:
            return base
        if base.kind == "triv":
            return normalize_expr(sym(e.n))
        return GroupExpr("wreath", n=e.n, base=base)
    flat: list[GroupExpr] = []
    for f in e.factors:
        nf = normalize_expr(f)
        if nf.kind == "triv":
            continue
        if nf.kind == "product":
            flat.extend(nf.factors)
        else:
            flat.append(nf)
    if not flat:
        return TRIV
    if len(flat) == 1:
        return flat[0]
    flat.sort(key=render_classical)
    return GroupExpr("product", factors=tuple(flat))


def classical_order(e: GroupExpr) -> int:
    """Order of the classical reading (exact, arbitrary precision)."""
    if e.kind == "triv":
        return 1
    if e.kind == "sym":
        return math.factorial(e.n)
    if e.kind == "wreath":
        return classical_order(e.base) ** e.n * math.factorial(e.n)
    return math.prod(classical_order(f) for f in e.factors)


def is_commutative_quantum(e: GroupExpr) -> bool:
    """Whether the quantum reading has a commutative underlying algebra.

    S_n^+ is commutative exactly for n <= 3; any normal-form product or
    wreath (two or more nontrivial pieces interacting freely) is not.
    """
    e = normalize_expr(e)
    if e.kind == "triv":
        return True
    if e.kind == "sym":
        return e.n <= 3
    return False


def _expr_of_node(node: DecompositionNode) -> GroupExpr:
    if node.kind == "leaf_k1":
        return TRIV
    if node.kind == "degree_one_root":
        return _expr_of_node(node.children[0])
    if node.kind == "top_block":
        factors = [sym(node.z)]
        factors.extend(wreath(_expr_of_node(c), a) for c, a in node.classes)
        return product(factors)
    # cut_root, block_root, top_cut: one wreath per isomorphism class
    return product(
        wreath(_expr_of_node(c), a) for c, a in group_by_code(node.children)
    )


def expr_from_decomposition(node: DecompositionNode) -> GroupExpr:
    """Group expression of a decomposition tree, in normal form.

    A leaf contributes Triv, a degree-one root passes its child through,
    a split at a cut vertex or block contributes one Wreath(child class,
    multiplicity) per class, and the top block node additionally contributes
    Sym(z) for the internal vertices of the centre block.
    """
    return normalize_expr(_expr_of_node(node))


def block_graph_expr(g: Graph) -> GroupExpr:
    """Expression for a block graph, componentwise for disconnected input."""
    if not is_block_graph(g):
        raise UnsupportedClassError("not a block graph")
    comps = connected_components(g)
    if len(comps) == 1:
        return expr_from_decomposition(decompose(g))
    nodes = [decompose(induced_subgraph(g, cell)[0]) for cell in comps]
    return normalize_expr(
        product(
            wreath(_expr_of_node(c), a) for c, a in group_by_code(nodes)
        )
    )


def supported_expr(g: Graph) -> GroupExpr:
    """Expression for a block graph or block-cograph; error otherwise."""
    if is_block_graph(g):
        return block_graph_expr(g)
    from .cographs import cotree_decompose, expr_from_cotree

    node = cotree_decompose(g)
    if node is None:
        raise UnsupportedClassError(
            "graph is neither a block graph nor a block-cograph"
        )
    return expr_from_cotree(node)


def has_quantum_symmetry(g: Graph) -> bool:
    """Theorem-backed verdict: quantum group strictly bigger than classical.

    Coincides with the existence of two nontrivial automorphisms with
    disjoint supports on the supported classes.
    """
    return not is_commutative_quantum(supported_expr(g))


def is_quantum_asymmetric(g: Graph) -> bool:
    """True iff the (quantum, equivalently classical) automorphism group is trivial."""
    return classical_order(supported_expr(g)) == 1
