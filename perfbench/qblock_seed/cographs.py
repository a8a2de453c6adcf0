"""Block-cographs: the closure of block graphs under complement and union.

Membership is decided by the standard cotree recursion: split disconnected
graphs into components, complement connectedly-co-disconnected graphs, and
accept a graph that is connected both ways exactly when it or its complement
is a block graph. Codes and group expressions are computed on the resulting
tree; a base leaf always resolves to the lexicographically smaller of its two
possible encodings, which also fixes the side used for its group expression.
"""

from __future__ import annotations

from dataclasses import dataclass

from .blocks import is_block_graph
from .decomposition import canonical_code, group_by_code
from .formats import encode_graph6
from .graphs import Graph, complement, connected_components, induced_subgraph, is_connected
from .groups import (
    GroupExpr,
    UnsupportedClassError,
    block_graph_expr,
    normalize_expr,
    product,
    wreath,
)


@dataclass(frozen=True)
class CotreeNode:
    """Cotree of a block-cograph.

    Union nodes have >= 2 non-union children; a complement node's child is
    always a union node; a leaf is connected with connected complement and is
    a block graph or the complement of one.
    """

    kind: str  # "union" | "complement" | "leaf"
    size: int
    code: str
    children: tuple[CotreeNode, ...] = ()
    graph: Graph | None = None
    tag: str | None = None  # leaf: "block-graph" | "co-block-graph"


def cotree_decompose(g: Graph) -> CotreeNode | None:
    """Cotree of ``g``, or ``None`` when it is not a block-cograph."""
    if g.n == 0:
        return None
    comps = connected_components(g)
    if len(comps) > 1:
        children = []
        for cell in comps:
            child = cotree_decompose(induced_subgraph(g, cell)[0])
            if child is None:
                return None
            children.append(child)
        children.sort(key=lambda nd: nd.code)
        code = "u{" + ",".join(nd.code for nd in children) + "}"
        return CotreeNode("union", g.n, code, tuple(children))
    co = complement(g)
    if not is_connected(co):
        child = cotree_decompose(co)
        if child is None:
            return None
        return CotreeNode("complement", g.n, f"c({child.code})", (child,))
    direct = is_block_graph(g)
    complemented = is_block_graph(co)
    if not (direct or complemented):
        return None
    candidates = []
    if direct:
        candidates.append("b:" + canonical_code(g))
    if complemented:
        candidates.append("cb:" + canonical_code(co))
    return CotreeNode(
        "leaf",
        g.n,
        min(candidates),
        graph=g,
        tag="block-graph" if direct else "co-block-graph",
    )


def is_block_cograph(g: Graph) -> bool:
    return cotree_decompose(g) is not None


def _leaf_block_side(node: CotreeNode) -> Graph:
    """The block-graph side used for the leaf's group expression.

    Chosen symmetrically from the unordered pair {graph, complement}: when
    both sides are block graphs the one with the smaller code wins, so a
    leaf and its complement always resolve to isomorphic sides and their
    expressions come out structurally identical.
    """
    g = node.graph
    co = complement(g)
    direct = is_block_graph(g)
    complemented = is_block_graph(co)
    if direct and complemented:
        return min(g, co, key=canonical_code)
    return g if direct else co


def _expr_of_cotree(node: CotreeNode) -> GroupExpr:
    if node.kind == "leaf":
        return block_graph_expr(_leaf_block_side(node))
    if node.kind == "complement":
        return _expr_of_cotree(node.children[0])
    return product(
        wreath(_expr_of_cotree(c), a) for c, a in _union_classes(node.children)
    )


def _union_classes(children: tuple[CotreeNode, ...]) -> list[tuple[CotreeNode, int]]:
    return group_by_code(children)  # type: ignore[arg-type]


def expr_from_cotree(node: CotreeNode) -> GroupExpr:
    """Group expression of a cotree, in normal form.

    Complementing leaves the group unchanged; a union contributes one
    Wreath(component class, multiplicity) per class of components.
    """
    return normalize_expr(_expr_of_cotree(node))


def expr_block_cograph(g: Graph) -> GroupExpr:
    node = cotree_decompose(g)
    if node is None:
        raise UnsupportedClassError("not a block-cograph")
    return expr_from_cotree(node)


def canonical_code_cograph(g: Graph) -> str:
    """Code equal exactly for isomorphic block-cographs.

    Superrigidity of the class makes the same equality decide quantum
    isomorphism.
    """
    node = cotree_decompose(g)
    if node is None:
        raise UnsupportedClassError("not a block-cograph")
    return node.code


def cotree_to_json(node: CotreeNode) -> dict:
    """Nested plain-dict mirror of a cotree, for reports."""
    out: dict = {"kind": node.kind, "size": node.size, "code": node.code}
    if node.kind == "leaf":
        out["tag"] = node.tag
        out["graph6"] = encode_graph6(node.graph)
    else:
        out["children"] = [cotree_to_json(c) for c in node.children]
    return out
