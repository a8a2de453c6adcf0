"""Block-cographs: the closure of block graphs under complement and union.

Membership is decided by the standard cotree recursion: split disconnected
graphs into components, complement connectedly-co-disconnected graphs, and
accept a graph that is connected both ways exactly when it or its complement
is a block graph. Codes and group expressions are computed on the resulting
tree. A base leaf is encoded from the graph when it is a block graph, else
from its complement, and keeps the decomposition of that side, which its
group expression is read from. Only K1, P4 and the bull are block graphs
both ways, and each is isomorphic to its complement.
"""

from __future__ import annotations

from .blocks import BlockCutStructure, block_cut_decomposition
from .decomposition import DecompositionNode, decompose_components
from .graphs import Graph, Record, complement, connected_components, induced_subgraph, is_connected
from .groups import GroupExpr, UnsupportedClassError, expr_from_components


class CotreeNode(Record):
    """Cotree of a block-cograph.

    Union nodes have >= 2 non-union children; a complement node's child is
    always a union node; a leaf is connected with connected complement and is
    a block graph or the complement of one.

    A leaf's ``side`` decomposes the side its group expression is read from:
    the graph when it is a block graph, else its complement. A graph whose
    complement is also a block graph is self-complementary (K1, P4, the
    bull), so a leaf and its complement get identical expressions.
    """

    kind: str  # "union" | "complement" | "leaf"
    size: int
    code: str
    children: tuple[CotreeNode, ...] = ()
    graph: Graph | None = None
    tag: str | None = None  # leaf: "block-graph" | "co-block-graph"
    side: DecompositionNode | None = None


def cotree_decompose(g: Graph, structure: BlockCutStructure | None = None) -> CotreeNode | None:
    """Cotree of ``g``, or ``None`` when it is not a block-cograph.

    ``structure``, the block-cut structure of ``g`` when already built, is
    used if ``g`` itself turns out to be a leaf.
    """
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
    if structure is None:
        structure = block_cut_decomposition(g)
    # g and its complement both chordal make g a split graph (Földes & Hammer,
    # 1977), and the split block graphs whose complement is a connected block
    # graph are K1, P4 and the bull, all self-complementary. So a block graph's
    # own code is never beaten by its complement's ("b:" < "cb:").
    if structure.all_blocks_complete:
        prefix, tag, blocks = "b:", "block-graph", structure
    else:
        prefix, tag, blocks = "cb:", "co-block-graph", block_cut_decomposition(co)
        if not blocks.all_blocks_complete:
            return None
    side = decompose_components(blocks)[0]
    return CotreeNode("leaf", g.n, prefix + side.code, graph=g, tag=tag, side=side)


def is_block_cograph(g: Graph) -> bool:
    return cotree_decompose(g) is not None


def expr_block_cograph(g: Graph) -> GroupExpr:
    node = cotree_decompose(g)
    if node is None:
        raise UnsupportedClassError("not a block-cograph")
    return expr_from_components((node,))


def canonical_code_cograph(g: Graph) -> str:
    """Code equal exactly for isomorphic block-cographs.

    Superrigidity of the class makes the same equality decide quantum
    isomorphism.
    """
    node = cotree_decompose(g)
    if node is None:
        raise UnsupportedClassError("not a block-cograph")
    return node.code
