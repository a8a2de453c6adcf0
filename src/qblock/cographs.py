"""Block-cographs: the closure of block graphs under complement and union.

The cotree is built over vertex sets of the input graph ``g`` (after Corneil,
Perl & Stewart, SIAM J. Comput. 1985): a node is a set plus a side, the
subgraph ``g`` induces on it (side 0) or its complement (side 1). One search
over ``g.adjacency`` splits a set connected on its side into its components
on the other side: two or more make a complement node over their union, one
a leaf, the only kind of graph built. A leaf is encoded from the graph when
it is a block graph, else from its complement, and keeps the decomposition
of that side, which its group expression is read from. Only K1, P4 and the
bull are block graphs both ways, each its own complement.
"""

from __future__ import annotations

from collections.abc import Iterable
from operator import attrgetter

from .blocks import BlockCutStructure, block_cut_decomposition
from .decomposition import DecompositionNode, decompose_components
from .graphs import Graph, Record, complement, connected_components, induced_subgraph
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


def _leaf(h: Graph, structure: BlockCutStructure | None = None) -> CotreeNode | None:
    """Leaf for ``h``, connected both ways, or ``None`` when neither ``h``
    nor its complement is a block graph; ``structure`` is that of ``h``."""
    if structure is None:
        structure = block_cut_decomposition(h)
    # h and its complement both chordal make h a split graph (Földes & Hammer,
    # 1977), and the split block graphs whose complement is a connected block
    # graph are K1, P4 and the bull, all self-complementary. So a block graph's
    # own code is never beaten by its complement's ("b:" < "cb:").
    if structure.all_blocks_complete:
        prefix, tag, blocks = "b:", "block-graph", structure
    else:
        prefix, tag, blocks = "cb:", "co-block-graph", block_cut_decomposition(complement(h))
        if not blocks.all_blocks_complete:
            return None
    side = decompose_components(blocks)[0]
    return CotreeNode("leaf", h.n, prefix + side.code, graph=h, tag=tag, side=side)


_K1 = _leaf(Graph(1, frozenset()))  # the leaf of every one-vertex set


def _split(adjacency: tuple[frozenset[int], ...], cell: Iterable[int], side: int) -> list[list[int]]:
    """Components of ``cell`` on side ``1 - side``, in order of least vertex."""
    todo, parts = set(cell), []
    for start in sorted(todo):
        if start in todo:
            todo.discard(start)
            part = [start]
            for v in part:  # breadth-first: the list grows while it is read
                found = todo & adjacency[v] if side else todo - adjacency[v]  # side 0: non-neighbours
                todo -= found
                part.extend(found)
            parts.append(part)
    return parts


def cotree_decompose(g: Graph, structure: BlockCutStructure | None = None) -> CotreeNode | None:
    """Cotree of ``g``, or ``None`` when it is not a block-cograph; ``structure``
    is the block-cut structure of ``g`` when already built.

    The stack holds the union nodes being built, the top one first: the
    cells still to do, connected on the frame's side, that side and the
    children so far. A cell that splits opens its complement node's union.
    """
    if g.n == 0:
        return None
    stack = [(iter(connected_components(g)), 0, [])]
    while True:
        cells, side, children = stack[-1]
        for cell in cells:
            if len(cell) == 1:
                children.append(_K1)
            elif len(parts := _split(g.adjacency, cell, side)) > 1:
                stack.append((iter(parts), 1 - side, []))
                break
            else:
                sub = g if len(cell) == g.n else induced_subgraph(g, cell)[0]
                child = _leaf(complement(sub)) if side else _leaf(sub, structure if sub is g else None)
                if child is None:
                    return None
                children.append(child)
        else:  # every cell done: the node is complete
            stack.pop()
            if len(children) == 1:  # one component: its node
                node = children[0]
            else:
                children.sort(key=attrgetter("code"))
                code = "u{" + ",".join(nd.code for nd in children) + "}"
                node = CotreeNode("union", sum(nd.size for nd in children), code, tuple(children))
            if not stack:
                return node
            stack[-1][2].append(CotreeNode("complement", node.size, f"c({node.code})", (node,)))


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
