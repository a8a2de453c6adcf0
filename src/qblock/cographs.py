"""Block-cographs: the closure of block graphs under complement and union.

The cotree is built over vertex sets of the input graph ``g`` (after Corneil,
Perl & Stewart, SIAM J. Comput. 1985): a node is a set plus a side, the
subgraph ``g`` induces on it (side 0) or its complement (side 1). One search
over the neighbour sets of ``g`` splits a set connected on its side into its
components on the other side: two or more make a complement node over their
union, one a leaf, the only kind of graph built. A leaf is encoded from the
graph when it is a block graph, else from its complement, by that side's
code and records, which its group expression is read from; no tree is
built. Only K1, P4 and the bull are block graphs both ways, each its own
complement.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from operator import attrgetter

from .blocks import BlockCutStructure, block_cut_decomposition
from .graphs import Graph, Record, complement, connected_components, induced_subgraph

# codes and groups are loaded where first written, so that proving a graph
# unsupported never loads them
TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing at start-up
if TYPE_CHECKING:
    from .groups import GroupExpr


class CotreeNode(Record):
    """Cotree of a block-cograph.

    Union nodes have >= 2 non-union children; a complement node's child is
    always a union node; a leaf is connected with connected complement and is
    a block graph or the complement of one.

    A leaf's code is ``b:`` and the graph's code if it is a block graph,
    else ``cb:`` and its complement's. A graph whose complement is also a
    block graph is self-complementary (K1, P4, the bull), so a leaf and its
    complement get identical expressions.
    """

    kind: str  # "union" | "complement" | "leaf"
    size: int
    code: str
    children: tuple[CotreeNode, ...] = ()
    graph: Graph | None = None
    tag: str | None = None  # leaf: "block-graph" | "co-block-graph"


def _leaf(
    h: Graph, structure: BlockCutStructure | None, records: dict, co: Graph | None = None
) -> CotreeNode | None:
    """Leaf for ``h``, connected both ways, or ``None`` when neither ``h``
    nor its complement is a block graph; ``structure`` is that of ``h``, and
    ``co`` its complement, when already built. Its code and its side's are
    recorded in ``records``."""
    found = _block_graph_side(h, structure, co)
    if found is None:
        return None
    bracket, blocks = found
    from .decomposition import component_codes

    (side,) = component_codes(blocks, records)
    code = f"{bracket}:{side}"
    records[code] = bracket, [side], 0
    tag = "block-graph" if bracket == "b" else "co-block-graph"
    return CotreeNode("leaf", h.n, code, graph=h, tag=tag)


def _block_graph_side(
    h: Graph, structure: BlockCutStructure | None, co: Graph | None
) -> tuple[str, BlockCutStructure] | None:
    """``("b", structure of h)`` when ``h`` is a block graph, else ``("cb",
    structure of its complement)`` when that is one, else ``None``;
    ``structure`` and ``co`` as for :func:`_leaf`."""
    if structure is None:
        structure = block_cut_decomposition(h)
    # h and its complement both chordal make h a split graph (Földes & Hammer,
    # 1977), and the split block graphs whose complement is a connected block
    # graph are K1, P4 and the bull, all self-complementary. So a block graph's
    # own code is never beaten by its complement's ("b:" < "cb:").
    if structure.all_blocks_complete:
        return "b", structure
    blocks = block_cut_decomposition(complement(h) if co is None else co)
    return ("cb", blocks) if blocks.all_blocks_complete else None


#: The leaf of every one-vertex set and its records, as ``_leaf`` writes them.
_K1 = CotreeNode("leaf", 1, "b:Q{1;}", graph=Graph(1, frozenset()), tag="block-graph")
_K1_RECORDS = {"Q{1;}": ("Q", [], 1), "b:Q{1;}": ("b", ["Q{1;}"], 0)}


def _split(
    neighbours: Sequence[frozenset[int]] | dict[int, frozenset[int]], cell: Iterable[int], side: int
) -> list[list[int]]:
    """Components of ``cell`` on side ``1 - side``, in order of least vertex;
    ``neighbours`` holds each vertex's neighbours as a set, so that each set
    operation costs at most the size of ``todo``, not the vertex's degree."""
    todo, parts = set(cell), []
    for start in sorted(todo):
        if start in todo:
            todo.discard(start)
            part = [start]
            for v in part:  # breadth-first: the list grows while it is read
                found = todo & neighbours[v] if side else todo - neighbours[v]  # side 0: non-neighbours
                todo -= found
                part.extend(found)
            parts.append(part)
    return parts


def cotree_decompose(
    g: Graph, structure: BlockCutStructure | None = None, records: dict | None = None
) -> CotreeNode | None:
    """Cotree of ``g``, or ``None`` when it is not a block-cograph; ``structure``
    is the block-cut structure of ``g`` when already built, whose components
    are then not searched again, and ``records``, if given, gets each
    distinct code's record, its leaves' sides' too.

    The stack holds the union nodes being built, the top one first: the
    cells still to do, connected on the frame's side, that side and the
    children so far. A cell that splits opens its complement node's union.
    """
    if g.n == 0:
        return None
    neighbours = list(map(frozenset, g.adjacency))
    records = {} if records is None else records
    records.update(_K1_RECORDS)
    cells = connected_components(g) if structure is None else structure.components
    stack = [(iter(cells), 0, [])]
    while True:
        cells, side, children = stack[-1]
        for cell in cells:
            if len(cell) == 1:
                children.append(_K1)
            elif len(parts := _split(neighbours, cell, side)) > 1:
                stack.append((iter(parts), 1 - side, []))
                break
            else:
                sub = g if len(cell) == g.n else induced_subgraph(g, cell)[0]
                h = complement(sub) if side else sub
                child = _leaf(h, structure if h is g else None, records, sub if side else None)
                if child is None:
                    return None
                children.append(child)
        else:  # every cell done: the node is complete
            stack.pop()
            if len(children) == 1:  # one component: its node
                node = children[0]
            else:
                children.sort(key=attrgetter("code"))
                kids = [nd.code for nd in children]
                code = "u{" + ",".join(kids) + "}"
                records[code] = "u", kids, 0
                node = CotreeNode("union", sum(nd.size for nd in children), code, tuple(children))
            if not stack:
                return node
            code = f"c({node.code})"
            records[code] = "c", [node.code], 0
            stack[-1][2].append(CotreeNode("complement", node.size, code, (node,)))


def _leaf_flags(h: Graph, co: bool) -> tuple[bool, bool]:
    """Flags of a leaf ``h``, connected both ways: a block graph, or with
    ``co`` the complement of one.

    A block graph is chordal, so holds no C4, and holds 2K2 unless its
    vertices of degree 2 or more are pairwise adjacent: a 2K2-free chordal
    graph is a split graph, and a connected split block graph is a clique
    with pendant vertices. The complement of a block graph B holds C4
    exactly when B holds 2K2, and never 2K2.
    """
    adj, k = h.adjacency, h.n
    if co:  # the vertices of degree 2 or more in the complement, pairwise non-adjacent there
        inner = [v for v in range(k) if len(adj[v]) < k - 2]
        core = set(inner)
        return any(core.intersection(adj[v]) for v in inner), False
    inner = [v for v in range(k) if len(adj[v]) > 1]
    core = set(inner)
    return False, any(len(core.intersection(adj[v])) < len(inner) - 1 for v in inner)


def _union_flags(parts: list[tuple[bool, bool, int]]) -> tuple[bool, bool]:
    """Flags of a disjoint union of connected ``(C4, 2K2, size)`` parts: C4
    when a part holds one, 2K2 when a part does or two parts have an edge."""
    c4 = any(p[0] for p in parts)
    return c4, any(p[1] for p in parts) or sum(p[2] > 1 for p in parts) > 1


def cotree_flags(g: Graph, cells: Iterable[Iterable[int]]) -> tuple[bool, bool] | None:
    """Whether the subgraph that ``g`` induces on the union of ``cells``, its
    components, holds an induced C4, and an induced 2K2; ``None`` when that
    subgraph is not a block-cograph.

    The flags are read off its cotree, walked over vertex sets as in
    :func:`cotree_decompose` and writing no code: a leaf's by
    :func:`_leaf_flags`, a union's by :func:`_union_flags`, and as C4 and
    2K2 are each other's complements, a complement node swaps its child's.

    A frame of the stack holds the cells still to do, each connected on the
    frame's side, that side, and for each cell done, its flags on that side
    and its size.
    """
    cells = tuple(map(tuple, cells))
    neighbours = {v: frozenset(g.adjacency[v]) for cell in cells for v in cell}
    stack = [(iter(cells), 0, [])]
    while True:
        todo, side, done = stack[-1]
        for cell in todo:
            if len(cell) == 1:
                done.append((False, False, 1))
            elif len(parts := _split(neighbours, cell, side)) > 1:
                stack.append((iter(parts), 1 - side, []))
                break
            else:
                sub = induced_subgraph(g, cell)[0]
                h = complement(sub) if side else sub
                found = _block_graph_side(h, None, sub if side else None)
                if found is None:
                    return None
                done.append((*_leaf_flags(h, found[0] == "cb"), len(cell)))
        else:  # every cell done: their union on the frame's side
            stack.pop()
            c4, two_k2 = _union_flags(done)
            if not stack:
                return c4, two_k2
            stack[-1][2].append((two_k2, c4, sum(f[2] for f in done)))


def is_block_cograph(g: Graph) -> bool:
    return cotree_decompose(g) is not None


def expr_block_cograph(g: Graph) -> GroupExpr:
    from .groups import UnsupportedClassError, expr_from_records

    records: dict = {}
    node = cotree_decompose(g, records=records)
    if node is None:
        raise UnsupportedClassError("not a block-cograph")
    return expr_from_records(records, [node.code])


def canonical_code_cograph(g: Graph) -> str:
    """Code equal exactly for isomorphic block-cographs.

    Superrigidity of the class makes the same equality decide quantum
    isomorphism.
    """
    from .groups import UnsupportedClassError

    node = cotree_decompose(g)
    if node is None:
        raise UnsupportedClassError("not a block-cograph")
    return node.code
