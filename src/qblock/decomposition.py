"""Anchored and rooted graphs, the splitting operation, and canonical codes.

A connected block graph is anchored at its centre (always a cut vertex or a
whole complete block). Splitting at a cut vertex duplicates it into every
branch; splitting at a block deletes the block's internal edges. Either way
the result is a rooted graph whose components are strictly smaller rooted
block graphs, and recursing yields a tree whose canonical text code decides
isomorphism, and with it quantum isomorphism, for block graphs.

That tree comes from one bottom-up pass over the block-cut tree rooted at
the centre; :func:`psi` keeps the splitting operation itself.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Iterable, Union

from .blocks import BlockCutStructure, block_cut_decomposition
from .graphs import (
    Graph,
    GraphError,
    NotConnectedError,
    Record,
    connected_components,
    disjoint_union,
    induced_subgraph,
    is_connected,
)


class NotBlockGraphError(ValueError):
    """Operation is only proven correct for block graphs.

    For general graphs, use the brute-force routines in ``qblock.oracle``.
    """


class AnchoredGraph(Record):
    """A connected graph with a distinguished block or cut vertex.

    Build through :func:`anchored_graph`, which validates the anchor and
    records whether it is a cut vertex or a block.
    """

    graph: Graph
    anchor: tuple[int, ...]
    kind: str  # "cut" or "block"


def anchored_graph(g: Graph, anchor: Iterable[int]) -> AnchoredGraph:
    if not is_connected(g):
        raise NotConnectedError("anchored graphs are connected")
    q = tuple(sorted(set(anchor)))
    if not q:
        raise GraphError("anchor must be nonempty")
    structure = block_cut_decomposition(g)
    if q in structure.blocks:
        return AnchoredGraph(g, q, "block")
    if len(q) == 1 and q[0] in structure.cut_vertices:
        return AnchoredGraph(g, q, "cut")
    raise GraphError(f"anchor {q} is neither a block nor a cut vertex")


class RootedGraph(Record):
    """A graph with exactly one distinguished root per connected component."""

    graph: Graph
    roots: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "roots", tuple(sorted(self.roots)))
        root_set = set(self.roots)
        if len(root_set) != len(self.roots):
            raise GraphError("duplicate roots")
        comps = connected_components(self.graph)
        if len(comps) != len(root_set):
            raise GraphError("need exactly one root per connected component")
        for cell in comps:
            if len(root_set.intersection(cell)) != 1:
                raise GraphError("need exactly one root per connected component")

    @property
    def root(self) -> int:
        if len(self.roots) != 1:
            raise NotConnectedError("rooted graph has several components")
        return self.roots[0]


def psi(ag: AnchoredGraph) -> RootedGraph:
    """Split an anchored graph into a rooted graph.

    Cut-vertex anchor {r}: each component C of G - r becomes G[C + r],
    rooted at its own copy of r (so the vertex count grows by the number of
    components minus one). Block anchor Q: the edges inside Q are deleted
    and Q becomes the root set (vertex count unchanged).
    """
    g = ag.graph
    if ag.kind == "cut":
        r = ag.anchor[0]
        rest, vmap = induced_subgraph(g, set(range(g.n)) - {r})
        parts = []
        local_roots = []
        for cell in connected_components(rest):
            original = sorted([vmap[v] for v in cell] + [r])
            sub, sub_vmap = induced_subgraph(g, original)
            parts.append(sub)
            local_roots.append(sub_vmap.index(r))
        union, offsets = disjoint_union(parts)
        roots = tuple(off + lr for off, lr in zip(offsets, local_roots))
        return RootedGraph(union, roots)
    q = set(ag.anchor)
    edges = frozenset(e for e in g.edges if not (e[0] in q and e[1] in q))
    return RootedGraph(Graph(g.n, edges), ag.anchor)


def rooted_components(rg: RootedGraph) -> tuple[RootedGraph, ...]:
    """Connected rooted components, relabeled to dense ids."""
    root_set = set(rg.roots)
    out = []
    for cell in connected_components(rg.graph):
        sub, vmap = induced_subgraph(rg.graph, cell)
        local = tuple(i for i, old in enumerate(vmap) if old in root_set)
        out.append(RootedGraph(sub, local))
    return tuple(out)


class DecompositionNode(Record):
    """One step of the recursion, with the vertex count it covers.

    ``children`` is the multiset of sub-nodes sorted by code; ``z`` and
    ``classes`` are only populated at ``top_block`` nodes, where ``z`` counts
    the isolated-root components (the internal vertices of the centre block)
    and ``classes`` pairs each distinct child up with its multiplicity.
    """

    kind: str
    size: int
    code: str
    children: tuple[DecompositionNode, ...] = ()
    z: int = 0
    classes: tuple[tuple[DecompositionNode, int], ...] = ()


LEAF_CODE = "•"


def _leaf() -> DecompositionNode:
    return DecompositionNode("leaf_k1", 1, LEAF_CODE)


def _pendant(child: DecompositionNode) -> DecompositionNode:
    return DecompositionNode(
        "degree_one_root", child.size + 1, f"L({child.code})", (child,)
    )


def _multiset(kind: str, bracket: str, children: Iterable[DecompositionNode], shared: int):
    """Node over children sorted by code: ``C``/``A`` (``shared=1``, each
    child repeats the root) or ``B`` (``shared=0``)."""
    kids = tuple(sorted(children, key=lambda nd: nd.code))
    size = 1 + sum(c.size - shared for c in kids)
    code = bracket + "{" + ",".join(nd.code for nd in kids) + "}"
    return DecompositionNode(kind, size, code, kids)


def _top_block(
    z: int, classes: Iterable[tuple[DecompositionNode, int]]
) -> DecompositionNode:
    cls = tuple(sorted(classes, key=lambda pair: pair[0].code))
    body = ",".join(f"{node.code}^{a}" for node, a in cls)
    size = z + sum(node.size * a for node, a in cls)
    return DecompositionNode("top_block", size, f"Q{{{z};{body}}}", z=z, classes=cls)


def group_by_code(
    nodes: Iterable[DecompositionNode],
) -> list[tuple[DecompositionNode, int]]:
    """Isomorphism classes (by code) with multiplicities, sorted by code."""
    ordered = sorted(nodes, key=lambda nd: nd.code)
    out = []
    for _, grp in itertools.groupby(ordered, key=lambda nd: nd.code):
        members = list(grp)
        out.append((members[0], len(members)))
    return out


def _require_complete(structure: BlockCutStructure) -> BlockCutStructure:
    if not structure.all_blocks_complete:
        raise NotBlockGraphError(
            "only proven for block graphs; "
            "see qblock.oracle for brute-force alternatives"
        )
    return structure


def _connected_block_structure(g: Graph) -> BlockCutStructure:
    if not is_connected(g):
        raise NotConnectedError("anchor selection needs a connected graph")
    return _require_complete(block_cut_decomposition(g))


# Vertex-block tree: vertex v has id v, structure.blocks[i] has id n + i, and
# each vertex is joined to its blocks. Vertex distances there are twice those
# in the graph, so the two share their centre.


def _centre(structure: BlockCutStructure, v: int) -> tuple[int, Iterable[int]]:
    """Tree id of the centre of ``v``'s component and the ids it spans: the
    middle of a longest path, found by two breadth-first sweeps."""
    blocks, of = structure.blocks, structure.blocks_of_vertex
    n = len(of)

    def sweep(start: int) -> tuple[int, dict[int, int]]:
        parent = {start: start}
        queue = deque([start])
        while queue:
            x = queue.popleft()
            for y in [n + b for b in of[x]] if x < n else blocks[x - n]:
                if y not in parent:
                    parent[y] = x
                    queue.append(y)
        return x, parent  # the last node reached is a farthest one

    a, _ = sweep(v)
    x, parent = sweep(a)
    path = [x]
    while x != a:
        x = parent[x]
        path.append(x)
    return path[len(path) // 2], parent.keys()


def _rooted_vertex(kids: list[DecompositionNode]) -> DecompositionNode:
    """Node of a root vertex from the nodes of its blocks."""
    if len(kids) > 1:
        return _multiset("cut_root", "C", kids, 1)
    return kids[0] if kids else _leaf()


def _nodes_below(structure: BlockCutStructure, root: int) -> list[DecompositionNode]:
    """Nodes of the children of ``root`` in the tree rooted there, built
    children first. Below block P, vertex v stands for the graph hanging at
    v away from P, rooted at v; below vertex v, block B stands for v rooted
    on B alone. Singleton blocks (isolated vertices) are left out."""
    blocks, of = structure.blocks, structure.blocks_of_vertex
    n = len(of)
    children: dict[int, list[int]] = {}
    order = [root]
    for x in order:  # grows while read; in a tree only the parent is seen
        below = [n + b for b in of[x] if len(blocks[b]) > 1] if x < n else blocks[x - n]
        children[x] = [y for y in below if y not in children]
        order.extend(children[x])
    node: dict[int, DecompositionNode] = {}
    for x in reversed(order[1:]):
        kids = [node[y] for y in children[x]]
        if x < n:
            node[x] = _rooted_vertex(kids)
        elif len(kids) == 1:
            node[x] = _pendant(kids[0])
        else:
            node[x] = _multiset("block_root", "B", kids, 0)
    return [node[y] for y in children[root]]


def _top_node(structure: BlockCutStructure, root: int) -> DecompositionNode:
    kids = _nodes_below(structure, root)
    if root < len(structure.blocks_of_vertex):
        return _multiset("top_cut", "A", kids, 1)
    rest = [nd for nd in kids if nd.kind != "leaf_k1"]
    return _top_block(len(kids) - len(rest), group_by_code(rest))


def select_anchor(g: Graph) -> AnchoredGraph:
    """Anchor a connected block graph at its centre.

    The centre of a connected block graph is a cut vertex or exactly one
    complete block, so the result is always a valid anchored graph.
    """
    structure = _connected_block_structure(g)
    x, _ = _centre(structure, 0)
    if x < g.n:
        return AnchoredGraph(g, (x,), "cut")
    return AnchoredGraph(g, structure.blocks[x - g.n], "block")


def decompose_rooted(rg: RootedGraph) -> DecompositionNode:
    """Decomposition of a connected rooted block graph.

    A single vertex is a leaf, a degree-1 root is peeled, a cut-vertex root
    splits the graph at itself, and an internal root is removed and the rest
    split at the remainder of its block.
    """
    structure = _require_complete(block_cut_decomposition(rg.graph))
    return _rooted_vertex(_nodes_below(structure, rg.root))


def decompose_components(structure: BlockCutStructure) -> tuple[DecompositionNode, ...]:
    """Decomposition of each component of a block graph, anchored at its
    centre, from the graph's block-cut structure; ordered by least vertex."""
    _require_complete(structure)
    seen: set[int] = set()
    nodes = []
    for v in range(len(structure.blocks_of_vertex)):
        if v not in seen:
            x, reached = _centre(structure, v)
            seen.update(reached)
            nodes.append(_top_node(structure, x))
    return tuple(nodes)


def decompose(g: Graph) -> DecompositionNode:
    """Decomposition of a connected block graph, anchored at its centre."""
    return decompose_components(_connected_block_structure(g))[0]


def union_code(nodes: Iterable[DecompositionNode]) -> str:
    """The code of a single component, else ``U{...}`` over sorted codes."""
    codes = sorted(nd.code for nd in nodes)
    return codes[0] if len(codes) == 1 else "U{" + ",".join(codes) + "}"


def canonical_code(x: Union[Graph, RootedGraph, AnchoredGraph]) -> str:
    """Deterministic text code equal exactly for isomorphic block graphs.

    Accepts a plain graph (possibly disconnected), a rooted graph, or an
    anchored graph; every component must be a block graph.
    """
    if isinstance(x, Graph):
        return union_code(decompose_components(block_cut_decomposition(x)))
    structure = _require_complete(block_cut_decomposition(x.graph))
    if isinstance(x, RootedGraph):
        return union_code(_rooted_vertex(_nodes_below(structure, r)) for r in x.roots)
    if x.kind == "cut":
        return _top_node(structure, x.anchor[0]).code
    n = len(structure.blocks_of_vertex)
    return _top_node(structure, n + structure.blocks.index(x.anchor)).code


def is_isomorphic(g: Graph, h: Graph) -> bool:
    """Isomorphism of block graphs via canonical codes.

    Block graphs are superrigid, so the same verdict answers quantum
    isomorphism. Inputs outside the class are rejected.
    """
    return canonical_code(g) == canonical_code(h)
