"""Anchored and rooted graphs, the splitting operation, and canonical codes.

A connected block graph is anchored at its centre (always a cut vertex or a
whole complete block). Splitting at a cut vertex duplicates it into every
branch; splitting at a block deletes the block's internal edges. Either way
the result is a rooted graph whose components are strictly smaller rooted
block graphs, and recursing yields a tree whose canonical text code decides
isomorphism, and with it quantum isomorphism, for block graphs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Union

from .blocks import block_cut_decomposition, is_block_graph
from .graphs import (
    Graph,
    GraphError,
    NotConnectedError,
    connected_components,
    disjoint_union,
    distance_profile,
    induced_subgraph,
    is_connected,
)


class NotBlockGraphError(ValueError):
    """Operation is only proven correct for block graphs.

    For general graphs, use the brute-force routines in ``qblock.oracle``.
    """


@dataclass(frozen=True)
class AnchoredGraph:
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


@dataclass(frozen=True)
class RootedGraph:
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


@dataclass(frozen=True)
class DecompositionNode:
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


def _sorted_multiset(children: Iterable[DecompositionNode]):
    kids = tuple(sorted(children, key=lambda nd: nd.code))
    body = ",".join(nd.code for nd in kids)
    return kids, body


def _cut(children: Iterable[DecompositionNode]) -> DecompositionNode:
    kids, body = _sorted_multiset(children)
    size = 1 + sum(c.size - 1 for c in kids)
    return DecompositionNode("cut_root", size, "C{" + body + "}", kids)


def _block(children: Iterable[DecompositionNode]) -> DecompositionNode:
    kids, body = _sorted_multiset(children)
    size = 1 + sum(c.size for c in kids)
    return DecompositionNode("block_root", size, "B{" + body + "}", kids)


def _top_cut(children: Iterable[DecompositionNode]) -> DecompositionNode:
    kids, body = _sorted_multiset(children)
    size = 1 + sum(c.size - 1 for c in kids)
    return DecompositionNode("top_cut", size, "A{" + body + "}", kids)


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


def _require_block_graph(g: Graph) -> None:
    if not is_block_graph(g):
        raise NotBlockGraphError(
            "only proven for block graphs; "
            "see qblock.oracle for brute-force alternatives"
        )


def select_anchor(g: Graph) -> AnchoredGraph:
    """Anchor a connected block graph at its centre.

    The centre of a connected block graph is a cut vertex or exactly one
    complete block, so the result is always a valid anchored graph.
    """
    if not is_connected(g):
        raise NotConnectedError("anchor selection needs a connected graph")
    _require_block_graph(g)
    return anchored_graph(g, distance_profile(g).centre)


def _decompose_rooted(g: Graph, r: int) -> DecompositionNode:
    if g.n == 1:
        return _leaf()
    if g.degree(r) == 1:
        neighbour = next(iter(g.adjacency[r]))
        sub, vmap = induced_subgraph(g, set(range(g.n)) - {r})
        return _pendant(_decompose_rooted(sub, vmap.index(neighbour)))
    structure = block_cut_decomposition(g)
    if r in structure.cut_vertices:
        split = psi(AnchoredGraph(g, (r,), "cut"))
        return _cut(
            _decompose_rooted(c.graph, c.root) for c in rooted_components(split)
        )
    # internal root of degree >= 2: its unique block is its closed neighbourhood
    b = frozenset(g.adjacency[r]) | {r}
    if tuple(sorted(b)) not in structure.blocks:
        raise NotBlockGraphError(
            "internal root's closed neighbourhood is not a block"
        )
    rest, vmap = induced_subgraph(g, set(range(g.n)) - {r})
    inverse = {old: new for new, old in enumerate(vmap)}
    reduced_anchor = tuple(sorted(inverse[v] for v in b if v != r))
    split = psi(anchored_graph(rest, reduced_anchor))
    return _block(
        _decompose_rooted(c.graph, c.root) for c in rooted_components(split)
    )


def decompose_rooted(rg: RootedGraph) -> DecompositionNode:
    """Recursive decomposition of a connected rooted block graph.

    The degree-1 reduction is applied before the cut/internal classification,
    then a cut-vertex root splits the graph at itself while an internal root
    is removed and the rest split at the remainder of its block. Every
    recursion step strictly decreases the vertex count.
    """
    _require_block_graph(rg.graph)
    return _decompose_rooted(rg.graph, rg.root)


def _decompose_anchored(ag: AnchoredGraph) -> DecompositionNode:
    comps = rooted_components(psi(ag))
    if ag.kind == "cut":
        return _top_cut(
            _decompose_rooted(c.graph, c.root) for c in comps
        )
    z = sum(1 for c in comps if c.graph.n == 1)
    rest = [_decompose_rooted(c.graph, c.root) for c in comps if c.graph.n > 1]
    return _top_block(z, group_by_code(rest))


def decompose(g: Graph) -> DecompositionNode:
    """Decomposition of a connected block graph, anchored at its centre."""
    return _decompose_anchored(select_anchor(g))


def canonical_code(x: Union[Graph, RootedGraph, AnchoredGraph]) -> str:
    """Deterministic text code equal exactly for isomorphic block graphs.

    Accepts a plain graph (possibly disconnected), a rooted graph, or an
    anchored graph; every component must be a block graph.
    """
    if isinstance(x, AnchoredGraph):
        _require_block_graph(x.graph)
        return _decompose_anchored(x).code
    if isinstance(x, RootedGraph):
        _require_block_graph(x.graph)
        codes = sorted(
            _decompose_rooted(c.graph, c.root).code for c in rooted_components(x)
        )
        if len(codes) == 1:
            return codes[0]
        return "U{" + ",".join(codes) + "}"
    _require_block_graph(x)
    comps = connected_components(x)
    if len(comps) == 1:
        return decompose(x).code
    codes = sorted(
        decompose(induced_subgraph(x, cell)[0]).code for cell in comps
    )
    return "U{" + ",".join(codes) + "}"


def is_isomorphic(g: Graph, h: Graph) -> bool:
    """Isomorphism of block graphs via canonical codes.

    Block graphs are superrigid, so the same verdict answers quantum
    isomorphism. Inputs outside the class are rejected.
    """
    _require_block_graph(g)
    _require_block_graph(h)
    return canonical_code(g) == canonical_code(h)


def node_to_json(node: DecompositionNode) -> dict:
    """Nested plain-dict mirror of a decomposition tree, for reports."""
    out: dict = {"kind": node.kind, "size": node.size, "code": node.code}
    if node.kind == "top_block":
        out["z"] = node.z
        out["classes"] = [
            {"multiplicity": a, "node": node_to_json(c)} for c, a in node.classes
        ]
    elif node.children:
        out["children"] = [node_to_json(c) for c in node.children]
    return out
