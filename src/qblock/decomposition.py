"""Anchored and rooted graphs, the splitting operation, and canonical codes.

A connected block graph is anchored at its centre (always a cut vertex or a
whole complete block). Splitting at a cut vertex duplicates it into every
branch; splitting at a block deletes the block's internal edges. Either way
the result is a rooted graph whose components are strictly smaller rooted
block graphs, and recursing yields a tree whose canonical text code decides
isomorphism, and with it quantum isomorphism, for block graphs.

That tree comes from one pass over the pruned block-cut tree (cut vertices
and blocks; other vertices are counted, not visited), whose peeling leaf
layer by leaf layer finds the centre and orders children before parents;
each distinct subtree is built once. :func:`psi` keeps the splitting.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence
from math import inf
from operator import attrgetter

from .blocks import BlockCutStructure, block_cut_decomposition
from .graphs import (
    Graph,
    GraphError,
    NotConnectedError,
    Record,
    connected_components,
    disjoint_union,
    induced_subgraph,
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
    structure = block_cut_decomposition(g)
    if not g.n or any(structure.roots):  # connected: every vertex's root is 0
        raise NotConnectedError("anchored graphs are connected")
    q = tuple(sorted(set(anchor)))
    if not q:
        raise GraphError("anchor must be nonempty")
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
    """One step of the recursion, with the vertex count it covers (equal
    subtrees of one tree are one object).

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


LEAF_CODE = "•"  # after every ASCII character: leaves sort last among children
_LEAF = DecompositionNode("leaf_k1", 1, LEAF_CODE)
_by_code = attrgetter("code")
_KINDS = {"L": "degree_one_root", "B": "block_root", "C": "cut_root", "A": "top_cut"}


def _node(table: dict, bracket: str, kids: list[DecompositionNode], leaves: int = 0):
    """Node over ``kids`` and ``leaves`` leaves: ``B`` below a block's other
    vertices (``L`` if there is one), ``C`` (``A`` at an anchor) below two or
    more blocks of a cut vertex. ``table`` has one node per bracket and
    multiset of children: only a new one is built."""
    if len(kids) + leaves == 1:
        bracket = "L"
    key = (bracket, leaves, *sorted(map(id, kids)))
    node = table.get(key)
    if node is None:
        kids.sort(key=_by_code)
        children = (*kids, *[_LEAF] * leaves)
        size = 1 + sum(c.size for c in children) - (bracket in "AC") * len(children)
        body = ",".join(nd.code for nd in children)
        code = f"L({body})" if bracket == "L" else f"{bracket}{{{body}}}"
        node = table[key] = DecompositionNode(_KINDS[bracket], size, code, children)
    return node


def group_by_code(
    nodes: Iterable[DecompositionNode],
) -> list[tuple[DecompositionNode, int]]:
    """Isomorphism classes (by code) with multiplicities, sorted by code."""
    ordered = sorted(nodes, key=_by_code)
    out = []
    for _, grp in itertools.groupby(ordered, key=_by_code):
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
    structure = block_cut_decomposition(g)
    if not g.n or any(structure.roots):
        raise NotConnectedError("anchor selection needs a connected graph")
    return _require_complete(structure)


def _pruned_tree(structure: BlockCutStructure) -> dict[int, tuple[int, ...] | list[int]]:
    """Neighbours in the pruned block-cut tree: cut vertex v (id v) and block
    structure.blocks[i] (id ~i) by incidence; an isolated vertex's block has
    none. Other vertices are the vertex-block tree's leaves: cutting them off
    keeps its centre, and below a block they are counted, not visited."""
    blocks, adj = structure.blocks, {}
    for i, cuts in enumerate(structure.incidence):
        adj[~i] = cuts if len(blocks[i]) > 1 else ()
        for v in adj[~i]:
            adj.setdefault(v, []).append(~i)
    return adj


def _peel(structure: BlockCutStructure, adj: dict, table: dict, pinned: Sequence[int] = ()):
    """Peel off leaves but ``pinned`` nodes, first in, first out (layer by
    layer): the neighbour a node has left then is its parent with its
    component rooted at its pinned node, if any, else at its centre (the
    leaves are blocks, so that is one node). Returns the nodes below each
    root, by root: below block P, cut vertex v stands for the graph hanging
    at v away from P, rooted at v; below v, block B stands for v rooted on B."""
    blocks, incidence = structure.blocks, structure.incidence
    left = {x: len(ys) for x, ys in adj.items()}  # neighbours not yet removed
    left.update(dict.fromkeys(pinned, inf))
    order, gone, kids, roots = [x for x, d in left.items() if d < 2], set(), {}, {}
    for x in order:  # grows while read
        gone.add(x)
        below = kids.pop(x, [])
        for p in adj[x]:
            if p not in gone:
                break
        else:  # nothing left: the centre
            roots[x] = below
            continue
        left[p] -= 1
        if left[p] == 1:
            order.append(p)
        if x < 0:
            node = _node(table, "B", below, len(blocks[~x]) - len(incidence[~x]))
        else:  # a cut vertex with one block below stands for that block's node
            node = below[0] if len(below) == 1 else _node(table, "C", below)
        kids.setdefault(p, []).append(node)
    for x in pinned:
        roots[x] = kids.pop(x, [])
    return roots


def _top_node(structure: BlockCutStructure, x: int, kids: list) -> DecompositionNode:
    """Node of a component anchored at tree node ``x``, from its children."""
    if x >= 0:
        return _node({}, "A", kids)
    blk = structure.blocks[~x]
    z = len(blk) - len(structure.incidence[~x]) if len(blk) > 1 else 1
    cls = tuple(group_by_code(kids))
    body = ",".join(f"{node.code}^{a}" for node, a in cls)
    size = z + sum(node.size * a for node, a in cls)
    return DecompositionNode("top_block", size, f"Q{{{z};{body}}}", z=z, classes=cls)


def _rooted_nodes(structure: BlockCutStructure, roots: Iterable[int]) -> list[DecompositionNode]:
    """Node of the component of each vertex in ``roots``, rooted there: a cut
    vertex over its blocks, any other vertex as its block less itself."""
    adj, table, blocks = _pruned_tree(structure), {}, structure.blocks
    pins = [r if r in adj else ~structure.blocks_of_vertex[r][0] for r in roots]
    below = _peel(structure, adj, table, pins)
    out = []
    for x in pins:
        if x < 0 and len(blocks[~x]) == 1:  # an isolated vertex
            out.append(_LEAF)
        else:  # below the root's block, its non-cut vertices but the root are leaves
            leaves = len(blocks[~x]) - len(structure.incidence[~x]) - 1 if x < 0 else 0
            out.append(_node(table, "B" if x < 0 else "C", below[x], leaves))
    return out


def select_anchor(g: Graph) -> AnchoredGraph:
    """Anchor a connected block graph at its centre.

    The centre of a connected block graph is a cut vertex or exactly one
    complete block, so the result is always a valid anchored graph.
    """
    structure = _connected_block_structure(g)
    (x,) = _peel(structure, _pruned_tree(structure), {})
    if x >= 0:
        return AnchoredGraph(g, (x,), "cut")
    return AnchoredGraph(g, structure.blocks[~x], "block")


def decompose_rooted(rg: RootedGraph) -> DecompositionNode:
    """Decomposition of a connected rooted block graph.

    A single vertex is a leaf, a degree-1 root is peeled, a cut-vertex root
    splits the graph at itself, and an internal root is removed and the rest
    split at the remainder of its block.
    """
    return _rooted_nodes(_require_complete(block_cut_decomposition(rg.graph)), [rg.root])[0]


def decompose_components(structure: BlockCutStructure) -> tuple[DecompositionNode, ...]:
    """Decomposition of each component of a block graph, anchored at its
    centre, from the graph's block-cut structure; ordered by least vertex."""
    roots, blocks = _require_complete(structure).roots, structure.blocks
    below = _peel(structure, _pruned_tree(structure), {})
    tops = sorted(below, key=lambda x: roots[x if x >= 0 else blocks[~x][0]])
    return tuple(_top_node(structure, x, below[x]) for x in tops)


def decompose(g: Graph) -> DecompositionNode:
    """Decomposition of a connected block graph, anchored at its centre."""
    return decompose_components(_connected_block_structure(g))[0]


def union_code(nodes: Iterable[DecompositionNode]) -> str:
    """The code of a single component, else ``U{...}`` over sorted codes."""
    codes = sorted(nd.code for nd in nodes)
    return codes[0] if len(codes) == 1 else "U{" + ",".join(codes) + "}"


def canonical_code(x: Graph | RootedGraph | AnchoredGraph) -> str:
    """Deterministic text code equal exactly for isomorphic block graphs.

    Accepts a plain graph (possibly disconnected), a rooted graph, or an
    anchored graph; every component must be a block graph.
    """
    if isinstance(x, Graph):
        return union_code(decompose_components(block_cut_decomposition(x)))
    structure = _require_complete(block_cut_decomposition(x.graph))
    if isinstance(x, RootedGraph):
        return union_code(_rooted_nodes(structure, x.roots))
    a = x.anchor[0] if x.kind == "cut" else ~structure.blocks.index(x.anchor)
    return _top_node(structure, a, _peel(structure, _pruned_tree(structure), {}, [a])[a]).code


def is_isomorphic(g: Graph, h: Graph) -> bool:
    """Isomorphism of block graphs via canonical codes.

    Block graphs are superrigid, so the same verdict answers quantum
    isomorphism. Inputs outside the class are rejected.
    """
    return canonical_code(g) == canonical_code(h)
