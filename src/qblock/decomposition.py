"""Anchored and rooted graphs, the splitting operation, and canonical codes.

A connected block graph is anchored at its centre (always a cut vertex or a
whole complete block). Splitting at a cut vertex duplicates it into every
branch; splitting at a block deletes the block's internal edges. Either way
the result is a rooted graph whose components are strictly smaller rooted
block graphs, and recursing yields a tree whose canonical text code decides
isomorphism, and with it quantum isomorphism, for block graphs.

The codes come from one pass over the pruned block-cut tree (cut vertices
and blocks; other vertices are counted, not visited, and so are leaf blocks,
those with one cut vertex, whose codes depend on their size alone), whose
peeling leaf layer by leaf layer finds the centre and writes each code
after its children's. The text is the first product. A caller that needs
more has each distinct code recorded once, children first, with its
bracket, child codes and leaf count: group expressions are read off those
records (``groups.expr_from_records``), and the
:class:`DecompositionNode` tree, one node per distinct code, is built from
them only for callers that read trees. :func:`canonical_code` keeps no
record and builds no node. :func:`psi` keeps the splitting.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence
from math import inf

from .blocks import BlockCutStructure, block_cut_decomposition, eccentricities
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
        return RootedGraph(union, tuple(off + lr for off, lr in zip(offsets, local_roots)))
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
    subtrees built by one call are one object).

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
_KINDS = {"L": "degree_one_root", "B": "block_root", "C": "cut_root", "A": "top_cut"}


def _code(records: dict | None, bracket: str, kids: list[str], leaves: int = 0) -> str:
    """Code over the child codes ``kids`` and ``leaves`` leaves: ``B`` below
    a block's other vertices (``L`` if there is one), ``C`` (``A`` at an
    anchor) below two or more blocks of a cut vertex, ``Q`` over a centre
    block with ``leaves`` internal vertices. Sorts ``kids``. A code not yet
    in ``records`` (if given) is recorded with its bracket, ``kids`` and
    ``leaves``: only group expressions and trees need that, and hashing
    every code would double the work on a long path."""
    kids.sort()
    if bracket == "Q":
        body = ",".join(f"{c}^{len(list(run))}" for c, run in itertools.groupby(kids))
        code = f"Q{{{leaves};{body}}}"
    elif len(kids) + leaves == 1:
        bracket = "L"
        code = f"L({kids[0] if kids else LEAF_CODE})"
    else:
        code = f"{bracket}{{{','.join(kids + [LEAF_CODE] * leaves)}}}"
    if records is not None and code not in records:
        records[code] = (bracket, kids, leaves)
    return code


def _build_nodes(codes: Iterable[str], records: dict) -> tuple[DecompositionNode, ...]:
    """The node of each of ``codes``, from the ``records`` of the peel that
    wrote them: one node per distinct code, children first (the order in
    which the codes were recorded)."""
    nodes = {LEAF_CODE: _LEAF}
    for code, (bracket, kids, leaves) in records.items():
        if bracket == "Q":
            classes = tuple((nodes[c], len(list(run))) for c, run in itertools.groupby(kids))
            size = leaves + sum(nodes[c].size for c in kids)
            nodes[code] = DecompositionNode("top_block", size, code, z=leaves, classes=classes)
        else:
            children = (*map(nodes.__getitem__, kids), *[_LEAF] * leaves)
            size = 1 + sum(c.size for c in children) - (bracket in "AC") * len(children)
            nodes[code] = DecompositionNode(_KINDS[bracket], size, code, children)
    return tuple(map(nodes.__getitem__, codes))


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


def _pruned_tree(
    structure: BlockCutStructure, records: dict | None, pins: set[int]
) -> tuple[list[int], list[int], list[int], dict[int, list[str]]]:
    """The inner block-cut tree, as ``(nodes, left, rest, kids)``: its nodes
    (cut vertex v has id v, block structure.blocks[i] id ~i); by id, each
    node's number of neighbours and the sum of their ids, in lists that a
    vertex indexes from the front and a block, by its negative id, from the
    back; and the codes already below each node.

    Vertices in one block only are the vertex-block tree's leaves, and a
    leaf block (two or more vertices, one cut vertex v, not in ``pins``) is
    a leaf of what is left: cutting either off keeps the centre, which is
    unique. So they are counted, not visited: a leaf block is left out, and
    its code, ``L(•)`` or ``B{•,...}`` by its size, goes into ``kids[v]``. A
    cut vertex left with no neighbours is the centre of its component; so
    is an isolated vertex's block.
    """
    blocks, size = structure.blocks, len(structure.roots) + len(structure.blocks)
    left, rest, nodes, kids, by_size = [0] * size, [0] * size, [], {}, {}
    for i, cuts in enumerate(structure.incidence):
        x, k = ~i, len(blocks[i])
        if k == 1:  # an isolated vertex: its own cut vertex by convention, yet no node
            left[cuts[0]] = -1
            nodes.append(x)
        elif len(cuts) == 1 and x not in pins:  # a leaf block
            if k not in by_size:
                by_size[k] = _code(records, "B", [], k - 1)
            if cuts[0] in kids:
                kids[cuts[0]].append(by_size[k])
            else:
                kids[cuts[0]] = [by_size[k]]
        else:
            nodes.append(x)
            left[x] = len(cuts)
            rest[x] = sum(cuts)
            for v in cuts:
                left[v] += 1
                rest[v] += x
    nodes += [v for v in structure.cut_vertices if left[v] >= 0]
    return nodes, left, rest, kids


def _peel(
    structure: BlockCutStructure, records: dict | None, pinned: Sequence[int] = ()
) -> dict[int, list[str]]:
    """Peel the inner block-cut tree of :func:`_pruned_tree` off leaf by leaf,
    but ``pinned`` nodes, first in, first out (layer by layer): the neighbour
    a node has left then, the sum of those it had less those gone, is its
    parent with its component rooted at its pinned node, if any, else at its
    centre. Returns the codes below each root, by root: below block P, cut
    vertex v stands for the graph hanging at v away from P, rooted at v;
    below v, block B stands for v rooted on B. Codes are written by
    :func:`_code`, which keeps ``records``."""
    blocks = structure.blocks
    nodes, left, rest, kids = _pruned_tree(structure, records, set(pinned))
    for x in pinned:
        left[x] = inf
    order, roots = [x for x in nodes if left[x] < 2], {}
    for x in order:  # grows while read
        below = kids.pop(x, [])
        if not left[x]:  # nothing left: the centre
            roots[x] = below
            continue
        p = rest[x]
        left[p] -= 1
        rest[p] -= x
        if left[p] == 1:
            order.append(p)
        if x < 0:  # its cut vertices but the parent stand below it, the rest are leaves
            code = _code(records, "B", below, len(blocks[~x]) - len(below) - 1)
        else:  # a cut vertex with one block below stands for that block's code
            code = below[0] if len(below) == 1 else _code(records, "C", below)
        if p in kids:
            kids[p].append(code)
        else:
            kids[p] = [code]
    for x in pinned:
        roots[x] = kids.pop(x, [])
    return roots


def _top_code(structure: BlockCutStructure, records: dict | None, x: int, kids: list[str]) -> str:
    """Code of a component anchored at tree node ``x``, from its children's:
    one per block around a cut vertex, one per cut vertex of a block (its
    other vertices are leaves)."""
    if x >= 0:
        return _code(records, "A", kids)
    return _code(records, "Q", kids, len(structure.blocks[~x]) - len(kids))


def _rooted_codes(structure: BlockCutStructure, records: dict | None, roots: Iterable[int]) -> list[str]:
    """Code of the component of each vertex in ``roots``, rooted there: a cut
    vertex over its blocks, any other vertex as its block less itself."""
    blocks, of = structure.blocks, structure.blocks_of_vertex
    pins = [r if len(of[r]) > 1 else ~of[r][0] for r in roots]  # a cut vertex is in two or more blocks
    below = _peel(structure, records, pins)
    out = []
    for x in pins:
        if x < 0 and len(blocks[~x]) == 1:  # an isolated vertex
            out.append(LEAF_CODE)
        else:  # below the root's block, its non-cut vertices but the root are leaves
            leaves = len(blocks[~x]) - len(below[x]) - 1 if x < 0 else 0
            out.append(_code(records, "B" if x < 0 else "C", below[x], leaves))
    return out


def component_codes(structure: BlockCutStructure, records: dict | None = None) -> list[str]:
    """Code of each component of a block graph, anchored at its centre, from
    the graph's block-cut structure; ordered by least vertex. The records
    that group expressions and :func:`_build_nodes` read go to ``records``,
    if given."""
    roots, blocks = _require_complete(structure).roots, structure.blocks
    below = _peel(structure, records)
    tops = sorted(below, key=lambda x: roots[x if x >= 0 else blocks[~x][0]])
    return [_top_code(structure, records, x, below[x]) for x in tops]


def select_anchor(g: Graph) -> AnchoredGraph:
    """Anchor a connected block graph at its centre.

    The centre of a connected block graph is a cut vertex or exactly one
    complete block, so the result is always a valid anchored graph.
    """
    structure = _connected_block_structure(g)
    ecc = eccentricities(structure, {})  # every block is complete
    radius = min(ecc)
    centre = tuple(v for v, e in enumerate(ecc) if e == radius)
    return AnchoredGraph(g, centre, "block" if centre in structure.blocks else "cut")


def decompose_rooted(rg: RootedGraph) -> DecompositionNode:
    """Decomposition of a connected rooted block graph.

    A single vertex is a leaf, a degree-1 root is peeled, a cut-vertex root
    splits the graph at itself, and an internal root is removed and the rest
    split at the remainder of its block.
    """
    structure, records = _require_complete(block_cut_decomposition(rg.graph)), {}
    return _build_nodes(_rooted_codes(structure, records, [rg.root]), records)[0]


def decompose_components(structure: BlockCutStructure) -> tuple[DecompositionNode, ...]:
    """Decomposition of each component of a block graph, anchored at its
    centre, from the graph's block-cut structure; ordered by least vertex."""
    records: dict = {}
    return _build_nodes(component_codes(structure, records), records)


def decompose(g: Graph) -> DecompositionNode:
    """Decomposition of a connected block graph, anchored at its centre."""
    return decompose_components(_connected_block_structure(g))[0]


def join_codes(codes: Iterable[str]) -> str:
    """The code of a single component, else ``U{...}`` over sorted codes."""
    codes = sorted(codes)
    return codes[0] if len(codes) == 1 else "U{" + ",".join(codes) + "}"


def canonical_code(x: Graph | RootedGraph | AnchoredGraph) -> str:
    """Deterministic text code equal exactly for isomorphic block graphs.

    Accepts a plain graph (possibly disconnected), a rooted graph, or an
    anchored graph; every component must be a block graph. Builds no
    :class:`DecompositionNode`.
    """
    if isinstance(x, Graph):
        return join_codes(component_codes(block_cut_decomposition(x)))
    structure = _require_complete(block_cut_decomposition(x.graph))
    if isinstance(x, RootedGraph):
        return join_codes(_rooted_codes(structure, None, x.roots))
    a = x.anchor[0] if x.kind == "cut" else ~structure.blocks.index(x.anchor)
    return _top_code(structure, None, a, _peel(structure, None, [a])[a])


def is_isomorphic(g: Graph, h: Graph) -> bool:
    """Isomorphism of block graphs via canonical codes.

    Block graphs are superrigid, so the same verdict answers quantum
    isomorphism. Inputs outside the class are rejected.
    """
    return canonical_code(g) == canonical_code(h)
