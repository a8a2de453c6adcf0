"""Full per-graph analysis: ties every other module into one report.

:class:`GraphAnalysis` computes each artefact of one graph at most once; the
report of :func:`analyze_graph` and the CLI's class-specific subcommands
read their fields from it.
"""

from __future__ import annotations

from functools import cached_property

from .blocks import BlockCutStructure, block_cut_decomposition
from .formats import AnalysisReport, encode_graph6
from .graphs import DistanceProfile, Graph, distance_profile
from .hyperbolicity import HyperbolicityResult, four_point_scan

# imported where first needed, so that hyperbolicity alone never loads them
TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing at start-up
if TYPE_CHECKING:
    from .cographs import CotreeNode
    from .decomposition import DecompositionNode
    from .groups import GroupExpr


class GraphAnalysis:
    """One graph's block-cut structure, class, cotree, distance profile,
    hyperbolicity, decompositions, code and group expression, each built on
    first use.

    The class-specific fields (``trees`` to ``group_fields``) are
    ``None`` or all-``None`` for unsupported graphs.
    """

    def __init__(self, g: Graph):
        self.graph = g

    @cached_property
    def structure(self) -> BlockCutStructure:
        return block_cut_decomposition(self.graph)

    @property
    def is_block_graph(self) -> bool:
        return self.structure.all_blocks_complete

    @cached_property
    def cotree(self) -> CotreeNode | None:
        from .cographs import cotree_decompose

        return cotree_decompose(self.graph, self.structure)

    @cached_property
    def graph_class(self) -> str:
        """Most specific class: "block-graph", "block-cograph", or "unsupported"."""
        if self.is_block_graph:
            return "block-graph"
        return "block-cograph" if self.cotree is not None else "unsupported"

    @property
    def is_block_cograph(self) -> bool:
        return self.graph_class != "unsupported" and self.graph.n > 0

    @cached_property
    def profile(self) -> DistanceProfile:
        return distance_profile(self.graph)

    @cached_property
    def hyperbolicity(self) -> HyperbolicityResult:
        return four_point_scan(self.graph, self.structure)

    @cached_property
    def trees(self) -> tuple[DecompositionNode | CotreeNode, ...] | None:
        """Per-component decompositions of a block graph, else ``(cotree,)`` or ``None``."""
        if self.is_block_graph:
            from .decomposition import decompose_components

            return decompose_components(self.structure)
        return None if self.cotree is None else (self.cotree,)

    @cached_property
    def decomposition(self) -> dict | None:
        """Decomposition tree, a ``disjoint_union`` of them, or cotree."""
        if self.trees is None:
            return None
        out = [tree_to_json(t) for t in self.trees]
        return out[0] if len(out) == 1 else {"kind": "disjoint_union", "components": out}

    @cached_property
    def code(self) -> str | None:
        from .decomposition import union_code

        return None if self.trees is None else union_code(self.trees)

    @cached_property
    def expr(self) -> GroupExpr | None:
        from .groups import expr_from_components

        return None if self.trees is None else expr_from_components(self.trees)

    @cached_property
    def group_fields(self) -> dict:
        """The report's readings of :attr:`expr`."""
        from .groups import classical_order, is_commutative_quantum, render_classical, render_quantum

        if self.expr is None:
            return dict.fromkeys(
                ("aut_expr", "qaut_expr", "aut_order", "has_quantum_symmetry", "is_quantum_asymmetric")
            )
        order = classical_order(self.expr)
        return {
            "aut_expr": render_classical(self.expr),
            "qaut_expr": render_quantum(self.expr),
            "aut_order": order,
            "has_quantum_symmetry": not is_commutative_quantum(self.expr),
            "is_quantum_asymmetric": order == 1,
        }


def tree_to_json(node: DecompositionNode | CotreeNode) -> dict:
    """Nested plain-dict mirror of a decomposition tree or cotree, for reports;
    a cotree leaf, the only node of kind ``leaf`` (a decomposition's single
    vertex is ``leaf_k1``), records its graph in place of children.

    Built with an explicit stack, so tree depth is not bounded by the
    recursion limit: a child's slot in its parent's dict holds the child
    node until the child's own dict replaces it.
    """
    root = [node]
    stack = [(node, root, 0)]
    while stack:
        node, slot, key = stack.pop()
        out = slot[key] = {"kind": node.kind, "size": node.size, "code": node.code}
        if node.kind == "top_block":
            out["z"] = node.z
            classes = out["classes"] = []
            for c, a in node.classes:
                entry = {"multiplicity": a, "node": c}
                classes.append(entry)
                stack.append((c, entry, "node"))
        elif node.kind == "leaf":
            out["tag"] = node.tag
            out["graph6"] = encode_graph6(node.graph)
        elif node.children:
            children = out["children"] = list(node.children)
            for i, c in enumerate(children):
                stack.append((c, children, i))
    return root[0]


def classify(g: Graph) -> str:
    """Most specific class: "block-graph", "block-cograph", or "unsupported"."""
    return GraphAnalysis(g).graph_class


def analyze_graph(g: Graph, input_id: str = "-") -> AnalysisReport:
    """Analyze one graph.

    Structural fields are always filled in; the group-theoretic fields are
    ``None`` outside the supported classes, where the underlying theorems
    give no verdict.
    """
    a = GraphAnalysis(g)
    profile, hyp = a.profile, a.hyperbolicity
    per_component = [
        {
            "vertices": list(comp.vertices),
            "radius": comp.radius,
            "diameter": comp.diameter,
            "centre": list(comp.centre),
            "hyperbolicity": twice / 2,
        }
        for comp, (_, twice) in zip(profile.components, hyp.per_component)
    ]
    anchor = None
    if a.is_block_graph and profile.connected:
        kind = "block" if profile.centre in a.structure.blocks else "cut"
        anchor = {"kind": kind, "vertices": list(profile.centre)}
    return AnalysisReport(
        input=input_id,
        graph_class=a.graph_class,
        n=g.n,
        m=g.m,
        connected=profile.connected,
        hyperbolicity=hyp.twice_delta / 2,
        per_component=per_component,
        is_block_graph=a.is_block_graph,
        is_block_cograph=a.is_block_cograph,
        blocks=[list(b) for b in a.structure.blocks],
        cut_vertices=list(a.structure.cut_vertices),
        centre=list(profile.centre) if profile.connected else None,
        anchor=anchor,
        decomposition=a.decomposition,
        canonical_code=a.code,
        **a.group_fields,
    )
