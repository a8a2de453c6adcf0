"""Full per-graph analysis: ties every other module into one report.

:class:`GraphAnalysis` computes each artefact of one graph at most once; the
report of :func:`analyze_graph` and the CLI's class-specific subcommands
read their fields from it.
"""

from __future__ import annotations

from functools import cached_property

from .blocks import BlockCutStructure, block_cut_decomposition
from .cographs import CotreeNode, cotree_decompose, cotree_to_json, expr_from_cotree
from .decomposition import DecompositionNode, decompose_components, node_to_json, union_code
from .formats import AnalysisReport
from .graphs import DistanceProfile, Graph, distance_profile
from .groups import (
    GroupExpr,
    classical_order,
    expr_from_components,
    is_commutative_quantum,
    render_classical,
    render_quantum,
)
from .hyperbolicity import _four_point_scan


class GraphAnalysis:
    """One graph's block-cut structure, class, cotree, distance profile,
    decompositions, code and group expression, each built on first use.

    The class-specific fields (``decomposition`` to ``group_fields``) are
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
        return cotree_decompose(self.graph)

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
    def components(self) -> tuple[DecompositionNode, ...]:
        """Decomposition of each component; block graphs only."""
        return decompose_components(self.structure)

    @cached_property
    def decomposition(self) -> dict | None:
        """Decomposition tree, a ``disjoint_union`` of them, or cotree."""
        if self.is_block_graph:
            trees = [node_to_json(nd) for nd in self.components]
            return trees[0] if len(trees) == 1 else {"kind": "disjoint_union", "components": trees}
        return None if self.cotree is None else cotree_to_json(self.cotree)

    @cached_property
    def code(self) -> str | None:
        if self.is_block_graph:
            return union_code(self.components)
        return None if self.cotree is None else self.cotree.code

    @cached_property
    def expr(self) -> GroupExpr | None:
        if self.is_block_graph:
            return expr_from_components(self.components)
        return None if self.cotree is None else expr_from_cotree(self.cotree)

    @cached_property
    def group_fields(self) -> dict:
        """The report's readings of :attr:`expr`."""
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
    profile = a.profile
    hyp = _four_point_scan(profile)
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
