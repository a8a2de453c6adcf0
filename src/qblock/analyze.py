"""Full per-graph analysis: ties every other module into one report.

:class:`GraphAnalysis` computes each artefact of one graph at most once; the
report of :func:`analysis_report` and the CLI's subcommands read their
fields from it.
"""

from __future__ import annotations

from functools import cached_property

from .blocks import BlockCutStructure, block_cut_decomposition, eccentricities
from .formats import AnalysisReport, encode_graph6
from .graphs import ComponentProfile, Graph
from .hyperbolicity import HyperbolicityResult, four_point_scan

# imported where first needed, so that hyperbolicity alone never loads them
TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing at start-up
if TYPE_CHECKING:
    from .cographs import CotreeNode
    from .decomposition import DecompositionNode
    from .groups import GroupExpr


class GraphAnalysis:
    """One graph's block-cut structure, class, cotree, hyperbolicity,
    eccentricities, decompositions, code and group expression, each built on
    first use.

    Eccentricities, and each component's radius, diameter and centre, are
    read off the block-cut tree; no all-pairs distance table is built.

    The class-specific fields (``tops`` to ``group_fields``) are
    ``None`` or all-``None`` for unsupported graphs.
    """

    def __init__(self, g: Graph):
        self.graph = g
        self.rows: dict = {}  # the scan's distance rows of incomplete blocks
        self.records: dict = {}  # by code, children first

    @cached_property
    def structure(self) -> BlockCutStructure:
        return block_cut_decomposition(self.graph)

    @property
    def is_block_graph(self) -> bool:
        return self.structure.all_blocks_complete

    @cached_property
    def cotree(self) -> CotreeNode | None:
        from .cographs import cotree_decompose

        # a block graph's records are its components' (see tops)
        return cotree_decompose(self.graph, self.structure, None if self.is_block_graph else self.records)

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
    def hyperbolicity(self) -> HyperbolicityResult:
        return four_point_scan(self.graph, self.structure, self.rows)

    @cached_property
    def eccentricity(self) -> list[int]:
        """Each vertex's eccentricity in its component (:func:`eccentricities`),
        from the rows that the scan keeps of the blocks that are not complete."""
        self.hyperbolicity  # the scan fills self.rows
        return eccentricities(self.structure, self.rows)

    @cached_property
    def components(self) -> tuple[ComponentProfile, ...]:
        """Each component's vertices, radius, diameter and centre, by least vertex."""
        ecc, out = self.eccentricity, []
        for cell in self.structure.components:
            values = [ecc[v] for v in cell]
            radius = min(values)
            centre = tuple(v for v, e in zip(cell, values) if e == radius)
            out.append(ComponentProfile(cell, radius, max(values), centre))
        return tuple(out)

    @cached_property
    def tops(self) -> tuple[str, ...] | None:
        """Component codes of a block graph, else ``(cotree.code,)`` or ``None``; records go to ``records``."""
        if self.is_block_graph:
            from .decomposition import component_codes

            return tuple(component_codes(self.structure, self.records))
        return None if self.cotree is None else (self.cotree.code,)

    @cached_property
    def decomposition(self) -> dict | None:
        """Decomposition tree, a ``disjoint_union`` of them (from :attr:`tops`), or cotree."""
        if self.is_block_graph:
            from .decomposition import _build_nodes

            trees = _build_nodes(self.tops, self.records)
        elif self.cotree is None:
            return None
        else:
            trees = (self.cotree,)
        out = [tree_to_json(t) for t in trees]
        return out[0] if len(out) == 1 else {"kind": "disjoint_union", "components": out}

    @cached_property
    def code(self) -> str | None:
        """Canonical code, read off :attr:`tops` once written; until then a block
        graph's is written keeping no record (records hold every full text code)."""
        if self.graph_class == "unsupported":
            return None
        from .decomposition import component_codes, join_codes

        if self.is_block_graph and "tops" not in self.__dict__:
            return join_codes(component_codes(self.structure))
        return join_codes(self.tops)

    @cached_property
    def expr(self) -> GroupExpr | None:
        if self.tops is None:
            return None
        from .groups import expr_from_records

        return expr_from_records(self.records, self.tops)

    @cached_property
    def group_fields(self) -> dict:
        """The report's readings of :attr:`expr`."""
        if self.expr is None:
            return dict.fromkeys(
                ("aut_expr", "qaut_expr", "aut_order", "has_quantum_symmetry", "is_quantum_asymmetric")
            )
        from .groups import _is_commutative, classical_order, render_classical, render_quantum

        order = classical_order(self.expr)
        return {
            "aut_expr": render_classical(self.expr),
            "qaut_expr": render_quantum(self.expr),
            "aut_order": order,
            "has_quantum_symmetry": not _is_commutative(self.expr),  # in normal form
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
    """Analyze one graph: the :func:`analysis_report` of its analysis."""
    return analysis_report(GraphAnalysis(g), input_id)


def analysis_report(a: GraphAnalysis, input_id: str) -> AnalysisReport:
    """The report of one graph's analysis.

    Structural fields are always filled in; the group-theoretic fields are
    ``None`` outside the supported classes, where the underlying theorems
    give no verdict.
    """
    g, comps, hyp = a.graph, a.components, a.hyperbolicity
    connected = len(comps) == 1
    per_component = [
        {
            "vertices": list(comp.vertices),
            "radius": comp.radius,
            "diameter": comp.diameter,
            "centre": list(comp.centre),
            "hyperbolicity": twice / 2,
        }
        for comp, (_, twice) in zip(comps, hyp.per_component)
    ]
    anchor = None
    if a.is_block_graph and connected:
        centre = comps[0].centre
        kind = "block" if centre in a.structure.blocks else "cut"
        anchor = {"kind": kind, "vertices": list(centre)}
    return AnalysisReport(
        input=input_id,
        graph_class=a.graph_class,
        n=g.n,
        m=g.m,
        connected=connected,
        hyperbolicity=hyp.twice_delta / 2,
        per_component=per_component,
        is_block_graph=a.is_block_graph,
        is_block_cograph=a.is_block_cograph,
        blocks=[list(b) for b in a.structure.blocks],
        cut_vertices=list(a.structure.cut_vertices),
        centre=list(comps[0].centre) if connected else None,
        anchor=anchor,
        decomposition=a.decomposition,
        canonical_code=a.code,
        **a.group_fields,
    )
