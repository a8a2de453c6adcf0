"""Full per-graph analysis: ties every other module into one report."""

from __future__ import annotations

from .blocks import block_cut_decomposition, is_block_graph
from .cographs import cotree_decompose, cotree_to_json, expr_from_cotree
from .decomposition import canonical_code, decompose, node_to_json, select_anchor
from .formats import AnalysisReport
from .graphs import Graph, connected_components, distance_profile, induced_subgraph
from .groups import (
    block_graph_expr,
    classical_order,
    is_commutative_quantum,
    render_classical,
    render_quantum,
)
from .hyperbolicity import hyperbolicity


def classify(g: Graph) -> str:
    """Most specific class: "block-graph", "block-cograph", or "unsupported"."""
    if is_block_graph(g):
        return "block-graph"
    if cotree_decompose(g) is not None:
        return "block-cograph"
    return "unsupported"


def analyze_graph(g: Graph, input_id: str = "-") -> AnalysisReport:
    """Analyze one graph.

    Structural fields are always filled in; the group-theoretic fields are
    ``None`` outside the supported classes, where the underlying theorems
    give no verdict.
    """
    profile = distance_profile(g)
    hyp = hyperbolicity(g)
    structure = block_cut_decomposition(g)
    block_graph = is_block_graph(g)
    cotree = None if block_graph else cotree_decompose(g)

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

    anchor = decomposition = expr = code = None
    if block_graph:
        expr = block_graph_expr(g)
        code = canonical_code(g)
        if profile.connected:
            anchored = select_anchor(g)
            anchor = {"kind": anchored.kind, "vertices": list(anchored.anchor)}
            decomposition = node_to_json(decompose(g))
        else:
            decomposition = {
                "kind": "disjoint_union",
                "components": [
                    node_to_json(decompose(induced_subgraph(g, cell)[0]))
                    for cell in connected_components(g)
                ],
            }
    elif cotree is not None:
        expr = expr_from_cotree(cotree)
        code = cotree.code
        decomposition = cotree_to_json(cotree)

    if expr is not None:
        aut_expr = render_classical(expr)
        qaut_expr = render_quantum(expr)
        aut_order = classical_order(expr)
        quantum_symmetry = not is_commutative_quantum(expr)
        quantum_asymmetric = aut_order == 1
    else:
        aut_expr = qaut_expr = aut_order = None
        quantum_symmetry = quantum_asymmetric = None

    return AnalysisReport(
        input=input_id,
        graph_class="block-graph" if block_graph else (
            "block-cograph" if cotree is not None else "unsupported"
        ),
        n=g.n,
        m=g.m,
        connected=profile.connected,
        hyperbolicity=hyp.twice_delta / 2,
        per_component=per_component,
        is_block_graph=block_graph,
        is_block_cograph=block_graph and g.n > 0 or cotree is not None,
        blocks=[list(b) for b in structure.blocks],
        cut_vertices=list(structure.cut_vertices),
        centre=list(profile.centre) if profile.connected else None,
        anchor=anchor,
        decomposition=decomposition,
        aut_expr=aut_expr,
        qaut_expr=qaut_expr,
        aut_order=aut_order,
        has_quantum_symmetry=quantum_symmetry,
        is_quantum_asymmetric=quantum_asymmetric,
        canonical_code=code,
    )
