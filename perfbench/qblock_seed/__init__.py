"""Block-graph and block-cograph analyzer.

Computes exact Gromov hyperbolicity, block-cut structure, the recursive
decomposition of (rooted) block graphs with canonical codes deciding
classical and quantum isomorphism, and symbolic classical/quantum
automorphism group expressions, all cross-checked against brute-force
oracles.
"""

from .analyze import analyze_graph, classify
from .blocks import BlockCutStructure, block_cut_decomposition, block_graph_of, is_block_graph
from .cographs import (
    CotreeNode,
    canonical_code_cograph,
    cotree_decompose,
    expr_block_cograph,
    is_block_cograph,
)
from .decomposition import (
    AnchoredGraph,
    DecompositionNode,
    NotBlockGraphError,
    RootedGraph,
    anchored_graph,
    canonical_code,
    decompose,
    decompose_rooted,
    is_isomorphic,
    psi,
    rooted_components,
    select_anchor,
)
from .formats import (
    AnalysisReport,
    Graph6Error,
    decode_graph6,
    emit_report,
    encode_graph6,
    parse_edge_list,
)
from .graphs import (
    INF,
    DistanceProfile,
    Graph,
    GraphError,
    NotConnectedError,
    build_graph,
    complement,
    connected_components,
    disjoint_union,
    distance_profile,
    induced_subgraph,
    is_connected,
    relabel,
)
from .groups import (
    GroupExpr,
    TRIV,
    UnsupportedClassError,
    block_graph_expr,
    classical_order,
    expr_from_decomposition,
    has_quantum_symmetry,
    is_commutative_quantum,
    is_quantum_asymmetric,
    normalize_expr,
    product,
    render_classical,
    render_quantum,
    sym,
    wreath,
)
from .hyperbolicity import HyperbolicityResult, four_point_excess, hyperbolicity
from .oracle import (
    AutomorphismSet,
    CapExceededError,
    DEFAULT_CAP,
    SizeLimitError,
    enumerate_automorphisms,
    enumerate_labeled_graphs,
    is_isomorphic_bruteforce,
    random_block_cograph,
    random_block_graph,
    schmidt_bruteforce,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
