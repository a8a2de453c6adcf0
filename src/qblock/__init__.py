"""Block-graph and block-cograph analyzer.

Computes exact Gromov hyperbolicity, block-cut structure, the recursive
decomposition of (rooted) block graphs with canonical codes deciding
classical and quantum isomorphism, and symbolic classical/quantum
automorphism group expressions, all cross-checked against brute-force
oracles.

Importing the package loads only the modules every analysis needs; the
other public names (and the submodules ``cographs``, ``decomposition``,
``groups`` and ``oracle``) load their module on first use.
"""

import sys as _sys
from importlib import import_module as _import_module

from .analyze import analyze_graph, classify
from .blocks import BlockCutStructure, block_cut_decomposition, block_graph_of, is_block_graph
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

# bound after ``.analyze`` has imported the submodule of the same name, so
# that ``qblock.hyperbolicity`` is the function, not the module
from .hyperbolicity import HyperbolicityResult, four_point_excess, hyperbolicity

#: Defining module of each public name that is loaded on first use; a
#: submodule maps to itself.
_LAZY = {
    **dict.fromkeys(
        (
            "CotreeNode",
            "canonical_code_cograph",
            "cotree_decompose",
            "expr_block_cograph",
            "is_block_cograph",
            "cographs",
        ),
        "cographs",
    ),
    **dict.fromkeys(
        (
            "AnchoredGraph",
            "DecompositionNode",
            "NotBlockGraphError",
            "RootedGraph",
            "anchored_graph",
            "canonical_code",
            "decompose",
            "decompose_rooted",
            "is_isomorphic",
            "psi",
            "rooted_components",
            "select_anchor",
            "decomposition",
        ),
        "decomposition",
    ),
    **dict.fromkeys(
        (
            "GroupExpr",
            "TRIV",
            "UnsupportedClassError",
            "block_graph_expr",
            "classical_order",
            "expr_from_decomposition",
            "has_quantum_symmetry",
            "is_commutative_quantum",
            "is_quantum_asymmetric",
            "normalize_expr",
            "product",
            "render_classical",
            "render_quantum",
            "sym",
            "wreath",
            "groups",
        ),
        "groups",
    ),
    **dict.fromkeys(
        (
            "AutomorphismSet",
            "CapExceededError",
            "DEFAULT_CAP",
            "SizeLimitError",
            "enumerate_automorphisms",
            "enumerate_labeled_graphs",
            "is_isomorphic_bruteforce",
            "random_block_cograph",
            "random_block_graph",
            "schmidt_bruteforce",
            "oracle",
        ),
        "oracle",
    ),
}

__version__ = "0.1.0"

__all__ = sorted([name for name in dir() if not name.startswith("_")] + list(_LAZY))


def __getattr__(name: str):
    # not cached here: the defining module's attribute is read on every
    # lookup, so a later patch of that module is seen
    home = _LAZY.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    full = f"{__name__}.{home}"
    module = _sys.modules.get(full) or _import_module(full)
    return module if name == home else getattr(module, name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
