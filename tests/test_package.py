"""The package's public names: the pinned list, where each one comes from,
and names resolved on first use."""

import importlib

import pytest

import qblock
from qblock.families import cycle_graph

#: Public names by defining module; "" lists the submodules in ``__all__``.
PUBLIC = {
    "analyze": ("analyze_graph", "classify"),
    "blocks": ("BlockCutStructure", "block_cut_decomposition", "block_graph_of", "is_block_graph"),
    "cographs": (
        "CotreeNode",
        "canonical_code_cograph",
        "cotree_decompose",
        "expr_block_cograph",
        "is_block_cograph",
    ),
    "decomposition": (
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
    ),
    "formats": (
        "AnalysisReport",
        "Graph6Error",
        "decode_graph6",
        "emit_report",
        "encode_graph6",
        "parse_edge_list",
    ),
    "graphs": (
        "INF",
        "DistanceProfile",
        "Graph",
        "GraphError",
        "NotConnectedError",
        "build_graph",
        "complement",
        "connected_components",
        "disjoint_union",
        "distance_profile",
        "induced_subgraph",
        "is_connected",
        "relabel",
    ),
    "groups": (
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
    ),
    "hyperbolicity": ("HyperbolicityResult", "four_point_excess", "hyperbolicity"),
    "oracle": (
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
    ),
    "": ("analyze", "blocks", "cographs", "decomposition", "formats", "graphs", "groups", "oracle"),
}


def test_all_is_the_pinned_list():
    expected = sorted(name for names in PUBLIC.values() for name in names)
    assert len(expected) == 78
    assert qblock.__all__ == expected


def test_every_name_is_its_defining_modules_object():
    for home, names in PUBLIC.items():
        for name in names:
            if home:
                assert getattr(qblock, name) is getattr(importlib.import_module(f"qblock.{home}"), name)
            else:
                assert getattr(qblock, name) is importlib.import_module(f"qblock.{name}")


def test_lazy_name_follows_a_patch_of_its_module(monkeypatch):
    import qblock.decomposition

    sentinel = object()
    monkeypatch.setattr(qblock.decomposition, "canonical_code", sentinel)
    assert qblock.canonical_code is sentinel


def test_hyperbolicity_stays_the_function_after_its_module_is_imported():
    import qblock.analyze
    import qblock.hyperbolicity
    import qblock.oracle

    assert callable(qblock.hyperbolicity)
    assert qblock.hyperbolicity(cycle_graph(4)).twice_delta == 2


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from qblock import *", namespace)
    assert set(qblock.__all__) <= set(namespace)
    assert namespace["canonical_code"] is qblock.canonical_code


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qblock.no_such_name
    assert not hasattr(qblock, "selftest_runner")
