"""The twelve immutable records behave as the frozen dataclasses they replaced.

Each record is checked against a frozen-dataclass twin declared here with the
same fields and defaults. The module needs no pytest:
``python tests/test_records.py`` runs every check.
"""

from __future__ import annotations

import copy
import pickle
from dataclasses import dataclass, fields

from qblock.analyze import analyze_graph
from qblock.blocks import BlockCutStructure, block_cut_decomposition
from qblock.cographs import CotreeNode, cotree_decompose
from qblock.decomposition import (
    AnchoredGraph,
    DecompositionNode,
    RootedGraph,
    decompose,
    psi,
    select_anchor,
)
from qblock.families import bull_graph, cycle_graph, path_graph
from qblock.formats import AnalysisReport
from qblock.graphs import ComponentProfile, DistanceProfile, Graph, GraphError, Record, distance_profile
from qblock.groups import GroupExpr, sym, wreath
from qblock.hyperbolicity import HyperbolicityResult, hyperbolicity
from qblock.oracle import AutomorphismSet, enumerate_automorphisms


class Twin:
    """Frozen dataclasses with the fields and defaults of each record."""

    @dataclass(frozen=True)
    class Graph:
        n: int
        edges: frozenset[tuple[int, int]]

    @dataclass(frozen=True)
    class ComponentProfile:
        vertices: tuple[int, ...]
        radius: int
        diameter: int
        centre: tuple[int, ...]

    @dataclass(frozen=True)
    class DistanceProfile:
        dist: tuple[tuple, ...]
        ecc: tuple
        radius: object
        diameter: object
        centre: tuple[int, ...]
        connected: bool
        components: tuple[ComponentProfile, ...]

    @dataclass(frozen=True)
    class BlockCutStructure:
        blocks: tuple[tuple[int, ...], ...]
        cut_vertices: tuple[int, ...]
        all_blocks_complete: bool
        roots: tuple[int, ...]
        tree: tuple[tuple[int, int], ...]

    @dataclass(frozen=True)
    class AnalysisReport:
        input: str
        graph_class: str
        n: int
        m: int
        connected: bool
        hyperbolicity: float
        per_component: list[dict]
        is_block_graph: bool
        is_block_cograph: bool
        blocks: list[list[int]]
        cut_vertices: list[int]
        centre: list[int] | None
        anchor: dict | None
        decomposition: dict | None
        aut_expr: str | None
        qaut_expr: str | None
        aut_order: int | None
        has_quantum_symmetry: bool | None
        is_quantum_asymmetric: bool | None
        canonical_code: str | None

    @dataclass(frozen=True)
    class HyperbolicityResult:
        twice_delta: int
        witness: tuple[int, int, int, int] | None
        per_component: tuple[tuple[int, int], ...]
        connected: bool

    @dataclass(frozen=True)
    class AnchoredGraph:
        graph: Graph
        anchor: tuple[int, ...]
        kind: str

    @dataclass(frozen=True)
    class RootedGraph:
        graph: Graph
        roots: tuple[int, ...]

    @dataclass(frozen=True)
    class DecompositionNode:
        kind: str
        size: int
        code: str
        children: tuple = ()
        z: int = 0
        classes: tuple = ()

    @dataclass(frozen=True)
    class GroupExpr:
        kind: str
        n: int = 0
        factors: tuple = ()
        base: object = None

    @dataclass(frozen=True)
    class CotreeNode:
        kind: str
        size: int
        code: str
        children: tuple = ()
        graph: object = None
        tag: str | None = None
        side: object = None

    @dataclass(frozen=True)
    class AutomorphismSet:
        perms: tuple[tuple[int, ...], ...]
        order: int


def _samples() -> list[Record]:
    """One record of each class, as the library builds them."""
    bull = bull_graph()
    profile = distance_profile(bull)
    anchored = select_anchor(bull)
    return [
        bull,
        profile.components[0],
        profile,
        block_cut_decomposition(bull),
        analyze_graph(bull, "line:1"),
        hyperbolicity(cycle_graph(5)),
        anchored,
        psi(anchored),
        decompose(bull),
        wreath(sym(2), 3),
        cotree_decompose(path_graph(4)),
        enumerate_automorphisms(bull),
    ]


RECORDS = (
    Graph,
    ComponentProfile,
    DistanceProfile,
    BlockCutStructure,
    AnalysisReport,
    HyperbolicityResult,
    AnchoredGraph,
    RootedGraph,
    DecompositionNode,
    GroupExpr,
    CotreeNode,
    AutomorphismSet,
)


def _twin(record: Record):
    cls = getattr(Twin, type(record).__name__)
    return cls(*(getattr(record, f.name) for f in fields(cls)))


def _hash(x) -> int | str:
    """``hash(x)``, or a mark for a record with an unhashable field value."""
    try:
        return hash(x)
    except TypeError:
        return "unhashable"


def _raises(exc_type, fn, *args, **kwargs) -> None:
    try:
        fn(*args, **kwargs)
    except exc_type:
        return
    raise AssertionError(f"{fn.__name__} did not raise {exc_type.__name__}")


def test_every_record_has_a_sample_and_its_twins_fields():
    samples = _samples()
    assert [type(r) for r in samples] == list(RECORDS)
    for r in samples:
        twin = getattr(Twin, type(r).__name__)
        assert r._fields == tuple(f.name for f in fields(twin))


def test_repr_equality_and_hash_match_the_twin():
    for r in _samples():
        twin = _twin(r)
        assert repr(r) == repr(twin).removeprefix("Twin.")
        assert _hash(r) == _hash(twin)
        again = type(r)(**{name: getattr(r, name) for name in r._fields})
        assert again == r and not again != r and _hash(again) == _hash(r)
        # no record equals a record of another class, nor its own field tuple
        assert r != twin and r != type(r)._values(r)


def test_defaults_match_the_twin():
    cases = [
        (DecompositionNode, ("leaf_k1", 1, "•")),
        (GroupExpr, ("triv",)),
        (CotreeNode, ("union", 2, "u()")),
    ]
    for cls, required in cases:
        assert repr(cls(*required)) == repr(getattr(Twin, cls.__name__)(*required)).removeprefix("Twin.")
    assert GroupExpr("sym", n=3) == GroupExpr("sym", 3, (), None)
    assert GroupExpr("product", factors=(sym(2), sym(3))).base is None


def test_records_of_different_classes_are_unequal():
    class A(Record):
        x: int
        y: int

    class B(Record):
        x: int
        y: int

    assert A(1, 2) == A(1, 2) and A(1, 2) != B(1, 2) and A(1, 2) != (1, 2)
    assert repr(A(1, y=2)).endswith("A(x=1, y=2)")


def test_assignment_and_deletion_raise_attribute_error():
    for r in _samples():
        name, before = r._fields[0], repr(r)
        _raises(AttributeError, setattr, r, name, None)
        _raises(AttributeError, setattr, r, "new_name", None)
        _raises(AttributeError, delattr, r, name)
        assert repr(r) == before


def test_missing_unknown_or_repeated_arguments_raise_type_error():
    for r in _samples():
        cls, values = type(r), type(r)._values(r)
        _raises(TypeError, cls)
        _raises(TypeError, cls, *values, unknown=1)
        _raises(TypeError, cls, *values, values[-1])
        _raises(TypeError, cls, *values, **{r._fields[0]: values[0]})
        _raises(TypeError, cls, **{name: getattr(r, name) for name in r._fields[1:]})


def test_pickle_and_deepcopy_round_trips():
    for r in _samples():
        for other in (pickle.loads(pickle.dumps(r)), copy.deepcopy(r), copy.copy(r)):
            assert type(other) is type(r) and other == r and repr(other) == repr(r)


def test_rooted_graph_sorts_its_roots_and_rejects_duplicates():
    two_edges = Graph(4, frozenset({(0, 1), (2, 3)}))
    assert RootedGraph(two_edges, (3, 0)).roots == (0, 3)
    assert RootedGraph(graph=two_edges, roots=[2, 1]).roots == (1, 2)
    _raises(GraphError, RootedGraph, two_edges, (0, 0))
    _raises(GraphError, RootedGraph, two_edges, (0, 1))


def test_cached_properties_are_computed_once():
    g = bull_graph()
    assert "adjacency" not in vars(g)
    first = g.adjacency
    assert vars(g)["adjacency"] is first and g.adjacency is first
    assert g == bull_graph() and hash(g) == hash(bull_graph())
    structure = block_cut_decomposition(g)
    assert structure.incidence is structure.incidence
    profile = distance_profile(g)
    assert profile.eccentric_sets is profile.eccentric_sets


def test_a_default_may_not_precede_a_field_without_one():
    def declare():
        class Bad(Record):
            x: int = 0
            y: int

    _raises(TypeError, declare)


if __name__ == "__main__":
    for name, check in list(globals().items()):
        if name.startswith("test_"):
            check()
            print("ok", name)
