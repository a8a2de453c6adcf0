"""Symbolic automorphism groups with a classical and a quantum reading.

One expression grammar covers both readings: Triv / Sym(n) / Product /
Wreath(base, n) reads classically as the trivial group, S_n, direct product
and wreath product with S_n, and quantumly as C, S_n^+, free product and
free wreath product with S_n^+. The two formulas for a block graph are
term-for-term parallel, so a single grammar keeps them from drifting apart.

Expressions are read off the records that block-graph codes and cotree
codes are written with, one normal-form level per distinct code, children
first; no tree is walked.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from itertools import groupby
from operator import attrgetter

from .blocks import block_cut_decomposition
from .decomposition import LEAF_CODE, DecompositionNode, component_codes
from .graphs import Graph, Record


class UnsupportedClassError(ValueError):
    """Quantum verdicts are only justified for block graphs and block-cographs."""


class GroupExpr(Record):
    """Expression over {Triv, Sym(n), Product, Wreath}.

    In normal form a Product has at least two factors, none trivial and none
    itself a Product, sorted by rendering; a Wreath has n >= 2 and a
    nontrivial base.
    """

    kind: str  # "triv" | "sym" | "product" | "wreath"
    n: int = 0
    factors: tuple[GroupExpr, ...] = ()
    base: GroupExpr | None = None


TRIV = GroupExpr("triv")


def sym(n: int) -> GroupExpr:
    if n < 0:
        raise ValueError("symmetric group rank must be nonnegative")
    return GroupExpr("sym", n=n)


def product(factors) -> GroupExpr:
    return GroupExpr("product", factors=tuple(factors))


def wreath(base: GroupExpr, n: int) -> GroupExpr:
    if n < 0:
        raise ValueError("wreath multiplicity must be nonnegative")
    return GroupExpr("wreath", n=n, base=base)


def render_classical(e: GroupExpr) -> str:
    """Classical reading: direct products and wreath products with S_n."""
    if e.kind == "triv":
        return "1"
    if e.kind == "sym":
        return f"S{e.n}"
    if e.kind == "wreath":
        return f"({render_classical(e.base)} wr S{e.n})"
    return "(" + " x ".join(render_classical(f) for f in e.factors) + ")"


def render_quantum(e: GroupExpr) -> str:
    """Quantum reading: free products and free wreath products with S_n^+."""
    if e.kind == "triv":
        return "C"
    if e.kind == "sym":
        return f"S{e.n}+"
    if e.kind == "wreath":
        return f"({render_quantum(e.base)} fwr S{e.n}+)"
    return "(" + " * ".join(render_quantum(f) for f in e.factors) + ")"


def normalize_expr(e: GroupExpr) -> GroupExpr:
    """Rewrite to normal form; idempotent.

    Sym(0), Sym(1) and empty products collapse to Triv; Wreath(Triv, n)
    rewrites to Sym(n), Wreath(b, 1) to b, Wreath(b, 0) to Triv; products
    flatten, drop trivial factors and sort.
    """
    if e.kind == "wreath":
        return _wreath_step(normalize_expr(e.base), e.n)
    if e.kind == "product":
        return _product_step(normalize_expr(f) for f in e.factors)
    return _wreath_step(TRIV, e.n)  # Triv (n = 0) or Sym(n)


def _wreath_step(base: GroupExpr, n: int) -> GroupExpr:
    """Normal form of Wreath(base, n), Sym(n) when the base is trivial, for
    a base in normal form."""
    if n <= 1:
        return base if n == 1 else TRIV
    return GroupExpr("sym", n=n) if base.kind == "triv" else GroupExpr("wreath", n=n, base=base)


def _product_step(factors: Iterable[GroupExpr]) -> GroupExpr:
    """Normal form of the product of factors in normal form."""
    flat: list[GroupExpr] = []
    for f in factors:
        if f.kind == "product":
            flat.extend(f.factors)
        elif f.kind != "triv":
            flat.append(f)
    if len(flat) <= 1:
        return flat[0] if flat else TRIV
    flat.sort(key=render_classical)
    return GroupExpr("product", factors=tuple(flat))


def classical_order(e: GroupExpr) -> int:
    """Order of the classical reading (exact, arbitrary precision)."""
    if e.kind == "triv":
        return 1
    if e.kind == "sym":
        return math.factorial(e.n)
    if e.kind == "wreath":
        return classical_order(e.base) ** e.n * math.factorial(e.n)
    return math.prod(classical_order(f) for f in e.factors)


def is_commutative_quantum(e: GroupExpr) -> bool:
    """Whether the quantum reading has a commutative underlying algebra.

    S_n^+ is commutative exactly for n <= 3; any normal-form product or
    wreath (two or more nontrivial pieces interacting freely) is not.
    """
    return _is_commutative(normalize_expr(e))


def _is_commutative(e: GroupExpr) -> bool:
    """:func:`is_commutative_quantum` for an expression in normal form."""
    if e.kind == "triv":
        return True
    if e.kind == "sym":
        return e.n <= 3
    return False


def _classes_expr(kids: list[str], done: dict[str, GroupExpr], leaves: int = 0) -> GroupExpr:
    """Sym(leaves) times one Wreath(class, multiplicity) per run of equal
    codes in the sorted ``kids``, in normal form."""
    factors = [_wreath_step(done[c], len(list(run))) for c, run in groupby(kids)]
    return _product_step(factors + [_wreath_step(TRIV, leaves)])


def expr_from_records(records: dict[str, tuple], tops: Iterable[str]) -> GroupExpr:
    """Group expression of the components with codes ``tops``, in normal
    form, from the ``records`` that wrote them: by code, children first, a
    bracket, sorted child codes and a leaf count.

    Equal codes have equal expressions, so each record is read once: one
    Wreath(class, multiplicity) per class of equal child codes, times
    Sym(leaves), be they a centre block's internal vertices or a block's
    other vertices. A single child passes through (complementing leaves the
    group unchanged). The components together are a record of their own.
    """
    done = {LEAF_CODE: TRIV}
    for code, (_, kids, leaves) in records.items():
        done[code] = _classes_expr(kids, done, leaves)
    return _classes_expr(sorted(tops), done)


def expr_from_decomposition(node: DecompositionNode) -> GroupExpr:
    """Group expression of a decomposition tree, in normal form: the records
    of its distinct subtrees, smallest first (a child is smaller than its
    parent), through :func:`expr_from_records`."""
    subtrees, stack = {}, [node]
    while stack:
        nd = stack.pop()
        if nd.code not in subtrees:
            subtrees[nd.code] = nd
            stack += nd.children or [c for c, _ in nd.classes]
    records: dict = {}
    for nd in sorted(subtrees.values(), key=attrgetter("size")):
        kids = nd.children or [c for c, a in nd.classes for _ in range(a)]
        records[nd.code] = nd.kind, [c.code for c in kids], nd.z
    return expr_from_records(records, [node.code])


def block_graph_expr(g: Graph) -> GroupExpr:
    """Expression for a block graph, componentwise for disconnected input."""
    structure = block_cut_decomposition(g)
    if not structure.all_blocks_complete:
        raise UnsupportedClassError("not a block graph")
    records: dict = {}  # filled by component_codes before the loop reads it
    return expr_from_records(records, component_codes(structure, records))


def supported_expr(g: Graph) -> GroupExpr:
    """Expression for a block graph or block-cograph; error otherwise."""
    from .analyze import GraphAnalysis

    expr = GraphAnalysis(g).expr
    if expr is None:
        raise UnsupportedClassError(
            "graph is neither a block graph nor a block-cograph"
        )
    return expr


def has_quantum_symmetry(g: Graph) -> bool:
    """Theorem-backed verdict: quantum group strictly bigger than classical.

    Coincides with the existence of two nontrivial automorphisms with
    disjoint supports on the supported classes.
    """
    return not _is_commutative(supported_expr(g))


def is_quantum_asymmetric(g: Graph) -> bool:
    """True iff the (quantum, equivalently classical) automorphism group is trivial."""
    return classical_order(supported_expr(g)) == 1
