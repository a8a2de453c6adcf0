"""Reduced-scale oracle-equivalence suites behind the ``selftest`` subcommand."""

from __future__ import annotations

import random
from collections.abc import Iterable
from itertools import chain, combinations

from .blocks import is_block_graph
from .cographs import canonical_code_cograph
from .decomposition import is_isomorphic
from .formats import decode_graph6, encode_graph6, Graph6Error
from .graphs import Graph, build_graph, is_connected, relabel
from .groups import block_graph_expr, classical_order, has_quantum_symmetry
from .hyperbolicity import hyperbolicity
from .oracle import (
    DEFAULT_CAP,
    CapExceededError,
    enumerate_automorphisms,
    enumerate_labeled_graphs,
    is_isomorphic_bruteforce,
    random_block_cograph,
    random_block_graph,
    schmidt_bruteforce,
)


def _rejected(text: str) -> bool:
    try:
        decode_graph6(text)
    except Graph6Error:
        return True
    return False


def run_selftest(seed: int = 0, cap: int = DEFAULT_CAP) -> bool:
    """Run every suite at reduced scale; one PASS/FAIL line per suite."""
    ok = True

    def suite(name: str, failed: Iterable[bool], noun: str = "mismatches") -> None:
        """PASS, or FAIL with the count of failed checks or a tripped ``cap``'s message."""
        nonlocal ok
        try:
            bad = sum(failed)
            detail = f"{bad} {noun}"
        except CapExceededError as exc:
            bad, detail = 1, str(exc)
        ok = ok and bad == 0
        print(f"PASS {name}" if bad == 0 else f"FAIL {name} ({detail})")

    small = [g for n in range(6) for g in enumerate_labeled_graphs(n)]

    # 1. zero hyperbolicity <=> every component is a block graph, n <= 5
    suite(
        "hyperbolicity-blockgraph-equivalence (exhaustive n<=5)",
        ((hyperbolicity(g).twice_delta == 0) != is_block_graph(g) for g in small),
    )

    # corpora for the group-theoretic suites
    corpus = [g for g in small if g.m >= g.n - 1 and is_block_graph(g) and is_connected(g)]
    corpus += [random_block_graph(1 + i % 6, seed * 1009 + i) for i in range(40)]

    # 2. automorphism order from the decomposition formula
    suite(
        "automorphism-order-formula",
        (classical_order(block_graph_expr(g)) != enumerate_automorphisms(g, cap).order for g in corpus),
    )

    # 3. Schmidt alternative on block graphs and block-cographs
    corpus += [random_block_cograph(8, seed * 2003 + i) for i in range(40)]
    suite("schmidt-alternative", (has_quantum_symmetry(g) != schmidt_bruteforce(g, cap) for g in corpus))

    # suites 4 and 5: relabeled copies, drawn from one generator, then unrelated pairs
    rng = random.Random(seed + 4)

    def with_copy(g: Graph) -> tuple[Graph, Graph]:
        perm = list(range(g.n))
        rng.shuffle(perm)
        return g, relabel(g, perm)

    # 4. canonical-code isomorphism against brute force
    same = [with_copy(random_block_graph(1 + i % 5, seed * 3001 + i)) for i in range(100)]
    pairs = [[random_block_graph(1 + i % 5, seed * 4001 + j + i) for j in (0, 500)] for i in range(100)]
    suite(
        "canonical-code-vs-bruteforce-isomorphism",
        chain(
            (not (is_isomorphic(g, h) and is_isomorphic_bruteforce(g, h)) for g, h in same),
            (is_isomorphic(g, h) != is_isomorphic_bruteforce(g, h) for g, h in pairs),
        ),
    )

    # 5. block-cograph codes against brute force
    same = [with_copy(random_block_cograph(8, seed * 5003 + i)) for i in range(60)]
    pairs = [[random_block_cograph(7, seed * 6007 + j + i) for j in (0, 500)] for i in range(60)]
    code = canonical_code_cograph
    suite(
        "blockcograph-code-vs-bruteforce",
        chain(
            (code(g) != code(h) for g, h in same),
            ((code(g) == code(h)) != is_isomorphic_bruteforce(g, h) for g, h in pairs),
        ),
    )

    # 6. graph6 round trip plus malformed rejection
    rng6 = random.Random(seed + 6)
    sizes = (rng6.randint(0, 20) for _ in range(200))  # each drawn just before its graph's edges
    graphs = [build_graph(n, [e for e in combinations(range(n), 2) if rng6.random() < 0.3]) for n in sizes]
    broken = ("", "A", "Cx~", chr(62) + "??", "A" + chr(127))
    suite(
        "graph6-roundtrip-and-rejection",
        chain((decode_graph6(encode_graph6(g)) != g for g in graphs), (not _rejected(b) for b in broken)),
        "failures",
    )

    return ok
