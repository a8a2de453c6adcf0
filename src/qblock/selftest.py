"""Reduced-scale oracle-equivalence suites behind the ``selftest`` subcommand."""

from __future__ import annotations

import random
from typing import Callable

from .blocks import is_block_graph
from .cographs import canonical_code_cograph, is_block_cograph
from .decomposition import canonical_code, is_isomorphic
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


def _random_permutation(n: int, rng: random.Random) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def _random_graph(n: int, rng: random.Random, p: float = 0.3) -> Graph:
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return build_graph(n, edges)


def run_selftest(seed: int = 0, cap: int = DEFAULT_CAP) -> bool:
    """Run every suite at reduced scale; one PASS/FAIL line per suite."""
    ok = True

    def report(name: str, passed: bool, detail: str = "") -> None:
        nonlocal ok
        ok = ok and passed
        suffix = f" ({detail})" if detail and not passed else ""
        print(f"{'PASS' if passed else 'FAIL'} {name}{suffix}")

    def against_oracle(name: str, graphs: list[Graph], theory: Callable, oracle: Callable) -> None:
        """A suite that counts mismatches with an oracle; a tripped ``cap`` fails it."""
        try:
            bad = sum(1 for g in graphs if theory(g) != oracle(g))
        except CapExceededError as exc:
            report(name, False, str(exc))
        else:
            report(name, bad == 0, f"{bad} mismatches")

    # 1. zero hyperbolicity <=> every component is a block graph, n <= 5
    bad = 0
    for n in range(6):
        for g in enumerate_labeled_graphs(n):
            if (hyperbolicity(g).twice_delta == 0) != is_block_graph(g):
                bad += 1
    report("hyperbolicity-blockgraph-equivalence (exhaustive n<=5)", bad == 0, f"{bad} mismatches")

    # corpora for the group-theoretic suites
    small_bg = [
        g
        for n in range(1, 6)
        for g in enumerate_labeled_graphs(n)
        if len(g.edges) >= n - 1 and is_block_graph(g) and is_connected(g)
    ]
    random_bg = [random_block_graph(1 + i % 6, seed * 1009 + i) for i in range(40)]
    corpus = small_bg + random_bg

    # 2. automorphism order from the decomposition formula
    against_oracle(
        "automorphism-order-formula",
        corpus,
        lambda g: classical_order(block_graph_expr(g)),
        lambda g: enumerate_automorphisms(g, cap).order,
    )

    # 3. Schmidt alternative on block graphs and block-cographs
    cograph_corpus = [random_block_cograph(8, seed * 2003 + i) for i in range(40)]
    against_oracle(
        "schmidt-alternative",
        corpus + cograph_corpus,
        has_quantum_symmetry,
        lambda g: schmidt_bruteforce(g, cap),
    )

    # 4. canonical-code isomorphism against brute force
    rng = random.Random(seed + 4)
    bad = 0
    for i in range(100):
        g = random_block_graph(1 + i % 5, seed * 3001 + i)
        h = relabel(g, _random_permutation(g.n, rng))
        if not (is_isomorphic(g, h) and is_isomorphic_bruteforce(g, h)):
            bad += 1
    for i in range(100):
        g = random_block_graph(1 + i % 5, seed * 4001 + i)
        h = random_block_graph(1 + i % 5, seed * 4001 + 500 + i)
        if is_isomorphic(g, h) != is_isomorphic_bruteforce(g, h):
            bad += 1
    report("canonical-code-vs-bruteforce-isomorphism", bad == 0, f"{bad} mismatches")

    # 5. block-cograph codes against brute force
    bad = 0
    for i in range(60):
        g = random_block_cograph(8, seed * 5003 + i)
        h = relabel(g, _random_permutation(g.n, rng))
        if canonical_code_cograph(g) != canonical_code_cograph(h):
            bad += 1
    for i in range(60):
        g = random_block_cograph(7, seed * 6007 + i)
        h = random_block_cograph(7, seed * 6007 + 500 + i)
        if (canonical_code_cograph(g) == canonical_code_cograph(h)) != is_isomorphic_bruteforce(g, h):
            bad += 1
    report("blockcograph-code-vs-bruteforce", bad == 0, f"{bad} mismatches")

    # 6. graph6 round trip plus malformed rejection
    bad = 0
    rng6 = random.Random(seed + 6)
    for _ in range(200):
        g = _random_graph(rng6.randint(0, 20), rng6)
        if decode_graph6(encode_graph6(g)) != g:
            bad += 1
    for broken in ("", "A", "Cx~", chr(62) + "??", "A" + chr(127)):
        try:
            decode_graph6(broken)
            bad += 1
        except Graph6Error:
            pass
    report("graph6-roundtrip-and-rejection", bad == 0, f"{bad} failures")

    return ok
