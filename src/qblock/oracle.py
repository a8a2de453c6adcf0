"""Independent ground-truth computations.

Everything here is deliberately brute force: automorphism enumeration by
backtracking, Schmidt's criterion by support inspection, isomorphism by
pruned bijection search, and exhaustive/random graph generation. The
theorem-derived answers elsewhere in the package are tested against these
oracles, so none of this may depend on the decomposition machinery.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterator

from .graphs import Graph, bfs_distances, build_graph

DEFAULT_CAP = 10**6
_MAX_AUT_N = 12
_MAX_ISO_N = 10


class CapExceededError(RuntimeError):
    """More automorphisms than the enumeration cap allows."""


class SizeLimitError(ValueError):
    """Input too large for a brute-force computation."""


@dataclass(frozen=True)
class AutomorphismSet:
    """Complete list of automorphisms (as ``perm[old] = new`` tuples)."""

    perms: tuple[tuple[int, ...], ...]
    order: int


def _vertex_signatures(g: Graph) -> list[tuple]:
    """Isomorphism-invariant per-vertex keys: degree plus sorted distance row."""
    sigs = []
    for v in range(g.n):
        row = bfs_distances(g, v)
        finite = sorted(x for x in row if isinstance(x, int))
        unreachable = g.n - len(finite)
        sigs.append((g.degree(v), unreachable, tuple(finite)))
    return sigs


def enumerate_automorphisms(g: Graph, cap: int = DEFAULT_CAP) -> AutomorphismSet:
    """All adjacency-preserving permutations, by pruned backtracking.

    Raises :class:`CapExceededError` when the group is larger than ``cap``;
    the list is never silently truncated.
    """
    n = g.n
    if n > _MAX_AUT_N:
        raise SizeLimitError(f"automorphism enumeration supports n <= {_MAX_AUT_N}, got {n}")
    if n == 0:
        return AutomorphismSet(perms=((),), order=1)
    sigs = _vertex_signatures(g)
    adj = g.adjacency
    found: list[tuple[int, ...]] = []
    image = [-1] * n
    used = [False] * n

    def extend(v: int) -> None:
        if v == n:
            found.append(tuple(image))
            if len(found) > cap:
                raise CapExceededError(f"more than {cap} automorphisms")
            return
        for w in range(n):
            if used[w] or sigs[w] != sigs[v]:
                continue
            ok = True
            for u in range(v):
                if (u in adj[v]) != (image[u] in adj[w]):
                    ok = False
                    break
            if ok:
                image[v] = w
                used[w] = True
                extend(v + 1)
                used[w] = False
                image[v] = -1

    extend(0)
    found.sort()
    return AutomorphismSet(perms=tuple(found), order=len(found))


def _support(perm: tuple[int, ...]) -> frozenset[int]:
    return frozenset(v for v, w in enumerate(perm) if v != w)


def schmidt_bruteforce(g: Graph, cap: int = DEFAULT_CAP) -> bool:
    """Whether two nontrivial automorphisms have disjoint supports."""
    auts = enumerate_automorphisms(g, cap=cap)
    supports = sorted(
        {_support(p) for p in auts.perms if _support(p)},
        key=lambda s: (len(s), sorted(s)),
    )
    for i, s in enumerate(supports):
        for t in supports[i + 1:]:
            if not (s & t):
                return True
    return False


def is_isomorphic_bruteforce(g: Graph, h: Graph) -> bool:
    """Exact isomorphism verdict by backtracking bijection search."""
    if g.n > _MAX_ISO_N or h.n > _MAX_ISO_N:
        raise SizeLimitError(f"brute-force isomorphism supports n <= {_MAX_ISO_N}")
    if g.n != h.n or g.m != h.m:
        return False
    sig_g = _vertex_signatures(g)
    sig_h = _vertex_signatures(h)
    if sorted(sig_g) != sorted(sig_h):
        return False
    n = g.n
    adj_g, adj_h = g.adjacency, h.adjacency
    image = [-1] * n
    used = [False] * n

    def extend(v: int) -> bool:
        if v == n:
            return True
        for w in range(n):
            if used[w] or sig_h[w] != sig_g[v]:
                continue
            ok = True
            for u in range(v):
                if (u in adj_g[v]) != (image[u] in adj_h[w]):
                    ok = False
                    break
            if ok:
                image[v] = w
                used[w] = True
                if extend(v + 1):
                    return True
                used[w] = False
                image[v] = -1
        return False

    return extend(0)


def enumerate_labeled_graphs(
    n: int,
    predicate: Callable[[Graph], bool] | None = None,
    allow_seven: bool = False,
) -> Iterator[Graph]:
    """Every labeled graph on ``n`` vertices, one per edge subset.

    Exhaustive enumeration is capped at n <= 6 (2^15 graphs); n = 7 runs
    only behind the explicit ``allow_seven`` flag.
    """
    limit = 7 if allow_seven else 6
    if n > limit:
        raise SizeLimitError(
            f"exhaustive enumeration supports n <= {limit} "
            f"(n = 7 needs allow_seven=True), got {n}"
        )
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
        g = build_graph(n, edges)
        if predicate is None or predicate(g):
            yield g


def random_block_graph(n: int, seed: int) -> Graph:
    """Seeded connected block graph with between ``n`` and ``n + 4`` vertices.

    Grown from a single vertex by repeatedly attaching a complete block of
    size 2..5 at a uniformly random existing vertex.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    rng = random.Random(seed)
    count = 1
    edges: list[tuple[int, int]] = []
    while count < n:
        size = rng.randint(2, 5)
        at = rng.randrange(count)
        newcomers = list(range(count, count + size - 1))
        for u, v in itertools.combinations([at] + newcomers, 2):
            edges.append((u, v))
        count += size - 1
    return build_graph(count, edges)


def random_block_cograph(n: int, seed: int) -> Graph:
    """Seeded member of the block-cograph class with at most ``n`` vertices.

    Built from a random cotree whose leaves are small random block graphs
    and whose internal nodes are disjoint unions and complements of unions.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    rng = random.Random(seed)

    def leaf(budget: int) -> Graph:
        count = 1
        edges: list[tuple[int, int]] = []
        target = rng.randint(1, budget)
        while count < target:
            size = rng.randint(2, min(5, budget - count + 1))
            at = rng.randrange(count)
            newcomers = list(range(count, count + size - 1))
            for u, v in itertools.combinations([at] + newcomers, 2):
                edges.append((u, v))
            count += size - 1
        return build_graph(count, edges)

    def grow(budget: int, depth: int) -> Graph:
        if budget < 2 or depth >= 4 or rng.random() < 0.3:
            return leaf(budget)
        parts = rng.randint(2, min(3, budget))
        cuts = sorted(rng.sample(range(1, budget), parts - 1))
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [budget])]
        pieces = [grow(size, depth + 1) for size in sizes]
        total = 0
        edges = []
        for piece in pieces:
            edges.extend((u + total, v + total) for u, v in piece.edges)
            total += piece.n
        union = build_graph(total, edges)
        if rng.random() < 0.5:
            comp_edges = [
                (u, v)
                for u, v in itertools.combinations(range(total), 2)
                if not union.has_edge(u, v)
            ]
            return build_graph(total, comp_edges)
        return union

    return grow(n, 0)
