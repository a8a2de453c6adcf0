"""Independent ground-truth computations.

Everything here is deliberately brute force: automorphism enumeration and
isomorphism by one pruned backtracking search over bijections, Schmidt's
criterion by support inspection, hyperbolicity by a scan over every
quadruple, and exhaustive/random graph generation. The theorem-derived
answers elsewhere in the package are tested against these oracles, so none
of this may depend on the decomposition machinery.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Iterator

from .graphs import (
    Graph,
    Record,
    bfs_distances,
    build_graph,
    complement,
    connected_components,
    disjoint_union,
)
from .hyperbolicity import HyperbolicityResult

DEFAULT_CAP = 10**6
_MAX_AUT_N = 12
_MAX_ISO_N = 10


class CapExceededError(RuntimeError):
    """More automorphisms than the enumeration cap allows."""


class SizeLimitError(ValueError):
    """Input too large for a brute-force computation."""


class AutomorphismSet(Record):
    """Complete list of automorphisms (as ``perm[old] = new`` tuples)."""

    perms: tuple[tuple[int, ...], ...]
    order: int


def _vertex_signatures(g: Graph) -> list[tuple]:
    """Isomorphism-invariant per-vertex keys: degree plus sorted distance row."""
    return [(g.degree(v), tuple(sorted(bfs_distances(g, v)))) for v in range(g.n)]


def _bijections(g: Graph, h: Graph, limit: int) -> list[tuple[int, ...]]:
    """Up to ``limit`` bijections of g onto h that keep signatures and adjacency.

    Each is a ``perm[v] = w`` tuple. Vertex v tries the vertices of h with its
    signature in increasing order, so the bijections come in lexicographic
    order; w is kept when its neighbours among the images placed so far are
    exactly the images of v's earlier neighbours (one bit-row comparison).
    """
    sig_g = _vertex_signatures(g)
    sig_h = sig_g if h is g else _vertex_signatures(h)
    if sorted(sig_g) != sorted(sig_h):
        return []
    by_sig: dict[tuple, list[int]] = {}
    for w, sig in enumerate(sig_h):
        by_sig.setdefault(sig, []).append(w)
    candidates = [by_sig[sig] for sig in sig_g]
    earlier = [[u for u in nbrs if u < v] for v, nbrs in enumerate(g.adjacency)]
    rows = [sum(1 << u for u in nbrs) for nbrs in h.adjacency]
    n = g.n
    found: list[tuple[int, ...]] = []
    image = [0] * n

    def extend(v: int, placed: int) -> bool:
        if v == n:
            found.append(tuple(image))
            return len(found) >= limit
        want = 0
        for u in earlier[v]:
            want |= 1 << image[u]
        for w in candidates[v]:
            if not placed >> w & 1 and rows[w] & placed == want:
                image[v] = w
                if extend(v + 1, placed | 1 << w):
                    return True
        return False

    extend(0, 0)
    return found


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
    found = _bijections(g, g, cap + 1)
    if len(found) > cap:
        raise CapExceededError(f"more than {cap} automorphisms")
    return AutomorphismSet(perms=tuple(found), order=len(found))


def schmidt_bruteforce(g: Graph, cap: int = DEFAULT_CAP) -> bool:
    """Whether two nontrivial automorphisms have disjoint supports."""
    supports: set[int] = set()
    for perm in enumerate_automorphisms(g, cap=cap).perms:
        support = 0
        for v, w in enumerate(perm):
            if v != w:
                support |= 1 << v
        if support and support not in supports:
            if any(not support & other for other in supports):
                return True
            supports.add(support)
    return False


def is_isomorphic_bruteforce(g: Graph, h: Graph) -> bool:
    """Exact isomorphism verdict by backtracking bijection search."""
    if g.n > _MAX_ISO_N or h.n > _MAX_ISO_N:
        raise SizeLimitError(f"brute-force isomorphism supports n <= {_MAX_ISO_N}")
    if g.n != h.n or g.m != h.m:
        return False
    return bool(_bijections(g, h, 1))


def enumerate_labeled_graphs(n: int) -> Iterator[Graph]:
    """Every labeled graph on ``n`` vertices, one per edge subset.

    Exhaustive enumeration is capped at n <= 6 (2^15 graphs).
    """
    if n > 6:
        raise SizeLimitError(f"exhaustive enumeration supports n <= 6, got {n}")
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
        yield build_graph(n, edges)


def _grow_block_graph(rng: random.Random, target: int, budget: int) -> Graph:
    """Connected block graph with ``target`` to ``budget`` vertices.

    Grown from one vertex by attaching, at a uniformly random existing
    vertex, complete blocks of 2..5 vertices, none larger than the budget
    left allows.
    """
    count = 1
    edges: list[tuple[int, int]] = []
    while count < target:
        size = rng.randint(2, min(5, budget - count + 1))
        at = rng.randrange(count)
        newcomers = list(range(count, count + size - 1))
        edges.extend(itertools.combinations([at] + newcomers, 2))
        count += size - 1
    return build_graph(count, edges)


def random_block_graph(n: int, seed: int) -> Graph:
    """Seeded connected block graph with between ``n`` and ``n + 3`` vertices.

    Grown from a single vertex by repeatedly attaching a complete block of
    size 2..5 at a uniformly random existing vertex.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    # a budget of n + 3 never caps the block size below 5
    return _grow_block_graph(random.Random(seed), n, n + 3)


def random_block_cograph(n: int, seed: int) -> Graph:
    """Seeded member of the block-cograph class with at most ``n`` vertices.

    Built from a random cotree whose leaves are small random block graphs
    and whose internal nodes are disjoint unions and complements of unions.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    rng = random.Random(seed)

    def grow(budget: int, depth: int) -> Graph:
        if budget < 2 or depth >= 4 or rng.random() < 0.3:
            return _grow_block_graph(rng, rng.randint(1, budget), budget)
        parts = rng.randint(2, min(3, budget))
        cuts = sorted(rng.sample(range(1, budget), parts - 1))
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [budget])]
        union = disjoint_union([grow(size, depth + 1) for size in sizes])[0]
        return complement(union) if rng.random() < 0.5 else union

    return grow(n, 0)


def hyperbolicity_bruteforce(g: Graph) -> HyperbolicityResult:
    """Hyperbolicity by the plain scan over every quadruple of each component.

    The witness is the first quadruple, in lexicographic order, that raises
    the component's maximum; on a tie in maximum the smaller witness of the
    tied components is kept.
    """
    d = [bfs_distances(g, v) for v in range(g.n)]
    comps = connected_components(g)
    best = 0
    witness: tuple[int, int, int, int] | None = None
    per_component = []
    for cid, cell in enumerate(comps):
        comp_best = 0
        comp_witness = None
        for w, x, y, z in itertools.combinations(cell, 4):
            s1 = d[w][x] + d[y][z]
            s2 = d[w][y] + d[x][z]
            s3 = d[w][z] + d[x][y]
            hi = max(s1, s2, s3)
            lo = min(s1, s2, s3)
            excess = hi - (s1 + s2 + s3 - hi - lo)
            if excess > comp_best:
                comp_best = excess
                comp_witness = (w, x, y, z)
        per_component.append((cid, comp_best))
        if comp_best > best or (
            comp_best == best
            and comp_witness is not None
            and (witness is None or comp_witness < witness)
        ):
            best = comp_best
            witness = comp_witness
    return HyperbolicityResult(
        twice_delta=best,
        witness=witness,
        per_component=tuple(per_component),
        connected=len(comps) == 1,
    )
