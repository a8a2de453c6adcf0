"""Seeded input corpora for the three benchmark workloads.

Every graph is built from ``--seed`` with the generators frozen in
``qblock_seed`` (verbatim copies of the package's modules, all but ``cli``
and ``selftest``, at the commit that added this benchmark), so a later
change to ``src/qblock`` can never change the inputs.
The program under test only ever sees the graph6 text written from these
graphs.

Sizes are fixed per position in the corpus and only the structure is drawn
from the seed, so the work per run barely depends on the seed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from qblock_seed.analyze import classify
from qblock_seed.families import path_graph, star_graph
from qblock_seed.graphs import (
    Graph,
    bfs_distances,
    build_graph,
    complement,
    connected_components,
)
from qblock_seed.oracle import random_block_cograph, random_block_graph

WORKLOADS = ("small-mixed", "hyp-mid", "large-block")

SMALL_MIXED_GRAPHS = 1200
SMALL_MIXED_PAIR_EVERY = 4
SMALL_MIXED_CHUNKS = 4
HYP_MID_CHUNKS = 4
HYP_MID_SIZES = tuple(range(40, 71, 3))
HYP_MID_PAIR_SIZES = (8, 9, 10) * 100
LARGE_BLOCK_SIZES = (300, 600, 1000)
LARGE_BLOCK_ISO_MAX_N = 700
CATERPILLAR_SPINE = 200
CATERPILLAR_LEAVES = 300
STAR_LEAVES = 2000
LONG_PATH = 2000


@dataclass
class Corpus:
    """Inputs of one workload run.

    ``graphs`` go through the workload's single-graph subcommand and its
    library entry point; ``pairs`` go through ``qblock iso`` as
    ``(g, h, isomorphic, supported)``: the verdict known by construction, and
    whether ``g`` lies in a supported class, which picks iso's method.
    ``kinds`` names the family of each graph.

    A run measures the corpus in steps, one per entry of ``chunks`` (graph
    indices) and ``pair_chunks`` (pair indices, possibly empty), so that
    every metric samples the whole run rather than one stretch of it; each
    chunk goes to its own CLI child process.
    """

    workload: str
    subcommand: str
    graphs: list[Graph] = field(default_factory=list)
    kinds: list[str] = field(default_factory=list)
    pairs: list[tuple[Graph, Graph, bool, bool]] = field(default_factory=list)
    chunks: list[list[int]] = field(default_factory=list)
    pair_chunks: list[list[int]] = field(default_factory=list)
    #: library calls in a row per graph and step
    api_calls: int = 1

    def add(self, kind: str, g: Graph) -> None:
        self.kinds.append(kind)
        self.graphs.append(g)


def relabelled(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def _degree_sequence(g: Graph) -> list[int]:
    return sorted(g.degree(v) for v in range(g.n))


def mate(g: Graph, rng: random.Random) -> Graph:
    """A block graph guaranteed not isomorphic to the block graph ``g``.

    A pendant vertex is moved to a vertex whose degree makes the degree
    sequence change; without a usable pendant vertex an isolated vertex is
    added instead.
    """
    pendants = [v for v in range(g.n) if g.degree(v) == 1]
    rng.shuffle(pendants)
    for v in pendants:
        (u,) = g.adjacency[v]
        targets = [
            w for w in range(g.n)
            if w not in (u, v) and g.degree(w) != g.degree(u) - 1
        ]
        if targets:
            w = rng.choice(targets)
            h = build_graph(g.n, [e for e in g.edges if v not in e] + [(v, w)])
            assert _degree_sequence(h) != _degree_sequence(g)
            return h
    return build_graph(g.n + 1, g.edges)


def _random_unsupported(n: int, rng: random.Random) -> Graph:
    while True:
        g = build_graph(
            n, [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < 0.3]
        )
        if classify(g) == "unsupported":
            return g


def small_mixed(seed: int) -> Corpus:
    """Half block graphs, a third block-cographs, a sixth unsupported, n <= 20."""
    rng = random.Random(seed)
    corpus = Corpus("small-mixed", "analyze")
    for i in range(SMALL_MIXED_GRAPHS):
        slot = i % 6
        step = i // 6
        if slot < 3:
            g = random_block_graph(1 + (step * 3 + slot) % 16, rng.randrange(2**32))
            kind = "block"
        elif slot < 5:
            g = random_block_cograph(2 + (step * 2 + slot) % 19, rng.randrange(2**32))
            kind = "cograph"
        else:
            g = _random_unsupported(5 + step % 16, rng)
            kind = "unsupported"
        corpus.add(kind, g)
        # iso refuses unsupported pairs beyond brute-force size by design
        if i % SMALL_MIXED_PAIR_EVERY == 0 and (kind != "unsupported" or g.n < 10):
            other = mate(g, rng) if kind == "block" else build_graph(g.n + 1, g.edges)
            supported = kind != "unsupported"
            corpus.pairs.append((g, relabelled(g, rng), True, supported))
            corpus.pairs.append((g, other, False, supported))
    corpus.chunks = _split(len(corpus.graphs), SMALL_MIXED_CHUNKS)
    corpus.pair_chunks = _split(len(corpus.pairs), SMALL_MIXED_CHUNKS)
    return corpus


def _split(count: int, parts: int) -> list[list[int]]:
    return [list(range(count * k // parts, count * (k + 1) // parts)) for k in range(parts)]


def _add_chords(g: Graph, count: int, rng: random.Random, max_dist: int) -> Graph:
    """Add up to ``count`` chords between vertices at distance 2..max_dist."""
    candidates = []
    for u in range(g.n):
        for v, d in enumerate(bfs_distances(g, u)):
            if u < v and isinstance(d, int) and 2 <= d <= max_dist:
                candidates.append((u, v))
    chords = rng.sample(candidates, min(count, len(candidates)))
    return build_graph(g.n, list(g.edges) + chords)


def _cycle_with_chords(n: int, chords: int, rng: random.Random) -> Graph:
    order = list(range(n))
    rng.shuffle(order)
    ring = build_graph(n, [(order[i], order[(i + 1) % n]) for i in range(n)])
    return _add_chords(ring, chords, rng, max_dist=n)


def _block_like(n: int, chords: int, rng: random.Random) -> Graph:
    """A random block graph on exactly ``n`` vertices plus chords between
    vertices at distance 2 or 3."""
    base = random_block_graph(n - 2, rng.randrange(2**32))
    while base.n != n:
        base = random_block_graph(n - 2, rng.randrange(2**32))
    return _add_chords(relabelled(base, rng), chords, rng, max_dist=3)


def _cotree_free(g: Graph) -> bool:
    """Unsupported, connected and co-connected, so ``qblock iso`` decides the
    pair by brute force without decomposing anything."""
    return (
        classify(g) == "unsupported"
        and len(connected_components(g)) == 1
        and len(connected_components(complement(g))) == 1
    )


def hyp_mid(seed: int) -> Corpus:
    """Block graphs with a few chords, and Hamiltonian cycles with chords."""
    rng = random.Random(seed)
    corpus = Corpus("hyp-mid", "hyperbolicity")
    for n in HYP_MID_SIZES:
        corpus.add("block-like", _block_like(n, 3, rng))
        corpus.add("two-connected", _cycle_with_chords(n, n // 5, rng))
    # iso on these families only exists at brute-force size, n <= 10
    for n in HYP_MID_PAIR_SIZES:
        for family in (lambda: _block_like(n, 2, rng), lambda: _cycle_with_chords(n, 2, rng)):
            while True:
                g = family()
                h = _add_chords(g, 1, rng, max_dist=g.n)
                if h.m > g.m and _cotree_free(g) and _cotree_free(h):
                    break
            corpus.pairs.append((g, relabelled(g, rng), True, False))
            corpus.pairs.append((g, h, False, False))
    # every HYP_MID_CHUNKS-th graph: one family, every other size, so the
    # chunks cost alike and the two graphs of the median size run apart
    corpus.chunks = [
        list(range(k, len(corpus.graphs), HYP_MID_CHUNKS)) for k in range(HYP_MID_CHUNKS)
    ]
    corpus.pair_chunks = _split(len(corpus.pairs), HYP_MID_CHUNKS)
    return corpus


def _caterpillar(spine: int, leaves: int, rng: random.Random) -> Graph:
    """A path of ``spine`` vertices with ``leaves`` pendant vertices hung on
    random spine vertices; the size is fixed so that its time is too."""
    edges = [(i, i + 1) for i in range(spine - 1)]
    edges += [(rng.randrange(spine), spine + k) for k in range(leaves)]
    return relabelled(build_graph(spine + leaves, edges), rng)


def large_block(seed: int) -> Corpus:
    """Random block graphs n = 300..1000, a caterpillar, K_{1,2000} and P_2000.

    Each random graph and the caterpillar is followed by a relabelled copy in
    the canon corpus; the block graphs with n <= 700 also go through iso with
    their copy and with a mate, and so do as many more random block graphs of
    the same sizes, drawn for iso alone. The star and the path keep one fixed
    labelling and no copy: P_2000 overflows the recursion limit of
    the package at the commit that added this benchmark and K_{1,2000} its
    quadratic case; both stay in at full size.
    """
    rng = random.Random(seed)
    # ten graphs: one timing each is too few for a steady median and tail
    corpus = Corpus("large-block", "canon", api_calls=3)
    shapes = [("block", random_block_graph(n, rng.randrange(2**32))) for n in LARGE_BLOCK_SIZES]
    shapes.append(("caterpillar", _caterpillar(CATERPILLAR_SPINE, CATERPILLAR_LEAVES, rng)))
    for kind, g in shapes:
        copy = relabelled(g, rng)
        corpus.chunks.append([len(corpus.graphs), len(corpus.graphs) + 1])
        corpus.add(kind, g)
        corpus.add(kind + "-copy", copy)
        corpus.pair_chunks.append([])
        if kind == "block" and g.n <= LARGE_BLOCK_ISO_MAX_N:
            corpus.pair_chunks[-1] = _iso_pairs(corpus, g, copy, rng)
    for kind, g in (("star", star_graph(STAR_LEAVES)), ("path", path_graph(LONG_PATH))):
        corpus.chunks.append([len(corpus.graphs)])
        corpus.pair_chunks.append([])
        corpus.add(kind, g)
    # few pairs and one long round: iso-only graphs of the same sizes go in
    # half a round later, so that pairs_per_s averages over more structures
    half = len(corpus.chunks) // 2
    for k, n in enumerate(n for n in LARGE_BLOCK_SIZES if n <= LARGE_BLOCK_ISO_MAX_N):
        g = random_block_graph(n, rng.randrange(2**32))
        corpus.pair_chunks[half + k] = _iso_pairs(corpus, g, relabelled(g, rng), rng)
    return corpus


def _iso_pairs(corpus: Corpus, g: Graph, copy: Graph, rng: random.Random) -> list[int]:
    """Add (g, copy) and (g, mate) to the pairs; their indices."""
    corpus.pairs.append((g, copy, True, True))
    corpus.pairs.append((g, mate(g, rng), False, True))
    return [len(corpus.pairs) - 2, len(corpus.pairs) - 1]


def build(workload: str, seed: int) -> Corpus:
    return {"small-mixed": small_mixed, "hyp-mid": hyp_mid, "large-block": large_block}[
        workload
    ](seed)
