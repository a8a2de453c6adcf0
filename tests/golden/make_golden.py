"""Write the pinned CLI outputs that ``tests/test_golden.py`` compares against.

Run from the repository root as ``PYTHONPATH=src python tests/golden/make_golden.py``.
It writes the three input files (``inputs.g6``, ``pairs.g6``, ``edges.txt``),
one ``<input>.<subcommand>.<json|text>`` file per case with the exact stdout
of ``qblock`` at ``--jobs 1``, ``MANIFEST.json`` with each case's argv and
exit code, and ``code_hashes.txt`` with the SHA-256 of the canonical code of
each of 200 seeded random block graphs and block-cographs. The files pin the
behaviour of the code they were generated from; regenerate them only to
change that behaviour on purpose.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

from qblock import oracle
from qblock.analyze import GraphAnalysis
from qblock.cli import main
from qblock.families import (
    bowtie_graph,
    bull_graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    path_graph,
    star_graph,
)
from qblock.formats import encode_graph6
from qblock.graphs import build_graph, complement, disjoint_union, relabel
from qblock.oracle import random_block_cograph, random_block_graph

HERE = Path(__file__).resolve().parent

#: Malformed graph6 lines, one per decoder error.
MALFORMED = [
    "A",  # truncated body
    "A__",  # overlong body
    "Ao",  # nonzero padding bits
    "!!",  # byte outside 63..126
    "~~??",  # 'huge' header
    "~?",  # truncated long header
    "~???",  # non-canonical long header
]

#: Generator of ``oracle`` and its sizes n, with seeds 0..24 each, of the
#: graphs in ``code_hashes.txt``.
HASHED = [
    ("random_block_graph", (100, 300, 1000, 2000)),
    ("random_block_cograph", (50, 100, 200, 400)),
]

#: (subcommand, extra flags) run on every single-graph input.
SINGLE = [
    ("analyze", []),
    ("recognize", []),
    ("decompose", []),
    ("canon", []),
    ("group", []),
    ("qsym", []),
    ("hyperbolicity", []),
    ("hyperbolicity", ["--delta-report"]),
    ("schmidt", ["--cap", "2000"]),
]


def _union(*gs):
    return disjoint_union(list(gs))[0]


def _reversed(g):
    return relabel(g, list(range(g.n - 1, -1, -1)))


def _shuffled(g, k):
    """A fixed non-trivial relabelling: rotate the vertex ids by ``k``."""
    return relabel(g, [(v + k) % g.n for v in range(g.n)])


def single_inputs() -> list[str]:
    lines = [">>graph6<< header lines are skipped", "?", "@", "A_", ""]
    graphs = [random_block_graph(n, 100 + n) for n in range(2, 17)]
    graphs += [path_graph(5), star_graph(5), bull_graph(), bowtie_graph(), complete_graph(5)]
    graphs += [random_block_cograph(4 + i % 9, 700 + i) for i in range(24)]
    # cotree leaves that are complements of block graphs, or both at once
    graphs += [path_graph(4), complement(path_graph(5)), complement(path_graph(6)),
               complement(random_block_graph(7, 21)), complement(bowtie_graph()),
               _union(complement(path_graph(5)), path_graph(4))]
    # unsupported: odd and even holes, a wheel, a small random graph
    wheel = build_graph(6, [(0, i) for i in range(1, 6)] + [(i, i % 5 + 1) for i in range(1, 6)])
    graphs += [cycle_graph(5), cycle_graph(6), wheel,
               build_graph(7, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (3, 4), (4, 5), (5, 6), (6, 4), (1, 5)])]
    # disconnected: block graphs, block-cographs, and one unsupported component
    graphs += [
        _union(random_block_graph(5, 11), random_block_graph(4, 12)),
        _union(path_graph(3), empty_graph(1)),
        empty_graph(3),
        _union(cycle_graph(4), complete_graph(2)),
        _union(cycle_graph(4), cycle_graph(4), empty_graph(1)),
        _union(cycle_graph(5), empty_graph(1)),
    ]
    # large enough that schmidt reports its size limit
    graphs += [random_block_graph(18, 5)]
    lines += [encode_graph6(g) for g in graphs]
    lines += MALFORMED
    return lines


def pair_inputs() -> list[str]:
    pairs = []
    for seed in range(4):
        g = random_block_graph(6 + 3 * seed, 200 + seed)
        pairs.append((g, _shuffled(g, 1 + seed)))
        pairs.append((g, random_block_graph(6 + 3 * seed, 300 + seed)))
    cographs = [random_block_cograph(9, 700 + i) for i in (1, 2, 4, 5, 9, 23, 24)]
    for i, g in enumerate(cographs):
        pairs.append((g, _reversed(g)))
        pairs.append((g, cographs[(i + 1) % len(cographs)]))
    co_p6 = complement(path_graph(6))
    pairs.append((co_p6, _shuffled(co_p6, 4)))
    pairs.append((co_p6, complement(star_graph(5))))
    pairs.append((path_graph(4), complement(path_graph(4))))
    pairs.append((bull_graph(), _union(cycle_graph(4), empty_graph(1))))
    pairs.append((cycle_graph(5), _shuffled(cycle_graph(5), 2)))
    pairs.append((cycle_graph(6), _union(complete_graph(3), complete_graph(3))))
    pairs.append((cycle_graph(6), _union(cycle_graph(3), cycle_graph(3))))
    pairs.append((cycle_graph(11), _shuffled(cycle_graph(11), 3)))
    pairs.append((empty_graph(0), empty_graph(0)))
    pairs.append((empty_graph(1), complete_graph(2)))
    lines = [encode_graph6(x) for pair in pairs for x in pair]
    lines += ["A", "A_"]  # a malformed member fails the whole pair
    lines += [encode_graph6(bull_graph())]  # dangling last input
    return lines


EDGES = """\
# a triangle with a pendant vertex
4
0 1 1 2 0 2
2 3

5  # the 5-cycle
0 1
1 2
2 3
3 4
4 0

6
0 1 2 3 4 5

4
0 1 1 2 2 3 3 0

3
0 0

3
0 3

x
0 1

3
0 1 2

1

0
"""


def code_hash(family: str, n: int, seed: int) -> str:
    """SHA-256 of the canonical code of ``oracle.<family>(n, seed)``."""
    code = GraphAnalysis(getattr(oracle, family)(n, seed)).code
    return hashlib.sha256(code.encode()).hexdigest()


def code_hash_lines() -> list[str]:
    """One ``<family> <n> <seed> <sha256>`` line per graph of ``HASHED``."""
    return [
        f"{family} {n} {seed} {code_hash(family, n, seed)}"
        for family, sizes in HASHED
        for n in sizes
        for seed in range(25)
    ]


def run(argv: list[str]) -> tuple[str, int]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return buf.getvalue(), code


def cases() -> list[tuple[str, list[str]]]:
    out = []
    for stem, fmt in (("inputs.g6", "graph6"), ("edges.txt", "edgelist")):
        for sub, flags in SINGLE:
            for mode in ("json", "text"):
                tag = sub + ("-delta-report" if "--delta-report" in flags else "")
                argv = [sub, "--format", fmt, "--in", stem, *flags, f"--{mode}"]
                out.append((f"{stem}.{tag}.{mode}", argv))
    for mode in ("json", "text"):
        out.append((f"pairs.g6.iso.{mode}", ["iso", "--in", "pairs.g6", f"--{mode}"]))
    return out


def main_write() -> None:
    (HERE / "inputs.g6").write_text("\n".join(single_inputs()) + "\n", encoding="utf-8")
    (HERE / "pairs.g6").write_text("\n".join(pair_inputs()) + "\n")
    (HERE / "edges.txt").write_text(EDGES)
    manifest = {}
    cwd = os.getcwd()
    os.chdir(HERE)
    try:
        for name, argv in cases():
            stdout, code = run(argv)
            Path(name).write_text(stdout, encoding="utf-8")
            manifest[name] = {"argv": argv, "exit": code}
    finally:
        os.chdir(cwd)
    (HERE / "MANIFEST.json").write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    (HERE / "code_hashes.txt").write_text("\n".join(code_hash_lines()) + "\n")


if __name__ == "__main__":
    main_write()
