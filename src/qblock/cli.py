"""Batch command-line front end.

One line per task, in input order even with parallel workers: a task is one
input graph, or for ``iso`` two consecutive inputs (an odd last input is a
task of its own, reported as an error). A worker takes a run of consecutive
tasks, ``_CHUNK`` from the pool or all of them at ``--jobs 1``, and analyses
each graph once, in ``_answer``: a task reuses the analysis of a graph whose
text was one of the previous task's. Each line is built only in the mode
that prints it, JSON (the default) or ``--text``, from the analysis fields
it prints. ``decompose``, ``canon``, ``group`` and ``qsym`` refuse a graph by
its class, as their theorems hold for block graphs and block-cographs alone.
A failed task becomes an inline error record of its plain message. Exit code
0 on full success, 1 when any task failed or standard output closed early,
2 on usage errors.

A run loads only what its subcommand uses: the process pool when it starts
one, the brute-force ``oracle`` for ``schmidt``, ``selftest`` and ``iso``
outside the supported classes, ``selftest`` for ``selftest`` alone, and the
``decomposition`` and ``groups`` modules only once a code or group
expression is written, which no graph outside the supported classes needs.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from functools import partial
from itertools import groupby

from .analyze import GraphAnalysis, analysis_report
from .formats import decode_graph6, emit_report, json_line, parse_edge_list
from .graphs import Graph

SUBCOMMANDS = (
    "analyze",
    "hyperbolicity",
    "recognize",
    "decompose",
    "group",
    "schmidt",
    "qsym",
    "canon",
    "iso",
    "selftest",
)
#: Tasks a pool worker takes at a time, as one run.
_CHUNK = 16
# From Python 3.10.7 on, int-to-text conversion is capped at 4300 digits,
# which bounds the cost of parsing digits (edge lists stay under the cap); a
# group order such as that of K1,10000 (10000!) has 35,660 digits.
_get_int_text_cap = getattr(sys, "get_int_max_str_digits", lambda: 0)
_set_int_text_cap = getattr(sys, "set_int_max_str_digits", lambda cap: None)
#: nauty's graph6, sparse6 and digraph6 headers, which end no line of their own
_HEADER = re.compile(r">>(?:graph|sparse|digraph)6<<(?=\S)")
#: Fields of GraphAnalysis.group_fields in the JSON rows of group and qsym.
_GROUP_KEYS = {
    "group": ("aut_expr", "qaut_expr", "aut_order"),
    "qsym": ("has_quantum_symmetry", "is_quantum_asymmetric"),
}


def _positive_int(text: str) -> int:
    """``--jobs`` and ``--cap`` value: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qblock",
        description="Analyze block graphs and block-cographs: hyperbolicity, "
        "block structure, canonical codes, and symbolic (quantum) automorphism groups.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        if name == "selftest":
            p.add_argument("--seed", type=int, default=0, metavar="N")
        else:
            p.add_argument("--format", choices=("graph6", "edgelist"), default="graph6")
            p.add_argument("--in", dest="path", default=None, metavar="PATH",
                           help="input file (default: standard input)")
            mode = p.add_mutually_exclusive_group()
            mode.add_argument("--json", dest="json", action="store_true", default=True)
            mode.add_argument("--text", dest="json", action="store_false")
            p.add_argument("--jobs", type=_positive_int, default=1, metavar="N")
        if name in ("schmidt", "selftest"):
            p.add_argument("--cap", type=_positive_int, default=None, metavar="N",
                           help="automorphism enumeration cap for oracle-backed commands "
                           "(default: oracle.DEFAULT_CAP)")
        if name == "hyperbolicity":
            p.add_argument("--delta-report", action="store_true",
                           help="batch hyperbolicity table (hyperbolicity subcommand)")
    return parser


def _read_text(path: str | None) -> str:
    """Standard input or ``path`` as text; a byte outside ASCII becomes the lone
    surrogate escaping it, which splits no line, is no space and names that byte."""
    if path is None or path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as handle:
            data = handle.read()
    return data.decode("ascii", "surrogateescape")


def _split_inputs(text: str, fmt: str) -> list[tuple[str, str]]:
    """(input id, payload) pairs: one line per graph6 graph, blank-line
    separated records for edge lists."""
    if fmt == "graph6":
        out = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            header = _HEADER.match(line)
            if header:  # a sparse6 or digraph6 graph is then a graph6 error
                line = line[header.end() :]
            if not line or line.startswith(">"):
                continue
            out.append((f"line:{lineno}", line))
        return out
    # runs of non-blank lines are records; a run of comments alone is none
    runs = (list(run) for blank, run in groupby(text.splitlines(), lambda raw: not raw.strip()) if not blank)
    kept = [run for run in runs if any(line.split("#", 1)[0].strip() for line in run)]
    return [(f"graph:{i}", "\n".join(run)) for i, run in enumerate(kept, start=1)]


def _cap(args: argparse.Namespace) -> dict:
    """``cap`` keyword of the oracle-backed calls; their own default unless --cap."""
    return {} if args.cap is None else {"cap": args.cap}


def _decode(args: argparse.Namespace, payload: str) -> Graph:
    if args.format == "graph6":
        return decode_graph6(payload)
    return parse_edge_list(payload)


def _half(twice: int) -> str:
    """``twice / 2`` as the text lines print it: ``3/2``, ``1`` or ``0``."""
    return f"{twice}/2" if twice % 2 else str(twice // 2)


def _render_single(args: argparse.Namespace, input_id: str, a: GraphAnalysis) -> str:
    """One graph's answer: its JSON row, or its text line under --text."""
    sub, g = args.subcommand, a.graph
    if sub == "analyze":
        if args.json:
            return emit_report(analysis_report(a, input_id))
        f = a.group_fields
        return (
            f"{input_id}: n={g.n} m={g.m} class={a.graph_class} "
            f"delta={_half(a.hyperbolicity.twice_delta)} "
            f"aut={f['aut_expr']} order={f['aut_order']} qsym={f['has_quantum_symmetry']}"
        )
    if sub == "schmidt":
        from .oracle import schmidt_bruteforce

        verdict = schmidt_bruteforce(g, **_cap(args))
        if not args.json:
            return f"{input_id}: schmidt = {str(verdict).lower()}"
        return json_line({"input": input_id, "schmidt": verdict})
    if sub == "hyperbolicity":
        result = a.hyperbolicity
        if args.delta_report:
            if not args.json:
                return f"{input_id}\t{g.n}\t{g.m}\t{_half(result.twice_delta)}\t{a.is_block_graph}"
            return json_line({"input": input_id, "n": g.n, "m": g.m, "delta": result.twice_delta / 2,
                              "is_block_graph": a.is_block_graph})
        if not args.json:
            return f"{input_id}: delta = {_half(result.twice_delta)}"
        return json_line({
            "input": input_id,
            "delta": result.twice_delta / 2,
            "twice_delta": result.twice_delta,
            "witness": list(result.witness) if result.witness else None,
            "per_component": [{"component": cid, "delta": twice / 2} for cid, twice in result.per_component],
            "connected": result.connected,
        })
    klass = a.graph_class
    if sub == "recognize":
        if not args.json:
            return f"{input_id}: class = {klass}"
        return json_line({"input": input_id, "n": g.n, "m": g.m, "is_block_graph": a.is_block_graph,
                          "is_block_cograph": a.is_block_cograph, "class": klass})
    if klass == "unsupported":
        if sub in _GROUP_KEYS:
            raise ValueError("graph is neither a block graph nor a block-cograph")
        raise ValueError(f"{sub} needs a block graph or block-cograph")
    if sub in ("decompose", "canon"):
        if not args.json:
            return f"{input_id}: {a.code}"
        if sub == "canon":
            return json_line({"input": input_id, "class": klass, "canonical_code": a.code})
        return json_line({"input": input_id, "class": klass, "decomposition": a.decomposition})
    if sub in _GROUP_KEYS:
        f = a.group_fields
        if args.json:
            return json_line({"input": input_id, **{k: f[k] for k in _GROUP_KEYS[sub]}})
        if sub == "qsym":
            return f"{input_id}: quantum symmetry = {str(f['has_quantum_symmetry']).lower()}"
        return f"{input_id}: Aut = {f['aut_expr']} (order {f['aut_order']}); Qu = {f['qaut_expr']}"
    raise AssertionError(f"unhandled subcommand {sub}")


def _render_pair(args: argparse.Namespace, id_g: str, a: GraphAnalysis, id_h: str, b: GraphAnalysis) -> str:
    """One iso pair's answer: its JSON row, or its text line under --text."""
    if a.is_block_cograph and b.is_block_cograph:  # b is analysed only if a is supported
        same = (a.graph_class, a.code) == (b.graph_class, b.code)
        quantum: bool | None = same
        method = "canonical-code (superrigidity)"
    else:
        from .oracle import _MAX_ISO_N, is_isomorphic_bruteforce

        g, h = a.graph, b.graph
        if g.n > _MAX_ISO_N or h.n > _MAX_ISO_N:
            raise ValueError("pair outside supported classes and too large for brute force")
        same = is_isomorphic_bruteforce(g, h)
        quantum = None
        method = "brute-force (outside supported classes)"
    if args.json:
        return json_line({"pair": [id_g, id_h], "isomorphic": same, "quantum_isomorphic": quantum,
                          "method": method})
    label = "brute-force" if quantum is None else "superrigidity"
    quantum_text = "unknown" if quantum is None else str(quantum).lower()
    return f"{id_g},{id_h}: isomorphic: {str(same).lower()}; quantum-isomorphic: {quantum_text} ({label})"


def _process(args: argparse.Namespace, tasks: list) -> list[tuple[str, bool]]:
    """Each line of a run of consecutive tasks, and whether it is an error record."""
    held: dict[str, GraphAnalysis] = {}  # the last task's analyses, by payload text
    return [_answer(args, task, held) for task in tasks]


def _answer(args: argparse.Namespace, task: tuple, held: dict[str, GraphAnalysis]) -> tuple[str, bool]:
    """One task's line and whether it is an error record. A task is ``(id,
    payload)``, one graph, or ``(id_g, payload_g, id_h, payload_h)``, an iso
    pair; a one-graph iso task is a dangling last input.

    Each payload is decoded and analysed here, once: a graph whose payload
    text was one of the previous task's takes its analysis from ``held``,
    which then keeps this task's alone. A caller comparing one graph with
    many repeats it in every pair."""
    inputs = list(task)
    try:
        if args.subcommand == "iso" and len(task) == 2:
            raise ValueError("iso consumes graphs in pairs; dangling input")
        for stale in held.keys() - set(task[1::2]):
            del held[stale]  # before a new graph is read
        for i in range(1, len(task), 2):
            if task[i] not in held:
                held[task[i]] = GraphAnalysis(_decode(args, task[i]))
            inputs[i] = held[task[i]]
        cap = _get_int_text_cap()
        _set_int_text_cap(0)  # no cap while the answer is written
        try:
            return (_render_pair if len(task) == 4 else _render_single)(args, *inputs), False
        finally:
            _set_int_text_cap(cap)
    except Exception as exc:
        return _error_line(args, ",".join(task[0::2]), exc), True


def _error_line(args: argparse.Namespace, input_id: str, exc: Exception) -> str:
    # an empty message (as of a bare MemoryError) names the exception type
    message = str(exc) or type(exc).__name__
    return json_line({"input": input_id, "error": message}) if args.json else f"{input_id}: error: {message}"


def _run_tasks(args: argparse.Namespace, tasks: list) -> list[tuple[str, bool]]:
    """The lines of ``tasks`` from :func:`_process`, in order: runs of
    ``_CHUNK`` tasks over a pool of up to ``--jobs`` processes, or one run of
    them all in this one."""
    # the pool starts all its workers at once: no more than there are runs
    workers = min(args.jobs, math.ceil(len(tasks) / _CHUNK))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        runs = [tasks[i : i + _CHUNK] for i in range(0, len(tasks), _CHUNK)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return [result for results in pool.map(partial(_process, args), runs) for result in results]
    return _process(args, tasks)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.subcommand == "selftest":
        from .selftest import run_selftest

        return 0 if run_selftest(seed=args.seed, **_cap(args)) else 1

    try:
        text = _read_text(args.path)
    except OSError as exc:
        print(f"qblock: cannot read input: {exc}", file=sys.stderr)
        return 2
    inputs = _split_inputs(text, args.format)
    del text  # the payloads are copies: the whole text is not needed again

    if args.subcommand == "iso":  # consecutive inputs pair up; an odd last one stands alone
        inputs = [sum(inputs[i : i + 2], ()) for i in range(0, len(inputs), 2)]
    results = _run_tasks(args, inputs)

    try:
        for line, _ in results:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left (as ``| head`` does): point stdout at devnull, so that
        # the interpreter's last flush at exit meets no broken pipe either
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return 1 if any(is_error for _, is_error in results) else 0


if __name__ == "__main__":
    sys.exit(main())
