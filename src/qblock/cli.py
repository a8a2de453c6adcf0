"""Batch command-line front end.

One report per input graph, in input order even with parallel workers;
per-graph failures become inline error records. Exit code 0 on full success,
1 when any graph failed, 2 on usage errors.

A run loads only what its subcommand uses: the process pool when it starts
one, the brute-force ``oracle`` for ``schmidt``, ``selftest`` and ``iso``
outside the supported classes, ``selftest`` for ``selftest`` alone.
"""

from __future__ import annotations

import argparse
import math
import sys

from .analyze import GraphAnalysis, analyze_graph
from .formats import decode_graph6, json_line, parse_edge_list, report_to_dict
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
#: Tasks a pool worker takes at a time.
_CHUNK = 16
# From Python 3.10.7 on, int-to-text conversion is capped at 4300 digits,
# which bounds the cost of parsing digits (edge lists stay under the cap); a
# group order such as that of K1,10000 (10000!) has 35,660 digits.
_get_int_text_cap = getattr(sys, "get_int_max_str_digits", lambda: 0)
_set_int_text_cap = getattr(sys, "set_int_max_str_digits", lambda cap: None)
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
            if line.startswith(">>graph6<<") and not line[10:11].isspace():
                line = line[10:]  # nauty's header has no end of line of its own
            if not line or line.startswith(">"):
                continue
            out.append((f"line:{lineno}", line))
        return out
    # blank lines separate records; comment lines stay inside their record
    records: list[tuple[str, str]] = []

    def close(lines: list[str]) -> None:
        if any(line.split("#", 1)[0].strip() for line in lines):
            records.append((f"graph:{len(records) + 1}", "\n".join(lines)))

    current: list[str] = []
    for raw in text.splitlines():
        if not raw.strip():
            close(current)
            current = []
        else:
            current.append(raw)
    close(current)
    return records


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


def _render_single(args: argparse.Namespace, input_id: str, g: Graph) -> tuple[dict, str]:
    """JSON record and text line of one graph's answer; :func:`_line` picks one."""
    sub = args.subcommand
    if sub == "analyze":
        report = analyze_graph(g, input_id)
        return report_to_dict(report), (
            f"{input_id}: n={report.n} m={report.m} class={report.graph_class} "
            f"delta={_half(int(2 * report.hyperbolicity))} "
            f"aut={report.aut_expr} order={report.aut_order} "
            f"qsym={report.has_quantum_symmetry}"
        )
    if sub == "schmidt":
        from .oracle import schmidt_bruteforce

        verdict = schmidt_bruteforce(g, **_cap(args))
        return {"input": input_id, "schmidt": verdict}, f"{input_id}: schmidt = {str(verdict).lower()}"
    a = GraphAnalysis(g)
    if sub == "hyperbolicity":
        result = a.hyperbolicity
        if args.delta_report:
            row = {
                "input": input_id,
                "n": g.n,
                "m": g.m,
                "delta": result.twice_delta / 2,
                "is_block_graph": a.is_block_graph,
            }
            return row, (
                f"{input_id}\t{g.n}\t{g.m}\t{_half(result.twice_delta)}\t{row['is_block_graph']}"
            )
        row = {
            "input": input_id,
            "delta": result.twice_delta / 2,
            "twice_delta": result.twice_delta,
            "witness": list(result.witness) if result.witness else None,
            "per_component": [
                {"component": cid, "delta": twice / 2}
                for cid, twice in result.per_component
            ],
            "connected": result.connected,
        }
        return row, f"{input_id}: delta = {_half(result.twice_delta)}"
    klass = a.graph_class
    if sub == "recognize":
        row = {
            "input": input_id,
            "n": g.n,
            "m": g.m,
            "is_block_graph": a.is_block_graph,
            "is_block_cograph": a.is_block_cograph,
            "class": klass,
        }
        return row, f"{input_id}: class = {klass}"
    if sub in ("decompose", "canon"):
        if a.code is None:
            from .groups import UnsupportedClassError

            raise UnsupportedClassError(f"{sub} needs a block graph or block-cograph")
        text = f"{input_id}: {a.code}"
        if sub == "canon":
            return {"input": input_id, "class": klass, "canonical_code": a.code}, text
        tree = a.decomposition if args.json else None  # built only to be printed
        return {"input": input_id, "class": klass, "decomposition": tree}, text
    if sub in ("group", "qsym"):
        if a.expr is None:
            from .groups import UnsupportedClassError

            raise UnsupportedClassError("graph is neither a block graph nor a block-cograph")
        f = a.group_fields
        row = {"input": input_id, **{k: f[k] for k in _GROUP_KEYS[sub]}}
        if sub == "group":
            return row, f"{input_id}: Aut = {f['aut_expr']} (order {f['aut_order']}); Qu = {f['qaut_expr']}"
        return row, f"{input_id}: quantum symmetry = {str(f['has_quantum_symmetry']).lower()}"
    raise AssertionError(f"unhandled subcommand {sub}")


def _render_pair(id_g: str, g: Graph, id_h: str, h: Graph) -> tuple[dict, str]:
    a, b = GraphAnalysis(g), GraphAnalysis(h)  # h is analysed only if g is supported
    if a.is_block_cograph and b.is_block_cograph:
        same = (a.graph_class, a.code) == (b.graph_class, b.code)
        quantum: bool | None = same
        method = "canonical-code (superrigidity)"
    else:
        from .oracle import _MAX_ISO_N, is_isomorphic_bruteforce

        if g.n > _MAX_ISO_N or h.n > _MAX_ISO_N:
            from .groups import UnsupportedClassError

            raise UnsupportedClassError("pair outside supported classes and too large for brute force")
        same = is_isomorphic_bruteforce(g, h)
        quantum = None
        method = "brute-force (outside supported classes)"
    row = {
        "pair": [id_g, id_h],
        "isomorphic": same,
        "quantum_isomorphic": quantum,
        "method": method,
    }
    label = "brute-force" if quantum is None else "superrigidity"
    quantum_text = "unknown" if quantum is None else str(quantum).lower()
    return row, (
        f"{id_g},{id_h}: isomorphic: {str(same).lower()}; "
        f"quantum-isomorphic: {quantum_text} ({label})"
    )


def _line(args: argparse.Namespace, row: dict, text: str) -> str:
    """The one output line: ``row`` as JSON, or ``text`` under --text."""
    return json_line(row) if args.json else text


def _process_single(task: tuple[argparse.Namespace, str, str]) -> tuple[str, bool]:
    args, input_id, payload = task
    try:
        g = _decode(args, payload)
        cap = _get_int_text_cap()
        _set_int_text_cap(0)  # no cap while the report is written
        try:
            return _line(args, *_render_single(args, input_id, g)), False
        finally:
            _set_int_text_cap(cap)
    except Exception as exc:
        return _error_line(args, input_id, exc), True


def _process_pair(task: tuple[argparse.Namespace, str, str, str, str]) -> tuple[str, bool]:
    args, id_g, payload_g, id_h, payload_h = task
    try:
        g = _decode(args, payload_g)
        h = _decode(args, payload_h)
        return _line(args, *_render_pair(id_g, g, id_h, h)), False
    except Exception as exc:
        return _error_line(args, f"{id_g},{id_h}", exc), True


def _error_line(args: argparse.Namespace, input_id: str, exc: Exception) -> str:
    # an empty message (as of a bare MemoryError) names the exception type
    message = str(exc) or type(exc).__name__
    return _line(args, {"input": input_id, "error": message}, f"{input_id}: error: {message}")


def _run_tasks(tasks: list, worker, jobs: int) -> list[tuple[str, bool]]:
    # the pool starts all its workers at once: no more than there are chunks
    workers = min(jobs, math.ceil(len(tasks) / _CHUNK))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(worker, tasks, chunksize=_CHUNK))
    return [worker(t) for t in tasks]


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

    if args.subcommand == "iso":
        pairs = zip(inputs[0::2], inputs[1::2])  # a dangling last input is left out
        tasks = [(args, id_g, pg, id_h, ph) for (id_g, pg), (id_h, ph) in pairs]
        results = _run_tasks(tasks, _process_pair, args.jobs)
        if len(inputs) % 2:
            results.append(
                (
                    _error_line(args, inputs[-1][0], ValueError("iso consumes graphs in pairs; dangling input")),
                    True,
                )
            )
    else:
        tasks = [(args, input_id, payload) for input_id, payload in inputs]
        results = _run_tasks(tasks, _process_single, args.jobs)

    for line, _ in results:
        print(line)
    return 1 if any(is_error for _, is_error in results) else 0


if __name__ == "__main__":
    sys.exit(main())
