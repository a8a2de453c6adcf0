"""Batch command-line front end.

One report per input graph, in input order even with parallel workers;
per-graph failures become inline error records. Exit code 0 on full success,
1 when any graph failed, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

from .analyze import GraphAnalysis, analyze_graph
from .blocks import is_block_graph
from .formats import decode_graph6, emit_report, parse_edge_list
from .graphs import Graph
from .groups import UnsupportedClassError
from .hyperbolicity import hyperbolicity
from .oracle import DEFAULT_CAP, is_isomorphic_bruteforce, schmidt_bruteforce
from .selftest import run_selftest

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
_BRUTE_FORCE_ISO_LIMIT = 10
#: Fields of GraphAnalysis.group_fields in the JSON rows of group and qsym.
_GROUP_KEYS = {
    "group": ("aut_expr", "qaut_expr", "aut_order"),
    "qsym": ("has_quantum_symmetry", "is_quantum_asymmetric"),
}


def _default_jobs() -> int:
    try:
        return max(1, int(os.environ.get("QBLOCK_JOBS", "1")))
    except ValueError:
        return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qblock",
        description="Analyze block graphs and block-cographs: hyperbolicity, "
        "block structure, canonical codes, and symbolic (quantum) automorphism groups.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--format", choices=("graph6", "edgelist"), default="graph6")
        p.add_argument("--in", dest="path", default=None, metavar="PATH",
                       help="input file (default: standard input)")
        mode = p.add_mutually_exclusive_group()
        mode.add_argument("--json", dest="json", action="store_true", default=True)
        mode.add_argument("--text", dest="json", action="store_false")
        p.add_argument("--jobs", type=int, default=_default_jobs(), metavar="N")
        p.add_argument("--seed", type=int, default=0, metavar="N")
        p.add_argument("--cap", type=int, default=DEFAULT_CAP, metavar="N",
                       help="automorphism enumeration cap for oracle-backed commands")
        p.add_argument("--delta-report", action="store_true",
                       help="batch hyperbolicity table (hyperbolicity subcommand)")
    return parser


def _read_text(path: str | None) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _split_inputs(text: str, fmt: str) -> list[tuple[str, str]]:
    """(input id, payload) pairs: one line per graph6 graph, blank-line
    separated records for edge lists."""
    if fmt == "graph6":
        out = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
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


def _json_line(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _decode(cfg: dict, payload: str) -> Graph:
    if cfg["format"] == "graph6":
        return decode_graph6(payload)
    return parse_edge_list(payload)


def _render_single(cfg: dict, input_id: str, g: Graph) -> str:
    sub = cfg["subcommand"]
    as_json = cfg["json"]
    if sub == "analyze":
        report = analyze_graph(g, input_id)
        if as_json:
            return emit_report(report)
        return (
            f"{input_id}: n={report.n} m={report.m} class={report.graph_class} "
            f"delta={Fraction(report.hyperbolicity)} "
            f"aut={report.aut_expr} order={report.aut_order} "
            f"qsym={report.has_quantum_symmetry}"
        )
    if sub == "schmidt":
        verdict = schmidt_bruteforce(g, cap=cfg["cap"])
        if as_json:
            return _json_line({"input": input_id, "schmidt": verdict})
        return f"{input_id}: schmidt = {str(verdict).lower()}"
    if sub == "hyperbolicity":
        result = hyperbolicity(g)
        if cfg["delta_report"]:
            row = {
                "input": input_id,
                "n": g.n,
                "m": g.m,
                "delta": result.twice_delta / 2,
                "is_block_graph": is_block_graph(g),
            }
            if as_json:
                return _json_line(row)
            return (
                f"{input_id}\t{g.n}\t{g.m}\t{result.delta}\t{row['is_block_graph']}"
            )
        if as_json:
            return _json_line(
                {
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
            )
        return f"{input_id}: delta = {result.delta}"
    a = GraphAnalysis(g)
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
        if as_json:
            return _json_line(row)
        return f"{input_id}: class = {klass}"
    if sub in ("decompose", "canon"):
        if a.code is None:
            raise UnsupportedClassError(f"{sub} needs a block graph or block-cograph")
        if not as_json:
            return f"{input_id}: {a.code}"
        if sub == "decompose":
            return _json_line({"input": input_id, "class": klass, "decomposition": a.decomposition})
        return _json_line({"input": input_id, "class": klass, "canonical_code": a.code})
    if sub in ("group", "qsym"):
        if a.expr is None:
            raise UnsupportedClassError("graph is neither a block graph nor a block-cograph")
        f = a.group_fields
        if as_json:
            return _json_line({"input": input_id, **{k: f[k] for k in _GROUP_KEYS[sub]}})
        if sub == "group":
            return f"{input_id}: Aut = {f['aut_expr']} (order {f['aut_order']}); Qu = {f['qaut_expr']}"
        return f"{input_id}: quantum symmetry = {str(f['has_quantum_symmetry']).lower()}"
    raise AssertionError(f"unhandled subcommand {sub}")


def _render_pair(cfg: dict, id_g: str, g: Graph, id_h: str, h: Graph) -> str:
    cotree_g = GraphAnalysis(g).cotree
    cotree_h = None if cotree_g is None else GraphAnalysis(h).cotree
    if cotree_g is not None and cotree_h is not None:
        same = cotree_g.code == cotree_h.code
        quantum: bool | None = same
        method = "canonical-code (superrigidity)"
    elif g.n <= _BRUTE_FORCE_ISO_LIMIT and h.n <= _BRUTE_FORCE_ISO_LIMIT:
        same = is_isomorphic_bruteforce(g, h)
        quantum = None
        method = "brute-force (outside supported classes)"
    else:
        raise UnsupportedClassError(
            "pair outside supported classes and too large for brute force"
        )
    if cfg["json"]:
        return _json_line(
            {
                "pair": [id_g, id_h],
                "isomorphic": same,
                "quantum_isomorphic": quantum,
                "method": method,
            }
        )
    label = "brute-force" if quantum is None else "superrigidity"
    quantum_text = "unknown" if quantum is None else str(quantum).lower()
    return (
        f"{id_g},{id_h}: isomorphic: {str(same).lower()}; "
        f"quantum-isomorphic: {quantum_text} ({label})"
    )


def _process_single(task: tuple[dict, str, str]) -> tuple[str, bool]:
    cfg, input_id, payload = task
    try:
        g = _decode(cfg, payload)
        return _render_single(cfg, input_id, g), False
    except Exception as exc:
        return _error_line(cfg, input_id, exc), True


def _process_pair(task: tuple[dict, str, str, str, str]) -> tuple[str, bool]:
    cfg, id_g, payload_g, id_h, payload_h = task
    try:
        g = _decode(cfg, payload_g)
        h = _decode(cfg, payload_h)
        return _render_pair(cfg, id_g, g, id_h, h), False
    except Exception as exc:
        return _error_line(cfg, f"{id_g},{id_h}", exc), True


def _error_line(cfg: dict, input_id: str, exc: Exception) -> str:
    if cfg["json"]:
        return _json_line({"input": input_id, "error": str(exc)})
    return f"{input_id}: error: {exc}"


def _run_tasks(tasks: list, worker, jobs: int) -> list[tuple[str, bool]]:
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(worker, tasks, chunksize=16))
    return [worker(t) for t in tasks]


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.subcommand == "selftest":
        return 0 if run_selftest(seed=args.seed, cap=args.cap) else 1

    cfg = {
        "subcommand": args.subcommand,
        "format": args.format,
        "json": args.json,
        "cap": args.cap,
        "delta_report": args.delta_report,
    }
    try:
        text = _read_text(args.path)
    except OSError as exc:
        print(f"qblock: cannot read input: {exc}", file=sys.stderr)
        return 2
    inputs = _split_inputs(text, args.format)

    had_error = False
    if args.subcommand == "iso":
        tasks = []
        for k in range(0, len(inputs) - 1, 2):
            (id_g, pg), (id_h, ph) = inputs[k], inputs[k + 1]
            tasks.append((cfg, id_g, pg, id_h, ph))
        results = _run_tasks(tasks, _process_pair, args.jobs)
        if len(inputs) % 2:
            results.append(
                (
                    _error_line(cfg, inputs[-1][0], ValueError("iso consumes graphs in pairs; dangling input")),
                    True,
                )
            )
    else:
        tasks = [(cfg, input_id, payload) for input_id, payload in inputs]
        results = _run_tasks(tasks, _process_single, args.jobs)

    for line, is_error in results:
        print(line)
        had_error = had_error or is_error
    return 1 if had_error else 0


if __name__ == "__main__":
    sys.exit(main())
