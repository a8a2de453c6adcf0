"""graph6 codec, edge-list parser, and the JSON analysis-report emitter.

The graph6 wire format: a size header (one byte ``n+63`` for ``n <= 62``, or
``chr(126)`` followed by three bytes carrying 18 bits big-endian in 6-bit
groups each offset by 63 for ``63 <= n <= 258047``) followed by the
upper-triangle adjacency bits x(0,1), x(0,2), x(1,2), x(0,3), ... packed six
per byte, most significant bit first, zero-padded, every byte offset by 63.
The >= 258048-vertex "huge" header variant is rejected.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Any

from .graphs import Graph, build_graph

SCHEMA_VERSION = 1
_MAX_N = 258047


class Graph6Error(ValueError):
    """Malformed graph6 input or unencodable graph."""


class EdgeListError(ValueError):
    """Malformed edge-list text."""


def _triangle_pairs(n: int):
    for j in range(1, n):
        for i in range(j):
            yield i, j


def encode_graph6(g: Graph) -> str:
    n = g.n
    if n > _MAX_N:
        raise Graph6Error(f"cannot encode graphs with more than {_MAX_N} vertices (n={n})")
    if n <= 62:
        header = chr(63 + n)
    else:
        header = chr(126) + "".join(
            chr(63 + ((n >> shift) & 63)) for shift in (12, 6, 0)
        )
    chunks = []
    acc = 0
    filled = 0
    for i, j in _triangle_pairs(n):
        acc = (acc << 1) | (1 if (i, j) in g.edges else 0)
        filled += 1
        if filled == 6:
            chunks.append(chr(63 + acc))
            acc, filled = 0, 0
    if filled:
        chunks.append(chr(63 + (acc << (6 - filled))))
    return header + "".join(chunks)


def decode_graph6(line: str) -> Graph:
    if not line:
        raise Graph6Error("empty graph6 line")
    data = [ord(c) for c in line]
    for pos, b in enumerate(data):
        if not 63 <= b <= 126:
            raise Graph6Error(f"byte {b!r} at position {pos} outside graph6 range 63..126")
    if data[0] == 126:
        if len(data) >= 2 and data[1] == 126:
            raise Graph6Error("'huge' size header (n >= 258048) is not supported")
        if len(data) < 4:
            raise Graph6Error("truncated long size header")
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        if n < 63:
            raise Graph6Error(f"non-canonical long header for n={n}")
        body = data[4:]
    else:
        n = data[0] - 63
        body = data[1:]
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(body) < nbytes:
        raise Graph6Error(f"truncated body: expected {nbytes} bytes, got {len(body)}")
    if len(body) > nbytes:
        raise Graph6Error(f"overlong body: expected {nbytes} bytes, got {len(body)}")
    bits = []
    for b in body:
        v = b - 63
        bits.extend(((v >> shift) & 1) for shift in (5, 4, 3, 2, 1, 0))
    if any(bits[nbits:]):
        raise Graph6Error("nonzero padding bits")
    edges = [pair for pair, bit in zip(_triangle_pairs(n), bits) if bit]
    return build_graph(n, edges)


def parse_edge_list(text: str) -> Graph:
    """Parse ``n`` followed by whitespace-separated ``u v`` pairs.

    ``#`` starts a comment running to the end of its line.
    """
    tokens: list[str] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0]
        tokens.extend(line.split())
    if not tokens:
        raise EdgeListError("no vertex count found")
    try:
        n = int(tokens[0])
    except ValueError:
        raise EdgeListError(f"vertex count {tokens[0]!r} is not an integer") from None
    rest = tokens[1:]
    if len(rest) % 2:
        raise EdgeListError("dangling endpoint: edges must come in 'u v' pairs")
    try:
        endpoints = [int(t) for t in rest]
    except ValueError as exc:
        raise EdgeListError(f"malformed edge token: {exc}") from None
    return build_graph(n, list(zip(endpoints[::2], endpoints[1::2])))


@dataclass(frozen=True)
class AnalysisReport:
    """One graph's full analysis, with JSON-ready field values.

    Theorem-backed quantum fields are ``None`` when the graph lies outside the
    supported classes (block graphs and block-cographs); the structural fields
    are always populated.
    """

    input: str
    graph_class: str
    n: int
    m: int
    connected: bool
    hyperbolicity: float
    per_component: list[dict]
    is_block_graph: bool
    is_block_cograph: bool
    blocks: list[list[int]]
    cut_vertices: list[int]
    centre: list[int] | None
    anchor: dict | None
    decomposition: dict | None
    aut_expr: str | None
    qaut_expr: str | None
    aut_order: int | None
    has_quantum_symmetry: bool | None
    is_quantum_asymmetric: bool | None
    canonical_code: str | None


def report_to_dict(report: AnalysisReport) -> dict[str, Any]:
    out: dict[str, Any] = {"schema": SCHEMA_VERSION}
    for f in fields(report):
        key = "class" if f.name == "graph_class" else f.name
        out[key] = getattr(report, f.name)
    return out


def emit_report(report: AnalysisReport) -> str:
    """Serialize a report to one deterministic JSON line."""
    return json.dumps(report_to_dict(report), sort_keys=True, separators=(",", ":"))
