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
import re

from .graphs import Graph, Record, build_graph

SCHEMA_VERSION = 1
_MAX_N = 258047


class Graph6Error(ValueError):
    """Malformed graph6 input or unencodable graph."""


class EdgeListError(ValueError):
    """Malformed edge-list text."""


#: graph6 body byte -> its six adjacency bits, most significant first.
_BITS = {63 + v: format(v, "06b") for v in range(64)}
_OUTSIDE = re.compile("[^?-~]")  # any character outside 63..126


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
    # x(i,j) for i < j is bit j(j-1)/2 + i: column j is contiguous
    bits = bytearray(b"0" * (6 * ((n * (n - 1) // 2 + 5) // 6)))
    for i, j in g.edges:
        bits[j * (j - 1) // 2 + i] = ord("1")
    return header + "".join(chr(63 + int(bits[k:k + 6], 2)) for k in range(0, len(bits), 6))


def decode_graph6(line: str) -> Graph:
    if not line:
        raise Graph6Error("empty graph6 line")
    bad = _OUTSIDE.search(line)
    if bad:
        pos = bad.start()
        raise Graph6Error(f"byte {ord(line[pos])} at position {pos} outside graph6 range 63..126")
    if line[0] == "~":
        if line[1:2] == "~":
            raise Graph6Error("'huge' size header (n >= 258048) is not supported")
        if len(line) < 4:
            raise Graph6Error("truncated long size header")
        n = ((ord(line[1]) - 63) << 12) | ((ord(line[2]) - 63) << 6) | (ord(line[3]) - 63)
        if n < 63:
            raise Graph6Error(f"non-canonical long header for n={n}")
        body = line[4:]
    else:
        n = ord(line[0]) - 63
        body = line[1:]
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(body) < nbytes:
        raise Graph6Error(f"truncated body: expected {nbytes} bytes, got {len(body)}")
    if len(body) > nbytes:
        raise Graph6Error(f"overlong body: expected {nbytes} bytes, got {len(body)}")
    bits = body.translate(_BITS)
    if "1" in bits[nbits:]:
        raise Graph6Error("nonzero padding bits")
    # column j, x(0,j)..x(j-1,j), starts at bit j(j-1)/2: O(n + m) Python steps
    edges = []
    start, j = 0, 1
    p = bits.find("1")
    while p != -1:
        while p >= start + j:
            start += j
            j += 1
        edges.append((p - start, j))
        p = bits.find("1", p + 1)
    # i < j < n by construction: no build_graph checks needed
    return Graph(n, frozenset(edges))


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


class AnalysisReport(Record):
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


def report_to_dict(report: AnalysisReport) -> dict[str, object]:
    out: dict[str, object] = {"schema": SCHEMA_VERSION}
    for name in report._fields:
        out["class" if name == "graph_class" else name] = getattr(report, name)
    return out


def json_line(payload: dict) -> str:
    """Serialize ``payload`` to one deterministic JSON line (sorted keys, no spaces)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def emit_report(report: AnalysisReport) -> str:
    """Serialize a report to one deterministic JSON line."""
    return json_line(report_to_dict(report))
