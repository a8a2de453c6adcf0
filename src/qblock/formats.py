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
from math import isqrt

from .graphs import Graph, Record, build_graph

SCHEMA_VERSION = 1
_MAX_N = 258047


class Graph6Error(ValueError):
    """Malformed graph6 input or unencodable graph."""


class EdgeListError(ValueError):
    """Malformed edge-list text."""


#: graph6 body character -> offsets (0 = most significant) of its set bits
_SET_BITS = {chr(63 + v): tuple(k for k in range(6) if v >> (5 - k) & 1) for v in range(64)}
_GRAPH6_BYTES = bytes(range(63, 127))
_OUTSIDE = re.compile("[^?-~]")  # any character outside 63..126
_NONZERO = re.compile("[^?]+")  # runs of body characters with a set bit


def _bad_byte(text: str, pos: int) -> str:
    """Names the input byte at ``pos``; ``surrogateescape`` reads 0x80..0xFF as U+DC80..U+DCFF."""
    code = ord(text[pos])
    return f"byte {code - 0xDC00 if 0xDC80 <= code <= 0xDCFF else code} at position {pos}"


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
    if not line.isascii() or line.encode().translate(None, _GRAPH6_BYTES):
        pos = _OUTSIDE.search(line).start()
        raise Graph6Error(f"{_bad_byte(line, pos)} outside graph6 range 63..126")
    if line[0] == "~":
        if line[1:2] == "~":
            raise Graph6Error("'huge' size header (n >= 258048) is not supported")
        if len(line) < 4:
            raise Graph6Error("truncated long size header")
        n = ((ord(line[1]) - 63) << 12) | ((ord(line[2]) - 63) << 6) | (ord(line[3]) - 63)
        if n < 63:
            raise Graph6Error(f"non-canonical long header for n={n}")
        off = 4
    else:
        n = ord(line[0]) - 63
        off = 1
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    got = len(line) - off  # the body is line[off:], read in place: a slice would copy it
    if got < nbytes:
        raise Graph6Error(f"truncated body: expected {nbytes} bytes, got {got}")
    if got > nbytes:
        raise Graph6Error(f"overlong body: expected {nbytes} bytes, got {got}")
    pad = 6 * nbytes - nbits  # zero bits after x(n-2, n-1), all in the last byte
    if pad and (ord(line[-1]) - 63) & ((1 << pad) - 1):
        raise Graph6Error("nonzero padding bits")
    # bit p = j(j-1)/2 + i is x(i, j); only bytes other than "?" carry any
    edges, j, start = [], 0, 0  # column j holds bits start .. start + j - 1
    for run in _NONZERO.finditer(line, off):
        base = 6 * (run.start() - off)
        for ch in run.group():
            for p in _SET_BITS[ch]:
                p += base
                if p >= start + j:
                    j = (1 + isqrt(8 * p + 1)) >> 1
                    start = j * (j - 1) >> 1
                edges.append((p - start, j))
            base += 6
    # i < j < n by construction: no build_graph checks needed
    return Graph(n, frozenset(edges))


def parse_edge_list(text: str) -> Graph:
    """Parse ``n`` followed by whitespace-separated ``u v`` pairs.

    ``#`` starts a comment running to the end of its line. Any byte outside
    ASCII, even in a comment, is an error.
    """
    if not text.isascii():
        pos = re.search("[^\x00-\x7f]", text).start()
        raise EdgeListError(f"{_bad_byte(text, pos)} is not ASCII")
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
    """Serialize ``payload`` to one deterministic JSON line (sorted keys, no spaces).

    Python's encoder recurses once per level of nesting, so a payload nested
    deeper than the recursion limit allows, as the decomposition tree of a
    long path, is written by :func:`qblock.jsontext.json_text` instead, to
    the same bytes.
    """
    try:
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))
    except RecursionError:
        from .jsontext import json_text  # loaded only for such payloads

        return json_text(payload)


def emit_report(report: AnalysisReport) -> str:
    """Serialize a report to one deterministic JSON line."""
    return json_line(report_to_dict(report))
