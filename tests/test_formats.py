"""graph6 codec, edge-list parsing, and report emission."""

import json
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qblock.analyze import analyze_graph
from qblock.families import bull_graph, complete_graph, path_graph, star_graph
from qblock.formats import (
    EdgeListError,
    Graph6Error,
    decode_graph6,
    emit_report,
    encode_graph6,
    json_line,
    parse_edge_list,
    report_to_dict,
)
from qblock.graphs import GraphError, build_graph
from qblock.jsontext import json_text


def test_known_codewords():
    assert encode_graph6(complete_graph(1)) == "@"
    assert decode_graph6("@") == complete_graph(1)
    assert decode_graph6("A_") == build_graph(2, [(0, 1)])
    assert encode_graph6(build_graph(2, [(0, 1)])) == "A_"
    assert decode_graph6("A?") == build_graph(2, [])
    assert encode_graph6(build_graph(2, [])) == "A?"
    assert decode_graph6("?").n == 0


def test_d_question_brace_is_a_star():
    # hand-decoded per the format definition and cross-checked below vs networkx
    g = decode_graph6("D?{")
    assert g.n == 5
    assert g.sorted_edges() == [(0, 4), (1, 4), (2, 4), (3, 4)]


def test_roundtrip_exhaustive_small(all_graphs_upto6):
    for g in all_graphs_upto6:
        assert decode_graph6(encode_graph6(g)) == g


def test_roundtrip_random_up_to_30():
    rng = random.Random(9)
    for _ in range(500):
        n = rng.randint(0, 30)
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3
        ]
        g = build_graph(n, edges)
        assert decode_graph6(encode_graph6(g)) == g


def test_long_header_roundtrip():
    g = build_graph(70, [(0, 69), (3, 5)])
    line = encode_graph6(g)
    assert line.startswith(chr(126))
    assert decode_graph6(line) == g


def test_networkx_cross_check():
    nx = pytest.importorskip("networkx")
    rng = random.Random(13)
    # short headers (n <= 62) and long ones (n >= 63)
    sizes = [rng.randint(0, 25) for _ in range(200)] + [rng.randint(63, 300) for _ in range(20)]
    for n in sizes:
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3
        ]
        g = build_graph(n, edges)
        line = encode_graph6(g)
        theirs = nx.from_graph6_bytes(line.encode())
        assert {tuple(sorted(e)) for e in theirs.edges} == set(g.edges)
        back = nx.to_graph6_bytes(theirs, header=False).strip().decode()
        assert decode_graph6(back) == g


def test_networkx_reads_large_encodings():
    # nx.to_graph6_bytes is too slow at this size, so only the reading side
    nx = pytest.importorskip("networkx")
    for g in (path_graph(2000), star_graph(2000)):
        line = encode_graph6(g)
        assert decode_graph6(line) == g
        theirs = nx.from_graph6_bytes(line.encode())
        assert theirs.number_of_nodes() == g.n
        assert {tuple(sorted(e)) for e in theirs.edges} == set(g.edges)


def _reference_decode_graph6(line):
    """The decoder that ``decode_graph6`` replaced: the whole body becomes one
    bit string, read column by column. Lines are assumed well formed up to
    the padding bits."""
    n, body = (ord(line[0]) - 63, line[1:]) if line[0] != "~" else (
        ((ord(line[1]) - 63) << 12) | ((ord(line[2]) - 63) << 6) | (ord(line[3]) - 63), line[4:]
    )
    bits = body.translate({63 + v: format(v, "06b") for v in range(64)})
    nbits = n * (n - 1) // 2
    if "1" in bits[nbits:]:
        raise Graph6Error("nonzero padding bits")
    edges = []
    start, j = 0, 1
    p = bits.find("1")
    while p != -1:
        while p >= start + j:
            start += j
            j += 1
        edges.append((p - start, j))
        p = bits.find("1", p + 1)
    return build_graph(n, edges)


def test_decode_equals_the_reference_decoder():
    rng = random.Random(16)
    lines = []
    for n in range(71):  # the long header starts at n = 63
        for p in (0.0, 0.03, 0.3, 0.8, 1.0):
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
            lines.append(encode_graph6(build_graph(n, edges)))
    for line in lines:
        assert decode_graph6(line) == _reference_decode_graph6(line), line
    corrupted = 0
    for line in lines:
        head = 4 if line[0] == "~" else 1
        n = decode_graph6(line).n
        pad = 6 * (len(line) - head) - n * (n - 1) // 2
        for k in range(pad):  # set each padding bit of the last byte in turn
            bad = line[:-1] + chr(63 + ((ord(line[-1]) - 63) | 1 << k))
            for decoder in (decode_graph6, _reference_decode_graph6):
                with pytest.raises(Graph6Error, match="nonzero padding bits"):
                    decoder(bad)
            corrupted += 1
    assert corrupted > 100


#: Malformed line -> the exact error text, which reaches stdout as an error record.
_MALFORMED = {
    "": "empty graph6 line",  # no header
    "A": "truncated body: expected 1 bytes, got 0",
    "Cx~": "overlong body: expected 1 bytes, got 2",
    "A" + chr(62): "byte 62 at position 1 outside graph6 range 63..126",
    "A" + chr(127): "byte 127 at position 1 outside graph6 range 63..126",
    "A\u00e9": "byte 233 at position 1 outside graph6 range 63..126",  # non-ASCII
    # surrogateescape reads the byte 0xff, which is no UTF-8, as U+DCFF
    "A\udcff": "byte 255 at position 1 outside graph6 range 63..126",
    chr(126) + "??": "truncated long size header",
    chr(126) + chr(126) + "??????": "'huge' size header (n >= 258048) is not supported",
    chr(126) + "??" + chr(63 + 1): "non-canonical long header for n=1",
    # a bad byte in the body of a long header is found before the header is read
    chr(126) + "?A???" + " ": "byte 32 at position 6 outside graph6 range 63..126",
    "A" + chr(63 + 16): "nonzero padding bits",
    # n=5: the lowest bit of the second body byte is padding
    "D?" + chr(63 + 1): "nonzero padding bits",
}


@pytest.mark.parametrize("line", list(_MALFORMED))
def test_malformed_rejection(line):
    with pytest.raises(Graph6Error) as info:
        decode_graph6(line)
    assert str(info.value) == _MALFORMED[line]


def _bodies_for_header(n):
    """Lines with a size-n header and a body of the right length, so that some decode."""
    nbytes = (n * (n - 1) // 2 + 5) // 6
    body = st.text(alphabet=st.characters(min_codepoint=63, max_codepoint=126),
                   min_size=nbytes, max_size=nbytes)
    return body.map(lambda b: chr(63 + n) + b)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.one_of(st.text(max_size=12), st.integers(0, 12).flatmap(_bodies_for_header)))
def test_property_decode_rejects_or_round_trips(line):
    try:
        g = decode_graph6(line)
    except Graph6Error:
        return
    assert encode_graph6(g) == line


def test_encode_rejects_oversize():
    class FakeGraph:
        n = 258048
        edges = frozenset()

    with pytest.raises(Graph6Error):
        encode_graph6(FakeGraph())


def test_parse_edge_list():
    assert parse_edge_list("3\n0 1\n1 2") == path_graph(3)
    assert parse_edge_list("2\n# empty") == build_graph(2, [])
    assert parse_edge_list("4  0 1  2 3 # trailing comment").m == 2


def test_parse_edge_list_errors():
    with pytest.raises(GraphError):
        parse_edge_list("2\n0 2")
    with pytest.raises(EdgeListError):
        parse_edge_list("")
    with pytest.raises(EdgeListError):
        parse_edge_list("3\n0")
    with pytest.raises(EdgeListError):
        parse_edge_list("3\n0 x")
    # a byte outside ASCII is an error even in a comment, and never a space
    for text, byte in (("3\n0 1 # caf\u00e9", 233), ("3\n0\u00a01", 160), ("3\n0 1\udc85", 133)):
        with pytest.raises(EdgeListError, match=f"^byte {byte} at position [0-9]+ is not ASCII$"):
            parse_edge_list(text)


def test_report_determinism_and_content():
    bull = bull_graph()
    first = emit_report(analyze_graph(bull, "bull"))
    second = emit_report(analyze_graph(bull, "bull"))
    assert first == second  # byte identical
    data = json.loads(first)
    assert data["schema"] == 1
    assert data["n"] == 5 and data["m"] == 5
    assert data["is_block_graph"] is True
    assert data["aut_order"] == 2
    assert data["has_quantum_symmetry"] is False


def test_report_k1():
    data = json.loads(emit_report(analyze_graph(complete_graph(1), "k1")))
    assert data["n"] == 1
    assert data["hyperbolicity"] == 0
    assert data["is_block_graph"] is True
    assert data["aut_order"] == 1
    assert data["is_quantum_asymmetric"] is True


def test_report_every_field_present():
    data = report_to_dict(analyze_graph(path_graph(2), "x"))
    expected = {
        "schema", "input", "class", "n", "m", "connected", "hyperbolicity",
        "per_component", "is_block_graph", "is_block_cograph", "blocks",
        "cut_vertices", "centre", "anchor", "decomposition", "aut_expr",
        "qaut_expr", "aut_order", "has_quantum_symmetry",
        "is_quantum_asymmetric", "canonical_code",
    }
    assert set(data) == expected


def _dumps(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def test_json_text_equals_json_dumps_on_every_golden_record():
    golden = Path(__file__).resolve().parent / "golden"
    records = 0
    for path in sorted(golden.glob("*.json")):
        if path.name == "MANIFEST.json":
            continue
        for line in path.read_text(encoding="utf-8").splitlines():
            value = json.loads(line)
            assert json_text(value) == _dumps(value) == line
            records += 1
    assert records > 500


_SCALARS = [0, -7, 10**30, 0.5, -0.0, 1e300, float("inf"), float("nan"), True, False, None,
            "", "•", 'q"uo\\te', "tab\tnew\nline\x00", "é€😀"]


def _random_tree(rng, depth):
    """A decomposition-like value ``depth`` node levels deep: a level nests
    two containers (``children``) or three (``classes``), at most 800 in all,
    which Python's encoder writes at its default recursion limit."""
    node = {"kind": "leaf_k1", "size": 1, "code": "•"}
    nested = 0
    for level in range(depth):
        extra = {f"k{rng.randrange(9)}": rng.choice(_SCALARS) for _ in range(rng.randrange(3))}
        if nested + 3 > 2 * depth or rng.random() < 0.7:
            nested += 2
            kids = [rng.choice(_SCALARS), [], {}, node][rng.randrange(4):]
            rng.shuffle(kids)
            node = {"children": kids, "kind": "block_root", "size": level, "code": "B{" * level, **extra}
        else:
            nested += 3
            pair = {"multiplicity": rng.randrange(1, 4), "node": node}
            node = {"classes": (pair,), "z": level, "code": "Q{", "kind": "top_block", **extra}
    return node


def test_json_text_equals_json_dumps_below_400_levels():
    rng = random.Random(16)
    for depth in [0, 1, 2, 399] + [rng.randrange(400) for _ in range(60)]:
        for value in (_random_tree(rng, depth), [_random_tree(rng, depth)]):
            assert json_text(value) == _dumps(value)
    for value in _SCALARS + [[], {}, (), [[]], {"b": [1, {"a": None}], "a": (1, 2)}]:
        assert json_text(value) == _dumps(value)
    with pytest.raises(TypeError):
        json_text({"a": {1, 2}})


def test_json_line_writes_payloads_deeper_than_the_recursion_limit():
    # some 3,000 nested containers: past what json.dumps reaches at Python's
    # default recursion limit (Python 3.12 on has a limit of its own for it)
    payload = {"input": "deep", "decomposition": _random_tree(random.Random(3), 1500)}
    if sys.version_info < (3, 12):
        with pytest.raises(RecursionError):
            _dumps(payload)
    line = json_line(payload)
    assert line == json_text(payload)
    assert line.startswith('{"decomposition":{') and line.endswith('},"input":"deep"}')


def test_json_line_is_json_dumps_with_one_encoder(monkeypatch):
    rng = random.Random(3400)
    payloads = [{"input": "x", "tree": _random_tree(rng, rng.randrange(40))} for _ in range(60)]
    payloads += [{"é": "ü\u2028", "b": [1.5, -0.0, 10**30, None, True], "a": {"z": (1, 2), "y": []}}]
    expected = [_dumps(p) for p in payloads]

    def refuse(*args, **kwargs):
        raise AssertionError("an encoder built per line")

    monkeypatch.setattr(json, "dumps", refuse)
    monkeypatch.setattr(json.JSONEncoder, "__init__", refuse)
    assert [json_line(p) for p in payloads] == expected
