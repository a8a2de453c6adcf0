"""End-to-end command line behaviour."""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qblock
from qblock.cli import SUBCOMMANDS, build_parser
from qblock.families import bull_graph, cycle_graph, path_graph, star_graph
from qblock.formats import encode_graph6
from qblock.graphs import build_graph, complement, relabel
from qblock.oracle import random_block_cograph, random_block_graph

BULL = encode_graph6(bull_graph())
C4 = encode_graph6(cycle_graph(4))
C5 = encode_graph6(cycle_graph(5))


def run_cli(args, stdin=""):
    return subprocess.run(
        [sys.executable, "-m", "qblock.cli", *args],
        input=stdin,
        capture_output=True,
        text=True,
    )


def test_analyze_bull():
    proc = run_cli(["analyze", "--format", "graph6"], stdin=BULL + "\n")
    assert proc.returncode == 0
    data = json.loads(proc.stdout.strip())
    assert data["is_block_graph"] is True
    assert data["aut_order"] == 2
    assert data["has_quantum_symmetry"] is False
    assert data["schema"] == 1


def test_hyperbolicity_text_c4_edgelist():
    proc = run_cli(
        ["hyperbolicity", "--format", "edgelist", "--text"],
        stdin="4\n0 1\n1 2\n2 3\n3 0\n",
    )
    assert proc.returncode == 0
    assert "delta = 1" in proc.stdout


def test_hyperbolicity_json_c5():
    proc = run_cli(["hyperbolicity"], stdin=C5 + "\n")
    data = json.loads(proc.stdout.strip())
    assert data["delta"] == 0.5 and data["twice_delta"] == 1


def test_iso_relabelings_of_star():
    g = star_graph(4)
    h = relabel(g, [4, 0, 1, 2, 3])
    proc = run_cli(["iso", "--text"], stdin=encode_graph6(g) + "\n" + encode_graph6(h) + "\n")
    assert proc.returncode == 0
    assert "isomorphic: true; quantum-isomorphic: true (superrigidity)" in proc.stdout


def test_iso_odd_input_reports_error():
    proc = run_cli(["iso"], stdin=BULL + "\n")
    assert proc.returncode == 1
    assert "error" in proc.stdout


@pytest.mark.parametrize("pairs", [1, 16])  # 16 pairs and the dangling input: 17 tasks reach the pool
@pytest.mark.parametrize("third", [BULL, "A"])  # "A" is truncated graph6
@pytest.mark.parametrize("mode", ["--json", "--text"])
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_iso_dangling_input_is_the_last_line(jobs, mode, third, pairs, tmp_path, capsys):
    import qblock.cli as cli

    path = tmp_path / "pairs.g6"
    path.write_text("\n".join([BULL, BULL] * pairs + [third]) + "\n")
    assert cli.main(["iso", mode, "--jobs", jobs, "--in", str(path)]) == 1
    last = f"line:{2 * pairs + 1}"
    message = "iso consumes graphs in pairs; dangling input"
    if mode == "--json":
        pair = (
            '{{"isomorphic":true,"method":"canonical-code (superrigidity)",'
            '"pair":["line:{}","line:{}"],"quantum_isomorphic":true}}\n'
        )
        error = f'{{"error":"{message}","input":"{last}"}}\n'
    else:
        pair = "line:{},line:{}: isomorphic: true; quantum-isomorphic: true (superrigidity)\n"
        error = f"{last}: error: {message}\n"
    expected = "".join(pair.format(2 * i + 1, 2 * i + 2) for i in range(pairs)) + error
    assert capsys.readouterr().out == expected


def test_recognize_and_canon():
    proc = run_cli(["recognize"], stdin="\n".join([BULL, C4, C5]) + "\n")
    rows = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [r["class"] for r in rows] == ["block-graph", "block-cograph", "unsupported"]

    proc = run_cli(["canon"], stdin="\n".join([BULL, C4]) + "\n")
    rows = [json.loads(line) for line in proc.stdout.splitlines()]
    assert rows[0]["canonical_code"].startswith("Q{")
    assert rows[1]["canonical_code"].startswith("c(")


def test_canon_unsupported_is_per_graph_error():
    proc = run_cli(["canon"], stdin=C5 + "\n")
    assert proc.returncode == 1
    assert "error" in json.loads(proc.stdout.strip())


def test_group_and_qsym_and_schmidt():
    proc = run_cli(["group"], stdin=C4 + "\n")
    data = json.loads(proc.stdout.strip())
    assert data["aut_expr"] == "(S2 wr S2)" and data["aut_order"] == 8
    assert data["qaut_expr"] == "(S2+ fwr S2+)"

    proc = run_cli(["qsym"], stdin=C4 + "\n")
    assert json.loads(proc.stdout.strip())["has_quantum_symmetry"] is True

    proc = run_cli(["schmidt"], stdin=C4 + "\n")
    assert json.loads(proc.stdout.strip())["schmidt"] is True


def test_decompose_subcommand():
    proc = run_cli(["decompose"], stdin=BULL + "\n")
    data = json.loads(proc.stdout.strip())
    assert data["decomposition"]["kind"] == "top_block"
    assert data["decomposition"]["z"] == 1


def test_bad_graph_line_sets_exit_one_but_keeps_going():
    proc = run_cli(["analyze"], stdin="!!!\n" + BULL + "\n")
    assert proc.returncode == 1
    lines = proc.stdout.splitlines()
    assert "error" in json.loads(lines[0])
    assert json.loads(lines[1])["aut_order"] == 2


def test_usage_error_exit_two():
    assert run_cli(["frobnicate"]).returncode == 2
    assert run_cli(["analyze", "--format", "tsv"]).returncode == 2


def test_unreadable_input_exit_two():
    proc = run_cli(["analyze", "--in", "/no/such/file.g6"])
    assert proc.returncode == 2
    assert "cannot read input" in proc.stderr


def test_jobs_do_not_change_output():
    stdin = "\n".join([BULL, C4, C5, BULL, C4] * 4) + "\n"
    one = run_cli(["analyze", "--jobs", "1"], stdin=stdin)
    two = run_cli(["analyze", "--jobs", "2"], stdin=stdin)
    assert one.stdout == two.stdout
    assert one.returncode == two.returncode == 0


def test_jobs_do_not_change_iso_pair_output():
    # 18 pairs: more than one chunk, so --jobs 3 reaches the pool
    stdin = "\n".join([BULL, BULL, C4, C5, C4, C4] * 6) + "\n"
    one = run_cli(["iso", "--jobs", "1"], stdin=stdin)
    two = run_cli(["iso", "--jobs", "3"], stdin=stdin)
    assert one.stdout == two.stdout and one.returncode == two.returncode


@pytest.mark.parametrize("tasks,jobs,workers", [(20, 64, 2), (16, 64, None), (40, 2, 2)])
def test_pool_starts_no_more_workers_than_chunks(monkeypatch, tasks, jobs, workers):
    import concurrent.futures

    import qblock.cli as cli

    started = []

    class FakePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, runs):
            return map(fn, runs)

    # _run_tasks imports the pool class when it starts one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    assert cli._run_tasks(list(range(tasks)), lambda run: [(str(t), False) for t in run], jobs) == [
        (str(t), False) for t in range(tasks)
    ]
    assert started == ([] if workers is None else [workers])


def test_jobs_default_ignores_environment(monkeypatch):
    monkeypatch.setenv("QBLOCK_JOBS", "3")
    assert build_parser().parse_args(["analyze"]).jobs == 1


#: One argv tail per flag, and the subcommands that accept it.
FLAG_ARGV = {
    "--format": ["--format", "edgelist"],
    "--in": ["--in", "graphs.g6"],
    "--json": ["--json"],
    "--text": ["--text"],
    "--jobs": ["--jobs", "2"],
    "--delta-report": ["--delta-report"],
    "--cap": ["--cap", "5"],
    "--seed": ["--seed", "3"],
}
INPUT_SUBCOMMANDS = set(SUBCOMMANDS) - {"selftest"}
ACCEPTED_BY = {
    **dict.fromkeys(("--format", "--in", "--json", "--text", "--jobs"), INPUT_SUBCOMMANDS),
    "--delta-report": {"hyperbolicity"},
    "--cap": {"schmidt", "selftest"},
    "--seed": {"selftest"},
}


@pytest.mark.parametrize("flag", sorted(FLAG_ARGV))
@pytest.mark.parametrize("sub", SUBCOMMANDS)
def test_each_subcommand_accepts_only_the_flags_it_reads(sub, flag, capsys):
    argv = [sub, *FLAG_ARGV[flag]]
    if sub in ACCEPTED_BY[flag]:
        build_parser().parse_args(argv)
    else:
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(FLAG_ARGV[flag])}" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-3", "two"])
def test_jobs_below_one_is_a_usage_error(value, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["analyze", "--jobs", value])
    assert exc.value.code == 2
    assert f"argument --jobs: expected a positive integer, got {value!r}" in capsys.readouterr().err


@pytest.mark.parametrize("sub", ["schmidt", "selftest"])
@pytest.mark.parametrize("value", ["0", "-5", "five"])
def test_cap_below_one_is_a_usage_error(sub, value):
    proc = run_cli([sub, "--cap", value], stdin=BULL + "\n")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"argument --cap: expected a positive integer, got {value!r}" in proc.stderr


@pytest.mark.parametrize("json_output", [True, False])
def test_an_empty_error_message_names_the_exception_type(json_output, monkeypatch, tmp_path, capsys):
    import qblock.cli as cli

    def fail(args, payload):
        raise MemoryError()

    monkeypatch.setattr(cli, "_decode", fail)
    path = tmp_path / "graphs.g6"
    path.write_text(BULL + "\n")
    mode = "--json" if json_output else "--text"
    assert cli.main(["analyze", mode, "--jobs", "1", "--in", str(path)]) == 1
    assert capsys.readouterr().out == (
        '{"error":"MemoryError","input":"line:1"}\n' if json_output else "line:1: error: MemoryError\n"
    )


def test_text_delta_prints_as_a_fraction():
    from fractions import Fraction

    import qblock.cli as cli

    assert [cli._half(t) for t in range(12)] == [str(Fraction(t, 2)) for t in range(12)]


def test_delta_report_table():
    proc = run_cli(["hyperbolicity", "--delta-report"], stdin="\n".join([BULL, C4]) + "\n")
    rows = [json.loads(line) for line in proc.stdout.splitlines()]
    assert rows[0]["delta"] == 0 and rows[0]["is_block_graph"] is True
    assert rows[1]["delta"] == 1 and rows[1]["is_block_graph"] is False


def test_selftest_passes():
    proc = run_cli(["selftest", "--seed", "2"])
    assert proc.returncode == 0
    assert "FAIL" not in proc.stdout
    assert proc.stdout.count("PASS") == 6


def test_selftest_reports_a_tripped_cap_and_runs_on(capsys):
    from qblock.selftest import run_selftest

    assert run_selftest(seed=1, cap=50) is False
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6
    assert "FAIL automorphism-order-formula (more than 50 automorphisms)" in lines
    assert lines[-1] == "PASS graph6-roundtrip-and-rejection"


def test_edgelist_multiple_records():
    stdin = "3\n0 1\n1 2\n\n2\n0 1\n"
    proc = run_cli(["recognize", "--format", "edgelist"], stdin=stdin)
    rows = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [r["n"] for r in rows] == [3, 2]


def test_edgelist_comments_stay_inside_records():
    stdin = "3\n# a comment inside the record\n0 1\n1 2\n\n# trailing chatter\n"
    proc = run_cli(["recognize", "--format", "edgelist"], stdin=stdin)
    rows = [json.loads(line) for line in proc.stdout.splitlines()]
    assert proc.returncode == 0
    assert len(rows) == 1 and rows[0]["n"] == 3 and rows[0]["m"] == 2


def test_graph6_corpus_header_lines_are_skipped():
    proc = run_cli(["recognize"], stdin=">>graph6<<\n" + BULL + "\n")
    rows = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(rows) == 1 and rows[0]["class"] == "block-graph"


def test_graph6_header_before_the_first_graph_on_its_line():
    nx = pytest.importorskip("networkx")
    # networkx, like nauty, writes the header with no end of line of its own
    g6 = nx.to_graph6_bytes(nx.path_graph(4)) + nx.to_graph6_bytes(nx.cycle_graph(5), header=False)
    proc = run_cli(["recognize"], stdin=g6.decode())
    rows = [json.loads(line) for line in proc.stdout.splitlines()]
    assert proc.returncode == 0
    assert [(r["input"], r["n"], r["class"]) for r in rows] == [
        ("line:1", 4, "block-graph"),
        ("line:2", 5, "unsupported"),
    ]


def test_in_flag_reads_file(tmp_path):
    path = tmp_path / "graphs.g6"
    path.write_text(BULL + "\n" + C4 + "\n", encoding="utf-8")
    proc = run_cli(["recognize", "--in", str(path)])
    rows = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [r["class"] for r in rows] == ["block-graph", "block-cograph"]


def _run_bytes(args, data):
    return subprocess.run([sys.executable, "-m", "qblock.cli", *args], input=data, capture_output=True)


@pytest.mark.parametrize(
    "fmt,data,message",
    [
        ("graph6", b"D\xffG\nDyG\n", "byte 255 at position 1 outside graph6 range 63..126"),
        ("edgelist", b"3\n0 1 # caf\xc3\xa9\n\n2\n0 1\n", "byte 195 at position 11 is not ASCII"),
    ],
    ids=["graph6", "edgelist"],
)
def test_unreadable_bytes_are_one_record_error_from_a_file_or_stdin(tmp_path, fmt, data, message):
    path = tmp_path / "input"
    path.write_bytes(data)
    by_file = _run_bytes(["recognize", "--format", fmt, "--in", str(path)], b"")
    by_stdin = _run_bytes(["recognize", "--format", fmt], data)
    for proc in (by_file, by_stdin):
        assert proc.returncode == 1 and b"Traceback" not in proc.stderr
    assert by_file.stdout == by_stdin.stdout
    first, second = map(json.loads, by_file.stdout.splitlines())
    assert first["error"] == message and "error" not in second


def test_lines_split_at_ascii_line_ends_only():
    # \x1c splits a line as str.splitlines does; the byte 0x85 (NEL in Latin-1) does not
    proc = _run_bytes(["recognize", "--text"], b"D\x85G\x1cDyG\r\nDyG\rDyG\x0b\xa0DyG\n")
    assert proc.returncode == 1
    assert proc.stdout.decode().splitlines() == [
        "line:1: error: byte 133 at position 1 outside graph6 range 63..126",
        "line:2: class = block-graph",
        "line:3: class = block-graph",
        "line:4: class = block-graph",
        "line:5: error: byte 160 at position 0 outside graph6 range 63..126",
    ]


def _main_on_bytes(argv, data):
    """Exit code and stdout of an in-process ``main`` reading ``data`` from stdin."""
    import qblock.cli as cli

    out = io.StringIO()
    with mock.patch.object(sys, "stdin", io.TextIOWrapper(io.BytesIO(data))), contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


_PIECES = st.one_of(
    st.binary(max_size=8),
    st.sampled_from([b"DyG", b"C~", b"3 0 1 1 2", b"# note", b"\n", b"\r\n", b"\x85", b"\xff", b"\xc3\xa9"]),
)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(st.lists(_PIECES, max_size=8).map(b"".join), st.sampled_from(["graph6", "edgelist"]))
def test_property_any_bytes_give_the_same_records_from_a_file_or_stdin(data, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        with open(path, "wb") as handle:
            handle.write(data)
        by_file = _main_on_bytes(["recognize", "--format", fmt, "--in", path], b"")
    by_stdin = _main_on_bytes(["recognize", "--format", fmt], data)
    assert by_file == by_stdin and by_file[0] in (0, 1)
    rows = [json.loads(line) for line in by_file[1].splitlines()]
    assert all(("error" in row) == ("class" not in row) for row in rows)
    assert by_file[0] == any("error" in row for row in rows)


Y = "L(" * 1499 + "•" + ")" * 1499


@pytest.mark.parametrize(
    "sub,line",
    [
        ("canon", f"Q{{0;{Y}^2}}"),
        ("group", "Aut = S2 (order 2); Qu = S2+"),
        ("qsym", "quantum symmetry = false"),
        # text mode prints the code and never builds the JSON tree
        ("decompose", f"Q{{0;{Y}^2}}"),
    ],
    ids=["canon", "group", "qsym", "decompose"],
)
def test_canon_on_a_path_deeper_than_the_recursion_limit(sub, line):
    proc = run_cli([sub, "--text"], stdin=encode_graph6(path_graph(3000)) + "\n")
    assert proc.returncode == 0
    assert proc.stdout == f"line:1: {line}\n"


def test_a_reader_that_leaves_early_gets_exit_one_and_no_traceback(tmp_path):
    # the JSON line of P1000 is about 430 kB, more than a pipe holds
    g = path_graph(1000)
    path = tmp_path / "p1000.txt"
    path.write_text(f"{g.n}\n" + "".join(f"{u} {v}\n" for u, v in sorted(g.edges)))
    args = [sys.executable, "-m", "qblock.cli", "analyze", "--format", "edgelist", "--in", str(path)]
    with subprocess.Popen(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        head = proc.stdout.read(150)
        proc.stdout.close()  # as `| head -c 150` does
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    assert head.startswith(b'{"anchor":{"kind":"block","vertices":[499,500]}')
    assert err == b""


def test_iso_of_block_graphs_builds_no_complement(monkeypatch, tmp_path, capsys):
    import qblock.cli as cli
    import qblock.cographs as cographs

    def refuse(g):
        raise AssertionError("complement built")

    monkeypatch.setattr(cographs, "complement", refuse)
    g = random_block_graph(300, 17)
    perm = list(range(g.n))
    random.Random(17).shuffle(perm)
    # move a pendant vertex so that the degree sequence changes
    v = next(v for v in range(g.n) if g.degree(v) == 1)
    (u,) = g.adjacency[v]
    w = next(w for w in range(g.n) if w not in (u, v) and g.degree(w) != g.degree(u) - 1)
    mate = build_graph(g.n, [e for e in g.edges if v not in e] + [(v, w)])
    path = tmp_path / "pairs.g6"
    path.write_text("".join(encode_graph6(x) + "\n" for x in (g, relabel(g, perm), g, mate)))
    assert cli.main(["iso", "--text", "--jobs", "1", "--in", str(path)]) == 0
    assert capsys.readouterr().out == (
        "line:1,line:2: isomorphic: true; quantum-isomorphic: true (superrigidity)\n"
        "line:3,line:4: isomorphic: false; quantum-isomorphic: false (superrigidity)\n"
    )


def _modules_after_each_run(runs):
    """The modules loaded after each of ``runs``, (label, argv) pairs run in
    turn through ``cli.main`` in one fresh process, by label."""
    script = (
        "import contextlib, io, json, sys\n"
        "from qblock.cli import main\n"
        "loaded = {}\n"
        "for label, argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, label\n"
        "    loaded[label] = sorted(sys.modules)\n"
        "print(json.dumps(loaded))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(runs)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return {label: set(names) for label, names in json.loads(proc.stdout).items()}


def test_runs_load_only_their_subcommands_modules(tmp_path):
    path = tmp_path / "graphs.g6"
    path.write_text("".join(encode_graph6(g) + "\n" for g in (bull_graph(), cycle_graph(4), path_graph(7))))
    pairs = tmp_path / "pairs.g6"
    pairs.write_text("".join(encode_graph6(g) + "\n" for g in (bull_graph(), relabel(bull_graph(), [4, 3, 2, 1, 0]))))
    # all runs in one process; each reports the modules loaded so far
    loaded = _modules_after_each_run([
        (sub, [sub, "--jobs", "1", "--in", str(pairs if sub == "iso" else path)])
        for sub in ("hyperbolicity", "canon", "analyze", "iso", "group")
    ])
    assert "qblock.hyperbolicity" in loaded["hyperbolicity"] and "qblock.decomposition" in loaded["canon"]
    for names in loaded.values():
        assert not names & {"qblock.oracle", "qblock.selftest", "concurrent.futures.process", "fractions"}
        # the iterative JSON writer is only for lines nested too deep for json.dumps
        assert "qblock.jsontext" not in names
        # the records are plain classes: start-up compiles no dataclass machinery
        assert not names & {"dataclasses", "inspect", "ast", "dis"}
    assert not loaded["hyperbolicity"] & {"qblock.cographs", "qblock.decomposition", "qblock.groups"}

    # proving graphs unsupported writes no code or group expression
    unsupported = tmp_path / "unsupported.g6"
    c5, c6 = cycle_graph(5), cycle_graph(6)
    unsupported.write_text("".join(encode_graph6(g) + "\n" for g in (c5, c6, complement(c6))))
    c5_pair = tmp_path / "c5-pair.g6"
    c5_pair.write_text("".join(encode_graph6(g) + "\n" for g in (c5, relabel(c5, [1, 3, 0, 4, 2]))))
    loaded = _modules_after_each_run([
        ("recognize", ["recognize", "--jobs", "1", "--in", str(unsupported)]),
        ("iso", ["iso", "--jobs", "1", "--in", str(c5_pair)]),
    ])
    assert "qblock.cographs" in loaded["recognize"] and "qblock.oracle" in loaded["iso"]
    for names in loaded.values():
        assert not names & {"qblock.decomposition", "qblock.groups"}


def test_start_up_and_runs_import_no_typing(tmp_path):
    # -S keeps out site, whose .pth files may import typing on their own
    path = tmp_path / "graphs.g6"
    path.write_text("".join(encode_graph6(g) + "\n" for g in (bull_graph(), cycle_graph(5))))
    script = (
        "import contextlib, io, sys\n"
        "from qblock.cli import main\n"
        "loaded = ['typing' in sys.modules]\n"
        "for sub in ('hyperbolicity', 'analyze'):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main([sub, '--jobs', '1', '--in', sys.argv[1]]) == 0\n"
        "    loaded.append('typing' in sys.modules)\n"
        "print(loaded)\n"
    )
    src = str(Path(qblock.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script, str(path)], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[False, False, False]\n"


def test_analyze_text_on_a_path_deeper_than_the_recursion_limit(tmp_path, capsys):
    import qblock.cli as cli

    path = tmp_path / "p1000.g6"
    path.write_text(encode_graph6(path_graph(1000)) + "\n")
    assert cli.main(["analyze", "--text", "--jobs", "1", "--in", str(path)]) == 0
    assert capsys.readouterr().out == (
        "line:1: n=1000 m=999 class=block-graph delta=0 aut=S2 order=2 qsym=False\n"
    )


@pytest.mark.parametrize("sub", ["decompose", "analyze"])
def test_json_on_a_path_deeper_than_the_recursion_limit(sub, tmp_path, capsys):
    import qblock.cli as cli
    from qblock.analyze import GraphAnalysis, analyze_graph
    from qblock.formats import report_to_dict
    from qblock.jsontext import json_text

    path = tmp_path / "p1000.g6"
    path.write_text(encode_graph6(path_graph(1000)) + "\n")
    assert cli.main([sub, "--json", "--jobs", "1", "--in", str(path)]) == 0
    if sub == "decompose":
        tree = GraphAnalysis(path_graph(1000)).decomposition
        expected = {"input": "line:1", "class": "block-graph", "decomposition": tree}
    else:
        expected = report_to_dict(analyze_graph(path_graph(1000), "line:1"))
    assert capsys.readouterr().out == json_text(expected) + "\n"


@pytest.mark.parametrize("mode", ["--json", "--text"])
def test_group_order_longer_than_the_int_text_cap(mode, tmp_path, capsys):
    # 2000! has 5,736 digits, past Python's default cap of 4,300 on int-to-text
    # conversion; the cap is back in place once the report is written
    import math

    import qblock.cli as cli

    path = tmp_path / "star.g6"
    path.write_text(encode_graph6(star_graph(2000)) + "\n")
    cap = getattr(sys, "get_int_max_str_digits", lambda: None)()
    assert cli.main(["group", mode, "--jobs", "1", "--in", str(path)]) == 0
    out = capsys.readouterr().out
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == cap
    if cap:
        sys.set_int_max_str_digits(0)
    try:
        order = str(math.factorial(2000))
    finally:
        if cap:
            sys.set_int_max_str_digits(cap)
    if mode == "--json":
        assert out == f'{{"aut_expr":"S2000","aut_order":{order},"input":"line:1","qaut_expr":"S2000+"}}\n'
    else:
        assert out == f"line:1: Aut = S2000 (order {order}); Qu = S2000+\n"


def test_only_json_trees_build_decomposition_nodes(monkeypatch, tmp_path, capsys):
    # group expressions and codes are read off the per-code records
    import qblock.cli as cli
    from qblock.decomposition import DecompositionNode

    built = []
    init = DecompositionNode.__init__

    def counting(self, *args, **kwargs):
        built.append(args[:3])
        init(self, *args, **kwargs)

    monkeypatch.setattr(DecompositionNode, "__init__", counting)
    graphs = [random_block_cograph(12, s) for s in range(20)] + [random_block_graph(30, s) for s in range(5)]
    path = tmp_path / "graphs.g6"
    path.write_text("".join(encode_graph6(g) + "\n" for g in graphs))
    for sub in ("group", "qsym", "canon", "recognize"):
        assert cli.main([sub, "--jobs", "1", "--in", str(path)]) == 0, sub
        assert '"error"' not in capsys.readouterr().out
        assert built == [], sub
    assert cli.main(["analyze", "--jobs", "1", "--in", str(path)]) == 0
    capsys.readouterr()
    assert built


@pytest.mark.parametrize(
    "argv,peels",
    [
        (["canon"], 1),
        (["decompose"], 1),
        (["decompose", "--text"], 1),
        (["group"], 1),
        (["qsym"], 1),
        (["analyze"], 1),
        (["analyze", "--text"], 1),
        (["iso"], 1),  # two per pair of graphs
        (["recognize"], 0),
        (["hyperbolicity"], 0),
    ],
)
def test_each_subcommand_peels_a_block_graph_once_or_never(argv, peels, monkeypatch, tmp_path, capsys):
    import qblock.cli as cli
    import qblock.decomposition as decomposition

    calls = []
    peel = decomposition._peel

    def counting(*args):
        calls.append(args)
        return peel(*args)

    monkeypatch.setattr(decomposition, "_peel", counting)
    path = tmp_path / "graphs.g6"
    path.write_text("".join(encode_graph6(random_block_graph(15, s)) + "\n" for s in range(20)))
    assert cli.main([*argv, "--jobs", "1", "--in", str(path)]) == 0
    assert "error" not in capsys.readouterr().out
    assert len(calls) == 20 * peels


def test_iso_peels_a_graph_repeated_from_the_previous_pair_once(monkeypatch, tmp_path, capsys):
    # each block graph heads two consecutive pairs, against a relabelled copy
    # and then against another block graph: three peels per two pairs, not four
    import qblock.cli as cli
    import qblock.decomposition as decomposition

    peels, decoded = [], []
    peel, decode = decomposition._peel, cli._decode

    def counting_peel(*args):
        peels.append(args)
        return peel(*args)

    def counting_decode(args, payload):
        decoded.append(payload)
        return decode(args, payload)

    monkeypatch.setattr(decomposition, "_peel", counting_peel)
    monkeypatch.setattr(cli, "_decode", counting_decode)
    lines = []
    for s in range(10):
        g = random_block_graph(15, s)
        perm = list(range(g.n))
        random.Random(s).shuffle(perm)
        lines += map(encode_graph6, (g, relabel(g, perm), g, random_block_graph(15, 100 + s)))
    assert len(set(lines)) == 30  # three distinct payloads per two pairs
    path = tmp_path / "pairs.g6"
    path.write_text("".join(line + "\n" for line in lines))
    assert cli.main(["iso", "--jobs", "1", "--in", str(path)]) == 0
    assert "error" not in capsys.readouterr().out
    assert len(peels) == 30
    # one decode per payload that is not one of the previous pair's
    assert decoded == [line for i, line in enumerate(lines) if i % 4 != 2]


def _fresh_pair_lines(argv, lines):
    """iso's lines on ``lines``, built pair by pair from fresh analyses."""
    import qblock.cli as cli
    from qblock.analyze import GraphAnalysis

    args = build_parser().parse_args(argv)
    out = []
    for i in range(0, len(lines), 2):
        a, b = (GraphAnalysis(cli._decode(args, line)) for line in lines[i : i + 2])
        out.append(cli._render_pair(args, f"line:{i + 1}", a, f"line:{i + 2}", b) + "\n")
    return "".join(out)


@pytest.mark.parametrize("mode", ["--json", "--text"])
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_iso_one_against_many_equals_fresh_analyses(jobs, mode, tmp_path, capsys):
    # 20 pairs against a block graph, then 4 against C6, outside the classes,
    # the repeated graph first or second; pairs 16 and 17 share the block
    # graph across the first run boundary at --jobs 2
    import qblock.cli as cli

    hub, c6 = random_block_graph(9, 3), cycle_graph(6)
    perm = list(range(hub.n))[::-1]
    others = [random_block_graph(9, s) for s in range(8)] + [random_block_cograph(9, s) for s in range(8)]
    others += [relabel(hub, perm), hub, cycle_graph(8), build_graph(hub.n, [(0, 1)])]
    pairs = [(hub, other) if i % 3 else (other, hub) for i, other in enumerate(others)]
    pairs += [(c6, other) for other in (relabel(c6, [5, 3, 1, 0, 2, 4]), path_graph(6), complement(c6), c6)]
    lines = [encode_graph6(g) for pair in pairs for g in pair]
    path = tmp_path / "pairs.g6"
    path.write_text("".join(line + "\n" for line in lines))
    assert cli.main(["iso", mode, "--jobs", jobs, "--in", str(path)]) == 0
    out = capsys.readouterr().out
    assert out == _fresh_pair_lines(["iso", mode], lines)
    assert "superrigidity" in out and "brute-force" in out


def test_iso_undecodable_line_repeated_in_two_pairs_gives_two_error_records(capsys, tmp_path):
    import qblock.cli as cli

    path = tmp_path / "pairs.g6"
    path.write_text("D\n" + C5 + "\nD\n" + C4 + "\n")
    assert cli.main(["iso", "--text", "--jobs", "1", "--in", str(path)]) == 1
    assert capsys.readouterr().out == (
        "line:1,line:2: error: truncated body: expected 2 bytes, got 0\n"
        "line:3,line:4: error: truncated body: expected 2 bytes, got 0\n"
    )


def _reference_split_edge_lists(text):
    """The edge-list record splitter that grouping runs of lines replaced."""
    records = []

    def close(lines):
        if any(line.split("#", 1)[0].strip() for line in lines):
            records.append((f"graph:{len(records) + 1}", "\n".join(lines)))

    current = []
    for raw in text.splitlines():
        if not raw.strip():
            close(current)
            current = []
        else:
            current.append(raw)
    close(current)
    return records


_EDGE_LIST_LINES = st.sampled_from(
    ["", " ", "\t", "\f", "\v", " \t\f\v ", "# note", "  # note", "3", "0 1", "1 2  # an edge", " 2 0 "]
)
_LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r", "\x1c", "\x1d", "\x1e", ""])


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.lists(st.tuples(_EDGE_LIST_LINES, _LINE_ENDS), max_size=12).map(lambda lines: "".join(map("".join, lines))))
def test_property_edge_list_records_are_the_runs_of_non_blank_lines(text):
    from qblock.cli import _split_inputs

    assert _split_inputs(text, "edgelist") == _reference_split_edge_lists(text)
