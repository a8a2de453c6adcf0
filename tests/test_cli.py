"""End-to-end command line behaviour."""

import json
import subprocess
import sys

from qblock.families import bull_graph, cycle_graph, path_graph, star_graph
from qblock.formats import encode_graph6
from qblock.graphs import relabel

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
    stdin = "\n".join([BULL, BULL, C4, C5, C4, C4] * 3) + "\n"
    one = run_cli(["iso", "--jobs", "1"], stdin=stdin)
    two = run_cli(["iso", "--jobs", "3"], stdin=stdin)
    assert one.stdout == two.stdout and one.returncode == two.returncode


def test_jobs_default_from_environment(monkeypatch):
    import qblock.cli as cli

    monkeypatch.setenv("QBLOCK_JOBS", "3")
    assert cli._default_jobs() == 3
    monkeypatch.setenv("QBLOCK_JOBS", "junk")
    assert cli._default_jobs() == 1


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


def test_in_flag_reads_file(tmp_path):
    path = tmp_path / "graphs.g6"
    path.write_text(BULL + "\n" + C4 + "\n", encoding="utf-8")
    proc = run_cli(["recognize", "--in", str(path)])
    rows = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [r["class"] for r in rows] == ["block-graph", "block-cograph"]


def test_canon_on_a_path_deeper_than_the_recursion_limit():
    y = "L(" * 1499 + "•" + ")" * 1499
    proc = run_cli(["canon", "--text"], stdin=encode_graph6(path_graph(3000)) + "\n")
    assert proc.returncode == 0
    assert proc.stdout == f"line:1: Q{{0;{y}^2}}\n"
