"""Byte-for-byte CLI output against the pinned files in ``tests/golden``.

Every case of ``tests/golden/MANIFEST.json`` is run in-process at ``--jobs 1``
and ``--jobs 2``; stdout and the exit code must equal what the pinned code
produced. The canonical codes of seeded random graphs at n = 50..2000 must
hash to ``tests/golden/code_hashes.txt``. ``tests/golden/make_golden.py``
documents how the files were made.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from collections import Counter
from pathlib import Path

import pytest

from qblock import analyze, cli, oracle
from qblock.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFEST = json.loads((GOLDEN / "MANIFEST.json").read_text())


def assert_golden(name, jobs, monkeypatch):
    case = MANIFEST[name]
    monkeypatch.chdir(GOLDEN)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([*case["argv"], "--jobs", jobs])
    assert buf.getvalue() == (GOLDEN / name).read_text(encoding="utf-8")
    assert code == case["exit"]


def refuse(*args, **kwargs):
    raise AssertionError("built for a line that is not printed")


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("name", sorted(MANIFEST))
def test_golden_output(name, jobs, monkeypatch):
    assert_golden(name, jobs, monkeypatch)


@pytest.mark.parametrize(
    "name", [n for n in sorted(MANIFEST) if n.endswith((".analyze.json", ".hyperbolicity.json", "-report.json"))]
)
def test_json_answers_build_no_text_line(name, monkeypatch):
    # _half writes the text lines' delta; a JSON answer that built one would fail
    monkeypatch.setattr(cli, "_half", refuse)
    assert_golden(name, "1", monkeypatch)


@pytest.mark.parametrize("name", [n for n in sorted(MANIFEST) if n.endswith(".analyze.text")])
def test_analyze_text_reads_the_analysis_and_builds_no_report(name, monkeypatch):
    monkeypatch.setattr(analyze, "tree_to_json", refuse)
    monkeypatch.setattr(analyze.GraphAnalysis, "components", property(refuse))
    assert_golden(name, "1", monkeypatch)


@pytest.mark.parametrize("name", ["edges.txt.decompose.json", "inputs.g6.decompose.json"])
def test_decompose_json_prints_the_tree_and_reads_no_code(name, monkeypatch):
    # support is decided by the class, so the JSON tree never waits on the code
    monkeypatch.setattr(analyze.GraphAnalysis, "code", property(refuse))
    assert_golden(name, "1", monkeypatch)


def test_analyze_json_reads_the_analysis_the_worker_built(monkeypatch):
    # the CLI binds GraphAnalysis at import; a report that built its own fails
    class Refused:
        def __init__(self, g):
            raise AssertionError("a graph analysed a second time")

    monkeypatch.setattr(analyze, "GraphAnalysis", Refused)
    for name in ("edges.txt.analyze.json", "inputs.g6.analyze.json"):
        assert_golden(name, "1", monkeypatch)


def test_canonical_codes_hash_as_pinned():
    lines = (GOLDEN / "code_hashes.txt").read_text().splitlines()
    sizes = Counter(tuple(line.split()[:2]) for line in lines)
    assert len(sizes) == 8 and set(sizes.values()) == {25}
    for line in lines:
        family, n, seed, digest = line.split()
        code = analyze.GraphAnalysis(getattr(oracle, family)(int(n), int(seed))).code
        assert hashlib.sha256(code.encode()).hexdigest() == digest, line
