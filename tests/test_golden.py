"""Byte-for-byte CLI output against the pinned files in ``tests/golden``.

Every case of ``tests/golden/MANIFEST.json`` is run in-process at ``--jobs 1``
and ``--jobs 2``; stdout and the exit code must equal what the pinned code
produced. ``tests/golden/make_golden.py`` documents how the files were made.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from qblock import analyze, cli
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
