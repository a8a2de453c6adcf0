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

from qblock.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFEST = json.loads((GOLDEN / "MANIFEST.json").read_text())


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("name", sorted(MANIFEST))
def test_golden_output(name, jobs, monkeypatch):
    case = MANIFEST[name]
    monkeypatch.chdir(GOLDEN)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([*case["argv"], "--jobs", jobs])
    assert buf.getvalue() == (GOLDEN / name).read_text(encoding="utf-8")
    assert code == case["exit"]
