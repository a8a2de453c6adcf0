"""Answer checker: every output line and every library result of a run is
judged against an expectation that does not come from the code under test.

- Pair verdicts of ``qblock iso`` are known by construction.
- ``analyze`` and ``canon`` outputs must match, byte for byte, what the
  package frozen in ``qblock_seed`` (the commit that added this benchmark)
  gives for the same graph. An input on which the frozen package fails has
  no reference; only the invariants below apply to it.
- ``hyperbolicity`` outputs must match an independent numpy 4-point scan.
- Invariants: delta is 0 exactly for block graphs (networkx biconnected
  components); for n <= 10 the blocks must equal networkx's and the
  automorphism group order must equal the brute-force oracle's count;
  relabelled copies must get the same canonical code.

A verdict is ``OK``, ``ERROR`` (an error record or exception where no
reference exists) or ``WRONG`` (any other mismatch, including an error where
the frozen package answered).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
import time
from pathlib import Path

import networkx as nx
import numpy as np

from corpus import Corpus
from qblock_seed.analyze import analyze_graph as seed_analyze_graph
from qblock_seed.decomposition import canonical_code as seed_canonical_code
from qblock_seed.formats import emit_report
from qblock_seed.graphs import Graph
from qblock_seed.oracle import CapExceededError, enumerate_automorphisms

OK, ERROR, WRONG = "ok", "error", "wrong"
SUPPORTED_METHOD = "canonical-code (superrigidity)"
BRUTE_FORCE_METHOD = "brute-force (outside supported classes)"
ORACLE_MAX_N = 10
AUT_CAP = 100_000
# references slower than this are kept on disk between runs
CACHE_MIN_SECONDS = 0.5


def json_line(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def input_id(index: int) -> str:
    """Id the CLI gives the graph on 0-based line ``index`` of its input."""
    return f"line:{index + 1}"


def _nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


def nx_blocks(g: Graph) -> set[tuple[int, ...]]:
    """Blocks as networkx finds them, plus the singleton block of each
    isolated vertex (the package's convention)."""
    h = _nx(g)
    blocks = {tuple(sorted(b)) for b in nx.biconnected_components(h)}
    blocks.update((v,) for v in nx.isolates(h))
    return blocks


def nx_is_block_graph(g: Graph) -> bool:
    return all(
        g.has_edge(u, v)
        for b in nx_blocks(g)
        for u, v in itertools.combinations(b, 2)
    )


def hyperbolicity_expectation(g: Graph) -> dict:
    """Expected ``qblock hyperbolicity`` JSON fields, by a numpy 4-point scan.

    The witness is the lexicographically smallest quadruple of one component
    attaining the maximum excess, and null when the maximum is 0.
    """
    h = _nx(g)
    comps = sorted((sorted(c) for c in nx.connected_components(h)), key=lambda c: c[0])
    best, witness, per_component = 0, None, []
    for cid, cell in enumerate(comps):
        comp_best, comp_witness = _component_excess(h, cell)
        per_component.append({"component": cid, "delta": comp_best / 2})
        if comp_best > best or (
            comp_best == best and comp_witness and (witness is None or comp_witness < witness)
        ):
            best, witness = comp_best, comp_witness
    return {
        "connected": len(comps) == 1,
        "delta": best / 2,
        "per_component": per_component,
        "twice_delta": best,
        "witness": list(witness) if witness else None,
    }


def _component_excess(h: nx.Graph, cell: list[int]) -> tuple[int, tuple | None]:
    k = len(cell)
    if k < 4:
        return 0, None
    d = nx.floyd_warshall_numpy(h, nodelist=cell).astype(np.int64)
    idx = np.arange(k)
    # order[b, y, z]: b < y < z
    order = (idx[:, None, None] < idx[None, :, None]) & (idx[None, :, None] < idx[None, None, :])
    best, witness = 0, None
    for a in range(k - 3):
        s1 = d[a][:, None, None] + d[None, :, :]          # d(a,b) + d(y,z)
        s2 = d[a][None, :, None] + d[:, None, :]          # d(a,y) + d(b,z)
        s3 = d[a][None, None, :] + d[:, :, None]          # d(a,z) + d(b,y)
        hi = np.maximum(np.maximum(s1, s2), s3)
        lo = np.minimum(np.minimum(s1, s2), s3)
        excess = np.where(order & (idx[:, None, None] > a), 2 * hi + lo - s1 - s2 - s3, -1)
        top = int(excess.max())
        if top > best:
            b, y, z = np.argwhere(excess == top)[0]
            best, witness = top, (cell[a], cell[b], cell[y], cell[z])
    return best, witness


class ReferenceCache:
    """Frozen-package answers kept on disk when they are slow to recompute.

    Entries are keyed by the ``qblock_seed`` sources as well as the input, so
    a change to the frozen package starts a fresh reference. Only answers and
    ``RecursionError`` (the frozen package's known failure on long paths) are
    kept; any other exception gives no reference for this run alone.
    """

    def __init__(self, directory: Path):
        self.directory = directory
        sources = sorted((Path(__file__).parent / "qblock_seed").glob("*.py"))
        self.version = hashlib.sha256(b"".join(p.read_bytes() for p in sources)).hexdigest()

    def get(self, kind: str, g: Graph, compute):
        key = hashlib.sha256(f"{self.version}:{kind}:{g.n}:{sorted(g.edges)}".encode()).hexdigest()
        path = self.directory / f"{key}.json"
        if path.is_file():
            return json.loads(path.read_text())["value"]
        start = time.perf_counter()
        try:
            value = compute(g)
        except RecursionError:
            value = None
        except Exception as exc:
            print(f"perfbench: no {kind} reference for an input with n={g.n}: {exc!r}", file=sys.stderr)
            return None
        if time.perf_counter() - start >= CACHE_MIN_SECONDS:
            self.directory.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(".tmp")
            tmp.write_text(json.dumps({"kind": kind, "value": value}))
            tmp.replace(path)
        return value


def _seed_report(g: Graph) -> dict:
    """Frozen ``analyze`` record without its input id."""
    record = json.loads(emit_report(seed_analyze_graph(g, "")))
    del record["input"]
    return record


class Checker:
    """Expected answers for one corpus, and verdicts for the program's outputs."""

    def __init__(self, corpus: Corpus, cache: ReferenceCache):
        self.corpus = corpus
        self._verdicts: dict[tuple[int, str], str] = {}
        if corpus.subcommand == "analyze":
            self.expected = [cache.get("analyze", g, _seed_report) for g in corpus.graphs]
        elif corpus.subcommand == "hyperbolicity":
            self.expected = [hyperbolicity_expectation(g) for g in corpus.graphs]
        else:
            codes: dict[int, str | None] = {}
            self.expected = []
            for kind, g in zip(corpus.kinds, corpus.graphs):
                # a relabelled copy follows its original and must share its code
                if not kind.endswith("-copy"):
                    original = len(self.expected)
                    codes[original] = cache.get("canon", g, seed_canonical_code)
                code = codes[original]
                self.expected.append(
                    None if code is None
                    else {"canonical_code": code, "class": "block-graph"}
                )
        self.copy_of = {
            i: i - 1 for i, kind in enumerate(corpus.kinds) if kind.endswith("-copy")
        }
        # (verdict expected, method is canonical-code) of each pair
        self.pair_expected = [(same, supported) for _, _, same, supported in corpus.pairs]

    def graph_lines(self, indices: list[int], lines: list[str]) -> list[str]:
        """Verdicts for the single-graph subcommand's output on the graphs
        ``indices``, given to it in that order."""
        if len(lines) != len(indices):
            return [WRONG] * len(indices)
        verdicts = [self.graph(i, k, line) for k, (i, line) in enumerate(zip(indices, lines))]
        position = {i: k for k, i in enumerate(indices)}
        for i, j in self.copy_of.items():
            k, l = position.get(i), position.get(j)
            if k is None or l is None or self.expected[j] is not None:
                continue
            if OK == verdicts[k] == verdicts[l]:
                if json.loads(lines[k])["canonical_code"] != json.loads(lines[l])["canonical_code"]:
                    verdicts[k] = WRONG
        return verdicts

    def graph(self, i: int, position: int, line: str) -> str:
        """Verdict on ``line``, the answer for graph ``i`` given at 0-based
        ``position`` of the input."""
        key = (i, line)
        if key not in self._verdicts:
            self._verdicts[key] = self._judge_line(i, input_id(position), line)
        return self._verdicts[key]

    def api(self, i: int, record: dict) -> str:
        """Verdict on the library's answer for graph ``i``, given as the
        fields of the CLI record for it, ``input`` left out."""
        # tuples become lists, as in the CLI's JSON
        record = json.loads(json.dumps(record))
        key = (i, json_line(record))
        if key not in self._verdicts:
            self._verdicts[key] = self._judge(i, record)
        return self._verdicts[key]

    def _judge_line(self, i: int, expected_id: str, line: str) -> str:
        try:
            record = json.loads(line)
        except ValueError:
            return WRONG
        if not isinstance(record, dict) or record.pop("input", None) != expected_id:
            return WRONG
        expected = self.expected[i]
        if expected is not None and "error" not in record and line != json_line({**expected, "input": expected_id}):
            return WRONG
        return self._judge(i, record)

    def _judge(self, i: int, record: dict) -> str:
        expected = self.expected[i]
        if "error" in record:
            return WRONG if expected is not None else ERROR
        if expected is not None and record != expected:
            return WRONG
        return OK if self._invariants(self.corpus.graphs[i], record) else WRONG

    def _invariants(self, g: Graph, record: dict) -> bool:
        sub = self.corpus.subcommand
        if sub == "canon":
            return record.get("class") == "block-graph"
        if (record["hyperbolicity" if sub == "analyze" else "delta"] == 0) != nx_is_block_graph(g):
            return False
        if sub != "analyze" or g.n > ORACLE_MAX_N:
            return True
        blocks = nx_blocks(g)
        if len(record["blocks"]) != len(blocks) or {tuple(b) for b in record["blocks"]} != blocks:
            return False
        if record["aut_order"] is None:
            return True
        try:
            return record["aut_order"] == enumerate_automorphisms(g, cap=AUT_CAP).order
        except CapExceededError:
            return record["aut_order"] > AUT_CAP

    def api_error(self, i: int) -> str:
        return ERROR if self.expected[i] is None else WRONG

    def pairs(self, indices: list[int], lines: list[str]) -> list[str]:
        """Verdicts for ``qblock iso`` on the pairs ``indices``, in that order."""
        if len(lines) != len(indices):
            return [WRONG] * len(indices)
        verdicts = []
        for k, (p, line) in enumerate(zip(indices, lines)):
            same, supported = self.pair_expected[p]
            want = json_line({
                "isomorphic": same,
                "method": SUPPORTED_METHOD if supported else BRUTE_FORCE_METHOD,
                "pair": [input_id(2 * k), input_id(2 * k + 1)],
                "quantum_isomorphic": same if supported else None,
            })
            verdicts.append(OK if line == want else WRONG)
        return verdicts
