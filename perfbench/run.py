#!/usr/bin/env python3
"""Benchmark of the ``qblock`` batch CLI and library, end to end and per layer.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload small-mixed --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

A run builds the workload's corpus from ``--seed`` (see ``corpus.py``),
writes it as graph6 and then, in whole rounds over the corpus until
``--seconds`` have passed, measures chunk by chunk:

- ``qblock <subcommand>`` as a child process at ``--jobs 1`` (and, in a
  traced run, at ``--jobs 2``);
- ``qblock iso`` as a child process on the workload's pairs;
- the workload's library entry point, called in-process on fresh graphs.

Times are scaled to a reference machine speed (``SpeedProbe``). Every answer of every pass is checked (``check.py``). With ``--trace 1`` the
run then calls ``qblock.cli.main`` in-process at ``--jobs 1`` and the library
entry point once more, with every public function of the package wrapped
(``tracing.py``), and reports per-layer numbers instead of end-to-end ones.
The CLI run's spans go to ``.perfbench_out/trace-<workload>.npz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; details go to
standard error. The exit code is 1 when any answer is wrong, 2 when the
package is missing and 3 when a child process is still running
``RUN_MARGIN_S`` seconds after ``--seconds`` have passed. Metric definitions
are in ``metrics.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from launcher import calibration_loop

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
CACHE_DIR = ROOT / ".perfbench_cache"
TRACE_DIR = ROOT / ".perfbench_out"

SETUP_REPEATS = 7
WARMUP_GRAPHS = 2
TAIL_SAMPLES_BEYOND = 10
API_PIECE_S = 0.25
#: a call that took this long is not repeated (K_{1,2000} on large-block)
API_LONG_CALL_S = 2.0
#: time a run may take beyond ``--seconds``: its set-up and its last round
RUN_MARGIN_S = 160
CHILD = "import sys; from qblock.cli import main; sys.exit(main(sys.argv[1:]))"
#: the calibration loop's time at the speed reported metrics refer to
CALIBRATION_REFERENCE_S = 0.065

#: library entry point of each single-graph subcommand
ENTRY_POINTS = {
    "analyze": "analyze_graph",
    "hyperbolicity": "hyperbolicity",
    "canon": "canonical_code",
}


class RunTimeout(Exception):
    """A child process outlived the run's deadline and was killed."""


@dataclass
class Tally:
    """Verdicts per operation: one input through one path (a subcommand at
    one ``--jobs``, ``iso``, the library, their traced runs, set-up on empty
    input). An operation repeated in later rounds counts once, with the worst
    verdict of its repeats, so ``attempted`` and ``failed`` depend on the seed
    alone, not on how many rounds fit into ``--seconds``."""

    verdicts: dict[tuple[str, int], str] = field(default_factory=dict)
    wrong_examples: list[str] = field(default_factory=list)

    def add(self, indices: list[int], verdicts: list[str], what: str) -> None:
        from check import ERROR, OK, WRONG

        rank = (OK, ERROR, WRONG).index
        for i, verdict in zip(indices, verdicts, strict=True):
            key = (what, i)
            if key not in self.verdicts or rank(verdict) > rank(self.verdicts[key]):
                self.verdicts[key] = verdict
            if verdict == WRONG and len(self.wrong_examples) < 5:
                self.wrong_examples.append(f"{what}: input {i}")

    def count(self, verdict: str) -> int:
        return sum(v == verdict for v in self.verdicts.values())

    @property
    def attempted(self) -> int:
        return len(self.verdicts)

    @property
    def wrong(self) -> int:
        from check import WRONG

        return self.count(WRONG)

    @property
    def failed(self) -> int:
        from check import ERROR

        return self.count(ERROR) + self.wrong


@dataclass
class ChildRun:
    seconds: float
    peak_rss_mb: float
    lines: list[str]


class Launcher:
    """The small process that starts and reaps every CLI child (``launcher.py``)."""

    def __init__(self):
        self.cpus = os.sched_getaffinity(0)
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, args: list[str], out_path: Path, deadline: float, cpus: set[int] | None) -> ChildRun:
        """Run ``qblock <args>`` on ``cpus`` (all when None); wall time and
        the child's own peak RSS."""
        env = {k: v for k, v in os.environ.items() if k != "QBLOCK_JOBS"}
        env["PYTHONPATH"] = str(SRC)
        err_path = out_path.with_suffix(".err")
        self.proc.stdin.write(json.dumps({
            "argv": [sys.executable, "-c", CHILD, *args],
            "env": env,
            "stdout": str(out_path),
            "stderr": str(err_path),
            "timeout": max(1.0, deadline - time.monotonic()),
            "cpus": sorted(cpus) if cpus else None,
        }) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        if reply["status"] < 0:
            raise RunTimeout(f"qblock {args[0]} killed after the run deadline")
        if reply["status"] not in (0, 1):
            sys.stderr.write(err_path.read_text(encoding="utf-8", errors="replace")[-2000:])
        lines = out_path.read_text(encoding="utf-8").splitlines()
        return ChildRun(reply["seconds"], reply["maxrss_kb"] / 1024, lines)

    def probe(self, cpu: int) -> float:
        """Time of the calibration loop on ``cpu``."""
        self.proc.stdin.write(json.dumps({"probe": cpu}) + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())["seconds"]

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


class SpeedProbe:
    """Converts wall times to reference-speed seconds.

    On the 2-vCPU VM this benchmark was written on, the same Python loop
    runs up to 20% faster or slower than its median from one half-minute to
    the next, because the host's CPUs are shared. A fixed pure-Python loop
    (``launcher.calibration_loop``) is timed before the first and after every
    measured piece on the CPU single-process pieces run on, and also on the
    other CPUs around pieces that use them all (``--jobs 2``). A piece's time
    is scaled by ``CALIBRATION_REFERENCE_S`` over the mean loop time around
    it. This roughly halves the run-to-run spread there. Raw rates are logged
    next to the scaled metrics.
    """

    def __init__(self, launcher: Launcher, other_cpus: list[int]):
        self.launcher = launcher
        self.other_cpus = other_cpus
        self.last = calibration_loop()
        self.last_others: list[float] = []
        self.spent = self.last

    def _others(self) -> list[float]:
        times = [self.launcher.probe(cpu) for cpu in self.other_cpus]
        self.spent += sum(times)
        return times

    def widen(self) -> None:
        """Probe the other CPUs too, before a piece that runs on all of them."""
        self.last_others = self._others()

    def scale(self) -> float:
        """Factor for the piece measured since the previous call."""
        now = calibration_loop()
        self.spent += now
        around = [self.last, now]
        if self.last_others:
            around += self.last_others + self._others()
            self.last_others = []
        self.last = now
        return CALIBRATION_REFERENCE_S / statistics.mean(around)


def run_main(argv: list[str]) -> list[str]:
    """``qblock.cli.main`` in-process, stdout captured."""
    cli = importlib.import_module("qblock.cli")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.main(argv)
    return buf.getvalue().splitlines()


def api_record(sub: str, result) -> dict:
    """The fields of the CLI record for a library result, ``input`` left out."""
    if sub == "analyze":
        record = importlib.import_module("qblock.formats").report_to_dict(result)
        del record["input"]
        return record
    if sub == "hyperbolicity":
        return {
            "connected": result.connected,
            "delta": result.twice_delta / 2,
            "per_component": [{"component": c, "delta": t / 2} for c, t in result.per_component],
            "twice_delta": result.twice_delta,
            "witness": result.witness,
        }
    return {"canonical_code": result, "class": "block-graph"}


def api_pass(corpus, indices: list[int], checker, tally: Tally, probe: "SpeedProbe", calls: int = 1,
             tracer=None) -> dict[int, list[float]]:
    """Call the library entry point ``calls`` times in a row on each graph of
    ``indices``, each time freshly built, and not again after a failed call
    or one that took ``API_LONG_CALL_S``; reference-speed seconds per call,
    for the calls answered correctly.

    The calls are scaled in pieces of at least ``API_PIECE_S``, so that a
    long call is scaled by the machine's speed around it rather than around
    the whole pass.
    """
    from check import OK

    qblock = importlib.import_module("qblock")
    sub = corpus.subcommand
    mark = (len(tracer), len(tracer.decompose_inputs)) if tracer is not None else None
    latencies = defaultdict(list)
    called, verdicts = [], []
    piece: list[tuple[int, float]] = []
    piece_start = time.perf_counter()

    def end_piece() -> None:
        factor = probe.scale()
        for i, seconds in piece:
            latencies[i].append(seconds * factor)
        piece.clear()

    for i in indices:
        for _ in range(calls):
            g = qblock.build_graph(corpus.graphs[i].n, corpus.graphs[i].edges)
            # looked up per call so that a traced pass reaches the wrapper
            entry = getattr(qblock, ENTRY_POINTS[sub])
            if tracer is not None:
                # only the CLI's spans are kept; this pass measures their cost
                tracer.truncate(*mark)
                tracer.new_graph()
            start = time.perf_counter()
            called.append(i)
            try:
                result = entry(g)
            except Exception:
                verdicts.append(checker.api_error(i))
                break
            seconds = time.perf_counter() - start
            verdicts.append(checker.api(i, api_record(sub, result)))
            if verdicts[-1] != OK:
                break
            piece.append((i, seconds))
            if time.perf_counter() - piece_start >= API_PIECE_S:
                end_piece()
                piece_start = time.perf_counter()
            if seconds >= API_LONG_CALL_S:
                break
    end_piece()
    if tracer is not None:
        tracer.truncate(*mark)
    tally.add(called, verdicts, f"{'traced ' if tracer is not None else ''}{sub} api")
    return latencies


def tail(values: list[float]) -> tuple[int, float]:
    """Highest whole percentile with at least ten samples beyond it (nearest rank)."""
    ordered = sorted(values)
    n = len(ordered)
    pct = max(p for p in range(100) if p == 0 or n - math.ceil(p * n / 100) >= TAIL_SAMPLES_BEYOND)
    return pct, ordered[max(0, math.ceil(pct * n / 100) - 1)]


def write_inputs(corpus, work: Path) -> tuple[list[Path], list[Path], Path]:
    """graph6 files: one per chunk of graphs, one per chunk of pairs, one empty."""
    from qblock_seed.formats import encode_graph6

    graph_files, pair_files = [], []
    for c, (indices, pair_indices) in enumerate(zip(corpus.chunks, corpus.pair_chunks)):
        graph_files.append(work / f"graphs-{c}.g6")
        graph_files[-1].write_text("".join(encode_graph6(corpus.graphs[i]) + "\n" for i in indices))
        pair_files.append(work / f"pairs-{c}.g6")
        pair_files[-1].write_text("".join(
            encode_graph6(corpus.pairs[p][0]) + "\n" + encode_graph6(corpus.pairs[p][1]) + "\n"
            for p in pair_indices
        ))
    empty = work / "empty.g6"
    empty.write_text("")
    return graph_files, pair_files, empty


@dataclass
class Totals:
    """What the steps of one run add up, in reference-speed seconds."""

    setup: list[float] = field(default_factory=list)
    seconds: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    raw_seconds: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    done: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    #: largest peak RSS of the --jobs 1 children, per subcommand
    peak_rss_mb: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    api: dict[int, list[float]] = field(default_factory=lambda: defaultdict(list))
    traced_api: dict[int, float] = field(default_factory=dict)

    def add(self, what: str, count: int, seconds: float, factor: float) -> None:
        self.done[what] += count
        self.raw_seconds[what] += seconds
        self.seconds[what] += seconds * factor

    def add_rss(self, sub: str, child: ChildRun, verdicts: list[str]) -> None:
        """Count the child's peak RSS unless it gave an error record: the
        memory of a failure path (a ``RecursionError`` traceback) is not what
        users run into, and it varied with the checkout's path."""
        from check import ERROR

        if ERROR not in verdicts:
            self.peak_rss_mb[sub] = max(self.peak_rss_mb[sub], child.peak_rss_mb)

    def rate(self, what: str) -> float:
        return self.done[what] / self.seconds[what]


def measure(launcher: Launcher, workload: str, seed: int, seconds: float, traced: bool) -> dict:
    from check import OK, WRONG, Checker, ReferenceCache
    from corpus import build
    from tracing import Tracer

    deadline = time.monotonic() + seconds + RUN_MARGIN_S
    corpus = build(workload, seed)
    sub = corpus.subcommand
    # one-process children and the probe share this process's CPU
    pinned = os.sched_getaffinity(0)
    other_cpus = sorted(set(launcher.cpus) - pinned)
    work = WORK_ROOT / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        graph_files, pair_files, empty = write_inputs(corpus, work)
        checker = Checker(corpus, ReferenceCache(CACHE_DIR))
        tally = Tally()
        out = work / "out.txt"

        def cli(name: str, path: Path, jobs: int) -> ChildRun:
            args = [name, "--jobs", str(jobs), "--in", str(path)]
            return launcher.run(args, out, deadline, pinned if jobs == 1 else None)

        # first launch compiles bytecode; not part of set-up as users see it.
        # The first --jobs 2 child of a run was up to twice as slow as the
        # next ones on the VM this was written on, with the calibration loop
        # at its usual speed on both CPUs.
        cli(sub, empty, 1)
        if traced:
            cli(sub, graph_files[0], 2)
        importlib.import_module("qblock")
        probe = SpeedProbe(launcher, other_cpus)
        api_pass(corpus, corpus.chunks[0][:WARMUP_GRAPHS], checker, Tally(), probe)

        totals = Totals()
        # the collector skips the run's own objects (corpus, references), so
        # that a library call pays for its collections what it would in a
        # process of its own
        gc.freeze()
        tracer = Tracer() if traced else None
        start = time.monotonic()
        rounds = 0
        while True:
            for c, (indices, pair_indices) in enumerate(zip(corpus.chunks, corpus.pair_chunks)):
                if not traced:
                    child = cli(sub, empty, 1)
                    tally.add([0], [WRONG if child.lines else OK], f"{sub} on empty input")
                    totals.setup.append(child.seconds * probe.scale())
                # --jobs 2 only gives per-layer figures: how fast it runs
                # depends on whether the shared host lets both CPUs run at once
                for jobs in (1, 2) if traced else (1,):
                    if jobs == 2:
                        probe.widen()
                    child = cli(sub, graph_files[c], jobs)
                    totals.add(f"jobs{jobs}", len(indices), child.seconds, probe.scale())
                    verdicts = checker.graph_lines(indices, child.lines)
                    tally.add(indices, verdicts, f"{sub} --jobs {jobs}")
                    if jobs == 1:
                        totals.add_rss(sub, child, verdicts)
                if pair_indices and not traced:
                    child = cli("iso", pair_files[c], 1)
                    totals.add("iso", len(pair_indices), child.seconds, probe.scale())
                    verdicts = checker.pairs(pair_indices, child.lines)
                    tally.add(pair_indices, verdicts, "iso")
                    totals.add_rss("iso", child, verdicts)
                for i, samples in api_pass(corpus, indices, checker, tally, probe, corpus.api_calls).items():
                    totals.api[i] += samples
                if traced:
                    traced_step(tracer, probe, corpus, checker, tally, indices, pair_indices,
                                graph_files[c], pair_files[c], totals)
            rounds += 1
            if traced or time.monotonic() - start >= seconds:
                break
        while not traced and len(totals.setup) < SETUP_REPEATS:
            child = cli(sub, empty, 1)
            tally.add([0], [WRONG if child.lines else OK], f"{sub} on empty input")
            totals.setup.append(child.seconds * probe.scale())

        api_p50 = statistics.median(statistics.median(samples) for samples in totals.api.values())
        calls = [latency for samples in totals.api.values() for latency in samples]
        tail_pct, api_tail = tail(calls)
        log(
            f"{workload} seed={seed}: {rounds} round(s) of {len(corpus.chunks)} steps in "
            f"{time.monotonic() - start:.1f} s ({probe.spent:.1f} s of it calibration); "
            f"{len(corpus.graphs)} graphs, {len(corpus.pairs)} pairs; "
            f"api_tail_ms is p{tail_pct} of {len(calls)} calls; raw graphs/s "
            + ", ".join(f"{k}: {totals.done[k] / v:.4g}" for k, v in totals.raw_seconds.items())
            + "; peak RSS MB " + ", ".join(f"{k}: {v:.1f}" for k, v in totals.peak_rss_mb.items())
        )
        if not traced:
            metrics = {
                "setup_s": (statistics.median(totals.setup), "s"),
                "graphs_per_s": (totals.rate("jobs1"), "1/s"),
                "pairs_per_s": (totals.rate("iso"), "1/s"),
                "api_p50_ms": (api_p50 * 1e3, "ms"),
                "api_tail_ms": (api_tail * 1e3, "ms"),
                "peak_rss_mb": (max(totals.peak_rss_mb.values()), "MB"),
                "ok_frac": (1 - tally.failed / tally.attempted, "fraction"),
            }
        else:
            tracer.write(TRACE_DIR / f"trace-{workload}.npz")
            metrics = layer_metrics(tracer, len(corpus.graphs))
            metrics["graphs_per_s_jobs2"] = (totals.rate("jobs2"), "1/s")
            metrics["cli.jobs2_speedup"] = (totals.rate("jobs2") / totals.rate("jobs1"), "ratio")
            metrics["trace.overhead"] = (statistics.median(totals.traced_api.values()) / api_p50, "ratio")
            metrics["failed_frac"] = (tally.failed / tally.attempted, "fraction")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for example in tally.wrong_examples:
        log(f"wrong answer: {example}")
    return {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def traced_step(tracer, probe, corpus, checker, tally, indices, pair_indices, graph_file, pair_file, totals) -> None:
    """One chunk through ``qblock.cli.main`` in-process at --jobs 1 (and iso
    on its pairs), then through the library entry point, all traced."""
    sub = corpus.subcommand
    with tracer:
        lines = run_main([sub, "--jobs", "1", "--in", str(graph_file)])
        tally.add(indices, checker.graph_lines(indices, lines), f"traced {sub}")
        if pair_indices:
            lines = run_main(["iso", "--jobs", "1", "--in", str(pair_file)])
            tally.add(pair_indices, checker.pairs(pair_indices, lines), "traced iso")
        probe.scale()
        latencies = api_pass(corpus, indices, checker, tally, probe, tracer=tracer)
    totals.traced_api.update((i, samples[0]) for i, samples in latencies.items())


def layer_metrics(tracer, graphs: int) -> dict:
    """Per-layer and per-function numbers per corpus graph, from the CLI spans."""
    from tracing import FUNCTIONS, LAYERS

    summary = tracer.summary()
    useful, decompose_calls = tracer.useful_decompose_ratio()
    log(
        f"traced: {len(tracer)} CLI spans; decompose: {decompose_calls} calls, "
        f"{useful} distinct graphs within their reports"
    )
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = (summary["self_ns"].get(layer, 0) / 1e6 / graphs, "ms")
    for name in FUNCTIONS:
        metrics[f"{name}.calls"] = (summary["calls"].get(name, 0) / graphs, "count")
        metrics[f"{name}.self_ms"] = (summary["self_ns"].get(name, 0) / 1e6 / graphs, "ms")
    metrics["decomposition.useful_ratio"] = (
        useful / decompose_calls if decompose_calls else 1.0, "ratio"
    )
    return metrics


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="small-mixed, hyp-mid, large-block or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qblock" / "cli.py").is_file():
        log(f"perfbench: no qblock package under {SRC}; run from a full checkout")
        return 2
    # started before numpy and networkx are loaded; see launcher.py
    launcher = Launcher()
    try:
        # single-process children run on this CPU too; see SpeedProbe
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        sys.path[:0] = [str(SRC), str(HERE)]
        from corpus import WORKLOADS

        if args.workload not in WORKLOADS + ("all",):
            log(f"perfbench: unknown workload {args.workload!r}")
            return 2
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {
            name: measure(launcher, name, args.seed, args.seconds, bool(args.trace))
            for name in names
        }
    except RunTimeout as exc:
        log(f"perfbench: {exc}")
        return 3
    finally:
        launcher.close()
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0 if results[args.workload]["correct"] else 1
    for name, result in results.items():
        log(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for metric, value in result["metrics"].items():
            log(f"  {metric:<40} {value['value']:>14.6g} {value['unit']}")
        if not args.trace:
            log(f"  {'failed_frac':<40} {result['failed'] / result['attempted']:>14.6g} fraction")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
