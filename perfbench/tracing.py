"""Span tracing of the ``qblock`` package from outside it.

Installing a :class:`Tracer` replaces every public function of every
``qblock`` module by a wrapper that records a span: name, start, end, parent
span and per-graph id. Modules bind each other's functions with
``from .x import y``, so every module attribute that refers to a wrapped
function is replaced, not only the one in its defining module. The CLI's
per-input workers (``cli._process_single`` and ``cli._process_pair``) are
wrapped too and open a new per-graph id.

Spans are kept in memory in flat arrays (the package makes about a thousand
public calls per small graph) and written at the end by :meth:`Tracer.write`
as a numpy ``.npz`` file: ``names`` (span name table), and per span ``name``
(index into ``names``), ``start_ns``, ``end_ns``, ``parent`` (span index, -1
for a root) and ``graph`` (per-graph id, -1 outside a graph).

A span's self time is its duration minus the time its child spans cover; a
layer's self time is the sum over the spans of its module.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import pkgutil
import time
import types
from array import array
from pathlib import Path

import numpy as np

#: Package modules reported as layers. ``oracle`` is on the user path of
#: ``qblock iso`` (brute force outside the supported classes).
LAYERS = (
    "cli",
    "formats",
    "analyze",
    "graphs",
    "blocks",
    "hyperbolicity",
    "decomposition",
    "cographs",
    "groups",
    "oracle",
)

#: Functions reported with call counts and self time.
FUNCTIONS = (
    "graphs.distance_profile",
    "graphs.complement",
    "graphs.induced_subgraph",
    "blocks.block_cut_decomposition",
    "blocks.is_block_graph",
    "decomposition.decompose",
    "decomposition.canonical_code",
    "cographs.cotree_decompose",
    "groups.block_graph_expr",
    "hyperbolicity.hyperbolicity",
    "formats.decode_graph6",
    "formats.emit_report",
)

PER_GRAPH_ROOTS = ("_process_single", "_process_pair")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.graph_of = array("q")
        self.graph = -1
        self._ids = itertools.count()
        self._stack: list[int] = []
        # (module, attribute, original, wrapper) of every binding replaced
        self._patched: list[tuple[types.ModuleType, str, object, object]] = []
        #: (graph id, argument) of every ``decomposition.decompose`` call
        self.decompose_inputs: list[tuple[int, object]] = []

    def new_graph(self) -> None:
        self.graph = next(self._ids)

    def __len__(self) -> int:
        return len(self.start)

    def _wrap(self, name: str, fn, per_graph_root: bool):
        name_id = len(self.names)
        self.names.append(name)
        names, starts, ends, parents, graphs = self.name, self.start, self.end, self.parent, self.graph_of
        stack, clock = self._stack, time.perf_counter_ns
        inputs = self.decompose_inputs if name == "decomposition.decompose" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if per_graph_root:
                self.new_graph()
            if inputs is not None and args:
                inputs.append((self.graph, args[0]))
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            graphs.append(self.graph)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return wrapper

    def install(self) -> None:
        if not self._patched:
            self._find_targets()
        for mod, attr, _, wrapper in self._patched:
            setattr(mod, attr, wrapper)

    def _find_targets(self) -> None:
        root = importlib.import_module("qblock")
        modules = [root] + [
            importlib.import_module(f"qblock.{info.name}")
            for info in pkgutil.iter_modules(root.__path__)
        ]
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rpartition(".")[2]
            for attr, value in vars(mod).items():
                if (
                    isinstance(value, types.FunctionType)
                    and value.__module__ == mod.__name__
                    and (not attr.startswith("_") or (layer == "cli" and attr in PER_GRAPH_ROOTS))
                ):
                    wrappers[value] = self._wrap(f"{layer}.{attr}", value, attr in PER_GRAPH_ROOTS)
        for mod in modules:
            for attr, value in vars(mod).items():
                if isinstance(value, types.FunctionType) and value in wrappers:
                    self._patched.append((mod, attr, value, wrappers[value]))

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._patched:
            setattr(mod, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def truncate(self, spans: int, inputs: int) -> None:
        """Forget everything recorded after ``len(self)`` was ``spans`` and
        ``len(self.decompose_inputs)`` was ``inputs``."""
        for column in (self.name, self.start, self.end, self.parent, self.graph_of):
            del column[spans:]
        del self.decompose_inputs[inputs:]

    def summary(self) -> dict:
        """Calls and self time (ns) per layer and per function."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        duration = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=duration[child], minlength=len(duration))
        own = duration - covered
        calls = np.bincount(name, minlength=len(self.names))
        own_by_name = np.bincount(name, weights=own, minlength=len(self.names))
        out = {"calls": {}, "self_ns": {}}
        for i, full in enumerate(self.names):
            layer = full.partition(".")[0]
            out["calls"][full] = int(calls[i])
            out["self_ns"][full] = float(own_by_name[i])
            out["self_ns"][layer] = out["self_ns"].get(layer, 0.0) + float(own_by_name[i])
        return out

    def useful_decompose_ratio(self) -> tuple[int, int]:
        """(distinct graphs decomposed per report, ``decompose`` calls)."""
        return len(set(self.decompose_inputs)), len(self.decompose_inputs)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "wb") as out:
            np.savez_compressed(
                out,
                names=np.array(self.names),
                name=np.frombuffer(self.name, dtype=np.int32),
                start_ns=np.frombuffer(self.start, dtype=np.int64),
                end_ns=np.frombuffer(self.end, dtype=np.int64),
                parent=np.frombuffer(self.parent, dtype=np.int64),
                graph=np.frombuffer(self.graph_of, dtype=np.int64),
            )
        tmp.replace(path)
