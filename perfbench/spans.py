"""Per-layer host-time attribution for the traced run.

The benchmark wraps each layer's public entry points from here -- the
program itself is not modified -- and records one span per call: layer,
start, end, parent span and the cell id (the request id every span of one
cell shares).  Spans stay in memory in flat arrays and are written once, at
the end, as Chrome trace-event JSON.  A layer's self time is the sum of its
spans' durations minus the part their direct children cover and minus the
host-speed sampler's pauses inside them; with integer nanosecond clocks,
self times plus the time outside every span add up to the traced wall time
exactly.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

# layer -> entry points, as (module, attribute path).  Module-level
# functions are patched in every module that calls them by name.
ENTRY_POINTS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "exec": (("repro.exec", "run_sweep"), ("repro.exec.executor", "run_sweep")),
    "experiments": (("repro.experiments.harness", "run_workload"),),
    "workloads": (("repro.workloads.base", "Workload.instantiate"),),
    "compile": (("repro.compile.cache", "CompileCache.get_or_build"),),
    "cme": (("repro.cme.equations", "CacheMissEstimator.estimate_nest"),),
    "core": (
        ("repro.core.pipeline", "LocationAwareCompiler.__init__"),
        ("repro.core.pipeline", "LocationAwareCompiler.compile"),
        ("repro.core.mapping", "Mapper.assign"),
        ("repro.core.mapping", "balance_regions"),
    ),
    "sim.engine": (("repro.sim.engine", "ExecutionEngine.run"),),
    "sim.trace": (("repro.sim.trace", "ProgramTrace.set_trace"),),
    "sim.machine": (
        ("repro.sim.machine", "Manycore.access"),
        ("repro.sim.machine", "Manycore.access_batch"),
        ("repro.sim.machine", "Manycore.translate_batch"),
    ),
    "cache": (("repro.cache.hierarchy", "CacheHierarchy.access"),),
    "cache.bulk": (("repro.cache.cache", "BulkAccessCursor.consume_hits"),),
    "noc": (("repro.noc.network", "BaseNetwork.transfer"),),
    "memory": (("repro.memory.controller", "MemoryController.access"),),
    "faults": (("repro.faults.degrade", "DegradedTopology.route"),),
}
LAYERS: Tuple[str, ...] = tuple(ENTRY_POINTS)

HOT_LAYERS = frozenset(
    ("sim.machine", "cache", "cache.bulk", "noc", "memory", "faults")
)
"""Per-access layers: millions of spans per run.  They all count towards
self times; the exported file keeps only their spans of at least
``EXPORT_MIN_HOT_NS`` so it stays loadable."""
EXPORT_MIN_HOT_NS = 1_000_000


class SpanRecorder:
    """In-memory span store: one row per wrapped call."""

    def __init__(self) -> None:
        self.layer = array("b")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.cell = array("h")
        self.cell_ids: List[str] = []
        self._stack: List[int] = []
        self._cell = -1
        self.bulk_hits = 0
        self.routes: set = set()
        self.pauses: List[Tuple[int, int]] = []

    # -- recording --------------------------------------------------------
    def begin_cell(self, cell_id: str) -> None:
        self._cell = len(self.cell_ids)
        self.cell_ids.append(cell_id)

    def wrap(
        self, layer: str, func: Callable, on_result: Optional[Callable] = None
    ) -> Callable:
        """``func`` recording one span of ``layer`` per call."""
        code = LAYERS.index(layer)
        layers, starts, ends = self.layer, self.start, self.end
        parents, cells, stack = self.parent, self.cell, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(starts)
            layers.append(code)
            parents.append(stack[-1] if stack else -1)
            cells.append(self._cell)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = func(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def pause(self, start_ns: int, end_ns: int) -> None:
        """Record an interval of non-program time (the host-speed sampler's
        handler); it comes out of the self time of the innermost span
        around it."""
        self.pauses.append((start_ns, end_ns))

    def _count_bulk(self, args: Tuple, hits: int) -> None:
        self.bulk_hits += hits

    def _count_route(self, args: Tuple, links: Any) -> None:
        self.routes.add((self._cell, args[1], args[2]))

    @contextmanager
    def instrument(self) -> Iterator["SpanRecorder"]:
        """Patch every entry point for the duration of the block."""
        hooks = {"cache.bulk": self._count_bulk, "faults": self._count_route}
        undo: List[Tuple[Any, str, Any]] = []
        try:
            for layer, points in ENTRY_POINTS.items():
                for module_name, path in points:
                    owner: Any = importlib.import_module(module_name)
                    *outer, attr = path.split(".")
                    for name in outer:
                        owner = getattr(owner, name)
                    original = owner.__dict__[attr]
                    undo.append((owner, attr, original))
                    setattr(owner, attr, self.wrap(layer, original, hooks.get(layer)))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    # -- analysis -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self.start)

    def arrays(self) -> Dict[str, np.ndarray]:
        # Copies: a live view would pin the arrays against further appends.
        start = np.frombuffer(self.start, dtype=np.int64).copy()
        end = np.frombuffer(self.end, dtype=np.int64).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        duration = end - start
        # Child coverage: children of one span run one after another on a
        # single thread, so their union is the sum of their durations.
        covered = np.zeros(len(start) + 1, dtype=np.int64)
        np.add.at(covered, parent.astype(np.int64) + 1, duration)
        self_ns = duration - covered[1:]
        # A pause interrupts the program between two bytecodes, so every
        # span either contains it whole or misses it.  Spans are numbered
        # in start order: the innermost one around a pause is the last one
        # started before it, or the nearest of its ancestors still open.
        paused = 0
        for t0, t1 in self.pauses:
            index = int(np.searchsorted(start, t0, side="right")) - 1
            while index >= 0 and end[index] < t1:
                index = int(parent[index])
            if index >= 0:
                self_ns[index] -= t1 - t0
                paused += t1 - t0
        return {
            "layer": np.frombuffer(self.layer, dtype=np.int8).copy(),
            "start": start,
            "duration": duration,
            "parent": parent,
            "self": self_ns,
            "root_total": covered[0],
            "paused": paused,
        }

    def layer_totals(self, wall_ns: int) -> Dict[str, Any]:
        """Per-layer self time and calls, reconciled against ``wall_ns``.

        Raises ``ValueError`` when the spans do not reconcile: a negative
        self time (a child outlived its parent) or more span time than
        wall time.
        """
        a = self.arrays()
        if len(a["self"]) and int(a["self"].min()) < 0:
            raise ValueError("a span's children cover more than its duration")
        totals: Dict[str, Any] = {}
        self_total = 0
        for code, name in enumerate(LAYERS):
            mask = a["layer"] == code
            layer_self = int(a["self"][mask].sum())
            self_total += layer_self
            totals[name] = {"self_ns": layer_self, "calls": int(mask.sum())}
        program_ns = int(a["root_total"]) - a["paused"]
        if self_total != program_ns:
            raise ValueError(
                f"self times sum to {self_total} ns, root spans less "
                f"sampler pauses to {program_ns} ns"
            )
        unattributed = wall_ns - self_total
        if unattributed < 0:
            raise ValueError(
                f"spans cover {self_total} ns of a {wall_ns} ns traced wall"
            )
        return {"layers": totals, "unattributed_ns": unattributed}

    def chrome_trace(self, meta: Dict[str, Any]) -> Dict[str, Any]:
        """Chrome trace-event document ("X" complete events, microseconds)."""
        a = self.arrays()
        origin = int(a["start"].min()) if len(a["start"]) else 0
        events: List[Dict[str, Any]] = [
            {"ph": "M", "name": "process_name", "pid": 1, "tid": 1,
             "args": {"name": "perfbench"}}
        ]
        hot = np.isin(a["layer"], [LAYERS.index(name) for name in HOT_LAYERS])
        keep = np.flatnonzero(~(hot & (a["duration"] < EXPORT_MIN_HOT_NS)))
        for index in keep.tolist():
            code = int(a["layer"][index])
            duration = int(a["duration"][index])
            cell = self.cell[index]
            events.append({
                "ph": "X",
                "name": LAYERS[code],
                "cat": LAYERS[code].split(".")[0],
                "pid": 1,
                "tid": 1,
                "ts": (int(a["start"][index]) - origin) / 1000.0,
                "dur": duration / 1000.0,
                "args": {
                    "span": index,
                    "parent": int(a["parent"][index]),
                    "cell": self.cell_ids[cell] if cell >= 0 else None,
                    "self_us": int(a["self"][index]) / 1000.0,
                },
            })
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "metadata": {
                **meta,
                "spans": len(self),
                "elided_short_hot_spans": len(self) - len(keep),
            },
        }

    def save(self, path: Any, meta: Dict[str, Any]) -> Dict[str, Any]:
        document = self.chrome_trace(meta)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, sort_keys=True)
        return document
