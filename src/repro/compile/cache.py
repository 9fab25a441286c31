"""In-process memoization of compile-side artifacts.

:class:`CompileCache` is an LRU over content-addressed keys
(:mod:`repro.compile.keys`) that stores the built domain objects
themselves and hands the *same* object to every hit.  Payloads are frozen
at store time -- every numpy array reachable from one is marked
read-only -- so a consumer that tried to mutate a shared artifact fails
loudly instead of corrupting later compiles.

Memoized artifact kinds:

* ``affinity`` -- one nest's ``List[SetAffinity]`` (MAI/CAI/alpha) under
  one architecture view.  The key covers every CME input, so a hit
  skips the estimator entirely.
* ``tables``   -- :class:`~repro.core.mapping.ProximityTables` (MAC/CAC,
  pristine or degraded).

A process-global instance (:func:`get_compile_cache`) is shared by every
compile in the process; forked sweep workers inherit its warm LRU.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from typing import Any, Callable, Dict, Mapping, Optional

import numpy as np

from .keys import material_digest

DEFAULT_MEMORY_ENTRIES = 256
"""LRU capacity (artifact count, all kinds pooled)."""


def counter_totals(counters: Mapping[str, int]) -> Dict[str, Any]:
    """hits / misses / hit_rate summed over ``"<kind>.<outcome>"`` counters."""
    hits = sum(n for name, n in counters.items() if name.endswith(".hit"))
    misses = sum(n for name, n in counters.items() if name.endswith(".miss"))
    attempts = hits + misses
    return {
        "hits": hits,
        "misses": misses,
        "hit_rate": round(hits / attempts, 4) if attempts else 0.0,
    }


def counter_delta(
    before: Mapping[str, int], after: Mapping[str, int]
) -> Dict[str, int]:
    """Counter traffic between two :meth:`CompileCache.counter_snapshot`
    readings; counters that did not move are dropped."""
    return {
        name: after[name] - before.get(name, 0)
        for name in sorted(after)
        if after[name] - before.get(name, 0)
    }


def _freeze(value: Any) -> Any:
    """Mark every numpy array reachable from ``value`` read-only."""
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    elif isinstance(value, dict):
        for item in value.values():
            _freeze(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _freeze(item)
    elif dataclasses.is_dataclass(value):
        for spec in dataclasses.fields(value):
            _freeze(getattr(value, spec.name))
    return value


class CompileCache:
    """LRU of built compile artifacts, keyed by content digest."""

    def __init__(self, memory_entries: int = DEFAULT_MEMORY_ENTRIES):
        if memory_entries < 1:
            raise ValueError("memory_entries must be >= 1")
        self.memory_entries = memory_entries
        self._memory: "OrderedDict[str, Any]" = OrderedDict()
        # Flat "<kind>.<outcome>" counters (e.g. "affinity.hit"); the run
        # manifest and sweep summaries aggregate them via counter_totals().
        self.counters: Dict[str, int] = {}

    def get_or_build(
        self,
        kind: str,
        material: Dict[str, Any],
        build: Callable[[], Any],
        telemetry: Any = None,
    ) -> Any:
        """The memoized artifact for (kind, material).

        On a miss, ``build()`` runs once and its result is frozen and
        remembered.  Every hit returns that same object.
        """
        key = material_digest(kind, material)
        memory = self._memory
        cached = memory.get(key)
        if cached is not None:
            memory.move_to_end(key)
            self._count(kind, "hit", telemetry)
            return cached
        built = _freeze(build())
        self._count(kind, "miss", telemetry)
        memory[key] = built
        if len(memory) > self.memory_entries:
            memory.popitem(last=False)
        return built

    def _count(self, kind: str, outcome: str, telemetry: Any = None) -> None:
        name = f"{kind}.{outcome}"
        self.counters[name] = self.counters.get(name, 0) + 1
        if telemetry is not None:
            telemetry.count(f"compile_cache.{name}")

    def counter_snapshot(self) -> Dict[str, int]:
        """Sorted copy of the per-kind counters (see :func:`counter_delta`)."""
        return dict(sorted(self.counters.items()))

    def totals(self) -> Dict[str, Any]:
        return counter_totals(self.counters)

    def stats(self) -> Dict[str, Any]:
        """Inventory + traffic."""
        return {
            "memory_entries": len(self._memory),
            "memory_capacity": self.memory_entries,
            "counters": self.counter_snapshot(),
            **self.totals(),
        }

    def __repr__(self) -> str:
        return f"CompileCache(memory={len(self._memory)}/{self.memory_entries})"


# Process-global instance (shared by every compile in this process;
# forked sweep workers inherit the warm LRU).
_PROCESS_CACHE: Optional[CompileCache] = None


def get_compile_cache() -> CompileCache:
    """The process-wide compile cache."""
    global _PROCESS_CACHE
    if _PROCESS_CACHE is None:
        _PROCESS_CACHE = CompileCache()
    return _PROCESS_CACHE


def reset_compile_cache() -> None:
    """Forget the process cache entirely (tests and benchmarks)."""
    global _PROCESS_CACHE
    _PROCESS_CACHE = None
