"""Host-speed sampling, to normalize throughput on a host whose speed drifts.

On a shared virtual machine the same pure-Python work takes anywhere from
0.75x to 1.3x its median time, in epochs of seconds to minutes, and wall
time follows.  While a pass runs, ``SIGALRM`` interrupts it every
``PERIOD_S`` seconds to time a fixed reference loop that does not depend on
the program.  ``factor`` is the pass's mean host speed relative to the
reference host (the 2-vCPU Xeon VM the benchmark was defined on), so that
``seconds * factor`` estimates what the pass would have taken there.  The
handler's own time is excluded from every cell's seconds.
"""

from __future__ import annotations

import signal
import statistics
import time
from collections import OrderedDict
from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional

PERIOD_S = 0.25
REFERENCE_LOOP_NS = 6_500_000
"""Typical time of ``reference_loop`` on the reference host."""


class _Node:
    __slots__ = ("key", "weight", "fallback")

    def __init__(self, key: int, weight: int, fallback: int):
        self.key = key
        self.weight = weight
        self.fallback = fallback

    def score(self, x: int) -> int:
        return self.key + x if x > self.weight else self.fallback


def reference_loop() -> int:
    """Fixed interpreter work: integer arithmetic, ordered-dict updates and
    small-object method calls, the operations the simulator's inner loops
    are made of.  Each kind alone tracks the simulator's speed less well
    than the mix."""
    total = 0
    for i in range(20_000):
        total += i * i % 7
    table: "OrderedDict[tuple, int]" = OrderedDict()
    for i in range(3_000):
        key = ((i * 40503) & 255, i & 7)
        if key in table:
            table.move_to_end(key)
            total += table[key]
        else:
            table[key] = i
    nodes = []
    for i in range(3_000):
        node = _Node(i, i & 15, 3)
        total += node.score(i & 31)
        nodes.append(node)
    return total


class HostSpeed:
    """Reference-loop timings taken while :meth:`sampling` is active."""

    def __init__(self, on_sample: Optional[Callable[[int, int], None]] = None):
        self.samples: List[int] = []
        self.overhead_ns = 0
        self.on_sample = on_sample
        """Called with each sample's start and end (ns), from the handler."""

    def sample(self, signum: object = None, frame: object = None) -> None:
        """Time one reference loop (also the ``SIGALRM`` handler)."""
        t0 = time.perf_counter_ns()
        reference_loop()
        elapsed = time.perf_counter_ns() - t0
        self.samples.append(elapsed)
        self.overhead_ns += elapsed
        if self.on_sample is not None:
            self.on_sample(t0, t0 + elapsed)

    @contextmanager
    def sampling(self) -> Iterator["HostSpeed"]:
        self.sample()  # at least one sample, however short the block
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    @property
    def factor(self) -> float:
        """Mean host speed over the samples, relative to the reference."""
        return REFERENCE_LOOP_NS * statistics.fmean(1 / s for s in self.samples)
