"""Fast tests of the benchmark's own gate, on a tiny cell subset.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import math
import signal
import time

import pytest

from perfbench import checks, run
from perfbench.hostspeed import HostSpeed
from perfbench.spans import LAYERS, SpanRecorder
from perfbench.workloads import BenchCell, WORKLOADS, build_cells
from repro.exec import SweepCell
from repro.sim.config import DEFAULT_CONFIG

TINY_SCALE = 0.1


def tiny_cells(seed: int):
    """One simulated la cell and one compile cell, both small."""
    compile_cell = next(
        cell for cell in build_cells("compile-sweep", seed)
        if cell.cell_id == "mxm/default"
    )
    sim_cell = BenchCell(
        cell_id="mxm/shared/la",
        sweep=SweepCell(
            workload="mxm", config=DEFAULT_CONFIG.shared_llc(), mapping="la",
            scale=TINY_SCALE, seed=seed,
        ),
    )
    return [sim_cell, compile_cell]


def digests(outcome):
    return {
        cell_id: checks.digest(output)
        for cell_id, output in outcome.outputs.items()
    }


def test_planted_model_change_fails_the_digest_gate(monkeypatch):
    cells = tiny_cells(checks.DEFAULT_SEED)
    clean = run.run_pass(cells)
    expected = digests(clean)
    assert run.verify("shared-miss", cells, clean, expected) == {}

    from repro.noc.network import BaseNetwork

    original = BaseNetwork.__init__

    def slower_routers(self, mesh, router_delay=3, zero_latency=False):
        original(self, mesh, router_delay + 1, zero_latency)

    monkeypatch.setattr(BaseNetwork, "__init__", slower_routers)
    planted = run.run_pass(cells)
    problems = run.verify("shared-miss", cells, planted, expected)
    assert list(problems) == ["mxm/shared/la"]
    assert "digest" in problems["mxm/shared/la"][0]


def test_digests_repeat_for_a_seed_and_differ_across_seeds():
    first = digests(run.run_pass(tiny_cells(1)))
    again = digests(run.run_pass(tiny_cells(1)))
    other = digests(run.run_pass(tiny_cells(2)))
    assert first == again
    assert len(first) == 2
    for cell_id, value in first.items():
        assert other[cell_id] != value, cell_id


def test_cell_lists_are_a_function_of_the_seed():
    assert tuple(WORKLOADS) == run.WORKLOAD_NAMES
    for workload, make_cells in WORKLOADS.items():
        ids = [cell.cell_id for cell in make_cells(3)]
        assert ids == [cell.cell_id for cell in make_cells(3)]
        assert len(ids) == len(set(ids)), workload


def test_span_self_times_reconcile_with_traced_wall():
    cells = tiny_cells(checks.DEFAULT_SEED)
    recorder = SpanRecorder()
    with recorder.instrument():
        outcome = run.run_pass(cells, recorder)
    totals = recorder.layer_totals(outcome.wall_ns)
    self_ns = sum(layer["self_ns"] for layer in totals["layers"].values())
    assert self_ns + totals["unattributed_ns"] == outcome.wall_ns
    for layer in ("exec", "experiments", "core", "cme", "sim.engine", "noc"):
        assert totals["layers"][layer]["calls"] > 0, layer
    untraced = digests(run.run_pass(cells))
    assert run.verify("shared-miss", cells, outcome, untraced) == {}


def test_self_time_subtracts_direct_children_only():
    recorder = SpanRecorder()

    def leaf():
        time.sleep(0.002)

    wrapped_leaf = recorder.wrap("noc", leaf)

    def middle():
        wrapped_leaf()
        wrapped_leaf()

    wrapped_middle = recorder.wrap("cache", middle)
    wrapped_root = recorder.wrap("sim.engine", lambda: wrapped_middle())
    recorder.begin_cell("c0")
    t0 = time.perf_counter_ns()
    wrapped_root()
    wall = time.perf_counter_ns() - t0
    totals = recorder.layer_totals(wall)
    layers = totals["layers"]
    assert layers["noc"]["calls"] == 2
    assert layers["noc"]["self_ns"] >= 4_000_000
    assert layers["cache"]["self_ns"] < layers["noc"]["self_ns"]
    self_ns = sum(layer["self_ns"] for layer in layers.values())
    assert self_ns + totals["unattributed_ns"] == wall
    document = recorder.chrome_trace({})
    from repro.obs.tracing import validate_trace_events

    assert validate_trace_events(document) == []
    assert set(LAYERS) >= {event["name"] for event in document["traceEvents"][1:]}


def test_instrumentation_restores_every_entry_point():
    from repro.noc.network import BaseNetwork

    before = BaseNetwork.__dict__["transfer"]
    with SpanRecorder().instrument():
        assert BaseNetwork.__dict__["transfer"] is not before
    assert BaseNetwork.__dict__["transfer"] is before


def test_la_reduction_is_one_ratio_space_geomean():
    value, per_app = checks.la_reduction({"a": (100, 50), "b": (100, 150)})
    assert value == pytest.approx(100 * (1 - math.sqrt(0.5 * 1.5)))
    assert per_app == {"a": 50.0, "b": -50.0}
    bad, _ = checks.la_reduction({"a": (0, 10)})
    assert math.isnan(bad)


def test_invariants_flag_impossible_stats():
    stats = {
        "l1_hits": 5, "l1_accesses": 4, "llc_hits": 0, "llc_accesses": 0,
        "dram_row_hits": 0, "dram_accesses": 0, "execution_cycles": 0,
        "network_total_latency": 7,
    }
    found = checks.stats_violations(stats, ideal_noc=True)
    assert len(found) == 3


def test_host_speed_sampling_restores_the_alarm_handler():
    before = signal.getsignal(signal.SIGALRM)
    speed = HostSpeed()
    with speed.sampling():
        deadline = time.perf_counter() + 0.6
        while time.perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(speed.samples) >= 2
    assert speed.factor > 0


def test_sampler_pauses_come_out_of_the_interrupted_span():
    recorder = SpanRecorder()

    def leaf():
        t0 = time.perf_counter_ns()
        time.sleep(0.006)  # as if the sampler ran here
        recorder.pause(t0, time.perf_counter_ns())

    wrapped_leaf = recorder.wrap("noc", leaf)

    def middle():
        time.sleep(0.01)
        wrapped_leaf()

    recorder.wrap("cache", middle)()
    layers = recorder.layer_totals(10**12)["layers"]
    assert 0 <= layers["noc"]["self_ns"] < 1_000_000
    assert layers["cache"]["self_ns"] >= 10_000_000
