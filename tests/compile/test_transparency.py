"""Cache-transparency differential suite.

The compile cache's headline guarantee: a cold (fresh cache) and a warm
(every artifact already memoized) execution of the same run are
**byte-identical** -- same ``RunStats`` (as ``dataclasses.asdict``),
same spatial traffic payload, same decision-event stream -- for every
benchmark in the 21-app suite, on both execution engines, under fault
plans (where the fault-aware arm shares the oblivious arm's pristine
tables), and after the cache was warmed by compiles of *other*
configurations that share the program's CME inputs.

A warm pass is additionally asserted to actually *hit*: transparency by
virtue of never looking in the cache would be vacuous.
"""

from __future__ import annotations

import dataclasses

import pytest

from perfbench.workloads import compile_configs
from repro.compile import CompileCache, counter_delta
from repro.core.pipeline import LocationAwareCompiler
from repro.experiments.harness import DEFAULT_CME_ACCURACY, run_workload
from repro.obs import EventStream, Telemetry
from repro.sim.config import SystemConfig
from repro.workloads import SUITE_ORDER, build_workload

SCALE = 0.12
TRIPS = 3


def _observe(workload, config, compile_cache, **kwargs):
    telemetry = Telemetry(events=EventStream(level="decisions"))
    result = run_workload(
        workload,
        config,
        mapping="la",
        scale=SCALE,
        trips=TRIPS,
        telemetry=telemetry,
        compile_cache=compile_cache,
        **kwargs,
    )
    return {
        "stats": dataclasses.asdict(result.stats),
        "spatial": (
            telemetry.spatial.as_dict()
            if telemetry.spatial is not None
            else None
        ),
        "events": telemetry.events.events,
    }


def _differential(workload, config, **kwargs):
    """cold vs warm; returns the warm pass's counter traffic."""
    cache = CompileCache()
    cold = _observe(workload, config, compile_cache=cache, **kwargs)
    before = cache.counter_snapshot()
    warm = _observe(workload, config, compile_cache=cache, **kwargs)
    assert warm == cold, "warm cached run diverged from the cold run"
    warm_traffic = counter_delta(before, cache.counter_snapshot())
    assert not any(name.endswith(".miss") for name in warm_traffic), (
        f"warm {workload.name} run recomputed artifacts: {warm_traffic}"
    )
    return warm_traffic


def _assert_hit(warm_traffic):
    assert any(name.endswith(".hit") for name in warm_traffic)


@pytest.mark.parametrize("app", SUITE_ORDER)
def test_cache_transparent_for_every_suite_app_fast_engine(app):
    _assert_hit(_differential(build_workload(app), SystemConfig().fast_engine()))


@pytest.mark.parametrize("app", SUITE_ORDER)
def test_cache_transparent_for_every_suite_app_reference_engine(app):
    _assert_hit(
        _differential(build_workload(app), SystemConfig().reference_engine())
    )


def test_cache_transparent_under_faults():
    """Fault-aware compiles (aware + oblivious arms) stay transparent."""
    from repro.faults import FaultPlan

    plan = FaultPlan.parse(["mc:1:offline", "bank:3:offline", "link:2,3->3,3:down"])
    _assert_hit(
        _differential(
            build_workload("mxm"),
            SystemConfig(),
            fault_plan=plan,
            fault_aware=True,
        )
    )


def test_fault_aware_compile_reuses_pristine_tables():
    """The oblivious arm's tables key carries fault_plan=None, so a
    fault-aware compile hits the entry a fault-blind compile stored."""
    from repro.faults import FaultPlan

    cache = CompileCache()
    _observe(build_workload("mxm"), SystemConfig(), compile_cache=cache)
    before = cache.counter_snapshot()
    _observe(
        build_workload("mxm"),
        SystemConfig(),
        compile_cache=cache,
        fault_plan=FaultPlan.parse(["mc:1:offline"]),
        fault_aware=True,
    )
    traffic = counter_delta(before, cache.counter_snapshot())
    # Two table lookups (degraded + pristine): the degraded one is this
    # plan's first sighting, the pristine one replays the blind compile's.
    assert traffic.get("tables.hit", 0) >= 1
    assert traffic.get("tables.miss", 0) == 1


def test_run_results_unaffected_by_cache_mode_at_default_scale():
    """One spot check away from the reduced suite scale."""
    _differential(build_workload("mxm"), SystemConfig(), cme_accuracy=1.0)


@pytest.mark.parametrize("app", ("mxm", "fft"))
def test_default_compile_unaffected_by_other_configs_in_cache(app):
    """Compiles under another MC placement or region grid share the
    program's CME inputs with the default compile.  Warming the cache
    with them must not leak anything into the default compile."""
    warmups = {
        config_id: (config, kwargs)
        for config_id, config, kwargs in compile_configs()
        if config_id in ("mc-edge", "regions3x3")
    }
    assert sorted(warmups) == ["mc-edge", "regions3x3"]
    workload = build_workload(app)
    warm_cache = CompileCache()
    for config, kwargs in warmups.values():
        instance = workload.instantiate(page_bytes=config.page_bytes, scale=SCALE)
        LocationAwareCompiler(
            config,
            cme_accuracy=DEFAULT_CME_ACCURACY,
            compile_cache=warm_cache,
            **kwargs,
        ).compile(instance)
    default = SystemConfig()
    cold = _observe(workload, default, compile_cache=CompileCache())
    warm = _observe(workload, default, compile_cache=warm_cache)
    assert warm == cold
