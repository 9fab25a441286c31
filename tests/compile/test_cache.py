"""Unit tests of :class:`repro.compile.CompileCache` itself.

The behavioural (bit-transparency) guarantees live in
``test_transparency.py``; this file pins the cache mechanics: shared
read-only payloads, LRU eviction, counter bookkeeping, and the
process-global accessors.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compile import (
    CompileCache,
    counter_delta,
    counter_totals,
    get_compile_cache,
    reset_compile_cache,
)
from repro.core.mapping import ProximityTables, SetAffinity
from repro.obs import Telemetry


@pytest.fixture(autouse=True)
def _isolated_process_cache():
    """Tests in this file never leak state into the process cache."""
    reset_compile_cache()
    yield
    reset_compile_cache()


def test_memory_hit_skips_build():
    cache = CompileCache()
    first = cache.get_or_build("tables", {"x": 1}, lambda: {"v": 1.5})

    def explode():
        raise AssertionError("build ran on a hit")

    second = cache.get_or_build("tables", {"x": 1}, explode)
    assert second == first
    assert cache.totals() == {"hits": 1, "misses": 1, "hit_rate": 0.5}


def test_hit_returns_the_identical_read_only_object():
    cache = CompileCache()
    affinities = [
        SetAffinity(set_id=0, mai=np.array([0.25, 0.75]), cai=np.ones(4))
    ]
    tables = ProximityTables(
        macs={0: np.array([1.0, 0.0])},
        cacs={0: np.array([0.5, 0.5, 0.0, 0.0])},
        capacity=np.ones(4),
        mem_dist=np.zeros((4, 2)),
        llc_dist=np.zeros((4, 4)),
    )
    stored = cache.get_or_build("affinity", {"n": 1}, lambda: affinities)
    hit = cache.get_or_build("affinity", {"n": 1}, lambda: pytest.fail("rebuilt"))
    assert hit is stored is affinities
    with pytest.raises(ValueError):
        hit[0].mai[0] = 1.0
    with pytest.raises(ValueError):
        hit[0].cai[0] = 1.0

    stored = cache.get_or_build("tables", {"n": 1}, lambda: tables)
    hit = cache.get_or_build("tables", {"n": 1}, lambda: pytest.fail("rebuilt"))
    assert hit is stored is tables
    for array in (
        hit.macs[0], hit.cacs[0], hit.capacity, hit.mem_dist, hit.llc_dist
    ):
        with pytest.raises(ValueError):
            array[0] = 2.0


def test_lru_evicts_oldest_entry():
    cache = CompileCache(memory_entries=2)
    cache.get_or_build("tables", {"x": 1}, lambda: {"v": 1})
    cache.get_or_build("tables", {"x": 2}, lambda: {"v": 2})
    # Touch x=1 so x=2 becomes the eviction candidate.
    cache.get_or_build("tables", {"x": 1}, lambda: pytest.fail("evicted"))
    cache.get_or_build("tables", {"x": 3}, lambda: {"v": 3})
    assert cache.get_or_build("tables", {"x": 2}, lambda: {"v": 2}) == {"v": 2}
    assert cache.totals()["misses"] == 4  # x=2 was evicted and rebuilt


def test_counters_split_per_kind_and_feed_telemetry():
    cache = CompileCache()
    telemetry = Telemetry()
    cache.get_or_build("tables", {"x": 1}, lambda: {"v": 1}, telemetry=telemetry)
    cache.get_or_build("tables", {"x": 1}, lambda: {"v": 1}, telemetry=telemetry)
    cache.get_or_build("affinity", {"x": 1}, lambda: [], telemetry=telemetry)
    assert cache.counter_snapshot() == {
        "affinity.miss": 1,
        "tables.hit": 1,
        "tables.miss": 1,
    }
    assert cache.totals()["hit_rate"] == pytest.approx(1 / 3, abs=1e-4)
    assert telemetry.counters == {
        "compile_cache.affinity.miss": 1,
        "compile_cache.tables.hit": 1,
        "compile_cache.tables.miss": 1,
    }


def test_counter_delta_and_totals():
    before = {"affinity.hit": 2, "tables.miss": 1}
    after = {"affinity.hit": 5, "affinity.miss": 1, "tables.miss": 1}
    delta = counter_delta(before, after)
    assert delta == {"affinity.hit": 3, "affinity.miss": 1}
    assert counter_totals(delta) == {"hits": 3, "misses": 1, "hit_rate": 0.75}
    assert counter_totals({}) == {"hits": 0, "misses": 0, "hit_rate": 0.0}


def test_stats_shape():
    cache = CompileCache()
    cache.get_or_build("tables", {"x": 1}, lambda: {"v": 1})
    stats = cache.stats()
    assert stats["memory_entries"] == 1
    assert stats["memory_capacity"] == cache.memory_entries
    assert stats["counters"] == {"tables.miss": 1}
    assert stats["misses"] == 1


def test_process_cache_get_and_reset():
    first = get_compile_cache()
    assert get_compile_cache() is first
    reset_compile_cache()
    assert get_compile_cache() is not first
