"""Key-sensitivity tests: everything an artifact depends on must key it.

Each test perturbs exactly one input that changes what a compile-side
artifact *computes* and asserts the content-addressed key moves with it.
A key that failed to move would let a stale artifact replay as current --
the one failure mode a content-addressed cache must never have.
"""

from __future__ import annotations

import pytest

from repro.cme.equations import CacheMissEstimator
from repro.compile import (
    affinity_material,
    estimates_material,
    instance_digest,
    material_digest,
    partition_material,
    tables_material,
)
from repro.core.analysis import ArchitectureView
from repro.core.proximity import MacMode
from repro.core.regions import RegionPartition
from repro.ir.iterspace import partition_iteration_sets
from repro.noc.topology import MCPlacement
from repro.sim.config import SystemConfig
from repro.workloads import build_workload


def _estimator(**overrides):
    config = SystemConfig()
    params = dict(
        llc_size_bytes=config.l2_size_bytes * config.num_cores,
        llc_assoc=config.l2_assoc,
        line_bytes=config.l2_line_bytes,
        accuracy=0.85,
        sample_iterations=8,
        seed=11,
    )
    params.update(overrides)
    return CacheMissEstimator(**params)


def _partition(config: SystemConfig) -> RegionPartition:
    return RegionPartition(
        config.build_mesh(),
        region_w=config.region_w,
        region_h=config.region_h,
    )


def _estimates_key(estimator, instance_hash="abc") -> str:
    """The ``affinity`` key of one nest: its CME inputs (the estimates
    material) plus the default architecture view."""
    config = SystemConfig()
    instance = build_workload("mxm").instantiate(scale=0.1)
    sets = partition_iteration_sets(instance.nest_domain(0).size, 0.0025)
    view = ArchitectureView(
        partition=_partition(config), distribution=config.build_distribution()
    )
    return material_digest(
        "affinity",
        affinity_material(
            estimates_material(instance_hash, 0, sets, estimator),
            view,
            config.llc_organization,
        ),
    )


def test_estimates_key_sensitive_to_accuracy():
    assert _estimates_key(_estimator(accuracy=0.85)) != _estimates_key(
        _estimator(accuracy=0.76)
    )


def test_estimates_key_sensitive_to_seed():
    assert _estimates_key(_estimator(seed=11)) != _estimates_key(
        _estimator(seed=12)
    )


def test_estimates_key_sensitive_to_llc_geometry_and_sampling():
    base = _estimates_key(_estimator())
    assert _estimates_key(_estimator(llc_size_bytes=1 << 20)) != base
    assert _estimates_key(_estimator(llc_assoc=4)) != base
    assert _estimates_key(_estimator(sample_iterations=16)) != base


def test_estimates_key_sensitive_to_program_instance():
    assert _estimates_key(_estimator(), "abc") != _estimates_key(
        _estimator(), "abd"
    )


def test_partition_material_sensitive_to_mc_placement():
    corners = SystemConfig()
    middles = corners.with_updates(mc_placement=MCPlacement.EDGE_MIDDLES)
    assert partition_material(_partition(corners)) != partition_material(
        _partition(middles)
    )


def _tables_key(config=None, fault_plan_hash=None, **overrides) -> str:
    config = config or SystemConfig()
    params = dict(
        mac_mode=MacMode.NEAREST,
        cac_self_weight=0.5,
        fault_plan_hash=fault_plan_hash,
        router_delay=config.router_delay,
    )
    params.update(overrides)
    return material_digest(
        "tables",
        tables_material(
            _partition(config), config.llc_organization, **params
        ),
    )


def test_tables_key_sensitive_to_fault_plan_hash():
    pristine = _tables_key(fault_plan_hash=None)
    degraded = _tables_key(fault_plan_hash="deadbeefdeadbeef")
    other = _tables_key(fault_plan_hash="cafebabecafebabe")
    assert len({pristine, degraded, other}) == 3


def test_tables_key_sensitive_to_mapper_knobs():
    base = _tables_key()
    assert _tables_key(mac_mode=MacMode.INVERSE_DISTANCE) != base
    assert _tables_key(cac_self_weight=0.7) != base
    assert _tables_key(router_delay=SystemConfig().router_delay + 1) != base


def test_tables_key_sensitive_to_mc_placement():
    middles = SystemConfig().with_updates(
        mc_placement=MCPlacement.EDGE_MIDDLES
    )
    assert _tables_key() != _tables_key(config=middles)


def test_kind_partitions_the_key_space():
    material = {"x": 1}
    assert material_digest("tables", material) != material_digest(
        "affinity", material
    )


def test_instance_digest_deterministic_and_content_sensitive():
    wl = build_workload("nbf")  # irregular: has runtime index arrays
    a = instance_digest(wl.instantiate(scale=0.2))
    b = instance_digest(wl.instantiate(scale=0.2))
    assert a == b, "same instantiation must digest identically"
    assert instance_digest(wl.instantiate(scale=0.3)) != a
    assert instance_digest(build_workload("mxm").instantiate(scale=0.2)) != a


@pytest.mark.parametrize("name", ("mxm", "nbf"))
def test_instance_digest_is_process_independent_material(name):
    # The digest must come from content, never from object identity:
    # repr() of functions/objects would embed memory addresses.
    instance = build_workload(name).instantiate(scale=0.2)
    digest = instance_digest(instance)
    assert "0x" not in digest
    assert len(digest) == 64
