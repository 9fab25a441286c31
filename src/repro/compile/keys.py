"""Content-addressed key material for compile-side artifacts.

Every memoized artifact is addressed by a sha256 over canonical JSON of a
*material* dict built here.  The material must cover everything the
artifact is a function of -- and nothing volatile -- so equal keys mean
equal artifacts:

* **affinity** -- the CME inputs (:func:`estimates_material`: program
  instance content hash, nest index, iteration sets, LLC geometry,
  sampling parameters, accuracy, seed) plus the architecture view
  (address layout / data distribution, including fault degradation, and
  the region partition with its MC placement) and the LLC organization.
* **tables** -- the region partition, MAC mode, CAC self-weight, LLC
  organization, router delay, and the fault plan hash (``None`` for the
  pristine tables, which is how the fault-aware arm's oblivious mapper
  shares entries with plain fault-blind compiles).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Optional, Sequence

import numpy as np

from repro.obs.manifest import _normalize


def material_digest(kind: str, material: Dict[str, Any]) -> str:
    """The content-addressed key of one artifact."""
    payload = json.dumps({"kind": kind, "material": material}, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def instance_digest(instance: Any) -> str:
    """Content hash of one program instance.

    Covers the program structure (nests, references, arrays), the bound
    parameters, the address-space layout, and the *contents* of runtime
    index arrays -- generated programs (e.g. the fuzzer's) can share a
    name while differing in body, so the name alone is never trusted.
    """
    program = instance.program
    space = instance.space
    runtime_digests: Dict[str, str] = {}
    for name in sorted(instance.runtime):
        array = np.ascontiguousarray(instance.runtime[name])
        hasher = hashlib.sha256()
        hasher.update(str(array.dtype).encode("utf-8"))
        hasher.update(repr(array.shape).encode("utf-8"))
        hasher.update(array.tobytes())
        runtime_digests[name] = hasher.hexdigest()
    material = {
        "name": program.name,
        "program_seed": program.seed,
        "timing_loop_trips": program.timing_loop_trips,
        "params": _normalize(dict(instance.params)),
        # LoopNest / Reference / ArrayDecl / AffineExpr are all frozen
        # dataclasses, which _normalize renders field by field.  (The
        # Program itself is NOT normalized: its index_array_builders are
        # functions, whose repr is process-dependent -- their *output* is
        # hashed via the runtime arrays instead.)
        "nests": _normalize(list(program.nests)),
        "space": {
            "page_bytes": space.page_bytes,
            "base_vaddr": space.base_vaddr,
            "bases": _normalize(dict(space._bases)),
            "shapes": _normalize(dict(space._shapes)),
        },
        "runtime": runtime_digests,
    }
    payload = json.dumps(material, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def partition_material(partition: Any) -> Dict[str, Any]:
    """Key material of a region partition (mesh + MC placement + grid)."""
    mesh = partition.mesh
    return {
        "mesh": {
            "width": mesh.width,
            "height": mesh.height,
            "mc_placement": _normalize(mesh.mc_placement),
            "mcs": _normalize(list(mesh.mcs)),
        },
        "region_w": partition.region_w,
        "region_h": partition.region_h,
        "grid_w": partition.grid_w,
        "grid_h": partition.grid_h,
    }


def distribution_material(distribution: Any) -> Any:
    """Key material of a data distribution (address layout + targets).

    Degraded distributions expose :meth:`cache_material`; pristine ones
    are plain frozen dataclasses that `_normalize` renders directly.
    """
    cache_material = getattr(distribution, "cache_material", None)
    if cache_material is not None:
        return cache_material()
    return _normalize(distribution)


def estimates_material(
    instance_hash: str,
    nest_index: int,
    iteration_sets: Sequence[Any],
    estimator: Any,
) -> Dict[str, Any]:
    """The CME inputs of one nest (part of its ``affinity`` key)."""
    return {
        "instance": instance_hash,
        "nest": nest_index,
        "sets": _normalize(list(iteration_sets)),
        "llc_size_bytes": estimator.llc_size_bytes,
        "llc_assoc": estimator.llc_assoc,
        "line_bytes": estimator.line_bytes,
        "accuracy": estimator.accuracy,
        "sample_iterations": estimator.sample_iterations,
        "seed": estimator.seed,
    }


def affinity_material(
    estimates: Dict[str, Any],
    view: Any,
    organization: Any,
) -> Dict[str, Any]:
    """Key material of one nest's MAI/CAI vectors under one view."""
    return {
        "estimates": estimates,
        "partition": partition_material(view.partition),
        "distribution": distribution_material(view.distribution),
        "organization": _normalize(organization),
    }


def tables_material(
    partition: Any,
    organization: Any,
    mac_mode: Any,
    cac_self_weight: float,
    fault_plan_hash: Optional[str],
    router_delay: int,
) -> Dict[str, Any]:
    """Key material of the MAC/CAC proximity tables.

    ``fault_plan_hash`` is ``None`` for pristine tables; the fault-aware
    compile's oblivious arm therefore shares the exact entry a plain
    fault-blind compile writes.
    """
    return {
        "partition": partition_material(partition),
        "organization": _normalize(organization),
        "mac_mode": _normalize(mac_mode),
        "cac_self_weight": cac_self_weight,
        "fault_plan": fault_plan_hash,
        "router_delay": router_delay,
    }
