"""The benchmark's four workloads: cell lists built from a seed, and how
one cell executes through the program's public API.

Every workload is a closed loop with one client: cells run back to back
in list order, each starting when the previous one returns.  All cells use
scale 0.4 and the Table 4 defaults (``DEFAULT_CONFIG``: 6x6 mesh, analytic
NoC, fast engine).  The seed is the only input that varies between runs; it
reaches the program as ``SweepCell.seed`` or as the compiler ``seed``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.compile import get_compile_cache
from repro.core.pipeline import LocationAwareCompiler
from repro.exec import SweepCell
from repro.experiments.harness import DEFAULT_CME_ACCURACY
from repro.sim.config import DEFAULT_CONFIG, SystemConfig, sensitivity_variants
from repro.workloads import REGULAR_FACTORIES, build_workload

SCALE = 0.4

SHARED_MISS_APPS = ("fft", "moldyn")
"""Fig. 8 cells: fft takes the regular compile path, moldyn the
irregular inspector path."""

IDEAL_NOC_APPS = (
    "art", "barnes", "lu", "fmm", "radiosity", "raytrace", "cholesky",
    "mxm", "swim",
)
"""Fig. 2 cells, run on the zero-latency network."""

FAULT_PLAN = (
    "link:2,2->3,2:down",
    "link:3,3->3,2:down",
    "mc:1:throttle=0.5",
    "router:1,1:hotspot=+8cyc",
)


def compile_configs() -> List[Tuple[str, SystemConfig, Dict[str, Any]]]:
    """(id, config, compiler kwargs) for the compile-sweep workload: the
    five Fig. 9 variants, the private LLC, and Fig. 10's 3x3 regions."""
    ids = {
        "Default Parameters": "default",
        "8x8 Network": "mesh8x8",
        "1MB/core LLC": "llc2x",
        "Page Size = 8KB": "page8k",
        "Different MC Placement": "mc-edge",
    }
    out = [
        (ids[label], config, {})
        for label, config in sensitivity_variants(DEFAULT_CONFIG).items()
    ]
    out.append(("private", DEFAULT_CONFIG.private_llc(), {}))
    out.append(("regions3x3", DEFAULT_CONFIG, {"num_regions": 4}))
    return out


@dataclass(frozen=True)
class CompileCell:
    """One ``LocationAwareCompiler(...).compile(instance)`` call."""

    app: str
    config_id: str
    config: SystemConfig
    compiler_kwargs: Tuple[Tuple[str, Any], ...]
    seed: int


@dataclass(frozen=True)
class BenchCell:
    """A workload cell: a sweep cell to simulate or a compile to run."""

    cell_id: str
    sweep: Optional[SweepCell] = None
    compile: Optional[CompileCell] = None

    @property
    def app(self) -> str:
        if self.sweep is not None:
            return self.sweep.workload
        return self.compile.app

    @property
    def mapping(self) -> str:
        return self.sweep.mapping if self.sweep is not None else "la"


def _sim_cells(apps, configs, mappings, seed, faults=()) -> List[BenchCell]:
    return [
        BenchCell(
            cell_id=f"{app}/{org}/{mapping}",
            sweep=SweepCell(
                workload=app, config=config, mapping=mapping, scale=SCALE,
                seed=seed, faults=faults,
            ),
        )
        for app in apps
        for org, config in configs
        for mapping in mappings
    ]


def _shared_miss(seed: int) -> List[BenchCell]:
    return _sim_cells(
        SHARED_MISS_APPS, [("shared", DEFAULT_CONFIG.shared_llc())],
        ("default", "la"), seed,
    )


def _faulted(seed: int) -> List[BenchCell]:
    return _sim_cells(
        SHARED_MISS_APPS, [("shared", DEFAULT_CONFIG.shared_llc())],
        ("default", "la"), seed, faults=FAULT_PLAN,
    )


def _ideal_noc(seed: int) -> List[BenchCell]:
    configs = [
        ("shared", DEFAULT_CONFIG.shared_llc().ideal_network()),
        ("private", DEFAULT_CONFIG.private_llc().ideal_network()),
    ]
    return _sim_cells(IDEAL_NOC_APPS, configs, ("default",), seed)


def _compile_sweep(seed: int) -> List[BenchCell]:
    return [
        BenchCell(
            cell_id=f"{app}/{config_id}",
            compile=CompileCell(
                app=app, config_id=config_id, config=config,
                compiler_kwargs=tuple(sorted(kwargs.items())), seed=seed,
            ),
        )
        for config_id, config, kwargs in compile_configs()
        for app in REGULAR_FACTORIES
    ]


WORKLOADS: Dict[str, Callable[[int], List[BenchCell]]] = {
    "shared-miss": _shared_miss,
    "ideal-noc": _ideal_noc,
    "compile-sweep": _compile_sweep,
    "faulted": _faulted,
}
"""Workload name -> cell-list factory (the interface later changes are
judged by; keep names and cell lists stable)."""

HEADLINE = ("shared-miss", "faulted")
"""Workloads whose cells pair default and la mappings per app."""


def build_cells(workload: str, seed: int) -> List[BenchCell]:
    """The workload's cells for ``seed``, plus the inputs they need."""
    cells = WORKLOADS[workload](seed)
    for app in sorted({cell.app for cell in cells}):
        build_workload(app)  # fail early on an unknown app
    return cells


def run_compile(cell: CompileCell) -> Dict[str, Any]:
    """Compile one program instance exactly as ``run_workload`` would for
    a location-aware regular cell (process compile cache included)."""
    config = cell.config
    instance = build_workload(cell.app).instantiate(
        page_bytes=config.page_bytes, scale=SCALE
    )
    compiler = LocationAwareCompiler(
        config,
        cme_accuracy=DEFAULT_CME_ACCURACY,
        iteration_set_fraction=config.iteration_set_fraction,
        seed=cell.seed,
        compile_cache=get_compile_cache(),
        **dict(cell.compiler_kwargs),
    )
    compiled = compiler.compile(instance)
    return {
        "num_cores": config.num_cores,
        "schedules": {
            str(nest): {str(s): core for s, core in sorted(schedule.items())}
            for nest, schedule in sorted(compiled.schedules.items())
        },
    }
