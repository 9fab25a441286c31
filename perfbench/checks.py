"""Correctness gate, headline aggregation and provenance of a benchmark run.

Nothing here imports the program, so the checks cannot drift with the
code they judge.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

EXPECTED_PATH = Path(__file__).with_name("expected_digests.json")

DEFAULT_SEED = 1
HELD_OUT_SEED = 7
BLESSED_SEEDS = (DEFAULT_SEED, HELD_OUT_SEED)
"""Seeds with committed per-cell digests: the default one, and one held
out from tuning.  Any other seed is checked by invariants alone."""


def digest(payload: Any) -> str:
    """sha256 over the sorted-key JSON of a cell's output."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_expected() -> Dict[str, Any]:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def expected_for(
    expected: Dict[str, Any], workload: str, seed: int
) -> Optional[Dict[str, str]]:
    """cell id -> digest for a blessed seed, else None."""
    return expected.get(workload, {}).get(str(seed))


def stats_violations(stats: Dict[str, Any], ideal_noc: bool) -> List[str]:
    """Invariants every simulated cell's ``RunStats`` must satisfy."""
    out = []
    for hits, accesses in (
        ("l1_hits", "l1_accesses"),
        ("llc_hits", "llc_accesses"),
        ("dram_row_hits", "dram_accesses"),
    ):
        if not 0 <= stats[hits] <= stats[accesses]:
            out.append(f"{hits}={stats[hits]} not in [0, {accesses}={stats[accesses]}]")
    if stats["execution_cycles"] <= 0:
        out.append(f"execution_cycles={stats['execution_cycles']} <= 0")
    if stats["l1_accesses"] <= 0:
        out.append("no L1 accesses simulated")
    if ideal_noc and stats["network_total_latency"] != 0:
        out.append(
            f"network_total_latency={stats['network_total_latency']} on the "
            "ideal network"
        )
    return out


def schedule_violations(output: Dict[str, Any]) -> List[str]:
    """Invariants of a compile cell's nest -> {set -> core} schedules."""
    cores = output["num_cores"]
    schedules = output["schedules"]
    out = []
    if not schedules or not any(schedules.values()):
        out.append("no iteration set scheduled")
    for nest, schedule in schedules.items():
        bad = [s for s, core in schedule.items() if not 0 <= core < cores]
        if bad:
            out.append(f"nest {nest}: sets {bad[:3]} mapped off the {cores} cores")
    return out


def la_reduction(
    pairs: Dict[str, Tuple[float, float]]
) -> Tuple[float, Dict[str, float]]:
    """Ratio-space geomean of la/default over apps, as a % reduction.

    ``pairs`` maps app -> (default, la).  Returns the aggregate
    ``100 * (1 - geomean(la / default))`` and the same per app.  Any
    non-positive or non-finite input makes the aggregate NaN, which the
    caller treats as a failed invariant.
    """
    per_app: Dict[str, float] = {}
    logs = []
    for app, (base, opt) in sorted(pairs.items()):
        if base > 0 and opt > 0 and math.isfinite(base) and math.isfinite(opt):
            ratio = opt / base
            logs.append(math.log(ratio))
            per_app[app] = 100.0 * (1.0 - ratio)
        else:
            logs.append(math.nan)
            per_app[app] = math.nan
    if not logs:
        return math.nan, per_app
    return 100.0 * (1.0 - math.exp(sum(logs) / len(logs))), per_app


def source_digest(root: Path) -> str:
    """sha256 over the program's source files, path-sorted."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode("utf-8"))
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha(root: Path) -> Optional[str]:
    """The checked-out commit, read from ``.git`` (None outside git)."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        return None
    return None


def provenance(
    root: Path, workload: str, seed: int, scale: float, cell_ids: Iterable[str]
) -> Dict[str, Any]:
    """What produced a result record: code, host, inputs."""
    import numpy

    return {
        "git_sha": git_sha(root),
        "source_sha256": source_digest(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "cells_sha256": digest(list(cell_ids)),
    }


class ResultRecorder:
    """Appends one provenance-stamped JSON record per benchmark run."""

    def __init__(self, path: Path, meta: Dict[str, Any]):
        self.path = path
        self.meta = meta

    def record(self, kind: str, **fields: Any) -> Dict[str, Any]:
        entry = {"kind": kind, "provenance": self.meta, **fields}
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")
        return entry

