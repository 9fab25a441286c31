"""Suite-level benchmark: the paper's evaluation cells, timed end to end.

Usage, from the repository root::

    python3 perfbench/run.py --workload shared-miss --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``shared-miss``, ``ideal-noc``,
``compile-sweep`` and ``faulted``.  Cells run back to back in one process
through the public API (``repro.exec.run_sweep`` with ``workers=1``, or
``LocationAwareCompiler(...).compile``); whole passes over the cell list
repeat while the next one fits in ``--seconds``.

``--trace 0`` reports the end-to-end metrics, measured without tracing:

* ``wall_s`` -- seconds the run's cells took (median over passes);
* ``work_per_s`` -- simulated L1 accesses per second on the simulating
  workloads, iteration sets scheduled per second on ``compile-sweep``;
  failed cells are left out;
* ``setup_s`` -- importing the entry modules and building the cells, in a
  fresh interpreter (median of ``SETUP_REPEATS``);
* ``peak_rss_mb`` -- peak resident memory of the benchmark process.

``wall_s`` and ``work_per_s`` use host seconds rescaled to the reference
host speed sampled during the pass (``hostspeed.py``), because a shared VM
drifts by +-25 % within minutes; the raw seconds and the speed factor are
printed beside them.  ``setup_s`` is too short to sample and stays raw.

``--trace 1`` runs one untraced and one traced pass and reports per-layer
host time from spans recorded around each layer's entry points
(``spans.py``); the Chrome trace is written to ``.perfbench/``.

Every cell's output is checked: invariants for any seed, and sha256 digests
against ``expected_digests.json`` for the blessed seeds.  A failed cell is
counted in ``failed`` and makes the command exit 1.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--bless`` rewrites ``expected_digests.json`` from the current program,
for the blessed seeds of the named workload (or of all of them).
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from perfbench import checks  # noqa: E402  (imports no program module)

OUT_DIR = ROOT / ".perfbench"
# workloads.WORKLOADS' keys; not imported here, because importing it imports
# the program, which a set-up probe must time from its start.
WORKLOAD_NAMES = ("shared-miss", "ideal-noc", "compile-sweep", "faulted")
SETUP_REPEATS = 3


# ----------------------------------------------------------------------
# Set-up time, measured in fresh interpreters
# ----------------------------------------------------------------------
def setup_probe(workload: str, seed: int) -> float:
    """Seconds to import the entry modules and build the cells (this
    process must not have imported the program yet)."""
    t0 = time.perf_counter()
    # Imports the entry modules: repro.exec, repro.experiments.harness,
    # repro.core.pipeline, repro.compile, repro.workloads.
    from perfbench.workloads import build_cells

    build_cells(workload, seed)
    return time.perf_counter() - t0


def measure_setup(workload: str, seed: int) -> List[float]:
    """Set-up seconds of ``SETUP_REPEATS`` fresh interpreters."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


# ----------------------------------------------------------------------
# One pass over a workload's cells
# ----------------------------------------------------------------------
@dataclass
class PassResult:
    wall_ns: int = 0
    outputs: Dict[str, Any] = field(default_factory=dict)
    seconds: Dict[str, float] = field(default_factory=dict)
    errors: Dict[str, str] = field(default_factory=dict)
    retries: int = 0
    compile_counters: Dict[str, int] = field(default_factory=dict)
    speed_factor: float = 1.0


def run_pass(cells, recorder=None) -> PassResult:
    """Execute every cell once, closed loop; outputs are kept per cell id.

    Host speed is sampled meanwhile (``hostspeed.py``); the sampler's own
    time is left out of every cell's seconds and, in a traced pass
    (``recorder`` given), out of the span it interrupted.
    """
    import repro.exec as rexec
    from repro.compile import get_compile_cache, reset_compile_cache
    from perfbench.hostspeed import HostSpeed
    from perfbench.workloads import run_compile

    reset_compile_cache()  # every pass starts cold, as a fresh process does
    result = PassResult()
    speed = HostSpeed(
        on_sample=recorder.pause if recorder is not None else None
    )
    with speed.sampling():
        for cell in cells:
            if recorder is not None:
                recorder.begin_cell(cell.cell_id)
            sampled_ns = speed.overhead_ns
            t0 = time.perf_counter_ns()
            try:
                if cell.sweep is not None:
                    sweep = rexec.run_sweep([cell.sweep], workers=1)
                    result.retries += sweep.retries
                    output = sweep.results[0].payload["stats"]
                else:
                    output = run_compile(cell.compile)
            except Exception as exc:  # a failed cell is reported, not fatal
                output = None
                result.errors[cell.cell_id] = f"{type(exc).__name__}: {exc}"
            elapsed = (
                time.perf_counter_ns() - t0 - (speed.overhead_ns - sampled_ns)
            )
            result.wall_ns += elapsed
            result.seconds[cell.cell_id] = elapsed / 1e9
            if output is not None:
                result.outputs[cell.cell_id] = output
    result.compile_counters = get_compile_cache().counter_snapshot()
    if speed.samples:
        result.speed_factor = speed.factor
    return result


def verify(workload: str, cells, outcome: PassResult,
           expected: Optional[Dict[str, str]]) -> Dict[str, List[str]]:
    """cell id -> reasons it failed (raised, invariant, digest)."""
    problems: Dict[str, List[str]] = {
        cell_id: [error] for cell_id, error in outcome.errors.items()
    }
    for cell in cells:
        output = outcome.outputs.get(cell.cell_id)
        if output is None:
            continue
        if cell.sweep is not None:
            found = checks.stats_violations(output, workload == "ideal-noc")
        else:
            found = checks.schedule_violations(output)
        if expected is not None:
            want = expected.get(cell.cell_id)
            got = checks.digest(output)
            if want != got:
                found.append(f"digest {got[:12]} != expected {str(want)[:12]}")
        if found:
            problems.setdefault(cell.cell_id, []).extend(found)
    return problems


def headline(cells, outputs) -> Dict[str, Any]:
    """la vs default per app: exec cycles and steady-state NoC latency."""
    by_app: Dict[str, Dict[str, Any]] = {}
    for cell in cells:
        stats = outputs.get(cell.cell_id)
        if stats is not None:
            by_app.setdefault(cell.app, {})[cell.mapping] = stats
    pairs = {
        app: runs for app, runs in by_app.items()
        if "default" in runs and "la" in runs
    }
    out = {}
    for metric, field_name in (
        ("la_exec_reduction_pct", "execution_cycles"),
        ("la_noc_latency_reduction_pct", "network_total_latency"),
    ):
        aggregate, per_app = checks.la_reduction({
            app: (runs["default"][field_name], runs["la"][field_name])
            for app, runs in pairs.items()
        })
        out[metric] = {"value": aggregate, "per_app": per_app}
    return out


def cell_work(cell, output) -> int:
    """Simulated L1 accesses, or iteration sets scheduled."""
    if cell.sweep is not None:
        return int(output["l1_accesses"])
    return sum(len(schedule) for schedule in output["schedules"].values())


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def end_to_end(passes, cells, failed_ids, setup_samples) -> Dict[str, Any]:
    ok = [cell for cell in cells if cell.cell_id not in failed_ids]
    rates = []
    for outcome in passes:
        seconds = sum(outcome.seconds[cell.cell_id] for cell in ok)
        work = sum(cell_work(cell, outcome.outputs[cell.cell_id]) for cell in ok)
        # Seconds at the reference host speed: see hostspeed.py.
        seconds *= outcome.speed_factor
        rates.append(work / seconds if seconds else 0.0)
    return {
        "wall_s": metric(
            statistics.median(p.wall_ns / 1e9 * p.speed_factor for p in passes),
            "s",
        ),
        "work_per_s": metric(statistics.median(rates), "1/s"),
        "setup_s": metric(statistics.median(setup_samples), "s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
    }


def per_layer(recorder, traced: PassResult, untraced: PassResult, cells,
              head: Dict[str, Any]) -> Dict[str, Any]:
    from perfbench.spans import LAYERS

    totals = recorder.layer_totals(traced.wall_ns)
    layers = totals["layers"]
    out: Dict[str, Any] = {}
    for name in LAYERS:
        out[f"{name}.self_s"] = metric(layers[name]["self_ns"] / 1e9, "s")
        out[f"{name}.calls"] = metric(layers[name]["calls"], "count")
    out["unattributed_s"] = metric(totals["unattributed_ns"] / 1e9, "s")
    # Both passes at the reference host speed, so host drift between them
    # does not read as tracing cost.
    out["trace.overhead_frac"] = metric(
        (traced.wall_ns * traced.speed_factor)
        / (untraced.wall_ns * untraced.speed_factor) - 1.0,
        "ratio",
    )

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    sums: Dict[str, int] = {}
    for cell in cells:
        output = traced.outputs.get(cell.cell_id)
        if cell.sweep is not None and output is not None:
            for key, value in output.items():
                sums[key] = sums.get(key, 0) + value
    for name in ("noc", "memory"):
        out[f"{name}.ns_per_call"] = metric(
            ratio(layers[name]["self_ns"], layers[name]["calls"]), "ns"
        )
    packets = sums.get("network_packets", 0)
    out["noc.avg_hops"] = metric(ratio(sums.get("network_total_hops", 0), packets), "hops")
    out["noc.avg_latency_cycles"] = metric(
        ratio(sums.get("network_total_latency", 0), packets), "cycles"
    )
    out["cache.l1_hit_rate"] = metric(
        ratio(sums.get("l1_hits", 0), sums.get("l1_accesses", 0)), "ratio"
    )
    out["cache.llc_hit_rate"] = metric(
        ratio(sums.get("llc_hits", 0), sums.get("llc_accesses", 0)), "ratio"
    )
    out["cache.bulk_fraction"] = metric(
        ratio(recorder.bulk_hits, sums.get("l1_accesses", 0)), "ratio"
    )
    out["memory.dram_row_hit_rate"] = metric(
        ratio(sums.get("dram_row_hits", 0), sums.get("dram_accesses", 0)), "ratio"
    )
    counts = {"hit": 0, "miss": 0}
    for name, count in traced.compile_counters.items():
        outcome = name.rpartition(".")[2]
        if outcome in counts:
            counts[outcome] += count
    out["compile.hits"] = metric(counts["hit"], "count")
    out["compile.misses"] = metric(counts["miss"], "count")
    out["compile.hit_rate"] = metric(
        ratio(counts["hit"], counts["hit"] + counts["miss"]), "ratio"
    )
    out["faults.route_reuse"] = metric(
        ratio(layers["faults"]["calls"] - len(recorder.routes),
              layers["faults"]["calls"]),
        "ratio",
    )
    out["exec.retries"] = metric(traced.retries, "count")
    # 0 where the workload has no default/la pairs.
    for name in ("la_exec_reduction_pct", "la_noc_latency_reduction_pct"):
        value = head.get(name, {}).get("value", 0.0)
        out[name] = metric(value if math.isfinite(value) else 0.0, "%")
    return out


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------
def bless(workloads: List[str]) -> int:
    from perfbench.workloads import build_cells

    path = checks.EXPECTED_PATH
    expected = checks.load_expected() if path.exists() else {}
    for workload in workloads:
        for seed in checks.BLESSED_SEEDS:
            cells = build_cells(workload, seed)
            outcome = run_pass(cells)
            problems = verify(workload, cells, outcome, None)
            if problems:
                print(f"{workload} seed {seed}: {problems}", file=sys.stderr)
                return 1
            expected.setdefault(workload, {})[str(seed)] = {
                cell.cell_id: checks.digest(outcome.outputs[cell.cell_id])
                for cell in cells
            }
            print(f"blessed {workload} seed {seed}: {len(cells)} cells")
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--bless", action="store_true")
    args = parser.parse_args(argv)

    if args.setup_probe:
        print(repr(setup_probe(args.workload, args.seed)))
        return 0
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.bless:
        return bless([args.workload] if args.workload else list(WORKLOAD_NAMES))
    if args.workload is None:
        parser.error("--workload is required")

    setup_samples = [] if args.trace else measure_setup(args.workload, args.seed)
    from perfbench.workloads import HEADLINE, SCALE, build_cells

    cells = build_cells(args.workload, args.seed)
    expected = checks.expected_for(
        checks.load_expected(), args.workload, args.seed
    )
    meta = checks.provenance(
        ROOT, args.workload, args.seed, SCALE, [c.cell_id for c in cells]
    )
    results = checks.ResultRecorder(OUT_DIR / "results.jsonl", meta)

    passes: List[PassResult] = []
    recorder = None
    if args.trace:
        from perfbench.spans import SpanRecorder

        passes.append(run_pass(cells))
        recorder = SpanRecorder()
        with recorder.instrument():
            passes.append(run_pass(cells, recorder))
    else:
        start = time.perf_counter()
        while True:
            passes.append(run_pass(cells))
            elapsed = time.perf_counter() - start
            if elapsed + passes[-1].wall_ns / 1e9 > args.seconds:
                break

    problems: Dict[str, List[str]] = {}
    failed = 0
    head: Dict[str, Any] = {}
    for outcome in passes:
        found = verify(args.workload, cells, outcome, expected)
        if args.workload in HEADLINE:
            head = headline(cells, outcome.outputs)
            for name, entry in head.items():
                if not math.isfinite(entry["value"]):
                    for cell in cells:
                        found.setdefault(cell.cell_id, []).append(
                            f"{name} is not finite"
                        )
        failed += len(found)
        for cell_id, reasons in found.items():
            problems.setdefault(cell_id, []).extend(reasons)
    attempted = len(cells) * len(passes)

    if args.trace:
        metrics = per_layer(recorder, passes[1], passes[0], cells, head)
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        document = recorder.save(trace_path, {**meta, "pass": "traced"})
        from repro.obs.tracing import validate_trace_events

        violations = validate_trace_events(document)
        if violations:
            problems["trace export"] = violations[:5]
        print(f"trace: {len(recorder)} spans -> {trace_path.relative_to(ROOT)}")
        traced_s = passes[1].wall_ns / 1e9
        shares = sorted(
            ((entry["value"] / traced_s, name[: -len(".self_s")])
             for name, entry in metrics.items() if name.endswith(".self_s")),
            reverse=True,
        )
        print("self-time share of traced wall: " + "  ".join(
            f"{layer}={share:.1%}" for share, layer in shares if share >= 0.001
        ))
    else:
        metrics = end_to_end(passes, cells, set(problems), setup_samples)

    print(f"provenance: {json.dumps(meta, sort_keys=True)}")
    print(f"passes: {len(passes)}  cells/pass: {len(cells)}  "
          f"raw_wall_s: {[round(p.wall_ns / 1e9, 4) for p in passes]}  "
          f"host speed: {[round(p.speed_factor, 4) for p in passes]}  "
          f"setup samples: {[round(s, 4) for s in setup_samples]}")
    for name, entry in head.items():
        rows = "  ".join(
            f"{app}={value:.4f}" for app, value in entry["per_app"].items()
        )
        print(f"{name}: {entry['value']:.4f} %  per app: {rows}")
    print(f"failed_frac: {failed / attempted:.4f} ({failed}/{attempted})")
    for cell_id, found in sorted(problems.items()):
        print(f"FAILED {cell_id}: {'; '.join(found)}", file=sys.stderr)
    for name, entry in metrics.items():
        print(f"{name} = {entry['value']} {entry['unit']}")
    correct = failed == 0 and not problems
    results.record(
        "trace" if args.trace else "end_to_end",
        correct=correct, attempted=attempted, failed=failed, metrics=metrics,
        pass_wall_s=[p.wall_ns / 1e9 for p in passes],
        host_speed=[p.speed_factor for p in passes],
        cell_seconds=[p.seconds for p in passes],
        setup_samples_s=setup_samples,
    )
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
