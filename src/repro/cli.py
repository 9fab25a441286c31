"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list``                          -- the 21 benchmarks and their metadata
* ``analyze [APP ...] [--json F]``  -- static safety/legality verification
* ``lint [--json F] [--paths P]``   -- source-level determinism &
                                       process-safety lint of the repo's
                                       own ``src/repro`` tree
* ``run [APP ...] [--mapping M] [--workers N] [--cache-dir D] [--resume]``
                                    -- simulate one or many apps; with
                                       ``--workers``/``--cache-dir`` the
                                       sweep runs sharded + memoized;
                                       ``--trace [F]`` also records a span
                                       trace of the whole sweep
* ``trace [APP ...] --out F``       -- traced sweep -> merged Chrome/
                                       Perfetto Trace Event JSON
* ``metrics APP [...]``             -- Prometheus-style text exposition of
                                       one instrumented run
* ``bench {history,check}``         -- perf trajectory: list recorded
                                       BENCH points / flag regressions
* ``cache {stats,clear}``           -- inspect / empty a result cache
* ``compare APP [...]``             -- default vs location-aware side by side
* ``profile APP [...]``             -- phase breakdown + manifest for one
                                       run (``--json`` machine-readable,
                                       ``--workers N`` profiles a traced
                                       sweep incl. worker-side phases)
* ``heatmap APP [--metric M] [...]``-- spatial traffic over the mesh
* ``faults ACTION [APP ...]``       -- fault injection: validate plans,
                                       run degraded machines, A/B the
                                       fault-aware vs oblivious mapping
* ``fuzz [--seed --iterations]``    -- differential fuzzing: random
                                       configs/workloads/faults through
                                       the fast-vs-reference and
                                       serial-vs-parallel oracles plus
                                       metamorphic invariants; failures
                                       shrink to a replayable corpus
* ``figure NAME [...]``             -- regenerate one paper figure's table
* ``properties``                    -- Table 3 (static columns)

Examples::

    python -m repro analyze --all --json diagnostics.json
    python -m repro analyze mxm nbf --verbose
    python -m repro analyze --fixture carried-stencil   # exits 1
    python -m repro lint --json repro_lint.json
    python -m repro lint --list-rules
    python -m repro compare mxm --scale 0.6
    python -m repro run nbf --mapping la --llc private
    python -m repro run --suite --workers 4 --cache-dir .repro-cache
    python -m repro run mxm nbf --workers 2 --resume --json sweep.json
    python -m repro run --suite --workers 4 --trace run.trace.json
    python -m repro trace mxm nbf --workers 2 --out sweep.trace.json
    python -m repro metrics mxm --mapping la
    python -m repro bench history
    python -m repro bench check --json bench-check.json
    python -m repro cache stats --cache-dir .repro-cache
    python -m repro profile mxm --mapping la --events /tmp/mxm.jsonl
    python -m repro profile mxm --json
    python -m repro profile mxm --workers 2
    python -m repro heatmap mxm --metric mc --mapping la
    python -m repro figure fig09 --apps mxm,nbf --scale 0.5
    python -m repro fuzz --seed 7 --iterations 25 --json fuzz.json
    python -m repro fuzz --time-budget 60 --corpus-dir tests/fuzz/corpus
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.analyze import (
    SCHEMA,
    analyze_config,
    analyze_run,
    build_fixture,
    fixture_names,
    rule_catalogue,
)
from repro.experiments import figures as fig
from repro.experiments.harness import MAPPINGS, compare, run_workload
from repro.experiments.report import print_table
from repro.obs import LEVELS, EventStream, Telemetry
from repro.obs.render import (
    HEATMAP_METRICS,
    heatmap_csv,
    render_fault_overlay,
    render_heatmap,
    render_histograms,
    render_manifest,
    render_phase_table,
)
from repro.sim.config import DEFAULT_CONFIG, SystemConfig
from repro.workloads import SUITE_ORDER, build_workload, suite_properties

FIGURES = {
    "fig02": fig.figure02_ideal_network,
    "fig07": fig.figure07_private,
    "fig08": fig.figure08_shared,
    "fig09": fig.figure09_sensitivity,
    "fig10-regions": fig.figure10_regions,
    "fig10-sets": fig.figure10_iteration_sets,
    "fig11": fig.figure11_distribution,
    "fig12": fig.figure12_ddr4,
    "fig13": fig.figure13_layout,
    "fig14": fig.figure14_hardware,
    "fig15": fig.figure15_perfect_estimation,
    "fig16": fig.figure16_knl_modes,
    "fig17": fig.figure17_knl_scaling,
}


def _config(args) -> SystemConfig:
    config = DEFAULT_CONFIG
    if getattr(args, "llc", "shared") == "private":
        config = config.private_llc()
    return config


def _apps(raw: Optional[str]) -> Optional[List[str]]:
    if not raw:
        return None
    return [a.strip() for a in raw.split(",") if a.strip()]


def _fault_plan(args):
    """Parse ``--fault`` specs into a FaultPlan (None when absent)."""
    specs = getattr(args, "fault", None)
    if not specs:
        return None
    from repro.faults import FaultPlan

    return FaultPlan.parse(specs)


def cmd_list(args) -> int:
    rows = []
    for name in SUITE_ORDER:
        workload = build_workload(name)
        rows.append([
            name,
            "regular" if workload.regular else "irregular",
            workload.num_loop_nests,
            workload.num_arrays,
            workload.description,
        ])
    print_table(
        ["benchmark", "class", "nests", "arrays", "description"], rows,
        title="The 21-benchmark suite",
    )
    return 0


def cmd_analyze(args) -> int:
    """Static verification: parallel safety + mapping/config legality."""
    if args.list_rules:
        print_table(
            ["rule", "severity", "title"],
            [[r["rule"], r["severity"], r["title"]] for r in rule_catalogue()],
            title="registered analysis rules",
        )
        return 0

    config = _config(args)
    reports = []
    if args.config_only:
        reports.append(analyze_config(config))
    else:
        workloads = []
        if args.fixture:
            workloads.append(build_fixture(args.fixture))
        for app in args.apps:
            workloads.append(build_workload(app))
        if not workloads:  # no explicit subject: the whole bundled suite
            workloads = [build_workload(name) for name in SUITE_ORDER]
        for workload in workloads:
            reports.append(analyze_run(workload=workload, config=config))

    for report in reports:
        print(report.render_text(verbose=args.verbose))
    exit_code = max(r.exit_code for r in reports)
    totals = {"info": 0, "warning": 0, "error": 0}
    for report in reports:
        for key, value in report.counts().items():
            totals[key] += value
    print(
        f"analyzed {len(reports)} subject(s): {totals['error']} error(s), "
        f"{totals['warning']} warning(s), {totals['info']} info -> "
        + ("OK" if exit_code == 0 else "ILLEGAL")
    )
    if args.json:
        payload = {
            "schema": SCHEMA,
            "summary": {**totals, "ok": exit_code == 0},
            "reports": [r.to_dict() for r in reports],
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"JSON diagnostics -> {args.json}")
    return exit_code


DEFAULT_BASELINE_NAME = "lint-baseline.json"


def _default_baseline_path():
    """The checked-in repo baseline when present, else CWD's, else None."""
    from pathlib import Path

    from repro.analyze.source import package_root

    repo_root = package_root().parent.parent
    for candidate in (
        repo_root / DEFAULT_BASELINE_NAME,
        Path.cwd() / DEFAULT_BASELINE_NAME,
    ):
        if candidate.exists():
            return candidate
    return None


def cmd_lint(args) -> int:
    """Source-level determinism & process-safety lint (self-certification)."""
    from repro.analyze.source import (
        DEFAULT_MANIFEST,
        Baseline,
        ZoneManifest,
        lint_package,
        lint_paths,
        source_rules,
    )

    if args.list_rules:
        print_table(
            ["rule", "severity", "zones", "title"],
            [
                [
                    cls.rule_id,
                    cls.default_severity.value,
                    ",".join(cls.zones) or "(all)",
                    cls.title,
                ]
                for cls in source_rules()
            ],
            title="source lint rules",
        )
        return 0

    baseline_path = args.baseline or _default_baseline_path()
    baseline = Baseline.load(baseline_path)
    manifest = None
    if args.zone:
        # Ad-hoc zoning: every linted module additionally carries the
        # requested tags (useful when pointing --paths at loose files).
        manifest = ZoneManifest(
            [*DEFAULT_MANIFEST.assignments, ("*", tuple(args.zone))]
        )
    if args.paths:
        report = lint_paths(args.paths, manifest=manifest, baseline=baseline)
    else:
        report = lint_package(baseline=baseline, manifest=manifest)

    if args.update_baseline:
        target = args.baseline or baseline_path or DEFAULT_BASELINE_NAME
        report.to_baseline().save(target)
        print(
            f"baseline with {len(report.active)} entr(ies) -> {target} "
            "(policy: fix findings instead; keep the checked-in file empty)"
        )
        return 0

    print(report.render_text(verbose=args.verbose))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(report.to_json() + "\n")
        print(f"lint report JSON -> {args.json}")
    return report.exit_code


DEFAULT_CACHE_DIR = ".repro-cache"


def _resolve_cache_dir(args) -> Optional[str]:
    """--cache-dir enables the result cache; --resume implies the default
    location when no directory was given."""
    if getattr(args, "cache_dir", ""):
        return args.cache_dir
    if getattr(args, "resume", False):
        return DEFAULT_CACHE_DIR
    return None


def cmd_run(args) -> int:
    apps = list(args.apps)
    if args.suite:
        apps = list(SUITE_ORDER)
    if not apps:
        print("no applications given (name apps or pass --suite)",
              file=sys.stderr)
        return 2
    config = _config(args)
    cache_dir = _resolve_cache_dir(args)
    fault_plan = _fault_plan(args)
    fault_aware = not getattr(args, "no_fault_aware", False)

    if (len(apps) == 1 and args.workers == 1 and cache_dir is None
            and not args.trace):
        # The classic single-run path, unchanged.
        workload = build_workload(apps[0])
        result = run_workload(
            workload, config, mapping=args.mapping, scale=args.scale,
            analyze_gate=args.gate, fault_plan=fault_plan,
            fault_aware=fault_aware,
        )
        s = result.stats
        print(f"{apps[0]} [{args.mapping}, {args.llc} LLC, "
              f"scale {args.scale}]")
        if fault_plan is not None:
            print(f"  faults:              {fault_plan.describe()} "
                  f"({'aware' if fault_aware else 'oblivious'} mapping)")
        print(f"  execution cycles:    {s.execution_cycles:,}")
        print(f"  avg network latency: {s.avg_network_latency:.1f} "
              "cycles/packet")
        print(f"  avg hops:            {s.avg_hops:.2f}")
        print(f"  L1 hit rate:         {s.l1_hit_rate:.3f}")
        print(f"  LLC miss rate:       {s.llc_miss_rate:.3f}")
        if s.overhead_cycles:
            print(f"  runtime overhead:    {100 * s.overhead_fraction:.2f}%")
        return 0

    # Sweep path: shard the (app x mapping) cells over the executor.
    from repro.exec import run_sweep, sweep_matrix, sweep_table, sweep_tracer

    if args.gate:
        from repro.analyze import gate as analyze_gate

        for app in apps:
            analyze_gate(
                workload=build_workload(app), config=config,
                fault_plan=fault_plan,
            )
    common = {}
    if fault_plan is not None:
        common["faults"] = fault_plan.to_specs()
        common["fault_aware"] = fault_aware
    cells = sweep_matrix(
        apps, config, mappings=(args.mapping,), scales=(args.scale,),
        **common,
    )
    tracer = sweep_tracer(cells) if args.trace else None
    result = run_sweep(
        cells, workers=args.workers, cache_dir=cache_dir, tracer=tracer,
    )
    print(sweep_table(
        result,
        title=(f"sweep [{args.mapping}, {args.llc} LLC, "
               f"scale {args.scale}, workers {args.workers}]"),
    ))
    summary = result.summary()
    print()
    print(f"wall time: {summary['wall_seconds']:.2f}s  "
          f"workers: {summary['workers']}")
    if cache_dir is not None:
        print(f"cache: {summary['cache_hits']} hit(s), "
              f"{summary['cache_misses']} miss(es) "
              f"({100 * summary['cache_hit_rate']:.1f}% hit rate) "
              f"-> {cache_dir}")
    if summary["retries"] or summary["fallbacks"]:
        print(f"recovered: {summary['retries']} retri(es), "
              f"{summary['fallbacks']} in-process fallback(s)")
    if tracer is not None:
        tracer.save(args.trace)
        pids = tracer.worker_pids()
        print(f"trace: {len(tracer.spans)} span(s), "
              f"{len(pids)} worker pid(s) -> {args.trace}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"sweep summary JSON -> {args.json}")
    return 0


def cmd_cache(args) -> int:
    from repro.exec import ResultCache

    cache = ResultCache(args.cache_dir or DEFAULT_CACHE_DIR)
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached entr(ies) from {cache.root}")
        return 0
    stats = cache.stats()
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(stats, handle, indent=2, sort_keys=True)
            handle.write("\n")
    print(f"cache at {stats['root']} (schema v{stats['schema']})")
    print(f"  entries:     {stats['entries']}")
    print(f"  bytes:       {stats['bytes']:,}")
    print(f"  quarantined: {stats['quarantined']}")
    return 0


def cmd_compare(args) -> int:
    workload = build_workload(args.app)
    # Profile the comparison's optimized run so the report says not only
    # what the numbers are but where the wall time producing them went.
    telemetry = Telemetry(events=EventStream(level="off"))
    comparison, base, opt = compare(
        workload, _config(args), optimized=args.mapping, scale=args.scale,
        telemetry=telemetry,
    )
    print_table(
        ["metric", "default", args.mapping],
        [
            ["execution cycles", base.stats.execution_cycles,
             opt.stats.execution_cycles],
            ["avg network latency", base.stats.avg_network_latency,
             opt.stats.avg_network_latency],
            ["avg hops", base.stats.avg_hops, opt.stats.avg_hops],
        ],
        title=f"{args.app} ({args.llc} LLC, scale {args.scale})",
        float_fmt="{:.2f}",
    )
    print(f"network latency reduction: "
          f"{comparison.network_latency_reduction:6.1f}%")
    print(f"execution time reduction:  "
          f"{comparison.execution_time_reduction:6.1f}%")
    print()
    print(render_phase_table(
        telemetry, title=f"phase profile ({args.mapping} run)"
    ))
    print(render_manifest(opt.stats.manifest))
    return 0


def _run_with_telemetry(args, level: str = "off"):
    """Shared profile/heatmap front half: one instrumented run."""
    workload = build_workload(args.app)
    config = _config(args)
    telemetry = Telemetry(events=EventStream(level=level))
    result = run_workload(
        workload, config, mapping=args.mapping, scale=args.scale,
        telemetry=telemetry, fault_plan=_fault_plan(args),
        fault_aware=not getattr(args, "no_fault_aware", False),
    )
    return workload, config, telemetry, result


def _profile_sweep(args) -> int:
    """``profile --workers N``: a traced one-app sweep, incl. worker time.

    The coordinator's own timers cannot see inside pool workers; the
    tracer threads each worker's phase records back through the result
    envelope, and ``SweepResult.merged_phases`` sums them per phase path.
    """
    from repro.exec import run_sweep, sweep_matrix, sweep_tracer

    cells = sweep_matrix(
        [args.app], _config(args), mappings=(args.mapping,),
        scales=(args.scale,),
    )
    tracer = sweep_tracer(cells)
    result = run_sweep(cells, workers=args.workers, tracer=tracer)
    merged = result.merged_phases()
    pids = result.worker_pids()
    if args.json:
        payload = {
            "schema": "repro.profile/1",
            "app": args.app,
            "mapping": args.mapping,
            "llc": args.llc,
            "scale": args.scale,
            "workers": args.workers,
            "trace_id": tracer.context.trace_id,
            "worker_pids": pids,
            "phases": merged,
        }
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
        return 0
    print(f"{args.app} [{args.mapping}, {args.llc} LLC, "
          f"scale {args.scale}, workers {args.workers}]")
    print()
    print_table(
        ["phase (worker-side)", "calls", "seconds"],
        [[path, rec["calls"], rec["seconds"]]
         for path, rec in merged.items()],
        title="merged worker phase profile",
        float_fmt="{:.4f}",
    )
    print(f"\nworker pids: "
          f"{', '.join(str(p) for p in pids) or '(in-process)'}")
    return 0


def cmd_profile(args) -> int:
    if args.workers > 1:
        return _profile_sweep(args)
    _, _, telemetry, result = _run_with_telemetry(args, level=args.level)
    if args.events:
        telemetry.events.save(args.events)
    if args.json:
        snap = telemetry.snapshot()
        payload = {
            "schema": "repro.profile/1",
            "app": args.app,
            "mapping": args.mapping,
            "llc": args.llc,
            "scale": args.scale,
            "workers": 1,
            "counters": snap["counters"],
            "histograms": snap["histograms"],
            "phases": snap["phases"],
            "manifest": result.stats.manifest,
            "stats": {
                "execution_cycles": result.stats.execution_cycles,
                "avg_network_latency": result.stats.avg_network_latency,
                "avg_hops": result.stats.avg_hops,
                "l1_hit_rate": result.stats.l1_hit_rate,
                "llc_miss_rate": result.stats.llc_miss_rate,
            },
        }
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
        return 0
    print(f"{args.app} [{args.mapping}, {args.llc} LLC, scale {args.scale}]")
    print()
    print(render_phase_table(telemetry))
    print()
    print(render_histograms(telemetry))
    print()
    print(render_manifest(result.stats.manifest))
    if args.events:
        print(f"\n{len(telemetry.events.events)} events -> {args.events}")
    return 0


def cmd_trace(args) -> int:
    """One traced sweep exported as Chrome/Perfetto Trace Event JSON."""
    from repro.exec import run_sweep, sweep_matrix, sweep_tracer
    from repro.obs.tracing import validate_trace_events

    apps = list(args.apps)
    if args.suite:
        apps = list(SUITE_ORDER)
    if not apps:
        print("no applications given (name apps or pass --suite)",
              file=sys.stderr)
        return 2
    cells = sweep_matrix(
        apps, _config(args), mappings=(args.mapping,), scales=(args.scale,),
    )
    tracer = sweep_tracer(cells)
    result = run_sweep(
        cells, workers=args.workers, cache_dir=_resolve_cache_dir(args),
        tracer=tracer,
    )
    tracer.save(args.out)
    violations = validate_trace_events(json.loads(tracer.to_trace_json()))
    pids = tracer.worker_pids()
    summary = result.summary()
    print(f"trace id: {tracer.context.trace_id}")
    print(f"  cells:       {len(cells)}")
    print(f"  spans:       {len(tracer.spans)}")
    print(f"  worker pids: {len(pids)}"
          + (f" ({', '.join(str(p) for p in pids)})" if pids else ""))
    print(f"  wall time:   {summary['wall_seconds']:.2f}s")
    print("  schema:      "
          + ("OK" if not violations else "; ".join(violations)))
    print(f"-> {args.out}  (load in chrome://tracing or ui.perfetto.dev)")
    return 0 if not violations else 1


def cmd_metrics(args) -> int:
    """Prometheus-style text exposition of one instrumented run."""
    from repro.obs.metrics import prometheus_text

    _, _, telemetry, _ = _run_with_telemetry(args, level="decisions")
    text = prometheus_text(
        telemetry, labels={"app": args.app, "mapping": args.mapping},
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"metrics -> {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _bench_lint_verdict(path_arg: str):
    """Load a ``repro.lint/1`` artifact for the bench-check verdict line.

    Returns None when no artifact is present (explicit ``--lint-report``
    path missing, or no ``repro_lint.json`` in the CWD).
    """
    from pathlib import Path

    candidate = Path(path_arg) if path_arg else Path("repro_lint.json")
    if not candidate.exists():
        if path_arg:
            print(f"lint report not found: {candidate}", file=sys.stderr)
        return None
    try:
        payload = json.loads(candidate.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        print(f"unreadable lint report: {candidate}", file=sys.stderr)
        return None
    if not isinstance(payload, dict) or payload.get("schema") != "repro.lint/1":
        print(f"not a repro.lint/1 artifact: {candidate}", file=sys.stderr)
        return None
    summary = payload.get("summary") or {}
    return {
        "path": str(candidate),
        "schema": payload["schema"],
        "summary": summary,
    }


def cmd_bench(args) -> int:
    """The perf-regression watch over ``benchmarks/history/*.jsonl``."""
    from repro.obs.bench import check_history, load_history

    history_dir = args.dir or None
    if args.action == "history":
        series = load_history(history_dir)
        if not series:
            print("no recorded bench history (run the perf harnesses: "
                  "python -m pytest benchmarks/)")
            return 0
        rows = []
        for name, entries in sorted(series.items()):
            last = entries[-1]
            metrics = ", ".join(
                f"{metric}={spec['value']:.4g}"
                for metric, spec in sorted((last.get("metrics") or {}).items())
            )
            rows.append([
                name, len(entries), str(last.get("git_sha", "unknown"))[:12],
                metrics or "-",
            ])
        print_table(
            ["series", "entries", "latest sha", "latest metrics"], rows,
            title="bench trajectory",
        )
        if args.json:
            with open(args.json, "w", encoding="utf-8") as handle:
                json.dump(series, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"history JSON -> {args.json}")
        return 0

    report = check_history(history_dir, tolerance=args.tolerance)
    rows = []
    for name, series_report in sorted(report["series"].items()):
        for metric, verdict in sorted(series_report.items()):
            if metric == "entries":
                continue
            rows.append([
                name, metric, verdict["points"],
                verdict["baseline"] if verdict["baseline"] is not None
                else "-",
                verdict["latest"],
                "REGRESSED" if verdict["regressed"] else "ok",
            ])
    if rows:
        print_table(
            ["series", "metric", "points", "baseline", "latest", "verdict"],
            rows,
            title=f"bench check (tolerance {report['tolerance']:.0%})",
            float_fmt="{:.4f}",
        )
    else:
        print("no recorded bench history to check")
    lint = _bench_lint_verdict(getattr(args, "lint_report", ""))
    if lint is not None:
        summary = lint["summary"]
        print(
            f"lint: {'OK' if summary.get('ok') else 'FAIL'} "
            f"({summary.get('active', '?')} active finding(s) over "
            f"{summary.get('files', '?')} file(s), "
            f"artifact {lint['path']})"
        )
        report["lint"] = lint
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"check report JSON -> {args.json}")
    if not report["ok"]:
        for regression in report["regressions"]:
            print(f"REGRESSION: {regression['series']}.{regression['metric']} "
                  f"{regression['baseline']} -> {regression['latest']} "
                  f"({100 * regression['delta_fraction']:+.1f}%)",
                  file=sys.stderr)
        return 1
    return 0


def cmd_heatmap(args) -> int:
    _, config, telemetry, _ = _run_with_telemetry(args)
    mesh = config.build_mesh()
    plan = _fault_plan(args)
    if plan is not None and args.format != "csv":
        print(render_fault_overlay(
            mesh, plan, title=f"{args.app} -- injected faults"
        ))
        print()
    metrics = (
        list(HEATMAP_METRICS) if args.metric == "all" else [args.metric]
    )
    for metric in metrics:
        if args.format == "csv":
            sys.stdout.write(heatmap_csv(telemetry.spatial, mesh, metric))
        else:
            print(render_heatmap(
                telemetry.spatial, mesh, metric,
                region_w=config.region_w, region_h=config.region_h,
                title=(
                    f"{args.app} [{args.mapping}] -- {metric}"
                ),
            ))
            print()
    return 0


def cmd_faults(args) -> int:
    """Fault injection: describe plans, run under faults, A/B mappings."""
    import math

    from repro.analyze import AnalysisError, gate as analyze_gate
    from repro.faults import FaultPlan, FaultPlanError

    config = _config(args)
    try:
        plan = _fault_plan(args)
    except FaultPlanError as exc:
        print(f"invalid fault plan: {exc}", file=sys.stderr)
        return 2

    if args.action == "list":
        if plan is None:
            print("fault spec grammar:")
            print("  link:X1,Y1->X2,Y2:down        directed link dead")
            print("  link:X1,Y1->X2,Y2:throttle=F  link at fraction F "
                  "(0 < F < 1)")
            print("  mc:I:offline                  MC I offline "
                  "(pages re-interleave)")
            print("  mc:I:throttle=F               MC I at fraction F speed")
            print("  bank:B:offline                LLC bank B offline "
                  "(sets re-hash)")
            print("  router:X,Y:hotspot=+Ncyc      router adds N cycles/hop")
            print("\npass one or more --fault specs to render a plan")
            return 0
        print(f"plan hash: {plan.plan_hash()}  ({len(plan)} fault(s))")
        print(render_fault_overlay(
            config.build_mesh(), plan, title="fault plan overlay"
        ))
        return 0

    if plan is None:
        print("no --fault specs given", file=sys.stderr)
        return 2
    apps = list(args.apps)
    if not apps:
        print("no applications given", file=sys.stderr)
        return 2

    # Gate first: FLT001-003 must pass before any machine is built.  This
    # is also the negative-control path CI exercises with illegal plans.
    try:
        analyze_gate(config=config, fault_plan=plan)
    except AnalysisError as exc:
        print(exc.report.render_text())
        print("fault plan rejected by the static analyzer", file=sys.stderr)
        return max(exc.report.exit_code, 1)

    fault_aware = not getattr(args, "no_fault_aware", False)
    if args.action == "inject":
        print(render_fault_overlay(
            config.build_mesh(), plan, title="injected faults"
        ))
        rows = []
        records = []
        for app in apps:
            result = run_workload(
                build_workload(app), config, mapping=args.mapping,
                scale=args.scale, fault_plan=plan, fault_aware=fault_aware,
            )
            s = result.stats
            rows.append([
                app, s.execution_cycles, s.avg_network_latency, s.avg_hops,
            ])
            records.append({
                "app": app,
                "mapping": args.mapping,
                "fault_aware": fault_aware,
                "execution_cycles": s.execution_cycles,
                "avg_network_latency": s.avg_network_latency,
                "avg_hops": s.avg_hops,
            })
        print_table(
            ["app", "cycles", "net latency", "avg hops"], rows,
            title=(f"fault injection [{args.mapping}, "
                   f"{'aware' if fault_aware else 'oblivious'}, "
                   f"plan {plan.plan_hash()}]"),
            float_fmt="{:.2f}",
        )
        if args.json:
            payload = {
                "plan": list(plan.to_specs()),
                "plan_hash": plan.plan_hash(),
                "runs": records,
            }
            with open(args.json, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"JSON diagnostics -> {args.json}")
        return 0

    # compare: fault-aware vs fault-oblivious location-aware mapping on
    # the *same* degraded machine.
    rows = []
    records = []
    ratios = []
    for app in apps:
        workload = build_workload(app)
        aware = run_workload(
            workload, config, mapping="la", scale=args.scale,
            fault_plan=plan, fault_aware=True,
        )
        oblivious = run_workload(
            workload, config, mapping="la", scale=args.scale,
            fault_plan=plan, fault_aware=False,
        )
        a = aware.stats.avg_network_latency
        o = oblivious.stats.avg_network_latency
        ratio = a / o if o else 1.0
        ratios.append(ratio)
        rows.append([app, a, o, ratio])
        records.append({
            "app": app,
            "aware_net_latency": a,
            "oblivious_net_latency": o,
            "ratio": ratio,
        })
    geomean_ratio = math.exp(
        sum(math.log(max(r, 1e-12)) for r in ratios) / len(ratios)
    )
    print_table(
        ["app", "aware", "oblivious", "ratio"], rows,
        title=(f"fault-aware vs oblivious NoC latency "
               f"[plan {plan.plan_hash()}, scale {args.scale}]"),
        float_fmt="{:.3f}",
    )
    ok = geomean_ratio <= 1.0 + 1e-6
    print(f"geomean ratio (aware/oblivious): {geomean_ratio:.4f} -> "
          + ("fault-aware mapping degrades gracefully (<= oblivious)"
             if ok else "fault-aware mapping LOST to oblivious"))
    if args.json:
        payload = {
            "plan": list(plan.to_specs()),
            "plan_hash": plan.plan_hash(),
            "scale": args.scale,
            "apps": records,
            "geomean_ratio": geomean_ratio,
            "fault_aware_wins": ok,
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"JSON diagnostics -> {args.json}")
    return 0 if ok else 1


def cmd_fuzz(args) -> int:
    from repro.fuzz import run_fuzz

    report = run_fuzz(
        seed=args.seed,
        iterations=args.iterations,
        time_budget=args.time_budget,
        shrink_failures=args.shrink,
        corpus_dir=args.corpus_dir or None,
        progress=print,
    )
    divergences = report["divergences"]
    status = "ok" if report["ok"] else f"{len(divergences)} divergence(s)"
    budget = " (time budget exhausted)" if report["budget_exhausted"] else ""
    print(f"fuzz: seed={report['seed']} cases={report['cases_run']}/"
          f"{report['iterations_requested']}{budget} -> {status}")
    for div in divergences:
        shrunk = div.get("shrunk")
        case_id = (shrunk or div)["case_id"]
        detail = (shrunk or div)["detail"]
        print(f"  [{div['check']}] {case_id}: {detail}")
        if "corpus_path" in div:
            print(f"    corpus entry: {div['corpus_path']}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"JSON report -> {args.json}")
    return 0 if report["ok"] else 1


def cmd_figure(args) -> int:
    func = FIGURES.get(args.name)
    if func is None:
        print(f"unknown figure {args.name!r}; one of: "
              f"{', '.join(sorted(FIGURES))}", file=sys.stderr)
        return 2
    kwargs = {}
    apps = _apps(args.apps)
    if apps is not None:
        kwargs["apps"] = apps  # otherwise each figure uses its own default
    if args.name == "fig17":
        kwargs["base_scale"] = args.scale
    else:
        kwargs["scale"] = args.scale
    result = func(**kwargs)
    import pprint

    pprint.pprint(result)
    return 0


def cmd_properties(args) -> int:
    rows = suite_properties()
    print_table(
        ["benchmark", "nests", "arrays", "iteration sets", "regular"],
        [
            [r["benchmark"], r["loop_nests"], r["arrays"],
             r["iteration_sets"], r["regular"]]
            for r in rows
        ],
        title="Table 3: benchmark properties (static columns)",
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the benchmark suite")
    sub.add_parser("properties", help="Table 3 static columns")

    p = sub.add_parser(
        "analyze",
        help="static verification: parallel safety + mapping legality",
    )
    p.add_argument("apps", nargs="*", choices=[[]] + list(SUITE_ORDER),
                   help="benchmarks to analyze (default: the whole suite)")
    p.add_argument("--all", action="store_true", dest="all_apps",
                   help="analyze the whole bundled suite (the default)")
    p.add_argument("--fixture", default="", choices=[""] + fixture_names(),
                   help="also analyze a deliberately-flawed fixture workload")
    p.add_argument("--config-only", action="store_true",
                   help="check only the machine configuration invariants")
    p.add_argument("--llc", default="shared", choices=("shared", "private"))
    p.add_argument("--json", default="",
                   help="write machine-readable diagnostics to this file")
    p.add_argument("--verbose", action="store_true",
                   help="also print info-severity findings (certificates)")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule catalogue and exit")

    for name, help_text in (
        ("run", "simulate one application, or a sharded sweep of many"),
        ("compare", "default vs optimized mapping"),
        ("profile", "phase breakdown, distributions, run manifest"),
        ("heatmap", "spatial traffic heatmaps over the mesh"),
    ):
        p = sub.add_parser(name, help=help_text)
        if name == "run":
            p.add_argument("apps", nargs="*", choices=[[]] + list(SUITE_ORDER),
                           help="applications to run (default: none; "
                                "--suite selects all 21)")
        else:
            p.add_argument("app", choices=SUITE_ORDER)
        p.add_argument("--mapping", default="default" if name == "run" else
                       "la", choices=MAPPINGS)
        p.add_argument("--llc", default="shared",
                       choices=("shared", "private"))
        p.add_argument("--scale", type=float, default=1.0)
        if name == "run":
            p.add_argument("--gate", action="store_true",
                           help="run the static analyzer first; refuse to "
                                "simulate on error findings")
            p.add_argument("--suite", action="store_true",
                           help="run the whole 21-benchmark suite")
            p.add_argument("--workers", type=int, default=1,
                           help="process-pool width for the sweep path "
                                "(default 1 = serial)")
            p.add_argument("--cache-dir", default="",
                           help="memoize completed cells in this "
                                "content-addressed cache directory")
            p.add_argument("--resume", action="store_true",
                           help="reuse completed cells from the cache "
                                f"(default dir: {DEFAULT_CACHE_DIR})")
            p.add_argument("--json", default="",
                           help="write the sweep summary (cache hits, "
                                "wall time) to this JSON file")
            p.add_argument("--trace", nargs="?", const="run.trace.json",
                           default="", metavar="FILE",
                           help="record a span trace of the sweep to this "
                                "Trace Event JSON file (default: "
                                "run.trace.json)")
        if name == "profile":
            p.add_argument("--level", default="decisions", choices=LEVELS,
                           help="event stream verbosity")
            p.add_argument("--events", default="",
                           help="write the event stream to this JSONL file")
            p.add_argument("--json", action="store_true",
                           help="machine-readable profile on stdout "
                                "(stable key order) instead of the tables")
            p.add_argument("--workers", type=int, default=1,
                           help="profile a traced sweep of this app over N "
                                "pool workers (shows worker-side phases)")
        if name == "heatmap":
            p.add_argument("--metric", default="mc",
                           choices=HEATMAP_METRICS + ("all",))
            p.add_argument("--format", default="ascii",
                           choices=("ascii", "csv"))
        if name in ("run", "heatmap"):
            p.add_argument("--fault", action="append", default=[],
                           metavar="SPEC",
                           help="inject a fault (repeatable); see "
                                "'repro faults list' for the grammar")
        if name == "run":
            p.add_argument("--no-fault-aware", action="store_true",
                           help="keep the mapping oblivious to injected "
                                "faults (A/B baseline)")

    p = sub.add_parser(
        "trace",
        help="traced sweep -> merged Chrome/Perfetto Trace Event JSON",
    )
    p.add_argument("apps", nargs="*", choices=[[]] + list(SUITE_ORDER),
                   help="applications to trace (or pass --suite)")
    p.add_argument("--suite", action="store_true",
                   help="trace the whole 21-benchmark suite")
    p.add_argument("--mapping", default="default", choices=MAPPINGS)
    p.add_argument("--llc", default="shared", choices=("shared", "private"))
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--workers", type=int, default=1,
                   help="process-pool width (default 1 = serial)")
    p.add_argument("--cache-dir", default="",
                   help="memoize cells in this cache directory "
                        "(cache hits appear as instant spans)")
    p.add_argument("--resume", action="store_true",
                   help="reuse completed cells from the cache "
                        f"(default dir: {DEFAULT_CACHE_DIR})")
    p.add_argument("--out", default="run.trace.json",
                   help="output Trace Event JSON file "
                        "(default: run.trace.json)")

    p = sub.add_parser(
        "metrics",
        help="Prometheus-style text metrics of one instrumented run",
    )
    p.add_argument("app", choices=SUITE_ORDER)
    p.add_argument("--mapping", default="la", choices=MAPPINGS)
    p.add_argument("--llc", default="shared", choices=("shared", "private"))
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--out", default="",
                   help="write the exposition to this file instead of "
                        "stdout")

    p = sub.add_parser(
        "bench",
        help="perf trajectory: list recorded BENCH points, flag regressions",
    )
    p.add_argument("action", choices=("history", "check"),
                   help="history: list the recorded trajectory; check: "
                        "flag latest-vs-trajectory regressions")
    p.add_argument("--dir", default="",
                   help="history directory (default: benchmarks/history)")
    p.add_argument("--tolerance", type=float, default=0.10,
                   help="noise band for 'check' (default: 0.10 = 10%%)")
    p.add_argument("--json", default="",
                   help="also write the machine-readable report to this "
                        "file")
    p.add_argument("--lint-report", default="",
                   help="repro.lint/1 artifact for 'check' to fold into "
                        "its verdict (default: repro_lint.json in the "
                        "CWD when present)")

    p = sub.add_parser(
        "lint",
        help="source-level determinism & process-safety lint of src/repro",
    )
    p.add_argument("--paths", nargs="+", default=[], metavar="PATH",
                   help="lint these files/directories instead of the "
                        "installed repro package")
    p.add_argument("--zone", action="append", default=[],
                   choices=("id", "serialize", "report", "retry",
                            "dispatch"),
                   help="additionally apply this determinism zone to "
                        "every linted module (repeatable; for --paths "
                        "over loose files)")
    p.add_argument("--baseline", default="",
                   help=f"baseline file (default: {DEFAULT_BASELINE_NAME} "
                        "at the repo root or CWD when present)")
    p.add_argument("--update-baseline", action="store_true",
                   help="grandfather every active finding into the "
                        "baseline file (escape hatch; policy is to fix)")
    p.add_argument("--list-rules", action="store_true",
                   help="show the source-rule catalogue and exit")
    p.add_argument("--verbose", action="store_true",
                   help="also show suppressed and baselined findings")
    p.add_argument("--json", default="",
                   help="write the repro.lint/1 report to this file")

    p = sub.add_parser("cache", help="inspect or clear a sweep result cache")
    p.add_argument("action", choices=("stats", "clear"))
    p.add_argument("--cache-dir", default="",
                   help=f"cache directory (default: {DEFAULT_CACHE_DIR})")
    p.add_argument("--json", default="",
                   help="also write the stats to this JSON file")

    p = sub.add_parser(
        "faults",
        help="fault injection: describe plans, run degraded, A/B mappings",
    )
    p.add_argument("action", choices=("list", "inject", "compare"),
                   help="list: render/validate a plan (or show the "
                        "grammar); inject: simulate apps under the plan; "
                        "compare: fault-aware vs oblivious mapping")
    p.add_argument("apps", nargs="*", choices=[[]] + list(SUITE_ORDER),
                   help="applications (inject/compare)")
    p.add_argument("--fault", action="append", default=[], metavar="SPEC",
                   help="fault spec (repeatable)")
    p.add_argument("--mapping", default="la", choices=MAPPINGS,
                   help="mapping for 'inject' (compare always runs la)")
    p.add_argument("--llc", default="shared", choices=("shared", "private"))
    p.add_argument("--scale", type=float, default=0.2)
    p.add_argument("--no-fault-aware", action="store_true",
                   help="oblivious mapping for 'inject'")
    p.add_argument("--json", default="",
                   help="write per-app diagnostics to this JSON file")

    p = sub.add_parser(
        "fuzz",
        help="differential fuzzing: random configs through the "
             "fast/reference and serial/parallel oracles plus "
             "metamorphic invariants; failures shrink to a corpus",
    )
    p.add_argument("--seed", type=int, default=7,
                   help="master seed; each case derives from (seed, index)")
    p.add_argument("--iterations", type=int, default=25,
                   help="number of cases to generate and check")
    p.add_argument("--time-budget", type=float, default=None, metavar="SEC",
                   help="stop generating new cases after this many seconds "
                        "(the in-flight case always completes)")
    p.add_argument("--shrink", action=argparse.BooleanOptionalAction,
                   default=True,
                   help="minimize failing cases before reporting/filing")
    p.add_argument("--corpus-dir", default="",
                   help="file shrunk divergences as replayable JSON "
                        "entries in this directory")
    p.add_argument("--json", default="",
                   help="write the repro.fuzz/1 report to this file")

    p = sub.add_parser("figure", help="regenerate one figure's data")
    p.add_argument("name", choices=sorted(FIGURES))
    p.add_argument("--apps", default="")
    p.add_argument("--scale", type=float, default=1.0)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "list": cmd_list,
        "analyze": cmd_analyze,
        "lint": cmd_lint,
        "run": cmd_run,
        "trace": cmd_trace,
        "metrics": cmd_metrics,
        "bench": cmd_bench,
        "cache": cmd_cache,
        "compare": cmd_compare,
        "profile": cmd_profile,
        "heatmap": cmd_heatmap,
        "faults": cmd_faults,
        "fuzz": cmd_fuzz,
        "figure": cmd_figure,
        "properties": cmd_properties,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
