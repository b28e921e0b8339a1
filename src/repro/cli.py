"""Command-line interface: ``repro-gemm`` / ``python -m repro``.

Subcommands
-----------
``info``    — list simulated devices (Table I) or show one device.
``tune``    — run the staged auto-tuner for a device and precision.
``gemm``    — run one GEMM call with the tuned kernel and report rates.
``serve``   — drive the resilient serving layer with a seeded workload.
``soak``    — long chaos soak of the serving layer (ground-truth checked).
``trace``   — render an observability trace as a timeline tree.
``metrics`` — export the metrics registry (Prometheus text or JSON).
``bench``   — regenerate one (or all) paper tables/figures.
``emit``    — print the generated OpenCL C for the tuned kernel.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-gemm",
        description=(
            "Auto-tuned OpenCL GEMM (simulated) — reproduction of "
            "Matsumoto et al., SC Companion 2012."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="list or show simulated devices")
    p_info.add_argument("device", nargs="?", help="codename (omit to list all)")

    p_tune = sub.add_parser("tune", help="run the staged kernel search")
    p_tune.add_argument("device")
    p_tune.add_argument("--precision", choices=["s", "d"], default="d")
    p_tune.add_argument(
        "--budget", default="4000",
        help="stage-1 candidate budget, or 'full' for the whole space",
    )
    p_tune.add_argument("--seed", type=int, default=0)
    p_tune.add_argument("--strategy", default="exhaustive",
                        choices=["exhaustive", "random", "annealing", "pso",
                                 "surrogate"],
                        help="stage-1 search strategy (see "
                             "docs/search_strategies.md)")
    p_tune.add_argument("--transfer", action=argparse.BooleanOptionalAction,
                        default=False,
                        help="warm-start the strategy from tuned winners of "
                             "the nearest catalogued devices "
                             "(--no-transfer disables)")
    p_tune.add_argument("--shape", nargs=3, type=int, metavar=("M", "N", "K"),
                        help="tune for a rectangular target shape")
    p_tune.add_argument("--images", action="store_true",
                        help="restrict the search to image-object kernels")
    p_tune.add_argument("--guarded", action="store_true",
                        help="restrict the search to bounds-checked kernels")
    p_tune.add_argument("--no-refine", action="store_true",
                        help="disable hill climbing (the paper's pure search)")
    p_tune.add_argument("--no-static-gate", action="store_true",
                        help="measure statically rejectable candidates "
                             "anyway (same winner, more evaluations; see "
                             "docs/static_analysis.md)")
    p_tune.add_argument("--save", metavar="DB.json",
                        help="store the winner in a tuned-kernel database")
    p_tune.add_argument("--workers", type=int, default=1, metavar="N",
                        help="evaluate candidates over N parallel workers "
                             "(deterministic: same winner as serial)")
    p_tune.add_argument("--cache", metavar="CACHE.json",
                        help="measurement cache file; warm re-runs perform "
                             "zero re-measurements")
    p_tune.add_argument("--checkpoint", metavar="CKPT.json",
                        help="write periodic search checkpoints to this file")
    p_tune.add_argument("--resume", action="store_true",
                        help="resume from --checkpoint if it matches this search")
    p_tune.add_argument("--inject-faults", metavar="PLAN",
                        help="chaos-test the search under a fault plan: "
                             "'kind:rate[,kind:rate...]' "
                             "(kinds: build launch device_lost timing result "
                             "hang), '@plan.json', or a canned plan name "
                             "such as 'bulldozer-pl-dgemm'")
    p_tune.add_argument("--fault-seed", type=int, default=0,
                        help="seed of the fault plan's decision hash")
    p_tune.add_argument("--max-retries", type=int, default=2, metavar="N",
                        help="retry budget for transient faults per candidate")
    p_tune.add_argument("--measure-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="wall-clock watchdog per measurement "
                             "(kills hung kernels)")
    p_tune.add_argument("--measure-samples", type=int, default=3, metavar="K",
                        help="timing samples per measurement, aggregated "
                             "median-of-k with outlier rejection")
    p_tune.add_argument("--stats-json", metavar="STATS.json",
                        help="dump the search telemetry (incl. fault/retry "
                             "counters) as JSON")
    p_tune.add_argument("--trace-json", metavar="TRACE.json",
                        help="persist the per-stage observability trace "
                             "(render with 'repro trace TRACE.json')")
    p_tune.add_argument("--metrics-json", metavar="METRICS.json",
                        help="persist the metrics-registry snapshot "
                             "(render with 'repro metrics METRICS.json')")

    p_gemm = sub.add_parser("gemm", help="run one GEMM with the tuned kernel")
    p_gemm.add_argument("device")
    p_gemm.add_argument("--precision", choices=["s", "d"], default="d")
    p_gemm.add_argument("--size", type=int, default=1024, help="square M=N=K")
    p_gemm.add_argument("--transa", choices=["N", "T"], default="N")
    p_gemm.add_argument("--transb", choices=["N", "T"], default="N")

    def add_serve_options(p, default_requests: int) -> None:
        p.add_argument("device", nargs="+",
                       help="device codename(s) forming the serving fleet")
        p.add_argument("--precision", choices=["s", "d"], default="d")
        p.add_argument("--requests", type=int, default=default_requests,
                       metavar="N", help="seeded workload size")
        p.add_argument("--seed", type=int, default=0,
                       help="workload + service decision seed")
        p.add_argument("--inject-faults", metavar="PLAN",
                       help="serve under a fault plan (same specs as "
                            "'tune --inject-faults'; try 'serve-chaos')")
        p.add_argument("--fault-seed", type=int, default=0)
        p.add_argument("--verify-rate", type=float, default=1.0,
                       metavar="FRACTION",
                       help="fraction of responses Freivalds-verified")
        p.add_argument("--max-backlog", type=float, default=0.5,
                       metavar="SECONDS",
                       help="admission-control backlog budget "
                            "(simulated seconds of queued work)")
        p.add_argument("--deadline", type=float, default=0.5,
                       metavar="SECONDS",
                       help="per-request deadline; 0 disables")
        p.add_argument("--canary-interval", type=int, default=None,
                       metavar="N",
                       help="known-answer canary cadence for quarantined "
                            "kernels (0 disables; default 50, or 3 with "
                            "--async where ticks advance per batch)")
        p.add_argument("--attempt-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="wall-clock watchdog per ladder-rung attempt")
        p.add_argument("--incident-log", metavar="LOG.json",
                       help="persist the structured incident log")
        p.add_argument("--counters-json", metavar="COUNTERS.json",
                       help="persist the service counters")
        p.add_argument("--report-json", metavar="REPORT.json",
                       help="persist the full soak report")
        p.add_argument("--trace-json", metavar="TRACE.json",
                       help="persist the kept per-request traces "
                            "(render with 'repro trace TRACE.json')")
        p.add_argument("--metrics-json", metavar="METRICS.json",
                       help="persist the metrics-registry snapshot "
                            "(render with 'repro metrics METRICS.json')")
        p.add_argument("--trace-limit", type=int, default=256, metavar="N",
                       help="per-request traces kept in memory (oldest "
                            "dropped first)")
        # -- async multi-tenant mode (repro.serve.sched) ----------------
        p.add_argument("--async", dest="async_mode", action="store_true",
                       help="serve through the async multi-tenant "
                            "scheduler (fair queueing, coalesced "
                            "batching, sharding, graceful drain)")
        p.add_argument("--tenants", type=int, default=None, metavar="N",
                       help="tenant count for the async workload "
                            "(implies --async; default 4)")
        p.add_argument("--interarrival", type=float, default=2.5e-5,
                       metavar="SECONDS",
                       help="mean simulated inter-arrival of the merged "
                            "async workload")
        p.add_argument("--max-batch", type=int, default=24, metavar="N",
                       help="coalescing cap for same-shape small requests")
        p.add_argument("--bench-json", metavar="BENCH.json",
                       help="persist the async serving benchmark "
                            "(BENCH_serving.json payload)")
        p.add_argument("--tenant-latency-json", metavar="FILE.json",
                       help="persist per-tenant latency histograms")
        # -- elastic fleet mode (repro.serve.fleet) ---------------------
        p.add_argument("--fleet", action="store_true",
                       help="serve under the elastic fleet manager: "
                            "health-checked membership, failure "
                            "detection, autoscaling (implies --async)")
        p.add_argument("--fleet-json", metavar="BENCH.json",
                       help="persist the churn-soak report "
                            "(BENCH_fleet.json payload; implies --fleet)")
        p.add_argument("--scale-log", metavar="FILE.json",
                       help="persist the autoscale event log "
                            "(implies --fleet)")
        p.add_argument("--max-devices", type=int, default=6, metavar="N",
                       help="autoscaler fleet ceiling (with --fleet)")
        p.add_argument("--grow-depth", type=float, default=48.0,
                       metavar="REQUESTS",
                       help="queue depth above which the fleet grows")
        p.add_argument("--shrink-depth", type=float, default=16.0,
                       metavar="REQUESTS",
                       help="queue depth below which the fleet shrinks")
        p.add_argument("--scale-interval", type=float, default=0.002,
                       metavar="SECONDS",
                       help="autoscaler evaluation cadence (simulated)")
        p.add_argument("--scale-cooldown", type=float, default=0.02,
                       metavar="SECONDS",
                       help="post-event decision freeze, both directions")
        p.add_argument("--load-cycle", type=float, default=0.25,
                       metavar="SECONDS",
                       help="demand-wave period of the fleet workload: "
                            "the second half of each cycle stretches "
                            "arrival gaps (with --fleet; 0 disables)")
        p.add_argument("--load-calm", type=float, default=4.0,
                       metavar="FACTOR",
                       help="arrival-gap stretch during calm half-cycles "
                            "(with --fleet)")

    p_serve = sub.add_parser(
        "serve", help="run the resilient GEMM serving layer"
    )
    add_serve_options(p_serve, default_requests=100)

    p_soak = sub.add_parser(
        "soak", help="chaos soak: every response checked against ground truth"
    )
    add_serve_options(p_soak, default_requests=1000)

    p_trace = sub.add_parser(
        "trace", help="render an observability trace as a timeline tree"
    )
    p_trace.add_argument(
        "file", nargs="?",
        help="trace file written by --trace-json (omit to trace one demo "
             "request through the serve-chaos plan)",
    )
    p_trace.add_argument("--index", type=int, default=-1,
                         help="which trace in the file (default: last)")
    p_trace.add_argument("--all", action="store_true",
                         help="render every trace in the file")
    p_trace.add_argument("--no-events", action="store_true",
                         help="hide span events (e.g. device_lost)")
    p_trace.add_argument("--seed", type=int, default=0,
                         help="demo request seed (without FILE)")
    p_trace.add_argument("--json", metavar="OUT.json", dest="out_json",
                         help="also persist the rendered trace(s)")

    p_metrics = sub.add_parser(
        "metrics", help="export the metrics registry"
    )
    p_metrics.add_argument(
        "file", nargs="?",
        help="metrics snapshot written by --metrics-json (omit to run a "
             "deterministic demo workload: chaos serving plus a tiny "
             "cached tuner run)",
    )
    p_metrics.add_argument("--format", choices=["prometheus", "json"],
                           default="prometheus")
    p_metrics.add_argument("--seed", type=int, default=0,
                           help="demo workload seed (without FILE)")

    p_bench = sub.add_parser("bench", help="regenerate paper tables/figures")
    p_bench.add_argument("experiment", nargs="?", default="all",
                         help="experiment id or 'all'")
    p_bench.add_argument("--quick", action="store_true",
                         help="reduced tuning budgets")
    p_bench.add_argument("--plot", action="store_true",
                         help="render figures as terminal line plots")

    p_analyze = sub.add_parser(
        "analyze",
        help="explain a tuned kernel and statically verify kernels "
             "(constraints, index bounds, races, source cross-checks)",
    )
    p_analyze.add_argument(
        "device", nargs="?",
        help="codename scoping the device rules (required except with "
             "--catalog, which defaults to every shipped device)",
    )
    p_analyze.add_argument("--precision", choices=["s", "d"], default="d")
    p_analyze.add_argument(
        "--params", metavar="JSON|@FILE",
        help="statically analyze one raw parameter vector (inline JSON "
             "or @file) instead of the pretuned kernel",
    )
    p_analyze.add_argument(
        "--catalog", action="store_true",
        help="statically analyze every shipped pretuned kernel; exits "
             "non-zero unless all are clean (the CI gate)",
    )
    p_analyze.add_argument(
        "--space", action="store_true",
        help="statically analyze a deterministic sample of the device's "
             "search space; exits non-zero on any finding beyond the "
             "device-budget rules",
    )
    p_analyze.add_argument("--sample", type=int, default=500, metavar="N",
                           help="space sample size for --space")
    p_analyze.add_argument("--seed", type=int, default=0,
                           help="space sample seed for --space")
    p_analyze.add_argument(
        "--samples", type=int, default=64, metavar="N",
        help="random samples per source-level bounded-evaluation check",
    )
    p_analyze.add_argument("--json", metavar="OUT.json", dest="out_json",
                           help="persist the diagnostic reports as JSON")
    p_analyze.add_argument("--verbose", action="store_true",
                           help="include passing rules in the report")

    p_report = sub.add_parser(
        "report", help="run all experiments and write a reproduction report"
    )
    p_report.add_argument("--output", default="REPORT.md")
    p_report.add_argument("--quick", action="store_true")
    p_report.add_argument("--plot", action="store_true",
                          help="embed terminal line plots in the report")

    p_emit = sub.add_parser("emit", help="print generated OpenCL C source")
    p_emit.add_argument("device")
    p_emit.add_argument("--precision", choices=["s", "d"], default="d")

    p_spec = sub.add_parser(
        "spec",
        help="model-based differential testing against the executable "
             "OpenCL mini-spec",
    )
    p_spec.add_argument("--enumerate", type=int, default=1000, metavar="N",
                        dest="enumerate_n",
                        help="run the cheapest N enumerated MBT programs "
                             "(default 1000)")
    p_spec.add_argument("--fuzz-corpus", action="store_true",
                        help="also replay the full random fuzz corpus "
                             "through the spec interpreter")
    p_spec.add_argument("--device", default="tahiti",
                        help="simulated device for the clsim leg")
    p_spec.add_argument("--max-ops", type=int, default=50_000_000,
                        help="per-run interpreter operation budget")
    p_spec.add_argument("--json", metavar="OUT.json", dest="out_json",
                        help="write the disagreement/coverage report as JSON")

    p_lint = sub.add_parser(
        "lint",
        help="run the host-layer invariant analyzer over repro's own "
             "Python sources",
    )
    p_lint.add_argument("paths", nargs="*",
                        help="files or directories to lint (default: the "
                             "installed repro package)")
    p_lint.add_argument("--json", metavar="OUT.json", dest="out_json",
                        help="write the machine-readable report as JSON")
    p_lint.add_argument("--rule", action="append", dest="rules",
                        metavar="RULE-ID",
                        help="restrict to this rule id (repeatable)")
    p_lint.add_argument("--baseline", metavar="FILE",
                        help="grandfather-list file (default: "
                             "tools/host-lint-baseline.json when present)")
    p_lint.add_argument("--no-baseline", action="store_true",
                        help="ignore any baseline file")
    p_lint.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    p_lint.add_argument("--verbose", action="store_true",
                        help="also print suppressed findings")
    return parser


def _cmd_info(args) -> int:
    from repro.bench.experiments import table1
    from repro.devices import CATALOG, get_device_spec

    if args.device:
        spec = get_device_spec(args.device)
        print(f"{spec.codename}: {spec.vendor} {spec.product_name}")
        print(f"  type              : {spec.device_type.value}")
        print(f"  clock             : {spec.clock_ghz} GHz x {spec.compute_units} CUs")
        print(f"  peak DP / SP      : {spec.peak_dp_gflops} / {spec.peak_sp_gflops} GFlop/s")
        print(f"  memory bandwidth  : {spec.bandwidth_gbs} GB/s")
        print(f"  local memory      : {spec.local_mem_kb} kB ({spec.local_mem_type.value})")
        print(f"  OpenCL SDK        : {spec.opencl_sdk}")
    else:
        print(table1().render())
        extras = sorted(set(CATALOG) - {"tahiti", "cayman", "kepler", "fermi",
                                        "sandybridge", "bulldozer"})
        print(f"additional devices: {', '.join(extras)}")
    return 0


def _cmd_tune(args) -> int:
    from repro.testing.sanitize import sanitize_from_env

    with sanitize_from_env():
        return _tune_impl(args)


def _tune_impl(args) -> int:
    from repro.clsim.faults import FaultInjector, FaultPlan
    from repro.codegen.space import SpaceRestrictions
    from repro.devices import get_device_spec
    from repro.persist import dump_json_atomic
    from repro.tuner.analysis import render_stats
    from repro.tuner.cache import MeasurementCache
    from repro.tuner.resilience import ResilienceConfig
    from repro.tuner.results import ResultsDatabase
    from repro.tuner.search import SearchEngine, TuningConfig

    budget = None if args.budget == "full" else int(args.budget)
    config = TuningConfig(
        budget=budget,
        seed=args.seed,
        problem_shape=tuple(args.shape) if args.shape else None,
        refine_rounds=0 if args.no_refine else 1,
        strategy=args.strategy,
        transfer=args.transfer,
    )
    restrictions = SpaceRestrictions(
        forced_images=True if args.images else None,
        forced_guarded=True if args.guarded else None,
    )
    cache = MeasurementCache(args.cache) if args.cache else None
    injector = None
    resilience = None
    if args.inject_faults:
        plan = FaultPlan.parse(args.inject_faults, seed=args.fault_seed)
        injector = FaultInjector(plan)
        print(f"fault plan    : {args.inject_faults} "
              f"(seed {plan.seed}, digest {plan.digest()})")
    if injector is not None or args.measure_timeout is not None:
        resilience = ResilienceConfig(
            max_retries=args.max_retries,
            measure_timeout_s=args.measure_timeout,
            samples=args.measure_samples,
        )
    obs = None
    if args.trace_json or args.metrics_json:
        from repro.obs import Observability

        obs = Observability(seed=args.seed)
    engine = SearchEngine(
        args.device, args.precision, config, restrictions,
        cache=cache,
        workers=args.workers,
        checkpoint_path=args.checkpoint,
        resume=args.resume,
        injector=injector,
        resilience=resilience,
        obs=obs,
        static_gate=not args.no_static_gate,
    )
    result = engine.run()
    spec = get_device_spec(args.device)
    print(f"device        : {result.device}")
    print(f"precision     : {result.precision}")
    print(f"best kernel   : {result.best.params.summary()}")
    print(f"best rate     : {result.best_gflops:.1f} GFlop/s "
          f"({result.efficiency(spec) * 100:.0f}% of peak) at N={result.best.size}")
    print(render_stats(result.stats))
    if cache is not None:
        cache.save(args.cache)
        print(f"cache         : {args.cache} ({len(cache)} entries)")
    if args.save:
        db = ResultsDatabase(args.save)
        db.put_result(result)
        db.save()
        print(f"saved         : {args.save}")
    if args.stats_json:
        # CI's chaos job archives these counters as its run artifact.
        payload = result.stats.as_dict()
        if result.stats.strategy_importance:
            # The surrogate's learned importances in the same shape as
            # the one-at-a-time sensitivity report (analysis module).
            from repro.tuner.analysis import surrogate_sensitivities

            payload["strategy_sensitivity"] = [
                {
                    "family": row.family,
                    "loss": row.loss(result.best_gflops),
                    "features": row.variants,
                }
                for row in surrogate_sensitivities(
                    result.stats.strategy_importance, result.best_gflops
                )
            ]
        dump_json_atomic(args.stats_json, payload, indent=2)
        print(f"stats         : {args.stats_json}")
    if obs is not None:
        from repro.obs import save_metrics, save_traces

        if args.trace_json:
            save_traces(args.trace_json, list(obs.traces))
            print(f"trace         : {args.trace_json} "
                  f"({len(obs.traces)} traces)")
        if args.metrics_json:
            save_metrics(args.metrics_json, obs.metrics)
            print(f"metrics       : {args.metrics_json}")
    return 0


def _cmd_gemm(args) -> int:
    from repro.api import tuned_gemm
    from repro.gemm.reference import reference_gemm, relative_error

    routine = tuned_gemm(args.device, args.precision)
    n = args.size
    rng = np.random.default_rng(0)
    shape_a = (n, n)
    a = rng.standard_normal(shape_a).astype(routine.dtype)
    b = rng.standard_normal((n, n)).astype(routine.dtype)
    result = routine(a, b, transa=args.transa, transb=args.transb)
    err = relative_error(
        result.c, reference_gemm(args.transa, args.transb, 1.0, a, b, 0.0)
    )
    print(f"{args.transa}{args.transb} {n}x{n}x{n} on {args.device} "
          f"({'SGEMM' if args.precision == 's' else 'DGEMM'})")
    print(f"  kernel    : {result.kernel_gflops:8.1f} GFlop/s (simulated)")
    print(f"  effective : {result.effective_gflops:8.1f} GFlop/s incl. copies")
    print(f"  max error : {err:.2e} vs numpy reference")
    return 0


def _run_serving(args, check_clean: bool) -> int:
    from repro.clsim.faults import FaultInjector, FaultPlan
    from repro.obs import Observability, save_metrics, save_traces
    from repro.persist import dump_json_atomic
    from repro.serve import GemmService, ServiceConfig, SoakConfig, run_soak

    fleet_mode = bool(args.fleet or args.fleet_json or args.scale_log)
    async_mode = args.async_mode or args.tenants is not None or fleet_mode
    injector = None
    if args.inject_faults:
        plan = FaultPlan.parse(args.inject_faults, seed=args.fault_seed)
        injector = FaultInjector(plan)
        print(f"fault plan    : {args.inject_faults} "
              f"(seed {plan.seed}, digest {plan.digest()})")
    canary_interval = args.canary_interval
    if canary_interval is None:
        # Ticks advance once per dispatch; with coalesced batches a tick
        # covers many requests, so async mode canaries far more often.
        canary_interval = 3 if async_mode else 50
    config = ServiceConfig(
        seed=args.seed,
        max_backlog_s=args.max_backlog,
        # In async mode the scheduler owns deadlines (per tenant or per
        # request); the service-level default would double-count them.
        default_deadline_s=(None if async_mode
                            else args.deadline if args.deadline > 0
                            else None),
        verify_rate=args.verify_rate,
        canary_interval=canary_interval,
        canary_passes=1 if async_mode else 2,
        attempt_timeout_s=args.attempt_timeout,
    )
    obs = Observability(seed=args.seed, trace_limit=max(1, args.trace_limit))
    service = GemmService(
        args.device, args.precision, config=config, fault_injector=injector,
        obs=obs,
    )
    print(service.ladder.describe())
    if async_mode:
        report = _run_async_soak(args, service, fleet_mode)
    else:
        report = run_soak(
            service, SoakConfig(requests=args.requests, seed=args.seed)
        )
    print(report.render())
    print(service.counters.render())
    if args.incident_log:
        service.log.save(args.incident_log)
        print(f"incident log  : {args.incident_log} ({len(service.log)} incidents)")
    if args.counters_json:
        dump_json_atomic(args.counters_json, service.counters.as_dict(), indent=2)
        print(f"counters      : {args.counters_json}")
    if args.report_json:
        report.save(args.report_json)
        print(f"report        : {args.report_json}")
    if args.bench_json and hasattr(report, "aggregate_gflops"):
        report.save(args.bench_json)
        print(f"bench         : {args.bench_json}")
    if args.fleet_json and hasattr(report, "episodes"):
        report.save(args.fleet_json)
        print(f"fleet bench   : {args.fleet_json}")
    if args.scale_log and hasattr(report, "scale_events"):
        dump_json_atomic(args.scale_log, {
            "format": "repro-fleet-scale-log/1",
            "cooldown_s": report.cooldown_s,
            "events": report.scale_events,
            "flap_pairs": report.flap_pairs,
        }, indent=2)
        print(f"scale log     : {args.scale_log} "
              f"({len(report.scale_events)} events)")
    if args.tenant_latency_json and hasattr(report, "per_tenant"):
        dump_json_atomic(
            args.tenant_latency_json,
            {
                "format": "repro-tenant-latency/1",
                "tenants": {
                    name: {
                        "p50_ms": t["p50_ms"],
                        "p99_ms": t["p99_ms"],
                        "max_wait_ms": t["max_wait_ms"],
                        "latency_hist_ms": t["latency_hist_ms"],
                    }
                    for name, t in report.per_tenant.items()
                },
            },
            indent=2,
        )
        print(f"tenant latency: {args.tenant_latency_json}")
    if args.trace_json:
        save_traces(args.trace_json, list(obs.traces))
        print(f"trace         : {args.trace_json} ({len(obs.traces)} traces "
              f"kept, {obs.tracer.dropped} dropped)")
    if args.metrics_json:
        save_metrics(args.metrics_json, obs.metrics)
        print(f"metrics       : {args.metrics_json}")
    if check_clean and not report.clean:
        reasons = [f"{report.wrong_answers} numerically incorrect "
                   f"responses escaped the serving layer"]
        if getattr(report, "starved_tenants", None):
            reasons.append(
                f"starved tenants: {', '.join(report.starved_tenants)}"
            )
        print("FAILED: " + "; ".join(reasons))
        return 1
    return 0


def _run_async_soak(args, service, fleet_mode: bool = False):
    """The --async workload: N tenants over the default load mix."""
    from dataclasses import replace

    from repro.serve import AsyncSoakConfig, DEFAULT_TENANT_LOADS, run_async_soak

    count = args.tenants if args.tenants is not None else 4
    if count < 1:
        raise SystemExit("--tenants must be >= 1")
    # Cycle the canonical four-load mix, suffixing extra generations so
    # any tenant count keeps distinct names and deterministic streams.
    loads = tuple(
        base if i < len(DEFAULT_TENANT_LOADS)
        else replace(base, name=f"{base.name}{i // len(DEFAULT_TENANT_LOADS)}")
        for i, base in (
            (j, DEFAULT_TENANT_LOADS[j % len(DEFAULT_TENANT_LOADS)])
            for j in range(count)
        )
    )
    config = AsyncSoakConfig(
        requests=args.requests,
        seed=args.seed,
        tenants=loads,
        interarrival_s=args.interarrival,
        max_batch=args.max_batch,
        # The fleet manager suspends/resumes devices itself; a scheduled
        # hot swap against a parked device would test the collision.
        hot_swap_at=0.0 if fleet_mode else AsyncSoakConfig.hot_swap_at,
        # Only the churn soak cycles demand: a flat overload leaves the
        # autoscaler nothing to track but a single grow-to-max ramp.
        load_cycle_s=args.load_cycle if fleet_mode else 0.0,
        load_calm_factor=args.load_calm if fleet_mode else 1.0,
    )
    if fleet_mode:
        from repro.serve import (
            AutoscaleConfig,
            FleetConfig,
            FleetSoakConfig,
            run_fleet_soak,
        )

        fleet = FleetConfig(autoscale=AutoscaleConfig(
            max_devices=args.max_devices,
            grow_queue_depth=args.grow_depth,
            shrink_queue_depth=args.shrink_depth,
            eval_interval_s=args.scale_interval,
            cooldown_s=args.scale_cooldown,
        ))
        return run_fleet_soak(
            service, FleetSoakConfig(soak=config, fleet=fleet)
        )
    return run_async_soak(service, config)


def _cmd_serve(args) -> int:
    from repro.testing.sanitize import sanitize_from_env

    with sanitize_from_env():
        return _run_serving(args, check_clean=False)


def _cmd_soak(args) -> int:
    from repro.testing.sanitize import sanitize_from_env

    with sanitize_from_env():
        return _run_serving(args, check_clean=True)


def _demo_observability(seed: int, requests: int = 0):
    """A deterministic telemetry demo: chaos-served requests on tahiti.

    With ``requests == 0`` a single request is served (the ``repro
    trace`` demo); otherwise a seeded soak workload runs (the ``repro
    metrics`` demo needs enough traffic to populate the fallback
    series).
    """
    from repro.clsim.faults import FaultInjector, FaultPlan
    from repro.obs import Observability
    from repro.serve import GemmService, ServiceConfig, SoakConfig, run_soak

    obs = Observability(seed=seed, trace_limit=64)
    plan = FaultPlan.parse("serve-chaos", seed=seed)
    service = GemmService(
        "tahiti", "d", config=ServiceConfig(seed=seed),
        fault_injector=FaultInjector(plan), obs=obs,
    )
    if requests:
        run_soak(service, SoakConfig(requests=requests, seed=seed))
    else:
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((64, 64))
        b = rng.standard_normal((64, 64))
        service.submit(a, b)
    return obs


def _cmd_trace(args) -> int:
    from repro.obs import load_traces, render_trace, save_traces

    if args.file:
        traces = load_traces(args.file)
        if traces is None:
            print(f"error: {args.file} is not a readable trace file",
                  file=sys.stderr)
            return 1
        if not traces:
            print(f"error: {args.file} holds no traces", file=sys.stderr)
            return 1
        shown = traces if args.all else [traces[args.index]]
    else:
        print("no trace file given; tracing one request through the "
              "serve-chaos plan\n")
        traces = list(_demo_observability(args.seed).traces)
        shown = traces
    for i, trace in enumerate(shown):
        if i:
            print()
        print(render_trace(trace, show_events=not args.no_events))
    if args.out_json:
        save_traces(args.out_json, traces)
        print(f"\nsaved {len(traces)} trace(s) to {args.out_json}")
    return 0


def _cmd_metrics(args) -> int:
    from repro.obs import load_metrics, render_prometheus

    if args.file:
        snapshot = load_metrics(args.file)
        if snapshot is None:
            print(f"error: {args.file} is not a readable metrics snapshot",
                  file=sys.stderr)
            return 1
    else:
        print("no snapshot given; running the demo workload "
              "(chaos serving + a tiny cached tuner run)\n", file=sys.stderr)
        from repro.tuner.cache import MeasurementCache
        from repro.tuner.search import SearchEngine, TuningConfig

        obs = _demo_observability(args.seed, requests=160)
        cache = MeasurementCache()
        for _ in range(2):  # the second, cache-warm run produces the hits
            SearchEngine(
                "tahiti", "d", TuningConfig(budget=48, seed=args.seed),
                cache=cache, obs=obs,
            ).run()
        snapshot = obs.metrics.snapshot()
    if args.format == "json":
        import json

        print(json.dumps(snapshot, indent=2, sort_keys=True))
    else:
        print(render_prometheus(snapshot), end="")
    return 0


def _cmd_bench(args) -> int:
    from repro.bench import EXPERIMENTS, run_experiment
    from repro.bench.figures import ascii_plot

    ids = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for eid in ids:
        result = run_experiment(eid, quick=args.quick)
        print(result.render())
        if args.plot:
            for series, title in zip(result.figures, result.figure_titles):
                print(ascii_plot(series, title=title))
                print()
    return 0


def _finish_analyze(reports, args) -> int:
    """Render static-analysis reports, persist --json, set the exit code."""
    from repro.analyze import render_reports, reports_to_json
    from repro.persist import atomic_write

    print(render_reports(reports, verbose=args.verbose))
    if args.out_json:
        atomic_write(args.out_json, reports_to_json(reports))
        print(f"report        : {args.out_json}")
    return 0 if all(r.ok for r in reports) else 1


def _cmd_analyze(args) -> int:
    from repro.analyze import analyze_catalog, analyze_params, analyze_space_sample

    if args.catalog:
        reports = analyze_catalog(device=args.device, samples=args.samples)
        if not reports:
            print(f"error: no pretuned kernels for device {args.device!r}",
                  file=sys.stderr)
            return 1
        return _finish_analyze(reports, args)
    if args.device is None and not args.params:
        # --params alone is fine: the structural rules are
        # device-neutral, so a vector can be analyzed with no device.
        print("error: a device codename is required except with "
              "--catalog or --params", file=sys.stderr)
        return 2
    if args.space:
        reports = analyze_space_sample(
            args.device, args.precision,
            sample=args.sample, seed=args.seed, samples=args.samples,
        )
        return _finish_analyze(reports, args)
    if args.params:
        import json

        if args.params.startswith("@"):
            with open(args.params[1:], encoding="utf-8") as fh:
                raw = json.load(fh)
        else:
            raw = json.loads(args.params)
        if not isinstance(raw, dict):
            print("error: --params must be a JSON object of KernelParams fields",
                  file=sys.stderr)
            return 2
        report = analyze_params(raw, device=args.device, samples=args.samples)
        return _finish_analyze([report], args)

    from repro.perfmodel.roofline import roofline_point
    from repro.tuner.analysis import analyze_kernel
    from repro.tuner.pretuned import pretuned_params

    params = pretuned_params(args.device, args.precision)
    analysis = analyze_kernel(args.device, params)
    print(analysis.render())
    print()
    n = analysis.size
    print(roofline_point(args.device, params, n, n, n).render())
    print()
    report = analyze_params(params, device=args.device, samples=args.samples)
    return _finish_analyze([report], args)


def _cmd_report(args) -> int:
    from repro.bench.report import generate_report

    generate_report(args.output, quick=args.quick, plots=args.plot)
    print(f"wrote {args.output}")
    return 0


def _cmd_emit(args) -> int:
    from repro.codegen.emitter import emit_kernel_source
    from repro.tuner.pretuned import pretuned_params

    params = pretuned_params(args.device, args.precision)
    print(emit_kernel_source(params))
    return 0


def _cmd_spec(args) -> int:
    from repro.persist import dump_json_atomic
    from repro.spec.corpus import as_spec_programs, fuzz_cases
    from repro.spec.differential import run_differential
    from repro.spec.enumerate import enumerate_programs

    programs = list(enumerate_programs(limit=args.enumerate_n))
    print(f"enumerated MBT programs : {len(programs)}")
    if args.fuzz_corpus:
        cases = fuzz_cases()
        programs += list(as_spec_programs(cases))
        print(f"fuzz corpus replays     : {len(cases)}")

    done = {"n": 0}

    def progress(record) -> None:
        done["n"] += 1
        if record.is_disagreement:
            print(f"  [{record.origin}:{record.index}] "
                  f"{record.classification}: {record.description}")
        if done["n"] % 200 == 0:
            print(f"  ... {done['n']}/{len(programs)} programs classified")

    report = run_differential(
        programs, device=args.device, max_ops=args.max_ops,
        progress=progress,
    )
    print(f"classified              : {report.by_class()}")
    disagreements = report.disagreements()
    if args.fuzz_corpus:
        card = report.coverage_scorecard()
        print(f"constructs MBT-only     : {len(card['mbt_only'])} "
              f"{card['mbt_only'][:8]}")
        print(f"constructs fuzz-only    : {len(card['fuzz_only'])} "
              f"{card['fuzz_only'][:8]}")
        print(f"constructs shared       : {len(card['both'])}")
    if args.out_json:
        dump_json_atomic(args.out_json, report.to_dict(), indent=2)
        print(f"report                  : {args.out_json}")
    if disagreements:
        print(f"DISAGREEMENTS           : {len(disagreements)}")
        return 1
    print("all programs agree across spec / clsim / numpy / analyzer")
    return 0


def _cmd_lint(args) -> int:
    import os

    from repro.analyze.host import (
        DEFAULT_BASELINE_PATH,
        Baseline,
        lint_paths,
        lint_tree,
        rule_catalog,
    )
    from repro.persist import atomic_write

    if args.list_rules:
        for rule_id, description in rule_catalog():
            print(f"{rule_id:24s} {description}")
        return 0
    baseline = None
    if not args.no_baseline:
        path = args.baseline or (
            DEFAULT_BASELINE_PATH
            if os.path.exists(DEFAULT_BASELINE_PATH) else None
        )
        if path:
            baseline = Baseline.load(path)
    if args.paths:
        result = lint_paths(args.paths, baseline=baseline,
                            only_rules=args.rules)
    else:
        result = lint_tree(baseline=baseline, only_rules=args.rules)
    if args.out_json:
        atomic_write(args.out_json, result.to_json())
        print(f"report: {args.out_json}")
    print(result.render(verbose=args.verbose))
    return 0 if result.ok else 1


_COMMANDS = {
    "info": _cmd_info,
    "tune": _cmd_tune,
    "gemm": _cmd_gemm,
    "serve": _cmd_serve,
    "soak": _cmd_soak,
    "trace": _cmd_trace,
    "metrics": _cmd_metrics,
    "bench": _cmd_bench,
    "analyze": _cmd_analyze,
    "report": _cmd_report,
    "emit": _cmd_emit,
    "spec": _cmd_spec,
    "lint": _cmd_lint,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
