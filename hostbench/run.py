#!/usr/bin/env python3
"""Two-clock host benchmark of the GEMM tuner and serving stack.

Every number in ``BENCH_*.json`` is simulated device time from
``repro.perfmodel``.  This benchmark measures the other clock: the host
CPU seconds the Python system spends producing those numbers, end to end
and per layer, with harness work (operand generation and numpy reference
answers) kept out of the system's time and reported on its own.

One measurement::

    python3 hostbench/run.py --workload serve-churn --seed 1 --seconds 20 --trace 0

prints every metric with its unit, then, as its last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
per-layer metrics with ``--trace 1``.  A wrong answer exits with status 1.

Steadiness report, medians and quartiles per set of seeded runs::

    python3 hostbench/run.py --workload tune-sweep --repeat 5 --sets 2

Tests: ``python -m pytest hostbench/tests``.
"""

from __future__ import annotations

import os
import sys

#: BLAS and OpenMP pools would run beside the one timed thread and bill
#: their CPU to it, so they are pinned to one thread before numpy loads.
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("tune-sweep", "serve-churn", "serve-large")

#: Set-ups measured per run: this process plus fresh child processes.
SETUP_SAMPLES = 3
#: Fewest timed rounds in an untraced run, however slow the host.
MIN_ROUNDS = 5

END_TO_END_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "host_s": "s", "work_per_s": "1/s",
}
#: Printed beside the end-to-end metrics where they apply, but not in
#: BENCHMARK.json: a tune has no per-op latency, no op is expected to
#: fail, and the simulated-time guards are deterministic.
EXTRA_UNITS = {
    "op_ms.p50": "ms", "op_ms.p99": "ms", "fail_ratio": "ratio",
    "sim_gflops": "GFlop/s", "sim_p99_ms": "ms",
}
#: Per-layer counters, beside each span's calls and self time.
COUNTER_UNITS = {
    "tuner.candidates": "count",
    "tuner.measured_ratio": "ratio",
    "analyze.gate.rejects": "count",
    "perfmodel.estimate.distinct": "count",
    "serve.degraded": "count",
    "serve.quarantined": "count",
    "serve.canaries_run": "count",
    "serve.breaker_trips": "count",
    "serve.tuned_ratio": "ratio",
    "sched.batches": "count",
    "sched.members_per_batch": "ratio",
    "sched.hard_shed": "count",
    "fleet.scale_events": "count",
    "obs.spans": "count",
    "obs.traces_dropped": "count",
    "harness.operands_s": "s",
    "harness.reference_s": "s",
    "trace.overhead": "ratio",
}


def per_layer_units() -> dict:
    from layers import SPAN_NAMES

    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(COUNTER_UNITS)
    return units


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Two-clock host benchmark of the GEMM tuner and "
                    "serving stack.")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long the measured phase runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced round")
    parser.add_argument("--tiny", action="store_true",
                        help="smallest scale, for the benchmark's own tests")
    parser.add_argument("--repeat", type=int, default=0, metavar="N",
                        help="steadiness report over N seeded runs per set")
    parser.add_argument("--sets", type=int, default=2,
                        help="sets of runs in the steadiness report")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"hostbench: no repro package under {SRC}; run from a full "
              f"checkout of the repository", file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    if args.repeat:
        return steadiness(args)
    return measure(args)


# -- one measurement -----------------------------------------------------
def measure(args) -> int:
    import repro
    import workloads
    from layers import LayerTracer, host_clock

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"hostbench: repro was imported from {repro.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    workload = workloads.make(args.workload, args.seed, args.tiny)
    # Set-up is imports, the first system and one whole warm-up round:
    # it pays lazy builds and fills process-wide memos (static-analysis
    # verdicts), so every timed round runs equally warm.  Harness work
    # in the warm-up round is left out, as in timed rounds.
    warmup = workload.run_round()
    setup_s = host_clock() - warmup.operands_s - warmup.reference_s
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    # Read after one round, so it does not depend on how many rounds
    # the host's speed fits into the run.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    wall0, cpu0 = time.perf_counter(), host_clock()
    rounds = []
    while True:
        began = time.perf_counter()
        rounds.append(workload.run_round())
        now = time.perf_counter()
        # Start another round only when it is projected to end in time.
        if args.trace or (len(rounds) >= MIN_ROUNDS
                          and (now - wall0) + (now - began) > args.seconds):
            break
    cpu_wall = (host_clock() - cpu0) / (time.perf_counter() - wall0)

    problems = []
    if len({r.digest for r in [warmup] + rounds}) > 1:
        problems.append("rounds of one seed produced different outcomes")
    checked = [warmup] + rounds
    setups = [setup_s]
    if args.trace:
        tracer = LayerTracer().install()
        try:
            with tracer.recording():
                traced = workload.run_round(tracer)
        finally:
            tracer.uninstall()
        checked.append(traced)
        if traced.digest != rounds[0].digest:
            problems.append("the traced round's outcome differs from the "
                            "untraced round's")
        units = per_layer_units()
        values = per_layer(units, tracer, traced, rounds[0])
        os.makedirs(OUT, exist_ok=True)
        spans = os.path.join(OUT, f"{args.workload}.spans.json.gz")
        tracer.dump(spans, {"workload": args.workload, "seed": args.seed})
        reference = traced
    else:
        setups += probe_setups(args, SETUP_SAMPLES - 1)
        # Other tenants of a shared host slow single rounds by up to
        # twice; the fastest round is the one they disturbed least.  On
        # a shared 2-core Xeon, five seeded runs per workload spread
        # 2-8% (quartiles over median) by the fastest round and 5-13%
        # by the median round.
        host_s = min(r.host_s for r in rounds)
        units = END_TO_END_UNITS
        values = {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
            "host_s": host_s,
            "work_per_s": rounds[0].work / host_s if host_s > 0 else 0.0,
        }
        reference = rounds[0]

    attempted = sum(r.attempted for r in checked)
    failed = sum(r.failed for r in checked) + len(problems)
    wrong = sum(r.wrong for r in checked) + len(problems)
    extra = {"fail_ratio": failed / attempted if attempted else 1.0}
    extra.update(reference.sim)
    ops = [s for r in rounds for s in r.op_s]
    if workload.per_op_latency and not args.trace:
        extra["op_ms.p50"] = workloads.percentile(ops, 50) * 1e3
        extra["op_ms.p99"] = workloads.percentile(ops, 99) * 1e3
    samples = {
        "rounds": len(rounds),
        "ops_per_round": len(rounds[0].op_s),
        "op_samples": len(ops),
        "beyond_p99": len(ops) - math.ceil(0.99 * len(ops)),
        "round_host_s": [r.host_s for r in rounds],
        "setups_s": setups,
    }
    failures = problems + [f for r in checked for f in r.failures]
    meta = metadata(cpu_wall)
    report(args, values, units, extra, samples, meta, failures)
    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "extra": extra, "samples": samples, "digest": reference.digest,
        "failures": failures[:20], "meta": meta,
    }
    print("details " + json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0 if wrong == 0 else 1


def per_layer(units, tracer, traced, untraced) -> dict:
    values = dict.fromkeys(units, 0)
    for name, (calls, self_s) in tracer.summary().items():
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = self_s
    values.update(traced.counters)
    values.update(tracer.counters())
    values["harness.operands_s"] = traced.operands_s
    values["harness.reference_s"] = traced.reference_s
    values["trace.overhead"] = (traced.host_s / untraced.host_s
                                if untraced.host_s > 0 else 0.0)
    return values


def probe_setups(args, count: int) -> list:
    """Set-up seconds of ``count`` fresh processes."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    if args.tiny:
        cmd.append("--tiny")
    samples = []
    for _ in range(count):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=170, check=True)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def metadata(cpu_wall: float) -> dict:
    """Run metadata: recorded, never gated, never used to normalize."""
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "cpu_wall_ratio": cpu_wall,
        "calibration_s": calibration_s(),
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def calibration_s() -> float:
    """Host seconds of one fixed pure-Python loop."""
    from layers import host_clock

    start = host_clock()
    total = 0
    for i in range(1_000_000):
        total += i * i
    return host_clock() - start


def report(args, values, units, extra, samples, meta, failures) -> None:
    kind = "per-layer" if args.trace else "end-to-end"
    print(f"hostbench {args.workload} seed={args.seed} ({kind}): "
          f"{samples['rounds']} round(s) x {samples['ops_per_round']} ops, "
          f"{samples['op_samples']} op samples")
    for name, value in values.items():
        print(f"  {name:32s} {value:>16.6g} {units[name]}")
    for name, value in extra.items():
        print(f"  {name:32s} {value:>16.6g} {EXTRA_UNITS[name]}")
    print(f"  meta: python {meta['python']}, numpy {meta['numpy']}, "
          f"{meta['cpu_model']}, nproc {meta['nproc']}, cpu/wall "
          f"{meta['cpu_wall_ratio']:.3f}, calibration loop "
          f"{meta['calibration_s']:.4f} s")
    for failure in failures[:10]:
        print(f"  FAILED: {failure}")


# -- the steadiness report -----------------------------------------------
def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def steadiness(args) -> int:
    """Run ``--sets`` sets of ``--repeat`` seeded runs; print each
    metric's median, quartiles and spread per set, the drift between the
    sets' medians, and how many samples stand behind each run."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    ok = True
    sets = []
    for s in range(args.sets):
        values = defaultdict(list)
        samples = []
        for i in range(args.repeat):
            seed = args.seed + s * args.repeat + i
            cmd = [sys.executable, os.path.abspath(__file__), "--workload",
                   args.workload, "--seed", str(seed), "--seconds",
                   str(args.seconds), "--trace", "0"]
            if args.tiny:
                cmd.append("--tiny")
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                ok = False
                print(f"set {s + 1} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr[-2000:]}")
                continue
            result = json.loads(lines[-1])
            details = next(json.loads(line.split(" ", 1)[1])
                           for line in lines if line.startswith("details "))
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
            for name, value in details["extra"].items():
                values[name].append(value)
            samples.append(details["samples"])
            print(f"set {s + 1} seed {seed}: " + "  ".join(
                f"{name}={metric['value']:.6g}"
                for name, metric in result["metrics"].items()), flush=True)
        sets.append((values, samples))

    print(f"\nsteadiness of {args.workload}: {args.sets} set(s) x "
          f"{args.repeat} runs of {args.seconds:g} s")
    for name in list(END_TO_END_UNITS) + list(EXTRA_UNITS):
        cells, medians, spreads = [], [], []
        for values, _ in sets:
            vals = values.get(name)
            if not vals:
                continue
            median = statistics.median(vals)
            q1, q3 = quartiles(vals)
            spread = (q3 - q1) / median if median else 0.0
            medians.append(median)
            spreads.append(spread)
            cells.append(f"{median:.6g} [{q1:.6g}, {q3:.6g}] {spread:.1%}")
        if not cells:
            continue
        line = f"  {name:12s} " + " | ".join(cells)
        if name in bounds:
            bound, better = bounds[name]
            line += (f" | bound {bound:.0%}: spread "
                     f"{'ok' if max(spreads) < bound / 3 else 'WIDE'}")
            if len(medians) > 1 and medians[0]:
                drift = (medians[-1] - medians[0]) / medians[0]
                worse = drift if better == "lower" else -drift
                line += (f", drift {drift:+.1%} "
                         f"{'ok' if worse <= bound else 'WORSE'}")
        print(line)
    runs = [sample for _, set_samples in sets for sample in set_samples]
    if runs:
        print("  samples per run: "
              f"rounds {min(r['rounds'] for r in runs)}-"
              f"{max(r['rounds'] for r in runs)}, "
              f"ops per round {min(r['ops_per_round'] for r in runs)}, "
              f"op samples >= {min(r['op_samples'] for r in runs)}, "
              f"beyond p99 >= {min(r['beyond_p99'] for r in runs)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
