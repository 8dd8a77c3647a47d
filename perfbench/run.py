"""kccstab benchmark: one workload per invocation, single process, one thread.

    python3 perfbench/run.py --workload airfoil_sweep --seed 1 --seconds 20 --trace 0

Generates the workload's inputs from --seed, then runs passes over them
until --seconds have passed (at least one), checking every output against
an independent oracle.  Set-up is timed in fresh interpreters between
passes.
With --trace 1 it then builds the workload's models and runs one more pass
with every public kccstab function wrapped (see tracer.py), reports
per-layer self times and counts, and writes the spans to perfbench/out/.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Exit status: 0 after a run, 2 when the checkout has no kccstab sources.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time

import env

SETUP_SAMPLES = 5

# End-to-end metrics, reported with --trace 0 on every workload.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_per_cal", "ratio"),
)

# Per-layer metrics, reported with --trace 1.  Each layer gives its
# outermost call count and self time; the counters follow.
LAYERS = (
    "models.builtin",
    "models.loads",
    "kcc.invariants",
    "kcc.DeviationSystem.at_point",
    "expr.substitute",
    "expr.canonicalize",
    "expr.compile_callable",
    "expr.compiled",
    "expr.evaluate",
    "expr.p_mul",
    "expr.differentiate",
    "stability.find_fixed_points",
    "stability.Classifier",
    "stability.classify_matrix",
    "stability.airfoil_region_conditions",
    "stability.assemble_semialgebraic",
    "numerics.integrate",
    "numerics.integrate_deviation",
    "numerics.matrix_exp_solution",
    "numerics.perturbation_oracle",
    "numerics.jacobi_focusing",
    "numerics.write_trace_csv",
    "cli.main",
)
CONDITION_MODELS = ("wound_strings", "airfoil", "tractor_seat", "chain1", "chain2")
COUNTERS = (
    ("stability.find_fixed_points.seeds", "count"),
    ("stability.find_fixed_points.found", "count"),
    ("numerics.integrate.steps", "count"),
    ("numerics.write_trace_csv.bytes", "B"),
) + tuple(
    (f"stability.conditions.{stat}.{model}", "count")
    for stat in ("monomials_max", "degree_max")
    for model in CONDITION_MODELS
)
TRACE_FIGURES = (
    ("stability.newton_yield", "ratio"),
    ("trace.spans", "count"),
    ("trace.span_total_s", "s"),
    ("trace.self_sum_s", "s"),
    ("trace.untraced_pass_s", "s"),
    ("trace.traced_pass_s", "s"),
    ("trace.overhead_s", "s"),
)


def per_layer_metrics() -> list[tuple[str, str]]:
    out = []
    for layer in LAYERS:
        out += [(f"{layer}.calls", "count"), (f"{layer}.self_s", "s")]
    return out + list(COUNTERS) + list(TRACE_FIGURES)


def layer_values(tracer, untraced_pass_s: float, traced_pass_s: float) -> tuple[dict, dict]:
    summary = tracer.summary()
    values = {}
    for layer in LAYERS:
        values[f"{layer}.calls"] = summary["calls"].get(layer, 0)
        values[f"{layer}.self_s"] = summary["self_s"].get(layer, 0.0)
    for name, _ in COUNTERS:
        values[name] = tracer.counts.get(name, 0)
    seeds = tracer.counts.get("stability.find_fixed_points.seeds", 0)
    found = tracer.counts.get("stability.find_fixed_points.found", 0)
    values.update({
        "stability.newton_yield": found / seeds if seeds else 0.0,
        "trace.spans": summary["spans"],
        "trace.span_total_s": summary["span_total_ns"] / 1e9,
        "trace.self_sum_s": summary["self_sum_ns"] / 1e9,
        "trace.untraced_pass_s": untraced_pass_s,
        "trace.traced_pass_s": traced_pass_s,
        "trace.overhead_s": traced_pass_s - untraced_pass_s,
    })
    return values, summary


def trace_error(summary: dict) -> str | None:
    """Self times must cover the span total exactly once."""
    if summary["min_self_ns"] < 0 or summary["self_sum_ns"] != summary["span_total_ns"]:
        return (
            f"self times sum to {summary['self_sum_ns']} ns but spans cover "
            f"{summary['span_total_ns']} ns (min self {summary['min_self_ns']} ns)"
        )
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        env.prepare()
    except env.MissingSourceError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (one of {', '.join(workloads.WORKLOADS)})")
    env.OUT.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed)

    # Set-up is measured between passes, so that its samples see the same
    # host conditions as the passes do.
    rec = workloads.Record()
    setup = [workloads.measure_setup(workload.setup_source)]
    deadline = time.perf_counter() + args.seconds
    while not rec.pass_s or time.perf_counter() < deadline:
        rec.run_pass(workload, len(rec.pass_s))
        setup.append(workloads.measure_setup(workload.setup_source))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setup) < SETUP_SAMPLES:
        setup.append(workloads.measure_setup(workload.setup_source))
    workload.finish(rec)

    lines = [f"workload {workload.name}  seed {args.seed}  passes {len(rec.pass_s)}"]
    if args.trace:
        tracer = Tracer()
        traced = workloads.Record()
        with tracer:
            exec(workload.setup_source, {})  # the model builds that setup_s times
            traced_pass_s = traced.run_pass(workload, 0)
        untraced_pass_s = statistics.median(rec.pass_s)
        values, summary = layer_values(tracer, untraced_pass_s, traced_pass_s)
        rec.check(trace_error(summary))
        rec.attempted += traced.attempted
        rec.failures += traced.failures
        tracer.write(env.OUT / f"spans-{workload.name}-{args.seed}.npz")
        units = dict(per_layer_metrics())
    else:
        values = {
            "setup_s": statistics.median(setup) * workloads.REFERENCE_CAL_S / statistics.median(rec.cal_s),
            "peak_rss_mb": peak_rss_mb,
            "pass_per_cal": statistics.median(rec.pass_per_cal),
        }
        units = dict(END_TO_END)
    lines.append(f"  setup wall samples: {', '.join(f'{t:.4f}' for t in setup)}")
    lines.append(f"  pass_s samples: {', '.join(f'{t:.4f}' for t in rec.pass_s)}")
    lines.append(f"  pass_per_cal samples: {', '.join(f'{t:.2f}' for t in rec.pass_per_cal)}")
    lines.append(f"  {'pass_s':<28} {statistics.median(rec.pass_s):>14.6g} {'s':<6} "
                 f"n={len(rec.pass_s)} passes")
    lines.append(f"  {'setup_wall_s':<28} {statistics.median(setup):>14.6g} {'s':<6} "
                 f"n={len(setup)}")
    lines.append(f"  {'calibration_ms':<28} {1e3 * statistics.median(rec.cal_s):>14.6g} {'ms':<6} "
                 f"n={len(rec.cal_s)}")
    for name, value, unit, note in workload.report(rec):
        lines.append(f"  {name:<28} {value:>14.6g} {unit:<6} {note}")
    error_ratio = len(rec.failures) / rec.attempted
    lines.append(f"  {'error_ratio':<28} {error_ratio:>14.6g} {'ratio':<6} "
                 f"{len(rec.failures)} of {rec.attempted} outputs")
    for name, unit in units.items():
        lines.append(f"  {name:<28} {values[name]:>14.6g} {unit}")
    for failure in rec.failures[:20]:
        lines.append(f"  FAILED: {failure}")
    print("\n".join(lines))
    result = {
        "correct": not rec.failures,
        "attempted": rec.attempted,
        "failed": len(rec.failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
