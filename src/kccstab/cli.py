"""Command-line interface for Jacobi stability analysis.

Subcommands
-----------
invariants    print the curvature invariants of a model symbolically
deviation     print the linearized deviation system (optionally at a point)
fixed-points  locate fixed points inside a search box
classify      locate and classify fixed points; report the stable count
conditions    print exact semialgebraic stability conditions in the parameters
simulate      integrate trajectories and deviation flows, write CSV files
focusing      focusing/dispersing verdict at a fixed point
region        parameter-region report for the airfoil model

Exit codes: 0 success, 1 usage error, 2 model error, 3 indeterminate verdict.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

import numpy as np

from .expr import ExprError
from .kcc import ModelError, invariants, kcc_deviation
from .models import BUILTIN_NAMES, builtin, load, parse_rational
from .numerics import (
    IntegrationError,
    focusing_profile,
    integrate,
    integrate_deviation,
    jacobi_focusing,
    write_profile_csv,
    write_trace_csv,
)
from .stability import (
    DEFAULT_TOL,
    INDETERMINATE,
    STABLE,
    airfoil_region_conditions,
    assemble_semialgebraic,
    classify_all,
    Classifier,
    find_fixed_points,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MODEL = 2
EXIT_INDETERMINATE = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1.

    Values like "-4:4" or "-2,1" must parse as option values, so anything
    starting with a minus and a digit (or decimal point) is treated as a
    value rather than a flag; no flag here looks like a number.
    """

    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        self._negative_number_matcher = re.compile(r"^-[\d.]")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# argument helpers


def _load_model(spec: str):
    if spec in BUILTIN_NAMES:
        return builtin(spec)
    if os.path.exists(spec):
        return load(spec)
    raise ModelError(
        f"unknown model {spec!r}: not one of {', '.join(BUILTIN_NAMES)} "
        "and not a model file"
    )


def _parse_params(text: str | None) -> dict[str, Fraction]:
    if not text:
        return {}
    out: dict[str, Fraction] = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise UsageError(f"bad --params entry {item!r}: expected name=value")
        name, _, val = item.partition("=")
        try:
            out[name.strip()] = parse_rational(val.strip())
        except (ValueError, ModelError):
            raise UsageError(f"bad --params value {val!r} for {name.strip()!r}")
    return out


def _parse_box(text: str | None):
    if not text:
        return None
    axes = []
    for seg in text.split(","):
        lo, sep, hi = seg.partition(":")
        if not sep:
            raise UsageError(f"bad --box segment {seg!r}: expected lo:hi")
        try:
            axes.append((float(lo), float(hi)))
        except ValueError:
            raise UsageError(f"bad --box segment {seg!r}: expected numbers")
    return axes[0] if len(axes) == 1 else axes


def _parse_vector(text: str, flag: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise UsageError(f"bad {flag} value {text!r}: expected comma-separated numbers")


def _check_seeds(seeds: int) -> int:
    if seeds < 2:
        raise UsageError(f"--seeds must be at least 2 per axis, got {seeds}")
    return seeds


def _write_or_print(args, text: str):
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _emit(args, text_lines, json_obj, csv_rows=None):
    if args.format == "json":
        _write_or_print(args, json.dumps(json_obj, indent=2))
    elif args.format == "csv":
        if csv_rows is None:
            raise UsageError("csv format is not supported for this command")
        lines = [",".join(str(c) for c in row) for row in csv_rows]
        _write_or_print(args, "\n".join(lines))
    else:
        _write_or_print(args, "\n".join(text_lines))


def _g(x: float) -> str:
    x = float(x)
    if abs(x) < 1e-14:
        x = 0.0
    return format(x, ".12g")


def _g17(x: float) -> str:
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# subcommands


def _matrix_strings(M) -> list[list[str]]:
    return [[str(e) for e in row] for row in M]


def cmd_invariants(args) -> int:
    model = _load_model(args.model)
    inv = invariants(model)
    n = model.n
    lines = [f"model: {model.name} (n = {n})"]
    for i in range(n):
        lines.append(f"epsilon[{i + 1}] = {inv.epsilon[i]}")
    for i in range(n):
        for j in range(n):
            lines.append(f"N[{i + 1}][{j + 1}] = {inv.N[i][j]}")
    for i in range(n):
        for j in range(n):
            lines.append(f"P[{i + 1}][{j + 1}] = {inv.P[i][j]}")
    obj = {
        "model": model.name,
        "n": n,
        "epsilon": [str(e) for e in inv.epsilon],
        "N": _matrix_strings(inv.N),
        "P": _matrix_strings(inv.P),
    }
    if args.all:
        tor, rie, dou = inv.torsion, inv.riemann, inv.douglas
        ber = inv.berwald
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    lines.append(f"G[{i + 1}][{j + 1}][{k + 1}] = {ber[i][j][k]}")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    lines.append(f"torsion[{i + 1}][{j + 1}][{k + 1}] = {tor[i][j][k]}")
        obj["berwald"] = [[[str(e) for e in r] for r in m] for m in ber]
        obj["torsion"] = [[[str(e) for e in r] for r in m] for m in tor]
        obj["riemann"] = [
            [[[str(e) for e in r] for r in m] for m in b] for b in rie
        ]
        obj["douglas"] = [
            [[[str(e) for e in r] for r in m] for m in b] for b in dou
        ]
    _emit(args, lines, obj)
    return EXIT_OK


def cmd_deviation(args) -> int:
    model = _load_model(args.model)
    dev = kcc_deviation(model)
    lines = list(dev.equations())
    n = model.n
    for i in range(n):
        for j in range(n):
            lines.append(f"A21[{i + 1}][{j + 1}] = {dev.A21[i][j]}")
    for i in range(n):
        for j in range(n):
            lines.append(f"A22[{i + 1}][{j + 1}] = {dev.A22[i][j]}")
    obj = {
        "model": model.name,
        "equations": list(dev.equations()),
        "A21": _matrix_strings(dev.A21),
        "A22": _matrix_strings(dev.A22),
    }
    params = _parse_params(args.params)
    if args.point:
        point = _parse_vector(args.point, "--point")
        a21, a22 = dev.at_point(params, point)
        lines.append(f"at point ({', '.join(_g(c) for c in point)}):")
        lines.append("A21 = " + np.array_str(np.asarray(a21), precision=12))
        lines.append("A22 = " + np.array_str(np.asarray(a22), precision=12))
        obj["point"] = point
        obj["A21_at_point"] = [[float(v) for v in row] for row in np.asarray(a21)]
        obj["A22_at_point"] = [[float(v) for v in row] for row in np.asarray(a22)]
    _emit(args, lines, obj)
    return EXIT_OK


def cmd_fixed_points(args) -> int:
    model = _load_model(args.model)
    params = _parse_params(args.params)
    fps = find_fixed_points(
        model, params, box=_parse_box(args.box), seeds=_check_seeds(args.seeds)
    )
    lines = [f"{len(fps)} fixed point(s) found"]
    rows = [["#"] + list(model.xs) + ["residual", "denom_margin"]]
    for k, fp in enumerate(fps, 1):
        coord = ", ".join(_g(c) for c in fp.point)
        lines.append(
            f"  x = ({coord})   residual = {fp.residual:.3e}"
            f"   denom_margin = {fp.denom_margin:.3e}"
        )
        rows.append(
            [k, *(_g17(c) for c in fp.point), _g17(fp.residual), _g17(fp.denom_margin)]
        )
    obj = {
        "model": model.name,
        "count": len(fps),
        "fixed_points": [
            {
                "point": [float(c) for c in fp.point],
                "residual": fp.residual,
                "denom_margin": fp.denom_margin,
            }
            for fp in fps
        ],
    }
    _emit(args, lines, obj, rows)
    return EXIT_OK


def _region_line(model, params):
    """Airfoil parameter-region report when exact parameters are available."""
    if model.name != "airfoil":
        return None
    try:
        rep = airfoil_region_conditions(params["Minf"], params["V"])
    except (KeyError, TypeError, ValueError):
        return None
    return rep


def cmd_classify(args) -> int:
    model = _load_model(args.model)
    params = _parse_params(args.params)
    seeds = _check_seeds(args.seeds)
    tol = args.tol
    lines = []
    rows = [["#"] + list(model.xs) + ["verdict"]]
    entries = []
    if args.point:
        point = tuple(_parse_vector(args.point, "--point"))
        reports = [Classifier(model, params).classify(point, tol)]
        lines.append("classifying 1 supplied point")
    else:
        pairs = classify_all(
            model, params, box=_parse_box(args.box), seeds=seeds, tol=tol
        )
        reports = [rep for _, rep in pairs]
        lines.append(f"{len(reports)} fixed point(s) found")
    stable = 0
    indeterminate = False
    for k, rep in enumerate(reports, 1):
        coord = ", ".join(_g(c) for c in rep.point)
        lines.append(f"  x = ({coord})   {rep.verdict}")
        rows.append([k, *(_g17(c) for c in rep.point), rep.verdict])
        entries.append(
            {"point": [float(c) for c in rep.point], "verdict": rep.verdict}
        )
        if rep.verdict == STABLE:
            stable += 1
        if rep.verdict == INDETERMINATE:
            indeterminate = True
    lines.append(f"stable count: k = {stable}")
    obj = {
        "model": model.name,
        "reports": entries,
        "stable_count": stable,
    }
    region = _region_line(model, params)
    if region is not None:
        lines.append(
            f"parameter region: {region.label}"
            + (" (boundary)" if region.boundary else "")
            + f", predicted stable count {region.stable_count}"
        )
        obj["region"] = {
            "label": region.label,
            "stable_count": region.stable_count,
            "boundary": region.boundary,
        }
    _emit(args, lines, obj, rows)
    return EXIT_INDETERMINATE if indeterminate else EXIT_OK


def cmd_conditions(args) -> int:
    model = _load_model(args.model)
    params = _parse_params(args.params)
    sys_ = assemble_semialgebraic(model, params, budget=args.budget)
    lines = [f"variables: {', '.join(sys_.vars)}"]
    lines.extend(sys_.render())
    obj = {"vars": list(sys_.vars), "conditions": sys_.render()}
    _emit(args, lines, obj)
    return EXIT_OK


def cmd_simulate(args) -> int:
    model = _load_model(args.model)
    params = _parse_params(args.params)
    n = model.n
    x0 = _parse_vector(args.x0, "--x0")
    y0 = _parse_vector(args.y0, "--y0") if args.y0 else [0.0] * n
    if len(x0) != n or len(y0) != n:
        raise UsageError(f"--x0/--y0 must have {n} components")
    if not (args.dt > 0 and args.t_end > 0):  # also rejects nan
        raise UsageError("--dt and --t-end must be positive")
    if args.dt > args.t_end:
        raise UsageError("--dt must not exceed --t-end")
    if args.t_probe <= 0:
        raise UsageError("--t-probe must be positive")
    outdir = args.out or "."
    os.makedirs(outdir, exist_ok=True)
    trace = integrate(model, params, (x0, y0), args.t_end, args.dt)
    traj_path = os.path.join(outdir, "trajectory.csv")
    write_trace_csv(trace, traj_path)
    lines = [f"trajectory: {len(trace)} samples -> {traj_path}"]
    verdict = None
    if args.w:
        W = _parse_vector(args.w, "--w")
        if len(W) != n:
            raise UsageError(f"--w must have {n} components")
        dev = integrate_deviation(model, params, x0, W, args.t_end, args.dt)
        dev_path = os.path.join(outdir, "deviation.csv")
        write_trace_csv(dev, dev_path)
        prof = focusing_profile(dev, W, args.t_probe)
        prof_path = os.path.join(outdir, "focusing.csv")
        write_profile_csv(prof, prof_path)
        verdict = prof.verdict
        lines.append(f"deviation:  {len(dev)} samples -> {dev_path}")
        lines.append(f"focusing:   {len(prof.times)} samples -> {prof_path}")
        lines.append(f"focusing verdict: {verdict}")
    print("\n".join(lines))
    return EXIT_OK


def cmd_focusing(args) -> int:
    model = _load_model(args.model)
    params = _parse_params(args.params)
    point = _parse_vector(args.point, "--point")
    W = _parse_vector(args.w, "--w") if args.w else None
    if args.t_probe <= 0 or args.samples < 3:
        raise UsageError("--t-probe must be positive and --samples at least 3")
    prof = jacobi_focusing(
        model, params, point, W, t_probe=args.t_probe, samples=args.samples
    )
    below = int(np.sum(prof.norm_sq < prof.t_sq))
    above = int(np.sum(prof.norm_sq > prof.t_sq))
    lines = [
        f"focusing verdict: {prof.verdict}",
        f"deviation direction W = ({', '.join(_g(c) for c in prof.w_used)})",
        f"samples below t^2: {below}, above: {above} (of {len(prof.times)})",
    ]
    obj = {
        "verdict": prof.verdict,
        "w": [float(c) for c in prof.w_used],
        "below": below,
        "above": above,
        "samples": len(prof.times),
    }
    rows = [["t", "norm_sq", "t_sq"]] + [
        [_g17(t), _g17(ns), _g17(ts)]
        for t, ns, ts in zip(prof.times, prof.norm_sq, prof.t_sq)
    ]
    if args.profile_out:
        write_profile_csv(prof, args.profile_out)
        lines.append(f"profile -> {args.profile_out}")
    _emit(args, lines, obj, rows)
    return EXIT_OK


def cmd_region(args) -> int:
    model = _load_model(args.model)
    if model.name != "airfoil":
        raise ModelError("region reports are defined for the airfoil model only")
    params = _parse_params(args.params)
    try:
        minf, v = params["Minf"], params["V"]
    except KeyError as e:
        raise UsageError(f"--params must supply {e.args[0]}")
    rep = airfoil_region_conditions(minf, v)
    lines = [
        f"region: {rep.label}" + (" (boundary)" if rep.boundary else ""),
        f"predicted stable count: k = {rep.stable_count}",
    ]
    for name, val in rep.values.items():
        lines.append(f"  {name} = {_g(val)}")
    obj = {
        "label": rep.label,
        "stable_count": rep.stable_count,
        "boundary": rep.boundary,
        "values": {k: float(v) for k, v in rep.values.items()},
    }
    _emit(args, lines, obj)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser wiring


def _add_common(p, out_help="write output to this file instead of stdout"):
    p.add_argument("--model", required=True, help="builtin model name or model file")
    p.add_argument("--params", default="", help="comma list name=rational")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL, help="decision tolerance")
    p.add_argument(
        "--format", choices=("text", "csv", "json"), default="text",
        help="output format",
    )
    p.add_argument("--out", default=None, help=out_help)


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="kccstab", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="print curvature invariants")
    _add_common(p)
    p.add_argument("--all", action="store_true", help="include third-order tensors")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("deviation", help="print the deviation system")
    _add_common(p)
    p.add_argument("--point", default="", help="evaluate at x1,...,xn (velocities 0)")
    p.set_defaults(func=cmd_deviation)

    p = sub.add_parser("fixed-points", help="locate fixed points")
    _add_common(p)
    p.add_argument("--box", default="", help="search box lo:hi[,lo:hi...]")
    p.add_argument("--seeds", type=int, default=9, help="seed points per axis (at least 2)")
    p.set_defaults(func=cmd_fixed_points)

    p = sub.add_parser("classify", help="classify fixed points")
    _add_common(p)
    p.add_argument("--box", default="", help="search box lo:hi[,lo:hi...]")
    p.add_argument("--seeds", type=int, default=9, help="seed points per axis (at least 2)")
    p.add_argument("--point", default="", help="classify this point only")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("conditions", help="print semialgebraic stability conditions")
    _add_common(p)
    p.add_argument(
        "--budget", type=int, default=200000, help="monomial budget for assembly"
    )
    p.set_defaults(func=cmd_conditions)

    p = sub.add_parser("simulate", help="integrate trajectories, write CSV files")
    _add_common(p, out_help="output directory for CSV files (default .)")
    p.add_argument("--x0", required=True, help="initial position x1,...,xn")
    p.add_argument("--y0", default="", help="initial velocity (default zeros)")
    p.add_argument("--w", default="", help="deviation direction for xi'(0)")
    p.add_argument("--t-end", type=float, default=10.0, dest="t_end")
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--t-probe", type=float, default=0.5, dest="t_probe")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("focusing", help="focusing verdict at a fixed point")
    _add_common(p)
    p.add_argument("--point", required=True, help="fixed point x1,...,xn")
    p.add_argument("--w", default="", help="deviation direction (default dominant)")
    p.add_argument("--t-probe", type=float, default=0.5, dest="t_probe")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument(
        "--profile-out", default=None, dest="profile_out",
        help="also write the profile CSV here",
    )
    p.set_defaults(func=cmd_focusing)

    p = sub.add_parser("region", help="airfoil parameter-region report")
    _add_common(p)
    p.set_defaults(func=cmd_region)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as e:
        return int(e.code or 0)
    except UsageError as e:
        print(f"kccstab: error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (ModelError, ExprError, IntegrationError, OSError) as e:
        print(f"kccstab: model error: {e}", file=sys.stderr)
        return EXIT_MODEL
    except ValueError as e:
        print(f"kccstab: model error: {e}", file=sys.stderr)
        return EXIT_MODEL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
