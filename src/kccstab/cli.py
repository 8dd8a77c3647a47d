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
import math
import os
import re
import sys
from fractions import Fraction

from .expr import ExprError, lazy_numpy, to_float
from .kcc import ModelError, invariants, kcc_deviation
from .models import BUILTIN_NAMES, ascii_number, builtin, load, parse_rational
from .numerics import (
    DEFAULT_PROBE_SAMPLES,
    DEFAULT_PROBE_WINDOW,
    IntegrationError,
    focusing_profile,
    integrate,
    integrate_deviation,
    jacobi_focusing,
    step_count,
    write_profile_csv,
    write_trace_csv,
)
from .stability import (
    DEFAULT_MONOMIAL_BUDGET,
    DEFAULT_SEEDS_PER_AXIS,
    DEFAULT_TOL,
    INDETERMINATE,
    STABLE,
    airfoil_region_conditions,
    assemble_semialgebraic,
    classify_all,
    Classifier,
    find_fixed_points,
)

np = lazy_numpy()  # numpy runs on its first numeric use

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
        name, _, val = (part.strip() for part in item.partition("="))
        if not name:
            raise UsageError(f"bad --params entry {item!r}: empty name")
        if name in out:
            raise UsageError(f"--params names {name!r} twice")
        try:
            value = parse_rational(val)
            to_float(value)
        except (ValueError, ModelError, ExprError):
            raise UsageError(
                f"bad --params value {val!r} for {name!r}: "
                "expected a rational within the float range"
            )
        out[name] = value
    return out


def _ascii(convert):
    """A flag type: `convert` (int or float) of ASCII text only, under its
    name, so that argparse reports '٣' as it reports 'x'."""
    def flag_type(text: str):
        return convert(ascii_number(text))
    flag_type.__name__ = convert.__name__
    return flag_type


def _finite(text: str) -> float:
    """The float a flag value spells; ValueError unless it is finite."""
    value = float(ascii_number(text))
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _parse_box(text: str | None, n: int):
    """`--box`: one lo:hi for every axis, or n of them, each with lo < hi."""
    if not text:
        return None
    axes = []
    for seg in text.split(","):
        lo, sep, hi = seg.partition(":")
        if not sep:
            raise UsageError(f"bad --box segment {seg!r}: expected lo:hi")
        try:
            axes.append((_finite(lo), _finite(hi)))
        except ValueError:
            raise UsageError(f"bad --box segment {seg!r}: expected finite numbers")
        if not axes[-1][0] < axes[-1][1]:
            raise UsageError(f"bad --box segment {seg!r}: expected lo < hi")
    if len(axes) not in (1, n):
        raise UsageError(f"--box has {len(axes)} axes, expected {n} (or one for all)")
    return axes[0] if len(axes) == 1 else axes


def _parse_vector(text: str, flag: str, n: int | None = None) -> list[float]:
    """Comma-separated finite numbers; with `n`, exactly n of them."""
    try:
        vector = [_finite(v) for v in text.split(",")]
    except ValueError:
        raise UsageError(f"bad {flag} value {text!r}: expected comma-separated finite numbers")
    if n is not None and len(vector) != n:
        raise UsageError(f"{flag} must have {n} components")
    return vector


def _parse_w(text: str | None, n: int) -> list[float] | None:
    """`--w`, the deviation's initial velocity: n finite numbers, not all 0."""
    if not text:
        return None
    W = _parse_vector(text, "--w", n)
    if not any(W):
        raise UsageError("--w must be nonzero (the deviation starts with xi(0) = 0)")
    return W


def _check_seeds(seeds: int) -> int:
    if seeds < 3:
        raise UsageError(f"--seeds must be at least 3 per axis (2 seed only the box corners), got {seeds}")
    return seeds


def _write_or_print(args, text: str):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _emit(args, text_lines, json_obj, csv_rows=None):
    """Write the report in the chosen format; the parser offers csv only to
    the subcommands that pass rows."""
    if args.format == "json":
        text = json.dumps(json_obj, indent=2)
    elif args.format == "csv":
        text = "\n".join(",".join(str(c) for c in row) for row in csv_rows)
    else:
        text = "\n".join(text_lines)
    _write_or_print(args, text)


def _g(x: float) -> str:
    x = to_float(x)
    if abs(x) < 1e-14:
        x = 0.0
    return format(x, ".12g")


def _g17(x: float) -> str:
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# subcommands


def _tensor(name: str, entries, index: str = ""):
    """The `name[i]...[k] = entry` lines (1-based, row-major) and the nested
    strings of a tensor given as nested lists of entries."""
    if not isinstance(entries, list):
        text = str(entries)
        return [f"{name}{index} = {text}"], text
    lines, strings = [], []
    for i, sub in enumerate(entries, 1):
        sub_lines, sub_strings = _tensor(name, sub, f"{index}[{i}]")
        lines += sub_lines
        strings.append(sub_strings)
    return lines, strings


def cmd_invariants(args) -> int:
    model = _load_model(args.model)
    inv = invariants(model)
    lines = [f"model: {model.name} (n = {model.n})"]
    obj = {"model": model.name, "n": model.n}
    # (JSON key, text name): the text stops at torsion
    tensors = [("epsilon", "epsilon"), ("N", "N"), ("P", "P")]
    if args.all:
        tensors += [("berwald", "G"), ("torsion", "torsion"), ("riemann", None), ("douglas", None)]
    for key, name in tensors:
        text, obj[key] = _tensor(name, getattr(inv, key))
        if name:
            lines += text
    _emit(args, lines, obj)
    return EXIT_OK


def cmd_deviation(args) -> int:
    model = _load_model(args.model)
    params = _parse_params(args.params)
    point = _parse_vector(args.point, "--point", model.n) if args.point else None
    dev = kcc_deviation(model)
    lines = list(dev.equations())
    obj = {"model": model.name, "equations": list(lines)}
    for key in ("A21", "A22"):
        text, obj[key] = _tensor(key, getattr(dev, key))
        lines += text
    if point is not None:
        lines.append(f"at point ({', '.join(_g(c) for c in point)}):")
        obj["point"] = point
        for key, values in zip(("A21", "A22"), dev.at_point(params, point)):
            lines.append(f"{key} = " + np.array_str(np.asarray(values), precision=12))
            obj[f"{key}_at_point"] = [[float(v) for v in row] for row in values]
    _emit(args, lines, obj)
    return EXIT_OK


def cmd_fixed_points(args) -> int:
    model = _load_model(args.model)
    params = _parse_params(args.params)
    fps = find_fixed_points(
        model, params, box=_parse_box(args.box, model.n), seeds=_check_seeds(args.seeds)
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


def _region_line(args, params):
    """Airfoil parameter-region report when exact parameters are available.

    Only for the built-in airfoil: `_load_model` resolves built-in names
    first, so a model file is never taken for it, whatever its name.
    """
    if args.model != "airfoil":
        return None
    try:
        return airfoil_region_conditions(params["Minf"], params["V"])
    except (KeyError, TypeError, ValueError):
        return None


def cmd_classify(args) -> int:
    model = _load_model(args.model)
    params = _parse_params(args.params)
    seeds = _check_seeds(args.seeds)
    tol = args.tol
    if not 0 <= tol < math.inf:  # also rejects nan
        raise UsageError(f"--tol must be finite and not negative, got {tol}")
    box = _parse_box(args.box, model.n)
    lines = []
    rows = [["#"] + list(model.xs) + ["verdict"]]
    entries = []
    if args.point:
        point = tuple(_parse_vector(args.point, "--point", model.n))
        reports = [Classifier(model, params).classify(point, tol)]
        lines.append("classifying 1 supplied point")
    else:
        pairs = classify_all(model, params, box=box, seeds=seeds, tol=tol)
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
    region = _region_line(args, params)
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
    if args.budget < 1:
        raise UsageError(f"--budget must be at least 1, got {args.budget}")
    model = _load_model(args.model)
    params = _parse_params(args.params)
    sys_ = assemble_semialgebraic(model, params, budget=args.budget)
    conditions = sys_.render()
    lines = [f"variables: {', '.join(sys_.vars)}", *conditions]
    obj = {"vars": list(sys_.vars), "conditions": conditions}
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
    try:
        step_count(args.t_end, args.dt)
    except ValueError as e:
        raise UsageError(f"bad --t-end or --dt: {e}") from None
    if args.dt > args.t_end:
        raise UsageError("--dt must not exceed --t-end")
    if not 0 < args.t_probe < math.inf:  # also rejects nan
        raise UsageError("--t-probe must be finite and positive")
    W = _parse_w(args.w, n)
    trace = integrate(model, params, (x0, y0), args.t_end, args.dt)
    outdir = args.out or "."
    os.makedirs(outdir, exist_ok=True)
    traj_path = os.path.join(outdir, "trajectory.csv")
    write_trace_csv(trace, traj_path)
    lines = [f"trajectory: {len(trace)} samples -> {traj_path}"]
    verdict = None
    if W is not None:
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
    point = _parse_vector(args.point, "--point", model.n)
    W = _parse_w(args.w, model.n)
    if not 0 < args.t_probe < math.inf or args.samples < 3:  # also rejects nan
        raise UsageError("--t-probe must be finite and positive and --samples at least 3")
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
    if args.model != "airfoil":  # the built-in, as in _region_line
        raise ModelError("region reports are defined for the airfoil model only")
    params = _parse_params(args.params)
    try:
        minf, v = params["Minf"], params["V"]
    except KeyError as e:
        raise UsageError(f"--params must supply {e.args[0]}")
    model.binding(params)  # an unknown name is a model error, as elsewhere
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
        "values": {k: to_float(v) for k, v in rep.values.items()},
    }
    _emit(args, lines, obj)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser wiring


ROW_FORMATS = ("text", "csv", "json")  # for the subcommands that have CSV rows


def _add_common(p, params=True, formats=("text", "json"),
                out_help="write output to this file instead of stdout"):
    """The options every subcommand takes: --model, --out, and --params and
    --format where the subcommand reads them (formats=None: no --format)."""
    p.add_argument("--model", required=True, help="builtin model name or model file")
    if params:
        p.add_argument("--params", default="", help="comma list name=rational")
    if formats:
        p.add_argument("--format", choices=formats, default="text", help="output format")
    p.add_argument("--out", default=None, help=out_help)


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="kccstab", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="print curvature invariants")
    _add_common(p, params=False)
    p.add_argument("--all", action="store_true", help="include third-order tensors")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("deviation", help="print the deviation system")
    _add_common(p)
    p.add_argument("--point", default="", help="evaluate at x1,...,xn (velocities 0)")
    p.set_defaults(func=cmd_deviation)

    p = sub.add_parser("fixed-points", help="locate fixed points")
    _add_common(p, formats=ROW_FORMATS)
    p.add_argument("--box", default="", help="search box lo:hi[,lo:hi...]")
    p.add_argument("--seeds", type=_ascii(int), default=DEFAULT_SEEDS_PER_AXIS, help="seed points per axis (at least 3)")
    p.set_defaults(func=cmd_fixed_points)

    p = sub.add_parser("classify", help="classify fixed points")
    _add_common(p, formats=ROW_FORMATS)
    p.add_argument("--box", default="", help="search box lo:hi[,lo:hi...]")
    p.add_argument("--seeds", type=_ascii(int), default=DEFAULT_SEEDS_PER_AXIS, help="seed points per axis (at least 3)")
    p.add_argument("--point", default="", help="classify this point only")
    p.add_argument("--tol", type=_ascii(float), default=DEFAULT_TOL, help="decision tolerance")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("conditions", help="print semialgebraic stability conditions")
    _add_common(p)
    p.add_argument("--budget", type=_ascii(int), default=DEFAULT_MONOMIAL_BUDGET, help="monomial budget for assembly")
    p.set_defaults(func=cmd_conditions)

    p = sub.add_parser("simulate", help="integrate trajectories, write CSV files")
    _add_common(p, formats=None, out_help="output directory for CSV files (default .)")
    p.add_argument("--x0", required=True, help="initial position x1,...,xn")
    p.add_argument("--y0", default="", help="initial velocity (default zeros)")
    p.add_argument("--w", default="", help="deviation direction for xi'(0); the deviation is integrated with "
                   "A21 and A22 frozen at (x0, y = 0), not along the trajectory, so --y0 does not affect it")
    p.add_argument("--t-end", type=_ascii(float), default=10.0, dest="t_end")
    p.add_argument("--dt", type=_ascii(float), default=1e-3)
    p.add_argument("--t-probe", type=_ascii(float), default=DEFAULT_PROBE_WINDOW, dest="t_probe")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("focusing", help="focusing verdict at a fixed point")
    _add_common(p, formats=ROW_FORMATS)
    p.add_argument("--point", required=True, help="fixed point x1,...,xn")
    p.add_argument("--w", default="", help="deviation direction (default dominant)")
    p.add_argument("--t-probe", type=_ascii(float), default=DEFAULT_PROBE_WINDOW, dest="t_probe")
    p.add_argument("--samples", type=_ascii(int), default=DEFAULT_PROBE_SAMPLES)
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
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except SystemExit as e:
        return int(e.code or 0)
    except UsageError as e:
        print(f"kccstab: error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # the reader of stdout has gone, as with `| head`: end quietly
        _detach_stdout()
        return EXIT_OK
    except (ModelError, ExprError, IntegrationError, OSError, ValueError) as e:
        print(f"kccstab: model error: {e}", file=sys.stderr)
        return EXIT_MODEL
    except RecursionError:
        # the symbolic layers walk expression trees recursively
        print("kccstab: model error: expression nested too deeply", file=sys.stderr)
        return EXIT_MODEL
    except MemoryError:
        # as a buffer for --t-end/--dt steps that the host cannot hold
        print("kccstab: model error: out of memory", file=sys.stderr)
        return EXIT_MODEL


def _detach_stdout() -> None:
    """Point stdout at the null device, so the flush at exit finds no pipe."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
