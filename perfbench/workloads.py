"""The three benchmark workloads.

Every workload is closed-loop and sequential: one operation runs at a time
and the next starts when it returns.  Inputs are generated from the seed
before timing starts.  A pass runs the workload's whole input set once;
each operation in it is timed on its own, and its output is checked right
after, outside the timed region.  `pass_s` is the sum of a pass's operation
times.

The host this was built on runs identical work up to 1.6x slower for tens
of seconds at a time, outside the guest's control.  So a fixed calibration
kernel that does not touch kccstab runs at the start and end of every pass
and after every CAL_EVERY_S of operation time, and `pass_per_cal` divides a
pass's time by the median kernel time seen during it.  Set-up time is
rescaled the same way, by the run's median kernel time, into seconds on a
host where the kernel takes REFERENCE_CAL_S.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from fractions import Fraction

import numpy as np

# Library calls go through module attributes, so that the tracer's wrappers,
# installed in those namespaces, see them.
from kccstab import cli, kcc, models, numerics, stability
from kccstab.models import BUILTIN_NAMES, TRACTOR_SEAT_REFERENCE_PARAMS
from kccstab.stability import STABLE

import env
import oracles
from tracer import Stopwatch

CAL_EVERY_S = 0.25
# Nominal calibration kernel time: set-up times are reported as measured,
# rescaled to a host on which the kernel takes this long.
REFERENCE_CAL_S = 0.010


def calibration_kernel():
    """Fixed work in the interpreter's mix: big-int dict products, float
    arithmetic in Python, and small numpy products: 10-20 ms."""
    p = {(i, j): (i * 7919 + j * 104729) % 1000003 - 500000 for i in range(10) for j in range(10)}
    prod: dict = {}
    for m1, c1 in p.items():
        for m2, c2 in p.items():
            m = (m1[0] + m2[0], m1[1] + m2[1])
            prod[m] = prod.get(m, 0) + c1 * c2
    x = acc = 0.1
    for i in range(20000):
        x = (x * 1.0000001 + 0.5) / (1.0 + x * 1e-9)
        acc += x * 0.5 - i
    A = np.eye(4) * 0.5 + 0.01
    z = np.ones(4)
    for _ in range(1500):
        z = A @ z + 0.1 * z
    return len(prod), acc, float(z[0])


class Record:
    """Operation timings, calibration and oracle outcomes of one run."""

    def __init__(self):
        self.samples: defaultdict = defaultdict(list)
        self.pass_s: list[float] = []
        self.pass_per_cal: list[float] = []
        self.cal_s: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.last = 0.0
        self._pass_total = 0.0
        self._pass_cal: list[float] = []
        self._since_cal = 0.0

    def _calibrate(self) -> None:
        t0 = time.perf_counter()
        calibration_kernel()
        dt = time.perf_counter() - t0
        self._pass_cal.append(dt)
        self.cal_s.append(dt)
        self._since_cal = 0.0

    def op(self, key: str, fn, *args, **kwargs):
        """Run one operation, time it under `key`, and return its result."""
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        dt = time.perf_counter() - t0
        self.samples[key].append(dt)
        self._pass_total += dt
        self.last = dt
        self._since_cal += dt
        if self._since_cal >= CAL_EVERY_S:
            self._calibrate()
        return result

    def check(self, error: str | None) -> None:
        self.attempted += 1
        if error:
            self.failures.append(error)

    def run_pass(self, workload, index: int) -> float:
        self._pass_total = self._since_cal = 0.0
        self._pass_cal = []
        self._calibrate()
        workload.run_pass(index, self)
        self._calibrate()
        self.pass_s.append(self._pass_total)
        self.pass_per_cal.append(self._pass_total / statistics.median(self._pass_cal))
        return self._pass_total


def measure_setup(source: str) -> float:
    """Wall time of a fresh interpreter that imports kccstab and runs `source`."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", source], check=True, cwd=env.ROOT)
    return time.perf_counter() - t0


def _params_arg(params) -> str:
    return ",".join(f"{k}={v}" for k, v in params.items())


def _vec(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _unit(rng, n: int) -> np.ndarray:
    w = rng.normal(size=n)
    return w / np.linalg.norm(w)


# ---------------------------------------------------------------------------
# airfoil_sweep


REGIONS = ("C1", "C2", "C3", "C4", "C5")


def sample_sweep_points(seed: int, per_region: int = 50) -> list[tuple]:
    """Rational (Minf, V) points, `per_region` in each of C1..C5, shuffled.

    Sampled as acceptance criterion 6e samples: exact rationals with
    denominator 4096, rejection on the exact region label, and a search box
    sized from the analytic position of the nonzero fixed-point pair.
    Returns (Minf, V, box half-width, label, predicted stable count).
    """
    rng = np.random.default_rng(seed)
    picked: dict[str, list] = {lab: [] for lab in REGIONS}

    def rational(lo, hi, denom=4096):
        return Fraction(int(rng.integers(int(lo * denom), int(hi * denom) + 1)), denom)

    def try_point(minf, v):
        rep = stability.airfoil_region_conditions(minf, v)
        if rep.boundary or rep.label is None or len(picked[rep.label]) >= per_region:
            return
        box_half = 2.0
        den = minf * (v * v * minf - 5000)
        if den != 0:
            x2_sq = 5 * (50 * minf - v * v) / den
            if x2_sq > 0:
                x2m = float(x2_sq) ** 0.5
                x1m = x2m * (1 + 20 * x2m * x2m)
                if x2m < 1e-2 or max(x1m, x2m) > 8:
                    return
                box_half = max(2.0, 1.5 * max(x1m, x2m))
        picked[rep.label].append((minf, v, box_half, rep.label, rep.stable_count))

    def full(labels):
        return all(len(picked[lab]) >= per_region for lab in labels)

    for _ in range(100 * per_region * len(REGIONS)):
        if full(("C1", "C2", "C4", "C5")):
            break
        try_point(rational(0.01, 12), rational(0.01, 30))
    for _ in range(100 * per_region * len(REGIONS)):
        if full(("C3",)):
            break
        try_point(rational(10.01, 12), rational(20.5, 24.4))
    if not full(REGIONS):
        raise RuntimeError(f"region sampling fell short: { {k: len(v) for k, v in picked.items()} }")
    points = [p for lab in REGIONS for p in picked[lab]]
    return [points[i] for i in rng.permutation(len(points))]


def sweep_point(model, minf, v, box_half):
    """What `kccstab classify --model airfoil` computes at one parameter point."""
    region = stability.airfoil_region_conditions(minf, v)
    k = stability.count_stable(model, {"Minf": minf, "V": v}, box=(-box_half, box_half), seeds=5)
    return region, k


class AirfoilSweep:
    name = "airfoil_sweep"
    setup_source = "import kccstab; kccstab.builtin('airfoil')"

    def __init__(self, seed: int):
        self.points = sample_sweep_points(seed)
        self.model = models.builtin("airfoil")

    def run_pass(self, index: int, rec: Record) -> None:
        for minf, v, box_half, label, expected in self.points:
            region, k = rec.op("sweep_point_s", sweep_point, self.model, minf, v, box_half)
            if region.label != label:
                rec.check(f"region of ({minf}, {v}) is {region.label}, sampled as {label}")
            else:
                rec.check(oracles.stable_count_error(label, expected, k))

    def finish(self, rec: Record) -> None:
        pass

    def report(self, rec: Record) -> list[tuple]:
        pts = rec.samples["sweep_point_s"]
        return [
            ("sweep_points_per_s", len(pts) / sum(pts), "1/s", f"{len(pts)} points"),
            ("sweep_point_p50_ms", 1e3 * statistics.median(pts), "ms", f"n={len(pts)}"),
            ("sweep_point_p90_ms", 1e3 * float(np.percentile(pts, 90)), "ms", f"n={len(pts)}"),
        ]


# ---------------------------------------------------------------------------
# trajectory

WS_PARAMS = {"a": Fraction(1, 2), "C": Fraction(1), "m": Fraction(-1)}
AIRFOIL_PARAMS_1 = {"Minf": Fraction(2017, 256), "V": Fraction(83, 4)}
AIRFOIL_PARAMS_2 = {"Minf": Fraction(71, 16384), "V": Fraction(3, 16)}
TRACTOR_PARAMS = dict(TRACTOR_SEAT_REFERENCE_PARAMS)

# (model, params, start point near a fixed point, perturbation scale)
SIMULATIONS = (
    ("wound_strings", WS_PARAMS, (2.0, 1.0), 0.05),
    ("airfoil", AIRFOIL_PARAMS_1, (0.155, -0.1202), 0.005),
    ("tractor_seat", TRACTOR_PARAMS, (0.0, 0.0, 0.0), 0.05),
)
SIM_T_END, SIM_DT = 10.0, 1e-3  # 10k RK4 steps
SIM_FILES = ("trajectory.csv", "deviation.csv", "focusing.csv")

# The built-in fixed points of criteria 6c/6d: (model, params, box, seeds).
FIXED_POINT_SETS = (
    ("wound_strings", WS_PARAMS, (-4, 4), 9),
    ("airfoil", AIRFOIL_PARAMS_1, (-4, 4), 9),
    ("airfoil", AIRFOIL_PARAMS_2, (-4, 4), 9),
    ("tractor_seat", TRACTOR_PARAMS, (-10, 10), 5),
)
TRIANGLE_T_END, TRIANGLE_DT, TRIANGLE_AMPLITUDE, TRIANGLE_ETA = 5.0, 1e-3, 1e-2, 1e-6

_RERUN_SOURCE = (
    "import json, sys\n"
    "from kccstab import cli\n"
    "sys.exit(max(cli.main(argv) for argv in json.loads(sys.argv[1])))\n"
)


def simulate_argv(name, params, x0, y0, w, outdir) -> list[str]:
    return [
        "simulate", "--model", name, "--params", _params_arg(params),
        "--x0", _vec(x0), "--y0", _vec(y0), "--w", _vec(w),
        "--t-end", repr(SIM_T_END), "--dt", repr(SIM_DT), "--out", str(outdir),
    ]


def run_cli(argv) -> tuple[int, str]:
    """`kccstab <argv>` in process, with its standard output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def propagator_triangle(model, params, point, W):
    """Criterion 6c at one fixed point: three deviation propagators."""
    a21, a22 = kcc.kcc_deviation(model).at_point(params, point)
    rk = numerics.integrate_deviation(model, params, point, W, TRIANGLE_T_END, TRIANGLE_DT)
    ex = numerics.matrix_exp_solution(a21, a22, W, rk.times)
    po = numerics.perturbation_oracle(
        model, params, point, W, eta=TRIANGLE_ETA, t_end=TRIANGLE_T_END, dt=TRIANGLE_DT
    )
    return rk, ex, po


class Trajectory:
    name = "trajectory"
    setup_source = "import kccstab; [kccstab.builtin(n) for n in kccstab.BUILTIN_NAMES]"

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.sim_dir = env.OUT / "sim"
        self.sims = []
        for name, params, center, scale in SIMULATIONS:
            n = len(center)
            x0 = np.asarray(center) + rng.uniform(-scale, scale, n)
            y0 = rng.uniform(-0.01, 0.01, n)
            outdir = self.sim_dir / name
            self.sims.append((name, simulate_argv(name, params, x0, y0, _unit(rng, n), outdir), outdir))
        # (model, params, point, verdict, W): the fixed points are inputs, found
        # once here; the triangle runs at the stable ones.
        self.points = []
        for name, params, box, seeds in FIXED_POINT_SETS:
            model = models.builtin(name)
            for fp, rep in stability.classify_all(model, params, box=box, seeds=seeds):
                w = TRIANGLE_AMPLITUDE * _unit(rng, model.n)
                self.points.append((model, params, fp.point, rep.verdict, w))
        self.reference: dict = {}

    def run_pass(self, index: int, rec: Record) -> None:
        with Stopwatch(numerics.integrate, size=lambda trace: len(trace) - 1) as rk4:
            for name, argv, outdir in self.sims:
                rc, _ = rec.op("simulate_s", run_cli, argv)
                if rc != 0:
                    rec.check(f"simulate {name} exited {rc}")
                    continue
                digests = oracles.file_digests(outdir, SIM_FILES)
                rec.check(oracles.digest_error(self.reference.setdefault(name, digests), digests))
            for model, params, point, verdict, w in self.points:
                if verdict == STABLE:
                    traces = rec.op("triangle_s", propagator_triangle, model, params, point, w)
                    rec.check(oracles.triangle_error(traces, model.n))
                prof = rec.op("focusing_s", numerics.jacobi_focusing, model, params, point)
                rec.check(oracles.focusing_error(verdict, prof.verdict))
        rec.samples["rk4_steps_per_s"].extend(steps / dt for dt, steps in rk4.samples)

    def finish(self, rec: Record) -> None:
        """Rerun every simulation in a fresh interpreter: bytes must match."""
        argvs = []
        for name, argv, outdir in self.sims:
            argvs.append(argv[:-1] + [str(self.sim_dir / "rerun" / name)])
        proc = subprocess.run(
            [sys.executable, "-c", _RERUN_SOURCE, json.dumps(argvs)],
            cwd=env.ROOT, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            rec.check(f"simulate rerun exited {proc.returncode}: {proc.stderr.strip()[-200:]}")
            return
        for name, argv, outdir in self.sims:
            digests = oracles.file_digests(self.sim_dir / "rerun" / name, SIM_FILES)
            rec.check(oracles.digest_error(self.reference[name], digests))

    def report(self, rec: Record) -> list[tuple]:
        s = rec.samples
        return [
            ("rk4_steps_per_s", statistics.median(s["rk4_steps_per_s"]), "1/s",
             f"median of n={len(s['rk4_steps_per_s'])} integrate calls"),
            ("simulate_s", statistics.median(s["simulate_s"]), "s", f"n={len(s['simulate_s'])}"),
            ("triangle_s", statistics.median(s["triangle_s"]), "s", f"n={len(s['triangle_s'])}"),
        ]


# ---------------------------------------------------------------------------
# model_scaling

CHAIN_CONDITIONS = (1, 2)        # chain n = 3 conditions does not finish in 60 s
CHAIN_CLASSIFY = (1, 2, 3, 4)
CHAIN_SEEDS = 5


def chain_model_text(n: int) -> str:
    """Model file of the n-mass chain with fixed ends (x_0 = x_{n+1} = 0).

    G_i = (k x_i + q (2 x_i - x_{i-1} - x_{i+1}) - b x_i^3 + c y_i) / (2 (1 + x_i^2))
    """
    lines = [f"model chain{n}", "params k q b c", "vars " + " ".join(f"x{i}" for i in range(1, n + 1))]
    for i in range(1, n + 1):
        nb = "".join(f" - x{j}" for j in (i - 1, i + 1) if 1 <= j <= n)
        lines.append(f"G{i} = (k*x{i} + q*(2*x{i}{nb}) - b*x{i}^3 + c*y{i})/(2*(1 + x{i}^2))")
    return "\n".join(lines) + "\n"


def chain_params(rng: random.Random) -> dict:
    """Seeded chain parameters in the weak-coupling regime q < k/4.

    There every chain has all 3^n equilibria inside the default box, so the
    work per n does not change with the draw; q != k always holds.
    """
    return {
        "k": Fraction(rng.randint(12, 20), 16),
        "q": Fraction(rng.randint(1, 3), 16),
        "b": Fraction(rng.randint(3, 5), 16),
        "c": Fraction(rng.randint(1, 4), 16),
    }


# Fixed points at which the free-parameter built-in conditions are checked.
CONDITION_CHECKS = FIXED_POINT_SETS + (("tractor_seat", None, (-10, 10), 5),)


class ModelScaling:
    name = "model_scaling"
    setup_source = (
        "import kccstab; [kccstab.builtin(n) for n in kccstab.BUILTIN_NAMES]; "
        f"[kccstab.loads(t) for t in {[chain_model_text(n) for n in CHAIN_CLASSIFY]!r}]"
    )

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.params: list[dict] = []
        self.builtin_conditions: dict = {}

    def pass_params(self, index: int) -> dict:
        while len(self.params) <= index:
            self.params.append(chain_params(self.rng))
        return self.params[index]

    def run_pass(self, index: int, rec: Record) -> None:
        params = self.pass_params(index)
        # Fresh model objects every pass: each model is analysed once.
        builtins = {name: models.builtin(name) for name in BUILTIN_NAMES}
        chains = {n: models.loads(chain_model_text(n)) for n in CHAIN_CLASSIFY}
        conditions_s = classify_s = 0.0
        for name, model in builtins.items():
            self.builtin_conditions[name] = rec.op(f"conditions.{name}", stability.assemble_semialgebraic, model)
            conditions_s += rec.last
        systems = {}
        for n in CHAIN_CONDITIONS:
            systems[n] = rec.op(f"conditions.chain{n}", stability.assemble_semialgebraic, chains[n], params)
            conditions_s += rec.last
        for n in CHAIN_CLASSIFY:
            pairs = rec.op(f"classify.chain{n}", stability.classify_all, chains[n], params, seeds=CHAIN_SEEDS)
            classify_s += rec.last
            if n in systems:
                for fp, rep in pairs:
                    rec.check(oracles.conditions_error(systems[n], fp.point, rep.verdict))
        rec.samples["conditions_s"].append(conditions_s)
        rec.samples["chain_classify_s"].append(classify_s)

    def finish(self, rec: Record) -> None:
        """Check the free-parameter built-in conditions at known fixed points."""
        for name, params, box, seeds in CONDITION_CHECKS:
            model = models.builtin(name)
            system = self.builtin_conditions[name]
            bound = model.binding(params)
            values = [bound[p] for p in system.vars[model.n:]]
            for fp, rep in stability.classify_all(model, params, box=box, seeds=seeds):
                rec.check(oracles.conditions_error(system, fp.point, rep.verdict, values))

    def report(self, rec: Record) -> list[tuple]:
        s = rec.samples
        rows = [
            ("conditions_s", statistics.median(s["conditions_s"]), "s", f"n={len(s['conditions_s'])} passes"),
            ("chain_classify_s", statistics.median(s["chain_classify_s"]), "s",
             f"n={len(s['chain_classify_s'])} passes"),
        ]
        for key in sorted(k for k in s if k.startswith(("conditions.", "classify."))):
            rows.append((key + "_s", statistics.median(s[key]), "s", f"n={len(s[key])}"))
        return rows


WORKLOADS = {cls.name: cls for cls in (AirfoilSweep, Trajectory, ModelScaling)}
