"""Time-domain verification: trajectories, deviation flows, focusing profiles.

Fixed-step RK4 supplies reproducible traces of the nonlinear system and of
the linearized deviation dynamics; a scaling-and-squaring matrix exponential
gives the exact solution of the latter for cross-checking.  The focusing
profile compares the adapted squared norm of a deviation vector against t²
over a short probe window, which is the trajectory-level stability
diagnostic: bunching (below t²) at Jacobi-stable points, dispersing (above)
at unstable ones.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .expr import Constant, _emit, _too_deep, canonicalize, exec_generated, lazy_numpy, mul, p_to_expr
from .kcc import Model, ModelError

np = lazy_numpy()  # numpy runs on its first numeric use

DEFAULT_PROBE_WINDOW = 0.5
DEFAULT_PROBE_SAMPLES = 100
DENOMINATOR_FLOOR = 1e-10
_POWER_BLOCK = 64  # a power of 2: _power_states forms its powers by doubling

BUNCHING = "Bunching"
DISPERSING = "Dispersing"
MIXED = "Mixed"


class IntegrationError(RuntimeError):
    """Integration aborted (vanishing denominator along the trajectory)."""

    def __init__(self, time: float, detail: str = ""):
        self.time = time
        msg = f"integration aborted at t = {time:.6g}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


@dataclass(frozen=True)
class Trace:
    """Uniform-step time series of state vectors."""

    times: np.ndarray                 # shape (T,)
    states: np.ndarray                # shape (T, k)
    names: tuple[str, ...]            # k column labels
    dt: float | None                  # None for non-uniform sampling
    method: str

    def column(self, name: str) -> np.ndarray:
        return self.states[:, self.names.index(name)]

    def __len__(self):
        return len(self.times)


@dataclass(frozen=True)
class FocusingProfile:
    """Adapted squared norm of a deviation vector against t² near 0+.

    norm_sq(t) = <xi(t), xi(t)> / <W, W>, so the initial deviation velocity
    has unit adapted norm by construction and norm_sq(0) = 0.
    """

    times: np.ndarray
    norm_sq: np.ndarray
    t_sq: np.ndarray
    verdict: str
    w_used: tuple[float, ...] = field(default=())


# ---------------------------------------------------------------------------
# nonlinear integration


_RK4_SOURCE = """\
def _rk4(z, out, k0, nsteps, dt):
    {z}, = z
    h2, h6, j = 0.5 * dt, dt / 6.0, (k0 - 1) * {m}
    try:
        for k in range(k0, nsteps + 1):
            t0 = (k - 1) * dt
{body}
    except ZeroDivisionError:
        raise IntegrationError(t, 'denominator reached zero') from None
    except OverflowError:
        raise IntegrationError(t, 'state became non-finite') from None
"""


def step_count(t_end: float, dt: float) -> int:
    """The number of fixed steps, round(t_end / dt), that reach t_end.

    ValueError unless t_end and dt are finite and positive and the count is
    at most sys.maxsize, the most a sequence can hold.
    """
    if not (0 < t_end < math.inf and 0 < dt < math.inf):  # also rejects nan
        raise ValueError("t_end and dt must be finite and positive")
    steps = t_end / dt
    if not steps <= sys.maxsize:
        raise ValueError(f"t_end / dt is {steps:.3g} steps, more than {sys.maxsize}")
    return round(steps)


def _rk4_kernel(model: Model, params) -> Callable[[list, float, float], Trace]:
    """Fixed-step RK4 on x' = y, y' = -2G, G bound to `params`, compiled into
    a function of (z0, t_end, dt) that returns the Trace and kept with the
    exact values bound as `model.compiled.rk4`: equal values reuse it.

    The accelerations and the canonical denominators of G (the guards) are
    Python sources over the stage state `s0 .. s{2n-1}`, computing each
    distinct subexpression once per stage.  The stages follow the operation
    order of the vector form z + (h/2)·k1, z + h·k3, z + (h/6)·(k1 + 2k2 +
    2k3 + k4), bit for bit.  Each stage aborts on a guard in (-1e-10, 1e-10),
    a nan guard being in none, and each step on an inf or nan state.  Step 1
    runs alone into a buffer holding z0 in every row: if it maps z0 to itself
    byte for byte, so would every later step (the models are autonomous).
    """
    bind = model.binding(params)
    if model.compiled.rk4 and model.compiled.rk4[0] == bind:
        return model.compiled.rk4[1]
    n = model.n
    m = 2 * n
    args = model.xs + model.ys
    slots = {name: f"s{i}" for i, name in enumerate(args)}
    # the binding and the reduction recurse as deeply as the source does
    with _too_deep("compile"):
        gs = model.g_bound(params)
        dens = [p_to_expr(canonicalize(g, args).den, args) for g in gs]
        # a constant canonical denominator is a nonzero integer: never below 1e-10
        guards = [d for d in dens if not isinstance(d, Constant)]
        srcs = _emit(guards + [mul(-2, g) for g in gs], slots)
    guards, accel = srcs[:len(guards)], srcs[len(guards):]

    def vec(fmt: str) -> list[str]:
        return [fmt.format(i) for i in range(m)]

    # all guards before any test; -F < g < F is abs(g) < F, false for a nan g
    low = " or ".join(f"-{DENOMINATOR_FLOOR!r} < g{i} < {DENOMINATOR_FLOOR!r}" for i in range(len(guards)))
    check = [f"g{i} = {g}" for i, g in enumerate(guards)]
    if guards:
        check.append(f"if {low}: raise IntegrationError(t, 'denominator below {DENOMINATOR_FLOOR:g}')")
    rates = vec("s{0}")[n:] + accel
    body = []
    for k, state, time in (
        ("a", "z{0}", "t0"),
        ("b", "z{0} + h2 * a{0}", "t0 + h2"),
        ("c", "z{0} + h2 * b{0}", "t0 + h2"),
        ("d", "z{0} + dt * c{0}", "k * dt"),
    ):
        body += [f"t = {time}", *vec("s{0} = " + state), *check, *(f"{k}{i} = {r}" for i, r in enumerate(rates))]
    body += vec("z{0} = z{0} + h6 * (a{0} + 2.0 * b{0} + 2.0 * c{0} + d{0})")
    # z - z is 0.0 for a finite z and nan for inf or nan: the sum is 0.0 exactly when all are finite
    body.append(f"if {' + '.join(vec('(z{0} - z{0})'))} != 0.0: raise IntegrationError(t, 'state became non-finite')")
    body += [f"j += {m}", *vec("out[j + {0}] = z{0}")]
    src = _RK4_SOURCE.format(z=", ".join(vec("z{0}")), m=m, body="\n".join(" " * 12 + b for b in body))
    run = exec_generated(src, "_rk4", dict(IntegrationError=IntegrationError))

    def trace(z0: list, t_end: float, dt: float) -> Trace:
        nsteps = step_count(t_end, dt)
        out = array("d", z0) * (nsteps + 1)
        run(z0, out, 1, min(nsteps, 1), dt)
        if nsteps > 1 and out[m:2 * m].tobytes() != out[:m].tobytes():
            run(out[m:2 * m], out, 2, nsteps, dt)
        return Trace(np.arange(nsteps + 1) * dt, np.frombuffer(out).reshape(-1, m), args, dt, "rk4")

    model.compiled.rk4 = bind, trace
    return trace


def _start(n: int, initial: tuple[Sequence[float], Sequence[float]]) -> list[float]:
    x0, y0 = initial
    if len(x0) != n or len(y0) != n:
        raise ModelError(f"initial condition must have {n} positions and velocities")
    return [float(v) for v in x0] + [float(v) for v in y0]


def integrate(
    model: Model,
    params: Mapping[str, Fraction | float] | None,
    initial: tuple[Sequence[float], Sequence[float]],
    t_end: float,
    dt: float,
) -> Trace:
    """Classical RK4 on (x' = y, y' = -2G) from initial (x0, y0).

    Aborts with IntegrationError when any canonical G denominator is below
    1e-10 in magnitude at an evaluation point (a nan one hides no other),
    when an evaluation divides by zero or overflows, or when the state gets
    an inf or nan; its `time` is that of the stage (for the state, the step's end).
    A start that one step maps to itself byte for byte is repeated.  The
    loop is compiled once per model and parameter values (`_rk4_kernel`).
    """
    z0 = _start(model.n, initial)
    return _rk4_kernel(model, params)(z0, t_end, dt)


# ---------------------------------------------------------------------------
# linearized deviation dynamics


def _deviation_names(n: int) -> tuple[str, ...]:
    return tuple(f"{p}{i}" for p in ("xi", "xidot") for i in range(1, n + 1))


def _check_w(W, n: int) -> np.ndarray:
    W = np.asarray(W, dtype=float)
    if W.shape != (n,):
        raise ValueError(f"W must have length {n}")
    if not np.any(W):
        raise ValueError("W must be nonzero (deviation starts with xi(0) = 0)")
    return W


def integrate_deviation(
    model: Model,
    params: Mapping[str, Fraction | float] | None,
    point: Sequence[float],
    W: Sequence[float],
    t_end: float,
    dt: float,
) -> Trace:
    """RK4 on the deviation equations xi'' = A21 xi + A22 xi' frozen at a point.

    Initial conditions are xi(0) = 0, xi'(0) = W (nonzero).  On z' = A·z one
    RK4 step is z -> R·z with R = I + X + X²/2 + X³/6 + X⁴/24, X = dt·A (RK4's
    stability function): the states are R^k·(0, W) by `_power_states`, within
    1e-12 of the stepwise form relative to each row's largest entry.
    """
    n = model.n
    W = _check_w(W, n)
    compiled = model.compiled
    lower = np.hstack(compiled.at(compiled.parameter_values(params), point)[1:])  # [A21, A22]
    if not np.all(np.isfinite(lower)):
        raise ValueError(f"deviation system at {tuple(point)} has a non-finite entry")
    nsteps = step_count(t_end, dt)
    X = dt * np.block([[np.zeros((n, n)), np.eye(n)], [lower]])
    eye = np.eye(2 * n)
    R = eye + X @ (eye + X @ (eye + X @ (eye + X / 4) / 3) / 2)
    states = _power_states(R, np.concatenate([np.zeros(n), W]), nsteps + 1)
    return Trace(np.arange(nsteps + 1) * dt, states, _deviation_names(n), dt, "rk4")


def _power_states(M: np.ndarray, v0: np.ndarray, count: int) -> np.ndarray:
    """v0, M·v0, .., M^(count-1)·v0: M .. M^64 are formed once by doubling,
    and each block of 64 states is those powers times the state before it.
    Overflow gives inf or nan without a warning."""
    states = np.empty((count, len(v0)))
    states[0] = v0
    with np.errstate(all="ignore"):
        powers = M[None]
        while len(powers) < min(_POWER_BLOCK, count - 1):  # M^(j+1) .. M^(2j)
            powers = np.concatenate([powers, powers @ powers[-1]])
        for k in range(1, count, _POWER_BLOCK):
            block = powers[:count - k]
            states[k:k + len(block)] = block @ states[k - 1]
    return states


def matrix_exp(A: np.ndarray) -> np.ndarray:
    """exp(A) by scaling-and-squaring with a truncated Taylor series."""
    A = np.asarray(A, dtype=float)
    norm = np.linalg.norm(A, 1)
    s = max(0, int(np.ceil(np.log2(norm / 0.5)))) if norm > 0.5 else 0
    B = A / (2 ** s)
    E = np.eye(A.shape[0])
    term = np.eye(A.shape[0])
    for k in range(1, 60):
        term = term @ B / k
        E = E + term
        if np.linalg.norm(term, 1) <= 1e-16 * np.linalg.norm(E, 1):
            break
    for _ in range(s):
        E = E @ E
    return E


def matrix_exp_solution(
    A21: np.ndarray | Sequence[Sequence[float]],
    A22: np.ndarray | Sequence[Sequence[float]],
    W: Sequence[float],
    times: Sequence[float],
) -> Trace:
    """Exact deviation solution (xi, xi')(t) = exp(At)·(0, W) at given times.

    A is the first-order block matrix of the frozen deviation system.  For
    uniformly spaced times from 0 the states are the blocked powers of
    E = exp(A·dt) (`_power_states`); otherwise each is exp(A·t)·(0, W).
    """
    A21 = np.asarray(A21, dtype=float)
    A22 = np.asarray(A22, dtype=float)
    n = A21.shape[0]
    W = _check_w(W, n)
    times = np.asarray(times, dtype=float)
    if len(times) == 0:
        raise ValueError("times must be nonempty")
    A = np.block([[np.zeros((n, n)), np.eye(n)], [A21, A22]])
    v0 = np.concatenate([np.zeros(n), W])
    diffs = np.diff(times)
    uniform = len(times) >= 2 and np.allclose(diffs, diffs[0], rtol=1e-12, atol=1e-15)
    if uniform and times[0] == 0.0:
        states = _power_states(matrix_exp(A * diffs[0]), v0, len(times))
    else:
        states = np.array([matrix_exp(A * t) @ v0 for t in times])
    dt = float(diffs[0]) if uniform else None
    return Trace(times, states, _deviation_names(n), dt, "expm")


# ---------------------------------------------------------------------------
# focusing diagnostic


def focusing_profile(
    dev_trace: Trace,
    W: Sequence[float],
    t_probe: float = DEFAULT_PROBE_WINDOW,
) -> FocusingProfile:
    """Compare the adapted squared deviation norm against t² on (0, t_probe].

    Bunching when norm_sq < t² at every sampled time in the window,
    Dispersing when > at every one, Mixed otherwise (ties included).
    """
    n = len(W)
    W = np.asarray(W, dtype=float)
    wsq = float(W @ W)
    if wsq == 0.0:
        raise ValueError("W must be nonzero")
    mask = (dev_trace.times > 0) & (dev_trace.times <= t_probe * (1 + 1e-12))
    if np.count_nonzero(mask) < 3:
        raise ValueError(
            f"degenerate trace: {np.count_nonzero(mask)} samples in (0, {t_probe}]"
        )
    times = dev_trace.times[mask]
    xi = dev_trace.states[mask, :n]
    norm_sq = np.einsum("ij,ij->i", xi, xi) / wsq
    t_sq = times ** 2
    if np.all(norm_sq < t_sq):
        verdict = BUNCHING
    elif np.all(norm_sq > t_sq):
        verdict = DISPERSING
    else:
        verdict = MIXED
    return FocusingProfile(times, norm_sq, t_sq, verdict, tuple(float(w) for w in W))


def dominant_deviation_direction(P: np.ndarray) -> np.ndarray:
    """Unit vector along the eigendirection of the largest-real-part eigenvalue."""
    P = np.asarray(P, dtype=float)
    vals, vecs = np.linalg.eig(P)
    v = vecs[:, int(np.argmax(vals.real))]
    w = v.real
    if np.linalg.norm(w) <= 1e-12 * np.linalg.norm(v):
        w = v.imag
    w = w / np.linalg.norm(w)
    for c in w:
        if abs(c) > 1e-12:
            if c < 0:
                w = -w
            break
    return w


def jacobi_focusing(
    model: Model,
    params: Mapping[str, Fraction | float] | None,
    point: Sequence[float],
    W: Sequence[float] | None = None,
    t_probe: float = DEFAULT_PROBE_WINDOW,
    samples: int = DEFAULT_PROBE_SAMPLES,
) -> FocusingProfile:
    """Focusing/dispersing verdict at a fixed point from the covariant flow.

    In the covariant frame the deviation dynamics at a fixed point freeze to
    u'' = P(x̄)·u, whose solutions are trigonometric exactly when every
    eigenvalue of P has negative real part; integrating that system from
    u(0) = 0, u'(0) = W and profiling against t² therefore reproduces the
    stable/unstable dichotomy as Bunching/Dispersing.  W defaults to the
    dominant eigendirection of P, which maximizes the margin of the verdict.
    A t_probe that is not finite and positive raises ValueError.
    """
    if not 0 < t_probe < math.inf:  # also rejects nan
        raise ValueError("t_probe must be finite and positive")
    P = model.compiled.at(model.compiled.parameter_values(params), point)[0]
    n = P.shape[0]
    if W is None:
        W = dominant_deviation_direction(P)
    W = _check_w(W, n)
    times = np.arange(samples + 1) * (t_probe / samples)
    trace = matrix_exp_solution(P, np.zeros((n, n)), W, times)
    return focusing_profile(trace, W, t_probe)


# ---------------------------------------------------------------------------
# finite-difference cross-check and CSV export


def perturbation_oracle(
    model: Model,
    params: Mapping[str, Fraction | float] | None,
    point: Sequence[float],
    W: Sequence[float],
    t_end: float,
    dt: float,
    eta: float = 1e-6,
) -> Trace:
    """Deviation estimate (x̃(t) - x(t)) / eta from two nonlinear runs.

    Both runs start at the position `point`: the base one at rest, the
    perturbed one with velocity eta·W, both on the kernel `integrate` runs.
    """
    if eta == 0:
        raise ValueError("eta must be nonzero")
    n = model.n
    W = _check_w(W, n)
    starts = [_start(n, (point, np.zeros(n))), _start(n, (point, eta * W))]
    run = _rk4_kernel(model, params)  # kept on the model, where `integrate` finds it
    base, pert = (run(z0, t_end, dt) for z0 in starts)
    states = (pert.states - base.states) / eta
    return Trace(base.times, states, _deviation_names(n), dt, "fd-oracle")


def _write_csv(path, header: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    """Header, then float rows at 17 significant digits (csv.writer's bytes),
    appended in binary 512 rows per bytes `%` so that memory stays flat."""
    import csv

    fmt = (",".join(["%.17g"] * len(header)) + "\r\n").encode()
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
    with open(path, "ab") as fh:
        for i in range(0, len(columns[0]), 512):
            block = np.column_stack([c[i:i + 512] for c in columns])
            fh.write(fmt * len(block) % tuple(block.ravel().tolist()))


def write_trace_csv(trace: Trace, path) -> None:
    """Write a trace as CSV: header t,<state names>, 17 significant digits."""
    _write_csv(path, ["t", *trace.names], [trace.times, trace.states])


def write_profile_csv(profile: FocusingProfile, path) -> None:
    """Write a focusing profile as CSV with header t,norm_sq,t_sq."""
    _write_csv(path, ["t", "norm_sq", "t_sq"], [profile.times, profile.norm_sq, profile.t_sq])
