"""Integration, matrix exponentials, focusing profiles, CSV export."""

import ast
import contextlib
import csv
import hashlib
import io
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kccstab import numerics
from kccstab.cli import main
from kccstab.kcc import Model, ModelError, kcc_deviation
from kccstab.expr import (
    ExprError, canonicalize, compile_callable, exec_generated, mul, p_to_expr, parse,
)
from kccstab.models import TRACTOR_SEAT_REFERENCE_PARAMS, builtin
from kccstab.numerics import (
    BUNCHING,
    DENOMINATOR_FLOOR,
    DISPERSING,
    MIXED,
    FocusingProfile,
    IntegrationError,
    Trace,
    dominant_deviation_direction,
    focusing_profile,
    integrate,
    integrate_deviation,
    jacobi_focusing,
    matrix_exp,
    matrix_exp_solution,
    perturbation_oracle,
    write_profile_csv,
    write_trace_csv,
)
from kccstab.stability import STABLE, UNSTABLE, classify_all

WS_PARAMS = {"a": Fraction(1, 2), "C": 1, "m": -1}
AIRFOIL_PARAMS = {"Minf": Fraction(2017, 256), "V": Fraction(83, 4)}
TRACTOR_PARAMS = dict(TRACTOR_SEAT_REFERENCE_PARAMS)

# (model, params, x0, y0) near a fixed point of each built-in
BUILTIN_STARTS = [
    ("wound_strings", WS_PARAMS, [2.03, 0.98], [0.004, -0.007]),
    ("airfoil", AIRFOIL_PARAMS, [0.157, -0.121], [0.003, 0.001]),
    ("tractor_seat", TRACTOR_PARAMS, [0.02, -0.03, 0.01], [0.005, 0.0, -0.002]),
]


def oscillator():
    # x'' + x/4 = 0  <=>  G = x/8
    return Model("oscillator", ("x1",), (parse("x1/8"),))


# ---------------------------------------------------------------------------
# nonlinear integration


def test_oscillator_closed_form():
    w = 0.3
    tr = integrate(oscillator(), None, ([0.0], [w]), 10.0, 1e-3)
    err = np.max(np.abs(tr.column("x1") - 2 * w * np.sin(tr.times / 2)))
    assert err < 1e-8
    assert tr.dt == 1e-3 and tr.method == "rk4"
    assert tr.names == ("x1", "y1")


def test_fixed_point_trajectory_constant():
    ws = builtin("wound_strings")
    tr = integrate(ws, WS_PARAMS, ([2.0, 1.0], [0.0, 0.0]), 5.0, 1e-2)
    assert np.array_equal(tr.states, np.tile([2.0, 1.0, 0.0, 0.0], (len(tr), 1)))


def test_perturbed_trajectory_relaxes_back():
    ws = builtin("wound_strings")
    tr = integrate(ws, WS_PARAMS, ([2.0, 1.0], [1e-5, 2e-5]), 50.0, 1e-2)
    assert np.max(np.abs(tr.states[-1, :2] - np.array([2.0, 1.0]))) < 1e-3


def test_rk4_fourth_order_convergence():
    w = 0.3
    errs = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        tr = integrate(oscillator(), None, ([0.0], [w]), 5.0, dt)
        errs.append(abs(tr.column("x1")[-1] - 2 * w * np.sin(tr.times[-1] / 2)))
    for coarse, fine in zip(errs, errs[1:]):
        assert 8 <= coarse / fine <= 32  # dt^4 scaling within a factor of 2


# (model, params, x0, y0, t_end, dt): short windows with enough motion that
# the RK4 error at dt and at dt/2 stands well above the reference's; the
# tractor seat is unstable, so its window is shorter
SCIPY_RUNS = [
    ("wound_strings", WS_PARAMS, [2.3, 0.8], [0.3, -0.4], 2.0, 0.05),
    ("airfoil", AIRFOIL_PARAMS, [0.3, -0.1], [0.5, 0.2], 2.0, 0.2),
    ("tractor_seat", TRACTOR_PARAMS, [0.02, -0.03, 0.01], [0.5, 0.0, -0.2], 0.25, 0.00625),
]


def _relative_error_against_dop853(model, params, x0, y0, t_end, dt):
    """max |RK4 state - DOP853 state| over the run, relative to the largest
    reference state component."""
    scipy_integrate = pytest.importorskip("scipy.integrate")
    accel = compile_callable([mul(-2, g) for g in model.g_bound(params)], model.xs + model.ys)
    n = model.n
    tr = integrate(model, params, (x0, y0), t_end, dt)
    ref = scipy_integrate.solve_ivp(
        lambda t, z: [*z[n:], *accel(*z)], (0.0, tr.times[-1]), [*x0, *y0],
        method="DOP853", rtol=1e-12, atol=1e-12, t_eval=tr.times,
    ).y.T
    return np.abs(tr.states - ref).max() / np.abs(ref).max()


@pytest.mark.parametrize("name, params, x0, y0, t_end, dt", SCIPY_RUNS)
def test_integrate_matches_dop853(name, params, x0, y0, t_end, dt):
    m = builtin(name)
    assert _relative_error_against_dop853(m, params, x0, y0, t_end, 1e-3) < 1e-6
    coarse, fine = (_relative_error_against_dop853(m, params, x0, y0, t_end, h)
                    for h in (dt, dt / 2))
    assert 12 <= coarse / fine <= 20, (coarse, fine)  # fourth order: 16


def test_integrate_argument_validation():
    with pytest.raises(ValueError):
        integrate(oscillator(), None, ([0.0], [1.0]), 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate(oscillator(), None, ([0.0], [1.0]), -1.0, 1e-2)


@pytest.mark.parametrize("t_end, dt, match", [
    (float("inf"), 1e-2, "finite and positive"),
    (float("nan"), 1e-2, "finite and positive"),
    (1.0, float("inf"), "finite and positive"),
    (1.0, float("nan"), "finite and positive"),
    # step counts beyond sys.maxsize, rejected before anything is allocated
    (1e30, 1e-3, "steps"),
    (1.0, 1e-300, "steps"),
    (1e300, 1e-300, "steps"),
])
def test_integrate_rejects_non_finite_times_and_huge_step_counts(t_end, dt, match):
    with pytest.raises(ValueError, match=match):
        integrate(oscillator(), None, ([0.0], [1.0]), t_end, dt)
    with pytest.raises(ValueError, match=match):
        integrate_deviation(oscillator(), None, [0.0], [1.0], t_end, dt)


def test_denominator_abort_mid_run():
    # x1(t) = e^{-t} decays into the singular hyperplane x1 = 0:
    # x1'' = x1 - 2 x2/x1 with x2 identically zero.
    decay = Model("decay", ("x1", "x2"), (parse("-x1/2 + x2/x1"), parse("0")))
    with pytest.raises(IntegrationError) as ei:
        integrate(decay, None, ([1.0, 0.0], [-1.0, 0.0]), 30.0, 1e-2)
    # |2 x1| < 1e-10 first holds at t = ln(2e10) ~ 23.72
    assert 23.0 < ei.value.time < 25.0
    assert "denominator" in str(ei.value)


def test_zero_division_aborts_at_the_stage_time():
    # canonically G1 = x1/8, but evaluated as written it divides by x1
    m = Model("cancel", ("x1",), (parse("x1^2/(8*x1)"),))
    with pytest.raises(IntegrationError, match="reached zero") as ei:
        integrate(m, None, ([0.0], [1.0]), 1.0, 0.25)
    assert ei.value.time == 0.0


def test_python_built_deep_model_is_an_expr_error():
    # a Horner form built in Python skips the parser's depth limit; at 600
    # levels binding the parameters (`Model.g_bound`) is an ExprError, not a
    # RecursionError
    x = parse("x1")
    deep = x
    for _ in range(600):
        deep = mul(deep + 1, x)
    with pytest.raises(ExprError, match="nested too deeply to substitute"):
        integrate(Model("h", ("x1",), (deep,)), None, ([0.1], [0.0]), 0.01, 0.001)


def test_denominator_abort_at_start():
    decay = Model("decay", ("x1", "x2"), (parse("-x1/2 + x2/x1"), parse("0")))
    with pytest.raises(IntegrationError) as ei:
        integrate(decay, None, ([1e-12, 0.0], [0.0, 0.0]), 1.0, 1e-2)
    assert ei.value.time == 0.0


# ---------------------------------------------------------------------------
# the generated kernel against the vector-form numpy loop it replaced


def numpy_integrate(model, params, initial, t_end, dt):
    """Vector-form RK4 with compiled field and guard calls per stage."""
    args = model.xs + model.ys
    gs = model.g_bound(params)
    accel = compile_callable([mul(-2, g) for g in gs], args)
    den_fn = compile_callable(
        [p_to_expr(canonicalize(g, args).den, args) for g in gs], args
    )
    n = model.n

    def rhs(t, z):
        if any(abs(d) < DENOMINATOR_FLOOR for d in den_fn(*z)):
            raise IntegrationError(t, "denominator below 1e-10")
        return np.concatenate([z[n:], accel(*z)])

    nsteps = int(round(t_end / dt))
    times = np.arange(nsteps + 1) * dt
    states = np.empty((nsteps + 1, 2 * n))
    z = np.array(list(initial[0]) + list(initial[1]), dtype=float)
    states[0] = z
    with np.errstate(all="ignore"):
        for k in range(1, nsteps + 1):
            t0 = float(times[k - 1])
            k1 = rhs(t0, z)
            k2 = rhs(t0 + 0.5 * dt, z + 0.5 * dt * k1)
            k3 = rhs(t0 + 0.5 * dt, z + 0.5 * dt * k2)
            k4 = rhs(float(times[k]), z + dt * k3)
            z = z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(z)):
                raise IntegrationError(float(times[k]), "state became non-finite")
            states[k] = z
    return times, states


def numpy_deviation(model, params, point, W, t_end, dt):
    """Vector-form RK4 on the frozen deviation system, z' = A z."""
    n = model.n
    a21, a22 = kcc_deviation(model).at_point(params, point)
    A = np.zeros((2 * n, 2 * n))
    A[:n, n:] = np.eye(n)
    A[n:, :n] = a21
    A[n:, n:] = a22
    nsteps = int(round(t_end / dt))
    states = np.empty((nsteps + 1, 2 * n))
    z = np.concatenate([np.zeros(n), np.asarray(W, dtype=float)])
    states[0] = z
    for k in range(1, nsteps + 1):
        k1 = A @ z
        k2 = A @ (z + 0.5 * dt * k1)
        k3 = A @ (z + 0.5 * dt * k2)
        k4 = A @ (z + dt * k3)
        z = z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states[k] = z
    return states


def row_relative_error(a, b) -> float:
    """Largest over rows of max |a - b| divided by max |b| in that row."""
    scale = np.max(np.abs(b), axis=1)
    return float(np.max(np.max(np.abs(a - b), axis=1) / np.where(scale > 0, scale, 1.0)))


def assert_same_abort(model, params, initial, t_end, dt):
    with pytest.raises(IntegrationError) as ref:
        numpy_integrate(model, params, initial, t_end, dt)
    with pytest.raises(IntegrationError) as got:
        integrate(model, params, initial, t_end, dt)
    assert got.value.time == ref.value.time
    assert str(got.value) == str(ref.value)


def test_kernel_bit_identical_on_oscillator_and_builtins():
    cases = [(oscillator(), None, [0.1], [0.3])] + [
        (builtin(name), params, x0, y0) for name, params, x0, y0 in BUILTIN_STARTS
    ]
    for model, params, x0, y0 in cases:
        times, states = numpy_integrate(model, params, (x0, y0), 1.0, 1e-3)
        tr = integrate(model, params, (x0, y0), 1.0, 1e-3)
        assert np.array_equal(tr.times, times)
        assert np.array_equal(tr.states, states), model.name


def test_kernel_deviation_agrees_on_builtins():
    for name, params, x0, y0 in BUILTIN_STARTS:
        model = builtin(name)
        ref = numpy_deviation(model, params, x0, y0, 2.0, 1e-3)
        tr = integrate_deviation(model, params, x0, y0, 2.0, 1e-3)
        assert row_relative_error(tr.states, ref) <= 1e-12, name


def test_deviation_powers_agree_over_10k_steps_on_builtins():
    for name, params, x0, y0 in BUILTIN_STARTS:
        model = builtin(name)
        ref = numpy_deviation(model, params, x0, y0, 10.0, 1e-3)
        tr = integrate_deviation(model, params, x0, y0, 10.0, 1e-3)
        assert tr.states.shape == ref.shape
        assert row_relative_error(tr.states, ref) <= 1e-12, name


def test_one_deviation_step_is_one_vector_rk4_step():
    # one step is R·(0, W), R = R(dt·A); against the stepwise vector form
    # on random linear systems of 1 to 3 positions, within 4 ulps per entry
    rng = np.random.default_rng(104729)
    for _ in range(60):
        n = int(rng.integers(1, 4))
        xs = [f"x{i}" for i in range(1, n + 1)]
        coefs = [Fraction(int(c), 16) for c in rng.integers(-48, 49, size=(n, 2 * n)).flat]
        terms = [" + ".join(f"({coefs[2 * n * i + j]})*{v}"
                            for j, v in enumerate(xs + [f"y{i}" for i in range(1, n + 1)]))
                 for i in range(n)]
        model = Model("linear", tuple(xs), tuple(parse(t) for t in terms))
        W = rng.standard_normal(n)
        ref = numpy_deviation(model, None, [0.0] * n, W, 1e-3, 1e-3)
        tr = integrate_deviation(model, None, [0.0] * n, W, 1e-3, 1e-3)
        assert tr.states.shape == (2, 2 * n) and tr.times.tolist() == [0.0, 1e-3]
        assert same_bits(tr.states[0], ref[0])
        assert np.all(np.abs(tr.states[1] - ref[1]) <= 4 * np.spacing(np.abs(ref[1]))), terms


def test_deviation_overflow_is_quiet_and_agrees_until_it():
    """The tractor seat's origin is unstable: from W = (1e-5, 1e-4, 1e-4) the
    deviation passes the float range near t = 22.4.  With numpy 2.4 the
    stepwise form's first non-finite row is 22,409 and that of the powers is
    22,568; the rows before the first of the two agree."""
    model = builtin("tractor_seat")
    W = [1e-5, 1e-4, 1e-4]
    with np.errstate(all="ignore"):
        ref = numpy_deviation(model, TRACTOR_PARAMS, (0.0, 0.0, 0.0), W, 30.0, 1e-3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tr = integrate_deviation(model, TRACTOR_PARAMS, (0.0, 0.0, 0.0), W, 30.0, 1e-3)
    finite = [np.all(np.isfinite(s), axis=1) for s in (ref, tr.states)]
    end = min(int(np.argmin(f)) for f in finite)
    assert not all(finite[0]) and not all(finite[1]) and end > 20000
    assert row_relative_error(tr.states[:end], ref[:end]) <= 1e-12


_coef = st.fractions(min_value=-3, max_value=3, max_denominator=16)


@given(data=st.data(), n=st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_kernel_matches_numpy_on_random_linear_systems(data, n):
    xs = [f"x{i}" for i in range(1, n + 1)]
    terms = [
        " + ".join(
            f"({data.draw(_coef)})*{v}" for v in xs + [f"y{i}" for i in range(1, n + 1)]
        )
        for _ in range(n)
    ]
    model = Model("linear", tuple(xs), tuple(parse(t) for t in terms))
    x0 = data.draw(st.lists(st.floats(-2, 2), min_size=n, max_size=n))
    y0 = data.draw(st.lists(st.floats(-2, 2), min_size=n, max_size=n))
    times, states = numpy_integrate(model, None, (x0, y0), 0.2, 1e-3)
    tr = integrate(model, None, (x0, y0), 0.2, 1e-3)
    assert np.array_equal(tr.states, states)
    W = [1.0] + y0[1:]
    ref = numpy_deviation(model, None, x0, W, 0.2, 1e-3)
    dev = integrate_deviation(model, None, x0, W, 0.2, 1e-3)
    assert row_relative_error(dev.states, ref) <= 1e-12


def test_kernel_aborts_at_the_reference_times():
    decay = Model("decay", ("x1", "x2"), (parse("-x1/2 + x2/x1"), parse("0")))
    assert_same_abort(decay, None, ([1.0, 0.0], [-1.0, 0.0]), 30.0, 1e-2)
    assert_same_abort(decay, None, ([1e-12, 0.0], [0.0, 0.0]), 1.0, 1e-2)
    # the same decay seen by the second of two guards (x1 stays 0)
    second = Model("second", ("x1", "x2"), (parse("x1/(1 + x1^2)"), parse("-x2/2 + x1/x2")))
    assert_same_abort(second, None, ([0.0, 1.0], [0.0, -1.0]), 30.0, 1e-2)
    # x'' = 10^6 x: the state overflows near t = 0.7
    blowup = Model("blowup", ("x1",), (parse("-500000*x1"),))
    assert_same_abort(blowup, None, ([1.0], [0.0]), 2.0, 1e-3)


def test_kernel_aborts_when_the_state_becomes_nan():
    # x1 moves at 1e8 per unit time and x2 = x3 = 1 stay, so G3 is 0 until
    # x1 passes 1.8e8 near t = 1.7: there both products of G3 overflow, and
    # inf - inf makes y3 nan while x1 is still finite
    cancel = Model("cancel", ("x1", "x2", "x3"),
                   (parse("0"), parse("0"), parse("10^300*x1*x2 - 10^300*x1*x3")))
    assert_same_abort(cancel, None, ([1e7, 1.0, 1.0], [1e8, 0.0, 0.0]), 3.0, 1e-2)


def test_nan_guard_does_not_hide_a_later_guard_below_the_floor():
    # the first denominator x1*x2 - x1*x3 is inf - inf, nan, at the start,
    # and the second, x4 = 1e-11, is below 1e-10; products, not powers, as
    # a float power raises OverflowError where a product gives inf
    quotients = Model("quotients", ("x1", "x2", "x3", "x4"),
                      (parse("1/(x1*x2 - x1*x3)"), parse("0"), parse("0"), parse("1/x4")))
    start = ([1e200, 1e200, 5e199, 1e-11], [0.0] * 4)
    with pytest.raises(IntegrationError) as ei:
        integrate(quotients, None, start, 1.0, 1e-2)
    assert ei.value.time == 0.0
    assert str(ei.value) == "integration aborted at t = 0: denominator below 1e-10"
    assert_same_abort(quotients, None, start, 1.0, 1e-2)


def test_every_guard_is_evaluated_before_any_is_tested():
    # x1 = 1e-11 is below the floor, but the later guard x2^3 at x2 = 1e200
    # raises OverflowError as a float power, and that error comes first
    cube = Model("cube", ("x1", "x2"), (parse("1/x1"), parse("1/x2^3")))
    with pytest.raises(IntegrationError) as ei:
        integrate(cube, None, ([1e-11, 1e200], [0.0, 0.0]), 1.0, 1e-2)
    assert ei.value.time == 0.0
    assert str(ei.value) == "integration aborted at t = 0: state became non-finite"


def test_rk4_loop_calls_nothing_but_integration_error(monkeypatch):
    # the guard and finiteness tests are comparisons and float arithmetic:
    # a step calls nothing unless it aborts
    sources = []

    def capture(src, name, namespace):
        sources.append(src)
        return exec_generated(src, name, namespace)

    monkeypatch.setattr(numerics, "exec_generated", capture)
    for model, params in [(oscillator(), None)] + [(builtin(c[0]), c[1]) for c in BUILTIN_STARTS]:
        numerics._rk4_kernel(model, params)
    assert len(sources) == 4
    for src in sources:
        loop = next(node for node in ast.walk(ast.parse(src)) if isinstance(node, ast.For))
        calls = [node for stmt in loop.body for node in ast.walk(stmt) if isinstance(node, ast.Call)]
        assert calls and all(isinstance(call.func, ast.Name) and call.func.id == "IntegrationError"
                             for call in calls), src


# ---------------------------------------------------------------------------
# starts at rest: one step that maps the state to itself ends the run


# the built-in fixed points of criteria 6c/6d: (model, params, box, seeds)
FIXED_POINT_SETS = [
    ("wound_strings", WS_PARAMS, (-4, 4), 9),
    ("airfoil", AIRFOIL_PARAMS, (-4, 4), 9),
    ("airfoil", {"Minf": Fraction(71, 16384), "V": Fraction(3, 16)}, (-4, 4), 9),
    ("tractor_seat", TRACTOR_PARAMS, (-10, 10), 5),
]


@pytest.fixture(scope="module")
def builtin_fixed_points():
    """(model, params, point, verdict) of every built-in fixed point."""
    out = []
    for name, params, box, seeds in FIXED_POINT_SETS:
        model = builtin(name)
        for fp, rep in classify_all(model, params, box=box, seeds=seeds):
            out.append((model, params, fp.point, rep.verdict))
    return out


def constant_rows(states) -> bool:
    return all(row.tobytes() == states[0].tobytes() for row in states)


def same_bits(a, b) -> bool:
    """Equal shapes and bytes: np.array_equal takes -0.0 for 0.0."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_rest_starts_match_the_full_loop(builtin_fixed_points):
    assert len(builtin_fixed_points) == 9
    for model, params, point, verdict in builtin_fixed_points:
        rest = (point, [0.0] * model.n)
        times, states = numpy_integrate(model, params, rest, 1.0, 1e-3)
        tr = integrate(model, params, rest, 1.0, 1e-3)
        assert np.array_equal(tr.times, times)
        assert same_bits(tr.states, states), (model.name, point)
        # at every stable point one step maps the state to itself exactly
        assert constant_rows(tr.states) or verdict != STABLE, (model.name, point)


def test_negative_zero_start_runs_the_full_loop():
    # the airfoil origin is a rest state, but -0.0 + 0.0 is 0.0: the bytes
    # change in step 1, so the shortcut must not fire
    model = builtin("airfoil")
    start = ([-0.0, 0.0], [0.0, 0.0])
    times, states = numpy_integrate(model, AIRFOIL_PARAMS, start, 1.0, 1e-3)
    tr = integrate(model, AIRFOIL_PARAMS, start, 1.0, 1e-3)
    assert tr.states[1].tobytes() != tr.states[0].tobytes()
    assert same_bits(tr.states, states)


@pytest.mark.parametrize("nsteps", [0, 1, 2])
def test_short_runs_match_the_full_loop(nsteps):
    ws = builtin("wound_strings")
    dt = 1e-2
    t_end = max(nsteps, 0.4) * dt  # rounds to nsteps steps
    for start in (([2.0, 1.0], [0.0, 0.0]), ([2.03, 0.98], [0.004, -0.007])):
        times, states = numpy_integrate(ws, WS_PARAMS, start, t_end, dt)
        tr = integrate(ws, WS_PARAMS, start, t_end, dt)
        assert tr.states.shape == (nsteps + 1, 4)
        assert np.array_equal(tr.times, times)
        assert same_bits(tr.states, states)


def test_perturbation_oracle_at_stable_points_matches_the_full_loop(builtin_fixed_points):
    stable = [case for case in builtin_fixed_points if case[3] == STABLE]
    assert len(stable) == 7
    eta = 1e-6
    for model, params, point, _ in stable:
        n = model.n
        W = 1e-2 * np.ones(n) / np.sqrt(n)
        _, base = numpy_integrate(model, params, (point, np.zeros(n)), 1.0, 1e-3)
        _, pert = numpy_integrate(model, params, (point, eta * W), 1.0, 1e-3)
        po = perturbation_oracle(model, params, point, W, eta=eta, t_end=1.0, dt=1e-3)
        assert same_bits(po.states, (pert - base) / eta), (model.name, point)


def test_perturbation_oracle_compiles_one_kernel_for_both_runs(builtin_fixed_points, monkeypatch):
    # one compile per model and parameter values serves integrate, then both
    # runs of the oracle at every stable point of that model
    stable = [case for case in builtin_fixed_points if case[3] == STABLE]
    eta = 1e-6
    compiled = []

    def counting(*args):
        compiled.append(args[1])
        return exec_generated(*args)

    fresh = {}  # a new copy of each fixture model, with no kernel kept yet
    for model, params, point, _ in stable:
        n = model.n
        W = 1e-2 * np.ones(n) / np.sqrt(n)
        starts = [(point, np.zeros(n)), (point, eta * W)]
        mine = fresh.setdefault(id(model), builtin(model.name))
        with monkeypatch.context() as patch:
            patch.setattr(numerics, "exec_generated", counting)
            base, pert = (integrate(mine, params, start, 1.0, 1e-3) for start in starts)
            run = numerics._rk4_kernel(mine, params)
            po = perturbation_oracle(mine, params, point, W, eta=eta, t_end=1.0, dt=1e-3)
        assert compiled == ["_rk4"] * len(fresh), (model.name, point)
        assert mine.compiled.rk4[1] is run
        for ref, start in zip((base, pert), starts):
            got = run([*map(float, start[0]), *map(float, start[1])], 1.0, 1e-3)
            assert got.times.tobytes() == ref.times.tobytes()
            assert got.states.tobytes() == ref.states.tobytes(), (model.name, point)
        assert po.states.tobytes() == ((pert.states - base.states) / eta).tobytes()
    assert len(fresh) == 3  # wound_strings and airfoil at two parameter points


def test_kernel_is_kept_for_equal_parameter_values(monkeypatch):
    compiled = []

    def counting(*args):
        compiled.append(args[1])
        return exec_generated(*args)

    monkeypatch.setattr(numerics, "exec_generated", counting)
    ws = builtin("wound_strings")
    half = numerics._rk4_kernel(ws, {"a": Fraction(1, 2), "C": 1, "m": -1})
    # equal as numbers: a float, an int and a Fraction of the same value
    assert numerics._rk4_kernel(ws, {"a": 0.5, "C": 1.0, "m": Fraction(-1)}) is half
    assert compiled == ["_rk4"]
    third = numerics._rk4_kernel(ws, {"a": Fraction(1, 3), "C": 1, "m": -1})
    assert third is not half and compiled == ["_rk4"] * 2
    # 1/3 as a float is another exact value, though float(1/3) is the same
    assert numerics._rk4_kernel(ws, {"a": 1 / 3, "C": 1, "m": -1}) is not third
    # the kept kernel is the last one compiled: the first values compile anew
    assert numerics._rk4_kernel(ws, WS_PARAMS) is not half
    assert compiled == ["_rk4"] * 4
    # defaults bind as the values they stand for; another model keeps its own
    seat = builtin("tractor_seat")
    defaults = numerics._rk4_kernel(seat, None)
    assert numerics._rk4_kernel(seat, dict(seat.defaults)) is defaults
    assert numerics._rk4_kernel(builtin("tractor_seat"), None) is not defaults
    assert compiled == ["_rk4"] * 6
    # a binding that fails keeps the kept kernel
    with pytest.raises(ModelError, match="missing value"):
        numerics._rk4_kernel(ws, {"a": 1})
    assert numerics._rk4_kernel(ws, WS_PARAMS) is ws.compiled.rk4[1]
    assert compiled == ["_rk4"] * 6


def test_alternating_parameter_sets_match_fresh_kernels():
    # the kept kernel is replaced back and forth; every trace is that of a
    # kernel compiled for its values on a new model
    cases = [
        ("wound_strings", [WS_PARAMS, {"a": Fraction(3, 4), "C": 2, "m": -1}],
         ([2.03, 0.98], [0.004, -0.007])),
        ("airfoil", [AIRFOIL_PARAMS, {"Minf": Fraction(71, 16384), "V": Fraction(3, 16)}],
         ([0.157, -0.121], [0.003, 0.001])),
    ]
    for name, param_sets, start in cases:
        model = builtin(name)
        point, W = start[0], np.array([0.6, -0.8])
        for params in param_sets * 2:
            got = integrate(model, params, start, 0.5, 1e-2)
            ref = integrate(builtin(name), params, start, 0.5, 1e-2)
            assert same_bits(got.states, ref.states), (name, params)
            po = perturbation_oracle(model, params, point, W, t_end=0.5, dt=1e-2)
            fresh = perturbation_oracle(builtin(name), params, point, W, t_end=0.5, dt=1e-2)
            assert same_bits(po.states, fresh.states), (name, params)


def test_rest_start_below_the_guard_floor_aborts_at_the_reference_time():
    # G vanishes at x2 = 0, so the start is a rest state, but the
    # denominator x1 = 1e-11 is below 1e-10
    quotient = Model("quotient", ("x1", "x2"), (parse("x2/x1"), parse("0")))
    assert_same_abort(quotient, None, ([1e-11, 0.0], [0.0, 0.0]), 1.0, 1e-2)


def test_deviation_rejects_non_finite_matrix():
    # A21 = -4*10^300*x1 overflows to -inf at x1 = 10^10
    huge = Model("huge", ("x1",), (parse("10^300*x1^2"),))
    with pytest.raises(ValueError, match="non-finite"):
        integrate_deviation(huge, None, [1e10], [1.0], 1.0, 1e-2)


# ---------------------------------------------------------------------------
# deviation dynamics


def test_deviation_closed_form_at_fixed_points():
    ws = builtin("wound_strings")
    W = np.array([3e-5, 7e-5])
    for pt in [(2.0, 1.0), (-2.0, -1.0)]:
        tr = integrate_deviation(ws, WS_PARAMS, pt, W, 10.0, 1e-3)
        ref = 2 * np.sin(tr.times[:, None] / 2) * W[None, :]
        assert np.max(np.abs(tr.states[:, :2] - ref)) < 1e-8
        assert tr.names == ("xi1", "xi2", "xidot1", "xidot2")


def test_deviation_rejects_zero_direction():
    ws = builtin("wound_strings")
    with pytest.raises(ValueError, match="nonzero"):
        integrate_deviation(ws, WS_PARAMS, (2.0, 1.0), [0.0, 0.0], 1.0, 1e-2)


def test_matrix_exp_free_motion():
    tr = matrix_exp_solution(
        np.zeros((2, 2)), np.zeros((2, 2)), [1.0, 2.0], np.linspace(0, 1, 11)
    )
    assert np.allclose(tr.column("xi1"), tr.times)
    assert np.allclose(tr.column("xi2"), 2 * tr.times)
    assert tr.method == "expm"


def test_matrix_exp_oscillator_closed_form():
    times = np.linspace(0, 10, 1001)
    tr = matrix_exp_solution(-0.25 * np.eye(2), np.zeros((2, 2)), [1.0, 1.0], times)
    for col in ("xi1", "xi2"):
        assert np.max(np.abs(tr.column(col) - 2 * np.sin(times / 2))) < 1e-10


def test_matrix_exp_vs_rk4_deviation():
    ws = builtin("wound_strings")
    from kccstab.kcc import kcc_deviation

    a21, a22 = kcc_deviation(ws).at_point(WS_PARAMS, (2.0, -1.0))
    rk = integrate_deviation(ws, WS_PARAMS, (2.0, -1.0), [1e-5, 1e-4], 10.0, 1e-3)
    ex = matrix_exp_solution(a21, a22, [1e-5, 1e-4], rk.times)
    assert np.max(np.abs(rk.states - ex.states)) < 1e-7


def test_matrix_exp_semigroup():
    rng = np.random.default_rng(0)
    for _ in range(8):
        A = rng.standard_normal((4, 4)) * 0.5
        lhs = matrix_exp(A * 0.7) @ matrix_exp(A * 0.3)
        assert np.max(np.abs(lhs - matrix_exp(A))) < 1e-10


def test_matrix_exp_known_values():
    A = np.diag([1.0, -2.0])
    assert np.allclose(matrix_exp(A), np.diag([np.e, np.exp(-2)]), rtol=1e-13)
    N = np.array([[0.0, 3.0], [0.0, 0.0]])  # nilpotent: exp = I + N
    assert np.allclose(matrix_exp(N), np.eye(2) + N, rtol=0, atol=1e-15)


@pytest.mark.parametrize("n", range(1, 7))
def test_matrix_exp_matches_scipy(n):
    linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(n)
    for norm in (0.1, 1.0, 5.0, 20.0, 50.0):  # up to 7 squarings
        A = rng.standard_normal((n, n))
        A *= norm / np.linalg.norm(A, 1)
        ref = linalg.expm(A)
        assert np.linalg.norm(matrix_exp(A) - ref, 1) <= 1e-11 * np.linalg.norm(ref, 1), norm


def sequential_exp_solution(A21, A22, W, times):
    """The per-sample loop that matrix_exp_solution's stacked powers replaced:
    v <- E v with E = exp(A dt) on uniform grids from 0, exp(A t) v0 otherwise."""
    n = len(W)
    A = np.block([[np.zeros((n, n)), np.eye(n)], [A21, A22]])
    v = np.concatenate([np.zeros(n), W])
    diffs = np.diff(times)
    if len(times) >= 2 and times[0] == 0.0 and np.allclose(diffs, diffs[0], rtol=1e-12, atol=1e-15):
        E = matrix_exp(A * diffs[0])
        rows = [v]
        for _ in diffs:
            rows.append(E @ rows[-1])
        return np.array(rows)
    return np.array([matrix_exp(A * t) @ v for t in times])


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("kind", ["stable", "unstable"])
def test_stacked_powers_match_sequential_products(n, kind):
    rng = np.random.default_rng(10 * n + (kind == "stable"))
    for _ in range(3):
        B = rng.standard_normal((n, n))
        if kind == "stable":  # A21 negative definite, A22 damping
            A21, A22 = -(B @ B.T + 0.5 * np.eye(n)), -0.2 * np.eye(n)
        else:
            A21, A22 = B @ B.T + 0.5 * np.eye(n), rng.standard_normal((n, n))
        W = rng.standard_normal(n)
        grids = [np.arange(size) * 1e-3 for size in (1, 2, 64, 65, 5001)]
        grids.append(np.array([0.0, 0.1, 0.4, 1.0, 2.5]))
        for times in grids:
            got = matrix_exp_solution(A21, A22, W, times)
            ref = sequential_exp_solution(A21, A22, W, times)
            assert got.states.shape == ref.shape
            assert row_relative_error(got.states, ref) <= 1e-12, (kind, len(times))


def test_non_uniform_times_supported():
    times = np.array([0.0, 0.1, 0.4, 1.0])
    tr = matrix_exp_solution(np.zeros((1, 1)), np.zeros((1, 1)), [2.0], times)
    assert tr.dt is None
    assert np.allclose(tr.column("xi1"), 2 * times)


# ---------------------------------------------------------------------------
# focusing profiles


def test_neutral_motion_is_mixed():
    tr = matrix_exp_solution(
        np.zeros((2, 2)), np.zeros((2, 2)), [1.0, 2.0], np.linspace(0, 1, 101)
    )
    prof = focusing_profile(tr, [1.0, 2.0], t_probe=1.0)
    assert prof.verdict == MIXED  # norm_sq == t^2 exactly: ties are Mixed


def test_stable_point_bunches():
    ws = builtin("wound_strings")
    W = [0.6, 0.8]
    tr = integrate_deviation(ws, WS_PARAMS, (2.0, 1.0), W, 1.0, 5e-3)
    prof = focusing_profile(tr, W)
    assert prof.verdict == BUNCHING
    assert np.all(prof.norm_sq < prof.t_sq)
    assert prof.times[0] > 0 and prof.times[-1] <= 0.5 + 1e-12
    # the adapted norm of the initial deviation velocity is one
    assert abs(prof.norm_sq[0] / prof.t_sq[0] - 1) < 1e-4
    assert np.allclose(prof.t_sq, prof.times ** 2)


def test_degenerate_trace_rejected():
    ws = builtin("wound_strings")
    tr = integrate_deviation(ws, WS_PARAMS, (2.0, 1.0), [1.0, 0.0], 1.0, 0.4)
    with pytest.raises(ValueError, match="degenerate"):
        focusing_profile(tr, [1.0, 0.0])


@pytest.mark.parametrize("t_probe", [float("inf"), float("nan"), -1.0, 0.0])
def test_focusing_rejects_a_probe_window_that_is_not_finite_and_positive(t_probe):
    with pytest.raises(ValueError, match="t_probe"):
        jacobi_focusing(builtin("wound_strings"), WS_PARAMS, (2.0, 1.0), t_probe=t_probe)


def test_profile_rejects_zero_direction():
    tr = matrix_exp_solution(
        np.zeros((1, 1)), np.zeros((1, 1)), [1.0], np.linspace(0, 1, 101)
    )
    with pytest.raises(ValueError):
        focusing_profile(tr, [0.0])


def test_dominant_direction_properties():
    P = np.diag([-1.0, 5.0, -2.0])
    w = dominant_deviation_direction(P)
    assert np.allclose(w, [0.0, 1.0, 0.0])
    # sign convention: first nonzero component positive
    P = np.diag([3.0, 1.0])
    w = dominant_deviation_direction(P)
    assert w[0] > 0 and abs(np.linalg.norm(w) - 1) < 1e-14


def test_focusing_matches_classification_on_builtin_points():
    cases = [
        ("wound_strings", WS_PARAMS, (-4, 4)),
        ("airfoil", AIRFOIL_PARAMS, (-1, 1)),
        ("tractor_seat", dict(TRACTOR_SEAT_REFERENCE_PARAMS), (-10, 10)),
    ]
    for name, params, box in cases:
        m = builtin(name)
        seeds = 5 if name == "tractor_seat" else 9
        for _, rep in classify_all(m, params, box=box, seeds=seeds):
            prof = jacobi_focusing(m, params, rep.point)
            expect = BUNCHING if rep.verdict == STABLE else DISPERSING
            assert rep.verdict in (STABLE, UNSTABLE)
            assert prof.verdict == expect, (name, rep.point)


def test_tractor_reference_plain_frame_profile():
    # With damping present the raw-frame norm dips below t^2 for a very
    # short transient, then stays above it through the probe window.
    tr = builtin("tractor_seat")
    W = [1e-5, 1e-4, 1e-4]
    dev = integrate_deviation(
        tr, TRACTOR_SEAT_REFERENCE_PARAMS, (0.0, 0.0, 0.0), W, 0.5, 5e-3
    )
    prof = focusing_profile(dev, W)
    late = prof.times >= 0.05
    assert np.all(prof.norm_sq[late] > prof.t_sq[late])
    assert prof.verdict in (DISPERSING, MIXED)


# ---------------------------------------------------------------------------
# perturbation oracle


def test_perturbation_oracle_matches_deviation():
    ws = builtin("wound_strings")
    W = [1.0, 2.0]
    po = perturbation_oracle(ws, WS_PARAMS, (2.0, 1.0), W, eta=1e-6,
                             t_end=5.0, dt=1e-3)
    dv = integrate_deviation(ws, WS_PARAMS, (2.0, 1.0), W, 5.0, 1e-3)
    assert np.max(np.abs(po.states[:, :2] - dv.states[:, :2])) < 1e-4
    assert po.method == "fd-oracle"


def test_perturbation_oracle_rejects_zero_eta():
    ws = builtin("wound_strings")
    with pytest.raises(ValueError, match="eta"):
        perturbation_oracle(ws, WS_PARAMS, (2.0, 1.0), [1.0, 0.0], eta=0.0,
                            t_end=1.0, dt=1e-2)


# ---------------------------------------------------------------------------
# CSV export


def test_trace_csv_round_trip(tmp_path):
    ws = builtin("wound_strings")
    tr = integrate(ws, WS_PARAMS, ([2.0, 1.0], [1e-5, 2e-5]), 0.5, 1e-2)
    path = tmp_path / "trace.csv"
    write_trace_csv(tr, path)
    rows = list(csv.reader(path.open()))
    assert rows[0] == ["t", "x1", "x2", "y1", "y2"]
    assert len(rows) == len(tr) + 1
    # 17 significant digits reproduce the doubles exactly
    for k in (1, 17, len(tr)):
        got = [float(v) for v in rows[k]]
        ref = [tr.times[k - 1], *tr.states[k - 1]]
        assert got == ref


def csv_writer_bytes(header, rows, path) -> bytes:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([format(float(v), ".17g") for v in row])
    return path.read_bytes()


def test_csv_bytes_match_csv_writer(tmp_path):
    values = np.array(
        [[-0.0, 1e-05, 5e-324], [1e300, 0.1, -2.5], [np.inf, -np.inf, np.nan]]
    )
    tr = Trace(times=np.array([0.0, 0.1, 1e-05]), states=values,
               names=("x1", "x2", "y1"), dt=None, method="rk4")
    write_trace_csv(tr, tmp_path / "trace.csv")
    expect = csv_writer_bytes(
        ["t", *tr.names], np.column_stack([tr.times, values]), tmp_path / "ref.csv"
    )
    assert (tmp_path / "trace.csv").read_bytes() == expect
    assert b"-0,1.0000000000000001e-05,4.9406564584124654e-324\r\n" in expect

    prof = FocusingProfile(times=np.array([0.1, 0.2]), norm_sq=np.array([-0.0, 1e300]),
                           t_sq=np.array([5e-324, 1e-05]), verdict=MIXED)
    write_profile_csv(prof, tmp_path / "prof.csv")
    expect = csv_writer_bytes(
        ["t", "norm_sq", "t_sq"],
        np.column_stack([prof.times, prof.norm_sq, prof.t_sq]),
        tmp_path / "ref.csv",
    )
    assert (tmp_path / "prof.csv").read_bytes() == expect


@pytest.mark.parametrize("nrows", [1, 511, 512, 513])
def test_block_csv_matches_row_by_row(tmp_path, nrows):
    rng = np.random.default_rng(nrows)
    states = rng.normal(size=(nrows, 3)) * 10.0 ** rng.integers(-300, 300, size=(nrows, 3))
    states[::7, 0] = np.nan
    states[::5, 1] = np.inf
    states[::3, 2] = -np.inf
    tr = Trace(times=np.arange(nrows) * 1e-3, states=states,
               names=("x1", "y1", "z"), dt=1e-3, method="rk4")
    write_trace_csv(tr, tmp_path / "trace.csv")
    expect = csv_writer_bytes(
        ["t", *tr.names], np.column_stack([tr.times, states]), tmp_path / "ref.csv"
    )
    assert (tmp_path / "trace.csv").read_bytes() == expect


@pytest.mark.parametrize("nrows", [511, 512, 513])
def test_csv_bytes_match_csv_writer_on_random_bit_patterns(tmp_path, nrows):
    # any 64-bit pattern, at a block's edge: NaNs with payloads and either
    # sign, -0.0, subnormals and infinities among them
    rng = np.random.default_rng(nrows)
    values = rng.integers(0, 2 ** 64, size=(nrows, 4), dtype=np.uint64, endpoint=False)
    special = np.array([
        0x7FF0000000000001, 0xFFF8000000000123, 0x7FF4DEADBEEF0000, 0xFFFFFFFFFFFFFFFF,
        0x8000000000000000, 0x0000000000000001, 0x800FFFFFFFFFFFFF, 0x0008000000000000,
        0x7FF0000000000000, 0xFFF0000000000000,
    ], dtype=np.uint64)
    at = rng.choice(values.size, size=8 * len(special), replace=False)
    values.flat[at] = np.tile(special, 8)
    values = values.view(np.float64)
    assert np.isnan(values).any() and np.isinf(values).any()

    tr = Trace(times=values[:, 0], states=values[:, 1:], names=("x,1", 'y"1', "z"),
               dt=None, method="rk4")
    write_trace_csv(tr, tmp_path / "trace.csv")
    expect = csv_writer_bytes(["t", *tr.names], values, tmp_path / "ref.csv")
    assert (tmp_path / "trace.csv").read_bytes() == expect
    assert expect.startswith(b't,"x,1","y""1",z\r\n')

    prof = FocusingProfile(times=values[:, 0], norm_sq=values[:, 1], t_sq=values[:, 2],
                           verdict=MIXED)
    write_profile_csv(prof, tmp_path / "prof.csv")
    expect = csv_writer_bytes(["t", "norm_sq", "t_sq"], values[:, :3], tmp_path / "ref.csv")
    assert (tmp_path / "prof.csv").read_bytes() == expect


# The benchmark's seeded start points (seed 104729), run for 2k steps; the
# trajectory digests were recorded before the compiled RK4 stage shared
# subexpressions and before the CSV rows were formatted in blocks, the
# deviation and focusing ones when the deviation became powers of R(dt·A).
SIMULATE_DIGESTS = [
    ("wound_strings", "a=1/2,C=1,m=-1",
     "1.9691790855779099,0.9677882144754251",
     "0.008802453331723718,0.005890124794560523",
     "0.9997627185442998,0.021783172608949165",
     ("deb71658f69b557df38b5b561bcf63fbd829d4d981fe61de8a7665df8d7c73f3",
      "23d8b685f31cee80bcd1f2c883e832dbe1a9e7b31773806e6e046a7bd103b0ea",
      "5f8a24785fa1560de18c2ae32bfa1463dc49b4b2a00894639d65fc0b8a1496e2")),
    ("airfoil", "Minf=2017/256,V=83/4",
     "0.1577076550551505,-0.12172631500184049",
     "0.0053984408520020444,0.003158269171928822",
     "0.9876518695145015,-0.156664560908044",
     ("f4d9353581e801819c99e7266cb7f0d48812aacd3bf69ad129ac95f0068e7cb8",
      "82d866a552cd42d053cb6aa7aa3212162a3a074cc9a6e5e909dfb52a2cfb1b0a",
      "4b939338a6ad9ff6010db26cfe8c55fbd8761bdd823d13a011c05941b6bba31c")),
    ("tractor_seat", "M1=31/5,M2=57,M3=23,K1=20000,K2=37730,K3=1000,C1=750,C2=159,C3=1000",
     "0.04587329382600416,-0.010064649917328063,0.009703305565921319",
     "-0.0012588883719671668,0.002022215968238386,0.003244039073791276",
     "0.2305550762503717,0.005863616043058267,-0.9730416100157716",
     ("27d4296cc05555efd850ada14cfa0b08e7754358701f45f665821b941c1c9917",
      "d6cd0fb407261a287d927885dedd26611a82a4b3836ea1fc856d9c5445a68be0",
      "51cbab54a167e4508853064c831f800f09bf5439593aba0eb994547895851ccc")),
]


@pytest.mark.parametrize("name,params,x0,y0,w,digests", SIMULATE_DIGESTS,
                         ids=[case[0] for case in SIMULATE_DIGESTS])
def test_simulate_csvs_are_byte_stable(tmp_path, name, params, x0, y0, w, digests):
    argv = ["simulate", "--model", name, "--params", params, "--x0", x0, "--y0", y0,
            "--w", w, "--t-end", "2", "--dt", "1e-3", "--out", str(tmp_path)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    got = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
                for f in ("trajectory.csv", "deviation.csv", "focusing.csv"))
    assert got == digests


def test_profile_csv(tmp_path):
    ws = builtin("wound_strings")
    prof = jacobi_focusing(ws, WS_PARAMS, (2.0, 1.0))
    path = tmp_path / "profile.csv"
    write_profile_csv(prof, path)
    rows = list(csv.reader(path.open()))
    assert rows[0] == ["t", "norm_sq", "t_sq"]
    assert len(rows) == 101  # 100 samples in (0, 0.5]
    assert float(rows[-1][0]) == 0.5
    assert all(float(r[1]) < float(r[2]) for r in rows[1:])
