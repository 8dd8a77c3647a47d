"""Fixed-point search, Routh-Hurwitz classification, semialgebraic assembly."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kccstab import kcc
from kccstab.expr import (
    Add,
    BudgetExceededError,
    CanonicalRational,
    Constant,
    Mul,
    Pow,
    Symbol,
    canonicalize,
    det,
    evaluate,
    p_eval,
    parse,
    semantic_equal,
)
from kccstab.kcc import invariants, kcc_deviation
from kccstab.models import BUILTIN_NAMES, TRACTOR_SEAT_CASES, builtin, loads
from kccstab.stability import (
    INDETERMINATE,
    STABLE,
    UNSTABLE,
    Classifier,
    airfoil_region_conditions,
    assemble_semialgebraic,
    char_poly,
    classify,
    classify_all,
    classify_matrix,
    count_stable,
    find_fixed_points,
    hurwitz_determinants,
    hurwitz_matrix,
)

WS_PARAMS = {"a": Fraction(1, 2), "C": 1, "m": -1}
AIRFOIL_PARAMS = {"Minf": Fraction(2017, 256), "V": Fraction(83, 4)}
AIRFOIL_PARAMS_2 = {"Minf": Fraction(71, 16384), "V": Fraction(3, 16)}


def _frac_det(A):
    n = len(A)
    if n == 1:
        return A[0][0]
    total = Fraction(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in A[1:]]
        term = A[0][j] * _frac_det(minor)
        total += term if j % 2 == 0 else -term
    return total


# ---------------------------------------------------------------------------
# characteristic polynomial and Hurwitz machinery


def test_char_poly_exact_against_determinant():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        A = [[Fraction(int(rng.integers(-4, 5))) for _ in range(n)] for _ in range(n)]
        coeffs = char_poly(A)  # [a_1..a_n] of l^n + a_1 l^(n-1) + ... + a_n
        assert len(coeffs) == n
        for lam in (Fraction(0), Fraction(1), Fraction(-1), Fraction(2)):
            lhs = lam ** n + sum(c * lam ** (n - k) for k, c in enumerate(coeffs, 1))
            lamI_minus_A = [
                [(lam if i == j else Fraction(0)) - A[i][j] for j in range(n)]
                for i in range(n)
            ]
            assert lhs == _frac_det(lamI_minus_A)


def test_char_poly_floats_match_numpy():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        A = rng.standard_normal((n, n))
        got = np.array(char_poly(A), dtype=float)
        ref = np.poly(A)[1:]
        assert np.allclose(got, ref, rtol=1e-9, atol=1e-9)


def test_hurwitz_matrix_layout():
    a1, a2, a3 = Fraction(2), Fraction(3), Fraction(4)
    H = hurwitz_matrix([a1, a2, a3])
    # H[i][j] = a_{2j - i} with 1-based indices, a_0 = 1, zero outside range
    expect = [
        [a1, a3, 0],
        [1, a2, 0],
        [0, a1, a3],
    ]
    for i in range(3):
        for j in range(3):
            assert H[i][j] == expect[i][j]


def test_hurwitz_determinants_closed_forms():
    a1, a2 = Fraction(3), Fraction(5)
    assert hurwitz_determinants([a1, a2]) == [a1, a1 * a2]
    a1, a2, a3 = Fraction(2), Fraction(7), Fraction(3)
    assert hurwitz_determinants([a1, a2, a3]) == [
        a1,
        a1 * a2 - a3,
        a3 * (a1 * a2 - a3),
    ]


def test_check_hook_sees_intermediate_products():
    # A is nilpotent, so every coefficient is 0, but A^2 holds p*q
    vars = ("p", "q")
    p, q = (canonicalize(Symbol(v), vars) for v in vars)
    z = CanonicalRational.zero(vars)
    A = [[z, p, z], [z, z, q], [z, z, z]]
    coeffs = char_poly(A)
    assert all(c.is_zero for c in coeffs)

    def budget_check(budget):
        def check(value, context):
            if value.monomial_count() > budget:
                raise BudgetExceededError(value.monomial_count(), budget, context)
        return check

    budget = (p * q).monomial_count() - 1
    assert all(c.monomial_count() <= budget for c in coeffs)
    with pytest.raises(BudgetExceededError, match="characteristic polynomial"):
        char_poly(A, budget_check(budget))
    with pytest.raises(BudgetExceededError, match="Hurwitz determinant 1"):
        hurwitz_determinants(coeffs, budget_check(0))


_POLY_FORMS = ("{a}", "{a}*{s}", "{s} + {a}", "{a}*{s}*{t} - {b}")
_RATIONAL_FORM = "({s} + {a})/({t}^2 + {c})"
_small = st.integers(-3, 3)


@st.composite
def _symbolic_matrix(draw, rational_up_to=4):
    """1x1..4x4 matrices of small expressions in p, q, r.

    Quotient entries appear only up to size `rational_up_to`: without a
    polynomial gcd, canonical characteristic polynomials of larger rational
    matrices grow to thousands of monomials.
    """
    n = draw(st.integers(1, 4))
    forms = _POLY_FORMS + ((_RATIONAL_FORM,) if n <= rational_up_to else ())
    names = st.sampled_from("pqr")

    def entry():
        form = draw(st.sampled_from(forms))
        return parse(form.format(a=draw(_small), b=draw(_small),
                                 c=draw(st.integers(1, 3)), s=draw(names), t=draw(names)))

    return [[entry() for _ in range(n)] for _ in range(n)]


_point = st.fixed_dictionaries(
    {v: st.fractions(-5, 5, max_denominator=9) for v in "pqr"}
)


@settings(max_examples=60, deadline=None)
@given(_symbolic_matrix(), _point)
def test_det_commutes_with_exact_evaluation(M, point):
    at_point = [[evaluate(e, point) for e in row] for row in M]
    assert evaluate(det(M), point) == _frac_det(at_point)


@settings(max_examples=40, deadline=None)
@given(_symbolic_matrix(rational_up_to=2), _point)
def test_char_poly_commutes_with_exact_evaluation(M, point):
    vars = ("p", "q", "r")
    A = [[canonicalize(e, vars) for e in row] for row in M]
    vals = [point[v] for v in vars]
    coeffs = [Fraction(p_eval(c.num, vals)) / p_eval(c.den, vals) for c in char_poly(A)]
    at_point = [[evaluate(e, point) for e in row] for row in M]
    n = len(M)
    for lam in (Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 3)):
        lhs = lam ** n + sum(c * lam ** (n - k) for k, c in enumerate(coeffs, 1))
        lamI_minus_A = [
            [(lam if i == j else 0) - at_point[i][j] for j in range(n)]
            for i in range(n)
        ]
        assert lhs == _frac_det(lamI_minus_A)


def test_det_floats_match_numpy():
    rng = np.random.default_rng(17)
    for n in (1, 2, 3, 4, 5):
        for _ in range(10):
            A = rng.standard_normal((n, n))
            assert det(A.tolist()) == pytest.approx(np.linalg.det(A), rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# matrix classification


def test_classify_matrix_canaries():
    assert classify_matrix(-np.eye(3)).verdict == STABLE
    assert classify_matrix(np.eye(2)).verdict == UNSTABLE
    assert classify_matrix(np.diag([-1.0, 2.0])).verdict == UNSTABLE
    # neutral rotation (pure imaginary pair) sits on the margin
    assert classify_matrix(np.array([[0.0, 1.0], [-1.0, 0.0]])).verdict == (
        INDETERMINATE
    )
    assert classify_matrix(np.zeros((2, 2))).verdict == INDETERMINATE


def test_classify_matrix_agrees_with_eigenvalues():
    rng = np.random.default_rng(23)
    tol = 1e-9
    checked = 0
    while checked < 120:
        n = int(rng.integers(2, 6))
        P = rng.standard_normal((n, n)) * (10.0 ** rng.integers(-2, 3))
        rep = classify_matrix(P, tol=tol)
        scale = np.max(np.abs(P))
        re = np.linalg.eigvals(P).real / scale
        if np.min(np.abs(re)) < 1e-3:
            continue  # too close to the margin to be a fair comparison
        expected = STABLE if np.max(re) < 0 else UNSTABLE
        assert rep.verdict == expected, (P, rep)
        checked += 1


def test_report_contents_at_wound_strings_point():
    ws = builtin("wound_strings")
    rep = classify(ws, WS_PARAMS, (2.0, 1.0))
    assert rep.verdict == STABLE
    # P = -I/4 exactly: char poly s^2 + s/2 + 1/16, both eigenvalues -1/4
    assert np.allclose(rep.char_coeffs, [0.5, 0.0625], atol=1e-13)
    assert np.allclose(sorted(e.real for e in rep.eigenvalues), [-0.25, -0.25])
    assert rep.scale == pytest.approx(0.25)
    assert rep.rh_verdict == rep.eig_verdict == STABLE
    assert min(rep.decision_values) > 1e-9


# ---------------------------------------------------------------------------
# fixed-point search


def test_wound_strings_fixed_points_exact():
    ws = builtin("wound_strings")
    fps = find_fixed_points(ws, WS_PARAMS, box=(-4, 4))
    pts = [fp.point for fp in fps]
    assert len(pts) == 4
    expect = [(-2, -1), (-2, 1), (2, -1), (2, 1)]
    for got, want in zip(pts, expect):  # results come sorted lexicographically
        assert max(abs(g - w) for g, w in zip(got, want)) < 1e-8
    for fp in fps:
        assert fp.residual <= 1e-10 * (1 + max(abs(c) for c in fp.point))
        assert fp.denom_margin > 1e-8


def test_grid_refinement_stability():
    ws = builtin("wound_strings")
    a = find_fixed_points(ws, WS_PARAMS, box=(-4, 4), seeds=9)
    b = find_fixed_points(ws, WS_PARAMS, box=(-4, 4), seeds=13)
    assert len(a) == len(b)
    for fa, fb in zip(a, b):
        assert max(abs(p - q) for p, q in zip(fa.point, fb.point)) < 1e-6


def test_box_filters_results():
    ws = builtin("wound_strings")
    fps = find_fixed_points(ws, WS_PARAMS, box=(0, 4))
    assert len(fps) == 1
    assert max(abs(c - e) for c, e in zip(fps[0].point, (2, 1))) < 1e-8


def test_airfoil_fixed_points_closed_form():
    af = builtin("airfoil")
    fps = find_fixed_points(af, AIRFOIL_PARAMS, box=(-1, 1))
    assert len(fps) == 3
    m, v = (float(AIRFOIL_PARAMS["Minf"]), float(AIRFOIL_PARAMS["V"]))
    x2sq = 5 * (50 * m - v * v) / (m * (v * v * m - 5000))
    x2 = x2sq ** 0.5
    x1 = x2 * (1 + 20 * x2sq)
    expect = [(-x1, x2), (0.0, 0.0), (x1, -x2)]
    for fp, want in zip(fps, expect):
        assert max(abs(g - w) for g, w in zip(fp.point, want)) < 1e-9


def test_tractor_seat_origin_only():
    tr = builtin("tractor_seat")
    for case in TRACTOR_SEAT_CASES:
        fps = find_fixed_points(tr, case, box=(-10, 10), seeds=5)
        assert len(fps) == 1
        assert max(abs(c) for c in fps[0].point) < 1e-9


def test_singular_seeds_fail_alone():
    # The 9-point grid on [-10, 10] holds x1 = 0, where the Jacobian
    # diag(2 x1, 3 x2^2 - 1) is singular: those seeds fail, the rest converge.
    m = loads("model sing\nvars x1 x2\nG1 = x1^2 - 1\nG2 = x2^3 - x2\n")
    pairs = classify_all(m, seeds=9)
    expect = [
        ((-1, -1), UNSTABLE), ((-1, 0), UNSTABLE), ((-1, 1), UNSTABLE),
        ((1, -1), STABLE), ((1, 0), UNSTABLE), ((1, 1), STABLE),
    ]
    assert len(pairs) == len(expect)
    for (fp, rep), (point, verdict) in zip(pairs, expect):
        assert max(abs(c - w) for c, w in zip(fp.point, point)) < 1e-12
        assert rep.verdict == verdict


# ---------------------------------------------------------------------------
# per-model compiled data

CHAIN2 = """model chain2
params k q b c
vars x1 x2
G1 = (k*x1 + q*(2*x1 - x2) - b*x1^3 + c*y1)/(2*(1 + x1^2))
G2 = (k*x2 + q*(2*x2 - x1) - b*x2^3 + c*y2)/(2*(1 + x2^2))
"""


@pytest.fixture(scope="module")
def oracle_models():
    models = {name: builtin(name) for name in BUILTIN_NAMES}
    models["chain2"] = loads(CHAIN2)
    return models


def _magnitude(e, vals):
    """|e| with every sum replaced by the sum of its terms' magnitudes.

    Float evaluation rounds each term relative to its own size, so this is
    the scale its error is relative to; it equals |e| unless an entry is a
    difference of larger terms.  The test models' denominators are sums of
    positive terms or products, so their exact values set the scale there.
    """
    if isinstance(e, Constant):
        return abs(e.value)
    if isinstance(e, Symbol):
        return abs(vals[e.name])
    if isinstance(e, Add):
        return sum(_magnitude(a, vals) for a in e.args)
    if isinstance(e, Mul):
        return math.prod(_magnitude(a, vals) for a in e.args)
    if isinstance(e, Pow):
        if e.exp < 0:
            return abs(evaluate(e.base, vals)) ** e.exp
        return _magnitude(e.base, vals) ** e.exp
    return _magnitude(e.num, vals) / abs(evaluate(e.den, vals))


def _close(got, e, vals):
    return abs(got - float(evaluate(e, vals))) <= 1e-12 * _magnitude(e, vals)


# Positions |x| in [1/4, 4] and positive parameters in [1/4, 4] keep every
# denominator of the models away from zero.  Positions and velocities are
# dyadic, so the floats passed in equal the exact values.
_position = st.builds(lambda k, s: s * k / 64, st.integers(16, 256), st.sampled_from((-1, 1)))
_velocity = st.integers(-128, 128).map(lambda k: k / 64)
_param = st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=97)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_compiled_matrices_match_exact_evaluation(oracle_models, data):
    name = data.draw(st.sampled_from(sorted(oracle_models)))
    m = oracle_models[name]
    params = {p: data.draw(_param) for p in m.params}
    x = [data.draw(_position) for _ in range(m.n)]
    y = [data.draw(_velocity) for _ in range(m.n)]
    exact = {**params, **{s: Fraction(v) for s, v in zip(m.xs + m.ys, x + y)}}
    P = Classifier(m, params).curvature_at(x, y)
    for i, row in enumerate(invariants(m).P):
        for j, e in enumerate(row):
            assert _close(P[i][j], e, exact), (name, i, j)
    dev = kcc_deviation(m)
    for got, sym in zip(dev.at_point(params, x, y), (dev.A21, dev.A22)):
        for i in range(m.n):
            for j in range(m.n):
                assert _close(got[i][j], sym[i][j], exact), (name, i, j)


def test_model_derives_and_compiles_once(monkeypatch):
    built, compiled = [], []
    real_invariants, real_compile = kcc.invariants, kcc.compile_callable
    monkeypatch.setattr(kcc, "invariants", lambda m: built.append(m) or real_invariants(m))
    monkeypatch.setattr(
        kcc, "compile_callable",
        lambda exprs, names: compiled.append(len(exprs)) or real_compile(exprs, names),
    )
    af = builtin("airfoil")
    loads(CHAIN2)
    assert built == [] and compiled == []
    for k in range(5):
        params = {"Minf": Fraction(2017 + k, 256), "V": Fraction(83, 4)}
        assert count_stable(af, params, box=(-1, 1), seeds=5) == 2
    assert built == [af]
    assert compiled == [4]  # the 2 x 2 curvature P


# ---------------------------------------------------------------------------
# classification of the built-in models


def test_wound_strings_all_stable():
    ws = builtin("wound_strings")
    pairs = classify_all(ws, WS_PARAMS, box=(-4, 4))
    assert len(pairs) == 4
    assert all(rep.verdict == STABLE for _, rep in pairs)
    assert count_stable(ws, WS_PARAMS, box=(-4, 4)) == 4


def test_airfoil_reference_classification():
    af = builtin("airfoil")
    pairs = classify_all(af, AIRFOIL_PARAMS, box=(-1, 1))
    verdicts = [rep.verdict for _, rep in pairs]
    assert verdicts == [STABLE, UNSTABLE, STABLE]


def test_airfoil_small_mach_case():
    af = builtin("airfoil")
    pairs = classify_all(af, AIRFOIL_PARAMS_2)
    assert len(pairs) == 1
    assert max(abs(c) for c in pairs[0][1].point) < 1e-9
    assert pairs[0][1].verdict == STABLE


def test_tractor_all_cases_unstable():
    tr = builtin("tractor_seat")
    for case in TRACTOR_SEAT_CASES:
        rep = classify(tr, case, (0.0, 0.0, 0.0))
        assert rep.verdict == UNSTABLE


# ---------------------------------------------------------------------------
# semialgebraic assembly


def test_semialgebraic_equations_vanish_at_fixed_points():
    ws = builtin("wound_strings")
    sa = assemble_semialgebraic(ws, WS_PARAMS)
    assert sa.vars == ("x1", "x2")
    for pt in [(2, 1), (2, -1), (-2, 1), (-2, -1)]:
        vals = [Fraction(c) for c in pt]
        for eq in sa.equations:
            assert p_eval(eq, vals) == 0
        for ne in sa.inequations:
            assert p_eval(ne, vals) != 0
        for gt in sa.inequalities:
            assert p_eval(gt, vals) > 0  # all four points are Jacobi stable


def test_semialgebraic_symbolic_variables():
    ws = builtin("wound_strings")
    sa = assemble_semialgebraic(ws)
    assert sa.vars == ("x1", "x2", "a", "C", "m")
    assert len(sa.equations) == 2
    assert len(sa.inequalities) == 3  # a_n > 0 plus two Hurwitz minors


def test_semialgebraic_constant_denominators_drop():
    tr = builtin("tractor_seat")
    sa = assemble_semialgebraic(tr)
    assert len(sa.inequations) == 1
    assert list(sa.inequations[0].values()) == [1]


def test_semialgebraic_budget_abort():
    ws = builtin("wound_strings")
    with pytest.raises(BudgetExceededError, match="budget"):
        assemble_semialgebraic(ws, budget=10)


def test_render_tags():
    ws = builtin("wound_strings")
    lines = assemble_semialgebraic(ws, WS_PARAMS).render()
    assert any(ln.startswith("EQ:") for ln in lines)
    assert any(ln.startswith("NEQ:") for ln in lines)
    assert any(ln.startswith("GT:") for ln in lines)


# ---------------------------------------------------------------------------
# airfoil parameter regions


def test_region_reference_points():
    rep = airfoil_region_conditions(Fraction(2017, 256), Fraction(83, 4))
    assert (rep.label, rep.stable_count, rep.boundary) == ("C5", 2, False)
    rep = airfoil_region_conditions(Fraction(71, 16384), Fraction(3, 16))
    assert (rep.label, rep.stable_count, rep.boundary) == ("C2", 1, False)


def test_region_boundary_detection():
    # V^2 = 50*Minf makes one region polynomial vanish identically
    rep = airfoil_region_conditions(Fraction(2), Fraction(10))
    assert rep.boundary
    rep = airfoil_region_conditions(Fraction(10), Fraction(22))
    assert rep.boundary  # the shared (Minf - 10) factor vanishes


def test_region_no_match_possible():
    rep = airfoil_region_conditions(Fraction(8), Fraction(26))
    assert rep.label is None and not rep.boundary


def test_region_values_carry_all_polynomials():
    rep = airfoil_region_conditions(Fraction(11), Fraction(22))
    assert set(rep.values) == {"R1", "R2", "R3", "R4", "R5", "R6"}
    assert rep.label == "C1" and rep.stable_count == 1
