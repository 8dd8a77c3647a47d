"""Fixed-point search, Routh-Hurwitz classification, semialgebraic assembly."""

import itertools
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kccstab import kcc, stability
from kccstab.expr import (
    Add,
    BudgetExceededError,
    CanonicalRational,
    Constant,
    ExprError,
    Mul,
    ParameterBinder,
    Pow,
    Symbol,
    ZeroDenominatorError,
    _canon_pair,
    add,
    canonicalize,
    compile_callable,
    det,
    div,
    evaluate,
    mul,
    p_diff,
    p_eval,
    p_exquo,
    p_gcd,
    p_to_expr,
    parse,
    pow_,
    semantic_equal,
    sub,
    substitute,
)
from kccstab.kcc import invariants, kcc_deviation
from kccstab.models import (
    BUILTIN_NAMES,
    TRACTOR_SEAT_CASES,
    TRACTOR_SEAT_REFERENCE_PARAMS,
    builtin,
    loads,
)
from kccstab.stability import (
    INDETERMINATE,
    STABLE,
    UNSTABLE,
    Classifier,
    FixedPoint,
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

from shared_data import chain_model_text

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
    H = hurwitz_matrix([1, a1, a2, a3])
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
    assert hurwitz_determinants([1, a1, a2]) == [a1, a1 * a2]
    a1, a2, a3 = Fraction(2), Fraction(7), Fraction(3)
    assert hurwitz_determinants([1, a1, a2, a3]) == [
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
        hurwitz_determinants([CanonicalRational.const(1, vars)] + coeffs, budget_check(0))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.fractions(-5, 5, max_denominator=9), min_size=1, max_size=5))
def test_hurwitz_determinants_are_the_leading_minors(coeffs):
    # Delta_1 = a_1 and Delta_n = a_n Delta_{n-1} replace two expansions
    H = hurwitz_matrix([1] + coeffs)
    assert hurwitz_determinants([1] + coeffs) == [
        det([row[:k] for row in H[:k]]) for k in range(1, len(coeffs) + 1)
    ]


@pytest.mark.parametrize("name", ["wound_strings", "airfoil", "tractor_seat"])
def test_last_symbolic_minor_is_the_full_determinant(name):
    sa = assemble_semialgebraic(builtin(name))
    assert sa.hurwitz_dets[-1] == det(hurwitz_matrix([CanonicalRational.const(1, sa.vars)] + sa.char_coeffs))


_POLY_FORMS = ("{a}", "{a}*{s}", "{s} + {a}", "{a}*{s}*{t} - {b}")
_RATIONAL_FORM = "({s} + {a})/({t}^2 + {c})"
_small = st.integers(-3, 3)


@st.composite
def _symbolic_matrix(draw, rational_up_to=4, max_size=4):
    """1x1..max_size x max_size matrices of small expressions in p, q, r.

    Quotient entries appear only up to size `rational_up_to`: without a
    polynomial gcd, canonical characteristic polynomials of larger rational
    matrices grow to thousands of monomials.
    """
    n = draw(st.integers(1, max_size))
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
@given(_symbolic_matrix(max_size=6), _point)
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


def test_char_poly_matches_sympy_on_polynomial_matrices():
    """Over CanonicalRational, random 5x5 matrices of integer polynomials in
    two variables have sympy's characteristic polynomial, with denominator 1."""
    sympy = pytest.importorskip("sympy")
    vars = ("p", "q")
    p, q = sympy.symbols(vars)
    lam = sympy.Symbol("lam")
    rng = random.Random(104729)

    def entry():
        return sum(rng.randint(-5, 5) * p ** rng.randint(0, 2) * q ** rng.randint(0, 2) for _ in range(3))

    def as_sympy(poly):
        return sum(c * p ** m[0] * q ** m[1] for m, c in poly.items())

    for _ in range(4):
        M = sympy.Matrix(5, 5, lambda i, j: entry())
        A = [[canonicalize(parse(str(e).replace("**", "^")), vars) for e in row] for row in M.tolist()]
        coeffs = char_poly(A)
        assert all(c.den == {(0, 0): 1} for c in coeffs)
        want = M.charpoly(lam).all_coeffs()[1:]
        assert [sympy.expand(as_sympy(c.num) - w) for c, w in zip(coeffs, want)] == [0] * 5


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


def _chain_draw(n, draw):
    rng = random.Random(1000 * n + draw)
    return {"k": Fraction(rng.randint(12, 20), 16), "q": Fraction(rng.randint(1, 3), 16),
            "b": Fraction(rng.randint(3, 5), 16), "c": Fraction(rng.randint(1, 4), 16)}


@pytest.fixture(scope="module")
def chains():
    return {n: loads(chain_model_text(n)) for n in (3, 4)}


_BUILTIN_SETS = [
    ("wound_strings", WS_PARAMS, (-4, 4), 9),
    ("airfoil", AIRFOIL_PARAMS, (-4, 4), 9),
    ("airfoil", AIRFOIL_PARAMS_2, (-4, 4), 9),
    ("tractor_seat", TRACTOR_SEAT_REFERENCE_PARAMS, (-10, 10), 5),
]


def _reports_match_per_point(model, params, box, seeds):
    pairs = classify_all(model, params, box=box, seeds=seeds)
    clf = Classifier(model, params)
    assert pairs
    assert [rep for _, rep in pairs] == [
        classify_matrix(clf.curvature_at(fp.point), fp.point) for fp, _ in pairs
    ]


@pytest.mark.parametrize("name, params, box, seeds", _BUILTIN_SETS)
def test_batched_reports_equal_per_point_reports(name, params, box, seeds):
    _reports_match_per_point(builtin(name), params, box, seeds)


@pytest.mark.parametrize("n", [3, 4])
def test_batched_chain_reports_equal_per_point_reports(chains, n):
    _reports_match_per_point(chains[n], _chain_draw(n, 0), None, 5)


def _hexes(values):
    return [float(v).hex() for v in values]


def test_stacked_classification_matches_python_floats():
    """Each report of one stacked pass has the values computed for its
    matrix alone with Python floats: raw coefficients and minors from P,
    decision values from P / scale."""
    rng = np.random.default_rng(29)
    for n in (1, 2, 3, 4):
        Ps = rng.standard_normal((6, n, n)) * 10.0 ** rng.integers(-3, 4, size=(6, 1, 1))
        Ps[2] = 0.0
        for P, rep in zip(Ps, stability.classify_matrices(Ps, [()] * len(Ps))):
            rows = P.tolist()
            coeffs = char_poly(rows)
            assert _hexes(rep.char_coeffs) == _hexes(coeffs)
            assert _hexes(rep.hurwitz) == _hexes(hurwitz_determinants([1.0] + coeffs))
            scale = max(abs(v) for row in rows for v in row)
            assert rep.scale == scale
            if scale == 0.0:
                assert rep.decision_values == (0.0,) * (n + 1)
                continue
            normalized = char_poly([[v / scale for v in row] for row in rows])
            decision = [normalized[-1]] + hurwitz_determinants([1.0] + normalized)
            assert _hexes(rep.decision_values) == _hexes(decision)


def test_zero_matrix_classifies_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert classify_matrix(np.zeros((2, 2))).verdict == INDETERMINATE


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


def test_overflowing_seeds_fail_alone():
    # At the seeds x2 = +-10 of the default 9-point grid on [-10, 10],
    # 10^300 x2^9 overflows to inf: those seeds fail, the rest converge.
    m = loads("model ovf\nvars x1 x2\nG1 = x1 - 1\nG2 = 10^300*x2^9 + x2\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        fps = find_fixed_points(m)
    assert [fp.point for fp in fps] == [(1, 0)]


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("draw", range(3))
def test_dedup_keeps_the_first_seed_of_each_root(chains, monkeypatch, n, draw):
    m, params = chains[n], _chain_draw(n, draw)
    got = find_fixed_points(m, params, seeds=5)
    in_print_order, radius = stability._in_print_order, stability.DEFAULT_DEDUP_RADIUS
    # every converged candidate, in seed order
    monkeypatch.setattr(stability, "_first_of_each_root", lambda x: range(len(x)))
    monkeypatch.setattr(stability, "_in_print_order", list)
    candidates = find_fixed_points(m, params, seeds=5)
    kept = []
    for fp in candidates:
        if all(max(abs(a - b) for a, b in zip(fp.point, q.point)) > radius for q in kept):
            kept.append(fp)
    assert len(kept) == 3 ** n < len(candidates)
    assert got == in_print_order(kept)


def _reference_fixed_points(model, params, box, seeds):
    """The Newton search with separate evaluators, coefficients embedded, for
    the numerators, their Jacobian and the denominators, and the same
    stacked `np.linalg.solve` steps."""
    n, xs = model.n, model.xs
    nums, dens, divisors = model.compiled.fixed_points.bind(model.binding(params))
    dens = dens + divisors
    jac = [p_diff(p, j) for p in nums for j in range(n)]
    f_num, f_jac, f_den = (
        compile_callable([p_to_expr(p, xs) for p in polys], xs) for polys in (nums, jac, dens)
    )

    def rows(fn, x):
        vals = fn(*x.T)
        out = np.empty((len(x), len(vals)))
        for j, v in enumerate(vals):
            out[:, j] = v
        return out

    def steps(J, rhs):
        try:
            return np.linalg.solve(J, rhs[..., None])[..., 0], np.ones(len(J), dtype=bool)
        except np.linalg.LinAlgError:
            dx, solved = np.zeros_like(rhs), np.ones(len(J), dtype=bool)
            for k in range(len(J)):
                try:
                    dx[k] = np.linalg.solve(J[k], rhs[k])
                except np.linalg.LinAlgError:
                    solved[k] = False
            return dx, solved

    bounds = stability._normalize_box(box, n)
    escape = 10.0 * max(hi - lo for lo, hi in bounds) + 100.0
    X = np.array(list(itertools.product(*[np.linspace(lo, hi, seeds) for lo, hi in bounds])))
    converged = np.zeros(len(X), dtype=bool)
    active = np.arange(len(X))
    with np.errstate(all="ignore"):
        for _ in range(stability.MAX_NEWTON_STEPS):
            if not len(active):
                break
            x = X[active]
            F, J = rows(f_num, x), rows(f_jac, x).reshape(-1, n, n)
            ok = np.isfinite(F).all(axis=1) & np.isfinite(J).all(axis=(1, 2))
            dx, solved = steps(J[ok], -F[ok])
            active, x = active[ok][solved], x[ok][solved] + dx[solved]
            X[active] = x
            size = np.abs(x).max(axis=1)
            escaped = size > escape
            done = ~escaped & (np.abs(dx[solved]).max(axis=1) <= 1e-12 * (1.0 + size))
            converged[active[done]] = True
            active = active[~escaped & ~done]
        x = X[converged]
        lo, hi = np.array(bounds).T
        keep = ((x >= lo - 1e-9) & (x <= hi + 1e-9)).all(axis=1)
        dvals = np.abs(rows(f_den, x))
        margin = dvals[:, :n].min(axis=1)
        keep &= dvals.min(axis=1) > stability.DEFAULT_DENOM_MARGIN
        resid = np.abs(rows(f_num, x) / dvals[:, :n]).max(axis=1)
        keep &= resid <= stability.DEFAULT_RESIDUAL_SCALE * (1.0 + np.abs(x).max(axis=1))
    x, resid, margin = x[keep], resid[keep], margin[keep]
    return stability._in_print_order([
        FixedPoint(tuple(x[i].tolist()), float(resid[i]), float(margin[i]))
        for i in stability._first_of_each_root(x)
    ])


def _airfoil_region_points(per_region=5):
    """(params, box) of `per_region` seeded (Minf, V) points in each of C1..C5,
    the box sized from the nonzero fixed-point pair as in the benchmark."""
    rng = random.Random(104729)
    picked = {label: [] for label, _, _ in stability.AIRFOIL_REGIONS}
    while any(len(v) < per_region for v in picked.values()):
        # C3 is a thin region: half the draws go to a window around it
        c3 = len(picked["C3"]) < per_region and rng.random() < 0.5
        minf = Fraction(rng.randint(41000 if c3 else 41, 49152), 4096)
        v = Fraction(rng.randint(83968, 99942) if c3 else rng.randint(41, 122880), 4096)
        label = airfoil_region_conditions(minf, v).label
        if label is None or len(picked[label]) >= per_region:
            continue
        half, den = 2.0, minf * (v * v * minf - 5000)
        if den and (x2_sq := 5 * (50 * minf - v * v) / den) > 0:
            x2 = float(x2_sq) ** 0.5
            half = max(2.0, 1.5 * x2 * (1 + 20 * x2 * x2))
        picked[label].append(({"Minf": minf, "V": v}, (-half, half)))
    return [point for points in picked.values() for point in points]


def _search_cases():
    for name, params, box, seeds in _BUILTIN_SETS:
        yield builtin(name), params, box, seeds
    airfoil = builtin("airfoil")
    for params, box in _airfoil_region_points():
        yield airfoil, params, box, 5
    for n in (3, 4):
        chain = loads(chain_model_text(n))
        for draw in range(3):
            yield chain, _chain_draw(n, draw), None, 5


def test_fixed_points_match_the_reference_search():
    """One fused evaluator call per iteration gives exactly the fixed points
    of the search with separate evaluators."""
    cases = list(_search_cases())
    assert len(cases) == 4 + 25 + 6
    for model, params, box, seeds in cases:
        got = find_fixed_points(model, params, box=box, seeds=seeds)
        assert got, (model.name, params)
        assert [repr(fp) for fp in got] == [
            repr(fp) for fp in _reference_fixed_points(model, params, box, seeds)
        ], (model.name, params)


def test_points_sort_as_printed():
    # 1.8749999999999998 prints as 1.875, so the second coordinate decides
    a = FixedPoint((1.8749999999999998, 0.625), 0.0, 1.0)
    b = FixedPoint((1.875, -0.625), 0.0, 1.0)
    assert stability._in_print_order([a, b]) == [b, a]


# ---------------------------------------------------------------------------
# per-model compiled data


@pytest.fixture(scope="module")
def oracle_models():
    models = {name: builtin(name) for name in BUILTIN_NAMES}
    models["chain2"] = loads(chain_model_text(2))
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


def test_state_evaluator_matches_each_matrix_compiled_alone(oracle_models):
    # P, A21 and A22 share subtrees in one evaluator; each entry must still
    # have the float operations it has when its matrices are compiled alone
    rng = random.Random(104729)
    for name, m in oracle_models.items():
        compiled, inv = m.compiled, m.compiled.invariants
        names = m.xs + m.ys + m.params
        alone = [
            compile_callable([e for M in matrices for row in M for e in row], names)
            for matrices in ((inv.P,), (inv.A21, inv.A22))
        ]
        for _ in range(25):
            params = [rng.uniform(0.25, 4) for _ in m.params]
            x = [rng.choice((-1, 1)) * rng.uniform(0.25, 4) for _ in range(m.n)]
            for y in (None, [rng.uniform(-2, 2) for _ in range(m.n)]):
                got = [v for M in compiled.at(params, x, y) for v in M.ravel().tolist()]
                want = [v for f in alone for v in f(*x, *(y or [0.0] * m.n), *params)]
                assert [v.hex() for v in got] == [float(v).hex() for v in want], name


def test_model_derives_and_compiles_once(monkeypatch):
    built, compiled = [], []
    real_invariants, real_compile = kcc.invariants, kcc.compile_callable
    monkeypatch.setattr(kcc, "invariants", lambda m: built.append(m) or real_invariants(m))
    monkeypatch.setattr(
        kcc, "compile_callable",
        lambda exprs, names: compiled.append(len(exprs)) or real_compile(exprs, names),
    )
    af = builtin("airfoil")
    loads(chain_model_text(2))
    assert built == [] and compiled == []
    for k in range(5):
        params = {"Minf": Fraction(2017 + k, 256), "V": Fraction(83, 4)}
        assert count_stable(af, params, box=(-1, 1), seeds=5) == 2
    assert built == [af]
    # fixed-point numerators with their 2 x 2 Jacobian, the denominators,
    # then the state evaluator of the 2 x 2 matrices P, A21 and A22; nothing
    # is compiled per parameter point
    assert compiled == [6, 2, 12]
    # the higher invariants are derived once too
    inv = af.compiled.invariants
    for name in ("torsion", "riemann", "douglas"):
        assert getattr(inv, name) is getattr(inv, name)
    # a deviation system holds copies of the blocks: editing them leaves
    # the invariants as they are
    dev = kcc_deviation(af)
    dev.A21[0][0] = dev.A22[0][0] = None
    assert None not in inv.A21[0] + inv.A22[0]
    assert built == [af]


# ---------------------------------------------------------------------------
# the fixed-point system: forms built once per model, exact check per point

DEGEN = """model degen
params p
vars x1
G1 = (x1^2 + p)/(x1*(x1 + 1)) + y1
"""


def _unbound(model, params):
    """The positions and the parameters without a value, in model order."""
    return model.xs + tuple(p for p in model.params if p not in params)


def _substituted_pairs(model, params):
    """The reference pairs: the values substituted, then the velocities set
    to 0, and each G_i canonicalized over the positions and the parameters
    left unbound."""
    zeros = {y: 0 for y in model.ys}
    made = [canonicalize(substitute(substitute(g, params), zeros), _unbound(model, params))
            for g in model.G]
    return [cr.num for cr in made], [cr.den for cr in made]


def _reduced(pairs, xs):
    """Each pair divided by its gcd and normalized as `canonicalize` does."""
    out = [_canon_pair(xs, p_exquo(n, g), p_exquo(d, g)) for n, d in zip(*pairs) for g in [p_gcd(n, d)]]
    return [cr.num for cr in out], [cr.den for cr in out]


@pytest.fixture(scope="module")
def fixed_point_models():
    models = {name: builtin(name) for name in BUILTIN_NAMES}
    models["chain1"] = loads(chain_model_text(1))
    models["chain2"] = loads(chain_model_text(2))
    return models


def test_degenerate_parameters_take_the_exact_path():
    m = loads(DEGEN)
    system = m.compiled.fixed_points
    # at p = 0 the x1 of the numerator cancels against the denominator's: the
    # reduced form is x1/(x1 + 1), whose root x1 = 0 is a zero of the divisor
    # x1*(x1 + 1) of G as written, so it is not a fixed point
    for p in (0, Fraction(-1, 4)):
        assert system.bind({"p": p})[:2] == _reduced(_substituted_pairs(m, {"p": p}), m.xs)
    assert find_fixed_points(m, {"p": 0}) == []
    fps = find_fixed_points(m, {"p": Fraction(-1, 4)})
    assert [fp.point for fp in fps] == [(-0.5,), (0.5,)]
    assert [fp.denom_margin for fp in fps] == [1.0, 3.0]
    assert find_fixed_points(m, {"p": 1}) == []


def test_two_position_denominators_in_one_sum_take_the_exact_path():
    # at p = 1 the two denominators coincide and the reduced form is
    # (-3 x1 - 1)/(x1 + 1); the generic pair, bound, is (x1 + 1) times that,
    # and without the gcd would give the margin 4/9
    m = loads("model twin\nparams p\nvars x1\nG1 = 1/(x1 + p) + 1/(x1 + 1) - 3\n")
    params = {"p": 1}
    assert m.compiled.fixed_points.bind(params)[:2] == _reduced(_substituted_pairs(m, params), m.xs)
    (fp,) = find_fixed_points(m, params)
    assert fp.point == pytest.approx((-1 / 3,)) and fp.denom_margin == pytest.approx(2 / 3)


@pytest.mark.parametrize("source, params, generic", [
    # `generic` marks the points where G at y = 0 is a polynomial in the
    # positions with every position monomial of the generic pair, so the
    # bound coefficients over their content are the pair and no gcd is taken
    ("G1 = x1/(p*x1^2 + 1)", {"p": -1, "q": 1}, False),
    # p = 0 drops a term over 1 + x1: the reduced form is x1 + 1, while the
    # generic pair, bound, is (x1 + 1)^2/(x1 + 1)
    ("G1 = x1 + 1 - p/(1 + x1)", {"p": 0, "q": 1}, False),
    ("G1 = x1 + 1 - p/(1 + x1)", {"p": 2, "q": 1}, False),
    # a parameter-only divisor: q = 0 divides by zero before the velocity is
    # set to 0
    ("G1 = 2*x1 + y1/q", {"p": 1, "q": 0}, False),
    # at q = 1 the partial sum -1 + (q x1 + 1)/(x1 + 1) vanishes, which
    # drops the factor x1 + 1 from the substituted form; the generic pair,
    # bound, is x1 (x1 + 1)^2/(x1 + 1)
    ("G1 = -1 + (q*x1 + 1)/(x1 + 1) + x1^2 + x1", {"p": 1, "q": 1}, False),
    ("G1 = -1 + (q*x1 + 1)/(x1 + 1) + x1^2 + x1", {"p": 1, "q": 2}, False),
    # p = 1 splices the inner sum into the outer one, where x1 plus its
    # first term vanishes; the reduced generic pair is already a polynomial,
    # x1^2*p + x1 over 1, so binding it needs no gcd
    ("G1 = x1 + p*(-x1*(x1 + 1)/(x1 + 1) + x1^2 + x1)", {"p": 1, "q": 1}, True),
    ("G1 = x1 + p*(-x1*(x1 + 1)/(x1 + 1) + x1^2 + x1)", {"p": 2, "q": 1}, True),
    # the same, through a quotient: at p = 1, 1/(p*(1/B)) becomes B itself;
    # the reduced generic pair is x1^2 + x1*p over p
    ("G1 = x1 + 1/(p*(1/(-x1*(x1 + 1)/(x1 + 1) + x1^2 + x1)))", {"p": 1, "q": 1}, True),
    ("G1 = x1 + 1/(p*(1/(-x1*(x1 + 1)/(x1 + 1) + x1^2 + x1)))", {"p": 2, "q": 1}, True),
    # parameter-only divisors again: p - 2 is negative at p = 1, so the
    # signs flip ...
    ("G1 = x1^3/(p - 2) + q*x1", {"p": 1, "q": 1}, True),
    # ... and zero at p = 2
    ("G1 = x1^3/(p - 2) + q*x1", {"p": 2, "q": 1}, False),
    # the x1^2 coefficient vanishes at p = 1; q = 0 divides by zero
    ("G1 = (p - 1)*x1^2/q + x1", {"p": 1, "q": 1}, False),
    ("G1 = (p - 1)*x1^2/q + x1", {"p": 2, "q": 0}, False),
    # the content 2 of (2 x1^2 + 2 x1)/2 is divided out
    ("G1 = (p - 1)*x1^2/q + x1", {"p": 3, "q": 2}, True),
])
def test_bind_at_chosen_points(source, params, generic):
    m = loads(f"model chosen\nparams p q\nvars x1\n{source}\n")
    system = m.compiled.fixed_points
    try:
        reference = _reduced(_substituted_pairs(m, params), m.xs)
    except ExprError:
        with pytest.raises(ZeroDenominatorError, match="after substitution"):
            system.bind(params)
        assert not generic
        return
    nums, dens, _ = system.bind(params)
    assert (nums, dens) == reference
    support = [{k[:1] for k in p} for p in system.nums + system.dens]
    assert (dens[0].keys() == {(0,)} and [set(p) for p in nums + dens] == support) == generic


def test_zeroed_term_takes_the_exact_path():
    # the reduced forms x1 + 1 and x1^2 + x1 vanish at x1 = -1, where the
    # divisor 1 + x1 of G as written does too
    m = loads("model drop\nparams p\nvars x1\nG1 = x1 + 1 - p/(1 + x1)\n")
    assert find_fixed_points(m, {"p": 0}) == []
    m = loads("model splice\nparams p\nvars x1\nG1 = x1 + p*(-x1*(x1 + 1)/(x1 + 1) + x1^2 + x1)\n")
    assert [fp.point for fp in find_fixed_points(m, {"p": 1})] == [(0.0,)]
    m = loads("model slow\nparams q\nvars x1\nG1 = 2*x1 + y1/q\n")
    with pytest.raises(ZeroDenominatorError, match="after substitution"):
        find_fixed_points(m, {"q": 0})


def test_airfoil_vanishing_cubic_coefficient_takes_the_exact_path():
    af = builtin("airfoil")
    params = {"Minf": Fraction(1000, 9), "V": 3}  # V^2 Minf = 1000: no x2^3 in G1
    assert af.compiled.fixed_points.bind(params)[:2] == _reduced(_substituted_pairs(af, params), af.xs)
    pairs = classify_all(af, params, box=(-4, 4))
    assert [(fp.point, rep.verdict) for fp, rep in pairs] == [((0.0, 0.0), STABLE)]
    assert airfoil_region_conditions(params["Minf"], params["V"]).stable_count == 1


def test_fixed_point_search_does_no_symbolic_work_per_point(monkeypatch):
    # (model, parameters of the k-th point, box, fixed points found)
    sweeps = [
        (builtin("airfoil"), lambda k: {"Minf": Fraction(2017 + k, 256), "V": Fraction(83, 4)},
         (-1, 1), 3),
        (builtin("wound_strings"), lambda k: {"a": Fraction(1, 2), "C": Fraction(4 + k, 4), "m": -1},
         (-4, 4), 4),
        (loads(chain_model_text(2)), lambda k: {"k": 1, "q": Fraction(1, 8 + k), "b": Fraction(1, 4), "c": 1},
         (-4, 4), 9),
    ]
    for m, params, box, _ in sweeps:
        find_fixed_points(m, params(0), box=box, seeds=5)  # builds the system

    def forbidden(*args, **kwargs):
        raise AssertionError("symbolic work at a parameter point")

    for module in (stability, kcc):
        for name in ("substitute", "canonicalize", "compile_callable"):
            monkeypatch.setattr(module, name, forbidden, raising=False)
    for m, params, box, found in sweeps:
        for k in range(5):
            assert len(find_fixed_points(m, params(k), box=box, seeds=5)) == found, m.name


def test_fixed_point_search_binds_once_per_point(monkeypatch):
    # the pairs and the divisor numerators, here a^2 x1^2 + m^2 x2^2 and
    # two more, come from one weight table
    ws = builtin("wound_strings")
    find_fixed_points(ws, WS_PARAMS, box=(-4, 4), seeds=5)  # builds the system
    calls = []
    for cls, name in ((kcc.Model, "binding"), (ParameterBinder, "weights")):
        real = getattr(cls, name)
        monkeypatch.setattr(cls, name, lambda self, *a, _f=real, _n=name: calls.append(_n) or _f(self, *a))
    assert len(find_fixed_points(ws, WS_PARAMS, box=(-4, 4), seeds=5)) == 4
    assert calls == ["binding", "weights"]


def test_wound_strings_sweep_compiles_the_search_once(monkeypatch):
    # the pairs of every point share one support
    calls = []
    real = kcc.compile_callable
    monkeypatch.setattr(kcc, "compile_callable", lambda *a: calls.append(a) or real(*a))
    ws = builtin("wound_strings")
    for k in range(5):
        params = {"a": Fraction(1, 2), "C": Fraction(4 + k, 4), "m": -1}
        assert len(find_fixed_points(ws, params, box=(-4, 4), seeds=5)) == 4
    # numerators with their Jacobian, denominators
    assert len(calls) == 2


_coefficient = st.one_of(st.sampled_from([1, -1]), st.integers(-10**6, 10**6).filter(bool))


@st.composite
def _polys(draw, n):
    """Integer polynomials in n positions, some with a constant term."""
    monos = st.tuples(*[st.integers(0, 3)] * n).filter(any)
    p = draw(st.dictionaries(monos, _coefficient, max_size=5))
    constant = draw(st.one_of(st.just(0), _coefficient))
    if constant:
        p[(0,) * n] = constant
    return p


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_fixed_point_forms_match_embedded_coefficients(data):
    """The coefficient-argument forms give bit for bit the values of
    `p_to_expr` compiled with its coefficients embedded."""
    n = data.draw(st.integers(1, 3))
    xs = tuple(f"x{i}" for i in range(1, n + 1))
    m = kcc.Model("forms", xs, [Constant(0)] * n)
    nums = [data.draw(_polys(n)) for _ in range(n)]
    dens = [data.draw(_polys(n)) for _ in range(n)]
    jac = [p_diff(p, j) for p in nums for j in range(n)]
    coordinate = st.floats(-100, 100, allow_nan=False)
    x = np.array([[data.draw(coordinate) for _ in range(n)] for _ in range(4)])
    forms = m.compiled.fixed_point_forms(nums, dens)
    assert len(forms) == 2
    for (fn, coefficients), polys in zip(forms, (nums + jac, dens)):
        ref = compile_callable([p_to_expr(p, xs) for p in polys], xs)
        for args in (x.T, x[0].tolist()):
            values, reference = fn(*args, *coefficients), ref(*args)
            assert len(values) == len(reference)
            for got, want in zip(values, reference):
                got, want = np.broadcast_to(got, x.shape[:1]), np.broadcast_to(want, x.shape[:1])
                assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]


_VALUES = (Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2))


def _safe(build):
    def apply(args):
        try:
            return build(*args)
        except ZeroDenominatorError:
            return args[0]
    return apply


_leaf = st.one_of(
    st.sampled_from(["x1", "x2", "p", "q", "y1", "y2"]).map(Symbol),
    st.sampled_from([1, 2, -1, 3, Fraction(1, 2)]).map(Constant),
)
_tree = st.recursive(
    _leaf,
    lambda sub_trees: st.one_of(
        st.tuples(sub_trees, sub_trees).map(_safe(add)),
        st.tuples(sub_trees, sub_trees, sub_trees).map(_safe(add)),
        st.tuples(sub_trees, sub_trees).map(_safe(sub)),
        st.tuples(sub_trees, sub_trees).map(_safe(mul)),
        st.tuples(sub_trees, st.sampled_from([2, 3, -1])).map(_safe(pow_)),
        st.tuples(sub_trees, sub_trees).map(_safe(div)),
        # parameter factors and reciprocals, whose regrouping at p = 1 the
        # check must see
        st.tuples(st.sampled_from(["p", "q"]).map(Symbol), sub_trees).map(_safe(mul)),
        st.tuples(st.just(Constant(1)), sub_trees).map(_safe(div)),
    ),
    max_leaves=10,
)


@given(g1=_tree, g2=_tree)
@settings(max_examples=60, deadline=None)
def test_bind_certifies_only_exact_canonical_forms(g1, g2):
    """Where the substituted form exists, `bind` gives it divided by its gcd,
    or raises naming a divisor of G that is zero at y = 0 and the point (the
    substituted form can miss one, when the values drop the term over it);
    where it does not exist, `bind` raises.  Both parameters are bound, and
    then p alone, which leaves pairs over (x1, x2, q)."""
    m = kcc.Model("random", ("x1", "x2"), [g1, g2], params=("p", "q"))
    system = m.compiled.fixed_points
    divisors = kcc._divisors(g1) + kcc._divisors(g2)
    bindings = [dict(zip(m.params, values)) for values in itertools.product(_VALUES, repeat=2)]
    for params in bindings + [{"p": v} for v in _VALUES]:
        order = _unbound(m, params)
        try:
            reference = _reduced(_substituted_pairs(m, params), order)
        except ExprError:
            with pytest.raises(ZeroDenominatorError, match="after substitution"):
                system.bind(params)
            continue
        try:
            bound = system.bind(params)[:2]
        except ZeroDenominatorError as e:
            assert e.subexpr in divisors, (str(g1), str(g2), params)
            at = {**params, "y1": 0, "y2": 0}
            assert canonicalize(substitute(e.subexpr, at), order).is_zero, (str(g1), str(g2), params)
            continue
        assert bound == reference, (str(g1), str(g2), params)


def test_bound_pairs_agree_with_sympy(fixed_point_models):
    """The pairs the search runs on are the reduced substituted pairs, and
    sympy's cancelled G at y = 0: coprime, with the same value."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(104729)
    for name, m in sorted(fixed_point_models.items()):
        syms = {v: sympy.Symbol(v) for v in m.xs + m.ys + m.params}
        for _ in range(2):
            params = {p: Fraction(rng.randint(1, 64), rng.randint(1, 16)) for p in m.params}
            bound = m.compiled.fixed_points.bind(params)[:2]
            assert bound == _reduced(_substituted_pairs(m, params), m.xs), (name, params)
            at = {syms[p]: sympy.Rational(v.numerator, v.denominator) for p, v in params.items()}
            at.update({syms[y]: 0 for y in m.ys})
            for i, (g, *pair) in enumerate(zip(m.G, *bound)):
                exact = sympy.cancel(sympy.sympify(str(g).replace("^", "**"), locals=syms).subs(at))
                num, den = (
                    sum(c * sympy.Mul(*[syms[x] ** e for x, e in zip(m.xs, k)]) for k, c in p.items())
                    for p in pair
                )
                assert sympy.cancel(num / den - exact) == 0, (name, i)
                assert sympy.gcd(num, den).is_number, (name, i)


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


def _deep_model(depth=600):
    """A Horner form built in Python, past the parser's depth limit: at 600
    levels the recursive tree walks exceed Python's recursion limit."""
    x = Symbol("x1")
    deep = x
    for _ in range(depth):
        deep = mul(add(deep, 1), x)
    return kcc.Model("deep", ("x1",), (add(deep, Symbol("y1")),))


def test_deep_model_search_is_an_expr_error():
    with pytest.raises(ExprError, match="nested too deeply to canonicalize"):
        classify_all(_deep_model(), box=(-1, 1), seeds=3)


def test_deep_model_conditions_are_an_expr_error():
    with pytest.raises(ExprError, match="nested too deeply to canonicalize"):
        assemble_semialgebraic(_deep_model())


CHAIN_PARAMS = {"k": Fraction(7, 8), "q": Fraction(1, 8), "b": Fraction(1, 4), "c": Fraction(1, 16)}


@pytest.mark.parametrize("name, params", [
    ("wound_strings", WS_PARAMS),
    ("airfoil", AIRFOIL_PARAMS),
    ("chain1", CHAIN_PARAMS),
    ("chain2", CHAIN_PARAMS),
])
def test_conditions_match_sympy_hurwitz_minors(fixed_point_models, name, params):
    """Meaning, not text: at random rational positions each inequality has
    the exact sign of sympy's reduced a_n or Hurwitz minor Delta_k of P at
    y = 0 (P from the textbook formula, as in test_kcc), and each equation is
    a polynomial multiple of sympy's reduced numerator of G_i at y = 0, so
    it vanishes wherever that does."""
    sympy = pytest.importorskip("sympy")
    m = fixed_point_models[name]
    sa = assemble_semialgebraic(m, params)
    n, rng = m.n, range(m.n)
    syms = {v: sympy.Symbol(v) for v in m.xs + m.ys + m.params}
    X, Y = [syms[v] for v in m.xs], [syms[v] for v in m.ys]
    values = {syms[p]: sympy.Rational(v.numerator, v.denominator) for p, v in m.binding(params).items()}
    G = [sympy.sympify(str(g).replace("^", "**"), locals=syms).subs(values) for g in m.G]
    N = [[sympy.diff(G[i], Y[j]) for j in rng] for i in rng]
    P = sympy.Matrix(n, n, lambda i, j: (
        -2 * sympy.diff(G[i], X[j])
        - 2 * sum(G[l] * sympy.diff(N[i][j], Y[l]) for l in rng)
        + sum(Y[l] * sympy.diff(N[i][j], X[l]) for l in rng)
        + sum(N[i][l] * N[l][j] for l in rng)
    ).subs({y: 0 for y in Y}))
    a = [sympy.cancel(c) for c in P.charpoly().all_coeffs()]  # a_0 = 1, a_1, .., a_n
    for eq, g in zip(sa.equations, G):
        num = sympy.numer(sympy.cancel(g.subs({y: 0 for y in Y})))
        eq = sum(c * sympy.Mul(*[v ** e for v, e in zip(X, k)]) for k, c in eq.items())
        assert sympy.denom(sympy.cancel(eq / num)).is_number, (name, num)
    binder = ParameterBinder(sa.inequalities, n)  # exact signs, in integers
    draw = random.Random(104729)
    for _ in range(6):
        point = [Fraction(draw.choice((-1, 1)) * draw.randint(1, 64), draw.randint(1, 16)) for _ in rng]
        av = [c.subs(dict(zip(X, map(sympy.Rational, point)))) for c in a]
        H = sympy.Matrix(n, n, lambda i, j: av[2 * j - i + 1] if 0 <= 2 * j - i + 1 <= n else 0)
        want = [av[n]] + [H[:k, :k].det() for k in range(1, n + 1)]
        weights, _ = binder.weights(point)
        got = [binder.value(i, weights) for i in range(len(sa.inequalities))]
        assert [sympy.sign(v) for v in got] == [sympy.sign(v) for v in want], (name, point)


CANCELLED = "model cancelled\nparams p\nvars x1\nG1 = (x1^2 - 1)/(x1 - 1) + y1*0 - p\n"


@pytest.mark.parametrize("params", [None, {"p": 2}])
def test_conditions_keep_a_divisor_that_cancels(params):
    # the reduced G1 is x1 + 1 - p over 1, but G1 as written is undefined
    # at x1 = 1
    sa = assemble_semialgebraic(loads(CANCELLED), params)
    assert [line for line in sa.render() if line.startswith("NEQ")] == ["NEQ: x1 - 1 != 0"]


@pytest.mark.parametrize("name, params", [
    ("wound_strings", None),
    ("wound_strings", WS_PARAMS),
    ("airfoil", None),
    ("tractor_seat", None),
    ("chain2", CHAIN_PARAMS),
    ("cancelled", None),
    ("degen", {"p": 0}),
    ("wound_strings", {"a": Fraction(1, 2)}),
])
def test_inequations_vanish_only_where_a_divisor_does(fixed_point_models, name, params):
    """Each NEQ polynomial divides the numerator of a divisor of G as
    written (sympy-cancelled at y = 0 with the values bound), so it vanishes
    only where that divisor does or one inside it is undefined; and each such
    numerator that involves a position has its zeros among theirs."""
    sympy = pytest.importorskip("sympy")
    m = fixed_point_models.get(name) or loads({"cancelled": CANCELLED, "degen": DEGEN}[name])
    sa = assemble_semialgebraic(m, params)
    syms = {v: sympy.Symbol(v) for v in m.xs + m.ys + m.params}
    at = {syms[y]: 0 for y in m.ys}
    for p, v in (params or {}).items():
        at[syms[p]] = sympy.Rational(v.numerator, v.denominator)
    gens = [syms[v] for v in sa.vars]
    numerators = [
        sympy.numer(sympy.cancel(sympy.sympify(str(d).replace("^", "**"), locals=syms).subs(at)))
        for g in m.G for d in kcc._divisors(g)
    ]
    numerators = [p for p in numerators if p.free_symbols & set(gens[:m.n])]
    neqs = [sum(c * sympy.Mul(*[v ** e for v, e in zip(gens, k)]) for k, c in p.items())
            for p in sa.inequations]
    if not numerators:
        assert neqs == [1]
        return

    def divides(a, b):
        return sympy.denom(sympy.cancel(b / a)).is_number

    for neq in neqs:
        assert any(divides(neq, num) for num in numerators), (name, neq)
    for num in numerators:
        assert divides(num, sympy.Mul(*neqs)), (name, num)


def test_reduced_condition_sizes(fixed_point_models):
    # without the gcd the a_n condition had degree 266 and 184 terms, and
    # the bound chain's P[0][0] degree 10/10
    sa = assemble_semialgebraic(fixed_point_models["wound_strings"])
    a_n = sa.inequalities[0]
    assert (max(map(sum, a_n)), len(a_n)) == (42, 16)
    m = fixed_point_models["chain2"]
    at = {**CHAIN_PARAMS, **{y: 0 for y in m.ys}}
    p00 = canonicalize(substitute(m.compiled.invariants.P[0][0], at), m.xs)
    assert (max(map(sum, p00.num)), max(map(sum, p00.den))) == (4, 4)


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
