"""Acceptance battery: end-to-end checks of the published results.

Each test prints a single ``[criterion N] PASS/FAIL`` summary line; run
``pytest tests/test_acceptance.py -v -s`` to watch them as they execute.
"""

import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from kccstab.expr import (
    Constant,
    Symbol,
    ZeroDenominatorError,
    add,
    differentiate,
    div,
    evaluate,
    mul,
    parse,
    pow_,
    semantic_equal,
    substitute,
)
from kccstab.kcc import invariants, kcc_deviation
from kccstab.models import (
    TRACTOR_SEAT_CASES,
    TRACTOR_SEAT_REFERENCE_PARAMS,
    builtin,
)
from kccstab.numerics import (
    BUNCHING,
    DISPERSING,
    integrate_deviation,
    jacobi_focusing,
    matrix_exp_solution,
    perturbation_oracle,
)
from kccstab.stability import (
    STABLE,
    UNSTABLE,
    airfoil_region_conditions,
    classify_all,
    classify_matrix,
    count_stable,
)

from shared_data import REFERENCE_WS_P

WS_PARAMS = {"a": Fraction(1, 2), "C": 1, "m": -1}
WS_POINTS = [(2.0, 1.0), (2.0, -1.0), (-2.0, 1.0), (-2.0, -1.0)]
AIRFOIL_PARAMS_1 = {"Minf": Fraction(2017, 256), "V": Fraction(83, 4)}
AIRFOIL_PARAMS_2 = {"Minf": Fraction(71, 16384), "V": Fraction(3, 16)}


def _report(num: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}", flush=True)


def _rebuild_curvature(model, N):
    """Assemble the deviation curvature from a given nonlinear connection."""
    n, xs, ys, G = model.n, model.xs, model.ys, list(model.G)
    berwald = [
        [[differentiate(N[i][j], ys[l]) for l in range(n)] for j in range(n)]
        for i in range(n)
    ]
    P = []
    for i in range(n):
        row = []
        for j in range(n):
            t1 = mul(-2, differentiate(G[i], xs[j]))
            t2 = add(*[mul(-2, mul(G[l], berwald[i][j][l])) for l in range(n)])
            t3 = add(*[mul(Symbol(ys[l]), differentiate(N[i][j], xs[l]))
                       for l in range(n)])
            t4 = add(*[mul(N[i][l], N[l][j]) for l in range(n)])
            row.append(add(t1, t2, t3, t4))
        P.append(row)
    return P


def test_criterion_1_curvature_tensor_reproduction():
    t0 = time.perf_counter()
    ws = builtin("wound_strings")
    inv = invariants(ws)
    matches = all(
        semantic_equal(inv.P[i][j], parse(REFERENCE_WS_P[i, j]))
        for i in range(2) for j in range(2)
    )
    # negative control: corrupt the second row of the nonlinear connection
    # (x2 -> x1) and rebuild; every resulting entry must differ.
    N = [[inv.N[i][j] for j in range(2)] for i in range(2)]
    N[1] = [substitute(e, {"x2": Symbol("x1")}) for e in N[1]]
    corrupted = _rebuild_curvature(ws, N)
    detects = all(
        not semantic_equal(corrupted[i][j], inv.P[i][j])
        for i in range(2) for j in range(2)
    )
    elapsed = time.perf_counter() - t0
    ok = matches and detects and elapsed < 30
    _report("1", ok,
            f"wound-strings curvature matches all 4 published entries, "
            f"corrupted-connection variants all differ ({elapsed:.2f}s < 30s)")
    assert matches, "computed P does not match the published entries"
    assert detects, "corrupted-connection variant not distinguished"
    assert elapsed < 30


def test_criterion_2_wound_strings_fixed_points():
    t0 = time.perf_counter()
    ws = builtin("wound_strings")
    pairs = classify_all(ws, WS_PARAMS, box=(-4, 4), seeds=9)
    found = [fp.point for fp, _ in pairs]
    located = len(pairs) == 4 and all(
        min(max(abs(p[0] - q[0]), abs(p[1] - q[1])) for p in found) < 1e-8
        for q in WS_POINTS
    )
    all_stable = all(rep.verdict == STABLE for _, rep in pairs)
    dev = kcc_deviation(ws)
    coeff_err = 0.0
    for fp, _ in pairs:
        a21, a22 = dev.at_point(WS_PARAMS, fp.point)
        coeff_err = max(
            coeff_err,
            np.max(np.abs(a21 + 0.25 * np.eye(2))),
            np.max(np.abs(a22)),
        )
    reduces = coeff_err <= 1e-12
    elapsed = time.perf_counter() - t0
    ok = located and all_stable and reduces and elapsed < 10
    _report("2", ok,
            f"4 fixed points (+-2, +-1) within 1e-8, all Jacobi stable, "
            f"deviation reduces to xi'' + xi/4 = 0 "
            f"(coeff err {coeff_err:.1e}; {elapsed:.2f}s < 10s)")
    assert located, f"fixed points found: {found}"
    assert all_stable
    assert reduces, f"coefficient mismatch {coeff_err:.3e}"
    assert elapsed < 10


def test_criterion_3_closed_form_deviation():
    ws = builtin("wound_strings")
    W = np.array([0.6, 0.8])  # unit initial deviation velocity
    worst = 0.0
    early_ok = True
    for pt in WS_POINTS:
        tr = integrate_deviation(ws, WS_PARAMS, pt, W, 10.0, 1e-3)
        norm_sq = np.sum(tr.states[:, :2] ** 2, axis=1)
        ref = 4 * np.sin(tr.times / 2) ** 2
        worst = max(worst, float(np.max(np.abs(norm_sq - ref))))
        early = (tr.times > 0) & (tr.times <= 0.5)
        early_ok = early_ok and bool(
            np.all(norm_sq[early] < tr.times[early] ** 2)
        )
    ok = worst <= 1e-6 and early_ok
    _report("3", ok,
            f"deviation norm^2 matches 4 sin^2(t/2) on [0,10] "
            f"(max err {worst:.1e} <= 1e-6) and stays below t^2 on (0, 0.5]")
    assert worst <= 1e-6
    assert early_ok


def test_criterion_4_airfoil_cases():
    af = builtin("airfoil")

    t0 = time.perf_counter()
    rep1 = airfoil_region_conditions(Fraction(2017, 256), Fraction(83, 4))
    pairs = classify_all(af, AIRFOIL_PARAMS_1, box=(-1, 1), seeds=9)
    k1 = sum(r.verdict == STABLE for _, r in pairs)
    by_norm = sorted(pairs, key=lambda pr: max(abs(c) for c in pr[0].point))
    origin, plus, minus = by_norm[0], by_norm[1], by_norm[2]
    nonzero_ok = all(
        min(
            max(abs(fp.point[0] - sx * 0.1550), abs(fp.point[1] + sx * 0.1202))
            for sx in (1, -1)
        ) < 5e-4
        for fp, _ in (plus, minus)
    )
    case1 = (
        rep1.label == "C5"
        and len(pairs) == 3
        and max(abs(c) for c in origin[0].point) < 1e-8
        and origin[1].verdict == UNSTABLE
        and plus[1].verdict == STABLE
        and minus[1].verdict == STABLE
        and nonzero_ok
        and k1 == 2 == rep1.stable_count
    )
    t1 = time.perf_counter() - t0

    t0 = time.perf_counter()
    rep2 = airfoil_region_conditions(Fraction(71, 16384), Fraction(3, 16))
    pairs2 = classify_all(af, AIRFOIL_PARAMS_2, box=(-1, 1), seeds=9)
    case2 = (
        rep2.label == "C2"
        and len(pairs2) == 1
        and max(abs(c) for c in pairs2[0][0].point) < 1e-8
        and pairs2[0][1].verdict == STABLE
        and rep2.stable_count == 1
    )
    t2 = time.perf_counter() - t0

    ok = case1 and case2 and t1 < 20 and t2 < 20
    _report("4", ok,
            f"airfoil case 1: C5, 3 fixed points, pair within 5e-4 of "
            f"(+-0.1550, -+0.1202), S/S/U, k=2 ({t1:.2f}s); "
            f"case 2: C2, unique stable origin, k=1 ({t2:.2f}s)")
    assert case1, (rep1.label, [(fp.point, r.verdict) for fp, r in pairs])
    assert case2, (rep2.label, [(fp.point, r.verdict) for fp, r in pairs2])
    assert t1 < 20 and t2 < 20


def test_criterion_5_tractor_seat_cases():
    tr = builtin("tractor_seat")
    origins_ok = True
    for case in TRACTOR_SEAT_CASES:
        pairs = classify_all(tr, case, box=(-10, 10), seeds=5)
        origins_ok = origins_ok and (
            len(pairs) == 1
            and max(abs(c) for c in pairs[0][0].point) < 1e-8
            and pairs[0][1].verdict == UNSTABLE
        )
    prof = jacobi_focusing(
        tr, TRACTOR_SEAT_REFERENCE_PARAMS, (0.0, 0.0, 0.0)
    )
    disperses = prof.verdict == DISPERSING
    ok = origins_ok and disperses
    _report("5", ok,
            f"all {len(TRACTOR_SEAT_CASES)} parameter cases: unique origin "
            f"fixed point, Unstable; reference case disperses")
    assert origins_ok
    assert disperses


def test_criterion_6a_routh_hurwitz_vs_eigenvalues():
    rng = np.random.default_rng(61)
    checked = 0
    agree = True
    while checked < 500:
        n = int(rng.integers(1, 6))
        A = rng.standard_normal((n, n)) * float(rng.uniform(0.2, 4.0))
        eigs = np.linalg.eigvals(A)
        scale = max(1.0, float(np.max(np.abs(eigs))))
        if float(np.min(np.abs(eigs.real))) / scale < 1e-3:
            continue  # too close to the stability margin to trust either side
        rep = classify_matrix(A)
        want = STABLE if np.all(eigs.real < 0) else UNSTABLE
        agree = agree and rep.verdict == want and rep.rh_verdict == want
        checked += 1
    _report("6a", agree,
            "Routh-Hurwitz verdict equals eigenvalue verdict on 500 random "
            "matrices (n <= 5, margin-filtered)")
    assert agree


def _random_expr(rng, names, depth=0):
    k = rng.integers(0, 6 if depth < 4 else 2)
    if k == 0:
        return Constant(Fraction(int(rng.integers(-8, 9)), int(rng.integers(1, 8))))
    if k == 1:
        return Symbol(str(rng.choice(names)))
    a = _random_expr(rng, names, depth + 1)
    b = _random_expr(rng, names, depth + 1)
    if k == 2:
        return add(a, b)
    if k == 3:
        return mul(a, b)
    if k == 4:
        return pow_(a, int(rng.integers(0, 4)))
    return div(a, add(b, Constant(int(rng.integers(1, 5)))))


def test_criterion_6b_derivatives_vs_finite_differences():
    rng = np.random.default_rng(62)
    names = ["x", "y"]
    checked = 0
    attempts = 0
    agree = True
    while checked < 200 and attempts < 4000:
        attempts += 1
        pt = {n: float(rng.uniform(0.4, 1.7)) for n in names}
        h = 1e-6
        try:
            e = _random_expr(rng, names)
            de = differentiate(e, "x")
            up = evaluate(e, {**pt, "x": pt["x"] + h})
            dn = evaluate(e, {**pt, "x": pt["x"] - h})
            exact = evaluate(de, pt)
        except ZeroDenominatorError:
            continue
        fd = (up - dn) / (2 * h)
        if abs(fd) > 1e6:
            continue  # steep configurations are numerically uninformative
        agree = agree and abs(fd - exact) <= 1e-6 * (1 + abs(exact)) + 1e-8
        checked += 1
    ok = agree and checked == 200
    _report("6b", ok,
            f"symbolic derivatives match central differences to 1e-6 "
            f"relative on {checked} random expression/point samples")
    assert agree
    assert checked == 200


def _stable_builtin_points():
    out = []
    for name, params in [
        ("wound_strings", WS_PARAMS),
        ("airfoil", AIRFOIL_PARAMS_1),
        ("airfoil", AIRFOIL_PARAMS_2),
        ("tractor_seat", dict(TRACTOR_SEAT_REFERENCE_PARAMS)),
    ]:
        m = builtin(name)
        box = (-10, 10) if name == "tractor_seat" else (-4, 4)
        seeds = 5 if name == "tractor_seat" else 9
        for fp, rep in classify_all(m, params, box=box, seeds=seeds):
            out.append((name, m, params, fp.point, rep.verdict))
    return out


def test_criterion_6c_deviation_propagator_triangle():
    worst = 0.0
    stable_count = 0
    for name, m, params, pt, verdict in _stable_builtin_points():
        if verdict != STABLE:
            continue
        stable_count += 1
        n = m.n
        # small amplitude keeps the perturbed trajectory in the
        # linear-response regime the oracle is meant to probe
        W = 1e-2 * np.ones(n) / np.sqrt(n)
        a21, a22 = kcc_deviation(m).at_point(params, pt)
        rk = integrate_deviation(m, params, pt, W, 5.0, 1e-3)
        ex = matrix_exp_solution(a21, a22, W, rk.times)
        po = perturbation_oracle(m, params, pt, W, eta=1e-6, t_end=5.0, dt=1e-3)
        for a, b in ((rk, ex), (rk, po), (ex, po)):
            worst = max(worst, float(np.max(
                np.abs(a.states[:, :n] - b.states[:, :n])
            )))
    ok = worst <= 1e-4 and stable_count == 7
    _report("6c", ok,
            f"matrix-exp, fixed-step deviation, and eta=1e-6 perturbation "
            f"oracle agree pairwise on {stable_count} stable built-in fixed "
            f"points (worst {worst:.1e} <= 1e-4)")
    assert stable_count == 7
    assert worst <= 1e-4


def test_criterion_6d_focusing_matches_classification():
    points = _stable_builtin_points()
    tractor = builtin("tractor_seat")
    for case in TRACTOR_SEAT_CASES[:-1]:  # reference case already included
        for fp, rep in classify_all(tractor, case, box=(-10, 10), seeds=5):
            points.append(("tractor_seat", tractor, case, fp.point, rep.verdict))
    agree = True
    total = 0
    for name, m, params, pt, verdict in points:
        prof = jacobi_focusing(m, params, pt)
        want = BUNCHING if verdict == STABLE else DISPERSING
        agree = agree and verdict in (STABLE, UNSTABLE) and prof.verdict == want
        total += 1
    ok = agree and total == 17
    _report("6d", ok,
            f"focusing verdict matches the eigenvalue verdict on all "
            f"{total} built-in fixed points")
    assert agree
    assert total == 17


def test_criterion_6e_region_labels_predict_stable_counts():
    rng = np.random.default_rng(65)
    af = builtin("airfoil")
    target = 50
    picked = {lab: 0 for lab in ("C1", "C2", "C3", "C4", "C5")}
    mismatches = []

    def rational(lo, hi, denom=4096):
        return Fraction(int(rng.integers(int(lo * denom), int(hi * denom) + 1)),
                        denom)

    def try_point(minf, v):
        rep = airfoil_region_conditions(minf, v)
        if rep.boundary or rep.label is None or picked[rep.label] >= target:
            return
        # locate the nonzero fixed-point pair analytically to size the
        # search box:  x2^2 = 5(50 M - V^2) / (M (V^2 M - 5000)),
        #              x1 = -x2 (1 + 20 x2^2)
        box_half = 2.0
        den = minf * (v * v * minf - 5000)
        if den != 0:
            x2_sq = 5 * (50 * minf - v * v) / den
            if x2_sq > 0:
                x2m = float(x2_sq) ** 0.5
                x1m = x2m * (1 + 20 * x2m * x2m)
                if x2m < 1e-2:
                    return  # pair about to coalesce with the origin
                if max(x1m, x2m) > 8:
                    return  # fixed points outside the sampling window
                box_half = max(2.0, 1.5 * max(x1m, x2m))
        k = count_stable(af, {"Minf": minf, "V": v},
                         box=(-box_half, box_half), seeds=5)
        picked[rep.label] += 1
        if k != rep.stable_count:
            mismatches.append((str(minf), str(v), rep.label,
                               rep.stable_count, k))

    for _ in range(20000):
        if all(picked[lab] >= target for lab in ("C1", "C2", "C4", "C5")):
            break
        try_point(rational(0.01, 12), rational(0.01, 30))
    for _ in range(8000):
        if picked["C3"] >= target:
            break
        try_point(rational(10.01, 12), rational(20.5, 24.4))

    filled = all(count >= target for count in picked.values())
    ok = filled and not mismatches
    _report("6e", ok,
            f"region label predicts the computed stable count at "
            f"{sum(picked.values())} sampled rational parameter points "
            f"({', '.join(f'{lab}:{cnt}' for lab, cnt in sorted(picked.items()))})")
    assert filled, picked
    assert not mismatches, mismatches[:5]


def test_criterion_7_scope_note_present():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8") if readme.exists() else ""
    required = [
        "not reproduced",
        "region boundaries",
        "R1",
        "R6",
        "sampled rational",
    ]
    missing = [phrase for phrase in required if phrase not in text]
    ok = not missing
    _report("7", ok,
            "README documents that symbolic region boundaries and the full "
            "real-root classification are out of scope (R1-R6 transcribed, "
            "validated numerically)")
    assert ok, f"README missing phrases: {missing}"
