"""Fixed points and Jacobi-stability classification.

Fixed points are located numerically (Newton on the cleared numerators of
the G_i with velocities zero, seeded from a grid), then classified through
the deviation curvature tensor: the system is Jacobi stable at a fixed point
exactly when every eigenvalue of P there has negative real part, which is
decided by the Routh–Hurwitz criterion on the characteristic polynomial and
cross-checked against numerically computed eigenvalues.

The same machinery runs symbolically: `assemble_semialgebraic` produces the
polynomial equations/inequations/inequalities in positions and parameters
whose solutions are precisely the Jacobi-stable fixed points.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .expr import (
    BudgetExceededError,
    CanonicalRational,
    Expr,
    Poly,
    ZeroDenominatorError,
    canonicalize,
    compile_callable,
    evaluate,
    p_const,
    p_diff,
    p_mul,
    p_str,
    p_to_expr,
    parse,
    substitute,
)
from .kcc import Model, ModelError

DEFAULT_BOX_HALFWIDTH = 10.0
DEFAULT_SEEDS_PER_AXIS = 9
DEFAULT_DEDUP_RADIUS = 1e-6
DEFAULT_DENOM_MARGIN = 1e-8
DEFAULT_RESIDUAL_SCALE = 1e-10
DEFAULT_TOL = 1e-9
DEFAULT_MONOMIAL_BUDGET = 200000

STABLE = "Stable"
UNSTABLE = "Unstable"
INDETERMINATE = "Indeterminate"


# --------------------------------------------------------------------------
# characteristic polynomial and Hurwitz determinants (generic ring elements)


def _one_like(v):
    if isinstance(v, CanonicalRational):
        return CanonicalRational.const(1, v.vars)
    if isinstance(v, Fraction):
        return Fraction(1)
    return 1.0


def _zero_like(v):
    if isinstance(v, CanonicalRational):
        return CanonicalRational.zero(v.vars)
    if isinstance(v, Fraction):
        return Fraction(0)
    return 0.0


def _scaled(v, f: Fraction):
    if isinstance(v, CanonicalRational):
        return v.scale(f)
    return v * f


def char_poly(A: Sequence[Sequence]) -> list:
    """Coefficients [a_1..a_n] of det(lambda I - A) = l^n + a_1 l^(n-1) + ... + a_n.

    Faddeev–LeVerrier recursion; works over floats, Fractions and
    CanonicalRational entries alike.
    """
    if hasattr(A, "tolist"):
        A = A.tolist()
    A = [list(row) for row in A]
    n = len(A)
    if n == 0 or any(len(row) != n for row in A):
        raise ValueError("char_poly needs a square matrix")
    one = _one_like(A[0][0])
    zero = _zero_like(A[0][0])
    M = [[one if i == j else zero for j in range(n)] for i in range(n)]
    coeffs = []
    for k in range(1, n + 1):
        AM = [
            [_dot(A[i], [M[l][j] for l in range(n)]) for j in range(n)]
            for i in range(n)
        ]
        tr = AM[0][0]
        for i in range(1, n):
            tr = tr + AM[i][i]
        ck = _scaled(tr, Fraction(-1, k))
        coeffs.append(ck)
        if k < n:
            M = [
                [AM[i][j] + ck if i == j else AM[i][j] for j in range(n)]
                for i in range(n)
            ]
    return coeffs


def _dot(row, col):
    acc = row[0] * col[0]
    for a, b in zip(row[1:], col[1:]):
        acc = acc + a * b
    return acc


def hurwitz_matrix(coeffs: Sequence) -> list[list]:
    """The n x n Hurwitz matrix H[i][j] = a_{2j-i} (1-indexed), a_0 = 1."""
    n = len(coeffs)
    one = _one_like(coeffs[0])
    zero = _zero_like(coeffs[0])

    def a(k: int):
        if k == 0:
            return one
        if 1 <= k <= n:
            return coeffs[k - 1]
        return zero

    return [[a(2 * j - i) for j in range(1, n + 1)] for i in range(1, n + 1)]


def _det_generic(M: list[list]):
    n = len(M)
    if n == 1:
        return M[0][0]
    total = None
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in M[1:]]
        term = M[0][j] * _det_generic(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total


def hurwitz_determinants(coeffs: Sequence) -> list:
    """Leading principal minors [Delta_1..Delta_n] of the Hurwitz matrix."""
    H = hurwitz_matrix(coeffs)
    n = len(coeffs)
    return [_det_generic([row[:k] for row in H[:k]]) for k in range(1, n + 1)]


# --------------------------------------------------------------------------
# fixed-point search


@dataclass(frozen=True)
class FixedPoint:
    point: tuple[float, ...]
    residual: float          # max_i |G_i| at the point (velocities zero)
    denom_margin: float      # min_i |canonical denominator of G_i| there

    def __str__(self):
        coords = ", ".join(f"{c:.12g}" for c in self.point)
        return f"({coords})  residual={self.residual:.3g}  denom_margin={self.denom_margin:.3g}"


def _normalize_box(box, n: int) -> list[tuple[float, float]]:
    if box is None:
        return [(-DEFAULT_BOX_HALFWIDTH, DEFAULT_BOX_HALFWIDTH)] * n
    box = list(box)
    if len(box) == 2 and all(isinstance(b, (int, float, Fraction)) for b in box):
        lo, hi = float(box[0]), float(box[1])
        out = [(lo, hi)] * n
    else:
        out = [(float(lo), float(hi)) for lo, hi in box]
    if len(out) != n:
        raise ModelError(f"search box has {len(out)} axes, expected {n}")
    for lo, hi in out:
        if not lo < hi:
            raise ModelError("search box axes must satisfy lo < hi")
    return out


def _cleared_numerators(model: Model, params) -> tuple[list, list, tuple[str, ...]]:
    """Canonical (numerator, denominator) polynomial pairs of G_i at y = 0."""
    zeros = {y: 0 for y in model.ys}
    order = model.xs
    nums, dens = [], []
    for g in model.g_bound(params):
        cr = canonicalize(substitute(g, zeros), order)
        nums.append(cr.num)
        dens.append(cr.den)
    return nums, dens, order


def find_fixed_points(
    model: Model,
    params: Mapping[str, Fraction | float] | None = None,
    box=None,
    seeds: int = DEFAULT_SEEDS_PER_AXIS,
    *,
    dedup_radius: float = DEFAULT_DEDUP_RADIUS,
    denom_margin: float = DEFAULT_DENOM_MARGIN,
    residual_scale: float = DEFAULT_RESIDUAL_SCALE,
    max_iter: int = 80,
) -> list[FixedPoint]:
    """All fixed points (y = 0, G(x, 0) = 0) found in the box, sorted.

    Newton iteration runs on the cleared numerators from a uniform seed grid,
    one iteration at a time over every seed still iterating: the compiled
    numerators and Jacobian are evaluated on arrays and the steps come from
    one stacked solve.  Only in an iteration where that solve meets a
    singular Jacobian are the steps solved seed by seed, so a singular seed
    fails alone.  A seed fails on a non-finite value, a singular Jacobian or
    leaving the escape radius, and converges when its step is below 1e-12
    relative.  Converged candidates are kept only if every canonical G_i
    denominator stays above `denom_margin` in magnitude and the true residual
    max_i |G_i| is below residual_scale * (1 + |x|).  Duplicates within
    `dedup_radius` (max-norm) collapse, earlier seeds first; results sort
    lexicographically.

    The numerators and denominators are exact per parameter point: the
    parameter values are substituted and G at y = 0 canonicalized for each
    call, and `FixedPoint.residual`/`denom_margin` are measured on those
    canonical forms.
    """
    n = model.n
    bounds = _normalize_box(box, n)
    nums, dens, order = _cleared_numerators(model, params)
    f_num = compile_callable([p_to_expr(p, order) for p in nums], order)
    f_den = compile_callable([p_to_expr(p, order) for p in dens], order)
    jac_entries = [p_to_expr(p_diff(nums[i], j), order) for i in range(n) for j in range(n)]
    f_jac = compile_callable(jac_entries, order)

    span = max(hi - lo for lo, hi in bounds)
    escape = 10.0 * span + 100.0
    axes = [np.linspace(lo, hi, seeds) for lo, hi in bounds]
    X = np.array(list(itertools.product(*axes)), dtype=float).reshape(-1, n)
    converged = np.zeros(len(X), dtype=bool)
    active = np.arange(len(X))
    with np.errstate(all="ignore"):
        for _ in range(max_iter):
            if not len(active):
                break
            x = X[active]
            F = _on_rows(f_num, x)
            J = _on_rows(f_jac, x).reshape(-1, n, n)
            ok = np.isfinite(F).all(axis=1) & np.isfinite(J).all(axis=(1, 2))
            dx, solved = _newton_steps(J[ok], -F[ok])
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
        dvals = _on_rows(f_den, x)
        margin = np.abs(dvals).min(axis=1)
        keep &= margin > denom_margin
        resid = np.abs(_on_rows(f_num, x) / dvals).max(axis=1)
        keep &= resid <= residual_scale * (1.0 + np.abs(x).max(axis=1))

    found: list[FixedPoint] = []
    for row, r, d in zip(x[keep], resid[keep], margin[keep]):
        pt = tuple(float(c) for c in row)
        if any(max(abs(a - b) for a, b in zip(pt, q.point)) <= dedup_radius for q in found):
            continue
        found.append(FixedPoint(point=pt, residual=float(r), denom_margin=float(d)))
    return sorted(found, key=lambda fp: fp.point)


def _on_rows(fn, x: np.ndarray) -> np.ndarray:
    """A compiled callable at every row of x: one column per returned entry."""
    vals = fn(*x.T)
    out = np.empty((len(x), len(vals)))
    for j, v in enumerate(vals):
        out[:, j] = v
    return out


def _newton_steps(J: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve the stack J dx = rhs; returns dx and the mask of solvable rows."""
    try:
        return np.linalg.solve(J, rhs[..., None])[..., 0], np.ones(len(J), dtype=bool)
    except np.linalg.LinAlgError:
        dx = np.zeros_like(rhs)
        solved = np.ones(len(J), dtype=bool)
        for k in range(len(J)):
            try:
                dx[k] = np.linalg.solve(J[k], rhs[k])
            except np.linalg.LinAlgError:
                solved[k] = False
        return dx, solved


# --------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class StabilityReport:
    point: tuple[float, ...]
    verdict: str
    char_coeffs: tuple[float, ...]       # of the raw deviation curvature P
    hurwitz: tuple[float, ...]           # raw Hurwitz determinants
    eigenvalues: tuple[complex, ...]     # of raw P, sorted by real part desc
    scale: float                         # max |P entry| used for normalization
    decision_values: tuple[float, ...]   # normalized [a_n, Delta_1..Delta_n]
    rh_verdict: str = field(default="")
    eig_verdict: str = field(default="")

    def __str__(self):
        coords = ", ".join(f"{c:.12g}" for c in self.point)
        return f"({coords}) -> {self.verdict}"


class Classifier:
    """Evaluates the deviation curvature P at points of one parametrized model.

    P is derived and compiled once per model, with the parameters as
    arguments, and kept in `model.compiled`; a Classifier only resolves the
    parameter values to floats, so building one per parameter point does no
    symbolic work.
    """

    def __init__(self, model: Model, params: Mapping[str, Fraction | float] | None = None):
        self.model = model
        self._params = model.compiled.parameter_values(params)

    def curvature_at(self, point: Sequence[float], velocities: Sequence[float] | None = None) -> np.ndarray:
        compiled = self.model.compiled
        vals = compiled.call(compiled.curvature, self._params, point, velocities)
        n = self.model.n
        return np.array(vals, dtype=float).reshape(n, n)

    def classify(self, point: Sequence[float], tol: float = DEFAULT_TOL) -> StabilityReport:
        P = self.curvature_at(point)
        return classify_matrix(P, tuple(float(c) for c in point), tol)


def classify_matrix(P: np.ndarray, point: tuple[float, ...] = (), tol: float = DEFAULT_TOL) -> StabilityReport:
    """Routh–Hurwitz verdict for x'' eigen-dynamics governed by matrix P.

    Stability decisions are made on P normalized by its largest entry so
    `tol` acts scale-free; any decisive quantity inside the tolerance band,
    or any disagreement with the eigenvalue sign check, yields Indeterminate.
    """
    P = np.asarray(P, dtype=float)
    n = P.shape[0]
    raw_coeffs = char_poly(P)
    raw_hurwitz = hurwitz_determinants(raw_coeffs)
    eigs = sorted(np.linalg.eigvals(P), key=lambda z: (-z.real, -z.imag))
    scale = float(np.max(np.abs(P)))
    if scale == 0.0:
        return StabilityReport(
            point=point,
            verdict=INDETERMINATE,
            char_coeffs=tuple(raw_coeffs),
            hurwitz=tuple(raw_hurwitz),
            eigenvalues=tuple(complex(z) for z in eigs),
            scale=0.0,
            decision_values=(0.0,) * (n + 1),
            rh_verdict=INDETERMINATE,
            eig_verdict=INDETERMINATE,
        )
    coeffs_n = char_poly(P / scale)
    hur_n = hurwitz_determinants(coeffs_n)
    decision = [coeffs_n[-1]] + list(hur_n)
    if any(v < -tol for v in decision):
        rh = UNSTABLE
    elif all(v > tol for v in decision):
        rh = STABLE
    else:
        rh = INDETERMINATE
    max_re = max(z.real for z in eigs) / scale
    if max_re > tol:
        ev = UNSTABLE
    elif max_re < -tol:
        ev = STABLE
    else:
        ev = INDETERMINATE
    verdict = rh if rh == ev else INDETERMINATE
    return StabilityReport(
        point=point,
        verdict=verdict,
        char_coeffs=tuple(float(c) for c in raw_coeffs),
        hurwitz=tuple(float(h) for h in raw_hurwitz),
        eigenvalues=tuple(complex(z) for z in eigs),
        scale=scale,
        decision_values=tuple(decision),
        rh_verdict=rh,
        eig_verdict=ev,
    )


def classify(
    model: Model,
    params: Mapping[str, Fraction | float] | None = None,
    point: Sequence[float] = (),
    tol: float = DEFAULT_TOL,
) -> StabilityReport:
    """Jacobi-stability verdict at one point (normally a fixed point)."""
    return Classifier(model, params).classify(point, tol)


def classify_all(
    model: Model,
    params: Mapping[str, Fraction | float] | None = None,
    box=None,
    seeds: int = DEFAULT_SEEDS_PER_AXIS,
    tol: float = DEFAULT_TOL,
    **search_opts,
) -> list[tuple[FixedPoint, StabilityReport]]:
    """Locate all fixed points in the box and classify each."""
    fps = find_fixed_points(model, params, box, seeds, **search_opts)
    clf = Classifier(model, params)
    return [(fp, clf.classify(fp.point, tol)) for fp in fps]


def count_stable(
    model: Model,
    params: Mapping[str, Fraction | float] | None = None,
    box=None,
    seeds: int = DEFAULT_SEEDS_PER_AXIS,
    tol: float = DEFAULT_TOL,
    **search_opts,
) -> int:
    """Number of Jacobi-stable fixed points found in the box."""
    return sum(
        1
        for _, rep in classify_all(model, params, box, seeds, tol, **search_opts)
        if rep.verdict == STABLE
    )


# --------------------------------------------------------------------------
# symbolic semialgebraic stability conditions


@dataclass
class SemiAlgebraicSystem:
    """Sign conditions carving out the Jacobi-stable fixed points.

    equations    numerators of G_i(x, 0)            (= 0)
    inequations  position-dependent denominators    (!= 0)
    inequalities num*den products of a_n and each Hurwitz determinant (> 0)
    """

    vars: tuple[str, ...]
    equations: list[Poly]
    inequations: list[Poly]
    inequalities: list[Poly]
    char_coeffs: list[CanonicalRational]
    hurwitz_dets: list[CanonicalRational]

    def render(self) -> list[str]:
        lines = []
        for p in self.equations:
            lines.append(f"EQ:  {p_str(p, self.vars)} = 0")
        for p in self.inequations:
            lines.append(f"NEQ: {p_str(p, self.vars)} != 0")
        for p in self.inequalities:
            lines.append(f"GT:  {p_str(p, self.vars)} > 0")
        return lines

    def __str__(self):
        return "\n".join(self.render())


def _bcheck(size: int, budget: int, context: str):
    if size > budget:
        raise BudgetExceededError(size, budget, context)


def assemble_semialgebraic(
    model: Model,
    params: Mapping[str, Fraction | float] | None = None,
    budget: int = DEFAULT_MONOMIAL_BUDGET,
) -> SemiAlgebraicSystem:
    """Build the polynomial stability conditions symbolically.

    With `params` omitted the conditions are polynomials in positions and
    parameters jointly; with values supplied they are conditions in the
    positions only.  Any intermediate polynomial exceeding `budget`
    monomials aborts with a size diagnostic.
    """
    n = model.n
    bind: dict = {}
    if params:
        for k, v in params.items():
            if k not in model.params:
                raise ModelError(f"unknown parameter '{k}' for model '{model.name}'")
            bind[k] = Fraction(v)
    free_params = tuple(p for p in model.params if p not in bind)
    order = model.xs + free_params
    zeros = dict(bind)
    zeros.update({y: 0 for y in model.ys})

    equations: list[Poly] = []
    inequations: list[Poly] = []
    for g in model.G:
        cr = canonicalize(substitute(g, zeros), order)
        _bcheck(cr.monomial_count(), budget, "clearing G denominators")
        equations.append(cr.num)
        den = cr.den
        if any(any(m[i] for i in range(n)) for m in den):
            if den not in inequations:
                inequations.append(den)
    if not inequations:
        inequations.append(p_const(1, len(order)))

    inv = model.compiled.invariants
    P0 = [
        [canonicalize(substitute(e, zeros), order) for e in row] for row in inv.P
    ]
    for row in P0:
        for cr in row:
            _bcheck(cr.monomial_count(), budget, "canonicalizing deviation curvature")
    coeffs = _char_poly_budgeted(P0, budget)
    dets = _hurwitz_budgeted(coeffs, budget)

    inequalities: list[Poly] = []
    a_n = coeffs[-1]
    prod = p_mul(a_n.num, a_n.den)
    _bcheck(len(prod), budget, "forming a_n positivity condition")
    inequalities.append(prod)
    for k, d in enumerate(dets, start=1):
        prod = p_mul(d.num, d.den)
        _bcheck(len(prod), budget, f"forming Hurwitz condition {k}")
        inequalities.append(prod)

    return SemiAlgebraicSystem(
        vars=order,
        equations=equations,
        inequations=inequations,
        inequalities=inequalities,
        char_coeffs=coeffs,
        hurwitz_dets=dets,
    )


def _char_poly_budgeted(A: list[list[CanonicalRational]], budget: int):
    n = len(A)
    vars = A[0][0].vars
    one = CanonicalRational.const(1, vars)
    zero = CanonicalRational.zero(vars)
    M = [[one if i == j else zero for j in range(n)] for i in range(n)]
    coeffs = []
    for k in range(1, n + 1):
        AM = [[zero for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(n):
                acc = zero
                for l in range(n):
                    acc = acc + A[i][l] * M[l][j]
                _bcheck(acc.monomial_count(), budget, "characteristic polynomial")
                AM[i][j] = acc
        tr = AM[0][0]
        for i in range(1, n):
            tr = tr + AM[i][i]
        ck = tr.scale(Fraction(-1, k))
        _bcheck(ck.monomial_count(), budget, "characteristic polynomial")
        coeffs.append(ck)
        if k < n:
            M = [
                [AM[i][j] + ck if i == j else AM[i][j] for j in range(n)]
                for i in range(n)
            ]
    return coeffs


def _hurwitz_budgeted(coeffs: list[CanonicalRational], budget: int):
    H = hurwitz_matrix(coeffs)
    out = []
    for k in range(1, len(coeffs) + 1):
        d = _det_generic([row[:k] for row in H[:k]])
        _bcheck(d.monomial_count(), budget, f"Hurwitz determinant {k}")
        out.append(d)
    return out


# --------------------------------------------------------------------------
# airfoil parameter regions

# Sign conditions over the (Minf, V) parameter plane determining how many
# Jacobi-stable fixed points the built-in airfoil model has.  Labels C1-C3
# give exactly one, C4-C5 exactly two; all require the strict-sign guard
# (no boundary case).
_AIRFOIL_R_SRC = {
    "R1": "-9450*V^2*Minf - 43*V^2 + 135*V*Minf + 621900*Minf^2",
    "R2": "1800*V^4*Minf + 1500*V^3*Minf^2 - 15660000*V^2*Minf^3 + 4*V^4"
          " + 20*V^3*Minf - 123675*V^2*Minf^2 + 297000*V*Minf^3 + 769590000*Minf^4",
    "R3": "-V^2 + 50*Minf",
    "R4": "V^2*Minf - 5000",
    "R5": "-18900*V^4*Minf^2 + 43*V^4*Minf - 135*V^3*Minf^2 + 795600*V^2*Minf^3"
          " + 47250000*V^2*Minf - 215000*V^2 + 675000*V*Minf - 1615500000*Minf^2",
    "R6": "3600*V^6*Minf^2 + 3000*V^5*Minf^3 - 31320000*V^4*Minf^4 - 4*V^6*Minf"
          " - 20*V^5*Minf^2 - 146325*V^4*Minf^3 - 522000*V^3*Minf^4"
          " + 1579410000*V^2*Minf^5 - 4500000*V^4*Minf - 532500000*V^3*Minf^2"
          " + 155250000000*V^2*Minf^3 + 20000*V^4 + 100000*V^3*Minf"
          " + 56625000*V^2*Minf^2 + 28485000000*V*Minf^3 - 7829550000000*Minf^4",
}

AIRFOIL_REGION_POLYNOMIALS: dict[str, Expr] = {k: parse(v) for k, v in _AIRFOIL_R_SRC.items()}

# (label, {R name: required sign}, stable fixed point count)
AIRFOIL_REGIONS: list[tuple[str, dict[str, int], int]] = [
    ("C1", {"R1": 1, "R2": 1, "R4": 1, "R5": 1, "R6": 1}, 1),
    ("C2", {"R1": 1, "R2": 1, "R3": 1, "R4": -1}, 1),
    ("C3", {"R1": 1, "R2": 1, "R3": 1, "R4": 1, "R5": -1, "R6": 1}, 1),
    ("C4", {"R1": -1, "R3": -1, "R4": -1, "R5": 1, "R6": 1}, 2),
    ("C5", {"R1": 1, "R2": -1, "R3": -1, "R4": -1, "R5": 1, "R6": 1}, 2),
]


@dataclass(frozen=True)
class RegionReport:
    label: str | None            # C1..C5, or None when no region matches
    stable_count: int | None     # stable fixed points implied by the label
    values: dict                 # exact Fraction value of each R polynomial
    boundary: bool               # True when the strict-sign guard fails

    def __str__(self):
        if self.boundary:
            return "boundary (degenerate sign condition)"
        return self.label or "no region"


def airfoil_region_conditions(minf, v) -> RegionReport:
    """Exact sign classification of airfoil parameters into C1..C5.

    Inputs convert to exact rationals, every R polynomial is evaluated in
    exact arithmetic, and the first matching region in index order wins
    (the regions are pairwise disjoint, so the order is immaterial).
    """
    bind = {"Minf": Fraction(minf), "V": Fraction(v)}
    values = {
        name: evaluate(e, bind) for name, e in AIRFOIL_REGION_POLYNOMIALS.items()
    }
    guard = (bind["Minf"] - 10) != 0 and all(val != 0 for val in values.values())
    if not guard:
        return RegionReport(label=None, stable_count=None, values=values, boundary=True)
    for label, signs, k in AIRFOIL_REGIONS:
        if all(
            (values[name] > 0) if s > 0 else (values[name] < 0)
            for name, s in signs.items()
        ):
            return RegionReport(label=label, stable_count=k, values=values, boundary=False)
    return RegionReport(label=None, stable_count=None, values=values, boundary=False)
