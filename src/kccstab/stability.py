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

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .expr import (
    BudgetExceededError,
    CanonicalRational,
    Expr,
    ParameterBinder,
    Poly,
    _checked,
    _too_deep,
    canonicalize,
    char_poly,
    det,
    lazy_numpy,
    p_const,
    p_exquo,
    p_gcd,
    p_mul,
    p_str,
    parse,
    poly_of,
    substitute,
)
from .kcc import Model, ModelError

np = lazy_numpy()  # numpy runs on its first numeric use

DEFAULT_BOX_HALFWIDTH = 10.0
DEFAULT_SEEDS_PER_AXIS = 9
DEFAULT_DEDUP_RADIUS = 1e-6
DEFAULT_DENOM_MARGIN = 1e-8
DEFAULT_RESIDUAL_SCALE = 1e-10
DEFAULT_TOL = 1e-9
MAX_NEWTON_STEPS = 80
DEFAULT_MONOMIAL_BUDGET = 200000

STABLE = "Stable"
UNSTABLE = "Unstable"
INDETERMINATE = "Indeterminate"


# --------------------------------------------------------------------------
# Hurwitz determinants (generic ring elements)


def hurwitz_matrix(coeffs: Sequence) -> list[list]:
    """The n x n Hurwitz matrix H[i][j] = a_{2j-i} (1-indexed) of
    coeffs = [a_0, a_1, ..., a_n], with a_0 - a_0 outside that range."""
    n = len(coeffs) - 1
    zero = coeffs[0] - coeffs[0]
    return [
        [coeffs[k] if 0 <= (k := 2 * j - i) <= n else zero for j in range(1, n + 1)]
        for i in range(1, n + 1)
    ]


def hurwitz_determinants(coeffs: Sequence, check=None) -> list:
    """Leading principal minors [Delta_1..Delta_n] of the Hurwitz matrix of
    coeffs = [a_0, a_1, ..., a_n].

    Delta_1 = a_1, and Delta_n = a_n·Delta_{n-1} as a_n is the only nonzero
    entry in the last column (Gantmacher, Theory of Matrices II, ch. XV), so
    only Delta_2..Delta_{n-1} are taken by `det`, the division-free
    Berkowitz recursion of `char_poly`.  `check(value, context)`, when given,
    is called on each minor as soon as it is formed, with context "Hurwitz
    determinant k"; it aborts the computation by raising.
    """
    H = hurwitz_matrix(coeffs)
    dets = [_checked(check, coeffs[1], "Hurwitz determinant 1")]
    for k in range(2, len(H) + 1):
        d = coeffs[-1] * dets[-1] if k == len(H) else det([row[:k] for row in H[:k]])
        dets.append(_checked(check, d, f"Hurwitz determinant {k}"))
    return dets


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


def find_fixed_points(
    model: Model,
    params: Mapping[str, Fraction | float] | None = None,
    box=None,
    seeds: int = DEFAULT_SEEDS_PER_AXIS,
) -> list[FixedPoint]:
    """All fixed points (y = 0, G(x, 0) = 0) found in the box, sorted.

    Newton iteration runs on the cleared numerators from a uniform seed grid,
    one iteration at a time over every seed still iterating: one compiled
    call gives the numerators and their Jacobian on arrays, and the steps
    come from one stacked solve.  Only in an iteration where that solve
    meets a singular Jacobian are the steps solved seed by seed, so a
    singular seed fails alone.  A seed fails on a non-finite value, a
    singular Jacobian or leaving the escape radius, and converges when its
    step is below 1e-12 relative.  Converged candidates are kept only if
    every G_i denominator, and the numerator of every divisor of G as
    written that involves a position (see `FixedPointSystem.bind`),
    stays above DEFAULT_DENOM_MARGIN in magnitude, and the true residual
    max_i |G_i| is below DEFAULT_RESIDUAL_SCALE * (1 + |x|).  Duplicates
    within DEFAULT_DEDUP_RADIUS (max-norm) collapse, earlier seeds first, by
    vector comparisons (`_first_of_each_root`); results sort lexicographically.

    The pairs and divisor numerators are those `conditions` prints, from
    `model.compiled.fixed_points.bind` at `model.binding(params)`, evaluated
    by the numerators with their Jacobian, then the denominators and the
    divisor numerators (`model.compiled.fixed_point_forms`).
    """
    n = model.n
    bounds = _normalize_box(box, n)
    nums, dens, divisors = model.compiled.fixed_points.bind(model.binding(params))
    # the divisor numerators are evaluated after the denominators
    (f_fj, c_fj), (f_den, c_den) = model.compiled.fixed_point_forms(nums, dens + divisors)

    span = max(hi - lo for lo, hi in bounds)
    escape = 10.0 * span + 100.0
    axes = [np.linspace(lo, hi, seeds) for lo, hi in bounds]
    X = np.array(list(itertools.product(*axes)), dtype=float).reshape(-1, n)
    converged = np.zeros(len(X), dtype=bool)
    active = np.arange(len(X))
    with np.errstate(all="ignore"):
        for _ in range(MAX_NEWTON_STEPS):
            if not len(active):
                break
            x = X[active]
            FJ = _on_rows(f_fj, x, c_fj)
            ok = np.isfinite(FJ).all(axis=1)
            if not ok.all():
                active, x, FJ = active[ok], x[ok], FJ[ok]
            dx, solved = _newton_steps(FJ[:, n:].reshape(-1, n, n), -FJ[:, :n])
            if not solved.all():
                active, x, dx = active[solved], x[solved], dx[solved]
            x += dx
            X[active] = x
            size = np.abs(x).max(axis=1)
            escaped = size > escape
            done = ~escaped & (np.abs(dx).max(axis=1) <= 1e-12 * (1.0 + size))
            converged[active[done]] = True
            active = active[~escaped & ~done]

        x = X[converged]
        lo, hi = np.array(bounds).T
        keep = ((x >= lo - 1e-9) & (x <= hi + 1e-9)).all(axis=1)
        dvals = np.abs(_on_rows(f_den, x, c_den))
        margin = dvals[:, :n].min(axis=1)
        keep &= dvals.min(axis=1) > DEFAULT_DENOM_MARGIN
        resid = np.abs(_on_rows(f_fj, x, c_fj)[:, :n] / dvals[:, :n]).max(axis=1)
        keep &= resid <= DEFAULT_RESIDUAL_SCALE * (1.0 + np.abs(x).max(axis=1))

    x, resid, margin = x[keep], resid[keep], margin[keep]
    return _in_print_order([
        FixedPoint(point=tuple(x[i].tolist()), residual=float(resid[i]), denom_margin=float(margin[i]))
        for i in _first_of_each_root(x)
    ])


def _first_of_each_root(x: np.ndarray) -> list[int]:
    """Indices of the rows of x that no earlier kept row is within
    DEFAULT_DEDUP_RADIUS of (max-norm): one array comparison per kept row."""
    kept, alive = [], np.arange(len(x))
    while len(alive):
        kept.append(alive[0])
        alive = alive[1:][np.abs(x[alive[1:]] - x[alive[0]]).max(axis=1) > DEFAULT_DEDUP_RADIUS]
    return kept


def _in_print_order(points: list[FixedPoint]) -> list[FixedPoint]:
    """Sort lexicographically on the coordinates as printed (12 significant
    digits), so roots that agree up to rounding order by their next coordinate."""
    return sorted(points, key=lambda fp: tuple(float(f"{c:.12g}") for c in fp.point))


def _on_rows(fn, x: np.ndarray, coefficients: Sequence[float]) -> np.ndarray:
    """A compiled callable at every row of x (then `coefficients`): one column per entry."""
    vals = fn(*x.T, *coefficients)
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
    arguments, into the one state evaluator `model.compiled.at` runs, which
    also gives A21 and A22; a Classifier only resolves the parameter values
    to floats, so building one per parameter point does no symbolic work.
    """

    def __init__(self, model: Model, params: Mapping[str, Fraction | float] | None = None):
        self.model = model
        self._params = model.compiled.parameter_values(params)

    def curvature_at(self, point: Sequence[float], velocities: Sequence[float] | None = None) -> np.ndarray:
        return self.model.compiled.at(self._params, point, velocities)[0]

    def classify(self, point: Sequence[float], tol: float = DEFAULT_TOL) -> StabilityReport:
        P = self.curvature_at(point)
        return classify_matrix(P, tuple(float(c) for c in point), tol)


def classify_matrix(P: np.ndarray, point: tuple[float, ...] = (), tol: float = DEFAULT_TOL) -> StabilityReport:
    """Routh–Hurwitz verdict for x'' eigen-dynamics governed by matrix P.

    Stability decisions are made on P normalized by its largest entry so
    `tol` acts scale-free; any decisive quantity inside the tolerance band,
    or any disagreement with the eigenvalue sign check, yields Indeterminate.
    """
    return classify_matrices(np.asarray(P, dtype=float)[None], [point], tol)[0]


def classify_matrices(
    Ps: np.ndarray, points: Sequence[tuple[float, ...]], tol: float = DEFAULT_TOL
) -> list[StabilityReport]:
    """`classify_matrix` of every matrix in the (m, n, n) stack Ps, in one pass:
    `char_poly` and `hurwitz_determinants` run on a matrix of length-2m arrays,
    Ps then Ps / scale (decision values), so each report has the floats of its
    matrix alone, in the same order."""
    Ps = np.asarray(Ps, dtype=float)
    m, n = Ps.shape[:2]

    def per_point(values):
        return np.array(values).T.tolist()

    scales = np.abs(Ps).max(axis=(1, 2))
    with np.errstate(all="ignore"):
        normalized = Ps / scales[:, None, None]
    stack = np.concatenate([Ps, normalized])
    coeffs = char_poly([[stack[:, i, j] for j in range(n)] for i in range(n)])
    hurwitz = hurwitz_determinants([1.0] + coeffs)
    raw_coeffs = per_point([c[:m] for c in coeffs])
    raw_hurwitz = per_point([h[:m] for h in hurwitz])
    decisions = per_point([c[m:] for c in [coeffs[-1]] + hurwitz])
    reports = []
    for point, eigvals, c, h, scale, decision in zip(
        points, np.linalg.eigvals(Ps), raw_coeffs, raw_hurwitz, scales.tolist(), decisions,
    ):
        eigs = tuple(complex(z) for z in sorted(eigvals, key=lambda z: (-z.real, -z.imag)))
        if scale == 0.0:
            decision, rh, ev = [0.0] * (n + 1), INDETERMINATE, INDETERMINATE
        else:
            rh = _sign_verdict(decision, tol)
            ev = _sign_verdict([-max(z.real for z in eigs) / scale], tol)
        reports.append(StabilityReport(
            point=tuple(point), verdict=rh if rh == ev else INDETERMINATE,
            char_coeffs=tuple(c), hurwitz=tuple(h), eigenvalues=eigs, scale=scale,
            decision_values=tuple(decision), rh_verdict=rh, eig_verdict=ev,
        ))
    return reports


def _sign_verdict(values, tol: float) -> str:
    """Unstable when a value is below -tol, Stable when all are above tol."""
    if any(v < -tol for v in values):
        return UNSTABLE
    return STABLE if all(v > tol for v in values) else INDETERMINATE


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
) -> list[tuple[FixedPoint, StabilityReport]]:
    """Locate all fixed points in the box and classify each: P point by
    point, then one `classify_matrices` pass with `classify_matrix`'s floats."""
    fps = find_fixed_points(model, params, box, seeds)
    clf = Classifier(model, params)
    Ps = np.array([clf.curvature_at(fp.point) for fp in fps]).reshape(-1, model.n, model.n)
    return list(zip(fps, classify_matrices(Ps, [fp.point for fp in fps], tol)))


def count_stable(
    model: Model,
    params: Mapping[str, Fraction | float] | None = None,
    box=None,
    seeds: int = DEFAULT_SEEDS_PER_AXIS,
    tol: float = DEFAULT_TOL,
) -> int:
    """Number of Jacobi-stable fixed points found in the box."""
    return sum(
        1
        for _, rep in classify_all(model, params, box, seeds, tol)
        if rep.verdict == STABLE
    )


# --------------------------------------------------------------------------
# symbolic semialgebraic stability conditions


@dataclass
class SemiAlgebraicSystem:
    """Sign conditions carving out the Jacobi-stable fixed points.

    equations    numerators of G_i(x, 0)            (= 0)
    inequations  position-dependent numerators of the divisors of G as
                 written, at y = 0                   (!= 0)
    inequalities num*den products of a_n and each Hurwitz determinant (> 0)

    The equations and inequations are the pairs and divisor numerators of
    `FixedPointSystem.bind`, the ones the fixed-point search runs on.
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
    def check(value: CanonicalRational, context: str):
        _bcheck(value.monomial_count(), budget, context)

    values = {k: Fraction(v) for k, v in (params or {}).items()}
    # G at rest and its divisors are those the fixed-point search binds
    equations, dens, inequations = model.compiled.fixed_points.bind(values)
    for num, den in zip(equations, dens):
        _bcheck(len(num) + len(den), budget, "clearing G denominators")
    order = model.xs + tuple(p for p in model.params if p not in values)
    if not inequations:
        inequations.append(p_const(1, len(order)))
    zeros = {**values, **{y: 0 for y in model.ys}}
    with _too_deep("canonicalize"):
        P0 = [
            [canonicalize(substitute(e, zeros), order) for e in row]
            for row in model.compiled.invariants.P
        ]
    for row in P0:
        for cr in row:
            check(cr, "canonicalizing deviation curvature")
    # P = P~/D with D the lcm of the entry denominators, so the recursion
    # runs over polynomials (no gcd) and a_k(P) = c_k(P~)/D^k, reduced once
    D = P0[0][0].den
    for cr in itertools.chain.from_iterable(P0):
        if cr.den != D:
            D = p_mul(D, p_exquo(cr.den, p_gcd(D, cr.den)))
    _bcheck(len(D), budget, "clearing P denominators")
    one = p_const(1, len(order))
    Pt = [
        [CanonicalRational(order, p_mul(cr.num, p_exquo(D, cr.den)), one) for cr in row]
        for row in P0
    ]
    for row in Pt:
        for cr in row:
            check(cr, "clearing P denominators")
    coeffs, Dk = [], one
    for ck in char_poly(Pt, check):
        Dk = p_mul(Dk, D)
        coeffs.append(ck / CanonicalRational(order, Dk, one))
        check(coeffs[-1], "characteristic polynomial")
    dets = hurwitz_determinants([CanonicalRational.const(1, order)] + coeffs, check)

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


@functools.lru_cache(maxsize=None)
def _region_binder() -> ParameterBinder:
    """The R polynomials, in order, as integer Polys over (Minf, V) (their
    coefficients are integers, so `poly_of` is exact); built on first use."""
    polys = [poly_of(e, ("Minf", "V")) for e in AIRFOIL_REGION_POLYNOMIALS.values()]
    return ParameterBinder(polys, 2)


def airfoil_region_conditions(minf, v) -> RegionReport:
    """Exact sign classification of airfoil parameters into C1..C5.

    Inputs convert to exact rationals, every R polynomial is evaluated in
    exact arithmetic, and the first matching region in index order wins
    (the regions are pairwise disjoint, so the order is immaterial).  Each
    R polynomial is one integer sum over a common denominator (see
    ParameterBinder), turned into a single Fraction.
    """
    bind = {"Minf": Fraction(minf), "V": Fraction(v)}
    binder = _region_binder()
    weights, scale = binder.weights([bind["Minf"], bind["V"]])
    values = {
        name: Fraction(binder.value(i, weights), scale)
        for i, name in enumerate(AIRFOIL_REGION_POLYNOMIALS)
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
