"""KCC (Kosambi–Cartan–Chern) invariants for second-order ODE systems.

A model is a system of n second-order equations in standard form

    d²x_i/dt² + 2 G_i(mu; x, y) = 0,        y_i = dx_i/dt,

with G_i rational in positions x_1..x_n, velocities y_1..y_n and parameters.
From the G_i this module derives the geometric data attached to the system:
the nonlinear connection, the Berwald connection, the deviation curvature
tensor (whose eigen-structure decides Jacobi stability), the first invariant,
and the higher curvature/torsion invariants.  Everything here is exact
symbolic computation on expression trees.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Callable, Mapping, Sequence

from .expr import (
    Add,
    Div,
    Expr,
    ExprError,
    Mul,
    ParameterBinder,
    Poly,
    Pow,
    Symbol,
    ZeroDenominatorError,
    _canon_pair,
    _too_deep,
    add,
    as_expr,
    canonicalize,
    collect_symbols,
    compile_callable,
    det,
    differentiate,
    div,
    lazy_numpy,
    mul,
    p_diff,
    p_primitive,
    p_sorted,
    pow_,
    sub,
    substitute,
    to_float,
)

np = lazy_numpy()  # numpy runs on its first numeric use


class ModelError(Exception):
    """Invalid model definition (bad symbols, dimensions, parameters...)."""


def velocity_names(n: int) -> tuple[str, ...]:
    return tuple(f"y{i}" for i in range(1, n + 1))


class Model:
    """A second-order system in standard form, with named parameters.

    `xs` are the position variable names; velocity symbols are always
    y1..yn, one per position, in order.  `G` holds the n standard-form
    coefficient expressions.  `defaults` maps parameter names to exact
    rational default values (may cover only part of `params`).  The data
    derived from G is built on first use and kept in `compiled`.
    """

    def __init__(
        self,
        name: str,
        xs: Sequence[str],
        G: Sequence[Expr],
        params: Sequence[str] = (),
        defaults: Mapping[str, Fraction] | None = None,
    ):
        self.name = name
        self.xs = tuple(xs)
        self.ys = velocity_names(len(self.xs))
        self.params = tuple(params)
        self.defaults = {k: Fraction(v) for k, v in (defaults or {}).items()}
        self.G = tuple(as_expr(g) for g in G)
        self._validate()

    @property
    def n(self) -> int:
        return len(self.xs)

    @cached_property
    def compiled(self) -> "CompiledModel":
        """The invariants and compiled evaluators of this model, built once."""
        return CompiledModel(self)

    def _validate(self):
        if not self.xs:
            raise ModelError("model must declare at least one position variable")
        if len(self.G) != self.n:
            raise ModelError(
                f"model has {self.n} variables but {len(self.G)} G expressions"
            )
        seen: set[str] = set()
        for v in self.xs + self.params:
            if v in seen:
                raise ModelError(f"duplicate name '{v}' in model declaration")
            seen.add(v)
        reserved = set(self.ys)
        clash = reserved & set(self.xs) | reserved & set(self.params)
        if clash:
            raise ModelError(
                f"names {sorted(clash)} are reserved for velocity symbols"
            )
        allowed = set(self.xs) | set(self.params) | reserved
        for i, g in enumerate(self.G, start=1):
            stray = collect_symbols(g) - allowed
            if stray:
                raise ModelError(
                    f"undeclared symbol '{sorted(stray)[0]}' in G{i}"
                )
        for k in self.defaults:
            if k not in self.params:
                raise ModelError(f"default value for unknown parameter '{k}'")

    def binding(self, params: Mapping[str, Fraction | float] | None = None) -> dict:
        """Merge user parameter values over defaults; all params must resolve."""
        vals = dict(self.defaults)
        for k, v in (params or {}).items():
            if k not in self.params:
                raise ModelError(f"unknown parameter '{k}' for model '{self.name}'")
            vals[k] = Fraction(v)  # floats convert exactly (binary expansion)
        missing = [p for p in self.params if p not in vals]
        if missing:
            raise ModelError(
                f"missing value for parameter(s) {', '.join(missing)} "
                f"of model '{self.name}'"
            )
        return vals

    def g_bound(self, params: Mapping[str, Fraction | float] | None = None) -> list[Expr]:
        """G expressions with parameter values substituted in."""
        bind = self.binding(params)
        with _too_deep("substitute"):
            return [substitute(g, bind) for g in self.G]


# --------------------------------------------------------------------------
# invariants


class KccInvariants:
    """Symbolic curvature data of a model.

    N        nonlinear connection            N^i_j = dG^i/dy_j
    berwald  Berwald connection              G^i_{jl} = dN^i_j/dy_l
    epsilon  first invariant                 eps^i = 2 G^i - N^i_j y_j
    A21      position deviation block        A21^i_j = -2 dG^i/dx_j
    A22      velocity deviation block        A22^i_j = -2 N^i_j
    P        deviation curvature tensor (second invariant), A21 its first term
    torsion  third invariant                 P^i_{jk} antisymmetric in (j,k)
    riemann  fourth invariant                P^i_{jkl} = dP^i_{jk}/dy_l
    douglas  fifth invariant                 D^i_{jkl} = dG^i_{jk}/dy_l
    """

    def __init__(self, model: Model):
        self.model = model
        n = model.n
        xs, ys, G = model.xs, model.ys, model.G
        self.N = _by_velocities(G, ys)
        self.berwald = _by_velocities(self.N, ys)
        self.epsilon = [
            sub(mul(2, G[i]), add(*[mul(self.N[i][j], Symbol(ys[j])) for j in range(n)]))
            for i in range(n)
        ]
        self.A21 = [[mul(-2, differentiate(G[i], xs[j])) for j in range(n)] for i in range(n)]
        self.A22 = [[mul(-2, e) for e in row] for row in self.N]
        self.P = [
            [
                add(
                    self.A21[i][j],
                    mul(-2, add(*[mul(G[l], self.berwald[i][j][l]) for l in range(n)])),
                    add(
                        *[
                            mul(Symbol(ys[l]), differentiate(self.N[i][j], xs[l]))
                            for l in range(n)
                        ]
                    ),
                    add(*[mul(self.N[i][l], self.N[l][j]) for l in range(n)]),
                )
                for j in range(n)
            ]
            for i in range(n)
        ]

    @cached_property
    def torsion(self):
        d, rng = _by_velocities(self.P, self.model.ys), range(self.model.n)
        return [
            [[mul(Fraction(1, 3), sub(d[i][j][k], d[i][k][j])) for k in rng] for j in rng]
            for i in rng
        ]

    @cached_property
    def riemann(self):
        return _by_velocities(self.torsion, self.model.ys)

    @cached_property
    def douglas(self):
        return _by_velocities(self.berwald, self.model.ys)


def _by_velocities(t, ys: Sequence[str]) -> list:
    """The derivatives of each expression in the nested lists t by each
    velocity, indexed last."""
    if isinstance(t, (list, tuple)):
        return [_by_velocities(e, ys) for e in t]
    return [differentiate(t, y) for y in ys]


def invariants(model: Model) -> KccInvariants:
    """Derive the invariants afresh; `model.compiled.invariants` keeps one copy.

    A model nested too deeply to differentiate raises ExprError.
    """
    with _too_deep("differentiate"):
        return KccInvariants(model)


# --------------------------------------------------------------------------
# deviation (Jacobi) equations


class DeviationSystem:
    """Linearized trajectory-deviation dynamics xi'' = A21 xi + A22 xi'.

    A21 = -2 dG/dx and A22 = -2 N, both n x n symbolic matrices; `block`
    is the 2n x 2n first-order form [[0, E], [A21, A22]].  The blocks are
    copies of those of the model's invariants, derived once and kept in
    `model.compiled`; `at_point` reads their values from `model.compiled.at`.
    """

    __slots__ = ("model", "A21", "A22")

    def __init__(self, model: Model):
        self.model = model
        inv = model.compiled.invariants
        self.A21 = [list(row) for row in inv.A21]
        self.A22 = [list(row) for row in inv.A22]

    @property
    def n(self) -> int:
        return self.model.n

    def block(self) -> list[list[Expr]]:
        n = self.n
        zero = as_expr(0)
        top = [
            [as_expr(1) if j == n + i else zero for j in range(2 * n)] for i in range(n)
        ]
        bottom = [self.A21[i] + self.A22[i] for i in range(n)]
        return top + bottom

    def equations(self) -> list[str]:
        """Human-readable second-order deviation equations."""
        out = []
        for i in range(self.n):
            rhs_parts = []
            for j in range(self.n):
                rhs_parts.append(f"({self.A21[i][j]})*xi{j + 1}")
            for j in range(self.n):
                rhs_parts.append(f"({self.A22[i][j]})*xi{j + 1}'")
            out.append(f"xi{i + 1}'' = " + " + ".join(rhs_parts))
        return out

    def at_point(
        self,
        params: Mapping[str, Fraction | float] | None,
        point: Sequence[float],
        velocities: Sequence[float] | None = None,
    ) -> tuple[list[list[float]], list[list[float]]]:
        """Evaluate (A21, A22) numerically at a state (default velocities 0)."""
        compiled = self.model.compiled
        _, a21, a22 = compiled.at(compiled.parameter_values(params), point, velocities)
        return a21.tolist(), a22.tolist()


def kcc_deviation(model: Model) -> DeviationSystem:
    return DeviationSystem(model)


# --------------------------------------------------------------------------
# derived data kept per model


class CompiledModel:
    """Symbolic data of one model, derived once, and its compiled evaluators.

    `Model.compiled` builds this on first use and keeps it on the model, so
    however many parameter points are analysed, the invariants are derived
    once and each evaluator is compiled once; each part is built when first
    asked for:

    invariants        the KccInvariants of the model, with the deviation
                      blocks A21 and A22
    state             P, A21 and A22, 3*n*n entries row-major, as a function
                      of `xs + ys + params` as floats; `at` runs it
    fixed_points      the FixedPointSystem: G at y = 0 and its divisors as
                      canonical pairs over `xs + params`, and `bind`, which
                      binds exact values of any of the parameters into them

    Each entry of `state` has the float operations of its own tree; a
    subtree shared by entries, such as A21 inside P, is computed once.
    Parameter values enter only `rk4`, set by `numerics._rk4_kernel`.  The
    fixed-point search evaluates what `bind` gives through
    `fixed_point_forms`: numerators with their Jacobian, and denominators,
    compiled once per monomial support.
    """

    def __init__(self, model: Model):
        self.model = model
        self._forms = {}
        self.rk4 = None

    @cached_property
    def invariants(self) -> KccInvariants:
        return invariants(self.model)

    @cached_property
    def state(self) -> Callable:
        inv, m = self.invariants, self.model
        entries = [e for M in (inv.P, inv.A21, inv.A22) for row in M for e in row]
        return compile_callable(entries, m.xs + m.ys + m.params)

    @cached_property
    def fixed_points(self) -> "FixedPointSystem":
        with _too_deep("canonicalize"):
            return FixedPointSystem(self.model)

    def fixed_point_forms(
        self, nums: Sequence[Poly], dens: Sequence[Poly]
    ) -> tuple[tuple[Callable, tuple[float, ...]], ...]:
        """Evaluators of exact pairs over `xs`, as (function, coefficients).

        Returns two: the numerators then their Jacobian d nums_i / d x_j
        row-major, under one value numbering, and the denominators;
        `fn(*point, *coefficients)` gives the values.  Each polynomial is a
        sum of coefficient argument times position monomial, with the terms
        in the order `p_to_expr` gives them, so the values are bit-identical
        to those of `p_to_expr(p, xs)` compiled with its coefficients
        embedded.  A function is compiled once per tuple of monomial supports
        and kept; a coefficient beyond the float range is an ExprError.
        """
        n = self.model.n
        jac = [p_diff(p, j) for p in nums for j in range(n)]
        terms = [[_terms(p) for p in polys] for polys in (nums, jac, dens)]
        # the Jacobian's coefficients, multiples of the numerators', are
        # converted last, so a range error names a coefficient of G first
        coeffs = {k: tuple(to_float(c) for t in terms[k] for _, c in t) for k in (0, 2, 1)}
        key = tuple(tuple(m for m, _ in t) for t in terms[0] + terms[2])
        if key not in self._forms:
            self._forms[key] = (_sum_of_terms(terms[0] + terms[1], n), _sum_of_terms(terms[2], n))
        fused, den = self._forms[key]
        return (fused, coeffs[0] + coeffs[1]), (den, coeffs[2])

    def parameter_values(
        self, params: Mapping[str, Fraction | float] | None
    ) -> tuple[float, ...]:
        """Resolved parameter values (see Model.binding) as evaluator arguments."""
        bind = self.model.binding(params)
        return tuple(to_float(bind[p]) for p in self.model.params)

    def at(
        self,
        param_values: Sequence[float],
        point: Sequence[float],
        velocities: Sequence[float] | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """P, A21 and A22 as n x n float arrays at one state (default
        velocities 0), from one run of `state`.

        A zero denominator raises ZeroDenominatorError, as exact evaluation
        does; a power beyond the float range raises ExprError.
        """
        n = self.model.n
        vel = [0.0] * n if velocities is None else velocities
        if len(point) != n:
            raise ModelError(f"point has {len(point)} coordinates, expected {n}")
        if len(vel) != n:
            raise ModelError(f"{len(vel)} velocities given, expected {n}")
        args = [float(c) for c in point] + [float(v) for v in vel]
        try:
            vals = self.state(*args, *param_values)
        except ZeroDivisionError:
            raise ZeroDenominatorError(detail=f"at state {tuple(args)}") from None
        except OverflowError:
            raise ExprError(f"evaluation overflowed at state {tuple(args)}") from None
        return tuple(np.array(vals, dtype=float).reshape(3, n, n))


class FixedPointSystem:
    """G at y = 0 as canonical polynomial pairs over `xs + params`, built once.

    nums, dens  the canonical (numerator, denominator) pair of each G_i at
                y = 0 over the variables `xs + params`
    divisors    (d, num) for each divisor d of G as written, inner ones
                first, with the canonical numerator of d at y = 0 over
                `xs + params`

    A divisor that is zero at y = 0 whatever the parameters ends the list,
    and nums and dens are then empty, as G at y = 0 is nowhere defined.
    `bind` makes G at rest and its divisors at exact values of any of the
    parameters in integer arithmetic, for the fixed-point search (all of
    them) and for `assemble_semialgebraic` (those it is given).
    """

    __slots__ = ("model", "nums", "dens", "divisors", "_splits")

    def __init__(self, model: Model):
        self.model = model
        order = model.xs + model.params
        zeros = {y: 0 for y in model.ys}
        self.divisors, self.nums, self.dens = [], [], []
        # inner divisors first: once each is nonzero, the next one and G
        # substitute and canonicalize without a zero denominator
        for d in (d for g in model.G for d in _divisors(g)):
            num = canonicalize(substitute(d, zeros), order).num
            self.divisors.append((d, num))
            if not num:
                break
        else:
            for g in model.G:
                cr = canonicalize(substitute(g, zeros), order)
                self.nums.append(cr.num)
                self.dens.append(cr.den)
        self._splits: dict = {}

    def bind(self, values: Mapping[str, Fraction]) -> tuple[list[Poly], list[Poly], list[Poly]]:
        """(nums, dens, divisors) over the positions and the parameters
        without a value (no defaults apply), from one weight table.

        The pairs are reduced as `canonicalize` reduces them, so they are
        those made by substituting the values and canonicalizing.  The
        divisor numerators, whose zeros the pairs need not show, are made
        primitive, involve a position and are listed once, in the order of
        `divisors`.  A divisor that is the zero polynomial at y = 0 and the
        values raises ZeroDenominatorError; an unknown name, ModelError.
        """
        model = self.model
        names = tuple(p for p in model.params if p in values)
        if len(names) < len(values):
            unknown = next(k for k in values if k not in model.params)
            raise ModelError(f"unknown parameter '{unknown}' for model '{model.name}'")
        if names not in self._splits:
            self._splits[names] = self._split(names)
        binder, checks, pairs, order = self._splits[names]
        weights, _ = binder.weights([values[p] for p in names])

        def at(terms: list) -> Poly:
            return {m: c for m, i in terms if (c := binder.value(i, weights))}

        divisors: list[Poly] = []
        for d, terms in checks:
            p = at(terms)
            if not p:
                raise ZeroDenominatorError(d, "after substitution")
            if any(any(m[:model.n]) for m in p):
                p = p_primitive(p)
                if p not in divisors:
                    divisors.append(p)
        nums, dens = [], []
        for num, den in pairs:
            cr = _canon_pair(order, at(num), at(den))
            nums.append(cr.num)
            dens.append(cr.den)
        return nums, dens, divisors

    def _split(self, names: tuple[str, ...]) -> tuple:
        """The binder of every coefficient as a polynomial in `names`, the
        divisors and pairs as (monomial in the other variables, coefficient
        index) lists, and the other variables."""
        model = self.model
        order = model.xs + model.params
        bound = [i for i, v in enumerate(order) if v in names]
        kept = [i for i, v in enumerate(order) if v not in names]
        polys: list[Poly] = []

        def split(p: Poly) -> list:
            by_rest: dict = {}
            for m, c in p.items():
                by_rest.setdefault(tuple(m[i] for i in kept), {})[tuple(m[i] for i in bound)] = c
            polys.extend(by_rest.values())
            return list(zip(by_rest, range(len(polys) - len(by_rest), len(polys))))

        checks = [(d, split(num)) for d, num in self.divisors]
        pairs = [(split(num), split(den)) for num, den in zip(self.nums, self.dens)]
        rest = tuple(order[i] for i in kept)
        return ParameterBinder(polys, len(names)), checks, pairs, rest


def _divisors(e: Expr) -> list[Expr]:
    """The denominator of every quotient in e, each after those inside it,
    in the order `substitute` meets them."""
    if isinstance(e, (Add, Mul)):
        return [d for a in e.args for d in _divisors(a)]
    if isinstance(e, Div):
        return _divisors(e.num) + _divisors(e.den) + [e.den]
    if isinstance(e, Pow):
        return _divisors(e.base)
    return []


def _terms(p: Poly) -> list:
    """p's terms as p_to_expr sums them: graded-lex descending, constant first."""
    terms = p_sorted(p)
    if terms and not any(terms[-1][0]):
        terms.insert(0, terms.pop())
    return terms


def _sum_of_terms(polys: list[list], n: int) -> Callable:
    """A compiled function of (x_1..x_n, c_1..c_k) returning, for each term
    list, the sum of its coefficient arguments times its monomials."""
    xs = [Symbol(f"x{j}") for j in range(n)]
    cs = [Symbol(f"c{k}") for k in range(sum(map(len, polys)))]
    c = iter(cs)
    exprs = [
        add(*[mul(next(c), *[pow_(x, e) for x, e in zip(xs, m) if e]) for m, _ in terms])
        for terms in polys
    ]
    return compile_callable(exprs, [s.name for s in xs + cs])


# --------------------------------------------------------------------------
# conversion of acceleration-linear systems to standard form


def to_standard_form(
    M: list[list[Expr]],
    f: list[Expr],
    *,
    name: str = "converted",
    xs: Sequence[str] | None = None,
    params: Sequence[str] | None = None,
    defaults: Mapping[str, Fraction] | None = None,
) -> Model:
    """Convert an acceleration-linear system M(x, y)·x'' + f(x, y) = 0.

    Returns the equivalent standard-form model with G = (1/2)·M^(-1)·f,
    computed symbolically by Cramer's rule, G_i = det(M_i)/(2·det M) with
    M_i the mass matrix with column i replaced by f, so det M shows up as a
    denominator of every G_i.  The symbolic determinants grow quickly with
    n, so systems are limited to n <= 4.  Raises ModelError when the mass
    matrix is symbolically singular.  Position names default to x1..xn;
    undeclared leftover symbols become parameters.
    """
    n = len(M)
    if n == 0 or any(len(row) != n for row in M) or len(f) != n:
        raise ModelError("mass matrix and right-hand side have inconsistent shapes")
    if n > 4:
        raise ModelError("symbolic inversion is limited to systems of size <= 4")
    M = [[as_expr(e) for e in row] for row in M]
    f = [as_expr(e) for e in f]
    d = det(M)
    if canonicalize(d).is_zero:
        raise ModelError("singular mass matrix (determinant is identically zero)")
    G = []
    for i in range(n):
        M_i = [row[:i] + [f_r] + row[i + 1:] for row, f_r in zip(M, f)]
        G.append(div(mul(Fraction(1, 2), det(M_i)), d))
    if xs is None:
        xs = [f"x{i}" for i in range(1, n + 1)]
    if params is None:
        free: set[str] = set()
        for g in G:
            collect_symbols(g, free)
        params = sorted(free - set(xs) - set(velocity_names(n)))
    return Model(name, xs, G, params=params, defaults=defaults)


def standard_form_residual(
    M: list[list[Expr]], f: list[Expr], G: "list[Expr] | Model"
) -> list[Expr]:
    """Residual M·(-2G) + f (each entry should be semantically zero)."""
    if isinstance(G, Model):
        G = list(G.G)
    n = len(M)
    out = []
    for i in range(n):
        lhs = add(*[mul(M[i][j], mul(-2, G[j])) for j in range(n)])
        out.append(add(lhs, f[i]))
    return out
