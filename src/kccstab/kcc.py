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
from typing import Callable, Mapping, Sequence

from .expr import (
    Expr,
    Symbol,
    ZeroDenominatorError,
    add,
    as_expr,
    canonicalize,
    collect_symbols,
    compile_callable,
    differentiate,
    div,
    mul,
    neg,
    sub,
    substitute,
)


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

    __slots__ = ("name", "xs", "ys", "params", "defaults", "G", "_compiled")

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
        self._compiled = None

    @property
    def n(self) -> int:
        return len(self.xs)

    @property
    def compiled(self) -> "CompiledModel":
        """The invariants and compiled evaluators of this model, built once."""
        if self._compiled is None:
            self._compiled = CompiledModel(self)
        return self._compiled

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
        return [substitute(g, bind) for g in self.G]


# --------------------------------------------------------------------------
# invariants


class KccInvariants:
    """Symbolic curvature data of a model.

    N        nonlinear connection            N^i_j = dG^i/dy_j
    berwald  Berwald connection              G^i_{jl} = dN^i_j/dy_l
    epsilon  first invariant                 eps^i = 2 G^i - N^i_j y_j
    P        deviation curvature tensor (second invariant)
    torsion  third invariant                 P^i_{jk} antisymmetric in (j,k)
    riemann  fourth invariant                P^i_{jkl} = dP^i_{jk}/dy_l
    douglas  fifth invariant                 D^i_{jkl} = dG^i_{jk}/dy_l
    """

    __slots__ = ("model", "N", "berwald", "epsilon", "P", "_torsion", "_riemann", "_douglas")

    def __init__(self, model: Model):
        self.model = model
        n = model.n
        xs, ys, G = model.xs, model.ys, model.G
        self.N = [[differentiate(G[i], ys[j]) for j in range(n)] for i in range(n)]
        self.berwald = [
            [[differentiate(self.N[i][j], ys[l]) for l in range(n)] for j in range(n)]
            for i in range(n)
        ]
        self.epsilon = [
            sub(mul(2, G[i]), add(*[mul(self.N[i][j], Symbol(ys[j])) for j in range(n)]))
            for i in range(n)
        ]
        self.P = [
            [
                add(
                    mul(-2, differentiate(G[i], xs[j])),
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
        self._torsion = None
        self._riemann = None
        self._douglas = None

    @property
    def torsion(self):
        if self._torsion is None:
            n = self.model.n
            ys = self.model.ys
            third = Fraction(1, 3)
            self._torsion = [
                [
                    [
                        mul(
                            third,
                            sub(
                                differentiate(self.P[i][j], ys[k]),
                                differentiate(self.P[i][k], ys[j]),
                            ),
                        )
                        for k in range(n)
                    ]
                    for j in range(n)
                ]
                for i in range(n)
            ]
        return self._torsion

    @property
    def riemann(self):
        if self._riemann is None:
            n = self.model.n
            ys = self.model.ys
            t = self.torsion
            self._riemann = [
                [
                    [
                        [differentiate(t[i][j][k], ys[l]) for l in range(n)]
                        for k in range(n)
                    ]
                    for j in range(n)
                ]
                for i in range(n)
            ]
        return self._riemann

    @property
    def douglas(self):
        if self._douglas is None:
            n = self.model.n
            ys = self.model.ys
            b = self.berwald
            self._douglas = [
                [
                    [
                        [differentiate(b[i][j][k], ys[l]) for l in range(n)]
                        for k in range(n)
                    ]
                    for j in range(n)
                ]
                for i in range(n)
            ]
        return self._douglas


def invariants(model: Model) -> KccInvariants:
    """Derive the invariants afresh; `model.compiled.invariants` keeps one copy."""
    return KccInvariants(model)


def kcc_invariant(model: Model) -> list[list[Expr]]:
    """Deviation curvature tensor P^i_j (the Jacobi-stability invariant)."""
    return KccInvariants(model).P


def first_invariant(model: Model) -> list[Expr]:
    """First invariant eps^i = 2 G^i - N^i_j y_j."""
    return KccInvariants(model).epsilon


def higher_invariants(model: Model):
    """Torsion, Riemann-curvature and Douglas tensors (third/fourth/fifth)."""
    inv = KccInvariants(model)
    return inv.torsion, inv.riemann, inv.douglas


# --------------------------------------------------------------------------
# deviation (Jacobi) equations


class DeviationSystem:
    """Linearized trajectory-deviation dynamics xi'' = A21 xi + A22 xi'.

    A21 = -2 dG/dx and A22 = -2 N, both n x n symbolic matrices; `block`
    is the 2n x 2n first-order form [[0, E], [A21, A22]].  The blocks, and
    the compiled function `at_point` evaluates, are derived once per model
    and kept in `model.compiled`; A22 reuses the invariants' N.
    """

    __slots__ = ("model", "A21", "A22")

    def __init__(self, model: Model):
        self.model = model
        A21, A22 = model.compiled.deviation_blocks
        self.A21 = [list(row) for row in A21]
        self.A22 = [list(row) for row in A22]

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
        n = self.n
        compiled = self.model.compiled
        vals = compiled.call(
            compiled.deviation, compiled.parameter_values(params), point, velocities
        )
        a21 = [list(vals[i * n:(i + 1) * n]) for i in range(n)]
        a22 = [list(vals[(n + i) * n:(n + i + 1) * n]) for i in range(n)]
        return a21, a22


def kcc_deviation(model: Model) -> DeviationSystem:
    return DeviationSystem(model)


# --------------------------------------------------------------------------
# derived data kept per model


class CompiledModel:
    """Symbolic data of one model, derived once, and its compiled evaluators.

    `Model.compiled` builds this on first use and keeps it on the model, so
    however many parameter points are analysed, the invariants are derived
    once and each evaluator is compiled once; each part is built when first
    asked for.  The evaluators take the positions, the velocities and the
    parameter values as float arguments in the order `xs + ys + params`
    (see `call`) and return the matrix entries as one flat row-major tuple:

    invariants        the KccInvariants of the model
    deviation_blocks  symbolic (A21, A22) = (-2 dG/dx, -2 N)
    curvature         P, n*n entries
    deviation         A21 then A22, 2*n*n entries

    Parameter values never enter this data: exact work at a parameter point
    (substituting the values, canonical forms) stays with its caller.
    """

    __slots__ = ("model", "_invariants", "_blocks", "_curvature", "_deviation")

    def __init__(self, model: Model):
        self.model = model
        self._invariants = None
        self._blocks = None
        self._curvature = None
        self._deviation = None

    @property
    def invariants(self) -> KccInvariants:
        if self._invariants is None:
            self._invariants = invariants(self.model)
        return self._invariants

    @property
    def deviation_blocks(self) -> tuple[list[list[Expr]], list[list[Expr]]]:
        if self._blocks is None:
            m, N = self.model, self.invariants.N
            rng = range(m.n)
            A21 = [[mul(-2, differentiate(m.G[i], m.xs[j])) for j in rng] for i in rng]
            A22 = [[mul(-2, N[i][j]) for j in rng] for i in rng]
            self._blocks = (A21, A22)
        return self._blocks

    @property
    def curvature(self) -> Callable:
        if self._curvature is None:
            self._curvature = self._compile(self.invariants.P)
        return self._curvature

    @property
    def deviation(self) -> Callable:
        if self._deviation is None:
            self._deviation = self._compile(*self.deviation_blocks)
        return self._deviation

    def _compile(self, *matrices) -> Callable:
        m = self.model
        entries = [e for M in matrices for row in M for e in row]
        return compile_callable(entries, m.xs + m.ys + m.params)

    def parameter_values(
        self, params: Mapping[str, Fraction | float] | None
    ) -> tuple[float, ...]:
        """Resolved parameter values (see Model.binding) as evaluator arguments."""
        bind = self.model.binding(params)
        return tuple(float(bind[p]) for p in self.model.params)

    def call(
        self,
        fn: Callable,
        param_values: Sequence[float],
        point: Sequence[float],
        velocities: Sequence[float] | None = None,
    ) -> tuple[float, ...]:
        """Run an evaluator at one state (default velocities 0).

        A zero denominator raises ZeroDenominatorError, as exact evaluation
        does.
        """
        n = self.model.n
        vel = [0.0] * n if velocities is None else velocities
        if len(point) != n:
            raise ModelError(f"point has {len(point)} coordinates, expected {n}")
        if len(vel) != n:
            raise ModelError(f"{len(vel)} velocities given, expected {n}")
        args = [float(c) for c in point] + [float(v) for v in vel]
        try:
            return fn(*args, *param_values)
        except ZeroDivisionError:
            raise ZeroDenominatorError(detail=f"at state {tuple(args)}") from None


# --------------------------------------------------------------------------
# conversion of acceleration-linear systems to standard form


def _det(M: list[list[Expr]]) -> Expr:
    n = len(M)
    if n == 1:
        return M[0][0]
    total = as_expr(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in M[1:]]
        term = mul(M[0][j], _det(minor))
        total = add(total, term if j % 2 == 0 else neg(term))
    return total


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
    computed symbolically via the adjugate (so limited to n <= 4; the
    determinant shows up as a denominator of every G_i).  Raises ModelError
    when the mass matrix is symbolically singular.  Position names default
    to x1..xn; undeclared leftover symbols become parameters.
    """
    n = len(M)
    if n == 0 or any(len(row) != n for row in M) or len(f) != n:
        raise ModelError("mass matrix and right-hand side have inconsistent shapes")
    if n > 4:
        raise ModelError("symbolic inversion is limited to systems of size <= 4")
    M = [[as_expr(e) for e in row] for row in M]
    f = [as_expr(e) for e in f]
    det = _det(M)
    if canonicalize(det).is_zero:
        raise ModelError("singular mass matrix (determinant is identically zero)")
    # adjugate: adj[i][j] = (-1)^(i+j) * minor_det(j, i)
    G: list[Expr] = []
    for i in range(n):
        acc = as_expr(0)
        for j in range(n):
            minor = [
                [M[r][c] for c in range(n) if c != i]
                for r in range(n)
                if r != j
            ]
            cof = _det(minor) if n > 1 else as_expr(1)
            if (i + j) % 2:
                cof = neg(cof)
            acc = add(acc, mul(cof, f[j]))
        G.append(div(mul(Fraction(1, 2), acc), det))
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
