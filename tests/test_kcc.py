"""Curvature invariants, deviation systems, standard-form conversion."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kccstab.expr import (
    ExprError,
    Symbol,
    add,
    canonicalize,
    differentiate,
    mul,
    parse,
    semantic_equal,
    substitute,
    symbols,
)
from kccstab.kcc import (
    Model,
    ModelError,
    invariants,
    kcc_deviation,
    standard_form_residual,
    to_standard_form,
)
from kccstab.models import builtin

from shared_data import REFERENCE_WS_P

WS_PARAMS = {"a": Fraction(1, 2), "C": 1, "m": -1}


@pytest.fixture(scope="module")
def ws():
    return builtin("wound_strings")


@pytest.fixture(scope="module")
def ws_inv(ws):
    return invariants(ws)


# ---------------------------------------------------------------------------
# invariant definitions


def test_deep_model_invariants_are_an_expr_error():
    # a Horner form built in Python skips the parser's depth limit; at 600
    # levels differentiating or binding it is an ExprError, not a RecursionError
    x = Symbol("x1")
    deep = x
    for _ in range(600):
        deep = mul(add(deep, 1), x)
    model = Model("deep", ("x1",), (add(deep, Symbol("y1")),))
    with pytest.raises(ExprError, match="nested too deeply to differentiate"):
        model.compiled.invariants
    with pytest.raises(ExprError, match="nested too deeply to differentiate"):
        invariants(model)
    with pytest.raises(ExprError, match="nested too deeply to substitute"):
        model.g_bound()


def test_wound_strings_curvature_matches_reference(ws_inv):
    for (i, j), s in REFERENCE_WS_P.items():
        assert semantic_equal(ws_inv.P[i][j], parse(s)), (i, j)


def test_nonlinear_connection_is_velocity_gradient(ws, ws_inv):
    for i in range(2):
        for j in range(2):
            assert semantic_equal(
                ws_inv.N[i][j], differentiate(ws.G[i], ws.ys[j])
            )


def test_first_invariant_definition(ws, ws_inv):
    for i in range(2):
        ref = add(
            mul(2, ws.G[i]),
            *[mul(-1, mul(ws_inv.N[i][j], Symbol(ws.ys[j]))) for j in range(2)],
        )
        assert semantic_equal(ws_inv.epsilon[i], ref)


def test_berwald_symmetry_on_builtins():
    for name in ("wound_strings", "airfoil", "tractor_seat"):
        m = builtin(name)
        ber = invariants(m).berwald
        n = m.n
        for i in range(n):
            for j in range(n):
                for l in range(j + 1, n):
                    assert semantic_equal(ber[i][j][l], ber[i][l][j]), (name, i, j, l)


def test_torsion_antisymmetry_on_builtins():
    for name in ("wound_strings", "airfoil"):
        m = builtin(name)
        tor = invariants(m).torsion
        n = m.n
        for i in range(n):
            for j in range(n):
                assert semantic_equal(tor[i][j][j], parse("0"))
                for k in range(j + 1, n):
                    assert semantic_equal(tor[i][j][k], mul(-1, tor[i][k][j]))


def test_riemann_is_velocity_gradient_of_torsion(ws, ws_inv):
    rie, tor = ws_inv.riemann, ws_inv.torsion
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    assert semantic_equal(
                        rie[i][j][k][l], differentiate(tor[i][j][k], ws.ys[l])
                    )


def test_douglas_symmetry(ws_inv, ws):
    dou = ws_inv.douglas
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    assert semantic_equal(dou[i][j][k][l], dou[i][k][j][l])
                    assert semantic_equal(dou[i][j][k][l], dou[i][j][l][k])


def test_y_free_model_invariants():
    m = Model("poly", ("x1", "x2"), (parse("x1^2 - x2"), parse("x1*x2")))
    inv = invariants(m)
    for i in range(2):
        for j in range(2):
            assert semantic_equal(
                inv.P[i][j], mul(-2, differentiate(m.G[i], m.xs[j]))
            )
            assert semantic_equal(inv.torsion[i][j][j], parse("0"))
    dev = kcc_deviation(m)
    for row in dev.A22:
        for e in row:
            assert semantic_equal(e, parse("0"))


# ---------------------------------------------------------------------------
# deviation system


def test_deviation_matrices_definitions(ws, ws_inv):
    dev = kcc_deviation(ws)
    for i in range(2):
        for j in range(2):
            assert semantic_equal(
                dev.A21[i][j], mul(-2, differentiate(ws.G[i], ws.xs[j]))
            )
            assert semantic_equal(dev.A22[i][j], mul(-2, ws_inv.N[i][j]))


def test_deviation_block_structure(ws):
    blk = kcc_deviation(ws).block()
    assert len(blk) == 4 and len(blk[0]) == 4
    assert semantic_equal(blk[0][2], parse("1"))
    assert semantic_equal(blk[0][3], parse("0"))
    assert semantic_equal(blk[1][2], parse("0"))
    assert semantic_equal(blk[1][3], parse("1"))


def test_deviation_at_wound_strings_fixed_points(ws):
    dev = kcc_deviation(ws)
    for pt in [(2.0, 1.0), (2.0, -1.0), (-2.0, 1.0), (-2.0, -1.0)]:
        a21, a22 = dev.at_point(WS_PARAMS, pt)
        assert np.allclose(a21, -0.25 * np.eye(2), atol=1e-12)
        assert np.allclose(a22, 0.0, atol=1e-12)


def test_deviation_equations_render(ws):
    eqs = kcc_deviation(ws).equations()
    assert len(eqs) == 2
    assert eqs[0].startswith("xi1'' = ") and "xi1'" in eqs[0]


# ---------------------------------------------------------------------------
# model validation


def test_model_validation_errors():
    with pytest.raises(ModelError, match="duplicate"):
        Model("m", ("x1", "x1"), (parse("0"), parse("0")))
    with pytest.raises(ModelError, match="reserved"):
        Model("m", ("x1", "y1"), (parse("0"), parse("0")))
    with pytest.raises(ModelError, match="undeclared symbol 'z'"):
        Model("m", ("x1",), (parse("z + x1"),))
    with pytest.raises(ModelError):
        Model("m", ("x1", "x2"), (parse("x1"),))
    with pytest.raises(ModelError):
        Model("m", (), ())
    with pytest.raises(ModelError):
        Model("m", ("x1",), (parse("x1"),), params=("p",), defaults={"q": 1})


def test_binding_defaults_and_coercion():
    m = Model(
        "m", ("x1",), (parse("p*x1 + q"),), params=("p", "q"),
        defaults={"q": Fraction(3)},
    )
    vals = m.binding({"p": 0.5})
    assert vals == {"p": Fraction(1, 2), "q": Fraction(3)}
    with pytest.raises(ModelError, match="unknown parameter"):
        m.binding({"r": 1})
    with pytest.raises(ModelError, match="missing value"):
        m.binding({})


# ---------------------------------------------------------------------------
# standard-form conversion


def test_to_standard_form_identity(ws):
    one, zero = parse("1"), parse("0")
    M = [[one, zero], [zero, one]]
    f = [mul(2, g) for g in ws.G]
    conv = to_standard_form(M, f, xs=ws.xs, params=ws.params)
    for a, b in zip(conv.G, ws.G):
        assert semantic_equal(a, b)


def test_to_standard_form_symmetric_2x2():
    m_, S_, I_ = symbols(["m", "S", "I"])
    M = [[m_, S_], [S_, I_]]
    f = [parse("m*x1 + S*x2"), parse("S*x1 + I*x2")]
    conv = to_standard_form(M, f, xs=("x1", "x2"))
    res = standard_form_residual(M, f, conv)
    for e in res:
        assert semantic_equal(e, parse("0"))
    # G1 = (I*f1 - S*f2) / (2*(m*I - S^2))
    expect = parse("(I*(m*x1 + S*x2) - S*(S*x1 + I*x2))/(2*(m*I - S^2))")
    assert semantic_equal(conv.G[0], expect)


def test_to_standard_form_rejects_singular():
    one = parse("1")
    with pytest.raises(ModelError, match="singular"):
        to_standard_form([[one, one], [one, one]], [parse("x1"), parse("x2")],
                         xs=("x1", "x2"))


def test_to_standard_form_rejects_large_systems():
    one, zero = parse("1"), parse("0")
    n = 5
    M = [[one if i == j else zero for j in range(n)] for i in range(n)]
    f = [parse(f"x{i + 1}") for i in range(n)]
    with pytest.raises(ModelError):
        to_standard_form(M, f, xs=tuple(f"x{i + 1}" for i in range(n)))


def test_to_standard_form_shape_mismatch():
    one = parse("1")
    with pytest.raises(ModelError):
        to_standard_form([[one]], [parse("x1"), parse("x2")], xs=("x1", "x2"))


def test_standard_form_infers_parameters():
    M = [[parse("2")]]
    f = [parse("k*x1")]
    conv = to_standard_form(M, f)
    assert conv.params == ("k",)
    assert semantic_equal(conv.G[0], parse("k*x1/4"))


# ---------------------------------------------------------------------------
# meaning oracle: the textbook KCC formulas, derived by sympy


@st.composite
def _rational_models(draw):
    """n = 1..3 positions; each G_i is up to three terms, each a coefficient
    times at most two of x1..xn, y1..yn, and one G_i may be over 1 + c*v for
    one of those variables v (more quotients make sympy slow).  Returns
    (xs, G sources)."""
    n = draw(st.integers(1, 3))
    names = [f"x{i}" for i in range(1, n + 1)] + [f"y{i}" for i in range(1, n + 1)]
    coefficient = st.sampled_from(["1", "-1", "2", "-3", "1/2", "-2/3"])

    def term():
        factors = draw(st.lists(st.sampled_from(names), max_size=2))
        return "*".join([draw(coefficient)] + factors)

    gs = [" + ".join(term() for _ in range(draw(st.integers(1, 3)))) for _ in range(n)]
    if draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        gs[i] = f"({gs[i]})/(1 + {draw(coefficient)}*{draw(st.sampled_from(names))})"
    return tuple(names[:n]), gs


@given(_rational_models())
@settings(max_examples=30, deadline=None)
def test_invariants_match_textbook_formulas(spec):
    """N, P and the torsion equal sympy's derivation of
    N^i_j = dG^i/dy^j, G^i_jl = dN^i_j/dy^l,
    P^i_j = -2 dG^i/dx^j - 2 G^l G^i_jl + y^l dN^i_j/dx^l + N^i_l N^l_j,
    P^i_jk = (dP^i_j/dy^k - dP^i_k/dy^j)/3."""
    sympy = pytest.importorskip("sympy")
    xs, sources = spec
    n = len(xs)
    m = Model("oracle", xs, [parse(g) for g in sources])
    syms = {v: sympy.Symbol(v) for v in m.xs + m.ys}
    X, Y = [syms[v] for v in m.xs], [syms[v] for v in m.ys]

    def to_sympy(e):
        return sympy.sympify(str(e).replace("^", "**"), locals=syms)

    G = [to_sympy(g) for g in m.G]
    rng = range(n)
    N = [[sympy.diff(G[i], Y[j]) for j in rng] for i in rng]
    B = [[[sympy.diff(N[i][j], Y[l]) for l in rng] for j in rng] for i in rng]
    P = [
        [
            -2 * sympy.diff(G[i], X[j])
            - 2 * sum(G[l] * B[i][j][l] for l in rng)
            + sum(Y[l] * sympy.diff(N[i][j], X[l]) for l in rng)
            + sum(N[i][l] * N[l][j] for l in rng)
            for j in rng
        ]
        for i in rng
    ]
    T = [
        [[(sympy.diff(P[i][j], Y[k]) - sympy.diff(P[i][k], Y[j])) / 3 for k in rng] for j in rng]
        for i in rng
    ]
    inv = invariants(m)
    for i, j in itertools.product(rng, rng):
        assert sympy.cancel(to_sympy(inv.N[i][j]) - N[i][j]) == 0, ("N", i, j, sources)
        assert sympy.cancel(to_sympy(inv.P[i][j]) - P[i][j]) == 0, ("P", i, j, sources)
        for k in rng:
            got = to_sympy(inv.torsion[i][j][k])
            assert sympy.cancel(got - T[i][j][k]) == 0, ("torsion", i, j, k, sources)


@given(_rational_models())
@settings(max_examples=30, deadline=None)
def test_canonical_forms_are_reduced(spec):
    """The canonical pair of each entry of N and P, rational expression trees
    built from random models, is coprime by sympy's gcd and has the terms
    and degrees of sympy's cancelled numerator and denominator."""
    sympy = pytest.importorskip("sympy")
    xs, sources = spec
    m = Model("oracle", xs, [parse(g) for g in sources])
    order = m.xs + m.ys
    gens = sympy.symbols(order)

    def to_sympy(p):
        terms = [c * sympy.Mul(*[v ** e for v, e in zip(gens, k)]) for k, c in p.items()]
        return sympy.Poly(sum(terms), *gens)

    def size(p):
        return len(p.terms()), p.total_degree()

    inv = invariants(m)
    for e in [e for M in (inv.N, inv.P) for row in M for e in row]:
        cr = canonicalize(e, order)
        num, den = to_sympy(cr.num), to_sympy(cr.den)
        assert sympy.gcd(num, den).is_ground, (str(e), str(cr))
        exact = sympy.sympify(str(e).replace("^", "**"), locals=dict(zip(order, gens)))
        want = [sympy.Poly(w, *gens) for w in sympy.fraction(sympy.cancel(exact))]
        assert [size(num), size(den)] == [size(w) for w in want], (str(e), str(cr))
