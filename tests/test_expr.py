"""Expression engine: parsing, printing, calculus, canonical forms."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kccstab.expr import (
    CanonicalRational,
    Constant,
    ParseError,
    Symbol,
    UnboundSymbolError,
    ZeroDenominatorError,
    add,
    canonicalize,
    compile_callable,
    differentiate,
    div,
    evaluate,
    mul,
    neg,
    p_eval,
    parse,
    poly_of,
    pow_,
    semantic_equal,
    sub,
    substitute,
    symbols,
)

x, y, z = symbols(["x", "y", "z"])


# ---------------------------------------------------------------------------
# parsing and printing


def test_parse_literals_exact():
    assert evaluate(parse("0.25"), {}) == Fraction(1, 4)
    assert evaluate(parse("0.125*8"), {}) == 1
    assert evaluate(parse("2017/256"), {}) == Fraction(2017, 256)
    assert evaluate(parse("2^-3"), {}) == Fraction(1, 8)


def test_parse_precedence():
    assert evaluate(parse("2 + 3*4"), {}) == 14
    assert evaluate(parse("x - y - z"), {"x": 10, "y": 3, "z": 2}) == 5
    assert evaluate(parse("-x^2"), {"x": 3}) == -9
    assert evaluate(parse("2*-3"), {}) == -6
    assert evaluate(parse("12/3/2"), {}) == 2


def test_parse_error_positions():
    with pytest.raises(ParseError) as ei:
        parse("x +")
    assert ei.value.line == 1 and ei.value.col == 4

    with pytest.raises(ParseError) as ei:
        parse("x ^ y")
    assert "integer exponent" in str(ei.value)

    with pytest.raises(ParseError) as ei:
        parse("(x")
    assert "')'" in str(ei.value)

    with pytest.raises(ParseError) as ei:
        parse("x $ y")
    assert ei.value.col == 3


def test_fractional_exponent_rejected():
    with pytest.raises(ParseError):
        parse("x^2.5")


def test_print_parse_round_trip_fixed():
    cases = [
        "x + y",
        "x - y - z",
        "x*y/z",
        "(x + y)^3",
        "x/(2*x^2 + 3*y^2)",
        "-x - 1/2",
        "x^2*y^-1" if False else "x^2/y",
        "1 - x^4",
    ]
    for s in cases:
        e = parse(s)
        again = parse(str(e))
        assert semantic_equal(e, again), s


_names = st.sampled_from(["x", "y", "z"])


@st.composite
def _exprs(draw, depth=0):
    if depth >= 4:
        branch = draw(st.integers(0, 1))
    else:
        branch = draw(st.integers(0, 5))
    if branch == 0:
        return Constant(Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9))))
    if branch == 1:
        return Symbol(draw(_names))
    a = draw(_exprs(depth=depth + 1))
    b = draw(_exprs(depth=depth + 1))
    if branch == 2:
        return add(a, b)
    if branch == 3:
        return mul(a, b)
    if branch == 4:
        return pow_(a, draw(st.integers(0, 3)))
    return sub(a, b)


@given(_exprs())
@settings(max_examples=150, deadline=None)
def test_print_parse_round_trip_random(e):
    assert semantic_equal(parse(str(e)), e)


# ---------------------------------------------------------------------------
# substitution, evaluation, error paths


def test_substitute_and_evaluate():
    e = parse("x^2 + y/x")
    assert evaluate(e, {"x": 2, "y": 6}) == 7
    e2 = substitute(e, {"y": parse("x^3")})
    assert semantic_equal(e2, parse("x^2 + x^2"))


def test_unbound_symbol():
    with pytest.raises(UnboundSymbolError):
        evaluate(parse("x + q"), {"x": 1})


def test_zero_denominator_detection():
    e = parse("1/(x - y)")
    with pytest.raises(ZeroDenominatorError):
        evaluate(e, {"x": 1, "y": 1})
    with pytest.raises(ZeroDenominatorError):
        substitute(e, {"x": Constant(2), "y": Constant(2)})


def test_mixed_float_evaluation():
    v = evaluate(parse("x/3"), {"x": 1.5})
    assert isinstance(v, float) and abs(v - 0.5) < 1e-15


# ---------------------------------------------------------------------------
# differentiation


def test_derivative_rules():
    assert semantic_equal(differentiate(parse("7"), "x"), parse("0"))
    assert semantic_equal(differentiate(parse("x^5"), "x"), parse("5*x^4"))
    assert semantic_equal(differentiate(parse("x*y"), "x"), parse("y"))
    # quotient rule
    got = differentiate(parse("x/(x + y)"), "x")
    assert semantic_equal(got, parse("y/(x + y)^2"))
    # negative exponent power rule
    got = differentiate(div(1, pow_(x, 2)), "x")
    assert semantic_equal(got, parse("-2/x^3"))


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


def test_derivative_matches_finite_differences():
    rng = np.random.default_rng(7)
    names = ["x", "y"]
    checked = 0
    attempts = 0
    while checked < 60 and attempts < 600:
        attempts += 1
        e = _random_expr(rng, names)
        de = differentiate(e, "x")
        pt = {n: float(rng.uniform(0.4, 1.7)) for n in names}
        h = 1e-6
        try:
            up = evaluate(e, {**pt, "x": pt["x"] + h})
            dn = evaluate(e, {**pt, "x": pt["x"] - h})
            exact = evaluate(de, pt)
        except ZeroDenominatorError:
            continue
        fd = (up - dn) / (2 * h)
        if abs(fd) > 1e6:
            continue  # steep configurations are numerically uninformative
        assert abs(fd - exact) <= 1e-6 * (1 + abs(exact)) + 1e-8, str(e)
        checked += 1
    assert checked == 60


# ---------------------------------------------------------------------------
# canonical rational forms


def test_semantic_equality_without_gcd():
    lhs = div(sub(mul(x, x), mul(y, y)), sub(x, y))
    assert semantic_equal(lhs, add(x, y))
    assert semantic_equal(sub(x, x), parse("0"))
    assert not semantic_equal(parse("x + y"), parse("x - y"))


def test_canonical_monomial_and_content_reduction():
    cr = canonicalize(parse("(x^2*y)/(x*y^2)"), ["x", "y"])
    assert cr.num_str() == "x" and cr.den_str() == "y"
    cr = canonicalize(parse("(2*x + 2*y)/4"), ["x", "y"])
    assert cr.den_str() == "2" and cr.num_str() == "x + y"


def test_canonical_sign_normalization():
    cr = canonicalize(parse("1/(-x)"), ["x"])
    # denominator leading coefficient is positive
    assert cr.den_str() == "x" and cr.num_str() == "-1"


def test_canonical_zero():
    cr = canonicalize(sub(x, x), ["x"])
    assert cr.is_zero and str(cr) == "0"


def test_canonicalize_requires_all_symbols():
    with pytest.raises(UnboundSymbolError):
        canonicalize(parse("x + q"), ["x"])


def test_canonical_rational_arithmetic():
    vs = ("x", "y")
    a = canonicalize(parse("x/y"), vs)
    b = canonicalize(parse("y/x"), vs)
    s = a * b
    assert s == canonicalize(parse("1"), vs)
    assert (a + b) == canonicalize(parse("(x^2 + y^2)/(x*y)"), vs)
    assert (a - a).is_zero
    assert (a / b) == canonicalize(parse("x^2/y^2"), vs)


def test_poly_evaluation_exact():
    p = poly_of(parse("x^2*y - 3*y + 1"), ["x", "y"])
    assert p_eval(p, [Fraction(1, 2), Fraction(4)]) == (
        Fraction(1, 4) * 4 - 12 + 1
    )


# ---------------------------------------------------------------------------
# compilation


def test_compile_callable_matches_evaluate():
    exprs = [parse("x^2 + y/x"), parse("x*y - 1/2")]
    fn = compile_callable(exprs, ["x", "y"])
    assert hasattr(fn, "__source__")
    rng = np.random.default_rng(3)
    for _ in range(25):
        px, py = rng.uniform(0.3, 2.0, size=2)
        vals = fn(px, py)
        ref = [float(evaluate(e, {"x": px, "y": py})) for e in exprs]
        assert np.allclose(vals, ref, rtol=1e-13)
    # numpy arrays evaluate elementwise
    px, py = rng.uniform(0.3, 2.0, size=(2, 25))
    for got, e in zip(fn(px, py), exprs):
        ref = [float(evaluate(e, {"x": a, "y": b})) for a, b in zip(px, py)]
        assert np.allclose(got, ref, rtol=1e-13)


def test_compiled_division_by_zero_raises():
    fn = compile_callable([parse("1/x")], ["x"])
    with pytest.raises(ZeroDivisionError):
        fn(0.0)
