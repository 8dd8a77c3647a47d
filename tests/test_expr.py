"""Expression engine: parsing, printing, calculus, canonical forms."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kccstab import expr
from kccstab.expr import (
    Add,
    CanonicalRational,
    Constant,
    Div,
    ExprError,
    Mul,
    ParseError,
    Pow,
    Symbol,
    UnboundSymbolError,
    ZeroDenominatorError,
    add,
    canonicalize,
    compile_callable,
    differentiate,
    div,
    evaluate,
    exec_generated,
    mul,
    neg,
    p_eval,
    p_exquo,
    p_gcd,
    p_mul,
    parse,
    poly_of,
    pow_,
    semantic_equal,
    sub,
    substitute,
    symbols,
    to_float,
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


def test_non_ascii_digits_are_parse_errors():
    # str.isdigit takes '²' and '٣' (Arabic-Indic three); a number is ASCII
    for text, col in (("x + ²", 5), ("x^²", 3), ("٣*x", 1)):
        with pytest.raises(ParseError, match="unexpected character") as ei:
            parse(text)
        assert (ei.value.line, ei.value.col) == (1, col)


# digits, letters, non-ASCII letters and digits, the operators, stray
# punctuation, and every blank the scanner skips, with form feed, which it does not
SCANNER_ALPHABET = "0123456789abcxyzXYZ\u03b1\u00e9\u00b2\u0663+-*/^().#=, \t\r\n\f"


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=SCANNER_ALPHABET, max_size=40))
def test_parse_returns_an_expr_or_a_parse_error_within_the_text(text):
    # an exact power with a long exponent, such as 9^99999999, is correct but
    # takes minutes
    assume(not re.search(r"\^[ \t\r\n]*-?[ \t\r\n]*[0-9]{4}", text))
    try:
        assert isinstance(parse(text), expr.Expr)
    except ParseError as exc:
        lines = text.split("\n")
        assert 1 <= exc.line <= len(lines)
        assert 1 <= exc.col <= len(lines[exc.line - 1]) + 1


@pytest.mark.parametrize("text, message, line, col", [
    ("x +\t", "unexpected end of input", 1, 5),
    ("x +\r", "unexpected end of input", 1, 5),
    ("x +\n", "unexpected end of input", 2, 1),
    ("x +\n\t", "unexpected end of input", 2, 2),
    ("x\f+ y", "unexpected character '\\x0c'", 1, 2),
    ("1.", "malformed number", 1, 1),
    ("x + 1.x", "malformed number", 1, 5),
    ("y\n  2.5.", "unexpected character '.'", 2, 6),
    # a scan error anywhere wins over a parse error before it
    ("(x + ) $", "unexpected character '$'", 1, 8),
])
def test_scanner_edge_positions(text, message, line, col):
    with pytest.raises(ParseError) as ei:
        parse(text)
    assert str(ei.value).startswith(message + " at line")
    assert (ei.value.line, ei.value.col) == (line, col)


def test_scanner_reads_non_ascii_letters_in_names():
    assert parse("\u03b11*x") == mul(Symbol("\u03b11"), x)
    assert parse("x\u0663 + _a") == add(Symbol("x\u0663"), Symbol("_a"))


@pytest.mark.parametrize("text, col", [("x^2^3", 4), ("(x)^2^3", 6), ("x^-2^2", 5)])
def test_second_caret_after_an_exponent_is_not_expected(text, col):
    with pytest.raises(ParseError) as ei:
        parse(text)
    assert (ei.value.line, ei.value.col) == (1, col)
    assert str(ei.value).startswith("unexpected token '^' at line 1")
    assert ei.value.expected == ("'+'", "'-'", "'*'", "'/'", "end of input")


@pytest.mark.parametrize("text, col, caret", [
    ("x^2 y", 5, False), ("-x^-2 y", 7, False), ("x^2 )", 5, False),
    # a parenthesised power may be raised again
    ("(x^2) y", 7, True),
])
def test_caret_is_expected_unless_an_exponent_ends_the_operand(text, col, caret):
    with pytest.raises(ParseError) as ei:
        parse(text)
    assert (ei.value.line, ei.value.col) == (1, col)
    assert ei.value.expected == ("'+'", "'-'", "'*'", "'/'") + ("'^'",) * caret + ("end of input",)


LONG = "1" * 5000  # beyond the interpreter's default 4,300-digit int-string limit


@pytest.mark.parametrize("text, col", [
    (LONG, 1),
    ("x + " + LONG, 5),
    ("2*(1." + LONG + ")", 4),
    # each side of the point is within the limit, the number is not
    ("1" * 4000 + "." + "1" * 1000, 1),
    ("x^" + LONG, 3),
    ("x^-" + LONG, 4),
], ids=["integer", "integer-term", "decimal", "decimal-split", "exponent", "negative-exponent"])
def test_number_over_the_digit_limit_is_a_parse_error(text, col):
    with pytest.raises(ParseError) as ei:
        parse(text)
    assert str(ei.value) == f"number has too many digits at line 1, column {col}"


def test_numbers_within_the_digit_limit_keep_their_values():
    assert parse("1" * 4300) == Constant(int("1" * 4300))
    assert parse("12.50") == Constant(Fraction(25, 2))
    assert parse("0.125*x^-2") == parse("(1/8)*x^-2")


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
# polynomial gcd and exact division


@st.composite
def _factors(draw, n):
    """An integer polynomial over a random subset of n variables (none gives
    a constant), up to three terms of degree up to 2 in each."""
    live = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    exponent = st.builds(
        lambda es: tuple(es.get(i, 0) for i in range(n)),
        st.fixed_dictionaries({i: st.integers(0, 2) for i in live}),
    )
    coefficient = st.integers(-6, 6).filter(bool)
    return draw(st.dictionaries(exponent, coefficient, min_size=1, max_size=3))


def _subresultant_gcd(p, q):
    """p_gcd with GCDHEU switched off, so every input takes the subresultant
    remainder sequence."""
    saved = expr.HEU_GCD_MAX_VARIABLES
    expr.HEU_GCD_MAX_VARIABLES = 0
    try:
        return p_gcd(p, q)
    finally:
        expr.HEU_GCD_MAX_VARIABLES = saved


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_gcd_matches_sympy(data):
    """p_gcd(f h, g h) divides both, equals sympy's gcd up to a constant and
    leaves coprime cofactors (integer content included); in 1-3 variables,
    where p_gcd takes GCDHEU, the subresultant sequence gives the same gcd."""
    sympy = pytest.importorskip("sympy")
    n = data.draw(st.integers(1, 4))
    f, g, h = (data.draw(_factors(n)) for _ in range(3))
    a, b = p_mul(f, h), p_mul(g, h)
    assume(a and b)
    gcd = p_gcd(a, b)
    if n <= expr.HEU_GCD_MAX_VARIABLES:
        assert gcd == _subresultant_gcd(a, b)
    ca, cb = p_exquo(a, gcd), p_exquo(b, gcd)
    assert p_mul(gcd, ca) == a and p_mul(gcd, cb) == b
    assert max(gcd.items(), key=lambda t: (sum(t[0]), t[0]))[1] > 0
    syms = sympy.symbols(f"v0:{n}")

    def to_sympy(p):
        return sum(c * sympy.Mul(*[v ** e for v, e in zip(syms, m)]) for m, c in p.items())

    assert sympy.cancel(to_sympy(gcd) / sympy.gcd(to_sympy(a), to_sympy(b))).is_number
    assert sympy.gcd(to_sympy(ca), to_sympy(cb)) in (1, -1)


def test_heuristic_gcd_keeps_the_content_of_each_image():
    # the content of an image gcd carries the digits of the evaluation
    # point: dividing it out reads (x^2 + 1)(y^2 + 1) back as x^2 + 1
    common = p_mul({(2, 0): 1, (0, 0): 1}, {(0, 2): 1, (0, 0): 1})
    f, g = {(1, 0): 1, (0, 1): 2, (0, 0): 3}, {(1, 1): 1, (0, 0): -5}
    a, b = p_mul(common, f), p_mul(common, g)

    def p_scale(p, k):
        return {m: c * k for m, c in p.items()}

    h, ca, cb = expr._heu_gcd(p_scale(a, 6), p_scale(b, 4), [0, 1])
    assert h == p_scale(common, 2) and (ca, cb) == (p_scale(f, 3), p_scale(g, 2))
    assert p_gcd(a, b) == common == _subresultant_gcd(a, b)


def test_gcd_and_exact_division_edge_cases():
    one, x2 = {(0, 0): 1}, {(0, 2): 1}
    assert p_gcd({}, {}) == {}
    assert p_gcd({}, {(1, 0): -2}) == {(1, 0): 2}
    assert p_gcd({(0, 0): 4}, {(1, 0): 6, (0, 0): 2}) == {(0, 0): 2}
    assert p_gcd(p_mul(x2, {(1, 0): 1, (0, 0): 1}), {(2, 1): 3}) == {(0, 1): 1}
    assert p_gcd({(1, 0): 1}, {(0, 1): 1}) == one
    with pytest.raises(ExprError, match="not exact"):
        p_exquo({(1, 0): 1, (0, 0): 1}, {(1, 0): 1})
    with pytest.raises(ExprError, match="not exact"):
        p_exquo({(1, 0): 3}, {(1, 0): 2})
    with pytest.raises(ZeroDenominatorError):
        p_exquo(one, {})


@st.composite
def _sparse(draw, n, nonzero=False):
    """A sparse integer polynomial in n variables: up to six terms of degree
    up to 3 in each, with coefficients small enough that products cancel."""
    exponent = st.tuples(*[st.integers(0, 3)] * n)
    coefficient = st.integers(-2, 2).filter(bool)
    return draw(st.dictionaries(exponent, coefficient, min_size=int(nonzero), max_size=6))


def _naive_mul(p, q):
    """p_mul written out term by term: same loop order, same deletions."""
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
            if not out[m]:
                del out[m]
    return out


@given(data=st.data())
@settings(max_examples=80, deadline=None)
@example(data=None)
def test_sparse_kernel_matches_references(data):
    """p_mul equals the term-by-term product as a dict and in key order,
    p_exquo undoes it, and canonicalize over constant, monomial and
    polynomial denominators gives sympy's cancelled fraction."""
    sympy = pytest.importorskip("sympy")
    if data is None:  # (x + y)(x - y): the x*y terms cancel and are deleted
        n, a, b = 2, {(1, 0): 1, (0, 1): 1}, {(1, 0): 1, (0, 1): -1}
        num, den = {(2, 1): 3, (1, 2): -3}, {(1, 1): 6}
    else:
        n = data.draw(st.integers(1, 12))
        a, b = data.draw(_sparse(n)), data.draw(_sparse(n, nonzero=True))
        # den = g h and num = f h, with g and h constants, monomials or polynomials
        kind = data.draw(st.sampled_from(["constant", "monomial", "polynomial"]))
        exponent = st.tuples(*[st.integers(0, 3)] * n) if kind == "monomial" else st.just((0,) * n)
        term = st.builds(lambda m, c: {m: c}, exponent, st.integers(-4, 4).filter(bool))
        part = _factors(n) if kind == "polynomial" else term
        h = data.draw(part)
        num, den = p_mul(data.draw(_factors(n)), h), p_mul(data.draw(part), h)
    product = p_mul(a, b)
    assert list(product.items()) == list(_naive_mul(a, b).items())
    assert p_exquo(product, b) == a
    syms = sympy.symbols(f"v0:{n}")
    names = [str(v) for v in syms]

    def to_sympy(p):
        return sum((c * sympy.Mul(*[v ** e for v, e in zip(syms, m)]) for m, c in p.items()),
                   sympy.Integer(0))

    cr = canonicalize(div(expr.p_to_expr(num, names), expr.p_to_expr(den, names)), names)
    want_num, want_den = sympy.fraction(sympy.cancel(to_sympy(num) / to_sympy(den)))
    assert sympy.expand(to_sympy(cr.num) * want_den - want_num * to_sympy(cr.den)) == 0
    assert sympy.cancel(to_sympy(cr.den) / want_den).is_number


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


def _parenthesised(e, slots):
    """The reference: every Add, Mul and Div in parentheses, repeats written out."""
    if isinstance(e, Constant):
        return repr(float(e.value))
    if isinstance(e, Symbol):
        return slots[e.name]
    if isinstance(e, Add):
        return "(" + " + ".join(_parenthesised(a, slots) for a in e.args) + ")"
    if isinstance(e, Mul):
        return "(" + "*".join(_parenthesised(a, slots) for a in e.args) + ")"
    if isinstance(e, Pow):
        return f"{_parenthesised(e.base, slots)}**{e.exp}"
    return f"({_parenthesised(e.num, slots)}/{_parenthesised(e.den, slots)})"


@st.composite
def _dags(draw):
    """A few roots over a pool of nodes, each built from earlier ones, so
    subtrees are shared; Add and Mul are built unflattened, so they nest
    to the right as well as to the left."""
    pool = [x, y, Constant(Fraction(-1, 3)), Constant(Fraction(7, 10))]
    for _ in range(draw(st.integers(1, 10))):
        op = draw(st.sampled_from("++**^//c"))
        args = tuple(draw(st.sampled_from(pool)) for _ in range(draw(st.integers(2, 3))))
        if op == "+":
            pool.append(Add(args))
        elif op == "*":
            pool.append(Mul(args))
        elif op == "^":
            pool.append(pow_(args[0], draw(st.integers(2, 3))))
        elif op == "/":
            pool.append(Div(args[0], args[1]))
        else:
            pool.append(Constant(Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 12)))))
    return draw(st.lists(st.sampled_from(pool[4:]), min_size=1, max_size=3))


# zeros and huge values make divisions and powers raise; the rest round
_inputs = st.one_of(
    st.sampled_from([0.0, 0.1, -0.7, 1 / 3, 2.5, 1e-200, 1e200, -1e155]),
    st.floats(-1e3, 1e3).filter(lambda v: v != int(v)),
)


def _outcome(fn, *args):
    """The bytes of each result, or the type of the exception raised."""
    try:
        with np.errstate(all="ignore"):
            return [np.asarray(v, dtype=float).tobytes() for v in fn(*args)]
    except (ZeroDivisionError, OverflowError) as e:
        return type(e)


@given(_dags(), st.lists(st.tuples(_inputs, _inputs), min_size=1, max_size=4))
@settings(max_examples=300, deadline=None)
# a float power overflows where the product of the same operands gives inf
@example(roots=[pow_(Add((x, y)), 2)], points=[(1e200, 0.1)])
# a right-nested sum that rounds differently when read left to right
@example(roots=[Add((x, Add((y, Constant(Fraction(3, 10))))))], points=[(0.1, 0.2)])
# the division raises first; the shared power would overflow if computed early
@example(roots=[Add((Div(x, y), pow_(x, 2), pow_(x, 2)))], points=[(1e200, 0.0)])
def test_compiled_source_is_bit_identical_to_parenthesised(roots, points):
    fn = compile_callable(roots, ["x", "y"])
    slots = {"x": "_a0", "y": "_a1"}
    body = ", ".join(_parenthesised(e, slots) for e in roots)
    ref = exec_generated(f"def _ref(_a0, _a1):\n    return ({body},)\n", "_ref", {})
    for px, py in points:
        assert _outcome(fn, px, py) == _outcome(ref, px, py), fn.__source__
    xs, ys = np.array(points).T
    assert _outcome(fn, xs, ys) == _outcome(ref, xs, ys), fn.__source__


def test_compiled_source_shares_subexpressions():
    s = add(pow_(x, 2), y)
    fn = compile_callable([mul(s, s, Fraction(1, 3)), div(x, s)], ["x", "y"])
    assert fn.__source__.count("_a0**2") == 1
    assert fn(2.0, 1.0) == ((1 / 3) * 5.0 * 5.0, 2.0 / 5.0)


def test_compiled_division_by_zero_raises():
    fn = compile_callable([parse("1/x")], ["x"])
    with pytest.raises(ZeroDivisionError):
        fn(0.0)


def test_numbers_beyond_float_range():
    assert to_float(Fraction(1, 3)) == 1 / 3
    assert to_float(Fraction(1, 10 ** 400)) == 0.0  # underflow is fine
    for value in (10 ** 400, Fraction(-(10 ** 401), 7)):
        with pytest.raises(ExprError, match="out of float range"):
            to_float(value)
    with pytest.raises(ExprError, match=r"10\^400 is out of float range"):
        compile_callable([parse("10^400*x")], ["x"])


def test_deep_nesting_is_an_error_not_a_crash():
    with pytest.raises(ParseError, match="nested too deeply"):
        parse("(" * 3000 + "x" + ")" * 3000)
    # one pair of parentheses per level: the Python compiler stops at 200;
    # at 600 the value numbering itself passes the recursion limit
    for depth in (200, 600):
        deep = x
        for _ in range(depth):
            deep = mul(add(deep, 1), x)
        with pytest.raises(ExprError, match="nested too deeply to compile"):
            compile_callable([deep], ["x"])
