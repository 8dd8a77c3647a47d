"""Exact symbolic expressions: rational-coefficient trees over named symbols.

The node set is deliberately small — constants, symbols, sums, products,
integer powers and quotients — because every object the library manipulates
is a rational function.  Construction is eagerly simplifying (constant
folding, 0/1 identities, flattening of nested sums/products) but never
expands products, so trees stay close to what the user wrote.  Semantic
questions (equality, zero-testing) go through :class:`CanonicalRational`,
a reduced pair of integer-coefficient polynomials.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence, Union

Number = Union[int, Fraction]


class ExprError(Exception):
    """Base class for expression-layer failures."""


class ParseError(ExprError):
    def __init__(self, message: str, line: int, col: int, expected: tuple[str, ...] = ()):
        self.line = line
        self.col = col
        self.expected = expected
        suffix = f" (expected one of: {', '.join(expected)})" if expected else ""
        super().__init__(f"{message} at line {line}, column {col}{suffix}")


class UnboundSymbolError(ExprError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unbound symbol '{name}'")


class ZeroDenominatorError(ExprError):
    def __init__(self, subexpr: "Expr | None" = None, detail: str = ""):
        self.subexpr = subexpr
        msg = "denominator is zero"
        if subexpr is not None:
            msg += f" in subexpression: {subexpr}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class BudgetExceededError(ExprError):
    def __init__(self, size: int, budget: int, context: str = ""):
        self.size = size
        self.budget = budget
        where = f" while {context}" if context else ""
        super().__init__(
            f"polynomial with {size} monomials exceeds budget of {budget}{where}"
        )


# --------------------------------------------------------------------------
# nodes


class Expr:
    __slots__ = ()

    def key(self) -> tuple:
        raise NotImplementedError

    def __eq__(self, other) -> bool:  # structural equality
        return isinstance(other, Expr) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __str__(self) -> str:
        return _fmt(self, _PREC_ADD)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self}>"

    # arithmetic sugar; accepts ints and Fractions on either side
    def __add__(self, other):
        return add(self, as_expr(other))

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, as_expr(other))

    def __rsub__(self, other):
        return sub(as_expr(other), self)

    def __mul__(self, other):
        return mul(self, as_expr(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, as_expr(other))

    def __rtruediv__(self, other):
        return div(as_expr(other), self)

    def __pow__(self, k: int):
        return pow_(self, k)

    def __neg__(self):
        return neg(self)


class Constant(Expr):
    __slots__ = ("value",)

    def __init__(self, value: Number):
        self.value = Fraction(value)

    def key(self):
        return ("c", self.value)


class Symbol(Expr):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def key(self):
        return ("s", self.name)


class Add(Expr):
    __slots__ = ("args",)

    def __init__(self, args: tuple[Expr, ...]):
        self.args = args

    def key(self):
        return ("+",) + tuple(a.key() for a in self.args)


class Mul(Expr):
    __slots__ = ("args",)

    def __init__(self, args: tuple[Expr, ...]):
        self.args = args

    def key(self):
        return ("*",) + tuple(a.key() for a in self.args)


class Pow(Expr):
    __slots__ = ("base", "exp")

    def __init__(self, base: Expr, exp: int):
        self.base = base
        self.exp = exp

    def key(self):
        return ("^", self.base.key(), self.exp)


class Div(Expr):
    __slots__ = ("num", "den")

    def __init__(self, num: Expr, den: Expr):
        self.num = num
        self.den = den

    def key(self):
        return ("/", self.num.key(), self.den.key())


ZERO = Constant(0)
ONE = Constant(1)


def as_expr(v) -> Expr:
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, Fraction)):
        return Constant(v)
    raise TypeError(f"cannot coerce {type(v).__name__} to Expr")


# --------------------------------------------------------------------------
# simplifying constructors


def add(*terms) -> Expr:
    flat: list[Expr] = []
    const = Fraction(0)
    for t in map(as_expr, terms):
        if isinstance(t, Add):
            for a in t.args:
                if isinstance(a, Constant):
                    const += a.value
                else:
                    flat.append(a)
        elif isinstance(t, Constant):
            const += t.value
        else:
            flat.append(t)
    if const != 0:
        flat.insert(0, Constant(const))
    if not flat:
        return ZERO
    if len(flat) == 1:
        return flat[0]
    return Add(tuple(flat))


def mul(*factors) -> Expr:
    flat: list[Expr] = []
    const = Fraction(1)
    for f in map(as_expr, factors):
        if isinstance(f, Mul):
            for a in f.args:
                if isinstance(a, Constant):
                    const *= a.value
                else:
                    flat.append(a)
        elif isinstance(f, Constant):
            const *= f.value
        else:
            flat.append(f)
    if const == 0:
        return ZERO
    if const != 1:
        flat.insert(0, Constant(const))
    if not flat:
        return ONE
    if len(flat) == 1:
        return flat[0]
    return Mul(tuple(flat))


def pow_(base, k: int) -> Expr:
    base = as_expr(base)
    if not isinstance(k, int) or isinstance(k, bool):
        raise ExprError(f"exponent must be a Python int, got {k!r}")
    if k == 0:
        return ONE
    if k == 1:
        return base
    if isinstance(base, Constant):
        if base.value == 0 and k < 0:
            raise ZeroDenominatorError(base)
        return Constant(base.value ** k)
    if k < 0:
        return div(ONE, pow_(base, -k))
    if isinstance(base, Pow):
        return pow_(base.base, base.exp * k)
    if isinstance(base, Div):
        return div(pow_(base.num, k), pow_(base.den, k))
    return Pow(base, k)


def div(num, den) -> Expr:
    num = as_expr(num)
    den = as_expr(den)
    if isinstance(den, Constant):
        if den.value == 0:
            raise ZeroDenominatorError(den)
        return mul(Constant(1 / den.value), num)
    if isinstance(num, Constant) and num.value == 0:
        return ZERO
    if isinstance(num, Div):
        return div(num.num, mul(num.den, den))
    if isinstance(den, Div):
        return div(mul(num, den.den), den.num)
    return Div(num, den)


def neg(e) -> Expr:
    return mul(Constant(-1), as_expr(e))


def sub(a, b) -> Expr:
    return add(as_expr(a), neg(b))


def symbols(names: str | Iterable[str]) -> list[Symbol]:
    if isinstance(names, str):
        names = names.split()
    return [Symbol(n) for n in names]


def collect_symbols(e: Expr, into: set[str] | None = None) -> set[str]:
    out = set() if into is None else into
    stack = [e]
    while stack:
        n = stack.pop()
        if isinstance(n, Symbol):
            out.add(n.name)
        elif isinstance(n, (Add, Mul)):
            stack.extend(n.args)
        elif isinstance(n, Pow):
            stack.append(n.base)
        elif isinstance(n, Div):
            stack.append(n.num)
            stack.append(n.den)
    return out


# --------------------------------------------------------------------------
# printing

_PREC_ADD = 1
_PREC_MUL = 2
_PREC_POW = 3
_PREC_ATOM = 4


def _node_prec(e: Expr) -> float:
    if isinstance(e, Constant):
        v = e.value
        if v >= 0 and v.denominator == 1:
            return _PREC_ATOM
        return 1.5  # negative or fractional: parenthesize inside products
    if isinstance(e, Symbol):
        return _PREC_ATOM
    if isinstance(e, Add):
        return _PREC_ADD
    if isinstance(e, Mul):
        return _PREC_MUL
    if isinstance(e, Div):
        return 1.9  # slightly below '*' so quotients always get parens there
    return _PREC_POW


def _fmt(e: Expr, ctx_prec: float) -> str:
    if isinstance(e, Constant):
        v = e.value
        s = str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    elif isinstance(e, Symbol):
        s = e.name
    elif isinstance(e, Add):
        parts = [_fmt(e.args[0], _PREC_ADD)]
        for t in e.args[1:]:
            flipped = _negated_term(t)
            if flipped is not None:
                parts.append(" - " + _fmt(flipped, _PREC_MUL))
            else:
                parts.append(" + " + _fmt(t, _PREC_MUL))
        s = "".join(parts)
    elif isinstance(e, Mul):
        s = "*".join(_fmt(f, _PREC_MUL) for f in e.args)
    elif isinstance(e, Div):
        num = _fmt(e.num, _PREC_MUL)
        den = _fmt(e.den, _PREC_POW)
        s = f"{num}/{den}"
    elif isinstance(e, Pow):
        s = f"{_fmt(e.base, _PREC_ATOM)}^{e.exp}"
    else:  # pragma: no cover
        raise TypeError(type(e))
    if _node_prec(e) < ctx_prec:
        return f"({s})"
    return s


def _negated_term(t: Expr) -> Expr | None:
    """If t == -u for a u that prints without a leading sign, return u."""
    if isinstance(t, Constant) and t.value < 0:
        return Constant(-t.value)
    if isinstance(t, Mul) and isinstance(t.args[0], Constant) and t.args[0].value < 0:
        return mul(Constant(-t.args[0].value), *t.args[1:])
    return None


# --------------------------------------------------------------------------
# parsing

_TOKEN_OPS = "+-*/^()"


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def _tokenize(src: str) -> list[_Token]:
    toks: list[_Token] = []
    line, col = 1, 1
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        start_col = col
        if ch.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            if j < n and src[j] == ".":
                j += 1
                if j >= n or not src[j].isdigit():
                    raise ParseError("malformed number", line, start_col, ("digit",))
                while j < n and src[j].isdigit():
                    j += 1
            toks.append(_Token("num", src[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            toks.append(_Token("name", src[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in _TOKEN_OPS:
            toks.append(_Token(ch, ch, line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, start_col)
    toks.append(_Token("end", "", line, col))
    return toks


class _Parser:
    def __init__(self, toks: list[_Token]):
        self.toks = toks
        self.pos = 0

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def next(self) -> _Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def fail(self, expected: tuple[str, ...]):
        t = self.peek()
        what = "end of input" if t.kind == "end" else f"token {t.text!r}"
        raise ParseError(f"unexpected {what}", t.line, t.col, expected)

    def expr(self) -> Expr:
        e = self.term()
        while self.peek().kind in "+-":
            op = self.next().kind
            rhs = self.term()
            e = add(e, rhs) if op == "+" else sub(e, rhs)
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self.peek().kind in "*/":
            op = self.next()
            rhs = self.factor()
            if op.kind == "*":
                e = mul(e, rhs)
            else:
                try:
                    e = div(e, rhs)
                except ZeroDenominatorError:
                    raise ParseError("division by zero", op.line, op.col)
        return e

    def factor(self) -> Expr:
        if self.peek().kind == "-":
            self.next()
            return neg(self.factor())
        base = self.atom()
        if self.peek().kind == "^":
            caret = self.next()
            k = self.integer()
            try:
                return pow_(base, k)
            except ZeroDenominatorError:
                raise ParseError("zero raised to a negative power", caret.line, caret.col)
        return base

    def integer(self) -> int:
        sign = 1
        if self.peek().kind == "-":
            self.next()
            sign = -1
        t = self.peek()
        if t.kind != "num" or "." in t.text:
            self.fail(("integer exponent",))
        self.next()
        return sign * int(t.text)

    def atom(self) -> Expr:
        t = self.peek()
        if t.kind == "num":
            self.next()
            return Constant(Fraction(t.text))
        if t.kind == "name":
            self.next()
            return Symbol(t.text)
        if t.kind == "(":
            self.next()
            e = self.expr()
            if self.peek().kind != ")":
                self.fail(("')'",))
            self.next()
            return e
        self.fail(("number", "symbol", "'('", "'-'"))


def parse(src: str) -> Expr:
    """Parse an expression; raises ParseError with line/column on bad input."""
    p = _Parser(_tokenize(src))
    e = p.expr()
    if p.peek().kind != "end":
        p.fail(("'+'", "'-'", "'*'", "'/'", "'^'", "end of input"))
    return e


# --------------------------------------------------------------------------
# calculus and rewriting


def differentiate(e: Expr, name: str) -> Expr:
    if isinstance(e, Constant):
        return ZERO
    if isinstance(e, Symbol):
        return ONE if e.name == name else ZERO
    if isinstance(e, Add):
        return add(*[differentiate(a, name) for a in e.args])
    if isinstance(e, Mul):
        terms = []
        for i, f in enumerate(e.args):
            df = differentiate(f, name)
            if isinstance(df, Constant) and df.value == 0:
                continue
            terms.append(mul(*e.args[:i], df, *e.args[i + 1:]))
        return add(*terms)
    if isinstance(e, Pow):
        db = differentiate(e.base, name)
        if isinstance(db, Constant) and db.value == 0:
            return ZERO
        return mul(Constant(e.exp), pow_(e.base, e.exp - 1), db)
    if isinstance(e, Div):
        dn = differentiate(e.num, name)
        dd = differentiate(e.den, name)
        if isinstance(dd, Constant) and dd.value == 0:
            return div(dn, e.den)
        return div(sub(mul(dn, e.den), mul(e.num, dd)), pow_(e.den, 2))
    raise TypeError(type(e))  # pragma: no cover


def substitute(e: Expr, mapping: Mapping[str, Expr | Number]) -> Expr:
    if isinstance(e, Constant):
        return e
    if isinstance(e, Symbol):
        v = mapping.get(e.name)
        return e if v is None else as_expr(v)
    if isinstance(e, Add):
        return add(*[substitute(a, mapping) for a in e.args])
    if isinstance(e, Mul):
        return mul(*[substitute(a, mapping) for a in e.args])
    if isinstance(e, Pow):
        return pow_(substitute(e.base, mapping), e.exp)
    if isinstance(e, Div):
        num = substitute(e.num, mapping)
        den = substitute(e.den, mapping)
        if isinstance(den, Constant) and den.value == 0:
            raise ZeroDenominatorError(e.den, "after substitution")
        return div(num, den)
    raise TypeError(type(e))  # pragma: no cover


def evaluate(e: Expr, binding: Mapping[str, Number | float]) -> Fraction | float:
    """Evaluate exactly when every bound value is int/Fraction, else in floats."""
    vals = {k: (Fraction(v) if isinstance(v, int) else v) for k, v in binding.items()}
    return _eval(e, vals)


def _eval(e: Expr, vals):
    if isinstance(e, Constant):
        return e.value
    if isinstance(e, Symbol):
        try:
            return vals[e.name]
        except KeyError:
            raise UnboundSymbolError(e.name) from None
    if isinstance(e, Add):
        out = _eval(e.args[0], vals)
        for a in e.args[1:]:
            out = out + _eval(a, vals)
        return out
    if isinstance(e, Mul):
        out = _eval(e.args[0], vals)
        for a in e.args[1:]:
            out = out * _eval(a, vals)
        return out
    if isinstance(e, Pow):
        b = _eval(e.base, vals)
        if e.exp < 0 and b == 0:
            raise ZeroDenominatorError(e.base)
        return b ** e.exp
    if isinstance(e, Div):
        d = _eval(e.den, vals)
        if d == 0:
            raise ZeroDenominatorError(e.den)
        return _eval(e.num, vals) / d
    raise TypeError(type(e))  # pragma: no cover


# --------------------------------------------------------------------------
# compilation to plain Python for numeric hot paths


def compile_callable(exprs: Sequence[Expr], argnames: Sequence[str]) -> Callable:
    """Compile expressions into one Python function of float arguments.

    The generated function returns a tuple of floats (one per expression).
    Every free symbol must appear in `argnames`; constants are embedded as
    correctly rounded floats.  Division by zero raises ZeroDivisionError.
    The generated source names the arguments by position (`_a0, _a1, ...`),
    so any symbol name is safe, Python keywords included.  The arguments
    may also be equal-length numpy arrays, evaluated elementwise; an entry
    that does not depend on them comes back as a scalar.
    """
    slots = {name: f"_a{i}" for i, name in enumerate(argnames)}
    for e in exprs:
        missing = collect_symbols(e) - slots.keys()
        if missing:
            raise UnboundSymbolError(sorted(missing)[0])
    body = ", ".join(_pysrc(e, slots) for e in exprs)
    signature = ", ".join(f"_a{i}" for i in range(len(argnames)))
    src = f"def _compiled({signature}):\n    return ({body},)\n"
    ns: dict = {}
    exec(compile(src, "<kccstab-compiled>", "exec"), ns)
    fn = ns["_compiled"]
    fn.__source__ = src
    return fn


def _pysrc(e: Expr, slots: Mapping[str, str]) -> str:
    if isinstance(e, Constant):
        return repr(float(e.value))
    if isinstance(e, Symbol):
        return slots[e.name]
    if isinstance(e, Add):
        return "(" + " + ".join(_pysrc(a, slots) for a in e.args) + ")"
    if isinstance(e, Mul):
        return "(" + "*".join(_pysrc(a, slots) for a in e.args) + ")"
    if isinstance(e, Pow):
        return f"{_pysrc(e.base, slots)}**{e.exp}"
    if isinstance(e, Div):
        return f"({_pysrc(e.num, slots)}/{_pysrc(e.den, slots)})"
    raise TypeError(type(e))  # pragma: no cover


# --------------------------------------------------------------------------
# sparse integer polynomials (exponent-tuple -> coefficient)

Mono = tuple[int, ...]
Poly = dict  # Mono -> int


def p_zero() -> Poly:
    return {}


def p_const(c: int, nvars: int) -> Poly:
    return {(0,) * nvars: c} if c else {}


def p_add(p: Poly, q: Poly) -> Poly:
    out = dict(p)
    for m, c in q.items():
        s = out.get(m, 0) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def p_neg(p: Poly) -> Poly:
    return {m: -c for m, c in p.items()}


def p_scale(p: Poly, k: int) -> Poly:
    if k == 0:
        return {}
    return {m: c * k for m, c in p.items()}


def p_mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return {}
    out: Poly = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            s = out.get(m, 0) + c1 * c2
            if s:
                out[m] = s
            else:
                del out[m]
    return out


def p_pow(p: Poly, k: int, nvars: int) -> Poly:
    out = p_const(1, nvars)
    base = p
    while k:
        if k & 1:
            out = p_mul(out, base)
        k >>= 1
        if k:
            base = p_mul(base, base)
    return out


def p_diff(p: Poly, i: int) -> Poly:
    out: Poly = {}
    for m, c in p.items():
        if m[i]:
            mm = m[:i] + (m[i] - 1,) + m[i + 1:]
            out[mm] = out.get(mm, 0) + c * m[i]
    return {m: c for m, c in out.items() if c}


def p_eval(p: Poly, vals: Sequence) -> object:
    total = 0
    for m, c in p.items():
        term = c
        for v, k in zip(vals, m):
            if k:
                term = term * v ** k
        total = total + term
    return total


def p_content(p: Poly) -> int:
    g = 0
    for c in p.values():
        g = math.gcd(g, abs(c))
        if g == 1:
            break
    return g


def _grlex_key(m: Mono):
    return (sum(m), m)


def p_leading(p: Poly) -> tuple[Mono, int]:
    m = max(p, key=_grlex_key)
    return m, p[m]


def p_sorted(p: Poly) -> list[tuple[Mono, int]]:
    return sorted(p.items(), key=lambda kv: _grlex_key(kv[0]), reverse=True)


def p_str(p: Poly, names: Sequence[str]) -> str:
    if not p:
        return "0"
    parts = []
    for m, c in p_sorted(p):
        factors = []
        for name, k in zip(names, m):
            if k == 1:
                factors.append(name)
            elif k > 1:
                factors.append(f"{name}^{k}")
        mag = abs(c)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append((" - " if c < 0 else " + ") + body)
    return "".join(parts)


# --------------------------------------------------------------------------
# canonical rational form


class CanonicalRational:
    """A rational function as a reduced pair of integer polynomials.

    Normalization: the monomial gcd across numerator and denominator is
    cancelled, the common integer content is divided out, and the leading
    (graded-lex greatest) denominator coefficient is positive.  Equality is
    semantic, by cross-multiplication.  The zero function is ({}, 1).
    """

    __slots__ = ("vars", "num", "den")

    def __init__(self, vars: tuple[str, ...], num: Poly, den: Poly):
        self.vars = vars
        self.num = num
        self.den = den

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(c: Number, vars: tuple[str, ...]) -> "CanonicalRational":
        f = Fraction(c)
        n = len(vars)
        return CanonicalRational(
            vars, p_const(f.numerator, n), p_const(f.denominator, n)
        )

    @staticmethod
    def zero(vars: tuple[str, ...]) -> "CanonicalRational":
        return CanonicalRational.const(0, vars)

    # -- ring operations (shared variable order required) -------------------

    def _chk(self, other: "CanonicalRational"):
        if self.vars != other.vars:
            raise ExprError("mixed variable orders in canonical arithmetic")

    def __add__(self, other):
        self._chk(other)
        if self.den == other.den:
            num = p_add(self.num, other.num)
            den = self.den
        else:
            num = p_add(p_mul(self.num, other.den), p_mul(other.num, self.den))
            den = p_mul(self.den, other.den)
        return _canon_pair(self.vars, num, den)

    def __sub__(self, other):
        self._chk(other)
        return self + (-other)

    def __neg__(self):
        return CanonicalRational(self.vars, p_neg(self.num), self.den)

    def __mul__(self, other):
        self._chk(other)
        return _canon_pair(
            self.vars, p_mul(self.num, other.num), p_mul(self.den, other.den)
        )

    def __truediv__(self, other):
        self._chk(other)
        if not other.num:
            raise ZeroDenominatorError(detail="division by the zero function")
        return _canon_pair(
            self.vars, p_mul(self.num, other.den), p_mul(self.den, other.num)
        )

    def scale(self, c: Number) -> "CanonicalRational":
        f = Fraction(c)
        return _canon_pair(
            self.vars,
            p_scale(self.num, f.numerator),
            p_scale(self.den, f.denominator),
        )

    # -- predicates ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.num

    def __eq__(self, other) -> bool:
        if not isinstance(other, CanonicalRational):
            return NotImplemented
        self._chk(other)
        return p_mul(self.num, other.den) == p_mul(other.num, self.den)

    def __hash__(self):  # pragma: no cover
        raise TypeError("CanonicalRational is unhashable")

    def monomial_count(self) -> int:
        return len(self.num) + len(self.den)

    # -- output ----------------------------------------------------------------

    def num_str(self) -> str:
        return p_str(self.num, self.vars)

    def den_str(self) -> str:
        return p_str(self.den, self.vars)

    def __str__(self) -> str:
        if self.den == p_const(1, len(self.vars)):
            return self.num_str()
        return f"({self.num_str()})/({self.den_str()})"

    def __repr__(self):  # pragma: no cover
        return f"<CanonicalRational {self}>"


def _canon_pair(vars: tuple[str, ...], num: Poly, den: Poly) -> CanonicalRational:
    if not den:
        raise ZeroDenominatorError(detail="denominator reduces to the zero polynomial")
    nv = len(vars)
    if not num:
        return CanonicalRational(vars, {}, p_const(1, nv))
    # cancel the common monomial factor
    mins = [min(m[i] for m in num) for i in range(nv)]
    for i in range(nv):
        if mins[i]:
            mins[i] = min(mins[i], min(m[i] for m in den))
    if any(mins):
        shift = tuple(mins)
        num = {tuple(a - b for a, b in zip(m, shift)): c for m, c in num.items()}
        den = {tuple(a - b for a, b in zip(m, shift)): c for m, c in den.items()}
    # divide out the shared integer content
    g = math.gcd(p_content(num), p_content(den))
    if g > 1:
        num = {m: c // g for m, c in num.items()}
        den = {m: c // g for m, c in den.items()}
    # positive leading denominator coefficient
    if p_leading(den)[1] < 0:
        num = p_neg(num)
        den = p_neg(den)
    return CanonicalRational(vars, num, den)


def canonicalize(e: Expr, order: Sequence[str] | None = None) -> CanonicalRational:
    """Reduce an expression to its canonical numerator/denominator pair.

    `order` fixes the variable order (and must cover every free symbol);
    by default the symbols of `e` in sorted order.
    """
    if order is None:
        order = tuple(sorted(collect_symbols(e)))
    else:
        order = tuple(order)
        missing = collect_symbols(e) - set(order)
        if missing:
            raise UnboundSymbolError(sorted(missing)[0])
    index = {name: i for i, name in enumerate(order)}
    num, den = _to_pair(e, index, len(order))
    return _canon_pair(order, num, den)


def _to_pair(e: Expr, index: Mapping[str, int], nv: int) -> tuple[Poly, Poly]:
    one = p_const(1, nv)
    if isinstance(e, Constant):
        return p_const(e.value.numerator, nv), p_const(e.value.denominator, nv)
    if isinstance(e, Symbol):
        m = [0] * nv
        m[index[e.name]] = 1
        return {tuple(m): 1}, one
    if isinstance(e, Add):
        num, den = _to_pair(e.args[0], index, nv)
        for a in e.args[1:]:
            n2, d2 = _to_pair(a, index, nv)
            if den == d2:
                num = p_add(num, n2)
            else:
                num = p_add(p_mul(num, d2), p_mul(n2, den))
                den = p_mul(den, d2)
            num, den = _reduce_pair(num, den, nv)
        return num, den
    if isinstance(e, Mul):
        num, den = one, one
        for a in e.args:
            n2, d2 = _to_pair(a, index, nv)
            num = p_mul(num, n2)
            den = p_mul(den, d2)
            num, den = _reduce_pair(num, den, nv)
        return num, den
    if isinstance(e, Pow):
        n, d = _to_pair(e.base, index, nv)
        if e.exp < 0:
            if not n:
                raise ZeroDenominatorError(e.base)
            n, d = d, n
            return p_pow(n, -e.exp, nv), p_pow(d, -e.exp, nv)
        return p_pow(n, e.exp, nv), p_pow(d, e.exp, nv)
    if isinstance(e, Div):
        n1, d1 = _to_pair(e.num, index, nv)
        n2, d2 = _to_pair(e.den, index, nv)
        if not n2:
            raise ZeroDenominatorError(e.den)
        return _reduce_pair(p_mul(n1, d2), p_mul(d1, n2), nv)
    raise TypeError(type(e))  # pragma: no cover


def _reduce_pair(num: Poly, den: Poly, nv: int) -> tuple[Poly, Poly]:
    """Light in-flight reduction: shared content only (cheap, keeps ints small)."""
    if not num:
        return {}, p_const(1, nv)
    if not den:
        raise ZeroDenominatorError(detail="denominator reduces to the zero polynomial")
    g = math.gcd(p_content(num), p_content(den))
    if g > 1:
        num = {m: c // g for m, c in num.items()}
        den = {m: c // g for m, c in den.items()}
    return num, den


def semantic_equal(e1: Expr, e2: Expr) -> bool:
    """Exact equality of rational functions, by canonical cross-multiplication."""
    order = tuple(sorted(collect_symbols(e1) | collect_symbols(e2)))
    return canonicalize(e1, order) == canonicalize(e2, order)


def p_to_expr(p: Poly, names: Sequence[str]) -> Expr:
    """Rebuild an expression tree (sum of monomials) from a sparse polynomial."""
    terms = []
    for m, c in p_sorted(p):
        factors: list[Expr] = [Constant(c)]
        for name, k in zip(names, m):
            if k:
                factors.append(pow_(Symbol(name), k))
        terms.append(mul(*factors))
    return add(*terms)


def poly_of(e: Expr, order: Sequence[str]) -> Poly:
    """Canonical numerator of a polynomial expression (denominator must be constant)."""
    cr = canonicalize(e, order)
    if any(sum(m) for m in cr.den):
        raise ExprError(f"expression is not polynomial: denominator {cr.den_str()}")
    return cr.num
