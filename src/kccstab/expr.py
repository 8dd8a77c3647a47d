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

import contextlib
import functools
import importlib.util
import math
import operator
import re
import sys
from collections import Counter
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
        self.reason = message + suffix  # the message without its position
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
        self.value = value if type(value) is Fraction else Fraction(value)

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
    const = 0  # a Fraction once a constant term appears
    for t in terms:
        if not isinstance(t, Expr):
            t = as_expr(t)
        kind = type(t)
        if kind is Add:
            for a in t.args:
                if type(a) is Constant:
                    const += a.value
                else:
                    flat.append(a)
        elif kind is Constant:
            const += t.value
        else:
            flat.append(t)
    if const:
        flat.insert(0, Constant(const))
    if not flat:
        return ZERO
    if len(flat) == 1:
        return flat[0]
    return Add(tuple(flat))


def mul(*factors) -> Expr:
    flat: list[Expr] = []
    const = None  # the product of the constant factors, once one appears
    for f in factors:
        if not isinstance(f, Expr):
            f = as_expr(f)
        kind = type(f)
        if kind is Mul:
            for a in f.args:
                if type(a) is Constant:
                    const = a.value if const is None else const * a.value
                else:
                    flat.append(a)
        elif kind is Constant:
            const = f.value if const is None else const * f.value
        else:
            flat.append(f)
    if const == 0:
        return ZERO
    if const is not None and const != 1:
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


def char_poly(A: Sequence[Sequence], check=None) -> list:
    """Coefficients [c_1..c_n] of det(l I - A) = l^n + c_1 l^(n-1) + ... + c_n.

    Berkowitz's recursion (Berkowitz, IPL 18, 1984) over the leading
    principal submatrices: when [[B, C], [R, a]] is the leading block of
    size k + 1, and b_0 = 1, b_1..b_k are the coefficients of B's
    polynomial (b_(k+1) = 0), the block's coefficients are

        c_t = b_t - b_(t-1)·a - sum_(i+j = t-2) b_i·(R·B^j·C),    t = 1..k+1.

    It uses only ``+``, ``-`` and ``*``, so it works over Expr trees,
    CanonicalRational, Fractions and floats alike, and over 1-d float
    arrays, which run one matrix per array position.  `check(value,
    context)`, when given, is called with context "characteristic
    polynomial" on every entry of each vector B^j·C (j >= 1), on each
    product R·B^j·C and on every coefficient formed, those of the leading
    submatrices included; it aborts the computation by raising.
    """
    if hasattr(A, "tolist"):
        A = A.tolist()
    A = [list(row) for row in A]
    n = len(A)
    if n == 0 or any(len(row) != n for row in A):
        raise ValueError("char_poly needs a square matrix")
    context = "characteristic polynomial"
    coeffs = [_checked(check, -A[0][0], context)]
    for k in range(1, n):
        B = [row[:k] for row in A[:k]]
        R, a = A[k][:k], A[k][k]
        col, s = [row[k] for row in A[:k]], []  # B^j·C and s_j = R·B^j·C
        for j in range(k):
            if j:
                col = [_checked(check, _dot(row, col), context) for row in B]
            s.append(_checked(check, _dot(R, col), context))
        b = [None] + coeffs  # b_0 = 1 is never multiplied
        coeffs = []
        for t in range(1, k + 2):
            ab = a if t == 1 else b[t - 1] * a
            v = b[t] - ab if t <= k else -ab
            for i in range(t - 1):
                v = v - (s[t - 2] if i == 0 else b[i] * s[t - 2 - i])
            coeffs.append(_checked(check, v, context))
    return coeffs


def det(M: Sequence[Sequence]):
    """Determinant of a square matrix given as a sequence of rows:
    (-1)^n·c_n of `char_poly`, so division-free over the same entry types."""
    c_n = char_poly(M)[-1]
    return -c_n if len(M) % 2 else c_n


def _checked(check, value, context: str):
    if check is not None:
        check(value, context)
    return value


def _dot(row, col):
    acc = row[0] * col[0]
    for a, b in zip(row[1:], col[1:]):
        acc = acc + a * b
    return acc


def symbols(names: str | Iterable[str]) -> list[Symbol]:
    if isinstance(names, str):
        names = names.split()
    return [Symbol(n) for n in names]


def collect_symbols(e: Expr, into: set[str] | None = None) -> set[str]:
    out = set() if into is None else into
    stack = [e]
    while stack:
        n = stack.pop()
        kind = type(n)
        if kind is Symbol:
            out.add(n.name)
        elif kind is Add or kind is Mul:
            stack.extend(n.args)
        elif kind is Pow:
            stack.append(n.base)
        elif kind is Div:
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
        s = _int_str(v.numerator) + (f"/{_int_str(v.denominator)}" if v.denominator != 1 else "")
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

# One match per token, after blanks: a number, a word, any other character,
# or the end of the text (the empty token).  A number that ends in '.', a word
# that starts with no letter or '_' (such as '²x' or '٣') and a character that
# is no operator are not tokens; _parse_error looks for them only when the
# parse fails, since a parse that succeeds has read every token.
_TOKEN_RE = re.compile(r"[ \t\r\n]*([0-9]+(?:\.[0-9]*)?|\w+|.|\Z)")
_DIGITS = frozenset("0123456789")  # str.isdigit would also take '²' and '٣'
_OPERATORS = frozenset("+-*/^()")
_LEVELS = ({"+": add, "-": sub}, {"*": mul, "/": div})  # loosest first
_AFTER_OPERAND = ("'+'", "'-'", "'*'", "'/'", "'^'", "end of input")


class _Failure(Exception):
    """(token index, message or None for an unexpected token, expected)."""


class _Parser:
    def __init__(self, toks: list[str]):
        self.toks = toks
        self.pos = 0
        self.after_exponent = -1  # the token index just past the last exponent

    def fail(self, expected=(), message=None, at=None):
        raise _Failure(self.pos if at is None else at, message, expected)

    def expr(self, level: int = 0) -> Expr:
        """A sum (level 0) of products (level 1) of factors."""
        ops = _LEVELS[level]
        e = self.factor() if level else self.expr(1)
        while (op := self.toks[self.pos]) in ops:
            at = self.pos
            self.pos += 1
            rhs = self.factor() if level else self.expr(1)
            try:
                e = ops[op](e, rhs)
            except ZeroDenominatorError:
                self.fail(message="division by zero", at=at)
        return e

    def factor(self) -> Expr:
        if self.toks[self.pos] == "-":
            self.pos += 1
            return neg(self.factor())
        base = self.atom()
        if self.toks[self.pos] != "^":
            return base
        caret = self.pos
        sign = 1
        self.pos += 1
        if self.toks[self.pos] == "-":
            self.pos += 1
            sign = -1
        t = self.toks[self.pos]
        if t[:1] not in _DIGITS or "." in t:
            self.fail(("integer exponent",))
        exp = sign * self.number(t)
        self.pos += 1
        self.after_exponent = self.pos
        try:
            return pow_(base, exp)
        except ZeroDenominatorError:
            self.fail(message="zero raised to a negative power", at=caret)

    def atom(self) -> Expr:
        t = self.toks[self.pos]
        if t == "(":
            self.pos += 1
            e = self.expr()
            if self.toks[self.pos] != ")":
                self.fail(("')'",))
        elif t[:1] in _DIGITS and t[-1] != ".":
            e = Constant(self.number(t))
        elif t[:1].isalpha() or t[:1] == "_":
            e = Symbol(t)
        else:
            self.fail(("number", "symbol", "'('", "'-'"))
        self.pos += 1
        return e

    def number(self, t: str) -> int | Fraction:
        """The number token at `pos`, its digits read as one int; a token with
        more digits than the interpreter converts to an int fails there."""
        whole, _, frac = t.partition(".")
        try:
            return Fraction(int(whole + frac), 10 ** len(frac)) if frac else int(whole)
        except ValueError:
            self.fail(message="number has too many digits")


def _parse_error(src: str, toks: list[str], at: int, message, expected) -> ParseError:
    """The error of a failure at token `at`, or of the first place in `src`
    that is no token, if there is one; positions come from a rescan."""
    for i, t in enumerate(toks):
        if t[:1] in _DIGITS:
            if t[-1] == ".":
                at, message, expected = i, "malformed number", ("digit",)
                break
        elif t and not (t[0].isalpha() or t[0] == "_" or t in _OPERATORS):
            at, message, expected = i, f"unexpected character {t[0]!r}", ()
            break
    else:
        if message is None:
            message = f"unexpected token {toks[at]!r}" if toks[at] else "unexpected end of input"
    offset = [m.start(1) for m in _TOKEN_RE.finditer(src)][at]
    line = src.count("\n", 0, offset) + 1
    return ParseError(message, line, offset - src.rfind("\n", 0, offset), expected)


def parse(src: str) -> Expr:
    """Parse an expression; raises ParseError with line/column on bad input."""
    p = _Parser(_TOKEN_RE.findall(src))
    try:
        e = p.expr()
        if p.toks[p.pos]:
            # an exponent takes no second '^'
            p.fail(tuple(x for x in _AFTER_OPERAND if x != "'^'" or p.pos != p.after_exponent))
        return e
    except RecursionError:
        failure = (p.pos, "expression nested too deeply", ())
    except _Failure as exc:
        failure = exc.args
    raise _parse_error(src, p.toks, *failure) from None


# --------------------------------------------------------------------------
# calculus and rewriting


def differentiate(e: Expr, name: str) -> Expr:
    kind = type(e)
    if kind is Constant:
        return ZERO
    if kind is Symbol:
        return ONE if e.name == name else ZERO
    if kind is Add:
        return add(*[differentiate(a, name) for a in e.args])
    if kind is Mul:
        terms = []
        for i, f in enumerate(e.args):
            df = differentiate(f, name)
            if type(df) is Constant and not df.value:
                continue
            terms.append(mul(*e.args[:i], df, *e.args[i + 1:]))
        return add(*terms)
    if kind is Pow:
        db = differentiate(e.base, name)
        if type(db) is Constant and not db.value:
            return ZERO
        return mul(Constant(e.exp), pow_(e.base, e.exp - 1), db)
    if kind is Div:
        dn = differentiate(e.num, name)
        dd = differentiate(e.den, name)
        if type(dd) is Constant and not dd.value:
            return div(dn, e.den)
        return div(sub(mul(dn, e.den), mul(e.num, dd)), pow_(e.den, 2))
    raise TypeError(kind)  # pragma: no cover


def substitute(e: Expr, mapping: Mapping[str, Expr | Number]) -> Expr:
    kind = type(e)
    if kind is Constant:
        return e
    if kind is Symbol:
        v = mapping.get(e.name)
        return e if v is None else as_expr(v)
    if kind is Add:
        return add(*[substitute(a, mapping) for a in e.args])
    if kind is Mul:
        return mul(*[substitute(a, mapping) for a in e.args])
    if kind is Pow:
        return pow_(substitute(e.base, mapping), e.exp)
    if kind is Div:
        num = substitute(e.num, mapping)
        den = substitute(e.den, mapping)
        if type(den) is Constant and not den.value:
            raise ZeroDenominatorError(e.den, "after substitution")
        return div(num, den)
    raise TypeError(kind)  # pragma: no cover


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


def to_float(value: Number) -> float:
    """float(value); a magnitude beyond the float range is an ExprError."""
    try:
        return float(value)
    except OverflowError:
        raise ExprError(f"number of about 10^{_magnitude(Fraction(value))} is out of float range") from None


def _magnitude(value: Fraction) -> int:
    """About log10 |value|, from bit lengths: str refuses past 4,300 digits."""
    return round((abs(value.numerator).bit_length() - value.denominator.bit_length()) * math.log10(2))


def _int_str(k: int) -> str:
    """str(k); an int with more digits than the interpreter prints is an ExprError."""
    try:
        return str(k)
    except ValueError:
        raise ExprError(f"number of about 10^{_magnitude(Fraction(k))} has too many digits to print") from None


def compile_callable(exprs: Sequence[Expr], argnames: Sequence[str]) -> Callable:
    """Compile expressions into one Python function of float arguments.

    The generated function returns a tuple of floats (one per expression).
    Every free symbol must appear in `argnames`; constants are embedded as
    correctly rounded floats.  Division by zero raises ZeroDivisionError.
    Each distinct subexpression is computed once, at its first use, with
    the float operations of the written-out tree in its order.
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
    with _too_deep("compile"):
        body = ", ".join(_emit(exprs, slots))
    signature = ", ".join(f"_a{i}" for i in range(len(argnames)))
    src = f"def _compiled({signature}):\n    return ({body},)\n"
    fn = exec_generated(src, "_compiled", {})
    fn.__source__ = src
    return fn


@contextlib.contextmanager
def _too_deep(step: str):
    """Turn a RecursionError from a recursive tree walk into an ExprError
    that names the step."""
    try:
        yield
    except RecursionError:
        raise ExprError(f"expression nested too deeply to {step}") from None


def exec_generated(src: str, name: str, namespace: dict) -> Callable:
    """Run generated source in `namespace` and return the function `name`.

    Source nested deeper than the Python compiler accepts is an ExprError.
    """
    try:
        code = compile(src, f"<kccstab{name}>", "exec")
    except (SyntaxError, RecursionError):
        raise ExprError("expression nested too deeply to compile") from None
    exec(code, namespace)
    return namespace[name]


def lazy_numpy():
    """numpy as loaded, or else registered to execute on its first attribute access."""
    np = sys.modules.get("numpy")
    if np is None and (spec := importlib.util.find_spec("numpy")) is not None:
        spec.loader = importlib.util.LazyLoader(spec.loader)
        np = sys.modules["numpy"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(np)
    return np or importlib.import_module("numpy")  # a missing or blocked numpy raises here


_P_ADD, _P_MUL, _P_NEG, _P_POW, _P_ATOM = range(1, 6)  # emitted Python precedence


def _emit(exprs: Sequence[Expr], slots: Mapping[str, str]) -> list[str]:
    """Python source of each expression over float variables named by `slots`.

    One value numbering (operator and children's numbers) covers all `exprs`;
    a node written more than once is bound as `(_tK := ...)` at its first
    textual use and read as `_tK` after it.  With only the parentheses Python
    needs and the operands in order, every float operation and the first
    exception are those of the fully parenthesised tree.  A constant beyond
    the float range is an ExprError.
    """
    index: dict[tuple, int] = {}  # (operator, payload, *child numbers) -> number
    seen: dict[int, int] = {}  # id(node) -> number; every node outlives the call

    def number(e: Expr) -> int:
        if id(e) not in seen:
            if isinstance(e, (Constant, Symbol)):  # a leaf is keyed on its text
                key = ("", repr(to_float(e.value)) if isinstance(e, Constant) else slots[e.name])
            elif isinstance(e, (Add, Mul)):
                key = ("+" if isinstance(e, Add) else "*", None, *map(number, e.args))
            elif isinstance(e, Pow):
                key = ("^", e.exp, number(e.base))
            else:
                key = ("/", None, number(e.num), number(e.den))
            seen[id(e)] = index.setdefault(key, len(index))
        return seen[id(e)]

    roots = [number(e) for e in exprs]
    keys = list(index)
    # each number is written out in full once, and its children with it
    uses = Counter(roots + [c for key in keys for c in key[2:]])

    def text(k: int, need: int) -> str:
        op, arg, *kids = keys[k]
        src, prec = arg, _P_NEG if op == "" and arg[0] == "-" else _P_ATOM
        if op in ("+", "*"):  # left-associative: only a later operand needs more
            prec, later = (_P_ADD, _P_MUL) if op == "+" else (_P_MUL, _P_NEG)
            parts: list[str] = []
            for c in kids:  # a loop, not a generator: one frame per level
                parts.append(text(c, later if parts else prec))
            src = (" + " if op == "+" else "*").join(parts)
        elif op == "^":
            src, prec = f"{text(kids[0], _P_ATOM)}**{arg}", _P_POW
        elif op == "/":
            src, prec = f"{text(kids[0], _P_MUL)}/{text(kids[1], _P_NEG)}", _P_MUL
        if uses[k] > 1 and kids:
            keys[k] = ("", f"_t{k}")  # a later use reads the temporary
            return f"(_t{k} := {src})"
        return f"({src})" if prec < need else src

    return [text(k, 0) for k in roots]


# --------------------------------------------------------------------------
# sparse integer polynomials (exponent-tuple -> coefficient)

Mono = tuple[int, ...]
Poly = dict  # Mono -> int


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


def p_mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return {}
    # a constant side scales the other, whose term order the product keeps
    for const, other in ((q, p), (p, q)):
        if len(const) == 1:
            (m, c), = const.items()
            if not any(m):
                return dict(other) if c == 1 else {m2: c * c2 for m2, c2 in other.items()}
    out: Poly = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(map(operator.add, m1, m2))
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


class ParameterBinder:
    """Integer polynomials evaluated exactly at one rational point.

    Every value is scaled by the same positive integer W = prod_k b_k^d_k
    (b_k the denominator of variable k, d_k its largest exponent), so the
    scaled values are integers: one sum of integer products each.
    """

    __slots__ = ("monos", "degrees", "terms")

    def __init__(self, polys: list[Poly], nvars: int):
        self.monos = sorted({m for p in polys for m in p})
        index = {m: i for i, m in enumerate(self.monos)}
        self.degrees = [max((m[k] for m in self.monos), default=0) for k in range(nvars)]
        self.terms = [[(c, index[m]) for m, c in p.items()] for p in polys]

    def weights(self, values: Sequence[Fraction]) -> tuple[list[int], int]:
        """W times each monomial at the point, and W."""
        tables, scale = [], 1
        for v, d in zip(values, self.degrees):
            a, b = v.numerator, v.denominator
            tables.append([a ** e * b ** (d - e) for e in range(d + 1)])
            scale *= b ** d
        weights = []
        for m in self.monos:
            w = 1
            for table, e in zip(tables, m):
                w *= table[e]
            weights.append(w)
        return weights, scale

    def value(self, i: int, weights: Sequence[int]) -> int:
        return sum(c * weights[j] for c, j in self.terms[i])


def p_content(p: Poly) -> int:
    return math.gcd(*p.values())


def p_primitive(p: Poly) -> Poly:
    """p over its integer content, with a positive leading coefficient."""
    if not p:
        return {}
    g = p_content(p) * (1 if p_leading(p)[1] > 0 else -1)
    return {m: c // g for m, c in p.items()}


def p_exquo(p: Poly, q: Poly) -> Poly:
    """The exact quotient p/q; an ExprError when q does not divide p."""
    if not q:
        raise ZeroDenominatorError(detail="division by the zero polynomial")
    out = _exquo(p, q)
    if out is None:
        raise ExprError("polynomial division is not exact")
    return out


def _exquo(p: Poly, q: Poly) -> Poly | None:
    """The exact quotient p/q of a nonzero q, or None when q does not divide p."""
    if not p:
        return {}
    mq, cq = p_leading(q)
    # each quotient degree is deg p - deg q, variable by variable
    room = list(map(operator.sub, map(max, zip(*p)), map(max, zip(*q))))
    rest, out = dict(p), {}
    while rest:
        m, c = p_leading(rest)
        shift = tuple(map(operator.sub, m, mq))
        if min(shift) < 0 or any(s > r for s, r in zip(shift, room)) or c % cq:
            return None
        k = out[shift] = c // cq
        for m2, c2 in q.items():
            m2 = tuple(map(operator.add, m2, shift))
            s = rest.get(m2, 0) - k * c2
            if s:
                rest[m2] = s
            else:
                del rest[m2]
    return out


def p_gcd(p: Poly, q: Poly) -> Poly:
    """Greatest common divisor of two integer polynomials, integer content
    included, with a positive leading coefficient; p_gcd({}, {}) is {}.

    The common monomial factor times the gcd of the rest.  When the rest
    involves at most three variables, that is the heuristic GCDHEU (see
    `_heu_gcd`); otherwise, or when the heuristic fails, it is recursive in
    the variables.  With v one of least degree and c(p) the content of p
    (the gcd of its coefficients as a polynomial in v), it is gcd(c(p), q)
    when q does not involve v, and otherwise gcd(c(p), c(q)) times the
    primitive part of the last term of the subresultant remainder sequence
    of the primitive parts (Brown & Traub, J. ACM 1971; Knuth, TAOCP 2,
    4.6.1, Algorithm C).  Both ways give the same gcd.
    """
    if not p or not q:
        g = p or q
    else:
        nv = len(next(iter(p)))
        lows = [list(map(min, zip(*f))) for f in (p, q)]
        if any(map(any, lows)):
            p, q = ({tuple(a - b for a, b in zip(m, low)): c for m, c in f.items()}
                    for f, low in zip((p, q), lows))
            return p_mul({tuple(map(min, *lows)): 1}, p_gcd(p, q))
        degrees = list(zip(map(max, zip(*p)), map(max, zip(*q))))
        live = [i for i in range(nv) if any(degrees[i])]
        if not all(map(any, zip(*degrees))):  # p or q is a constant
            return p_const(math.gcd(p_content(p), p_content(q)), nv)
        if len(live) <= HEU_GCD_MAX_VARIABLES:
            heu = _heu_gcd(p, q, live)
            if heu is not None:
                return _positive(heu[0])
        v = min(live, key=lambda i: min(degrees[i]))
        if not degrees[v][0]:
            p, q = q, p
        if not min(degrees[v]):  # v is not in q, so not in the gcd
            return p_gcd(_content_in(p, v), q)
        cp, cq = _content_in(p, v), _content_in(q, v)
        a, b = p_exquo(p, cp), p_exquo(q, cq)
        if _degree(a, v) < _degree(b, v):
            a, b = b, a
        g = h = p_const(1, nv)
        while True:
            delta = _degree(a, v) - _degree(b, v)
            r = _prem(a, b, v)
            if not r or not _degree(r, v):
                break
            a, b = b, p_exquo(r, p_mul(g, p_pow(h, delta, nv)))
            g = _by_degree(a, v)[_degree(a, v)]
            if delta:
                h = p_exquo(p_pow(g, delta, nv), p_pow(h, delta - 1, nv))
        last = p_const(1, nv) if r else p_exquo(b, _content_in(b, v))
        g = p_mul(p_gcd(cp, cq), last)
    return _positive(g)


def _positive(p: Poly) -> Poly:
    return p_neg(p) if p and p_leading(p)[1] < 0 else dict(p)


# GCDHEU takes inputs in up to this many variables: its evaluation integers
# grow with every variable, so with more the subresultant sequence is faster.
HEU_GCD_MAX_VARIABLES = 3
_HEU_GCD_TRIES = 6


def _heu_gcd(p: Poly, q: Poly, live: Sequence[int]) -> tuple[Poly, Poly, Poly] | None:
    """(h, p/h, q/h) for h a gcd of p and q, nonzero polynomials in the
    variables `live` only; None when the heuristic fails.

    GCDHEU (Char, Geddes & Gonnet, JSC 1989): the common integer content c
    is divided out, the first live variable is replaced by an integer xi at
    least 2 min(|p|, |q|) + 29 (|.| the largest coefficient), the gcd of the
    two images is taken the same way in the other variables, with its content
    kept, and a candidate is read off its xi-adic digits: the gcd itself made
    primitive, or p or q over an interpolated cofactor.  A candidate that
    divides both is their gcd (GCL, Algorithms for Computer Algebra, Thm 7.7)
    and is returned times c.  Otherwise xi grows, up to six times.
    """
    if not live:  # two integers
        ((zero, a),), ((_, b),) = p.items(), q.items()
        h = math.gcd(a, b)
        return {zero: h}, {zero: a // h}, {zero: b // h}
    v, rest = live[0], live[1:]
    c = math.gcd(p_content(p), p_content(q))
    p, q = ({m: k // c for m, k in f.items()} for f in (p, q))
    xi = 2 * min(max(map(abs, f.values())) for f in (p, q)) + 29
    for _ in range(_HEU_GCD_TRIES):
        images = [_eval_at(f, v, xi) for f in (p, q)]
        if all(images):
            # the image gcd keeps its content: it carries the digits of xi
            inner = _heu_gcd(*images, rest)
            if inner is None:
                return None
            for h in _heu_candidates(p, q, *(_interpolate(f, v, xi) for f in inner)):
                cp = _exquo(p, h)
                cq = None if cp is None else _exquo(q, h)
                if cq is not None:
                    return {m: k * c for m, k in h.items()}, cp, cq
        xi = xi * 73794 * math.isqrt(math.isqrt(xi)) // 27011
    return None


def _heu_candidates(p: Poly, q: Poly, h: Poly, cp: Poly, cq: Poly):
    """GCDHEU's gcd candidates from the interpolated gcd and cofactors."""
    yield p_primitive(h)
    for f, cofactor in ((p, cp), (q, cq)):
        if cofactor:
            h = _exquo(f, cofactor)
            if h:
                yield h


def _eval_at(p: Poly, v: int, xi: int) -> Poly:
    """p with variable v replaced by the integer xi."""
    powers = [1]
    for _ in range(max(m[v] for m in p)):
        powers.append(powers[-1] * xi)
    out: Poly = {}
    for m, c in p.items():
        k = m[:v] + (0,) + m[v + 1:]
        out[k] = out.get(k, 0) + c * powers[m[v]]
    return {m: c for m, c in out.items() if c}


def _interpolate(p: Poly, v: int, xi: int) -> Poly:
    """The polynomial in variable v whose coefficients are the symmetric
    xi-adic digits of those of p (p free of v)."""
    out: Poly = {}
    half = xi // 2
    for m, c in p.items():
        e = 0
        while c:
            d = c % xi
            if d > half:
                d -= xi
            if d:
                out[m[:v] + (e,) + m[v + 1:]] = d
            c = (c - d) // xi
            e += 1
    return out


def _degree(p: Poly, v: int) -> int:
    return max(m[v] for m in p)


def _by_degree(p: Poly, v: int) -> dict:
    """p as {degree in variable v: coefficient, a polynomial free of v}."""
    out: dict = {}
    for m, c in p.items():
        out.setdefault(m[v], {})[m[:v] + (0,) + m[v + 1:]] = c
    return out


def _content_in(p: Poly, v: int) -> Poly:
    """The gcd of the coefficients of p as a polynomial in variable v,
    taken shortest first, which keeps the intermediate gcds small."""
    return functools.reduce(p_gcd, sorted(_by_degree(p, v).values(), key=len), {})


def _prem(a: Poly, b: Poly, v: int) -> Poly:
    """The pseudo-remainder lc(b)^(k + 1) a mod b in variable v, where
    lc(b) is the leading coefficient of b and k = deg a - deg b."""
    coeffs = _by_degree(b, v)
    db = max(coeffs)
    k = _degree(a, v) - db + 1
    while a and _degree(a, v) >= db:
        da = _degree(a, v)
        lead = {m[:v] + (da - db,) + m[v + 1:]: c for m, c in a.items() if m[v] == da}
        a = p_add(p_mul(a, coeffs[db]), p_neg(p_mul(lead, b)))
        k -= 1
    return p_mul(a, p_pow(coeffs[db], k, len(next(iter(b)))))


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
            body = _int_str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([_int_str(mag)] + factors)
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append((" - " if c < 0 else " + ") + body)
    return "".join(parts)


# --------------------------------------------------------------------------
# canonical rational form


class CanonicalRational:
    """A rational function as the reduced pair of integer polynomials.

    Normalization: numerator and denominator are coprime (their polynomial
    gcd, integer content included, is divided out) and the leading
    (graded-lex greatest) denominator coefficient is positive.  That pair is
    unique, so equality compares the pairs.  The zero function is ({}, 1).
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

    # -- predicates ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.num

    def __eq__(self, other) -> bool:
        if not isinstance(other, CanonicalRational):
            return NotImplemented
        self._chk(other)
        return self.num == other.num and self.den == other.den

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
    num, den = _reduce_pair(num, den, nv)  # the shared integer content
    if not num:
        return CanonicalRational(vars, num, den)
    # cancel the common monomial factor; the numerator is scanned only in
    # the variables that divide the denominator
    mins = list(map(min, zip(*den)))
    for i in range(nv):
        if mins[i]:
            mins[i] = min(mins[i], min(m[i] for m in num))
    if any(mins):
        shift = tuple(mins)
        num = {tuple(map(operator.sub, m, shift)): c for m, c in num.items()}
        den = {tuple(map(operator.sub, m, shift)): c for m, c in den.items()}
    # over a monomial denominator the two steps above leave a coprime pair
    if len(den) > 1:
        g = p_gcd(num, den)
        if g != p_const(1, nv):
            num, den = p_exquo(num, g), p_exquo(den, g)
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
    kind = type(e)
    if kind is Constant:
        return p_const(e.value.numerator, nv), p_const(e.value.denominator, nv)
    if kind is Symbol:
        m = [0] * nv
        m[index[e.name]] = 1
        return {tuple(m): 1}, one
    if kind is Add:
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
    if kind is Mul:
        num, den = one, one
        for a in e.args:
            n2, d2 = _to_pair(a, index, nv)
            num = p_mul(num, n2)
            den = p_mul(den, d2)
            num, den = _reduce_pair(num, den, nv)
        return num, den
    if kind is Pow:
        n, d = _to_pair(e.base, index, nv)
        if e.exp < 0:
            if not n:
                raise ZeroDenominatorError(e.base)
            n, d = d, n
            return p_pow(n, -e.exp, nv), p_pow(d, -e.exp, nv)
        return p_pow(n, e.exp, nv), p_pow(d, e.exp, nv)
    if kind is Div:
        n1, d1 = _to_pair(e.num, index, nv)
        n2, d2 = _to_pair(e.den, index, nv)
        if not n2:
            raise ZeroDenominatorError(e.den)
        return _reduce_pair(p_mul(n1, d2), p_mul(d1, n2), nv)
    raise TypeError(kind)  # pragma: no cover


def _reduce_pair(num: Poly, den: Poly, nv: int) -> tuple[Poly, Poly]:
    """In-flight reduction inside `canonicalize`: the shared integer content
    only, which keeps the integers small; `_canon_pair` cancels the
    polynomial gcd once, at the end."""
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
    """Exact equality of rational functions: their reduced canonical pairs agree."""
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
