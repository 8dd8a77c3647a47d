"""Built-in models and the line-oriented model file format.

Three systems ship with the library:

wound_strings   two coupled oscillation modes of a closed wound string,
                parameters (a, C, m); every denominator is position-dependent.
airfoil         pitch/plunge aeroelastic oscillator with the structural
                constants folded in; free parameters (Minf, V).
tractor_seat    3-DOF suspension-seat/operator chain, parameters
                (M1..M3, K1..K3, C1..C3) with laboratory defaults.

User models load from text files: `model <name>`, `mode kcc|linear-accel`,
`params p1[=rational] ...`, `vars x1 x2 ...`, then `G<i> = <expr>` lines in
kcc mode or `M[i][j] = <expr>` / `f[i] = <expr>` lines (semantics
M·x'' + f = 0) in linear-accel mode.  `#` starts a comment; velocity symbols
y1..yn are implied.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .expr import Expr, ParseError, parse
from .kcc import Model, ModelError, to_standard_form

# ---------------------------------------------------------------------------
# built-in model sources

_WS_G = (
    "x1/(2*a^2*x1^2 + 2*m^2*x2^2)*(a^2*(1 - y1^2) - y2^2"
    " - C^2*(a^2*x1^2 + m^2*x2^2)^2/(x1^4*x2^2))",
    "x2/(2*a^2*x1^2 + 2*m^2*x2^2)*(m^2*(a^2*(1 - y1^2) - y2^2)"
    " - a^2*C^2*(a^2*x1^2 + m^2*x2^2)^2/(x1^2*x2^4))",
)

_AIRFOIL_G = (
    "(6*V^2*Minf^2*x2^3 - 6000*Minf*x2^3 + 30*V^2*x2 + 30*V^2*y1 + 19*V^2*y2"
    " + 240*V*Minf*y1 - 60*V*Minf*y2 + 1200*Minf*x1 - 300*Minf*x2)/(2100*V^2*Minf)",
    "-(18*V^2*Minf^2*x2^3 - 60000*Minf*x2^3 + 90*V^2*x2 + 90*V^2*y1 + 85*V^2*y2"
    " + 300*V*Minf*y1 - 600*V*Minf*y2 + 1500*Minf*x1 - 3000*Minf*x2)/(5250*V^2*Minf)",
)

_TRACTOR_G = (
    "((K1 + K2)/M1*x1 - K2/M1*x2 + (C1 + C2)/M1*y1 - C2/M1*y2)/2",
    "(-(K2/M2)*x1 + (K2 + K3)/M2*x2 - K3/M2*x3 - C2/M2*y1 + (C2 + C3)/M2*y2 - C3/M2*y3)/2",
    "(K3/M3*x2 - K3/M3*x3 + C3/M3*y2 - C3/M3*y3)/2",
)

# Laboratory suspension-seat parameter sets (nine tested seat/cushion
# combinations).  The pelvis-thorax coupling values K3, C3 are not part of
# the published table; the library exposes them as parameters defaulting to
# the values used in the reference simulation run (1000 each).
TRACTOR_SEAT_CASES: tuple[dict, ...] = tuple(
    {
        "M1": Fraction(31, 5),
        "M2": m2,
        "M3": m3,
        "K1": Fraction(k1),
        "K2": Fraction(37730),
        "K3": Fraction(1000),
        "C1": Fraction(c1),
        "C2": Fraction(159),
        "C3": Fraction(1000),
    }
    for (m2, m3, k1, c1) in [
        (Fraction(325, 7), Fraction(130, 7), 22600, 920),
        (Fraction(325, 7), Fraction(130, 7), 15000, 750),
        (Fraction(325, 7), Fraction(130, 7), 25000, 750),
        (Fraction(325, 7), Fraction(130, 7), 20000, 500),
        (Fraction(325, 7), Fraction(130, 7), 20000, 750),
        (Fraction(325, 7), Fraction(130, 7), 20000, 1000),
        (Fraction(36), Fraction(14), 20000, 750),
        (Fraction(46), Fraction(19), 20000, 750),
        (Fraction(57), Fraction(23), 20000, 750),
    ]
)

# Parameter tuple of the reference simulation run (case 9, with the K3/C3
# defaults); the headline Dispersing example uses these values.
TRACTOR_SEAT_REFERENCE_PARAMS: dict = dict(TRACTOR_SEAT_CASES[-1])

_TRACTOR_DEFAULTS = dict(TRACTOR_SEAT_CASES[0])

# The same seat model written in acceleration-linear form (M·x'' + f = 0);
# loading this text must produce G's semantically equal to the kcc-mode ones.
TRACTOR_SEAT_LINEAR_SOURCE = """\
# 3-DOF suspension seat chain, acceleration-linear form
model tractor_seat_linear
mode linear-accel
params M1=31/5 M2=325/7 M3=130/7 K1=22600 K2=37730 K3=1000 C1=920 C2=159 C3=1000
vars x1 x2 x3
M[1][1] = M1
M[2][2] = M2
M[3][3] = M3
f[1] = C1*y1 + K1*x1 - C2*(y2 - y1) - K2*(x2 - x1)
f[2] = C2*(y2 - y1) + K2*(x2 - x1) - C3*(y3 - y2) - K3*(x3 - x2)
f[3] = -C3*(y3 - y2) - K3*(x3 - x2)
"""


# name -> (positions, G sources, parameters, parameter defaults)
_BUILTINS = {
    "wound_strings": (("x1", "x2"), _WS_G, ("a", "C", "m"), {}),
    "airfoil": (("x1", "x2"), _AIRFOIL_G, ("Minf", "V"), {}),
    "tractor_seat": (
        ("x1", "x2", "x3"),
        _TRACTOR_G,
        ("M1", "M2", "M3", "K1", "K2", "K3", "C1", "C2", "C3"),
        _TRACTOR_DEFAULTS,
    ),
}
BUILTIN_NAMES = tuple(_BUILTINS)


def builtin(name: str) -> Model:
    """Construct a built-in model by name (fresh instance each call)."""
    if name not in BUILTIN_NAMES:
        raise ModelError(
            f"unknown built-in model '{name}' (available: {', '.join(BUILTIN_NAMES)})"
        )
    xs, sources, params, defaults = _BUILTINS[name]
    return Model(name, xs, [parse(s) for s in sources], params=params, defaults=defaults)


# ---------------------------------------------------------------------------
# model file parsing

_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_ASSIGN_RE = re.compile(
    r"^\s*(?:G(?P<gi>[0-9]+)|M\[(?P<mi>[0-9]+)\]\[(?P<mj>[0-9]+)\]|f\[(?P<fi>[0-9]+)\])\s*=\s*(?P<rhs>.*)$"
)


def ascii_number(text: str) -> str:
    """`text` if it is ASCII, else ValueError: int, float and Fraction also
    read the digits of other scripts, such as '٣'."""
    if not text.isascii():
        raise ValueError(f"non-ASCII number {text!r}")
    return text


def parse_rational(text: str) -> Fraction:
    """Exact rational from `3`, `-83/4`, `0.25`, `1e-4` style literals."""
    try:
        return Fraction(ascii_number(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ModelError(f"invalid rational literal {text!r}") from exc


def _err(lineno: int, msg: str) -> ModelError:
    return ModelError(f"line {lineno}: {msg}")


# mode -> (the assignment kinds it reads, the error for any other kind)
_MODES = {
    "kcc": (("G",), "M[i][j]/f[i] lines are only valid in linear-accel mode"),
    "linear-accel": (("M", "f"), "G<i> lines are only valid in kcc mode"),
}
_KEY = {"G": "G{}", "M": "M[{}][{}]", "f": "f[{}]"}


def loads(text: str, *, source: str = "<string>") -> Model:
    """Parse model file text into a Model."""
    name: str | None = None
    mode: str | None = None
    params: list[str] = []
    defaults: dict[str, Fraction] = {}
    xs: list[str] | None = None
    # canonical name (G1, M[1][2], f[3]) -> (kind, indices, expression)
    assigns: dict[str, tuple[str, tuple[int, ...], Expr]] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        m = _ASSIGN_RE.match(line)
        if m:
            rhs = m.group("rhs")
            if not rhs.strip():
                raise _err(lineno, "missing expression after '='")
            try:
                e = parse(rhs)
            except ParseError as exc:
                col = exc.col + m.start("rhs")
                raise ModelError(f"{source}:{lineno}:{col}: {exc.reason}") from exc
            names = [g for g in ("gi", "mi", "mj", "fi") if m.group(g)]
            kind, idx = {"gi": "G", "mi": "M", "fi": "f"}[names[0]], ()
            for g in names:
                try:
                    idx += (int(m.group(g)),)
                except ValueError:  # more digits than the interpreter converts to an int
                    raise ModelError(f"{source}:{lineno}:{m.start(g) + 1}: index has too many digits") from None
            key = _KEY[kind].format(*idx)
            if key in assigns:
                raise _err(lineno, f"duplicate {key}")
            assigns[key] = (kind, idx, e)
            continue
        tokens = line.split()
        head, rest = tokens[0], tokens[1:]
        if head == "model":
            if name is not None:
                raise _err(lineno, "duplicate 'model' line")
            if len(rest) != 1:
                raise _err(lineno, "'model' takes exactly one name")
            name = rest[0]
        elif head == "mode":
            if mode is not None:
                raise _err(lineno, "duplicate 'mode' line")
            if len(rest) != 1 or rest[0] not in _MODES:
                raise _err(lineno, "mode must be 'kcc' or 'linear-accel'")
            mode = rest[0]
        elif head == "params":
            for tok in rest:
                pname, _, val = tok.partition("=")
                if not _IDENT_RE.match(pname):
                    raise _err(lineno, f"invalid parameter name {pname!r}")
                if pname in params:
                    raise _err(lineno, f"duplicate parameter {pname!r}")
                params.append(pname)
                if val:
                    try:
                        defaults[pname] = parse_rational(val)
                    except ModelError as exc:
                        raise _err(lineno, str(exc)) from exc
        elif head == "vars":
            if xs is not None:
                raise _err(lineno, "duplicate 'vars' line")
            if not rest:
                raise _err(lineno, "'vars' needs at least one name")
            for v in rest:
                if not _IDENT_RE.match(v):
                    raise _err(lineno, f"invalid variable name {v!r}")
            xs = rest
        else:
            raise _err(lineno, f"unrecognized directive {head!r}")

    if name is None:
        raise ModelError(f"{source}: missing 'model' line")
    if xs is None:
        raise ModelError(f"{source}: missing 'vars' line")
    n = len(xs)
    kinds, wrong_kind = _MODES[mode or "kcc"]
    if any(kind not in kinds for kind, _, _ in assigns.values()):
        raise ModelError(f"{source}: {wrong_kind}")
    # each kind in file order, M before f
    for key, (kind, idx, _) in sorted(assigns.items(), key=lambda item: item[1][0]):
        if not all(1 <= i <= n for i in idx):
            raise ModelError(f"{source}: {key} out of range for {n} variables")
    exprs = {key: e for key, (_, _, e) in assigns.items()}
    rng = range(1, n + 1)
    try:
        if mode == "linear-accel":
            zero = parse("0")
            M = [[exprs.get(f"M[{i}][{j}]", zero) for j in rng] for i in rng]
            f = [exprs.get(f"f[{i}]", zero) for i in rng]
            return to_standard_form(M, f, name=name, xs=xs, params=params, defaults=defaults)
        missing = [i for i in rng if f"G{i}" not in exprs]
        if missing:
            raise ModelError(f"missing G{missing[0]}")
        return Model(name, xs, [exprs[f"G{i}"] for i in rng], params=params, defaults=defaults)
    except ModelError as exc:
        raise ModelError(f"{source}: {exc}") from exc


def load(path) -> Model:
    """Load a model file from disk."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return loads(text, source=str(path))


def dumps(model: Model) -> str:
    """Render a Model as model-file text (kcc mode); loads(dumps(m)) round-trips."""
    lines = [f"model {model.name}", "mode kcc"]
    if model.params:
        defaults = model.defaults
        lines.append("params " + " ".join(f"{p}={defaults[p]}" if p in defaults else p
                                          for p in model.params))
    lines.append("vars " + " ".join(model.xs))
    for i, g in enumerate(model.G, start=1):
        lines.append(f"G{i} = {g}")
    return "\n".join(lines) + "\n"
