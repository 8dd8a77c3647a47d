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

# Parameter tuple of the reference simulation run (equals case 9 plus the
# K3/C3 defaults); the headline Dispersing example uses these values.
TRACTOR_SEAT_REFERENCE_PARAMS: dict = {
    "M1": Fraction(31, 5),
    "M2": Fraction(57),
    "M3": Fraction(23),
    "K1": Fraction(20000),
    "K2": Fraction(37730),
    "K3": Fraction(1000),
    "C1": Fraction(750),
    "C2": Fraction(159),
    "C3": Fraction(1000),
}

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


def builtin(name: str) -> Model:
    """Construct a built-in model by name (fresh instance each call)."""
    if name == "wound_strings":
        return Model(
            "wound_strings",
            ("x1", "x2"),
            [parse(s) for s in _WS_G],
            params=("a", "C", "m"),
        )
    if name == "airfoil":
        return Model(
            "airfoil",
            ("x1", "x2"),
            [parse(s) for s in _AIRFOIL_G],
            params=("Minf", "V"),
        )
    if name == "tractor_seat":
        return Model(
            "tractor_seat",
            ("x1", "x2", "x3"),
            [parse(s) for s in _TRACTOR_G],
            params=("M1", "M2", "M3", "K1", "K2", "K3", "C1", "C2", "C3"),
            defaults=_TRACTOR_DEFAULTS,
        )
    raise ModelError(
        f"unknown built-in model '{name}' (available: {', '.join(BUILTIN_NAMES)})"
    )


BUILTIN_NAMES = ("wound_strings", "airfoil", "tractor_seat")


# ---------------------------------------------------------------------------
# model file parsing

_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_ASSIGN_RE = re.compile(
    r"^\s*(?:G(?P<gi>\d+)|M\[(?P<mi>\d+)\]\[(?P<mj>\d+)\]|f\[(?P<fi>\d+)\])\s*=\s*(?P<rhs>.*)$"
)


def parse_rational(text: str) -> Fraction:
    """Exact rational from `3`, `-83/4`, `0.25`, `1e-4` style literals."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ModelError(f"invalid rational literal {text!r}") from exc


def _err(lineno: int, msg: str) -> ModelError:
    return ModelError(f"line {lineno}: {msg}")


def loads(text: str, *, source: str = "<string>") -> Model:
    """Parse model file text into a Model."""
    name: str | None = None
    mode = "kcc"
    mode_set = False
    params: list[str] = []
    defaults: dict[str, Fraction] = {}
    xs: list[str] | None = None
    g_lines: dict[int, tuple[Expr, int]] = {}
    m_lines: dict[tuple[int, int], Expr] = {}
    f_lines: dict[int, Expr] = {}

    def parse_rhs(rhs: str, lineno: int, col0: int) -> Expr:
        try:
            return parse(rhs)
        except ParseError as exc:
            raise ModelError(
                f"{source}:{lineno}:{exc.col + col0}: {exc}"
            ) from exc

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        m = _ASSIGN_RE.match(line)
        if m:
            rhs = m.group("rhs")
            if not rhs.strip():
                raise _err(lineno, "missing expression after '='")
            col0 = line.index("=") + 1
            e = parse_rhs(rhs, lineno, col0)
            if m.group("gi"):
                i = int(m.group("gi"))
                if i in g_lines:
                    raise _err(lineno, f"duplicate G{i}")
                g_lines[i] = (e, lineno)
            elif m.group("fi"):
                i = int(m.group("fi"))
                if i in f_lines:
                    raise _err(lineno, f"duplicate f[{i}]")
                f_lines[i] = e
            else:
                i, j = int(m.group("mi")), int(m.group("mj"))
                if (i, j) in m_lines:
                    raise _err(lineno, f"duplicate M[{i}][{j}]")
                m_lines[(i, j)] = e
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
            if mode_set:
                raise _err(lineno, "duplicate 'mode' line")
            if len(rest) != 1 or rest[0] not in ("kcc", "linear-accel"):
                raise _err(lineno, "mode must be 'kcc' or 'linear-accel'")
            mode = rest[0]
            mode_set = True
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

    if mode == "kcc":
        if m_lines or f_lines:
            raise ModelError(
                f"{source}: M[i][j]/f[i] lines are only valid in linear-accel mode"
            )
        for i in g_lines:
            if not 1 <= i <= n:
                raise ModelError(f"{source}: G{i} out of range for {n} variables")
        missing = [i for i in range(1, n + 1) if i not in g_lines]
        if missing:
            raise ModelError(f"{source}: missing G{missing[0]}")
        G = [g_lines[i][0] for i in range(1, n + 1)]
        try:
            return Model(name, xs, G, params=params, defaults=defaults)
        except ModelError as exc:
            raise ModelError(f"{source}: {exc}") from exc

    # linear-accel
    if g_lines:
        raise ModelError(f"{source}: G<i> lines are only valid in kcc mode")
    for (i, j) in m_lines:
        if not (1 <= i <= n and 1 <= j <= n):
            raise ModelError(f"{source}: M[{i}][{j}] out of range for {n} variables")
    for i in f_lines:
        if not 1 <= i <= n:
            raise ModelError(f"{source}: f[{i}] out of range for {n} variables")
    zero = parse("0")
    M = [[m_lines.get((i, j), zero) for j in range(1, n + 1)] for i in range(1, n + 1)]
    f = [f_lines.get(i, zero) for i in range(1, n + 1)]
    try:
        return to_standard_form(
            M, f, name=name, xs=xs, params=params, defaults=defaults
        )
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
        toks = []
        for p in model.params:
            if p in model.defaults:
                toks.append(f"{p}={model.defaults[p]}")
            else:
                toks.append(p)
        lines.append("params " + " ".join(toks))
    lines.append("vars " + " ".join(model.xs))
    for i, g in enumerate(model.G, start=1):
        lines.append(f"G{i} = {g}")
    return "\n".join(lines) + "\n"
