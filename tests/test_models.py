"""Built-in model catalog and the model file format."""

from fractions import Fraction

import pytest

from kccstab.expr import semantic_equal
from kccstab.kcc import ModelError
from kccstab.models import (
    BUILTIN_NAMES,
    TRACTOR_SEAT_CASES,
    TRACTOR_SEAT_LINEAR_SOURCE,
    TRACTOR_SEAT_REFERENCE_PARAMS,
    builtin,
    dumps,
    load,
    loads,
    parse_rational,
)


# ---------------------------------------------------------------------------
# builtin catalog


def test_builtin_names():
    assert BUILTIN_NAMES == ("wound_strings", "airfoil", "tractor_seat")
    with pytest.raises(ModelError):
        builtin("nope")


def test_builtin_signatures():
    ws = builtin("wound_strings")
    assert ws.xs == ("x1", "x2") and ws.ys == ("y1", "y2")
    assert ws.params == ("a", "C", "m") and ws.defaults == {}
    af = builtin("airfoil")
    assert af.params == ("Minf", "V")
    tr = builtin("tractor_seat")
    assert tr.n == 3
    assert tr.params == (
        "M1", "M2", "M3", "K1", "K2", "K3", "C1", "C2", "C3",
    )


def test_tractor_case_table():
    assert len(TRACTOR_SEAT_CASES) == 9
    for case in TRACTOR_SEAT_CASES:
        assert case["M1"] == Fraction(31, 5)
        assert case["K2"] == 37730 and case["C2"] == 159
        assert case["K3"] == 1000 and case["C3"] == 1000
    assert TRACTOR_SEAT_CASES[0]["K1"] == 22600
    assert TRACTOR_SEAT_CASES[4]["C1"] == 750
    assert TRACTOR_SEAT_CASES[6]["M2"] == 36 and TRACTOR_SEAT_CASES[6]["M3"] == 14
    assert TRACTOR_SEAT_CASES[8]["M2"] == 57 and TRACTOR_SEAT_CASES[8]["M3"] == 23


def test_tractor_reference_params_is_last_case():
    assert TRACTOR_SEAT_REFERENCE_PARAMS == TRACTOR_SEAT_CASES[8]


def test_tractor_defaults_are_first_case():
    tr = builtin("tractor_seat")
    assert tr.binding({}) == TRACTOR_SEAT_CASES[0]


# ---------------------------------------------------------------------------
# rational literals


def test_parse_rational_forms():
    assert parse_rational("3") == 3
    assert parse_rational("-83/4") == Fraction(-83, 4)
    assert parse_rational("0.25") == Fraction(1, 4)
    assert parse_rational("1e-4") == Fraction(1, 10000)
    with pytest.raises((ValueError, ModelError)):
        parse_rational("x")


# ---------------------------------------------------------------------------
# model file format


def test_round_trip_builtins():
    for name in BUILTIN_NAMES:
        m = builtin(name)
        again = loads(dumps(m), source=name)
        assert again.name == m.name
        assert again.xs == m.xs and again.params == m.params
        assert again.defaults == m.defaults
        for a, b in zip(again.G, m.G):
            assert semantic_equal(a, b)


def test_load_from_path(tmp_path):
    p = tmp_path / "m.kcc"
    p.write_text("model demo\nvars x1\nG1 = x1^2\n")
    m = load(p)
    assert m.name == "demo" and m.n == 1


def test_comments_and_blank_lines():
    text = """
# a comment
model demo     # trailing comment
vars x1 x2

G1 = x1   # another
G2 = x2
"""
    m = loads(text)
    assert m.name == "demo" and m.n == 2


def test_params_with_defaults():
    m = loads("model d\nvars x1\nparams k=1/2 c\nG1 = k*x1 + c\n")
    assert m.params == ("k", "c")
    assert m.defaults == {"k": Fraction(1, 2)}


def test_linear_accel_mode_matches_builtin_tractor():
    tr = builtin("tractor_seat")
    lin = loads(TRACTOR_SEAT_LINEAR_SOURCE, source="linear")
    assert lin.xs == tr.xs and lin.params == tr.params
    for a, b in zip(lin.G, tr.G):
        assert semantic_equal(a, b)


def test_linear_accel_unspecified_entries_default_zero():
    text = (
        "model d\nmode linear-accel\nvars x1 x2\n"
        "M[1][1] = 2\nM[2][2] = 1\nf[1] = x1\n"
    )
    m = loads(text)
    assert semantic_equal(m.G[0], loads("model q\nvars x1\nG1 = x1/4\n").G[0])
    assert semantic_equal(m.G[1], loads("model q\nvars x1\nG1 = 0\n").G[0])


# error cases ---------------------------------------------------------------


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("vars x1\nG1 = x1\n", "missing 'model'"),
        ("model d\nG1 = x1\n", "missing 'vars'"),
        ("model d\nmodel e\nvars x1\nG1 = x1\n", "duplicate 'model'"),
        ("model d\nvars x1\nG1 = x1\nG1 = x1\n", "duplicate G1"),
        ("model d\nvars x1\nmode walk\nG1 = x1\n", "mode must be"),
        ("model d\nvars x1\nG1 = x1\nf[1] = x1\n", "only valid in linear-accel"),
        ("model d\nmode linear-accel\nvars x1\nG1 = x1\n", "only valid in kcc"),
        ("model d\nvars x1 x2\nG1 = x1\n", "missing G2"),
        ("model d\nvars x1\nG1 = x1\nG2 = x1\n", "out of range"),
        ("model d\nvars x1\nG1 = \n", "missing expression"),
        ("model d\nvars x1\nwhate x\nG1 = x1\n", "unrecognized directive"),
        ("model d\nvars x1\nG1 = q\n", "undeclared symbol"),
        ("model d\nvars x1\nparams k k\nG1 = k*x1\n", "duplicate parameter"),
    ],
)
def test_load_errors(text, fragment):
    with pytest.raises(ModelError, match=fragment):
        loads(text, source="bad")


def test_parse_error_carries_position():
    with pytest.raises(ModelError, match=r"line 2: invalid variable name"):
        loads("model d\nvars x1 $\nG1 = x1\n", source="bad")
    with pytest.raises(ModelError, match=r"bad:3:"):
        loads("model d\nvars x1\nG1 = x1 +\n", source="bad")


def test_mode_mismatch_wins_over_ranges():
    # the G line wins over the out-of-range f[2] listed before it
    text = "model d\nmode linear-accel\nvars x1\nM[1][1] = 1\nf[2] = x1\nG1 = x1\n"
    with pytest.raises(ModelError, match=r"^bad: G<i> lines are only valid in kcc mode$"):
        loads(text, source="bad")


def test_mass_ranges_are_checked_before_force_ranges():
    text = "model d\nmode linear-accel\nvars x1\nf[2] = x1\nM[1][3] = 1\n"
    with pytest.raises(ModelError, match=r"^bad: M\[1\]\[3\] out of range for 1 variables$"):
        loads(text, source="bad")
