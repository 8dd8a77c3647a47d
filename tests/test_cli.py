"""Command-line interface: subcommands, formats, exit codes."""

import contextlib
import csv
import hashlib
import io
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import kccstab
from kccstab import cli, numerics, stability
from kccstab.cli import main
from kccstab.expr import ExprError, evaluate, parse
from kccstab.kcc import ModelError
from kccstab.models import loads

from shared_data import chain_model_text

WS = ["--model", "wound_strings", "--params", "a=1/2,C=1,m=-1"]
AIRFOIL_1 = ["--model", "airfoil", "--params", "Minf=2017/256,V=83/4"]
AIRFOIL_2 = ["--model", "airfoil", "--params", "Minf=71/16384,V=3/16"]


def run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


# ---------------------------------------------------------------------------
# classification


def test_classify_wound_strings_box(capsys):
    rc, out, _ = run(capsys, ["classify", *WS, "--box", "-4:4"])
    assert rc == 0
    assert "4 fixed point(s) found" in out
    assert out.count("Stable") == 4 and "Unstable" not in out
    assert "stable count: k = 4" in out
    for pt in ("(-2, -1)", "(-2, 1)", "(2, -1)", "(2, 1)"):
        assert f"x = {pt}" in out


def test_classify_airfoil_box_with_region(capsys):
    rc, out, _ = run(capsys, ["classify", *AIRFOIL_1, "--box", "-1:1"])
    assert rc == 0
    assert "3 fixed point(s) found" in out
    assert out.count("  Stable") == 2 and out.count("  Unstable") == 1
    assert "stable count: k = 2" in out
    assert "parameter region: C5, predicted stable count 2" in out


def test_classify_tractor_defaults(capsys):
    rc, out, _ = run(
        capsys,
        ["classify", "--model", "tractor_seat", "--box", "-10:10", "--seeds", "5"],
    )
    assert rc == 0
    assert "stable count: k = 0" in out
    assert "Unstable" in out


def test_classify_single_point(capsys):
    rc, out, _ = run(capsys, ["classify", *WS, "--point", "2,1"])
    assert rc == 0
    assert "x = (2, 1)   Stable" in out
    assert "stable count: k = 1" in out


def test_classify_indeterminate_exit(capsys, tmp_path):
    free = tmp_path / "free.kcc"
    free.write_text("model free\nvars x1\nG1 = 0\n")
    rc, out, _ = run(capsys, ["classify", "--model", str(free), "--point", "1"])
    assert rc == 3
    assert "Indeterminate" in out


def test_tol_is_a_classify_option_only(capsys):
    # a decision band wider than every normalized minor leaves no verdict
    rc, out, _ = run(capsys, ["classify", *WS, "--box", "-4:4", "--tol", "1"])
    assert rc == 3
    assert out.count("Indeterminate") == 4 and "Stable" not in out
    # no other subcommand decides anything with it
    rc, out, err = run(capsys, ["fixed-points", *WS, "--box", "-4:4", "--tol", "1"])
    assert rc == 1 and out == "" and "--tol" in err


# ---------------------------------------------------------------------------
# symbolic reports


def test_invariants_json_curvature_values(capsys):
    rc, out, _ = run(capsys, ["invariants", "--model", "wound_strings", "--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["model"] == "wound_strings" and doc["n"] == 2
    env = {"x1": 2.0, "x2": 1.0, "y1": 0.0, "y2": 0.0,
           "a": 0.5, "C": 1.0, "m": -1.0}
    # at an equilibrium: epsilon vanishes and P = -(1/4) I
    for src in doc["epsilon"]:
        assert abs(evaluate(parse(src), env)) < 1e-12
    for i in range(2):
        for j in range(2):
            want = -0.25 if i == j else 0.0
            assert abs(evaluate(parse(doc["P"][i][j]), env) - want) < 1e-12


def test_invariants_all_includes_third_order(capsys):
    rc, out, _ = run(
        capsys, ["invariants", "--model", "tractor_seat", "--all", "--format", "json"]
    )
    assert rc == 0
    doc = json.loads(out)
    for key in ("epsilon", "N", "P", "berwald", "torsion", "riemann", "douglas"):
        assert key in doc
    assert len(doc["torsion"]) == 3 and len(doc["torsion"][0][0]) == 3
    # linear system with constant coefficients: torsion vanishes
    flat = [
        doc["torsion"][i][j][k]
        for i in range(3) for j in range(3) for k in range(3)
    ]
    assert all(entry == "0" for entry in flat)


def test_deviation_reports_velocity_free_coefficients(capsys, tmp_path):
    mf = tmp_path / "grav.kcc"
    mf.write_text("model grav\nvars x1\nG1 = x1/4\n")
    rc, out, _ = run(capsys, ["deviation", "--model", str(mf)])
    assert rc == 0
    assert "xi1'' =" in out
    assert "A21[1][1] = -1/2" in out
    assert "A22[1][1] = 0" in out


def test_deviation_at_point(capsys):
    rc, out, _ = run(capsys, ["deviation", *WS, "--point", "2,1"])
    assert rc == 0
    assert "A21[1][1]" in out and "-0.25" in out


def test_conditions_fully_bound(capsys):
    rc, out, _ = run(capsys, ["conditions", *WS])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "variables: x1, x2"
    assert "EQ:  4*x1^4*x2^2 - x1^4 - 8*x1^2*x2^2 - 16*x2^4 = 0" in lines
    tags = [ln.split(":", 1)[0] for ln in lines[1:] if ":" in ln]
    assert tags.count("EQ") == 2
    assert tags.count("NEQ") == 3  # the divisors a^2 x1^2 + m^2 x2^2, x1^4 x2^2, x1^2 x2^4
    assert tags.count("GT") == 3


def test_points_where_g_is_undefined_are_not_listed(capsys, tmp_path):
    # at p = 0, G1 reduces to x1/(x1 + 1), but G1 as written is undefined at
    # its root x1 = 0: no fixed point is listed, and classify does not abort
    mf = tmp_path / "degen.kcc"
    mf.write_text("model degen\nparams p\nvars x1\nG1 = (x1^2 + p)/(x1*(x1 + 1)) + y1\n")
    for command in ("fixed-points", "classify"):
        rc, out, err = run(capsys, [command, "--model", str(mf), "--params", "p=0"])
        assert (rc, err) == (0, "")
        assert "0 fixed point(s) found" in out


def test_divisor_vanishing_at_rest_is_a_model_error(capsys, tmp_path):
    # at q = 2 the divisor x1*(y1 + q - 2) is 0 for every x once y = 0: a
    # model error; at q = 3 it is x1 at y = 0, whose root is not listed
    mf = tmp_path / "rest_divisor.kcc"
    mf.write_text("model rest_divisor\nparams p q\nvars x1\nG1 = x1 - y1*p/(x1*(y1 + q - 2))\n")
    for command in ("fixed-points", "classify"):
        argv = [command, "--model", str(mf), "--box", "-1:1", "--params"]
        rc, out, err = run(capsys, argv + ["p=1,q=2"])
        assert (rc, out) == (2, "")
        assert err == ("kccstab: model error: denominator is zero in subexpression: "
                       "x1*(-2 + y1 + q) (after substitution)\n")
        rc, out, err = run(capsys, argv + ["p=1,q=3"])
        assert (rc, err) == (0, "")
        assert "0 fixed point(s) found" in out


CHAIN_PARAMS = "k=13/16,q=1/16,b=1/4,c=1/8"
# (model, --params, stdout length, stdout sha256)
CONDITIONS_DIGESTS = [
    ("wound_strings", None, 3454,
     "5870aee5d39c689889f8c0aae580c77bac9a6ee1ef1904da2056822420dbd30a"),
    ("airfoil", None, 2534,
     "ed3d634d8284ebf6718dec1b00fd64cf62b4c9b8954ef2749c89c14b3ae21d0d"),
    ("tractor_seat", None, 93911,
     "a70a35afeaef30e36e2247ed9911a19870e2910c3fb152b63c2f788594fed34b"),
    ("wound_strings", "a=1/2,C=1,m=-1", 1338,
     "81097e723da2d3b4f03ba14aa5f0580ea8d467d718b8a844ceb29b4c50d0d67b"),
    ("airfoil", "Minf=2017/256", 2665,
     "129fd154593aef1b448bc17c72f6b083dfadcfc546138eea3857c4d2615ce74f"),
    ("tractor_seat", "M1=31/5,M2=57,M3=23", 29264,
     "074f7230b95351f024cc14113b7410a72a182587350f139866da80d3c86dc6df"),
    ("chain1", CHAIN_PARAMS, 198,
     "1ff57b6666f6b3a1218dedc86359b6c731d19351d45777b38c44d674a5883e46"),
    ("chain2", CHAIN_PARAMS, 6717,
     "7af2bfcd9fa955dbcb120001ce7e6e8959d72fabfc7ea64ef85efb0f1fa3ebe3"),
]


@pytest.mark.parametrize("model,params,size,digest", CONDITIONS_DIGESTS,
                         ids=[f"{c[0]}-{'bound' if c[1] else 'free'}" for c in CONDITIONS_DIGESTS])
def test_conditions_text_is_byte_stable(capsys, tmp_path, model, params, size, digest):
    if model.startswith("chain"):
        path = tmp_path / f"{model}.kcc"
        path.write_text(chain_model_text(int(model[5:])))
        model = str(path)
    rc, out, err = run(capsys, ["conditions", "--model", model] + (["--params", params] if params else []))
    assert (rc, err) == (0, "")
    data = out.encode()
    assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)


# (argv, stdout length, stdout sha256) of the symbolic reports of the built-ins
REPORT_DIGESTS = [
    (["invariants", "--model", "wound_strings"], 3607,
     "767852ba19f7d32b5a23507b57e0c3197a2df61f73f78695a83c6fb011469b2c"),
    (["invariants", "--model", "wound_strings", "--format", "json"], 3692,
     "922a9ec597ff2bdd6648d803f279553b77e2be39ba420ef7ee33a47fee4c888e"),
    (["invariants", "--model", "wound_strings", "--all", "--format", "json"], 19152,
     "b33803e9041239e640beaa4a6a43f1f6a492da02a4b0e53c36279088ed5888d7"),
    (["deviation", *WS], 2724,
     "d420c6782575add51af39d2033c1683176e2565ef86080560bd604da8d0626f8"),
    (["deviation", *WS, "--format", "json"], 2844,
     "0d81d8b277a663004ec3de4345d664d8a4e3b45960380e49d8267d1a6f8dbd84"),
    (["deviation", *WS, "--point", "2,1"], 2803,
     "8f3321fc9210f7bc4eac7039f55642ab55e8c5136d4a47ec0fe84c8d6ffc3cc9"),
    (["invariants", "--model", "airfoil"], 1730,
     "6d8203830486222fa2027780d463bbfb3efef17de2aeed811d6c69dddc5ff44a"),
    (["invariants", "--model", "airfoil", "--format", "json"], 1815,
     "cc245c8784451f2f436d1dde9c05463bf2f6ebaa965bf30b6dfbc228ea0edbb7"),
    (["invariants", "--model", "airfoil", "--all", "--format", "json"], 3251,
     "756ea13fedfdd3196a854c0fb5d19ee17fb38d7c7718527469608bc62297a67a"),
    (["deviation", *AIRFOIL_1], 1034,
     "ec4d3420d6f862a75a3282eb35080bff12dba6b14112f3911a87846ece53356f"),
    (["deviation", *AIRFOIL_1, "--format", "json"], 1148,
     "61a385b783aa4ad35d574f16f841323d43a64cf2af9bc6a822ecb0d35b50974d"),
    (["deviation", *AIRFOIL_1, "--point", "0,0"], 1205,
     "c62aedce7cdc955d7c71855d1e02bfb73df04101291bad7ba259fd1aa5777d6c"),
    (["invariants", "--model", "tractor_seat"], 1282,
     "95b819958e2f962d0bbeebfb5ee0b30bace9bddd9502f8031315580e2bd7139d"),
    (["invariants", "--model", "tractor_seat", "--format", "json"], 1375,
     "81518e6978c69b8ec67b7ba31da54057e9fdf5ff945de402e6f44efd92654ef3"),
    (["invariants", "--model", "tractor_seat", "--all", "--format", "json"], 6383,
     "a8935123a8b589c086f703cf9d520ef189cefdf5a219220c1df61731150da083"),
    (["deviation", "--model", "tractor_seat"], 711,
     "43838e9d2707c1a7c10b9ca8aaf1b336a5bdc2042f55ce2a0f41a3bc2686baea"),
    (["deviation", "--model", "tractor_seat", "--format", "json"], 831,
     "f2d2c0fe439046a45de406e2405aa42b5855d693fb711b08ac3a7f4e5905901c"),
    (["deviation", "--model", "tractor_seat", "--point", "0,0,0"], 1096,
     "ed59596b536e1fedb138706a48ca754fcc43ae61473a2156b350839bb19604cb"),
]


@pytest.mark.parametrize("argv,size,digest", REPORT_DIGESTS,
                         ids=[" ".join(a for a in c[0] if a not in ("--model", "--params", "--format")
                                       and "=" not in a) for c in REPORT_DIGESTS])
def test_symbolic_reports_are_byte_stable(capsys, argv, size, digest):
    rc, out, err = run(capsys, argv)
    assert (rc, err) == (0, "")
    data = out.encode()
    assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)


def test_symbolic_subcommands_never_load_numpy():
    """In a fresh interpreter, `invariants`, `deviation` without `--point`,
    `conditions` and `region` leave numpy unexecuted; `deviation --point`
    then loads it and prints the pinned bytes."""
    runs = [["invariants", "--model", "airfoil"], ["deviation", *AIRFOIL_1],
            ["conditions", *WS], ["region", *AIRFOIL_1], ["deviation", *AIRFOIL_1, "--point", "0,0"]]
    script = """
import contextlib, io, json, sys
from kccstab.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    results.append([rc, any(m.startswith('numpy.') for m in sys.modules), out.getvalue()])
print(json.dumps(results))
"""
    src = Path(kccstab.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(runs)], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=300)
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    assert [(rc, loaded) for rc, loaded, _ in results] == [(0, False)] * 4 + [(0, True)]
    pinned = {tuple(argv): (size, digest) for argv, size, digest in REPORT_DIGESTS}
    for argv, (_, _, out) in zip(runs, results):
        if tuple(argv) in pinned:
            data = out.encode()
            assert (len(data), hashlib.sha256(data).hexdigest()) == pinned[tuple(argv)]
    assert tuple(runs[-1]) in pinned


def test_conditions_budget_exhaustion_exit(capsys):
    rc, _, err = run(capsys, ["conditions", *WS, "--budget", "10"])
    assert rc == 2
    assert "budget" in err.lower()


def test_region_report(capsys):
    rc, out, _ = run(capsys, ["region", *AIRFOIL_1])
    assert rc == 0
    assert "region: C5" in out
    assert "predicted stable count: k = 2" in out
    for k in range(1, 7):
        assert f"R{k} = " in out

    rc, out, _ = run(capsys, ["region", *AIRFOIL_2])
    assert rc == 0
    assert "region: C2" in out
    assert "predicted stable count: k = 1" in out


def test_region_requires_airfoil(capsys):
    rc, _, err = run(capsys, ["region", *WS])
    assert rc == 2
    assert "airfoil" in err


def test_region_report_is_for_the_builtin_airfoil_only(capsys, tmp_path):
    # a model file that takes the built-in's name and parameters is not it
    path = tmp_path / "impostor.kcc"
    path.write_text("model airfoil\nparams Minf V\nvars x1 x2\nG1 = x1 + y1\nG2 = x2 + y2\n")
    argv = ["--model", str(path), AIRFOIL_1[2], AIRFOIL_1[3]]
    rc, out, err = run(capsys, ["classify", *argv, "--box", "-1:1"])
    assert (rc, err) == (0, "")
    assert "stable count: k = 1" in out and "parameter region" not in out
    rc, out, err = run(capsys, ["region", *argv])
    assert (rc, out) == (2, "")
    assert_one_line_error(err, "defined for the airfoil model only")


@pytest.mark.parametrize("command", [["region"], ["classify", "--point", "0,0"]])
@pytest.mark.parametrize("params, code, message", [
    ("Minf=1,Minf=2017/256,V=83/4", 1, "--params names 'Minf' twice"),
    ("=3,Minf=2017/256,V=83/4", 1, "bad --params entry '=3': empty name"),
    (" = 3,Minf=2017/256,V=83/4", 1, "empty name"),
    ("Minf=2017/256,V=83/4,Q=5", 2, "unknown parameter 'Q' for model 'airfoil'"),
], ids=["repeated", "empty", "blank", "unknown"])
def test_params_names_are_checked(capsys, command, params, code, message):
    rc, out, err = run(capsys, [*command, "--model", "airfoil", "--params", params])
    assert (rc, out) == (code, "")
    assert_one_line_error(err, message)


# ---------------------------------------------------------------------------
# numerical subcommands


def test_simulate_writes_csv_files(capsys, tmp_path):
    rc, out, _ = run(
        capsys,
        ["simulate", *WS, "--x0", "2,1", "--y0", "1e-5,2e-5", "--w", "1,0",
         "--t-end", "2", "--dt", "1e-2", "--out", str(tmp_path)],
    )
    assert rc == 0
    assert "focusing verdict: Bunching" in out
    for name in ("trajectory.csv", "deviation.csv", "focusing.csv"):
        assert (tmp_path / name).exists()
    rows = list(csv.reader((tmp_path / "trajectory.csv").open()))
    assert rows[0] == ["t", "x1", "x2", "y1", "y2"]
    assert len(rows) == 202
    prof = list(csv.reader((tmp_path / "focusing.csv").open()))
    assert prof[0] == ["t", "norm_sq", "t_sq"]
    times = [float(r[0]) for r in prof[1:]]
    assert all(0 < t <= 0.5 + 1e-12 for t in times)


def test_simulate_deterministic_bytes(capsys, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        rc, _, _ = run(
            capsys,
            ["simulate", *WS, "--x0", "2.1,0.9", "--w", "1,1",
             "--t-end", "1", "--dt", "1e-2", "--out", str(out)],
        )
        assert rc == 0
    for name in ("trajectory.csv", "deviation.csv", "focusing.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_simulate_rejects_nonpositive_steps(capsys):
    rc, _, err = run(capsys, ["simulate", *WS, "--x0", "2,1", "--dt", "0"])
    assert rc == 1 and "positive" in err
    rc, _, err = run(capsys, ["simulate", *WS, "--x0", "2,1", "--t-end", "-1"])
    assert rc == 1 and "positive" in err
    rc, _, err = run(capsys, ["simulate", *WS, "--x0", "2,1", "--dt", "nan"])
    assert rc == 1 and "positive" in err


def test_simulate_rejects_step_beyond_end(capsys, tmp_path):
    rc, out, err = run(
        capsys,
        ["simulate", *AIRFOIL_1, "--x0", "0.1,0.1", "--t-end", "0.0005",
         "--dt", "0.001", "--out", str(tmp_path)],
    )
    assert rc == 1 and "--dt" in err and out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["fixed-points", "classify"])
@pytest.mark.parametrize("seeds", ["0", "1", "-3"])
def test_seed_grid_below_two_is_usage_error(capsys, command, seeds):
    rc, out, err = run(capsys, [command, *AIRFOIL_1, "--seeds", seeds])
    assert rc == 1
    assert "--seeds" in err and out == ""


@pytest.mark.parametrize("command", ["fixed-points", "classify"])
def test_corner_only_seed_grid_is_usage_error(capsys, command):
    # two seeds per axis are the four corners of the box: the origin, a
    # fixed point inside it, would be missed without a word
    rc, out, err = run(capsys, [command, *AIRFOIL_1, "--seeds", "2", "--box", "-1:1"])
    assert rc == 1
    assert "--seeds" in err and "3" in err and out == ""


def test_three_seeds_per_axis_find_the_origin(capsys):
    rc, out, _ = run(capsys, ["fixed-points", *AIRFOIL_1, "--seeds", "3", "--box", "-1:1"])
    assert rc == 0
    assert "3 fixed point(s) found" in out
    for pt in ("(-0.154982634917, 0.120226537118)", "(0, 0)", "(0.154982634917, -0.120226537118)"):
        assert f"x = {pt}" in out


KEYWORD_MODEL = """model kw
params {p}=2
vars {x} x2
G1 = ({x}^2 - {p} + {x}*y2)/(1 + x2^2)
G2 = x2^3 - {p}*x2 + {x}*y1/4
"""


def test_python_keywords_as_model_names(capsys, tmp_path):
    # Symbol names reach generated code only as positional slots.
    results = []
    for x, p in (("lambda", "in"), ("u", "k")):
        path = tmp_path / f"{x}.kcc"
        path.write_text(KEYWORD_MODEL.format(x=x, p=p))
        common = ["--model", str(path), "--params", f"{p}=3", "--format", "json"]
        outs = []
        for argv in (["fixed-points", *common], ["classify", *common],
                     ["deviation", *common, "--point", "1.5,-0.5"]):
            rc, out, err = run(capsys, argv)
            assert rc == 0, err
            obj = json.loads(out)
            outs.append({k: v for k, v in obj.items() if k not in ("A21", "A22", "equations")})
        results.append(outs)
    assert results[0] == results[1]
    fixed, classified, _ = results[0]
    assert fixed["count"] == 6
    assert [r["verdict"] for r in classified["reports"]] == [
        "Unstable", "Unstable", "Unstable", "Stable", "Unstable", "Stable"
    ]


def test_simulate_singular_start_exit(capsys, tmp_path):
    # the wound-strings curvature divides by x1 and x2
    rc, _, err = run(capsys, ["simulate", *WS, "--x0", "0,0", "--t-end", "1"])
    assert rc == 2
    assert "aborted at t = 0" in err
    # an aborted run creates no output directory
    outdir = tmp_path / "new"
    rc, _, err = run(capsys, ["simulate", *WS, "--x0", "0,0", "--out", str(outdir)])
    assert rc == 2 and "aborted at t = 0" in err
    assert not outdir.exists()


def test_simulate_checks_w_before_integrating(capsys, tmp_path):
    outdir = tmp_path / "new"
    rc, out, err = run(capsys, ["simulate", *WS, "--x0", "2,1", "--w", "1",
                                "--t-end", "0.01", "--out", str(outdir)])
    assert rc == 1 and "--w must have 2 components" in err and out == ""
    assert not outdir.exists()


@pytest.mark.parametrize("argv", [
    ["simulate", *WS, "--x0", "2,1", "--t-end", "0.01"],
    ["focusing", *WS, "--point", "2,1"],
])
def test_zero_w_is_a_usage_error(capsys, tmp_path, argv):
    # the deviation starts at xi(0) = 0, so W = 0 leaves nothing to follow
    outpath = tmp_path / "new"
    rc, out, err = run(capsys, [*argv, "--w", "0,-0", "--out", str(outpath)])
    assert rc == 1 and out == ""
    assert err.startswith("kccstab: error: --w must be nonzero")
    assert not outpath.exists()


@pytest.mark.parametrize("argv, message", [
    (["deviation", *WS, "--point", "2"], "--point must have 2 components"),
    (["classify", *WS, "--point", "2,1,0"], "--point must have 2 components"),
    (["focusing", *WS, "--point", "2"], "--point must have 2 components"),
    (["focusing", *WS, "--point", "2,1", "--w", "1"], "--w must have 2 components"),
    (["deviation", "--model", "airfoil", "--params", "Minf=abc"], "bad --params value 'abc'"),
])
def test_bad_point_w_or_params_fail_before_any_derivation(capsys, monkeypatch, argv, message):
    # checked before any derivation: the derivations fail if reached
    def derive(*args, **kwargs):
        raise AssertionError("derivation reached")

    for name in ("kcc_deviation", "Classifier", "jacobi_focusing"):
        monkeypatch.setattr(cli, name, derive)
    rc, out, err = run(capsys, argv)
    assert rc == 1 and out == ""
    assert err.startswith(f"kccstab: error: {message}")


def test_airfoil_zero_speed_is_a_model_error(capsys):
    rc, _, err = run(capsys, ["fixed-points", "--model", "airfoil", "--params", "Minf=1,V=0"])
    assert rc == 2
    assert err == ("kccstab: model error: denominator is zero in subexpression: "
                   "2100*V^2*Minf (after substitution)\n")


def test_closed_stdout_ends_quietly():
    """A reader that stops early (`| head -c 10`) is no error: exit 0, no message."""
    src = Path(kccstab.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    # about 94 KB of text: more than a pipe buffers, so the write meets the closed pipe
    proc = subprocess.Popen(
        [sys.executable, "-m", "kccstab.cli", "conditions", "--model", "tractor_seat"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 0
    assert err == b""


def test_focusing_verdicts(capsys, tmp_path):
    rc, out, _ = run(capsys, ["focusing", *WS, "--point", "2,1"])
    assert rc == 0
    assert "focusing verdict: Bunching" in out
    assert "W = (1, 0)" in out
    assert "samples below t^2: 100, above: 0 (of 100)" in out

    prof = tmp_path / "prof.csv"
    rc, out, _ = run(
        capsys,
        ["focusing", "--model", "tractor_seat", "--point", "0,0,0",
         "--profile-out", str(prof)],
    )
    assert rc == 0
    assert "focusing verdict: Dispersing" in out
    rows = list(csv.reader(prof.open()))
    assert rows[0] == ["t", "norm_sq", "t_sq"] and len(rows) == 101


@pytest.mark.parametrize("argv", [
    ["simulate", *WS, "--x0", "2,1", "--t-end", "1e30"],
    ["simulate", *WS, "--x0", "2,1", "--t-end", "inf"],
    ["simulate", *WS, "--x0", "2,1", "--dt", "1e-300"],
    ["simulate", *WS, "--x0", "2,1", "--w", "1,0", "--t-probe", "nan"],
    ["simulate", *WS, "--x0", "inf,1"],
    ["focusing", *WS, "--point", "2,1", "--t-probe", "inf"],
    ["classify", *AIRFOIL_1, "--box", "-1:1", "--tol", "-1"],
    ["classify", *AIRFOIL_1, "--box", "-1:1", "--tol", "nan"],
    ["classify", *AIRFOIL_1, "--box", "-1:1", "--tol", "inf"],
    ["classify", *AIRFOIL_1, "--point", "nan,0"],
    ["fixed-points", *AIRFOIL_1, "--box=-inf:inf"],
    ["conditions", *WS, "--budget", "0"],
    ["conditions", *WS, "--budget", "-1"],
    ["fixed-points", *AIRFOIL_1, "--box", "-1:1,-1:1,-1:1"],
    ["classify", *AIRFOIL_1, "--box", "-1:1,1:-1"],
    ["classify", *AIRFOIL_1, "--point", "0,0", "--box", "2:2"],
], ids=lambda argv: " ".join([argv[0], *argv[-2:]]))
def test_non_finite_or_out_of_range_flags_are_usage_errors(capsys, tmp_path, argv):
    # each is checked before any work: nothing is allocated or written
    out = tmp_path / "out"
    rc, stdout, err = run(capsys, [*argv, "--out", str(out)])
    assert (rc, stdout) == (1, "")
    assert_one_line_error(err, "kccstab: error: ")
    assert not out.exists()


def test_focusing_rejects_tiny_sample_count(capsys):
    rc, _, err = run(capsys, ["focusing", *WS, "--point", "2,1", "--samples", "2"])
    assert rc == 1 and "samples" in err


# ---------------------------------------------------------------------------
# formats, output redirection, exit codes


def test_fixed_points_formats(capsys):
    rc, out, _ = run(capsys, ["fixed-points", *WS, "--box", "-4:4"])
    assert rc == 0 and "4 fixed point(s) found" in out

    rc, out, _ = run(capsys, ["fixed-points", *WS, "--box", "-4:4",
                              "--format", "json"])
    doc = json.loads(out)
    assert doc["count"] == 4
    pts = sorted(fp["point"] for fp in doc["fixed_points"])
    assert pts == [[-2, -1], [-2, 1], [2, -1], [2, 1]]
    assert all(fp["residual"] < 1e-12 for fp in doc["fixed_points"])

    rc, out, _ = run(capsys, ["fixed-points", *WS, "--box", "-4:4",
                              "--format", "csv"])
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == ["#", "x1", "x2", "residual", "denom_margin"]
    assert len(rows) == 5


def test_fixed_points_print_sorted(capsys):
    # the x1 of both positive roots prints as 1.875, whatever its last bit
    rc, out, _ = run(capsys, ["fixed-points", "--model", "wound_strings", "--params",
                              "a=1/4,C=5/4,m=3/4", "--box", "-4:4", "--seeds", "5"])
    assert rc == 0
    points = re.findall(r"x = (\(.*?\))", out)
    assert points == ["(-1.875, -0.625)", "(-1.875, 0.625)", "(1.875, -0.625)", "(1.875, 0.625)"]


def test_out_flag_redirects_text(capsys, tmp_path):
    target = tmp_path / "report.txt"
    rc, out, _ = run(capsys, ["classify", *WS, "--box", "-4:4",
                              "--out", str(target)])
    assert rc == 0
    assert out == ""
    assert "stable count: k = 4" in target.read_text()


@pytest.mark.parametrize(
    "argv, code",
    [
        (["classify", "--model", "wound_strings", "--params", "a=",
          "--point", "2,1"], 1),                      # malformed binding
        (["classify", "--model", "wound_strings", "--nope"], 1),  # unknown flag
        ([], 1),                                      # missing subcommand
        (["classify", "--model", "no_such_model", "--point", "1"], 2),
        (["classify", "--model", "wound_strings", "--params", "a=1/2",
          "--point", "2,1"], 2),                      # C, m left unbound
        (["invariants", "--model", "/nonexistent/file.kcc"], 2),
    ],
)
def test_exit_codes(capsys, argv, code):
    rc, _, _ = run(capsys, argv)
    assert rc == code


# an option or a value that its subcommand does not read, so its parser does not offer it
NOT_TAKEN = [
    ["invariants", "--model", "airfoil", "--params", "Minf=abc"],
    ["simulate", *WS, "--x0", "2,1", "--format", "text"],
    ["simulate", *WS, "--x0", "2,1", "--format", "csv"],
    ["simulate", *WS, "--x0", "2,1", "--format", "json"],
    ["invariants", "--model", "wound_strings", "--format", "csv"],
    ["deviation", *WS, "--format", "csv"],
    ["conditions", *WS, "--format", "csv"],
    ["region", *AIRFOIL_1, "--format", "csv"],
]


@pytest.mark.parametrize("argv", NOT_TAKEN, ids=lambda argv: " ".join([argv[0], *argv[-2:]]))
def test_options_a_subcommand_does_not_read_are_parser_errors(capsys, monkeypatch, tmp_path, argv):
    def load_model(spec):
        raise AssertionError(f"model {spec!r} loaded")

    monkeypatch.setattr(cli, "_load_model", load_model)
    out = tmp_path / "out"
    rc, stdout, err = run(capsys, [*argv, "--out", str(out)])
    assert (rc, stdout) == (1, "")
    # argparse's usage, then its one-line message
    message = err.splitlines()[-1]
    assert err.startswith("usage: kccstab")
    assert re.match(r"kccstab( \S+)?: error: ", message)
    assert argv[-2] in message and argv[-1] in message
    assert not out.exists()


def test_parser_defaults_are_the_library_constants():
    parser = cli.build_parser()

    def defaults(*argv):
        return vars(parser.parse_args([*argv, "--model", "wound_strings"]))

    for command in ("fixed-points", "classify"):
        assert defaults(command)["seeds"] == stability.DEFAULT_SEEDS_PER_AXIS
    assert defaults("classify")["tol"] == stability.DEFAULT_TOL
    assert defaults("conditions")["budget"] == stability.DEFAULT_MONOMIAL_BUDGET
    assert defaults("simulate", "--x0", "2,1")["t_probe"] == numerics.DEFAULT_PROBE_WINDOW
    focusing = defaults("focusing", "--point", "2,1")
    assert focusing["t_probe"] == numerics.DEFAULT_PROBE_WINDOW
    assert focusing["samples"] == numerics.DEFAULT_PROBE_SAMPLES


def test_readme_cli_examples_run(capsys, monkeypatch, tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command-line interface", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("kccstab ")]
    assert len(commands) == 9
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        rc, _, err = run(capsys, argv[1:])
        assert (rc, err) == (0, ""), argv


TRACTOR_DEFAULTS = ",".join(f"{k}={v}" for k, v in kccstab.builtin("tractor_seat").defaults.items())
# the three built-in models as model files, with their example parameters;
# `conditions` runs with every parameter bound, so its conditions are in the
# positions alone, and under a budget that ends any edit's blow-up early
BUILTIN_FILES = [
    (kccstab.dumps(kccstab.builtin(name)), params, bound)
    for name, params, bound in [("wound_strings", WS[3], WS[3]), ("airfoil", AIRFOIL_1[3], AIRFOIL_1[3]),
                                ("tractor_seat", "", TRACTOR_DEFAULTS)]
]
FUZZ_COMMANDS = [["deviation"], ["fixed-points", "--seeds", "3"], ["classify"], ["region"]]


@st.composite
def edited_model_files(draw):
    """A built-in model file with one to three random character edits, half
    of them inside the G lines, its parameters, and its parameters with
    every one bound."""
    text, params, bound = draw(st.sampled_from(BUILTIN_FILES))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)) | st.integers(text.find("G1"), len(text)))
        kind = draw(st.sampled_from(["insert", "delete", "replace"]))
        char = "" if kind == "delete" else draw(st.sampled_from("0123456789xy^*/+-()=.#\n aCpG"))
        text = text[:i] + char + text[i + (kind != "insert"):]
    return text, params, bound


@given(case=edited_model_files())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_edited_model_files_keep_the_exit_code_contract(case):
    text, params, bound = case
    try:
        loads(text)
    except (ModelError, ExprError):
        pass
    # invariants takes no --params
    runs = [["invariants"]] + [[*command, "--params", params] for command in FUZZ_COMMANDS]
    runs.append(["conditions", "--params", bound, "--budget", "20000"])
    with tempfile.TemporaryDirectory() as tmp:
        model_file, out = Path(tmp) / "edited.kcc", Path(tmp) / "out.txt"
        model_file.write_text(text)
        for command in runs:
            argv = [*command, "--model", str(model_file), "--out", str(out)]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = main(argv)
            assert rc in (0, 1, 2, 3), (argv, rc)
            assert "Traceback" not in err.getvalue()
            assert rc != 1 or not out.exists()
            out.unlink(missing_ok=True)


def test_out_of_memory_is_a_model_error(capsys, tmp_path):
    # 1e18 steps are within sys.maxsize, but their buffer's byte count is
    # not, so the array is refused before anything is allocated
    out = tmp_path / "out"
    rc, stdout, err = run(capsys, ["simulate", *WS, "--x0", "2,1", "--t-end", "1e15",
                                   "--dt", "1e-3", "--out", str(out)])
    assert (rc, stdout) == (2, "")
    assert_one_line_error(err, "kccstab: model error: out of memory")
    assert not out.exists()


@pytest.mark.parametrize("rhs, error", [
    # '\u00b2' is the 11th character of its line
    ("x1 + \u00b2", r"3:11: unexpected character '\u00b2'"),
    ("x1 + (x1", r"3:14: unexpected end of input \(expected one of: '\)'\)"),
    ("x1 + 1.", r"3:11: malformed number \(expected one of: digit\)"),
    ("(" * 3000 + "x1" + ")" * 3000, r"3:\d+: expression nested too deeply"),
    # more digits than the interpreter's int-string limit
    ("x1 + " + "1" * 5000, r"3:11: number has too many digits"),
], ids=["non-ascii-digit", "end-of-input", "malformed-number", "nested", "long-number"])
def test_non_ascii_digit_in_model_file_reports_position(capsys, tmp_path, rhs, error):
    # one position, the file's: not also parse's own "at line 1, column C"
    bad = tmp_path / "u.kcc"
    bad.write_text(f"model u\nvars x1\nG1 = {rhs}\n")
    rc, _, err = run(capsys, ["invariants", "--model", str(bad)])
    assert rc == 2
    assert re.fullmatch(rf"kccstab: model error: .*u\.kcc:{error}\n", err)
    assert "at line" not in err


@pytest.mark.parametrize("text, position", [
    ("model u\nvars x1\nG" + "1" * 5000 + " = x1\n", "3:2"),
    ("model u\nmode linear-accel\nvars x1\nM[1][" + "1" * 5000 + "] = 1\nf[1] = x1\n", "4:6"),
], ids=["G", "M"])
def test_index_with_too_many_digits_reports_position(capsys, tmp_path, text, position):
    bad = tmp_path / "u.kcc"
    bad.write_text(text)
    rc, _, err = run(capsys, ["classify", "--model", str(bad)])
    assert rc == 2
    assert re.fullmatch(rf"kccstab: model error: .*u\.kcc:{position}: index has too many digits\n", err)


def test_constants_with_too_many_digits_are_model_errors(capsys, tmp_path):
    # 10^5000 folds to one constant of 5,001 digits, more than the
    # interpreter converts to a str: its size is given, from its bit length
    big = tmp_path / "big.kcc"
    big.write_text("model big\nvars x1\nG1 = x1 + 10^5000*y1^2\n")
    for argv, text in [
        (["classify"], "number of about 10^5000 is out of float range"),
        (["invariants"], "number of about 10^5000 has too many digits to print"),
        (["invariants", "--format", "json"], "number of about 10^5000 has too many digits to print"),
        (["conditions"], "has too many digits to print"),
    ]:
        rc, out, err = run(capsys, [*argv, "--model", str(big)])
        assert (rc, out) == (2, ""), argv
        assert_one_line_error(err, text)
        assert "set_int_max_str_digits" not in err


NON_ASCII_FLAG_CASES = [
    (["classify", *WS, "--seeds", "{}"], "@"),
    (["fixed-points", *WS, "--seeds", "{}"], "@"),
    (["classify", *WS, "--tol", "{}"], "@"),
    (["conditions", "--model", "tractor_seat", "--budget", "{}"], "@"),
    (["simulate", *WS, "--x0", "2,1", "--t-end", "{}"], "@"),
    (["simulate", *WS, "--x0", "2,1", "--dt", "{}"], "@"),
    (["simulate", *WS, "--x0", "2,1", "--t-probe", "{}"], "@"),
    (["focusing", *WS, "--point", "2,1", "--samples", "{}"], "@"),
    (["simulate", *WS, "--x0", "{},1"], "@"),
    (["classify", "--model", "wound_strings", "--params", "a={}/2,C=1,m=-1"], "@"),
    # a minus and a digit make a value, not a flag, for argparse
    (["classify", *WS, "--box", "-{}:4"], "4@"),
]


@pytest.mark.parametrize("argv, non_number", NON_ASCII_FLAG_CASES,
                         ids=[f"{argv[0]} {argv[-2]}" for argv, _ in NON_ASCII_FLAG_CASES])
def test_non_ascii_digits_in_flags_are_usage_errors(capsys, tmp_path, argv, non_number):
    # int, float and Fraction read '\u0663' (ARABIC-INDIC DIGIT THREE) as 3;
    # the flags refuse it as they refuse an ASCII non-number
    out = tmp_path / "out"
    seen = []
    for value in ("\u0663", non_number):
        rc, stdout, err = run(capsys, [a.replace("{}", value) for a in argv] + ["--out", str(out)])
        seen.append((rc, stdout, err.replace(value, "<v>")))
        assert not out.exists()
    assert seen[0] == seen[1] and seen[0][0] == 1


@pytest.mark.parametrize("text", [
    "model u\nvars x1\nG{} = x1\n",
    "model u\nparams k={}\nvars x1\nG1 = k*x1\n",
], ids=["index", "default"])
def test_non_ascii_digits_in_model_files_are_model_errors(capsys, tmp_path, text):
    seen = []
    for value in ("\u0661", "@"):  # ARABIC-INDIC DIGIT ONE, and a non-number
        path = tmp_path / "u.kcc"
        path.write_text(text.replace("{}", value), encoding="utf-8")
        rc, stdout, err = run(capsys, ["classify", "--model", str(path), "--point", "0"])
        seen.append((rc, stdout, err.replace(value, "<v>")))
    assert seen[0] == seen[1] and seen[0][0] == 2


def test_bad_model_file_reports_position(capsys, tmp_path):
    bad = tmp_path / "bad.kcc"
    bad.write_text("model broken\nvars x1\nG1 = x1 +\n")
    rc, _, err = run(capsys, ["invariants", "--model", str(bad)])
    assert rc == 2
    assert "bad.kcc:3:" in err


def test_linear_accel_model_beyond_four_positions(capsys, tmp_path):
    names = [f"x{i}" for i in range(1, 6)]
    lines = ["model big", "mode linear-accel", "vars " + " ".join(names)]
    lines += [f"M[{i}][{i}] = 1" for i in range(1, 6)]
    lines += [f"f[{i}] = {x}" for i, x in enumerate(names, 1)]
    path = tmp_path / "big.kcc"
    path.write_text("\n".join(lines) + "\n")
    rc, _, err = run(capsys, ["classify", "--model", str(path)])
    assert rc == 2
    assert_one_line_error(err, "limited to systems of size <= 4")


def assert_one_line_error(err: str, text: str):
    assert err.count("\n") == 1 and text in err and "Traceback" not in err


def test_params_beyond_float_range_are_usage_errors(capsys):
    for extra in ([], ["--point", "0,0"]):
        rc, _, err = run(capsys, ["classify", "--model", "airfoil", "--params",
                                  "Minf=2017/256,V=1e400", *extra])
        assert rc == 1
        assert_one_line_error(err, "float range")

    # V itself is a float, but the exact region values it gives are not
    for fmt in ("text", "json"):
        rc, _, err = run(capsys, ["region", "--model", "airfoil", "--params",
                                  "Minf=1,V=1e300", "--format", fmt])
        assert rc == 2
        assert_one_line_error(err, "out of float range")


def test_model_numbers_beyond_float_range_are_model_errors(capsys, tmp_path):
    big = tmp_path / "big.kcc"
    big.write_text("model big\nvars x1\nG1 = 10^400*x1\n")
    for argv in (["classify"], ["simulate", "--x0", "1", "--t-end", "0.01",
                                "--dt", "0.001", "--out", str(tmp_path / "sim")]):
        rc, _, err = run(capsys, [*argv, "--model", str(big)])
        assert rc == 2
        assert_one_line_error(err, "10^400 is out of float range")
    assert not (tmp_path / "sim" / "trajectory.csv").exists()

    default = tmp_path / "default.kcc"
    default.write_text("model d\nparams k=1e400\nvars x1\nG1 = k*x1\n")
    rc, _, err = run(capsys, ["classify", "--model", str(default), "--point", "0"])
    assert rc == 2
    assert_one_line_error(err, "out of float range")

    cube = tmp_path / "cube.kcc"
    cube.write_text("model c\nvars x1\nG1 = x1^3\n")
    rc, _, err = run(capsys, ["deviation", "--model", str(cube), "--point", "1e200"])
    assert rc == 2
    assert_one_line_error(err, "overflowed")


def test_deeply_nested_models_are_model_errors(capsys, tmp_path):
    parens = tmp_path / "parens.kcc"
    parens.write_text("model p\nvars x1\nG1 = " + "(" * 3000 + "x1" + ")" * 3000 + "\n")
    rc, _, err = run(capsys, ["invariants", "--model", str(parens)])
    assert rc == 2
    assert_one_line_error(err, "nested too deeply")

    # Horner forms parse; the generated source has one pair of parentheses
    # per level, so 150 levels compile and run, while 200 and 240 levels
    # nest too deeply for the Python compiler
    def horner(depth):
        form = "x1"
        for _ in range(depth):
            form = f"({form} + 1)*x1"
        path = tmp_path / f"horner{depth}.kcc"
        path.write_text(f"model h\nvars x1\nG1 = {form}/1000\n")
        return str(path)

    rc, out, err = run(capsys, ["classify", "--model", horner(150), "--seeds", "3"])
    assert rc == 0, err
    assert "x = (0)   Stable" in out
    rc, _, err = run(capsys, ["simulate", "--model", horner(150), "--x0", "0.1",
                              "--t-end", "0.01", "--dt", "0.001", "--out", str(tmp_path / "sim")])
    assert rc == 0, err
    assert (tmp_path / "sim" / "trajectory.csv").exists()
    for depth in (200, 240):
        rc, _, err = run(capsys, ["classify", "--model", horner(depth), "--seeds", "3"])
        assert rc == 2
        assert_one_line_error(err, "nested too deeply")


SUBCOMMANDS = ("invariants", "deviation", "fixed-points", "classify",
               "conditions", "simulate", "focusing", "region")


def assert_help_lists_subcommands(proc):
    assert proc.returncode == 0, proc.stderr
    for sub in SUBCOMMANDS:
        assert sub in proc.stdout


def test_console_script_installed():
    """The `kccstab` script declared in pyproject.toml runs `--help`.

    Runs the declared target through the same wrapper pip writes for a
    console script, against the `src` tree of the kccstab under test, so
    neither a missing install nor a stale one elsewhere on PATH decides it.
    """
    try:
        import tomllib
    except ImportError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["kccstab"]
    ep = EntryPoint(name="kccstab", value=target, group="console_scripts")
    assert callable(ep.load())

    wrapper = (f"import sys; from {ep.module} import {ep.attr}; "
               f"sys.argv[0] = 'kccstab'; sys.exit({ep.attr}())")
    src = Path(kccstab.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", wrapper, "--help"],
                          capture_output=True, text=True, env=env)
    assert_help_lists_subcommands(proc)


@pytest.mark.skipif(shutil.which("kccstab") is None,
                    reason="kccstab console script not installed")
def test_console_script_on_path():
    proc = subprocess.run([shutil.which("kccstab"), "--help"],
                          capture_output=True, text=True)
    assert_help_lists_subcommands(proc)
