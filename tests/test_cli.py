"""Command-line interface: subcommands, formats, exit codes."""

import csv
import json
import os
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

import kccstab
from kccstab.cli import main
from kccstab.expr import evaluate, parse

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


# ---------------------------------------------------------------------------
# symbolic reports


def test_invariants_json_curvature_values(capsys):
    rc, out, _ = run(capsys, ["invariants", *WS, "--format", "json"])
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
    assert tags.count("NEQ") == 2
    assert tags.count("GT") == 3


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


def test_simulate_singular_start_exit(capsys):
    # the wound-strings curvature divides by x1 and x2
    rc, _, err = run(capsys, ["simulate", *WS, "--x0", "0,0", "--t-end", "1"])
    assert rc == 2
    assert "aborted at t = 0" in err


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


def test_bad_model_file_reports_position(capsys, tmp_path):
    bad = tmp_path / "bad.kcc"
    bad.write_text("model broken\nvars x1\nG1 = x1 +\n")
    rc, _, err = run(capsys, ["invariants", "--model", str(bad)])
    assert rc == 2
    assert "bad.kcc:3:" in err


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
