"""Tests of the benchmark itself: live oracles, exact tracing, BENCHMARK.json.

    python3 -m pytest -q perfbench

Each oracle is shown a corrupted output and must flag it.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction

import env

env.prepare()

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from kccstab import expr, models, stability  # noqa: E402
from kccstab.expr import p_eval  # noqa: E402
from kccstab.numerics import BUNCHING, DISPERSING  # noqa: E402

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Stopwatch, Tracer  # noqa: E402


def test_flipped_stable_count_is_flagged():
    model = models.builtin("airfoil")
    for minf, v, box_half, label, expected in workloads.sample_sweep_points(3, per_region=1):
        region, k = workloads.sweep_point(model, minf, v, box_half)
        assert region.label == label
        assert oracles.stable_count_error(label, expected, k) is None
        flipped = 3 - k  # 1 <-> 2
        assert oracles.stable_count_error(label, expected, flipped) is not None


def test_changed_csv_byte_is_flagged(tmp_path):
    name, params, center, _ = workloads.SIMULATIONS[0]
    digests = []
    for run_dir in ("a", "b"):
        argv = workloads.simulate_argv(name, params, center, (0.0, 0.0), (1.0, 0.0), tmp_path / run_dir)
        argv[argv.index("--t-end") + 1] = "0.5"
        rc, _ = workloads.run_cli(argv)
        assert rc == 0
        digests.append(oracles.file_digests(tmp_path / run_dir, workloads.SIM_FILES))
    assert oracles.digest_error(digests[0], digests[1]) is None
    path = tmp_path / "b" / "deviation.csv"
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))
    changed = oracles.file_digests(tmp_path / "b", workloads.SIM_FILES)
    assert oracles.digest_error(digests[0], changed) is not None


def test_sign_flipped_inequality_is_flagged():
    params = workloads.chain_params(random.Random(0))
    chain = models.loads(workloads.chain_model_text(1))
    system = stability.assemble_semialgebraic(chain, params)
    pairs = stability.classify_all(chain, params, seeds=workloads.CHAIN_SEEDS)
    assert any(rep.verdict == stability.STABLE for _, rep in pairs)
    for fp, rep in pairs:
        assert oracles.conditions_error(system, fp.point, rep.verdict) is None
    system.inequalities[0] = expr.p_neg(system.inequalities[0])
    flagged = [oracles.conditions_error(system, fp.point, rep.verdict) for fp, rep in pairs]
    assert any(flagged)


def test_free_parameter_conditions_oracle_on_airfoil():
    model = models.builtin("airfoil")
    system = stability.assemble_semialgebraic(model)
    params = workloads.AIRFOIL_PARAMS_1
    values = [params[p] for p in system.vars[model.n:]]
    pairs = stability.classify_all(model, params, box=(-4, 4), seeds=9)
    assert len(pairs) == 3
    for fp, rep in pairs:
        assert oracles.conditions_error(system, fp.point, rep.verdict, values) is None


def test_propagator_disagreement_is_flagged():
    model = models.builtin("wound_strings")
    params = workloads.WS_PARAMS
    W = 1e-2 * np.array([0.6, 0.8])
    rk, ex, po = workloads.propagator_triangle(model, params, (2.0, 1.0), W)
    assert oracles.triangle_error((rk, ex, po), model.n) is None
    ex.states[len(ex.states) // 2, 0] += 1e-3
    assert oracles.triangle_error((rk, ex, po), model.n) is not None


def test_focusing_verdict_mismatch_is_flagged():
    assert oracles.focusing_error(stability.STABLE, BUNCHING) is None
    assert oracles.focusing_error(stability.UNSTABLE, DISPERSING) is None
    assert oracles.focusing_error(stability.STABLE, DISPERSING) is not None
    assert oracles.focusing_error(stability.INDETERMINATE, BUNCHING) is not None


def test_exact_sign_matches_p_eval_on_fractions():
    rng = random.Random(7)
    for _ in range(200):
        poly = {}
        for _ in range(rng.randint(1, 6)):
            mono = tuple(rng.randint(0, 5) for _ in range(3))
            poly[mono] = rng.randint(-50, 50) or 1
        values = [Fraction(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(2)]
        values.append(rng.uniform(-3, 3))
        want = p_eval(poly, [Fraction(v) for v in values])
        assert oracles.exact_sign(poly, values) == (want > 0) - (want < 0)


def test_self_times_partition_the_traced_total():
    chain = models.loads(workloads.chain_model_text(2))
    params = workloads.chain_params(random.Random(1))
    with Tracer() as tracer:
        stability.classify_all(chain, params, seeds=3)
        stability.assemble_semialgebraic(models.builtin("airfoil"))
    summary = tracer.summary()
    assert summary["spans"] > 0
    assert summary["min_self_ns"] >= 0
    assert summary["self_sum_ns"] == summary["span_total_ns"]
    assert run.trace_error(summary) is None
    # one function bound in two namespaces is one layer
    assert summary["calls"]["expr.canonicalize"] > 0
    assert not any(name.startswith("stability.canonicalize") for name in summary["calls"])
    # recursion runs inside the outermost span
    assert summary["calls"]["expr.differentiate"] < 100
    assert tracer.counts["stability.find_fixed_points.seeds"] == 9
    assert summary["calls"]["expr.compiled"] > 0
    assert tracer.counts["stability.conditions.monomials_max.airfoil"] == 40


def test_tracer_and_stopwatch_restore_the_library():
    before = (stability.canonicalize, expr.canonicalize, models.builtin, stability.Classifier.__init__)
    with Tracer():
        assert stability.canonicalize is not before[0]
        assert stability.canonicalize is expr.canonicalize
    with Stopwatch(stability.find_fixed_points, size=len) as watch:
        stability.classify_all(models.loads(workloads.chain_model_text(1)),
                               workloads.chain_params(random.Random(2)), seeds=3)
    assert len(watch.samples) == 1
    after = (stability.canonicalize, expr.canonicalize, models.builtin, stability.Classifier.__init__)
    assert after == before


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_metrics()


def test_fails_without_library_sources(tmp_path):
    shutil.copy(env.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(env.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "trajectory", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("n", [1, 2, 3])
def test_chain_model_has_all_equilibria(n):
    chain = models.loads(workloads.chain_model_text(n))
    params = workloads.chain_params(random.Random(n))
    assert params["q"] != params["k"]
    assert len(stability.find_fixed_points(chain, params, seeds=workloads.CHAIN_SEEDS)) == 3 ** n
