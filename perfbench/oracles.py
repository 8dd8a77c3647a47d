"""Independent checks of the outputs the benchmark times.

Each check returns None when the output is right and a one-line reason when
it is not; the benchmark counts the reasons into `failed`.  None of them
reads the timing code, and each is exercised on a corrupted output in
`test_perfbench.py` to show that it can fail.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from pathlib import Path

import numpy as np

from kccstab.numerics import BUNCHING, DISPERSING
from kccstab.stability import STABLE, UNSTABLE

# Criterion 6c: the three deviation propagators agree pairwise to this bound.
TRIANGLE_TOL = 1e-4


def stable_count_error(label: str, expected: int, computed: int) -> str | None:
    """A sweep point's stable count must equal its exact region label's count."""
    if computed != expected:
        return f"region {label} predicts {expected} stable fixed points, found {computed}"
    return None


def file_digests(directory, names) -> dict:
    """sha256 of each named file in `directory`."""
    return {
        name: hashlib.sha256((Path(directory) / name).read_bytes()).hexdigest()
        for name in names
    }


def digest_error(reference: dict, observed: dict) -> str | None:
    """Every output file must be byte-identical to the reference run's."""
    changed = sorted(k for k in reference if observed.get(k) != reference[k])
    if changed:
        return f"output bytes differ from the reference run: {', '.join(changed)}"
    return None


def triangle_error(traces, n: int, tol: float = TRIANGLE_TOL) -> str | None:
    """RK4 deviation, matrix exponential and perturbation oracle agree pairwise."""
    worst = 0.0
    for i in range(len(traces)):
        for j in range(i + 1, len(traces)):
            a, b = traces[i].states[:, :n], traces[j].states[:, :n]
            worst = max(worst, float(np.max(np.abs(a - b))))
    if not worst <= tol:
        return f"deviation propagators differ by {worst:.3g} > {tol:g}"
    return None


def focusing_error(classification: str, focusing: str) -> str | None:
    """Bunching at Jacobi-stable fixed points, dispersing at unstable ones."""
    expected = {STABLE: BUNCHING, UNSTABLE: DISPERSING}.get(classification)
    if expected is None or focusing != expected:
        return f"classified {classification} but the focusing verdict is {focusing}"
    return None


def exact_sign(poly: dict, values) -> int:
    """Sign of an integer polynomial at rational (or float) values, exactly.

    Same value as `p_eval` on Fractions, computed over integers: with
    v_i = a_i / b_i and D_i the largest exponent of variable i, the sum of
    c * prod a_i^k_i * b_i^(D_i - k_i) equals p(v) * prod b_i^D_i, which
    has p(v)'s sign because every b_i > 0.
    """
    ratios = [Fraction(v).as_integer_ratio() for v in values]
    nvars = len(ratios)
    degs = [max((m[i] for m in poly), default=0) for i in range(nvars)]
    num_pows, den_pows = [], []
    for (a, b), d in zip(ratios, degs):
        pa, pb = [1], [1]
        for _ in range(d):
            pa.append(pa[-1] * a)
            pb.append(pb[-1] * b)
        num_pows.append(pa)
        den_pows.append(pb)
    total = 0
    for mono, c in poly.items():
        term = c
        for i, k in enumerate(mono):
            if degs[i]:
                term *= num_pows[i][k] * den_pows[i][degs[i] - k]
        total += term
    return (total > 0) - (total < 0)


def conditions_error(system, point, verdict: str, param_values=()) -> str | None:
    """'Every inequality > 0' at a fixed point must match the numeric verdict.

    `system` comes from `assemble_semialgebraic`; its variables are the
    positions followed by any free parameters, whose values are given in
    `param_values`.  An Indeterminate verdict is a failure: the benchmark's
    inputs are chosen away from stability boundaries.
    """
    values = [Fraction(c) for c in point] + [Fraction(v) for v in param_values]
    holds = all(exact_sign(p, values) > 0 for p in system.inequalities)
    if verdict not in (STABLE, UNSTABLE) or holds != (verdict == STABLE):
        coords = ", ".join(f"{c:.6g}" for c in point)
        return f"at ({coords}) the verdict is {verdict} but 'all inequalities > 0' is {holds}"
    return None
