"""Which paths load numpy: the symbolic layer never executes it.

Each check runs in a fresh interpreter, since the test process has long
imported numpy.  numpy counts as loaded once one of its submodules is in
sys.modules; `lazy_numpy` registers the bare `numpy` without running it.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import kccstab
from kccstab import builtin, count_stable

from shared_data import chain_model_text

SRC = Path(kccstab.__file__).resolve().parents[1]

LOADED = "sorted(m for m in sys.modules if m.startswith('numpy.'))"
AIRFOIL_PARAMS = {"Minf": Fraction(2017, 256), "V": Fraction(83, 4)}


def fresh(script: str, *args: str) -> str:
    """stdout of `script` run with kccstab's source tree on the path."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_symbolic_library_calls_never_load_numpy():
    script = f"""
import json, sys
from fractions import Fraction
import kccstab as K
models = [K.builtin(name) for name in K.BUILTIN_NAMES] + [K.loads({chain_model_text(2)!r})]
for m in models:
    K.invariants(m)
    K.kcc_deviation(m).equations()
K.assemble_semialgebraic(K.builtin("airfoil"))
K.airfoil_region_conditions(Fraction(2017, 256), Fraction(83, 4))
symbolic = {LOADED}
k = K.count_stable(K.builtin("airfoil"), {AIRFOIL_PARAMS!r}, box=(-1, 1), seeds=5)
print(json.dumps([symbolic, {LOADED} != [], k]))
"""
    symbolic, numeric, k = json.loads(fresh(script))
    assert symbolic == []
    assert numeric  # the first numeric call loads numpy
    assert k == count_stable(builtin("airfoil"), AIRFOIL_PARAMS, box=(-1, 1), seeds=5) == 2


def test_numpy_imported_first_is_used_as_it_is():
    script = """
import json, sys
import numpy
before = {k: v for k, v in sys.modules.items() if k.split('.')[0] == 'numpy'}
import kccstab
from kccstab import cli, kcc, numerics, stability
after = {k: v for k, v in sys.modules.items() if k.split('.')[0] == 'numpy'}
print(json.dumps([stability.np is numpy and all(m.np is numpy for m in (cli, kcc, numerics)),
                  sorted(before) == sorted(after) and all(after[k] is v for k, v in before.items())]))
"""
    assert json.loads(fresh(script)) == [True, True]


def test_numpy_imported_after_kccstab_is_the_same_module():
    script = f"""
import json, sys
import kccstab
from kccstab import stability
unloaded = {LOADED} == []
import numpy
print(json.dumps([unloaded, numpy is stability.np, isinstance(numpy.zeros(2), numpy.ndarray)]))
"""
    assert json.loads(fresh(script)) == [True, True, True]


def test_blocked_numpy_fails_at_import():
    script = """
import sys
sys.modules['numpy'] = None
try:
    import kccstab
except ModuleNotFoundError as e:
    print('refused:', e)
"""
    assert fresh(script) == "refused: import of numpy halted; None in sys.modules\n"
