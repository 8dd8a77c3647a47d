"""Span tracing of kccstab from outside the library.

`Tracer.install` replaces every public function of every `kccstab` module,
in every `kccstab` namespace that binds it (modules import names directly,
so `stability.canonicalize` and `expr.canonicalize` are one function bound
twice), by a wrapper that records a span: name, start, end and parent.
The constructors and public methods of the pipeline classes are wrapped
too, and so are the callables `compile_callable` returns (as
`expr.compiled`).  A call made while the same function is already on the
span stack (recursion) runs inside the outer span and is not recorded, so
`calls` counts outermost calls.

Spans live in flat arrays until `write`.  A span's self time is its
duration minus the durations of its child spans; in single-threaded code
the children are disjoint and nested, so self times sum exactly to the
duration of the root spans.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

PACKAGE = "kccstab"

# Classes whose construction and public methods are pipeline steps.  The
# expression-node and CanonicalRational classes are left alone: their
# methods are arithmetic operators, called per node.
PIPELINE_CLASSES = {
    "kcc": ("Model", "KccInvariants", "DeviationSystem"),
    "stability": ("Classifier",),
}


def package_modules() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def rebind_everywhere(original, replacement) -> list:
    """Bind `replacement` wherever a package module binds `original`.

    Returns the undo list of (namespace, attribute, original).
    """
    undo = []
    for mod in package_modules():
        for attr, obj in list(vars(mod).items()):
            if obj is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))
    return undo


def restore(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
    undo.clear()


class Stopwatch:
    """Times every call of one library function with tracing off.

    Installed in every namespace that binds the function; `samples` holds
    (seconds, size(result)) pairs.
    """

    def __init__(self, fn, size):
        self.fn = fn
        self.size = size
        self.samples: list = []
        self._undo: list = []

    def __enter__(self):
        fn, size, samples = self.fn, self.size, self.samples

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            samples.append((time.perf_counter() - t0, size(result)))
            return result

        self._undo = rebind_everywhere(fn, timed)
        return self

    def __exit__(self, *exc):
        restore(self._undo)
        return False


def _bound(fn):
    sig = inspect.signature(fn)

    def arguments(args, kwargs):
        ba = sig.bind(*args, **kwargs)
        ba.apply_defaults()
        return ba.arguments

    return arguments


def _fixed_point_counts(fn):
    arguments = _bound(fn)

    def hook(tracer, args, kwargs, result):
        a = arguments(args, kwargs)
        tracer.counts["stability.find_fixed_points.seeds"] += a["seeds"] ** a["model"].n
        tracer.counts["stability.find_fixed_points.found"] += len(result)
        return result

    return hook


def _integrate_counts(fn):
    def hook(tracer, args, kwargs, result):
        tracer.counts["numerics.integrate.steps"] += len(result) - 1
        return result

    return hook


def _csv_counts(fn):
    arguments = _bound(fn)

    def hook(tracer, args, kwargs, result):
        path = arguments(args, kwargs)["path"]
        tracer.counts["numerics.write_trace_csv.bytes"] += os.path.getsize(path)
        return result

    return hook


def _condition_sizes(fn):
    arguments = _bound(fn)

    def hook(tracer, args, kwargs, result):
        name = arguments(args, kwargs)["model"].name
        polys = result.equations + result.inequations + result.inequalities
        for stat, value in (
            ("monomials_max", max(len(p) for p in polys)),
            ("degree_max", max(sum(m) for p in polys for m in p)),
        ):
            key = f"stability.conditions.{stat}.{name}"
            tracer.counts[key] = max(tracer.counts[key], value)
        return result

    return hook


def _wrap_compiled(fn):
    def hook(tracer, args, kwargs, result):
        return tracer.wrap("expr.compiled", result)

    return hook


# Post-call hooks: counters measured where the work happens.  A hook runs
# after its span closes, so its cost lands in the caller's self time.
HOOKS = {
    "stability.find_fixed_points": _fixed_point_counts,
    "numerics.integrate": _integrate_counts,
    "numerics.write_trace_csv": _csv_counts,
    "stability.assemble_semialgebraic": _condition_sizes,
    "expr.compile_callable": _wrap_compiled,
}


class Tracer:
    """Records spans of wrapped library calls while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._active: list[int] = []
        self._stack: list[int] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counts: defaultdict = defaultdict(int)
        self._undo: list = []

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return nid

    def wrap(self, name: str, fn, hook=None):
        nid = self._id(name)
        active, stack = self._active, self._stack
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if active[nid]:
                return fn(*args, **kwargs)
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0)
            end.append(0)
            stack.append(idx)
            active[nid] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                active[nid] -= 1
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if hook is not None:
                result = hook(self, args, kwargs, result)
            return result

        return traced

    def _rebind(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = package_modules()
        targets = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    targets[id(obj)] = (obj, f"{short}.{attr}")
        wrappers = {}
        for key, (fn, name) in targets.items():
            make_hook = HOOKS.get(name)
            wrappers[key] = self.wrap(name, fn, make_hook(fn) if make_hook else None)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and obj is targets[id(obj)][0]:
                    self._rebind(mod, attr, wrappers[id(obj)])
        for short, classes in PIPELINE_CLASSES.items():
            mod = sys.modules[f"{PACKAGE}.{short}"]
            for cname in classes:
                cls = getattr(mod, cname)
                for attr, obj in list(vars(cls).items()):
                    if not inspect.isfunction(obj):
                        continue
                    if attr == "__init__":
                        name = f"{short}.{cname}"
                    elif attr.startswith("_"):
                        continue
                    else:
                        name = f"{short}.{cname}.{attr}"
                    self._rebind(cls, attr, self.wrap(name, obj))

    def uninstall(self) -> None:
        restore(self._undo)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # ------------------------------------------------------------------
    # analysis

    def arrays(self):
        return (
            np.frombuffer(self.name_id, dtype=np.int32),
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.int64),
            np.frombuffer(self.end, dtype=np.int64),
        )

    def summary(self) -> dict:
        """Per-name calls and self time, plus the span-total consistency figures.

        Returns {"calls": {name: n}, "self_s": {name: s}, "span_total_ns",
        "self_sum_ns", "min_self_ns", "spans"}.  Integer nanoseconds are used
        throughout so that the self-time sum equals the root-span total
        exactly when no interval is counted twice.
        """
        nid, parent, start, end = self.arrays()
        dur = end - start
        covered = np.zeros_like(dur)
        child = parent >= 0
        np.add.at(covered, parent[child], dur[child])
        self_ns = dur - covered
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        self_by_name = np.bincount(nid, weights=self_ns.astype(np.float64), minlength=k)
        return {
            "calls": {name: int(calls[i]) for i, name in enumerate(self.names)},
            "self_s": {name: float(self_by_name[i]) / 1e9 for i, name in enumerate(self.names)},
            "span_total_ns": int(dur[~child].sum()),
            "self_sum_ns": int(self_ns.sum()),
            "min_self_ns": int(self_ns.min()) if len(self_ns) else 0,
            "spans": int(len(dur)),
        }

    def write(self, path) -> None:
        """Write every span as a compressed npz: names plus four columns."""
        nid, parent, start, end = self.arrays()
        t0 = int(start.min()) if len(start) else 0
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=nid,
            parent=parent,
            start_ns=start - t0,
            end_ns=end - t0,
        )
