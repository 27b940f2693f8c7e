"""Spans around the public functions of twistatom, recorded from outside.

install() wraps every public module-level function of the traced modules
and rebinds the wrapper wherever the original is bound in the package, so
names pulled in with ``from .x import y`` are traced too.  Spans (name,
start, end, parent span, job id) stay in flat arrays in memory and are saved
once, when the run ends; summarize() derives calls, busy and self time from
them.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

MODULES = ("specfun", "hydrogenic", "photon", "matrixel", "cmstate",
           "scenarios", "cli")


# Work counts taken from the bound arguments at the layer boundary.
POINTS = {
    "specfun.bessel_j": lambda a: int(np.size(a["x"])),
    "photon.bessel_mode_grid": lambda a: int(np.size(a["x"])),
    "cmstate.evaluate_cm_grid": lambda a: int(a["resolution"]) ** 2,
}
# Layers whose distinct argument tuples are counted (cache working set).
DISTINCT = {"matrixel.collinear_matrix_element"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.job_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.job = -1
        self.points = Counter()
        self.keys = defaultdict(set)

    def _open(self, index: int) -> int:
        sid = len(self.start)
        self.name_id.append(index)
        self.parent.append(self.stack[-1])
        self.job_id.append(self.job)
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(sid)
        return sid

    def _close(self, sid: int, t0: float, t1: float):
        self.start[sid] = t0
        self.end[sid] = t1
        self.stack.pop()

    def wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        points = POINTS.get(name)
        signature = inspect.signature(fn) if points else None
        keys = self.keys[name] if name in DISTINCT else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if points is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.points[name] += points(bound.arguments)
            if keys is not None:
                keys.add((args, tuple(sorted(kwargs.items()))))
            sid = self._open(index)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid, t0, perf_counter())
        return traced

    @contextmanager
    def job_span(self, job_id: int):
        """Root span of one job; spans opened inside it carry its id."""
        if "bench.job" not in self.names:
            self.names.append("bench.job")
        self.job = job_id
        sid = self._open(self.names.index("bench.job"))
        t0 = perf_counter()
        try:
            yield
        finally:
            self._close(sid, t0, perf_counter())

    def install(self, package: str = "twistatom"):
        """Wrap the public functions of MODULES at every binding site."""
        modules = {short: importlib.import_module(f"{package}.{short}") for short in MODULES}
        bound = [m for key, m in sys.modules.items()
                 if key == package or key.startswith(package + ".")]
        for short, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                traced = self.wrap(f"{short}.{attr}", fn)
                for m in bound:
                    for site, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, site, traced)

    def save(self, path):
        counters = {"points": dict(self.points),
                    "distinct_keys": {k: len(v) for k, v in self.keys.items()}}
        np.savez(path, names=np.array(self.names), counters=np.array(json.dumps(counters)),
                 name_id=np.frombuffer(self.name_id, np.int32),
                 parent=np.frombuffer(self.parent, np.int32),
                 job_id=np.frombuffer(self.job_id, np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end))


def summarize(path) -> dict:
    """Per-name calls, busy (inclusive) and self seconds, plus counters."""
    data = np.load(path)
    names = list(data["names"])
    name_id, parent = data["name_id"], data["parent"]
    duration = data["end"] - data["start"]
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent],
                          minlength=len(duration))
    self_time = duration - covered
    n = len(names)
    out = {"calls": np.bincount(name_id, minlength=n),
           "busy": np.bincount(name_id, weights=duration, minlength=n),
           "self": np.bincount(name_id, weights=self_time, minlength=n)}
    stats = {name: {k: v[i].item() for k, v in out.items()} for i, name in enumerate(names)}
    for field, values in json.loads(str(data["counters"])).items():
        for key, value in values.items():
            stats[key][field] = value
    return stats
