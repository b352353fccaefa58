"""Span tracing of the nhzm layers, installed from outside the package.

``Tracer.install`` rebinds every public function of every ``nhzm.*``
module to a wrapper that records a span, in the defining module and in
every module that imported it with ``from ... import``.  It also wraps
``Hamiltonian`` construction and ``PerturbationSetup.from_spec``.  Spans
stay in memory as ``[id, parent, item, name, start, end]`` and are written
out by ``dump`` when the run ends.

A few wrappers also count, per item, what a layer did: the sum of N^3
over dense eigensolves, near-defective modes, zero modes built and
consumed, tracking splits (captured warnings) and failed calls.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import warnings
from collections import Counter, defaultdict
from contextlib import contextmanager

ITEM = "item"


class _UsedList(list):
    """A list that counts how many distinct entries its readers touched."""

    def __init__(self, items, tracer: "Tracer", key: str):
        super().__init__(items)
        self._tracer, self._key, self._seen = tracer, key, set()

    def _mark(self, indices) -> None:
        new = set(indices) - self._seen
        self._seen |= new
        self._tracer.count(self._key, len(new))

    def __getitem__(self, index):
        self._mark(range(len(self))[index] if isinstance(index, slice)
                   else [range(len(self))[index]])
        return super().__getitem__(index)

    def __iter__(self):
        self._mark(range(len(self)))
        return super().__iter__()


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(Counter)  # item -> name -> count
        self.item = None
        self._stack: list[int] = []

    def count(self, key: str, n: int = 1) -> None:
        self.counts[self.item][key] += n

    @contextmanager
    def span(self, name: str, item=None):
        if item is not None:
            self.item = item
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = [sid, parent, self.item, name, start, end]
            if item is not None:
                self.item = None

    def wrap(self, name: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                with tracer.span(name):
                    result = fn(*args, **kwargs)
            except Exception:
                tracer.count(name + ".failures")
                raise
            return after(result) if after is not None else result
        return traced

    def _after_eigendecompose(self, modes):
        self.count("spectral.eigendecompose.dense_n3_sum", modes.n_modes ** 3)
        self.count("spectral.eigendecompose.near_defective",
                   int(modes.near_defective.sum()))
        return modes

    def _after_find_zero_modes(self, zms):
        self.count("spectral.find_zero_modes.zero_modes", len(zms))
        return _UsedList(zms, self, "spectral.zero_modes_used")

    def _wrap_track_modes(self, fn):
        tracer = self
        traced = self.wrap("spectral.track_modes", fn)

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = traced(*args, **kwargs)
            for w in caught:
                if str(w.message).startswith("mode trajectory split"):
                    tracer.count("spectral.track_modes.splits")
                warnings.warn_explicit(w.message, w.category, w.filename,
                                       w.lineno)
            return result
        return counting

    def install(self) -> None:
        """Wrap the public functions of every loaded nhzm module."""
        import nhzm.cli  # noqa: F401  (loads every layer)
        from nhzm.lattice import Hamiltonian
        from nhzm.perturbation import PerturbationSetup

        modules = {name: mod for name, mod in sys.modules.items()
                   if name.startswith("nhzm.")}
        after = {"spectral.eigendecompose": self._after_eigendecompose,
                 "spectral.find_zero_modes": self._after_find_zero_modes}
        wrapped = {}
        for modname, mod in modules.items():
            layer = modname.split(".", 1)[1]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) \
                        or obj.__module__ != modname:
                    continue
                name = f"{layer}.{attr}"
                wrapped[id(obj)] = (self._wrap_track_modes(obj)
                                    if name == "spectral.track_modes"
                                    else self.wrap(name, obj, after.get(name)))
        for mod in [sys.modules["nhzm"], *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, attr, wrapped[id(obj)])

        Hamiltonian.__init__ = self.wrap("lattice.Hamiltonian",
                                         Hamiltonian.__init__)
        from_spec = PerturbationSetup.__dict__["from_spec"].__func__
        PerturbationSetup.from_spec = classmethod(self.wrap(
            "perturbation.PerturbationSetup.from_spec", from_spec))

    def dump(self, path, **extra) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans,
                       "counts": {str(k): v for k, v in self.counts.items()},
                       **extra}, fh)


def self_times(spans: list) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    own = {s[0]: s[5] - s[4] for s in spans}
    for s in spans:
        if s[1] in own:
            own[s[1]] -= s[5] - s[4]
    return own


def aggregate(spans: list) -> dict[str, dict]:
    """Per span name: calls, total (inclusive) and self seconds."""
    own = self_times(spans)
    stats: dict[str, dict] = {}
    for s in spans:
        st = stats.setdefault(s[3], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        st["calls"] += 1
        st["total_s"] += s[5] - s[4]
        st["self_s"] += own[s[0]]
    return stats


def item_balance(spans: list, tol: float = 1e-9) -> list[str]:
    """Problems with span nesting: per item, self times must be non-negative,
    children must lie inside their parents, and the self times of all spans
    must add up to the item's wall time."""
    problems = []
    own = self_times(spans)
    by_id = {s[0]: s for s in spans}
    totals: dict = {}
    roots = {}
    for s in spans:
        if s[3] == ITEM:
            roots[s[2]] = s
        totals[s[2]] = totals.get(s[2], 0.0) + own[s[0]]
        if own[s[0]] < -tol:
            problems.append(f"span {s[3]} has negative self time")
        parent = by_id.get(s[1])
        if parent is not None and not (parent[4] <= s[4] and s[5] <= parent[5]):
            problems.append(f"span {s[3]} lies outside its parent")
    for item, root in roots.items():
        wall = root[5] - root[4]
        if abs(totals[item] - wall) > tol + 1e-9 * wall:
            problems.append(f"item {item}: self times sum to {totals[item]:.9f} s, "
                            f"wall time is {wall:.9f} s")
    return problems
