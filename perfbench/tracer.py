"""Outside-in span tracer for the mcde layers.

The tracer wraps layer functions from outside the package: each wrapper
replaces every module-level name that is bound to the original function in
any loaded ``mcde`` module, so callers that did ``from .x import f`` go
through the wrapper too, and ``src/`` stays untouched.  Note that
``mcde.contrast`` the attribute is the function, which shadows the module of
the same name; modules are therefore taken from ``sys.modules``.

Spans (name, start, end, parent) are kept in flat in-memory arrays and
written out once, at the end, with :meth:`Tracer.save`.  Counters that the
wrappers read off arguments and results (rows a kernel touched, degenerate
test outcomes, iterations) are kept beside them.  Everything runs on one
thread, so spans nest strictly and a span's parent is the innermost span
open when it started.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from array import array

import numpy as np


class Tracer:
    """In-memory span recorder; ``clock`` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()

    def count(self, key: str, value: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` recorded as span ``name``; ``on_result(tracer, args, result)``
        runs after the span closes, so counting costs no traced time."""
        nid = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if on_result is not None:
                on_result(self, args, result)
            return result

        return traced

    def wrap_generator(self, name: str, fn):
        """A generator function whose every resumption is one span, so time
        spent by the consumer between items is not charged to ``name``."""
        nid = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                idx = self._open(nid)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                yield item

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names, dtype=str),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "counter_keys": np.array(list(self.counters), dtype=str),
            "counter_values": np.array(list(self.counters.values()), dtype=np.float64),
        }

    def save(self, path: str) -> None:
        with open(path, "wb") as fh:
            np.savez(fh, **self.arrays())


def load(path: str) -> dict[str, np.ndarray]:
    with np.load(path, allow_pickle=False) as data:
        return {key: data[key] for key in data.files}


# ---------------------------------------------------------------------------
# per-layer summary
# ---------------------------------------------------------------------------


def summarise(spans: dict[str, np.ndarray]) -> dict[str, float]:
    """Per-layer metrics of one traced operation.

    ``<span>.self_s`` is the summed duration of the span minus the time its
    direct children cover, ``<span>.calls`` the number of spans; derived
    ratios follow.  ``trace.covered_s`` is the time covered by root spans,
    which equals the sum of all self times.
    """
    names = [str(s) for s in spans["names"]]
    name_id = spans["name_id"].astype(np.int64)
    parent = spans["parent"].astype(np.int64)
    dur = spans["end"] - spans["start"]
    child = np.zeros_like(dur)
    nested = parent >= 0
    np.add.at(child, parent[nested], dur[nested])
    own = np.bincount(name_id, dur - child, minlength=len(names))
    total = np.bincount(name_id, dur, minlength=len(names))
    calls = np.bincount(name_id, minlength=len(names))
    counters = dict(zip((str(k) for k in spans["counter_keys"]), spans["counter_values"]))

    out: dict[str, float] = {"trace.covered_s": float(dur[~nested].sum())}
    for j, name in enumerate(names):
        out[f"{name}.self_s"] = float(own[j])
        out[f"{name}.calls"] = int(calls[j])
    for key, value in counters.items():
        out[key] = float(value)

    def inclusive(name: str) -> float:
        return float(total[names.index(name)]) if name in names else 0.0

    # time inside contrast spent on iterations, not on building the index
    if counters.get("contrast.iterations"):
        cid = names.index("contrast.contrast")
        bid = names.index("ranking.construct_index") if "ranking.construct_index" in names else -1
        build = nested & (name_id == bid) & (name_id[np.maximum(parent, 0)] == cid)
        iter_s = inclusive("contrast.contrast") - float(dur[build].sum())
        out["contrast.us_per_iteration"] = iter_s / counters["contrast.iterations"] * 1e6
    rows = counters.get("kernels.window_stats.rows", 0.0)
    if rows:
        out["kernels.window_stats.ns_per_row"] = out["kernels.window_stats.self_s"] / rows * 1e9
    tests = out.get("mwp.mwp_test.calls", 0)
    if tests:
        out.setdefault("mwp.degenerate_tied", 0.0)
        out.setdefault("mwp.degenerate_empty_full", 0.0)
        wasted = out["mwp.degenerate_tied"] + out["mwp.degenerate_empty_full"]
        out["mwp.useful_ratio"] = 1.0 - wasted / tests
    loaded = counters.get("dataset.load_csv.bytes", 0.0)
    if loaded:
        out["dataset.load_csv.mb_per_s"] = loaded / 1e6 / inclusive("dataset.load_csv")
    return out


# ---------------------------------------------------------------------------
# installation into mcde
# ---------------------------------------------------------------------------


def _window_rows(tracer: Tracer, args, result) -> None:
    member, order, group_ids, start, end = args
    rows = end - start
    tracer.count("kernels.window_stats.rows", rows)
    tracer.count(
        "kernels.window_stats.bytes_computed",
        rows * (member.itemsize + order.itemsize + group_ids.itemsize),
    )


def _masked_rows(tracer: Tracer, args, result) -> None:
    member, order, start, end = args
    tracer.count("kernels.mask_outside.rows", order.shape[0] - (end - start))


def _test_outcome(tracer: Tracer, args, outcome) -> None:
    # all-tied windows score 0 and empty/full slices score 1 (see mcde.mwp)
    if outcome.degenerate:
        tracer.count("mwp.degenerate_tied" if outcome.p_c == 0.0 else "mwp.degenerate_empty_full")


def _iterations(tracer: Tracer, args, estimate) -> None:
    tracer.count("contrast.iterations", estimate.m_iterations)


def _csv_bytes(tracer: Tracer, args, result) -> None:
    tracer.count("dataset.load_csv.bytes", os.path.getsize(args[0]))


# (module, attribute, span name, counter hook); one row per layer boundary
LAYERS = (
    ("cli", "run", "cli", None),
    ("dataset", "load_csv", "dataset.load_csv", _csv_bytes),
    ("ranking", "construct_index", "ranking.construct_index", None),
    ("ranking", "_build_dimension", "ranking.build_dimension", None),
    ("_kernels", "rank_scan", "kernels.rank_scan", None),
    ("_kernels", "mask_outside", "kernels.mask_outside", _masked_rows),
    ("_kernels", "window_stats", "kernels.window_stats", _window_rows),
    ("_rng", "iteration_rng", "rng.iteration_rng", None),
    ("slicing", "draw_slice", "slicing.draw_slice", None),
    ("mwp", "mwp_test", "mwp.mwp_test", _test_outcome),
    ("contrast", "contrast", "contrast.contrast", _iterations),
    ("generators", "generate", "generators.generate", None),
    ("generators", "discretise", "generators.discretise", None),
    ("benchmark", "power", "benchmark.power", None),
    ("benchmark", "score_sample", "benchmark.score_sample", None),
    ("stream", "monitor", "stream.monitor", None),
    ("stream", "window_seed", "stream.window_seed", None),
)


def install(tracer: Tracer) -> list[str]:
    """Route every loaded mcde binding of the layer functions, and the
    ``Dataset`` constructor, through ``tracer``; returns the span names of
    layers that were not found."""
    import mcde  # noqa: F401  (loads every submodule)

    modules = [m for name, m in sys.modules.items() if name == "mcde" or name.startswith("mcde.")]
    missing = []
    for mod, attr, span, hook in LAYERS:
        original = getattr(sys.modules.get(f"mcde.{mod}"), attr, None)
        if original is None:
            missing.append(span)
            continue
        if inspect.isgeneratorfunction(original):
            wrapped = tracer.wrap_generator(span, original)
        else:
            wrapped = tracer.wrap(span, original, hook)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)

    dataset_cls = getattr(sys.modules.get("mcde.dataset"), "Dataset", None)
    if dataset_cls is None:
        missing.append("dataset.Dataset")
    else:
        dataset_cls.__init__ = tracer.wrap("dataset.Dataset", dataset_cls.__init__)
    return missing
