"""Span tracing for the benchmark's traced run.

The tracer replaces each traced package function at every module attribute
that names it. ``from .prf import prf_vector`` binds a second name in
``watermark``, so patching ``prf.prf_vector`` alone would miss the calls that
generation makes; the tracer therefore scans every loaded ``gumbelmark``
module for the function object and wraps each binding.

Each call records a span (name, start, end, parent) in flat arrays that stay
in memory until the run ends. Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# (layer module, function): every public function whose self time a per-layer
# metric reports, plus the three CLI commands of the pipeline workload.
TARGETS = (
    ("prf", "prf_vector"),
    ("prf", "prf_uniform"),
    ("tokensource", "toy_next_dist"),
    ("tokensource", "make_m1"),
    ("watermark", "generate"),
    ("watermark", "gumbel_decode"),
    ("pivotal", "pivot_series"),
    ("pivotal", "alt_sample"),
    ("streams", "substream"),
    ("calibrate", "mc_critical"),
    ("detectors", "trgof_stat"),
    ("detectors", "score"),
    ("detectors", "null_moments"),
    ("experiments", "sample_mixture"),
    ("experiments", "min_error_cell"),
    ("efficiency", "optimal_rate"),
    ("edits", "apply_random_edit"),
    ("edits", "apply_adversarial_edit"),
    ("cli", "cmd_generate"),
    ("cli", "cmd_edit"),
    ("cli", "cmd_detect"),
)

# Work counts computed from the arguments of low-frequency calls:
# traced name -> (counter name, amount one call adds given its bound arguments).
COUNTERS = {
    "prf.prf_vector": ("prf.vector_hashes", lambda a: int(a["vocab_size"])),
    "pivotal.alt_sample": ("pivotal.alt_sample.draws", lambda a: int(np.size(a["u"]))),
    "calibrate.mc_critical": ("calibrate.mc_reps", lambda a: int(a["reps"]) * int(a["outer"])),
    "experiments.min_error_cell": (
        "experiments.thresholds_evaluated",
        lambda a: sum(int(sp.crit_grid[2]) for sp in a["specs"]),
    ),
}


class Tracer:
    """In-memory span recorder that patches the package's module attributes."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {}
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _name_index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    @contextmanager
    def span(self, name: str):
        """Span around a block of the benchmark's own code (one operation)."""
        i = self._open(self._name_index(name))
        try:
            yield
        finally:
            self._close(i)

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        nid = self._name_index(name)
        counter = COUNTERS.get(name)
        sig = inspect.signature(fn) if counter else None
        open_, close = self._open, self._close
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                counts[counter[0]] = counts.get(counter[0], 0) + counter[1](bound.arguments)
            i = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(i)

        return traced

    def install(self, *callers) -> None:
        """Wrap every binding of the traced functions in the package's modules
        and in ``callers`` (modules outside the package that call it)."""
        originals = {
            f"{layer}.{attr}": getattr(sys.modules[f"gumbelmark.{layer}"], attr)
            for layer, attr in TARGETS
        }
        by_id = {id(fn): name for name, fn in originals.items()}
        wrappers = {name: self._wrap(name, fn) for name, fn in originals.items()}
        modules = [m for n, m in list(sys.modules.items()) if n == "gumbelmark" or n.startswith("gumbelmark.")]
        modules += callers
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                name = by_id.get(id(value))
                if name is not None:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[name])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) seconds and self seconds."""
        dur = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent)
        ids = np.asarray(self.name_id)
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=dur.size)
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        total = np.bincount(ids, weights=dur, minlength=k)
        own = np.bincount(ids, weights=dur - child, minlength=k)
        return {
            name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }
