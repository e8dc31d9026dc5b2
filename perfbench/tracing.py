"""Timing wrappers around catcodes functions, for the benchmark's traced run.

catcodes modules import functions by name (``from .channels import
entropy4``), so timing ``channels.entropy4`` means replacing every binding of
that function object, in the namespace of each module that calls it, not
only the attribute of the module that defines it.  ``Tracer.installed()``
puts every original back on exit.

Self time is a span's duration minus the time of the wrapped spans it
called.  Work counts (cells, classes, evaluations, verdicts) are computed
here, from the arguments and results seen at the boundary, so the package
itself needs no counters.
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
from collections import Counter
from time import perf_counter

# Layer boundaries: module -> public functions wrapped in the traced run.
# slog has no boundary coarser than one scalar operation; its time shows in
# catcode.syndrome_classes.  oracle is test reference code and is not timed.
LAYERS = {
    "search": ("threshold", "code_rate", "best_threshold_scan"),
    "concat": ("concat_rate", "induced_ensemble"),
    "catcode": ("cat_rate", "syndrome_classes"),
    "channels": ("evaluate_family", "entropy4"),
    "degradable": ("degradability_verdict",),
    "cli": ("main",),
}
# Layers whose self time is the numeric work (everything but the CLI shell).
COMPUTE_LAYERS = ("search", "concat", "catcode", "channels", "degradable")


def concat_cells(spec) -> int:
    """(composition, flip-count) cells one concat_rate call sums over.

    Compositions k of the outer length M over the n inner classes, each with
    prod(k_t + 1) flip-count vectors, number C(M + 2n - 1, 2n - 1) in total.
    """
    n, big_m = spec.inner.m, spec.outer.m
    return math.comb(big_m + 2 * n - 1, 2 * n - 1)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_concat(counts, args, kwargs, result):
    counts["concat.cells"] += concat_cells(_arg(args, kwargs, 1, "spec"))


def _count_cat(counts, args, kwargs, result):
    counts["catcode.classes"] += _arg(args, kwargs, 1, "spec").m


def _count_threshold(counts, args, kwargs, result):
    counts["search.evals"] += result.evaluations


def _count_verdict(counts, args, kwargs, result):
    counts[f"degradable.verdicts.{result.status}"] += 1


COUNTERS = {
    "concat.concat_rate": _count_concat,
    "catcode.cat_rate": _count_cat,
    "search.threshold": _count_threshold,
    "degradable.degradability_verdict": _count_verdict,
}


class Tracer:
    """Per-function call counts, inclusive and self seconds, and work counts."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # "module.function" -> [calls, s, self_s]
        self.counts: Counter = Counter()
        self._stack: list[float] = []  # child seconds of each open span
        self._replaced: list[tuple[dict, str, object]] = []

    def _wrap(self, key: str, fn):
        stat = self.stats.setdefault(key, [0, 0.0, 0.0])
        stack = self._stack
        counts = self.counts
        count = COUNTERS.get(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - child
                if stack:
                    stack[-1] += dt
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        wrapper.__wrapped_by_perfbench__ = True
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every binding of each LAYERS function in all catcodes modules."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "catcodes" or name.startswith("catcodes."))]
        try:
            for layer, names in LAYERS.items():
                defining = sys.modules[f"catcodes.{layer}"]
                for name in names:
                    original = getattr(defining, name)
                    wrapper = self._wrap(f"{layer}.{name}", original)
                    for module in modules:
                        namespace = vars(module)
                        for attr, value in list(namespace.items()):
                            if value is original:
                                namespace[attr] = wrapper
                                self._replaced.append((namespace, attr, original))
            yield self
        finally:
            while self._replaced:
                namespace, attr, original = self._replaced.pop()
                namespace[attr] = original


def leftover_wrappers() -> list[str]:
    """Names in catcodes modules still bound to a benchmark wrapper."""
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "catcodes" or name.startswith("catcodes.")):
            continue
        for attr, value in vars(module).items():
            if getattr(value, "__wrapped_by_perfbench__", False):
                found.append(f"{name}.{attr}")
    return found
