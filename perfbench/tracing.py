"""Spans around trotterchain's public functions, recorded from outside the library.

A function is wrapped at every name a trotterchain module binds it to, so
``cli.evolve_noisy``, ``tomo.rotated_probabilities`` and ``sim.sample``'s own
call of ``rotated_probabilities`` all pass through the same wrapper.  Spans
stay in memory as (name, start, end, parent) and are summarized after the
pass.  ``pauli`` is not wrapped: its functions are called millions of times
and a wrapper would distort them; it shows up in its callers' self time.
"""

from __future__ import annotations

import sys
import time

from stats import self_times

# (module, function) pairs wrapped in a traced pass.  The span name is
# "<module>.<function>", the name the per-layer metrics use.
TRACED = {
    "charges": ("window_density", "assemble", "assemble_cached"),
    "sim": ("evolve_noisy", "evolve_pure", "sample", "rotated_probabilities", "exact_expectation"),
    "measure": ("build_cover", "estimate", "exact_estimator_variance"),
    "spectral": ("vectorize_step", "spectrum", "fixed_point", "decay_rate"),
    "tomo": ("reconstruct", "collect", "linear_inversion", "psd_project", "fidelity"),
    "mitigate": ("calibrate", "correct", "zne_fold"),
    "analysis": ("fit_exp", "fit_early_linear"),
    "cli": (
        "main",
        "decay_table",
        "fit_report",
        "exact_decay_series",
        "spectrum_report",
        "tomo_report",
        "mitigation_table",
    ),
}

# The engines: their first call ends set-up, and the gaps between their
# calls are the per-depth intervals.  Untraced passes wrap only these.
ENGINES = ("sim.evolve_noisy", "sim.evolve_pure", "spectral.vectorize_step")


class Patches:
    """Replaces functions at every trotterchain binding and puts them back."""

    def __init__(self):
        self._undo = []

    def wrap(self, qualname: str, make_wrapper):
        mod_name, func_name = qualname.split(".")
        original = getattr(sys.modules[f"trotterchain.{mod_name}"], func_name)
        wrapper = make_wrapper(original)
        for name, module in list(sys.modules.items()):
            if name != "trotterchain" and not name.startswith("trotterchain."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))

    def restore(self):
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()


class Tracer:
    """In-memory spans with parent links, plus hooks that see call arguments."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent]
        self._stack = []
        self.hooks = {}  # span name -> callable(args, kwargs, result)

    def install(self, patches: Patches, names=None):
        """Wrap ``names`` (default: everything in TRACED)."""
        if names is None:
            names = [f"{mod}.{func}" for mod, funcs in TRACED.items() for func in funcs]
        for name in names:
            patches.wrap(name, lambda fn, name=name: self._traced(name, fn))

    def _traced(self, name: str, fn):
        spans, stack, hooks = self.spans, self._stack, self.hooks

        def traced(*args, **kwargs):
            record = [name, time.monotonic(), None, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.monotonic()
                stack.pop()
            hook = hooks.get(name)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def engine_starts(self) -> list:
        return [start for name, start, _, _ in self.spans if name in ENGINES]

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds, call durations, parents."""
        spans = [tuple(s) for s in self.spans]
        out: dict = {}
        for (name, start, end, parent), own in zip(spans, self_times(spans)):
            entry = out.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "call_s": [], "parents": {}}
            )
            entry["calls"] += 1
            entry["self_s"] += own
            entry["call_s"].append(end - start)
            # a recursive function's nested calls would count twice in the total
            if not _inside_same(spans, parent, name):
                entry["total_s"] += end - start
            parent_name = spans[parent][0] if parent >= 0 else "-"
            entry["parents"][parent_name] = entry["parents"].get(parent_name, 0) + 1
        return out


def _inside_same(spans, parent: int, name: str) -> bool:
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False
