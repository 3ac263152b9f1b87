"""Timers and call counters wrapped around mm_lab's public functions.

The wrappers live in the benchmark, not in the library: ``Tracer.install``
rebinds every ``mm_lab`` module attribute that holds a listed function, so a
call the library makes internally through an imported name (``product``
calling ``validate_space``, say) is counted as well.  ``maximum_flow`` is
wrapped only where ``mm_lab.distances`` binds it, which counts the max-flow
solves behind ``prokhorov``.
"""
from __future__ import annotations

import functools
import sys
import time

# module -> function names; each is recorded as "<module>.<function>"
TRACED = {
    "core": ("validate_space", "lip_constant"),
    "mpf": ("eval_mpf", "check_triangle_triplets", "defect_table", "classify_sequence"),
    "product": ("product", "metric_transform"),
    "gallery": ("sample_sphere", "build_counterexample_1dim"),
    "invariants": ("observable_diameter", "concentration_function", "kappa_distance",
                   "levy_mean"),
    "distances": ("ky_fan", "prokhorov", "prokhorov_bruteforce", "box_distance",
                  "lip_up_to_eps", "concentration_certificate", "maximum_flow"),
}

SPANS = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)


def metric_names() -> list:
    """Every per-layer metric name with its unit, in a stable order."""
    out = []
    for span in SPANS:
        out += [(f"{span}.calls", "count"), (f"{span}.s", "s"), (f"{span}.self_s", "s")]
    out.append(("distances.maximum_flow.per_prokhorov", "flows/call"))
    return out


class Tracer:
    """Per-span call counts, inclusive time and self time.

    Inclusive time counts only the outermost activation of a span, so a
    function that calls itself is not counted twice; self time is the
    inclusive time minus the traced calls nested directly inside.
    """

    def __init__(self):
        self.calls = dict.fromkeys(SPANS, 0)
        self.total = dict.fromkeys(SPANS, 0.0)
        self.self_time = dict.fromkeys(SPANS, 0.0)
        self._depth = dict.fromkeys(SPANS, 0)
        self._child = []  # per open call: time spent in traced callees
        self._originals = []

    def reset(self):
        for span in SPANS:
            self.calls[span] = 0
            self.total[span] = 0.0
            self.self_time[span] = 0.0

    def _wrap(self, span, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[span] += 1
            self._depth[span] += 1
            self._child.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                inner = self._child.pop()
                self.self_time[span] += elapsed - inner
                self._depth[span] -= 1
                if self._depth[span] == 0:
                    self.total[span] += elapsed
                if self._child:
                    self._child[-1] += elapsed
        return traced

    def install(self):
        """Rebind every mm_lab module attribute that holds a traced function."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if mod is not None and (name == "mm_lab" or name.startswith("mm_lab."))}
        for mod_name, fns in TRACED.items():
            home = modules[f"mm_lab.{mod_name}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                # scipy's maximum_flow is counted only where distances binds it
                targets = [home] if fn_name == "maximum_flow" else modules.values()
                for mod in targets:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._originals.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._originals):
            setattr(mod, attr, original)
        self._originals.clear()

    def snapshot(self) -> dict:
        out = {}
        for span in SPANS:
            out[f"{span}.calls"] = self.calls[span]
            out[f"{span}.s"] = self.total[span]
            out[f"{span}.self_s"] = self.self_time[span]
        prok = self.calls["distances.prokhorov"]
        flows = self.calls["distances.maximum_flow"]
        out["distances.maximum_flow.per_prokhorov"] = flows / prok if prok else 0.0
        return out
