"""Per-layer tracing from outside the library.

`Tracer.install` replaces each wrapped public function with a timing
wrapper, in every loaded rigidlift module that holds it (modules import
each other's names with `from ... import`, so `orientation.q_reduce` and
`cli.q_reduce` are separate bindings of `divisor.q_reduce`).  A wrapper
counts calls and self time: its duration minus the time spent in nested
wrapped calls.
"""

import functools
import importlib
import sys
import time

LAYERS = {
    "multigraph": ("connectivity_profile", "series_classes", "cycle_through_edges", "fundamental_cycles"),
    "divisor": ("q_reduce", "enumerate_picard", "theta_divisor"),
    "homology": ("CycleLattice.project", "integral_lift", "iota", "iota_inverse"),
    "orientation": (
        "chern_class",
        "torsor_act",
        "lift_divisor_to_orientation",
        "effectiveness_certificate",
        "extend_to_nonspecial",
    ),
    "orcyc": (
        "make_morphism",
        "compute_signs",
        "pushforward_class",
        "rigidity_divisor",
        "diagram_defect",
        "theta_preserved",
        "s1_image_preserved",
        "lift_to_graph_isomorphism",
        "nonrigidity_witness",
    ),
    "graphio": ("load_graph", "load_morphism", "parse_divisor", "parse_orientation"),
    "cli": ("main",),
}

EXTRA_METRICS = (
    ("divisor.enumerate_picard.classes", "count"),
    ("divisor.enumerate_picard.classes_per_q_reduce", "ratio"),
    ("divisor.theta_divisor.hit_ratio", "ratio"),
    ("cli.import_s", "s"),
    ("trace_overhead", "ratio"),
)


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for layer, names in LAYERS.items():
        for name in names:
            out.append((f"{layer}.{name}.calls", "count"))
            out.append((f"{layer}.{name}.self_s", "s"))
        out.append((f"{layer}.self_s", "s"))
    return out + list(EXTRA_METRICS)


class Tracer:
    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.stack = []
        self.picard_depth = 0
        self.picard_q_reduce = 0
        self.picard_results = []  # (graph, classes returned) per call
        self.theta_calls = 0
        self.theta_hits = 0
        self.rebound = {}  # wrapped name -> modules whose binding was replaced
        self._restore = []

    def _wrap(self, key, fn):
        calls, self_s, stack = self.calls, self.self_s, self.stack
        calls[key] = 0
        self_s[key] = 0.0
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                calls[key] += 1
                self_s[key] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed

        return wrapper

    def _hooks(self, key, wrapper):
        """Counters that need the call's arguments or result."""
        if key == "divisor.q_reduce":

            def q_reduce(*args, **kwargs):
                if self.picard_depth:
                    self.picard_q_reduce += 1
                return wrapper(*args, **kwargs)

            return functools.wraps(wrapper)(q_reduce)
        if key == "divisor.enumerate_picard":

            def enumerate_picard(g, *args, **kwargs):
                self.picard_depth += 1
                try:
                    result = wrapper(g, *args, **kwargs)
                finally:
                    self.picard_depth -= 1
                self.picard_results.append((g, len(result)))
                return result

            return functools.wraps(wrapper)(enumerate_picard)
        if key == "divisor.theta_divisor":

            def theta_divisor(*args, **kwargs):
                before = self.calls["divisor.enumerate_picard"]
                result = wrapper(*args, **kwargs)
                self.theta_calls += 1
                self.theta_hits += self.calls["divisor.enumerate_picard"] == before
                return result

            return functools.wraps(wrapper)(theta_divisor)
        return wrapper

    def install(self):
        modules = {layer: importlib.import_module(f"rigidlift.{layer}") for layer in LAYERS}
        loaded = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "rigidlift" or name.startswith("rigidlift."))
        ]
        for layer, names in LAYERS.items():
            for name in names:
                key = f"{layer}.{name}"
                if "." in name:
                    cls_name, attr = name.split(".")
                    owner = getattr(modules[layer], cls_name)
                    original = owner.__dict__[attr]
                    setattr(owner, attr, self._hooks(key, self._wrap(key, original)))
                    self._restore.append((owner, attr, original))
                    self.rebound[key] = [f"{modules[layer].__name__}.{cls_name}"]
                    continue
                original = getattr(modules[layer], name)
                replacement = self._hooks(key, self._wrap(key, original))
                self.rebound[key] = []
                for module in loaded:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, replacement)
                            self._restore.append((module, attr, original))
                            self.rebound[key].append(f"{module.__name__}.{attr}")
        originals = [original for _, _, original in self._restore]
        stale = [
            f"{m.__name__}.{attr}"
            for m in loaded
            for attr, value in vars(m).items()
            if any(value is original for original in originals)
        ]
        if stale:
            raise RuntimeError(f"unwrapped bindings remain: {stale}")

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def metrics(self):
        out = {}
        for layer, names in LAYERS.items():
            total = 0.0
            for name in names:
                key = f"{layer}.{name}"
                out[f"{key}.calls"] = self.calls[key]
                out[f"{key}.self_s"] = self.self_s[key]
                total += self.self_s[key]
            out[f"{layer}.self_s"] = total
        classes = sum(n for _, n in self.picard_results)
        out["divisor.enumerate_picard.classes"] = classes
        out["divisor.enumerate_picard.classes_per_q_reduce"] = (
            classes / self.picard_q_reduce if self.picard_q_reduce else 0.0
        )
        out["divisor.theta_divisor.hit_ratio"] = (
            self.theta_hits / self.theta_calls if self.theta_calls else 0.0
        )
        return out
