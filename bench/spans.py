"""Per-layer spans recorded from outside the program.

`install` wraps the public entry points listed in `LAYERS` and rebinds
every `plasmakin` module namespace that holds one of them (several modules
bind names such as `pv_transform` at import time, and `cli` imports inside
each subcommand).  Methods are wrapped on their class, so every binding of
the class sees them.  Spans (name, start, end, parent, operation id) stay in
memory until the run ends; `layer_metrics` derives calls, busy time, self
time and the work counts from them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from pathlib import Path

import numpy as np


CLI_COMMANDS = ("penrose", "dielectric", "equilibrium", "cloud", "evolve", "kernel")

# (module, attribute path, reported quantities, counts).  `counts` maps the
# call's bound arguments and its result to work counts.  The span of a class
# constructor is named after the class.
LAYERS = [
    ("kernel", "bl_rhs", ("calls", "s", "self_s", "pairs"),
     lambda a, r: {"pairs": a["field"].n ** 3 * (a["field"].n ** 3 - 1)}),
    ("kernel", "TensorTable.__init__", ("s",), None),
    ("kernel", "bl_tensor", ("calls", "s"), None),
    ("equilibrium", "HSolution.__init__", ("s", "slices", "split_slices"),
     lambda a, r: {"slices": len(a["self"].slices),
                   "split_slices": sum(1 for s in a["self"].slices if s.split)}),
    ("equilibrium", "HSolution.A_minus_exact", ("calls", "s", "points"),
     lambda a, r: {"points": int(np.size(r))}),
    ("equilibrium", "h_realspace", ("s",), None),
    ("equilibrium", "correlation_line", ("calls", "s"), None),
    ("equilibrium", "solve_H", ("s",), None),
    ("transforms", "pv_transform", ("calls", "s", "points"),
     lambda a, r: {"points": len(a["profile"].values)}),
    ("transforms", "axial_inverse_transform", ("s", "r_points"),
     lambda a, r: {"r_points": int(np.size(a["r_values"]))}),
    ("transforms", "radial_inverse_transform", ("s",), None),
    ("propagator", "ContourFn.invert", ("calls", "s", "nodes"),
     lambda a, r: {"nodes": a["self"].contour.n_nodes}),
    ("propagator", "PairPropagator.psi_pairing", ("s",), None),
    ("propagator", "PairPropagator.g_B_pairing", ("s",), None),
    ("propagator", "vlasov_laplace_eval", ("s",), None),
    ("propagator", "evolve_density", ("s",), None),
    ("propagator", "FluxEvaluator.flux_J", ("s",), None),
    ("propagator", "debye_cloud", ("s",), None),
    ("dielectric", "DielectricModel.__init__", ("calls", "s", "directions"),
     lambda a, r: {"directions": len(a["self"].directions)}),
    ("dielectric", "DielectricModel.epsilon", ("calls", "s"), None),
    ("dielectric", "DielectricModel.epsilon_laplace", ("calls", "s", "points"),
     lambda a, r: {"points": int(np.size(a["z"]))}),
    ("dielectric", "DielectricModel.dispersion_roots", ("calls", "s"), None),
    ("dielectric", "DielectricModel.epsilon_infimum", ("s",), None),
    ("dielectric", "penrose_check", ("calls", "s"), None),
    ("config", "load_scenario", ("s",), None),
    ("config", "write_csv", ("s", "bytes"),
     lambda a, r: {"bytes": Path(a["path"]).stat().st_size}),
    ("config", "write_manifest", ("s",), None),
]

# Program warnings are keyed by message prefix.
WARNING_KEYS = (
    ("hermiticity_defect", "h_realspace Hermiticity defect"),
    ("bromwich_drift", "Bromwich node-doubling drift"),
    ("epsilon_floor", "|ε| floor"),
)

QUANTITY_UNITS = {"calls": "count", "s": "s", "self_s": "s", "bytes": "B"}


def span_name(module, attr):
    return f"{module}.{attr.removesuffix('.__init__')}"


def layer_metric_names():
    """Every per-layer metric the traced run reports, in a fixed order."""
    names = [f"{span_name(m, a)}.{q}" for m, a, qs, _ in LAYERS for q in qs]
    names += [f"cli.{c}.self_s" for c in CLI_COMMANDS]
    names += [f"warnings.count.{k}" for k, _ in WARNING_KEYS] + ["warnings.count.other"]
    return names


def metric_unit(name):
    return QUANTITY_UNITS.get(name.rsplit(".", 1)[1], "count")


class Tracer:
    """In-memory span recorder.  A span is [name, start, end, parent, op]."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.op = None
        self._stack = []
        self._installed = []

    def call(self, name, fn, args, kwargs, counts=None, sig=None):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else None, self.op])
        self._stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()
        if counts is not None:
            bound = sig.bind(*args, **kwargs).arguments
            for key, n in counts(bound, result).items():
                full = f"{name}.{key}"
                self.counts[full] = self.counts.get(full, 0) + n
        return result

    def wrap(self, name, fn, counts=None):
        sig = inspect.signature(fn) if counts is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counts, sig)

        return traced

    # -- installation ------------------------------------------------------
    def install(self):
        """Wrap every layer entry point and CLI subcommand; see `uninstall`."""
        for module_name, attr, _, counts in LAYERS:
            module = importlib.import_module(f"plasmakin.{module_name}")
            name = span_name(module_name, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                setattr(owner, meth, self.wrap(name, original, counts))
                self._installed.append((owner, meth, original))
                continue
            original = getattr(module, attr)
            traced = self.wrap(name, original, counts)
            for mod in list(sys.modules.values()):
                if mod is None or not getattr(mod, "__name__", "").startswith("plasmakin"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
                        self._installed.append((mod, key, original))
        cli = importlib.import_module("plasmakin.cli")
        for cmd in CLI_COMMANDS:
            command = cli.main.commands[cmd]
            self._installed.append((command, "callback", command.callback))
            command.callback = self.wrap(f"cli.{cmd}", command.callback)

    def uninstall(self):
        for owner, key, original in reversed(self._installed):
            setattr(owner, key, original)
        self._installed = []

    # -- derived metrics ---------------------------------------------------
    def self_times(self):
        """Span duration minus the part of it that its child spans cover."""
        children = {}
        for i, (_, _, _, parent, _) in enumerate(self.spans):
            if parent is not None:
                children.setdefault(parent, []).append(i)
        out = []
        for i, (_, start, end, _, _) in enumerate(self.spans):
            covered, cursor = 0.0, start
            for c in sorted(children.get(i, ()), key=lambda j: self.spans[j][1]):
                lo, hi = max(self.spans[c][1], cursor), min(self.spans[c][2], end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out.append((end - start) - covered)
        return out

    def aggregate(self):
        """name -> {calls, s, self_s}; `s` counts only the outermost span of a name."""
        selfs = self.self_times()
        agg = {}
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            entry = agg.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += selfs[i]
            p = parent
            while p is not None and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p is None:
                entry["s"] += end - start
        return agg

    def layer_metrics(self, warning_counts, rounds=1):
        """Per-round values of every name in `layer_metric_names()`."""
        agg = self.aggregate()
        out = {}
        for name in layer_metric_names():
            prefix, quantity = name.rsplit(".", 1)
            if prefix.startswith("warnings.count"):
                value = warning_counts.get(quantity, 0)
            elif quantity in ("calls", "s", "self_s"):
                value = agg.get(prefix, {}).get(quantity, 0)
            else:
                value = self.counts.get(name, 0)
            out[name] = value / rounds if isinstance(value, float) else value // rounds
        return out

    def to_json(self):
        return [{"name": n, "start": s, "end": e, "parent": p, "op": o}
                for n, s, e, p, o in self.spans]


def classify_warning(message):
    for key, prefix in WARNING_KEYS:
        if message.startswith(prefix):
            return key
    return "other"


def span_cost(n=20000):
    """Measured cost of one traced call to a no-op, in seconds."""
    tracer = Tracer()

    def noop():
        return None

    traced = tracer.wrap("noop", noop)
    t0 = time.perf_counter()
    for _ in range(n):
        noop()
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(n):
        traced()
    return max(time.perf_counter() - t0 - bare, 0.0) / n
