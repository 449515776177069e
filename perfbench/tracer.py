"""Outside-in span tracer for the kphase layers.

The tracer wraps every public function of each layer module, and the
``HamiltonianSchedule.__call__`` method, wherever the package binds it:
module globals (so ``from .manifolds import kernel`` copies and aliases
such as ``phases._expectation`` are caught), dict values held in module
globals (the CLI's runner table) and class attributes.  Nothing inside
``src/kphase`` is edited; :meth:`Tracer.uninstall` restores every binding.

Each span records name, start, end, parent span and call id (the index of
the CLI call in the round) in flat arrays that stay in memory until the
caller summarises or saves them.  Functions that do a known amount of work
per call (steps, samples, vertices, points) also record that count.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

# Module -> layer prefix used in span names.  ``topology`` is left out on
# purpose: its exact integer arithmetic is not on any measured path.
LAYERS = {
    "kphase.cli": "cli",
    "kphase.serialize": "serialize",
    "kphase.manifolds": "manifolds",
    "kphase.geometry": "geometry",
    "kphase.dynamics": "dynamics",
    "kphase.phases": "phases",
    "kphase.su2": "su2",
    "kphase.loops": "loops",
}
# Layers whose self time is reported together: serialization is part of
# the CLI layer.
SELF_GROUP = {"serialize": "cli"}
METHODS = {("kphase.dynamics", "HamiltonianSchedule", "__call__"):
           "dynamics.schedule_eval"}


def _length(value) -> int:
    times = getattr(value, "times", None)
    return len(times) if times is not None else len(value)


def _arg_length(param: str):
    def units(sig, args, kwargs, result):
        return _length(sig.bind(*args, **kwargs).arguments[param])
    return units


def _result_steps(sig, args, kwargs, result):
    return len(result.times) - 1


def _result_length(sig, args, kwargs, result):
    return len(result)


# Work done per call, for the per-unit timings.
UNITS = {
    "dynamics.trajectory": _result_steps,
    "su2.schrodinger_evolve": _result_steps,
    "phases.line_integral_phase": _arg_length("loop"),
    "phases.dynamical_phase": _arg_length("traj"),
    "phases.polygon_phase": _arg_length("vertices"),
    "loops.latitude_circle": _result_length,
    "loops.fourier_loop": _result_length,
}


class Tracer:
    """Span recorder that patches the package's bindings in place."""

    def __init__(self):
        self.names: list[str] = []
        self._targets: dict[int, tuple[object, object]] = {}
        self._patches: list[tuple[object, str, object, bool]] = []
        self.clear()

    def clear(self) -> None:
        """Drop recorded spans; installed wrappers stay in place."""
        self.name = array("i")
        self.parent = array("i")
        self.call = array("i")
        self.start = array("d")
        self.end = array("d")
        self.units = array("q")
        self.stack = [-1]
        self.call_id = 0

    def _wrap(self, qualname: str, fn):
        nid = len(self.names)
        self.names.append(qualname)
        unit_fn = UNITS.get(qualname)
        sig = inspect.signature(fn) if unit_fn is not None else None
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t = tracer
            idx = len(t.start)
            t.name.append(nid)
            t.parent.append(t.stack[-1])
            t.call.append(t.call_id)
            t.end.append(0.0)
            t.units.append(0)
            t.stack.append(idx)
            t.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                t.end[idx] = clock()
                t.stack.pop()
            if unit_fn is not None:
                t.units[idx] = unit_fn(sig, args, kwargs, result)
            return result

        return traced

    def install(self, package: str = "kphase") -> None:
        """Wrap every layer's public functions wherever they are bound."""
        modules = [
            mod for name, mod in sorted(sys.modules.items())
            if (name == package or name.startswith(package + "."))
            and mod is not None
        ]
        if not self._targets:
            for mod in modules:
                layer = LAYERS.get(mod.__name__)
                if layer is None:
                    continue
                for name, obj in vars(mod).items():
                    if (inspect.isfunction(obj) and not name.startswith("_")
                            and obj.__module__ == mod.__name__):
                        self._add_target(f"{layer}.{name}", obj)
            for (modname, cls, attr), qualname in METHODS.items():
                self._add_target(
                    qualname, vars(getattr(sys.modules[modname], cls))[attr])
        for mod in modules:
            namespace = vars(mod)
            for key, value in list(namespace.items()):
                self._patch(mod, key, value, False)
                if isinstance(value, dict) and key != "__builtins__":
                    for k, v in list(value.items()):
                        self._patch(value, k, v, True)
                elif (inspect.isclass(value)
                      and value.__module__ == mod.__name__):
                    for attr, v in list(vars(value).items()):
                        self._patch(value, attr, v, False)

    def _add_target(self, qualname: str, fn) -> None:
        self._targets[id(fn)] = (fn, self._wrap(qualname, fn))

    def _patch(self, owner, key, value, is_item: bool) -> None:
        target = self._targets.get(id(value))
        if target is None or target[0] is not value:
            return
        self._patches.append((owner, key, value, is_item))
        if is_item:
            owner[key] = target[1]
        else:
            setattr(owner, key, target[1])

    def uninstall(self) -> None:
        """Restore every binding :meth:`install` replaced."""
        while self._patches:
            owner, key, value, is_item = self._patches.pop()
            if is_item:
                owner[key] = value
            else:
                setattr(owner, key, value)

    def spans(self) -> dict[str, np.ndarray]:
        """The recorded spans as column arrays (times in seconds)."""
        return {
            "name": np.frombuffer(self.name, dtype=np.intc).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.intc).copy(),
            "call": np.frombuffer(self.call, dtype=np.intc).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "units": np.frombuffer(self.units, dtype=np.int64).copy(),
        }

    def summarize(self) -> dict:
        """Per-name counts, inclusive and self time, work units; per-layer
        self time; trajectory steps integrated and kept per CLI call."""
        s = self.spans()
        n = len(self.names)
        dur = s["end"] - s["start"]
        has_parent = s["parent"] >= 0
        child = np.bincount(s["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child
        counts = np.bincount(s["name"], minlength=n)
        incl = np.bincount(s["name"], weights=dur, minlength=n)
        selfs = np.bincount(s["name"], weights=self_time, minlength=n)
        units = np.bincount(s["name"], weights=s["units"], minlength=n)
        layer_self: dict[str, float] = {}
        for k, qualname in enumerate(self.names):
            layer = qualname.split(".", 1)[0]
            layer = SELF_GROUP.get(layer, layer)
            layer_self[layer] = layer_self.get(layer, 0.0) + float(selfs[k])
        integrated = useful = 0
        if "dynamics.trajectory" in self.names:
            # The trajectory a call reports on is the last one it integrates.
            traj = s["name"] == self.names.index("dynamics.trajectory")
            last_per_call: dict[int, int] = {}
            for call, steps in zip(s["call"][traj], s["units"][traj]):
                integrated += int(steps)
                last_per_call[int(call)] = int(steps)
            useful = sum(last_per_call.values())
        return {
            "calls": {q: int(counts[k]) for k, q in enumerate(self.names)},
            "incl_s": {q: float(incl[k]) for k, q in enumerate(self.names)},
            "self_s": {q: float(selfs[k]) for k, q in enumerate(self.names)},
            "units": {q: int(units[k]) for k, q in enumerate(self.names)},
            "layer_self_s": layer_self,
            "steps_integrated": integrated,
            "steps_useful": useful,
        }
