"""Spans around the program's public functions, installed from outside it.

A span is one wrapped call, timed in CPU seconds of the process like the
end-to-end metrics. Spans nest through a stack; a span's self time is its
duration minus the durations of its child spans. Spans are aggregated as
they close, by (phase, layer): the phase is that of the nearest enclosing
phase span (set-up, integration, field, writing), so per phase the self times
of its layers add up to the phase's own duration.

A wrapped name the program no longer has is recorded as absent; its metrics
then read 0.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# Spans that open a phase, and the phase's name.
PHASE_OF = {
    "cli.run": "write",
    "cli.field": "field",
    "scenario.build_run": "setup",
    "integrator.run": "integrate",
}

# (layer, module, attribute): module-level functions are replaced wherever a
# surfvort module binds them; "Class.method" patches the class.
TARGETS = [
    ("mesh.load_obj", "surfvort.mesh", "load_obj"),
    ("mesh.validate", "surfvort.mesh", "validate_closed_genus0"),
    ("conformal.build_atlas", "surfvort.conformal", "build_atlas"),
    ("conformal.cmcf", "surfvort.conformal", "cmcf_to_sphere"),
    ("conformal.lu_factor", "surfvort.conformal", "splu"),
    ("scenario.build_run", "surfvort.scenario", "build_run"),
    ("transport.sample", "surfvort.transport", "sample_points"),
    ("transport.locate", "surfvort.transport", "SphereLocator.locate"),
    ("dynamics.diagnostics", "surfvort.dynamics", "energy_diagnostics"),
    ("dynamics.map_back", "surfvort.dynamics", "SurfaceVelocityEvaluator.to_source"),
    ("dynamics.field_eval", "surfvort.dynamics", "planar_field_velocity"),
    ("dynamics.field_eval", "surfvort.dynamics", "sphere_field_velocity"),
    ("dynamics.field_eval", "surfvort.dynamics", "surface_field_velocity"),
    ("dynamics.field_eval", "surfvort.dynamics", "stream_function"),
    ("integrator.run", "surfvort.integrator", "run"),
    # make_rhs is not timed itself; the evaluator it returns is ("dynamics.rhs").
    ("dynamics.make_rhs", "surfvort.dynamics", "make_rhs"),
]

# Counters read from a wrapped call's result: layer -> (counter, reader).
COUNTED = {
    "conformal.cmcf": ("conformal.cmcf_iterations", lambda r: getattr(r, "iterations_used", 0)),
    "integrator.run": ("integrator.steps", lambda r: max(len(getattr(r, "records", ())) - 1, 0)),
}


class Tracer:
    def __init__(self) -> None:
        self._stack: list[list] = []                   # [layer, phase, child seconds]
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        self.self_s: dict[tuple[str, str], float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []

    def call(self, layer: str, fn, *args, **kwargs):
        parent_phase = self._stack[-1][1] if self._stack else "other"
        frame = [layer, PHASE_OF.get(layer, parent_phase), 0.0]
        self._stack.append(frame)
        start = time.process_time()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.process_time() - start
            self._stack.pop()
            if self._stack:
                self._stack[-1][2] += duration
            key = (frame[1], layer)
            self.calls[key] += 1
            self.self_s[key] += duration - frame[2]

    def wrap(self, layer: str, fn):
        counted = COUNTED.get(layer)

        def traced(*args, **kwargs):
            result = self.call(layer, fn, *args, **kwargs)
            if counted is not None:
                self.counters[counted[0]] += counted[1](result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        for layer, module_name, attr in TARGETS:
            target = _resolve(module_name, attr)
            if target is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            owner, name, original = target
            if layer == "dynamics.make_rhs":
                wrapped = self._rhs_factory(original)
            else:
                wrapped = self.wrap(layer, original)
            if isinstance(owner, type):
                setattr(owner, name, wrapped)
            else:
                _rebind(original, wrapped)

    def _rhs_factory(self, make_rhs):
        tracer = self

        def traced_make_rhs(*args, **kwargs):
            return _TracedRhs(tracer, make_rhs(*args, **kwargs))

        traced_make_rhs.__wrapped__ = make_rhs
        return traced_make_rhs


class _TracedRhs:
    """Times each velocity evaluation of a make_rhs result and counts its pairs."""

    def __init__(self, tracer: Tracer, rhs) -> None:
        self._tracer = tracer
        self._rhs = rhs

    def __call__(self, positions):
        n = len(positions)
        self._tracer.counters["dynamics.pairs_evaluated"] += n * (n - 1)
        return self._tracer.call("dynamics.rhs", self._rhs, positions)

    def __getattr__(self, name):
        return getattr(self._rhs, name)


def _resolve(module_name: str, attr: str):
    """(owner, name, original) for a dotted target, or None if it is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = getattr(owner, name, None)
    if not callable(original):
        return None
    return owner, name, original


def _rebind(original, wrapped) -> None:
    """Replace every surfvort module binding of `original` with `wrapped`."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "surfvort" or mod_name.startswith("surfvort.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapped)
