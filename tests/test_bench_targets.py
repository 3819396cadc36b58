"""The benchmark's per-layer spans must find every program function they wrap.

`perfbench/spans.py` records a target it cannot resolve as absent and its
metrics then read 0, and its counters read attributes off wrapped results,
so a rename in the library would silently zero them. This test only reads
`perfbench/`.
"""

import importlib.util
import itertools
import os

import pytest

from surfvort import IntegratorConfig, SingularityError, VortexSystem, cli, make_rhs, run
from surfvort.dynamics import PLANE

SPANS_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = load_spans()


@pytest.mark.parametrize("module, attr", [(m, a) for _, m, a in SPANS.TARGETS])
def test_span_target_resolves(module, attr):
    assert SPANS._resolve(module, attr) is not None, f"{module}.{attr} is gone"


@pytest.mark.parametrize("attr", ["build_run", "integrate"])
def test_worker_phase_target_exists(attr):
    # perfbench/worker.py times the set-up and integration phases by wrapping these
    assert callable(getattr(cli, attr, None))


def test_integrator_steps_counter_reads_run_results():
    # `integrator.steps` (and from it `step_overhead_us`) is read off `run`'s
    # result: the step count of a full run, the recorded steps minus 1 of a
    # collided one
    counter, read = SPANS.COUNTED["integrator.run"]
    assert counter == "integrator.steps"
    system = VortexSystem(PLANE, [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]], [-1.0, 1.0])
    rhs = make_rhs(system)
    config = IntegratorConfig(dt=0.01, steps=7)
    assert read(run(system, rhs, config)) == 7

    calls = itertools.count()

    def failing_rhs(p):
        if next(calls) >= 12:  # 4 evaluations a step: steps 1..3 complete
            raise SingularityError("vortices 0 and 1 collided")
        return rhs(p)

    collided = run(system, failing_rhs, config)
    assert collided.collision_step == 4
    assert read(collided) == len(collided.records) - 1 == 3

    tracer = SPANS.Tracer()
    tracer.wrap("integrator.run", run)(system, rhs, config)
    assert tracer.counters[counter] == 7
