"""The benchmark's per-layer spans must find every program function they wrap.

`perfbench/spans.py` records a target it cannot resolve as absent and its
metrics then read 0, so a rename in the library would silently zero them.
This test only reads `perfbench/`.
"""

import importlib.util
import os

import pytest

from surfvort import cli

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
