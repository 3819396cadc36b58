"""Fuzzed scenarios: any JSON document exits with a documented code and no traceback.

The documents are the presets, cut to a few steps, and the mesh presets moved
onto a tiny icosphere(1), each with one to three of its values replaced by
other JSON values or of its keys renamed. Integers are drawn small (0-4) or
huge (>= 1e9), so that a run inside the parse-time bounds stays short and one
outside them is refused before anything is allocated. Floats come from a
short list: none is so small that a conformal tolerance could keep the flow
from converging, and 1e300 and +-1e200 can stand for overflowing strengths,
time steps and positions. A manifest that is written must be strict JSON,
with no infinity or NaN.
"""

import contextlib
import copy
import io
import json
import os
import re
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from surfvort import save_obj
from surfvort.cli import main
from surfvort.scenario import presets
from surfvort.shapes import icosphere

FIELD_GRIDS = {
    "kimura_plane": {"kind": "plane_grid", "xmin": -2, "xmax": 2, "nx": 3,
                     "ymin": -1, "ymax": 1, "ny": 2},
    "leapfrog_plane": {"kind": "ring", "center": [0.5, 0.0], "radius": 1.5, "count": 4},
    "random_cloud_sphere": {"kind": "sphere_grid", "n_polar": 2, "n_azimuth": 3},
    "kimura_mesh": {"kind": "surface_samples", "count": 3, "seed": 2},
}


def base_documents() -> list[dict]:
    docs = []
    for name, doc in sorted(presets().items()):
        doc = copy.deepcopy(doc)
        doc["integrator"]["steps"] = 2
        if isinstance(doc["geometry"], dict):
            doc["geometry"] = {"mesh": "ico.obj"}
        if name in FIELD_GRIDS:
            doc["outputs"]["field_grid"] = dict(FIELD_GRIDS[name])
        docs.append(doc)
    return docs


BASES = base_documents()

integers = st.one_of(st.integers(0, 4), st.integers(10**9, 10**15))
floats = st.sampled_from([-1e200, -2.5, -1.0, -0.25, 0.0, 0.001, 0.5, 1.5, 3.0, 1e9, 1e200,
                          1e300])
scalars = st.one_of(st.none(), st.booleans(), integers, floats, st.text(max_size=4))
json_values = st.recursive(
    scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6,
)


def value_paths(node, path=()):
    """Paths (key or index sequences) to every value inside a JSON document."""
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield path + (key,)
        yield from value_paths(child, path + (key,))


def replace_at(doc, path, value) -> None:
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


def rename_at(doc, path, name) -> None:
    """Rename the key at the end of `path`, keeping its value and the keys' order."""
    for key in path[:-1]:
        doc = doc[key]
    items = [(name if key == path[-1] else key, value) for key, value in doc.items()]
    doc.clear()
    doc.update(items)


def reject_constant(name):
    raise AssertionError(f"manifest holds {name}, which strict JSON parsers reject")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    base = tmp_path_factory.mktemp("fuzz")
    save_obj(icosphere(1), base / "ico.obj")
    return base


@settings(database=None, derandomize=True, deadline=None, max_examples=500,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_scenario_exits_cleanly(workdir, data):
    doc = copy.deepcopy(data.draw(st.sampled_from(BASES)))
    for _ in range(data.draw(st.integers(1, 3))):
        paths = list(value_paths(doc))
        if not paths:
            break
        keys = [path for path in paths if isinstance(path[-1], str)]
        if keys and data.draw(st.booleans()):
            rename_at(doc, data.draw(st.sampled_from(keys)), data.draw(st.text(max_size=12)))
        else:
            replace_at(doc, data.draw(st.sampled_from(paths)), data.draw(json_values))
    code, err = run_document(workdir, doc)
    assert code in {0, 1, 2, 3, 4}
    if code in {1, 2, 3}:
        lines = err.splitlines()
        assert sum(line.startswith("error: ") for line in lines) == 1


def run_document(workdir, doc) -> tuple[int, str]:
    """`surfvort run` on `doc`: the exit code and stderr; a written manifest must be strict JSON."""
    scenario = workdir / "scenario.json"
    scenario.write_text(json.dumps(doc))
    err = io.StringIO()
    with tempfile.TemporaryDirectory(dir=workdir) as out, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["run", str(scenario), "--out", os.path.join(out, "run")])
        manifest = os.path.join(out, "run", "manifest.json")
        if code in {0, 4}:
            with open(manifest, encoding="utf-8") as fh:
                json.load(fh, parse_constant=reject_constant)
    return code, err.getvalue()


def first_key_paths(doc) -> list[tuple]:
    """Paths to the keys of every JSON object in `doc`, through the first element of each list."""
    return [path for path in value_paths(doc)
            if isinstance(path[-1], str) and all(key == 0 for key in path if isinstance(key, int))]


@pytest.mark.parametrize("index", range(len(BASES)))
def test_misspelt_key_is_refused(workdir, index):
    """Every key of every preset section, misspelt, exits 1 with one error line naming it."""
    for path in first_key_paths(BASES[index]):
        doc = copy.deepcopy(BASES[index])
        rename_at(doc, path, path[-1] + "_")
        code, err = run_document(workdir, doc)
        assert code == 1, path
        assert re.fullmatch(f"error: unknown key '{path[-1]}_' in [a-z_ ]+\n", err), (path, err)
