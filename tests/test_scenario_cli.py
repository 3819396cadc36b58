import copy
import io
import itertools
import json
import math
import os
import warnings

import numpy as np
import pytest

from surfvort import SphereLocator, cli, save_obj
from surfvort import scenario as scenario_module
from surfvort.cli import _grid_points, main
from surfvort.dynamics import make_rhs
from surfvort.errors import ScenarioError, SingularityError
from surfvort.integrator import RunResult, run
from surfvort.numerics import BLOCK_ROWS, normalize_rows, write_rows
from surfvort.scenario import build_run, load_scenario, parse_scenario, presets
from surfvort.shapes import ellipsoid, icosphere

from helpers import torus_mesh


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


PAIR_SCENARIO = {
    "geometry": "plane",
    "vortices": [
        {"position": [1.0, 0.0], "strength": -1.0},
        {"position": [-1.0, 0.0], "strength": 1.0},
    ],
    "integrator": {"dt": 0.01, "steps": 50},
}

# A balanced pair on the ico.obj mesh some tests write next to the scenario.
MESH_PAIR = dict(PAIR_SCENARIO, geometry={"mesh": "ico.obj"}, vortices=[
    {"nearest": [0, 0, 1], "strength": 1.0},
    {"nearest": [0, 0, -1], "strength": -1.0},
])


def plane_doc(points, strengths, balance):
    return {
        "geometry": "plane",
        "vortices": [{"position": p, "strength": w} for p, w in zip(points, strengths)],
        "balance": balance,
        "integrator": {"dt": 0.01, "steps": 1},
    }


class TestScenarioParsing:
    def test_minimal_plane_scenario(self, tmp_path):
        scenario = load_scenario(write_scenario(tmp_path, PAIR_SCENARIO))
        assert scenario.geometry == "plane"
        assert scenario.integrator.steps == 50
        assert scenario.balance_mode == "none"

    def test_missing_integrator(self):
        with pytest.raises(ScenarioError):
            parse_scenario({"geometry": "plane", "vortices": [{"position": [0, 0], "strength": 1}]})

    def test_only_rk4_scheme(self, tmp_path):
        doc = dict(PAIR_SCENARIO, integrator={"dt": 0.01, "steps": 1, "scheme": "rk2"})
        with pytest.raises(ScenarioError):
            parse_scenario(doc)
        assert main(["run", write_scenario(tmp_path, doc), "--out", str(tmp_path / "out")]) == 1
        rk4 = dict(PAIR_SCENARIO, integrator={"dt": 0.01, "steps": 1, "scheme": "rk4"})
        assert parse_scenario(rk4).integrator.steps == 1

    def test_unknown_geometry(self):
        with pytest.raises(ScenarioError):
            parse_scenario({"geometry": "cylinder", "vortices": [], "integrator": {"dt": 1, "steps": 1}})

    def test_missing_mesh_file(self, tmp_path):
        doc = dict(PAIR_SCENARIO, geometry={"mesh": "missing.obj"})
        with pytest.raises(ScenarioError):
            load_scenario(write_scenario(tmp_path, doc))

    def test_mesh_defaults_to_reject_balance(self, tmp_path):
        mesh_path = tmp_path / "ico.obj"
        save_obj(icosphere(2), mesh_path)
        doc = {
            "geometry": {"mesh": "ico.obj"},
            "vortices": [{"nearest": [0, 0, 1], "strength": 1.0}],
            "integrator": {"dt": 0.01, "steps": 1},
        }
        with pytest.raises(ScenarioError, match="must vanish"):
            load_scenario(write_scenario(tmp_path, doc))
        doc["vortices"].append({"nearest": [0, 0, -1], "strength": -1.0})
        assert load_scenario(write_scenario(tmp_path, doc)).balance_mode == "reject"

    def test_counter_vortex_balancing(self, tmp_path):
        mesh_path = tmp_path / "ico.obj"
        save_obj(icosphere(2), mesh_path)
        doc = {
            "geometry": {"mesh": "ico.obj"},
            "vortices": [{"nearest": [0, 0, 1], "strength": 1.0}],
            "balance": {"counter_vortex": {"nearest": [0, 0, -1]}},
            "integrator": {"dt": 0.01, "steps": 1},
        }
        prepared = build_run(load_scenario(write_scenario(tmp_path, doc)))
        assert len(prepared.system) == 2
        assert prepared.system.total_strength == 0.0

    def test_sampler_strength_laws(self, tmp_path):
        doc = {
            "geometry": "sphere",
            "sampler": {"count": 12, "seed": 4, "strength": {"law": "uniform", "low": -1, "high": 1}},
            "integrator": {"dt": 0.01, "steps": 1},
        }
        prepared = build_run(load_scenario(write_scenario(tmp_path, doc)))
        assert len(prepared.system) == 12
        assert np.abs(prepared.system.strengths).max() <= 1.0

    @pytest.mark.parametrize("doc", [
        dict(PAIR_SCENARIO, vortices=[{"position": [1.0, 0.0], "strength": "abc"},
                                      {"position": [-1.0, 0.0], "strength": 1.0}]),
        dict(PAIR_SCENARIO, diagnostics_every="z"),
        dict(PAIR_SCENARIO, integrator={"dt": "fast", "steps": 1}),
        dict(PAIR_SCENARIO, integrator={"dt": 0.01, "steps": [1]}),
        dict(PAIR_SCENARIO, conformal={"max_iters": "many"}),
        dict(PAIR_SCENARIO, self_term_sign=None),
    ], ids=["strength", "diagnostics_every", "dt", "steps", "max_iters", "self_term_sign"])
    def test_unconvertible_number_is_config_error(self, tmp_path, doc, capsys):
        with pytest.raises(ScenarioError, match="must be a number"):
            parse_scenario(doc)
        assert main(["run", write_scenario(tmp_path, doc), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("doc", [
        dict(PAIR_SCENARIO, conformal=5),
        dict(PAIR_SCENARIO, outputs=[]),
        dict(PAIR_SCENARIO, sampler={"count": 4, "region": {"box": [0, 1]}}),
        dict(PAIR_SCENARIO, geometry="sphere",
             vortices=[{"position": [0, 0, 0], "strength": 1.0}]),
        dict(PAIR_SCENARIO, sampler={"count": 4, "region": {"disk": {"center": [0, 0]}}}),
        dict(PAIR_SCENARIO, geometry="sphere", vortices=[],
             sampler={"count": 4, "region": {"cap": {"center": [0, 0, 0], "angle": 0.3}}}),
        dict(PAIR_SCENARIO, sampler={"count": 4, "strength": 2.0}),
        dict(PAIR_SCENARIO, vortices=[{"position": ["a", 0], "strength": 1.0}]),
        dict(PAIR_SCENARIO, balance={"counter_vortex": [1.0]},
             vortices=[{"position": [1.0, 0.0], "strength": 1.0}]),
        dict(PAIR_SCENARIO, geometry={"mesh": "ico.obj"},
             vortices=[{"nearest": [0, 0], "strength": 1.0}]),
        dict(PAIR_SCENARIO, geometry={"mesh": "ico.obj"},
             vortices=[{"triangle": 0, "strength": 1.0}]),
        dict(PAIR_SCENARIO, geometry={"mesh": "ico.obj"}, balance={"counter_vortex": [0, 0, 0]},
             vortices=[{"nearest": [0, 0, 1], "strength": 1.0}]),
        dict(MESH_PAIR, sampler={"count": 2, "strength": {"law": "weird"}}),
        dict(MESH_PAIR, sampler={"count": 2, "strength": {"law": "uniform", "low": "x"}}),
        dict(PAIR_SCENARIO, sampler={"count": 2, "strength": {"law": "uniform", "low": 2}}),
        dict(MESH_PAIR, vortices=MESH_PAIR["vortices"][:1]),
        dict(MESH_PAIR, balance="none", vortices=MESH_PAIR["vortices"][:1]),
        dict(MESH_PAIR, vortices=[{"triangle": 3, "bary": [0.8, 0.5], "strength": 1.0},
                                  MESH_PAIR["vortices"][1]]),
        dict(MESH_PAIR, vortices=[{"triangle": -1, "bary": [0.2, 0.2], "strength": 1.0},
                                  MESH_PAIR["vortices"][1]]),
        dict(PAIR_SCENARIO, sampler={"count": 2, "seed": -1}),
        dict(MESH_PAIR, sampler={"count": 2, "seed": -1}),
        dict(MESH_PAIR, outputs={"field_grid": {"kind": "surface_samples", "count": 5,
                                                "seed": -2}}),
        dict(PAIR_SCENARIO, sampler={"count": 4, "region": {"disk": {"center": [0, 0],
                                                                     "radius": -0.5}}}),
        dict(PAIR_SCENARIO, sampler={"count": 4, "region": {"disk": {"center": [1e308, 0],
                                                                     "radius": 1e308}}}),
        dict(PAIR_SCENARIO, sampler={"count": 4, "region": {"box": [1, 0, -1, 1]}}),
        dict(PAIR_SCENARIO, geometry="sphere", vortices=[],
             sampler={"count": 4, "region": {"cap": {"center": [0, 0, 1], "angle": -1}}}),
        dict(PAIR_SCENARIO, geometry="sphere", vortices=[],
             sampler={"count": 4, "region": {"cap": {"center": [0, 0, 1], "angle": 3.5}}}),
        dict(PAIR_SCENARIO, vortices=[], sampler={"count": 0}),
        dict(PAIR_SCENARIO, vortices=[{"position": [0, 0], "strength": 1e200},
                                      {"position": [1, 0], "strength": -1e200},
                                      {"position": [0, 1], "strength": 1e200}]),
        dict(PAIR_SCENARIO, sampler={"count": 2, "strength": {"law": "uniform", "low": -1e200}}),
    ], ids=["conformal_number", "outputs_list", "short_box", "zero_sphere_vortex",
            "disk_no_radius", "zero_cap_center", "strength_number", "position_text",
            "short_counter", "mesh_short_nearest", "mesh_no_bary", "mesh_zero_counter",
            "mesh_strength_law", "mesh_strength_low_text", "uniform_low_above_high",
            "mesh_reject_imbalance", "mesh_none_imbalance", "mesh_bary_outside",
            "mesh_negative_triangle", "negative_seed", "mesh_negative_seed",
            "negative_grid_seed", "negative_radius", "overflowing_disk", "reversed_box", "negative_cap_angle",
            "cap_angle_above_pi", "no_vortices", "huge_strengths", "huge_sampled_strength"])
    def test_malformed_scenario_fails_before_compute(self, tmp_path, doc, monkeypatch, capsys):
        import surfvort.cli as cli_mod

        def no_compute(*args, **kwargs):
            raise AssertionError("computed before the scenario was checked")

        save_obj(icosphere(2), tmp_path / "ico.obj")
        scn = write_scenario(tmp_path, doc)
        with pytest.raises(ScenarioError, match="must|needs"):
            load_scenario(scn)
        monkeypatch.setattr(cli_mod, "build_run", no_compute)
        out = tmp_path / "out"
        assert main(["run", scn, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("doc", [
        dict(PAIR_SCENARIO, sampler={"count": 4, "region": {
            "box": [0, 1, 0, 1], "disk": {"center": [5, 5], "radius": 0.1}}}),
        dict(MESH_PAIR, vortices=[{"triangle": 0, "bary": [0.2, 0.2], "nearest": [0, 0, 1],
                                   "strength": 1.0}, MESH_PAIR["vortices"][1]]),
        dict(MESH_PAIR, vortices=[{"triangle": 0, "nearest": [0, 0, 1], "strength": 1.0},
                                  MESH_PAIR["vortices"][1]]),
        dict(MESH_PAIR, vortices=MESH_PAIR["vortices"][:1],
             balance={"counter_vortex": {"bary": [0.2, 0.2], "nearest": [0, 0, -1]}}),
        dict(MESH_PAIR, sampler={"count": 2, "region": {"cap": {"center": [0, 0, 1], "angle": 0.3}}}),
    ], ids=["box_and_disk", "triangle_and_nearest", "triangle_without_bary_and_nearest",
            "counter_bary_and_nearest", "mesh_sampler_region"])
    def test_conflicting_keys_are_refused(self, tmp_path, doc, capsys):
        # each names two things where one is read, or one that is never read
        save_obj(icosphere(2), tmp_path / "ico.obj")
        scn = write_scenario(tmp_path, doc)
        with pytest.raises(ScenarioError, match="not both|must not"):
            load_scenario(scn)
        assert main(["run", scn, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("grid", [
        {"kind": "plane_grid", "xmin": -1, "nx": 3, "ymin": -1, "ymax": 1, "ny": 3},
        {"kind": "plane_grid", "xmin": -1, "xmax": 1, "nx": -3, "ymin": -1, "ymax": 1, "ny": 3},
        {"kind": "ring", "count": 8},
        {"kind": "ring", "radius": "one", "count": 8},
        {"kind": "ring", "radius": 1.0, "count": 8, "center": [0.0]},
        {"kind": "sphere_grid", "n_polar": 4},
        {"kind": "surface_samples", "count": 10},
        {"kind": "hexagons"},
        [1, 2],
        {"kind": "sphere_grid", "n_polar": 10**9, "n_azimuth": 10**9},
    ], ids=["no_xmax", "negative_nx", "no_radius", "radius_text", "short_center",
            "no_n_azimuth", "samples_on_plane", "unknown_kind", "not_object", "huge"])
    def test_bad_field_grid_fails_before_compute(self, tmp_path, grid, monkeypatch):
        import surfvort.cli as cli_mod

        def no_compute(*args, **kwargs):
            raise AssertionError("computed before the grid was checked")

        monkeypatch.setattr(cli_mod, "build_run", no_compute)
        doc = dict(PAIR_SCENARIO, outputs={"field_grid": grid})
        with pytest.raises(ScenarioError):
            parse_scenario(doc)
        out = tmp_path / "out"
        assert main(["run", write_scenario(tmp_path, doc), "--out", str(out)]) == 1
        assert not out.exists()
        scn = write_scenario(tmp_path, PAIR_SCENARIO, name="plain.json")
        assert main(["field", scn, "--grid", json.dumps(grid), "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("bound, at_bound, over", [
        ("MAX_VORTICES", {"samplers": [{"count": 9000}, {"count": 998}]},
         {"samplers": [{"count": 9000}, {"count": 999}]}),
        ("MAX_RECORDS", {"integrator": {"dt": 0.01, "steps": 9_999_999}},
         {"integrator": {"dt": 0.01, "steps": 10_000_000}}),
        ("MAX_FIELD_POINTS",
         {"outputs": {"field_grid": {"kind": "sphere_grid", "n_polar": 1000, "n_azimuth": 1000}}},
         {"outputs": {"field_grid": {"kind": "sphere_grid", "n_polar": 1000, "n_azimuth": 1001}}}),
        ("MAX_FIELD_PAIRS",
         {"sampler": {"count": 98},
          "outputs": {"field_grid": {"kind": "ring", "radius": 2.0, "count": 10**6}}},
         {"sampler": {"count": 99},
          "outputs": {"field_grid": {"kind": "ring", "radius": 2.0, "count": 10**6}}}),
    ])
    def test_resource_bounds(self, bound, at_bound, over):
        # parsing alone: nothing the bounds guard is allocated
        assert getattr(scenario_module, bound) > 0
        parse_scenario(dict(PAIR_SCENARIO, **at_bound))
        with pytest.raises(ScenarioError, match=bound):
            parse_scenario(dict(PAIR_SCENARIO, **over))


class TestBalance:
    """Vorticity balance, which parsing settles and `build_run` applies."""

    def test_balanced_input_passes_through(self):
        for balance in ("reject", {"counter_vortex": [0.0, 5.0]}):
            doc = plane_doc([[1, 0], [-1, 0]], [1.0, -1.0], balance)
            system = build_run(parse_scenario(doc)).system
            assert len(system) == 2 and system.total_strength == 0.0

    def test_counter_vortex_appended(self):
        doc = plane_doc([[1, 0], [0, 1], [-1, 0]], [0.5, 0.25, 0.75],
                        {"counter_vortex": [0.0, -3.0]})
        system = build_run(parse_scenario(doc)).system
        assert len(system) == 4
        assert system.strengths[-1] == -1.5
        assert system.positions[-1].tolist() == [0.0, -3.0, 0.0]
        assert system.total_strength == 0.0

    def test_reject_mode_raises(self):
        with pytest.raises(ScenarioError, match="total vorticity 1 must vanish"):
            parse_scenario(plane_doc([[1, 0], [-1, 0]], [1.0, 0.0], "reject"))

    def test_counter_on_existing_vortex_rejected(self):
        doc = plane_doc([[1, 0], [-1, 0]], [1.0, 1.0], {"counter_vortex": [1.0, 0.0]})
        scenario = parse_scenario(doc)
        with pytest.raises(ScenarioError, match="vortices 0 and 2 are separated"):
            build_run(scenario)


class TestRunCommand:
    def test_planar_pair_outputs(self, tmp_path):
        scn = write_scenario(tmp_path, PAIR_SCENARIO)
        out = str(tmp_path / "out")
        assert main(["run", scn, "--out", out]) == 0
        rows = (tmp_path / "out" / "trajectories.csv").read_text().strip().splitlines()
        assert rows[0] == "step,time,id,mx,my,mz,sx,sy,sz"
        assert len(rows) == 1 + 2 * 51
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["collision"] is None
        assert manifest["energy"]["max_drift_rel"] < 1e-9
        # straight-line motion: |mx| stays at 1 for both vortices
        xs = np.array([abs(float(row.split(",")[3])) for row in rows[1:]])
        assert np.abs(xs - 1.0).max() < 1e-9

    def test_byte_identical_reruns(self, tmp_path):
        doc = {
            "geometry": "sphere",
            "sampler": {"count": 8, "seed": 21, "strength": {"law": "uniform", "low": -1, "high": 1}},
            "integrator": {"dt": 0.005, "steps": 40},
            "diagnostics_every": 5,
        }
        scn = write_scenario(tmp_path, doc)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["run", scn, "--out", str(out)]) == 0
            outs.append(out)
        for fname in ("trajectories.csv", "energy.csv"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", str(bad)]) == 1

    def test_topology_rejection_exit_code(self, tmp_path):
        save_obj(torus_mesh(), tmp_path / "torus.obj")
        doc = {
            "geometry": {"mesh": "torus.obj"},
            "vortices": [
                {"nearest": [1.4, 0, 0], "strength": 1.0},
                {"nearest": [-1.4, 0, 0], "strength": -1.0},
            ],
            "integrator": {"dt": 0.01, "steps": 1},
        }
        assert main(["run", write_scenario(tmp_path, doc)]) == 2

    def test_nonconvergence_exit_code(self, tmp_path):
        save_obj(ellipsoid(1, 1, 1.5, subdivisions=2), tmp_path / "ell.obj")
        doc = {
            "geometry": {"mesh": "ell.obj"},
            "vortices": [
                {"nearest": [0, 0, 1.4], "strength": 1.0},
                {"nearest": [0, 0, -1.4], "strength": -1.0},
            ],
            "conformal": {"delta": 0.1, "tol": 1e-9, "max_iters": 3},
            "integrator": {"dt": 0.01, "steps": 1},
        }
        assert main(["run", write_scenario(tmp_path, doc)]) == 3

    def test_collision_exit_code_and_partial_outputs(self, tmp_path, monkeypatch):
        import surfvort.cli as cli_mod

        def fake_integrate(system, rhs, config, **kwargs):
            return RunResult(records=system.positions[None], source_positions=None,
                             diagnostics=np.zeros((1, 3)),
                             collision_step=1, collision_message="pair collided")

        monkeypatch.setattr(cli_mod, "integrate", fake_integrate)
        scn = write_scenario(tmp_path, PAIR_SCENARIO)
        out = tmp_path / "out"
        assert main(["run", scn, "--out", str(out)]) == 4
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["collision"]["step"] == 1
        assert (out / "trajectories.csv").exists()

    def test_non_finite_state_is_flagged_not_written(self, tmp_path):
        # dt = 1e300 carries the vortices far enough in a few steps that their
        # squared distances overflow; the manifest must stay strict JSON
        doc = dict(presets()["taylor_plane"], integrator={"dt": 1e300, "steps": 20})
        out = tmp_path / "out"
        with np.errstate(all="ignore"):
            assert main(["run", write_scenario(tmp_path, doc), "--out", str(out)]) == 4

        def reject(constant):
            raise AssertionError(f"manifest holds {constant}")

        manifest = json.loads((out / "manifest.json").read_text(), parse_constant=reject)
        stop = manifest["collision"]["step"]
        assert 0 < stop <= 20 and "non-finite" in manifest["collision"]["message"]
        rows = (out / "trajectories.csv").read_text().splitlines()[1:]
        assert len(rows) == stop * manifest["vortex_count"]
        assert all(math.isfinite(float(v)) for row in rows for v in row.split(",")[3:6])

    @pytest.mark.parametrize("name", ["kimura_sphere", "leapfrog_mesh", "leapfrog_plane"])
    def test_overflowing_step_is_flagged_with_its_own_message(self, tmp_path, capsys, name):
        # dt = 1e300 overflows the stage points' squared lengths in the first step, or on the
        # plane the squared separations of stage points near +-1e299
        path = scenario_module.materialize_preset(name, str(tmp_path))
        with open(path) as fh:
            doc = json.load(fh)
        doc["integrator"] = {"dt": 1e300, "steps": 3}
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the run
            assert main(["run", write_scenario(tmp_path, doc), "--out", str(out)]) == 4
        captured = capsys.readouterr()
        assert captured.err == (f"stopped at step 1 (step overflowed: non-finite state): "
                                f"partial trajectory kept in {out}\n")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["collision"] == {"step": 1, "message": "step overflowed: non-finite state"}

    def test_positions_too_large_to_sum_are_flagged(self, tmp_path, capsys):
        # each coordinate is finite, but their sum in the step's finiteness check overflows
        doc = dict(PAIR_SCENARIO, integrator={"dt": 0.01, "steps": 3}, vortices=[
            {"position": [1e308, 0.0], "strength": -1.0},
            {"position": [1e308, 1.0], "strength": 1.0},
        ])
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", write_scenario(tmp_path, doc), "--out", str(out)]) == 4
        captured = capsys.readouterr()
        assert captured.err == (f"stopped at step 1 (step overflowed: non-finite state): "
                                f"partial trajectory kept in {out}\n")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["collision"] == {"step": 1, "message": "step overflowed: non-finite state"}

    def test_self_term_sign_override_recorded(self, tmp_path):
        mesh_path = tmp_path / "ico.obj"
        save_obj(icosphere(2), mesh_path)
        doc = {
            "geometry": {"mesh": "ico.obj"},
            "vortices": [
                {"nearest": [0, 0, 1], "strength": 1.0},
                {"nearest": [0, 0, -1], "strength": -1.0},
            ],
            "integrator": {"dt": 0.01, "steps": 2},
        }
        scn = write_scenario(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["run", scn, "--out", str(out), "--self-term-sign", "-1"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["parameters"]["self_term_sign"] == -1
        assert manifest["mesh"]["content_hash"]
        assert len(manifest["mesh"]["content_hash"]) == 40


class TestConformalMapCommand:
    def test_icosphere_report(self, tmp_path):
        save_obj(icosphere(3), tmp_path / "ico.obj")
        out = tmp_path / "map"
        assert main(["conformal-map", str(tmp_path / "ico.obj"), "--out", str(out)]) == 0
        factors = np.loadtxt(out / "factors.csv", delimiter=",", skiprows=1)
        assert np.abs(factors[:, 2] - 1.0).max() < 1e-3
        report = (out / "report.txt").read_text()
        assert "converged: True" in report
        assert (out / "sphere.obj").exists()
        assert (out / "grad_h.csv").exists()

    def test_radius_two_sphere_factors(self, tmp_path):
        save_obj(icosphere(3, radius=2.0), tmp_path / "r2.obj")
        out = tmp_path / "map"
        assert main(["conformal-map", str(tmp_path / "r2.obj"), "--out", str(out)]) == 0
        factors = np.loadtxt(out / "factors.csv", delimiter=",", skiprows=1)
        assert np.abs(factors[:, 2] - 2.0).max() / 2.0 < 1e-3

    def test_open_mesh_exit_code(self, tmp_path):
        (tmp_path / "tri.obj").write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
        assert main(["conformal-map", str(tmp_path / "tri.obj")]) == 2


class TestFieldCommand:
    def test_ring_around_single_vortex(self, tmp_path):
        doc = {
            "geometry": "plane",
            "vortices": [{"position": [0.0, 0.0], "strength": 1.0}],
            "integrator": {"dt": 0.01, "steps": 1},
        }
        scn = write_scenario(tmp_path, doc)
        grid = json.dumps({"kind": "ring", "center": [0.0, 0.0], "radius": 1.0, "count": 32})
        out = tmp_path / "out"
        assert main(["field", scn, "--grid", grid, "--out", str(out)]) == 0
        rows = [r for r in (out / "field.csv").read_text().splitlines() if not r.startswith("#")]
        assert rows[0] == "x,y,z,ux,uy,uz,psi"
        data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
        speeds = np.linalg.norm(data[:, 3:6], axis=1)
        np.testing.assert_allclose(speeds, 1.0 / (2 * math.pi), rtol=1e-12)
        np.testing.assert_allclose(data[:, 6], 0.0, atol=1e-15)  # psi = 0 on the unit circle

    @pytest.mark.parametrize("grid", [
        {"kind": "ring", "radius": 1.0, "count": 0},
        {"kind": "plane_grid", "xmin": -1, "xmax": 1, "nx": 0, "ymin": -1, "ymax": 1, "ny": 3},
    ], ids=["empty_ring", "empty_plane_grid"])
    def test_empty_grid_writes_header_only(self, tmp_path, grid):
        scn = write_scenario(tmp_path, PAIR_SCENARIO)
        out = tmp_path / "out"
        assert main(["field", scn, "--grid", json.dumps(grid), "--out", str(out)]) == 0
        assert (out / "field.csv").read_text() == "# skipped_near_vortex: 0\nx,y,z,ux,uy,uz,psi\n"

    def test_closed_surface_field_flags_stream_unsupported(self, tmp_path):
        save_obj(icosphere(2), tmp_path / "ico.obj")
        doc = {
            "geometry": {"mesh": "ico.obj"},
            "vortices": [
                {"nearest": [0, 0, 1], "strength": 1.0},
                {"nearest": [0, 0, -1], "strength": -1.0},
            ],
            "integrator": {"dt": 0.01, "steps": 1},
        }
        scn = write_scenario(tmp_path, doc)
        grid = json.dumps({"kind": "surface_samples", "count": 50, "seed": 3})
        out = tmp_path / "out"
        assert main(["field", scn, "--grid", grid, "--out", str(out)]) == 0
        text = (out / "field.csv").read_text()
        assert "# stream_function: unsupported on closed surfaces" in text
        header = [r for r in text.splitlines() if not r.startswith("#")][0]
        assert header == "x,y,z,ux,uy,uz"

    def test_grid_points_on_vortices_are_skipped(self, tmp_path):
        doc = {
            "geometry": "plane",
            "vortices": [{"position": [0.0, 0.0], "strength": 1.0}],
            "integrator": {"dt": 0.01, "steps": 1},
        }
        scn = write_scenario(tmp_path, doc)
        grid = json.dumps({"kind": "plane_grid", "xmin": -1, "xmax": 1, "nx": 3,
                           "ymin": -1, "ymax": 1, "ny": 3})
        out = tmp_path / "out"
        assert main(["field", scn, "--grid", grid, "--out", str(out)]) == 0
        text = (out / "field.csv").read_text()
        assert "# skipped_near_vortex: 1" in text

    def test_sphere_point_inside_guard_is_skipped(self, tmp_path):
        # a vortex 5e-10 rad from grid point 18, whose dot product with it is
        # below 1, so that arccos reads 1.5e-8 rad; its chord is inside the guard
        grid = {"kind": "sphere_grid", "n_polar": 4, "n_azimuth": 8}
        pts, _ = _grid_points(grid, None)
        tangent = np.cross(pts[18], [0.0, 0.0, 1.0])
        near = normalize_rows(pts[18] + 5e-10 * tangent / np.linalg.norm(tangent))
        doc = {
            "geometry": "sphere",
            "vortices": [{"position": near.tolist(), "strength": 1.0},
                         {"position": [0.0, 0.0, -1.0], "strength": -1.0}],
            "integrator": {"dt": 0.01, "steps": 1},
        }
        scn = write_scenario(tmp_path, doc)
        vortex = build_run(load_scenario(scn)).system.positions[0]
        assert (pts @ vortex)[18] < 1.0 and np.linalg.norm(pts[18] - vortex) < 1e-9
        out = tmp_path / "out"
        assert main(["field", scn, "--grid", json.dumps(grid), "--out", str(out)]) == 0
        text = (out / "field.csv").read_text()
        assert "# skipped_near_vortex: 1" in text
        rows = np.array([[float(v) for v in r.split(",")] for r in text.splitlines()[2:]])
        np.testing.assert_array_equal(rows[:, :3], np.delete(pts, 18, axis=0))
        assert np.isfinite(rows).all()


class TestSampleCommand:
    @pytest.mark.parametrize("argv", [
        ["sample", "--count", "-1", "--seed", "0"],
        ["sample", "--count", "1", "--seed", "-1"],
        ["sample", "--count", "1", "--seed", "0", "--delta", "-1"],
        ["sample", "--count", "1", "--seed", "0", "--tol", "nan"],
        ["sample", "--count", "1", "--seed", "0", "--max-iters", "0"],
        ["conformal-map", "--delta", "inf"],
        ["conformal-map", "--tol", "0"],
        ["conformal-map", "--max-iters", "-1"],
    ], ids=["count", "seed", "delta", "tol", "max_iters", "map_delta", "map_tol", "map_max_iters"])
    def test_bad_flag_fails_before_the_mesh_is_read(self, tmp_path, argv, monkeypatch, capsys):
        def no_load(*args, **kwargs):
            raise AssertionError("mesh read before the flags were checked")

        save_obj(icosphere(2), tmp_path / "ico.obj")
        monkeypatch.setattr(cli, "load_obj", no_load)
        out = tmp_path / "out"
        assert main([argv[0], str(tmp_path / "ico.obj"), *argv[1:], "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_zero_count_header_only(self, tmp_path):
        save_obj(icosphere(2), tmp_path / "ico.obj")
        out = tmp_path / "out"
        assert main(["sample", str(tmp_path / "ico.obj"), "--count", "0", "--seed", "1",
                     "--out", str(out)]) == 0
        lines = (out / "sample.csv").read_text().splitlines()
        assert lines == ["triangle,s,t,sx,sy,sz,mx,my,mz"]

    def test_seed_reproducibility_bytes(self, tmp_path):
        save_obj(icosphere(2), tmp_path / "ico.obj")
        blobs = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            assert main(["sample", str(tmp_path / "ico.obj"), "--count", "200", "--seed", "9",
                         "--out", str(out)]) == 0
            blobs.append((out / "sample.csv").read_bytes())
        assert blobs[0] == blobs[1]


class TestLocateTraffic:
    """Sphere-mesh point location on closed surfaces, counted call by call."""

    DOC = {
        "geometry": {"mesh": "ell.obj"},
        "vortices": [{"nearest": [0.3, 0.0, 1.2], "strength": 1.0},
                     {"nearest": [-0.3, 0.0, 1.2], "strength": -1.0}],
        "integrator": {"dt": 0.01, "steps": 12},
        "conformal": {"tol": 2e-2},
        "diagnostics_every": 5,
        "outputs": {"field_grid": {"kind": "surface_samples", "count": 40, "seed": 1}},
    }

    def test_mesh_run_locates_five_times_a_step(self, tmp_path, monkeypatch):
        # four hinted RHS stages and one map-back a step, one map-back at step 0,
        # and one cold locate per diagnosed row (steps 0, 5, 10 and 12): the
        # traced transport.locate_calls of the mesh_blob benchmark, 5 x 60 + 1 + 7
        # = 308, counts the same calls
        save_obj(ellipsoid(1.0, 1.0, 1.3, subdivisions=2), tmp_path / "ell.obj")
        calls = []
        locate = SphereLocator.locate

        def counted(self, points, hints=None):
            calls.append(hints is None)
            return locate(self, points, hints)

        monkeypatch.setattr(SphereLocator, "locate", counted)
        assert main(["run", write_scenario(tmp_path, self.DOC), "--out", str(tmp_path / "out")]) == 0
        assert len(calls) == 5 * 12 + 1 + 4
        assert calls.count(True) == 4

    def test_surface_samples_field_builds_no_locator(self, tmp_path):
        # the samples carry their (tri, st), so the field never locates: building
        # the locator for it would cost about 15 ms on the mesh_blob benchmark
        save_obj(ellipsoid(1.0, 1.0, 1.3, subdivisions=2), tmp_path / "ell.obj")
        scenario = load_scenario(write_scenario(tmp_path, self.DOC))
        prepared = build_run(scenario)
        cli._write_field(str(tmp_path / "field.csv"), prepared, scenario.outputs.field_grid)
        assert prepared.atlas._locator is None
        assert len((tmp_path / "field.csv").read_text().splitlines()) == 3 + 40


class TestPresets:
    def test_listing(self, capsys):
        assert main(["preset", "--list"]) == 0
        names = capsys.readouterr().out.split()
        for required in ("kimura_plane", "leapfrog_plane", "random_cloud", "taylor"):
            assert required in names

    def test_unknown_preset(self):
        assert main(["preset", "does_not_exist", "--out", "/tmp"]) == 1

    def test_every_preset_parses(self, tmp_path):
        for name, doc in presets().items():
            base = tmp_path / name
            base.mkdir()
            assert main(["preset", name, "--out", str(base)]) == 0
            scenario = load_scenario(base / f"{name}.json")
            assert scenario.integrator.steps > 0

    def test_kimura_plane_preset_runs_straight(self, tmp_path):
        assert main(["preset", "kimura_plane", "--out", str(tmp_path)]) == 0
        out = tmp_path / "out"
        assert main(["run", str(tmp_path / "kimura_plane.json"), "--out", str(out)]) == 0
        rows = (out / "trajectories.csv").read_text().strip().splitlines()[1:]
        xs = np.array([float(r.split(",")[3]) for r in rows])
        assert np.abs(np.abs(xs) - 1.0).max() < 1e-9


def read_table(path):
    """Header and rows of a CLI CSV, comment lines dropped; cells stay strings."""
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def floats(rows, cols):
    return np.array([[float(r[j]) for j in cols] for r in rows]).reshape(len(rows), len(cols))


@pytest.fixture()
def captured(monkeypatch):
    """Results of the CLI's integration and field evaluations, as its writers got them."""
    import surfvort.cli as cli_mod

    seen = {}
    for name in ("integrate", "planar_field_velocity", "sphere_field_velocity",
                 "surface_field_velocity", "stream_function"):
        def spy(*args, _name=name, _original=getattr(cli_mod, name), **kwargs):
            out = _original(*args, **kwargs)
            seen[_name] = (args, out)
            return out

        monkeypatch.setattr(cli_mod, name, spy)
    return seen


class TestOutputRoundTrip:
    """CSV values parsed back with float() equal the arrays behind them bit for bit."""

    def run_scenario(self, tmp_path, doc, expect=0):
        out = tmp_path / "out"
        assert main(["run", write_scenario(tmp_path, doc), "--out", str(out)]) == expect
        return out

    def check_trajectories(self, out, result, dt, geometry):
        header, rows = read_table(out / "trajectories.csv")
        assert header == ["step", "time", "id", "mx", "my", "mz", "sx", "sy", "sz"]
        k, n, _ = result.records.shape
        steps = np.repeat(np.arange(k), n)
        assert np.array_equal([int(r[0]) for r in rows], steps)
        assert np.array_equal(floats(rows, [1])[:, 0], steps * dt)
        assert np.array_equal([int(r[2]) for r in rows], np.tile(np.arange(n), k))
        m, s = floats(rows, [3, 4, 5]), result.records.reshape(-1, 3)
        if geometry == "closed_surface":
            assert np.array_equal(m, result.source_positions.reshape(-1, 3))
            assert not np.array_equal(m, s)
        else:
            assert np.array_equal(m, s)
        if geometry == "plane":
            assert all(r[6:] == ["", "", ""] for r in rows)
        else:
            assert np.array_equal(floats(rows, [6, 7, 8]), s)

    def check_energy(self, out, result, dt, total, geometry):
        header, rows = read_table(out / "energy.csv")
        assert header == ["step", "time", "E", "H_tilde", "total_vorticity"]
        diag = result.diagnostics
        assert np.array_equal([int(r[0]) for r in rows], diag[:, 0])
        assert np.array_equal(floats(rows, [1, 2]), np.column_stack([diag[:, 0] * dt, diag[:, 1]]))
        if geometry == "closed_surface":
            assert np.array_equal(floats(rows, [3])[:, 0], diag[:, 2])
        else:
            assert all(r[3] == "" for r in rows)
        assert np.array_equal(floats(rows, [4])[:, 0], np.full(len(rows), total))

    def check_field(self, out, captured, velocity):
        (pts, *_), vel = captured[velocity]
        columns = [pts, vel]
        if "stream_function" in captured:
            columns.append(captured["stream_function"][1])
        _, rows = read_table(out / "field.csv")
        assert np.array_equal(floats(rows, range(len(rows[0]))), np.column_stack(columns))

    def test_write_rows_matches_per_value_repr(self, monkeypatch):
        # the reference is the per-value loop the writers used before block conversion
        from surfvort import numerics

        formatted = []
        strings = numerics._strings
        monkeypatch.setattr(numerics, "_strings", lambda b: formatted.append(len(b)) or strings(b))
        rng = np.random.default_rng(8)
        for rows in (1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS - 1,
                     2 * BLOCK_ROWS + 1):
            ints = rng.integers(0, 2**40, rows)
            values = rng.normal(size=(rows, 3)) * 10.0 ** rng.integers(-300, 300, (rows, 3))
            values[:4, 0] = [math.nan, math.inf, -0.0, 5e-324][:rows]
            values[-4:, 2] = [5e-324, -math.inf, -0.0, math.nan][-rows:]
            labels = [f"s{i}" for i in range(rows)]
            formatted.clear()
            fh = io.StringIO()
            write_rows(fh, "%s,%s,,%s;%s;%s;%s\n", ints, values[:, :2], values[:, 2], labels,
                       values, values)
            expected = "".join(
                f"{i}," + ",".join(repr(float(v)) for v in row[:2]) + f",,{row[2]!r};{label};"
                + ",".join(map(repr, row)) + ";" + ",".join(map(repr, row)) + "\n"
                for i, row, label in zip(ints.tolist(), values.tolist(), labels))
            assert fh.getvalue() == expected
            # five distinct columns a block, the one passed twice formatted once
            blocks = -(-rows // BLOCK_ROWS)
            assert len(formatted) == 5 * blocks and max(formatted) <= BLOCK_ROWS

    @pytest.mark.parametrize("geometry", ["plane", "sphere", "closed_surface"])
    @pytest.mark.parametrize("n", [1, 5, 1000])
    def test_trajectory_rows_match_per_value_repr(self, tmp_path, geometry, n):
        # 1,000 vortices make one step wider than a block; 5 leave a part-filled last block
        rng = np.random.default_rng(n)
        k = 2 if n == 1000 else BLOCK_ROWS // n * 2 + 3
        records = normalize_rows(rng.normal(size=(k, n, 3)))
        source = rng.normal(size=(k, n, 3)) if geometry == "closed_surface" else None
        if geometry == "plane":
            records[..., 2] = 0.0
        result = RunResult(records, source, np.empty((0, 3)))
        path = tmp_path / "trajectories.csv"
        cli._write_trajectories(str(path), result, geometry, 0.003)
        m = records if source is None else source
        lines = ["step,time,id,mx,my,mz,sx,sy,sz"]
        for step, i in itertools.product(range(k), range(n)):
            s = ",".join(map(repr, records[step, i].tolist()))
            tail = ",," if geometry == "plane" else s
            lines.append(f"{step},{step * 0.003!r},{i},"
                         + ",".join(map(repr, m[step, i].tolist())) + f",{tail}")
        assert path.read_text() == "\n".join(lines) + "\n"

    @pytest.mark.parametrize("name", ["random_cloud_plane", "taylor_plane", "few"])
    def test_plane_sampler_runs_keep_z_positive_zero(self, name):
        # the trajectory writer prints plane z as the literal 0.0
        doc = copy.deepcopy(presets()["random_cloud_plane" if name == "few" else name])
        doc["integrator"]["steps"] = 30
        if name == "few":  # few-vortex loop, with a counter vortex at z = +0.0
            doc["sampler"]["count"] = 4
            doc["balance"] = {"counter_vortex": [0.0, 1.5]}
        scenario = parse_scenario(doc)
        system = build_run(scenario).system
        result = run(system, make_rhs(system), scenario.integrator)
        z = result.records[..., 2]
        assert result.completed and len(result.records) == 31
        assert np.all(z == 0.0) and not np.signbit(z).any()

    def test_plane(self, tmp_path, captured):
        doc = {
            "geometry": "plane",
            "vortices": [
                {"position": [0.0, 0.5], "strength": 1.0},
                {"position": [0.0, -0.5], "strength": -1.0},
                {"position": [-1.0, 0.5], "strength": 0.7},
            ],
            "integrator": {"dt": 0.013, "steps": 30},
            "diagnostics_every": 7,
            "outputs": {"field_grid": {"kind": "plane_grid", "xmin": -2, "xmax": 2, "nx": 9,
                                       "ymin": -1.5, "ymax": 1.5, "ny": 7}},
        }
        out = self.run_scenario(tmp_path, doc)
        result = captured["integrate"][1]
        assert result.diagnostics[:, 0].tolist() == [0, 7, 14, 21, 28, 30]
        self.check_trajectories(out, result, 0.013, "plane")
        self.check_energy(out, result, 0.013, 0.7, "plane")
        self.check_field(out, captured, "planar_field_velocity")

    def test_sphere(self, tmp_path, captured):
        doc = {
            "geometry": "sphere",
            "sampler": {"count": 6, "seed": 5,
                        "strength": {"law": "uniform", "low": -1, "high": 1}},
            "integrator": {"dt": 0.01, "steps": 25},
            "diagnostics_every": 5,
            "outputs": {"field_grid": {"kind": "sphere_grid", "n_polar": 5, "n_azimuth": 8}},
        }
        out = self.run_scenario(tmp_path, doc)
        result = captured["integrate"][1]
        total = json.loads((out / "manifest.json").read_text())["total_vorticity"]
        self.check_trajectories(out, result, 0.01, "sphere")
        self.check_energy(out, result, 0.01, total, "sphere")
        self.check_field(out, captured, "sphere_field_velocity")

    def test_closed_surface(self, tmp_path, captured):
        save_obj(ellipsoid(1.0, 1.0, 1.3, subdivisions=2), tmp_path / "ell.obj")
        doc = {
            "geometry": {"mesh": "ell.obj"},
            "vortices": [
                {"nearest": [0.3, 0.0, 1.2], "strength": 1.0},
                {"nearest": [-0.3, 0.0, 1.2], "strength": -1.0},
            ],
            "integrator": {"dt": 0.01, "steps": 12},
            "conformal": {"tol": 2e-2},
            "diagnostics_every": 5,
            "outputs": {"field_grid": {"kind": "surface_samples", "count": 40, "seed": 1}},
        }
        out = self.run_scenario(tmp_path, doc)
        result = captured["integrate"][1]
        assert result.source_positions.shape == result.records.shape
        self.check_trajectories(out, result, 0.01, "closed_surface")
        self.check_energy(out, result, 0.01, 0.0, "closed_surface")
        self.check_field(out, captured, "surface_field_velocity")

    def test_collided_run_keeps_partial_trajectory(self, tmp_path, monkeypatch):
        import surfvort.cli as cli_mod

        seen = {}

        def collide_in_step_5(system, rhs, config, **kwargs):
            calls = itertools.count()

            def failing_rhs(p):
                if next(calls) >= 16:  # 4 evaluations a step: steps 1..4 complete
                    raise SingularityError("vortices 0 and 1 collided")
                return rhs(p)

            seen["result"] = run(system, failing_rhs, config, **kwargs)
            return seen["result"]

        monkeypatch.setattr(cli_mod, "integrate", collide_in_step_5)
        doc = dict(PAIR_SCENARIO, diagnostics_every=3)
        out = self.run_scenario(tmp_path, doc, expect=4)
        result = seen["result"]
        assert result.collision_step == 5 and len(result.records) == 5
        assert result.diagnostics[:, 0].tolist() == [0, 3]
        self.check_trajectories(out, result, 0.01, "plane")
        self.check_energy(out, result, 0.01, 0.0, "plane")
        assert json.loads((out / "manifest.json").read_text())["collision"]["step"] == 5
