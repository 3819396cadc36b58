import json
import math
import os

import numpy as np
import pytest

from surfvort import save_obj
from surfvort.cli import main
from surfvort.errors import ScenarioError
from surfvort.integrator import RunResult, TrajectoryRecord
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
        scenario = load_scenario(write_scenario(tmp_path, doc))
        assert scenario.balance_mode == "reject"
        with pytest.raises(ScenarioError):
            build_run(scenario)

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
            records = [TrajectoryRecord(step=0, time=0.0, positions=system.positions)]
            return RunResult(records=records, collision_step=1, collision_message="pair collided")

        monkeypatch.setattr(cli_mod, "integrate", fake_integrate)
        scn = write_scenario(tmp_path, PAIR_SCENARIO)
        out = tmp_path / "out"
        assert main(["run", scn, "--out", str(out)]) == 4
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["collision"]["step"] == 1
        assert (out / "trajectories.csv").exists()

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


class TestSampleCommand:
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
