"""Workload inputs, made from the benchmark seed.

Each workload is a list of CLI commands over scenario files that this module
writes. The program receives only these files; every random choice is drawn
here from ``numpy.random.default_rng(seed)``.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("mesh_blob", "flat_large_n", "flat_long")

# Bounds on the relative drift of conserved quantities: c12's bound for the
# short large-n and mesh runs, c03's for the long few-vortex runs.
DRIFT_BOUND = {"mesh_blob": 1e-3, "flat_large_n": 1e-3, "flat_long": 1e-5}


@dataclass
class Run:
    """One `surfvort run` command and what the checks need to know about it."""

    name: str
    geometry: str                  # "plane" | "sphere" | "mesh"
    strengths: list[float]         # in output id order; the counter vortex last
    dt: float
    steps: int
    diagnostics_every: int
    closed_form: str | None = None  # "kimura" | "sphere_pair"

    @property
    def diagnostics_rows(self) -> int:
        """energy.csv rows: step 0, every diagnostics_every-th step and the last."""
        return self.steps // self.diagnostics_every + 1 + (self.steps % self.diagnostics_every > 0)


@dataclass
class Field:
    """One `surfvort field` command over the scenario of a run."""

    run: str
    grid: dict


@dataclass
class Workload:
    name: str
    runs: list[Run] = field(default_factory=list)
    fields: list[Field] = field(default_factory=list)
    mesh: str | None = None        # source OBJ, relative to the input directory

    def commands(self, in_dir: str, out_dir: str) -> list[tuple[str, list[str]]]:
        """(label, argv) pairs in execution order: every run, then every field."""
        cmds = []
        for r in self.runs:
            cmds.append((f"run:{r.name}", [
                "run", os.path.join(in_dir, f"{r.name}.json"),
                "--out", os.path.join(out_dir, r.name)]))
        for f in self.fields:
            cmds.append((f"field:{f.run}", [
                "field", os.path.join(in_dir, f"{f.run}.json"),
                "--grid", json.dumps(f.grid, sort_keys=True),
                "--out", os.path.join(out_dir, f"field_{f.run}")]))
        return cmds


def grid_size(grid: dict) -> int:
    """Number of points a field grid spec asks for."""
    kind = grid["kind"]
    if kind == "plane_grid":
        return grid["nx"] * grid["ny"]
    if kind == "sphere_grid":
        return grid["n_polar"] * grid["n_azimuth"]
    return grid["count"]


def _seed32(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_obj(path: str, vertices: np.ndarray, triangles: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for x, y, z in vertices:
            fh.write(f"v {float(x)!r} {float(y)!r} {float(z)!r}\n")
        for i, j, k in triangles:
            fh.write(f"f {i + 1} {j + 1} {k + 1}\n")


def _scenario(geometry, dt, steps, diagnostics_every, **extra) -> dict:
    doc = {
        "geometry": geometry,
        "integrator": {"dt": dt, "steps": steps},
        "outputs": {"trajectories": True, "energy": True},
        "diagnostics_every": diagnostics_every,
    }
    doc.update(extra)
    return doc


def _spread_points(n: int, draw, far_enough) -> list[np.ndarray]:
    pts: list[np.ndarray] = []
    while len(pts) < n:
        c = draw()
        if all(far_enough(c, p) for p in pts):
            pts.append(c)
    return pts


def _rotation(rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    return q if np.linalg.det(q) > 0 else -q


# ---------------------------------------------------------------------------
# The three workloads
# ---------------------------------------------------------------------------

MESH_SUBDIVISIONS = 5          # bumpy_sphere(5): 10,242 vertices, 20,480 triangles
MESH_SAMPLED = 120
MESH_STRENGTH = 0.01
MESH_STEPS = 60
MESH_COUNTER_AT = (0.0, 0.0, -1.5)
FIELD_SAMPLES = 2000
# Least distances on the source mesh between sampled vortices, and from each
# to the counter vortex (strength -1.2), as c03 keeps its vortices apart. At
# dt = 0.005 RK4 cannot follow a vortex orbiting the counter closer than
# about 0.02, or another sample closer than about 0.003. Without the gaps,
# one seed in 15 moved H_tilde by 7e-5, a hundred times the others; by area,
# about one seed in a hundred would put a sample inside 0.02 of the counter,
# where the 1e-3 bound breaks.
MESH_MIN_GAP = 0.01
MESH_MIN_COUNTER_GAP = 0.1


def _area_samples(rng, vertices, triangles, count, far_enough) -> list[dict]:
    """Area-weighted locations {triangle, bary}, redrawn until `far_enough` accepts."""
    a, b, c = (vertices[triangles[:, i]] for i in range(3))
    areas = 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)
    p = areas / areas.sum()
    locs, pts = [], []
    while len(locs) < count:
        t = int(rng.choice(len(p), p=p))
        sq, r2 = math.sqrt(rng.random()), rng.random()
        s_, t_ = sq * (1.0 - r2), sq * r2
        x = a[t] + s_ * (b[t] - a[t]) + t_ * (c[t] - a[t])
        if far_enough(x, pts):
            locs.append({"triangle": t, "bary": [s_, t_]})
            pts.append(x)
    return locs


def mesh_blob(rng, in_dir: str) -> Workload:
    from surfvort.shapes import bumpy_sphere

    blob = bumpy_sphere(MESH_SUBDIVISIONS)
    verts, tris = np.asarray(blob.vertices), np.asarray(blob.triangles)
    _write_obj(os.path.join(in_dir, "blob.obj"), verts, tris)
    counter = verts[np.argmin(np.linalg.norm(verts - np.array(MESH_COUNTER_AT), axis=1))]

    def far_enough(x, pts):
        return (np.linalg.norm(x - counter) > MESH_MIN_COUNTER_GAP
                and all(np.linalg.norm(x - q) > MESH_MIN_GAP for q in pts))

    vortices = [dict(loc, strength=MESH_STRENGTH)
                for loc in _area_samples(rng, verts, tris, MESH_SAMPLED, far_enough)]
    doc = _scenario(
        {"mesh": "blob.obj"}, 0.005, MESH_STEPS, 10,
        vortices=vortices,
        balance={"counter_vortex": {"nearest": list(MESH_COUNTER_AT)}},
        conformal={"delta": 0.1, "tol": 4e-3, "max_iters": 200},
    )
    doc["outputs"].update(sphere_map=True, factors=True)
    _write_json(os.path.join(in_dir, "blob.json"), doc)
    strengths = [MESH_STRENGTH] * MESH_SAMPLED
    strengths.append(-math.fsum(strengths))
    wl = Workload("mesh_blob", mesh="blob.obj")
    wl.runs.append(Run("blob", "mesh", strengths, 0.005, MESH_STEPS, 10))
    wl.fields.append(Field("blob", {"kind": "surface_samples", "count": FIELD_SAMPLES,
                                    "seed": _seed32(rng)}))
    return wl


LARGE_N_PER_PATCH = 500
LARGE_N_STRENGTH = 0.0024      # taylor presets: 120 x 0.02 = 2.4 in total
LARGE_N_STEPS = 10
# Half the taylor presets' 0.01: the closest of 500 patch vortices sets the
# step, and at 0.01 one seed in 16 drifted by 5.5e-4 against the 1e-3 bound.
LARGE_N_DT = 0.005


def flat_large_n(rng, in_dir: str) -> Workload:
    wl = Workload("flat_large_n")
    law = {"law": "constant", "value": LARGE_N_STRENGTH}
    plane = _scenario("plane", LARGE_N_DT, LARGE_N_STEPS, 10, samplers=[
        {"count": LARGE_N_PER_PATCH, "seed": _seed32(rng), "strength": law,
         "region": {"disk": {"center": [cx, 0.0], "radius": 0.4}}}
        for cx in (-0.55, 0.55)])
    sphere = _scenario("sphere", LARGE_N_DT, LARGE_N_STEPS, 10, samplers=[
        {"count": LARGE_N_PER_PATCH, "seed": _seed32(rng), "strength": law,
         "region": {"cap": {"center": [cx, 0.0, 0.94], "angle": 0.3}}}
        for cx in (0.35, -0.35)])
    strengths = [LARGE_N_STRENGTH] * (2 * LARGE_N_PER_PATCH)
    for name, doc, geom in (("taylor_plane", plane, "plane"), ("taylor_sphere", sphere, "sphere")):
        _write_json(os.path.join(in_dir, f"{name}.json"), doc)
        wl.runs.append(Run(name, geom, strengths, LARGE_N_DT, LARGE_N_STEPS, 10))
    wl.fields.append(Field("taylor_plane", {"kind": "plane_grid", "xmin": -1.5, "xmax": 1.5,
                                            "nx": 41, "ymin": -1.0, "ymax": 1.0, "ny": 41}))
    wl.fields.append(Field("taylor_sphere", {"kind": "sphere_grid",
                                             "n_polar": 24, "n_azimuth": 48}))
    return wl


LONG_STEPS = 10_000


def flat_long(rng, in_dir: str) -> Workload:
    wl = Workload("flat_long")

    # Five equal-sign vortices, as many as c03. Every pair starts more than
    # 1 apart on the plane, so E0 = sum w_i w_j ln r_ij / 2 pi is bounded away
    # from 0 and the relative drift is well defined.
    pts = _spread_points(5, lambda: rng.uniform(-2.5, 2.5, 2),
                         lambda c, p: math.hypot(*(c - p)) > 1.1)
    w = rng.uniform(0.5, 1.0, 5).tolist()
    _write_json(os.path.join(in_dir, "plane5.json"), _scenario(
        "plane", 1e-3, LONG_STEPS, 100,
        vortices=[{"position": p.tolist(), "strength": s} for p, s in zip(pts, w)]))
    wl.runs.append(Run("plane5", "plane", w, 1e-3, LONG_STEPS, 100))

    def unit():
        v = rng.normal(size=3)
        return v / np.linalg.norm(v)

    pts = _spread_points(5, unit, lambda c, p: math.acos(np.clip(c @ p, -1, 1)) > 0.5)
    w = rng.uniform(0.5, 1.0, 5).tolist()
    _write_json(os.path.join(in_dir, "sphere5.json"), _scenario(
        "sphere", 1e-3, LONG_STEPS, 100,
        vortices=[{"position": p.tolist(), "strength": s} for p, s in zip(pts, w)]))
    wl.runs.append(Run("sphere5", "sphere", w, 1e-3, LONG_STEPS, 100))

    # Kimura pair (c01): opposite unit strengths 2 apart, any orientation.
    phi = rng.uniform(0.0, 2.0 * math.pi)
    c = rng.uniform(-1.0, 1.0, 2)
    e = np.array([math.cos(phi), math.sin(phi)])
    _write_json(os.path.join(in_dir, "kimura_plane.json"), _scenario(
        "plane", 0.01, LONG_STEPS, 100,
        vortices=[{"position": (c + e).tolist(), "strength": -1.0},
                  {"position": (c - e).tolist(), "strength": 1.0}]))
    wl.runs.append(Run("kimura_plane", "plane", [-1.0, 1.0], 0.01, LONG_STEPS, 100,
                       closed_form="kimura"))

    # Geodesic sphere pair (c02): 0.1 rad apart, rotated at random.
    rot = _rotation(rng)
    half = 0.05
    pair = rot @ np.array([[math.cos(half), math.sin(half), 0.0],
                           [math.cos(half), -math.sin(half), 0.0]]).T
    _write_json(os.path.join(in_dir, "kimura_sphere.json"), _scenario(
        "sphere", 5e-3, LONG_STEPS, 100,
        vortices=[{"position": pair[:, 0].tolist(), "strength": -1.0},
                  {"position": pair[:, 1].tolist(), "strength": 1.0}]))
    wl.runs.append(Run("kimura_sphere", "sphere", [-1.0, 1.0], 5e-3, LONG_STEPS, 100,
                       closed_form="sphere_pair"))

    wl.fields.append(Field("plane5", {"kind": "plane_grid", "xmin": -3.0, "xmax": 3.0,
                                      "nx": 141, "ymin": -3.0, "ymax": 3.0, "ny": 141}))
    wl.fields.append(Field("sphere5", {"kind": "sphere_grid",
                                       "n_polar": 84, "n_azimuth": 168}))
    return wl


def make(name: str, seed: int, in_dir: str) -> Workload:
    """Write the inputs of workload `name` for `seed` into `in_dir`."""
    os.makedirs(in_dir, exist_ok=True)
    rng = np.random.default_rng(seed)
    return {"mesh_blob": mesh_blob, "flat_large_n": flat_large_n, "flat_long": flat_long}[name](
        rng, in_dir)
