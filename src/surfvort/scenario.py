"""Declarative run descriptions: JSON scenarios, builders and bundled presets.

A scenario is one UTF-8 JSON document describing geometry, vortices (explicit
and/or sampled), the balance policy, integrator and conformal-map parameters,
and output toggles. Building a scenario produces the ready-to-integrate
vortex system plus, for mesh geometry, the conformal atlas and transport
hooks.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import shapes
from .conformal import ConformalAtlas, build_atlas
from .dynamics import (
    CLOSED_SURFACE,
    DEFAULT_SELF_TERM_SIGN,
    PLANE,
    SPHERE,
    VortexSystem,
    make_rhs,
)
from .errors import ScenarioError, SurfVortError
from .integrator import IntegratorConfig
from .mesh import TriangleMesh, face_areas, load_obj
from .numerics import normalize_rows
from .transport import clamp_bary, position_of, sample_points

GEOMETRY_NAMES = {"plane": PLANE, "sphere": SPHERE, "mesh": CLOSED_SURFACE}

# Required keys of each field grid kind, with the type each converts to.
GRID_KEYS = {
    "plane_grid": {"xmin": float, "xmax": float, "nx": int,
                   "ymin": float, "ymax": float, "ny": int},
    "ring": {"radius": float, "count": int},
    "sphere_grid": {"n_polar": int, "n_azimuth": int},
    "surface_samples": {"count": int},
}


@dataclass(frozen=True)
class ConformalParams:
    delta: float = 0.1
    tol: float = 1e-3
    max_iters: int = 200


@dataclass(frozen=True)
class OutputSpec:
    trajectories: bool = True
    energy: bool = True
    sphere_map: bool = False
    factors: bool = False
    field_grid: dict | None = None


@dataclass(frozen=True)
class SamplerSpec:
    count: int
    seed: int
    strength: dict
    region: dict | None = None


@dataclass(frozen=True)
class Scenario:
    geometry: str
    mesh_path: str | None
    vortices: list[dict]
    samplers: list[SamplerSpec]
    balance_mode: str            # "none" | "reject" | "counter_vortex"
    counter_position: object | None
    integrator: IntegratorConfig
    conformal: ConformalParams
    self_term_sign: int
    outputs: OutputSpec
    diagnostics_every: int
    name: str = "scenario"


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ScenarioError(message)


def _number(value, what: str, kind=float):
    """`kind(value)` for a number read from a scenario; one that will not convert raises."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ScenarioError(f"{what} must be a number, got {value!r}") from None


def check_grid(grid, geometry: str) -> None:
    """Check a field grid's kind, its required keys and their numbers; raises ScenarioError."""
    _require(isinstance(grid, dict), "field grid must be a JSON object")
    kind = grid.get("kind")
    _require(kind in GRID_KEYS, f"unknown field grid kind {kind!r}")
    for key, conv in GRID_KEYS[kind].items():
        _require(key in grid, f"{kind} field grid needs {key!r}")
        value = _number(grid[key], f"field grid {key}", conv)
        _require(conv is float or value >= 0, f"field grid {key} must be >= 0")
    if kind == "ring":
        center = grid.get("center", [0.0, 0.0])
        _require(isinstance(center, list) and len(center) == 2, "ring center must be [x, y]")
        for v in center:
            _number(v, "ring center")
    if kind == "surface_samples":
        _number(grid.get("seed", 0), "field grid seed", int)
        _require(geometry == CLOSED_SURFACE, "surface_samples field grids need a mesh geometry")


def _numbers(value, count: int, what: str) -> list[float]:
    """`count` numbers read from a scenario list; another length or a non-number raises."""
    _require(isinstance(value, (list, tuple)) and len(value) == count,
             f"{what} must be a list of {count} numbers")
    return [_number(v, what) for v in value]


def _section(obj: dict, key: str) -> dict:
    """The JSON object under `key`, empty when absent."""
    section = obj.get(key, {})
    _require(isinstance(section, dict), f"{key} must be a JSON object")
    return section


def _check_location(spec) -> None:
    """Check a mesh location spec: 'triangle' + 'bary' [s, t], or 'nearest' [x, y, z]."""
    on_triangle = isinstance(spec, dict) and "triangle" in spec and "bary" in spec
    _require(on_triangle or isinstance(spec, dict) and "nearest" in spec,
             "mesh vortex needs 'triangle'+'bary' or 'nearest'")
    if on_triangle:
        _number(spec["triangle"], "vortex triangle", int)
        _numbers(spec["bary"], 2, "vortex bary")
    else:
        _numbers(spec["nearest"], 3, "vortex nearest")


def _check_region(region, geometry: str) -> None:
    """Check a flat sampler's region; mesh samplers draw by area and ignore it."""
    if region is None or geometry == CLOSED_SURFACE:
        return
    _require(isinstance(region, dict), "sampler region must be a JSON object")
    if geometry == PLANE:
        _require("box" in region or "disk" in region,
                 "plane sampler region must define 'box' or 'disk'")
        if "box" in region:
            _numbers(region["box"], 4, "box region")
            return
        disk = region["disk"]
        _require(isinstance(disk, dict) and "center" in disk and "radius" in disk,
                 "disk region needs a center and a radius")
        _numbers(disk["center"], 2, "disk center")
        _number(disk["radius"], "disk radius")
        return
    _require("cap" in region, "sphere sampler region must be null or define 'cap'")
    cap = region["cap"]
    _require(isinstance(cap, dict) and "center" in cap and "angle" in cap,
             "cap region needs a center and an angle")
    _require(any(_numbers(cap["center"], 3, "cap center")), "cap center must not be zero")
    _number(cap["angle"], "cap angle")


def parse_scenario(obj: dict, base_dir: str = ".", name: str = "scenario") -> Scenario:
    """Validate a raw scenario dict; raises :class:`ScenarioError` on problems."""
    _require(isinstance(obj, dict), "scenario must be a JSON object")

    geom_spec = obj.get("geometry")
    mesh_path = None
    if isinstance(geom_spec, str):
        _require(geom_spec in ("plane", "sphere"), f"unknown geometry {geom_spec!r}")
        geometry = GEOMETRY_NAMES[geom_spec]
    elif isinstance(geom_spec, dict) and "mesh" in geom_spec:
        geometry = CLOSED_SURFACE
        mesh_path = os.path.join(base_dir, geom_spec["mesh"])
        _require(os.path.exists(mesh_path), f"mesh file not found: {mesh_path}")
    else:
        raise ScenarioError("geometry must be 'plane', 'sphere' or {'mesh': path}")

    vortices = obj.get("vortices", [])
    _require(isinstance(vortices, list), "vortices must be a list")
    for v in vortices:
        _require(isinstance(v, dict) and "strength" in v, "each vortex needs a strength")
        _require(np.isfinite(_number(v["strength"], "vortex strength")),
                 "vortex strength must be finite")
        if geometry == CLOSED_SURFACE:
            _check_location(v)
        else:
            _flat_position(v.get("position"), geometry)

    raw_samplers = obj.get("samplers", [])
    if "sampler" in obj:
        raw_samplers = [obj["sampler"]] + list(raw_samplers)
    samplers = []
    for s in raw_samplers:
        _require(isinstance(s, dict) and "count" in s, "sampler needs a count")
        count = _number(s["count"], "sampler count", int)
        _require(count >= 0, "sampler count must be >= 0")
        strength = s.get("strength", {"law": "constant", "value": 1.0})
        _require(isinstance(strength, dict), "sampler strength must be a JSON object")
        _check_region(s.get("region"), geometry)
        samplers.append(
            SamplerSpec(
                count=count,
                seed=_number(s.get("seed", 0), "sampler seed", int),
                strength=strength,
                region=s.get("region"),
            )
        )
    _require(vortices or samplers, "scenario defines no vortices")

    balance = obj.get("balance", "reject" if geometry == CLOSED_SURFACE else "none")
    counter_position = None
    if isinstance(balance, dict):
        _require("counter_vortex" in balance, "balance object must be {'counter_vortex': pos}")
        counter_position = balance["counter_vortex"]
        balance_mode = "counter_vortex"
        if geometry != CLOSED_SURFACE:
            _flat_position(counter_position, geometry)
        elif isinstance(counter_position, dict):
            _check_location(counter_position)
        else:  # a point, projected onto the sphere image
            _flat_position(counter_position, SPHERE)
    else:
        _require(balance in ("none", "reject"), f"unknown balance mode {balance!r}")
        balance_mode = balance

    integ = obj.get("integrator")
    _require(isinstance(integ, dict) and "dt" in integ and "steps" in integ,
             "integrator needs dt and steps")
    scheme = integ.get("scheme", "rk4")
    _require(scheme == "rk4", f"unsupported scheme {scheme!r} (only rk4)")
    try:
        integrator = IntegratorConfig(
            dt=_number(integ["dt"], "integrator dt"),
            steps=_number(integ["steps"], "integrator steps", int),
        )
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc

    conf = _section(obj, "conformal")
    conformal = ConformalParams(
        delta=_number(conf.get("delta", 0.1), "conformal delta"),
        tol=_number(conf.get("tol", 1e-3), "conformal tol"),
        max_iters=_number(conf.get("max_iters", 200), "conformal max_iters", int),
    )
    _require(conformal.delta > 0 and conformal.tol > 0 and conformal.max_iters > 0,
             "conformal parameters must be positive")

    sign = _number(obj.get("self_term_sign", DEFAULT_SELF_TERM_SIGN), "self_term_sign", int)
    _require(sign in (-1, 1), "self_term_sign must be +1 or -1")

    out = _section(obj, "outputs")
    outputs = OutputSpec(
        trajectories=bool(out.get("trajectories", True)),
        energy=bool(out.get("energy", True)),
        sphere_map=bool(out.get("sphere_map", False)),
        factors=bool(out.get("factors", False)),
        field_grid=out.get("field_grid"),
    )
    if outputs.field_grid is not None:
        check_grid(outputs.field_grid, geometry)
    diagnostics_every = _number(obj.get("diagnostics_every", 1), "diagnostics_every", int)
    _require(diagnostics_every >= 1, "diagnostics_every must be >= 1")

    return Scenario(
        geometry=geometry,
        mesh_path=mesh_path,
        vortices=list(vortices),
        samplers=samplers,
        balance_mode=balance_mode,
        counter_position=counter_position,
        integrator=integrator,
        conformal=conformal,
        self_term_sign=sign,
        outputs=outputs,
        diagnostics_every=diagnostics_every,
        name=name,
    )


def load_scenario(path: str | os.PathLike) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    name = os.path.splitext(os.path.basename(str(path)))[0]
    return parse_scenario(obj, base_dir=os.path.dirname(os.path.abspath(str(path))), name=name)


# ---------------------------------------------------------------------------
# Building runnable state out of a scenario
# ---------------------------------------------------------------------------

@dataclass
class PreparedRun:
    scenario: Scenario
    system: VortexSystem
    atlas: ConformalAtlas | None = None
    mesh: TriangleMesh | None = None

    def rhs(self):
        return make_rhs(self.system, atlas=self.atlas,
                        self_term_sign=self.scenario.self_term_sign)


def _strength_values(spec: dict, count: int, rng: np.random.Generator) -> np.ndarray:
    law = spec.get("law", "constant")
    if law == "constant":
        return np.full(count, _number(spec.get("value", 1.0), "strength value"))
    if law == "uniform":
        low = _number(spec.get("low", -1.0), "strength low")
        return rng.uniform(low, _number(spec.get("high", 1.0), "strength high"), count)
    raise ScenarioError(f"unknown strength law {law!r}")


def _sample_plane(spec: SamplerSpec, rng: np.random.Generator) -> np.ndarray:
    region = spec.region or {"box": [-1.0, 1.0, -1.0, 1.0]}
    if "box" in region:
        x0, x1, y0, y1 = (float(v) for v in region["box"])
        x = rng.uniform(x0, x1, spec.count)
        y = rng.uniform(y0, y1, spec.count)
    else:
        cx, cy = (float(v) for v in region["disk"]["center"])
        radius = float(region["disk"]["radius"])
        r = radius * np.sqrt(rng.random(spec.count))
        phi = 2.0 * np.pi * rng.random(spec.count)
        x, y = cx + r * np.cos(phi), cy + r * np.sin(phi)
    return np.stack([x, y, np.zeros(spec.count)], axis=1)


def _rotation_to(axis: np.ndarray) -> np.ndarray:
    """Rotation matrix taking +z to `axis` (unit)."""
    z = np.array([0.0, 0.0, 1.0])
    v = np.cross(z, axis)
    c = float(z @ axis)
    if np.linalg.norm(v) < 1e-14:
        return np.eye(3) if c > 0 else np.diag([1.0, -1.0, -1.0])
    vx = np.array([[0, -v[2], v[1]], [v[2], 0, -v[0]], [-v[1], v[0], 0]])
    return np.eye(3) + vx + vx @ vx / (1.0 + c)


def _sample_sphere(spec: SamplerSpec, rng: np.random.Generator) -> np.ndarray:
    if spec.region is None:
        p = rng.normal(size=(spec.count, 3))
        return normalize_rows(p)
    center = normalize_rows(np.asarray(spec.region["cap"]["center"], dtype=np.float64))
    angle = float(spec.region["cap"]["angle"])
    z = rng.uniform(np.cos(angle), 1.0, spec.count)
    phi = 2.0 * np.pi * rng.random(spec.count)
    s = np.sqrt(1.0 - z * z)
    local = np.stack([s * np.cos(phi), s * np.sin(phi), z], axis=1)
    return local @ _rotation_to(center).T


def _mesh_location(spec: dict, mesh: TriangleMesh) -> tuple[int, tuple[float, float]]:
    """Resolve a mesh location spec, checked by `_check_location`, to (triangle, (s, t))."""
    if "triangle" in spec and "bary" in spec:
        s, t = (float(v) for v in spec["bary"])
        return int(spec["triangle"]), (s, t)
    anchor = np.asarray(spec["nearest"], dtype=np.float64)
    vid = int(np.argmin(np.linalg.norm(mesh.vertices - anchor, axis=1)))
    tri = int(np.nonzero((mesh.triangles == vid).any(axis=1))[0][0])
    corner = int(np.nonzero(mesh.triangles[tri] == vid)[0][0])
    return tri, {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (0.0, 1.0)}[corner]


def _mesh_positions(specs: list[dict], atlas: ConformalAtlas) -> np.ndarray:
    """Sphere-image positions (n, 3) of explicit mesh vortex location specs."""
    located = [_mesh_location(spec, atlas.source_mesh) for spec in specs]
    tri = np.array([t for t, _ in located], dtype=np.int64)
    st = clamp_bary([st for _, st in located])
    return normalize_rows(position_of(atlas.sphere_mesh, tri, st))


def _flat_position(position, geometry: str) -> np.ndarray:
    """A plane or sphere vortex position as a 3-vector; a malformed one raises ScenarioError."""
    if geometry == PLANE:
        _require(isinstance(position, (list, tuple)) and len(position) in (2, 3),
                 "plane vortex position must be [x, y]")
        pos = np.array([_number(v, "vortex position") for v in position[:2]] + [0.0])
        _require(np.isfinite(pos).all(), "plane vortex position must be finite")
        return pos
    pos = np.array(_numbers(position, 3, "sphere vortex position"))
    _require(np.isfinite(pos).all() and pos.any(),
             "sphere vortex position must be a finite nonzero vector")
    return normalize_rows(pos)


def build_run(scenario: Scenario) -> PreparedRun:
    """Load geometry, build the atlas if needed and assemble the vortex system."""
    mesh = atlas = None
    if scenario.geometry == CLOSED_SURFACE:
        try:
            mesh = load_obj(scenario.mesh_path)
        except SurfVortError as exc:
            raise ScenarioError(f"cannot load mesh: {exc}") from exc
        atlas = build_atlas(
            mesh,
            delta=scenario.conformal.delta,
            tol=scenario.conformal.tol,
            max_iters=scenario.conformal.max_iters,
        )

    if scenario.geometry == CLOSED_SURFACE:
        blocks = [_mesh_positions(scenario.vortices, atlas)]
    else:
        explicit = [_flat_position(v.get("position"), scenario.geometry) for v in scenario.vortices]
        blocks = [np.array(explicit).reshape(-1, 3)]
    strengths = [float(v["strength"]) for v in scenario.vortices]

    for spec in scenario.samplers:
        rng = np.random.default_rng(spec.seed)
        if scenario.geometry == PLANE:
            pts = _sample_plane(spec, rng)
        elif scenario.geometry == SPHERE:
            pts = _sample_sphere(spec, rng)
        else:
            tri, st = sample_points(atlas.sphere_mesh, face_areas(mesh), spec.count, spec.seed)
            pts = normalize_rows(position_of(atlas.sphere_mesh, tri, st))
        w = _strength_values(spec.strength, spec.count, rng)
        blocks.append(pts)
        strengths.extend(w.tolist())

    pos = np.concatenate(blocks)
    w = np.array(strengths, dtype=np.float64)
    total = math.fsum(w)
    unbalanced = abs(total) > 1e-12 * max(math.fsum(np.abs(w)), 1.0)
    if unbalanced and scenario.balance_mode == "reject":
        raise ScenarioError(f"total vorticity {total:g} must vanish (balance: reject)")
    if unbalanced and scenario.balance_mode == "counter_vortex":
        spec = scenario.counter_position
        if scenario.geometry == CLOSED_SURFACE:
            if isinstance(spec, dict):
                counter = _mesh_positions([spec], atlas)[0]
            else:
                tri, st = atlas.locator.locate(normalize_rows(np.asarray(spec, dtype=np.float64)))
                counter = normalize_rows(position_of(atlas.sphere_mesh, tri, st))[0]
        else:
            counter = _flat_position(spec, scenario.geometry)
        pos = np.concatenate([pos, counter[None, :]])
        w = np.concatenate([w, [-total]])

    try:
        system = VortexSystem(scenario.geometry, pos, w)
    except SurfVortError as exc:
        raise ScenarioError(f"invalid vortex system: {exc}") from exc

    return PreparedRun(
        scenario=scenario,
        system=system,
        atlas=atlas,
        mesh=mesh,
    )


# ---------------------------------------------------------------------------
# Bundled presets
# ---------------------------------------------------------------------------

def _ellipsoid_obj() -> TriangleMesh:
    return shapes.ellipsoid(1.0, 1.0, 1.5, subdivisions=4)


def _preset_mesh_common(vortices, samplers=None, balance="reject", dt=0.005, steps=400) -> dict:
    # sphericity tol sits above the 2562-vertex discretization floor (~2.4e-3)
    doc = {
        "geometry": {"mesh": "ellipsoid.obj"},
        "vortices": vortices,
        "integrator": {"dt": dt, "steps": steps},
        "conformal": {"delta": 0.1, "tol": 4e-3, "max_iters": 200},
        "outputs": {"trajectories": True, "energy": True},
        "diagnostics_every": 10,
        "balance": balance,
    }
    if samplers:
        doc["samplers"] = samplers
    return doc


def presets() -> dict[str, dict]:
    """Named scenario documents reproducing the bundled experiments."""
    sep = 0.05  # half-separation of the geodesic sphere pair (0.1 rad total)
    p1 = [float(np.cos(sep)), float(np.sin(sep)), 0.0]
    p2 = [float(np.cos(sep)), float(-np.sin(sep)), 0.0]

    docs: dict[str, dict] = {
        "kimura_plane": {
            "geometry": "plane",
            "vortices": [
                {"position": [1.0, 0.0], "strength": -1.0},
                {"position": [-1.0, 0.0], "strength": 1.0},
            ],
            "integrator": {"dt": 0.01, "steps": 1000},
            "outputs": {"trajectories": True, "energy": True},
        },
        "kimura_sphere": {
            "geometry": "sphere",
            "vortices": [
                {"position": p1, "strength": -1.0},
                {"position": p2, "strength": 1.0},
            ],
            "integrator": {"dt": 0.005, "steps": 1000},
            "outputs": {"trajectories": True, "energy": True},
        },
        "kimura_mesh": _preset_mesh_common(
            [
                {"nearest": [0.3, 0.0, 1.45], "strength": -1.0},
                {"nearest": [-0.3, 0.0, 1.45], "strength": 1.0},
            ],
            dt=0.005, steps=400,
        ),
        "leapfrog_plane": {
            "geometry": "plane",
            "vortices": [
                {"position": [0.0, 0.5], "strength": 1.0},
                {"position": [0.0, -0.5], "strength": -1.0},
                {"position": [-1.0, 0.5], "strength": 1.0},
                {"position": [-1.0, -0.5], "strength": -1.0},
            ],
            "integrator": {"dt": 0.005, "steps": 2000},
            "outputs": {"trajectories": True, "energy": True},
            "diagnostics_every": 10,
        },
        "leapfrog_sphere": {
            "geometry": "sphere",
            "vortices": [
                {"position": [float(np.cos(a)), 0.0, float(np.sin(a))], "strength": s}
                for a, s in ((0.25, 1.0), (-0.25, -1.0), (0.55, 1.0), (-0.55, -1.0))
            ],
            "integrator": {"dt": 0.005, "steps": 1500},
            "outputs": {"trajectories": True, "energy": True},
            "diagnostics_every": 10,
        },
        "leapfrog_mesh": _preset_mesh_common(
            [
                {"nearest": [1.0, 0.0, 0.55], "strength": 1.0},
                {"nearest": [1.0, 0.0, -0.55], "strength": -1.0},
                {"nearest": [0.9, -0.45, 0.55], "strength": 1.0},
                {"nearest": [0.9, -0.45, -0.55], "strength": -1.0},
            ],
            dt=0.004, steps=500,
        ),
        "random_cloud_plane": {
            "geometry": "plane",
            "sampler": {"count": 20, "seed": 11,
                        "strength": {"law": "uniform", "low": -1.0, "high": 1.0},
                        "region": {"box": [-1.0, 1.0, -1.0, 1.0]}},
            "integrator": {"dt": 0.002, "steps": 500},
            "outputs": {"trajectories": True, "energy": True},
            "diagnostics_every": 10,
        },
        "random_cloud_sphere": {
            "geometry": "sphere",
            "sampler": {"count": 20, "seed": 11,
                        "strength": {"law": "uniform", "low": -1.0, "high": 1.0}},
            "integrator": {"dt": 0.002, "steps": 500},
            "outputs": {"trajectories": True, "energy": True},
            "diagnostics_every": 10,
        },
        "random_cloud_mesh": _preset_mesh_common(
            [],
            samplers=[{"count": 20, "seed": 11,
                       "strength": {"law": "uniform", "low": -1.0, "high": 1.0}}],
            balance={"counter_vortex": {"nearest": [0.0, 0.0, -1.5]}},
            dt=0.002, steps=300,
        ),
        "taylor_plane": {
            "geometry": "plane",
            "samplers": [
                {"count": 60, "seed": 3, "strength": {"law": "constant", "value": 0.02},
                 "region": {"disk": {"center": [-0.55, 0.0], "radius": 0.4}}},
                {"count": 60, "seed": 4, "strength": {"law": "constant", "value": 0.02},
                 "region": {"disk": {"center": [0.55, 0.0], "radius": 0.4}}},
            ],
            "integrator": {"dt": 0.01, "steps": 400},
            "outputs": {"trajectories": True, "energy": True},
            "diagnostics_every": 10,
        },
        "taylor_sphere": {
            "geometry": "sphere",
            "samplers": [
                {"count": 60, "seed": 3, "strength": {"law": "constant", "value": 0.02},
                 "region": {"cap": {"center": [0.35, 0.0, 0.94], "angle": 0.3}}},
                {"count": 60, "seed": 4, "strength": {"law": "constant", "value": 0.02},
                 "region": {"cap": {"center": [-0.35, 0.0, 0.94], "angle": 0.3}}},
            ],
            "integrator": {"dt": 0.01, "steps": 400},
            "outputs": {"trajectories": True, "energy": True},
            "diagnostics_every": 10,
        },
        "taylor_mesh": _preset_mesh_common(
            [],
            samplers=[{"count": 120, "seed": 5,
                       "strength": {"law": "constant", "value": 0.01}}],
            balance={"counter_vortex": {"nearest": [0.0, 0.0, -1.5]}},
            dt=0.005, steps=200,
        ),
    }
    docs["random_cloud"] = docs["random_cloud_plane"]
    docs["taylor"] = docs["taylor_plane"]
    docs["leapfrog"] = docs["leapfrog_plane"]
    docs["kimura"] = docs["kimura_plane"]
    return docs


def materialize_preset(name: str, out_dir: str) -> str:
    """Write a preset scenario (plus its mesh asset, if any) into `out_dir`.

    Returns the path of the scenario JSON file.
    """
    docs = presets()
    if name not in docs:
        raise ScenarioError(f"unknown preset {name!r}; available: {', '.join(sorted(docs))}")
    os.makedirs(out_dir, exist_ok=True)
    doc = docs[name]
    geom = doc.get("geometry")
    if isinstance(geom, dict) and "mesh" in geom:
        from .mesh import save_obj

        mesh_file = os.path.join(out_dir, geom["mesh"])
        if not os.path.exists(mesh_file):
            save_obj(_ellipsoid_obj(), mesh_file)
    path = os.path.join(out_dir, f"{name}.json")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
