"""Declarative run descriptions: JSON scenarios, builders and bundled presets.

A scenario is one UTF-8 JSON document describing geometry, vortices (explicit
and/or sampled), the balance policy, integrator and conformal-map parameters,
and output toggles. Parsing is the only reader of the document: it checks
every value, draws the sampled vortices and strengths that need no mesh and
settles the vorticity balance, so that every error the document alone decides
comes before any mesh is loaded. Building a parsed scenario produces the
ready-to-integrate vortex system plus, for mesh geometry, the conformal atlas.
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
    vorticity_imbalance,
)
from .errors import ScenarioError, SurfVortError
from .integrator import IntegratorConfig
from .mesh import face_areas, load_obj, save_obj
from .numerics import FloatArray, normalize_rows
from .transport import BARY_SLACK, clamp_bary, position_of, sample_points

# Required keys of each field grid kind, with the type each converts to.
GRID_KEYS = {
    "plane_grid": {"xmin": float, "xmax": float, "nx": int,
                   "ymin": float, "ymax": float, "ny": int},
    "ring": {"radius": float, "count": int},
    "sphere_grid": {"n_polar": int, "n_azimuth": int},
    "surface_samples": {"count": int},
}

# The keys each JSON object of a scenario may hold; parsing refuses any other,
# so that a misspelt option cannot fall back silently to its default.
SECTION_KEYS = {
    "scenario": {"geometry", "vortices", "samplers", "sampler", "balance", "integrator",
                 "conformal", "self_term_sign", "outputs", "diagnostics_every"},
    "geometry": {"mesh"}, "vortex": {"strength", "position"},
    "mesh vortex": {"strength", "triangle", "bary", "nearest"},
    "balance": {"counter_vortex"}, "counter_vortex": {"triangle", "bary", "nearest"},
    "sampler": {"count", "seed", "strength", "region"},
    "sampler strength": {"law", "value", "low", "high"},
    "plane sampler region": {"box", "disk"}, "disk region": {"center", "radius"},
    "sphere sampler region": {"cap"}, "cap region": {"center", "angle"},
    "integrator": {"dt", "steps", "scheme"}, "conformal": {"delta", "tol", "max_iters"},
    "outputs": {"trajectories", "energy", "sphere_map", "factors", "field_grid"},
    **{f"{kind} field grid": {"kind", *keys} for kind, keys in GRID_KEYS.items()},
}
SECTION_KEYS["ring field grid"].add("center")
SECTION_KEYS["surface_samples field grid"].add("seed")
# a grid of unknown kind may hold any grid key, so that a misspelt "kind" is the one named
SECTION_KEYS["field grid"] = set().union(*(SECTION_KEYS[f"{k} field grid"] for k in GRID_KEYS))

# Resource bounds checked at parse time, each at least 10x over every preset
# and benchmark workload. The vortex count bounds the O(n^2) pair sums
# (about 1 s of CPU per sphere RHS call); (steps + 1) * n bounds the
# trajectory records (0.48 GB, twice that with the map-back on meshes); the
# field bounds cap the points and the point-vortex pairs of one field pass.
MAX_VORTICES = 10_000
MAX_RECORDS = 20_000_000
MAX_FIELD_POINTS = 1_000_000
MAX_FIELD_PAIRS = 100_000_000
# Strengths are bounded in magnitude so that no energy sum can overflow. A
# Green's function of a finite squared distance is at most 57 in magnitude,
# so every pair term w_i w_j G, a balancing counter vortex's too (at most
# MAX_VORTICES * MAX_STRENGTH), and the sum of all of them stay below 1e215.
MAX_STRENGTH = 1e100


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
    field_grid: dict | None = None   # as returned by `check_grid`


@dataclass(frozen=True)
class Scenario:
    """A checked scenario. Its vortices run in the order explicit, sampled, counter vortex.

    `positions` holds the plane or sphere positions. On meshes `locations`
    holds a record per explicit vortex, sampler and counter vortex:
    ``("triangle", index, (s, t))`` with (s, t) in the simplex,
    ``("nearest", anchor)``, ``("sphere", unit point)`` to locate on the
    sphere image, or ``("samples", count, seed)``.
    """

    geometry: str
    mesh_path: str | None
    strengths: FloatArray
    positions: FloatArray | None
    locations: list[tuple]
    balance_mode: str            # "none" | "reject" | "counter_vortex"
    integrator: IntegratorConfig
    conformal: ConformalParams
    self_term_sign: int
    outputs: OutputSpec
    diagnostics_every: int
    name: str = "scenario"


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ScenarioError(message)


def _number(value, what: str, kind=float, minimum=None):
    """`kind(value)` for a finite number, at least `minimum` if given, read from a scenario."""
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ScenarioError(f"{what} must be a number, got {value!r}") from None
    _require(kind is int or math.isfinite(number), f"{what} must be finite")
    _require(minimum is None or number >= minimum, f"{what} must be >= {minimum}")
    return number


def _strength(value, what: str) -> float:
    """A vortex strength, finite and at most MAX_STRENGTH in magnitude."""
    w = _number(value, what)
    _require(abs(w) <= MAX_STRENGTH, f"{what} must be at most {MAX_STRENGTH:g} in magnitude")
    return w


def _numbers(value, count: int, what: str) -> list[float]:
    """`count` numbers read from a scenario list; another length or a non-number raises."""
    _require(isinstance(value, (list, tuple)) and len(value) == count,
             f"{what} must be a list of {count} numbers")
    return [_number(v, what) for v in value]


def _unit(vector: list[float], what: str) -> FloatArray:
    """Scale as `normalize_rows` does; a length of 0, or one that over/underflows, raises."""
    v = np.array(vector)
    with np.errstate(all="ignore"):
        unit = v / np.linalg.norm(v, axis=-1, keepdims=True)
    _require(abs(np.linalg.norm(unit) - 1.0) <= 1e-9, f"{what} must be a finite nonzero vector")
    return unit


def _bounded(value: int, bound: int, what: str) -> None:
    _require(value <= bound, f"{what} must be at most {bound:,}, got {value:,}")


def _keys(spec, section: str) -> None:
    """Refuse a key of the JSON object `spec` that `section` does not know; other values pass."""
    for key in spec if isinstance(spec, dict) else ():
        _require(key in SECTION_KEYS[section], f"unknown key {key!r} in {section}")


def _section(obj: dict, key: str) -> dict:
    """The JSON object under `key`, empty when absent."""
    section = obj.get(key, {})
    _require(isinstance(section, dict), f"{key} must be a JSON object")
    _keys(section, key)
    return section


def check_grid(grid, geometry: str, vortices: int) -> dict:
    """A field grid with its values converted; a bad one raises ScenarioError.

    The result holds the kind, the kind's `GRID_KEYS`, a ring's `center` as
    (x, y) and surface samples' `seed`. `vortices` is the scenario's vortex
    count, for the bound on the field's point-vortex pairs.
    """
    _require(isinstance(grid, dict), "field grid must be a JSON object")
    kind = grid.get("kind")
    known = isinstance(kind, str) and kind in GRID_KEYS
    _keys(grid, f"{kind} field grid" if known else "field grid")
    _require(known, f"unknown field grid kind {kind!r}")
    checked = {"kind": kind}
    for key, conv in GRID_KEYS[kind].items():
        _require(key in grid, f"{kind} field grid needs {key!r}")
        checked[key] = _number(grid[key], f"field grid {key}", conv, 0 if conv is int else None)
    if kind == "ring":
        checked["center"] = tuple(_numbers(grid.get("center", [0.0, 0.0]), 2, "ring center"))
    if kind == "surface_samples":
        _require(geometry == CLOSED_SURFACE, "surface_samples field grids need a mesh geometry")
        checked["seed"] = _number(grid.get("seed", 0), "field grid seed", int, 0)
    points = math.prod(checked[key] for key, conv in GRID_KEYS[kind].items() if conv is int)
    _bounded(points, MAX_FIELD_POINTS, "field points (MAX_FIELD_POINTS)")
    _bounded(points * vortices, MAX_FIELD_PAIRS, "field points x vortices (MAX_FIELD_PAIRS)")
    return checked


def _flat_position(position, geometry: str) -> FloatArray:
    """A plane or sphere vortex position as a 3-vector; a malformed one raises ScenarioError."""
    if geometry == PLANE:
        _require(isinstance(position, (list, tuple)) and len(position) in (2, 3),
                 "plane vortex position must be [x, y]")
        return np.array([_number(v, "vortex position") for v in position[:2]] + [0.0])
    return _unit(_numbers(position, 3, "sphere vortex position"), "sphere vortex position")


def _mesh_location(spec) -> tuple:
    """A mesh location record of a 'triangle' + 'bary' [s, t] or a 'nearest' [x, y, z] spec."""
    keys = {"triangle", "bary", "nearest"}.intersection(spec) if isinstance(spec, dict) else set()
    _require(keys in ({"triangle", "bary"}, {"nearest"}),
             "mesh vortex needs 'triangle'+'bary' or 'nearest', not both")
    if keys == {"nearest"}:
        return "nearest", np.array(_numbers(spec["nearest"], 3, "vortex nearest"))
    triangle = _number(spec["triangle"], "vortex triangle", int, 0)
    _require(triangle < 2**63, "vortex triangle must be < 2**63")
    s, t = _numbers(spec["bary"], 2, "vortex bary")
    _require(min(s, t) >= -BARY_SLACK and s + t <= 1.0 + BARY_SLACK,  # as `clamp_bary` allows
             "vortex bary [s, t] must have s, t >= 0 and s + t <= 1")
    return "triangle", triangle, (s, t)


def _strength_law(spec) -> tuple[str, float, float]:
    """A sampler's strength law as (law, a, b): constant a (= b), or uniform on [a, b)."""
    _require(isinstance(spec, dict), "sampler strength must be a JSON object")
    _keys(spec, "sampler strength")
    law = spec.get("law", "constant")
    if law == "constant":
        value = _strength(spec.get("value", 1.0), "strength value")
        return law, value, value
    _require(law == "uniform", f"strength law must be 'constant' or 'uniform', got {law!r}")
    low = _strength(spec.get("low", -1.0), "strength low")
    high = _strength(spec.get("high", 1.0), "strength high")
    _require(low <= high, "uniform strength low must be <= high")
    return law, low, high


def _rotation_to(axis: FloatArray) -> FloatArray:
    """Rotation matrix taking +z to `axis` (unit)."""
    z = np.array([0.0, 0.0, 1.0])
    v = np.cross(z, axis)
    c = float(z @ axis)
    if np.linalg.norm(v) < 1e-14:
        return np.eye(3) if c > 0 else np.diag([1.0, -1.0, -1.0])
    vx = np.array([[0, -v[2], v[1]], [v[2], 0, -v[0]], [-v[1], v[0], 0]])
    return np.eye(3) + vx + vx @ vx / (1.0 + c)


def _sample_flat(region, geometry: str, count: int, rng: np.random.Generator) -> FloatArray:
    """`count` positions drawn from `rng` in a plane or sphere sampler's region.

    Plane regions are a box [xmin, xmax, ymin, ymax], the default
    [-1, 1, -1, 1], or a disk; sphere regions are None (the whole sphere)
    or a cap.
    """
    if geometry == PLANE:
        region = {"box": [-1.0, 1.0, -1.0, 1.0]} if region is None else region
        _keys(region, "plane sampler region")
        _require(isinstance(region, dict) and ("box" in region) != ("disk" in region),
                 "plane sampler region must define 'box' or 'disk', not both")
        if "box" in region:
            x0, x1, y0, y1 = _numbers(region["box"], 4, "box region")
            _require(x0 <= x1 and y0 <= y1 and math.isfinite(x1 - x0) and math.isfinite(y1 - y0),
                     "box region must have xmin <= xmax and ymin <= ymax, with finite sides")
            x = rng.uniform(x0, x1, count)
            y = rng.uniform(y0, y1, count)
        else:
            disk = region["disk"]
            _keys(disk, "disk region")
            _require(isinstance(disk, dict) and "center" in disk and "radius" in disk,
                     "disk region needs a center and a radius")
            cx, cy = _numbers(disk["center"], 2, "disk center")
            radius = _number(disk["radius"], "disk radius", minimum=0)
            _require(math.isfinite(abs(cx) + abs(cy) + radius), "disk region must stay finite")
            r = radius * np.sqrt(rng.random(count))
            phi = 2.0 * np.pi * rng.random(count)
            x, y = cx + r * np.cos(phi), cy + r * np.sin(phi)
        return np.stack([x, y, np.zeros(count)], axis=1)
    if region is None:
        return normalize_rows(rng.normal(size=(count, 3)))
    _keys(region, "sphere sampler region")
    _require(isinstance(region, dict) and "cap" in region,
             "sphere sampler region must be null or define 'cap'")
    cap = region["cap"]
    _keys(cap, "cap region")
    _require(isinstance(cap, dict) and "center" in cap and "angle" in cap,
             "cap region needs a center and an angle")
    center = _unit(_numbers(cap["center"], 3, "cap center"), "cap center")
    angle = _number(cap["angle"], "cap angle")
    _require(0.0 <= angle <= math.pi, "cap angle must be in [0, pi]")
    z = rng.uniform(np.cos(angle), 1.0, count)
    phi = 2.0 * np.pi * rng.random(count)
    s = np.sqrt(1.0 - z * z)
    local = np.stack([s * np.cos(phi), s * np.sin(phi), z], axis=1)
    return local @ _rotation_to(center).T


def parse_scenario(obj: dict, base_dir: str = ".", name: str = "scenario") -> Scenario:
    """Check a raw scenario dict and read it into a :class:`Scenario`; raises ScenarioError.

    Each sampler draws from ``numpy.random.default_rng(seed)``: on the plane
    and the sphere its positions, then its strengths; on meshes its strengths
    only, since its locations come from a generator of its own at build time.
    """
    _require(isinstance(obj, dict), "scenario must be a JSON object")
    _keys(obj, "scenario")

    geom_spec = obj.get("geometry")
    _keys(geom_spec, "geometry")
    mesh_path = None
    if isinstance(geom_spec, str):
        _require(geom_spec in (PLANE, SPHERE), f"unknown geometry {geom_spec!r}")
        geometry = geom_spec
    elif isinstance(geom_spec, dict) and isinstance(geom_spec.get("mesh"), str):
        geometry = CLOSED_SURFACE
        mesh_path = os.path.join(base_dir, geom_spec["mesh"])
        _require(os.path.exists(mesh_path), f"mesh file not found: {mesh_path}")
    else:
        raise ScenarioError("geometry must be 'plane', 'sphere' or {'mesh': path}")
    on_mesh = geometry == CLOSED_SURFACE

    vortices = obj.get("vortices", [])
    _require(isinstance(vortices, list), "vortices must be a list")
    samplers = obj.get("samplers", [])
    _require(isinstance(samplers, list), "samplers must be a list")
    if "sampler" in obj:
        samplers = [obj["sampler"]] + samplers

    strengths, places = [], []   # places: flat positions (rows or blocks), or mesh records
    for v in vortices:
        _keys(v, "mesh vortex" if on_mesh else "vortex")
        _require(isinstance(v, dict) and "strength" in v, "each vortex needs a strength")
        strengths.append([_strength(v["strength"], "vortex strength")])
        places.append(_mesh_location(v) if on_mesh else _flat_position(v.get("position"), geometry))
    n = len(vortices)
    for s in samplers:
        _keys(s, "sampler")
        _require(isinstance(s, dict) and "count" in s, "sampler needs a count")
        _require(not (on_mesh and "region" in s), "a mesh sampler must not give a region")
        count = _number(s["count"], "sampler count", int, 0)
        n += count
        _bounded(n, MAX_VORTICES, "vortex count (MAX_VORTICES)")
        seed = _number(s.get("seed", 0), "sampler seed", int, 0)
        law, a, b = _strength_law(s.get("strength", {"law": "constant", "value": 1.0}))
        rng = np.random.default_rng(seed)
        places.append(("samples", count, seed) if on_mesh
                      else _sample_flat(s.get("region"), geometry, count, rng))
        strengths.append(np.full(count, a) if law == "constant" else rng.uniform(a, b, count))
    _require(n > 0, "scenario must define at least one vortex")

    balance = obj.get("balance", "reject" if on_mesh else "none")
    if isinstance(balance, dict):
        _keys(balance, "balance")
        _require("counter_vortex" in balance, "balance object must be {'counter_vortex': pos}")
        balance_mode, spec = "counter_vortex", balance["counter_vortex"]
        if not on_mesh:
            counter = _flat_position(spec, geometry)
        elif isinstance(spec, dict):
            _keys(spec, "counter_vortex")
            counter = _mesh_location(spec)
        else:  # a point, projected onto the sphere image
            counter = "sphere", _flat_position(spec, SPHERE)
    else:
        _require(balance in ("none", "reject"), f"unknown balance mode {balance!r}")
        balance_mode = balance
    w = np.concatenate(strengths)
    total = vorticity_imbalance(w)
    if total and balance_mode == "counter_vortex":
        places.append(counter)
        w = np.append(w, -total)
    else:  # a closed surface needs vanishing total vorticity whatever the mode
        _require(not total or balance_mode == "none" and not on_mesh,
                 f"total vorticity {total:g} must vanish (balance: {balance_mode})")
    _bounded(len(w), MAX_VORTICES, "vortex count (MAX_VORTICES)")

    integ = _section(obj, "integrator")
    _require("dt" in integ and "steps" in integ, "integrator needs dt and steps")
    scheme = integ.get("scheme", "rk4")
    _require(scheme == "rk4", f"unsupported scheme {scheme!r} (only rk4)")
    try:
        integrator = IntegratorConfig(
            dt=_number(integ["dt"], "integrator dt"),
            steps=_number(integ["steps"], "integrator steps", int),
        )
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc
    _bounded((integrator.steps + 1) * len(w), MAX_RECORDS, "(steps + 1) x vortices (MAX_RECORDS)")

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
    grid = out.get("field_grid")
    outputs = OutputSpec(
        trajectories=bool(out.get("trajectories", True)),
        energy=bool(out.get("energy", True)),
        sphere_map=bool(out.get("sphere_map", False)),
        factors=bool(out.get("factors", False)),
        field_grid=None if grid is None else check_grid(grid, geometry, len(w)),
    )
    diagnostics_every = _number(obj.get("diagnostics_every", 1), "diagnostics_every", int, 1)

    return Scenario(
        geometry=geometry,
        mesh_path=mesh_path,
        strengths=w,
        positions=None if on_mesh else np.vstack(places),
        locations=places if on_mesh else [],
        balance_mode=balance_mode,
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
    system: VortexSystem
    atlas: ConformalAtlas | None = None


def _locate(record: tuple, atlas: ConformalAtlas):
    """Sphere-mesh ``(tri, st)`` arrays of one mesh location record of a Scenario."""
    mesh = atlas.source_mesh
    kind, *value = record
    if kind == "triangle":
        return np.array(value[:1], dtype=np.int64), clamp_bary(value[1])
    if kind == "samples":
        return sample_points(atlas.sphere_mesh, face_areas(mesh), *value)
    if kind == "sphere":
        return atlas.locator.locate(value[0])
    # "nearest": the corner at the closest vertex, of the first triangle around it
    vid = int(np.argmin(np.linalg.norm(mesh.vertices - value[0], axis=1)))
    tri = int(np.nonzero((mesh.triangles == vid).any(axis=1))[0][0])
    corner = int(np.nonzero(mesh.triangles[tri] == vid)[0][0])
    return np.array([tri], dtype=np.int64), np.eye(3)[None, corner, 1:]


def build_run(scenario: Scenario) -> PreparedRun:
    """Load geometry, build the atlas if needed and assemble the vortex system.

    What is left to fail here needs the mesh: reading it, its topology, a
    triangle index past its last triangle, and vortices that coincide.
    """
    atlas = None
    positions = scenario.positions
    if scenario.geometry == CLOSED_SURFACE:
        try:
            mesh = load_obj(scenario.mesh_path)
        except SurfVortError as exc:
            raise ScenarioError(f"cannot load mesh: {exc}") from exc
        conf = scenario.conformal
        atlas = build_atlas(mesh, delta=conf.delta, tol=conf.tol, max_iters=conf.max_iters)
        tri, st = zip(*(_locate(record, atlas) for record in scenario.locations))
        positions = normalize_rows(position_of(atlas.sphere_mesh, np.concatenate(tri),
                                               np.concatenate(st)))
    try:
        system = VortexSystem(scenario.geometry, positions, scenario.strengths)
    except SurfVortError as exc:
        raise ScenarioError(f"invalid vortex system: {exc}") from exc
    return PreparedRun(system=system, atlas=atlas)


# ---------------------------------------------------------------------------
# Bundled presets
# ---------------------------------------------------------------------------

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
        mesh_file = os.path.join(out_dir, geom["mesh"])
        if not os.path.exists(mesh_file):
            save_obj(shapes.ellipsoid(1.0, 1.0, 1.5, subdivisions=4), mesh_file)
    path = os.path.join(out_dir, f"{name}.json")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
