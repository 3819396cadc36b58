"""surfvort command line: scenario runs, conformal maps, field dumps, sampling.

Exit codes: 0 success, 1 configuration error, 2 topology rejection,
3 conformal-map non-convergence, 4 vortex collision (partial outputs are
kept and flagged in the run manifest).

All CSV output uses shortest round-trip float formatting, a header row and LF
line endings; identical scenarios and seeds produce byte-identical files.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys

import numpy as np

from .conformal import angle_distortions, build_atlas, edge_scale_residuals
from .dynamics import (
    CLOSED_SURFACE,
    PLANE,
    SPHERE,
    VortexSystem,
    energy_diagnostics,
    planar_field_velocity,
    sphere_field_velocity,
    stream_function,
    surface_field_velocity,
)
from .errors import ScenarioError, SurfVortError, TopologyError
from .integrator import run as integrate
from .kernels import EPS_SEPARATION
from .mesh import face_areas, load_obj, save_obj
from .numerics import normalize_rows
from .scenario import Scenario, build_run, load_scenario, materialize_preset, presets
from .transport import position_of, sample_points

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_TOPOLOGY = 2
EXIT_NONCONVERGED = 3
EXIT_COLLISION = 4


def _fmt(x: float) -> str:
    """Shortest decimal that round-trips the float."""
    return repr(float(x))


def _open_out(path: str):
    return open(path, "w", encoding="utf-8", newline="\n")


def _mesh_content_hash(path: str) -> str:
    """Git-style blob hash (sha1 over 'blob <size>\\0<bytes>')."""
    data = open(path, "rb").read()
    return hashlib.sha1(b"blob %d\0" % len(data) + data).hexdigest()


# ---------------------------------------------------------------------------
# Output writers
# ---------------------------------------------------------------------------

def _write_trajectories(path: str, records, geometry: str) -> None:
    with _open_out(path) as fh:
        fh.write("step,time,id,mx,my,mz,sx,sy,sz\n")
        for rec in records:
            for i, p in enumerate(rec.positions):
                if geometry == PLANE:
                    m, s = p, None
                elif geometry == SPHERE:
                    m, s = p, p
                else:
                    m = rec.source_positions[i] if rec.source_positions is not None else None
                    s = p
                mcols = ",".join(_fmt(v) for v in m) if m is not None else ",,"
                scols = ",".join(_fmt(v) for v in s) if s is not None else ",,"
                fh.write(f"{rec.step},{_fmt(rec.time)},{i},{mcols},{scols}\n")


def _write_energy(path: str, records) -> None:
    with _open_out(path) as fh:
        fh.write("step,time,E,H_tilde,total_vorticity\n")
        for rec in records:
            if rec.energy is None:
                continue
            ht = "" if rec.energy.metric_hamiltonian is None else _fmt(rec.energy.metric_hamiltonian)
            fh.write(
                f"{rec.step},{_fmt(rec.time)},{_fmt(rec.energy.kinetic_excess)},"
                f"{ht},{_fmt(rec.energy.total_vorticity)}\n"
            )


def _write_factors(path: str, atlas) -> None:
    with _open_out(path) as fh:
        fh.write("vertex_index,u,h\n")
        for i, (u, h) in enumerate(zip(atlas.log_factors, atlas.factors)):
            fh.write(f"{i},{_fmt(u)},{_fmt(h)}\n")


def _write_grad_h(path: str, atlas) -> None:
    with _open_out(path) as fh:
        fh.write("triangle_index,gx,gy,gz\n")
        for i, g in enumerate(atlas.triangle_grad_h):
            fh.write(f"{i},{_fmt(g[0])},{_fmt(g[1])},{_fmt(g[2])}\n")


def _write_samples(path: str, tri, st, atlas) -> None:
    sphere = position_of(atlas.sphere_mesh, tri, st)
    source = position_of(atlas.source_mesh, tri, st)
    with _open_out(path) as fh:
        fh.write("triangle,s,t,sx,sy,sz,mx,my,mz\n")
        for i in range(tri.shape[0]):
            values = [*st[i], *sphere[i], *source[i]]
            fh.write(f"{tri[i]}," + ",".join(_fmt(v) for v in values) + "\n")


def _grid_points(grid: dict, prepared):
    """Field points (n, 3), and their sphere-mesh ``(tri, st)`` when the grid samples them."""
    kind = grid.get("kind")
    if kind == "plane_grid":
        xs = np.linspace(float(grid["xmin"]), float(grid["xmax"]), int(grid["nx"]))
        ys = np.linspace(float(grid["ymin"]), float(grid["ymax"]), int(grid["ny"]))
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        return np.stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)], axis=1), None
    if kind == "ring":
        cx, cy = (float(v) for v in grid.get("center", [0.0, 0.0]))
        r = float(grid["radius"])
        phi = 2.0 * np.pi * np.arange(int(grid["count"])) / int(grid["count"])
        pts = np.stack([cx + r * np.cos(phi), cy + r * np.sin(phi), np.zeros(phi.size)], axis=1)
        return pts, None
    if kind == "sphere_grid":
        n_pol, n_az = int(grid["n_polar"]), int(grid["n_azimuth"])
        theta = np.pi * (np.arange(n_pol) + 0.5) / n_pol
        phi = 2.0 * np.pi * np.arange(n_az) / n_az
        tt, pp = np.meshgrid(theta, phi, indexing="ij")
        pts = np.stack([np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp), np.cos(tt)], axis=-1)
        return pts.reshape(-1, 3), None
    if kind == "surface_samples":
        tri, st = sample_points(
            prepared.atlas.sphere_mesh,
            face_areas(prepared.mesh),
            int(grid["count"]),
            int(grid.get("seed", 0)),
        )
        return normalize_rows(position_of(prepared.atlas.sphere_mesh, tri, st)), (tri, st)
    raise ScenarioError(f"unknown field grid kind {grid.get('kind')!r}")


def _write_field(path: str, prepared, grid: dict) -> None:
    system = prepared.system
    pts, locations = _grid_points(grid, prepared)
    # skip (and flag) points inside the singularity guard of any vortex
    if system.geometry == PLANE:
        dist = np.linalg.norm(pts[:, None, :] - system.positions[None, :, :], axis=2).min(axis=1)
    else:
        dots = np.clip(pts @ system.positions.T, -1.0, 1.0)
        dist = np.arccos(dots).min(axis=1)
    keep = dist >= EPS_SEPARATION
    skipped = int(np.count_nonzero(~keep))
    pts = pts[keep]
    if locations is not None:
        locations = (locations[0][keep], locations[1][keep])

    has_stream = system.geometry != CLOSED_SURFACE
    if system.geometry == PLANE:
        vel = planar_field_velocity(pts, system)
    elif system.geometry == SPHERE:
        vel = sphere_field_velocity(pts, system)
    else:
        vel = surface_field_velocity(pts, system, prepared.atlas, locations=locations)
    psi = stream_function(pts, system) if has_stream else None

    with _open_out(path) as fh:
        fh.write(f"# skipped_near_vortex: {skipped}\n")
        if not has_stream:
            fh.write("# stream_function: unsupported on closed surfaces\n")
            fh.write("x,y,z,ux,uy,uz\n")
        else:
            fh.write("x,y,z,ux,uy,uz,psi\n")
        for i in range(pts.shape[0]):
            row = [*pts[i], *vel[i]] + ([psi[i]] if has_stream else [])
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _conserved_series(records, geometry: str) -> list[float]:
    values = []
    for rec in records:
        if rec.energy is None:
            continue
        q = rec.energy.metric_hamiltonian if geometry == CLOSED_SURFACE else rec.energy.kinetic_excess
        if q is not None:
            values.append(q)
    return values


def _max_drift_rel(values: list[float]) -> float | None:
    if len(values) < 2:
        return None
    ref = max(abs(values[0]), 1e-30)
    return max(abs(v - values[0]) for v in values) / ref


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    if args.self_term_sign is not None:
        scenario = dataclasses.replace(scenario, self_term_sign=int(args.self_term_sign))
    out_dir = args.out or f"{scenario.name}_out"
    prepared = build_run(scenario)
    if prepared.atlas is not None and not prepared.atlas.converged:
        print(
            f"error: conformal map did not converge "
            f"(residual {prepared.atlas.sphericity_residual:g})",
            file=sys.stderr,
        )
        return EXIT_NONCONVERGED

    system = prepared.system
    rhs = prepared.rhs()
    atlas = prepared.atlas
    diagnostics = (lambda s: energy_diagnostics(s, atlas)) if scenario.outputs.energy else None
    map_back = rhs.to_source if system.geometry == CLOSED_SURFACE else None
    result = integrate(
        system,
        rhs,
        scenario.integrator,
        diagnostics=diagnostics,
        diagnostics_every=scenario.diagnostics_every,
        map_back=map_back,
    )

    os.makedirs(out_dir, exist_ok=True)
    written = []
    if scenario.outputs.trajectories:
        _write_trajectories(os.path.join(out_dir, "trajectories.csv"), result.records, system.geometry)
        written.append("trajectories.csv")
    if scenario.outputs.energy:
        _write_energy(os.path.join(out_dir, "energy.csv"), result.records)
        written.append("energy.csv")
    if atlas is not None and scenario.outputs.sphere_map:
        save_obj(atlas.sphere_mesh, os.path.join(out_dir, "sphere.obj"))
        written.append("sphere.obj")
    if atlas is not None and scenario.outputs.factors:
        _write_factors(os.path.join(out_dir, "factors.csv"), atlas)
        _write_grad_h(os.path.join(out_dir, "grad_h.csv"), atlas)
        written += ["factors.csv", "grad_h.csv"]
    if scenario.outputs.field_grid is not None:
        _write_field(os.path.join(out_dir, "field.csv"), prepared, scenario.outputs.field_grid)
        written.append("field.csv")

    conserved = _conserved_series(result.records, system.geometry)
    manifest = {
        "scenario": scenario.name,
        "geometry": system.geometry,
        "parameters": {
            "dt": scenario.integrator.dt,
            "steps": scenario.integrator.steps,
            "delta": scenario.conformal.delta,
            "tol": scenario.conformal.tol,
            "max_iters": scenario.conformal.max_iters,
            "self_term_sign": scenario.self_term_sign,
            "diagnostics_every": scenario.diagnostics_every,
        },
        "mesh": None if scenario.mesh_path is None else {
            "path": os.path.basename(scenario.mesh_path),
            "content_hash": _mesh_content_hash(scenario.mesh_path),
        },
        "conformal": None if atlas is None else {
            "iterations": atlas.iterations_used,
            "sphericity_residual": atlas.sphericity_residual,
            "converged": atlas.converged,
        },
        "vortex_count": len(system),
        "total_vorticity": system.total_strength,
        "energy": None if not conserved else {
            "initial": conserved[0],
            "final": conserved[-1],
            "max_drift_rel": _max_drift_rel(conserved),
        },
        "collision": None if result.completed else {
            "step": result.collision_step,
            "message": result.collision_message,
        },
        "outputs": written,
    }
    with _open_out(os.path.join(out_dir, "manifest.json")) as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")

    if not result.completed:
        print(
            f"collision at step {result.collision_step}: partial trajectory kept in {out_dir}",
            file=sys.stderr,
        )
        return EXIT_COLLISION
    print(f"run complete: {scenario.integrator.steps} steps, outputs in {out_dir}")
    return EXIT_OK


def _cmd_conformal_map(args) -> int:
    mesh = load_obj(args.mesh)
    atlas = build_atlas(mesh, delta=args.delta, tol=args.tol, max_iters=args.max_iters)
    out_dir = args.out or os.path.splitext(os.path.basename(args.mesh))[0] + "_map"
    os.makedirs(out_dir, exist_ok=True)
    save_obj(atlas.sphere_mesh, os.path.join(out_dir, "sphere.obj"))
    _write_factors(os.path.join(out_dir, "factors.csv"), atlas)
    _write_grad_h(os.path.join(out_dir, "grad_h.csv"), atlas)
    residuals = edge_scale_residuals(atlas)
    angles = angle_distortions(atlas)
    with _open_out(os.path.join(out_dir, "report.txt")) as fh:
        fh.write(f"converged: {atlas.converged}\n")
        fh.write(f"iterations: {atlas.iterations_used}\n")
        fh.write(f"sphericity_residual: {_fmt(atlas.sphericity_residual)}\n")
        fh.write(f"edge_scale_residual_median: {_fmt(float(np.median(residuals)))}\n")
        fh.write(f"angle_distortion_median_deg: {_fmt(float(np.degrees(np.median(angles))))}\n")
        fh.write(f"factor_min: {_fmt(float(atlas.factors.min()))}\n")
        fh.write(f"factor_max: {_fmt(float(atlas.factors.max()))}\n")
    if not atlas.converged:
        print(f"error: conformal map did not converge after {args.max_iters} iterations",
              file=sys.stderr)
        return EXIT_NONCONVERGED
    print(f"conformal map written to {out_dir}")
    return EXIT_OK


def _cmd_field(args) -> int:
    scenario = load_scenario(args.scenario)
    if args.grid is not None:
        try:
            grid = json.loads(args.grid)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"--grid must be a JSON object: {exc}") from exc
    else:
        grid = scenario.outputs.field_grid
    if grid is None:
        raise ScenarioError("no field grid: pass --grid or set outputs.field_grid")
    prepared = build_run(scenario)
    if prepared.atlas is not None and not prepared.atlas.converged:
        print("error: conformal map did not converge", file=sys.stderr)
        return EXIT_NONCONVERGED
    out_dir = args.out or f"{scenario.name}_out"
    os.makedirs(out_dir, exist_ok=True)
    _write_field(os.path.join(out_dir, "field.csv"), prepared, grid)
    print(f"field written to {os.path.join(out_dir, 'field.csv')}")
    return EXIT_OK


def _cmd_sample(args) -> int:
    mesh = load_obj(args.mesh)
    atlas = build_atlas(mesh, delta=args.delta, tol=args.tol, max_iters=args.max_iters)
    if not atlas.converged:
        print("error: conformal map did not converge", file=sys.stderr)
        return EXIT_NONCONVERGED
    tri, st = sample_points(atlas.sphere_mesh, face_areas(mesh), args.count, args.seed)
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "sample.csv")
    _write_samples(path, tri, st, atlas)
    print(f"{args.count} samples written to {path}")
    return EXIT_OK


def _cmd_preset(args) -> int:
    if args.list or args.name is None:
        for name in sorted(presets()):
            print(name)
        return EXIT_OK
    path = materialize_preset(args.name, args.out or ".")
    print(f"preset written to {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="surfvort",
        description="Point-vortex dynamics on the plane, the sphere and closed genus-zero meshes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="integrate a scenario and write its outputs")
    p.add_argument("scenario")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--self-term-sign", choices=["+1", "-1", "1"], default=None)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("conformal-map", help="map a closed genus-zero mesh to the unit sphere")
    p.add_argument("mesh")
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--max-iters", type=int, default=200)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_conformal_map)

    p = sub.add_parser("field", help="evaluate the velocity field of a scenario on a grid")
    p.add_argument("scenario")
    p.add_argument("--grid", default=None, help="JSON grid spec (overrides outputs.field_grid)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_field)

    p = sub.add_parser("sample", help="area-weighted random locations on a mesh")
    p.add_argument("mesh")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--max-iters", type=int, default=200)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("preset", help="write a bundled example scenario")
    p.add_argument("name", nargs="?")
    p.add_argument("--out", default=None)
    p.add_argument("--list", action="store_true")
    p.set_defaults(func=_cmd_preset)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TopologyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOPOLOGY
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SurfVortError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
