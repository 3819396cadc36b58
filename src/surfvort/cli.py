"""surfvort command line: scenario runs, conformal maps, field dumps, sampling.

Exit codes: 0 success, 1 configuration error, 2 topology rejection,
3 conformal-map non-convergence, 4 vortex collision or non-finite state
(partial outputs are kept and flagged in the run manifest, which never holds
an infinity or a NaN).

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
    make_rhs,
    nearest_vortex_distance,
    planar_field_velocity,
    sphere_field_velocity,
    stream_function,
    surface_field_velocity,
)
from .errors import ScenarioError, SurfVortError, TopologyError
from .integrator import run as integrate
from .kernels import EPS_SEPARATION
from .mesh import face_areas, load_obj, save_obj
from .numerics import BLOCK_ROWS, normalize_rows, write_rows
from .scenario import build_run, check_grid, load_scenario, materialize_preset, presets
from .transport import position_of, sample_points

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_TOPOLOGY = 2
EXIT_NONCONVERGED = 3
EXIT_COLLISION = 4


def _open_out(path: str):
    return open(path, "w", encoding="utf-8", newline="\n")


def _mesh_content_hash(path: str) -> str:
    """Git-style blob hash (sha1 over 'blob <size>\\0<bytes>')."""
    with open(path, "rb") as fh:
        data = fh.read()
    return hashlib.sha1(b"blob %d\0" % len(data) + data).hexdigest()


# ---------------------------------------------------------------------------
# Output writers
# ---------------------------------------------------------------------------

def _write_csv(path: str, header: str, fmt: str, *columns) -> None:
    """Header lines, then one `fmt` line per row of the columns (see `write_rows`)."""
    with _open_out(path) as fh:
        fh.write(header)
        write_rows(fh, fmt, *columns)


def _write_trajectories(path: str, result, geometry: str, dt: float) -> None:
    """Rows of whole steps a block at a time, each step's "step,time," formatted once.

    Plane z is +0.0 by construction (positions start there and velocities have
    z = 0), so it is written as the literal 0.0; on the sphere m is s.
    """
    k, n, _ = result.records.shape
    ids = [f"{i}," for i in range(n)]
    per_block = max(1, BLOCK_ROWS // n)
    with _open_out(path) as fh:
        fh.write("step,time,id,mx,my,mz,sx,sy,sz\n")
        for a in range(0, k, per_block):
            b = min(a + per_block, k)
            heads = [head + i for head in [f"{t},{t * dt!r}," for t in range(a, b)] for i in ids]
            s = result.records[a:b].reshape(-1, 3)
            if geometry == PLANE:
                write_rows(fh, "%s%s,0.0,,,\n", heads, s[:, :2])
            else:
                m = s if geometry == SPHERE else result.source_positions[a:b].reshape(-1, 3)
                write_rows(fh, "%s%s,%s\n", heads, m, s)


def _write_energy(path: str, result, geometry: str, dt: float, total_vorticity: float) -> None:
    steps, energy, h_tilde = result.diagnostics.T
    # H_tilde is defined on closed surfaces only; elsewhere its column stays empty
    closed = geometry == CLOSED_SURFACE
    fmt = ("%s,%s,%s,%s," if closed else "%s,%s,%s,,") + f"{total_vorticity!r}\n"
    _write_csv(path, "step,time,E,H_tilde,total_vorticity\n", fmt, steps.astype(np.int64),
               steps * dt, *([energy, h_tilde] if closed else [energy]))


def _write_factors(out_dir: str, atlas) -> list[str]:
    """factors.csv (u and h per vertex) and grad_h.csv (grad h per triangle)."""
    _write_csv(os.path.join(out_dir, "factors.csv"), "vertex_index,u,h\n", "%s,%s,%s\n",
               np.arange(len(atlas.factors)), atlas.log_factors, atlas.factors)
    grad = atlas.triangle_grad_h
    _write_csv(os.path.join(out_dir, "grad_h.csv"), "triangle_index,gx,gy,gz\n",
               "%s,%s\n", np.arange(len(grad)), grad)
    return ["factors.csv", "grad_h.csv"]


def _grid_points(grid: dict, prepared):
    """Field points (n, 3), and their sphere-mesh ``(tri, st)`` when the grid samples them.

    The grid is one `check_grid` returned, so its values are there and converted.
    """
    kind = grid["kind"]
    if kind == "plane_grid":
        xs = np.linspace(grid["xmin"], grid["xmax"], grid["nx"])
        ys = np.linspace(grid["ymin"], grid["ymax"], grid["ny"])
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        return np.stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)], axis=1), None
    if kind == "ring":
        (cx, cy), r = grid["center"], grid["radius"]
        phi = 2.0 * np.pi * np.arange(grid["count"]) / grid["count"]
        pts = np.stack([cx + r * np.cos(phi), cy + r * np.sin(phi), np.zeros(phi.size)], axis=1)
        return pts, None
    if kind == "sphere_grid":
        n_pol, n_az = grid["n_polar"], grid["n_azimuth"]
        theta = np.pi * (np.arange(n_pol) + 0.5) / n_pol
        phi = 2.0 * np.pi * np.arange(n_az) / n_az
        tt, pp = np.meshgrid(theta, phi, indexing="ij")
        pts = np.stack([np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp), np.cos(tt)], axis=-1)
        return pts.reshape(-1, 3), None
    # surface_samples
    atlas = prepared.atlas
    tri, st = sample_points(atlas.sphere_mesh, face_areas(atlas.source_mesh),
                            grid["count"], grid["seed"])
    return normalize_rows(position_of(atlas.sphere_mesh, tri, st)), (tri, st)


def _write_field(path: str, prepared, grid: dict) -> None:
    system = prepared.system
    pts, locations = _grid_points(grid, prepared)
    # skip (and flag) points inside the singularity guard of any vortex
    keep = nearest_vortex_distance(pts, system) >= EPS_SEPARATION
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

    header = f"# skipped_near_vortex: {skipped}\n" + (
        "x,y,z,ux,uy,uz,psi\n" if has_stream else
        "# stream_function: unsupported on closed surfaces\nx,y,z,ux,uy,uz\n")
    columns = [pts, vel] + ([psi] if has_stream else [])
    _write_csv(path, header, ",".join(["%s"] * len(columns)) + "\n", *columns)


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

    system, atlas = prepared.system, prepared.atlas
    rhs = make_rhs(system, atlas=atlas, self_term_sign=scenario.self_term_sign)

    def diagnostics(p):  # builds a system object at diagnosed steps only
        return energy_diagnostics(VortexSystem(system.geometry, p, system.strengths, check=False),
                                  atlas)

    result = integrate(
        system,
        rhs,
        scenario.integrator,
        diagnostics=diagnostics if scenario.outputs.energy else None,
        diagnostics_every=scenario.diagnostics_every,
        map_back=rhs.to_source if system.geometry == CLOSED_SURFACE else None,
    )

    dt = scenario.integrator.dt
    os.makedirs(out_dir, exist_ok=True)
    written = []
    if scenario.outputs.trajectories:
        _write_trajectories(os.path.join(out_dir, "trajectories.csv"), result, system.geometry, dt)
        written.append("trajectories.csv")
    if scenario.outputs.energy:
        _write_energy(os.path.join(out_dir, "energy.csv"), result, system.geometry, dt,
                      system.total_strength)
        written.append("energy.csv")
    if atlas is not None and scenario.outputs.sphere_map:
        save_obj(atlas.sphere_mesh, os.path.join(out_dir, "sphere.obj"))
        written.append("sphere.obj")
    if atlas is not None and scenario.outputs.factors:
        written += _write_factors(out_dir, atlas)
    if scenario.outputs.field_grid is not None:
        _write_field(os.path.join(out_dir, "field.csv"), prepared, scenario.outputs.field_grid)
        written.append("field.csv")

    # the drift figure follows H_tilde on closed surfaces and E elsewhere
    conserved = result.diagnostics[:, 2 if system.geometry == CLOSED_SURFACE else 1].tolist()
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
        json.dump(manifest, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")

    if not result.completed:
        print(
            f"stopped at step {result.collision_step} ({result.collision_message}): "
            f"partial trajectory kept in {out_dir}",
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
    _write_factors(out_dir, atlas)
    residuals = edge_scale_residuals(atlas)
    angles = angle_distortions(atlas)
    with _open_out(os.path.join(out_dir, "report.txt")) as fh:
        fh.write(f"converged: {atlas.converged}\n")
        fh.write(f"iterations: {atlas.iterations_used}\n")
        fh.write(f"sphericity_residual: {float(atlas.sphericity_residual)!r}\n")
        fh.write(f"edge_scale_residual_median: {float(np.median(residuals))!r}\n")
        fh.write(f"angle_distortion_median_deg: {float(np.degrees(np.median(angles)))!r}\n")
        fh.write(f"factor_min: {float(atlas.factors.min())!r}\n")
        fh.write(f"factor_max: {float(atlas.factors.max())!r}\n")
    if not atlas.converged:
        print(f"error: conformal map did not converge after {args.max_iters} iterations",
              file=sys.stderr)
        return EXIT_NONCONVERGED
    print(f"conformal map written to {out_dir}")
    return EXIT_OK


def _cmd_field(args) -> int:
    scenario = load_scenario(args.scenario)
    grid = scenario.outputs.field_grid
    if args.grid is not None:
        try:
            grid = check_grid(json.loads(args.grid), scenario.geometry, len(scenario.strengths))
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"--grid must be a JSON object: {exc}") from exc
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
    _write_csv(path, "triangle,s,t,sx,sy,sz,mx,my,mz\n", "%s,%s,%s,%s\n", tri, st,
               position_of(atlas.sphere_mesh, tri, st), position_of(atlas.source_mesh, tri, st))
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
    except SurfVortError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
