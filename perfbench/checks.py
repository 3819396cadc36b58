"""Checks of the program's outputs against computations made apart from it.

Every check reads output files only, recomputes the expected values with its
own formulas (exact ``math.fsum`` sums where a sum is compared) and returns
``(ok, detail)``. None of them compares with a stored copy of earlier output.
"""

from __future__ import annotations

import hashlib
import math
import os

import numpy as np

FOUR_PI = 4.0 * math.pi


# ---------------------------------------------------------------------------
# Readers
# ---------------------------------------------------------------------------

def read_csv(path: str) -> tuple[list[str], list[list[str]], list[str]]:
    """(header, rows, comment lines) of a CSV written by the program."""
    comments, rows, header = [], [], None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                comments.append(line)
            elif header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return header or [], rows, comments


def columns(path: str, names: list[str]) -> np.ndarray:
    """Float columns by name; an empty field reads as NaN."""
    header, rows, _ = read_csv(path)
    idx = [header.index(n) for n in names]
    return np.array([[float(r[i]) if r[i] else math.nan for i in idx] for r in rows],
                    dtype=np.float64).reshape(len(rows), len(idx))


def read_obj(path: str) -> tuple[np.ndarray, np.ndarray]:
    verts, tris = [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            tok = line.split()
            if tok and tok[0] == "v":
                verts.append([float(t) for t in tok[1:4]])
            elif tok and tok[0] == "f":
                tris.append([int(t.split("/")[0]) - 1 for t in tok[1:4]])
    return np.array(verts, dtype=np.float64), np.array(tris, dtype=np.int64)


def trajectories(path: str, n: int, geometry: str) -> np.ndarray:
    """(steps + 1, n, 3) positions: m columns on the plane, s columns otherwise."""
    cols = ["mx", "my", "mz"] if geometry == "plane" else ["sx", "sy", "sz"]
    data = columns(path, ["step", "id"] + cols)
    if data.shape[0] % n or not np.array_equal(data[:, 1], np.tile(np.arange(n), data.shape[0] // n)):
        raise ValueError(f"{path}: rows are not whole steps of {n} vortices")
    return data[:, 2:].reshape(-1, n, 3)


# ---------------------------------------------------------------------------
# Conserved quantities
# ---------------------------------------------------------------------------

def energy_drift(path: str, column: str, expected_rows: int, bound: float) -> tuple[bool, str]:
    """Relative drift max |q - q0| / |q0| of E (or H_tilde) over the run."""
    q = columns(path, [column])[:, 0]
    if q.shape[0] != expected_rows:
        return False, f"{column}: {q.shape[0]} rows, expected {expected_rows}"
    if not np.all(np.isfinite(q)) or q[0] == 0.0:
        return False, f"{column}: non-finite or zero initial value"
    drift = float(np.max(np.abs(q - q[0])) / abs(q[0]))
    return drift <= bound, f"{column} drift {drift:.2e} (bound {bound:g})"


def _drift(values: np.ndarray, scale: float) -> float:
    return float(np.max(np.abs(values - values[0]))) / scale


# RK4 keeps linear invariants exactly, so sum w x moves by rounding alone.
LINEAR_IMPULSE_BOUND = 1e-12


def plane_impulses(pos: np.ndarray, w, bound: float) -> tuple[bool, str]:
    """Linear sum w x and angular sum w |x|^2 impulses, relative to sum |w| |x|^k.

    The angular impulse is quadratic, so RK4 lets it drift like the energy:
    it gets the workload's drift bound.
    """
    w = [float(v) for v in w]
    lin = np.array([[math.fsum(wi * p[d] for wi, p in zip(w, step)) for d in (0, 1)]
                    for step in pos])
    ang = np.array([math.fsum(wi * (p[0] * p[0] + p[1] * p[1]) for wi, p in zip(w, step))
                    for step in pos])
    r = np.hypot(pos[:, :, 0], pos[:, :, 1])
    aw = np.abs(w)
    d_lin = _drift(lin, float(np.max(r @ aw)))
    d_ang = _drift(ang, float(np.max((r * r) @ aw)))
    ok = d_lin <= LINEAR_IMPULSE_BOUND and d_ang <= bound
    return ok, (f"impulse drift: linear {d_lin:.2e} (bound {LINEAR_IMPULSE_BOUND:g}), "
                f"angular {d_ang:.2e} (bound {bound:g})")


def sphere_impulse(pos: np.ndarray, w, bound: float) -> tuple[bool, str]:
    """Sum w p on the sphere, relative to sum |w|."""
    w = [float(v) for v in w]
    imp = np.array([[math.fsum(wi * p[d] for wi, p in zip(w, step)) for d in range(3)]
                    for step in pos])
    drift = _drift(imp, math.fsum(abs(v) for v in w))
    return drift <= bound, f"sum w p drift {drift:.2e} (bound {bound:g})"


# ---------------------------------------------------------------------------
# Closed-form pair motions (c01 and c02)
# ---------------------------------------------------------------------------

def kimura_translation(pos: np.ndarray, w, dt: float, bound: float = 1e-9) -> tuple[bool, str]:
    """An opposite pair translates with constant velocity w_other/(2 pi r^2) n x (x_j - x_i)."""
    x1, x2 = pos[0, 0, :2], pos[0, 1, :2]
    d = x1 - x2
    v = w[1] / (2.0 * math.pi * float(d @ d)) * np.array([-d[1], d[0]])
    t = np.arange(pos.shape[0]) * dt
    expect = pos[0, :, None, :2] + t[None, :, None] * v           # (2, steps, 2)
    err = float(np.max(np.abs(pos[:, :, :2].transpose(1, 0, 2) - expect)))
    return err <= bound, f"Kimura pair off its closed-form translation by {err:.2e} (bound {bound:g})"


def _rotate(p: np.ndarray, axis: np.ndarray, angle: np.ndarray) -> np.ndarray:
    """Rodrigues rotation of vector p about unit axis by each angle, (len(angle), 3)."""
    c, s = np.cos(angle)[:, None], np.sin(angle)[:, None]
    return p * c + np.cross(axis, p) * s + axis * float(axis @ p) * (1.0 - c)


def sphere_pair_rotation(pos: np.ndarray, w, dt: float, path_bound: float = 1e-4) -> tuple[bool, str]:
    """An opposite sphere pair rotates rigidly about the fixed axis p2 - p1.

    c02 bounds the drift of the contact p1 . p2 by 1e-8 and of the axis by
    1e-6 over 1000 steps; RK4's contact drift grows with the step count, so
    that bound is scaled to the run's length. The positions are compared
    with the closed-form rotation, relative to the angle travelled; RK4's
    own phase error, which the contact drift feeds, is about 1e-5 per radian
    at dt = 5e-3.
    """
    contact_bound = 1e-8 * max(pos.shape[0] - 1, 1000) / 1000
    axis_bound = 1e-6
    p1, p2 = pos[0, 0], pos[0, 1]
    axis = (p2 - p1) / np.linalg.norm(p2 - p1)
    u1 = w[1] / FOUR_PI * np.cross(p1, p2) / (1.0 - float(p1 @ p2))
    lever = np.cross(axis, p1)
    omega = float(u1 @ lever) / float(lever @ lever)
    angle = omega * dt * np.arange(pos.shape[0])
    path = max(np.max(np.linalg.norm(_rotate(pos[0, j], axis, angle) - pos[:, j], axis=1))
               for j in (0, 1)) / max(abs(angle[-1]), 1.0)
    dots = np.sum(pos[:, 0] * pos[:, 1], axis=1)
    contact = float(np.max(np.abs(dots - dots[0])))
    axes = pos[:, 1] - pos[:, 0]
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    axis_drift = float(np.max(np.linalg.norm(axes - axis, axis=1)))
    ok = contact <= contact_bound and axis_drift <= axis_bound and path <= path_bound
    return ok, (f"sphere pair: contact drift {contact:.2e} (bound {contact_bound:g}), axis drift "
                f"{axis_drift:.2e} (bound {axis_bound:g}), off rigid rotation by {path:.2e} per rad "
                f"(bound {path_bound:g})")


# ---------------------------------------------------------------------------
# Mesh outputs
# ---------------------------------------------------------------------------

def point_mesh_distance(points: np.ndarray, verts: np.ndarray, tris: np.ndarray,
                        margin: float) -> np.ndarray:
    """Exact distance from each point to the nearest triangle, or inf beyond `margin`.

    Only triangles whose bounding box, grown by `margin`, holds the point can
    be within `margin` of it; the distance to each of those is computed in
    full (projection inside the triangle, else the nearest edge point).
    """
    corners = verts[tris]                                    # (F, 3 corners, 3)
    lo, hi = corners.min(axis=1) - margin, corners.max(axis=1) + margin
    out = np.full(points.shape[0], np.inf)
    for k, q in enumerate(points):
        near = np.nonzero(np.all((lo <= q) & (q <= hi), axis=1))[0]
        if near.size == 0:
            continue
        a, b, c = (corners[near, i] for i in range(3))
        ab, ac, aq = b - a, c - a, q - a
        n = np.cross(ab, ac)
        nn = np.einsum("ij,ij->i", n, n)
        s = np.einsum("ij,ij->i", np.cross(aq, ac), n) / nn
        t = np.einsum("ij,ij->i", np.cross(ab, aq), n) / nn
        inside = (s >= 0) & (t >= 0) & (s + t <= 1)
        best = np.where(inside, np.abs(np.einsum("ij,ij->i", aq, n)) / np.sqrt(nn), np.inf)
        for p0, p1 in ((a, b), (b, c), (c, a)):
            e = p1 - p0
            u = np.clip(np.einsum("ij,ij->i", q - p0, e) / np.einsum("ij,ij->i", e, e), 0.0, 1.0)
            best = np.minimum(best, np.linalg.norm(q - (p0 + u[:, None] * e), axis=1))
        out[k] = best.min()
    return out


def mapped_back_on_mesh(traj_path: str, n: int, mesh_path: str,
                        bound: float = 1e-9) -> tuple[bool, str]:
    """Mapped-back m points of the first, middle and last step lie on the source mesh."""
    m = columns(traj_path, ["mx", "my", "mz"]).reshape(-1, n, 3)
    steps = sorted({0, m.shape[0] // 2, m.shape[0] - 1})
    pts = m[steps].reshape(-1, 3)
    if not np.all(np.isfinite(pts)):
        return False, "mapped-back positions missing or non-finite"
    verts, tris = read_obj(mesh_path)
    dist = float(point_mesh_distance(pts, verts, tris, margin=1e-6).max())
    return dist <= bound, f"mapped-back points {dist:.2e} off the source mesh (bound {bound:g})"


def solid_angles(verts: np.ndarray, tris: np.ndarray) -> np.ndarray:
    """Signed solid angle of each triangle of unit vectors (Van Oosterom-Strackee)."""
    a, b, c = verts[tris[:, 0]], verts[tris[:, 1]], verts[tris[:, 2]]
    det = np.einsum("ij,ij->i", a, np.cross(b, c))
    den = 1.0 + np.einsum("ij,ij->i", a, b) + np.einsum("ij,ij->i", b, c) + np.einsum("ij,ij->i", c, a)
    return 2.0 * np.arctan2(det, den)


def sphere_map(sphere_path: str, mesh_path: str, unit_bound: float = 1e-12) -> tuple[bool, str]:
    """sphere.obj keeps the triangle list, has unit vertices and covers the sphere once."""
    sv, st = read_obj(sphere_path)
    mv, mt = read_obj(mesh_path)
    if sv.shape != mv.shape or not np.array_equal(st, mt):
        return False, "sphere.obj does not keep the source vertex count and triangle list"
    unit = float(np.max(np.abs(np.linalg.norm(sv, axis=1) - 1.0)))
    omega = solid_angles(sv, st)
    flipped = int(np.count_nonzero(omega <= 0.0))
    cover = abs(math.fsum(omega) - FOUR_PI)
    ok = unit <= unit_bound and flipped == 0 and cover <= 1e-9
    return ok, (f"sphere map: |v| - 1 up to {unit:.1e}, {flipped} triangles not positively "
                f"oriented, total solid angle off 4 pi by {cover:.1e}")


# ---------------------------------------------------------------------------
# Field rows
# ---------------------------------------------------------------------------

def _plane_row(x, sources, w):
    ux, uy, psi, scale = [], [], [], []
    for p, wi in zip(sources, w):
        dx, dy = x[0] - p[0], x[1] - p[1]
        r2 = dx * dx + dy * dy
        c = wi / (2.0 * math.pi * r2)
        ux.append(-c * dy)
        uy.append(c * dx)
        scale.append(abs(c) * math.sqrt(r2))
        psi.append(-wi * math.log(r2) / (4.0 * math.pi))
    return [math.fsum(ux), math.fsum(uy), 0.0], math.fsum(psi), math.fsum(scale), math.fsum(map(abs, psi))


def _sphere_row(x, sources, w):
    comps = ([], [], [])
    psi, scale = [], []
    for p, wi in zip(sources, w):
        cross = (x[1] * p[2] - x[2] * p[1], x[2] * p[0] - x[0] * p[2], x[0] * p[1] - x[1] * p[0])
        chord2 = (x[0] - p[0]) ** 2 + (x[1] - p[1]) ** 2 + (x[2] - p[2]) ** 2
        c = wi / (FOUR_PI * (chord2 / 2.0))                  # 1 - x.p = |x - p|^2 / 2
        for k in range(3):
            comps[k].append(c * cross[k])
        scale.append(abs(c) * math.sqrt(chord2))
        psi.append(-wi * math.log(math.sqrt(chord2) / 2.0) / (2.0 * math.pi))
    return [math.fsum(v) for v in comps], math.fsum(psi), math.fsum(scale), math.fsum(map(abs, psi))


def gnomonic_factor(x: np.ndarray, verts: np.ndarray, tris: np.ndarray, h: np.ndarray) -> float:
    """h at sphere point x: gnomonic barycentric weights in a containing triangle."""
    a, b, c = verts[tris[:, 0]], verts[tris[:, 1]], verts[tris[:, 2]]
    vol = np.einsum("ij,ij->i", a, np.cross(b, c))
    lam = np.stack([np.cross(b, c) @ x, np.cross(c, a) @ x, np.cross(a, b) @ x], axis=1) / vol[:, None]
    scale = np.maximum(1.0, np.abs(lam).max(axis=1))
    inside = np.nonzero(lam.min(axis=1) >= -1e-12 * scale)[0]
    if inside.size == 0:
        raise ValueError("no sphere triangle contains the field point")
    t = int(inside[0])
    wts = np.clip(lam[t], 0.0, None)
    return math.fsum(wts * h[tris[t]]) / math.fsum(wts)


def field_rows(field_path: str, sources: np.ndarray, w, geometry: str, expected_points: int,
               sample: int = 24, bound: float = 1e-9, sphere_obj: str | None = None,
               factors_csv: str | None = None) -> tuple[bool, str]:
    """Recompute a spread sample of field rows: velocity, and psi on plane and sphere.

    Errors are relative to the sum of the magnitudes of the terms of each row.
    """
    header, rows, comments = read_csv(field_path)
    skipped = [int(c.split(":")[1]) for c in comments if c.startswith("# skipped_near_vortex")]
    if not skipped or len(rows) + skipped[0] != expected_points:
        return False, f"{len(rows)} field rows and {skipped} skipped, expected {expected_points} points"
    has_psi = "psi" in header
    if has_psi != (geometry != "mesh"):
        return False, "psi column present where unsupported, or missing"
    if geometry == "mesh":
        verts, tris = read_obj(sphere_obj)
        h = columns(factors_csv, ["h"])[:, 0]
    w = [float(v) for v in w]
    worst = 0.0
    for i in np.unique(np.linspace(0, len(rows) - 1, sample).astype(int)):
        vals = [float(v) for v in rows[i]]
        x = np.array(vals[:3])
        if geometry == "plane":
            u, psi, u_scale, psi_scale = _plane_row(x, sources, w)
        else:
            u, psi, u_scale, psi_scale = _sphere_row(x, sources, w)
        if geometry == "mesh":
            hx = gnomonic_factor(x, verts, tris, h)
            u = [v / (hx * hx) for v in u]
            u_scale /= hx * hx
        err = max(abs(a - b) for a, b in zip(vals[3:6], u)) / u_scale
        if has_psi:
            err = max(err, abs(vals[6] - psi) / psi_scale)
        worst = max(worst, err)
    return worst <= bound, f"field rows: worst relative error {worst:.2e} (bound {bound:g})"


# ---------------------------------------------------------------------------
# Reproducibility
# ---------------------------------------------------------------------------

def output_digests(out_dir: str) -> dict[str, str]:
    """sha256 of every CSV and OBJ under an output directory, by relative path."""
    digests = {}
    for base, _, files in os.walk(out_dir):
        for name in files:
            if name.endswith((".csv", ".obj")):
                path = os.path.join(base, name)
                with open(path, "rb") as fh:
                    digests[os.path.relpath(path, out_dir)] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def identical_outputs(a: dict[str, str], b: dict[str, str]) -> tuple[bool, str]:
    differ = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
    if not a:
        return False, "no outputs to compare"
    return not differ, f"{len(a)} output files byte-identical" if not differ else f"outputs differ: {differ}"
