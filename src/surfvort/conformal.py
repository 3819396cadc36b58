"""Conformal sphere parameterization of genus-zero meshes.

The map is produced by conformalized mean-curvature flow: implicit steps
``(D_k + delta * L0) f_{k+1} = D_k f_k`` with the stiffness matrix L0 frozen
at the input mesh and the lumped mass D_k recomputed from the current
embedding, recentering and rescaling to total area 4 pi after every solve.

Only the diagonal D_k changes between steps, and slowly, so one LU factor of
``D_f + delta * L0`` (``splu``) serves several steps: later steps solve by
conjugate gradients preconditioned with the kept factor, started from f_k
and stopped at a relative residual of 1e-12 per coordinate column. Both
matrices are SPD; with ``r = D_k / D_f`` their Rayleigh quotients differ by
a factor between min(r, 1) and max(r, 1), and both masses total 4 pi, so
min r <= 1 <= max r and the preconditioned condition number is at most
``max r / min r``. A step factors its own matrix and solves it directly
when that spread exceeds 2 (which caps CG near 16 iterations) or when CG
misses its tolerance within its iteration cap. Every step's solution must
still meet the 1e-10 relative residual check. The factor takes diagonal
pivots, which SPD allows, in a symmetric order: the flow runs on the vertices
relabelled in reverse Cuthill-McKee order, and SuperLU orders A + A^T by
minimum degree. That fills L + U 0.61-0.78x as much as COLAMD with partial
pivoting and factors in 0.4-0.7x the time; minimum degree on the subdivision
labelling itself takes about 20x as long.

Per-vertex conformal factors follow from corner-wise edge-length ratios, and
per-triangle gradients of vertex scalars use the piecewise-linear hat-basis
gradient (rotated-edge form, exact on linear functions).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .errors import ConformalMapError, DegenerateTriangleError, TopologyError
from .mesh import TriangleMesh, face_areas, face_normals, validate_closed_genus0
from .numerics import FloatArray, readonly
from .transport import SphereLocator

# Largest max/min ratio of the current to the factored lumped mass at which the
# kept factor still preconditions a step; beyond it the step factors afresh.
MAX_MASS_SPREAD = 2.0
# Per-column relative residual at which conjugate gradients stops, and the
# iteration cap after which the step factors afresh instead.
PCG_RTOL = 1e-12
PCG_MAX_ITERS = 40


def _cot_weights(mesh: TriangleMesh) -> tuple[FloatArray, FloatArray, FloatArray]:
    """Per-face cotangents of the angles at corners 1, 2, 3."""
    a, b, c = mesh.corners()
    areas = face_areas(mesh)
    if np.any(areas <= mesh.degenerate_area_threshold()):
        raise DegenerateTriangleError("degenerate triangle in cotangent weights")

    def cot(p, q, r):
        u, v = q - p, r - p
        return np.sum(u * v, axis=1) / np.linalg.norm(np.cross(u, v), axis=1)

    return cot(a, b, c), cot(b, c, a), cot(c, a, b)


def cotan_laplacian(mesh: TriangleMesh) -> sparse.csr_matrix:
    """The cotangent stiffness matrix S, symmetric positive semi-definite with zero row sums.

    S[i, j] = -w_ij off the diagonal and S[i, i] = sum_j w_ij, where w_ij = (cot a + cot b) / 2
    over the edge's opposite angles; the smooth Laplacian is -`lumped_mass`^{-1} S.
    """
    cot1, cot2, cot3 = _cot_weights(mesh)
    t = mesh.triangles
    n = mesh.vertex_count
    # the angle at a corner weights the opposite edge
    rows = np.concatenate([t[:, 1], t[:, 2], t[:, 2], t[:, 0], t[:, 0], t[:, 1]])
    cols = np.concatenate([t[:, 2], t[:, 1], t[:, 0], t[:, 2], t[:, 1], t[:, 0]])
    w = 0.5 * np.concatenate([cot1, cot1, cot2, cot2, cot3, cot3])
    off = sparse.coo_matrix((-w, (rows, cols)), shape=(n, n)).tocsr()
    diag = -np.asarray(off.sum(axis=1)).ravel()
    return (off + sparse.diags(diag)).tocsr()


def lumped_mass(vertices: FloatArray, triangles) -> FloatArray:
    """Barycentric vertex areas (one third of each incident triangle)."""
    v1, v2, v3 = (vertices[triangles[:, i]] for i in range(3))
    areas = 0.5 * np.linalg.norm(np.cross(v2 - v1, v3 - v1), axis=1)
    mass = np.zeros(vertices.shape[0])
    for i in range(3):
        np.add.at(mass, triangles[:, i], areas / 3.0)
    return mass


@dataclass(frozen=True)
class CmcfResult:
    positions: FloatArray
    iterations_used: int
    sphericity_residual: float
    converged: bool


def _area_centroid(vertices: FloatArray, mass: FloatArray) -> FloatArray:
    return mass @ vertices / mass.sum()


def _sphericity(vertices: FloatArray, mass: FloatArray) -> float:
    radii = np.linalg.norm(vertices - _area_centroid(vertices, mass), axis=1)
    mean = radii.mean()
    return float(np.abs(radii / mean - 1.0).max())


def cmcf_to_sphere(
    mesh: TriangleMesh,
    delta: float = 0.1,
    max_iters: int = 200,
    tol: float = 1e-3,
) -> CmcfResult:
    """Flow a closed genus-zero mesh onto the unit sphere.

    Stops when the sphericity residual max| |v - centroid| / mean_radius - 1 |
    drops below `tol`; the returned positions are radially projected onto the
    exact unit sphere. Non-convergence is reported through the `converged`
    flag, never silently.

    Raises
    ------
    TopologyError
        If the mesh is not closed, oriented and genus zero.
    ConformalMapError
        If a sparse solve fails or produces an invalid embedding.
    """
    report = validate_closed_genus0(mesh)
    if not report.is_closed_genus0:
        raise TopologyError(
            "mesh is not a closed oriented genus-zero surface "
            f"(euler={report.euler_characteristic}, boundary={report.boundary_edge_count}, "
            f"oriented={report.is_oriented})"
        )
    if report.min_triangle_area <= mesh.degenerate_area_threshold():
        raise DegenerateTriangleError("input mesh has degenerate triangles")

    from scipy.sparse.csgraph import reverse_cuthill_mckee  # not loaded by runs without a mesh

    stiffness = cotan_laplacian(mesh)
    order = reverse_cuthill_mckee(stiffness, symmetric_mode=True)
    relabel = np.argsort(order)
    delta_stiffness = (delta * stiffness[order][:, order]).tocsc()
    f = mesh.vertices[order]
    tris = relabel[mesh.triangles]
    iterations, residual, converged = 0, np.inf, False
    solver = factored_mass = None
    for k in range(max_iters + 1):
        mass = lumped_mass(f, tris)
        if not np.all(np.isfinite(mass)) or mass.sum() <= 0.0:
            raise ConformalMapError(f"flow degenerated at iteration {k}")
        f = f - _area_centroid(f, mass)
        f *= np.sqrt(4.0 * np.pi / mass.sum())
        mass *= 4.0 * np.pi / mass.sum()
        residual = _sphericity(f, mass)
        if residual < tol:
            converged = True
            break
        if k == max_iters:
            break
        lhs = (sparse.diags(mass) + delta_stiffness).tocsc()
        rhs = mass[:, None] * f
        new_f = None
        if solver is not None:
            ratio = mass / factored_mass
            if ratio.max() <= MAX_MASS_SPREAD * ratio.min():
                new_f = _pcg(lhs, rhs, f, solver.solve)
        if new_f is None:
            try:
                solver = splu(lhs, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                              options={"SymmetricMode": True})
                factored_mass = mass
                new_f = solver.solve(rhs)
            except RuntimeError as exc:
                raise ConformalMapError(f"sparse solve failed at iteration {k}: {exc}") from exc
        resid = np.linalg.norm(lhs @ new_f - rhs) / np.linalg.norm(rhs)
        if not np.isfinite(resid) or resid > 1e-10:
            raise ConformalMapError(f"solver residual {resid:g} exceeds 1e-10 at iteration {k}")
        f = new_f
        iterations = k + 1
    f = f / np.linalg.norm(f, axis=1, keepdims=True)
    return CmcfResult(
        positions=f[relabel],
        iterations_used=iterations,
        sphericity_residual=residual,
        converged=converged,
    )


def _pcg(lhs, rhs: FloatArray, x: FloatArray, precondition) -> FloatArray | None:
    """Preconditioned conjugate gradients on the columns of ``lhs @ x = rhs``.

    The columns iterate together, each with its own step lengths, from the
    start `x` until every column's residual is within PCG_RTOL of its
    right-hand side; None if that takes more than PCG_MAX_ITERS iterations.
    """
    target = PCG_RTOL * np.linalg.norm(rhs, axis=0)
    r = rhs - lhs @ x
    z = precondition(r)
    p = z
    rz = np.einsum("ij,ij->j", r, z)
    for _ in range(PCG_MAX_ITERS):
        q = lhs @ p
        alpha = rz / np.einsum("ij,ij->j", p, q)
        x = x + alpha * p
        r = r - alpha * q
        if np.all(np.linalg.norm(r, axis=0) <= target):
            return x
        z = precondition(r)
        rz, rz_old = np.einsum("ij,ij->j", r, z), rz
        p = z + (rz / rz_old) * p
    return None


def _edge_lengths(vertices: FloatArray, tris) -> tuple[FloatArray, FloatArray, FloatArray]:
    """Lengths of edges (1,2), (2,0), (0,1) per triangle."""
    v1, v2, v3 = (vertices[tris[:, i]] for i in range(3))
    return (
        np.linalg.norm(v3 - v2, axis=1),
        np.linalg.norm(v1 - v3, axis=1),
        np.linalg.norm(v2 - v1, axis=1),
    )


def conformal_log_factors(mesh: TriangleMesh, sphere_positions: FloatArray) -> FloatArray:
    """Per-vertex log conformal factors u of the map mesh -> sphere mesh.

    Each triangle corner contributes one estimate from edge-length ratios:
    the scale at corner i of triangle ijk is (L_ij * L_ki * l_jk) /
    (l_ij * l_ki * L_jk), with L the source lengths and l the sphere lengths.
    Per-vertex u averages the log of these corner estimates over incident
    triangles. The factor h = e^u is the source/sphere length-scale ratio,
    so a radius-R sphere source yields h = R.
    """
    sphere_positions = np.asarray(sphere_positions, dtype=np.float64)
    if sphere_positions.shape != mesh.vertices.shape:
        raise ValueError("sphere positions must match the source mesh vertices")
    tris = mesh.triangles
    src = _edge_lengths(mesh.vertices, tris)     # opposite corners 1, 2, 3
    img = _edge_lengths(sphere_positions, tris)
    if min(arr.min() for arr in src) <= 0.0 or min(arr.min() for arr in img) <= 0.0:
        raise DegenerateTriangleError("zero-length edge in conformal factor estimate")
    # corner c touches the two edges not opposite to it
    log_src = [np.log(e) for e in src]
    log_img = [np.log(e) for e in img]
    u = np.zeros(mesh.vertex_count)
    count = np.zeros(mesh.vertex_count)
    for c in range(3):
        e1, e2, opp = (c + 1) % 3, (c + 2) % 3, c
        corner_u = (
            log_src[e1] + log_src[e2] - log_src[opp]
            - log_img[e1] - log_img[e2] + log_img[opp]
        )
        np.add.at(u, tris[:, c], corner_u)
        np.add.at(count, tris[:, c], 1.0)
    if np.any(count == 0.0):
        raise ValueError("isolated vertex without incident triangles")
    return u / count


def triangle_gradient(mesh: TriangleMesh, values) -> FloatArray:
    """Per-triangle gradient of a per-vertex scalar field, shape (F, 3).

    Piecewise-linear hat-basis gradient: (1 / 2A) * sum_c values[c] *
    (n_hat x e_c) with e_c the edge opposite corner c. Exact for linear
    functions and tangent to each triangle's plane; constant fields give
    the zero vector.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (mesh.vertex_count,):
        raise ValueError("need exactly one value per vertex")
    v1, v2, v3 = mesh.corners()
    normals = face_normals(mesh)  # raises on degenerate triangles
    areas = face_areas(mesh)
    t = mesh.triangles
    grad = (
        values[t[:, 0], None] * np.cross(normals, v3 - v2)
        + values[t[:, 1], None] * np.cross(normals, v1 - v3)
        + values[t[:, 2], None] * np.cross(normals, v2 - v1)
    )
    return grad / (2.0 * areas[:, None])


@dataclass
class ConformalAtlas:
    """Complete discrete conformal map from a mesh onto the unit sphere.

    Triangle correspondence is by identical index: triangle t of the source
    mesh maps to triangle t of the sphere mesh. Immutable once built; safe
    for concurrent reads by the dynamics evaluators.
    """

    source_mesh: TriangleMesh
    sphere_positions: FloatArray
    log_factors: FloatArray
    factors: FloatArray
    triangle_grad_h: FloatArray
    iterations_used: int
    sphericity_residual: float
    converged: bool = True
    _sphere_mesh: TriangleMesh | None = field(default=None, repr=False)
    _locator: SphereLocator | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        for name in ("sphere_positions", "log_factors", "factors", "triangle_grad_h"):
            setattr(self, name, readonly(np.asarray(getattr(self, name), dtype=np.float64)))

    @property
    def sphere_mesh(self) -> TriangleMesh:
        if self._sphere_mesh is None:
            self._sphere_mesh = TriangleMesh(self.sphere_positions, self.source_mesh.triangles)
        return self._sphere_mesh

    @property
    def locator(self) -> SphereLocator:
        if self._locator is None:
            self._locator = SphereLocator(self.sphere_mesh)
        return self._locator

    def factor_at(self, tri, st) -> FloatArray:
        """Conformal factor h linearly interpolated at sphere-mesh locations, (n,)."""
        h = self.factors[self.sphere_mesh.triangles[tri]]
        s, t = st[:, 0], st[:, 1]
        return (1.0 - s - t) * h[:, 0] + s * h[:, 1] + t * h[:, 2]

    def grad_factor_at(self, tri) -> FloatArray:
        """Constant per-triangle gradients of h on the sphere mesh, (n, 3)."""
        return self.triangle_grad_h[tri]


def build_atlas(
    mesh: TriangleMesh,
    delta: float = 0.1,
    tol: float = 1e-3,
    max_iters: int = 200,
) -> ConformalAtlas:
    """Run the full preprocessing stage: flow to the sphere, factors, gradients."""
    flow = cmcf_to_sphere(mesh, delta=delta, max_iters=max_iters, tol=tol)
    u = conformal_log_factors(mesh, flow.positions)
    h = np.exp(u)
    sphere_mesh = TriangleMesh(flow.positions, mesh.triangles)
    grad_h = triangle_gradient(sphere_mesh, h)
    return ConformalAtlas(
        source_mesh=mesh,
        sphere_positions=flow.positions,
        log_factors=u,
        factors=h,
        triangle_grad_h=grad_h,
        iterations_used=flow.iterations_used,
        sphericity_residual=flow.sphericity_residual,
        converged=flow.converged,
        _sphere_mesh=sphere_mesh,
    )


# ---------------------------------------------------------------------------
# Map-quality statistics (used by reports and tests)
# ---------------------------------------------------------------------------

def edge_scale_residuals(atlas: ConformalAtlas) -> FloatArray:
    """Relative mismatch of source edge lengths against the factor model.

    For each undirected edge (i, j) the discrete conformal model predicts
    L_ij = e^{(u_i + u_j) / 2} * l_ij; returns |L - prediction| / L per edge.
    """
    edges = atlas.source_mesh.undirected_edges()
    src = np.linalg.norm(
        atlas.source_mesh.vertices[edges[:, 0]] - atlas.source_mesh.vertices[edges[:, 1]], axis=1
    )
    img = np.linalg.norm(
        atlas.sphere_positions[edges[:, 0]] - atlas.sphere_positions[edges[:, 1]], axis=1
    )
    u = atlas.log_factors
    predicted = np.exp(0.5 * (u[edges[:, 0]] + u[edges[:, 1]])) * img
    return np.abs(src - predicted) / src


def _corner_angles(vertices: FloatArray, tris) -> FloatArray:
    """(F, 3) interior angles."""
    v1, v2, v3 = (vertices[tris[:, i]] for i in range(3))

    def ang(p, q, r):
        u, v = q - p, r - p
        c = np.sum(u * v, axis=1) / (np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1))
        return np.arccos(np.clip(c, -1.0, 1.0))

    return np.stack([ang(v1, v2, v3), ang(v2, v3, v1), ang(v3, v1, v2)], axis=1)


def angle_distortions(atlas: ConformalAtlas) -> FloatArray:
    """Per-triangle max |angle difference| between source and image, radians."""
    src = _corner_angles(atlas.source_mesh.vertices, atlas.source_mesh.triangles)
    img = _corner_angles(atlas.sphere_positions, atlas.source_mesh.triangles)
    return np.abs(src - img).max(axis=1)

