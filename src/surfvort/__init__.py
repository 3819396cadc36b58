"""Point-vortex dynamics on the plane, the unit sphere and closed genus-zero surfaces.

The general case runs on the vortices' conformal sphere images: a discrete
conformal map (conformalized mean-curvature flow) carries the mesh onto the
unit sphere, and the spherical pair dynamics pick up a conformal-factor
rescaling plus a factor-gradient self term.
"""

from .conformal import (
    ConformalAtlas,
    build_atlas,
    cmcf_to_sphere,
    conformal_log_factors,
    cotan_laplacian,
    triangle_gradient,
)
from .dynamics import (
    CLOSED_SURFACE,
    DEFAULT_SELF_TERM_SIGN,
    EPS_SEPARATION,
    PLANE,
    SPHERE,
    VortexSystem,
    energy_diagnostics,
    kinetic_energy,
    make_rhs,
    planar_field_velocity,
    sphere_field_velocity,
    stream_function,
    surface_field_velocity,
)
from .errors import (
    ConformalMapError,
    DegenerateTriangleError,
    LocationError,
    MeshFormatError,
    ScenarioError,
    SingularityError,
    SurfVortError,
    TopologyError,
    VorticityBalanceError,
)
from .integrator import (
    IntegratorConfig,
    RunResult,
    rk4_step,
    run,
)
from .mesh import (
    TopologyReport,
    TriangleMesh,
    load_obj,
    save_obj,
    validate_closed_genus0,
)
from .transport import (
    SphereLocator,
    position_of,
    sample_points,
)

__version__ = "0.1.0"
