"""Exception hierarchy shared by all surfvort modules."""


class SurfVortError(Exception):
    """Base class for all surfvort errors."""


class MeshFormatError(SurfVortError):
    """Malformed OBJ input: bad records, out-of-range indices, empty mesh."""


class DegenerateTriangleError(SurfVortError):
    """A triangle with (numerically) vanishing area where one is not allowed."""


class TopologyError(SurfVortError):
    """Mesh rejected by the closed-genus-zero precondition."""


class SingularityError(SurfVortError):
    """Two evaluation points closer than the singularity guard distance.

    Raised by the pair passes of `dynamics` (Green's functions, velocities and
    the vortex-separation check); during time integration it signals a vortex
    collision.
    """


class VorticityBalanceError(SurfVortError):
    """Total vorticity does not vanish where the closed-surface model requires it."""


class ConformalMapError(SurfVortError):
    """Sparse solve failure or invalid state while building the conformal map."""


class LocationError(SurfVortError):
    """Invalid surface location, or point location failed on a corrupt mesh."""


class ScenarioError(SurfVortError):
    """Scenario file or command-line flag failed validation."""
