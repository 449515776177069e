"""Geometric phases of linear Hamiltonian flows on coherent-state orbits.

The package works in a single holomorphic chart of a homogeneous Kahler
manifold: reproducing kernels and Kahler potentials (``manifolds``,
``geometry``), Mobius and Riccati chart dynamics with coherent expectation
values (``dynamics``), exact triangle phases, connection line integrals,
and phase reports (``phases``), the rank-one Schrodinger reference
(``su2``), and Betti numbers of the underlying quotients (``topology``).
"""

from .errors import (
    BranchCut,
    ChartOverflow,
    CrossCheckFailure,
    DimensionMismatch,
    GridMismatch,
    InvalidRank,
    InvalidSpin,
    KernelZero,
    KPhaseError,
    NoCycleFound,
    NonDivisible,
    NonRealExpectation,
    NotClosed,
    NotCoherent,
    NotCyclic,
    OutsideDomain,
    RankMismatch,
    ReducibleFactor,
    ScheduleGap,
    SymmetryViolation,
    UnknownGroup,
    UnsupportedFamily,
)
from .manifolds import (
    Family,
    ManifoldSpec,
    cp1,
    kernel,
    normalized_overlap,
    projective_distance,
    validate_points,
)
from .geometry import (
    coordinate_basis,
    gradient,
    metric,
    potential,
)
from .dynamics import (
    CycleInfo,
    HamiltonianSchedule,
    Trajectory,
    block_split,
    clip_trajectory,
    expectation,
    find_cycle,
    propagate,
    ray_distances,
    riccati_rhs,
    trajectory,
)
from .phases import (
    PhaseReport,
    StokesReport,
    assemble_report,
    dynamical_phase,
    line_integral_phase,
    polygon_phase,
    stokes_compare,
    triangle_phase,
    wrap_angle,
)
from .su2 import (
    SpinRep,
    StateTrajectory,
    bloch_projection,
    coherent_vector,
    map_schedule,
    map_to_spin,
    quantum_phases,
    schrodinger_evolve,
    spin_operators,
)
from .loops import fourier_loop, latitude_circle

__version__ = "1.0.0"

# ``topology`` is imported on first use of one of its names (PEP 562):
# of the command line, only ``poincare`` needs it.
_TOPOLOGY = (
    "BettiReport",
    "GroupSpec",
    "MinOrbitInfo",
    "PoincarePolynomial",
    "Series",
    "SimpleFactor",
    "betti_validate",
    "hirsch_polynomial",
    "min_orbit",
    "parse_group",
    "parse_quotient",
    "poincare_quotient",
    "weyl_degrees",
)

# Every class and function bound above, and topology's.
__all__ = sorted(
    [name for name, value in globals().items()
     if getattr(value, "__module__", "").startswith(__name__ + ".")]
    + list(_TOPOLOGY)
)


def __getattr__(name: str):
    if name in _TOPOLOGY:
        from . import topology

        return getattr(topology, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_TOPOLOGY})
