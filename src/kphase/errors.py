"""Exception types shared across the toolkit.

Every error raised by the library derives from :class:`KPhaseError`, so
callers (and the command line driver) can separate domain problems from
genuine bugs.
"""


class KPhaseError(Exception):
    """Base class for all toolkit errors."""


class DimensionMismatch(KPhaseError):
    """Array shape is incompatible with the manifold or operator spec."""


class SymmetryViolation(KPhaseError):
    """Matrix fails its required (skew-)symmetry beyond tolerance."""


class OutsideDomain(KPhaseError):
    """Point lies on or outside the boundary of a bounded-domain chart."""


class KernelZero(KPhaseError):
    """A kernel value vanishes where a ratio or logarithm needs it."""


class NotClosed(KPhaseError):
    """Trajectory endpoints do not close up within the cyclicity tolerance."""


class GridMismatch(KPhaseError):
    """Trajectory time grid is not covered by the schedule."""


class ScheduleGap(KPhaseError):
    """Coefficient lookup outside the sampled time range."""


class ChartOverflow(KPhaseError):
    """Fractional-linear image leaves the coordinate chart."""


class CrossCheckFailure(KPhaseError):
    """Independent evolution routes disagree beyond tolerance."""


class NonRealExpectation(KPhaseError):
    """Generator expectation acquired a non-negligible imaginary part."""


class NoCycleFound(KPhaseError):
    """No return to the initial ray within the integrated span."""


class NotCyclic(KPhaseError):
    """Final state is not proportional to the initial state."""


class NotCoherent(KPhaseError):
    """State vector is too far from every coherent ray."""


class InvalidSpin(KPhaseError):
    """Spin label is not a positive half-integer."""


class InvalidRank(KPhaseError):
    """Rank outside the valid range for a group series."""


class RankMismatch(KPhaseError):
    """Numerator and denominator degree lists have different lengths."""


class NonDivisible(KPhaseError):
    """Polynomial quotient has a nonzero remainder."""


class UnknownGroup(KPhaseError):
    """Group name cannot be resolved to a product of known series."""


class UnsupportedFamily(KPhaseError):
    """Operation is not defined for this manifold family."""


class BranchCut(KPhaseError):
    """Kernel-ratio increments hug the negative real axis after refinement."""
