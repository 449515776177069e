"""Geometric and dynamical phases, and the total-phase bookkeeping report.

Two independent routes to the geometric phase are kept deliberately
separate: the exact two-point fan formula built from kernel arguments
(:func:`triangle_phase`, :func:`polygon_phase`) and the numeric line
integral of the connection along a sampled loop
(:func:`line_integral_phase`).  :func:`stokes_compare` confronts them.

Both phases of a path are classical and act on its whole stack-last
``(rows, cols, n)`` stack at once.  With ``G_k`` the closed-form gradient
of ``geometry.gradient`` at sample ``k``, the geometric phase is the
trapezoid ``gamma = 1/2 sum_k Im sum((G_k + G_{k+1}) * (Z_{k+1} - Z_k))``
over the closed loop, and the dynamical phase ``beta`` is the trapezoid
integral of ``dynamics.expectation`` over the sample times.  Both read
the same ``G_k``, so a cyclic trajectory takes them from one gradient
pass (``_phases``), and its expectation reads the dZ/dt that the
trajectory stored as ``velocities``.

Angles wrap to the half-open interval (-pi, pi].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    HamiltonianSchedule,
    Trajectory,
    _expectation,
    _riccati,
    _stage_blocks,
    defining_dimension,
)
from .errors import (
    BranchCut,
    DimensionMismatch,
    GridMismatch,
    KernelZero,
    NotClosed,
    ScheduleGap,
)
from .geometry import _gradient
from .manifolds import (
    KERNEL_ZERO_TOL,
    SYMMETRY_TOL,
    ManifoldSpec,
    _broadcast_last,
    _distance,
    _kernel,
    _point_faults,
    _require_finite,
    _stack_first,
    as_chart_array,
    raise_first_fault,
    validate_points,
)

CONSISTENCY_TOL = 1e-6
BRANCH_TOL = 1e-9
# Times a Stokes comparison doubles its loop when a fan triangle lands on
# the branch cut.
MAX_REFINEMENTS = 3


def wrap_angle(x: float) -> float:
    """Reduce an angle to (-pi, pi]; the lower endpoint maps to +pi."""
    r = math.remainder(x, 2.0 * math.pi)
    if r <= -math.pi:
        r += 2.0 * math.pi
    return r


@dataclass(frozen=True)
class PhaseReport:
    """Total, dynamical, and geometric phase of one cyclic motion.

    Raw (unwrapped) values are stored; the properties wrap.  ``defect`` is
    the wrapped mismatch of total against dynamical-plus-geometric, and
    ``closure_residual`` is the loop-closure distance the phases were
    accepted at.
    """

    alpha_raw: float
    beta_raw: float
    gamma_raw: float
    closure_residual: float
    method: str | None = None

    @property
    def alpha(self) -> float:
        return wrap_angle(self.alpha_raw)

    @property
    def beta(self) -> float:
        return wrap_angle(self.beta_raw)

    @property
    def gamma(self) -> float:
        return wrap_angle(self.gamma_raw)

    @property
    def defect(self) -> float:
        return wrap_angle(self.alpha_raw - self.beta_raw - self.gamma_raw)

    @property
    def consistent(self) -> bool:
        return abs(self.defect) < CONSISTENCY_TOL

    def to_json(self) -> dict:
        out = {
            "alpha": self.alpha,
            "beta": self.beta,
            "gamma": self.gamma,
            "alpha_raw": self.alpha_raw,
            "gamma_raw": self.gamma_raw,
            "residual": self.closure_residual,
            "consistent": self.consistent,
        }
        if self.method is not None:
            out["method"] = self.method
        return out


def assemble_report(
    alpha: float,
    beta: float,
    gamma: float,
    residual: float,
    method: str | None = None,
) -> PhaseReport:
    """Bundle raw phase values into a report with the consistency defect."""
    for name, value in (("alpha", alpha), ("beta", beta), ("gamma", gamma),
                        ("residual", residual)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite")
    return PhaseReport(
        alpha_raw=float(alpha),
        beta_raw=float(beta),
        gamma_raw=float(gamma),
        closure_residual=float(residual),
        method=method,
    )


def triangle_phase(spec: ManifoldSpec, level: int, z, w):
    """Exact phase of the geodesic triangle with third vertex at the origin.

    Half the principal argument of the kernel ratio, scaled by the level
    and by the sign ``s`` of the potential (+1 compact, -1 bounded domain):
    ``s * level/2 * Arg(K(w, conj(z)) / K(z, conj(w)))``, so that a closed
    fan equals the connection line integral on both.  One kernel is
    evaluated per pair: the kernel is Hermitian, so the numerator is the
    conjugate of the denominator.  Antisymmetric under swapping the two
    vertices.  ``z`` and ``w`` are points or stacks, validated here, that
    broadcast as in ``manifolds.kernel``; the first offending pair raises
    ``KernelZero`` or ``BranchCut``.
    """
    (z, w), lead = _broadcast_last(validate_points(spec, z),
                                   validate_points(spec, w))
    return _stack_first(_triangle(spec, level, z, w), lead)


def _triangle(spec: ManifoldSpec, level: int, z, w) -> np.ndarray:
    """:func:`triangle_phase` on stack-last chart arrays that already
    passed the chart rules, as ``manifolds._kernel`` takes them."""
    k_zw = _kernel(spec, z, w)
    k_wz = np.conj(k_zw)
    with np.errstate(divide="ignore", invalid="ignore"):
        arg = np.angle(k_wz / k_zw)
    raise_first_fault([
        (np.abs(k_zw) >= KERNEL_ZERO_TOL,
         KernelZero, lambda k: "kernel vanishes between triangle vertices"),
        (~(math.pi - np.abs(arg) < BRANCH_TOL), BranchCut,
         lambda k: "triangle kernel ratio sits on the branch cut"),
    ])
    return spec.sign * level * arg / 2.0


def polygon_phase(spec: ManifoldSpec, level: int, vertices) -> float:
    """Fan sum of triangle phases over consecutive vertex pairs.

    The fan closes only if the vertex list does: repeat the first vertex at
    the end to measure a closed loop.  Spokes to the origin cancel in
    pairs, leaving the symplectic area of the fan surface.
    """
    z = _loop_points(spec, vertices)
    if z.shape[-1] < 2:
        raise DimensionMismatch("a polygon fan needs at least two vertices")
    return _fan(spec, level, z)


def _fan(spec: ManifoldSpec, level: int, z: np.ndarray) -> float:
    """The triangle phases of consecutive samples of ``z``, summed."""
    return float(np.sum(_triangle(spec, level, z[..., :-1], z[..., 1:])))


def _loop_points(spec: ManifoldSpec, loop) -> np.ndarray:
    """The stack-last ``(rows, cols, n)`` chart arrays of a trajectory,
    a view of its rows, or of a stack or point sequence validated once
    as a stack, one transposed copy."""
    if isinstance(loop, Trajectory):
        return loop.points.transpose(1, 2, 0)
    if not (isinstance(loop, np.ndarray) and loop.ndim == 3):
        loop = np.reshape([as_chart_array(spec, v) for v in loop],
                          (-1,) + spec.point_shape)
    return np.ascontiguousarray(validate_points(spec, loop).transpose(1, 2, 0))


def line_integral_phase(
    spec: ManifoldSpec, level: int, loop, cyclicity_tol: float = 1e-6
) -> float:
    """Trapezoid integral of the connection one-form along a closed loop.

    Accepts a trajectory or a plain point sequence.  The loop must return
    to its start within ``cyclicity_tol`` in projective distance; the tiny
    remaining gap is closed by one extra straight segment.  The raw
    (unwrapped) value is returned.  A gradient past double precision
    raises ``OverflowError``, as ``manifolds.kernel`` does.
    """
    return _line_integral_phase(spec, level, _loop_points(spec, loop),
                                cyclicity_tol)


def _line_integral_phase(spec: ManifoldSpec, level: int, z: np.ndarray,
                         cyclicity_tol: float) -> float:
    """:func:`line_integral_phase` on a validated stack-last stack."""
    _closure(spec, z, cyclicity_tol)
    z = np.concatenate((z, z[..., :1]), axis=-1)
    with np.errstate(over="ignore", invalid="ignore"):
        value = _chord_sum(z, _gradient(spec, level, z))
    _require_finite(value)
    return value


def _closure(spec: ManifoldSpec, z: np.ndarray, cyclicity_tol: float) -> float:
    """The distance between the ends of a stack-last path of at least two
    samples, which must be at most ``cyclicity_tol``."""
    if z.shape[-1] < 2:
        raise DimensionMismatch("a loop needs at least two samples")
    closure = float(_distance(spec, z[..., :1], z[..., -1:])[0])
    if closure > cyclicity_tol:
        raise NotClosed(
            f"loop endpoints differ by {closure:.3e} "
            f"(tolerance {cyclicity_tol:.3e})"
        )
    return closure


def _chord_sum(z: np.ndarray, g: np.ndarray) -> float:
    """The chord rule of the connection on a closed stack-last stack ``z``
    and its gradients ``g``."""
    return 0.5 * float(np.sum(np.imag((g[..., :-1] + g[..., 1:])
                                      * np.diff(z, axis=-1))))


def dynamical_phase(
    spec: ManifoldSpec,
    level: int,
    traj: Trajectory,
    schedule: HamiltonianSchedule,
) -> float:
    """Trapezoid integral of the Hamiltonian expectation along a trajectory,
    with dZ/dt taken by ``dynamics.riccati_rhs`` on its points."""
    times, hs = _hamiltonians(spec, traj, schedule)
    z = traj.points.transpose(1, 2, 0)
    return _trapezoid(times, _expectation(spec, level, z, hs,
                                          _gradient(spec, level, z),
                                          _riccati(hs, z)))


def _hamiltonians(spec, traj: Trajectory, schedule: HamiltonianSchedule):
    """The times of a trajectory of at least two rows and the transposed
    blocks of the schedule's H at them (``dynamics._stage_blocks``): a
    constant schedule's one matrix as a stack of one."""
    times = np.asarray(traj.times, dtype=float)
    if len(times) != len(traj.points) or len(times) < 2:
        raise GridMismatch("trajectory times and points do not align")
    if schedule.dim != defining_dimension(spec):
        raise DimensionMismatch("schedule does not match the defining size")
    try:
        coefficients = schedule._coefficients_at(times)
    except ScheduleGap as exc:
        raise GridMismatch("schedule does not cover the trajectory span") from exc
    return times, _stage_blocks(spec, schedule, coefficients)


def _trapezoid(times: np.ndarray, values: np.ndarray) -> float:
    """The trapezoid integral of samples ``values`` at ``times``."""
    return float(np.sum(np.diff(times) * 0.5 * (values[:-1] + values[1:])))


def _phases(spec: ManifoldSpec, level: int, traj: Trajectory,
            schedule: HamiltonianSchedule, cyclicity_tol: float):
    """:func:`dynamical_phase`, :func:`line_integral_phase` and the
    closure distance of a cyclic trajectory, from one gradient pass on
    its stack-last rows closed by the first and from the trajectory's
    stored ``velocities``.  The expectation is checked before the
    closure, so ``NonRealExpectation`` comes before ``NotClosed``."""
    times, hs = _hamiltonians(spec, traj, schedule)
    z = _loop_points(spec, traj)
    z = np.concatenate((z, z[..., :1]), axis=-1)
    g = _gradient(spec, level, z)
    beta = _trapezoid(times, _expectation(
        spec, level, z[..., :-1], hs, g[..., :-1],
        traj.velocities.transpose(1, 2, 0)))
    closure = _closure(spec, z[..., :-1], cyclicity_tol)
    return beta, _chord_sum(z, g), closure


@dataclass(frozen=True)
class StokesReport:
    """Line-integral and polygon-fan values of one loop, and their gap."""

    line_integral: float
    polygon_fan: float
    samples: int

    @property
    def difference(self) -> float:
        return self.line_integral - self.polygon_fan


def stokes_compare(
    spec: ManifoldSpec,
    level: int,
    loop,
    cyclicity_tol: float = 1e-6,
) -> StokesReport:
    """Confront the connection line integral with the triangle-fan sum.

    Both are evaluated on the same closed loop, a trajectory, a point
    stack or a point sequence, validated once here.  If a fan triangle
    lands on the branch cut, the loop is resampled at double density
    (chart midpoints) up to ``MAX_REFINEMENTS`` times before giving up;
    only the new midpoints are validated again.
    """
    return _stokes_compare(spec, level, _loop_points(spec, loop),
                           cyclicity_tol)


def _stokes_compare(spec: ManifoldSpec, level: int, z: np.ndarray,
                    cyclicity_tol: float) -> StokesReport:
    """:func:`stokes_compare` on a validated stack-last stack."""
    line_value = _line_integral_phase(spec, level, z, cyclicity_tol)
    closed = z
    if not np.array_equal(closed[..., 0], closed[..., -1]):
        closed = np.concatenate((closed, closed[..., :1]), axis=-1)
    for attempt in range(MAX_REFINEMENTS + 1):
        try:
            fan_value = _fan(spec, level, closed)
            break
        except BranchCut:
            if attempt == MAX_REFINEMENTS:
                raise
            mid = (closed[..., :-1] + closed[..., 1:]) / 2.0
            mid, faults = _point_faults(spec, mid, SYMMETRY_TOL)
            raise_first_fault(faults)
            closed = np.repeat(closed, 2, axis=-1)[..., :-1]
            closed[..., 1::2] = mid
    return StokesReport(
        line_integral=line_value,
        polygon_fan=fan_value,
        samples=z.shape[-1],
    )
