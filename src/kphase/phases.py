"""Geometric and dynamical phases, and the total-phase bookkeeping report.

Two independent routes to the geometric phase are kept deliberately
separate: the exact two-point fan formula built from kernel arguments
(:func:`triangle_phase`, :func:`polygon_phase`) and the numeric line
integral of the connection along a sampled loop
(:func:`line_integral_phase`).  :func:`stokes_compare` confronts them.

Angles wrap to the half-open interval (-pi, pi].
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import HamiltonianSchedule, Trajectory
from .dynamics import expectation as _expectation
from .errors import (
    BranchCut,
    DimensionMismatch,
    GridMismatch,
    KernelZero,
    NotClosed,
    ScheduleGap,
)
from .geometry import GRADIENT_STEP, gradient, tangent_components
from .manifolds import (
    KERNEL_ZERO_TOL,
    ManifoldSpec,
    kernel,
    projective_distance,
    validate_point,
)

CONSISTENCY_TOL = 1e-6
BRANCH_TOL = 1e-9


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


def triangle_phase(spec: ManifoldSpec, level: int, z, w) -> float:
    """Exact phase of the geodesic triangle with third vertex at the origin.

    Half the principal argument of the kernel ratio, scaled by the level:
    ``level/2 * Arg(K(w, conj(z)) / K(z, conj(w)))``.  Antisymmetric under
    swapping the two vertices.
    """
    zp = validate_point(spec, z)
    wp = validate_point(spec, w)
    k_zw = kernel(spec, zp, wp)
    k_wz = kernel(spec, wp, zp)
    if abs(k_zw) < KERNEL_ZERO_TOL or abs(k_wz) < KERNEL_ZERO_TOL:
        raise KernelZero("kernel vanishes between triangle vertices")
    arg = cmath.phase(k_wz / k_zw)
    if math.pi - abs(arg) < BRANCH_TOL:
        raise BranchCut("triangle kernel ratio sits on the branch cut")
    return level * arg / 2.0


def polygon_phase(spec: ManifoldSpec, level: int, vertices) -> float:
    """Fan sum of triangle phases over consecutive vertex pairs.

    The fan closes only if the vertex list does: repeat the first vertex at
    the end to measure a closed loop.  Spokes to the origin cancel in
    pairs, leaving the symplectic area of the fan surface.
    """
    pts = [validate_point(spec, v) for v in vertices]
    if len(pts) < 2:
        raise DimensionMismatch("a polygon fan needs at least two vertices")
    return sum(
        triangle_phase(spec, level, a, b) for a, b in zip(pts[:-1], pts[1:])
    )


def _as_points(spec: ManifoldSpec, loop) -> list:
    if isinstance(loop, Trajectory):
        return [loop.point(k) for k in range(len(loop.times))]
    return [validate_point(spec, v) for v in loop]


def line_integral_phase(
    spec: ManifoldSpec,
    level: int,
    loop,
    cyclicity_tol: float = 1e-6,
    step: float = GRADIENT_STEP,
) -> float:
    """Trapezoid integral of the connection one-form along a closed loop.

    Accepts a trajectory or a plain point sequence.  The loop must return
    to its start within ``cyclicity_tol`` in projective distance; the tiny
    remaining gap is closed by one extra straight segment.  The raw
    (unwrapped) value is returned.
    """
    pts = _as_points(spec, loop)
    if len(pts) < 2:
        raise DimensionMismatch("a loop needs at least two samples")
    closure = projective_distance(spec, pts[0], pts[-1])
    if closure > cyclicity_tol:
        raise NotClosed(
            f"loop endpoints differ by {closure:.3e} "
            f"(tolerance {cyclicity_tol:.3e})"
        )
    grads = [gradient(spec, level, p, step=step) for p in pts]
    entries = [p.entries for p in pts]
    total = 0.0
    for k in range(len(pts) - 1):
        delta = tangent_components(spec, entries[k + 1] - entries[k])
        total += 0.5 * (
            float(np.imag(np.dot(grads[k], delta)))
            + float(np.imag(np.dot(grads[k + 1], delta)))
        )
    delta = tangent_components(spec, entries[0] - entries[-1])
    if np.any(delta != 0.0):
        total += 0.5 * (
            float(np.imag(np.dot(grads[-1], delta)))
            + float(np.imag(np.dot(grads[0], delta)))
        )
    return total


def dynamical_phase(
    spec: ManifoldSpec,
    level: int,
    traj: Trajectory,
    schedule: HamiltonianSchedule,
) -> float:
    """Trapezoid integral of the Hamiltonian expectation along a trajectory."""
    times = np.asarray(traj.times, dtype=float)
    if len(times) != len(traj.points) or len(times) < 2:
        raise GridMismatch("trajectory times and points do not align")
    try:
        energies = [
            _expectation(spec, level, traj.point(k), schedule(t))
            for k, t in enumerate(times)
        ]
    except ScheduleGap as exc:
        raise GridMismatch("schedule does not cover the trajectory span") from exc
    total = 0.0
    for k in range(len(times) - 1):
        total += (times[k + 1] - times[k]) * 0.5 * (
            energies[k] + energies[k + 1]
        )
    return float(total)


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
    max_refinements: int = 3,
) -> StokesReport:
    """Confront the connection line integral with the triangle-fan sum.

    Both are evaluated on the same closed loop.  If a fan triangle lands on
    the branch cut, the loop is resampled at double density (chart
    midpoints) up to ``max_refinements`` times before giving up.
    """
    pts = _as_points(spec, loop)
    if len(pts) < 2:
        raise DimensionMismatch("a loop needs at least two samples")
    if projective_distance(spec, pts[0], pts[-1]) > cyclicity_tol:
        raise NotClosed("loop endpoints differ beyond the tolerance")
    line_value = line_integral_phase(
        spec, level, pts, cyclicity_tol=cyclicity_tol
    )
    closed = pts
    if not np.array_equal(closed[0].entries, closed[-1].entries):
        closed = closed + [closed[0]]
    for attempt in range(max_refinements + 1):
        try:
            fan_value = polygon_phase(spec, level, closed)
            break
        except BranchCut:
            if attempt == max_refinements:
                raise
            refined = []
            for a, b in zip(closed[:-1], closed[1:]):
                refined.append(a)
                refined.append(
                    validate_point(spec, (a.entries + b.entries) / 2.0)
                )
            refined.append(closed[-1])
            closed = refined
    return StokesReport(
        line_integral=line_value,
        polygon_fan=fan_value,
        samples=len(pts),
    )
