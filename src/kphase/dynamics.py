"""Classical coherent-parameter flow under time-dependent linear Hamiltonians.

Every integration here takes the same fixed-size RK4 step, ``_rk4_step``,
in blocks of ``REUNITARIZE_EVERY`` steps that each evaluate the schedule
once, at their half-step times.  An RK4 step of i dY/dt = H(t) Y is a
matrix fixed by the schedule, so ``_rk4_step`` on the identity gives a
block's step matrices; the state advances by one product per step and is
projected onto its polar factor at the block end.  :func:`propagate` runs
this for the defining-representation unitary (:func:`evolve_unitary`) and
for spin-j state vectors (``su2.schrodinger_evolve``).  :func:`trajectory`
also advances, as an independent route, a Riccati integration of the chart
variable on the same stage Hamiltonians.  That equation is quadratic in
the chart variable, so it keeps one RK4 step per step; stepping it through
U or the Mobius map instead would make the cross-check compare a route with
itself.  On 1 x 1 chart points (CP1, its dual and CI(1)) it steps Python
complex scalars rather than 1 x 1 arrays.  After the loop the
fractional-linear (Mobius) action maps the whole stack of unitaries onto
the chart at once, and the chart rules and the cross-check between the two
routes run on whole arrays.  Hamiltonians are supplied as schedules: fixed
Hermitian generators with piecewise-linear time coefficients.

Chart orientation: the point z = 0 labels the reference (top) weight ray,
and a 2 x 2 unitary with blocks a, b, c, d moves the scalar coordinate as
z -> (c + d z) / (a + b z).  The matrix action below is the unique extension
of that rule, and the Riccati right-hand side is its derivative.  Under
H = diag(1, -1) the scalar coordinate therefore rotates as exp(+2it) z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ChartOverflow,
    CrossCheckFailure,
    DimensionMismatch,
    NoCycleFound,
    NonRealExpectation,
    ScheduleGap,
    SymmetryViolation,
    UnsupportedFamily,
)
from .geometry import gradient_stack
from .manifolds import (
    Family,
    ManifoldSpec,
    PointMatrix,
    distance_stack,
    point_faults,
    raise_first_fault,
    validate_point,
)
from .serialize import matrix_from_json, matrix_to_json

HERMITICITY_TOL = 1e-12
CROSS_CHECK_TOL = 1e-6
REUNITARIZE_EVERY = 50
# Symmetry slack of Mobius images along a trajectory, the chart size at
# which the Riccati variable counts as diverged, and the smallest
# |det(A^T + Z B^T)| at which the Mobius image stays on the chart.
PATH_SYMMETRY_TOL = 1e-9
RICCATI_BOUND = 1e8
CHART_EDGE_TOL = 1e-12
STATIONARY_TOL = 1e-9


def _hermitize(m, tol: float = HERMITICITY_TOL) -> np.ndarray:
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatch("generators must be square matrices")
    if not np.all(np.isfinite(arr)):
        raise ValueError("generator entries must be finite")
    residual = float(np.max(np.abs(arr - arr.conj().T)))
    if residual > tol:
        raise SymmetryViolation(f"generator is not Hermitian (by {residual:.3e})")
    return (arr + arr.conj().T) / 2.0


@dataclass(frozen=True)
class HamiltonianSchedule:
    """Hermitian generators with piecewise-linear time coefficients.

    Build with :meth:`constant` or :meth:`from_samples`.  Calling the
    schedule at a time returns the assembled Hermitian matrix
    ``sum_j a_j(t) G_j``, the one-point case of :meth:`at`; evaluation
    outside the sampled span raises ``ScheduleGap``.  A constant schedule
    covers every time.
    """

    generators: tuple[np.ndarray, ...]
    times: np.ndarray | None
    coefficients: np.ndarray
    _constant_matrix: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def constant(cls, generators, coefficients) -> "HamiltonianSchedule":
        gens = tuple(_hermitize(g) for g in generators)
        coeffs = np.asarray(coefficients, dtype=float).reshape(-1)
        if len(coeffs) != len(gens):
            raise DimensionMismatch("one coefficient per generator")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("schedule coefficients must be finite")
        matrix = _assemble(gens, coeffs)
        return cls(gens, None, coeffs, matrix)

    @classmethod
    def from_samples(cls, generators, samples) -> "HamiltonianSchedule":
        """Rows of ``samples`` are ``(t_k, a_1, ..., a_m)``."""
        gens = tuple(_hermitize(g) for g in generators)
        rows = np.asarray(samples, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != len(gens) + 1:
            raise DimensionMismatch(
                "each sample row must hold a time and one value per generator"
            )
        if not np.all(np.isfinite(rows)):
            raise ValueError("schedule samples must be finite")
        times = rows[:, 0]
        if rows.shape[0] == 1:
            return cls.constant(gens, rows[0, 1:])
        if np.any(np.diff(times) <= 0.0):
            raise ScheduleGap("sample times must be strictly increasing")
        return cls(gens, times.copy(), rows[:, 1:].copy(), None)

    @property
    def dim(self) -> int:
        return self.generators[0].shape[0] if self.generators else 0

    @property
    def is_constant(self) -> bool:
        return self.times is None

    def at(self, times) -> np.ndarray:
        """The assembled matrices at each of ``times``, as an ``(m, d, d)``
        stack: one interpolation per generator over all the times."""
        ts = np.asarray(times, dtype=float).reshape(-1)
        if self._constant_matrix is not None:
            return np.broadcast_to(self._constant_matrix,
                                   ts.shape + self._constant_matrix.shape)
        lo, hi = self.times[0], self.times[-1]
        outside = (ts < lo - 1e-12) | (ts > hi + 1e-12)
        if np.any(outside):
            raise ScheduleGap(
                f"time {ts[np.argmax(outside)]} outside the sampled span "
                f"[{lo}, {hi}]"
            )
        coeffs = np.stack(
            [np.interp(ts, self.times, c) for c in self.coefficients.T], axis=-1
        )
        return _assemble(self.generators, coeffs)

    def __call__(self, t: float) -> np.ndarray:
        return self.at(t)[0]

    def strength(self) -> float:
        """Upper bound on max-norm of the assembled matrix over the span."""
        scales = np.array([float(np.max(np.abs(g))) for g in self.generators])
        coeffs = np.abs(np.atleast_2d(self.coefficients))
        return float(np.max(coeffs @ scales)) if coeffs.size else 0.0

    def covers(self, t0: float, t1: float) -> bool:
        if self.times is None:
            return True
        return self.times[0] <= t0 + 1e-12 and t1 <= self.times[-1] + 1e-12

    def to_json(self) -> dict:
        out = {"generators": [matrix_to_json(g) for g in self.generators]}
        if self.times is None:
            out["constant"] = [float(c) for c in self.coefficients]
        else:
            out["samples"] = [
                [float(t)] + [float(c) for c in row]
                for t, row in zip(self.times, self.coefficients)
            ]
        return out

    @classmethod
    def from_json(cls, data: dict) -> "HamiltonianSchedule":
        gens = [matrix_from_json(g) for g in data["generators"]]
        if "constant" in data:
            return cls.constant(gens, data["constant"])
        return cls.from_samples(gens, data["samples"])


def _assemble(generators, coefficients) -> np.ndarray:
    """``sum_j a_j G_j``, summed in generator order, for one coefficient
    row or for each of a stack of rows."""
    out = np.zeros_like(generators[0])
    for j, g in enumerate(generators):
        out = out + coefficients[..., j, None, None] * g
    return out


def block_split(H, spec: ManifoldSpec):
    """Split a defining-representation matrix into the chart's four blocks.

    The top-left block is p x p: the defining size is p + q for AIII and
    2p for CI and DIII.  The vector family has no defining block action.
    A stack of matrices splits into stacks of blocks.
    """
    arr = np.asarray(H, dtype=complex)
    p = spec.p
    n = defining_dimension(spec)
    if arr.shape[-2:] != (n, n):
        raise DimensionMismatch(
            f"expected a {n} x {n} matrix for {spec.family.value} "
            f"p={spec.p}, got {arr.shape}"
        )
    top, bottom = arr[..., :p, :], arr[..., p:, :]
    return top[..., :p], top[..., p:], bottom[..., :p], bottom[..., p:]


def defining_dimension(spec: ManifoldSpec) -> int:
    """Size of the defining-representation matrices acting on the chart."""
    if spec.family is Family.BDI:
        raise UnsupportedFamily(
            "the vector chart has no block fractional-linear action"
        )
    return spec.p + spec.q if spec.family is Family.AIII else 2 * spec.p


def _chart_images(spec: ManifoldSpec, U, z: np.ndarray):
    """Denominator determinants ``det(A^T + Z B^T)`` and fractional-linear
    images of ``z`` under one matrix or a stack; an image whose
    determinant is below ``CHART_EDGE_TOL`` is meaningless."""
    a, b, c, d = (blk.swapaxes(-1, -2) for blk in block_split(U, spec))
    den = z @ b
    den += a
    det = np.linalg.det(den)
    den[np.abs(det) < CHART_EDGE_TOL] = np.eye(spec.p)
    num = z @ d
    num += c
    return det, np.linalg.solve(den, num)


def mobius_act(
    spec: ManifoldSpec, U, Z, symmetry_tol: float = 1e-12
) -> PointMatrix:
    """Fractional-linear chart action of a defining-representation matrix.

    With blocks ``A, B, C, D`` the image is
    ``(A^T + Z B^T)^{-1} (C^T + Z D^T)``, the matrix extension of the
    scalar rule ``z -> (c + d z)/(a + b z)``.  Composing actions multiplies
    the matrices: ``act(U2, act(U1, Z)) == act(U2 @ U1, Z)``.
    """
    det, out = _chart_images(spec, U, validate_point(spec, Z).entries)
    if abs(det) < CHART_EDGE_TOL:
        raise ChartOverflow("orbit left the coordinate chart")
    return validate_point(spec, out, symmetry_tol=symmetry_tol)


def riccati_rhs(spec: ManifoldSpec, H, Z) -> np.ndarray:
    """Time derivative of the chart point under a Hermitian generator.

    The derivative of the fractional-linear action along exp(-iHt):
    ``-i (C^T + Z D^T - A^T Z - Z B^T Z)`` with ``A, B, C, D`` the blocks
    of ``H``.  Stacks of ``H`` and ``Z`` give a stack of derivatives.
    """
    z = Z.entries if isinstance(Z, PointMatrix) else np.asarray(Z, dtype=complex)
    if z.ndim < 2:
        z = z.reshape(spec.point_shape)
    return _riccati_rhs(block_split(np.asarray(H).swapaxes(-1, -2), spec), z)


def _riccati_rhs(blocks, z: np.ndarray) -> np.ndarray:
    """:func:`riccati_rhs` on the blocks of ``H^T``: ``A^T, C^T, B^T, D^T``
    in ``block_split``'s order."""
    a_t, c_t, b_t, d_t = blocks
    return -1j * (c_t + z @ d_t - a_t @ z - z @ b_t @ z)


def _polar(Y: np.ndarray) -> np.ndarray:
    """Nearest matrix with orthonormal columns: the unitary polar factor of
    a square matrix, the normalisation of a column."""
    w, _, vh = np.linalg.svd(Y, full_matrices=False)
    return w @ vh


def _linear_rhs(H: np.ndarray, Y: np.ndarray) -> np.ndarray:
    return -1j * (H @ Y)


def _rk4_step(rhs, y, H1, H2, H3, h):
    """Classical RK4 step of dy/dt = rhs(H(t), y) given H at the start,
    middle and end of the step."""
    k1 = rhs(H1, y)
    k2 = rhs(H2, y + (h / 2.0) * k1)
    k3 = rhs(H2, y + (h / 2.0) * k2)
    k4 = rhs(H3, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _blocks(n: int):
    """Step ranges ``[k0, k1)`` that end at each re-projection."""
    return [(k0, min(k0 + REUNITARIZE_EVERY, n))
            for k0 in range(0, n, REUNITARIZE_EVERY)]


def _stages(schedule: HamiltonianSchedule, t0: float, h: float, k0: int,
            k1: int):
    """Stacks of H at the start, middle and end of steps ``k0 .. k1 - 1``
    from ``t0``, from one evaluation at the ``2 (k1 - k0) + 1`` half-step
    times, so a step's end is not evaluated again as the next start."""
    hs = schedule.at(t0 + (h / 2.0) * np.arange(2 * k0, 2 * k1 + 1))
    return hs[:-1:2], hs[1::2], hs[2::2]


def _advance(Y: np.ndarray, out: np.ndarray, stages, h: float, k1: int):
    """RK4 steps of i dY/dt = H(t) Y from ``Y`` on the stage stacks, written
    to the rows of ``out``.  ``_rk4_step`` on the identity gives the steps'
    matrices.  The last row is step ``k1``; it is re-projected when
    ``REUNITARIZE_EVERY`` divides ``k1``."""
    for P, row in zip(_rk4_step(_linear_rhs, np.eye(len(Y)), *stages, h), out):
        Y = np.matmul(P, Y, out=row)
    if k1 % REUNITARIZE_EVERY == 0:
        out[-1] = _polar(out[-1])


def _riccati_advance(spec: ManifoldSpec, z: np.ndarray, out: np.ndarray,
                     stages, h: float):
    """RK4 steps of the chart variable from ``z`` on the stage stacks,
    written to the rows of ``out``.

    The route stays one ``_rk4_step`` per step on the Riccati equation,
    independent of the unitary and the Mobius map, so that the two can
    check each other.  A 1 x 1 chart point steps as a Python complex on the
    entries of ``-i H^T``, taken from each stage stack with one ``tolist``;
    a matrix chart point splits the stacks into blocks once.
    """
    if z.shape == (1, 1):
        gs = [(-1j * H.swapaxes(-1, -2)).tolist() for H in stages]
        y, ys = complex(z[0, 0]), []
        for g1, g2, g3 in zip(*gs):
            y = _rk4_step(_scalar_riccati_rhs, y, g1, g2, g3, h)
            ys.append(y)
        out[:, 0, 0] = ys
        return
    split = (zip(*block_split(H.swapaxes(-1, -2), spec)) for H in stages)
    for row, blocks in zip(out, zip(*split)):
        z = row[...] = _rk4_step(_riccati_rhs, z, *blocks, h)


def _scalar_riccati_rhs(g, y: complex) -> complex:
    """:func:`riccati_rhs` of a 1 x 1 chart variable, given ``-i H^T`` as
    nested lists.  The terms follow ``_riccati_rhs`` in order, so both
    paths round alike."""
    (a, c), (b, d) = g
    return c + y * d - a * y - y * b * y


def _grid(t0: float, t1: float, dt: float):
    if not 0.0 < dt < math.inf:
        raise ValueError("dt must be positive and finite")
    span = t1 - t0
    if not 0.0 < span < math.inf:
        raise ValueError("the time span must be positive and finite")
    n = max(1, math.ceil(span / dt - 1e-9))
    return n, span / n


def propagate(
    schedule: HamiltonianSchedule, Y0, t0: float, t1: float, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate i dY/dt = H(t) Y over [t0, t1] from a square matrix or a
    column ``Y0``; returns the grid times and the stack of states."""
    if not schedule.covers(t0, t1):
        raise ScheduleGap("schedule does not cover the integration span")
    n, h = _grid(t0, t1, dt)
    states = np.empty((n + 1,) + np.shape(Y0), dtype=complex)
    states[0] = Y0
    for k0, k1 in _blocks(n):
        _advance(states[k0], states[k0 + 1:k1 + 1],
                 _stages(schedule, t0, h, k0, k1), h, k1)
    return np.linspace(t0, t1, n + 1), states


def evolve_unitary(
    schedule: HamiltonianSchedule, t0: float, t1: float, dt: float
) -> np.ndarray:
    """Integrate i dU/dt = H(t) U from the identity over [t0, t1], by
    :func:`propagate`; the result is exactly re-unitarized at the end."""
    _, states = propagate(schedule, np.eye(schedule.dim), t0, t1, dt)
    return _polar(states[-1])


@dataclass
class Trajectory:
    """Sampled chart evolution, stored as arrays whose rows follow ``times``.

    ``points`` is the ``(n+1, rows, cols)`` Mobius path, ``unitaries`` the
    ``(n+1, d, d)`` unitaries behind it and ``riccati`` the independent
    Riccati path; ``cross_check_error`` is the largest entrywise gap
    between the two paths.  The rows of ``points`` passed the chart rules
    when the trajectory was built; :meth:`point` does not check them again.
    """

    spec: ManifoldSpec
    times: np.ndarray
    points: np.ndarray
    unitaries: np.ndarray | None
    cross_check_error: float
    riccati: np.ndarray | None = None

    @property
    def final_point(self) -> PointMatrix:
        return self.point(-1)

    def point(self, k: int) -> PointMatrix:
        return PointMatrix(self.points[k], self.spec)


def trajectory(
    spec: ManifoldSpec,
    Z0,
    schedule: HamiltonianSchedule,
    T: float,
    dt: float,
) -> Trajectory:
    """Evolve a chart point, cross-checking Mobius against Riccati.

    Each block of ``REUNITARIZE_EVERY`` steps advances the Riccati variable
    and then the unitary with the same stage Hamiltonians; a block whose
    Riccati variable diverges ends at the first diverged step.  After the
    loop the Mobius map takes the whole stack of unitaries to ``points``
    with one batched solve, and the guards run on whole arrays: the first
    failing step raises ``ChartOverflow``, ``SymmetryViolation``,
    ``OutsideDomain`` or ``CrossCheckFailure``, naming its time.
    """
    if schedule.dim != defining_dimension(spec):
        raise DimensionMismatch(
            "schedule generators do not match the defining size"
        )
    if not schedule.covers(0.0, T):
        raise ScheduleGap("schedule does not cover [0, T]")
    z0 = validate_point(spec, Z0).entries
    n, h = _grid(0.0, T, dt)
    us = np.empty((n + 1, schedule.dim, schedule.dim), dtype=complex)
    zs = np.empty((n + 1,) + z0.shape, dtype=complex)
    us[0], zs[0] = np.eye(schedule.dim), z0
    for k0, k1 in _blocks(n):
        stages = _stages(schedule, 0.0, h, k0, k1)
        # Steps after a diverged one may overflow: the block ends at the
        # first diverged step, and the unitary is advanced only that far.
        with np.errstate(over="ignore", invalid="ignore"):
            _riccati_advance(spec, zs[k0], zs[k0 + 1:k1 + 1], stages, h)
            diverged = np.flatnonzero(_diverged(zs[k0 + 1:k1 + 1]))
        if len(diverged):
            k1 = k0 + 1 + int(diverged[0])
        _advance(us[k0], us[k0 + 1:k1 + 1], stages, h, k1)
        if len(diverged):
            break
    return _chart_path(spec, np.linspace(0.0, T, n + 1)[:k1 + 1],
                       us[:k1 + 1], zs[:k1 + 1])


def clip_trajectory(
    traj: Trajectory, schedule: HamiltonianSchedule, t_end: float
) -> Trajectory:
    """The samples of a trajectory before ``t_end`` plus one partial RK4
    step on both routes that ends exactly at ``t_end``."""
    k = int(np.searchsorted(traj.times, t_end)) - 1
    if not 0 <= k < len(traj.times) - 1:
        raise ValueError("the clip time must lie inside the trajectory span")
    t = float(traj.times[k])
    h = t_end - t
    us, zs = traj.unitaries[: k + 2].copy(), traj.riccati[: k + 2].copy()
    stages = _stages(schedule, t, h, 0, 1)
    _advance(us[k], us[k + 1:], stages, h, k + 1)
    _riccati_advance(traj.spec, zs[k], zs[k + 1:], stages, h)
    return _chart_path(traj.spec, np.append(traj.times[: k + 1], t_end),
                       us, zs)


def _diverged(z: np.ndarray) -> np.ndarray:
    """Which chart arrays of a stack (or the one array) lie beyond
    ``RICCATI_BOUND``; NaN counts as diverged."""
    return ~(np.max(np.abs(z), axis=(-2, -1)) <= RICCATI_BOUND)


def _chart_path(spec, times, us, zs) -> Trajectory:
    """Mobius images of the unitaries ``us`` with every guard run on the
    arrays.  A step that trips several guards reports the first of:
    Riccati divergence (only the last step can diverge), the chart edge,
    the chart rules, the cross-check."""
    det, images = _chart_images(spec, us, zs[0])
    points, faults = point_faults(spec, images, PATH_SYMMETRY_TOL)
    points[0] = zs[0]
    err = np.max(np.abs(points - zs), axis=(1, 2))
    bounded = np.arange(len(times)) < len(times) - int(_diverged(zs[-1]))
    raise_first_fault([
        (bounded, ChartOverflow, lambda k: "Riccati variable diverged"),
        (np.abs(det) >= CHART_EDGE_TOL, ChartOverflow,
         lambda k: "orbit left the coordinate chart"),
        *faults,
        (err <= CROSS_CHECK_TOL, CrossCheckFailure,
         lambda k: f"Mobius and Riccati paths disagree by {err[k]:.3e}"),
    ], times)
    return Trajectory(spec, times, points, us, float(np.max(err)), zs)


def expectation(spec: ManifoldSpec, level: int, Z, H) -> float:
    """Coherent expectation value of a Hermitian generator at a chart point.

    The derivative ``i d/ds`` at ``s = 0`` of the weighted kernel cocycle
    ``level * (ln det(A_s^T + Z B_s^T) + ln K(Z_s, conj(Z)))`` along the
    flow ``exp(-isH)``, in closed form:
    ``E = level * (tr a + tr(Z b^T)) + i s sum(G * dZ/dt)`` with ``a, b``
    the top blocks of ``H``, ``s = +1`` on compact and ``-1`` on
    bounded-domain specs, ``G`` the gradient of ``geometry.gradient_stack``
    and ``dZ/dt`` the :func:`riccati_rhs`.  The one-point case of
    :func:`expectation_stack`.
    """
    z = validate_point(spec, Z).entries
    return float(expectation_stack(spec, level, z, _hermitize(H)))


def expectation_stack(spec: ManifoldSpec, level: int, z, H) -> np.ndarray:
    """:func:`expectation` on a chart array and a Hermitian matrix, or on
    stacks of them, that already passed their checks.  The imaginary part
    must cancel below 1e-8 on every row."""
    a, b, _, _ = block_split(H, spec)
    sign = 1.0 if spec.compact else -1.0
    flow = np.sum(gradient_stack(spec, level, z) * riccati_rhs(spec, H, z),
                  axis=(-2, -1))
    value = level * (np.trace(a, axis1=-2, axis2=-1)
                     + np.sum(z * b, axis=(-2, -1))) + 1j * sign * flow
    worst = float(np.max(np.abs(value.imag)))
    if worst > 1e-8:
        raise NonRealExpectation(f"imaginary part {worst:.3e} exceeds tolerance")
    return value.real


@dataclass(frozen=True)
class CycleInfo:
    """First return of a trajectory to its starting ray."""

    index: int
    time: float
    residual: float


def ray_distances(traj: Trajectory) -> np.ndarray:
    """Projective distance of every sample from the starting point."""
    return distance_stack(traj.spec, traj.points, traj.points[0])


def is_stationary(traj: Trajectory, tol: float = STATIONARY_TOL) -> bool:
    """True when the whole trajectory stays on the starting ray."""
    return float(np.max(ray_distances(traj))) < tol


def find_cycle(traj: Trajectory, tol: float | None = None) -> CycleInfo:
    """Locate the first return to the starting ray.

    Scans for the first sample beyond the initial escape whose projective
    distance to the start drops below ``tol`` (default: five times the
    median sample spacing), walks to the local minimum, and refines the
    return time by a parabola through the squared distances.  A trajectory
    that never leaves the start ray returns index 1 immediately.
    """
    return _find_cycle(traj.times, ray_distances(traj), tol)


def _find_cycle(times, d, tol: float | None) -> CycleInfo:
    """:func:`find_cycle` on sample times and their ray distances."""
    n = len(d) - 1
    if n < 1:
        raise NoCycleFound("trajectory has no steps")
    if tol is None:
        spacing = float(np.median(np.abs(np.diff(d)))) if n > 1 else 0.0
        tol = max(5.0 * spacing, 1e-12)
    if d[1] < tol:
        first_out = next((k for k in range(1, n + 1) if d[k] >= tol), None)
        if first_out is None:
            return CycleInfo(1, float(times[1]), float(d[1]))
        escape = first_out
    else:
        escape = 1
    k_ret = next((k for k in range(escape, n + 1) if d[k] < tol), None)
    if k_ret is None:
        raise NoCycleFound(
            f"no return below tolerance {tol:.3e} within the span"
        )
    while k_ret + 1 <= n and d[k_ret + 1] < d[k_ret]:
        k_ret += 1
    t_star = float(times[k_ret])
    if 1 <= k_ret <= n - 1:
        t_star = _parabola_vertex(times, d, k_ret)
    elif k_ret == n and n >= 2:
        t_star = _parabola_vertex(times, d, n - 1)
        t_star = min(max(t_star, float(times[n - 1])), float(times[n]))
    return CycleInfo(k_ret, t_star, float(d[k_ret]))


def _parabola_vertex(times, d, k: int) -> float:
    t0, t1, t2 = (float(times[k - 1]), float(times[k]), float(times[k + 1]))
    y0, y1, y2 = float(d[k - 1]) ** 2, float(d[k]) ** 2, float(d[k + 1]) ** 2
    h = t1 - t0
    curv = y0 - 2.0 * y1 + y2
    if curv <= 0.0:
        return t1
    t_star = t1 - h / 2.0 * (y2 - y0) / curv
    return min(max(t_star, t0), t2)
