"""Kahler potential, metric, and connection built from kernel evaluations.

Everything here reduces to evaluating ``ln K(z, conj(z))`` at displaced
points.  Derivatives are taken by central finite differences along a fixed
coordinate basis of the chart's tangent space, so no family needs its own
closed-form geometry.  The potential carries an overall sign that makes the
metric positive definite on both the compact and bounded-domain forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryTooClose, KernelZero, OutsideDomain
from .manifolds import (
    Family,
    ManifoldSpec,
    PointMatrix,
    kernel,
    validate_point,
    validate_points,
)

GRADIENT_STEP = 1e-6
METRIC_STEP = 1e-4


def coordinate_basis(spec: ManifoldSpec) -> list[np.ndarray]:
    """Real-coefficient basis matrices spanning the chart's tangent space.

    AIII uses single-entry matrices; CI uses diagonal units plus symmetric
    pair sums; DIII uses skew pair differences; BDI uses row unit vectors.
    The length always equals ``spec.complex_dimension``.
    """
    rows, cols = spec.point_shape
    out: list[np.ndarray] = []
    if spec.family in (Family.AIII, Family.BDI):
        for i in range(rows):
            for j in range(cols):
                b = np.zeros((rows, cols), dtype=complex)
                b[i, j] = 1.0
                out.append(b)
        return out
    if spec.family is Family.CI:
        for i in range(rows):
            b = np.zeros((rows, rows), dtype=complex)
            b[i, i] = 1.0
            out.append(b)
        for i in range(rows):
            for j in range(i + 1, rows):
                b = np.zeros((rows, rows), dtype=complex)
                b[i, j] = 1.0
                b[j, i] = 1.0
                out.append(b)
        return out
    for i in range(rows):
        for j in range(i + 1, rows):
            b = np.zeros((rows, rows), dtype=complex)
            b[i, j] = 1.0
            b[j, i] = -1.0
            out.append(b)
    return out


def tangent_components(spec: ManifoldSpec, delta) -> np.ndarray:
    """Coefficients of a chart increment along ``coordinate_basis(spec)``.

    The increment must already respect the family's linear symmetry; for CI
    and DIII the upper triangle determines the coefficients.
    """
    arr = np.asarray(delta, dtype=complex)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    if arr.ndim == 1:
        arr = arr.reshape(spec.point_shape)
    if arr.shape != spec.point_shape:
        arr = arr.reshape(spec.point_shape)
    if spec.family in (Family.AIII, Family.BDI):
        return arr.reshape(-1).copy()
    n = spec.point_shape[0]
    if spec.family is Family.CI:
        diag = [arr[i, i] for i in range(n)]
        off = [arr[i, j] for i in range(n) for j in range(i + 1, n)]
        return np.asarray(diag + off, dtype=complex)
    return np.asarray(
        [arr[i, j] for i in range(n) for j in range(i + 1, n)], dtype=complex
    )


def potential(spec: ManifoldSpec, level: int, z) -> float:
    """Scalar potential ``sign * level * ln K(z, conj(z))``.

    The sign is ``+1`` for compact specs and ``-1`` for bounded domains, so
    the induced metric is positive definite in both cases.  The diagonal
    kernel value must be real and strictly positive.
    """
    zp = validate_point(spec, z)
    k = kernel(spec, zp, zp)
    if abs(k) < 1e-300:
        raise KernelZero("diagonal kernel vanished")
    val = float(np.real(k))
    if val <= 0.0:
        raise OutsideDomain("diagonal kernel is not positive")
    sign = 1.0 if spec.compact else -1.0
    return sign * level * math.log(val)


def _potential_raw(spec: ManifoldSpec, level: int, arr: np.ndarray) -> float:
    try:
        return potential(spec, level, arr)
    except OutsideDomain as exc:
        raise BoundaryTooClose(
            "finite-difference stencil crosses the domain boundary"
        ) from exc


def gradient(
    spec: ManifoldSpec, level: int, z, step: float = GRADIENT_STEP
) -> np.ndarray:
    """Holomorphic partials of the potential along the coordinate basis.

    Central differences along the real and imaginary axes of each basis
    direction combine as ``(d/dx - i d/dy) / 2``.  The whole stencil is
    checked against the chart at once.
    """
    zp = validate_point(spec, z)
    basis = np.array(coordinate_basis(spec))
    shifts = np.array([step, -step, 1j * step, -1j * step])
    stencil = zp.entries + shifts[None, :, None, None] * basis[:, None]
    try:
        points = validate_points(spec, stencil.reshape(-1, *zp.entries.shape))
        f = [potential(spec, level, PointMatrix(p, spec)) for p in points]
    except OutsideDomain as exc:
        raise BoundaryTooClose(
            "finite-difference stencil crosses the domain boundary"
        ) from exc
    out = np.empty(spec.complex_dimension, dtype=complex)
    for mu in range(len(out)):
        fx = (f[4 * mu] - f[4 * mu + 1]) / (2.0 * step)
        fy = (f[4 * mu + 2] - f[4 * mu + 3]) / (2.0 * step)
        out[mu] = (fx - 1j * fy) / 2.0
    return out


def connection_eval(
    spec: ManifoldSpec, level: int, z, delta, step: float = GRADIENT_STEP
) -> float:
    """Connection one-form paired with a tangent increment.

    Returns ``Im`` of the holomorphic gradient contracted with the
    components of ``delta``.  Integrating this along a closed loop yields
    the loop's geometric phase at the given level.
    """
    grad = gradient(spec, level, z, step=step)
    comps = tangent_components(spec, delta)
    return float(np.imag(np.dot(grad, comps)))


def _mixed_stencil(
    spec: ManifoldSpec, level: int, base: np.ndarray, a, b, h: float
) -> float:
    fpp = _potential_raw(spec, level, base + h * (a + b))
    fpm = _potential_raw(spec, level, base + h * (a - b))
    fmp = _potential_raw(spec, level, base + h * (b - a))
    fmm = _potential_raw(spec, level, base - h * (a + b))
    return (fpp - fpm - fmp + fmm) / (4.0 * h * h)


def metric(
    spec: ManifoldSpec, level: int, z, step: float = METRIC_STEP
) -> np.ndarray:
    """Hermitian metric matrix ``d^2 F / dz_mu d conj(z_nu)`` at a point.

    Assembled from four-point mixed stencils along pairs of basis
    directions and their quarter-turn rotations.
    """
    zp = validate_point(spec, z)
    base = zp.entries
    basis = coordinate_basis(spec)
    dim = len(basis)
    out = np.empty((dim, dim), dtype=complex)
    for mu in range(dim):
        for nu in range(dim):
            bm, bn = basis[mu], basis[nu]
            dxx = _mixed_stencil(spec, level, base, bm, bn, step)
            dyy = _mixed_stencil(spec, level, base, 1j * bm, 1j * bn, step)
            dxy = _mixed_stencil(spec, level, base, bm, 1j * bn, step)
            dyx = _mixed_stencil(spec, level, base, 1j * bm, bn, step)
            out[mu, nu] = (dxx + dyy + 1j * (dxy - dyx)) / 4.0
    return (out + out.conj().T) / 2.0


@dataclass(frozen=True)
class PositivityReport:
    """Outcome of a metric positivity probe at one point."""

    ok: bool
    min_eigenvalue: float

    def __bool__(self) -> bool:
        return self.ok


def positivity_check(
    spec: ManifoldSpec, level: int, z, step: float = METRIC_STEP
) -> PositivityReport:
    """Check that the sampled metric is positive definite at a point."""
    g = metric(spec, level, z, step=step)
    g = (g + g.conj().T) / 2.0
    lo = float(np.min(np.linalg.eigvalsh(g)))
    return PositivityReport(ok=lo > 0.0, min_eigenvalue=lo)


@dataclass(frozen=True)
class KahlerSample:
    """Potential and metric evaluated together at one point.

    ``sign`` records the potential's overall orientation: ``+1`` on compact
    specs, ``-1`` on bounded domains.
    """

    point: PointMatrix
    potential: float
    metric: np.ndarray
    sign: int


def sample(spec: ManifoldSpec, level: int, z) -> KahlerSample:
    """Evaluate potential and metric at one validated point."""
    zp = validate_point(spec, z)
    return KahlerSample(
        point=zp,
        potential=potential(spec, level, zp),
        metric=metric(spec, level, zp),
        sign=1 if spec.compact else -1,
    )
