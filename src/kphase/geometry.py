"""Kahler potential, metric, and connection of the line bundle at a level.

The potential is ``F = s * level * ln K(z, conj(z))`` with ``s = +1`` on
compact and ``-1`` on bounded-domain specs, the sign that makes the metric
positive definite on both.  Its holomorphic gradient has a closed form,
evaluated on a single point or a whole ``(n, rows, cols)`` stack by
:func:`gradient_stack`: a matrix ``G`` with ``dF`` along an increment ``D``
equal to ``sum(G * D)``, so no coordinate basis is needed.  For AIII, CI
and DIII ``G = level * conj((I + s Z Z^dag)^-1 Z)``; for BDI
``G = s * level * (2 z conj(z z^T) + 2 s conj(z)) / K(z, conj(z))``.  The
connection one-form is ``Im sum(G * dZ)``.  The metric, off every hot
path, is still taken by central finite differences of the potential.
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
    kernel_stack,
    validate_point,
)

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


def gradient_stack(spec: ManifoldSpec, level: int, z: np.ndarray) -> np.ndarray:
    """Closed-form holomorphic gradient ``G`` of the potential (see the
    module docstring) at one chart array or a stack of them, which must
    already have passed the chart rules."""
    sign = 1.0 if spec.compact else -1.0
    if spec.family is Family.BDI:
        zz = z @ z.swapaxes(-1, -2)
        k = kernel_stack(spec, z, z).real[..., None, None]
        return sign * level * (2.0 * z * zz.conj() + 2.0 * sign * z.conj()) / k
    gram = z @ z.conj().swapaxes(-1, -2)
    return level * np.linalg.solve(np.eye(z.shape[-2]) + sign * gram, z).conj()


def gradient(spec: ManifoldSpec, level: int, z) -> np.ndarray:
    """Holomorphic partials of the potential along the coordinate basis.

    The one-point case of :func:`gradient_stack`, paired with each matrix
    of :func:`coordinate_basis`.
    """
    g = gradient_stack(spec, level, validate_point(spec, z).entries)
    return np.array([np.sum(g * b) for b in coordinate_basis(spec)])


def connection_eval(spec: ManifoldSpec, level: int, z, delta) -> float:
    """Connection one-form paired with a tangent increment.

    Returns ``Im sum(G * delta)`` for the holomorphic gradient ``G`` at
    ``z``; the increment must already respect the family's linear
    symmetry.  Integrating this along a closed loop yields the loop's
    geometric phase at the given level.
    """
    g = gradient_stack(spec, level, validate_point(spec, z).entries)
    d = np.reshape(np.asarray(delta, dtype=complex), spec.point_shape)
    return float(np.imag(np.sum(g * d)))


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
