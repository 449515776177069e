"""Kahler potential, metric, and connection of the line bundle at a level.

The potential is ``F = s * level * ln K(z, conj(z))`` with ``s = +1`` on
compact and ``-1`` on bounded-domain specs, the sign that makes the metric
positive definite on both.  Its holomorphic gradient has a closed form,
evaluated on one point or a stack of points by :func:`gradient`: a matrix
``G`` with ``dF`` along an increment ``D`` equal to ``sum(G * D)``, so no
coordinate basis is needed; the component along a basis matrix ``B_mu`` is
``sum(G * B_mu)``.  For AIII, CI and DIII
``G = level * conj((I + s Z Z^dag)^-1 Z)``; for BDI
``G = s * level * (2 z conj(z z^T) + 2 s conj(z)) / K(z, conj(z))``.  The
connection one-form is ``Im sum(G * dZ)``.

The metric is closed form too.  Along basis matrices ``B_mu`` it is
``level * tr(P^-1 B_mu Q^-1 B_nu^dag)`` for AIII, CI and DIII, with
``P = I + s Z Z^dag`` and ``Q = I + s Z^dag Z``; for BDI it is
``s * level * (K_mu,nu / K - K_mu conj(K_nu) / K^2)`` with the kernel's
partials ``K_mu = 2 z_mu conj(z z^T) + 2 s conj(z_mu)`` and
``K_mu,nu = 4 z_mu conj(z_nu) + 2 s delta_mu,nu``.
"""

from __future__ import annotations

import numpy as np

from .errors import KernelZero, OutsideDomain
from .manifolds import (
    Family,
    ManifoldSpec,
    _kernel,
    _mm,
    _solve,
    as_chart_array,
    validate_points,
)


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


def potential(spec: ManifoldSpec, level: int, z):
    """Scalar potential ``sign * level * ln K(z, conj(z))``.

    The sign is ``+1`` for compact specs and ``-1`` for bounded domains, so
    the induced metric is positive definite in both cases.  The diagonal
    kernel value must be real and strictly positive.  ``z`` is one point
    or a stack, validated here.
    """
    z = validate_points(spec, z)
    k = _kernel(spec, z, z)
    if np.any(np.abs(k) < 1e-300):
        raise KernelZero("diagonal kernel vanished")
    if np.any(k.real <= 0.0):
        raise OutsideDomain("diagonal kernel is not positive")
    sign = 1.0 if spec.compact else -1.0
    return sign * level * np.log(k.real)


def gradient(spec: ManifoldSpec, level: int, z) -> np.ndarray:
    """Closed-form holomorphic gradient ``G`` of the potential (see the
    module docstring) at one point or at each of a stack, validated here."""
    return _gradient(spec, level, validate_points(spec, z))


def _gradient(spec: ManifoldSpec, level: int, z: np.ndarray) -> np.ndarray:
    """:func:`gradient` on chart arrays that already passed the chart
    rules."""
    sign = 1.0 if spec.compact else -1.0
    if spec.family is Family.BDI:
        zz = z @ z.swapaxes(-1, -2)
        k = _kernel(spec, z, z).real[..., None, None]
        return sign * level * (2.0 * z * zz.conj() + 2.0 * sign * z.conj()) / k
    gram = _mm(z, z.conj().swapaxes(-1, -2))
    return level * _solve(np.eye(z.shape[-2]) + sign * gram, z).conj()


def metric(spec: ManifoldSpec, level: int, z) -> np.ndarray:
    """Hermitian metric matrix ``d^2 F / dz_mu d conj(z_nu)`` at a point.

    The closed form of the module docstring, paired with each pair of
    matrices of :func:`coordinate_basis`.
    """
    z = validate_points(spec, as_chart_array(spec, z))
    b = np.array(coordinate_basis(spec))
    sign = 1.0 if spec.compact else -1.0
    if spec.family is Family.BDI:
        v, bv = z[0], b[:, 0]
        k = float(_kernel(spec, z, z).real)
        k_mu = bv @ (2.0 * v * np.conj(v @ v) + 2.0 * sign * v.conj())
        zb = bv @ v
        k_mn = 4.0 * np.outer(zb, zb.conj()) + 2.0 * sign * (bv @ bv.conj().T)
        out = sign * level * (k_mn / k - np.outer(k_mu, k_mu.conj()) / k**2)
    else:
        p_inv = np.linalg.inv(np.eye(z.shape[0]) + sign * (z @ z.conj().T))
        q_inv = np.linalg.inv(np.eye(z.shape[1]) + sign * (z.conj().T @ z))
        out = level * np.einsum("mij,nij->mn", p_inv @ b @ q_inv, b.conj())
    return (out + out.conj().T) / 2.0
