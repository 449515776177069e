"""Kahler potential, metric, and connection of the line bundle at a level.

The potential is ``F = s * level * ln K(z, conj(z))`` with ``s = +1`` on
compact and ``-1`` on bounded-domain specs, the sign that makes the metric
positive definite on both.  Its holomorphic gradient has a closed form,
evaluated on a single point or a whole ``(n, rows, cols)`` stack by
:func:`gradient_stack`: a matrix ``G`` with ``dF`` along an increment ``D``
equal to ``sum(G * D)``, so no coordinate basis is needed.  For AIII, CI
and DIII ``G = level * conj((I + s Z Z^dag)^-1 Z)``; for BDI
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

import math

import numpy as np

from .errors import KernelZero, OutsideDomain
from .manifolds import (
    Family,
    ManifoldSpec,
    kernel,
    kernel_stack,
    validate_point,
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


def metric(spec: ManifoldSpec, level: int, z) -> np.ndarray:
    """Hermitian metric matrix ``d^2 F / dz_mu d conj(z_nu)`` at a point.

    The closed form of the module docstring, paired with each pair of
    matrices of :func:`coordinate_basis`.
    """
    z = validate_point(spec, z).entries
    b = np.array(coordinate_basis(spec))
    sign = 1.0 if spec.compact else -1.0
    if spec.family is Family.BDI:
        v, bv = z[0], b[:, 0]
        k = float(kernel_stack(spec, z, z).real)
        k_mu = bv @ (2.0 * v * np.conj(v @ v) + 2.0 * sign * v.conj())
        zb = bv @ v
        k_mn = 4.0 * np.outer(zb, zb.conj()) + 2.0 * sign * (bv @ bv.conj().T)
        out = sign * level * (k_mn / k - np.outer(k_mu, k_mu.conj()) / k**2)
    else:
        p_inv = np.linalg.inv(np.eye(z.shape[0]) + sign * (z @ z.conj().T))
        q_inv = np.linalg.inv(np.eye(z.shape[1]) + sign * (z.conj().T @ z))
        out = level * np.einsum("mij,nij->mn", p_inv @ b @ q_inv, b.conj())
    return (out + out.conj().T) / 2.0
