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

P and Q are Hermitian positive definite on the whole chart, so every
solve with them is ``manifolds._hpd_solve``, not LAPACK: a broadcast
LDL^dag from 3 x 3 up and closed forms below.  The gradient solves with
P, or for AIII with q < p with the smaller Q by the push-through
identity ``P^-1 Z = Z Q^-1``.  The Kahler
form needs forward substitutions only: with ``P = L_P D_P L_P^dag`` and
``Q = L_Q D_Q L_Q^dag``, ``Re tr(P^-1 u Q^-1 u^dag)`` is
``sum |L_P^-1 u L_Q^-dag|^2`` weighted by ``1 / (d_P,i d_Q,j)``
(``_metric_form``); on CI and DIII ``Q = conj(P)``, so one factorisation
serves both.  The gradient's core ``_gradient``, that form and its
coordinates take the stack-last ``(p, q, n)`` arrays of
``manifolds._kernel`` and form P, Q and their elimination on whole rows;
:func:`gradient` and :func:`metric` reach them through transposed views.
"""

from __future__ import annotations

import numpy as np

from .errors import KernelZero, OutsideDomain
from .manifolds import (
    Family,
    ManifoldSpec,
    _forward,
    _hpd_solve,
    _broadcast_last,
    _kernel,
    _ldl,
    _mm_last,
    _stack_first,
    as_chart_array,
    validate_points,
)


def coordinate_basis(spec: ManifoldSpec) -> list[np.ndarray]:
    """Real-coefficient basis matrices spanning the chart's tangent space.

    One unit entry per index pair, mirrored across the diagonal with sign
    +1 on CI and -1 on DIII: AIII and BDI take every entry, CI the
    diagonal units and then the symmetric pair sums above it, DIII the
    skew pair differences above it.  The length always equals
    ``spec.complex_dimension``.
    """
    rows, cols = spec.point_shape
    mirror = {Family.CI: 1.0, Family.DIII: -1.0}.get(spec.family)
    if mirror is None:
        pairs = np.ndindex(rows, cols)
    else:
        pairs = [(i, i) for i in range(rows) if mirror > 0]
        pairs += [(i, j) for i in range(rows) for j in range(i + 1, rows)]
    out = []
    for i, j in pairs:
        b = np.zeros((rows, cols), dtype=complex)
        if mirror is not None:
            b[j, i] = mirror
        b[i, j] = 1.0
        out.append(b)
    return out


def potential(spec: ManifoldSpec, level: int, z):
    """Scalar potential ``sign * level * ln K(z, conj(z))``.

    The sign is ``+1`` for compact specs and ``-1`` for bounded domains, so
    the induced metric is positive definite in both cases.  The diagonal
    kernel value must be real and strictly positive.  ``z`` is one point
    or a stack, validated here.
    """
    (z,), lead = _broadcast_last(validate_points(spec, z))
    k = _kernel(spec, z, z)
    if np.any(np.abs(k) < 1e-300):
        raise KernelZero("diagonal kernel vanished")
    if np.any(k.real <= 0.0):
        raise OutsideDomain("diagonal kernel is not positive")
    return _stack_first(spec.sign * level * np.log(k.real), lead)


def gradient(spec: ManifoldSpec, level: int, z) -> np.ndarray:
    """Closed-form holomorphic gradient ``G`` of the potential (see the
    module docstring) at one point or at each of a stack, validated here."""
    (z,), lead = _broadcast_last(validate_points(spec, z))
    return _stack_first(_gradient(spec, level, z), lead)


def _gradient(spec: ManifoldSpec, level: int, z: np.ndarray) -> np.ndarray:
    """:func:`gradient` on a stack-last ``(rows, cols, n)`` chart array
    that already passed the chart rules, in the same layout."""
    sign = spec.sign
    if spec.family is Family.BDI:
        zz = _mm_last(z, z.swapaxes(0, 1))
        k = _kernel(spec, z, z).real
        return sign * level * (2.0 * z * zz.conj() + 2.0 * sign * z.conj()) / k
    z_dag = z.conj().swapaxes(0, 1)
    if len(z[0]) < len(z):
        # Push-through: P^-1 Z = Z Q^-1, so G = level (Q^-1 Z^dag)^T on
        # the smaller q x q side.
        q = np.eye(len(z_dag))[..., None] + sign * _mm_last(z_dag, z)
        return level * _hpd_solve(q, z_dag).swapaxes(0, 1)
    p = np.eye(len(z))[..., None] + sign * _mm_last(z, z_dag)
    return level * _hpd_solve(p, z).conj()


def metric(spec: ManifoldSpec, level: int, z) -> np.ndarray:
    """Hermitian metric matrix ``d^2 F / dz_mu d conj(z_nu)`` at a point.

    The closed form of the module docstring, paired with each pair of
    matrices of :func:`coordinate_basis`; for AIII, CI and DIII it is
    ``level`` times the Gram matrix of the basis in the coordinates of
    :func:`_kahler_coordinates`.
    """
    z = validate_points(spec, as_chart_array(spec, z))
    b = np.array(coordinate_basis(spec))
    if spec.family is Family.BDI:
        sign = spec.sign
        v, bv = z[0], b[:, 0]
        k = float(_kernel(spec, z[..., None], z[..., None])[0].real)
        k_mu = bv @ (2.0 * v * np.conj(v @ v) + 2.0 * sign * v.conj())
        zb = bv @ v
        k_mn = 4.0 * np.outer(zb, zb.conj()) + 2.0 * sign * (bv @ bv.conj().T)
        out = sign * level * (k_mn / k - np.outer(k_mu, k_mu.conj()) / k**2)
    else:
        x, w = _kahler_coordinates(spec, z[..., None], b.transpose(1, 2, 0))
        x = x.reshape(-1, len(b))
        out = level * ((x.conj() * w.reshape(-1, 1)).T @ x)
    return (out + out.conj().T) / 2.0


def _kahler_coordinates(spec: ManifoldSpec, z: np.ndarray, u: np.ndarray):
    """Chart displacements ``u`` at chart points ``z`` of a determinant
    family, in coordinates where the level-1 Kahler form is diagonal.

    With ``P = I + s z z^dagger = L_P D_P L_P^dagger`` and
    ``Q = I + s z^dagger z = L_Q D_Q L_Q^dagger`` (``manifolds._ldl``),
    ``tr(P^-1 v Q^-1 u^dagger) = sum(w * x_u * conj(x_v))`` with
    ``x = (L_P^-1 u L_Q^-dagger)^dagger = L_Q^-1 (L_P^-1 u)^dagger``, two
    forward substitutions, and the pivot weights
    ``w[j, i] = 1 / (d_Q,j d_P,i)``.  On CI and DIII ``Q`` is
    ``conj(P)``, so one factorisation serves both, and ``x`` is
    ``conj(L_P^-1 (L_P^-1 u)^T)``.  ``z`` and ``u`` come in the
    stack-last layout of ``manifolds._mm_last``, ``(p, q, n)``, and a
    stack of one ``z`` broadcasts against ``u``; ``(x, w)`` come in the
    same layout, ``(q, p, n)``."""
    z_dag = z.conj().swapaxes(0, 1)
    sign = spec.sign
    cols_p, d_p = _ldl(np.eye(len(z))[..., None] + sign * _mm_last(z, z_dag))
    y = _forward(cols_p, u.copy())
    if spec.family is Family.AIII:
        cols_q, d_q = _ldl(np.eye(len(z_dag))[..., None]
                           + sign * _mm_last(z_dag, z))
        x = _forward(cols_q, y.conj().swapaxes(0, 1).copy())
    else:
        d_q = d_p
        x = _forward(cols_p, y.swapaxes(0, 1).copy()).conj()
    return x, 1.0 / (d_q[:, None] * d_p[None, :])


def _metric_form(spec: ManifoldSpec, z: np.ndarray, u: np.ndarray):
    """The level-1 Kahler form ``Re tr(P^-1 u Q^-1 u^dagger)`` of chart
    displacements ``u`` at chart points ``z`` of a determinant family,
    both stack-last ``(p, q, n)``, as ``sum(w |x|^2)`` in the coordinates
    of :func:`_kahler_coordinates`; its square root is the Kahler length
    of ``u``.  On CP1, where ``P = Q = 1 + s |z|^2``, it is
    ``|u|^2 / P^2``."""
    if z.shape[:2] == (1, 1):
        p = 1.0 + spec.sign * (z.real ** 2 + z.imag ** 2)
        return ((u.real ** 2 + u.imag ** 2) / (p * p))[0, 0]
    x, w = _kahler_coordinates(spec, z, u)
    return np.sum(w * (x.real ** 2 + x.imag ** 2), axis=(0, 1))
