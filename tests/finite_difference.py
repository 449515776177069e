"""Step-by-step references for the closed forms and the chunked stepper.

These are the stencils the library used before its closed forms: the
central-difference holomorphic gradient of the potential, the four-point
mixed stencil of its metric (:func:`fd_metric`) and the five-point
derivative of the weighted kernel cocycle.  :func:`mobius_act` is the
one-point chart action that tests compose, :func:`metric_length` the
length of a chart displacement in the public metric, and
:func:`random_point` draws valid chart points.  The per-step loop (:func:`stepwise_run`) takes the
Magnus steps that ``dynamics`` takes on sampled schedules, one at a time
and by eigendecomposition, where ``dynamics`` forms whole chunks of them
by batched solves and advances them by batched products.  Tests compare
the library against them.
"""

from __future__ import annotations

import math

import numpy as np

from kphase import (
    ChartOverflow,
    Family,
    coordinate_basis,
    kernel,
    metric,
    potential,
    validate_points,
)
from kphase.dynamics import (
    CHART_EDGE_TOL,
    _chart_images,
    _rk4_step,
    riccati_rhs,
)


def expm_hermitian_generator(H: np.ndarray, s: float) -> np.ndarray:
    """exp(-i s H) for Hermitian H, by eigendecomposition (2x2 closed form)."""
    if H.shape == (2, 2):
        c0 = (H[0, 0] + H[1, 1]) / 2.0
        v = np.array([H[0, 1].real + 0j, -H[0, 1].imag + 0j, (H[0, 0] - H[1, 1]) / 2.0])
        r = math.sqrt(float(np.sum(np.abs(v) ** 2)))
        phase = np.exp(-1j * c0 * s)
        if r < 1e-300:
            return phase * np.eye(2)
        cos_part = math.cos(r * s)
        sin_part = math.sin(r * s) / r
        sigma_dot = np.array(
            [
                [v[2], v[0] - 1j * v[1]],
                [v[0] + 1j * v[1], -v[2]],
            ]
        )
        return phase * (cos_part * np.eye(2) - 1j * sin_part * sigma_dot)
    w, vecs = np.linalg.eigh(H)
    return (vecs * np.exp(-1j * s * w)) @ vecs.conj().T


def fd_gradient(spec, level: int, z, step: float = 1e-6) -> np.ndarray:
    """Holomorphic partials along the coordinate basis by central
    differences: ``(d/dx - i d/dy) / 2`` of the potential."""
    zp = validate_points(spec, z)
    out = []
    for b in coordinate_basis(spec):
        f = [potential(spec, level, zp + h * b)
             for h in (step, -step, 1j * step, -1j * step)]
        fx = (f[0] - f[1]) / (2.0 * step)
        fy = (f[2] - f[3]) / (2.0 * step)
        out.append((fx - 1j * fy) / 2.0)
    return np.array(out)


def _mixed_stencil(spec, level: int, base: np.ndarray, a, b,
                   h: float) -> float:
    fpp = potential(spec, level, base + h * (a + b))
    fpm = potential(spec, level, base + h * (a - b))
    fmp = potential(spec, level, base + h * (b - a))
    fmm = potential(spec, level, base - h * (a + b))
    return (fpp - fpm - fmp + fmm) / (4.0 * h * h)


def fd_metric(spec, level: int, z, step: float = 1e-4) -> np.ndarray:
    """Hermitian metric matrix ``d^2 F / dz_mu d conj(z_nu)`` from
    four-point mixed stencils along pairs of basis directions and their
    quarter-turn rotations."""
    base = validate_points(spec, z)
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


def fd_expectation(spec, level: int, Z, H, step: float = 1e-4) -> float:
    """``i d/ds`` of ``level * (ln det(A_s^T + Z B_s^T) + ln K(Z_s, conj(Z))
    - ln K(Z, conj(Z)))`` along ``exp(-isH)`` by the five-point
    fourth-order stencil.  A central difference at step 1e-5 was off by up
    to 6e-8 near the edge of a bounded domain."""
    zp = validate_points(spec, Z)
    k00 = np.log(kernel(spec, zp, zp))

    def log_term(s: float) -> complex:
        det, zs = _chart_image(spec, expm_hermitian_generator(H, s), zp)
        zs = validate_points(spec, zs, symmetry_tol=1e-9)
        return level * (np.log(det) + np.log(kernel(spec, zs, zp)) - k00)

    value = 1j * (8.0 * (log_term(step) - log_term(-step))
                  - (log_term(2.0 * step) - log_term(-2.0 * step))) / (12.0 * step)
    assert abs(value.imag) < 1e-8
    return float(value.real)


def _chart_image(spec, U, Z):
    """The denominator determinant and Mobius image of one point under
    one matrix, by the library's stack-last ``_chart_images`` on stacks
    of one."""
    det, out = _chart_images(spec, U[..., None], Z[..., None])
    return det[0], out[..., 0]


def mobius_act(spec, U, Z, symmetry_tol: float = 1e-12) -> np.ndarray:
    """Fractional-linear chart action of a defining-representation matrix.

    With blocks ``A, B, C, D`` the image is
    ``(A^T + Z B^T)^{-1} (C^T + Z D^T)``, the matrix extension of the
    scalar rule ``z -> (c + d z)/(a + b z)``.  Composing actions multiplies
    the matrices: ``act(U2, act(U1, Z)) == act(U2 @ U1, Z)``.
    """
    det, out = _chart_image(spec, U, validate_points(spec, Z))
    if abs(det) < CHART_EDGE_TOL:
        raise ChartOverflow("orbit left the coordinate chart")
    return validate_points(spec, out, symmetry_tol=symmetry_tol)


def metric_length(spec, z, dz) -> float:
    """Length of the chart displacement ``dz`` at ``z`` in the level-1
    metric of ``geometry.metric``: ``dz`` written in the coordinate basis
    by least squares, then ``sqrt(c g conj(c))``."""
    basis = np.array(coordinate_basis(spec))
    c = np.linalg.lstsq(basis.reshape(len(basis), -1).T, np.ravel(dz),
                        rcond=None)[0]
    return math.sqrt(float(np.real(c @ metric(spec, 1, z) @ c.conj())))


def random_point(spec, rng: np.random.Generator,
                 scale: float = 1.0) -> np.ndarray:
    """Draw a random valid chart point, staying safely interior when bounded."""
    rows, cols = spec.point_shape
    arr = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    arr *= scale / math.sqrt(2.0)
    if spec.family is Family.CI:
        arr = (arr + arr.T) / 2.0
    elif spec.family is Family.DIII:
        arr = (arr - arr.T) / 2.0
    if not spec.compact:
        if spec.family is Family.BDI:
            norm = float(np.linalg.norm(arr))
            arr *= 0.55 / max(1.0, norm / 0.9)
            # 2 |z|^2 < 1 guarantees both interior inequalities.
            if float(np.linalg.norm(arr)) ** 2 >= 0.5:
                arr *= 0.6 / float(np.linalg.norm(arr))
        else:
            smax = float(np.linalg.svd(arr, compute_uv=False)[0])
            if smax >= 0.9:
                arr *= 0.9 / smax * rng.uniform(0.3, 0.95)
    return validate_points(spec, arr)


def stepwise_run(schedule, Y0, t0: float, h: float, n: int, spec=None,
                 z0=None):
    """``n`` fourth-order Magnus steps of size ``h`` from ``t0``, one call
    per step and stage: ``Y`` under i dY/dt = H(t) Y, and with ``spec`` and
    ``z0`` the RK4 Riccati variable on the same stage Hamiltonians.
    Returns the two stacks of states (``None`` for a route not run).

    Each step is the (2, 2) Pade approximant of exp(-iK), with
    ``K = (h/6) (H1 + 4 H2 + H3) + i (h^2/12) [H1, H3]``, taken eigenvalue
    by eigenvalue on an ``eigh`` of K rather than by the library's batched
    solve.  The exact exponential would differ from the library by the
    approximant's phase error, w^5/720 per eigenvalue w of K: up to 4e-10
    over 137 steps of h = 0.01 on the generators of the block test."""
    ys, zs = [np.asarray(Y0, dtype=complex)], None
    if spec is not None:
        zs = [np.asarray(z0, dtype=complex)]
    for k in range(n):
        t = t0 + k * h
        H1, H2, H3 = schedule(t), schedule(t + h / 2.0), schedule(t + h)
        K = ((h / 6.0) * (H1 + 4.0 * H2 + H3)
             + (1j * h * h / 12.0) * (H1 @ H3 - H3 @ H1))
        w, v = np.linalg.eigh(K)
        m = 1.0 - w * w / 12.0
        pade = (v * ((m - 0.5j * w) / (m + 0.5j * w))) @ v.conj().T
        ys.append(pade @ ys[-1])
        if zs is not None:
            zs.append(_rk4_step(lambda H, z: riccati_rhs(spec, H, z), zs[-1],
                                riccati_rhs(spec, H1, zs[-1]), H2, H3, h))
    return np.array(ys), None if zs is None else np.array(zs)
