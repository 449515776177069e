"""Finite-difference references for the closed-form Kahler geometry.

These are the stencils the library used before its closed forms: the
central-difference holomorphic gradient of the potential and the
central-difference derivative of the weighted kernel cocycle.  Tests
compare the closed forms against them.
"""

from __future__ import annotations

import math

import numpy as np

from kphase import (
    coordinate_basis,
    kernel,
    potential,
    validate_point,
)
from kphase.dynamics import _chart_images


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
    zp = validate_point(spec, z)
    out = []
    for b in coordinate_basis(spec):
        f = [potential(spec, level, zp.entries + h * b)
             for h in (step, -step, 1j * step, -1j * step)]
        fx = (f[0] - f[1]) / (2.0 * step)
        fy = (f[2] - f[3]) / (2.0 * step)
        out.append((fx - 1j * fy) / 2.0)
    return np.array(out)


def fd_expectation(spec, level: int, Z, H, step: float = 1e-5) -> float:
    """``i d/ds`` of ``level * (ln det(A_s^T + Z B_s^T) + ln K(Z_s, conj(Z))
    - ln K(Z, conj(Z)))`` along ``exp(-isH)`` by a central difference."""
    zp = validate_point(spec, Z)
    k00 = np.log(kernel(spec, zp, zp))

    def log_term(s: float) -> complex:
        det, zs = _chart_images(spec, expm_hermitian_generator(H, s), zp.entries)
        zs = validate_point(spec, zs, symmetry_tol=1e-9)
        return level * (np.log(det) + np.log(kernel(spec, zs, zp)) - k00)

    value = 1j * (log_term(step) - log_term(-step)) / (2.0 * step)
    assert abs(value.imag) < 1e-8
    return float(value.real)
