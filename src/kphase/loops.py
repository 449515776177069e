"""Closed test loops in chart coordinates.

Both factories return one validated ``(samples + 1, rows, cols)`` complex
stack whose final row repeats the first one exactly, so downstream phase
integrals see a closed path without any cyclicity slack.  It is a
transposed view of the stack-last ``(rows, cols, samples + 1)`` array
that they build and check with ``manifolds._point_faults``, the layout
of the phases' cores.  Both bound the work they accept before they
allocate anything: at most ``MAX_ENTRIES`` entries in
``samples x rows x cols`` and at most ``MAX_MODES`` Fourier modes.
"""

from __future__ import annotations

import numpy as np

from .manifolds import (SYMMETRY_TOL, Family, ManifoldSpec, _point_faults,
                        raise_first_fault)

# A 2**22-entry stack is 64 MB of complex values before validation copies
# it, and a Fourier loop's cos/sin table holds at most as many entries.
MAX_ENTRIES = 2 ** 22
MAX_MODES = 4096


def _check_size(spec: ManifoldSpec, samples: int, modes: int = 1) -> None:
    if samples < 3:
        raise ValueError("need at least 3 samples")
    rows, cols = spec.point_shape
    if samples * rows * cols > MAX_ENTRIES:
        raise ValueError(
            f"samples x rows x cols must be at most {MAX_ENTRIES}, got "
            f"{samples} x {rows} x {cols}")
    if modes > MAX_MODES:
        raise ValueError(f"modes must be at most {MAX_MODES}, got {modes}")


def latitude_circle(
    spec: ManifoldSpec, radius: float, samples: int
) -> np.ndarray:
    """Circle of constant chart radius, sampled uniformly with closure.

    Returns the validated ``(samples + 1, rows, cols)`` stack; the
    duplicate endpoint reuses the first point's float values bit for bit.
    A radius that is not positive and finite raises ``ValueError`` before
    any point is formed.
    """
    _check_size(spec, samples)
    if not 0.0 < radius < np.inf:
        raise ValueError("radius must be positive and finite")
    t = _angles(samples)
    z = np.zeros(spec.point_shape + (samples + 1,), dtype=complex)
    z[0, 0] = radius * np.exp(1j * t)
    points, faults = _point_faults(spec, z, SYMMETRY_TOL)
    raise_first_fault(faults)
    return points.transpose(2, 0, 1)


def _angles(samples: int) -> np.ndarray:
    """``samples + 1`` uniform angles on [0, 2 pi); the last one is 0."""
    return 2.0 * np.pi * (np.arange(samples + 1) % samples) / samples


def fourier_loop(
    spec: ManifoldSpec,
    rng: np.random.Generator,
    samples: int,
    modes: int = 3,
    scale: float = 0.5,
) -> np.ndarray:
    """Smooth random closed loop built from a low-order Fourier series.

    Coefficient matrices are drawn from ``rng``, mode by mode, cosine
    before sine, symmetrized to the family's chart symmetry, and damped
    by mode number.  Non-compact charts get an extra overall contraction
    to stay inside the domain.  The series is one real product of the
    coefficients with the ``cos(m t)``, ``sin(m t)`` table, in blocks of
    terms that keep the table within ``MAX_ENTRIES`` entries.  Returns
    the validated ``(samples + 1, rows, cols)`` stack, whose last sample
    copies the first.
    """
    _check_size(spec, samples, modes)
    rows, cols = spec.point_shape
    draws = rng.standard_normal((2 * modes, 2, rows, cols))
    c = draws[:, 0] + 1j * draws[:, 1]
    if spec.family is Family.CI:
        c = (c + c.swapaxes(1, 2)) / 2.0
    elif spec.family is Family.DIII:
        c = (c - c.swapaxes(1, 2)) / 2.0
    c = c * scale / np.arange(1, modes + 1).repeat(2)[:, None, None]
    if not spec.compact:
        c *= 0.4 / max(np.sum(np.linalg.norm(c, 2, axis=(1, 2))), 0.4)
    t = _angles(samples)[:-1]
    flat, terms = c.reshape(2 * modes, -1).view(float), np.arange(2 * modes)
    step = MAX_ENTRIES // samples
    series = sum(_fourier_table(t, terms[j:j + step]).T @ flat[j:j + step]
                 for j in range(0, 2 * modes, step))
    z = np.empty(spec.point_shape + (samples + 1,), dtype=complex)
    z[..., :-1] = series.view(complex).T.reshape(rows, cols, samples)
    z[..., -1] = z[..., 0]
    points, faults = _point_faults(spec, z, SYMMETRY_TOL)
    raise_first_fault(faults)
    return points.transpose(2, 0, 1)


def _fourier_table(t: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """The rows ``terms``, consecutive, of the table ``cos(t), sin(t),
    cos(2t), sin(2t), ...`` at angles ``t``."""
    table = np.multiply.outer(terms // 2 + 1.0, t)
    cos, sin = table[terms[0] % 2::2], table[1 - terms[0] % 2::2]
    np.cos(cos, out=cos)
    np.sin(sin, out=sin)
    return table
