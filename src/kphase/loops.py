"""Closed test loops in chart coordinates.

Both factories return one validated ``(samples + 1, rows, cols)`` complex
stack whose final row repeats the first one exactly, so downstream phase
integrals see a closed path without any cyclicity slack.  Both bound the
work they accept before they allocate anything: at most ``MAX_ENTRIES``
entries in ``samples x rows x cols`` and at most ``MAX_MODES`` Fourier
modes.
"""

from __future__ import annotations

import numpy as np

from .manifolds import Family, ManifoldSpec, validate_points

# A 2**22-entry stack is 64 MB of complex values before validation copies
# it; each Fourier mode costs a Python-level pass over the stack.
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
    z = np.zeros((samples + 1,) + spec.point_shape, dtype=complex)
    z[:, 0, 0] = radius * np.exp(1j * t)
    return validate_points(spec, z)


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

    Coefficient matrices are drawn from ``rng``, symmetrized to the
    family's chart symmetry, and damped by mode number.  Non-compact
    charts get an extra overall contraction to stay inside the domain.
    Returns the validated ``(samples + 1, rows, cols)`` stack, closed as
    in :func:`latitude_circle`.
    """
    _check_size(spec, samples, modes)
    rows, cols = spec.point_shape
    coeffs = []
    for m in range(1, modes + 1):
        for _ in range(2):
            raw = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal(
                (rows, cols)
            )
            if spec.family is Family.CI:
                raw = (raw + raw.T) / 2.0
            elif spec.family is Family.DIII:
                raw = (raw - raw.T) / 2.0
            coeffs.append(raw * scale / m)
    if not spec.compact:
        total = sum(np.linalg.norm(c, 2) for c in coeffs)
        if total > 0:
            shrink = 0.4 / max(total, 0.4)
            coeffs = [c * shrink for c in coeffs]
    t = _angles(samples)[:, None, None]
    z = np.zeros((samples + 1, rows, cols), dtype=complex)
    for m in range(1, modes + 1):
        z = z + coeffs[2 * (m - 1)] * np.cos(m * t)
        z = z + coeffs[2 * m - 1] * np.sin(m * t)
    return validate_points(spec, z)
