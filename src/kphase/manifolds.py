"""Matrix coordinate charts and reproducing kernels for the four classical
Hermitian symmetric families.

A point lives in a single chart per family: a full ``p x q`` complex matrix
(family AIII), a symmetric or skew-symmetric ``p x p`` matrix (CI, DIII), or
a length-``p`` complex row vector (BDI).  Compact families accept every chart
point; non-compact families accept only the strict interior of the bounded
domain (``I - Z Z^dag > 0``, with a quadratic analogue for BDI).

Kernels are holomorphic in their first argument and antiholomorphic in the
second.  Each quantity is one public function that takes one point or a
stack of points with leading axes, validates its chart arguments once with
:func:`validate_points`, and broadcasts in numpy's idiom; it then calls a
private core (``_kernel``, ``_distance``) that package code holding
validated arrays calls directly.

Chart quantities come in stacks of thousands of 1 x 1 to 3 x 3 matrices,
where numpy's stacked ``@``, ``np.linalg.solve`` and ``np.linalg.det``
loop once per matrix.  Three private kernels serve products,
determinants and solves whose inner dimension is a chart size (p or q):
``_mm`` forms a product as one broadcast multiply-add per inner index,
``_det`` has closed forms to 3 x 3 and hands over to LAPACK from 4 x 4
up, and ``_solve`` divides on 1 x 1, takes the adjugate over ``_det`` on
2 x 2 and calls LAPACK from 3 x 3 up (see ``_solve``).  The domain check
of :func:`point_faults` is one test for every p: the Cholesky pivots of
``I - Z Z^dag`` must all be positive (``_positive_definite``).
The kernel, the gradient, the Riccati right-hand side, the Mobius images
and the Kahler metric use these kernels.  The propagator's products and
its Pade solve act on the defining or spin dimension (up to 65 at
j = 32), where ``_mm`` would need one pass per inner index, so they keep
BLAS's ``@`` and LAPACK, with the closed-form solve at d = 2 only.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, OutsideDomain, SymmetryViolation

SYMMETRY_TOL = 1e-12
KERNEL_ZERO_TOL = 1e-12


class Family(str, enum.Enum):
    """Chart families: rectangular, symmetric, skew-symmetric, vector."""

    AIII = "AIII"
    CI = "CI"
    DIII = "DIII"
    BDI = "BDI"


@dataclass(frozen=True)
class ManifoldSpec:
    """Family, size parameters, and compactness of one symmetric space.

    Parameters
    ----------
    family : Family or str
        One of AIII, CI, DIII, BDI.
    p : int
        Row dimension (AIII), matrix size (CI, DIII), or vector length (BDI).
    q : int, optional
        Column dimension, meaningful for AIII only; must satisfy p >= q.
    compact : bool, optional
        Compact form (default) or its non-compact bounded-domain dual.
    """

    family: Family
    p: int
    q: int = 1
    compact: bool = True

    def __post_init__(self):
        object.__setattr__(self, "family", Family(self.family))
        if not isinstance(self.p, int) or not isinstance(self.q, int):
            raise DimensionMismatch("p and q must be integers")
        if self.p < 1 or self.q < 1:
            raise DimensionMismatch("p and q must be positive")
        if self.family is Family.AIII and self.p < self.q:
            raise DimensionMismatch("family AIII requires p >= q")
        if self.family is Family.DIII and self.p < 2:
            raise DimensionMismatch("family DIII requires p >= 2")
        if self.family is not Family.AIII and self.q != 1:
            raise DimensionMismatch("q is only meaningful for family AIII")

    @property
    def point_shape(self) -> tuple[int, int]:
        if self.family is Family.AIII:
            return (self.p, self.q)
        if self.family is Family.BDI:
            return (1, self.p)
        return (self.p, self.p)

    @property
    def complex_dimension(self) -> int:
        if self.family is Family.AIII:
            return self.p * self.q
        if self.family is Family.CI:
            return self.p * (self.p + 1) // 2
        if self.family is Family.DIII:
            return self.p * (self.p - 1) // 2
        return self.p

    @property
    def sign(self) -> float:
        """+1 on compact specs and -1 on bounded domains: the sign of
        ``Z W^dag`` in the kernel and of the Kahler potential."""
        return 1.0 if self.compact else -1.0


def cp1(compact: bool = True) -> ManifoldSpec:
    """The rank-one AIII space with p = q = 1 (the Riemann sphere chart)."""
    return ManifoldSpec(Family.AIII, 1, 1, compact)


def as_chart_array(spec: ManifoldSpec, z) -> np.ndarray:
    """Coerce scalars / nested lists / arrays to the chart's matrix shape."""
    arr = np.asarray(z, dtype=complex)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    if arr.ndim == 1:
        # A bare vector is only unambiguous for BDI rows and p x 1 columns.
        if spec.point_shape[0] == 1:
            arr = arr.reshape(1, -1)
        elif spec.point_shape[1] == 1:
            arr = arr.reshape(-1, 1)
    if arr.shape != spec.point_shape:
        raise DimensionMismatch(
            f"expected shape {spec.point_shape} for {spec.family.value}, "
            f"got {arr.shape}"
        )
    return arr


def validate_points(
    spec: ManifoldSpec, z, symmetry_tol: float = SYMMETRY_TOL
) -> np.ndarray:
    """Validate one chart point or a stack of them.

    An input of at most two dimensions is one point, coerced as by
    :func:`as_chart_array`; a higher one is a stack whose last two axes
    hold the points.  Raises for the earliest point that breaks a rule of
    :func:`point_faults` and returns the points projected onto the
    family's symmetry, in the shape of the (coerced) input.

    Raises
    ------
    DimensionMismatch, ValueError, SymmetryViolation, OutsideDomain
    """
    arr = np.asarray(z, dtype=complex)
    if arr.ndim <= 2:
        arr = as_chart_array(spec, arr)
    stack, faults = point_faults(spec, arr.reshape((-1,) + arr.shape[-2:]),
                                 symmetry_tol)
    raise_first_fault(faults)
    return stack.reshape(arr.shape)


def point_faults(
    spec: ManifoldSpec, stack, symmetry_tol: float = SYMMETRY_TOL
):
    """The chart rules on a ``(n, rows, cols)`` stack of points.

    Entries must be finite (else ``ValueError``).  CI points must be
    symmetric and DIII points skew-symmetric to ``symmetry_tol`` (else
    ``SymmetryViolation``), and are then projected exactly.  Non-compact
    points must lie in the strict interior of the bounded domain (else
    ``OutsideDomain``): for the determinant families ``I - Z Z^dag`` must
    be positive definite: every Cholesky pivot positive, one test for
    every p (``_positive_definite``).  Returns the projected stack and one
    fault ``(mask of passing rows, exception type, message of a row)`` per
    rule, in that order.
    """
    arr = np.array(stack, dtype=complex)
    if arr.ndim != 3 or arr.shape[1:] != spec.point_shape:
        raise DimensionMismatch(
            f"expected points of shape {spec.point_shape}, got {arr.shape}"
        )
    finite = np.isfinite(arr).all(axis=(1, 2))
    faults = [(finite, ValueError, lambda k: "chart point is not finite")]
    if spec.family in (Family.CI, Family.DIII):
        sym = "symmetric" if spec.family is Family.CI else "skew-symmetric"
        flip = arr.swapaxes(1, 2) * (1.0 if spec.family is Family.CI else -1.0)
        gap = np.max(np.abs(arr - flip), axis=(1, 2))
        faults.append((gap <= symmetry_tol, SymmetryViolation,
                       lambda k: f"{sym} chart violated by {gap[k]:.3e}"))
        flip += arr
        arr = np.divide(flip, 2.0, out=flip)
    if not spec.compact:
        z = arr if finite.all() else np.where(finite[:, None, None], arr, 0.0)
        # Entries past about 1e154 overflow Z Z^dag; the inf or NaN it
        # leaves fails the comparisons below, so the row is outside.
        with np.errstate(over="ignore", invalid="ignore"):
            gram = _mm(z, z.conj().swapaxes(1, 2))
            if spec.family is Family.BDI:
                zz = np.abs((z @ z.swapaxes(1, 2))[:, 0, 0])
                norm2 = np.real(gram[:, 0, 0])
                inside = (zz < 1.0) & (1.0 + zz**2 - 2.0 * norm2 > 0.0)
            else:
                gram = np.subtract(np.eye(spec.p), gram, out=gram)
                inside = _positive_definite(gram)
        faults.append((inside, OutsideDomain,
                       lambda k: "point on or outside the bounded domain"))
    return arr, faults


def raise_first_fault(faults, times=None) -> None:
    """Raise the fault of the earliest failing row, if a row fails.

    ``faults`` holds ``(mask of passing rows, exception type, message of a
    row)`` entries; on a row that fails several, the earlier entry wins.
    With ``times`` the message names the row's time.
    """
    failing = [(int(np.argmin(ok)), i)
               for i, (ok, _, _) in enumerate(faults) if not ok.all()]
    if failing:
        k, i = min(failing)
        _, kind, message = faults[i]
        where = "" if times is None else f" at t = {times[k]:.6g}"
        raise kind(message(k) + where)


def _positive_definite(g: np.ndarray) -> np.ndarray:
    """Whether each of a ``(n, p, p)`` stack of Hermitian matrices is
    positive definite: every pivot of its Cholesky factorisation, taken
    as the leading entry of the repeated Schur complements
    ``G[1:, 1:] - G[1:, 0] G[0, 1:] / g00``, is positive.

    A pivot is the ratio ``D_k / D_(k-1)`` of leading principal minors,
    but is reached without forming them: where ``G`` has two small
    eigenvalues (a skew 3 x 3 chart point near the boundary, whose
    ``Z Z^dag`` has a double eigenvalue), ``det G`` would be a
    cancellation of order-one terms down to the square of the gap, and
    its sign lost to rounding.  A row whose pivot fails keeps dividing
    by one, so no later pivot divides by zero."""
    inside = g[:, 0, 0].real > 0.0
    while g.shape[-1] > 1:
        pivot = np.where(inside, g[:, 0, 0].real, 1.0)[:, None, None]
        g = g[:, 1:, 1:] - g[:, 1:, :1] * (g[:, :1, 1:] / pivot)
        inside &= g[:, 0, 0].real > 0.0
    return inside


def _det(m: np.ndarray):
    """Determinant of one square matrix or of a stack of them, as a new
    array: writing to ``m`` afterwards leaves it unchanged.

    Closed forms to 3 x 3 (the cofactor expansion along the first row),
    LAPACK's LU from 4 x 4 up.  A closed form overflows once a product of
    p entries does, where LU's pivoting may still return a finite value:
    :func:`kernel` refuses a value that is not finite."""
    n = m.shape[-1]
    if n == 1:
        return m[..., 0, 0].copy()
    if n == 2:
        return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = np.moveaxis(m, (-2, -1), (0, 1))
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    return np.linalg.det(m)


def _mm(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x @ y`` for small matrices or stacks of them, as one broadcast
    multiply-add per inner index; the leading axes broadcast as in
    ``@``."""
    out = x[..., :, :1] * y[..., :1, :]
    for k in range(1, x.shape[-1]):
        out += x[..., :, k:k + 1] * y[..., k:k + 1, :]
    return out


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a^-1 b`` for square ``a`` and matching ``b``, or stacks of them:
    ``b / a`` on 1 x 1, the adjugate over :func:`_det` on 2 x 2, and
    ``np.linalg.solve`` from 3 x 3 up.  A 3 x 3 adjugate solve beat
    LAPACK's per-matrix loop on chart stacks, but it raised the peak
    memory of an evolve run and had several times the backward error of
    LAPACK's pivoted LU on matrices I - Z Z^dag near the boundary."""
    n = a.shape[-1]
    if n == 1:
        return b / a
    if n == 2:
        b0, b1 = b[..., :1, :], b[..., 1:, :]
        top = a[..., 1:, 1:] * b0 - a[..., :1, 1:] * b1
        bottom = a[..., :1, :1] * b1 - a[..., 1:, :1] * b0
        det = _det(a)[..., None, None]
        return np.concatenate((top, bottom), axis=-2) / det
    return np.linalg.solve(a, b)


def _kernel(spec: ManifoldSpec, z: np.ndarray, w: np.ndarray):
    """:func:`kernel` on chart arrays that already passed the chart rules."""
    sign = spec.sign
    w_dag = w.conj().swapaxes(-1, -2)
    if spec.family is Family.BDI:
        zz = (z @ z.swapaxes(-1, -2))[..., 0, 0]
        ww = (w @ w.swapaxes(-1, -2))[..., 0, 0]
        zw = (z @ w_dag)[..., 0, 0]
        return 1.0 + zz * np.conj(ww) + sign * 2.0 * zw
    p = spec.point_shape[0]
    return _det(np.eye(p) + sign * _mm(z, w_dag))


def kernel(spec: ManifoldSpec, z, w):
    """Evaluate the family kernel K(z, conj(w)).

    Determinant families use ``det(I +/- Z W^dag)`` on the ``p x p`` side,
    with ``+`` for compact and ``-`` for non-compact specs.  BDI uses the
    quadratic vector formula
    ``1 + (z.z)(conj(w.w)) +/- 2 (z . conj(w))``.

    Parameters
    ----------
    spec : ManifoldSpec
    z, w : array_like
        Points or stacks of points, validated here against ``spec``; their
        leading axes broadcast against each other.

    Returns
    -------
    complex or ndarray
        Hermitian in its arguments: ``K(w, conj(z)) == conj(K(z, conj(w)))``.

    Raises
    ------
    OverflowError
        If a value is not finite in double precision.
    """
    z, w = validate_points(spec, z), validate_points(spec, w)
    with np.errstate(over="ignore", invalid="ignore"):
        value = _kernel(spec, z, w)
    if not np.all(np.isfinite(value)):
        raise OverflowError("kernel K(z, conj(w)) overflows double precision")
    return value


def _check_single_level(level) -> int:
    if not isinstance(level, (int, np.integer)) or level < 1:
        raise ValueError("level must be a positive integer")
    return int(level)


def normalized_overlap(spec: ManifoldSpec, level: int, z, w):
    """Unit-normalized kernel ratio at a single positive integer level.

    Returns ``K(z, conj(w))^level / sqrt(K(z, conj(z))^level
    K(w, conj(w))^level)``, the overlap of the normalized state labelled by
    ``w`` with the one labelled by ``z`` (holomorphic in ``z``).  Its modulus
    is at most one for compact specs and at least one for non-compact ones,
    with equality exactly on the diagonal.  Broadcasts as :func:`kernel`.
    """
    lam = _check_single_level(level)
    z, w = validate_points(spec, z), validate_points(spec, w)
    kzz, kww = _kernel(spec, z, z).real, _kernel(spec, w, w).real
    return _kernel(spec, z, w) ** lam / np.sqrt(kzz**lam * kww**lam)


def projective_distance(spec: ManifoldSpec, z, w):
    """Chart-invariant separation of two rays, zero only on equal rays.

    Compact specs use ``arccos`` of the clamped level-one overlap modulus;
    non-compact specs, where the overlap modulus is >= 1, use ``arccosh``.
    Broadcasts as :func:`kernel`.
    """
    return _distance(spec, validate_points(spec, z), validate_points(spec, w))


def _distance(spec: ManifoldSpec, z: np.ndarray, w: np.ndarray):
    """:func:`projective_distance` on chart arrays that already passed the
    chart rules."""
    norm = np.sqrt(_kernel(spec, z, z).real * _kernel(spec, w, w).real)
    k = _kernel(spec, z, w)
    # Dividing each part by the real norm keeps the modulus of a scalar
    # complex division; numpy's complex division rounds differently, and
    # near a zero distance arccos magnifies such last-bit changes ~1e8-fold.
    mag = np.hypot(k.real / norm, k.imag / norm)
    if spec.compact:
        return np.arccos(np.minimum(1.0, mag))
    return np.arccosh(np.maximum(1.0, mag))
