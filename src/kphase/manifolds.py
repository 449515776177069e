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
loop once per matrix.  Private kernels serve products, determinants and
solves, each with its rule inside:

- ``_mm``, on the ``(..., p, q)`` layout of the public functions: a 2-D
  matrix against a stack is one BLAS product from inner dimension 2 up;
  otherwise one broadcast multiply-add per inner index up to inner
  dimension 3, and ``np.matmul`` above.  The kernel, the gradient and
  the propagator's stacked products take it: 2 x 2 and 3 x 3 flows the
  broadcast, and from d = 4 up (65 at j = 32) BLAS's ``@``.
- ``_mm_last``, on the stack-last layout ``(p, q, n)``, the stack axis
  last: a stack of one (``n = 1``) on the left of a stack is one BLAS
  product over whole rows, and any other pair one broadcast multiply-add
  per inner index over whole ``n``-long rows, never numpy's inner loops
  of two or three entries.
- ``_det``: closed forms to 3 x 3, LAPACK's LU from 4 x 4 up.
- ``_hpd_solve``: the solves with the Hermitian positive-definite
  ``P = I + s Z Z^dag`` and ``Q = I + s Z^dag Z``: from 3 x 3 up by
  ``_ldl``, a broadcast elimination without pivoting
  (``L diag(d) L^dag``, stable on positive-definite matrices), with one
  refinement step; the closed forms of ``_solve`` on 1 x 1 and 2 x 2.
- ``_solve``: the general denominators, the chart images'
  ``A^T + Z B^T`` and the propagator's Pade steps: division on 1 x 1,
  the adjugate over ``_det`` on 2 x 2, LAPACK's pivoted LU from 3 x 3 up.

The chart stage of a trajectory keeps its points stack-last from the
Mobius images to the Kahler defects (``dynamics._chart_rows``), so its
rules and products read whole rows.  The chart rules live there too:
:func:`point_faults` takes and returns ``(n, rows, cols)`` stacks
through one transposed view of its stack-last core ``_point_faults``.
``_ldl`` takes its stack-last input directly and eliminates in place:
the domain check reads its pivots of ``I - Z Z^dag``, all positive for
every p, so the domain check and the solves share one elimination, and
``_hpd_solve`` passes it a transposed copy.  The kernel takes its
determinant on the smaller side (``det(I_q + s W^dag Z)`` for AIII with
q < p).
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
    be positive definite: every pivot of its :func:`_ldl` elimination
    positive, one test for every p.  Returns the projected stack, a new
    array, and one fault ``(mask of passing rows, exception type, message
    of a row)`` per rule, in that order.  The rules run on the
    stack-last layout (``_point_faults``), through a transposed view.
    """
    arr = np.array(stack, dtype=complex)
    if arr.ndim != 3 or arr.shape[1:] != spec.point_shape:
        raise DimensionMismatch(f"expected points of shape {spec.point_shape},"
                                f" got {arr.shape}")
    points, faults = _point_faults(spec, arr.transpose(1, 2, 0), symmetry_tol)
    return points.transpose(2, 0, 1), faults


def _point_faults(spec: ManifoldSpec, arr: np.ndarray, symmetry_tol: float):
    """:func:`point_faults` on a stack-last ``(rows, cols, n)`` stack of
    points of the chart's shape: the projected points (on AIII and BDI
    the input itself) and the faults."""
    finite = np.isfinite(arr).all(axis=(0, 1))
    faults = [(finite, ValueError, lambda k: "chart point is not finite")]
    if spec.family in (Family.CI, Family.DIII):
        sym = "symmetric" if spec.family is Family.CI else "skew-symmetric"
        flip = arr.swapaxes(0, 1) * (1.0 if spec.family is Family.CI else -1.0)
        gap = np.max(np.abs(arr - flip), axis=(0, 1))
        faults.append((gap <= symmetry_tol, SymmetryViolation,
                       lambda k: f"{sym} chart violated by {gap[k]:.3e}"))
        arr = np.divide(np.add(flip, arr, out=flip), 2.0, out=flip)
    if not spec.compact:
        z = arr if finite.all() else np.where(finite, arr, 0.0)
        # Entries past about 1e154 overflow Z Z^dag; the inf or NaN it
        # leaves fails the comparisons below, so the row is outside, and
        # so does a row whose elimination meets a zero pivot, or a
        # negative one, which may leave infinite or NaN pivots after it.
        # Where I - Z Z^dag has two small eigenvalues (a skew 3 x 3 point
        # near the boundary), its determinant would cancel down to the
        # square of the gap and lose its sign to rounding; the pivots
        # keep it.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            gram = _mm_last(z, z.conj().swapaxes(0, 1))
            if spec.family is Family.BDI:
                zz = np.abs(_mm_last(z, z.swapaxes(0, 1))[0, 0])
                inside = (zz < 1.0) & (1.0 + zz**2 > 2.0 * gram[0, 0].real)
            else:
                pivots = _ldl(np.eye(spec.p)[..., None] - gram)[1]
                inside = np.all(pivots > 0.0, axis=0)
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


def _ldl(a: np.ndarray):
    """The factorisation ``G = L diag(d) L^dag`` of a stack of Hermitian
    positive-definite matrices, by elimination without pivoting.

    The pivots ``d`` are the leading entries of the repeated Schur
    complements ``G[1:, 1:] - G[1:, 0] G[0, 1:] / g00``; the unit
    lower-triangular ``L`` is kept as its columns below the diagonal.  On
    positive-definite matrices this is Cholesky's elimination, backward
    stable without pivoting (Higham, *Accuracy and Stability of Numerical
    Algorithms*, ch. 10), and each pivot is the ratio ``D_k / D_(k-1)`` of
    leading principal minors reached without forming them.

    ``a`` holds the stack with its axes last, ``(p, p, ...)``, so that
    every operation reads whole stacks of one entry rather than numpy's
    inner loops of two or three entries, and the elimination overwrites
    it.  Returns ``(cols, d)`` in that layout: ``cols[k]`` is
    ``L[k+1:, k]`` of shape ``(p - k - 1, ...)`` and ``d`` the real
    ``(p, ...)`` pivots.  A pivot that is zero divides by zero; callers
    that factor matrices which may not be positive definite (the domain
    check of :func:`point_faults`) suppress that warning."""
    d = np.empty(a.shape[1:])
    cols = []
    for k in range(len(a)):
        d[k] = a[k, k].real
        if k + 1 < len(a):
            col = a[k + 1:, k] / d[k]
            cols.append(col)
            a[k + 1:, k + 1:] -= col[:, None] * a[k, k + 1:]
    return cols, d


def _forward(cols, y: np.ndarray) -> np.ndarray:
    """Overwrite ``y``, a ``(p, q, ...)`` stack in the layout of
    :func:`_ldl` with as many stack axes, with ``L^-1 y`` by forward
    substitution, one column of ``L`` at a time, and return it."""
    for k, col in enumerate(cols):
        y[k + 1:] -= col[:, None] * y[k]
    return y


def _hpd_solve(g: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``g^-1 b`` for Hermitian positive-definite ``g`` and matching
    ``b``, or stacks of them with the same leading axes: the closed forms
    of :func:`_solve` on 1 x 1 and 2 x 2, and from 3 x 3 up the
    factorisation of :func:`_ldl` with one step of iterative refinement
    in working precision, written to a new C-ordered array.

    The factorisation's solve is a forward substitution, the pivots and
    a back substitution with ``L^dag``; the refinement solves once more,
    with the same factors, for the residual ``b - g x``.  Cholesky's
    normwise backward error is a small multiple of eps, but near the
    bounded domain's edge it reached two to twenty times that of
    LAPACK's pivoted LU on some points (DIII(4), DIII(6); on 2 x 2 CI(2)
    points ten times, where the adjugate matches LU); after the
    refinement step it is below LU's (Skeel's result for fixed-precision
    refinement)."""
    if g.shape[-1] < 3:
        return _solve(g, b)
    gt, bt = (m.transpose(-2, -1, *range(m.ndim - 2)) for m in (g, b))
    cols, d = _ldl(gt.copy())

    def solve(y):
        _forward(cols, y)
        y /= d[:, None]
        for k in reversed(range(len(cols))):
            y[k] -= np.sum(cols[k].conj()[:, None] * y[k + 1:], axis=0)
        return y

    x = solve(bt.copy())
    r = bt - gt[:, 0, None] * x[0]
    for j in range(1, len(x)):
        r -= gt[:, j, None] * x[j]
    out = np.empty(b.shape, x.dtype)
    np.add(x, solve(r), out=out.transpose(-2, -1, *range(out.ndim - 2)))
    return out


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
    """``x @ y`` for matrices or stacks of them, as a new array; the
    leading axes broadcast as in ``@``.

    From inner dimension 2 up, a 2-D matrix against a stack is one BLAS
    product over the stack's rows or columns; two 2-D matrices take the
    rules below.  Otherwise, at inner dimension 3 or less, the product is
    one broadcast multiply-add per inner index, which beats the
    per-matrix loop of ``np.matmul`` three- to fivefold on stacks of
    hundreds of 2 x 2 matrices; above that it is ``np.matmul``, since
    each inner index costs one pass over the stack.  On one 2 x 2 matrix
    it takes about three times as long as ``@``, so the flow's single
    products keep ``@``."""
    k = x.shape[-1]
    if k > 1:
        if x.ndim > 2 and y.ndim == 2:
            return (x.reshape(-1, k) @ y).reshape(x.shape[:-1] + y.shape[1:])
        if y.ndim == 3 and x.ndim == 2:
            n, _, cols = y.shape
            out = x @ y.swapaxes(0, 1).reshape(k, n * cols)
            return out.reshape(len(x), n, cols).swapaxes(0, 1)
    if k > 3:
        return np.matmul(x, y)
    out = x[..., :, :1] * y[..., :1, :]
    for i in range(1, k):
        out += x[..., :, i:i + 1] * y[..., i:i + 1, :]
    return out


def _mm_last(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x @ y`` on stacks in the stack-last layout, ``(k, m, n)`` against
    ``(m, b, n)``, as a new ``(k, b, n)`` array; a stack of one
    (``n = 1``) on either side broadcasts.  A left operand that is a
    stack of one (a constant schedule's H, a trajectory's start point)
    is one BLAS product over the right operand's whole rows from inner
    dimension 2 up, as in :func:`_mm`; otherwise the product is one
    broadcast multiply-add per inner index over whole ``n``-long rows."""
    if len(y) > 1 and x.shape[2] == 1:
        return (x[:, :, 0] @ y.reshape(len(y), -1)).reshape(-1, *y.shape[1:])
    out = x[:, :1] * y[:1]
    for i in range(1, len(y)):
        out += x[:, i:i + 1] * y[i:i + 1]
    return out


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a^-1 b`` for general square ``a`` and matching ``b``, or stacks
    of them: the chart images' denominators ``A^T + Z B^T`` and the Pade
    steps, which are not Hermitian.  ``b / a`` on 1 x 1, the adjugate
    over :func:`_det` on 2 x 2, and ``np.linalg.solve`` (LU with partial
    pivoting) from 3 x 3 up.  A 3 x 3 adjugate solve beat LAPACK's
    per-matrix loop on chart stacks, but it raised the peak memory of an
    evolve run and had several times the backward error of LAPACK's
    pivoted LU on matrices I - Z Z^dag near the boundary; the Hermitian
    positive-definite solves take :func:`_hpd_solve`, which hands its
    1 x 1 and 2 x 2 ones to this function."""
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
    if z.shape[-1] < z.shape[-2]:
        # Sylvester: det(I_p + s Z W^dag) = det(I_q + s W^dag Z).  On the
        # smaller side a large rank-one Z W^dag does not cancel to zero.
        return _det(np.eye(z.shape[-1]) + sign * _mm(w_dag, z))
    return _det(np.eye(z.shape[-2]) + sign * _mm(z, w_dag))


def kernel(spec: ManifoldSpec, z, w):
    """Evaluate the family kernel K(z, conj(w)).

    Determinant families use ``det(I +/- Z W^dag)``, with ``+`` for
    compact and ``-`` for non-compact specs, taken on the smaller side:
    for AIII with q < p it is ``det(I_q +/- W^dag Z)`` (Sylvester's
    identity), whose closed form does not cancel where ``Z W^dag`` is a
    large rank-one matrix.  BDI uses the
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
    _require_finite(value)
    return value


def _require_finite(*values) -> None:
    """Raise ``OverflowError`` unless every entry of ``values`` is finite:
    a kernel, or a sum of kernel derivatives, past double precision."""
    if not all(np.isfinite(v).all() for v in values):
        raise OverflowError("kernel K(z, conj(w)) overflows double precision")


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
    Broadcasts as :func:`kernel`, and raises ``OverflowError`` as it does.
    """
    return _distance(spec, validate_points(spec, z), validate_points(spec, w))


def _distance(spec: ManifoldSpec, z: np.ndarray, w: np.ndarray):
    """:func:`projective_distance` on chart arrays that already passed the
    chart rules.  Past |z| ~ 1e154 on CP1 the kernels themselves overflow,
    and the distance raises ``OverflowError`` as :func:`kernel` does."""
    with np.errstate(over="ignore", invalid="ignore"):
        kzz, kww = _kernel(spec, z, z).real, _kernel(spec, w, w).real
        k = _kernel(spec, z, w)
    _require_finite(kzz, kww, k)
    # Far from the origin K(z, z) K(w, w) overflows (past |z| ~ 1e77 on
    # CP1).  One power of two from the larger diagonal kernel scales all
    # three kernels exactly, so the ratio is unchanged wherever the
    # unscaled product is finite, and d(z, z) stays exactly zero.
    _, e = np.frexp(np.maximum(kzz, kww))
    norm = np.sqrt(np.ldexp(kzz, -e) * np.ldexp(kww, -e))
    # Dividing each part by the real norm keeps the modulus of a scalar
    # complex division; numpy's complex division rounds differently, and
    # near a zero distance arccos magnifies such last-bit changes ~1e8-fold.
    mag = np.hypot(np.ldexp(k.real, -e) / norm, np.ldexp(k.imag, -e) / norm)
    if spec.compact:
        return np.arccos(np.minimum(1.0, mag))
    return np.arccosh(np.maximum(1.0, mag))
