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
private core (``_kernel``, ``_distance``) on the points laid out
stack-last, ``(rows, cols, n)`` (``_broadcast_last``), which package code
holding validated stack-last arrays calls directly.  A core takes a stack
of one (``n = 1``) on either side of a stack and returns ``(n,)`` values.

The coherent-state overlap ``K(z, conj(w)) / sqrt(K(z, conj(z))
K(w, conj(w)))`` has one implementation, the core ``_overlap``: it
scales the three kernels by one power of two, so far points keep their
overlaps, and returns the ratio's real and imaginary parts.
:func:`normalized_overlap` takes its level-th power and ``_distance``
the arccos (arccosh) of its modulus, which :func:`projective_distance`,
``dynamics.ray_distances``, the closure of ``phases`` and ``kphase
oracle-compare`` read.  It is also the one function that a distance
resolved below arccos's ~1.5e-8 floor, ``1 - |overlap|^2`` formed
without cancellation, would change.

Chart quantities come in stacks of thousands of 1 x 1 to 4 x 4 matrices,
where numpy's stacked ``@``, ``np.linalg.solve`` and ``np.linalg.det``
loop once per matrix.  Private kernels serve products, determinants and
solves on the stack-last layout, each with its rule inside:

- ``_mm_last``, ``(k, m, n)`` against ``(m, b, n)``: a stack of one on
  the left of a larger stack is one BLAS product over whole rows; any
  other pair is one broadcast multiply-add per inner index over whole
  ``n``-long rows up to inner dimension ``STACK_LAST_MAX`` (4), and
  ``np.matmul`` on transposed views above it.  ``_to_stack_last`` lays
  a stack-first stack out for it and ``_solve``: a transposed copy below
  that size, a transposed view above.
- ``_det``, ``(d, d, n)``: closed forms to 3 x 3, LAPACK's LU through a
  transposed view from 4 x 4 up.
- ``_ldl``, ``(d, d, n)``: one broadcast Gaussian elimination without
  pivoting, ``L diag(d) L^dag`` on Hermitian positive-definite stacks.
- ``_hpd_solve``, ``(d, d, n)`` against ``(d, c, n)``: the solves with
  the Hermitian positive-definite ``P = I + s Z Z^dag`` and
  ``Q = I + s Z^dag Z``: from 3 x 3 up by ``_ldl`` with one refinement
  step; the closed forms of ``_solve`` on 1 x 1 and 2 x 2.
- ``_solve``, on the same layout: the general denominators, the chart
  images' ``A^T + Z B^T`` and the propagator's Pade steps: division on
  1 x 1, the adjugate on 2 x 2, ``_ldl``'s elimination and a back
  substitution (``_eliminate``) on stacks up to ``STACK_LAST_MAX`` whose
  every member is strictly column diagonally dominant, and LAPACK's
  pivoted LU through transposed views otherwise.

The chart stage of a trajectory (``dynamics._chart_rows``) and the loop
factories build their points stack-last too, and check them with the
chart rules' core ``_point_faults``, which :func:`validate_points` runs
through one transposed view; its domain check reads the pivots of
``_ldl``'s elimination of ``I - Z Z^dag``, all positive for every p.
The kernel takes its determinant on the smaller side
(``det(I_q + s W^dag Z)`` for AIII with q < p).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, OutsideDomain, SymmetryViolation

SYMMETRY_TOL = 1e-12
KERNEL_ZERO_TOL = 1e-12
# Matrix sizes up to which ``_mm_last`` multiplies and adds over whole
# rows and ``_solve`` may eliminate without pivoting; ``np.matmul`` and
# LAPACK, which loop once per matrix, are faster above.
STACK_LAST_MAX = 4


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
    ``_point_faults`` and returns a new array of the points projected
    onto the family's symmetry, in the shape of the (coerced) input.

    Entries must be finite (else ``ValueError``).  CI points must be
    symmetric and DIII points skew-symmetric to ``symmetry_tol`` (else
    ``SymmetryViolation``).  Non-compact points must lie in the strict
    interior of the bounded domain (else ``OutsideDomain``).

    Raises
    ------
    DimensionMismatch, ValueError, SymmetryViolation, OutsideDomain
    """
    arr = np.array(z, dtype=complex)
    if arr.ndim <= 2:
        arr = as_chart_array(spec, arr)
    if arr.shape[-2:] != spec.point_shape:
        raise DimensionMismatch(f"expected points of shape {spec.point_shape},"
                                f" got {arr.shape}")
    stack = arr.reshape((-1,) + arr.shape[-2:]).transpose(1, 2, 0)
    points, faults = _point_faults(spec, stack, symmetry_tol)
    raise_first_fault(faults)
    return points.transpose(2, 0, 1).reshape(arr.shape)


def _point_faults(spec: ManifoldSpec, arr: np.ndarray, symmetry_tol: float):
    """The chart rules of :func:`validate_points` on a stack-last
    ``(rows, cols, n)`` stack of points of the chart's shape.

    CI and DIII points are projected exactly onto their symmetry, and the
    domain check of a determinant family requires ``I - Z Z^dag``
    positive definite: every pivot of its :func:`_ldl` elimination
    positive, one test for every p.  Returns the projected points (on
    AIII and BDI the input itself) and one fault ``(mask of passing rows,
    exception type, message of a row)`` per rule, in the order finite,
    symmetric, inside the domain."""
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
    """Gaussian elimination without pivoting, ``G = L U``, of a stack of
    square matrices; on Hermitian positive-definite ``G`` the
    factorisation ``G = L diag(d) L^dag``.

    The pivots are the leading entries of the repeated Schur complements
    ``G[1:, 1:] - G[1:, 0] G[0, 1:] / g00``; the unit lower-triangular
    ``L`` is kept as its columns below the diagonal, and ``U`` is the
    upper triangle left in ``a``.  On positive-definite matrices this is
    Cholesky's elimination, backward stable without pivoting (Higham,
    *Accuracy and Stability of Numerical Algorithms*, ch. 10), and each
    pivot is the ratio ``D_k / D_(k-1)`` of leading principal minors
    reached without forming them.

    ``a`` holds the stack with its axes last, ``(p, p, ...)``, so that
    every operation reads whole stacks of one entry rather than numpy's
    inner loops of two or three entries, and the elimination overwrites
    it.  Returns ``(cols, d)`` in that layout: ``cols[k]`` is
    ``L[k+1:, k]`` of shape ``(p - k - 1, ...)`` and ``d`` the real parts
    of the ``(p, ...)`` pivots.  A zero pivot divides by zero; callers
    that factor matrices which may not be positive definite (the domain
    check of :func:`_point_faults`) suppress that warning."""
    cols = []
    for k in range(len(a) - 1):
        col = a[k + 1:, k] / a[k, k]
        cols.append(col)
        a[k + 1:, k + 1:] -= col[:, None] * a[k, k + 1:]
    # A copy, so that the pivots do not keep the eliminated stack alive.
    return cols, np.moveaxis(np.diagonal(a).real, -1, 0).copy()


def _forward(cols, y: np.ndarray) -> np.ndarray:
    """Overwrite ``y``, a ``(p, q, ...)`` stack in the layout of
    :func:`_ldl` with as many stack axes, with ``L^-1 y`` by forward
    substitution, one column of ``L`` at a time, and return it."""
    for k, col in enumerate(cols):
        y[k + 1:] -= col[:, None] * y[k]
    return y


def _hpd_solve(g: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``g^-1 b`` for Hermitian positive-definite ``g`` and matching
    ``b`` on the stack-last layout of :func:`_solve`, as a new array: its
    closed forms on a copy of ``b`` on 1 x 1 and 2 x 2, and from 3 x 3 up
    the factorisation of :func:`_ldl` with one step of iterative
    refinement in working precision.

    The factorisation's solve is a forward substitution, the pivots and
    a back substitution with ``L^dag``; the refinement solves once more,
    with the same factors, for the residual ``b - g x``.  Cholesky's
    normwise backward error is a small multiple of eps, but near the
    bounded domain's edge it reached two to twenty times that of
    LAPACK's pivoted LU on some points (DIII(4), DIII(6); on 2 x 2 CI(2)
    points ten times, where the adjugate matches LU); after the
    refinement step it is below LU's (Skeel's result for fixed-precision
    refinement)."""
    if len(g) < 3:
        return _solve(g, b.copy(order="K"))
    cols, d = _ldl(g.copy())

    def solve(y):
        _forward(cols, y)
        y /= d[:, None]
        for k in reversed(range(len(cols))):
            y[k] -= np.sum(cols[k].conj()[:, None] * y[k + 1:], axis=0)
        return y

    x = solve(b.copy())
    r = b - g[:, 0, None] * x[0]
    for j in range(1, len(x)):
        r -= g[:, j, None] * x[j]
    return x + solve(r)


def _det(m: np.ndarray):
    """Determinant of a stack-last ``(d, d, ...)`` stack, as a new array:
    writing to ``m`` afterwards leaves it unchanged.

    Closed forms to 3 x 3 (the cofactor expansion along the first row),
    LAPACK's LU, through a transposed view, from 4 x 4 up.  A closed form
    overflows once a product of d entries does, where LU's pivoting may
    still return a finite value: :func:`kernel` refuses a value that is
    not finite."""
    n = len(m)
    if n == 1:
        return m[0, 0].copy()
    if n == 2:
        return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = m
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    return np.linalg.det(m.transpose(*range(2, m.ndim), 0, 1))


def _mm_last(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x @ y`` on stacks in the stack-last layout, ``(k, m, n)`` against
    ``(m, b, n)``, as a ``(k, b, n)`` array; a stack of one (``n = 1``)
    on either side broadcasts.  A left operand that is a stack of one (a
    constant schedule's H, a trajectory's start point) against a stack is
    one BLAS product over the right operand's whole rows from inner
    dimension 2 up.  Otherwise, two stacks of one included, so that one
    point rounds as it does in a stack, up to inner dimension
    ``STACK_LAST_MAX``, the product is one broadcast multiply-add per inner
    index over whole ``n``-long rows, never numpy's inner loops of a few
    entries.  Above it each inner index would cost one more pass over
    the stack, and ``np.matmul`` takes the transposed ``(n, k, m)``
    views instead; its result comes back as a transposed view of the
    ``(n, k, b)`` product, so a chain of such products hands BLAS
    contiguous matrices again."""
    if len(y) > 1 and x.shape[2] == 1 < y.shape[2]:
        return (x[:, :, 0] @ y.reshape(len(y), -1)).reshape(-1, *y.shape[1:])
    if len(y) > STACK_LAST_MAX:
        return np.matmul(x.transpose(2, 0, 1),
                         y.transpose(2, 0, 1)).transpose(1, 2, 0)
    out = x[:, :1] * y[:1]
    for i in range(1, len(y)):
        out += x[:, i:i + 1] * y[i:i + 1]
    return out


def _to_stack_last(m: np.ndarray) -> np.ndarray:
    """A stack-first ``(n, p, q)`` stack as the stack-last ``(p, q, n)``
    operand of :func:`_mm_last` and :func:`_solve`: a transposed copy up
    to ``STACK_LAST_MAX`` rows, where they read whole rows, and a
    transposed view above it, whose matrices stay contiguous for
    ``np.matmul`` and LAPACK."""
    m = m.transpose(1, 2, 0)
    return np.ascontiguousarray(m) if len(m) <= STACK_LAST_MAX else m


def _broadcast_last(*points):
    """Points or stacks of points, ``(..., rows, cols)`` arrays whose
    leading axes broadcast, as stack-last ``(rows, cols, n)`` operands of
    the cores over the ``n`` entries of the broadcast leading shape, one
    point as a stack of one; and that shape, for :func:`_stack_first`."""
    lead = np.broadcast_shapes(*(m.shape[:-2] for m in points))
    return [m[..., None] if m.ndim == 2 else
            np.broadcast_to(m, lead + m.shape[-2:])
            .reshape((-1,) + m.shape[-2:]).transpose(1, 2, 0)
            for m in points], lead


def _stack_first(value: np.ndarray, lead: tuple):
    """A core's stack-last ``(n,)`` values or ``(rows, cols, n)`` points
    in the leading shape ``lead`` of :func:`_broadcast_last`; one value
    comes back as a numpy scalar."""
    if value.ndim > 1:
        return value.transpose(2, 0, 1).reshape(lead + value.shape[:2])
    return value.reshape(lead)[()]


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a^-1 b`` for general square ``a`` and matching ``b`` in the
    stack-last layout, ``(d, d, ...)`` and ``(d, c, ...)`` with the same
    stack axes, or a stack of one in ``a``: the chart images'
    denominators ``A^T + Z B^T`` and the Pade steps' ``M + (i/2) K``,
    which are not Hermitian.  It works in place on operands of one
    complex dtype that the caller no longer needs: ``b``, returned, holds
    the solution and the elimination leaves its factors in ``a``; only
    LAPACK returns a new array, a transposed view of a stack-first one.

    ``b / a`` on 1 x 1 and the adjugate over the determinant on 2 x 2.
    From 3 x 3 up to ``STACK_LAST_MAX``, a stack whose every member
    is strictly column diagonally dominant, ``|a_jj| > sum_(i != j)
    |a_ij|``, goes to Gaussian elimination without pivoting over whole
    rows (``_eliminate``).  On such matrices partial pivoting would make
    no interchanges and the growth factor is at most 2 (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2nd ed., 9.5), so
    the elimination is as stable as LAPACK's pivoted LU.  The Pade
    denominator ``I - K^2/12 + (i/2) K`` of a Magnus step is dominant
    whenever ``||K||_1 <= 1``, and a chart denominator while ``U`` is
    near the identity and ``Z`` near the origin.  Any other stack, one
    non-dominant member being enough (a coarse step, whose ``K^2/12``
    can cancel a diagonal entry of ``I``), and every larger one go to
    ``np.linalg.solve`` (LU with partial pivoting) through transposed
    views.  A 3 x 3 adjugate solve had several times LAPACK's backward
    error on matrices ``I - Z Z^dag`` near the boundary, so the Hermitian
    positive-definite solves take :func:`_hpd_solve`, which hands its
    1 x 1 and 2 x 2 ones to this function."""
    n = len(a)
    if n == 1:
        return np.divide(b, a, out=b)
    if n == 2:
        x0 = a[1, 1] * b[0]
        x0 -= a[0, 1] * b[1]
        np.multiply(a[0, 0], b[1], out=b[1])
        b[1] -= a[1, 0] * b[0]
        b[0] = x0
        b /= a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        return b
    if n <= STACK_LAST_MAX:
        mag = np.abs(a)
        diagonal = mag.reshape(n * n, *mag.shape[2:])[::n + 1]
        dominant = np.all(2.0 * diagonal > mag.sum(axis=0))
        del mag, diagonal
        if dominant:
            return _eliminate(a, b)
    stack = tuple(range(2, a.ndim))
    x = np.linalg.solve(a.transpose(*stack, 0, 1), b.transpose(*stack, 0, 1))
    return x.transpose(-2, -1, *range(x.ndim - 2))


def _eliminate(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a^-1 b`` on the layout of :func:`_solve` by Gaussian elimination
    without pivoting (:func:`_ldl`), each operation over whole stacks of
    one entry: a forward substitution and a back substitution with the
    upper triangle the elimination leaves, in place as in :func:`_solve`.
    Stable only on the dominant stacks that :func:`_solve` sends here."""
    x = _forward(_ldl(a)[0], b)
    n = len(a)
    for k in reversed(range(n)):
        for j in range(k + 1, n):
            x[k] -= a[k, j] * x[j]
        x[k] /= a[k, k]
    return x


def _kernel(spec: ManifoldSpec, z: np.ndarray, w: np.ndarray):
    """:func:`kernel` on stack-last ``(rows, cols, n)`` chart arrays that
    already passed the chart rules, a stack of one on either side
    broadcasting, as an ``(n,)`` array."""
    sign = spec.sign
    w_dag = w.conj().swapaxes(0, 1)
    if spec.family is Family.BDI:
        zz = _mm_last(z, z.swapaxes(0, 1))[0, 0]
        ww = _mm_last(w, w.swapaxes(0, 1))[0, 0]
        zw = _mm_last(z, w_dag)[0, 0]
        return 1.0 + zz * np.conj(ww) + sign * 2.0 * zw
    if len(z[0]) < len(z):
        # Sylvester: det(I_p + s Z W^dag) = det(I_q + s W^dag Z).  On the
        # smaller side a large rank-one Z W^dag does not cancel to zero.
        return _det(np.eye(len(z[0]))[..., None] + sign * _mm_last(w_dag, z))
    return _det(np.eye(len(z))[..., None] + sign * _mm_last(z, w_dag))


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
    (z, w), lead = _broadcast_last(validate_points(spec, z),
                                   validate_points(spec, w))
    with np.errstate(over="ignore", invalid="ignore"):
        value = _kernel(spec, z, w)
    _require_finite(value)
    return _stack_first(value, lead)


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
    with equality exactly on the diagonal, where the value is 1 up to an
    imaginary part of an ulp that rounding may leave in ``K(z, conj(z))``.
    It is the ``level``-th power of the level-one ratio of
    :func:`_overlap`, whose kernels are scaled by one power of two, so far
    points (|z| past about 1e77 on CP1, where ``K(z, conj(z))
    K(w, conj(w))`` overflows, and far sooner for the level-th powers)
    keep their overlaps.  Past |z| ~ 1e154 on CP1 the kernels themselves
    overflow, and it raises ``OverflowError`` as :func:`kernel` does.
    Broadcasts as :func:`kernel`.
    """
    lam = _check_single_level(level)
    (z, w), lead = _broadcast_last(validate_points(spec, z),
                                   validate_points(spec, w))
    re, im = _overlap(spec, z, w)
    return _stack_first((re + 1j * im) ** lam, lead)


def projective_distance(spec: ManifoldSpec, z, w):
    """Chart-invariant separation of two rays, zero only on equal rays.

    Compact specs use ``arccos`` of the clamped level-one overlap modulus;
    non-compact specs, where the overlap modulus is >= 1, use ``arccosh``.
    Broadcasts as :func:`kernel`, and raises ``OverflowError`` as it does.
    """
    (z, w), lead = _broadcast_last(validate_points(spec, z),
                                   validate_points(spec, w))
    return _stack_first(_distance(spec, z, w), lead)


def _overlap(spec: ManifoldSpec, z: np.ndarray, w: np.ndarray):
    """The level-one overlap ``K(z, conj(w)) / sqrt(K(z, conj(z))
    K(w, conj(w)))`` on the arrays of :func:`_kernel`, as its real and
    imaginary parts.  Past |z| ~ 1e154 on CP1 the kernels themselves
    overflow, and it raises ``OverflowError`` as :func:`kernel` does."""
    with np.errstate(over="ignore", invalid="ignore"):
        kzz, kww = _kernel(spec, z, z).real, _kernel(spec, w, w).real
        k = _kernel(spec, z, w)
    _require_finite(kzz, kww, k)
    # Far from the origin K(z, z) K(w, w) overflows (past |z| ~ 1e77 on
    # CP1).  One power of two from the larger diagonal kernel scales all
    # three kernels exactly, so the ratio is unchanged wherever the
    # unscaled product is finite, and its real part is exactly 1 on the
    # diagonal, where d(z, z) stays exactly zero.
    _, e = np.frexp(np.maximum(kzz, kww))
    norm = np.sqrt(np.ldexp(kzz, -e) * np.ldexp(kww, -e))
    # Dividing each part by the real norm keeps the modulus of a scalar
    # complex division; numpy's complex division rounds differently, and
    # near a zero distance arccos magnifies such last-bit changes ~1e8-fold.
    return np.ldexp(k.real, -e) / norm, np.ldexp(k.imag, -e) / norm


def _distance(spec: ManifoldSpec, z: np.ndarray, w: np.ndarray):
    """:func:`projective_distance` on the arrays of :func:`_kernel`, from
    the modulus of :func:`_overlap`."""
    mag = np.hypot(*_overlap(spec, z, w))
    if spec.compact:
        return np.arccos(np.minimum(1.0, mag))
    return np.arccosh(np.maximum(1.0, mag))
