import math

import numpy as np
import pytest

from kphase import (
    DimensionMismatch,
    Family,
    ManifoldSpec,
    OutsideDomain,
    SymmetryViolation,
    cp1,
    kernel,
    normalized_overlap,
    projective_distance,
    validate_points,
)
from kphase.manifolds import (
    STACK_LAST_MAX,
    SYMMETRY_TOL,
    _det,
    _hpd_solve,
    _mm_last,
    _point_faults,
    _solve,
)

from finite_difference import random_point

ALL_SPECS = [
    ManifoldSpec(Family.AIII, 1, 1, True),
    ManifoldSpec(Family.AIII, 2, 2, True),
    ManifoldSpec(Family.AIII, 3, 2, False),
    ManifoldSpec(Family.CI, 2, 1, True),
    ManifoldSpec(Family.CI, 2, 1, False),
    ManifoldSpec(Family.DIII, 3, 1, True),
    ManifoldSpec(Family.DIII, 3, 1, False),
    ManifoldSpec(Family.BDI, 4, 1, True),
    ManifoldSpec(Family.BDI, 4, 1, False),
]


def test_spec_validation():
    with pytest.raises(DimensionMismatch):
        ManifoldSpec(Family.AIII, 1, 2)
    with pytest.raises(DimensionMismatch):
        ManifoldSpec(Family.DIII, 1)
    with pytest.raises(DimensionMismatch):
        ManifoldSpec(Family.CI, 2, 2)
    with pytest.raises(DimensionMismatch):
        ManifoldSpec(Family.BDI, 0)


def test_point_shapes():
    assert cp1().point_shape == (1, 1)
    assert ManifoldSpec(Family.AIII, 3, 2).point_shape == (3, 2)
    assert ManifoldSpec(Family.BDI, 5).point_shape == (1, 5)
    assert ManifoldSpec(Family.CI, 3).point_shape == (3, 3)
    assert ManifoldSpec(Family.DIII, 4).complex_dimension == 6
    assert ManifoldSpec(Family.CI, 3).complex_dimension == 6


def test_validate_scalar_coercion():
    p = validate_points(cp1(), 0.5 + 0.25j)
    assert p.shape == (1, 1)
    assert p[0, 0] == 0.5 + 0.25j
    bdi = ManifoldSpec(Family.BDI, 3)
    assert validate_points(bdi, [0.1, 0.2, 0.3j]).shape == (1, 3)
    column = ManifoldSpec(Family.AIII, 2, 1)
    assert validate_points(column, [0.1, 0.2j]).shape == (2, 1)
    # a higher-dimensional input is a stack, kept in its shape
    stack = np.zeros((2, 3, 1, 3), complex)
    assert validate_points(bdi, stack).shape == (2, 3, 1, 3)
    with pytest.raises(DimensionMismatch):
        validate_points(bdi, np.zeros((2, 3), complex))


def test_validate_symmetry_enforced():
    spec = ManifoldSpec(Family.CI, 2)
    z = np.array([[0.1, 0.2], [0.2 + 5e-13, 0.3]], complex)
    p = validate_points(spec, z)
    assert np.array_equal(p, p.T)
    z_bad = np.array([[0.1, 0.2], [0.4, 0.3]], complex)
    with pytest.raises(SymmetryViolation):
        validate_points(spec, z_bad)

    skew = ManifoldSpec(Family.DIII, 2)
    q = validate_points(skew, np.array([[0, 0.3], [-0.3, 0]], complex))
    assert np.array_equal(q, -q.T)
    assert q[0, 0] == 0.0
    with pytest.raises(SymmetryViolation):
        validate_points(skew, np.array([[0, 0.3], [0.3, 0]], complex))


def test_validate_rejects_non_finite():
    for spec in ALL_SPECS:
        z = np.zeros(spec.point_shape, complex)
        z[0, -1] = np.nan
        with pytest.raises(ValueError):
            validate_points(spec, z)
    with pytest.raises(ValueError):
        validate_points(cp1(compact=False), complex(np.inf, 0.0))


def test_stack_checker_matches_single_point(rng):
    ci = ManifoldSpec(Family.CI, 2)
    inf_row = np.zeros((1, 1), complex)
    inf_row[0, 0] = np.inf
    cases = (
        (ci, np.array([[0.1, 0.2], [0.4, 0.3]], complex), SymmetryViolation),
        (cp1(compact=False), np.array([[1.2]], complex), OutsideDomain),
        (ManifoldSpec(Family.BDI, 2, compact=False),
         np.array([[0.7, 0.7j]]), OutsideDomain),
        (cp1(), inf_row, ValueError),
    )
    for spec, bad, kind in cases:
        with pytest.raises(kind) as single:
            validate_points(spec, bad)
        good = [random_point(spec, rng, 0.5) for _ in range(4)]
        stack = np.stack(good[:2] + [bad] + good[2:])
        with pytest.raises(kind) as stacked:
            validate_points(spec, stack)
        assert str(stacked.value) == str(single.value)
        assert np.array_equal(validate_points(spec, np.stack(good)),
                              np.stack(good))


def test_noncompact_domain():
    nc = cp1(compact=False)
    validate_points(nc, 0.99)
    with pytest.raises(OutsideDomain):
        validate_points(nc, 1.0)
    with pytest.raises(OutsideDomain):
        validate_points(nc, 1.2)


def test_bdi_noncompact_domain_needs_both_conditions():
    spec = ManifoldSpec(Family.BDI, 2, compact=False)
    validate_points(spec, [0.3, 0.2j])
    # z.z small but norm too large: second condition must catch it
    z = np.array([0.7, 0.7j])
    assert abs(z @ z) < 1e-12
    with pytest.raises(OutsideDomain):
        validate_points(spec, z)


def test_kernel_cp1_values():
    spec = cp1()
    assert kernel(spec, 1.0, 1j) == pytest.approx(1.0 - 1.0j, abs=1e-15)
    assert kernel(spec, 0.0, 1.0) == pytest.approx(1.0)
    nc = cp1(compact=False)
    assert kernel(nc, 0.5, 0.5) == pytest.approx(0.75)


def test_kernel_hermiticity_all_families(rng):
    for spec in ALL_SPECS:
        for _ in range(25):
            z = random_point(spec, rng)
            w = random_point(spec, rng)
            a = kernel(spec, z, w)
            b = kernel(spec, w, z)
            assert abs(a - np.conj(b)) < 1e-12
            assert kernel(spec, z, z).real > 0.0
            assert abs(kernel(spec, z, z).imag) < 1e-12


def test_kernel_broadcasts_like_pairwise_calls(rng):
    for spec in ALL_SPECS:
        z = np.array([random_point(spec, rng, 0.4) for _ in range(6)])
        w = np.array([random_point(spec, rng, 0.4) for _ in range(6)])
        stacked = kernel(spec, z, w)
        pairwise = np.array([kernel(spec, a, b) for a, b in zip(z, w)])
        assert stacked.shape == (6,)
        assert np.max(np.abs(stacked - pairwise)) < 1e-14
        # a single point broadcasts against the stack
        to_first = kernel(spec, z, w[0])
        assert np.max(np.abs(
            to_first - [kernel(spec, a, w[0]) for a in z])) < 1e-14
        dist = projective_distance(spec, z, w[0])
        assert np.max(np.abs(
            dist - [projective_distance(spec, a, w[0]) for a in z])) < 1e-14
        overlap = normalized_overlap(spec, 2, z, w)
        assert np.max(np.abs(overlap - [normalized_overlap(spec, 2, a, b)
                                        for a, b in zip(z, w)])) < 1e-14


def test_bdi_kernel_formula(rng):
    spec = ManifoldSpec(Family.BDI, 3)
    z = random_point(spec, rng)[0]
    w = random_point(spec, rng)[0]
    expected = 1.0 + (z @ z) * np.conj(w @ w) + 2.0 * (z @ np.conj(w))
    assert kernel(spec, z, w) == pytest.approx(expected, abs=1e-14)


def test_normalized_overlap_values():
    spec = cp1()
    assert abs(normalized_overlap(spec, 1, 0.0, 1.0)) == pytest.approx(
        1.0 / math.sqrt(2.0), abs=1e-15
    )
    assert abs(normalized_overlap(spec, 2, 0.0, 1.0)) == pytest.approx(
        0.5, abs=1e-15
    )
    assert normalized_overlap(spec, 3, 0.7j, 0.7j) == pytest.approx(1.0)


@pytest.mark.parametrize("spec, far, near", [
    (cp1(), 1e30, 0.6 - 0.3j),
    (cp1(), 1e80, 0.6 - 0.3j),
    (cp1(), 1e150, 0.6 - 0.3j),
    (ManifoldSpec(Family.AIII, 2, 1), [[1e80], [-2e80]], [[0.5], [0.2j]]),
])
def test_normalized_overlap_of_far_points(spec, far, near):
    """Past |z| ~ 1e77 on CP1 the product K(z, z) K(w, w) overflows, and
    the level-th powers of unscaled kernels overflow from far smaller |z|:
    the overlap read 0 on the diagonal, -0 between neighbours on a far
    circle and NaN from |z| = 1e60 at level 3.  Scaled as the distance's
    kernels are, it is exactly 1 on the diagonal of a real far point, its
    modulus is the cosine of the distance, and level 3 is the cube of
    level 1; past |z| ~ 1e154 the kernel overflows."""
    far = np.asarray(far, dtype=complex)
    turn = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 5))
    for level in (1, 3):
        assert normalized_overlap(spec, level, far, far) == 1.0
        # Off the real axis the kernel's rounding may leave K(z, conj(z))
        # an imaginary part of one ulp.
        rotated = normalized_overlap(spec, level, far * turn[1], far * turn[1])
        assert abs(rotated) == 1.0 and abs(rotated - 1.0) <= 1e-15
    pairs = [(far, far * turn[2]), (far * turn[1], far * turn[3]),
             (far, near), (near, far), (far, np.zeros_like(far))]
    for z, w in pairs:
        one = normalized_overlap(spec, 1, z, w)
        three = normalized_overlap(spec, 3, z, w)
        assert np.isfinite(one) and np.isfinite(three)
        assert abs(abs(one) - math.cos(projective_distance(spec, z, w))) <= 1e-15
        assert abs(three - one**3) <= 1e-15
    # one far pair has a phase, and one overlap is neither 0 nor 1
    assert abs(np.angle(normalized_overlap(spec, 1, far, far * turn[2]))) > 1.0
    assert 0.1 < abs(normalized_overlap(spec, 1, far, near)) < 0.99
    for level in (1, 3):
        with pytest.raises(OverflowError, match="kernel"):
            normalized_overlap(spec, level, far * (1e160 / np.abs(far).max()),
                               near)


def test_overlap_level_power(rng):
    for spec in ALL_SPECS:
        z = random_point(spec, rng)
        w = random_point(spec, rng)
        o1 = normalized_overlap(spec, 1, z, w)
        o3 = normalized_overlap(spec, 3, z, w)
        assert o3 == pytest.approx(o1**3, abs=1e-12)


def test_overlap_bounds(rng):
    compact = ManifoldSpec(Family.AIII, 2, 2, True)
    bounded = ManifoldSpec(Family.AIII, 2, 2, False)
    for _ in range(50):
        z, w = random_point(compact, rng), random_point(compact, rng)
        assert abs(normalized_overlap(compact, 1, z, w)) <= 1.0 + 1e-12
        z, w = random_point(bounded, rng), random_point(bounded, rng)
        assert abs(normalized_overlap(bounded, 1, z, w)) >= 1.0 - 1e-12


def test_projective_distance_values():
    spec = cp1()
    assert projective_distance(spec, 0.0, 1.0) == pytest.approx(
        math.pi / 4.0, abs=1e-12
    )
    # far point approaches the antipode of the origin
    d = projective_distance(spec, 0.0, 1000.0)
    assert d == pytest.approx(math.pi / 2.0 - 1e-3, abs=1e-8)
    assert projective_distance(spec, 0.3 + 0.1j, 0.3 + 0.1j) == 0.0


def test_projective_distance_symmetry(rng):
    for spec in ALL_SPECS:
        z, w = random_point(spec, rng), random_point(spec, rng)
        assert projective_distance(spec, z, w) == pytest.approx(
            projective_distance(spec, w, z), abs=1e-12
        )


def test_projective_distance_scaling_changes_no_bit(rng):
    """Scaling the kernels by a power of two leaves every distance whose
    unscaled product K(z, z) K(w, w) is finite bit for bit as it was."""
    for spec in ALL_SPECS:
        z = np.stack([random_point(spec, rng) for _ in range(40)])
        w = np.stack([random_point(spec, rng) for _ in range(40)])
        for a, b in ((z, w), (z, z), (z, w[0])):
            norm = np.sqrt(kernel(spec, a, a).real * kernel(spec, b, b).real)
            k = kernel(spec, a, b)
            mag = np.hypot(k.real / norm, k.imag / norm)
            unscaled = (np.arccos(np.minimum(1.0, mag)) if spec.compact
                        else np.arccosh(np.maximum(1.0, mag)))
            assert np.array_equal(projective_distance(spec, a, b), unscaled)


def test_projective_distance_of_far_points():
    """Past |z| ~ 1e77 on CP1 the product K(z, z) K(w, w) overflows.  The
    rays of far points are then still at distance 0 from themselves and
    from their neighbours on a far circle, whose distance arccos cannot
    resolve, not pi/2, and pi/2 from the origin and from each other on
    perpendicular axes of CP2."""
    z = (1e150 * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 7)))[:, None, None]
    assert np.all(projective_distance(cp1(), z, z) == 0.0)
    assert np.all(projective_distance(cp1(), z[1:], z[:-1]) == 0.0)
    assert np.allclose(projective_distance(cp1(), z, 0.0), math.pi / 2,
                       rtol=0.0, atol=1e-15)
    spec = ManifoldSpec(Family.AIII, 2, 1)
    assert projective_distance(spec, [[1e100], [0.0]],
                               [[0.0], [1e100]]) == pytest.approx(
        math.pi / 2, abs=1e-15)


def test_random_point_stays_interior(rng):
    for spec in ALL_SPECS:
        for _ in range(40):
            validate_points(spec, random_point(spec, rng))


def _complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("rows, inner, cols", [
    (1, 1, 1), (2, 2, 2), (3, 3, 3), (3, 2, 3), (2, 3, 1), (3, 1, 2),
    (4, 4, 4), (5, 5, 5), (4, 6, 3), (9, 9, 1)])
@pytest.mark.parametrize("layout", [
    "stack-stack", "one-stack", "stack-one", "one-one", "transposed",
    "point-stack", "stack-point", "adjoint"])
def test_mm_last_matches_matmul(rng, rows, inner, cols, layout):
    """``_mm_last`` on the stack-last layout agrees with ``@`` on the
    stack-first one to 1e-14 of the entries' summed terms: on two stacks,
    a stack of one on either side (the BLAS product on the left from
    inner dimension 2, the broadcast multiply-add to inner dimension
    ``STACK_LAST_MAX`` and ``np.matmul`` above it otherwise), two stacks
    of one, and a transposed view of a stack.  The public kernel's
    layouts are among them: a 2-D point as a stack of one
    (``point[..., None]``) on the left of a stack and on its right, and
    the adjoint ``w.conj().swapaxes(0, 1)`` of a stack on the right."""
    x = _complex(rng, rows, inner, 40)
    y = _complex(rng, inner, cols, 40)
    if layout == "one-stack":
        x = x[..., :1]
    elif layout == "stack-one":
        y = y[..., :1]
    elif layout == "one-one":
        x, y = x[..., :1], y[..., :1]
    elif layout == "transposed":
        y = _complex(rng, 40, cols, inner).transpose(2, 1, 0)
    elif layout == "point-stack":
        x = _complex(rng, rows, inner)[..., None]
    elif layout == "stack-point":
        y = _complex(rng, inner, cols)[..., None]
    elif layout == "adjoint":
        y = _complex(rng, cols, inner, 40).conj().swapaxes(0, 1)
    got = _mm_last(x, y)
    xf, yf = x.transpose(2, 0, 1), y.transpose(2, 0, 1)
    ref = (xf @ yf).transpose(1, 2, 0)
    bound = (np.abs(xf) @ np.abs(yf)).transpose(1, 2, 0)
    assert got.shape == ref.shape
    assert np.all(np.abs(got - ref) <= 1e-14 * bound)


def _cond_scaled_gap(got, ref, a):
    """Largest gap of each solution over its size and the condition
    number of its matrix."""
    gap = np.max(np.abs(got - ref), axis=(-2, -1))
    size = np.max(np.abs(ref), axis=(-2, -1))
    return np.max(gap / (size * np.linalg.cond(a)))


def _last(m):
    """A stack-first ``(n, rows, cols)`` stack as a stack-last view."""
    return m.transpose(1, 2, 0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_solve_matches_lapack(rng, n):
    """``_solve`` agrees with ``np.linalg.solve`` to rounding times the
    condition number, on stack-last stacks, on one matrix (a stack of
    one) against a stack of right-hand sides, and on 2 x 2 matrices with
    |det| near 1e-10."""
    a = _complex(rng, 200, n, n)
    b = _complex(rng, 200, n, 3)

    def solve(a, b):
        return _solve(_last(a), _last(b)).transpose(2, 0, 1)

    assert _cond_scaled_gap(solve(a, b), np.linalg.solve(a, b), a) <= 1e-14
    shared = np.linalg.solve(np.broadcast_to(a[0], a.shape), b)
    assert _cond_scaled_gap(solve(a[:1], b), shared, a[:1]) <= 1e-14
    if n == 2:
        u, _, vh = np.linalg.svd(a)
        s = np.stack([np.ones(200), np.full(200, 1e-10)], axis=-1)
        near = (u * s[..., None, :]) @ vh
        det = np.abs(np.linalg.det(near))
        assert np.all((0.5e-10 < det) & (det < 2e-10))
        got, ref = solve(near, b), np.linalg.solve(near, b)
        assert np.all(np.isfinite(got))
        assert _cond_scaled_gap(got, ref, near) <= 1e-14


def _pade_pairs(rng, d, n, scale):
    """The Pade pairs ``M + (i/2) K`` and ``M - (i/2) K``,
    ``M = I - K^2/12``, of ``n`` random Hermitian ``d x d`` exponents K
    with ``||K||_1 = scale``, as stack-first stacks: the step matrices'
    denominators and numerators at ``h ||H|| = scale``."""
    k = _complex(rng, n, d, d)
    k = k + k.conj().swapaxes(-1, -2)
    k *= scale / np.abs(k).sum(axis=-2).max(axis=-1)[:, None, None]
    m = np.eye(d) - k @ k / 12.0
    return m + 0.5j * k, m - 0.5j * k


def _count_lapack_solves(monkeypatch):
    """Count the calls of ``np.linalg.solve`` from here on."""
    calls = []
    real = np.linalg.solve

    def counting(a, b):
        calls.append(a.shape)
        return real(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting)
    return calls


@pytest.mark.parametrize("d", range(3, STACK_LAST_MAX + 1))
def test_solve_eliminates_dominant_stacks(d, rng, monkeypatch):
    """Stacks of strictly column diagonally dominant matrices from 3 x 3
    up to ``STACK_LAST_MAX`` are eliminated without pivoting, with no
    LAPACK call, and match ``np.linalg.solve`` to 1e-13 relative: random
    matrices whose diagonal exceeds the rest of its column by 1 % to
    50 %, and Pade denominators at ``h ||H||`` from 1e-4 to 1."""
    a = _complex(rng, 300, d, d)
    mag = np.abs(a).sum(axis=-2) - np.abs(np.diagonal(a, axis1=-2, axis2=-1))
    phase = np.exp(2j * np.pi * rng.random((300, d)))
    a[:, np.arange(d), np.arange(d)] = (
        phase * mag * rng.uniform(1.01, 1.5, (300, d)))
    stacks = [(a, _complex(rng, 300, d, 2))]
    stacks += [_pade_pairs(rng, d, 300, scale)
               for scale in (1e-4, 1e-2, 1.0)]
    calls = _count_lapack_solves(monkeypatch)
    got = [_solve(_last(a), _last(b)).transpose(2, 0, 1) for a, b in stacks]
    assert calls == []
    for (a, b), x in zip(stacks, got):
        ref = np.linalg.solve(a, b)
        gap = np.max(np.abs(x - ref), axis=(-2, -1))
        assert np.all(gap <= 1e-13 * np.max(np.abs(ref), axis=(-2, -1)))


def _backward_error(a, b, x):
    """Normwise backward error ``||b - a x|| / (||a|| ||x|| + ||b||)`` of
    each solution, in infinity norms, with the residual taken in extended
    precision so that its own rounding does not hide the solve's."""
    wide = np.clongdouble
    r = b.astype(wide) - a.astype(wide) @ x.astype(wide)

    def norm(m):
        return np.abs(m).sum(axis=-1).max(axis=-1)

    return (norm(r) / (norm(a) * norm(x) + norm(b))).astype(float)


@pytest.mark.parametrize("d", range(3, STACK_LAST_MAX + 1))
@pytest.mark.parametrize("scale", [1e-4, 1e-3, 1e-2, 1e-1, 1.0])
def test_solve_backward_error_on_pade_steps(d, scale, rng):
    """On Pade denominators at ``h ||H|| = scale`` the elimination's
    largest normwise backward error over a stack is at most twice
    LAPACK's pivoted LU's."""
    a, b = _pade_pairs(rng, d, 500, scale)
    got = _solve(_last(a), _last(b)).transpose(2, 0, 1)
    ours = _backward_error(a, b, got).max()
    lapack = _backward_error(a, b, np.linalg.solve(a, b)).max()
    assert ours <= 2.0 * lapack


@pytest.mark.parametrize("d", range(3, STACK_LAST_MAX + 1))
def test_solve_takes_lapack_on_one_non_dominant_member(d, rng,
                                                       monkeypatch):
    """One coarse step in a stack of fine ones: with ``K`` the symmetric
    matrix whose first row and column hold ``sqrt(12 / (d - 1))`` off the
    diagonal, ``(K^2)_00 = 12`` and the Pade denominator's first diagonal
    entry ``1 - (K^2)_00 / 12`` is zero (to rounding), so its first
    column is not dominant.  The whole stack goes to LAPACK, once, and
    every step is finite, matches ``np.linalg.solve`` and is unitary to
    1e-12.  Without the dominance test the elimination would divide by
    that zero pivot."""
    a, b = _pade_pairs(rng, d, 64, 1e-2)
    k = np.zeros((d, d))
    k[0, 1:] = k[1:, 0] = math.sqrt(12.0 / (d - 1))
    m = np.eye(d) - k @ k / 12.0
    assert abs(m[0, 0]) <= 1e-15
    a[17], b[17] = m + 0.5j * k, m - 0.5j * k
    calls = _count_lapack_solves(monkeypatch)
    got = _solve(_last(a), _last(b)).transpose(2, 0, 1)
    assert calls == [(64, d, d)]
    assert np.all(np.isfinite(got))
    ref = np.linalg.solve(a, b)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    drift = got.conj().swapaxes(-1, -2) @ got - np.eye(d)
    assert np.max(np.linalg.norm(drift, 2, axis=(-2, -1))) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_det_is_a_new_array(rng, n):
    """``_det`` on a stack-last stack matches ``np.linalg.det`` on the
    stack-first one (closed forms to 3 x 3, LU above), and writing to its
    input after the call leaves the result unchanged."""
    m = _complex(rng, 20, n, n)
    last = np.ascontiguousarray(_last(m))
    det = _det(last)
    ref = np.linalg.det(m)
    assert det.shape == (20,)
    assert np.max(np.abs(det - ref)) <= 1e-14 * np.max(np.abs(ref))
    assert abs(_det(m[0]) - ref[0]) <= 1e-14 * abs(ref[0])
    kept = det.copy()
    last[...] = 7.0
    assert np.array_equal(det, kept)


def test_det_matches_lapack_at_3x3(rng):
    """The closed-form 3 x 3 determinant agrees with LU to 1e-13 of the
    product of the row norms (Hadamard's bound on |det|), on a stack-last
    stack with entries spread over twelve orders of magnitude and on one
    matrix."""
    m = _complex(rng, 500, 3, 3) * 10.0 ** rng.uniform(-6, 6, (500, 3, 1))
    bound = np.prod(np.linalg.norm(m, axis=-1), axis=-1)
    assert np.all(np.abs(_det(_last(m)) - np.linalg.det(m)) <= 1e-13 * bound)
    assert abs(_det(m[0]) - np.linalg.det(m[0])) <= 1e-13 * bound[0]


@pytest.mark.parametrize("spec", [
    ManifoldSpec(Family.AIII, 3, 1, False),
    ManifoldSpec(Family.AIII, 3, 2, False),
    ManifoldSpec(Family.AIII, 4, 2, False),
    ManifoldSpec(Family.CI, 2, 1, False),
    ManifoldSpec(Family.CI, 3, 1, False),
    ManifoldSpec(Family.CI, 4, 1, False),
    ManifoldSpec(Family.DIII, 3, 1, False),
    ManifoldSpec(Family.DIII, 4, 1, False),
    ManifoldSpec(Family.DIII, 5, 1, False),
], ids=["AIII(3,1)", "AIII(3,2)", "AIII(4,2)", "CI(2)", "CI(3)", "CI(4)",
        "DIII(3)", "DIII(4)", "DIII(5)"])
@pytest.mark.parametrize("gap", [1e-9, 1e-12])
def test_domain_check_by_pivots_matches_eigvalsh(spec, gap, rng):
    """The bounded-domain check reads the Cholesky pivots of I - Z Z^dag;
    it accepts and rejects the same points as the smallest eigenvalue of
    I - Z Z^dag, on points scaled to spectral norm 1 -/+ ``gap``.  On skew
    points two eigenvalues approach zero together there, so ``det`` of
    the whole matrix is a sum of order-one terms that cancel to about
    ``gap^2``."""
    points = np.array([random_point(spec, rng) for _ in range(400)])
    norms = np.linalg.norm(points, ord=2, axis=(-2, -1))
    scale = np.where(np.arange(400) % 2 == 0, 1.0 - gap, 1.0 + gap)
    points *= (scale / norms)[:, None, None]
    _, faults = _point_faults(spec, points.transpose(1, 2, 0),
                              SYMMETRY_TOL)
    inside, kind, _ = faults[-1]
    assert kind is OutsideDomain
    gram = np.eye(spec.p) - points @ points.conj().swapaxes(-1, -2)
    assert np.array_equal(inside, np.linalg.eigvalsh(gram)[:, 0] > 0.0)
    assert np.array_equal(inside, scale < 1.0)


def _boundary_points(spec, rng, k):
    """400 chart points of spectral norm 1 - 10^-k."""
    points = np.array([random_point(spec, rng) for _ in range(400)])
    norms = np.linalg.norm(points, ord=2, axis=(-2, -1))
    return points * ((1.0 - 10.0 ** -k) / norms)[:, None, None]


def _backward_residual(a, x, b):
    """Largest normwise backward residual ``|b - a x| / (|a| |x| + |b|)``
    (spectral norms) over a stack."""
    norm = lambda m: np.linalg.norm(m, ord=2, axis=(-2, -1))
    return np.max(norm(b - a @ x) / (norm(a) * norm(x) + norm(b)))


@pytest.mark.parametrize("spec", [
    ManifoldSpec(Family.AIII, 3, 2, False),
    ManifoldSpec(Family.CI, 2, 1, False),
    ManifoldSpec(Family.DIII, 3, 1, False),
    ManifoldSpec(Family.DIII, 4, 1, False),
    ManifoldSpec(Family.DIII, 6, 1, False),
], ids=["AIII(3,2)", "CI(2)", "DIII(3)", "DIII(4)", "DIII(6)"])
@pytest.mark.parametrize("k", [3, 6, 9, 12])
def test_ldl_near_boundary_backward_error(spec, k, rng):
    """The solve with I - Z Z^dagger (from 3 x 3 up an LDL^dagger
    elimination without pivoting and one refinement step, the adjugate on
    2 x 2) stays backward stable up to the boundary: at spectral norm
    1 - 10^-k its normwise backward residual is at most twice that of
    LAPACK's pivoted LU, on stacks and on one matrix.  Without the
    refinement step the elimination reached 2 to 20 times LU's on
    DIII(4) and DIII(6), and 10 times on CI(2); the 3 x 3 adjugate solve
    tried before had about six times LU's.  The stack goes in stack-last,
    the layout of the gradient."""
    z = _boundary_points(spec, rng, k)
    a = np.eye(spec.p) - z @ z.conj().swapaxes(-1, -2)
    got = _hpd_solve(_last(a), _last(z)).transpose(2, 0, 1)
    lapack = _backward_residual(a, np.linalg.solve(a, z), z)
    assert _backward_residual(a, got, z) <= 2.0 * lapack
    one = _hpd_solve(a[0], z[0])
    assert _backward_residual(a[:1], one[None], z[:1]) <= 2.0 * lapack


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("x", [1e8, 1e9])
def test_kernel_on_the_smaller_side(p, x):
    """The AIII kernel of a large rank-one point is taken on the q x q
    side, det(I_q + W^dag Z), where the p x p determinant cancelled to
    zero: within 1e-15 of 1 + 2 x^2, and the point is at distance 0 from
    itself (NaN before)."""
    spec = ManifoldSpec(Family.AIII, p, 1)
    z = np.zeros((p, 1))
    z[:2] = x
    want = 1.0 + 2.0 * x * x
    assert abs(kernel(spec, z, z) - want) <= 1e-15 * want
    assert projective_distance(spec, z, z) == 0.0
