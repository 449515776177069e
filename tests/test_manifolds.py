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
from kphase.manifolds import _det, _mm, _solve, point_faults

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


def test_random_point_stays_interior(rng):
    for spec in ALL_SPECS:
        for _ in range(40):
            validate_points(spec, random_point(spec, rng))


def _complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("rows, inner, cols", [
    (1, 1, 1), (2, 2, 2), (3, 3, 3), (4, 4, 4), (3, 2, 3), (2, 3, 1)])
@pytest.mark.parametrize("layout", [
    "stack-stack", "one-stack", "stack-one", "broadcast-stack"])
def test_mm_matches_matmul(rng, rows, inner, cols, layout):
    """``_mm`` agrees with ``@`` to 1e-14 of the entries' summed terms,
    on stacks, on one matrix against a stack, and on a stride-0 stack
    (read-only, so a write to an input would raise)."""
    x = _complex(rng, 50, rows, inner)
    y = _complex(rng, 50, inner, cols)
    if layout == "one-stack":
        x = x[0]
    elif layout == "stack-one":
        y = y[0]
    elif layout == "broadcast-stack":
        x = np.broadcast_to(x[0], x.shape)
    got = _mm(x, y)
    assert got.shape == (x @ y).shape
    assert np.all(np.abs(got - x @ y) <= 1e-14 * (np.abs(x) @ np.abs(y)))


def _cond_scaled_gap(got, ref, a):
    """Largest gap of each solution over its size and the condition
    number of its matrix."""
    gap = np.max(np.abs(got - ref), axis=(-2, -1))
    size = np.max(np.abs(ref), axis=(-2, -1))
    return np.max(gap / (size * np.linalg.cond(a)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_solve_matches_lapack(rng, n):
    """``_solve`` agrees with ``np.linalg.solve`` to rounding times the
    condition number, on stacks, on one matrix against a stack of
    right-hand sides, and on 2 x 2 matrices with |det| near 1e-10."""
    a = _complex(rng, 200, n, n)
    b = _complex(rng, 200, n, 3)
    assert _cond_scaled_gap(_solve(a, b), np.linalg.solve(a, b), a) <= 1e-14
    shared = np.linalg.solve(np.broadcast_to(a[0], a.shape), b)
    assert _cond_scaled_gap(_solve(a[0], b), shared, a[:1]) <= 1e-14
    if n == 2:
        u, _, vh = np.linalg.svd(a)
        s = np.stack([np.ones(200), np.full(200, 1e-10)], axis=-1)
        near = (u * s[..., None, :]) @ vh
        det = np.abs(np.linalg.det(near))
        assert np.all((0.5e-10 < det) & (det < 2e-10))
        got, ref = _solve(near, b), np.linalg.solve(near, b)
        assert np.all(np.isfinite(got))
        assert _cond_scaled_gap(got, ref, near) <= 1e-14


@pytest.mark.parametrize("n", [1, 2, 3])
def test_det_is_a_new_array(rng, n):
    """``_det`` matches ``np.linalg.det``, and writing to its input after
    the call leaves the result unchanged."""
    m = _complex(rng, 20, n, n)
    det = _det(m)
    ref = np.linalg.det(m)
    assert np.max(np.abs(det - ref)) <= 1e-14 * np.max(np.abs(ref))
    kept = det.copy()
    m[...] = 7.0
    assert np.array_equal(det, kept)


def test_det_matches_lapack_at_3x3(rng):
    """The closed-form 3 x 3 determinant agrees with LU to 1e-13 of the
    product of the row norms (Hadamard's bound on |det|), on a stack with
    entries spread over twelve orders of magnitude and on one matrix."""
    m = _complex(rng, 500, 3, 3) * 10.0 ** rng.uniform(-6, 6, (500, 3, 1))
    bound = np.prod(np.linalg.norm(m, axis=-1), axis=-1)
    assert np.all(np.abs(_det(m) - np.linalg.det(m)) <= 1e-13 * bound)
    assert abs(_det(m[0]) - np.linalg.det(m[0])) <= 1e-13 * bound[0]


@pytest.mark.parametrize("spec", [
    ManifoldSpec(Family.AIII, 3, 1, False),
    ManifoldSpec(Family.AIII, 3, 2, False),
    ManifoldSpec(Family.CI, 2, 1, False),
    ManifoldSpec(Family.CI, 3, 1, False),
    ManifoldSpec(Family.DIII, 3, 1, False),
], ids=["AIII(3,1)", "AIII(3,2)", "CI(2)", "CI(3)", "DIII(3)"])
def test_domain_check_by_minors_matches_eigvalsh(spec, rng):
    """Up to p = 3 the bounded-domain check reads leading principal minors;
    it accepts and rejects the same points as the smallest eigenvalue of
    I - Z Z^dag, on points scaled to spectral norm 1 -/+ 1e-9.  On DIII(3)
    two eigenvalues approach zero together there, so ``det`` of the whole
    matrix is a sum of order-one terms that cancel to about 4e-18."""
    points = np.array([random_point(spec, rng) for _ in range(400)])
    norms = np.linalg.norm(points, ord=2, axis=(-2, -1))
    scale = np.where(np.arange(400) % 2 == 0, 1.0 - 1e-9, 1.0 + 1e-9)
    points *= (scale / norms)[:, None, None]
    _, faults = point_faults(spec, points)
    inside, kind, _ = faults[-1]
    assert kind is OutsideDomain
    gram = np.eye(spec.p) - points @ points.conj().swapaxes(-1, -2)
    assert np.array_equal(inside, np.linalg.eigvalsh(gram)[:, 0] > 0.0)
    assert np.array_equal(inside, scale < 1.0)
