import math

import numpy as np
import pytest

from kphase import (
    BoundaryTooClose,
    Family,
    ManifoldSpec,
    connection_eval,
    coordinate_basis,
    cp1,
    gradient,
    metric,
    positivity_check,
    potential,
    random_point,
    sample,
)

from finite_difference import fd_gradient

FAMILY_SPECS = [
    spec
    for compact in (True, False)
    for spec in (
        ManifoldSpec(Family.AIII, 3, 2, compact),
        ManifoldSpec(Family.CI, 2, 1, compact),
        ManifoldSpec(Family.DIII, 3, 1, compact),
        ManifoldSpec(Family.BDI, 3, 1, compact),
    )
]


def test_coordinate_basis_counts():
    for spec in (
        cp1(),
        ManifoldSpec(Family.AIII, 3, 2),
        ManifoldSpec(Family.CI, 3),
        ManifoldSpec(Family.DIII, 3),
        ManifoldSpec(Family.BDI, 4),
    ):
        basis = coordinate_basis(spec)
        assert len(basis) == spec.complex_dimension
        for b in basis:
            assert b.shape == spec.point_shape


def test_basis_symmetry_classes():
    for b in coordinate_basis(ManifoldSpec(Family.CI, 3)):
        assert np.array_equal(b, b.T)
    for b in coordinate_basis(ManifoldSpec(Family.DIII, 3)):
        assert np.array_equal(b, -b.T)


def test_potential_values():
    spec = cp1()
    assert potential(spec, 1, 1.0) == pytest.approx(math.log(2.0), abs=1e-14)
    assert potential(spec, 3, 1.0) == pytest.approx(
        3.0 * math.log(2.0), abs=1e-14
    )
    assert potential(spec, 2, 0.0) == 0.0
    nc = cp1(compact=False)
    assert potential(nc, 1, 0.5) == pytest.approx(
        0.2876820724517809, abs=1e-14
    )


def test_gradient_cp1_closed_form(rng):
    spec = cp1()
    for level in (1, 2):
        for _ in range(10):
            z = complex(*rng.standard_normal(2)) * 0.7
            g = gradient(spec, level, z)
            expected = level * np.conj(z) / (1.0 + abs(z) ** 2)
            assert abs(g[0] - expected) < 1e-8


@pytest.mark.parametrize("spec", FAMILY_SPECS, ids=str)
def test_gradient_closed_form_matches_central_differences(spec, rng):
    for level in (1, 3):
        for _ in range(3):
            z = random_point(spec, rng, scale=0.5)
            assert np.max(np.abs(
                gradient(spec, level, z) - fd_gradient(spec, level, z))) < 1e-8


def test_gradient_vanishes_at_origin():
    for spec in (cp1(), ManifoldSpec(Family.CI, 2)):
        g = gradient(spec, 2, np.zeros(spec.point_shape))
        assert np.max(np.abs(g)) < 1e-10


def test_metric_cp1_origin():
    h = metric(cp1(), 1, 0.0)
    assert h.shape == (1, 1)
    assert abs(h[0, 0] - 1.0) < 1e-7
    h3 = metric(cp1(), 3, 0.0)
    assert abs(h3[0, 0] - 3.0) < 1e-6


def test_metric_cp2_closed_form():
    # rank-one projective space of complex dimension 2, column chart
    spec = ManifoldSpec(Family.AIII, 2, 1)
    z = np.array([[0.3 + 0.1j], [0.2 - 0.4j]])
    level = 2
    h = metric(spec, level, z)
    v = z.reshape(-1)
    s = 1.0 + float(np.real(np.vdot(v, v)))
    exact = level * (np.eye(2) * s - np.outer(np.conj(v), v)) / s**2
    assert np.max(np.abs(h - exact)) < 1e-6
    assert np.max(np.abs(h - h.conj().T)) == 0.0


def test_metric_positive_definite(rng):
    for spec in (
        cp1(),
        ManifoldSpec(Family.CI, 2),
        ManifoldSpec(Family.BDI, 3, compact=False),
    ):
        z = random_point(spec, rng, scale=0.3)
        report = positivity_check(spec, 1, z)
        assert report
        assert report.min_eigenvalue > 0.0


def test_metric_near_boundary_raises():
    nc = cp1(compact=False)
    with pytest.raises(BoundaryTooClose):
        metric(nc, 1, 0.99995)


def test_connection_eval_linearity(rng):
    spec = ManifoldSpec(Family.AIII, 2, 2)
    z = random_point(spec, rng, scale=0.4)
    d1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    d2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    a = connection_eval(spec, 1, z, d1)
    b = connection_eval(spec, 1, z, d2)
    both = connection_eval(spec, 1, z, d1 + d2)
    assert both == pytest.approx(a + b, abs=1e-8)


def test_sample_bundle():
    s = sample(cp1(), 2, 0.5)
    assert s.sign == 1
    assert s.potential == pytest.approx(2.0 * math.log(1.25), abs=1e-12)
    assert s.metric.shape == (1, 1)
    s_nc = sample(cp1(compact=False), 2, 0.5)
    assert s_nc.sign == -1
