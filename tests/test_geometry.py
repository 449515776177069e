import math

import numpy as np
import pytest

from kphase import (
    Family,
    ManifoldSpec,
    coordinate_basis,
    cp1,
    gradient,
    metric,
    potential,
)

from finite_difference import fd_gradient, fd_metric, random_point

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


def test_basis_order():
    """Unit entries in reading order; CI's diagonal units come before its
    pairs, so the metric's entries keep their places."""
    def units(spec):
        return [sorted(zip(*np.nonzero(b))) for b in coordinate_basis(spec)]

    assert units(ManifoldSpec(Family.AIII, 3, 2)) == [
        [(i, j)] for i in range(3) for j in range(2)]
    assert units(ManifoldSpec(Family.BDI, 3)) == [[(0, j)] for j in range(3)]
    pairs = [[(0, 1), (1, 0)], [(0, 2), (2, 0)], [(1, 2), (2, 1)]]
    assert units(ManifoldSpec(Family.CI, 3)) == [
        [(0, 0)], [(1, 1)], [(2, 2)]] + pairs
    assert units(ManifoldSpec(Family.DIII, 3)) == pairs


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


def components(spec, G) -> np.ndarray:
    """Basis components ``sum(G * B_mu)`` of a gradient matrix."""
    return np.array([np.sum(G * b) for b in coordinate_basis(spec)])


def test_gradient_cp1_closed_form(rng):
    spec = cp1()
    for level in (1, 2):
        for _ in range(10):
            z = complex(*rng.standard_normal(2)) * 0.7
            g = components(spec, gradient(spec, level, z))
            expected = level * np.conj(z) / (1.0 + abs(z) ** 2)
            assert abs(g[0] - expected) < 1e-8


@pytest.mark.parametrize("spec", FAMILY_SPECS, ids=str)
def test_gradient_closed_form_matches_central_differences(spec, rng):
    for level in (1, 3):
        for _ in range(3):
            z = random_point(spec, rng, scale=0.5)
            assert np.max(np.abs(components(spec, gradient(spec, level, z))
                                 - fd_gradient(spec, level, z))) < 1e-8


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
        assert np.min(np.linalg.eigvalsh(metric(spec, 1, z))) > 0.0


@pytest.mark.parametrize("spec", FAMILY_SPECS, ids=str)
def test_metric_closed_form_matches_stencil(spec, rng):
    for level in (1, 3):
        for _ in range(3):
            z = random_point(spec, rng, scale=0.3)
            h = metric(spec, level, z)
            gap = np.max(np.abs(h - fd_metric(spec, level, z)))
            assert gap < 1e-5 * np.max(np.abs(h))


def test_metric_disk_near_boundary():
    # Closer to the boundary than the step of fd_metric, 1e-4.
    r = 0.99995
    for level in (1, 3):
        h = metric(cp1(compact=False), level, r)
        assert h.shape == (1, 1)
        assert h[0, 0] == pytest.approx(level / (1.0 - r * r) ** 2, rel=1e-9)


@pytest.mark.parametrize("spec", FAMILY_SPECS, ids=str)
def test_gradient_and_potential_broadcast_over_stacks(spec, rng):
    zs = np.array([[random_point(spec, rng, 0.4) for _ in range(3)]
                   for _ in range(2)])
    g = gradient(spec, 2, zs)
    f = potential(spec, 2, zs)
    assert g.shape == zs.shape and f.shape == (2, 3)
    for i in range(2):
        for k in range(3):
            assert np.max(np.abs(g[i, k] - gradient(spec, 2, zs[i, k]))) < 1e-14
            assert f[i, k] == pytest.approx(potential(spec, 2, zs[i, k]),
                                            abs=1e-14)
