"""Acceptance gates.

Each test checks one shipped guarantee at its stated tolerance and reports
a single PASS/FAIL line through the conftest hook.
"""
import math
import time

import numpy as np
import pytest

from kphase import (
    Family,
    HamiltonianSchedule,
    ManifoldSpec,
    bloch_projection,
    coherent_vector,
    cp1,
    dynamical_phase,
    fourier_loop,
    kernel,
    latitude_circle,
    line_integral_phase,
    map_schedule,
    min_orbit,
    normalized_overlap,
    poincare_quotient,
    projective_distance,
    quantum_phases,
    schrodinger_evolve,
    stokes_compare,
    Trajectory,
    trajectory,
    triangle_phase,
    wrap_angle,
)

from finite_difference import random_point

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SPEC = cp1()


def richardson_gamma(level, traj):
    """Two-grid extrapolation of the loop integral; O(dt^4) accurate."""
    g1 = line_integral_phase(SPEC, level, traj)
    g2 = line_integral_phase(SPEC, level, traj.points[::2])
    return (4.0 * g1 - g2) / 3.0


@pytest.fixture(scope="module")
def tilt_runs():
    """Constant third-axis field, unit strength, span pi, three tilts.

    Returns tilt -> (schedule, z0, trajectory, beta, gamma, wall_seconds).
    """
    sched = HamiltonianSchedule.constant([SZ], [1.0])
    # warm the code paths once so the timed runs measure the algorithm,
    # not first-touch allocation
    warm = trajectory(SPEC, 0.5, sched, 0.05, 1e-3)
    dynamical_phase(SPEC, 1, warm, sched)
    line_integral_phase(SPEC, 1, latitude_circle(SPEC, 0.5, 64))
    out = {}
    for theta in (math.pi / 2, math.pi / 3, 0.0):
        z0 = math.tan(theta / 2)
        t0 = time.perf_counter()
        traj = trajectory(SPEC, z0, sched, math.pi, 1e-3)
        # the expectation is constant along these orbits, so a strided
        # trapezoid (endpoint kept) is exact and much cheaper
        ks = list(range(0, len(traj.times), 8))
        if ks[-1] != len(traj.times) - 1:
            ks.append(len(traj.times) - 1)
        sub = Trajectory(
            SPEC,
            np.asarray([traj.times[k] for k in ks]),
            traj.points[ks],
            None,
            traj.cross_check_error,
        )
        beta = dynamical_phase(SPEC, 1, sub, sched)
        gamma = richardson_gamma(1, traj)
        wall = time.perf_counter() - t0
        out[theta] = (sched, z0, traj, beta, gamma, wall)
    return out


def test_criterion_1(tilt_runs):
    _, _, _, beta, gamma, wall = tilt_runs[math.pi / 2]
    assert abs(beta) < 1e-8
    assert abs(gamma - math.pi) < 1e-6
    assert wall < 1.0

    _, _, _, beta, gamma, wall = tilt_runs[0.0]
    assert abs(gamma) < 1e-6
    assert abs(beta - math.pi) < 1e-6
    assert wall < 1.0

    _, _, _, beta, gamma, wall = tilt_runs[math.pi / 3]
    assert abs(beta - math.pi / 2) < 1e-6
    assert abs(gamma - math.pi / 2) < 1e-6
    assert wall < 1.0


def test_criterion_2(rng):
    assert abs(triangle_phase(SPEC, 1, 1.0, 1j) - math.pi / 4) < 1e-12
    cases = (
        (SPEC, 1.5),
        (ManifoldSpec(Family.AIII, 2, 2), 0.7),
        (ManifoldSpec(Family.CI, 2), 0.6),
    )
    for spec, scale in cases:
        for level in (1, 3):
            for _ in range(20):
                z = random_point(spec, rng, scale)
                w = random_point(spec, rng, scale)
                a = triangle_phase(spec, level, z, w)
                b = triangle_phase(spec, level, w, z)
                assert abs(a + b) < 1e-12


def test_criterion_3():
    t0 = time.perf_counter()
    rep = stokes_compare(SPEC, 1, latitude_circle(SPEC, 1.0, 4000))
    assert abs(rep.difference) < 1e-4

    g22 = ManifoldSpec(Family.AIII, 2, 2)
    loop = fourier_loop(g22, np.random.default_rng(0), samples=2000,
                        modes=3, scale=0.5)
    rep = stokes_compare(g22, 1, loop)
    assert abs(rep.difference) < 1e-4
    assert time.perf_counter() - t0 < 10.0


def test_criterion_4():
    rng = np.random.default_rng(3)
    knots = np.round(np.arange(201) * 0.05, 10)
    coeffs = rng.uniform(-0.6, 0.6, size=(201, 3))
    sched = HamiltonianSchedule.from_samples(
        [SX, SY, SZ], np.column_stack([knots, coeffs])
    )
    traj = trajectory(SPEC, 0.0, sched, 10.0, 1e-3)
    # chart propagation against the group-element route
    assert traj.cross_check_error < 1e-6
    for j in (0.5, 1.0, 1.5):
        sj = map_schedule(sched, j)
        straj = schrodinger_evolve(coherent_vector(j, 0.0), sj, 10.0, 1e-3)
        labels = bloch_projection(straj.states, j)
        dists = projective_distance(SPEC, labels[:, None, None], traj.points)
        assert len(dists) == len(traj.times)
        worst = float(np.max(dists))
        assert worst < 1e-6


def test_criterion_5(rng):
    shapes = (
        (Family.AIII, 2, 2),
        (Family.CI, 2, 1),
        (Family.DIII, 3, 1),
        (Family.BDI, 3, 1),
    )
    for family, p, q in shapes:
        for compact in (True, False):
            spec = ManifoldSpec(family, p, q, compact=compact)
            for _ in range(200):
                z = random_point(spec, rng, 0.8)
                w = random_point(spec, rng, 0.8)
                assert abs(kernel(spec, z, w)
                           - np.conj(kernel(spec, w, z))) < 1e-12
                diag = kernel(spec, z, z)
                assert abs(diag.imag) < 1e-12
                assert diag.real > 0.0


def test_criterion_6(rng):
    for j in (0.5, 1.0, 1.5):
        level = int(round(2 * j))
        for _ in range(100):
            z = complex(*rng.uniform(-1.5, 1.5, 2))
            w = complex(*rng.uniform(-1.5, 1.5, 2))
            lhs = np.vdot(coherent_vector(j, z), coherent_vector(j, w))
            rhs = normalized_overlap(SPEC, level, w, z)
            assert abs(lhs - rhs) < 1e-12


def test_criterion_7():
    ones = lambda top: tuple(1 if k % 2 == 0 else 0 for k in range(top + 1))
    for n in (2, 3, 4):
        p = poincare_quotient(f"SU({n + 1})/SU({n})xU(1)")
        assert p.coefficients == ones(2 * n)

    assert poincare_quotient("SU(3)/U(1)xU(1)").coefficients == \
        (1, 0, 2, 0, 2, 0, 1)
    assert poincare_quotient("SU(4)/U(1)xU(1)xU(1)").coefficients == \
        (1, 0, 3, 0, 5, 0, 6, 0, 5, 0, 3, 0, 1)
    assert poincare_quotient("SO(5)/SO(3)xSO(2)").coefficients == \
        (1, 0, 1, 0, 1, 0, 1)
    assert poincare_quotient("SO(5)/SO(2)xSO(2)").coefficients == \
        (1, 0, 2, 0, 2, 0, 2, 0, 1)
    assert poincare_quotient("G2/SU(2)xU(1)").coefficients == ones(10)
    assert poincare_quotient("G2/U(1)xU(1)").coefficients == \
        (1, 0, 2, 0, 2, 0, 2, 0, 2, 0, 2, 0, 1)
    assert poincare_quotient("SU(4)/SU(2)xSU(2)xU(1)").coefficients == \
        (1, 0, 1, 0, 2, 0, 1, 0, 1)

    p = poincare_quotient("F4/C3xSO(2)")
    ref = [0] * 31
    for k in range(0, 23, 2):
        ref[k] += 1
        ref[k + 8] += 1
    assert p.coefficients == tuple(ref)
    assert p.degree == 30

    rows = {
        "A1": (2, "U(1)"),
        "A4": (8, "A3 x U(1)"),
        "B3": (10, "B2 x SO(2)"),
        "C3": (10, "C2 x U(1)"),
        "D4": (12, "D3 x SO(2)"),
        "G2": (10, "A1 x SO(2)"),
        "F4": (30, "C3 x SO(2)"),
        "E6": (32, "D5 x SO(2)"),
        "E7": (54, "E6 x SO(2)"),
        "E8": (114, "E7 x SO(2)"),
    }
    for label, (dim, iso) in rows.items():
        info = min_orbit(label)
        assert (info.dimension, info.isotropy) == (dim, iso)


def test_criterion_8(tilt_runs):
    runs = []
    for theta, (sched, z0, traj, beta, gamma, _) in tilt_runs.items():
        runs.append((0.5, sched, z0, traj, beta, gamma))

    axis_rng = np.random.default_rng(42)
    for j in (1.0, 1.5):
        v = axis_rng.normal(size=3)
        sched = HamiltonianSchedule.constant([SX, SY, SZ],
                                             list(v / np.linalg.norm(v)))
        level = int(round(2 * j))
        traj = trajectory(SPEC, 0.0, sched, math.pi, 1e-3)
        beta = dynamical_phase(SPEC, level, traj, sched)
        gamma = richardson_gamma(level, traj)
        runs.append((j, sched, 0.0, traj, beta, gamma))

    for j, sched, z0, traj, beta, gamma in runs:
        closure = projective_distance(SPEC, traj.points[0], traj.points[-1])
        assert closure < 1e-8
        sj = map_schedule(sched, j)
        straj = schrodinger_evolve(coherent_vector(j, z0), sj, math.pi, 1e-3)
        alpha, _, _ = quantum_phases(straj, sj)
        assert abs(wrap_angle(alpha - beta - gamma)) < 1e-6
