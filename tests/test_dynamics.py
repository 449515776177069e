import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kphase import (
    ChartOverflow,
    CrossCheckFailure,
    DimensionMismatch,
    Family,
    HamiltonianSchedule,
    ManifoldSpec,
    NoCycleFound,
    ScheduleGap,
    SymmetryViolation,
    UnsupportedFamily,
    block_split,
    clip_trajectory,
    cp1,
    expectation,
    find_cycle,
    map_schedule,
    projective_distance,
    propagate,
    ray_distances,
    riccati_rhs,
    schrodinger_evolve,
    trajectory,
    validate_points,
)
import kphase.dynamics
import kphase.geometry
import kphase.phases
from kphase.dynamics import (
    CROSS_CHECK_TOL,
    STATIONARY_TOL,
    CycleInfo,
    _blocks,
    _rk4_step,
    defining_dimension,
)

from finite_difference import (
    expm_hermitian_generator,
    fd_expectation,
    metric_length,
    mobius_act,
    random_point,
    stepwise_run,
)

SX = np.array([[0.0, 1.0], [1.0, 0.0]], complex)
SY = np.array([[0.0, -1j], [1j, 0.0]], complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], complex)


def sp_compatible_generator(rng, p, family):
    """Defining-representation Hermitian matrix preserving the chart symmetry.

    Top-left block Hermitian, off-diagonal block symmetric (CI) or skew
    (DIII), bottom-right minus the transpose of the top-left.
    """
    a = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
    P = (a + a.conj().T) / 2.0
    b = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
    Q = (b + b.T) / 2.0 if family is Family.CI else (b - b.T) / 2.0
    top = np.hstack([P, Q])
    bottom = np.hstack([Q.conj().T, -P.T])
    return np.vstack([top, bottom])


def test_schedule_constant_and_sampled():
    sched = HamiltonianSchedule.constant([SX, SZ], [0.5, 2.0])
    H = sched(123.4)
    assert np.allclose(H, 0.5 * SX + 2.0 * SZ)
    assert sched.covers(-5.0, 5.0)

    sampled = HamiltonianSchedule.from_samples(
        [SX], [[0.0, 1.0], [1.0, 3.0], [2.0, 5.0]]
    )
    assert np.allclose(sampled(0.5), 2.0 * SX)
    assert np.allclose(sampled(2.0), 5.0 * SX)
    with pytest.raises(ScheduleGap):
        sampled(2.5)
    with pytest.raises(ScheduleGap):
        HamiltonianSchedule.from_samples([SX], [[0.0, 1.0], [0.0, 2.0]])


def test_schedule_hermitizes_and_rejects():
    near = SX + 1e-14 * 1j * np.eye(2)
    sched = HamiltonianSchedule.constant([near], [1.0])
    H = sched(0.0)
    assert np.array_equal(H, H.conj().T)
    with pytest.raises(SymmetryViolation):
        HamiltonianSchedule.constant([SX + 0.01j * np.eye(2)], [1.0])
    with pytest.raises(ValueError):
        HamiltonianSchedule.constant([SX * np.nan], [1.0])
    with pytest.raises(ValueError):
        HamiltonianSchedule.constant([SX], [np.inf])
    with pytest.raises(ValueError):
        HamiltonianSchedule.from_samples([SX], [[0.0, 1.0], [np.nan, 1.0]])


@pytest.mark.parametrize("build", [
    lambda: HamiltonianSchedule.constant([], []),
    lambda: HamiltonianSchedule.from_samples([], [[0.0], [1.0]]),
    lambda: HamiltonianSchedule.constant([SZ, np.eye(3)], [1.0, 1.0]),
    lambda: HamiltonianSchedule.from_samples(
        [SZ, np.eye(3)], [[0.0, 1.0, 1.0], [1.0, 0.5, 0.5]]),
    lambda: HamiltonianSchedule.constant([np.ones((2, 3))], [1.0]),
], ids=["constant-empty", "sampled-empty", "constant-mixed",
        "sampled-mixed", "non-square"])
def test_schedule_needs_square_generators_of_one_shape(build):
    with pytest.raises(DimensionMismatch):
        build()


def test_schedule_strength_and_json():
    sched = HamiltonianSchedule.from_samples(
        [SX, SZ], [[0.0, 1.0, 0.0], [1.0, 0.0, -2.0]]
    )
    assert sched.strength() == pytest.approx(2.0)
    again = HamiltonianSchedule.from_json(sched.to_json())
    assert np.allclose(again(0.25), sched(0.25))
    const = HamiltonianSchedule.constant([SZ], [3.0])
    assert np.allclose(
        HamiltonianSchedule.from_json(const.to_json())(9.9), const(9.9)
    )


def test_block_split():
    spec = ManifoldSpec(Family.AIII, 2, 1)
    H = np.arange(9.0).reshape(3, 3) + 0j
    a, b, c, d = block_split(H, spec)
    assert a.shape == (2, 2) and b.shape == (2, 1)
    assert c.shape == (1, 2) and d.shape == (1, 1)
    with pytest.raises(UnsupportedFamily):
        block_split(np.eye(4, dtype=complex), ManifoldSpec(Family.BDI, 2))
    with pytest.raises(DimensionMismatch):
        block_split(np.eye(5, dtype=complex), spec)


@pytest.mark.parametrize("spec", [cp1(), ManifoldSpec(Family.AIII, 2, 1),
                                  ManifoldSpec(Family.CI, 2),
                                  ManifoldSpec(Family.BDI, 3)], ids=str)
def test_trajectory_and_metric_take_one_point(spec):
    """``validate_points`` accepts stacks, so ``trajectory`` and
    ``metric`` coerce their point to the chart's shape first: a stack of
    one or two points raises ``DimensionMismatch``, not an error from
    inside the flow or the metric."""
    for lead in ((1,), (2,)):
        z = np.zeros(lead + spec.point_shape)
        with pytest.raises(DimensionMismatch):
            kphase.geometry.metric(spec, 1, z)
        if spec.family is not Family.BDI:
            sched = HamiltonianSchedule.constant(
                [np.eye(defining_dimension(spec))], [1.0])
            with pytest.raises(DimensionMismatch):
                trajectory(spec, z, sched, 1.0, 0.1)


def test_mobius_diagonal_flow():
    spec = cp1()
    t = 0.3
    U = np.diag([np.exp(-1j * t), np.exp(1j * t)])
    z = 0.4 - 0.2j
    out = mobius_act(spec, U, z)
    assert out[0, 0] == pytest.approx(
        z * np.exp(2j * t), abs=1e-14
    )


def test_mobius_quarter_turn_reaches_unit_circle():
    spec = cp1()
    U = expm_hermitian_generator(SX, math.pi / 4.0)
    out = mobius_act(spec, U, 0.0)
    assert abs(out[0, 0]) == pytest.approx(1.0, abs=1e-12)
    assert out[0, 0] == pytest.approx(-1j, abs=1e-12)


def test_mobius_half_turn_overflows():
    spec = cp1()
    U = expm_hermitian_generator(SX, math.pi / 2.0)
    with pytest.raises(ChartOverflow):
        mobius_act(spec, U, 0.0)


def test_mobius_left_action_composition(rng):
    for spec in (
        ManifoldSpec(Family.AIII, 2, 2),
        ManifoldSpec(Family.CI, 2),
        ManifoldSpec(Family.DIII, 2),
    ):
        n = 2 * spec.p if spec.family is not Family.AIII else spec.p + spec.q
        if spec.family is Family.AIII:
            h1 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            h1 = (h1 + h1.conj().T) / 2.0
            h2 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            h2 = (h2 + h2.conj().T) / 2.0
        else:
            h1 = sp_compatible_generator(rng, spec.p, spec.family)
            h2 = sp_compatible_generator(rng, spec.p, spec.family)
        U1 = expm_hermitian_generator(h1, 0.2)
        U2 = expm_hermitian_generator(h2, 0.15)
        z = random_point(spec, rng, scale=0.3)
        one = mobius_act(spec, U2, mobius_act(spec, U1, z), symmetry_tol=1e-9)
        two = mobius_act(spec, U2 @ U1, z, symmetry_tol=1e-9)
        assert np.max(np.abs(one - two)) < 1e-10


def test_riccati_rhs_values():
    spec = cp1()
    z = validate_points(spec, 0.5)
    rz = riccati_rhs(spec, SZ, z)
    assert rz[0, 0] == pytest.approx(2j * 0.5, abs=1e-15)
    r0 = riccati_rhs(spec, SX, np.zeros((1, 1), complex))
    assert r0[0, 0] == pytest.approx(-1j, abs=1e-15)


@pytest.mark.parametrize("spec", [
    cp1(), ManifoldSpec(Family.AIII, 3, 2), ManifoldSpec(Family.CI, 2),
    ManifoldSpec(Family.DIII, 3, compact=False)],
    ids=["CP1", "AIII(3,2)", "CI(2)", "DIII(3)-noncompact"])
def test_riccati_rhs_broadcasts_like_a_loop(rng, spec):
    """``riccati_rhs`` on stacks of H, of Z, or both, with their leading
    axes broadcast, is the per-matrix ``-i (C^T + Z D^T - A^T Z - Z B^T
    Z)`` at every index."""
    p, q = spec.point_shape
    d = p + q
    hs = rng.standard_normal((4, 1, d, d)) + 1j * rng.standard_normal(
        (4, 1, d, d))
    hs = hs + hs.conj().swapaxes(-1, -2)
    zs = np.stack([[random_point(spec, rng, scale=0.3) for _ in range(5)]])

    def one(H, Z):
        a, b, c, e = H[:p, :p], H[:p, p:], H[p:, :p], H[p:, p:]
        return -1j * (c.T + Z @ e.T - a.T @ Z - Z @ b.T @ Z)

    cases = [(hs, zs), (hs[0, 0], zs), (hs, zs[0, 0]), (hs[:, 0], zs[0, :4]),
             (hs[0, 0], zs[0, 0])]
    for H, Z in cases:
        got = riccati_rhs(spec, H, Z)
        lead = np.broadcast_shapes(H.shape[:-2], Z.shape[:-2])
        assert got.shape == lead + spec.point_shape
        hb = np.broadcast_to(H, lead + H.shape[-2:])
        zb = np.broadcast_to(Z, lead + Z.shape[-2:])
        for idx in np.ndindex(lead):
            assert np.max(np.abs(got[idx] - one(hb[idx], zb[idx]))) < 1e-13


def test_riccati_matches_mobius_derivative(rng):
    spec = ManifoldSpec(Family.CI, 2)
    H = sp_compatible_generator(rng, 2, Family.CI)
    z = random_point(spec, rng, scale=0.3)
    eps = 1e-6
    moved = mobius_act(
        spec, expm_hermitian_generator(H, eps), z, symmetry_tol=1e-9
    )
    fd = (moved - z) / eps
    rhs = riccati_rhs(spec, H, z)
    assert np.max(np.abs(fd - rhs)) < 1e-5


def test_propagated_unitary_half_turn():
    sched = HamiltonianSchedule.constant([SX], [1.0])
    U = propagate(sched, np.eye(2), 0.0, math.pi, 1e-3)[1][-1]
    assert np.max(np.abs(U + np.eye(2))) < 1e-9


def test_propagated_unitary_stays_unitary():
    sched = HamiltonianSchedule.from_samples(
        [SX, SY], [[0.0, 1.0, 0.3], [10.0, -0.5, 1.2]]
    )
    U = propagate(sched, np.eye(2), 0.0, 10.0, 1e-3)[1][-1]
    assert np.max(np.abs(U @ U.conj().T - np.eye(2))) < 1e-12


def test_expm_matches_eigh(rng):
    for n in (2, 4):
        h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = (h + h.conj().T) / 2.0
        w, v = np.linalg.eigh(h)
        ref = (v * np.exp(-0.7j * w)) @ v.conj().T
        assert np.max(np.abs(expm_hermitian_generator(h, 0.7) - ref)) < 1e-12


def _defining_generator(rng, spec):
    """A Hermitian generator acting on ``spec``'s chart.  Compact charts
    get a general one; bounded domains one of the compact subgroup,
    block diagonal, whose flow keeps the domain."""
    p = spec.p
    if spec.family is Family.AIII:
        n = p + spec.q
        h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = (h + h.conj().T) / 2.0
        if not spec.compact:
            h[:p, p:] = 0.0
            h[p:, :p] = 0.0
        return h
    h = sp_compatible_generator(rng, p, spec.family)
    if not spec.compact:
        h[:p, p:] = 0.0
        h[p:, :p] = 0.0
    return h


@pytest.mark.parametrize("spec", [
    ManifoldSpec(family, p, q, compact)
    for compact in (True, False)
    for family, p, q in ((Family.AIII, 3, 2), (Family.AIII, 1, 1),
                         (Family.CI, 2, 1), (Family.DIII, 3, 1))
], ids=str)
def test_expectation_closed_form_matches_cocycle_difference(spec, rng):
    for level in (1, 2):
        for _ in range(3):
            H = _defining_generator(rng, spec)
            z = random_point(spec, rng, scale=0.4)
            got = expectation(spec, level, z, H)
            assert abs(got - fd_expectation(spec, level, z, H)) < 1e-8


@pytest.mark.parametrize("spec", [
    ManifoldSpec(family, p, q, compact)
    for compact in (True, False)
    for family, p, q in ((Family.AIII, 1, 1), (Family.AIII, 3, 2),
                         (Family.CI, 2, 1), (Family.DIII, 3, 1))
], ids=str)
def test_expectation_stack_matches_pointwise(spec, rng):
    """``expectation`` reaches its stack-last core through
    ``_broadcast_last``: stacks of points and of H, one H against a stack
    of points, one point against a stack of H and two leading axes that
    broadcast all give the pointwise values, and one pair a scalar."""
    hs = np.array([_defining_generator(rng, spec) for _ in range(4)])
    zs = np.array([random_point(spec, rng, 0.4) for _ in range(4)])

    def one(z, H):
        value = expectation(spec, 2, z, H)
        assert np.ndim(value) == 0
        return value

    stacked = expectation(spec, 2, zs, hs)
    assert stacked.shape == (4,)
    for value, z, H in zip(stacked, zs, hs):
        assert abs(value - one(z, H)) < 1e-13
    # one generator broadcasts against the stack of points
    shared = expectation(spec, 2, zs, hs[0])
    for value, z in zip(shared, zs):
        assert abs(value - one(z, hs[0])) < 1e-13
    # one point against the stack of generators
    single = expectation(spec, 2, zs[0], hs)
    assert single.shape == (4,)
    for value, H in zip(single, hs):
        assert abs(value - one(zs[0], H)) < 1e-13
    grid = expectation(spec, 2, zs[:3, None], hs[None])
    assert grid.shape == (3, 4)
    for (i, j), value in np.ndenumerate(grid):
        assert abs(value - one(zs[i], hs[j])) < 1e-13
    bad = hs.copy()
    bad[2, 0, 1] += 1e-3
    with pytest.raises(SymmetryViolation):
        expectation(spec, 2, zs, bad)


def test_rows_are_views_of_one_stack_last_array(monkeypatch, rng):
    """``trajectory`` stores its rows stack-last and hands out transposed
    views: the phases' ``_loop_points`` and ``ray_distances`` read
    ``traj.points`` itself, with no copy, and ``propagate``'s states are
    one stack-last array seen through a transposed view."""
    spec = ManifoldSpec(Family.AIII, 2, 1)
    sched = HamiltonianSchedule.constant([_defining_generator(rng, spec)],
                                         [1.0])
    traj = trajectory(spec, 0.2 * random_point(spec, rng), sched, 1.0, 1e-2)
    for rows in (traj.points, traj.unitaries, traj.velocities):
        assert rows.transpose(1, 2, 0).flags.c_contiguous
    loop = kphase.phases._loop_points(spec, traj)
    assert loop.flags.c_contiguous and np.shares_memory(loop, traj.points)
    seen = []
    real = kphase.dynamics._distance

    def spying(spec, z, w):
        seen.append(np.shares_memory(z, traj.points))
        return real(spec, z, w)

    monkeypatch.setattr(kphase.dynamics, "_distance", spying)
    ray_distances(traj)
    assert seen == [True]
    for Y0 in (np.eye(3), np.eye(3)[:, :1]):
        _, states = propagate(sched, Y0, 0.0, 1.0, 1e-2)
        assert states.shape == (101,) + Y0.shape
        assert states.transpose(1, 2, 0).flags.c_contiguous


def test_ray_distances_match_pairwise():
    spec = ManifoldSpec(Family.AIII, 2, 1)
    H = np.diag([1.0, -1.0, 0.5]).astype(complex)
    H[0, 2] = H[2, 0] = 0.3
    traj = trajectory(spec, [[0.2], [0.1j]], HamiltonianSchedule.constant(
        [H], [1.0]), 3.0, 1e-2)
    loop = [projective_distance(spec, traj.points[k], traj.points[0])
            for k in range(len(traj.times))]
    assert np.array_equal(ray_distances(traj), loop)


def test_trajectory_cross_check_small():
    spec = cp1()
    sched = HamiltonianSchedule.constant([SX, SZ], [0.4, 0.9])
    traj = trajectory(spec, 0.2 + 0.1j, sched, 5.0, 1e-3)
    assert traj.cross_check_error < 1e-8
    assert len(traj.points) == len(traj.times)
    assert traj.unitaries is not None


def test_trajectory_cross_check_failure_on_coarse_grid():
    spec = cp1()
    sched = HamiltonianSchedule.from_samples(
        [SX, SZ], [[0.0, 2.0, 1.0], [5.0, -1.0, 2.5], [10.0, 2.0, -1.0]]
    )
    with pytest.raises(CrossCheckFailure):
        trajectory(spec, 0.3, sched, 10.0, 0.5)


def test_trajectory_far_start_on_coarse_grid_fails_cross_check():
    spec = cp1()
    sched = HamiltonianSchedule.constant([SX], [1.0])
    # far start plus coarse step: the first RK4 step from z = 1000 lands
    # far from the Mobius image
    with pytest.raises(CrossCheckFailure, match=r"at t = 0\.1$"):
        trajectory(spec, 1000.0, sched, 1.0, 0.1)


def test_trajectory_accepts_start_beyond_1e8():
    """Under sigma_z the orbit of z = 1e8 is a circle of that radius;
    the defects are Kahler lengths, so the size of Z does not inflate
    them."""
    spec = cp1()
    sched = HamiltonianSchedule.constant([SZ], [1.0])
    traj = trajectory(spec, 1e8, sched, 1.0, 1e-3)
    assert traj.cross_check_error <= 1e-15
    assert np.max(np.abs(traj.points[:, 0, 0]
                         - 1e8 * np.exp(2j * traj.times))) <= 1e-6


@pytest.mark.parametrize("spec,scale", [
    (cp1(), 1e13), (ManifoldSpec(Family.AIII, 3, 2), 1e4),
], ids=["CP1-1e13", "AIII(3,2)-1e4"])
def test_trajectory_accepts_far_start_whose_denominator_stays_regular(
        spec, scale, rng):
    """Under a block-diagonal generator B = 0, so det(A^T + Z B^T) is
    det A^T, of modulus one, however far out the start lies.  Such orbits
    stay on the chart; the rounding floor of the edge test, relative to
    the denominator's rows, does not refuse them."""
    p, q = spec.p, spec.q
    n = p + q
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    H = (h + h.conj().T) / 2.0
    H[:p, p:] = H[p:, :p] = 0.0
    if p == 1:
        H = SZ
    z0 = scale * (rng.standard_normal((p, q))
                  + 1j * rng.standard_normal((p, q)))
    traj = trajectory(spec, z0, HamiltonianSchedule.constant([H], [1.0]),
                      1.0, 1e-3)
    a, d = traj.unitaries[:, :p, :p], traj.unitaries[:, p:, p:]
    exact = np.linalg.solve(a.swapaxes(-1, -2), z0 @ d.swapaxes(-1, -2))
    assert traj.cross_check_error <= 1e-10
    assert np.max(np.abs(traj.points - exact)) <= 1e-14 * scale


def test_trajectory_divergence_in_later_block_ends_there():
    spec = cp1()
    # a sudden strong field at step 70 sends the RK4 step from row 70 off
    # the chart; the later steps of its chunk overflow without a warning
    sched = HamiltonianSchedule.from_samples(
        [SX], [[0.0, 0.0], [0.7049, 0.0], [0.705, 1e6], [5.0, 1e6]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CrossCheckFailure, match=r"at t = 0\.71$"):
            trajectory(spec, 0.0, sched, 5.0, 1e-2)


def test_trajectory_pole_crossing_breaks_cross_check():
    spec = cp1()
    sched = HamiltonianSchedule.constant([SX], [1.0])
    # grids that straddle the antipode lose dual-route agreement first
    with pytest.raises(CrossCheckFailure, match=r"at t = 1\.569$"):
        trajectory(spec, 0.0, sched, 2.0, 1e-3)


def test_trajectory_symmetry_preserved_sp_families(rng):
    for family in (Family.CI, Family.DIII):
        spec = ManifoldSpec(family, 2)
        H = sp_compatible_generator(rng, 2, family)
        sched = HamiltonianSchedule.constant([H], [0.5])
        traj = trajectory(spec, np.zeros((2, 2)), sched, 1.0, 1e-3)
        assert traj.cross_check_error < 1e-8


def test_trajectory_guard_names_first_failing_time(rng):
    spec = ManifoldSpec(Family.CI, 2)
    h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    # a generic generator does not preserve the symmetric chart
    sched = HamiltonianSchedule.constant([(h + h.conj().T) / 2.0], [1.0])
    with pytest.raises(SymmetryViolation, match=r"at t = 0\.001$"):
        trajectory(spec, np.zeros((2, 2)), sched, 1.0, 1e-3)


def test_clip_trajectory_ends_at_cycle_time():
    spec = cp1()
    sched = HamiltonianSchedule.constant([SZ], [1.0])
    traj = trajectory(spec, 0.7, sched, 2.0 * math.pi, 1e-3)
    info = find_cycle(traj.times, ray_distances(traj))
    cyc = clip_trajectory(traj, sched, info.time)
    k = len(cyc.times) - 1
    assert cyc.times[-1] == info.time
    assert traj.times[k - 1] < info.time <= traj.times[k]
    assert np.array_equal(cyc.times[:-1], traj.times[:k])
    assert np.array_equal(cyc.points[:-1], traj.points[:k])
    assert np.array_equal(cyc.unitaries[:-1], traj.unitaries[:k])
    assert cyc.points.shape == (k + 1, 1, 1)
    assert cyc.unitaries.shape == (k + 1, 2, 2)
    assert cyc.cross_check_error < 1e-9
    exact = 0.7 * np.exp(2j * info.time)
    assert abs(cyc.points[-1, 0, 0] - exact) < 1e-9


@pytest.mark.parametrize("constant", [True, False], ids=["constant",
                                                          "sampled"])
def test_clip_checks_new_row_like_whole_path(constant, rng):
    """The clip maps and checks only its new row: it keeps the
    trajectory's rows and defects bit for bit, adds the Mobius image of
    the unitary at t_end and the defect of one partial RK4 step to it from
    the last kept row, and re-sums the defects."""
    spec = ManifoldSpec(Family.CI, 2)
    gens = [_defining_generator(rng, spec) for _ in range(2)]
    sched = (HamiltonianSchedule.constant(gens, [0.4, 0.3]) if constant else
             HamiltonianSchedule.from_samples(
                 gens, [[0.0, 0.4, 0.3], [1.0, -0.2, 0.5]]))
    traj = trajectory(spec, 0.2 * random_point(spec, rng), sched,
                      1.0, 2e-3)
    t_end = 0.6789
    cyc = clip_trajectory(traj, sched, t_end)
    k = len(cyc.times) - 2
    assert k == 339
    assert np.array_equal(cyc.points[:-1], traj.points[:k + 1])
    assert np.array_equal(cyc.defects[:-1], traj.defects[:k])
    image = mobius_act(spec, cyc.unitaries[-1], cyc.points[0], 1e-9)
    assert np.max(np.abs(cyc.points[-1] - image)) <= 1e-12
    t, h = cyc.times[k], t_end - cyc.times[k]
    step = _rk4_step(lambda H, z: riccati_rhs(spec, H, z), cyc.points[k],
                     riccati_rhs(spec, sched(t), cyc.points[k]),
                     sched(t + h / 2.0), sched(t_end), h)
    assert cyc.defects[-1] == pytest.approx(
        metric_length(spec, cyc.points[-1], cyc.points[-1] - step), rel=1e-9)
    assert cyc.cross_check_error == np.sum(cyc.defects)


@pytest.mark.parametrize("constant", [True, False], ids=["constant",
                                                          "sampled"])
@pytest.mark.parametrize("spec", [
    ManifoldSpec(Family.AIII, 3, 2),
    ManifoldSpec(Family.CI, 2),
    ManifoldSpec(Family.DIII, 3, 1, False),
], ids=["AIII(3,2)", "CI(2)", "DIII(3)-noncompact"])
def test_velocities_are_the_riccati_rhs_at_each_row(spec, constant, rng):
    """``velocities[k]`` is dZ/dt at row k, ``riccati_rhs`` at
    ``(H(t_k), points[k])``, on every row of a trajectory of several
    chunks, its last row and a clip row included: the RK4 first stages
    and one evaluation each at the last row and the clip row.  The run
    takes at least 1250 steps over t = 2.5, more where two chunks would
    hold them all."""
    gens = [_defining_generator(rng, spec) for _ in range(2)]
    sched = (HamiltonianSchedule.constant(gens, [0.4, 0.3]) if constant else
             HamiltonianSchedule.from_samples(
                 gens, [[0.0, 0.4, 0.3], [2.5, -0.2, 0.5]]))
    entries = math.prod(spec.point_shape) if constant else sched.dim ** 2
    n = max(1250, 2 * _chunk_steps(entries) + 37)
    assert len(_blocks(n, entries)) > 2
    traj = trajectory(spec, 0.2 * random_point(spec, rng), sched, 2.5,
                      2.5 / n)
    assert len(traj.times) == n + 1
    cyc = clip_trajectory(traj, sched, 1.2345)
    kept = int(np.searchsorted(traj.times, 1.2345))
    assert np.array_equal(cyc.velocities[:-1], traj.velocities[:kept])
    for path in (traj, cyc):
        ref = np.array([riccati_rhs(spec, sched(t), z)
                        for t, z in zip(path.times, path.points)])
        assert path.velocities.shape == path.points.shape
        assert np.max(np.abs(path.velocities - ref)) <= 1e-13 * np.max(
            np.abs(ref))


def test_clip_guard_on_new_row_names_clip_time(monkeypatch):
    """A guard that only the new row trips still raises, at t_end: a
    cross-check tolerance between the sum of the kept rows' defects and
    the sum with the new row's defect trips on the new row alone."""
    spec = cp1()
    sched = HamiltonianSchedule.constant([SZ], [1.0])
    traj = trajectory(spec, 0.7, sched, 3.0, 2e-2)
    t_end = 2.9876
    cyc = clip_trajectory(traj, sched, t_end)
    kept = float(np.sum(cyc.defects[:-1]))
    assert cyc.cross_check_error > kept
    monkeypatch.setattr(kphase.dynamics, "CROSS_CHECK_TOL",
                        (cyc.cross_check_error + kept) / 2.0)
    with pytest.raises(CrossCheckFailure, match=r"at t = 2\.9876$"):
        clip_trajectory(traj, sched, t_end)


@pytest.mark.parametrize("spec", [
    ManifoldSpec(Family.AIII, 2, 1), cp1(), cp1(compact=False),
    ManifoldSpec(Family.CI, 1), ManifoldSpec(Family.DIII, 3),
    ManifoldSpec(Family.AIII, 3, 2),
    ManifoldSpec(Family.AIII, 2, 2, compact=False),
    ManifoldSpec(Family.CI, 2, compact=False),
    ManifoldSpec(Family.DIII, 3, compact=False),
], ids=["AIII(2,1)", "CP1", "CP1-noncompact", "CI(1)", "DIII(3)",
        "AIII(3,2)", "AIII(2,2)-noncompact", "CI(2)-noncompact",
        "DIII(3)-noncompact"])
def test_block_stepping_matches_stepwise_reference(spec, rng):
    # The unitaries match the stepwise Magnus reference to rounding; the
    # Mobius points match its independent RK4 Riccati path globally, to
    # within the cross-check tolerance.
    d = defining_dimension(spec)
    gens = [_defining_generator(rng, spec) for _ in range(2)]
    sched = HamiltonianSchedule.from_samples(
        gens, [[0.0, 0.5, 0.2], [0.6, -0.3, 0.7], [1.5, 0.4, -0.5]])
    z0 = 0.2 * random_point(spec, rng)
    n, h = 137, 0.01  # not a multiple of the batching period
    ref_u, ref_z = stepwise_run(sched, np.eye(d), 0.0, h, n, spec=spec, z0=z0)

    _, states = propagate(sched, np.eye(d), 0.0, n * h, h)
    assert np.max(np.abs(states - ref_u)) <= 1e-12
    col = ref_u[0][:, :1]
    _, cols = propagate(sched, col, 0.0, n * h, h)
    assert np.max(np.abs(cols - stepwise_run(sched, col, 0.0, h, n)[0])) <= 1e-12

    traj = trajectory(spec, z0, sched, n * h, h)
    assert np.max(np.abs(traj.unitaries - ref_u)) <= 1e-12
    assert np.max(np.abs(traj.points - ref_z)) <= CROSS_CHECK_TOL

    t_end = 49.5 * h
    clip_u, clip_z = stepwise_run(sched, ref_u[49], traj.times[49],
                                  t_end - traj.times[49], 1,
                                  spec=spec, z0=ref_z[49])
    cyc = clip_trajectory(traj, sched, t_end)
    assert len(cyc.times) == 51
    assert np.max(np.abs(cyc.unitaries[-1] - clip_u[-1])) <= 1e-12
    assert np.max(np.abs(cyc.points[-1] - clip_z[-1])) <= CROSS_CHECK_TOL


@pytest.mark.parametrize("d", [2, 3, 4, 5, 9])
@pytest.mark.parametrize("n", [1, 32, 77])
def test_advance_rows_are_the_step_products(d, n, rng):
    """``_advance`` takes its rows down the blocks of each period, one
    batched product per level; every row equals the steps' product taken
    one step at a time, to rounding, on square and column states, for a
    single step, one full period and a short last period.  The step
    matrices are stack-last, ``(d, d, n)``; d = 5 takes ``_mm_last``'s
    multiply-adds and d = 9 its ``np.matmul``.  The rows are stack-last
    too, ``(d, c, n)``, written after the start row into a slice of a
    larger stack's last axis as ``_flow`` passes them."""
    h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    gens = [(h + h.conj().T) / 2.0, np.diag(np.arange(d, dtype=float))]
    sched = HamiltonianSchedule.from_samples(
        gens, [[0.0, 0.5, 0.2], [n * 0.01, -0.3, 0.7]])
    stages = kphase.dynamics._stages(sched, 0.0, 0.01, 0, n)
    steps = kphase.dynamics._step_matrices(sched._table, stages, 0.01)
    assert steps.shape == (d, d, n)
    for Y in (_haar(rng, d), _haar(rng, d)[:, :1]):
        states = np.zeros(Y.shape + (n + 2,), dtype=complex)
        states[..., 0] = Y
        kphase.dynamics._advance(states[..., :n + 1], sched._table, stages,
                                 0.01)
        ref = [Y]
        for step in steps.transpose(2, 0, 1):
            ref.append(step @ ref[-1])
        out = states[..., 1:n + 1].transpose(2, 0, 1)
        assert np.max(np.abs(out - ref[1:])) <= 1e-14 * math.sqrt(n)
        assert np.array_equal(states[..., 0], Y)
        assert not states[..., n + 1].any()


def _chunk_steps(entries):
    """Steps in one full chunk of a run that stacks ``entries`` entries per
    step: d^2 for d x d step matrices, p q for p x q chart points."""
    (_, k1), *_ = kphase.dynamics._blocks(kphase.dynamics.CHUNK_ENTRIES,
                                          entries)
    return k1


@pytest.mark.parametrize("spec, gens", [
    (cp1(), [SZ, SX]),
    (ManifoldSpec(Family.DIII, 3, compact=False), None),
], ids=["CP1", "DIII(3)-noncompact"])
def test_chunked_stepping_matches_stepwise_reference(spec, gens,
                                                    monkeypatch, rng):
    # Three chunks, the last one ending 5 steps into its second period.
    d = defining_dimension(spec)
    period = kphase.dynamics.PERIOD
    n = 2 * _chunk_steps(d * d) + period + 5
    chunks = kphase.dynamics._blocks(n, d * d)
    assert len(chunks) == 3 and chunks[-1] == (n - period - 5, n)
    if gens is None:
        gens = [_defining_generator(rng, spec) for _ in range(2)]
    h = 4e-3
    sched = HamiltonianSchedule.from_samples(
        gens, [[0.0, 1.0, 0.2], [n * h / 2, 0.6, 0.3], [n * h, 1.2, -0.1]])
    z0 = 0.2 * random_point(spec, rng)
    ref_u, ref_z = stepwise_run(sched, np.eye(d), 0.0, h, n, spec=spec, z0=z0)

    traj = trajectory(spec, z0, sched, n * h, h)
    assert np.max(np.abs(traj.unitaries - ref_u)) <= 1e-12
    assert np.max(np.abs(traj.points - ref_z)) <= CROSS_CHECK_TOL
    col = ref_u[0][:, 1:2]
    _, cols = propagate(sched, col, 0.0, n * h, h)
    assert np.max(np.abs(cols - stepwise_run(sched, col, 0.0, h, n)[0])) <= 1e-12

    # The trajectory's own check, fed the stepwise RK4 Riccati rows in
    # place of the Mobius images, reads every per-step defect as rounding;
    # a shifted stage time or a skipped step in the check breaks this.
    # The chart stage holds its arrays stack-last: us is (d, d, n) and
    # the images (p, q, n).
    fed = iter(np.split(ref_z[1:], [k1 for _, k1 in chunks[:-1]]))
    monkeypatch.setattr(
        kphase.dynamics, "_chart_images", lambda spec, us, z0: (
            np.ones(us.shape[-1]), next(fed).transpose(1, 2, 0)))
    assert np.max(trajectory(spec, z0, sched, n * h, h).defects) <= 1e-14


def _sampled_spin_schedule(rng, span):
    """A sampled sigma x, y, z schedule over ``[0, span]`` and its spin-3/2
    image."""
    knots = np.linspace(0.0, span, 41)
    sched = HamiltonianSchedule.from_samples(
        [SX, SY, SZ],
        np.column_stack([knots, rng.uniform(-0.6, 0.6, (41, 3))]))
    return sched, map_schedule(sched, 1.5)


def test_rows_do_not_depend_on_the_chunk_budget(monkeypatch, rng):
    """The rows of a sampled spin-3/2 ``propagate`` and of sampled CP1 and
    DIII(3) trajectories are bit for bit the same at ``CHUNK_ENTRIES`` of
    2^12 and 2^13: a chunk's periods start on multiples of ``PERIOD``
    either way, and every product is taken entry by entry in the same
    order.  Each run's last chunk holds more than one period at both
    budgets; a chunk of one period steps its rows one product at a time,
    which rounds differently.  The DIII(3) field stays weak, ||H|| t below
    0.2, so that every chart denominator ``A^T + Z B^T`` is column
    diagonally dominant and eliminated at either budget: a chunk with one
    member that is not goes to LAPACK whole, which rounds differently."""
    sched, spin = _sampled_spin_schedule(rng, 3.0)
    spec = ManifoldSpec(Family.DIII, 3, compact=False)
    gens = [g / np.linalg.norm(g, 2)
            for g in (_defining_generator(rng, spec) for _ in range(2))]
    diii = HamiltonianSchedule.from_samples(
        gens, [[0.0, 0.1, 0.05], [1.0, -0.05, 0.1]])
    z0 = 0.2 * random_point(spec, rng)
    runs = [(16, 1000, lambda: propagate(spin, np.eye(4)[:, :1], 0.0, 1.0,
                                         1e-3)[1:]),
            (4, 3000, lambda: _rows(trajectory(cp1(), 0.3 + 0.1j, sched,
                                               3.0, 1e-3))),
            (36, 712, lambda: _rows(trajectory(spec, z0, diii, 0.712,
                                               1e-3)))]
    got = {}
    for budget in (2 ** 12, 2 ** 13):
        monkeypatch.setattr(kphase.dynamics, "CHUNK_ENTRIES", budget)
        for entries, n, run in runs:
            k0, k1 = kphase.dynamics._blocks(n, entries)[-1]
            assert k1 - k0 > kphase.dynamics.PERIOD
        got[budget] = [run() for _, _, run in runs]
    for small, large in zip(got[2 ** 12], got[2 ** 13]):
        for a, b in zip(small, large):
            assert a.shape == b.shape and np.array_equal(a, b)


def test_flow_restores_the_ufunc_buffer_size(rng):
    """The flow runs each chunk with numpy's ufunc buffer set to one step
    row and gives the caller's size back, also when a trajectory stops
    on a failing chunk."""
    sched, spin = _sampled_spin_schedule(rng, 3.0)
    size = np.getbufsize()
    propagate(spin, np.eye(4)[:, :1], 0.0, 1.0, 1e-3)
    trajectory(cp1(), 0.3, sched, 3.0, 1e-3)
    assert np.getbufsize() == size
    jump = HamiltonianSchedule.from_samples(
        [SX, SZ], [[0.0, 0.0, 0.5], [0.1, 1e6, 0.5], [1.0, 1e6, 0.5]])
    with pytest.raises(CrossCheckFailure):
        trajectory(cp1(), 0.2, jump, 1.0, 1e-3)
    assert np.getbufsize() == size


def _rows(traj):
    """The row arrays of a trajectory."""
    return (traj.unitaries, traj.points, traj.defects, traj.velocities)


def test_chunk_temporaries_stay_within_four_stacks(rng):
    """The traced peak of a 10^4-step sampled spin-3/2 ``propagate``,
    minus the rows it returns, stays within four chunk stacks
    (``CHUNK_ENTRIES`` complex entries each): the Pade solve overwrites
    its two operands, K goes before it, and the rows are written straight
    into the returned stack.  Copying the operands in the elimination, as
    it once did, takes it to five."""
    _, spin = _sampled_spin_schedule(rng, 10.0)
    col = np.eye(4)[:, :1]
    propagate(spin, col, 0.0, 1.0, 1e-3)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        times, states = propagate(spin, col, 0.0, 10.0, 1e-3)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    rows = times.nbytes + states.nbytes
    assert len(times) == 10001
    assert peak - rows <= 4 * kphase.dynamics.CHUNK_ENTRIES * 16


@pytest.mark.parametrize("spec", [
    cp1(), cp1(compact=False), ManifoldSpec(Family.AIII, 3, 2),
    ManifoldSpec(Family.AIII, 2, 2, compact=False), ManifoldSpec(Family.CI, 2),
    ManifoldSpec(Family.CI, 2, compact=False), ManifoldSpec(Family.DIII, 3),
    ManifoldSpec(Family.DIII, 3, compact=False),
], ids=["CP1", "CP1-noncompact", "AIII(3,2)", "AIII(2,2)-noncompact",
        "CI(2)", "CI(2)-noncompact", "DIII(3)", "DIII(3)-noncompact"])
def test_defect_length_is_the_public_metric(spec, rng):
    """The defect's Kahler length, from ``geometry``'s form on stacks, is
    the length in ``geometry.metric`` at level 1, on every family and on
    bounded domains."""
    z = np.array([random_point(spec, rng) for _ in range(3)])
    dz = np.array([random_point(spec, rng, 1e-3) for _ in range(3)])
    lengths = np.sqrt(kphase.geometry._metric_form(
        spec, z.transpose(1, 2, 0), dz.transpose(1, 2, 0)))
    ref = [metric_length(spec, a, b) for a, b in zip(z, dz)]
    assert lengths == pytest.approx(ref, rel=1e-12)


def test_failure_in_later_chunk_stops_there(monkeypatch):
    # A sudden strong field in the third of five chunks, 22 steps in,
    # sends the RK4 step to t_jump, whose end stage sees it, off the
    # chart; no later chunk is advanced.
    spec, h = cp1(), 1e-3
    size = _chunk_steps(4)
    step = 2 * size + 22
    assert 2 * size < step <= 3 * size
    t_jump, T = step * h, 5 * size * h
    sched = HamiltonianSchedule.from_samples(
        [SX, SZ], [[0.0, 0.0, 0.5], [t_jump - 1e-4, 0.0, 0.5],
                   [t_jump, 1e6, 0.5], [T, 1e6, 0.5]])
    advanced = []
    real_advance = kphase.dynamics._advance

    def counting(states, table, stages, h):
        advanced.append(states.shape[-1] - 1)
        real_advance(states, table, stages, h)

    monkeypatch.setattr(kphase.dynamics, "_advance", counting)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CrossCheckFailure,
                           match=re.escape(f"at t = {t_jump:.6g}") + "$"):
            trajectory(spec, 0.2, sched, T, h)
    assert advanced == [size] * 3


def _counting_chart_rows(monkeypatch):
    """Record the number of rows of each ``_chart_rows`` call."""
    rows = []
    real = kphase.dynamics._chart_rows

    def counting(spec, times, *args):
        rows.append(len(times))
        return real(spec, times, *args)

    monkeypatch.setattr(kphase.dynamics, "_chart_rows", counting)
    return rows


@pytest.mark.parametrize("constant, entries", [(True, 9), (False, 36)],
                         ids=["constant", "sampled"])
def test_trajectory_chunks_follow_the_path(constant, entries, monkeypatch,
                                           rng):
    """A constant schedule forms no step matrices, so its chunks hold
    ``CHUNK_ENTRIES`` entries of 3 x 3 chart points (896 steps at 2^13);
    a sampled one's hold as many entries of 6 x 6 step matrices (224
    steps).  The run over t = 1 takes at least 1000 steps, enough for
    three chunks or more, the last one short."""
    spec = ManifoldSpec(Family.DIII, 3, compact=False)
    size = _chunk_steps(entries)
    n = max(1000, 2 * size + 104)
    H = sp_compatible_generator(rng, 3, Family.DIII)
    sched = (HamiltonianSchedule.constant([H], [0.3]) if constant else
             HamiltonianSchedule.from_samples([H], [[0.0, 0.3], [1.0, 0.2]]))
    rows = _counting_chart_rows(monkeypatch)
    traj = trajectory(spec, 0.2 * random_point(spec, rng), sched, 1.0,
                      1.0 / n)
    assert len(traj.times) == n + 1
    assert len(rows) == math.ceil(n / size)
    assert rows == [size] * (len(rows) - 1) + [n - size * (len(rows) - 1)]


def test_closed_form_failure_in_later_chunk_stops_there(monkeypatch):
    """From Z = 0 this generator carries the DIII(3) orbit to the chart
    edge at t = pi/2, at row 1569, in a later chunk of 3 x 3 chart
    points than the first (the second at 2^13 entries, the fourth at
    2^12).  The failure is the one that chunks of 6 x 6 step matrices
    reported, at the same time, and no later chunk is mapped."""
    size = _chunk_steps(9)
    failing = 1568 // size
    assert failing >= 1 and (failing + 1) * size < 2000
    rows = _counting_chart_rows(monkeypatch)
    q = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    H = np.block([[np.zeros((3, 3)), q], [q.T, np.zeros((3, 3))]])
    sched = HamiltonianSchedule.constant([H], [1.0])
    with pytest.raises(CrossCheckFailure, match=r"at t = 1\.569$"):
        trajectory(ManifoldSpec(Family.DIII, 3), np.zeros((3, 3)), sched,
                   2.0, 1e-3)
    assert rows == [size] * (failing + 1)


@pytest.mark.parametrize("scale", [1e60, 1e120, 1e150, 1e200])
def test_far_chart_start_leaves_the_chart_by_name(scale, rng):
    """A compact DIII(3) start far from the origin under a generator with
    a non-zero B block: the denominators A^T + Z B^T are singular in
    floating point, and their determinants are rounding noise or
    overflow.  The edge test's rounding floor reads them as zero and
    reports the first row as ``ChartOverflow``, with RuntimeWarnings as
    errors; LAPACK's solve on those rows raised ``LinAlgError`` before."""
    spec = ManifoldSpec(Family.DIII, 3)
    z0 = scale * np.array([[0, 1, 2j], [-1, 0, 0.5], [-2j, -0.5, 0]])
    sched = HamiltonianSchedule.constant(
        [sp_compatible_generator(rng, 3, Family.DIII)], [1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ChartOverflow, match=r"at t = 0\.001$"):
            trajectory(spec, z0, sched, 1.0, 1e-3)


@pytest.mark.parametrize("constant", [True, False])
def test_rows_past_the_cap_are_refused(monkeypatch, constant):
    """A 100-step CP1 run holds 101 rows of a 2 x 2 unitary and a point, a
    2-level propagate 101 states: each runs at a cap of exactly that many
    entries and is refused one entry below it."""
    sched = (HamiltonianSchedule.constant([SZ], [1.0]) if constant else
             HamiltonianSchedule.from_samples([SZ], [[0.0, 1.0],
                                                     [1.0, 0.5]]))
    runs = [(lambda: trajectory(cp1(), 0.5, sched, 0.1, 1e-3), 101 * 5),
            (lambda: propagate(sched, np.ones((2, 1)), 0.0, 0.1, 1e-3),
             101 * 2)]
    for run, entries in runs:
        monkeypatch.setattr(kphase.dynamics, "MAX_ENTRIES", entries)
        run()
        monkeypatch.setattr(kphase.dynamics, "MAX_ENTRIES", entries - 1)
        with pytest.raises(ValueError, match=f"101 x {entries // 101}"):
            run()


def test_constant_schedule_takes_no_steps(monkeypatch, rng):
    """A constant schedule's unitary comes in closed form: no step
    matrices and no period products."""
    def refuse(*args):
        raise AssertionError("the constant path stepped")

    for name in ("_step_matrices", "_period_products", "_advance"):
        monkeypatch.setattr(kphase.dynamics, name, refuse)
    spec = ManifoldSpec(Family.AIII, 2, 1)
    sched = HamiltonianSchedule.constant([_defining_generator(rng, spec)],
                                         [1.0])
    traj = trajectory(spec, 0.2 * random_point(spec, rng), sched,
                      1.0, 1e-3)
    clip_trajectory(traj, sched, 0.4567)
    propagate(sched, np.eye(3)[:, :1], 0.0, 1.0, 1e-3)
    propagate(sched, np.eye(3), 0.0, 1.0, 1e-3)


@pytest.mark.parametrize("d, t0", [(2, 0.0), (3, -1.3), (5, 0.7)])
def test_constant_propagate_matches_exponential(d, t0, rng):
    """Every row of a constant schedule's flow is exp(-iH(t - t0)) Y0, for
    square and column starts, over several chunks with a short last one."""
    n = 2 * _chunk_steps(d * d) + 37
    (a0, a1), *_, (b0, b1) = kphase.dynamics._blocks(n, d * d)
    assert b1 == n and b1 - b0 < a1 - a0
    h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    H = (h + h.conj().T) / 2.0
    sched = HamiltonianSchedule.constant([H], [0.8])
    for Y0 in (_haar(rng, d), _haar(rng, d)[:, :1]):
        times, states = propagate(sched, Y0, t0, t0 + n * 4e-3, 4e-3)
        assert len(times) == n + 1 and np.array_equal(states[0], Y0)
        ref = np.array([expm_hermitian_generator(0.8 * H, t - t0) @ Y0
                        for t in times])
        assert np.max(np.abs(states - ref)) <= 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_exact_rows_match_the_eigen_form(d, rng):
    """One chunk of ``_exact_rows``, written as one product of the phases
    with the schedule's ``V[i, j] (V^dagger Y0)[j, c]``, matches
    ``V diag(exp(-i lam s)) V^dagger Y0`` to 1e-14 of the largest entry,
    for square and column starts."""
    h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    sched = HamiltonianSchedule.constant([(h + h.conj().T) / 2.0], [1.3])
    lam, v = np.linalg.eigh(sched(0.0))
    s = 1e-2 * np.arange(1, 301)
    for Y0 in (_haar(rng, d), _haar(rng, d)[:, :1]):
        out = np.empty(Y0.shape + (len(s),), dtype=complex)
        kphase.dynamics._exact_rows(sched, Y0)(s, out)
        phases = np.exp(-1j * np.multiply.outer(s, lam))
        ref = (v * phases[:, None, :]) @ v.conj().T @ Y0
        assert np.max(np.abs(out.transpose(2, 0, 1) - ref)) <= (
            1e-14 * np.max(np.abs(ref)))


def test_exact_rows_write_into_a_contiguous_view(monkeypatch, rng):
    """``_exact_rows`` writes a chunk through ``out.reshape(-1, n)``, which
    is a view only on a slice of the last axis of a C-contiguous
    stack-last stack: every chunk that :func:`propagate`,
    :func:`trajectory` and :func:`clip_trajectory` pass is such a view of
    their rows, and an ``out`` whose reshape would be a copy is refused
    rather than left unwritten."""
    real = kphase.dynamics._exact_rows
    seen = []

    def checking(schedule, Y0):
        rows = real(schedule, Y0)

        def checked(elapsed, out):
            whole = out.base
            seen.append(whole is not None and whole.flags.c_contiguous
                        and np.shares_memory(out.reshape(-1, len(elapsed)),
                                             out))
            rows(elapsed, out)

        return checked

    monkeypatch.setattr(kphase.dynamics, "_exact_rows", checking)
    spec = ManifoldSpec(Family.AIII, 2, 1)
    sched = HamiltonianSchedule.constant([_defining_generator(rng, spec)],
                                         [1.0])
    traj = trajectory(spec, 0.2 * random_point(spec, rng), sched, 2.0, 1e-3)
    clip_trajectory(traj, sched, 0.4567)
    propagate(sched, np.eye(3)[:, :1], 0.0, 2.0, 1e-3)
    assert len(seen) > 3 and all(seen)
    monkeypatch.undo()
    rows = kphase.dynamics._exact_rows(sched, np.eye(3))
    wide = np.zeros((3, 6, 10), dtype=complex)
    with pytest.raises(AssertionError, match="view"):
        rows(1e-3 * np.arange(1, 11), wide[:, :3])
    assert not wide.any()


def _haar(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d))
                        + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_constant_trajectory_and_clip_match_exponential(rng):
    """A constant schedule's unitary is exp(-iHt) on every draw.  The
    cross-check guard passes exactly when the running sum of the per-step
    defects, taken here one step at a time in the public metric from the
    Mobius images of those unitaries, stays within CROSS_CHECK_TOL, and
    otherwise names the first time it passes it."""
    spec, h, n = ManifoldSpec(Family.CI, 2), 2e-3, 1500
    H = sp_compatible_generator(rng, 2, Family.CI)
    sched = HamiltonianSchedule.constant([H], [0.5])
    z0 = 0.2 * random_point(spec, rng)
    times, us = propagate(sched, np.eye(4), 0.0, n * h, h)
    ref = np.array([expm_hermitian_generator(0.5 * H, t) for t in times])
    assert np.max(np.abs(us - ref)) <= 1e-12

    images = [mobius_act(spec, U, z0, 1e-9) for U in ref]
    defects = np.array([
        metric_length(spec, b, b - _rk4_step(
            lambda H_, z: riccati_rhs(spec, H_, z), a,
            riccati_rhs(spec, 0.5 * H, a), 0.5 * H, 0.5 * H, h))
        for a, b in zip(images, images[1:])])
    parted = np.flatnonzero(np.cumsum(defects) > CROSS_CHECK_TOL)
    if len(parted):
        where = re.escape(f"at t = {times[parted[0] + 1]:.6g}")
        with pytest.raises(CrossCheckFailure, match=where + "$"):
            trajectory(spec, z0, sched, n * h, h)
        return
    traj = trajectory(spec, z0, sched, n * h, h)
    assert np.max(np.abs(traj.unitaries - ref)) <= 1e-12
    assert np.max(np.abs(traj.defects - defects)) <= 1e-12
    t_end = 2.3456789
    cyc = clip_trajectory(traj, sched, t_end)
    assert cyc.times[-1] == t_end
    exact = expm_hermitian_generator(0.5 * H, t_end)
    assert np.max(np.abs(cyc.unitaries[-1] - exact)) <= 1e-12


def test_constant_flow_stays_unitary_over_many_steps():
    sched = HamiltonianSchedule.constant([SX, SY, SZ], [0.3, -0.8, 1.1])
    _, us = propagate(sched, np.eye(2), 0.0, 10.0, 1e-3)
    assert len(us) == 10_001
    drift = us.conj().swapaxes(1, 2) @ us - np.eye(2)
    assert np.max(np.linalg.norm(drift, 2, axis=(1, 2))) <= 1e-13


def test_constant_flow_stays_symplectic(rng):
    """On H = [[P, S], [S^dagger, -P^T]] with S symmetric the flow keeps
    U^T J U = J; RK4 step matrices missed it by 6.3e-7 here."""
    H = sp_compatible_generator(rng, 2, Family.CI)
    J = np.block([[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]])
    sched = HamiltonianSchedule.constant([H], [1.0])
    _, us = propagate(sched, np.eye(4), 0.0, 3.0, 0.05)
    assert len(us) == 61
    assert np.max(np.abs(us[-1].T @ J @ us[-1] - J)) <= 1e-12


def test_magnus_step_is_fourth_order():
    """On a sampled schedule of two non-commuting generators the error of
    U(1) falls sixteenfold per halving of the step, against a fine
    exponential-midpoint product.  A wrong sign of the commutator term
    leaves a second-order step, whose error falls fourfold."""
    sched = HamiltonianSchedule.from_samples(
        [SX, SZ], [[0.0, 1.0, 0.5], [1.0, -1.0, 2.0]])
    n = 80_000
    w, v = np.linalg.eigh(sched.at((np.arange(n) + 0.5) / n))
    ref = np.eye(2)
    steps = (v * np.exp(-1j * w / n)[:, None, :]) @ v.conj().swapaxes(1, 2)
    for step in steps:
        ref = step @ ref
    errs = [np.max(np.abs(propagate(sched, np.eye(2), 0.0, 1.0, h)[1][-1]
                          - ref)) for h in (0.1, 0.05, 0.025)]
    for coarse, fine in zip(errs, errs[1:]):
        assert 14.0 <= coarse / fine <= 18.0


@pytest.mark.parametrize("dt", [1e-3, 0.05])
def test_sampled_flow_stays_in_group(dt):
    """On sampled schedules of generators [[P, S], [S^dagger, -P^T]] every
    row of the flow is unitary and keeps U^T J U = J, with J the
    skew form for S symmetric (Sp, CI) and the symmetric form for S skew
    (SO*, DIII).  RK4 step matrices with a polar projection every 50
    steps missed both by up to 1.6e-5 at dt = 0.05 on CI."""
    zero, one = np.zeros((2, 2)), np.eye(2)
    for family, J in ((Family.CI, np.block([[zero, one], [-one, zero]])),
                      (Family.DIII, np.block([[zero, one], [one, zero]]))):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            gens = [sp_compatible_generator(rng, 2, family)
                    for _ in range(2)]
            sched = HamiltonianSchedule.from_samples(
                gens, [[0.0, 1.0, 0.3], [4.0, -0.5, 0.8], [10.0, 0.7, -0.6]])
            _, us = propagate(sched, np.eye(4), 0.0, 10.0, dt)
            drift = us.conj().swapaxes(1, 2) @ us - np.eye(4)
            assert np.max(np.linalg.norm(drift, 2, axis=(1, 2))) <= 1e-12
            assert np.max(np.abs(us.swapaxes(1, 2) @ J @ us - J)) <= 1e-12


def test_coarse_spin_steps_take_lapack_and_stay_unitary(monkeypatch):
    """At dt = 1 the spin-3/2 steps of a field near the unit x field have
    ``K`` near ``2 J_x``, whose Pade denominator's second column has
    0.42 on the diagonal and 2.16 off it: not column diagonally
    dominant, so ``manifolds._solve`` hands the stack to LAPACK's pivoted
    LU, and every row stays unitary to 1e-12."""
    calls = []
    real = np.linalg.solve

    def counting(a, b):
        calls.append(a.shape)
        return real(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting)
    sched = map_schedule(HamiltonianSchedule.from_samples(
        [SX, SY, SZ], [[0.0, 1.0, 0.0, 0.0], [5.0, 1.0, 0.3, -0.2]]), 1.5)
    _, us = propagate(sched, np.eye(4), 0.0, 5.0, 1.0)
    assert calls == [(5, 4, 4)]
    drift = us.conj().swapaxes(1, 2) @ us - np.eye(4)
    assert np.max(np.linalg.norm(drift, 2, axis=(1, 2))) <= 1e-12


def test_sampled_propagate_takes_a_vector_state(rng):
    """A 1-D state runs through the Magnus steps as the column of the
    same entries does, over several periods."""
    knots = np.linspace(0.0, 1.0, 5)
    sched = HamiltonianSchedule.from_samples(
        [SX, SY, SZ], np.column_stack([knots, rng.uniform(-1, 1, (5, 3))]))
    psi = _haar(rng, 2)[:, 0]
    _, vec = propagate(sched, psi, 0.0, 1.0, 1e-2)
    _, col = propagate(sched, psi[:, None], 0.0, 1.0, 1e-2)
    assert vec.shape == (101, 2)
    assert np.array_equal(vec, col[..., 0])


def test_sampled_two_level_flow_stays_unitary(rng):
    """At d = 2 the Pade step is solved in closed form, not by LAPACK;
    over 10^4 steps of a 201-knot schedule on the Pauli matrices every row
    stays unitary (3.6e-14 here, 2.4e-14 with LAPACK's solve)."""
    knots = np.linspace(0.0, 10.0, 201)
    sched = HamiltonianSchedule.from_samples(
        [SX, SY, SZ], np.column_stack([knots, rng.uniform(-3, 3, (201, 3))]))
    _, us = propagate(sched, np.eye(2), 0.0, 10.0, 1e-3)
    assert len(us) == 10_001
    drift = us.conj().swapaxes(1, 2) @ us - np.eye(2)
    assert np.max(np.linalg.norm(drift, 2, axis=(1, 2))) <= 1e-12


def test_sampled_ci_flow_is_not_reported_as_symmetry_violation(monkeypatch):
    """A two-knot sampled CI(2) schedule at dt = 0.05: RK4 step matrices
    left the symmetric chart by 1.2e-9 to 2.4e-7 within two steps on all
    ten seeds.  The cross-check's RK4 steps may fail at this step size;
    with that check off, the whole span passes the chart rules, or the
    orbit leaves the compact chart."""
    spec = ManifoldSpec(Family.CI, 2)
    z0 = np.array([[0.2, 0.1], [0.1, -0.3]])
    for seed in range(10):
        rng = np.random.default_rng(seed)
        sched = HamiltonianSchedule.from_samples(
            [sp_compatible_generator(rng, 2, Family.CI)],
            [[0.0, 1.0], [5.0, 0.5]])
        for tol in (CROSS_CHECK_TOL, math.inf):
            monkeypatch.setattr(kphase.dynamics, "CROSS_CHECK_TOL", tol)
            try:
                trajectory(spec, z0, sched, 5.0, 0.05)
            except (CrossCheckFailure, ChartOverflow):
                pass


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_ci_drift_is_not_reported_as_symmetry_violation(seed):
    """The CI(2) compact evolve generator (spectrum +-1, +-2 tilted by a
    symplectic rotation of norm 0.3) at dt = 0.04.  RK4 step matrices
    drifted off the symmetric chart by about 1.6e-9 here, which the path
    guard reported as invalid input; the coarse grid may still fail the
    cross-check, whose RK4 steps are coarse there."""
    rng = np.random.default_rng([seed, 1])
    # The draws of the AIII(3,2) call that precedes it in the workload.
    rng.standard_normal((2, 5, 5)), rng.random((2, 3, 2))
    K = sp_compatible_generator(rng, 2, Family.CI)
    K = K / np.linalg.norm(K, 2)
    V = expm_hermitian_generator(K, 0.3)
    H = V @ np.diag([1.0, 2.0, -1.0, -2.0]) @ V.conj().T
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    z0 = 0.3 * (b + b.T) / np.linalg.norm(b + b.T, 2)
    sched = HamiltonianSchedule.constant([(H + H.conj().T) / 2.0], [1.0])
    try:
        traj = trajectory(ManifoldSpec(Family.CI, 2), z0, sched,
                          2.04 * math.pi, 0.04)
    except CrossCheckFailure:
        return
    assert traj.cross_check_error <= 1e-6


def test_schedule_at_matches_pointwise_calls():
    sched = HamiltonianSchedule.from_samples(
        [SX, SZ], [[0.0, 1.0, 0.5], [1.0, -0.5, 2.0], [3.0, 0.25, -1.0]])
    ts = np.concatenate([np.linspace(0.0, 3.0, 17), [1.0, -5e-13, 3.0 + 5e-13]])
    stack = sched.at(ts)
    assert stack.shape == (len(ts), 2, 2)
    assert np.array_equal(stack, np.stack([sched(t) for t in ts]))
    assert np.array_equal(sched.at([1.0])[0], -0.5 * SX + 2.0 * SZ)
    for outside in ([0.5, 3.1], [-1e-9]):
        with pytest.raises(ScheduleGap):
            sched.at(outside)
    const = HamiltonianSchedule.constant([SX, SZ], [0.3, -0.7])
    assert np.array_equal(const.at(ts), np.stack([const(t) for t in ts]))


def test_trajectory_evaluates_schedule_once_per_block(monkeypatch):
    """Each chunk interpolates its coefficient rows once; the Magnus steps
    and the check's stage matrices both come from those rows."""
    calls = {"__call__": 0, "at": 0, "_coefficients_at": 0}

    def counted(name):
        real = getattr(HamiltonianSchedule, name)

        def wrapper(self, *args):
            calls[name] += 1
            return real(self, *args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(HamiltonianSchedule, name, counted(name))
    n = 2 * _chunk_steps(4) + 37
    sched = HamiltonianSchedule.from_samples(
        [SX, SZ], [[0.0, 0.4, 0.9], [n * 1e-3, 0.6, 0.7]])
    traj = trajectory(cp1(), 0.2, sched, n * 1e-3, 1e-3)
    assert len(traj.times) == n + 1
    assert calls == {"__call__": 0, "at": 0, "_coefficients_at": 3}


def test_sampled_propagate_assembles_no_matrices(monkeypatch, rng):
    """On a sampled schedule the Magnus path forms every exponent from the
    coefficient rows and the commutator table: ``propagate`` never
    assembles an H stack, for a unitary or for a spin-3/2 column.  Only
    the trajectory's RK4 check assembles, twice per chunk: at the step
    boundaries, read as the steps' starts and ends, and at the midpoints."""
    assembled = []
    real = kphase.dynamics._assemble

    def counting(generators, coefficients):
        assembled.append(len(coefficients))
        return real(generators, coefficients)

    knots = np.linspace(0.0, 3.0, 31)
    sched = HamiltonianSchedule.from_samples(
        [SX, SY, SZ],
        np.column_stack([knots, rng.uniform(-0.6, 0.6, (31, 3))]))
    spin = map_schedule(sched, 1.5)
    monkeypatch.setattr(kphase.dynamics, "_assemble", counting)
    n = 2 * _chunk_steps(16) + 37
    propagate(sched, np.eye(2), 0.0, n * 1e-3, 1e-3)
    propagate(spin, np.eye(4)[:, :1], 0.0, n * 1e-3, 1e-3)
    schrodinger_evolve(np.eye(4)[0], spin, n * 1e-3, 1e-3)
    assert assembled == []
    trajectory(cp1(), 0.2, sched, 1.0, 1e-3)
    assert assembled == [1001, 1000]


def test_assemble_is_the_generator_sum(rng):
    """The one-product assembly agrees with the generator-by-generator sum
    to 1e-15 of the sum of the terms' sizes, for a stack of rows and for
    one row."""
    gens = [_defining_generator(rng, ManifoldSpec(Family.AIII, 3, 2))
            for _ in range(4)]
    coeffs = rng.standard_normal((7, 4))
    out = kphase.dynamics._assemble(gens, coeffs)
    ref = np.zeros((7, 5, 5), dtype=complex)
    scale = np.zeros((7, 5, 5))
    for c, g in zip(coeffs.T, gens):
        ref = ref + c[:, None, None] * g
        scale = scale + np.abs(c[:, None, None] * g)
    assert out.shape == ref.shape
    assert np.all(np.abs(out - ref) <= 1e-15 * scale)
    assert np.all(np.abs(kphase.dynamics._assemble(gens, coeffs[0]) - ref[0])
                  <= 1e-15 * scale[0])


def test_expectation_values(rng):
    spec = cp1()
    assert expectation(spec, 1, 0.0, SZ) == pytest.approx(1.0, abs=1e-8)
    assert expectation(spec, 3, 0.0, SZ) == pytest.approx(3.0, abs=1e-7)
    assert expectation(spec, 1, 1.0, SZ) == pytest.approx(0.0, abs=1e-8)
    # identity scales with the level and the block size
    assert expectation(spec, 2, 0.3j, np.eye(2, dtype=complex)) == (
        pytest.approx(2.0, abs=1e-7)
    )
    spec2 = ManifoldSpec(Family.AIII, 2, 1)
    z = random_point(spec2, rng, scale=0.4)
    assert expectation(spec2, 1, z, np.eye(3, dtype=complex)) == (
        pytest.approx(2.0, abs=1e-7)
    )


def test_expectation_matches_spin_half_bloch(rng):
    spec = cp1()
    for _ in range(10):
        z = complex(*rng.standard_normal(2)) * 0.8
        psi = np.array([1.0, z], complex)
        psi /= np.linalg.norm(psi)
        for H in (SX, SY, SZ):
            ref = float(np.real(np.vdot(psi, H @ psi)))
            assert expectation(spec, 1, z, H) == pytest.approx(ref, abs=1e-8)


def test_cycle_detection_precession():
    spec = cp1()
    sched = HamiltonianSchedule.constant([SZ], [1.0])
    # ray period pi, integrate two periods
    traj = trajectory(spec, 0.7, sched, 2.0 * math.pi, 1e-3)
    info = find_cycle(traj.times, ray_distances(traj))
    assert info.time == pytest.approx(math.pi, abs=1e-6)
    assert np.max(ray_distances(traj)) >= STATIONARY_TOL


def test_cycle_stationary_returns_first_index():
    spec = cp1()
    sched = HamiltonianSchedule.constant([SZ], [1.0])
    traj = trajectory(spec, 0.0, sched, 1.0, 1e-2)
    assert np.max(ray_distances(traj)) < STATIONARY_TOL
    info = find_cycle(traj.times, ray_distances(traj))
    assert info.index == 1
    assert info.time == pytest.approx(traj.times[1])


def test_cycle_not_found():
    spec = cp1()
    sched = HamiltonianSchedule.constant([SZ], [1.0])
    traj = trajectory(spec, 0.7, sched, 1.0, 1e-2)
    with pytest.raises(NoCycleFound):
        find_cycle(traj.times, ray_distances(traj))


def test_ray_distances_start_zero():
    spec = cp1()
    sched = HamiltonianSchedule.constant([SZ], [1.0])
    traj = trajectory(spec, 0.5, sched, 1.0, 1e-2)
    d = ray_distances(traj)
    assert d[0] == 0.0
    assert np.all(d >= 0.0)


def _scanned_cycle(times, d):
    """``find_cycle`` as a loop over the samples: the first escape past
    the tolerance, then the first return below it, one sample at a
    time."""
    n = len(d) - 1
    spacing = float(np.median(np.abs(np.diff(d)))) if n > 1 else 0.0
    tol = max(5.0 * spacing, 1e-12)
    escape = 1
    if d[1] < tol:
        escape = next((k for k in range(1, n + 1) if d[k] >= tol), None)
        if escape is None:
            return CycleInfo(1, float(times[1]))
    k_ret = next((k for k in range(escape, n + 1) if d[k] < tol), None)
    if k_ret is None:
        raise NoCycleFound("no return")
    while k_ret + 1 <= n and d[k_ret + 1] < d[k_ret]:
        k_ret += 1
    t_star = float(times[k_ret])
    if 1 <= k_ret <= n - 1:
        t_star = kphase.dynamics._parabola_vertex(times, d, k_ret)
    elif k_ret == n and n >= 2:
        t_star = kphase.dynamics._parabola_vertex(times, d, n - 1)
        t_star = min(max(t_star, float(times[n - 1])), float(times[n]))
    return CycleInfo(k_ret, t_star)


# Distances with ties (a few repeated values), zeros, subnormals and NaN.
_distance_entries = st.one_of(
    st.floats(0.0, 2.0, allow_subnormal=True),
    st.sampled_from([0.0, 0.0, 0.5, 0.5, 1.0, 5e-324, 1e-310, 2.5e-308,
                     math.nan]),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.lists(_distance_entries, min_size=3, max_size=64))
def test_find_cycle_takes_np_median_bit_for_bit(d):
    """The median step of ``find_cycle`` is ``np.median``'s, bit for bit
    and NaN where it is NaN, on odd and even counts; the cycle it finds,
    or the ``NoCycleFound`` it raises, is the scan's with ``np.median``."""
    d = np.array(d)
    t = np.linspace(0.0, 1.0, len(d))
    step = np.abs(np.diff(d))
    got = np.float64(kphase.dynamics._median(step))
    assert got.tobytes() == np.float64(np.median(step)).tobytes()
    if np.isnan(d).any():
        with pytest.raises(NoCycleFound, match="^no return below tolerance "
                                               "nan within the span$"):
            find_cycle(t, d)
        return
    try:
        want = _scanned_cycle(t, d)
    except NoCycleFound:
        with pytest.raises(NoCycleFound):
            find_cycle(t, d)
        return
    assert find_cycle(t, d) == want


@pytest.mark.parametrize("case", ["on-ray", "lingers", "early-escape",
                                  "last-sample", "no-return"])
def test_find_cycle_matches_a_sample_by_sample_scan(case, rng):
    """``find_cycle``'s array scans give the ``CycleInfo`` of a loop over
    the samples, on seeded distance arrays: a start that stays on the
    ray, one that lingers on it before it leaves and returns, an escape
    at the first sample, a return at the last sample, and no return."""
    for _ in range(20):
        n = int(rng.integers(40, 400))
        t = np.linspace(0.0, 1.0, n + 1)
        period = rng.uniform(0.3, 0.9)
        d = np.abs(np.sin(np.pi * t / period + 0.01 * rng.standard_normal()))
        if case == "on-ray":
            d = 1e-14 * rng.random(n + 1)
        elif case == "lingers":
            d[:n // 5] = 1e-14 * rng.random(n // 5)
        elif case == "last-sample":
            d = np.abs(np.sin(np.pi * t)) * (1.0 + 0.1 * np.sin(5.0 * t))
        elif case == "no-return":
            d = np.abs(np.sin(0.4 * np.pi * t)) + 1e-3 * rng.random(n + 1)
        d[0] = 0.0
        try:
            want = _scanned_cycle(t, d)
        except NoCycleFound:
            assert case == "no-return"
            with pytest.raises(NoCycleFound):
                find_cycle(t, d)
            continue
        assert case != "no-return"
        assert find_cycle(t, d) == want
        if case == "on-ray":
            assert want.index == 1
        if case == "last-sample":
            assert want.index == n
