import math
import warnings

import numpy as np
import pytest

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
    evolve_unitary,
    expectation,
    find_cycle,
    is_stationary,
    mobius_act,
    projective_distance,
    propagate,
    random_point,
    ray_distances,
    riccati_rhs,
    trajectory,
    validate_point,
)
from kphase.dynamics import defining_dimension, expectation_stack

from finite_difference import (
    expm_hermitian_generator,
    fd_expectation,
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


def test_mobius_diagonal_flow():
    spec = cp1()
    t = 0.3
    U = np.diag([np.exp(-1j * t), np.exp(1j * t)])
    z = 0.4 - 0.2j
    out = mobius_act(spec, U, z)
    assert out.entries[0, 0] == pytest.approx(
        z * np.exp(2j * t), abs=1e-14
    )


def test_mobius_quarter_turn_reaches_unit_circle():
    spec = cp1()
    U = expm_hermitian_generator(SX, math.pi / 4.0)
    out = mobius_act(spec, U, 0.0)
    assert abs(out.entries[0, 0]) == pytest.approx(1.0, abs=1e-12)
    assert out.entries[0, 0] == pytest.approx(-1j, abs=1e-12)


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
        assert np.max(np.abs(one.entries - two.entries)) < 1e-10


def test_riccati_rhs_values():
    spec = cp1()
    z = validate_point(spec, 0.5)
    rz = riccati_rhs(spec, SZ, z.entries)
    assert rz[0, 0] == pytest.approx(2j * 0.5, abs=1e-15)
    r0 = riccati_rhs(spec, SX, np.zeros((1, 1), complex))
    assert r0[0, 0] == pytest.approx(-1j, abs=1e-15)


def test_riccati_matches_mobius_derivative(rng):
    spec = ManifoldSpec(Family.CI, 2)
    H = sp_compatible_generator(rng, 2, Family.CI)
    z = random_point(spec, rng, scale=0.3)
    eps = 1e-6
    moved = mobius_act(
        spec, expm_hermitian_generator(H, eps), z, symmetry_tol=1e-9
    )
    fd = (moved.entries - z.entries) / eps
    rhs = riccati_rhs(spec, H, z.entries)
    assert np.max(np.abs(fd - rhs)) < 1e-5


def test_evolve_unitary_half_turn():
    sched = HamiltonianSchedule.constant([SX], [1.0])
    U = evolve_unitary(sched, 0.0, math.pi, 1e-3)
    assert np.max(np.abs(U + np.eye(2))) < 1e-9


def test_evolve_unitary_stays_unitary():
    sched = HamiltonianSchedule.from_samples(
        [SX, SY], [[0.0, 1.0, 0.3], [10.0, -0.5, 1.2]]
    )
    U = evolve_unitary(sched, 0.0, 10.0, 1e-3)
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


def test_expectation_stack_matches_pointwise(rng):
    spec = ManifoldSpec(Family.CI, 2)
    hs = np.array([_defining_generator(rng, spec) for _ in range(4)])
    zs = np.array([random_point(spec, rng, 0.4).entries for _ in range(4)])
    stacked = expectation_stack(spec, 2, zs, hs)
    for value, z, H in zip(stacked, zs, hs):
        assert abs(value - expectation(spec, 2, z, H)) < 1e-13


def test_ray_distances_match_pairwise():
    spec = ManifoldSpec(Family.AIII, 2, 1)
    H = np.diag([1.0, -1.0, 0.5]).astype(complex)
    H[0, 2] = H[2, 0] = 0.3
    traj = trajectory(spec, [[0.2], [0.1j]], HamiltonianSchedule.constant(
        [H], [1.0]), 3.0, 1e-2)
    loop = [projective_distance(spec, traj.point(k), traj.point(0))
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


def test_trajectory_chart_overflow_on_divergence():
    spec = cp1()
    sched = HamiltonianSchedule.constant([SX], [1.0])
    # far start plus coarse step sends the Riccati variable off the chart
    with pytest.raises(ChartOverflow):
        trajectory(spec, 1000.0, sched, 1.0, 0.1)


def test_trajectory_divergence_in_later_block_ends_there():
    spec = cp1()
    # a sudden strong field at step 70 sends the Riccati variable off the
    # chart; the later steps of its block would overflow the unitary
    sched = HamiltonianSchedule.from_samples(
        [SX], [[0.0, 0.0], [0.7049, 0.0], [0.705, 1e6], [5.0, 1e6]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ChartOverflow,
                           match=r"Riccati variable diverged at t = 0\.71$"):
            trajectory(spec, 0.0, sched, 5.0, 1e-2)


def test_trajectory_pole_crossing_breaks_cross_check():
    spec = cp1()
    sched = HamiltonianSchedule.constant([SX], [1.0])
    # grids that straddle the antipode lose dual-route agreement first
    with pytest.raises((CrossCheckFailure, ChartOverflow)):
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
    info = find_cycle(traj)
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


@pytest.mark.parametrize("spec", [
    ManifoldSpec(Family.AIII, 2, 1), cp1(), cp1(compact=False),
    ManifoldSpec(Family.CI, 1), ManifoldSpec(Family.DIII, 3),
], ids=["AIII(2,1)", "CP1", "CP1-noncompact", "CI(1)", "DIII(3)"])
def test_block_stepping_matches_stepwise_reference(spec, rng):
    # 1 x 1 chart points (CP1, its dual, CI(1)) take the scalar Riccati
    # path, the others the matrix path; the reference steps matrices.
    d = defining_dimension(spec)
    gens = [_defining_generator(rng, spec) for _ in range(2)]
    sched = HamiltonianSchedule.from_samples(
        gens, [[0.0, 0.5, 0.2], [0.6, -0.3, 0.7], [1.5, 0.4, -0.5]])
    z0 = 0.2 * random_point(spec, rng).entries
    n, h = 137, 0.01  # not a multiple of the re-projection period
    ref_u, ref_z = stepwise_run(sched, np.eye(d), 0.0, h, n, spec=spec, z0=z0)

    _, states = propagate(sched, np.eye(d), 0.0, n * h, h)
    assert np.max(np.abs(states - ref_u)) <= 1e-12
    col = ref_u[0][:, :1]
    _, cols = propagate(sched, col, 0.0, n * h, h)
    assert np.max(np.abs(cols - stepwise_run(sched, col, 0.0, h, n)[0])) <= 1e-12

    traj = trajectory(spec, z0, sched, n * h, h)
    assert np.max(np.abs(traj.unitaries - ref_u)) <= 1e-12
    assert np.max(np.abs(traj.riccati - ref_z)) <= 1e-12

    # The partial step from sample 49 ends a re-projection period.
    t_end = 49.5 * h
    clip_u, clip_z = stepwise_run(sched, ref_u[49], traj.times[49],
                                  t_end - traj.times[49], 1, k0=49,
                                  spec=spec, z0=ref_z[49])
    cyc = clip_trajectory(traj, sched, t_end)
    assert len(cyc.times) == 51
    assert np.max(np.abs(cyc.unitaries[-1] - clip_u[-1])) <= 1e-12
    assert np.max(np.abs(cyc.riccati[-1] - clip_z[-1])) <= 1e-12


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
    calls = {"call": 0, "at": 0}
    call, at = HamiltonianSchedule.__call__, HamiltonianSchedule.at

    def counted_call(self, t):
        calls["call"] += 1
        return call(self, t)

    def counted_at(self, times):
        calls["at"] += 1
        return at(self, times)

    monkeypatch.setattr(HamiltonianSchedule, "__call__", counted_call)
    monkeypatch.setattr(HamiltonianSchedule, "at", counted_at)
    sched = HamiltonianSchedule.from_samples(
        [SX, SZ], [[0.0, 0.4, 0.9], [1.0, 0.6, 0.7]])
    traj = trajectory(cp1(), 0.2, sched, 1.0, 1e-3)
    n = len(traj.times) - 1
    assert n == 1000
    assert calls["call"] == 0
    assert calls["at"] <= math.ceil(n / 50)


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
    info = find_cycle(traj)
    assert info.time == pytest.approx(math.pi, abs=1e-6)
    assert not is_stationary(traj)


def test_cycle_stationary_returns_first_index():
    spec = cp1()
    sched = HamiltonianSchedule.constant([SZ], [1.0])
    traj = trajectory(spec, 0.0, sched, 1.0, 1e-2)
    assert is_stationary(traj)
    info = find_cycle(traj)
    assert info.index == 1
    assert info.time == pytest.approx(traj.times[1])


def test_cycle_not_found():
    spec = cp1()
    sched = HamiltonianSchedule.constant([SZ], [1.0])
    traj = trajectory(spec, 0.7, sched, 1.0, 1e-2)
    with pytest.raises(NoCycleFound):
        find_cycle(traj)


def test_ray_distances_start_zero():
    spec = cp1()
    sched = HamiltonianSchedule.constant([SZ], [1.0])
    traj = trajectory(spec, 0.5, sched, 1.0, 1e-2)
    d = ray_distances(traj)
    assert d[0] == 0.0
    assert np.all(d >= 0.0)
