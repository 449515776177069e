import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kphase import (
    ChartOverflow,
    DimensionMismatch,
    HamiltonianSchedule,
    InvalidSpin,
    NotCoherent,
    NotCyclic,
    bloch_projection,
    coherent_vector,
    map_schedule,
    map_to_spin,
    quantum_phases,
    schrodinger_evolve,
    spin_operators,
    wrap_angle,
)

SX = np.array([[0.0, 1.0], [1.0, 0.0]], complex)
SY = np.array([[0.0, -1j], [1j, 0.0]], complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], complex)


def test_spin_operators_algebra():
    for j in (0.5, 1.0, 1.5, 2.0):
        rep = spin_operators(j)
        assert rep.dimension == int(2 * j) + 1
        comm = rep.j1 @ rep.j2 - rep.j2 @ rep.j1
        assert np.max(np.abs(comm - 1j * rep.j3)) < 1e-12
        casimir = rep.j1 @ rep.j1 + rep.j2 @ rep.j2 + rep.j3 @ rep.j3
        assert np.max(
            np.abs(casimir - j * (j + 1) * np.eye(rep.dimension))
        ) < 1e-12
    with pytest.raises(InvalidSpin):
        spin_operators(0.3)
    with pytest.raises(InvalidSpin):
        spin_operators(0)


def test_spin_half_is_pauli_over_two():
    rep = spin_operators(0.5)
    assert np.allclose(rep.j1, SX / 2.0)
    assert np.allclose(rep.j2, SY / 2.0)
    assert np.allclose(rep.j3, SZ / 2.0)


def test_coherent_vector_reference_and_norm(rng):
    v = coherent_vector(1.5, 0.0)
    assert np.array_equal(v, np.array([1, 0, 0, 0], complex))
    for j in (0.5, 1.0, 1.5):
        z = complex(*rng.standard_normal(2))
        assert np.linalg.norm(coherent_vector(j, z)) == pytest.approx(1.0)


def test_coherent_vector_components():
    z = 0.6 - 0.3j
    v = coherent_vector(1.0, z)
    norm = 1.0 + abs(z) ** 2
    assert v[0] == pytest.approx(1.0 / norm)
    assert v[1] == pytest.approx(math.sqrt(2.0) * z / norm)
    assert v[2] == pytest.approx(z**2 / norm)


@pytest.mark.parametrize("z", [1e5, 1e8 * np.exp(0.3j)])
def test_coherent_vector_far_from_the_origin(z):
    """At j = 32, z^k overflowed past |z| ~ 1e5 when formed on its own."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = coherent_vector(32.0, z)
    assert np.all(np.isfinite(v))
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    assert v[-1] == pytest.approx((z / abs(z)) ** 64, abs=1e-8)
    assert abs(v[-2]) == pytest.approx(8.0 / abs(z), rel=1e-8)


def _coherent_reference(j, z):
    """One coherent vector by the branch formulas of the docstring, one
    label at a time in Python scalars."""
    n = int(round(2 * j))
    k = np.arange(n + 1)
    root = np.sqrt([float(math.comb(n, m)) for m in k])
    r = abs(z)
    if r <= 1.0:
        return root * z**k / (1.0 + r * r) ** (n / 2.0)
    return root * (z / r) ** k * r ** (k - n) / (1.0 + r**-2) ** (n / 2.0)


@pytest.mark.parametrize("j", [0.5, 1.5, 32.0])
def test_coherent_vector_on_an_array_of_labels(j):
    """An array of labels gives one vector per label, each equal to that
    label's own vector bit for bit and within one ulp of the branch
    formulas taken one label at a time."""
    labels = np.array([[0.0, 1e-3, -1e-3j, 1e-3 * np.exp(2.0j)],
                       [1.0, np.exp(0.7j), 1e200, 1e200 * np.exp(-2.1j)]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vectors = coherent_vector(j, labels)
    assert vectors.shape == labels.shape + (int(2 * j) + 1,)
    for index in np.ndindex(labels.shape):
        z = complex(labels[index])
        one = coherent_vector(j, z)
        assert one.shape == (int(2 * j) + 1,)
        assert np.array_equal(vectors[index], one)
        ref = _coherent_reference(j, z)
        for part in (np.real, np.imag):
            assert np.all(np.abs(part(one) - part(ref))
                          <= np.spacing(np.abs(part(ref))))


def test_map_to_spin_identity_on_spin_half():
    for g in (SX, SY, SZ, np.eye(2, dtype=complex), SX + 0.3 * np.eye(2)):
        assert np.max(np.abs(map_to_spin(g, 0.5) - g)) < 1e-13


def test_map_to_spin_respects_commutators(rng):
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    a = (a + a.conj().T) / 2.0
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = (b + b.conj().T) / 2.0
    for j in (1.0, 1.5):
        ma, mb = map_to_spin(a, j), map_to_spin(b, j)
        mc = map_to_spin((a @ b - b @ a) / 1j, j)
        # identity parts drop out of commutators on both sides
        assert np.max(np.abs((ma @ mb - mb @ ma) / 1j - mc)) < 1e-12


def test_map_to_spin_rejects_nonhermitian():
    with pytest.raises(DimensionMismatch):
        map_to_spin(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)


def test_map_schedule_shapes():
    sched = HamiltonianSchedule.from_samples(
        [SX, SZ], [[0.0, 1.0, 0.5], [2.0, 0.0, 1.0]]
    )
    mapped = map_schedule(sched, 1.5)
    assert mapped.dim == 4
    assert np.allclose(mapped(1.0), map_to_spin(sched(1.0), 1.5))


def test_schrodinger_constant_field_phases():
    # diagonal field, closed-form component phases
    b = 0.7
    sched = HamiltonianSchedule.constant([SZ], [b])
    psi0 = np.array([1.0, 1.0], complex) / math.sqrt(2.0)
    T = 2.0
    traj = schrodinger_evolve(psi0, sched, T, 1e-3)
    expected = np.array(
        [np.exp(-1j * b * T), np.exp(1j * b * T)]
    ) / math.sqrt(2.0)
    assert np.max(np.abs(traj.final_state - expected)) < 1e-10


def test_schrodinger_norm_and_grid():
    sched = HamiltonianSchedule.constant([SX, SZ], [0.4, 0.3])
    psi0 = np.array([1.0, 0.0], complex)
    traj = schrodinger_evolve(psi0, sched, 5.0, 1e-3)
    norms = np.linalg.norm(traj.states, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-10
    assert len(traj.times) == len(traj.states)
    with pytest.raises(DimensionMismatch):
        schrodinger_evolve(np.array([2.0, 0.0]), sched, 1.0, 1e-2)


def test_quantum_phases_half_turn():
    sched = HamiltonianSchedule.constant([SZ], [1.0])
    z0 = 1.0  # equator start
    psi0 = coherent_vector(0.5, z0)
    traj = schrodinger_evolve(psi0, sched, math.pi, 1e-3)
    alpha, beta, gamma = quantum_phases(traj, sched)
    # The exact overlap is -1, so the sign of a rounding residue in its
    # imaginary part picks +pi or -pi: compare on the circle.
    assert abs(wrap_angle(alpha - math.pi)) < 1e-9
    assert beta == pytest.approx(0.0, abs=1e-9)
    assert abs(wrap_angle(gamma - math.pi)) < 1e-9


def test_total_phase_sign_convention():
    """alpha is defined by psi(T) = exp(-i alpha) psi(0): under H = c I the
    state picks up exp(-i c T), so alpha = beta = c T and gamma = 0."""
    sched = HamiltonianSchedule.constant([np.eye(2, dtype=complex)], [0.3])
    traj = schrodinger_evolve(coherent_vector(0.5, 0.4 + 0.2j), sched, 2.0,
                              1e-3)
    alpha, beta, gamma = quantum_phases(traj, sched)
    assert alpha == pytest.approx(0.6, abs=1e-12)
    assert beta == pytest.approx(0.6, abs=1e-12)
    assert abs(gamma) < 1e-12


def test_quantum_phases_rejects_open_run():
    sched = HamiltonianSchedule.constant([SZ], [1.0])
    psi0 = coherent_vector(0.5, 1.0)
    traj = schrodinger_evolve(psi0, sched, 1.0, 1e-3)
    with pytest.raises(NotCyclic):
        quantum_phases(traj, sched)


def test_quantum_phases_decomposition_random_axis(rng):
    # half-turn field along a random axis closes every ray
    n = rng.standard_normal(3)
    n /= np.linalg.norm(n)
    H2 = n[0] * SX + n[1] * SY + n[2] * SZ
    for j in (0.5, 1.0, 1.5):
        sched = HamiltonianSchedule.constant([map_to_spin(H2, j)], [1.0])
        z0 = complex(*rng.standard_normal(2)) * 0.5
        psi0 = coherent_vector(j, z0)
        traj = schrodinger_evolve(psi0, sched, math.pi, 1e-3)
        alpha, beta, gamma = quantum_phases(traj, sched)
        assert abs(wrap_angle(alpha - beta - gamma)) < 1e-12


def test_quantum_phases_sampled_beta_matches_assembled_energies(rng):
    # beta sums per-generator expectations; the reference assembles H(t)
    knots = np.linspace(0.0, 2.0, 9)
    sched = map_schedule(HamiltonianSchedule.from_samples(
        [SX, SY, SZ, np.eye(2, dtype=complex)],
        np.column_stack([knots, rng.uniform(-1, 1, size=(9, 4))])), 1.5)
    traj = schrodinger_evolve(coherent_vector(1.5, 0.3 - 0.2j), sched, 2.0,
                              1e-2)
    _, beta, _ = quantum_phases(traj, sched, cyclicity_tol=1.0)
    psi = traj.states
    energies = np.einsum("ki,kij,kj->k", psi.conj(), sched.at(traj.times),
                         psi).real
    reference = np.sum(np.diff(traj.times) * (energies[:-1] + energies[1:]))
    assert beta == pytest.approx(0.5 * reference, abs=1e-12)


def test_bloch_projection_round_trip(rng):
    for j in (0.5, 1.0, 1.5, 2.5):
        for _ in range(8):
            z = complex(*rng.standard_normal(2))
            back = bloch_projection(coherent_vector(j, z), j)
            assert abs(back - z) < 1e-7 * max(1.0, abs(z))


def test_bloch_projection_rejects_incoherent():
    with pytest.raises(NotCoherent):
        bloch_projection(np.array([0.0, 1.0, 0.0], complex), 1.0)


def test_bloch_projection_pole_overflow():
    with pytest.raises(ChartOverflow):
        bloch_projection(np.array([0.0, 1.0], complex), 0.5)


@pytest.mark.parametrize("j", [1.0, 1.5, 4.0])
def test_bloch_projection_lowest_weight_overflows(j):
    # the lowest-weight basis state is coherent, at the point at infinity
    pole = np.zeros(int(2 * j) + 1, complex)
    pole[-1] = 1.0
    with pytest.raises(ChartOverflow, match=r"\(row 0\)$"):
        bloch_projection(pole, j)


def test_bloch_projection_near_coherent_rows_at_spin_32(rng):
    # rows within eps of a coherent ray whose first component, about
    # (1 + |z|^2)^-32, is far below eps
    j, zs, rows = 32, [], []
    for _ in range(200):
        z = rng.uniform(0.75, 2.5) * np.exp(2j * math.pi * rng.uniform())
        eps = rng.uniform(1e-8, 5e-7)
        c = coherent_vector(j, z)
        d = rng.standard_normal(65) + 1j * rng.standard_normal(65)
        d -= np.vdot(c, d) * c
        rows.append(c + eps * d / np.linalg.norm(d))
        zs.append(z)
    states = np.array(rows)
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    labels = bloch_projection(states, j)

    def overlap(w, psi):
        # renormalised, since (1 + |w|^2)^32 carries rounding of 1e-14
        c = coherent_vector(j, w)
        return abs(np.vdot(c / np.linalg.norm(c), psi))

    for w, z, psi in zip(labels, zs, states):
        assert overlap(w, psi) >= overlap(z, psi) - 1e-14


@pytest.mark.parametrize("j", [0.5, 1.0, 1.5, 3.0, 8.0])
def test_bloch_projection_round_trip_near_the_pole(j):
    # both hemisphere branches are needed: one formula alone cancels here
    for r in (1e2, 1e4):
        for z in r * np.exp(2j * math.pi * np.arange(5) / 5):
            back = bloch_projection(coherent_vector(j, z), j)
            assert abs(back - z) <= 1e-12 * abs(z)


@pytest.mark.parametrize("j", [0.5, 1.5, 8.0, 32.0])
def test_bloch_projection_round_trip_far_from_the_origin(j):
    # at j = 32 and |z| past ~250, |p(w)|^2 and (1 + |w|^2)^(2j) overflow
    # when formed separately
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r in (3e2, 1e3, 1e4):
            for z in r * np.exp(2j * math.pi * (np.arange(5) + 0.5) / 5):
                back = bloch_projection(coherent_vector(j, z), j)
                assert abs(back - z) <= 1e-12 * abs(z)


@pytest.mark.parametrize("j, z", [(1.5, 0.4 + 0.2j), (8.0, 1.3 * np.exp(2.5j))])
def test_bloch_projection_coherence_threshold(j, z):
    """A coherent row mixed at angle a with a state orthogonal to the
    coherent orbit through it (to the row and to its tangent) is a ray at
    distance a from the coherent rays: accepted at half ``coherence_tol``,
    refused at twice it."""
    tol = 1e-6
    n = int(2 * j) + 1
    c = coherent_vector(j, z)
    tangent = np.arange(n) * c / z
    other = np.random.default_rng(7).standard_normal(n) + 0j
    for v in (c, tangent - np.vdot(c, tangent) * c):
        other -= np.vdot(v, other) * v / np.vdot(v, v)
    other /= np.linalg.norm(other)
    for scale, accepted in ((0.5, True), (2.0, False)):
        a = scale * tol
        row = math.cos(a) * c + math.sin(a) * other
        if accepted:
            assert abs(bloch_projection(row, j, tol) - z) <= 1e-9
        else:
            with pytest.raises(NotCoherent, match=r"\(row 0\)$"):
                bloch_projection(row, j, tol)


@pytest.mark.parametrize("j", [0.5, 1.5, 8.0])
def test_bloch_projection_reports_the_earliest_bad_row(j):
    """A NaN row is not coherent and a row at the chart's point at infinity
    overflows; whichever comes first is the one reported."""
    n = int(2 * j) + 1
    good = coherent_vector(j, np.array([0.3, -0.5j, 2.0]))
    nan = np.full(n, np.nan, dtype=complex)
    pole = np.zeros(n, dtype=complex)
    pole[-1] = 1.0
    with pytest.raises(NotCoherent, match=r"\(row 2\)$"):
        bloch_projection(np.vstack([good[:2], nan, pole, good[2]]), j)
    with pytest.raises(ChartOverflow, match=r"\(row 1\)$"):
        bloch_projection(np.vstack([good[:1], pole, nan, good[1:]]), j)
    with pytest.raises(NotCoherent, match=r"\(row 0\)$"):
        bloch_projection(nan, j)


def test_bloch_projection_phase_invariance(rng):
    j = 1.0
    z = -0.7 + 0.25j
    psi = coherent_vector(j, z) * np.exp(0.77j)
    assert abs(bloch_projection(psi, j) - z) < 1e-8


@pytest.mark.parametrize("j", [0.5, 1.0, 1.5, 2.0])
def test_bloch_projection_stack_matches_row_by_row(j):
    # a criterion-4 style path: random piecewise-linear field from the pole
    rng = np.random.default_rng(3)
    knots = np.round(np.arange(201) * 0.05, 10)
    sched = HamiltonianSchedule.from_samples(
        [SX, SY, SZ],
        np.column_stack([knots, rng.uniform(-0.6, 0.6, size=(201, 3))]))
    states = schrodinger_evolve(coherent_vector(j, 0.0),
                                map_schedule(sched, j), 10.0, 1e-2).states
    loop = [bloch_projection(psi, j) for psi in states]
    stacked = bloch_projection(states, j)
    assert stacked.shape == (len(states),)
    assert np.max(np.abs(stacked - np.array(loop))) <= 1e-10

    # rows 5 and 9 at the chart's point at infinity (spin 1/2) or on a
    # non-coherent ray (higher spins): the first of them is reported
    bad = states.copy()
    bad[[5, 9]] = 0.0
    bad[[5, 9], 1] = 1.0
    error = ChartOverflow if j == 0.5 else NotCoherent
    with pytest.raises(error, match=r"\(row 5\)$"):
        bloch_projection(bad, j)


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(
    two_j=st.integers(1, 6),
    rows=st.lists(
        st.tuples(st.floats(-2.5, 2.5), st.floats(-2.5, 2.5),
                  st.floats(-math.pi, math.pi)),
        min_size=1, max_size=6),
)
def test_bloch_projection_stack_round_trips_coherent_rows(two_j, rows):
    j = two_j / 2.0
    zs = np.array([complex(x, y) for x, y, _ in rows])
    states = np.array([coherent_vector(j, z) * np.exp(1j * phase)
                       for z, (_, _, phase) in zip(zs, rows)])
    back = bloch_projection(states, j)
    assert np.all(np.abs(back - zs) <= 1e-7 * np.maximum(1.0, np.abs(zs)))


def test_spin_size_is_bounded():
    assert spin_operators(32).dimension == 65
    for j in (32.5, 1e6, math.inf, math.nan):
        with pytest.raises(InvalidSpin):
            coherent_vector(j, 0.0)
