"""Injected faults that the trajectory's cross-check must catch.

The cases follow the benchmark's calls: the three evolve calls (AIII(3,2)
and CI(2) compact with tilted integer spectra, DIII(3) non-compact with
H = diag(P, -P^T)) at dt = 4e-3, and the oracle call's 201-knot sampled
schedule on CP1 at dt = 1e-3.  The evolve calls' schedules are constant,
where the unitary comes in closed form: no Magnus step runs, so neither a
dropped commutator nor a shifted stage time is a fault there.  Each evolve
call therefore also runs as a sampled twin, with a second generator of the
chart's algebra on a 201-knot random coefficient, which every fault
reaches.
"""

import math
from functools import partial

import numpy as np
import pytest

import kphase.dynamics
from kphase import (
    CrossCheckFailure,
    Family,
    HamiltonianSchedule,
    ManifoldSpec,
    cp1,
    map_schedule,
    trajectory,
)

from finite_difference import expm_hermitian_generator, mobius_act

SX = np.array([[0.0, 1.0], [1.0, 0.0]], complex)
SY = np.array([[0.0, -1j], [1j, 0.0]], complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], complex)
EVOLVE_T = 1.02 * 2.0 * math.pi


def _hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2.0


def _unit(m):
    return m / np.linalg.norm(m, 2)


def _symplectic_hermitian(rng, p):
    b = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
    P, Q = _hermitian(rng, p), (b + b.T) / 2.0
    return np.block([[P, Q], [Q.conj().T, -P.T]])


def _evolve_case(rng, family, sampled):
    """An evolve-benchmark-style call: its spec, start, schedule, span and
    step; ``sampled`` adds a second generator on a random coefficient."""
    if family is Family.AIII:
        spec = ManifoldSpec(Family.AIII, 3, 2)
        lam = np.array([2.0, 1.0, 0.0, -1.0, -2.0])
        V = expm_hermitian_generator(_unit(_hermitian(rng, 5)), 0.3)
        omega = lam[:3, None] - lam[None, 3:]
        w0 = (np.exp(2j * math.pi * rng.random((3, 2)))
              * (0.5 + rng.random((3, 2))) / omega**2)
        z0 = mobius_act(spec, V, 0.3 * _unit(w0))
        H = V @ np.diag(lam) @ V.conj().T
        G = _hermitian(rng, 5)
    elif family is Family.CI:
        spec = ManifoldSpec(Family.CI, 2)
        V = expm_hermitian_generator(_unit(_symplectic_hermitian(rng, 2)),
                                     0.3)
        H = V @ np.diag([1.0, 2.0, -1.0, -2.0]) @ V.conj().T
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        z0 = 0.3 * _unit(b + b.T)
        G = _symplectic_hermitian(rng, 2)
    else:
        spec = ManifoldSpec(Family.DIII, 3, compact=False)
        W = expm_hermitian_generator(_hermitian(rng, 3), 1.0)
        P = W @ np.diag([0.0, 1.0, 3.0]) @ W.conj().T
        H = np.block([[P, np.zeros((3, 3))], [np.zeros((3, 3)), -P.T]])
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        z0 = 0.5 * _unit(b - b.T)
        g = _hermitian(rng, 3)
        G = np.block([[g, np.zeros((3, 3))], [np.zeros((3, 3)), -g.T]])
    H = (H + H.conj().T) / 2.0
    if sampled:
        knots = np.linspace(0.0, EVOLVE_T, 201)
        sched = HamiltonianSchedule.from_samples(
            [H, _unit(G)], np.column_stack(
                [knots, np.ones(201), rng.uniform(-0.3, 0.3, 201)]))
    else:
        sched = HamiltonianSchedule.constant([H], [1.0])
    return spec, z0, sched, EVOLVE_T, 4e-3


def _oracle_case(rng):
    """The oracle-compare call: a 201-knot sampled schedule on CP1."""
    knots = np.round(np.arange(201) * 0.05, 10)
    coeffs = rng.uniform(-0.6, 0.6, size=(201, 3))
    sched = HamiltonianSchedule.from_samples(
        [SX, SY, SZ], np.column_stack([knots, coeffs]))
    return cp1(), 0.0, sched, 10.0, 1e-3


CASES = {
    **{f"{family.value}-{'sampled' if sampled else 'constant'}":
       partial(_evolve_case, family=family, sampled=sampled)
       for family in (Family.AIII, Family.CI, Family.DIII)
       for sampled in (False, True)},
    "oracle": _oracle_case,
}

_advance = kphase.dynamics._advance
_exact_rows = kphase.dynamics._exact_rows
_chart_images = kphase.dynamics._chart_images
_step_matrices = kphase.dynamics._step_matrices
_riccati = kphase.dynamics._riccati


def _shifted_advance(Y, out, table, stages, h):
    """Magnus steps on the coefficient rows at t + h/2, t + h and
    t + 3h/2: the next step's midpoint, or past the chunk's end the linear
    extrapolation."""
    _, c2, c3 = stages
    ahead = np.concatenate((c2[1:], 2.0 * c3[-1:] - c2[-1:]))
    _advance(Y, out, table, (c2, c3, ahead), h)


# Each fault replaces functions of ``kphase.dynamics``.  All but the sign
# flip act on the Mobius route only, which the check must see; the sign
# flip acts on the check's own RK4 step.  H is linear in the coefficient
# rows, so scaling or shifting the rows scales or shifts H.
FAULTS = {
    "H scaled by 1 + 1e-5": {
        "_advance": lambda Y, out, table, stages, h: _advance(
            Y, out, table, [c * (1.0 + 1e-5) for c in stages], h),
        "_exact_rows": lambda schedule, Y0: _exact_rows(
            HamiltonianSchedule.constant([schedule(0.0)], [1.0 + 1e-5]), Y0),
    },
    # Every block of U transposed and the off-diagonal pair exchanged:
    # on 1 x 1 blocks transposing one block alone would change nothing.
    # The chart stage holds U stack-last, (d, d, n).
    "Mobius blocks transposed": {
        "_chart_images": lambda spec, U, z: _chart_images(
            spec, np.swapaxes(U, 0, 1), z),
    },
    # With c1 and c3 both replaced by their mean, K keeps its first-order
    # term and loses the commutator.
    "Magnus commutator dropped": {
        "_step_matrices": lambda table, stages, h: _step_matrices(
            table, ((stages[0] + stages[2]) / 2.0, stages[1],
                    (stages[0] + stages[2]) / 2.0), h),
    },
    "stage times shifted by h/2": {"_advance": _shifted_advance},
    "Riccati right-hand side negated": {
        "_riccati": lambda blocks, z: -_riccati(blocks, z),
    },
}
SAMPLED_ONLY = {"Magnus commutator dropped", "stage times shifted by h/2"}


@pytest.mark.parametrize("case", list(CASES))
def test_cases_pass_the_cross_check(case, rng):
    traj = trajectory(*CASES[case](rng))
    assert traj.cross_check_error <= 1e-7


@pytest.mark.parametrize("case, fault", [
    (case, fault) for case in CASES for fault in FAULTS
    if fault not in SAMPLED_ONLY or not case.endswith("constant")])
def test_injected_fault_fails_the_cross_check(case, fault, monkeypatch, rng):
    args = CASES[case](rng)
    for name, fn in FAULTS[fault].items():
        monkeypatch.setattr(kphase.dynamics, name, fn)
    with pytest.raises(CrossCheckFailure):
        trajectory(*args)


def _spin_oracle_case(rng):
    """The oracle call's schedule mapped to spin 3/2, as its quantum
    column runs."""
    spec, z0, sched, T, dt = _oracle_case(rng)
    return spec, z0, map_schedule(sched, 1.5), T, dt


@pytest.mark.parametrize("case", [
    *(case for case in CASES if case.endswith("sampled")), "oracle",
    "oracle-spin-3/2"])
def test_table_exponents_match_the_stage_formula(case, rng):
    """K from the coefficient rows and the commutator table equals the
    stage formula on assembled H, ``(h/6) (H1 + 4 H2 + H3)`` plus
    ``i (h^2/12) (X - X^dagger)`` with ``X = H1 H3``, on every step of the
    call.  The commutator term is 2e-6 to 3e-5 of K here, so a dropped or
    mis-signed commutator fails the 1e-14 bound."""
    case_fn = _spin_oracle_case if case == "oracle-spin-3/2" else CASES[case]
    _, _, sched, T, dt = case_fn(rng)
    n, h = kphase.dynamics._grid(0.0, T, dt)
    stages = kphase.dynamics._stages(sched, 0.0, h, 0, n)
    H1, H2, H3 = (sched._matrices(c) for c in stages)
    x = H1 @ H3
    ref = ((h / 6.0) * (H1 + 4.0 * H2 + H3)
           + (1j * h * h / 12.0) * (x - x.conj().swapaxes(-1, -2)))
    # The exponents come stack-last, (d, d, n).
    k = kphase.dynamics._magnus_exponents(sched._table, stages, h)
    k = k.transpose(2, 0, 1)
    assert k.shape == ref.shape == (n,) + sched.generators[0].shape
    assert np.max(np.abs(k - ref)) <= 1e-14 * np.max(np.abs(ref))
