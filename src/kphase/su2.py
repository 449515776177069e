"""Exact spin-j quantum evolution used as ground truth for the sphere chart.

States live in the (2j+1)-dimensional irreducible representation with the
basis ordered from highest to lowest weight, so the chart origin z = 0
labels the first basis vector.  A 2 x 2 Hermitian generator written as
c0 I + c . sigma promotes to ``c0 (2j) I + 2 c . J``; at j = 1/2 this is
the identity map, and the coherent expectation of the promoted generator
matches the chart-side cocycle formula at level 2j.  States evolve with the
same propagator as the chart's defining-representation unitary
(``dynamics.propagate``), applied to a column vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import HamiltonianSchedule, propagate
from .errors import (
    ChartOverflow,
    DimensionMismatch,
    InvalidSpin,
    NotCoherent,
    NotCyclic,
)
from .phases import wrap_angle


def _two_j(j) -> int:
    n = 2.0 * float(j)
    if abs(n - round(n)) > 1e-9 or round(n) < 1:
        raise InvalidSpin("2j must be a positive integer")
    return int(round(n))


@dataclass(frozen=True)
class SpinRep:
    """Spin value, dimension, and the three Hermitian angular momenta."""

    j: float
    dimension: int
    j1: np.ndarray
    j2: np.ndarray
    j3: np.ndarray

    def __post_init__(self):
        for op in (self.j1, self.j2, self.j3):
            op.setflags(write=False)

    def casimir(self) -> np.ndarray:
        return self.j1 @ self.j1 + self.j2 @ self.j2 + self.j3 @ self.j3


def spin_operators(j) -> SpinRep:
    """Standard ladder construction, basis ordered highest weight first."""
    n = _two_j(j)
    jj = n / 2.0
    d = n + 1
    raising = np.zeros((d, d), dtype=complex)
    for k in range(1, d):
        m = jj - k
        raising[k - 1, k] = math.sqrt(jj * (jj + 1.0) - m * (m + 1.0))
    lowering = raising.conj().T
    j1 = (raising + lowering) / 2.0
    j2 = (raising - lowering) / 2j
    j3 = np.diag([jj - k for k in range(d)]).astype(complex)
    return SpinRep(j=jj, dimension=d, j1=j1, j2=j2, j3=j3)


def coherent_vector(j, z: complex) -> np.ndarray:
    """Unit coherent state labelled by a chart point of the sphere.

    Components ``sqrt(C(2j, k)) z^k / (1 + |z|^2)^j`` for k = 0 ... 2j;
    z = 0 gives the reference (highest-weight) basis vector.
    """
    n = _two_j(j)
    z = complex(z)
    norm = (1.0 + abs(z) ** 2) ** (n / 2.0)
    return np.array(
        [math.sqrt(math.comb(n, k)) * z**k for k in range(n + 1)],
        dtype=complex,
    ) / norm


_PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1j], [1j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


def map_to_spin(generator, j) -> np.ndarray:
    """Promote a 2 x 2 Hermitian generator to the spin-j representation.

    Decomposes as c0 I + c . sigma and returns ``c0 (2j) I + 2 c . J``.
    The identity coefficient scales with 2j so that coherent expectations
    agree with the chart-side level-2j cocycle values.
    """
    g = np.asarray(generator, dtype=complex)
    if g.shape != (2, 2):
        raise DimensionMismatch("expected a 2 x 2 generator")
    if float(np.max(np.abs(g - g.conj().T))) > 1e-12:
        raise DimensionMismatch("generator must be Hermitian")
    rep = spin_operators(j)
    c0 = float(np.real(np.trace(g))) / 2.0
    out = c0 * 2.0 * rep.j * np.eye(rep.dimension, dtype=complex)
    for sigma, op in zip(_PAULI, (rep.j1, rep.j2, rep.j3)):
        ck = float(np.real(np.trace(sigma @ g))) / 2.0
        out = out + 2.0 * ck * op
    return out


def map_schedule(schedule: HamiltonianSchedule, j) -> HamiltonianSchedule:
    """Promote every generator of a 2 x 2 schedule to spin j."""
    mapped = [map_to_spin(g, j) for g in schedule.generators]
    if schedule.is_constant:
        return HamiltonianSchedule.constant(mapped, schedule.coefficients)
    samples = np.column_stack([schedule.times, schedule.coefficients])
    return HamiltonianSchedule.from_samples(mapped, samples)


@dataclass
class StateTrajectory:
    """Sampled unit-norm quantum states on a uniform time grid."""

    times: np.ndarray
    states: np.ndarray

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


def schrodinger_evolve(
    psi0, schedule: HamiltonianSchedule, T: float, dt: float
) -> StateTrajectory:
    """Integrate i dpsi/dt = H(t) psi over [0, T].

    The state runs as a d x 1 column through ``dynamics.propagate``: the
    same RK4 step and re-projection rule as the defining-representation
    unitary, where the polar factor of a column is its normalisation.
    """
    psi = np.asarray(psi0, dtype=complex).reshape(-1)
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > 1e-8:
        raise DimensionMismatch("initial state must have unit norm")
    if len(psi) != schedule.dim:
        raise DimensionMismatch("state and schedule dimensions differ")
    times, states = propagate(schedule, (psi / norm)[:, None], 0.0, T, dt)
    return StateTrajectory(times=times, states=states[:, :, 0])


def quantum_phases(
    traj: StateTrajectory,
    schedule: HamiltonianSchedule,
    cyclicity_tol: float = 1e-8,
) -> tuple[float, float, float]:
    """Total, dynamical, and geometric phase of a ray-cyclic evolution.

    The total phase is the argument of the initial-final overlap, the
    dynamical phase the trapezoid integral of the instantaneous energy, and
    the geometric phase their wrapped difference.
    """
    psi0 = traj.states[0]
    overlap = complex(np.vdot(psi0, traj.states[-1]))
    if abs(overlap) < 1.0 - cyclicity_tol:
        raise NotCyclic(
            f"final ray overlap {abs(overlap):.12f} below cyclicity tolerance"
        )
    alpha = math.atan2(overlap.imag, overlap.real)
    times, states = traj.times, traj.states
    energies = np.einsum("ki,kij,kj->k", states.conj(),
                         schedule.at(times), states).real
    beta = float(np.sum(np.diff(times) * 0.5 * (energies[:-1] + energies[1:])))
    gamma = wrap_angle(alpha - beta)
    return alpha, beta, gamma


def _overlap_polynomial(psi: np.ndarray, n: int) -> np.ndarray:
    # Highest power first, as numpy.polyval expects.
    return np.array(
        [math.sqrt(math.comb(n, k)) * psi[k] for k in range(n, -1, -1)],
        dtype=complex,
    )


def bloch_projection(
    psi,
    j,
    initial: complex | None = None,
    coherence_tol: float = 1e-6,
) -> complex:
    """Chart label of the coherent ray closest to a state.

    Maximizes the coherent overlap magnitude.  Spin 1/2 reduces to the
    ratio of the two components; higher spins run Newton iteration on the
    overlap stationarity condition, seeded from the leading component
    ratios (or from ``initial`` when tracking a trajectory).  A state
    farther than ``coherence_tol`` from every coherent ray is rejected.
    """
    n = _two_j(j)
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if len(psi) != n + 1:
        raise DimensionMismatch("state dimension does not match 2j + 1")
    psi = psi / float(np.linalg.norm(psi))
    if n == 1:
        if abs(psi[0]) < 1e-12 * abs(psi[1]):
            raise ChartOverflow("ray sits at the chart's point at infinity")
        return complex(psi[1] / psi[0])

    poly = _overlap_polynomial(psi, n)
    dpoly = np.polyder(poly)
    ddpoly = np.polyder(dpoly)

    def quality(w: complex) -> float:
        return abs(np.polyval(poly, w)) ** 2 / (1.0 + abs(w) ** 2) ** n

    seeds = []
    if initial is not None:
        seeds.append(complex(np.conj(initial)))
    else:
        if abs(psi[0]) >= abs(psi[n]) and abs(psi[0]) > 1e-14:
            seeds.append(complex(np.conj(psi[1] / (psi[0] * math.sqrt(n)))))
        if abs(psi[n]) > 1e-14 and abs(psi[n - 1]) > 1e-14 * abs(psi[n]):
            seeds.append(
                complex(np.conj(math.sqrt(n) * psi[n] / psi[n - 1]))
            )
        seeds.extend(
            r * np.exp(2j * math.pi * a / 8.0)
            for r in (0.0, 0.5, 1.0, 2.0)
            for a in range(8)
        )
    w = max(seeds, key=quality)

    for _ in range(60):
        pw = np.polyval(poly, w)
        dpw = np.polyval(dpoly, w)
        ddpw = np.polyval(ddpoly, w)
        s = 1.0 + abs(w) ** 2
        phi = dpw * s - n * np.conj(w) * pw
        scale = max(1.0, abs(dpw) * s + n * abs(w) * abs(pw))
        if abs(phi) < 1e-13 * scale:
            break
        phi_w = ddpw * s + np.conj(w) * dpw - n * np.conj(w) * dpw
        phi_wbar = dpw * w - n * pw
        denom = abs(phi_w) ** 2 - abs(phi_wbar) ** 2
        if abs(denom) < 1e-30 * scale * scale:
            break
        delta = (-phi * np.conj(phi_w) + np.conj(phi) * phi_wbar) / denom
        if abs(delta) > 1.0:
            delta = delta / abs(delta)
        w = w + delta

    overlap_sq = quality(w)
    residual = math.acos(min(1.0, math.sqrt(max(0.0, overlap_sq))))
    if residual > coherence_tol:
        raise NotCoherent(
            f"distance to the nearest coherent ray is {residual:.3e}"
        )
    return complex(np.conj(w))
