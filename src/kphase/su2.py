"""Exact spin-j quantum evolution used as ground truth for the sphere chart.

States live in the (2j+1)-dimensional irreducible representation with the
basis ordered from highest to lowest weight, so the chart origin z = 0
labels the first basis vector.  A 2 x 2 Hermitian generator written as
c0 I + c . sigma promotes to ``c0 (2j) I + 2 c . J``; at j = 1/2 this is
the identity map, and the coherent expectation of the promoted generator
matches the chart-side cocycle formula at level 2j.  States evolve with the
same propagator as the chart's defining-representation unitary
(``dynamics.propagate``), applied to a column vector.  The Bloch projection
back to the chart runs its Newton iteration on a whole stack of states at
once (:func:`bloch_projection_stack`); :func:`bloch_projection` is its
one-row case.  Spins are bounded by ``MAX_TWO_J``.
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


# Largest accepted 2j.  The spin-j propagator holds stacks of about a
# hundred (2j+1) x (2j+1) matrices per re-projection block, 7 MB at this
# size; the oracle is an exact check for small spins.
MAX_TWO_J = 64


def _two_j(j) -> int:
    n = 2.0 * float(j)
    if not 0.5 <= n < MAX_TWO_J + 0.5 or abs(n - round(n)) > 1e-9:
        raise InvalidSpin(f"2j must be an integer from 1 to {MAX_TWO_J}")
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


def bloch_projection(
    psi,
    j,
    initial: complex | None = None,
    coherence_tol: float = 1e-6,
) -> complex:
    """Chart label of the coherent ray closest to a state: the one-row case
    of :func:`bloch_projection_stack`, seeded from ``initial`` alone when
    it is given (when tracking a trajectory)."""
    psi = np.asarray(psi, dtype=complex).reshape(1, -1)
    seeds = None if initial is None else [initial]
    return complex(bloch_projection_stack(psi, j, seeds, coherence_tol)[0])


def bloch_projection_stack(
    states,
    j,
    initial=None,
    coherence_tol: float = 1e-6,
) -> np.ndarray:
    """Chart labels of the coherent rays closest to each row of ``states``.

    Maximizes the coherent overlap magnitude.  Spin 1/2 reduces to the
    ratio of the two components; higher spins run Newton iteration on the
    overlap stationarity condition, on all rows at once, each row stopping
    on its own convergence test or after 60 iterations.  Each row is seeded
    from its own leading component ratios and a fixed grid, whichever has
    the best overlap, or from its entry of ``initial`` alone when given.
    The first row at the chart's point at infinity raises
    ``ChartOverflow``, and the first row farther than ``coherence_tol``
    from every coherent ray raises ``NotCoherent``.
    """
    n = _two_j(j)
    psi = np.asarray(states, dtype=complex)
    if psi.ndim != 2 or psi.shape[1] != n + 1:
        raise DimensionMismatch("state dimension does not match 2j + 1")
    psi = psi / np.linalg.norm(psi, axis=1, keepdims=True)
    if n == 1:
        pole = np.abs(psi[:, 0]) < 1e-12 * np.abs(psi[:, 1])
        if np.any(pole):
            raise ChartOverflow(
                "ray sits at the chart's point at infinity "
                f"(row {np.argmax(pole)})"
            )
        return psi[:, 1] / psi[:, 0]

    # Overlap polynomial in conj(z), highest power first, and its first and
    # second derivatives padded with leading zeros to the same length.
    polys = np.zeros((3,) + psi.shape, dtype=complex)
    poly = polys[0]
    poly[:] = psi[:, ::-1] * np.sqrt([math.comb(n, k)
                                      for k in range(n, -1, -1)])
    polys[1, :, 1:] = poly[:, :-1] * np.arange(n, 0, -1)
    polys[2, :, 2:] = polys[1, :, 1:-1] * np.arange(n - 1, 0, -1)
    if initial is None:
        w = _best_seeds(psi, poly, n)
    else:
        w = np.conj(np.broadcast_to(np.asarray(initial, dtype=complex),
                                    len(psi)))

    # Newton iteration on the rows still moving: ``rows`` indexes them,
    # ``wr`` and ``ps`` hold their iterates and polynomials.
    rows, wr, ps = np.arange(len(w)), w.copy(), polys
    for _ in range(60):
        pw, dpw, ddpw = _polyval(ps, wr)
        cw = np.conj(wr)
        s = 1.0 + np.abs(wr) ** 2
        phi = dpw * s - n * cw * pw
        scale = np.fmax(1.0, np.abs(dpw) * s + n * np.abs(wr) * np.abs(pw))
        phi_w = ddpw * s + cw * dpw - n * cw * dpw
        phi_wbar = dpw * wr - n * pw
        denom = np.abs(phi_w) ** 2 - np.abs(phi_wbar) ** 2
        go = ~((np.abs(phi) < 1e-13 * scale)
               | (np.abs(denom) < 1e-30 * scale * scale))
        if not go.all():
            w[rows] = wr
            rows, wr, phi, phi_w, phi_wbar, denom = (
                x[go] for x in (rows, wr, phi, phi_w, phi_wbar, denom))
            ps = ps[:, go]
            if not len(rows):
                break
        delta = (-phi * np.conj(phi_w) + np.conj(phi) * phi_wbar) / denom
        size = np.abs(delta)
        np.divide(delta, size, out=delta, where=size > 1.0)
        wr = wr + delta
    w[rows] = wr

    overlap_sq = _quality(poly, w, n)
    # fmax maps a NaN overlap to 0, so a NaN row counts as incoherent.
    residual = np.arccos(np.minimum(1.0, np.sqrt(np.fmax(0.0, overlap_sq))))
    far = residual > coherence_tol
    if np.any(far):
        k = int(np.argmax(far))
        raise NotCoherent(
            f"distance to the nearest coherent ray is {residual[k]:.3e} "
            f"(row {k})"
        )
    return np.conj(w)


def _polyval(coeffs: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Each row's polynomial (highest power first) at that row's ``w``,
    by Horner's rule as ``numpy.polyval``."""
    out = np.zeros(coeffs.shape[:-1], dtype=complex)
    for k in range(coeffs.shape[-1]):
        out = out * w + coeffs[..., k]
    return out


def _quality(poly: np.ndarray, w: np.ndarray, n: int) -> np.ndarray:
    """Squared coherent overlap of each row with the ray at ``conj(w)``."""
    return np.abs(_polyval(poly, w)) ** 2 / (1.0 + np.abs(w) ** 2) ** n


def _best_seeds(psi: np.ndarray, poly: np.ndarray, n: int) -> np.ndarray:
    """Newton seed of each row: of its top component ratio, its bottom
    component ratio and a 32-point grid, in this order, the first with the
    best overlap.  The best is kept while scanning, one candidate at a
    time."""
    top, bottom = np.abs(psi[:, 0]), np.abs(psi[:, n])
    first = np.zeros(len(psi), dtype=complex)
    last = np.zeros(len(psi), dtype=complex)
    top_ok = (top >= bottom) & (top > 1e-14)
    np.divide(psi[:, 1], psi[:, 0] * math.sqrt(n), out=first, where=top_ok)
    bottom_ok = (bottom > 1e-14) & (np.abs(psi[:, n - 1]) > 1e-14 * bottom)
    np.divide(math.sqrt(n) * psi[:, n], psi[:, n - 1], out=last,
              where=bottom_ok)
    best = np.zeros(len(psi), dtype=complex)
    best_q = np.full(len(psi), -np.inf)

    def consider(w, ok=True):
        q = _quality(poly, w, n)
        better = ok & (q > best_q)
        best[better], best_q[better] = w[better], q[better]

    consider(np.conj(first), top_ok)
    consider(np.conj(last), bottom_ok)
    for r in (0.0, 0.5, 1.0, 2.0):
        for a in range(8):
            consider(np.full(len(psi), r * np.exp(2j * math.pi * a / 8.0)))
    return best
