"""Exact spin-j quantum evolution used as ground truth for the sphere chart.

States live in the (2j+1)-dimensional irreducible representation with the
basis ordered from highest to lowest weight, so the chart origin z = 0
labels the first basis vector.  A 2 x 2 Hermitian generator written as
c0 I + c . sigma promotes to ``c0 (2j) I + 2 c . J``; at j = 1/2 this is
the identity map, and the coherent expectation of the promoted generator
matches the chart-side cocycle formula at level 2j.  States evolve with the
same propagator as the chart's defining-representation unitary
(``dynamics.propagate``), applied to a column vector in the
(2j+1)-dimensional space: in closed form for a constant schedule, by
fourth-order Magnus steps for a sampled one, never through the 2 x 2
unitary.  The Bloch projection back to the chart (:func:`bloch_projection`)
reads each label in closed form off the Bloch vector ``<J>``, as the
stereographic image of its direction, on a whole stack of states at once.
:func:`coherent_vector` takes one label or an array of them, as the chart
quantities take one point or a stack, and the projection measures each
row against its label's coherent vector: the overlap is formed in one
place.  Spins are bounded by ``MAX_TWO_J``.
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
from .manifolds import raise_first_fault
from .phases import _trapezoid, wrap_angle


# Largest accepted 2j.  At this size (d = 65) a chunk of the spin-j Magnus
# propagator is one 32-step period: 32 step matrices of d x d, 2.2 MB; the
# oracle is an exact check for small spins.
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


def coherent_vector(j, z) -> np.ndarray:
    """Unit coherent states labelled by chart points of the sphere.

    Components ``sqrt(C(2j, k)) z^k / (1 + |z|^2)^j`` for k = 0 ... 2j;
    z = 0 gives the reference (highest-weight) basis vector.  Beyond the
    unit circle they are formed as
    ``sqrt(C(2j, k)) (z/|z|)^k |z|^(k - 2j) / (1 + |z|^-2)^j``, which
    does not overflow for large |z|: both are the one formula with
    ``m = max(|z|, 1)``, ``sqrt(C(2j, k)) (z/m)^k m^(k - 2j)
    / (m^-2 + (|z|/m)^2)^j``.  ``z`` is one label, giving one
    ``(2j+1,)`` vector, or an array of labels, giving one vector per
    label along a new last axis.
    """
    n = _two_j(j)
    z = np.asarray(z, dtype=complex)[..., None]
    k = np.arange(n + 1)
    root = np.sqrt([float(math.comb(n, m)) for m in k])
    # hypot, and each part divided by the real m, round as a scalar abs
    # and complex division do; numpy's complex abs and division round
    # differently, and (z/m)^(2j) would carry that 2j-fold.
    r = np.hypot(z.real, z.imag)
    m = np.maximum(r, 1.0)
    u = z.real / m + 1j * (z.imag / m)
    return root * u**k * m ** (k - n) / (m**-2 + (r / m) ** 2) ** (n / 2.0)


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

    The state runs as a d x 1 column through ``dynamics.propagate``, the
    propagator of the defining-representation unitary: closed form for a
    constant schedule, and otherwise the same Magnus steps, whose unitary
    step matrices keep the state's norm without re-normalisation.
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

    The total phase alpha is defined by ``psi(T) = exp(-i alpha) psi(0)``,
    the argument of ``<psi(T)|psi(0)>``; the dynamical phase is the
    trapezoid integral of the instantaneous energy, and the geometric
    phase their wrapped difference.  A trace shift H -> H + c I moves alpha
    and beta by c T each and leaves gamma unchanged.
    """
    psi0 = traj.states[0]
    overlap = complex(np.vdot(traj.states[-1], psi0))
    if abs(overlap) < 1.0 - cyclicity_tol:
        raise NotCyclic(
            f"final ray overlap {abs(overlap):.12f} below cyclicity tolerance"
        )
    alpha = math.atan2(overlap.imag, overlap.real)
    times, states = traj.times, traj.states
    # One expectation per generator, so no d x d matrix per sample.
    coeffs = schedule._coefficients_at(times)
    energies = sum(
        c * np.sum(states.conj() * (states @ g.T), axis=1).real
        for c, g in zip(coeffs.T, schedule.generators)
    )
    beta = _trapezoid(times, energies)
    gamma = wrap_angle(alpha - beta)
    return alpha, beta, gamma


def bloch_projection(states, j, coherence_tol: float = 1e-6):
    """Chart labels of the coherent rays of each row of ``states``.

    A 1-D state gives one complex label, a stack of rows an array of them.
    A spin-j coherent ray is labelled by the direction of its Bloch vector
    ``v = <J>``, and the label is that direction's stereographic image,
    read off in closed form on all rows at once:
    ``<J3> = sum_k (j - k)|psi_k|^2``,
    ``<J+> = sum_k sqrt((k + 1)(2j - k)) conj(psi_k) psi_{k+1}`` and
    ``z = <J+> / (|v| + <J3>)`` on the upper hemisphere (``<J3> >= 0``),
    ``z = (|v| - <J3>) / conj(<J+>)`` on the lower one.  The two agree,
    since ``|<J+>|^2 = |v|^2 - <J3>^2``, and neither subtracts nearly equal
    numbers.  The label is exact on a coherent row (at spin 1/2 it is
    ``psi_1 / psi_0``), and on a row at distance eps from the coherent rays
    it differs from the overlap maximiser by O(eps^2).  The first failing
    row raises ``ChartOverflow`` if its label is infinite (``<J+> = 0`` and
    ``<J3> < 0``, the chart's point at infinity), and otherwise
    ``NotCoherent`` if its label's ray, ``arccos |<c(z)|psi>|`` with the
    :func:`coherent_vector` ``c(z)`` of the row's label, is farther than
    ``coherence_tol``, as on rows with ``<J> = 0`` and on zero or NaN rows.
    """
    if np.ndim(states) == 1:
        row = np.reshape(states, (1, -1))
        return complex(bloch_projection(row, j, coherence_tol)[0])
    n = _two_j(j)
    psi = np.asarray(states, dtype=complex)
    if psi.ndim != 2 or psi.shape[1] != n + 1:
        raise DimensionMismatch("state dimension does not match 2j + 1")
    k = np.arange(n + 1)
    # Zero and NaN rows, poles and zero Bloch vectors divide by zero or by
    # NaN here; the fault masks below report them.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        psi = psi / np.linalg.norm(psi, axis=1, keepdims=True)
        j3 = np.abs(psi) ** 2 @ (n / 2.0 - k)
        jplus = ((psi[:, :-1].conj() * psi[:, 1:])
                 @ np.sqrt(k[1:] * (n - k[:-1])))
        length = np.hypot(np.abs(jplus), j3)
        z = np.where(j3 >= 0.0, jplus / (length + j3),
                     (length - j3) / np.conj(jplus))
        overlap = np.abs(np.sum(coherent_vector(j, z).conj() * psi, axis=1))
    # A NaN row's NaN overlap fails the comparison below, so it counts as
    # incoherent.
    residual = np.arccos(np.minimum(1.0, overlap))
    raise_first_fault([
        (~np.isinf(z), ChartOverflow,
         lambda r: f"ray sits at the chart's point at infinity (row {r})"),
        (residual <= coherence_tol, NotCoherent,
         lambda r: "distance to the nearest coherent ray is "
                   f"{residual[r]:.3e} (row {r})"),
    ])
    return z

