"""Classical coherent-parameter flow under time-dependent linear Hamiltonians.

The linear flow i dY/dt = H(t) Y of a unitary or a state vector is taken
by one driver, ``_flow``, in one of two ways, chosen from the schedule;
:func:`propagate`, :func:`trajectory` and :func:`clip_trajectory` all run
it.  A constant schedule's flow
is exp(-iH(t - t0)): one ``eigh`` of H gives every row in closed form from
the span start, a chunk's rows as one product (``_exact_rows``).  A
sampled schedule takes fixed-size
fourth-order Magnus steps (``_step_matrices``), whose matrices lie in the
group that H generates (unitary, and in Sp or SO* on CI or DIII
generators), so the state needs no re-projection.  Each step's Pade
solve (``manifolds._solve``) is a closed form at d = 2, an elimination
without pivoting at d = 3 and 4 where every denominator of the chunk is
column diagonally dominant (every step with ||K||_1 <= 1), and one
batched LAPACK solve otherwise: a coarse step or d >= 5.  Both paths run
in chunks of whole periods of ``PERIOD`` steps, sized by
``CHUNK_ENTRIES`` (``_blocks``): against the d x d entries of a step
matrix in :func:`propagate` and on the Magnus path, and in
:func:`trajectory`'s closed-form path, which forms no step matrices,
against the entries of one chart point.
``_flow`` yields after each chunk, so :func:`trajectory` checks a chunk
before the next one is advanced.
On the Magnus path each chunk interpolates the schedule's coefficient
rows once, at its half-step times (``_stages``).  H is linear in the
generators G_a, so every step's exponent K lies in the span of the G_a
and the i [G_a, G_b], a table built once per sampled schedule
(``_commutator_table``), and one product of real coefficient rows with
that table forms all the chunk's exponents (``_magnus_exponents``): no H
stack and no per-step matrix product.  Batched products then advance all
the chunk's periods together (``_advance``): pairwise products give each
period's whole product and those of its blocks of 2, 4, ... steps, one
product per period carries the state across it, and one batched product
per block level writes the rows of every period, halving the blocks
down to single steps.  The pairs of a level sit on the flat step axis,
never across a period since ``PERIOD`` is a power of two.  The stacked
products, K^2 included, go through ``manifolds._mm_last``, on stacks
held stack-last in memory up to d = 4 and on transposed views of
stack-first memory above; the carries across periods, one matrix each,
stay ``@``.
:func:`propagate` runs this for the defining-representation unitary and
for spin-j state vectors (``su2.schrodinger_evolve``).

Every array from the flow to the phases is stack-last, the rows on the
last axis: ``_flow`` writes one ``(d, c, n + 1)`` stack, and
:func:`trajectory` keeps its unitaries, points and velocities in such
stacks.  :func:`propagate`'s states and the :class:`Trajectory` fields,
``(n + 1, ...)`` in shape, are ``transpose(2, 0, 1)`` views of them, the
one place that decides the layout; consumers read the rows back through
``transpose(1, 2, 0)``, a view of contiguous memory.

:func:`trajectory` maps each chunk's unitaries onto the chart by the
fractional-linear (Mobius) action and checks the resulting rows P[k]
against the chart's own equation of motion, the Riccati equation
(:func:`riccati_rhs`).  This chart stage (``_chart_rows``) reads and
writes slices of the trajectory's stacks: the Mobius images
(``_chart_images``), the chart rules (``manifolds._point_faults``), the
Riccati right-hand side (``_riccati``), the RK4 steps and the Kahler
defects (``geometry._metric_form``), with products ``manifolds._mm_last``
and the chart edge's determinants ``manifolds._det``.  The images of the
denominators' solve (``manifolds._solve``, whose LAPACK fallback takes
transposed views) come back as one contiguous copy.  The public
:func:`riccati_rhs` and :func:`expectation` keep their ``(..., p, q)``
shapes as thin wrappers over the same cores.  From each row P[k] one
classical RK4 step (``_rk4_step``) on the chunk's stage Hamiltonians,
assembled from the same coefficient rows (``_stage_blocks``), gives
R[k+1]; the step's defect e_k is the level-1 Kahler length of
d = P[k+1] - R[k+1] at P[k+1], ``sqrt(Re tr(P^-1 d Q^-1 d^dagger))``
with ``P = I + s Z Z^dagger`` and ``Q = I + s Z^dagger Z`` (s = +1
compact, -1 bounded domain), from the metric's own form
(``geometry._metric_form``): ``sum |L_P^-1 d L_Q^-dagger|^2 / (d_P,i
d_Q,j)`` over the LDL^dagger factors and pivots of P and Q, forward
substitutions only.  The defect reads H and the rows but never U, so
the two routes stay independent.  The RK4 step's first stage is dZ/dt
at the row it starts from; the trajectory keeps it as ``velocities``,
which the dynamical phase reads.
The flow acts on the chart by isometries of this metric, so
``cross_check_error``, the sum of the e_k, bounds how far the Mobius path
has drifted from the Riccati flow in ray distance, up to RK4's own
truncation error, in any chart.  The chart edge, the chart rules and
the running sum are checked chunk by chunk, so a failing trajectory
stops at its first failing chunk; rows past the edge or off the chart
take their defects at the origin, so no solve fails before the guards
report them.
Hamiltonians are supplied as schedules: fixed Hermitian generators with
piecewise-linear time coefficients.

Chart orientation: the point z = 0 labels the reference (top) weight ray,
and a 2 x 2 unitary with blocks a, b, c, d moves the scalar coordinate as
z -> (c + d z) / (a + b z).  The matrix action below is the unique extension
of that rule, and the Riccati right-hand side is its derivative.  Under
H = diag(1, -1) the scalar coordinate therefore rotates as exp(+2it) z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import (
    ChartOverflow,
    CrossCheckFailure,
    DimensionMismatch,
    NoCycleFound,
    NonRealExpectation,
    ScheduleGap,
    SymmetryViolation,
    UnsupportedFamily,
)
from .geometry import _gradient, _metric_form
from .manifolds import (
    Family,
    ManifoldSpec,
    _broadcast_last,
    _det,
    _distance,
    _mm_last,
    _point_faults,
    _solve,
    _stack_first,
    _to_stack_last,
    as_chart_array,
    raise_first_fault,
    validate_points,
)
from .serialize import matrix_from_json, matrix_to_json

HERMITICITY_TOL = 1e-12
# Times this far outside a sampled schedule's span still count as inside.
SPAN_SLACK = 1e-12
CROSS_CHECK_TOL = 1e-6
# Steps per period of the batched block products (see ``_advance``); a
# power of two, so pairwise products halve a period without padding.
PERIOD = 32
# Entries of one chunk's stack of step matrices, or of its chart points
# on trajectory's closed-form path (see ``_blocks``).
CHUNK_ENTRIES = 2 ** 12
# Symmetry slack of Mobius images along a trajectory, and the smallest
# |det(A^T + Z B^T)| at which the Mobius image stays on the chart.
PATH_SYMMETRY_TOL = 1e-9
CHART_EDGE_TOL = 1e-12
# Largest ray distance from the start at which an orbit counts as
# stationary: above the ~2e-8 that ``manifolds._distance`` reads for rows
# that differ only by rounding (arccos of 1 - k eps), so that a start at
# a fixed point of H is not cut into a cycle by that rounding.
STATIONARY_TOL = 1e-6
# Entries in the rows of one run, refused before they are allocated:
# (n + 1) states in :func:`propagate`, (n + 1) unitaries and chart points
# in :func:`trajectory`.  2**24 complex entries are 256 MiB, 25 times an
# ``oracle-compare`` at j = 32, T = 10, dt = 1e-3.
MAX_ENTRIES = 2 ** 24


def _hermitize(m, stack: bool = False) -> np.ndarray:
    """A Hermitian matrix, or with ``stack`` a stack of them, checked and
    projected onto its Hermitian part."""
    arr = np.asarray(m, dtype=complex)
    if (arr.ndim < 2 or arr.ndim > 2 and not stack
            or arr.shape[-1] != arr.shape[-2]):
        raise DimensionMismatch("generators must be square matrices")
    if not np.all(np.isfinite(arr)):
        raise ValueError("generator entries must be finite")
    adjoint = arr.conj().swapaxes(-1, -2)
    residual = float(np.max(np.abs(arr - adjoint)))
    if residual > HERMITICITY_TOL:
        raise SymmetryViolation(f"generator is not Hermitian (by {residual:.3e})")
    return (arr + adjoint) / 2.0


@dataclass(frozen=True)
class HamiltonianSchedule:
    """Hermitian generators with piecewise-linear time coefficients.

    Build with :meth:`constant` or :meth:`from_samples`.  Calling the
    schedule at a time returns the assembled Hermitian matrix
    ``sum_j a_j(t) G_j``, the one-point case of :meth:`at`; evaluation
    outside the sampled span raises ``ScheduleGap``.  A constant schedule
    covers every time.
    """

    generators: tuple[np.ndarray, ...]
    times: np.ndarray | None
    coefficients: np.ndarray
    _constant_matrix: np.ndarray | None = field(default=None, repr=False)
    _table: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def constant(cls, generators, coefficients) -> "HamiltonianSchedule":
        gens = _generators(generators)
        coeffs = np.asarray(coefficients, dtype=float).reshape(-1)
        if len(coeffs) != len(gens):
            raise DimensionMismatch("one coefficient per generator")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("schedule coefficients must be finite")
        return cls(gens, None, coeffs, _assemble(gens, coeffs))

    @classmethod
    def from_samples(cls, generators, samples) -> "HamiltonianSchedule":
        """Rows of ``samples`` are ``(t_k, a_1, ..., a_m)``."""
        gens = _generators(generators)
        rows = np.asarray(samples, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != len(gens) + 1:
            raise DimensionMismatch(
                "each sample row must hold a time and one value per generator"
            )
        if not np.all(np.isfinite(rows)):
            raise ValueError("schedule samples must be finite")
        times = rows[:, 0]
        if rows.shape[0] == 1:
            return cls.constant(gens, rows[0, 1:])
        if np.any(np.diff(times) <= 0.0):
            raise ScheduleGap("sample times must be strictly increasing")
        return cls(gens, times.copy(), rows[:, 1:].copy(), None,
                   _commutator_table(gens))

    @property
    def dim(self) -> int:
        return self.generators[0].shape[0]

    @property
    def is_constant(self) -> bool:
        return self.times is None

    def at(self, times) -> np.ndarray:
        """The assembled matrices at each of ``times``, as an ``(m, d, d)``
        stack: one interpolation per generator over all the times."""
        return self._matrices(self._coefficients_at(times))

    def _matrices(self, coefficients) -> np.ndarray:
        """The assembled matrices of a stack of coefficient rows."""
        if self._constant_matrix is not None:
            return np.broadcast_to(
                self._constant_matrix,
                coefficients.shape[:-1] + self._constant_matrix.shape)
        return _assemble(self.generators, coefficients)

    def _coefficients_at(self, times) -> np.ndarray:
        """The coefficients at each of ``times``, as an ``(m, generators)``
        array: one interpolation per generator over all the times."""
        ts = np.asarray(times, dtype=float).reshape(-1)
        if self.times is None:
            return np.broadcast_to(self.coefficients,
                                   ts.shape + self.coefficients.shape)
        lo, hi = self.times[0], self.times[-1]
        outside = (ts < lo - SPAN_SLACK) | (ts > hi + SPAN_SLACK)
        if np.any(outside):
            raise ScheduleGap(
                f"time {ts[np.argmax(outside)]} outside the sampled span "
                f"[{lo}, {hi}]"
            )
        return np.stack(
            [np.interp(ts, self.times, c) for c in self.coefficients.T], axis=-1
        )

    def __call__(self, t: float) -> np.ndarray:
        return self.at(t)[0]

    def strength(self) -> float:
        """Upper bound on max-norm of the assembled matrix over the span."""
        scales = np.array([float(np.max(np.abs(g))) for g in self.generators])
        coeffs = np.abs(np.atleast_2d(self.coefficients))
        return float(np.max(coeffs @ scales)) if coeffs.size else 0.0

    def covers(self, t0: float, t1: float) -> bool:
        if self.times is None:
            return True
        return (self.times[0] <= t0 + SPAN_SLACK
                and t1 <= self.times[-1] + SPAN_SLACK)

    def to_json(self) -> dict:
        out = {"generators": [matrix_to_json(g) for g in self.generators]}
        if self.times is None:
            out["constant"] = [float(c) for c in self.coefficients]
        else:
            out["samples"] = [
                [float(t)] + [float(c) for c in row]
                for t, row in zip(self.times, self.coefficients)
            ]
        return out

    @classmethod
    def from_json(cls, data: dict) -> "HamiltonianSchedule":
        """A schedule from a JSON object holding ``generators``, a list of
        matrices, and exactly one of ``constant`` and ``samples``.  An
        empty list raises ``DimensionMismatch``, as in :meth:`constant`
        and :meth:`from_samples`."""
        if not isinstance(data, dict):
            raise ValueError(f"'schedule' must be a JSON object, got {data!r}")
        gens = data.get("generators")
        if not isinstance(gens, list):
            raise ValueError("'generators' of 'schedule' must be a list of "
                             f"matrices, got {gens!r}")
        if ("constant" in data) == ("samples" in data):
            raise ValueError("'schedule' must hold exactly one of 'constant' "
                             "and 'samples'")
        gens = [matrix_from_json(g) for g in gens]
        if "constant" in data:
            return cls.constant(gens, data["constant"])
        return cls.from_samples(gens, data["samples"])


def _generators(generators) -> tuple[np.ndarray, ...]:
    """A schedule's generators, checked and made Hermitian: at least one,
    all square and of one shape."""
    gens = tuple(_hermitize(g) for g in generators)
    if not gens or len({g.shape for g in gens}) != 1:
        raise DimensionMismatch(
            "a schedule needs at least one generator, all square matrices "
            "of one shape")
    return gens


def _assemble(generators, coefficients) -> np.ndarray:
    """``sum_j a_j G_j`` for one coefficient row or for each of a stack of
    rows, as one product of the rows with the flattened generators."""
    gens = np.asarray(generators)
    m, d, _ = gens.shape
    coeffs = np.asarray(coefficients)
    return (coeffs @ gens.reshape(m, d * d)).reshape(coeffs.shape[:-1]
                                                     + (d, d))


def _pairs(m: int):
    """Index arrays ``a, b`` of the generator pairs ``a < b``, in the order
    of the commutator rows of ``_commutator_table``."""
    return np.array(list(combinations(range(m), 2)),
                    dtype=np.intp).reshape(-1, 2).T


def _commutator_table(generators) -> np.ndarray:
    """The generators G_a and then ``i [G_a, G_b]`` for each pair ``a < b``
    (``_pairs``), flattened into the rows of one ``(M, d^2)`` array.
    Every row is Hermitian: with ``X = G_a G_b`` the commutator is
    ``X - X^dagger``, exactly anti-Hermitian."""
    gens = np.asarray(generators)
    m, d, _ = gens.shape
    a, b = _pairs(m)
    x = gens[a] @ gens[b]
    brackets = 1j * (x - x.conj().swapaxes(-1, -2))
    return np.concatenate((gens, brackets)).reshape(-1, d * d)


def block_split(H, spec: ManifoldSpec):
    """Split a defining-representation matrix into the chart's four blocks.

    The top-left block is p x p: the defining size is p + q for AIII and
    2p for CI and DIII.  The vector family has no defining block action.
    A stack of matrices splits into stacks of blocks.
    """
    arr = np.asarray(H, dtype=complex)
    p = spec.p
    n = defining_dimension(spec)
    if arr.shape[-2:] != (n, n):
        raise DimensionMismatch(
            f"expected a {n} x {n} matrix for {spec.family.value} "
            f"p={spec.p}, got {arr.shape}"
        )
    top, bottom = arr[..., :p, :], arr[..., p:, :]
    return top[..., :p], top[..., p:], bottom[..., :p], bottom[..., p:]


def defining_dimension(spec: ManifoldSpec) -> int:
    """Size of the defining-representation matrices acting on the chart."""
    if spec.family is Family.BDI:
        raise UnsupportedFamily(
            "the vector chart has no block fractional-linear action"
        )
    return spec.p + spec.q if spec.family is Family.AIII else 2 * spec.p


def _transposed_blocks(spec: ManifoldSpec, m: np.ndarray):
    """The transposed blocks ``A^T, C^T, B^T, D^T`` of a stack-last
    ``(d, d, n)`` stack of defining-representation matrices (a stack of
    one for a constant schedule's H), as stack-last views: the blocks of
    the transposed matrices in reading order."""
    mt, p = m.swapaxes(0, 1), spec.p
    return mt[:p, :p], mt[:p, p:], mt[p:, :p], mt[p:, p:]


def _stage_blocks(spec: ManifoldSpec, schedule: HamiltonianSchedule,
                  coefficients: np.ndarray):
    """The transposed blocks (``_transposed_blocks``) of the schedule's H
    at each of a stack of coefficient rows: a constant schedule's one
    matrix as a stack of one, a sampled one's through a transposed view
    of the assembled ``(n, d, d)`` stack."""
    h = (schedule._constant_matrix[..., None] if schedule.is_constant else
         _assemble(schedule.generators, coefficients).transpose(1, 2, 0))
    return _transposed_blocks(spec, h)


def _chart_images(spec: ManifoldSpec, U: np.ndarray, z: np.ndarray):
    """Denominator determinants ``det(A^T + Z B^T)`` and fractional-linear
    images of ``z`` under a stack of matrices, in the stack-last layout:
    ``U`` is ``(d, d, n)``, ``z`` one ``(p, q, 1)`` point and the images
    ``(p, q, n)``.  An image whose determinant is below
    ``CHART_EDGE_TOL`` is meaningless, and its denominator is replaced
    by the identity.  ``_solve`` takes the stack-last denominators as
    they are: 3 x 3 and 4 x 4 ones are eliminated without pivoting where
    the whole chunk is column diagonally dominant and go to LAPACK
    otherwise, and the images come back as one contiguous copy, which
    the rules and products after it read two to three times faster than
    LAPACK's transposed view.

    A determinant no larger than ``p`` eps times the product of the
    denominator's l1 row lengths, the size of its rounding error, is
    returned as zero, and so is one that is not finite: far from the
    origin the denominator may be singular in floating point while its
    determinant is noise far above ``CHART_EDGE_TOL``."""
    a, c, b, d = _transposed_blocks(spec, U)
    den = _mm_last(z, b)
    den += a
    det = _det(den)
    noise = spec.p * np.finfo(float).eps * np.prod(np.abs(den).sum(1), 0)
    det = np.where(np.abs(det) > noise, det, 0.0)
    den[:, :, np.abs(det) < CHART_EDGE_TOL] = np.eye(spec.p)[..., None]
    num = _mm_last(z, d)
    num += c
    return det, np.ascontiguousarray(_solve(den, num))


def riccati_rhs(spec: ManifoldSpec, H, Z) -> np.ndarray:
    """Time derivative of the chart point under a Hermitian generator.

    The derivative of the fractional-linear action along exp(-iHt):
    ``-i (C^T + Z D^T - A^T Z - Z B^T Z)`` with ``A, B, C, D`` the blocks
    of ``H``.  Stacks of ``H`` and ``Z`` give a stack of derivatives;
    their leading axes broadcast.  The stack-last core ``_riccati`` does
    the work, on transposed views of the blocks and the points.
    """
    z = np.asarray(Z, dtype=complex)
    if z.ndim < 2:
        z = z.reshape(spec.point_shape)
    h = np.asarray(H).swapaxes(-1, -2)
    (*blocks, z), lead = _broadcast_last(*block_split(h, spec), z)
    return _stack_first(_riccati(blocks, z), lead)


def _riccati(blocks, z: np.ndarray) -> np.ndarray:
    """:func:`riccati_rhs` in the stack-last layout: ``blocks`` are the
    transposed blocks of H (``_transposed_blocks``) and ``z`` is
    ``(p, q, n)``; a stack of one on either side broadcasts.  It is
    grouped as ``-i (C^T + Z (D^T - B^T Z) - A^T Z)``: three products, of
    which those with a constant schedule's H, ``B^T Z`` and ``A^T Z``,
    are one BLAS product each, and ``Z (D^T - B^T Z)`` one broadcast
    multiply-add per inner index (``_mm_last``)."""
    a_t, c_t, b_t, d_t = blocks
    out = c_t + _mm_last(z, d_t - _mm_last(b_t, z))
    out -= _mm_last(a_t, z)
    out *= -1j
    return out


def _rk4_step(rhs, y, k1, H2, H3, h):
    """Classical RK4 step of dy/dt = rhs(H(t), y) given its first stage
    ``k1 = rhs(H1, y)``, with H1 the Hamiltonian at the start of the
    step, and H at the middle and end of the step."""
    k2 = rhs(H2, y + (h / 2.0) * k1)
    k3 = rhs(H2, y + (h / 2.0) * k2)
    k4 = rhs(H3, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _blocks(n: int, entries: int):
    """Step ranges ``[k0, k1)`` of the chunks of an ``n``-step run that
    stacks ``entries`` entries per step: d^2 for the d x d step matrices
    of the Magnus path and of :func:`propagate`, p q for the chart points
    of :func:`trajectory`'s closed-form path.  Each chunk is a whole
    number of periods, as many as keep its stack within ``CHUNK_ENTRIES``
    entries and at least one, and only the last chunk may end short."""
    size = PERIOD * max(1, CHUNK_ENTRIES // (PERIOD * entries))
    return [(k0, min(k0 + size, n)) for k0 in range(0, n, size)]


def _stages(schedule: HamiltonianSchedule, t0: float, h: float, k0: int,
            k1: int):
    """Coefficient rows at the start, middle and end of steps
    ``k0 .. k1 - 1`` from ``t0``, from one interpolation at the
    ``2 (k1 - k0) + 1`` half-step times, so a step's end is not evaluated
    again as the next start."""
    cs = schedule._coefficients_at(
        t0 + (h / 2.0) * np.arange(2 * k0, 2 * k1 + 1))
    return cs[:-1:2], cs[1::2], cs[2::2]


def _advance(Y: np.ndarray, out: np.ndarray, table: np.ndarray, stages,
             h: float):
    """Magnus steps of i dY/dt = H(t) Y from the ``d x c`` state ``Y``,
    one per row of the stage coefficient rows, written to the stack-last
    rows ``out``; ``table`` is the schedule's ``_commutator_table``.

    ``_step_matrices`` gives the steps' matrices as one stack-last
    ``(d, d, n)`` stack.  They are grouped in periods of ``PERIOD`` steps
    from this call's first step, with identities padding the last period
    to full length.  Pairwise products give the products of every block
    of 2, 4, ..., ``PERIOD`` steps (``_period_products``); one product per
    period carries the state across it.  The rows then come down the same
    blocks, one batched product per level for every period at once: the
    state in the middle of a block is the product of the block's first
    half applied to the state at its start, known from the level above.
    The states are one stack-last ``(d, c, m PERIOD + 1)`` stack, in the
    steps' memory order, so the batched products are
    ``manifolds._mm_last`` on the flat step axis; the carries, one matrix
    each, are ``@``, and the rows are copied to ``out`` once.

    A call of one period, which is every chunk from d = 9 up and a run of
    at most ``PERIOD`` steps, has no periods to batch: the blocks would
    only double the arithmetic of its products, and would turn a column's
    matrix-vector products into matrix products, so it carries the state
    one step at a time instead, straight into ``out``.
    """
    period, n, d = PERIOD, out.shape[-1], len(Y)
    m = -(-n // period)
    steps = _step_matrices(table, stages, h)
    if m == 1:
        for k, step in enumerate(np.ascontiguousarray(
                steps.transpose(2, 0, 1))):
            out[..., k] = Y = step @ Y
        return
    if n < m * period:
        padded = np.empty_like(steps, shape=(d, d, m * period))
        padded[..., :n], padded[..., n:] = steps, np.eye(d)[..., None]
        steps = padded
    levels = _period_products(steps)
    states = np.empty_like(steps, shape=Y.shape + (m * period + 1,))
    starts = states[..., ::period]
    starts[..., 0] = Y
    for p, whole in enumerate(levels[-1].transpose(2, 0, 1)):
        starts[..., p + 1] = whole @ starts[..., p]
    for level in reversed(levels[:-1]):
        half = m * period // level.shape[-1]
        states[..., half:-1:2 * half] = _mm_last(level[..., ::2],
                                                 states[..., :-1:2 * half])
    out[...] = states[..., 1:n + 1]


def _magnus_exponents(table: np.ndarray, stages, h: float) -> np.ndarray:
    """The Hermitian fourth-order Magnus exponents
    ``K = (h/6) (H1 + 4 H2 + H3) + i (h^2/12) [H1, H3]`` of each step,
    from its coefficient rows ``c1, c2, c3`` at the step's start, middle
    and end, as one stack-last ``(d, d, n)`` stack.  With
    ``H = sum_a c_a G_a``,
    ``i [H1, H3] = sum_{a<b} (c1_a c3_b - c1_b c3_a) i [G_a, G_b]``, so K
    is one product of the real rows
    ``[(h/6) (c1 + 4 c2 + c3), (h^2/12) (c1_a c3_b - c1_b c3_a)]`` with
    the schedule's ``_commutator_table``, taken as one real product on
    the table's interleaved real and imaginary parts.  The stack is that
    ``(n, d^2)`` product through ``manifolds._to_stack_last``: one
    transposed copy for small d, a transposed view for large d."""
    c1, c2, c3 = stages
    a, b = _pairs(c1.shape[-1])
    rows = np.concatenate(((h / 6.0) * (c1 + 4.0 * c2 + c3),
                           (h * h / 12.0) * (c1[:, a] * c3[:, b]
                                             - c1[:, b] * c3[:, a])), axis=-1)
    d = math.isqrt(table.shape[-1])
    return _to_stack_last(
        (rows @ table.view(float)).view(complex).reshape(-1, d, d))


def _step_matrices(table: np.ndarray, stages, h: float) -> np.ndarray:
    """Fourth-order Magnus step matrices of i dY/dt = H(t) Y, one per row
    of the stage coefficient rows, as a stack-last ``(d, d, n)`` stack:
    exp(-iK) with K from ``_magnus_exponents``, as its diagonal (2, 2)
    Pade approximant ``(M + (i/2) K)^-1 (M - (i/2) K)``,
    ``M = I - K^2/12``.  K^2 is ``manifolds._mm_last``, and the solve
    ``manifolds._solve``: in closed form at d = 2, by elimination without
    pivoting at d = 3 and 4 where every denominator of the stack is
    column diagonally dominant (every step with ``||K||_1 <= 1``), and
    otherwise by LAPACK.  K lies in the Lie algebra of the flow's group,
    and that approximant maps the algebra of every quadratic group (U,
    Sp, SO*) into the group, so each step keeps unitarity and the chart's
    structure up to rounding.
    """
    k = _magnus_exponents(table, stages, h)
    # In place, with the same rounding as I - K^2/12: at large d each
    # temporary stack is megabytes of fresh memory (at d = 65 three more
    # temporaries cost a quarter more minor page faults).
    m = _mm_last(k, k)
    m /= -12.0
    m += np.eye(len(k))[..., None]
    k *= 0.5j
    den = m + k
    m -= k
    return _solve(den, m)


def _period_products(steps: np.ndarray) -> list[np.ndarray]:
    """The products of each period's steps in blocks of 1, 2, 4, ...,
    ``PERIOD`` consecutive steps, later steps on the left, from a
    stack-last ``(d, d, m PERIOD)`` stack of steps: one batched product
    (``manifolds._mm_last``) per level on the flat step axis, so level
    ``l`` has shape ``(d, d, m PERIOD >> l)`` and the last holds each
    period's whole product.  ``PERIOD`` is a power of two, so no pair of
    a level crosses a period's boundary."""
    levels = [steps]
    for _ in range(PERIOD.bit_length() - 1):
        prods = levels[-1]
        levels.append(_mm_last(prods[..., 1::2], prods[..., ::2]))
    return levels


def _exact_rows(schedule: HamiltonianSchedule, Y0: np.ndarray):
    """The closed-form flow of a constant schedule from ``Y0``: one
    ``eigh`` of its matrix ``H = V diag(lam) V^dagger`` gives the function
    ``rows(elapsed, out)`` that writes
    ``Y(t0 + s) = V diag(exp(-i lam s)) V^dagger Y0`` for each ``s`` of
    ``elapsed`` into the stack-last rows ``out``.  Every row is taken from
    the span start, so rounding does not accumulate from row to row.

    Entry by entry ``Y(t0 + s)[i, c] = sum_j W[(i, c), j] exp(-i lam_j s)``
    with ``W[(i, c), j] = V[i, j] (V^dagger Y0)[j, c]``, built once here,
    so a chunk's rows are one ``(d c, d) @ (d, n)`` product, written
    straight into ``out.reshape(d c, n)``.  That reshape is a view on a
    slice of a C-contiguous stack's last axis, which every caller passes;
    any other ``out`` fails an assertion rather than leaving its rows
    unwritten."""
    lam, v = np.linalg.eigh(schedule._constant_matrix)
    w = np.einsum("ij,jc->icj", v, v.conj().T @ Y0).reshape(-1, len(lam))

    def rows(elapsed: np.ndarray, out: np.ndarray) -> None:
        flat = out.reshape(-1, len(elapsed))
        assert np.may_share_memory(flat, out), "out must reshape as a view"
        np.matmul(w, np.exp(-1j * np.multiply.outer(lam, elapsed)), out=flat)

    return rows


def _grid(t0: float, t1: float, dt: float):
    if not 0.0 < dt < math.inf:
        raise ValueError("dt must be positive and finite")
    span = t1 - t0
    if not 0.0 < span < math.inf:
        raise ValueError("the time span must be positive and finite")
    n = max(1, math.ceil(span / dt - 1e-9))
    return n, span / n


def _check_rows(n: int, entries: int) -> None:
    """Refuse an ``n``-step run whose ``n + 1`` rows of ``entries``
    entries each exceed ``MAX_ENTRIES``."""
    if (n + 1) * entries > MAX_ENTRIES:
        raise ValueError(
            f"(steps + 1) x entries per row must be at most {MAX_ENTRIES}, "
            f"got {n + 1} x {entries}")


def _flow(schedule: HamiltonianSchedule, states: np.ndarray, t0: float,
          h: float, entries: int):
    """Write the flow of i dY/dt = H(t) Y from ``states[..., 0]`` at ``t0``
    to ``states[..., 1:]``, a stack-last ``(d, c, n + 1)`` stack, one step
    of ``h`` per row, chunk by chunk (``_blocks``, ``entries`` per step),
    and yield ``(k0, k1, stages)`` after each chunk has written rows
    ``k0 + 1 .. k1``, with the chunk's stage coefficient rows
    (``_stages``).  A constant schedule takes every row in closed form from
    ``states[..., 0]`` (``_exact_rows``), a sampled one Magnus steps
    (``_advance``).  A caller that stops drawing stops the flow."""
    exact = (_exact_rows(schedule, states[..., 0]) if schedule.is_constant
             else None)
    for k0, k1 in _blocks(states.shape[-1] - 1, entries):
        stages = _stages(schedule, t0, h, k0, k1)
        if exact is None:
            _advance(states[..., k0], states[..., k0 + 1:k1 + 1],
                     schedule._table, stages, h)
        else:
            exact(h * np.arange(k0 + 1, k1 + 1), states[..., k0 + 1:k1 + 1])
        yield k0, k1, stages


def propagate(
    schedule: HamiltonianSchedule, Y0, t0: float, t1: float, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate i dY/dt = H(t) Y over [t0, t1] from a square matrix, a
    column or a vector ``Y0``; returns the grid times and the states, an
    ``(n + 1,) + Y0.shape`` view of the stack-last rows of ``_flow``: in
    closed form for a constant schedule and by Magnus steps for a sampled
    one.  A run whose rows would hold more than ``MAX_ENTRIES`` entries
    raises ``ValueError`` before any is allocated."""
    if not schedule.covers(t0, t1):
        raise ScheduleGap("schedule does not cover the integration span")
    n, h = _grid(t0, t1, dt)
    _check_rows(n, np.size(Y0))
    states = np.empty(np.shape(Y0) + (n + 1,), dtype=complex)
    states[..., 0] = Y0
    for _ in _flow(schedule, states.reshape(len(states), -1, n + 1), t0, h,
                   schedule.dim ** 2):
        pass
    return np.linspace(t0, t1, n + 1), np.moveaxis(states, -1, 0)


@dataclass
class Trajectory:
    """Sampled chart evolution, stored as arrays whose rows follow ``times``.

    ``points`` is the ``(n+1, rows, cols)`` Mobius path and ``unitaries``
    the ``(n+1, d, d)`` unitaries behind it.  ``defects`` holds the ``n``
    per-step defects e_k of the rows against one RK4 step of the Riccati
    equation (see the module docstring) and ``cross_check_error`` their
    sum.  ``velocities`` holds dZ/dt at each row, :func:`riccati_rhs` at
    ``(H(t_k), points[k])``: the RK4 steps' first stages, and one more
    evaluation at the last row, on H at the end of the last step.  The
    rows of ``points`` passed the chart rules when the trajectory was
    built.  The three row arrays are views of stack-last stacks (see the
    module docstring).
    """

    spec: ManifoldSpec
    times: np.ndarray
    points: np.ndarray
    unitaries: np.ndarray | None
    cross_check_error: float
    defects: np.ndarray | None = None
    velocities: np.ndarray | None = None


def trajectory(
    spec: ManifoldSpec,
    Z0,
    schedule: HamiltonianSchedule,
    T: float,
    dt: float,
) -> Trajectory:
    """Evolve a chart point, cross-checking Mobius against Riccati.

    Each chunk of ``_flow`` advances the unitary, in closed form for a
    constant schedule and by Magnus steps otherwise; its rows are then
    mapped onto the chart with one batched solve, in closed form on
    charts with p <= 2, and checked (``_chart_rows``).  A constant
    schedule's chunks are sized by the chart point's entries and a
    sampled one's by its step matrices' (``_blocks``).  The first failing
    step raises ``ChartOverflow``, ``ValueError``, ``SymmetryViolation``,
    ``OutsideDomain`` or ``CrossCheckFailure``, naming its time; no later
    chunk is advanced.  A run whose unitaries and chart points would hold
    more than ``MAX_ENTRIES`` entries raises ``ValueError`` before any row
    is allocated.
    """
    if schedule.dim != defining_dimension(spec):
        raise DimensionMismatch(
            "schedule generators do not match the defining size"
        )
    if not schedule.covers(0.0, T):
        raise ScheduleGap("schedule does not cover [0, T]")
    z0 = validate_points(spec, as_chart_array(spec, Z0))
    n, h = _grid(0.0, T, dt)
    _check_rows(n, schedule.dim ** 2 + z0.size)
    times = np.linspace(0.0, T, n + 1)
    us = np.empty((schedule.dim, schedule.dim, n + 1), dtype=complex)
    zs = np.empty(z0.shape + (n + 1,), dtype=complex)
    vs = np.empty_like(zs)
    defects = np.empty(n)
    us[..., 0], zs[..., 0] = np.eye(schedule.dim), z0
    entries = z0.size if schedule.is_constant else schedule.dim ** 2
    for k0, k1, stages in _flow(schedule, us, 0.0, h, entries):
        hs = [_stage_blocks(spec, schedule, c) for c in stages]
        zs[..., k0 + 1:k1 + 1], defects[k0:k1], vs[..., k0:k1] = _chart_rows(
            spec, times[k0 + 1:k1 + 1], us[..., k0 + 1:k1 + 1], zs[..., :1],
            zs[..., k0:k0 + 1], hs, h, float(np.sum(defects[:k0])))
    vs[..., n:] = _riccati([blk[..., -1:] for blk in hs[2]], zs[..., n:])
    return Trajectory(spec, times, zs.transpose(2, 0, 1),
                      us.transpose(2, 0, 1), float(np.sum(defects)), defects,
                      vs.transpose(2, 0, 1))


def clip_trajectory(
    traj: Trajectory, schedule: HamiltonianSchedule, t_end: float
) -> Trajectory:
    """The samples of a trajectory before ``t_end`` plus one row at
    ``t_end``: one partial step of the unitary through ``_flow``, in
    closed form on a constant schedule and by Magnus otherwise.

    The kept rows already passed the guards.  The Mobius map and the
    guards run on the new row alone, whose defect is one partial RK4 step
    from the last kept row; ``cross_check_error`` re-sums the kept rows'
    defects and the new one.  The kept rows keep their velocities, and the
    new row's is one :func:`riccati_rhs` on H at the end of the partial
    step.
    """
    k = int(np.searchsorted(traj.times, t_end)) - 1
    if not 0 <= k < len(traj.times) - 1:
        raise ValueError("the clip time must lie inside the trajectory span")
    t = float(traj.times[k])
    h = t_end - t
    us = traj.unitaries.transpose(1, 2, 0)[..., : k + 2].copy()
    [(_, _, stages)] = _flow(schedule, us[..., k:], t, h, schedule.dim ** 2)
    times = np.append(traj.times[: k + 1], t_end)
    kept = traj.defects[:k]
    hs = [_stage_blocks(traj.spec, schedule, c) for c in stages]
    zs = traj.points.transpose(1, 2, 0)
    point, defect, _ = _chart_rows(
        traj.spec, times[k + 1:], us[..., k + 1:], zs[..., :1],
        zs[..., k:k + 1], hs, h, float(np.sum(kept)))
    defects = np.concatenate((kept, defect))
    vs = traj.velocities.transpose(1, 2, 0)
    return Trajectory(
        traj.spec, times,
        np.concatenate((zs[..., : k + 1], point), axis=-1).transpose(2, 0, 1),
        us.transpose(2, 0, 1), float(np.sum(defects)), defects,
        np.concatenate((vs[..., : k + 1], _riccati(hs[2], point)),
                       axis=-1).transpose(2, 0, 1))


def _chart_rows(spec, times, us, z0, start, stages, h: float,
                spent: float):
    """Mobius images of ``z0`` under the unitaries ``us``, the rows after
    the row ``start``, their defects against one RK4 step of
    :func:`riccati_rhs` each on the stage blocks (``_stage_blocks``), and
    the steps' first stages, dZ/dt at the row each step starts from
    (``start`` and all but the last image), with every guard run on the
    arrays.  Every array is stack-last: ``us`` is ``(d, d, n)``, ``z0``
    and ``start`` are ``(p, q, 1)``, and the rows and first stages come
    back ``(p, q, n)``.  ``spent`` is the sum of the earlier defects, and
    the running sum must stay within ``CROSS_CHECK_TOL``; NaN fails.  A
    step that trips several guards reports the first of: the chart edge,
    the chart rules, the cross-check."""
    # Far from the origin the determinant may overflow, which counts as
    # off the chart.
    with np.errstate(over="ignore", invalid="ignore"):
        det, images = _chart_images(spec, us, z0)
    points, faults = _point_faults(spec, images, PATH_SYMMETRY_TOL)
    faults.insert(0, (np.abs(det) >= CHART_EDGE_TOL, ChartOverflow,
                      lambda k: "orbit left the coordinate chart"))
    starts = np.concatenate((start, points[..., :-1]), axis=-1)
    # Rows beyond the chart edge or off the chart may overflow or meet a
    # singular metric here; the guards report those rows before their
    # defects, which are taken with the metric at the origin.
    on_chart = np.logical_and.reduce([ok for ok, _, _ in faults])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        velocities = _riccati(stages[0], starts)
        steps = _rk4_step(_riccati, starts, velocities, *stages[1:], h)
        defects = np.sqrt(_metric_form(
            spec, np.where(on_chart, points, 0.0), points - steps))
    drift = spent + np.cumsum(defects)
    raise_first_fault([
        *faults,
        (drift <= CROSS_CHECK_TOL, CrossCheckFailure,
         lambda k: f"Mobius path drifts from the Riccati flow by "
                   f"{drift[k]:.3e}"),
    ], times)
    return points, defects, velocities


def expectation(spec: ManifoldSpec, level: int, Z, H):
    """Coherent expectation value of a Hermitian generator at a chart point.

    The derivative ``i d/ds`` at ``s = 0`` of the weighted kernel cocycle
    ``level * (ln det(A_s^T + Z B_s^T) + ln K(Z_s, conj(Z)))`` along the
    flow ``exp(-isH)``, in closed form:
    ``E = level * (tr a + tr(Z b^T)) + i s sum(G * dZ/dt)`` with ``a, b``
    the top blocks of ``H``, ``s = +1`` on compact and ``-1`` on
    bounded-domain specs, ``G`` the gradient of ``geometry.gradient`` and
    ``dZ/dt`` the :func:`riccati_rhs`.  ``Z`` is one point or a stack and
    ``H`` one Hermitian matrix or a stack, checked here; their leading axes
    broadcast.  The imaginary part must cancel below 1e-8 on every row.
    The stack-last core ``_expectation`` does the work.
    """
    z = validate_points(spec, Z)
    h = _hermitize(H, stack=True).swapaxes(-1, -2)
    (*blocks, z), lead = _broadcast_last(*block_split(h, spec), z)
    return _stack_first(_expectation(spec, level, z, blocks,
                                     _gradient(spec, level, z),
                                     _riccati(blocks, z)), lead)


def _expectation(spec: ManifoldSpec, level: int, z, blocks, g,
                 velocity) -> np.ndarray:
    """:func:`expectation` on the checked stack-last operands of
    ``_riccati``, a stack of one on either side broadcasting, with ``g``
    the gradient ``geometry._gradient`` and ``velocity`` the ``_riccati``
    at ``z``, which callers that hold them already (a trajectory's
    ``velocities``) take once."""
    a_t, _, b_t, _ = blocks
    top = np.trace(a_t) + np.sum(z * b_t.swapaxes(0, 1), axis=(0, 1))
    value = level * top + 1j * spec.sign * np.sum(g * velocity, axis=(0, 1))
    worst = float(np.max(np.abs(value.imag)))
    if worst > 1e-8:
        raise NonRealExpectation(f"imaginary part {worst:.3e} exceeds tolerance")
    return value.real


@dataclass(frozen=True)
class CycleInfo:
    """First return of a trajectory to its starting ray: the sample index
    at or just after it and the refined return time."""

    index: int
    time: float


def ray_distances(traj: Trajectory) -> np.ndarray:
    """Projective distance of every sample from the starting point, on
    the stack-last rows of the points."""
    z = traj.points.transpose(1, 2, 0)
    return _distance(traj.spec, z, z[..., :1])


def find_cycle(times, distances) -> CycleInfo:
    """Locate the first return to the starting ray from the sample times
    and their :func:`ray_distances`.

    Scans for the first sample beyond the initial escape whose projective
    distance to the start drops below five times the median change of
    the distance per sample, walks to the local minimum, and refines the
    return time by a parabola through the squared distances.  A trajectory
    that never leaves the start ray returns index 1 immediately.

    The median comes from one ``np.partition``: the middle value of an
    odd count, ``(a + b) / 2`` of the two middle values of an even one,
    and NaN if any change is NaN, so it equals ``np.median``'s bit for
    bit.  ``np.median`` itself is not called because its NaN check
    imports ``numpy.ma``, which costs a fresh process more than the
    whole search.
    """
    d = np.asarray(distances, dtype=float)
    n = len(d) - 1
    if n < 1:
        raise NoCycleFound("trajectory has no steps")
    spacing = _median(np.abs(np.diff(d))) if n > 1 else 0.0
    tol = max(5.0 * spacing, 1e-12)
    escape = 1
    if d[1] < tol:
        out = np.flatnonzero(d[1:] >= tol)
        if not out.size:
            return CycleInfo(1, float(times[1]))
        escape += int(out[0])
    back = np.flatnonzero(d[escape:] < tol)
    if not back.size:
        raise NoCycleFound(
            f"no return below tolerance {tol:.3e} within the span"
        )
    k_ret = escape + int(back[0])
    while k_ret + 1 <= n and d[k_ret + 1] < d[k_ret]:
        k_ret += 1
    t_star = float(times[k_ret])
    if 1 <= k_ret <= n - 1:
        t_star = _parabola_vertex(times, d, k_ret)
    elif k_ret == n and n >= 2:
        t_star = _parabola_vertex(times, d, n - 1)
        t_star = min(max(t_star, float(times[n - 1])), float(times[n]))
    return CycleInfo(k_ret, t_star)


def _median(x: np.ndarray) -> float:
    """The median of a non-empty 1-D float array, NaN if any entry is."""
    m, odd = divmod(len(x), 2)
    part = np.partition(x, [m, -1] if odd else [m - 1, m, -1])
    if np.isnan(part[-1]):
        return float(part[-1])
    return float(part[m] if odd else (part[m - 1] + part[m]) / 2)


def _parabola_vertex(times, d, k: int) -> float:
    t0, t1, t2 = (float(times[k - 1]), float(times[k]), float(times[k + 1]))
    y0, y1, y2 = float(d[k - 1]) ** 2, float(d[k]) ** 2, float(d[k + 1]) ** 2
    h = t1 - t0
    curv = y0 - 2.0 * y1 + y2
    if curv <= 0.0:
        return t1
    t_star = t1 - h / 2.0 * (y2 - y0) / curv
    return min(max(t_star, t0), t2)
