"""The trajectory's chart stage against a per-matrix reference.

``dynamics._chart_rows`` holds its arrays stack-last, ``(p, q, n)``, and
takes its products, determinants and domain check on whole rows.  The
reference here walks the same rows one matrix at a time in the public
``(n, p, q)`` layout, with ``@``, ``np.linalg.det``, ``np.linalg.solve``
and ``np.linalg.eigvalsh``, and raises the first fault row by row.
"""

from __future__ import annotations

import numpy as np
import pytest

from kphase import (
    ChartOverflow,
    CrossCheckFailure,
    Family,
    HamiltonianSchedule,
    ManifoldSpec,
    OutsideDomain,
    SymmetryViolation,
    propagate,
)
from kphase.dynamics import (
    CHART_EDGE_TOL,
    CROSS_CHECK_TOL,
    PATH_SYMMETRY_TOL,
    _chart_rows,
    _stage_blocks,
    _stages,
    defining_dimension,
)

from finite_difference import random_point

SPECS = [ManifoldSpec(family, p, q, compact)
         for family, p, q in ((Family.AIII, 3, 2), (Family.CI, 2, 1),
                              (Family.DIII, 3, 1))
         for compact in (True, False)]
IDS = [f"{s.family.value}({s.p}{f',{s.q}' if s.q > 1 else ''})"
       f"{'' if s.compact else '-noncompact'}" for s in SPECS]


def _generator(spec, rng):
    """A Hermitian generator of the chart's flow, of norm 1.5: any
    Hermitian matrix on AIII, and the Sp or SO* algebra on CI or DIII.
    On a bounded domain the flow must keep the domain, so the generator
    is block diagonal there."""
    d, p = defining_dimension(spec), spec.p
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = (a + a.conj().T) / 2.0
    if spec.family is not Family.AIII:
        flip = 1.0 if spec.family is Family.CI else -1.0
        top, off = h[:p, :p], (h[:p, p:] + flip * h[:p, p:].T) / 2.0
        h = np.block([[top, off], [off.conj().T, -top.T]])
    if not spec.compact:
        h[:p, p:] = h[p:, :p] = 0.0
    return 1.5 * h / np.linalg.norm(h, 2)


def _rhs(spec, H, z):
    """dZ/dt of one point under one matrix."""
    p = spec.p
    a, b, c, d = H[:p, :p], H[:p, p:], H[p:, :p], H[p:, p:]
    return -1j * (c.T + z @ d.T - a.T @ z - z @ b.T @ z)


def _reference_rows(spec, times, us, z0, start, hs, h, spent):
    """``_chart_rows`` one row at a time on ``(n, p, q)`` stacks: the
    images, their first stages, their defects, and the first fault of
    the earliest failing row (chart edge, then finiteness, symmetry,
    domain and cross-check)."""
    p, sign = spec.p, spec.sign
    points, faults = [], []
    for u in us:
        a, b, c, d = (blk.T for blk in (u[:p, :p], u[:p, p:], u[p:, :p],
                                        u[p:, p:]))
        den, num = a + z0 @ b, c + z0 @ d
        det = np.linalg.det(den)
        noise = p * np.finfo(float).eps * np.prod(np.abs(den).sum(axis=1))
        edge = not (abs(det) > noise and abs(det) >= CHART_EDGE_TOL)
        z = num if edge else np.linalg.solve(den, num)
        row = [(edge, ChartOverflow), (not np.isfinite(z).all(), ValueError)]
        if spec.family is not Family.AIII:
            flip = z.T if spec.family is Family.CI else -z.T
            row.append((np.max(np.abs(z - flip)) > PATH_SYMMETRY_TOL,
                        SymmetryViolation))
            z = (z + flip) / 2.0
        if not spec.compact and np.isfinite(z).all():
            lowest = np.linalg.eigvalsh(np.eye(p) - z @ z.conj().T)[0]
            row.append((not lowest > 0.0, OutsideDomain))
        points.append(z)
        faults.append(row)
    points = np.array(points)
    starts = np.concatenate((start[None], points[:-1]))
    velocities, defects = [], []
    for k, (z, y) in enumerate(zip(points, starts)):
        h1, h2, h3 = (hk[k] for hk in hs)
        k1 = _rhs(spec, h1, y)
        k2 = _rhs(spec, h2, y + (h / 2.0) * k1)
        k3 = _rhs(spec, h2, y + (h / 2.0) * k2)
        k4 = _rhs(spec, h3, y + h * k3)
        dz = z - (y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        if any(bad for bad, _ in faults[k]):
            z = np.zeros_like(z)
        P = np.eye(p) + sign * z @ z.conj().T
        Q = np.eye(z.shape[1]) + sign * z.conj().T @ z
        form = np.trace(np.linalg.solve(P, dz) @ np.linalg.solve(
            Q, dz.conj().T)).real
        velocities.append(k1)
        defects.append(np.sqrt(form))
    drift = spent + np.cumsum(defects)
    for k, row in enumerate(faults):
        row.append((not drift[k] <= CROSS_CHECK_TOL, CrossCheckFailure))
        for bad, kind in row:
            if bad:
                return kind, times[k]
    return points, np.array(defects), np.array(velocities)


def _library_rows(spec, times, us, z0, start, sched, stages, h, spent):
    """``_chart_rows`` on the same rows, through stack-last views, with
    its rows back in the ``(n, p, q)`` layout, or the fault it raised as
    ``(type, time)``."""
    blocks = [_stage_blocks(spec, sched, c) for c in stages]
    try:
        points, defects, velocities = _chart_rows(
            spec, times, us.transpose(1, 2, 0), z0[..., None],
            start[..., None], blocks, h, spent)
    except (ChartOverflow, ValueError, SymmetryViolation, OutsideDomain,
            CrossCheckFailure) as exc:
        return type(exc), float(str(exc).rsplit("t = ", 1)[1])
    return (points.transpose(2, 0, 1), defects,
            velocities.transpose(2, 0, 1))


@pytest.mark.parametrize("constant", [True, False],
                         ids=["constant", "sampled"])
@pytest.mark.parametrize("spec", SPECS, ids=IDS)
def test_chart_rows_match_a_per_matrix_reference(spec, constant, rng):
    """Points, defects and first stages of 20 rows of the flow, on a
    constant and a sampled schedule, agree with the reference to 1e-13
    of their scale.  The rows start from the tenth so the start row is
    not the span's first.  The step is long enough that the defects,
    RK4's local error, stand well above that bound."""
    H, n, h = _generator(spec, rng), 30, 2e-2
    sched = (HamiltonianSchedule.constant([H], [1.0]) if constant else
             HamiltonianSchedule.from_samples(
                 [H], [[0.0, 1.0], [n * h / 2.0, -0.5], [n * h, 0.7]]))
    z0 = random_point(spec, rng, 0.3)
    _, us = propagate(sched, np.eye(len(H)), 0.0, n * h, h)
    times = np.linspace(0.0, n * h, n + 1)
    k0 = 10
    start = _library_rows(spec, times[1:k0 + 1], us[1:k0 + 1], z0, z0, sched,
                          _stages(sched, 0.0, h, 0, k0), h, 0.0)[0][-1]
    stages = _stages(sched, 0.0, h, k0, n)
    got = _library_rows(spec, times[k0 + 1:], us[k0 + 1:], z0, start, sched,
                        stages, h, 0.0)
    want = _reference_rows(spec, times[k0 + 1:], us[k0 + 1:], z0, start,
                           [sched._matrices(c) for c in stages], h, 0.0)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.max(np.abs(g - w)) <= 1e-13 * max(1.0, np.max(np.abs(w)))
    assert 1e-12 < np.max(got[1]) < CROSS_CHECK_TOL


@pytest.mark.parametrize("spec", [s for s in SPECS if not s.compact],
                         ids=[i for i, s in zip(IDS, SPECS) if not s.compact])
@pytest.mark.parametrize("singular", [True, False],
                         ids=["edge-and-domain", "domain"])
def test_chart_edge_is_reported_before_the_domain(spec, singular):
    """From Z = 0 under H = 0, row 5 of 8 is a matrix whose image
    C^T lies outside the bounded domain.  With A = 0 its denominator is
    singular too, and the chart edge is reported first at that row, as
    the reference reports it; with A = I the same row is only outside
    the domain.  The rows before it stay at Z = 0."""
    d, p = defining_dimension(spec), spec.p
    sched = HamiltonianSchedule.constant([np.zeros((d, d))], [1.0])
    c_t = np.zeros(spec.point_shape, complex)
    c_t[0, 0] = c_t[1, 1] = 2.0
    if spec.family is Family.DIII:
        c_t[:] = 0.0
        c_t[0, 1], c_t[1, 0] = 2.0, -2.0
    bad = np.eye(d, dtype=complex)
    bad[:p, :p] = 0.0 if singular else np.eye(p)
    bad[p:, :p] = c_t.T
    us = np.broadcast_to(np.eye(d, dtype=complex), (8, d, d)).copy()
    us[5] = bad
    z0, h = np.zeros(spec.point_shape, complex), 1e-3
    times = h * np.arange(1, 9)
    stages = _stages(sched, 0.0, h, 0, 8)
    got = _library_rows(spec, times, us, z0, z0, sched, stages, h, 0.0)
    want = _reference_rows(spec, times, us, z0, z0,
                           [sched._matrices(c) for c in stages], h, 0.0)
    kind = ChartOverflow if singular else OutsideDomain
    assert got[0] is want[0] is kind
    assert got[1] == pytest.approx(want[1], abs=1e-9)
    assert want[1] == times[5]
