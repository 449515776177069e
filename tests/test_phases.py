import math

import numpy as np
import pytest

from kphase import (
    BranchCut,
    DimensionMismatch,
    Family,
    ManifoldSpec,
    GridMismatch,
    HamiltonianSchedule,
    KernelZero,
    NonRealExpectation,
    NotClosed,
    OutsideDomain,
    PhaseReport,
    SymmetryViolation,
    assemble_report,
    cp1,
    dynamical_phase,
    fourier_loop,
    gradient,
    kernel,
    latitude_circle,
    line_integral_phase,
    polygon_phase,
    projective_distance,
    stokes_compare,
    trajectory,
    triangle_phase,
    validate_points,
    wrap_angle,
)
import kphase.phases
from kphase.phases import _phases

from finite_difference import expm_hermitian_generator

SX = np.array([[0.0, 1.0], [1.0, 0.0]], complex)
SY = np.array([[0.0, -1j], [1j, 0.0]], complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], complex)


def test_wrap_angle_branch():
    assert wrap_angle(-math.pi) == math.pi
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(3.0 * math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-3.5 * math.pi) == pytest.approx(0.5 * math.pi)
    assert wrap_angle(0.25) == 0.25


def test_phase_report_wrapping_and_defect():
    rep = PhaseReport(
        alpha_raw=3.0 * math.pi,
        beta_raw=2.0 * math.pi,
        gamma_raw=math.pi,
        closure_residual=1e-9,
    )
    assert rep.alpha == pytest.approx(math.pi)
    assert rep.beta == pytest.approx(0.0)
    assert abs(rep.defect) < 1e-12
    assert rep.consistent


def test_phase_report_json_keys():
    rep = assemble_report(0.5, 0.2, 0.3, 1e-8)
    data = rep.to_json()
    assert sorted(data) == [
        "alpha",
        "alpha_raw",
        "beta",
        "consistent",
        "gamma",
        "gamma_raw",
        "residual",
    ]
    tagged = assemble_report(0.5, 0.2, 0.3, 1e-8, method="quantum-oracle")
    assert tagged.to_json()["method"] == "quantum-oracle"


def test_assemble_report_rejects_nonfinite():
    with pytest.raises(ValueError):
        assemble_report(float("nan"), 0.0, 0.0, 0.0)


def test_triangle_octant():
    spec = cp1()
    val = triangle_phase(spec, 1, 1.0, 1j)
    assert val == pytest.approx(math.pi / 4.0, abs=1e-12)
    assert triangle_phase(spec, 1, 1j, 1.0) == pytest.approx(
        -val, abs=1e-12
    )
    assert triangle_phase(spec, 3, 1.0, 1j) == pytest.approx(
        3.0 * math.pi / 4.0, abs=1e-12
    )


def test_triangle_kernel_zero():
    spec = cp1()
    # antipodal pair annihilates the kernel
    with pytest.raises(KernelZero):
        triangle_phase(spec, 1, 1.0, -1.0)


def test_triangle_branch_cut():
    spec = cp1()
    with pytest.raises(BranchCut):
        triangle_phase(spec, 1, 2.0, -0.5 + 1e-6j)


FAN_SPECS = [
    ManifoldSpec(family, p, q, compact)
    for family, p, q in ((Family.AIII, 3, 2), (Family.CI, 2, 1),
                         (Family.DIII, 3, 1), (Family.BDI, 3, 1))
    for compact in (True, False)
]


def _random_point(spec, rng):
    """A chart point of norm below 3 on a compact chart, and below 1/2,
    inside every bounded domain, on a non-compact one."""
    raw = rng.standard_normal(spec.point_shape) + 1j * rng.standard_normal(
        spec.point_shape)
    if spec.family is Family.CI:
        raw = raw + raw.T
    elif spec.family is Family.DIII:
        raw = raw - raw.T
    bound = 3.0 if spec.compact else 0.5
    return raw * (bound * rng.uniform() / np.linalg.norm(raw))


@pytest.mark.parametrize("spec", FAN_SPECS, ids=str)
def test_triangle_matches_two_kernel_ratio(spec, rng):
    """The fan takes K(w, conj(z)) as conj(K(z, conj(w))); the ratio of two
    separately evaluated kernels gives the same phase."""
    s = 1.0 if spec.compact else -1.0
    for _ in range(20):
        z, w = _random_point(spec, rng), _random_point(spec, rng)
        for level in (1, 3):
            want = s * level / 2.0 * np.angle(kernel(spec, w, z)
                                              / kernel(spec, z, w))
            assert abs(triangle_phase(spec, level, z, w) - want) <= 1e-14


def test_polygon_needs_two_vertices():
    with pytest.raises(DimensionMismatch):
        polygon_phase(cp1(), 1, [1.0])


def test_polygon_open_fan_telescopes(rng):
    # consecutive-pair fan over an open path equals the sum of its parts
    spec = cp1()
    pts = [complex(*rng.standard_normal(2)) * 0.5 for _ in range(5)]
    total = polygon_phase(spec, 1, pts)
    split = polygon_phase(spec, 1, pts[:3]) + polygon_phase(spec, 1, pts[2:])
    assert total == pytest.approx(split, abs=1e-12)


LOOP_SPECS = [
    cp1(),
    ManifoldSpec(Family.AIII, 2, 2),
    ManifoldSpec(Family.CI, 2, compact=False),
    ManifoldSpec(Family.DIII, 3),
    ManifoldSpec(Family.BDI, 3, compact=False),
]


def test_loop_factories_return_closed_validated_stacks(rng):
    for spec in LOOP_SPECS:
        loops = [fourier_loop(spec, rng, 40)]
        if spec.family is Family.DIII:
            # a latitude circle moves a diagonal entry, which a
            # skew-symmetric chart forbids
            with pytest.raises(SymmetryViolation):
                latitude_circle(spec, 0.5, 40)
        else:
            loops.append(latitude_circle(spec, 0.5, 40))
        if not spec.compact:
            for radius in (1.0, 1.5):
                with pytest.raises(OutsideDomain):
                    latitude_circle(spec, radius, 40)
        for z in loops:
            assert isinstance(z, np.ndarray)
            assert z.shape == (41,) + spec.point_shape
            assert np.array_equal(z[0], z[-1])
            assert np.array_equal(validate_points(spec, z), z)


class _Allocating(Exception):
    """Raised in place of the first allocation a loop factory makes."""


def _refuse_allocation(samples):
    raise _Allocating


@pytest.mark.parametrize("factory", ["latitude", "fourier"])
def test_loop_sample_cap(factory, monkeypatch, rng):
    """samples x rows x cols is capped at 2**22: at the cap the factory
    goes on to allocate, one past it the check refuses first."""
    import kphase.loops

    monkeypatch.setattr(kphase.loops, "_angles", _refuse_allocation)
    spec = ManifoldSpec(Family.AIII, 2, 2)
    build = {"latitude": lambda n: latitude_circle(spec, 0.5, n),
             "fourier": lambda n: fourier_loop(spec, rng, n)}[factory]
    assert kphase.loops.MAX_ENTRIES == 2**22
    with pytest.raises(_Allocating):
        build(2**22 // 4)
    with pytest.raises(ValueError, match="at most 4194304, got 1048577 x"):
        build(2**22 // 4 + 1)


def test_loop_mode_cap(rng):
    import kphase.loops

    assert kphase.loops.MAX_MODES == 4096
    z = fourier_loop(cp1(), rng, 8, modes=4096, scale=1e-3)
    assert z.shape == (9, 1, 1)
    with pytest.raises(ValueError, match="modes must be at most 4096"):
        fourier_loop(cp1(), rng, 8, modes=4097)


def test_polygon_phase_matches_triangle_loop(rng):
    for spec in LOOP_SPECS:
        loop = fourier_loop(spec, rng, 60, scale=0.3)
        fan = sum(triangle_phase(spec, 2, a, b)
                  for a, b in zip(loop[:-1], loop[1:]))
        assert polygon_phase(spec, 2, loop) == pytest.approx(fan, abs=1e-12)


def test_polygon_phase_raises_for_first_offending_triangle():
    spec = cp1()
    # (1, -1) has a vanishing kernel; (2, -0.5 + 1e-6 i) sits on the cut
    with pytest.raises(KernelZero):
        polygon_phase(spec, 1, [0.5, 1.0, -1.0, 2.0, -0.5 + 1e-6j])
    with pytest.raises(BranchCut):
        polygon_phase(spec, 1, [0.5, 2.0, -0.5 + 1e-6j, 1.0, -1.0])


def test_line_integral_matches_connection_loop(rng):
    for spec in LOOP_SPECS:
        loop = fourier_loop(spec, rng, 60, scale=0.3)
        pts = list(loop)
        # the connection one-form along an increment D is Im sum(G * D)
        ref = sum(
            0.5 * np.imag(np.sum((gradient(spec, 2, a) + gradient(spec, 2, b))
                                 * (b - a)))
            for a, b in zip(pts[:-1], pts[1:])
        )
        got = line_integral_phase(spec, 2, loop)
        assert got == pytest.approx(ref, abs=1e-12)


def test_polygon_closed_ngon_approaches_latitude_area():
    spec = cp1()
    loop = latitude_circle(spec, 1.0, 720)
    val = polygon_phase(spec, 1, loop)
    assert val == pytest.approx(math.pi, abs=1e-4)


def test_line_integral_latitude_formula():
    spec = cp1()
    for level in (1, 2):
        for r in (0.5, 1.0, 2.0):
            loop = latitude_circle(spec, r, 1500)
            got = line_integral_phase(spec, level, loop)
            want = 2.0 * math.pi * level * r**2 / (1.0 + r**2)
            assert got == pytest.approx(want, abs=2e-5 * level)


def test_line_integral_rejects_open_path():
    spec = cp1()
    pts = [0.0, 0.5, 0.5 + 0.5j]
    with pytest.raises(NotClosed):
        line_integral_phase(spec, 1, pts)


def test_line_integral_accepts_trajectory():
    spec = cp1()
    sched = HamiltonianSchedule.constant([SZ], [1.0])
    traj = trajectory(spec, 1.0, sched, math.pi, 1e-3)
    val = line_integral_phase(spec, 1, traj, cyclicity_tol=1e-6)
    assert val == pytest.approx(math.pi, abs=1e-5)


def test_dynamical_phase_constant_field():
    spec = cp1()
    sched = HamiltonianSchedule.constant([SZ], [1.0])
    traj = trajectory(spec, 0.5, sched, 1.0, 1e-2)
    beta = dynamical_phase(spec, 1, traj, sched)
    # conserved energy times the span
    z = 0.5
    expected = (1.0 - z**2) / (1.0 + z**2)
    assert beta == pytest.approx(expected, abs=1e-7)


def _hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2.0


def _phase_case(rng, name):
    """A spec, trajectory and schedule.  The constant schedules have
    integer spectra, tilted by a random unitary or conjugated into block
    form, so the ray returns at T = 2 pi; the sampled CP1 schedule has no
    period, and its trajectory is not closed."""
    if name == "CP1-sampled":
        knots = np.linspace(0.0, 2.0, 21)
        sched = HamiltonianSchedule.from_samples([SX, SY, SZ], np.column_stack(
            [knots, rng.uniform(-0.6, 0.6, (21, 3))]))
        return cp1(), trajectory(cp1(), 0.3 + 0.2j, sched, 2.0, 1e-3), sched
    if name == "AIII(3,2)":
        spec = ManifoldSpec(Family.AIII, 3, 2)
        V = expm_hermitian_generator(_hermitian(rng, 5), 0.3)
        H = V @ np.diag([2.0, 1.0, 0.0, -1.0, -2.0]) @ V.conj().T
        z0 = 0.1 * rng.standard_normal((3, 2))
    else:
        family, lam, compact = {
            "CI(2)": (Family.CI, [1.0, 2.0], True),
            "DIII(3)-noncompact": (Family.DIII, [0.0, 1.0, 3.0], False),
        }[name]
        p = len(lam)
        spec = ManifoldSpec(family, p, compact=compact)
        W = expm_hermitian_generator(_hermitian(rng, p), 1.0)
        P = W @ np.diag(lam) @ W.conj().T
        H = np.block([[P, np.zeros((p, p))], [np.zeros((p, p)), -P.T]])
        b = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
        b = b + (1.0 if family is Family.CI else -1.0) * b.T
        z0 = 0.3 * b / np.linalg.norm(b, 2)
    sched = HamiltonianSchedule.constant([H], [1.0])
    return spec, trajectory(spec, z0, sched, 2.0 * math.pi, 4e-3), sched


@pytest.mark.parametrize("name", ["AIII(3,2)", "CI(2)", "DIII(3)-noncompact",
                                  "CP1-sampled"])
def test_phase_core_matches_the_public_phases(name, rng):
    """The one-gradient core that evolve runs gives exactly the values of
    the public phases and the closure distance of the path's ends."""
    spec, traj, sched = _phase_case(rng, name)
    tol = math.inf if name == "CP1-sampled" else 1e-6
    beta, gamma, closure = _phases(spec, 2, traj, sched, tol)
    assert beta == dynamical_phase(spec, 2, traj, sched)
    assert gamma == line_integral_phase(spec, 2, traj, cyclicity_tol=tol)
    assert closure == float(projective_distance(spec, traj.points[0],
                                                traj.points[-1]))
    assert (closure < 1e-6) == (name != "CP1-sampled")


def test_phase_core_checks_the_expectation_before_the_closure(monkeypatch):
    """On a path that is not closed, an expectation that is not real
    raises NonRealExpectation (exit 4) before NotClosed (exit 3), as the
    public phases did when evolve ran them one after the other."""
    spec = cp1()
    sched = HamiltonianSchedule.constant([SZ], [1.0])
    traj = trajectory(spec, 0.5, sched, 1.0, 1e-2)
    with pytest.raises(NotClosed):
        _phases(spec, 1, traj, sched, 1e-6)

    def non_real(*args):
        raise NonRealExpectation("imaginary part exceeds tolerance")

    monkeypatch.setattr(kphase.phases, "_expectation", non_real)
    with pytest.raises(NonRealExpectation):
        _phases(spec, 1, traj, sched, 1e-6)


def test_dynamical_phase_grid_mismatch():
    spec = cp1()
    sched = HamiltonianSchedule.constant([SZ], [1.0])
    traj = trajectory(spec, 0.5, sched, 1.0, 1e-2)
    short = HamiltonianSchedule.from_samples([SZ], [[0.0, 1.0], [0.5, 1.0]])
    with pytest.raises(GridMismatch):
        dynamical_phase(spec, 1, traj, short)


def test_stokes_compare_latitude():
    spec = cp1()
    loop = latitude_circle(spec, 1.0, 600)
    rep = stokes_compare(spec, 1, loop)
    assert abs(rep.difference) < 1e-4
    assert rep.samples == 601
    assert rep.polygon_fan == pytest.approx(math.pi, abs=1e-3)


def test_stokes_compare_branch_cut_refinement():
    spec = cp1()
    # the long jump between the two far vertices crosses the cut until
    # midpoint insertion splits it
    loop = [0.5, 2.0, -0.5 + 0.03j, 0.5]
    rep = stokes_compare(spec, 1, loop, cyclicity_tol=1e-12)
    assert abs(rep.difference) < 0.3
    with pytest.raises(BranchCut):
        polygon_phase(spec, 1, loop)


BOUNDED_SPECS = [
    ManifoldSpec(Family.AIII, 1, 1, compact=False),
    ManifoldSpec(Family.AIII, 2, 1, compact=False),
    ManifoldSpec(Family.AIII, 2, 2, compact=False),
    ManifoldSpec(Family.CI, 2, compact=False),
    ManifoldSpec(Family.DIII, 3, compact=False),
    ManifoldSpec(Family.BDI, 3, compact=False),
]


@pytest.mark.parametrize("spec", BOUNDED_SPECS, ids=str)
def test_fan_matches_line_integral_on_bounded_domains(spec, rng):
    """The fan carries the potential's sign s = -1 on a bounded domain, as
    the line integral does; with the compact sign it would be -line."""
    rep = stokes_compare(spec, 1, fourier_loop(spec, rng, 1000))
    assert abs(rep.difference) < 1e-4


def test_disk_latitude_phases_match_closed_form():
    """On the disk, F = -level ln(1 - |z|^2), so a circle of radius r
    encloses the phase 2 pi level r^2 / (1 - r^2) by both routes."""
    spec = cp1(compact=False)
    for level in (1, 2):
        want = 2.0 * math.pi * level * 0.25 / 0.75
        rep = stokes_compare(spec, level, latitude_circle(spec, 0.5, 2000))
        assert rep.line_integral == pytest.approx(want, abs=1e-4)
        assert rep.polygon_fan == pytest.approx(want, abs=1e-4)
