import contextlib
import io
import json
import math
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kphase.cli
import kphase.dynamics
import kphase.geometry
import kphase.manifolds
import kphase.phases
import kphase.su2
from kphase import (
    Family,
    HamiltonianSchedule,
    ManifoldSpec,
    cp1,
    triangle_phase,
)
from kphase.cli import main
from kphase.serialize import matrix_to_json

from finite_difference import random_point

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
NaN = math.nan


def run_cli(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_kernel_flags(capsys):
    rc, out, err = run_cli(capsys, ["kernel", "--z", "1", "--w", "[0, 1]"])
    assert rc == 0
    assert err == ""
    assert json.loads(out) == {"im": -1.0, "re": 1.0}


@pytest.mark.parametrize("p", ["2", "3"])
def test_kernel_on_the_smaller_side_from_the_cli(capsys, p):
    """``kphase kernel`` on a large rank-one AIII(p, 1) point prints
    1 + 2e18, which the p x p determinant cancelled to 0.0."""
    z = json.dumps([[1e9, 0.0], [1e9, 0.0]] + [[0.0, 0.0]] * (int(p) - 2))
    rc, out, _ = run_cli(capsys, ["kernel", "--family", "AIII", "--p", p,
                                  "--q", "1", "--z", z, "--w", z])
    assert rc == 0
    value = json.loads(out)
    assert value["im"] == 0.0
    assert abs(value["re"] - 2e18) <= 1e-15 * 2e18


def test_kernel_output_byte_stable(capsys):
    argv = ["kernel", "--z", "0.25", "--w", "[0.5, -0.125]"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second


def _precession_config(tmp_path) -> str:
    path = tmp_path / "precession.json"
    path.write_text(json.dumps({
        "schedule": HamiltonianSchedule.constant([SZ], [1.0]).to_json(),
        "z0": [0.5, 0.0], "T": 3.5, "dt": 2e-3, "stride": 300}))
    return str(path)


@pytest.mark.parametrize("argv", [
    ["kernel", "--z", "0.25", "--w", "[0.5, -0.125]"],
    ["triangle", "--z", "1", "--w", "[0, 1]", "--level", "2"],
    ["evolve", "--config", "CONFIG"],
    ["stokes", "--kind", "latitude", "--samples", "200"],
    ["poincare", "G2/A1xU1", "--min-orbit", "E8"],
    ["oracle-compare", "--config", "CONFIG", "--j", "1.5"],
], ids=lambda argv: argv[0])
def test_main_reuses_its_parser(tmp_path, capsys, monkeypatch, argv):
    """main builds its parser on the first call only, and a second call in
    the same process prints the same bytes."""
    argv = [_precession_config(tmp_path) if a == "CONFIG" else a
            for a in argv]
    built = []

    def counted():
        built.append(1)
        return build_parser()

    build_parser = kphase.cli.build_parser
    monkeypatch.setattr(kphase.cli, "build_parser", counted)
    kphase.cli._parser.cache_clear()
    first = run_cli(capsys, argv)
    second = run_cli(capsys, argv)
    assert first[0] == 0
    assert first == second
    assert len(built) == 1


@pytest.mark.parametrize("bad", [
    ["kernel", "--bogus", "1"],
    ["no-such-command"],
    ["evolve", "--level", "two"],
    [],
])
def test_usage_error_leaves_the_parser_usable(capsys, bad):
    with pytest.raises(SystemExit) as exc:
        main(bad)
    assert exc.value.code == 2
    capsys.readouterr()
    rc, out, err = run_cli(capsys, ["kernel", "--z", "1", "--w", "[0, 1]"])
    assert (rc, err) == (0, "")
    assert json.loads(out) == {"im": -1.0, "re": 1.0}


def test_module_invocation_matches_in_process():
    proc = subprocess.run(
        [sys.executable, "-m", "kphase.cli", "kernel", "--z", "1",
         "--w", "[0, 1]"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"im": -1.0, "re": 1.0}


def test_triangle_matches_library(capsys):
    rc, out, _ = run_cli(capsys, ["triangle", "--z", "1", "--w", "[0, 1]"])
    assert rc == 0
    report = json.loads(out)
    expected = triangle_phase(cp1(), 1, 1.0, 1j)
    assert report["method"] == "triangle-fan"
    assert report["beta"] == 0.0
    assert abs(abs(report["gamma"]) - math.pi / 4) < 1e-12
    assert abs(report["gamma"] - expected) < 1e-15


def test_poincare_lines(capsys):
    rc, out, _ = run_cli(
        capsys,
        ["poincare", "SU(3)/U(1)xU(1)", "G2/A1xU1", "--min-orbit", "E8"],
    )
    assert rc == 0
    lines = [json.loads(s) for s in out.splitlines()]
    assert len(lines) == 3
    assert lines[0]["coefficients"] == [1, 0, 2, 0, 2, 0, 1]
    assert lines[0]["euler_characteristic"] == 6
    assert lines[0]["valid"] is True
    assert lines[1]["coefficients"] == [1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1]
    assert lines[2] == {
        "dimension": 114,
        "group": "E8",
        "isotropy": "E7 x SO(2)",
    }


def test_flagged_group_under_warnings_as_errors_exits_two(capsys):
    """With every warning an error, the reducible D2 factor's warning
    ends a ``poincare`` run in exit 2 with a strict JSON error naming it,
    not in a traceback; without that filter the row is printed."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run_cli(capsys, ["poincare", "--min-orbit", "D2"])
    assert rc == 2
    payload = json.loads(out, parse_constant=_strict)["error"]
    assert payload["type"] == "ReducibleFactor"
    assert payload["exit_code"] == 2
    assert "reducible" in payload["message"] and "ReducibleFactor" in err
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rc, out, _ = run_cli(capsys, ["poincare", "--min-orbit", "D2"])
    assert rc == 0
    assert json.loads(out)["dimension"] == 2


def test_numpy_warning_as_error_propagates_out_of_main(capsys, monkeypatch):
    """Only the library's own ``ReducibleFactor`` maps to exit 2: a numpy
    RuntimeWarning raised as an error inside a run is a numerical fault,
    and leaves ``main`` as an exception, not as a bad-input exit."""

    def dividing_kernel(spec, z, w):
        return np.ones(1) / np.zeros(1)

    monkeypatch.setattr(kphase.cli, "kernel", dividing_kernel)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeWarning, match="divide"):
            main(["kernel", "--z", "1", "--w", "1"])
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("name", ["SU(4", "SU4)", "SO(5"])
def test_unbalanced_group_name_exits_two(capsys, name):
    rc, out, _ = run_cli(capsys, ["poincare", "--min-orbit", name])
    assert rc == 2
    assert json.loads(out, parse_constant=_strict)["error"]["type"] == (
        "UnknownGroup")


def test_evolve_with_oracle(tmp_path, capsys):
    sched = HamiltonianSchedule.constant([SZ], [1.0])
    cfg = {
        "schedule": sched.to_json(),
        "z0": [1.0, 0.0],
        "T": math.pi,
        "dt": 2e-3,
        "stride": 500,
        "oracle": True,
        "level": 1,
    }
    path = tmp_path / "precession.json"
    path.write_text(json.dumps(cfg))
    rc, out, _ = run_cli(capsys, ["evolve", "--config", str(path)])
    assert rc == 0
    lines = [json.loads(s) for s in out.splitlines()]
    for row in lines[:-1]:
        assert set(row) == {"Z", "t"}
    assert lines[0]["t"] == 0.0
    assert lines[0]["Z"] == [[[1.0, 0.0]]]
    summary = lines[-1]
    assert summary["cross_check_error"] < 1e-9
    assert abs(summary["cycle"]["time"] - math.pi) < 1e-6
    assert summary["report"]["method"] == "chart-line-integral"
    # equatorial orbit encloses a hemisphere
    assert abs(abs(summary["report"]["gamma"]) - math.pi) < 1e-4
    assert summary["oracle"]["method"] == "quantum-oracle"
    assert abs(summary["oracle_defect"]) < 1e-4


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sampled_ci_evolve_is_not_invalid_input(tmp_path, seed):
    """A two-knot sampled CI(2) schedule of a generator with blocks
    [[P, S], [S^dagger, -P^T]], S symmetric, at dt = 0.05.  RK4 step
    matrices left the symmetric chart within two steps, which ended in
    exit 2; the cross-check's RK4 steps may fail at this step size."""
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
    P, S = (a + a.conj().T) / 2.0, (b + b.T) / 2.0
    H = np.block([[P, S], [S.conj().T, -P.T]])
    cfg = {"manifold": {"family": "CI", "p": 2},
           "schedule": {"generators": [matrix_to_json(H)],
                        "samples": [[0.0, 1.0], [5.0, 0.5]]},
           "z0": matrix_to_json(np.array([[0.2, 0.1], [0.1, -0.3]])),
           "T": 5.0, "dt": 0.05}
    rc, rows, _ = _run_config_file(tmp_path / "ci.json",
                                   ["evolve", "--config",
                                    str(tmp_path / "ci.json")], cfg)
    assert rc in (0, 4)
    assert rows and (rc == 0) == ("error" not in rows[-1])


def test_gamma_ignores_a_trace_shift(tmp_path, capsys):
    """H -> H + c I moves alpha and beta by c T each and leaves gamma, on
    the chart and on the oracle, which then agree: CP1, level 1,
    H = diag(1 + c, c), z0 = 0.5, T = 2 pi."""
    runs = []
    for c in (0.0, 0.3):
        sched = HamiltonianSchedule.constant(
            [np.diag([1.0 + c, c]).astype(complex)], [1.0])
        cfg = {"schedule": sched.to_json(), "z0": 0.5, "T": 2.0 * math.pi,
               "dt": 1e-3, "stride": 10_000, "oracle": True, "level": 1}
        path = tmp_path / f"shift-{c}.json"
        path.write_text(json.dumps(cfg))
        rc, out, _ = run_cli(capsys, ["evolve", "--config", str(path)])
        assert rc == 0
        runs.append(json.loads(out.splitlines()[-1]))
    base, shifted = runs
    for key in ("report", "oracle"):
        moved = shifted[key]["gamma"] - base[key]["gamma"]
        assert abs(math.remainder(moved, 2.0 * math.pi)) < 1e-9
        assert shifted[key]["consistent"] is True
    assert abs(shifted["oracle_defect"]) < 1e-6


def test_evolve_integrates_once(tmp_path, capsys, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return trajectory(*args, **kwargs)

    trajectory = kphase.cli.trajectory
    monkeypatch.setattr(kphase.cli, "trajectory", counted)
    sched = HamiltonianSchedule.constant([SZ], [1.0])
    cfg = {"schedule": sched.to_json(), "z0": [0.5, 0.0], "T": 4.0,
           "dt": 2e-3, "stride": 300}
    path = tmp_path / "once.json"
    path.write_text(json.dumps(cfg))
    rc, out, _ = run_cli(capsys, ["evolve", "--config", str(path)])
    assert rc == 0
    assert len(calls) == 1
    lines = [json.loads(s) for s in out.splitlines()]
    # the reported path ends exactly at the detected cycle time
    assert lines[-2]["t"] == lines[-1]["cycle"]["time"]
    assert abs(lines[-1]["cycle"]["time"] - math.pi) < 1e-6


def test_evolve_takes_one_gradient_pass(tmp_path, capsys, monkeypatch):
    """beta and gamma come from one gradient of the cycle's rows, closed
    by the first row."""
    seen = []

    def counted(spec, level, z):
        seen.append(z.copy())
        return gradient(spec, level, z)

    gradient = kphase.geometry._gradient
    for mod in (kphase.geometry, kphase.dynamics, kphase.phases):
        monkeypatch.setattr(mod, "_gradient", counted)
    rc, out, _ = run_cli(capsys, ["evolve", "--config",
                                  _precession_config(tmp_path),
                                  "--stride", "1"])
    assert rc == 0
    rows = [json.loads(line)["Z"] for line in out.splitlines()[:-1]]
    [z] = seen
    assert len(z) == len(rows) + 1
    assert np.array_equal(z[0], z[-1])
    assert matrix_to_json(z[-2]) == rows[-1]


@pytest.mark.parametrize("manifold, z0", [
    ({"family": "AIII", "p": 1, "q": 1}, [0.5, 0.0]),
    ({"family": "AIII", "p": 3, "q": 2},
     [[[0.2, 0.0], [0.0, 0.1]], [[0.0, -0.1], [0.1, 0.0]],
      [[0.0, 0.0], [0.2, 0.1]]]),
], ids=["CP1", "AIII(3,2)"])
def test_evolve_reads_the_stored_velocities(tmp_path, capsys, monkeypatch,
                                            manifold, z0):
    """beta reads the velocities the trajectory stored: ``run_evolve``
    takes dZ/dt on no stack of the cycle's rows outside ``_chart_rows``,
    whose RK4 steps hold dZ/dt as their first stages.  Outside it, the
    last row and the clip row take one call each.  Every dZ/dt, the
    public ``riccati_rhs`` included, is the stack-last core ``_riccati``
    on ``(p, q, n)`` points, so the count reads that core."""
    calls = []

    def recording(blocks, Z):
        frame, inside = sys._getframe(1), False
        # The RK4 stages call through _rk4_step.
        for _ in range(2):
            inside |= frame.f_code.co_name == "_chart_rows"
            frame = frame.f_back
        calls.append((inside, np.shape(Z)[2:]))
        return riccati(blocks, Z)

    riccati = kphase.dynamics._riccati
    monkeypatch.setattr(kphase.dynamics, "_riccati", recording)
    n = manifold["p"] + manifold["q"]
    h = np.diag(np.arange(n, dtype=float) - 1.0)
    sched = HamiltonianSchedule.constant([h], [1.0])
    cfg = {"manifold": manifold, "schedule": sched.to_json(), "z0": z0,
           "T": 7.0, "dt": 2e-3, "stride": 500}
    path = tmp_path / "velocities.json"
    path.write_text(json.dumps(cfg))
    rc, out, _ = run_cli(capsys, ["evolve", "--config", str(path)])
    assert rc == 0, out
    assert json.loads(out.splitlines()[-1])["cycle"]["time"] < 7.0
    assert [shape for inside, shape in calls if not inside] == [(1,), (1,)]
    assert sum(shape[0] for inside, shape in calls if inside) >= 4 * 3000


def _loop_rows(m) -> list:
    """The [real, imag] pairs of each entry, one float conversion each."""
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


@pytest.mark.parametrize("manifold, z0", [
    ({}, [0.5, -0.0]),
    ({"family": "CI", "p": 2}, [[[0.2, 0.0], [0.0, 0.0]],
                                [[0.0, 0.0], [-0.3, 0.0]]]),
], ids=["CP1", "CI(2)"])
def test_evolve_rows_match_matrix_to_json(tmp_path, capsys, monkeypatch,
                                          manifold, z0):
    """Each trajectory line holds the row's matrix_to_json and its time,
    signed zeros included, as per-entry float conversions give them: the
    CP1 start has a -0.0, and the CI(2) flow turns zero entries to -0.0."""
    kept = []

    def keep(*args):
        kept.append(evolve_cycle(*args))
        return kept[-1]

    evolve_cycle = kphase.cli._evolve_cycle
    monkeypatch.setattr(kphase.cli, "_evolve_cycle", keep)
    H = np.diag([1.0, 2.0, -1.0, -2.0] if manifold else [1.0, -1.0])
    cfg = {"schedule": HamiltonianSchedule.constant([H], [1.0]).to_json(),
           "z0": z0, "T": 2.1 * math.pi, "dt": 4e-3, "stride": 97}
    if manifold:
        cfg["manifold"] = manifold
    path = tmp_path / "rows.json"
    path.write_text(json.dumps(cfg))
    rc, out, _ = run_cli(capsys, ["evolve", "--config", str(path)])
    assert rc == 0
    [(cyc, _)] = kept
    ks = kphase.cli._strided(len(cyc.times), 97)
    want = [json.dumps({"Z": _loop_rows(cyc.points[k]),
                        "t": float(cyc.times[k])}, sort_keys=True)
            for k in ks]
    assert out.splitlines()[:-1] == want
    assert all(matrix_to_json(cyc.points[k]) == _loop_rows(cyc.points[k])
               for k in ks)
    assert "-0.0" in "".join(want)


def test_evolve_geometry_is_batched(tmp_path, capsys, monkeypatch):
    """The kernel and the gradient cores run a fixed number of times per
    evolve, however many samples the path has, and the validating public
    forms not at all."""
    counts = {"kernel": 0, "_kernel": 0, "potential": 0, "_gradient": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    for name in counts:
        fn = getattr(kphase.manifolds if "kernel" in name else kphase.geometry,
                     name)
        for mod in (kphase.manifolds, kphase.geometry, kphase.dynamics,
                    kphase.phases, kphase.cli):
            if getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, counting(name, fn))
    sched = HamiltonianSchedule.constant([SX, SZ], [0.6, 0.8])
    cfg = {"schedule": sched.to_json(), "z0": [0.3, 0.1], "T": 3.5,
           "dt": 2e-3, "level": 2, "stride": 500}
    path = tmp_path / "batched.json"
    path.write_text(json.dumps(cfg))
    rc, _, _ = run_cli(capsys, ["evolve", "--config", str(path)])
    assert rc == 0
    assert counts["kernel"] == counts["potential"] == 0
    assert 0 < counts["_kernel"] <= 10
    assert 0 < counts["_gradient"] <= 10


@pytest.mark.parametrize("kind", ["fourier", "points"])
def test_stokes_validates_whole_stacks(capsys, monkeypatch, tmp_path, kind):
    """A stokes loop stays one array from the factory to the phases: it is
    validated exactly once, as the whole stack, and never sample by
    sample."""
    sizes = []
    validate = kphase.manifolds.validate_points

    def counted(spec, z, *args, **kwargs):
        sizes.append(np.shape(z)[:-2])
        return validate(spec, z, *args, **kwargs)

    for mod in (kphase.manifolds, kphase.loops, kphase.phases, kphase.cli):
        monkeypatch.setattr(mod, "validate_points", counted)
    argv = ["stokes", "--family", "CI", "--p", "2", "--non-compact"]
    if kind == "fourier":
        argv += ["--kind", "fourier", "--samples", "1000", "--seed", "7"]
    else:
        t = 2.0 * np.pi * np.arange(1001) / 1000
        points = [[[[0.3 * math.cos(a), 0.1], [0.05, 0.0]],
                   [[0.05, 0.0], [0.0, 0.3 * math.sin(a)]]] for a in t]
        config = tmp_path / "loop.json"
        config.write_text(json.dumps({"loop": {"kind": "points",
                                               "points": points}}))
        argv += ["--config", str(config)]
    rc, _, _ = run_cli(capsys, argv)
    assert rc == 0
    assert sizes == [(1001,)]


def _strict(name):
    raise ValueError(f"non-strict JSON constant {name}")


@pytest.mark.parametrize(
    "argv, schedule",
    [
        (["kernel", "--z", "[NaN, 0]", "--w", "1"], None),
        (["kernel", "--z", "1", "--w", "Infinity"], None),
        (["evolve", "--T", "1.0"], {"generators": [[[[NaN, 0], [0, 0]],
                                                     [[0, 0], [-1, 0]]]],
                                    "constant": [1.0]}),
        (["evolve", "--T", "1.0"], {"generators": [[[[1, 0], [0, 0]],
                                                     [[0, 0], [-1, 0]]]],
                                    "constant": [NaN]}),
        (["evolve", "--T", "1.0"], {"generators": [[[[1, 0], [0, 0]],
                                                     [[0, 0], [-1, 0]]]],
                                    "samples": [[0.0, 1.0], [NaN, 1.0]]}),
        (["evolve", "--T", "Infinity"], {"generators": [[[[1, 0], [0, 0]],
                                                         [[0, 0], [-1, 0]]]],
                                         "constant": [1.0]}),
    ],
)
def test_non_finite_input_exits_two(tmp_path, capsys, argv, schedule):
    if schedule is not None:
        path = tmp_path / "nan.json"
        path.write_text(json.dumps({"schedule": schedule, "z0": 0.5}))
        argv = argv[:1] + ["--config", str(path)] + argv[1:]
    rc, out, err = run_cli(capsys, argv)
    assert rc == 2
    payload = json.loads(out, parse_constant=_strict)["error"]
    assert payload["exit_code"] == 2
    assert payload["type"] == "ValueError"
    assert err.strip() != ""


def test_evolve_flag_overrides_config(tmp_path, capsys):
    sched = HamiltonianSchedule.constant([SZ], [1.0])
    cfg = {"schedule": sched.to_json(), "z0": [1.0, 0.0], "T": 0.5,
           "dt": 2e-3, "stride": 4000}
    path = tmp_path / "short.json"
    path.write_text(json.dumps(cfg))

    rc, out, err = run_cli(capsys, ["evolve", "--config", str(path)])
    assert rc == 3
    payload = json.loads(out)["error"]
    assert payload["exit_code"] == 3
    assert payload["type"] == "NoCycleFound"
    assert err.strip() != ""

    rc, out, _ = run_cli(
        capsys, ["evolve", "--config", str(path), "--T", "3.2"]
    )
    assert rc == 0
    summary = json.loads(out.splitlines()[-1])
    assert abs(summary["cycle"]["time"] - math.pi) < 1e-5


def test_exit_code_two_outside_domain(capsys):
    rc, out, err = run_cli(
        capsys,
        ["kernel", "--family", "AIII", "--p", "1", "--q", "1",
         "--non-compact", "--z", "2", "--w", "0"],
    )
    assert rc == 2
    payload = json.loads(out)["error"]
    assert payload["exit_code"] == 2
    assert payload["type"] == "OutsideDomain"
    assert payload["message"]
    assert err.strip() != ""


@pytest.mark.parametrize("manifold, z", [
    (["--p", "1", "--q", "1"], "[1e200, 0]"),
    (["--p", "2", "--q", "1"], "[[[1e200, 0]], [[0, 0]]]"),
    (["--p", "2", "--q", "1"], "[[[1e200, 1e200]], [[1e200, -1e200]]]"),
], ids=["AIII(1,1)", "AIII(2,1)", "AIII(2,1)-complex"])
@pytest.mark.parametrize("action", ["error", "ignore"])
def test_far_non_compact_point_exits_two_outside_domain(capsys, manifold, z,
                                                        action):
    """Entries past about 1e154 overflow Z Z^dagger in the domain check;
    the point is still refused as outside the domain, whether
    RuntimeWarnings are errors or not."""
    argv = ["kernel", "--family", "AIII", *manifold, "--non-compact",
            "--z", z, "--w", "0"]
    with warnings.catch_warnings():
        warnings.simplefilter(action, RuntimeWarning)
        rc, out, err = run_cli(capsys, argv)
    assert rc == 2
    payload = json.loads(out, parse_constant=_strict)["error"]
    assert payload["exit_code"] == 2
    assert payload["type"] == "OutsideDomain"
    assert err.startswith("kphase: OutsideDomain")


@pytest.mark.parametrize("manifold, z, w", [
    (["--family", "AIII", "--p", "2", "--q", "2"],
     np.full((2, 2), 1e110), np.full((2, 2), 1e110)),
    (["--family", "DIII", "--p", "3"],
     1e110 * np.array([[0, 1, -1], [-1, 0, 1], [1, -1, 0]]),
     -1e110 * np.array([[0, 1, -1], [-1, 0, 1], [1, -1, 0]])),
], ids=["2x2", "3x3"])
@pytest.mark.parametrize("action", ["error", "ignore"])
def test_kernel_overflow_exits_two_naming_the_kernel(capsys, manifold, z, w,
                                                     action):
    """A determinant kernel whose value overflows exits 2 with strict JSON
    that names the kernel, whether RuntimeWarnings are errors or not; LU
    cancelled the 3 x 3 one to 0.0, whose true size is about 1e441."""
    argv = ["kernel", *manifold, "--z", json.dumps(matrix_to_json(z)),
            "--w", json.dumps(matrix_to_json(w))]
    with warnings.catch_warnings():
        warnings.simplefilter(action, RuntimeWarning)
        rc, out, err = run_cli(capsys, argv)
    assert rc == 2
    payload = json.loads(out, parse_constant=_strict)["error"]
    assert payload["exit_code"] == 2
    assert payload["type"] == "OverflowError"
    assert "kernel" in payload["message"]
    assert err.startswith("kphase: OverflowError")


def test_small_chart_evolve_takes_no_lapack_det_or_eigvalsh(tmp_path, capsys,
                                                           monkeypatch, rng):
    """A non-compact DIII(3) evolve takes its determinants in closed form
    and its domain check from leading minors."""
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK determinant or eigenvalues on a 3 x 3 "
                             "chart")

    for name in ("det", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    w, _ = np.linalg.qr(a)
    P = w @ np.diag([0.0, 1.0, 3.0]) @ w.conj().T
    P = (P + P.conj().T) / 2.0
    H = np.block([[P, np.zeros((3, 3))], [np.zeros((3, 3)), -P.T]])
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    z0 = 0.5 * (b - b.T) / np.linalg.norm(b - b.T, 2)
    cfg = {"manifold": {"family": "DIII", "p": 3, "compact": False},
           "schedule": HamiltonianSchedule.constant([H], [1.0]).to_json(),
           "z0": matrix_to_json(z0), "T": 1.02 * 2.0 * math.pi, "dt": 4e-3,
           "level": 2, "stride": 100}
    path = tmp_path / "diii.json"
    path.write_text(json.dumps(cfg))
    rc, out, _ = run_cli(capsys, ["evolve", "--config", str(path)])
    assert rc == 0
    summary = json.loads(out.splitlines()[-1])
    assert abs(summary["cycle"]["time"] - 2.0 * math.pi) < 1e-6


def test_metric_and_stokes_take_no_lapack_inverse_or_eigvalsh(
        capsys, monkeypatch, rng):
    """``metric`` on every family solves with the chart kernels, and a
    non-compact AIII(4,1) stokes run checks its domain by Cholesky
    pivots: neither inverts a matrix nor takes eigenvalues."""
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK inverse or eigenvalues on a chart")

    for name in ("inv", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    for compact in (True, False):
        for spec in (ManifoldSpec(Family.AIII, 3, 2, compact),
                     ManifoldSpec(Family.AIII, 4, 1, compact),
                     ManifoldSpec(Family.CI, 2, 1, compact),
                     ManifoldSpec(Family.DIII, 3, 1, compact),
                     ManifoldSpec(Family.BDI, 3, 1, compact)):
            g = kphase.geometry.metric(spec, 2, random_point(spec, rng))
            assert np.all(np.isfinite(g))
    rc, out, _ = run_cli(capsys, [
        "stokes", "--family", "AIII", "--p", "4", "--q", "1",
        "--non-compact", "--kind", "fourier", "--seed", "3",
        "--samples", "400"])
    assert rc == 0
    assert abs(json.loads(out)["difference"]) < 1e-6


@pytest.mark.parametrize("action", ["error", "ignore"])
def test_far_chart_start_exits_two_naming_the_time(tmp_path, capsys, rng,
                                                   action):
    """A compact DIII(3) start of size 1e120 under a generator with a
    non-zero B block leaves the chart at the first step: exit 2 with
    strict JSON, ``ChartOverflow`` and its time, whether RuntimeWarnings
    are errors or not.  Before, LAPACK raised ``LinAlgError`` or the
    closed-form determinant's overflow warning ended in a traceback."""
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    P, Q = (a + a.conj().T) / 2.0, (b - b.T) / 2.0
    H = np.block([[P, Q], [Q.conj().T, -P.T]])
    z0 = 1e120 * np.array([[0, 1, 2j], [-1, 0, 0.5], [-2j, -0.5, 0]])
    cfg = {"manifold": {"family": "DIII", "p": 3},
           "schedule": HamiltonianSchedule.constant([H], [1.0]).to_json(),
           "z0": matrix_to_json(z0), "T": 1.0, "dt": 1e-3}
    path = tmp_path / "far.json"
    path.write_text(json.dumps(cfg))
    with warnings.catch_warnings():
        warnings.simplefilter(action, RuntimeWarning)
        rc, out, err = run_cli(capsys, ["evolve", "--config", str(path)])
    assert rc == 2
    payload = json.loads(out, parse_constant=_strict)["error"]
    assert payload["type"] == "ChartOverflow"
    assert payload["message"].endswith("at t = 0.001")
    assert err.startswith("kphase: ChartOverflow")


@pytest.mark.parametrize("argv", [
    ["stokes", "--non-compact"],
    ["kernel", "--p", "2", "--z", "0", "--w", "0"],
])
def test_manifold_without_family_exits_two_naming_it(capsys, argv):
    rc, out, err = run_cli(capsys, argv)
    assert rc == 2
    payload = json.loads(out)["error"]
    assert payload["type"] == "ValueError"
    assert "'family'" in payload["message"]
    assert err.strip() != ""


def _gather(argv):
    return kphase.cli._gather_config(kphase.cli._parser().parse_args(argv))


_FILE_FLAGS = [
    (["--config", "CONFIG"], {"T": 1.0}),
    (["--sweep", "SWEEP"], {}),
]
_CHART_FLAGS = [
    (["--family", "AIII"], {"manifold": {"family": "AIII"}}),
    (["--p", "2"], {"manifold": {"p": 2}}),
    (["--q", "1"], {"manifold": {"q": 1}}),
    (["--non-compact"], {"manifold": {"compact": False}}),
    (["--level", "3"], {"level": 3}),
]
_SPAN_FLAGS = [
    (["--z0", "[0.5, 0]"], {"z0": "[0.5, 0]"}),
    (["--T", "2"], {"T": 2.0}),
    (["--dt", "0.01"], {"dt": 0.01}),
]
_FLAG_CASES = {
    "kernel": _FILE_FLAGS + _CHART_FLAGS + [
        (["--z", "1"], {"z": "1"}),
        (["--w", "[0, 1]"], {"w": "[0, 1]"}),
    ],
    "triangle": _FILE_FLAGS + _CHART_FLAGS + [
        (["--z", "1"], {"z": "1"}),
        (["--w", "[0, 1]"], {"w": "[0, 1]"}),
    ],
    "evolve": _FILE_FLAGS + _CHART_FLAGS + _SPAN_FLAGS + [
        (["--stride", "5"], {"stride": 5}),
        (["--cyclicity-tol", "0.001"], {"cyclicity_tol": 0.001}),
        (["--oracle"], {"oracle": True}),
    ],
    "stokes": _FILE_FLAGS + _CHART_FLAGS + [
        (["--kind", "fourier"], {"loop": {"kind": "fourier"}}),
        (["--radius", "0.5"], {"loop": {"radius": 0.5}}),
        (["--samples", "64"], {"loop": {"samples": 64}}),
        (["--seed", "7"], {"loop": {"seed": 7}}),
        (["--modes", "2"], {"loop": {"modes": 2}}),
        (["--scale", "0.25"], {"loop": {"scale": 0.25}}),
        (["--cyclicity-tol", "0.001"], {"cyclicity_tol": 0.001}),
    ],
    "poincare": [
        (["G2/A1xU1"], {"quotients": ["G2/A1xU1"]}),
        (["--min-orbit", "E8", "--min-orbit", "G2"],
         {"min_orbits": ["E8", "G2"]}),
    ],
    "oracle-compare": _FILE_FLAGS + _SPAN_FLAGS + [
        (["--j", "1.5"], {"j": 1.5}),
        (["--stride", "5"], {"stride": 5}),
    ],
}


@pytest.mark.parametrize("command, flag, entries", [
    pytest.param(command, flag, entries, id=f"{command} {flag[0]}")
    for command, cases in _FLAG_CASES.items() for flag, entries in cases
])
def test_each_flag_sets_its_config_entry(tmp_path, command, flag, entries):
    """Each flag of each subcommand sets exactly its config entry: at the
    top level, or inside ``manifold`` or ``loop``.  ``--config`` reads
    its file, and ``--sweep`` (read by the sweep itself) sets nothing."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"T": 1.0}))
    flag = [str(path) if a == "CONFIG" else a for a in flag]
    assert _gather([command, *flag]) == {**_gather([command]), **entries}


def test_every_flag_has_a_config_case():
    parser = kphase.cli._parser()
    commands = next(a for a in parser._actions if a.dest == "command")
    for command, sub in commands.choices.items():
        flags = {a.option_strings[0] if a.option_strings else a.dest
                 for a in sub._actions if a.dest != "help"}
        cased = {flag[0] if flag[0].startswith("--") else "quotients"
                 for flag, _ in _FLAG_CASES[command]}
        assert flags == cased, command


@pytest.mark.parametrize("flag, section, entries", [
    (["--p", "3"], "manifold", {"family": "AIII", "p": 3, "q": 1}),
    (["--non-compact"], "manifold",
     {"family": "AIII", "p": 2, "q": 1, "compact": False}),
    (["--samples", "64"], "loop", {"kind": "fourier", "seed": 3,
                                   "samples": 64}),
    (["--kind", "latitude"], "loop", {"kind": "latitude", "seed": 3}),
])
def test_section_flag_keeps_the_other_entries(tmp_path, flag, section,
                                              entries):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "manifold": {"family": "AIII", "p": 2, "q": 1},
        "loop": {"kind": "fourier", "seed": 3}, "level": 2}))
    cfg = _gather(["stokes", "--config", str(path), *flag])
    assert cfg[section] == entries
    assert cfg["level"] == 2


@pytest.mark.parametrize("config, flag", [
    ('{"loop": []}', ["--kind", "latitude"]),
    ('{"loop": "fourier"}', ["--samples", "64"]),
    ('{"manifold": []}', ["--family", "AIII"]),
])
def test_flag_over_a_non_object_section_exits_two(tmp_path, capsys, config,
                                                  flag):
    """A flag laid over a section that is not a JSON object leaves it for
    its reader, which rejects it: the flag does not replace it."""
    path = tmp_path / "config.json"
    path.write_text(config)
    rc, out, err = run_cli(capsys, ["stokes", "--config", str(path), *flag])
    assert rc == 2
    payload = json.loads(out, parse_constant=_strict)["error"]
    assert payload["type"] == "ValueError"
    assert err.strip() != ""


def test_cycle_and_report_give_one_residual(tmp_path, capsys):
    """The cycle block and the report both give the clipped cycle's
    closure distance; the return sample's own distance was 3.8e-4 here
    while the report read 0.0."""
    sched = HamiltonianSchedule.constant([SZ], [1.0])
    cfg = {"schedule": sched.to_json(), "z0": 0.7, "T": 7.0, "dt": 1e-3}
    path = tmp_path / "precession.json"
    path.write_text(json.dumps(cfg))
    rc, out, _ = run_cli(capsys, ["evolve", "--config", str(path)])
    assert rc == 0
    summary = json.loads(out.splitlines()[-1])
    assert summary["cycle"]["residual"] == summary["report"]["residual"]
    assert summary["cycle"]["residual"] < 1e-9


def test_exit_code_two_missing_argument(capsys):
    rc, out, _ = run_cli(capsys, ["kernel", "--z", "1"])
    assert rc == 2
    assert "error" in json.loads(out)


def test_exit_code_four_cross_check(tmp_path, capsys):
    sched = HamiltonianSchedule.from_samples(
        [SX, SZ], [[0.0, 2.0, 1.0], [5.0, -1.0, 2.5], [10.0, 2.0, -1.0]]
    )
    cfg = {"schedule": sched.to_json(), "z0": [0.3, 0.0], "T": 10.0,
           "dt": 0.5}
    path = tmp_path / "coarse.json"
    path.write_text(json.dumps(cfg))
    rc, out, _ = run_cli(capsys, ["evolve", "--config", str(path)])
    assert rc == 4
    assert json.loads(out)["error"]["type"] == "CrossCheckFailure"


def test_stokes_latitude(capsys):
    rc, out, _ = run_cli(
        capsys,
        ["stokes", "--kind", "latitude", "--radius", "1.0",
         "--samples", "600", "--level", "1"],
    )
    assert rc == 0
    rep = json.loads(out)
    assert rep["samples"] >= 600
    assert abs(rep["line_integral"] - math.pi) < 1e-3
    assert rep["difference"] < 1e-3


def _latitude(capsys, radius):
    """A 600-sample CP1 latitude ``stokes`` run with RuntimeWarnings as
    errors: exit code, strict JSON payload and stderr."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc, out, err = run_cli(capsys, ["stokes", "--kind", "latitude",
                                        f"--radius={radius}", "--samples",
                                        "600"])
    return rc, json.loads(out, parse_constant=_strict), err


@pytest.mark.parametrize("radius", ["1e100", "1e150"])
def test_far_latitude_loop_closes(capsys, radius):
    """A latitude loop closes exactly, however far out it runs.  Past
    |z| ~ 1e77 the closure distance's product K(z, z) K(w, w) overflowed,
    and the loop ended as ``NotClosed`` with its endpoints 1.571 apart
    (a traceback with warnings as errors); it now reports what a loop at
    1e60 reports."""
    rc, rep, err = _latitude(capsys, radius)
    assert rc == 0 and err == ""
    _, near, _ = _latitude(capsys, "1e60")
    assert rep["samples"] == near["samples"]
    for key in ("line_integral", "polygon_fan", "difference"):
        assert rep[key] == pytest.approx(near[key], abs=1e-12)


@pytest.mark.parametrize("radius", ["1e155", "1e300"])
@pytest.mark.parametrize("action", ["error", "default"])
def test_far_latitude_loop_overflows_exits_two(capsys, radius, action):
    """Past |z| ~ 1e154 the CP1 kernel itself overflows: the loop exits 2
    with ``OverflowError`` naming the kernel, as ``kphase kernel`` does,
    whether RuntimeWarnings are errors or not.  It reported
    ``KernelZero`` for a loop far from any zero of the kernel, and with
    warnings as errors an overflow traceback (exit 1)."""
    with warnings.catch_warnings():
        warnings.simplefilter(action, RuntimeWarning)
        rc, out, err = run_cli(capsys, ["stokes", "--kind", "latitude",
                                        f"--radius={radius}", "--samples",
                                        "600"])
    assert rc == 2
    payload = json.loads(out, parse_constant=_strict)["error"]
    assert payload["type"] == "OverflowError"
    assert "kernel" in payload["message"]
    assert "overflows double precision" in payload["message"]
    assert err.startswith("kphase: OverflowError")


@pytest.mark.parametrize("action", ["error", "default"])
def test_far_sample_in_points_loop_exits_two(tmp_path, capsys, action):
    """A points loop with one sample past the kernel's range exits 2 with
    ``OverflowError`` naming the kernel, whether RuntimeWarnings are
    errors or not.  Its gradient there was NaN, the line integral NaN,
    and the run reported the fan's ``BranchCut`` (exit 4), or with
    warnings as errors an overflow traceback (exit 1)."""
    path = tmp_path / "loop.json"
    path.write_text(json.dumps({"loop": {"kind": "points", "points": [
        [1, 0], [1e200, 0], [0, 1], [1, 0]]}}))
    with warnings.catch_warnings():
        warnings.simplefilter(action, RuntimeWarning)
        rc, out, err = run_cli(capsys, ["stokes", "--config", str(path)])
    assert rc == 2
    assert json.loads(out, parse_constant=_strict)["error"] == {
        "exit_code": 2, "type": "OverflowError",
        "message": "kernel K(z, conj(w)) overflows double precision"}
    assert err.startswith("kphase: OverflowError")


@pytest.mark.parametrize("radius", ["inf", "-inf", "nan", "0"])
def test_non_finite_latitude_radius_exits_two(tmp_path, capsys, radius):
    """A latitude radius that is not a positive finite number exits 2
    with ``ValueError`` before any loop point is formed, from the flag and
    from a config; ``inf`` formed NaN points and, with warnings as
    errors, a traceback."""
    rc, rep, err = _latitude(capsys, radius)
    assert rc == 2 and rep["error"]["type"] == "ValueError"
    assert "radius" in rep["error"]["message"] and err.strip() != ""
    path = tmp_path / "loop.json"
    path.write_text('{"loop": {"kind": "latitude", "radius": '
                    + {"inf": "1e400", "-inf": "-1e400", "nan": "NaN",
                       "0": "0"}[radius] + "}}")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc, out, _ = run_cli(capsys, ["stokes", "--config", str(path)])
    assert rc == 2
    assert json.loads(out, parse_constant=_strict)["error"]["type"] == \
        "ValueError"


def test_oracle_compare(tmp_path, capsys):
    sched = HamiltonianSchedule.constant([SX], [1.0])
    cfg = {"schedule": sched.to_json(), "T": 1.0, "dt": 1e-3,
           "stride": 100, "j": 0.5}
    path = tmp_path / "oracle.json"
    path.write_text(json.dumps(cfg))
    rc, out, _ = run_cli(capsys, ["oracle-compare", "--config", str(path)])
    assert rc == 0
    rep = json.loads(out)
    assert rep["j"] == 0.5
    assert rep["cross_check_error"] < 1e-8
    assert rep["max_projection_distance"] < 1e-6


def test_oracle_compare_projects_in_one_batch(tmp_path, capsys, monkeypatch):
    """One oracle-compare projects every strided sample in one batch: one
    Bloch projection of the whole stack, and no call of the validating
    projective distance."""
    counts = {"bloch_projection": 0, "projective_distance": 0}
    rows = []

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            rows.append(len(args[0]))
            return fn(*args, **kwargs)
        return counted

    for name in counts:
        fn = getattr(kphase.su2 if name == "bloch_projection"
                     else kphase.manifolds, name)
        for mod in (kphase.su2, kphase.manifolds, kphase.dynamics, kphase.cli):
            if getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, counting(name, fn))
    sched = HamiltonianSchedule.constant([SX, SZ], [0.6, 0.8])
    cfg = {"schedule": sched.to_json(), "z0": [0.3, 0.1], "T": 2.0,
           "dt": 1e-3, "stride": 10, "j": 1.5}
    path = tmp_path / "oracle.json"
    path.write_text(json.dumps(cfg))
    rc, out, _ = run_cli(capsys, ["oracle-compare", "--config", str(path)])
    assert rc == 0
    assert json.loads(out)["samples"] == 201
    assert counts == {"bloch_projection": 1, "projective_distance": 0}
    assert rows == [201]


@pytest.mark.parametrize("command, extra", [
    ("oracle-compare", {"j": 1e6}),
    ("oracle-compare", {"j": 32.5}),
    ("evolve", {"oracle": True, "level": 10**6, "z0": [1.0, 0.0],
                "T": math.pi, "dt": 2e-3, "stride": 500}),
])
def test_oracle_spin_size_exits_two(tmp_path, capsys, command, extra):
    sched = HamiltonianSchedule.constant([SZ], [1.0])
    cfg = {"schedule": sched.to_json(), "T": 1.0, "dt": 1e-2, **extra}
    path = tmp_path / "spin.json"
    path.write_text(json.dumps(cfg))
    rc, out, err = run_cli(capsys, [command, "--config", str(path)])
    assert rc == 2
    payload = json.loads(out.splitlines()[-1], parse_constant=_strict)["error"]
    assert payload["exit_code"] == 2
    assert payload["type"] == "InvalidSpin"
    assert err.strip() != ""


def test_generators_of_mixed_shapes_exit_two(tmp_path, capsys):
    """A schedule whose generators differ in size is refused where it is
    built, as a ``DimensionMismatch``."""
    cfg = {"schedule": {"generators": [matrix_to_json(SZ),
                                       matrix_to_json(np.eye(3))],
                        "constant": [1.0, 1.0]},
           "T": 1.0, "dt": 1e-2, "j": 1.5}
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(cfg))
    rc, out, err = run_cli(capsys, ["oracle-compare", "--config", str(path)])
    assert rc == 2
    payload = json.loads(out, parse_constant=_strict)["error"]
    assert payload["exit_code"] == 2
    assert payload["type"] == "DimensionMismatch"
    assert err.strip() != ""


@pytest.mark.parametrize("command", ["evolve", "oracle-compare"])
@pytest.mark.parametrize("kind, values", [
    ("constant", []), ("samples", [[0.0], [1.0]])], ids=["constant", "samples"])
def test_empty_generator_list_exits_two(tmp_path, capsys, command, kind,
                                        values):
    """An empty generator list is refused where the schedule is built, as
    a ``DimensionMismatch``, the same as in the Python constructors."""
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"schedule": {"generators": [], kind: values},
                                "z0": 0.5, "T": 1.0, "dt": 1e-2}))
    rc, out, err = run_cli(capsys, [command, "--config", str(path)])
    assert rc == 2
    payload = json.loads(out, parse_constant=_strict)["error"]
    assert payload["exit_code"] == 2
    assert payload["type"] == "DimensionMismatch"
    assert "at least one generator" in payload["message"]
    assert err.strip() != ""


@pytest.mark.parametrize("manifold, gens, z0, level, error", [
    ({"family": "AIII", "p": 1, "q": 1, "compact": False}, [SZ], 0.0, 1,
     "UnsupportedFamily"),
    ({"family": "AIII", "p": 2, "q": 1}, [np.diag([1.0, 0.0, -1.0])],
     [[[0.0, 0.0]], [[0.0, 0.0]]], 1, "UnsupportedFamily"),
    ({"family": "AIII", "p": 1, "q": 1}, [SZ], 0.0, 200, "InvalidSpin"),
], ids=["CP1-noncompact", "AIII(2,1)", "level-200"])
def test_evolve_oracle_checks_precede_integration(tmp_path, capsys,
                                                  monkeypatch, manifold,
                                                  gens, z0, level, error):
    def never(*args, **kwargs):
        raise AssertionError("the chart was integrated")

    monkeypatch.setattr(kphase.cli, "trajectory", never)
    sched = HamiltonianSchedule.constant(gens, [1.0])
    cfg = {"manifold": manifold, "schedule": sched.to_json(), "z0": z0,
           "T": 1.0, "dt": 1e-2, "level": level, "oracle": True}
    path = tmp_path / "oracle.json"
    path.write_text(json.dumps(cfg))
    rc, out, err = run_cli(capsys, ["evolve", "--config", str(path)])
    assert rc == 2
    payload = json.loads(out, parse_constant=_strict)["error"]
    assert payload["exit_code"] == 2
    assert payload["type"] == error
    assert err.strip() != ""


_MALFORMED_SCHEDULE = {"generators": [[[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]],
                       "constant": [1.0]}


@pytest.mark.parametrize("command, entries", [
    ("evolve", '"level": 1e400'),
    ("evolve", '"stride": 1e400'),
    ("evolve", '"level": 0'),
    ("evolve", '"level": -2'),
    ("evolve", '"level": 1.5'),
    ("evolve", '"cyclicity_tol": NaN'),
    ("evolve", '"cyclicity_tol": -1e-4'),
    ("triangle", '"level": 1e400, "z": 0.5, "w": 0.25'),
    pytest.param("evolve", '"level": 1' + "0" * 400, id="evolve-level-10**400"),
    pytest.param("evolve", '"level": 1' + "0" * 30, id="evolve-level-10**30"),
    ("stokes", '"level": 1.5'),
    ("stokes", '"cyclicity_tol": NaN'),
    ("stokes", '"loop": {"samples": 1e400}'),
    ("stokes", '"loop": {"samples": 600.7}'),
    ("stokes", '"loop": {"kind": "fourier", "modes": 1e400}'),
    ("stokes", '"loop": {"kind": "fourier", "seed": 1e400}'),
    ("oracle-compare", '"stride": 0'),
    ("oracle-compare", '"stride": 1e400'),
    ("kernel", '"manifold": {"family": "AIII", "p": 1, "compact": "false"}, '
               '"z": 0.5, "w": 0.2'),
    ("kernel", '"manifold": {"family": "AIII", "p": 1e400}, "z": 0.5, '
               '"w": 0.2'),
    ("kernel", '"manifold": {"family": "AIII", "p": 2.7}, "z": 0.5, '
               '"w": 0.2'),
    ("kernel", '"manifold": {"family": "AIII", "p": 1, "q": true}, '
               '"z": 0.5, "w": 0.2'),
    ("evolve", '"oracle": "no"'),
    ("stokes", '"loop": []'),
    ("stokes", '"loop": "fourier"'),
    ("stokes", '"loop": {"radius": "0.5"}'),
    ("stokes", '"cyclicity_tol": true'),
    ("oracle-compare", '"j": "1.5"'),
    # Points take JSON numbers only, at every level.
    ("kernel", '"z": true, "w": 0'),
    ("kernel", '"z": [[["0.5", 0]]], "w": 0'),
    ("kernel", '"z": [[[true, 0]]], "w": 0'),
])
def test_malformed_config_numbers_exit_two(tmp_path, capsys, command,
                                           entries):
    # Raw JSON text: 1e400 reads as infinity, which json.dumps cannot write.
    base = json.dumps({"schedule": _MALFORMED_SCHEDULE, "z0": 0.5,
                       "T": 1.0, "dt": 1e-2})
    path = tmp_path / "malformed.json"
    path.write_text(base[:-1] + ", " + entries + "}")
    rc, out, err = run_cli(capsys, [command, "--config", str(path)])
    assert rc == 2
    payload = json.loads(out, parse_constant=_strict)["error"]
    assert payload["exit_code"] == 2
    assert payload["type"] == "ValueError"
    assert err.strip() != ""


_GENERATOR = _MALFORMED_SCHEDULE["generators"][0]


@pytest.mark.parametrize("command", ["evolve", "oracle-compare"])
@pytest.mark.parametrize("schedule, entry", [
    (2.7, "'schedule' must be a JSON object"),
    ([{"generators": [_GENERATOR], "constant": [1.0]}],
     "'schedule' must be a JSON object"),
    ({"generators": 2, "constant": [1.0]}, "'generators' of 'schedule'"),
    ({"constant": [1.0]}, "'generators' of 'schedule'"),
    ({"generators": [_GENERATOR]}, "exactly one of 'constant' and 'samples'"),
    ({"generators": [_GENERATOR], "constant": [1.0],
      "samples": [[0.0, 1.0]]}, "exactly one of 'constant' and 'samples'"),
], ids=["number", "list", "generators-number", "generators-missing",
        "neither-kind", "both-kinds"])
def test_malformed_schedule_exits_two_naming_the_entry(
        tmp_path, capsys, command, schedule, entry):
    path = tmp_path / "schedule.json"
    path.write_text(json.dumps({"schedule": schedule, "z0": 0.5, "T": 1.0,
                                "dt": 1e-2}))
    rc, out, err = run_cli(capsys, [command, "--config", str(path)])
    assert rc == 2
    payload = json.loads(out, parse_constant=_strict)["error"]
    assert payload["type"] == "ValueError"
    assert entry in payload["message"]
    assert err.strip() != ""


@pytest.mark.parametrize("z, rc", [
    ("true", 2), ("[true, 0]", 2), ('[[0.5, "0"]]', 2),
    ("0.5", 0), ("[0.5, 0.1]", 0), ("[[0.5, 0.1]]", 0),
])
def test_point_flags_read_as_json_numbers(capsys, z, rc):
    code, out, _ = run_cli(capsys, ["kernel", "--z", z, "--w", "0"])
    assert code == rc
    row = json.loads(out, parse_constant=_strict)
    if rc:
        assert row["error"]["type"] == "ValueError"
    else:
        assert row == {"im": 0.0, "re": 1.0}


_HUGE = "1" + "0" * 400


@pytest.mark.parametrize("command, entries, error", [
    # Loop sizes past their caps are refused before any allocation.
    ("stokes", '"loop": {"samples": 4503599627370496}', "ValueError"),
    ("stokes", '"loop": {"samples": 4194305}', "ValueError"),
    ("stokes", '"loop": {"kind": "fourier", "modes": 4097}', "ValueError"),
    # So are trajectory rows past theirs.
    ("evolve", '"T": 1e12, "dt": 1e-3', "ValueError"),
    # Integers that no float holds.
    ("stokes", '"loop": {"radius": ' + _HUGE + "}", "OverflowError"),
    ("evolve", '"T": ' + _HUGE, "OverflowError"),
    ("kernel", '"z": ' + _HUGE + ', "w": 0', "OverflowError"),
], ids=["stokes-samples-2**52", "stokes-samples-past-cap",
        "stokes-modes-past-cap", "evolve-T-1e12", "stokes-radius-10**400",
        "evolve-T-10**400", "kernel-z-10**400"])
def test_oversized_request_exits_two(tmp_path, capsys, command, entries,
                                     error):
    base = json.dumps({"schedule": _MALFORMED_SCHEDULE, "z0": 0.5,
                       "T": 1.0})
    path = tmp_path / "huge.json"
    path.write_text(base[:-1] + ", " + entries + "}")
    rc, out, err = run_cli(capsys, [command, "--config", str(path)])
    assert rc == 2
    payload = json.loads(out, parse_constant=_strict)["error"]
    assert payload["exit_code"] == 2
    assert payload["type"] == error
    assert err.strip() != ""


def test_over_cap_evolve_exits_two_before_allocating(tmp_path, capsys):
    """4,000,001 rows of a 2 x 2 unitary and a CP1 point, 320 MB, are
    refused; the run's traced peak stays below 1 % of that."""
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"schedule": _MALFORMED_SCHEDULE, "z0": 0.5,
                                "T": 4000.0, "dt": 1e-3}))
    requested = 4_000_001 * 5 * 16
    assert requested // 16 > kphase.dynamics.MAX_ENTRIES
    tracemalloc.start()
    try:
        rc, out, _ = run_cli(capsys, ["evolve", "--config", str(path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 2
    payload = json.loads(out, parse_constant=_strict)["error"]
    assert payload["type"] == "ValueError"
    assert "4000001 x 5" in payload["message"]
    assert peak < requested / 100


def test_sweep_entry_must_be_an_object(tmp_path, capsys):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps([{"z": 1.0, "w": 0.0}, 3]))
    rc, out, err = run_cli(capsys, ["kernel", "--sweep", str(path)])
    assert rc == 2
    payload = json.loads(out, parse_constant=_strict)["error"]
    assert payload == {"exit_code": 2, "type": "ValueError",
                       "message": "every sweep entry must be a JSON object"}
    assert err.strip() != ""


_BAD = [1e400, -1e400, 10**400, NaN, 0, -1, 2.7, "2", True, None, [], {}]
_BAD_COUNT = _BAD + [2**60]


def _entry(draw, value, bad=_BAD):
    """``value``, or one time in ten a malformed entry from ``bad``."""
    # Hypothesis favours the ends of a range, so a middle value keeps the
    # malformed share near one in ten.
    if draw(st.integers(0, 9)) == 5:
        return draw(st.sampled_from(bad))
    return value


def _chart_point(rng, family, shape):
    a = rng.uniform(-0.25, 0.25, shape) + 1j * rng.uniform(-0.25, 0.25, shape)
    if family == "CI":
        a = a + a.T
    elif family == "DIII":
        a = a - a.T
    return matrix_to_json(a / 2.0)


def _chart_generator(rng, family, p, q):
    """A Hermitian defining-representation generator, an integer diagonal
    plus a small random part, that keeps the CI or DIII chart symmetry:
    blocks [[P, S], [S^dagger, -P^T]] with S symmetric (CI) or skew
    (DIII)."""
    n = p + q if family == "AIII" else 2 * p
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = np.diag(rng.integers(-2, 3, n)) + 0.1 * (a + a.conj().T)
    if family != "AIII":
        s = h[:p, p:]
        s = s + s.T if family == "CI" else s - s.T
        h = np.block([[h[:p, :p], s], [s.conj().T, -h[:p, :p].T]])
    return matrix_to_json(h)


@st.composite
def _configs(draw):
    """A config for kernel, triangle or stokes whose every entry is valid
    and bounded, or one time in ten malformed."""

    def entry(value, bad=_BAD):
        return _entry(draw, value, bad)

    family = draw(st.sampled_from(["AIII", "CI", "DIII", "BDI"]))
    p = draw(st.integers(2 if family == "DIII" else 1, 3))
    q = draw(st.integers(1, p)) if family == "AIII" else 1
    shape = {"AIII": (p, q), "BDI": (1, p)}.get(family, (p, p))

    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    manifold = {"family": entry(family), "p": entry(p, _BAD_COUNT),
                "q": entry(q, _BAD_COUNT),
                "compact": entry(draw(st.booleans()))}
    loop = draw(st.fixed_dictionaries({}, optional={
        "kind": st.sampled_from(["latitude", "fourier"]),
        "samples": st.integers(3, 2000),
        "modes": st.integers(1, 4),
        "seed": st.integers(0, 2**32),
        "scale": st.floats(0.0, 1.0),
        "radius": st.floats(0.01, 2.0),
    }))
    loop = {key: entry(value, _BAD_COUNT if key in ("samples", "modes")
                       else _BAD) for key, value in loop.items()}
    return {"manifold": entry(manifold),
            "level": entry(draw(st.integers(1, 5)), _BAD_COUNT),
            "z": entry(_chart_point(rng, family, shape)),
            "w": entry(_chart_point(rng, family, shape)),
            "cyclicity_tol": entry(draw(st.floats(0.0, 1.0))),
            "loop": entry(loop)}


@st.composite
def _integrating_configs(draw, command):
    """A config for evolve or oracle-compare whose every entry is valid
    and bounded, or one time in ten malformed.  A valid span has T <= 7
    and dt >= 1e-2, at most 700 steps; its schedule is constant or sampled
    over [0, 7].  The config is malformed as a whole (the schedule, the
    manifold) where the kernel fuzz already malforms its parts."""

    def entry(value, bad=_BAD):
        return _entry(draw, value, bad)

    if command == "oracle-compare":
        family, p, q = "AIII", 1, 1
    else:
        family = draw(st.sampled_from(["AIII", "CI", "DIII"]))
        p = draw(st.integers(2 if family == "DIII" else 1, 3))
        q = draw(st.integers(1, p)) if family == "AIII" else 1
    shape = (p, q) if family == "AIII" else (p, p)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    gens = [_chart_generator(rng, family, p, q)
            for _ in range(draw(st.integers(1, 2)))]
    if draw(st.booleans()):
        schedule = {"generators": gens,
                    "constant": rng.uniform(-1, 1, len(gens)).tolist()}
    else:
        knots = draw(st.integers(2, 8))
        schedule = {"generators": gens, "samples": np.column_stack(
            [np.linspace(0.0, 7.0, knots),
             rng.uniform(-1, 1, (knots, len(gens)))]).tolist()}
    config = {"schedule": entry(schedule),
              "z0": entry(_chart_point(rng, family, shape)),
              "T": entry(draw(st.floats(0.1, 7.0))),
              "dt": entry(draw(st.floats(1e-2, 0.05))),
              "stride": entry(draw(st.integers(1, 50)), _BAD_COUNT)}
    if command == "oracle-compare":
        config["j"] = entry(draw(st.sampled_from([0.5, 1.0, 1.5, 2.0])))
        return config
    manifold = {"family": family, "p": p, "q": q}
    config.update({"manifold": entry(manifold),
                   "level": entry(draw(st.integers(1, 5)), _BAD_COUNT),
                   "oracle": entry(draw(st.booleans())),
                   "cyclicity_tol": entry(draw(st.floats(0.0, 1.0)))})
    return config


def _run_config_file(path, argv, data):
    """Write ``data`` as JSON to ``path``, run ``main(argv)`` and return
    its exit code, stdout rows as strict JSON, and stderr."""
    # json.dumps writes the non-finite values as NaN and Infinity, which
    # the config reader decodes as it does 1e400.
    path.write_text(json.dumps(data))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    rows = [json.loads(line, parse_constant=_strict)
            for line in out.getvalue().splitlines()]
    return rc, rows, err.getvalue()


def _check_config_run(tmp_path_factory, command, config):
    """One run ends in exit 0 with result rows, or in exit 2, 3 or 4 with
    one error object."""
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    rc, rows, err = _run_config_file(path, [command, "--config", str(path)],
                                     config)
    assert rc in (0, 2, 3, 4)
    if rc:
        assert len(rows) == 1 and list(rows[0]) == ["error"]
        assert rows[0]["error"]["exit_code"] == rc
        assert err != ""
    else:
        assert rows and all("error" not in row for row in rows)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(command=st.sampled_from(["kernel", "triangle", "stokes"]),
       config=_configs())
def test_fuzzed_configs_end_in_strict_json(tmp_path_factory, command,
                                           config):
    _check_config_run(tmp_path_factory, command, config)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(command=st.sampled_from(["evolve", "oracle-compare"]), data=st.data())
def test_fuzzed_integrating_configs_end_in_strict_json(tmp_path_factory,
                                                       command, data):
    _check_config_run(tmp_path_factory, command,
                      data.draw(_integrating_configs(command)))


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(command=st.sampled_from(["kernel", "triangle", "stokes", "evolve",
                                "oracle-compare"]),
       data=st.data())
def test_fuzzed_sweeps_end_in_strict_json(tmp_path_factory, command, data):
    # One to three configs of one command, each one time in ten replaced
    # by a malformed entry; a sweep entry that is no config fails it all.
    configs = (_configs() if command in ("kernel", "triangle", "stokes")
               else _integrating_configs(command))
    sweep = [_entry(data.draw, config)
             for config in data.draw(st.lists(configs, min_size=1,
                                              max_size=3))]
    path = tmp_path_factory.getbasetemp() / "sweep.json"
    rc, rows, err = _run_config_file(path, [command, "--sweep", str(path)],
                                     sweep)
    assert rc in (0, 2, 3, 4)
    errors = [row for row in rows if "error" in row]
    assert all(list(row) == ["error"] for row in errors)
    codes = [row["error"]["exit_code"] for row in errors]
    assert max(codes, default=0) == rc
    assert (err != "") == bool(codes)
    if all(isinstance(c, dict) for c in sweep):
        assert len(codes) <= len(sweep)
    else:
        assert codes == [2] and len(rows) == 1


def test_sweep_preserves_order_and_reports_errors(tmp_path, capsys):
    configs = [
        {"z": 1.0, "w": [0.0, 1.0]},
        {"z": 0.5, "w": 0.5},
        {
            "manifold": {"family": "AIII", "p": 1, "q": 1, "compact": False},
            "z": 2.0,
            "w": 0.0,
        },
        {"z": [0.0, 1.0], "w": [0.0, 1.0]},
    ]
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(configs))
    rc, out, err = run_cli(capsys, ["kernel", "--sweep", str(path)])
    assert rc == 2
    lines = [json.loads(s) for s in out.splitlines()]
    assert lines[0] == {"im": -1.0, "re": 1.0}
    assert lines[1] == {"im": 0.0, "re": 1.25}
    assert lines[2]["error"]["type"] == "OutsideDomain"
    assert lines[3] == {"im": 0.0, "re": 2.0}
    assert err.strip() != ""
