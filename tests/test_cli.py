import json
import math
import subprocess
import sys

import numpy as np
import pytest

import kphase.cli
import kphase.dynamics
import kphase.geometry
import kphase.manifolds
import kphase.phases
import kphase.su2
from kphase import HamiltonianSchedule, cp1, triangle_phase
from kphase.cli import main

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


def test_kernel_output_byte_stable(capsys):
    argv = ["kernel", "--z", "0.25", "--w", "[0.5, -0.125]"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second


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


def test_evolve_geometry_is_batched(tmp_path, capsys, monkeypatch):
    """The kernel and the potential run a fixed number of times per evolve,
    however many samples the path has."""
    counts = {"kernel": 0, "potential": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    for name in counts:
        fn = getattr(kphase.manifolds if name == "kernel" else kphase.geometry,
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
    assert counts["kernel"] <= 10
    assert counts["potential"] <= 10


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
    """One oracle-compare projects every strided sample in one batch: no
    per-sample Bloch projection or projective distance."""
    counts = {"bloch_projection": 0, "projective_distance": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
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
    assert counts == {"bloch_projection": 0, "projective_distance": 0}


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
