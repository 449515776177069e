"""Command-line front end.

Every subcommand prints single-line JSON objects with sorted keys, so
identical inputs produce byte-identical output.  Floats are emitted with
Python's shortest round-trip repr; the JSON is strict, so a value that is
not finite ends the run with exit code 2 instead.  Config files are JSON
objects; command line flags override individual config entries, and
``--sweep FILE`` fans a JSON array of configs over a process pool,
printing results in input order.

Exit codes: 0 success, 2 invalid input or domain violation, 3 no cycle
detected, 4 numerical cross-check failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from .dynamics import (
    STATIONARY_TOL,
    CycleInfo,
    HamiltonianSchedule,
    clip_trajectory,
    find_cycle,
    ray_distances,
    trajectory,
)
from .errors import (
    BranchCut,
    CrossCheckFailure,
    KPhaseError,
    NoCycleFound,
    NonRealExpectation,
    NotClosed,
    NotCyclic,
    ReducibleFactor,
    UnsupportedFamily,
)
from .loops import fourier_loop, latitude_circle
from .manifolds import (
    Family,
    ManifoldSpec,
    _distance,
    cp1,
    kernel,
    validate_points,
)
from .phases import (
    _loop_points,
    _phases,
    _stokes_compare,
    assemble_report,
    triangle_phase,
    wrap_angle,
)
from .serialize import (
    _integer,
    _is_number,
    _pairs_json,
    matrix_from_json,
    spec_from_json,
    vector_from_json,
)
from .su2 import (
    bloch_projection,
    coherent_vector,
    map_schedule,
    quantum_phases,
    schrodinger_evolve,
)

_EPILOG = (
    "All reported angles use the principal branch (-pi, pi], with the lower "
    "endpoint mapped to +pi.  Exit codes: 0 success, 2 invalid input or "
    "domain violation, 3 no cycle detected, 4 numerical cross-check failure. "
    "The environment variable KPHASE_SEED is reserved for the test harness; "
    "the CLI never reads it."
)


# One encoder for every output line: ``json.dumps`` with these options
# builds a new one per call.
_dumps = json.JSONEncoder(sort_keys=True, allow_nan=False).encode


def _point_value(value):
    """Accept a number, a [re, im] pair, a pair list, or a nested matrix;
    a string (a command-line flag) is read as JSON first."""
    if isinstance(value, str):
        value = json.loads(value)
    if _is_number(value):
        return complex(value)
    if isinstance(value, list) and value:
        if len(value) == 2 and all(_is_number(x) for x in value):
            return complex(value[0], value[1])
        first = value[0]
        if isinstance(first, list) and first and isinstance(first[0], list):
            return matrix_from_json(value)
        if isinstance(first, list):
            return vector_from_json(value)
    raise ValueError(f"cannot interpret point value {value!r}")


def _spec_from(config: dict) -> ManifoldSpec:
    if "manifold" not in config:
        return cp1()
    return spec_from_json(config["manifold"])


def _require(config: dict, key: str):
    if key not in config:
        raise ValueError(f"missing required config entry {key!r}")
    return config[key]


def _count(config: dict, key: str, default: int) -> int:
    """An integer config entry from 1 to 2**53, past which ``float(value)``
    stops being exact."""
    value = _integer(config, key, default, 1)
    if value > 2**53:
        raise ValueError(f"{key!r} must be at most 2**53, got {value!r}")
    return value


def _real(config: dict, key: str, default: float | None = None) -> float:
    """A JSON number config entry as a float; one without a default is
    required."""
    value = (_require(config, key) if default is None
             else config.get(key, default))
    if not _is_number(value):
        raise ValueError(f"{key!r} must be a number, got {value!r}")
    return float(value)


def _tolerance(config: dict, key: str, default: float) -> float:
    """A finite, non-negative float config entry."""
    value = _real(config, key, default)
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{key!r} must be finite and non-negative, "
                         f"got {value!r}")
    return value


def run_kernel(config: dict) -> list[str]:
    spec = _spec_from(config)
    z = _point_value(_require(config, "z"))
    w = _point_value(_require(config, "w"))
    value = kernel(spec, z, w)
    return [_dumps({"im": float(value.imag), "re": float(value.real)})]


def run_triangle(config: dict) -> list[str]:
    spec = _spec_from(config)
    level = _count(config, "level", 1)
    z = _point_value(_require(config, "z"))
    w = _point_value(_require(config, "w"))
    g = triangle_phase(spec, level, z, w)
    report = assemble_report(g, 0.0, g, 0.0, method="triangle-fan")
    return [_dumps(report.to_json())]


def _evolve_cycle(spec, z0, schedule, T, dt):
    """Full-span run, cycle detection, and the run clipped to one cycle."""
    traj = trajectory(spec, z0, schedule, T, dt)
    d = ray_distances(traj)
    if float(np.max(d)) < STATIONARY_TOL:
        return traj, CycleInfo(len(traj.times) - 1, float(traj.times[-1]))
    info = find_cycle(traj.times, d)
    if abs(info.time - T) > 1e-12:
        traj = clip_trajectory(traj, schedule, info.time)
    return traj, info


def _strided(n: int, stride: int) -> list[int]:
    """Every stride-th of n sample indices, plus the last one."""
    ks = list(range(0, n, stride))
    if ks[-1] != n - 1:
        ks.append(n - 1)
    return ks


def run_evolve(config: dict) -> list[str]:
    spec = _spec_from(config)
    level = _count(config, "level", 1)
    schedule = HamiltonianSchedule.from_json(_require(config, "schedule"))
    z0 = validate_points(spec, _point_value(config.get("z0", 0.0)))
    T = _real(config, "T")
    dt = _real(config, "dt", 1e-3)
    stride = _count(config, "stride", 1)
    cyclicity_tol = _tolerance(config, "cyclicity_tol", 1e-4)
    oracle = config.get("oracle", False)
    if type(oracle) is not bool:
        raise ValueError(f"'oracle' must be true or false, got {oracle!r}")
    if schedule.strength() == 0.0:
        raise NoCycleFound("a zero Hamiltonian generates no cycle")
    oracle = _oracle_start(spec, level, schedule, z0) if oracle else None
    cyc, info = _evolve_cycle(spec, z0, schedule, T, dt)
    beta, gamma, residual = _phases(spec, level, cyc, schedule,
                                    cyclicity_tol)
    report = assemble_report(
        beta + gamma, beta, gamma, residual, method="chart-line-integral"
    )

    ks = _strided(len(cyc.times), stride)
    lines = [_dumps({"Z": z, "t": t}) for z, t in
             zip(_pairs_json(cyc.points[ks]), cyc.times[ks].tolist())]
    summary = {
        "cross_check_error": float(cyc.cross_check_error),
        "cycle": {
            "index": info.index,
            "residual": residual,
            "time": info.time,
        },
        "report": report.to_json(),
    }
    if oracle is not None:
        summary.update(_oracle_block(*oracle, cyc, dt, beta, gamma))
    lines.append(_dumps(summary))
    return lines


def _oracle_start(spec, level, schedule, z0):
    """The oracle's spin-j schedule and start state, built before the chart
    pipeline runs so that an unsupported chart or spin fails first."""
    if spec != cp1():
        raise UnsupportedFamily(
            "the quantum oracle runs on the compact rank-one chart only"
        )
    j = level / 2.0
    return (map_schedule(schedule, j),
            coherent_vector(j, complex(z0[0, 0])))


def _oracle_block(sched_j, psi0, cyc, dt, beta, gamma) -> dict:
    straj = schrodinger_evolve(psi0, sched_j, float(cyc.times[-1]), dt)
    alpha, beta_q, gamma_q = quantum_phases(straj, sched_j)
    overlap = abs(complex(np.vdot(straj.states[0], straj.states[-1])))
    residual_q = math.acos(min(1.0, overlap))
    oracle = assemble_report(
        alpha, beta_q, gamma_q, residual_q, method="quantum-oracle"
    )
    return {
        "oracle": oracle.to_json(),
        "oracle_defect": wrap_angle(alpha - beta - gamma),
    }


def _build_loop(spec, loop_cfg: dict) -> np.ndarray:
    """The validated stack-last ``(rows, cols, n)`` stack of a generated
    loop, or of a ``points`` loop validated as one stack."""
    if not isinstance(loop_cfg, dict):
        raise ValueError(f"'loop' must be a JSON object, got {loop_cfg!r}")
    kind = loop_cfg.get("kind", "latitude")
    if kind == "latitude":
        return latitude_circle(
            spec,
            radius=_real(loop_cfg, "radius", 1.0),
            samples=_count(loop_cfg, "samples", 256),
        ).transpose(1, 2, 0)
    if kind == "fourier":
        rng = np.random.default_rng(_integer(loop_cfg, "seed", 0, 0))
        return fourier_loop(
            spec,
            rng,
            samples=_count(loop_cfg, "samples", 256),
            modes=_count(loop_cfg, "modes", 3),
            scale=_real(loop_cfg, "scale", 0.5),
        ).transpose(1, 2, 0)
    if kind == "points":
        return _loop_points(spec, [_point_value(v)
                                   for v in loop_cfg.get("points", [])])
    raise ValueError(f"unknown loop kind {kind!r}")


def run_stokes(config: dict) -> list[str]:
    spec = _spec_from(config)
    level = _count(config, "level", 1)
    loop = _build_loop(spec, config.get("loop", {}))
    cyclicity_tol = _tolerance(config, "cyclicity_tol", 1e-6)
    rep = _stokes_compare(spec, level, loop, cyclicity_tol)
    return [
        _dumps(
            {
                "difference": rep.difference,
                "line_integral": rep.line_integral,
                "polygon_fan": rep.polygon_fan,
                "samples": rep.samples,
            }
        )
    ]


def run_poincare(config: dict) -> list[str]:
    from .topology import betti_validate, min_orbit, poincare_quotient

    quotients = config.get("quotients", [])
    orbits = config.get("min_orbits", [])
    if not quotients and not orbits:
        raise ValueError("give at least one quotient or --min-orbit group")
    lines = []
    for text in quotients:
        poly = poincare_quotient(text)
        report = betti_validate(poly)
        lines.append(
            _dumps(
                {
                    "coefficients": list(poly.coefficients),
                    "euler_characteristic": poly.euler_characteristic(),
                    "polynomial": str(poly),
                    "quotient": text,
                    "top_degree": poly.degree,
                    "valid": report.ok,
                }
            )
        )
    for text in orbits:
        info = min_orbit(text)
        lines.append(
            _dumps(
                {
                    "dimension": info.dimension,
                    "group": info.group,
                    "isotropy": info.isotropy,
                }
            )
        )
    return lines


def run_oracle_compare(config: dict) -> list[str]:
    j = _real(config, "j", 0.5)
    spec = cp1()
    schedule = HamiltonianSchedule.from_json(_require(config, "schedule"))
    z0 = validate_points(spec, _point_value(config.get("z0", 0.0)))
    T = _real(config, "T")
    dt = _real(config, "dt", 1e-3)
    stride = _count(config, "stride", 10)
    sched_j, psi0 = _oracle_start(spec, 2.0 * j, schedule, z0)
    traj = trajectory(spec, z0, schedule, T, dt)
    straj = schrodinger_evolve(psi0, sched_j, T, dt)
    ks = _strided(len(traj.times), stride)
    labels = bloch_projection(straj.states[ks], j)
    dists = _distance(spec, labels[None, None],
                      traj.points.transpose(1, 2, 0)[..., ks])
    return [
        _dumps(
            {
                "cross_check_error": float(traj.cross_check_error),
                "j": j,
                "max_projection_distance": float(np.max(dists)),
                "samples": len(ks),
            }
        )
    ]


# Each subcommand's runner, flags and help line.  A flag is (section, name,
# argparse keywords).  When given, it sets the config entry named by its
# argparse dest: at the top level for section "", inside the config object
# of that name otherwise; a section of None sets no entry.
_FILES = (
    (None, "--config", dict(metavar="FILE", help="JSON config file")),
    (None, "--sweep", dict(metavar="FILE", help="JSON array of configs, "
                           "fanned over a process pool in order")),
)
_CHART = (
    ("manifold", "--family", dict(choices=[f.value for f in Family])),
    ("manifold", "--p", dict(type=int)),
    ("manifold", "--q", dict(type=int)),
    ("manifold", "--non-compact", dict(
        action="store_const", const=False, dest="compact",
        help="use the bounded-domain dual instead of the compact form")),
    ("", "--level", dict(type=int, help="line-bundle level")),
)
_SPAN = (
    ("", "--z0", dict(help="initial chart point")),
    ("", "--T", dict(type=float, help="integration span")),
    ("", "--dt", dict(type=float, help="step size")),
)
_COMMANDS = {
    "kernel": (run_kernel, _FILES + _CHART + (
        ("", "--z", dict(help="first point: JSON pair [re, im] or matrix")),
        ("", "--w", dict(help="second point: JSON pair [re, im] or matrix")),
    ), "evaluate the reproducing kernel at a pair of chart points"),
    "triangle": (run_triangle, _FILES + _CHART + (
        ("", "--z", dict(help="first vertex")),
        ("", "--w", dict(help="second vertex")),
    ), "exact geodesic-triangle phase against the chart origin"),
    "evolve": (run_evolve, _FILES + _CHART + _SPAN + (
        ("", "--stride", dict(type=int, help="trajectory output stride")),
        ("", "--cyclicity-tol", dict(
            type=float, help="closure tolerance for the detected cycle")),
        ("", "--oracle", dict(
            action="store_true", default=None,
            help="run the spin-j quantum reference alongside (rank-one only)")),
    ), "integrate a linear Hamiltonian flow and report its phases"),
    "stokes": (run_stokes, _FILES + _CHART + (
        ("loop", "--kind", dict(choices=["latitude", "fourier", "points"],
                                help="loop construction")),
        ("loop", "--radius", dict(type=float, help="latitude chart radius")),
        ("loop", "--samples", dict(type=int, help="loop sample count")),
        ("loop", "--seed", dict(type=int, help="fourier loop seed")),
        ("loop", "--modes", dict(type=int, help="fourier mode count")),
        ("loop", "--scale", dict(type=float, help="fourier amplitude scale")),
        ("", "--cyclicity-tol", dict(type=float,
                                     help="loop closure tolerance")),
    ), "compare the connection line integral with the triangle fan"),
    "poincare": (run_poincare, (
        ("", "quotients", dict(nargs="*", metavar="QUOTIENT")),
        ("", "--min-orbit", dict(
            action="append", dest="min_orbits", metavar="GROUP",
            help="print the minimal-orbit table row of a simple group")),
    ), "Betti numbers of equal-rank quotients, e.g. G2/A1xU1"),
    "oracle-compare": (run_oracle_compare, _FILES + (
        ("", "--j", dict(type=float, help="spin of the reference evolution")),
    ) + _SPAN + (
        ("", "--stride", dict(type=int, help="projection sampling stride")),
    ), "pointwise spin-j Schrodinger check of the chart flow"),
}


def _exit_code_for(exc: Exception):
    if isinstance(exc, (NoCycleFound, NotCyclic, NotClosed)):
        return 3
    if isinstance(exc, (CrossCheckFailure, NonRealExpectation, BranchCut)):
        return 4
    if isinstance(exc, KPhaseError):
        return 2
    # The library's own warning raised as an error (``PYTHONWARNINGS=error``)
    # flags an input; numpy's RuntimeWarnings, like every other warning,
    # propagate as faults.
    if isinstance(exc, (ValueError, KeyError, TypeError, OSError,
                        OverflowError, MemoryError, ReducibleFactor)):
        return 2
    return None


def _guarded(run, *args):
    """``run(*args)`` as ``(exit code, stdout lines, stderr text)``.  An
    expected failure becomes its exit code and one JSON error object; any
    other exception propagates."""
    try:
        return 0, run(*args), ""
    except Exception as exc:
        code = _exit_code_for(exc)
        if code is None:
            raise
        payload = {
            "error": {
                "exit_code": code,
                "message": str(exc),
                "type": type(exc).__name__,
            }
        }
        return code, [_dumps(payload)], f"kphase: {type(exc).__name__}: {exc}\n"


def _sweep_worker(item):
    name, config = item
    return _guarded(_COMMANDS[name][0], config)


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = {**out[key], **value}
        else:
            out[key] = value
    return out


def _results(args) -> list:
    """The ``(exit code, stdout lines, stderr text)`` of each run, in the
    order of the sweep file, or of the one run without ``--sweep``."""
    if not getattr(args, "sweep", None):
        return [_guarded(_COMMANDS[args.command][0], _gather_config(args))]
    with open(args.sweep) as f:
        configs = json.load(f)
    if not isinstance(configs, list):
        raise ValueError("sweep file must hold a JSON array of configs")
    if not all(isinstance(c, dict) for c in configs):
        raise ValueError("every sweep entry must be a JSON object")
    base = _gather_config(args)
    items = [(args.command, _merge(base, c)) for c in configs]
    if len(items) <= 1:
        return [_sweep_worker(item) for item in items]
    import multiprocessing

    workers = min(len(items), os.cpu_count() or 1)
    with multiprocessing.Pool(processes=workers) as pool:
        return pool.map(_sweep_worker, items)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kphase",
        description=(
            "Geometric and dynamical phases on matrix coherent-state "
            "orbits, in a single holomorphic chart."
        ),
        epilog=_EPILOG,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, flags, text) in _COMMANDS.items():
        sp = sub.add_parser(command, help=text)
        for _, name, kwargs in flags:
            sp.add_argument(name, **kwargs)
    return parser


def _gather_config(args) -> dict:
    """The config file, if one is given, with each given flag laid over it
    at the entry that ``_COMMANDS`` records.  A section that is not a JSON
    object is left for its reader to reject."""
    cfg = {}
    if getattr(args, "config", None):
        with open(args.config) as f:
            cfg = json.load(f)
        if not isinstance(cfg, dict):
            raise ValueError("config file must hold a JSON object")
    for section, name, kwargs in _COMMANDS[args.command][1]:
        key = kwargs.get("dest", name.lstrip("-").replace("-", "_"))
        value = getattr(args, key)
        if section is None or value is None:
            continue
        target = cfg.setdefault(section, {}) if section else cfg
        if isinstance(target, dict):
            target[key] = value
    return cfg


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built on its first call and kept for
    the life of the process: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    code, results, err = _guarded(_results, args)
    if code:
        results = [(code, results, err)]
    exit_code = 0
    for code, lines, err in results:
        for line in lines:
            print(line)
        if err:
            sys.stderr.write(err)
        exit_code = max(exit_code, code)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
