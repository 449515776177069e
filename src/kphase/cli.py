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
import json
import math
import multiprocessing
import os
import sys

import numpy as np

from .dynamics import (
    STATIONARY_TOL,
    CycleInfo,
    HamiltonianSchedule,
    _find_cycle,
    clip_trajectory,
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
    UnsupportedFamily,
)
from .loops import fourier_loop, latitude_circle
from .manifolds import (
    Family,
    ManifoldSpec,
    cp1,
    distance_stack,
    kernel,
    projective_distance,
    validate_point,
)
from .phases import (
    assemble_report,
    dynamical_phase,
    line_integral_phase,
    stokes_compare,
    triangle_phase,
    wrap_angle,
)
from .serialize import (
    matrix_from_json,
    matrix_to_json,
    spec_from_json,
    vector_from_json,
)
from .su2 import (
    bloch_projection_stack,
    coherent_vector,
    map_schedule,
    quantum_phases,
    schrodinger_evolve,
)
from .topology import betti_validate, min_orbit, poincare_quotient

_EPILOG = (
    "All reported angles use the principal branch (-pi, pi], with the lower "
    "endpoint mapped to +pi.  Exit codes: 0 success, 2 invalid input or "
    "domain violation, 3 no cycle detected, 4 numerical cross-check failure. "
    "The environment variable KPHASE_SEED is reserved for the test harness; "
    "the CLI never reads it."
)


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, allow_nan=False)


def _point_value(value):
    """Accept a number, a [re, im] pair, a pair list, or a nested matrix."""
    if isinstance(value, str):
        value = json.loads(value)
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, list) and value:
        if len(value) == 2 and all(
            isinstance(x, (int, float)) for x in value
        ):
            return complex(value[0], value[1])
        first = value[0]
        if isinstance(first, list) and first and isinstance(first[0], list):
            return matrix_from_json(value)
        if isinstance(first, list):
            return vector_from_json(value)
    raise ValueError(f"cannot interpret point value {value!r}")


def _spec_from(config: dict) -> ManifoldSpec:
    m = config.get("manifold")
    if m is None:
        return cp1()
    if isinstance(m, ManifoldSpec):
        return m
    return spec_from_json(m)


def _require(config: dict, key: str):
    if key not in config:
        raise ValueError(f"missing required config entry {key!r}")
    return config[key]


def run_kernel(config: dict) -> list[str]:
    spec = _spec_from(config)
    z = validate_point(spec, _point_value(_require(config, "z")))
    w = validate_point(spec, _point_value(_require(config, "w")))
    value = kernel(spec, z, w)
    return [_dumps({"im": float(value.imag), "re": float(value.real)})]


def run_triangle(config: dict) -> list[str]:
    spec = _spec_from(config)
    level = int(config.get("level", 1))
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
        info = CycleInfo(len(traj.times) - 1, float(traj.times[-1]),
                         float(np.max(d)))
        return traj, info
    info = _find_cycle(traj.times, d, None)
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
    level = int(config.get("level", 1))
    schedule = HamiltonianSchedule.from_json(_require(config, "schedule"))
    z0 = validate_point(spec, _point_value(config.get("z0", 0.0)))
    T = float(_require(config, "T"))
    dt = float(config.get("dt", 1e-3))
    stride = max(1, int(config.get("stride", 1)))
    cyclicity_tol = float(config.get("cyclicity_tol", 1e-4))
    if schedule.strength() == 0.0:
        raise NoCycleFound("a zero Hamiltonian generates no cycle")
    cyc, info = _evolve_cycle(spec, z0, schedule, T, dt)
    beta = dynamical_phase(spec, level, cyc, schedule)
    gamma = line_integral_phase(spec, level, cyc, cyclicity_tol=cyclicity_tol)
    residual = projective_distance(spec, cyc.point(0), cyc.final_point)
    report = assemble_report(
        beta + gamma, beta, gamma, residual, method="chart-line-integral"
    )

    lines = [
        _dumps({"Z": matrix_to_json(cyc.points[k]), "t": float(cyc.times[k])})
        for k in _strided(len(cyc.times), stride)
    ]
    summary = {
        "cross_check_error": float(cyc.cross_check_error),
        "cycle": {
            "index": info.index,
            "residual": info.residual,
            "time": info.time,
        },
        "report": report.to_json(),
    }
    if config.get("oracle"):
        summary.update(_oracle_block(spec, level, schedule, z0, cyc, dt,
                                     beta, gamma))
    lines.append(_dumps(summary))
    return lines


def _oracle_block(spec, level, schedule, z0, cyc, dt, beta, gamma) -> dict:
    if (
        spec.family is not Family.AIII
        or spec.p != 1
        or spec.q != 1
        or not spec.compact
    ):
        raise UnsupportedFamily(
            "the quantum oracle runs on the compact rank-one chart only"
        )
    j = level / 2.0
    sched_j = map_schedule(schedule, j)
    psi0 = coherent_vector(j, complex(z0.entries[0, 0]))
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


def _build_loop(spec, loop_cfg: dict):
    kind = loop_cfg.get("kind", "latitude")
    if kind == "latitude":
        return latitude_circle(
            spec,
            radius=float(loop_cfg.get("radius", 1.0)),
            samples=int(loop_cfg.get("samples", 256)),
        )
    if kind == "fourier":
        rng = np.random.default_rng(int(loop_cfg.get("seed", 0)))
        return fourier_loop(
            spec,
            rng,
            samples=int(loop_cfg.get("samples", 256)),
            modes=int(loop_cfg.get("modes", 3)),
            scale=float(loop_cfg.get("scale", 0.5)),
        )
    if kind == "points":
        return [
            validate_point(spec, _point_value(v))
            for v in loop_cfg.get("points", [])
        ]
    raise ValueError(f"unknown loop kind {kind!r}")


def run_stokes(config: dict) -> list[str]:
    spec = _spec_from(config)
    level = int(config.get("level", 1))
    loop = _build_loop(spec, config.get("loop", {}))
    cyclicity_tol = float(config.get("cyclicity_tol", 1e-6))
    rep = stokes_compare(spec, level, loop, cyclicity_tol=cyclicity_tol)
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
    j = float(config.get("j", 0.5))
    spec = cp1()
    schedule = HamiltonianSchedule.from_json(_require(config, "schedule"))
    z0 = validate_point(spec, _point_value(config.get("z0", 0.0)))
    T = float(_require(config, "T"))
    dt = float(config.get("dt", 1e-3))
    stride = max(1, int(config.get("stride", 10)))
    sched_j = map_schedule(schedule, j)
    psi0 = coherent_vector(j, complex(z0.entries[0, 0]))
    traj = trajectory(spec, z0, schedule, T, dt)
    straj = schrodinger_evolve(psi0, sched_j, T, dt)
    ks = _strided(len(traj.times), stride)
    labels = bloch_projection_stack(straj.states[ks], j)
    dists = distance_stack(spec, labels[:, None, None], traj.points[ks])
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


_RUNNERS = {
    "kernel": run_kernel,
    "triangle": run_triangle,
    "evolve": run_evolve,
    "stokes": run_stokes,
    "poincare": run_poincare,
    "oracle-compare": run_oracle_compare,
}


def _exit_code_for(exc: Exception):
    if isinstance(exc, (NoCycleFound, NotCyclic, NotClosed)):
        return 3
    if isinstance(exc, (CrossCheckFailure, NonRealExpectation, BranchCut)):
        return 4
    if isinstance(exc, KPhaseError):
        return 2
    if isinstance(exc, (ValueError, KeyError, TypeError, OSError)):
        return 2
    return None


def _error_lines(exc: Exception, code: int):
    payload = {
        "error": {
            "exit_code": code,
            "message": str(exc),
            "type": type(exc).__name__,
        }
    }
    return [_dumps(payload)], f"kphase: {type(exc).__name__}: {exc}\n"


def _sweep_worker(item):
    name, config = item
    try:
        return 0, _RUNNERS[name](config), ""
    except Exception as exc:
        code = _exit_code_for(exc)
        if code is None:
            raise
        lines, err = _error_lines(exc, code)
        return code, lines, err


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = {**out[key], **value}
        else:
            out[key] = value
    return out


def _run_sweep(name: str, args) -> int:
    with open(args.sweep) as f:
        configs = json.load(f)
    if not isinstance(configs, list):
        raise ValueError("sweep file must hold a JSON array of configs")
    base = _gather_config(args)
    items = [(name, _merge(base, c)) for c in configs]
    if len(items) <= 1:
        results = [_sweep_worker(item) for item in items]
    else:
        workers = min(len(items), os.cpu_count() or 1)
        with multiprocessing.Pool(processes=workers) as pool:
            results = pool.map(_sweep_worker, items)
    exit_code = 0
    for code, lines, err in results:
        for line in lines:
            print(line)
        if err:
            sys.stderr.write(err)
        exit_code = max(exit_code, code)
    return exit_code


def _add_common(sp, manifold: bool = True):
    sp.add_argument("--config", metavar="FILE", help="JSON config file")
    sp.add_argument(
        "--sweep",
        metavar="FILE",
        help="JSON array of configs, fanned over a process pool in order",
    )
    if manifold:
        sp.add_argument("--family", choices=[f.value for f in Family])
        sp.add_argument("--p", type=int)
        sp.add_argument("--q", type=int)
        sp.add_argument(
            "--non-compact",
            action="store_true",
            default=None,
            dest="non_compact",
            help="use the bounded-domain dual instead of the compact form",
        )
        sp.add_argument("--level", type=int, help="line-bundle level")


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

    sp = sub.add_parser(
        "kernel",
        help="evaluate the reproducing kernel at a pair of chart points",
    )
    _add_common(sp)
    sp.add_argument("--z", help="first point: JSON pair [re, im] or matrix")
    sp.add_argument("--w", help="second point: JSON pair [re, im] or matrix")

    sp = sub.add_parser(
        "triangle",
        help="exact geodesic-triangle phase against the chart origin",
    )
    _add_common(sp)
    sp.add_argument("--z", help="first vertex")
    sp.add_argument("--w", help="second vertex")

    sp = sub.add_parser(
        "evolve",
        help="integrate a linear Hamiltonian flow and report its phases",
    )
    _add_common(sp)
    sp.add_argument("--z0", help="initial chart point")
    sp.add_argument("--T", type=float, help="integration span")
    sp.add_argument("--dt", type=float, help="step size")
    sp.add_argument("--stride", type=int, help="trajectory output stride")
    sp.add_argument(
        "--cyclicity-tol", type=float, dest="cyclicity_tol",
        help="closure tolerance for the detected cycle",
    )
    sp.add_argument(
        "--oracle",
        action="store_true",
        default=None,
        help="run the spin-j quantum reference alongside (rank-one only)",
    )

    sp = sub.add_parser(
        "stokes",
        help="compare the connection line integral with the triangle fan",
    )
    _add_common(sp)
    sp.add_argument(
        "--kind", choices=["latitude", "fourier", "points"],
        help="loop construction",
    )
    sp.add_argument("--radius", type=float, help="latitude chart radius")
    sp.add_argument("--samples", type=int, help="loop sample count")
    sp.add_argument("--seed", type=int, help="fourier loop seed")
    sp.add_argument("--modes", type=int, help="fourier mode count")
    sp.add_argument("--scale", type=float, help="fourier amplitude scale")
    sp.add_argument(
        "--cyclicity-tol", type=float, dest="cyclicity_tol",
        help="loop closure tolerance",
    )

    sp = sub.add_parser(
        "poincare",
        help="Betti numbers of equal-rank quotients, e.g. G2/A1xU1",
    )
    sp.add_argument("quotients", nargs="*", metavar="QUOTIENT")
    sp.add_argument(
        "--min-orbit",
        action="append",
        dest="min_orbits",
        metavar="GROUP",
        help="print the minimal-orbit table row of a simple group",
    )

    sp = sub.add_parser(
        "oracle-compare",
        help="pointwise spin-j Schrodinger check of the chart flow",
    )
    _add_common(sp, manifold=False)
    sp.add_argument("--j", type=float, help="spin of the reference evolution")
    sp.add_argument("--z0", help="initial chart point")
    sp.add_argument("--T", type=float, help="integration span")
    sp.add_argument("--dt", type=float, help="step size")
    sp.add_argument("--stride", type=int, help="projection sampling stride")

    return parser


def _gather_config(args) -> dict:
    cfg = {}
    if getattr(args, "config", None):
        with open(args.config) as f:
            cfg = json.load(f)
        if not isinstance(cfg, dict):
            raise ValueError("config file must hold a JSON object")
    manifold = cfg.get("manifold")
    manifold = dict(manifold) if isinstance(manifold, dict) else {}
    touched = "manifold" in cfg
    for key in ("family", "p", "q"):
        value = getattr(args, key, None)
        if value is not None:
            manifold[key] = value
            touched = True
    if getattr(args, "non_compact", None):
        manifold["compact"] = False
        touched = True
    if touched:
        cfg["manifold"] = manifold
    for key in ("level", "z", "w", "z0", "T", "dt", "stride", "oracle",
                "j", "cyclicity_tol"):
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    loop = cfg.get("loop")
    loop = dict(loop) if isinstance(loop, dict) else {}
    loop_touched = "loop" in cfg
    for key in ("kind", "radius", "samples", "seed", "modes", "scale"):
        value = getattr(args, key, None)
        if value is not None:
            loop[key] = value
            loop_touched = True
    if loop_touched:
        cfg["loop"] = loop
    if getattr(args, "quotients", None):
        cfg.setdefault("quotients", [])
        cfg["quotients"] = list(cfg["quotients"]) + list(args.quotients)
    if getattr(args, "min_orbits", None):
        cfg.setdefault("min_orbits", [])
        cfg["min_orbits"] = list(cfg["min_orbits"]) + list(args.min_orbits)
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    name = args.command
    try:
        if getattr(args, "sweep", None):
            return _run_sweep(name, args)
        for line in _RUNNERS[name](_gather_config(args)):
            print(line)
        return 0
    except Exception as exc:
        code = _exit_code_for(exc)
        if code is None:
            raise
        lines, err = _error_lines(exc, code)
        for line in lines:
            print(line)
        sys.stderr.write(err)
        return code


if __name__ == "__main__":
    sys.exit(main())
