"""Rounds, checks and metrics behind ``run.py``.

``run.py`` fixes the BLAS thread count and puts ``src`` on ``sys.path``
before this module (and numpy) is imported.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

import hostspeed
import kphase.cli
import workloads
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MIN_WARM_ROUNDS = 3
MIN_TRACED_ROUNDS = 2
SETUP_REPEATS = 5
# The reference runs after the timed import: it imports numpy itself.
IMPORT_PROBE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "import kphase, kphase.cli\n"
    "s = time.perf_counter() - t\n"
    f"sys.path.insert(0, {str(BENCH_DIR)!r})\n"
    "from hostspeed import reference_seconds\n"
    "reference_seconds()\n"
    "r = reference_seconds(1000)\n"
    "print(repr(s), repr(r))\n"
)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup() -> tuple[float, float]:
    """Median import time of the package in fresh interpreters, scaled to
    the reference speed measured in the same interpreter, and unscaled."""
    scaled, wall = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=_child_env(),
            capture_output=True, text=True, timeout=120, check=True,
        )
        value, ref = proc.stdout.split()
        wall.append(float(value))
        scaled.append(
            float(value) * hostspeed.NOMINAL_S_PER_ITER / float(ref))
    return statistics.median(scaled), statistics.median(wall)


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in f
                 if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


class Runner:
    """Runs rounds over one workload's calls and keeps the failure tally."""

    def __init__(self, name: str, calls, tracer: Tracer | None = None):
        self.name = name
        self.calls = calls
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.unexpected: dict[str, list[str]] = {}
        self.missed: dict[str, list[str]] = {}
        self.reference: list[str | None] = [None] * len(calls)

    def _check(self, call, rc, text) -> list[str]:
        if rc != 0:
            return [f"exit_{rc}"]
        try:
            return call.check(workloads.parse_lines(text))
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"output:{type(exc).__name__}"]

    def round(self, traced: bool = False) -> tuple[float, float]:
        """One pass over the calls, each checked as it returns.

        Returns the pass's time scaled to the reference speed sampled
        during each call, and its wall time, both without the sampling.
        A traced pass is not sampled, so no sampling lands in its spans;
        its scaled time is its wall time.
        """
        gc.collect()
        results = []
        scaled = wall = 0.0
        sampler = hostspeed.SpeedSampler()
        if traced:
            self.tracer.clear()
            self.tracer.install()
        try:
            with contextlib.nullcontext() if traced else sampler:
                for k, call in enumerate(self.calls):
                    if traced:
                        self.tracer.call_id = k
                    out, err = io.StringIO(), io.StringIO()
                    start = sampler.mark()
                    try:
                        with contextlib.redirect_stdout(out), \
                                contextlib.redirect_stderr(err):
                            rc = kphase.cli.main(call.argv)
                    except Exception as exc:  # a traceback is a failed call
                        traceback.print_exc()
                        rc = f"raised_{type(exc).__name__}"
                    text = out.getvalue()
                    missed = self._check(call, rc, text)
                    call_scaled, call_wall = sampler.scale(
                        start, sampler.mark(), sampled=not traced)
                    scaled += call_scaled
                    wall += call_wall
                    results.append((call, text, missed))
        finally:
            if traced:
                self.tracer.uninstall()
        for k, (call, text, missed) in enumerate(results):
            self.attempted += 1
            if self.reference[k] is None:
                self.reference[k] = text
            elif text != self.reference[k]:
                missed = missed + ["stdout_changed_between_rounds"]
            if missed:
                self.failed += 1
                self.missed[call.label] = missed
                known = workloads.KNOWN_FAILURES.get((self.name, call.label))
                if missed != [known]:
                    self.unexpected[call.label] = missed
        return scaled, wall


def per_layer_metrics(stats: list[dict], traced: list[float],
                      untraced: list[float]) -> dict:
    """Per-layer metrics from the summaries of the traced rounds."""

    def count(q):
        return stats[0]["calls"].get(q, 0)

    def med(fn):
        return statistics.median(fn(s) for s in stats)

    def per(q, num_key="incl_s", den_key="calls", scale=1e6):
        def value(s):
            den = s[den_key].get(q, 0)
            return s[num_key].get(q, 0.0) / den * scale if den else 0.0
        return med(value)

    def total(q):
        return med(lambda s: s["incl_s"].get(q, 0.0))

    def loops_per_point(s):
        names = ("loops.latitude_circle", "loops.fourier_loop")
        pts = sum(s["units"].get(q, 0) for q in names)
        return sum(s["incl_s"].get(q, 0.0) for q in names) / pts * 1e6 \
            if pts else 0.0

    def refinement_ratio(s):
        compares = s["calls"].get("phases.stokes_compare", 0)
        return s["calls"].get("phases.polygon_phase", 0) / compares \
            if compares else 0.0

    def useful_ratio(s):
        done = s["steps_integrated"]
        return s["steps_useful"] / done if done else 0.0

    values = {
        "manifolds.kernel.calls": (count("manifolds.kernel"), "count"),
        "manifolds.kernel.us_per_call": (per("manifolds.kernel"), "us"),
        "manifolds.validate_point.calls":
            (count("manifolds.validate_point"), "count"),
        "manifolds.validate_point.us_per_call":
            (per("manifolds.validate_point"), "us"),
        "manifolds.projective_distance.calls":
            (count("manifolds.projective_distance"), "count"),
        "geometry.gradient.calls": (count("geometry.gradient"), "count"),
        "geometry.gradient.us_per_call": (per("geometry.gradient"), "us"),
        "geometry.potential.calls": (count("geometry.potential"), "count"),
        "dynamics.trajectory.steps":
            (stats[0]["units"].get("dynamics.trajectory", 0), "count"),
        "dynamics.trajectory.us_per_step":
            (per("dynamics.trajectory", den_key="units"), "us"),
        "dynamics.trajectory.useful_ratio": (med(useful_ratio), "ratio"),
        "dynamics.schedule_eval.calls":
            (count("dynamics.schedule_eval"), "count"),
        "dynamics.schedule_eval.us_per_call":
            (per("dynamics.schedule_eval"), "us"),
        "dynamics.mobius_act.calls": (count("dynamics.mobius_act"), "count"),
        "dynamics.riccati_rhs.calls": (count("dynamics.riccati_rhs"), "count"),
        "dynamics.expectation.calls": (count("dynamics.expectation"), "count"),
        "dynamics.expectation.us_per_call":
            (per("dynamics.expectation"), "us"),
        "dynamics.find_cycle.s": (total("dynamics.find_cycle"), "s"),
        "phases.line_integral_phase.us_per_sample":
            (per("phases.line_integral_phase", den_key="units"), "us"),
        "phases.dynamical_phase.us_per_sample":
            (per("phases.dynamical_phase", den_key="units"), "us"),
        "phases.polygon_phase.us_per_vertex":
            (per("phases.polygon_phase", den_key="units"), "us"),
        "phases.stokes_compare.refinement_ratio":
            (med(refinement_ratio), "ratio"),
        "su2.schrodinger_evolve.us_per_step":
            (per("su2.schrodinger_evolve", den_key="units"), "us"),
        "su2.bloch_projection.calls": (count("su2.bloch_projection"), "count"),
        "su2.bloch_projection.us_per_call":
            (per("su2.bloch_projection"), "us"),
        "su2.quantum_phases.s": (total("su2.quantum_phases"), "s"),
        "loops.build.us_per_point": (med(loops_per_point), "us"),
        "cli.main.self_s":
            (med(lambda s: s["self_s"].get("cli.main", 0.0)), "s"),
        "serialize.matrix_to_json.calls":
            (count("serialize.matrix_to_json"), "count"),
    }
    for layer in ("cli", "manifolds", "geometry", "dynamics", "phases", "su2",
                  "loops"):
        values[f"{layer}.self_s"] = (
            med(lambda s: s["layer_self_s"].get(layer, 0.0)), "s")
    values["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(untraced), "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def _fits(deadline: float, last: float) -> bool:
    """True if another stretch as long as ``last`` ends before the deadline."""
    return time.perf_counter() + last <= deadline


def run(args) -> int:
    """Run one workload as ``run.py`` describes; print the result lines."""
    deadline = time.perf_counter() + args.seconds
    OUT.mkdir(exist_ok=True)
    config_dir = Path(tempfile.mkdtemp(prefix="configs-", dir=OUT))
    try:
        calls = workloads.build(args.workload, args.seed, config_dir)
        runner = Runner(args.workload, calls,
                        Tracer() if args.trace else None)
        first, first_wall = runner.round()
        if args.trace:
            metrics, extra = _traced_rounds(args.workload, runner, deadline)
        else:
            setup, setup_wall = measure_setup()
            warm, warm_wall = [], []
            while (len(warm) < MIN_WARM_ROUNDS
                   or _fits(deadline, warm_wall[-1])):
                scaled, wall = runner.round()
                warm.append(scaled)
                warm_wall.append(wall)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = {
                "round_s": {"value": statistics.median(warm), "unit": "s"},
                "first_round_s": {"value": first, "unit": "s"},
                "setup_s": {"value": setup, "unit": "s"},
                "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            }
            extra = {
                "rounds": 1 + len(warm),
                "round_s_all": [first] + warm,
                "round_wall_s_all": [first_wall] + warm_wall,
                "setup_wall_s": setup_wall,
            }
    finally:
        shutil.rmtree(config_dir, ignore_errors=True)

    print(json.dumps({"environment": environment()}, sort_keys=True))
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "error_rate": {"value": runner.failed / runner.attempted,
                       "unit": "ratio"},
        "missed_checks": runner.missed,
        "known_failures": {
            label: check
            for (name, label), check in workloads.KNOWN_FAILURES.items()
            if name == args.workload},
        "unexpected_failures": runner.unexpected,
        **extra,
    }, sort_keys=True))
    print(json.dumps({
        "correct": not runner.unexpected,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


def _traced_rounds(name: str, runner: Runner, deadline: float):
    """Alternate traced and untraced rounds; summarise the traced spans.

    ``trace.overhead_ratio`` compares wall times: traced rounds are not
    scaled, and the untraced wall times exclude the speed sampling.
    """
    tracer = runner.tracer
    traced, untraced, stats, pair = [], [], [], []
    while len(traced) < MIN_TRACED_ROUNDS or _fits(deadline, pair[-1]):
        _, wall_traced = runner.round(traced=True)
        stats.append(tracer.summarize())
        _, wall_untraced = runner.round()
        traced.append(wall_traced)
        untraced.append(wall_untraced)
        pair.append(wall_traced + wall_untraced)
    spans = tracer.spans()
    path = OUT / f"spans-{name}.npz"
    np.savez(path, names=np.array(tracer.names), **spans)
    stable = all(s["calls"] == stats[0]["calls"]
                 and s["units"] == stats[0]["units"] for s in stats)
    metrics = per_layer_metrics(stats, traced, untraced)
    extra = {
        "counts_stable": stable,
        "rounds": 1 + len(traced) + len(untraced),
        "traced_round_wall_s": traced,
        "untraced_round_wall_s": untraced,
        "spans_file": str(path.relative_to(ROOT)),
        "spans_last_round": len(spans["name"]),
    }
    return metrics, extra

