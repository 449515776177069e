"""kphase benchmark: seeded CLI workloads, timed end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload evolve --seed 1 --seconds 40 --trace 0

Each workload is a fixed list of ``kphase.cli.main([...])`` calls
(``perfbench/workloads.py``) run in this process against ``src/``.  A round
is one pass over the list, each call checked as it returns.  The loop is
closed: one client, the next call starts when the previous one has been
checked.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:

* ``round_s``: median time of a round after the first;
* ``first_round_s``: the first round in this fresh process;
* ``setup_s``: median time of ``import kphase, kphase.cli`` in a fresh
  interpreter;
* ``peak_rss_mb``: peak resident memory of this process.

The three times are wall seconds scaled to a fixed host speed
(``hostspeed.py``): the shared host drifts by 20-40 % over tens of
seconds, and scaling each call by a reference loop timed beside it removes
most of that drift.  The unscaled wall times are on the details line.

With ``--trace 1`` untraced and traced rounds alternate, and the last line
reports per-layer metrics from the spans of the traced rounds
(``perfbench/tracer.py``); ``trace.overhead_ratio`` is the median traced
round over the median untraced round.  Counts are per round.  A timing
whose function did not run on the workload reads 0.

The ``error_rate`` of a run is ``failed / attempted`` over all calls of all
rounds; it is printed by name on the line before the result.  A call fails
if it raises, exits non-zero, prints JSON that is not strict, or misses its
check.  ``correct`` is false when a call fails in a way not listed in
``workloads.KNOWN_FAILURES``, or when a call's stdout differs between rounds
(traced rounds included).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
WORKLOADS = ("evolve", "oracle", "stokes")
# Small matrices gain nothing from BLAS threads, and one thread keeps the
# pool's wake-ups off the two shared cores.  Set before numpy is imported.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "kphase" / "__init__.py").is_file():
        print(f"perfbench: no kphase sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import harness

    return harness.run(args)


if __name__ == "__main__":
    sys.exit(main())
