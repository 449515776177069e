"""What a fresh ``kphase`` process loads, and the package surface that
loads ``topology`` on first use."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kphase
import kphase.topology

# Run in a fresh interpreter: in the test process any ``np.median`` call
# has already imported ``numpy.ma``.
_PROBE = """
import contextlib, io, json, sys
import kphase, kphase.cli

LAZY = ("multiprocessing", "kphase.topology", "numpy.ma")


def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = kphase.cli.main(list(argv))
    return {"code": code, "stdout": out.getvalue(),
            "loaded": [m for m in LAZY if m in sys.modules]}


print(json.dumps({
    "import": [m for m in LAZY if m in sys.modules],
    "evolve": run("evolve", "--config", sys.argv[1]),
    "stokes": run("stokes", "--kind", "latitude", "--samples", "200"),
    "poincare": run("poincare", "G2/A1xU1"),
}))
"""

POINCARE_LINE = (
    '{"coefficients": [1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1], '
    '"euler_characteristic": 6, '
    '"polynomial": "1 + t^2 + t^4 + t^6 + t^8 + t^10", '
    '"quotient": "G2/A1xU1", "top_degree": 10, "valid": true}\n'
)


def test_fresh_process_loads_only_what_it_runs(tmp_path):
    """After ``import kphase, kphase.cli`` none of ``multiprocessing``,
    ``kphase.topology`` and ``numpy.ma`` is loaded; a CP1 ``evolve`` and
    a latitude ``stokes`` load none of them, and ``poincare`` loads
    ``topology`` and prints the same line as before."""
    config = tmp_path / "precession.json"
    config.write_text(json.dumps({
        "schedule": {"generators": [[[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]],
                     "constant": [1.0]},
        "z0": [0.5, 0.0], "T": 3.5, "dt": 2e-3, "stride": 300}))
    src = str(Path(kphase.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _PROBE, str(config)],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["import"] == []
    assert report["evolve"]["code"] == 0
    assert '"cycle"' in report["evolve"]["stdout"]
    assert report["evolve"]["loaded"] == []
    assert report["stokes"]["code"] == 0
    assert report["stokes"]["loaded"] == []
    assert report["poincare"] == {"code": 0, "stdout": POINCARE_LINE,
                                  "loaded": ["kphase.topology"]}


@pytest.mark.parametrize("name", kphase.__all__)
def test_every_public_name_resolves(name):
    """Each name of ``__all__`` resolves to the object its defining module
    holds, topology's to the one in ``kphase.topology``, and ``dir``
    lists it."""
    value = getattr(kphase, name)
    assert value.__module__.startswith("kphase.")
    assert getattr(sys.modules[value.__module__], name) is value
    if name in kphase._TOPOLOGY:
        assert value is getattr(kphase.topology, name)
    assert name in dir(kphase)


def test_public_surface():
    """``from kphase import *`` binds every name of ``__all__``, which is
    sorted, has no repeats and holds topology's names; an unknown name
    raises ``AttributeError`` naming the module."""
    namespace = {}
    exec("from kphase import *", namespace)
    assert set(kphase.__all__) <= namespace.keys()
    assert kphase.__all__ == sorted(set(kphase.__all__))
    assert set(kphase._TOPOLOGY) <= set(kphase.__all__)
    with pytest.raises(AttributeError,
                       match="module 'kphase' has no attribute 'no_such'"):
        kphase.no_such
