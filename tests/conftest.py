import os
import re

import numpy as np
import pytest

_DEFAULT_SEED = 20240817


@pytest.fixture
def rng():
    """Seeded generator; KPHASE_SEED overrides for reproduction runs, and
    an empty one counts as unset."""
    seed = int(os.environ.get("KPHASE_SEED") or _DEFAULT_SEED)
    return np.random.default_rng(seed)


def pytest_runtest_logreport(report):
    # One visible pass/fail line per acceptance criterion, even when
    # pytest captures stdout of the tests themselves.
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    m = re.search(r"criterion_(\d+)", report.nodeid)
    if m:
        outcome = "PASS" if report.passed else "FAIL"
        print(f"\nACCEPTANCE {m.group(1)}: {outcome}", flush=True)
