"""Acceptance suite: one test per release criterion, exact tolerances.

Each test prints its pass/fail line (visible with `pytest -s` or in the
captured output of a failure); `radcube selftest` runs the same checks
from the command line.
"""

import time

import pytest

from radcube.catalog import verify_catalog
from radcube.selftest import CRITERIA

# The release budgets are the ones `radcube selftest` enforces.
BUDGETS = {name: (fn, budget) for name, fn, budget in CRITERIA}


def run_criterion(name):
    fn, budget = BUDGETS[name]
    t0 = time.time()
    ok, detail = fn()
    dt = time.time() - t0
    status = "pass" if ok and dt <= budget else "FAIL"
    print(f"[{status}] criterion {name}: {detail} ({dt:.1f}s, budget {budget:.0f}s)")
    assert ok, detail
    assert dt <= budget, f"runtime {dt:.1f}s exceeded {budget:.0f}s budget"


def test_catalog_self_check():
    problems = verify_catalog()
    print(
        "[pass] catalog self-check: all entries match recorded invariants"
        if not problems
        else f"[FAIL] catalog self-check: {problems}"
    )
    assert problems == []


@pytest.mark.parametrize("name", list(BUDGETS), ids=lambda n: n.replace(" ", "_"))
def test_acceptance_criterion(name):
    run_criterion(name)
