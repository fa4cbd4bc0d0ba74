"""Acceptance battery.

Twelve numbered criteria, one test each, every one printing a single
pass/fail line (written past pytest's capture so the lines always appear
in the run log).  Criteria 1..11 drive the same functions the selftest
verb uses; criterion 12 runs that verb twice end to end and compares
the bytes with each other and with a committed golden report.  All
arithmetic is rational, so the expected tolerance everywhere
is exactly zero; runtime budgets are asserted alongside correctness.
"""

import subprocess
import sys
import time
from pathlib import Path

import pytest

from comodular import selftest

# Two runs of one build agree even when a change alters the report in both,
# so the rational JSON report is also held against this file.  Regenerate
# it only for an intended change of the report (or of __version__).
GOLDEN = Path(__file__).parent / "data" / "selftest_rational.json"

BUDGETS = {1: 1, 2: 10, 3: 10, 4: 60, 5: 10, 6: 30, 7: 30, 8: 10, 9: 5, 10: 30, 11: 30}


def _run(cid, capfd):
    title = next(t for i, t, _ in selftest.CRITERIA if i == cid)
    fn = next(f for i, _, f in selftest.CRITERIA if i == cid)
    start = time.monotonic()
    ok, details = fn("rational")
    elapsed = time.monotonic() - start
    _announce(capfd, cid, title, ok, elapsed)
    assert ok, details
    assert elapsed < BUDGETS[cid], "criterion %d took %.1fs" % (cid, elapsed)
    return details


def _announce(capfd, cid, title, ok, elapsed):
    line = "\ncriterion %2d  %-62s %s  (%.2fs)" % (
        cid,
        title,
        "PASS" if ok else "FAIL",
        elapsed,
    )
    # capture is fd-level by default, so only a disabled() window reaches the log
    with capfd.disabled():
        sys.stdout.write(line)
        sys.stdout.flush()


def test_criterion_01_indicator_identity(capfd):
    details = _run(1, capfd)
    assert details["capacities"] == 50


def test_criterion_02_duality_identity(capfd):
    details = _run(2, capfd)
    assert details["capacities"] == 20


def test_criterion_03_symmetric_cross_check(capfd):
    details = _run(3, capfd)
    assert details["points_checked"] > 0


def test_criterion_04_signed_family_necessity_and_fit(capfd):
    details = _run(4, capfd)
    assert details["capacities"] == [1, 2, 3, 4, 5, 6]


def test_criterion_05_clipped_integral_negative_control(capfd):
    details = _run(5, capfd)
    assert details["witness"]["operands"]


def test_criterion_06_separation_round_trip(capfd):
    details = _run(6, capfd)
    assert details["points_checked"] > 0


def test_criterion_07_lattice_form_equivalences(capfd):
    details = _run(7, capfd)
    assert details["capacities"] == 20


def test_criterion_08_implication_suite(capfd):
    details = _run(8, capfd)
    assert details["mean_witness"]["operands"] == {"x": ["0", "1"], "y": ["1/2", "1/2"]}


def test_criterion_09_shilkret_negative_control(capfd):
    details = _run(9, capfd)
    assert "comono_minitive" in details and "comono_modular" in details


def test_criterion_10_lattice_factorization(capfd):
    details = _run(10, capfd)
    assert details["pairs"] == 10


def test_criterion_11_one_sided_fit(capfd):
    details = _run(11, capfd)
    assert details["pairs"] == 10


@pytest.mark.parametrize("fmt", ["json"])
def test_criterion_12_selftest_determinism(fmt, capfd):
    start = time.monotonic()
    argv = [sys.executable, "-m", "comodular.cli", "selftest", "--format", fmt]
    first = subprocess.run(argv, capture_output=True, check=True)
    second = subprocess.run(argv, capture_output=True, check=True)
    ok = first.stdout == second.stdout == GOLDEN.read_bytes() and len(first.stdout) > 0
    _announce(capfd, 12, "selftest reports are byte-identical across runs", ok, time.monotonic() - start)
    assert ok
