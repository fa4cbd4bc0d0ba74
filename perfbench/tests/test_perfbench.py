"""Tests of the benchmark itself: the oracle is right, it counts a corrupted
output as an error, and a seed fixes the output digest.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import harness  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import wl_audit  # noqa: E402
import wl_cli  # noqa: E402
import wl_eval  # noqa: E402
import wl_fit  # noqa: E402
from comodular import decompose, generate, integrals  # noqa: E402
from comodular.setfunc import Interval, SetFunction  # noqa: E402

UNIT = Interval(0, 1)


def test_reference_agrees_with_the_package():
    rng = random.Random(5)
    for seed in range(40):
        n = 1 + seed % 5
        v = generate.signed_capacity(seed, n)
        mu = generate.interval_capacity(seed, n, UNIT)
        phi = generate.monotone_transform(seed)
        x = tuple(Fraction(rng.randint(-8, 8), 8) for _ in range(n))
        u = tuple(Fraction(rng.randint(0, 8), 8) for _ in range(n))
        assert ref.choquet(v.values, x) == integrals.choquet(v, x)
        assert ref.symmetric_choquet(v.values, x) == integrals.symmetric_choquet(v, x)
        assert ref.sugeno(mu.values, u) == integrals.sugeno(mu, u, UNIT)
        assert ref.shilkret(mu.values, u) == integrals.shilkret(mu, u)
        assert ref.quasi_choquet(v.values, phi.breakpoints, u) == integrals.quasi_choquet(v, phi, u)
        for role in ("signed", "capacity"):
            assert ref.generated_table(role, seed, n) == list(generate.generate(role, seed, n).values)


def _outputs(wl, state, indices):
    ops = [wl.make_op(state, "test", i) for i in indices]
    outs = [op.run() for op in ops]
    assert all(harness._verdict(op, out, None) for op, out in zip(ops, outs))
    return ops, outs


def _accepts(op, out):
    return harness._verdict(op, out, None)


def test_eval_counts_a_wrong_value():
    ops, outs = _outputs(wl_eval, wl_eval.State(11, "test"), range(12))
    assert not _accepts(ops[3], outs[3] + Fraction(1, 97))


def test_audit_counts_a_flipped_verdict_and_a_bad_witness():
    ops, outs = _outputs(wl_audit, wl_audit.State(12, "test"), range(len(wl_audit.CELLS)))
    first = outs[0]  # a passing choquet battery
    flipped = dataclasses.replace(first.reports[0], verdict="fail")
    assert not _accepts(ops[0], dataclasses.replace(first, reports=(flipped,) + first.reports[1:]))
    control = wl_audit.CELLS.index(("mean", 2, 6))
    result = outs[control]
    report = result.reports[0]
    assert report.verdict == "fail"
    holds = dict(report.witness, operands={"x": (Fraction(0),) * 2, "y": (Fraction(0),) * 2})
    out = dataclasses.replace(result, reports=(dataclasses.replace(report, witness=holds),)
                              + result.reports[1:])
    assert not _accepts(ops[control], out)


def test_fit_counts_a_wrong_table_and_a_wrong_refusal():
    cells = len(wl_fit.CELLS)
    kinds = list(wl_fit.TYPES)
    ops, outs = _outputs(wl_fit, wl_fit.State(13, "test"),
                         (kinds.index("signed") * cells, kinds.index("signed_clipped") * cells))
    table = outs[0]
    wrong = SetFunction(table.n, table.values[:-1] + (table.values[-1] + 1,))
    assert not _accepts(ops[0], wrong)
    assert isinstance(outs[1], decompose.FitRefusal)
    assert not _accepts(ops[1], dataclasses.replace(outs[1], condition="comono_modular"))


def test_cli_counts_wrong_stdout_and_exit_code():
    state = wl_cli.State(14, "test")
    try:
        ops, outs = _outputs(wl_cli, state, range(len(wl_cli.ROUND)))
        for op, out in zip(ops, outs):
            body = out.stdout.replace(b"1", b"2", 1) if b"1" in out.stdout else out.stdout + b"0"
            assert not _accepts(op, wl_cli.Result(out.code, body, out.stderr))
            assert not _accepts(op, wl_cli.Result(out.code ^ 1, out.stdout, out.stderr))
    finally:
        wl_cli.teardown(state)


def test_a_raising_op_is_a_failed_op():
    def boom():
        raise ZeroDivisionError

    class Once:
        @staticmethod
        def round_size(state):
            return 1

        @staticmethod
        def make_op(state, stream, i):
            return harness.Op(run=boom, check=lambda out: True, canon=str, cell="boom")

    phase = harness.run_phase(Once, None, "test", rounds=1)
    assert (phase.attempted, phase.failed) == (1, 1)
    assert phase.canon == ["raised ZeroDivisionError"]


@pytest.mark.parametrize("workload", ["audit", "fit"])
def test_digest_is_fixed_by_the_seed(workload):
    def digest(seed):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
             "--seconds", "0", "--trace", "0"],
            capture_output=True, text=True, timeout=170, cwd=str(ROOT), check=True)
        lines = proc.stdout.splitlines()
        result, info = json.loads(lines[-1]), json.loads(lines[-2])
        assert result["correct"] and result["failed"] == 0
        assert info["digest_ops"] == harness.DIGEST_OPS
        return info["digest"]

    first = digest(3)
    assert digest(3) == first
    assert digest(4) != first


def test_benchmark_json_lists_what_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
