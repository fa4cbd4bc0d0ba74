"""Layer probes that only the traced run makes, untraced, after its ops.

* integrals: p50 of single calls per kind and n, on the eval workload's
  tables;
* cli: bare interpreter start, the package import inside a child, each
  verb's ``cli.main(argv)`` in-process, and each verb's cold start;
* selftest: each criterion run in-process, about 15 s in all, which is
  too long to repeat in the timed runs.
"""

from __future__ import annotations

import contextlib
import io
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import wl_cli
import wl_eval

PROBE_KINDS = ("choquet", "symmetric_choquet", "sugeno", "shilkret")
INTEGRAL_REPS = 7
CLI_REPS = 5


def _p50(samples):
    return statistics.median(samples)


def integrals_p50_us(seed):
    """{"integrals.<kind>.n<n>.p50_us": value}; the first call per table,
    which fills the role cache, is not timed."""
    out = {}
    rng = random.Random("probe-integrals:%d" % seed)
    for n in wl_eval.NS:
        tables = (wl_eval.small_tables(seed, n, count=1) if n <= 8
                  else wl_eval.large_tables(rng, n))
        for kind in PROBE_KINDS:
            table = tables[wl_eval.ROLE[kind]][0]
            lo = -8 if kind == "symmetric_choquet" else 0
            wl_eval.call(kind, table, None, (Fraction(1, 2),) * n)
            samples = []
            for _ in range(INTEGRAL_REPS):
                x = tuple(Fraction(rng.randint(lo, 8), 8) for _ in range(n))
                start = time.perf_counter_ns()
                wl_eval.call(kind, table, None, x)
                samples.append((time.perf_counter_ns() - start) / 1e3)
            out["integrals.%s.n%d.p50_us" % (kind, n)] = _p50(samples)
    return out


def _child_ms(argv, env):
    start = time.perf_counter_ns()
    proc = subprocess.run(argv, env=env, capture_output=True, timeout=wl_cli.CHILD_TIMEOUT_S)
    elapsed = (time.perf_counter_ns() - start) / 1e6
    return elapsed, proc


def cli_probes(seed):
    """(metrics, ok): ok is False when a probe child or call misbehaved."""
    from comodular import cli

    state = wl_cli.State(seed, "probe")
    ok = True
    out = {}
    try:
        env = state.env
        out["cli.interp_ms"] = _p50([_child_ms([sys.executable, "-c", "pass"], env)[0]
                                     for _ in range(CLI_REPS)])
        code = ("import time; t = time.perf_counter(); import comodular.cli; "
                "print((time.perf_counter() - t) * 1e3)")
        samples = []
        for _ in range(CLI_REPS):
            _, proc = _child_ms([sys.executable, "-c", code], env)
            ok = ok and proc.returncode == 0
            samples.append(float(proc.stdout) if proc.returncode == 0 else 0.0)
        out["cli.import_ms"] = _p50(samples)
        for i, (verb, _) in enumerate(wl_cli.ROUND[:4]):
            _, argv, oracle = wl_cli.plan(state, "probe", i)
            inproc, cold = [], []
            for _ in range(CLI_REPS):
                sink = io.StringIO()
                start = time.perf_counter_ns()
                with contextlib.redirect_stdout(sink):
                    code_in = cli.main(argv)
                inproc.append((time.perf_counter_ns() - start) / 1e6)
                start = time.perf_counter_ns()
                result = state.spawn(argv)
                cold.append((time.perf_counter_ns() - start) / 1e6)
                ok = ok and oracle(result) and code_in == result.code
                ok = ok and sink.getvalue().encode() == result.stdout
            out["cli.%s.inproc_ms" % verb] = _p50(inproc)
            out["cli.%s.cold_ms" % verb] = _p50(cold)
    finally:
        wl_cli.teardown(state)
    return out, ok


def selftest_seconds():
    """(metrics, ok) with each criterion's wall time in seconds."""
    from comodular import selftest

    out = {}
    ok = True
    total = 0.0
    for cid, _, criterion in selftest.CRITERIA:
        start = time.perf_counter()
        passed, _ = criterion("rational")
        elapsed = time.perf_counter() - start
        ok = ok and passed
        out["selftest.c%02d_s" % cid] = elapsed
        total += elapsed
    out["selftest.total_s"] = total
    return out, ok
