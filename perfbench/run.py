#!/usr/bin/env python3
"""comodular benchmark.

    python3 perfbench/run.py --workload {eval,audit,fit,cli} --seed N \
        --seconds S --trace {0,1}

Run from anywhere; the checkout root is the parent of this directory and
the package is imported from its ``src``.  Each run is a fresh process, so
the package's module-level caches (grid points, comonotonic pairs, the
role-check cache) start empty.  One client drives the workload in a closed
loop: the next op starts when the previous one has returned.

--trace 0 times whole rounds of ops for --seconds (and at least 100 ops)
and prints the end-to-end metrics.  --trace 1 runs TRACE_ROUNDS rounds
untraced and TRACE_ROUNDS rounds traced on fresh inputs, then the layer
probes, and prints the per-layer metrics.  Either way the line before the
last is a JSON record of the environment, the output digest and every op;
the last line is the result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import harness
from tracing import FORM_FNS, KINDS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("eval", "audit", "fit", "cli")
SETUP_CHILDREN = 2
# Unattributed op time beyond the tracing slowdown that the self-time check
# still accepts: the root span's own bookkeeping and the bench's glue.
SELF_TIME_SLACK = 0.05

AXIOMS_IN_MIX = (
    "comono_modular", "comono_additive", "sign_homog_rays", "dual_shift",
    "horiz_min_additive", "comono_maxitive", "comono_minitive", "idempotent",
    "nondecreasing", "weak_max_homog", "modular", "maxitive", "full_homog_rays",
    "invar_horiz_min_diff", "invar_horiz_max_diff", "quasi_homog_rays", "weak_min_homog",
)
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def per_layer_names():
    """(name, unit) of every per-layer metric, in report order."""
    out = [("scalars.as_fraction.calls", "count"),
           ("setfunc.validate.calls", "count"), ("setfunc.validate.self_ms", "ms"),
           ("setfunc.SetFunction.init_ms", "ms"),
           ("comono.sorted_view.calls", "count"), ("comono.sorted_view.self_ms", "ms"),
           ("comono.as_point.calls", "count"), ("comono.split_parts.self_ms", "ms"),
           ("transforms.apply.calls", "count"), ("transforms.apply.self_ms", "ms")]
    for kind in KINDS:
        out += [("integrals.%s.calls" % kind, "count"), ("integrals.%s.self_ms" % kind, "ms")]
    for kind in ("choquet", "symmetric_choquet", "sugeno", "shilkret"):
        out += [("integrals.%s.n%d.p50_us" % (kind, n), "us") for n in (2, 4, 8, 12, 16)]
    out += [("axioms.grid_points.self_ms", "ms"), ("axioms.comonotonic_pairs.self_ms", "ms"),
            ("axioms.comonotonic_pairs.pairs", "count"), ("axioms.audit.self_ms", "ms"),
            ("axioms.check.self_ms", "ms")]
    out += [("axioms.check.%s.self_ms" % a, "ms") for a in AXIOMS_IN_MIX]
    out += [("axioms.fn.calls", "count"), ("axioms.fn.distinct", "count"),
            ("axioms.fn.self_ms", "ms"),
            ("axioms.instances.tested", "count"), ("axioms.instances.skipped", "count"),
            ("axioms.tested_ratio", "ratio"), ("axioms.retained_kb", "KiB")]
    out += [("decompose.%s.self_ms" % f, "ms") for f in FORM_FNS]
    out += [("decompose.fit.fn_calls", "count"), ("decompose.fit.fitted", "count"),
            ("decompose.fit.refused", "count"), ("generate.self_ms", "ms")]
    out += [("selftest.c%02d_s" % c, "s") for c in range(1, 12)] + [("selftest.total_s", "s")]
    out += [("cli.interp_ms", "ms"), ("cli.import_ms", "ms")]
    for verb in ("eval", "gen", "audit", "fit"):
        out += [("cli.%s.inproc_ms" % verb, "ms"), ("cli.%s.cold_ms" % verb, "ms")]
    out += [("trace_overhead", "ratio"), ("trace.unattributed_share", "ratio")]
    return out


def _module_caches_empty():
    """True when the package's process-wide caches hold nothing yet; caches
    a later version drops count as empty."""
    from comodular import axioms, integrals

    role = getattr(integrals, "_require_role", None)
    role_size = role.cache_info().currsize if hasattr(role, "cache_info") else 0
    return (not getattr(axioms, "_POINTS_CACHE", None)
            and not getattr(axioms, "_COMONO_CACHE", None) and role_size == 0)


def _setup_children(args):
    """Set-up time of SETUP_CHILDREN fresh processes doing only the set-up."""
    samples = []
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=170, cwd=str(ROOT))
        if proc.returncode != 0:
            raise RuntimeError("set-up child failed: %s" % proc.stderr.strip())
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return samples


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _print(info, correct, attempted, failed, metrics):
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def _memory(wl, state):
    """Peak RSS in MB of what the workload runs: this process, or for cli the
    largest CLI child."""
    if wl.NAME == "cli":
        return lambda: state.peak_rss_kb / 1024.0
    return harness.peak_rss_mb


def measured_run(args, wl, state, own_setup_s, env):
    phase = harness.run_phase(wl, state, "main", seconds=args.seconds, memory=_memory(wl, state))
    setups = [own_setup_s] + _setup_children(args)
    p50, p90 = phase.latency_ms()
    digest, digest_ops = phase.digest()
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "ops_per_s": _metric(phase.ops_per_s(), "1/s"),
        "op_p50_ms": _metric(p50, "ms"),
        "op_p90_ms": _metric(p90, "ms"),
        "peak_rss_mb": _metric(phase.prefix_rss_mb, "MB"),
    }
    info = {
        "env": env,
        "digest": digest,
        "digest_ops": digest_ops,
        "error_rate": phase.failed / phase.attempted,
        "failed_ops": [i for i, ok in enumerate(phase.verdicts) if not ok],
        "setup_samples_s": setups,
        "timed_s": phase.seconds(),
        "kernel_ref_s": harness.KERNEL_REF_S,
        "kernel_s": phase.kernel_s,
        "ops": phase.records,
    }
    _print(info, phase.failed == 0, phase.attempted, phase.failed, metrics)


def traced_run(args, wl, state, env):
    import probes  # imports the package

    plain = harness.run_phase(wl, state, "plain", rounds=wl.TRACE_ROUNDS)
    tracer = Tracer()
    tracer.install()
    traced_state = None
    try:
        traced_state = tracer.root(lambda: wl.setup(args.seed, "traced"), label="setup")
        traced_state.tracer = tracer
        rss_before_kb = harness.current_rss_kb()
        traced = harness.run_phase(wl, traced_state, "traced", rounds=wl.TRACE_ROUNDS,
                                   tracer=tracer)
        rss_after_kb = harness.current_rss_kb()
    finally:
        tracer.uninstall()
        if traced_state is not None:
            wl.teardown(traced_state)
    verdicts = plain.verdicts + traced.verdicts
    failed = verdicts.count(False)

    found = probes.integrals_p50_us(args.seed)
    cli_found, cli_ok = probes.cli_probes(args.seed)
    selftest_found, selftest_ok = probes.selftest_seconds()
    found.update(cli_found)
    found.update(selftest_found)

    t = tracer
    overhead = traced.ops_per_s() / plain.ops_per_s()
    tested, skipped = t.counts["axioms.instances.tested"], t.counts["axioms.instances.skipped"]
    found.update({
        "scalars.as_fraction.calls": t.counts["scalars.as_fraction"],
        "setfunc.validate.calls": t.calls["setfunc.validate"],
        "setfunc.validate.self_ms": t.self_ms("setfunc.validate"),
        "setfunc.SetFunction.init_ms": t.total_ms("setfunc.SetFunction.init"),
        "comono.sorted_view.calls": t.calls["comono.sorted_view"],
        "comono.sorted_view.self_ms": t.self_ms("comono.sorted_view"),
        "comono.as_point.calls": t.counts["comono.as_point"],
        "comono.split_parts.self_ms": t.self_ms("comono.split_parts"),
        "transforms.apply.calls": t.calls["transforms.apply"],
        "transforms.apply.self_ms": t.self_ms("transforms.apply"),
        "axioms.grid_points.self_ms": t.self_ms("axioms.grid_points"),
        "axioms.comonotonic_pairs.self_ms": t.self_ms("axioms.comonotonic_pairs"),
        "axioms.comonotonic_pairs.pairs": t.counts["axioms.comonotonic_pairs.pairs"],
        "axioms.audit.self_ms": t.self_ms("axioms.audit"),
        "axioms.check.self_ms": t.self_ms("axioms.check"),
        "axioms.fn.calls": t.calls["axioms.fn"],
        "axioms.fn.distinct": t.counts["axioms.fn.distinct"],
        # inclusive: all time spent inside the audited black box
        "axioms.fn.self_ms": t.total_ms("axioms.fn"),
        "axioms.instances.tested": tested,
        "axioms.instances.skipped": skipped,
        "axioms.tested_ratio": tested / (tested + skipped) if tested + skipped else 0.0,
        "axioms.retained_kb": rss_after_kb - rss_before_kb,
        "decompose.fit.fn_calls": t.counts["decompose.fit.fn_calls"],
        "decompose.fit.fitted": t.counts["decompose.fit.fitted"],
        "decompose.fit.refused": t.counts["decompose.fit.refused"],
        "generate.self_ms": t.self_ms("generate"),
        "trace_overhead": overhead,
        "trace.unattributed_share": t.unattributed_share(),
    })
    for kind in KINDS:
        found["integrals.%s.calls" % kind] = t.calls["integrals." + kind]
        found["integrals.%s.self_ms" % kind] = t.self_ms("integrals." + kind)
    for fn in FORM_FNS:
        found["decompose.%s.self_ms" % fn] = t.self_ms("decompose." + fn)
    for axiom in AXIOMS_IN_MIX:
        found["axioms.check.%s.self_ms" % axiom] = t.self_ms("axioms.check." + axiom)
    metrics = {name: _metric(found[name], unit) for name, unit in per_layer_names()}

    # Self times of the traced ops must account for their wall time, up to
    # what tracing itself added.  Work done in child processes is invisible
    # to in-process spans, so the check does not apply to cli.
    allowed = max(0.0, 1.0 - overhead) + SELF_TIME_SLACK
    self_time_ok = args.workload == "cli" or t.unattributed_share() <= allowed
    plain_digest, plain_ops = plain.digest()
    info = {
        "env": env,
        "digest": plain_digest,
        "digest_ops": plain_ops,
        "error_rate": failed / len(verdicts),
        "failed_ops": [i for i, ok in enumerate(verdicts) if not ok],
        "self_time_check": {"unattributed_share": t.unattributed_share(),
                            "allowed": allowed, "ok": self_time_ok},
        "probes_ok": {"cli": cli_ok, "selftest": selftest_ok},
        "plain_ops": plain.records,
        "traced_ops": traced.records,
    }
    correct = failed == 0 and cli_ok and selftest_ok and self_time_ok
    _print(info, correct, len(verdicts), failed, metrics)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time, exit (used for set-up samples)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "comodular" / "__init__.py").is_file():
        sys.stderr.write("perfbench: no comodular sources under %s\n" % (ROOT / "src"))
        return 2
    # One CPU for this process and every child it starts, so the speed
    # kernel measures the CPU the ops (and the CLI children) run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(ROOT / "src"))
    wl = importlib.import_module("wl_" + args.workload)
    caches_empty = _module_caches_empty()
    state = wl.setup(args.seed)
    try:
        setup_s = harness.seconds_since_process_start() * harness.speed_factor()
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        env = harness.environment(ROOT, args.workload, args.seed, args.trace, caches_empty)
        if args.trace:
            traced_run(args, wl, state, env)
        else:
            measured_run(args, wl, state, setup_s, env)
    finally:
        wl.teardown(state)
    return 0


if __name__ == "__main__":
    sys.exit(main())
