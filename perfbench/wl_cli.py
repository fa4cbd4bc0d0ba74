"""cli: the command line driven one process at a time.

One op is one ``python -m comodular.cli <verb>`` child, timed from spawn
to exit; this is the only workload that pays interpreter start, the whole
package import, argparse and JSON.  Each round runs eval, gen, audit and
fit twice each: once on a passing input and once on a second kind (Sugeno
evaluation, a capacity table, a failing mean audit, a refused fit), plus a
Shilkret evaluation, with n <= 3 and axes of at most four points.  The capacity files are written
during set-up.

The package need not be installed: children run ``sys.executable`` with
``src`` on PYTHONPATH.  Each child's peak RSS comes from ``os.wait4``.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import threading
from fractions import Fraction
from itertools import combinations_with_replacement, product
from pathlib import Path

import reference as ref
from comodular import generate
from comodular.setfunc import Interval, dump_set_function
from harness import Op

NAME = "cli"
TRACE_ROUNDS = 3
FILES = 4
CHILD_TIMEOUT_S = 60
UNIT = Interval(0, 1)
ROOT = Path(__file__).resolve().parent.parent
# (verb, variant) per position in a round; an odd count puts the median op
# inside one position's cluster of latencies rather than between two.
ROUND = (("eval", "choquet"), ("gen", "signed"), ("audit", "pass"), ("fit", "fitted"),
         ("eval", "sugeno"), ("gen", "capacity"), ("audit", "mean"), ("fit", "refused"),
         ("eval", "shilkret"))


class Result:
    __slots__ = ("code", "stdout", "stderr")

    def __init__(self, code, stdout, stderr):
        self.code, self.stdout, self.stderr = code, stdout, stderr


def _self_dual(v, n):
    top = (1 << n) - 1
    return all(v[s] == v[top] - v[top ^ s] for s in range(1 << n))


class State:
    def __init__(self, seed, variant):
        self.seed = seed
        self.variant = variant
        self.tracer = None
        self.work = ROOT / "perfbench" / "_work" / ("cli-%d-%s" % (os.getpid(), variant))
        self.work.mkdir(parents=True, exist_ok=True)
        path = str(ROOT / "src")
        if os.environ.get("PYTHONPATH"):
            path += os.pathsep + os.environ["PYTHONPATH"]
        self.env = dict(os.environ, PYTHONPATH=path)
        self.peak_rss_kb = 0
        self.files = {}
        for n in (2, 3):
            for role in ("signed", "ivalued"):
                entries = []
                seed_j = seed * 1000 + n * 100
                while len(entries) < FILES:
                    seed_j += 1
                    if role == "signed":
                        table = generate.signed_capacity(seed_j, n)
                        if _self_dual(table.values, n):
                            continue  # the refused fit needs an asymmetric table
                        interval = None
                    else:
                        table = generate.interval_capacity(seed_j, n, UNIT)
                        interval = UNIT
                    path = self.work / ("%s-n%d-%d.json" % (role, n, len(entries)))
                    dump_set_function(table, str(path), role, interval)
                    entries.append((str(path), table.values))
                self.files[(role, n)] = entries

    def spawn(self, argv):
        """Run one CLI child to exit; its peak RSS feeds ``peak_rss_kb``."""
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
            proc = subprocess.Popen([sys.executable, "-m", "comodular.cli", *argv],
                                    stdout=out, stderr=err, env=self.env, cwd=str(self.work))
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
            out.seek(0)
            err.seek(0)
            return Result(proc.returncode, out.read(), err.read())


def setup(seed, variant="main"):
    state = State(seed, variant)
    # Warm-up: one child per position of a round, which also writes the
    # bytecode caches a fresh checkout lacks.
    for i in range(len(ROUND)):
        op = make_op(state, "warm-up", i)
        op.run()
    return state


def teardown(state):
    shutil.rmtree(state.work, ignore_errors=True)


def round_size(state):
    return len(ROUND)


def _fmt(x):
    return "[%s]" % ",".join(str(c) for c in x)


def _axis(lo, hi, k):
    """The CLI's k-point axis on [lo, hi]; 0 and the units are among its points here."""
    return [Fraction(lo) + Fraction(i, k - 1) * (hi - lo) for i in range(k)]


def _table_doc(values, n):
    return [{"set": ref.elements(m), "value": str(values[m])} for m in range(1 << n)]


def _summary(box, k, labels):
    return {"box": [str(b) for b in box], "axis_size": k, "vanishes_at_origin": True,
            "f_at_origin": "0", "classifications": labels}


def _report(axiom, tested, witness=None):
    return {"axiom": axiom, "verdict": "pass" if witness is None else "fail",
            "witness": witness, "tested": tested, "skipped": 0}


def _mean_witness(axis, n):
    """Smallest comonotonic (x, y), x <= y, at which the mean is not maxitive."""
    best = None
    for x, y in combinations_with_replacement(product(axis, repeat=n), 2):
        if any((x[i] - x[j]) * (y[i] - y[j]) < 0 for i in range(n) for j in range(i + 1, n)):
            continue
        lhs = ref.mean([max(a, b) for a, b in zip(x, y)])
        rhs = max(ref.mean(x), ref.mean(y))
        if lhs != rhs and (best is None or x + y < best[0] + best[1]):
            best = (x, y, lhs, rhs)
    x, y, lhs, rhs = best
    return {"operands": {"x": [str(c) for c in x], "y": [str(c) for c in y]},
            "lhs": str(lhs), "rhs": str(rhs), "relation": "eq"}


def _homogeneity_witness(values, axis, n):
    """Smallest (x, S) with choquet(x 1_S) != x v(S)."""
    for x in axis:
        for mask in range(1 << n):
            ray = tuple(x if mask >> i & 1 else Fraction(0) for i in range(n))
            lhs, rhs = ref.choquet(values, ray), x * values[mask]
            if lhs != rhs:
                return {"operands": {"x": str(x), "subset": ref.elements(mask)},
                        "lhs": str(lhs), "rhs": str(rhs)}
    raise ValueError("table is self-dual")


def plan(state, stream, i):
    """(verb, argv, oracle) of op i.  The oracle wants the exit code and the
    exact document the reference predicts for stdout."""
    rnd, pos = divmod(i, len(ROUND))
    verb, variant = ROUND[pos]
    n = 2 + (rnd + pos) % 2
    rng = random.Random("cli:%d:%s:%s:%d" % (state.seed, state.variant, stream, i))
    if verb == "eval":
        role = "signed" if variant == "choquet" else "ivalued"
        path, values = rng.choice(state.files[(role, n)])
        lo = -8 if role == "signed" else 0
        x = tuple(Fraction(rng.randint(lo, 8), 8) for _ in range(n))
        expect = {"choquet": ref.choquet, "sugeno": ref.sugeno,
                  "shilkret": ref.shilkret}[variant](values, x)
        argv = ["eval", "--integral", variant, "--capacity", path, "--x", _fmt(x)]
        return verb, argv, lambda r: r.code == 0 and r.stdout == b"%s\n" % str(expect).encode()
    if verb == "gen":
        seed = rng.randrange(1 << 20)
        argv = ["gen", "--role", variant, "--seed", str(seed), "--n", str(n)]
        doc = {"n": n, "values": _table_doc(ref.generated_table(variant, seed, n), n),
               "role": variant}
        return verb, argv, lambda r: r.code == 0 and json.loads(r.stdout) == doc
    if verb == "audit":
        if variant == "pass":
            path, _ = rng.choice(state.files[("signed", n)])
            axioms = ("comono_modular", "sign_homog_rays", "dual_shift")
            argv = ["audit", "--fn", "choquet", "--capacity", path, "--box", "[-1,1]",
                    "--k", "3", "--axioms", ",".join(axioms), "--format", "json"]
            counts = (ref.comonotonic_pair_count(_axis(-1, 1, 3), n), 3 << n, 1 << n)
            doc = {"verb": "audit", "fn": "choquet", "mode": "rational",
                   "reports": [_report(a, c) for a, c in zip(axioms, counts)],
                   "summary": _summary((-1, 1), 3, [
                       "consistent with a signed Choquet integral on this grid"])}
            return verb, argv, lambda r: r.code == 0 and json.loads(r.stdout) == doc
        k = rng.choice((3, 4))
        axis = _axis(0, 1, k)
        argv = ["audit", "--fn", "mean", "--n", str(n), "--box", "[0,1]", "--k", str(k),
                "--axioms", "comono_maxitive,comono_modular", "--format", "json"]
        pairs = ref.comonotonic_pair_count(axis, n)
        doc = {"verb": "audit", "fn": "mean", "mode": "rational",
               "reports": [_report("comono_maxitive", pairs, _mean_witness(axis, n)),
                           _report("comono_modular", pairs)],
               "summary": _summary((0, 1), k, [])}
        return verb, argv, lambda r: r.code == 1 and json.loads(r.stdout) == doc
    path, values = rng.choice(state.files[("signed", n)])
    if variant == "fitted":
        argv = ["fit", "--fit", "signed-choquet", "--fn", "choquet", "--capacity", path,
                "--box", "[-1,1]", "--k", "3", "--format", "json"]
        doc = {"verb": "fit", "fit": "signed-choquet", "mode": "rational", "fitted": True,
               "capacity": _table_doc(values, n)}
        return verb, argv, lambda r: r.code == 0 and json.loads(r.stdout) == doc
    argv = ["fit", "--fit", "symmetric", "--fn", "choquet", "--capacity", path,
            "--box", "[-1,1]", "--k", "3", "--format", "json"]
    doc = {"verb": "fit", "fit": "symmetric", "mode": "rational", "fitted": False,
           "condition": "full_homog_rays",
           "witness": _homogeneity_witness(values, _axis(-1, 1, 3), n), "detail": ""}
    return verb, argv, lambda r: r.code == 1 and json.loads(r.stdout) == doc


def make_op(state, stream, i):
    verb, argv, oracle = plan(state, stream, i)
    return Op(run=lambda: state.spawn(argv), check=oracle,
              canon=lambda r: "%s %d %s" % (verb, r.code, r.stdout.decode()),
              cell=verb)
