"""audit: black boxes audited on grids.

One op is one ``audit()`` battery on its own seeded grid; no grid repeats
within a process, as with one CLI audit per process.  The black box is
memoized per op, so time goes to enumeration and the auditor's own
hashing rather than to the integral.

CELLS fixes (family, n, axis length) for every op of a round, so any seed
gives a comparable run; axis lengths are capped per n (7 at n = 2, 5 at
n = 3, 3 at n = 4), since a 7-point axis at n = 4 costs tens of seconds.
A round has an odd number of cells, so the median op falls inside one
cell's cluster of latencies rather than in the gap between two.

Passing families are theorems on any grid.  Each failing control is built
so that a violating instance lies on every grid it can draw (the anchors
below and the seed bumps in ``_control_table``), and its reported witness
is replayed through ``replay_witness``.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from comodular import axioms, generate, integrals
from grids import UNIT, WIDE, seeded_grid
from harness import Op

NAME = "audit"
TRACE_ROUNDS = 4
ZERO = Fraction(0)

# family -> (box, anchors, {axiom: expected verdict}, classification expected)
FAMILIES = {
    "choquet": (WIDE, (0,), dict.fromkeys(
        ("comono_modular", "comono_additive", "sign_homog_rays", "dual_shift",
         "horiz_min_additive"), "pass"),
        "consistent with a signed Choquet integral on this grid"),
    "sugeno": (UNIT, (), dict.fromkeys(
        ("comono_maxitive", "comono_minitive", "idempotent", "nondecreasing",
         "weak_max_homog"), "pass"),
        "consistent with a Sugeno integral on this grid"),
    "mean": (UNIT, (), {"comono_maxitive": "fail", "comono_modular": "pass",
                        "idempotent": "pass"}, None),
    "shilkret": (UNIT, (0, 1), {"comono_maxitive": "pass", "comono_minitive": "fail",
                                "comono_modular": "fail"}, None),
    "clipped": (WIDE, (0,), {"comono_modular": "pass", "sign_homog_rays": "pass",
                             "dual_shift": "fail"}, None),
    "modular": (WIDE, (0, 1), {"modular": "fail"}, None),
    "maxitive": (UNIT, (0, 1), {"maxitive": "fail"}, None),
}
CELLS = (
    ("choquet", 2, 7), ("choquet", 3, 4), ("choquet", 3, 5), ("choquet", 4, 3),
    ("sugeno", 2, 7), ("sugeno", 3, 4), ("sugeno", 3, 5), ("sugeno", 4, 3),
    ("mean", 2, 6), ("mean", 3, 4),
    ("shilkret", 2, 6), ("shilkret", 3, 4), ("shilkret", 4, 3),
    ("clipped", 2, 6), ("clipped", 3, 4),
    ("modular", 2, 5), ("modular", 3, 3),
    ("maxitive", 2, 5), ("maxitive", 3, 3),
)


def _full(n):
    return (1 << n) - 1


def _control_table(family, seed, n):
    """A generated table for which the family's failing axiom must fail on
    every grid with the family's anchors; the seed moves on until one is."""
    while True:
        if family in ("choquet", "clipped", "modular"):
            table = generate.signed_capacity(seed, n)
        else:
            table = generate.interval_capacity(seed, n, UNIT)
        v = table.values
        if family == "clipped":
            ok = any(v[_full(n) ^ s] != v[_full(n)] for s in range(1 << n))
        elif family == "modular":
            ok = v[3] != v[1] + v[2]
        elif family == "maxitive":
            ok = v[3] != max(v[1], v[2])
        elif family == "shilkret":
            ok = any(0 < x < 1 for x in v)
        else:
            ok = True
        if ok:
            return table
        seed += 1


def _mean(coords):
    return sum(coords, ZERO) / len(coords)


def black_box(family, table):
    if family in ("choquet", "modular"):
        return lambda c: integrals.choquet(table, c)
    if family == "clipped":
        return lambda c: integrals.choquet(table, tuple(max(ZERO, a) for a in c))
    if family in ("sugeno", "maxitive"):
        return lambda c: integrals.sugeno(table, c, UNIT)
    if family == "shilkret":
        return lambda c: integrals.shilkret(table, c)
    return _mean


class State:
    def __init__(self, seed, variant):
        self.seed = seed
        self.variant = variant
        self.tracer = None


def setup(seed, variant="main"):
    state = State(seed, variant)
    # Warm-up: one small battery per family on grids no op will draw.
    rng = random.Random("audit-warm:%d" % seed)
    for family, (box, anchors, expected, _) in FAMILIES.items():
        grid = seeded_grid(rng, box, max(3, len(anchors) + 1), 2, anchors)
        fn = black_box(family, _control_table(family, seed, 2))
        axioms.audit(fn, 2, grid, list(expected))
    return state


def teardown(state):
    pass


def round_size(state):
    return len(CELLS)


def make_op(state, stream, i):
    family, n, k = CELLS[i % len(CELLS)]
    box, anchors, expected, label = FAMILIES[family]
    rng = random.Random("audit:%d:%s:%s:%d" % (state.seed, state.variant, stream, i))
    table = _control_table(family, rng.randrange(1 << 30), n)
    grid = seeded_grid(rng, box, k, n, anchors)
    raw = black_box(family, table)
    battery = list(expected)
    memo = {}

    def box_fn(coords):
        got = memo.get(coords)
        if got is None:
            got = memo[coords] = raw(coords)
        return got

    tracer = state.tracer
    if tracer is not None:
        box_fn = tracer.span("axioms.fn", box_fn)

    def run():
        result = axioms.audit(box_fn, n, grid, battery)
        if tracer is not None:
            tracer.counts["axioms.fn.distinct"] += len(memo)
        return result

    def check(result):
        if [r.axiom for r in result.reports] != battery:
            return False
        for report in result.reports:
            if report.verdict != expected[report.axiom] or report.tested < 1:
                return False
            if report.passed:
                if report.witness is not None:
                    return False
            elif axioms.replay_witness(report.axiom, raw, report.witness, grid, n):
                return False
        return label is None or label in result.summary["classifications"]

    def canon(result):
        return "%s %s %s" % (family, n, json.dumps(result.to_json(), sort_keys=True))

    def instances(result):
        return sum(r.tested + r.skipped for r in result.reports)

    return Op(run=run, check=check, canon=canon, cell="%s/n%d/k%d" % (family, n, k),
              grid_points=k ** n, instances=instances)
