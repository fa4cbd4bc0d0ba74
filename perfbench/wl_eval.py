"""eval: integrals evaluated in a library loop.

One op is one call of an integral on a seeded table and a seeded rational
point with tied coordinates.  Each round makes seven calls at each n in
NS, so every n gets the same number of calls; n <= 8 runs the seven kinds
once each, n >= 12 drops sugeno_normal_form (2^n terms by design) for a
second choquet call.  p50 therefore sits among the n = 8 calls and p90
among the n = 16 calls, where hashing the whole table dominates.

Tables at n <= 8 come from the package's seeded generator, from pools of
POOL tables per role and n (more tables than the role cache's 256 entries
in all).  Each round takes a fresh table per role and n, which serves all
that round's calls of its role, so the first role check of each misses
the cache and every round has the same mix of hits and misses.
Tables at n >= 12 are built here, since the generator stops at n = 8: one
per role and n, reused by every call, as a library loop over a few large
capacities would; only the first call on each pays for role validation.
"""

from __future__ import annotations

import random
from fractions import Fraction

import reference as ref
from comodular import generate, integrals
from comodular.setfunc import Interval, SetFunction
from harness import Op

NAME = "eval"
NS = (2, 4, 8, 12, 16)
SMALL_KINDS = ("choquet", "choquet_via_dual", "symmetric_choquet", "sugeno",
               "sugeno_normal_form", "shilkret", "quasi_choquet")
LARGE_KINDS = ("choquet", "choquet_via_dual", "symmetric_choquet", "sugeno",
               "choquet", "shilkret", "quasi_choquet")
ROLE = {
    "choquet": "signed",
    "choquet_via_dual": "signed",
    "symmetric_choquet": "signed",
    "quasi_choquet": "signed",
    "sugeno": "ivalued",
    "sugeno_normal_form": "ivalued",
    "shilkret": "capacity",
}
REFERENCE = {
    "choquet": ref.choquet,
    "choquet_via_dual": ref.choquet,
    "symmetric_choquet": ref.symmetric_choquet,
    "sugeno": ref.sugeno,
    "sugeno_normal_form": ref.sugeno,
    "shilkret": ref.shilkret,
}
POOL = 64
TRANSFORMS = 8
TRACE_ROUNDS = 6
UNIT = Interval(0, 1)
ZERO = Fraction(0)


def kinds_for(n):
    return SMALL_KINDS if n <= 8 else LARGE_KINDS


def call(kind, table, phi, x):
    """The timed call; the module attribute is looked up on every call."""
    if kind == "sugeno":
        return integrals.sugeno(table, x, UNIT)
    if kind == "sugeno_normal_form":
        return integrals.sugeno_normal_form(table, x, UNIT)
    if kind == "quasi_choquet":
        return integrals.quasi_choquet(table, phi, x)
    return getattr(integrals, kind)(table, x)


def reference_value(kind, values, breakpoints, x):
    if kind == "quasi_choquet":
        return ref.quasi_choquet(values, breakpoints, x)
    return REFERENCE[kind](values, x)


# --- tables ------------------------------------------------------------------


def signed_values(rng, n):
    return [ZERO] + [Fraction(rng.randint(-16, 16), 8) for _ in range(1, 1 << n)]


def monotone_values(rng, n):
    """v(S) = sum of weights on S + max of bumps on S + a step in |S|:
    monotone, zero on the empty set, positive on the full set, not additive."""
    weight = [Fraction(rng.randint(1, 8), 8) for _ in range(n)]
    bump = [Fraction(rng.randint(0, 8), 8) for _ in range(n)]
    step = [ZERO]
    for _ in range(n):
        step.append(step[-1] + Fraction(rng.randint(0, 4), 8))
    size = 1 << n
    total, top, count, values = [ZERO] * size, [ZERO] * size, [0] * size, [ZERO] * size
    for mask in range(1, size):
        low = mask & -mask
        i = low.bit_length() - 1
        rest = mask ^ low
        total[mask] = total[rest] + weight[i]
        top[mask] = max(top[rest], bump[i])
        count[mask] = count[rest] + 1
        values[mask] = total[mask] + top[mask] + step[count[mask]]
    return values


def large_tables(rng, n):
    """One table per role, built here because the generator caps n at 8."""
    signed = SetFunction(n, signed_values(rng, n))
    mono = monotone_values(rng, n)
    capacity = SetFunction(n, mono)
    peak = mono[-1]
    ivalued = SetFunction(n, [v / peak for v in mono])
    return {"signed": [signed], "capacity": [capacity], "ivalued": [ivalued]}


def small_tables(seed, n, count=POOL):
    base = seed * 1000 + n * 100_000
    return {
        "signed": [generate.signed_capacity(base + t, n) for t in range(count)],
        "capacity": [generate.capacity(base + t, n) for t in range(count)],
        "ivalued": [generate.interval_capacity(base + t, n, UNIT) for t in range(count)],
    }


class State:
    def __init__(self, seed, variant):
        self.seed = seed
        self.variant = variant
        self.tracer = None
        self.tables = {}
        rng = random.Random("eval-tables:%d:%s" % (seed, variant))
        for n in NS:
            self.tables[n] = small_tables(seed, n) if n <= 8 else large_tables(rng, n)
        self.transforms = [generate.monotone_transform(seed * 100 + t) for t in range(TRANSFORMS)]
        self.schedule = [(n, kinds_for(n)[j]) for j in range(7) for n in NS]


def setup(seed, variant="main"):
    state = State(seed, variant)
    # Warm-up: every kind once at n = 2 on throwaway tables.
    throwaway = small_tables(seed + 7919, 2, count=1)
    point = (Fraction(1, 2), Fraction(1, 4))
    for kind in SMALL_KINDS:
        call(kind, throwaway[ROLE[kind]][0], state.transforms[0], point)
    return state


def teardown(state):
    pass


def round_size(state):
    return len(state.schedule)


def make_op(state, stream, i):
    rnd, pos = divmod(i, len(state.schedule))
    n, kind = state.schedule[pos]
    role = ROLE[kind]
    pool = state.tables[n][role]
    table_id = rnd % len(pool)
    table = pool[table_id]
    rng = random.Random("eval:%d:%s:%s:%d" % (state.seed, state.variant, stream, i))
    lo = -8 if role == "signed" and kind != "quasi_choquet" else 0
    coords = [Fraction(rng.randint(lo, 8), 8) for _ in range(n)]
    if rng.random() < 0.5:
        a, b = rng.sample(range(n), 2)
        coords[b] = coords[a]  # tied coordinates in half the points at least
    x = tuple(coords)
    phi = state.transforms[rng.randrange(TRANSFORMS)] if kind == "quasi_choquet" else None
    breakpoints = phi.breakpoints if phi is not None else None
    cell = "%s/n%d" % (kind, n)

    def run():
        return call(kind, table, phi, x)

    def check(out):
        return isinstance(out, Fraction) and out == reference_value(kind, table.values, breakpoints, x)

    def canon(out):
        return "%s/t%d %s" % (cell, table_id, out)

    return Op(run=run, check=check, canon=canon, cell=cell)
