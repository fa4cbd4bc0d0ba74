"""Reference evaluators the benchmark checks the package against.

Nothing here imports comodular.  Set functions are plain lists indexed by
bitmask (bit i-1 set means element i is in the set), points are tuples of
Fractions, and transforms are lists of (x, y) breakpoints.  The formulas
are written from their definitions, not copied from the package: the
Choquet integral uses the increment form sum_i (x_(i) - x_(i-1)) v(U_i)
rather than the package's telescoping differences of v.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations_with_replacement, product

ZERO = Fraction(0)


def ascending(x):
    """Indices sorting x nondecreasingly, ties by index."""
    return sorted(range(len(x)), key=lambda i: (x[i], i))


def choquet(values, x):
    upper = (1 << len(x)) - 1
    prev = ZERO
    total = ZERO
    for i in ascending(x):
        total += (x[i] - prev) * values[upper]
        prev = x[i]
        upper &= ~(1 << i)
    return total


def symmetric_choquet(values, x):
    pos = tuple(max(c, ZERO) for c in x)
    neg = tuple(max(-c, ZERO) for c in x)
    return choquet(values, pos) - choquet(values, neg)


def sugeno(values, x):
    upper = (1 << len(x)) - 1
    best = None
    for i in ascending(x):
        term = min(x[i], values[upper])
        best = term if best is None else max(best, term)
        upper &= ~(1 << i)
    return best


def shilkret(values, x):
    upper = (1 << len(x)) - 1
    best = ZERO
    for i in ascending(x):
        best = max(best, x[i] * values[upper])
        upper &= ~(1 << i)
    return best


def phi(breakpoints, t):
    """Piecewise-linear interpolation through sorted (x, y) breakpoints."""
    for (x0, y0), (x1, y1) in zip(breakpoints, breakpoints[1:]):
        if x0 <= t <= x1:
            return y0 + (t - x0) * (y1 - y0) / (x1 - x0)
    raise ValueError("%s outside the breakpoint span" % t)


def quasi_choquet(values, breakpoints, x):
    return choquet(values, tuple(phi(breakpoints, c) for c in x))


def quasi_sugeno(values, breakpoints, x):
    return sugeno(values, tuple(phi(breakpoints, c) for c in x))


def mean(x):
    return sum(x, ZERO) / len(x)


def max_min_form(mu, phi_table, x):
    """max over S of mu(S) /\\ min_{i in S} phi(x_i); the empty min is mu(S)."""
    best = None
    for mask in range(1 << len(x)):
        term = mu[mask]
        for i, c in enumerate(x):
            if mask >> i & 1:
                term = min(term, phi_table[c])
        best = term if best is None else max(best, term)
    return best


def separation(f_zero, g, h, x):
    """Orthant telescope: lower chains of h below 0, upper chains of g above."""
    order = ascending(x)
    n = len(x)
    total = f_zero
    lower = 0
    for i in order:
        if x[i] < 0:
            total += h[(lower | 1 << i, x[i])] - h[(lower, x[i])]
        lower |= 1 << i
    upper = (1 << n) - 1
    for i in order:
        if x[i] >= 0:
            total += g[(upper, x[i])] - g[(upper & ~(1 << i), x[i])]
        upper &= ~(1 << i)
    return total


def normal_form(mode, lo, hi, traces, x):
    """Maxitive: max_S trace_S(min x on S); minitive: min_S trace_S(max x on S)."""
    best = None
    for mask in range(1 << len(x)):
        members = [c for i, c in enumerate(x) if mask >> i & 1]
        if mode == "maxitive":
            term = traces[(mask, min(members) if members else hi)]
            best = term if best is None else max(best, term)
        else:
            term = traces[(mask, max(members) if members else lo)]
            best = term if best is None else min(best, term)
    return best


def generated_table(role, seed, n):
    """The table the package's seeded generator documents for signed and
    capacity roles: randint draws from random.Random(seed), denominator 8,
    magnitude 2; capacities rise by a nonnegative step over their largest
    immediate subset."""
    rng = random.Random(seed)
    if role == "signed":
        return [ZERO] + [Fraction(rng.randint(-16, 16), 8) for _ in range(1, 1 << n)]
    values = [ZERO] * (1 << n)
    for mask in range(1, 1 << n):
        below = max(values[mask & ~(1 << i)] for i in range(n) if mask >> i & 1)
        values[mask] = below + Fraction(rng.randint(0, 8), 8)
    return values


def elements(mask):
    """Element labels (1-based) of a bitmask, ascending."""
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]


def comonotonic_pair_count(axis, n):
    """Unordered pairs {x, y} of grid points, x = y included, that no two
    coordinates order opposite ways."""
    points = list(product(axis, repeat=n))
    return sum(
        1
        for x, y in combinations_with_replacement(points, 2)
        if all((x[i] - x[j]) * (y[i] - y[j]) >= 0 for i in range(n) for j in range(i + 1, n))
    )
