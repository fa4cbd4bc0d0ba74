"""Seeded grids that never repeat within a process.

The package memoizes grid points and comonotonic pairs per (axis, n) for
the life of the process, so a repeated grid would be measured warm.  Each
op therefore draws a fresh axis: the anchors it needs plus interior points
p/q (2 <= q <= 24) strictly inside the box, redrawn until (axis, n) is new
to this process.
"""

from __future__ import annotations

from fractions import Fraction

from comodular.axioms import Grid
from comodular.setfunc import Interval

WIDE = Interval(-1, 1)
UNIT = Interval(0, 1)
NEGATIVE = Interval(-1, 0)

# (axis, n) pairs drawn so far; like the package's caches, process-wide.
USED: set = set()


def seeded_grid(rng, box, k, n, anchors):
    while True:
        points = set(Fraction(a) for a in anchors)
        while len(points) < k:
            q = rng.randint(2, 24)
            p = rng.randint(int(box.lo * q) + 1, int(box.hi * q) - 1)
            points.add(Fraction(p, q))
        axis = tuple(sorted(points))
        if (axis, n) not in USED:
            USED.add((axis, n))
            return Grid(axis, box)
