"""Points of I^n and the order machinery around them.

Conventions, fixed once here and used by every integral:

  * a sorting permutation sigma lists coordinate indices (1-based) so that
    x_{sigma(1)} <= ... <= x_{sigma(n)}, ties broken by ascending index;
  * the split position p counts the strictly negative coordinates, i.e.
    x_{sigma(p)} < 0 <= x_{sigma(p+1)} with the sentinels
    x_{sigma(0)} = -inf and x_{sigma(n+1)} = +inf;
  * the upper chain at position i is {sigma(i), ..., sigma(n)} (empty for
    i = n+1), the lower chain is {sigma(1), ..., sigma(i)} (empty for i = 0).

Two points are comonotonic when no pair of coordinates is ordered opposite
ways, equivalently when some single permutation sorts both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .errors import (
    BadThresholdSign,
    ComodularError,
    DimensionMismatch,
    NegativeRadius,
    OutOfBox,
)
from .scalars import Scalar, as_fraction, as_fraction_tuple
from .setfunc import Interval, SubsetLike, mask_from_subset

ZERO = Fraction(0)


@dataclass(frozen=True)
class Point:
    """An n-tuple of exact scalars, optionally confined to an ambient box."""

    coords: tuple[Fraction, ...]
    box: Optional[Interval] = None

    def __post_init__(self):
        coords = as_fraction_tuple(self.coords)
        if not coords:
            raise ComodularError("a point needs at least one coordinate")
        object.__setattr__(self, "coords", coords)
        if self.box is not None:
            for i, c in enumerate(coords, start=1):
                if not self.box.contains(c):
                    raise OutOfBox("coordinate %d = %s outside %s" % (i, c, self.box))

    @property
    def n(self) -> int:
        return len(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __len__(self):
        return len(self.coords)

    def __getitem__(self, i):
        return self.coords[i]


PointLike = Union[Point, Sequence[Scalar]]


def as_point(x: PointLike, box: Optional[Interval] = None) -> Point:
    if isinstance(x, Point):
        if box is not None and x.box != box:
            return Point(x.coords, box)
        return x
    return Point(as_fraction_tuple(x), box)


def _pair(x: PointLike, y: PointLike) -> tuple[Point, Point]:
    px, py = as_point(x), as_point(y)
    if px.n != py.n:
        raise DimensionMismatch("points have lengths %d and %d" % (px.n, py.n))
    if px.box != py.box:
        raise DimensionMismatch("points live in different boxes: %s vs %s" % (px.box, py.box))
    return px, py


@dataclass(frozen=True)
class SortedView:
    """A sorting permutation (1-based labels) plus the negative/positive split.

    The n + 1 upper chain masks are built once, in O(n), when the view is
    made, so each chain mask below is an O(1) lookup.
    """

    perm: tuple[int, ...]
    split: int
    _upper: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # _upper[i - 1] is the mask of {sigma(i), ..., sigma(n)}, i = 1..n+1.
        upper = [0]
        for label in reversed(self.perm):
            upper.append(upper[-1] | 1 << (label - 1))
        object.__setattr__(self, "_upper", tuple(reversed(upper)))

    @property
    def n(self) -> int:
        return len(self.perm)

    def upper_mask(self, i: int) -> int:
        """Bitmask of {sigma(i), ..., sigma(n)}; empty when i = n + 1."""
        if not 1 <= i <= self.n + 1:
            raise ComodularError("upper chain index %d outside 1..%d" % (i, self.n + 1))
        return self._upper[i - 1]

    def lower_mask(self, i: int) -> int:
        """Bitmask of {sigma(1), ..., sigma(i)}; empty when i = 0."""
        if not 0 <= i <= self.n:
            raise ComodularError("lower chain index %d outside 0..%d" % (i, self.n))
        return self._upper[0] ^ self._upper[i]


def sorted_view(x: PointLike) -> SortedView:
    """Stable sorting permutation of x and the count of negative coordinates."""
    p = as_point(x)
    order = sorted(range(p.n), key=lambda i: (p.coords[i], i))
    split = sum(1 for c in p.coords if c < 0)
    return SortedView(tuple(i + 1 for i in order), split)


def is_comonotonic(x: PointLike, y: PointLike) -> bool:
    """Pairwise product test: no two coordinates ordered opposite ways."""
    px, py = _pair(x, y)
    a, b = px.coords, py.coords
    n = px.n
    for i in range(n):
        for j in range(i + 1, n):
            if (a[i] - a[j]) * (b[i] - b[j]) < 0:
                return False
    return True


# Tuple-level kernels: bare Fraction tuples in and out, no coercion or box
# checks, for the auditor and the forms.  The Point-level functions after
# them add the coercion and validation a public caller needs.


def meet(x: Sequence[Fraction], y: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return tuple(map(min, x, y))


def join(x: Sequence[Fraction], y: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return tuple(map(max, x, y))


def ray(n: int, mask: int, on: Fraction, off: Fraction = ZERO) -> tuple[Fraction, ...]:
    """on at the elements of mask, off elsewhere; a box corner is ray(n, S, hi, lo)."""
    return tuple(on if mask & (1 << i) else off for i in range(n))


def cut(x: Sequence[Fraction], c: Fraction, mode: str) -> tuple[tuple, tuple]:
    """(x /\\ c, x - x /\\ c) for mode "min", (x \\/ c, x - x \\/ c) otherwise."""
    if mode == "min":
        first = tuple(min(a, c) for a in x)
    else:
        first = tuple(max(a, c) for a in x)
    return first, tuple(a - b for a, b in zip(x, first))


def zero_low(x: Sequence[Fraction], c: Fraction) -> tuple[Fraction, ...]:
    """[x]_c: every coordinate <= c set to 0."""
    return tuple(ZERO if a <= c else a for a in x)


def zero_high(x: Sequence[Fraction], c: Fraction) -> tuple[Fraction, ...]:
    """[x]^c: every coordinate >= c set to 0."""
    return tuple(ZERO if a >= c else a for a in x)


def clamp(x: Sequence[Fraction], r: Fraction) -> tuple[Fraction, ...]:
    """Componentwise median of (-r, x_i, r)."""
    return tuple(min(max(a, -r), r) for a in x)


def meet_join(x: PointLike, y: PointLike) -> tuple[Point, Point]:
    """Componentwise (min, max)."""
    px, py = _pair(x, y)
    return Point(meet(px.coords, py.coords), px.box), Point(join(px.coords, py.coords), px.box)


def split_parts(x: PointLike) -> tuple[Point, Point]:
    """Positive and negative parts: x = pos - neg with disjoint supports.

    The parts carry no box: they live in the positive/negative halves of
    the ambient space, which need not be inside the box of x.
    """
    p = as_point(x)
    zero = Fraction(0)
    pos = tuple(max(c, zero) for c in p.coords)
    neg = tuple(max(-c, zero) for c in p.coords)
    return Point(pos), Point(neg)


def horizontal_split(x: PointLike, c: Scalar, mode: str) -> tuple[Point, Point]:
    """Cut x at level c: (x with c, remainder), the two summing to x.

    mode "min" returns (x min c, x - x min c); mode "max" the max version.
    Both parts keep the box of x, so a remainder that escapes the box is an
    error rather than a silent clamp.
    """
    p = as_point(x)
    level = as_fraction(c)
    if mode not in ("min", "max"):
        raise ComodularError("mode must be 'min' or 'max', got %r" % (mode,))
    first, rest = cut(p.coords, level, mode)
    return Point(first, p.box), Point(rest, p.box)


def bracket(x: PointLike, c: Scalar, mode: str) -> Point:
    """Zero out coordinates on one side of a threshold.

    mode "low" needs c >= 0 and zeroes every x_i <= c; mode "high" needs
    c <= 0 and zeroes every x_i >= c.
    """
    p = as_point(x)
    level = as_fraction(c)
    if mode == "low":
        if level < 0:
            raise BadThresholdSign("mode 'low' needs c >= 0, got %s" % level)
        coords = zero_low(p.coords, level)
    elif mode == "high":
        if level > 0:
            raise BadThresholdSign("mode 'high' needs c <= 0, got %s" % level)
        coords = zero_high(p.coords, level)
    else:
        raise ComodularError("mode must be 'low' or 'high', got %r" % (mode,))
    return Point(coords, p.box)


def median_clamp(x: PointLike, c: Scalar) -> Point:
    """Componentwise median of (-c, x_i, c), i.e. clamp into [-c, c]."""
    p = as_point(x)
    radius = as_fraction(c)
    if radius < 0:
        raise NegativeRadius("clamp radius must be >= 0, got %s" % radius)
    return Point(clamp(p.coords, radius), p.box)


def indicator(
    n: int,
    subset: SubsetLike,
    kind: str = "unit",
    interval: Optional[Interval] = None,
    box: Optional[Interval] = None,
) -> Point:
    """Indicator-style points: 1_S, -1_S, or the corner e_S of a box.

    kind "unit" puts 1 on S and 0 elsewhere, "signed" puts -1 on S, and
    "endpoints" puts interval.hi on S and interval.lo elsewhere (the
    resulting point carries that interval as its box).
    """
    mask = mask_from_subset(subset, n)
    if kind == "unit":
        on, off = Fraction(1), Fraction(0)
    elif kind == "signed":
        on, off = Fraction(-1), Fraction(0)
    elif kind == "endpoints":
        if interval is None:
            raise ComodularError("kind 'endpoints' needs an interval")
        on, off = interval.hi, interval.lo
        if box is None:
            box = interval
    else:
        raise ComodularError("kind must be 'unit', 'signed' or 'endpoints', got %r" % (kind,))
    return Point(ray(n, mask, on, off), box)
