"""Discrete integral evaluators.

Let sigma sort x nondecreasingly and write U(i) for the upper chain
{sigma(i), ..., sigma(n)} and L(i) for the lower chain {sigma(1), ...,
sigma(i)}.  The evaluators compute, in exact rational arithmetic:

  * choquet:            sum_i x_{sigma(i)} (v(U(i)) - v(U(i+1)))
  * symmetric_choquet:  choquet(v, pos part) - choquet(v, neg part);
    the checked mode re-derives the value from the region formula
    sum_{i<=p} x_{sigma(i)} (v(L(i)) - v(L(i-1)))
      + sum_{i>p} x_{sigma(i)} (v(U(i)) - v(U(i+1)))
    with p the number of negative coordinates, and insists on agreement.
  * choquet_via_dual:   choquet(v, pos) - choquet(dual v, neg), an
    independent route to the same value as choquet.
  * sugeno:             max_i x_{sigma(i)} /\\ mu(U(i)) on a scale [a, b];
    sugeno_normal_form evaluates the 2^n-term max-min expansion
    max_S mu(S) /\\ min_{i in S} x_i (empty min := b) instead.
  * shilkret:           max_i x_{sigma(i)} * mu(U(i)) for x >= 0.

The quasi- variants apply a declared scalar transform componentwise first.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional, Sequence

from .comono import Point, PointLike, as_point, sorted_view, split_parts
from .errors import (
    ComodularError,
    DimensionMismatch,
    InternalCrossCheckFailed,
    MissingTransform,
    NegativeInput,
    PointOutsideInterval,
    TransformRangeError,
)
from .setfunc import Interval, SetFunction, full_mask, require_role
from .transforms import NONDECREASING, ODD, VANISHES_AT_0, TransformFn


def _coords_for(v: SetFunction, x: PointLike) -> tuple[Fraction, ...]:
    p = as_point(x)
    if p.n != v.n:
        raise DimensionMismatch("set function has n=%d, point has n=%d" % (v.n, p.n))
    return p.coords


def choquet(v: SetFunction, x: PointLike) -> Fraction:
    """Integral of x against a signed capacity, telescoping sorted form."""
    require_role(v, "signed")
    coords = _coords_for(v, x)
    sv = sorted_view(coords)
    total = Fraction(0)
    for i in range(1, v.n + 1):
        total += coords[sv.perm[i - 1] - 1] * (
            v.values[sv.upper_mask(i)] - v.values[sv.upper_mask(i + 1)]
        )
    return total


def _choquet_with_order(v: SetFunction, coords: Sequence[Fraction], perm: Sequence[int]) -> Fraction:
    """Sorted-form evaluation under an explicit admissible permutation.

    Exists so tests can confirm that every permutation sorting a tied input
    produces the same value; perm uses 1-based labels like SortedView.
    """
    n = v.n
    for a, b in zip(perm, perm[1:]):
        if coords[a - 1] > coords[b - 1]:
            raise ComodularError("permutation %s does not sort %s" % (perm, coords))
    total = Fraction(0)
    upper = 0
    for label in perm:
        upper |= 1 << (label - 1)
    for i, label in enumerate(perm):
        rest = upper
        for done in perm[:i]:
            rest &= ~(1 << (done - 1))
        after = rest & ~(1 << (label - 1))
        total += coords[label - 1] * (v.values[rest] - v.values[after])
    return total


def choquet_via_dual(v: SetFunction, x: PointLike) -> Fraction:
    """Same value as choquet, computed through the dual on the negative part.

    The dual S -> v(X) - v(X minus S) is read on the n + 1 chain masks of
    the negative part only; no dual table is built.
    """
    require_role(v, "signed")
    coords = _coords_for(v, x)
    pos, neg = split_parts(coords)
    sv = sorted_view(neg)
    top = full_mask(v.n)
    vx = v.values[top]
    # dual[i - 1] is the dual's value on the upper chain U(i), i = 1..n+1
    dual = [vx - v.values[top ^ sv.upper_mask(i)] for i in range(1, v.n + 2)]
    total = Fraction(0)
    for i in range(1, v.n + 1):
        total += neg.coords[sv.perm[i - 1] - 1] * (dual[i - 1] - dual[i])
    return choquet(v, pos) - total


def _symmetric_regions(v: SetFunction, coords: tuple[Fraction, ...]) -> Fraction:
    sv = sorted_view(coords)
    p = sv.split
    total = Fraction(0)
    for i in range(1, p + 1):
        total += coords[sv.perm[i - 1] - 1] * (
            v.values[sv.lower_mask(i)] - v.values[sv.lower_mask(i - 1)]
        )
    for i in range(p + 1, v.n + 1):
        total += coords[sv.perm[i - 1] - 1] * (
            v.values[sv.upper_mask(i)] - v.values[sv.upper_mask(i + 1)]
        )
    return total


def symmetric_choquet(v: SetFunction, x: PointLike, checked: bool = False) -> Fraction:
    """Odd extension of choquet: positive part minus integral of negative part."""
    require_role(v, "signed")
    coords = _coords_for(v, x)
    pos, neg = split_parts(coords)
    value = choquet(v, pos) - choquet(v, neg)
    if checked:
        other = _symmetric_regions(v, coords)
        if other != value:
            raise InternalCrossCheckFailed(
                "split form %s vs region form %s at x=%s" % (value, other, coords)
            )
    return value


def _resolve_interval(
    mu: SetFunction, x: PointLike, interval: Optional[Interval]
) -> Interval:
    if interval is not None:
        return interval
    if isinstance(x, Point) and x.box is not None:
        return x.box
    lo = mu.values[0]
    hi = mu.values[full_mask(mu.n)]
    if lo < hi:
        return Interval(lo, hi)
    raise ComodularError("cannot infer the scale; pass interval explicitly")


def _sugeno_setup(
    mu: SetFunction, x: PointLike, interval: Optional[Interval]
) -> tuple[tuple[Fraction, ...], Interval]:
    scale = _resolve_interval(mu, x, interval)
    require_role(mu, "ivalued", scale)
    coords = _coords_for(mu, x)
    for i, c in enumerate(coords, start=1):
        if not scale.contains(c):
            raise PointOutsideInterval("coordinate %d = %s outside %s" % (i, c, scale))
    return coords, scale


def sugeno(mu: SetFunction, x: PointLike, interval: Optional[Interval] = None) -> Fraction:
    """Max-min integral over a scale [a, b], sorted-chain form."""
    coords, _ = _sugeno_setup(mu, x, interval)
    sv = sorted_view(coords)
    best = None
    for i in range(1, mu.n + 1):
        term = min(coords[sv.perm[i - 1] - 1], mu.values[sv.upper_mask(i)])
        if best is None or term > best:
            best = term
    return best


def sugeno_normal_form(
    mu: SetFunction, x: PointLike, interval: Optional[Interval] = None
) -> Fraction:
    """The same value via the full max-min expansion over all subsets."""
    coords, scale = _sugeno_setup(mu, x, interval)
    best = None
    for mask in range(1 << mu.n):
        inner = scale.hi
        for i in range(mu.n):
            if mask & (1 << i) and coords[i] < inner:
                inner = coords[i]
        term = min(mu.values[mask], inner)
        if best is None or term > best:
            best = term
    return best


def _transformed(phi: TransformFn, coords: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return tuple(phi(c) for c in coords)


def quasi_choquet(v: SetFunction, phi: TransformFn, x: PointLike) -> Fraction:
    """choquet after a componentwise nondecreasing transform fixing 0."""
    if phi is None:
        raise MissingTransform("quasi_choquet needs phi")
    phi.require(NONDECREASING, VANISHES_AT_0)
    coords = _coords_for(v, x)
    return choquet(v, _transformed(phi, coords))


def symmetric_quasi_choquet(v: SetFunction, phi: TransformFn, x: PointLike) -> Fraction:
    """symmetric_choquet after a componentwise nondecreasing odd transform."""
    if phi is None:
        raise MissingTransform("symmetric_quasi_choquet needs phi")
    phi.require(NONDECREASING, ODD)
    coords = _coords_for(v, x)
    return symmetric_choquet(v, _transformed(phi, coords))


def quasi_sugeno(
    mu: SetFunction,
    phi: TransformFn,
    x: PointLike,
    interval: Optional[Interval] = None,
) -> Fraction:
    """sugeno after a componentwise nondecreasing transform into the scale.

    The scale of mu cannot be read off the input point here (the point
    lives in the transform's domain, not in the scale), so it comes from
    the interval argument or from the table endpoints.
    """
    if phi is None:
        raise MissingTransform("quasi_sugeno needs phi")
    phi.require(NONDECREASING)
    coords = _coords_for(mu, x)
    scale = _resolve_interval(mu, Point(coords), interval)
    image = _transformed(phi, coords)
    for i, c in enumerate(image, start=1):
        if not scale.contains(c):
            raise TransformRangeError(
                "phi(x_%d) = %s outside the scale %s" % (i, c, scale)
            )
    return sugeno(mu, Point(image), scale)


def shilkret(mu: SetFunction, x: PointLike) -> Fraction:
    """Max of coordinate-times-capacity over the sorted chain, x >= 0 only."""
    require_role(mu, "capacity")
    coords = _coords_for(mu, x)
    for i, c in enumerate(coords, start=1):
        if c < 0:
            raise NegativeInput("coordinate %d = %s is negative" % (i, c))
    sv = sorted_view(coords)
    best = Fraction(0)
    for i in range(1, mu.n + 1):
        term = coords[sv.perm[i - 1] - 1] * mu.values[sv.upper_mask(i)]
        if term > best:
            best = term
    return best


INTEGRAL_KINDS = (
    "choquet",
    "symmetric",
    "sugeno",
    "quasi-choquet",
    "symmetric-quasi",
    "quasi-sugeno",
    "shilkret",
    "mean",
)


def black_box(
    kind: str,
    capacity: Optional[SetFunction] = None,
    phi: Optional[TransformFn] = None,
    interval: Optional[Interval] = None,
    n: Optional[int] = None,
    checked: bool = False,
) -> tuple[Callable[[Sequence[Fraction]], Fraction], int]:
    """Package an integral as a plain coords -> value function for auditing.

    Returns (function, arity).  kind "mean" needs n; every other kind reads
    the arity off the capacity, and an n given beside it must agree.
    """
    if n is not None and n < 1:
        raise ComodularError("n must be at least 1, got %d" % n)
    if kind == "mean":
        if n is None:
            raise ComodularError("kind 'mean' needs an explicit n")
        return (lambda coords: Fraction(sum(coords, Fraction(0)), n)), n
    if capacity is None:
        raise ComodularError("kind %r needs a capacity" % (kind,))
    arity = capacity.n
    if n is not None and n != arity:
        raise DimensionMismatch("capacity has n=%d, but n=%d was given" % (arity, n))
    if kind == "choquet":
        return (lambda coords: choquet(capacity, coords)), arity
    if kind == "symmetric":
        return (lambda coords: symmetric_choquet(capacity, coords, checked=checked)), arity
    if kind == "sugeno":
        return (lambda coords: sugeno(capacity, coords, interval)), arity
    if kind == "quasi-choquet":
        return (lambda coords: quasi_choquet(capacity, phi, coords)), arity
    if kind == "symmetric-quasi":
        return (lambda coords: symmetric_quasi_choquet(capacity, phi, coords)), arity
    if kind == "quasi-sugeno":
        return (lambda coords: quasi_sugeno(capacity, phi, coords, interval)), arity
    if kind == "shilkret":
        return (lambda coords: shilkret(capacity, coords)), arity
    raise ComodularError("unknown integral kind %r" % (kind,))
