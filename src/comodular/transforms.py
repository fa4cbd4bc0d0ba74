"""Scalar transforms used by the quasi- integral families.

A transform is either the identity, a piecewise-linear function given by
breakpoints with exact rational interpolation, or one of a few named closed
forms that stay inside rational arithmetic.  Properties (nondecreasing,
vanishes-at-0, odd) are declared at construction and checked against the
representation; evaluators later *require* the flags they need, so an
undeclared property is an error even if the function happens to satisfy it.

Evaluating a piecewise transform outside its breakpoint span raises instead
of clamping: silent clamping would mask domain bugs in audits.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional

from .errors import (
    ComodularError,
    TransformDomainError,
    TransformPropertyMissing,
)
from .scalars import Scalar, as_fraction

NONDECREASING = "nondecreasing"
VANISHES_AT_0 = "vanishes-at-0"
ODD = "odd"
_KNOWN_PROPERTIES = frozenset({NONDECREASING, VANISHES_AT_0, ODD})

# name -> (callable, properties); both forms are odd and rational-exact
_NAMED: dict[str, tuple[Callable[[Fraction], Fraction], frozenset]] = {
    "cube": (lambda x: x * x * x, _KNOWN_PROPERTIES),
    "signed-square": (lambda x: x * abs(x), _KNOWN_PROPERTIES),
}


@dataclass(frozen=True)
class TransformFn:
    kind: str
    breakpoints: Optional[tuple[tuple[Fraction, Fraction], ...]] = None
    name: Optional[str] = None
    properties: frozenset = frozenset()

    def __post_init__(self):
        props = frozenset(self.properties)
        unknown = props - _KNOWN_PROPERTIES
        if unknown:
            raise ComodularError("unknown transform properties %s" % sorted(unknown, key=str))
        object.__setattr__(self, "properties", props)
        if self.kind == "identity":
            object.__setattr__(self, "properties", _KNOWN_PROPERTIES)
        elif self.kind == "named":
            if self.name not in _NAMED:
                raise ComodularError(
                    "unknown named transform %r (have: %s)" % (self.name, sorted(_NAMED))
                )
            object.__setattr__(self, "properties", _NAMED[self.name][1])
        elif self.kind == "piecewise":
            self._check_breakpoints(props)
        else:
            raise ComodularError("kind must be identity, piecewise or named")

    def _check_breakpoints(self, props):
        if not self.breakpoints or len(self.breakpoints) < 2:
            raise ComodularError("piecewise transform needs at least two breakpoints")
        pts = tuple((as_fraction(x), as_fraction(y)) for x, y in self.breakpoints)
        object.__setattr__(self, "breakpoints", pts)
        object.__setattr__(self, "_xs", tuple(x for x, _ in pts))
        xs = [x for x, _ in pts]
        for a, b in zip(xs, xs[1:]):
            if not a < b:
                raise ComodularError("breakpoint abscissas must strictly increase")
        if NONDECREASING in props:
            ys = [y for _, y in pts]
            for a, b in zip(ys, ys[1:]):
                if a > b:
                    raise ComodularError(
                        "declared nondecreasing but values drop: %s then %s" % (a, b)
                    )
        if VANISHES_AT_0 in props:
            if not xs[0] <= 0 <= xs[-1] or self(Fraction(0)) != 0:
                raise ComodularError("declared vanishes-at-0 but phi(0) != 0")
        if ODD in props:
            table = dict(pts)
            for x, y in pts:
                if table.get(-x) != -y:
                    raise ComodularError(
                        "declared odd but breakpoints are not mirrored at x=%s" % x
                    )

    def has(self, prop: str) -> bool:
        return prop in self.properties

    def require(self, *props: str) -> None:
        missing = [p for p in props if p not in self.properties]
        if missing:
            raise TransformPropertyMissing(
                "transform lacks declared properties: %s" % ", ".join(missing)
            )

    @property
    def span(self) -> Optional[tuple[Fraction, Fraction]]:
        """Evaluable x-range for piecewise transforms, None when unrestricted."""
        if self.kind == "piecewise":
            return (self.breakpoints[0][0], self.breakpoints[-1][0])
        return None

    def __call__(self, x: Scalar) -> Fraction:
        t = as_fraction(x)
        if self.kind == "identity":
            return t
        if self.kind == "named":
            return _NAMED[self.name][0](t)
        pts = self.breakpoints
        if not pts[0][0] <= t <= pts[-1][0]:
            raise TransformDomainError(
                "x=%s outside breakpoint span [%s, %s]" % (t, pts[0][0], pts[-1][0])
            )
        # rightmost segment whose left endpoint is <= t
        k = bisect_right(self._xs, t) - 1
        if k == len(pts) - 1:
            return pts[-1][1]
        (x0, y0), (x1, y1) = pts[k], pts[k + 1]
        return y0 + (t - x0) * (y1 - y0) / (x1 - x0)


def identity() -> TransformFn:
    return TransformFn("identity")


def piecewise_linear(breakpoints: Iterable, properties: Iterable[str] = ()) -> TransformFn:
    return TransformFn("piecewise", breakpoints=tuple(breakpoints), properties=frozenset(properties))


def named_transform(name: str) -> TransformFn:
    return TransformFn("named", name=name)


def transform_to_payload(phi: TransformFn) -> dict:
    if phi.kind == "piecewise":
        return {
            "breakpoints": [[str(x), str(y)] for x, y in phi.breakpoints],
            "properties": sorted(phi.properties),
        }
    return {"name": phi.name if phi.kind == "named" else "identity"}


def transform_from_payload(payload: dict) -> TransformFn:
    if not isinstance(payload, dict):
        raise ComodularError(
            "malformed transform payload: expected an object, got %s" % type(payload).__name__
        )
    if "breakpoints" in payload:
        try:
            points = [(x, y) for x, y in payload["breakpoints"]]
            properties = frozenset(payload.get("properties", ()))
        except (TypeError, ValueError) as exc:
            raise ComodularError("malformed transform payload: %s" % exc) from exc
        return piecewise_linear(points, properties)
    name = payload.get("name")
    if name == "identity":
        return identity()
    if isinstance(name, str):
        return named_transform(name)
    if name is not None:
        raise ComodularError("malformed transform payload: name must be a string, got %r" % (name,))
    raise ComodularError("transform payload needs 'breakpoints' or 'name'")
