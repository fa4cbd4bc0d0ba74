"""Exact scalar helpers.

All arithmetic in this package runs on :class:`fractions.Fraction`.  Floats
are deliberately rejected at the boundary: a binary float that "looks like"
0.1 is not 1/10, and silently laundering it through ``Fraction(float)``
would poison every downstream equality check.  Decimal *strings* are fine,
they mean exactly what they say.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

from .errors import ComodularError

Scalar = Union[Fraction, int, str]


def as_fraction(value: Scalar) -> Fraction:
    """Coerce an int, Fraction, or numeric string to Fraction, exactly.

    Strings accept the forms "p/q", "p", and decimal literals such as
    "0.25" (parsed exactly, so "0.1" means 1/10).
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ComodularError("booleans are not scalars")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise ComodularError(
            "refusing to coerce float %r; pass a string or Fraction" % (value,)
        )
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ComodularError("cannot parse scalar %r" % (value,)) from exc
    raise ComodularError("cannot coerce %r to a rational" % (value,))


def as_fraction_tuple(values: Iterable[Scalar]) -> tuple[Fraction, ...]:
    return tuple(as_fraction(v) for v in values)


def format_fraction(q: Fraction, mode: str = "rational") -> str:
    """Render a scalar: "p/q" in rational mode, shortest float repr otherwise."""
    if mode == "float":
        return repr(float(q))
    return str(q)
