"""Set functions on X = {1, ..., n} and their duals.

Subsets are encoded as bitmasks: bit i-1 set means element i belongs to S.
A full table of 2^n exact rational values is stored, indexed by mask, so
lookups are O(1) and iteration order over subsets is canonical (ascending
mask).  n is capped at 20 to keep exhaustive subset iteration tractable.

Roles:
  * ``signed``   -- v(empty) = 0, values otherwise arbitrary;
  * ``capacity`` -- signed and monotone: v(S) <= v(T) whenever S is a
    subset of T;
  * ``ivalued``  -- monotone with v(empty) = lo and v(X) = hi for a
    declared interval [lo, hi].
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Union

from .errors import (
    BadInterval,
    BadRole,
    ComodularError,
    CriteriaLimitExceeded,
    DuplicateSubset,
    NotCapacity,
    NotIntervalCapacity,
    NotSignedCapacity,
    SubsetOutOfRange,
)
from .scalars import Scalar, as_fraction, format_fraction

MAX_CRITERIA = 20

SubsetLike = Union[int, Iterable[int]]


@dataclass(frozen=True)
class Interval:
    """A nontrivial closed interval [lo, hi], lo < hi, with exact endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", as_fraction(self.lo))
        object.__setattr__(self, "hi", as_fraction(self.hi))
        if not self.lo < self.hi:
            raise BadInterval("need lo < hi, got [%s, %s]" % (self.lo, self.hi))

    def contains(self, x: Fraction) -> bool:
        return self.lo <= x <= self.hi

    @property
    def has_zero(self) -> bool:
        return self.lo <= 0 <= self.hi

    @property
    def is_symmetric(self) -> bool:
        return self.lo == -self.hi

    def to_json(self) -> list[str]:
        return [str(self.lo), str(self.hi)]

    def __str__(self):
        return "[%s, %s]" % (self.lo, self.hi)


def full_mask(n: int) -> int:
    return (1 << n) - 1


def mask_from_subset(subset: SubsetLike, n: int) -> int:
    """Normalize a subset given as a bitmask or as element labels in 1..n."""
    if isinstance(subset, int):
        if subset < 0 or subset > full_mask(n):
            raise SubsetOutOfRange("mask %d out of range for n=%d" % (subset, n))
        return subset
    mask = 0
    for i in subset:
        if not isinstance(i, int) or isinstance(i, bool) or not 1 <= i <= n:
            raise SubsetOutOfRange("element %r outside 1..%d" % (i, n))
        mask |= 1 << (i - 1)
    return mask


def elements_of_mask(mask: int) -> tuple[int, ...]:
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


@dataclass(frozen=True)
class Verdict:
    """Outcome of a role validation: pass, or fail with a finite witness."""

    ok: bool
    witness: Optional[tuple] = None
    message: str = ""

    def __bool__(self):
        return self.ok


@dataclass(frozen=True)
class SetFunction:
    """Immutable table of exact values over all subsets of {1..n}."""

    n: int
    values: tuple[Fraction, ...]

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ComodularError("n must be a positive integer")
        if self.n > MAX_CRITERIA:
            raise CriteriaLimitExceeded("n=%d exceeds limit %d" % (self.n, MAX_CRITERIA))
        vals = tuple(as_fraction(v) for v in self.values)
        if len(vals) != 1 << self.n:
            raise ComodularError(
                "need %d values for n=%d, got %d" % (1 << self.n, self.n, len(vals))
            )
        object.__setattr__(self, "values", vals)

    def value(self, subset: SubsetLike) -> Fraction:
        return self.values[mask_from_subset(subset, self.n)]

    __getitem__ = value

    @property
    def is_signed_capacity(self) -> bool:
        return self.values[0] == 0

    @property
    def is_capacity(self) -> bool:
        return self.is_signed_capacity and self._monotonicity_witness is None

    @cached_property
    def _monotonicity_witness(self) -> Optional[tuple[int, int]]:
        # Monotonicity over the whole lattice reduces to the covering pairs
        # (T minus one element, T); the first hit scanning T ascending and
        # the remaining subset ascending by mask is the canonical witness.
        # The table is immutable, so this O(n 2^n) scan runs once per
        # instance; cached_property stores it in the instance __dict__, out
        # of the dataclass fields that __eq__, __hash__ and repr read.
        for t in range(1, 1 << self.n):
            vt = self.values[t]
            for i in reversed(range(self.n)):
                if t & (1 << i):
                    s = t & ~(1 << i)
                    if self.values[s] > vt:
                        return (s, t)
        return None

    def dual(self) -> "SetFunction":
        """The dual set function S -> v(X) - v(X minus S)."""
        if not self.is_signed_capacity:
            raise NotSignedCapacity("dual needs v(empty)=0, got %s" % self.values[0])
        top = full_mask(self.n)
        vx = self.values[top]
        return SetFunction(self.n, tuple(vx - self.values[top ^ s] for s in range(top + 1)))


def new_set_function(n: int, assignments: Iterable[tuple[SubsetLike, Scalar]]) -> SetFunction:
    """Build a SetFunction from sparse (subset, value) pairs.

    Unassigned subsets default to 0.  Assigning the same subset twice is an
    error even if the values agree.
    """
    if not isinstance(n, int) or n < 1:
        raise ComodularError("n must be a positive integer")
    if n > MAX_CRITERIA:
        raise CriteriaLimitExceeded("n=%d exceeds limit %d" % (n, MAX_CRITERIA))
    table = [Fraction(0)] * (1 << n)
    seen = set()
    for subset, val in assignments:
        mask = mask_from_subset(subset, n)
        if mask in seen:
            raise DuplicateSubset("subset %s assigned twice" % (elements_of_mask(mask),))
        seen.add(mask)
        table[mask] = as_fraction(val)
    return SetFunction(n, tuple(table))


def validate(sf: SetFunction, role: str, interval: Optional[Interval] = None) -> Verdict:
    """Check a declared role; failures carry the violating pair or endpoint."""
    if role not in _ROLE_ERRORS:
        raise ComodularError("unknown role %r" % (role,))
    if role == "ivalued":
        if interval is None:
            raise ComodularError("role 'ivalued' needs an interval")
        if sf.values[0] != interval.lo:
            return Verdict(False, ("lo",), "v(empty) = %s, expected %s" % (sf.values[0], interval.lo))
        if sf.values[full_mask(sf.n)] != interval.hi:
            return Verdict(
                False, ("hi",), "v(X) = %s, expected %s" % (sf.values[full_mask(sf.n)], interval.hi)
            )
    elif sf.values[0] != 0:
        return Verdict(False, ((),), "v(empty) = %s, expected 0" % sf.values[0])
    pair = None if role == "signed" else sf._monotonicity_witness
    if pair is not None:
        s, t = (elements_of_mask(mask) for mask in pair)
        return Verdict(False, (s, t), "v(%s) > v(%s)" % (s, t))
    return Verdict(True)


_ROLE_ERRORS = {
    "signed": NotSignedCapacity,
    "capacity": NotCapacity,
    "ivalued": NotIntervalCapacity,
}


def require_role(sf: SetFunction, role: str, interval: Optional[Interval] = None) -> None:
    """Raise the role-specific error when validation fails."""
    verdict = validate(sf, role, interval)
    if not verdict.ok:
        raise _ROLE_ERRORS[role](verdict.message)


# --- JSON round-tripping ----------------------------------------------------
#
# {"n": 2, "values": [{"set": [1], "value": "3/10"}, ...],
#  "role": "capacity", "interval": ["0", "1"]}    (interval: ivalued only)


def table_json(values: Iterable[Fraction], mode: str = "rational") -> list[dict]:
    """A table indexed by subset mask as {"set": elements, "value": scalar} rows."""
    return [
        {"set": list(elements_of_mask(mask)), "value": format_fraction(value, mode)}
        for mask, value in enumerate(values)
    ]


def to_payload(sf: SetFunction, role: str = "signed", interval: Optional[Interval] = None) -> dict:
    payload = {"n": sf.n, "values": table_json(sf.values), "role": role}
    if role == "ivalued":
        if interval is None:
            raise ComodularError("role 'ivalued' needs an interval")
        payload["interval"] = interval.to_json()
    return payload


def from_payload(payload: dict) -> tuple[SetFunction, str, Optional[Interval]]:
    """Parse and role-check a capacity payload; bad roles raise."""
    try:
        n = payload["n"]
        entries = payload["values"]
        role = payload.get("role", "signed")
    except (KeyError, TypeError) as exc:
        raise ComodularError("malformed capacity payload: %s" % exc) from exc
    if not isinstance(role, str):
        raise BadRole("malformed capacity payload: role must be a string, got %r" % (role,))
    if role not in _ROLE_ERRORS:
        raise BadRole("unknown role %r" % (role,))
    interval = None
    if role == "ivalued":
        if "interval" not in payload:
            raise NotIntervalCapacity("role 'ivalued' needs an interval field")
        try:
            lo, hi = payload["interval"]
        except (TypeError, ValueError) as exc:
            raise ComodularError("malformed capacity payload: interval: %s" % exc) from exc
        interval = Interval(as_fraction(lo), as_fraction(hi))
    try:
        sf = new_set_function(n, ((entry["set"], entry["value"]) for entry in entries))
    except (KeyError, TypeError) as exc:
        raise ComodularError("malformed capacity payload: %s" % exc) from exc
    verdict = validate(sf, role, interval)
    if not verdict.ok:
        raise _ROLE_ERRORS[role]("table violates role %r: %s" % (role, verdict.message))
    return sf, role, interval


def read_json(path: str):
    """Parse a JSON file; malformed JSON raises ComodularError naming the path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ComodularError("%s: not valid JSON (%s)" % (path, exc)) from exc


def load_set_function(path: str) -> tuple[SetFunction, str, Optional[Interval]]:
    return from_payload(read_json(path))


def dump_set_function(
    sf: SetFunction, path: str, role: str = "signed", interval: Optional[Interval] = None
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_payload(sf, role, interval), fh, indent=2)
        fh.write("\n")


def describe(sf: SetFunction) -> str:
    """One line per subset, ascending mask; handy for CLI text output."""
    lines = []
    for mask in range(1 << sf.n):
        elems = ",".join(str(i) for i in elements_of_mask(mask)) or "-"
        lines.append("{%s}: %s" % (elems, format_fraction(sf.values[mask])))
    return "\n".join(lines)
