"""Grid-based axiom auditing for black-box aggregation functions.

The auditor evaluates an n-variable function on a finite rational grid and
tests algebraic identities exactly.  A verdict is therefore a statement
about the grid, not the whole box: a fail is conclusive (the witness is a
genuine counterexample), a pass is evidence.  For functions known to be
piecewise affine per sorting region, vertex grids make the additive
identities conclusive as well.

Identity catalog (x, y points; c, x, r scalars; S a subset; phi an
auxiliary transform; e_S the box corner hi-on-S/lo-off-S; diag(x) the
constant point):

  modular                f(x) + f(y) = f(x /\\ y) + f(x \\/ y), all pairs
  comono_modular         same, comonotonic pairs only
  comono_additive        f(x + y) = f(x) + f(y), comonotonic pairs, x + y in box
  horiz_min_additive     f(x) = f(x /\\ c) + f(x - x /\\ c), remainder in box
  horiz_max_additive     f(x) = f(x \\/ c) + f(x - x \\/ c), remainder in box
  horiz_median_additive  f(x) = f(med(-c,x,c)) + f(x - x /\\ c) + f(x - x \\/ (-c)), c >= 0
  invar_horiz_min_diff   f(x) - f(x /\\ c) = f([x]_c) - f([x]_c /\\ c), x >= 0, c >= 0
  invar_horiz_max_diff   f(x) - f(x \\/ c) = f([x]^c) - f([x]^c \\/ c), x <= 0, c <= 0
  maxitive / minitive    f(x \\/ y) = f(x) \\/ f(y)  (resp. /\\), all pairs
  comono_maxitive / comono_minitive    same, comonotonic pairs only
  pos_homog_rays         f(c x 1_S) = c f(x 1_S), c > 0, c x in box
  sign_homog_rays        f(x 1_S) = sign(x) x f(sign(x) 1_S)
  full_homog_rays        f(x 1_S) = x f(1_S)
  dual_shift             f(1_{X minus S}) = f(1_X) + f(-1_S)
  quasi_homog_rays       f(x 1_S) = sign(x) phi(x) f(sign(x) 1_S)
  quasi_full_homog_rays  f(x 1_S) = phi(x) f(1_S)
  quasi_max_homog        f(r \\/ x) = phi(r) \\/ f(x)
  quasi_min_homog        f(r /\\ x) = phi(r) /\\ f(x)
  weak_max_homog         f(x \\/ e_S) = f(diag x) \\/ f(e_S)
  weak_min_homog         f(x /\\ e_S) = f(diag x) /\\ f(e_S)
  nondecreasing          f(x) <= f(y) along single-coordinate axis steps
  odd                    f(-x) = -f(x)
  idempotent             f(diag c) = c
  plus_split             f(x) + f(0) = f(x pos) + f(-(x neg))

[x]_c zeroes every coordinate <= c; [x]^c zeroes every coordinate >= c.
Side conditions are handled by skip-and-count, never by clamping, and a
check whose every instance was skipped raises EmptyApplicableSet rather
than passing vacuously.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations_with_replacement, permutations, product
from random import Random
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from .comono import clamp, cut, join, meet, ray, zero_high, zero_low
from .errors import (
    ComodularError,
    EmptyApplicableSet,
    MissingTransform,
)
from .scalars import Scalar, as_fraction, format_fraction
from .setfunc import Interval, elements_of_mask
from .transforms import TransformFn

ZERO = Fraction(0)
ONE = Fraction(1)


# --- grids -------------------------------------------------------------------


@dataclass(frozen=True)
class GridSpec:
    """Recipe for one axis: k equispaced points plus forced special values."""

    box: Interval
    points_per_axis: int = 5
    include_zero: bool = True
    include_units: bool = True
    include_endpoints: bool = True

    def __post_init__(self):
        if self.points_per_axis < 2:
            raise ComodularError("points_per_axis must be at least 2")

    def axis(self) -> tuple[Fraction, ...]:
        lo, hi = self.box.lo, self.box.hi
        k = self.points_per_axis
        if self.include_endpoints:
            base = [lo + Fraction(i, k - 1) * (hi - lo) for i in range(k)]
        else:
            base = [lo + Fraction(i + 1, k + 1) * (hi - lo) for i in range(k)]
        forced = []
        if self.include_zero and self.box.contains(ZERO):
            forced.append(ZERO)
        if self.include_units:
            forced.extend(u for u in (ONE, -ONE) if self.box.contains(u))
        return tuple(sorted(set(base) | set(forced)))


@dataclass(frozen=True)
class Grid:
    """A materialized axis inside a box; the product axis^n is the test grid."""

    axis: tuple[Fraction, ...]
    box: Interval

    def __post_init__(self):
        pts = tuple(sorted(set(as_fraction(a) for a in self.axis)))
        if len(pts) < 2:
            raise ComodularError("grid axis needs at least two distinct points")
        for a in pts:
            if not self.box.contains(a):
                raise ComodularError("axis point %s outside box %s" % (a, self.box))
        object.__setattr__(self, "axis", pts)


GridLike = Union[Grid, GridSpec, Sequence[Scalar]]


def as_grid(grid: GridLike) -> Grid:
    if isinstance(grid, Grid):
        return grid
    if isinstance(grid, GridSpec):
        return Grid(grid.axis(), grid.box)
    axis = tuple(as_fraction(a) for a in grid)
    return Grid(axis, Interval(min(axis), max(axis)))


def grid_points(grid: Grid, n: int) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(product(grid.axis, repeat=n))


def comonotonic_pairs(grid: Grid, n: int) -> tuple:
    """Every unordered comonotonic pair of grid points once, as (x, y), x <= y."""
    return tuple(_comono_points(grid, n))


# --- the digit lattice ---------------------------------------------------------
#
# A grid axis is sorted and strictly increasing, so a grid point is a digit
# tuple d with coordinates axis[d_i]: meet and join are digit-wise min and
# max, and digit tuples order lexicographically like the points they stand
# for.  The identities closed on the grid run on digits and decode only the
# one reported witness.


def _decode(axis: tuple[Fraction, ...], digits: tuple[int, ...]) -> tuple[Fraction, ...]:
    return tuple(axis[d] for d in digits)


def _comono_digit_pairs(grid: Grid, n: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every unordered comonotonic pair of digit tuples once, as (x, y), x <= y.

    The points sorted by a permutation sigma are its region, one per
    nondecreasing stair s (point[sigma_p] = s_p).  A pair is emitted from
    its canonical region only: the stable sort of the coordinates by
    (x_i, y_i, i).  Inside region sigma with stairs s and t that sort is
    sigma unless at some adjacent positions p, p + 1 both stairs tie while
    sigma descends.
    """
    stairs = list(combinations_with_replacement(range(len(grid.axis)), n))
    ties = [sum(1 << p for p in range(n - 1) if s[p] == s[p + 1]) for s in stairs]
    for sigma in permutations(range(n)):
        descents = sum(1 << p for p in range(n - 1) if sigma[p] > sigma[p + 1])
        region = []
        for stair, tie in zip(stairs, ties):
            digits = [0] * n
            for pos, level in zip(sigma, stair):
                digits[pos] = level
            region.append((tuple(digits), tie & descents))
        for i, (x, x_ties) in enumerate(region):
            for y, y_ties in region[i:]:
                if not x_ties & y_ties:
                    yield (x, y) if x <= y else (y, x)


def _comono_points(grid: Grid, n: int):
    """The comonotonic digit pairs as Fraction points, one pair at a time."""
    point = dict(zip(product(range(len(grid.axis)), repeat=n), product(grid.axis, repeat=n)))
    for x, y in _comono_digit_pairs(grid, n):
        yield point[x], point[y]


class _Table(dict):
    """f on grid points keyed by digit tuple; fn runs once per point touched."""

    def __init__(self, fn, axis):
        super().__init__()
        self.fn = fn
        self.axis = axis

    def __missing__(self, digits):
        got = self[digits] = as_fraction(self.fn(_decode(self.axis, digits)))
        return got


def _all_digit_pairs(grid, n):
    return combinations_with_replacement(product(range(len(grid.axis)), repeat=n), 2)


def _digit_axis_steps(grid, n):
    k = len(grid.axis)
    for x in product(range(k), repeat=n):
        for i, d in enumerate(x):
            if d + 1 < k:
                yield x, x[:i] + (d + 1,) + x[i + 1 :]


def _sides_modular(t, x, y):
    return t[x] + t[y], t[meet(x, y)] + t[join(x, y)], "eq"


def _sides_lattice(side, pick, t, x, y):
    return t[side(x, y)], pick(t[x], t[y]), "eq"


def _sides_le(t, x, y):
    return t[x], t[y], "le"


class _Eval:
    """Memoizing wrapper around the audited function."""

    __slots__ = ("fn", "cache")

    def __init__(self, fn):
        self.fn = fn
        self.cache = {}

    def at(self, coords: tuple[Fraction, ...]) -> Fraction:
        got = self.cache.get(coords)
        if got is None:
            got = as_fraction(self.fn(coords))
            self.cache[coords] = got
        return got


# --- identity evaluation -----------------------------------------------------
#
# Each axiom is an (enumerate, evaluate) pair.  enumerate yields operand
# dicts (None counts a skipped instance); evaluate(ev, phi, grid, n, o)
# recomputes both sides from the operands alone, so a stored witness
# replays independently.  The pair identities closed on the grid enumerate
# digit pairs instead and carry a digit-side twin of evaluate (see
# _AxiomDef.sides); their evaluate is used only for replay.


def _inbox(coords: Iterable[Fraction], box: Interval) -> bool:
    return all(box.contains(c) for c in coords)


def _diag(n: int, value: Fraction) -> tuple[Fraction, ...]:
    return (value,) * n


def _sign(x: Fraction) -> Fraction:
    return ONE if x > 0 else (-ONE if x < 0 else ZERO)


def _eval_modular(ev, phi, grid, n, o):
    x, y = o["x"], o["y"]
    return ev.at(x) + ev.at(y), ev.at(meet(x, y)) + ev.at(join(x, y)), "eq"


# The mirrored identities below take the lattice side first: (join, max)
# for the maxitive/max versions, (meet, min) for the minitive/min ones, or
# the cut mode "max"/"min"; AXIOMS binds it with partial.


def _eval_lattice(side, pick, ev, phi, grid, n, o):
    x, y = o["x"], o["y"]
    return ev.at(side(x, y)), pick(ev.at(x), ev.at(y)), "eq"


def _enum_comono_sum(grid, n):
    for x, y in _comono_points(grid, n):
        total = tuple(a + b for a, b in zip(x, y))
        if _inbox(total, grid.box):
            yield {"x": x, "y": y}
        else:
            yield None


def _eval_comono_additive(ev, phi, grid, n, o):
    x, y = o["x"], o["y"]
    total = tuple(a + b for a, b in zip(x, y))
    return ev.at(total), ev.at(x) + ev.at(y), "eq"


def _enum_point_level(filter_x=None, filter_c=None, closure=None):
    def enum(grid, n):
        for x in grid_points(grid, n):
            if filter_x is not None and not all(filter_x(a) for a in x):
                continue
            for c in grid.axis:
                if filter_c is not None and not filter_c(c):
                    continue
                o = {"x": x, "c": c}
                if closure is not None and not closure(grid, o):
                    yield None
                else:
                    yield o

    return enum


def _closure_cut(mode, grid, o):
    _, rest = cut(o["x"], o["c"], mode)
    return _inbox(rest, grid.box)


def _eval_cut(mode, ev, phi, grid, n, o):
    first, rest = cut(o["x"], o["c"], mode)
    return ev.at(o["x"]), ev.at(first) + ev.at(rest), "eq"


def _closure_hmedian(grid, o):
    x, c = o["x"], o["c"]
    if not grid.box.contains(-c):
        return False
    _, rest_min = cut(x, c, "min")
    _, rest_max = cut(x, -c, "max")
    return all(_inbox(p, grid.box) for p in (clamp(x, c), rest_min, rest_max))


def _eval_hmedian(ev, phi, grid, n, o):
    x, c = o["x"], o["c"]
    _, rest_min = cut(x, c, "min")
    _, rest_max = cut(x, -c, "max")
    return ev.at(x), ev.at(clamp(x, c)) + ev.at(rest_min) + ev.at(rest_max), "eq"


def _closure_invar(side, zero, grid, o):
    x, c = o["x"], o["c"]
    b = zero(x, c)
    pts = (side(x, _diag(len(x), c)), b, side(b, _diag(len(x), c)))
    return all(_inbox(p, grid.box) for p in pts)


def _eval_invar(side, zero, ev, phi, grid, n, o):
    x, c = o["x"], o["c"]
    cd = _diag(n, c)
    b = zero(x, c)
    return ev.at(x) - ev.at(side(x, cd)), ev.at(b) - ev.at(side(b, cd)), "eq"


def _enum_scaled_rays(grid, n):
    for mask in range(1 << n):
        for x in grid.axis:
            for c in grid.axis:
                if c <= 0:
                    continue
                if _inbox((c * x,), grid.box) and _inbox(ray(n, mask, x), grid.box) and _inbox(
                    ray(n, mask, c * x), grid.box
                ):
                    yield {"c": c, "x": x, "subset": mask}
                else:
                    yield None


def _eval_pos_homog(ev, phi, grid, n, o):
    c, x, mask = o["c"], o["x"], o["subset"]
    return ev.at(ray(n, mask, c * x)), c * ev.at(ray(n, mask, x)), "eq"


def _enum_rays(signed: bool):
    def enum(grid, n):
        for mask in range(1 << n):
            for x in grid.axis:
                pts = [ray(n, mask, x)]
                if signed:
                    s = _sign(x)
                    if s != 0:
                        pts.append(ray(n, mask, s))
                else:
                    pts.append(ray(n, mask, ONE))
                if all(_inbox(p, grid.box) for p in pts):
                    yield {"x": x, "subset": mask}
                else:
                    yield None

    return enum


def _eval_sign_homog(ev, phi, grid, n, o):
    x, mask = o["x"], o["subset"]
    s = _sign(x)
    rhs = ZERO if s == 0 else s * x * ev.at(ray(n, mask, s))
    return ev.at(ray(n, mask, x)), rhs, "eq"


def _eval_full_homog(ev, phi, grid, n, o):
    x, mask = o["x"], o["subset"]
    return ev.at(ray(n, mask, x)), x * ev.at(ray(n, mask, ONE)), "eq"


def _eval_quasi_homog(ev, phi, grid, n, o):
    x, mask = o["x"], o["subset"]
    s = _sign(x)
    rhs = ZERO if s == 0 else s * phi(x) * ev.at(ray(n, mask, s))
    return ev.at(ray(n, mask, x)), rhs, "eq"


def _eval_quasi_full_homog(ev, phi, grid, n, o):
    x, mask = o["x"], o["subset"]
    return ev.at(ray(n, mask, x)), phi(x) * ev.at(ray(n, mask, ONE)), "eq"


def _enum_dual_shift(grid, n):
    full = (1 << n) - 1
    for mask in range(1 << n):
        pts = (ray(n, full ^ mask, ONE), ray(n, full, ONE), ray(n, mask, -ONE))
        if all(_inbox(p, grid.box) for p in pts):
            yield {"subset": mask}
        else:
            yield None


def _eval_dual_shift(ev, phi, grid, n, o):
    mask = o["subset"]
    full = (1 << n) - 1
    lhs = ev.at(ray(n, full ^ mask, ONE))
    rhs = ev.at(ray(n, full, ONE)) + ev.at(ray(n, mask, -ONE))
    return lhs, rhs, "eq"


def _enum_level_point(grid, n):
    for r in grid.axis:
        for x in grid_points(grid, n):
            yield {"r": r, "x": x}


def _eval_quasi_lattice(side, pick, ev, phi, grid, n, o):
    r, x = o["r"], o["x"]
    return ev.at(side(_diag(n, r), x)), pick(phi(r), ev.at(x)), "eq"


def _enum_scalar_subset(grid, n):
    for x in grid.axis:
        for mask in range(1 << n):
            yield {"x": x, "subset": mask}


def _eval_weak(side, pick, ev, phi, grid, n, o):
    x, mask = o["x"], o["subset"]
    corner = ray(n, mask, grid.box.hi, grid.box.lo)
    return ev.at(side(_diag(n, x), corner)), pick(ev.at(_diag(n, x)), ev.at(corner)), "eq"


def _eval_le(ev, phi, grid, n, o):
    return ev.at(o["x"]), ev.at(o["y"]), "le"


def _enum_negatable(grid, n):
    for x in grid_points(grid, n):
        neg = tuple(-a for a in x)
        if _inbox(neg, grid.box):
            yield {"x": x}
        else:
            yield None


def _eval_odd(ev, phi, grid, n, o):
    x = o["x"]
    return ev.at(tuple(-a for a in x)), -ev.at(x), "eq"


def _enum_diagonal(grid, n):
    for c in grid.axis:
        yield {"c": c}


def _eval_idempotent(ev, phi, grid, n, o):
    c = o["c"]
    return ev.at(_diag(n, c)), c, "eq"


def _enum_split(grid, n):
    zero = _diag(n, ZERO)
    for x in grid_points(grid, n):
        if _inbox(join(x, zero), grid.box) and _inbox(meet(x, zero), grid.box):
            yield {"x": x}
        else:
            yield None


def _eval_split(ev, phi, grid, n, o):
    x = o["x"]
    zero = _diag(n, ZERO)
    return ev.at(x) + ev.at(zero), ev.at(join(x, zero)) + ev.at(meet(x, zero)), "eq"


@dataclass(frozen=True)
class _AxiomDef:
    id: str
    enumerate: Callable
    evaluate: Callable
    needs_phi: bool = False
    operand_order: tuple[str, ...] = ()
    # Set for the identities closed on the grid: enumerate then yields
    # (x, y) digit-tuple pairs and sides(table, x, y) gives both sides;
    # evaluate stays the Fraction route that replay_witness uses.
    sides: Optional[Callable] = None


def _nonneg(a):
    return a >= 0


def _nonpos(a):
    return a <= 0


_MAXITIVE = partial(_eval_lattice, join, max)
_MINITIVE = partial(_eval_lattice, meet, min)


def _pair_axiom(id, enumerate, evaluate, sides):
    return _AxiomDef(id, enumerate, evaluate, operand_order=("x", "y"), sides=sides)


_SIDES_MAXITIVE = partial(_sides_lattice, join, max)
_SIDES_MINITIVE = partial(_sides_lattice, meet, min)

AXIOMS: dict[str, _AxiomDef] = {
    d.id: d
    for d in (
        _pair_axiom("modular", _all_digit_pairs, _eval_modular, _sides_modular),
        _pair_axiom("comono_modular", _comono_digit_pairs, _eval_modular, _sides_modular),
        _AxiomDef(
            "comono_additive", _enum_comono_sum, _eval_comono_additive, operand_order=("x", "y")
        ),
        _AxiomDef(
            "horiz_min_additive",
            _enum_point_level(closure=partial(_closure_cut, "min")),
            partial(_eval_cut, "min"),
            operand_order=("x", "c"),
        ),
        _AxiomDef(
            "horiz_max_additive",
            _enum_point_level(closure=partial(_closure_cut, "max")),
            partial(_eval_cut, "max"),
            operand_order=("x", "c"),
        ),
        _AxiomDef(
            "horiz_median_additive",
            _enum_point_level(filter_c=_nonneg, closure=_closure_hmedian),
            _eval_hmedian,
            operand_order=("x", "c"),
        ),
        _AxiomDef(
            "invar_horiz_min_diff",
            _enum_point_level(
                filter_x=_nonneg, filter_c=_nonneg, closure=partial(_closure_invar, meet, zero_low)
            ),
            partial(_eval_invar, meet, zero_low),
            operand_order=("x", "c"),
        ),
        _AxiomDef(
            "invar_horiz_max_diff",
            _enum_point_level(
                filter_x=_nonpos, filter_c=_nonpos, closure=partial(_closure_invar, join, zero_high)
            ),
            partial(_eval_invar, join, zero_high),
            operand_order=("x", "c"),
        ),
        _pair_axiom("maxitive", _all_digit_pairs, _MAXITIVE, _SIDES_MAXITIVE),
        _pair_axiom("minitive", _all_digit_pairs, _MINITIVE, _SIDES_MINITIVE),
        _pair_axiom("comono_maxitive", _comono_digit_pairs, _MAXITIVE, _SIDES_MAXITIVE),
        _pair_axiom("comono_minitive", _comono_digit_pairs, _MINITIVE, _SIDES_MINITIVE),
        _AxiomDef(
            "pos_homog_rays", _enum_scaled_rays, _eval_pos_homog, operand_order=("c", "x", "subset")
        ),
        _AxiomDef(
            "sign_homog_rays", _enum_rays(True), _eval_sign_homog, operand_order=("x", "subset")
        ),
        _AxiomDef(
            "full_homog_rays", _enum_rays(False), _eval_full_homog, operand_order=("x", "subset")
        ),
        _AxiomDef("dual_shift", _enum_dual_shift, _eval_dual_shift, operand_order=("subset",)),
        _AxiomDef(
            "quasi_homog_rays",
            _enum_rays(True),
            _eval_quasi_homog,
            needs_phi=True,
            operand_order=("x", "subset"),
        ),
        _AxiomDef(
            "quasi_full_homog_rays",
            _enum_rays(False),
            _eval_quasi_full_homog,
            needs_phi=True,
            operand_order=("x", "subset"),
        ),
        _AxiomDef(
            "quasi_max_homog",
            _enum_level_point,
            partial(_eval_quasi_lattice, join, max),
            needs_phi=True,
            operand_order=("r", "x"),
        ),
        _AxiomDef(
            "quasi_min_homog",
            _enum_level_point,
            partial(_eval_quasi_lattice, meet, min),
            needs_phi=True,
            operand_order=("r", "x"),
        ),
        _AxiomDef(
            "weak_max_homog",
            _enum_scalar_subset,
            partial(_eval_weak, join, max),
            operand_order=("x", "subset"),
        ),
        _AxiomDef(
            "weak_min_homog",
            _enum_scalar_subset,
            partial(_eval_weak, meet, min),
            operand_order=("x", "subset"),
        ),
        _pair_axiom("nondecreasing", _digit_axis_steps, _eval_le, _sides_le),
        _AxiomDef("odd", _enum_negatable, _eval_odd, operand_order=("x",)),
        _AxiomDef("idempotent", _enum_diagonal, _eval_idempotent, operand_order=("c",)),
        _AxiomDef("plus_split", _enum_split, _eval_split, operand_order=("x",)),
    )
}


# --- reports and the check driver --------------------------------------------


@dataclass(frozen=True)
class AxiomReport:
    axiom: str
    verdict: str
    witness: Optional[dict]
    tested: int
    skipped: int

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json(self, mode: str = "rational") -> dict:
        payload = {
            "axiom": self.axiom,
            "verdict": self.verdict,
            "witness": None,
            "tested": self.tested,
            "skipped": self.skipped,
        }
        if self.witness is not None:
            payload["witness"] = witness_json(self.witness, mode)
            payload["witness"]["relation"] = self.witness["relation"]
        return payload


def witness_json(witness: dict, mode: str = "rational") -> dict:
    """Render a witness's operands and both sides; subset operands become
    element lists, points lists of scalars."""

    def operand(value):
        if isinstance(value, int) and not isinstance(value, bool):
            return list(elements_of_mask(value))
        if isinstance(value, tuple):
            return [format_fraction(v, mode) for v in value]
        return format_fraction(value, mode)

    return {
        "operands": {name: operand(v) for name, v in witness.get("operands", {}).items()},
        "lhs": format_fraction(witness["lhs"], mode),
        "rhs": format_fraction(witness["rhs"], mode),
    }


def _operand_key(value):
    if isinstance(value, int):
        return (Fraction(value),)
    if isinstance(value, tuple):
        return value
    return (value,)


def _witness_key(axiom: _AxiomDef, operands: dict) -> tuple:
    key = ()
    for name in axiom.operand_order:
        key = key + _operand_key(operands[name])
    return key


def _holds(lhs: Fraction, rhs: Fraction, relation: str, eps: Fraction) -> bool:
    # At eps = 0 the plain comparison is the same test without the Fraction
    # arithmetic, which would dominate a digit scan.
    if relation == "le":
        return lhs <= rhs + eps if eps else lhs <= rhs
    return abs(lhs - rhs) <= eps if eps else lhs == rhs


def _scan_operands(spec: _AxiomDef, fn: Callable, n: int, g: Grid, phi, tol: Fraction):
    """(tested, skipped, smallest violation) over operand dicts."""
    ev = _Eval(fn)
    tested = skipped = 0
    best_key = None
    best = None
    for operands in spec.enumerate(g, n):
        if operands is None:
            skipped += 1
            continue
        lhs, rhs, relation = spec.evaluate(ev, phi, g, n, operands)
        tested += 1
        if not _holds(lhs, rhs, relation, tol):
            key = _witness_key(spec, operands)
            if best_key is None or key < best_key:
                best_key = key
                best = {"operands": operands, "lhs": lhs, "rhs": rhs, "relation": relation}
    return tested, skipped, best


def _scan_digits(spec: _AxiomDef, fn: Callable, n: int, g: Grid, tol: Fraction):
    """(tested, 0, smallest violation) over digit pairs; only the witness
    is decoded to Fraction operands."""
    table = _Table(fn, g.axis)
    sides = spec.sides
    tested = 0
    best_pair = None
    best = None
    for x, y in spec.enumerate(g, n):
        lhs, rhs, relation = sides(table, x, y)
        tested += 1
        if not _holds(lhs, rhs, relation, tol) and (best_pair is None or (x, y) < best_pair):
            best_pair = (x, y)
            best = (lhs, rhs, relation)
    if best is None:
        return tested, 0, None
    operands = {"x": _decode(g.axis, best_pair[0]), "y": _decode(g.axis, best_pair[1])}
    lhs, rhs, relation = best
    return tested, 0, {"operands": operands, "lhs": lhs, "rhs": rhs, "relation": relation}


def check(
    axiom: str,
    fn: Callable[[tuple[Fraction, ...]], Scalar],
    n: int,
    grid: GridLike,
    phi: Optional[TransformFn] = None,
    eps: Scalar = 0,
) -> AxiomReport:
    """Test one axiom exhaustively on the grid.

    The verdict is grid-relative.  The reported witness is the
    lexicographically smallest violation in operand order, independent of
    enumeration strategy.
    """
    if axiom not in AXIOMS:
        raise ComodularError("unknown axiom %r" % (axiom,))
    spec = AXIOMS[axiom]
    if spec.needs_phi and phi is None:
        raise MissingTransform("axiom %s needs an auxiliary transform" % axiom)
    g = as_grid(grid)
    tol = as_fraction(eps)
    if tol < 0:
        raise ComodularError("eps must be >= 0, got %s" % tol)
    if spec.sides is None:
        tested, skipped, best = _scan_operands(spec, fn, n, g, phi, tol)
    else:
        tested, skipped, best = _scan_digits(spec, fn, n, g, tol)
    if tested == 0:
        raise EmptyApplicableSet(
            "axiom %s: every candidate instance was skipped on this grid" % axiom
        )
    if best is None:
        return AxiomReport(axiom, "pass", None, tested, skipped)
    return AxiomReport(axiom, "fail", best, tested, skipped)


def replay_witness(
    axiom: str,
    fn: Callable,
    witness: dict,
    grid: GridLike,
    n: int,
    phi: Optional[TransformFn] = None,
    eps: Scalar = 0,
) -> bool:
    """Re-evaluate the identity at a stored witness; True means it holds."""
    spec = AXIOMS[axiom]
    lhs, rhs, relation = spec.evaluate(_Eval(fn), phi, as_grid(grid), n, witness["operands"])
    return _holds(lhs, rhs, relation, as_fraction(eps))


# --- audit battery and classification ----------------------------------------


@dataclass(frozen=True)
class AuditResult:
    reports: tuple[AxiomReport, ...]
    summary: dict

    def report(self, axiom: str) -> Optional[AxiomReport]:
        for r in self.reports:
            if r.axiom == axiom:
                return r
        return None

    def to_json(self, mode: str = "rational") -> dict:
        return {
            "reports": [r.to_json(mode) for r in self.reports],
            "summary": self.summary,
        }


def _classify(verdicts: dict, box: Interval, f_zero: Optional[Fraction]) -> list[str]:
    wide = box.lo <= -1 and box.hi >= 1
    labels = []

    def all_pass(*ids):
        return all(verdicts.get(i) == "pass" for i in ids)

    signed_ids = ["comono_modular", "sign_homog_rays"] + (["dual_shift"] if wide else [])
    if all(i in verdicts for i in signed_ids):
        if all_pass(*signed_ids) and f_zero == 0:
            labels.append("consistent with a signed Choquet integral on this grid")
    if box.is_symmetric and wide and {"comono_modular", "full_homog_rays"} <= verdicts.keys():
        if all_pass("comono_modular", "full_homog_rays"):
            labels.append("consistent with a symmetric signed Choquet integral on this grid")
    if {"comono_maxitive", "comono_minitive"} <= verdicts.keys():
        if all_pass("comono_maxitive", "comono_minitive"):
            labels.append("consistent with a quasi-Sugeno integral on this grid")
            if verdicts.get("idempotent") == "pass":
                labels.append("consistent with a Sugeno integral on this grid")
    if verdicts.get("comono_modular") == "fail":
        labels.append("outside the comonotonically modular class on this grid")
    return labels


def audit(
    fn: Callable,
    n: int,
    grid: GridLike,
    axioms: Iterable[str],
    phi: Optional[TransformFn] = None,
    eps: Scalar = 0,
) -> AuditResult:
    """Run a battery of checks and summarize which families remain viable."""
    g = as_grid(grid)
    reports = tuple(check(a, fn, n, g, phi=phi, eps=eps) for a in axioms)
    verdicts = {r.axiom: r.verdict for r in reports}
    f_zero = None
    if g.box.contains(ZERO):
        f_zero = as_fraction(fn((ZERO,) * n))
    summary = {
        "box": [str(g.box.lo), str(g.box.hi)],
        "axis_size": len(g.axis),
        "vanishes_at_origin": (f_zero == 0) if f_zero is not None else None,
        "f_at_origin": None if f_zero is None else str(f_zero),
        "classifications": _classify(verdicts, g.box, f_zero),
    }
    return AuditResult(reports, summary)


def spot_check(
    axiom: str,
    fn: Callable,
    n: int,
    box: Interval,
    seed: int,
    count: int = 50,
    denominator: int = 16,
    phi: Optional[TransformFn] = None,
    eps: Scalar = 0,
) -> AxiomReport:
    """Seeded random supplement to the exhaustive grid check.

    Draws a random axis from a fine lattice inside the box and runs the
    ordinary check on it.  Deterministic for a fixed seed.
    """
    rng = Random(seed)
    lo, hi = box.lo, box.hi
    lattice = [lo + Fraction(i, denominator) * (hi - lo) for i in range(denominator + 1)]
    size = max(2, min(count, len(lattice)))
    axis = sorted(rng.sample(lattice, size))
    if box.contains(ZERO) and ZERO not in axis:
        axis.append(ZERO)
    return check(axiom, fn, n, Grid(tuple(sorted(axis)), box), phi=phi, eps=eps)
