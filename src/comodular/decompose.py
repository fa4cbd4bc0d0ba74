"""Canonical forms and recovery of generating data from black boxes.

Three sampled representations:

  * SeparationForm: f(x) = f(0) + a lower-chain telescoping sum of h (the
    restriction of f to the negative orthant) plus an upper-chain sum of g
    (the restriction to the positive orthant).  Valid on the grid whenever
    f is comonotonically modular there.
  * NormalForm: f as a max of 2^n unary nondecreasing traces
    phi_S(x) = f(corner of S with level x) combined by max-of-mins
    (maxitive mode), or the dual min-of-maxes (minitive mode).
  * QuasiSugenoForm: f as max over subsets of f(corner_S) /\\ min of a
    diagonal trace phi(x) = f(x, ..., x).

Forms are tables, not formulas: evaluation off the sampled axis raises
OffAxisPoint rather than interpolating, because the backing identities are
pointwise statements and interpolation would smuggle in assumptions.

The fit_* functions are refusal-valued: they check the hypotheses that
characterize a family on the grid, and either hand back generating data
(capacity, transform) that provably regenerates the input on the whole
grid, or a FitRefusal naming the first failed condition with a witness
that independently violates it.  They never raise on mathematical
failure; exceptions are reserved for malformed calls.

Everything here enumerates all 2^n subsets; intended for small n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Union

from .axioms import Grid, GridLike, as_grid, check, grid_points, witness_json
from .comono import PointLike, as_point, ray, sorted_view
from .errors import (
    ComodularError,
    DomainGap,
    NotNondecreasing,
    OffAxisPoint,
    TransformError,
)
from .integrals import choquet, quasi_choquet, symmetric_choquet
from .scalars import Scalar, as_fraction, format_fraction
from .setfunc import Interval, SetFunction, elements_of_mask, full_mask, table_json
from .transforms import (
    NONDECREASING,
    VANISHES_AT_0,
    TransformFn,
    piecewise_linear,
)

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class FitRefusal:
    """A fit that declined, carrying the violated condition and evidence."""

    condition: str
    witness: Optional[dict]
    detail: str = ""

    def __bool__(self):
        return False

    def to_json(self, mode: str = "rational") -> dict:
        return {
            "fitted": False,
            "condition": self.condition,
            "witness": None if self.witness is None else witness_json(self.witness, mode),
            "detail": self.detail,
        }


def _value_witness(x, lhs, rhs) -> dict:
    return {"operands": {"x": x}, "lhs": lhs, "rhs": rhs, "relation": "eq"}


def _close(a: Fraction, b: Fraction, eps: Fraction) -> bool:
    return abs(a - b) <= eps


def _form_coords(n: int, x: PointLike, axis: Optional[tuple] = None) -> tuple[Fraction, ...]:
    """The coordinates of x, which a form over n criteria (sampled on axis,
    when given) can evaluate; anything else is an OffAxisPoint."""
    coords = as_point(x).coords
    if len(coords) != n:
        raise OffAxisPoint("expected %d coordinates, got %d" % (n, len(coords)))
    if axis is not None:
        allowed = set(axis)
        for c in coords:
            if c not in allowed:
                raise OffAxisPoint("coordinate %s is not on the sampled axis" % c)
    return coords


def _traces_json(table: dict, mode: str) -> list[dict]:
    """A table keyed by (subset mask, axis value) as sorted set/x/value rows."""
    return [
        {
            "set": list(elements_of_mask(mask)),
            "x": format_fraction(x, mode),
            "value": format_fraction(val, mode),
        }
        for (mask, x), val in sorted(table.items())
    ]


# --- separation form ----------------------------------------------------------


@dataclass(frozen=True)
class SeparationForm:
    n: int
    box: Interval
    axis: tuple[Fraction, ...]
    f_zero: Fraction
    g_table: dict
    h_table: dict

    def g(self, mask: int, x: Fraction) -> Fraction:
        try:
            return self.g_table[(mask, x)]
        except KeyError:
            raise OffAxisPoint("g was not sampled at %s on %s" % (x, elements_of_mask(mask)))

    def h(self, mask: int, x: Fraction) -> Fraction:
        try:
            return self.h_table[(mask, x)]
        except KeyError:
            raise OffAxisPoint("h was not sampled at %s on %s" % (x, elements_of_mask(mask)))

    def to_json(self, mode: str = "rational") -> dict:
        return {
            "n": self.n,
            "axis": [format_fraction(a, mode) for a in self.axis],
            "f_zero": format_fraction(self.f_zero, mode),
            "g": _traces_json(self.g_table, mode),
            "h": _traces_json(self.h_table, mode),
        }


def build_separation(fn: Callable, n: int, grid: GridLike) -> SeparationForm:
    """Sample f on every ray point x * 1_S reachable from the axis.

    The nonnegative samples populate g, the nonpositive ones h; both need
    the origin, so a box without 0 cannot host the form.
    """
    g = as_grid(grid)
    if not g.box.contains(ZERO):
        raise DomainGap("separation sampling needs 0 in the box, got %s" % g.box)
    g_table = {}
    h_table = {}
    for mask in range(1 << n):
        for x in g.axis:
            value = as_fraction(fn(ray(n, mask, x)))
            if x >= 0:
                g_table[(mask, x)] = value
            if x <= 0:
                h_table[(mask, x)] = value
    f_zero = g_table[(0, ZERO)]
    return SeparationForm(n, g.box, g.axis, f_zero, g_table, h_table)


def eval_separation(form: SeparationForm, x: PointLike) -> Fraction:
    """Telescoping reconstruction: lower chains below 0, upper chains above."""
    coords = _form_coords(form.n, x, form.axis)
    sv = sorted_view(coords)
    p = sv.split
    total = form.f_zero
    for i in range(1, p + 1):
        xi = coords[sv.perm[i - 1] - 1]
        total += form.h(sv.lower_mask(i), xi) - form.h(sv.lower_mask(i - 1), xi)
    for i in range(p + 1, form.n + 1):
        xi = coords[sv.perm[i - 1] - 1]
        total += form.g(sv.upper_mask(i), xi) - form.g(sv.upper_mask(i + 1), xi)
    return total


# --- max/min normal forms -----------------------------------------------------


@dataclass(frozen=True)
class NormalForm:
    n: int
    mode: str
    interval: Interval
    axis: tuple[Fraction, ...]
    tables: dict

    def trace(self, mask: int, x: Fraction) -> Fraction:
        try:
            return self.tables[(mask, x)]
        except KeyError:
            raise OffAxisPoint(
                "trace of %s was not sampled at %s" % (elements_of_mask(mask), x)
            )

    def to_json(self, mode: str = "rational") -> dict:
        return {
            "n": self.n,
            "mode": self.mode,
            "interval": self.interval.to_json(),
            "axis": [format_fraction(a, mode) for a in self.axis],
            "traces": _traces_json(self.tables, mode),
        }


def build_normal_form(
    fn: Callable, n: int, interval: Interval, mode: str, axis: GridLike
) -> NormalForm:
    """Sample the unary traces phi_S over the axis.

    maxitive mode samples f at (x on S, lo elsewhere); minitive mode at
    (x on S, hi elsewhere).  f must be nondecreasing on the grid first.
    """
    if mode not in ("maxitive", "minitive"):
        raise ComodularError("mode must be 'maxitive' or 'minitive', got %r" % (mode,))
    g = Grid(tuple(set(as_grid(axis).axis) | {interval.lo, interval.hi}), interval)
    mono = check("nondecreasing", fn, n, g)
    if not mono.passed:
        raise NotNondecreasing(
            "function decreases between %s and %s"
            % (mono.witness["operands"]["x"], mono.witness["operands"]["y"]),
            witness=mono.witness,
        )
    off = interval.lo if mode == "maxitive" else interval.hi
    tables = {
        (mask, x): as_fraction(fn(ray(n, mask, x, off))) for mask in range(1 << n) for x in g.axis
    }
    return NormalForm(n, mode, interval, g.axis, tables)


def eval_normal_form(form: NormalForm, x: PointLike) -> Fraction:
    """Lattice combination of the traces; empty meet/join is the box end."""
    coords = _form_coords(form.n, x, form.axis)
    best = None
    for mask in range(1 << form.n):
        members = [coords[i] for i in range(form.n) if mask & (1 << i)]
        if form.mode == "maxitive":
            level = min(members) if members else form.interval.hi
            term = form.trace(mask, level)
            best = term if best is None else max(best, term)
        else:
            level = max(members) if members else form.interval.lo
            term = form.trace(mask, level)
            best = term if best is None else min(best, term)
    return best


def chain_eval_normal_form(form: NormalForm, x: PointLike) -> Fraction:
    """Per-permutation chain view: n terms along the sorted order of x.

    Uses the traces of the upper chains (maxitive) or the lower chains
    (minitive); agrees with eval_normal_form for functions the form
    faithfully represents.
    """
    coords = _form_coords(form.n, x)
    sv = sorted_view(coords)
    best = None
    for i in range(1, form.n + 1):
        xi = coords[sv.perm[i - 1] - 1]
        if form.mode == "maxitive":
            term = form.trace(sv.upper_mask(i), xi)
            best = term if best is None else max(best, term)
        else:
            term = form.trace(sv.lower_mask(i), xi)
            best = term if best is None else min(best, term)
    return best


# --- capacity and transform recovery ------------------------------------------


@dataclass(frozen=True)
class QuasiChoquetFit:
    capacity: SetFunction
    transform: TransformFn

    def to_json(self, mode: str = "rational") -> dict:
        return {
            "fitted": True,
            "capacity": table_json(self.capacity.values, mode),
            "transform": {
                "breakpoints": [
                    [format_fraction(x, mode), format_fraction(y, mode)]
                    for x, y in self.transform.breakpoints
                ],
                "properties": sorted(self.transform.properties),
            },
        }


def _table_from_rays(fn: Callable, n: int, level: Fraction) -> tuple[Fraction, ...]:
    return tuple(as_fraction(fn(ray(n, mask, level))) for mask in range(1 << n))


# The fit skeleton: each fit checks its domain, then the steps below in
# order, and returns the first refusal.  A step's None means it passed;
# a FitRefusal is falsy, so steps are tested with "is None", never chained
# with "or".


def _origin_refusal(fn: Callable, n: int, tol: Fraction) -> Optional[FitRefusal]:
    """Refuse a function that does not vanish at the origin."""
    origin = (ZERO,) * n
    f_zero = as_fraction(fn(origin))
    if _close(f_zero, ZERO, tol):
        return None
    return FitRefusal(
        "vanishes_at_origin", _value_witness(origin, f_zero, ZERO), "f(0) = %s" % f_zero
    )


def _check_refusal(
    fn: Callable, n: int, g: Grid, tol: Fraction, axioms, phi: Optional[TransformFn] = None
) -> Optional[FitRefusal]:
    """Check the hypotheses in order; the first failure becomes the refusal."""
    for axiom in axioms:
        report = check(axiom, fn, n, g, phi=phi, eps=tol)
        if not report.passed:
            return FitRefusal(report.axiom, report.witness)
    return None


def _regenerates(
    fn: Callable, n: int, g: Grid, tol: Fraction, rebuild: Callable, fitted, what: str
):
    """fitted when rebuild reproduces f at every grid point, else a refusal
    at the first point where it does not."""
    for x in grid_points(g, n):
        expect = as_fraction(fn(x))
        got = rebuild(x)
        if not _close(expect, got, tol):
            return FitRefusal(
                "reconstruction",
                _value_witness(x, expect, got),
                "%s does not regenerate f" % what,
            )
    return fitted


def fit_signed_choquet(
    fn: Callable, n: int, grid: GridLike, eps: Scalar = 0
) -> Union[SetFunction, FitRefusal]:
    """Recover a signed capacity from a comonotonically modular black box.

    Checks, in order: the box reaches the unit rays; f vanishes at the
    origin; comonotonic modularity; sign homogeneity on rays; the dual
    shift condition when the box spans [-1, 1].  On success returns the
    table v(S) = f(1_S), guaranteed to regenerate f on the whole grid.
    """
    g = as_grid(grid)
    tol = as_fraction(eps)
    if not (g.box.contains(ZERO) and g.box.contains(ONE)):
        return FitRefusal("domain", None, "box %s cannot reach the 0/1 ray points" % g.box)
    axiom_ids = ["comono_modular", "sign_homog_rays"]
    if g.box.lo <= -1:
        axiom_ids.append("dual_shift")
    refusal = _origin_refusal(fn, n, tol)
    if refusal is None:
        refusal = _check_refusal(fn, n, g, tol, axiom_ids)
    if refusal is not None:
        return refusal
    v = SetFunction(n, _table_from_rays(fn, n, ONE))
    return _regenerates(fn, n, g, tol, lambda x: choquet(v, x), v, "recovered capacity")


def fit_symmetric_choquet(
    fn: Callable, n: int, grid: GridLike, eps: Scalar = 0
) -> Union[SetFunction, FitRefusal]:
    """Like fit_signed_choquet for the odd family: full ray homogeneity
    replaces the sign/dual-shift pair, and the box must be symmetric."""
    g = as_grid(grid)
    tol = as_fraction(eps)
    if not (g.box.is_symmetric and g.box.lo <= -1):
        return FitRefusal(
            "domain", None, "box %s is not a symmetric box containing [-1, 1]" % g.box
        )
    refusal = _check_refusal(fn, n, g, tol, ("comono_modular", "full_homog_rays"))
    if refusal is not None:
        return refusal
    v = SetFunction(n, _table_from_rays(fn, n, ONE))
    return _regenerates(fn, n, g, tol, lambda x: symmetric_choquet(v, x), v, "recovered capacity")


def fit_quasi_choquet(
    fn: Callable, n: int, grid: GridLike, side: str = "pos", eps: Scalar = 0
) -> Union[QuasiChoquetFit, FitRefusal]:
    """Recover (capacity, transform) on a one-signed box.

    side "pos" works on a [0, w]-box with w >= 1 and unit 1_S rays; side
    "neg" works on a [-w, 0]-box and anchors on the -1_S rays, reading the
    capacity off the complements: v(S) = f(-1 on X minus S) - f(-1 on X).
    The transform is pinned to the lexicographically first subset whose
    unit ray value is nonzero, so the returned pair is one representative
    of the scaling class; what is asserted exactly is regeneration of f.
    """
    g = as_grid(grid)
    tol = as_fraction(eps)
    if side not in ("pos", "neg"):
        return FitRefusal("domain", None, "side must be 'pos' or 'neg', got %r" % (side,))
    if side == "pos" and not (g.box.lo == 0 and g.box.hi >= 1):
        return FitRefusal("domain", None, "side 'pos' needs a [0, w] box with w >= 1")
    if side == "neg" and not (g.box.hi == 0 and g.box.lo <= -1):
        return FitRefusal("domain", None, "side 'neg' needs a [-w, 0] box with w >= 1")
    invariance = "invar_horiz_min_diff" if side == "pos" else "invar_horiz_max_diff"
    refusal = _origin_refusal(fn, n, tol)
    if refusal is None:
        refusal = _check_refusal(fn, n, g, tol, (invariance,))
    if refusal is not None:
        return refusal

    sign = ONE if side == "pos" else -ONE
    anchors = _table_from_rays(fn, n, sign)
    base = next((mask for mask in range(1 << n) if abs(anchors[mask]) > tol), None)
    if base is None:
        # anchors[0] is f at the origin: the empty ray
        flat = all(_close(as_fraction(fn(x)), anchors[0], tol) for x in grid_points(g, n))
        return FitRefusal(
            "nonzero_ray",
            None,
            "every unit ray value is zero; the function is %s on the grid"
            % ("constant" if flat else "not constant"),
        )

    denom = anchors[base]
    samples = []
    for x in g.axis:
        value = sign * as_fraction(fn(ray(n, base, x))) / denom
        samples.append((x, value))
    for (x0, y0), (x1, y1) in zip(samples, samples[1:]):
        if y0 > y1 + tol:
            return FitRefusal(
                "phi_nondecreasing",
                {"operands": {"x": x0, "y": x1}, "lhs": y0, "rhs": y1, "relation": "le"},
                "extracted transform decreases",
            )
    try:
        phi = piecewise_linear(samples, [NONDECREASING, VANISHES_AT_0])
    except TransformError as exc:
        # Only reachable with eps > 0: tolerated slack in the checks above can
        # leave samples that violate the exact flags.
        return FitRefusal("transform", None, str(exc))

    refusal = _check_refusal(fn, n, g, tol, ("quasi_homog_rays",), phi=phi)
    if refusal is not None:
        return refusal

    if side == "pos":
        v = SetFunction(n, anchors)
    else:
        full = full_mask(n)
        at_full = anchors[full]
        v = SetFunction(n, tuple(anchors[full ^ mask] - at_full for mask in range(1 << n)))
    return _regenerates(
        fn, n, g, tol, lambda x: quasi_choquet(v, phi, x), QuasiChoquetFit(v, phi), "recovered pair"
    )


# --- quasi-Sugeno factorization -----------------------------------------------


@dataclass(frozen=True)
class QuasiSugenoForm:
    n: int
    box: Interval
    axis: tuple[Fraction, ...]
    mu_values: tuple[Fraction, ...]
    phi_table: dict
    codomain: Optional[Interval] = None

    def phi(self, x: Fraction) -> Fraction:
        try:
            return self.phi_table[x]
        except KeyError:
            raise OffAxisPoint("diagonal trace was not sampled at %s" % x)

    def _terms(self, x: PointLike) -> list[Fraction]:
        """mu(S) /\\ min of the diagonal trace over S, for each S by ascending mask."""
        levels = [self.phi(c) for c in _form_coords(self.n, x)]
        terms = []
        for mask in range(1 << self.n):
            term = self.mu_values[mask]
            for i in range(self.n):
                if mask & (1 << i):
                    term = min(term, levels[i])
            terms.append(term)
        return terms

    def eval(self, x: PointLike) -> Fraction:
        return max(self._terms(x))

    def argmax_subset(self, x: PointLike) -> int:
        """Lexicographically first subset whose term attains the maximum."""
        terms = self._terms(x)
        return terms.index(max(terms))

    def threshold_set(self, x: PointLike) -> tuple[int, ...]:
        """Elements whose diagonal value is dominated by the maximal term."""
        coords = _form_coords(self.n, x)
        level = self.eval(x)
        return tuple(j + 1 for j in range(self.n) if self.phi(coords[j]) <= level)

    def to_json(self, mode: str = "rational") -> dict:
        return {
            "fitted": True,
            "n": self.n,
            "box": self.box.to_json(),
            "axis": [format_fraction(a, mode) for a in self.axis],
            "mu": table_json(self.mu_values, mode),
            "phi": [
                [format_fraction(x, mode), format_fraction(y, mode)]
                for x, y in sorted(self.phi_table.items())
            ],
        }


def factorize_quasi_sugeno(
    fn: Callable,
    n: int,
    grid: GridLike,
    codomain: Optional[Interval] = None,
    eps: Scalar = 0,
) -> Union[QuasiSugenoForm, FitRefusal]:
    """Split a lattice-polynomial-like black box into corner values and a
    diagonal trace.

    Requires f nondecreasing plus both weak homogeneity identities on the
    grid; those suffice to force the max-min representation at every grid
    point, which is asserted before returning.
    """
    g = as_grid(grid)
    tol = as_fraction(eps)
    refusal = _check_refusal(fn, n, g, tol, ("nondecreasing", "weak_max_homog", "weak_min_homog"))
    if refusal is not None:
        return refusal
    corners = [ray(n, mask, g.box.hi, g.box.lo) for mask in range(1 << n)]
    mu = tuple(as_fraction(fn(corner)) for corner in corners)
    phi_table = {x: as_fraction(fn((x,) * n)) for x in g.axis}
    if codomain is not None:
        samples = [(corner, value, "corner") for corner, value in zip(corners, mu)]
        samples += [((x,) * n, value, "diagonal") for x, value in phi_table.items()]
        for point, value, what in samples:
            if not codomain.contains(value):
                return FitRefusal(
                    "codomain",
                    _value_witness(point, value, codomain.lo),
                    "%s value %s escapes %s" % (what, value, codomain),
                )
    form = QuasiSugenoForm(n, g.box, g.axis, mu, phi_table, codomain)
    return _regenerates(fn, n, g, tol, form.eval, form, "max-min form")
