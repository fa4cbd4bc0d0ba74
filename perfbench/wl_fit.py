"""fit: generating data recovered from black boxes, and form round trips.

One op is one fit, or one build-and-evaluate round trip of a canonical
form, on its own seeded grid.  The black boxes are plain integral calls,
not memoized, as a caller of the fit functions would pass them.  Every
round runs each op type once on each cell of CELLS.

Eight types use generating functions and succeed, so they pay for the
hypothesis checks plus a full reconstruction sweep; five use controls that
are refused at the first failed check.  Thirteen types on five cells make
an odd round, so the median op falls inside one cell's cluster of
latencies rather than in the gap between two.  The oracle regenerates f on the
whole grid from the returned data with the reference evaluators, and
checks each refusal's condition and replays its witness.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import reference as ref
from comodular import axioms, decompose, generate, integrals
from comodular.setfunc import SetFunction
from comodular.transforms import NONDECREASING, VANISHES_AT_0, piecewise_linear
from grids import NEGATIVE, UNIT, WIDE, seeded_grid
from harness import Op

NAME = "fit"
TRACE_ROUNDS = 2
ZERO = Fraction(0)
CELLS = ((2, 5), (2, 7), (3, 4), (3, 5), (4, 3))
FORMS = ("separation", "normal_max", "normal_min")

# type -> (box, anchors, refusal condition or None when it must succeed)
TYPES = {
    "signed": (WIDE, (0,), None),
    "symmetric": (WIDE, (0,), None),
    "quasi_pos": (UNIT, (0, 1), None),
    "quasi_neg": (NEGATIVE, (-1, 0), None),
    "quasi_sugeno": (UNIT, (0, 1), None),
    "separation": (WIDE, (0,), None),
    "normal_max": (UNIT, (0, 1), None),
    "normal_min": (UNIT, (0, 1), None),
    "signed_clipped": (WIDE, (0,), "dual_shift"),
    "symmetric_asym": (WIDE, (-1, 0), "full_homog_rays"),
    "quasi_product": (UNIT, (0, 1), "invar_horiz_min_diff"),
    "quasi_neg_product": (NEGATIVE, (-1, 0), "invar_horiz_max_diff"),
    "quasi_sugeno_additive": (UNIT, (0, 1), "weak_max_homog"),
}


def _full(n):
    return (1 << n) - 1


def _tables(kind, seed, n):
    """Generated tables; the seed moves on until a control's refusal is
    forced on every grid with its anchors."""
    while True:
        signed = generate.signed_capacity(seed, n)
        mu = generate.interval_capacity(seed, n, UNIT)
        cap = generate.capacity(seed, n)
        v, top = signed.values, _full(n)
        if kind == "signed_clipped":
            ok = any(v[top ^ s] != v[top] for s in range(1 << n))
        elif kind == "symmetric_asym":
            ok = any(v[s] != v[top] - v[top ^ s] for s in range(1 << n))
        elif kind == "quasi_sugeno_additive":
            ok = any(0 < c < cap.values[top] for c in cap.values)
        elif kind in ("signed", "quasi_pos", "quasi_neg"):
            ok = any(v)  # a nonzero unit ray anchors the fitted transform
        else:
            ok = True
        if ok:
            return signed, mu, cap
        seed += 1


def _negative_transform(phi):
    """phi on [0, 1] shifted to [-1, 0]; still nondecreasing, 0 at 0."""
    return piecewise_linear([(x - 1, y - 1) for x, y in phi.breakpoints],
                            [NONDECREASING, VANISHES_AT_0])


def _product(coords):
    out = Fraction(1)
    for c in coords:
        out *= c
    return out


def _negative_product(coords):
    """-prod |x_i|: vanishes at 0, breaks max-side horizontal invariance."""
    return -abs(_product(coords))


def _generator(kind, signed, mu, cap, phi):
    """(black box, reference for it) for a succeeding type."""
    values, bps = signed.values, phi.breakpoints
    if kind in ("signed", "separation"):
        return (lambda c: integrals.choquet(signed, c)), (lambda x: ref.choquet(values, x))
    if kind == "symmetric":
        return ((lambda c: integrals.symmetric_choquet(signed, c)),
                (lambda x: ref.symmetric_choquet(values, x)))
    if kind == "quasi_pos":
        return ((lambda c: integrals.quasi_choquet(signed, phi, c)),
                (lambda x: ref.quasi_choquet(values, bps, x)))
    if kind == "quasi_neg":
        neg = _negative_transform(phi)
        return ((lambda c: integrals.quasi_choquet(signed, neg, c)),
                (lambda x: ref.quasi_choquet(values, neg.breakpoints, x)))
    if kind == "quasi_sugeno":
        return ((lambda c: integrals.quasi_sugeno(mu, phi, c, UNIT)),
                (lambda x: ref.quasi_sugeno(mu.values, bps, x)))
    return (lambda c: integrals.sugeno(mu, c, UNIT)), (lambda x: ref.sugeno(mu.values, x))


def _control(kind, signed, cap):
    if kind == "signed_clipped":
        return lambda c: integrals.choquet(signed, tuple(max(ZERO, a) for a in c))
    if kind == "symmetric_asym":
        return lambda c: integrals.choquet(signed, c)
    if kind == "quasi_product":
        return _product
    if kind == "quasi_neg_product":
        return _negative_product
    return lambda c: integrals.choquet(cap, c)


def _call(kind, fn, n, grid):
    if kind in ("signed", "signed_clipped"):
        return decompose.fit_signed_choquet(fn, n, grid)
    if kind in ("symmetric", "symmetric_asym"):
        return decompose.fit_symmetric_choquet(fn, n, grid)
    if kind in ("quasi_pos", "quasi_product"):
        return decompose.fit_quasi_choquet(fn, n, grid, side="pos")
    if kind in ("quasi_neg", "quasi_neg_product"):
        return decompose.fit_quasi_choquet(fn, n, grid, side="neg")
    if kind in ("quasi_sugeno", "quasi_sugeno_additive"):
        return decompose.factorize_quasi_sugeno(fn, n, grid)
    points = axioms.grid_points(grid, n)
    if kind == "separation":
        form = decompose.build_separation(fn, n, grid)
        return form, [decompose.eval_separation(form, x) for x in points]
    mode = "maxitive" if kind == "normal_max" else "minitive"
    form = decompose.build_normal_form(fn, n, UNIT, mode, grid)
    return form, [decompose.eval_normal_form(form, x) for x in points]


def _regenerates(kind, out, f_ref, points):
    """Does the returned data reproduce f at every grid point?"""
    if kind in ("signed", "symmetric"):
        if not isinstance(out, SetFunction):
            return False
        rebuild = ref.choquet if kind == "signed" else ref.symmetric_choquet
        return all(rebuild(out.values, x) == f_ref(x) for x in points)
    if kind in ("quasi_pos", "quasi_neg"):
        if not isinstance(out, decompose.QuasiChoquetFit):
            return False
        vals, bps = out.capacity.values, out.transform.breakpoints
        return all(ref.quasi_choquet(vals, bps, x) == f_ref(x) for x in points)
    if kind == "quasi_sugeno":
        if not isinstance(out, decompose.QuasiSugenoForm):
            return False
        return all(ref.max_min_form(out.mu_values, out.phi_table, x) == f_ref(x) for x in points)
    form, evals = out
    if kind == "separation":
        rebuilt = [ref.separation(form.f_zero, form.g_table, form.h_table, x) for x in points]
    else:
        lo, hi = form.interval.lo, form.interval.hi
        rebuilt = [ref.normal_form(form.mode, lo, hi, form.tables, x) for x in points]
    expect = [f_ref(x) for x in points]
    return rebuilt == expect and list(evals) == expect


def _canon(out):
    if isinstance(out, SetFunction):
        return " ".join(str(v) for v in out.values)
    if isinstance(out, tuple):
        form, evals = out
        return "%s %s" % (json.dumps(form.to_json(), sort_keys=True), " ".join(map(str, evals)))
    return json.dumps(out.to_json(), sort_keys=True)


class State:
    def __init__(self, seed, variant):
        self.seed = seed
        self.variant = variant
        self.tracer = None


def setup(seed, variant="main"):
    state = State(seed, variant)
    # Warm-up: every op type once at n = 2 on grids no op will draw.
    for i, kind in enumerate(TYPES):
        op = _make(state, kind, 2, 3, random.Random("fit-warm:%d:%d" % (seed, i)))
        op.run()
    return state


def teardown(state):
    pass


def round_size(state):
    return len(TYPES) * len(CELLS)


def make_op(state, stream, i):
    pos = i % round_size(state)
    kind = list(TYPES)[pos // len(CELLS)]
    n, k = CELLS[pos % len(CELLS)]
    rng = random.Random("fit:%d:%s:%s:%d" % (state.seed, state.variant, stream, i))
    return _make(state, kind, n, k, rng)


def _make(state, kind, n, k, rng):
    box, anchors, condition = TYPES[kind]
    signed, mu, cap = _tables(kind, rng.randrange(1 << 30), n)
    phi = generate.monotone_transform(rng.randrange(1 << 30))
    grid = seeded_grid(rng, box, k, n, anchors)
    if condition is None:
        raw, f_ref = _generator(kind, signed, mu, cap, phi)
    else:
        raw, f_ref = _control(kind, signed, cap), None
    calls = [0]

    def fn(coords):
        calls[0] += 1
        return raw(coords)

    tracer = state.tracer

    def run():
        out = _call(kind, fn, n, grid)
        if tracer is not None:
            tracer.counts["decompose.fit.fn_calls"] += calls[0]
            if kind not in FORMS:
                refused = isinstance(out, decompose.FitRefusal)
                tracer.counts["decompose.fit.refused" if refused else "decompose.fit.fitted"] += 1
        return out

    def check(out):
        if condition is not None:
            return (isinstance(out, decompose.FitRefusal) and out.condition == condition
                    and not axioms.replay_witness(condition, raw, out.witness, grid, n))
        return _regenerates(kind, out, f_ref, axioms.grid_points(grid, n))

    return Op(run=run, check=check, canon=lambda out: "%s %s" % (kind, _canon(out)),
              cell="%s/n%d/k%d" % (kind, n, k), grid_points=k ** n,
              instances=lambda out: calls[0])
