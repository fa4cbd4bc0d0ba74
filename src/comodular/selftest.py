"""Built-in conformance suite.

Eleven numbered criteria exercise the whole stack end to end with seeded
random inputs and exact arithmetic; the report is a deterministic JSON
document (no timestamps, no timings) so two runs with the same inputs are
byte-identical.  The CLI's selftest verb and the shipped acceptance tests
both drive this module.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cache

from . import __version__
from .axioms import GridSpec, as_grid, audit, check, grid_points, replay_witness
from .comono import indicator, split_parts
from .decompose import (
    FitRefusal,
    QuasiChoquetFit,
    build_normal_form,
    build_separation,
    eval_normal_form,
    eval_separation,
    factorize_quasi_sugeno,
    fit_quasi_choquet,
    fit_signed_choquet,
)
from .generate import interval_capacity, monotone_transform, signed_capacity
from .integrals import (
    choquet,
    choquet_via_dual,
    quasi_choquet,
    quasi_sugeno,
    shilkret,
    sugeno,
    sugeno_normal_form,
    symmetric_choquet,
)
from .setfunc import Interval, SetFunction

ZERO = Fraction(0)
UNIT = Interval(0, 1)
WIDE = Interval(-1, 1)
UNIT5 = GridSpec(UNIT, points_per_axis=5)
WIDE5 = GridSpec(WIDE, points_per_axis=5)

CONTROL_V = SetFunction(2, (Fraction(0), Fraction(3, 10), Fraction(1, 2), Fraction(1)))
CONTROL_MU = SetFunction(2, (Fraction(0), Fraction(3, 10), Fraction(3, 5), Fraction(1)))


def _mean(coords):
    return Fraction(sum(coords, ZERO), len(coords))


def _criterion_1(mode):
    """Unit rays reproduce the defining table entry for entry."""
    checked = 0
    for seed in range(1, 51):
        n = (seed - 1) % 5 + 1
        v = signed_capacity(seed, n)
        for mask in range(1 << n):
            point = indicator(n, mask, kind="unit")
            if choquet(v, point) != v.values[mask]:
                return False, {"seed": seed, "subset": mask}
            checked += 1
    return True, {"capacities": 50, "rays_checked": checked}


def _criterion_2(mode):
    """Positive part against the table, negative part against its dual."""
    points = 0
    for seed in range(1, 21):
        n = (seed - 1) % 4 + 1
        v = signed_capacity(seed, n)
        grid = as_grid(GridSpec(WIDE, points_per_axis=5))
        for x in grid_points(grid, n):
            if choquet(v, x) != choquet_via_dual(v, x):
                return False, {"seed": seed, "x": [str(c) for c in x]}
            points += 1
    return True, {"capacities": 20, "points_checked": points}


def _criterion_3(mode):
    """Region sums and the split difference agree; the result is odd."""
    points = 0
    for seed in range(1, 21):
        n = (seed - 1) % 4 + 1
        v = signed_capacity(seed, n)
        grid = as_grid(GridSpec(WIDE, points_per_axis=5))
        for x in grid_points(grid, n):
            value = symmetric_choquet(v, x, checked=True)
            pos, neg = split_parts(x)
            if value != choquet(v, pos) - choquet(v, neg):
                return False, {"seed": seed, "x": [str(c) for c in x]}
            if symmetric_choquet(v, tuple(-c for c in x)) != -value:
                return False, {"seed": seed, "x": [str(c) for c in x], "odd": False}
            points += 1
    return True, {"capacities": 20, "points_checked": points}


def _criterion_4(mode):
    """The three signed-family conditions hold and the table is recovered."""
    audited = []
    for seed in range(1, 7):
        n = (seed - 1) % 3 + 1
        v = signed_capacity(seed, n)
        fn = cache(lambda coords, v=v: choquet(v, coords))
        result = audit(fn, n, WIDE5, ["comono_modular", "sign_homog_rays", "dual_shift"])
        verdicts = {r.axiom: r.passed for r in result.reports}
        if not all(verdicts.values()):
            return False, {"seed": seed, "verdicts": verdicts}
        if fn((ZERO,) * n) != 0:
            return False, {"seed": seed, "origin": str(fn((ZERO,) * n))}
        fit = fit_signed_choquet(fn, n, WIDE5)
        if isinstance(fit, FitRefusal) or fit.values != v.values:
            return False, {"seed": seed, "fit": "mismatch"}
        audited.append(seed)
    return True, {"capacities": audited}


def _criterion_5(mode):
    """Clipping to the positive part spares two conditions, breaks the third."""
    for seed in range(1, 21):
        v = signed_capacity(seed, 2)
        if v.values == v.dual().values:
            continue
        fn = cache(
            lambda coords, v=v: choquet(v, tuple(max(ZERO, c) for c in coords))
        )
        if not check("comono_modular", fn, 2, WIDE5).passed:
            return False, {"seed": seed, "lost": "comono_modular"}
        if not check("sign_homog_rays", fn, 2, WIDE5).passed:
            return False, {"seed": seed, "lost": "sign_homog_rays"}
        report = check("dual_shift", fn, 2, WIDE5)
        if report.passed:
            return False, {"seed": seed, "dual_shift": "unexpected pass"}
        if replay_witness("dual_shift", fn, report.witness, WIDE5, 2):
            return False, {"seed": seed, "witness": "does not replay"}
        return True, {"seed": seed, "witness": report.to_json(mode)["witness"]}
    return False, {"detail": "no seed produced a non-self-dual table"}


def _criterion_6(mode):
    """Orthant telescopes rebuild both integral families point for point."""
    points = 0
    for seed in range(1, 7):
        n = (seed - 1) % 3 + 1
        v = signed_capacity(seed, n)
        for label, fn in (
            ("signed", lambda coords, v=v: choquet(v, coords)),
            ("symmetric", lambda coords, v=v: symmetric_choquet(v, coords)),
        ):
            form = build_separation(fn, n, WIDE5)
            for x in grid_points(as_grid(WIDE5), n):
                if eval_separation(form, x) != fn(x):
                    return False, {"seed": seed, "family": label, "x": [str(c) for c in x]}
                points += 1
    return True, {"capacities": 6, "points_checked": points}


def _criterion_7(mode):
    """Sorted form, normal form, lattice audits, and trace round-trips."""
    points = 0
    for seed in range(1, 21):
        n = (seed - 1) % 4 + 1
        mu = interval_capacity(seed, n, UNIT)
        fn = cache(lambda coords, mu=mu: sugeno(mu, coords, interval=UNIT))
        for x in grid_points(as_grid(UNIT5), n):
            if fn(x) != sugeno_normal_form(mu, x, interval=UNIT):
                return False, {"seed": seed, "x": [str(c) for c in x]}
            points += 1
        for axiom in ("comono_maxitive", "comono_minitive", "idempotent"):
            if not check(axiom, fn, n, UNIT5).passed:
                return False, {"seed": seed, "lost": axiom}
        for form_mode in ("maxitive", "minitive"):
            form = build_normal_form(fn, n, UNIT, form_mode, UNIT5)
            for x in grid_points(as_grid(UNIT5), n):
                if eval_normal_form(form, x) != fn(x):
                    return False, {"seed": seed, "mode": form_mode}
    return True, {"capacities": 20, "points_checked": points}


def _criterion_8(mode):
    """Joint maxitivity and minitivity force modularity; the mean does not
    travel the other way."""
    pool = []
    for seed in range(1, 4):
        v = signed_capacity(seed, 2)
        pool.append(("choquet-%d" % seed, cache(lambda c, v=v: choquet(v, c)), WIDE5))
        mu = interval_capacity(seed, 2, UNIT)
        pool.append(
            ("sugeno-%d" % seed, cache(lambda c, mu=mu: sugeno(mu, c, interval=UNIT)), UNIT5)
        )
    pool.append(("shilkret", cache(lambda c: shilkret(CONTROL_MU, c)), UNIT5))
    pool.append(("mean", _mean, UNIT5))
    table = {}
    for name, fn, grid in pool:
        verdicts = {
            axiom: check(axiom, fn, 2, grid).passed
            for axiom in ("comono_maxitive", "comono_minitive", "comono_modular")
        }
        if verdicts["comono_maxitive"] and verdicts["comono_minitive"]:
            if not verdicts["comono_modular"]:
                return False, {"function": name, "verdicts": verdicts}
        table[name] = verdicts
    if not table["mean"]["comono_modular"]:
        return False, {"mean": "lost comono_modular"}
    report = check("comono_maxitive", _mean, 2, GridSpec(UNIT, points_per_axis=3))
    if report.passed:
        return False, {"mean": "unexpectedly comono_maxitive"}
    witness = report.to_json(mode)["witness"]
    half = Fraction(1, 2)
    if report.witness["operands"] != {"x": (ZERO, Fraction(1)), "y": (half, half)}:
        return False, {"mean": "witness drifted", "witness": witness}
    return True, {"functions": sorted(table), "mean_witness": witness}


def _criterion_9(mode):
    """The max-of-products control sits outside the modular class."""
    fn = cache(lambda c: shilkret(CONTROL_MU, c))
    if not check("comono_maxitive", fn, 2, UNIT5).passed:
        return False, {"lost": "comono_maxitive"}
    details = {}
    for axiom in ("comono_minitive", "comono_modular"):
        report = check(axiom, fn, 2, UNIT5)
        if report.passed:
            return False, {axiom: "unexpected pass"}
        if replay_witness(axiom, fn, report.witness, UNIT5, 2):
            return False, {axiom: "witness does not replay"}
        details[axiom] = report.to_json(mode)["witness"]
    return True, details


def _criterion_10(mode):
    """Corner tables and diagonal traces rebuild transformed lattice
    functions; a genuinely additive integral is turned away."""
    points = 0
    for seed in range(1, 11):
        n = (seed - 1) % 3 + 1
        mu = interval_capacity(seed, n, UNIT)
        phi = monotone_transform(seed)
        fn = cache(lambda coords, mu=mu, phi=phi: quasi_sugeno(mu, phi, coords, interval=UNIT))
        form = factorize_quasi_sugeno(fn, n, UNIT5)
        if isinstance(form, FitRefusal):
            return False, {"seed": seed, "refused": form.condition}
        for x in grid_points(as_grid(UNIT5), n):
            if form.eval(x) != fn(x):
                return False, {"seed": seed, "x": [str(c) for c in x]}
            points += 1
    refusal = factorize_quasi_sugeno(
        cache(lambda c: choquet(CONTROL_V, c)), 2, UNIT5
    )
    if not isinstance(refusal, FitRefusal) or refusal.condition != "weak_max_homog":
        return False, {"control": "additive integral was not refused"}
    return True, {
        "pairs": 10,
        "points_checked": points,
        "control_witness": refusal.to_json(mode)["witness"],
    }


def _criterion_11(mode):
    """Capacity and transform come back from one-sided samples; the zero
    function is refused for lack of a nonzero ray."""
    points = 0
    for seed in range(1, 11):
        n = (seed - 1) % 3 + 1
        v = signed_capacity(seed, n)
        phi = monotone_transform(seed)
        fn = cache(lambda coords, v=v, phi=phi: quasi_choquet(v, phi, coords))
        fit = fit_quasi_choquet(fn, n, UNIT5, side="pos")
        if not isinstance(fit, QuasiChoquetFit):
            return False, {"seed": seed, "refused": fit.condition}
        for x in grid_points(as_grid(UNIT5), n):
            if quasi_choquet(fit.capacity, fit.transform, x) != fn(x):
                return False, {"seed": seed, "x": [str(c) for c in x]}
            points += 1
    refusal = fit_quasi_choquet(lambda c: ZERO, 2, UNIT5, side="pos")
    if not isinstance(refusal, FitRefusal) or refusal.condition != "nonzero_ray":
        return False, {"zero": "was not refused"}
    return True, {"pairs": 10, "points_checked": points, "zero_refusal": refusal.condition}


CRITERIA = (
    (1, "unit rays reproduce the capacity table", _criterion_1),
    (2, "splitting at zero matches the dual-table evaluation", _criterion_2),
    (3, "both symmetric evaluations agree and are odd", _criterion_3),
    (4, "signed-family conditions hold and fitting recovers the table", _criterion_4),
    (5, "clipped integrals fail exactly the dual-shift condition", _criterion_5),
    (6, "orthant separation rebuilds both integral families", _criterion_6),
    (7, "sorted and normal lattice forms agree and round-trip", _criterion_7),
    (8, "maxitive plus minitive implies modular; the mean is the near-miss", _criterion_8),
    (9, "the max-of-products control is maxitive only", _criterion_9),
    (10, "lattice factorization round-trips and refuses additivity", _criterion_10),
    (11, "one-sided fits recover capacity and transform", _criterion_11),
)


def run(mode: str = "rational") -> dict:
    """Execute all criteria and assemble the deterministic report."""
    results = []
    passed = True
    for cid, title, fn in CRITERIA:
        ok, details = fn(mode)
        passed = passed and ok
        results.append({"id": cid, "title": title, "pass": ok, "details": details})
    return {
        "suite": "comodular selftest",
        "version": __version__,
        "mode": mode,
        "passed": passed,
        "criteria": results,
    }


def render_json(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


def render_text(report: dict) -> str:
    lines = ["comodular selftest (mode: %s)" % report["mode"]]
    for entry in report["criteria"]:
        lines.append(
            "%2d %s: %s" % (entry["id"], entry["title"], "PASS" if entry["pass"] else "FAIL")
        )
    lines.append("overall: %s" % ("PASS" if report["passed"] else "FAIL"))
    return "\n".join(lines) + "\n"
