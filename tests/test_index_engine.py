"""The digit-lattice pair checks held to a brute-force reference.

``check`` runs modular, maxitive, minitive, their comonotonic versions and
nondecreasing on axis indices.  The reference below shares nothing with it
but ``is_comonotonic``: it lists every pair of grid points, keeps the
comonotonic ones by that predicate, evaluates both sides on Fraction
tuples and picks the smallest violation by sorting.  Verdict, rendered
witness, tested and skipped must agree, and the black box must be called
exactly once per point the reference touches.
"""

from fractions import Fraction as F
from functools import lru_cache
from itertools import product

import pytest

from comodular import Interval, choquet, sugeno
from comodular.axioms import check
from comodular.comono import is_comonotonic
from comodular.generate import interval_capacity, signed_capacity

PAIR_AXIOMS = (
    "modular",
    "comono_modular",
    "maxitive",
    "minitive",
    "comono_maxitive",
    "comono_minitive",
    "nondecreasing",
)

# (n, axis, eps): asymmetric, unevenly spaced, one-sided and two-point
# axes; eps > 0 is checked in float mode, where witnesses render as floats.
GRIDS = [
    (1, ("-2", "-1/3", "0", "3/2"), 0),
    (1, ("1/3", "2"), F(1, 100)),
    (2, ("0", "1/7", "1/2", "1"), F(1, 100)),
    (2, ("-2", "-1/3", "0", "3/2"), 0),
    (2, ("-1", "1"), 0),
    (3, ("-1", "-1/4", "0", "2"), 0),
    (3, ("0", "1/5", "1"), F(1, 100)),
    (4, ("-1/2", "0", "2"), F(1, 100)),
]


def _functions(n, axis):
    box = Interval(axis[0], axis[-1])
    v = signed_capacity(len(axis) + n, n)
    mu = interval_capacity(len(axis) + n, n, box)
    return {
        "choquet": lambda c: choquet(v, c),
        "sugeno": lambda c: sugeno(mu, c, box),
        "mean": lambda c: sum(c, F(0)) / len(c),
        "max": max,
        # a Choquet integral bent by a product term of a few hundredths
        "bumpy": lambda c: choquet(v, c) + c[0] * c[-1] / 100,
    }


@lru_cache(maxsize=None)
def _instances(axiom, axis, n):
    points = sorted(product(axis, repeat=n))
    if axiom == "nondecreasing":
        up = dict(zip(axis, axis[1:]))
        return [
            (x, x[:i] + (up[a],) + x[i + 1 :]) for x in points for i, a in enumerate(x) if a in up
        ]
    pairs = [(x, y) for i, x in enumerate(points) for y in points[i:]]
    if axiom.startswith("comono_"):
        pairs = [(x, y) for x, y in pairs if is_comonotonic(x, y)]
    return pairs


def _sides(axiom, f, x, y):
    low = tuple(min(a, b) for a, b in zip(x, y))
    high = tuple(max(a, b) for a, b in zip(x, y))
    if axiom.endswith("modular"):
        return f(x) + f(y), f(low) + f(high), "eq"
    if axiom.endswith("maxitive"):
        return f(high), max(f(x), f(y)), "eq"
    if axiom.endswith("minitive"):
        return f(low), min(f(x), f(y)), "eq"
    return f(x), f(y), "le"


def _render(q, mode):
    return repr(float(q)) if mode == "float" else str(q)


def reference_check(axiom, fn, n, axis, eps, mode):
    """(report JSON, points touched) by exhaustive Fraction evaluation."""
    touched = {}

    def f(x):
        got = touched.get(x)
        if got is None:
            got = touched[x] = F(fn(x))
        return got

    failures = []
    instances = _instances(axiom, axis, n)
    for x, y in instances:
        lhs, rhs, relation = _sides(axiom, f, x, y)
        holds = lhs <= rhs + eps if relation == "le" else abs(lhs - rhs) <= eps
        if not holds:
            failures.append((x + y, x, y, lhs, rhs, relation))
    witness = None
    if failures:
        _, x, y, lhs, rhs, relation = sorted(failures)[0]
        witness = {
            "operands": {"x": [_render(a, mode) for a in x], "y": [_render(a, mode) for a in y]},
            "lhs": _render(lhs, mode),
            "rhs": _render(rhs, mode),
            "relation": relation,
        }
    report = {
        "axiom": axiom,
        "verdict": "fail" if failures else "pass",
        "witness": witness,
        "tested": len(instances),
        "skipped": 0,
    }
    return report, set(touched)


@pytest.mark.parametrize(
    "n,axis,eps", GRIDS, ids=["n%d-%s" % (n, ",".join(a)) for n, a, _ in GRIDS]
)
def test_pair_checks_match_the_brute_force_reference(n, axis, eps):
    axis = tuple(F(a) for a in axis)
    mode = "float" if eps else "rational"
    verdicts = set()
    for name, fn in _functions(n, axis).items():
        for axiom in PAIR_AXIOMS:
            calls = []

            def counted(x, fn=fn):
                calls.append(x)
                return fn(x)

            got = check(axiom, counted, n, axis, eps=eps).to_json(mode)
            want, touched = reference_check(axiom, fn, n, axis, eps, mode)
            assert got == want, (name, axiom)
            assert len(calls) == len(set(calls)) and set(calls) == touched, (name, axiom)
            verdicts.add(got["verdict"])
    assert verdicts == {"pass", "fail"}
