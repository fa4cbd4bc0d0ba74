import random
from fractions import Fraction
from functools import lru_cache
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comodular.comono import Point, indicator, split_parts
from comodular.errors import (
    DimensionMismatch,
    MissingTransform,
    NegativeInput,
    NotCapacity,
    NotIntervalCapacity,
    NotSignedCapacity,
    PointOutsideInterval,
    TransformPropertyMissing,
    TransformRangeError,
)
from comodular.integrals import (
    _choquet_with_order,
    black_box,
    choquet,
    choquet_via_dual,
    quasi_choquet,
    quasi_sugeno,
    shilkret,
    sugeno,
    sugeno_normal_form,
    symmetric_choquet,
    symmetric_quasi_choquet,
)
from comodular.setfunc import Interval, SetFunction, full_mask
from comodular.transforms import identity, named_transform, piecewise_linear

F = Fraction

V = SetFunction(2, (F(0), F(3, 10), F(1, 2), F(1)))
MU = SetFunction(2, (F(0), F(3, 10), F(3, 5), F(1)))
UNIT = Interval(0, 1)


def mobius_min_form(v, coords):
    """Independent oracle: inclusion-exclusion weights times subset minima.

    The sorted-chain evaluation is linear in the set function, and on the
    unanimity function of T it produces min over T, so this expansion must
    reproduce it everywhere.
    """
    n = v.n
    total = F(0)
    for s in range(1, 1 << n):
        m = F(0)
        t = s
        while True:
            m += (-1) ** ((s ^ t).bit_count()) * v.values[t]
            if t == 0:
                break
            t = (t - 1) & s
        total += m * min(coords[i] for i in range(n) if s & (1 << i))
    return total


def signed_tables(n, bound=3, denom=12):
    return st.lists(
        st.fractions(min_value=-bound, max_value=bound, max_denominator=denom),
        min_size=(1 << n) - 1,
        max_size=(1 << n) - 1,
    ).map(lambda tail: SetFunction(n, tuple([F(0)] + tail)))


def unit_capacities(n):
    """Monotone tables pinned to [0, 1] endpoints."""

    def build(incs):
        vals = [F(0)] * (1 << n)
        for mask in range(1, 1 << n):
            below = max(vals[mask & ~(1 << i)] for i in range(n) if mask & (1 << i))
            vals[mask] = below + incs[mask - 1]
        top = vals[-1]
        if top == 0:
            vals[-1] = F(1)
        else:
            vals = [x / top for x in vals]
        return SetFunction(n, tuple(vals))

    return st.lists(
        st.fractions(min_value=0, max_value=1, max_denominator=8),
        min_size=(1 << n) - 1,
        max_size=(1 << n) - 1,
    ).map(build)


def points(n, lo=-3, hi=3):
    return st.lists(
        st.fractions(min_value=lo, max_value=hi, max_denominator=12),
        min_size=n,
        max_size=n,
    ).map(tuple)


class TestChoquet:
    def test_indicator_reproduces_table(self):
        for mask in range(4):
            x = indicator(2, mask)
            assert choquet(V, x) == V.values[mask]

    def test_worked_example(self):
        assert choquet(V, ("1/5", "7/10")) == F(9, 20)

    def test_zero(self):
        assert choquet(V, (0, 0)) == 0

    def test_requires_signed(self):
        with pytest.raises(NotSignedCapacity):
            choquet(SetFunction(1, (F(1), F(1))), (1,))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            choquet(V, (1, 2, 3))

    @given(signed_tables(3), points(3))
    def test_matches_inclusion_exclusion_oracle(self, v, coords):
        assert choquet(v, coords) == mobius_min_form(v, coords)

    @given(signed_tables(3), points(3), st.fractions(min_value=F(1, 7), max_value=4, max_denominator=7))
    def test_positively_homogeneous(self, v, coords, c):
        scaled = tuple(c * a for a in coords)
        assert choquet(v, scaled) == c * choquet(v, coords)

    @given(signed_tables(2), st.data())
    @settings(max_examples=60)
    def test_tie_independence_under_all_admissible_orders(self, v, data):
        pool = [F(-1), F(0), F(1, 2)]
        coords = tuple(data.draw(st.sampled_from(pool)) for _ in range(2))
        values = {
            _choquet_with_order(v, coords, perm)
            for perm in permutations(range(1, 3))
            if all(coords[a - 1] <= coords[b - 1] for a, b in zip(perm, perm[1:]))
        }
        assert values == {choquet(v, coords)}

    def test_tie_independence_exhaustive_n5(self):
        v = SetFunction(5, tuple(F(m % 7 - 3, 4) if m else F(0) for m in range(32)))
        coords = (F(1, 2), F(-1), F(1, 2), F(-1), F(1, 2))
        expected = choquet(v, coords)
        admissible = [
            perm
            for perm in permutations(range(1, 6))
            if all(coords[a - 1] <= coords[b - 1] for a, b in zip(perm, perm[1:]))
        ]
        assert len(admissible) == 12
        for perm in admissible:
            assert _choquet_with_order(v, coords, perm) == expected


class TestSymmetricChoquet:
    def test_worked_example(self):
        assert symmetric_choquet(V, ("-1/2", "7/10")) == F(1, 5)

    def test_odd_on_example(self):
        assert symmetric_choquet(V, ("1/2", "-7/10")) == F(-1, 5)

    def test_zero(self):
        assert symmetric_choquet(V, (0, 0)) == 0

    @given(signed_tables(3), points(3))
    def test_checked_mode_region_formula_agrees(self, v, coords):
        assert symmetric_choquet(v, coords, checked=True) == symmetric_choquet(v, coords)

    @given(signed_tables(3), points(3))
    def test_odd(self, v, coords):
        neg = tuple(-a for a in coords)
        assert symmetric_choquet(v, neg) == -symmetric_choquet(v, coords)

    @given(signed_tables(3), points(3, lo=0))
    def test_agrees_with_choquet_on_nonnegative_inputs(self, v, coords):
        assert symmetric_choquet(v, coords) == choquet(v, coords)


class TestChoquetViaDual:
    def test_worked_example(self):
        assert choquet_via_dual(V, ("-1/2", "7/10")) == F(1, 10)
        assert choquet(V, ("-1/2", "7/10")) == F(1, 10)

    @given(signed_tables(3), points(3))
    def test_identity_with_direct_evaluation(self, v, coords):
        assert choquet_via_dual(v, coords) == choquet(v, coords)

    @given(signed_tables(3), points(3, lo=0))
    def test_nonnegative_reduces_to_choquet_trivially(self, v, coords):
        pos, neg = split_parts(coords)
        assert neg.coords == tuple([F(0)] * 3)
        assert choquet_via_dual(v, coords) == choquet(v, pos)


class TestSugeno:
    def test_worked_example(self):
        assert sugeno(MU, ("1/5", "4/5"), UNIT) == F(3, 5)

    def test_idempotent_on_diagonal(self):
        for c in (F(0), F(1, 3), F(1)):
            assert sugeno(MU, (c, c), UNIT) == c

    def test_corners_reproduce_table(self):
        for mask in range(4):
            x = indicator(2, mask, kind="endpoints", interval=UNIT)
            assert sugeno(MU, x) == MU.values[mask]

    def test_interval_can_come_from_table_endpoints(self):
        assert sugeno(MU, ("1/5", "4/5")) == F(3, 5)

    def test_point_outside_scale(self):
        with pytest.raises(PointOutsideInterval):
            sugeno(MU, (2, 0), UNIT)

    def test_not_interval_capacity(self):
        with pytest.raises(NotIntervalCapacity):
            sugeno(MU, ("1/5", "4/5"), Interval(0, 2))

    @given(unit_capacities(3), points(3, lo=0, hi=1))
    def test_normal_form_agrees_with_sorted_form(self, mu, coords):
        assert sugeno(mu, coords, UNIT) == sugeno_normal_form(mu, coords, UNIT)

    def test_normal_form_examples(self):
        assert sugeno_normal_form(MU, ("1/5", "4/5"), UNIT) == F(3, 5)
        assert sugeno_normal_form(MU, (1, 1), UNIT) == 1
        assert sugeno_normal_form(MU, (0, 0), UNIT) == 0


class TestQuasiChoquet:
    PHI = piecewise_linear([(0, 0), ("1/2", 1), (1, 1)], ["nondecreasing", "vanishes-at-0"])

    def test_worked_example(self):
        assert quasi_choquet(V, self.PHI, ("1/5", "7/10")) == F(7, 10)

    def test_identity_transform_is_plain_choquet(self):
        assert quasi_choquet(V, identity(), ("1/5", "7/10")) == F(9, 20)

    def test_zero(self):
        assert quasi_choquet(V, self.PHI, (0, 0)) == 0

    def test_missing_properties(self):
        undeclared = piecewise_linear([(0, 0), (1, 1)])
        with pytest.raises(TransformPropertyMissing):
            quasi_choquet(V, undeclared, ("1/2", "1/2"))
        with pytest.raises(MissingTransform):
            quasi_choquet(V, None, ("1/2", "1/2"))


class TestSymmetricQuasiChoquet:
    def test_identity_is_plain_symmetric(self):
        assert symmetric_quasi_choquet(V, identity(), ("-1/2", "7/10")) == F(1, 5)

    def test_odd_composition(self):
        phi = named_transform("cube")
        x = ("-1/2", "7/10")
        neg = ("1/2", "-7/10")
        assert symmetric_quasi_choquet(V, phi, neg) == -symmetric_quasi_choquet(V, phi, x)

    def test_odd_flag_required(self):
        even_ish = piecewise_linear([(0, 0), (1, 1)], ["nondecreasing", "vanishes-at-0"])
        with pytest.raises(TransformPropertyMissing):
            symmetric_quasi_choquet(V, even_ish, ("1/2", "1/2"))


class TestQuasiSugeno:
    def test_worked_example(self):
        phi = piecewise_linear([(0, 0), (1, "1/2")], ["nondecreasing"])
        assert quasi_sugeno(MU, phi, ("1/5", "4/5"), UNIT) == F(2, 5)

    def test_identity_is_plain_sugeno(self):
        assert quasi_sugeno(MU, identity(), ("1/5", "4/5"), UNIT) == F(3, 5)

    def test_constant_transform_gives_constant(self):
        phi = piecewise_linear([(0, "1/3"), (1, "1/3")], ["nondecreasing"])
        for x in ((0, 0), ("1/5", "4/5"), (1, 1)):
            assert quasi_sugeno(MU, phi, x, UNIT) == F(1, 3)

    def test_range_leaving_scale(self):
        phi = piecewise_linear([(0, 0), (1, 2)], ["nondecreasing"])
        with pytest.raises(TransformRangeError):
            quasi_sugeno(MU, phi, (1, 1), UNIT)


class TestShilkret:
    def test_worked_example(self):
        assert shilkret(MU, ("1/5", "4/5")) == F(12, 25)

    def test_full_indicator_gives_top(self):
        assert shilkret(MU, (1, 1)) == MU.values[full_mask(2)]

    def test_zero(self):
        assert shilkret(MU, (0, 0)) == 0

    def test_negative_input(self):
        with pytest.raises(NegativeInput):
            shilkret(MU, ("-1/5", "4/5"))

    def test_requires_capacity(self):
        nonmono = SetFunction(2, (F(0), F(1, 2), F(1, 4), F(0)))
        with pytest.raises(NotCapacity):
            shilkret(nonmono, (1, 1))

    @given(unit_capacities(2), points(2, lo=0, hi=1), points(2, lo=0, hi=1))
    def test_comonotonic_maxitive_when_orders_agree(self, mu, x, y):
        xs = tuple(sorted(x))
        ys = tuple(sorted(y))
        join = tuple(max(a, b) for a, b in zip(xs, ys))
        assert shilkret(mu, join) == max(shilkret(mu, xs), shilkret(mu, ys))


class TestBlackBox:
    def test_mean(self):
        fn, n = black_box("mean", n=2)
        assert n == 2
        assert fn((F(1, 2), F(1))) == F(3, 4)

    def test_kinds_route_to_evaluators(self):
        fn, _ = black_box("choquet", V)
        assert fn((F(1, 5), F(7, 10))) == F(9, 20)
        fn, _ = black_box("sugeno", MU, interval=UNIT)
        assert fn((F(1, 5), F(4, 5))) == F(3, 5)
        fn, _ = black_box("shilkret", MU)
        assert fn((F(1, 5), F(4, 5))) == F(12, 25)

    def test_n_contradicting_the_capacity_is_refused(self):
        with pytest.raises(DimensionMismatch, match="capacity has n=2, but n=3 was given"):
            black_box("choquet", V, n=3)
        fn, n = black_box("choquet", V, n=2)
        assert n == 2 and fn((F(1, 5), F(7, 10))) == F(9, 20)


# --- the sorted chain at every size --------------------------------------------
#
# Seeded tables up to n = 16, far beyond what the Hypothesis strategies above
# reach, so the chain masks and the dual route are exercised where a mistake
# in building them once per view would show.

CHAIN_NS = (1, 2, 3, 5, 8, 12, 16)


@lru_cache(maxsize=None)
def seeded_tables(n):
    """(signed, capacity, ivalued on [0, 1]) tables for n, from a fixed seed."""
    rng = random.Random("chain-tables:%d" % n)
    signed = [F(0)] + [F(rng.randint(-16, 16), 8) for _ in range(1, 1 << n)]
    # v(S) = sum of weights on S + max of bumps on S + a step in |S|, built
    # from S minus its lowest element: monotone and not additive.
    weight = [F(rng.randint(0, 8), 8) for _ in range(n)]
    bump = [F(rng.randint(0, 8), 8) for _ in range(n)]
    step = [F(0)]
    for _ in range(n):
        step.append(step[-1] + F(rng.randint(0, 4), 8))
    total, peak, size = [F(0)] * (1 << n), [F(0)] * (1 << n), [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        i = low.bit_length() - 1
        total[mask] = total[mask ^ low] + weight[i]
        peak[mask] = max(peak[mask ^ low], bump[i])
        size[mask] = size[mask ^ low] + 1
    mono = [t + p + step[k] for t, p, k in zip(total, peak, size)]
    top = mono[-1] if mono[-1] else F(1)
    return (
        SetFunction(n, signed),
        SetFunction(n, mono),
        SetFunction(n, [m / top for m in mono[:-1]] + [F(1)]),
    )


def tied_points(n, lo, count=4):
    """Seeded points on a coarse grid, most with tied coordinates."""
    rng = random.Random("chain-points:%d:%d" % (n, lo))
    out = []
    for k in range(count):
        coords = [F(rng.randint(lo * 4, 4), 4) for _ in range(n)]
        if n > 1 and k % 2 == 0:
            a, b = rng.sample(range(n), 2)
            coords[b] = coords[a]
        out.append(tuple(coords))
    return out


def chain_reference(v, coords):
    """Choquet in level form, sum_i (x_(i) - x_(i-1)) v(U(i)) with x_(0) = 0,
    where U(i) holds the indices from position i of the stable sort on; it
    is built here from index lists, not from a SortedView."""
    order = sorted(range(len(coords)), key=lambda i: (coords[i], i))
    total, below = F(0), F(0)
    for pos, i in enumerate(order):
        upper = sum(1 << j for j in order[pos:])
        total += (coords[i] - below) * v.values[upper]
        below = coords[i]
    return total


def shilkret_reference(mu, coords):
    order = sorted(range(len(coords)), key=lambda i: (coords[i], i))
    return max(
        (coords[i] * mu.values[sum(1 << j for j in order[pos:])] for pos, i in enumerate(order)),
        default=F(0),
    )


@pytest.mark.parametrize("n", CHAIN_NS)
class TestSortedChainAtEverySize:
    def test_choquet_routes_agree_on_nonnegative_points(self, n):
        for v in seeded_tables(n):
            for x in tied_points(n, lo=0):
                value = choquet(v, x)
                assert value == chain_reference(v, x)
                assert choquet_via_dual(v, x) == value
                assert symmetric_choquet(v, x, checked=True) == value

    def test_signed_points(self, n):
        v = seeded_tables(n)[0]
        for x in tied_points(n, lo=-1):
            assert choquet(v, x) == chain_reference(v, x)
            assert choquet_via_dual(v, x) == choquet(v, x)
            pos, neg = split_parts(x)
            expected = chain_reference(v, pos.coords) - chain_reference(v, neg.coords)
            assert symmetric_choquet(v, x, checked=True) == expected

    def test_sugeno_forms_and_shilkret(self, n):
        _, capacity, ivalued = seeded_tables(n)
        for x in tied_points(n, lo=0):
            if n <= 12:
                assert sugeno(ivalued, x, UNIT) == sugeno_normal_form(ivalued, x, UNIT)
            assert shilkret(capacity, x) == shilkret_reference(capacity, x)


class TestCostPerCall:
    def test_failing_role_check_repeats_its_error(self):
        nonmono = SetFunction(3, (F(0), F(1, 2), F(1, 4), F(1), F(1), F(1), F(1), F(0)))
        messages = []
        for _ in range(3):
            with pytest.raises(NotCapacity) as exc:
                shilkret(nonmono, (1, 1, 1))
            messages.append(str(exc.value))
        assert messages == ["v((1, 2)) > v((1, 2, 3))"] * 3

    def test_no_table_hashed_built_or_scanned_after_the_first_call(self, monkeypatch):
        signed, capacity, ivalued = seeded_tables(16)
        x = tied_points(16, lo=-1, count=1)[0]
        y = tied_points(16, lo=0, count=1)[0]
        calls = (
            lambda: choquet(signed, x),
            lambda: choquet_via_dual(signed, x),
            lambda: symmetric_choquet(signed, x),
            lambda: sugeno(ivalued, y, UNIT),
            lambda: shilkret(capacity, y),
        )
        first = [call() for call in calls]

        def refuse(*args, **kwargs):
            raise AssertionError("an integral call did O(2^n) work on the table")

        monkeypatch.setattr(SetFunction, "__hash__", refuse)
        monkeypatch.setattr(SetFunction, "__init__", refuse)
        # the monotonicity scan ran on the first calls and is not run again
        monkeypatch.setattr(SetFunction.__dict__["_monotonicity_witness"], "func", refuse)
        assert [call() for call in calls] == first
