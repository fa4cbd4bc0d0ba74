from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from comodular.comono import (
    Point,
    SortedView,
    as_point,
    bracket,
    horizontal_split,
    indicator,
    is_comonotonic,
    median_clamp,
    meet_join,
    sorted_view,
    split_parts,
)
from comodular.errors import (
    BadThresholdSign,
    ComodularError,
    DimensionMismatch,
    NegativeRadius,
    OutOfBox,
)
from comodular.setfunc import Interval

F = Fraction

coords_strategy = st.lists(
    st.fractions(min_value=-3, max_value=3, max_denominator=12), min_size=1, max_size=6
).map(tuple)


class TestPoint:
    def test_box_enforced_at_construction(self):
        with pytest.raises(OutOfBox):
            Point((F(2),), Interval(0, 1))

    def test_coercion(self):
        p = as_point(["-1/2", "7/10"])
        assert p.coords == (F(-1, 2), F(7, 10))


class TestSortedView:
    def test_nonnegative_pair(self):
        sv = sorted_view(("7/10", "2/10"))
        assert sv.perm == (2, 1)
        assert sv.split == 0

    def test_one_negative(self):
        sv = sorted_view(("-1/2", "7/10"))
        assert sv.perm == (1, 2)
        assert sv.split == 1

    def test_zeros_are_not_negative(self):
        sv = sorted_view((0, 0))
        assert sv.perm == (1, 2)
        assert sv.split == 0

    def test_chain_masks(self):
        sv = sorted_view((3, 1, 2))
        assert sv.perm == (2, 3, 1)
        assert sv.upper_mask(1) == 0b111
        assert sv.upper_mask(2) == 0b101
        assert sv.upper_mask(4) == 0
        assert sv.lower_mask(0) == 0
        assert sv.lower_mask(2) == 0b110

    @given(coords_strategy)
    def test_perm_sorts_and_split_counts(self, coords):
        sv = sorted_view(coords)
        ordered = [coords[i - 1] for i in sv.perm]
        assert ordered == sorted(coords)
        assert sv.split == sum(1 for c in coords if c < 0)
        # sentinel characterization of the split position
        if sv.split > 0:
            assert ordered[sv.split - 1] < 0
        if sv.split < len(coords):
            assert ordered[sv.split] >= 0

    def test_tie_break_is_stable(self):
        assert sorted_view((1, 0, 1, 0)).perm == (2, 4, 1, 3)

    @given(st.lists(st.integers(-2, 2), min_size=1, max_size=16))
    def test_chain_masks_match_their_definition(self, coords):
        sv = sorted_view(coords)
        n = len(coords)
        for i in range(1, n + 2):
            assert sv.upper_mask(i) == sum(1 << (sv.perm[j - 1] - 1) for j in range(i, n + 1))
        for i in range(n + 1):
            assert sv.lower_mask(i) == sum(1 << (sv.perm[j - 1] - 1) for j in range(1, i + 1))
        for bad in (0, n + 2):
            with pytest.raises(ComodularError, match="upper chain index %d outside 1..%d$" % (bad, n + 1)):
                sv.upper_mask(bad)
        for bad in (-1, n + 1):
            with pytest.raises(ComodularError, match="lower chain index %d outside 0..%d$" % (bad, n)):
                sv.lower_mask(bad)

    def test_constructed_view(self):
        sv = SortedView((3, 1, 2), 1)
        assert sv == SortedView((3, 1, 2), 1) and sv != SortedView((3, 1, 2), 0)
        assert repr(sv) == "SortedView(perm=(3, 1, 2), split=1)"
        assert [sv.upper_mask(i) for i in range(1, 5)] == [0b111, 0b011, 0b010, 0]
        assert [sv.lower_mask(i) for i in range(4)] == [0, 0b100, 0b101, 0b111]


class TestComonotonic:
    def test_same_strict_order(self):
        assert is_comonotonic((1, 2), (3, 5))

    def test_opposite_orders(self):
        assert not is_comonotonic((1, 2), (5, 3))

    def test_ties_compatible_with_anything(self):
        assert is_comonotonic((1, 1), (5, 3))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            is_comonotonic((1, 2), (1, 2, 3))

    @given(coords_strategy, st.data())
    def test_matches_shared_permutation_search(self, x, data):
        y = data.draw(
            st.lists(
                st.fractions(min_value=-3, max_value=3, max_denominator=12),
                min_size=len(x),
                max_size=len(x),
            ).map(tuple)
        )
        shared = any(
            all(x[a] <= x[b] for a, b in zip(perm, perm[1:]))
            and all(y[a] <= y[b] for a, b in zip(perm, perm[1:]))
            for perm in permutations(range(len(x)))
        )
        assert is_comonotonic(x, y) == shared


class TestLatticeOps:
    def test_meet_join(self):
        meet, join = meet_join((1, 5), (3, 2))
        assert meet.coords == (F(1), F(2))
        assert join.coords == (F(3), F(5))

    @given(coords_strategy, st.data())
    def test_meet_plus_join_is_sum(self, x, data):
        y = data.draw(
            st.lists(
                st.fractions(min_value=-3, max_value=3, max_denominator=12),
                min_size=len(x),
                max_size=len(x),
            ).map(tuple)
        )
        meet, join = meet_join(x, y)
        for a, b, lo, hi in zip(x, y, meet.coords, join.coords):
            assert lo + hi == a + b

    @given(coords_strategy)
    def test_idempotent(self, x):
        meet, join = meet_join(x, x)
        assert meet.coords == join.coords == x


class TestSplitParts:
    def test_example(self):
        pos, neg = split_parts(("-1/2", "7/10"))
        assert pos.coords == (F(0), F(7, 10))
        assert neg.coords == (F(1, 2), F(0))

    @given(coords_strategy)
    def test_difference_and_disjoint_support(self, coords):
        pos, neg = split_parts(coords)
        for a, p, m in zip(coords, pos.coords, neg.coords):
            assert p - m == a
            assert p >= 0 and m >= 0
            assert p == 0 or m == 0


class TestHorizontalSplit:
    def test_min_mode(self):
        low, rest = horizontal_split(("1/5", "4/5"), "1/2", "min")
        assert low.coords == (F(1, 5), F(1, 2))
        assert rest.coords == (F(0), F(3, 10))

    def test_min_mode_level_above_everything(self):
        low, rest = horizontal_split(("1/5", "4/5"), 1, "min")
        assert low.coords == (F(1, 5), F(4, 5))
        assert rest.coords == (F(0), F(0))

    def test_max_mode(self):
        high, rest = horizontal_split(("-4/5", "-1/5"), "-1/2", "max")
        assert high.coords == (F(-1, 2), F(-1, 5))
        assert rest.coords == (F(-3, 10), F(0))

    def test_remainder_escaping_box_is_an_error(self):
        box = Interval(1, 2)
        with pytest.raises(OutOfBox):
            horizontal_split(Point((F(2), F(2)), box), F(3, 2), "min")

    @given(coords_strategy, st.fractions(min_value=-3, max_value=3, max_denominator=12))
    def test_parts_sum_to_x_and_stay_comonotonic(self, coords, c):
        for mode in ("min", "max"):
            first, rest = horizontal_split(coords, c, mode)
            for a, u, w in zip(coords, first.coords, rest.coords):
                assert u + w == a
            assert is_comonotonic(first, as_point(coords))
            assert is_comonotonic(rest, as_point(coords))


class TestBracket:
    def test_low(self):
        assert bracket(("1/5", "4/5"), "1/2", "low").coords == (F(0), F(4, 5))

    def test_low_at_zero_keeps_positives(self):
        assert bracket(("1/5", "4/5"), 0, "low").coords == (F(1, 5), F(4, 5))

    def test_high(self):
        assert bracket(("-4/5", "-1/5"), "-1/2", "high").coords == (F(-4, 5), F(0))

    def test_sign_preconditions(self):
        with pytest.raises(BadThresholdSign):
            bracket((1, 2), -1, "low")
        with pytest.raises(BadThresholdSign):
            bracket((1, 2), 1, "high")


class TestMedianClamp:
    def test_example(self):
        assert median_clamp((-2, "1/4", 3), 1).coords == (F(-1), F(1, 4), F(1))

    def test_large_radius_is_identity(self):
        assert median_clamp((-2, "1/4", 3), 10).coords == (F(-2), F(1, 4), F(3))

    def test_zero_radius_kills_everything(self):
        assert median_clamp((-2, "1/4", 3), 0).coords == (F(0), F(0), F(0))

    def test_negative_radius(self):
        with pytest.raises(NegativeRadius):
            median_clamp((1,), -1)


class TestIndicator:
    def test_unit(self):
        assert indicator(3, {1, 3}).coords == (F(1), F(0), F(1))

    def test_signed(self):
        assert indicator(2, {2}, kind="signed").coords == (F(0), F(-1))

    def test_endpoints(self):
        p = indicator(2, set(), kind="endpoints", interval=Interval(0, 1))
        assert p.coords == (F(0), F(0))
        q = indicator(2, {1, 2}, kind="endpoints", interval=Interval(-1, 1))
        assert q.coords == (F(1), F(1))
        assert q.box == Interval(-1, 1)
