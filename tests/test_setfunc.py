from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from comodular.errors import (
    BadInterval,
    ComodularError,
    CriteriaLimitExceeded,
    DuplicateSubset,
    NotCapacity,
    NotSignedCapacity,
    SubsetOutOfRange,
)
from comodular.setfunc import (
    Interval,
    SetFunction,
    from_payload,
    new_set_function,
    to_payload,
    validate,
)

F = Fraction


def table(*vals):
    return tuple(F(v) for v in vals)


class TestConstruction:
    def test_sparse_assignments_fill_table(self):
        sf = new_set_function(2, [({1}, F(3, 10)), ({2}, F(1, 2)), ({1, 2}, 1)])
        assert sf.values == table(0, F(3, 10), F(1, 2), 1)
        assert sf.is_capacity
        assert sf.is_signed_capacity

    def test_empty_assignment_is_all_zero(self):
        sf = new_set_function(1, [])
        assert sf.values == table(0, 0)
        assert sf.is_signed_capacity

    def test_signed_but_not_capacity(self):
        sf = new_set_function(2, [({1}, F(1, 2)), ({1, 2}, -1)])
        assert sf.is_signed_capacity
        assert not sf.is_capacity

    def test_duplicate_subset_rejected(self):
        with pytest.raises(DuplicateSubset):
            new_set_function(2, [({1}, 1), ((1,), 1)])

    def test_element_out_of_range(self):
        with pytest.raises(SubsetOutOfRange):
            new_set_function(2, [({3}, 1)])

    def test_n_cap(self):
        with pytest.raises(CriteriaLimitExceeded):
            new_set_function(21, [])

    def test_readback_is_exact(self):
        sf = new_set_function(3, [({1, 3}, F(7, 13))])
        assert sf.value({1, 3}) == F(7, 13)
        assert sf.value({3, 1}) == F(7, 13)
        assert sf.value(0b101) == F(7, 13)

    def test_wrong_table_length(self):
        with pytest.raises(ComodularError):
            SetFunction(2, (F(0), F(1)))


class TestValidate:
    def test_capacity_passes(self):
        sf = SetFunction(2, table(0, F(3, 10), F(1, 2), 1))
        assert validate(sf, "capacity").ok

    def test_capacity_fail_carries_covering_pair(self):
        sf = SetFunction(2, table(0, F(1, 2), F(1, 4), -1))
        verdict = validate(sf, "capacity")
        assert not verdict.ok
        assert verdict.witness == ((1,), (1, 2))

    def test_ivalued_endpoints(self):
        sf = SetFunction(2, table(0, F(1, 4), F(1, 2), 1))
        assert validate(sf, "ivalued", Interval(0, 1)).ok
        bad = validate(sf, "ivalued", Interval(0, 2))
        assert not bad.ok
        assert bad.witness == ("hi",)

    def test_signed_fail_names_empty_set(self):
        sf = SetFunction(1, table(1, 1))
        verdict = validate(sf, "signed")
        assert not verdict.ok

    def test_verdict_is_kept_out_of_eq_hash_and_repr(self):
        checked = SetFunction(2, table(0, F(1, 2), F(1, 4), -1))
        assert validate(checked, "capacity").witness == validate(checked, "capacity").witness
        fresh = SetFunction(2, checked.values)
        assert checked == fresh and hash(checked) == hash(fresh)
        assert repr(checked) == repr(fresh)


class TestDual:
    def test_worked_table(self):
        v = SetFunction(2, table(0, F(3, 10), F(1, 2), 1))
        assert v.dual().values == table(0, F(1, 2), F(7, 10), 1)

    def test_zero_is_self_dual(self):
        v = SetFunction(2, table(0, 0, 0, 0))
        assert v.dual() == v

    def test_needs_signed(self):
        with pytest.raises(NotSignedCapacity):
            SetFunction(1, table(1, 0)).dual()

    @given(st.lists(st.fractions(max_denominator=20), min_size=7, max_size=7))
    def test_involution(self, tail):
        v = SetFunction(3, tuple([F(0)] + tail))
        assert v.dual().dual() == v

    @given(st.integers(0, 100), st.data())
    def test_dual_of_capacity_is_capacity(self, seed, data):
        # monotone table via cumulative increments along a random subset order
        incs = data.draw(
            st.lists(st.fractions(0, 2, max_denominator=9), min_size=8, max_size=8)
        )
        vals = [F(0)] * 8
        for mask in range(1, 8):
            below = max(vals[mask & ~(1 << i)] for i in range(3) if mask & (1 << i))
            vals[mask] = below + incs[mask]
        v = SetFunction(3, tuple(vals))
        assert validate(v, "capacity").ok
        assert validate(v.dual(), "capacity").ok


class TestInterval:
    def test_degenerate_rejected(self):
        with pytest.raises(BadInterval):
            Interval(1, 1)

    def test_contains(self):
        box = Interval(-1, 1)
        assert box.contains(F(1, 2))
        assert not box.contains(F(3, 2))
        assert box.has_zero
        assert box.is_symmetric
        assert not Interval(0, 1).is_symmetric


class TestPayload:
    def test_round_trip(self):
        sf = new_set_function(2, [({1}, F(3, 10)), ({2}, F(1, 2)), ({1, 2}, 1)])
        back, role, interval = from_payload(to_payload(sf, "capacity"))
        assert back == sf
        assert role == "capacity"
        assert interval is None

    def test_decimal_strings_parse_exactly(self):
        sf, _, _ = from_payload(
            {"n": 1, "values": [{"set": [1], "value": "0.1"}], "role": "signed"}
        )
        assert sf.value({1}) == F(1, 10)

    def test_role_enforced_on_load(self):
        payload = {
            "n": 2,
            "values": [{"set": [1], "value": "1/2"}, {"set": [1, 2], "value": "-1"}],
            "role": "capacity",
        }
        with pytest.raises(NotCapacity):
            from_payload(payload)

    def test_ivalued_needs_interval(self):
        payload = {"n": 1, "values": [], "role": "ivalued"}
        with pytest.raises(ComodularError):
            from_payload(payload)
