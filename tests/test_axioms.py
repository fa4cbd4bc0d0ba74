"""Grid auditor tests.

Verdicts here are frozen against hand-computed violations; every reported
witness must independently fail on replay, which keeps the checker honest
about what it claims.
"""

from fractions import Fraction as F

import pytest

from comodular import (
    GridSpec,
    Interval,
    SetFunction,
    black_box,
    choquet,
    piecewise_linear,
    shilkret,
    sugeno,
    symmetric_choquet,
)
from comodular.axioms import (
    AXIOMS,
    Grid,
    as_grid,
    audit,
    check,
    comonotonic_pairs,
    grid_points,
    replay_witness,
    spot_check,
)
from comodular.comono import is_comonotonic
from comodular.errors import (
    ComodularError,
    EmptyApplicableSet,
    MissingTransform,
)

V = SetFunction(2, (F(0), F(3, 10), F(1, 2), F(1)))
MU = SetFunction(2, (F(0), F(3, 10), F(3, 5), F(1)))
UNIT = Interval(0, 1)
WIDE = Interval(-1, 1)

UNIT5 = GridSpec(UNIT, points_per_axis=5)
WIDE5 = GridSpec(WIDE, points_per_axis=5)


def choquet_fn(coords):
    return choquet(V, coords)


def symmetric_fn(coords):
    return symmetric_choquet(V, coords)


def sugeno_fn(coords):
    return sugeno(MU, coords, interval=UNIT)


def shilkret_fn(coords):
    return shilkret(MU, coords)


def mean_fn(coords):
    return F(sum(coords, F(0)), len(coords))


def clipped_choquet_fn(coords):
    return choquet(V, tuple(max(F(0), c) for c in coords))


class TestGrids:
    def test_gridspec_axis_forces_zero_and_units(self):
        assert WIDE5.axis() == (F(-1), F(-1, 2), F(0), F(1, 2), F(1))

    def test_gridspec_axis_unit_box(self):
        assert GridSpec(UNIT, points_per_axis=3).axis() == (F(0), F(1, 2), F(1))

    def test_gridspec_interior_only(self):
        spec = GridSpec(
            UNIT,
            points_per_axis=3,
            include_zero=False,
            include_units=False,
            include_endpoints=False,
        )
        assert spec.axis() == (F(1, 4), F(1, 2), F(3, 4))

    def test_as_grid_accepts_plain_sequences(self):
        g = as_grid(["-1", "-1/2", "0", "7/10", 1])
        assert g.axis == (F(-1), F(-1, 2), F(0), F(7, 10), F(1))
        assert g.box == Interval(-1, 1)

    def test_grid_rejects_singleton_axis(self):
        with pytest.raises(ComodularError):
            Grid((F(1, 2),), UNIT)

    def test_grid_rejects_points_outside_box(self):
        with pytest.raises(ComodularError):
            Grid((F(0), F(2)), UNIT)

    def test_grid_points_count(self):
        g = as_grid(GridSpec(UNIT, points_per_axis=3))
        assert len(grid_points(g, 2)) == 9

    def test_comonotonic_pairs_match_brute_force(self):
        unit = as_grid(GridSpec(UNIT, points_per_axis=3))
        asymmetric = as_grid(["-1/2", "0", "2"])
        cases = [(unit, 1), (unit, 2), (unit, 3), (asymmetric, 2), (asymmetric, 4)]
        for g, n in cases:
            pts = grid_points(g, n)
            brute = set()
            for x in pts:
                for y in pts:
                    if is_comonotonic(x, y):
                        brute.add((min(x, y), max(x, y)))
            assert set(comonotonic_pairs(g, n)) == brute

    def test_comonotonic_pairs_are_deduplicated(self):
        g = as_grid(GridSpec(UNIT, points_per_axis=3))
        pairs = comonotonic_pairs(g, 2)
        assert len(pairs) == len(set(pairs))


class TestFrozenVerdicts:
    def test_choquet_is_comono_modular(self):
        report = check("comono_modular", choquet_fn, 2, WIDE5)
        assert report.passed
        assert report.witness is None
        assert report.tested == 225

    def test_choquet_is_not_modular(self):
        report = check("modular", choquet_fn, 2, WIDE5)
        assert not report.passed

    def test_mean_is_modular(self):
        assert check("modular", mean_fn, 2, WIDE5).passed

    def test_mean_fails_comono_maxitive_with_pinned_witness(self):
        report = check("comono_maxitive", mean_fn, 2, GridSpec(UNIT, points_per_axis=3))
        assert not report.passed
        assert report.witness["operands"] == {
            "x": (F(0), F(1)),
            "y": (F(1, 2), F(1, 2)),
        }
        assert report.witness["lhs"] == F(3, 4)
        assert report.witness["rhs"] == F(1, 2)

    def test_shilkret_fails_comono_minitive(self):
        report = check("comono_minitive", shilkret_fn, 2, UNIT5)
        assert not report.passed
        x = report.witness["operands"]["x"]
        y = report.witness["operands"]["y"]
        assert is_comonotonic(x, y)
        lhs = shilkret_fn(tuple(min(a, b) for a, b in zip(x, y)))
        assert lhs == report.witness["lhs"]
        assert min(shilkret_fn(x), shilkret_fn(y)) == report.witness["rhs"]
        assert lhs != report.witness["rhs"]

    def test_shilkret_passes_comono_maxitive(self):
        assert check("comono_maxitive", shilkret_fn, 2, UNIT5).passed

    def test_shilkret_fails_comono_modular(self):
        assert not check("comono_modular", shilkret_fn, 2, UNIT5).passed

    def test_symmetric_integral_is_odd(self):
        assert check("odd", symmetric_fn, 2, WIDE5).passed

    def test_plain_choquet_is_not_odd(self):
        assert not check("odd", choquet_fn, 2, WIDE5).passed

    def test_clipped_choquet_fails_dual_shift_at_pinned_subset(self):
        report = check("dual_shift", clipped_choquet_fn, 2, WIDE5)
        assert not report.passed
        assert report.witness["operands"] == {"subset": 1}
        assert report.witness["lhs"] == F(1, 2)
        assert report.witness["rhs"] == F(1)

    def test_choquet_passes_dual_shift(self):
        assert check("dual_shift", choquet_fn, 2, WIDE5).passed

    def test_choquet_sign_homogeneous_on_rays(self):
        assert check("sign_homog_rays", choquet_fn, 2, WIDE5).passed

    def test_symmetric_fully_homogeneous_on_rays(self):
        assert check("full_homog_rays", symmetric_fn, 2, WIDE5).passed

    def test_plain_choquet_not_fully_homogeneous(self):
        assert not check("full_homog_rays", choquet_fn, 2, WIDE5).passed

    def test_sugeno_lattice_axioms(self):
        for axiom in ("comono_maxitive", "comono_minitive", "idempotent"):
            assert check(axiom, sugeno_fn, 2, UNIT5).passed, axiom

    def test_choquet_horizontal_additivity(self):
        assert check("horiz_min_additive", choquet_fn, 2, UNIT5).passed
        assert check("horiz_median_additive", choquet_fn, 2, WIDE5).passed

    def test_sugeno_horizontal_lattice_invariance(self):
        assert check("invar_horiz_min_diff", sugeno_fn, 2, UNIT5).passed

    def test_quasi_choquet_invariance_and_refusal_of_plain_additivity(self):
        phi = piecewise_linear(
            [(F(0), F(0)), (F(1, 2), F(1)), (F(1), F(1))],
            ["nondecreasing", "vanishes-at-0"],
        )
        fn, _ = black_box("quasi-choquet", capacity=V, phi=phi)
        assert check("invar_horiz_min_diff", fn, 2, UNIT5).passed
        assert not check("comono_additive", fn, 2, UNIT5).passed

    def test_weak_homogeneity_of_sugeno(self):
        assert check("weak_max_homog", sugeno_fn, 2, UNIT5).passed
        assert check("weak_min_homog", sugeno_fn, 2, UNIT5).passed

    def test_choquet_fails_weak_max_homog(self):
        report = check("weak_max_homog", choquet_fn, 2, UNIT5)
        assert not report.passed
        assert report.witness["operands"] == {"x": F(1, 4), "subset": 1}

    def test_nondecreasing_and_idempotent_controls(self):
        assert check("nondecreasing", choquet_fn, 2, WIDE5).passed
        assert check("idempotent", choquet_fn, 2, UNIT5).passed
        assert not check("nondecreasing", lambda c: -c[0], 2, UNIT5).passed


class TestWitnessReplay:
    failing = [
        ("comono_maxitive", mean_fn, GridSpec(UNIT, points_per_axis=3), None),
        ("comono_minitive", shilkret_fn, UNIT5, None),
        ("comono_modular", shilkret_fn, UNIT5, None),
        ("dual_shift", clipped_choquet_fn, WIDE5, None),
        ("modular", choquet_fn, WIDE5, None),
        ("weak_max_homog", choquet_fn, UNIT5, None),
        ("full_homog_rays", choquet_fn, WIDE5, None),
        ("odd", choquet_fn, WIDE5, None),
    ]

    @pytest.mark.parametrize("axiom,fn,grid,phi", failing)
    def test_reported_witnesses_fail_on_replay(self, axiom, fn, grid, phi):
        report = check(axiom, fn, 2, grid, phi=phi)
        assert not report.passed
        assert not replay_witness(axiom, fn, report.witness, grid, 2, phi=phi)

    def test_replay_confirms_a_holding_instance(self):
        witness = {"operands": {"x": (F(0), F(1, 2)), "y": (F(1, 2), F(1))}}
        assert replay_witness("comono_modular", choquet_fn, witness, WIDE5, 2)

    def test_witness_is_lexicographically_minimal(self):
        report = check("comono_maxitive", mean_fn, 2, GridSpec(UNIT, points_per_axis=3))
        found = report.witness["operands"]
        g = as_grid(GridSpec(UNIT, points_per_axis=3))
        for x, y in comonotonic_pairs(g, 2):
            if (x, y) < (found["x"], found["y"]):
                assert mean_fn(tuple(max(a, b) for a, b in zip(x, y))) == max(
                    mean_fn(x), mean_fn(y)
                )


class TestSkipsAndEdgeCases:
    def test_empty_applicable_set_for_odd_off_origin(self):
        with pytest.raises(EmptyApplicableSet):
            check("odd", choquet_fn, 2, GridSpec(Interval(1, 2), points_per_axis=3))

    def test_empty_applicable_set_for_plus_split_off_origin(self):
        with pytest.raises(EmptyApplicableSet):
            check("plus_split", choquet_fn, 2, GridSpec(Interval(1, 2), points_per_axis=3))

    def test_quasi_axioms_demand_a_transform(self):
        with pytest.raises(MissingTransform):
            check("quasi_homog_rays", choquet_fn, 2, UNIT5)

    def test_unknown_axiom_name(self):
        with pytest.raises(ComodularError):
            check("comonotone_additive", choquet_fn, 2, UNIT5)

    def test_skips_are_counted_not_clamped(self):
        report = check("comono_additive", choquet_fn, 2, WIDE5)
        assert report.passed
        assert report.skipped > 0

    def test_median_additivity_skips_negative_free_boxes(self):
        report = check("horiz_median_additive", choquet_fn, 2, UNIT5)
        assert report.tested > 0
        assert report.skipped > 0

    def test_eps_tolerance_loosens_the_verdict(self):
        wobble = lambda c: -c[0] / 1000
        assert not check("nondecreasing", wobble, 1, UNIT5).passed
        assert check("nondecreasing", wobble, 1, UNIT5, eps=F(1, 2)).passed

    def test_negative_eps_is_rejected(self):
        with pytest.raises(ComodularError):
            check("nondecreasing", lambda c: c[0], 1, UNIT5, eps=-1)


class TestImplications:
    lattice_fns = [sugeno_fn, shilkret_fn, choquet_fn, mean_fn]

    @pytest.mark.parametrize("fn", lattice_fns)
    def test_maxitive_and_minitive_imply_modular(self, fn):
        maxok = check("comono_maxitive", fn, 2, UNIT5).passed
        minok = check("comono_minitive", fn, 2, UNIT5).passed
        if maxok and minok:
            assert check("comono_modular", fn, 2, UNIT5).passed

    @pytest.mark.parametrize("fn", [sugeno_fn, shilkret_fn])
    def test_maxitive_implies_nondecreasing(self, fn):
        assert check("comono_maxitive", fn, 2, UNIT5).passed
        assert check("nondecreasing", fn, 2, UNIT5).passed

    @pytest.mark.parametrize("fn", [mean_fn, lambda c: c[0] - c[1]])
    def test_modular_implies_comono_modular(self, fn):
        assert check("modular", fn, 2, WIDE5).passed
        assert check("comono_modular", fn, 2, WIDE5).passed

    median_fns = [
        choquet_fn,
        symmetric_fn,
        mean_fn,
        clipped_choquet_fn,
        lambda c: abs(c[0]) + abs(c[1]),
        lambda c: c[0] * c[0],
    ]

    @pytest.mark.parametrize("fn", median_fns)
    def test_median_additivity_matches_its_decomposition(self, fn):
        """For f(0) = 0, median additivity holds exactly when f is
        comonotonically additive on each orthant and splits at 0."""
        assert fn((F(0), F(0))) == 0
        median = check("horiz_median_additive", fn, 2, WIDE5).passed
        pos = check("comono_additive", fn, 2, GridSpec(UNIT, points_per_axis=3)).passed
        neg = check(
            "comono_additive", fn, 2, GridSpec(Interval(-1, 0), points_per_axis=3)
        ).passed
        split = check("plus_split", fn, 2, GridSpec(WIDE, points_per_axis=3)).passed
        assert median == (pos and neg and split)

    def test_grid_refinement_preserves_coarse_verdicts(self):
        coarse = GridSpec(UNIT, points_per_axis=3)
        fine = GridSpec(UNIT, points_per_axis=5)
        assert set(as_grid(coarse).axis) <= set(as_grid(fine).axis)
        for axiom, fn in (
            ("comono_modular", choquet_fn),
            ("comono_maxitive", sugeno_fn),
            ("invar_horiz_min_diff", sugeno_fn),
        ):
            assert check(axiom, fn, 2, fine).passed
            assert check(axiom, fn, 2, coarse).passed

    def test_failures_survive_refinement(self):
        coarse = GridSpec(UNIT, points_per_axis=3)
        fine = GridSpec(UNIT, points_per_axis=5)
        assert not check("comono_maxitive", mean_fn, 2, coarse).passed
        assert not check("comono_maxitive", mean_fn, 2, fine).passed


class TestAuditAndReports:
    def test_audit_classifies_choquet(self):
        result = audit(
            choquet_fn, 2, WIDE5, ["comono_modular", "sign_homog_rays", "dual_shift"]
        )
        assert all(r.passed for r in result.reports)
        labels = result.summary["classifications"]
        assert "consistent with a signed Choquet integral on this grid" in labels

    def test_audit_classifies_symmetric(self):
        result = audit(symmetric_fn, 2, WIDE5, ["comono_modular", "full_homog_rays"])
        labels = result.summary["classifications"]
        assert "consistent with a symmetric signed Choquet integral on this grid" in labels

    def test_audit_classifies_sugeno(self):
        result = audit(
            sugeno_fn, 2, UNIT5, ["comono_maxitive", "comono_minitive", "idempotent"]
        )
        labels = result.summary["classifications"]
        assert "consistent with a quasi-Sugeno integral on this grid" in labels
        assert "consistent with a Sugeno integral on this grid" in labels

    def test_audit_places_shilkret_outside_the_modular_class(self):
        result = audit(
            shilkret_fn, 2, UNIT5, ["comono_maxitive", "comono_minitive", "comono_modular"]
        )
        labels = result.summary["classifications"]
        assert "outside the comonotonically modular class on this grid" in labels
        assert not any("quasi-Sugeno" in label for label in labels)

    def test_audit_summary_shape(self):
        result = audit(choquet_fn, 2, WIDE5, ["comono_modular"])
        summary = result.summary
        assert summary["box"] == ["-1", "1"]
        assert summary["axis_size"] == 5
        assert summary["vanishes_at_origin"] is True
        assert summary["f_at_origin"] == "0"

    def test_audit_lookup_by_axiom(self):
        result = audit(choquet_fn, 2, WIDE5, ["comono_modular", "odd"])
        assert result.report("comono_modular").passed
        assert not result.report("odd").passed

    def test_report_json_rendering(self):
        report = check("dual_shift", clipped_choquet_fn, 2, WIDE5)
        payload = report.to_json()
        assert payload["axiom"] == "dual_shift"
        assert payload["verdict"] == "fail"
        assert payload["witness"]["operands"]["subset"] == [1]
        assert payload["witness"]["lhs"] == "1/2"
        assert payload["witness"]["rhs"] == "1"
        assert payload["witness"]["relation"] == "eq"

    def test_report_json_float_mode(self):
        report = check("dual_shift", clipped_choquet_fn, 2, WIDE5)
        payload = report.to_json(mode="float")
        assert payload["witness"]["lhs"] == "0.5"

    def test_pass_report_json_has_null_witness(self):
        payload = check("comono_modular", choquet_fn, 2, WIDE5).to_json()
        assert payload["witness"] is None
        assert payload["tested"] == 225

    def test_audit_json_round_trip_is_deterministic(self):
        a = audit(sugeno_fn, 2, UNIT5, ["comono_maxitive", "idempotent"]).to_json()
        b = audit(sugeno_fn, 2, UNIT5, ["comono_maxitive", "idempotent"]).to_json()
        assert a == b


class TestSpotCheck:
    def test_same_seed_same_report(self):
        a = spot_check("comono_modular", choquet_fn, 2, WIDE, seed=7)
        b = spot_check("comono_modular", choquet_fn, 2, WIDE, seed=7)
        assert a.to_json() == b.to_json()

    def test_spot_check_finds_real_violations(self):
        report = spot_check("comono_maxitive", mean_fn, 2, UNIT, seed=3, count=40)
        if not report.passed:
            x = report.witness["operands"]["x"]
            y = report.witness["operands"]["y"]
            joined = tuple(max(a, b) for a, b in zip(x, y))
            assert mean_fn(joined) != max(mean_fn(x), mean_fn(y))

    def test_spot_check_passes_true_axioms(self):
        assert spot_check("comono_modular", choquet_fn, 2, WIDE, seed=11).passed


def test_every_registered_axiom_runs_on_some_standard_grid():
    phi = piecewise_linear(
        [(F(-1), F(-1)), (F(0), F(0)), (F(1), F(1))],
        ["nondecreasing", "vanishes-at-0", "odd"],
    )
    for name in AXIOMS:
        report = check(name, choquet_fn, 2, WIDE5, phi=phi)
        assert report.tested > 0, name
