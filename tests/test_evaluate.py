"""Metrics, rank test, category impacts, catalog comparison, monthly impact."""

from __future__ import annotations

import itertools
import json
import math
from datetime import date
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleetfuel.anomaly import compute_limits
from fleetfuel.errors import DataError
from fleetfuel.evaluate import (
    adjusted_r2,
    aggregate_category_impact,
    catalog_mape,
    classify_mape,
    classify_r2,
    mape,
    median_vehicle_mape,
    monthly_impact,
    outlier_vs_explained,
    signed_rank_test,
    train_test_split,
)
from fleetfuel.explain import BR_ORDER, ExplanationTable, FuelMedians, ReferencePolicy, apply_business_rules, divide
from fleetfuel.ingest import DayTable
from fleetfuel.registry import (
    CO2_KG_PER_LITER,
    CatalogReference,
    CatalogTable,
    SotaLimit,
    VehicleIdentity,
    write_report_json,
)

from .conftest import audit_entries, make_record
from .test_explain import base_row, inlier_pool


class TestTrainTestSplit:
    def records(self, n):
        return DayTable.from_rows([make_record(vehicle_id=f"v{i:03d}", avg=7.0 + i * 0.01) for i in range(n)])

    def test_ninety_ten(self):
        train, test = train_test_split(self.records(100), 0.9, seed=1)
        assert (len(train), len(test)) == (90, 10)

    def test_minimal(self):
        train, test = train_test_split(self.records(10), 0.9, seed=1)
        assert (len(train), len(test)) == (9, 1)

    def test_deterministic(self):
        a = train_test_split(self.records(50), 0.9, seed=3)
        b = train_test_split(self.records(50), 0.9, seed=3)
        assert [r.vehicle_id for r in a[0]] == [r.vehicle_id for r in b[0]]

    def test_too_few(self):
        with pytest.raises(DataError):
            train_test_split(self.records(9))

    def test_partition(self):
        records = self.records(37)
        train, test = train_test_split(records, 0.9, seed=0)
        ids = sorted(train.vehicle_id + test.vehicle_id)
        assert ids == sorted(r.vehicle_id for r in records)


class TestMape:
    def test_perfect_fit(self):
        assert mape([5.0, 9.0], [5.0, 9.0]) == 0.0

    def test_hand_computation(self):
        assert mape([10.0, 20.0], [11.0, 18.0]) == pytest.approx(10.0)

    def test_single_point(self):
        assert mape([8.0], [10.0]) == pytest.approx(25.0)

    def test_zero_actual_excluded(self):
        assert mape([0.0, 10.0], [5.0, 11.0]) == pytest.approx(10.0)

    def test_all_zero_actuals(self):
        with pytest.raises(DataError):
            mape([0.0], [1.0])

    @settings(max_examples=100)
    @given(
        scale=st.floats(min_value=0.01, max_value=1e3),
        ys=st.lists(st.floats(min_value=0.1, max_value=100.0), min_size=1, max_size=20),
    )
    def test_scale_invariance(self, scale, ys):
        preds = [y * 1.1 for y in ys]
        base = mape(ys, preds)
        scaled = mape([y * scale for y in ys], [p * scale for p in preds])
        assert scaled == pytest.approx(base, rel=1e-9)


def oracle_lewis(value):
    for cutoff, name in ((10, "highly_accurate"), (20, "good"), (50, "reasonable")):
        if value <= cutoff:
            return name
    return "inaccurate"


def oracle_chin(value):
    for cutoff, name in ((0.67, "substantial"), (0.33, "moderate"), (0.19, "weak")):
        if value >= cutoff:
            return name
    return "none"


class TestCategories:
    def test_lewis_anchors(self):
        assert classify_mape(8) == "highly_accurate"
        assert classify_mape(15) == "good"
        assert classify_mape(55) == "inaccurate"

    def test_boundaries_go_to_better_class(self):
        assert classify_mape(10) == "highly_accurate"
        assert classify_mape(20) == "good"
        assert classify_mape(50) == "reasonable"

    def test_table_driven_brute_force(self):
        rng = np.random.default_rng(0)
        for value in rng.uniform(0, 80, size=1000):
            assert classify_mape(value) == oracle_lewis(value)
        for value in rng.uniform(-1, 1.2, size=1000):
            assert classify_r2(value) == oracle_chin(value)


class TestAdjustedR2:
    def test_perfect(self):
        value, cat = adjusted_r2([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [1.0, 2.0, 3.0, 4.0, 5.0, 6.0], p=1)
        assert value == 1.0
        assert cat == "substantial"

    def test_mean_predictor_hand_formula(self):
        rng = np.random.default_rng(1)
        y = rng.uniform(5, 10, size=100)
        preds = [float(y.mean())] * 100
        value, _ = adjusted_r2(y, preds, p=5)
        assert value == pytest.approx(1 - 99 / 94, rel=1e-12)

    def test_moderate_category(self):
        assert classify_r2(0.5) == "moderate"

    def test_undefined_when_too_few(self):
        with pytest.raises(DataError):
            adjusted_r2([1.0, 2.0], [1.0, 2.0], p=3)


def oracle_signed_rank(diffs):
    """Exhaustive sign-flip enumeration; independent of the implementation."""
    d = [x for x in diffs if x != 0.0]
    n = len(d)
    if n == 0:
        return 1.0
    order = sorted(range(n), key=lambda i: abs(d[i]))
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and abs(d[order[j + 1]]) == abs(d[order[i]]):
            j += 1
        avg = ((i + 1) + (j + 1)) / 2
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    w = sum(r for r, x in zip(ranks, d) if x > 0)
    ws = [
        sum(r for r, s in zip(ranks, signs) if s)
        for signs in itertools.product((0, 1), repeat=n)
    ]
    p_low = sum(1 for x in ws if x <= w) / len(ws)
    p_high = sum(1 for x in ws if x >= w) / len(ws)
    return min(1.0, 2 * min(p_low, p_high))


# (W+, p) of the exact count up to 25 pairs and of the approximation beyond
PINNED_SIGNED_RANK = {
    1: (1.0, 1.0), 2: (1.0, 1.0), 3: (4.0, 0.75), 4: (4.0, 0.875), 5: (9.0, 0.8125),
    6: (15.0, 0.4375), 7: (18.5, 0.484375), 8: (25.0, 0.3671875), 9: (27.5, 0.59765625),
    10: (37.0, 0.373046875), 11: (48.0, 0.201171875), 12: (48.5, 0.4892578125),
    13: (57.0, 0.46533203125), 14: (62.5, 0.558837890625), 15: (75.0, 0.416015625),
    16: (89.5, 0.27972412109375), 17: (91.5, 0.4966888427734375), 18: (109.0, 0.32517242431640625),
    19: (119.0, 0.3512153625488281), 20: (134.0, 0.2894306182861328), 21: (151.5, 0.21752357482910156),
    22: (156.5, 0.34253358840942383), 23: (178.0, 0.2314903736114502), 24: (179.0, 0.4233129024505615),
    25: (195.0, 0.394260048866272), 26: (214.0, 0.33291899244091616), 40: (508.0, 0.18854387009010956),
}


class TestSignedRank:
    def test_empty_differences(self):
        assert signed_rank_test([0.0, 0.0]) == (0.0, 1.0)

    def test_all_positive_small(self):
        w, p = signed_rank_test([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        assert w == 21.0
        assert p == pytest.approx(2 * 1 / 64)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-5, max_value=5).filter(lambda x: abs(x) > 1e-6),
            min_size=1,
            max_size=10,
        )
    )
    def test_exact_matches_enumeration(self, diffs):
        _, p = signed_rank_test(diffs)
        assert p == pytest.approx(oracle_signed_rank(diffs), rel=1e-9, abs=1e-12)

    def test_ties_match_enumeration(self):
        diffs = [1.0, 1.0, -1.0, 2.0, 2.0, -3.0, 3.0, 0.5]
        _, p = signed_rank_test(diffs)
        assert p == pytest.approx(oracle_signed_rank(diffs), rel=1e-9)

    def test_approximation_near_exact_boundary(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            d25 = list(rng.normal(0.3, 1.0, size=25))
            _, p_exact = signed_rank_test(d25)
            # push the same sample through the approximation path by padding
            # with a near-zero 26th value of negligible rank influence
            _, p_approx = signed_rank_test(d25 + [1e-9])
            assert p_approx == pytest.approx(p_exact, abs=0.06)

    def test_planted_shift_is_significant(self):
        rng = np.random.default_rng(3)
        d = rng.normal(1.0, 0.3, size=80)
        _, p = signed_rank_test(list(d))
        assert p < 0.001

    # expected p from scipy 1.17.1: wilcoxon(d, correction=True, method="approx").pvalue
    @pytest.mark.parametrize(
        "seed, n, shift, expected",
        [(1, 289, 1.0, 3.7667921600714075e-34), (2, 60, 2.0, 1.9692672315796035e-11)],
        ids=["p-4e-34", "p-2e-11"],
    )
    def test_small_p_matches_scipy(self, seed, n, shift, expected):
        # ties and zeros from rounding; p far in the tail, where 1 - erf cancels
        d = np.round(np.random.default_rng(seed).normal(shift, 1.0, size=n), 1)
        _, p = signed_rank_test(d.tolist())
        assert p == pytest.approx(expected, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("n", sorted(PINNED_SIGNED_RANK))
    def test_pinned_values(self, n):
        # n non-zero differences whose magnitudes tie, with a zero after every fifth
        diffs = []
        for k in range(n):
            diffs.append((1.0 if (k * 3) % 5 < 3 else -1.0) * (1 + (k * 7) % 6) / 4)
            if k % 5 == 4:
                diffs.append(0.0)
        assert signed_rank_test(diffs) == PINNED_SIGNED_RANK[n]


class TestZeroFuelAndNanSaving:
    """A day at 0.0 L/100 km and a NaN saving: division gives ±inf or NaN, and sums carry the NaN.

    The expected values were recorded from the numpy table (``np.errstate``
    division, ``np.bincount`` day sums) and are compared through repr, so
    NaN, infinities and the order of every sum are pinned.
    """

    def table(self):
        def row(vehicle, day, avg, feature, y_diff, value=4.0):
            return base_row(
                vehicle_id=vehicle, date_tx=date(2021, 1, day), feature=feature, feature_value=value,
                avg_fuel_consumption=avg, y_diff=y_diff,
            )

        return ExplanationTable.from_rows([
            row("v1", 4, 0.0, "rpm_high", 0.5),
            row("v1", 4, 0.0, "mean_speed_hwy", 0.0, 90.0),
            row("v1", 4, 0.0, "mean_exterior_temp", -0.25, 270.0),
            row("v1", 4, 0.0, "vehicle_group", 0.1, "1"),
            row("v2", 5, 9.96, "rpm_high", math.nan),
            row("v2", 5, 9.96, "mean_speed_hwy", 0.3, 90.0),
            row("v3", 6, 12.0, "rpm_high", 0.05),
            row("v3", 6, 12.0, "mean_exterior_temp", 1.5, 270.0),
        ])

    def outcome(self, small_registry, policy, rules):
        table = self.table()
        kept, audit = apply_business_rules(table, policy, rules)
        limits = {
            ("Driving Behaviour", "Aggressive Driving"): SotaLimit("Driving Behaviour", "Aggressive Driving", 2.0, 40.0)
        }
        impacts = aggregate_category_impact(kept, small_registry, limits, "f")
        return [
            repr([(r.vehicle_id, r.feature, r.y_diff, r.y_fuel_new) for r in kept.rows()]),
            repr([(e.rule_id, e.vehicle_id, e.feature, e.values) for e in audit_entries(audit, table)]),
            repr([(i.subcategory, i.median_impact_pct, i.n_days, i.verdict) for i in impacts]),
            repr(list(kept.day_totals().values())),
        ]

    def test_evaluate_rules(self, small_registry):
        # no inlier fuel, so BR3 keeps every day and BR2 divides by 0.0
        assert self.outcome(small_registry, FuelMedians.from_records(small_registry, DayTable.from_rows([])), ("BR1", "BR3", "BR2")) == [
            "[('v1', 'rpm_high', 0.5, -0.5), ('v1', 'mean_speed_hwy', 0.0, -0.5), ('v2', 'rpm_high', nan, nan),"
            " ('v2', 'mean_speed_hwy', 0.3, nan), ('v3', 'mean_exterior_temp', 1.5, 10.5)]",
            "[('BR1', 'v1', 'vehicle_group', {'reason': 'categorical'}),"
            " ('BR2', 'v1', 'mean_exterior_temp', {'relative_impact': -inf}),"
            " ('BR2', 'v3', 'rpm_high', {'relative_impact': 0.004166666666666667})]",
            "[('Aggressive Driving', nan, 2, 'within'), ('Ambient Temperature', 12.5, 1, None)]",
            "[0.5, nan, 1.5]",
        ]

    def test_every_rule(self, small_registry):
        assert self.outcome(small_registry, ReferencePolicy.from_records(small_registry, DayTable.from_rows([])), BR_ORDER) == [
            "[('v2', 'rpm_high', nan, nan), ('v2', 'mean_speed_hwy', 0.3, nan)]",
            "[('BR1', 'v1', 'vehicle_group', {'reason': 'categorical'}),"
            " ('BR4', 'v1', 'mean_exterior_temp', {'feature_value': 270.0, 'median_inlier': 0.0,"
            " 'impact_type': 'Negative'}),"
            " ('BR4', 'v3', 'mean_exterior_temp', {'feature_value': 270.0, 'median_inlier': 0.0,"
            " 'impact_type': 'Negative'}),"
            " ('BR2', 'v3', 'rpm_high', {'relative_impact': 0.004166666666666667}),"
            " ('BR5', 'v1', 'rpm_high', {'total_saving': 0.5, 'avg_fuel': 0.0, 'cap': 0.8}),"
            " ('BR5', 'v1', 'mean_speed_hwy', {'total_saving': 0.5, 'avg_fuel': 0.0, 'cap': 0.8})]",
            "[('Aggressive Driving', nan, 1, 'within')]",
            "[0.0, nan, 0.0]",
        ]

    def test_divide_matches_numpy(self):
        special = [0.0, -0.0, 1.5, -2.0, math.inf, -math.inf, math.nan]
        with np.errstate(divide="ignore", invalid="ignore"):
            for x, y in itertools.product(special, special):
                assert repr(divide(x, y)) == repr(float(np.float64(x) / np.float64(y))), (x, y)

    def test_day_totals(self):
        assert repr(self.table().day_totals()) == (
            "{('v1', datetime.date(2021, 1, 4)): 0.35, ('v2', datetime.date(2021, 1, 5)): nan,"
            " ('v3', datetime.date(2021, 1, 6)): 1.55}"
        )


class TestCategoryImpact:
    def limits(self):
        return {
            ("Driving Behaviour", "Aggressive Driving"): SotaLimit(
                "Driving Behaviour", "Aggressive Driving", 2.0, 40.0
            ),
            ("Weather Conditions", "Ambient Temperature"): SotaLimit(
                "Weather Conditions", "Ambient Temperature", 1.0, 20.0
            ),
        }

    def test_single_bucket(self, small_registry):
        rows = [base_row(y_diff=1.0, avg_fuel_consumption=10.0)]
        impacts = aggregate_category_impact(ExplanationTable.from_rows(rows), small_registry, self.limits(), "d1")
        assert len(impacts) == 1
        assert impacts[0].median_impact_pct == pytest.approx(10.0)
        assert impacts[0].verdict == "within"

    def test_partition_identity(self, small_registry):
        rows = [
            base_row(feature="rpm_high", y_diff=0.4),
            base_row(feature="mean_speed_hwy", y_diff=0.6),
            base_row(feature="mean_exterior_temp", y_diff=0.5),
        ]
        impacts = aggregate_category_impact(ExplanationTable.from_rows(rows), small_registry, self.limits(), "d1")
        total_rel = sum(r.y_diff for r in rows) / rows[0].avg_fuel_consumption * 100
        assert sum(i.median_impact_pct for i in impacts) == pytest.approx(total_rel)

    def test_verdicts(self, small_registry):
        low = [base_row(y_diff=0.05, avg_fuel_consumption=10.0)]
        impacts = aggregate_category_impact(ExplanationTable.from_rows(low), small_registry, self.limits(), "d1")
        assert impacts[0].verdict == "below_min"
        high = [base_row(y_diff=5.0, avg_fuel_consumption=10.0)]
        impacts = aggregate_category_impact(ExplanationTable.from_rows(high), small_registry, self.limits(), "d1")
        assert impacts[0].verdict == "above_max"

    def test_unconfigured_subcategory_no_verdict(self, small_registry):
        rows = [base_row(feature="mean_exterior_temp", y_diff=1.0)]
        impacts = aggregate_category_impact(ExplanationTable.from_rows(rows), small_registry, {}, "d1")
        assert impacts[0].verdict is None


class TestOutlierVsExplained:
    def setup_outliers(self):
        records = [
            make_record(vehicle_id=f"in{i}", avg=7.0 + 0.1 * i, label="inlier")
            for i in range(4)
        ]
        outlier = make_record(vehicle_id="id1", day="2020-04-17", avg=9.96, label="outlier")
        limits = compute_limits(
            DayTable.from_rows([make_record(vehicle_id=f"l{i}", avg=f) for i, f in enumerate([9.0, 9.1, 9.2, 9.35])])
        )
        lim = limits.lookup(0, "highway")
        return records + [outlier], limits, lim

    def test_ratio_arithmetic(self):
        records, limits, lim = self.setup_outliers()
        rows = [
            base_row(vehicle_id="id1", feature=f, y_diff=d, avg_fuel_consumption=9.96)
            for f, d in (("rpm_high", 1.0), ("mean_speed_hwy", 0.65))
        ]
        report = outlier_vs_explained(ExplanationTable.from_rows(rows), limits, DayTable.from_rows(records), "d1")
        assert report.n_outlier_days == 1
        assert report.median_explained == pytest.approx(1.65 / 9.96)
        assert report.median_anomalous == pytest.approx((9.96 - lim.lim_sup) / 9.96)

    def test_no_outliers_returns_none(self, small_registry):
        records = [make_record(vehicle_id="a", avg=7.0, label="inlier")]
        limits = compute_limits(
            DayTable.from_rows([make_record(vehicle_id=f"l{i}", avg=7.0 + i * 0.1) for i in range(4)])
        )
        assert outlier_vs_explained(ExplanationTable.from_rows([]), limits, DayTable.from_rows(records), "d1") is None

    def test_null_case_p_near_one(self):
        records, limits, lim = self.setup_outliers()
        # several outlier days where explained exactly equals anomalous
        days = []
        rows = []
        for i in range(6):
            day = f"2020-05-{i + 1:02d}"
            rec = make_record(vehicle_id="id1", day=day, avg=9.96, label="outlier")
            days.append(rec)
            rows.append(
                base_row(
                    vehicle_id="id1",
                    date_tx=date(2020, 5, i + 1),
                    y_diff=9.96 - lim.lim_sup,
                    avg_fuel_consumption=9.96,
                )
            )
        report = outlier_vs_explained(ExplanationTable.from_rows(rows), limits, DayTable.from_rows(days), "d1")
        assert report.p_value == pytest.approx(1.0)

    def test_planted_direction_significant(self):
        _, limits, lim = self.setup_outliers()
        records, rows = [], []
        for i in range(40):
            day = f"2020-06-{(i % 28) + 1:02d}"
            vid = f"o{i}"
            rec = make_record(vehicle_id=vid, day=day, avg=11.0, label="outlier")
            records.append(rec)
            rows.append(
                base_row(
                    vehicle_id=vid,
                    date_tx=date(2020, 6, (i % 28) + 1),
                    y_diff=3.0 + 0.01 * i,
                    avg_fuel_consumption=11.0,
                )
            )
        report = outlier_vs_explained(ExplanationTable.from_rows(rows), limits, DayTable.from_rows(records), "d1")
        assert report.median_explained > report.median_anomalous
        assert report.p_value < 0.01


def identity(vid="v1", make="Aurora", model="Vanta"):
    return VehicleIdentity(
        vehicle_id=vid, make=make, model=model, year="2018", fuel_type="diesel", vehicle_group=0
    )


def catalog_with(value, route="highway"):
    return CatalogTable(
        [CatalogReference("Aurora", "Vanta", "2018", "diesel", route, value)]
    )


class TestCatalogMape:
    def policy(self, small_registry):
        return ReferencePolicy.from_records(small_registry, inlier_pool(small_registry))

    def test_exact_match_zero(self, small_registry):
        rows = ExplanationTable.from_rows([base_row(y_fuel_new=8.31)])
        records = [make_record(vehicle_id="v1", day="2020-04-17", avg=9.96, label="outlier")]
        report = catalog_mape(
            rows, DayTable.from_rows(records), {"v1": identity()}, catalog_with(8.31), self.policy(small_registry), "d1"
        )
        assert report.mape_1 == 0.0
        assert report.n_catalog_days == 1

    def test_offset_rule(self, small_registry):
        rows = ExplanationTable.from_rows([base_row(y_fuel_new=7.0)])
        records = [make_record(vehicle_id="v1", day="2020-04-17", avg=9.96)]
        report = catalog_mape(
            rows, DayTable.from_rows(records), {"v1": identity()}, catalog_with(8.5), self.policy(small_registry), "d1"
        )
        assert report.pct_below_catalog == 100.0  # 7.0 < 8.5 - 1

    def test_not_below_within_offset(self, small_registry):
        rows = ExplanationTable.from_rows([base_row(y_fuel_new=7.8)])
        records = [make_record(vehicle_id="v1", day="2020-04-17", avg=9.96)]
        report = catalog_mape(
            rows, DayTable.from_rows(records), {"v1": identity()}, catalog_with(8.5), self.policy(small_registry), "d1"
        )
        assert report.pct_below_catalog == 0.0

    def test_inlier_median_ratio(self, small_registry):
        # inlier fuel medians 8.0/8.1/8.2 -> cell median 8.1
        rows = ExplanationTable.from_rows([base_row(y_fuel_new=9.0)])
        records = [make_record(vehicle_id="v1", day="2020-04-17", avg=9.96, label="outlier")]
        report = catalog_mape(
            rows, DayTable.from_rows(records), {"v1": identity()}, catalog_with(9.0), self.policy(small_registry), "d1"
        )
        assert report.mape_2 == pytest.approx(abs(9.0 - 8.1) / 8.1)
        assert report.mape_3 == report.mape_2  # the only day is an outlier

    def test_unmatched_excluded_and_counted(self, small_registry):
        rows = ExplanationTable.from_rows([base_row(y_fuel_new=8.31)])
        records = [make_record(vehicle_id="v1", day="2020-04-17", avg=9.96)]
        report = catalog_mape(
            rows, DayTable.from_rows(records), {}, catalog_with(8.31), self.policy(small_registry), "d1"
        )
        assert report.n_unmatched == 1
        assert report.mape_1 is None


class TestMonthlyImpact:
    def test_co2_conversion_anchor(self, small_registry):
        # one explanation of 1 L/100km over 100 km in one month -> 1 liter
        rec = make_record(vehicle_id="v1", day="2020-04-17", trip_kms=100.0, trip_fuel_used=10.0)
        row = base_row(y_diff=1.0)
        table = monthly_impact(ExplanationTable.from_rows([row]), DayTable.from_rows([rec]), small_registry, "d1")
        assert table[0].extra_fuel_all_l == pytest.approx(1.0)
        assert table[0].co2_kg == pytest.approx(1.0 * CO2_KG_PER_LITER)

    def test_hundred_liters(self, small_registry):
        assert 100 * CO2_KG_PER_LITER == pytest.approx(267.633)

    def test_large_anchor_rounding(self):
        assert round(14631 * CO2_KG_PER_LITER) == 39157

    def test_no_explanations_month(self, small_registry):
        rec = make_record(vehicle_id="v1", day="2020-07-02", trip_kms=50.0, trip_fuel_used=5.0)
        table = monthly_impact(ExplanationTable.from_rows([]), DayTable.from_rows([rec]), small_registry, "d1")
        assert table[0].extra_fuel_all_l == 0.0
        assert table[0].co2_kg == 0.0
        assert table[0].total_fuel_l == 5.0

    def test_behaviour_category_subset(self, small_registry):
        rec = make_record(vehicle_id="v1", day="2020-04-17", trip_kms=200.0, trip_fuel_used=20.0)
        rows = [
            base_row(feature="rpm_high", y_diff=0.5),
            base_row(feature="mean_exterior_temp", y_diff=0.25),
        ]
        table = monthly_impact(ExplanationTable.from_rows(rows), DayTable.from_rows([rec]), small_registry, "d1")
        assert table[0].extra_fuel_all_l == pytest.approx(1.5)
        assert table[0].extra_fuel_behaviour_l == pytest.approx(1.0)
        assert table[0].co2_kg == pytest.approx(1.0 * CO2_KG_PER_LITER)

    def test_totals_equal_brute_force_reaggregation(self, small_registry):
        rng = np.random.default_rng(4)
        records, rows = [], []
        for i in range(50):
            month_day = (i % 3 + 4, i % 27 + 1)
            day = f"2020-{month_day[0]:02d}-{month_day[1]:02d}"
            vid = f"v{i % 9}"
            kms = float(rng.choice([25.0, 50.0, 100.0]))
            records.append(
                make_record(vehicle_id=vid, day=day, trip_kms=kms, trip_fuel_used=float(rng.uniform(2, 9)))
            )
            rows.append(
                base_row(
                    vehicle_id=vid,
                    date_tx=date(2020, month_day[0], month_day[1]),
                    feature="rpm_high",
                    y_diff=float(rng.uniform(0.1, 0.9)),
                )
            )
        table = monthly_impact(ExplanationTable.from_rows(rows), DayTable.from_rows(records), small_registry, "d1")
        kms_by_day = {(r.vehicle_id, r.date): r.trip_kms for r in records}
        for entry in table:
            expected_total = sum(
                r.trip_fuel_used
                for r in records
                if f"{r.date.year:04d}-{r.date.month:02d}" == entry.month
            )
            expected_extra = sum(
                row.y_diff * kms_by_day[row.vehicle_id, row.date_tx] / 100.0
                for row in rows
                if f"{row.date_tx.year:04d}-{row.date_tx.month:02d}" == entry.month
            )
            assert entry.total_fuel_l == pytest.approx(expected_total)
            assert entry.extra_fuel_all_l == pytest.approx(expected_extra)


class TestMedianVehicleMape:
    def test_median_across_vehicles(self):
        records = [
            make_record(vehicle_id="a", avg=10.0),
            make_record(vehicle_id="b", avg=10.0),
            make_record(vehicle_id="c", avg=10.0),
        ]
        preds = [11.0, 12.0, 13.0]  # per-vehicle mapes 10, 20, 30
        assert median_vehicle_mape(DayTable.from_rows(records), preds) == pytest.approx(20.0)


class TestWriteReportJson:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_is_a_data_error_naming_the_file(self, tmp_path, bad):
        path = tmp_path / "report_x.json"
        with pytest.raises(DataError, match="report_x.json"):
            write_report_json({"fleet": "f", "nested": [{"p_value": bad}]}, path)
        assert not path.exists()

    def test_finite_payload_bytes_unchanged(self, tmp_path):
        class Item(NamedTuple):
            name: str
            share: float
            n: int | None

        payload = {
            "fleet": "f",
            "rows": [Item("a", 0.1 + 0.2, 3), Item("b", -0.0, None)],
            "value": 1e-300,
            "none": None,
        }
        path = tmp_path / "report.json"
        write_report_json(payload, path)
        plain = {**payload, "rows": [r._asdict() for r in payload["rows"]]}
        expected = json.dumps(plain, indent=2, sort_keys=True) + "\n"
        assert path.read_text(encoding="utf-8") == expected
