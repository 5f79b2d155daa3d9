"""Reference values, savings, explanation generation and business rules."""

from __future__ import annotations

import csv
import json
import math
import tempfile
from datetime import date
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleetfuel.anomaly import compute_limits
from fleetfuel.errors import DataError, FeedFormatError, MissingFeatureError
from fleetfuel.explain import (
    BR_ORDER,
    EXPLANATION_COLUMNS,
    ExplanationRow,
    ExplanationTable,
    FuelMedians,
    ReferencePolicy,
    apply_business_rules,
    generate_daily_explanations,
    read_explanations_csv,
    write_audit_log,
    write_explanations_csv,
    write_inlier_medians_csv,
)
from fleetfuel.ingest import DayTable, FarRecord
from fleetfuel.model import DEFAULT_CATEGORICALS, AdditiveModel, FeatureColumn
from fleetfuel.registry import FeatureSpec, TrainConfig

from .conftest import (
    AuditEntry,
    audit_entries,
    drop_counts,
    fuel_saving,
    make_record,
    make_registry,
    recompute_fuel_new,
)


def step_model(shapes: dict[str, tuple[list[float], list[float]]], intercept=7.0,
               indicators: dict[str, list[str]] | None = None) -> AdditiveModel:
    """Hand-built model: numeric step shapes plus optional indicator sets."""
    columns, cuts, values = [], [], []
    for name, (c, v) in shapes.items():
        columns.append(FeatureColumn(name=name, kind="numeric", origin=name))
        cuts.append([float(x) for x in c])
        values.append([float(x) for x in v])
    for origin, levels in (indicators or {}).items():
        for i, level in enumerate(levels):
            columns.append(
                FeatureColumn(name=f"{origin}={level}", kind="indicator", origin=origin, level=level)
            )
            cuts.append([0.5])
            # active level i contributes 0.05 * i at value 1, 0 at value 0
            values.append([0.0, 0.05 * i])
    return AdditiveModel(
        intercept=intercept, columns=columns, cuts=cuts, values=values, config=TrainConfig()
    )


def inlier_pool(registry):
    """Inlier records giving mean_speed_hwy a median of 75.73."""
    speeds = [70.0, 75.73, 80.0]
    records = []
    for i, s in enumerate(speeds):
        records.append(
            make_record(
                vehicle_id=f"in{i}",
                avg=8.0 + 0.1 * i,
                label="inlier",
                features={"rpm_high": 2.0 + i, "mean_speed_hwy": s, "mean_exterior_temp": 285.0 + i},
            )
        )
    return DayTable.from_rows(records)


class TestReferenceValue:
    def test_reference_zero_feature(self, small_registry):
        policy = ReferencePolicy.from_records(small_registry, inlier_pool(small_registry))
        assert policy.reference_value("rpm_high", 0, "highway") == 0.0

    def test_median_inlier_feature(self, small_registry):
        policy = ReferencePolicy.from_records(small_registry, inlier_pool(small_registry))
        assert policy.reference_value("mean_speed_hwy", 0, "highway") == 75.73

    def test_fleet_fallback(self, small_registry):
        pool = [
            make_record(vehicle_id="other", vehicle_group=9, route_type="city", label="inlier",
                        features={"mean_speed_hwy": 5.0})
        ]
        policy = ReferencePolicy.from_records(small_registry, DayTable.from_rows(pool))
        assert policy.reference_value("mean_speed_hwy", 0, "highway") == 5.0

    def test_kind_matches_registry_flag(self, small_registry):
        policy = ReferencePolicy.from_records(small_registry, inlier_pool(small_registry))
        for spec in small_registry:
            median = policy.feature_median(0, "highway", spec.name)
            assert policy.reference_value(spec.name, 0, "highway") == (0.0 if spec.reference_zero else median)
        # the same pool with rpm_high's flag cleared prices it at its median
        registry = make_registry([small_registry["rpm_high"]._replace(reference_zero=False)])
        policy = ReferencePolicy.from_records(registry, inlier_pool(registry))
        assert policy.reference_value("rpm_high", 0, "highway") == 3.0


def fallback_pool():
    """Inliers whose cell, route and fleet medians all differ.

    Fuel and mean_speed_hwy: cell (0, highway) is 8, the highway route over
    groups 0 and 1 is 9, the fleet is 10.
    """
    cells = [(0, "highway", 8.0), (1, "highway", 10.0), (1, "highway", 10.0),
             (0, "highway", 8.0), (1, "city", 12.0), (1, "city", 12.0), (1, "city", 20.0)]
    records = [
        make_record(vehicle_id=f"f{i}", vehicle_group=group, route_type=route, avg=value,
                    label="inlier", features={"mean_speed_hwy": value})
        for i, (group, route, value) in enumerate(cells)
    ]
    return DayTable.from_rows(records)


class TestFallbackChains:
    def test_fuel_median_cell_route_fleet_none(self, small_registry):
        for medians in (FuelMedians.from_records(small_registry, fallback_pool()),
                        ReferencePolicy.from_records(small_registry, fallback_pool())):
            assert medians.fuel_median(0, "highway") == 8.0
            assert medians.fuel_median(5, "highway") == 9.0
            assert medians.fuel_median(0, "combined") == 10.0
        assert FuelMedians.from_records(small_registry, DayTable.from_rows([])).fuel_median(0, "highway") is None
        assert ReferencePolicy.from_records(small_registry, DayTable.from_rows([])).fuel_median(0, "highway") is None

    def test_feature_median_cell_route_fleet_zero(self, small_registry):
        policy = ReferencePolicy.from_records(small_registry, fallback_pool())
        assert policy.feature_median(0, "highway", "mean_speed_hwy") == 8.0
        assert policy.feature_median(5, "highway", "mean_speed_hwy") == 9.0
        assert policy.feature_median(0, "combined", "mean_speed_hwy") == 10.0
        assert policy.feature_median(0, "highway", "rpm_high") == 0.0


# ---------------------------------------------------------------------------
# Reference: fallback medians grouped record by record, one (key, value) item
# at a time, as before the columnar day table.  The grouped policy must give
# the same value, and the same sign of a zero, for every lookup.


class ItemMedians:
    """Each key prefix's values in item order, reduced once; ``get`` falls back to ever shorter prefixes."""

    def __init__(self, items, reduce):
        groups = {}
        for key, value in items:
            for n in range(1, len(key) + 1):
                groups.setdefault(key[:n], []).append(value)
        self._values = {key: reduce(values) for key, values in groups.items()}

    def get(self, key):
        while key:
            if key in self._values:
                return self._values[key]
            key = key[:-1]
        return None


def _reference_median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0


def reference_lookups(registry, records, queries):
    """repr of every fuel median and feature median the per-record loop gives at each (group, route)."""
    medians = ItemMedians(
        [((None, r.route_type, r.vehicle_group), r.avg_fuel_consumption) for r in records
         if r.avg_fuel_consumption is not None]
        + [((name, r.route_type, r.vehicle_group), value) for r in records for name, value in r.features.items()
           if name in registry],
        _reference_median,
    )
    out = []
    for group, route in queries:
        feature = [medians.get((name, route, group)) for name in registry.names]
        out.append((repr(medians.get((None, route, group))), [repr(0.0 if v is None else v) for v in feature]))
    return out


def policy_lookups(policy, registry, queries):
    return [
        (repr(policy.fuel_median(group, route)),
         [repr(policy.feature_median(group, route, name)) for name in registry.names])
        for group, route in queries
    ]


_TIED = st.sampled_from([0.0, -0.0, 0.0, -0.0, 1.0, -1.0, 2.5])


@st.composite
def inlier_tables(draw):
    records = []
    for i in range(draw(st.integers(0, 16))):
        rec = make_record(
            vehicle_id=f"v{i}",
            vehicle_group=draw(st.integers(0, 2)),
            route_type=draw(st.sampled_from(["city", "highway", "combined"])),
            avg=draw(_TIED),
            label="inlier",
            features={name: draw(_TIED) for name in make_registry().names if draw(st.booleans())},
        )
        if draw(st.integers(0, 5)) == 0:
            rec.avg_fuel_consumption = None
        rec.vehicle_class = draw(st.integers(0, 2))  # read by no median
        records.append(rec)
    return records


class TestGroupedMedians:
    QUERIES = [(group, route) for group in (0, 1, 2, 7) for route in ("city", "highway", "combined", "offroad")]

    @settings(max_examples=200, deadline=None)
    @given(records=inlier_tables())
    def test_policy_equals_per_record_reference(self, records):
        registry = make_registry()
        policy = ReferencePolicy.from_records(registry, DayTable.from_rows(records, registry.names))
        assert policy_lookups(policy, registry, self.QUERIES) == reference_lookups(registry, records, self.QUERIES)
        fuel = FuelMedians.from_records(registry, DayTable.from_rows(records))
        assert [repr(fuel.fuel_median(g, r)) for g, r in self.QUERIES] == [
            repr(policy.fuel_median(g, r)) for g, r in self.QUERIES
        ]

    def test_zero_sign_follows_row_order(self, small_registry):
        # the highway route's values in row order are -0.0, 0.0, -0.0: the median is 0.0, while
        # group by group (both of group 0's first) it would be -0.0
        rows = [(0, -0.0), (1, 0.0), (0, -0.0), (2, 0.0), (2, -0.0), (2, 1.0)]
        records = [
            make_record(vehicle_id=f"v{i}", vehicle_group=group, avg=7.0, label="inlier",
                        features={"mean_speed_hwy": value})
            for i, (group, value) in enumerate(rows)
        ]
        policy = ReferencePolicy.from_records(small_registry, DayTable.from_rows(records[:3]))
        assert repr(policy.feature_median(5, "highway", "mean_speed_hwy")) == "0.0"
        # in one cell the row order sets the sign too: 0.0, -0.0, 1.0 gives -0.0
        policy = ReferencePolicy.from_records(small_registry, DayTable.from_rows(records[3:]))
        assert repr(policy.feature_median(2, "highway", "mean_speed_hwy")) == "-0.0"


class TestFuelSaving:
    def test_direct_difference(self, small_registry):
        model = step_model({"rpm_high": ([5.0], [0.2, 0.5])})
        rec = make_record(features={"rpm_high": 9.0})
        assert fuel_saving(model, rec, "rpm_high", 0.0) == pytest.approx(0.3)

    def test_identity_at_reference(self, small_registry):
        model = step_model({"rpm_high": ([5.0], [0.2, 0.5])})
        rec = make_record(features={"rpm_high": 2.0})
        assert fuel_saving(model, rec, "rpm_high", 2.0) == 0.0

    def test_negative_saving_possible(self):
        model = step_model({"mean_speed_hwy": ([80.0], [0.5, 0.1])})
        rec = make_record(features={"mean_speed_hwy": 90.0})
        assert fuel_saving(model, rec, "mean_speed_hwy", 70.0) == pytest.approx(-0.4)


def explain_days(model, records, policy, limits):
    """generate_daily_explanations over the table of these records."""
    return generate_daily_explanations(model, DayTable.from_rows(records), policy, limits)


def explanation_setup(small_registry):
    """Model + labeled records where v-high has savings on all three features."""
    model = step_model(
        {
            "rpm_high": ([5.0], [0.0, 0.6]),
            "mean_speed_hwy": ([85.0], [0.0, 0.9]),
            "mean_exterior_temp": ([280.0], [0.4, 0.0]),
        },
        intercept=7.25,
    )
    inliers = []
    for i in range(5):
        inliers.append(
            make_record(
                vehicle_id=f"in{i}",
                avg=7.0 + 0.05 * i,
                label="inlier",
                features={"rpm_high": 1.0, "mean_speed_hwy": 75.0 + i, "mean_exterior_temp": 284.0 + i},
            )
        )
    target = make_record(
        vehicle_id="vhigh",
        avg=9.96,
        label="outlier",
        features={"rpm_high": 9.0, "mean_speed_hwy": 99.5, "mean_exterior_temp": 275.0},
    )
    limits = compute_limits(
        DayTable.from_rows([make_record(vehicle_id=f"l{i}", avg=f) for i, f in enumerate([7.0, 7.1, 7.2, 7.3])])
    )
    policy = ReferencePolicy.from_records(small_registry, DayTable.from_rows(inliers))
    return model, inliers, target, limits, policy


class TestGenerateDailyExplanations:
    def test_rows_and_fuel_new(self, small_registry):
        model, inliers, target, limits, policy = explanation_setup(small_registry)
        rows = explain_days(model, [target], policy, limits)
        by_feature = {r.feature: r for r in rows}
        # rpm_high: f(9)=0.6 vs f(0)=0.0; speed: f(99.5)=0.9 vs f(76)=0; temp: f(275)=0.4 vs f(285)=0
        assert by_feature["rpm_high"].y_diff == pytest.approx(0.6)
        assert by_feature["mean_speed_hwy"].y_diff == pytest.approx(0.9)
        assert by_feature["mean_exterior_temp"].y_diff == pytest.approx(0.4)
        total = 0.6 + 0.9 + 0.4
        for row in rows:
            assert row.y_fuel_new == pytest.approx(9.96 - total)
            assert row.intercept == 7.25
            assert row.y_pred == pytest.approx(model.predict_many(DayTable.from_rows([target]))[0])
            assert row.limit_group == limits.lookup(0, "highway").lim_sup

    def test_repeated_vehicle_day_keeps_its_own_fuel(self, small_registry):
        # a second copy of one vehicle-day at 1.6x its fuel: each slot subtracts only its own savings
        model, inliers, target, limits, policy = explanation_setup(small_registry)
        again = FarRecord(
            **{**vars(target), "trip_fuel_used": target.trip_fuel_used * 1.6, "avg_fuel_consumption": 9.96 * 1.6}
        )
        pre = explain_days(model, [target, again], policy, limits)
        kept, audit = apply_business_rules(pre, policy)
        assert (pre.n_vehicle_days(), kept.n_vehicle_days(), drop_counts(audit)) == (2, 2, dict.fromkeys(BR_ORDER, 0))
        for table in (pre, kept):
            for fuel in (9.96, 9.96 * 1.6):
                day = [row for row in table if row.avg_fuel_consumption == fuel]
                assert len(day) == 3
                assert {row.y_fuel_new for row in day} == {recompute_fuel_new(fuel, [row.y_diff for row in day])}

    def test_record_at_reference_everywhere(self, small_registry):
        model, inliers, _, limits, policy = explanation_setup(small_registry)
        resting = make_record(
            vehicle_id="calm",
            avg=7.0,
            features={"rpm_high": 0.0, "mean_speed_hwy": 76.0, "mean_exterior_temp": 286.0},
        )
        rows = explain_days(model, [resting], policy, limits)
        assert rows.rows() == []

    def test_locality_under_unrelated_vehicles(self, small_registry):
        model, inliers, target, limits, policy = explanation_setup(small_registry)
        alone = explain_days(model, [target], policy, limits)
        other = make_record(
            vehicle_id="zzz",
            avg=8.5,
            features={"rpm_high": 7.0, "mean_speed_hwy": 90.0, "mean_exterior_temp": 279.0},
        )
        both = explain_days(model, [target, other], policy, limits)
        mine = [r for r in both if r.vehicle_id == "vhigh"]
        assert mine == alone.rows()

    def test_target_values_follow_policy(self, small_registry):
        model, inliers, target, limits, policy = explanation_setup(small_registry)
        rows = explain_days(model, [target], policy, limits)
        by_feature = {r.feature: r for r in rows}
        assert by_feature["rpm_high"].target_value == 0.0
        assert by_feature["mean_speed_hwy"].target_value == 77.0  # median of 75..79


def base_row(**overrides):
    defaults = dict(
        vehicle_id="v1",
        date_tx=date(2020, 4, 17),
        route_type="highway",
        vehicle_group=0,
        intercept=7.25,
        feature="rpm_high",
        feature_relevance=0.6,
        feature_value=9.0,
        target_value=0.0,
        avg_fuel_consumption=9.96,
        limit_group=9.35,
        y_pred=10.39,
        y_diff=0.5,
        y_fuel_new=0.0,
    )
    defaults.update(overrides)
    return ExplanationRow(**defaults)


class TestBusinessRules:
    def policy(self, small_registry):
        return ReferencePolicy.from_records(small_registry, inlier_pool(small_registry))

    def test_br1_drops_categorical(self, small_registry):
        rows = [base_row(feature="vehicle_group", feature_value="14", target_value="0")]
        kept, audit = apply_business_rules(ExplanationTable.from_rows(rows), self.policy(small_registry))
        assert kept.rows() == []
        assert drop_counts(audit)["BR1"] == 1

    def test_br2_drops_below_one_percent(self, small_registry):
        rows = [base_row(avg_fuel_consumption=10.0, y_diff=0.05, feature_value=9.0)]
        kept, audit = apply_business_rules(ExplanationTable.from_rows(rows), self.policy(small_registry))
        assert kept.rows() == []
        assert drop_counts(audit)["BR2"] == 1

    def test_br2_keeps_exactly_one_percent(self, small_registry):
        rows = [base_row(avg_fuel_consumption=10.0, y_diff=0.1, feature_value=9.0)]
        kept, _ = apply_business_rules(ExplanationTable.from_rows(rows), self.policy(small_registry))
        assert len(kept) == 1

    def test_br3_requires_above_median_day(self, small_registry):
        # inlier fuel medians: 8.0, 8.1, 8.2 -> median 8.1
        low_day = base_row(avg_fuel_consumption=7.9, y_diff=0.5, feature_value=9.0)
        kept, audit = apply_business_rules(ExplanationTable.from_rows([low_day]), self.policy(small_registry))
        assert kept.rows() == []
        assert drop_counts(audit)["BR3"] == 1

    def test_br4_positive_needs_value_above_median(self, small_registry):
        # rpm_high inlier median is 3.0; a value below it fails the direction check
        row = base_row(feature_value=1.0, y_diff=0.5)
        kept, audit = apply_business_rules(ExplanationTable.from_rows([row]), self.policy(small_registry))
        assert kept.rows() == []
        assert drop_counts(audit)["BR4"] == 1

    def test_br4_negative_needs_value_below_median(self, small_registry):
        # mean_exterior_temp inlier median is 286.0 and the impact type Negative
        ok = base_row(feature="mean_exterior_temp", feature_value=280.0, y_diff=0.5)
        bad = base_row(feature="mean_exterior_temp", feature_value=290.0, y_diff=0.5)
        kept, audit = apply_business_rules(ExplanationTable.from_rows([ok, bad]), self.policy(small_registry))
        assert [r.feature_value for r in kept] == [280.0]
        assert drop_counts(audit)["BR4"] == 1

    def test_br5_drops_whole_day(self, small_registry):
        rows = [
            base_row(feature="rpm_high", feature_value=9.0, y_diff=5.0),
            base_row(feature="mean_speed_hwy", feature_value=99.0, y_diff=4.0),
        ]
        kept, audit = apply_business_rules(ExplanationTable.from_rows(rows), self.policy(small_registry), BR_ORDER)
        # total 9.0 on avg 9.96 is above the 80% cap
        assert kept.rows() == []
        assert drop_counts(audit)["BR5"] == 2

    def test_fuel_new_recomputed_on_survivors(self, small_registry):
        rows = [
            base_row(feature="rpm_high", feature_value=9.0, y_diff=1.0),
            base_row(feature="mean_speed_hwy", feature_value=99.0, y_diff=0.05),
        ]
        kept, _ = apply_business_rules(ExplanationTable.from_rows(rows), self.policy(small_registry))
        # the 0.05 row dies under BR2; fuel_new reflects only the surviving 1.0
        assert len(kept) == 1
        assert kept.rows()[0].y_fuel_new == pytest.approx(9.96 - 1.0)

    def test_post_filter_invariants(self, small_registry):
        rng = np.random.default_rng(0)
        rows = []
        for i in range(60):
            rows.append(
                base_row(
                    vehicle_id=f"v{i % 7}",
                    date_tx=date(2020, 4, 1 + (i % 25)),
                    feature="rpm_high" if i % 2 else "mean_speed_hwy",
                    feature_value=float(rng.uniform(0, 120)),
                    y_diff=float(rng.uniform(0, 6)),
                    avg_fuel_consumption=float(rng.uniform(8.5, 12.0)),
                )
            )
        policy = self.policy(small_registry)
        kept, _ = apply_business_rules(ExplanationTable.from_rows(rows), policy)
        totals = {}
        for row in kept:
            totals.setdefault((row.vehicle_id, row.date_tx), []).append(row)
        for day_rows in totals.values():
            total = sum(r.y_diff for r in day_rows)
            avg = day_rows[0].avg_fuel_consumption
            assert total <= 0.8 * avg
            for r in day_rows:
                assert r.y_fuel_new == avg - total
                assert r.y_diff / avg >= 0.01
                spec = small_registry[r.feature]
                median = policy.feature_median(r.vehicle_group, r.route_type, r.feature)
                if spec.impact_type == "Positive":
                    assert r.feature_value > median
                else:
                    assert r.feature_value < median


class TestRecomputeFuelNew:
    def test_id_anchor_arithmetic(self):
        assert recompute_fuel_new(9.96, [0.22, 0.06, 1.18, 0.07, 0.12]) == pytest.approx(8.31)

    def test_empty_is_identity(self):
        assert recompute_fuel_new(7.5, []) == 7.5


class TestCsvRoundTrip:
    def test_round_trip(self, small_registry, tmp_path):
        model, inliers, target, limits, policy = explanation_setup(small_registry)
        rows = explain_days(model, [target], policy, limits)
        path = tmp_path / "expl.csv"
        write_explanations_csv(rows, path)
        loaded = read_explanations_csv(path, small_registry)
        assert loaded.rows() == rows.rows()

    def test_round_trip_keeps_numeric_looking_levels(self, small_registry, tmp_path):
        rows = categorical_day()
        path = tmp_path / "expl.csv"
        write_explanations_csv(rows, path)
        loaded = read_explanations_csv(path, small_registry)
        assert loaded.rows() == rows.rows()
        levels = [(r.feature_value, r.target_value) for r in loaded if r.feature == "vehicle_group"]
        assert levels == [("1", "0")]

    def test_medians_export(self, small_registry, tmp_path):
        _, inliers, target, _, policy = explanation_setup(small_registry)
        path = tmp_path / "medians.csv"
        write_inlier_medians_csv(policy, DayTable.from_rows(inliers + [target]), path)
        text = path.read_text()
        assert "avg_fuel_consumption" in text
        assert "mean_speed_hwy" in text


# ---------------------------------------------------------------------------
# Reference: the per-record loop that priced every (day, feature) with scalar
# bin lookups.  The matrix path must reproduce its rows exactly.


def _numeric_value(rec, name):
    try:
        value = rec.features[name]
    except KeyError:
        raise MissingFeatureError(f"record {rec.vehicle_id}/{rec.date} lacks feature {name!r}") from None
    if not math.isfinite(value):
        raise DataError(f"feature {name!r} is not finite on {rec.vehicle_id}/{rec.date}")
    return value


def _reference_predict(model, rec):
    row = np.empty(len(model.columns), dtype=np.float64)
    for j, col in enumerate(model.columns):
        if col.kind == "numeric":
            raw = _numeric_value(rec, col.name)
        else:
            raw = 1.0 if str(getattr(rec, col.origin)) == col.level else 0.0
        row[j] = model.values[j][int(np.searchsorted(model.cuts[j], raw, side="right"))]
    return model.intercept + float(row.sum())


def reference_explanations(model, records, policy, limits):
    registry = policy.registry
    numeric_names = [
        col.name
        for col in model.columns
        if col.kind == "numeric" and col.name in registry and registry[col.name].actionable
    ]
    rows = []
    for rec in sorted(records, key=lambda r: (r.vehicle_id, r.date)):
        day_rows = []  # a record is one vehicle-day, whatever other record shares its vehicle and date
        if rec.avg_fuel_consumption is None:
            continue
        lim = limits.lookup(rec.vehicle_group, rec.route_type)
        if lim is None:
            continue
        y_pred = _reference_predict(model, rec)
        common = dict(
            vehicle_id=rec.vehicle_id,
            date_tx=rec.date,
            route_type=rec.route_type,
            vehicle_group=rec.vehicle_group,
            intercept=model.intercept,
            avg_fuel_consumption=rec.avg_fuel_consumption,
            limit_group=lim.lim_sup,
            y_pred=y_pred,
            y_fuel_new=0.0,
        )
        for name in numeric_names:
            x_ref = policy.reference_value(name, rec.vehicle_group, rec.route_type)
            diff = fuel_saving(model, rec, name, x_ref)
            if diff <= 0:
                continue
            day_rows.append(
                ExplanationRow(
                    feature=name,
                    feature_relevance=model.contribution_at(name, rec.features[name]),
                    feature_value=rec.features[name],
                    target_value=x_ref,
                    y_diff=diff,
                    **common,
                )
            )
        fuel_new = recompute_fuel_new(rec.avg_fuel_consumption, [row.y_diff for row in day_rows])
        rows += [row._replace(y_fuel_new=fuel_new) for row in day_rows]
    return rows


def categorical_fallback_setup(small_registry):
    """One outlier day in group 1 on a highway, where every inlier is group 0.

    Group 1's highway cell has one day, so it borrows the highway limits,
    and it has no inlier of its own: the one corner where the fleet's most
    common group (0) differs from the day's own, so a priced context would
    have made a row.  The model has an indicator column per group.
    """
    model = step_model(
        {
            "rpm_high": ([5.0], [0.0, 0.6]),
            "mean_speed_hwy": ([85.0], [0.0, 0.9]),
            "mean_exterior_temp": ([280.0], [0.4, 0.0]),
        },
        intercept=7.25,
        indicators={"vehicle_group": ["0", "1"]},
    )
    inliers = [
        make_record(
            vehicle_id=f"in{i}",
            avg=7.0 + 0.05 * i,
            label="inlier",
            features={"rpm_high": 1.0, "mean_speed_hwy": 75.0 + i, "mean_exterior_temp": 284.0 + i},
        )
        for i in range(5)
    ]
    target = make_record(
        vehicle_id="vgrp1",
        vehicle_group=1,
        avg=9.96,
        label="outlier",
        features={"rpm_high": 9.0, "mean_speed_hwy": 99.5, "mean_exterior_temp": 275.0},
    )
    limits = compute_limits(DayTable.from_rows(inliers + [target]))
    policy = ReferencePolicy.from_records(small_registry, DayTable.from_rows(inliers))
    return model, inliers, target, limits, policy


def categorical_day():
    """The borrowed-limit day of ``categorical_fallback_setup`` as explain once wrote it.

    Three numeric rows and a categorical row, from group level 1 to the
    fleet's 0, whose saving counted in the day's y_fuel_new.  Explain no
    longer prices categorical contexts, but a file may still hold such a
    row: the reader keeps its levels as text and BR1 drops it.
    """
    day = dict(vehicle_id="vgrp1", date_tx=date(2021, 1, 5), route_type="highway", vehicle_group=1, intercept=7.25,
               avg_fuel_consumption=9.96, limit_group=7.375, y_pred=9.2, y_fuel_new=8.010000000000002)
    cells = [("rpm_high", 0.6, 9.0, 0.0, 0.6), ("mean_speed_hwy", 0.9, 99.5, 77.0, 0.9),
             ("mean_exterior_temp", 0.4, 275.0, 286.0, 0.4), ("vehicle_group", 0.05, "1", "0", 0.05)]
    return ExplanationTable.from_rows(
        ExplanationRow(feature=name, feature_relevance=rel, feature_value=value, target_value=target, y_diff=dy, **day)
        for name, rel, value, target, dy in cells
    )


class TestMatchesReferenceLoop:
    def test_step_model_setups(self, small_registry):
        model, inliers, target, limits, policy = explanation_setup(small_registry)
        other = make_record(
            vehicle_id="zzz",
            avg=8.5,
            features={"rpm_high": 7.0, "mean_speed_hwy": 90.0, "mean_exterior_temp": 279.0},
        )
        resting = make_record(
            vehicle_id="calm",
            avg=7.0,
            features={"rpm_high": 0.0, "mean_speed_hwy": 76.0, "mean_exterior_temp": 286.0},
        )
        for records in ([target], [target, other], [resting], [other, resting, target], inliers, []):
            expected = reference_explanations(model, records, policy, limits)
            assert explain_days(model, records, policy, limits).rows() == expected

    def test_categorical_fallback_row(self, small_registry):
        # the borrowed-limit day gets its numeric rows only, and BR1 has nothing to drop
        model, inliers, target, limits, policy = categorical_fallback_setup(small_registry)
        assert limits.lookup(1, "highway").borrowed
        rows = explain_days(model, [target] + inliers, policy, limits)
        assert rows.rows() == reference_explanations(model, [target] + inliers, policy, limits)
        day = [r for r in rows if r.vehicle_id == "vgrp1"]
        assert [r.feature for r in day] == ["rpm_high", "mean_speed_hwy", "mean_exterior_temp"]
        assert {r.y_fuel_new for r in day} == {recompute_fuel_new(9.96, [r.y_diff for r in day])}
        _, audit = apply_business_rules(rows, policy)
        assert drop_counts(audit)["BR1"] == 0

    def test_missing_feature_raises(self, small_registry):
        model, inliers, target, limits, policy = explanation_setup(small_registry)
        lacking = make_record(vehicle_id="lack", avg=9.0, features={"rpm_high": 3.0, "mean_speed_hwy": 80.0})
        for fn in (reference_explanations, explain_days):
            with pytest.raises(MissingFeatureError, match="mean_exterior_temp"):
                fn(model, [target, lacking], policy, limits)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_feature_raises(self, small_registry, bad):
        model, inliers, target, limits, policy = explanation_setup(small_registry)
        broken = make_record(
            vehicle_id="bad",
            avg=9.0,
            features={"rpm_high": 3.0, "mean_speed_hwy": bad, "mean_exterior_temp": 280.0},
        )
        for fn in (reference_explanations, explain_days):
            with pytest.raises(DataError, match="mean_speed_hwy"):
                fn(model, [target, broken], policy, limits)

    def test_skipped_records_are_not_checked(self, small_registry):
        # a day without fuel or limits is skipped before its features are read
        model, inliers, target, limits, policy = explanation_setup(small_registry)
        no_fuel = make_record(vehicle_id="nofuel", trip_fuel_used=None, features={})
        no_fuel.avg_fuel_consumption = None
        no_limit = make_record(vehicle_id="nolim", route_type="city", avg=9.0, features={})
        records = [target, no_fuel, no_limit]
        rows = explain_days(model, records, policy, limits)
        assert rows.rows() == reference_explanations(model, records, policy, limits)
        assert {r.vehicle_id for r in rows} == {"vhigh"}


_GRID = st.integers(0, 16).map(lambda i: i / 4.0)
_VALUES = st.integers(-6, 6).map(lambda i: i / 10.0)
_NAMES = ("rpm_high", "mean_speed_hwy", "mean_exterior_temp", "payload")


def _property_registry():
    payload = FeatureSpec(
        name="payload",
        unit="kg",
        aggregator="mean",
        impact_type="Positive",
        reference_zero=False,
        category="Operational Mass",
        subcategory="Vehicle Extra Mass",
        actionable=False,
    )
    return make_registry(list(make_registry()) + [payload])


@st.composite
def explain_problems(draw):
    columns, cuts, values = [], [], []
    for name in _NAMES:
        c = sorted(set(draw(st.lists(_GRID, min_size=1, max_size=4))))
        columns.append(FeatureColumn(name=name, kind="numeric", origin=name))
        cuts.append(c)
        values.append(draw(st.lists(_VALUES, min_size=len(c) + 1, max_size=len(c) + 1)))
    for origin, levels in (("vehicle_group", ["0", "1", "2"]), ("route_type", ["city", "highway"])):
        if draw(st.booleans()):
            for level in levels:
                columns.append(FeatureColumn(f"{origin}={level}", "indicator", origin, level))
                cuts.append([0.5])
                values.append(draw(st.lists(_VALUES, min_size=2, max_size=2)))
    model = AdditiveModel(
        intercept=draw(_VALUES) + 7.0, columns=columns, cuts=cuts, values=values, config=TrainConfig()
    )
    records = []
    for i in range(draw(st.integers(1, 14))):
        rec = make_record(
            vehicle_id=f"v{draw(st.integers(0, 3))}",
            day=f"2021-01-0{draw(st.integers(1, 3))}",
            vehicle_group=draw(st.integers(0, 2)),
            route_type=draw(st.sampled_from(["city", "highway"])),
            avg=draw(st.integers(24, 48)) / 4.0,
            label=draw(st.sampled_from(["inlier", "outlier"])),
            features={name: draw(_GRID) for name in _NAMES},
        )
        if draw(st.integers(0, 9)) == 0:
            rec.avg_fuel_consumption = None
        records.append(rec)
    # days that only back the limits: a route drawn here has fleet-wide
    # support, so its small cells borrow limits instead of being skipped
    support = [
        make_record(vehicle_id=f"s{i}", vehicle_group=9, route_type=route, avg=8.0 + i / 4.0)
        for route in draw(st.sampled_from([("city", "highway")] * 3 + [("city",), ("highway",), ()]))
        for i in range(4)
    ]
    return model, records, support


class TestReferenceProperty:
    @settings(max_examples=200, deadline=None)
    @given(problem=explain_problems())
    def test_rows_equal_reference(self, problem):
        model, records, support = problem
        registry = _property_registry()
        inliers = [r for r in records if r.anomaly_label == "inlier"]
        policy = ReferencePolicy.from_records(registry, DayTable.from_rows(inliers))
        limits = compute_limits(DayTable.from_rows(records + support))
        expected = reference_explanations(model, records, policy, limits)
        assert explain_days(model, records, policy, limits).rows() == expected


# nonzero tenths: a sum of these rounds differently when its terms are regrouped
_TERMS = st.sampled_from((0.1, 0.2, 0.3, 0.7, -0.1, -0.2, -0.3))
_LEVELS = {
    "route_type": ["city", "highway"],
    "vehicle_group": ["0", "1", "2"],
    "vehicle_class": [str(c) for c in range(10)],
}


def _column_levels(origin):
    """A drawn order of the origin's levels, all but up to three of them."""
    levels = _LEVELS[origin]
    return st.lists(st.sampled_from(levels), min_size=max(1, len(levels) - 3), unique=True)


@st.composite
def categorical_problems(draw):
    """Small fleets priced by a model with indicator columns for every default categorical.

    Each origin has columns for a drawn subset of its levels, so some days
    hold a level without a column, and the indicator columns come in a
    drawn order; vehicle_class has seven to ten, and numpy's pairwise sum
    regroups eight or more terms in y_pred.  A (group, route) cell may hold
    no inlier, so the fleet's medians apply there, and a fleet without
    inliers has none at all.
    """
    names = make_registry().names
    columns, cuts, values = [], [], []
    for name in names:
        c = sorted(set(draw(st.lists(_GRID, min_size=1, max_size=3))))
        columns.append(FeatureColumn(name=name, kind="numeric", origin=name))
        cuts.append(c)
        values.append(draw(st.lists(_VALUES, min_size=len(c) + 1, max_size=len(c) + 1)))
    indicators = [
        FeatureColumn(f"{origin}={level}", "indicator", origin, level)
        for origin in DEFAULT_CATEGORICALS
        for level in draw(_column_levels(origin))
    ]
    for col in draw(st.permutations(indicators)):
        columns.append(col)
        cuts.append([0.5])
        values.append(draw(st.lists(_TERMS, min_size=2, max_size=2)))
    model = AdditiveModel(
        intercept=draw(_VALUES) + 7.0, columns=columns, cuts=cuts, values=values, config=TrainConfig()
    )
    records = []
    for _ in range(draw(st.integers(1, 4))):
        group, route = draw(st.integers(0, 2)), draw(st.sampled_from(_LEVELS["route_type"]))
        labels = st.sampled_from(["outlier"] if draw(st.booleans()) else ["inlier", "outlier"])
        for _ in range(draw(st.integers(1, 4))):
            rec = make_record(
                vehicle_id=f"v{draw(st.integers(0, 3))}",
                day=f"2021-01-0{draw(st.integers(1, 3))}",
                vehicle_group=group,
                route_type=route,
                avg=draw(st.integers(24, 48)) / 4.0,
                label=draw(labels),
                features={name: draw(_GRID) for name in names},
            )
            rec.vehicle_class = draw(st.integers(0, 9))
            records.append(rec)
    # days that only back the limits, so every drawn cell has one
    support = [
        make_record(vehicle_id=f"s{i}", vehicle_group=9, route_type=route, avg=8.0 + i / 4.0)
        for route in _LEVELS["route_type"]
        for i in range(4)
    ]
    return model, records, support


class TestCategoricalProperty:
    @settings(max_examples=200, deadline=None)
    @given(problem=categorical_problems())
    def test_rows_equal_reference(self, problem):
        model, records, support = problem
        registry = make_registry()
        inliers = [r for r in records if r.anomaly_label == "inlier"]
        policy = ReferencePolicy.from_records(registry, DayTable.from_rows(inliers))
        limits = compute_limits(DayTable.from_rows(records + support))
        expected = reference_explanations(model, records, policy, limits)
        rows = explain_days(model, records, policy, limits).rows()
        assert rows == expected
        # the indicator columns add no row
        assert {r.feature for r in rows} <= set(registry.names)


class TestReadExplanationsCsv:
    def test_bad_cell_names_file_and_line(self, small_registry, tmp_path):
        model, inliers, target, limits, policy = explanation_setup(small_registry)
        path = tmp_path / "expl.csv"
        write_explanations_csv(explain_days(model, [target], policy, limits), path)
        lines = path.read_text().splitlines()
        lines[2] = lines[2].replace("vhigh,2021-01-05", "vhigh,not-a-date")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FeedFormatError, match=r"expl\.csv: line 3"):
            read_explanations_csv(path, small_registry)

    @pytest.mark.parametrize("column", [
        "intercept", "feature_relevance", "feature_value", "target_value", "avg_fuel_consumption", "limit_group",
        "y_pred", "y_diff", "y_fuel_new",
    ])
    def test_non_finite_number_names_line_and_column(self, small_registry, tmp_path, column):
        model, inliers, target, limits, policy = explanation_setup(small_registry)
        path = tmp_path / "expl.csv"
        write_explanations_csv(explain_days(model, [target], policy, limits), path)
        rows = list(csv.reader(path.read_text().splitlines()))
        rows[2][rows[0].index(column)] = "nan"
        path.write_text("".join(",".join(row) + "\n" for row in rows))
        with pytest.raises(FeedFormatError, match=rf"expl\.csv: line 3: {column} is not finite \(nan\)"):
            read_explanations_csv(path, small_registry)

    def test_non_finite_looking_level_is_text(self, small_registry, tmp_path):
        path = tmp_path / "expl.csv"
        write_explanations_csv(categorical_day(), path)
        path.write_text(path.read_text().replace(",vehicle_group,0.05,1,0,", ",vehicle_group,0.05,inf,nan,"))
        levels = [(r.feature_value, r.target_value) for r in read_explanations_csv(path, small_registry)
                  if r.feature == "vehicle_group"]
        assert levels == [("inf", "nan")]

    def test_short_row_is_a_format_error(self, small_registry, tmp_path):
        path = tmp_path / "expl.csv"
        path.write_text(",".join(("vehicle_id", "date_tx", "route_type", "vehicle_group", "intercept",
                                  "feature", "feature_relevance", "feature_value", "target_value",
                                  "avg_fuel_consumption", "limit_group", "y_pred", "y_diff",
                                  "y_fuel_new")) + "\nv1,2021-01-05\n")
        with pytest.raises(FeedFormatError, match="line 2"):
            read_explanations_csv(path, small_registry)


# ---------------------------------------------------------------------------
# Reference: the row loops that filtered, wrote and logged explanation rows
# one at a time.  The table's rule masks, CSV writer and audit writer must
# reproduce their rows, audit entries and bytes exactly; the columnar audit
# is compared after expanding it to one entry per dropped row.


#: the cells every row of one vehicle-day repeats: rows that agree on all nine are one day
_DAY_CELLS = attrgetter(
    "vehicle_id", "date_tx", "route_type", "vehicle_group", "intercept", "avg_fuel_consumption", "limit_group",
    "y_pred", "y_fuel_new",
)


def _reference_day_totals(rows):
    totals = {}
    for row in rows:
        key = _DAY_CELLS(row)
        totals[key] = totals.get(key, 0.0) + row.y_diff
    return totals


def reference_business_rules(rows, policy, rules=BR_ORDER, br2_threshold=0.01, br5_cap=0.8):
    registry = policy.registry
    audit = []
    current = list(rows)

    def drop(row, rule, values):
        audit.append(AuditEntry(rule, row.vehicle_id, row.date_tx.isoformat(), row.feature, values))

    for rule in rules:
        kept = []
        if rule == "BR1":
            for row in current:
                if row.feature in registry:
                    kept.append(row)
                else:
                    drop(row, "BR1", {"reason": "categorical"})
        elif rule == "BR2":
            for row in current:
                impact = row.y_diff / row.avg_fuel_consumption
                if impact < br2_threshold:
                    drop(row, "BR2", {"relative_impact": impact})
                else:
                    kept.append(row)
        elif rule == "BR3":
            for row in current:
                median = policy.fuel_median(row.vehicle_group, row.route_type)
                if median is None or row.avg_fuel_consumption > median:
                    kept.append(row)
                else:
                    drop(row, "BR3", {"avg_fuel": row.avg_fuel_consumption, "median_inlier": median})
        elif rule == "BR4":
            for row in current:
                spec = registry.get(row.feature)
                if spec is None:
                    kept.append(row)
                    continue
                median = policy.feature_median(row.vehicle_group, row.route_type, row.feature)
                value = row.feature_value
                if value > median if spec.impact_type == "Positive" else value < median:
                    kept.append(row)
                else:
                    drop(
                        row,
                        "BR4",
                        {"feature_value": value, "median_inlier": median, "impact_type": spec.impact_type},
                    )
        elif rule == "BR5":
            totals = _reference_day_totals(current)
            for row in current:
                total = totals[_DAY_CELLS(row)]
                if total > br5_cap * row.avg_fuel_consumption:
                    drop(row, "BR5", {"total_saving": total, "avg_fuel": row.avg_fuel_consumption, "cap": br5_cap})
                else:
                    kept.append(row)
        current = kept
    totals = _reference_day_totals(current)
    return [
        row._replace(y_fuel_new=recompute_fuel_new(row.avg_fuel_consumption, [totals[_DAY_CELLS(row)]]))
        for row in current
    ], audit


def csv_cell(value) -> str:
    """One CSV cell as the writers format it: "" for None, repr for a float, else str."""
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


def reference_write_csv(rows, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(EXPLANATION_COLUMNS)
        for row in rows:
            writer.writerow(
                [
                    row.vehicle_id,
                    row.date_tx.isoformat(),
                    row.route_type,
                    str(row.vehicle_group),
                    repr(row.intercept),
                    row.feature,
                    repr(row.feature_relevance),
                    csv_cell(row.feature_value),
                    csv_cell(row.target_value),
                    repr(row.avg_fuel_consumption),
                    repr(row.limit_group),
                    repr(row.y_pred),
                    repr(row.y_diff),
                    repr(row.y_fuel_new),
                ]
            )


_REFERENCE_JSON = json.JSONEncoder(sort_keys=True)


def reference_write_audit(entries, path):
    with open(path, "w", encoding="utf-8") as fh:
        for e in entries:
            fh.write(
                _REFERENCE_JSON.encode(
                    {"rule_id": e.rule_id, "vehicle_id": e.vehicle_id, "date": e.date_tx,
                     "feature": e.feature, "values": e.values}
                )
            )
            fh.write("\n")


# vehicle ids with non-ASCII letters (JSON escapes) and CSV specials (quoting)
_VEHICLES = ("v1", "v2", "k\u00fchl-3", "\u8eca4", 'v,"5')
_ROUTES = ("city", "highway")
_FUEL = st.sampled_from([8.0, 10.0, 12.5, 9.75])
# 0.1 and 0.2 on a 10.0 day sit exactly on the BR2 thresholds 0.01 and 0.02;
# 0.0 and -0.0 are equal floats with different texts
_SAVING = st.one_of(
    st.sampled_from([0.1, 0.2, 0.05, 0.0, -0.0]),
    st.floats(0.01, 0.6, allow_nan=False),
    st.just(math.nan),
)
_LEVEL_VALUES = {"vehicle_group": ("0", "1", "2"), "route_type": _ROUTES}
# savings with full 53-bit mantissas, so that sums depend on their order
_BUSY_SAVING = st.integers(1, 10**6).map(lambda k: 0.9 + k / 2e6)


@st.composite
def rule_problems(draw):
    """Random pre-filter rows plus the policy and rule settings they are filtered with."""
    registry = _property_registry()
    no_fuel = draw(st.integers(0, 5)) == 0  # every fuel median is None
    inliers = [
        make_record(
            vehicle_id=f"in{i}",
            vehicle_group=draw(st.integers(0, 2)),
            route_type=draw(st.sampled_from(_ROUTES)),
            avg=None if no_fuel else draw(st.sampled_from([8.0, 9.0, 10.0, 11.0])),
            label="inlier",
            features={name: draw(_GRID) for name in _NAMES},
        )
        for i in range(draw(st.integers(0, 6)))
    ]
    if no_fuel:
        for rec in inliers:
            rec.avg_fuel_consumption = None
    policy = ReferencePolicy.from_records(registry, DayTable.from_rows(inliers))
    # one record per drawn day; two records may share a vehicle and date
    days = [
        dict(
            vehicle_id=draw(st.sampled_from(_VEHICLES)),
            date_tx=date(2021, 1, draw(st.integers(1, 3))),
            route_type=draw(st.sampled_from(_ROUTES)),
            vehicle_group=draw(st.integers(0, 2)),
            intercept=7.0,
            avg_fuel_consumption=draw(_FUEL),
            limit_group=9.0,
            y_pred=draw(st.floats(6.0, 14.0)),
            y_fuel_new=0.0,
        )
        for _ in range(draw(st.integers(1, 5)))
    ]
    rows = []
    for _ in range(draw(st.integers(0, 30))):
        day = days[draw(st.integers(0, len(days) - 1))]
        feature = draw(st.sampled_from(_NAMES + tuple(_LEVEL_VALUES)))
        if feature in _LEVEL_VALUES:
            value, target = (draw(st.sampled_from(_LEVEL_VALUES[feature])) for _ in range(2))
        else:
            value, target = draw(_GRID), draw(_GRID)
        rows.append(
            ExplanationRow(
                feature=feature, feature_relevance=draw(_SAVING), feature_value=value, target_value=target,
                y_diff=draw(_SAVING), **day,
            )
        )
    # a busy record of the first day's vehicle and date, above every fuel
    # median, whose rows pass BR2-BR4: enough of them that a pairwise sum
    # rounds differently, and often enough saving for BR5 to drop the day
    if draw(st.integers(0, 3)):
        day = dict(days[0], avg_fuel_consumption=12.5)
        for name in draw(st.lists(st.sampled_from(_NAMES[:3]), min_size=9, max_size=16)):
            spec = registry[name]
            rows.append(
                ExplanationRow(
                    feature=name,
                    feature_relevance=0.5,
                    feature_value=4.0 if spec.impact_type == "Positive" else 0.0,
                    target_value=0.0,
                    y_diff=draw(_BUSY_SAVING),
                    **day,
                )
            )
    rules = draw(st.sampled_from([BR_ORDER, ("BR1", "BR3", "BR2")]))
    if rules != BR_ORDER:
        policy = FuelMedians.from_records(registry, DayTable.from_rows(inliers))
    return rows, policy, rules, draw(st.sampled_from([0.01, 0.02])), draw(st.sampled_from([0.8, 0.6]))


class TestTableMatchesRowLoops:
    @settings(max_examples=300, deadline=None)
    @given(problem=rule_problems())
    def test_rules_and_writers_equal_reference(self, problem):
        rows, policy, rules, br2, cap = problem
        table = ExplanationTable.from_rows(rows)
        kept, audit = apply_business_rules(table, policy, rules, br2_threshold=br2, br5_cap=cap)
        expected_rows, expected_audit = reference_business_rules(rows, policy, rules, br2, cap)
        # repr compares NaN savings and the float/str type of every cell
        assert repr(kept.rows()) == repr(expected_rows)
        assert [rule for rule, _, _ in audit] == list(rules)  # one record per rule, even one that drops nothing
        assert repr(audit_entries(audit, table)) == repr(expected_audit)
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            for name, written, expected in (("pre", table, rows), ("final", kept, expected_rows)):
                write_explanations_csv(written, out / f"{name}.csv")
                reference_write_csv(expected, out / f"{name}_ref.csv")
                assert (out / f"{name}.csv").read_bytes() == (out / f"{name}_ref.csv").read_bytes()
            write_audit_log(audit, table, out / "audit.jsonl")
            reference_write_audit(expected_audit, out / "audit_ref.jsonl")
            assert (out / "audit.jsonl").read_bytes() == (out / "audit_ref.jsonl").read_bytes()

    def test_empty_table(self, small_registry, tmp_path):
        policy = ReferencePolicy.from_records(small_registry, inlier_pool(small_registry))
        kept, audit = apply_business_rules(ExplanationTable.from_rows([]), policy)
        assert (len(kept), kept.rows(), kept.n_vehicle_days()) == (0, [], 0)
        assert drop_counts(audit) == dict.fromkeys(BR_ORDER, 0)
        write_explanations_csv(kept, tmp_path / "e.csv")
        reference_write_csv([], tmp_path / "r.csv")
        assert (tmp_path / "e.csv").read_bytes() == (tmp_path / "r.csv").read_bytes()
        assert read_explanations_csv(tmp_path / "e.csv", small_registry).rows() == []

    def test_audit_escapes_and_non_finite_values(self, tmp_path):
        table = ExplanationTable.from_rows([
            base_row(vehicle_id="\u8eca-\u00fc", date_tx=date(2021, 1, 1), feature='f"q'),
            base_row(vehicle_id="v", date_tx=date(2021, 1, 2), feature="f"),
        ])
        audit = [
            ("BR2", [0], {"relative_impact": [math.nan]}),
            ("BR5", [1], {"total_saving": [math.inf], "avg_fuel": [-0.0], "cap": [1]}),
            ("BR4", [1], {"feature_value": [3], "median_inlier": [0.0], "impact_type": ["Positive"]}),
        ]
        entries = audit_entries(audit, table)
        assert entries == [
            AuditEntry("BR2", "\u8eca-\u00fc", "2021-01-01", 'f"q', {"relative_impact": math.nan}),
            AuditEntry("BR5", "v", "2021-01-02", "f", {"total_saving": math.inf, "avg_fuel": -0.0, "cap": 1}),
            AuditEntry(
                "BR4", "v", "2021-01-02", "f", {"feature_value": 3, "median_inlier": 0.0, "impact_type": "Positive"}
            ),
        ]
        write_audit_log(audit, table, tmp_path / "a.jsonl")
        reference_write_audit(entries, tmp_path / "r.jsonl")
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "r.jsonl").read_bytes()
