"""Feed parsing, daily aggregation, route rules, classes, filters, imputation."""

from __future__ import annotations

import io
import random
from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleetfuel.errors import DataError, FeedFormatError
from fleetfuel.ingest import (
    RouteThresholds,
    aggregate_daily,
    assign_vehicle_class,
    classify_route,
    compute_avg_fuel,
    impute_missing,
    parse_feed,
    quality_filter,
    read_far_csv,
    write_far_csv,
)
from fleetfuel.registry import load_class_table

from .conftest import make_record, make_registry

HEADER = "time_tx,vehicle_id,variable_id,variable_value\n"


def brute_force_route(ptc: float, kms: float, th: RouteThresholds) -> str:
    """Independent transcription of the three routing rules."""
    if ptc <= th.low_th_time and kms >= th.th_kms:
        return "highway"
    elif ptc >= th.high_th_time and kms <= th.th_kms:
        return "city"
    else:
        return "combined"


class TestParseFeed:
    def test_sample_row(self):
        stream = io.StringIO(
            HEADER + "2020-10-31 00:02:34.073000+00:00, b123, EngineSpeed, 1200\n"
        )
        parsed = parse_feed(stream)
        assert len(parsed.readings) == 1
        r = parsed.readings[0]
        assert (r.vehicle_id, r.variable_id, r.variable_value) == ("b123", "EngineSpeed", 1200.0)
        assert r.time_tx.microsecond == 73000

    def test_header_only_yields_empty(self):
        parsed = parse_feed(io.StringIO(HEADER))
        assert parsed.readings == []
        assert parsed.n_rejected == 0

    def test_bad_value_rejected_and_counted(self):
        stream = io.StringIO(HEADER + "2020-10-31 00:02:34+00:00,b1,EngineSpeed,abc\n")
        parsed = parse_feed(stream)
        assert parsed.readings == []
        assert parsed.rejects["bad_value"] == 1

    def test_bad_timestamp_rejected(self):
        stream = io.StringIO(HEADER + "not-a-time,b1,EngineSpeed,5\n")
        parsed = parse_feed(stream)
        assert parsed.rejects["bad_timestamp"] == 1

    def test_non_finite_value_rejected(self):
        stream = io.StringIO(HEADER + "2020-10-31 00:02:34+00:00,b1,EngineSpeed,inf\n")
        parsed = parse_feed(stream)
        assert parsed.rejects["bad_value"] == 1

    def test_missing_header_fatal(self):
        with pytest.raises(FeedFormatError):
            parse_feed(io.StringIO("a,b,c\n1,2,3\n"))

    def test_row_order_preserved(self):
        rows = "".join(
            f"2020-10-31 00:0{i}:00+00:00,b1,EngineSpeed,{i}\n" for i in range(5)
        )
        parsed = parse_feed(io.StringIO(HEADER + rows))
        assert [r.variable_value for r in parsed.readings] == [0, 1, 2, 3, 4]


class TestAggregateDaily:
    def feed(self, rows):
        parsed = parse_feed(io.StringIO(HEADER + rows))
        assert parsed.n_rejected == 0
        return parsed.readings

    def test_mean_aggregator(self, small_registry):
        readings = self.feed(
            "2020-10-31 01:00:00+00:00,b1,mean_speed_hwy,1000\n"
            "2020-10-31 02:00:00+00:00,b1,mean_speed_hwy,1400\n"
        )
        records, _ = aggregate_daily(readings, small_registry)
        assert len(records) == 1
        assert records[0].features["mean_speed_hwy"] == 1200.0

    def test_trip_fuel_sum(self, small_registry):
        readings = self.feed(
            "2020-10-31 01:00:00+00:00,b1,TripFuel,1.0\n"
            "2020-10-31 02:00:00+00:00,b1,TripFuel,2.1\n"
        )
        records, _ = aggregate_daily(readings, small_registry)
        assert records[0].trip_fuel_used == 3.1

    def test_sum_is_exactly_rounded(self, small_registry):
        # adding the sorted samples left to right loses the 1.0; math.fsum keeps it
        readings = self.feed(
            "2020-10-31 01:00:00+00:00,b1,TripFuel,-1e16\n"
            "2020-10-31 02:00:00+00:00,b1,TripFuel,1.0\n"
            "2020-10-31 03:00:00+00:00,b1,TripFuel,1e16\n"
        )
        records, _ = aggregate_daily(readings, small_registry)
        assert records[0].trip_fuel_used == 1.0

    def test_grouping_cardinality(self, small_registry):
        rows = []
        for v in ("a", "b"):
            for d in (1, 2, 3):
                rows.append(f"2020-10-0{d} 01:00:00+00:00,{v},rpm_high,1\n")
        records, _ = aggregate_daily(self.feed("".join(rows)), small_registry)
        assert len(records) == 6

    def test_unknown_channel_skipped_with_warning(self, small_registry):
        readings = self.feed("2020-10-31 01:00:00+00:00,b1,Mystery,5\n")
        records, report = aggregate_daily(readings, small_registry)
        assert records == []
        assert report.unknown_channels == {"Mystery": 1}

    def test_ignore_list_silences_channel(self, small_registry):
        readings = self.feed("2020-10-31 01:00:00+00:00,b1,Mystery,5\n")
        _, report = aggregate_daily(readings, small_registry, ignore=("Mystery",))
        assert report.unknown_channels == {}

    def test_max_count_last_aggregators(self):
        from fleetfuel.registry import FeatureSpec

        registry = make_registry(
            [
                FeatureSpec(
                    name=f"{agg}_probe", unit="u", aggregator=agg, impact_type="Positive",
                    reference_zero=True, category="Driving Behaviour",
                    subcategory="Eco-Driving", actionable=True,
                )
                for agg in ("max", "count", "last")
            ]
        )
        rows = "".join(
            f"2020-10-31 0{i}:00:00+00:00,b1,{name},{v}\n"
            for name in ("max_probe", "count_probe", "last_probe")
            for i, v in enumerate((4.0, 9.0, 2.0))
        )
        records, _ = aggregate_daily(self.feed(rows), registry)
        assert records[0].features["max_probe"] == 9.0
        assert records[0].features["count_probe"] == 3.0
        assert records[0].features["last_probe"] == 2.0  # latest timestamp wins

    def test_permutation_invariant(self, small_registry):
        rows = [
            f"2020-10-31 0{i}:0{j}:00+00:00,b{j},rpm_high,{i * 0.37 + j}\n"
            for i in range(5)
            for j in range(3)
        ]
        readings = self.feed("".join(rows))
        base, _ = aggregate_daily(readings, small_registry)
        rng = random.Random(7)
        for _ in range(5):
            shuffled = list(readings)
            rng.shuffle(shuffled)
            result, _ = aggregate_daily(shuffled, small_registry)
            assert result == base


class TestAvgFuel:
    def test_direct_formula(self):
        assert compute_avg_fuel(3.1, 40.0) == pytest.approx(7.75)

    def test_zero_fuel(self):
        assert compute_avg_fuel(0.0, 50.0) == 0.0

    def test_100km_normalization(self):
        assert compute_avg_fuel(9.96, 100.0) == pytest.approx(9.96)

    def test_zero_distance_error(self):
        with pytest.raises(DataError):
            compute_avg_fuel(1.0, 0.0)


class TestClassifyRoute:
    def test_paper_rules(self):
        assert classify_route(0.4, 50) == "highway"
        assert classify_route(0.7, 10) == "city"
        assert classify_route(0.6, 50) == "combined"

    def test_boundaries(self):
        th = RouteThresholds()
        # boundary values hit the first matching rule
        assert classify_route(0.5, 30, th) == "highway"
        assert classify_route(0.65, 30, th) == "city"
        assert classify_route(0.65, 31, th) == "combined"

    @settings(max_examples=300)
    @given(
        ptc=st.floats(min_value=0.0, max_value=1.0),
        kms=st.floats(min_value=0.0, max_value=400.0),
    )
    def test_agrees_with_brute_force(self, ptc, kms):
        th = RouteThresholds()
        assert classify_route(ptc, kms, th) == brute_force_route(ptc, kms, th)


class TestVehicleClass:
    def test_class_table_anchors(self):
        table = load_class_table()
        assert assign_vehicle_class(8.27, table) == 0
        assert assign_vehicle_class(19.60, table) == 3
        assert assign_vehicle_class(100.0, table) == 10

    def test_below_all_minima(self):
        table = load_class_table()
        assert assign_vehicle_class(1.0, table) == 0

    def test_gap_goes_to_nearest_interval(self):
        table = load_class_table()
        # 11.80 sits in the gap above 11.76; classes 1 and 2 are equidistant
        # (both end at 11.76) so the tie goes to the lower id
        assert assign_vehicle_class(11.80, table) == 1
        # 15.0 is nearer to 15.68 (class 3 min) than to 11.76
        assert assign_vehicle_class(15.0, table) == 3


class TestQualityFilter:
    def test_low_distance_removed(self):
        kept, report = quality_filter([make_record(trip_kms=3.0)])
        assert kept == []
        assert report.reasons == {"low_distance": 1}

    def test_missing_fuel_removed(self):
        kept, report = quality_filter([make_record(trip_fuel_used=None)])
        assert kept == []
        assert report.reasons == {"missing_fuel": 1}

    def test_boundary_distance_kept(self):
        kept, report = quality_filter([make_record(trip_kms=5.0, trip_fuel_used=0.5)])
        assert len(kept) == 1
        assert report.n_removed == 0


class TestImputeMissing:
    def test_group_median(self, small_registry):
        records = [
            make_record(vehicle_id=f"v{i}", features={"rpm_high": v, "mean_speed_hwy": 80, "mean_exterior_temp": 280})
            for i, v in enumerate((30.0, 32.0, 34.0))
        ]
        target = make_record(vehicle_id="t", features={"mean_speed_hwy": 80, "mean_exterior_temp": 280})
        impute_missing(records + [target], small_registry)
        assert target.features["rpm_high"] == 32.0

    def test_fleet_fallback(self, small_registry):
        other_group = make_record(
            vehicle_id="o", vehicle_group=5, features={"rpm_high": 10.0, "mean_speed_hwy": 80, "mean_exterior_temp": 280}
        )
        target = make_record(vehicle_id="t", vehicle_group=0, features={"mean_speed_hwy": 80, "mean_exterior_temp": 280})
        impute_missing([other_group, target], small_registry)
        assert target.features["rpm_high"] == 10.0

    def test_group_then_fleet_then_zero(self, small_registry):
        observed = [
            make_record(vehicle_id=f"g{i}", vehicle_group=group, features={"mean_speed_hwy": value})
            for i, (group, value) in enumerate([(0, 30.0), (0, 32.0), (0, 34.0), (5, 100.0), (5, 100.0),
                                                (5, 100.0), (5, 100.0)])
        ]
        in_group = make_record(vehicle_id="t0", vehicle_group=0)
        no_group = make_record(vehicle_id="t7", vehicle_group=7)
        impute_missing(observed + [in_group, no_group], small_registry)
        assert in_group.features["mean_speed_hwy"] == 32.0
        assert no_group.features["mean_speed_hwy"] == 100.0
        assert in_group.features["rpm_high"] == no_group.features["rpm_high"] == 0.0

    def test_zero_when_unobserved_anywhere(self, small_registry):
        target = make_record(features={"mean_speed_hwy": 80})
        impute_missing([target], small_registry)
        assert target.features["rpm_high"] == 0.0
        assert target.features["mean_exterior_temp"] == 0.0

    def test_observed_values_never_altered(self, small_registry):
        records = [
            make_record(
                vehicle_id=f"v{i}",
                features={"rpm_high": float(i), "mean_speed_hwy": 70.0 + i, "mean_exterior_temp": 280.0},
            )
            for i in range(6)
        ]
        snapshot = [dict(r.features) for r in records]
        impute_missing(records, small_registry)
        for rec, before in zip(records, snapshot):
            for name, value in before.items():
                assert rec.features[name] == value

    def test_complete_table_builds_no_medians(self, small_registry, monkeypatch):
        def refuse(items):
            raise AssertionError("medians built for a table that misses no value")

        monkeypatch.setattr("fleetfuel.ingest.FallbackMedians", refuse)
        records = [
            make_record(vehicle_id=f"v{i}", features={name: float(i) for name in small_registry.names})
            for i in range(3)
        ]
        snapshot = [dict(r.features) for r in records]
        assert impute_missing(records, small_registry) == records
        assert [r.features for r in records] == snapshot

    def test_no_required_feature_missing_after(self, small_registry):
        records = [make_record(features={}), make_record(vehicle_id="w", features={"rpm_high": 4.0})]
        impute_missing(records, small_registry)
        for rec in records:
            for name in small_registry.names:
                assert name in rec.features


class TestFarCsvRoundTrip:
    def test_round_trip_exact(self, small_registry, tmp_path):
        records = [
            make_record(features={"rpm_high": 3.0, "mean_speed_hwy": 91.5, "mean_exterior_temp": 281.3}),
            make_record(
                vehicle_id="v2",
                trip_fuel_used=None,
                features={"rpm_high": 1.0},
            ),
        ]
        path = tmp_path / "far.csv"
        write_far_csv(records, small_registry, path)
        loaded = read_far_csv(path, small_registry)
        assert loaded == sorted(records, key=lambda r: r.day_key)

    def test_failed_write_keeps_previous_file(self, small_registry, tmp_path):
        path = tmp_path / "far.csv"
        write_far_csv([make_record(features={"rpm_high": 3.0})], small_registry, path)
        before = path.read_bytes()
        broken = make_record(vehicle_id="v2")
        broken.features = None
        with pytest.raises(AttributeError):
            write_far_csv([make_record(vehicle_id="v1"), broken], small_registry, path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_schema_mismatch_fatal(self, small_registry, tmp_path):
        path = tmp_path / "far.csv"
        path.write_text("vehicle_id,date\nv1,2021-01-01\n")
        with pytest.raises(FeedFormatError):
            read_far_csv(path, small_registry)


class TestKeptRecordInvariant:
    def test_kept_records_satisfy_formula(self, small_registry):
        records = [
            make_record(vehicle_id=f"v{i}", trip_kms=25.0 * (i + 1), trip_fuel_used=2.0 + i)
            for i in range(8)
        ]
        kept, _ = quality_filter(records)
        for rec in kept:
            assert rec.trip_kms >= 5.0
            assert rec.avg_fuel_consumption == rec.trip_fuel_used / rec.trip_kms * 100.0
