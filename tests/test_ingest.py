"""Feed parsing, daily aggregation, route rules, classes, filters, imputation."""

from __future__ import annotations

import csv
import functools
import io
import math
import random
import re
import tempfile
from datetime import date, datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleetfuel import ingest
from fleetfuel.errors import DataError, FeedFormatError
from fleetfuel.ingest import (
    CORE_CHANNELS,
    FEED_COLUMNS,
    DayTable,
    FarRecord,
    RawReading,
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
from fleetfuel.registry import AGGREGATORS, FeatureSpec, load_class_table

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


def probe_registry(aggregators=AGGREGATORS):
    """One ``<aggregator>_probe`` feature per aggregator."""
    return make_registry(
        [
            FeatureSpec(
                name=f"{agg}_probe", unit="u", aggregator=agg, impact_type="Positive",
                reference_zero=True, category="Driving Behaviour",
                subcategory="Eco-Driving", actionable=True,
            )
            for agg in aggregators
        ]
    )


# ---------------------------------------------------------------------------
# Reference loop: the two-pass ingest, one RawReading per row, then grouping.
# The aggregators state the order-independent rule on their own: the latest
# time wins a `last`, the larger value a tie, and 0.0 a tie with -0.0.


def _signed(v):
    return (v, math.copysign(1.0, v))


def _ref_parse_timestamp(raw):
    text = raw.strip()
    if text.endswith("Z"):
        text = text[:-1] + "+00:00"
    ts = datetime.fromisoformat(text)
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


def _ref_parse_feed(text):
    reader = csv.reader(io.StringIO(text))
    names = [h.strip() for h in next(reader)]
    idx = {name: names.index(name) for name in FEED_COLUMNS}
    readings = []
    rejects = {"bad_field_count": 0, "bad_timestamp": 0, "bad_value": 0}
    for row in reader:
        if not row:
            continue
        if len(row) != len(names):
            rejects["bad_field_count"] += 1
            continue
        try:
            ts = _ref_parse_timestamp(row[idx["time_tx"]])
        except (ValueError, OverflowError):
            rejects["bad_timestamp"] += 1
            continue
        try:
            value = float(row[idx["variable_value"]])
        except ValueError:
            rejects["bad_value"] += 1
            continue
        if not math.isfinite(value):
            rejects["bad_value"] += 1
            continue
        readings.append(
            RawReading(ts, row[idx["vehicle_id"]].strip(), row[idx["variable_id"]].strip(), value)
        )
    return readings, rejects


def _ref_aggregate(samples, how):
    values = [v for _, v in samples]
    if how == "sum":
        return math.fsum(values)
    if how == "mean":
        return math.fsum(values) / len(values)
    if how == "max":
        return max(values, key=_signed)
    if how == "count":
        return float(len(values))
    assert how == "last"
    return max(samples, key=lambda tv: (tv[0], *_signed(tv[1])))[1]


def _ref_aggregate_daily(readings, registry, ignore=()):
    buckets = {}
    unknown = {}
    for r in readings:
        if r.variable_id not in registry and r.variable_id not in CORE_CHANNELS:
            if r.variable_id not in ignore:
                unknown[r.variable_id] = unknown.get(r.variable_id, 0) + 1
            continue
        buckets.setdefault((r.vehicle_id, r.time_tx.date()), {}).setdefault(r.variable_id, []).append(
            (r.time_tx, r.variable_value)
        )
    records = []
    for (vehicle_id, day), channels in sorted(buckets.items()):
        rec = FarRecord(vehicle_id=vehicle_id, date=day)
        for channel, samples in channels.items():
            if channel == "TripFuel":
                rec.trip_fuel_used = _ref_aggregate(samples, "sum")
            elif channel == "TripKms":
                rec.trip_kms = _ref_aggregate(samples, "sum")
            elif channel == "PerTimeCity":
                rec.per_time_city = _ref_aggregate(samples, "mean")
            else:
                rec.features[channel] = _ref_aggregate(samples, registry[channel].aggregator)
        records.append(rec)
    return records, unknown


class TestParseFeed:
    def test_sample_row(self):
        stream = io.StringIO(
            HEADER + "2020-10-31 00:02:34.073000+00:00, b123, last_probe, 1200\n"
        )
        parsed = parse_feed(stream, probe_registry())
        assert len(parsed.readings) == 1
        assert parsed.readings.days == {
            ("b123", date(2020, 10, 31)): {
                "last_probe": [(datetime(2020, 10, 31, 0, 2, 34, 73000, tzinfo=timezone.utc), 1200.0)]
            }
        }
        assert parsed.readings.other == {}

    def test_header_only_yields_empty(self, small_registry):
        parsed = parse_feed(io.StringIO(HEADER), small_registry)
        assert len(parsed.readings) == 0
        assert (parsed.readings.days, parsed.readings.other) == ({}, {})
        assert parsed.n_rejected == 0

    def test_bad_value_rejected_and_counted(self, small_registry):
        stream = io.StringIO(HEADER + "2020-10-31 00:02:34+00:00,b1,EngineSpeed,abc\n")
        parsed = parse_feed(stream, small_registry)
        assert len(parsed.readings) == 0
        assert (parsed.readings.days, parsed.readings.other) == ({}, {})
        assert parsed.rejects["bad_value"] == 1

    def test_bad_timestamp_rejected(self, small_registry):
        stream = io.StringIO(HEADER + "not-a-time,b1,EngineSpeed,5\n")
        parsed = parse_feed(stream, small_registry)
        assert parsed.rejects["bad_timestamp"] == 1

    def test_timestamp_out_of_range_rejected(self, small_registry):
        # year 1 at +01:00 is before the first UTC instant datetime can hold
        stream = io.StringIO(HEADER + "0001-01-01T00:00:00+01:00,b1,rpm_high,5\n")
        parsed = parse_feed(stream, small_registry)
        assert parsed.rejects["bad_timestamp"] == 1
        assert len(parsed.readings) == 0

    def test_non_finite_value_rejected(self, small_registry):
        stream = io.StringIO(HEADER + "2020-10-31 00:02:34+00:00,b1,EngineSpeed,inf\n")
        parsed = parse_feed(stream, small_registry)
        assert parsed.rejects["bad_value"] == 1

    def test_missing_header_fatal(self, small_registry):
        with pytest.raises(FeedFormatError):
            parse_feed(io.StringIO("a,b,c\n1,2,3\n"), small_registry)

    @pytest.mark.parametrize(
        "header",
        [
            "time_tx,vehicle_id,variable_id,variable_value,vehicle_id\n",
            "time_tx,vehicle_id,variable_id,vehicle_id\n",
        ],
        ids=["duplicate-added", "duplicate-replaces"],
    )
    def test_duplicated_header_column_fatal(self, small_registry, header):
        with pytest.raises(FeedFormatError, match="does not match"):
            parse_feed(io.StringIO(header + "2020-10-31 00:02:34+00:00,b1,rpm_high,5\n"), small_registry)

    def test_columns_in_any_order(self, small_registry):
        stream = io.StringIO("variable_value, vehicle_id,time_tx,variable_id\n5,b1,2020-10-31T01:00:00Z,rpm_high\n")
        parsed = parse_feed(stream, small_registry)
        assert parsed.readings.days == {("b1", date(2020, 10, 31)): {"rpm_high": [5.0]}}

    def test_row_order_preserved(self, small_registry):
        rows = "".join(
            f"2020-10-31 00:0{i}:00+00:00,b1,rpm_high,{i}\n" for i in range(5)
        )
        parsed = parse_feed(io.StringIO(HEADER + rows), small_registry)
        assert parsed.readings.days[("b1", date(2020, 10, 31))]["rpm_high"] == [0, 1, 2, 3, 4]

    def test_times_kept_only_for_last_channels(self):
        rows = "".join(f"2020-10-31T01:00:00Z,b1,{agg}_probe,1\n" for agg in AGGREGATORS)
        parsed = parse_feed(io.StringIO(HEADER + rows), probe_registry())
        (channels,) = parsed.readings.days.values()
        assert {name: type(samples[0]) for name, samples in channels.items()} == {
            "sum_probe": float, "mean_probe": float, "max_probe": float, "count_probe": float,
            "last_probe": tuple,
        }

    def test_unknown_channels_counted_not_kept(self, small_registry):
        rows = "".join(
            f"2020-10-31T01:00:00Z,b1,{name},1\n" for name in ("Zeta", "rpm_high", " Alpha", "Zeta", "Beta")
        )
        parsed = parse_feed(io.StringIO(HEADER + rows), small_registry)
        assert len(parsed.readings) == 5
        assert list(parsed.readings.other.items()) == [("Zeta", 2), ("Alpha", 1), ("Beta", 1)]
        assert list(parsed.readings.days[("b1", date(2020, 10, 31))]) == ["rpm_high"]
        _, report = aggregate_daily(parsed.readings, small_registry, ignore=("Alpha",))
        assert list(report.unknown_channels.items()) == [("Zeta", 2), ("Beta", 1)]

    def test_timestamp_memo_is_bounded(self, small_registry):
        rows = [f"2020-10-31T00:00:{i // 1000:02d}.{i % 1000:03d}Z,b1,rpm_high,{i}\n" for i in range(5000)]
        ingest._day_and_time.cache_clear()
        parsed = parse_feed(io.StringIO(HEADER + "".join(rows)), small_registry)
        info = ingest._day_and_time.cache_info()
        assert (info.misses, info.currsize, info.maxsize) == (5000, 4096, 4096)
        assert len(parsed.readings) == 5000


class TestAggregateDaily:
    def feed(self, rows, registry):
        parsed = parse_feed(io.StringIO(HEADER + rows), registry)
        assert parsed.n_rejected == 0
        return parsed.readings

    def test_mean_aggregator(self, small_registry):
        readings = self.feed(
            "2020-10-31 01:00:00+00:00,b1,mean_speed_hwy,1000\n"
            "2020-10-31 02:00:00+00:00,b1,mean_speed_hwy,1400\n",
            small_registry,
        )
        records, _ = aggregate_daily(readings, small_registry)
        assert len(records) == 1
        assert records.features["mean_speed_hwy"] == [1200.0]

    def test_trip_fuel_sum(self, small_registry):
        readings = self.feed(
            "2020-10-31 01:00:00+00:00,b1,TripFuel,1.0\n"
            "2020-10-31 02:00:00+00:00,b1,TripFuel,2.1\n",
            small_registry,
        )
        records, _ = aggregate_daily(readings, small_registry)
        assert records.trip_fuel_used == [3.1]

    def test_sum_is_exactly_rounded(self, small_registry):
        # adding the sorted samples left to right loses the 1.0; math.fsum keeps it
        readings = self.feed(
            "2020-10-31 01:00:00+00:00,b1,TripFuel,-1e16\n"
            "2020-10-31 02:00:00+00:00,b1,TripFuel,1.0\n"
            "2020-10-31 03:00:00+00:00,b1,TripFuel,1e16\n",
            small_registry,
        )
        records, _ = aggregate_daily(readings, small_registry)
        assert records.trip_fuel_used == [1.0]

    def test_grouping_cardinality(self, small_registry):
        rows = []
        for v in ("a", "b"):
            for d in (1, 2, 3):
                rows.append(f"2020-10-0{d} 01:00:00+00:00,{v},rpm_high,1\n")
        records, _ = aggregate_daily(self.feed("".join(rows), small_registry), small_registry)
        assert len(records) == 6

    def test_unknown_channel_skipped_with_warning(self, small_registry):
        readings = self.feed("2020-10-31 01:00:00+00:00,b1,Mystery,5\n", small_registry)
        records, report = aggregate_daily(readings, small_registry)
        assert len(records) == 0
        assert report.unknown_channels == {"Mystery": 1}

    def test_ignore_list_silences_channel(self, small_registry):
        readings = self.feed("2020-10-31 01:00:00+00:00,b1,Mystery,5\n", small_registry)
        _, report = aggregate_daily(readings, small_registry, ignore=("Mystery",))
        assert report.unknown_channels == {}
        assert report.n_readings == 1

    def test_max_count_last_aggregators(self):
        registry = probe_registry(("max", "count", "last"))
        rows = "".join(
            f"2020-10-31 0{i}:00:00+00:00,b1,{name},{v}\n"
            for name in ("max_probe", "count_probe", "last_probe")
            for i, v in enumerate((4.0, 9.0, 2.0))
        )
        records, _ = aggregate_daily(self.feed(rows, registry), registry)
        assert records.features["max_probe"] == [9.0]
        assert records.features["count_probe"] == [3.0]
        assert records.features["last_probe"] == [2.0]  # latest timestamp wins

    def test_core_channel_sums_even_if_declared_last(self):
        registry = make_registry(
            [FeatureSpec(name="TripFuel", unit="l", aggregator="last", impact_type="Positive",
                         reference_zero=True, category="Driving Behaviour", subcategory="Eco-Driving",
                         actionable=True)]
        )
        rows = "2020-10-31T01:00:00Z,b1,TripFuel,1.5\n2020-10-31T02:00:00Z,b1,TripFuel,2\n"
        records, _ = aggregate_daily(self.feed(rows, registry), registry)
        assert (records.trip_fuel_used, list(records)[0].features) == ([3.5], {})

    def test_day_samples_freed_once_aggregated(self, small_registry):
        readings = self.feed("2020-10-31T01:00:00Z,b1,rpm_high,1\n2020-11-01T01:00:00Z,b1,rpm_high,1\n", small_registry)
        records, report = aggregate_daily(readings, small_registry)
        assert (len(records), readings.days, len(readings), report.n_readings) == (2, {}, 2, 2)

    def test_other_registry_refused(self, small_registry):
        readings = self.feed("2020-10-31T01:00:00Z,b1,rpm_high,1\n", small_registry)
        with pytest.raises(DataError, match="different feature registry"):
            aggregate_daily(readings, probe_registry())
        # an equal registry loaded on its own is the same registry
        records, _ = aggregate_daily(readings, make_registry())
        assert list(records)[0].features == {"rpm_high": 1.0}

    def test_permutation_invariant(self):
        registry = probe_registry()
        # per channel: 0.0 and -0.0 tie as the maximum, and at the latest time
        lines = [
            f"2020-10-31T0{hour}:00:00Z,b{j},{agg}_probe,{value}\n"
            for j in range(3)
            for agg in AGGREGATORS
            for hour, value in ((1, -2.5), (2, "0.0"), (2, "-0.0"), (2, -1.0), (1, "-0.0"), (1, j * 0.37))
        ]
        lines += [f"2020-10-31T02:00:00Z,b1,TripFuel,{v}\n" for v in ("0.0", "-0.0", "-0.0")]
        rng = random.Random(7)
        results = set()
        for _ in range(20):
            rng.shuffle(lines)
            records, _ = aggregate_daily(self.feed("".join(lines), registry), registry)
            results.add(repr(records))
        assert len(results) == 1
        assert [repr(value) for value in records.features["max_probe"]] == ["0.0", "0.37", "0.74"]
        assert {repr(value) for value in records.features["last_probe"]} == {"0.0"}
        assert repr(records.trip_fuel_used[1]) == "0.0"


_SMALL_MEMO = functools.lru_cache(maxsize=4)(ingest._day_and_time.__wrapped__)

# 22:00-02:00 UTC, written as Z, naive, or at a UTC offset that moves the local day
_INSTANTS = [datetime(2020, 10, 30, 22, tzinfo=timezone.utc) + timedelta(minutes=37 * k) for k in range(7)]
_OFFSETS = [timedelta(0), timedelta(hours=-8), timedelta(hours=5, minutes=30), timedelta(hours=14)]


@st.composite
def feed_text(draw):
    order = draw(st.permutations(FEED_COLUMNS))
    channels = ["sum_probe", "mean_probe", "max_probe", "count_probe", "last_probe",
                "TripFuel", "TripKms", "PerTimeCity", "Mystery", "Ignored", "Aux"]
    lines = [",".join(order) + "\n"]
    for _ in range(draw(st.integers(0, 40))):
        instant = draw(st.sampled_from(_INSTANTS))
        style = draw(st.sampled_from(["Z", "naive", "offset", "offset", "offset", "bad", "overflow"]))
        if style == "offset":
            offset = timezone(draw(st.sampled_from(_OFFSETS)))
            time_tx = instant.astimezone(offset).isoformat(sep=draw(st.sampled_from([" ", "T"])))
        elif style in ("Z", "naive"):
            time_tx = instant.replace(tzinfo=None).isoformat() + ("Z" if style == "Z" else "")
        else:
            time_tx = "not-a-time" if style == "bad" else "0001-01-01T00:00:00+01:00"
        fields = {
            "time_tx": time_tx,
            "vehicle_id": draw(st.sampled_from(["a", "b", " b"])),
            "variable_id": draw(st.sampled_from(channels + [" max_probe"])),
            "variable_value": draw(st.sampled_from(["1.5", "-2", "0.0", "-0.0", "3e2", "0.25", "abc", "inf", "nan", "1e400"])),
        }
        row = [fields[name] for name in order]
        extra = draw(st.sampled_from([[], [], [], ["x"], None]))
        row = row[:3] if extra is None else row + extra
        lines.append(",".join(row) + "\n")
        if draw(st.integers(0, 9)) == 0:
            lines.append("\n")
    return "".join(lines)


class TestMatchesTwoPassReference:
    @settings(max_examples=150, deadline=None)
    @given(text=feed_text(), memo=st.booleans())
    def test_records_and_report_equal_reference(self, text, memo):
        registry = probe_registry()
        ref_readings, ref_rejects = _ref_parse_feed(text)
        ref_records, ref_unknown = _ref_aggregate_daily(ref_readings, registry, ("Ignored",))
        with pytest.MonkeyPatch.context() as mp:
            if memo:  # fewer entries than the feed has distinct timestamps
                mp.setattr(ingest, "_day_and_time", _SMALL_MEMO)
            parsed = parse_feed(io.StringIO(text), registry)
        records, report = aggregate_daily(parsed.readings, registry, ("Ignored",))
        assert repr(records) == repr(DayTable.from_rows(ref_records, registry.names))
        assert (report.n_readings, parsed.rejects, list(report.unknown_channels.items())) == (
            len(ref_readings), ref_rejects, list(ref_unknown.items())
        )
        assert report.n_records == len(records)

    def test_more_timestamps_than_the_memo_holds(self):
        registry = probe_registry()
        rng = random.Random(3)
        rows = [
            f"{(datetime(2020, 10, 30, 20) + timedelta(seconds=7 * i)).isoformat()}Z,v{rng.randrange(3)},"
            f"{rng.choice(AGGREGATORS)}_probe,{rng.choice(['0.0', '-0.0', '1.25', '-3'])}\n"
            for i in range(6000)
        ]
        rows += rows[:500]  # repeated timestamps, long evicted from the memo
        rng.shuffle(rows)
        text = HEADER + "".join(rows)
        ref_records, _ = _ref_aggregate_daily(_ref_parse_feed(text)[0], registry)
        records, report = aggregate_daily(parse_feed(io.StringIO(text), registry).readings, registry)
        assert repr(records) == repr(DayTable.from_rows(ref_records, registry.names))
        assert report.n_readings == 6500


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
        kept, report = quality_filter(DayTable.from_rows([make_record(trip_kms=3.0)]))
        assert len(kept) == 0
        assert report.reasons == {"low_distance": 1}

    def test_missing_fuel_removed(self):
        kept, report = quality_filter(DayTable.from_rows([make_record(trip_fuel_used=None)]))
        assert len(kept) == 0
        assert report.reasons == {"missing_fuel": 1}

    def test_boundary_distance_kept(self):
        kept, report = quality_filter(DayTable.from_rows([make_record(trip_kms=5.0, trip_fuel_used=0.5)]))
        assert len(kept) == 1
        assert report.n_removed == 0


class TestImputeMissing:
    def test_group_median(self, small_registry):
        records = [
            make_record(vehicle_id=f"v{i}", features={"rpm_high": v, "mean_speed_hwy": 80, "mean_exterior_temp": 280})
            for i, v in enumerate((30.0, 32.0, 34.0))
        ]
        target = make_record(vehicle_id="t", features={"mean_speed_hwy": 80, "mean_exterior_temp": 280})
        table = impute_missing(DayTable.from_rows(records + [target]), small_registry)
        assert table.features["rpm_high"][3] == 32.0

    def test_fleet_fallback(self, small_registry):
        other_group = make_record(
            vehicle_id="o", vehicle_group=5, features={"rpm_high": 10.0, "mean_speed_hwy": 80, "mean_exterior_temp": 280}
        )
        target = make_record(vehicle_id="t", vehicle_group=0, features={"mean_speed_hwy": 80, "mean_exterior_temp": 280})
        table = impute_missing(DayTable.from_rows([other_group, target]), small_registry)
        assert table.features["rpm_high"][1] == 10.0

    def test_group_then_fleet_then_zero(self, small_registry):
        observed = [
            make_record(vehicle_id=f"g{i}", vehicle_group=group, features={"mean_speed_hwy": value})
            for i, (group, value) in enumerate([(0, 30.0), (0, 32.0), (0, 34.0), (5, 100.0), (5, 100.0),
                                                (5, 100.0), (5, 100.0)])
        ]
        in_group = make_record(vehicle_id="t0", vehicle_group=0)
        no_group = make_record(vehicle_id="t7", vehicle_group=7)
        table = impute_missing(DayTable.from_rows(observed + [in_group, no_group]), small_registry)
        in_group, no_group = list(table)[-2:]
        assert in_group.features["mean_speed_hwy"] == 32.0
        assert no_group.features["mean_speed_hwy"] == 100.0
        assert in_group.features["rpm_high"] == no_group.features["rpm_high"] == 0.0

    def test_zero_when_unobserved_anywhere(self, small_registry):
        target = make_record(features={"mean_speed_hwy": 80})
        (target,) = impute_missing(DayTable.from_rows([target]), small_registry)
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
        table = impute_missing(DayTable.from_rows(records), small_registry)
        for rec, before in zip(table, snapshot):
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
        table = DayTable.from_rows(records)
        assert impute_missing(table, small_registry) is table
        assert [r.features for r in table] == snapshot

    def test_no_required_feature_missing_after(self, small_registry):
        records = [make_record(features={}), make_record(vehicle_id="w", features={"rpm_high": 4.0})]
        for rec in impute_missing(DayTable.from_rows(records), small_registry):
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
        write_far_csv(DayTable.from_rows(records), small_registry, path)
        loaded = read_far_csv(path, small_registry)
        assert list(loaded) == sorted(records, key=lambda r: (r.vehicle_id, r.date))

    def test_failed_write_keeps_previous_file(self, small_registry, tmp_path):
        path = tmp_path / "far.csv"
        write_far_csv(DayTable.from_rows([make_record(features={"rpm_high": 3.0})]), small_registry, path)
        before = path.read_bytes()

        class Unwritable:
            def __str__(self):
                raise ValueError("cannot write this cell")

        broken = DayTable.from_rows([make_record(vehicle_id="v1"), make_record(vehicle_id="v2")], small_registry.names)
        broken.features["rpm_high"][1] = Unwritable()
        with pytest.raises(ValueError, match="cannot write"):
            write_far_csv(broken, small_registry, path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_schema_mismatch_fatal(self, small_registry, tmp_path):
        path = tmp_path / "far.csv"
        path.write_text("vehicle_id,date\nv1,2021-01-01\n")
        with pytest.raises(FeedFormatError):
            read_far_csv(path, small_registry)


_FAR_NUMBERS = st.one_of(
    st.none(),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, float("inf")]),
    st.floats(allow_nan=False),
)


@st.composite
def day_tables(draw):
    """Tables in no particular order, with blank (None) cells, signed zeros and subnormals."""
    names = make_registry().names
    n = draw(st.integers(0, 8))
    cells = lambda strategy: draw(st.lists(strategy, min_size=n, max_size=n))
    return DayTable(
        cells(st.text("ab,\" \n9", min_size=1, max_size=4)),
        cells(st.dates(date(2019, 1, 1), date(2022, 12, 31))),
        cells(st.sampled_from(["city", "combined", "highway"])),
        cells(st.integers(-1, 40)),
        cells(st.integers(0, 10)),
        cells(st.sampled_from(["inlier", "outlier", "unassigned"])),
        *(cells(_FAR_NUMBERS) for _ in range(4)),
        {name: cells(_FAR_NUMBERS) for name in names},
    )


class TestDayTableRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(table=day_tables())
    def test_read_of_write_equals_table_in_day_order(self, table):
        registry = make_registry()
        expected = table.take(table.by_day())
        keys = expected.day_keys()
        # rows are written in day order, so a repeated vehicle-day sits on the line after its first
        repeats = [i for i in range(1, len(keys)) if keys[i] == keys[i - 1]]
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/far.csv"
            write_far_csv(table, registry, path)
            if repeats:
                vehicle, day = keys[repeats[0]]
                message = f"far.csv: line {repeats[0] + 2}: vehicle-day {vehicle}/{day} repeats line {repeats[0] + 1}"
                with pytest.raises(FeedFormatError, match=re.escape(message)):
                    read_far_csv(path, registry)
                return
            loaded = read_far_csv(path, registry)
        assert loaded == expected
        assert repr(loaded) == repr(expected)  # the sign of every zero

    def test_iteration_and_from_rows_invert(self, small_registry):
        records = [
            make_record(vehicle_id="b", features={"rpm_high": -0.0}),
            make_record(vehicle_id="a", trip_fuel_used=None, features={"mean_speed_hwy": 5e-324}),
        ]
        table = DayTable.from_rows(records, small_registry.names)
        assert list(table) == records
        assert repr(DayTable.from_rows(table, small_registry.names)) == repr(table)
        assert table.features["mean_exterior_temp"] == [None, None]
        assert repr(table.take([1, 0]).features["rpm_high"]) == "[None, -0.0]"


class TestKeptRecordInvariant:
    def test_kept_records_satisfy_formula(self, small_registry):
        records = [
            make_record(vehicle_id=f"v{i}", trip_kms=25.0 * (i + 1), trip_fuel_used=2.0 + i)
            for i in range(8)
        ]
        kept, _ = quality_filter(DayTable.from_rows(records))
        for rec in kept:
            assert rec.trip_kms >= 5.0
            assert rec.avg_fuel_consumption == rec.trip_fuel_used / rec.trip_kms * 100.0
