"""Raw telemetry feed to daily Fleet Analytics Records.

The feed is a CSV of (time_tx, vehicle_id, variable_id, variable_value)
samples.  This module parses it, aggregates samples into one record per
vehicle and calendar day, classifies the day's route context, resolves
vehicle identities and classes, applies data-quality filters and fills
missing feature values from group medians.

``parse_feed`` puts each row straight into its (vehicle, UTC day) and
channel sample list; ``aggregate_daily`` reduces and frees them day by day.

Channel naming: a feed variable_id either names a feature declared in the
registry (aggregated by that feature's declared aggregator) or one of the
three core channels below, which feed the record's dedicated fields.
"""

from __future__ import annotations

import csv
import functools
import logging
import math
from collections import defaultdict
from dataclasses import dataclass, field
from datetime import date, datetime, timezone
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Mapping, Sequence, TextIO

from .errors import DataError, FeedFormatError
from .registry import (
    FallbackMedians, FeatureRegistry, VehicleClassRow, VehicleIdentity, csv_reader, median, table_columns, utf8_text,
    write_table,
)

logger = logging.getLogger(__name__)

# Core channels consumed into dedicated FarRecord fields.
TRIP_FUEL_CHANNEL = "TripFuel"
TRIP_KMS_CHANNEL = "TripKms"
CITY_TIME_CHANNEL = "PerTimeCity"
CORE_CHANNELS = {TRIP_FUEL_CHANNEL, TRIP_KMS_CHANNEL, CITY_TIME_CHANNEL}

ROUTE_CITY = "city"
ROUTE_COMBINED = "combined"
ROUTE_HIGHWAY = "highway"
ROUTE_TYPES = (ROUTE_CITY, ROUTE_COMBINED, ROUTE_HIGHWAY)

LABEL_INLIER = "inlier"
LABEL_OUTLIER = "outlier"
LABEL_UNASSIGNED = "unassigned"

MIN_TRIP_KMS = 5.0


@dataclass(frozen=True)
class RawReading:
    """One feed row; its fields declare the feed's columns."""

    time_tx: datetime
    vehicle_id: str
    variable_id: str
    variable_value: float


FEED_COLUMNS = table_columns(RawReading)


@dataclass
class FarRecord:
    """Aggregated daily record for one vehicle; the fields before ``features`` are the FAR's fixed columns."""

    vehicle_id: str
    date: date
    route_type: str = ROUTE_COMBINED
    vehicle_group: int = -1
    vehicle_class: int = 0
    anomaly_label: str = LABEL_UNASSIGNED
    trip_kms: float | None = None
    trip_fuel_used: float | None = None
    per_time_city: float | None = None
    avg_fuel_consumption: float | None = None
    features: dict[str, float] = field(default_factory=dict)

    @property
    def day_key(self) -> tuple[str, date]:
        return (self.vehicle_id, self.date)

    @property
    def group_route(self) -> tuple[int, str]:
        return (self.vehicle_group, self.route_type)


@dataclass(frozen=True)
class RouteThresholds:
    """Distance / city-time thresholds for the route classifier."""

    th_kms: float = 30.0
    low_th_time: float = 0.5
    high_th_time: float = 0.65


@dataclass
class DayReadings:
    """Accepted feed rows by (vehicle, UTC day), then by channel.

    A ``last`` channel keeps (time, value) samples, any other channel bare
    values.  Rows of undeclared channels are only counted, in ``other`` in
    order of first sight.  ``len()`` counts every accepted row.
    """

    registry: FeatureRegistry
    days: dict[tuple[str, date], dict[str, list]]
    other: dict[str, int]
    n_rows: int

    def __len__(self) -> int:
        return self.n_rows


@dataclass
class ParsedFeed:
    readings: DayReadings
    rejects: dict[str, int]

    @property
    def n_rejected(self) -> int:
        return sum(self.rejects.values())


@functools.lru_cache(maxsize=4096)
def _day_and_time(raw: str) -> tuple[date, datetime]:
    """UTC day and time of a feed timestamp; naive times are taken as UTC."""
    text = raw.strip()
    if text.endswith("Z"):
        text = text[:-1] + "+00:00"
    ts = datetime.fromisoformat(text)
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    ts = ts.astimezone(timezone.utc)
    return ts.date(), ts


def parse_feed(stream: TextIO | Iterable[str], registry: FeatureRegistry) -> ParsedFeed:
    """Parse the raw CSV feed in one pass, grouping rows as DayReadings.

    Each distinct timestamp text is parsed once, through a memo bounded at
    4,096 entries.  Malformed rows (bad timestamp, non-numeric or non-finite
    value, wrong field count) are dropped and counted by reason.  A missing
    header, one that does not name each feed column exactly once, or a row
    the csv module cannot read, is fatal.
    """
    reader = csv.reader(stream)
    days: dict[tuple[str, date], dict[str, list]] = defaultdict(lambda: defaultdict(list))
    other: dict[str, int] = {}
    n_rows = 0
    declared = {name: name for name in (*registry.names, *CORE_CHANNELS)}
    timed = {spec.name for spec in registry if spec.aggregator == "last"} - CORE_CHANNELS
    rejects = {"bad_field_count": 0, "bad_timestamp": 0, "bad_value": 0}
    try:
        header = next(reader, None)
        if header is None:
            raise FeedFormatError("feed is empty: missing header row")
        names = [h.strip() for h in header]
        if sorted(names) != sorted(FEED_COLUMNS):
            raise FeedFormatError(
                f"feed header {names} does not match expected {list(FEED_COLUMNS)}"
            )
        i_time, i_vehicle, i_channel, i_value = map(names.index, FEED_COLUMNS)

        for row in reader:
            if not row:
                continue
            if len(row) != len(names):
                rejects["bad_field_count"] += 1
                continue
            try:
                day, ts = _day_and_time(row[i_time])
            except (ValueError, OverflowError):
                rejects["bad_timestamp"] += 1
                continue
            try:
                value = float(row[i_value])
            except ValueError:
                rejects["bad_value"] += 1
                continue
            if not math.isfinite(value):
                rejects["bad_value"] += 1
                continue
            n_rows += 1
            text = row[i_channel].strip()
            channel = declared.get(text)  # the registry's own string, shared by every day
            if channel is None:
                other[text] = other.get(text, 0) + 1
            else:
                days[row[i_vehicle].strip(), day][channel].append((ts, value) if channel in timed else value)
    except csv.Error as exc:
        # e.g. a field over the csv module's size limit
        raise FeedFormatError(f"line {reader.line_num}: {exc}") from exc
    return ParsedFeed(DayReadings(registry, days, other, n_rows), rejects)


def parse_feed_csv(path: str | Path, registry: FeatureRegistry) -> ParsedFeed:
    """parse_feed over a file; a fatal format error names the file."""
    with utf8_text(path) as fh:
        try:
            return parse_feed(fh, registry)
        except FeedFormatError as exc:
            raise FeedFormatError(f"{path}: {exc}") from exc


def _ranked(value: float) -> tuple[float, float]:
    """Sort key that puts 0.0 above -0.0, so a tie does not depend on order."""
    return value, math.copysign(1.0, value)


def _aggregate(samples: list, how: str) -> float:
    """Aggregate one day's samples of one channel, order-independently.

    ``last`` samples are (time, value) pairs: the latest time wins, then
    the largest value.  ``math.fsum`` is exactly rounded: its sums depend
    neither on the order of the samples nor on the Python version.
    """
    if how == "sum":
        return math.fsum(samples)
    if how == "mean":
        return math.fsum(samples) / len(samples)
    if how == "max":
        return max(samples, key=_ranked)
    if how == "count":
        return float(len(samples))
    if how == "last":
        return max(samples, key=lambda s: (s[0], *_ranked(s[1])))[1]
    raise DataError(f"unknown aggregator {how!r}")


@dataclass
class AggregateReport:
    unknown_channels: dict[str, int] = field(default_factory=dict)
    n_records: int = 0
    n_readings: int = 0


def aggregate_daily(
    readings: DayReadings,
    registry: FeatureRegistry,
    ignore: Iterable[str] = (),
) -> tuple[list[FarRecord], AggregateReport]:
    """Reduce grouped readings to one FarRecord per (vehicle, UTC day), in day order.

    Each registry feature is reduced by its declared aggregator; the three
    core channels fill trip_kms / trip_fuel_used / per_time_city.  Channels
    neither declared nor ignored are skipped with a warning.  A day's
    samples are dropped from ``readings`` once its record is built.
    """
    if tuple(readings.registry) != tuple(registry):
        raise DataError("readings were grouped under a different feature registry")
    ignore_set = set(ignore)
    report = AggregateReport(n_readings=len(readings))
    for channel, count in readings.other.items():
        if channel not in ignore_set:
            logger.warning("unknown channel %r skipped", channel)
            report.unknown_channels[channel] = count

    records = []
    for vehicle_id, day in sorted(readings.days):
        rec = FarRecord(vehicle_id=vehicle_id, date=day)
        for channel, samples in readings.days.pop((vehicle_id, day)).items():
            if channel == TRIP_FUEL_CHANNEL:
                rec.trip_fuel_used = _aggregate(samples, "sum")
            elif channel == TRIP_KMS_CHANNEL:
                rec.trip_kms = _aggregate(samples, "sum")
            elif channel == CITY_TIME_CHANNEL:
                rec.per_time_city = _aggregate(samples, "mean")
            else:
                rec.features[channel] = _aggregate(samples, registry[channel].aggregator)
        records.append(rec)
    report.n_records = len(records)
    return records, report


def compute_avg_fuel(trip_fuel_used: float, trip_kms: float) -> float:
    """Average fuel consumption in L/100 km."""
    if not trip_kms > 0:
        raise DataError(f"trip_kms must be positive, got {trip_kms}")
    return trip_fuel_used / trip_kms * 100.0


def classify_route(
    per_time_city: float,
    trip_kms: float,
    thresholds: RouteThresholds = RouteThresholds(),
) -> str:
    """Daily route context from city-time fraction and trip distance."""
    if per_time_city <= thresholds.low_th_time and trip_kms >= thresholds.th_kms:
        return ROUTE_HIGHWAY
    if per_time_city >= thresholds.high_th_time and trip_kms <= thresholds.th_kms:
        return ROUTE_CITY
    return ROUTE_COMBINED


def enrich_records(
    records: Iterable[FarRecord],
    identities: Mapping[str, VehicleIdentity],
    thresholds: RouteThresholds = RouteThresholds(),
) -> list[FarRecord]:
    """Fill avg fuel, route type and vehicle_group on aggregated records.

    Records with an unusable distance keep avg_fuel_consumption = None and
    are left for the quality filter to remove.  A day without a city-time
    fraction cannot be placed at either extreme and falls in 'combined'.
    """
    out = []
    for rec in records:
        if rec.trip_fuel_used is not None and rec.trip_kms is not None and rec.trip_kms > 0:
            rec.avg_fuel_consumption = compute_avg_fuel(rec.trip_fuel_used, rec.trip_kms)
        if rec.trip_kms is not None and rec.per_time_city is not None:
            rec.route_type = classify_route(rec.per_time_city, rec.trip_kms, thresholds)
        else:
            rec.route_type = ROUTE_COMBINED
        ident = identities.get(rec.vehicle_id)
        if ident is not None:
            rec.vehicle_group = ident.vehicle_group
        out.append(rec)
    return out


def assign_vehicle_class(
    group_median_fuel: float, class_table: Sequence[VehicleClassRow]
) -> int:
    """Class id whose fuel interval contains the value (lowest id on ties).

    Values below every interval clamp to the lowest class, above every
    interval to the highest; a value falling in a gap between intervals is
    assigned to the nearest interval (lower id on distance ties).
    """
    for row in class_table:
        if row.l100km_min <= group_median_fuel <= row.l100km_max:
            return row.vehicle_class
    if group_median_fuel < min(r.l100km_min for r in class_table):
        return class_table[0].vehicle_class
    if group_median_fuel > max(r.l100km_max for r in class_table):
        return class_table[-1].vehicle_class
    best = min(
        class_table,
        key=lambda r: (
            min(
                abs(group_median_fuel - r.l100km_min),
                abs(group_median_fuel - r.l100km_max),
            ),
            r.vehicle_class,
        ),
    )
    return best.vehicle_class


def assign_classes(
    records: Iterable[FarRecord], class_table: Sequence[VehicleClassRow]
) -> dict[int, int]:
    """Assign every record its group's class from the group median fuel."""
    by_group: dict[int, list[float]] = {}
    recs = list(records)
    for rec in recs:
        if rec.avg_fuel_consumption is not None:
            by_group.setdefault(rec.vehicle_group, []).append(rec.avg_fuel_consumption)
    classes = {
        group: assign_vehicle_class(median(vals), class_table)
        for group, vals in by_group.items()
    }
    for rec in recs:
        rec.vehicle_class = classes.get(rec.vehicle_group, 0)
    return classes


@dataclass
class RemovalReport:
    reasons: dict[str, int] = field(default_factory=dict)

    def count(self, reason: str) -> None:
        self.reasons[reason] = self.reasons.get(reason, 0) + 1

    @property
    def n_removed(self) -> int:
        return sum(self.reasons.values())


def quality_filter(records: Iterable[FarRecord]) -> tuple[list[FarRecord], RemovalReport]:
    """Drop records unusable for modelling; count each removal reason.

    Removes records with a missing or short trip (< 5 km) or missing fuel.
    Implausibly low and noisy fuel is removed later, against whisker limits,
    by ``anomaly.two_phase_clean``.
    """
    kept: list[FarRecord] = []
    report = RemovalReport()
    for rec in records:
        if rec.trip_kms is None:
            report.count("missing_distance")
            continue
        if rec.trip_kms < MIN_TRIP_KMS:
            report.count("low_distance")
            continue
        if rec.trip_fuel_used is None or rec.avg_fuel_consumption is None:
            report.count("missing_fuel")
            continue
        kept.append(rec)
    return kept, report


def impute_missing(
    records: Sequence[FarRecord], registry: FeatureRegistry
) -> list[FarRecord]:
    """Fill missing feature values: group median, then fleet median, then 0.

    Observed values are never altered.  After this pass every registry
    feature is present on every record.  Medians are built only when some
    record lacks a feature.
    """
    required = set(registry.names)
    lacking = [rec for rec in records if not required <= rec.features.keys()]
    if not lacking:
        return list(records)
    medians = FallbackMedians(
        ((name, rec.vehicle_group), value) for rec in records for name, value in rec.features.items()
    )
    for rec in lacking:
        for name in registry.names:
            if name not in rec.features:
                value = medians.get((name, rec.vehicle_group))
                rec.features[name] = 0.0 if value is None else value
    return list(records)


# ---------------------------------------------------------------------------
# FAR CSV round trip

FAR_FIXED_COLUMNS = table_columns(FarRecord)[:-1]


def write_far_csv(
    records: Iterable[FarRecord], registry: FeatureRegistry, path: str | Path
) -> None:
    """One row per vehicle-day, fixed columns then registry features."""
    names = registry.names
    fixed = attrgetter(*FAR_FIXED_COLUMNS)
    rows = ((*fixed(rec), *map(rec.features.get, names)) for rec in sorted(records, key=lambda r: r.day_key))
    write_table(path, FAR_FIXED_COLUMNS + names, rows)


def read_far_csv(path: str | Path, registry: FeatureRegistry) -> list[FarRecord]:
    """Records written by write_far_csv, unpacked by position under an exact header.

    A bad row raises FeedFormatError naming the file and line.
    """
    with csv_reader(path) as reader:
        header = next(reader, None)
        if header is None:
            raise FeedFormatError(f"{path}: empty FAR file")
        expected = list(FAR_FIXED_COLUMNS + registry.names)
        if header != expected:
            extra = sorted(set(header) - set(expected))
            missing = sorted(set(expected) - set(header))
            raise FeedFormatError(
                f"{path}: FAR columns mismatch (missing {missing}, unexpected {extra})"
            )
        names = registry.names
        width = len(header)
        n_fixed = len(FAR_FIXED_COLUMNS)
        records = []
        for row in reader:
            if len(row) != width:
                raise ValueError(f"expected {width} fields, got {len(row)}")
            vehicle_id, day, route_type, group, vclass, label, kms, fuel, city, avg = row[:n_fixed]
            records.append(
                FarRecord(
                    vehicle_id=vehicle_id,
                    date=date.fromisoformat(day),
                    route_type=route_type,
                    vehicle_group=int(group),
                    vehicle_class=int(vclass),
                    anomaly_label=label,
                    trip_kms=float(kms) if kms else None,
                    trip_fuel_used=float(fuel) if fuel else None,
                    per_time_city=float(city) if city else None,
                    avg_fuel_consumption=float(avg) if avg else None,
                    features={name: float(cell) for name, cell in zip(names, row[n_fixed:]) if cell != ""},
                )
            )
    return records
