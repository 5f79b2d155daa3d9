"""Raw telemetry feed to the daily Fleet Analytics Records (FAR) table.

The feed is a CSV of (time_tx, vehicle_id, variable_id, variable_value)
samples.  This module parses it, aggregates samples into one row per
vehicle and calendar day, classifies the day's route context, resolves
vehicle identities and classes, applies data-quality filters and fills
missing feature values from group medians.

``parse_feed`` puts each row straight into its (vehicle, UTC day) and
channel sample list; ``aggregate_daily`` reduces and frees them day by day.
A FAR file holds one row per vehicle-day: ``read_far_csv`` refuses a
repeated (vehicle, date).

Every stage holds its vehicle-days in one ``DayTable``: one list per FAR
fixed column and one per registry feature, in registry order.  A cell is a
Python float, or None where the day has no value (a blank CSV cell); lists
rather than ``array('d')`` keep a blank cell apart from a literal ``nan``.
Filters and splits copy rows into a new table with ``take``; labelling and
imputation change a table's columns in place.  ``FarRecord`` is the row
view, for callers that want one object per day; both are plain classes.

Channel naming: a feed variable_id either names a feature declared in the
registry (aggregated by that feature's declared aggregator) or one of the
three core channels below, which feed the table's dedicated columns.
"""

from __future__ import annotations

import csv
import functools
import logging
import math
from collections import defaultdict
from datetime import date, datetime, timezone
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence, TextIO

from .errors import DataError, FeedFormatError, MissingFeatureError
from .registry import (
    FallbackMedians, FeatureRegistry, Record, VehicleClassRow, VehicleIdentity, csv_reader, median, table_columns,
    utf8_text, write_table,
)

logger = logging.getLogger(__name__)

# Core channels consumed into dedicated FAR columns.
TRIP_FUEL_CHANNEL = "TripFuel"
TRIP_KMS_CHANNEL = "TripKms"
CITY_TIME_CHANNEL = "PerTimeCity"
CORE_CHANNELS = {TRIP_FUEL_CHANNEL, TRIP_KMS_CHANNEL, CITY_TIME_CHANNEL}

ROUTE_CITY = "city"
ROUTE_COMBINED = "combined"
ROUTE_HIGHWAY = "highway"

LABEL_INLIER = "inlier"
LABEL_OUTLIER = "outlier"
LABEL_UNASSIGNED = "unassigned"

MIN_TRIP_KMS = 5.0


class RawReading(NamedTuple):
    """One feed row; its fields declare the feed's columns."""

    time_tx: datetime
    vehicle_id: str
    variable_id: str
    variable_value: float


FEED_COLUMNS = table_columns(RawReading)


#: the FAR's fixed columns: the attributes of a FarRecord and the columns of a DayTable before ``features``
FAR_FIXED_COLUMNS = ("vehicle_id", "date", "route_type", "vehicle_group", "vehicle_class", "anomaly_label",
                     "trip_kms", "trip_fuel_used", "per_time_city", "avg_fuel_consumption")


class FarRecord(Record):
    """One vehicle-day: the row view of a DayTable, its fixed columns and then its features."""

    def __init__(self, vehicle_id: str, date: date, route_type: str = ROUTE_COMBINED, vehicle_group: int = -1,
                 vehicle_class: int = 0, anomaly_label: str = LABEL_UNASSIGNED, trip_kms: float | None = None,
                 trip_fuel_used: float | None = None, per_time_city: float | None = None,
                 avg_fuel_consumption: float | None = None, features: dict[str, float] | None = None):
        self.vehicle_id = vehicle_id
        self.date = date
        self.route_type = route_type
        self.vehicle_group = vehicle_group
        self.vehicle_class = vehicle_class
        self.anomaly_label = anomaly_label
        self.trip_kms = trip_kms
        self.trip_fuel_used = trip_fuel_used
        self.per_time_city = per_time_city
        self.avg_fuel_consumption = avg_fuel_consumption
        self.features = {} if features is None else features


class DayTable(Record):
    """Vehicle-days as columns: row i of every fixed column and of every ``features`` column is one day."""

    def __init__(self, vehicle_id: list[str], date: list[date], route_type: list[str], vehicle_group: list[int],
                 vehicle_class: list[int], anomaly_label: list[str], trip_kms: list[float | None],
                 trip_fuel_used: list[float | None], per_time_city: list[float | None],
                 avg_fuel_consumption: list[float | None], features: dict[str, list[float | None]]):
        self.vehicle_id = vehicle_id
        self.date = date
        self.route_type = route_type
        self.vehicle_group = vehicle_group
        self.vehicle_class = vehicle_class
        self.anomaly_label = anomaly_label
        self.trip_kms = trip_kms
        self.trip_fuel_used = trip_fuel_used
        self.per_time_city = per_time_city
        self.avg_fuel_consumption = avg_fuel_consumption
        self.features = features

    @classmethod
    def from_rows(cls, rows: Iterable[FarRecord], names: Iterable[str] | None = None) -> "DayTable":
        """The table of these records, in order; ``names`` defaults to their features in order of first sight."""
        rows = list(rows)
        names = dict.fromkeys(name for rec in rows for name in rec.features) if names is None else names
        fixed = [[getattr(rec, column) for rec in rows] for column in FAR_FIXED_COLUMNS]
        return cls(*fixed, {name: [rec.features.get(name) for rec in rows] for name in names})

    def __len__(self) -> int:
        return len(self.vehicle_id)

    def __iter__(self) -> Iterator[FarRecord]:
        """Each row as a FarRecord, whose features are the row's cells that are not None."""
        fixed, features = self.fixed_columns(), self.features.items()
        for i in range(len(self)):
            yield FarRecord(*(c[i] for c in fixed), features={n: c[i] for n, c in features if c[i] is not None})

    def fixed_columns(self) -> list[list]:
        return [getattr(self, name) for name in FAR_FIXED_COLUMNS]

    def take(self, index: Sequence[int]) -> "DayTable":
        """A new table of the rows at ``index``, in that order."""
        cells = lambda column: list(map(column.__getitem__, index))
        return DayTable(*map(cells, self.fixed_columns()), {name: cells(c) for name, c in self.features.items()})

    def day_keys(self) -> list[tuple[str, date]]:
        return list(zip(self.vehicle_id, self.date))

    def by_day(self) -> list[int]:
        """Row indices in (vehicle, date) order; rows with equal keys keep their order."""
        return sorted(range(len(self)), key=self.day_keys().__getitem__)

    def bad_cell(self, names: Iterable[str] | None = None) -> tuple[int, DataError] | None:
        """Row and error of the first missing or non-finite cell, row by row, in the ``names`` columns.

        A name is a feature column, or else a fixed one; a name without a column is missing from every row.
        ``names`` defaults to every feature.  None when every cell is a finite number.
        """
        bad = []  # (row, column order, name, cell) of each column's first bad cell
        for name in self.features if names is None else names:
            fixed = getattr(self, name) if name in FAR_FIXED_COLUMNS else None
            cells = self.features.get(name, fixed) or [None] * len(self)
            if None in cells or not all(map(math.isfinite, cells)):
                row = next(i for i, x in enumerate(cells) if x is None or not math.isfinite(x))
                bad.append((row, len(bad), name, cells[row]))
        if not bad:
            return None
        row, _, name, value = min(bad)
        where = f"{self.vehicle_id[row]}/{self.date[row]}"
        if value is None:
            return row, MissingFeatureError(f"record {where} lacks {name!r}")
        return row, DataError(f"{name!r} is not finite on {where}")


class RouteThresholds(NamedTuple):
    """Distance / city-time thresholds for the route classifier."""

    th_kms: float = 30.0
    low_th_time: float = 0.5
    high_th_time: float = 0.65


class DayReadings:
    """Accepted feed rows by (vehicle, UTC day), then by channel.

    A ``last`` channel keeps (time, value) samples, any other channel bare
    values.  Rows of undeclared channels are only counted, in ``other`` in
    order of first sight.  ``len()`` counts every accepted row.
    """

    def __init__(self, registry: FeatureRegistry, days: dict[tuple[str, date], dict[str, list]],
                 other: dict[str, int], n_rows: int):
        self.registry = registry
        self.days = days
        self.other = other
        self.n_rows = n_rows

    def __len__(self) -> int:
        return self.n_rows


class ParsedFeed(NamedTuple):
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


class AggregateReport:
    def __init__(self, n_readings: int = 0):
        self.unknown_channels: dict[str, int] = {}
        self.n_records = 0
        self.n_readings = n_readings


def aggregate_daily(
    readings: DayReadings,
    registry: FeatureRegistry,
    ignore: Iterable[str] = (),
) -> tuple[DayTable, AggregateReport]:
    """Reduce grouped readings to one row per (vehicle, UTC day), in day order.

    Each registry feature is reduced by its declared aggregator; the three
    core channels fill trip_kms / trip_fuel_used / per_time_city.  Channels
    neither declared nor ignored are skipped with a warning.  A day's
    samples are dropped from ``readings`` once its row is built.  A sum
    beyond the float range raises DataError naming the vehicle, day and
    channel, so no cell is ever infinite.
    """
    if tuple(readings.registry) != tuple(registry):
        raise DataError("readings were grouped under a different feature registry")
    ignore_set = set(ignore)
    report = AggregateReport(n_readings=len(readings))
    for channel, count in readings.other.items():
        if channel not in ignore_set:
            logger.warning("unknown channel %r skipped", channel)
            report.unknown_channels[channel] = count

    keys = sorted(readings.days)
    n = len(keys)
    blank = lambda value: [value] * n
    table = DayTable(
        [v for v, _ in keys], [d for _, d in keys], blank(ROUTE_COMBINED), blank(-1), blank(0), blank(LABEL_UNASSIGNED),
        *(blank(None) for _ in range(4)), {name: blank(None) for name in registry.names},
    )
    core = {TRIP_FUEL_CHANNEL: (table.trip_fuel_used, "sum"), TRIP_KMS_CHANNEL: (table.trip_kms, "sum"),
            CITY_TIME_CHANNEL: (table.per_time_city, "mean")}
    for i, key in enumerate(keys):
        for channel, samples in readings.days.pop(key).items():
            column, how = core.get(channel) or (table.features[channel], registry[channel].aggregator)
            try:
                column[i] = _aggregate(samples, how)
            except OverflowError:
                raise DataError(f"vehicle {key[0]} on {key[1]}: the {how} of channel {channel!r} overflows") from None
    report.n_records = n
    return table, report


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
    table: DayTable,
    identities: Mapping[str, VehicleIdentity],
    thresholds: RouteThresholds = RouteThresholds(),
) -> DayTable:
    """Fill avg fuel, route type and vehicle_group on an aggregated table, in place.

    Rows with an unusable distance keep avg_fuel_consumption = None and
    are left for the quality filter to remove.  A day without a city-time
    fraction cannot be placed at either extreme and falls in 'combined'.
    """
    kms, city = table.trip_kms, table.per_time_city
    table.avg_fuel_consumption = [
        compute_avg_fuel(fuel, k) if fuel is not None and k is not None and k > 0 else avg
        for fuel, k, avg in zip(table.trip_fuel_used, kms, table.avg_fuel_consumption)
    ]
    table.route_type = [
        ROUTE_COMBINED if k is None or c is None else classify_route(c, k, thresholds) for k, c in zip(kms, city)
    ]
    table.vehicle_group = [
        group if ident is None else ident.vehicle_group
        for group, ident in zip(table.vehicle_group, map(identities.get, table.vehicle_id))
    ]
    return table


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


def assign_classes(table: DayTable, class_table: Sequence[VehicleClassRow]) -> dict[int, int]:
    """Assign every row its group's class from the group median fuel."""
    by_group: dict[int, list[float]] = {}
    for group, avg in zip(table.vehicle_group, table.avg_fuel_consumption):
        if avg is not None:
            by_group.setdefault(group, []).append(avg)
    classes = {
        group: assign_vehicle_class(median(vals), class_table)
        for group, vals in by_group.items()
    }
    table.vehicle_class = [classes.get(group, 0) for group in table.vehicle_group]
    return classes


class RemovalReport:
    def __init__(self):
        self.reasons: dict[str, int] = {}

    def count(self, reason: str) -> None:
        self.reasons[reason] = self.reasons.get(reason, 0) + 1

    @property
    def n_removed(self) -> int:
        return sum(self.reasons.values())


def quality_filter(table: DayTable) -> tuple[DayTable, RemovalReport]:
    """Drop rows unusable for modelling; count each removal reason.

    Removes rows with a missing or short trip (< 5 km) or missing fuel.
    Implausibly low and noisy fuel is removed later, against whisker limits,
    by ``anomaly.two_phase_clean``.
    """
    kept: list[int] = []
    report = RemovalReport()
    for i, (kms, fuel, avg) in enumerate(zip(table.trip_kms, table.trip_fuel_used, table.avg_fuel_consumption)):
        if kms is None:
            report.count("missing_distance")
        elif kms < MIN_TRIP_KMS:
            report.count("low_distance")
        elif fuel is None or avg is None:
            report.count("missing_fuel")
        else:
            kept.append(i)
    return table.take(kept), report


def impute_missing(table: DayTable, registry: FeatureRegistry) -> DayTable:
    """Fill missing feature values in place: group median, then fleet median, then 0.

    Observed values are never altered.  After this pass the table has a
    column for every registry feature, and no None cell in it.  Medians
    are built only when some cell is missing.
    """
    features = table.features
    if all(name in features and None not in features[name] for name in registry.names):
        return table
    medians = FallbackMedians(features, [table.vehicle_group])
    for name in registry.names:
        cells = features.setdefault(name, [None] * len(table))
        for i, (group, value) in enumerate(zip(table.vehicle_group, cells)):
            if value is None:
                fill = medians.get((name, group))
                cells[i] = 0.0 if fill is None else fill
    return table


# ---------------------------------------------------------------------------
# FAR CSV round trip


def write_far_csv(table: DayTable, registry: FeatureRegistry, path: str | Path) -> None:
    """One row per vehicle-day in (vehicle, date) order, fixed columns then registry features."""
    features = (table.features.get(name) or [None] * len(table) for name in registry.names)
    rows = sorted(zip(*table.fixed_columns(), *features), key=lambda row: row[:2])  # stable on (vehicle, date)
    write_table(path, FAR_FIXED_COLUMNS + registry.names, rows)


def _number(cell: str) -> float | None:
    return float(cell) if cell else None


#: the parser of each fixed column; a feature cell parses as a number
_CELL_PARSERS = (str, date.fromisoformat, str, int, int, str, _number)


def read_far_csv(path: str | Path, registry: FeatureRegistry) -> DayTable:
    """The table written by write_far_csv, under an exact header, every cell parsed column by column.

    The first row of the wrong width or with a cell that does not parse raises FeedFormatError naming file and line;
    then the first row that repeats a (vehicle, date) raises naming both lines.
    """
    columns = FAR_FIXED_COLUMNS + registry.names
    with csv_reader(path) as reader:
        header = next(reader, None)
        if header is None:
            raise FeedFormatError(f"{path}: empty FAR file")
        if header != list(columns):
            extra = sorted(set(header) - set(columns))
            missing = sorted(set(columns) - set(header))
            raise FeedFormatError(f"{path}: FAR columns mismatch (missing {missing}, unexpected {extra})")
        rows = list(reader)
    parsers = _CELL_PARSERS + (_number,) * (len(columns) - len(_CELL_PARSERS))
    try:
        if any(len(row) != len(columns) for row in rows):
            raise ValueError
        # float itself parses a number column without a blank cell, faster than _number
        cells = [list(map(float if parse is _number and "" not in c else parse, c))
                 for c, parse in zip(list(zip(*rows)) or [()] * len(columns), parsers)]
    except ValueError:
        for line, row in enumerate(rows, 2):  # the first bad row, as a row-by-row reader meets it
            if len(row) != len(columns):
                raise FeedFormatError(f"{path}: line {line}: expected {len(columns)} fields, got {len(row)}") from None
            for cell, parse in zip(row, parsers):
                try:
                    parse(cell)
                except ValueError as exc:
                    raise FeedFormatError(f"{path}: line {line}: {exc}") from None
    first: dict[tuple[str, date], int] = {}
    for line, key in enumerate(zip(cells[0], cells[1]), 2):
        if first.setdefault(key, line) != line:
            raise FeedFormatError("{}: line {}: vehicle-day {}/{} repeats line {}".format(path, line, *key, first[key]))
    n_fixed = len(FAR_FIXED_COLUMNS)
    return DayTable(*cells[:n_fixed], dict(zip(registry.names, cells[n_fixed:])))
