"""Config tables: feature registry, vehicle identity, class table, catalog, limits.

The module holds the one table reader and the one artifact writer.  Every
config table the pipeline consumes, and the small artifact tables it reads
back, goes through ``read_table``: a missing column, a row with the wrong
field count or a cell that does not parse raises FeedFormatError naming the
file and line.  Every CSV file the pipeline reads is opened through
``utf8_text``, so a byte that is not UTF-8 raises FeedFormatError naming
the file.  Every artifact a stage writes goes through ``artifact_file``
(CSV tables through ``write_table``), so it appears whole or not at all.
A table is declared once, by its row dataclass: ``table_columns`` gives
its columns and ``row_parser`` converts each cell by its field's type,
naming the column of a cell that does not convert.  The feature registry
drives aggregation, imputation, reference policies and the explanation
taxonomy; the VIN map and class table drive vehicle grouping; the catalog
and SOTA-limit tables drive the domain evaluations.  The module also holds
what the CLI needs before it knows which stage runs: the training config,
the rule and CO2 defaults, the JSON object reader and the report writers.
It imports no numpy.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from contextlib import contextmanager
from dataclasses import asdict, astuple, dataclass, fields
from functools import cache
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TextIO, TypeVar, get_type_hints

from .errors import DataError, FeedFormatError, FleetFuelError

T = TypeVar("T")


def read_table(
    path: str | Path | None,
    packaged: str | None,
    columns: Sequence[str],
    parse: Callable[[dict[str, str]], T],
    key: str | None = None,
) -> list[T]:
    """Rows of a CSV table, each parsed from a dict of its stripped cells.

    Reads ``path``, or the packaged data file named ``packaged`` when path
    is None.  The header must hold every name in ``columns``; blank lines
    are skipped.  A missing column, a row whose field count differs from
    the header's, a row whose ``parse`` raises ValueError or
    FleetFuelError, or a row whose key (``key.format`` of the parsed row,
    so that ``01`` and ``1`` are one int) equals an earlier row's raises
    FeedFormatError as ``<file>: line N: <reason>``, and a byte that is not
    UTF-8 as ``<file>: not UTF-8 text``.
    """
    with csv_reader(path, packaged, (ValueError, csv.Error, FleetFuelError)) as reader:
        header = next(reader, [])
        missing = sorted(set(columns) - set(header))
        if missing:
            raise ValueError(f"missing columns {missing}")
        rows, first = [], {}
        for row in filter(None, reader):  # an empty list is a blank line
            if len(row) != len(header):
                raise ValueError(f"row does not have the header's {len(header)} fields")
            rows.append(parse(dict(zip(header, map(str.strip, row)))))
            if key is not None:
                name = key.format(rows[-1])
                if first.setdefault(name, reader.line_num) != reader.line_num:
                    raise ValueError(f"duplicate {name} (first on line {first[name]})")
    return rows


@contextmanager
def utf8_text(path: str | Path | None, packaged: str | None = None) -> Iterator[TextIO]:
    """A text handle on the UTF-8 file ``path``, or on the packaged data file ``packaged`` when path is None.

    A byte that is not UTF-8, wherever the block meets it, raises FeedFormatError naming the file.
    """
    if path is None:
        fh = io.StringIO(resources.files("fleetfuel.data").joinpath(packaged).read_text(encoding="utf-8"))
    else:
        fh = open(path, newline="", encoding="utf-8")
    with fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise FeedFormatError(f"{path or f'<packaged {packaged}>'}: not UTF-8 text ({exc})") from exc


@contextmanager
def csv_reader(path: str | Path | None, packaged: str | None = None, catch: tuple = (ValueError, csv.Error)):
    """A csv.reader over ``utf8_text(path, packaged)``.

    An exception of a ``catch`` type in the block raises FeedFormatError as
    ``<file>: line N: <reason>``; a byte that is not UTF-8 names the file, not a line.
    """
    with utf8_text(path, packaged) as fh:
        reader = csv.reader(fh)
        try:
            yield reader
        except UnicodeDecodeError:
            raise
        except catch as exc:
            raise FeedFormatError(f"{path or f'<packaged {packaged}>'}: line {reader.line_num}: {exc}") from exc


def fits(value, kind: type) -> bool:
    """Whether ``value`` is a ``kind`` as it stands: an int within float range is a float, a bool never a number."""
    if not (isinstance(value, (int, float) if kind is float else kind) and isinstance(value, bool) == (kind is bool)):
        return False
    if kind is float and isinstance(value, int):
        try:
            float(value)
        except OverflowError:  # an int beyond the largest float
            return False
    return True


def table_columns(row_type: type) -> tuple[str, ...]:
    """The field names of the ``row_type`` dataclass, in order: the columns of its table."""
    return tuple(f.name for f in fields(row_type))


_TRUE = {"yes", "y", "true", "1"}
_FALSE = {"no", "n", "false", "0", ""}


def _parse_flag(raw: str) -> bool:
    val = raw.lower()
    if val in _TRUE:
        return True
    if val in _FALSE:
        return False
    raise ValueError(f"cannot parse flag value {raw!r}")


def _parse_finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"{raw!r} is not a finite number")
    return value


_CELL_PARSERS = {str: str, int: int, float: _parse_finite, bool: _parse_flag}


@cache
def row_parser(row_type: type[T]) -> Callable[[dict[str, str]], T]:
    """A ``read_table`` parse that builds the ``row_type`` dataclass from a row's cells.

    Each field's converter follows its type and is worked out once per
    type: ``str``, ``int``, a finite ``float``, or ``bool`` through the
    flag parser (yes/y/true/1, no/n/false/0 or blank).  A column the row
    lacks takes the field's default; a cell that does not convert raises
    ValueError naming its column.
    """
    hints = get_type_hints(row_type)
    converters = [(f.name, _CELL_PARSERS[hints[f.name]]) for f in fields(row_type)]

    def parse(row: dict[str, str]) -> T:
        values = {}
        for name, convert in converters:
            cell = row.get(name)
            if cell is not None:
                try:
                    values[name] = convert(cell)
                except ValueError as exc:
                    raise ValueError(f"column {name!r}: {exc}") from exc
        return row_type(**values)

    return parse


@contextmanager
def artifact_file(path: str | Path) -> Iterator[TextIO]:
    """A UTF-8 text handle without newline translation that replaces ``path`` when the block ends.

    The block writes ``<path>.tmp``, which is moved over ``path`` when the
    block ends cleanly and removed when it raises, so ``path`` holds either
    its previous bytes or the whole new file.  There is no fsync: the move
    guards against a writer that fails, not against a host that crashes.
    """
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def csv_fields(fields: Sequence[str]) -> str:
    """The fields joined as csv.writer writes them inside a row, without the line end."""
    buf = io.StringIO()
    # a trailing empty field keeps a lone empty field from being quoted
    csv.writer(buf, lineterminator="").writerow([*fields, ""])
    return buf.getvalue()[:-1]


def write_table(path: str | Path, columns: Sequence[str], rows: Iterable[Iterable]) -> None:
    """A CSV artifact: the header, then one line per row, through ``artifact_file``.

    ``rows`` may be a generator; it is written as it is consumed.  The csv
    module formats the cells: None is an empty cell, a float its shortest
    round-trip repr, anything else its ``str``.
    """
    with artifact_file(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sequence; an even count averages the middle pair.

    Pure Python on purpose: the tables it serves hold a few to a few thousand
    values, and the result stays the exact float ``(a + b) / 2.0``.
    """
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0


class FallbackMedians:
    """A reduced value (the median by default) of each column for every prefix of the rows' context.

    ``context`` holds per-row key columns, widest first: under (route,
    group), column ``name`` is reduced per (name,), (name, route) and (name,
    route, group).  Each key's values are the column's cells that are not
    None, in row order, so a median tied between 0.0 and -0.0 takes its
    sign from that order.  ``get`` tries the whole key, then ever shorter
    prefixes down to the name alone; None when no prefix holds a value.
    """

    def __init__(
        self, columns: Mapping[object, Sequence], context: Sequence[Sequence], reduce: Callable[[list], T] = median
    ):
        rows: dict[tuple, Sequence[int]] = {(): range(len(context[0]))}
        for depth in range(1, len(context) + 1):
            for i, key in enumerate(zip(*context[:depth])):
                rows.setdefault(key, []).append(i)
        self._values = {}
        for name, column in columns.items():
            for prefix, index in rows.items():
                values = [v for v in map(column.__getitem__, index) if v is not None]
                if values:
                    self._values[(name, *prefix)] = reduce(values)

    def get(self, key: tuple):
        while key:
            value = self._values.get(key)
            if value is not None:
                return value
            key = key[:-1]
        return None


# Known (category, subcategory) pairs for fuel factors.  Registry rows must
# use one of these; "Other" and "Rain" are excluded from limit verdicts.
TAXONOMY: frozenset[tuple[str, str]] = frozenset(
    {
        ("Auxiliary Systems", "Air Conditioning"),
        ("Auxiliary Systems", "Steering Assist Systems"),
        ("Auxiliary Systems", "Other Vehicle Auxiliaries"),
        ("Driving Behaviour", "Aggressive Driving"),
        ("Driving Behaviour", "Eco-Driving"),
        ("Operational Mass", "Vehicle Extra Mass"),
        ("Road Conditions", "Altitude"),
        ("Road Conditions", "Driving Uphill"),
        ("Road Conditions", "Road Roughness"),
        ("Road Conditions", "Traffic Condition"),
        ("Road Conditions", "Trip Type"),
        ("Vehicle Conditions", "Lubrication"),
        ("Vehicle Conditions", "Tyres"),
        ("Vehicle Conditions", "Other"),
        ("Weather Conditions", "Rain"),
        ("Weather Conditions", "Ambient Temperature"),
    }
)

#: Subcategories reported without a verdict in the category evaluation.
UNCHECKED_SUBCATEGORIES: frozenset[str] = frozenset({"Other", "Rain"})

AGGREGATORS = ("sum", "mean", "max", "count", "last")
IMPACT_TYPES = ("Positive", "Negative")

@dataclass(frozen=True)
class FeatureSpec:
    """Registry entry describing one telemetry-derived feature."""

    name: str
    unit: str
    aggregator: str
    impact_type: str
    reference_zero: bool
    category: str
    subcategory: str
    actionable: bool
    description: str = ""

    def __post_init__(self):
        if self.aggregator not in AGGREGATORS:
            raise FeedFormatError(
                f"feature {self.name!r}: unknown aggregator {self.aggregator!r}"
            )
        if self.impact_type not in IMPACT_TYPES:
            raise FeedFormatError(
                f"feature {self.name!r}: impact_type must be one of {IMPACT_TYPES}"
            )
        if (self.category, self.subcategory) not in TAXONOMY:
            raise FeedFormatError(
                f"feature {self.name!r}: ({self.category!r}, {self.subcategory!r}) "
                "is not in the factor taxonomy"
            )


class FeatureRegistry:
    """Ordered collection of FeatureSpec rows, keyed by feature name."""

    def __init__(self, specs: Iterable[FeatureSpec]):
        self._specs: dict[str, FeatureSpec] = {}
        for spec in specs:
            if spec.name in self._specs:
                raise FeedFormatError(f"duplicate feature name {spec.name!r}")
            self._specs[spec.name] = spec

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def __len__(self) -> int:
        return len(self._specs)

    def __iter__(self):
        return iter(self._specs.values())

    def __getitem__(self, name: str) -> FeatureSpec:
        return self._specs[name]

    def get(self, name: str) -> FeatureSpec | None:
        return self._specs.get(name)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._specs)

    @classmethod
    def from_csv(cls, path: str | Path) -> "FeatureRegistry":
        return cls(_read_specs(path))

    @classmethod
    def default(cls) -> "FeatureRegistry":
        return cls(_read_specs(None))


def _read_specs(path: str | Path | None) -> list[FeatureSpec]:
    """Registry rows of a file (the packaged one for None); a repeated name is an error on its line."""
    required = [name for name in table_columns(FeatureSpec) if name != "description"]
    return read_table(path, "feature_registry.csv", required, row_parser(FeatureSpec), "feature name {0.name!r}")


# ---------------------------------------------------------------------------
# Vehicle identity


@dataclass(frozen=True)
class VehicleIdentity:
    """Resolved identity of one vehicle plus its dense group id."""

    vehicle_id: str
    make: str
    model: str
    year: str
    fuel_type: str
    vehicle_group: int
    vehicle_class: int = 0


UNKNOWN_IDENTITY = ("unknown", "unknown", "", "unknown")

VIN_MAP_COLUMNS = ("vin_prefix", "make", "model", "year", "fuel_type")


class VinMap:
    """Longest-prefix lookup from vehicle id to (make, model, year, fuel_type)."""

    def __init__(self, entries: Mapping[str, tuple[str, str, str, str]]):
        self._entries = dict(entries)
        self._prefixes = sorted(self._entries, key=len, reverse=True)

    @classmethod
    def from_csv(cls, path: str | Path) -> "VinMap":
        return cls(dict(read_table(path, None, VIN_MAP_COLUMNS, _vin_entry, "vin_prefix {0[0]!r}")))

    def lookup(self, vehicle_id: str) -> tuple[str, str, str, str]:
        """Longest vin_prefix matching the start of vehicle_id, else unknown."""
        for prefix in self._prefixes:
            if vehicle_id.startswith(prefix):
                return self._entries[prefix]
        return UNKNOWN_IDENTITY


def _vin_entry(row: dict[str, str]) -> tuple[str, tuple[str, str, str, str]]:
    if not row["vin_prefix"]:
        raise ValueError("empty vin_prefix")
    return row["vin_prefix"], (row["make"], row["model"], row["year"], row["fuel_type"])


def assign_groups(vehicle_ids: Sequence[str], vin_map: VinMap) -> dict[str, VehicleIdentity]:
    """Resolve identities and assign dense group ids.

    Group ids are assigned by sorted (make, model, year, fuel_type) order so
    the numbering is stable across runs regardless of input ordering.
    """
    resolved = {vid: vin_map.lookup(vid) for vid in vehicle_ids}
    groups = {key: gid for gid, key in enumerate(sorted(set(resolved.values())))}
    return {
        vid: VehicleIdentity(
            vehicle_id=vid,
            make=key[0],
            model=key[1],
            year=key[2],
            fuel_type=key[3],
            vehicle_group=groups[key],
        )
        for vid, key in sorted(resolved.items())
    }


def write_identities_csv(
    identities: Mapping[str, VehicleIdentity], path: str | Path
) -> None:
    rows = (astuple(ident) for _, ident in sorted(identities.items()))
    write_table(path, table_columns(VehicleIdentity), rows)


def read_identities_csv(path: str | Path) -> dict[str, VehicleIdentity]:
    rows = read_table(
        path, None, table_columns(VehicleIdentity), row_parser(VehicleIdentity), "vehicle {0.vehicle_id!r}"
    )
    return {ident.vehicle_id: ident for ident in rows}


# ---------------------------------------------------------------------------
# Vehicle class table


@dataclass(frozen=True)
class VehicleClassRow:
    l100km_min: float
    l100km_max: float
    l100km_med: float
    vehicle_class: int


def load_class_table(path: str | Path | None = None) -> list[VehicleClassRow]:
    """Class table sorted by class id; packaged default when path is None."""
    rows = read_table(path, "vehicle_classes.csv", table_columns(VehicleClassRow), row_parser(VehicleClassRow))
    if not rows:
        raise FeedFormatError(f"{path or '<packaged vehicle_classes.csv>'}: class table is empty")
    return sorted(rows, key=lambda r: r.vehicle_class)


# ---------------------------------------------------------------------------
# Catalog references


@dataclass(frozen=True)
class CatalogReference:
    """Catalog fuel for one (make, model, year, fuel_type, route_type)."""

    make: str
    model: str
    year: str
    fuel_type: str
    route_type: str
    l_per_100km: float

    def __post_init__(self):
        if not self.l_per_100km > 0:
            raise FeedFormatError(f"catalog fuel must be positive, got {self.l_per_100km}")


class CatalogTable:
    """Catalog fuel references; duplicate entries collapse to their median."""

    def __init__(self, refs: Iterable[CatalogReference]):
        buckets: dict[tuple, list[float]] = {}
        for ref in refs:
            key = (ref.make, ref.model, ref.year, ref.fuel_type, ref.route_type)
            buckets.setdefault(key, []).append(ref.l_per_100km)
        self._median = {key: median(vals) for key, vals in buckets.items()}

    @classmethod
    def from_csv(cls, path: str | Path) -> "CatalogTable":
        return cls(read_table(path, None, table_columns(CatalogReference), row_parser(CatalogReference)))

    def lookup(
        self, identity: VehicleIdentity, route_type: str
    ) -> float | None:
        key = (identity.make, identity.model, identity.year, identity.fuel_type, route_type)
        return self._median.get(key)


# ---------------------------------------------------------------------------
# SOTA impact limits


@dataclass(frozen=True)
class SotaLimit:
    category: str
    subcategory: str
    min_pct: float
    max_pct: float


def load_sota_limits(path: str | Path | None = None) -> dict[tuple[str, str], SotaLimit]:
    """Literature impact limits per (category, subcategory), in percent."""
    key = "limits of {0.category}/{0.subcategory}"
    limits = read_table(path, "sota_limits.csv", table_columns(SotaLimit), row_parser(SotaLimit), key)
    return {(lim.category, lim.subcategory): lim for lim in limits}


# ---------------------------------------------------------------------------
# Stage settings and report writers: numpy-free, so the CLI can build its
# defaults and write ingest's and clean's reports without the model modules

CO2_KG_PER_LITER = 2.67633
DEFAULT_BR2_THRESHOLD = 0.01
DEFAULT_BR5_CAP = 0.8


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    max_rounds: int = 5000
    patience: int = 50
    max_bins: int = 256
    max_leaves: int = 3
    bags: int = 8
    validation_fraction: float = 0.15
    seed: int = 0

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise DataError("learning_rate must be positive")
        if self.max_bins < 2:
            raise DataError("max_bins must be at least 2")
        if not 0.0 < self.validation_fraction < 0.5:
            raise DataError("validation_fraction must be in (0, 0.5)")
        if self.max_leaves < 2:
            raise DataError("max_leaves must be at least 2")
        if self.bags < 1 or self.max_rounds < 1 or self.patience < 1:
            raise DataError("bags, max_rounds and patience must be positive")


def read_json_object(path: str | Path, what: str) -> dict:
    """The JSON object in ``path``; anything else raises FeedFormatError naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except ValueError as exc:
        raise FeedFormatError(f"{path}: {what} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise FeedFormatError(f"{path}: {what} is not a JSON object")
    return data


def write_report_json(payload, path: str | Path) -> None:
    """Sorted, indented JSON; a NaN or infinity raises DataError naming the file."""

    def default(obj):
        if hasattr(obj, "__dataclass_fields__"):
            return asdict(obj)
        raise TypeError(f"cannot serialize {type(obj)!r}")

    try:
        text = json.dumps(payload, indent=2, sort_keys=True, default=default, allow_nan=False)
    except ValueError as exc:
        raise DataError(f"{path}: report is not valid JSON: {exc}") from exc
    with artifact_file(path) as fh:
        fh.write(text + "\n")


def write_report_csv(items: Iterable, row_type: type, path: str | Path) -> None:
    """One row per item, columns in the field order of the ``row_type`` dataclass.

    Items are instances of row_type or dicts keyed by its field names (a
    report read back from JSON); a missing key writes an empty cell.
    """
    columns = table_columns(row_type)
    dicts = (asdict(item) if hasattr(item, "__dataclass_fields__") else dict(item) for item in items)
    write_table(path, columns, ([data.get(col) for col in columns] for data in dicts))
