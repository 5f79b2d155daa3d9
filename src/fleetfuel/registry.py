"""Config tables: feature registry, vehicle identity, class table, catalog, limits.

Every external CSV the pipeline consumes is loaded and validated here, so the
file schemas live in one place.  The feature registry drives aggregation,
imputation, reference policies and the explanation taxonomy; the VIN map and
class table drive vehicle grouping; the catalog and SOTA-limit tables drive
the domain evaluations.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import FeedFormatError


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sequence; an even count averages the middle pair.

    Pure Python on purpose: the tables it serves hold a few to a few thousand
    values, and the result stays the exact float ``(a + b) / 2.0``.
    """
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0


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

_TRUE = {"yes", "y", "true", "1"}
_FALSE = {"no", "n", "false", "0", ""}


def _parse_flag(raw: str, column: str) -> bool:
    val = raw.strip().lower()
    if val in _TRUE:
        return True
    if val in _FALSE:
        return False
    raise FeedFormatError(f"column {column!r}: cannot parse flag value {raw!r}")


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


REGISTRY_COLUMNS = (
    "name",
    "unit",
    "aggregator",
    "impact_type",
    "reference_zero",
    "category",
    "subcategory",
    "actionable",
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

    @property
    def actionable_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self if s.actionable)

    @classmethod
    def from_csv(cls, path: str | Path) -> "FeatureRegistry":
        with open(path, newline="", encoding="utf-8") as fh:
            return cls._read(fh, str(path))

    @classmethod
    def _read(cls, fh, origin: str) -> "FeatureRegistry":
        reader = csv.DictReader(fh)
        missing = set(REGISTRY_COLUMNS) - set(reader.fieldnames or ())
        if missing:
            raise FeedFormatError(
                f"{origin}: registry is missing columns {sorted(missing)}"
            )
        specs = []
        for row in reader:
            specs.append(
                FeatureSpec(
                    name=row["name"].strip(),
                    unit=row["unit"].strip(),
                    aggregator=row["aggregator"].strip(),
                    impact_type=row["impact_type"].strip(),
                    reference_zero=_parse_flag(row["reference_zero"], "reference_zero"),
                    category=row["category"].strip(),
                    subcategory=row["subcategory"].strip(),
                    actionable=_parse_flag(row["actionable"], "actionable"),
                    description=(row.get("description") or "").strip(),
                )
            )
        return cls(specs)

    @classmethod
    def default(cls) -> "FeatureRegistry":
        return cls._read(io.StringIO(_load_data("feature_registry.csv")), "<packaged>")


def _load_data(name: str) -> str:
    return resources.files("fleetfuel.data").joinpath(name).read_text(encoding="utf-8")


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
    vin: str | None = None
    vehicle_class: int = 0

    @property
    def group_key(self) -> tuple[str, str, str, str]:
        return (self.make, self.model, self.year, self.fuel_type)


UNKNOWN_IDENTITY = ("unknown", "unknown", "", "unknown")

VIN_MAP_COLUMNS = ("vin_prefix", "make", "model", "year", "fuel_type")


class VinMap:
    """Longest-prefix lookup from vehicle id to (make, model, year, fuel_type)."""

    def __init__(self, entries: Mapping[str, tuple[str, str, str, str]]):
        self._entries = dict(entries)
        self._prefixes = sorted(self._entries, key=len, reverse=True)

    @classmethod
    def from_csv(cls, path: str | Path) -> "VinMap":
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            missing = set(VIN_MAP_COLUMNS) - set(reader.fieldnames or ())
            if missing:
                raise FeedFormatError(
                    f"{path}: VIN map is missing columns {sorted(missing)}"
                )
            entries = {}
            for row in reader:
                prefix = row["vin_prefix"].strip()
                if not prefix:
                    raise FeedFormatError(f"{path}: empty vin_prefix")
                entries[prefix] = (
                    row["make"].strip(),
                    row["model"].strip(),
                    row["year"].strip(),
                    row["fuel_type"].strip(),
                )
        return cls(entries)

    def lookup(self, vehicle_id: str) -> tuple[str, str, str, str]:
        """Longest vin_prefix matching the start of vehicle_id, else unknown."""
        for prefix in self._prefixes:
            if vehicle_id.startswith(prefix):
                return self._entries[prefix]
        return UNKNOWN_IDENTITY


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


IDENTITY_COLUMNS = (
    "vehicle_id",
    "make",
    "model",
    "year",
    "fuel_type",
    "vehicle_group",
    "vehicle_class",
)


def write_identities_csv(
    identities: Mapping[str, VehicleIdentity], path: str | Path
) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(IDENTITY_COLUMNS)
        for vid in sorted(identities):
            ident = identities[vid]
            writer.writerow(
                [
                    ident.vehicle_id,
                    ident.make,
                    ident.model,
                    ident.year,
                    ident.fuel_type,
                    str(ident.vehicle_group),
                    str(ident.vehicle_class),
                ]
            )


def read_identities_csv(path: str | Path) -> dict[str, VehicleIdentity]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        missing = set(IDENTITY_COLUMNS) - set(reader.fieldnames or ())
        if missing:
            raise FeedFormatError(f"{path}: identities missing {sorted(missing)}")
        out = {}
        for row in reader:
            out[row["vehicle_id"]] = VehicleIdentity(
                vehicle_id=row["vehicle_id"],
                make=row["make"],
                model=row["model"],
                year=row["year"],
                fuel_type=row["fuel_type"],
                vehicle_group=int(row["vehicle_group"]),
                vehicle_class=int(row["vehicle_class"]),
            )
    return out


# ---------------------------------------------------------------------------
# Vehicle class table


@dataclass(frozen=True)
class VehicleClassRow:
    l100km_min: float
    l100km_max: float
    l100km_med: float
    vehicle_class: int


CLASS_TABLE_COLUMNS = ("l100km_min", "l100km_max", "l100km_med", "vehicle_class")


def load_class_table(path: str | Path | None = None) -> list[VehicleClassRow]:
    """Class table sorted by class id; packaged default when path is None."""
    if path is None:
        text = _load_data("vehicle_classes.csv")
        fh: Iterable[str] = io.StringIO(text)
        origin = "<packaged>"
    else:
        fh = open(path, newline="", encoding="utf-8")
        origin = str(path)
    try:
        reader = csv.DictReader(fh)
        missing = set(CLASS_TABLE_COLUMNS) - set(reader.fieldnames or ())
        if missing:
            raise FeedFormatError(f"{origin}: class table missing {sorted(missing)}")
        rows = [
            VehicleClassRow(
                l100km_min=float(r["l100km_min"]),
                l100km_max=float(r["l100km_max"]),
                l100km_med=float(r["l100km_med"]),
                vehicle_class=int(r["vehicle_class"]),
            )
            for r in reader
        ]
    finally:
        if path is not None:
            fh.close()  # type: ignore[union-attr]
    rows.sort(key=lambda r: r.vehicle_class)
    if not rows:
        raise FeedFormatError(f"{origin}: class table is empty")
    return rows


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


CATALOG_COLUMNS = ("make", "model", "year", "fuel_type", "route_type", "l_per_100km")


class CatalogTable:
    """Catalog fuel references; duplicate entries collapse to their median."""

    def __init__(self, refs: Iterable[CatalogReference]):
        buckets: dict[tuple, list[float]] = {}
        for ref in refs:
            if not ref.l_per_100km > 0:
                raise FeedFormatError(
                    f"catalog fuel must be positive, got {ref.l_per_100km}"
                )
            key = (ref.make, ref.model, ref.year, ref.fuel_type, ref.route_type)
            buckets.setdefault(key, []).append(ref.l_per_100km)
        self._median = {key: median(vals) for key, vals in buckets.items()}

    @classmethod
    def from_csv(cls, path: str | Path) -> "CatalogTable":
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            missing = set(CATALOG_COLUMNS) - set(reader.fieldnames or ())
            if missing:
                raise FeedFormatError(
                    f"{path}: catalog is missing columns {sorted(missing)}"
                )
            refs = [
                CatalogReference(
                    make=r["make"].strip(),
                    model=r["model"].strip(),
                    year=r["year"].strip(),
                    fuel_type=r["fuel_type"].strip(),
                    route_type=r["route_type"].strip(),
                    l_per_100km=float(r["l_per_100km"]),
                )
                for r in reader
            ]
        return cls(refs)

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


SOTA_COLUMNS = ("category", "subcategory", "min_pct", "max_pct")


def load_sota_limits(path: str | Path | None = None) -> dict[tuple[str, str], SotaLimit]:
    """Literature impact limits per (category, subcategory), in percent."""
    if path is None:
        fh: Iterable[str] = io.StringIO(_load_data("sota_limits.csv"))
        origin = "<packaged>"
    else:
        fh = open(path, newline="", encoding="utf-8")
        origin = str(path)
    try:
        reader = csv.DictReader(fh)
        missing = set(SOTA_COLUMNS) - set(reader.fieldnames or ())
        if missing:
            raise FeedFormatError(f"{origin}: limits table missing {sorted(missing)}")
        out = {}
        for r in reader:
            lim = SotaLimit(
                category=r["category"].strip(),
                subcategory=r["subcategory"].strip(),
                min_pct=float(r["min_pct"]),
                max_pct=float(r["max_pct"]),
            )
            out[(lim.category, lim.subcategory)] = lim
    finally:
        if path is not None:
            fh.close()  # type: ignore[union-attr]
    return out
