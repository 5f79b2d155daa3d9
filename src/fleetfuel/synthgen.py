"""Deterministic synthetic fleet with planted additive ground truth.

Generates a raw telemetry feed (exactly the ingest format) plus truth
tables carrying, for every vehicle-day, the planted per-feature fuel
contributions, the noise term, the outlier designation and the realized
saving of each feature against its reference.  Feature-to-fuel maps are
step functions, so a binned learner can recover them exactly and any
recovery error is attributable to the trainer.

Exactness: trip distances are chosen so that distance/100 is a power of
two, emitted readings are repr round-trips, and each day's fuel is nudged
(at most 1 ulp) to a float that survives the fuel/kms*100 round trip.
The truth tables therefore match the ingested records bit for bit.

Outlier days are cause-driven: designated days have their driver features
raised into top step segments, one driver at a time, until the day's fuel
reaches the clean Q3 plus the configured multiple of the clean IQR for
its (group, route) cell.  The model can learn those top segments from the
small share of ordinary days that visit them individually.

Draw order: each vehicle has its own generator, and each of its days
draws, in this order, one double for the route, one integer for the trip
distance, one block of doubles (the city-time share, then one per feature,
two for a feature with a ``top_fraction``: the segment, then the value),
one normal for the noise and one double for the outlier designation.
This order reproduces the scalar calls of earlier versions, route
``choice(p=...)``, distance ``choice(kms)``, city share and feature
``uniform`` (after a ``random()`` for the segment), bit for bit: they make
the same calls underneath.  A route is ``bisect_right`` on the cdf
``choice(p=...)`` builds, a distance ``kms[integers(0, len(kms))]``, and a
uniform on [a, b] is ``a + (b - a) * u`` in float arithmetic.  NumPy does
not freeze its streams across versions, so the tests pin these
equalities.  Outlier boosts draw after every day is drawn, with scalar
``uniform`` calls on the planted day's vehicle generator.

Cost: a planted step is looked up with ``bisect_right`` on the feature's
cuts, the segment ``np.searchsorted(..., side="right")`` picks, and each
(group, route) cell's reference contributions are looked up once.  The
feed and truth tables format each distinct cell once (a date, a vehicle,
a channel or feature, a group) and each number by its ``repr``, so their
bytes are those ``write_table`` writes for their rows.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import asdict, dataclass, field
from datetime import date as date_type, timedelta
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .anomaly import quartiles
from .errors import DataError, FeedFormatError
from .ingest import (
    CITY_TIME_CHANNEL,
    FEED_COLUMNS,
    ROUTE_CITY,
    ROUTE_COMBINED,
    ROUTE_HIGHWAY,
    TRIP_FUEL_CHANNEL,
    TRIP_KMS_CHANNEL,
    compute_avg_fuel,
)
from .registry import (
    AGGREGATORS, VIN_MAP_COLUMNS, CatalogReference, artifact_file, csv_fields, fits, median, read_json_object,
    table_columns, write_table,
)

# distances whose /100 factor is a power of two, keyed by route type
ROUTE_KMS = {
    ROUTE_CITY: (25.0,),
    ROUTE_COMBINED: (25.0, 50.0),
    ROUTE_HIGHWAY: (50.0, 100.0, 200.0),
}
ROUTE_PTC = {
    ROUTE_CITY: (0.66, 0.95),
    ROUTE_COMBINED: (0.52, 0.63),
    ROUTE_HIGHWAY: (0.05, 0.49),
}


def _span(a: float, b: float) -> tuple[float, float]:
    """The start and width of a uniform draw on [a, b], in doubles as ``Generator.uniform(a, b)`` takes them."""
    return float(a), float(b) - float(a)


@dataclass(frozen=True)
class SynthFeature:
    """One planted feature: sampling range and step-function fuel map."""

    name: str
    low: float
    high: float
    cuts: tuple[float, ...]
    values: tuple[float, ...]
    aggregator: str = "mean"
    integer: bool = False
    top_fraction: float = 0.0
    driver: bool = False
    reference_zero: bool = False

    def __post_init__(self):
        if len(self.values) != len(self.cuts) + 1:
            raise DataError(f"feature {self.name}: need one value per segment")
        if not all(map(math.isfinite, (self.low, self.high, *self.cuts, *self.values))):
            raise DataError(f"feature {self.name}: low, high, cuts and values must be finite")
        if list(self.cuts) != sorted(self.cuts):
            raise DataError(f"feature {self.name}: cuts must be ascending")
        if self.low > self.high:
            raise DataError(f"feature {self.name}: low {self.low!r} is above high {self.high!r}")
        if not 0.0 <= self.top_fraction <= 1.0:
            raise DataError(f"feature {self.name}: top_fraction out of range")
        if self.driver and not self.cuts:
            raise DataError(f"feature {self.name}: a driver feature needs a top step, so at least one cut")
        if self.aggregator not in AGGREGATORS:
            raise DataError(f"feature {self.name}: aggregator {self.aggregator!r} is not one of {AGGREGATORS}")
        # the ranges drawn over: a top fraction splits [low, high] at the top cut, and boosts draw above it
        drawn = [(self.low, self.high)]
        if self.top_fraction > 0:
            drawn.append((self.low, self.top_cut))
        if self.top_fraction > 0 or self.driver:
            drawn.append((self.top_cut, self.high))
        for a, b in drawn:
            width = _span(a, b)[1]
            if not 0 <= width < math.inf:
                raise DataError(f"feature {self.name}: cannot draw uniformly from {a!r} to {b!r}, a width of {width!r}")

    @property
    def top_cut(self) -> float:
        """Where the top segment starts: the last cut, or low without cuts."""
        return self.cuts[-1] if self.cuts else self.low

    def contribution(self, x: float) -> float:
        """The planted step at x: the segment np.searchsorted(cuts, x, side="right") picks, NaN and ±0.0 included."""
        return self.values[bisect_right(self.cuts, x)]


@dataclass(frozen=True)
class SynthGroup:
    make: str
    model: str
    year: str
    fuel_type: str
    base_fuel: float
    weight: float = 1.0

    def __post_init__(self):
        if not 0 < self.base_fuel < math.inf:
            raise DataError("base_fuel must be positive and finite")
        if not 0 <= self.weight < math.inf:
            raise DataError("weight must be non-negative and finite")


@dataclass
class SynthSpec:
    seed: int = 0
    n_vehicles: int = 250
    n_days: int = 20
    start_date: str = "2021-01-01"
    groups: list[SynthGroup] = field(default_factory=list)
    features: list[SynthFeature] = field(default_factory=list)
    noise_sigma: float = 0.25
    outlier_rate: float = 0.03
    outlier_magnitude_iqr: float = 3.5
    route_mix: dict[str, float] = field(
        default_factory=lambda: {"city": 0.3, "combined": 0.3, "highway": 0.4}
    )
    unmatched_fraction: float = 0.0

    def __post_init__(self):
        self.check()

    def check(self) -> None:
        """Raise DataError for a value the generator cannot turn into the fleet it describes.

        The groups and features check their own fields when built; this
        checks the spec's scalars and what holds across its groups, features
        and routes.  ``generate`` runs it again, as a spec's fields may be
        reassigned after construction.
        """
        if not self.seed >= 0:
            raise DataError(f"seed must be non-negative, got {self.seed}")
        if not (self.n_vehicles >= 1 and self.n_days >= 1):
            raise DataError(f"n_vehicles and n_days must be at least 1, got {self.n_vehicles} and {self.n_days}")
        try:
            date_type.fromisoformat(self.start_date)
        except (TypeError, ValueError) as exc:
            raise DataError(f"start_date {self.start_date!r} is not an ISO date") from exc
        if not self.groups or not self.features:
            raise DataError("spec needs at least one group and one feature")
        if not sum(g.weight for g in self.groups) > 0:
            raise DataError("the group weights must not all be zero")
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            raise DataError(f"duplicate feature name {next(n for n in names if names.count(n) > 1)!r}")
        unknown = set(self.route_mix) - set(ROUTE_KMS)
        if unknown:
            raise DataError(f"route_mix: unknown route {sorted(unknown)[0]!r}, expected one of {sorted(ROUTE_KMS)}")
        if not all(0 <= w < math.inf for w in self.route_mix.values()) or not sum(self.route_mix.values()) > 0:
            raise DataError(f"route_mix weights must be non-negative, finite and not all zero, got {self.route_mix}")
        if not 0 <= self.noise_sigma < math.inf:
            raise DataError("noise_sigma must be non-negative and finite")
        if not math.isfinite(self.outlier_magnitude_iqr):
            raise DataError("outlier_magnitude_iqr must be finite")
        if not 0.0 <= self.outlier_rate <= 1.0:
            raise DataError("outlier_rate must be in [0, 1]")
        if not 0.0 <= self.unmatched_fraction <= 1.0:
            raise DataError("unmatched_fraction must be in [0, 1]")

    def to_json(self, path: str | Path) -> None:
        with artifact_file(path) as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def from_json(cls, path: str | Path) -> "SynthSpec":
        """The spec ``to_json`` wrote; a spec that cannot be built raises FeedFormatError naming the file."""
        payload = read_json_object(path, "synth spec")
        try:
            payload["groups"] = [SynthGroup(**_typed(SynthGroup, g)) for g in payload.get("groups", [])]
            payload["features"] = [
                SynthFeature(**{**_typed(SynthFeature, f), "cuts": tuple(f["cuts"]), "values": tuple(f["values"])})
                for f in payload.get("features", [])
            ]
            return cls(**_typed(cls, payload))
        except (TypeError, KeyError, AttributeError, DataError) as exc:
            raise FeedFormatError(f"{path}: bad synth spec: {exc}") from exc


# fields of numbers, with the JSON container that holds them
_NUMBERS = {tuple[float, ...]: list, dict[str, float]: dict}


def _typed(row_type: type, payload: dict) -> dict:
    """``payload`` if each value, or each number of a list or map, has its field's type; else DataError."""
    hints = get_type_hints(row_type)
    for name, value in payload.items():
        kind = hints.get(name)
        container = _NUMBERS.get(kind)
        if container is not None:
            numbers = value.values() if isinstance(value, dict) else value
            ok = fits(value, container) and all(fits(x, float) for x in numbers)
        else:
            ok = kind not in (int, float, str, bool) or fits(value, kind)
        if not ok:
            raise DataError(f"{name!r} must be {kind if container else kind.__name__}, got {value!r}")
    return payload


def default_spec(seed: int = 0, n_vehicles: int = 250, n_days: int = 20, **overrides) -> SynthSpec:
    """Reference fleet: four vehicle groups, twelve planted features."""
    groups = [
        SynthGroup("Aurora", "Vanta", "2018", "diesel", 8.0, 3),
        SynthGroup("Aurora", "Crest", "2019", "diesel", 9.5, 3),
        SynthGroup("Borealis", "Haul 250", "2017", "diesel", 11.5, 2),
        SynthGroup("Borealis", "Titan", "2016", "diesel", 14.0, 2),
    ]
    features = [
        SynthFeature("rpm_high", 0, 200, (40, 80, 150), (0.0, 0.25, 0.5, 2.0), "sum",
                     integer=True, top_fraction=0.015, driver=True, reference_zero=True),
        SynthFeature("count_jackrabbit", 0, 30, (5, 12, 22), (0.0, 0.2, 0.4, 1.8), "sum",
                     integer=True, top_fraction=0.015, driver=True, reference_zero=True),
        SynthFeature("count_harsh_turns", 0, 25, (6, 14, 20), (0.0, 0.15, 0.35, 1.7), "sum",
                     integer=True, top_fraction=0.015, driver=True, reference_zero=True),
        SynthFeature("time_idling", 0, 3600, (600, 1500, 2800), (0.0, 0.2, 0.45, 1.9), "sum",
                     integer=True, top_fraction=0.015, driver=True, reference_zero=True),
        SynthFeature("rpm_red", 0, 60, (15, 35), (0.0, 0.15, 0.3), "sum",
                     integer=True, reference_zero=True),
        SynthFeature("rpm_yellow", 0, 80, (25, 55), (0.0, 0.1, 0.25), "sum",
                     integer=True, reference_zero=True),
        SynthFeature("rpm_orange", 0, 70, (20, 45), (0.0, 0.1, 0.3), "sum",
                     integer=True, reference_zero=True),
        SynthFeature("count_speed_limit_90", 0, 200, (40, 120), (0.0, 0.15, 0.4), "sum",
                     integer=True),
        SynthFeature("mean_speed_hwy", 60, 130, (90, 110), (0.0, 0.3, 0.6), "mean"),
        SynthFeature("mean_forward_acc", 0.2, 4.0, (1.5, 2.8), (0.0, 0.2, 0.5), "mean"),
        SynthFeature("mean_side_to_side_acc", 0.1, 2.0, (0.9,), (0.0, 0.25), "mean"),
        SynthFeature("mean_exterior_temp", 262, 310, (275, 290), (0.5, 0.2, 0.0), "mean"),
    ]
    fleet = {"groups": groups, "features": features, **overrides}
    return SynthSpec(seed=seed, n_vehicles=n_vehicles, n_days=n_days, **fleet)


def _snap_roundtrip(f: float) -> float:
    """Nearest float surviving f -> f/100*100, at most 1 ulp away."""
    for _ in range(8):
        g = f / 100.0 * 100.0
        if g == f:
            return f
        f = g
    raise DataError(f"value {f!r} does not stabilize under the fuel round trip")


@dataclass
class TruthDay:
    """Ground truth for one generated vehicle-day."""

    vehicle_id: str
    date: date_type
    synth_group: int
    make: str
    model: str
    year: str
    fuel_type: str
    route_type: str
    trip_kms: float
    per_time_city: float
    fuel_l100: float
    clean_fuel_l100: float
    planted_outlier: bool
    boost_added: float
    base_fuel: float
    noise_residual: float
    feature_values: dict[str, float]
    contributions: dict[str, float]


@dataclass
class GeneratedFleet:
    feed_path: Path
    vin_map_path: Path
    catalog_path: Path
    truth_days_path: Path
    truth_savings_path: Path
    days: list[TruthDay]


def _group_counts(spec: SynthSpec) -> list[int]:
    weights = np.asarray([g.weight for g in spec.groups], dtype=np.float64)
    shares = weights / weights.sum()
    counts = np.floor(shares * spec.n_vehicles).astype(int)
    for i in range(spec.n_vehicles - counts.sum()):
        counts[i % len(counts)] += 1
    return counts.tolist()


def _route_cdf(route_mix: dict[str, float]) -> tuple[list[str], list[float]]:
    """The routes in name order, and the cdf ``Generator.choice(len(routes), p=...)`` searches with one double."""
    routes = sorted(route_mix)
    probs = np.asarray([route_mix[r] for r in routes], dtype=np.float64)
    cdf = (probs / probs.sum()).cumsum()
    cdf /= cdf[-1]
    return routes, cdf.tolist()


def generate(spec: SynthSpec, out_dir: str | Path) -> GeneratedFleet:
    """Generate the feed and truth tables into out_dir.

    Deterministic in the spec (byte-identical files for equal specs);
    vehicles draw from independent sub-seeds in vehicle order.
    """
    spec.check()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    start = date_type.fromisoformat(spec.start_date)
    dates = [start + timedelta(days=i) for i in range(spec.n_days)]
    routes, route_cdf = _route_cdf(spec.route_mix)
    ptc_spans = {route: _span(*ROUTE_PTC[route]) for route in routes}
    # per feature: its ranges below and above the top cut if it has a top fraction, else its whole range twice
    draws = []
    for f in spec.features:
        if f.top_fraction > 0:
            lower, top = _span(f.low, f.top_cut), _span(f.top_cut, f.high)
        else:
            lower = top = _span(f.low, f.high)
        draws.append((f.name, f.top_fraction, lower, top, f.integer, f.low, f.high, f.contribution))
    n_doubles = 1 + sum(2 if f.top_fraction > 0 else 1 for f in spec.features)

    counts = _group_counts(spec)
    vehicle_group: list[int] = []
    vehicle_ids: list[str] = []
    serial = 0
    for g, count in enumerate(counts):
        for k in range(count):
            vehicle_group.append(g)
            vehicle_ids.append(f"VG{g:02d}-{serial:04d}")
            serial += 1
    n_unmatched = int(round(spec.unmatched_fraction * spec.n_vehicles))
    for i in range(n_unmatched):
        v = spec.n_vehicles - 1 - i
        vehicle_ids[v] = f"XV-{v:04d}"

    seeds = np.random.SeedSequence(spec.seed).spawn(spec.n_vehicles)
    rngs = [np.random.default_rng(s) for s in seeds]

    days: list[TruthDay] = []
    for v in range(spec.n_vehicles):
        random, integers, normal = rngs[v].random, rngs[v].integers, rngs[v].normal
        group = spec.groups[vehicle_group[v]]
        for day in dates:
            route = routes[bisect_right(route_cdf, random())]
            route_kms = ROUTE_KMS[route]
            kms = route_kms[integers(0, len(route_kms))]
            u = random(n_doubles).tolist()
            ptc_start, ptc_width = ptc_spans[route]
            ptc = ptc_start + ptc_width * u[0]
            values: dict[str, float] = {}
            contribs: dict[str, float] = {}
            i = 1
            for name, top_fraction, lower, top, integer, low, high, contribution in draws:
                if top_fraction > 0:
                    start, width = top if u[i] < top_fraction else lower
                    i += 1
                else:
                    start, width = lower
                value = start + width * u[i]
                i += 1
                if integer:
                    value = float(round(value))
                values[name] = value = min(max(value, low), high)
                contribs[name] = contribution(value)
            noise = float(normal(0.0, spec.noise_sigma)) if spec.noise_sigma else 0.0
            planted = random() < spec.outlier_rate
            planted_sum = 0.0
            for contrib in contribs.values():  # left to right: from Python 3.12, sum() compensates
                planted_sum += contrib
            clean = _snap_roundtrip(group.base_fuel + planted_sum + noise)
            days.append(
                TruthDay(
                    vehicle_id=vehicle_ids[v],
                    date=day,
                    synth_group=vehicle_group[v],
                    make=group.make,
                    model=group.model,
                    year=group.year,
                    fuel_type=group.fuel_type,
                    route_type=route,
                    trip_kms=kms,
                    per_time_city=ptc,
                    fuel_l100=clean,
                    clean_fuel_l100=clean,
                    planted_outlier=planted,
                    boost_added=0.0,
                    base_fuel=group.base_fuel,
                    noise_residual=0.0,
                    feature_values=values,
                    contributions=contribs,
                )
            )

    _apply_outlier_boosts(spec, days, vehicle_ids, rngs)

    for d in days:
        partial = d.base_fuel
        for f in spec.features:
            partial += d.contributions[f.name]
        d.noise_residual = d.fuel_l100 - partial

    feed_path = out / "feed.csv"
    _write_feed(spec, days, feed_path)
    vin_map_path = out / "vin_map.csv"
    _write_vin_map(spec, vin_map_path)
    catalog_path = out / "catalog.csv"
    _write_catalog(spec, days, catalog_path)
    truth_days_path = out / "truth_days.csv"
    _write_truth_days(spec, days, truth_days_path)
    truth_savings_path = out / "truth_savings.csv"
    _write_truth_savings(spec, days, truth_savings_path)
    return GeneratedFleet(
        feed_path=feed_path,
        vin_map_path=vin_map_path,
        catalog_path=catalog_path,
        truth_days_path=truth_days_path,
        truth_savings_path=truth_savings_path,
        days=days,
    )


def _apply_outlier_boosts(
    spec: SynthSpec,
    days: list[TruthDay],
    vehicle_ids: list[str],
    rngs: list[np.random.Generator],
) -> None:
    """Raise designated days to clean Q3 + magnitude * IQR via driver features."""
    drivers = [f for f in spec.features if f.driver]
    if not drivers or spec.outlier_rate == 0:
        for d in days:
            d.planted_outlier = False
        return

    bars: dict[tuple[int, str], float] = {}
    by_cell: dict[tuple[int, str], list[float]] = {}
    for d in days:
        by_cell.setdefault((d.synth_group, d.route_type), []).append(d.clean_fuel_l100)
    for cell, values in by_cell.items():
        if len(values) >= 4:
            q1, q3 = quartiles(values)
            # aim a quarter-IQR past the bar so borderline days clear it
            bars[cell] = q3 + (spec.outlier_magnitude_iqr + 0.25) * (q3 - q1)

    rng_by_vehicle = {vid: rngs[i] for i, vid in enumerate(vehicle_ids)}
    for d in days:
        if not d.planted_outlier:
            continue
        bar = bars.get((d.synth_group, d.route_type))
        if bar is None:
            d.planted_outlier = False
            continue
        rng = rng_by_vehicle[d.vehicle_id]
        needed = bar - d.clean_fuel_l100
        added = 0.0
        for feat in drivers:
            if added >= needed:
                break
            top_cut = feat.top_cut
            if d.feature_values[feat.name] >= top_cut:
                continue
            new_value = float(rng.uniform(top_cut, feat.high))
            if feat.integer:
                new_value = float(int(round(new_value)))
            new_value = min(max(new_value, top_cut), feat.high)
            gain = feat.contribution(new_value) - d.contributions[feat.name]
            d.feature_values[feat.name] = new_value
            d.contributions[feat.name] = feat.contribution(new_value)
            added += gain
        d.boost_added = added
        d.fuel_l100 = _snap_roundtrip(d.clean_fuel_l100 + added)


def _write_feed(spec: SynthSpec, days: list[TruthDay], path: Path) -> None:
    """Two half-readings per sum channel, two equal readings per other channel, one of the city-time share.

    The bytes are those ``write_table`` writes for the rows (time, vehicle,
    channel, value).  A channel's readings on a day share its value and its
    minute (the channel's position mod 60), at 08:00 and 16:00.  So each
    date's lines are one ``str.format`` template with the vehicle cell as
    field 0 and one value per channel after it: the stamps and the channel
    cells are formatted once per date, each vehicle cell once, and the
    values, always Python floats, by ``float.__repr__`` as csv.writer does.
    """
    channels = [(TRIP_KMS_CHANNEL, 2), (TRIP_FUEL_CHANNEL, 2), (CITY_TIME_CHANNEL, 1)]
    channels += [(f.name, 2) for f in spec.features]
    halves = [f.aggregator == "sum" for f in spec.features]
    # a brace in a channel name is literal text of the templates
    names = [csv_fields([name]).replace("{", "{{").replace("}", "}}") for name, _ in channels]

    def template(day: date_type) -> str:
        stamps = (f"{day.isoformat()} 08:%02d:00+00:00", f"{day.isoformat()} 16:%02d:00+00:00")
        return "".join(
            f"{stamp % (idx % 60)},{{0}},{name},{{{idx + 1}}}\n"
            for idx, (name, (_, readings)) in enumerate(zip(names, channels))
            for stamp in stamps[:readings]
        )

    templates = {day: template(day) for day in {d.date for d in days}}
    vehicles, _ = _cells(days)
    with artifact_file(path) as fh:
        fh.write(csv_fields(FEED_COLUMNS) + "\n")
        for d in days:
            fuel_used = d.fuel_l100 * (d.trip_kms / 100.0)
            check = compute_avg_fuel(fuel_used, d.trip_kms)
            if check != d.fuel_l100:
                raise DataError(
                    f"round-trip drift on {d.vehicle_id}/{d.date}: {check!r} != {d.fuel_l100!r}"
                )
            values = [d.trip_kms / 2.0, fuel_used / 2.0, d.per_time_city]
            values += [v / 2.0 if half else v for v, half in zip(d.feature_values.values(), halves)]
            fh.write(templates[d.date].format(vehicles[d.vehicle_id], *map(float.__repr__, values)))


def _write_vin_map(spec: SynthSpec, path: Path) -> None:
    rows = ((f"VG{g:02d}", grp.make, grp.model, grp.year, grp.fuel_type) for g, grp in enumerate(spec.groups))
    write_table(path, VIN_MAP_COLUMNS, rows)


def _write_catalog(spec: SynthSpec, days: list[TruthDay], path: Path) -> None:
    """Catalog fuel = median clean fuel per identity and route, twice with jitter."""
    cells: dict[tuple, list[float]] = {}
    for d in days:
        if not d.planted_outlier:
            key = (d.make, d.model, d.year, d.fuel_type, d.route_type)
            cells.setdefault(key, []).append(d.clean_fuel_l100)
    rows = ((*key, median(cells[key]) + jitter) for key in sorted(cells) for jitter in (-0.1, 0.1))
    write_table(path, table_columns(CatalogReference), rows)


def _cells(days: list[TruthDay]) -> tuple[dict[str, str], dict[date_type, str]]:
    """Each vehicle's and each date's csv cell, formatted once."""
    vehicles = {vid: csv_fields([vid]) for vid in {d.vehicle_id for d in days}}
    dates = {day: csv_fields([day.isoformat()]) for day in {d.date for d in days}}
    return vehicles, dates


def _write_truth_days(spec: SynthSpec, days: list[TruthDay], path: Path) -> None:
    """The fields but the two dicts (the bool as 0/1), then each feature's value, then its contribution.

    The bytes are those ``write_table`` writes for the rows: the text cells
    are formatted once each, and the numbers by ``repr``, as csv.writer
    formats a float or an int.
    """
    feature_names = [f.name for f in spec.features]
    fixed = table_columns(TruthDay)[:-2]
    header = [*fixed, *(f"value_{n}" for n in feature_names), *(f"contrib_{n}" for n in feature_names)]
    vehicles, dates = _cells(days)
    groups = [csv_fields([str(g), grp.make, grp.model, grp.year, grp.fuel_type]) for g, grp in enumerate(spec.groups)]
    routes = {route: csv_fields([route]) for route in ROUTE_KMS}
    with artifact_file(path) as fh:
        fh.write(csv_fields(header) + "\n")
        for d in days:
            numbers = (
                d.trip_kms, d.per_time_city, d.fuel_l100, d.clean_fuel_l100, int(d.planted_outlier), d.boost_added,
                d.base_fuel, d.noise_residual, *d.feature_values.values(), *d.contributions.values(),
            )
            head = f"{vehicles[d.vehicle_id]},{dates[d.date]},{groups[d.synth_group]},{routes[d.route_type]},"
            fh.write(head + ",".join(map(repr, numbers)) + "\n")


def _write_truth_savings(spec: SynthSpec, days: list[TruthDay], path: Path) -> None:
    """True per-feature saving vs reference for every generated day.

    Reference is zero for reference-zero features, otherwise the median of
    the feature over the clean (non-planted) days of the same group and
    route.
    """
    # each (group, route) cell's clean days, then its reference contribution per feature, looked up once
    clean: dict[tuple[int, str], list[dict[str, float]]] = {}
    for d in days:
        cell = clean.setdefault((d.synth_group, d.route_type), [])
        if not d.planted_outlier:
            cell.append(d.feature_values)
    references = {
        cell: [
            f.contribution(0.0 if f.reference_zero or not rows else median([r[f.name] for r in rows]))
            for f in spec.features
        ]
        for cell, rows in clean.items()
    }

    # one line per positive saving, written as write_table writes the rows (vehicle, date, feature, saving)
    vehicles, dates = _cells(days)
    features = [csv_fields([f.name]) for f in spec.features]
    with artifact_file(path) as fh:
        fh.write(csv_fields(("vehicle_id", "date", "feature", "true_saving")) + "\n")
        for d in days:
            head = f"{vehicles[d.vehicle_id]},{dates[d.date]},"
            cells = zip(features, d.contributions.values(), references[(d.synth_group, d.route_type)])
            fh.write("".join(f"{head}{feature},{saving!r}\n" for feature, contrib, ref in cells
                             if (saving := contrib - ref) > 0))

