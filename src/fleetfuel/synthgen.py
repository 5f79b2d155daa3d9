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

Cost: the generator calls stay per day, and the arithmetic on their
doubles runs on columns, one numpy pass per feature over a batch of whole
vehicles' days.  The pass makes the float operations of a per-day draw
(``start + width * u``, ``np.round``, a clamp to the bounds' doubles) and
finds the planted step with ``np.searchsorted(..., side="right")``, as
``SynthFeature.contribution`` does, so each value and step is the one a
per-day draw gives.  Equal integer values share one float.  Each (group,
route) cell's reference contributions are looked up once.  The feed and
truth tables format each distinct text cell once (a date, a vehicle, a
channel or feature, a group), each step value once, a feature's saving
line once per (reference, step), each distinct feature value and sum
half-reading once over the fleet, the city-time share once for both files
that write it, and every other number by its ``repr``; so their bytes are
those ``write_table`` writes for their rows.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from datetime import date as date_type, timedelta
from pathlib import Path
from typing import NamedTuple, Sequence, get_type_hints

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
    AGGREGATORS, VIN_MAP_COLUMNS, CatalogReference, FloatReprs, Record, artifact_file, csv_fields, fits, jsonable,
    median, read_json_object, table_columns, write_table,
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


#: vehicle-days per column pass, in whole vehicles: its scratch arrays stay small beside the fleet it draws
DRAW_BATCH_DAYS = 512


def _span(a: float, b: float) -> tuple[float, float]:
    """The start and width of a uniform draw on [a, b], in doubles as ``Generator.uniform(a, b)`` takes them."""
    return float(a), float(b) - float(a)


class _SynthFeatureFields(NamedTuple):
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


class SynthFeature(_SynthFeatureFields):
    """One planted feature: sampling range and step-function fuel map."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
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
        return self

    @property
    def top_cut(self) -> float:
        """Where the top segment starts: the last cut, or low without cuts."""
        return self.cuts[-1] if self.cuts else self.low

    def contribution(self, x: float) -> float:
        """The planted step at x: the segment np.searchsorted(cuts, x, side="right") picks, NaN and ±0.0 included."""
        return self.values[bisect_right(self.cuts, x)]


class _SynthGroupFields(NamedTuple):
    make: str
    model: str
    year: str
    fuel_type: str
    base_fuel: float
    weight: float = 1.0


class SynthGroup(_SynthGroupFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 0 < self.base_fuel < math.inf:
            raise DataError("base_fuel must be positive and finite")
        if not 0 <= self.weight < math.inf:
            raise DataError("weight must be non-negative and finite")
        return self


#: the default route mix; a spec holds its own copy
ROUTE_MIX = {"city": 0.3, "combined": 0.3, "highway": 0.4}


class SynthSpec(Record):
    """A fleet to generate; ``check`` runs when it is built and again in ``generate``."""

    def __init__(self, seed: int = 0, n_vehicles: int = 250, n_days: int = 20, start_date: str = "2021-01-01",
                 groups: Sequence[SynthGroup] = (), features: Sequence[SynthFeature] = (), noise_sigma: float = 0.25,
                 outlier_rate: float = 0.03, outlier_magnitude_iqr: float = 3.5,
                 route_mix: dict[str, float] = ROUTE_MIX, unmatched_fraction: float = 0.0):
        self.seed = seed
        self.n_vehicles = n_vehicles
        self.n_days = n_days
        self.start_date = start_date
        self.groups = list(groups)
        self.features = list(features)
        self.noise_sigma = noise_sigma
        self.outlier_rate = outlier_rate
        self.outlier_magnitude_iqr = outlier_magnitude_iqr
        self.route_mix = dict(route_mix)
        self.unmatched_fraction = unmatched_fraction
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
            json.dump(jsonable(vars(self)), fh, indent=2, sort_keys=True)
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
            return cls(**_typed(cls.__init__, payload))
        except (TypeError, KeyError, AttributeError, DataError) as exc:
            raise FeedFormatError(f"{path}: bad synth spec: {exc}") from exc


# fields of numbers, with the JSON container that holds them
_NUMBERS = {tuple[float, ...]: list, dict[str, float]: dict}


def _typed(annotated, payload: dict) -> dict:
    """``payload`` if each value, or each number of a list or map, has its field's type; else DataError.

    The types are the annotations of ``annotated``: a NamedTuple's fields, or a constructor's parameters.
    """
    hints = get_type_hints(annotated)
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


class TruthDay:
    """Ground truth for one generated vehicle-day; its attributes, in ``_fields`` order, are the truth columns.

    The outlier boosts and the noise residual are set after the draw.
    """

    _fields = ("vehicle_id", "date", "synth_group", "make", "model", "year", "fuel_type", "route_type", "trip_kms",
               "per_time_city", "fuel_l100", "clean_fuel_l100", "planted_outlier", "boost_added", "base_fuel",
               "noise_residual", "feature_values", "contributions")

    def __init__(self, vehicle_id: str, date: date_type, synth_group: int, make: str, model: str, year: str,
                 fuel_type: str, route_type: str, trip_kms: float, per_time_city: float, fuel_l100: float,
                 clean_fuel_l100: float, planted_outlier: bool, boost_added: float, base_fuel: float,
                 noise_residual: float, feature_values: dict[str, float], contributions: dict[str, float]):
        self.vehicle_id = vehicle_id
        self.date = date
        self.synth_group = synth_group
        self.make = make
        self.model = model
        self.year = year
        self.fuel_type = fuel_type
        self.route_type = route_type
        self.trip_kms = trip_kms
        self.per_time_city = per_time_city
        self.fuel_l100 = fuel_l100
        self.clean_fuel_l100 = clean_fuel_l100
        self.planted_outlier = planted_outlier
        self.boost_added = boost_added
        self.base_fuel = base_fuel
        self.noise_residual = noise_residual
        self.feature_values = feature_values
        self.contributions = contributions


class GeneratedFleet(NamedTuple):
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
    per_batch = max(1, DRAW_BATCH_DAYS // spec.n_days)
    for v in range(0, spec.n_vehicles, per_batch):
        batch = slice(v, v + per_batch)
        days += _draw_days(spec, dates, vehicle_ids[batch], vehicle_group[batch], rngs[batch])

    _apply_outlier_boosts(spec, days, vehicle_ids, rngs)

    for d in days:
        partial = d.base_fuel
        for contrib in d.contributions.values():  # in the spec's feature order
            partial += contrib
        d.noise_residual = d.fuel_l100 - partial

    feed_path = out / "feed.csv"
    truth_days_path = out / "truth_days.csv"
    _write_feed_and_truth_days(spec, days, feed_path, truth_days_path)
    vin_map_path = out / "vin_map.csv"
    _write_vin_map(spec, vin_map_path)
    catalog_path = out / "catalog.csv"
    _write_catalog(spec, days, catalog_path)
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


def _draw_days(spec: SynthSpec, dates: list[date_type], vehicle_ids: list[str], vehicle_group: list[int],
               rngs: list[np.random.Generator]) -> list[TruthDay]:
    """The vehicles' days, vehicle by vehicle and date by date, before the outlier boosts.

    Each day makes its generator calls in the module docstring's order, its
    block of doubles going into one row of a matrix.  The arithmetic on the
    doubles then runs one feature at a time over all the days, with the
    float operations a per-day draw makes: ``start + width * u``, rounding,
    clamping and the step lookup.  The days' dicts are filled one feature at
    a time, and the matrix is freed before the days are built.
    """
    routes, route_cdf = _route_cdf(spec.route_mix)
    n = len(rngs) * len(dates)
    values: list[dict[str, float]] = [{} for _ in range(n)]
    contribs: list[dict[str, float]] = [{} for _ in range(n)]
    blocks = np.empty((n, 1 + sum(2 if f.top_fraction > 0 else 1 for f in spec.features)))
    route_of: list[int] = []
    kms: list[float] = []
    noise: list[float] = []
    planted: list[bool] = []
    for v, rng in enumerate(rngs):
        random, integers, normal = rng.random, rng.integers, rng.normal
        for k in range(v * len(dates), (v + 1) * len(dates)):
            r = bisect_right(route_cdf, random())
            route_kms = ROUTE_KMS[routes[r]]
            route_of.append(r)
            kms.append(route_kms[integers(0, len(route_kms))])
            random(out=blocks[k])
            noise.append(float(normal(0.0, spec.noise_sigma)) if spec.noise_sigma else 0.0)
            planted.append(random() < spec.outlier_rate)

    day_route = np.asarray(route_of)
    ptc_start, ptc_width = np.asarray([_span(*ROUTE_PTC[route]) for route in routes]).T
    ptc = (ptc_start[day_route] + ptc_width[day_route] * blocks[:, 0]).tolist()
    planted_sum = np.zeros(n)
    i = 1
    for f in spec.features:
        # a top fraction draws a segment, then the value below or above the top cut
        start, width = _span(f.low, f.top_cut if f.top_fraction > 0 else f.high)
        if f.top_fraction > 0:
            top = blocks[:, i] < f.top_fraction
            top_start, top_width = _span(f.top_cut, f.high)
            start, width = np.where(top, top_start, start), np.where(top, top_width, width)
            i += 1
        x = start + width * blocks[:, i]
        i += 1
        if f.integer:
            x = np.round(x) + 0.0  # float(round(-0.4)) is 0.0, where np.round gives -0.0
        # min(max(x, low), high) on the bounds' doubles, which an int a double cannot hold would not be
        low, high = float(f.low), float(f.high)
        x = np.where(x < low, low, x)
        x = np.where(x > high, high, x)
        # the least double at or above each cut: a double is at or above it exactly when at or above the cut
        cuts = [float(c) if float(c) >= c else math.nextafter(float(c), math.inf) for c in f.cuts]
        step = np.searchsorted(cuts, x, side="right")
        planted_sum += np.asarray(f.values, dtype=np.float64)[step]  # left to right, as a per-day loop adds
        column = x.tolist()
        if f.integer:  # few distinct values recur, so equal days share one float (an integer is never -0.0 here)
            shared: dict[float, float] = {}
            column = [shared.setdefault(value, value) for value in column]
        name, steps = f.name, f.values
        for row, value in zip(values, column):
            row[name] = value
        for row, s in zip(contribs, step.tolist()):
            row[name] = steps[s]
    del blocks

    base = np.asarray([g.base_fuel for g in spec.groups], dtype=np.float64)[np.repeat(vehicle_group, len(dates))]
    fuel = (base + planted_sum + np.asarray(noise)).tolist()
    days = []
    cells = ((vehicle_ids[v], g, spec.groups[g], day) for v, g in enumerate(vehicle_group) for day in dates)
    for (vid, g, group, day), r, kms_k, ptc_k, fuel_k, planted_k, values_k, contribs_k in zip(
        cells, route_of, kms, ptc, fuel, planted, values, contribs
    ):
        clean = _snap_roundtrip(fuel_k)
        # the fields in their order: no boost yet, and the residual is set once the boosts are in
        days.append(TruthDay(vid, day, g, group.make, group.model, group.year, group.fuel_type, routes[r], kms_k,
                             ptc_k, clean, clean, planted_k, 0.0, group.base_fuel, 0.0, values_k, contribs_k))
    return days


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
            new_value = min(max(new_value, float(top_cut)), float(feat.high))
            gain = feat.contribution(new_value) - d.contributions[feat.name]
            d.feature_values[feat.name] = new_value
            d.contributions[feat.name] = feat.contribution(new_value)
            added += gain
        d.boost_added = added
        d.fuel_l100 = _snap_roundtrip(d.clean_fuel_l100 + added)


def _write_feed_and_truth_days(spec: SynthSpec, days: list[TruthDay], feed_path: Path, truth_days_path: Path) -> None:
    """The feed and the truth days, in one pass over the days.

    The feed holds two half-readings per sum channel, two equal readings per
    other channel and one of the city-time share, at 08:00 and 16:00 and the
    channel's position mod 60 as the minute.  So each date's lines are one
    ``str.format`` template with the vehicle cell as field 0 and one value
    per channel after it.  A truth day holds the fields but the two dicts
    (the bool as 0/1), then each feature's value, then its contribution: one
    of the feature's own step objects, whose ``repr`` is taken once.  The
    feature cells are formatted a column at a time before the days are
    written.  An integer feature takes few values, so each distinct value
    and half-reading of one is formatted once over the fleet
    (``FloatReprs``, which keeps -0.0 apart from 0.0); the other features'
    values are mostly distinct and go straight to ``float.__repr__``.  A
    mean or last value is one text for both files, and so is the city-time
    share.  The bytes are those ``write_table`` writes for the rows: floats
    by ``float.__repr__`` and ints by ``repr``, as csv.writer formats them.
    """
    channels = [(TRIP_KMS_CHANNEL, 2), (TRIP_FUEL_CHANNEL, 2), (CITY_TIME_CHANNEL, 1)]
    channels += [(f.name, 2) for f in spec.features]
    # a brace in a channel name is literal text of the templates
    names = [csv_fields([name]).replace("{", "{{").replace("}", "}}") for name, _ in channels]

    def template(day: date_type) -> str:
        stamps = (f"{day.isoformat()} 08:%02d:00+00:00", f"{day.isoformat()} 16:%02d:00+00:00")
        return "".join(
            f"{stamp % (idx % 60)},{{0}},{name},{{{idx + 1}}}\n"
            for idx, (name, (_, readings)) in enumerate(zip(names, channels))
            for stamp in stamps[:readings]
        )

    feature_names = [f.name for f in spec.features]
    header = [*table_columns(TruthDay)[:-2], *(f"value_{n}" for n in feature_names),
              *(f"contrib_{n}" for n in feature_names)]
    templates = {day: template(day) for day in {d.date for d in days}}
    vehicles, dates = _cells(days)
    groups = [csv_fields([str(g), grp.make, grp.model, grp.year, grp.fuel_type]) for g, grp in enumerate(spec.groups)]
    routes = {route: csv_fields([route]) for route in ROUTE_KMS}
    step_reprs = {id(step): repr(step) for f in spec.features for step in f.values}
    # each feature's value and reading texts, column by column, then one tuple of each per day
    reprs = FloatReprs()
    value_texts, reading_texts = [], []
    for f, column in zip(spec.features, zip(*(d.feature_values.values() for d in days))):
        text = reprs.__getitem__ if f.integer else float.__repr__
        value_texts.append(list(map(text, column)))
        reading_texts.append(list(map(text, [v / 2.0 for v in column])) if f.aggregator == "sum" else value_texts[-1])
    with artifact_file(feed_path) as feed, artifact_file(truth_days_path) as truth:
        feed.write(csv_fields(FEED_COLUMNS) + "\n")
        truth.write(csv_fields(header) + "\n")
        for d, values, readings in zip(days, zip(*value_texts), zip(*reading_texts)):
            fuel_used = d.fuel_l100 * (d.trip_kms / 100.0)
            check = compute_avg_fuel(fuel_used, d.trip_kms)
            if check != d.fuel_l100:
                raise DataError(
                    f"round-trip drift on {d.vehicle_id}/{d.date}: {check!r} != {d.fuel_l100!r}"
                )
            vehicle, ptc = vehicles[d.vehicle_id], float.__repr__(d.per_time_city)
            feed.write(templates[d.date].format(
                vehicle, float.__repr__(d.trip_kms / 2.0), float.__repr__(fuel_used / 2.0), ptc, *readings))
            numbers = (d.fuel_l100, d.clean_fuel_l100, int(d.planted_outlier), d.boost_added, d.base_fuel,
                       d.noise_residual)
            truth.write(",".join([
                f"{vehicle},{dates[d.date]},{groups[d.synth_group]},{routes[d.route_type]},{d.trip_kms!r},{ptc}",
                *map(repr, numbers), *values, *map(step_reprs.__getitem__, map(id, d.contributions.values())),
            ]) + "\n")


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


def _write_truth_savings(spec: SynthSpec, days: list[TruthDay], path: Path) -> None:
    """True per-feature saving vs reference for every generated day.

    Reference is zero for reference-zero features, otherwise the median of
    the feature over the clean (non-planted) days of the same group and
    route.
    """
    # each (group, route) cell's clean days, whose median of a feature sets its reference
    clean: dict[tuple[int, str], list[dict[str, float]]] = {}
    for d in days:
        cell = clean.setdefault((d.synth_group, d.route_type), [])
        if not d.planted_outlier:
            cell.append(d.feature_values)

    # a day's contributions and a cell's references are its features' own step objects, so each feature's
    # lines after the day's cells, "" for no saving, are formatted once per (reference, step), found by their ids
    features = [csv_fields([f.name]) for f in spec.features]
    tables = [
        {id(ref): {id(step): f"{feature},{step - ref!r}\n" if step - ref > 0 else "" for step in f.values}
         for ref in f.values}
        for feature, f in zip(features, spec.features)
    ]
    lines = {
        cell: [
            by_ref[id(f.contribution(0.0 if f.reference_zero or not rows else median([r[f.name] for r in rows])))]
            for f, by_ref in zip(spec.features, tables)
        ]
        for cell, rows in clean.items()
    }

    # one line per positive saving, written as write_table writes the rows (vehicle, date, feature, saving)
    vehicles, dates = _cells(days)
    with artifact_file(path) as fh:
        fh.write(csv_fields(("vehicle_id", "date", "feature", "true_saving")) + "\n")
        for d in days:
            head = f"{vehicles[d.vehicle_id]},{dates[d.date]},"
            day_lines = map(dict.__getitem__, lines[(d.synth_group, d.route_type)], map(id, d.contributions.values()))
            fh.write("".join(head + line for line in day_lines if line))
