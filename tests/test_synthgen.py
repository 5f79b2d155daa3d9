"""Generator determinism, exact round trips and planted ground truth."""

from __future__ import annotations

import hashlib
import math
import tempfile
from bisect import bisect_right
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleetfuel import synthgen
from fleetfuel.anomaly import quartiles
from fleetfuel.errors import DataError
from fleetfuel.ingest import (
    CITY_TIME_CHANNEL, FEED_COLUMNS, TRIP_FUEL_CHANNEL, TRIP_KMS_CHANNEL, aggregate_daily, enrich_records,
    parse_feed_csv,
)
from fleetfuel.registry import FeatureRegistry, VinMap, assign_groups, median, table_columns, write_table
from fleetfuel.synthgen import (
    DRAW_BATCH_DAYS, ROUTE_KMS, ROUTE_PTC, SynthFeature, SynthGroup, SynthSpec, TruthDay, _route_cdf, _span,
    default_spec, generate,
)

from .conftest import reference_draw_days


def small_fleet(tmp_path, **overrides):
    spec = default_spec(seed=3, n_vehicles=20, n_days=5, **overrides)
    return spec, generate(spec, tmp_path / "fleet")


class TestDeterminism:
    def test_byte_identical_outputs(self, tmp_path):
        spec1 = default_spec(seed=9, n_vehicles=8, n_days=3)
        spec2 = default_spec(seed=9, n_vehicles=8, n_days=3)
        f1 = generate(spec1, tmp_path / "a")
        f2 = generate(spec2, tmp_path / "b")
        assert f1.feed_path.read_bytes() == f2.feed_path.read_bytes()
        assert f1.truth_days_path.read_bytes() == f2.truth_days_path.read_bytes()
        assert f1.catalog_path.read_bytes() == f2.catalog_path.read_bytes()

    def test_seed_changes_output(self, tmp_path):
        f1 = generate(default_spec(seed=1, n_vehicles=8, n_days=3), tmp_path / "a")
        f2 = generate(default_spec(seed=2, n_vehicles=8, n_days=3), tmp_path / "b")
        assert f1.feed_path.read_bytes() != f2.feed_path.read_bytes()


class TestNoiselessIdentity:
    def test_avg_fuel_equals_planted_exactly(self, tmp_path):
        spec, fleet = small_fleet(tmp_path, noise_sigma=0.0, outlier_rate=0.0)
        registry = FeatureRegistry.default()
        parsed = parse_feed_csv(fleet.feed_path, registry)
        assert parsed.n_rejected == 0
        records, report = aggregate_daily(parsed.readings, registry)
        assert report.unknown_channels == {}
        vin_map = VinMap.from_csv(fleet.vin_map_path)
        identities = assign_groups(sorted({r.vehicle_id for r in records}), vin_map)
        records = enrich_records(records, identities)

        truth = {(d.vehicle_id, d.date): d for d in fleet.days}
        assert len(records) == len(truth)
        for rec in records:
            day = truth[(rec.vehicle_id, rec.date)]
            assert rec.avg_fuel_consumption == day.fuel_l100  # bit-exact
            assert rec.trip_kms == day.trip_kms
            assert rec.route_type == day.route_type
            for name, value in day.feature_values.items():
                assert rec.features[name] == value  # bit-exact recovery

    def test_decomposition_sums_exactly(self, tmp_path):
        spec, fleet = small_fleet(tmp_path, noise_sigma=0.0, outlier_rate=0.0)
        for day in fleet.days:
            total = day.base_fuel
            for feat in spec.features:
                total += day.contributions[feat.name]
            total += day.noise_residual
            assert total == day.fuel_l100
            # noiseless: the residual only absorbs the representability nudge
            assert abs(day.noise_residual) < 1e-13

    def test_decomposition_sums_exactly_with_noise(self, tmp_path):
        spec, fleet = small_fleet(tmp_path, noise_sigma=0.4, outlier_rate=0.05)
        for day in fleet.days:
            total = day.base_fuel
            for feat in spec.features:
                total += day.contributions[feat.name]
            total += day.noise_residual
            assert total == day.fuel_l100


class TestOutlierInjection:
    def test_binomial_count(self, tmp_path):
        spec = default_spec(seed=5, n_vehicles=100, n_days=40, outlier_rate=0.05)
        fleet = generate(spec, tmp_path / "big")
        n = len(fleet.days)
        planted = sum(1 for d in fleet.days if d.planted_outlier)
        expected = 0.05 * n
        sigma = math.sqrt(n * 0.05 * 0.95)
        assert abs(planted - expected) <= 4 * sigma

    def test_planted_days_reach_the_bar(self, tmp_path):
        spec = default_spec(seed=6, n_vehicles=80, n_days=30, outlier_rate=0.04)
        fleet = generate(spec, tmp_path / "bar")
        by_cell = {}
        for d in fleet.days:
            by_cell.setdefault((d.synth_group, d.route_type), []).append(d.clean_fuel_l100)
        reached = 0
        planted = [d for d in fleet.days if d.planted_outlier]
        assert planted
        for d in planted:
            q1, q3 = quartiles(by_cell[(d.synth_group, d.route_type)])
            bar = q3 + spec.outlier_magnitude_iqr * (q3 - q1)
            if d.fuel_l100 >= bar:
                reached += 1
        assert reached / len(planted) >= 0.9

    def test_boost_is_cause_driven(self, tmp_path):
        spec, fleet = small_fleet(tmp_path, outlier_rate=0.2)
        drivers = [f.name for f in spec.features if f.driver]
        for d in fleet.days:
            if d.planted_outlier and d.boost_added > 0:
                # fuel excess is carried entirely by feature contributions
                assert d.fuel_l100 == pytest.approx(d.clean_fuel_l100 + d.boost_added, abs=1e-9)
                assert any(
                    d.feature_values[name] >= dict((f.name, f.cuts[-1]) for f in spec.features)[name]
                    for name in drivers
                )

    def test_zero_rate_means_no_outliers(self, tmp_path):
        spec, fleet = small_fleet(tmp_path, outlier_rate=0.0)
        assert not any(d.planted_outlier for d in fleet.days)


class TestDraws:
    def test_values_stay_in_range(self, tmp_path):
        # rounding an integer feature with fractional bounds can leave its range; the draw clamps it back
        spec = default_spec(seed=5, n_vehicles=6, n_days=10)
        spec.features = [*spec.features, SynthFeature("rounded", 0.3, 3.7, (2,), (0.0, 0.1), "sum", integer=True)]
        fleet = generate(spec, tmp_path / "fleet")
        for f in spec.features:
            assert all(f.low <= d.feature_values[f.name] <= f.high for d in fleet.days)
        assert {d.feature_values["rounded"] for d in fleet.days} == {0.3, 1.0, 2.0, 3.0, 3.7}


class TestArtifacts:
    def test_vin_map_covers_groups(self, tmp_path):
        spec, fleet = small_fleet(tmp_path)
        text = fleet.vin_map_path.read_text()
        for g in range(len(spec.groups)):
            assert f"VG{g:02d}" in text

    def test_unmatched_vehicles_have_foreign_prefix(self, tmp_path):
        spec, fleet = small_fleet(tmp_path, unmatched_fraction=0.2)
        ids = {d.vehicle_id for d in fleet.days}
        assert any(v.startswith("XV-") for v in ids)
        vin_map = VinMap.from_csv(fleet.vin_map_path)
        assert vin_map.lookup(sorted(ids)[-1])[0] in {"Aurora", "Borealis", "unknown"}

    def test_catalog_collapses_duplicates(self, tmp_path):
        from fleetfuel.registry import CatalogTable, VehicleIdentity

        spec, fleet = small_fleet(tmp_path)
        catalog = CatalogTable.from_csv(fleet.catalog_path)
        day = fleet.days[0]
        ident = VehicleIdentity(
            vehicle_id=day.vehicle_id,
            make=day.make,
            model=day.model,
            year=day.year,
            fuel_type=day.fuel_type,
            vehicle_group=0,
        )
        value = catalog.lookup(ident, day.route_type)
        assert value is not None and value > 0

    def test_spec_json_round_trip(self, tmp_path):
        from fleetfuel.synthgen import SynthSpec

        spec = default_spec(seed=11, n_vehicles=6, n_days=2)
        path = tmp_path / "spec.json"
        spec.to_json(path)
        loaded = SynthSpec.from_json(path)
        assert loaded == spec


SPECIAL_X = [0.0, -0.0, math.inf, -math.inf, math.nan]


class TestStepLookup:
    """``contribution`` finds the segment ``np.searchsorted(cuts, x, side="right")`` finds."""

    @settings(max_examples=300, deadline=None)
    @given(
        cuts=st.one_of(
            st.lists(st.integers(-1000, 1000), max_size=6),
            st.lists(st.one_of(st.floats(-1e6, 1e6), st.sampled_from([0.0, -0.0])), max_size=6),
        ).map(sorted),
        data=st.data(),
    )
    def test_matches_searchsorted(self, cuts, data):
        x = data.draw(
            st.one_of(
                st.sampled_from(SPECIAL_X),
                *([st.sampled_from(cuts)] if cuts else []),
                st.integers(-1001, 1001),
                st.floats(allow_nan=True, allow_infinity=True),
            )
        )
        feat = SynthFeature("f", 0, 0, tuple(cuts), tuple(float(i) for i in range(len(cuts) + 1)))
        assert feat.contribution(x) == int(np.searchsorted(cuts, x, side="right"))


def _feed_rows(spec, days):
    """The feed's rows as the row-at-a-time writer built them: the reference for ``_write_feed``."""
    by_agg = {f.name: f.aggregator for f in spec.features}
    for d in days:
        stamp_a = f"{d.date.isoformat()} 08:%02d:00+00:00"
        stamp_b = f"{d.date.isoformat()} 16:%02d:00+00:00"
        fuel_used = d.fuel_l100 * (d.trip_kms / 100.0)
        channels = [
            (TRIP_KMS_CHANNEL, [d.trip_kms / 2.0, d.trip_kms / 2.0]),
            (TRIP_FUEL_CHANNEL, [fuel_used / 2.0, fuel_used / 2.0]),
            (CITY_TIME_CHANNEL, [d.per_time_city]),
        ]
        for name, value in d.feature_values.items():
            if by_agg[name] == "sum":
                channels.append((name, [value / 2.0, value / 2.0]))
            else:
                channels.append((name, [value, value]))
        for idx, (name, readings) in enumerate(channels):
            minute = idx % 60
            stamps = (stamp_a % minute, stamp_b % minute)
            for k, value in enumerate(readings):
                yield stamps[k], d.vehicle_id, name, value


class TestFeedWriter:
    def test_bytes_equal_row_writer(self, tmp_path):
        spec = default_spec(seed=4, n_vehicles=24, n_days=4, outlier_rate=0.2, unmatched_fraction=0.25)
        extra = [
            SynthFeature('idle, "cold"', 0, 40, (10,), (0.0, 0.2), "sum", integer=True),
            SynthFeature("{brace}", 0.5, 3.0, (1.5,), (0.0, 0.1), "mean"),
            SynthFeature("level", 0, 100, (50,), (0.1, 0.0), "last"),
        ]
        # 66 channels, so the minute of the last ones wraps past 59
        wide = [SynthFeature(f"wide_{i}", 0, 9, (), (0.0,)) for i in range(51)]
        spec.features = [*spec.features, *extra, *wide]
        fleet = generate(spec, tmp_path / "fleet")
        assert any(d.planted_outlier and d.boost_added > 0 for d in fleet.days)
        assert any(d.vehicle_id.startswith("XV-") for d in fleet.days)
        write_table(tmp_path / "reference.csv", FEED_COLUMNS, _feed_rows(spec, fleet.days))
        assert fleet.feed_path.read_bytes() == (tmp_path / "reference.csv").read_bytes()
        assert b'"idle, ""cold"""' in fleet.feed_path.read_bytes()


class TestSpecChecks:
    def test_generate_checks_reassigned_fields(self, tmp_path):
        spec = default_spec(seed=1, n_vehicles=2, n_days=1)
        spec.features = [*spec.features, spec.features[0]]
        with pytest.raises(DataError, match="duplicate feature name 'rpm_high'"):
            generate(spec, tmp_path / "fleet")
        assert not (tmp_path / "fleet" / "feed.csv").exists()

    def test_default_spec_overrides_are_checked(self):
        with pytest.raises(DataError, match="n_days"):
            default_spec(n_days=0)
        with pytest.raises(TypeError):
            default_spec(bogus=1)


def _truth_days_rows(spec, days):
    """The truth-days header and rows as the row writer built them, the reference for ``_write_truth_days``."""
    feature_names = [f.name for f in spec.features]
    fixed = table_columns(TruthDay)[:-2]
    header = [*fixed, *(f"value_{n}" for n in feature_names), *(f"contrib_{n}" for n in feature_names)]
    rows = (
        (
            *(int(v) if type(v) is bool else v for v in (getattr(d, name) for name in fixed)),
            *(d.feature_values[n] for n in feature_names),
            *(d.contributions[n] for n in feature_names),
        )
        for d in days
    )
    return header, rows


def _truth_savings_rows(spec, days):
    """The truth-savings rows as the row-at-a-time writer built them: the reference for ``_write_truth_savings``."""
    cell_values = {}
    for d in days:
        if not d.planted_outlier:
            for name, value in d.feature_values.items():
                cell_values.setdefault((d.synth_group, d.route_type, name), []).append(value)
    medians = {key: median(values) for key, values in cell_values.items()}
    for d in days:
        for f in spec.features:
            ref = f.contribution(0.0 if f.reference_zero else medians.get((d.synth_group, d.route_type, f.name), 0.0))
            saving = d.contributions[f.name] - ref
            if saving > 0:
                yield d.vehicle_id, d.date, f.name, saving


class TestTruthWriters:
    def test_bytes_equal_row_writer(self, tmp_path):
        spec = default_spec(seed=4, n_vehicles=24, n_days=4, outlier_rate=0.2, unmatched_fraction=0.25)
        # int steps and an int base fuel are written as csv.writer writes an int
        spec.features = [
            *spec.features,
            SynthFeature('idle, "cold"', 0, 40, (10,), (0.0, 0.2), "sum", integer=True, reference_zero=True),
            SynthFeature("{brace}", 0.5, 3.0, (1.5,), (0, 1), "mean"),
        ]
        spec.groups = [*spec.groups[:-1], SynthGroup("Borealis", 'Titan "XL", 4x4', "2016", "diesel", 14, 2)]
        fleet = generate(spec, tmp_path / "fleet")
        assert any(d.planted_outlier for d in fleet.days)
        assert any(d.vehicle_id.startswith("XV-") for d in fleet.days)
        write_table(tmp_path / "days.csv", *_truth_days_rows(spec, fleet.days))
        write_table(tmp_path / "savings.csv", ("vehicle_id", "date", "feature", "true_saving"),
                    _truth_savings_rows(spec, fleet.days))
        days, savings = fleet.truth_days_path.read_bytes(), fleet.truth_savings_path.read_bytes()
        assert days == (tmp_path / "days.csv").read_bytes()
        assert savings == (tmp_path / "savings.csv").read_bytes()
        assert b',1,' in days and b'"Titan ""XL"", 4x4"' in days and b'"idle, ""cold"""' in savings
        assert b",{brace},1\n" in savings


@st.composite
def synth_features(draw, name):
    """A feature of a random spec: int or float bounds, negative and zero-width ranges, int steps, top fractions."""
    low = draw(st.one_of(st.integers(-5, 5), st.floats(-5, 5)))
    high = low + draw(st.one_of(st.integers(0, 8), st.floats(0, 8)))
    # cuts in the range, where a top cut must be, and below it
    cuts = sorted(draw(st.lists(st.one_of(st.floats(low, high), st.floats(low - 3, low)), max_size=3)))
    cuts = [c if draw(st.booleans()) or not float(c).is_integer() else int(c) for c in cuts]
    values = draw(st.lists(st.one_of(st.integers(0, 3), st.floats(0, 2)), min_size=len(cuts) + 1,
                           max_size=len(cuts) + 1))
    if cuts and not low <= cuts[-1] <= high:
        cuts[-1] = high
    return SynthFeature(
        name, low, high, tuple(cuts), tuple(values), draw(st.sampled_from(("sum", "mean", "last"))),
        integer=draw(st.booleans()),
        top_fraction=draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.01, 0.99))) if cuts else 0.0,
        driver=bool(cuts) and draw(st.booleans()),
        reference_zero=draw(st.booleans()),
    )


@st.composite
def synth_specs(draw):
    features = [draw(synth_features(f"f{i}")) for i in range(draw(st.integers(1, 4)))]
    if draw(st.booleans()):
        # bounds a double holds, and a cut it does not: a double at 2**60 is below the cut
        features.append(SynthFeature("big", 2**60, 2**60 + 4096, (2**60 + 1,), (0.0, 0.5), "mean"))
    groups = [SynthGroup("Aurora", "Vanta", "2018", "diesel", 8.0),
              SynthGroup("Borealis", "Titan", "2016", "diesel", 12)]
    return SynthSpec(
        seed=draw(st.integers(0, 2**32)),
        n_vehicles=draw(st.integers(1, 6)),
        n_days=draw(st.integers(1, 5)),
        groups=groups[: draw(st.integers(1, 2))],
        features=features,
        noise_sigma=draw(st.sampled_from([0.0, 0.3])),
        outlier_rate=draw(st.sampled_from([0.0, 0.3, 1.0])),
        outlier_magnitude_iqr=0.5,
        route_mix=draw(st.sampled_from([default_spec().route_mix, {"highway": 1.0}])),
        unmatched_fraction=draw(st.sampled_from([0.0, 0.5])),
    )


def _typed_cells(day):
    """Every field of a truth day and every entry of its dicts, in order, as (name, type, repr)."""
    cells = []
    for name, value in vars(day).items():
        entries = value.items() if isinstance(value, dict) else [(name, value)]
        cells += [(key, type(v), repr(v)) for key, v in entries]
    return cells


class TestColumnDraw:
    """The column passes give the days, and so the files, the per-vehicle-day loop gave."""

    @settings(max_examples=150, deadline=None)
    @given(spec=synth_specs(), batch=st.sampled_from([1, 7, DRAW_BATCH_DAYS]))
    def test_equals_per_day_loop(self, spec, batch):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            with mock.patch.object(synthgen, "DRAW_BATCH_DAYS", batch):
                fleet = generate(spec, out / "columns")
            with mock.patch.object(synthgen, "_draw_days", reference_draw_days):
                oracle = generate(spec, out / "loop")
            assert [_typed_cells(d) for d in fleet.days] == [_typed_cells(d) for d in oracle.days]
            assert _file_bytes(out / "columns") == _file_bytes(out / "loop")
            write_table(out / "feed.csv", FEED_COLUMNS, _feed_rows(spec, oracle.days))
            write_table(out / "days.csv", *_truth_days_rows(spec, oracle.days))
            write_table(out / "savings.csv", ("vehicle_id", "date", "feature", "true_saving"),
                        _truth_savings_rows(spec, oracle.days))
            for name, reference in [("feed.csv", "feed.csv"), ("truth_days.csv", "days.csv"),
                                    ("truth_savings.csv", "savings.csv")]:
                assert (out / "columns" / name).read_bytes() == (out / reference).read_bytes()


def _file_bytes(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


# many generators, each drawing several times, so every branch of numpy's draws is crossed
SEEDS = range(1000)
ROUTE_MIXES = [
    default_spec().route_mix,
    {"highway": 1.0},
    {"city": 0.0, "combined": 1, "highway": 2},
    {"city": 0.1, "combined": 0.7, "highway": 0.2000001},
]
# int and float bounds: the default features' ranges and top segments, the city-time shares, a zero width and
# ints a double cannot hold, whose width numpy takes between their doubles
DRAWN_RANGES = sorted(
    {(f.low, f.high) for f in default_spec().features}
    | {r for f in default_spec().features if f.top_fraction > 0 for r in ((f.low, f.top_cut), (f.top_cut, f.high))}
    | set(ROUTE_PTC.values())
    | {(3, 3), (-2.5, 7), (2**60 + 1, 2**60 + 2**20 + 3)}
)


def _pair(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


class TestStreamEquivalence:
    """The draws ``generate`` makes give the bits and the generator state the scalar calls they replace gave.

    NumPy does not freeze its streams across versions (NEP 19), so these pin
    what the fleets' byte identity rests on.
    """

    @pytest.mark.parametrize("route_mix", ROUTE_MIXES, ids=["default", "one-route", "zero-weight", "uneven"])
    def test_choice_with_p_is_bisect_on_cdf(self, route_mix):
        routes = sorted(route_mix)
        p = np.asarray([route_mix[r] for r in routes], dtype=np.float64)
        p = p / p.sum()
        assert _route_cdf(route_mix)[0] == routes
        cdf = _route_cdf(route_mix)[1]
        for seed in SEEDS:
            old, new = _pair(seed)
            for _ in range(4):
                assert int(old.choice(len(routes), p=p)) == bisect_right(cdf, new.random())
            assert old.bit_generator.state == new.bit_generator.state

    @pytest.mark.parametrize("kms", sorted(set(ROUTE_KMS.values()), key=len), ids=len)
    def test_choice_of_sequence_is_integers_index(self, kms):
        for seed in SEEDS:
            old, new = _pair(seed)
            # a double between the integers, as in a day, and two in a row, which share one 64-bit draw
            for _ in range(3):
                assert float(old.choice(kms)).hex() == kms[new.integers(0, len(kms))].hex()
                assert old.random().hex() == new.random().hex()
            assert float(old.choice(kms)).hex() == kms[new.integers(0, len(kms))].hex()
            assert float(old.choice(kms)).hex() == kms[new.integers(0, len(kms))].hex()
            assert old.bit_generator.state == new.bit_generator.state

    @pytest.mark.parametrize("low, high", DRAWN_RANGES)
    def test_uniform_is_affine_double(self, low, high):
        start, width = _span(low, high)
        for seed in SEEDS:
            old, new = _pair(seed)
            for _ in range(4):
                assert float(old.uniform(low, high)).hex() == (start + width * new.random()).hex()
            assert old.bit_generator.state == new.bit_generator.state

    @pytest.mark.parametrize("k", [1, 2, 13, 29, 45])
    def test_block_is_scalar_doubles(self, k):
        for seed in SEEDS:
            old, new = _pair(seed)
            new.integers(0, 3)  # a buffered half of a 64-bit draw, left pending
            old.integers(0, 3)
            assert [old.random().hex() for _ in range(k)] == [x.hex() for x in new.random(k).tolist()]
            assert old.bit_generator.state == new.bit_generator.state

    @pytest.mark.parametrize("k", [1, 2, 13, 29, 45])
    def test_block_into_a_matrix_row_is_scalar_doubles(self, k):
        rows = np.empty((3, k))
        for seed in SEEDS:
            old, new = _pair(seed)
            new.integers(0, 3)
            old.integers(0, 3)
            new.random(out=rows[1])
            assert [old.random().hex() for _ in range(k)] == [x.hex() for x in rows[1].tolist()]
            assert old.bit_generator.state == new.bit_generator.state


EDGE_FEATURES = (
    SynthFeature("tilt", -3, 3, (-1, 1), (0, 1, 2), "sum", integer=True),
    SynthFeature("count_stops", 0, 40, (10, 30), (0.0, 0.2, 0.9), "sum", integer=True, top_fraction=1.0, driver=True),
    SynthFeature("fuel_level", 0, 100, (50,), (0.1, 0.0), "last"),
)


def _sha256s(directory):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(directory.iterdir())}


class TestGoldenFleets:
    """Every fleet file's sha256, pinned: a change of bytes, from the code or from numpy, fails here."""

    @pytest.mark.parametrize(
        "overrides, digests",
        [
            (
                dict(seed=2, n_vehicles=250, n_days=20),
                {
                    "catalog.csv": "6874ebea40f29611a7b02d9a769d3ed263f50b3d4ead987c55d86360d3e11340",
                    "feed.csv": "37ad146338e690d490b7393f06b20559a45cca2fae4731f31d01b85ebf7d2951",
                    "truth_days.csv": "1094cb9ec45bf59d6632175046936fa0f838c83ad8796caee3087e854a45e480",
                    "truth_savings.csv": "9e1c228eed32dc40b2720a3e68ddeeaed438514b86a3cbfa9c4c9cefa3f6315a",
                    "vin_map.csv": "56a055b7eb12a1dbd071d3297d39edc89ced634d0807d0048c1cbfd826ae9850",
                },
            ),
            (
                # top-fraction drivers, boosted outliers, unmatched vehicles and all three routes
                dict(seed=4, n_vehicles=24, n_days=4, outlier_rate=0.2, unmatched_fraction=0.25),
                {
                    "catalog.csv": "267552c0030641175b4ac5821c93865422891ec9a0cf76ca62db85532b49f8d6",
                    "feed.csv": "a2e88f9b0fb307cdd4f503de5942813403605a88b3633706a264406d7a9b3807",
                    "truth_days.csv": "46b281be5fb7b6132ad3dd86abab3d0a4fa39fce765b8a0fb7d7fd8134074156",
                    "truth_savings.csv": "aac260cd4ba064d0a53156ab9ecf1e95e628d1c9a20cf2539d6188c9d85b6b91",
                    "vin_map.csv": "56a055b7eb12a1dbd071d3297d39edc89ced634d0807d0048c1cbfd826ae9850",
                },
            ),
            (
                # what the two above lack: an int sum feature over -3..3 with int steps (a draw in (-0.5, 0)
                # rounds to 0.0, not -0.0), a top fraction of 1 and an int-bounded last feature
                dict(seed=5, n_vehicles=30, n_days=6, outlier_rate=0.2, unmatched_fraction=0.2,
                     features=[*default_spec().features, *EDGE_FEATURES]),
                {
                    "catalog.csv": "41dfc75e203994c9720367621f9f46fd2c28700c112a0a8f84eb98c309e96fa5",
                    "feed.csv": "ecf7456a24390f2f8947bfc636bf50d517f821e1e0541ecba483f3828f32b091",
                    "truth_days.csv": "c02d8f87645da85dbaf7a46700cd5c5120597c7cfa9ef69cfc48e1b037f1d517",
                    "truth_savings.csv": "a21c1c86925df80578b671cd680e5a3f07ed593801ff4d295f43b5b91e0601bb",
                    "vin_map.csv": "56a055b7eb12a1dbd071d3297d39edc89ced634d0807d0048c1cbfd826ae9850",
                },
            ),
        ],
        ids=["acceptance", "outliers-unmatched", "edge-features"],
    )
    def test_fleet_digests(self, tmp_path, overrides, digests):
        fleet = generate(default_spec(**overrides), tmp_path / "fleet")
        assert {d.route_type for d in fleet.days} == set(ROUTE_KMS)
        assert _sha256s(tmp_path / "fleet") == digests
