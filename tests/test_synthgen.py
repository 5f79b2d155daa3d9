"""Generator determinism, exact round trips and planted ground truth."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleetfuel.anomaly import quartiles
from fleetfuel.errors import DataError
from fleetfuel.ingest import (
    CITY_TIME_CHANNEL, FEED_COLUMNS, TRIP_FUEL_CHANNEL, TRIP_KMS_CHANNEL, aggregate_daily, enrich_records,
    parse_feed_csv,
)
from fleetfuel.registry import FeatureRegistry, VinMap, assign_groups, write_table
from fleetfuel.synthgen import SynthFeature, default_spec, generate


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

        truth = {d.day_key: d for d in fleet.days}
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
