"""Generator determinism, exact round trips and planted ground truth."""

from __future__ import annotations

import math

import pytest

from fleetfuel.anomaly import quartiles
from fleetfuel.ingest import aggregate_daily, enrich_records, parse_feed_csv
from fleetfuel.registry import FeatureRegistry, VinMap, assign_groups
from fleetfuel.synthgen import default_spec, generate


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
