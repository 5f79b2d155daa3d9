"""Config-table loaders: registry, VIN map, class table, catalog, limits."""

from __future__ import annotations

import statistics

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fleetfuel.errors import FeedFormatError
from fleetfuel.registry import (
    CatalogReference,
    CatalogTable,
    FeatureRegistry,
    FeatureSpec,
    VinMap,
    artifact_file,
    assign_groups,
    load_class_table,
    load_sota_limits,
    median,
    read_identities_csv,
    write_identities_csv,
    write_table,
)


class TestFeatureRegistry:
    def test_default_registry_loads(self):
        registry = FeatureRegistry.default()
        assert len(registry) >= 20
        spec = registry["rpm_high"]
        assert spec.reference_zero and spec.impact_type == "Positive"
        assert registry["mean_exterior_temp"].impact_type == "Negative"
        assert registry["count_speed_limit_90"].reference_zero is False

    def test_duplicate_name_rejected(self):
        spec = FeatureSpec(
            name="x", unit="u", aggregator="sum", impact_type="Positive",
            reference_zero=True, category="Driving Behaviour",
            subcategory="Aggressive Driving", actionable=True,
        )
        with pytest.raises(FeedFormatError):
            FeatureRegistry([spec, spec])

    def test_taxonomy_enforced(self):
        with pytest.raises(FeedFormatError):
            FeatureSpec(
                name="x", unit="u", aggregator="sum", impact_type="Positive",
                reference_zero=True, category="Nope", subcategory="Nope", actionable=True,
            )

    def test_bad_aggregator_rejected(self):
        with pytest.raises(FeedFormatError):
            FeatureSpec(
                name="x", unit="u", aggregator="median", impact_type="Positive",
                reference_zero=True, category="Driving Behaviour",
                subcategory="Aggressive Driving", actionable=True,
            )

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "reg.csv"
        path.write_text(
            "name,unit,aggregator,impact_type,reference_zero,category,subcategory,actionable\n"
            "foo,events,sum,Positive,yes,Driving Behaviour,Eco-Driving,no\n"
        )
        registry = FeatureRegistry.from_csv(path)
        assert registry["foo"].actionable is False
        assert [spec.name for spec in registry if spec.actionable] == []


class TestVinMap:
    def map(self, tmp_path):
        path = tmp_path / "vin.csv"
        path.write_text(
            "vin_prefix,make,model,year,fuel_type\n"
            "VG00,Aurora,Vanta,2018,diesel\n"
            "VG0,Legacy,Old,2001,petrol\n"
        )
        return VinMap.from_csv(path)

    def test_longest_prefix_wins(self, tmp_path):
        vin = self.map(tmp_path)
        assert vin.lookup("VG00-0001")[1] == "Vanta"
        assert vin.lookup("VG01-0001")[1] == "Old"

    def test_unknown_prefix(self, tmp_path):
        vin = self.map(tmp_path)
        assert vin.lookup("XX-1")[0] == "unknown"

    def test_groups_are_dense_and_sorted(self, tmp_path):
        vin = self.map(tmp_path)
        ids = ["VG00-1", "VG01-1", "XX-1", "VG00-2"]
        identities = assign_groups(ids, vin)
        groups = {(i.make, i.model, i.year, i.fuel_type): i.vehicle_group for i in identities.values()}
        assert sorted(groups.values()) == list(range(len(groups)))
        assert identities["VG00-1"].vehicle_group == identities["VG00-2"].vehicle_group


class TestClassTable:
    def test_packaged_table(self):
        table = load_class_table()
        assert len(table) == 11
        assert table[0].vehicle_class == 0 and table[-1].vehicle_class == 10
        assert table[0].l100km_med == 8.27

    def test_missing_column_fatal(self, tmp_path):
        path = tmp_path / "classes.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(FeedFormatError):
            load_class_table(path)


class TestMedian:
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64), min_size=1))
    def test_matches_statistics_median_bit_for_bit(self, values):
        got = median(values)
        assert got == statistics.median(values)
        assert repr(got) == repr(statistics.median(values))
        # numpy, the helper's other oracle, sums the middle pair the same way
        # (overflowing to inf alike) but may pick the other sign when 0.0 and
        # -0.0 tie in the middle; the callers' values hold no -0.0
        with np.errstate(over="ignore"):
            expected = float(np.median(values))
        assert got == expected
        assert got == 0.0 or repr(got) == repr(expected)

    def test_even_count_averages_middle_pair(self):
        assert median([4.0, 1.0, 3.0, 2.0]) == 2.5
        assert median([0.1, 0.2]) == (0.1 + 0.2) / 2.0


class TestCatalog:
    def test_median_over_duplicates(self):
        refs = [
            CatalogReference("A", "M", "2020", "diesel", "city", v) for v in (8.0, 9.0, 14.0)
        ]
        table = CatalogTable(refs)
        from fleetfuel.registry import VehicleIdentity

        ident = VehicleIdentity("v", "A", "M", "2020", "diesel", 0)
        assert table.lookup(ident, "city") == 9.0
        assert table.lookup(ident, "highway") is None

    def test_nonpositive_fuel_rejected(self):
        with pytest.raises(FeedFormatError):
            CatalogTable([CatalogReference("A", "M", "2020", "diesel", "city", 0.0)])


class TestSotaLimits:
    def test_packaged_limits(self):
        limits = load_sota_limits()
        key = ("Driving Behaviour", "Aggressive Driving")
        assert key in limits
        assert limits[key].min_pct < limits[key].max_pct

    def test_other_subcategory_not_configured(self):
        limits = load_sota_limits()
        assert ("Vehicle Conditions", "Other") not in limits


class TestIdentitiesCsv:
    def test_round_trip(self, tmp_path):
        from fleetfuel.registry import VehicleIdentity

        identities = {
            "v1": VehicleIdentity("v1", "A", "M", "2020", "diesel", 0, vehicle_class=3),
            "v2": VehicleIdentity("v2", "B", "N", "2021", "petrol", 1, vehicle_class=0),
        }
        path = tmp_path / "ids.csv"
        write_identities_csv(identities, path)
        loaded = read_identities_csv(path)
        assert loaded == identities


class TestArtifactWriter:
    def test_write_table_formats_cells_with_the_csv_module(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = (row for row in [("a,b", None, 0.1, 3), ("", 1e-300, -0.0, True)])
        write_table(path, ("text", "none", "float", "other"), rows)
        assert path.read_bytes() == b'text,none,float,other\n"a,b",,0.1,3\n,1e-300,-0.0,True\n'
        assert list(tmp_path.iterdir()) == [path]

    def test_clean_block_replaces_the_file(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("old\n")
        with artifact_file(path) as fh:
            fh.write("new\r\n")
            assert path.read_text() == "old\n"
        assert path.read_bytes() == b"new\r\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_raising_block_keeps_the_previous_bytes(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_bytes(b"old\n")

        def rows():
            yield ("x",)
            raise RuntimeError("row source failed")

        with pytest.raises(RuntimeError):
            write_table(path, ("col",), rows())
        assert path.read_bytes() == b"old\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_raising_block_creates_no_file(self, tmp_path):
        with pytest.raises(KeyboardInterrupt):
            with artifact_file(tmp_path / "new.json") as fh:
                fh.write("{")
                raise KeyboardInterrupt
        assert list(tmp_path.iterdir()) == []
