"""Whisker limits, two-phase cleaning and outlier labels.

Expected quartiles are frozen from an independent hand oracle
(linear interpolation at positions k/4 * (n-1) over the sorted sample),
cross-checked against numpy's default quantile method.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleetfuel.anomaly import (
    compute_limits,
    flag_outliers,
    quartiles,
    read_limits_csv,
    two_phase_clean,
    write_limits_csv,
)
from fleetfuel.errors import FeedFormatError, InsufficientSupportError
from fleetfuel.ingest import DayTable

from .conftest import make_record


def oracle_quartile(values, q):
    """Independent interpolation oracle: no shared code with the module."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi:
        return ordered[lo]
    return ordered[lo] * (hi - pos) + ordered[hi] * (pos - lo)


class TestQuartiles:
    def test_skewed_sample(self):
        # oracle: positions 1 and 3 of [2,4,6,8,100]
        assert quartiles([2, 4, 6, 8, 100]) == (4.0, 8.0)

    def test_constant_sample(self):
        assert quartiles([1, 1, 1, 1]) == (1.0, 1.0)

    def test_interpolated(self):
        # oracle: positions 0.75 -> 1.75 and 2.25 -> 3.25
        q1, q3 = quartiles([1, 2, 3, 4])
        assert q1 == pytest.approx(1.75)
        assert q3 == pytest.approx(3.25)

    def test_insufficient_support(self):
        with pytest.raises(InsufficientSupportError):
            quartiles([1, 2, 3])

    @settings(max_examples=200)
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=4, max_size=60))
    def test_matches_oracle_and_numpy(self, values):
        q1, q3 = quartiles(values)
        assert q1 == pytest.approx(oracle_quartile(values, 0.25), rel=1e-12, abs=1e-9)
        assert q3 == pytest.approx(oracle_quartile(values, 0.75), rel=1e-12, abs=1e-9)
        assert q1 == pytest.approx(float(np.quantile(values, 0.25)), rel=1e-12, abs=1e-9)
        assert q3 == pytest.approx(float(np.quantile(values, 0.75)), rel=1e-12, abs=1e-9)
        assert q1 <= q3


def records_with_fuel(fuels, group=0, route="highway", prefix="v"):
    return DayTable.from_rows(
        make_record(vehicle_id=f"{prefix}{i}", avg=f, vehicle_group=group, route_type=route)
        for i, f in enumerate(fuels)
    )


class TestComputeLimits:
    def test_whisker_formulas(self):
        limits = compute_limits(records_with_fuel([2, 4, 6, 8, 100]))
        lim = limits.lookup(0, "highway")
        assert lim.lim_sup == pytest.approx(14.0)  # 8 + 1.5 * 4
        assert lim.lim_inf == pytest.approx(-2.0)  # 4 - 1.5 * 4
        assert lim.n_support == 5

    def test_constant_group(self):
        limits = compute_limits(records_with_fuel([9, 9, 9, 9]))
        lim = limits.lookup(0, "highway")
        assert lim.lim_sup == lim.lim_inf == 9.0

    def test_invariant_ordering(self):
        limits = compute_limits(records_with_fuel([3.0, 7.5, 9.1, 4.2, 8.8, 6.6]))
        lim = limits.lookup(0, "highway")
        assert lim.lim_inf <= lim.q1 <= lim.q3 <= lim.lim_sup

    def test_small_group_borrows_fleet_limits(self):
        big = records_with_fuel([5, 6, 7, 8, 9], group=0)
        small = records_with_fuel([6, 7], group=1, prefix="w")
        limits = compute_limits(DayTable.from_rows([*big, *small]))
        borrowed = limits.lookup(1, "highway")
        fleet_sample = [5, 6, 7, 8, 9, 6, 7]
        assert borrowed.borrowed
        assert borrowed.q1 == pytest.approx(oracle_quartile(fleet_sample, 0.25))

    def test_tiny_fleet_skipped(self):
        limits = compute_limits(records_with_fuel([5, 6]))
        assert limits.lookup(0, "highway") is None
        assert limits.skipped == [(0, "highway")]


class TestTwoPhase:
    def test_two_pass_hand_computation(self):
        records = records_with_fuel([2, 4, 6, 8, 100])
        clean, final, report = two_phase_clean(records)
        # phase 1: whiskers (-2, 14) remove the 100, nothing below
        assert report.n_noise == 1
        assert report.n_low == 0
        assert (report.noise_rows, report.low_rows) == ([4], [])
        assert clean.avg_fuel_consumption == [2, 4, 6, 8]
        # phase 2 oracle on {2,4,6,8}: q1=3.5, q3=6.5, iqr=3
        lim = final.lookup(0, "highway")
        assert lim.q1 == pytest.approx(3.5)
        assert lim.q3 == pytest.approx(6.5)
        assert lim.lim_sup == pytest.approx(6.5 + 1.5 * 3.0)
        assert lim.lim_inf == pytest.approx(3.5 - 1.5 * 3.0)

    def test_removals_are_positions_of_one_repeated_day(self):
        # seven copies of one vehicle-day; whiskers (6.0, 12.0) over q1 8.25, q3 9.75
        fuels = [8.0, 8.5, 9.0, 9.5, 10.0, 0.5, 90.0]
        clean, _, report = two_phase_clean(DayTable.from_rows(make_record(avg=f) for f in fuels))
        assert (report.low_rows, report.noise_rows) == ([5], [6])
        assert clean.avg_fuel_consumption == fuels[:5]

    def test_all_inlier_group_is_fixed_point(self):
        records = records_with_fuel([5.0, 5.5, 6.0, 6.5, 7.0])
        clean, final, report = two_phase_clean(records)
        assert len(clean) == len(records)
        phase1 = compute_limits(records).lookup(0, "highway")
        lim = final.lookup(0, "highway")
        assert lim.lim_sup == phase1.lim_sup
        assert lim.lim_inf == phase1.lim_inf

    def test_phase2_only_uses_survivors(self):
        records = records_with_fuel([2, 4, 6, 8, 100])
        clean, final, _ = two_phase_clean(records)
        direct = compute_limits(clean).lookup(0, "highway")
        lim = final.lookup(0, "highway")
        assert (lim.q1, lim.q3, lim.lim_inf, lim.lim_sup) == (
            direct.q1,
            direct.q3,
            direct.lim_inf,
            direct.lim_sup,
        )


class TestFlagOutliers:
    def test_above_limit_is_outlier(self):
        limits = compute_limits(records_with_fuel([9.0, 9.1, 9.2, 9.35]))
        rec = make_record(avg=9.96)
        # force a lim_sup of 9.35 via a constant-ish sample
        lim = limits.lookup(0, "highway")
        assert rec.avg_fuel_consumption > lim.lim_sup
        flagged = flag_outliers(DayTable.from_rows([rec]), limits)
        assert flagged.anomaly_label == ["outlier"]

    def test_boundary_is_inlier(self):
        limits = compute_limits(records_with_fuel([9, 9, 9, 9]))
        rec = make_record(avg=9.0)
        flagged = flag_outliers(DayTable.from_rows([rec]), limits)
        assert flagged.anomaly_label == ["inlier"]

    def test_missing_limits_unassigned(self):
        limits = compute_limits(DayTable.from_rows([]))
        rec = make_record(avg=9.0)
        flagged = flag_outliers(DayTable.from_rows([rec]), limits)
        assert flagged.anomaly_label == ["unassigned"]

    def test_labels_invariant_under_reordering(self):
        rng = random.Random(3)
        fuels = [rng.uniform(5, 12) for _ in range(40)] + [30.0, 31.0]
        records = records_with_fuel(fuels)
        limits = compute_limits(records)
        flag_outliers(records, limits)
        base = {r.vehicle_id: r.anomaly_label for r in records}
        order = list(range(len(records)))
        rng.shuffle(order)
        shuffled = records.take(order)
        limits2 = compute_limits(shuffled)
        flag_outliers(shuffled, limits2)
        assert {r.vehicle_id: r.anomaly_label for r in shuffled} == base


class TestPlantedRecall:
    def test_recall_on_planted_outliers(self):
        rng = np.random.default_rng(11)
        clean = rng.normal(10.0, 1.0, size=600)
        q1, q3 = quartiles(clean.tolist())
        iqr = q3 - q1
        planted = [q3 + 3.0 * iqr + abs(x) for x in rng.normal(1.0, 0.5, size=30)]
        records = DayTable.from_rows(
            [*records_with_fuel(list(clean), prefix="c"), *records_with_fuel(planted, prefix="p")]
        )
        _, final, _ = two_phase_clean(records)
        flagged = flag_outliers(records, final)
        planted_flags = [r.anomaly_label for r in flagged if r.vehicle_id.startswith("p")]
        recall = planted_flags.count("outlier") / len(planted_flags)
        assert recall >= 0.95
        clean_flags = [r.anomaly_label for r in flagged if r.vehicle_id.startswith("c")]
        fpr = clean_flags.count("outlier") / len(clean_flags)
        assert fpr <= 0.08


class TestLimitsCsv:
    def test_round_trip(self, tmp_path):
        limits = compute_limits(records_with_fuel([2, 4, 6, 8, 100]))
        path = tmp_path / "limits.csv"
        write_limits_csv(limits, path)
        loaded = read_limits_csv(path)
        a = limits.lookup(0, "highway")
        b = loaded.lookup(0, "highway")
        assert (a.q1, a.q3, a.lim_inf, a.lim_sup, a.n_support, a.borrowed) == (
            b.q1,
            b.q3,
            b.lim_inf,
            b.lim_sup,
            b.n_support,
            b.borrowed,
        )

    def test_repeated_cell_is_refused_as_parsed(self, tmp_path):
        # group 00 is group 0: the repeat is found on the parsed key, not on the cell text
        path = tmp_path / "limits.csv"
        write_limits_csv(compute_limits(records_with_fuel([2, 4, 6, 8, 100])), path)
        header, row = path.read_text().splitlines()
        path.write_text(f"{header}\n{row}\n0{row}\n")
        repeat = r"limits\.csv: line 3: duplicate limits of group 0 on highway \(first on line 2\)"
        with pytest.raises(FeedFormatError, match=repeat):
            read_limits_csv(path)
