"""Binning, boosting, exact decomposition and shape recovery."""

from __future__ import annotations

import json

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleetfuel.errors import DataError, FeedFormatError, MissingFeatureError
from fleetfuel.gam import (
    AdditiveModel,
    BagHistory,
    FeatureColumn,
    build_bins,
    build_design,
    fit,
    fit_matrix,
    write_shape_curves_csv,
    write_train_history_csv,
)
from fleetfuel.gam import _Column, _tree_deltas
from fleetfuel.ingest import DayTable
from fleetfuel.registry import FeatureRegistry, TrainConfig

from .conftest import make_record

FAST = TrainConfig(learning_rate=0.1, max_rounds=400, patience=30, bags=2, seed=5)


def numeric_column(name):
    return FeatureColumn(name=name, kind="numeric", origin=name)


class TestOneHot:
    """Indicator columns: build_design over an empty registry makes only those, one origin at a time."""

    @staticmethod
    def design(records, origin):
        matrix, columns = build_design(DayTable.from_rows(records), FeatureRegistry([]))
        index = [j for j, c in enumerate(columns) if c.origin == origin]
        return matrix[:, index], [columns[j] for j in index]

    def test_two_groups_two_columns(self):
        records = [make_record(vehicle_group=0), make_record(vehicle_id="v2", vehicle_group=14)]
        matrix, columns = self.design(records, "vehicle_group")
        assert [c.name for c in columns] == ["vehicle_group=0", "vehicle_group=14"]
        assert matrix.tolist() == [[1.0, 0.0], [0.0, 1.0]]

    def test_single_level_constant_column(self):
        records = [make_record(), make_record(vehicle_id="v2")]
        matrix, columns = self.design(records, "route_type")
        assert [c.name for c in columns] == ["route_type=highway"]
        assert matrix.tolist() == [[1.0], [1.0]]

    def test_unseen_level_all_zeros(self):
        train = [make_record(route_type="city"), make_record(vehicle_id="v2", route_type="highway")]
        _, columns = self.design(train, "route_type")
        model = _tiny_model(columns)
        unseen = make_record(vehicle_id="v3", route_type="combined")
        assert [cells[0] for cells in model.encode(DayTable.from_rows([unseen]))] == [0.0, 0.0]


def _tiny_model(columns):
    return AdditiveModel(
        intercept=0.0,
        columns=list(columns),
        cuts=[[0.5] for _ in columns],
        values=[[0.0, 0.0] for _ in columns],
        config=TrainConfig(),
    )


class TestBuildBins:
    def test_quantile_cuts_for_many_distinct(self):
        col = np.arange(1, 1001, dtype=float).reshape(-1, 1)
        cuts = build_bins(col, max_bins=256)[0]
        assert cuts.size == 255
        # uniform data: cuts sit at uniform quantiles of 1..1000
        expected = np.quantile(col[:, 0], np.arange(1, 256) / 256)
        assert np.allclose(cuts, expected)

    def test_binary_feature(self):
        col = np.array([0.0, 1.0, 0.0, 1.0]).reshape(-1, 1)
        cuts = build_bins(col, max_bins=256)[0]
        assert cuts.tolist() == [0.5]

    def test_constant_feature_single_bin(self):
        col = np.full((10, 1), 3.0)
        cuts = build_bins(col, max_bins=256)[0]
        assert cuts.size == 0

    def test_cuts_strictly_increasing(self):
        rng = np.random.default_rng(0)
        col = rng.integers(0, 12, size=500).astype(float).reshape(-1, 1)
        cuts = build_bins(col, max_bins=8)[0]
        assert np.all(np.diff(cuts) > 0)


class TestFit:
    def test_constant_target_gives_intercept_only(self, small_registry):
        records = [
            make_record(
                vehicle_id=f"v{i}",
                avg=7.25,
                features={"rpm_high": float(i % 5), "mean_speed_hwy": 80.0 + i, "mean_exterior_temp": 280.0},
            )
            for i in range(30)
        ]
        model = fit(DayTable.from_rows(records), small_registry, FAST)
        assert model.intercept == 7.25
        for values in model.values:
            assert all(v == 0.0 for v in values)

    def test_too_few_records(self, small_registry):
        records = [make_record(vehicle_id=f"v{i}", avg=7.0) for i in range(10)]
        with pytest.raises(DataError):
            fit(DayTable.from_rows(records), small_registry, FAST)

    def test_nonpositive_target_rejected(self, small_registry):
        records = [
            make_record(vehicle_id=f"v{i}", avg=5.0, features={n: 1.0 for n in small_registry.names})
            for i in range(25)
        ]
        records[3].avg_fuel_consumption = 0.0
        with pytest.raises(DataError):
            fit(DayTable.from_rows(records), small_registry, FAST)

    def test_planted_step_recovery(self):
        rng = np.random.default_rng(42)
        n = 5000
        X = rng.uniform(0, 1, size=(n, 3))
        y = 5.0 + 2.0 * (X[:, 0] > 0.5) + rng.normal(0, 0.01, size=n)
        model = fit_matrix(X, y, [numeric_column(f"x{i}") for i in range(3)], FAST)
        step = model.contribution_at("x0", 0.75) - model.contribution_at("x0", 0.25)
        assert step == pytest.approx(2.0, abs=0.05)

    def test_seeded_determinism(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(0, 1, size=(200, 2))
        y = 6.0 + X[:, 0] + rng.normal(0, 0.05, 200)
        cols = [numeric_column("a"), numeric_column("b")]
        m1 = fit_matrix(X, y, cols, FAST)
        m2 = fit_matrix(X, y, cols, FAST)
        assert json.dumps(m1.to_dict()) == json.dumps(m2.to_dict())

    def test_all_single_bin_columns_give_zero_shapes(self):
        rng = np.random.default_rng(2)
        X = np.tile([0.0, 1.0, 873.25], (200, 1))
        y = 6.0 + rng.normal(0, 0.5, 200)
        model = fit_matrix(X, y, [numeric_column(n) for n in "abc"], FAST)
        assert model.cuts == [[], [], []]
        assert model.values == [[0.0], [0.0], [0.0]]

    def test_centering_over_training_rows(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(0, 1, size=(400, 3))
        y = 8.0 + X[:, 0] * 2 + (X[:, 1] > 0.6) + rng.normal(0, 0.02, 400)
        cols = [numeric_column(f"x{i}") for i in range(3)]
        model = fit_matrix(X, y, cols, FAST)
        scale = float(np.mean(np.abs(y)))
        for j in range(3):
            bins = np.searchsorted(model.cuts[j], X[:, j], side="right")
            mean_contrib = float(np.asarray(model.values[j])[bins].mean())
            assert abs(mean_contrib) <= 1e-6 * scale

    def test_running_best_train_rmse_non_increasing(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(0, 1, size=(300, 2))
        y = 7.0 + 2.0 * (X[:, 0] > 0.5) + rng.normal(0, 0.05, 300)
        model = fit_matrix(X, y, [numeric_column("a"), numeric_column("b")], FAST)
        for bag in model.history:
            best = np.minimum.accumulate(bag.train_rmse)
            assert np.all(np.diff(best) <= 0)
            assert bag.train_rmse[-1] < bag.train_rmse[0]

    def test_heldout_rmse_on_noise_free_steps(self):
        rng = np.random.default_rng(5)
        n = 4000
        X = rng.uniform(0, 1, size=(n, 2))
        y = 10.0 + 1.5 * (X[:, 0] > 0.4) + 0.8 * (X[:, 1] > 0.7)
        cols = [numeric_column("a"), numeric_column("b")]
        model = fit_matrix(X[:3000], y[:3000], cols, FAST)
        contrib = np.empty((1000, 2))
        for j in range(2):
            bins = np.searchsorted(model.cuts[j], X[3000:, j], side="right")
            contrib[:, j] = np.asarray(model.values[j])[bins]
        preds = model.intercept + contrib.sum(axis=1)
        rmse = float(np.sqrt(np.mean((y[3000:] - preds) ** 2)))
        assert rmse <= 0.01 * (y.max() - y.min())


class TestPredictAndRelevance:
    def _trained(self, small_registry):
        rng = np.random.default_rng(7)
        records = []
        for i in range(120):
            rpm = float(rng.integers(0, 20))
            spd = float(rng.uniform(60, 120))
            tmp = float(rng.uniform(270, 300))
            avg = 6.0 + 0.1 * rpm + 0.01 * spd + rng.normal(0, 0.05)
            records.append(
                make_record(
                    vehicle_id=f"v{i % 10}",
                    day=f"2021-01-{(i % 28) + 1:02d}",
                    avg=avg,
                    vehicle_group=i % 3,
                    features={"rpm_high": rpm, "mean_speed_hwy": spd, "mean_exterior_temp": tmp},
                )
            )
        return fit(DayTable.from_rows(records), small_registry, FAST), records

    def test_exact_decomposition(self, small_registry):
        model, records = self._trained(small_registry)
        table = DayTable.from_rows(records[:40])
        C = model.contributions(model.encode(table))
        for i, pred in enumerate(model.predict_many(table)):
            assert pred == model.intercept + np.array([c[i] for c in C]).sum()

    def test_all_zero_shapes_predict_intercept(self, small_registry):
        records = [
            make_record(vehicle_id=f"v{i}", avg=7.25, features={n: 1.0 for n in small_registry.names})
            for i in range(25)
        ]
        model = fit(DayTable.from_rows(records), small_registry, FAST)
        first = DayTable.from_rows(records[:1])
        assert model.predict_many(first) == [7.25]
        assert all(c == [0.0] for c in model.contributions(model.encode(first)))

    def test_clamping_to_edge_bin(self, small_registry):
        model, records = self._trained(small_registry)
        lowest_cut = model.cuts[model._column_index("mean_speed_hwy")][0]
        below = model.contribution_at("mean_speed_hwy", lowest_cut - 100.0)
        at_low = model.contribution_at("mean_speed_hwy", lowest_cut - 1e-9)
        assert below == at_low

    def test_missing_feature_rejected(self, small_registry):
        model, _ = self._trained(small_registry)
        bad = make_record(features={"rpm_high": 1.0})
        with pytest.raises(MissingFeatureError):
            model.predict_many(DayTable.from_rows([bad]))


class TestShapeCurve:
    def test_binary_curve_two_segments(self):
        X = np.array([[0.0], [1.0], [0.0], [1.0]] * 10)
        y = 5.0 + X[:, 0] + np.random.default_rng(0).normal(0, 0.01, 40)
        model = fit_matrix(X, y, [numeric_column("flag")], FAST)
        curve = model.shape_curve("flag")
        assert len(curve) == 2
        assert curve[0][0] == -np.inf and curve[1][2] is not None

    def test_constant_feature_single_zero_segment(self):
        rng = np.random.default_rng(1)
        X = np.hstack([np.full((60, 1), 2.0), rng.uniform(0, 1, size=(60, 1))])
        y = 5.0 + X[:, 1] + rng.normal(0, 0.01, 60)
        model = fit_matrix(X, y, [numeric_column("const"), numeric_column("x")], FAST)
        curve = model.shape_curve("const")
        assert len(curve) == 1
        lo, hi, value = curve[0]
        assert (lo, hi) == (-np.inf, np.inf)
        assert abs(value) <= 1e-9 * float(np.mean(y))  # zero up to centering dust

    def test_unknown_feature_raises(self):
        model = _tiny_model([numeric_column("a")])
        with pytest.raises(KeyError):
            model.shape_curve("nope")

    def test_planted_step_exported(self, tmp_path):
        rng = np.random.default_rng(6)
        X = rng.uniform(0, 1, size=(3000, 1))
        y = 4.0 + 1.0 * (X[:, 0] > 0.5)
        model = fit_matrix(X, y, [numeric_column("x")], FAST)
        low = model.contribution_at("x", 0.25)
        high = model.contribution_at("x", 0.75)
        assert high - low == pytest.approx(1.0, abs=0.05)
        path = tmp_path / "curves.csv"
        write_shape_curves_csv(model, path)
        assert path.read_text().startswith("feature,bin_lo,bin_hi,value\n")


class TestSerialization:
    def test_round_trip_identical_predictions(self, small_registry, tmp_path):
        rng = np.random.default_rng(8)
        records = [
            make_record(
                vehicle_id=f"v{i}",
                avg=6.0 + rng.uniform(0, 2),
                vehicle_group=i % 2,
                features={
                    "rpm_high": float(rng.integers(0, 10)),
                    "mean_speed_hwy": float(rng.uniform(60, 120)),
                    "mean_exterior_temp": float(rng.uniform(270, 300)),
                },
            )
            for i in range(40)
        ]
        model = fit(DayTable.from_rows(records), small_registry, FAST)
        path = tmp_path / "model.json"
        model.save_json(path)
        loaded = AdditiveModel.load_json(path)
        table = DayTable.from_rows(records[:10])
        assert loaded.predict_many(table) == model.predict_many(table)

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda text: text[: len(text) // 2],
            lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "features"}),
            lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "format"}),
            lambda text: text.replace('"values": [', '"values": [0.5, ', 1),
            lambda text: "[1, 2]",
        ],
        ids=["truncated", "no-features", "no-format", "value-count", "not-an-object"],
    )
    def test_bad_model_file_names_it(self, tmp_path, mangle):
        X = np.random.default_rng(9).uniform(0, 1, size=(60, 1))
        path = tmp_path / "model.json"
        fit_matrix(X, 5.0 + X[:, 0], [numeric_column("a")], FAST).save_json(path)
        path.write_text(mangle(path.read_text()))
        with pytest.raises(FeedFormatError, match="model.json"):
            AdditiveModel.load_json(path)

    def test_save_is_deterministic(self, tmp_path):
        X = np.random.default_rng(9).uniform(0, 1, size=(100, 2))
        y = 5.0 + X[:, 0]
        cols = [numeric_column("a"), numeric_column("b")]
        m = fit_matrix(X, y, cols, FAST)
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        m.save_json(p1)
        fit_matrix(X, y, cols, FAST).save_json(p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestMatrixPath:
    """encode + contributions against scalar lookups, bit for bit."""

    def _model_and_records(self, small_registry):
        rng = np.random.default_rng(11)
        records = [
            make_record(
                vehicle_id=f"v{i}",
                avg=6.0 + rng.uniform(0, 2),
                vehicle_group=i % 3,
                route_type=("city", "highway")[i % 2],
                features={
                    "rpm_high": float(rng.integers(0, 10)),
                    "mean_speed_hwy": float(rng.uniform(60, 120)),
                    "mean_exterior_temp": float(rng.uniform(270, 300)),
                },
            )
            for i in range(60)
        ]
        return fit(DayTable.from_rows(records), small_registry, FAST), records

    def test_contributions_equal_scalar_lookups(self, small_registry):
        model, records = self._model_and_records(small_registry)
        unseen = make_record(vehicle_id="u", vehicle_group=7, route_type="offroad",
                             features={n: 95.0 for n in small_registry.names})
        # a value equal to a cut point falls in the bin above it
        at_cut = {}
        for n in small_registry.names:
            j = model._column_index(n)
            k = int(np.flatnonzero(np.diff(model.values[j]))[0])
            at_cut[n] = float(model.cuts[j][k])
        at_cut = make_record(vehicle_id="c", features=at_cut)
        records = records + [unseen, at_cut]
        X = model.encode(DayTable.from_rows(records))
        C = model.contributions(X)
        for i, rec in enumerate(records):
            for j, col in enumerate(model.columns):
                if col.kind == "numeric":
                    raw = rec.features[col.name]
                else:
                    raw = 1.0 if str(getattr(rec, col.origin)) == col.level else 0.0
                assert X[j][i] == raw
                assert C[j][i] == model.contribution_at(col.name, raw)

    def test_predict_many_matches_predict(self, small_registry):
        model, records = self._model_and_records(small_registry)
        many = model.predict_many(DayTable.from_rows(records))
        for i, rec in enumerate(records):
            one = DayTable.from_rows([rec])
            assert many[i] == model.predict_many(one)[0]
            contributions = [c[0] for c in model.contributions(model.encode(one))]
            assert many[i] == model.intercept + float(np.array(contributions).sum())
        assert model.predict_many(DayTable.from_rows([])) == []

    def test_encode_reports_first_bad_record(self, small_registry):
        model, records = self._model_and_records(small_registry)
        nan_first = make_record(vehicle_id="a", features={"rpm_high": 1.0, "mean_speed_hwy": float("nan"),
                                                          "mean_exterior_temp": 280.0})
        missing_later = make_record(vehicle_id="b", features={"rpm_high": 1.0})
        with pytest.raises(DataError) as info:
            model.encode(DayTable.from_rows([nan_first, missing_later]))
        assert not isinstance(info.value, MissingFeatureError)
        with pytest.raises(MissingFeatureError, match="mean_speed_hwy"):
            model.encode(DayTable.from_rows([missing_later, nan_first]))


class TestDesignMatrix:
    def test_columns_are_registry_then_categoricals(self, small_registry):
        records = [
            make_record(vehicle_id="a", vehicle_group=0, features={n: 1.0 for n in small_registry.names}),
            make_record(vehicle_id="b", vehicle_group=1, features={n: 2.0 for n in small_registry.names}),
        ]
        X, columns = build_design(DayTable.from_rows(records), small_registry)
        numeric = [c.name for c in columns if c.kind == "numeric"]
        assert numeric == list(small_registry.names)
        assert X.shape == (2, len(columns))


# ---------------------------------------------------------------------------
# Reference trainer: each bag boosted on its own, one Python loop per bag.
# The batched trainer must reproduce it bit for bit.


def _ref_best_split(csum, ccnt, lo, hi):
    if hi - lo < 2:
        return None
    base_s = csum[lo - 1] if lo > 0 else 0.0
    base_c = ccnt[lo - 1] if lo > 0 else 0.0
    total_s = csum[hi - 1] - base_s
    total_c = ccnt[hi - 1] - base_c
    if total_c <= 0:
        return None
    ls = csum[lo : hi - 1] - base_s
    lc = ccnt[lo : hi - 1] - base_c
    rs = total_s - ls
    rc = total_c - lc
    valid = (lc > 0) & (rc > 0)
    if not valid.any():
        return None
    gain = np.full(ls.shape, -np.inf)
    np.divide(ls * ls, lc, out=gain, where=valid)
    gain[valid] += (rs * rs)[valid] / rc[valid]
    gain -= total_s * total_s / total_c
    gain[~valid] = -np.inf
    k = int(np.argmax(gain))
    if gain[k] <= 0:
        return None
    return lo + 1 + k, float(gain[k])


def _ref_tree_update(sums, cnts, max_leaves, lr):
    csum = np.cumsum(sums)
    ccnt = np.cumsum(cnts)
    nb = sums.shape[0]
    segments = [(0, nb)]
    while len(segments) < max_leaves:
        best = None
        best_seg = -1
        for i, (lo, hi) in enumerate(segments):
            cand = _ref_best_split(csum, ccnt, lo, hi)
            if cand is not None and (best is None or cand[1] > best[1]):
                best = cand
                best_seg = i
        if best is None:
            break
        lo, hi = segments[best_seg]
        segments[best_seg : best_seg + 1] = [(lo, best[0]), (best[0], hi)]
    delta = np.zeros(nb, dtype=np.float64)
    for lo, hi in segments:
        base_s = csum[lo - 1] if lo > 0 else 0.0
        base_c = ccnt[lo - 1] if lo > 0 else 0.0
        seg_c = ccnt[hi - 1] - base_c
        if seg_c > 0:
            delta[lo:hi] = lr * (csum[hi - 1] - base_s) / seg_c
    return delta


def _ref_fit_bag(seed_seq, y, bins, n_bins, config):
    rng = np.random.default_rng(seed_seq)
    n = y.shape[0]
    perm = rng.permutation(n)
    n_val = max(1, int(round(n * config.validation_fraction)))
    val_idx = perm[:n_val]
    pool = perm[n_val:]
    boot_idx = rng.choice(pool, size=pool.size, replace=True)
    tb = [b[boot_idx] for b in bins]
    vb = [b[val_idx] for b in bins]
    y_boot = y[boot_idx]
    y_val = y[val_idx]
    intercept = float(y_boot.mean())
    shapes = [np.zeros(nb, dtype=np.float64) for nb in n_bins]
    residual = y_boot - intercept
    val_pred = np.full(y_val.shape, intercept, dtype=np.float64)
    history = BagHistory()
    best_val = np.inf
    best_shapes = [s.copy() for s in shapes]
    stale = 0
    for rnd in range(config.max_rounds):
        for j in range(len(bins)):
            if n_bins[j] == 1:
                continue
            sums = np.bincount(tb[j], weights=residual, minlength=n_bins[j])
            cnts = np.bincount(tb[j], minlength=n_bins[j]).astype(np.float64)
            delta = _ref_tree_update(sums, cnts, config.max_leaves, config.learning_rate)
            shapes[j] += delta
            residual -= delta[tb[j]]
            val_pred += delta[vb[j]]
        history.train_rmse.append(float(np.sqrt(np.mean(residual * residual))))
        val_rmse = float(np.sqrt(np.mean((y_val - val_pred) ** 2)))
        history.val_rmse.append(val_rmse)
        if val_rmse < best_val:
            best_val = val_rmse
            best_shapes = [s.copy() for s in shapes]
            history.best_round = rnd
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break
    history.stopped_round = len(history.val_rmse) - 1
    return intercept, best_shapes, history


def _ref_fit_matrix(X, y, columns, config):
    cuts = build_bins(X, config.max_bins)
    n_bins = [c.size + 1 for c in cuts]
    bins = [np.searchsorted(cuts[j], X[:, j], side="right") for j in range(X.shape[1])]
    seeds = np.random.SeedSequence(config.seed).spawn(config.bags)
    results = [_ref_fit_bag(seeds[b], y, bins, n_bins, config) for b in range(config.bags)]
    intercept = float(np.mean([r[0] for r in results]))
    values = [np.stack([r[1][j] for r in results]).mean(axis=0) for j in range(len(columns))]
    for j in range(len(columns)):
        mass = float(values[j][bins[j]].mean())
        values[j] = values[j] - mass
        intercept += mass
    return AdditiveModel(
        intercept=intercept,
        columns=list(columns),
        cuts=[c.tolist() for c in cuts],
        values=[v.tolist() for v in values],
        config=config,
        history=[r[2] for r in results],
    )


def _mixed_problem(seed, n, duplicate=False):
    """Constant, binary, few-level and 256-bin columns with a planted signal."""
    rng = np.random.default_rng(seed)
    cols = [
        np.full(n, 2.5),
        rng.integers(0, 2, n).astype(float),
        rng.integers(0, 6, n).astype(float),
        rng.uniform(0, 1, n),
    ]
    if duplicate:
        cols.append(cols[3].copy())
    X = np.column_stack(cols)
    y = 6.0 + 0.8 * X[:, 1] + 0.3 * X[:, 2] + 2.0 * (X[:, 3] > 0.6) + rng.normal(0, 0.3, n)
    return X, y, [numeric_column(f"c{j}") for j in range(X.shape[1])]


def _assert_same_as_reference(X, y, columns, config):
    batched = fit_matrix(X, y, columns, config)
    reference = _ref_fit_matrix(X, y, columns, config)
    assert json.dumps(batched.to_dict()) == json.dumps(reference.to_dict())
    assert batched.history == reference.history
    return batched


class TestBatchedMatchesPerBag:
    def test_mixed_columns_and_uneven_early_stops(self):
        X, y, columns = _mixed_problem(11, 600)
        config = TrainConfig(learning_rate=0.1, max_rounds=300, patience=8, bags=5, seed=3)
        model = _assert_same_as_reference(X, y, columns, config)
        assert [len(c) for c in model.cuts][:2] == [0, 1]
        assert len(model.cuts[3]) == 255
        stops = [h.stopped_round for h in model.history]
        assert len(set(stops)) > 1 and max(stops) < config.max_rounds - 1

    @pytest.mark.parametrize("max_leaves", [2, 3, 4])
    def test_max_leaves(self, max_leaves):
        X, y, columns = _mixed_problem(12, 400)
        config = TrainConfig(
            learning_rate=0.2, max_rounds=60, patience=10, bags=3, seed=1, max_leaves=max_leaves
        )
        _assert_same_as_reference(X, y, columns, config)

    def test_single_bag(self):
        X, y, columns = _mixed_problem(13, 300)
        config = TrainConfig(learning_rate=0.1, max_rounds=80, patience=15, bags=1, seed=8)
        _assert_same_as_reference(X, y, columns, config)

    def test_identical_columns_tie(self):
        X, y, columns = _mixed_problem(14, 400, duplicate=True)
        config = TrainConfig(learning_rate=0.1, max_rounds=60, patience=60, bags=3, seed=2)
        model = _assert_same_as_reference(X, y, columns, config)
        assert model.cuts[3] == model.cuts[4]

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(30, 250),
        d=st.integers(1, 4),
        bags=st.integers(1, 4),
        max_leaves=st.integers(2, 4),
        max_bins=st.sampled_from([2, 5, 32, 256]),
        patience=st.integers(1, 12),
    )
    def test_random_problems(self, seed, n, d, bags, max_leaves, max_bins, patience):
        rng = np.random.default_rng(seed)
        levels = rng.integers(1, 40, size=d)
        X = np.column_stack([rng.integers(0, k, n).astype(float) for k in levels])
        y = 4.0 + X @ rng.normal(0, 0.2, d) + rng.normal(0, 0.5, n)
        config = TrainConfig(
            learning_rate=0.15,
            max_rounds=30,
            patience=patience,
            bags=bags,
            seed=seed,
            max_leaves=max_leaves,
            max_bins=max_bins,
        )
        columns = [numeric_column(f"x{j}") for j in range(d)]
        _assert_same_as_reference(X, y, columns, config)


class TestBatchedTreeStep:
    """Small integer histograms make equal gains and zero gains common."""

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        bags=st.integers(1, 4),
        nb=st.integers(2, 9),
        rows=st.integers(1, 24),
        max_leaves=st.integers(2, 5),
    )
    def test_matches_per_bag_tree(self, seed, bags, nb, rows, max_leaves):
        rng = np.random.default_rng(seed)
        bins = rng.integers(0, nb, size=(bags, rows))
        residual = rng.integers(-2, 3, size=(bags, rows)).astype(float)
        col = _Column(bins, bins, nb)
        sums = np.zeros((bags, nb + 1))
        for b in range(bags):
            sums[b, 1:] = np.bincount(bins[b], weights=residual[b], minlength=nb)
        with np.errstate(divide="ignore", invalid="ignore"):
            delta = _tree_deltas(np.cumsum(sums, axis=1), col, max_leaves, 0.5)
        for b in range(bags):
            cnts = np.bincount(bins[b], minlength=nb).astype(float)
            expected = _ref_tree_update(sums[b, 1:], cnts, max_leaves, 0.5)
            assert delta[b, 1:].tolist() == expected.tolist()


    def test_equal_gains_in_two_segments_split_the_earlier(self):
        # after the cut at bin 3, splitting [0, 3) at 1 and [3, 6) at 4 gain
        # exactly the same; the per-bag loop splits the earlier segment
        bins = np.array([[0, 1, 2, 2, 3, 4, 4, 5]])
        residual = np.array([[0.0, -1.0, -1.0, -1.0, 1.0, 0.0, 0.0, 0.0]])
        col = _Column(bins, bins, 6)
        sums = np.concatenate([[0.0], np.bincount(bins[0], weights=residual[0])])
        with np.errstate(divide="ignore", invalid="ignore"):
            delta = _tree_deltas(np.cumsum(sums)[None, :], col, 3, 1.0)
        assert delta[0, 1:].tolist() == [0.0, -1.0, -1.0, 0.25, 0.25, 0.25]
        cnts = np.bincount(bins[0]).astype(float)
        assert delta[0, 1:].tolist() == _ref_tree_update(sums[1:], cnts, 3, 1.0).tolist()


class TestTrainHistory:
    def test_rows_per_bag_and_one_best(self, tmp_path):
        X, y, columns = _mixed_problem(15, 300)
        config = TrainConfig(learning_rate=0.1, max_rounds=200, patience=6, bags=3, seed=4)
        model = fit_matrix(X, y, columns, config)
        path = tmp_path / "train_history.csv"
        write_train_history_csv(model, path)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["bag", "round", "train_rmse", "val_rmse", "best"]
        for bag, h in enumerate(model.history):
            mine = [r for r in rows if int(r["bag"]) == bag]
            assert len(mine) == h.stopped_round + 1
            assert [int(r["round"]) for r in mine] == list(range(h.stopped_round + 1))
            assert [int(r["round"]) for r in mine if r["best"] == "1"] == [h.best_round]
            assert [float(r["val_rmse"]) for r in mine] == h.val_rmse
            assert [float(r["train_rmse"]) for r in mine] == h.train_rmse

