"""Acceptance suite: ten end-to-end criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criteria that need a fleet use the deterministic synthetic
generator; expected values come from hand arithmetic or from independent
brute-force checkers in this module, never from the code paths under test.
"""

from __future__ import annotations

import csv
import json
import math
import struct
import time
from datetime import date
from pathlib import Path

import numpy as np
import pytest

from fleetfuel.anomaly import flag_outliers, two_phase_clean
from fleetfuel.cli import main as cli_main
from fleetfuel.evaluate import monthly_impact
from fleetfuel.explain import ExplanationTable
from fleetfuel.gam import fit
from fleetfuel.ingest import (
    DayTable,
    RouteThresholds,
    aggregate_daily,
    classify_route,
    enrich_records,
    impute_missing,
    parse_feed_csv,
    quality_filter,
    read_far_csv,
)
from fleetfuel.model import AdditiveModel, FeatureColumn
from fleetfuel.registry import FeatureRegistry, TrainConfig, VinMap, assign_groups
from fleetfuel.synthgen import default_spec, generate

from .conftest import category_impact_from_prefilter_file, make_record, recompute_fuel_new


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# Shared fleets


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    """Synth fleet (5000 days, 12 features, 2% noise) through the full CLI."""
    root = tmp_path_factory.mktemp("acceptance")
    spec = default_spec(seed=13, n_vehicles=250, n_days=20)
    planted_min = min(g.base_fuel for g in spec.groups)
    planted_max = max(g.base_fuel for g in spec.groups) + sum(
        max(f.values) for f in spec.features
    )
    target_range = planted_max - planted_min
    spec.noise_sigma = round(0.02 * target_range, 4)
    spec_path = root / "spec.json"
    spec.to_json(spec_path)
    config = {
        "fleet_id": "acceptance",
        "paths": {"out_dir": str(root / "out"), "synth_spec": str(spec_path)},
        "train": {"seed": 13},
        "split": {"seed": 13},
    }
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(config))

    timings = {}
    for stage in ("synth", "ingest", "clean", "train", "explain", "evaluate", "impact"):
        t0 = time.time()
        assert cli_main([stage, "--config", str(cfg_path)]) == 0, stage
        timings[stage] = time.time() - t0
    fleet_days = _read_truth(root / "out" / "truth_days.csv")
    return {
        "root": root,
        "out": root / "out",
        "spec": spec,
        "timings": timings,
        "truth": fleet_days,
        "target_range": target_range,
    }


def _read_truth(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def noiseless_fit(tmp_path_factory):
    """Noiseless fleet fitted directly on imputed records (no cleaning)."""
    root = tmp_path_factory.mktemp("noiseless")
    spec = default_spec(seed=29, n_vehicles=250, n_days=20, noise_sigma=0.0, outlier_rate=0.0)
    fleet = generate(spec, root)
    registry = FeatureRegistry.default()
    parsed = parse_feed_csv(fleet.feed_path, registry)
    records, _ = aggregate_daily(parsed.readings, registry)
    identities = assign_groups(
        sorted({r.vehicle_id for r in records}), VinMap.from_csv(fleet.vin_map_path)
    )
    records = enrich_records(records, identities)
    impute_missing(records, registry)
    model = fit(records, registry, TrainConfig(seed=29))
    return spec, fleet, model, records


def oracle_quartiles(values):
    ordered = sorted(values)
    out = []
    for q in (0.25, 0.75):
        pos = q * (len(ordered) - 1)
        lo = math.floor(pos)
        hi = math.ceil(pos)
        out.append(
            ordered[lo] if lo == hi else ordered[lo] * (hi - pos) + ordered[hi] * (pos - lo)
        )
    return out[0], out[1]


# ---------------------------------------------------------------------------
# Criterion 1: explanation-table anchor


def test_c01_explanation_anchor():
    y_diffs = [0.22, 0.06, 1.18, 0.07, 0.12]
    fuel_new = recompute_fuel_new(9.96, y_diffs)

    # a model whose contributions at the anchor record reproduce the row:
    # the five printed relevances plus the rest of the fleet model's features
    # folded into one residual contribution summing to y_pred - intercept
    relevances = [0.2087, 0.0568, 1.0465, 0.2581, 0.0947]
    residual = (10.39 - 7.25) - sum(relevances)
    names = [
        "mean_forward_acc",
        "count_jackrabbit",
        "mean_speed_hwy",
        "mean_exterior_temp",
        "count_harsh_turns",
        "other_factors",
    ]
    contributions = relevances + [residual]
    model = AdditiveModel(
        intercept=7.25,
        columns=[FeatureColumn(name=n, kind="numeric", origin=n) for n in names],
        cuts=[[] for _ in names],
        values=[[c] for c in contributions],
        config=TrainConfig(),
    )
    record = make_record(
        features={n: v for n, v in zip(names, [2.41, 9.0, 99.5, 282.65, 11.0, 0.0])}
    )
    y_pred = model.predict_many(DayTable.from_rows([record]))[0]

    ok = abs(fuel_new - 8.31) <= 0.005 and abs(y_pred - 10.39) <= 0.005
    report(1, ok, f"y_fuel_new={fuel_new:.4f} (want 8.31), y_pred={y_pred:.4f} (want 10.39)")


# ---------------------------------------------------------------------------
# Criterion 2: CO2 anchor


def test_c02_co2_anchor(small_registry):
    rec = make_record(day="2021-02-10", trip_kms=100.0, trip_fuel_used=50.0)
    row_like = _behaviour_row(y_diff=14631.0)
    table = monthly_impact(ExplanationTable.from_rows([row_like]), DayTable.from_rows([rec]), small_registry, "anchor")
    co2 = table[0].co2_kg
    ok = abs(co2 - 39157) <= 1.0
    report(2, ok, f"14631 L -> {co2:.2f} kg CO2 (want 39157 +/- 1)")


def _behaviour_row(y_diff):
    from fleetfuel.explain import ExplanationRow

    return ExplanationRow(
        vehicle_id="v1",
        date_tx=date(2021, 2, 10),
        route_type="highway",
        vehicle_group=0,
        intercept=7.0,
        feature="rpm_high",
        feature_relevance=y_diff,
        feature_value=1.0,
        target_value=0.0,
        avg_fuel_consumption=50.0,
        limit_group=10.0,
        y_pred=10.0,
        y_diff=y_diff,
        y_fuel_new=0.0,
    )


# ---------------------------------------------------------------------------
# Criterion 3: model quality recovered on a synthetic fleet


def test_c03_synthetic_recovery(pipeline_run):
    metrics = json.loads((pipeline_run["out"] / "train_metrics.json").read_text())
    train_seconds = pipeline_run["timings"]["train"]
    sigma = pipeline_run["spec"].noise_sigma
    ratio = sigma / pipeline_run["target_range"]
    ok = (
        metrics["median_vehicle_mape"] < 10.0
        and metrics["adjusted_r2"] > 0.67
        and train_seconds < 120.0
        and 0.015 <= ratio <= 0.025
    )
    report(
        3,
        ok,
        f"mape={metrics['median_vehicle_mape']:.2f}% (<10), "
        f"adj_r2={metrics['adjusted_r2']:.3f} (>0.67), train={train_seconds:.1f}s (<120), "
        f"noise={100 * ratio:.1f}% of range",
    )


# ---------------------------------------------------------------------------
# Criterion 4: shape recovery on noiseless planted steps


def test_c04_shape_recovery(noiseless_fit):
    spec, fleet, model, records = noiseless_fit
    planted_values = [v for f in spec.features for v in f.values]
    tolerance = 0.05 * (max(planted_values) - min(planted_values))

    worst = 0.0
    worst_name = ""
    for feat in spec.features:
        observed = np.array([r.features[feat.name] for r in records])
        planted_mean = float(
            np.mean([feat.contribution(x) for x in observed])
        )
        edges = [feat.low, *feat.cuts, feat.high]
        for k in range(len(edges) - 1):
            mid = (edges[k] + edges[k + 1]) / 2.0
            if feat.integer:
                mid = float(int(round(mid)))
            if not (edges[k] <= mid < edges[k + 1]) and k < len(edges) - 2:
                continue
            learned = model.contribution_at(feat.name, mid)
            planted = feat.contribution(mid) - planted_mean
            err = abs(learned - planted)
            if err > worst:
                worst, worst_name = err, f"{feat.name}@{mid:g}"
    ok = worst <= tolerance
    report(4, ok, f"max shape error {worst:.4f} at {worst_name} (tolerance {tolerance:.4f})")


# ---------------------------------------------------------------------------
# Criterion 5: exact additive decomposition on 10,000 records


def test_c05_decomposition_identity(pipeline_run):
    model = AdditiveModel.load_json(pipeline_run["out"] / "model.json")
    registry = FeatureRegistry.default()
    rng = np.random.default_rng(99)
    groups = [0, 1, 2, 3, 17]  # 17 is unseen
    routes = ["city", "combined", "highway", "offroad"]
    records = []
    for i in range(10_000):
        rec = make_record(
            vehicle_id=f"r{i}",
            vehicle_group=int(rng.choice(groups)),
            route_type=str(rng.choice(routes)),
            features={name: float(rng.uniform(-50, 4000)) for name in registry.names},
        )
        rec.vehicle_class = int(rng.integers(0, 11))
        records.append(rec)
    table = DayTable.from_rows(records)
    # one row of contributions per record, each summed by numpy on its own
    C = np.ascontiguousarray(np.array(model.contributions(model.encode(table))).T)
    failures = sum(
        pred != model.intercept + row.sum() for pred, row in zip(model.predict_many(table), C)
    )
    report(5, failures == 0, f"{failures} of 10000 records broke predict == b0 + sum(f_i)")


def _numpy_predictions(model, records) -> list[float]:
    """intercept + C.sum(axis=1), with C looked up by np.searchsorted over a numpy design matrix."""
    X = np.array(
        [
            [rec.features[col.name] if col.kind == "numeric" else float(str(getattr(rec, col.origin)) == col.level)
             for col in model.columns]
            for rec in records
        ]
    )
    C = np.column_stack(
        [np.asarray(v)[np.searchsorted(np.asarray(c), X[:, j], side="right")]
         for j, (c, v) in enumerate(zip(model.cuts, model.values))]
    )
    return (model.intercept + C.sum(axis=1)).tolist()


def test_predict_many_equals_numpy_row_sums(pipeline_run, noiseless_fit):
    """The numpy-free predictions have numpy's bits on both fleets."""
    model = AdditiveModel.load_json(pipeline_run["out"] / "model.json")
    records = read_far_csv(pipeline_run["out"] / "far_labeled.csv", FeatureRegistry.default())
    _, _, noiseless_model, noiseless_records = noiseless_fit
    for m, recs in ((model, records), (noiseless_model, noiseless_records)):
        got = m.predict_many(recs)
        assert all(type(x) is float for x in got)
        assert [struct.pack("<d", x) for x in got] == [struct.pack("<d", x) for x in _numpy_predictions(m, recs)]


# ---------------------------------------------------------------------------
# Criterion 6: business-rule suite verified by an independent checker


def test_c06_business_rule_suite(pipeline_run):
    out = pipeline_run["out"]
    with open(out / "explanations.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert rows, "pipeline produced no explanations"
    with open(out / "inlier_medians.csv", newline="", encoding="utf-8") as fh:
        medians = {
            (int(r["vehicle_group"]), r["route_type"], r["feature"]): float(r["median_value"])
            for r in csv.DictReader(fh)
        }
    impact_types = _registry_impact_types()

    by_day: dict[tuple, list[dict]] = {}
    for row in rows:
        by_day.setdefault((row["vehicle_id"], row["date_tx"]), []).append(row)

    br5_bad = br4_bad = br2_bad = fuelnew_bad = 0
    for day_rows in by_day.values():
        avg = float(day_rows[0]["avg_fuel_consumption"])
        total = 0.0
        for row in day_rows:
            total += float(row["y_diff"])
        if total > 0.8 * avg:
            br5_bad += 1
        for row in day_rows:
            y_diff = float(row["y_diff"])
            if y_diff / avg < 0.01:
                br2_bad += 1
            if float(row["y_fuel_new"]) != avg - total:
                fuelnew_bad += 1
            key = (int(row["vehicle_group"]), row["route_type"], row["feature"])
            median = medians[key]
            value = float(row["feature_value"])
            direction = impact_types[row["feature"]]
            if direction == "Positive" and not value > median:
                br4_bad += 1
            if direction == "Negative" and not value < median:
                br4_bad += 1
    ok = br5_bad == br4_bad == br2_bad == fuelnew_bad == 0
    report(
        6,
        ok,
        f"{len(by_day)} days / {len(rows)} rows: BR5 fails={br5_bad}, BR4 fails={br4_bad}, "
        f"BR2 fails={br2_bad}, y_fuel_new mismatches={fuelnew_bad}",
    )


def _registry_impact_types() -> dict[str, str]:
    from importlib import resources

    text = resources.files("fleetfuel.data").joinpath("feature_registry.csv").read_text()
    return {r["name"]: r["impact_type"] for r in csv.DictReader(text.splitlines())}


# ---------------------------------------------------------------------------
# Criterion 7: anomaly recall and false-positive rate at 10,000 days


def test_c07_anomaly_recall(tmp_path):
    spec = default_spec(seed=21, n_vehicles=250, n_days=40, outlier_rate=0.05)
    fleet = generate(spec, tmp_path / "c7")
    registry = FeatureRegistry.default()
    parsed = parse_feed_csv(fleet.feed_path, registry)
    records, _ = aggregate_daily(parsed.readings, registry)
    identities = assign_groups(
        sorted({r.vehicle_id for r in records}), VinMap.from_csv(fleet.vin_map_path)
    )
    records = enrich_records(records, identities)
    base, _ = quality_filter(records)
    _, limits, noise = two_phase_clean(base)
    low = set(noise.low_rows)
    labeled = flag_outliers(base.take([i for i in range(len(base)) if i not in low]), limits)

    by_cell: dict[tuple, list[float]] = {}
    for d in fleet.days:
        by_cell.setdefault((d.synth_group, d.route_type), []).append(d.clean_fuel_l100)
    bars = {}
    for cell, values in by_cell.items():
        q1, q3 = oracle_quartiles(values)
        bars[cell] = q3 + 3.0 * (q3 - q1)

    labels = dict(zip(labeled.day_keys(), labeled.anomaly_label))
    planted_at_bar = [
        d for d in fleet.days
        if d.planted_outlier and d.fuel_l100 >= bars[(d.synth_group, d.route_type)]
    ]
    hits = sum(1 for d in planted_at_bar if labels.get((d.vehicle_id, d.date)) == "outlier")
    recall = hits / len(planted_at_bar)
    clean_days = [d for d in fleet.days if not d.planted_outlier]
    false_pos = sum(1 for d in clean_days if labels.get((d.vehicle_id, d.date)) == "outlier")
    fpr = false_pos / len(clean_days)
    ok = recall >= 0.95 and fpr <= 0.08 and len(fleet.days) == 10_000
    report(
        7,
        ok,
        f"{len(fleet.days)} days, {len(planted_at_bar)} planted at >=q3+3iqr: "
        f"recall={recall:.3f} (>=0.95), fpr={fpr:.3f} (<=0.08)",
    )


# ---------------------------------------------------------------------------
# Criterion 8: explained extra fuel covers the anomalous part


def test_c08_outlier_vs_explained(pipeline_run):
    payload = json.loads((pipeline_run["out"] / "report_outlier_explained.json").read_text())
    cmp = payload["comparison"]
    ok = (
        cmp is not None
        and cmp["median_explained"] >= cmp["median_anomalous"]
        and cmp["p_value"] < 0.01
    )
    report(
        8,
        ok,
        f"median explained {cmp['median_explained']:.3f} >= anomalous "
        f"{cmp['median_anomalous']:.3f}, p={cmp['p_value']:.2e} (<0.01), "
        f"n={cmp['n_outlier_days']}",
    )


# ---------------------------------------------------------------------------
# Priced savings against the planted ones, per (vehicle, date, feature)

#: bounds from the fixture's spec at seeds 1-8 and 13: the share ran 0.969-1.000
#: (seed 2 prices no row for 931 planted 0.1 L steps of rpm_orange, whose
#: reference, the model's value at 0, is learned from few days) and the
#: median error 0.021-0.042
MIN_PRICED_SHARE = 0.95
MAX_MEDIAN_SAVING_ERROR = 0.06


def test_priced_savings_match_planted_truth(pipeline_run):
    """Pre-filter rows on actionable features against truth_savings.csv, over the days explain priced."""
    out = pipeline_run["out"]
    actionable = {spec.name for spec in FeatureRegistry.default() if spec.actionable}
    # explain prices a labeled day with fuel whose (group, route) cell has limits
    cells = {(r["vehicle_group"], r["route_type"]) for r in _read_truth(out / "limits.csv")}
    priced = {
        (r["vehicle_id"], r["date"])
        for r in _read_truth(out / "far_labeled.csv")
        if r["avg_fuel_consumption"] and (r["vehicle_group"], r["route_type"]) in cells
    }
    truth = {
        (r["vehicle_id"], r["date"], r["feature"]): float(r["true_saving"])
        for r in _read_truth(out / "truth_savings.csv")
        if r["feature"] in actionable and (r["vehicle_id"], r["date"]) in priced
    }
    rows = {
        (r["vehicle_id"], r["date_tx"], r["feature"]): float(r["y_diff"])
        for r in _read_truth(out / "explanations_prefilter.csv")
        if r["feature"] in actionable
    }
    planted = [key for key, saving in truth.items() if saving >= 0.1]
    share = sum(key in rows for key in planted) / len(planted)
    error = float(np.median([abs(rows[key] - saving) for key, saving in truth.items() if key in rows]))
    print(f"\npriced share {share:.4f} of {len(planted)} planted savings >= 0.1, median error {error:.4f} L/100 km")
    assert share >= MIN_PRICED_SHARE
    assert error <= MAX_MEDIAN_SAVING_ERROR


#: bound from the fixture's spec at seeds 1-8 and 13 (spec, train and split
#: seed alike): priced minus planted ran -0.0185 (seed 6) to +0.0043 (seed 5),
#: with the planted share 0.129-0.133 of all fuel
MAX_BEHAVIOUR_SHARE_GAP = 0.025


def test_priced_behaviour_share_matches_planted(pipeline_run):
    """The paper's headline figure: the driving-behaviour share of fleet fuel, priced against planted.

    Priced: the pre-filter "Driving Behaviour" rows' y_diff x trip_kms / 100,
    over the labeled days' fuel.  Planted: truth_savings.csv on the same
    features x trip_kms / 100, over the fuel of every day in truth_days.csv.
    """
    out = pipeline_run["out"]
    behaviour = {spec.name for spec in FeatureRegistry.default() if spec.category == "Driving Behaviour"}
    labeled = _read_truth(out / "far_labeled.csv")
    kms = {(r["vehicle_id"], r["date"]): float(r["trip_kms"]) for r in labeled}
    priced = math.fsum(
        float(r["y_diff"]) * kms[r["vehicle_id"], r["date_tx"]] / 100.0
        for r in _read_truth(out / "explanations_prefilter.csv")
        if r["feature"] in behaviour
    ) / math.fsum(float(r["trip_fuel_used"]) for r in labeled)
    days = pipeline_run["truth"]
    truth_kms = {(d["vehicle_id"], d["date"]): float(d["trip_kms"]) for d in days}
    planted = math.fsum(
        float(r["true_saving"]) * truth_kms[r["vehicle_id"], r["date"]] / 100.0
        for r in _read_truth(out / "truth_savings.csv")
        if r["feature"] in behaviour
    ) / math.fsum(float(d["fuel_l100"]) * float(d["trip_kms"]) / 100.0 for d in days)
    print(f"\nbehaviour share of fuel: priced {priced:.4f}, planted {planted:.4f}")
    assert abs(priced - planted) <= MAX_BEHAVIOUR_SHARE_GAP


def test_prefilter_rows_are_actionable_registry_features(pipeline_run):
    """The model has indicator columns for the categorical contexts, but explain prices none of them."""
    out = pipeline_run["out"]
    model = json.loads((out / "model.json").read_text())
    assert any(col["kind"] == "indicator" for col in model["features"])
    actionable = {spec.name for spec in FeatureRegistry.default() if spec.actionable}
    features = {r["feature"] for r in _read_truth(out / "explanations_prefilter.csv")}
    assert features and features <= actionable


def test_category_impact_equals_the_prefilter_file_path(pipeline_run, tmp_path):
    """explain's category-impact report is, byte for byte, the one made by reading the pre-filter file back."""
    out = pipeline_run["out"]
    reference = category_impact_from_prefilter_file(out, tmp_path, "acceptance", 0.01)
    assert {name: (out / name).read_bytes() for name in reference} == reference


# ---------------------------------------------------------------------------
# Criterion 9: route classifier vs brute force on 10,000 pairs


def test_c09_route_classifier():
    th = RouteThresholds()

    def brute(ptc, kms):
        if ptc <= th.low_th_time and kms >= th.th_kms:
            return "highway"
        elif ptc >= th.high_th_time and kms <= th.th_kms:
            return "city"
        else:
            return "combined"

    rng = np.random.default_rng(7)
    disagreements = 0
    n = 0
    boundary_ptc = [0.0, 0.5, 0.5 - 1e-12, 0.5 + 1e-12, 0.65, 0.65 - 1e-12, 0.65 + 1e-12, 1.0]
    boundary_kms = [0.0, 30.0, 30.0 - 1e-9, 30.0 + 1e-9, 400.0]
    for ptc in boundary_ptc:
        for kms in boundary_kms:
            n += 1
            if classify_route(ptc, kms, th) != brute(ptc, kms):
                disagreements += 1
    while n < 10_000:
        ptc = float(rng.uniform(0, 1))
        kms = float(rng.uniform(0, 400))
        n += 1
        if classify_route(ptc, kms, th) != brute(ptc, kms):
            disagreements += 1
    report(9, disagreements == 0, f"{n} pairs incl. boundaries, {disagreements} disagreements")


# ---------------------------------------------------------------------------
# Criterion 10: end-to-end byte determinism


def test_c10_pipeline_determinism(tmp_path, monkeypatch):
    spec = default_spec(seed=4, n_vehicles=40, n_days=12)
    config = {
        "fleet_id": "det",
        "paths": {"out_dir": "out", "synth_spec": "spec.json"},
        "train": {"max_rounds": 150, "patience": 20, "bags": 2, "learning_rate": 0.08, "seed": 4},
        "split": {"seed": 4},
    }

    blobs = {}
    for run in ("a", "b"):
        run_dir = tmp_path / run
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        spec.to_json(run_dir / "spec.json")
        (run_dir / "config.json").write_text(json.dumps(config))
        assert cli_main(["synth", "--config", "config.json"]) == 0
        assert cli_main(["pipeline", "--config", "config.json"]) == 0
        blobs[run] = {
            p.name: p.read_bytes()
            for p in (run_dir / "out").iterdir()
            if p.name == "model.json"
            or p.name.startswith("report_")
            or p.name.startswith("monthly_impact")
            or p.name in ("explanations.csv", "manifest.json")
        }
    mismatches = [n for n in blobs["a"] if blobs["a"][n] != blobs["b"].get(n)]
    ok = not mismatches and len(blobs["a"]) >= 9
    report(10, ok, f"{len(blobs['a'])} artifacts compared, mismatches: {mismatches or 'none'}")
