"""Independent output checker and quality oracle.

Reads the pipeline's artifacts with ``csv``, ``json`` and numpy only and
never imports fleetfuel, so a defect in the program's own readers, rules
or evaluation code cannot hide itself here.  Each ``check_<stage>``
returns a list of problems (empty when the stage's outputs are correct).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import statistics
from pathlib import Path

import numpy as np

MODEL_FORMAT = "fleetfuel-additive-model"
LABELS = {"inlier", "outlier"}
# y_pred and y_diff are recomputed here in another summation order
PRED_TOLERANCE = 1e-9

# byte-compared artifacts and the stage that writes each of them
DIGEST_STAGE = {
    "model.json": "train",
    "explanations.csv": "explain",
    "report_model_metrics.json": "evaluate",
    "report_model_metrics.csv": "evaluate",
    "report_category_impact.json": "evaluate",
    "report_category_impact.csv": "evaluate",
    "report_outlier_explained.json": "evaluate",
    "report_outlier_explained.csv": "evaluate",
    "report_catalog_mape.json": "evaluate",
    "report_catalog_mape.csv": "evaluate",
    "monthly_impact.json": "impact",
    "monthly_impact.csv": "impact",
}


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def stage_digests(out_dir: Path, stage: str) -> dict[str, str]:
    """sha256 of the byte-compared artifacts the stage wrote."""
    return {
        name: sha256(out_dir / name)
        for name, producer in DIGEST_STAGE.items()
        if producer == stage and (out_dir / name).exists()
    }


def read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def read_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# model evaluation from model.json alone


def read_model(path: Path) -> dict:
    """model.json with each column's cuts and values as arrays."""
    model = read_json(path)
    for feat in model["features"]:
        feat["cuts"] = np.asarray(feat["cuts"], dtype=np.float64)
        feat["values"] = np.asarray(feat["values"], dtype=np.float64)
    model["by_name"] = {feat["name"]: feat for feat in model["features"]}
    return model


def predict(model: dict, rows: list[dict[str, str]]) -> np.ndarray:
    """Intercept plus the per-column shape values for FAR rows."""
    contrib = np.empty((len(rows), len(model["features"])), dtype=np.float64)
    for j, feat in enumerate(model["features"]):
        if feat["kind"] == "numeric":
            x = np.array([float(r[feat["name"]]) for r in rows], dtype=np.float64)
        else:
            x = np.array([1.0 if r[feat["origin"]] == feat["level"] else 0.0 for r in rows])
        contrib[:, j] = feat["values"][np.searchsorted(feat["cuts"], x, side="right")]
    return float(model["intercept"]) + contrib.sum(axis=1)


def lookup(model: dict, name: str, value: float) -> float:
    """Shape-function value of one column at a raw value."""
    feat = model["by_name"][name]
    return float(feat["values"][np.searchsorted(feat["cuts"], value, side="right")])


def truth_rmse(out_dir: Path, fleet_dir: Path) -> float:
    """RMSE of the model against the planted noise-free fuel on inlier days.

    Planted fuel is ``base_fuel`` plus every ``contrib_*`` column of
    truth_days.csv; the prediction is computed from model.json and
    far_labeled.csv.
    """
    model = read_model(out_dir / "model.json")
    inliers = [r for r in read_rows(out_dir / "far_labeled.csv") if r["anomaly_label"] == "inlier"]
    truth = {}
    for r in read_rows(fleet_dir / "truth_days.csv"):
        planted = float(r["base_fuel"]) + sum(float(v) for k, v in r.items() if k.startswith("contrib_"))
        truth[(r["vehicle_id"], r["date"])] = planted
    pred = predict(model, inliers)
    target = np.array([truth[(r["vehicle_id"], r["date"])] for r in inliers])
    return float(np.sqrt(np.mean((pred - target) ** 2)))


# ---------------------------------------------------------------------------
# per-stage checks


def check_ingest(out_dir: Path, expected_days: int) -> list[str]:
    problems = []
    report = read_json(out_dir / "ingest_report.json")
    if any(report["rejects"].values()):
        problems.append(f"ingest rejected rows: {report['rejects']}")
    n = len(read_rows(out_dir / "far_raw.csv"))
    if n != expected_days or report["n_records"] != expected_days:
        problems.append(f"far_raw.csv has {n} records, expected {expected_days}")
    return problems


def check_clean(out_dir: Path, expected_days: int) -> list[str]:
    problems = []
    labeled = read_rows(out_dir / "far_labeled.csv")
    labels = {r["anomaly_label"] for r in labeled}
    if not labels <= LABELS:
        problems.append(f"unexpected labels {sorted(labels - LABELS)}")
    if not 0.9 * expected_days <= len(labeled) <= expected_days:
        problems.append(f"far_labeled.csv has {len(labeled)} of {expected_days} days")
    for r in labeled:
        if any(v == "" for v in r.values()):
            problems.append(f"far_labeled.csv has an empty cell on {r['vehicle_id']}/{r['date']}")
            break
    if not read_rows(out_dir / "far_training.csv"):
        problems.append("far_training.csv is empty")
    return problems


def check_train(out_dir: Path) -> list[str]:
    problems = []
    model = read_json(out_dir / "model.json")
    if model.get("format") != MODEL_FORMAT or not model.get("features"):
        problems.append("model.json is not an additive model")
    for feat in model.get("features", []):
        if len(feat["values"]) != len(feat["cuts"]) + 1:
            problems.append(f"model column {feat['name']} has mismatched cuts and values")
    mape = read_json(out_dir / "train_metrics.json")["median_vehicle_mape"]
    # the acceptance suite's quality gate on a planted fleet
    if not (isinstance(mape, float) and 0.0 < mape < 10.0):
        problems.append(f"median vehicle MAPE {mape!r} outside (0, 10)")
    return problems


def inlier_fuel_medians(labeled: list[dict[str, str]]):
    """Median inlier fuel per (group, route), per route and fleet-wide."""
    cell: dict[tuple[str, str], list[float]] = {}
    route: dict[str, list[float]] = {}
    fleet: list[float] = []
    for r in labeled:
        if r["anomaly_label"] != "inlier" or r["avg_fuel_consumption"] == "":
            continue
        fuel = float(r["avg_fuel_consumption"])
        cell.setdefault((r["vehicle_group"], r["route_type"]), []).append(fuel)
        route.setdefault(r["route_type"], []).append(fuel)
        fleet.append(fuel)
    med = statistics.median
    cell_m = {k: med(v) for k, v in cell.items()}
    route_m = {k: med(v) for k, v in route.items()}
    fleet_m = med(fleet) if fleet else None

    def lookup_median(group: str, route_type: str):
        value = cell_m.get((group, route_type))
        if value is None:
            value = route_m.get(route_type)
        return fleet_m if value is None else value

    return lookup_median


def check_explain(out_dir: Path, br2_threshold: float, br5_cap: float) -> list[str]:
    """BR2, BR3, BR5, y_fuel_new, y_pred and the priced savings."""
    rows = read_rows(out_dir / "explanations.csv")
    if not rows:
        return ["explanations.csv has no rows"]
    model = read_model(out_dir / "model.json")
    labeled = read_rows(out_dir / "far_labeled.csv")
    fuel_median = inlier_fuel_medians(labeled)
    days = {(r["vehicle_id"], r["date"]): r for r in labeled}

    by_day: dict[tuple[str, str], list[dict[str, str]]] = {}
    for row in rows:
        by_day.setdefault((row["vehicle_id"], row["date_tx"]), []).append(row)
    keys = list(by_day)
    preds = predict(model, [days[k] for k in keys])

    bad = dict.fromkeys(("BR2", "BR3", "BR5", "y_fuel_new", "y_pred", "y_diff"), 0)
    for key, pred in zip(keys, preds):
        day_rows = by_day[key]
        avg = float(day_rows[0]["avg_fuel_consumption"])
        total = 0.0
        for row in day_rows:
            total += float(row["y_diff"])
        if total > br5_cap * avg:
            bad["BR5"] += 1
        median = fuel_median(day_rows[0]["vehicle_group"], day_rows[0]["route_type"])
        if median is not None and not avg > median:
            bad["BR3"] += 1
        for row in day_rows:
            y_diff = float(row["y_diff"])
            if y_diff / avg < br2_threshold:
                bad["BR2"] += 1
            if float(row["y_fuel_new"]) != avg - total:
                bad["y_fuel_new"] += 1
            if not math.isclose(float(row["y_pred"]), pred, rel_tol=0.0, abs_tol=PRED_TOLERANCE):
                bad["y_pred"] += 1
            saving = lookup(model, row["feature"], float(row["feature_value"])) - lookup(
                model, row["feature"], float(row["target_value"])
            )
            if not math.isclose(y_diff, saving, rel_tol=0.0, abs_tol=PRED_TOLERANCE):
                bad["y_diff"] += 1
    return [f"{n} explanation rows break {what}" for what, n in bad.items() if n]


REPORTS = ("model_metrics", "category_impact", "outlier_explained", "catalog_mape")


def check_evaluate(out_dir: Path) -> list[str]:
    problems = []
    for name in REPORTS:
        payload = read_json(out_dir / f"report_{name}.json")
        if not payload:
            problems.append(f"report_{name}.json is empty")
        if not read_rows(out_dir / f"report_{name}.csv"):
            problems.append(f"report_{name}.csv has no rows")
    if not read_json(out_dir / "report_category_impact.json")["impacts"]:
        problems.append("report_category_impact.json has no impacts")
    return problems


def check_impact(out_dir: Path, expected_months: int) -> list[str]:
    """One row per month; totals equal the labeled fuel and priced rows."""
    problems = []
    months = read_json(out_dir / "monthly_impact.json")["months"]
    if len(months) != expected_months:
        problems.append(f"monthly_impact.json has {len(months)} months, expected {expected_months}")
    labeled = read_rows(out_dir / "far_labeled.csv")
    kms = {(r["vehicle_id"], r["date"]): float(r["trip_kms"]) for r in labeled}
    fuel: dict[str, float] = {}
    for r in labeled:
        fuel[r["date"][:7]] = fuel.get(r["date"][:7], 0.0) + float(r["trip_fuel_used"])
    extra: dict[str, float] = {}
    for row in read_rows(out_dir / "explanations.csv"):
        liters = float(row["y_diff"]) * kms[(row["vehicle_id"], row["date_tx"])] / 100.0
        extra[row["date_tx"][:7]] = extra.get(row["date_tx"][:7], 0.0) + liters
    for m in months:
        month = m["month"]
        if not math.isclose(m["total_fuel_l"], fuel.get(month, 0.0), rel_tol=1e-9):
            problems.append(f"{month}: total fuel {m['total_fuel_l']} != {fuel.get(month)}")
        if not math.isclose(m["extra_fuel_all_l"], extra.get(month, 0.0), rel_tol=1e-9):
            problems.append(f"{month}: extra fuel {m['extra_fuel_all_l']} != {extra.get(month)}")
        if not 0.0 <= m["extra_fuel_behaviour_l"] <= m["extra_fuel_all_l"] + 1e-9:
            problems.append(f"{month}: behaviour share outside [0, all]")
    return problems
