"""Per-vehicle-day explanations: liters/100 km saved per actionable factor.

For every labeled vehicle-day and every actionable feature, the saving is
the drop in the model's shape-function value when the feature moves from
its observed value to a reference value: zero for reference-zero features,
otherwise the median over fuel-inlier days of the same vehicle group and
route type.  Only positive savings become explanation rows.  Five business
rules then prune the rows:

  BR1  drop one-hot / categorical features (not actionable);
  BR2  drop rows whose relative impact on the day's fuel is below 1%;
  BR3  keep only days whose fuel exceeds the group-route inlier median;
  BR4  require the value above the inlier median for Positive-impact
       features, below it for Negative ones;
  BR5  drop whole days whose total claimed saving exceeds 80% of the
       day's fuel (not physically possible).

Savings come from one contribution matrix.  The model encodes every
priced day into an (n days x d columns) design matrix and looks up each
column's shape values in one ``searchsorted`` over all days; reference
values are priced once per (group, route) cell and gathered to the days,
so the savings are ``C(x) - C(x_ref)`` over the actionable columns.  The
arithmetic per entry is the scalar lookup's, so rows are bit-identical to
pricing day by day.  The matrices take 8 bytes per day and model column
each (about 0.5 MB for 1,600 days x 37 columns).  Categorical origins,
priced against the cell's most common inlier level, use a cache per
(origin, level).
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass, replace
from datetime import date as date_type
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .anomaly import LimitTable
from .errors import FeedFormatError
from .gam import KIND_NUMERIC, AdditiveModel
from .ingest import FarRecord
from .registry import FeatureRegistry, csv_cell, median

logger = logging.getLogger(__name__)

REFERENCE_ZERO = "zero"
REFERENCE_MEDIAN = "median_inlier"

BR_ORDER = ("BR1", "BR3", "BR4", "BR2", "BR5")

DEFAULT_BR2_THRESHOLD = 0.01
DEFAULT_BR5_CAP = 0.8

EXPLANATION_COLUMNS = (
    "vehicle_id",
    "date_tx",
    "route_type",
    "vehicle_group",
    "intercept",
    "feature",
    "feature_relevance",
    "feature_value",
    "target_value",
    "avg_fuel_consumption",
    "limit_group",
    "y_pred",
    "y_diff",
    "y_fuel_new",
)


def _mode(values: list[str]) -> str:
    counts: dict[str, int] = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    return min(counts, key=lambda k: (-counts[k], k))


class ReferencePolicy:
    """Reference values and inlier medians keyed by (group, route).

    Medians tier down like imputation does: the (group, route) cell, then
    the route across the fleet, then the whole fleet, then zero.
    """

    def __init__(self, registry: FeatureRegistry):
        self.registry = registry
        self._cell: dict[tuple[int, str, str], float] = {}
        self._route: dict[tuple[str, str], float] = {}
        self._fleet: dict[str, float] = {}
        self._fuel_cell: dict[tuple[int, str], float] = {}
        self._fuel_route: dict[str, float] = {}
        self._fuel_fleet: float | None = None
        self._mode_cell: dict[tuple[int, str, str], str] = {}
        self._mode_fleet: dict[str, str] = {}

    @classmethod
    def from_records(
        cls,
        registry: FeatureRegistry,
        inlier_records: Sequence[FarRecord],
        categoricals: Sequence[str] = (),
    ) -> "ReferencePolicy":
        policy = cls(registry)
        cell_vals: dict[tuple[int, str, str], list[float]] = {}
        route_vals: dict[tuple[str, str], list[float]] = {}
        fleet_vals: dict[str, list[float]] = {}
        fuel_cell: dict[tuple[int, str], list[float]] = {}
        fuel_route: dict[str, list[float]] = {}
        fuel_fleet: list[float] = []
        mode_cell: dict[tuple[int, str, str], list[str]] = {}
        mode_fleet: dict[str, list[str]] = {}
        for rec in inlier_records:
            for name, value in rec.features.items():
                if name not in registry:
                    continue
                cell_vals.setdefault((rec.vehicle_group, rec.route_type, name), []).append(value)
                route_vals.setdefault((rec.route_type, name), []).append(value)
                fleet_vals.setdefault(name, []).append(value)
            if rec.avg_fuel_consumption is not None:
                fuel_cell.setdefault(rec.group_route, []).append(rec.avg_fuel_consumption)
                fuel_route.setdefault(rec.route_type, []).append(rec.avg_fuel_consumption)
                fuel_fleet.append(rec.avg_fuel_consumption)
            for cat in categoricals:
                level = str(getattr(rec, cat))
                mode_cell.setdefault((rec.vehicle_group, rec.route_type, cat), []).append(level)
                mode_fleet.setdefault(cat, []).append(level)

        policy._cell = {k: median(v) for k, v in cell_vals.items()}
        policy._route = {k: median(v) for k, v in route_vals.items()}
        policy._fleet = {k: median(v) for k, v in fleet_vals.items()}
        policy._fuel_cell = {k: median(v) for k, v in fuel_cell.items()}
        policy._fuel_route = {k: median(v) for k, v in fuel_route.items()}
        policy._fuel_fleet = median(fuel_fleet) if fuel_fleet else None
        policy._mode_cell = {k: _mode(v) for k, v in mode_cell.items()}
        policy._mode_fleet = {k: _mode(v) for k, v in mode_fleet.items()}
        return policy

    def reference_kind(self, feature: str) -> str:
        return REFERENCE_ZERO if self.registry[feature].reference_zero else REFERENCE_MEDIAN

    def feature_median(self, vehicle_group: int, route_type: str, feature: str) -> float:
        """Inlier median with route / fleet fallbacks (0.0 when unobserved)."""
        value = self._cell.get((vehicle_group, route_type, feature))
        if value is None:
            value = self._route.get((route_type, feature))
        if value is None:
            value = self._fleet.get(feature)
        return 0.0 if value is None else value

    def fuel_median(self, vehicle_group: int, route_type: str) -> float | None:
        value = self._fuel_cell.get((vehicle_group, route_type))
        if value is None:
            value = self._fuel_route.get(route_type)
        if value is None:
            value = self._fuel_fleet
        return value

    def categorical_mode(self, vehicle_group: int, route_type: str, field_name: str) -> str | None:
        value = self._mode_cell.get((vehicle_group, route_type, field_name))
        if value is None:
            value = self._mode_fleet.get(field_name)
        return value

    def reference_value(self, feature: str, vehicle_group: int, route_type: str) -> float:
        """Counterfactual target for the feature on this group and route."""
        if self.reference_kind(feature) == REFERENCE_ZERO:
            return 0.0
        return self.feature_median(vehicle_group, route_type, feature)


def fuel_saving(
    model: AdditiveModel, record: FarRecord, feature: str, x_ref: float
) -> float:
    """Shape-value drop when the feature moves to its reference.

    Negative values mean the reference would cost fuel; callers treat those
    as no saving and exclude the feature.
    """
    current = record.features[feature]
    return model.contribution_at(feature, current) - model.contribution_at(feature, x_ref)


@dataclass
class ExplanationRow:
    """One (vehicle, date, feature) recommendation."""

    vehicle_id: str
    date_tx: date_type
    route_type: str
    vehicle_group: int
    intercept: float
    feature: str
    feature_relevance: float
    feature_value: float | str
    target_value: float | str
    avg_fuel_consumption: float
    limit_group: float
    y_pred: float
    y_diff: float
    y_fuel_new: float

    @property
    def day_key(self) -> tuple[str, date_type]:
        return (self.vehicle_id, self.date_tx)


def recompute_fuel_new(avg_fuel: float, y_diffs: Iterable[float]) -> float:
    """New daily fuel after applying every surviving recommendation."""
    return avg_fuel - sum(y_diffs)


def _day_totals(rows: Sequence[ExplanationRow]) -> dict[tuple, float]:
    totals: dict[tuple, float] = {}
    for row in rows:
        totals[row.day_key] = totals.get(row.day_key, 0.0) + row.y_diff
    return totals


def _set_fuel_new(rows: list[ExplanationRow]) -> list[ExplanationRow]:
    totals = _day_totals(rows)
    return [
        replace(row, y_fuel_new=recompute_fuel_new(row.avg_fuel_consumption, [totals[row.day_key]]))
        for row in rows
    ]


def generate_daily_explanations(
    model: AdditiveModel,
    records: Sequence[FarRecord],
    policy: ReferencePolicy,
    limits: LimitTable,
) -> list[ExplanationRow]:
    """Raw explanation rows (positive savings only), before business rules.

    Rows cover actionable registry features and, so the categorical filter
    has real work to do, the model's categorical origins priced against the
    group's most common inlier level.  Records whose cell has no published
    limit are skipped.  Rows come day by day in (vehicle, date) order, each
    day's numeric features in model column order before its categoricals.
    """
    registry = policy.registry
    cols = [
        j
        for j, col in enumerate(model.columns)
        if col.kind == KIND_NUMERIC and col.name in registry and registry[col.name].actionable
    ]
    names = [model.columns[j].name for j in cols]
    cat_origins: list[str] = []
    for col in model.columns:
        if col.kind != KIND_NUMERIC and col.origin not in cat_origins:
            cat_origins.append(col.origin)

    kept: list[FarRecord] = []
    lim_sup: list[float] = []
    for rec in sorted(records, key=lambda r: r.day_key):
        lim = None if rec.avg_fuel_consumption is None else limits.lookup(rec.vehicle_group, rec.route_type)
        if lim is not None:
            kept.append(rec)
            lim_sup.append(lim.lim_sup)
    if len(kept) < len(records):
        logger.info("explanations skipped %d records without fuel or limits", len(records) - len(kept))

    C = model.contributions(model.encode(kept))
    y_pred = (model.intercept + C.sum(axis=1)).tolist()

    # reference values once per (group, route) cell, priced like the days
    cell_ids: dict[tuple[int, str], int] = {}
    cell_of = [cell_ids.setdefault(rec.group_route, len(cell_ids)) for rec in kept]
    targets = [[policy.reference_value(name, g, r) for name in names] for g, r in cell_ids]
    X_ref = np.zeros((len(cell_ids), len(model.columns)), dtype=np.float64)
    X_ref[:, cols] = np.asarray(targets, dtype=np.float64).reshape(len(cell_ids), len(cols))
    C_ref = model.contributions(X_ref)[:, cols]

    relevance = C[:, cols]
    saving = relevance - C_ref[cell_of]
    # row-major, so hits come record by record in column order; "not <= 0"
    # keeps a NaN saving as the scalar test did
    hit_i, hit_k = np.nonzero(~(saving <= 0))
    hit_saving = saving[hit_i, hit_k].tolist()
    hit_relevance = relevance[hit_i, hit_k].tolist()
    starts = np.searchsorted(hit_i, np.arange(len(kept) + 1)).tolist()
    hit_k = hit_k.tolist()

    cat_cache: dict[tuple[str, str], float] = {}

    def cat_relevance(origin: str, level: str) -> float:
        key = (origin, level)
        if key not in cat_cache:
            cat_cache[key] = _categorical_relevance(model, origin, level)
        return cat_cache[key]

    intercept = model.intercept
    rows: list[ExplanationRow] = []
    for i, rec in enumerate(kept):
        day = (rec.vehicle_id, rec.date, rec.route_type, rec.vehicle_group, intercept)
        fuel = (rec.avg_fuel_consumption, lim_sup[i], y_pred[i])
        cell_targets = targets[cell_of[i]]
        for p in range(starts[i], starts[i + 1]):
            k = hit_k[p]
            name = names[k]
            rows.append(
                ExplanationRow(
                    *day, name, hit_relevance[p], rec.features[name], cell_targets[k],
                    *fuel, hit_saving[p], 0.0,
                )
            )
        for origin in cat_origins:
            ref_level = policy.categorical_mode(rec.vehicle_group, rec.route_type, origin)
            if ref_level is None:
                continue
            current_level = str(getattr(rec, origin))
            current = cat_relevance(origin, current_level)
            diff = current - cat_relevance(origin, ref_level)
            if diff <= 0:
                continue
            rows.append(
                ExplanationRow(*day, origin, current, current_level, ref_level, *fuel, diff, 0.0)
            )

    totals = _day_totals(rows)
    for row in rows:
        row.y_fuel_new = recompute_fuel_new(row.avg_fuel_consumption, [totals[row.day_key]])
    return rows


def _categorical_relevance(model: AdditiveModel, origin: str, level: str) -> float:
    """Total contribution of one categorical field at a given level."""
    total = 0.0
    for col in model.columns:
        if col.kind != KIND_NUMERIC and col.origin == origin:
            total += model.contribution_at(col.name, 1.0 if col.level == level else 0.0)
    return total


# json.dumps(..., sort_keys=True) builds an encoder per call; one shared
# encoder writes the same bytes
_AUDIT_JSON = json.JSONEncoder(sort_keys=True)


@dataclass
class AuditEntry:
    rule_id: str
    vehicle_id: str
    date_tx: str
    feature: str
    values: dict

    def to_json(self) -> str:
        return _AUDIT_JSON.encode(
            {
                "rule_id": self.rule_id,
                "vehicle_id": self.vehicle_id,
                "date": self.date_tx,
                "feature": self.feature,
                "values": self.values,
            }
        )


def apply_business_rules(
    rows: Sequence[ExplanationRow],
    policy: ReferencePolicy,
    rules: Sequence[str] = BR_ORDER,
    br2_threshold: float = DEFAULT_BR2_THRESHOLD,
    br5_cap: float = DEFAULT_BR5_CAP,
) -> tuple[list[ExplanationRow], list[AuditEntry]]:
    """Filter rows through the requested rules, logging every drop.

    Cheap structural rules run first and the physical cap last so it sees
    the final per-day totals; y_fuel_new is recomputed on the survivors.
    """
    registry = policy.registry
    audit: list[AuditEntry] = []
    current = list(rows)

    def drop(row: ExplanationRow, rule: str, values: dict) -> None:
        audit.append(
            AuditEntry(
                rule_id=rule,
                vehicle_id=row.vehicle_id,
                date_tx=row.date_tx.isoformat(),
                feature=row.feature,
                values=values,
            )
        )

    for rule in rules:
        if rule == "BR1":
            kept = []
            for row in current:
                if row.feature in registry:
                    kept.append(row)
                else:
                    drop(row, "BR1", {"reason": "categorical"})
            current = kept
        elif rule == "BR2":
            kept = []
            for row in current:
                impact = row.y_diff / row.avg_fuel_consumption
                if impact < br2_threshold:
                    drop(row, "BR2", {"relative_impact": impact})
                else:
                    kept.append(row)
            current = kept
        elif rule == "BR3":
            kept = []
            for row in current:
                median = policy.fuel_median(row.vehicle_group, row.route_type)
                if median is None or row.avg_fuel_consumption > median:
                    kept.append(row)
                else:
                    drop(row, "BR3", {"avg_fuel": row.avg_fuel_consumption, "median_inlier": median})
            current = kept
        elif rule == "BR4":
            kept = []
            for row in current:
                spec = registry.get(row.feature)
                if spec is None:
                    kept.append(row)
                    continue
                median = policy.feature_median(row.vehicle_group, row.route_type, row.feature)
                value = row.feature_value
                ok = value > median if spec.impact_type == "Positive" else value < median
                if ok:
                    kept.append(row)
                else:
                    drop(
                        row,
                        "BR4",
                        {"feature_value": value, "median_inlier": median, "impact_type": spec.impact_type},
                    )
            current = kept
        elif rule == "BR5":
            totals = _day_totals(current)
            kept = []
            for row in current:
                total = totals[row.day_key]
                if total > br5_cap * row.avg_fuel_consumption:
                    drop(
                        row,
                        "BR5",
                        {"total_saving": total, "avg_fuel": row.avg_fuel_consumption, "cap": br5_cap},
                    )
                else:
                    kept.append(row)
            current = kept
        else:
            raise ValueError(f"unknown business rule {rule!r}")

    return _set_fuel_new(current), audit


# ---------------------------------------------------------------------------
# CSV / JSONL round trips


def write_explanations_csv(rows: Iterable[ExplanationRow], path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(EXPLANATION_COLUMNS)
        for row in rows:
            writer.writerow(
                [
                    row.vehicle_id,
                    row.date_tx.isoformat(),
                    row.route_type,
                    str(row.vehicle_group),
                    repr(row.intercept),
                    row.feature,
                    repr(row.feature_relevance),
                    csv_cell(row.feature_value),
                    csv_cell(row.target_value),
                    repr(row.avg_fuel_consumption),
                    repr(row.limit_group),
                    repr(row.y_pred),
                    repr(row.y_diff),
                    repr(row.y_fuel_new),
                ]
            )


def _maybe_float(text: str) -> float | str:
    try:
        return float(text)
    except ValueError:
        return text


def read_explanations_csv(path: str | Path) -> list[ExplanationRow]:
    """Rows written by write_explanations_csv; a bad row raises FeedFormatError naming file and line."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != list(EXPLANATION_COLUMNS):
            raise FeedFormatError(f"{path}: unexpected explanation columns {header}")
        rows = []
        try:
            for (
                vehicle_id, date_tx, route_type, vehicle_group, intercept, feature, relevance,
                value, target, avg_fuel, limit_group, y_pred, y_diff, y_fuel_new,
            ) in reader:
                rows.append(
                    ExplanationRow(
                        vehicle_id,
                        date_type.fromisoformat(date_tx),
                        route_type,
                        int(vehicle_group),
                        float(intercept),
                        feature,
                        float(relevance),
                        _maybe_float(value),
                        _maybe_float(target),
                        float(avg_fuel),
                        float(limit_group),
                        float(y_pred),
                        float(y_diff),
                        float(y_fuel_new),
                    )
                )
        except (ValueError, csv.Error) as exc:
            raise FeedFormatError(f"{path}: line {reader.line_num}: {exc}") from exc
    return rows


def write_audit_log(entries: Iterable[AuditEntry], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for entry in entries:
            fh.write(entry.to_json())
            fh.write("\n")


MEDIANS_COLUMNS = ("vehicle_group", "route_type", "feature", "median_value")


def write_inlier_medians_csv(
    policy: ReferencePolicy,
    records: Sequence[FarRecord],
    path: str | Path,
) -> None:
    """Resolved medians per cell seen in the records, for independent checks.

    Fuel medians are written under the pseudo-feature avg_fuel_consumption.
    """
    cells = sorted({rec.group_route for rec in records})
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(MEDIANS_COLUMNS)
        for group, route in cells:
            fuel = policy.fuel_median(group, route)
            if fuel is not None:
                writer.writerow([str(group), route, "avg_fuel_consumption", repr(fuel)])
            for name in policy.registry.names:
                writer.writerow(
                    [str(group), route, name, repr(policy.feature_median(group, route, name))]
                )
