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

Every row, numeric or categorical, is priced from one contribution
matrix: the model encodes every priced day into an (n days x d columns)
design matrix and looks up each column's shape values in one
``searchsorted`` over all days, and one reference row per (group, route)
cell, holding the numeric targets with each categorical origin's
indicators set at the cell's most common inlier level, is priced the same
way.  An origin's relevance is the running sum of its indicator columns in
model column order.  Savings are relevance minus the cell's reference
relevance; their positive entries, row-major, are the rows, except where
the cell has no mode.  The arithmetic per entry is the scalar lookup's,
so rows are bit-identical to pricing day by day.  The matrices take 8
bytes per day and model column each (about 0.5 MB for 1,600 days x 37
columns).

The rows live in one ``ExplanationTable``: per-row arrays (day slot,
feature code, relevance, value, target, saving) next to per-day columns
(vehicle, date, route, group, intercept, fuel, limit, prediction, new
fuel) that every row of a day shares.  A row takes 48 bytes of arrays:
six 8-byte cells, of which value and target are references to floats the
records and the reference cells already hold; an ``ExplanationRow`` object
takes about 350 bytes before its floats.  Each business rule is one
boolean mask over the surviving rows, with the comparison a row-by-row
filter makes, so a NaN falls the same way; audit entries are built for the
dropped rows only.  Day totals (BR5 and ``y_fuel_new``) are ``np.bincount``
sums, which add in row order exactly as a running per-day sum does.  The
CSV writer formats each day's cells once, and audit lines are assembled
from cached JSON string escapes and ``float.__repr__``, byte for byte what
``json.dumps(..., sort_keys=True)`` writes.  ``ExplanationRow`` remains the
table's row view, for tests, demos and callers that want objects; its
fields are the CSV columns, and ``from_rows`` and the CSV reader share
``ExplanationTable._build``, which gives consecutive rows with equal day
cells one slot.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import logging
import math
from dataclasses import dataclass, replace
from datetime import date as date_type
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .anomaly import LimitTable
from .errors import FeedFormatError
from .gam import KIND_NUMERIC, AdditiveModel
from .ingest import FarRecord
from .registry import (
    DEFAULT_BR2_THRESHOLD,
    DEFAULT_BR5_CAP,
    FallbackMedians,
    FeatureRegistry,
    artifact_file,
    table_columns,
    write_table,
)

logger = logging.getLogger(__name__)

REFERENCE_ZERO = "zero"
REFERENCE_MEDIAN = "median_inlier"

BR_ORDER = ("BR1", "BR3", "BR4", "BR2", "BR5")


def _mode(values: list[str]) -> str:
    counts: dict[str, int] = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    return min(counts, key=lambda k: (-counts[k], k))


def _fuel_items(inlier_records: Sequence[FarRecord]) -> Iterator[tuple[tuple, float]]:
    # fuel sits under the feature None, which no registry feature can take
    for rec in inlier_records:
        if rec.avg_fuel_consumption is not None:
            yield (None, rec.route_type, rec.vehicle_group), rec.avg_fuel_consumption


class FuelMedians:
    """Inlier fuel medians keyed by (group, route), with the feature registry.

    A missing cell falls back to the route across the fleet, then to the
    whole fleet; with no inlier fuel at all the median is None.  This is all
    that BR1-BR3 and the catalog comparison read; ``ReferencePolicy`` adds
    the feature medians and categorical modes behind BR4 and the targets.
    """

    def __init__(self, registry: FeatureRegistry, medians: FallbackMedians):
        self.registry = registry
        self._medians = medians

    @classmethod
    def from_records(cls, registry: FeatureRegistry, inlier_records: Sequence[FarRecord]) -> "FuelMedians":
        return cls(registry, FallbackMedians(_fuel_items(inlier_records)))

    def fuel_median(self, vehicle_group: int, route_type: str) -> float | None:
        return self._medians.get((None, route_type, vehicle_group))


class ReferencePolicy(FuelMedians):
    """Reference values, inlier medians and categorical modes keyed by (group, route).

    Medians tier down like imputation does: the (group, route) cell, then
    the route across the fleet, then the whole fleet, then zero.  Modes go
    from the cell straight to the fleet.
    """

    def __init__(self, registry: FeatureRegistry, medians: FallbackMedians, modes: FallbackMedians):
        super().__init__(registry, medians)
        self._modes = modes

    @classmethod
    def from_records(
        cls,
        registry: FeatureRegistry,
        inlier_records: Sequence[FarRecord],
        categoricals: Sequence[str] = (),
    ) -> "ReferencePolicy":
        features = (
            ((name, rec.route_type, rec.vehicle_group), value)
            for rec in inlier_records
            for name, value in rec.features.items()
            if name in registry
        )
        levels = (((cat, rec.group_route), str(getattr(rec, cat))) for rec in inlier_records for cat in categoricals)
        return cls(
            registry,
            FallbackMedians(itertools.chain(_fuel_items(inlier_records), features)),
            FallbackMedians(levels, reduce=_mode),
        )

    def reference_kind(self, feature: str) -> str:
        return REFERENCE_ZERO if self.registry[feature].reference_zero else REFERENCE_MEDIAN

    def feature_median(self, vehicle_group: int, route_type: str, feature: str) -> float:
        """Inlier median with route / fleet fallbacks (0.0 when unobserved)."""
        value = self._medians.get((feature, route_type, vehicle_group))
        return 0.0 if value is None else value

    def categorical_mode(self, vehicle_group: int, route_type: str, field_name: str) -> str | None:
        return self._modes.get((field_name, (vehicle_group, route_type)))

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
    """One (vehicle, date, feature) recommendation: the row view of an ExplanationTable."""

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


EXPLANATION_COLUMNS = table_columns(ExplanationRow)


def recompute_fuel_new(avg_fuel: float, y_diffs: Iterable[float]) -> float:
    """New daily fuel after applying every surviving recommendation."""
    return avg_fuel - sum(y_diffs)


def _objects(values: Sequence) -> np.ndarray:
    """A 1-D object array holding the given Python objects themselves."""
    out = np.empty(len(values), dtype=object)
    out[:] = values
    return out


def _sum_by(ids: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """Per-id sums; bincount adds the weights one at a time in order, as a running sum does."""
    return np.bincount(ids, weights=weights, minlength=n).astype(np.float64, copy=False)


def _same(x):
    return x


@dataclass(eq=False)
class ExplanationTable:
    """Explanation rows as columns: per-row arrays that index per-day columns.

    Row p recommends moving ``features[feature[p]]`` on day slot ``day[p]``
    from ``value[p]`` to ``target[p]``, saving ``y_diff[p]`` L/100 km.  A
    day slot holds what every row of one vehicle-day repeats.  Tables
    filtered from one another share their day columns, except ``y_fuel_new``,
    which each table computes from its own rows.  Slots are storage, not
    identities: two slots may hold the same (vehicle, date), and day totals
    are taken per (vehicle, date).  ``value`` and ``target`` hold floats, or
    levels (str) on categorical rows.
    """

    # per day slot
    vehicle_id: list[str]
    date_tx: list[date_type]
    route_type: list[str]
    vehicle_group: list[int]
    intercept: np.ndarray
    avg_fuel: np.ndarray
    limit_group: np.ndarray
    y_pred: np.ndarray
    y_fuel_new: np.ndarray
    # per row
    features: tuple[str, ...]
    day: np.ndarray
    feature: np.ndarray
    relevance: np.ndarray
    value: np.ndarray
    target: np.ndarray
    y_diff: np.ndarray

    @classmethod
    def _build(
        cls, rows: Iterable[Sequence], day_cells: Callable = _same, number: Callable = _same,
        level: Callable[[str], Callable] = lambda feature: _same,
    ) -> "ExplanationTable":
        """The table of rows given as cells in ``EXPLANATION_COLUMNS`` order, in order.

        Consecutive rows with equal day cells share a slot, whose fields
        ``day_cells`` makes once; ``number`` makes each relevance and y_diff,
        and ``level(feature)``, asked once per feature, makes each value and
        target of that feature's rows.  A row of another length raises
        ValueError.
        """
        days: list[tuple] = []
        codes: dict[str, int] = {}
        levels: list[Callable] = []
        day, feature, relevance, value, target, y_diff = [], [], [], [], [], []
        previous, slot = None, -1
        for vid, date_tx, route, group, icpt, name, rel, val, tgt, avg, limit, pred, dy, fuel_new in rows:
            head = (vid, date_tx, route, group, icpt, avg, limit, pred, fuel_new)
            if head != previous:
                days.append(day_cells(head))
                previous, slot = head, slot + 1
            code = codes.get(name)
            if code is None:
                code = codes[name] = len(levels)
                levels.append(level(name))
            day.append(slot)
            feature.append(code)
            relevance.append(number(rel))
            value.append(levels[code](val))
            target.append(levels[code](tgt))
            y_diff.append(number(dy))
        columns = [list(c) for c in zip(*days)] if days else [[] for _ in range(9)]
        return cls(
            *columns[:4], *(np.array(c, dtype=np.float64) for c in columns[4:]), tuple(codes),
            np.array(day, dtype=np.intp), np.array(feature, dtype=np.intp), np.array(relevance, dtype=np.float64),
            _objects(value), _objects(target), np.array(y_diff, dtype=np.float64),
        )

    @classmethod
    def from_rows(cls, rows: Iterable[ExplanationRow]) -> "ExplanationTable":
        """The table of these rows, in order; consecutive rows with equal day fields share a slot."""
        return cls._build(map(attrgetter(*EXPLANATION_COLUMNS), rows))

    def __len__(self) -> int:
        return len(self.day)

    def __iter__(self) -> Iterator[ExplanationRow]:
        return iter(self.rows())

    def rows(self) -> list[ExplanationRow]:
        """Every row as an ExplanationRow, with Python floats."""
        day = self.day

        def per_row(column: Sequence) -> list:
            # gathers references, so a day's values are one object per slot
            return _objects(column)[day].tolist()

        return list(
            map(
                ExplanationRow,
                per_row(self.vehicle_id),
                per_row(self.date_tx),
                per_row(self.route_type),
                per_row(self.vehicle_group),
                per_row(self.intercept.tolist()),
                _objects(self.features)[self.feature].tolist(),
                self.relevance.tolist(),
                self.value.tolist(),
                self.target.tolist(),
                per_row(self.avg_fuel.tolist()),
                per_row(self.limit_group.tolist()),
                per_row(self.y_pred.tolist()),
                self.y_diff.tolist(),
                per_row(self.y_fuel_new.tolist()),
            )
        )

    def day_ids(self) -> tuple[np.ndarray, list[tuple[str, date_type]]]:
        """Per slot, the id of its (vehicle, date), and the (vehicle, date) of each id."""
        ids: dict[tuple[str, date_type], int] = {}
        keys = [ids.setdefault(key, len(ids)) for key in zip(self.vehicle_id, self.date_tx)]
        return np.array(keys, dtype=np.intp), list(ids)

    def day_totals(self) -> dict[tuple[str, date_type], float]:
        """Summed y_diff per (vehicle, date), added in row order."""
        keys, days = self.day_ids()
        return dict(zip(days, _sum_by(keys[self.day], self.y_diff, len(days)).tolist()))

    def n_vehicle_days(self) -> int:
        """Distinct (vehicle, date) among the rows."""
        keys, _ = self.day_ids()
        return int(np.unique(keys[self.day]).size)

    def _select(self, index: np.ndarray, keys: np.ndarray, n_keys: int) -> "ExplanationTable":
        """The rows at ``index``, in order, with y_fuel_new recomputed over them."""
        day, y_diff = self.day[index], self.y_diff[index]
        totals = _sum_by(keys[day], y_diff, n_keys)
        return replace(
            self,
            y_fuel_new=self.avg_fuel - totals[keys],
            day=day,
            feature=self.feature[index],
            relevance=self.relevance[index],
            value=self.value[index],
            target=self.target[index],
            y_diff=y_diff,
        )


def generate_daily_explanations(
    model: AdditiveModel,
    records: Sequence[FarRecord],
    policy: ReferencePolicy,
    limits: LimitTable,
) -> ExplanationTable:
    """Raw explanation rows (positive savings only), before business rules.

    Rows cover actionable registry features and, so the categorical filter
    has real work to do, the model's categorical origins priced against the
    cell's most common inlier level.  Records whose cell has no published
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
    # each categorical origin's indicator columns, in model column order
    origins: dict[str, list[int]] = {}
    for j, col in enumerate(model.columns):
        if col.kind != KIND_NUMERIC:
            origins.setdefault(col.origin, []).append(j)

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

    # one reference row per (group, route) cell: the numeric targets, and
    # each origin's indicators at the cell's mode
    cell_ids: dict[tuple[int, str], int] = {}
    cell_of = [cell_ids.setdefault(rec.group_route, len(cell_ids)) for rec in kept]
    targets = [
        [policy.reference_value(name, g, r) for name in names] + [policy.categorical_mode(g, r, o) for o in origins]
        for g, r in cell_ids
    ]
    width = len(cols) + len(origins)
    X_ref = np.zeros((len(cell_ids), len(model.columns)), dtype=np.float64)
    X_ref[:, cols] = np.reshape([t[: len(cols)] for t in targets], (len(cell_ids), len(cols)))
    for k, js in enumerate(origins.values(), start=len(cols)):
        for j in js:
            X_ref[:, j] = [t[k] == model.columns[j].level for t in targets]
    priced = np.array([t is not None for row in targets for t in row], dtype=bool).reshape(len(cell_ids), width)

    def relevance_of(C: np.ndarray) -> np.ndarray:
        # numeric columns as they are; an origin adds its indicators from 0.0
        # in column order, as a scalar sum does (np.sum regroups the terms)
        out = np.zeros((len(C), width), dtype=np.float64)
        out[:, : len(cols)] = C[:, cols]
        for k, js in enumerate(origins.values(), start=len(cols)):
            for j in js:
                out[:, k] += C[:, j]
        return out

    relevance = relevance_of(C)
    saving = relevance - relevance_of(model.contributions(X_ref))[cell_of]
    # row-major, so hits come record by record, numeric columns before
    # origins; "not <= 0" keeps a NaN saving as the scalar test did
    hit_i, hit_k = np.nonzero(~(saving <= 0) & priced[cell_of])
    values = [[rec.features[name] for name in names] + [str(getattr(rec, o)) for o in origins] for rec in kept]
    hits = list(zip(hit_i.tolist(), hit_k.tolist()))

    avg_fuel = np.array([rec.avg_fuel_consumption for rec in kept], dtype=np.float64)
    table = ExplanationTable(
        vehicle_id=[rec.vehicle_id for rec in kept],
        date_tx=[rec.date for rec in kept],
        route_type=[rec.route_type for rec in kept],
        vehicle_group=[rec.vehicle_group for rec in kept],
        intercept=np.full(len(kept), model.intercept, dtype=np.float64),
        avg_fuel=avg_fuel,
        limit_group=np.array(lim_sup, dtype=np.float64),
        y_pred=model.intercept + C.sum(axis=1),
        y_fuel_new=avg_fuel,  # replaced by _select, from the day totals
        features=tuple(names + list(origins)),
        day=hit_i,
        feature=hit_k,
        relevance=relevance[hit_i, hit_k],
        value=_objects([values[i][k] for i, k in hits]),
        target=_objects([targets[cell_of[i]][k] for i, k in hits]),
        y_diff=saving[hit_i, hit_k],
    )
    keys, days = table.day_ids()
    return table._select(np.arange(len(table)), keys, len(days))


@dataclass
class AuditEntry:
    rule_id: str
    vehicle_id: str
    date_tx: str
    feature: str
    values: dict


def apply_business_rules(
    table: ExplanationTable,
    policy: FuelMedians,
    rules: Sequence[str] = BR_ORDER,
    br2_threshold: float = DEFAULT_BR2_THRESHOLD,
    br5_cap: float = DEFAULT_BR5_CAP,
) -> tuple[ExplanationTable, list[AuditEntry]]:
    """Filter rows through the requested rules, logging every drop.

    Cheap structural rules run first and the physical cap last so it sees
    the final per-day totals; y_fuel_new is recomputed on the survivors.
    Each rule is one boolean mask over the surviving rows, with the
    comparison a row-by-row filter would make, so a NaN falls the same way;
    audit entries are built for the dropped rows only, in row order.  BR1-BR3
    need only fuel medians; BR4 needs a ReferencePolicy.
    """
    registry = policy.registry
    names = table.features
    keys, key_days = table.day_ids()
    avg = table.avg_fuel
    avg_list = avg.tolist()
    iso = [d.isoformat() for d in table.date_tx]
    alive = np.arange(len(table))
    audit: list[AuditEntry] = []

    def drop(rule: str, rows: np.ndarray, values: Iterable[dict]) -> None:
        audit.extend(
            AuditEntry(rule, table.vehicle_id[d], iso[d], names[f], v)
            for d, f, v in zip(table.day[rows].tolist(), table.feature[rows].tolist(), values)
        )

    for rule in rules:
        day = table.day[alive]
        if rule == "BR1":
            known = np.array([name in registry for name in names], dtype=bool)
            keep = known[table.feature[alive]]
            dropped = alive[~keep]
            drop("BR1", dropped, ({"reason": "categorical"} for _ in range(len(dropped))))
        elif rule == "BR2":
            with np.errstate(divide="ignore", invalid="ignore"):
                impact = table.y_diff[alive] / avg[day]
            keep = ~(impact < br2_threshold)
            drop("BR2", alive[~keep], ({"relative_impact": x} for x in impact[~keep].tolist()))
        elif rule == "BR3":
            medians = [policy.fuel_median(g, r) for g, r in zip(table.vehicle_group, table.route_type)]
            # a missing median keeps the day; a NaN stand-in would compare False
            known = np.array([m is not None for m in medians], dtype=bool)
            level = np.array([np.nan if m is None else m for m in medians], dtype=np.float64)
            keep = ~known[day] | (avg[day] > level[day])
            drop(
                "BR3",
                alive[~keep],
                ({"avg_fuel": avg_list[d], "median_inlier": medians[d]} for d in day[~keep].tolist()),
            )
        elif rule == "BR4":
            specs = [registry.get(name) for name in names]
            checked = np.flatnonzero(np.array([s is not None for s in specs], dtype=bool)[table.feature[alive]])
            rows = alive[checked]
            row_day, row_feature = table.day[rows], table.feature[rows]
            # one median per (group, route, feature)
            cells: dict[tuple[int, str], int] = {}
            cell_of = np.array(
                [cells.setdefault(c, len(cells)) for c in zip(table.vehicle_group, table.route_type)],
                dtype=np.intp,
            )
            cell_keys = list(cells)
            pair, inverse = np.unique(cell_of[row_day] * len(names) + row_feature, return_inverse=True)
            pair_median = [
                policy.feature_median(*cell_keys[p // len(names)], names[p % len(names)]) for p in pair.tolist()
            ]
            median = np.array(pair_median, dtype=np.float64)[inverse]
            value = table.value[rows]
            positive = np.array([s is not None and s.impact_type == "Positive" for s in specs], dtype=bool)
            x = value.astype(np.float64)
            ok = np.where(positive[row_feature], x > median, x < median)
            bad = np.flatnonzero(~ok)
            keep = np.ones(len(alive), dtype=bool)
            keep[checked[bad]] = False
            drop(
                "BR4",
                rows[bad],
                (
                    {"feature_value": v, "median_inlier": pair_median[j], "impact_type": specs[f].impact_type}
                    for v, j, f in zip(value[bad].tolist(), inverse[bad].tolist(), row_feature[bad].tolist())
                ),
            )
        elif rule == "BR5":
            total = _sum_by(keys[day], table.y_diff[alive], len(key_days))[keys[day]]
            over = total > br5_cap * avg[day]
            keep = ~over
            drop(
                "BR5",
                alive[over],
                (
                    {"total_saving": t, "avg_fuel": avg_list[d], "cap": br5_cap}
                    for t, d in zip(total[over].tolist(), day[over].tolist())
                ),
            )
        else:
            raise ValueError(f"unknown business rule {rule!r}")
        alive = alive[keep]

    return table._select(alive, keys, len(key_days)), audit


# ---------------------------------------------------------------------------
# CSV / JSONL round trips


def _csv_fields(fields: Sequence[str]) -> str:
    """The fields joined as csv.writer writes them inside a row, without the line end."""
    buf = io.StringIO()
    # a trailing empty field keeps a lone empty field from being quoted
    csv.writer(buf, lineterminator="").writerow([*fields, ""])
    return buf.getvalue()[:-1]


def write_explanations_csv(table: ExplanationTable, path: str | Path) -> None:
    """One CSV line per explanation row, the bytes csv.writer writes for its cells.

    The per-day cells of each day slot the rows use and each distinct text
    cell are formatted once, through the csv module; a float cell is
    ``repr`` of a Python float (never of a numpy scalar), which needs no
    quoting and round-trips exactly.
    """
    n_slots = len(table.vehicle_id)
    heads, fuel, fuel_new = [""] * n_slots, [""] * n_slots, [""] * n_slots
    intercept, avg, limit = table.intercept.tolist(), table.avg_fuel.tolist(), table.limit_group.tolist()
    y_pred, y_new = table.y_pred.tolist(), table.y_fuel_new.tolist()
    for d in np.unique(table.day).tolist():
        heads[d] = _csv_fields(
            (table.vehicle_id[d], table.date_tx[d].isoformat(), table.route_type[d],
             str(table.vehicle_group[d]), repr(intercept[d]))
        )
        fuel[d] = f"{avg[d]!r},{limit[d]!r},{y_pred[d]!r}"
        fuel_new[d] = repr(y_new[d])
    names = [_csv_fields([name]) for name in table.features]
    quoted: dict[object, str] = {}

    def text(v) -> str:
        out = quoted.get(v)
        if out is None:
            out = quoted[v] = _csv_fields([v])
        return out

    def cells(column: np.ndarray) -> Iterator[str]:
        return (repr(v) if type(v) is float else text(v) for v in column.tolist())

    with artifact_file(path) as fh:
        fh.write(_csv_fields(EXPLANATION_COLUMNS) + "\n")
        fh.writelines(
            f"{heads[d]},{names[f]},{rel},{v},{t},{fuel[d]},{dy},{fuel_new[d]}\n"
            for d, f, rel, v, t, dy in zip(
                table.day.tolist(),
                table.feature.tolist(),
                map(repr, table.relevance.tolist()),
                cells(table.value),
                cells(table.target),
                map(repr, table.y_diff.tolist()),
            )
        )


def _parse_day(cells: tuple[str, ...]) -> tuple:
    vehicle_id, date_tx, route_type, vehicle_group, *numbers = cells
    return (vehicle_id, date_type.fromisoformat(date_tx), route_type, int(vehicle_group), *map(float, numbers))


def read_explanations_csv(path: str | Path, registry: FeatureRegistry) -> ExplanationTable:
    """The table written by write_explanations_csv; a bad row raises FeedFormatError naming file and line.

    Consecutive rows with the same per-day cells share a day slot, so those
    cells are parsed once per day.  As BR1 does, a row is numeric when its
    feature is in the registry: its value and target are floats.  Any other
    row is categorical and keeps its levels as text.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != list(EXPLANATION_COLUMNS):
            raise FeedFormatError(f"{path}: unexpected explanation columns {header}")
        try:
            return ExplanationTable._build(
                reader, _parse_day, float, lambda feature: float if feature in registry else _same
            )
        except (ValueError, csv.Error) as exc:
            raise FeedFormatError(f"{path}: line {reader.line_num}: {exc}") from exc


# json.dumps writes non-finite floats under these names
_JSON_NON_FINITE = {math.inf: "Infinity", -math.inf: "-Infinity"}


def write_audit_log(entries: Iterable[AuditEntry], path: str | Path) -> None:
    """One JSON object per dropped row, keys sorted: the bytes of ``json.dumps(entry, sort_keys=True)``.

    Each distinct string is escaped once with the json module's own ASCII
    escaper, each distinct float is written once with ``float.__repr__``
    as the encoder does, and each rule's value keys are sorted once; values
    of any other type go through ``json.dumps``.
    """
    strings: dict[str, str] = {}
    floats: dict[float, str] = {}
    layouts: dict[tuple[str, ...], list[tuple[str, str]]] = {}

    def string(s: str) -> str:
        out = strings.get(s)
        if out is None:
            out = strings[s] = encode_basestring_ascii(s)
        return out

    def number(x: float) -> str:
        out = floats.get(x)
        if out is None:
            out = "NaN" if x != x else _JSON_NON_FINITE.get(x) or float.__repr__(x)
            if x:  # 0.0 and -0.0 are one key with two texts
                floats[x] = out
        return out

    def value(v) -> str:
        if type(v) is float:
            return number(v)
        if type(v) is str:
            return string(v)
        return json.dumps(v, sort_keys=True)

    def values(d: dict) -> str:
        keys = tuple(d)
        layout = layouts.get(keys)
        if layout is None:
            layout = layouts[keys] = [(k, f"{string(k)}: ") for k in sorted(keys)]
        return ", ".join([prefix + value(d[k]) for k, prefix in layout])

    with artifact_file(path) as fh:
        fh.writelines(
            f'{{"date": {string(e.date_tx)}, "feature": {string(e.feature)}, "rule_id": {string(e.rule_id)}, '
            f'"values": {{{values(e.values)}}}, "vehicle_id": {string(e.vehicle_id)}}}\n'
            for e in entries
        )


MEDIANS_COLUMNS = ("vehicle_group", "route_type", "feature", "median_value")


def write_inlier_medians_csv(
    policy: ReferencePolicy,
    records: Sequence[FarRecord],
    path: str | Path,
) -> None:
    """Resolved medians per cell seen in the records, for independent checks.

    Fuel medians are written under the pseudo-feature avg_fuel_consumption.
    """
    rows = []
    for group, route in sorted({rec.group_route for rec in records}):
        fuel = policy.fuel_median(group, route)
        if fuel is not None:
            rows.append((group, route, "avg_fuel_consumption", fuel))
        rows += ((group, route, name, policy.feature_median(group, route, name)) for name in policy.registry.names)
    write_table(path, MEDIANS_COLUMNS, rows)
