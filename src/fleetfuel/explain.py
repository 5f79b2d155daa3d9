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
matrix kept column by column in plain lists.  The priced days are taken
from the ``DayTable`` in (vehicle, date) order; the model encodes them,
one list per model column (a numeric column is the table's own), and looks
up each cell's shape value with ``bisect_right``.  One reference row per
(group, route) cell, holding the numeric targets with each categorical
origin's indicators set at the cell's most common inlier level, is looked
up the same way, for the priced columns only.  An origin's relevance is
the running sum of its indicator columns in model column order.  Savings
are relevance minus the cell's reference relevance; their positive
entries, row-major, are the rows, except where the cell has no mode.  The
arithmetic per entry is the scalar lookup's, and ``y_pred`` adds each
day's contributions in numpy's pairwise order (``model.row_sums``).  The
reference medians and modes group the inlier rows by cell once
(``FallbackMedians``).  The module imports no numpy.

The rows live in one ``ExplanationTable``: per-row lists (day slot, feature
code, relevance, value, target, saving) next to per-day columns that every
row of a day shares (vehicle, date, route and group as lists, the five fuel
figures as ``array('d')``).  Each business rule is one list mask over the
surviving rows, with the comparison a row-by-row filter makes, so a NaN
falls the same way, and a ratio to a zero fuel is ±inf or NaN as IEEE 754
divides.  The audit is columnar too: each rule logs one record, the rows it
dropped and, cut to those rows, the value columns it computed.  A day slot
is one vehicle-day, and its totals (BR5 and ``y_fuel_new``) are running
per-slot sums in row order.  The CSV writer formats each day's cells and
each repeated float once, and audit lines are assembled from cached JSON
string escapes and ``float.__repr__``, byte for byte what ``json.dumps(...,
sort_keys=True)`` writes.  ``ExplanationRow`` is the table's row view; its
fields are the CSV columns, and ``from_rows`` and the CSV reader share
``ExplanationTable._build``, which gives rows with equal day cells one slot
wherever they occur.
"""

from __future__ import annotations

import itertools
import json
import logging
import math
from array import array
from dataclasses import dataclass, replace
from datetime import date as date_type
from functools import cache
from json.encoder import encode_basestring_ascii
from operator import add, and_, attrgetter, floordiv, getitem, le, mod, not_, sub
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from .anomaly import LimitTable
from .errors import FeedFormatError
from .ingest import DayTable
from .registry import (
    DEFAULT_BR2_THRESHOLD,
    DEFAULT_BR5_CAP,
    FallbackMedians,
    FeatureRegistry,
    artifact_file,
    csv_fields,
    csv_reader,
    table_columns,
    write_table,
)

if TYPE_CHECKING:
    from .model import AdditiveModel

logger = logging.getLogger(__name__)

BR_ORDER = ("BR1", "BR3", "BR4", "BR2", "BR5")


def _mode(values: list[str]) -> str:
    counts: dict[str, int] = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    return min(counts, key=lambda k: (-counts[k], k))


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
    def from_records(cls, registry: FeatureRegistry, inliers: DayTable) -> "FuelMedians":
        # fuel sits under the name None, which no registry feature can take
        cells = [inliers.route_type, inliers.vehicle_group]
        return cls(registry, FallbackMedians({None: inliers.avg_fuel_consumption}, cells))

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
        inliers: DayTable,
        categoricals: Sequence[str] = (),
    ) -> "ReferencePolicy":
        columns = {name: column for name, column in inliers.features.items() if name in registry}
        columns[None] = inliers.avg_fuel_consumption  # see FuelMedians
        levels = {cat: list(map(str, getattr(inliers, cat))) for cat in categoricals}
        return cls(
            registry,
            FallbackMedians(columns, [inliers.route_type, inliers.vehicle_group]),
            FallbackMedians(levels, [list(zip(inliers.vehicle_group, inliers.route_type))], reduce=_mode),
        )

    def feature_median(self, vehicle_group: int, route_type: str, feature: str) -> float:
        """Inlier median with route / fleet fallbacks (0.0 when unobserved)."""
        value = self._medians.get((feature, route_type, vehicle_group))
        return 0.0 if value is None else value

    def categorical_mode(self, vehicle_group: int, route_type: str, field_name: str) -> str | None:
        return self._modes.get((field_name, (vehicle_group, route_type)))

    def reference_value(self, feature: str, vehicle_group: int, route_type: str) -> float:
        """Counterfactual target for the feature on this group and route."""
        if self.registry[feature].reference_zero:
            return 0.0
        return self.feature_median(vehicle_group, route_type, feature)


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


EXPLANATION_COLUMNS = table_columns(ExplanationRow)


def _sum_by(ids: Iterable[int], weights: Iterable[float], n: int) -> list[float]:
    """Per-id sums, each added from 0.0 one weight at a time, in order."""
    out = [0.0] * n
    for i, w in zip(ids, weights):
        out[i] += w
    return out


def _at(column: Sequence, index: Sequence[int], rows: Iterable[int]) -> Iterator:
    """``column[index[r]]`` for each of ``rows``: a per-slot or per-feature cell of each row."""
    return map(column.__getitem__, map(index.__getitem__, rows))


def divide(x: float, y: float) -> float:
    """``x / y`` as IEEE 754 divides: a zero ``y`` gives ±inf, or NaN for a zero or NaN ``x``, never raises."""
    try:
        return x / y
    except ZeroDivisionError:
        if x == 0.0 or x != x:
            return math.nan
        return math.copysign(math.inf, x) * math.copysign(1.0, y)


def _same(x):
    return x


@dataclass(eq=False)
class ExplanationTable:
    """Explanation rows as columns: per-row columns that index per-day columns.

    Row p recommends moving ``features[feature[p]]`` on day slot ``day[p]``
    from ``value[p]`` to ``target[p]``, saving ``y_diff[p]`` L/100 km.  A
    day slot is one vehicle-day: it holds what every row of that day
    repeats, and day totals are summed per slot.  Tables filtered from one
    another share their day columns, except ``y_fuel_new``, which each
    table computes from its own rows.  The per-day floats are
    ``array('d')``, every other column a list; ``value`` and ``target``
    hold floats, or levels (str) on categorical rows.
    """

    # per day slot
    vehicle_id: list[str]
    date_tx: list[date_type]
    route_type: list[str]
    vehicle_group: list[int]
    intercept: array
    avg_fuel: array
    limit_group: array
    y_pred: array
    y_fuel_new: array
    # per row
    features: tuple[str, ...]
    day: list[int]
    feature: list[int]
    relevance: list[float]
    value: list
    target: list
    y_diff: list[float]

    @classmethod
    def _build(
        cls, rows: Iterable[Sequence], day_cells: Callable = _same, level: Callable[[str], Callable] = lambda f: _same
    ) -> "ExplanationTable":
        """The table of rows given as cells in ``EXPLANATION_COLUMNS`` order, in order.

        Rows with equal day cells share a slot wherever they occur, whose
        fields ``day_cells`` makes once; ``level(feature)``, asked once per
        feature, makes each value and target of that feature's rows, and
        relevance and y_diff are floats.  A row of another length raises
        ValueError.
        """
        days: list[tuple] = []
        codes: dict[str, int] = {}
        levels: list[Callable] = []
        day, feature, relevance, value, target, y_diff = [], [], [], [], [], []
        slots: dict[tuple, int] = {}
        for vid, date_tx, route, group, icpt, name, rel, val, tgt, avg, limit, pred, dy, fuel_new in rows:
            head = (vid, date_tx, route, group, icpt, avg, limit, pred, fuel_new)
            slot = slots.setdefault(head, len(slots))
            if slot == len(days):
                days.append(day_cells(head))
            code = codes.get(name)
            if code is None:
                code = codes[name] = len(levels)
                levels.append(level(name))
            day.append(slot)
            feature.append(code)
            relevance.append(float(rel))
            value.append(levels[code](val))
            target.append(levels[code](tgt))
            y_diff.append(float(dy))
        columns = [list(c) for c in zip(*days)] if days else [[] for _ in range(9)]
        return cls(
            *columns[:4], *(array("d", c) for c in columns[4:]), tuple(codes),
            day, feature, relevance, value, target, y_diff,
        )

    @classmethod
    def from_rows(cls, rows: Iterable[ExplanationRow]) -> "ExplanationTable":
        """The table of these rows, in order; rows with equal day fields share a slot."""
        return cls._build(map(attrgetter(*EXPLANATION_COLUMNS), rows))

    def __len__(self) -> int:
        return len(self.day)

    def __iter__(self) -> Iterator[ExplanationRow]:
        return iter(self.rows())

    def rows(self) -> list[ExplanationRow]:
        """Every row as an ExplanationRow, with Python floats."""
        # gathers references, so a day's values are one object per slot
        vid, date_tx, route, group, icpt, avg, limit, pred, fuel_new = (
            map(column.__getitem__, self.day)
            for column in (
                self.vehicle_id, self.date_tx, self.route_type, self.vehicle_group, self.intercept.tolist(),
                self.avg_fuel.tolist(), self.limit_group.tolist(), self.y_pred.tolist(), self.y_fuel_new.tolist(),
            )
        )
        feature = map(self.features.__getitem__, self.feature)
        return list(map(ExplanationRow, vid, date_tx, route, group, icpt, feature, self.relevance, self.value,
                        self.target, avg, limit, pred, self.y_diff, fuel_new))

    def day_totals(self) -> dict[tuple[str, date_type], float]:
        """Summed y_diff per slot, added in row order, keyed by the slot's (vehicle, date)."""
        return dict(zip(zip(self.vehicle_id, self.date_tx), _sum_by(self.day, self.y_diff, len(self.vehicle_id))))

    def n_vehicle_days(self) -> int:
        """Day slots that hold a row."""
        return len(set(self.day))

    def _select(self, index: Sequence[int] | None) -> "ExplanationTable":
        """The rows at ``index`` (every row when None), in order, with y_fuel_new recomputed over them."""
        columns = ("day", "feature", "relevance", "value", "target", "y_diff")
        rows = {} if index is None else {c: list(map(getattr(self, c).__getitem__, index)) for c in columns}
        table = replace(self, **rows)
        table.y_fuel_new = array("d", map(sub, self.avg_fuel, _sum_by(table.day, table.y_diff, len(self.avg_fuel))))
        return table


def generate_daily_explanations(
    model: AdditiveModel,
    table: DayTable,
    policy: ReferencePolicy,
    limits: LimitTable,
) -> ExplanationTable:
    """Raw explanation rows (positive savings only), before business rules.

    Rows cover actionable registry features and, so the categorical filter
    has real work to do, the model's categorical origins priced against the
    cell's most common inlier level.  Days without fuel or a published
    limit for their cell are skipped.  Rows come day by day in (vehicle,
    date) order, each day's numeric features in model column order before
    its categoricals.
    """
    from .model import KIND_NUMERIC, row_sums

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

    order = table.by_day()
    fuel, group, route = table.avg_fuel_consumption, table.vehicle_group, table.route_type
    lims = [None if fuel[i] is None else limits.lookup(group[i], route[i]) for i in order]
    days = table.take([i for i, lim in zip(order, lims) if lim is not None])
    lim_sup = [lim.lim_sup for lim in lims if lim is not None]
    if len(days) < len(table):
        logger.info("explanations skipped %d days without fuel or limits", len(table) - len(days))

    X = model.encode(days)
    C = model.contributions(X)

    # one reference row per (group, route) cell: the numeric targets, and
    # each origin's indicators at the cell's mode; only priced columns are looked up
    cell_ids: dict[tuple[int, str], int] = {}
    cell_of = [cell_ids.setdefault(cell, len(cell_ids)) for cell in zip(days.vehicle_group, days.route_type)]
    targets = [
        [policy.reference_value(name, g, r) for name in names] + [policy.categorical_mode(g, r, o) for o in origins]
        for g, r in cell_ids
    ]
    width = len(cols) + len(origins)
    by_column = [[t[k] for t in targets] for k in range(width)]
    C_ref = {j: model.lookup(j, by_column[k]) for k, j in enumerate(cols)}
    for k, js in enumerate(origins.values(), start=len(cols)):
        for j in js:
            C_ref[j] = model.lookup(j, [float(mode == model.columns[j].level) for mode in by_column[k]])
    priced = [[t is not None for t in row] for row in targets]

    def relevance_of(C, n: int) -> list[list[float]]:
        # numeric columns as they are; an origin adds its indicators from
        # 0.0 in column order, as a scalar sum does
        out = [C[j] for j in cols]
        for js in origins.values():
            total = [0.0] * n
            for j in js:
                total = list(map(add, total, C[j]))
            out.append(total)
        return out

    relevance = relevance_of(C, len(days))
    saving = [
        list(map(sub, rel, map(ref.__getitem__, cell_of)))
        for rel, ref in zip(relevance, relevance_of(C_ref, len(cell_ids)))
    ]
    # entry i * width + k of the flat savings is day i's k-th priced column,
    # so hits come day by day, numeric columns before origins; "not
    # <= 0" keeps a NaN saving as the scalar test did
    flat_saving = itertools.chain.from_iterable(zip(*saving))
    positive = map(not_, map(le, flat_saving, itertools.repeat(0.0)))
    in_cell = itertools.chain.from_iterable(map(priced.__getitem__, cell_of))
    hits = list(itertools.compress(itertools.count(), map(and_, positive, in_cell)))
    day = list(map(floordiv, hits, itertools.repeat(width)))
    feature = list(map(mod, hits, itertools.repeat(width)))
    at_hits = lambda columns: list(map(getitem, map(columns.__getitem__, feature), day))
    values = [X[j] for j in cols] + [list(map(str, getattr(days, o))) for o in origins]

    table = ExplanationTable(
        vehicle_id=days.vehicle_id,
        date_tx=days.date,
        route_type=days.route_type,
        vehicle_group=days.vehicle_group,
        intercept=array("d", [model.intercept]) * len(days),
        avg_fuel=array("d", days.avg_fuel_consumption),
        limit_group=array("d", lim_sup),
        y_pred=array("d", [model.intercept + s for s in row_sums(C, len(days))]),
        y_fuel_new=array("d"),  # made by _select, from the day totals
        features=tuple(names + list(origins)),
        day=day,
        feature=feature,
        relevance=at_hits(relevance),
        value=at_hits(values),
        target=list(map(getitem, map(targets.__getitem__, map(cell_of.__getitem__, day)), feature)),
        y_diff=at_hits(saving),
    )
    return table._select(None)


#: one rule's drops: its id, the dropped rows of the rule's input table, and one cell per dropped row per value key
RuleDrops = tuple[str, list[int], dict[str, list]]


def apply_business_rules(
    table: ExplanationTable,
    policy: FuelMedians,
    rules: Sequence[str] = BR_ORDER,
    br2_threshold: float = DEFAULT_BR2_THRESHOLD,
    br5_cap: float = DEFAULT_BR5_CAP,
) -> tuple[ExplanationTable, list[RuleDrops]]:
    """Filter rows through the requested rules, logging every drop as columns.

    Cheap structural rules run first and the physical cap last so it sees
    the final per-day totals; y_fuel_new is recomputed on the survivors.
    Each rule is one pass over the surviving rows, with the comparison a
    row-by-row filter would make, so a NaN falls the same way.  Each rule
    appends one record to the audit, even when it drops nothing: the rule
    id, the dropped rows of ``table`` in row order, and the value columns
    the rule computed, each cut to the dropped rows.  BR1-BR3 need only
    fuel medians; BR4 needs a ReferencePolicy.
    """
    registry = policy.registry
    names = table.features
    day, feature, value, y_diff = table.day, table.feature, table.value, table.y_diff
    avg = table.avg_fuel.tolist()
    cells = list(zip(table.vehicle_group, table.route_type))
    alive: Sequence[int] = range(len(table))
    audit: list[RuleDrops] = []

    for rule in rules:
        # each value column has one cell per surviving row
        if rule == "BR1":
            known = [name in registry for name in names]
            keep = list(_at(known, feature, alive))
            logged = {"reason": itertools.repeat("categorical")}
        elif rule == "BR2":
            # a zero fuel divides as IEEE 754 does
            pairs = zip(map(y_diff.__getitem__, alive), _at(avg, day, alive))
            impact = [y / a if a else divide(y, a) for y, a in pairs]
            keep = [not x < br2_threshold for x in impact]
            logged = {"relative_impact": impact}
        elif rule == "BR3":
            fuel = {cell: policy.fuel_median(*cell) for cell in set(cells)}
            medians = list(map(fuel.__getitem__, cells))
            # a missing median keeps the day
            above = [m is None or a > m for a, m in zip(avg, medians)]
            keep = list(_at(above, day, alive))
            logged = {"avg_fuel": _at(avg, day, alive), "median_inlier": _at(medians, day, alive)}
        elif rule == "BR4":
            specs = [registry.get(name) for name in names]
            # per slot, one median per feature, shared by the slots of a (group, route); None where unchecked
            by_cell = {
                cell: [None if spec is None else policy.feature_median(*cell, spec.name) for spec in specs]
                for cell in set(cells)
            }
            slot_medians = list(map(by_cell.__getitem__, cells))
            median = [slot_medians[day[p]][feature[p]] for p in alive]
            values = list(map(value.__getitem__, alive))
            kinds = list(_at([None if spec is None else spec.impact_type for spec in specs], feature, alive))
            keep = [m is None or (v > m if k == "Positive" else v < m) for m, v, k in zip(median, values, kinds)]
            logged = {"feature_value": values, "median_inlier": median, "impact_type": kinds}
        elif rule == "BR5":
            totals = _sum_by(map(day.__getitem__, alive), map(y_diff.__getitem__, alive), len(avg))
            total = list(_at(totals, day, alive))
            keep = [not t > br5_cap * a for t, a in zip(total, _at(avg, day, alive))]
            logged = {"total_saving": total, "avg_fuel": _at(avg, day, alive), "cap": itertools.repeat(br5_cap)}
        else:
            raise ValueError(f"unknown business rule {rule!r}")
        dropped = list(map(not_, keep))
        columns = {key: list(itertools.compress(column, dropped)) for key, column in logged.items()}
        audit.append((rule, list(itertools.compress(alive, dropped)), columns))
        alive = list(itertools.compress(alive, keep))

    return table._select(alive), audit


# ---------------------------------------------------------------------------
# CSV / JSONL round trips


class _Reprs(dict):
    """``repr`` of each float looked up, made once per value; a zero is not kept, as 0.0 and -0.0 are one key."""

    def __missing__(self, x: float) -> str:
        out = repr(x)
        if x:
            self[x] = out
        return out


def write_explanations_csv(table: ExplanationTable, path: str | Path) -> None:
    """One CSV line per explanation row, the bytes csv.writer writes for its cells.

    The per-day cells of each day slot the rows use and each distinct text
    cell are formatted once, through the csv module; a float cell is
    ``repr`` of a Python float (never of a numpy scalar), which needs no
    quoting and round-trips exactly.  Relevance, target and saving repeat
    a few values over many rows (one per bin and cell), so each of their
    distinct values is formatted once.
    """
    n_slots = len(table.vehicle_id)
    heads, fuel, fuel_new = [""] * n_slots, [""] * n_slots, [""] * n_slots
    intercept, avg, limit = table.intercept.tolist(), table.avg_fuel.tolist(), table.limit_group.tolist()
    y_pred, y_new = table.y_pred.tolist(), table.y_fuel_new.tolist()
    for d in set(table.day):
        heads[d] = csv_fields(
            (table.vehicle_id[d], table.date_tx[d].isoformat(), table.route_type[d],
             str(table.vehicle_group[d]), repr(intercept[d]))
        )
        fuel[d] = f"{avg[d]!r},{limit[d]!r},{y_pred[d]!r}"
        fuel_new[d] = repr(y_new[d])
    names = [csv_fields([name]) for name in table.features]
    quoted: dict[object, str] = {}

    def text(v) -> str:
        out = quoted.get(v)
        if out is None:
            out = quoted[v] = csv_fields([v])
        return out

    def cells(column: list, number: Callable[[float], str]) -> Iterator[str]:
        return (number(v) if type(v) is float else text(v) for v in column)

    reprs = _Reprs()

    with artifact_file(path) as fh:
        fh.write(csv_fields(EXPLANATION_COLUMNS) + "\n")
        fh.writelines(
            f"{heads[d]},{names[f]},{rel},{v},{t},{fuel[d]},{dy},{fuel_new[d]}\n"
            for d, f, rel, v, t, dy in zip(
                table.day, table.feature, map(reprs.__getitem__, table.relevance), cells(table.value, repr),
                cells(table.target, reprs.__getitem__), map(reprs.__getitem__, table.y_diff),
            )
        )


def _parse_day(cells: tuple[str, ...]) -> tuple:
    vehicle_id, date_tx, route_type, vehicle_group, *numbers = cells
    return (vehicle_id, date_type.fromisoformat(date_tx), route_type, int(vehicle_group), *map(float, numbers))


def read_explanations_csv(path: str | Path, registry: FeatureRegistry) -> ExplanationTable:
    """The table written by write_explanations_csv; a bad row raises FeedFormatError naming file and line.

    Rows with the same per-day cells share a day slot, so those cells are
    parsed once per day.  As BR1 does, a row is numeric when its feature is
    in the registry: its value and target are floats.  Any other row is
    categorical and keeps its levels as text.  Every number must be finite:
    the first non-finite cell, row by row, raises naming its line (row p is
    on line p + 2).  Then the first row that puts a vehicle-day in a second
    slot, or names its slot's feature again, raises naming both lines.
    """
    with csv_reader(path) as reader:
        header = next(reader, None)
        if header != list(EXPLANATION_COLUMNS):
            raise FeedFormatError(f"{path}: unexpected explanation columns {header}")
        level = lambda feature: float if feature in registry else _same
        table = ExplanationTable._build(reader, _parse_day, level)
    numeric = list(map([name in registry for name in table.features].__getitem__, table.feature))
    numbers = (table.relevance, table.y_diff, itertools.compress(table.value, numeric),
               itertools.compress(table.target, numeric), table.intercept, table.avg_fuel, table.limit_group,
               table.y_pred, table.y_fuel_new)
    if not all(map(math.isfinite, itertools.chain.from_iterable(numbers))):
        for p, row in enumerate(table.rows()):
            for name in EXPLANATION_COLUMNS:
                cell = getattr(row, name)
                if type(cell) is float and not math.isfinite(cell):
                    raise FeedFormatError(f"{path}: line {p + 2}: {name} is not finite ({cell!r})")
    keys = list(zip(table.vehicle_id, table.date_tx))
    if len(set(keys)) < len(keys) or len(set(zip(table.day, table.feature))) < len(table):
        slot_of: dict[tuple[str, date_type], tuple[int, int]] = {}  # each vehicle-day's slot and first line
        line_of: dict[tuple[int, int], int] = {}  # each (slot, feature)'s line
        for line, d, f in zip(itertools.count(2), table.day, table.feature):
            slot, seen = slot_of.setdefault(keys[d], (d, line))
            seen = line_of.setdefault((d, f), line) if slot == d else seen
            if seen != line:
                vehicle, day = keys[d]
                raise FeedFormatError(f"{path}: line {line}: vehicle-day {vehicle}/{day} repeats line {seen}")
    return table


# json.dumps writes non-finite floats under these names
_JSON_NON_FINITE = {math.inf: "Infinity", -math.inf: "-Infinity"}


def write_audit_log(audit: Iterable[RuleDrops], table: ExplanationTable, path: str | Path) -> None:
    """One JSON object per dropped row, keys sorted: the bytes of ``json.dumps(entry, sort_keys=True)``.

    ``audit`` is what ``apply_business_rules`` returned for ``table``; a
    row's vehicle, date and feature come from ``table``.  Each rule's keys
    are sorted once, each distinct string is escaped once with the json
    module's own ASCII escaper, and each distinct float is written once
    with ``float.__repr__`` as the encoder does; values of any other type
    go through ``json.dumps``.
    """
    string = cache(encode_basestring_ascii)
    floats: dict[float, str] = {}

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

    vehicles = list(map(string, table.vehicle_id))
    dates = [string(d.isoformat()) for d in table.date_tx]
    features = list(map(string, table.features))
    with artifact_file(path) as fh:
        for rule, rows, columns in audit:
            cells = zip(*[list(map(f"{string(key)}: ".__add__, map(value, columns[key]))) for key in sorted(columns)])
            fh.writelines(
                f'{{"date": {dates[table.day[r]]}, "feature": {features[table.feature[r]]}, "rule_id": {string(rule)}, '
                f'"values": {{{", ".join(values)}}}, "vehicle_id": {vehicles[table.day[r]]}}}\n'
                for r, values in zip(rows, cells)
            )


MEDIANS_COLUMNS = ("vehicle_group", "route_type", "feature", "median_value")


def write_inlier_medians_csv(policy: ReferencePolicy, table: DayTable, path: str | Path) -> None:
    """Resolved medians per (group, route) cell seen in the table, for independent checks.

    Fuel medians are written under the pseudo-feature avg_fuel_consumption.
    """
    rows = []
    for group, route in sorted(set(zip(table.vehicle_group, table.route_type))):
        fuel = policy.fuel_median(group, route)
        if fuel is not None:
            rows.append((group, route, "avg_fuel_consumption", fuel))
        rows += ((group, route, name, policy.feature_median(group, route, name)) for name in policy.registry.names)
    write_table(path, MEDIANS_COLUMNS, rows)
