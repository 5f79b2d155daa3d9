"""Fuel anomaly limits per (vehicle_group, route_type).

Limits are the boxplot whiskers of each group's daily average fuel:
lim_sup = Q3 + 1.5 * IQR and lim_inf = Q1 - 1.5 * IQR.  Cleaning runs in
two phases: the first pass removes implausibly low readings and high-side
noise, the second recomputes the whiskers on the remaining data; that
second upper whisker is the published outlier threshold for the group.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .errors import InsufficientSupportError
from .ingest import LABEL_INLIER, LABEL_OUTLIER, LABEL_UNASSIGNED, DayTable
from .registry import read_table, row_parser, table_columns, write_table

MIN_SUPPORT = 4
WHISKER = 1.5


def quartiles(values: Sequence[float]) -> tuple[float, float]:
    """(Q1, Q3) by linear interpolation over the sorted sample.

    Quartile k sits at fractional position k/4 * (n - 1) among the order
    statistics; fewer than four values cannot support an IQR.
    """
    n = len(values)
    if n < MIN_SUPPORT:
        raise InsufficientSupportError(
            f"need at least {MIN_SUPPORT} values for quartiles, got {n}"
        )
    ordered = sorted(values)

    def at(pos: float) -> float:
        lo = int(pos)
        frac = pos - lo
        if frac == 0.0 or lo + 1 >= n:
            return ordered[lo]
        return ordered[lo] + frac * (ordered[lo + 1] - ordered[lo])

    return at(0.25 * (n - 1)), at(0.75 * (n - 1))


class AnomalyLimits(NamedTuple):
    """Boxplot whiskers for one (vehicle_group, route_type) cell."""

    vehicle_group: int
    route_type: str
    q1: float
    q3: float
    lim_inf: float
    lim_sup: float
    n_support: int
    borrowed: bool = False

    @classmethod
    def from_values(
        cls, vehicle_group: int, route_type: str, values: Sequence[float]
    ) -> "AnomalyLimits":
        q1, q3 = quartiles(values)
        iqr = q3 - q1
        return cls(
            vehicle_group=vehicle_group,
            route_type=route_type,
            q1=q1,
            q3=q3,
            lim_inf=q1 - WHISKER * iqr,
            lim_sup=q3 + WHISKER * iqr,
            n_support=len(values),
        )


class LimitTable:
    """Limits keyed by (vehicle_group, route_type) with fleet fallbacks.

    Cells with fewer than four records borrow the fleet-wide limits of
    their route type (flagged as borrowed); lookups for cells with no
    usable limits return None.
    """

    def __init__(
        self,
        limits: dict[tuple[int, str], AnomalyLimits],
        skipped: Iterable[tuple[int, str]] = (),
    ):
        self._limits = dict(limits)
        self.skipped = sorted(skipped)

    def lookup(self, vehicle_group: int, route_type: str) -> AnomalyLimits | None:
        return self._limits.get((vehicle_group, route_type))

    def __len__(self) -> int:
        return len(self._limits)

    def items(self):
        return sorted(self._limits.items())


def compute_limits(table: DayTable) -> LimitTable:
    """Whisker limits over avg fuel for every (group, route) cell.

    Fleet-wide per-route limits back small cells; a small cell whose route
    has no fleet-wide support is skipped and flagged.
    """
    by_cell: dict[tuple[int, str], list[float]] = {}
    by_route: dict[str, list[float]] = {}
    for avg, group, route in zip(table.avg_fuel_consumption, table.vehicle_group, table.route_type):
        if avg is None:
            continue
        by_cell.setdefault((group, route), []).append(avg)
        by_route.setdefault(route, []).append(avg)

    fleet: dict[str, AnomalyLimits] = {}
    for route, values in by_route.items():
        if len(values) >= MIN_SUPPORT:
            fleet[route] = AnomalyLimits.from_values(-1, route, values)

    limits: dict[tuple[int, str], AnomalyLimits] = {}
    skipped: list[tuple[int, str]] = []
    for (group, route), values in by_cell.items():
        if len(values) >= MIN_SUPPORT:
            limits[(group, route)] = AnomalyLimits.from_values(group, route, values)
        elif route in fleet:
            limits[(group, route)] = fleet[route]._replace(vehicle_group=group, route_type=route, borrowed=True)
        else:
            skipped.append((group, route))
    return LimitTable(limits, skipped)


class NoiseReport:
    """Phase 1's removals, as positions in the table it cleaned: below the lower whisker, above the upper."""

    def __init__(self):
        self.low_rows: list[int] = []
        self.noise_rows: list[int] = []
        self.emptied_cells: list[tuple[int, str]] = []

    @property
    def n_low(self) -> int:
        return len(self.low_rows)

    @property
    def n_noise(self) -> int:
        return len(self.noise_rows)


def two_phase_clean(table: DayTable) -> tuple[DayTable, LimitTable, NoiseReport]:
    """Two-pass whisker cleaning.

    Phase 1 computes limits on the input and removes rows below the lower
    whisker (implausibly low fuel) and above the upper whisker (noise).
    Phase 2 recomputes limits on the survivors; those are the published
    outlier thresholds.
    """
    phase1 = compute_limits(table)
    kept: list[int] = []
    report = NoiseReport()
    for i, (avg, group, route) in enumerate(zip(table.avg_fuel_consumption, table.vehicle_group, table.route_type)):
        lim = phase1.lookup(group, route)
        if lim is None or avg is None:
            kept.append(i)
        elif avg < lim.lim_inf:
            report.low_rows.append(i)
        elif avg > lim.lim_sup:
            report.noise_rows.append(i)
        else:
            kept.append(i)
    survivors = table.take(kept)

    final = compute_limits(survivors)
    report.emptied_cells = [key for key, _ in phase1.items() if final.lookup(*key) is None]
    return survivors, final, report


def flag_outliers(table: DayTable, limits: LimitTable) -> DayTable:
    """Label every row against the published upper whisker, in place.

    A day is an outlier only when its fuel strictly exceeds the limit;
    rows whose cell has no limits stay unassigned.
    """
    table.anomaly_label = [
        LABEL_UNASSIGNED if lim is None or avg is None else LABEL_OUTLIER if avg > lim.lim_sup else LABEL_INLIER
        for avg, lim in zip(table.avg_fuel_consumption, map(limits.lookup, table.vehicle_group, table.route_type))
    ]
    return table


#: AnomalyLimits's fields, with ``borrowed`` written as a 0/1 ``borrowed_flag``
LIMITS_COLUMNS = (*table_columns(AnomalyLimits)[:-1], "borrowed_flag")


def write_limits_csv(limits: LimitTable, path: str | Path) -> None:
    rows = ((*lim[:-1], int(lim.borrowed)) for _, lim in limits.items())
    write_table(path, LIMITS_COLUMNS, rows)


def _anomaly_limits(row: dict[str, str]) -> AnomalyLimits:
    flag = row["borrowed_flag"]
    if flag not in ("0", "1"):
        raise ValueError(f"column 'borrowed_flag': must be 0 or 1, got {flag!r}")
    return row_parser(AnomalyLimits)({**row, "borrowed": flag})


def read_limits_csv(path: str | Path) -> LimitTable:
    key = "limits of group {0.vehicle_group} on {0.route_type}"
    rows = read_table(path, None, LIMITS_COLUMNS, _anomaly_limits, key)
    return LimitTable({(lim.vehicle_group, lim.route_type): lim for lim in rows})
