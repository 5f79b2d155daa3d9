"""Model metrics and domain-knowledge evaluations.

Covers the regression quality check (median per-vehicle MAPE and adjusted
R² with their literature categories), aggregation of explained impact per
factor subcategory against configurable literature limits, the comparison
of explained extra fuel versus the anomaly thresholds (with an internal
signed-rank test), catalog-reference MAPE metrics, and the monthly fuel /
CO2 impact table.
"""

from __future__ import annotations

import collections
import itertools
import math
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

from .anomaly import LimitTable
from .errors import DataError
from .ingest import LABEL_OUTLIER, DayTable
from .registry import (
    CO2_KG_PER_LITER,
    CatalogTable,
    FeatureRegistry,
    SotaLimit,
    UNCHECKED_SUBCATEGORIES,
    VehicleIdentity,
    median,
)

if TYPE_CHECKING:  # train reads the metrics alone, without explain
    from .explain import ExplanationTable, FuelMedians

MAPE_HIGHLY_ACCURATE = "highly_accurate"
MAPE_GOOD = "good"
MAPE_REASONABLE = "reasonable"
MAPE_INACCURATE = "inaccurate"

R2_SUBSTANTIAL = "substantial"
R2_MODERATE = "moderate"
R2_WEAK = "weak"
R2_NONE = "none"

#: the registry category whose extra liters the CO2 column converts
BEHAVIOUR_CATEGORY = "Driving Behaviour"


def train_test_split(table: DayTable, fraction: float = 0.9, seed: int = 0) -> tuple[DayTable, DayTable]:
    """Seeded shuffle then split; both partitions non-empty.

    Rows are ordered by (vehicle, date) before shuffling so the split
    does not depend on input ordering.
    """
    import numpy as np

    n = len(table)
    if n < 10:
        raise DataError(f"split needs at least 10 records, got {n}")
    if not 0.0 < fraction < 1.0:
        raise DataError("split fraction must be in (0, 1)")
    order = table.by_day()
    perm = np.random.default_rng(seed).permutation(n).tolist()
    n_train = min(max(int(round(n * fraction)), 1), n - 1)
    return table.take([order[i] for i in perm[:n_train]]), table.take([order[i] for i in perm[n_train:]])


def mape(actuals: Sequence[float], predictions: Sequence[float]) -> float:
    """Mean absolute percentage error, in percent.

    Points with a non-positive actual cannot be scored and are excluded.
    """
    pairs = [
        (y, p) for y, p in zip(actuals, predictions, strict=True) if y > 0
    ]
    if not pairs:
        raise DataError("MAPE needs at least one positive actual")
    return float(math.fsum(abs(y - p) / y for y, p in pairs) / len(pairs) * 100.0)


def classify_mape(value: float) -> str:
    """Lewis forecasting category; boundary values take the better class."""
    if value < 0:
        raise DataError("MAPE cannot be negative")
    if value <= 10:
        return MAPE_HIGHLY_ACCURATE
    if value <= 20:
        return MAPE_GOOD
    if value <= 50:
        return MAPE_REASONABLE
    return MAPE_INACCURATE


def median_vehicle_mape(table: DayTable, predictions: Sequence[float]) -> float:
    """Median over vehicles of each vehicle's MAPE."""
    by_vehicle: dict[str, tuple[list[float], list[float]]] = {}
    for vehicle_id, avg, pred in zip(table.vehicle_id, table.avg_fuel_consumption, predictions, strict=True):
        ys, ps = by_vehicle.setdefault(vehicle_id, ([], []))
        ys.append(avg or 0.0)
        ps.append(pred)
    values = []
    for ys, ps in by_vehicle.values():
        try:
            values.append(mape(ys, ps))
        except DataError:
            continue
    if not values:
        raise DataError("no vehicle had scoreable records")
    return median(values)


def adjusted_r2(
    actuals: Sequence[float], predictions: Sequence[float], p: int
) -> tuple[float, str]:
    """Adjusted R² with its Chin category: 1 - (1 - R²)(n - 1)/(n - p - 1)."""
    import numpy as np

    y = np.asarray(actuals, dtype=np.float64)
    yhat = np.asarray(predictions, dtype=np.float64)
    n = y.size
    if n <= p + 1:
        raise DataError(f"adjusted R² undefined for n={n}, p={p}")
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0:
        raise DataError("target has zero variance")
    r2 = 1.0 - float(np.sum((y - yhat) ** 2)) / ss_tot
    adj = 1.0 - (1.0 - r2) * (n - 1) / (n - p - 1)
    return adj, classify_r2(adj)


def classify_r2(value: float) -> str:
    if value >= 0.67:
        return R2_SUBSTANTIAL
    if value >= 0.33:
        return R2_MODERATE
    if value >= 0.19:
        return R2_WEAK
    return R2_NONE


class ModelMetrics(NamedTuple):
    fleet: str
    median_vehicle_mape: float
    mape_category: str
    adjusted_r2: float
    r2_category: str
    n_train: int
    n_test: int
    n_predictors: int
    n_unscoreable: int


def model_metrics(
    fleet: str, test_table: DayTable, predictions: Sequence[float], n_predictors: int, n_train: int
) -> ModelMetrics:
    med = median_vehicle_mape(test_table, predictions)
    actuals = [avg or 0.0 for avg in test_table.avg_fuel_consumption]
    adj, r2_cat = adjusted_r2(actuals, predictions, n_predictors)
    return ModelMetrics(
        fleet=fleet,
        median_vehicle_mape=med,
        mape_category=classify_mape(med),
        adjusted_r2=adj,
        r2_category=r2_cat,
        n_train=n_train,
        n_test=len(test_table),
        n_predictors=n_predictors,
        n_unscoreable=sum(1 for y in actuals if not y > 0),
    )


# ---------------------------------------------------------------------------
# Signed-rank test (internal; exact for small n, normal approximation beyond)

EXACT_LIMIT = 25


def signed_rank_test(differences: Sequence[float]) -> tuple[float, float]:
    """Two-sided Wilcoxon signed-rank test on paired differences.

    Returns (W+, p).  Zero differences are discarded; ties in magnitude get
    average ranks.  Exact sign-flip distribution up to 25 non-zero pairs,
    normal approximation with tie correction and continuity correction
    beyond.
    """
    d = [x for x in differences if x != 0.0]
    n = len(d)
    if n == 0:
        return 0.0, 1.0
    ranks = [0.0] * n
    pos = 1
    for _, tied in itertools.groupby(sorted(range(n), key=lambda i: abs(d[i])), key=lambda i: abs(d[i])):
        tied = list(tied)
        for k in tied:
            ranks[k] = (pos + (pos + len(tied) - 1)) / 2.0
        pos += len(tied)
    w_plus = sum(r for r, x in zip(ranks, d) if x > 0)

    if n <= EXACT_LIMIT:
        p = _exact_two_sided(ranks, w_plus)
    else:
        p = _approx_two_sided(ranks, w_plus, n)
    return w_plus, min(1.0, max(0.0, p))


def _exact_two_sided(ranks: list[float], w_plus: float) -> float:
    # counts[w] is the number of sign assignments whose doubled W+ is w
    counts = [1]
    for r in (round(r * 2) for r in ranks):
        counts = [a + b for a, b in zip(counts + [0] * r, [0] * r + counts)]
    n_assignments = sum(counts)
    w2 = round(w_plus * 2)
    p_low = sum(counts[: w2 + 1]) / n_assignments
    p_high = sum(counts[w2:]) / n_assignments
    return 2.0 * min(p_low, p_high)


def _approx_two_sided(ranks: list[float], w_plus: float, n: int) -> float:
    mu = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    var -= sum(t**3 - t for t in collections.Counter(ranks).values()) / 48.0
    if var <= 0:
        return 1.0
    diff = w_plus - mu
    z = (diff - math.copysign(0.5, diff)) / math.sqrt(var) if diff != 0 else 0.0
    return math.erfc(abs(z) / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# Category impact vs literature limits


class CategoryImpact(NamedTuple):
    category: str
    subcategory: str
    fleet: str
    median_impact_pct: float
    n_days: int
    min_pct: float | None
    max_pct: float | None
    verdict: str | None


def aggregate_category_impact(
    table: ExplanationTable,
    registry: FeatureRegistry,
    sota_limits: Mapping[tuple[str, str], SotaLimit],
    fleet: str,
) -> list[CategoryImpact]:
    """Median per-day relative impact per (category, subcategory).

    Per day, a subcategory's impact is the sum of its rows' savings over
    the day's fuel; the median is taken over days where the subcategory
    appears.  Subcategories outside the limits config, plus the unchecked
    ones, are reported without a verdict.
    """
    from .explain import divide

    subcategory = [
        None if spec is None else (spec.category, spec.subcategory) for spec in map(registry.get, table.features)
    ]
    avg = table.avg_fuel.tolist()
    per_day: dict[int, dict[tuple[str, str], float]] = {}
    for d, f, y_diff in zip(table.day, table.feature, table.y_diff):
        key = subcategory[f]
        if key is None:
            continue
        impacts = per_day.setdefault(d, {})
        impacts[key] = impacts.get(key, 0.0) + divide(y_diff, avg[d])

    buckets: dict[tuple[str, str], list[float]] = {}
    for impacts in per_day.values():
        for key, value in impacts.items():
            buckets.setdefault(key, []).append(value * 100.0)

    out = []
    for key in sorted(buckets):
        values = buckets[key]
        impact = median(values)
        limit = sota_limits.get(key)
        if key[1] in UNCHECKED_SUBCATEGORIES or limit is None:
            verdict = None
            min_pct = max_pct = None
        else:
            min_pct, max_pct = limit.min_pct, limit.max_pct
            if impact < min_pct:
                verdict = "below_min"
            elif impact > max_pct:
                verdict = "above_max"
            else:
                verdict = "within"
        out.append(
            CategoryImpact(
                category=key[0],
                subcategory=key[1],
                fleet=fleet,
                median_impact_pct=impact,
                n_days=len(values),
                min_pct=min_pct,
                max_pct=max_pct,
                verdict=verdict,
            )
        )
    return out


# ---------------------------------------------------------------------------
# Explained extra fuel vs anomaly thresholds


class OutlierComparison(NamedTuple):
    fleet: str
    n_outlier_days: int
    median_explained: float
    median_anomalous: float
    w_statistic: float
    p_value: float


def outlier_vs_explained(
    table: ExplanationTable, limits: LimitTable, days: DayTable, fleet: str
) -> OutlierComparison | None:
    """Per outlier day, explained extra vs whisker excess, with a rank test.

    Explained extra fuel is the day's total claimed saving over its fuel;
    anomalous extra is the excess over the published threshold, relative to
    the same fuel.  Days without surviving explanations count as explaining
    nothing.  Returns None when the fleet has no outlier days.
    """
    explained_by_day = table.day_totals()
    explained: list[float] = []
    anomalous: list[float] = []
    keys = days.day_keys()
    for i in days.by_day():
        avg = days.avg_fuel_consumption[i]
        lim = limits.lookup(days.vehicle_group[i], days.route_type[i])
        if days.anomaly_label[i] != LABEL_OUTLIER or avg is None or lim is None:
            continue
        explained.append(explained_by_day.get(keys[i], 0.0) / avg)
        anomalous.append((avg - lim.lim_sup) / avg)
    if not explained:
        return None
    w, p = signed_rank_test([e - a for e, a in zip(explained, anomalous)])
    return OutlierComparison(
        fleet=fleet,
        n_outlier_days=len(explained),
        median_explained=median(explained),
        median_anomalous=median(anomalous),
        w_statistic=w,
        p_value=p,
    )


# ---------------------------------------------------------------------------
# Catalog comparison


class CatalogMapeReport(NamedTuple):
    fleet: str
    mape_1: float | None
    mape_2: float | None
    mape_3: float | None
    pct_mape1_lt_50: float | None
    pct_mape1_lt_20: float | None
    pct_mape1_lt_10: float | None
    pct_mape2_lt_50: float | None
    pct_mape2_lt_20: float | None
    pct_mape2_lt_10: float | None
    pct_below_catalog: float | None
    n_days: int
    n_catalog_days: int
    n_unmatched: int


def _share_below(values: list[float], cutoff: float) -> float:
    return 100.0 * sum(1 for v in values if v < cutoff) / len(values)


def catalog_mape(
    table: ExplanationTable,
    days: DayTable,
    identities: Mapping[str, VehicleIdentity],
    catalog: CatalogTable,
    fuel: FuelMedians,
    fleet: str,
    offset: float = 1.0,
) -> CatalogMapeReport:
    """Projected fuel vs catalog and inlier-median references.

    mape_1 compares each explained day's projected fuel to the catalog for
    the vehicle's identity and route; mape_2 compares it to the inlier
    median of the day's group and route; mape_3 restricts mape_2 to
    outlier days.  pct_below_catalog counts days projected more than the
    offset below the catalog value (physically unreachable targets).
    Vehicles with no catalog identity are excluded from the catalog
    comparison and counted.
    """
    slots = sorted(set(table.day))
    fuel_new = table.y_fuel_new.tolist()
    label_by_day = dict(zip(days.day_keys(), days.anomaly_label))

    mape1: list[float] = []
    mape2: list[float] = []
    mape3: list[float] = []
    below = 0
    for d in slots:
        y_new = fuel_new[d]
        route = table.route_type[d]
        ident = identities.get(table.vehicle_id[d])
        ref = catalog.lookup(ident, route) if ident is not None else None
        if ref is not None:
            mape1.append(abs(y_new - ref) / ref)
            if y_new < ref - offset:
                below += 1
        med = fuel.fuel_median(table.vehicle_group[d], route)
        if med is not None and med > 0:
            value = abs(y_new - med) / med
            mape2.append(value)
            if label_by_day.get((table.vehicle_id[d], table.date_tx[d])) == LABEL_OUTLIER:
                mape3.append(value)

    return CatalogMapeReport(
        fleet=fleet,
        mape_1=median(mape1) if mape1 else None,
        mape_2=median(mape2) if mape2 else None,
        mape_3=median(mape3) if mape3 else None,
        pct_mape1_lt_50=_share_below(mape1, 0.5) if mape1 else None,
        pct_mape1_lt_20=_share_below(mape1, 0.2) if mape1 else None,
        pct_mape1_lt_10=_share_below(mape1, 0.1) if mape1 else None,
        pct_mape2_lt_50=_share_below(mape2, 0.5) if mape2 else None,
        pct_mape2_lt_20=_share_below(mape2, 0.2) if mape2 else None,
        pct_mape2_lt_10=_share_below(mape2, 0.1) if mape2 else None,
        pct_below_catalog=(100.0 * below / len(mape1)) if mape1 else None,
        n_days=len(slots),
        n_catalog_days=len(mape1),
        n_unmatched=len(slots) - len(mape1),
    )


# ---------------------------------------------------------------------------
# Monthly impact


class MonthlyImpact(NamedTuple):
    fleet: str
    month: str
    total_fuel_l: float
    extra_fuel_all_l: float
    extra_fuel_behaviour_l: float
    co2_kg: float
    cost: float | None = None


def monthly_impact(
    table: ExplanationTable,
    days: DayTable,
    registry: FeatureRegistry,
    fleet: str,
    co2_per_liter: float = CO2_KG_PER_LITER,
    price_per_liter: float | None = None,
) -> list[MonthlyImpact]:
    """Fuel burned, claimed extra liters and the CO2 behind the behaviour part.

    Extra liters for a row are its saving per 100 km scaled by the day's
    distance; the CO2 column converts the driving-behaviour share.
    """
    kms_by_day = dict(zip(days.day_keys(), days.trip_kms))
    total: dict[str, float] = {}
    for day, fuel in zip(days.date, days.trip_fuel_used):
        if fuel is None:
            continue
        month = f"{day.year:04d}-{day.month:02d}"
        total[month] = total.get(month, 0.0) + fuel

    extra_all: dict[str, float] = {}
    extra_beh: dict[str, float] = {}
    day_kms = [kms_by_day.get(key) for key in zip(table.vehicle_id, table.date_tx)]
    day_month = [f"{d.year:04d}-{d.month:02d}" for d in table.date_tx]
    behaviour = [
        spec is not None and spec.category == BEHAVIOUR_CATEGORY for spec in map(registry.get, table.features)
    ]
    for d, f, y_diff in zip(table.day, table.feature, table.y_diff):
        kms = day_kms[d]
        if kms is None:
            continue
        liters = y_diff * kms / 100.0
        month = day_month[d]
        extra_all[month] = extra_all.get(month, 0.0) + liters
        if behaviour[f]:
            extra_beh[month] = extra_beh.get(month, 0.0) + liters

    out = []
    for month in sorted(total):
        beh = extra_beh.get(month, 0.0)
        alle = extra_all.get(month, 0.0)
        out.append(
            MonthlyImpact(
                fleet=fleet,
                month=month,
                total_fuel_l=total[month],
                extra_fuel_all_l=alle,
                extra_fuel_behaviour_l=beh,
                co2_kg=beh * co2_per_liter,
                cost=None if price_per_liter is None else alle * price_per_liter,
            )
        )
    return out
