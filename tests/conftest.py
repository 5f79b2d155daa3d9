"""Shared fixtures: a small feature registry, record builders, scalar oracles, a fresh interpreter."""

from __future__ import annotations

import os
import subprocess
import sys
from bisect import bisect_right
from dataclasses import dataclass
from datetime import date
from pathlib import Path

import pytest

import fleetfuel
from fleetfuel.ingest import FarRecord
from fleetfuel.registry import FeatureRegistry, FeatureSpec
from fleetfuel.synthgen import ROUTE_KMS, ROUTE_PTC, TruthDay, _route_cdf, _snap_roundtrip, _span


def make_registry(specs=None) -> FeatureRegistry:
    if specs is None:
        specs = [
            FeatureSpec(
                name="rpm_high",
                unit="events",
                aggregator="sum",
                impact_type="Positive",
                reference_zero=True,
                category="Driving Behaviour",
                subcategory="Aggressive Driving",
                actionable=True,
            ),
            FeatureSpec(
                name="mean_speed_hwy",
                unit="km/h",
                aggregator="mean",
                impact_type="Positive",
                reference_zero=False,
                category="Driving Behaviour",
                subcategory="Aggressive Driving",
                actionable=True,
            ),
            FeatureSpec(
                name="mean_exterior_temp",
                unit="K",
                aggregator="mean",
                impact_type="Negative",
                reference_zero=False,
                category="Weather Conditions",
                subcategory="Ambient Temperature",
                actionable=True,
            ),
        ]
    return FeatureRegistry(specs)


def make_record(
    vehicle_id="v1",
    day="2021-01-05",
    features=None,
    trip_kms=50.0,
    trip_fuel_used=5.0,
    per_time_city=0.4,
    route_type="highway",
    vehicle_group=0,
    avg=None,
    label="unassigned",
) -> FarRecord:
    rec = FarRecord(
        vehicle_id=vehicle_id,
        date=date.fromisoformat(day),
        features=dict(features or {}),
        trip_kms=trip_kms,
        trip_fuel_used=trip_fuel_used,
        per_time_city=per_time_city,
        route_type=route_type,
        vehicle_group=vehicle_group,
        anomaly_label=label,
    )
    if avg is not None:
        rec.avg_fuel_consumption = avg
    elif trip_fuel_used is not None and trip_kms and trip_kms > 0:
        rec.avg_fuel_consumption = trip_fuel_used / trip_kms * 100.0
    return rec


def fuel_saving(model, record: FarRecord, feature: str, x_ref: float) -> float:
    """Scalar reference: the shape-value drop when the feature moves to its reference.

    Negative values mean the reference would cost fuel; explain treats those
    as no saving and writes no row.
    """
    return model.contribution_at(feature, record.features[feature]) - model.contribution_at(feature, x_ref)


def recompute_fuel_new(avg_fuel: float, y_diffs) -> float:
    """Scalar reference: a day's fuel after every surviving recommendation."""
    total = 0.0
    for y_diff in y_diffs:  # left to right: from Python 3.12, sum() compensates
        total += y_diff
    return avg_fuel - total


@dataclass
class AuditEntry:
    """One dropped row of the audit, as the row-by-row rule loop logged it."""

    rule_id: str
    vehicle_id: str
    date_tx: str
    feature: str
    values: dict


def audit_entries(audit, table) -> list[AuditEntry]:
    """The columnar audit of ``apply_business_rules(table, ...)`` expanded to one entry per dropped row."""
    return [
        AuditEntry(rule, table.vehicle_id[table.day[r]], table.date_tx[table.day[r]].isoformat(),
                   table.features[table.feature[r]], {key: column[i] for key, column in columns.items()})
        for rule, rows, columns in audit
        for i, r in enumerate(rows)
    ]


def drop_counts(audit) -> dict[str, int]:
    """Rows dropped per rule, for every rule the audit holds."""
    return {rule: len(rows) for rule, rows, _ in audit}


def reference_draw_days(spec, dates, vehicle_ids, vehicle_group, rngs) -> list[TruthDay]:
    """Scalar reference: the per-vehicle-day draw loop that ``synthgen._draw_days`` replaced, the oracle for it."""
    routes, route_cdf = _route_cdf(spec.route_mix)
    ptc_spans = {route: _span(*ROUTE_PTC[route]) for route in routes}
    # per feature: its ranges below and above the top cut if it has a top fraction, else its whole range twice
    draws = []
    for f in spec.features:
        if f.top_fraction > 0:
            lower, top = _span(f.low, f.top_cut), _span(f.top_cut, f.high)
        else:
            lower = top = _span(f.low, f.high)
        draws.append((f.name, f.top_fraction, lower, top, f.integer, f.low, f.high, f.contribution))
    n_doubles = 1 + sum(2 if f.top_fraction > 0 else 1 for f in spec.features)

    days = []
    for v, rng in enumerate(rngs):
        random, integers, normal = rng.random, rng.integers, rng.normal
        group = spec.groups[vehicle_group[v]]
        for day in dates:
            route = routes[bisect_right(route_cdf, random())]
            route_kms = ROUTE_KMS[route]
            kms = route_kms[integers(0, len(route_kms))]
            u = random(n_doubles).tolist()
            ptc_start, ptc_width = ptc_spans[route]
            ptc = ptc_start + ptc_width * u[0]
            values = {}
            contribs = {}
            i = 1
            for name, top_fraction, lower, top, integer, low, high, contribution in draws:
                if top_fraction > 0:
                    start, width = top if u[i] < top_fraction else lower
                    i += 1
                else:
                    start, width = lower
                value = start + width * u[i]
                i += 1
                if integer:
                    value = float(round(value))
                values[name] = value = min(max(value, low), high)
                contribs[name] = contribution(value)
            noise = float(normal(0.0, spec.noise_sigma)) if spec.noise_sigma else 0.0
            planted = random() < spec.outlier_rate
            planted_sum = 0.0
            for contrib in contribs.values():  # left to right: from Python 3.12, sum() compensates
                planted_sum += contrib
            clean = _snap_roundtrip(group.base_fuel + planted_sum + noise)
            days.append(
                TruthDay(
                    vehicle_id=vehicle_ids[v],
                    date=day,
                    synth_group=vehicle_group[v],
                    make=group.make,
                    model=group.model,
                    year=group.year,
                    fuel_type=group.fuel_type,
                    route_type=route,
                    trip_kms=kms,
                    per_time_city=ptc,
                    fuel_l100=clean,
                    clean_fuel_l100=clean,
                    planted_outlier=planted,
                    boost_added=0.0,
                    base_fuel=group.base_fuel,
                    noise_residual=0.0,
                    feature_values=values,
                    contributions=contribs,
                )
            )
    return days


@pytest.fixture
def small_registry() -> FeatureRegistry:
    return make_registry()


def run_python(script: str, cwd=None) -> str:
    """Stdout of ``script`` run in a fresh interpreter that imports this checkout's package."""
    src = str(Path(fleetfuel.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout
