"""Shared fixtures: a small feature registry, record builders, a fresh interpreter."""

from __future__ import annotations

import os
import subprocess
import sys
from datetime import date
from pathlib import Path

import pytest

import fleetfuel
from fleetfuel.ingest import FarRecord
from fleetfuel.registry import FeatureRegistry, FeatureSpec


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
