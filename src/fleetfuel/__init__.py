"""Fleet fuel analytics toolkit.

Turns raw vehicle telemetry into daily records, trains an interpretable
additive fuel model, detects anomalous consumption with boxplot whiskers,
prices per-feature fuel savings against reference values, and evaluates
the results against configurable domain-knowledge limits.

Importing the package loads none of its modules: each name below is
imported from its home module on first access (PEP 562), so a CLI stage
that trains nothing (all but train and synth) loads no numpy.
"""

import importlib

__version__ = "0.1.0"

# home module of every public name
_EXPORTS = {
    "anomaly": ("AnomalyLimits", "LimitTable", "compute_limits", "flag_outliers", "quartiles", "two_phase_clean"),
    "errors": (
        "DataError",
        "FeedFormatError",
        "FleetFuelError",
        "InsufficientSupportError",
        "MissingFeatureError",
        "MissingStageError",
    ),
    "explain": (
        "ExplanationRow",
        "ExplanationTable",
        "FuelMedians",
        "ReferencePolicy",
        "apply_business_rules",
        "generate_daily_explanations",
    ),
    "gam": ("build_bins", "fit"),
    "ingest": (
        "DayTable",
        "FarRecord",
        "RawReading",
        "RouteThresholds",
        "aggregate_daily",
        "assign_vehicle_class",
        "classify_route",
        "compute_avg_fuel",
        "impute_missing",
        "parse_feed",
        "quality_filter",
    ),
    "model": ("AdditiveModel",),
    "registry": ("CatalogTable", "FeatureRegistry", "FeatureSpec", "TrainConfig", "VehicleIdentity", "VinMap"),
    "synthgen": ("SynthSpec", "default_spec", "generate"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
