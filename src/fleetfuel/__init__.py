"""Fleet fuel analytics toolkit.

Turns raw vehicle telemetry into daily records, trains an interpretable
additive fuel model, detects anomalous consumption with boxplot whiskers,
prices per-feature fuel savings against reference values, and evaluates
the results against configurable domain-knowledge limits.
"""

__version__ = "0.1.0"

from .anomaly import AnomalyLimits, LimitTable, compute_limits, flag_outliers, quartiles, two_phase_clean
from .errors import (
    DataError,
    FeedFormatError,
    FleetFuelError,
    InsufficientSupportError,
    MissingFeatureError,
    MissingStageError,
)
from .explain import (
    ExplanationRow,
    ExplanationTable,
    FuelMedians,
    ReferencePolicy,
    apply_business_rules,
    fuel_saving,
    generate_daily_explanations,
    recompute_fuel_new,
)
from .gam import AdditiveModel, TrainConfig, build_bins, fit, one_hot
from .ingest import (
    FarRecord,
    RawReading,
    RouteThresholds,
    aggregate_daily,
    assign_vehicle_class,
    classify_route,
    compute_avg_fuel,
    impute_missing,
    parse_feed,
    quality_filter,
)
from .registry import CatalogTable, FeatureRegistry, FeatureSpec, VehicleIdentity, VinMap
from .synthgen import SynthSpec, default_spec, generate

__all__ = [
    "AdditiveModel",
    "AnomalyLimits",
    "CatalogTable",
    "DataError",
    "ExplanationRow",
    "ExplanationTable",
    "FarRecord",
    "FeatureRegistry",
    "FeatureSpec",
    "FeedFormatError",
    "FleetFuelError",
    "FuelMedians",
    "InsufficientSupportError",
    "LimitTable",
    "MissingFeatureError",
    "MissingStageError",
    "RawReading",
    "ReferencePolicy",
    "RouteThresholds",
    "SynthSpec",
    "TrainConfig",
    "VehicleIdentity",
    "VinMap",
    "aggregate_daily",
    "apply_business_rules",
    "assign_vehicle_class",
    "build_bins",
    "classify_route",
    "compute_avg_fuel",
    "compute_limits",
    "default_spec",
    "fit",
    "flag_outliers",
    "fuel_saving",
    "generate",
    "generate_daily_explanations",
    "impute_missing",
    "one_hot",
    "parse_feed",
    "quality_filter",
    "quartiles",
    "recompute_fuel_new",
    "two_phase_clean",
]
