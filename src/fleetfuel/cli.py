"""Command-line pipeline: synth | ingest | clean | train | explain | evaluate | impact.

One JSON config file carries paths and every tunable constant; flags
override the config, the config overrides built-in defaults.  Every stage
writes its artifacts into the output directory.  ``RunContext`` records
each input as the stage opens it, with its sha256 taken on opening, and
each output as the stage names it; when the stage ends both go into
manifest.json, which is enough to re-execute the run.  Outputs are
byte-stable for a fixed config and seed.

From ingest to impact a stage holds its vehicle-days in one
``ingest.DayTable``.  The tables clean writes are read back with their
features, distance and fuel checked finite, so a bad cell exits 2 naming
its file and line before any split or sort.

A stage imports only the modules it runs, on first use.  numpy loads only
where the trainer is, in train and synth: ingest, clean, explain, evaluate
and impact start without it.  explain loads the numpy-free model module,
and neither the trainer (gam), evaluate nor synthgen.

Exit codes: 0 success, 1 usage, 2 data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import importlib
import json
import logging
import sys
from pathlib import Path

from . import __version__
from .anomaly import flag_outliers, read_limits_csv, two_phase_clean, write_limits_csv
from .errors import DataError, FeedFormatError, FleetFuelError, MissingStageError
from .ingest import (
    LABEL_INLIER,
    DayTable,
    RouteThresholds,
    aggregate_daily,
    assign_classes,
    enrich_records,
    impute_missing,
    parse_feed_csv,
    quality_filter,
    read_far_csv,
    write_far_csv,
)
from .registry import (
    CO2_KG_PER_LITER,
    DEFAULT_BR2_THRESHOLD,
    DEFAULT_BR5_CAP,
    CatalogTable,
    FeatureRegistry,
    TrainConfig,
    VinMap,
    artifact_file,
    assign_groups,
    fits,
    load_class_table,
    load_sota_limits,
    read_identities_csv,
    read_json_object,
    write_identities_csv,
    write_report_csv,
    write_report_json,
)


def _deferred(module: str, name: str):
    """Stand-in for ``fleetfuel.<module>.<name>`` that imports the module on its first call.

    A stage module loads only in the stages that call into it, while
    every call still goes through this module's globals under the
    function's own name, where a tracer that wraps them by name finds it.
    """

    def call(*args, **kwargs):
        return getattr(importlib.import_module(f"fleetfuel.{module}"), name)(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    call.__module__ = f"fleetfuel.{module}"
    return call


fit = _deferred("gam", "fit")
write_shape_curves_csv = _deferred("gam", "write_shape_curves_csv")
write_train_history_csv = _deferred("gam", "write_train_history_csv")
generate_daily_explanations = _deferred("explain", "generate_daily_explanations")
apply_business_rules = _deferred("explain", "apply_business_rules")
read_explanations_csv = _deferred("explain", "read_explanations_csv")
write_explanations_csv = _deferred("explain", "write_explanations_csv")
write_audit_log = _deferred("explain", "write_audit_log")
write_inlier_medians_csv = _deferred("explain", "write_inlier_medians_csv")
train_test_split = _deferred("evaluate", "train_test_split")
model_metrics = _deferred("evaluate", "model_metrics")
aggregate_category_impact = _deferred("evaluate", "aggregate_category_impact")
outlier_vs_explained = _deferred("evaluate", "outlier_vs_explained")
catalog_mape = _deferred("evaluate", "catalog_mape")
monthly_impact = _deferred("evaluate", "monthly_impact")

logger = logging.getLogger(__name__)


class UsageError(FleetFuelError):
    """Bad invocation: unparseable config or unknown config keys."""


DEFAULT_CONFIG = {
    "fleet_id": "fleet",
    "paths": {
        "feed": None,
        "registry": None,
        "vin_map": None,
        "catalog": None,
        "sota_limits": None,
        "class_table": None,
        "synth_spec": None,
        "out_dir": "out",
    },
    "route_thresholds": dataclasses.asdict(RouteThresholds()),
    "train": dataclasses.asdict(TrainConfig()),
    "split": {"fraction": 0.9, "seed": 0},
    "rules": {"br2_threshold": DEFAULT_BR2_THRESHOLD, "br5_cap": DEFAULT_BR5_CAP},
    "catalog_offset": 1.0,
    "co2_per_liter": CO2_KG_PER_LITER,
    "price_per_liter": None,
    "ignore_channels": [],
}

STAGES = ("ingest", "clean", "train", "explain", "evaluate", "impact")


def _merge(defaults: dict, override: dict, path: str = "") -> dict:
    """``defaults`` updated by ``override``, whose every value has its default's type, unconverted.

    An int passes for a float, a bool never for a number; a key whose default is None takes anything.
    """
    out = dict(defaults)
    for key, value in override.items():
        if key not in defaults:
            raise UsageError(f"unknown config key {path + key!r}")
        default = defaults[key]
        if isinstance(default, dict) and isinstance(value, dict):
            out[key] = _merge(default, value, f"{path}{key}.")
            continue
        if default is not None and not fits(value, type(default)):
            raise UsageError(f"config key {path + key!r} must be {type(default).__name__}, got {value!r}")
        out[key] = value
    return out


class RunContext:
    """Resolved config, lazy shared tables and the files the running stage touches.

    A stage names each file once.  ``config_file`` and ``artifact`` check
    that a file the stage is about to read exists and record it with its
    sha256 taken then; ``output`` returns a path in the output directory
    and records it.  ``record_stage`` writes the record into manifest.json
    and clears it for the next stage.
    """

    def __init__(self, config: dict, overrides: dict):
        self.config = config
        self.overrides = overrides
        self.out_dir = Path(config["paths"]["out_dir"])
        self._registry: FeatureRegistry | None = None
        self._inputs: dict[str, str] = {}
        self._outputs: list[Path] = []
        # read before any stage runs, so a corrupt manifest stops it early
        manifest = self.out_dir / "manifest.json"
        self._manifest = read_json_object(manifest, "manifest") if manifest.exists() else {}

    @classmethod
    def from_args(cls, args) -> "RunContext":
        config = DEFAULT_CONFIG
        if args.config is not None:
            cfg_path = Path(args.config)
            if not cfg_path.exists():
                raise FeedFormatError(f"missing file: {cfg_path}")
            try:
                user = read_json_object(cfg_path, "config")
            except FeedFormatError as exc:
                raise UsageError(str(exc)) from exc
            config = _merge(DEFAULT_CONFIG, user)
        overrides = {}
        if args.out is not None:
            config = _merge(config, {"paths": {"out_dir": args.out}})
            overrides["out_dir"] = args.out
        if args.seed is not None:
            config = _merge(config, {"train": {"seed": args.seed}, "split": {"seed": args.seed}})
            overrides["seed"] = args.seed
        return cls(config, overrides)

    # -- files of the running stage ------------------------------------------

    def _read(self, path: Path) -> Path:
        self._inputs[str(path)] = _digest(path)
        return path

    def config_file(self, key: str, default: str | None = None) -> Path | None:
        """Input ``paths.<key>`` of the config, else ``out_dir/default``, else None."""
        configured = self.config["paths"][key]
        if not configured and default is None:
            return None
        path = Path(configured) if configured else self.out_dir / default
        if not path.exists():
            raise FeedFormatError(f"missing file: {path}")
        return self._read(path)

    def artifact(self, name: str, producer: str) -> Path:
        """Input ``out_dir/name``; MissingStageError names its producer when absent."""
        path = self.out_dir / name
        if not path.exists():
            raise MissingStageError(producer)
        return self._read(path)

    def output(self, name: str) -> Path:
        path = self.out_dir / name
        self._outputs.append(path)
        return path

    def report(self, stem: str, payload, rows, row_type: type) -> None:
        """Outputs ``<stem>.json`` holding payload and ``<stem>.csv`` with one line per row."""
        write_report_json(payload, self.output(f"{stem}.json"))
        write_report_csv(rows, row_type, self.output(f"{stem}.csv"))

    # -- shared tables -------------------------------------------------------

    def registry(self) -> FeatureRegistry:
        path = self.config_file("registry")
        if self._registry is None:
            self._registry = FeatureRegistry.default() if path is None else FeatureRegistry.from_csv(path)
        return self._registry

    def route_thresholds(self) -> RouteThresholds:
        return RouteThresholds(**{k: float(v) for k, v in self.config["route_thresholds"].items()})

    def train_config(self) -> TrainConfig:
        return TrainConfig(**self.config["train"])

    # -- manifest -------------------------------------------------------------

    def record_stage(self, stage: str) -> None:
        """Write the stage's inputs and outputs into manifest.json and start a new record."""
        manifest = self._manifest
        manifest["package_version"] = __version__
        manifest["config"] = self.config
        manifest.setdefault("stages", {})[stage] = {
            "inputs": self._inputs,
            "outputs": {str(p): _digest(p) for p in self._outputs},
            "overrides": self.overrides,
        }
        self._inputs, self._outputs = {}, []
        with artifact_file(self.out_dir / "manifest.json") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")


@contextlib.contextmanager
def _naming(path: Path):
    """Re-raise a DataError about the data read from ``path`` as a FeedFormatError naming the file."""
    try:
        yield
    except DataError as exc:
        raise FeedFormatError(f"{path}: {exc}") from exc


def _read_cleaned_far(path: Path, registry: FeatureRegistry) -> DayTable:
    """read_far_csv of a table clean wrote: its features, distance, fuel and avg fuel are finite numbers on every row.

    The first bad cell, row by row, raises FeedFormatError naming its line: row i is on line i + 2.
    """
    table = read_far_csv(path, registry)
    bad = table.bad_cell(("trip_kms", "trip_fuel_used", "avg_fuel_consumption", *table.features))
    if bad is not None:
        raise FeedFormatError(f"{path}: line {bad[0] + 2}: {bad[1]}") from bad[1]
    return table


def _digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Stages


def stage_synth(ctx: RunContext) -> None:
    from .synthgen import SynthSpec, default_spec, generate

    spec_path = ctx.config_file("synth_spec")
    if spec_path is None:
        spec = default_spec(seed=ctx.config["train"]["seed"])
    else:
        spec = SynthSpec.from_json(spec_path)
        if "seed" in ctx.overrides:
            spec.seed = ctx.overrides["seed"]
    ctx.out_dir.mkdir(parents=True, exist_ok=True)
    fleet = generate(spec, ctx.out_dir)
    for path in (fleet.feed_path, fleet.vin_map_path, fleet.catalog_path, fleet.truth_days_path,
                 fleet.truth_savings_path):
        ctx.output(path.name)
    spec.to_json(ctx.output("synth_spec.json"))
    ctx.record_stage("synth")
    print(f"synth: {len(fleet.days)} vehicle-days -> {fleet.feed_path}")


def stage_ingest(ctx: RunContext) -> None:
    feed_path = ctx.config_file("feed", "feed.csv")
    vin_path = ctx.config_file("vin_map", "vin_map.csv")
    registry = ctx.registry()
    ctx.out_dir.mkdir(parents=True, exist_ok=True)

    parsed = parse_feed_csv(feed_path, registry)
    with _naming(feed_path):
        table, agg_report = aggregate_daily(parsed.readings, registry, ctx.config["ignore_channels"])
    vin_map = VinMap.from_csv(vin_path)
    identities = assign_groups(sorted(set(table.vehicle_id)), vin_map)
    table = enrich_records(table, identities, ctx.route_thresholds())

    write_far_csv(table, registry, ctx.output("far_raw.csv"))
    write_report_json(
        {
            "n_readings": agg_report.n_readings,
            "n_records": agg_report.n_records,
            "rejects": parsed.rejects,
            "unknown_channels": agg_report.unknown_channels,
        },
        ctx.output("ingest_report.json"),
    )
    write_identities_csv(identities, ctx.output("identities.csv"))
    ctx.record_stage("ingest")
    print(f"ingest: {agg_report.n_records} records, {parsed.n_rejected} rejected rows")


def stage_clean(ctx: RunContext) -> None:
    registry = ctx.registry()
    table = read_far_csv(ctx.artifact("far_raw.csv", "ingest"), registry)

    base, removal = quality_filter(table)
    classes = assign_classes(base, load_class_table(ctx.config_file("class_table")))

    training, limits, noise = two_phase_clean(base)
    low, noisy = set(noise.low_rows), set(noise.noise_rows)
    kept = [i for i in range(len(base)) if i not in low]
    labeled = impute_missing(flag_outliers(base.take(kept), limits), registry)
    # the survivors of cleaning, as labeled and imputed above
    training = labeled.take([k for k, i in enumerate(kept) if i not in noisy])

    # recorded with ingest's digest: it is read here before it is rewritten
    identities = read_identities_csv(ctx.artifact("identities.csv", "ingest"))
    identities = {
        vid: dataclasses.replace(ident, vehicle_class=classes.get(ident.vehicle_group, 0))
        for vid, ident in identities.items()
    }

    write_far_csv(labeled, registry, ctx.output("far_labeled.csv"))
    write_far_csv(training, registry, ctx.output("far_training.csv"))
    write_limits_csv(limits, ctx.output("limits.csv"))
    write_identities_csv(identities, ctx.output("identities.csv"))
    write_report_json(
        {
            "structural_removals": removal.reasons,
            "n_low_fuel": noise.n_low,
            "n_noise_fuel": noise.n_noise,
            "emptied_cells": [list(c) for c in noise.emptied_cells],
            "skipped_cells": [list(c) for c in limits.skipped],
            "n_labeled": len(labeled),
            "n_training": len(training),
        },
        ctx.output("clean_report.json"),
    )
    ctx.record_stage("clean")
    print(
        f"clean: {len(labeled)} labeled, {len(training)} training "
        f"({removal.n_removed} structural, {noise.n_low} low, {noise.n_noise} noise)"
    )


def stage_train(ctx: RunContext) -> None:
    from .evaluate import ModelMetrics

    registry = ctx.registry()
    path = ctx.artifact("far_training.csv", "clean")
    table = _read_cleaned_far(path, registry)
    split_cfg = ctx.config["split"]
    with _naming(path):
        train_table, test_table = train_test_split(table, float(split_cfg["fraction"]), int(split_cfg["seed"]))
        model = fit(train_table, registry, ctx.train_config())
    predictions = model.predict_many(test_table)
    n_predictors = sum(1 for cuts in model.cuts if cuts)
    metrics = model_metrics(ctx.config["fleet_id"], test_table, predictions, n_predictors, len(train_table))
    model.save_json(ctx.output("model.json"))
    write_shape_curves_csv(model, ctx.output("shape_curves.csv"))
    ctx.report("train_metrics", metrics, [metrics], ModelMetrics)
    write_train_history_csv(model, ctx.output("train_history.csv"))
    ctx.record_stage("train")
    print(
        f"train: mape={metrics.median_vehicle_mape:.2f}% ({metrics.mape_category}), "
        f"adj_r2={metrics.adjusted_r2:.3f} ({metrics.r2_category})"
    )


def _load_labeled_inputs(ctx: RunContext):
    registry = ctx.registry()
    labeled = _read_cleaned_far(ctx.artifact("far_labeled.csv", "clean"), registry)
    limits = read_limits_csv(ctx.artifact("limits.csv", "clean"))
    inliers = labeled.take([i for i, label in enumerate(labeled.anomaly_label) if label == LABEL_INLIER])
    return registry, labeled, limits, inliers


def stage_explain(ctx: RunContext) -> None:
    from .explain import BR_ORDER, ReferencePolicy
    from .model import DEFAULT_CATEGORICALS, AdditiveModel

    # the model first: with several artifacts missing, the report names train
    model = AdditiveModel.load_json(ctx.artifact("model.json", "train"))
    registry, labeled, limits, inliers = _load_labeled_inputs(ctx)
    policy = ReferencePolicy.from_records(registry, inliers, DEFAULT_CATEGORICALS)
    rules_cfg = ctx.config["rules"]
    pre_rows = generate_daily_explanations(model, labeled, policy, limits)
    final_rows, audit = apply_business_rules(
        pre_rows,
        policy,
        BR_ORDER,
        br2_threshold=float(rules_cfg["br2_threshold"]),
        br5_cap=float(rules_cfg["br5_cap"]),
    )
    write_explanations_csv(final_rows, ctx.output("explanations.csv"))
    write_explanations_csv(pre_rows, ctx.output("explanations_prefilter.csv"))
    write_audit_log(audit, pre_rows, ctx.output("audit.jsonl"))
    write_inlier_medians_csv(policy, labeled, ctx.output("inlier_medians.csv"))
    ctx.record_stage("explain")
    print(
        f"explain: {len(final_rows)} rows on "
        f"{final_rows.n_vehicle_days()} vehicle-days "
        f"({len(pre_rows) - len(final_rows)} rows dropped by rules)"
    )


def stage_evaluate(ctx: RunContext) -> None:
    from .evaluate import CatalogMapeReport, CategoryImpact, ModelMetrics, OutlierComparison
    from .explain import FuelMedians

    registry, labeled, limits, inliers = _load_labeled_inputs(ctx)
    # BR1-BR3 and the catalog comparison read only fuel medians
    fuel = FuelMedians.from_records(registry, inliers)
    fleet = ctx.config["fleet_id"]
    final_rows = read_explanations_csv(ctx.artifact("explanations.csv", "explain"), registry)
    pre_rows = read_explanations_csv(ctx.artifact("explanations_prefilter.csv", "explain"), registry)
    rules_cfg = ctx.config["rules"]

    impact_rows, _ = apply_business_rules(
        pre_rows, fuel, ("BR1", "BR3", "BR2"), br2_threshold=float(rules_cfg["br2_threshold"])
    )
    sota = load_sota_limits(ctx.config_file("sota_limits"))
    impacts = aggregate_category_impact(impact_rows, registry, sota, fleet)

    comparison = outlier_vs_explained(final_rows, limits, labeled, fleet)

    identities = read_identities_csv(ctx.artifact("identities.csv", "clean"))
    catalog = CatalogTable.from_csv(ctx.config_file("catalog", "catalog.csv"))
    catalog_report = catalog_mape(
        final_rows,
        labeled,
        identities,
        catalog,
        fuel,
        fleet,
        offset=float(ctx.config["catalog_offset"]),
    )

    # model-metrics passthrough so the evaluation directory is self-contained
    train_metrics = read_json_object(ctx.artifact("train_metrics.json", "train"), "train metrics")
    ctx.report("report_model_metrics", train_metrics, [train_metrics], ModelMetrics)
    ctx.report("report_category_impact", {"fleet": fleet, "impacts": impacts}, impacts, CategoryImpact)
    ctx.report(
        "report_outlier_explained",
        {"fleet": fleet, "comparison": comparison},
        [comparison] if comparison is not None else [],
        OutlierComparison,
    )
    ctx.report("report_catalog_mape", catalog_report, [catalog_report], CatalogMapeReport)
    ctx.record_stage("evaluate")
    if comparison is not None:
        print(
            f"evaluate: median explained {comparison.median_explained:.3f} vs "
            f"anomalous {comparison.median_anomalous:.3f} (p={comparison.p_value:.4f})"
        )
    else:
        print("evaluate: no outlier days to compare")


def stage_impact(ctx: RunContext) -> None:
    from .evaluate import MonthlyImpact

    registry = ctx.registry()
    fleet = ctx.config["fleet_id"]
    final_rows = read_explanations_csv(ctx.artifact("explanations.csv", "explain"), registry)
    labeled = _read_cleaned_far(ctx.artifact("far_labeled.csv", "clean"), registry)
    table = monthly_impact(
        final_rows,
        labeled,
        registry,
        fleet,
        co2_per_liter=float(ctx.config["co2_per_liter"]),
        price_per_liter=(
            None if ctx.config["price_per_liter"] is None else float(ctx.config["price_per_liter"])
        ),
    )
    ctx.report("monthly_impact", {"fleet": fleet, "months": table}, table, MonthlyImpact)
    ctx.record_stage("impact")
    for row in table:
        print(
            f"impact {row.month}: {row.total_fuel_l:.0f} L total, "
            f"{row.extra_fuel_behaviour_l:.0f} L behaviour extra, {row.co2_kg:.0f} kg CO2"
        )


STAGE_FUNCS = {
    "synth": stage_synth,
    "ingest": stage_ingest,
    "clean": stage_clean,
    "train": stage_train,
    "explain": stage_explain,
    "evaluate": stage_evaluate,
    "impact": stage_impact,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fleetfuel",
        description="Fleet fuel analytics pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("synth", *STAGES, "pipeline"):
        p = sub.add_parser(name, help=f"run the {name} stage")
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override every stage seed")
        p.add_argument("--out", default=None, help="output directory")
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        ctx = RunContext.from_args(args)
        if args.command == "pipeline":
            for name in STAGES:
                STAGE_FUNCS[name](ctx)
        else:
            STAGE_FUNCS[args.command](ctx)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (FleetFuelError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        logger.exception("internal error")
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
