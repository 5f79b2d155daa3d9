"""Price each factor of a high-consumption day in liters per 100 km.

For an outlier day, every actionable feature is compared against its
reference: zero for event-style features, the inlier median of the same
vehicle group and route otherwise.  The drop in the feature's shape value
is the claimed saving.  Business rules then prune implausible claims and
the survivors project a new daily fuel figure.

Run:  python demos/04_explain_a_day.py
"""

from pathlib import Path

from fleetfuel.anomaly import flag_outliers, two_phase_clean
from fleetfuel.explain import BR_ORDER, ReferencePolicy, apply_business_rules, generate_daily_explanations
from fleetfuel.gam import fit
from fleetfuel.ingest import aggregate_daily, enrich_records, impute_missing, parse_feed_csv, quality_filter
from fleetfuel.registry import FeatureRegistry, TrainConfig, VinMap, assign_groups
from fleetfuel.synthgen import default_spec, generate

fleet_dir = Path("demo_out/fleet")
if not fleet_dir.exists():
    generate(default_spec(seed=42, n_vehicles=60, n_days=15, outlier_rate=0.04), fleet_dir)

registry = FeatureRegistry.default()
records, _ = aggregate_daily(parse_feed_csv(fleet_dir / "feed.csv", registry).readings, registry)
identities = assign_groups(sorted({r.vehicle_id for r in records}), VinMap.from_csv(fleet_dir / "vin_map.csv"))
records = enrich_records(records, identities)
kept, _ = quality_filter(records)
impute_missing(kept, registry)  # before the training rows are copied out of the table
training, limits, _ = two_phase_clean(kept)
labeled = flag_outliers(kept, limits)

model = fit(training, registry, TrainConfig(learning_rate=0.05, max_rounds=400, patience=30, bags=4, seed=1))
inliers = labeled.take([i for i, label in enumerate(labeled.anomaly_label) if label == "inlier"])
policy = ReferencePolicy.from_records(registry, inliers)

raw = generate_daily_explanations(model, labeled, policy, limits)
rows, audit = apply_business_rules(raw, policy, BR_ORDER)
print(f"{len(raw)} raw rows -> {len(rows)} after business rules ({len(raw) - len(rows)} drops)")

# the audit holds one record per rule: its id, the rows it dropped and the values it logged for them
drops = {rule: len(dropped) for rule, dropped, _ in audit if dropped}
print(f"drops by rule: {dict(sorted(drops.items()))}")

# pick the day with the biggest surviving total saving
by_day = {}
for row in rows:
    by_day.setdefault((row.vehicle_id, row.date_tx), []).append(row)
day_key, day_rows = max(by_day.items(), key=lambda kv: sum(r.y_diff for r in kv[1]))
day_rows.sort(key=lambda r: -r.y_diff)
first = day_rows[0]
print(f"\n{first.vehicle_id} on {first.date_tx} ({first.route_type}, group {first.vehicle_group})")
print(f"  actual fuel {first.avg_fuel_consumption:.2f} L/100km, "
      f"group limit {first.limit_group:.2f}, model predicts {first.y_pred:.2f}")
print(f"  {'feature':24s} {'now':>8s} {'target':>8s} {'saves':>7s}")
for row in day_rows:
    print(f"  {row.feature:24s} {row.feature_value:8.1f} {row.target_value:8.1f} {row.y_diff:7.2f}")
total = sum(r.y_diff for r in day_rows)
print(f"  projected fuel after all recommendations: {first.y_fuel_new:.2f} "
      f"(= {first.avg_fuel_consumption:.2f} - {total:.2f})")
