"""Judge the explanations against domain knowledge and count the liters.

Three checks mirror how a fleet analyst would challenge the system:
  * are the per-subcategory impacts inside the ranges the literature
    reports for those factors?
  * on anomalous days, do the explanations cover at least the fuel excess
    that the outlier detector flagged?
  * does applying all recommendations land near the catalog fuel figure
    for that vehicle type and route?
Finally the surviving savings are converted into monthly liters and CO2.

Run:  python demos/05_evaluate_and_impact.py
"""

from pathlib import Path

from fleetfuel.anomaly import flag_outliers, two_phase_clean
from fleetfuel.evaluate import (
    aggregate_category_impact,
    catalog_mape,
    monthly_impact,
    outlier_vs_explained,
)
from fleetfuel.explain import BR_ORDER, ReferencePolicy, apply_business_rules, generate_daily_explanations
from fleetfuel.gam import fit
from fleetfuel.ingest import aggregate_daily, enrich_records, impute_missing, parse_feed_csv, quality_filter
from fleetfuel.registry import CatalogTable, FeatureRegistry, TrainConfig, VinMap, assign_groups, load_sota_limits
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
model = fit(training, registry, TrainConfig(learning_rate=0.05, max_rounds=400, patience=30, bags=4, seed=2))
inliers = labeled.take([i for i, label in enumerate(labeled.anomaly_label) if label == "inlier"])
policy = ReferencePolicy.from_records(registry, inliers)
raw = generate_daily_explanations(model, labeled, policy, limits)
rows, _ = apply_business_rules(raw, policy, BR_ORDER)

# 1. subcategory impacts vs literature limits (uses the lighter rule set)
impact_rows, _ = apply_business_rules(raw, policy, ("BR1", "BR3", "BR2"))
impacts = aggregate_category_impact(impact_rows, registry, load_sota_limits(), "demo")
print("median impact per subcategory (percent of daily fuel):")
for imp in impacts:
    band = f"[{imp.min_pct}, {imp.max_pct}]" if imp.verdict else "(unchecked)"
    print(f"  {imp.subcategory:24s} {imp.median_impact_pct:6.2f}%  {band} -> {imp.verdict or '-'}")

# 2. explained extra fuel vs the anomaly threshold excess
cmp = outlier_vs_explained(rows, limits, labeled, "demo")
if cmp:
    print(f"\noutlier days: explained {cmp.median_explained:.1%} of fuel vs "
          f"anomalous excess {cmp.median_anomalous:.1%} (p={cmp.p_value:.3g}, n={cmp.n_outlier_days})")

# 3. projected fuel vs catalog references
catalog = CatalogTable.from_csv(fleet_dir / "catalog.csv")
cat_rep = catalog_mape(rows, labeled, identities, catalog, policy, "demo")
print(f"\ncatalog comparison: MAPE1={cat_rep.mape_1:.3f} MAPE2={cat_rep.mape_2:.3f} MAPE3={cat_rep.mape_3:.3f}")
print(f"  {cat_rep.pct_below_catalog:.1f}% of days project below catalog - 1 L/100km "
      f"({cat_rep.n_unmatched} vehicles had no catalog entry)")

# 4. the headline: liters and CO2 per month
for entry in monthly_impact(rows, labeled, registry, "demo"):
    pct = 100 * entry.extra_fuel_behaviour_l / entry.total_fuel_l
    print(f"\n{entry.month}: fleet burned {entry.total_fuel_l:.0f} L; driving behaviour "
          f"accounts for {entry.extra_fuel_behaviour_l:.0f} L extra ({pct:.1f}%) "
          f"= {entry.co2_kg:.0f} kg CO2")
