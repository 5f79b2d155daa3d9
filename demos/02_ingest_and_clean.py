"""From raw feed to labeled daily records.

Walks the ingestion path: parse the CSV feed, aggregate per vehicle-day,
classify route context, resolve vehicle groups from the VIN map, filter
unusable records, compute the per-(group, route) whisker limits in two
passes, and label each day inlier or outlier.

Run:  python demos/02_ingest_and_clean.py   (after 01_generate_fleet.py)
"""

from pathlib import Path

from fleetfuel.anomaly import flag_outliers, two_phase_clean
from fleetfuel.ingest import (
    aggregate_daily,
    enrich_records,
    impute_missing,
    parse_feed_csv,
    quality_filter,
)
from fleetfuel.registry import FeatureRegistry, VinMap, assign_groups
from fleetfuel.synthgen import default_spec, generate

fleet_dir = Path("demo_out/fleet")
if not fleet_dir.exists():
    generate(default_spec(seed=42, n_vehicles=60, n_days=15, outlier_rate=0.04), fleet_dir)

registry = FeatureRegistry.default()
parsed = parse_feed_csv(fleet_dir / "feed.csv", registry)
print(f"parsed {len(parsed.readings)} readings, {parsed.n_rejected} rejected")

records, report = aggregate_daily(parsed.readings, registry)
print(f"aggregated into {report.n_records} vehicle-day records")

vin_map = VinMap.from_csv(fleet_dir / "vin_map.csv")
identities = assign_groups(sorted({r.vehicle_id for r in records}), vin_map)
records = enrich_records(records, identities)

routes = {}
for rec in records:
    routes[rec.route_type] = routes.get(rec.route_type, 0) + 1
print(f"route mix: {routes}")

kept, removal = quality_filter(records)
print(f"quality filter kept {len(kept)} ({removal.reasons or 'nothing removed'})")

training, limits, noise = two_phase_clean(kept)
print(f"two-phase cleaning: {noise.n_low} low-fuel and {noise.n_noise} noisy days cut")
print("published limits per (group, route):")
for (group, route), lim in list(limits.items())[:6]:
    flag = " (borrowed)" if lim.borrowed else ""
    print(f"  group {group} {route:8s} lim_sup {lim.lim_sup:6.2f}{flag}")

labeled = flag_outliers(kept, limits)
impute_missing(labeled, registry)
counts = {}
for rec in labeled:
    counts[rec.anomaly_label] = counts.get(rec.anomaly_label, 0) + 1
print(f"labels: {counts}")
