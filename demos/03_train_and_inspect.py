"""Train the additive model and read its shape functions.

The model is an intercept plus one piecewise-constant curve per feature;
a prediction is literally the sum of the curve values at the record's
feature values, so the model can be printed, plotted and audited.

Run:  python demos/03_train_and_inspect.py   (after 01/02 or standalone)
"""

import math
from pathlib import Path

from fleetfuel.anomaly import two_phase_clean
from fleetfuel.evaluate import model_metrics, train_test_split
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
training, limits, _ = two_phase_clean(kept)
impute_missing(training, registry)

train, test = train_test_split(training, 0.9, seed=0)
config = TrainConfig(learning_rate=0.05, max_rounds=400, patience=30, bags=4, seed=0)
model = fit(train, registry, config)

preds = model.predict_many(test)
metrics = model_metrics("demo", test, preds, len(model.columns), len(train))
print(f"median per-vehicle MAPE {metrics.median_vehicle_mape:.2f}% ({metrics.mape_category})")
print(f"adjusted R2 {metrics.adjusted_r2:.3f} ({metrics.r2_category})")

print("\nshape of rpm_high (events with very high engine speed):")
for lo, hi, value in model.shape_curve("rpm_high"):
    lo_s = "-inf" if lo == -math.inf else f"{lo:7.1f}"
    hi_s = "+inf" if hi == math.inf else f"{hi:7.1f}"
    print(f"  [{lo_s}, {hi_s})  {value:+.3f} L/100km")

# the first test day: preds[0], and its value (c[0]) in each model column's contributions
rec = next(iter(test))
relevance = {col.name: c[0] for col, c in zip(model.columns, model.contributions(model.encode(test)))}
top = sorted(relevance.items(), key=lambda kv: -abs(kv[1]))[:5]
print(f"\n{rec.vehicle_id} on {rec.date}: actual {rec.avg_fuel_consumption:.2f}, "
      f"predicted {preds[0]:.2f}")
print("largest contributions:")
for name, value in top:
    print(f"  {name:24s} {value:+.3f}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, axes = plt.subplots(2, 2, figsize=(9, 6))
    for ax, name in zip(axes.flat, ("rpm_high", "count_jackrabbit", "mean_speed_hwy", "mean_exterior_temp")):
        curve = model.shape_curve(name)
        xs, ys = [], []
        for lo, hi, value in curve:
            lo = curve[1][0] - 1 if lo == -math.inf else lo
            hi = curve[-2][1] + 1 if hi == math.inf else hi
            xs += [lo, hi]
            ys += [value, value]
        ax.plot(xs, ys, drawstyle="steps-post")
        ax.set_title(name)
        ax.set_ylabel("L/100km")
    fig.tight_layout()
    out = Path("demo_out/shape_curves.png")
    fig.savefig(out, dpi=120)
    print(f"\nwrote {out}")
except ImportError:
    print("\nmatplotlib not installed; skipping the plot")
