"""Summarise benchmark results into one trajectory entry.

Run from the root of a checkout after a set of runs:

    python3 perfbench/summarize.py --label "what changed" [--append perfbench/trajectory.json]

Reads ``.perfbench/results.jsonl`` (one line per run of ``run.py``).  For
each workload it prints the median and quartiles of every metric over the
runs, with the sample count and the fail share.  It adds the artifact
digests of the default seed.  With ``--append`` it also adds the entry to
the trajectory file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def entry(results: list[dict], label: str, digest_seed: int) -> dict:
    workloads: dict[str, dict] = {}
    for r in results:
        w = workloads.setdefault(r["workload"], {"seeds": [], "attempted": 0, "failed": 0, "metrics": {}})
        w["attempted"] += r["attempted"]
        w["failed"] += r["failed"]
        if r["trace"] == 0:
            w["seeds"].append(r["seed"])
        for name, (value, unit) in r["metrics"].items():
            w["metrics"].setdefault(name, {"unit": unit, "values": []})["values"].append(value)
        if r["seed"] == digest_seed:
            w["digests_default_seed"] = r["digests"]
    for w in workloads.values():
        w["fail_share"] = w["failed"] / w["attempted"]
        w["metrics"] = {
            name: {"unit": m["unit"], **summarise(m["values"])} for name, m in w["metrics"].items()
        }
    return {"label": label, "env": results[-1]["env"], "workloads": workloads}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--results", default=".perfbench/results.jsonl")
    parser.add_argument("--append", default=None, help="trajectory JSON file to extend")
    args = parser.parse_args()
    sys.path.insert(0, str(Path.cwd() / "src"))
    from workloads import DEFAULT_SEED

    with open(args.results, encoding="utf-8") as fh:
        results = [json.loads(line) for line in fh if line.strip()]
    summary = entry(results, args.label, DEFAULT_SEED)
    for name, w in summary["workloads"].items():
        print(f"{name}: {len(w['seeds'])} runs, fail_share {w['fail_share']:g}")
        for metric, m in w["metrics"].items():
            spread = (m["q3"] - m["q1"]) / m["median"] if m["median"] else 0.0
            print(f"  {metric:<34} {m['median']:>12.6g} {m['unit']:<8} "
                  f"q1 {m['q1']:.6g} q3 {m['q3']:.6g} spread {spread:.3f} n={m['n']}")
    if args.append:
        path = Path(args.append)
        trajectory = json.loads(path.read_text()) if path.exists() else []
        trajectory.append(summary)
        path.write_text(json.dumps(trajectory, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
