"""End-to-end benchmark of the fleetfuel CLI pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fleet-1x --seed 1 --seconds 30 --trace 0

A closed loop with one client.  Set-up generates a planted-truth fleet
from ``--seed`` (several times, to time it).  The timed part runs the CLI
stages one after another, each as its own ``python -m fleetfuel.cli``
child, and repeats the whole pass while another fits in ``--seconds``.
Timings are scaled by a fixed reference kernel timed before each child
(``bench.host_ref``), so a drift in the host's speed cancels out.
Every stage invocation is checked by ``check.py``, which does not import
fleetfuel.  With ``--trace 1`` a further pass runs the same stages in this
process under the span tracer of ``tracer.py`` and the per-layer metrics
are reported instead of the end-to-end ones.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric by name with its unit, the environment and the artifact digests.
Scratch files go to ``.perfbench/`` in the checkout.  See README.md for
the workloads, the seeds and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path


def _terminate(signum, frame):
    # unwind, so the running stage child is killed and waited for
    raise SystemExit(128 + signum)


def print_report(result: dict) -> None:
    print(f"perfbench {result['workload']} seed={result['seed']} trace={result['trace']} "
          f"passes={result['passes']} wall_s={result['wall_s']:.1f} env={json.dumps(result['env'], sort_keys=True)}")
    print(f"  {'fail_share':<34} {result['fail_share']:>14.6g} ratio "
          f"({result['failed']} of {result['attempted']} operations)")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:<34} {value:>14.6g} {unit}")
    print("  unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in result["wall"].items()))
    for problem in result["problems"]:
        print(f"  FAILED {problem}")
    if result["absent"]:
        print(f"  absent hooks: {', '.join(result['absent'])}")
    print(f"  digests: {json.dumps(result['digests'], sort_keys=True)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end benchmark of the fleetfuel CLI pipeline.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None, help="fleet seed (default: workloads.DEFAULT_SEED)")
    parser.add_argument("--seconds", type=int, default=30, help="length of the timed part")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "fleetfuel" / "cli.py").is_file():
        print(f"perfbench: no fleetfuel sources under {root / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    from bench import Bench
    from workloads import DEFAULT_SEED, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    seed = DEFAULT_SEED if args.seed is None else args.seed
    if seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    signal.signal(signal.SIGTERM, _terminate)
    (root / ".perfbench").mkdir(exist_ok=True)
    result = Bench(root, WORKLOADS[args.workload], seed, args.seconds, bool(args.trace)).run()
    with open(root / ".perfbench" / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(result, sort_keys=True) + "\n")
    print_report(result)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
