"""Benchmark runner: set-up, timed passes, traced pass and metrics.

``run.py`` is the entry point; this module imports fleetfuel, so it is
loaded only after the checkout's ``src`` is on the path.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from datetime import date, timedelta
from pathlib import Path

import numpy as np

import check
from fleetfuel.synthgen import generate
from tracer import COUNTERS, Tracer, registry_names
from workloads import DEFAULT_RULES, STAGES, SWEEP_SETTINGS, Workload

SETUP_REPS = 5
MIB = float(1 << 20)
#: seconds host_ref() takes on a quiet 2-vCPU host; scaled timings are in these units
REF_S = 0.045


def host_ref() -> float:
    """Seconds a fixed numpy kernel takes: the host's speed at this moment.

    On a shared host the speed can drift by half within minutes, and the
    program's stages follow it.  Each stage child is timed right after this
    kernel, and a scaled time is its wall time times REF_S over the median
    kernel time of the pass it belongs to.
    """
    t0 = time.perf_counter()
    a = np.random.default_rng(0).random(400_000)
    for _ in range(6):
        b = np.sort(a)
        a = a + np.cumsum(b)[-1] * 0.0
    return time.perf_counter() - t0


@dataclass
class Op:
    """One stage invocation plus its output check."""

    stage: str
    setting: str
    seconds: float
    rss_mb: float
    problems: list[str]
    in_process: bool = False
    ref_s: float = REF_S


@dataclass
class Pass:
    ops: list[Op] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return sum(op.seconds for op in self.ops)

    @property
    def scaled(self) -> float:
        return self.seconds * REF_S / statistics.median(op.ref_s for op in self.ops)

    @property
    def rss_mb(self) -> float:
        return max(op.rss_mb for op in self.ops)


def git_commit(root: Path) -> str:
    """HEAD of the checkout's git directory, or 'unknown' outside git."""
    try:
        head = (root / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = root / ".git" / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Bench:
    def __init__(self, root: Path, workload: Workload, seed: int, seconds: int, trace: bool):
        self.root = root
        self.src = root / "src"
        self.work = root / ".perfbench"
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.spec = workload.spec(seed)
        self.vehicle_days = self.spec.n_vehicles * self.spec.n_days
        start = date.fromisoformat(self.spec.start_date)
        self.months = len({(start + timedelta(days=i)).strftime("%Y-%m") for i in range(self.spec.n_days)})
        self.run_dir = self.work / f"{workload.name}-s{seed}-p{os.getpid()}"
        self.fleet = self.run_dir / "fleet0"
        self.ops: list[Op] = []
        self.ledger_path = self.work / "digests.json"
        self.ledger = json.loads(self.ledger_path.read_text()) if self.ledger_path.exists() else {}
        self.digests: dict[str, str] = dict(self.ledger.get(f"{workload.name}/{seed}", {}))
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(self.src), os.environ.get("PYTHONPATH")])))

    # -- configs -------------------------------------------------------------

    def config(self, rules=DEFAULT_RULES) -> Path:
        path = self.run_dir / f"config_{rules[0]}_{rules[1]}.json"
        if not path.exists():
            cfg = {
                "fleet_id": self.workload.name,
                "paths": {
                    "feed": str(self.fleet / "feed.csv"),
                    "vin_map": str(self.fleet / "vin_map.csv"),
                    "catalog": str(self.fleet / "catalog.csv"),
                },
                "train": self.workload.train,
                "rules": {"br2_threshold": rules[0], "br5_cap": rules[1]},
            }
            path.write_text(json.dumps(cfg, indent=1))
        return path

    # -- operations ------------------------------------------------------------

    def child(self, stage: str, cfg: Path, out: Path) -> tuple[int, float, float]:
        """Run one stage as its own process; exit code, seconds, peak RSS (MiB)."""
        with open(self.run_dir / "children.log", "ab") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "fleetfuel.cli", stage, "--config", str(cfg), "--out", str(out)],
                cwd=self.root, env=self.env, stdout=log, stderr=subprocess.STDOUT,
            )
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, seconds, usage.ru_maxrss * 1024 / MIB

    def check(self, stage: str, out: Path, rules) -> list[str]:
        try:
            if stage == "ingest":
                return check.check_ingest(out, self.vehicle_days)
            if stage == "clean":
                return check.check_clean(out, self.vehicle_days)
            if stage == "train":
                return check.check_train(out)
            if stage == "explain":
                return check.check_explain(out, *rules)
            if stage == "evaluate":
                return check.check_evaluate(out)
            return check.check_impact(out, self.months)
        except (OSError, LookupError, ValueError, TypeError) as exc:
            return [f"{stage} outputs unreadable: {type(exc).__name__}: {exc}"]

    def observe(self, key: str, digest: str) -> list[str]:
        """Record a digest; a different digest for the same key is a failure."""
        seen = self.digests.setdefault(key, digest)
        return [] if seen == digest else [f"{key}: digest {digest[:12]} differs from {seen[:12]}"]

    def finish_op(self, stage, rules, out, code, seconds, rss, in_process=False, ref_s=REF_S) -> Op:
        problems = [f"exit code {code}"] if code != 0 else self.check(stage, out, rules)
        setting = f"rules={rules[0]},{rules[1]}"
        for name, digest in check.stage_digests(out, stage).items():
            problems += self.observe(f"{setting}/{name}", digest)
        op = Op(stage, setting, seconds, rss, problems, in_process, ref_s)
        self.ops.append(op)
        return op

    def operation(self, stage: str, rules, out: Path) -> Op:
        ref_s = host_ref()
        code, seconds, rss = self.child(stage, self.config(rules), out)
        return self.finish_op(stage, rules, out, code, seconds, rss, ref_s=ref_s)

    # -- phases ----------------------------------------------------------------

    def setup(self) -> float:
        gen_seconds, ref_seconds = [], []
        for i in range(SETUP_REPS):
            target = self.run_dir / f"fleet{i}"
            ref_seconds.append(host_ref())
            t0 = time.perf_counter()
            generate(self.spec, target)
            gen_seconds.append(time.perf_counter() - t0)
            problems = []
            for name in ("feed.csv", "vin_map.csv", "catalog.csv", "truth_days.csv"):
                problems += self.observe(f"fleet/{name}", check.sha256(target / name))
            self.ops.append(Op("synth", "", gen_seconds[-1], 0.0, problems, ref_s=ref_seconds[-1]))
            if i:
                shutil.rmtree(target)
        self.generate_s = statistics.median(gen_seconds)
        setup_s = self.generate_s
        if self.workload.sweep:
            self.sweep_out = self.run_dir / "out"
            for stage in ("ingest", "clean", "train"):
                op = self.operation(stage, DEFAULT_RULES, self.sweep_out)
                setup_s += op.seconds
                ref_seconds.append(op.ref_s)
        self.setup_wall_s = setup_s
        return setup_s * REF_S / statistics.median(ref_seconds)

    def one_pass(self, k: int) -> Pass:
        out = self.sweep_out if self.workload.sweep else self.run_dir / f"pass{k}"
        p = Pass()
        for stage, rules in self.workload.plan():
            p.ops.append(self.operation(stage, rules, out))
        return p

    def timed(self) -> list[Pass]:
        passes: list[Pass] = []
        start = time.perf_counter()
        while True:
            passes.append(self.one_pass(len(passes)))
            if len(passes) == 1:
                self.quality = self.quality_metrics(self.sweep_out if self.workload.sweep else self.run_dir / "pass0")
            elif not self.workload.sweep:
                shutil.rmtree(self.run_dir / f"pass{len(passes) - 1}")
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(p.seconds for p in passes) > self.seconds:
                return passes

    def quality_metrics(self, out: Path) -> dict[str, float]:
        try:
            mape = float(check.read_json(out / "train_metrics.json")["median_vehicle_mape"])
            rmse = check.truth_rmse(out, self.fleet)
        except (OSError, LookupError, ValueError, TypeError) as exc:
            self.ops.append(Op("quality", "", 0.0, 0.0, [f"quality oracle failed: {exc}"]))
            return {"model_mape_pct": 0.0, "truth_rmse_l100": 0.0}
        return {"model_mape_pct": mape, "truth_rmse_l100": rmse}

    def traced(self) -> tuple[Tracer, list[tuple[str, int]], float]:
        """One pass in this process under the tracer; stage spans and MiB written."""
        import fleetfuel.cli as cli

        out = self.run_dir / "trace"
        if self.workload.sweep:
            shutil.copytree(self.sweep_out, out)
        tracer = Tracer(registry_names(self.src))
        tracer.install()
        stage_spans = []
        written = 0.0
        try:
            for stage, rules in self.workload.plan():
                before = snapshot(out)
                tracer.stage = stage
                idx = tracer.open("stage." + stage)
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main([stage, "--config", str(self.config(rules)), "--out", str(out)])
                tracer.close(idx)
                stage_spans.append((stage, idx))
                written += bytes_written(before, snapshot(out)) / MIB
                self.finish_op(stage, rules, out, code, tracer.spans[idx].duration, 0.0, in_process=True)
        finally:
            tracer.uninstall()
        return tracer, stage_spans, written

    # -- metrics -----------------------------------------------------------------

    def end_to_end(self, setup_s: float, passes: list[Pass]) -> dict[str, tuple[float, str]]:
        run_s = statistics.median(p.scaled for p in passes)
        settings = len(SWEEP_SETTINGS) if self.workload.sweep else 1
        return {
            "setup_s": (setup_s, "s"),
            "run_s": (run_s, "s"),
            "days_per_s": (self.vehicle_days * settings / run_s, "1/s"),
            "peak_rss_mb": (max(p.rss_mb for p in passes), "MB"),
            "truth_rmse_l100": (self.quality["truth_rmse_l100"], "l/100km"),
        }

    def wall(self, passes: list[Pass]) -> dict[str, float]:
        """Unscaled timings and the median reference kernel time of the run."""
        return {
            "run_wall_s": statistics.median(p.seconds for p in passes),
            "setup_wall_s": self.setup_wall_s,
            "ref_ms": 1e3 * statistics.median(op.ref_s for op in self.ops if not op.in_process),
        }

    def per_layer(self, passes, tracer: Tracer, stage_spans, written) -> tuple[dict, list[str]]:
        metrics: dict[str, tuple[float, str]] = {}
        child_ops = [op for op in self.ops if op.stage in STAGES and not op.in_process]
        for stage in STAGES:
            ops = [op for op in child_ops if op.stage == stage]
            metrics[f"cli.{stage}_s"] = (statistics.median(op.seconds for op in ops) if ops else 0.0, "s")
            metrics[f"cli.{stage}_rss_mb"] = (max((op.rss_mb for op in ops), default=0.0), "MB")
        self_s = tracer.self_times()
        for metric, names in LAYER_TIMINGS.items():
            metrics[metric] = (sum(self_s.get(n, 0.0) for n in names), "s")
        metrics["cli.artifact_mb_written"] = (written, "MB")
        for stage in STAGES:
            spans = [idx for s, idx in stage_spans if s == stage]
            total = sum(tracer.spans[i].duration for i in spans)
            covered = sum(tracer.covered(i) for i in spans)
            metrics[f"trace.{stage}_coverage"] = (covered / total if total else 0.0, "ratio")
        traced_s = sum(tracer.spans[i].duration for _, i in stage_spans)
        untraced_s = passes[0].seconds
        metrics["trace_overhead_pct"] = (100.0 * (traced_s - untraced_s) / untraced_s, "%")
        metrics["ingest.read_far_calls"] = (tracer.calls("read_far_csv"), "count")
        metrics["explain.contribution_at_calls"] = (tracer.counts["AdditiveModel.contribution_at_calls"], "count")
        for name in COUNT_METRICS:
            metrics[name] = (tracer.counts[name], "count")
        c = tracer.counts
        metrics["gam.us_per_tree_update"] = (
            1e6 * metrics["gam.fit_matrix_s"][0] / c["gam.tree_updates"] if c["gam.tree_updates"] else 0.0, "us")
        metrics["gam.useful_update_ratio"] = (
            (c["gam.columns"] - c["gam.constant_columns"]) / c["gam.columns"] if c["gam.columns"] else 0.0, "ratio")
        metrics["explain.kept_ratio"] = (
            c["explain.final_rows"] / c["explain.prefilter_rows"] if c["explain.prefilter_rows"] else 0.0, "ratio")
        metrics["synthgen.generate_s"] = (self.generate_s, "s")
        metrics["model_mape_pct"] = (self.quality["model_mape_pct"], "%")
        for name, value in self.wall(passes).items():
            metrics[f"host.{name}"] = (value, name.rsplit("_", 1)[1])
        wanted = {n for names in LAYER_TIMINGS.values() for n in names} | set(COUNTERS)
        absent = sorted({n for n in wanted if tracer.status.get(n) != "hooked"}
                        | {k for k, v in tracer.status.items() if v == "absent"})
        return metrics, absent

    # -- whole run --------------------------------------------------------------

    def run(self) -> dict:
        started = time.perf_counter()
        self.run_dir.mkdir(parents=True)
        try:
            setup_s = self.setup()
            passes = self.timed()
            metrics = self.end_to_end(setup_s, passes)
            absent: list[str] = []
            if self.trace:
                tracer, stage_spans, written = self.traced()
                tracer.write(self.work / f"spans-{self.workload.name}-s{self.seed}.jsonl")
                metrics, absent = self.per_layer(passes, tracer, stage_spans, written)
        finally:
            shutil.rmtree(self.run_dir, ignore_errors=True)
        failed = sum(1 for op in self.ops if op.problems)
        self.ledger[f"{self.workload.name}/{self.seed}"] = self.digests
        tmp = self.ledger_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.ledger, indent=1, sort_keys=True))
        os.replace(tmp, self.ledger_path)
        return {
            "workload": self.workload.name,
            "seed": self.seed,
            "trace": int(self.trace),
            "passes": len(passes),
            "wall_s": time.perf_counter() - started,
            "wall": self.wall(passes),
            "pass_s": [p.scaled for p in passes],
            "stage_s": {
                stage: statistics.median(op.seconds for p in passes for op in p.ops if op.stage == stage)
                for stage in dict.fromkeys(op.stage for op in passes[0].ops)
            },
            "attempted": len(self.ops),
            "failed": failed,
            "fail_share": failed / len(self.ops),
            "problems": [f"{op.stage} {op.setting}: {p}" for op in self.ops for p in op.problems],
            "absent": absent,
            "metrics": metrics,
            "digests": self.digests,
            "env": {
                "nproc": len(os.sched_getaffinity(0)),
                "python": platform.python_version(),
                "numpy": np.__version__,
                "commit": git_commit(self.root),
            },
        }


def snapshot(directory: Path) -> dict[str, tuple[int, int]]:
    if not directory.exists():
        return {}
    return {p.name: (p.stat().st_size, p.stat().st_mtime_ns) for p in directory.iterdir() if p.is_file()}


def bytes_written(before: dict, after: dict) -> int:
    return sum(size for name, (size, mtime) in after.items() if before.get(name) != (size, mtime))


# per-layer self times: metric -> hooked attribute names
LAYER_TIMINGS = {
    "cli.record_stage_s": ("RunContext.record_stage",),
    "ingest.parse_feed_s": ("parse_feed_csv",),
    "ingest.aggregate_daily_s": ("aggregate_daily",),
    "ingest.quality_filter_s": ("quality_filter",),
    "ingest.impute_s": ("impute_missing",),
    "ingest.write_far_s": ("write_far_csv",),
    "ingest.read_far_s": ("read_far_csv",),
    "anomaly.two_phase_clean_s": ("two_phase_clean",),
    "anomaly.flag_outliers_s": ("flag_outliers",),
    "gam.build_design_s": ("build_design",),
    "gam.build_bins_s": ("build_bins",),
    "gam.fit_matrix_s": ("fit_matrix",),
    "gam.predict_many_s": ("AdditiveModel.predict_many",),
    "gam.save_json_s": ("AdditiveModel.save_json",),
    "gam.load_json_s": ("AdditiveModel.load_json",),
    "explain.reference_policy_s": ("ReferencePolicy.from_records",),
    "explain.generate_s": ("generate_daily_explanations",),
    "explain.rules_s": ("apply_business_rules",),
    "explain.write_csv_s": ("write_explanations_csv",),
    "explain.read_csv_s": ("read_explanations_csv",),
    "explain.audit_write_s": ("write_audit_log",),
    "evaluate.train_test_split_s": ("train_test_split",),
    "evaluate.model_metrics_s": ("model_metrics",),
    "evaluate.category_impact_s": ("aggregate_category_impact",),
    "evaluate.outlier_vs_explained_s": ("outlier_vs_explained",),
    "evaluate.catalog_mape_s": ("catalog_mape",),
    "evaluate.monthly_impact_s": ("monthly_impact",),
    "evaluate.report_write_s": ("write_report_json", "write_report_csv"),
}
COUNT_METRICS = (
    "ingest.rows_parsed",
    "ingest.rows_rejected",
    "ingest.records",
    "anomaly.cells",
    "anomaly.outlier_days",
    "gam.columns",
    "gam.constant_columns",
    "gam.rounds_total",
    "gam.bag_rounds_max",
    "gam.tree_updates",
    "explain.prefilter_rows",
    "explain.final_rows",
    *(f"explain.dropped_BR{i}" for i in range(1, 6)),
    "explain.categorical_rows",
)
