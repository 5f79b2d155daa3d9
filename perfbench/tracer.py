"""Outside-in tracer: spans around fleetfuel's public functions.

Hooks are attribute names looked up at install time, never references
captured at import, so the tracer survives refactors: a name that no
longer exists is reported as ``absent`` and the run goes on.  Spans are
kept in memory with their parent and written out once at the end; a
layer's self time is its span's duration minus the time covered by its
child spans.  Counts come from return values of public calls only.
"""

from __future__ import annotations

import collections
import csv
import importlib
import inspect
import json
import time
from dataclasses import dataclass
from pathlib import Path

# (module, attribute path) of hooks beyond the functions fleetfuel.cli imports
EXTRA_HOOKS = (
    ("fleetfuel.gam", "build_design"),
    ("fleetfuel.gam", "fit_matrix"),
    ("fleetfuel.gam", "build_bins"),
    ("fleetfuel.gam", "AdditiveModel.predict_many"),
    ("fleetfuel.gam", "AdditiveModel.save_json"),
    ("fleetfuel.gam", "AdditiveModel.load_json"),
    ("fleetfuel.explain", "ReferencePolicy.from_records"),
    ("fleetfuel.cli", "RunContext.record_stage"),
    ("fleetfuel.registry", "VinMap.from_csv"),
    ("fleetfuel.registry", "CatalogTable.from_csv"),
)
# called ~10^5 times per explain: counted, never spanned
COUNT_ONLY_HOOKS = (("fleetfuel.gam", "AdditiveModel.contribution_at"),)


@dataclass
class Span:
    name: str
    parent: int | None
    stage: str
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, feature_names: frozenset[str]):
        self.feature_names = feature_names
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.stage = ""
        self.counts: collections.Counter[str] = collections.Counter()
        self.status: dict[str, str] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, parent, self.stage, time.perf_counter()))
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self.stack.pop()

    def self_times(self) -> dict[str, float]:
        """Self seconds per span name, summed over the whole run."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        out: dict[str, float] = collections.defaultdict(float)
        for span, covered in zip(self.spans, child_time):
            out[span.name] += span.duration - covered
        return out

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def covered(self, idx: int) -> float:
        """Seconds of a span's duration inside its direct child spans."""
        return sum(s.duration for s in self.spans if s.parent == idx)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": s.parent, "stage": s.stage, "name": s.name,
                                     "start": s.start, "end": s.end}) + "\n")

    # -- hooks -------------------------------------------------------------

    def _spanned(self, fn, name: str):
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            self._count(name, result)
            return result

        return wrapper

    def _counted(self, fn, name: str):
        def wrapper(*args, **kwargs):
            self.counts[name + "_calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, module_name: str, path: str, make) -> None:
        *owner_path, attr = path.split(".")
        try:
            owner = importlib.import_module(module_name)
            for part in owner_path:
                owner = getattr(owner, part)
            raw = inspect.getattr_static(owner, attr)
        except (ImportError, AttributeError):
            self.status[path] = "absent"
            return
        if isinstance(raw, (classmethod, staticmethod)):
            patched = type(raw)(make(raw.__func__, path))
        elif callable(raw):
            patched = make(raw, path)
        else:
            self.status[path] = "absent"
            return
        setattr(owner, attr, patched)
        self._restore.append((owner, attr, raw))
        self.status[path] = "hooked"

    def install(self) -> None:
        cli = importlib.import_module("fleetfuel.cli")
        for name, obj in sorted(vars(cli).items()):
            if (
                inspect.isfunction(obj)
                and obj.__module__.startswith("fleetfuel.")
                and obj.__module__ != cli.__name__
            ):
                self._patch(cli.__name__, name, self._spanned)
        for module_name, path in EXTRA_HOOKS:
            self._patch(module_name, path, self._spanned)
        for module_name, path in COUNT_ONLY_HOOKS:
            self._patch(module_name, path, self._counted)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    # -- counts from return values -------------------------------------------

    def _count(self, name: str, result) -> None:
        extract = COUNTERS.get(name)
        if extract is None:
            return
        try:
            found = extract(self, result)
        except (AttributeError, TypeError, ValueError, KeyError):
            self.status[f"count:{name}"] = "absent"
            return
        self.status[f"count:{name}"] = "ok"
        self.counts.update(found)


def _parsed_feed(tracer: Tracer, parsed) -> dict[str, int]:
    return {"ingest.rows_parsed": len(parsed.readings), "ingest.rows_rejected": sum(parsed.rejects.values())}


def _aggregated(tracer: Tracer, result) -> dict[str, int]:
    records, _report = result
    return {"ingest.records": len(records)}


def _cleaned(tracer: Tracer, result) -> dict[str, int]:
    _training, limits, _noise = result
    return {"anomaly.cells": len(limits)}


def _flagged(tracer: Tracer, records) -> dict[str, int]:
    return {"anomaly.outlier_days": sum(1 for r in records if r.anomaly_label == "outlier")}


def _fitted(tracer: Tracer, model) -> dict[str, int]:
    rounds = [len(h.val_rmse) for h in model.history]
    columns = len(model.columns)
    return {
        "gam.columns": columns,
        "gam.constant_columns": sum(1 for c in model.cuts if len(c) == 0),
        "gam.rounds_total": sum(rounds),
        "gam.bag_rounds_max": max(rounds),
        "gam.tree_updates": sum(rounds) * columns,
    }


def _explained(tracer: Tracer, rows) -> dict[str, int]:
    return {
        "explain.prefilter_rows": len(rows),
        "explain.categorical_rows": sum(1 for r in rows if r.feature not in tracer.feature_names),
    }


def _filtered(tracer: Tracer, result) -> dict[str, int]:
    if tracer.stage != "explain":  # evaluate re-applies a subset of the rules
        return {}
    rows, audit = result
    found = collections.Counter(f"explain.dropped_{e.rule_id}" for e in audit)
    found["explain.final_rows"] = len(rows)
    return found


COUNTERS = {
    "parse_feed_csv": _parsed_feed,
    "aggregate_daily": _aggregated,
    "two_phase_clean": _cleaned,
    "flag_outliers": _flagged,
    "fit": _fitted,
    "generate_daily_explanations": _explained,
    "apply_business_rules": _filtered,
}


def registry_names(src: Path) -> frozenset[str]:
    """Feature names of the packaged registry, read from its CSV."""
    with open(src / "fleetfuel" / "data" / "feature_registry.csv", newline="", encoding="utf-8") as fh:
        return frozenset(r["name"] for r in csv.DictReader(fh))
