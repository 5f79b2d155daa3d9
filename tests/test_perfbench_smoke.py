"""A small run of the benchmark harness end to end.

The full-size benchmark runs stay out of the suite.  This one runs the
fleet-1x workload with two bags and a one-second budget: set-up, one timed
pass of stage children and the traced in-process pass.  A change that
makes a stage fail the harness's output checks, renames a traced function
or stops writing a digested artifact fails here instead of only in a
benchmark run.  The benchmark's modules are imported without writing
bytecode next to them, and its scratch files go to a temporary root whose
``src`` links to this checkout's.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
MODULES = ("bench", "tracer", "check", "workloads")


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import bench
    import check
    import workloads

    yield bench, check, workloads
    for name in MODULES:
        sys.modules.pop(name, None)


def test_fleet_1x_smoke_run(perfbench, tmp_path):
    bench, check, workloads = perfbench
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    workload = workloads.Workload("fleet-1x", workloads.fleet_1x_spec, {**workloads.TRAIN, "bags": 2})

    result = bench.Bench(tmp_path, workload, 1, seconds=1, trace=True).run()

    assert result["failed"] == 0, result["problems"]
    assert result["absent"] == []
    digested = {key.split("/", 1)[1] for key in result["digests"] if key.startswith("rules=")}
    assert digested == set(check.DIGEST_STAGE)
