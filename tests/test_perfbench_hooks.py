"""The benchmark's trace hooks still resolve against the package.

``perfbench/tracer.py`` looks every hook up by attribute name and reports a
name that no longer exists as ``absent`` instead of failing, so renaming a
traced function would silently zero a per-layer metric.  This test imports
the benchmark's modules without writing bytecode next to them, installs the
tracer and checks that every name the benchmark reads is hooked.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = ("bench", "tracer", "check", "workloads")


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import bench
    import tracer

    yield bench, tracer
    for name in MODULES:
        sys.modules.pop(name, None)


def test_every_traced_name_is_hooked(perfbench):
    bench, tracer = perfbench
    wanted = {name for names in bench.LAYER_TIMINGS.values() for name in names}
    wanted |= set(tracer.COUNTERS)
    wanted |= {path for _, path in tracer.EXTRA_HOOKS + tracer.COUNT_ONLY_HOOKS}
    traced = tracer.Tracer(frozenset())
    traced.install()
    try:
        assert {name: traced.status.get(name) for name in wanted} == dict.fromkeys(wanted, "hooked")
        assert [name for name, status in traced.status.items() if status == "absent"] == []
    finally:
        traced.uninstall()
