"""The package namespace: each public name is imported from its home module on first use."""

from __future__ import annotations

import importlib

import pytest

import fleetfuel

from .conftest import run_python


def test_lazy_map_is_all():
    # a name listed under two modules would collapse to one home
    listed = [name for names in fleetfuel._EXPORTS.values() for name in names]
    assert sorted(listed) == fleetfuel.__all__
    assert set(fleetfuel._HOME) == set(fleetfuel.__all__)


@pytest.mark.parametrize("name", fleetfuel.__all__)
def test_name_is_its_home_modules_object(name):
    home = f"fleetfuel.{fleetfuel._HOME[name]}"
    value = getattr(fleetfuel, name)
    assert value is getattr(importlib.import_module(home), name)
    # the home is where the name is defined, not a module that re-exports it
    assert value.__module__ == home


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        fleetfuel.no_such_name


def test_bare_import_then_star_import_in_fresh_interpreter():
    stdout = run_python(
        "import sys\n"
        "import fleetfuel\n"
        "print(*sorted(m for m in sys.modules if m.startswith('fleetfuel.')))\n"
        "from fleetfuel import *\n"
        "print(*sorted(n for n in fleetfuel.__all__ if n not in globals()))\n"
    )
    loaded_on_import, missing_after_star = stdout.split("\n")[:2]
    assert loaded_on_import == ""
    assert missing_after_star == ""
