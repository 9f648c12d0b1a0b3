"""Package surface: every name a module lists in `__all__` exists.

Tracing tools wrap the functions listed there by looking each name up, so a
stale entry breaks them even when no import in the package fails.
"""

import importlib
import pkgutil

import pytest

import sqlab

_MODULES = sorted(info.name for info in pkgutil.iter_modules(sqlab.__path__))


def test_every_module_is_found():
    assert {"circuit_bridge", "cli", "quantum_sim", "sq_oracle"} <= set(_MODULES)


@pytest.mark.parametrize("name", _MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"sqlab.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
