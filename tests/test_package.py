import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import nodal_lab

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(nodal_lab.__path__))
TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.mark.parametrize("name", SUBMODULES)
def test_all_lists_only_existing_names(name):
    module = importlib.import_module(f"nodal_lab.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_tracer_targets_exist():
    # the benchmark's tracer wraps these by name; a deleted or renamed one
    # would otherwise surface only in a traced benchmark pass
    spec = importlib.util.spec_from_file_location("nodal_lab_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    modules = {mod: importlib.import_module(f"nodal_lab.{mod}")
               for mod in {t[0] for t in tracing.TARGETS}}
    missing = [f"{mod}.{attr}" for mod, attr, _, _ in tracing.TARGETS
               if not hasattr(modules[mod], attr)]
    assert missing == []
    geometry = modules["geometry"]
    assert callable(geometry.spla.factorized)
    assert callable(geometry.Grid.h1_solve)
