import importlib
import pkgutil
import warnings

import pytest

import nodal_lab
from conftest import load_bench
from nodal_lab import cli

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(nodal_lab.__path__))


@pytest.mark.parametrize("name", SUBMODULES)
def test_all_lists_only_existing_names(name):
    module = importlib.import_module(f"nodal_lab.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def _traced_modules(tracing):
    return {mod: importlib.import_module(f"nodal_lab.{mod}")
            for mod in {t[0] for t in tracing.TARGETS}}


def test_tracer_targets_exist():
    # the benchmark's tracer wraps these by name; a deleted or renamed one
    # would otherwise surface only in a traced benchmark pass
    tracing = load_bench("tracing")
    modules = _traced_modules(tracing)
    missing = [f"{mod}.{attr}" for mod, attr, _, _ in tracing.TARGETS
               if not hasattr(modules[mod], attr)]
    assert missing == []
    geometry = modules["geometry"]
    assert callable(geometry.spla.factorized)
    assert callable(geometry.Grid.h1_solve)


def test_traced_grid_pass_stays_within_its_work_bounds(tmp_path):
    # one traced pass of the benchmark's grid workload at CLI seed 0, as
    # bench/run.py --trace makes it: work counters do not move with machine
    # noise, so each bound trips on the return of one known waste
    tracing, workloads = load_bench("tracing"), load_bench("workloads")
    tracer = tracing.Tracer()
    tracer.pass_id = 0
    n_warnings = 0
    tracer.install(_traced_modules(tracing))
    try:
        for step in workloads.WORKLOADS["grid"].steps:
            argv = step.render(0, tmp_path)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                rc = tracer.call(f"cli.{argv[0]}", cli.main, argv)
            n_warnings += sum(issubclass(w.category, RuntimeWarning) for w in caught)
            assert step.check(tmp_path / step.out if step.out else None, rc) == [], argv
    finally:
        tracer.uninstall()
    counts = tracing.pass_layers(tracer, 0)[0]
    counts["numerics.warnings"] = n_warnings
    bounds = {
        # the two disc dumps as .npy arrays read 327,936 B; a text dump trips it
        "geometry.write_field_csv.bytes": 4e5,
        # 354 with spectral steps in the H1 metric; 1026 without the metric
        "minimize.trial_projections": 450,
        # 1.93 from the first-order guess eta mu and one safeguarded Newton search
        "functional.c_shift.evals_per_call": 2.5,
        # 31: trials and spectral steps take their Dirichlet energy from dot products
        "geometry.dirichlet_energy.calls": 60,
        # the commands of the pass raise no RuntimeWarning
        "numerics.warnings": 0,
    }
    over = {name: counts[name] for name, bound in bounds.items() if counts[name] > bound}
    assert over == {}
