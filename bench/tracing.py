"""Outside-in layer tracing for the benchmark.

The tracer replaces module attributes of ``nodal_lab`` (plus
``Grid.h1_solve`` on the class, ``factorized`` as ``geometry`` reaches it
through ``spla`` and ``solve_ivp`` as ``radial`` imported it) with wrappers
that record one span per call: name, start, end, parent span and pass id.
The package calls these functions through module attributes, so the
wrappers see internal calls too; nothing inside ``src/`` is changed.  Spans
stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import gzip
import os
import statistics
from pathlib import Path
from time import perf_counter


class _Proxy:
    """Stands in for a module, overriding some attributes and delegating
    the rest to the module."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _ode_rhs_evals(args, kwargs, result):
    return int(result.nfev)


def _descent_steps(args, kwargs, result):
    # accepted steps: the energy trace holds the start plus one entry per step
    return (int(result.iterations), len(result.energy_trace) - 1)


def _written_bytes(args, kwargs, result):
    path = kwargs.get("path", args[2] if len(args) > 2 else None)
    return os.path.getsize(path)


# (module name, attribute, span name, extra recorder or None)
TARGETS = (
    ("geometry", "build_grid", "geometry.build_grid", None),
    ("geometry", "dirichlet_energy", "geometry.dirichlet_energy", None),
    ("geometry", "laplacian", "geometry.laplacian", None),
    ("geometry", "write_field_csv", "geometry.write_field_csv", _written_bytes),
    ("geometry", "read_field_csv", "geometry.read_field_csv", None),
    ("functional", "c_shift", "functional.c_shift", None),
    ("functional", "signed_power", "functional.signed_power", None),
    ("functional", "energy", "functional.energy", None),
    ("functional", "t_star", "functional.t_star", None),
    ("functional", "energy_gradient", "functional.energy_gradient", None),
    ("minimize", "project", "minimize.project", None),
    ("minimize", "minimize_energy", "minimize.minimize_energy", _descent_steps),
    ("minimize", "multistart", "minimize.multistart", None),
    ("minimize", "continuation_sweep", "minimize.continuation_sweep", None),
    ("radial", "shoot_neumann", "radial.shoot_neumann", None),
    ("radial", "shoot", "radial.shoot", None),
    ("radial", "solve_ivp", "radial.ode", _ode_rhs_evals),
    ("radial", "write_profile_csv", "radial.write_profile_csv", None),
    ("diagnostics", "foliated_schwarz_check", "diagnostics.foliated_schwarz_check", None),
    ("diagnostics", "pde_residual", "diagnostics.pde_residual", None),
    ("diagnostics", "nodal_domains", "diagnostics.nodal_domains", None),
    ("diagnostics", "zero_measure_curve", "diagnostics.zero_measure_curve", None),
    ("diagnostics", "radiality_deviation", "diagnostics.radiality_deviation", None),
    ("diagnostics", "write_zero_curve_csv", "diagnostics.write_zero_curve_csv", None),
)
RAISED = "raised"


class Tracer:
    """Span recorder.  ``install`` patches the package, ``uninstall``
    restores every patched attribute."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent, pass_id, extra]
        self.pass_id = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.pass_id, None])
        self._stack.append(idx)
        return idx

    def wrap(self, name: str, fn, extra=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            span = spans[idx]
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[2] = perf_counter()
                span[5] = RAISED
                stack.pop()
                raise
            span[2] = perf_counter()
            stack.pop()
            if extra is not None:
                span[5] = extra(args, kwargs, result)
            return result
        return wrapper

    def call(self, name: str, fn, *args):
        """Run fn(*args) inside a span opened by the benchmark itself."""
        return self.wrap(name, fn)(*args)

    # -- patching -------------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, modules: dict) -> None:
        """modules maps 'geometry', 'functional', ... to the imported modules."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for mod_name, attr, span, extra in TARGETS:
            mod = modules[mod_name]
            self._patch(mod, attr, self.wrap(span, getattr(mod, attr), extra))
        geometry = modules["geometry"]
        self._patch(geometry.Grid, "h1_solve",
                    self.wrap("geometry.h1_solve", geometry.Grid.h1_solve))
        spla = geometry.spla
        self._patch(geometry, "spla", _Proxy(
            spla, factorized=self.wrap("geometry.h1_factor", spla.factorized)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- output ---------------------------------------------------------------

    def write(self, path: Path) -> None:
        """All spans as gzipped CSV: name,start,end,parent,pass,extra."""
        with gzip.open(path, "wt", newline="") as fh:
            fh.write("name,start,end,parent,pass,extra\n")
            for name, t0, t1, parent, pid, extra in self.spans:
                ex = "" if extra is None else str(extra).replace(",", ";")
                fh.write(f"{name},{t0!r},{t1!r},{parent},{pid},{ex}\n")


def pass_layers(tracer: Tracer, pass_id: int) -> tuple[dict, dict]:
    """Per-layer counters and times of one traced pass.

    Returns (counts, times): counts repeat exactly at a fixed seed, times
    are seconds.  Self time is a span's duration minus its children's.
    """
    spans = [(i, s) for i, s in enumerate(tracer.spans) if s[4] == pass_id]
    child = {}
    for _, s in spans:
        if s[3] >= 0:
            child[s[3]] = child.get(s[3], 0.0) + (s[2] - s[1])
    calls, total, self_t = {}, {}, {}
    by_name: dict[str, list] = {}
    for i, s in spans:
        name, dur = s[0], s[2] - s[1]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur
        self_t[name] = self_t.get(name, 0.0) + dur - child.get(i, 0.0)
        by_name.setdefault(name, []).append((i, s))

    def parent_name(s):
        return tracer.spans[s[3]][0] if s[3] >= 0 else None

    def n(name):
        return calls.get(name, 0)

    descents = [s[5] for _, s in by_name.get("minimize.minimize_energy", ())
                if s[5] != RAISED]
    iterations = sum(d[0] for d in descents)
    accepted = sum(d[1] for d in descents)
    # every descent projects its start once; the other projections are trials
    trials = sum(1 for _, s in by_name.get("minimize.project", ())
                 if parent_name(s) == "minimize.minimize_energy") - len(descents)
    evals = sum(1 for _, s in by_name.get("functional.signed_power", ())
                if parent_name(s) == "functional.c_shift")
    ode = [s[5] for _, s in by_name.get("radial.ode", ()) if s[5] != RAISED]
    written = [s[5] for _, s in by_name.get("geometry.write_field_csv", ())
               if s[5] != RAISED]
    shoot_failed = sum(1 for _, s in by_name.get("radial.shoot", ())
                       if s[5] == RAISED and parent_name(s) != "radial.shoot")

    counts = {
        "geometry.build_grid.calls": n("geometry.build_grid"),
        "geometry.h1_factor.calls": n("geometry.h1_factor"),
        "geometry.h1_solve.calls": n("geometry.h1_solve"),
        "geometry.dirichlet_energy.calls": n("geometry.dirichlet_energy"),
        "geometry.laplacian.calls": n("geometry.laplacian"),
        "geometry.write_field_csv.bytes": sum(written),
        "functional.c_shift.calls": n("functional.c_shift"),
        "functional.c_shift.evals": evals,
        "functional.energy.calls": n("functional.energy"),
        "functional.t_star.calls": n("functional.t_star"),
        "functional.energy_gradient.calls": n("functional.energy_gradient"),
        "minimize.project.calls": n("minimize.project"),
        "minimize.iterations": iterations,
        "minimize.accepted_steps": accepted,
        "minimize.trial_projections": trials,
        "minimize.rejected_trials": trials - accepted,
        "minimize.minimize_energy.calls": n("minimize.minimize_energy"),
        "radial.shoot_neumann.calls": n("radial.shoot_neumann"),
        "radial.shoot.calls": n("radial.shoot"),
        "radial.shoot.failed": shoot_failed,
        "radial.ode_integrations": n("radial.ode"),
        "radial.ode_rhs_evals": sum(ode),
    }
    c_calls = counts["functional.c_shift.calls"]
    counts["functional.c_shift.evals_per_call"] = evals / c_calls if c_calls else 0.0
    counts["minimize.accept_ratio"] = accepted / trials if trials > 0 else 0.0

    times = {f"{name}.{kind}": table.get(name, 0.0)
             for name, kind, table in (
                 ("geometry.build_grid", "s", total),
                 ("geometry.h1_factor", "s", total),
                 ("geometry.h1_solve", "self_s", self_t),
                 ("geometry.dirichlet_energy", "self_s", self_t),
                 ("geometry.laplacian", "self_s", self_t),
                 ("geometry.write_field_csv", "s", total),
                 ("geometry.read_field_csv", "s", total),
                 ("functional.c_shift", "s", total),
                 ("functional.c_shift", "self_s", self_t),
                 ("functional.energy", "self_s", self_t),
                 ("functional.t_star", "self_s", self_t),
                 ("functional.energy_gradient", "self_s", self_t),
                 ("minimize.project", "self_s", self_t),
                 ("minimize.multistart", "s", total),
                 ("minimize.continuation_sweep", "s", total),
                 ("radial.shoot_neumann", "s", total),
                 ("radial.shoot", "self_s", self_t),
                 ("radial.ode", "s", total),
                 ("radial.write_profile_csv", "s", total),
                 ("diagnostics.foliated_schwarz_check", "s", total),
                 ("diagnostics.pde_residual", "s", total),
                 ("diagnostics.nodal_domains", "s", total),
                 ("diagnostics.zero_measure_curve", "s", total),
                 ("diagnostics.radiality_deviation", "s", total),
                 ("diagnostics.write_zero_curve_csv", "s", total),
             )}
    descent_s = total.get("minimize.minimize_energy", 0.0)
    times["minimize.iter_s"] = descent_s / iterations if iterations else 0.0
    times["cli.self_s"] = sum(v for k, v in self_t.items() if k.startswith("cli."))
    return counts, times


def median_times(per_pass: list[dict]) -> dict:
    return {k: statistics.median(t[k] for t in per_pass) for k in per_pass[0]}
