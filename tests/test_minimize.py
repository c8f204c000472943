import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodal_lab import functional as fn
from nodal_lab import geometry as geo
from nodal_lab import minimize as mz

from conftest import PROP_GRID, property_fields


def closed_form_interval(x):
    """Odd piecewise-parabola solving the q = 1 interval problem; energy -1/3."""
    return x - np.sign(x) * x * x / 2.0


def test_config_validation():
    with pytest.raises(ValueError):
        mz.SolveConfig(step0=-1.0)
    with pytest.raises(ValueError):
        mz.SolveConfig(armijo=1.5)
    with pytest.raises(ValueError):
        mz.SolveConfig(starts=0)
    with pytest.raises(ValueError):
        mz.SolveConfig(recipe="banana")


def test_project_scaled_odd_field_fixed(interval_grid):
    spec = fn.ProblemSpec(interval_grid, 1.5)
    x = interval_grid.coords[:, 0]
    u = fn.t_star(spec, x) * x
    out, _ = mz.project(spec, u)
    assert np.max(np.abs(out - u)) <= 1e-12 * np.max(np.abs(u))


def test_project_constant_gives_zero(interval_grid):
    spec = fn.ProblemSpec(interval_grid, 1.0)
    out, _ = mz.project(spec, np.full(interval_grid.n_nodes, 7.0))
    assert np.array_equal(out, np.zeros(interval_grid.n_nodes))


@pytest.mark.parametrize("q", [1.0, 1.3, 1.7])
def test_project_always_feasible(interval_grid, q):
    spec = fn.ProblemSpec(interval_grid, q)
    rng = np.random.default_rng(21)
    for _ in range(5):
        u = rng.standard_normal(interval_grid.n_nodes) + rng.uniform(-1, 1)
        out, phi = mz.project(spec, u)
        assert fn.in_constraint(spec, out).member
        assert fn.energy(spec, out) <= 0.0
        assert phi == pytest.approx(fn.energy(spec, out), rel=1e-12)


# near q = 1 some drawn fields have no double meeting the shift tolerance;
# the closed form holds for whatever shift c_shift returns
@pytest.mark.filterwarnings("ignore:c_shift residual")
@settings(max_examples=60, deadline=None, derandomize=True)
@given(q=st.one_of(st.just(1.0), st.floats(1.01, 1.99)), u=property_fields())
def test_project_energy_closed_form(q, u):
    spec = fn.ProblemSpec(PROP_GRID, q)
    out, phi = mz.project(spec, u)
    assert phi == pytest.approx(fn.energy(spec, out), rel=1e-12)


def test_minimize_interval_small_grid():
    grid = geo.build_grid(geo.DomainSpec.interval(1.0), 512)
    spec = fn.ProblemSpec(grid, 1.0)
    rep = mz.minimize_energy(spec, mz.SolveConfig(seed=1))
    assert rep.converged
    assert rep.energy == pytest.approx(-1.0 / 3.0, abs=1e-3)
    assert rep.energy < 0.0
    assert fn.in_constraint(spec, rep.u).member
    trace = np.asarray(rep.energy_trace)
    assert np.all(np.diff(trace) <= 1e-14)


def test_minimizer_changes_sign(interval_min_q1, interval_grid):
    u = interval_min_q1.u
    w = interval_grid.weights
    assert float(np.sum(w[u > 0])) > 0.1
    assert float(np.sum(w[u < 0])) > 0.1


def test_degenerate_start_reseeded(interval_grid):
    spec = fn.ProblemSpec(interval_grid, 1.0)
    cfg = mz.SolveConfig(seed=3, recipe="custom")
    rep = mz.minimize_energy(spec, cfg, u0=np.full(interval_grid.n_nodes, 2.0))
    assert rep.energy < 0.0
    assert rep.converged


def test_multistart_single_dipole_equals_plain(interval_grid):
    spec = fn.ProblemSpec(interval_grid, 1.0)
    cfg = mz.SolveConfig(seed=5, starts=1)
    a = mz.multistart(spec, cfg)
    b = mz.minimize_energy(spec, cfg)
    assert a.energy == b.energy
    assert np.array_equal(a.u, b.u)


def test_multistart_returns_minimum(interval_grid):
    spec = fn.ProblemSpec(interval_grid, 1.0)
    cfg = mz.SolveConfig(seed=6, starts=4)
    best = mz.multistart(spec, cfg)
    singles = [mz.minimize_energy(spec, mz.SolveConfig(seed=6 + 7919 * i, starts=1,
                                                       recipe="dipole" if i == 0 else "random"))
               for i in range(4)]
    assert best.energy <= min(s.energy for s in singles) + 1e-15
    assert best.near_best and best.near_best[0]["energy"] == best.energy


def test_multistart_deterministic(interval_grid):
    spec = fn.ProblemSpec(interval_grid, 1.25)
    cfg = mz.SolveConfig(seed=9, starts=3, max_iter=200)
    a = mz.multistart(spec, cfg)
    b = mz.multistart(spec, cfg)
    assert a.energy_trace == b.energy_trace
    assert np.array_equal(a.u, b.u)


def test_continuation_single_equals_multistart(interval_grid):
    cfg = mz.SolveConfig(seed=4, starts=2)
    sweep = mz.continuation_sweep(interval_grid, [1.5], cfg)
    direct = mz.multistart(fn.ProblemSpec(interval_grid, 1.5), cfg)
    assert sweep[0].energy == direct.energy


def test_continuation_descends_to_q1():
    grid = geo.build_grid(geo.DomainSpec.interval(1.0), 256)
    cfg = mz.SolveConfig(seed=4, starts=2)
    qs = [1.5, 1.45, 1.4, 1.35, 1.3, 1.25, 1.2, 1.15, 1.1, 1.05, 1.0]
    reps = mz.continuation_sweep(grid, qs, cfg)
    assert all(r.converged for r in reps)
    energies = [r.energy for r in reps]
    # energies vary continuously along the sweep (no jumps in this range)
    steps = np.abs(np.diff(energies))
    assert np.max(steps) <= 0.12
    assert reps[-1].constraint == "sign-balance"
    assert "sign-balance" in reps[-1].stop_reason
    assert reps[0].constraint == "signed-mean-zero"
    with pytest.raises(ValueError):
        mz.continuation_sweep(grid, [1.0, 1.5], cfg)       # not descending
    with pytest.raises(ValueError):
        mz.continuation_sweep(grid, [2.5], cfg)


def test_grid_refinement_richardson():
    ms = {}
    for n in (256, 512, 1024):
        grid = geo.build_grid(geo.DomainSpec.interval(1.0), n)
        spec = fn.ProblemSpec(grid, 1.0)
        ms[n] = mz.multistart(spec, mz.SolveConfig(seed=2, starts=2, grad_tol=1e-8)).energy
    # magnitude decreases monotonically toward the limit
    assert abs(ms[256]) > abs(ms[512]) > abs(ms[1024]) > 1.0 / 3.0
    rich1 = ms[512] + (ms[512] - ms[256]) / 3.0
    rich2 = ms[1024] + (ms[1024] - ms[512]) / 3.0
    assert abs(rich1 - rich2) <= 1e-3

