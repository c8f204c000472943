import math
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from nodal_lab import functional as fn
from nodal_lab import geometry as geo
from nodal_lab import minimize as mz

from conftest import PROP_GRID, property_fields, small_grids, smooth_random_field


def closed_form_interval(x):
    """Odd piecewise-parabola solving the q = 1 interval problem; energy -1/3."""
    return x - np.sign(x) * x * x / 2.0


def test_config_validation():
    with pytest.raises(ValueError):
        mz.SolveConfig(starts=0)
    for tol in (0.0, -1.0, float("nan"), float("inf")):
        for name in ("grad_tol", "energy_tol"):
            with pytest.raises(ValueError, match="finite and > 0"):
                mz.SolveConfig(**{name: tol})


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


@pytest.mark.filterwarnings("ignore:c_shift residual")
@settings(max_examples=150, deadline=None, derandomize=True)
@given(grid=small_grids(), q=st.just(1.0) | st.floats(1.01, 1.99),
       seed=st.integers(0, 2**32 - 1), eta=st.floats(-6.0, 3.0))
def test_trial_dirichlet_energy_in_closed_form(grid, q, seed, eta):
    # from a projected u, D(u - eta d) and the spectral numerator s'Ks of
    # the step s = trial - u come from dot products, and project given that
    # D returns what it returns after its own walk
    spec = fn.ProblemSpec(grid, q)
    u, phi = mz.project(spec, smooth_random_field(grid, np.random.default_rng(seed)))
    euclid, d, _, dd, p = mz._descent_direction(spec, u)
    assert np.array_equal(euclid, grid.weights * fn.energy_gradient(spec, u))
    nehari = -2.0 * q / (2.0 - q)
    coef, _ = mz._trial_model(spec, u, nehari * phi, euclid, d, dd, p)
    assert coef[0] == pytest.approx(geo.dirichlet_energy(grid, u), rel=1e-12)
    eta = 10.0 ** eta
    v = u - eta * d
    dv = mz._dirichlet_along(coef, 1.0, eta)
    assert dv == pytest.approx(geo.dirichlet_energy(grid, v), rel=1e-12)
    walked, phi_w = mz.project(spec, v)
    trial, phi_t = mz.project(spec, v, None, None, dv)
    assert phi_t == pytest.approx(phi_w, rel=1e-12)
    assert np.max(np.abs(trial - walked)) <= 1e-12 * np.max(np.abs(walked))
    # trial = t (u - eta d) up to a constant; s is rounded once when it is
    # formed, which the walk sees and the closed form does not
    t = math.sqrt(nehari * phi_t / dv)
    s = trial - u
    ks = geo.dirichlet_energy(grid, s)
    assert abs(mz._dirichlet_along(coef, t - 1.0, t * eta) - ks) <= 1e-12 * (
        ks + math.sqrt(ks * coef[0]))


@pytest.mark.parametrize("q", [1.0, 1.25, 1.5, 1.9])
@pytest.mark.parametrize("domain, resolution", [
    (geo.DomainSpec.interval(1.0), 256),
    (geo.DomainSpec.interval(1.0), 1024),
    (geo.DomainSpec.rectangle(2.0, 1.0), (24, 16)),
    (geo.DomainSpec.disc(1.0), (16, 32)),
    (geo.DomainSpec.annulus(0.5, 1.0), (16, 32)),
    (geo.DomainSpec.disc(1e-3), (16, 32)),          # amplitude about R^(2/(2-q))
])
def test_reported_energy_is_the_fields(domain, resolution, q):
    # every trial's Dirichlet energy is taken in closed form; the energy a
    # descent reports must still be the walked energy of its field, within
    # the bound verify holds a dump to.  The 1024-node interval is stiff
    # enough that the residual of the H1 solve shows in a closed form that
    # leans on it
    grid = geo.build_grid(domain, resolution)
    spec = fn.ProblemSpec(grid, q)
    rep = mz.multistart(spec, mz.SolveConfig(seed=0, starts=2))
    scale = 0.5 * geo.dirichlet_energy(grid, rep.u) + fn.abs_power_integral(spec, rep.u) / q
    assert abs(fn.energy(spec, rep.u) - rep.energy) <= 1e-12 * scale


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


def _count_projections(monkeypatch) -> list:
    calls = []
    project = mz.project

    def counted(*args):
        calls.append(None)
        return project(*args)

    monkeypatch.setattr(mz, "project", counted)
    return calls


# one descent from the dipole, q = 1.5: the step taken in the plain w-metric
# needed 138 (disc) and 164 (annulus) projections to reach these energies,
# with Armijo rejecting 2-3 trial steps per accepted one
@pytest.mark.parametrize("domain, resolution, max_projections, reference", [
    (geo.DomainSpec.disc(1.0), (64, 128), 40, -0.009600007787392643),
    (geo.DomainSpec.annulus(0.5, 1.0), (32, 64), 60, -0.04923241334914089),
])
def test_descent_work_from_the_dipole(monkeypatch, domain, resolution,
                                      max_projections, reference):
    spec = fn.ProblemSpec(geo.build_grid(domain, resolution), 1.5)
    calls = _count_projections(monkeypatch)
    rep = mz.minimize_energy(spec, mz.SolveConfig())
    assert rep.stop_reason == "grad-tol"
    assert len(calls) <= max_projections
    assert rep.energy <= reference + 1e-10 * abs(reference)


def test_backtracking_stops_at_roundoff(monkeypatch):
    # tolerances no descent can meet: the run ends when no step passes
    # Armijo before the predicted decrease is at roundoff of the energy,
    # not after halving the step down to an absolute floor
    grid = geo.build_grid(geo.DomainSpec.interval(1.0), 257)
    spec = fn.ProblemSpec(grid, 1.5)
    calls = _count_projections(monkeypatch)
    cfg = mz.SolveConfig(grad_tol=1e-300, energy_tol=1e-300, max_iter=400)
    rep = mz.minimize_energy(spec, cfg)
    assert rep.stop_reason == "no-descent-step"
    assert len(calls) <= 20
    assert rep.energy == pytest.approx(-1.715265757144390e-02, rel=1e-14)


def test_minimizer_changes_sign(interval_min_q1, interval_grid):
    u = interval_min_q1.u
    w = interval_grid.weights
    assert float(np.sum(w[u > 0])) > 0.1
    assert float(np.sum(w[u < 0])) > 0.1


def test_degenerate_start_reseeded(interval_grid):
    spec = fn.ProblemSpec(interval_grid, 1.0)
    cfg = mz.SolveConfig(seed=3)
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
    singles = [mz.minimize_energy(spec, mz.SolveConfig(seed=6 + 7919 * i, starts=1),
                                  u0=None if i == 0 else smooth_random_field(
                                      interval_grid, np.random.default_rng(6 + 7919 * i)))
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
    with pytest.raises(ValueError):
        mz.continuation_sweep(grid, [], cfg)


def test_continuation_marks_only_a_switched_constraint():
    # the sign-balance constraint replaces the signed mean only where a
    # q = 1 run is warm-started from a q > 1 minimizer
    grid = geo.build_grid(geo.DomainSpec.interval(1.0), 128)
    cfg = mz.SolveConfig(seed=4, starts=1)
    reps = mz.continuation_sweep(grid, [1.5, 1.0, 1.0], cfg)
    assert reps[1].stop_reason.endswith("; constraint switched to sign-balance")
    assert "switched" not in reps[0].stop_reason + reps[2].stop_reason
    assert "switched" not in mz.continuation_sweep(grid, [1.0], cfg)[0].stop_reason


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



def test_solves_without_sparse_factorization(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sparse factorization called")

    monkeypatch.setattr(scipy.sparse.linalg, "factorized", refuse)
    monkeypatch.setattr(scipy.sparse.linalg, "splu", refuse)
    for spec, res in ((geo.DomainSpec.interval(1.0), 64),
                      (geo.DomainSpec.rectangle(2.0, 1.0), (16, 12)),
                      (geo.DomainSpec.disc(1.0), (12, 24)),
                      (geo.DomainSpec.annulus(0.5, 1.0), (12, 24))):
        problem = fn.ProblemSpec(geo.build_grid(spec, res), 1.0)
        rep = mz.multistart(problem, mz.SolveConfig(seed=1, starts=2))
        assert np.isfinite(rep.energy) and rep.energy < 0
    src = Path(__file__).resolve().parents[1] / "src"
    for path in src.rglob("*.py"):
        text = path.read_text()
        assert "factorized(" not in text and "splu(" not in text, path
