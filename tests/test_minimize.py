import dataclasses
import json
import math
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from nodal_lab import diagnostics as dg
from nodal_lab import functional as fn
from nodal_lab import geometry as geo
from nodal_lab import minimize as mz
from nodal_lab import radial as rad

from conftest import (PROP_GRID, interval_energy, property_fields, second_eigenpair,
                      small_grids, smooth_random_field)


def test_config_validation():
    with pytest.raises(ValueError):
        mz.SolveConfig(starts=0)
    for tol in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and > 0"):
            mz.SolveConfig(grad_tol=tol)
    # random.Random(-s) draws the stream of s
    with pytest.raises(ValueError, match="seed must be >= 0"):
        mz.SolveConfig(seed=-1)


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
    nehari = -2.0 * q / (2.0 - q)
    euclid, d, _, coef, _ = mz._direction(spec, u, nehari * phi)
    assert np.array_equal(euclid, grid.weights * fn.energy_gradient(spec, u))
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


@pytest.mark.parametrize("domain, resolution, bound", [
    (geo.DomainSpec.disc(1.0), (8, 16), 1.5e-15),
    (geo.DomainSpec.rectangle(2.0, 1.0), (12, 12), 2.5e-15)])
def test_descent_dirichlet_of_direction_on_dense_solve_grids(domain, resolution, bound,
                                                              monkeypatch):
    # the benchmark's coarsest multistart grids, where h1_solve is the dense
    # product: D(d) = <rhs, d> - <d, d>_w holds up to the solve's <d, r>, r
    # its residual.  Over the 8 starts' iterates at seed 0 and q = 1, 1.5
    # and 1.9, the separable solve read at most 8.8e-16 (disc) and 1.7e-15
    # (rectangle) relative; a solver whose <d, r> grew 3-20 times fails
    grid = geo.build_grid(domain, resolution)
    assert grid.n_nodes <= geo._DENSE_NODES
    errors = []
    direction = mz._direction

    def recorded(spec, u, a):
        out = direction(spec, u, a)
        dd = geo.dirichlet_energy(grid, out[1])
        errors.append(abs(out[3][2] - dd) / dd)
        return out

    monkeypatch.setattr(mz, "_direction", recorded)
    for q in (1.0, 1.5, 1.9):
        mz.multistart(fn.ProblemSpec(grid, q), mz.SolveConfig(seed=0, starts=8))
    assert len(errors) > 100             # 197 on the disc, 155 on the rectangle
    assert max(errors) <= bound


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
    # a tolerance no descent can meet: the run ends when no step passes
    # Armijo before the predicted decrease is at roundoff of the energy,
    # not after halving the step down to an absolute floor
    grid = geo.build_grid(geo.DomainSpec.interval(1.0), 257)
    spec = fn.ProblemSpec(grid, 1.5)
    calls = _count_projections(monkeypatch)
    cfg = mz.SolveConfig(grad_tol=1e-300, max_iter=400)
    rep = mz.minimize_energy(spec, cfg)
    assert rep.stop_reason == "no-descent-step"
    assert len(calls) <= 20
    assert rep.energy == pytest.approx(-1.715265757144390e-02, rel=1e-14)


def test_underflowing_start_raises():
    # on a short interval at q near 2 the projected start's energy
    # underflows to 0; the run must not report it as a converged minimum
    grid = geo.build_grid(geo.DomainSpec.interval(0.01), 64)
    spec = fn.ProblemSpec(grid, 1.99)
    with pytest.raises(RuntimeError, match="scale-out-of-range"):
        mz.minimize_energy(spec, mz.SolveConfig(starts=1))


def _reject_non_finite(name):
    raise ValueError(f"non-finite JSON number {name}")


def test_restart_from_minimizer_serializes_as_strict_json():
    # restarted from a minimizer to roundoff, the run accepts no step and
    # has no gradient norm (inf); its summary must still be strict JSON.
    # The field is a multistart whose descents ran until no step passed
    # Armijo (a grad_tol no descent meets); a restart from a field that
    # stopped on grad-tol may still take one step
    grid = geo.build_grid(geo.DomainSpec.disc(1.0), (32, 64))
    spec = fn.ProblemSpec(grid, 1.0)
    cfg = mz.SolveConfig(seed=0, starts=2)
    best = mz.multistart(spec, dataclasses.replace(cfg, grad_tol=1e-300))
    assert best.converged
    rep = mz.minimize_energy(spec, cfg, u0=best.u)
    assert (rep.stop_reason, rep.iterations, rep.converged) == ("no-descent-step", 1, True)
    assert rep.grad_norm == math.inf
    d = json.loads(json.dumps(rep.to_dict(grid), allow_nan=False),
                   parse_constant=_reject_non_finite)
    assert d["grad_norm"] is None
    assert d["energy"] == rep.energy


def test_minimizer_changes_sign(interval_min_q1, interval_grid):
    u = interval_min_q1.u
    w = interval_grid.weights
    assert float(np.sum(w[u > 0])) > 0.1
    assert float(np.sum(w[u < 0])) > 0.1


def test_constant_start_rejected(interval_grid):
    # a constant field has no sign-changing projection; no start replaces it
    spec = fn.ProblemSpec(interval_grid, 1.0)
    for c in (2.0, 0.0):
        with pytest.raises(ValueError, match="constant-start"):
            mz.minimize_energy(spec, mz.SolveConfig(seed=3),
                               u0=np.full(interval_grid.n_nodes, c))


def test_smooth_noise_depends_on_the_seed_alone(annulus_grid):
    # a random start is random.Random(seed)'s random() stream, which Python
    # keeps the same across versions, centred and smoothed: the seed alone
    # fixes its bytes, and the starts' streams, 7919 apart, differ
    spec = fn.ProblemSpec(annulus_grid, 1.0)
    noise = mz._smooth_noise(spec, 6)
    assert noise.tobytes() == mz._smooth_noise(spec, 6).tobytes()
    assert not np.array_equal(noise, mz._smooth_noise(spec, 6 + 7919))
    draw = random.Random(6).random
    raw = np.array([draw() - 0.5 for _ in range(annulus_grid.n_nodes)])
    assert noise.tobytes() == annulus_grid.h1_solve(annulus_grid.weights * raw).tobytes()


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
                                  u0=None if i == 0 else mz._smooth_noise(spec, 6 + 7919 * i))
               for i in range(4)]
    assert best.energy <= min(s.energy for s in singles) + 1e-15
    # near_best is the coarsest level's comparison: the winning start first,
    # with its energy on that grid
    assert best.near_best and best.near_best[0]["seed"] == best.seed
    assert best.near_best[0]["energy"] == best.levels[0]["energy"]


# the starts are compared on the coarsest grid and only the winner is
# descended on the finer ones; against the best of the same starts
# descended on the requested grid alone (seeds 0-7, 4 starts) it landed at
# most 3.1e-13 (q = 1) and 1.2e-9 (q > 1) relative away, with the same
# nodal-domain count.  At q > 1 the fine descent from the winner stops on
# the absolute grad_tol, a little above the minimum
@pytest.mark.parametrize("domain, resolution, q, rel", [
    (geo.DomainSpec.disc(1.0), (64, 128), 1.0, 1e-12),
    (geo.DomainSpec.disc(1.0), (64, 128), 1.5, 5e-9),
    (geo.DomainSpec.annulus(0.5, 1.0), (32, 64), 1.0, 1e-12),
    (geo.DomainSpec.rectangle(2.0, 1.0), 96, 1.6, 5e-9),
])
def test_multistart_coarse_to_fine_matches_fine_starts(domain, resolution, q, rel):
    grid = geo.build_grid(domain, resolution)
    spec = fn.ProblemSpec(grid, q)
    best = mz.multistart(spec, mz.SolveConfig(seed=0, starts=4))
    singles = [mz.minimize_energy(spec, mz.SolveConfig(seed=7919 * i, starts=1),
                                  u0=None if i == 0 else mz._smooth_noise(spec, 7919 * i))
               for i in range(4)]
    fine = min(singles, key=lambda r: r.energy)
    assert abs(best.energy - fine.energy) <= rel * abs(fine.energy)
    assert dg.nodal_domains(grid, best.u) == dg.nodal_domains(grid, fine.u)
    # one row per grid, coarsest first: the starts, then one descent each
    assert len(best.levels) >= 2 and best.levels[-1]["resolution"] == grid.resolution
    assert [row["descents"] for row in best.levels] == [4] + [1] * (len(best.levels) - 1)
    assert best.levels[-1]["energy"] == best.energy
    assert best.levels[-1]["iterations"] == best.iterations


def test_interval_energy_closed_form():
    # criterion 04's target at q = 1, and the scaling law u_R(x) =
    # R^(2/(2-q)) u(x/R), which multiplies the energy by R^((2+q)/(2-q))
    assert interval_energy(1.0) == pytest.approx(-1.0 / 3.0, rel=1e-14)
    for q in (1.0, 1.25, 1.5, 1.8, 1.9, 1.99):
        assert interval_energy(q, 2.5) == pytest.approx(
            2.5 ** ((2 + q) / (2 - q)) * interval_energy(q), rel=1e-12)


def _q_and_starts(gap):
    """The exponents and start counts of the C h^2 tests.  q = 1.9 with
    more than one start is item 19's regression, gap above the exact
    energy."""
    return [*[(q, k) for q in (1.0, 1.25, 1.5, 1.8) for k in (1, 4, 8)], (1.9, 1),
            *[pytest.param(1.9, k, marks=pytest.mark.xfail(strict=True, reason=(
                "ROADMAP item 19: past the coarsest grid each level stops after one "
                f"iteration on the absolute grad_tol, about {gap} above the exact energy")))
              for k in (4, 8)]]


def _error_over_h2(domain, n, q, starts):
    """|E - E*| / (h^2 |E*|) at seed 0, E* the exact energy on (-1, 1) and
    h the spacing along the first axis."""
    grid = geo.build_grid(domain, n)
    rep = mz.multistart(fn.ProblemSpec(grid, q), mz.SolveConfig(starts=starts))
    exact = interval_energy(q)
    h = grid.axes[0][2]
    return abs(rep.energy - exact) / (h * h * abs(exact))


# relative energy error over h^2 on (-1, 1) against the exact energy, read
# at seed 0 with 1, 4 and 8 starts at n = 129 and 257: at most 0.250
# (q = 1), 0.237 (q = 1.25), 0.599 (q = 1.5), 1.850 (q = 1.8) and 3.827
# (q = 1.9, one start).  C is about 1.25 times the largest reading per q
INTERVAL_C = {1.0: 0.3, 1.25: 0.3, 1.5: 0.75, 1.8: 2.3, 1.9: 4.8}


@pytest.mark.parametrize("n", [129, 257])
@pytest.mark.parametrize("q, starts", _q_and_starts("2.5 %"))
def test_interval_energy_error_is_second_order(q, starts, n):
    assert _error_over_h2(geo.DomainSpec.interval(1.0), n, q, starts) <= INTERVAL_C[q]


# the same on the 2 x 1 rectangle, whose least energy is the interval's on
# (-1, 1) times the height 1, with h = 2/(n - 1) the x spacing.  Read at
# seed 0 with 1, 4 and 8 starts at n = 48 and 96: at most 0.500 (q = 1),
# 0.492 (q = 1.25), 0.689 (q = 1.5), 1.880 (q = 1.8) and 3.927 (q = 1.9,
# one start).  C is about 1.25 times the largest reading per q
RECTANGLE_C = {1.0: 0.63, 1.25: 0.62, 1.5: 0.87, 1.8: 2.35, 1.9: 4.9}


@pytest.mark.parametrize("n", [48, 96])
@pytest.mark.parametrize("q, starts", _q_and_starts("4.6-4.9 %"))
def test_rectangle_energy_error_is_second_order(q, starts, n):
    assert _error_over_h2(geo.DomainSpec.rectangle(2.0, 1.0), n, q, starts) <= RECTANGLE_C[q]


def test_second_eigenpair_matches_dense_eigh():
    # against the second eigenvalue of the dense pencil (K, W), K built
    # column by column from the Laplacian, on small grids of each kind
    for spec, res in ((geo.DomainSpec.interval(1.0), 33),
                      (geo.DomainSpec.rectangle(2.0, 1.0), 10),
                      (geo.DomainSpec.disc(1.0), (8, 16)),
                      (geo.DomainSpec.annulus(0.5, 1.0), (8, 16))):
        grid = geo.build_grid(spec, res)
        w = grid.weights
        k = np.column_stack([w * geo.laplacian(grid, e) for e in np.eye(grid.n_nodes)])
        mu, v = second_eigenpair(grid)
        assert mu == pytest.approx(scipy.linalg.eigh(k, np.diag(w), eigvals_only=True)[1],
                                   rel=1e-9)
        assert np.dot(w, v * v) == pytest.approx(1.0, rel=1e-12)
        assert abs(np.dot(w, v)) <= 1e-12


# the grids of the two-sided energy bracket, by name: (domain, resolution)
BRACKET_GRIDS = {"interval": (geo.DomainSpec.interval(1.0), 257),
                 "rectangle": (geo.DomainSpec.rectangle(2.0, 1.0), 48),
                 "disc": (geo.DomainSpec.disc(1.0), (32, 64)),
                 "annulus": (geo.DomainSpec.annulus(0.5, 1.0), (32, 64))}
# at q = 1.9 these multistarts end above phi(project(v2)): the disc with
# 1 and 4 starts, the interval and the rectangle with 4
ABOVE_V2 = {("disc", 1), ("disc", 4), ("interval", 4), ("rectangle", 4)}


@pytest.mark.parametrize("name, q, starts", [
    pytest.param(name, q, k, marks=[pytest.mark.xfail(strict=True, reason=(
        "ROADMAP items 15 and 19: near q = 2 the descent stops on the absolute "
        "grad_tol above the energy of the projected second eigenvector"))]
        if q == 1.9 and (name, k) in ABOVE_V2 else [])
    for name in BRACKET_GRIDS for q in (1.0, 1.5, 1.9) for k in (1, 4)])
def test_multistart_energy_in_eigenvector_bracket(name, q, starts):
    # a feasible v minimizes c -> int |v + c|^q at c = 0, so Hoelder and the
    # discrete Poincare-Wirtinger inequality give Q(v) = D(v)/||v||_q^2 >=
    # mu_2h |Omega|^(1 - 2/q), a lower bound phi_lo on every feasible
    # energy; phi(project(v2)) is a feasible energy reached with no descent
    grid = geo.build_grid(*BRACKET_GRIDS[name])
    mu, v2 = second_eigenpair(grid)
    spec = fn.ProblemSpec(grid, q)
    lower = -(2.0 - q) / (2.0 * q) * (
        mu * float(np.sum(grid.weights)) ** (1.0 - 2.0 / q)) ** (-q / (2.0 - q))
    upper = mz.project(spec, v2)[1]
    energy = mz.multistart(spec, mz.SolveConfig(seed=0, starts=starts)).energy
    assert lower <= energy <= upper


def test_multistart_deterministic(interval_grid):
    spec = fn.ProblemSpec(interval_grid, 1.25)
    cfg = mz.SolveConfig(seed=9, starts=3, max_iter=200)
    a = mz.multistart(spec, cfg)
    b = mz.multistart(spec, cfg)
    assert a.energy_trace == b.energy_trace
    assert np.array_equal(a.u, b.u)


def test_multistart_and_symmetry_check_hold_one_level():
    # the disc-q1 solve of the benchmark: on numpy 2.4 its traced peak read
    # 4.21 MiB while every grid of the coarse-to-fine chain kept its
    # coordinates, solver and winner, and the descent kept its start; the
    # symmetry check's transient read 1.75 MiB with the mirrors built through
    # a second copy and the phases held through the sweep.  These read 3.37
    # and 1.38 MiB: each bound is about 10 % above, and below the former
    grid = geo.build_grid(geo.DomainSpec.disc(1.0), (128, 256))
    tracemalloc.start()
    try:
        u = mz.multistart(fn.ProblemSpec(grid, 1.0), mz.SolveConfig(seed=0, starts=4)).u
        solve_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        passed = dg.foliated_schwarz_check(grid, u).passed
        check_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert passed
    assert solve_peak < 3.75 * 2**20
    assert check_peak < 1.5 * 2**20


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
    assert {r.stop_reason for r in reps} <= {"grad-tol", "no-descent-step",
                                             "max-iterations-exceeded"}
    assert (reps[-1].constraint, reps[-1].recipe) == ("sign-balance", "warm-start")
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
    switched = [i for i, (prev, r) in enumerate(zip(reps, reps[1:]), 1)
                if r.recipe == "warm-start" and r.constraint == "sign-balance"
                and prev.q > 1.0]
    assert switched == [1]
    assert [r.constraint for r in reps] == ["signed-mean-zero", "sign-balance", "sign-balance"]
    assert [r.recipe for r in reps] == ["dipole", "warm-start", "warm-start"]


@pytest.mark.parametrize("stop", ["grad-tol", "no-descent-step", "max-iterations-exceeded"])
@pytest.mark.parametrize("q", [1.0, 1.5])
def test_report_derives_converged_and_constraint(interval_grid, stop, q):
    # converged and constraint are not stored: they follow from the stop
    # reason and q, and report.json still carries both
    rep = mz.SolveReport(u=np.zeros(3), energy=-0.1, constraint_residual=0.0,
                         grad_norm=1e-7, iterations=5, energy_trace=[-0.1], seed=0,
                         q=q, stop_reason=stop)
    assert rep.converged is (stop != "max-iterations-exceeded")
    assert rep.constraint == ("sign-balance" if q == 1.0 else "signed-mean-zero")
    d = rep.to_dict(interval_grid)
    assert (d["converged"], d["constraint"]) == (rep.converged, rep.constraint)
    assert "u" not in d and d["stop_reason"] == stop
    names = {f.name for f in dataclasses.fields(mz.SolveReport)}
    assert not names & {"converged", "constraint"}


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


# bound on |E_h - m_r| nr^2 / |m_r|: measured 3.9-4.5 at q = 1.5, 11.2-11.6
# at q = 1.8.  q = 1 is left out: sgn(0) at the start's zero nodes breaks
# the radial class.  So is q = 1.25, where the nr = 128 run leaves the
# class and reaches the nonradial minimum.
@pytest.mark.parametrize("q, bound", [(1.5, 5.0), (1.8, 12.5)])
def test_radial_disc_solve_matches_shooting(q, bound):
    # on a polar grid the ring mean commutes with the stiffness and the
    # mass, so a descent from a radial start stays radial; its minimizer
    # is the grid's radial nodal solution, which converges at O(h^2) to
    # the shot continuum energy m_r
    m_r = rad.m_radial(2, q)
    errors = []
    for nr in (32, 64, 128, 256, 512):
        grid = geo.build_grid(geo.DomainSpec.disc(1.0), (nr, 8))
        u0 = np.sum(grid.coords ** 2, axis=1) - 0.5
        rep = mz.minimize_energy(fn.ProblemSpec(grid, q), mz.SolveConfig(grad_tol=1e-9), u0)
        assert dg.radiality_deviation(grid, rep.u) <= 1e-20
        assert rep.energy < m_r
        assert abs(rep.energy - m_r) * nr * nr / abs(m_r) <= bound
        errors.append(rep.energy - m_r)
    orders = [math.log2(a / b) for a, b in zip(errors[1:], errors[2:])]
    assert all(abs(p - 2.0) <= 0.15 for p in orders), orders


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
