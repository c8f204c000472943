"""Projected descent minimization of the constrained energy, with multistart
and exponent continuation.

Each iterate is re-projected onto the feasible set by the shift-then-scale
map (feasible shift c(u), then the ray minimizer t*), so every accepted
iterate is feasible and its energy is a valid upper bound for the infimum.
The energy of a projected field is in closed form in its two integrals
(the Dirichlet energy and int |v|^q of the shifted field), so the projection
returns it without a separate energy evaluation.
The descent direction is the gradient of the energy in a selectable inner
product; the default "h1" metric (stiffness plus mass) preconditions away
the mesh-dependent stiffness of the plain quadrature-weighted gradient and
gives mesh-independent convergence rates.  Step sizes start from a spectral
(Barzilai-Borwein) trial value and are accepted through Armijo backtracking
on the true (nonsmooth for q = 1) energy values, so the accepted energy
trace is monotone by construction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import functional, geometry
from .functional import ProblemSpec

__all__ = ["SolveConfig", "SolveReport", "project", "minimize_energy",
           "multistart", "continuation_sweep"]

_RECIPES = ("dipole", "random", "custom")


@dataclass(frozen=True)
class SolveConfig:
    """Knobs for one projected-descent run."""

    step0: float = 1.0                 # initial step size
    armijo: float = 1e-4               # sufficient-decrease factor in (0,1)
    backtrack: float = 0.5             # step shrink ratio in (0,1)
    max_iter: int = 20000
    grad_tol: float = 1e-6             # projected-gradient norm threshold
    energy_tol: float = 1e-11          # stall threshold over 10 iterations
    seed: int = 0
    starts: int = 8                    # multistart count (dipole always included)
    recipe: str = "dipole"             # initial-field recipe
    metric: str = "h1"                 # descent metric: "h1" or "l2"

    def __post_init__(self):
        if self.step0 <= 0 or not (0 < self.armijo < 1) or not (0 < self.backtrack < 1):
            raise ValueError("invalid solve config: step/armijo/backtrack out of range")
        if self.max_iter < 1 or self.starts < 1:
            raise ValueError("invalid solve config: counts must be >= 1")
        if self.grad_tol <= 0 or self.energy_tol <= 0:
            raise ValueError("invalid solve config: tolerances must be > 0")
        if self.recipe not in _RECIPES:
            raise ValueError(f"invalid solve config: unknown recipe {self.recipe!r}")
        if self.metric not in ("h1", "l2"):
            raise ValueError(f"invalid solve config: unknown metric {self.metric!r}")


@dataclass
class SolveReport:
    """Outcome of a minimization run."""

    u: np.ndarray
    energy: float
    constraint_residual: float
    grad_norm: float
    iterations: int
    energy_trace: list[float]
    wall_time: float
    seed: int
    q: float
    converged: bool
    stop_reason: str
    recipe: str = "dipole"
    constraint: str = ""               # "signed-mean-zero" or "sign-balance"
    near_best: list[dict] = field(default_factory=list)

    def to_dict(self, grid=None) -> dict:
        """JSON-ready summary.  Wall time is intentionally omitted so that
        reruns with identical seeds serialize byte-identically."""
        d = {
            "energy": self.energy,
            "constraint_residual": self.constraint_residual,
            "grad_norm": self.grad_norm,
            "iterations": self.iterations,
            "seed": self.seed,
            "q": self.q,
            "converged": self.converged,
            "stop_reason": self.stop_reason,
            "recipe": self.recipe,
            "constraint": self.constraint,
            "near_best": self.near_best,
            "energy_trace": [float(v) for v in self.energy_trace],
        }
        if grid is not None:
            d.update(grid.to_dict())
        return d


def _constraint_name(spec: ProblemSpec) -> str:
    return "sign-balance" if spec.sublinear_q1 else "signed-mean-zero"


def project(spec: ProblemSpec, u: np.ndarray) -> tuple[np.ndarray, float]:
    """Feasible point from an arbitrary field, with its energy.

    Shifts by c(u), then scales v = u + c(u) by the ray minimizer
    t* = (A / D)^{1/(2-q)}, where A = int |v|^q and D is the Dirichlet
    energy of v.  The energy at t* v is then in closed form,
    phi = -(2-q)/(2q) A t*^q = -(2-q)/(2q) A^{2/(2-q)} / D^{q/(2-q)}, so one
    gather and one array power serve both.  Constants project to the zero
    field.
    """
    u = np.asarray(u, dtype=float)
    g, q = spec.grid, spec.q
    v = u + functional.c_shift(spec, u)
    d = geometry.dirichlet_energy(g, v)
    if d <= 0.0:
        return np.zeros_like(v), 0.0
    a = functional.abs_power_integral(spec, v)
    t = (a / d) ** (1.0 / (2.0 - q))
    return t * v, -(2.0 - q) / (2.0 * q) * a * t ** q


def _smooth_noise(spec: ProblemSpec, rng: np.random.Generator) -> np.ndarray:
    g = spec.grid
    raw = rng.standard_normal(g.n_nodes)
    return g.h1_solve(g.weights * raw)


def _initial_field(spec: ProblemSpec, recipe: str, rng: np.random.Generator,
                   u0=None) -> np.ndarray:
    g = spec.grid
    if recipe == "custom":
        if u0 is None:
            raise ValueError("custom recipe needs an explicit initial field")
        return np.asarray(u0, dtype=float)
    if recipe == "dipole":
        return g.x1.copy()
    return _smooth_noise(spec, rng)


def _descent_direction(spec: ProblemSpec, u: np.ndarray, metric: str):
    """Returns (direction d, directional derivative <dphi, d> >= 0)."""
    g = spec.grid
    grad_w = functional.energy_gradient(spec, u)       # w-metric gradient
    euclid = g.weights * grad_w                        # raw partial derivatives
    if metric == "l2":
        return grad_w, float(np.dot(euclid, grad_w))
    d = g.h1_solve(euclid)
    return d, float(np.dot(euclid, d))


def _wnorm(g, v) -> float:
    return float(np.sqrt(np.dot(g.weights, v * v)))


def minimize_energy(spec: ProblemSpec, config: SolveConfig, u0=None) -> SolveReport:
    """Projected descent from one start.

    Iterates u_{k+1} = project(u_k - eta_k d_k) with d_k the energy gradient
    in the configured metric and eta_k from Armijo backtracking:
    phi(u_{k+1}) <= phi(u_k) - armijo * eta_k * |dphi(u_k)|^2.  Stops when
    the projected-gradient norm (quadrature-weighted) drops below grad_tol,
    when the energy decrease over 10 iterations falls below energy_tol, or
    at max_iter (reported with a flag).  Constant starts are re-seeded from
    the configured rng.
    """
    g = spec.grid
    rng = np.random.default_rng(config.seed)
    t0 = time.perf_counter()

    u = _initial_field(spec, config.recipe, rng, u0)
    if float(np.max(u) - np.min(u)) == 0.0:
        u = _smooth_noise(spec, rng)      # degenerate start: re-seed randomly
    u, phi = project(spec, u)
    trace = [phi]
    eta = config.step0
    eta_floor = 1e-14 * config.step0
    eta_cap = 1e6 * config.step0
    grad_norm = float("inf")
    converged = False
    reason = "max-iterations-exceeded"
    it = 0
    prev_u = prev_d = None

    while it < config.max_iter:
        it += 1
        d, slope = _descent_direction(spec, u, config.metric)
        if slope <= 0.0 or not np.isfinite(slope):
            converged, reason = True, "zero-gradient"
            grad_norm = 0.0
            break
        # spectral (Barzilai-Borwein) trial step, safeguarded by the Armijo
        # loop below so the energy trace stays monotone
        if prev_u is not None:
            s = u - prev_u
            y = d - prev_d
            sy = float(np.dot(g.weights, s * y))
            if sy > 0.0:
                eta = float(np.dot(g.weights, s * s)) / sy
            else:
                eta = eta / config.backtrack
        else:
            eta = eta / config.backtrack
        eta = min(max(eta, 1e-6 * config.step0), eta_cap)
        prev_u, prev_d = u, d
        accepted = False
        while eta >= eta_floor:
            trial, phi_t = project(spec, u - eta * d)
            if phi_t <= phi - config.armijo * eta * slope:
                accepted = True
                break
            eta *= config.backtrack
        if not accepted:
            converged, reason = True, "no-descent-step"
            break
        grad_norm = _wnorm(g, trial - u) / eta
        u, phi = trial, phi_t
        trace.append(phi)
        if grad_norm <= config.grad_tol:
            converged, reason = True, "grad-tol"
            break
        if len(trace) > 10 and trace[-11] - trace[-1] <= config.energy_tol:
            converged, reason = True, "energy-stall"
            break

    check = functional.in_constraint(spec, u)
    return SolveReport(
        u=u, energy=phi, constraint_residual=check.residual,
        grad_norm=grad_norm, iterations=it, energy_trace=trace,
        wall_time=time.perf_counter() - t0, seed=config.seed, q=spec.q,
        converged=converged, stop_reason=reason, recipe=config.recipe,
        constraint=_constraint_name(spec),
    )


def _run_start(spec: ProblemSpec, config: SolveConfig, idx: int) -> SolveReport:
    # start 0 always uses the dipole recipe; later starts draw smooth noise
    # from independent deterministic streams
    recipe = "dipole" if idx == 0 else "random"
    sub = replace(config, recipe=recipe, seed=config.seed + 7919 * idx)
    rep = minimize_energy(spec, sub)
    rep.recipe = recipe
    return rep


def multistart(spec: ProblemSpec, config: SolveConfig) -> SolveReport:
    """Run config.starts independent descents (the dipole recipe first, then
    seeded random starts) and return the lowest-energy report; deterministic
    for a fixed seed."""
    k = config.starts
    reports = [_run_start(spec, config, i) for i in range(k)]
    order = sorted(range(k), key=lambda i: (reports[i].energy, i))
    best = reports[order[0]]
    best.near_best = [
        {"start": i, "recipe": reports[i].recipe, "seed": reports[i].seed,
         "energy": reports[i].energy}
        for i in order if reports[i].energy <= best.energy + 1e-6
    ]
    return best


def continuation_sweep(grid, q_list, config: SolveConfig) -> list[SolveReport]:
    """Solve a descending list of exponents, warm-starting each run from the
    previous minimizer re-projected under the new constraint.  The first
    exponent is solved by multistart."""
    qs = [float(q) for q in q_list]
    if any(not 1.0 <= q < 2.0 for q in qs):
        raise ValueError("q-out-of-range: continuation exponents must lie in [1, 2)")
    if sorted(qs, reverse=True) != qs:
        raise ValueError("continuation exponents must be sorted descending")
    reports = []
    prev = None
    for q in qs:
        spec = ProblemSpec(grid, q)
        if prev is None:
            rep = multistart(spec, config)
        else:
            rep = minimize_energy(spec, replace(config, recipe="custom"), u0=prev)
            rep.recipe = "warm-start"
        if spec.sublinear_q1:
            rep.stop_reason += "; constraint switched to sign-balance"
        reports.append(rep)
        prev = rep.u
    return reports
