"""Projected descent minimization of the constrained energy, with multistart
and exponent continuation.

Each iterate is re-projected onto the feasible set by the shift-then-scale
map (feasible shift c(u), then the ray minimizer t*), so every accepted
iterate is feasible and its energy is a valid upper bound for the infimum.
The energy of a projected field is in closed form in its two integrals
(the Dirichlet energy and int |v|^q of the shifted field), so the projection
returns it without a separate energy evaluation.
The descent direction is the gradient of the energy in the H1 inner
product (stiffness plus mass), which preconditions away the mesh-dependent
stiffness of the plain quadrature-weighted gradient and gives
mesh-independent convergence rates.  Step sizes start from a spectral
(Barzilai-Borwein) trial value taken in that same H1 metric,
s'(K + W)s / s'(g_k - g_{k-1}) with s the last step and g the raw gradient,
and are accepted through Armijo backtracking on the true (nonsmooth for
q = 1) energy values, so the accepted energy trace is monotone by
construction.  Backtracking ends, with stop reason "no-descent-step", once
the predicted decrease eta * <dphi, d> is at roundoff of |phi|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import functional, geometry
from .functional import ProblemSpec

__all__ = ["SolveConfig", "SolveReport", "project", "minimize_energy",
           "multistart", "continuation_sweep"]

_STEP0 = 1.0                           # initial step size
_ARMIJO = 1e-4                         # sufficient-decrease factor
_BACKTRACK = 0.5                       # step shrink ratio
_ROUNDOFF = 4.0 * float(np.finfo(float).eps)  # relative decrease at roundoff


@dataclass(frozen=True)
class SolveConfig:
    """Stopping rule, seeding and starts of one projected-descent run; the
    step-size rule (initial step, Armijo factor, shrink ratio) is fixed."""

    max_iter: int = 20000
    grad_tol: float = 1e-6             # projected-gradient norm threshold
    energy_tol: float = 1e-11          # stall threshold over 10 iterations
    seed: int = 0
    starts: int = 8                    # multistart count (dipole always included)

    def __post_init__(self):
        if self.max_iter < 1 or self.starts < 1:
            raise ValueError("invalid solve config: counts must be >= 1")
        if not all(math.isfinite(t) and t > 0 for t in (self.grad_tol, self.energy_tol)):
            raise ValueError("invalid solve config: tolerances must be finite and > 0")


@dataclass
class SolveReport:
    """Outcome of a minimization run."""

    u: np.ndarray
    energy: float
    constraint_residual: float
    grad_norm: float
    iterations: int
    energy_trace: list[float]
    seed: int
    q: float
    converged: bool
    stop_reason: str
    recipe: str = "dipole"             # start: "dipole", "random", "warm-start" or "given"
    constraint: str = ""               # "signed-mean-zero" or "sign-balance"
    near_best: list[dict] = field(default_factory=list)

    def to_dict(self, grid=None) -> dict:
        """JSON-ready summary: every field but the field u, plus the grid's
        dict; it holds no timing, so reruns with identical seeds serialize
        byte-identically."""
        d = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "u"}
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


def _descent_direction(spec: ProblemSpec, u: np.ndarray):
    """Returns (raw gradient g, H1 gradient d, slope <dphi, d> >= 0)."""
    g = spec.grid
    grad_w = functional.energy_gradient(spec, u)       # w-metric gradient
    euclid = g.weights * grad_w                        # raw partial derivatives
    d = g.h1_solve(euclid)
    return euclid, d, float(np.dot(euclid, d))


def _wnorm(g, v) -> float:
    return float(np.sqrt(np.dot(g.weights, v * v)))


def minimize_energy(spec: ProblemSpec, config: SolveConfig, u0=None) -> SolveReport:
    """Projected descent from one start.

    Iterates u_{k+1} = project(u_k - eta_k d_k) with d_k the H1 energy
    gradient and eta_k from Armijo backtracking:
    phi(u_{k+1}) <= phi(u_k) - 1e-4 * eta_k * |dphi(u_k)|^2.  Stops when
    the projected-gradient norm (quadrature-weighted) drops below grad_tol,
    when the energy decrease over 10 iterations falls below energy_tol,
    when no step passes Armijo before eta_k |dphi(u_k)|^2 <= 4 eps |phi|
    ("no-descent-step"), or at max_iter (reported with a flag).  Starts
    from u0, or from the dipole x1 when u0 is None; constant starts are
    re-seeded from the configured rng.
    """
    g = spec.grid
    u = g.x1.copy() if u0 is None else np.asarray(u0, dtype=float)
    if float(np.max(u) - np.min(u)) == 0.0:
        # degenerate start: re-seed randomly
        u = _smooth_noise(spec, np.random.default_rng(config.seed))
    u, phi = project(spec, u)
    trace = [phi]
    eta = _STEP0
    eta_cap = 1e6 * _STEP0
    grad_norm = float("inf")
    converged = False
    reason = "max-iterations-exceeded"
    it = 0
    prev_u = prev_grad = None

    while it < config.max_iter:
        it += 1
        euclid, d, slope = _descent_direction(spec, u)
        if slope <= 0.0 or not np.isfinite(slope):
            converged, reason = True, "zero-gradient"
            grad_norm = 0.0
            break
        # spectral (Barzilai-Borwein) trial step in the H1 metric of d:
        # eta = s'(K + W)s / s'(g_k - g_{k-1}) with s = u_k - u_{k-1} and g
        # the raw gradient, safeguarded by the Armijo loop below so the
        # energy trace stays monotone
        if prev_u is not None:
            s = u - prev_u
            sy = float(np.dot(s, euclid - prev_grad))
            if sy > 0.0:
                ss = geometry.dirichlet_energy(g, s) + float(np.dot(g.weights, s * s))
                eta = ss / sy
            else:
                eta = eta / _BACKTRACK
        else:
            eta = eta / _BACKTRACK
        eta = min(max(eta, 1e-6 * _STEP0), eta_cap)
        prev_u, prev_grad = u, euclid
        accepted = False
        # halve until Armijo holds or the predicted decrease is at roundoff;
        # no absolute floor: phi = 0 only at the zero field, where slope = 0
        while eta * slope > _ROUNDOFF * abs(phi):
            trial, phi_t = project(spec, u - eta * d)
            if phi_t <= phi - _ARMIJO * eta * slope:
                accepted = True
                break
            eta *= _BACKTRACK
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
        seed=config.seed, q=spec.q, converged=converged, stop_reason=reason,
        recipe="dipole" if u0 is None else "given", constraint=_constraint_name(spec),
    )


def _run_start(spec: ProblemSpec, config: SolveConfig, idx: int) -> SolveReport:
    # start 0 is the dipole; later starts draw smooth noise from independent
    # deterministic streams
    sub = replace(config, seed=config.seed + 7919 * idx)
    if idx == 0:
        return minimize_energy(spec, sub)
    rep = minimize_energy(spec, sub, u0=_smooth_noise(spec, np.random.default_rng(sub.seed)))
    rep.recipe = "random"
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
    if not qs:
        raise ValueError("continuation needs at least one exponent")
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
            rep = minimize_energy(spec, config, u0=prev)
            rep.recipe = "warm-start"
        if spec.sublinear_q1:
            rep.stop_reason += "; constraint switched to sign-balance"
        reports.append(rep)
        prev = rep.u
    return reports
