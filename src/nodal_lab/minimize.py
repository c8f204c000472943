"""Projected descent minimization of the constrained energy, with multistart
and exponent continuation.

Each iterate is re-projected onto the feasible set by the shift-then-scale
map (feasible shift c(u), then the ray minimizer t*), so every accepted
iterate is feasible and its energy is a valid upper bound for the infimum.
The energy of a projected field is in closed form in its two integrals
(the Dirichlet energy and int |v|^q of the shifted field), so the projection
returns it without a separate energy evaluation.  One function per
iteration gives the direction d and what the trials u - eta d need of it:
their Dirichlet energy is a quadratic in eta whose coefficients come from
dot products (Ku is the raw gradient plus the nonlinearity it subtracts,
and (K + W) d is the right-hand side of the H1 solve), so no trial, and no
spectral step below, walks the grid for it.  The shift of a trial is found
inside [eta min d, eta max d]: u is feasible and the shift is monotone, so
that interval holds it, and its width is eta osc(d), not osc(u - eta d).
For q > 1 the shift's safeguarded Newton search starts from the
first-order shift eta mu, the implicit-function derivative of the
constraint at u.  The descent direction is the gradient of the energy in
the H1 inner product (stiffness plus mass), which preconditions away the
mesh-dependent stiffness of the plain quadrature-weighted gradient and
gives mesh-independent convergence rates.  Step sizes start from a spectral
(Barzilai-Borwein) trial value taken in that same H1 metric,
s'(K + W)s / s'(g_k - g_{k-1}) with s the last step and g the raw gradient,
and are accepted through Armijo backtracking on the true (nonsmooth for
q = 1) energy values, so the accepted energy trace is monotone by
construction.  Backtracking ends, with stop reason "no-descent-step", once
the predicted decrease eta * <dphi, d> is at roundoff of |phi| (at once
if <dphi, d> is not positive); the other stops are "grad-tol" and max_iter.
A SolveReport stores the stop reason and derives `converged` from it.

The multistart compares its starts coarse to fine (nested iteration:
Brandt, Math. Comp. 1977; Li-Zhou, SIAM J. Sci. Comput. 2001): every start
descends on the coarsest grid of the halving chain geometry.coarsen makes,
and only the winner, prolongated level by level, descends on each finer
grid.  A fine descent from the prolongated winner takes about as many
iterations as one from scratch, so the gain is the losing starts that are
never descended on the fine grids.  SolveReport.levels records each
grid's work.
"""

from __future__ import annotations

import math
import random
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
    seed: int = 0
    starts: int = 8                    # multistart count (dipole always included)

    def __post_init__(self):
        if self.max_iter < 1 or self.starts < 1:
            raise ValueError("invalid solve config: counts must be >= 1")
        if self.seed < 0:
            # random.Random(-s) would repeat the starts of seed s
            raise ValueError("invalid solve config: seed must be >= 0")
        if not (math.isfinite(self.grad_tol) and self.grad_tol > 0):
            raise ValueError("invalid solve config: grad_tol must be finite and > 0")


@dataclass
class SolveReport:
    """Outcome of a minimization run: what the run did.

    levels has one row per grid the run descended on, coarsest first and
    the requested grid last: its resolution, the number of descents run
    there, their summed iterations and the energy of that level's winner.
    u, energy, iterations and energy_trace are the last row's descent.
    near_best lists the starts that multistart compared, within 1e-6 of
    the lowest, lowest first; they were compared on the coarsest level, so
    their energies are that grid's (levels[0]), not the requested grid's.
    """

    u: np.ndarray
    energy: float
    constraint_residual: float
    grad_norm: float
    iterations: int
    energy_trace: list[float]
    seed: int
    q: float
    stop_reason: str
    recipe: str = "dipole"             # start: "dipole", "random", "warm-start" or "given"
    near_best: list[dict] = field(default_factory=list)
    levels: list[dict] = field(default_factory=list)

    @property
    def converged(self) -> bool:
        """True for every stop but "max-iterations-exceeded"."""
        return self.stop_reason != "max-iterations-exceeded"

    @property
    def constraint(self) -> str:
        """"sign-balance" at q = 1, "signed-mean-zero" for q > 1."""
        return "sign-balance" if self.q == 1.0 else "signed-mean-zero"

    def to_dict(self, grid=None) -> dict:
        """JSON-ready summary: every field but the field u, converged and
        constraint, plus the grid's dict; it holds no timing, so reruns with
        identical seeds serialize byte-identically.  A run that accepts no
        step has no gradient norm (inf), written as null."""
        d = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "u"}
        d["converged"], d["constraint"] = self.converged, self.constraint
        if not math.isfinite(self.grad_norm):
            d["grad_norm"] = None
        if grid is not None:
            d.update(grid.to_dict())
        return d


def project(spec: ProblemSpec, u: np.ndarray,
            bracket: tuple[float, float] | None = None,
            guess: float | None = None,
            dirichlet: float | None = None) -> tuple[np.ndarray, float]:
    """Feasible point from an arbitrary field, with its energy.

    Shifts by c(u), found inside `bracket` and from `guess` when they are
    given (see functional.c_shift), then scales v = u + c(u) by the ray
    minimizer t* = (A / D)^{1/(2-q)}, where A = int |v|^q and D is the
    Dirichlet energy of v.  The energy at t* v is then in closed form,
    phi = -(2-q)/(2q) A t*^q = -(2-q)/(2q) A^{2/(2-q)} / D^{q/(2-q)}, so one
    array power serves both.  D does not change under the shift, so a
    caller that knows the Dirichlet energy of u passes it as `dirichlet`
    and no neighbour walk is made.  Constants project to the zero field.
    A scale t* or energy that overflows raises RuntimeError.
    """
    u = np.asarray(u, dtype=float)
    g, q = spec.grid, spec.q
    v = u + functional.c_shift(spec, u, bracket=bracket, guess=guess)
    d = geometry.dirichlet_energy(g, v) if dirichlet is None else dirichlet
    if d <= 0.0:
        return np.zeros_like(v), 0.0
    a = functional.abs_power_integral(spec, v)
    try:
        t = (a / d) ** (1.0 / (2.0 - q))
        return t * v, -(2.0 - q) / (2.0 * q) * a * t ** q
    except OverflowError:
        raise RuntimeError(f"scale-out-of-range: ray scale (A/D)^(1/(2-q)) overflows, "
                           f"A/D = {a / d!r}") from None


def _smooth_noise(spec: ProblemSpec, seed: int) -> np.ndarray:
    """Smoothed white noise of one seed: the H1 solve of the weights times
    one centred uniform draw per node, random() - 1/2 from
    random.Random(seed), whose random() stream Python keeps the same
    across versions."""
    g = spec.grid
    draw = random.Random(seed).random
    raw = np.fromiter((draw() for _ in range(g.n_nodes)), float, g.n_nodes)
    raw -= 0.5
    return g.h1_solve(g.weights * raw)


def _direction(spec: ProblemSpec, u: np.ndarray, a: float):
    """Returns (raw gradient g, H1 gradient d, slope <dphi, d> >= 0, coef,
    mu) at a feasible u with a = int |u|^q: g = W (L_h u - p) as in
    functional.energy_gradient, p = sgn(u)|u|^{q-1}; coef = (D(u), <Ku, d>,
    D(d)), K the Dirichlet form, so that D(u - eta d) =
    _dirichlet_along(coef, 1, eta) from dot products alone; and mu, the
    trial's shift to first order in eta, or None where it is undefined.

    The mean m = sum g / sum w is split off before the solve and not added
    back to d: (K + W)^{-1} m w = m is a constant, which the projection's
    shift absorbs.  The slope keeps its share, m sum g.
    D(d) = <rhs, d> - <d, d>_w, rhs = g - m w the right-hand side solved,
    holds up to <d, r>, r the solve's residual, which is small because d
    is smooth; a large m, such as -int sgn(u) / |Omega| at q = 1 on a small
    domain, would bury the variation of d in its rounding and break it.
    Ku = g + W p, so D(u) = <g, u> + a: the walked D(u) enters through g,
    so the rounding of one step's closed form does not carry into the
    next, as it would with D(u) = a, which holds at the ray optimum.
    <Ku, d> = <g, d> + <p, d>_w; taken instead from the H1 solve as
    <u, rhs> - <u, d>_w it carries <u, r>, which reached 1e-11 relative on
    a 1024-node interval (u has a kink at its nodal set).
    mu = int |u|^{q-2} d / int |u|^{q-2} (q > 1), the implicit-function
    derivative of the constraint at u; undefined where u has zeros.
    """
    g = spec.grid
    p = functional.signed_power(u, spec.q - 1.0)
    euclid = geometry.laplacian(g, u)    # raw partial derivatives W (L_h u - p)
    euclid -= p
    euclid *= g.weights
    total = float(np.sum(euclid))
    mean = total / float(np.sum(g.weights))
    rhs = g.weights * -mean
    rhs += euclid
    d = g.h1_solve(rhs)
    wd = g.weights * d
    ed = float(np.dot(euclid, d))
    coef = (float(np.dot(euclid, u)) + a, ed + float(np.dot(p, wd)),
            float(np.dot(rhs, d)) - float(np.dot(wd, d)))
    slope = ed + mean * total
    if spec.q == 1.0:
        return euclid, d, slope, coef, None
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        r = np.divide(p, u, out=p)       # |u|^{q-2}: NaN at zeros, inf at subnormals
    mu = float(np.dot(r, wd)) / float(np.dot(r, g.weights))
    return euclid, d, slope, coef, mu if math.isfinite(mu) else None


def _dirichlet_along(coef: tuple[float, float, float], a: float, b: float) -> float:
    """D(a u - b d) from coef = (D(u), <Ku, d>, D(d))."""
    du, kud, dd = coef
    return a * a * du - 2.0 * a * b * kud + b * b * dd


def minimize_energy(spec: ProblemSpec, config: SolveConfig, u0=None) -> SolveReport:
    """Projected descent from one start.

    Iterates u_{k+1} = project(u_k - eta_k d_k) with d_k the H1 energy
    gradient and eta_k from Armijo backtracking:
    phi(u_{k+1}) <= phi(u_k) - 1e-4 * eta_k * |dphi(u_k)|^2.  Stops when
    the projected-gradient norm (quadrature-weighted) drops below grad_tol
    ("grad-tol"), when no step passes Armijo before
    eta_k |dphi(u_k)|^2 <= 4 eps |phi| ("no-descent-step"), or at max_iter
    ("max-iterations-exceeded", the one stop SolveReport.converged counts
    as not converged).  Starts from u0, or from the dipole x1 when u0 is
    None.  A constant u0 has no sign-changing projection and raises
    ValueError; a projected start whose energy is 0 has underflowed: it
    raises RuntimeError, as does a non-finite one.
    """
    g = spec.grid
    recipe = "dipole" if u0 is None else "given"
    u = g.x1.copy() if u0 is None else np.asarray(u0, dtype=float)
    del u0                               # the projected start replaces it
    if float(np.max(u) - np.min(u)) == 0.0:
        raise ValueError("constant-start: a constant u0 has no sign-changing projection")
    u, phi = project(spec, u)
    if not -math.inf < phi < 0.0:
        raise RuntimeError(f"scale-out-of-range: projected start energy {phi!r}")
    trace = [phi]
    eta = _STEP0
    grad_norm = float("inf")
    reason = "max-iterations-exceeded"
    # the last step s = u_k - u_{k-1}, its s'(K + W)s and g_{k-1}
    s = s_h1 = prev_grad = None
    # a projected field sits at its ray optimum, where D = int |u|^q = nehari * phi
    nehari = -2.0 * spec.q / (2.0 - spec.q)

    for it in range(1, config.max_iter + 1):
        euclid, d, slope, coef, mu = _direction(spec, u, nehari * phi)
        # spectral (Barzilai-Borwein) trial step in the H1 metric of d:
        # eta = s'(K + W)s / s'(g_k - g_{k-1}) with s = u_k - u_{k-1} and g
        # the raw gradient, safeguarded by the Armijo loop below so the
        # energy trace stays monotone
        sy = 0.0 if s is None else float(np.dot(s, euclid - prev_grad))
        eta = s_h1 / sy if sy > 0.0 else eta / _BACKTRACK
        eta = min(max(eta, 1e-6 * _STEP0), 1e6 * _STEP0)
        prev_grad = euclid
        # the Dirichlet energy along u - eta d is quadratic in eta; u is
        # feasible and the shift is monotone, so the shift of u - eta d lies
        # in [eta min d, eta max d], and to first order at eta mu
        dmin, dmax = float(np.min(d)), float(np.max(d))
        # halve until Armijo holds or the predicted decrease is at roundoff;
        # no absolute floor: phi < 0; a slope not positive and finite stops it
        while eta * slope > _ROUNDOFF * abs(phi):
            dv = _dirichlet_along(coef, 1.0, eta)
            trial, phi_t = project(spec, u - eta * d, (eta * dmin, eta * dmax),
                                   None if mu is None else eta * mu, dv)
            if phi_t <= phi - _ARMIJO * eta * slope:
                break
            eta *= _BACKTRACK
        else:
            reason = "no-descent-step"
            break
        s = trial - u
        ws = float(np.dot(g.weights, s * s))
        grad_norm = math.sqrt(ws) / eta
        # trial = t (u - eta d) up to a constant, where project scaled the
        # Dirichlet energy dv by t^2
        t = math.sqrt(nehari * phi_t / dv)
        s_h1 = _dirichlet_along(coef, t - 1.0, t * eta) + ws
        u, phi = trial, phi_t
        trace.append(phi)
        if grad_norm <= config.grad_tol:
            reason = "grad-tol"
            break

    check = functional.in_constraint(spec, u)
    return SolveReport(
        u=u, energy=phi, constraint_residual=check.residual,
        grad_norm=grad_norm, iterations=it, energy_trace=trace,
        seed=config.seed, q=spec.q, stop_reason=reason,
        recipe=recipe,
        levels=[{"resolution": g.resolution, "descents": 1, "iterations": it,
                 "energy": phi}],
    )


def _run_start(spec: ProblemSpec, config: SolveConfig, idx: int) -> SolveReport:
    # start 0 is the dipole; later starts draw smooth noise from independent
    # deterministic streams
    sub = replace(config, seed=config.seed + 7919 * idx)
    if idx == 0:
        return minimize_energy(spec, sub)
    rep = minimize_energy(spec, sub, u0=_smooth_noise(spec, sub.seed))
    rep.recipe = "random"
    return rep


def multistart(spec: ProblemSpec, config: SolveConfig) -> SolveReport:
    """Run config.starts descents (the dipole recipe first, then seeded
    random starts) and return the lowest-energy one, coarse to fine;
    deterministic for a fixed seed.

    With more than one start, the starts run on the coarsest grid of the
    chain geometry.coarsen makes from spec.grid, and only the winner goes
    on: on each finer grid up to spec.grid, one descent from the last
    winner prolongated (nested iteration: Brandt, Math. Comp. 1977).  The
    report keeps the winning start's seed and recipe, near_best lists the
    coarsest level's comparison, and levels the work of every grid.  With
    one start there is nothing to choose: one descent on spec.grid.
    """
    k = config.starts
    grids = [spec.grid]                 # finest first
    while k > 1 and (coarse := geometry.coarsen(grids[-1])) is not None:
        grids.append(coarse)
    grid = grids.pop()
    level = ProblemSpec(grid, spec.q)
    reports = [_run_start(level, config, i) for i in range(k)]
    order = sorted(range(k), key=lambda i: (reports[i].energy, i))
    best = reports[order[0]]
    near_best = [
        {"start": i, "recipe": reports[i].recipe, "seed": reports[i].seed,
         "energy": reports[i].energy}
        for i in order if reports[i].energy <= best.energy + 1e-6
    ]
    levels = [{"resolution": grid.resolution, "descents": k,
               "iterations": sum(r.iterations for r in reports), "energy": best.energy}]
    seed, recipe = best.seed, best.recipe
    # one level is live at a time: the losing starts go here, and on each
    # finer grid the prolongated winner replaces the coarser grid, with its
    # solver, and the coarser winner
    del reports, level
    while grids:
        fine = grids.pop()
        u0, grid, best = geometry.prolong(grid, fine, best.u), fine, None
        best = minimize_energy(ProblemSpec(grid, spec.q), replace(config, seed=seed), u0=u0)
        best.recipe = recipe
        levels += best.levels
    best.near_best, best.levels = near_best, levels
    return best


def continuation_sweep(grid, q_list, config: SolveConfig) -> list[SolveReport]:
    """Solve a descending list of exponents, warm-starting each run from the
    previous minimizer re-projected under the new constraint.  The first
    exponent is solved by multistart.  Where a q = 1 run is warm-started
    from a q > 1 minimizer, the constraint switches from the signed mean to
    the sign balance: that rung's report has recipe "warm-start" and
    constraint "sign-balance", and the previous rung's q is above 1."""
    specs = [ProblemSpec(grid, q) for q in q_list]
    if not specs:
        raise ValueError("continuation needs at least one exponent")
    qs = [spec.q for spec in specs]
    if sorted(qs, reverse=True) != qs:
        raise ValueError("continuation exponents must be sorted descending")
    reports = []
    prev = None
    for spec in specs:
        if prev is None:
            rep = multistart(spec, config)
        else:
            rep = minimize_energy(spec, config, u0=prev)
            rep.recipe = "warm-start"
        reports.append(rep)
        prev = rep.u
    return reports
