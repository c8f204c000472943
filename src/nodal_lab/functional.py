"""The constrained variational problem: energy, subgradient, scalar
projections, constraint membership, second-derivative form, bump rescaling
and the porous-medium change of variables.

The energy is  phi(u) = 1/2 int |grad u|^2 - (1/q) int |u|^q  with exponent
1 <= q < 2.  For q > 1 the constraint set is the zero set of the signed-mean
functional  u -> int |u|^{q-2} u; for q = 1 it is the sign-balance bracket
int sgn_-(u) <= 0 <= int sgn_+(u), and the feasible shift is a weighted
median instead of a monotone root.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import geometry
from .geometry import Grid

__all__ = [
    "ProblemSpec", "ConstraintCheck", "abs_power_integral", "energy",
    "energy_gradient", "signed_power", "t_star", "c_shift", "in_constraint",
    "max_shift_property_check", "hessian_form", "rescale_bump",
    "to_porous_medium",
]


@dataclass(frozen=True)
class ProblemSpec:
    """Exponent and discretized domain.  q = 1 switches the nonlinearity to
    sgn(u) and the constraint to the sign-balance bracket."""

    grid: Grid
    q: float

    def __post_init__(self):
        if not 1.0 <= self.q < 2.0:
            raise ValueError(f"q-out-of-range: need 1 <= q < 2, got {self.q}")

    @property
    def sublinear_q1(self) -> bool:
        return self.q == 1.0


def signed_power(u: np.ndarray, p: float) -> np.ndarray:
    """sgn(u) |u|^p with the convention 0 -> 0 (p = 0 gives sgn with
    sgn(0) = 0, the subgradient selection used throughout)."""
    if p == 0.0:
        return np.sign(u)
    return np.copysign(np.abs(u) ** p, u)


def abs_power_integral(spec: ProblemSpec, u: np.ndarray) -> float:
    """integrate(|u|^q), with |u| itself at q = 1."""
    return geometry.integrate(spec.grid, np.abs(u) if spec.sublinear_q1
                              else np.abs(u) ** spec.q)


def energy(spec: ProblemSpec, u: np.ndarray) -> float:
    """phi(u) = 1/2 dirichlet_energy(u) - (1/q) integrate(|u|^q)."""
    return (0.5 * geometry.dirichlet_energy(spec.grid, u)
            - abs_power_integral(spec, u) / spec.q)


def energy_gradient(spec: ProblemSpec, u: np.ndarray) -> np.ndarray:
    """Gradient of phi in the quadrature-weighted inner product:
    node i gets (L_h u)_i - |u_i|^{q-2} u_i, so that the directional
    derivative of phi along v equals integrate(grad * v).  At u_i = 0 the
    nonlinearity contributes 0 (admissible subgradient selection)."""
    g = spec.grid
    return geometry.laplacian(g, u) - signed_power(np.asarray(u, float), spec.q - 1.0)


def t_star(spec: ProblemSpec, u: np.ndarray) -> float:
    """The unique positive multiplier minimizing t -> phi(t u):
    t* = (int |u|^q / int |grad u|^2)^(1/(2-q))."""
    g = spec.grid
    d = geometry.dirichlet_energy(g, u)
    if d <= 0.0:
        raise ValueError("zero-gradient-field: t* needs dirichlet_energy(u) > 0")
    return (abs_power_integral(spec, u) / d) ** (1.0 / (2.0 - spec.q))


# -- feasible shift ----------------------------------------------------------

def _signed_mean(grid: Grid, u: np.ndarray, q: float, c: float) -> float:
    return float(np.dot(grid.weights, signed_power(u + c, q - 1.0)))


def _weighted_median_shift(grid: Grid, u: np.ndarray) -> float:
    """Negative weighted median of u; on a discrete median interval the
    midpoint is returned, and the result is verified against the exact
    sign-balance membership test (falling back to the atom median when the
    apparent tie is a rounding artifact)."""
    order = np.argsort(u, kind="stable")
    vals = u[order]
    wts = grid.weights[order]
    cum = np.cumsum(wts)
    total = cum[-1]
    half = 0.5 * total
    k = int(np.searchsorted(cum, half))
    # tie tolerance: covers cumsum rounding; false positives are filtered by
    # the membership check below, which uses far more accurate pairwise sums
    tie = (4.0 * len(vals) * np.finfo(float).eps + 1e-13) * total
    candidates = []
    if k + 1 < len(vals) and abs(cum[k] - half) <= tie:
        candidates.append(0.5 * (vals[k] + vals[k + 1]))
    candidates.append(vals[min(k, len(vals) - 1)])
    for m in candidates:
        if _sign_balance(grid, u - m)[0]:
            return -float(m)
    # adjacent atoms guard against an off-by-one from inexact cumsum
    for kk in (k - 1, k + 1):
        if 0 <= kk < len(vals) and _sign_balance(grid, u - vals[kk])[0]:
            return -float(vals[kk])
    return -float(vals[min(k, len(vals) - 1)])


def _sign_balance(grid: Grid, v: np.ndarray) -> tuple[bool, float]:
    """Whether v meets the q = 1 bracket int sgn_-(v) <= 0 <= int sgn_+(v),
    up to a 1e-12 |Omega| float-summation allowance, and its residual
    max(0, int sgn_-(v), -int sgn_+(v))."""
    # sgn_-(t) = 1_{t>0} - 1_{t<=0},  sgn_+(t) = 1_{t>=0} - 1_{t<0}
    w = grid.weights
    s_minus = float(np.sum(np.where(v > 0, w, -w)))
    s_plus = float(np.sum(np.where(v >= 0, w, -w)))
    tol = 1e-12 * grid.domain.measure
    return s_minus <= tol and s_plus >= -tol, max(0.0, s_minus, -s_plus)


def _geometric_point(lo: float, hi: float) -> float | None:
    """0 for a bracket around 0; else, unless its ends are within a factor
    2, their geometric mean, with an end at 0 read as the least double."""
    if lo < 0.0 < hi:
        return 0.0
    a, b = (lo, hi) if hi > 0.0 else (-hi, -lo)
    if b <= 2.0 * a:
        return None
    c = math.sqrt(max(a, 5e-324)) * math.sqrt(b)     # a * b could underflow
    return c if hi > 0.0 else -c


def c_shift(spec: ProblemSpec, u: np.ndarray, tol: float = 1e-10) -> float:
    """The unique constant c making u + c feasible.

    q > 1: root of the strictly increasing map c -> int |u+c|^{q-2}(u+c),
    bracketed by [-max u, -min u] and solved by Illinois regula falsi
    (secant steps on the sign-change bracket, halving the value kept at a
    stale endpoint; Newton is not safe here because the integrand has
    unbounded slope near node zeros).  A secant point outside the open
    bracket falls back to the bracket midpoint.  Once the bracket has
    straddled 0 for 8 steps in a row, it is cut at 0 and then at the
    geometric mean of its ends until they are within a factor 2: a plateau
    of exact zeros at q near 1 puts the root 1e-52 to 1e-135 from 0, out of
    reach of steps that at best halve the bracket.  The first point with
    residual below 1e-3 tol |Omega| is returned; failing that, after 200
    steps or once the bracket ends are adjacent doubles, the end with the
    smaller residual is, with a RuntimeWarning if that is above tolerance.
    q = 1: negative weighted median, median-interval midpoints resolved as
    in _weighted_median_shift.
    """
    u = np.asarray(u, dtype=float)
    g = spec.grid
    if spec.sublinear_q1:
        return _weighted_median_shift(g, u)
    lo, hi = -float(np.max(u)), -float(np.min(u))
    if lo == hi:
        return lo
    flo = _signed_mean(g, u, spec.q, lo)
    if flo == 0.0:
        return lo
    fhi = _signed_mean(g, u, spec.q, hi)
    if fhi == 0.0:
        return hi
    # F(lo) < 0 < F(hi); keep the sign-change bracket.  Stop early once the
    # residual sits three decades under the target tolerance.  glo and ghi
    # are the endpoint values the secant uses: Illinois halves the one at an
    # endpoint that stays put for a second step in a row.
    early = 1e-3 * tol * g.domain.measure
    glo, ghi, side = flo, fhi, 0
    straddled, geometric = 0, False
    for _ in range(200):
        # Illinois left 0 inside the bracket for at most 5 steps in a row
        # on the descents of the benchmark's grid solves
        straddled = straddled + 1 if lo < 0.0 < hi else 0
        geometric = geometric or straddled > 8
        c = _geometric_point(lo, hi) if geometric else None
        if c is None:
            c = hi - ghi * (hi - lo) / (ghi - glo)
        if not lo < c < hi:
            c = 0.5 * (lo + hi)
            if not lo < c < hi:
                break                   # lo and hi are adjacent doubles
        fc = _signed_mean(g, u, spec.q, c)
        if abs(fc) <= early:
            return c
        if fc < 0.0:
            lo, flo, glo = c, fc, fc
            if side < 0:
                ghi *= 0.5
            side = -1
        else:
            hi, fhi, ghi = c, fc, fc
            if side > 0:
                glo *= 0.5
            side = 1
    c, fc = (lo, flo) if -flo <= fhi else (hi, fhi)
    if abs(fc) > tol * max(g.domain.measure,
                           float(np.dot(g.weights, np.abs(u + c) ** (spec.q - 1.0)))):
        warnings.warn("c_shift residual above tolerance", RuntimeWarning)
    return c


@dataclass(frozen=True)
class ConstraintCheck:
    member: bool
    residual: float


def in_constraint(spec: ProblemSpec, u: np.ndarray) -> ConstraintCheck:
    """Constraint membership with a scalar residual.

    q > 1: residual |int |u|^{q-2} u|, member when it is below 1e-8 times
    the field scale int |u|^{q-1} (zero fields are members).
    q = 1: the sign-balance bracket and its residual (see _sign_balance).
    """
    u = np.asarray(u, dtype=float)
    g = spec.grid
    if spec.sublinear_q1:
        return ConstraintCheck(*_sign_balance(g, u))
    residual = abs(_signed_mean(g, u, spec.q, 0.0))
    scale = float(np.dot(g.weights, np.abs(u) ** (spec.q - 1.0)))
    return ConstraintCheck(residual <= 1e-8 * max(scale, 1e-300), residual)


def max_shift_property_check(spec: ProblemSpec, u: np.ndarray, c_samples,
                             shift_tol: float = 1e-8) -> bool:
    """True iff phi(u) >= phi(u+c) - 1e-12 for every sampled shift c.
    Requires u to be already shifted (|c_shift(u)| below shift_tol)."""
    u = np.asarray(u, dtype=float)
    scale = max(1.0, float(np.max(np.abs(u))) if u.size else 1.0)
    if abs(c_shift(spec, u)) > shift_tol * scale:
        raise ValueError("unshifted-input: c_shift(u) is not zero")
    base = energy(spec, u)
    slack = 1e-12 * max(1.0, abs(base))
    return all(base >= energy(spec, u + float(c)) - slack for c in c_samples)


def hessian_form(spec: ProblemSpec, u: np.ndarray, v: np.ndarray,
                 w: np.ndarray, zero_floor: float = 1e-12) -> float:
    """Second derivative of phi at u along (v, w) for 1 < q < 2:

        int grad v . grad w  -  (q-1) int |u|^{q-2} v w

    Nodes with u_i = 0 contribute nothing to the second sum.  When u has
    zeros where the reconstructed gradient vanishes (so the form's classical
    domain is left), a RuntimeWarning is emitted and the value is still
    returned.
    """
    if spec.sublinear_q1:
        raise ValueError("q-out-of-range: the second-derivative form needs q > 1")
    g = spec.grid
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    scale = float(np.max(np.abs(u))) if u.size else 0.0
    zero = np.abs(u) <= zero_floor * max(scale, 1.0)
    if zero.any():
        gm = geometry.gradient_magnitude(g, u)
        if float(np.min(gm[zero])) <= 1e-8:
            warnings.warn("field leaves the regular set: zero node with "
                          "vanishing gradient", RuntimeWarning)
    weight = np.zeros_like(u)
    nz = ~zero
    weight[nz] = np.abs(u[nz]) ** (spec.q - 2.0)
    second = float(np.dot(g.weights, weight * v * w))
    return geometry.edge_form(g, v, w) - (spec.q - 1.0) * second


def rescale_bump(spec: ProblemSpec, v: np.ndarray, r: float,
                 center=(0.0, 0.0)) -> np.ndarray:
    """Concentrated copy of a compactly supported field:
    r^{2/(2-q)} v((x - center)/r) inside the ball of radius r, 0 outside
    (nearest-node sampling of v, no interpolation).

    v must live on a unit-disc grid and vanish near its boundary; the ball
    must be contained in the domain.
    """
    g = spec.grid
    if g.kind != "disc" or abs(g.domain.radius - 1.0) > 1e-12:
        raise ValueError("wrong-domain-kind: rescale_bump needs the unit-disc grid")
    v = np.asarray(v, dtype=float)
    if v.shape != (g.n_nodes,):
        raise ValueError("size mismatch: v must live on the unit-disc grid")
    if not 0.0 < r <= 1.0:
        raise ValueError(f"r-out-of-range: need 0 < r <= 1, got {r}")
    cx, cy = float(center[0]), float(center[1])
    if math.hypot(cx, cy) + r > g.domain.radius + 1e-12:
        raise ValueError("ball-not-contained: B_r(center) must lie in the disc")
    nr, ntheta = g.shape
    outer = v.reshape(nr, ntheta)[-1]
    if np.max(np.abs(outer)) > 0.0:
        raise ValueError("v must vanish near the unit-disc boundary")

    dx = g.coords[:, 0] - cx
    dy = g.coords[:, 1] - cy
    rho = np.hypot(dx, dy) / r
    inside = rho < 1.0
    out = np.zeros(g.n_nodes)
    if inside.any():
        dr = 1.0 / (nr - 0.5)
        # nearest node with ties broken half-down: plain rounding flips on
        # float noise when stretched radii land exactly between rings, which
        # would inject O(1) slope noise into the rescaled field
        jsrc = np.clip(np.floor(rho[inside] / dr - 1e-9).astype(int), 0, nr - 1)
        theta = np.arctan2(dy[inside], dx[inside])
        dtheta = g.polar["dtheta"]
        ksrc = np.floor(theta / dtheta + 0.5 - 1e-9).astype(int) % ntheta
        amp = r ** (2.0 / (2.0 - spec.q))
        out[inside] = amp * v.reshape(nr, ntheta)[jsrc, ksrc]
    return out


def to_porous_medium(spec: ProblemSpec, u: np.ndarray) -> np.ndarray:
    """Change of variables v = sgn(u) |u|^{q-1} mapping the semilinear
    problem to the stationary porous-medium form (q > 1 only)."""
    if spec.sublinear_q1:
        raise ValueError("q-out-of-range: the change of variables needs q > 1")
    return signed_power(np.asarray(u, dtype=float), spec.q - 1.0)
