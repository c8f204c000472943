"""The constrained variational problem: energy, subgradient, scalar
projections, constraint membership, second-derivative form and bump
rescaling.

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
]


@dataclass(frozen=True)
class ProblemSpec:
    """Exponent and discretized domain.  q = 1 switches the nonlinearity to
    sgn(u) and the constraint to the sign-balance bracket; the code tests
    spec.q == 1.0 for it."""

    grid: Grid
    q: float

    def __post_init__(self):
        if not 1.0 <= self.q < 2.0:
            raise ValueError(f"q-out-of-range: need 1 <= q < 2, got {self.q}")
        object.__setattr__(self, "q", float(self.q))


def signed_power(u: np.ndarray, p: float) -> np.ndarray:
    """sgn(u) |u|^p with the convention 0 -> 0 (p = 0 gives sgn with
    sgn(0) = 0, the subgradient selection used throughout)."""
    if p == 0.0:
        return np.sign(u)
    r = np.abs(u, dtype=float)
    r **= p
    return np.copysign(r, u, out=r)


def abs_power_integral(spec: ProblemSpec, u: np.ndarray) -> float:
    """integrate(|u|^q); at q = 1 integrate(|u|), with no power taken."""
    r = np.abs(u, dtype=float)
    if spec.q != 1.0:
        np.power(r, spec.q, out=r)
    return geometry.integrate(spec.grid, r)


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
        raise ValueError("constant-field: t* needs dirichlet_energy(u) > 0")
    return (abs_power_integral(spec, u) / d) ** (1.0 / (2.0 - spec.q))


# -- feasible shift ----------------------------------------------------------

# bisection passes of _median_window: on a 128 x 256 disc they leave the
# q = 1 shift about 500 of 32768 nodes to sort
_MEDIAN_PASSES = 8


def _signed_mean(grid: Grid, u: np.ndarray, q: float, c: float) -> float:
    return float(np.dot(grid.weights, signed_power(u + c, q - 1.0)))


def _weighted_median_shift(grid: Grid, u: np.ndarray, lo: float, hi: float) -> float | None:
    """Negative weighted median of u in [lo, hi]; on a discrete median
    interval the midpoint is returned.  Only the nodes with -hi <= u <= -lo
    and the nearest node on each side are sorted (all of u for
    [-max u, -min u]), the weight below them starting the cumulative sum.
    None unless the half mass falls strictly inside them, tie tolerance
    included, and a candidate passes the exact sign-balance test.
    """
    w = grid.weights
    total = float(np.sum(w))
    half = 0.5 * total
    # tie tolerance: covers cumsum rounding; false positives are filtered by
    # the membership check below, which uses far more accurate pairwise sums
    tie = (4.0 * len(u) * np.finfo(float).eps + 1e-13) * total
    a = np.max(u, where=u < -hi, initial=-np.inf)
    b = np.min(u, where=u > -lo, initial=np.inf)
    near = np.flatnonzero((u >= a) & (u <= b))
    order = near[np.argsort(u[near], kind="stable")]
    below = float(np.sum(w, where=u < a))
    vals = u[order]
    cum = np.cumsum(np.concatenate(([below], w[order])))[1:]
    if not (below < half - tie and cum[-1] > half + tie):
        return None
    k = int(np.searchsorted(cum, half))
    # a tie at k - 1 is a cum[k - 1] that rounding left just below half
    candidates = [0.5 * (vals[j] + vals[j + 1]) for j in (k - 1, k)
                  if 0 <= j < len(vals) - 1 and abs(cum[j] - half) <= tie]
    candidates.append(vals[min(k, len(vals) - 1)])
    for m in candidates:
        if _sign_balance(grid, u - m)[0]:
            return -float(m)
    return None


def _median_window(grid: Grid, u: np.ndarray, lo: float, hi: float) -> tuple[float, float]:
    """[lo, hi] narrowed around the negative weighted median of u by
    _MEDIAN_PASSES bisections of the value range [-hi, -lo]: each keeps the
    half above its midpoint m where the weight of u <= m is below half the
    total, else the half below.  A sum rounded to the wrong side of half
    leaves a range that misses; _weighted_median_shift returns None on it."""
    w = grid.weights
    half = 0.5 * float(np.sum(w))
    a, b = -hi, -lo
    for _ in range(_MEDIAN_PASSES):
        m = 0.5 * (a + b)
        if float(np.sum(w, where=u <= m)) < half:
            a = m
        else:
            b = m
    return -b, -a


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


def c_shift(spec: ProblemSpec, u: np.ndarray,
            bracket: tuple[float, float] | None = None,
            guess: float | None = None) -> float:
    """The unique constant c making u + c feasible.

    q > 1: root of the strictly increasing map F: c -> int |u+c|^{q-2}(u+c)
    in [-max u, -min u], or in `bracket`, by one safeguarded Newton search
    (after rtsafe, Numerical Recipes 9.4) from `guess`, or from 0.  Each
    evaluation narrows the bracket by the sign of F and proposes c - F/F',
    F' = (q-1) int |u+c|^{q-2} (zero nodes left out) from the evaluation's
    own power array.  F has unbounded slope near node zeros, so a Newton
    point outside the open bracket, or more than half the last step away,
    gives way to the Illinois point (regula falsi, halving the value at an
    end that stays put twice in a row), or to the midpoint while an end is
    unevaluated.  The first point with residual |F| below 1e-13 |Omega| is
    returned; failing that, after 200 steps or once the bracket ends are
    adjacent doubles, the evaluated end with the smaller residual (lo if
    neither was) is, with a RuntimeWarning if that residual is above
    1e-10 max(|Omega|, int |u+c|^{q-1}).
    q = 1: negative weighted median, found and verified as in
    _weighted_median_shift.  Without a bracket the nodes it sorts are
    first narrowed by _median_window, and all of u is sorted only where
    that range misses; a RuntimeError if no candidate from all of u
    passes.  `guess` is not used.

    bracket: an interval (lo, hi) proven to hold c, such as
    [eta min d, eta max d] for u = v - eta d with v feasible.  One on which
    F keeps one sign leaves an end unevaluated, and one that misses the
    median leaves it unverified; the result is then taken without it.
    guess: a first estimate of c, such as the first-order shift eta mu of
    such a trial (see minimize.minimize_energy).
    Without a bracket, a field with a non-finite node raises ValueError.
    """
    u = np.asarray(u, dtype=float)
    g = spec.grid
    q = spec.q
    if bracket is None:
        lo, hi = -float(np.max(u)), -float(np.min(u))
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("non-finite field: c_shift needs finite node values")
    else:
        lo, hi = bracket
    if spec.q == 1.0:
        if bracket is not None:
            c = _weighted_median_shift(g, u, lo, hi)
            return c if c is not None else c_shift(spec, u)   # the bracket missed
        for window in (_median_window(g, u, lo, hi), (lo, hi)):
            c = _weighted_median_shift(g, u, *window)
            if c is not None:
                return c
        raise RuntimeError("unbalanced-median: no candidate passes the sign balance")
    # stop once the residual sits three decades under the warning tolerance
    early = 1e-13 * g.domain.measure
    # c is the next point and last the one evaluated before; while there
    # is none, the NaN step lets the first Newton point pass on the bracket
    c, last, step = (0.0 if guess is None else guess), math.nan, math.nan
    flo = fhi = None                    # F at the ends, once evaluated
    glo = ghi = 0.0                     # the values Illinois uses
    side = 0                            # -1 or 1: the end the last point moved
    for _ in range(200):
        if not lo < c < hi or abs(c - last) > 0.5 * step:
            c = (0.5 * (lo + hi) if flo is None or fhi is None
                 else hi - ghi * (hi - lo) / (ghi - glo))
            if not lo < c < hi:
                c = 0.5 * (lo + hi)
                if not lo < c < hi:
                    break               # lo and hi are adjacent doubles
        step, last = abs(c - last), c
        v = u + c
        p = signed_power(v, q - 1.0)
        fc = float(np.dot(g.weights, p))
        if abs(fc) <= early:
            return c
        if fc < 0.0:
            ghi *= 0.5 if side < 0 else 1.0
            lo, flo, glo, side = c, fc, fc, -1
        else:
            glo *= 0.5 if side > 0 else 1.0
            hi, fhi, ghi, side = c, fc, fc, 1
        with np.errstate(over="ignore"):     # |v|^{q-2} of a subnormal v
            dfc = (q - 1.0) * float(np.dot(g.weights, np.divide(p, v, out=v, where=p != 0.0)))
        # c is now an end of the bracket: a step that rounds to 0 falls back
        c = c - fc / dfc if dfc > 0.0 else math.nan
    ends = [(abs(f), e) for e, f in ((lo, flo), (hi, fhi)) if f is not None]
    if len(ends) < 2 and bracket is not None:
        return c_shift(spec, u)             # F kept one sign on the bracket
    fc, c = min(ends or [(abs(_signed_mean(g, u, q, lo)), lo)])
    if fc > 1e-10 * max(g.domain.measure,
                        float(np.dot(g.weights, np.abs(u + c) ** (q - 1.0)))):
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
    if spec.q == 1.0:
        return ConstraintCheck(*_sign_balance(g, u))
    residual = abs(_signed_mean(g, u, spec.q, 0.0))
    scale = float(np.dot(g.weights, np.abs(u) ** (spec.q - 1.0)))
    return ConstraintCheck(residual <= 1e-8 * max(scale, 1e-300), residual)


def max_shift_property_check(spec: ProblemSpec, u: np.ndarray, c_samples) -> bool:
    """True iff phi(u) >= phi(u+c) - 1e-12 for every sampled shift c.
    Requires u to be already shifted (|c_shift(u)| below 1e-8 max(1, max|u|))."""
    u = np.asarray(u, dtype=float)
    scale = max(1.0, float(np.max(np.abs(u))) if u.size else 1.0)
    if abs(c_shift(spec, u)) > 1e-8 * scale:
        raise ValueError("unshifted-input: c_shift(u) is not zero")
    base = energy(spec, u)
    slack = 1e-12 * max(1.0, abs(base))
    return all(base >= energy(spec, u + float(c)) - slack for c in c_samples)


def hessian_form(spec: ProblemSpec, u: np.ndarray, v: np.ndarray,
                 w: np.ndarray) -> float:
    """Second derivative of phi at u along (v, w) for 1 < q < 2:

        int grad v . grad w  -  (q-1) int |u|^{q-2} v w

    Nodes with |u_i| <= 1e-12 max(1, max|u|) count as zeros and contribute
    nothing to the second sum.  When u has zeros where the reconstructed
    gradient vanishes (so the form's classical domain is left), a
    RuntimeWarning is emitted and the value is still returned.
    """
    if spec.q == 1.0:
        raise ValueError("q-out-of-range: the second-derivative form needs q > 1")
    g = spec.grid
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    scale = float(np.max(np.abs(u))) if u.size else 0.0
    zero = np.abs(u) <= 1e-12 * max(scale, 1.0)
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
    if g.kind != "disc" or abs(g.domain.size[0] - 1.0) > 1e-12:
        raise ValueError("wrong-domain-kind: rescale_bump needs the unit-disc grid")
    v = np.asarray(v, dtype=float)
    if v.shape != (g.n_nodes,):
        raise ValueError("size mismatch: v must live on the unit-disc grid")
    if not 0.0 < r <= 1.0:
        raise ValueError(f"r-out-of-range: need 0 < r <= 1, got {r}")
    cx, cy = float(center[0]), float(center[1])
    if math.hypot(cx, cy) + r > g.domain.size[0] + 1e-12:
        raise ValueError("ball-not-contained: B_r(center) must lie in the disc")
    nr, ntheta = g.shape
    outer = v.reshape(nr, ntheta)[-1]
    if np.max(np.abs(outer)) > 0.0:
        raise ValueError("v must vanish near the unit-disc boundary")

    x, y = g.coords.T
    dx, dy = x - cx, y - cy
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
        dtheta = 2.0 * math.pi / ntheta
        ksrc = np.floor(theta / dtheta + 0.5 - 1e-9).astype(int) % ntheta
        amp = r ** (2.0 / (2.0 - spec.q))
        out[inside] = amp * v.reshape(nr, ntheta)[jsrc, ksrc]
    return out

