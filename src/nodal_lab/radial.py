"""Radial two-point problems for general dimension N: the singular ODE

    u'' + (N-1)/r u' + |u|^{q-2} u = 0  on (0, 1],   u'(0) = u'(1) = 0,

its closed-form q = 1 solutions with two nodal domains, the change of
variables to a coefficient equation on [1, infinity), radial energies, test
function upper bounds and the dimension-dependent inequality chain.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import write_table

__all__ = [
    "RadialProfile", "ChainReport", "unit_ball_volume",
    "nodal_radius_q1", "closed_form_q1", "shoot", "shoot_neumann",
    "radial_residual", "liouville_transform", "liouville_residual",
    "profile_energy", "m_radial", "test_function_bound",
    "check_inequality_chain", "h_energy_monotone", "write_profile_csv", "H3",
]

_R_START = 1e-8          # inner cutoff bypassing the 1/r singularity
_N_SAMPLES = 4096        # uniform samples of a shot profile, plus crossings
_MAX_SEGMENTS = 256      # sign-change cap of one shot

# h(3) = (5 * 2^(1/3) - 7)/3 in closed form, the value the bounds report
H3 = (5.0 * 2.0 ** (1.0 / 3.0) - 7.0) / 3.0


@dataclass
class RadialProfile:
    """Radial samples of u and u' on (0, 1], with the spatial dimension."""

    n_dim: int
    q: float
    r: np.ndarray
    u: np.ndarray
    du: np.ndarray

    def __post_init__(self):
        self.r = np.asarray(self.r, dtype=float)
        self.u = np.asarray(self.u, dtype=float)
        self.du = np.asarray(self.du, dtype=float)
        if self.n_dim < 2:
            raise ValueError("unsupported-N: radial profiles need N >= 2")
        if self.r.size < 2 or np.any(np.diff(self.r) <= 0):
            raise ValueError("radial samples must be strictly increasing")
        if self.r[0] <= 0 or abs(self.r[-1] - 1.0) > 1e-12:
            raise ValueError("radial samples must lie in (0, 1] and end at 1")
        if not (np.isfinite(self.u).all() and np.isfinite(self.du).all()):
            raise ValueError("radial samples must be finite")

    def sign_changes(self) -> int:
        s = np.sign(self.u)
        s = s[s != 0]
        return int(np.count_nonzero(np.diff(s) != 0))


def unit_ball_volume(n_dim: int) -> float:
    return math.pi ** (n_dim / 2.0) / math.gamma(n_dim / 2.0 + 1.0)


def nodal_radius_q1(n_dim: int) -> float:
    """Interface radius of the two-domain q = 1 radial solution; fixed by
    equal measure of the positive and negative sets."""
    if n_dim < 2:
        raise ValueError("unsupported-N: need N >= 2")
    return 2.0 ** (-1.0 / n_dim) if n_dim >= 3 else 1.0 / math.sqrt(2.0)


# -- closed forms (q = 1) ----------------------------------------------------

def closed_form_q1(n_dim: int, r=None) -> RadialProfile:
    """Exact two-nodal-domain radial solution for q = 1.

    With no explicit sample points, the grid is built so that the interface
    radius a is a sample with spacing (1 - a)/8192 on both sides (centered
    residual stencils then see the curvature jump symmetrically), plus a
    tail node at the inner cutoff where the solution is exactly quadratic.
    """
    a = nodal_radius_q1(n_dim)
    if r is None:
        h = (1.0 - a) / 8192
        k_in = int(math.floor((a - _R_START) / h))
        left = a - h * np.arange(k_in, 0, -1)
        right = a + h * np.arange(0, 8193)
        right[-1] = 1.0
        if left[0] - _R_START >= 0.25 * h:
            r = np.concatenate([[_R_START], left, right])
        else:
            # avoid a near-duplicate pair at the inner cutoff
            left[0] = _R_START
            r = np.concatenate([left, right])
    r = np.asarray(r, dtype=float)
    inside = r <= a
    if n_dim == 2:
        c_out = -1.0 / 8.0 - math.log(2.0) / 4.0
        u = np.where(inside, 0.125 - 0.25 * r * r,
                     -0.5 * np.log(np.maximum(r, 1e-300)) + 0.25 * r * r + c_out)
        du = np.where(inside, -0.5 * r, -0.5 / r + 0.5 * r)
    else:
        nn = float(n_dim)
        c_out = 2.0 ** (-2.0 / nn) * (nn + 2.0) / (nn - 2.0)
        u = np.where(inside, (a * a - r * r) / (2.0 * nn),
                     (2.0 / (nn - 2.0) * np.maximum(r, 1e-300) ** (2.0 - nn)
                      + r * r - c_out) / (2.0 * nn))
        du = np.where(inside, -r / nn,
                      (-2.0 * np.maximum(r, 1e-300) ** (1.0 - nn) + 2.0 * r) / (2.0 * nn))
    # pin the interface sample to an exact zero when it is on the grid
    exact = np.isclose(r, a, rtol=0, atol=1e-15)
    u[exact] = 0.0
    return RadialProfile(n_dim=n_dim, q=1.0, r=r, u=u, du=du)


# -- Dormand-Prince 5(4) ------------------------------------------------------
# The pair of Dormand & Prince (J. Comput. Appl. Math. 6, 1980), stepping with
# the fifth-order solution, with the error control and starting step of
# Hairer, Norsett & Wanner (Solving ODEs I, II.4) and Shampine's free quartic
# dense output (Math. Comp. 46, 1986), as in scipy's RK45.  Row i holds stage
# i's weights of theta, ..., theta^4 in y(t + theta h) = y + h sum_i b_i k_i.
_DENSE = np.array([
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423]])


@dataclass
class _IvpResult:
    """What solve_ivp returns: the step ends t, the states y (2, t.size),
    status 1 if the event stopped the run (else 0), the number of
    right-hand side evaluations and the dense output (or None)."""

    t: np.ndarray
    y: np.ndarray
    status: int
    nfev: int
    sol: object


def _rms(a: float, b: float) -> float:
    return math.sqrt(0.5 * (a * a + b * b))


def _dp_step(fun, t, u, v, a1, b1, h):
    """One step of h from (u, v) at t, given the first stage (a1, b1) =
    fun(t, (u, v)).  Returns the state at t + h, the seven stages of u and of
    v (the last is fun at the new state: the next step's first) and the
    error estimates of u and v."""
    a2, b2 = fun(t + 0.2 * h, (u + h * (a1 / 5), v + h * (b1 / 5)))
    a3, b3 = fun(t + 0.3 * h, (u + h * (3 / 40 * a1 + 9 / 40 * a2),
                               v + h * (3 / 40 * b1 + 9 / 40 * b2)))
    a4, b4 = fun(t + 0.8 * h, (u + h * (44 / 45 * a1 - 56 / 15 * a2 + 32 / 9 * a3),
                               v + h * (44 / 45 * b1 - 56 / 15 * b2 + 32 / 9 * b3)))
    a5, b5 = fun(t + 8 / 9 * h, (
        u + h * (19372 / 6561 * a1 - 25360 / 2187 * a2 + 64448 / 6561 * a3
                 - 212 / 729 * a4),
        v + h * (19372 / 6561 * b1 - 25360 / 2187 * b2 + 64448 / 6561 * b3
                 - 212 / 729 * b4)))
    a6, b6 = fun(t + h, (
        u + h * (9017 / 3168 * a1 - 355 / 33 * a2 + 46732 / 5247 * a3 + 49 / 176 * a4
                 - 5103 / 18656 * a5),
        v + h * (9017 / 3168 * b1 - 355 / 33 * b2 + 46732 / 5247 * b3 + 49 / 176 * b4
                 - 5103 / 18656 * b5)))
    un = u + h * (35 / 384 * a1 + 500 / 1113 * a3 + 125 / 192 * a4 - 2187 / 6784 * a5
                  + 11 / 84 * a6)
    vn = v + h * (35 / 384 * b1 + 500 / 1113 * b3 + 125 / 192 * b4 - 2187 / 6784 * b5
                  + 11 / 84 * b6)
    a7, b7 = fun(t + h, (un, vn))
    eu = h * (-71 / 57600 * a1 + 71 / 16695 * a3 - 71 / 1920 * a4 + 17253 / 339200 * a5
              - 22 / 525 * a6 + 1 / 40 * a7)
    ev = h * (-71 / 57600 * b1 + 71 / 16695 * b3 - 71 / 1920 * b4 + 17253 / 339200 * b5
              - 22 / 525 * b6 + 1 / 40 * b7)
    return un, vn, (a1, a2, a3, a4, a5, a6, a7), (b1, b2, b3, b4, b5, b6, b7), eu, ev


def _interp(t, h, y, coef, x):
    """The quartic dense output of one component of the step of h from y at
    t, at x; coef holds its coefficients of theta, ..., theta^4.  Scalars
    or arrays."""
    th = (x - t) / h
    return y + h * th * (coef[0] + th * (coef[1] + th * (coef[2] + th * coef[3])))


def _dense_output(steps):
    """sol(x) -> (2, x.size), the interpolant of the accepted steps, each row
    (t, h, u, v, 7 stages of u, 7 stages of v)."""
    s = np.array(steps)
    t_old, h = s[:, 0], s[:, 1]
    qu, qv = (s[:, 4:11] @ _DENSE).T, (s[:, 11:] @ _DENSE).T

    def sol(x):
        x = np.asarray(x, dtype=float)
        i = np.clip(np.searchsorted(t_old, x, side="right") - 1, 0, t_old.size - 1)
        return np.array([_interp(t_old[i], h[i], s[i, 2], qu[:, i], x),
                         _interp(t_old[i], h[i], s[i, 3], qv[:, i], x)])
    return sol


def solve_ivp(fun, t_span, y0, rtol, atol, events=None, dense_output=False):
    """Adaptive Dormand-Prince 5(4) integration of (u, v)' = fun(t, (u, v))
    forward over t_span, on Python floats.

    The part of scipy.integrate.solve_ivp's interface that shooting uses:
    scalar rtol and atol, and at most one event g(t, y), always terminal,
    with events.direction +1 or -1, that fires on a step over which
    events.direction * g goes from <= 0 to >= 0.  The event is located on
    that step's dense output by bisection to adjacent doubles, and the step
    is then taken again from its start up to the event, so the last step
    ends there.  Raises RuntimeError (tolerance-not-met) when the step falls
    below ten doubles' spacing.
    """
    t, t_end = float(t_span[0]), float(t_span[1])
    u, v = float(y0[0]), float(y0[1])
    a1, b1 = fun(t, (u, v))
    h = _initial_step(fun, t, u, v, a1, b1, t_end, rtol, atol)
    nfev = 2
    if events is not None:
        g = events.direction * events(t, (u, v))
    ts, us, vs, steps = [t], [u], [v], []
    status = 0
    while t < t_end and not status:
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h, rejected = max(h, min_step), False
        while True:
            if h < min_step:
                raise RuntimeError(f"tolerance-not-met: step size underflow at t = {t:.17g}")
            t_new = min(t + h, t_end)
            h = t_new - t
            un, vn, ka, kb, eu, ev = _dp_step(fun, t, u, v, a1, b1, h)
            nfev += 6
            err = _rms(eu / (atol + rtol * max(abs(u), abs(un))),
                       ev / (atol + rtol * max(abs(v), abs(vn))))
            if err < 1.0:
                break
            h *= max(0.2, 0.9 * err ** -0.2)
            rejected = True
        grow = 10.0 if err == 0.0 else min(10.0, 0.9 * err ** -0.2)
        h_next = h * (min(1.0, grow) if rejected else grow)
        if events is not None:
            g_new = events.direction * events(t_new, (un, vn))
            if g <= 0.0 <= g_new:
                qu, qv = (np.array([ka, kb]) @ _DENSE).tolist()
                t_new = _event_time(events, t, t_new, u, v, qu, qv)
                un, vn, ka, kb, _, _ = _dp_step(fun, t, u, v, a1, b1, t_new - t)
                nfev += 6
                status = 1
            g = g_new
        steps.append((t, t_new - t, u, v, *ka, *kb))
        t, u, v, a1, b1, h = t_new, un, vn, ka[6], kb[6], h_next
        ts.append(t)
        us.append(u)
        vs.append(v)
    return _IvpResult(np.array(ts), np.array([us, vs]), status, nfev,
                     _dense_output(steps) if dense_output else None)


def _initial_step(fun, t, u, v, a1, b1, t_end, rtol, atol):
    """Hairer, Norsett & Wanner's starting step for a fourth-order error
    estimate: one explicit Euler probe (one evaluation of fun)."""
    su, sv = atol + rtol * abs(u), atol + rtol * abs(v)
    d0, d1 = _rms(u / su, v / sv), _rms(a1 / su, b1 / sv)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_end - t)
    a2, b2 = fun(t + h0, (u + h0 * a1, v + h0 * b1))
    d2 = _rms((a2 - a1) / su, (b2 - b1) / sv) / h0
    d = max(d1, d2)
    h1 = max(1e-6, 1e-3 * h0) if d <= 1e-15 else (0.01 / d) ** 0.2
    return min(100.0 * h0, h1, t_end - t)


def _event_time(event, t, t_new, u, v, qu, qv):
    """Bisect the step from t to t_new, along its dense output, down to
    adjacent doubles for where event.direction * event reaches 0; returns the
    upper end, so the event lies in (t, t_new]."""
    h, lo, hi = t_new - t, t, t_new
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        y = (_interp(t, h, u, qu, mid), _interp(t, h, v, qv, mid))
        if event.direction * event(mid, y) >= 0.0:
            hi = mid
        else:
            lo = mid
        mid = 0.5 * (lo + hi)
    return hi


# -- shooting -----------------------------------------------------------------

_S_MAX = 1e3             # unit-profile horizon; its s* is O(1-10) for 1 <= q < 2


def _check_problem(q: float, n_dim: int) -> None:
    if not 1.0 <= q < 2.0:
        raise ValueError(f"q-out-of-range: need 1 <= q < 2, got {q}")
    if n_dim < 2:
        raise ValueError("unsupported-N: need N >= 2")


# terminal is for scipy's solve_ivp, which the tests compare against
def _crossing(r, y):
    return y[0]
_crossing.terminal = True
_crossing.direction = -1    # u falls through 0: the end of a segment


# u' falls through 0: past a zero, with the sign folded out, the trough
# that follows is a peak
def _critical(r, y):
    return y[1]
_critical.terminal = True
_critical.direction = -1


def _unit_profile(q: float, n_dim: int, s_end: float, trough: bool = False) -> list:
    """The unit profile v(0) = 1 as its sign segments (s_lo, s_hi, sign,
    dense output of sign (v, v')), from s = 1e-8 min(1, s_end) on the
    regular branch v ~ 1 - s^2/(2N) up to s_end or, with trough, up to s*,
    the first critical point after the first zero.

    Dormand-Prince (rtol 1e-12, atol 1e-14) runs once per segment on the
    forcing |v|^{q-1} with the segment's sign taken out: each run ends on
    the zero of v and the next goes on with (-v, -v'), which solves the
    same equation, so at q = 1 no step ever sees the jump of sgn(v).
    Raises no-sign-change-in-bracket past the segment cap.
    """
    k, p = 1.0 - n_dim, q - 1.0

    def rhs(s, y):
        return y[1], k / s * y[1] - abs(y[0]) ** p

    lo, sign = _R_START * min(1.0, s_end), 1.0
    y = (1.0 - lo * lo / (2.0 * n_dim), -lo / n_dim)
    segments = []
    for _ in range(_MAX_SEGMENTS):
        event = _critical if trough and segments else _crossing
        sol = solve_ivp(rhs, (lo, s_end), y, rtol=1e-12, atol=1e-14,
                        events=event, dense_output=True)
        hi = float(sol.t[-1])
        segments.append((lo, hi, sign, sol.sol))
        if sol.status != 1 or hi >= s_end or event is _critical:
            return segments
        lo, y, sign = hi, (0.0, -float(sol.y[1, -1])), -sign
    raise RuntimeError("no-sign-change-in-bracket: solution oscillates "
                       "beyond the segment cap")


def _rescaled(q: float, n_dim: int, segments: list, u0: float, s1: float) -> RadialProfile:
    """u(r) = u0 v(s1 r) and u'(r) = u0 s1 v'(s1 r) from the unit profile's
    segments, at 4097 uniform radii from 1e-8 to 1 and at the crossing
    radii, where u is 0."""
    crossings = np.array([seg[1] for seg in segments[:-1]]) / s1
    rr = np.sort(np.concatenate([np.linspace(_R_START, 1.0, _N_SAMPLES + 1), crossings]))
    rr = rr[np.concatenate(([True], rr[1:] != rr[:-1]))]   # np.unique loads numpy.ma
    ss = s1 * rr
    vv = np.empty((2, rr.size))
    for lo, hi, sign, dense in segments:
        mask = (ss >= lo) & (ss <= hi)
        vv[:, mask] = sign * dense(ss[mask])
    uu = u0 * vv[0]
    uu[np.isin(rr, crossings)] = 0.0
    return RadialProfile(n_dim=n_dim, q=q, r=rr, u=uu, du=u0 * s1 * vv[1])


def shoot(q: float, n_dim: int, u0: float) -> RadialProfile:
    """Integrate the radial equation from the regular branch at the center.

    The equation is odd and invariant under u(r) -> mu u(mu^{(q-2)/2} r),
    so the profile is u(r) = u0 v(s1 r) with s1 = |u0|^{(q-2)/2}: the unit
    profile (see _unit_profile) run up to s1 and rescaled, sampled on a
    uniform grid of (0, 1] and at the crossing radii, where u is 0.  Raises
    no-sign-change-in-bracket past 256 sign changes, as when the first zero
    falls inside the 1e-8 cutoff.  The cusp of |u|^{q-1} at each zero costs
    accuracy at q > 1: against DOP853 at rtol 1e-13, u' drifts by 1.9e-9
    of max|u'| over 9 crossings at (q, N, u0) = (1.2, 2, 1e-3) and by
    1.5e-8 over 159 at (1.2, 10, 5e-4).
    """
    _check_problem(q, n_dim)
    if u0 == 0.0:
        raise ValueError("shooting needs u0 != 0")
    s1 = abs(u0) ** ((q - 2.0) / 2.0)
    return _rescaled(q, n_dim, _unit_profile(q, n_dim, s1), u0, s1)


def shoot_neumann(q: float, n_dim: int) -> RadialProfile:
    """Radial solution with u'(0) = u'(1) = 0 and exactly one interior sign
    change, from the scaling law instead of a search.

    The unit profile v(0) = 1 is integrated once, up to its first critical
    point s* after its first zero; u'(1) = 0 then fixes u0 = s*^{-2/(2-q)},
    and the profile is the unit one rescaled (see shoot).  Raises
    tolerance-not-met if |u'(1)| > 1e-8 and no-sign-change-in-bracket if it
    does not change sign exactly once, or if the unit profile has no zero
    and trough before s = 1e3, or before the s beyond which u0^2, the order
    of the profile's energy, would fall below the smallest normal double
    (5.9 at q = 1.99).
    """
    _check_problem(q, n_dim)
    s_max = min(_S_MAX, sys.float_info.min ** (-(2.0 - q) / 4.0))
    segments = _unit_profile(q, n_dim, s_max, trough=True)
    s_star = segments[-1][1]
    if s_star >= s_max:
        raise RuntimeError("no-sign-change-in-bracket: the unit profile has no "
                           f"zero and trough before r = {s_max:.3g}")
    profile = _rescaled(q, n_dim, segments, s_star ** (-2.0 / (2.0 - q)), s_star)
    if abs(float(profile.du[-1])) > 1e-8:
        raise RuntimeError(f"tolerance-not-met: |u'(1)| = {abs(float(profile.du[-1])):.3e}")
    if profile.sign_changes() != 1:
        raise RuntimeError("no-sign-change-in-bracket: the Neumann profile "
                           f"changes sign {profile.sign_changes()} times")
    return profile


# -- residuals ----------------------------------------------------------------

def _centered_diff(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Three-point first derivative at interior samples (nonuniform aware,
    second order)."""
    h1 = x[1:-1] - x[:-2]
    h2 = x[2:] - x[1:-1]
    return (h1 * h1 * y[2:] - h2 * h2 * y[:-2]
            + (h2 * h2 - h1 * h1) * y[1:-1]) / (h1 * h2 * (h1 + h2))


def _max_defect(u: np.ndarray, linear: np.ndarray, coef, q: float,
                zero_floor: float) -> float:
    """max |linear + coef |u|^{q-2} u| over the interior samples u[1:-1]
    (sgn(u) at q = 1), 0 for a zero field.  Samples where |u| falls under
    zero_floor * max|u| are skipped: the forcing jumps across the nodal
    radius, so the pointwise value of sgn is not resolvable there
    (quantization-floor convention)."""
    scale = float(np.max(np.abs(u)))
    if scale == 0.0:
        return 0.0
    ui = u[1:-1]
    res = np.abs(linear + coef * (np.sign(ui) * np.abs(ui) ** (q - 1.0)))
    keep = np.abs(ui) > zero_floor * scale
    return float(np.max(res[keep])) if keep.any() else 0.0


def radial_residual(p: RadialProfile, zero_floor: float = 1e-12) -> float:
    """Max interior defect of u'' + (N-1)/r u' + |u|^{q-2} u, by _max_defect.

    u'' comes from centered differences of the stored derivative samples
    (differencing u itself would put a float-cancellation floor of about
    eps/h^2 ~ 1e-8 under the residual, masking the actual ODE defect).
    """
    if p.r.size < 3:
        raise ValueError("too-few-samples: residual needs at least 3 samples")
    d2 = _centered_diff(p.r, p.du)
    return _max_defect(p.u, d2 + (p.n_dim - 1.0) / p.r[1:-1] * p.du[1:-1], 1.0,
                       p.q, zero_floor)


def liouville_transform(profile: RadialProfile):
    """Change of variables t = r^{2-N} (N >= 3) or t = 1 - log r (N = 2)
    turning the radial equation into y'' + p(t) |y|^{q-2} y = 0 with
    p(t) = t^{-2(N-1)/(N-2)}/(N-2)^2, resp. exp(-2(t-1)).  Returns the
    samples (t, y, dy/dt, p) in increasing t, on [1, inf): t falls as r
    rises, so they are the profile's samples reversed."""
    nn = profile.n_dim
    r = profile.r
    if nn == 2:
        t = 1.0 - np.log(r)
        dy = -r * profile.du            # dy/dt = u'(r) dr/dt, dr/dt = -r
        pt = np.exp(-2.0 * (t - 1.0))
    else:
        t = r ** (2.0 - nn)
        drdt = r ** (nn - 1.0) / (2.0 - nn)
        dy = profile.du * drdt
        pt = t ** (-2.0 * (nn - 1.0) / (nn - 2.0)) / (nn - 2.0) ** 2
    return t[::-1], profile.u[::-1], dy[::-1], pt[::-1]


def liouville_residual(profile: RadialProfile) -> float:
    """Max interior defect of y'' + p(t)|y|^{q-2} y on the profile's
    transformed grid, with y'' from the transformed derivative samples, by
    _max_defect as radial_residual."""
    t, y, dy, pt = liouville_transform(profile)
    return _max_defect(y, _centered_diff(t, dy), pt[1:-1], profile.q, 1e-12)


# -- energies and bounds -------------------------------------------------------

def profile_energy(p: RadialProfile) -> float:
    """Energy of the radial field over the unit ball, by trapezoidal
    quadrature with the surface measure omega_N N r^{N-1} dr."""
    meas = unit_ball_volume(p.n_dim) * p.n_dim * p.r ** (p.n_dim - 1)
    grad2 = float(np.trapezoid(p.du * p.du * meas, p.r))
    bulk = float(np.trapezoid(np.abs(p.u) ** p.q * meas, p.r)) / p.q
    return 0.5 * grad2 - bulk


def m_radial(n_dim: int, q: float) -> float:
    """Least radial nodal energy on the unit ball.

    q = 1 evaluates the closed form: -pi(-1/16 + ln(2)/8) for N = 2 and
    -(omega_N/2)((2^{-2/N}-1)N + 2^{1-2/N})/((N-2)(N+2)) for N >= 3.
    q > 1 integrates the energy of the profile from shoot_neumann.
    """
    _check_problem(q, n_dim)
    if q == 1.0:
        if n_dim == 2:
            return -math.pi * (-1.0 / 16.0 + math.log(2.0) / 8.0)
        nn = float(n_dim)
        num = (2.0 ** (-2.0 / nn) - 1.0) * nn + 2.0 ** (1.0 - 2.0 / nn)
        return -0.5 * unit_ball_volume(n_dim) * num / ((nn - 2.0) * (nn + 2.0))
    return profile_energy(shoot_neumann(q, n_dim))


def test_function_bound(n_dim: int, s: float) -> float:
    """Certified upper bound for the least nodal energy from the family
    x -> x_1 |x|^s:  -omega_N (N+2s) / (2 (N+s^2+2s) (N+s+1)^2), s > -N/2."""
    if n_dim < 2:
        raise ValueError("unsupported-N: need N >= 2")
    if s <= -n_dim / 2.0:
        raise ValueError(f"s-out-of-range: need s > -N/2, got {s}")
    nn = float(n_dim)
    return -unit_ball_volume(n_dim) * (nn + 2.0 * s) / (
        2.0 * (nn + s * s + 2.0 * s) * (nn + s + 1.0) ** 2)


@dataclass(frozen=True)
class ChainReport:
    n_dim: int
    upper: float          # test-function bound at s = -1 (s = 0 for N = 2)
    m_r: float            # least radial nodal energy, q = 1
    holds: bool           # upper < m_r
    h3: float             # (5 * 2^(1/3) - 7) / 3
    h3_cubic_ok: bool | None  # N^3 h(3) + 4N - 8 < 0, the sufficient
                              # inequality; None for N = 2


def check_inequality_chain(n_dim: int) -> ChainReport:
    """Numerical check of the strict gap between the nonradial upper bound
    and the least radial nodal energy for N >= 2.  The bound takes s = -1,
    or s = 0 for N = 2, where s = -1 is not admissible (s > -N/2).

    Also reports h(3) = (5 * 2^(1/3) - 7)/3 ~ -0.2335, with
    h(t) = (2^{-2/t} - 1) t + 2^{-2/t} + (2/t)(1 - 2^{-2/t}), and whether it
    satisfies N^3 h(3) + 4N - 8 < 0, which (h, though not monotone, being
    largest on [3, inf) at t = 3) is what the gap reduces to for N >= 3
    (None for N = 2).  The stricter h(3) < -1 is false, since h(3) ~ -0.2335.
    """
    if n_dim < 2:
        raise ValueError("unsupported-N: the chain needs N >= 2")
    upper = test_function_bound(n_dim, -1.0 if n_dim > 2 else 0.0)
    mr = m_radial(n_dim, 1.0)
    cubic = n_dim**3 * H3 + 4.0 * n_dim - 8.0
    return ChainReport(n_dim=n_dim, upper=upper, m_r=mr, holds=upper < mr,
                       h3=H3, h3_cubic_ok=cubic < 0.0 if n_dim > 2 else None)


def h_energy_monotone(p: RadialProfile) -> dict:
    """Check that h(r) = u'(r)^2/2 + |u(r)| never increases, up to 1e-8,
    along a q = 1 profile; returns the verdict and the largest increase."""
    if p.q != 1.0:
        raise ValueError(f"wrong-q: the decay invariant needs q = 1, got {p.q}")
    h = 0.5 * p.du * p.du + np.abs(p.u)
    inc = float(np.max(np.diff(h))) if h.size > 1 else 0.0
    return {"monotone": bool(inc <= 1e-8), "max_increase": max(inc, 0.0)}


def write_profile_csv(p: RadialProfile, path) -> None:
    """Dump r, u, du rows with 17 significant digits."""
    write_table(path, "r,u,du", "%.17g,%.17g,%.17g", p.r, p.u, p.du)
