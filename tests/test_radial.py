import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp as scipy_solve_ivp
from scipy.interpolate import CubicHermiteSpline

from nodal_lab import radial as rad

M2_CLOSED = -math.pi * (-1.0 / 16.0 + math.log(2.0) / 8.0)
IDENTITY_2 = 2.0 * math.pi * (-1.0 / 16.0 + math.log(2.0) / 8.0)


def test_unit_ball_volumes():
    assert rad.unit_ball_volume(2) == pytest.approx(math.pi)
    assert rad.unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)


def test_nodal_radius():
    assert rad.nodal_radius_q1(2) == pytest.approx(1.0 / math.sqrt(2.0))
    assert rad.nodal_radius_q1(3) == pytest.approx(2.0 ** (-1.0 / 3.0))


def test_closed_form_values_n2():
    p = rad.closed_form_q1(2)
    assert p.u[0] == pytest.approx(0.125, abs=1e-12)
    assert p.u[-1] == pytest.approx(0.125 - math.log(2.0) / 4.0, abs=1e-12)
    a = rad.nodal_radius_q1(2)
    u_at_a = rad.closed_form_q1(2, r=np.array([a / 2, a, 1.0])).u
    assert u_at_a[1] == 0.0


def test_closed_form_values_n3():
    p = rad.closed_form_q1(3)
    assert p.u[0] == pytest.approx(2.0 ** (-2.0 / 3.0) / 6.0, abs=1e-12)


def test_closed_form_shape(interval_grid=None):
    for n in (2, 3, 5):
        p = rad.closed_form_q1(n)
        assert p.sign_changes() == 1               # exactly two nodal domains
        assert np.all(np.diff(p.u) < 1e-15)        # strictly decreasing profile
        assert max(abs(p.du[0]), abs(p.du[-1])) <= 1e-8


def test_closed_form_rejects_low_dimension():
    with pytest.raises(ValueError):
        rad.closed_form_q1(1)


def test_radial_residual_closed_forms():
    for n in (2, 3, 5):
        assert rad.radial_residual(rad.closed_form_q1(n)) <= 1e-8


def test_radial_residual_zero_field():
    p = rad.RadialProfile(n_dim=2, q=1.0, r=np.linspace(0.01, 1.0, 101),
                          u=np.zeros(101), du=np.zeros(101))
    assert rad.radial_residual(p) == 0.0


def test_radial_residual_needs_samples():
    p = rad.RadialProfile(n_dim=2, q=1.0, r=np.array([0.5, 1.0]),
                          u=np.ones(2), du=np.zeros(2))
    with pytest.raises(ValueError):
        rad.radial_residual(p)


def test_perturbed_profile_residual_scales():
    base = rad.closed_form_q1(2)            # interface-aligned sampling
    rng = np.random.default_rng(0)
    noise = rng.standard_normal(base.r.size)
    h = base.r[-1] - base.r[-2]
    vals = []
    for eps in (1e-8, 1e-6, 1e-4):
        p = dataclasses.replace(base, u=base.u + eps * noise,
                                du=base.du + eps * noise)
        # widen the quantization floor to the noise scale: within eps of the
        # interface the perturbed signs are meaningless by construction
        vals.append(rad.radial_residual(p, zero_floor=300 * eps))
    # noise amplification by the stencil: linear in eps, order 1/h
    assert vals[1] / vals[0] == pytest.approx(100.0, rel=0.25)
    assert vals[2] / vals[1] == pytest.approx(100.0, rel=0.25)
    assert vals[2] == pytest.approx(1e-4 / h, rel=2.5, abs=0)


def test_liouville_endpoints_and_coefficient():
    t, _, _, p = rad.liouville_transform(rad.closed_form_q1(2))
    assert t[0] == pytest.approx(1.0)
    assert p[0] == pytest.approx(1.0)              # e^{-2(t-1)} at t = 1
    t3, _, _, _ = rad.liouville_transform(
        rad.closed_form_q1(3, r=np.array([0.5, 0.75, 1.0])))
    assert t3[-1] == pytest.approx(2.0)            # r = 1/2 -> t = 2
    assert t3[0] == pytest.approx(1.0)


def test_liouville_residuals():
    for n in (2, 3):
        p = rad.closed_form_q1(n)
        base = rad.radial_residual(p)
        trans = rad.liouville_residual(p)
        assert trans <= 1e-6
        assert trans <= 10.0 * max(base, 1e-8)


@pytest.mark.parametrize("q", (1.0, 1.2, 1.5, 1.9))
@pytest.mark.parametrize("n_dim", range(2, 11))
def test_liouville_residual_of_shot_profiles(q, n_dim):
    # r = 1 maps onto t = 1 on both branches, where p is 1, resp. 1/(N-2)^2
    p = rad.shoot_neumann(q, n_dim)
    t, _, _, pt = rad.liouville_transform(p)
    assert np.all(np.diff(t) > 0)
    assert t[0] == 1.0
    assert pt[0] == (1.0 if n_dim == 2 else 1.0 / (n_dim - 2.0) ** 2)
    assert rad.liouville_residual(p) <= rad.radial_residual(p)


def test_shoot_matches_closed_form_n2():
    p = rad.shoot(1.0, 2, 0.125)
    assert abs(p.du[-1]) <= 1e-8
    exact = rad.closed_form_q1(2, r=p.r)
    assert np.max(np.abs(p.u - exact.u)) <= 1e-6


def test_shoot_matches_closed_form_n3():
    a = 2.0 ** (-1.0 / 3.0)
    p = rad.shoot(1.0, 3, a * a / 6.0)
    exact = rad.closed_form_q1(3, r=p.r)
    assert np.max(np.abs(p.u - exact.u)) <= 1e-6


def test_shoot_sign_flip_exact():
    pa = rad.shoot(1.3, 3, 0.2)
    pb = rad.shoot(1.3, 3, -0.2)
    assert np.array_equal(pa.u, -pb.u)
    assert np.array_equal(pa.du, -pb.du)


def test_shoot_rejects_bad_input():
    with pytest.raises(ValueError):
        rad.shoot(1.0, 2, 0.0)
    with pytest.raises(ValueError):
        rad.shoot(2.5, 2, 0.1)
    with pytest.raises(ValueError):
        rad.shoot(1.0, 1, 0.1)


@pytest.mark.parametrize("n_dim", range(2, 9))
def test_shoot_neumann_reproduces_closed_form(n_dim):
    p = rad.shoot_neumann(1.0, n_dim)
    assert p.sign_changes() == 1
    assert abs(p.du[-1]) <= 1e-8
    exact = rad.closed_form_q1(n_dim, r=p.r)
    assert np.max(np.abs(p.u - exact.u)) <= 1e-6


def test_shoot_neumann_q_above_one():
    p = rad.shoot_neumann(1.5, 2)
    assert p.sign_changes() == 1
    assert abs(p.du[-1]) <= 1e-8
    assert rad.profile_energy(p) < 0.0


@pytest.mark.parametrize("n_dim", (2, 3, 5, 8, 10))
def test_shoot_neumann_near_q_two(n_dim):
    # the Neumann amplitude is 4e-12 to 1e-18 here: far outside any fixed
    # search bracket, and at N >= 8 below an unscaled absolute ODE tolerance
    p = rad.shoot_neumann(1.9, n_dim)
    assert p.sign_changes() == 1
    assert abs(p.du[-1]) <= 1e-8


def test_shoot_neumann_amplitude_bracket():
    p = rad.shoot_neumann(1.99, 2)          # u0 = 3.9e-117
    assert p.sign_changes() == 1
    assert rad.profile_energy(p) < 0.0
    # u0 = 7.0e-217 here, whose square, the order of the energy, underflows
    with pytest.raises(RuntimeError, match="no-sign-change-in-bracket"):
        rad.shoot_neumann(1.99, 16)


@pytest.mark.parametrize("n_dim", range(2, 9))
def test_shot_q1_residual_next_to_the_crossing(n_dim):
    # every segment is integrated with u > 0 and ends on the zero, so no
    # step sees the jump of sgn(u); when the last step of a segment crossed
    # it, the sample next to the crossing read up to 2.8e-5
    assert rad.radial_residual(rad.shoot_neumann(1.0, n_dim)) <= 3e-6


def _dop853(fun, t_span, y0, rtol, atol, **kw):
    return scipy_solve_ivp(fun, t_span, y0, method="DOP853", rtol=1e-13, atol=1e-15, **kw)


@pytest.mark.parametrize("q", (1.0, 1.2, 1.5, 1.9))
@pytest.mark.parametrize("n_dim", (2, 3, 5, 10))
def test_unit_trough_matches_dop853(q, n_dim, monkeypatch):
    # u0 = s*^{-2/(2-q)} inherits 2/(2-q) times the relative error of s*
    def trough():
        return rad._unit_profile(q, n_dim, rad._S_MAX, trough=True)[-1][1]
    s = trough()
    monkeypatch.setattr(rad, "solve_ivp", _dop853)
    assert s == pytest.approx(trough(), rel=1e-10, abs=0)


@pytest.mark.parametrize("q", (1.0, 1.2, 1.5, 1.9))
@pytest.mark.parametrize("n_dim", (2, 3, 5, 10))
def test_shoot_neumann_integrates_once_per_segment(q, n_dim, monkeypatch):
    # the unit profile up to its first zero, then on to its trough; the
    # profile is that run rescaled
    calls, solve_ivp = [], rad.solve_ivp

    def counted(*args, **kwargs):
        calls.append(args[1])
        return solve_ivp(*args, **kwargs)
    monkeypatch.setattr(rad, "solve_ivp", counted)
    rad.shoot_neumann(q, n_dim)
    assert len(calls) == 2


@pytest.mark.parametrize("q", (1.0, 1.2, 1.5, 1.9))
@pytest.mark.parametrize("n_dim", (2, 3, 5, 10))
def test_shoot_neumann_end_slope_at_roundoff(q, n_dim):
    # r = 1 maps onto the trough the event located, so u'(1) is the
    # rescaled v'(s*), zero up to the event's bisection to adjacent doubles
    p = rad.shoot_neumann(q, n_dim)
    assert abs(p.du[-1]) <= 1e-12 * np.max(np.abs(p.du))


def test_shoot_extreme_amplitudes():
    # u0 = 1e-30 puts the first zero near r = 2e-15, inside the 1e-8
    # cutoff, so no sample could show the sign changes: the unit profile
    # oscillates past the segment cap on its way to s = 1e15
    with pytest.raises(RuntimeError, match="no-sign-change-in-bracket"):
        rad.shoot(1.0, 2, 1e-30)
    # s1 = 1e-10: the unit run starts at 1e-18 so that every sample maps
    # inside it
    p = rad.shoot(1.0, 2, 1e20)
    assert p.r.size == 4097
    assert p.u[0] == 1e20
    assert p.sign_changes() == 0


# the cusp of |u|^{q-1} at each zero costs accuracy over many crossings at
# q > 1: 9 and 159 crossings here, with drifts of 1.9e-9 and 1.5e-8
@pytest.mark.parametrize("q,n_dim,u0,bound", [(1.2, 2, 1e-3, 1e-8), (1.2, 10, 5e-4, 5e-8)])
def test_shoot_drift_over_many_crossings(q, n_dim, u0, bound, monkeypatch):
    ours = rad.shoot(q, n_dim, u0)
    monkeypatch.setattr(rad, "solve_ivp", _dop853)
    ref = rad.shoot(q, n_dim, u0)
    assert ours.sign_changes() == ref.sign_changes()
    _, i, j = np.intersect1d(ours.r, ref.r, return_indices=True)
    assert i.size >= ours.r.size - ours.sign_changes()
    assert np.max(np.abs(ours.du[i] - ref.du[j])) <= bound * np.max(np.abs(ref.du))


@pytest.mark.parametrize("q,n_dim,u0", [(1.0, 2, 0.01), (1.0, 3, 0.005), (1.5, 3, 1e-4),
                                        (1.5, 2, 0.0085), (1.9, 5, 2.0e-15)])
def test_shoot_matches_scipy_rk45(q, n_dim, u0, monkeypatch):
    ours = rad.shoot(q, n_dim, u0)
    monkeypatch.setattr(rad, "solve_ivp", functools.partial(scipy_solve_ivp, method="RK45"))
    ref = rad.shoot(q, n_dim, u0)
    assert ours.sign_changes() == ref.sign_changes()
    _, i, j = np.intersect1d(ours.r, ref.r, return_indices=True)
    assert i.size >= ours.r.size - ours.sign_changes()
    assert np.max(np.abs(ours.u[i] - ref.u[j])) <= 1e-8 * np.max(np.abs(ref.u))
    assert np.max(np.abs(ours.du[i] - ref.du[j])) <= 1e-8 * np.max(np.abs(ref.du))


def test_solve_ivp_event_dense_output_and_nfev():
    calls = []

    def oscillator(t, y):
        calls.append(t)
        return y[1], -y[0]

    def falling(t, y):
        return y[0]
    falling.direction = -1

    res = rad.solve_ivp(oscillator, (0.0, 10.0), (1.0, 0.0), rtol=1e-10, atol=1e-12,
                        events=falling, dense_output=True)
    assert res.status == 1
    assert res.nfev == len(calls)
    assert res.y.shape == (2, res.t.size)
    assert res.t[-1] == pytest.approx(math.pi / 2, abs=1e-10)
    assert np.allclose(res.y[:, -1], [0.0, -1.0], rtol=0, atol=1e-9)
    x = np.linspace(0.0, res.t[-1], 101)
    assert np.max(np.abs(res.sol(x) - [np.cos(x), -np.sin(x)])) <= 1e-9
    calls.clear()
    res = rad.solve_ivp(oscillator, (0.0, 10.0), (1.0, 0.0), rtol=1e-10, atol=1e-12)
    assert (res.status, res.t[-1], res.sol, res.nfev) == (0, 10.0, None, len(calls))
    assert np.allclose(res.y[:, -1], [math.cos(10.0), -math.sin(10.0)], rtol=0, atol=1e-8)


def test_shoot_neumann_center_value_n2():
    assert rad.shoot_neumann(1.0, 2).u[0] == pytest.approx(0.125, abs=1e-9)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(q=st.floats(1.0, 1.9), log_mu=st.floats(-3.0, 2.0),
       n_dim=st.integers(2, 5))
def test_shoot_scaling_law(q, log_mu, n_dim):
    # u(r) = mu v(mu^{(q-2)/2} r).  Compare the larger-amplitude profile on
    # (0, 1] with the smaller one rescaled by lam = hi/lo, whose radii
    # lam^{(q-2)/2} r then stay in (0, 1]; the Hermite interpolant uses the
    # stored u' and has the crossing radii as knots
    lo, hi = sorted((10.0 ** log_mu, 1.0))
    lam = hi / lo
    big = rad.shoot(q, n_dim, hi)
    small = rad.shoot(q, n_dim, lo)
    v = CubicHermiteSpline(small.r, small.u, small.du)
    pred = lam * v(np.maximum(lam ** ((q - 2.0) / 2.0) * big.r, small.r[0]))
    assert np.max(np.abs(big.u - pred)) <= 1e-8 * np.max(np.abs(big.u))


def test_m_radial_closed_forms():
    assert rad.m_radial(2, 1.0) == pytest.approx(M2_CLOSED, abs=1e-15)
    n = 3.0
    expected = -0.5 * (4.0 * math.pi / 3.0) * (
        (2.0 ** (-2.0 / 3.0) - 1.0) * 3.0 + 2.0 ** (1.0 - 2.0 / 3.0)) / 5.0
    assert rad.m_radial(3, 1.0) == pytest.approx(expected, abs=1e-15)
    assert rad.m_radial(2, 1.0) == pytest.approx(-0.0758487, abs=1e-7)


def test_m_radial_matches_quadrature():
    for n in (2, 3, 5):
        quad = rad.profile_energy(rad.closed_form_q1(n))
        assert quad == pytest.approx(rad.m_radial(n, 1.0), rel=1e-6)


def test_energy_identity_n2():
    p = rad.closed_form_q1(2)
    meas = rad.unit_ball_volume(2) * 2 * p.r
    grad2 = np.trapezoid(p.du**2 * meas, p.r)
    mass1 = np.trapezoid(np.abs(p.u) * meas, p.r)
    assert grad2 == pytest.approx(IDENTITY_2, rel=1e-6)
    assert mass1 == pytest.approx(IDENTITY_2, rel=1e-6)


def test_test_function_bound_values():
    assert rad.test_function_bound(2, 0.0) == pytest.approx(-math.pi / 18.0, abs=1e-15)
    assert rad.test_function_bound(3, -1.0) == pytest.approx(-math.pi / 27.0, abs=1e-15)
    for n in (2, 3, 6):
        for s in (-n / 2 + 0.1, 0.0, 1.0, 3.0):
            assert rad.test_function_bound(n, s) < 0.0
    with pytest.raises(ValueError):
        rad.test_function_bound(3, -1.5)


def test_grid_evaluation_of_dipole_bound(disc_grid):
    # the s = 0 member of the test family evaluated by grid quadrature
    from nodal_lab import geometry as geo
    i1 = geo.integrate(disc_grid, np.abs(disc_grid.x1))
    d = geo.dirichlet_energy(disc_grid, disc_grid.x1)
    direct = -0.5 * i1 * i1 / d
    assert direct == pytest.approx(-0.5 * (4.0 / 3.0) ** 2 / math.pi, abs=1e-3)
    # the closed bound is weaker but both stay below the threshold
    assert direct <= -math.pi / 18.0
    assert rad.test_function_bound(2, 0.0) <= -math.pi / 18.0 + 1e-15


def test_inequality_chain():
    rep = rad.check_inequality_chain(3)
    assert rep.upper == pytest.approx(-math.pi / 27.0, abs=1e-15)
    assert rep.holds
    assert rep.h3 == pytest.approx((5.0 * 2.0 ** (1.0 / 3.0) - 7.0) / 3.0, abs=1e-15)
    assert rep.h3 == pytest.approx(-0.2334649, abs=1e-7)
    assert rep.h3_cubic_ok
    assert not rep.h3 < -1.0
    for n in range(3, 11):
        assert rad.check_inequality_chain(n).holds
    # s = -1 is not admissible at N = 2 (s > -N/2), so the bound takes s = 0
    two = rad.check_inequality_chain(2)
    assert two.upper == rad.test_function_bound(2, 0.0)
    assert two.m_r == rad.m_radial(2, 1.0) and two.holds
    assert two.h3_cubic_ok is None
    with pytest.raises(ValueError):
        rad.check_inequality_chain(1)


def _h_value(t):
    """h(t) = (2^{-2/t} - 1) t + 2^{-2/t} + (2/t)(1 - 2^{-2/t})."""
    a = 2.0 ** (-2.0 / t)
    return (a - 1.0) * t + a + (2.0 / t) * (1.0 - a)


def test_h_function_maximized_at_three():
    # h is not monotone, but its sup over [3, inf) sits at t = 3, which the
    # dimension chain rests on: it dips and then climbs back only to the
    # limit 1 - 2 ln 2 ~ -0.386 < h(3)
    ts = np.linspace(3.0, 400.0, 2000)
    hv = np.array([_h_value(t) for t in ts])
    h3 = (5.0 * 2.0 ** (1.0 / 3.0) - 7.0) / 3.0
    assert hv[0] == pytest.approx(h3, abs=1e-14)
    assert np.max(hv) == hv[0]
    assert 1.0 - 2.0 * math.log(2.0) < h3


def test_h_energy_monotone():
    assert rad.h_energy_monotone(rad.closed_form_q1(2))["monotone"]
    assert rad.h_energy_monotone(rad.closed_form_q1(5))["monotone"]
    zero = rad.RadialProfile(n_dim=2, q=1.0, r=np.linspace(0.01, 1, 51),
                             u=np.zeros(51), du=np.zeros(51))
    assert rad.h_energy_monotone(zero)["monotone"]
    with pytest.raises(ValueError):
        rad.h_energy_monotone(rad.shoot_neumann(1.5, 2))


def test_profile_csv(tmp_path):
    p = rad.closed_form_q1(2, r=np.linspace(0.1, 1.0, 11))
    path = tmp_path / "profile.csv"
    rad.write_profile_csv(p, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "r,u,du"
    assert len(lines) == 12
    r0, u0, du0 = (float(v) for v in lines[1].split(","))
    assert (r0, u0, du0) == (p.r[0], p.u[0], p.du[0])


def test_profile_validation():
    with pytest.raises(ValueError):
        rad.RadialProfile(n_dim=2, q=1.0, r=np.array([0.5, 0.4, 1.0]),
                          u=np.zeros(3), du=np.zeros(3))
    with pytest.raises(ValueError):
        rad.RadialProfile(n_dim=2, q=1.0, r=np.array([0.5, 0.9]),
                          u=np.zeros(2), du=np.zeros(2))
