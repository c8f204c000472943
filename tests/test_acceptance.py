"""Acceptance gate: every criterion asserted at its stated tolerance, one
printed PASS/FAIL line per criterion (run with -s to stream them).

Command runtimes are measured in-process around cli.main so they reflect the
tool's work, not interpreter/library import cost (every module the commands
use is imported below before any clock starts).
"""

import json
import math
import time

import numpy as np

from nodal_lab import cli, diagnostics, functional, geometry, minimize, radial

M2_CLOSED = -math.pi * (-1.0 / 16.0 + math.log(2.0) / 8.0)
IDENTITY_2 = 2.0 * math.pi * (-1.0 / 16.0 + math.log(2.0) / 8.0)


def _verdict(num, name, ok, detail):
    line = f"[ACCEPTANCE {num:02d}] {name}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_01_radial_closed_form(tmp_path):
    t0 = time.perf_counter()
    code = cli.main(["radial", "--N", "2", "--q", "1",
                     "--out", str(tmp_path / "rad")])
    elapsed = time.perf_counter() - t0
    report = json.loads((tmp_path / "rad" / "radial_report.json").read_text())
    m_r = radial.m_radial(2, 1.0)
    sup = report["closed_form_sup_error"]
    ok = (code == 0 and m_r == M2_CLOSED and report["m_r"] == M2_CLOSED
          and sup <= 1e-6 and elapsed < 1.0)
    _verdict(1, "radial closed form", ok,
             f"m_r={m_r:.8f} (closed form, exact), shoot sup={sup:.2e}, "
             f"runtime={elapsed:.2f}s")


def test_criterion_02_energy_identity():
    p = radial.closed_form_q1(2)
    meas = radial.unit_ball_volume(2) * 2 * p.r
    grad2 = float(np.trapezoid(p.du**2 * meas, p.r))
    mass1 = float(np.trapezoid(np.abs(p.u) * meas, p.r))
    ok = (abs(grad2 - IDENTITY_2) <= 1e-6 * IDENTITY_2
          and abs(mass1 - IDENTITY_2) <= 1e-6 * IDENTITY_2)
    _verdict(2, "energy identity", ok,
             f"grad^2={grad2:.9f}, |u|={mass1:.9f}, target={IDENTITY_2:.9f}")


def test_criterion_03_inequality_chain(tmp_path):
    h3 = (5.0 * 2.0 ** (1.0 / 3.0) - 7.0) / 3.0
    chain_ok = True
    cubic_ok = True
    for n in range(3, 11):
        rep = radial.check_inequality_chain(n)
        chain_ok &= rep.holds and rep.upper == radial.test_function_bound(n, -1.0)
        cubic_ok &= rep.h3_cubic_ok
        assert rep.h3 == h3
    two_ok = radial.test_function_bound(2, 0.0) < radial.m_radial(2, 1.0)
    t0 = time.perf_counter()
    code = cli.main(["bounds", "--n-min", "2", "--n-max", "10",
                     "--out", str(tmp_path / "bnd")])
    elapsed = time.perf_counter() - t0
    ok = (chain_ok and cubic_ok and two_ok and code == 0 and elapsed < 1.0
          and abs(h3 - (-0.2334649168)) <= 1e-9)
    _verdict(3, "inequality chain", ok,
             f"N=3..10 upper<m_r, N=2 -pi/18<m_r, exit=0, runtime={elapsed:.2f}s; "
             f"h(3)={h3:.6f} satisfies N^3 h(3)+4N-8<0 for N>=3 "
             f"(the stricter h(3)<-1 variant is arithmetically false: flagged)")


def test_criterion_04_interval_ground_truth(interval_grid):
    spec = functional.ProblemSpec(interval_grid, 1.0)
    t0 = time.perf_counter()
    rep = minimize.multistart(spec, minimize.SolveConfig(seed=11, starts=8))
    elapsed = time.perf_counter() - t0
    x = interval_grid.coords[:, 0]
    exact = x - np.sign(x) * x * x / 2.0
    aligned = rep.u if float(np.dot(rep.u, exact)) >= 0 else -rep.u
    sup = float(np.max(np.abs(aligned - exact)))
    ok = (abs(rep.energy + 1.0 / 3.0) <= 1e-3 and sup <= 1e-2
          and elapsed < 30.0)
    _verdict(4, "1D ground truth", ok,
             f"m={rep.energy:.7f} (target -1/3 +- 1e-3), sup={sup:.2e}, "
             f"runtime={elapsed:.1f}s (n=2048, 8 starts)")


def test_criterion_05_disc_nonradiality(disc_grid):
    spec = functional.ProblemSpec(disc_grid, 1.0)
    t0 = time.perf_counter()
    rep = minimize.multistart(spec, minimize.SolveConfig(seed=11, starts=8))
    elapsed = time.perf_counter() - t0
    dev = diagnostics.radiality_deviation(disc_grid, rep.u)
    domains = diagnostics.nodal_domains(disc_grid, rep.u)
    m_r = radial.m_radial(2, 1.0)
    ok = (rep.energy <= -math.pi / 18.0 + 1e-3 and rep.energy < m_r
          and dev >= 0.5 and domains == 2 and elapsed < 300.0)
    _verdict(5, "disc nonradiality", ok,
             f"m={rep.energy:.7f} <= -pi/18+1e-3={-math.pi/18+1e-3:.7f} < "
             f"m_r={m_r:.7f}, radiality={dev:.3f}, domains={domains}, "
             f"runtime={elapsed:.1f}s")


def test_criterion_06_foliated_schwarz(disc_grid, disc_min_q15):
    fs = diagnostics.foliated_schwarz_check(disc_grid, disc_min_q15.u,
                                            monotonicity_tol=5e-3,
                                            polarization_tol=5e-3)
    ok = fs.passed and fs.monotonicity_violation <= 5e-3 \
        and fs.polarization_defect <= 5e-3
    _verdict(6, "foliated Schwarz symmetry", ok,
             f"q=1.5 minimizer: monotonicity={fs.monotonicity_violation:.2e}, "
             f"polarization defect={fs.polarization_defect:.2e}, "
             f"axis={fs.axis_angle:.4f} ({fs.axis_method})")


def test_criterion_07_scaling_law(disc_grid):
    # random compactly supported fields; each angular mode m carries the
    # rho^m factor the finite-energy space requires near the origin
    r = np.hypot(disc_grid.coords[:, 0], disc_grid.coords[:, 1])
    th = np.arctan2(disc_grid.coords[:, 1], disc_grid.coords[:, 0])
    env = np.where(r < 0.75, np.cos(math.pi * r / 1.5) ** 2, 0.0)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for q in (1.0, 1.5):
        spec = functional.ProblemSpec(disc_grid, q)
        expo = 2.0 + 2.0 * q / (2.0 - q)
        for _ in range(20):
            v = np.zeros(disc_grid.n_nodes)
            for mode in range(4):
                radial_part = rng.normal() + rng.normal() * r + rng.normal() * r**2
                v += rng.normal() * env * r**mode * radial_part \
                    * np.cos(mode * th + rng.uniform(0, 2 * math.pi))
            v = functional.t_star(spec, v) * v
            phi1 = functional.energy(spec, v)
            for rr in (0.25, 0.5):
                lhs = functional.energy(spec, functional.rescale_bump(spec, v, rr))
                worst = max(worst, abs(lhs - rr**expo * phi1) / abs(phi1))
    ok = worst <= 0.01
    _verdict(7, "scaling law", ok,
             f"worst |phi_r(T_r v) - r^a phi_1(v)| / |phi_1(v)| = {worst:.5f} "
             f"over 20 fields x r in {{1/4, 1/2}} x q in {{1, 1.5}}")


def test_criterion_08_projection_contracts(interval_grid):
    rng = np.random.default_rng(77)
    worst_res = 0.0
    shift_ok = True
    for q in (1.25, 1.5, 1.75):
        spec = functional.ProblemSpec(interval_grid, q)
        for _ in range(100):
            u = rng.standard_normal(interval_grid.n_nodes) + rng.uniform(-2, 2)
            c = functional.c_shift(spec, u)
            worst_res = max(worst_res, abs(functional._signed_mean(
                interval_grid, u, q, c)))
        for _ in range(10):
            u, _ = minimize.project(spec, rng.standard_normal(interval_grid.n_nodes))
            shift_ok &= functional.max_shift_property_check(
                spec, u, np.linspace(-1.0, 1.0, 50))
    p1 = functional.ProblemSpec(interval_grid, 1.0)
    mono_ok = True
    for _ in range(100):
        u = interval_grid.h1_solve(interval_grid.weights
                                   * rng.standard_normal(interval_grid.n_nodes))
        v = u + np.abs(interval_grid.h1_solve(
            interval_grid.weights * rng.standard_normal(interval_grid.n_nodes)))
        mono_ok &= functional.c_shift(p1, u) >= functional.c_shift(p1, v) - 1e-12
    ok = worst_res <= 1e-10 and shift_ok and mono_ok
    _verdict(8, "projection contracts", ok,
             f"worst shift residual={worst_res:.2e} (tol 1e-10), "
             f"max-shift property={shift_ok}, q=1 monotonicity={mono_ok}")


def test_criterion_09_hessian_fidelity(interval_grid):
    spec = functional.ProblemSpec(interval_grid, 1.5)
    x = interval_grid.coords[:, 0]
    u = 2.0 + 0.4 * np.sin(3.0 * x) + 0.2 * np.cos(7.0 * x)   # zero-free
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(20):
        v = interval_grid.h1_solve(interval_grid.weights
                                   * rng.standard_normal(interval_grid.n_nodes))
        v = v / np.max(np.abs(v))
        t = 1e-4
        fd = (functional.energy(spec, u + t * v) - 2.0 * functional.energy(spec, u)
              + functional.energy(spec, u - t * v)) / t**2
        form = functional.hessian_form(spec, u, v, v)
        worst = max(worst, abs(form - fd) / abs(fd))
    ok = worst <= 1e-4
    _verdict(9, "second-derivative fidelity", ok,
             f"worst relative error vs central differences = {worst:.2e} "
             f"(20 directions, q=1.5)")


def test_criterion_10_zero_set_diagnostic(interval_grid, disc_grid,
                                          interval_min_q1, disc_min_q1,
                                          disc_min_q15):
    details = []
    ok = True
    cases = [("interval q=1", interval_grid, interval_min_q1.u),
             ("disc q=1", disc_grid, disc_min_q1.u),
             ("disc q=1.5", disc_grid, disc_min_q15.u)]
    for name, grid, u in cases:
        scale = float(np.max(np.abs(u)))
        deltas = np.geomspace(scale * 1e-7, scale / 2, 28)
        curve = diagnostics.zero_measure_curve(grid, u, deltas)
        wmax = float(np.max(grid.weights))
        at_floor = curve.measure_at_floor()
        plateau = False
        for i, d in enumerate(curve.deltas[:-3]):
            if d < curve.floor or curve.measures[i] <= 2 * wmax:
                continue
            if curve.measures[i + 3] == curve.measures[i]:   # flat over ~4x delta
                plateau = True
        case_ok = (at_floor <= 2 * wmax and np.isfinite(curve.kappa_hat)
                   and curve.kappa_hat >= 0 and not plateau)
        ok &= case_ok
        details.append(f"{name}: floor measure={at_floor:.2e} "
                       f"(2 cells={2*wmax:.2e}), kappa={curve.kappa_hat:.2f}")
    _verdict(10, "zero-set measure diagnostic", ok, "; ".join(details))


def test_criterion_11_coercivity(interval_grid):
    mu2 = (math.pi / 2.0) ** 2
    rng = np.random.default_rng(31)
    worst = 0.0
    for q in (1.0, 1.5):
        spec = functional.ProblemSpec(interval_grid, q)
        for k in range(50):
            raw = rng.standard_normal(interval_grid.n_nodes)
            u = raw if k % 2 else interval_grid.h1_solve(interval_grid.weights * raw)
            u = u + functional.c_shift(spec, u)
            lhs = geometry.integrate(interval_grid, np.abs(u) ** q) ** (2.0 / q)
            rhs = 2.0 ** (2.0 - q) / mu2 * geometry.dirichlet_energy(interval_grid, u)
            worst = max(worst, lhs / rhs)
    ok = worst <= 1.0 + 1e-6
    _verdict(11, "coercivity inequality", ok,
             f"worst |u|_q^2 / (|O|^(2-q) mu2^-1 |grad u|^2) = {worst:.6f} "
             f"over 100 constrained fields (mu2=(pi/2)^2)")


def test_criterion_12_determinism(tmp_path):
    commands = {
        "solve": ["solve", "--domain", "interval", "--q", "1.25", "--n", "256",
                  "--seed", "9", "--starts", "3"],
        "radial": ["radial", "--N", "3", "--q", "1"],
        "bounds": ["bounds", "--n-min", "2", "--n-max", "6"],
    }
    ok = True
    checked = 0
    for name, args in commands.items():
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{name}-{tag}"
            assert cli.main([*args, "--out", str(out)]) == 0
            outs.append(out)
        for path in sorted(outs[0].iterdir()):
            twin = outs[1] / path.name
            same = path.read_bytes() == twin.read_bytes()
            ok &= same
            checked += 1
    _verdict(12, "determinism", ok,
             f"{checked} CSV/JSON artifacts byte-identical across reruns "
             f"of solve/radial/bounds with fixed seeds")
