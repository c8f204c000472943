import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nodal_lab import functional as fn
from nodal_lab import geometry as geo
from nodal_lab import radial as rad
from nodal_lab.cli import RunConfig, main
from nodal_lab.minimize import SolveConfig, minimize_energy


def run(args):
    return main([str(a) for a in args])


def run_child(*args):
    """Run python with args in a child process importing this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *map(str, args)], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": path})


def test_config_roundtrip():
    cfg = RunConfig(domain="annulus", q=1.25, radii=[0.3, 0.9], nr=16,
                    ntheta=32, seed=5)
    again = RunConfig.from_dict(cfg.to_dict())
    assert again == cfg


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config key: 'qq'"):
        RunConfig.from_dict({"qq": 3})


def test_domain_spec_defaults():
    assert RunConfig(domain="interval").domain_spec() == geo.DomainSpec.interval(1.0)
    assert RunConfig(domain="rectangle").domain_spec() == geo.DomainSpec.rectangle(1.0, 1.0)
    assert RunConfig(domain="disc").domain_spec() == geo.DomainSpec.disc(1.0)
    assert RunConfig(domain="annulus").domain_spec() == geo.DomainSpec.annulus(0.5, 1.0)
    assert RunConfig(domain="rectangle", sides=[2.0, 1.0]).domain_spec() == \
        geo.DomainSpec.rectangle(2.0, 1.0)
    with pytest.raises(ValueError, match="unknown domain"):
        RunConfig(domain="hexagon").domain_spec()


@pytest.mark.parametrize("argv", [
    ["solve", "--bogus"],                                   # unknown flag
    ["radial"],                                             # missing --N
    ["radial", "--N", "x"],                                 # malformed --N
    ["verify", "report.json", "--max-interior", "1"],       # removed threshold flag
])
def test_usage_errors_exit_one(argv, capsys):
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("usage: nodal-lab")


def test_help_exits_zero(capsys):
    assert main(["verify", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: nodal-lab verify")


def test_malformed_config_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"domain": "disc", "qq": 3}')
    code = run(["solve", "--config", bad, "--out", tmp_path / "o"])
    assert code == 1
    assert "qq" in capsys.readouterr().err


@pytest.mark.parametrize("config", ['{"domain": "rectangle", "sides": 5}',
                                    '{"domain": "disc", "radius": [1, 2]}',
                                    '{"domain": "disc", "q": "1.5"}'])
def test_config_of_wrong_count_or_type_exits_one(tmp_path, config):
    # a wrong count or type of values is a config error, not a TypeError
    bad = tmp_path / "bad.json"
    bad.write_text(config)
    for command in (["solve"], ["sweep", "--q-list", "1.5,1"]):
        res = run_child("-m", "nodal_lab.cli", *command, "--config", bad,
                        "--out", tmp_path / "o")
        assert res.returncode == 1
        assert res.stderr.startswith("error:")
        assert "Traceback" not in res.stderr


@pytest.mark.parametrize("args", [
    ["--config", '{"domain": "disc", "radius": NaN, "nr": 8, "ntheta": 16, "starts": 1}'],
    ["--domain", "interval", "--L", "inf", "--n", 16, "--starts", 1],
])
def test_non_finite_size_exits_one(tmp_path, args):
    # NaN passes a test written x <= 0; json reads NaN
    if args[0] == "--config":
        (tmp_path / "bad.json").write_text(args[1])
        args = ["--config", tmp_path / "bad.json"]
    res = run_child("-m", "nodal_lab.cli", "solve", *args, "--out", tmp_path / "o")
    assert res.returncode == 1
    assert res.stderr.startswith("error:")
    assert "Traceback" not in res.stderr
    assert not (tmp_path / "o").exists()


def test_solve_interval_and_verify(tmp_path, capsys):
    out = tmp_path / "run"
    code = run(["solve", "--domain", "interval", "--q", 1, "--n", 512,
                "--seed", 3, "--starts", 2, "--out", out])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["energy"] == pytest.approx(-1.0 / 3.0, abs=1e-3)
    assert report["converged"] is True
    assert report["domain"]["kind"] == "interval"
    # the dipole wins here by 2.5e-14 relative, too close to pin: the
    # report carries its start's seed, the config the one given
    assert report["config"]["seed"] == 3
    assert report["seed"] == report["near_best"][0]["seed"]
    assert "version" in report
    assert (out / "field.csv").exists()
    assert (out / "diagnostics.json").exists()
    assert (out / "zero_curve.csv").exists()

    assert run(["verify", out / "report.json"]) == 0
    # mismatched exponent must fail the residual thresholds
    assert run(["verify", out / "report.json", "--q", 1.5]) == 2
    # unreadable dump
    assert run(["verify", tmp_path / "missing.json"]) == 1


def test_printed_energies_match_outputs(tmp_path, capsys):
    # at q = 1.9 the least energy is about -4e-12, which a fixed-point
    # format prints as -0.000000000
    def printed():
        return [float(w.split("=")[1]) for w in capsys.readouterr().out.split()
                if w.startswith("energy=")]

    out = tmp_path / "disc"
    run(["solve", "--domain", "disc", "--q", 1.9, "--nr", 16, "--ntheta", 32,
         "--starts", 1, "--out", out])
    energy = json.loads((out / "report.json").read_text())["energy"]
    assert energy < 0.0
    assert printed() == [pytest.approx(energy, rel=1e-9)]
    out = tmp_path / "sweep"
    run(["sweep", "--domain", "disc", "--q-list", "1.9,1.8", "--nr", 16,
         "--ntheta", 32, "--starts", 1, "--out", out])
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    assert printed() == [pytest.approx(float(r.split(",")[1]), rel=1e-9) for r in rows]


def test_solve_deterministic_bytes(tmp_path):
    args = ["solve", "--domain", "interval", "--q", 1.25, "--n", 256,
            "--seed", 9, "--starts", 2]
    run(args + ["--out", tmp_path / "a"])
    run(args + ["--out", tmp_path / "b"])
    for name in ("report.json", "field.csv", "diagnostics.json", "zero_curve.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_solve_output_schema(tmp_path):
    # the JSON blocks are derived from dataclasses; pinning their keys keeps
    # a timing or array field from leaking into the byte-compared --out
    out = tmp_path / "run"
    assert run(["solve", "--domain", "disc", "--q", 1, "--nr", 8, "--ntheta", 16,
                "--starts", 2, "--out", out]) == 0
    report = json.loads((out / "report.json").read_text())
    assert set(report) == {
        "config", "constraint", "constraint_residual", "converged", "domain",
        "energy", "energy_trace", "field_csv", "grad_norm", "iterations",
        "near_best", "q", "recipe", "resolution", "seed", "stop_reason", "version"}
    assert set(report["config"]) == {
        "domain", "energy_tol", "grad_tol", "half_length", "max_iter", "n", "nr",
        "ntheta", "q", "radii", "radius", "seed", "sides", "starts"}
    assert {k for row in report["near_best"] for k in row} == {
        "energy", "recipe", "seed", "start"}
    diag = json.loads((out / "diagnostics.json").read_text())
    assert set(diag) == {"foliated_schwarz", "nodal_domains", "pde_residual",
                         "radiality_deviation", "zero_measure"}
    assert set(diag["foliated_schwarz"]) == {
        "axis_angle", "axis_method", "monotonicity_violation", "passed",
        "polarization_defect"}
    assert set(diag["pde_residual"]) == {
        "bracket_violation", "flux_norm", "interior_norm", "quantization_floor"}
    assert set(diag["zero_measure"]) == {"floor", "kappa_hat", "measure_at_floor"}


@pytest.mark.parametrize("argv", [
    ["radial", "--N", 2, "--q", "nan"],
    ["radial", "--N", 2, "--q", "inf"],
    ["radial", "--N", 1],
    ["bounds", "--n-min", 1],
    ["verify", "missing/report.json"],
])
def test_command_input_errors_print_error_line(tmp_path, argv):
    if argv[0] != "verify":
        argv = [*argv, "--out", tmp_path / "o"]
    else:
        argv = ["verify", tmp_path / argv[1]]
    res = run_child("-m", "nodal_lab.cli", *argv)
    assert res.returncode == 1
    assert res.stderr.startswith("error:")
    assert "Traceback" not in res.stderr


def test_solve_leaves_scipy_optimize_unimported(tmp_path):
    # the grid commands run on numpy alone: scipy.optimize added about
    # 0.25 s and 50 MiB to a fresh process, and scipy.sparse took 0.3 s of
    # every solve, verify and sweep to import.  A child process, because
    # the test session has scipy loaded already
    child = ("import sys\n"
             "def scipy_modules():\n"
             "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
             "import nodal_lab.geometry, nodal_lab.diagnostics\n"
             "print(scipy_modules())\n"
             "from nodal_lab.cli import main\n"
             f"out = {str(tmp_path)!r}\n"
             "rcs = [main(['solve', '--domain', 'disc', '--q', '1.5', '--nr', '16',\n"
             "             '--ntheta', '32', '--starts', '1', '--out', out + '/disc']),\n"
             "       main(['solve', '--domain', 'interval', '--q', '1', '--n', '128',\n"
             "             '--starts', '1', '--out', out + '/interval']),\n"
             "       main(['verify', out + '/disc/report.json']),\n"
             "       main(['sweep', '--domain', 'rectangle', '--q-list', '1.5,1.25',\n"
             "             '--n', '12', '--starts', '1', '--out', out + '/sweep'])]\n"
             "print(rcs, scipy_modules())\n"
             "# the benchmark's tracer wraps geometry.spla.factorized\n"
             "print(callable(nodal_lab.geometry.spla.factorized))\n")
    proc = run_child("-c", child)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [lines[0], *lines[-2:]] == ["[]", "[0, 0, 0, 0] []", "True"]


def test_radial_and_bounds_leave_scipy_unimported(tmp_path):
    # radial and bounds shoot with radial's own Dormand-Prince stepper;
    # scipy.integrate took about 0.8 s of each of these commands to import
    child = ("import sys\n"
             "from nodal_lab.cli import main\n"
             f"out = {str(tmp_path)!r}\n"
             "rcs = [main(['radial', '--N', '5', '--q', '1.5', '--out', out + '/a']),\n"
             "       main(['radial', '--N', '2', '--q', '1', '--out', out + '/b']),\n"
             "       main(['bounds', '--out', out + '/c'])]\n"
             "print(rcs, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    proc = run_child("-c", child)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0] []"


def test_radial_command(tmp_path, capsys):
    out = tmp_path / "rad"
    assert run(["radial", "--N", 2, "--q", 1, "--out", out]) == 0
    printed = capsys.readouterr().out
    m2 = -math.pi * (-1.0 / 16.0 + math.log(2.0) / 8.0)
    assert f"m_r = {m2:.7f}" in printed
    report = json.loads((out / "radial_report.json").read_text())
    assert report["m_r"] == pytest.approx(m2, abs=1e-15)
    assert report["closed_form_sup_error"] <= 1e-6
    assert abs(report["shoot"]["du_at_1"]) <= 1e-8
    assert report["h_monotone"]["monotone"] is True
    assert (out / "profile.csv").exists()


def test_radial_command_invalid_inputs(tmp_path):
    assert run(["radial", "--N", 1, "--out", tmp_path]) == 1
    assert run(["radial", "--N", 3, "--q", 2.5, "--out", tmp_path]) == 1


def test_radial_shooting_failure_exits_two(tmp_path, capsys):
    assert run(["radial", "--N", 16, "--q", 1.99, "--out", tmp_path]) == 2
    assert "no-sign-change-in-bracket" in capsys.readouterr().err


def test_radial_command_q15(tmp_path):
    out = tmp_path / "rad15"
    assert run(["radial", "--N", 2, "--q", 1.5, "--out", out]) == 0
    report = json.loads((out / "radial_report.json").read_text())
    assert abs(report["shoot"]["du_at_1"]) <= 1e-8
    assert report["shoot"]["sign_changes"] == 1
    assert report["m_r"] == rad.m_radial(2, 1.5)


def test_bounds_command(tmp_path, capsys):
    out = tmp_path / "bounds"
    assert run(["bounds", "--n-min", 2, "--n-max", 10, "--out", out]) == 0
    data = json.loads((out / "bounds.json").read_text())
    assert data["all_hold"] is True
    rows = {row["N"]: row for row in data["rows"]}
    assert rows[2]["upper_bound"] == pytest.approx(-math.pi / 18.0, abs=1e-15)
    assert rows[2]["m_r"] == pytest.approx(
        -math.pi * (-1 / 16 + math.log(2) / 8), abs=1e-15)
    assert rows[3]["upper_bound"] == pytest.approx(-math.pi / 27.0, abs=1e-15)
    assert all(rows[n]["holds"] for n in range(2, 11))
    assert rows[3]["h3"] == pytest.approx((5 * 2 ** (1 / 3) - 7) / 3, abs=1e-15)
    assert len({row["h3"] for row in data["rows"]}) == 1
    lines = (out / "bounds.csv").read_text().splitlines()
    assert lines[0].startswith("N,")
    assert len(lines) == 10
    assert run(["bounds", "--n-min", 1, "--out", tmp_path]) == 1


def test_verify_closed_form_radial_on_disc(tmp_path):
    grid = geo.build_grid(geo.DomainSpec.disc(1.0), (64, 128))
    r = np.repeat(grid.polar["ring_radii"], grid.shape[1])
    u = rad._closed_form_funcs(2)[0](r)
    out = tmp_path / "cf"
    out.mkdir()
    geo.write_field_csv(grid, u, out / "field.csv")
    report = {"q": 1.0, "energy": fn.energy(fn.ProblemSpec(grid, 1.0), u),
              "field_csv": "field.csv", **grid.to_dict()}
    (out / "report.json").write_text(json.dumps(report))
    assert run(["verify", out / "report.json"]) == 0


def test_sweep_command(tmp_path, capsys):
    out = tmp_path / "sw"
    code = run(["sweep", "--q-list", "1.5,1.25,1.0", "--domain", "interval",
                "--n", 256, "--seed", 5, "--starts", 2, "--out", out])
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "q,energy,iterations,constraint,converged"
    assert len(lines) == 4
    assert "sign-balance" in lines[3]
    # one row per exponent, and the time of the whole sweep printed once
    printed = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in printed[:3]] == ["q=1.5000", "q=1.2500", "q=1.0000"]
    assert sum(line.endswith("s)") for line in printed) == 1

    out2 = tmp_path / "sw2"
    run(["sweep", "--q-list", "1.5,1.25,1.0", "--domain", "interval",
         "--n", 256, "--seed", 5, "--starts", 2, "--out", out2])
    assert (out / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()

    assert run(["sweep", "--q-list", "1.0,1.5", "--out", tmp_path]) == 1
    assert run(["sweep", "--q-list", "2.4", "--out", tmp_path]) == 1
    assert run(["sweep", "--q-list", ",", "--out", tmp_path]) == 1


def test_sweep_single_matches_solve(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    run(["solve", "--domain", "interval", "--q", 1.5, "--n", 256,
         "--seed", 5, "--starts", 2, "--out", a])
    run(["sweep", "--q-list", "1.5", "--domain", "interval", "--n", 256,
         "--seed", 5, "--starts", 2, "--out", b])
    energy_solve = json.loads((a / "report.json").read_text())["energy"]
    row = (b / "sweep.csv").read_text().splitlines()[1].split(",")
    assert float(row[1]) == energy_solve


def test_solve_nonconvergence_exit_two(tmp_path):
    code = run(["solve", "--domain", "interval", "--q", 1.5, "--n", 256,
                "--seed", 2, "--starts", 1, "--max-iter", 1,
                "--out", tmp_path / "nc"])
    assert code == 2
    report = json.loads((tmp_path / "nc" / "report.json").read_text())
    assert report["converged"] is False
    assert report["stop_reason"] == "max-iterations-exceeded"


def test_verify_rejects_nonfinite_dump(tmp_path):
    grid = geo.build_grid(geo.DomainSpec.interval(1.0), 16)
    rows = ["%.17g" % x for x in grid.x1.tolist()]
    energy = fn.energy(fn.ProblemSpec(grid, 1.0), grid.x1)

    def dump(body):
        return "value\n" + "\n".join(body)

    dumps = {                          # name: (field.csv, the report's q entry)
        "nonfinite": (dump(rows[:-1] + ["nan"]), {"q": 1.0}),
        "empty": ("", {"q": 1.0}),
        "truncated": (dump(rows)[:-6], {"q": 1.0}),     # ends inside row 15 of 16
        "garbled": (dump(rows[:-1] + [rows[-1] + ",1.0"]), {"q": 1.0}),
        "short": (dump(rows[:-1]), {"q": 1.0}),
        "long": (dump(rows + rows[-1:]), {"q": 1.0}),
        "no-q": (dump(rows), {}),
        "null-q": (dump(rows), {"q": None}),
        # value edits that keep the format: the energy check rejects them
        "rewritten": (dump(rows[:-1] + ["123"]), {"q": 1.0}),
        "reordered": (dump(rows[:3] + [rows[4], rows[3]] + rows[5:]), {"q": 1.0}),
        "intact": (dump(rows), {"q": 1.0}),
    }
    for name, (field, q) in dumps.items():
        out = tmp_path / name
        out.mkdir()
        (out / "field.csv").write_text(field)
        report = {**q, "energy": energy, "field_csv": "field.csv", **grid.to_dict()}
        (out / "report.json").write_text(json.dumps(report))
        # the intact dump is read and fails only the thresholds
        assert run(["verify", out / "report.json"]) == (2 if name == "intact" else 1), name


def test_verify_rejects_a_field_that_is_not_the_reports(tmp_path, capsys):
    # the radial critical point from r^2 - 1/2 solves the equation, as the
    # minimizer does, but at about 1/93 of its energy: the residual checks
    # pass it, and only the energy ties a dump to its report
    out = tmp_path / "disc"
    assert run(["solve", "--domain", "disc", "--q", 1.5, "--nr", 32, "--ntheta", 64,
                "--starts", 2, "--out", out]) == 0
    grid = geo.grid_from_dict(json.loads((out / "report.json").read_text()))
    r2 = np.sum(grid.coords ** 2, axis=1)
    radial = minimize_energy(fn.ProblemSpec(grid, 1.5), SolveConfig(), u0=r2 - 0.5).u
    geo.write_field_csv(grid, radial, out / "field.csv")
    capsys.readouterr()
    assert run(["verify", out / "report.json"]) == 1
    assert "has energy" in capsys.readouterr().err

    # a dump in the four-column format of earlier versions
    cols = [*grid.coords.T, grid.weights, radial]
    (out / "field.csv").write_text("x,y,weight,value\r\n" + "".join(
        ",".join("%.17g" % v for v in row) + "\r\n" for row in zip(*cols)))
    assert run(["verify", out / "report.json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'value' header" in err


def test_verify_header_only_dump(tmp_path):
    # rejected with one error line and no numpy warning; a child process,
    # because pytest records warnings instead of printing them
    grid = geo.build_grid(geo.DomainSpec.interval(1.0), 16)
    (tmp_path / "field.csv").write_text("value\r\n")
    report = {"q": 1.0, "energy": 0.0, "field_csv": "field.csv", **grid.to_dict()}
    (tmp_path / "report.json").write_text(json.dumps(report))
    proc = run_child("-m", "nodal_lab.cli", "verify", tmp_path / "report.json")
    assert proc.returncode == 1
    assert "has no rows" in proc.stderr
    assert "UserWarning" not in proc.stderr
