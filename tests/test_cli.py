import dataclasses
import io
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
    cfg = RunConfig(domain={"kind": "annulus", "radii": [0.3, 0.9]}, q=1.25,
                    resolution={"nr": 16, "ntheta": 32}, seed=5)
    again = RunConfig.from_dict(json.loads(json.dumps(dataclasses.asdict(cfg))))
    assert again == cfg


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config key: 'qq'"):
        RunConfig.from_dict({"qq": 3})


def test_run_config_defaults_are_the_solvers():
    # cli keeps its own copy of the solver defaults, so that loading it
    # does not import minimize
    assert RunConfig().solve_config() == SolveConfig()


def test_config_with_removed_stall_key_exits_one(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"domain": {"kind": "interval", "half_length": 1.0}, "energy_tol": 1e-11}')
    assert run(["solve", "--config", cfg, "--out", tmp_path / "o"]) == 1
    assert "unknown config key: 'energy_tol'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_domain_spec_defaults(tmp_path, capsys):
    # with no size flag each kind runs on its default size, which its
    # report's config block records as its domain block does; a config
    # file's domain and resolution hold for its own kind alone, and a file
    # with no resolution takes its kind's default counts
    given = tmp_path / "disc.json"
    given.write_text('{"domain": {"kind": "disc", "radius": 2.0}, '
                     '"resolution": {"nr": 16, "ntheta": 32}}')
    sized = tmp_path / "annulus.json"
    sized.write_text('{"domain": {"kind": "annulus", "radii": [0.25, 1]}}')
    for name, args, domain, resolution in (
            ("interval", ["--domain", "interval", "--n", 64],
             {"kind": "interval", "half_length": 1.0}, {"n": 64}),
            ("rectangle", ["--domain", "rectangle", "--n", 16],
             {"kind": "rectangle", "sides": [1.0, 1.0]}, {"n1": 16, "n2": 16}),
            ("disc", ["--nr", 8, "--ntheta", 16],
             {"kind": "disc", "radius": 1.0}, {"nr": 8, "ntheta": 16}),
            ("annulus", ["--domain", "annulus", "--nr", 8, "--ntheta", 16],
             {"kind": "annulus", "radii": [0.5, 1.0]}, {"nr": 8, "ntheta": 16}),
            ("sides", ["--domain", "rectangle", "--sides", 2, 1, "--n", 16],
             {"kind": "rectangle", "sides": [2.0, 1.0]}, {"n1": 16, "n2": 16}),
            ("other-kind", ["--config", given, "--domain", "annulus", "--ntheta", 16],
             {"kind": "annulus", "radii": [0.5, 1.0]}, {"nr": 64, "ntheta": 16}),
            ("no-resolution", ["--config", sized, "--ntheta", 16],
             {"kind": "annulus", "radii": [0.25, 1.0]}, {"nr": 64, "ntheta": 16})):
        assert run(["solve", *args, "--starts", 1, "--out", tmp_path / name]) == 0, name
        report = json.loads((tmp_path / name / "report.json").read_text())
        assert report["config"]["domain"] == report["domain"] == domain, name
        assert report["config"]["resolution"] == report["resolution"] == resolution, name
    given.write_text('{"domain": {"kind": "hexagon", "radius": 1.0}}')
    capsys.readouterr()
    assert run(["solve", "--config", given, "--out", tmp_path / "hexagon"]) == 1
    assert "unknown domain kind 'hexagon'" in capsys.readouterr().err
    assert not (tmp_path / "hexagon").exists()


@pytest.mark.parametrize("args, flag, kind", [
    # the sizes and counts of three kinds: the run reads the disc's alone
    (["--domain", "disc", "--q", 1, "--n", 512, "--sides", 3, 3, "--nr", 16,
      "--ntheta", 32], "--sides", "disc"),
    (["--domain", "disc", "--n", 512, "--nr", 16, "--ntheta", 32], "--n", "disc"),
    (["--domain", "interval", "--nr", 16], "--nr", "interval"),
    (["--domain", "rectangle", "--n", 16, "--R", 2], "--R", "rectangle"),
    (["--domain", "annulus", "--L", 2], "--L", "annulus"),
    (["--n", 64], "--n", "disc"),
])
def test_size_or_count_of_another_kind_exits_one(tmp_path, capsys, args, flag, kind):
    commands = [["solve"]] if "--q" in args else [["solve"], ["sweep", "--q-list", "1.5"]]
    for command in commands:
        assert run([*command, *args, "--starts", 1, "--out", tmp_path / "o"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {flag} does not apply to a {kind} domain"], err
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ["solve", "--bogus"],                                   # unknown flag
    ["radial"],                                             # missing --N
    ["radial", "--N", "x"],                                 # malformed --N
    ["verify", "report.json", "--max-interior", "1"],       # removed threshold flag
    ["solve", "--energy-tol", "1e-9"],                      # removed stall stop
    ["sweep", "--q-list", "1.5", "--q", "1.3"],             # sweep reads no --q
])
def test_usage_errors_exit_one(argv, capsys):
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("usage: nodal-lab")


def test_help_exits_zero(capsys):
    assert main(["verify", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: nodal-lab verify")


def test_parser_keeps_no_state_between_calls(tmp_path, capsys):
    # main reuses one parser per process: a flag given to one call must not
    # carry over to the next, and usage errors and --help keep their codes
    args = ["--domain", "interval", "--n", 64, "--starts", 1]
    assert run(["solve", "--q", 1.5, *args, "--out", tmp_path / "a"]) == 0
    assert run(["solve", *args, "--out", tmp_path / "b"]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"q": 1.25}')
    assert run(["solve", "--config", cfg, *args, "--out", tmp_path / "c"]) == 0
    for name, q in (("a", 1.5), ("b", RunConfig().q), ("c", 1.25)):
        report = json.loads((tmp_path / name / "report.json").read_text())
        assert report["q"] == report["config"]["q"] == q, name
    capsys.readouterr()
    assert main(["solve", "--bogus"]) == 1
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err
    assert main(["solve", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: nodal-lab solve")


def test_malformed_config_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"domain": {"kind": "disc", "radius": 1.0}, "qq": 3}')
    code = run(["solve", "--config", bad, "--out", tmp_path / "o"])
    assert code == 1
    assert "qq" in capsys.readouterr().err


@pytest.mark.parametrize("config", [
    '{"domain": {"kind": "rectangle", "sides": 5}}',
    '{"domain": {"kind": "disc", "radius": [1, 2]}}',
    '{"domain": {"kind": "disc", "radius": 1.0}, "q": "1.5"}',
    # a size key of another kind, a resolution of another kind
    '{"domain": {"kind": "disc", "sides": [1, 1]}}',
    '{"domain": {"kind": "disc", "radius": 1}, "resolution": {"n": 16}}',
    # the flat schema of earlier versions, and a domain with no kind
    '{"domain": "disc", "radius": 1}',
    '{"domain": {"radius": 1}}',
    # an int no float holds
    '{"q": 1%s}' % ("0" * 400),
], ids=["one-side", "two-radii", "string-q", "size-of-another-kind",
        "resolution-of-another-kind", "flat-schema", "no-kind", "int-beyond-float"])
def test_config_of_wrong_count_or_type_exits_one(tmp_path, config):
    # a wrong count or type of values is a config error, not a TypeError
    bad = tmp_path / "bad.json"
    bad.write_text(config)
    for command in (["solve"], ["sweep", "--q-list", "1.5,1"]):
        res = run_child("-m", "nodal_lab.cli", *command, "--config", bad,
                        "--out", tmp_path / "o")
        assert res.returncode == 1
        assert len(res.stderr.splitlines()) == 1 and res.stderr.startswith("error:")
        assert "Traceback" not in res.stderr
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("args", [
    ["--config", '{"domain": {"kind": "disc", "radius": NaN}, '
                 '"resolution": {"nr": 8, "ntheta": 16}, "starts": 1}'],
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
    assert (out / "field.npy").exists()
    assert (out / "diagnostics.json").exists()
    assert (out / "zero_curve.csv").exists()

    assert run(["verify", out / "report.json"]) == 0
    # verify takes its exponent from the report: --q is an unknown flag
    assert run(["verify", out / "report.json", "--q", 1.5]) == 1
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


def output_bytes(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("args", [
    ["--domain", "interval", "--q", 1.25, "--n", 256, "--seed", 9, "--starts", 2],
    ["--domain", "disc", "--q", 1, "--nr", 16, "--ntheta", 32, "--starts", 2],
    ["--domain", "rectangle", "--q", 1, "--n", 16, "--starts", 2],
    ["--domain", "annulus", "--q", 1, "--nr", 16, "--ntheta", 32, "--starts", 2],
    ["--domain", "disc", "--q", 1.5, "--nr", 16, "--ntheta", 32, "--starts", 4,
     "--seed", 3],
], ids=["interval", "disc", "rectangle", "annulus", "disc-4-starts"])
def test_solve_deterministic_bytes(tmp_path, args):
    assert run(["solve", *args, "--out", tmp_path / "a"]) == 0
    assert run(["solve", *args, "--out", tmp_path / "b"]) == 0
    files = output_bytes(tmp_path / "a")
    assert set(files) == {"report.json", "field.npy", "diagnostics.json", "zero_curve.csv"}
    assert files == output_bytes(tmp_path / "b")


@pytest.mark.parametrize("args", [
    ["--domain", "interval", "--L", 2, "--q", 1.25, "--n", 64, "--seed", 9, "--starts", 2],
    ["--domain", "rectangle", "--sides", 2, 1, "--q", 1, "--n", 16, "--starts", 2],
    ["--domain", "disc", "--R", 1.5, "--q", 1.5, "--nr", 16, "--ntheta", 32, "--starts", 2,
     "--grad-tol", 1e-7],
    ["--domain", "annulus", "--radii", 0.3, 0.9, "--q", 1, "--nr", 16, "--ntheta", 32,
     "--starts", 2, "--max-iter", 5000],
], ids=["interval", "rectangle", "disc", "annulus"])
def test_solve_replays_from_its_report_config(tmp_path, args):
    # a report's config block, as a --config file, is the run's whole recipe
    assert run(["solve", *args, "--out", tmp_path / "a"]) == 0
    report = json.loads((tmp_path / "a" / "report.json").read_text())
    recipe = tmp_path / "recipe.json"
    recipe.write_text(json.dumps(report["config"]))
    assert run(["solve", "--config", recipe, "--out", tmp_path / "b"]) == 0
    files = output_bytes(tmp_path / "a")
    assert set(files) == {"report.json", "field.npy", "diagnostics.json", "zero_curve.csv"}
    assert files == output_bytes(tmp_path / "b")


def test_integer_q_and_grad_tol_write_as_their_flags_do(tmp_path):
    # the same recipe writes the same bytes, from flags or from a config
    # file whose q and grad_tol are JSON integers
    recipe = tmp_path / "recipe.json"
    recipe.write_text('{"domain": {"kind": "interval", "half_length": 1}, '
                      '"resolution": {"n": 64}, "q": 1, "grad_tol": 1, "starts": 1}')
    assert run(["solve", "--config", recipe, "--out", tmp_path / "a"]) == 0
    assert run(["solve", "--domain", "interval", "--L", 1, "--n", 64, "--q", 1,
                "--grad-tol", 1, "--starts", 1, "--out", tmp_path / "b"]) == 0
    files = output_bytes(tmp_path / "a")
    assert '"q": 1.0' in files["report.json"].decode()
    assert files == output_bytes(tmp_path / "b")


def test_solve_output_schema(tmp_path):
    # the JSON blocks are derived from dataclasses; pinning their keys keeps
    # a timing or array field from leaking into the byte-compared --out
    out = tmp_path / "run"
    assert run(["solve", "--domain", "disc", "--q", 1, "--nr", 8, "--ntheta", 16,
                "--starts", 2, "--out", out]) == 0
    report = json.loads((out / "report.json").read_text())
    assert set(report) == {
        "config", "constraint", "constraint_residual", "converged", "domain",
        "energy", "energy_trace", "field", "grad_norm", "iterations",
        "levels", "near_best", "q", "recipe", "resolution", "seed", "stop_reason",
        "version"}
    assert set(report["config"]) == {
        "domain", "grad_tol", "max_iter", "q", "resolution", "seed", "starts"}
    assert {k for row in report["near_best"] for k in row} == {
        "energy", "recipe", "seed", "start"}
    assert {k for row in report["levels"] for k in row} == {
        "descents", "energy", "iterations", "resolution"}
    diag = json.loads((out / "diagnostics.json").read_text())
    assert set(diag) == {"foliated_schwarz", "nodal_domains", "pde_residual",
                         "radiality_deviation", "zero_measure"}
    assert set(diag["foliated_schwarz"]) == {
        "axis_angle", "axis_method", "monotonicity_violation", "passed",
        "polarization_defect"}
    assert set(diag["pde_residual"]) == {
        "bracket_violation", "flux_norm", "interior_norm", "quantization_floor"}
    assert set(diag["zero_measure"]) == {"floor", "kappa_hat", "measure_at_floor"}


def test_written_json_is_strict_and_solve_reports_keep_their_rules(tmp_path):
    # every JSON file the commands write is strict JSON, with no NaN or
    # Infinity.  A solve report names one of the descent's three stops, is
    # converged unless it hit the iteration cap, names the constraint of its
    # q, and its domain holds the kind and that kind's size key alone: a
    # float on the interval and the disc, two on the rectangle and the annulus
    commands = [
        ["solve", "--domain", "interval", "--q", 1, "--n", 64, "--starts", 1],
        ["solve", "--domain", "rectangle", "--q", 1.5, "--n", 16, "--starts", 2],
        ["solve", "--domain", "disc", "--q", 1.5, "--nr", 8, "--ntheta", 16, "--starts", 1],
        ["solve", "--domain", "annulus", "--q", 1, "--nr", 16, "--ntheta", 32, "--starts", 2],
        ["sweep", "--domain", "interval", "--n", 64, "--q-list", "1.5,1", "--starts", 1],
        ["radial", "--N", 2, "--q", 1],
        ["bounds", "--n-max", 4],
    ]
    for i, argv in enumerate(commands):
        assert run([*argv, "--out", tmp_path / str(i)]) == 0, argv

    def reject(name):
        raise ValueError(f"non-finite JSON number {name}")

    stops = {"grad-tol", "no-descent-step", "max-iterations-exceeded"}
    sizes = {"interval": ("half_length", float), "rectangle": ("sides", [float, float]),
             "disc": ("radius", float), "annulus": ("radii", [float, float])}
    paths = sorted(tmp_path.rglob("*.json"))
    kinds = []
    for path in paths:
        data = json.loads(path.read_text(), parse_constant=reject)
        if path.name != "report.json":
            continue
        stop, domain = data["stop_reason"], data["domain"]
        assert stop in stops and data["converged"] == (stop != "max-iterations-exceeded")
        assert data["constraint"] == ("sign-balance" if data["q"] == 1.0
                                      else "signed-mean-zero")
        key, types = sizes[domain["kind"]]
        assert set(domain) == {"kind", key}, domain
        size = domain[key]
        assert ([type(v) for v in size] if type(size) is list else type(size)) == types, domain
        kinds.append(domain["kind"])
    assert sorted(kinds) == sorted(sizes)
    assert {p.name for p in paths} == {"report.json", "diagnostics.json",
                                       "radial_report.json", "bounds.json"}


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
    assert not (tmp_path / "o").exists()       # a rejected command writes nothing


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


def test_cli_import_leaves_numpy_unimported():
    # the command line imports numpy only inside the commands that use it, so
    # --help, usage errors and RunConfig's defaults load no numpy
    proc = run_child("-c", "import sys, nodal_lab.cli; print('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["False"]


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


def test_radial_and_coarsened_solve_leave_numpy_ma_unimported(tmp_path):
    # np.unique imports numpy.ma (numpy 2.4), about 17 ms of a fresh
    # process; radial's sampler and the box grids' axis nodes, which the
    # coarse-to-fine multistart reads, sort and mask instead.  The random
    # starts draw from the standard library's random module, so numpy.random
    # and the modules it brings stay unimported too
    child = ("import json, sys\n"
             "from nodal_lab.cli import main\n"
             f"out = {str(tmp_path)!r}\n"
             "rcs = [main(['radial', '--N', '2', '--q', '1', '--out', out + '/r']),\n"
             "       main(['solve', '--domain', 'rectangle', '--q', '1.5', '--n', '16',\n"
             "             '--starts', '2', '--out', out + '/s'])]\n"
             "levels = json.load(open(out + '/s/report.json'))['levels']\n"
             "print(rcs, len(levels), 'numpy.ma' in sys.modules, 'numpy.random' in sys.modules)\n")
    proc = run_child("-c", child)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0] 2 False False"


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
    assert run(["radial", "--N", 16, "--q", 1.99, "--out", tmp_path / "o"]) == 2
    assert "no-sign-change-in-bracket" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()       # created only after the shot


@pytest.mark.parametrize("argv", [
    # the projected start's energy underflows to -0.0 (field max 2.8e-248)
    ["--domain", "interval", "--L", 0.01, "--q", 1.99, "--n", 64],
    # the ray minimizer's scale overflows
    ["--domain", "disc", "--R", 100, "--q", 1.99, "--nr", 16, "--ntheta", 32],
])
def test_start_out_of_scale_exits_two(tmp_path, argv):
    res = run_child("-m", "nodal_lab.cli", "solve", *argv, "--starts", 1,
                    "--out", tmp_path / "o")
    assert res.returncode == 2
    assert res.stderr.startswith("error: scale-out-of-range:")
    assert "Traceback" not in res.stderr


def test_radial_command_q15(tmp_path):
    out = tmp_path / "rad15"
    assert run(["radial", "--N", 2, "--q", 1.5, "--out", out]) == 0
    report = json.loads((out / "radial_report.json").read_text())
    assert abs(report["shoot"]["du_at_1"]) <= 1e-8
    assert report["shoot"]["sign_changes"] == 1
    assert report["m_r"] == rad.m_radial(2, 1.5)
    # q > 1 in N = 5 takes the rescaled unit profile too; reruns are byte-identical
    for d in ("n5-a", "n5-b"):
        assert run(["radial", "--N", 5, "--q", 1.5, "--out", tmp_path / d]) == 0
    files = output_bytes(tmp_path / "n5-a")
    assert set(files) == {"profile.csv", "radial_report.json"}
    assert files == output_bytes(tmp_path / "n5-b")


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
    u = np.repeat(rad.closed_form_q1(2, r=grid.axis_nodes[0]).u, grid.shape[1])
    out = tmp_path / "cf"
    out.mkdir()
    geo.write_field_csv(grid, u, out / "field.npy")
    report = {"q": 1.0, "energy": fn.energy(fn.ProblemSpec(grid, 1.0), u),
              "field": "field.npy", **grid.to_dict()}
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
    # every rung's exponent is checked before the first solve, and the error
    # names it
    capsys.readouterr()
    assert run(["sweep", "--q-list", "2.5,1", "--out", tmp_path / "sw3"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "got 2.5" in err[0], err
    assert not (tmp_path / "sw3").exists()


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


def _npy(values, dtype="<f8"):
    """The bytes np.save writes for values."""
    buf = io.BytesIO()
    np.save(buf, np.asarray(values, dtype=dtype), allow_pickle=dtype == object)
    return buf.getvalue()


class _Tripwire:
    """Unpickling this creates the file it names."""

    def __init__(self, path):
        self.path = str(path)

    def __reduce__(self):
        return open, (self.path, "w")


def test_verify_rejects_nonfinite_dump(tmp_path, capsys):
    # every fault of a dump is refused with one error line that names it
    grid = geo.build_grid(geo.DomainSpec.interval(1.0), 16)
    x1 = grid.x1
    energy = fn.energy(fn.ProblemSpec(grid, 1.0), x1)
    tripped = tmp_path / "unpickled"
    swapped = x1.copy()
    swapped[[3, 4]] = x1[[4, 3]]
    text = "value\r\n" + "".join("%.17g\r\n" % v for v in x1.tolist())
    q1 = {"q": 1.0}

    dumps = {                  # name: (field.npy bytes, the report's q entry, the error)
        "nonfinite": (_npy([*x1[:-1], np.nan]), q1, "non-finite values"),
        "empty": (b"", q1, "is not a .npy array: EOF"),
        "truncated": (_npy(x1)[:-6], q1, "is truncated"),   # ends inside value 16 of 16
        "header-cut": (_npy(x1)[:50], q1, "is not a .npy array: EOF"),
        "garbled": (_npy(x1).replace(b"'shape'", b"'shope'"), q1, "is not a .npy array"),
        "version": (_npy(x1).replace(b"NUMPY\x01", b"NUMPY\x02", 1), q1, "not (1, 0)"),
        "short": (_npy(x1[:-1]), q1, "holds <f8 of shape (15,), not <f8 of shape (16,)"),
        "long": (_npy([*x1, x1[-1]]), q1, "of shape (17,),"),
        "overlong": (_npy(x1) + b"\0", q1, "overlong"),
        "zero-length": (_npy([]), q1, "of shape (0,),"),
        "float32": (_npy(x1, "<f4"), q1, "holds <f4 of shape (16,),"),
        "big-endian": (_npy(x1, ">f8"), q1, "holds >f8 of shape (16,),"),
        "2-D": (_npy(x1.reshape(4, 4)), q1, "of shape (4, 4),"),
        "object": (_npy([_Tripwire(tripped)] * 16, object), q1, "holds |O of shape (16,),"),
        "text": (text.encode(), q1, "is not a .npy array"),   # the dump of earlier versions
        "no-q": (_npy(x1), {}, "'q'"),
        "null-q": (_npy(x1), {"q": None}, "'q' must be a number"),
        # value edits that keep the format: the energy check rejects them
        "rewritten": (_npy([*x1[:-1], 123.0]), q1, "has energy"),
        "reordered": (_npy(swapped), q1, "has energy"),
        # read in full, the intact dump fails only the thresholds
        "intact": (_npy(x1), q1, None),
    }
    for name, (field, q, error) in dumps.items():
        out = tmp_path / name
        out.mkdir()
        (out / "field.npy").write_bytes(field)
        report = {**q, "energy": energy, "field": "field.npy", **grid.to_dict()}
        (out / "report.json").write_text(json.dumps(report))
        capsys.readouterr()
        assert run(["verify", out / "report.json"]) == (2 if error is None else 1), name
        err = capsys.readouterr().err.splitlines()
        if error is not None:
            assert len(err) == 1 and err[0].startswith("error:"), (name, err)
            assert error in err[0], (name, err)
    assert not tripped.exists()


def test_verify_rejects_bad_rows_past_the_first_chunk(tmp_path, capsys):
    # a dump of 80 kB, with its fault past its first 64 KiB
    grid = geo.build_grid(geo.DomainSpec.interval(1.0), 10000)
    x1 = grid.x1
    bad = 9000
    data = _npy(x1)
    assert 8 * bad > 1 << 16
    energy = fn.energy(fn.ProblemSpec(grid, 1.0), x1)
    rewritten = x1.copy()
    rewritten[bad] = 123.0
    dumps = {                          # name: (field.npy bytes, the error it gives)
        "nonfinite": (_npy([*x1[:bad], np.nan, *x1[bad + 1:]]), "non-finite values"),
        "truncated": (data[:-8 * (10000 - bad) - 3], "is truncated"),
        "short": (data[:-8], "is truncated"),          # header claims 10000, data 9999
        "long": (data + data[-8:], "overlong"),
        "rewritten": (_npy(rewritten), "has energy"),
        # read in full, this fails only the thresholds
        "intact": (data, None),
    }
    for name, (field, error) in dumps.items():
        out = tmp_path / name
        out.mkdir()
        (out / "field.npy").write_bytes(field)
        report = {"q": 1.0, "energy": energy, "field": "field.npy", **grid.to_dict()}
        (out / "report.json").write_text(json.dumps(report))
        capsys.readouterr()
        assert run(["verify", out / "report.json"]) == (2 if error is None else 1), name
        err = capsys.readouterr().err.splitlines()
        if error is not None:
            assert len(err) == 1 and err[0].startswith("error:"), (name, err)
            assert error in err[0], (name, err)


def test_verify_reads_the_dump_beside_its_report(tmp_path, capsys):
    # the report's field entry must be a bare file name: a path out of the
    # report's directory is refused, even to a dump that would verify
    out = tmp_path / "run"
    assert run(["solve", "--domain", "interval", "--q", 1, "--n", 64, "--starts", 1,
                "--out", out]) == 0
    report = json.loads((out / "report.json").read_text())
    (tmp_path / "field.npy").write_bytes((out / "field.npy").read_bytes())
    (out / "sub").mkdir()
    (out / "sub" / "field.npy").write_bytes((out / "field.npy").read_bytes())
    for name in ("../field.npy", str(tmp_path / "field.npy"), "sub/field.npy", "..",
                 "", "field.npy/", 3, None):
        (out / "report.json").write_text(json.dumps({**report, "field": name}))
        capsys.readouterr()
        assert run(["verify", out / "report.json"]) == 1, name
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "must be a bare file name" in err[0], (name, err)
    # a report of earlier versions names its dump under field_csv
    del report["field"]
    (out / "report.json").write_text(json.dumps({**report, "field_csv": "field.npy"}))
    capsys.readouterr()
    assert run(["verify", out / "report.json"]) == 1
    assert "KeyError('field')" in capsys.readouterr().err
    (out / "report.json").write_text(json.dumps({**report, "field": "field.npy"}))
    assert run(["verify", out / "report.json"]) == 0


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
    geo.write_field_csv(grid, radial, out / "field.npy")
    capsys.readouterr()
    assert run(["verify", out / "report.json"]) == 1
    assert "has energy" in capsys.readouterr().err

    # a text dump of earlier versions, named by the report
    report = json.loads((out / "report.json").read_text())
    (out / "field.csv").write_text("value\r\n" + "".join(
        "%.17g\r\n" % v for v in radial.tolist()))
    (out / "report.json").write_text(json.dumps({**report, "field": "field.csv"}))
    assert run(["verify", out / "report.json"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "not a .npy array" in err[0]


def test_verify_refuses_stray_domain_and_resolution_keys(tmp_path, capsys):
    # a key the grid does not read is refused, not ignored, and so is a node
    # count the grid would truncate (16.7 rings used to verify as 16);
    # solve's own reports verify
    out = tmp_path / "disc"
    assert run(["solve", "--domain", "disc", "--q", 1, "--nr", 16, "--ntheta", 32,
                "--starts", 2, "--out", out]) == 0
    assert run(["verify", out / "report.json"]) == 0
    report = json.loads((out / "report.json").read_text())
    for block, stray in (("domain", {"sides": [2, 2]}), ("resolution", {"n": 16}),
                         ("resolution", {"nr": 16.7}), ("resolution", {"nr": 16.0}),
                         ("resolution", {"nr": True})):
        (out / "report.json").write_text(json.dumps(
            {**report, block: {**report[block], **stray}}))
        capsys.readouterr()
        assert run(["verify", out / "report.json"]) == 1, block
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "invalid-spec" in err[0], err


def test_verify_refuses_a_q_or_energy_that_is_not_a_number(tmp_path, capsys):
    # q and energy must be JSON numbers: a bool or a string is refused, not
    # read by float(); an int is a number
    out = tmp_path / "disc"
    assert run(["solve", "--domain", "disc", "--q", 1, "--nr", 16, "--ntheta", 32,
                "--starts", 2, "--out", out]) == 0
    report = json.loads((out / "report.json").read_text())
    for key, value, code in (("q", True, 1), ("q", "1.0", 1),
                             ("energy", str(report["energy"]), 1), ("q", 1, 0)):
        (out / "report.json").write_text(json.dumps({**report, key: value}))
        capsys.readouterr()
        assert run(["verify", out / "report.json"]) == code, (key, value)
        err = capsys.readouterr().err.splitlines()
        if code:
            assert len(err) == 1 and err[0].startswith("error:") and key in err[0], err


def test_verify_header_only_dump(tmp_path):
    # a header with no values, claimed or given, is rejected with one error
    # line and no numpy warning; a child process, because pytest records
    # warnings instead of printing them
    grid = geo.build_grid(geo.DomainSpec.interval(1.0), 16)
    report = {"q": 1.0, "energy": 0.0, "field": "field.npy", **grid.to_dict()}
    (tmp_path / "report.json").write_text(json.dumps(report))
    header = _npy(np.zeros(16))[:-8 * 16]
    for dump, error in ((header, "is truncated"), (_npy([]), "of shape (0,),")):
        (tmp_path / "field.npy").write_bytes(dump)
        proc = run_child("-m", "nodal_lab.cli", "verify", tmp_path / "report.json")
        assert proc.returncode == 1
        assert len(proc.stderr.splitlines()) == 1 and error in proc.stderr, proc.stderr
        assert "Warning" not in proc.stderr


def test_verify_reads_symmetry_and_domains_from_solve(tmp_path, capsys, monkeypatch):
    # solve writes the nodal-domain count and the foliated Schwarz verdict
    # into diagnostics.json; verify checks the dump and recomputes neither
    from nodal_lab import diagnostics

    out = tmp_path / "disc"
    assert run(["solve", "--domain", "disc", "--q", 1.5, "--nr", 16, "--ntheta", 32,
                "--starts", 1, "--out", out]) == 0
    report = json.loads((out / "report.json").read_text())
    res = json.loads((out / "diagnostics.json").read_text())["pde_residual"]
    capsys.readouterr()

    def fail(*args, **kwargs):
        raise AssertionError("verify recomputed a solve diagnostic")

    monkeypatch.setattr(diagnostics, "foliated_schwarz_check", fail)
    monkeypatch.setattr(diagnostics, "nodal_domains", fail)
    assert run(["verify", out / "report.json"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"interior_norm={res['interior_norm']:.3e} "
        f"bracket_violation={res['bracket_violation']:.3e} "
        f"flux_norm={res['flux_norm']:.3e} "
        f"constraint_residual={report['constraint_residual']:.3e}",
        "verify: ok"]

    u = np.load(out / "field.npy")
    u[0] *= 2.0
    np.save(out / "field.npy", u)
    assert run(["verify", out / "report.json"]) == 1
    assert "has energy" in capsys.readouterr().err
