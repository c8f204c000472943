"""Command-line entry point: reproducible solve/radial/bounds/verify/sweep
experiments with JSON reports and .npy field dumps.

Exit-code contract: 0 success, 1 usage/config error, 2 numerical failure.
All randomness is seed-determined and reports omit timing, so reruns with
identical seeds produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from . import __version__, write_table

# each kind's domain and resolution blocks where no config or flag sets them
_DEFAULTS = {
    "interval": ({"kind": "interval", "half_length": 1.0}, {"n": 2048}),
    "rectangle": ({"kind": "rectangle", "sides": [1.0, 1.0]}, {"n1": 2048, "n2": 2048}),
    "disc": ({"kind": "disc", "radius": 1.0}, {"nr": 64, "ntheta": 128}),
    "annulus": ({"kind": "annulus", "radii": [0.5, 1.0]}, {"nr": 64, "ntheta": 128}),
}
# the size and count flags: the block key each sets, its type, nargs and help
_BLOCK_FLAGS = {
    "--L": ("half_length", float, None, "interval half-length"),
    "--sides": ("sides", float, 2, "rectangle side lengths"),
    "--R": ("radius", float, None, "disc radius"),
    "--radii": ("radii", float, 2, "annulus inner and outer radii"),
    "--n": ("n", int, None, "interval nodes, or rectangle nodes per direction"),
    "--nr": ("nr", int, None, "disc or annulus rings"),
    "--ntheta": ("ntheta", int, None, "disc or annulus angles"),
}
# verify's verdict thresholds.  The constraint allowance is relative to
# |Omega|: it covers sign-set quantization when a continuum solution is
# sampled onto the grid (about one layer of boundary cells).
MAX_INTERIOR, MAX_BRACKET, MAX_FLUX, MAX_CONSTRAINT = 0.1, 1e-8, 1e-8, 0.02


@dataclass
class RunConfig:
    """Solve-command parameters; asdict less out is a report's config block."""

    domain: dict = field(default_factory=lambda: dict(_DEFAULTS["disc"][0]))
    resolution: dict = field(default_factory=lambda: dict(_DEFAULTS["disc"][1]))
    q: float = 1.0
    seed: int = 0
    starts: int = 8
    max_iter: int = 20000
    grad_tol: float = 1e-6
    out: str = "out"

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        """The config of d, its keys' types checked, its floats stored as floats."""
        if not isinstance(d, dict):
            raise ValueError("a config must be a JSON object")
        types = {f.name: f.type for f in fields(cls)}
        for key, value in d.items():
            if key not in types:
                raise ValueError(f"unknown config key: {key!r}")
            if not _fits(value, types[key]):
                raise ValueError(f"config key {key!r} must be {types[key]}, got {value!r}")
        return cls(**{k: float(v) if types[k] == "float" else v for k, v in d.items()})

    def solve_config(self):
        """The SolveConfig made of this config's fields of the same names."""
        from .minimize import SolveConfig
        return SolveConfig(**{f.name: getattr(self, f.name) for f in fields(SolveConfig)})


def _fits(value, annotation: str) -> bool:
    """Whether a JSON value fits a RunConfig field annotated so: a bool is
    no number, and a float field takes a finite one, an int in float range."""
    fits = type(value) in {"str": (str,), "float": (int, float), "int": (int,),
                           "dict": (dict,)}[annotation]
    return fits and (annotation != "float" or abs(value) <= sys.float_info.max)


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _diagnose(grid, u, q):
    """Full diagnostic block for a computed field."""
    import numpy as np

    from . import diagnostics
    scale = float(np.max(np.abs(u))) if u.size else 0.0
    deltas = np.geomspace(max(scale, 1e-12) * 1e-7, max(scale, 1e-12) / 2, 24)
    curve = diagnostics.zero_measure_curve(grid, u, deltas)
    out = {
        "nodal_domains": diagnostics.nodal_domains(grid, u),
        "pde_residual": asdict(diagnostics.pde_residual(grid, u, q)),
        "zero_measure": {
            "kappa_hat": curve.kappa_hat,
            "floor": curve.floor,
            "measure_at_floor": curve.measure_at_floor(),
        },
    }
    if grid.is_polar:
        fs = asdict(diagnostics.foliated_schwarz_check(grid, u))
        out["radiality_deviation"] = fs.pop("radiality_deviation")
        out["foliated_schwarz"] = fs
    return out, curve


def _setup(args):
    """The run config: the --config file's values, its blocks for its kind
    alone, each overridden by its flag; its grid and its solve config."""
    from . import geometry
    given = json.loads(Path(args.config).read_text()) if args.config else {}
    cfg = RunConfig.from_dict(given)
    for f in fields(RunConfig):
        if getattr(args, f.name, None) is not None:
            setattr(cfg, f.name, getattr(args, f.name))
    kind = args.kind or geometry.DomainSpec.from_dict(cfg.domain).kind
    domain, resolution = _DEFAULTS[kind]
    own = kind == cfg.domain.get("kind")
    cfg.domain = cfg.domain if own else dict(domain)
    cfg.resolution = cfg.resolution if own and "resolution" in given else dict(resolution)
    for flag, (key, *_) in _BLOCK_FLAGS.items():
        value = getattr(args, key)
        if value is None:
            continue
        names = ("n1", "n2") if (kind, key) == ("rectangle", "n") else (key,)
        if not set(names) <= {*domain, *resolution}:
            raise ValueError(f"{flag} does not apply to a {kind} domain")
        for name in names:
            (cfg.domain if name in domain else cfg.resolution)[name] = value
    grid = geometry.grid_from_dict(vars(cfg))
    cfg.domain, cfg.resolution = grid.domain.to_dict(), grid.resolution
    return cfg, grid, cfg.solve_config()


def cmd_solve(args) -> int:
    from . import diagnostics, functional, geometry, minimize
    cfg, grid, scfg = _setup(args)
    prob = functional.ProblemSpec(grid, cfg.q)
    t0 = time.perf_counter()
    report = minimize.multistart(prob, scfg)
    elapsed = time.perf_counter() - t0

    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    geometry.write_field_csv(grid, report.u, out / "field.npy")
    diag, curve = _diagnose(grid, report.u, cfg.q)
    diagnostics.write_zero_curve_csv(curve, out / "zero_curve.csv")
    _write_json(out / "diagnostics.json", diag)
    payload = report.to_dict(grid)
    payload["config"] = {k: v for k, v in asdict(cfg).items() if k != "out"}
    payload["field"] = "field.npy"
    payload["version"] = __version__
    _write_json(out / "report.json", payload)

    print(f"domain={grid.kind} q={cfg.q} energy={report.energy:.9e} "
          f"iterations={report.iterations} converged={report.converged} "
          f"({elapsed:.2f}s)")
    print(f"wrote {out / 'report.json'}")
    return 0 if report.converged else 2


def cmd_radial(args) -> int:
    import numpy as np

    from . import radial
    n_dim, q = args.N, args.q
    payload = {"N": n_dim, "q": q, "version": __version__}

    # shoot_neumann rejects N < 2 and q outside [1, 2), and fails unless
    # |u'(1)| <= 1e-8.  For q > 1 the profile's energy is exactly
    # m_radial(n_dim, q); q = 1 keeps the closed form
    profile = radial.shoot_neumann(q, n_dim)
    m_r = radial.m_radial(n_dim, q) if q == 1.0 else radial.profile_energy(profile)
    payload["m_r"] = m_r
    payload["shoot"] = {
        "u0": float(profile.u[0]),
        "du_at_1": float(profile.du[-1]),
        "sign_changes": profile.sign_changes(),
        "residual": radial.radial_residual(profile),
    }
    payload["liouville_residual"] = radial.liouville_residual(profile)
    if q == 1.0:
        exact = radial.closed_form_q1(n_dim, r=profile.r)
        payload["closed_form_sup_error"] = float(np.max(np.abs(profile.u - exact.u)))
        payload["h_monotone"] = radial.h_energy_monotone(profile)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    radial.write_profile_csv(profile, out / "profile.csv")
    _write_json(out / "radial_report.json", payload)
    print(f"N={n_dim} q={q} m_r = {m_r:.7f}")
    if "closed_form_sup_error" in payload:
        print(f"closed-form sup error = {payload['closed_form_sup_error']:.3e}")
    print(f"|u'(1)| = {abs(payload['shoot']['du_at_1']):.3e}")
    return 0


def cmd_bounds(args) -> int:
    from . import radial
    n_lo, n_hi = args.n_min, args.n_max
    if not (2 <= n_lo <= n_hi <= 16):
        raise ValueError(f"invalid N range [{n_lo}, {n_hi}]")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    all_hold = True
    for n_dim in range(n_lo, n_hi + 1):
        rep = radial.check_inequality_chain(n_dim)
        all_hold &= rep.holds
        rows.append({"N": n_dim, "upper_bound": rep.upper, "m_r": rep.m_r,
                     "holds": rep.holds, "h3": rep.h3, "h3_cubic_ok": rep.h3_cubic_ok})
        print(f"N={n_dim}: upper={rep.upper:.7f}  m_r={rep.m_r:.7f}  "
              f"holds={rep.holds}  h3={rep.h3:.6f}")
    write_table(out / "bounds.csv", "N,upper_bound,m_r,holds,h3,h3_cubic_ok",
                "%d,%.17g,%.17g,%d,%.17g,%s",
                *zip(*((r["N"], r["upper_bound"], r["m_r"], r["holds"], r["h3"],
                        "" if r["h3_cubic_ok"] is None else int(r["h3_cubic_ok"])) for r in rows)))
    _write_json(out / "bounds.json", {"rows": rows, "all_hold": all_hold,
                                      "version": __version__})
    return 0 if all_hold else 2


def cmd_verify(args) -> int:
    from . import diagnostics, functional, geometry
    try:
        report = json.loads(Path(args.report).read_text())
        for key in ("q", "energy"):
            if not _fits(report[key], "float"):
                raise ValueError(f"report key {key!r} must be a number, got {report[key]!r}")
        grid = geometry.grid_from_dict(report)
        name = report["field"]                 # the dump sits beside its report
        if not isinstance(name, str) or name in ("", "..") or Path(name).name != name:
            raise ValueError(f"report key 'field' must be a bare file name, got {name!r}")
        field_path = Path(args.report).parent / name
        u = geometry.read_field_csv(grid, field_path)
        spec = functional.ProblemSpec(grid, report["q"])
        claimed = float(report["energy"])
    except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        raise ValueError(f"unreadable dump: {exc!r}") from exc
    # the dump must be the field its report describes: its energy, at the
    # report's q, to roundoff in the two terms (not in their difference,
    # which cancels as q -> 2), each integral taken once
    dirichlet = 0.5 * geometry.dirichlet_energy(grid, u)
    bulk = functional.abs_power_integral(spec, u) / spec.q
    energy = dirichlet - bulk
    if not abs(energy - claimed) <= 1e-12 * (dirichlet + bulk):
        raise ValueError(f"field dump {field_path} has energy {energy:.9e}, "
                         f"its report {claimed:.9e}")
    res = diagnostics.pde_residual(grid, u, spec.q)
    check = functional.in_constraint(spec, u)
    print(f"interior_norm={res.interior_norm:.3e} "
          f"bracket_violation={res.bracket_violation:.3e} "
          f"flux_norm={res.flux_norm:.3e} "
          f"constraint_residual={check.residual:.3e}")
    ok = (res.interior_norm <= MAX_INTERIOR
          and res.bracket_violation <= MAX_BRACKET
          and res.flux_norm <= MAX_FLUX
          and check.residual <= MAX_CONSTRAINT * grid.domain.measure)
    print("verify:", "ok" if ok else "failed thresholds")
    return 0 if ok else 2


def cmd_sweep(args) -> int:
    from . import minimize
    q_list = [float(s) for s in args.q_list.split(",") if s]
    cfg, grid, scfg = _setup(args)
    t0 = time.perf_counter()
    reports = minimize.continuation_sweep(grid, q_list, scfg)
    elapsed = time.perf_counter() - t0
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    write_table(out / "sweep.csv", "q,energy,iterations,constraint,converged",
                "%.17g,%.17g,%d,%s,%d",
                *zip(*((q, rep.energy, rep.iterations, rep.constraint, rep.converged)
                       for q, rep in zip(q_list, reports))))
    for q, rep in zip(q_list, reports):
        print(f"q={q:.4f}  energy={rep.energy:.9e}  ({rep.constraint})")
    print(f"wrote {out / 'sweep.csv'} ({elapsed:.2f}s)")
    return 0 if all(r.converged for r in reports) else 2


def _add_solve_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--domain", dest="kind", choices=_DEFAULTS, default=None)
    for flag, (key, typ, nargs, text) in _BLOCK_FLAGS.items():
        p.add_argument(flag, dest=key, type=typ, nargs=nargs, default=None, help=text)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--starts", type=int, default=None)
    p.add_argument("--max-iter", dest="max_iter", type=int, default=None)
    p.add_argument("--grad-tol", dest="grad_tol", type=float, default=None)
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--config", type=str, default=None,
                   help="JSON file of the keys a report's config block holds")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nodal-lab",
        description="Least-energy sign-changing solutions of the sublinear "
                    "Neumann problem by constrained minimization.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="minimize the constrained energy")
    p_solve.add_argument("--q", type=float, default=None)
    _add_solve_args(p_solve)

    p_rad = sub.add_parser("radial", help="radial two-point solve and bounds")
    p_rad.add_argument("--N", type=int, required=True)
    p_rad.add_argument("--q", type=float, default=1.0)
    p_rad.add_argument("--out", type=str, default="out")

    p_bnd = sub.add_parser("bounds", help="test-function bounds vs radial energies")
    p_bnd.add_argument("--n-min", type=int, default=2)
    p_bnd.add_argument("--n-max", type=int, default=10)
    p_bnd.add_argument("--out", type=str, default="out")

    p_ver = sub.add_parser("verify", help="check a stored field against its report")
    p_ver.add_argument("report", type=str, help="path to a solve report JSON")

    # sweep takes no --q, which argparse would otherwise read as --q-list
    p_swp = sub.add_parser("sweep", help="exponent continuation study", allow_abbrev=False)
    p_swp.add_argument("--q-list", type=str, required=True,
                       help="descending comma-separated exponents in [1, 2)")
    _add_solve_args(p_swp)
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:           # usage errors exit 1, --help exits 0
        return 1 if exc.code else 0
    handler = {"solve": cmd_solve, "radial": cmd_radial, "bounds": cmd_bounds,
               "verify": cmd_verify, "sweep": cmd_sweep}[args.command]
    try:
        return handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:         # a numerical failure, e.g. of shooting
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:      # any other float error, shown with its type
        print(f"error: {exc!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
