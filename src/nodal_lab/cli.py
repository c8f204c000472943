"""Command-line entry point: reproducible solve/radial/bounds/verify/sweep
experiments with JSON reports and CSV field dumps.

Exit-code contract: 0 success, 1 usage/config error, 2 numerical failure.
All randomness is seed-determined and reports omit timing, so reruns with
identical seeds produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from . import __version__, write_table

_DOMAINS = ("interval", "rectangle", "disc", "annulus")
# rectangle and annulus sizes when the config leaves them unset
_SIZE_DEFAULTS = {"sides": [1.0, 1.0], "radii": [0.5, 1.0]}
# verify's verdict thresholds.  The constraint allowance is relative to
# |Omega|: it covers sign-set quantization when a continuum solution is
# sampled onto the grid (about one layer of boundary cells).
MAX_INTERIOR, MAX_BRACKET, MAX_FLUX, MAX_CONSTRAINT = 0.1, 1e-8, 1e-8, 0.02


@dataclass
class RunConfig:
    """Solve-command parameters; round-trips losslessly through JSON."""

    domain: str = "disc"
    q: float = 1.0
    half_length: float = 1.0
    sides: list[float] | None = None
    radius: float = 1.0
    radii: list[float] | None = None
    n: int = 2048
    nr: int = 64
    ntheta: int = 128
    seed: int = 0
    starts: int = 8
    max_iter: int = 20000
    grad_tol: float = 1e-6
    energy_tol: float = 1e-11
    out: str = "out"

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        if not isinstance(d, dict):
            raise ValueError("a config must be a JSON object")
        types = {f.name: f.type for f in fields(cls)}
        for key, value in d.items():
            if key not in types:
                raise ValueError(f"unknown config key: {key!r}")
            if not _fits(value, types[key]):
                raise ValueError(f"config key {key!r} must be {types[key]}, got {value!r}")
        return cls(**d)

    def domain_spec(self):
        """The domain, from the field named after its kind's size parameter."""
        from . import geometry
        if self.domain not in _DOMAINS:
            raise ValueError(f"unknown domain: {self.domain!r}")
        size = geometry._KINDS[self.domain][0]
        value = getattr(self, size)
        return geometry.DomainSpec.from_dict(
            {"kind": self.domain, size: _SIZE_DEFAULTS.get(size) if value is None else value})

    def resolution(self):
        """n nodes per direction on an interval or rectangle, else (nr, ntheta)."""
        return (self.nr, self.ntheta) if self.domain in ("disc", "annulus") else self.n

    def solve_config(self):
        """The SolveConfig made of this config's fields of the same names."""
        from .minimize import SolveConfig
        return SolveConfig(**{f.name: getattr(self, f.name) for f in fields(SolveConfig)})


def _fits(value, annotation: str) -> bool:
    """Whether a JSON value fits a RunConfig field annotated so (a bool is
    no number)."""
    if annotation == "list[float] | None":
        return value is None or (isinstance(value, list)
                                 and all(_fits(v, "float") for v in value))
    return type(value) in {"str": (str,), "float": (int, float), "int": (int,)}[annotation]


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
    """The run config (the --config file's values, each overridden by its
    flag when given), its grid and its solve config."""
    from . import geometry
    cfg = RunConfig.from_dict(json.loads(Path(args.config).read_text()) if args.config else {})
    for f in fields(RunConfig):
        if getattr(args, f.name, None) is not None:
            setattr(cfg, f.name, getattr(args, f.name))
    return cfg, geometry.build_grid(cfg.domain_spec(), cfg.resolution()), cfg.solve_config()


def cmd_solve(args) -> int:
    from . import diagnostics, functional, geometry, minimize
    cfg, grid, scfg = _setup(args)
    prob = functional.ProblemSpec(grid, cfg.q)
    t0 = time.perf_counter()
    report = minimize.multistart(prob, scfg)
    elapsed = time.perf_counter() - t0

    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    geometry.write_field_csv(grid, report.u, out / "field.csv")
    diag, curve = _diagnose(grid, report.u, cfg.q)
    diagnostics.write_zero_curve_csv(curve, out / "zero_curve.csv")
    _write_json(out / "diagnostics.json", diag)
    payload = report.to_dict(grid)
    payload["config"] = {k: v for k, v in cfg.to_dict().items() if k != "out"}
    payload["field_csv"] = "field.csv"
    payload["version"] = __version__
    _write_json(out / "report.json", payload)

    print(f"domain={cfg.domain} q={cfg.q} energy={report.energy:.9e} "
          f"iterations={report.iterations} converged={report.converged} "
          f"({elapsed:.2f}s)")
    print(f"wrote {out / 'report.json'}")
    return 0 if report.converged else 2


def cmd_radial(args) -> int:
    import numpy as np

    from . import radial
    n_dim, q = args.N, args.q
    if n_dim < 2 or not 1.0 <= q < 2.0:
        raise ValueError(f"invalid N or q: N={n_dim}, q={q}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    payload = {"N": n_dim, "q": q, "version": __version__}

    # shoot_neumann fails unless |u'(1)| <= 1e-8.  For q > 1 the profile's
    # energy is exactly m_radial(n_dim, q); q = 1 keeps the closed form
    profile = radial.shoot_neumann(q, n_dim)
    m_r = radial.m_radial(n_dim, q) if q == 1.0 else radial.profile_energy(profile)
    payload["m_r"] = m_r
    payload["shoot"] = {
        "u0": float(profile.u[0]),
        "du_at_1": float(profile.du[-1]),
        "sign_changes": profile.sign_changes(),
        "residual": radial.radial_residual(profile),
    }
    lp = radial.liouville_transform(profile)
    payload["liouville_residual"] = radial.liouville_residual(lp)
    if q == 1.0:
        exact = radial.closed_form_q1(n_dim, r=profile.r)
        payload["closed_form_sup_error"] = float(np.max(np.abs(profile.u - exact.u)))
        payload["h_monotone"] = radial.h_energy_monotone(profile)
        payload["energy_quadrature"] = radial.profile_energy(radial.closed_form_q1(n_dim))
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
        if n_dim == 2:
            upper = radial.test_function_bound(2, 0.0)
            m_r = radial.m_radial(2, 1.0)
            holds = upper < m_r
            h3 = radial.H3
            cubic_ok = None
        else:
            rep = radial.check_inequality_chain(n_dim)
            upper, m_r, holds = rep.upper, rep.m_r, rep.holds
            h3, cubic_ok = rep.h3, rep.h3_cubic_ok
        all_hold &= holds
        rows.append({"N": n_dim, "upper_bound": upper, "m_r": m_r,
                     "holds": holds, "h3": h3, "h3_cubic_ok": cubic_ok})
        print(f"N={n_dim}: upper={upper:.7f}  m_r={m_r:.7f}  "
              f"holds={holds}  h3={h3:.6f}")
    write_table(out / "bounds.csv", "N,upper_bound,m_r,holds,h3,h3_cubic_ok",
                ((r["N"], r["upper_bound"], r["m_r"], r["holds"], r["h3"],
                  "" if r["h3_cubic_ok"] is None else int(r["h3_cubic_ok"])) for r in rows),
                "%d,%.17g,%.17g,%d,%.17g,%s")
    _write_json(out / "bounds.json", {"rows": rows, "all_hold": all_hold,
                                      "version": __version__})
    return 0 if all_hold else 2


def cmd_verify(args) -> int:
    from . import diagnostics, functional, geometry
    try:
        report = json.loads(Path(args.report).read_text())
        grid = geometry.grid_from_dict(report)
        field_path = Path(args.report).parent / report.get("field_csv", "field.csv")
        u = geometry.read_field_csv(grid, field_path)
        spec = functional.ProblemSpec(grid, float(report["q"]))
        claimed = float(report["energy"])
    except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        raise ValueError(f"unreadable dump: {exc!r}") from exc
    # the dump must be the field its report describes: its energy, at the
    # report's q, to roundoff in the two terms (not in their difference,
    # which cancels as q -> 2)
    energy = functional.energy(spec, u)
    scale = (0.5 * geometry.dirichlet_energy(grid, u)
             + functional.abs_power_integral(spec, u) / spec.q)
    if not abs(energy - claimed) <= 1e-12 * scale:
        raise ValueError(f"field dump {field_path} has energy {energy:.9e}, "
                         f"its report {claimed:.9e}")
    q = args.q if args.q is not None else spec.q
    res = diagnostics.pde_residual(grid, u, q)
    check = functional.in_constraint(functional.ProblemSpec(grid, q), u)
    print(f"interior_norm={res.interior_norm:.3e} "
          f"bracket_violation={res.bracket_violation:.3e} "
          f"flux_norm={res.flux_norm:.3e} "
          f"constraint_residual={check.residual:.3e}")
    ok = (res.interior_norm <= MAX_INTERIOR
          and res.bracket_violation <= MAX_BRACKET
          and res.flux_norm <= MAX_FLUX
          and check.residual <= MAX_CONSTRAINT * grid.domain.measure)
    if grid.is_polar:
        fs = diagnostics.foliated_schwarz_check(grid, u)
        print(f"nodal_domains={diagnostics.nodal_domains(grid, u)} "
              f"radiality_deviation={fs.radiality_deviation:.3f} "
              f"foliated_schwarz={fs.passed}")
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
                ((q, rep.energy, rep.iterations, rep.constraint, rep.converged)
                 for q, rep in zip(q_list, reports)),
                "%.17g,%.17g,%d,%s,%d")
    for q, rep in zip(q_list, reports):
        print(f"q={q:.4f}  energy={rep.energy:.9e}  ({rep.constraint})")
    print(f"wrote {out / 'sweep.csv'} ({elapsed:.2f}s)")
    return 0 if all(r.converged for r in reports) else 2


def _add_solve_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--domain", choices=_DOMAINS, default=None)
    p.add_argument("--q", type=float, default=None)
    p.add_argument("--L", dest="half_length", type=float, default=None,
                   help="interval half-length")
    p.add_argument("--sides", type=float, nargs=2, default=None,
                   help="rectangle side lengths")
    p.add_argument("--R", dest="radius", type=float, default=None,
                   help="disc radius")
    p.add_argument("--radii", type=float, nargs=2, default=None,
                   help="annulus inner and outer radii")
    p.add_argument("--n", type=int, default=None, help="nodes per direction")
    p.add_argument("--nr", type=int, default=None, help="radial rings")
    p.add_argument("--ntheta", type=int, default=None, help="angular nodes")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--starts", type=int, default=None)
    p.add_argument("--max-iter", dest="max_iter", type=int, default=None)
    p.add_argument("--grad-tol", dest="grad_tol", type=float, default=None)
    p.add_argument("--energy-tol", dest="energy_tol", type=float, default=None)
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--config", type=str, default=None,
                   help="JSON file with RunConfig values")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nodal-lab",
        description="Least-energy sign-changing solutions of the sublinear "
                    "Neumann problem by constrained minimization.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="minimize the constrained energy")
    _add_solve_args(p_solve)

    p_rad = sub.add_parser("radial", help="radial two-point solve and bounds")
    p_rad.add_argument("--N", type=int, required=True)
    p_rad.add_argument("--q", type=float, default=1.0)
    p_rad.add_argument("--out", type=str, default="out")

    p_bnd = sub.add_parser("bounds", help="test-function bounds vs radial energies")
    p_bnd.add_argument("--n-min", type=int, default=2)
    p_bnd.add_argument("--n-max", type=int, default=10)
    p_bnd.add_argument("--out", type=str, default="out")

    p_ver = sub.add_parser("verify", help="re-run diagnostics on a stored field")
    p_ver.add_argument("report", type=str, help="path to a solve report JSON")
    p_ver.add_argument("--q", type=float, default=None)

    p_swp = sub.add_parser("sweep", help="exponent continuation study")
    p_swp.add_argument("--q-list", type=str, required=True,
                       help="descending comma-separated exponents in [1, 2)")
    _add_solve_args(p_swp)

    try:
        args = parser.parse_args(argv)
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


if __name__ == "__main__":
    raise SystemExit(main())
