"""Numerical laboratory for least-energy sign-changing solutions of the
sublinear Neumann problem -Delta u = |u|^{q-2} u, u_nu = 0, 1 <= q < 2:
constrained energy minimization on structured grids, radial two-point
solves with closed-form references, and qualitative diagnostics.

Submodule attributes are resolved lazily, so a command imports only the
modules it uses; every command runs on numpy alone.
"""

from importlib import import_module

__version__ = "0.1.0"


def write_table(path, header: str, rows, fmt: str) -> None:
    """Write a CSV table the way the csv module would: the header, then
    fmt % row for each row (a tuple), every line ended by CR LF.  Every
    table the lab writes goes through here."""
    line = fmt + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(header + "\r\n")
        fh.writelines(line % row for row in rows)


_EXPORTS = {
    "geometry": ["DomainSpec", "Grid", "build_grid", "integrate",
                 "dirichlet_energy", "edge_form", "laplacian", "reflect",
                 "polarize", "angular_profiles", "gradient_magnitude",
                 "write_field_csv", "read_field_csv", "grid_from_dict"],
    "functional": ["ProblemSpec", "ConstraintCheck", "abs_power_integral",
                   "energy", "energy_gradient", "t_star", "c_shift", "in_constraint",
                   "max_shift_property_check", "hessian_form",
                   "rescale_bump", "to_porous_medium"],
    "minimize": ["SolveConfig", "SolveReport", "project", "minimize_energy",
                 "multistart", "continuation_sweep"],
    "radial": ["RadialProfile", "closed_form_q1", "shoot", "shoot_neumann",
               "radial_residual", "liouville_transform", "liouville_residual",
               "profile_energy", "m_radial", "test_function_bound",
               "check_inequality_chain", "h_energy_monotone",
               "unit_ball_volume", "nodal_radius_q1"],
    "diagnostics": ["zero_measure_curve", "nodal_domains",
                    "foliated_schwarz_check", "radiality_deviation",
                    "pde_residual", "w_set_check", "quantization_floor"],
}
_ATTR_TO_MODULE = {attr: mod for mod, attrs in _EXPORTS.items() for attr in attrs}
__all__ = ["__version__", "write_table", *_EXPORTS, *_ATTR_TO_MODULE]


def __getattr__(name):
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    mod = _ATTR_TO_MODULE.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{mod}", __name__), name)
