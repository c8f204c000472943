"""Numerical laboratory for least-energy sign-changing solutions of the
sublinear Neumann problem -Delta u = |u|^{q-2} u, u_nu = 0, 1 <= q < 2:
constrained energy minimization on structured grids, radial two-point
solves with closed-form references, and qualitative diagnostics.

Importing the package loads no submodule, so a command imports only the
modules it uses; every command runs on numpy alone.
"""

__version__ = "0.1.0"


def write_table(path, header: str, rows, fmt: str) -> None:
    """Write a CSV table the way the csv module would: the header, then
    fmt % row for each row (a tuple), every line ended by CR LF.  Every
    table the lab writes goes through here."""
    line = fmt + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(header + "\r\n")
        fh.writelines(line % row for row in rows)
