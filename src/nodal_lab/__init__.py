"""Numerical laboratory for least-energy sign-changing solutions of the
sublinear Neumann problem -Delta u = |u|^{q-2} u, u_nu = 0, 1 <= q < 2:
constrained energy minimization on structured grids, radial two-point
solves with closed-form references, and qualitative diagnostics.

Importing the package loads no submodule, so a command imports only the
modules it uses; every command runs on numpy alone.
"""

__version__ = "0.1.0"

_BLOCK = 1024          # rows formatted by one % in write_table


def write_table(path, header: str, fmt: str, *columns) -> None:
    """Write a CSV table the way the csv module would: the header, which
    names the columns comma-separated, then fmt % row for each row, every
    line ended by CR LF.  The columns are equal-length numpy arrays, lists
    or tuples, fmt's conversions one per column.  Every table the lab
    writes goes through here.

    The rows go out in blocks of _BLOCK: each column's slice becomes
    Python values (tolist() for an array), the slices are interleaved into
    one value list, and one % over the line format repeated once per row
    formats the block, with the same bytes as one % per row.  Memory holds
    one block, never the whole table as Python objects."""
    line, width = fmt + "\r\n", len(columns)
    with open(path, "w", newline="") as fh:
        fh.write(header + "\r\n")
        for i in range(0, len(columns[0]), _BLOCK):
            parts = [c[i:i + _BLOCK] for c in columns]
            values = [None] * (width * len(parts[0]))
            for k, part in enumerate(parts):
                values[k::width] = part.tolist() if hasattr(part, "tolist") else part
            fh.write(line * len(parts[0]) % tuple(values))
