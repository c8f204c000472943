"""Numerical laboratory for least-energy sign-changing solutions of the
sublinear Neumann problem -Delta u = |u|^{q-2} u, u_nu = 0, 1 <= q < 2:
constrained energy minimization on structured grids, radial two-point
solves with closed-form references, and qualitative diagnostics.

Importing the package loads no submodule, so a command imports only the
modules it uses; every command runs on numpy alone.
"""

from itertools import chain, islice

__version__ = "0.1.0"

_BLOCK = 1024          # rows formatted by one % in write_table


def write_table(path, header: str, rows, fmt: str) -> None:
    """Write a CSV table the way the csv module would: the header, then
    fmt % row for each row (a tuple), every line ended by CR LF.  Every
    table the lab writes goes through here.

    Rows are taken in blocks of up to _BLOCK, and a block is formatted by
    one % over the line format repeated once per row, with the same bytes
    as one % per row; memory holds one block, never the whole table."""
    line = fmt + "\r\n"
    full = line * _BLOCK
    rows = iter(rows)
    with open(path, "w", newline="") as fh:
        fh.write(header + "\r\n")
        while block := list(islice(rows, _BLOCK)):
            lines = full if len(block) == _BLOCK else line * len(block)
            fh.write(lines % tuple(chain.from_iterable(block)))
