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


def column_rows(*columns):
    """The rows of equal-length 1-D arrays, as write_table takes them,
    made one block of _BLOCK rows at a time: each column's slice becomes
    Python floats by tolist() and the slices are zipped, so the whole
    columns never exist as Python objects."""
    return chain.from_iterable(zip(*(c[i:i + _BLOCK].tolist() for c in columns))
                               for i in range(0, len(columns[0]), _BLOCK))


def write_table(path, header: str, rows, fmt: str) -> None:
    """Write a CSV table the way the csv module would: the header, which
    names the columns comma-separated, then fmt % row for each row (a tuple
    of one value per column), every line ended by CR LF.  Every table the
    lab writes goes through here, numeric columns by way of column_rows.

    Rows are taken in blocks of up to _BLOCK, and a block's values are
    formatted by one % over the line format repeated once per row, with
    the same bytes as one % per row.  Memory holds one block, never the
    whole table, as long as rows are made lazily, as column_rows makes
    them."""
    line = fmt + "\r\n"
    full = line * _BLOCK
    width = header.count(",") + 1
    rows = iter(rows)
    with open(path, "w", newline="") as fh:
        fh.write(header + "\r\n")
        while values := tuple(chain.from_iterable(islice(rows, _BLOCK))):
            lines = full if len(values) == width * _BLOCK else line * (len(values) // width)
            fh.write(lines % values)
