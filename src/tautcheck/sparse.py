"""Sparse exact integer matrices over a table of values.

Each entry is stored as its row, its column and an int32 `code` into
`values`, the matrix's table of nonzero exact ints: entry i has value
``values[code[i]]``.  Assembly yields tens of millions of entries but
a small table, one ``coef * C(n, k)`` per key, which keys may share
(E8: 25,010,996 entries, 110,027 table entries, 72,848 distinct, many
beyond int64), so an entry costs 12 bytes and reduction mod p reduces
each table entry once and looks its residue up per entry.

Rows and columns are int32; a shape of 2^31 or more is refused.
Entries are stored in the order they are given; `write_matrix_text`
writes them in row-major order (row, then column).  No duplicate
coordinates and no zero values are allowed: the constructor finds
duplicates by a stable sort of one int64 column-major key per entry,
which merges the few sorted runs that assembly's entries form.

Text format, written for other tools to read::

    <nrows> <ncols> M
    <row> <col> <value>        # 1-based coordinates, row-major order
    ...
    0 0 0
"""

from __future__ import annotations

import numpy as np

from .linalg import is_int


class SparseMatrixError(ValueError):
    """Raised for malformed matrix data."""


def _exact_ints(what: str, a, dtype) -> np.ndarray:
    """`a` as an int32 array, or for `dtype` object as a flat array of
    exact Python ints, else SparseMatrixError naming `what`.  An int32
    array asked for as int32 is not scanned."""
    a = np.asarray(a)
    if a.dtype == dtype == np.int32:
        return a
    for v in ([] if a.dtype.kind in "iu" else a.flat):
        if not is_int(v):
            raise SparseMatrixError(f"{what} {v!r} is not an integer")
    if dtype == object:
        return np.array([int(v) for v in a.flat], dtype=object)
    lo, hi = (int(a.min()), int(a.max())) if a.size else (0, 0)
    if -(1 << 31) <= lo and hi < 1 << 31:
        return a.astype(np.int32)
    bad = lo if lo < -(1 << 31) else hi
    raise SparseMatrixError(f"{what} {bad} does not fit int32")


class SparseIntMatrix:
    """Exact integer sparse matrix in coordinate form.

    Attributes
    ----------
    nrows, ncols : int, each below 2^31
    row, col : int32 arrays, in the order given (not sorted)
    code : int32 array
        Entry i has value ``values[code[i]]``.
    values : object array of nonzero exact ints
    """

    __slots__ = ("nrows", "ncols", "row", "col", "code", "values")

    def __init__(self, nrows: int, ncols: int, row, col, code, values):
        shape = _exact_ints("shape", np.array([nrows, ncols], dtype=object),
                            np.int32).tolist()
        if min(shape) < 0:
            raise SparseMatrixError(f"negative shape {shape[0]} x {shape[1]}")
        self.nrows, self.ncols = shape
        row = _exact_ints("row index", row, np.int32)
        col = _exact_ints("column index", col, np.int32)
        code = _exact_ints("value code", code, np.int32)
        values = _exact_ints("value", values, object)
        if not row.size == col.size == code.size:
            raise SparseMatrixError("entry arrays disagree in length")
        if (values == 0).any():
            raise SparseMatrixError("zero-valued entry")
        if row.size:
            if row.min() < 0 or row.max() >= self.nrows:
                raise SparseMatrixError("row index out of range")
            if col.min() < 0 or col.max() >= self.ncols:
                raise SparseMatrixError("column index out of range")
            if code.min() < 0 or code.max() >= values.size:
                raise SparseMatrixError("value code out of range")
            # duplicates are equal neighbours among the sorted keys; the
            # key is column-major and int64, as col * nrows overflows
            # int32.  Each assembly fill writes columns increasing, rows
            # increasing within a column, so assembly's keys form a few
            # sorted runs, which the stable sort merges
            key = col.astype(np.int64)
            key *= self.nrows
            key += row
            key.sort(kind="stable")
            dup = key[1:][key[1:] == key[:-1]]
            if dup.size:
                c, r = divmod(int(dup[0]), self.nrows)
                raise SparseMatrixError(f"duplicate entry at row {r}, col {c}")
        self.row, self.col, self.code, self.values = row, col, code, values

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_coo(cls, nrows: int, ncols: int,
                 triples) -> "SparseIntMatrix":
        """Build from (row, col, value) triples of exact ints (or none);
        the table holds the distinct values in increasing order."""
        t = np.array(list(triples), dtype=object).reshape(-1, 3)
        values, code = np.unique(
            _exact_ints("value", t[:, 2], object),
            return_inverse=True)
        return cls(nrows, ncols, t[:, 0], t[:, 1], code, values)

    # -- basic queries -----------------------------------------------------

    @property
    def nnz(self) -> int:
        return int(self.row.size)

    @property
    def density(self) -> float:
        cells = self.nrows * self.ncols
        return self.nnz / cells if cells else 0.0

    # -- modular reduction -------------------------------------------------

    def arrays_mod(self, p: int, at: np.ndarray | None = None):
        """(rows, cols, values mod p): int32 arrays of the entries at the
        increasing int32 positions `at` (all when None), in that order,
        zero residues dropped.  Each table entry is reduced once."""
        if not is_int(p):
            raise SparseMatrixError(f"modulus {p!r} is not an integer")
        if not 1 < p < 1 << 31:
            raise SparseMatrixError(f"modulus {p} is not in [2, 2^31)")
        vals = (self.values % p).astype(np.int32)[
            self.code if at is None else self.code[at]]
        keep = vals != 0
        at = keep if at is None else at[keep]  # row, col gathered once
        return self.row[at], self.col[at], vals[keep]


# ---------------------------------------------------------------------------
# text format

# entries formatted per write: bounds the text held in memory at once
_WRITE_SLICE = 1 << 16


def write_matrix_text(matrix: SparseIntMatrix, path: str) -> None:
    """Write the matrix to `path` in the text format: header, entries
    (1-based indices, row-major order), '0 0 0' terminator.  Each
    table entry is formatted once."""
    order = np.lexsort((matrix.col, matrix.row))
    value_lines = [f"{v}\n" for v in matrix.values.tolist()]
    with open(path, "w") as f:
        f.write(f"{matrix.nrows} {matrix.ncols} M\n")
        for start in range(0, order.size, _WRITE_SLICE):
            at = order[start:start + _WRITE_SLICE]
            f.write("".join([f"{r} {c} {value_lines[k]}" for r, c, k in zip(
                (matrix.row[at] + 1).tolist(), (matrix.col[at] + 1).tolist(),
                matrix.code[at].tolist())]))
        f.write("0 0 0\n")
