"""Sparse exact integer matrices with factored entries.

Entries produced by the plumbing assembly all have the shape
``base * C(n, k)`` with a small base (one of +-1, +-nu) and a binomial
coefficient from the chart shift x -> x+1.  Storing the two factors
instead of the (potentially hundreds of digits) product keeps the big
workloads in hundreds of MB instead of GB and makes reduction mod p a
table lookup.  A value beyond int64 (a literal from `from_coo` or the
text format, or a uint64) makes `base` an object array of exact ints.

Entries are stored in the order they are given; `entries()` and the
text format list them in row-major order (row, then column).  No
duplicate coordinates and no zero values are allowed.

Text format::

    <nrows> <ncols> M
    <row> <col> <value>        # 1-based coordinates, any order
    ...
    0 0 0
"""

from __future__ import annotations

import math
import numbers

import numpy as np


class SparseMatrixError(ValueError):
    """Raised for malformed matrix data or files."""


def _pascal_mod(nmax: int, p: int) -> np.ndarray:
    """Table of C(n, k) mod p for 0 <= k <= n <= nmax."""
    t = np.zeros((nmax + 1, nmax + 1), dtype=np.int64)
    t[:, 0] = 1 % p
    for n in range(1, nmax + 1):
        t[n, 1:n + 1] = (t[n - 1, 1:n + 1] + t[n - 1, 0:n]) % p
    return t


def _exact_ints(what: str, a, dtype, wide: bool = False) -> np.ndarray:
    """`a` as a `dtype` array of exact integers, else SparseMatrixError
    naming `what`; with `wide`, values beyond `dtype` give an object array
    of exact ints.  An array that has `dtype` already is not scanned."""
    a = np.asarray(a)
    if a.dtype == dtype:
        return a
    # `int` is tested first; the numbers.Integral test is slow
    for v in ([] if a.dtype.kind in "iu" else a.flat):
        if type(v) is not int and not isinstance(v, numbers.Integral):
            raise SparseMatrixError(f"{what} {v!r} is not an integer")
    lo, hi = (int(a.min()), int(a.max())) if a.size else (0, 0)
    info = np.iinfo(dtype)
    if info.min <= lo and hi <= info.max:
        return a.astype(dtype)
    if not wide:
        bad = lo if lo < info.min else hi
        raise SparseMatrixError(f"{what} {bad} does not fit {dtype.__name__}")
    return np.array([int(v) for v in a.flat], dtype=object)


class SparseIntMatrix:
    """Exact integer sparse matrix in coordinate form.

    Attributes
    ----------
    nrows, ncols : int
    row, col : int64 arrays, in the order given (not sorted)
    base, bin_n, bin_k : arrays
        Entry i has value ``base[i] * C(bin_n[i], bin_k[i])``.  `base` is
        int64, or an object array of exact ints when a value does not
        fit int64.
    """

    __slots__ = ("nrows", "ncols", "row", "col", "base", "bin_n", "bin_k")

    def __init__(self, nrows: int, ncols: int, row, col, base, bin_n, bin_k):
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        row = _exact_ints("row index", row, np.int64)
        col = _exact_ints("column index", col, np.int64)
        base = _exact_ints("value", base, np.int64, wide=True)
        bin_n = _exact_ints("binomial", bin_n, np.int32)
        bin_k = _exact_ints("binomial", bin_k, np.int32)
        if not (row.size == col.size == base.size == bin_n.size == bin_k.size):
            raise SparseMatrixError("entry arrays disagree in length")
        if self.nrows * self.ncols >= 1 << 63:
            raise SparseMatrixError("shape has 2^63 or more cells")
        if row.size:
            if row.min() < 0 or row.max() >= self.nrows:
                raise SparseMatrixError("row index out of range")
            if col.min() < 0 or col.max() >= self.ncols:
                raise SparseMatrixError("column index out of range")
            if (bin_k < 0).any() or (bin_k > bin_n).any():
                raise SparseMatrixError("invalid binomial factor")
            # duplicates are equal neighbours among the sorted keys
            key = row * self.ncols
            key += col
            key.sort()
            dup = key[1:][key[1:] == key[:-1]]
            if dup.size:
                r, c = divmod(int(dup[0]), self.ncols)
                raise SparseMatrixError(f"duplicate entry at row {r}, col {c}")
            if (base == 0).any():
                raise SparseMatrixError("zero-valued entry")
        self.row, self.col = row, col
        self.base, self.bin_n, self.bin_k = base, bin_n, bin_k

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_coo(cls, nrows: int, ncols: int,
                 triples) -> "SparseIntMatrix":
        """Build from (row, col, value) triples of exact ints (or none)."""
        t = np.array(list(triples), dtype=object).reshape(-1, 3)
        z = np.zeros(len(t), dtype=np.int32)
        return cls(nrows, ncols, t[:, 0], t[:, 1], t[:, 2], z, z)

    # -- basic queries -----------------------------------------------------

    @property
    def nnz(self) -> int:
        return int(self.row.size)

    @property
    def density(self) -> float:
        cells = self.nrows * self.ncols
        return self.nnz / cells if cells else 0.0

    def value(self, i: int) -> int:
        return int(self.base[i]) * math.comb(int(self.bin_n[i]),
                                             int(self.bin_k[i]))

    def entries(self):
        """Yield (row, col, exact int value) in row-major order."""
        for i in np.lexsort((self.col, self.row)).tolist():
            yield int(self.row[i]), int(self.col[i]), self.value(i)

    def to_dense(self) -> list[list[int]]:
        a = [[0] * self.ncols for _ in range(self.nrows)]
        for r, c, v in self.entries():
            a[r][c] = v
        return a

    # -- modular reduction -------------------------------------------------

    def arrays_mod(self, p: int):
        """(rows, cols, values mod p) with zero residues dropped."""
        vals = (self.base % p).astype(np.int64, copy=False)
        pas = _pascal_mod(int(self.bin_n.max(initial=0)), p)
        vals *= pas[self.bin_n, self.bin_k]
        vals %= p
        keep = vals != 0
        return self.row[keep], self.col[keep], vals[keep]


# ---------------------------------------------------------------------------
# text format


def _text_lines(matrix: SparseIntMatrix):
    """The line-based triple format: header, entries (1-based indices,
    row-major order), '0 0 0' terminator."""
    yield f"{matrix.nrows} {matrix.ncols} M\n"
    for r, c, v in matrix.entries():
        yield f"{r + 1} {c + 1} {v}\n"
    yield "0 0 0\n"


def write_matrix_text(matrix: SparseIntMatrix, path: str) -> None:
    """Write the matrix to `path` in the triple format."""
    with open(path, "w") as f:
        f.writelines(_text_lines(matrix))


def matrix_to_text(matrix: SparseIntMatrix) -> str:
    return "".join(_text_lines(matrix))


def matrix_from_text(text: str) -> SparseIntMatrix:
    """Parse the triple format.  Entries may come in any order; duplicate
    coordinates, zero values, out-of-range indices, or a missing
    terminator are errors."""
    lines = text.splitlines()
    if not lines:
        raise SparseMatrixError("empty matrix file")
    head = lines[0].split()
    if len(head) != 3 or head[2] != "M":
        raise SparseMatrixError(f"bad header line {lines[0]!r}")
    try:
        nrows, ncols = int(head[0]), int(head[1])
    except ValueError:
        raise SparseMatrixError(f"bad header line {lines[0]!r}") from None
    if nrows < 0 or ncols < 0:
        raise SparseMatrixError("negative dimensions")
    triples: list[tuple[int, int, int]] = []
    done = False
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        if done:
            raise SparseMatrixError(f"line {lineno}: content after terminator")
        parts = line.split()
        if len(parts) != 3:
            raise SparseMatrixError(f"line {lineno}: expected 3 fields")
        try:
            r, c, v = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise SparseMatrixError(f"line {lineno}: non-integer field") from None
        if r == 0 and c == 0 and v == 0:
            done = True
            continue
        if not (1 <= r <= nrows and 1 <= c <= ncols):
            raise SparseMatrixError(f"line {lineno}: index out of range")
        if v == 0:
            raise SparseMatrixError(f"line {lineno}: explicit zero entry")
        triples.append((r - 1, c - 1, v))
    if not done:
        raise SparseMatrixError("missing '0 0 0' terminator")
    return SparseIntMatrix.from_coo(nrows, ncols, triples)


def read_matrix_text(path: str) -> SparseIntMatrix:
    with open(path) as f:
        return matrix_from_text(f.read())
