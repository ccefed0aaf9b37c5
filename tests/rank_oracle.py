"""Oracles shared by the test modules: a dense rank by textbook
elimination over the prime field on a numpy array, independent of
`rank_mod_p`, the residues of a matrix's entries computed one exact
value at a time, independent of `arrays_mod`, and a matrix's dense
form."""

import numpy as np


def oracle_rank_dense(dense, p):
    """Textbook elimination over the prime field, vectorized."""
    a = np.array(dense, dtype=np.int64) % p
    if a.size == 0:
        return 0
    rows, cols = a.shape
    rank = 0
    for c in range(cols):
        pivots = np.nonzero(a[rank:, c])[0]
        if pivots.size == 0:
            continue
        pr = rank + int(pivots[0])
        if pr != rank:
            a[[rank, pr]] = a[[pr, rank]]
        inv = pow(int(a[rank, c]), p - 2, p)
        a[rank] = a[rank] * inv % p
        other = np.nonzero(a[:, c])[0]
        other = other[other != rank]
        if other.size:
            a[other] = (a[other] - np.outer(a[other, c], a[rank])) % p
        rank += 1
        if rank == rows:
            break
    return rank


def oracle_residues(matrix, p):
    """(row, col, value mod p) of every entry whose residue is nonzero,
    in stored order, from the exact value of each entry."""
    out = []
    for i in range(matrix.nnz):
        v = matrix.value(i) % p
        if v:
            out.append((int(matrix.row[i]), int(matrix.col[i]), v))
    return out


def oracle_dense(matrix):
    """The matrix as a list of rows of exact ints, from `entries()`."""
    dense = [[0] * matrix.ncols for _ in range(matrix.nrows)]
    for r, c, v in matrix.entries():
        dense[r][c] = v
    return dense
