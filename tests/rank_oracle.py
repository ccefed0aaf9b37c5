"""Oracles shared by the test modules: a dense rank by textbook
elimination over the prime field on a numpy array, independent of
`rank_mod_p`, a matrix's entries read straight from its arrays, their
residues computed one exact value at a time, independent of
`arrays_mod`, a matrix's dense form, and a parser of the matrix text
format that `write_matrix_text` writes.  Nothing here imports
`tautcheck`."""

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


def triples(matrix):
    """(row, col, exact value) of every entry, in stored order, read from
    the entry arrays: entry i has value values[code[i]]."""
    return list(zip(matrix.row.tolist(), matrix.col.tolist(),
                    matrix.values[matrix.code].tolist()))


def oracle_residues(matrix, p):
    """(row, col, value mod p) of every entry whose residue is nonzero,
    in stored order, from the exact value of each entry."""
    return [(r, c, v % p) for r, c, v in triples(matrix) if v % p]


def oracle_dense(matrix):
    """The matrix as a list of rows of exact ints, from `triples`."""
    dense = [[0] * matrix.ncols for _ in range(matrix.nrows)]
    for r, c, v in triples(matrix):
        dense[r][c] = v
    return dense


def parse_matrix_text(text):
    """(nrows, ncols, triples) from the matrix text format: the header
    '<nrows> <ncols> M', one '<row> <col> <value>' line per entry with
    1-based coordinates in range and a nonzero value, and '0 0 0' as the
    last line.  Each field is separated by one space and every line ends
    in a newline.  The triples are 0-based, in file order; anything else
    raises ValueError."""
    head, *body = text.split("\n")
    nrows, ncols, tag = head.split(" ")
    nrows, ncols = int(nrows), int(ncols)
    if tag != "M" or body[-2:] != ["0 0 0", ""]:
        raise ValueError("no 'M' header or no '0 0 0' terminator")
    out = []
    for line in body[:-2]:
        r, c, v = map(int, line.split(" "))
        if not (0 < r <= nrows and 0 < c <= ncols and v):
            raise ValueError(f"bad entry line {line!r}")
        out.append((r - 1, c - 1, v))
    return nrows, ncols, out
