"""Exact rank computations for large sparse integer matrices.

Strategy, the structured Gaussian elimination of Dumas & Villard (CASC
2002):

1. *peel* over ℤ, once per matrix: pivot on rows/columns with a single
   entry when that entry is ±1, a unit mod every prime, and delete the
   crossing line.  Each such pivot contributes exactly 1 to the rank at
   every prime alike.  Once most of the entries a peel round scans are
   dead, the survivors are copied out and later rounds scan only them;
2. per prime, gather the entries that peel left mod p by their
   positions through `SparseIntMatrix.arrays_mod`, which drops the zero
   residues, and peel again, now on any singleton.  A prime whose
   residual is empty costs nothing more;
3. rank the core left by sparse elimination in a fixed column order,
   sparsest first; a column's append-only row list is filtered at its visit.

The rational rank is bounded by modular ranks: the rank mod any prime
never exceeds the rank over the rationals, which never exceeds
min(rows, cols).  `prove_rank_over_Q` ranks the candidate primes one
after another, then seeded 31-bit primes, until one reaches min(rows,
cols) and so proves the rational rank; if none does, its result is
reported as a lower bound.
"""

from __future__ import annotations

import functools
import numbers
import random
from typing import NamedTuple

import numpy as np

_SEED = 0x7A07
_SAMPLED_PRIMES = 3


class LinalgError(ValueError):
    """Raised for invalid matrix arguments or exceeded size caps."""


def is_int(x) -> bool:
    """The package's one integer rule: any `numbers.Integral` (numpy
    integers included) except bool, since True as a prime, cap, index or
    coefficient is a slip."""
    # `int` is tested first; the numbers.Integral test is slow
    return type(x) is int or (isinstance(x, numbers.Integral)
                              and not isinstance(x, bool))


# ---------------------------------------------------------------------------
# primes

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with fixed bases; deterministic below 3.3e24.  An
    argument that is not an integer is refused with LinalgError."""
    if not is_int(n):
        raise LinalgError(f"{n!r} is not an integer")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_valid_modulus(p: int) -> bool:
    """A prime below 2^31: the moduli `rank_mod_p` works in."""
    return is_probable_prime(p) and p < 1 << 31


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than the integer n."""
    if not is_int(n):
        raise LinalgError(f"{n!r} is not an integer")
    m = n + 1
    while not is_probable_prime(m):
        m += 1
    return m


def sample_rank_primes(trials: int) -> list[int]:
    """`trials` distinct random primes in (2^30, 2^31), drawn once per
    process from a fixed seed (so reports are byte-identical across
    runs); each call returns a fresh list."""
    return list(_draw_rank_primes(trials))


@functools.cache
def _draw_rank_primes(trials: int) -> tuple[int, ...]:
    rng = random.Random(_SEED)
    out: list[int] = []
    while len(out) < trials:
        cand = rng.randrange(2**30 + 1, 2**31) | 1
        if cand not in out and is_probable_prime(cand):
            out.append(cand)
    return tuple(out)


# ---------------------------------------------------------------------------
# rank mod p


# bulk peel rounds go on while a round on each side deletes at least this
# share of the entries left; frontier rounds finish the peel
_BULK_SHARE = 1 / 8
# a bulk round copies out the live entries once fewer than this share of
# the entries it scanned is alive, so a copy is at most half what it
# replaces
_COMPACT_SHARE = 1 / 2


def _ranges(start, size: np.ndarray) -> np.ndarray:
    """start[i], ..., start[i] + size[i] - 1 for each i in turn, as
    int64; a scalar `start` starts every range."""
    # each range shifted from its place in the concatenation
    shift = np.repeat(start - (np.cumsum(size) - size), size)
    return shift + np.arange(shift.size, dtype=np.int64)


def _members(index: tuple[np.ndarray, np.ndarray],
             lines: np.ndarray) -> np.ndarray:
    """Positions of every entry that `index` (ptr, order) lists under
    `lines`."""
    ptr, order = index
    start = ptr[lines]
    return order[_ranges(start, ptr[lines + 1] - start)]


def _peel(shape: tuple[int, int], ends: list[np.ndarray],
          pivot: np.ndarray | None) -> tuple[int, np.ndarray]:
    """Pivot on rows and columns holding exactly one entry, deleting the
    crossing line each time, until none is left.  Only entries where
    `pivot` is set may be pivots (every entry when it is None).  Each
    pivot adds 1 to the rank over any field where its entry is a unit:
    eliminating with it changes no other line.

    Returns (rank gained, int32 positions into `ends` of the entries
    left, increasing).  An alive mask and the live count of every line
    follow the deletions.

    Bulk rounds come first, on rows and columns in turn: each scans
    every entry held and pivots on every singleton line.  Once fewer
    than `_COMPACT_SHARE` of the entries a round scanned are alive, the
    survivors' ends and pivot flags are copied out, with a map from
    their positions back to the caller's, and later rounds read only the
    copies.  Once a round on each side deletes less than `_BULK_SHARE`
    of the entries left, frontier rounds finish: they index the live
    entries by row and by column once, and look only at the lines whose
    count has just fallen to 1.  A round on one side deletes lines of
    the other, so only its own side's counts fall: each side keeps its
    own frontier.  Both phases stay: without bulk rounds the survey's
    small trees, which peel away in them, pay for the index, and
    without frontier rounds E7's ℤ peel takes 137 rounds.
    """
    alive = np.ones(ends[0].size, dtype=bool)
    where = None                # the caller's positions of a copy's entries
    count = [np.bincount(e, minlength=n).astype(np.int32)
             for e, n in zip(ends, shape)]
    rank, side = 0, 0
    left = before = alive.size
    while left:
        line, cross = ends[side], ends[1 - side]
        single = (count[side] == 1)[line]
        single &= alive if pivot is None else alive & pivot
        gone = np.zeros(shape[1 - side], dtype=bool)
        gone[cross[single]] = True
        dead = gone[cross]
        dead &= alive
        alive ^= dead
        count[side] -= np.bincount(line[dead], minlength=shape[side])
        count[1 - side][gone] = 0
        rank += int(np.count_nonzero(gone))
        left -= int(np.count_nonzero(dead))
        if 0 < left < _COMPACT_SHARE * alive.size:
            keep = np.flatnonzero(alive)
            ends = [e[keep] for e in ends]
            if pivot is not None:
                pivot = pivot[keep]
            where = keep if where is None else where[keep]
            alive = np.ones(left, dtype=bool)
        side = 1 - side
        if side == 0:           # after a round on each side
            if before - left < _BULK_SHARE * before:
                break
            before = left
    if left not in (0, before):  # something left, and something to pivot on
        front = [np.flatnonzero(c == 1) for c in count]
        # (ptr, order) per side: the live entries of line k sit at
        # positions order[ptr[k]:ptr[k + 1]].  The columns' order is
        # sorted from the rows', so no third list of positions is held
        # while sorting
        index, order = [], np.flatnonzero(alive).astype(np.int32)
        for e, c in zip(ends, count):
            order = order[np.argsort(e[order])]
            index.append((np.concatenate(([0], np.cumsum(c))), order))
        while front[0].size or front[1].size:
            lines = front[side][count[side][front[side]] == 1]
            sole = _members(index[side], lines)
            sole = sole[alive[sole]]
            if pivot is not None:
                sole = sole[pivot[sole]]
            gone = np.unique(ends[1 - side][sole])
            rank += gone.size
            dead = _members(index[1 - side], gone)
            dead = dead[alive[dead]]
            alive[dead] = False
            count[1 - side][gone] = 0
            hit, lost = np.unique(ends[side][dead], return_counts=True)
            count[side][hit] -= lost
            front[side] = hit[count[side][hit] == 1]
            side = 1 - side
    kept = np.flatnonzero(alive)
    return rank, (kept if where is None else where[kept]).astype(np.int32)


def _sparse_core_rank_mod_p(rows: np.ndarray, cols: np.ndarray,
                            vals: np.ndarray, p: int) -> int:
    """Elimination over GF(p) that visits each column once, sorted by
    (entry count in the core, id), and pivots on its row with fewest
    entries (lowest id on ties); a column emptied by cancellation is
    skipped.  A pivot row holds no entry in a column already visited, so
    fill-in only reaches columns still to come.  Rows and columns are
    keyed by their ids, so the core needs no renumbering.  A column's
    list only grows: it may name rows that left the column, and a row
    twice; it is filtered against the exact row dicts once, at the visit."""
    rowd: dict[int, dict[int, int]] = {}
    colr: dict[int, list[int]] = {}
    for r, c, v in zip(rows.tolist(), cols.tolist(), vals.tolist()):
        rowd.setdefault(r, {})[c] = v
        colr.setdefault(c, []).append(r)
    rank = 0
    for c0 in sorted(colr, key=lambda c: (len(colr[c]), c)):
        rs = {r for r in colr.pop(c0) if c0 in rowd.get(r, ())}
        if not rs:
            continue
        r0 = min(rs, key=lambda r: (len(rowd[r]), r))
        rs.remove(r0)
        prow = rowd.pop(r0)
        inv = pow(prow.pop(c0), -1, p)
        rank += 1
        for r in rs:
            rd = rowd[r]
            f = rd.pop(c0) * inv % p
            for c2, v2 in prow.items():
                nv = (rd.get(c2, 0) - f * v2) % p
                if nv:
                    if c2 not in rd:
                        colr[c2].append(r)
                    rd[c2] = nv
                elif c2 in rd:
                    del rd[c2]
    return rank


class _Residual(NamedTuple):
    """What the peel over ℤ leaves of `matrix`: the rank its pivots give
    and the int32 positions of the entries left in its entry arrays."""

    matrix: object
    rank: int
    left: np.ndarray


def _peel_over_Z(matrix) -> _Residual:
    """Peel pivoting only on entries ±1: a unit mod every prime, so each
    pivot counts at every prime alike, and each prime has only the
    residual left to rank."""
    unit = np.array([abs(v) == 1 for v in matrix.values.tolist()],
                    dtype=bool)
    rank, left = _peel((matrix.nrows, matrix.ncols),
                       [matrix.row, matrix.col], unit[matrix.code])
    return _Residual(matrix, rank, left)


def _core_mod_p(residual: _Residual, p: int):
    """(rank, rows, cols, vals): the residual mod p, zero residues
    dropped, peeled; the rank of both peels and the core they leave."""
    m = residual.matrix
    rows, cols, vals = m.arrays_mod(p, residual.left)
    rank, core = _peel((m.nrows, m.ncols), [rows, cols], None)
    return residual.rank + rank, rows[core], cols[core], vals[core]


def _rank_residual_mod_p(residual: _Residual, p: int) -> int:
    """Rank over GF(p) of the matrix that `residual` was peeled from."""
    if not is_valid_modulus(p):
        raise LinalgError(f"modulus {p} is not a prime below 2^31")
    if not residual.left.size:
        return residual.rank
    p = int(p)
    rank, rows, cols, vals = _core_mod_p(residual, p)
    return rank + _sparse_core_rank_mod_p(rows, cols, vals, p)


def rank_mod_p(matrix, p: int) -> int:
    """Exact rank of an integer matrix over GF(p): peel over ℤ on the
    singleton rows and columns whose entry is ±1, reduce what is left
    mod p, peel it again on every singleton, then rank the core by
    elimination in one fixed column order, sparsest columns first.

    Parameters
    ----------
    matrix : SparseIntMatrix-like
        Needs `nrows`, `ncols`, the int32 entry arrays `row`, `col` and
        `code`, the table `values` of exact ints that `code` points
        into, and `arrays_mod(p, at)`.
    p : int
        A prime below 2^31.
    """
    return _rank_residual_mod_p(_peel_over_Z(matrix), p)


# ---------------------------------------------------------------------------
# rank over Q

class RationalRank(NamedTuple):
    """Outcome of `prove_rank_over_Q`.  `rank_q` is the largest modular
    rank seen: the rank over Q when `certificate_prime` is set, otherwise
    a lower bound for it."""

    ranks: dict[int, int]             # prime -> rank, for every prime ranked
    rank_q: int
    certificate_prime: int | None     # a prime whose rank is min(rows, cols)
    sampled_primes: list[int]         # the seeded 31-bit fallback primes


def prove_rank_over_Q(matrix, candidates) -> RationalRank:
    """Rank over Q from modular ranks, proved whenever one prime allows.

    rank mod p <= rank over Q <= min(rows, cols), so a prime whose rank
    reaches min(rows, cols) proves the rational rank.  The candidates
    are ranked first, one after another; the smallest one reaching full
    rank is the certificate.  Otherwise the seeded 31-bit primes are
    ranked one at a time, stopping at the first that reaches full rank.
    If none does, `rank_q` is an unproved lower bound: it is exact unless
    every ranked prime divides the same invariant factor.  The matrix is
    peeled over ℤ once; each prime ranks only what that peel left.
    """
    full = min(matrix.nrows, matrix.ncols)
    residual = _peel_over_Z(matrix)
    ranks = {p: _rank_residual_mod_p(residual, p)
             for p in sorted(set(candidates))}
    sampled = sample_rank_primes(_SAMPLED_PRIMES)
    proof = min((p for p, r in ranks.items() if r == full), default=None)
    for q in sampled:
        if proof is not None:
            break
        if q not in ranks:
            ranks[q] = _rank_residual_mod_p(residual, q)
        if ranks[q] == full:
            proof = q
    return RationalRank(ranks, max(ranks.values(), default=0), proof, sampled)
