"""Exact rank computations for large sparse integer matrices.

Strategy: reduce mod p, then

1. *peel* rows/columns with a single nonzero entry (each is a pivot and
   contributes exactly 1 to the rank — exact over a field);
2. rank the remaining core by sparse elimination in one column order,
   sparsest first, fixed up front (Dumas & Villard, CASC 2002).

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


def _peel_mod_p(nrows: int, ncols: int, rows: np.ndarray, cols: np.ndarray,
                vals: np.ndarray) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """Repeatedly pivot on rows/columns with a single nonzero entry.

    Returns (rank gained, remaining rows, cols, vals).  Exact over GF(p):
    a singleton row's column (and dually) can be eliminated wholesale.
    """
    rank, side, idle = 0, 0, 0
    ends, shape = [rows, cols], (nrows, ncols)
    # rows, then columns, in turn; stop after two passes that peel nothing
    while vals.size and idle < 2:
        line, cross = ends[side], ends[1 - side]
        # lines with exactly one entry: pivot there, delete the crossing lines
        single = (np.bincount(line, minlength=shape[side]) == 1)[line]
        gone = np.zeros(shape[1 - side], dtype=bool)
        gone[cross[single]] = True
        peeled = int(np.count_nonzero(gone))
        if peeled:
            keep = ~gone[cross]
            ends, vals = [e[keep] for e in ends], vals[keep]
        rank += peeled
        idle = 0 if peeled else idle + 1
        side = 1 - side
    return rank, ends[0], ends[1], vals


def _sparse_core_rank_mod_p(rows: np.ndarray, cols: np.ndarray,
                            vals: np.ndarray, p: int) -> int:
    """Elimination over GF(p) that visits each column once, sorted by
    (entry count in the core, id), and pivots on its row with fewest
    entries (lowest id on ties); a column emptied by cancellation is
    skipped.  A pivot row holds no entry in a column already visited, so
    fill-in only reaches columns still to come.  Rows and columns are
    keyed by their ids, so the core needs no renumbering."""
    rowd: dict[int, dict[int, int]] = {}
    colr: dict[int, set[int]] = {}
    for r, c, v in zip(rows.tolist(), cols.tolist(), vals.tolist()):
        rowd.setdefault(r, {})[c] = v
        colr.setdefault(c, set()).add(r)
    rank = 0
    for c0 in sorted(colr, key=lambda c: (len(colr[c]), c)):
        rs = colr.pop(c0)
        if not rs:
            continue
        r0 = min(rs, key=lambda r: (len(rowd[r]), r))
        rs.remove(r0)
        prow = rowd.pop(r0)
        inv = pow(prow.pop(c0), -1, p)
        for c2 in prow:
            colr[c2].discard(r0)
        rank += 1
        for r in rs:
            rd = rowd[r]
            f = rd.pop(c0) * inv % p
            for c2, v2 in prow.items():
                nv = (rd.get(c2, 0) - f * v2) % p
                if nv:
                    if c2 not in rd:
                        colr[c2].add(r)
                    rd[c2] = nv
                elif c2 in rd:
                    del rd[c2]
                    colr[c2].discard(r)
    return rank


def rank_mod_p(matrix, p: int) -> int:
    """Exact rank of an integer matrix over GF(p): reduce mod p, peel the
    singleton rows and columns, then rank the core by elimination in one
    fixed column order, sparsest columns first.

    Parameters
    ----------
    matrix : SparseIntMatrix-like
        Needs `nrows`, `ncols` and `arrays_mod(p) -> (rows, cols, vals)`
        with zero residues dropped.
    p : int
        A prime below 2^31.
    """
    if not is_valid_modulus(p):
        raise LinalgError(f"modulus {p} is not a prime below 2^31")
    rows, cols, vals = matrix.arrays_mod(p)
    rank, rows, cols, vals = _peel_mod_p(matrix.nrows, matrix.ncols,
                                         rows, cols, vals)
    return rank + _sparse_core_rank_mod_p(rows, cols, vals, p)


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
    every ranked prime divides the same invariant factor.
    """
    full = min(matrix.nrows, matrix.ncols)
    ranks = {p: rank_mod_p(matrix, p) for p in sorted(set(candidates))}
    sampled = sample_rank_primes(_SAMPLED_PRIMES)
    proof = min((p for p, r in ranks.items() if r == full), default=None)
    for q in sampled:
        if proof is not None:
            break
        if q not in ranks:
            ranks[q] = rank_mod_p(matrix, q)
        if ranks[q] == full:
            proof = q
    return RationalRank(ranks, max(ranks.values(), default=0), proof, sampled)
