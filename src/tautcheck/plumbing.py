"""Plumbing models: charts, intersection points, generator catalogs and
the restriction-matrix assembly.

Geometry conventions, per vertex l with nu_l = -selfint(l):

* the vertex curve carries two affine charts glued over x0*x1 = 1 with
  y1 = x0**nu_l * y0;
* incident edges occupy up to three marked points, the *slots* "0"
  (x0 = 0), "inf" (x1 = 0) and "1" (x0 = 1), assigned in that order to
  the incident edges sorted by (neighbor index, edge index);
* at an intersection point the two sides are cross-glued by swapping
  local coordinates, xbar_other = y_self and y_other = xbar_self, where
  xbar is the local arm coordinate of the slot (x0, x1, or x0 - 1).

Rows of the restriction matrix live at intersection points, written in
the chart of the smaller-index endpoint (the *canonical side*): the
window spans the monomials xbar^s y^t d/dxbar (1 <= s < j, 0 <= t < j)
and xbar^u y^v d/dy (0 <= u < j, 1 <= v < j), j the uniform vertex
multiplicity, so every point has 2j(j - 1) rows.  Columns are generator
sections of the twisted tangent sheaf of each vertex; entries are the
exact integer coordinates of their expansions, which all have the form
coef * C(n, k) with coef one of +-1, +-nu_l.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import DualGraph, admissibility_violations
from .linalg import _ranges, is_probable_prime, is_valid_modulus
from .sparse import SparseIntMatrix

SLOT0 = "0"
SLOTINF = "inf"
SLOT1 = "1"
_SLOT_ORDER = (SLOT0, SLOTINF, SLOT1)

KIND_DX = "dx"
KIND_DY = "dy"

FAMILY_DY = "dy"
FAMILY_DX = "dx"
FAMILY_DX_EXTRA = "dx_extra"


class PlumbingError(ValueError):
    """Raised for invalid models and for matrices too large to key."""


@dataclass(eq=False)
class PlumbingModel:
    """The charts of a dual graph: uniform multiplicity j, each vertex's
    nu = -selfint, slot assignments and intersection points."""

    j: int
    nu: list[int]
    slots: list[dict[int, str]]       # per vertex: edge index -> slot,
                                      # keys in incident order
    points: list[tuple[int, int]]     # per edge: its endpoints as declared
    row_count: int


def build_model(g: DualGraph, j: int, primes: list[int]) -> PlumbingModel:
    """Validate the graph and fix charts, slots and row layout.

    Parameters
    ----------
    g : DualGraph
        Connected, negative definite, all genus 0, valence <= 3.
    j : int
        The uniform multiplicity: a prime not among `primes` (so every
        vertex multiplicity stays invertible in every characteristic).
    primes : list of int
        Candidate characteristics (primes) the matrix will be analyzed at.

    The incident edges of a vertex take the slots ("0", "inf", "1") in
    incident order, truncated to its valence.
    """
    reasons = admissibility_violations(g)
    if reasons:
        raise PlumbingError("; ".join(reasons))
    if not is_probable_prime(j):
        raise PlumbingError(f"multiplicity j = {j} must be prime")
    for p in primes:
        if not is_valid_modulus(p):
            raise PlumbingError(f"candidate characteristic {p} is not a "
                                f"prime below 2^31")
    if j in set(primes):
        raise PlumbingError(f"j = {j} divides a vertex multiplicity in "
                            f"characteristic {j}; pick j outside the "
                            f"candidate primes")
    points = list(g.edges)
    incident: list[list[int]] = [[] for _ in range(g.n)]
    for ei, (a, b) in enumerate(points):
        incident[a].append(ei)
        incident[b].append(ei)
    slots: list[dict[int, str]] = []
    for l, eis in enumerate(incident):
        eis.sort(key=lambda ei: (sum(points[ei]) - l, ei))
        slots.append(dict(zip(eis, _SLOT_ORDER)))
    return PlumbingModel(j=j, nu=[-s for s in g.selfint],
                         slots=slots, points=points,
                         row_count=len(points) * _point_rows(j))


def _point_rows(w: int) -> int:
    """Rows of one point for window size `w`: (w - 1)w dx rows and as
    many dy rows."""
    return 2 * w * (w - 1)


# ---------------------------------------------------------------------------
# generator catalogs


def _terms(family: str, vanish_one: bool, nu: int, chart: int):
    """Chart expressions of a family as term templates
    (coef, xa, xb, xc, e, yoff, kind): the term is
    coef * x^(xa*a + xb*b + xc) * (x-1)^e * y^(b+yoff) d/d<kind>,
    in the requested chart's coordinates."""
    if family == FAMILY_DY:
        if chart == 0:
            return ((1, 1, 0, 0, 0, 0, KIND_DY),)
        return ((1, -1, nu, -nu, 0, 0, KIND_DY),)
    if family == FAMILY_DX:
        if not vanish_one:
            if chart == 0:
                return ((1, 1, 0, 0, 0, 0, KIND_DX),)
            return ((-1, -1, nu, 2, 0, 0, KIND_DX),
                    (nu, -1, nu, 1, 0, 1, KIND_DY))
        if chart == 0:
            return ((1, 1, 0, 0, 1, 0, KIND_DX),)
        return ((1, -1, nu, 1, 1, 0, KIND_DX),
                (-nu, -1, nu, 0, 1, 1, KIND_DY))
    if family == FAMILY_DX_EXTRA:
        if not vanish_one:
            if chart == 0:
                return ((-1, 0, nu, 2, 0, 0, KIND_DX),
                        (nu, 0, nu, 1, 0, 1, KIND_DY))
            return ((1, 0, 0, 0, 0, 0, KIND_DX),)
        if chart == 0:
            return ((-1, 0, nu, 1, 1, 0, KIND_DX),
                    (nu, 0, nu, 1, 0, 1, KIND_DY))
        return ((-1, 0, 0, 0, 1, 0, KIND_DX),
                (nu, 0, 0, 0, 0, 1, KIND_DY))
    raise PlumbingError(f"unknown family {family!r}")


# at most this many entries per slot-"1" fill and per renumbering slice:
# bounds the int64 temporaries of a fill (offsets, row ids, keys) and the
# int64 index copy `take` makes, whatever the size of the matrix
_FILL_CHUNK = 1 << 18


def _family_grid(model: PlumbingModel, l: int) -> tuple[bool, list]:
    """(vanish_one, grid) of vertex l: each family is one grid row
    (family, b_lo, a_lo, slope, intercept) holding b_lo <= b < j and
    a_lo <= a <= slope*b + intercept; dx_extra exists only while slot
    "inf" is free."""
    occ = model.slots[l].values()
    vanish_one, nu = SLOT1 in occ, model.nu[l]
    grid = [(FAMILY_DY, 1, 0, nu, -nu),
            (FAMILY_DX, 0, int(SLOT0 in occ), nu, int(not vanish_one))]
    if SLOTINF not in occ:
        grid.append((FAMILY_DX_EXTRA, 0, 0, 0, 0))
    return vanish_one, grid


def _point_context(model: PlumbingModel, l: int,
                   ei: int) -> tuple[int, bool, bool]:
    """(chart, shifted, swap) for the expansion of vertex-l sections at
    edge ei's point."""
    slot = model.slots[l][ei]
    return (1 if slot == SLOTINF else 0, slot == SLOT1,
            min(model.points[ei]) != l)


def _row_ids(xe: np.ndarray, ye: np.ndarray, kind: str, swap: bool,
             n: int, offset: int) -> np.ndarray:
    """Absolute row ids for side-l monomials (kind, xe, ye) in a point
    window of size `n`.  When the canonical side is the neighbor, the
    cross-gluing swaps the kind and the exponents."""
    if swap:
        kind = KIND_DY if kind == KIND_DX else KIND_DX
        xe, ye = ye, xe
    if kind == KIND_DX:
        return offset + (xe - 1) * n + ye
    return offset + (n - 1) * n + xe * (n - 1) + (ye - 1)


def _lows(kind: str) -> tuple[int, int]:
    """(xlo, ylo): the least exponents of a `kind` window monomial."""
    return (1, 0) if kind == KIND_DX else (0, 1)


def _window_mask(kind: str, xe: np.ndarray, ye: np.ndarray,
                 n: int) -> np.ndarray:
    xlo, ylo = _lows(kind)
    return (xe >= xlo) & (xe < n) & (ye >= ylo) & (ye < n)


def _binomials(nmax: int, kmax: int) -> np.ndarray:
    """Exact C(n, k) for 0 <= n <= nmax and 0 <= k <= kmax, from Pascal
    rows, as an object array."""
    rows = [[1] + [0] * kmax]
    for _ in range(nmax):
        prev = rows[-1]
        rows.append([1] + [prev[k] + prev[k - 1] for k in range(1, kmax + 1)])
    return np.array(rows, dtype=object)


def assemble_matrix(model: PlumbingModel) -> SparseIntMatrix:
    """Assemble the restriction matrix in one walk with the loops of
    `estimate_assembly` (vertex, family grid row, incident point, chart
    term, piece), writing every entry straight into row, column and key
    arrays of the counted length.  Columns are numbered once, on the
    candidate grid: all-zero candidate columns are dropped, and the rest
    keep their order.  An entry coef * C(n, k) is filled as one key for
    (coef, n, k); the keys in use are numbered the same way, and become
    codes into the exact table of their values.  A slot-"1" piece is
    filled in slices of `_FILL_CHUNK // j` consecutive columns, at most
    `_FILL_CHUNK` entries each since a column's run holds at most j, and
    the columns and keys are renumbered in slices of `_FILL_CHUNK`
    entries, so no temporary grows with the matrix.  Each fill writes
    columns increasing, rows increasing within a column.
    """
    est = estimate_assembly(model)
    n, nnz, cands = model.j, est["nnz"], est["candidate_columns"]
    # key of (coef, n, k): (coefs.index(coef) * nspan + n) * kspan + k;
    # n, k > 0 only at slot "1": k < j, n <= nu*(j - 1) + 2 (chart 0)
    coefs = sorted({c for nu in model.nu for c in (1, -1, nu, -nu)})
    nu1 = [nu for nu, s in zip(model.nu, model.slots) if SLOT1 in s.values()]
    nspan, kspan = (max(nu1) * (n - 1) + 3, n) if nu1 else (1, 1)
    # the peel holds entry positions as int32 too
    if max(len(coefs) * nspan * kspan, cands, nnz) >= 1 << 31:
        raise PlumbingError("value keys, columns or entries overflow int32")
    row, col, code = (np.empty(nnz, dtype=np.int32) for _ in range(3))
    # used[c]: candidate column c holds an entry
    used = np.zeros(cands, dtype=bool)
    end = col0 = 0
    # columns per slot-"1" fill: each holds a run of at most j entries
    step = max(1, _FILL_CHUNK // n)

    def fill(rows, cols, keys):
        nonlocal end
        at = slice(end, end + rows.size)
        end += rows.size
        if end > nnz:
            raise PlumbingError("more entries than the closed-form count")
        row[at], col[at], code[at] = rows, cols, keys

    for l, nu in enumerate(model.nu):
        vanish_one, grid = _family_grid(model, l)
        for family, b_lo, a_lo, slope, intercept in grid:
            bs = np.arange(b_lo, n, dtype=np.int64)
            lens = np.maximum(slope * bs + intercept - a_lo + 1, 0)
            a, b = _ranges(a_lo, lens), bs.repeat(lens)
            ids = np.arange(col0, col0 + a.size, dtype=np.int32)
            seen = used[col0:col0 + a.size]
            if (col0 := col0 + a.size) > used.size:
                raise PlumbingError("more columns than the closed-form count")
            for ei in model.slots[l]:
                chart, shifted, swap = _point_context(model, l, ei)
                where = (swap, n, ei * _point_rows(n))
                for coef, xa, xb, xc, e, yoff, kind in \
                        _terms(family, vanish_one, nu, chart):
                    xe = xa * a + xb * b + xc
                    ye = b + yoff
                    if not shifted:
                        # xbar^xe (xbar - 1)^e, one monomial per piece,
                        # with factor C(0, 0)
                        for c, x in (((coef, xe),) if e == 0 else
                                     ((coef, xe + 1), (-coef, xe))):
                            keep = _window_mask(kind, x, ye, n)
                            seen |= keep
                            fill(_row_ids(x[keep], ye[keep], kind, *where),
                                 ids[keep], coefs.index(c) * nspan * kspan)
                        continue
                    # (xbar+1)^xe xbar^e -> sum_k C(xe, k-e) xbar^k, one
                    # run of k >= klo per column
                    if xe.max(initial=0) >= nspan:
                        raise PlumbingError("binomial row beyond the key span")
                    xlo, ylo = _lows(kind)
                    klo = max(e, xlo)
                    runs = np.maximum(np.minimum(xe + e, n - 1) - klo + 1, 0)
                    runs *= (ye >= ylo) & (ye < n)
                    seen |= runs > 0
                    key = (coefs.index(coef) * nspan + xe) * kspan + klo - e
                    for s in range(0, runs.size, step):
                        at = slice(s, s + step)
                        rs = runs[at]
                        r = _ranges(0, rs)      # entry r of its column's run
                        fill(_row_ids(klo + r, ye[at].repeat(rs), kind,
                                      *where),
                             ids[at].repeat(rs), key[at].repeat(rs) + r)
    if end != nnz or col0 != used.size:
        raise PlumbingError("fewer entries or columns than counted")
    used_keys = np.zeros(len(coefs) * nspan * kspan, dtype=bool)
    used_keys[code] = True
    # candidate column -> matrix column and key -> code, each its place
    # among the used ones, in place and in slices (`take` copies its
    # int32 indices to int64); every index is in range, so "clip" moves
    # none, and unlike the default it buffers no copy of the output
    col_ids = np.cumsum(used, dtype=np.int32) - 1
    codes = np.cumsum(used_keys, dtype=np.int32) - 1
    for s in range(0, nnz, _FILL_CHUNK):
        at = slice(s, s + _FILL_CHUNK)
        col_ids.take(col[at], out=col[at], mode="clip")
        codes.take(code[at], out=code[at], mode="clip")
    c, nk = np.divmod(np.flatnonzero(used_keys), nspan * kspan)
    bn, bk = np.divmod(nk, kspan)
    values = np.array(coefs, dtype=object)[c] * \
        _binomials(bn.max(initial=0), bk.max(initial=0))[bn, bk]
    return SparseIntMatrix(model.row_count, int(np.count_nonzero(used)),
                           row, col, code, values)


def _ramp_sum(k: int, p: int, q: int, b0: int, b1: int) -> int:
    """Sum over b0 <= b <= b1 of R(p*b + q), where R(u) = max(u, 0) for
    k = 1 and R(u) = T(max(u, 0)), T(u) = u(u + 1)/2, for k = 2.  The
    slope p is 0 or some nu >= 1, never negative."""
    if p:
        b0 = max(b0, -q // p + 1)        # the first b with p*b + q > 0
    elif q <= 0:
        return 0
    m = b1 - b0 + 1
    if m <= 0:
        return 0
    u = p * b0 + q                       # the u's are u, u + p, ...
    s1 = m * u + p * m * (m - 1) // 2
    return s1 if k == 1 else (s1 + m * u * u + u * p * m * (m - 1) +
                              p * p * (m - 1) * m * (2 * m - 1) // 6) // 2


def estimate_assembly(model: PlumbingModel) -> dict:
    """Exact candidate column and entry counts in closed form, and a
    memory estimate of 96 bytes per entry.  It counts what the walk of
    `assemble_matrix` writes, in the same loops over the same grids,
    terms and window bounds (no additive cancellation occurs, so it is
    the assembled nnz; the walk sizes its arrays by it and checks it):
    for fixed b, xe runs over [lo(b), hi(b)], both linear in b,
    so a piece has P(hi) - P(lo - 1) entries, P(t) those at x <= t."""
    n = model.j
    cols = nnz = 0
    for l, nu in enumerate(model.nu):
        vanish_one, grid = _family_grid(model, l)
        for family, b_lo, a_lo, slope, intercept in grid:
            cols += _ramp_sum(1, slope, intercept - a_lo + 1, b_lo, n - 1)
            for ei in model.slots[l]:
                chart, shifted, _ = _point_context(model, l, ei)
                for _, xa, xb, xc, e, yoff, kind in \
                        _terms(family, vanish_one, nu, chart):
                    xlo, ylo = _lows(kind)
                    # b with ylo <= b + yoff < n; xe at a = a_lo and at
                    # a = slope*b + intercept, as (p, q) of p*b + q
                    b0, b1 = max(b_lo, ylo - yoff), n - 1 - yoff
                    ends = [(xb, xa * a_lo + xc),
                            (xa * slope + xb, xa * intercept + xc)]
                    (lp, lq), (hp, hq) = ends if xa >= 0 else ends[::-1]
                    # piece (s, low): P(t) = R(t + s - low + 1) - R(t +
                    # s - n + 1), unshifted for x = xe + s in [xlo, n),
                    # shifted for runs of clip(xe + e - klo + 1, 0, n - klo)
                    k, pieces = ((2, [(e, max(e, xlo))]) if shifted else
                                 (1, [(d, xlo) for d in range(e + 1)]))
                    for s, low in pieces:
                        for p, q, sign in ((hp, hq, 1), (lp, lq - 1, -1)):
                            nnz += sign * (
                                _ramp_sum(k, p, q + s - low + 1, b0, b1) -
                                _ramp_sum(k, p, q + s - n + 1, b0, b1))
    return {
        "candidate_columns": cols,
        "nnz": nnz,
        "assembly_peak_bytes": nnz * 96,
    }
