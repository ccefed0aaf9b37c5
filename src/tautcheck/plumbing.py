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
base * C(n, k) with base one of +-1, +-nu_l.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .graph import DualGraph, admissibility_violations
from .linalg import is_probable_prime, is_valid_modulus
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
    """Raised for invalid models, slot assignments or expansion targets."""


@dataclass
class GeneratorColumn:
    """A generator section on `vertex`; families are "dy" (sections of
    the y-derivation catalog), "dx" (x-derivation catalog) and
    "dx_extra" (the one-per-b section hidden in the second chart,
    present when slot "inf" is free).  The (a, b) ranges of each family
    are the grid rows of `_candidate_columns`."""

    index: int | None
    vertex: int
    family: str
    a: int
    b: int


@dataclass(eq=False)
class PlumbingModel:
    """A dual graph with uniform multiplicity j and slot assignments."""

    graph: DualGraph
    j: int
    nu: list[int]
    slots: list[dict[int, str]]       # per vertex: edge index -> slot,
                                      # keys in incident order
    points: list[tuple[int, int]]     # per edge: its endpoints as declared
    row_count: int

    def occupancy(self, l: int) -> frozenset[str]:
        return frozenset(self.slots[l].values())

    def neighbors(self, l: int) -> set[int]:
        return {a + b - l for a, b in self.points if l in (a, b)}


def build_model(g: DualGraph, j: int, primes: list[int],
                slot_assignment: dict[int, list[str]] | None = None
                ) -> PlumbingModel:
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
    slot_assignment : dict, optional
        Per vertex index, the slot of each incident edge in canonical
        incident order; defaults to ("0", "inf", "1") truncated to the
        valence.  Any assignment of distinct slots is accepted (the rank
        is invariant under permutations; the matrix is not).
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
    points = g.edge_indices()
    incident: list[list[int]] = [[] for _ in range(g.n)]
    for ei, (a, b) in enumerate(points):
        incident[a].append(ei)
        incident[b].append(ei)
    slots: list[dict[int, str]] = []
    for l, eis in enumerate(incident):
        eis.sort(key=lambda ei: (sum(points[ei]) - l, ei))
        if slot_assignment is not None and l in slot_assignment:
            chosen = list(slot_assignment[l])
            if len(chosen) != len(eis):
                raise PlumbingError(f"vertex {l}: slot assignment needs "
                                    f"{len(eis)} slots")
            if len(set(chosen)) != len(chosen) or \
                    not set(chosen) <= set(_SLOT_ORDER):
                raise PlumbingError(f"vertex {l}: slots must be distinct "
                                    f"members of {_SLOT_ORDER}")
        else:
            chosen = list(_SLOT_ORDER[:len(eis)])
        slots.append(dict(zip(eis, chosen)))
    return PlumbingModel(graph=g, j=j, nu=[-g.data[v].selfint for v in g.ids],
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


def _ragged_arange(lengths: np.ndarray) -> np.ndarray:
    total = int(lengths.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    starts = np.cumsum(lengths) - lengths
    return np.arange(total, dtype=np.int64) - np.repeat(starts, lengths)


@dataclass
class _ColumnBatch:
    vertex: int
    family: str
    vanish_one: bool
    col_start: int
    a: np.ndarray
    b: np.ndarray


def _candidate_columns(model: PlumbingModel) -> list[_ColumnBatch]:
    """Per (vertex, family) parameter grids in canonical column order
    (vertex, then family dy < dx < dx_extra, then b, then a).  Each
    family is one grid row (family, b_lo, a_lo, slope, intercept) holding
    b_lo <= b < j and a_lo <= a <= slope*b + intercept; dx_extra exists
    only while slot "inf" is free."""
    batches: list[_ColumnBatch] = []
    col, j = 0, model.j
    for l, nu in enumerate(model.nu):
        occ = model.occupancy(l)
        vanish_one = SLOT1 in occ
        grid = [(FAMILY_DY, 1, 0, nu, -nu),
                (FAMILY_DX, 0, int(SLOT0 in occ), nu, int(not vanish_one))]
        if SLOTINF not in occ:
            grid.append((FAMILY_DX_EXTRA, 0, 0, 0, 0))
        for family, b_lo, a_lo, slope, intercept in grid:
            bs = np.arange(b_lo, j, dtype=np.int64)
            lens = np.maximum(slope * bs + intercept - a_lo + 1, 0)
            a = _ragged_arange(lens) + a_lo
            batches.append(_ColumnBatch(l, family, vanish_one, col, a,
                                        np.repeat(bs, lens)))
            col += int(a.size)
    return batches


def _column_count(batches: list[_ColumnBatch]) -> int:
    return (batches[-1].col_start + batches[-1].a.size) if batches else 0


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


def _window_mask(kind: str, xe: np.ndarray, ye: np.ndarray,
                 n: int) -> np.ndarray:
    xlo = 1 if kind == KIND_DX else 0
    ylo = 1 if kind == KIND_DY else 0
    return (xe >= xlo) & (xe < n) & (ye >= ylo) & (ye < n)


class _Runs(NamedTuple):
    """Entries of one block, one run per candidate column of a batch:
    lens[i] entries in column col0 + i, at the side-l monomials
    (kind, x0[i] + r, ye[i]) with value coef * C(bin_n[i], bin_k[i] + r),
    for 0 <= r < lens[i].  `lens` is a boolean mask when every run has
    length 0 or 1; x0, bin_n and bin_k are arrays or one int for all."""

    col0: int
    lens: np.ndarray
    x0: np.ndarray | int
    ye: np.ndarray
    bin_n: np.ndarray | int
    bin_k: np.ndarray | int
    coef: int
    where: tuple                     # (kind, swap, n, offset)


def _entry_runs(model: PlumbingModel, batches: list[_ColumnBatch]):
    """Every matrix entry in the point windows of size n = j, walked once
    per (column batch, incident point, chart term) and yielded as `_Runs`
    blocks.  An unshifted term gives runs of length 0 or 1 with factor
    C(0, 0)."""
    n = model.j
    for batch in batches:
        l = batch.vertex
        for ei in model.slots[l]:
            chart, shifted, swap = _point_context(model, l, ei)
            offset = ei * _point_rows(n)
            for coef, xa, xb, xc, e, yoff, kind in \
                    _terms(batch.family, batch.vanish_one, model.nu[l], chart):
                xe = xa * batch.a + xb * batch.b + xc
                ye = batch.b + yoff
                where = (kind, swap, n, offset)
                if not shifted:
                    # xbar^xe (xbar - 1)^e, one monomial per piece
                    for c, x in (((coef, xe),) if e == 0 else
                                 ((coef, xe + 1), (-coef, xe))):
                        lens = _window_mask(kind, x, ye, n)
                        yield _Runs(batch.col_start, lens, x, ye, 0, 0, c, where)
                    continue
                # (xbar+1)^xe xbar^e -> sum_k C(xe, k-e) xbar^k, k >= klo
                klo = max(e, 1 if kind == KIND_DX else 0)
                ylo = 1 if kind == KIND_DY else 0
                lens = np.maximum(np.minimum(xe + e, n - 1) - klo + 1, 0)
                lens *= (ye >= ylo) & (ye < n)
                yield _Runs(batch.col_start, lens, klo, ye, xe, klo - e, coef,
                            where)


def _spread(v: np.ndarray | int, lens: np.ndarray) -> np.ndarray | int:
    """Per-run values over the entries of their runs (an int stays)."""
    return v.repeat(lens) if isinstance(v, np.ndarray) else v


def _used_columns(runs, ncols: int) -> np.ndarray:
    """Bitmap of the candidate columns that hold an entry of `runs`."""
    used = np.zeros(ncols, dtype=bool)
    for run in runs:
        used[run.col0:run.col0 + run.lens.size] |= run.lens > 0
    return used


def assemble_matrix(model: PlumbingModel, *, drop_zero_columns: bool = True
                    ) -> SparseIntMatrix:
    """Assemble the restriction matrix.

    Keeps the non-empty runs of one `_entry_runs` walk, allocates the
    entry arrays once for their total length and fills them; never
    materializes a dense row.  Columns are numbered once, on the
    candidate grid: all-zero candidate columns are dropped unless
    `drop_zero_columns` is false, and the rest keep their order.
    """
    batches = _candidate_columns(model)
    ncols = _column_count(batches)
    runs = [(run, n) for run in _entry_runs(model, batches)
            if (n := int(run.lens.sum()))]
    used = (_used_columns((run for run, _ in runs), ncols)
            if drop_zero_columns else np.ones(ncols, dtype=bool))
    new_id = np.cumsum(used) - 1         # candidate column -> matrix column
    ncols = int(np.count_nonzero(used))
    nnz = sum(n for _, n in runs)
    row, col, base = (np.empty(nnz, dtype=np.int64) for _ in range(3))
    bin_n, bin_k = (np.empty(nnz, dtype=np.int32) for _ in range(2))
    end = 0
    for run, n in runs:
        # offsets along the runs; all 0 when every run is one entry long
        r = 0 if run.lens.dtype == bool else _ragged_arange(run.lens)
        at = slice(end, end + n)
        end += n
        row[at] = _row_ids(_spread(run.x0, run.lens) + r,
                           _spread(run.ye, run.lens), *run.where)
        col[at] = new_id[run.col0:run.col0 + run.lens.size].repeat(run.lens)
        base[at] = run.coef
        bin_n[at] = _spread(run.bin_n, run.lens)
        bin_k[at] = _spread(run.bin_k, run.lens) + r
    del runs                 # freed before the key sort
    return SparseIntMatrix(model.row_count, ncols, row, col, base, bin_n,
                           bin_k)


def enumerate_generators(model: PlumbingModel,
                         drop_zero_columns: bool = True
                         ) -> list[GeneratorColumn]:
    """The matrix columns (post zero-column drop), canonical order.  The
    drop reads the used columns from one walk of the entries."""
    batches = _candidate_columns(model)
    ncols = _column_count(batches)
    used = (_used_columns(_entry_runs(model, batches), ncols)
            if drop_zero_columns else np.ones(ncols, dtype=bool))
    columns: list[GeneratorColumn] = []
    for batch in batches:
        keep = used[batch.col_start:batch.col_start + batch.a.size]
        for a, b in zip(batch.a[keep].tolist(), batch.b[keep].tolist()):
            columns.append(GeneratorColumn(len(columns), batch.vertex,
                                           batch.family, a, b))
    return columns


def expand_at_point(col: GeneratorColumn, ei: int,
                    model: PlumbingModel) -> dict[tuple[str, int, int], int]:
    """Exact expansion of one generator in the window of the point of
    edge `ei`.

    Returns a map (kind, e1, e2) -> value in canonical-side coordinates.
    Returns {} when the point does not touch the generator's vertex but
    does touch a neighbor (the restriction is zero there); raises
    PlumbingError when the point is entirely elsewhere or `ei` is not an
    edge index.  Components outside the window are dropped (for catalog
    generators they are fixed contributions, independent of the window).

    The descriptor's (a, b) are not range-checked; expanding an
    out-of-range descriptor may hit a negative exponent in the second
    chart, which is an error.
    """
    if ei not in range(len(model.points)):
        raise PlumbingError(f"point {ei} is not an edge index of the model")
    l = col.vertex
    if l not in model.points[ei]:
        if model.neighbors(l) & set(model.points[ei]):
            return {}
        raise PlumbingError(f"point {ei} is not incident to vertex "
                            f"{l} or its neighbors")
    nu = model.nu[l]
    chart, shifted, swap = _point_context(model, l, ei)
    vanish_one = SLOT1 in model.occupancy(l)
    out: dict[tuple[str, int, int], int] = {}

    def put(kind, xe, ye, val):
        if val == 0:
            return
        if not bool(_window_mask(kind, np.int64(xe), np.int64(ye), model.j)):
            return
        if not swap:
            key = (kind, xe, ye)
        else:
            key = (KIND_DY if kind == KIND_DX else KIND_DX, ye, xe)
        out[key] = out.get(key, 0) + val
        if out[key] == 0:
            del out[key]

    for coef, xa, xb, xc, e, yoff, kind in _terms(col.family, vanish_one,
                                                  nu, chart):
        xe = xa * col.a + xb * col.b + xc
        ye = col.b + yoff
        if xe < 0:
            raise PlumbingError(f"negative exponent {xe} in chart {chart}: "
                                f"descriptor (a={col.a}, b={col.b}) is "
                                f"outside the {col.family} family range")
        if shifted:
            for k in range(e, xe + e + 1):
                put(kind, k, ye, coef * math.comb(xe, k - e))
        elif e == 0:
            put(kind, xe, ye, coef)
        else:
            put(kind, xe + 1, ye, coef)
            put(kind, xe, ye, -coef)
    return out


def estimate_assembly(model: PlumbingModel) -> dict:
    """Exact entry count and a memory estimate without materializing the
    entry arrays.  The count sums the run lengths `assemble_matrix`
    fills (no additive cancellation occurs), so it is the assembled nnz."""
    batches = _candidate_columns(model)
    nnz = sum(int(run.lens.sum()) for run in _entry_runs(model, batches))
    return {
        "candidate_columns": _column_count(batches),
        "nnz": nnz,
        "assembly_peak_bytes": nnz * 96,
    }
