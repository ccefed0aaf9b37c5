"""A scalar oracle for the restriction matrix, written from the chart
formulas of the plumbing model; it uses no helper of `tautcheck.plumbing`
and reads only the public fields of a model (`j`, `nu`, `slots`,
`points`).

Vertex l with nu = -selfint(l) carries two charts glued by
x1 = 1/x0, y1 = x0^nu y0.  Each generator family is given by one chart
expression, in chart 0 except for dx_extra, which lives in chart 1:

* dy:       x0^a y0^b d/dy0
* dx:       x0^a y0^b d/dx0, times (x0 - 1) when slot "1" is occupied
* dx_extra: y1^b d/dx1, or -(x1 - 1) y1^b d/dx1 + nu y1^(b+1) d/dy1
            when slot "1" is occupied

and the other chart follows by the chain rule.  The catalog is the grid
rule of the README: per vertex, the rows (family, b_lo, a_lo, slope,
intercept) hold b_lo <= b < j and a_lo <= a <= slope*b + intercept, in
the order vertex, then dy < dx < dx_extra, then b, then a.

A point's local arm coordinate is x0 at slot "0", x1 at slot "inf" and
x0 - 1 at slot "1".  On the side that is not the smaller endpoint the
cross-gluing swaps the kind and the exponents.  The window keeps
xbar^s y^t d/dxbar for 1 <= s < j, 0 <= t < j and xbar^u y^v d/dy for
0 <= u < j, 1 <= v < j.
"""

import dataclasses
import math

_OTHER_KIND = {"dx": "dy", "dy": "dx"}


def with_slots(model, assignment):
    """`model` with the incident edges of each vertex l in `assignment`
    moved to the slots assignment[l], in incident order."""
    return dataclasses.replace(model, slots=[
        dict(zip(s, assignment[l])) if l in assignment else s
        for l, s in enumerate(model.slots)])


def catalog(model):
    """Every candidate column (vertex, family, a, b), in column order."""
    columns = []
    for l, nu in enumerate(model.nu):
        occupied = set(model.slots[l].values())
        grid = [("dy", 1, 0, nu, -nu),
                ("dx", 0, int("0" in occupied), nu, int("1" not in occupied))]
        if "inf" not in occupied:
            grid.append(("dx_extra", 0, 0, 0, 0))
        for family, b_lo, a_lo, slope, intercept in grid:
            for b in range(b_lo, model.j):
                for a in range(a_lo, slope * b + intercept + 1):
                    columns.append((l, family, a, b))
    return columns


def _add(field, kind, i, k, c):
    field[kind, i, k] = field.get((kind, i, k), 0) + c


def _definition(family, vanish_one, nu, a, b):
    """(chart, field): the family's defining expression as a map
    (kind, i, k) -> coefficient of x^i y^k d/d<kind> in that chart."""
    field = {}
    if family == "dy":
        _add(field, "dy", a, b, 1)
        return 0, field
    if family == "dx":
        _add(field, "dx", a + 1 if vanish_one else a, b, 1)
        if vanish_one:
            _add(field, "dx", a, b, -1)
        return 0, field
    assert family == "dx_extra", family
    if not vanish_one:
        _add(field, "dx", 0, b, 1)
        return 1, field
    _add(field, "dx", 1, b, -1)
    _add(field, "dx", 0, b, 1)
    _add(field, "dy", 0, b + 1, nu)
    return 1, field


def _other_chart(field, nu):
    """The field in the other chart.  The gluing has the same form both
    ways (x' = 1/x, y' = x^nu y), so x^i y^k = x'^(nu k - i) y'^k,
    d/dx = -x'^2 d/dx' + nu x' y' d/dy' and d/dy = x'^-nu d/dy'."""
    out = {}
    for (kind, i, k), c in field.items():
        e = nu * k - i
        if kind == "dx":
            _add(out, "dx", e + 2, k, -c)
            _add(out, "dy", e + 1, k + 1, nu * c)
        else:
            _add(out, "dy", e - nu, k, c)
    out = {key: c for key, c in out.items() if c}
    negative = [key for key in out if key[1] < 0]
    if negative:
        raise ValueError(f"negative exponent in the other chart: {negative}")
    return out


def _in_window(kind, s, t, j):
    if kind == "dx":
        return 1 <= s < j and 0 <= t < j
    return 0 <= s < j and 1 <= t < j


def expand(model, column, ei):
    """Exact expansion of the generator `column` = (vertex, family, a, b)
    in the window of the point of edge `ei`, as a map (kind, e1, e2) ->
    value in the coordinates of the point's smaller endpoint; {} when
    the point is not on the generator's vertex."""
    l, family, a, b = column
    slot = model.slots[l].get(ei)
    if slot is None:
        return {}
    nu = model.nu[l]
    chart, field = _definition(family, "1" in model.slots[l].values(),
                               nu, a, b)
    if chart != (1 if slot == "inf" else 0):
        field = _other_chart(field, nu)
    canonical = min(model.points[ei]) == l
    out = {}
    for (kind, i, k), c in field.items():
        # at slot "1", x0^i = (xbar + 1)^i
        local = [(s, math.comb(i, s)) for s in range(i + 1)] \
            if slot == "1" else [(i, 1)]
        for s, binomial in local:
            key = (kind, s, k) if canonical else (_OTHER_KIND[kind], k, s)
            if _in_window(*key, model.j):
                out[key] = out.get(key, 0) + c * binomial
    return {key: v for key, v in out.items() if v}


def _row_id_in_test(ei, kind, e1, e2, j):
    """Independent re-derivation of the row layout used by the matrix."""
    if kind == "dx":
        assert 1 <= e1 < j and 0 <= e2 < j
        return ei * 2 * j * (j - 1) + (e1 - 1) * j + e2
    assert 0 <= e1 < j and 1 <= e2 < j
    return ei * 2 * j * (j - 1) + (j - 1) * j + e1 * (j - 1) + (e2 - 1)


def oracle_matrix(model):
    """(nrows, columns, entries): the row count, the catalog columns that
    hold an entry, in catalog order (matrix column c is columns[c]), and
    the map (row, col) -> exact nonzero value."""
    j = model.j
    columns, entries = [], {}
    for column in catalog(model):
        rows = {}
        for ei in model.slots[column[0]]:
            for (kind, e1, e2), v in expand(model, column, ei).items():
                rows[_row_id_in_test(ei, kind, e1, e2, j)] = v
        entries.update({(r, len(columns)): v for r, v in rows.items()})
        if rows:
            columns.append(column)
    return len(model.points) * 2 * j * (j - 1), columns, entries
