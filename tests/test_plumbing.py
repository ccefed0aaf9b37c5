"""Plumbing models: slots, windows, generator catalogs, expansion and the
assembled restriction matrix.

The strongest check here rebuilds small matrices entry by entry through
the scalar `expand_at_point` path and compares them against the
vectorized assembly.
"""

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tautcheck.cli import DEFAULT_PRIMES, analyze
from tautcheck.cycles import (anti_ample_cycle, choose_j, make_coprime_to_all,
                              significant_multiplicity_to_all)
from tautcheck.graph import parse_graph, preset_graph
from tautcheck.linalg import next_prime, prove_rank_over_Q, rank_mod_p
from tautcheck.plumbing import (
    FAMILY_DX,
    FAMILY_DX_EXTRA,
    FAMILY_DY,
    GeneratorColumn,
    PlumbingError,
    _point_rows,
    _row_ids,
    _window_mask,
    assemble_matrix,
    build_model,
    enumerate_generators,
    estimate_assembly,
    expand_at_point,
)
from tautcheck.sparse import read_matrix_text, write_matrix_text

from rank_oracle import oracle_rank_dense


# ---------------------------------------------------------------------------
# model construction


def test_build_model_star_slots():
    g, _ = preset_graph("D4")
    m = build_model(g, 11, [2, 3, 5, 7])
    center = g.index("d3")
    assert m.occupancy(center) == {"0", "inf", "1"}
    for vid in ["d1", "d2", "d4"]:
        assert m.occupancy(g.index(vid)) == {"0"}
    assert m.nu == [2, 2, 2, 2]
    assert m.j == 11
    assert m.row_count == 660


def test_build_model_single_vertex():
    g, _ = preset_graph("A1")
    m = build_model(g, 11, [2, 3, 5, 7])
    assert m.points == []
    assert m.row_count == 0


def test_build_model_rejects_j_in_primes():
    g, _ = preset_graph("D4")
    with pytest.raises(PlumbingError):
        build_model(g, 11, [11])
    with pytest.raises(PlumbingError):
        build_model(g, 7, [2, 3, 5, 7])


def test_build_model_rejects_bad_inputs():
    g, _ = preset_graph("D4")
    with pytest.raises(PlumbingError):
        build_model(g, 12, [2, 3])          # j not prime
    with pytest.raises(PlumbingError):
        build_model(g, 11, [2, 4])          # candidate not prime
    # the modulus rule of rank_mod_p: a prime of 2^31 or more is refused
    assert next_prime(2**31) == 2_147_483_659
    with pytest.raises(PlumbingError, match="2147483659 is not a prime "
                                            "below 2\\^31"):
        build_model(g, 11, [2, next_prime(2**31)])
    genus1 = parse_graph("vertex a genus=1 selfint=-2\n")
    with pytest.raises(PlumbingError):
        build_model(genus1, 11, [2])
    disconnected = parse_graph("vertex a genus=0 selfint=-2\n"
                               "vertex b genus=0 selfint=-2\n")
    with pytest.raises(PlumbingError):
        build_model(disconnected, 11, [2])
    degenerate = parse_graph("vertex a genus=0 selfint=-2\n"
                             "vertex b genus=0 selfint=-2\n"
                             "edge a b\nedge a b\n")
    with pytest.raises(PlumbingError):
        build_model(degenerate, 11, [2])


def test_build_model_slot_assignment_overrides():
    g, _ = preset_graph("D4")
    center = g.index("d3")
    m = build_model(g, 11, [2, 3, 5, 7],
                    slot_assignment={center: ["1", "0", "inf"]})
    assert list(m.slots[center].values())[0] == "1"
    # other vertices keep the default
    assert m.occupancy(g.index("d1")) == {"0"}


def test_build_model_slot_assignment_validation():
    g, _ = preset_graph("D4")
    center = g.index("d3")
    with pytest.raises(PlumbingError):
        build_model(g, 11, [2], slot_assignment={center: ["0", "inf"]})
    with pytest.raises(PlumbingError):
        build_model(g, 11, [2], slot_assignment={center: ["0", "0", "1"]})
    with pytest.raises(PlumbingError):
        build_model(g, 11, [2], slot_assignment={center: ["0", "inf", "2"]})


# ---------------------------------------------------------------------------
# points and rows


def test_point_counts():
    for name, pts in [("D4", 3), ("A1", 0), ("A2", 1), ("E8", 7)]:
        g, _ = preset_graph(name)
        m = build_model(g, 11, [2, 3, 5, 7])
        assert len(m.points) == pts, name


def test_row_count_formula():
    for name, j in [("A2", 11), ("D4", 11), ("D5", 19), ("E6", 43)]:
        g, _ = preset_graph(name)
        m = build_model(g, j, [2, 3, 5, 7])
        pt = len(m.points)
        assert m.row_count == 2 * pt * (j * j - j), name


def test_row_count_large_presets_without_assembly():
    g, _ = preset_graph("E8")
    m = build_model(g, 271, [2, 3, 5, 7])
    assert m.row_count == 1024380
    g, _ = preset_graph("E7")
    m = build_model(g, 103, [2, 3, 5, 7])
    assert m.row_count == 126072


def test_row_ids_layout():
    """`_row_ids` lays a point window out as j(j - 1) dx rows, then
    j(j - 1) dy rows; seen from the neighbor side, (kind, e1, e2) is the
    canonical (other kind, e2, e1)."""
    j, offset = 5, 3 * _point_rows(5)
    e1, e2 = np.arange(j).repeat(j), np.tile(np.arange(j), j)
    half = j * (j - 1)
    spans = {"dx": range(offset, offset + half),
             "dy": range(offset + half, offset + 2 * half)}
    for kind, other in (("dx", "dy"), ("dy", "dx")):
        keep = _window_mask(kind, e1, e2, j)
        ids = _row_ids(e1[keep], e2[keep], kind, False, j, offset)
        assert sorted(ids.tolist()) == list(spans[kind])
        swapped = _row_ids(e2[keep], e1[keep], other, True, j, offset)
        assert (swapped == ids).all()


# ---------------------------------------------------------------------------
# generator catalogs


def test_generators_single_vertex_empty():
    g, _ = preset_graph("A1")
    m = build_model(g, 11, [2, 3, 5, 7])
    assert enumerate_generators(m) == []
    assert assemble_matrix(m).nrows == 0
    assert assemble_matrix(m).ncols == 0


def test_generator_family_ranges_star():
    g, _ = preset_graph("D4")
    m = build_model(g, 11, [2, 3, 5, 7])
    cols = enumerate_generators(m, drop_zero_columns=False)
    center = g.index("d3")
    leaf = g.index("d1")
    nu, j = 2, 11
    by = {}
    for c in cols:
        by.setdefault((c.vertex, c.family), []).append((c.a, c.b))
    # dy catalog is occupancy independent
    for v in (center, leaf):
        assert by[(v, FAMILY_DY)] == [(a, b) for b in range(1, j)
                                      for a in range(nu * (b - 1) + 1)]
    # leaf (slot 0 occupied, no vanishing): 1 <= a <= nu*b + 1
    assert by[(leaf, FAMILY_DX)] == [(a, b) for b in range(j)
                                     for a in range(1, nu * b + 2)]
    assert by[(leaf, FAMILY_DX_EXTRA)] == [(0, b) for b in range(j)]
    # center (all slots taken, vanishing at 1): 1 <= a <= nu*b, no extra
    assert by[(center, FAMILY_DX)] == [(a, b) for b in range(j)
                                       for a in range(1, nu * b + 1)]
    assert (center, FAMILY_DX_EXTRA) not in by
    assert len(cols) == 906


def test_generator_leaf_dy_b1_single_column():
    g, _ = preset_graph("D4")
    m = build_model(g, 11, [2, 3, 5, 7])
    leaf = g.index("d1")
    cols = [c for c in enumerate_generators(m)
            if c.vertex == leaf and c.family == FAMILY_DY and c.b == 1]
    assert len(cols) == 1 and cols[0].a == 0


def test_generator_column_count_star_after_drop():
    g, _ = preset_graph("D4")
    m = build_model(g, 11, [2, 3, 5, 7])
    cols = enumerate_generators(m)
    # 186 candidate columns restrict to zero in every window and are dropped
    assert len(cols) == 720
    mat = assemble_matrix(m)
    assert mat.ncols == 720
    ids = [c.index for c in cols]
    assert ids == list(range(720))


# ---------------------------------------------------------------------------
# expansion at points


def _model_chain_of_two(j=11, primes=(2, 3, 5, 7)):
    g, _ = preset_graph("A2")
    return g, build_model(g, j, list(primes))


def test_expand_dy_at_slot0_point():
    g, m = _model_chain_of_two()
    col = GeneratorColumn(None, 0, FAMILY_DY, a=0, b=1)
    assert expand_at_point(col, 0, m) == {("dy", 0, 1): 1}


def test_expand_dx_at_slot0_point():
    g, m = _model_chain_of_two()
    col = GeneratorColumn(None, 0, FAMILY_DX, a=1, b=0)
    assert expand_at_point(col, 0, m) == {("dx", 1, 0): 1}


def test_expand_dy_at_slot1_point_binomial():
    # the center of the star hosts its third edge at the shifted slot "1"
    g, _ = preset_graph("D4")
    m = build_model(g, 11, [2, 3, 5, 7])
    center = g.index("d3")
    ei = next(e for e, s in m.slots[center].items() if s == "1")
    assert min(m.points[ei]) == center      # canonical side, no swap
    col = GeneratorColumn(None, center, FAMILY_DY, a=1, b=1)
    assert expand_at_point(col, ei, m) == {("dy", 0, 1): 1, ("dy", 1, 1): 1}


def test_expand_swapped_side():
    """On the non-canonical side the cross-gluing exchanges the kind and
    the exponents: y d/dy on the far vertex lands in a dx row."""
    g, m = _model_chain_of_two()
    col = GeneratorColumn(None, 1, FAMILY_DY, a=0, b=1)
    assert expand_at_point(col, 0, m) == {("dx", 1, 0): 1}


def test_expand_neighbor_only_point_is_zero():
    g, _ = preset_graph("A3")
    m = build_model(g, 5, [2, 3])
    # vertex a1's sections restrict to zero at the far point (a2, a3)
    col = GeneratorColumn(None, 0, FAMILY_DY, a=0, b=1)
    assert m.points[1] == (1, 2)
    assert expand_at_point(col, 1, m) == {}


def test_expand_unrelated_point_rejected():
    g, _ = preset_graph("A4")
    m = build_model(g, 5, [2, 3])
    col = GeneratorColumn(None, 0, FAMILY_DY, a=0, b=1)
    assert m.points[2] == (2, 3)
    with pytest.raises(PlumbingError):
        expand_at_point(col, 2, m)


@pytest.mark.parametrize("ei", [-1, 3, 7])
def test_expand_edge_index_out_of_range_rejected(ei):
    g, _ = preset_graph("A4")
    m = build_model(g, 5, [2, 3])
    col = GeneratorColumn(None, 0, FAMILY_DY, a=0, b=1)
    with pytest.raises(PlumbingError, match=f"point {ei} is not an edge"):
        expand_at_point(col, ei, m)


def test_expand_out_of_range_descriptor_errors_in_second_chart():
    g, _ = preset_graph("D4")
    m = build_model(g, 11, [2, 3, 5, 7])
    center = g.index("d3")
    ei = next(e for e, s in m.slots[center].items() if s == "inf")
    col = GeneratorColumn(None, center, FAMILY_DY, a=5, b=1)
    with pytest.raises(PlumbingError):
        expand_at_point(col, ei, m)


# ---------------------------------------------------------------------------
# assembly cross-validation


def _row_id_in_test(ei, kind, e1, e2, j):
    """Independent re-derivation of the row layout used by the matrix."""
    if kind == "dx":
        assert 1 <= e1 < j and 0 <= e2 < j
        return ei * 2 * j * (j - 1) + (e1 - 1) * j + e2
    assert 0 <= e1 < j and 1 <= e2 < j
    return ei * 2 * j * (j - 1) + (j - 1) * j + e1 * (j - 1) + (e2 - 1)


def _rebuild_from_expansions(model, j):
    entries = {}
    cols = enumerate_generators(model)
    for col in cols:
        for ei, (va, vb) in enumerate(model.points):
            touches = col.vertex in (va, vb)
            nearby = (va in model.neighbors(col.vertex)
                      or vb in model.neighbors(col.vertex))
            if not (touches or nearby):
                continue
            for (kind, e1, e2), val in expand_at_point(col, ei, model).items():
                rid = _row_id_in_test(ei, kind, e1, e2, j)
                key = (rid, col.index)
                entries[key] = entries.get(key, 0) + val
    return {k: v for k, v in entries.items() if v}


@pytest.mark.parametrize("name, j", [("A2", 5), ("A3", 5), ("D4", 5),
                                     ("D4", 11)])
def test_assembly_matches_scalar_expansion(name, j):
    g, _ = preset_graph(name)
    model = build_model(g, j, [2, 3])
    mat = assemble_matrix(model)
    expect = _rebuild_from_expansions(model, j)
    got = {(r, c): v for r, c, v in mat.entries()}
    assert got == expect


def test_assembly_matches_scalar_expansion_permuted_slots():
    g, _ = preset_graph("A3")
    mid = 1
    for assign in itertools.permutations(["0", "inf", "1"], 2):
        model = build_model(g, 5, [2, 3],
                            slot_assignment={mid: list(assign)})
        mat = assemble_matrix(model)
        assert {(r, c): v for r, c, v in mat.entries()} == \
            _rebuild_from_expansions(model, 5)


@st.composite
def _small_trees(draw):
    """A potentially-taut tree on 2-4 vertices (negative definite, since
    every self-intersection is -2..-4) as (vertex lines, edge lines,
    valences), and j in {3, 5, 7}."""
    n = draw(st.integers(2, 4))
    parents = [draw(st.integers(0, i - 1)) for i in range(1, n)]
    vertices = [f"vertex v{i} genus=0 selfint={draw(st.integers(-4, -2))}\n"
                for i in range(n)]
    edges = [f"edge v{p} v{i}\n" for i, p in enumerate(parents, 1)]
    valence = [parents.count(l) + (l > 0) for l in range(n)]
    return vertices, edges, valence, draw(st.sampled_from([3, 5, 7]))


@st.composite
def _slot_assignments(draw, valence):
    """Distinct random slots for the incident edges of every vertex."""
    return {l: list(draw(st.permutations(["0", "inf", "1"])))[:k]
            for l, k in enumerate(valence)}


@st.composite
def _small_tree_models(draw):
    """A `_small_trees` model with random slots."""
    vertices, edges, valence, j = draw(_small_trees())
    return build_model(parse_graph("".join(vertices + edges)), j, [2],
                       slot_assignment=draw(_slot_assignments(valence)))


@settings(max_examples=60, deadline=None)
@given(_small_tree_models())
def test_estimate_and_assembly_agree_on_random_trees(model):
    nnz = estimate_assembly(model)["nnz"]
    mat = assemble_matrix(model)
    assert nnz == mat.nnz == assemble_matrix(model,
                                             drop_zero_columns=False).nnz
    assert {(r, c): v for r, c, v in mat.entries()} == \
        _rebuild_from_expansions(model, model.j)


@settings(max_examples=30, deadline=None)
@given(_small_tree_models())
def test_rank_mod_p_matches_dense_oracle_on_random_trees(model):
    mat = assemble_matrix(model)
    dense = np.array(mat.to_dense(), dtype=object)
    for p in (2, 3, 5, 7):
        assert rank_mod_p(mat, p) == oracle_rank_dense(dense % p, p)


@settings(max_examples=50, deadline=None)
@given(_small_trees())
def test_truncation_soundness_on_random_trees(tree):
    """h1 at 2, 3, 5 and 7 is the same at the j `analyze` chooses and at
    the next prime above it, whose model has a larger window and
    catalog."""
    vertices, edges, _, _ = tree
    g = parse_graph("".join(vertices + edges))
    primes = [2, 3, 5, 7]
    cycle = make_coprime_to_all(g, anti_ample_cycle(g), primes)
    plan = significant_multiplicity_to_all(g, cycle, primes)
    j = choose_j(plan.nu, max(cycle), primes)
    models = [build_model(g, k, primes) for k in (j, next_prime(j))]
    assume(estimate_assembly(models[1])["nnz"] <= 300_000)
    small, large = ([m.row_count - rank_mod_p(assemble_matrix(m), p)
                     for p in primes] for m in models)
    assert small == large


def _ranks_off_j(model):
    """`rank_mod_p` of the assembled matrix at 2, 3, 5 and 7, except j."""
    mat = assemble_matrix(model)
    return {p: rank_mod_p(mat, p) for p in (2, 3, 5, 7) if p != model.j}


@settings(max_examples=100, deadline=None)
@given(_small_trees(), st.data())
def test_ranks_invariant_under_relabeling_on_random_trees(tree, data):
    vertices, edges, _, j = tree
    relabeled = (data.draw(st.permutations(vertices))
                 + data.draw(st.permutations(edges)))
    g, h = (parse_graph("".join(lines)) for lines in (vertices + edges,
                                                      relabeled))
    assert _ranks_off_j(build_model(h, j, [2])) == \
        _ranks_off_j(build_model(g, j, [2]))


@settings(max_examples=100, deadline=None)
@given(_small_trees(), st.data())
def test_ranks_invariant_under_slot_choice_on_random_trees(tree, data):
    vertices, edges, valence, j = tree
    g = parse_graph("".join(vertices + edges))
    slots = data.draw(_slot_assignments(valence))
    assert _ranks_off_j(build_model(g, j, [2], slot_assignment=slots)) == \
        _ranks_off_j(build_model(g, j, [2]))


@settings(max_examples=100, deadline=None)
@given(_small_tree_models())
def test_modular_ranks_bounded_by_rational_rank_on_random_trees(model):
    """h1 mod p >= h1 over Q: no rank mod p, candidate or not, exceeds
    the rational rank."""
    mat = assemble_matrix(model)
    rank_q = prove_rank_over_Q(mat, (2, 3, 5, 7)).rank_q
    assert rank_q <= min(mat.nrows, mat.ncols)
    for p in (2, 3, 5, 7, 11, 13):
        assert rank_mod_p(mat, p) <= rank_q


@settings(max_examples=40, deadline=None)
@given(_small_tree_models())
def test_zero_column_drop_matches_unique_on_random_trees(model):
    """The drop keeps the columns `np.unique` finds in the full matrix,
    renumbered in order, entry for entry."""
    full = assemble_matrix(model, drop_zero_columns=False)
    kept = np.unique(full.col)
    mat = assemble_matrix(model)
    assert (mat.nrows, mat.ncols) == (full.nrows, kept.size)
    assert mat.col.tolist() == np.searchsorted(kept, full.col).tolist()
    for name in ("row", "base", "bin_n", "bin_k"):
        assert getattr(mat, name).tolist() == getattr(full, name).tolist()
    every = enumerate_generators(model, drop_zero_columns=False)
    assert enumerate_generators(model) == [
        dataclasses.replace(every[c], index=i)
        for i, c in enumerate(kept.tolist())]


# ---------------------------------------------------------------------------
# assembled matrix properties


def test_assemble_star_shape_and_estimate():
    g, _ = preset_graph("D4")
    m = build_model(g, 11, [2, 3, 5, 7])
    mat = assemble_matrix(m)
    est = estimate_assembly(m)
    assert (mat.nrows, mat.ncols) == (660, 720)
    assert set(est) == {"candidate_columns", "nnz", "assembly_peak_bytes"}
    assert est["candidate_columns"] == 906
    assert est["nnz"] == mat.nnz
    assert 0 < mat.density < 0.01


def test_window_override_enlarges_row_space():
    """The exponent window is the model's prime j: a larger j gives
    2 (j^2 - j) rows per point on A2 and more entries."""
    g, _ = preset_graph("A2")
    default = assemble_matrix(build_model(g, 5, [2, 3]))
    big = assemble_matrix(build_model(g, 11, [2, 3]))
    assert default.nrows == 40
    assert big.nrows == 2 * (11 * 11 - 11)
    assert big.nnz > default.nnz


_CHAIN_323 = ("vertex a genus=0 selfint=-3\nvertex b genus=0 selfint=-2\n"
              "vertex c genus=0 selfint=-3\nedge a b\nedge b c\n")


@pytest.mark.parametrize("source", [{"preset": "A3"},
                                    {"graph": parse_graph(_CHAIN_323)},
                                    {"preset": "E6"}],
                         ids=["A3", "chain-3-2-3", "E6"])
def test_assembly_peak_within_estimate(source):
    """The estimated footprint bounds the traced peak of the assembly on
    the models `analyze` builds (41,730, 89,694 and 123,280 entries)."""
    report = analyze(**source)
    g = source["graph"] if "graph" in source else \
        preset_graph(source["preset"])[0]
    model = build_model(g, report["model"]["j"], list(DEFAULT_PRIMES))
    bound = estimate_assembly(model)["assembly_peak_bytes"]
    assert bound == report["model"]["estimated_assembly_bytes"]
    tracemalloc.start()
    try:
        assemble_matrix(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound


def test_zero_column_drop_preserves_rank():
    g, _ = preset_graph("D4")
    m = build_model(g, 11, [2, 3, 5, 7])
    kept = assemble_matrix(m)
    full = assemble_matrix(m, drop_zero_columns=False)
    assert full.ncols == 906 and kept.ncols == 720
    for p in (2, 3, 7):
        assert rank_mod_p(kept, p) == rank_mod_p(full, p)
    assert (prove_rank_over_Q(kept, ()).rank_q
            == prove_rank_over_Q(full, ()).rank_q)


def test_unshifted_points_have_small_entries():
    """Rows of points with no shifted slot only carry entries from
    {+-1, +-nu}; binomials larger than 1 need the slot-"1" expansion."""
    g, _ = preset_graph("D4")
    m = build_model(g, 11, [2, 3, 5, 7])
    mat = assemble_matrix(m)
    plain_rows = []
    for ei, (va, vb) in enumerate(m.points):
        if "1" not in (m.slots[va][ei], m.slots[vb][ei]):
            lo = ei * 2 * m.j * (m.j - 1)
            plain_rows.append((lo, lo + 2 * m.j * (m.j - 1)))
    assert plain_rows
    seen = set()
    for r, c, v in mat.entries():
        if any(lo <= r < hi for lo, hi in plain_rows):
            seen.add(v)
    assert seen <= {1, -1, 2, -2}
    assert {1, -1, 2, -2} <= seen


# ---------------------------------------------------------------------------
# export / import


def test_export_import_round_trip_preserves_rank(tmp_path):
    g, _ = preset_graph("D4")
    m = build_model(g, 11, [2, 3, 5, 7])
    mat = assemble_matrix(m)
    path = tmp_path / "star.txt"
    write_matrix_text(mat, str(path))
    with open(path) as f:
        assert f.readline().strip() == "660 720 M"
    back = read_matrix_text(str(path))
    assert (back.nrows, back.ncols, back.nnz) == (660, 720, mat.nnz)
    assert list(back.entries()) == list(mat.entries())
    assert rank_mod_p(back, 2) == 659
    assert rank_mod_p(back, 3) == 660
