"""Plumbing models: slots, windows, generator catalogs, expansion and the
assembled restriction matrix.

The strongest check here rebuilds small matrices entry by entry with the
scalar oracle of `plumbing_oracle`, written from the chart formulas, and
compares them against the vectorized assembly.
"""

import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tautcheck.plumbing as plumbing
from tautcheck.cli import DEFAULT_PRIMES, analyze
from tautcheck.cycles import (anti_ample_cycle, choose_j, make_coprime_to_all,
                              significant_multiplicity_to_all)
from tautcheck.graph import admissibility_violations, parse_graph, preset_graph
from tautcheck.linalg import next_prime, prove_rank_over_Q, rank_mod_p
from tautcheck.plumbing import (
    PlumbingError,
    _point_rows,
    _row_ids,
    _window_mask,
    assemble_matrix,
    build_model,
    estimate_assembly,
)
from tautcheck.sparse import SparseIntMatrix, write_matrix_text

from plumbing_oracle import catalog, expand, oracle_matrix, with_slots
from rank_oracle import (oracle_dense, oracle_rank_dense, oracle_residues,
                         parse_matrix_text, triples)


# ---------------------------------------------------------------------------
# model construction


def test_build_model_star_slots():
    g, _ = preset_graph("D4")
    m = build_model(g, 11, [2, 3, 5, 7])
    center = g.ids.index("d3")
    assert set(m.slots[center].values()) == {"0", "inf", "1"}
    for vid in ["d1", "d2", "d4"]:
        assert set(m.slots[g.ids.index(vid)].values()) == {"0"}
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
    assert oracle_matrix(m) == (0, [], {})
    assert assemble_matrix(m).nrows == 0
    assert assemble_matrix(m).ncols == 0


def test_generator_family_ranges_star():
    """The oracle's catalog, from the grid rule, against the ranges
    written out per family; assembly numbers the same 906 candidates."""
    g, _ = preset_graph("D4")
    m = build_model(g, 11, [2, 3, 5, 7])
    cols = catalog(m)
    center = g.ids.index("d3")
    leaf = g.ids.index("d1")
    nu, j = 2, 11
    by = {}
    for vertex, family, a, b in cols:
        by.setdefault((vertex, family), []).append((a, b))
    # dy catalog is occupancy independent
    for v in (center, leaf):
        assert by[(v, "dy")] == [(a, b) for b in range(1, j)
                                 for a in range(nu * (b - 1) + 1)]
    # leaf (slot 0 occupied, no vanishing): 1 <= a <= nu*b + 1
    assert by[(leaf, "dx")] == [(a, b) for b in range(j)
                                for a in range(1, nu * b + 2)]
    assert by[(leaf, "dx_extra")] == [(0, b) for b in range(j)]
    # center (all slots taken, vanishing at 1): 1 <= a <= nu*b, no extra
    assert by[(center, "dx")] == [(a, b) for b in range(j)
                                  for a in range(1, nu * b + 1)]
    assert (center, "dx_extra") not in by
    assert len(cols) == estimate_assembly(m)["candidate_columns"] == 906


def test_generator_leaf_dy_b1_single_column():
    g, _ = preset_graph("D4")
    m = build_model(g, 11, [2, 3, 5, 7])
    leaf = g.ids.index("d1")
    cols = [(a, b) for l, family, a, b in oracle_matrix(m)[1]
            if (l, family, b) == (leaf, "dy", 1)]
    assert cols == [(0, 1)]


def test_generator_column_count_star_after_drop():
    g, _ = preset_graph("D4")
    m = build_model(g, 11, [2, 3, 5, 7])
    # 186 candidate columns restrict to zero in every window and are dropped
    assert estimate_assembly(m)["candidate_columns"] == 906
    assert len(oracle_matrix(m)[1]) == 720
    mat = assemble_matrix(m)
    assert mat.ncols == 720
    assert np.unique(mat.col).size == mat.ncols


# ---------------------------------------------------------------------------
# expansion at points: known values of the oracle


def _model_chain_of_two(j=11, primes=(2, 3, 5, 7)):
    g, _ = preset_graph("A2")
    return g, build_model(g, j, list(primes))


def test_expand_dy_at_slot0_point():
    g, m = _model_chain_of_two()
    assert expand(m, (0, "dy", 0, 1), 0) == {("dy", 0, 1): 1}


def test_expand_dx_at_slot0_point():
    g, m = _model_chain_of_two()
    assert expand(m, (0, "dx", 1, 0), 0) == {("dx", 1, 0): 1}


def test_expand_dy_at_slot1_point_binomial():
    # the center of the star hosts its third edge at the shifted slot "1"
    g, _ = preset_graph("D4")
    m = build_model(g, 11, [2, 3, 5, 7])
    center = g.ids.index("d3")
    ei = next(e for e, s in m.slots[center].items() if s == "1")
    assert min(m.points[ei]) == center      # canonical side, no swap
    assert expand(m, (center, "dy", 1, 1), ei) == {("dy", 0, 1): 1,
                                                   ("dy", 1, 1): 1}


def test_expand_swapped_side():
    """On the non-canonical side the cross-gluing exchanges the kind and
    the exponents: y d/dy on the far vertex lands in a dx row."""
    g, m = _model_chain_of_two()
    assert expand(m, (1, "dy", 0, 1), 0) == {("dx", 1, 0): 1}


def test_expand_neighbor_only_point_is_zero():
    g, _ = preset_graph("A3")
    m = build_model(g, 5, [2, 3])
    # vertex a1's sections restrict to zero at the far point (a2, a3)
    assert m.points[1] == (1, 2)
    assert expand(m, (0, "dy", 0, 1), 1) == {}


def test_expand_out_of_range_descriptor_errors_in_second_chart():
    """The catalog's bound a <= nu (b - 1) on dy is where x0^a y0^b d/dy0
    stays regular in chart 1; beyond it the chain rule gives a negative
    exponent."""
    g, _ = preset_graph("D4")
    m = build_model(g, 11, [2, 3, 5, 7])
    center = g.ids.index("d3")
    ei = next(e for e, s in m.slots[center].items() if s == "inf")
    # a = nu (b - 1): x1^0 y1^2 d/dy1, seen from the canonical side d2
    assert expand(m, (center, "dy", 2, 2), ei) == {("dx", 2, 0): 1}
    with pytest.raises(ValueError, match="negative exponent"):
        expand(m, (center, "dy", 5, 1), ei)


# ---------------------------------------------------------------------------
# assembly cross-validation


def _assert_matches_oracle(model):
    """The assembled matrix is the oracle's, entry for entry, with its
    columns in catalog order and no empty column."""
    mat = assemble_matrix(model)
    nrows, columns, entries = oracle_matrix(model)
    assert (mat.nrows, mat.ncols) == (nrows, len(columns))
    assert np.unique(mat.col).size == mat.ncols
    assert {(r, c): v for r, c, v in triples(mat)} == entries


@pytest.mark.parametrize("name, j", [("A2", 5), ("A3", 5), ("D4", 5),
                                     ("D4", 11)])
def test_assembly_matches_scalar_expansion(name, j):
    g, _ = preset_graph(name)
    _assert_matches_oracle(build_model(g, j, [2, 3]))


def test_assembly_matches_scalar_expansion_permuted_slots():
    g, _ = preset_graph("A3")
    model = build_model(g, 5, [2, 3])
    for assign in itertools.permutations(["0", "inf", "1"], 2):
        _assert_matches_oracle(with_slots(model, {1: assign}))


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
def _random_slots(draw, valence):
    """Distinct random slots for the incident edges of every vertex."""
    return {l: list(draw(st.permutations(["0", "inf", "1"])))[:k]
            for l, k in enumerate(valence)}


@st.composite
def _small_tree_models(draw):
    """A `_small_trees` model with random slots."""
    vertices, edges, valence, j = draw(_small_trees())
    model = build_model(parse_graph("".join(vertices + edges)), j, [2])
    return with_slots(model, draw(_random_slots(valence)))


@st.composite
def _wide_tree_models(draw):
    """A potentially-taut tree on 2-5 vertices with self-intersections
    -1..-4 (drawn ones that are not are discarded), random slots and a
    prime j in 11..31."""
    n = draw(st.integers(2, 5))
    parents = [draw(st.integers(0, i - 1)) for i in range(1, n)]
    g = parse_graph("".join(
        [f"vertex v{i} genus=0 selfint={draw(st.integers(-4, -1))}\n"
         for i in range(n)]
        + [f"edge v{p} v{i}\n" for i, p in enumerate(parents, 1)]))
    assume(not admissibility_violations(g))
    valence = [parents.count(l) + (l > 0) for l in range(n)]
    model = build_model(g, draw(st.sampled_from([11, 13, 17, 19, 23, 29,
                                                  31])), [2])
    return with_slots(model, draw(_random_slots(valence)))


@settings(max_examples=120, deadline=None)
@given(st.one_of(_small_tree_models(), _wide_tree_models()))
def test_estimate_and_assembly_agree_on_random_trees(model):
    """The closed-form count equals the assembled entries, and the
    candidate columns the oracle lists; the assembly walk checks its own
    columns and entries against the count."""
    est = estimate_assembly(model)
    assert est["nnz"] == assemble_matrix(model).nnz
    assert est["candidate_columns"] == len(catalog(model))


@pytest.mark.parametrize("field", ["nnz", "candidate_columns"])
@pytest.mark.parametrize("delta", [-1, 1])
def test_assembly_refuses_a_count_it_does_not_fill(monkeypatch, field,
                                                   delta):
    """The walk writes into arrays sized by `estimate_assembly` and
    raises, under `python -O` too, when its entries or columns overrun
    or fall short of the count."""
    model = build_model(preset_graph("D4")[0], 11, [2, 3, 5, 7])
    est = estimate_assembly(model)
    monkeypatch.setattr(plumbing, "estimate_assembly",
                        lambda m: {**est, field: est[field] + delta})
    with pytest.raises(PlumbingError, match="than"):
        assemble_matrix(model)


@pytest.mark.parametrize("j, field", [(next_prime(1 << 15), None),
                                      (11, "candidate_columns"),
                                      (11, "nnz")],
                         ids=["keys", "columns", "entries"])
def test_assembly_refuses_int32_overflow_before_allocating(monkeypatch, j,
                                                           field):
    """Value keys, candidate columns and entries are int32 (the peel's
    entry positions too), so a count of 2^31 or more is refused before
    any array is allocated.  The count is D4's at j = 11; at j = 32,771
    only the value keys overflow."""
    g = preset_graph("D4")[0]
    est = estimate_assembly(build_model(g, 11, [2, 3, 5, 7]))
    if field is not None:
        est[field] = 1 << 31
    model = build_model(g, j, [2, 3, 5, 7])
    monkeypatch.setattr(plumbing, "estimate_assembly", lambda m: est)
    tracemalloc.start()
    try:
        with pytest.raises(PlumbingError, match="overflow int32"):
            assemble_matrix(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _automatic_j(name):
    """The j `analyze` chooses for a preset."""
    g, cycle = preset_graph(name)
    if cycle is None:
        cycle = make_coprime_to_all(g, anti_ample_cycle(g),
                                    list(DEFAULT_PRIMES))
    plan = significant_multiplicity_to_all(g, tuple(cycle),
                                           list(DEFAULT_PRIMES))
    return choose_j(plan.nu, max(cycle), list(DEFAULT_PRIMES))


@pytest.mark.parametrize("name, j, cols, nnz", [
    ("D4", 11, 906, 2_556),
    ("E7", 103, 147_297, 1_492_392),
    ("E8", 271, 1_171_270, 25_010_996),
    ("A20", 2_099, 176_152_298, 310_455_746),
])
def test_closed_form_count_at_the_automatic_j(name, j, cols, nnz):
    """Candidate columns and entries at the j `analyze` chooses, as the
    column walk counted them; no assembly could check A20's."""
    assert _automatic_j(name) == j
    est = estimate_assembly(build_model(preset_graph(name)[0], j,
                                        list(DEFAULT_PRIMES)))
    assert (est["candidate_columns"], est["nnz"]) == (cols, nnz)
    assert est["assembly_peak_bytes"] == 96 * nnz


@settings(max_examples=60, deadline=None)
@given(_small_tree_models())
def test_zero_column_drop_matches_unique_on_random_trees(model):
    """Assembly keeps exactly the columns `np.unique` finds, numbered in
    catalog order: the oracle drops and numbers its own and agrees entry
    for entry."""
    _assert_matches_oracle(model)


@settings(max_examples=30, deadline=None)
@given(_small_tree_models())
def test_rank_mod_p_matches_dense_oracle_on_random_trees(model):
    mat = assemble_matrix(model)
    dense = np.array(oracle_dense(mat), dtype=object)
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


@settings(max_examples=100, deadline=None)
@given(_small_trees())
def test_h1_nondecreasing_in_j_on_random_trees(tree):
    """h1 over Q and at 2, 3, 5 and 7 never falls as the window grows
    through j = 11, 13, 17."""
    vertices, edges, _, _ = tree
    g = parse_graph("".join(vertices + edges))
    ladder = [[res["h1"] for res in analyze(graph=g, j=j)["results"].values()]
              for j in (11, 13, 17)]
    for low, high in zip(ladder, ladder[1:]):
        assert all(a <= b for a, b in zip(low, high)), ladder


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
    model = build_model(g, j, [2])
    slots = data.draw(_random_slots(valence))
    assert _ranks_off_j(with_slots(model, slots)) == _ranks_off_j(model)


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
def test_arrays_mod_matches_exact_values_on_random_trees(model):
    """The reduction of an assembled matrix is values[code[i]] mod p
    entry by entry, in stored order with zero residues dropped."""
    mat = assemble_matrix(model)
    for p in (2, 3, 5, 7, 2_147_483_629):
        got = mat.arrays_mod(p)
        assert list(zip(*(a.tolist() for a in got))) == \
            oracle_residues(mat, p)


# ---------------------------------------------------------------------------
# assembled matrix properties


@pytest.mark.parametrize("preset, j", [("D4", 11), ("E6", 43)])
def test_assembled_entries_take_12_bytes(preset, j):
    """An entry is an int32 row, column and value code; the table holds
    nonzero exact ints only, each used by some entry.  E6's binomials go
    beyond int64."""
    mat = assemble_matrix(build_model(preset_graph(preset)[0], j,
                                      [2, 3, 5, 7]))
    assert mat.row.nbytes + mat.col.nbytes + mat.code.nbytes == 12 * mat.nnz
    assert mat.values.dtype == object
    assert {type(v) for v in mat.values} == {int}
    assert all(mat.values != 0)
    assert np.bincount(mat.code, minlength=mat.values.size).all()


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


def test_estimate_allocates_nothing_per_column():
    """The count is closed form: A20 at its automatic j = 2,099 has
    176 M candidate columns and 310 M entries, and the estimate's traced
    peak stays under 1 MiB (the column walk it replaced peaked at
    ~244 MiB resident there)."""
    model = build_model(preset_graph("A20")[0], 2_099, list(DEFAULT_PRIMES))
    tracemalloc.start()
    try:
        est = estimate_assembly(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est["nnz"] == 310_455_746
    assert peak < 2**20


def _traced_assembly(model):
    """(matrix, traced peak bytes) of one assembly."""
    tracemalloc.start()
    try:
        mat = assemble_matrix(model)
        return mat, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _array_digest(mat):
    """sha256 of the row, col and code bytes and the value table."""
    h = hashlib.sha256()
    for a in (mat.row, mat.col, mat.code):
        h.update(a.tobytes())
    h.update(repr(mat.values.tolist()).encode())
    return h.hexdigest()


def _e7_model():
    return build_model(preset_graph("E7")[0], 103, list(DEFAULT_PRIMES))


def test_e7_assembly_bytes_pinned():
    """E7's entry arrays and value table, pinned before the slot-"1"
    fills were cut into column slices: the entries land in the same
    order."""
    mat = assemble_matrix(_e7_model())
    assert mat.nnz == 1_492_392
    assert _array_digest(mat) == \
        "e7bb5e22afe16ace5729be482a83b8e00602856f2f7ae882aea3e13b1a5585b2"


def test_e7_assembly_peak_within_twice_its_output():
    """Assembly's transients are bounded by the fill chunk, so E7's
    traced peak stays within twice its 12 B/entry output (17.1 MiB);
    one int64 key per entry for the duplicate check sets it."""
    mat, peak = _traced_assembly(_e7_model())
    assert peak <= 2 * 12 * mat.nnz, f"{peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("preset, j", [("D4", 11), ("E6", 43)])
def test_small_fill_chunks_give_the_same_arrays(monkeypatch, preset, j):
    """Cutting every slot-"1" fill and renumbering slice at 64 entries
    changes no byte of the assembled arrays or the value table.  A
    slot-"1" slice spans at most 64 // j columns (at least one), each a
    run of at most j entries; the grid rows, the other `_ranges` calls,
    span j - 1 or more."""
    model = build_model(preset_graph(preset)[0], j, list(DEFAULT_PRIMES))
    whole = assemble_matrix(model)
    monkeypatch.setattr(plumbing, "_FILL_CHUNK", 64)
    calls, ranges = [], plumbing._ranges
    monkeypatch.setattr(plumbing, "_ranges", lambda start, size: (
        calls.append((size.size, int(size.sum()))) or ranges(start, size)))
    cut = assemble_matrix(model)
    slices = [total for cols, total in calls if cols <= max(1, 64 // j)]
    assert slices and max(slices) <= 64 < sum(slices)
    for name in ("row", "col", "code"):
        assert np.array_equal(getattr(cut, name), getattr(whole, name))
    assert cut.values.tolist() == whole.values.tolist()


@pytest.mark.e8
def test_e8_assembly_peak():
    """E8's 25,010,996 entries (286 MiB at 12 B/entry) assemble under a
    600 MiB traced peak (731 MiB when each slot-"1" fill was one piece);
    the duplicate check's int64 key (191 MiB) sets it."""
    model = build_model(preset_graph("E8")[0], 271, list(DEFAULT_PRIMES))
    mat, peak = _traced_assembly(model)
    assert mat.nnz == 25_010_996
    assert peak < 600 * 2**20, f"{peak / 2**20:.0f} MiB"


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
    for r, c, v in triples(mat):
        if any(lo <= r < hi for lo, hi in plain_rows):
            seen.add(v)
    assert seen <= {1, -1, 2, -2}
    assert {1, -1, 2, -2} <= seen


# ---------------------------------------------------------------------------
# export


def test_export_import_round_trip_preserves_rank(tmp_path):
    g, _ = preset_graph("D4")
    m = build_model(g, 11, [2, 3, 5, 7])
    mat = assemble_matrix(m)
    path = tmp_path / "star.txt"
    write_matrix_text(mat, str(path))
    parsed = parse_matrix_text(path.read_text())
    assert parsed == (660, 720, sorted(triples(mat)))
    back = SparseIntMatrix.from_coo(*parsed)
    assert back.nnz == mat.nnz
    assert rank_mod_p(back, 2) == 659
    assert rank_mod_p(back, 3) == 660
