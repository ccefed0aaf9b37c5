"""Acceptance suite: one test per shipping criterion, exact tolerances.

Run `pytest -v tests/test_acceptance.py` for one pass/fail line per
criterion.  The largest workload (the E8 model, long-running and
memory-bound) is marked `e8` and deselected by default; run it with
`pytest -m e8`.
"""

import random
import resource
from itertools import (combinations, combinations_with_replacement,
                       permutations, product)
from math import gcd

import numpy as np
import pytest

from tautcheck.cli import analyze
from tautcheck.cycles import (anti_ample_cycle, choose_j, fundamental_cycle,
                              make_coprime_to_all,
                              significant_multiplicity_to_all)
from tautcheck.graph import (DualGraph, admissibility_violations,
                             intersection_matrix, is_negative_definite,
                             parse_graph, preset_graph)
from tautcheck.linalg import prove_rank_over_Q, rank_mod_p
from tautcheck.plumbing import assemble_matrix, build_model
from tautcheck.sparse import SparseIntMatrix

from plumbing_oracle import with_slots
from rank_oracle import oracle_dense, oracle_rank_dense

BIG_PRIME = 2147483629          # largest prime below 2**31

# reference values: preset -> (rows, ranks at p=2,3,5,7, h1 at p=2,3,5,7);
# D_N has h1 = floor(N/2) - 1 at 2, consistent with Artin's floor(N/2)
# forms of D_N in characteristic 2 ("Coverings of the rational double
# points in characteristic p", 1977)
FAST_TIER = {
    "D4": (660, (659, 660, 660, 660), (1, 0, 0, 0)),
    "D5": (2736, (2735, 2736, 2736, 2736), (1, 0, 0, 0)),
    "D6": (9300, (9298, 9300, 9300, 9300), (2, 0, 0, 0)),
    "E6": (18060, (18059, 18059, 18060, 18060), (1, 1, 0, 0)),
    "D8": (47908, (47905, 47908, 47908, 47908), (3, 0, 0, 0)),
    "D9": (79520, (79517, 79520, 79520, 79520), (3, 0, 0, 0)),
}
SLOW_TIER = {
    "D7": (21672, (21670, 21672, 21672, 21672), (2, 0, 0, 0)),
    "E7": (126072, (126069, 126071, 126072, 126072), (3, 1, 0, 0)),
    "D10": (167616, (167612, 167616, 167616, 167616), (4, 0, 0, 0)),
    "D11": (253120, (253116, 253120, 253120, 253120), (4, 0, 0, 0)),
}
D12_ROW = (374660, (374655, 374660, 374660, 374660), (5, 0, 0, 0))
E8_ROW = (1024380, (1024376, 1024378, 1024379, 1024380), (4, 2, 1, 0))

TABLE_J = {"D4": 11, "D5": 19, "D6": 31, "E6": 43, "D7": 43, "E7": 103,
           "E8": 271, "D8": 59, "D9": 71, "D10": 97, "D11": 113}


def _check_table_row(preset, rows, ranks, h1):
    r = analyze(preset=preset)
    res = r["results"]
    assert r["status"] == "ok"
    assert r["model"]["rows"] == rows
    got_ranks = tuple(res[f"p{p}"]["rank"] for p in (2, 3, 5, 7))
    got_h1 = tuple(res[f"p{p}"]["h1"] for p in (2, 3, 5, 7))
    assert got_ranks == ranks, preset
    assert got_h1 == h1, preset
    assert r["bad_primes"] == [p for p, h in zip((2, 3, 5, 7), h1) if h > 0]
    # the smallest candidate reaching full rank proves the rational rank
    assert r["certified"] is True, preset
    assert r["certificate_prime"] == \
        next(p for p, h in zip((2, 3, 5, 7), h1) if h == 0), preset
    return r


def test_criterion_01_reference_table_fast_tier():
    for preset, (rows, ranks, h1) in FAST_TIER.items():
        _check_table_row(preset, rows, ranks, h1)


def test_criterion_02_reference_table_slow_tier():
    for preset, (rows, ranks, h1) in SLOW_TIER.items():
        _check_table_row(preset, rows, ranks, h1)


@pytest.mark.e8
def test_criterion_02_reference_table_e8_long_running():
    _check_table_row("D12", *D12_ROW)
    rows, ranks, h1 = E8_ROW
    r = _check_table_row("E8", rows, ranks, h1)
    assert r["results"]["q"]["rank"] == 1024380
    assert r["results"]["q"]["h1"] == 0
    assert r["certificate_prime"] == 7
    # the north star's memory target for the whole run, 1.5 GB; a full
    # E8 analysis peaks at ~0.87 GB (ru_maxrss is in KiB on Linux)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    assert peak < 1.5e9, f"peak resident set {peak >> 20} MiB"


# h1 at (Q, 2, 3, 5, 7) in windows far below the automatic j: E7 from
# j = 11 and E8 from j = 17 on already give the reference rows, whose h1 + 1
# is Artin's count of forms; E8 at j = 13 is one short at p = 2 (measured)
SMALL_WINDOWS = {
    ("E7", 11): (0,) + SLOW_TIER["E7"][2],
    ("E7", 17): (0,) + SLOW_TIER["E7"][2],
    ("E8", 13): (0, 3, 2, 1, 0),
    ("E8", 17): (0,) + E8_ROW[2],
    ("E8", 19): (0,) + E8_ROW[2],
    ("E8", 23): (0,) + E8_ROW[2],
    # D_N ladder facts: floor(N/2) - 1 at 2, far below the automatic j
    ("D16", 17): (0, 7, 0, 0, 0),
    ("D20", 19): (0, 9, 0, 0, 0),
    ("D30", 29): (0, 14, 0, 0, 0),
}


@pytest.mark.parametrize("preset, j", list(SMALL_WINDOWS))
def test_small_windows_reach_artin_counts(preset, j):
    r = analyze(preset=preset, j=j)
    assert tuple(res["h1"] for res in r["results"].values()) == \
        SMALL_WINDOWS[preset, j]
    assert r["certified"] is True


def arithmetic_genus(g: DualGraph) -> int:
    """p_a(Z) = 1 + (Z·Z + K·Z)/2 of the fundamental cycle Z, with
    K·E_i = 2 g_i - 2 - E_i·E_i by adjunction.  The graph is rational
    iff it is 0 (Artin, Amer. J. Math. 88, 1966); minimally elliptic
    graphs have 1 (Laufer, Amer. J. Math. 99, 1977)."""
    m, z = intersection_matrix(g), fundamental_cycle(g)
    zz = sum(zi * mik * zk for zi, row in zip(z, m) for mik, zk in zip(row, z))
    kz = sum(zi * (2 * gi - 2 - m[i][i])
             for i, (zi, gi) in enumerate(zip(z, g.genus)))
    assert (zz + kz) % 2 == 0
    return 1 + (zz + kz) // 2


def _tree(weights, edges):
    g = DualGraph()
    for i, w in enumerate(weights):
        g.add_vertex(f"v{i}", 0, w)
    for a, b in edges:
        g.add_edge(f"v{a}", f"v{b}")
    return g


@pytest.mark.parametrize("preset",
                         ["D4", "D5", "D11", "E6", "E7", "E8", "A1", "A5"])
def test_presets_are_rational(preset):
    assert arithmetic_genus(preset_graph(preset)[0]) == 0


@pytest.mark.parametrize("weights, edges, p_a, h1, certified", [
    # rational, no -1 vertex, yet h1 = 1 over Q and in every characteristic
    ((-2, -5, -2, -3, -2, -2, -2),
     [(0, 1), (1, 2), (0, 3), (0, 4), (3, 5), (4, 6)],
     0, (1, 1, 1, 1, 1), False),
    # not rational, yet certified taut over Q: h1 = 0 except at 2
    ((-2, -2, -5, -2, -3, -3), [(0, 1), (0, 2), (1, 3), (0, 4), (1, 5)],
     1, (0, 1, 0, 0, 0), True),
])
def test_arithmetic_genus_of_two_trees(weights, edges, p_a, h1, certified):
    """Two trees where `h1`_Q and p_a(Z) part, pinned at j = 11 as
    measured findings."""
    g = _tree(weights, edges)
    assert not admissibility_violations(g)
    assert arithmetic_genus(g) == p_a
    r = analyze(graph=g, j=11)
    assert tuple(res["h1"] for res in r["results"].values()) == h1
    assert r["certified"] is certified


def test_three_arm_stars_h1_over_q_is_arithmetic_genus():
    """Every admissible three-arm star with a -1, -2 or -3 centre and
    single arms -2...-7 (arms unordered): at j = 11, `h1`_Q = p_a(Z), and
    the rational rank is certified exactly when p_a(Z) = 0."""
    counts = {0: 0, 1: 0}
    for centre in (-1, -2, -3):
        for arms in combinations_with_replacement(range(-2, -8, -1), 3):
            g = _tree((centre,) + arms, [(0, 1), (0, 2), (0, 3)])
            if admissibility_violations(g):
                continue
            p_a = arithmetic_genus(g)
            r = analyze(graph=g, j=11)
            assert r["results"]["q"]["h1"] == p_a, (centre, arms)
            assert r["certified"] is (p_a == 0), (centre, arms)
            counts[p_a] += 1
    assert counts == {0: 112, 1: 44}


def test_criterion_03_row_count_formula():
    cases = [(preset, TABLE_J[preset]) for preset in TABLE_J]
    cases += [(f"A{n}", 11) for n in range(1, 7)]
    cases += [("D4", 13), ("E6", 11), ("A3", 5)]
    for preset, j in cases:
        g, _ = preset_graph(preset)
        model = build_model(g, j, [2, 3])
        pt = len(model.points)
        assert model.row_count == 2 * pt * (j * j - j), (preset, j)
    mixed = parse_graph("vertex a genus=0 selfint=-2\n"
                        "vertex b genus=0 selfint=-3\n"
                        "edge a b\n")
    model = build_model(mixed, 5, [2, 3])
    assert model.row_count == 2 * 1 * (5 * 5 - 5)


def test_criterion_04_rank_monotonicity_and_chain_tautness():
    # chains of rational -2 curves are taut: h1 = 0 in every characteristic,
    # so the modular ranks all reach the rational rank
    for n in range(1, 7):
        r = analyze(preset=f"A{n}", j=11)
        assert r["status"] == "ok"
        rows = r["model"]["rows"]
        assert rows == 2 * (n - 1) * 110
        for key, res in r["results"].items():
            assert res["h1"] == 0, (n, key)
            assert res["rank"] == rows
        # independent monotonicity check on the matrix analyze assembles
        g, _ = preset_graph(f"A{n}")
        matrix = assemble_matrix(build_model(g, 11, [2, 3, 5, 7]))
        assert (matrix.nrows, matrix.nnz) == (rows, r["model"]["nnz"])
        rq = prove_rank_over_Q(matrix, ()).rank_q
        for p in (2, 3, 5, 7):
            assert rank_mod_p(matrix, p) <= rq
    # monotonicity on rank-deficient models as well
    for preset in ("D4", "E6"):
        g, _ = preset_graph(preset)
        matrix = assemble_matrix(build_model(g, TABLE_J[preset], [2, 3, 5, 7]))
        rq = prove_rank_over_Q(matrix, ()).rank_q
        for p in (2, 3, 5, 7):
            assert rank_mod_p(matrix, p) <= rq


def test_criterion_05_rank_oracle_on_random_sparse_matrices():
    rng = random.Random(20260816)
    for trial in range(200):
        m = rng.randint(1, 60)
        n = rng.randint(1, 60)
        density = rng.choice([0.05, 0.1, 0.25, 0.5])
        triples = []
        for r in range(m):
            for c in range(n):
                if rng.random() < density:
                    v = 0
                    while v == 0:
                        v = rng.randint(-20, 20)
                    triples.append((r, c, v))
        mat = SparseIntMatrix.from_coo(m, n, triples)
        dense = oracle_dense(mat)
        for p in (2, 3, 5, 7, 101):
            assert rank_mod_p(mat, p) == oracle_rank_dense(dense, p), \
                (trial, m, n, p)


def _star_graph(order):
    """The 4-vertex star with its vertices declared in the given order;
    `order` lists the three leaves, optionally with the center anywhere."""
    g = DualGraph()
    for vid in order:
        g.add_vertex(vid, 0, -2)
    for leaf in "xyz":
        g.add_edge("c", leaf)
    return g


def test_criterion_06_relabeling_and_slot_invariance():
    # vertex relabeling: every declaration order of the star's leaves
    expected_ranks = (659, 660, 660, 660)
    for leaves in permutations("xyz"):
        for order in (("c",) + leaves, leaves + ("c",)):
            r = analyze(graph=_star_graph(order), j=11)
            got = tuple(r["results"][f"p{p}"]["rank"] for p in (2, 3, 5, 7))
            assert got == expected_ranks, order
            assert r["results"]["q"]["rank"] == 660

    # slot assignments: all choices at every vertex, star and chain
    def rank_profile(g, assignment):
        model = with_slots(build_model(g, 11, [2, 3, 5, 7]), assignment)
        mat = assemble_matrix(model)
        return tuple(rank_mod_p(mat, p) for p in (2, 3, 5, 7, BIG_PRIME))

    star, _ = preset_graph("D4")
    center = star.ids.index("d3")
    leaves = [i for i in range(4) if i != center]
    base_star = rank_profile(star, {})
    assert base_star == (659, 660, 660, 660, 660)
    count = 0
    for center_slots in permutations(["0", "inf", "1"]):
        for leaf_slots in product(["0", "inf", "1"], repeat=3):
            assignment = {center: list(center_slots)}
            for v, s in zip(leaves, leaf_slots):
                assignment[v] = [s]
            assert rank_profile(star, assignment) == base_star
            count += 1
    assert count == 6 * 27

    chain, _ = preset_graph("A3")
    base_chain = rank_profile(chain, {})
    assert base_chain == (440, 440, 440, 440, 440)
    count = 0
    for mid_slots in permutations(["0", "inf", "1"], 2):
        for end_slots in product(["0", "inf", "1"], repeat=2):
            assignment = {1: list(mid_slots), 0: [end_slots[0]],
                          2: [end_slots[1]]}
            assert rank_profile(chain, assignment) == base_chain
            count += 1
    assert count == 6 * 9


def test_criterion_07_fundamental_cycle_brute_force():
    """Exhaustive check on every connected negative-definite graph with
    up to 4 vertices, self-intersections in [-4,-1] and up to double
    edges: the computed fundamental cycle is the coefficientwise minimum
    of all full-support cycles with no positive intersection, and the
    computed anti-ample cycle the minimum of those pairing <= -1 with
    every vertex, each searched over the box [1,6]^n.  Coprimality
    postconditions are asserted on every graph."""
    box = {n: np.array(list(product(range(1, 7), repeat=n)), dtype=np.int64)
           for n in (1, 2, 3, 4)}
    total = 0
    # per cycle and limit: graphs verified in the box, graphs outside it
    counts = {0: [0, 0], -1: [0, 0]}
    for n in (1, 2, 3, 4):
        pairs = list(combinations(range(n), 2))
        for mults in product((0, 1, 2), repeat=len(pairs)):
            seen = {0}
            grew = True
            while grew:
                grew = False
                for (a, b), m in zip(pairs, mults):
                    if m and ((a in seen) != (b in seen)):
                        seen |= {a, b}
                        grew = True
            if len(seen) != n:
                continue
            for selfs in product((-1, -2, -3, -4), repeat=n):
                g = DualGraph()
                for i in range(n):
                    g.add_vertex(f"v{i}", 0, selfs[i])
                for (a, b), mm in zip(pairs, mults):
                    for _ in range(mm):
                        g.add_edge(f"v{a}", f"v{b}")
                if not is_negative_definite(g):
                    continue
                total += 1
                m = [[0] * n for _ in range(n)]
                for i in range(n):
                    m[i][i] = selfs[i]
                for (a, b), mm in zip(pairs, mults):
                    m[a][b] = m[b][a] = mm
                mm_np = np.array(m, dtype=np.int64)
                scores = box[n] @ mm_np.T
                aa = anti_ample_cycle(g)
                for limit, z in ((0, fundamental_cycle(g)), (-1, aa)):
                    valid = box[n][(scores <= limit).all(axis=1)]
                    if valid.size == 0:
                        assert max(z) > 6, (m, limit, z)
                        counts[limit][1] += 1
                    else:
                        zmin = valid.min(axis=0)
                        assert (mm_np @ zmin <= limit).all(), (m, limit, zmin)
                        assert tuple(int(v) for v in zmin) == z, (m, limit, z)
                        counts[limit][0] += 1
                assert all(int(v) < 0 for v in mm_np @ np.array(aa)), (m, aa)
                cz = make_coprime_to_all(g, aa, [2, 3, 5, 7])
                assert all(int(v) < 0 for v in mm_np @ np.array(cz)), (m, cz)
                assert all(gcd(c, 2 * 3 * 5 * 7) == 1 for c in cz), (m, cz)
    # catalog size is deterministic; pin it so silent shrinkage is caught
    assert (total, *counts[0]) == (18603, 18315, 288)
    assert (total, *counts[-1]) == (18603, 11399, 7204)


def test_criterion_08_truncation_soundness():
    """A larger prime j enlarges both the exponent window (rows) and the
    generator catalog (columns); h1 = rows - rank must not change.
    Checked densely with an independent elimination on the two-vertex
    chains at j = 5 against 11, then on a model with a genuine rank drop
    at p = 2 (D4 at 11 against 23) and on a chain outside the presets at
    its plan j = 113 against 227."""
    uniform, _ = preset_graph("A2")
    mixed = parse_graph("vertex a genus=0 selfint=-2\n"
                        "vertex b genus=0 selfint=-3\n"
                        "edge a b\n")
    # the model is characteristic-free (integer entries); the candidate
    # list only validates j, so ranks may be taken at any prime afterwards
    for g in (uniform, mixed):
        small = assemble_matrix(build_model(g, 5, [2, 3]))
        large = assemble_matrix(build_model(g, 11, [2, 3]))
        assert small.nrows == 40 and large.nrows == 220
        dense_small = oracle_dense(small)
        dense_large = oracle_dense(large)
        for p in (2, 3, 5, 7, BIG_PRIME):
            r_small = oracle_rank_dense(dense_small, p)
            r_large = oracle_rank_dense(dense_large, p)
            assert rank_mod_p(small, p) == r_small
            assert rank_mod_p(large, p) == r_large
            assert small.nrows - r_small == large.nrows - r_large == 0, p

    primes = [2, 3, 5, 7]
    chain = parse_graph("vertex a genus=0 selfint=-3\n"
                        "vertex b genus=0 selfint=-2\n"
                        "vertex c genus=0 selfint=-3\n"
                        "edge a b\nedge b c\n")
    cycle = make_coprime_to_all(chain, anti_ample_cycle(chain), primes)
    plan = significant_multiplicity_to_all(chain, cycle, primes)
    assert choose_j(plan.nu, max(cycle), primes) == 113
    star, _ = preset_graph("D4")
    for g, j, rows, big_j, big_rows, h1 in (
            (star, 11, 660, 23, 3036, {2: 1}),
            (chain, 113, 50624, 227, 205208, {})):
        small = assemble_matrix(build_model(g, j, primes))
        large = assemble_matrix(build_model(g, big_j, primes))
        assert (small.nrows, large.nrows) == (rows, big_rows)
        for p in (2, 3, 5, 7, BIG_PRIME):
            assert small.nrows - rank_mod_p(small, p) == h1.get(p, 0), p
            assert large.nrows - rank_mod_p(large, p) == h1.get(p, 0), p


def test_criterion_09_plan_reproduction():
    primes = [2, 3, 5, 7]
    for preset, expected_j in TABLE_J.items():
        g, cycle = preset_graph(preset)
        assert cycle is not None, preset
        plan = significant_multiplicity_to_all(g, cycle, primes, "paper")
        assert plan.lambda_bound == 0, preset
        assert plan.tau == 1, preset
        assert plan.nu == 2, preset
        assert choose_j(plan.nu, max(cycle), primes) == expected_j, preset
