"""Graph parsing, presets, and the exact combinatorial checks."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tautcheck.graph import (
    DualGraph,
    GraphError,
    intersection_matrix,
    is_connected,
    is_negative_definite,
    parse_graph,
    potential_tautness_violations,
    preset_graph,
    preset_name,
)

from graph_writer import graph_text


# ---------------------------------------------------------------------------
# parsing


def test_parse_single_vertex():
    g = parse_graph("vertex a genus=0 selfint=-2\n")
    assert g.ids == ["a"]
    assert (g.genus, g.selfint) == ([0], [-2])
    assert g.edges == []


def test_parse_star_with_comments_and_mult():
    text = """
    # a four-vertex star
    vertex c genus=0 selfint=-2 mult=2
    vertex l1 genus=0 selfint=-2
    vertex l2 genus=0 selfint=-2
    vertex l3 genus=0 selfint=-2
    edge l1 c   # leaves attach to the center
    edge l2 c
    edge l3 c
    """
    g = parse_graph(text)
    assert g.n == 4
    # mult is validated, not stored
    assert set(vars(g)) == {"ids", "genus", "selfint", "edges"}
    assert (g.genus, g.selfint) == ([0] * 4, [-2] * 4)
    # edges are pairs of vertex positions
    assert g.edges == [(1, 0), (2, 0), (3, 0)]
    assert g.valence(0) == 3
    assert g.valence(1) == 1


def test_parse_parallel_edges_counted():
    g = parse_graph("vertex a genus=0 selfint=-3\n"
                    "vertex b genus=0 selfint=-3\n"
                    "edge a b\nedge a b\n")
    assert g.valence(0) == 2
    assert intersection_matrix(g) == [[-3, 2], [2, -3]]


@pytest.mark.parametrize("bad, fragment", [
    ("vertex a genus=0 selfint=-2\nedge a a\n", "loop"),
    ("vertex a genus=0 selfint=-2\nvertex a genus=0 selfint=-2\n", "duplicate"),
    ("vertex a genus=0 selfint=-2\nedge a b\n", "unknown vertex"),
    ("vertex a genus=-1 selfint=-2\n", "genus"),
    ("vertex a genus=0 selfint=0\n", "selfint"),
    ("vertex a genus=0 selfint=-2 mult=0\n", "mult"),
    ("vertex a genus=0\n", "selfint"),
    ("vertex a genus=0 selfint=-2 genus=1\n", "repeated"),
    ("vertx a genus=0 selfint=-2\n", "unknown directive"),
    ("edge a\n", "malformed"),
])
def test_parse_errors_carry_reason(bad, fragment):
    with pytest.raises(GraphError) as err:
        parse_graph(bad)
    assert fragment in str(err.value)


@pytest.mark.parametrize("decorations, key", [
    ((0, -2.5), "selfint"),
    ((0.0, -2), "genus"),
    ((True, -2), "genus"),
    ((0, "-2"), "selfint"),
    ((0, -2, 1.5), "mult"),
    ((0, -2, True), "mult"),
])
def test_add_vertex_refuses_non_integer_decorations(decorations, key):
    """A float, string or bool decoration is refused; a selfint of -2.5
    once reached numpy in `analyze` as a TypeError, and True was stored
    as a genus."""
    g = DualGraph()
    with pytest.raises(GraphError,
                       match=f"^vertex 'a': {key} must be an integer$"):
        g.add_vertex("a", *decorations)
    assert vars(g) == vars(DualGraph())
    g.add_vertex("a", 0, -2, np.int64(3))
    g.add_vertex("b", np.int64(0), np.int64(-2))
    assert g.ids == ["a", "b"]


def test_parse_error_reports_line_number():
    with pytest.raises(GraphError) as err:
        parse_graph("vertex a genus=0 selfint=-2\n\nedge a a\n")
    assert "line 3" in str(err.value)


def test_serialize_round_trip():
    text = ("vertex a genus=1 selfint=-4 mult=3\n"
            "vertex b genus=0 selfint=-2\n"
            "edge a b\nedge a b\n")
    g = parse_graph(text)
    again = parse_graph(graph_text(g))
    assert again == g


def test_serialize_round_trip_presets():
    for name in ["A1", "A4", "D4", "D7", "E6", "E8"]:
        g, _ = preset_graph(name)
        assert parse_graph(graph_text(g)) == g


@st.composite
def _decorated_graphs(draw):
    """Any valid graph: genus, mult decorations and parallel edges."""
    g = DualGraph()
    ids = draw(st.lists(st.text("ab_019", min_size=1, max_size=3),
                        max_size=6, unique=True))
    for vid in ids:
        g.add_vertex(vid, draw(st.integers(0, 3)), draw(st.integers(-9, -1)),
                     draw(st.none() | st.integers(1, 50)))
    if len(ids) > 1:
        pairs = st.tuples(st.sampled_from(ids), st.sampled_from(ids)).filter(
            lambda e: e[0] != e[1])
        edges = draw(st.lists(pairs, max_size=8))
        if edges:
            edges += draw(st.lists(st.sampled_from(edges), max_size=3))
        for a, b in edges:
            g.add_edge(a, b)
    return g


@settings(max_examples=200, deadline=None)
@given(_decorated_graphs())
def test_serialize_parse_round_trip_property(g):
    text = graph_text(g)
    again = parse_graph(text)
    assert again == g
    assert graph_text(again) == text


# ---------------------------------------------------------------------------
# intersection matrix


def test_intersection_matrix_single_vertex():
    g = parse_graph("vertex a genus=0 selfint=-2\n")
    assert intersection_matrix(g) == [[-2]]


def test_intersection_matrix_chain_of_two():
    g, _ = preset_graph("A2")
    assert intersection_matrix(g) == [[-2, 1], [1, -2]]


def test_intersection_matrix_star():
    g, _ = preset_graph("D4")
    m = intersection_matrix(g)
    assert all(m[i][i] == -2 for i in range(4))
    center = g.ids.index("d3")
    assert sorted(m[center][j] for j in range(4) if j != center) == [1, 1, 1]
    # symmetry on every preset used in the suite
    for name in ["A3", "D5", "E6", "E8"]:
        gg, _ = preset_graph(name)
        mm = intersection_matrix(gg)
        assert mm == [list(row) for row in zip(*mm)]


# ---------------------------------------------------------------------------
# negative definiteness


def _two_vertices(a, b, edges):
    return parse_graph(f"vertex a genus=0 selfint={a}\n"
                       f"vertex b genus=0 selfint={b}\n" + "edge a b\n" * edges)


def test_negative_definite_basic_matrices():
    assert is_negative_definite(parse_graph("vertex a genus=0 selfint=-2\n"))
    assert not is_negative_definite(DualGraph())
    # second minors 3, 0, -2 and -5: positive, zero, then the wrong sign
    assert is_negative_definite(_two_vertices(-2, -2, 1))
    assert not is_negative_definite(_two_vertices(-1, -1, 1))
    assert not is_negative_definite(_two_vertices(-1, -2, 2))
    assert not is_negative_definite(_two_vertices(-2, -2, 3))


def test_negative_definite_presets():
    for name in ["A1", "A2", "A6", "D4", "D7", "E6", "E7", "E8"]:
        g, _ = preset_graph(name)
        assert is_negative_definite(g), name


def test_not_negative_definite_when_degenerate():
    # two -2 vertices joined by two parallel edges: determinant 0
    g = parse_graph("vertex a genus=0 selfint=-2\n"
                    "vertex b genus=0 selfint=-2\n"
                    "edge a b\nedge a b\n")
    assert not is_negative_definite(g)


def _brute_force_negdef(m, box=3):
    """xT M x < 0 for every nonzero integer vector with entries in [-box, box].

    Necessary for negative definiteness; on the small matrices used here it
    is also sufficient in every case the exact test accepts.
    """
    n = len(m)
    for x in itertools.product(range(-box, box + 1), repeat=n):
        if all(v == 0 for v in x):
            continue
        q = sum(m[i][j] * x[i] * x[j] for i in range(n) for j in range(n))
        if q >= 0:
            return False
    return True


def _leibniz_det(m):
    """Exact determinant by the permutation expansion."""
    total = 0
    for perm in itertools.permutations(range(len(m))):
        sign = (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
        total += sign * math.prod(row[c] for row, c in zip(m, perm))
    return total


@settings(max_examples=200, deadline=None)
@given(_decorated_graphs())
def test_negative_definite_matches_leibniz_minors(g):
    """The elimination's early exits agree with Sylvester's criterion on
    minors computed by the permutation expansion."""
    m = intersection_matrix(g)
    want = g.n > 0 and all((-1) ** k * _leibniz_det([r[:k] for r in m[:k]]) > 0
                           for k in range(1, g.n + 1))
    assert is_negative_definite(g) == want


def test_negative_definite_agrees_with_brute_force():
    graphs = [preset_graph(n)[0] for n in ["A1", "A2", "A3", "D4", "D5"]]
    graphs.append(parse_graph("vertex a genus=0 selfint=-1\n"))
    graphs.append(parse_graph("vertex a genus=0 selfint=-1\n"
                              "vertex b genus=0 selfint=-1\n"
                              "edge a b\n"))
    graphs.append(parse_graph("vertex a genus=0 selfint=-2\n"
                              "vertex b genus=0 selfint=-2\n"
                              "edge a b\nedge a b\n"))
    for g in graphs:
        m = intersection_matrix(g)
        assert is_negative_definite(g) == _brute_force_negdef(m)


# ---------------------------------------------------------------------------
# potential tautness


def test_potentially_taut_star():
    g, _ = preset_graph("D4")
    assert potential_tautness_violations(g) == []


def test_genus_violation_reported():
    g = parse_graph("vertex a genus=1 selfint=-2\n")
    reasons = potential_tautness_violations(g)
    assert len(reasons) == 1 and "genus" in reasons[0]


def test_valence_violation_reported():
    lines = ["vertex c genus=0 selfint=-2"]
    for i in range(4):
        lines.append(f"vertex l{i} genus=0 selfint=-2")
        lines.append(f"edge c l{i}")
    g = parse_graph("\n".join(lines))
    reasons = potential_tautness_violations(g)
    assert len(reasons) == 1 and "valence" in reasons[0]


# ---------------------------------------------------------------------------
# connectivity


def test_connectivity():
    assert is_connected(preset_graph("E7")[0])
    assert not is_connected(DualGraph())
    g = parse_graph("vertex a genus=0 selfint=-2\nvertex b genus=0 selfint=-2\n")
    assert not is_connected(g)


# ---------------------------------------------------------------------------
# presets


# the reference for the cycles `preset_graph` computes with
# `anti_ample_cycle`
PRESET_CYCLES = {
    "D4": (3, 3, 5, 3),
    "D5": (5, 5, 9, 7, 4),
    "D6": (8, 8, 15, 13, 10, 6),
    "D7": (11, 11, 21, 19, 16, 12, 7),
    "D8": (14, 14, 27, 25, 22, 18, 13, 7),
    "E6": (8, 15, 21, 11, 15, 8),
    "E7": (18, 35, 51, 26, 40, 28, 15),
    "E8": (46, 91, 135, 68, 110, 84, 57, 29),
}


def test_preset_shapes():
    g, cyc = preset_graph("D4")
    assert g.n == 4 and len(g.edges) == 3
    assert cyc == (3, 3, 5, 3)
    # the largest coefficient sits on the center
    assert cyc[g.ids.index("d3")] == 5
    g, cyc = preset_graph("E8")
    assert g.n == 8 and len(g.edges) == 7
    assert max(cyc) == 135
    g, cyc = preset_graph("A1")
    assert g.n == 1 and cyc == (1,)
    g, cyc = preset_graph("A5")
    assert g.n == 5 and len(g.edges) == 4 and cyc is None


def test_preset_names_flexible():
    for alias in ["d4", "D_4", "d_4", " D4 "]:
        g, cyc = preset_graph(alias)
        assert g.n == 4 and cyc == (3, 3, 5, 3)


def test_preset_sizes_read_as_numbers():
    """A leading zero names the same preset on every letter, as it does
    for the chains (A01 is A1)."""
    for alias, name in [("D04", "D4"), ("d_04", "D4"), ("E07", "E7"),
                        ("A01", "A1"), ("D008", "D8"), (" d_8 ", "D8")]:
        assert preset_name(alias) == name
        (g, cyc), (want, want_cyc) = preset_graph(alias), preset_graph(name)
        assert (g.ids, g.genus, g.selfint, g.edges, cyc) == \
            (want.ids, want.genus, want.selfint, want.edges, want_cyc)


def test_preset_unknown():
    for bad in ["F4", "D3", "D0", "E5", "E9", "E09", "Q", "A-1", ""]:
        with pytest.raises(GraphError, match=re.escape(
                f"unknown preset {bad!r} (available: A<n>, D<n> for "
                f"n >= 4, E6, E7, E8)")):
            preset_graph(bad)
    with pytest.raises(GraphError, match="chain length must be >= 1"):
        preset_graph("A0")


def test_preset_cycles_pair_strictly_negative():
    """Every attached cycle pairs strictly negatively with every vertex."""
    for name, cyc in PRESET_CYCLES.items():
        g, attached = preset_graph(name)
        assert attached == cyc
        m = intersection_matrix(g)
        for i in range(g.n):
            pairing = sum(m[i][j] * cyc[j] for j in range(g.n))
            assert pairing < 0, (name, g.ids[i], pairing)


def test_presets_are_potentially_taut_and_negative_definite():
    for name in list(PRESET_CYCLES) + ["A1", "A2", "A6"]:
        g, _ = preset_graph(name)
        assert is_connected(g)
        assert is_negative_definite(g)
        assert potential_tautness_violations(g) == []
