"""Cycle computations: fundamental/anti-ample cycles, coprimality repair,
and the lambda/tau/nu plan."""

import functools
import itertools
import math

import numpy as np
import pytest

import tautcheck.cycles as cycles
from tautcheck.cycles import (
    CyclesError,
    MultiplicityPlan,
    anti_ample_cycle,
    choose_j,
    fundamental_cycle,
    greedy_tau,
    is_anti_ample,
    make_coprime_to_all,
    significant_multiplicity_to_all,
    vanishing_floor,
)
from tautcheck.graph import intersection_matrix, parse_graph, preset_graph


def _pairings(g, z):
    m = intersection_matrix(g)
    return [sum(m[i][j] * z[j] for j in range(g.n)) for i in range(g.n)]


# ---------------------------------------------------------------------------
# fundamental cycle


def test_fundamental_single_vertex():
    g, _ = preset_graph("A1")
    assert fundamental_cycle(g) == (1,)


def test_fundamental_chain_of_two():
    g, _ = preset_graph("A2")
    assert fundamental_cycle(g) == (1, 1)


def test_fundamental_star():
    g, _ = preset_graph("D4")
    z = fundamental_cycle(g)
    assert z == (1, 1, 2, 1)
    assert z[g.ids.index("d3")] == 2


def test_fundamental_matches_box_brute_force():
    """On small graphs the fundamental cycle is the componentwise-minimal
    vector in [1,6]^n whose pairings are all <= 0."""
    for name in ["A1", "A2", "A3", "A4", "D4"]:
        g, _ = preset_graph(name)
        m = intersection_matrix(g)
        sols = [z for z in itertools.product(range(1, 7), repeat=g.n)
                if all(v <= 0 for v in
                       (sum(m[i][j] * z[j] for j in range(g.n))
                        for i in range(g.n)))]
        assert sols, name
        minimal = tuple(min(z[i] for z in sols) for i in range(g.n))
        assert minimal in sols  # the componentwise min is itself a solution
        assert fundamental_cycle(g) == minimal


def test_fundamental_rejects_bad_graphs():
    """Both least cycles refuse a disconnected and a degenerate graph,
    each naming itself."""
    disconnected = parse_graph("vertex a genus=0 selfint=-2\n"
                               "vertex b genus=0 selfint=-2\n")
    degenerate = parse_graph("vertex a genus=0 selfint=-2\n"
                             "vertex b genus=0 selfint=-2\n"
                             "edge a b\nedge a b\n")
    for least, what in ((fundamental_cycle, "fundamental cycle"),
                        (anti_ample_cycle, "anti-ample cycle")):
        with pytest.raises(CyclesError,
                           match=f"^{what} needs a connected graph$"):
            least(disconnected)
        with pytest.raises(CyclesError,
                           match=f"^{what} needs a negative-definite graph$"):
            least(degenerate)


def test_least_cycle_names_its_step_bound(monkeypatch):
    """An iteration cut short by its step bound says so, rather than
    doubt the graph it has just found negative definite.  D4's least
    anti-ample cycle (3, 3, 5, 3) is 10 bumps above all-ones, and the
    step that finds nothing to bump is the 11th."""
    g, _ = preset_graph("D4")
    monkeypatch.setattr(cycles, "_MAX_STEPS", 10)
    with pytest.raises(CyclesError, match="^anti-ample cycle iteration "
                       "reached its bound of 10 steps$"):
        anti_ample_cycle(g)
    monkeypatch.setattr(cycles, "_MAX_STEPS", 11)
    assert anti_ample_cycle(g) == (3, 3, 5, 3)


# ---------------------------------------------------------------------------
# anti-ample cycles


def test_anti_ample_small_cases():
    g, _ = preset_graph("A1")
    assert anti_ample_cycle(g) == (1,)
    g, _ = preset_graph("A2")
    assert anti_ample_cycle(g) == (1, 1)


def test_anti_ample_postcondition_everywhere():
    for name in ["A3", "A6", "D4", "D6", "E6", "E8"]:
        g, _ = preset_graph(name)
        z = anti_ample_cycle(g)
        assert is_anti_ample(g, z), name
        base = fundamental_cycle(g)
        assert all(a >= b for a, b in zip(z, base))


def test_attached_preset_cycles_validate():
    for name in ["D4", "D5", "D6", "D7", "E6", "E7", "E8"]:
        g, cyc = preset_graph(name)
        assert is_anti_ample(g, cyc), name


def test_is_anti_ample_rejects():
    g, _ = preset_graph("A3")
    assert not is_anti_ample(g, (1, 1, 1))   # middle pairing is 0
    assert not is_anti_ample(g, (1, 0, 1))   # support not full
    assert not is_anti_ample(g, (1, 1))      # wrong length


# ---------------------------------------------------------------------------
# coprimality repair


def test_make_coprime_passthrough_p1():
    """An empty list imposes no condition; 1 is refused, not read as
    "no condition"."""
    g, _ = preset_graph("A2")
    assert make_coprime_to_all(g, (1, 1), []) == (1, 1)
    with pytest.raises(CyclesError, match=r"primes below 2\^31, got \[1\]"):
        make_coprime_to_all(g, (1, 1), [1])


def test_make_coprime_star_at_7_passthrough():
    # no coefficient is a multiple of 7, so the input is kept
    g, cyc = preset_graph("D4")
    assert make_coprime_to_all(g, cyc, [7]) == (3, 3, 5, 3)


def test_make_coprime_star_at_3():
    # t = 3 for the star, scale (12,12,20,12), bump multiples of 3
    g, cyc = preset_graph("D4")
    assert make_coprime_to_all(g, cyc, [3]) == (13, 13, 20, 13)


def test_make_coprime_postconditions():
    cases = [("A2", (1, 1)), ("A3", (2, 3, 2)), ("D4", (3, 3, 5, 3)),
             ("E6", preset_graph("E6")[1])]
    for name, z in cases:
        g, _ = preset_graph(name)
        for p in (2, 3, 5, 7, 11):
            out = make_coprime_to_all(g, z, [p])
            assert is_anti_ample(g, out), (name, p)
            assert all(c % p != 0 for c in out), (name, p)


def test_make_coprime_rejects_non_anti_ample():
    g, _ = preset_graph("A3")
    with pytest.raises(CyclesError):
        make_coprime_to_all(g, (1, 1, 1), [2])


def test_make_coprime_rejects_p_below_one():
    """0 once made the bump search loop forever on gcd(x, 0) = x; 1 and
    the composite 4 once passed D4's (3, 3, 5, 3) through."""
    g, cyc = preset_graph("D4")
    for p in (0, -3, 1, 4, 1 << 31):
        with pytest.raises(CyclesError):
            make_coprime_to_all(g, cyc, [p])


def test_make_coprime_to_all_postconditions():
    cases = [("A3", (2, 3, 2)), ("D4", (3, 3, 5, 3)), ("A6", None),
             ("E7", preset_graph("E7")[1])]
    for name, z in cases:
        g, _ = preset_graph(name)
        if z is None:
            z = anti_ample_cycle(g)
        out = make_coprime_to_all(g, z, [2, 3, 5, 7])
        assert is_anti_ample(g, out), name
        assert all(math.gcd(c, 210) == 1 for c in out), name


def test_make_coprime_to_all_passthrough_when_coprime():
    g, _ = preset_graph("A2")
    assert make_coprime_to_all(g, (1, 1), [2, 3, 5, 7]) == (1, 1)
    assert make_coprime_to_all(g, (1, 1), []) == (1, 1)


def test_make_coprime_to_all_rejects_entries_below_one():
    g, cyc = preset_graph("D4")
    for primes in ([2, 0], [5, -3], [2, 1], [5, 9]):
        with pytest.raises(CyclesError):
            make_coprime_to_all(g, cyc, primes)


def test_make_coprime_to_all_matches_single_prime_on_repairs():
    """For one prime whose multiples the input actually has, the pass is
    the classical scale by t + 1 and bump of each multiple by one."""
    g, cyc = preset_graph("D4")
    assert make_coprime_to_all(g, cyc, [5]) == (12, 12, 21, 12)
    g3, _ = preset_graph("A3")
    assert make_coprime_to_all(g3, (2, 3, 2), [2]) == (7, 9, 7)


# ---------------------------------------------------------------------------
# lambda


def test_vanishing_floor_examples():
    for name in ["A1", "A4", "D4", "E8"]:
        g, _ = preset_graph(name)
        assert vanishing_floor(g) == 0, name
    assert vanishing_floor(parse_graph("vertex a genus=0 selfint=-3\n")) == 1
    assert vanishing_floor(parse_graph("vertex a genus=0 selfint=-2\n")) == 0
    assert vanishing_floor(parse_graph("vertex a genus=1 selfint=-1\n")) == 1
    assert vanishing_floor(parse_graph("vertex a genus=2 selfint=-1\n")) == 4


# ---------------------------------------------------------------------------
# greedy tau


def test_greedy_tau_star():
    g, cyc = preset_graph("D4")
    tau, beta = greedy_tau(g, cyc)
    assert tau == 1
    assert beta[0] == 0
    assert len(beta) == sum(cyc)


def test_greedy_tau_all_branched_presets():
    for name in ["D4", "D5", "D6", "D7", "E6", "E7", "E8"]:
        g, cyc = preset_graph(name)
        tau, _ = greedy_tau(g, cyc)
        assert tau == 1, name


def test_greedy_tau_single_vertex_convention():
    g, _ = preset_graph("A1")
    tau, beta = greedy_tau(g, (1,))
    assert tau == 0
    assert beta == [0]


def test_greedy_tau_sequence_is_admissible():
    """The step sequence bumps one coefficient at a time, never exceeds the
    target, and ends exactly on it."""
    for name, z in [("D4", (3, 3, 5, 3)), ("E6", preset_graph("E6")[1]),
                    ("A3", (2, 3, 2))]:
        g, _ = preset_graph(name)
        tau, beta = greedy_tau(g, z)
        counts = [0] * g.n
        for v in beta:
            counts[v] += 1
            assert counts[v] <= z[v]
        assert tuple(counts) == z
        # recompute the recorded peak independently
        m = intersection_matrix(g)
        cur = [0] * g.n
        cur[beta[0]] = 1
        peak = None
        for v in beta[1:]:
            score = sum(m[v][j] * cur[j] for j in range(g.n))
            peak = score if peak is None else max(peak, score)
            cur[v] += 1
        assert peak == tau


def test_greedy_tau_needs_full_support():
    g, _ = preset_graph("A3")
    with pytest.raises(CyclesError):
        greedy_tau(g, (1, 0, 1))


def test_cycle_arguments_follow_the_integer_rule():
    """numpy integers are integers and a bool is not, as everywhere else
    in the package; D4's cycle as np.int64s was once refused, and
    (True, True) once planned like (1, 1)."""
    g, _ = preset_graph("D4")
    z = tuple(np.int64(c) for c in (3, 3, 5, 3))
    assert greedy_tau(g, z) == greedy_tau(g, (3, 3, 5, 3))
    assert make_coprime_to_all(g, z, [3]) == \
        make_coprime_to_all(g, (3, 3, 5, 3), [3]) != (3, 3, 5, 3)
    assert significant_multiplicity_to_all(g, z, [3]) == \
        significant_multiplicity_to_all(g, (3, 3, 5, 3), [3])
    a2, _ = preset_graph("A2")
    for call in (lambda: greedy_tau(a2, (True, True)),
                 lambda: make_coprime_to_all(a2, (True, True), [2]),
                 lambda: significant_multiplicity_to_all(a2, (1, True), [2])):
        with pytest.raises(CyclesError,
                           match="^cycle must have integer coefficients$"):
            call()


# ---------------------------------------------------------------------------
# exhaustive tau


def _tau_min_by_enumeration(g, target):
    """Minimum over every admissible build order of the peak recorded
    value, memoised over sub-cycles: the peak still to come from a
    sub-cycle does not depend on how it was built."""
    m = intersection_matrix(g)
    n = g.n

    @functools.cache
    def rest(cur):
        """Least peak of the steps from `cur` to `target` (None: no step)."""
        if cur == target:
            return None
        best = None
        for v in range(n):
            if cur[v] >= target[v]:
                continue
            score = sum(m[v][j] * cur[j] for j in range(n))
            after = rest(cur[:v] + (cur[v] + 1,) + cur[v + 1:])
            peak = score if after is None else max(score, after)
            best = peak if best is None else min(best, peak)
        return best

    peaks = [rest(tuple(int(i == v) for i in range(n)))
             for v in range(n) if target[v]]
    return min((p for p in peaks if p is not None), default=0)


def test_exhaustive_tau_single_vertex():
    g, _ = preset_graph("A1")
    assert _tau_min_by_enumeration(g, (2,)) == -2
    assert _tau_min_by_enumeration(g, (1,)) == 0


def test_exhaustive_tau_chain_of_two():
    g, _ = preset_graph("A2")
    assert _tau_min_by_enumeration(g, (1, 1)) == 1


def test_exhaustive_tau_never_beats_greedy():
    """The greedy peak is a bound: it is never below the exact minimum."""
    for name, z in [("D4", (1, 1, 2, 1)), ("D4", (3, 3, 5, 3)),
                    ("A3", (2, 3, 2))]:
        g, _ = preset_graph(name)
        tau, _ = greedy_tau(g, z)
        assert _tau_min_by_enumeration(g, z) <= tau


# ---------------------------------------------------------------------------
# significant multiplicity


def test_nu_default_mode_star():
    g, cyc = preset_graph("D4")
    plan = significant_multiplicity_to_all(g, cyc, [])
    assert isinstance(plan, MultiplicityPlan)
    assert (plan.lambda_bound, plan.tau, plan.nu) == (0, 1, 2)


def test_nu_unit_coefficient_clause():
    # lambda + tau + 1 is 1 here; the floor of 2 lifts it
    g, _ = preset_graph("A1")
    plan = significant_multiplicity_to_all(g, (1,), [], mode="paper")
    assert plan.nu == 2


def test_nu_strict_against_prime_set():
    # nu is not made coprime to the candidates: 2 stays 2 against {2, 3}
    g, _ = preset_graph("A2")
    plan = significant_multiplicity_to_all(g, (1, 1), [2, 3], mode="paper")
    assert plan.nu == 2


def test_nu_rejects_unknown_mode():
    g, cyc = preset_graph("D4")
    with pytest.raises(CyclesError):
        significant_multiplicity_to_all(g, cyc, [2], mode="fast")
    # it used to run as strict when given a set of primes
    with pytest.raises(CyclesError):
        significant_multiplicity_to_all(g, cyc, [2, 3], mode="fast")
    # strict mode, a second rule for nu, was deleted
    with pytest.raises(CyclesError, match="unknown mode 'strict'"):
        significant_multiplicity_to_all(g, cyc, [2, 3], mode="strict")


def test_nu_rejects_primes_below_one():
    # nu does not depend on the candidates, but they are still checked
    g, cyc = preset_graph("D4")
    for primes in ([0], [2, -3], [1], [4], [2, 1 << 31]):
        with pytest.raises(CyclesError):
            significant_multiplicity_to_all(g, cyc, primes, mode="paper")


# ---------------------------------------------------------------------------
# choice of the working multiplicity


def test_choose_j_table():
    primes = [2, 3, 5, 7]
    assert choose_j(2, 5, primes) == 11      # branched star
    assert choose_j(2, 9, primes) == 19
    assert choose_j(2, 15, primes) == 31
    assert choose_j(2, 21, primes) == 43
    assert choose_j(2, 51, primes) == 103
    assert choose_j(2, 135, primes) == 271
    assert choose_j(2, 1, primes) == 11      # dominated by the prime set
    assert choose_j(1, 1, []) == 2


def test_choose_j_strictly_exceeds_both():
    for nu, n_max in [(2, 5), (3, 7), (5, 2)]:
        j = choose_j(nu, n_max, [2, 3, 5, 7])
        assert j > nu * n_max and j > 7
