"""Exact rank computations: modular ranks and the rational rank proved
from them, with the bad primes it implies.

Oracles here are written independently of the library: plain Gaussian
elimination over GF(p) and Fraction elimination over the rationals.
"""

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tautcheck.linalg as linalg
from tautcheck.graph import preset_graph
from tautcheck.linalg import (
    LinalgError,
    is_probable_prime,
    next_prime,
    prove_rank_over_Q,
    rank_mod_p,
    sample_rank_primes,
)
from tautcheck.plumbing import assemble_matrix, build_model
from tautcheck.sparse import SparseIntMatrix


# ---------------------------------------------------------------------------
# oracles


def oracle_rank_mod_p(dense, p):
    """Textbook row reduction over GF(p)."""
    a = [[x % p for x in row] for row in dense]
    m = len(a)
    n = len(a[0]) if m else 0
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][c], -1, p)
        a[r] = [x * inv % p for x in a[r]]
        for i in range(m):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        r += 1
        if r == m:
            break
    return r


def oracle_rank_over_Q(dense):
    """Fraction-based row reduction."""
    a = [[Fraction(x) for x in row] for row in dense]
    m = len(a)
    n = len(a[0]) if m else 0
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(m):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == m:
            break
    return r


def from_dense(dense):
    nr = len(dense)
    nc = len(dense[0]) if nr else 0
    triples = [(r, c, dense[r][c])
               for r in range(nr) for c in range(nc) if dense[r][c]]
    return SparseIntMatrix.from_coo(nr, nc, triples)


def random_dense(rng, max_dim=60, lo=-20, hi=20, density=0.2):
    m = rng.randint(1, max_dim)
    n = rng.randint(1, max_dim)
    dense = [[0] * n for _ in range(m)]
    for i in range(m):
        for j in range(n):
            if rng.random() < density:
                v = rng.randint(lo, hi)
                dense[i][j] = v
    return dense


# ---------------------------------------------------------------------------
# primes


def test_prime_helpers():
    assert next_prime(10) == 11
    assert next_prime(270) == 271
    assert next_prime(1) == 2
    assert is_probable_prime(2)
    assert is_probable_prime(2**31 - 1)
    assert not is_probable_prime(1)
    assert not is_probable_prime(561)        # Carmichael number
    assert not is_probable_prime(2**30)


def _d4_model(j, primes):
    return build_model(preset_graph("D4")[0], j, primes)


@pytest.mark.parametrize("call, bad", [
    # a float j once built a model with 660.0 rows
    (lambda: _d4_model(11.0, [2, 3]), "11.0"),
    (lambda: _d4_model(11, [2.0]), "2.0"),
    # these two once raised TypeError from pow
    (lambda: rank_mod_p(SparseIntMatrix.from_coo(1, 1, [(0, 0, 1)]), 7.0),
     "7.0"),
    (lambda: next_prime(6.5), "6.5"),
    # True once read as 1, so the next prime was 2
    (lambda: next_prime(True), "True"),
], ids=["build_model-j", "build_model-prime", "rank_mod_p", "next_prime",
        "next_prime-bool"])
def test_non_integers_refused_as_primes(call, bad):
    """`is_probable_prime` refuses a non-integer, so every prime check
    built on it does."""
    with pytest.raises(LinalgError, match=f"^{bad} is not an integer$"):
        call()


def test_sample_rank_primes_deterministic():
    a = sample_rank_primes(3)
    b = sample_rank_primes(3)
    assert a == b
    assert len(set(a)) == 3
    assert all(2**30 < q < 2**31 and is_probable_prime(q) for q in a)
    # drawn once, handed out as a fresh list: editing one changes no other
    a.append(2)
    assert sample_rank_primes(3) == b and b is not a


# ---------------------------------------------------------------------------
# rank mod p


def test_rank_identity_and_zero():
    ident = from_dense([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert rank_mod_p(ident, 5) == 3
    zero = SparseIntMatrix.from_coo(4, 7, ())
    assert rank_mod_p(zero, 5) == 0
    assert rank_mod_p(SparseIntMatrix.from_coo(0, 0, ()), 2) == 0


def test_rank_mod_p_rejects_bad_modulus():
    m = from_dense([[1]])
    for bad in (0, 1, 4, 9, 2**31 + 11):
        with pytest.raises(LinalgError):
            rank_mod_p(m, bad)


def test_rank_drops_exactly_at_dividing_primes():
    m = from_dense([[2, 0], [0, 6]])
    assert rank_mod_p(m, 2) == 0
    assert rank_mod_p(m, 3) == 1
    assert rank_mod_p(m, 5) == 2
    assert rank_mod_p(m, 7) == 2


def test_rank_random_agreement_with_oracle():
    rng = random.Random(2024)
    for _ in range(60):
        dense = random_dense(rng, max_dim=25)
        m = from_dense(dense)
        for p in (2, 3, 5, 7, 101):
            assert rank_mod_p(m, p) == oracle_rank_mod_p(dense, p)
    # sparser inputs, up to 30 x 30
    rng = random.Random(99)
    for _ in range(20):
        dense = random_dense(rng, max_dim=30, density=0.15)
        m = from_dense(dense)
        for p in (2, 7, 101):
            assert rank_mod_p(m, p) == oracle_rank_mod_p(dense, p)
    # a core with every cell nonzero
    rng = random.Random(30)
    dense = [[rng.randint(1, 100) for _ in range(30)] for _ in range(30)]
    assert rank_mod_p(from_dense(dense), 101) == \
        oracle_rank_mod_p(dense, 101) == 30
    # the core elimination alone, with no peel first: dense inputs, and
    # sparse ones whose elimination fills in, up to a 31-bit prime
    rng = random.Random(19)
    for p in (2, 3, 101, 2**31 - 1):
        for density in (0.05, 0.1, 0.5, 1.0):
            for _ in range(3):
                dense = random_dense(rng, max_dim=40, lo=-p, hi=p,
                                     density=density)
                rows, cols, vals = from_dense(dense).arrays_mod(p)
                assert linalg._sparse_core_rank_mod_p(rows, cols, vals, p) \
                    == oracle_rank_mod_p(dense, p)


def test_sparse_core_is_ranked_without_dense_elimination():
    """Cores that survive the peel whole are ranked by the core
    elimination alone, in its fixed column order.  A 200 x 200 circulant
    with 3 entries per row and column, at 1.5% density; and a 5 x 6
    matrix whose first pivot (column 1) cancels every entry of column 5,
    which is skipped at its turn, and whose third pivot (second at p = 2)
    cancels every entry of column 3 and fills it in again."""
    n = 200
    circulant = [[0] * n for _ in range(n)]
    for i in range(n):
        for k, v in ((0, 1), (1, 3), (7, 2)):
            circulant[i][(i + k) % n] = v
    cancelling = [[0, 0, -1, 1, 0, 0],
                  [1, 1, 0, -1, 1, 1],
                  [1, 0, 1, -1, 0, 0],
                  [-1, -1, 0, -1, 1, -1],
                  [1, 0, -1, 0, 0, 0]]
    for dense in (circulant, cancelling):
        for p in (2, 3, 101):
            assert rank_mod_p(from_dense(dense), p) == \
                oracle_rank_mod_p(dense, p)


def test_rank_invariant_under_permutation_and_unit_scaling():
    rng = random.Random(5)
    for _ in range(15):
        dense = random_dense(rng, max_dim=18, density=0.3)
        m = from_dense(dense)
        p = rng.choice([2, 3, 5, 7, 101])
        base = rank_mod_p(m, p)
        rows = list(range(len(dense)))
        cols = list(range(len(dense[0])))
        rng.shuffle(rows)
        rng.shuffle(cols)
        scale = [rng.randrange(1, p) if p > 2 else 1 for _ in rows]
        shuffled = [[dense[r][c] * scale[i] for c in cols]
                    for i, r in enumerate(rows)]
        assert rank_mod_p(from_dense(shuffled), p) == base


def test_rank_peeled_cascade():
    """A bidiagonal chain is resolved entirely by singleton peeling."""
    n = 2000
    triples = [(i, i, 1) for i in range(n)]
    triples += [(i, i + 1, i + 1) for i in range(n - 1)]
    m = SparseIntMatrix.from_coo(n, n, triples)
    for p in (2, 97):
        assert rank_mod_p(m, p) == n


def test_peel_over_Z_pivots_only_on_units():
    """A singleton line pivots over ℤ only when its entry is ±1, a unit
    mod every prime.  A singleton row holding 2, 3 or 210 stays in the
    residual, and the primes dividing its entry rank it lower."""
    for v in (1, -1):
        z = linalg._peel_over_Z(from_dense([[v, 5], [0, 2]]))
        assert (z.rank, z.left.tolist()) == (1, [2])
    for v in (2, 3, 210, -210):
        # column 1 is a unit singleton; row 0 is left holding v alone
        dense = [[v, 0], [7, 1]]
        z = linalg._peel_over_Z(from_dense(dense))
        assert (z.rank, z.left.size) == (1, 1)
        for p in (2, 3, 5, 7):
            want = 1 if v % p == 0 else 2
            assert rank_mod_p(from_dense(dense), p) == want == \
                oracle_rank_mod_p(dense, p)
    for v in (2, 3, 210):
        assert linalg._peel_over_Z(from_dense([[v]])).rank == 0
        for p in (2, 3, 5, 7, 11):
            assert rank_mod_p(from_dense([[v]]), p) == (v % p != 0)


# entries of the property below: units, small non-units and a binomial
# beyond int64, each with both signs, and zero most often
_PIVOT_RULE_VALUES = [v for a in (1, 2, 3, 6, 210, math.comb(80, 40))
                      for v in (a, -a)]
_sparse_integer_dense = st.integers(1, 10).flatmap(
    lambda m: st.integers(1, 10).flatmap(
        lambda n: st.lists(
            st.lists(st.one_of(st.just(0), st.just(0),
                               st.sampled_from(_PIVOT_RULE_VALUES)),
                     min_size=n, max_size=n),
            min_size=m, max_size=m)))


@settings(max_examples=150, deadline=None)
@given(_sparse_integer_dense)
def test_rank_mod_p_pivot_rule_matches_oracle(dense):
    """Whatever the ℤ peel pivots on must be a unit at every prime: the
    rank at 2, 3, 5, 7 and 2^31 - 1 agrees with textbook elimination."""
    m = from_dense(dense)
    for p in (2, 3, 5, 7, 2**31 - 1):
        assert rank_mod_p(m, p) == oracle_rank_mod_p(dense, p)


def reference_peel_left(entries, pivotable):
    """Indices of the entries that peeling leaves, one pivot at a time:
    while a row or column holds exactly one live entry and that entry
    may pivot, delete the crossing line.  The entries left do not depend
    on the order of the pivots."""
    live = set(range(len(entries)))
    changed = True
    while changed:
        changed = False
        for side in (0, 1):
            lines = {}
            for i in live:
                lines.setdefault(entries[i][side], []).append(i)
            for members in lines.values():
                i = members[0]
                if len(members) == 1 and i in live and pivotable[i]:
                    cross = entries[i][1 - side]
                    live -= {k for k in live if entries[k][1 - side] == cross}
                    changed = True
    return sorted(live)


def _copied_peel_dense(with_core):
    """A matrix whose first row round deletes 327 of its 593 entries
    (584 without the core) and whose first column round deletes 202 of
    the rest, so the bulk rounds copy the survivors out twice; a chain of
    30 then peels two entries a round, so the frontier rounds pivot on
    the copies.  Rows, columns and the entry order are shuffled, so the
    copies' positions differ from the caller's.  Units sit where the
    peel over ℤ needs them; the 3 x 3 core has no singleton line."""
    triples = []
    # 25 singleton rows, each crossing a column shared with 12 rows
    for c in range(25):
        triples.append((c, c, 1))
        triples += [(25 + r, c, 5) for r in range(12)]
    # 10 rows, each holding 20 singleton columns
    for r in range(10):
        triples += [(37 + r, 25 + 20 * r + k, (-1) ** k) for k in range(20)]
    # a chain of 30: 1 on the diagonal, 3 beside it
    for i in range(30):
        triples.append((47 + i, 225 + i, 1))
        if i < 29:
            triples.append((47 + i, 226 + i, 3))
    shape = (77, 255)
    if with_core:
        core = [[2, 3, 5], [7, 11, 13], [17, 19, 23]]
        triples += [(77 + r, 255 + c, core[r][c])
                    for r in range(3) for c in range(3)]
        shape = (80, 258)
    rng = random.Random(29)
    rows, cols = list(range(shape[0])), list(range(shape[1]))
    rng.shuffle(rows)
    rng.shuffle(cols)
    triples = [(rows[r], cols[c], v) for r, c, v in triples]
    rng.shuffle(triples)
    dense = [[0] * shape[1] for _ in range(shape[0])]
    for r, c, v in triples:
        dense[r][c] = v
    return triples, dense


@given(st.lists(st.tuples(st.integers(-50, 50), st.integers(0, 6)),
                max_size=20),
       st.one_of(st.none(), st.integers(-50, 50)),
       st.sampled_from([np.int32, np.int64]))
def test_ranges_concatenate_python_ranges(pairs, scalar, dtype):
    """`_ranges(start, size)` is range(start[i], start[i] + size[i]) for
    each i in turn, as int64, with an array or a scalar start and with
    zero sizes."""
    starts = [s if scalar is None else scalar for s, _ in pairs]
    sizes = [k for _, k in pairs]
    start = np.array(starts, dtype=dtype) if scalar is None else scalar
    got = linalg._ranges(start, np.array(sizes, dtype=dtype))
    assert got.dtype == np.int64
    assert got.tolist() == [x for s, k in zip(starts, sizes)
                            for x in range(s, s + k)]


def test_peel_positions_survive_its_copies():
    """Positions the peel returns index the caller's entry arrays, also
    after the bulk rounds have copied the survivors out: mapped back,
    they are exactly the entries a peel one pivot at a time leaves, over
    ℤ (units only) and mod p (every entry).  The ranks agree with
    textbook elimination, and a matrix that peels away entirely leaves
    every prime an empty residual."""
    triples, dense = _copied_peel_dense(with_core=True)
    m = SparseIntMatrix.from_coo(len(dense), len(dense[0]), triples)
    entries = list(zip(m.row.tolist(), m.col.tolist()))
    values = m.values[m.code].tolist()
    z = linalg._peel_over_Z(m)
    assert z.left.dtype == np.int32
    assert z.left.tolist() == reference_peel_left(
        entries, [abs(v) == 1 for v in values]) != []
    left = linalg._peel((m.nrows, m.ncols), [m.row, m.col], None)[1]
    assert left.tolist() == reference_peel_left(
        entries, [True] * len(entries))
    for p in (2, 3, 5, 7, 101):
        assert rank_mod_p(m, p) == oracle_rank_mod_p(dense, p)
    triples, dense = _copied_peel_dense(with_core=False)
    m = SparseIntMatrix.from_coo(len(dense), len(dense[0]), triples)
    assert linalg._peel_over_Z(m).left.size == 0
    proof = prove_rank_over_Q(m, [2, 3, 5, 7])
    assert set(proof.ranks.values()) == {oracle_rank_over_Q(dense)} == {65}
    assert (proof.rank_q, proof.certificate_prime) == (65, None)


def test_each_prime_gathers_its_residual_once(monkeypatch):
    """Each prime reads its residual through one `arrays_mod` call with
    the residual's positions; a matrix that peels away over ℤ gathers
    nothing."""
    calls = []
    gather = SparseIntMatrix.arrays_mod

    def counted(self, p, at=None):
        calls.append((p, None if at is None else at.size))
        return gather(self, p, at)

    monkeypatch.setattr(SparseIntMatrix, "arrays_mod", counted)
    m = assemble_matrix(build_model(preset_graph("E6")[0], 43,
                                    [2, 3, 5, 7]))
    left = linalg._peel_over_Z(m).left.size
    assert left
    proof = prove_rank_over_Q(m, [2, 3, 5, 7])
    assert calls == [(p, left) for p in proof.ranks]
    assert len(calls) == 4
    calls.clear()
    triples, dense = _copied_peel_dense(with_core=False)
    m = SparseIntMatrix.from_coo(len(dense), len(dense[0]), triples)
    prove_rank_over_Q(m, [2, 3, 5, 7])
    assert calls == []


@pytest.fixture(scope="module")
def e7_residual():
    """What the peel over ℤ leaves of E7 at j = 103."""
    return linalg._peel_over_Z(assemble_matrix(build_model(
        preset_graph("E7")[0], 103, [2, 3, 5, 7])))


def test_e7_peel_facts(e7_residual):
    """The peels on E7 reach as far as they should.  A peel that stops
    early still gives the right ranks, only slower, so its sizes are
    pinned: the rank and the entries the peel over ℤ leaves, and the
    core that each prime's peel leaves of that residual."""
    z = e7_residual
    assert (z.rank, z.left.size) == (117_858, 450_206)
    core = {p: linalg._core_mod_p(z, p)[1].size for p in (2, 3, 5, 7)}
    assert core == {2: 0, 3: 21_781, 5: 138_740, 7: 111_832}


def test_e7_core_mod_2_peak(e7_residual):
    """Gathering and peeling E7's residual mod 2 peaks under 13 B per
    residual position (traced).  Gathers by `take` copied the int32
    positions to int64 and read 16 B per position."""
    z = e7_residual
    tracemalloc.start()
    try:
        linalg._core_mod_p(z, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 13 * z.left.size


# ---------------------------------------------------------------------------
# rank over Q


def test_rank_over_q_examples():
    # without candidates, the rational rank comes from the seeded primes
    for dense, rank in (([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3),
                        ([[2, 0], [0, 3]], 2)):
        assert prove_rank_over_Q(from_dense(dense), ()).rank_q == rank
    zero = SparseIntMatrix.from_coo(3, 3, ())
    assert prove_rank_over_Q(zero, ()).rank_q == 0


def test_rank_over_q_agreement_with_fraction_oracle():
    rng = random.Random(31337)
    for _ in range(25):
        dense = random_dense(rng, max_dim=12, density=0.4)
        m = from_dense(dense)
        assert prove_rank_over_Q(m, ()).rank_q == oracle_rank_over_Q(dense)


def test_modular_rank_never_exceeds_rational_rank():
    rng = random.Random(8)
    for _ in range(20):
        dense = random_dense(rng, max_dim=10, density=0.5)
        m = from_dense(dense)
        rq = oracle_rank_over_Q(dense)
        for p in (2, 3, 5, 7):
            assert rank_mod_p(m, p) <= rq


# ---------------------------------------------------------------------------
# bad primes


def test_bad_primes_examples():
    def bad(m, candidates):
        proof = prove_rank_over_Q(m, candidates)
        return [p for p in candidates if proof.ranks[p] < proof.rank_q]
    m = from_dense([[2, 0], [0, 6]])
    assert bad(m, [2, 3, 5, 7]) == [2, 3]
    assert bad(m, [5, 7]) == []
    ident = from_dense([[1, 0], [0, 1]])
    assert bad(ident, [2, 3, 5, 7]) == []


# ---------------------------------------------------------------------------
# proving the rational rank


def test_prove_rank_stops_at_first_full_rank_candidate():
    m = from_dense([[2, 0], [0, 6]])
    proof = prove_rank_over_Q(m, [7, 5, 3, 2])
    assert proof.ranks == {2: 0, 3: 1, 5: 2, 7: 2}
    assert (proof.rank_q, proof.certificate_prime) == (2, 5)
    assert proof.sampled_primes == sample_rank_primes(3)


def test_prove_rank_falls_back_to_one_seeded_prime(monkeypatch):
    calls = []

    def counted(residual, p, rank=linalg._rank_residual_mod_p):
        calls.append(p)
        return rank(residual, p)
    monkeypatch.setattr(linalg, "_rank_residual_mod_p", counted)
    q0 = sample_rank_primes(3)[0]
    proof = prove_rank_over_Q(from_dense([[210]]), [2, 3, 5, 7])
    assert sorted(calls) == [2, 3, 5, 7, q0]
    assert proof.ranks == {2: 0, 3: 0, 5: 0, 7: 0, q0: 1}
    assert (proof.rank_q, proof.certificate_prime) == (1, q0)


def test_prove_rank_validates_every_prime():
    m = from_dense([[1, 2], [3, 4]])
    for bad in (4, 2**31 + 11, 7.0, True):
        with pytest.raises(LinalgError):
            prove_rank_over_Q(m, [2, bad])


def test_modular_rank_survey_reports_primes():
    # without candidates only the seeded primes are ranked
    m = from_dense([[2, 0], [0, 3]])
    proof = prove_rank_over_Q(m, [])
    assert proof.rank_q == 2
    assert proof.sampled_primes == sample_rank_primes(3)


def test_prove_rank_leaves_deficient_rank_unproved():
    proof = prove_rank_over_Q(from_dense([[1, 1], [1, 1]]), [2, 3, 5, 7])
    assert proof.certificate_prime is None
    assert proof.rank_q == 1
    assert set(proof.ranks) == {2, 3, 5, 7, *sample_rank_primes(3)}


def test_prove_rank_of_empty_model_is_trivial():
    for m in (SparseIntMatrix.from_coo(0, 0, ()),
              SparseIntMatrix.from_coo(0, 5, ())):
        proof = prove_rank_over_Q(m, [2, 3])
        assert (proof.rank_q, proof.certificate_prime) == (0, 2)
        assert proof.ranks == {2: 0, 3: 0}


_small_dense = st.integers(1, 6).flatmap(
    lambda m: st.integers(1, 6).flatmap(
        lambda n: st.lists(
            st.lists(st.one_of(st.integers(-12, 12),
                               st.sampled_from([30, 42, 210])),
                     min_size=n, max_size=n),
            min_size=m, max_size=m)))


@settings(max_examples=80, deadline=None)
@given(_small_dense)
def test_prove_rank_never_exceeds_oracle_and_is_exact_when_proved(dense):
    proof = prove_rank_over_Q(from_dense(dense), [2, 3, 5, 7])
    rq = oracle_rank_over_Q(dense)
    assert proof.rank_q <= rq
    if proof.certificate_prime is not None:
        assert proof.rank_q == rq
