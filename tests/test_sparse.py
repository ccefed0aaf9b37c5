"""The sparse integer matrix over a table of values, and the text format
it is written in."""

import math
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tautcheck.linalg import rank_mod_p
from tautcheck.sparse import (
    _WRITE_SLICE,
    SparseIntMatrix,
    SparseMatrixError,
    write_matrix_text,
)

from rank_oracle import (oracle_dense, oracle_rank_dense, oracle_residues,
                         parse_matrix_text, triples)

REDUCTION_PRIMES = (2, 3, 5, 7, 2_147_483_629)


def _to_text(matrix):
    """The text `write_matrix_text` writes for `matrix`."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "m.txt")
        write_matrix_text(matrix, path)
        with open(path) as f:
            return f.read()


# ---------------------------------------------------------------------------
# construction


def test_from_coo_and_dense_round_trip():
    m = SparseIntMatrix.from_coo(2, 3, [(0, 0, 5), (1, 2, -7), (0, 1, 1)])
    assert m.nnz == 3
    assert oracle_dense(m) == [[5, 1, 0], [0, 0, -7]]
    assert triples(m) == [(0, 0, 5), (1, 2, -7), (0, 1, 1)]


def test_empty_matrix():
    m = SparseIntMatrix.from_coo(0, 0, ())
    assert m.nnz == 0 and m.density == 0.0
    m = SparseIntMatrix.from_coo(4, 5, ())
    assert oracle_dense(m) == [[0] * 5 for _ in range(4)]


def test_factored_values_are_exact():
    """Entry i has the exact value values[code[i]]."""
    m = SparseIntMatrix(2, 2, [0, 1], [0, 1], [1, 0],
                        [-1, 3 * math.comb(10, 4)])
    assert triples(m) == [(0, 0, 3 * math.comb(10, 4)), (1, 1, -1)]
    assert oracle_dense(m) == [[630, 0], [0, -1]]


def test_huge_literal_values_stay_exact():
    """Values at and beyond the int64 limits keep their exact value on
    every route, in an object array of exact ints."""
    for v in ((1 << 63) - 1, 1 << 63, -(1 << 63), -(1 << 63) - 1, 10**80):
        coo = [(0, 1, v), (0, 0, 2), (1, 1, -3)]
        m = SparseIntMatrix.from_coo(2, 2, coo)
        assert m.values.dtype == object
        assert triples(m)[0] == (0, 1, v)
        assert oracle_dense(m) == [[2, v], [0, -3]]
        parsed = parse_matrix_text(_to_text(m))
        assert parsed == (2, 2, sorted(coo))
        back = SparseIntMatrix.from_coo(*parsed)
        assert back.values.dtype == m.values.dtype
        assert oracle_dense(back) == oracle_dense(m)
        assert _to_text(back) == _to_text(m)
        for p in (2, 3, 97, 2_147_483_629):
            assert _residues(m, p) == sorted((r, c, x % p)
                                             for r, c, x in coo if x % p)
            dense = np.array(oracle_dense(m), dtype=object) % p
            assert rank_mod_p(m, p) == oracle_rank_dense(dense, p)
    # the constructor keeps an exact int beyond int64 given in a list
    m = SparseIntMatrix(1, 1, [0], [0], [0], [1 << 63])
    assert m.values.dtype == object and triples(m) == [(0, 0, 1 << 63)]


def test_from_coo_accepts_an_empty_iterator():
    m = SparseIntMatrix.from_coo(2, 2, iter(()))
    assert m.nnz == 0 and m.values.dtype == object
    assert oracle_dense(m) == [[0, 0], [0, 0]]
    assert rank_mod_p(m, 2) == 0


def test_canonical_order_is_row_major():
    m = SparseIntMatrix.from_coo(3, 3, [(2, 0, 1), (0, 2, 2), (0, 1, 3)])
    _, _, written = parse_matrix_text(_to_text(m))
    assert [(r, c) for r, c, _ in written] == [(0, 1), (0, 2), (2, 0)]


@pytest.mark.parametrize("triples, err", [
    ([(0, 0, 1), (0, 0, 2)], "duplicate"),
    ([(0, 3, 1)], "out of range"),
    ([(3, 0, 1)], "out of range"),
    ([(0, 0, 0)], "zero"),
    # a float is refused, not truncated (0.5 is not a zero entry)
    ([(0.7, 1, 2)], "row index 0.7 is not an integer"),
    ([(0, 1.2, 2)], "column index 1.2 is not an integer"),
    ([(0, 1, 2.5)], "value 2.5 is not an integer"),
    ([(0, 1, 0.5)], "value 0.5 is not an integer"),
    ([(0, 1, 2.0)], "value 2.0 is not an integer"),
    ([(0, 1, "3")], "value '3' is not an integer"),
    # too wide an index is a SparseMatrixError (a ValueError `cli.main`
    # catches), not an OverflowError
    ([(1 << 70, 0, 1)], "row index 1180591620717411303424 does not fit int32"),
    ([(0, -(1 << 70), 1)],
     "column index -1180591620717411303424 does not fit int32"),
    # rows and columns are int32
    ([(1 << 31, 0, 1)], "row index 2147483648 does not fit int32"),
    # a bool is not an integer; True once stored the value 1 at row 1
    ([(True, 0, 2)], "row index True is not an integer"),
    ([(0, 1, True)], "value True is not an integer"),
])
def test_construction_errors(triples, err):
    with pytest.raises(SparseMatrixError) as e:
        SparseIntMatrix.from_coo(3, 3, triples)
    assert err in str(e.value)


@pytest.mark.parametrize("shape, err", [
    # a negative shape used to build a -1 x 2 matrix with density -0.0
    ((-1, 2), "negative shape -1 x 2"),
    ((2, -1), "negative shape 2 x -1"),
    # a float used to be truncated by int(): 2.5 x 3 became 2 x 3
    ((2.5, 3), "shape 2.5 is not an integer"),
    ((2, 3.0), "shape 3.0 is not an integer"),
    ((1 << 70, 1), "shape 1180591620717411303424 does not fit int32"),
    ((1, 1 << 31), "shape 2147483648 does not fit int32"),
])
def test_constructor_rejects_bad_shape(shape, err):
    with pytest.raises(SparseMatrixError) as e:
        SparseIntMatrix.from_coo(*shape, ())
    assert err in str(e.value)
    # numpy integers are exact integers
    m = SparseIntMatrix.from_coo(np.int64(2), np.uint8(3), ())
    assert (m.nrows, m.ncols) == (2, 3) and type(m.nrows) is int


def test_constructor_rejects_float_arrays():
    ints = {"row": [0], "col": [1], "code": [0], "values": [6]}
    for field, v in ints.items():
        floats = {**ints, field: np.array([v[0] + 0.9])}
        with pytest.raises(SparseMatrixError, match="is not an integer"):
            SparseIntMatrix(2, 2, **floats)
    # the same values as integers, numpy or exact, are accepted
    ints = SparseIntMatrix(2, 2, [np.int32(0)], np.array([1], dtype=np.uint8),
                           [np.int64(0)], np.array([6], dtype=object))
    assert oracle_dense(ints) == [[0, 6], [0, 0]]


def test_uint64_values_beyond_int64_stay_exact():
    """Every value table holds exact Python ints; a uint64 at or above
    2^63 once wrapped to a negative int64."""
    big = np.array([1 << 63, 5], dtype=np.uint64)
    m = SparseIntMatrix(1, 2, [0, 0], [0, 1], [0, 1], big)
    small = SparseIntMatrix(1, 1, [0], [0], [0], big[1:])
    for mat in (m, small):
        assert mat.values.dtype == object
        assert {type(v) for v in mat.values} == {int}
    assert oracle_dense(m) == [[1 << 63, 5]] and oracle_dense(small) == [[5]]


def test_stored_dtypes_pass_uncopied():
    """int32 index and code arrays, as assembly's are, are kept as
    given: no scan, no copy.  The value table becomes exact ints."""
    row, col, code = (np.array([0, 1], dtype=np.int32) for _ in range(3))
    values = np.array([1, 2], dtype=np.int64)
    m = SparseIntMatrix(2, 2, row, col, code, values)
    assert all(a is b for a, b in zip((m.row, m.col, m.code),
                                      (row, col, code)))
    assert m.values.dtype == object and m.values.tolist() == [1, 2]
    assert {type(v) for v in m.values} == {int}


@pytest.mark.parametrize("code, values, err", [
    ([0, 2], [1, 2], "value code out of range"),
    ([-1, 0], [1, 2], "value code out of range"),
    ([0, 1], [1, 0], "zero-valued entry"),
    ([0], [1], "entry arrays disagree in length"),
    # an int64 array is refused beyond int32, not wrapped (2^32 -> 0)
    (np.array([1 << 32, 0]), [1, 2], "value code 4294967296 does not fit"),
])
def test_constructor_rejects_bad_value_table(code, values, err):
    with pytest.raises(SparseMatrixError, match=err):
        SparseIntMatrix(2, 2, [0, 1], [0, 1], code, values)


def test_shape_of_2_31_rejected():
    # rows and columns are stored as int32
    with pytest.raises(SparseMatrixError,
                       match="shape 2147483648 does not fit int32"):
        SparseIntMatrix.from_coo(1, 1 << 31, ())
    top = (1 << 31) - 1
    assert SparseIntMatrix.from_coo(top, top, ()).nrows == top


def test_duplicates_found_at_large_coordinates():
    # the duplicate check keys an entry by col * nrows + row in int64:
    # n * m is about 2^62, far beyond int32
    m = n = (1 << 31) - 1
    a = SparseIntMatrix.from_coo(m, n, [(m - 1, n - 1, 2), (0, 0, 1)])
    assert triples(a) == [(m - 1, n - 1, 2), (0, 0, 1)]
    with pytest.raises(SparseMatrixError,
                       match=f"duplicate entry at row {m - 1}, col {n - 2}"):
        SparseIntMatrix.from_coo(m, n, [(m - 1, n - 2, 2), (0, 0, 1),
                                        (m - 1, n - 2, 3)])
    # keys 2^32 apart are equal in int32, but distinct entries
    a = SparseIntMatrix.from_coo(1 << 16, 1 << 17,
                                 [(5, 0, 1), (5, 1 << 16, 2)])
    assert triples(a) == [(5, 0, 1), (5, 1 << 16, 2)]


def test_duplicate_across_sorted_runs_found():
    """Entries given as two column-sorted runs, as assembly writes
    them: the stable sort merges the runs, and a coordinate in both is
    found, whichever run it sits in first."""
    n = 200
    # every cell in column-major order, split by the parity of r + c
    c, r = np.divmod(np.arange(n * n, dtype=np.int32), n)
    even = (r + c) % 2 == 0
    runs = [(r[even], c[even]), (r[~even], c[~even])]

    def build(row, col):
        return SparseIntMatrix(n, n, row, col,
                               np.zeros(row.size, dtype=np.int32), [1])

    whole = build(*(np.concatenate(a) for a in zip(*runs)))
    assert whole.nnz == n * n
    # (150, 90) from the first run, inserted in its place in the second
    (r0, c0), (r1, c1) = runs
    at = np.searchsorted(c1.astype(np.int64) * n + r1, 90 * n + 150)
    dup = (np.insert(r1, at, 150), np.insert(c1, at, 90))
    for first, second in (((r0, c0), dup), (dup, (r0, c0))):
        with pytest.raises(SparseMatrixError,
                           match="duplicate entry at row 150, col 90$"):
            build(*(np.concatenate(a) for a in zip(first, second)))


@st.composite
def _shuffled_triples(draw):
    """(nrows, ncols, triples, a permutation of them); one value is
    at least 2^31 in magnitude, inside int64 or beyond it."""
    nrows, ncols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    cells = draw(st.lists(st.tuples(st.integers(0, nrows - 1),
                                    st.integers(0, ncols - 1)),
                          min_size=1, max_size=nrows * ncols, unique=True))
    values = draw(st.lists(st.integers(-40, 40).filter(bool),
                           min_size=len(cells), max_size=len(cells)))
    huge = draw(st.one_of(st.integers(1 << 31, 1 << 63),
                          st.integers(1 << 63, 1 << 80)))
    values[draw(st.integers(0, len(cells) - 1))] = draw(
        st.sampled_from([huge, -huge]))
    coo = [(r, c, v) for (r, c), v in zip(cells, values)]
    return nrows, ncols, coo, draw(st.permutations(coo))


def _residues(matrix, p):
    return sorted(zip(*(a.tolist() for a in matrix.arrays_mod(p))))


@settings(max_examples=80, deadline=None)
@given(_shuffled_triples())
def test_entry_order_changes_no_result(case):
    nrows, ncols, coo, shuffled = case
    given_order = SparseIntMatrix.from_coo(nrows, ncols, coo)
    m = SparseIntMatrix.from_coo(nrows, ncols, shuffled)
    assert m.values.dtype == given_order.values.dtype == object
    assert _to_text(m) == _to_text(given_order)
    dense = [[0] * ncols for _ in range(nrows)]
    for r, c, v in coo:
        dense[r][c] = v
    assert oracle_dense(m) == oracle_dense(given_order) == dense
    for p in (2, 3, 97):
        expect = sorted((r, c, v % p) for r, c, v in coo if v % p)
        assert _residues(m, p) == _residues(given_order, p) == expect
        assert rank_mod_p(m, p) == rank_mod_p(given_order, p)


# ---------------------------------------------------------------------------
# modular reduction


@st.composite
def _repeating_triples(draw):
    """(nrows, ncols, triples) whose values repeat, and are negative or
    beyond int64 as often as not."""
    nrows, ncols = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    cells = draw(st.lists(st.tuples(st.integers(0, nrows - 1),
                                    st.integers(0, ncols - 1)),
                          max_size=nrows * ncols, unique=True))
    pool = draw(st.lists(st.one_of(st.integers(-50, 50),
                                   st.integers(-(1 << 90), 1 << 90)
                                   ).filter(bool), min_size=1, max_size=6))
    values = draw(st.lists(st.sampled_from(pool), min_size=len(cells),
                           max_size=len(cells)))
    return nrows, ncols, [(r, c, v) for (r, c), v in zip(cells, values)]


@settings(max_examples=80, deadline=None)
@given(_repeating_triples(), st.data())
def test_arrays_mod_matches_exact_values(case, data):
    """arrays_mod(p) is (row, col, values[code[i]] mod p) entry by
    entry, in stored order with zero residues dropped, as int32 arrays;
    the table holds each distinct literal once.  Given increasing int32
    positions (none, some or all), it is the same restricted to them."""
    nrows, ncols, coo = case
    m = SparseIntMatrix.from_coo(nrows, ncols, coo)
    assert sorted(m.values.tolist()) == sorted({v for _, _, v in coo})
    n = len(coo)
    chosen = data.draw(st.one_of(
        st.just([False] * n), st.just([True] * n),
        st.lists(st.booleans(), min_size=n, max_size=n)))
    at = np.flatnonzero(chosen).astype(np.int32)
    for p in REDUCTION_PRIMES:
        got = m.arrays_mod(p)
        assert [a.dtype for a in got] == [np.int32] * 3
        assert list(zip(*(a.tolist() for a in got))) == \
            oracle_residues(m, p) == \
            [(r, c, v % p) for r, c, v in coo if v % p]
        got = m.arrays_mod(p, at)
        assert [a.dtype for a in got] == [np.int32] * 3
        assert list(zip(*(a.tolist() for a in got))) == \
            [(r, c, v % p) for (r, c, v), keep in zip(triples(m), chosen)
             if keep and v % p]


@pytest.mark.parametrize("p", [1, 0, -3, 1 << 31])
def test_arrays_mod_rejects_modulus_outside_int32(p):
    m = SparseIntMatrix.from_coo(1, 1, [(0, 0, 5)])
    with pytest.raises(SparseMatrixError, match=f"modulus {p} is not in"):
        m.arrays_mod(p)


def test_arrays_mod_applies_the_integer_rule():
    """A modulus that is not an integer is refused; 3.5 once dropped the
    entry 7 (7 % 3.5 == 0) and 5.0 once ran on float residues."""
    m = SparseIntMatrix.from_coo(2, 2, [(0, 0, 7), (1, 1, 10)])
    for bad in (3.5, 5.0, True):
        with pytest.raises(SparseMatrixError,
                           match=re.escape(f"modulus {bad!r} is not an "
                                           f"integer")):
            m.arrays_mod(bad)
    got = m.arrays_mod(np.int64(5))
    assert [a.tolist() for a in got] == [[0], [0], [2]]


def test_arrays_mod_drops_zero_residues():
    m = SparseIntMatrix.from_coo(2, 2, [(0, 0, 6), (0, 1, 5), (1, 1, -9)])
    rows, cols, vals = m.arrays_mod(3)
    got = {(int(r), int(c)): int(v) for r, c, v in zip(rows, cols, vals)}
    assert got == {(0, 1): 2}
    rows, cols, vals = m.arrays_mod(7)
    assert len(vals) == 3 and all(0 < v < 7 for v in vals)


def test_arrays_mod_matches_dense_reduction():
    rng = np.random.default_rng(7)
    for _ in range(25):
        nr, nc = rng.integers(1, 8, size=2)
        dense = rng.integers(-30, 31, size=(nr, nc))
        coo = [(int(r), int(c), int(dense[r, c]))
                   for r in range(nr) for c in range(nc) if dense[r, c]]
        m = SparseIntMatrix.from_coo(int(nr), int(nc), coo)
        for p in (2, 3, 97):
            rows, cols, vals = m.arrays_mod(p)
            back = np.zeros((nr, nc), dtype=int)
            back[rows, cols] = vals
            assert (back == dense % p).all()


def test_factored_mod_uses_binomials():
    # 3 * C(10, 4) = 630, one value of the table
    m = SparseIntMatrix(1, 1, [0], [0], [1], [-1, 3 * math.comb(10, 4)])
    for p in (2, 3, 5, 7, 11, 101):
        rows, cols, vals = m.arrays_mod(p)
        expect = 630 % p
        if expect == 0:
            assert len(vals) == 0
        else:
            assert list(vals) == [expect]


# ---------------------------------------------------------------------------
# text format


def test_text_round_trip():
    m = SparseIntMatrix.from_coo(3, 4, [(0, 0, 12), (2, 3, -5), (1, 1, 10**40)])
    text = _to_text(m)
    parsed = parse_matrix_text(text)
    assert parsed == (3, 4, sorted(triples(m)))
    assert _to_text(SparseIntMatrix.from_coo(*parsed)) == text


def test_text_format_shape():
    m = SparseIntMatrix.from_coo(2, 2, [(1, 0, -3)])
    lines = _to_text(m).splitlines()
    assert lines[0] == "2 2 M"
    assert lines[1] == "2 1 -3"       # 1-based coordinates
    assert lines[-1] == "0 0 0"


def test_text_empty_matrix():
    m = SparseIntMatrix.from_coo(0, 0, ())
    assert _to_text(m) == "0 0 M\n0 0 0\n"
    assert _to_text(SparseIntMatrix.from_coo(4, 5, ())) == "4 5 M\n0 0 0\n"


def test_text_spans_write_slices_in_row_major_order():
    """More entries than one write slice, stored in shuffled order, some
    beyond int64: the text lists each entry once, row-major, across the
    slice borders."""
    n = _WRITE_SLICE + 1000
    rng = np.random.default_rng(3)
    cells = rng.permutation(300 * 300)[:n].tolist()
    values = (rng.integers(1, 40, size=n) *
              rng.choice([-1, 1], size=n)).tolist()
    given_order = [(k // 300, k % 300, v) for k, v in zip(cells, values)]
    given_order[::7] = [(r, c, v << 70) for r, c, v in given_order[::7]]
    m = SparseIntMatrix.from_coo(300, 300, given_order)
    assert triples(m) == given_order
    assert parse_matrix_text(_to_text(m)) == (300, 300, sorted(given_order))


def test_file_round_trip(tmp_path):
    m = SparseIntMatrix.from_coo(5, 5, [(i, (i * 2) % 5, i + 1)
                                        for i in range(5)])
    path = tmp_path / "m.txt"
    write_matrix_text(m, str(path))
    assert parse_matrix_text(path.read_text()) == (5, 5, sorted(triples(m)))
