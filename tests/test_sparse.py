"""The factored sparse integer matrix container and its text format."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tautcheck.linalg import rank_mod_p
from tautcheck.sparse import (
    SparseIntMatrix,
    SparseMatrixError,
    matrix_from_text,
    matrix_to_text,
    read_matrix_text,
    write_matrix_text,
)

from rank_oracle import oracle_rank_dense


def _factored(nrows, ncols, quads):
    """Entries given as (row, col, base, n, k) meaning base * C(n, k)."""
    rows = [q[0] for q in quads]
    cols = [q[1] for q in quads]
    base = [q[2] for q in quads]
    bn = [q[3] for q in quads]
    bk = [q[4] for q in quads]
    return SparseIntMatrix(nrows, ncols, rows, cols, base, bn, bk)


# ---------------------------------------------------------------------------
# construction


def test_from_coo_and_dense_round_trip():
    m = SparseIntMatrix.from_coo(2, 3, [(0, 0, 5), (1, 2, -7), (0, 1, 1)])
    assert m.nnz == 3
    assert m.to_dense() == [[5, 1, 0], [0, 0, -7]]
    assert list(m.entries()) == [(0, 0, 5), (0, 1, 1), (1, 2, -7)]


def test_empty_matrix():
    m = SparseIntMatrix.from_coo(0, 0, ())
    assert m.nnz == 0 and m.density == 0.0
    m = SparseIntMatrix.from_coo(4, 5, ())
    assert m.to_dense() == [[0] * 5 for _ in range(4)]


def test_factored_values_are_exact():
    m = _factored(2, 2, [(0, 0, 3, 10, 4), (1, 1, -1, 0, 0)])
    assert m.value(0) == 3 * math.comb(10, 4)
    assert m.value(1) == -1
    assert m.to_dense() == [[630, 0], [0, -1]]


def test_huge_literal_values_stay_exact():
    """Values at and beyond the int64 limits keep their exact value on
    every route; those beyond make `base` an object array."""
    for v in ((1 << 63) - 1, 1 << 63, -(1 << 63), -(1 << 63) - 1, 10**80):
        triples = [(0, 1, v), (0, 0, 2), (1, 1, -3)]
        m = SparseIntMatrix.from_coo(2, 2, triples)
        fits = -(1 << 63) <= v < 1 << 63
        assert m.base.dtype == (np.int64 if fits else object)
        assert m.value(0) == v
        assert m.to_dense() == [[2, v], [0, -3]]
        back = matrix_from_text(matrix_to_text(m))
        assert back.base.dtype == m.base.dtype
        assert back.to_dense() == m.to_dense()
        assert matrix_to_text(back) == matrix_to_text(m)
        for p in (2, 3, 97, 2_147_483_629):
            assert _residues(m, p) == sorted((r, c, x % p)
                                             for r, c, x in triples if x % p)
            dense = np.array(m.to_dense(), dtype=object) % p
            assert rank_mod_p(m, p) == oracle_rank_dense(dense, p)
    # the constructor keeps an exact int beyond int64 given in a list
    m = SparseIntMatrix(1, 1, [0], [0], [1 << 63], [0], [0])
    assert m.base.dtype == object and m.value(0) == 1 << 63


def test_from_coo_accepts_an_empty_iterator():
    m = SparseIntMatrix.from_coo(2, 2, iter(()))
    assert m.nnz == 0 and m.base.dtype == np.int64
    assert m.to_dense() == [[0, 0], [0, 0]]
    assert rank_mod_p(m, 2) == 0


def test_canonical_order_is_row_major():
    m = SparseIntMatrix.from_coo(3, 3, [(2, 0, 1), (0, 2, 2), (0, 1, 3)])
    assert [(r, c) for r, c, _ in m.entries()] == [(0, 1), (0, 2), (2, 0)]


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
    ([(1 << 70, 0, 1)], "row index 1180591620717411303424 does not fit int64"),
    ([(0, -(1 << 70), 1)],
     "column index -1180591620717411303424 does not fit int64"),
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
    ((1 << 70, 1), "shape 1180591620717411303424 does not fit int64"),
])
def test_constructor_rejects_bad_shape(shape, err):
    with pytest.raises(SparseMatrixError) as e:
        SparseIntMatrix.from_coo(*shape, ())
    assert err in str(e.value)
    # numpy integers are exact integers
    m = SparseIntMatrix.from_coo(np.int64(2), np.uint8(3), ())
    assert (m.nrows, m.ncols) == (2, 3) and type(m.nrows) is int


def test_constructor_rejects_float_arrays():
    ints = {"row": [0], "col": [1], "base": [3], "bin_n": [2], "bin_k": [1]}
    for field, v in ints.items():
        floats = {**ints, field: np.array([v[0] + 0.9])}
        with pytest.raises(SparseMatrixError, match="is not an integer"):
            SparseIntMatrix(2, 2, **floats)
    # the same values as integers, numpy or exact, are accepted
    ints = SparseIntMatrix(2, 2, [np.int32(0)], np.array([1], dtype=np.uint8),
                           np.array([3], dtype=object), [2], [1])
    assert ints.to_dense() == [[0, 6], [0, 0]]


def test_uint64_values_beyond_int64_stay_exact():
    """Only values fall back to exact ints; a uint64 at or above 2^63
    used to wrap to a negative int64."""
    big = np.array([1 << 63, 5], dtype=np.uint64)
    m = SparseIntMatrix(1, 2, [0, 0], [0, 1], big, [0, 0], [0, 0])
    assert m.base.dtype == object and m.to_dense() == [[1 << 63, 5]]
    small = SparseIntMatrix(1, 1, [0], [0], big[1:], [0], [0])
    assert small.base.dtype == np.int64 and small.to_dense() == [[5]]


def test_binomials_beyond_int32_rejected():
    """An int64 array of binomial arguments used to wrap silently on the
    cast to int32: n = 2^32 + 5 stored C(5, 2) = 10."""
    for n in (np.array([(1 << 32) + 5]), [(1 << 32) + 5]):
        with pytest.raises(SparseMatrixError,
                           match="binomial 4294967301 does not fit int32"):
            SparseIntMatrix(1, 1, [0], [0], [1], n, np.array([2]))


def test_stored_dtypes_pass_uncopied():
    """Arrays that already have the stored dtypes, as assembly's do, are
    kept as given: no scan, no copy."""
    row, col, base = (np.array([0, 1], dtype=np.int64) for _ in range(3))
    base += 1
    bin_n, bin_k = (np.zeros(2, dtype=np.int32) for _ in range(2))
    m = SparseIntMatrix(2, 2, row, col, base, bin_n, bin_k)
    stored = (m.row, m.col, m.base, m.bin_n, m.bin_k)
    assert all(a is b for a, b in zip(stored, (row, col, base, bin_n, bin_k)))


def test_invalid_binomial_rejected():
    with pytest.raises(SparseMatrixError):
        _factored(1, 1, [(0, 0, 1, 2, 5)])   # k > n


def test_shape_with_2_63_cells_rejected():
    # the duplicate check keys an entry by row * ncols + col in int64
    with pytest.raises(SparseMatrixError, match="2\\^63"):
        matrix_from_text("4294967296 4294967296 M\n1 1 1\n"
                         "4294967296 4294967296 2\n0 0 0\n")
    with pytest.raises(SparseMatrixError, match="2\\^63"):
        SparseIntMatrix.from_coo(1 << 32, 1 << 31, ())


def test_duplicates_found_at_large_coordinates():
    m, n = 1 << 32, (1 << 31) - 1         # m * n is just below 2^63
    a = SparseIntMatrix.from_coo(m, n, [(m - 1, n - 1, 2), (0, 0, 1)])
    assert list(a.entries()) == [(0, 0, 1), (m - 1, n - 1, 2)]
    with pytest.raises(SparseMatrixError,
                       match=f"duplicate entry at row {m - 1}, col {n - 2}"):
        SparseIntMatrix.from_coo(m, n, [(m - 1, n - 2, 2), (0, 0, 1),
                                        (m - 1, n - 2, 3)])


@st.composite
def _shuffled_triples(draw):
    """(nrows, ncols, triples, a permutation of the triples); one value is
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
    triples = [(r, c, v) for (r, c), v in zip(cells, values)]
    return nrows, ncols, triples, draw(st.permutations(triples))


def _residues(matrix, p):
    return sorted(zip(*(a.tolist() for a in matrix.arrays_mod(p))))


@settings(max_examples=80, deadline=None)
@given(_shuffled_triples())
def test_entry_order_changes_no_result(case):
    nrows, ncols, triples, shuffled = case
    given_order = SparseIntMatrix.from_coo(nrows, ncols, triples)
    m = SparseIntMatrix.from_coo(nrows, ncols, shuffled)
    fits = all(-(1 << 63) <= v < 1 << 63 for _, _, v in triples)
    assert m.base.dtype == given_order.base.dtype == \
        (np.int64 if fits else object)
    assert matrix_to_text(m) == matrix_to_text(given_order)
    dense = [[0] * ncols for _ in range(nrows)]
    for r, c, v in triples:
        dense[r][c] = v
    assert m.to_dense() == given_order.to_dense() == dense
    for p in (2, 3, 97):
        expect = sorted((r, c, v % p) for r, c, v in triples if v % p)
        assert _residues(m, p) == _residues(given_order, p) == expect
        assert rank_mod_p(m, p) == rank_mod_p(given_order, p)


# ---------------------------------------------------------------------------
# modular reduction


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
        triples = [(int(r), int(c), int(dense[r, c]))
                   for r in range(nr) for c in range(nc) if dense[r, c]]
        m = SparseIntMatrix.from_coo(int(nr), int(nc), triples)
        for p in (2, 3, 97):
            rows, cols, vals = m.arrays_mod(p)
            back = np.zeros((nr, nc), dtype=int)
            back[rows, cols] = vals
            assert (back == dense % p).all()


def test_factored_mod_uses_binomials():
    # 3 * C(10, 4) = 630
    m = _factored(1, 1, [(0, 0, 3, 10, 4)])
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
    text = matrix_to_text(m)
    back = matrix_from_text(text)
    assert back.nrows == 3 and back.ncols == 4
    assert list(back.entries()) == list(m.entries())
    assert matrix_to_text(back) == text


def test_text_format_shape():
    m = SparseIntMatrix.from_coo(2, 2, [(1, 0, -3)])
    lines = matrix_to_text(m).splitlines()
    assert lines[0] == "2 2 M"
    assert lines[1] == "2 1 -3"       # 1-based coordinates
    assert lines[-1] == "0 0 0"


def test_text_empty_matrix():
    m = SparseIntMatrix.from_coo(0, 0, ())
    assert matrix_to_text(m) == "0 0 M\n0 0 0\n"
    back = matrix_from_text("0 0 M\n0 0 0\n")
    assert back.nrows == back.ncols == back.nnz == 0


def test_text_accepts_any_entry_order():
    text = "2 2 M\n2 2 4\n1 1 3\n0 0 0\n"
    m = matrix_from_text(text)
    assert m.to_dense() == [[3, 0], [0, 4]]


@pytest.mark.parametrize("text, err", [
    ("", "empty"),
    ("2 2\n0 0 0\n", "header"),
    ("2 2 X\n0 0 0\n", "header"),
    ("2 2 M\n1 1 1\n", "terminator"),
    ("2 2 M\n1 1 0\n0 0 0\n", "zero"),
    ("2 2 M\n3 1 1\n0 0 0\n", "out of range"),
    ("2 2 M\n1 1 1\n0 0 0\n1 2 1\n", "after terminator"),
    ("2 2 M\n1 1\n0 0 0\n", "3 fields"),
    ("2 2 M\n1 1 x\n0 0 0\n", "non-integer"),
    ("-1 2 M\n0 0 0\n", "negative shape -1 x 2"),
    ("2 -3 M\n0 0 0\n", "negative shape 2 x -3"),
])
def test_text_errors(text, err):
    with pytest.raises(SparseMatrixError) as e:
        matrix_from_text(text)
    assert err in str(e.value)


def test_file_round_trip(tmp_path):
    m = SparseIntMatrix.from_coo(5, 5, [(i, (i * 2) % 5, i + 1)
                                        for i in range(5)])
    path = tmp_path / "m.txt"
    write_matrix_text(m, str(path))
    back = read_matrix_text(str(path))
    assert list(back.entries()) == list(m.entries())
