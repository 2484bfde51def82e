import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from centdet import fplinalg
from centdet.catalog import load_pcp
from centdet.fplinalg import (
    FpMatrix,
    FpSubspace,
    LinSolver,
    QuotientCoords,
    SegmentSums,
    _rref_bits,
    _rref_generic,
    _free_column_rows,
    _pack_rows,
    _rref_array,
    _unpack_rows,
    image_basis,
    intersect,
    kernel_basis,
    matmul_mod,
    rref,
    solve_preimage,
    stacked_pivots,
    subspace_sum,
)
from centdet.resolution import build_minimal_resolution

INPUTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "inputs")


def random_matrix(rng, p, rows, cols):
    return FpMatrix(p, rng.integers(0, p, size=(rows, cols), dtype=np.int64))


def test_rref_identity():
    m = FpMatrix.identity(2, 3)
    R, pivots, rank = rref(m)
    assert R == m
    assert rank == 3
    assert pivots == (0, 1, 2)


def test_rref_duplicate_rows():
    m = FpMatrix(2, [[1, 1], [1, 1]])
    R, pivots, rank = rref(m)
    assert rank == 1
    assert np.array_equal(R.arr, [[1, 1], [0, 0]])


def test_rref_idempotent():
    rng = np.random.default_rng(7)
    for p in (2, 3, 5):
        m = random_matrix(rng, p, 17, 23)
        R1, _, _ = rref(m)
        R2, _, _ = rref(R1)
        assert R1 == R2


def test_rank_nullity_random_50x70():
    rng = np.random.default_rng(0)
    m = random_matrix(rng, 2, 50, 70)
    _, _, rank = rref(m)
    ker = kernel_basis(m)
    assert rank + ker.dim == 70
    for row in ker.basis.arr:
        assert not matmul_mod(m.arr, row[:, None], 2).any()


def test_kernel_trivial_cases():
    zero = FpMatrix.zeros(2, 2, 3)
    assert kernel_basis(zero) == FpSubspace.full(2, 3)
    ident = FpMatrix.identity(2, 4)
    assert kernel_basis(ident).dim == 0
    m = FpMatrix(2, [[1, 1]])
    ker = kernel_basis(m)
    assert ker.dim == 1
    assert ker.contains(np.array([1, 1], dtype=np.uint8))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_kernel_basis_and_solver_kernel_agree(p):
    rng = np.random.default_rng(p)
    for _ in range(30):
        m = random_matrix(rng, p, int(rng.integers(0, 12)), int(rng.integers(1, 15)))
        ker = kernel_basis(m)
        assert ker.dim + rref(m)[2] == m.cols
        assert not matmul_mod(m.arr, ker.basis.arr.T, p).any()
        assert np.array_equal(LinSolver(m).kernel_rows(), ker.basis.arr)


def test_image_basis():
    ident = FpMatrix.identity(2, 4)
    assert image_basis(ident) == FpSubspace.full(2, 4)
    zero = FpMatrix.zeros(2, 3, 2)
    assert image_basis(zero).dim == 0
    rng = np.random.default_rng(3)
    m = random_matrix(rng, 3, 12, 9)
    _, _, rank = rref(m)
    assert image_basis(m).dim == rank


def test_solve_preimage():
    rng = np.random.default_rng(5)
    m = random_matrix(rng, 2, 6, 8)
    full = FpSubspace.full(2, 6)
    assert solve_preimage(m, full) == FpSubspace.full(2, 8)
    zero = FpSubspace.zero(2, 6)
    assert solve_preimage(m, zero) == kernel_basis(m)
    ident = FpMatrix.identity(2, 6)
    tgt = FpSubspace.from_spanning(2, 6, rng.integers(0, 2, size=(2, 6)))
    assert solve_preimage(ident, tgt) == tgt


@given(
    p=st.sampled_from([2, 3]),
    rows=st.integers(0, 12),
    cols=st.integers(1, 12),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=60, deadline=None)
def test_rank_nullity_property(p, rows, cols, seed):
    rng = np.random.default_rng(seed)
    m = random_matrix(rng, p, rows, cols)
    _, _, rank = rref(m)
    assert rank + kernel_basis(m).dim == cols


@given(seed=st.integers(0, 10_000), dim=st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_intersect_sum_dimension_formula(seed, dim):
    rng = np.random.default_rng(seed)
    a = FpSubspace.from_spanning(2, dim, rng.integers(0, 2, size=(3, dim)))
    b = FpSubspace.from_spanning(2, dim, rng.integers(0, 2, size=(3, dim)))
    cap = intersect(a, b)
    cup = subspace_sum(a, b)
    assert a.dim + b.dim == cap.dim + cup.dim
    # brute force check by enumerating all vectors of the ambient space
    vectors = [np.array([(v >> i) & 1 for i in range(dim)], dtype=np.uint8)
               for v in range(2 ** dim)]
    n_cap = sum(1 for v in vectors if a.contains(v) and b.contains(v))
    assert n_cap == 2 ** cap.dim


def test_intersect_trivial():
    a = FpSubspace.from_spanning(2, 4, [[1, 0, 1, 0], [0, 1, 0, 0]])
    assert intersect(a, a) == a
    zero = FpSubspace.zero(2, 4)
    assert intersect(a, zero) == zero


@pytest.mark.parametrize("rows", [[], [[]], np.zeros((3, 0), dtype=np.uint8)])
def test_from_spanning_zero_ambient(rows):
    for p in (2, 3):
        assert FpSubspace.from_spanning(p, 0, rows) == FpSubspace.zero(p, 0)


def test_constructors_reduce_integers_outside_uint8():
    # a cast to uint8 before the reduction would turn -1 and 256 into 255 and 0
    for arr in ([[-1, 256]], np.array([[-1, 256]], dtype=np.int64)):
        assert FpMatrix(3, arr).arr.tolist() == [[2, 1]]
        sub = FpSubspace.from_spanning(3, 2, arr)
        assert sub.dim == 1 and sub.basis.arr.tolist() == [[1, 2]]
    assert FpMatrix(3, np.array([[4, 7]], dtype=np.uint8)).arr.tolist() == [[1, 1]]
    # reduced uint8 input is kept as it is, without a copy
    a = np.array([[1, 2], [0, 1]], dtype=np.uint8)
    assert FpMatrix(3, a).arr is a


def test_subspace_reduce_and_contains_read_integers_outside_uint8():
    sub = FpSubspace.from_spanning(3, 2, [[1, 2]])
    assert sub.contains(np.array([-1, 1]))  # [-1, 1] = 2 * [1, 2] mod 3
    assert sub.reduce(np.array([257, 0])).tolist() == sub.reduce(np.array([2, 0])).tolist() == [0, 2]


@given(seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_packed_agrees_with_generic(seed):
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(1, 60))
    cols = int(rng.integers(1, 60))
    arr = rng.integers(0, 2, size=(rows, cols), dtype=np.int64)
    Rb, pb = _rref_bits(_pack_rows(arr.astype(np.uint8)), cols)
    Rg, pg = _rref_generic(arr, 2)
    assert pb == pg
    assert np.array_equal(_unpack_rows(Rb, cols), Rg)


def test_packed_agrees_with_generic_200x200():
    rng = np.random.default_rng(42)
    arr = rng.integers(0, 2, size=(200, 200), dtype=np.int64)
    Rb, pb = _rref_bits(_pack_rows(arr.astype(np.uint8)), 200)
    Rg, pg = _rref_generic(arr, 2)
    assert pb == pg
    assert np.array_equal(_unpack_rows(Rb, 200), Rg)


def low_rank_array(seed, p, rows, cols):
    """A random rows x cols array over F_p of random rank, as int64."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(0, min(rows, cols) + 1))
    a = rng.integers(0, p, size=(rows, k), dtype=np.int64)
    b = rng.integers(0, p, size=(k, cols), dtype=np.int64)
    return (a @ b) % p


def gauss_jordan(rows, p, pivot_limit):
    """Textbook Gauss-Jordan mod p on lists of ints: (reduced rows, pivots)."""
    R = [[x % p for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(pivot_limit):
        if r == len(R):
            break
        pr = next((i for i in range(r, len(R)) if R[i][c]), None)
        if pr is None:
            continue
        R[r], R[pr] = R[pr], R[r]
        inv = pow(R[r][c], p - 2, p)
        R[r] = [x * inv % p for x in R[r]]
        for i in range(len(R)):
            f = R[i][c]
            if i != r and f:
                R[i] = [(x - f * y) % p for x, y in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
    return R, pivots


@given(
    p=st.sampled_from([2, 3, 5]),
    rows=st.integers(0, 10),
    cols=st.integers(1, 12),
    limit_frac=st.floats(0, 1),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=80, deadline=None)
def test_rref_generic_matches_textbook_gauss_jordan(p, rows, cols, limit_frac, seed):
    arr = low_rank_array(seed, p, rows, cols)
    limit = round(limit_frac * cols)
    R, pivots = _rref_generic(arr, p, pivot_limit=limit)
    want_R, want_pivots = gauss_jordan(arr.tolist(), p, limit)
    assert pivots == want_pivots
    assert R.dtype == np.uint8
    assert R.reshape(rows, cols).tolist() == want_R


@given(
    p=st.sampled_from([3, 5, 7, 251]),
    rows=st.integers(0, 60),
    cols=st.integers(2 * fplinalg._PANEL + 1, 70),
    limit_frac=st.floats(0, 1),
    density=st.sampled_from([1.0, 0.1, 0.02]),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=100, deadline=None)
def test_rref_generic_across_panels_matches_textbook_gauss_jordan(
        p, rows, cols, limit_frac, density, seed):
    # at least three panels wide; columns past the limit are an augmented
    # block; sparse inputs leave rows and columns out of a panel's update,
    # swap pivots with rows inactive in the panel, and leave some panels
    # with no active rows
    rng = np.random.default_rng(seed)
    arr = low_rank_array(seed, p, rows, cols)
    arr[rng.random(arr.shape) > density] = 0
    limit = round(limit_frac * cols)
    R, pivots = _rref_generic(arr, p, pivot_limit=limit)
    want_R, want_pivots = gauss_jordan(arr.tolist(), p, limit)
    assert pivots == want_pivots
    assert R.dtype == np.uint8
    assert R.reshape(rows, cols).tolist() == want_R
    # LinSolver eliminates [M' | I] with pivot_limit, M' the columns of M
    # reversed, then solves and annihilates; its pivots are those of M'
    M = arr.astype(np.uint8)
    solver = LinSolver(FpMatrix(p, M, check=False))
    reversed_pivots = gauss_jordan(arr[:, ::-1].tolist(), p, cols)[1]
    assert solver.pivots == tuple(cols - 1 - c for c in reversed_pivots)
    B = matmul_mod(rng.integers(0, p, size=(5, cols)), M.T, p)
    assert np.array_equal(matmul_mod(solver.solve_rows(B), M.T, p), B)
    K = solver.kernel_rows()
    assert K.shape == (cols - solver.rank, cols)
    assert not matmul_mod(M, K.T, p).any()


def test_rref_generic_swaps_with_inactive_rows_and_skips_empty_panels():
    # the second panel's pivots are rows 2 and 4, each swapped with row 1,
    # which is zero there; the third panel is zero in every row
    P, p = fplinalg._PANEL, fplinalg.MAX_PRIME
    arr = np.zeros((5, 4 * P + 3), dtype=np.uint8)
    arr[0, [0, 4 * P]] = p - 1
    arr[1, [3 * P + 1, 4 * P + 1]] = [3, 7]
    arr[2, [P + 2, P + 5, 4 * P + 2]] = [p - 1, 5, 1]
    arr[3, [3 * P, 3 * P + 1]] = [2, p - 1]
    arr[4, [P + 5, 4 * P]] = [9, 2]
    for limit in (arr.shape[1], 4 * P):
        R, pivots = _rref_generic(arr, p, pivot_limit=limit)
        want_R, want_pivots = gauss_jordan(arr.tolist(), p, limit)
        assert pivots == want_pivots == [0, P + 2, P + 5, 3 * P, 3 * P + 1]
        assert R.tolist() == want_R


@pytest.mark.parametrize("limit", [None, 2 * fplinalg._PANEL + 3])
@pytest.mark.parametrize("diagonal", [True, False], ids=["all", "off-diagonal"])
def test_rref_generic_at_the_largest_prime_matches_python_ints(limit, diagonal):
    # every entry p - 1 makes multipliers and pivot rows as large as they
    # get; zeroing the diagonal gives a pivot in nearly every column, so
    # each panel takes _PANEL unreduced steps
    p = fplinalg.MAX_PRIME
    n = 3 * fplinalg._PANEL + 5
    arr = np.full((n - 2, n), p - 1, dtype=np.uint8)
    if not diagonal:
        np.fill_diagonal(arr, 0)
    R, pivots = _rref_generic(arr, p, pivot_limit=limit)
    want_R, want_pivots = gauss_jordan(arr.tolist(), p, n if limit is None else limit)
    assert pivots == want_pivots
    assert R.tolist() == want_R


def test_rref_generic_reduces_wide_integers_before_narrowing():
    # entries past int32 and below zero: a cast to int32 would wrap them
    p = 7
    base = low_rank_array(5, p, 20, 3 * fplinalg._PANEL)
    rng = np.random.default_rng(5)
    wide = base + p * rng.integers(-2**40, 2**40, size=base.shape)
    assert wide.max() >= 2**31 and wide.min() < 0
    for limit in (None, 2 * fplinalg._PANEL):
        R, pivots = _rref_generic(wide, p, pivot_limit=limit)
        want_R, want_pivots = _rref_generic(base.astype(np.uint8), p, pivot_limit=limit)
        assert pivots == want_pivots
        assert np.array_equal(R, want_R)


@pytest.mark.parametrize("k", [34_359, 40_000])
def test_matmul_mod_at_the_largest_prime_matches_python_ints(k):
    # k (p - 1)^2 < 2^31 holds at k = 34359 and fails at 40000, where
    # int32 sums would wrap
    p = fplinalg.MAX_PRIME
    rng = np.random.default_rng(k)
    a = np.full((2, k), p - 1, dtype=np.uint8)
    a[1] = rng.integers(0, p, k)
    b = np.full((k, 3), p - 1, dtype=np.uint8)
    b[:, 2] = rng.integers(0, p, k)
    want = [[sum(x * y for x, y in zip(row, col)) % p for col in b.T.tolist()]
            for row in a.tolist()]
    assert matmul_mod(a, b, p).tolist() == want


@pytest.mark.parametrize("run", [34_359, 34_400])
def test_segment_sums_at_the_largest_prime_match_python_ints(run):
    # owner 1 sums run terms (p - 1)^2: past the int32 bound at 34400
    p = fplinalg.MAX_PRIME
    rows = np.array([[p - 1, 1, 0], [p - 1, p - 1, 2]], dtype=np.uint8)
    owner = np.repeat([0, 1, 3], [2, run, 1])
    pick = np.r_[[0, 1], np.ones(run, dtype=np.intp), [0]]
    coeffs = np.full(owner.size, p - 1, dtype=np.uint8)
    coeffs[0] = 3
    want = [[0] * 3 for _ in range(4)]
    for i, r, c in zip(owner.tolist(), pick.tolist(), coeffs.tolist()):
        want[i] = [(x + c * y) % p for x, y in zip(want[i], rows[r].tolist())]
    sums = SegmentSums(4, 3, p)
    assert sums.add(rows, pick, coeffs, owner).rows(0, 4).tolist() == want
    # adding the same terms again doubles every row mod p, past 255 in uint8
    twice = [[2 * x % p for x in row] for row in want]
    assert sums.add(rows, pick, coeffs, owner).rows(0, 4).tolist() == twice


@pytest.mark.parametrize("p", [2, 3, 251])
def test_segment_sums_accumulate_across_adds(p):
    # terms split over several adds, as a lift adds one slice of its pairs
    # at a time, sum like one pass in Python integers
    rng = np.random.default_rng(p)
    rows = rng.integers(0, p, size=(9, 70), dtype=np.uint8)
    want = np.zeros((5, 70), dtype=np.int64)
    sums = SegmentSums(5, 70, p)
    for _ in range(4):
        owner = np.sort(rng.integers(0, 5, size=12))
        pick = rng.integers(0, 9, size=12)
        coeffs = rng.integers(0, p, size=12, dtype=np.uint8)
        for i, r, c in zip(owner, pick, coeffs):
            want[i] += int(c) * rows[r].astype(np.int64)
        sums.add(rows, pick, coeffs, owner)
    assert sums.rows(0, 5).dtype == np.uint8
    assert np.array_equal(sums.rows(0, 5), want % p)
    assert np.array_equal(sums.rows(2, 4), want[2:4] % p)


@pytest.fixture
def rref_generic_calls(monkeypatch):
    """The (input, p, pivot_limit) of every _rref_generic call the test
    makes through the module, recorded as they are made."""
    calls = []

    def recording(arr, p, pivot_limit=None):
        calls.append((np.array(arr, copy=True), p, pivot_limit))
        return _rref_generic(arr, p, pivot_limit)

    monkeypatch.setattr(fplinalg, "_rref_generic", recording)
    return calls


def test_rref_generic_does_not_depend_on_the_panel_width(rref_generic_calls, monkeypatch):
    # width 1 is column-by-column Gauss-Jordan; every output is compared
    # byte for byte, rows below the rank included
    build_minimal_resolution(load_pcp(os.path.join(INPUTS, "H27.pcp")), 6)
    build_minimal_resolution(load_pcp(os.path.join(INPUTS, "Z9xZ9.pcp")), 4)
    assert len(rref_generic_calls) > 20
    want = [_rref_generic(*call) for call in rref_generic_calls]
    for width in (1, 64):
        monkeypatch.setattr(fplinalg, "_PANEL", width)
        for call, (R, pivots) in zip(rref_generic_calls, want):
            got_R, got_pivots = _rref_generic(*call)
            assert got_pivots == pivots
            assert got_R.shape == R.shape and got_R.tobytes() == R.tobytes()


@given(
    rows=st.integers(0, 40),
    cols=st.integers(2 * fplinalg._WORD + 1, 200),
    limit_frac=st.floats(0, 1),
    density=st.sampled_from([1.0, 0.1]),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=40, deadline=None)
def test_rref_bits_across_panels_matches_textbook_gauss_jordan(
        rows, cols, limit_frac, density, seed):
    # at least three word panels; columns past the limit are an augmented
    # block, and below the rank only zeros left of the limit are canonical
    rng = np.random.default_rng(seed)
    arr = low_rank_array(seed, 2, rows, cols)
    arr[rng.random(arr.shape) > density] = 0
    limit = round(limit_frac * cols)
    R, pivots = _rref_bits(_pack_rows(arr.astype(np.uint8)), cols, pivot_limit=limit)
    R = _unpack_rows(R, cols)
    want_R, want_pivots = gauss_jordan(arr.tolist(), 2, limit)
    rank = len(want_pivots)
    assert pivots == want_pivots
    assert R[:rank, :limit].tolist() == [row[:limit] for row in want_R[:rank]]
    assert not R[rank:, :limit].any()
    # [D | I] with the limit at D's width: E records the row operations
    D = arr[:, :limit].astype(np.uint8)
    aug = np.hstack([D, np.eye(rows, dtype=np.uint8)])
    red, aug_pivots = _rref_bits(_pack_rows(aug), limit + rows, pivot_limit=limit)
    red = _unpack_rows(red, limit + rows)
    E = red[:, limit:]
    assert aug_pivots == gauss_jordan(D.tolist(), 2, limit)[1]
    assert np.array_equal(matmul_mod(E, D, 2), red[:, :limit])
    assert len(gauss_jordan(E.tolist(), 2, rows)[1]) == rows


def textbook_kernel(M: np.ndarray, p: int) -> list:
    """RREF basis of the kernel of M: Gauss-Jordan on M, one row per free
    column, then Gauss-Jordan again on those rows."""
    cols = M.shape[1]
    R, pivots = gauss_jordan(M.tolist(), p, cols)
    rows = []
    for f in sorted(set(range(cols)) - set(pivots)):
        v = [0] * cols
        v[f] = 1
        for i, c in enumerate(pivots):
            v[c] = -R[i][f] % p
        rows.append(v)
    return gauss_jordan(rows, p, cols)[0]


@given(
    p=st.sampled_from([2, 3, 5]),
    rows=st.integers(0, 30),
    cols=st.integers(1, 2 * fplinalg._WORD + 40),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=40, deadline=None)
def test_solver_kernel_rows_match_textbook_kernel(p, rows, cols, seed):
    # read off the one elimination of the reversed matrix, no second one
    M = low_rank_array(seed, p, rows, cols).astype(np.uint8)
    K = LinSolver(FpMatrix(p, M, check=False)).kernel_rows()
    assert K.dtype == np.uint8
    want = textbook_kernel(M, p)
    assert K.tolist() == want
    assert kernel_basis(FpMatrix(p, M, check=False)).basis.arr.tolist() == want


@given(
    p=st.sampled_from([2, 3, 5]),
    rows=st.integers(0, 10),
    cols=st.integers(1, 12),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=80, deadline=None)
def test_free_column_rows_span_the_kernel(p, rows, cols, seed):
    arr = low_rank_array(seed, p, rows, cols).astype(np.uint8)
    R, pivots = _rref_array(arr, p)
    ker = _free_column_rows(R, pivots, cols, p)
    assert ker.dtype == np.uint8
    assert ker.shape == (cols - len(pivots), cols)
    assert not matmul_mod(arr, ker.T, p).any()
    assert len(_rref_array(ker, p)[1]) == ker.shape[0]  # independent rows


def test_pack_roundtrip():
    rng = np.random.default_rng(1)
    arr = rng.integers(0, 2, size=(5, 130), dtype=np.int64).astype(np.uint8)
    assert np.array_equal(_unpack_rows(_pack_rows(arr), 130), arr)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_linsolver_consistent_and_inconsistent(p):
    rng = np.random.default_rng(17)
    m = random_matrix(rng, p, 15, 11)
    solver = LinSolver(m)
    x_true = rng.integers(0, p, size=11, dtype=np.int64).astype(np.uint8)
    b = matmul_mod(m.arr, x_true[:, None], p)[:, 0]
    x = solver.solve(b)
    assert x is not None
    assert np.array_equal(matmul_mod(m.arr, x[:, None], p)[:, 0], b)
    # second solution also solves, and differs when the kernel is nontrivial
    x2 = solver.second_solution(b)
    assert np.array_equal(matmul_mod(m.arr, x2[:, None], p)[:, 0], b)
    if solver.nullity() > 0:
        assert not np.array_equal(x, x2)
    # kernel rows actually lie in the kernel
    for row in solver.kernel_rows():
        assert not matmul_mod(m.arr, row[:, None], p).any()
    assert solver.rank + len(solver.kernel_rows()) == 11


def test_linsolver_detects_inconsistency():
    m = FpMatrix(2, [[1, 0], [1, 0]])
    solver = LinSolver(m)
    assert solver.solve(np.array([1, 0], dtype=np.uint8)) is None


@given(
    p=st.sampled_from([2, 3, 5]),
    rows=st.integers(0, 10),
    cols=st.integers(1, 12),
    nrhs=st.integers(1, 6),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=80, deadline=None)
def test_solve_rows_matches_stacked_solves(p, rows, cols, nrhs, seed):
    rng = np.random.default_rng(seed)
    M = low_rank_array(seed, p, rows, cols).astype(np.uint8)
    solver = LinSolver(FpMatrix(p, M, check=False))
    B = matmul_mod(rng.integers(0, p, size=(nrhs, cols)), M.T, p)
    X = solver.solve_rows(B)
    assert X.shape == (nrhs, cols) and X.dtype == np.uint8
    assert np.array_equal(X, np.stack([solver.solve(b) for b in B]))
    # each row solves M x = b and vanishes off the pivots, which pins it down
    assert np.array_equal(matmul_mod(X, M.T, p), B)
    free = np.setdiff1d(np.arange(cols), solver.pivots)
    assert not X[:, free].any()
    with mock.patch.object(fplinalg, "_CHUNK_BYTES", 0):  # one row per chunk
        assert np.array_equal(solver.solve_rows(B), X)
    if solver.rank < rows:
        # y M = 0 with y[c] != 0, so adding e_c to a consistent row breaks it
        y = kernel_basis(FpMatrix(p, M.T, check=False)).basis.arr[0]
        c = int(np.flatnonzero(y)[0])
        bad = B.copy()
        i = int(rng.integers(nrhs))
        bad[i, c] = (int(bad[i, c]) + 1) % p
        assert solver.solve(bad[i]) is None
        assert solver.solve_rows(bad) is None


@given(
    p=st.sampled_from([2, 3, 5]),
    blocks=st.integers(1, 3),
    rows=st.integers(0, 8),
    n=st.integers(1, 70),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=60, deadline=None)
def test_quotient_coords_read_modulo_the_stacked_span(p, blocks, rows, n, seed):
    rng = np.random.default_rng(seed)
    stack = [low_rank_array(seed + i, p, rows, n).astype(np.uint8) for i in range(blocks)]
    R, pivots = stacked_pivots(iter(stack), n, p)
    want, want_pivots = _rref_array(np.vstack(stack), p)
    assert list(pivots) == list(want_pivots) and R.base is None  # no view of the stack
    assert np.array_equal(_unpack_rows(R, n) if p == 2 else R, want[: len(pivots)])
    # the stacked rows are W with its columns reversed
    W = FpSubspace.from_spanning(p, n, np.vstack(stack)[:, ::-1])
    q = QuotientCoords(R, pivots, n, p)
    assert len(q.kept) == n - W.dim
    C = rng.integers(0, p, size=(4, n)).astype(np.uint8)
    got = q.read(C)
    assert got.dtype == np.uint8 and got.shape == (4, len(q.kept))
    rep = np.zeros_like(C)
    rep[:, q.kept] = got
    for c, r in zip(C, rep):
        assert W.contains((c.astype(np.int64) - r) % p)


@given(
    p=st.sampled_from([2, 3, 5]),
    rows=st.integers(0, 8),
    cols=st.integers(1, 70),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=60, deadline=None)
def test_kills_rows_tests_the_kernel(p, rows, cols, seed):
    rng = np.random.default_rng(seed)
    M = low_rank_array(seed, p, rows, cols).astype(np.uint8)
    solver = LinSolver(FpMatrix(p, M, check=False))
    K = solver.kernel_rows()
    inside = matmul_mod(rng.integers(0, p, size=(3, len(K))), K, p)
    assert solver.kills_rows(inside)
    B = rng.integers(0, p, size=(3, cols)).astype(np.uint8)
    assert solver.kills_rows(B) == (not matmul_mod(B, M.T, p).any())


def test_subspace_hashable_and_equal():
    a = FpSubspace.from_spanning(2, 3, [[1, 1, 0], [0, 0, 1]])
    b = FpSubspace.from_spanning(2, 3, [[1, 1, 1], [0, 0, 1]])
    assert a == b
    assert hash(a) == hash(b)


def test_non_prime_rejected():
    with pytest.raises(ValueError):
        FpMatrix(4, [[1]])
