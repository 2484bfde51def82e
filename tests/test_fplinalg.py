from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from centdet import fplinalg
from centdet.fplinalg import (
    FpMatrix,
    FpSubspace,
    LinSolver,
    _rref_bits,
    _rref_generic,
    _free_column_rows,
    _pack_rows,
    _rref_array,
    _unpack_rows,
    image_basis,
    intersect,
    kernel_basis,
    kronecker,
    matmul_mod,
    rref,
    solve_preimage,
    subspace_sum,
)


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


def test_kronecker():
    i2 = FpMatrix.identity(2, 2)
    i3 = FpMatrix.identity(2, 3)
    assert kronecker(i2, i3) == FpMatrix.identity(2, 6)
    z = FpMatrix.zeros(2, 2, 2)
    assert not kronecker(i2, z).arr.any()
    rng = np.random.default_rng(11)
    a = random_matrix(rng, 2, 4, 4)
    b = random_matrix(rng, 2, 4, 4)
    _, _, ra = rref(a)
    _, _, rb = rref(b)
    _, _, rab = rref(kronecker(a, b))
    assert rab == ra * rb


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
    density=st.sampled_from([1.0, 0.1]),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=100, deadline=None)
def test_rref_generic_across_panels_matches_textbook_gauss_jordan(
        p, rows, cols, limit_frac, density, seed):
    # at least three panels wide; columns past the limit are an augmented
    # block; sparse inputs leave rows and columns out of a panel's update
    rng = np.random.default_rng(seed)
    arr = low_rank_array(seed, p, rows, cols)
    arr[rng.random(arr.shape) > density] = 0
    limit = round(limit_frac * cols)
    R, pivots = _rref_generic(arr, p, pivot_limit=limit)
    want_R, want_pivots = gauss_jordan(arr.tolist(), p, limit)
    assert pivots == want_pivots
    assert R.dtype == np.uint8
    assert R.reshape(rows, cols).tolist() == want_R
    # LinSolver eliminates [M | I] with pivot_limit, then solves and annihilates
    M = arr.astype(np.uint8)
    solver = LinSolver(FpMatrix(p, M, check=False))
    assert solver.pivots == tuple(gauss_jordan(arr.tolist(), p, cols)[1])
    B = matmul_mod(rng.integers(0, p, size=(5, cols)), M.T, p)
    assert np.array_equal(matmul_mod(solver.solve_rows(B), M.T, p), B)
    K = solver.kernel_rows()
    assert K.shape == (cols - solver.rank, cols)
    assert not matmul_mod(M, K.T, p).any()


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


def test_subspace_hashable_and_equal():
    a = FpSubspace.from_spanning(2, 3, [[1, 1, 0], [0, 0, 1]])
    b = FpSubspace.from_spanning(2, 3, [[1, 1, 1], [0, 0, 1]])
    assert a == b
    assert hash(a) == hash(b)


def test_non_prime_rejected():
    with pytest.raises(ValueError):
        FpMatrix(4, [[1]])
