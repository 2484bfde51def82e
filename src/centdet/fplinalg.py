"""Exact dense linear algebra over prime fields.

Everything downstream reduces to the row-reduction kernels in this
module.  For p = 2, rows are packed into 64-bit words and eliminated
with whole-row XOR, which is the dominant cost of resolution building.
Odd primes work on int64 rows in column panels: each panel is reduced
in a narrow block that also records its row operations, and the
columns right of it catch up in one integer product per panel (see
``_rref_generic``).  The panel width is a fixed constant, not a setting:
the result does not depend on it, the sums in that product stay below
_PANEL * p^2 for every input, and 16 was the fastest width from 8 to 32
on the odd-p reports.  All arithmetic is exact mod p, no floating point
anywhere.

Conventions: matrices act on column vectors, so ``kernel_basis(m)``
lives in F_p^cols and ``image_basis(m)`` (the column space) lives in
F_p^rows.  Subspaces are stored as reduced row-echelon basis matrices,
which makes subspace equality plain matrix equality.
"""

from __future__ import annotations

import numpy as np

_WORD = 64
# the largest prime whose residues, and p - x for a residue x, fit in the
# uint8 entries every matrix is stored in
MAX_PRIME = 251
# bound on the temporaries of the batched kernels, in bytes
_CHUNK_BYTES = 1 << 20
# pivot columns per panel of the odd-p elimination (_rref_generic)
_PANEL = 16


class DimensionMismatchError(ValueError):
    """Operands live in different ambient spaces or over different primes."""


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# bit packing (p = 2)

def _pack_rows(arr: np.ndarray) -> np.ndarray:
    """Pack an (m, n) 0/1 uint8 array into (m, ceil(n/64)) uint64 words."""
    m, n = arr.shape
    nw = (n + _WORD - 1) // _WORD
    if m == 0 or nw == 0:
        return np.zeros((m, nw), dtype=np.uint64)
    padded = np.zeros((m, nw * _WORD), dtype=np.uint8)
    padded[:, :n] = arr
    return np.packbits(padded, axis=1, bitorder="little").view(np.uint64)


def _unpack_rows(packed: np.ndarray, n: int) -> np.ndarray:
    m = packed.shape[0]
    if m == 0 or n == 0 or packed.shape[1] == 0:
        return np.zeros((m, n), dtype=np.uint8)
    bits = np.unpackbits(
        np.ascontiguousarray(packed).view(np.uint8), axis=1, bitorder="little"
    )
    return np.ascontiguousarray(bits[:, :n])


def _parity_products(packed: np.ndarray, bpacked: np.ndarray) -> np.ndarray:
    """Parities of packed[k] & bpacked[i] at (i, k), i.e. B M^T over F_2.

    Taken over chunks of B's rows, so the (rows, m, words) temporary
    stays near _CHUNK_BYTES."""
    r, (m, nw) = bpacked.shape[0], packed.shape
    out = np.zeros((r, m), dtype=np.uint8)
    step = max(1, _CHUNK_BYTES // max(1, 8 * m * nw))
    for lo in range(0, r, step):
        both = bpacked[lo:lo + step, None, :] & packed[None, :, :]
        out[lo:lo + step] = np.bitwise_count(np.bitwise_xor.reduce(both, axis=2)) & 1
    return out


def segment_sums(rows: np.ndarray, pick: np.ndarray, coeffs: np.ndarray,
                 owner: np.ndarray, n: int, p: int) -> np.ndarray:
    """Row i of the (n, width) result is the sum of coeffs[k] * rows[pick[k]]
    over the k with owner[k] == i, mod p; owner must be nondecreasing.

    At p = 2 the packed rows are XOR-reduced, at odd p the int64 products
    are add-reduced; either way one reduceat over the runs of owner."""
    out = np.zeros((n, rows.shape[1]), dtype=np.uint8)
    if p == 2:
        odd = (coeffs & 1).astype(bool)
        pick, owner = pick[odd], owner[odd]
    if owner.size == 0:
        return out
    starts = np.flatnonzero(np.r_[True, owner[1:] != owner[:-1]])
    if p == 2:
        sums = np.bitwise_xor.reduceat(_pack_rows(rows)[pick], starts, axis=0)
        out[owner[starts]] = _unpack_rows(sums, rows.shape[1])
    else:
        terms = rows[pick].astype(np.int64) * coeffs[:, None].astype(np.int64)
        out[owner[starts]] = np.add.reduceat(terms, starts, axis=0) % p
    return out


# ---------------------------------------------------------------------------
# row reduction kernels

def _rref_bits(rows: np.ndarray, ncols: int, pivot_limit: int | None = None):
    """Gauss-Jordan on packed rows.  Returns (reduced rows, pivot columns).

    Pivots are only searched within the first ``pivot_limit`` columns;
    row operations always apply to the full packed width, so augmented
    blocks ride along untouched by the pivot search.
    """
    R = rows.copy()
    m = R.shape[0]
    limit = ncols if pivot_limit is None else pivot_limit
    pivots: list[int] = []
    r = 0
    for c in range(limit):
        if r == m:
            break
        w, s = divmod(c, _WORD)
        mask = np.uint64(1 << s)
        hits = np.flatnonzero(R[r:, w] & mask)
        if hits.size == 0:
            continue
        pr = r + int(hits[0])
        if pr != r:
            R[[r, pr]] = R[[pr, r]]
        others = np.flatnonzero(R[:, w] & mask)
        others = others[others != r]
        if others.size:
            R[others] ^= R[r]
        pivots.append(c)
        r += 1
    return R, pivots


def _rref_generic(arr: np.ndarray, p: int, pivot_limit: int | None = None):
    """Gauss-Jordan mod p on an integer array.  Returns (uint8 rref, pivots).

    The pivot columns are taken in panels of _PANEL columns.  Within a
    panel of w columns, the pivot search, swaps, scaling and eliminations
    act on a narrow int64 block W: the panel's columns followed by a
    tracker T, one column for each pivot the panel can hold.  When the
    row at position r becomes the panel's t-th pivot, T[r, t] is set to
    1, and every later row operation acts on T too.  Right of the panel,
    row i should then end as its own entries plus T[i] @ src, where src
    holds the pivot rows as they were when the panel began; a pivot row's
    own entries are already counted through T, so they are zeroed first.
    That one product, over the rows with a nonzero T row and the columns
    where src is nonzero, brings every column right of the panel up to
    date, augmented ones included, with one reduction mod p.

    These are the row operations of column-by-column Gauss-Jordan in the
    same order, so the result is the same exactly; what changes is that
    the wide columns are reduced once per panel instead of once per pivot
    (the delayed reduction of Dumas-Giorgi-Pernet's FFLAS-FFPACK).  The
    width is a constant because the result does not depend on it and it
    keeps every sum of the product below _PANEL * p^2, far inside int64.
    """
    R = arr.astype(np.int64, copy=True) % p
    m, n = R.shape
    limit = n if pivot_limit is None else pivot_limit
    pivots: list[int] = []
    r = 0
    for c0 in range(0, limit, _PANEL):
        if r == m:
            break
        c1 = min(c0 + _PANEL, limit)
        w = c1 - c0
        W = np.zeros((m, 2 * w), dtype=np.int64)
        W[:, :w] = R[:, c0:c1]
        r0 = r
        for c in range(w):
            if r == m:
                break
            hits = np.flatnonzero(W[r:, c])
            if hits.size == 0:
                continue
            pr = r + int(hits[0])
            if pr != r:
                W[[r, pr]] = W[[pr, r]]
                R[[r, pr], c1:] = R[[pr, r], c1:]
            W[r, w + r - r0] = 1
            inv = pow(int(W[r, c]), p - 2, p)
            if inv != 1:
                W[r] = (W[r] * inv) % p
            others = np.flatnonzero(W[:, c])
            others = others[others != r]
            if others.size:
                # the pivot row is zero left of c, so only columns >= c change
                W[others, c:] = (W[others, c:] - np.outer(W[others, c], W[r, c:])) % p
            pivots.append(c0 + c)
            r += 1
        R[:, c0:c1] = W[:, :w]
        if r > r0 and c1 < n:
            T = W[:, w:w + r - r0]
            src = R[r0:r, c1:].copy()
            R[r0:r, c1:] = 0
            rows = np.flatnonzero(T.any(axis=1))
            cols = np.flatnonzero(src.any(axis=0))
            block = np.ix_(rows, c1 + cols)
            # entries below p and at most _PANEL terms: no int64 overflow
            R[block] = (R[block] + T[rows] @ src[:, cols]) % p
    return R.astype(np.uint8), pivots


def _rref_array(arr: np.ndarray, p: int):
    """Dispatch to the packed or generic path.  Returns (rref uint8, pivots)."""
    if p == 2:
        packed, pivots = _rref_bits(_pack_rows(arr), arr.shape[1])
        return _unpack_rows(packed, arr.shape[1]), pivots
    return _rref_generic(arr, p)


def stacked_pivots(blocks, ncols: int, p: int) -> list[int]:
    """Pivot columns of the uint8 row blocks stacked in order.  At p = 2
    each block is packed as it arrives, so the stack is only held packed."""
    if p == 2:
        return _rref_bits(np.vstack([_pack_rows(b) for b in blocks]), ncols)[1]
    return _rref_generic(np.vstack(list(blocks)), p)[1]


# ---------------------------------------------------------------------------
# public types

class FpMatrix:
    """Dense matrix over F_p with entries stored as uint8 in [0, p)."""

    __slots__ = ("p", "arr")

    def __init__(self, p: int, arr, check: bool = True):
        a = np.asarray(arr, dtype=np.uint8)
        if a.ndim != 2:
            raise ValueError("FpMatrix needs a 2-d array")
        if check:
            if not _is_prime(p):
                raise ValueError(f"p must be prime, got {p}")
            if a.size and int(a.max()) >= p:
                a = a % p
        self.p = p
        self.arr = np.ascontiguousarray(a)

    # -- construction helpers
    @classmethod
    def zeros(cls, p: int, rows: int, cols: int) -> "FpMatrix":
        return cls(p, np.zeros((rows, cols), dtype=np.uint8), check=False)

    @classmethod
    def identity(cls, p: int, n: int) -> "FpMatrix":
        return cls(p, np.eye(n, dtype=np.uint8), check=False)

    @property
    def rows(self) -> int:
        return self.arr.shape[0]

    @property
    def cols(self) -> int:
        return self.arr.shape[1]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FpMatrix)
            and self.p == other.p
            and self.arr.shape == other.arr.shape
            and bool(np.array_equal(self.arr, other.arr))
        )

    def __hash__(self) -> int:
        return hash((self.p, self.arr.shape, self.arr.tobytes()))

    def __repr__(self) -> str:
        return f"FpMatrix(p={self.p}, {self.rows}x{self.cols})"

    def mul(self, other: "FpMatrix") -> "FpMatrix":
        if self.p != other.p or self.cols != other.rows:
            raise DimensionMismatchError("matmul shape/prime mismatch")
        prod = matmul_mod(self.arr, other.arr, self.p)
        return FpMatrix(self.p, prod, check=False)


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact (a @ b) % p via int64 accumulation."""
    out = (a.astype(np.int64) @ b.astype(np.int64)) % p
    return out.astype(np.uint8)


class FpSubspace:
    """Subspace of F_p^ambient given by an RREF basis matrix (rows = basis)."""

    __slots__ = ("p", "ambient_dim", "basis", "_pivots")

    def __init__(self, p: int, ambient_dim: int, basis: FpMatrix, pivots=None):
        if basis.cols != ambient_dim:
            raise DimensionMismatchError("basis width != ambient dimension")
        self.p = p
        self.ambient_dim = ambient_dim
        self.basis = basis
        if pivots is None:
            pivots = tuple(int(np.argmax(row != 0)) for row in basis.arr)
        self._pivots = tuple(pivots)

    @classmethod
    def from_spanning(cls, p: int, ambient_dim: int, rows) -> "FpSubspace":
        if ambient_dim == 0:  # reshape(-1, 0) is ambiguous; F_p^0 has one subspace
            return cls.zero(p, 0)
        arr = np.asarray(rows, dtype=np.uint8).reshape(-1, ambient_dim) % p
        R, pivots = _rref_array(arr, p)
        return cls(p, ambient_dim, FpMatrix(p, R[: len(pivots)], check=False), pivots)

    @classmethod
    def zero(cls, p: int, ambient_dim: int) -> "FpSubspace":
        return cls(p, ambient_dim, FpMatrix.zeros(p, 0, ambient_dim), ())

    @classmethod
    def full(cls, p: int, ambient_dim: int) -> "FpSubspace":
        return cls(
            p, ambient_dim, FpMatrix.identity(p, ambient_dim), tuple(range(ambient_dim))
        )

    @property
    def dim(self) -> int:
        return self.basis.rows

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FpSubspace)
            and self.p == other.p
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.basis))

    def __repr__(self) -> str:
        return f"FpSubspace(p={self.p}, dim={self.dim}, ambient={self.ambient_dim})"

    def reduce(self, vec: np.ndarray) -> np.ndarray:
        """Residue of vec after reduction by the RREF basis."""
        v = np.asarray(vec, dtype=np.uint8).astype(np.int64) % self.p
        B = self.basis.arr
        for i, c in enumerate(self._pivots):
            coef = v[c]
            if coef:
                v = (v - coef * B[i].astype(np.int64)) % self.p
        return v.astype(np.uint8)

    def contains(self, vec: np.ndarray) -> bool:
        return not self.reduce(vec).any()

    def annihilator_matrix(self) -> FpMatrix:
        """Matrix whose kernel (as a map on columns) is exactly this subspace."""
        ann = kernel_basis(self.basis)
        return ann.basis


# ---------------------------------------------------------------------------
# core operations

def rref(m: FpMatrix):
    """Reduced row-echelon form.  Returns (rref matrix, pivot columns, rank)."""
    R, pivots = _rref_array(m.arr, m.p)
    return FpMatrix(m.p, R, check=False), tuple(pivots), len(pivots)


def _free_column_rows(R: np.ndarray, pivots, n: int, p: int) -> np.ndarray:
    """Null-space spanning rows of R, in RREF with the given pivot columns:
    one row e_f - sum_i R[i, f] e_{pivots[i]} per free column f."""
    pivots = np.asarray(pivots, dtype=np.intp)
    is_free = np.ones(n, dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    rows = np.zeros((free.size, n), dtype=np.uint8)
    rows[np.arange(free.size), free] = 1
    # uint8 throughout: p - R stays in [1, p], so nothing wraps
    rows[:, pivots] = ((p - R[: pivots.size][:, free]) % p).T
    return rows


def kernel_basis(m: FpMatrix) -> FpSubspace:
    """Null space {x : m x = 0} as a canonical RREF subspace of F_p^cols."""
    R, pivots = _rref_array(m.arr, m.p)
    rows = _free_column_rows(R, pivots, m.cols, m.p)
    if not len(rows):
        return FpSubspace.zero(m.p, m.cols)
    return FpSubspace.from_spanning(m.p, m.cols, rows)


def image_basis(m: FpMatrix) -> FpSubspace:
    """Column space of m as an RREF subspace of F_p^rows."""
    return FpSubspace.from_spanning(m.p, m.rows, m.arr.T)


def solve_preimage(m: FpMatrix, target: FpSubspace) -> FpSubspace:
    """{x : m x in target}, via the stacked-kernel construction."""
    if target.ambient_dim != m.rows or target.p != m.p:
        raise DimensionMismatchError("target must live in the codomain of m")
    ann = target.annihilator_matrix()
    stacked = matmul_mod(ann.arr, m.arr, m.p)
    return kernel_basis(FpMatrix(m.p, stacked, check=False))


def intersect(a: FpSubspace, b: FpSubspace) -> FpSubspace:
    if a.p != b.p or a.ambient_dim != b.ambient_dim:
        raise DimensionMismatchError("subspaces not comparable")
    stacked = np.vstack([a.annihilator_matrix().arr, b.annihilator_matrix().arr])
    return kernel_basis(FpMatrix(a.p, stacked, check=False))


def subspace_sum(a: FpSubspace, b: FpSubspace) -> FpSubspace:
    if a.p != b.p or a.ambient_dim != b.ambient_dim:
        raise DimensionMismatchError("subspaces not comparable")
    return FpSubspace.from_spanning(
        a.p, a.ambient_dim, np.vstack([a.basis.arr, b.basis.arr])
    )


def kronecker(a: FpMatrix, b: FpMatrix) -> FpMatrix:
    if a.p != b.p:
        raise DimensionMismatchError("kronecker needs matching primes")
    prod = (np.kron(a.arr.astype(np.int64), b.arr.astype(np.int64))) % a.p
    return FpMatrix(a.p, prod.astype(np.uint8), check=False)


# ---------------------------------------------------------------------------
# repeated-solve factorization

class IncrementalSpan:
    """Growing row span with membership tests, for online basis selection.

    Rows are kept leading-reduced (one stored row per leading column), so
    ``add`` is exact and order-dependent in the way deterministic
    generator selection needs: feeding rows in a fixed order always
    accepts the lexicographically first independent subset.
    """

    def __init__(self, p: int, ncols: int):
        self.p = p
        self.ncols = ncols
        self._rows: dict[int, np.ndarray] = {}
        if p == 2:
            self._nw = (ncols + _WORD - 1) // _WORD

    @property
    def dim(self) -> int:
        return len(self._rows)

    def _lead_bits(self, v: np.ndarray) -> int | None:
        for w in range(v.shape[0]):
            x = int(v[w])
            if x:
                return w * _WORD + ((x & -x).bit_length() - 1)
        return None

    def _residue_bits(self, v: np.ndarray):
        v = v.copy()
        while True:
            c = self._lead_bits(v)
            if c is None:
                return None, v
            row = self._rows.get(c)
            if row is None:
                return c, v
            v ^= row

    def add(self, vec: np.ndarray) -> bool:
        """Insert vec's residue; True iff the span grew."""
        if self.p == 2:
            v = vec if vec.dtype == np.uint64 else _pack_rows(
                np.asarray(vec, dtype=np.uint8)[None, :])[0]
            c, res = self._residue_bits(v)
            if c is None:
                return False
            self._rows[c] = res
            return True
        v = np.asarray(vec, dtype=np.int64) % self.p
        while True:
            nz = np.flatnonzero(v)
            if nz.size == 0:
                return False
            c = int(nz[0])
            row = self._rows.get(c)
            if row is None:
                inv = pow(int(v[c]), self.p - 2, self.p)
                self._rows[c] = (v * inv) % self.p
                return True
            v = (v - v[c] * row) % self.p

    def contains(self, vec: np.ndarray) -> bool:
        if self.p == 2:
            v = vec if vec.dtype == np.uint64 else _pack_rows(
                np.asarray(vec, dtype=np.uint8)[None, :])[0]
            c, _ = self._residue_bits(v)
            return c is None
        v = np.asarray(vec, dtype=np.int64) % self.p
        while True:
            nz = np.flatnonzero(v)
            if nz.size == 0:
                return True
            row = self._rows.get(int(nz[0]))
            if row is None:
                return False
            v = (v - v[int(nz[0])] * row) % self.p

    def add_rows(self, rows: np.ndarray) -> int:
        """Feed many uint8 rows in order; returns how many grew the span."""
        grew = 0
        if self.p == 2 and rows.shape[0]:
            packed = _pack_rows(np.asarray(rows, dtype=np.uint8))
            for v in packed:
                grew += self.add(v)
        else:
            for v in rows:
                grew += self.add(v)
        return grew


class LinSolver:
    """Gauss-Jordan factorization of M supporting many solves of M x = b.

    Row-reduces [M | I] once; each later solve is a single mod-p
    product of the right-hand sides with the recorded row-operation
    matrix E (for p = 2: packed AND + popcount parity).
    """

    def __init__(self, mat: FpMatrix):
        self.p = mat.p
        self.rows_n = mat.rows
        self.cols_n = mat.cols
        m, n = mat.rows, mat.cols
        if self.p == 2:
            D = _pack_rows(mat.arr)
            E = _pack_rows(np.eye(m, dtype=np.uint8))
            aug = np.hstack([D, E])
            red, pivots = _rref_bits(aug, n + m, pivot_limit=n)
            self._wD = D.shape[1]
            self._R = red[:, : self._wD]
            self._E = np.ascontiguousarray(red[:, self._wD:])
        else:
            aug = np.hstack([mat.arr, np.eye(m, dtype=np.uint8)])
            red, pivots = _rref_generic(aug, self.p, pivot_limit=n)
            self._R = red[:, :n]
            self._E = np.ascontiguousarray(red[:, n:])
        self.pivots = tuple(pivots)
        self.rank = len(pivots)
        self._kernel_rows: np.ndarray | None = None

    def solve(self, b: np.ndarray) -> np.ndarray | None:
        """A particular solution of M x = b, or None if inconsistent."""
        x = self.solve_rows(np.asarray(b, dtype=np.uint8)[None, :])
        return None if x is None else x[0]

    def solve_rows(self, B: np.ndarray) -> np.ndarray | None:
        """Row i is solve(B[i]); None if any row is inconsistent."""
        B = np.asarray(B, dtype=np.uint8)
        if self.p == 2:
            C = _parity_products(self._E, _pack_rows(B))
        else:
            C = matmul_mod(B, self._E.T, self.p)
        if C[:, self.rank:].any():
            return None
        X = np.zeros((B.shape[0], self.cols_n), dtype=np.uint8)
        X[:, list(self.pivots)] = C[:, : self.rank]
        return X

    def second_solution(self, b: np.ndarray) -> np.ndarray | None:
        """A solution differing from solve(b) whenever the kernel is nonzero."""
        x = self.solve(b)
        if x is None:
            return None
        ker = self.kernel_rows()
        if len(ker):
            x = (x.astype(np.int64) + ker[0]) % self.p
            x = x.astype(np.uint8)
        return x

    def kernel_rows(self) -> np.ndarray:
        """Canonical RREF basis of {x : M x = 0} as a uint8 array."""
        if self._kernel_rows is None:
            R = self._R[: self.rank]
            if self.p == 2:
                R = _unpack_rows(R, self.cols_n)
            rows = _free_column_rows(R, self.pivots, self.cols_n, self.p)
            red, piv = _rref_array(rows, self.p)
            self._kernel_rows = red[: len(piv)]
        return self._kernel_rows

    def nullity(self) -> int:
        return self.cols_n - self.rank
