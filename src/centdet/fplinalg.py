"""Exact dense linear algebra over prime fields.

Everything downstream reduces to the row-reduction kernels in this
module.  For p = 2, rows are packed into 64-bit words and eliminated in
word panels: each panel's pivots are found on one word per row, and the
rows are brought up to date from byte-indexed XOR tables of the panel's
pivot rows, once per panel (the method of Four Russians; see
``_rref_bits``).  Odd primes work on int32 rows in column panels: each
panel is reduced in a narrow block that holds only the rows nonzero in
the panel, the only rows the panel can change, and that also records
their row operations; the columns right of it catch up in one int32
product per panel, and row swaps only permute an index (see
``_rref_generic``).  Inside the block only the entries that are read
are reduced mod p.  The odd-p panel width is a fixed constant, not a
setting: the result does not depend on it, every unreduced value is a
residue plus at most _PANEL terms below p^2, so below
17 * 251^2 < 2^31 for every prime up to MAX_PRIME, and 16 was the
fastest width from 8 to 32 on the odd-p reports.  ``matmul_mod`` and
the odd-p ``SegmentSums`` take int32 under the same kind of bound
and int64 past it.  All arithmetic is exact mod p, no floating point
anywhere.

``LinSolver`` factors a matrix once, with its columns reversed, and
reads both its particular solutions and the canonical RREF basis of its
kernel from that one elimination.  ``QuotientCoords`` reads vectors
modulo a subspace from the reduced rows of its elimination.

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


class SegmentSums:
    """n rows of width residues mod p, zero at first, that ``add`` adds
    segment sums into; at p = 2 they are kept packed, and adding is XOR."""

    def __init__(self, n: int, width: int, p: int):
        self.width = width
        self.p = p
        if p == 2:
            self._acc = np.zeros((n, (width + _WORD - 1) // _WORD), dtype=np.uint64)
        else:
            self._acc = np.zeros((n, width), dtype=np.uint8)

    def add(self, rows: np.ndarray, pick: np.ndarray, coeffs: np.ndarray,
            owner: np.ndarray) -> "SegmentSums":
        """Add coeffs[k] * rows[pick[k]] to row owner[k], for every k, mod p;
        owner must be nondecreasing.

        At p = 2 the packed rows are XOR-reduced, at odd p the products are
        add-reduced together with the row they are added to, in int32 when
        the longest run's sums fit and in int64 otherwise; either way one
        reduceat over the runs of owner."""
        if self.p == 2:
            odd = (coeffs & 1).astype(bool)
            pick, owner = pick[odd], owner[odd]
        if owner.size == 0:
            return self
        starts = np.concatenate(([0], np.flatnonzero(owner[1:] != owner[:-1]) + 1))
        at = owner[starts]
        if self.p == 2:
            self._acc[at] ^= np.bitwise_xor.reduceat(_pack_rows(rows)[pick], starts, axis=0)
        else:
            # the row added to counts as one more residue term of its run
            longest = int(np.diff(starts, append=owner.size).max()) + 1
            wide = np.int32 if _sums_fit_int32(longest, self.p) else np.int64
            terms = rows[pick].astype(wide)
            terms *= coeffs[:, None]
            sums = np.add.reduceat(terms, starts, axis=0, dtype=wide)
            sums += self._acc[at]
            self._acc[at] = sums % self.p
        return self

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """Rows lo..hi - 1 as uint8 residues."""
        if self.p == 2:
            return _unpack_rows(self._acc[lo:hi], self.width)
        return self._acc[lo:hi]


# ---------------------------------------------------------------------------
# row reduction kernels

def _word_pivots(x: np.ndarray):
    """Pivot columns of the rows of the uint64 words x, and for each one the
    index of a row that can serve as its pivot row.  x is overwritten.

    Each step takes the lowest column still set in some word and clears it
    from every other word that has it, with the first such word; a column
    set in no word never becomes set, so only the columns of the initial
    OR are visited."""
    cols, rows = [], []
    present = int(np.bitwise_or.reduce(x))
    while present:
        s = (present & -present).bit_length() - 1
        present &= present - 1
        hit = (x >> s) & 1
        h = int(hit.argmax())
        if hit[h]:
            x ^= hit * x[h]
            cols.append(s)
            rows.append(h)
    return cols, rows


def _reducing_combinations(words: list[int], cols: list[int]) -> list[int]:
    """T with T[j] the k-bit mask of the words whose sum has bit cols[i] set
    for i = j only.  The words, restricted to the k columns, must be
    independent; this is Gauss-Jordan on [words | I] in Python integers."""
    k = len(cols)
    aug = [v | 1 << (_WORD + j) for j, v in enumerate(words)]
    for j, s in enumerate(cols):
        bit = 1 << s
        if not aug[j] & bit:
            i = next(i for i in range(j + 1, k) if aug[i] & bit)
            aug[i], aug[j] = aug[j], aug[i]
        pj = aug[j]
        aug = [v ^ pj if v & bit else v for v in aug]
        aug[j] = pj
    return [v >> _WORD for v in aug]


def _subset_sums(rows: np.ndarray) -> np.ndarray:
    """The XOR sums of all subsets of the uint64 rows, at the index whose
    bit t is set iff the subset holds row t (eight doubling steps for
    eight rows)."""
    out = np.zeros((1 << len(rows),) + rows.shape[1:], dtype=np.uint64)
    for t, row in enumerate(rows):
        out[1 << t:2 << t] = out[:1 << t] ^ row
    return out


def _rref_bits(rows: np.ndarray, ncols: int, pivot_limit: int | None = None):
    """Gauss-Jordan on packed rows, by word panels.  Returns (reduced rows,
    pivot columns); ``rows`` is overwritten.

    Pivots are only searched within the first ``pivot_limit`` columns;
    row operations always apply to the full packed width, so augmented
    blocks ride along untouched by the pivot search.

    A panel is the 64 columns of one word.  Every row not yet chosen as a
    pivot row is zero left of the panel, so the panel's pivots, and k <= 64
    rows to hold them, are found on that one word of those rows.  Reducing
    the k pivot rows among themselves on their pivot columns gives each
    reduced row j as a combination T[j] of the k rows as they were.  A
    row's coefficient for pivot j is its own bit at that pivot's column,
    so every row with such bits needs the combination sum_j bit_j * T[j]
    of the k rows added, and pivot row j needs T[j] plus itself.  Those
    combinations are added from XOR tables of the k rows (all 256 sums of
    each eight of them), one gather per byte of a combination, to every
    word from the panel on: the method of Four Russians, as in M4RI
    (Albrecht-Bard-Hart, ACM TOMS 37, 2010).  Afterwards the rows not
    chosen are zero in the panel, and rows chosen before are zero at its
    pivot columns.

    The pivots and the first rank rows left of ``pivot_limit`` are those
    of column-by-column Gauss-Jordan, since the RREF is unique; the rows
    below the rank are zero left of the limit.  Which row ends where
    below the rank, and so what an augmented block records there, may
    differ from that order of row operations.
    """
    R = rows
    m, nw = R.shape
    limit = ncols if pivot_limit is None else pivot_limit
    pivots: list[int] = []
    order: list[int] = []
    free = np.ones(m, dtype=bool)  # rows not yet chosen as pivot rows
    for w in range((limit + _WORD - 1) // _WORD):
        if len(order) == m:
            break
        word = R[:, w] & np.uint64((1 << min(_WORD, limit - w * _WORD)) - 1)
        cand = np.flatnonzero(free & (word != 0))
        if cand.size == 0:
            continue
        cols, pos = _word_pivots(word[cand])
        src = cand[pos]
        k = len(cols)
        orig = R[src, w:]
        mask = sum(1 << s for s in cols)
        T = np.array(_reducing_combinations(
            (orig[:, 0] & np.uint64(mask)).tolist(), cols), dtype=np.uint64)
        # the combination each row with bits at the pivot columns needs:
        # the sum of T[j] over those bits, from one table per byte of them
        bits = word & np.uint64(mask)
        upd = np.flatnonzero(bits)
        t_at = np.zeros((8, 8), dtype=np.uint64)  # T of the pivot at 8b + t
        t_at.flat[cols] = T
        byte_sums = _subset_sums(t_at.T)  # [x, b]: over the bits x of byte b
        row_bytes = bits[upd].view(np.uint8).reshape(-1, 8)  # byte b: bits 8b..8b+7
        coef = np.zeros(upd.size, dtype=np.uint64)
        for b in range(8):
            if mask >> (8 * b) & 255:
                coef ^= byte_sums[row_bytes[:, b], b]
        coef[np.searchsorted(upd, src)] = T ^ np.left_shift(
            np.uint64(1), np.arange(k, dtype=np.uint64))
        # indexed by one byte of coef: the sums of each eight of the k rows
        tables = [_subset_sums(orig[b:b + 8]) for b in range(0, k, 8)]
        coef_bytes = coef.view(np.uint8).reshape(-1, 8)
        step = max(1, _CHUNK_BYTES // (8 * (nw - w)))
        for lo in range(0, upd.size, step):
            rr = upd[lo:lo + step]
            acc = R[rr, w:]
            for t, tab in enumerate(tables):
                acc ^= tab[coef_bytes[lo:lo + step, t]]
            R[rr, w:] = acc
        free[src] = False
        pivots.extend(w * _WORD + s for s in cols)
        order.extend(src.tolist())
    order.extend(np.flatnonzero(free).tolist())
    return R[order], pivots


def _rref_generic(arr: np.ndarray, p: int, pivot_limit: int | None = None):
    """Gauss-Jordan mod p on an integer array.  Returns (uint8 rref, pivots).

    The pivot columns are taken in panels of _PANEL columns.  A row that
    is zero in a panel's columns is never its pivot and never changed by
    it, so the panel's pivot search, scaling and eliminations act only on
    its active rows, the rows nonzero there, in a narrow int32 block W:
    the panel's columns followed by a tracker T, one column for each
    pivot the panel can hold.  When a row becomes the panel's t-th pivot,
    its T[t] is set to 1, and every later row operation acts on T too.
    Right of the panel, row i should then end as its own entries plus
    T[i] @ src, where src holds the pivot rows as they were when the panel
    began; a pivot row's own entries are already counted through T, so
    they are zeroed first.  That one int32 einsum, over the rows with a
    nonzero T row and the columns where src is nonzero, brings every
    column right of the panel up to date, augmented ones included.

    Swaps only change the order of the rows: ``order[pos]`` is the row of
    R at position pos and ``where`` its inverse, and R is permuted once at
    the end.  The pivot for column c is the active row nonzero at c with
    the smallest position from r on, and it trades positions with the row
    at r, active or not.  Within a panel only the values that are read
    are reduced mod p, column c and the pivot row; every other entry of W
    takes one unreduced rank-one step of size below p^2 per pivot.

    These are the row operations of column-by-column Gauss-Jordan in the
    same order, so the result is the same exactly, rows below the rank
    included; what changes is that the wide columns are reduced once per
    panel instead of once per pivot (the delayed reduction of
    Dumas-Giorgi-Pernet's FFLAS-FFPACK).  The width is a constant because
    the result does not depend on it and it bounds the unreduced sums:
    an entry of W and a sum of the product are a residue plus at most
    _PANEL terms below p^2, below 17 * 251^2 < 2^31 for every prime up
    to MAX_PRIME.
    """
    R = _residues(arr, p).astype(np.int32)
    m, n = R.shape
    limit = n if pivot_limit is None else pivot_limit
    pivots: list[int] = []
    order = np.arange(m, dtype=np.intp)
    where = np.arange(m, dtype=np.intp)
    slot = np.full(m, -1, dtype=np.intp)  # the row of W holding each row of R in a panel
    r = 0
    for c0 in range(0, limit, _PANEL):
        if r == m:
            break
        c1 = min(c0 + _PANEL, limit)
        w = c1 - c0
        act = np.flatnonzero(R[:, c0:c1].any(axis=1))
        if act.size == 0:
            continue
        # column-major: a column, and the block right of it, are contiguous
        W = np.zeros((act.size, 2 * w), dtype=np.int32, order="F")
        W[:, :w] = R[act, c0:c1]
        key = where[act]  # a row's position, or m once it is a pivot row
        key[key < r] = m
        slot[act] = np.arange(act.size, dtype=np.intp)
        src_rows: list[int] = []
        for c in range(w):
            col = W[:, c]
            col %= p
            cand = np.where(col != 0, key, m)
            k = int(cand.argmin())
            if cand[k] == m:
                continue
            pr, i, q = int(cand[k]), int(act[k]), int(order[r])
            order[r], order[pr] = i, q
            where[i], where[q] = r, pr
            if slot[q] >= 0:
                key[slot[q]] = pr
            key[k] = m
            e = w + len(src_rows) + 1  # the tracker's columns end at this pivot's
            W[k, e - 1] = 1
            row = W[k, c:e] % p
            inv = pow(int(row[0]), p - 2, p)
            if inv != 1:
                row = row * inv % p
            # the pivot row is zero left of c, so only columns >= c change
            W[:, c:e] -= col[:, None] * row
            W[k, c:e] = row
            pivots.append(c0 + c)
            src_rows.append(i)
            r += 1
        slot[act] = -1
        W %= p
        R[act, c0:c1] = W[:, :w]
        if src_rows and c1 < n:
            T = W[:, w:w + len(src_rows)]
            src = R[src_rows, c1:]
            R[src_rows, c1:] = 0
            live = np.flatnonzero(T.any(axis=1))
            cols = np.flatnonzero(src.any(axis=0))
            block = np.ix_(act[live], c1 + cols)
            R[block] = (R[block] + np.einsum("ik,kj->ij", T[live], src[:, cols])) % p
    return R.astype(np.uint8)[order], pivots


def _rref_array(arr: np.ndarray, p: int):
    """Dispatch to the packed or generic path.  Returns (rref uint8, pivots)."""
    if p == 2:
        packed, pivots = _rref_bits(_pack_rows(arr), arr.shape[1])
        return _unpack_rows(packed, arr.shape[1]), pivots
    return _rref_generic(arr, p)


def stacked_pivots(blocks, ncols: int, p: int) -> tuple[np.ndarray, list[int]]:
    """(reduced rows, pivot columns) of the RREF of the uint8 row blocks
    stacked in order: its first rank rows, packed at p = 2, copied so that
    the stack is not kept alive.  At p = 2 each block is packed as it
    arrives, so the stack is only held packed."""
    if p == 2:
        R, pivots = _rref_bits(np.vstack([_pack_rows(b) for b in blocks]), ncols)
    else:
        R, pivots = _rref_generic(np.vstack(list(blocks)), p)
    return R[: len(pivots)].copy(), pivots


class QuotientCoords:
    """Coordinates of vectors of F_p^n modulo a subspace W, in the unit
    vectors at the columns ``kept``, which span a complement of W.

    W is given as ``stacked_pivots`` returns a spanning set of it with its
    columns reversed: the reduced rows Q and their pivots.  Read forwards,
    row i of Q is 1 at red[i] = n - 1 - pivots[i], 0 at every other
    red[j], and 0 right of red[i], and the rows span W.  ``kept`` are the
    columns in no red[i].  So c - sum_i c[red[i]] Q[i] is congruent to c
    modulo W and zero at every red[i]: its entries at ``kept`` are the
    coordinates of c modulo W.  Only the block Q[:, kept] is kept, as
    its transpose, packed at p = 2, where the sum is a parity product and
    Q is never unpacked."""

    def __init__(self, rows: np.ndarray, pivots, n: int, p: int):
        self.p = p
        self.red = n - 1 - np.asarray(pivots, dtype=np.intp)
        keep = np.ones(n, dtype=bool)
        keep[self.red] = False
        self.kept = np.flatnonzero(keep)
        cols = n - 1 - self.kept
        if p == 2:
            # bit c of a packed row is bit c % 8 of its byte c // 8
            byte = rows.view(np.uint8)[:, cols // 8]
            bits = (byte >> (cols % 8).astype(np.uint8)) & 1
            self._block_t = _pack_rows(np.ascontiguousarray(bits.T))
        else:
            self._block_t = np.ascontiguousarray(rows[:, cols].T)

    def read(self, C: np.ndarray) -> np.ndarray:
        """Row k: the coordinates of C[k] modulo W, shape (rows, len(kept))."""
        C = np.asarray(C, dtype=np.uint8)
        at_red = C[:, self.red]
        if self.p == 2:
            return C[:, self.kept] ^ _parity_products(self._block_t, _pack_rows(at_red))
        sub = matmul_mod(at_red, self._block_t.T, self.p)
        return ((C[:, self.kept].astype(np.int32) - sub) % self.p).astype(np.uint8)


# ---------------------------------------------------------------------------
# public types

def _residues(arr, p: int) -> np.ndarray:
    """arr reduced mod p, as uint8.  Any other dtype is reduced in int64
    first, since a cast to uint8 would wrap a negative or >= 256 entry."""
    a = np.asarray(arr)
    if a.dtype != np.uint8:
        return (a.astype(np.int64) % p).astype(np.uint8)
    if a.size and int(a.max()) >= p:
        return a % p
    return a


class FpMatrix:
    """Dense matrix over F_p with entries stored as uint8 in [0, p)."""

    __slots__ = ("p", "arr")

    def __init__(self, p: int, arr, check: bool = True):
        a = _residues(arr, p) if check else np.asarray(arr, dtype=np.uint8)
        if a.ndim != 2:
            raise ValueError("FpMatrix needs a 2-d array")
        if check and not _is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
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


def _sums_fit_int32(terms: int, p: int) -> bool:
    """Whether a sum of ``terms`` products of residues mod p fits in int32."""
    return terms * (p - 1) ** 2 < 2**31


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact (a @ b) % p for 2-d arrays of residues mod p, as uint8.

    Each entry is a sum of k = a.shape[1] products below p^2.  While
    k (p - 1)^2 < 2^31 it is taken by an int32 einsum, else by an int64
    matmul; numpy runs neither through BLAS, and the int32 einsum is the
    faster of the two, about three times on a (300 x 16) @ (16 x 900)
    product at p = 3."""
    if _sums_fit_int32(a.shape[1], p):
        out = np.einsum("ik,kj->ij", a.astype(np.int32), b.astype(np.int32)) % p
    else:
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
        arr = _residues(rows, p).reshape(-1, ambient_dim)
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
        v = _residues(vec, self.p).astype(np.int64)
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


def _kernel_rows(R: np.ndarray, rev_pivots, n: int, p: int) -> np.ndarray:
    """Canonical RREF basis of {x : M x = 0}, given the RREF R of M[:, ::-1]
    and its pivots: the free-column rows of R with their columns, and
    their order, reversed.  Each has its leading 1 at a free column of M
    and its other entries only at columns right of it that lead no other
    row, so the rows are already in RREF."""
    return np.ascontiguousarray(_free_column_rows(R, rev_pivots, n, p)[::-1, ::-1])


def kernel_basis(m: FpMatrix) -> FpSubspace:
    """Null space {x : m x = 0} as a canonical RREF subspace of F_p^cols."""
    R, rev_pivots = _rref_array(m.arr[:, ::-1], m.p)
    rows = _kernel_rows(R, rev_pivots, m.cols, m.p)
    return FpSubspace(m.p, m.cols, FpMatrix(m.p, rows, check=False))


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
    """Gauss-Jordan factorization of M supporting many solves of M x = b
    and giving the kernel of M, from one elimination.

    Row-reduces [M' | I] once, where M' = M[:, ::-1] is M with its
    columns reversed.  Each later solve is a single mod-p product of the
    right-hand sides with the recorded row-operation matrix E (for
    p = 2: packed AND + popcount parity): row i of E b is the solution's
    entry at pivots[i].  ``pivots`` are the pivot columns of M' as
    columns of M, so counted from the right.  The canonical RREF basis
    of the kernel of M is read off the RREF of M' (``_kernel_rows``), so
    no second elimination is needed.
    """

    def __init__(self, mat: FpMatrix):
        self.p = mat.p
        self.rows_n = mat.rows
        self.cols_n = mat.cols
        m, n = mat.rows, mat.cols
        if self.p == 2:
            D = _pack_rows(mat.arr[:, ::-1])
            wD = D.shape[1]
            aug = np.zeros((m, wD + (m + _WORD - 1) // _WORD), dtype=np.uint64)
            aug[:, :wD] = D
            diag = np.arange(m)
            aug[diag, wD + diag // _WORD] = np.left_shift(
                np.uint64(1), (diag % _WORD).astype(np.uint64))
            red, pivots = _rref_bits(aug, wD * _WORD + m, pivot_limit=n)
        else:
            wD = n
            aug = np.hstack([mat.arr[:, ::-1], np.eye(m, dtype=np.uint8)])
            red, pivots = _rref_generic(aug, self.p, pivot_limit=n)
        del aug
        self.rank = len(pivots)
        self.pivots = tuple(n - 1 - c for c in pivots)
        self._R = red[: self.rank, :wD].copy()
        self._E = np.ascontiguousarray(red[:, wD:])

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

    def kills_rows(self, B: np.ndarray) -> bool:
        """True iff M b = 0 for every row b of B: the reduced rows span the
        row space of M', so M b = 0 iff they annihilate b reversed."""
        B = np.asarray(B, dtype=np.uint8)[:, ::-1]
        if self.p == 2:
            return not _parity_products(self._R, _pack_rows(B)).any()
        return not matmul_mod(B, self._R.T, self.p).any()

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
        """Canonical RREF basis of {x : M x = 0} as a uint8 array.

        Read afresh on each call, not kept: a resolution reads it once, to
        pick the next degree's generators, and it is as large as M."""
        n = self.cols_n
        R = self._R if self.p != 2 else _unpack_rows(self._R, n)
        return _kernel_rows(R, [n - 1 - c for c in self.pivots], n, self.p)

    def nullity(self) -> int:
        return self.cols_n - self.rank


def free_columns(solver: LinSolver) -> np.ndarray:
    """The columns of M that are not pivots of its factorization: the
    leading columns of the rows of solver.kernel_rows(), in order."""
    free = np.ones(solver.cols_n, dtype=bool)
    free[list(solver.pivots)] = False
    return np.flatnonzero(free)
