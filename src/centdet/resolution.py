"""Minimal free resolutions over modular group algebras and their maps.

Free modules over F_pG are stored in the regular-representation
expansion: an element of (F_pG)^r is a vector of length r*|G| whose
g-th coordinate in block u is the coefficient of the basis element
g.e_u.  The group acts by permuting coordinates inside blocks, so all
heavy lifting lands on the row-reduction kernels.

A minimal resolution carries, per homological degree i, the images of
the free-module generators under the differential d_i.  Minimality
(images inside the radical) makes every functional on F_i a cocycle
and none a coboundary, so Betti numbers are cohomology dimensions and
cocycles are plain coordinate vectors.  Every resolution gives those
images a whole degree at a time, in one sparse form (``gen_terms``).

Cohomology operations (cup products, restriction, inflation, maps
induced by arbitrary homomorphisms, the coaction of a central
elementary abelian subgroup) are computed by lifting module maps
through the resolutions degree by degree, or read off the factors of
a tensor product; any particular solution of the lifting systems gives
the same answer on cohomology.  The generators of a degree are lifted
together: their right-hand sides are assembled for the whole degree
from its sparse form, translating each distinct (group element,
generator) pair of its terms once in slices of bounded size, and solved
in row slices by one product each, against the factorization of the
target differential on the rows that determine it.  At the target's
top degree N a map is read modulo the radical instead of lifted, from
the elimination of rad*K that chose the degree-N generators, so no
factorization of d_N is built just to read H^N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fplinalg import (
    FpMatrix,
    FpSubspace,
    LinSolver,
    QuotientCoords,
    SegmentSums,
    free_columns,
    kernel_basis,
    matmul_mod,
    rref,
    stacked_pivots,
)
from .pgroup import GroupHom, PcPresentation, Subgroup, direct_product, multiplication_hom


class BudgetExceededError(RuntimeError):
    """A differential matrix would exceed the configured column budget."""

    def __init__(self, degree: int, needed: int, budget: int):
        super().__init__(
            f"resolution degree {degree} needs {needed} columns, budget is {budget}"
        )
        self.degree = degree
        self.needed = needed
        self.budget = budget


@dataclass
class Cocycle:
    """Degree-n cohomology class in the dual-generator coordinates."""

    degree: int
    vec: np.ndarray

    def __post_init__(self):
        self.vec = np.asarray(self.vec, dtype=np.uint8)

    def key(self) -> tuple:
        return (self.degree, self.vec.tobytes())

    def is_zero(self) -> bool:
        return not self.vec.any()


class MinimalResolution:
    """Minimal free resolution of the trivial module, built up to degree N."""

    def __init__(self, pres: PcPresentation, budget: int = 20000):
        self.pres = pres
        self.p = pres.p
        self.order = pres.order
        self.budget = budget
        self.betti: list[int] = [1]
        self._gen_images: list[np.ndarray] = [np.zeros((1, 0), dtype=np.uint8)]  # d_0 = 0: no terms
        self._solvers: dict[int, LinSolver] = {}
        self._cup_lifts: dict = {}
        # (P, coordinates modulo rad*K) of the top degree, once it is >= 1
        self._top: tuple[np.ndarray, QuotientCoords] | None = None

    @property
    def top_degree(self) -> int:
        return len(self.betti) - 1

    def rank(self, k: int) -> int:
        return self.betti[k]

    def gen_terms(self, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(indptr, coords, vals): the rows d(e_j) of every generator e_j of
        degree k in compressed sparse rows.  Row j has its nonzero entries
        vals[indptr[j]:indptr[j+1]] (uint8) at the ascending coordinates
        coords[indptr[j]:indptr[j+1]] (int64) of F_{k-1}."""
        rows = self._gen_images[k]
        owner, coords = np.nonzero(rows)
        indptr = np.searchsorted(owner, np.arange(len(rows) + 1))
        return indptr, coords, rows[owner, coords]

    def _gen_rows(self, k: int) -> np.ndarray:
        """The rows d(e_j) of degree k as one dense (b_k, b_{k-1}|G|) block."""
        return self._gen_images[k]

    # -- construction -----------------------------------------------------------

    def extend_to(self, N: int) -> "MinimalResolution":
        """Build through degree N.  Only the new top degree's reduction of
        rad*K is kept, for ``top_classes``; each extension replaces it."""
        while self.top_degree < N:
            i = self.top_degree + 1
            below = self.solver(i - 1)
            kernel_rows = below.kernel_rows()
            radical = self._radical_complement(kernel_rows)
            gens = kernel_rows[radical.kept]
            needed = len(gens) * self.order
            if needed > self.budget:
                raise BudgetExceededError(i, needed, self.budget)
            if self.block_sums(gens, self.betti[i - 1]).any():
                raise AssertionError(f"differential d_{i} is not minimal")
            self._gen_images.append(gens)
            self.betti.append(len(gens))
            self._top = (free_columns(below), radical)
        return self

    def _radical_complement(self, kernel_rows: np.ndarray) -> QuotientCoords:
        """Coordinates modulo rad*K in the basis K, whose ``kept`` rows of K
        are the minimal module generators of the kernel: the
        lexicographically first kernel-basis rows completing rad*K to K.

        K is in RREF with pivot columns P, so a vector of K has the
        coordinates v[P] in the basis K.  Translation by a pc generator g
        permutes columns, so the coordinates of the rows g.k - k are
        K[:, perm_g[P]] - I.  Row j of K is redundant iff some vector of
        rad*K has its last nonzero coordinate at j, i.e. iff j is a pivot
        once the coordinate columns are reversed.

        The rows g.k - k are taken only for the d(G) Burnside generators
        g of the presentation, which generate G.  They span rad*K: rad*K
        is spanned by the (x - 1)k over x in G and k in K, and
        (gh - 1)k = (g - 1)(hk) + (h - 1)k with hk in K, so by induction
        on a word for x in the Burnside generators each (x - 1)k lies in
        the span of the (g - 1)K.  The RREF of a row space is unique, so
        ``kept``, the reduced rows and their pivots are those that the
        rows of all n pc generators give.
        """
        dim = kernel_rows.shape[0]
        if dim == 0:
            return QuotientCoords(np.zeros((0, 0), dtype=np.uint8), [], 0, self.p)
        order = self.order
        P = np.argmax(kernel_rows != 0, axis=1)
        P_block, P_elem = P - P % order, P % order
        diag = np.arange(dim)
        gather = self.pres.left_inv_gather()

        def coords(t: int) -> np.ndarray:
            block = kernel_rows[:, P_block + gather[self.pres.gen_idx(t)][P_elem]]
            d = block[diag, diag].astype(np.int64)  # 2p - 2 overflows uint8 once p > 128
            block[diag, diag] = (d + (self.p - 1)) % self.p
            return block[:, ::-1]

        blocks = (coords(t) for t in self.pres.burnside_generators())
        rows, pivots = stacked_pivots(blocks, dim, self.p)
        return QuotientCoords(rows, pivots, dim, self.p)

    # -- expanded matrices and solvers -------------------------------------------

    def expanded_diff(self, i: int) -> np.ndarray:
        """Full matrix of d_i: F_i -> F_{i-1}, shape (b_{i-1}|G|, b_i|G|).

        Built afresh on each call and not kept.  Only the d o d check of
        ``complex_fault`` reads it: solvers and lifts read d_i on the rows
        that determine it (``solver``)."""
        return self._diff_rows(i, np.arange(self.betti[i - 1] * self.order))

    def _diff_rows(self, i: int, rows: np.ndarray) -> np.ndarray:
        """The given rows of d_i, shape (len(rows), b_i|G|), gathered from
        the generator images one generator's block of columns at a time:
        column (j, g) is g.d(e_j), whose entry at (w, x) is d(e_j)[w, g^-1 x]."""
        b_i, order = self.betti[i], self.order
        if b_i * order > self.budget:
            raise BudgetExceededError(i, b_i * order, self.budget)
        at = rows % order
        idx = (rows - at)[:, None] + self.pres.left_inv_gather()[:, at].T
        gens = self._gen_rows(i)
        D = np.empty((len(rows), b_i * order), dtype=np.uint8)
        for j in range(b_i):
            D[:, j * order:(j + 1) * order] = gens[j][idx]
        return D

    def solver(self, i: int) -> LinSolver:
        """Factorization of d_i on the rows that determine it; solver(0)
        factors the augmentation F_0 -> F_p.

        Those rows are P = free_columns(solver(i - 1)), the leading columns
        of the RREF basis of ker d_{i-1} = im d_i.  A vector of that kernel
        is fixed by its entries at P, so d_i[P, :] has the row space, and so
        the pivots and the kernel, of d_i (``lift_rows`` has the proof).  It
        has full row rank |P| iff the resolution is exact at degree i - 1,
        which is asserted.  The full d_i is never made dense here."""
        s = self._solvers.get(i)
        if s is None:
            if i == 0:
                mat = np.ones((1, self.order), dtype=np.uint8)
            else:
                mat = self._diff_rows(i, free_columns(self.solver(i - 1)))
            s = LinSolver(FpMatrix(self.p, mat, check=False))
            if s.rank != s.rows_n:
                raise AssertionError(f"resolution not exact at degree {i - 1}")
            self._solvers[i] = s
        return s

    def lift_rows(self, t: int, B: np.ndarray) -> np.ndarray | None:
        """Row k solves d_t x = B[k], with x supported on solver(t).pivots;
        None when some B[k] lies outside ker d_{t-1} = im d_t (for t = 1,
        outside the augmentation kernel), tested as ``top_classes`` does.

        The RREF basis K of ker d_{t-1} has leading columns
        P = free_columns(solver(t - 1)), so a vector b of that kernel is
        the sum of b[P] times the rows of K: d_t = K^T d_t[P, :] with K^T
        injective.  Hence d_t x = b iff d_{t-1} b = 0 and d_t[P, :] x = b[P],
        and solver(t), of full row rank |P|, solves the latter for every b."""
        below = self.solver(t - 1)
        if not below.kills_rows(B):
            return None
        return self.solver(t).solve_rows(B[:, free_columns(below)])

    def top_classes(self, B: np.ndarray) -> np.ndarray | None:
        """Row k: the H^N coordinates of every x with d_N x = B[k], N the top
        degree, read modulo the radical with no solver of d_N
        (``ChainMap.functional_matrix`` has the proof); None when some B[k]
        lies outside ker d_{N-1}, checked on solver(N - 1)'s reduced rows."""
        if not self.solver(self.top_degree - 1).kills_rows(B):
            return None
        P, radical = self._top
        return radical.read(B[:, P])

    # -- functionals ---------------------------------------------------------------

    def block_sums(self, rows: np.ndarray, blocks: int) -> np.ndarray:
        # numpy sums uint8 as uint64; every map read off these stays uint8
        sums = rows.reshape(rows.shape[0], blocks, self.order).sum(axis=2)
        return (sums % self.p).astype(np.uint8)

    def complex_fault(self, up_to: int | None = None) -> str | None:
        """The first degree where d_i is not minimal or d_{i-1} o d_i != 0,
        described, or None when every built degree passes both checks."""
        top = self.top_degree if up_to is None else min(up_to, self.top_degree)
        for i in range(1, top + 1):
            gens = self._gen_rows(i)
            if self.block_sums(gens, self.betti[i - 1]).any():
                return f"differential d_{i} is not minimal"
            if i >= 2 and matmul_mod(self.expanded_diff(i - 1), gens.T, self.p).any():
                return f"d_{i - 1} o d_{i} != 0"
        return None

    def verify(self, up_to: int | None = None):
        """Assert minimality, d o d = 0 and exactness at every built degree."""
        fault = self.complex_fault(up_to)
        if fault is not None:
            raise AssertionError(fault)
        top = self.top_degree if up_to is None else min(up_to, self.top_degree)
        for i in range(1, top + 1):
            self.solver(i)  # asserts exactness at degree i - 1


def build_minimal_resolution(
    pres: PcPresentation, N: int, budget: int = 20000
) -> MinimalResolution:
    """Resolve the trivial module to homological degree N."""
    if N < 0:
        raise ValueError("degree bound must be nonnegative")
    return MinimalResolution(pres, budget=budget).extend_to(N)


class TensorResolution(MinimalResolution):
    """Tensor product of two minimal resolutions, over the product group.

    Minimal again since both factors are; generator (i, u, v) of total
    degree k maps to (d e_u) x e_v + (-1)^i e_u x (d e_v).  The pair
    indexing realizes H*(A) (x) H*(B) = H*(A x B) on dual generators.
    The budget is that of a from-scratch build: degree k is refused once
    b_k |G| exceeds it, whether or not a dense matrix of that degree is
    ever materialized.
    """

    def __init__(self, resA: MinimalResolution, resB: MinimalResolution,
                 prod: PcPresentation | None = None, budget: float = 20000):
        super().__init__(prod if prod is not None else direct_product(resA.pres, resB.pres),
                         budget)
        self.resA = resA
        self.resB = resB
        self.orderA = resA.order
        self.orderB = resB.order
        self._terms: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        try:
            self.extend_to(min(resA.top_degree, resB.top_degree))
        except BudgetExceededError:
            pass  # the factors reach past the budget; extend_to refuses when asked

    def extend_to(self, N: int) -> "TensorResolution":
        """Extend both factors to N; the Betti numbers are their convolution."""
        while self.top_degree < N:
            k = self.top_degree + 1
            bA, bB = _betti_through(self.resA, k), _betti_through(self.resB, k)
            needed = sum(bA[i] * bB[k - i] for i in range(k + 1)) * self.order
            if needed > self.budget:
                raise BudgetExceededError(k, needed, self.budget)
            self.resA.extend_to(k)  # refuses only for a factor of a smaller budget
            self.resB.extend_to(k)
            self.betti.append(needed // self.order)
        return self

    def pairs(self, k: int) -> list[tuple[int, int, int]]:
        return [(i, u, v) for i in range(k + 1)
                for u in range(self.resA.betti[i]) for v in range(self.resB.betti[k - i])]

    def pair_pos(self, k: int, triple):
        """Position of (i, u, v) in pairs(k); u and v may be integer arrays."""
        i, u, v = triple
        bA, bB = self.resA.betti, self.resB.betti
        return sum(bA[t] * bB[k - t] for t in range(i)) + u * bB[k - i] + v

    def block(self, k: int, i: int) -> slice:
        """Where H^i(A) (x) H^(k-i)(B) sits in H^k: the (i, ., .) pairs."""
        lo = self.pair_pos(k, (i, 0, 0))
        return slice(lo, lo + self.resA.rank(i) * self.resB.rank(k - i))

    def gen_terms(self, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``MinimalResolution.gen_terms`` of degree k, built once from the
        factors' forms and kept.  A term s.e_u' of d(e_u) gives
        (s, 1).(e_u' x e_v), at the pair (i - 1, u', v) of degree k - 1, and
        a term s.e_v' of d(e_v) gives (1, s).(e_u x e_v') at (i, u, v'):
        the pairs (i - 1, ., .) come first, so each row stays ascending.
        Each block i is filled for all its (u, v) at once."""
        got = self._terms.get(k)
        if got is not None:
            return got
        p, order, oA, oB = self.p, self.order, self.orderA, self.orderB
        forms = [(self.resA.gen_terms(i), self.resB.gen_terms(k - i)) for i in range(k + 1)]
        lens = [np.add.outer(np.diff(A[0]), np.diff(B[0])).ravel() for A, B in forms]
        indptr = np.concatenate(([0], np.cumsum(np.concatenate(lens))))
        coords = np.empty(indptr[-1], dtype=np.int64)
        vals = np.empty(indptr[-1], dtype=np.uint8)
        for i, ((ipA, cA, xA), (ipB, cB, xB)) in enumerate(forms):
            nA, bu, bv = np.diff(ipA), len(ipA) - 1, len(ipB) - 1
            start = indptr[self.block(k, i)].reshape(bu, bv)
            u = np.repeat(np.arange(bu), nA)
            dst = start[u] + (np.arange(cA.size) - ipA[u])[:, None]
            pos = self.pair_pos(k - 1, (i - 1, cA // oA, 0))
            coords[dst] = (pos * order + cA % oA * oB)[:, None] + np.arange(bv) * order
            vals[dst] = xA[:, None]
            v = np.repeat(np.arange(bv), np.diff(ipB))
            dst = start[:, v] + nA[:, None] + (np.arange(cB.size) - ipB[v])
            pos = self.pair_pos(k - 1, (i, np.arange(bu), 0))
            coords[dst] = (pos * order)[:, None] + (cB // oB * order + cB % oB)
            vals[dst] = xB.astype(np.int64) * (1 if i % 2 == 0 else p - 1) % p
        got = self._terms[k] = (indptr, coords, vals)
        return got

    def _gen_rows(self, k: int) -> np.ndarray:
        indptr, coords, vals = self.gen_terms(k)
        rows = np.zeros((self.betti[k], self.betti[k - 1] * self.order), dtype=np.uint8)
        rows[np.repeat(np.arange(self.betti[k]), np.diff(indptr)), coords] = vals
        return rows


def _betti_through(res: MinimalResolution, k: int) -> list[int]:
    """b_0..b_k of res, with b_k read off the refusal when it is over budget."""
    try:
        return res.extend_to(k).betti[: k + 1]
    except BudgetExceededError as exc:
        return res.betti[:k] + [exc.needed // res.order]


# ---------------------------------------------------------------------------
# chain maps

# bound, in bytes, on what one degree of a lift holds at a time besides its
# right-hand sides and its solutions: the translated rows of one slice of
# the degree's (g, w) pairs with the products of their terms, the folded
# terms of one block of source generators, and the temporaries of one row
# slice of the solve
_LIFT_CHUNK_BYTES = 2 << 20


def _slices(cost: np.ndarray):
    """(lo, hi) bounds of consecutive runs of items, each starting in its own
    _LIFT_CHUNK_BYTES window of the running cost: a run costs at most that
    much plus its last item."""
    ends = np.cumsum(cost)
    if ends.size == 0 or ends[-1] <= _LIFT_CHUNK_BYTES:
        return [(0, ends.size)] if ends.size else []
    at = (ends - cost) // max(1, _LIFT_CHUNK_BYTES)
    return _runs(at)


def _runs(keys: np.ndarray):
    """(lo, hi) bounds of the runs of equal entries of keys."""
    cuts = (np.flatnonzero(keys[1:] != keys[:-1]) + 1).tolist()
    return zip([0] + cuts, cuts + [len(keys)])


def _translate(prev_blocks: np.ndarray, g: np.ndarray, w: np.ndarray,
               gather: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[k] = g[k].prev[w[k]], with prev_blocks[w] the row prev[w] cut into
    the target's blocks of |G| coordinates; g must be nondecreasing, and
    each run of one g is one np.take.  Every translation of a lift is made
    here."""
    for a, b in _runs(g):
        np.take(prev_blocks[w[a:b]], gather[g[a]], axis=2, out=out[a:b])
    return out


class ChainMap:
    """Degreewise lift of an augmentation-compatible map between resolutions.

    Realizes the map of complexes covering either a group homomorphism
    (shift 0, base = image of the identity) or a cocycle (shift n, base
    given by the cocycle's coefficients).  ``maps[t]`` is lifted only when
    ``extend_to`` asks for it, or a read needs it below the target's top
    degree; ``functional_matrix`` reads that top degree modulo the
    radical, with no lift.
    """

    def __init__(self, src_res, tgt_res, phi_table: np.ndarray, shift: int,
                 base_rows: np.ndarray):
        self.src = src_res
        self.tgt = tgt_res
        self.phi = phi_table
        self.shift = shift
        self.maps: list[np.ndarray] = [base_rows]

    def extend_to(self, t_max: int):
        """Lift through degree t_max.  Degree t solves d_t x = b for the
        images b of the source generators under the degree t - 1 map, all
        of one degree assembled together and then solved in row slices by
        ``tgt.lift_rows``; an image outside ker d_{t-1} is a hard error, as
        no chain map would then exist."""
        while len(self.maps) <= t_max:
            t = len(self.maps)
            self.maps.append(self._solve_degree(
                t, lambda B, t=t: self.tgt.lift_rows(t, B), self.tgt.order))
        return self

    def _solve_degree(self, t: int, solve, per_gen: int) -> np.ndarray:
        """Row j is solve(B) at the image b of d(e_j) under maps[t - 1], over
        the source generators e_j of degree shift + t; a solution has
        per_gen columns per target generator, and solve returns None when
        some b lies outside ker d_{t-1}.  The images of the whole degree
        are assembled first (``_images``) and solved in slices of rows, so
        each solve's temporaries stay near _LIFT_CHUNK_BYTES."""
        src_deg = self.shift + t
        if src_deg > self.src.top_degree or t > self.tgt.top_degree:
            raise IndexError("lift exceeds built resolution range")
        prev = self.maps[t - 1]
        images = self._images(src_deg, prev)
        n = self.src.rank(src_deg)
        rows = np.empty((n, self.tgt.rank(t) * per_gen), dtype=np.uint8)
        for lo, hi in _slices(np.full(n, 8 * prev.shape[1], dtype=np.int64)):
            x = solve(images.rows(lo, hi))
            if x is None:
                raise AssertionError("chain-map lift system inconsistent")
            rows[lo:hi] = x
        return rows

    def _images(self, src_deg: int, prev: np.ndarray) -> SegmentSums:
        """Row j is the image of d(e_j) under the previous degree's map, over
        the source generators e_j of degree src_deg.

        prev[w] is the image of source generator w, so a term v.s.e_w maps
        to v.phi(s).prev[w].  The degree's terms are sorted by their pair
        (phi(s), w), and each distinct pair is translated once
        (``_translate``), in slices of consecutive pairs whose translated
        rows and term products fill about _LIFT_CHUNK_BYTES; a slice's
        terms are added into the rows of their generators before the next
        slice is translated."""
        p, order = self.tgt.p, self.tgt.order
        n, n_prev, width = self.src.rank(src_deg), len(prev), prev.shape[1]
        sums = SegmentSums(n, width, p)
        terms = self._sorted_terms(src_deg, n_prev)
        if terms.size == 0:
            return sums
        pair = terms // (n * p)
        firsts = np.flatnonzero(pair[1:] != pair[:-1]) + 1
        g, w = np.divmod(np.concatenate(([pair[0]], pair[firsts])), n_prev)
        del pair
        bounds = np.concatenate(([0], firsts, [terms.size]))
        counts = np.diff(bounds)
        # a translated row and its packed copy, and the gathered rows and
        # sums of a term: packed words at p = 2, int32 products at odd p
        pair_bytes, term_bytes = (2 * width, width // 4 + 16) if p == 2 else (width, 8 * width)
        prev_blocks = prev.reshape(n_prev, width // order, order)
        gather = self.tgt.pres.left_inv_gather()
        for a, b in _slices(pair_bytes + counts * term_bytes):
            moved = _translate(prev_blocks, g[a:b], w[a:b], gather,
                               np.empty((b - a,) + prev_blocks.shape[1:], dtype=np.uint8))
            rest, coeffs = np.divmod(terms[bounds[a]:bounds[b]], p)
            # a stable sort of 8- or 16-bit keys is a radix sort
            owner = (rest % n).astype(np.min_scalar_type(n))
            by_owner = np.argsort(owner, kind="stable")
            pick = np.repeat(np.arange(b - a), counts[a:b])
            sums.add(moved.reshape(b - a, width), pick[by_owner],
                     coeffs[by_owner].astype(np.uint8), owner[by_owner])
        return sums

    def _sorted_terms(self, src_deg: int, n_prev: int) -> np.ndarray:
        """The terms v.s.e_w of the images d(e_j) of the source generators of
        degree src_deg, as the sorted integers ((phi(s) n_prev + w) n + j) p + v:
        grouped by their pair (phi(s), w), and by j within a pair.  They
        are folded straight from the degree's sparse rows (``gen_terms``),
        in blocks of generators of about 32 bytes of temporaries a term."""
        n, p, so = self.src.rank(src_deg), self.tgt.p, self.src.order
        if self.tgt.order * n_prev * n * p >= 2**63:
            raise OverflowError("lift terms do not fit in int64")
        indptr, coords, vals = self.src.gen_terms(src_deg)
        sizes = np.diff(indptr)
        terms = np.empty(coords.size, dtype=np.int64)
        for a, b in _slices(32 * sizes):
            lo, hi = indptr[a], indptr[b]
            c = coords[lo:hi]
            key = self.phi[c % so].astype(np.int64) * n_prev + c // so
            key *= n
            key += np.repeat(np.arange(a, b), sizes[a:b])
            key *= p
            key += vals[lo:hi]
            terms[lo:hi] = key
        terms.sort()
        return terms

    def functional_matrix(self, t: int) -> np.ndarray:
        """Matrix of f -> f o (this map) in degree t: shape (src rank, tgt rank).

        Entry (j, u) is the augmentation of the block u of the lift x of
        e_j, i.e. the coordinate at e_u of x modulo rad F_t (for a p-group
        the radical of F_pG is its augmentation ideal).  So maps[t] is
        lifted only when it is already there or a later degree needs it:
        at the top degree t >= 1 of a target built by elimination (not a
        TensorResolution) the matrix is read modulo the radical instead
        (``MinimalResolution.top_classes``), with no solver of d_t.
        Proof: K = ker d_{t-1} has the RREF basis whose
        ``kept`` rows k_u = d(e_u) complete rad*K to K, and d_t maps F_t
        onto K and rad F_t onto rad*K, so it induces an isomorphism
        F_t / rad F_t -> K / rad*K, e_u -> k_u.  Let b = maps[t-1](d e_j),
        in K, with coordinates c = b[P] in the basis K.  The reduced rows
        Q of the elimination of rad*K span it in those coordinates and
        clear its redundant coordinates, so c' = c - sum_i c[red_i] Q_i
        is congruent to c modulo rad*K and lies on the kept rows:
        b = d(sum_u c'[u] e_u) modulo rad*K, and by the isomorphism every
        x with d x = b is sum_u c'[u] e_u modulo rad F_t.  Its
        coordinates are c'[kept], which is the matrix any lift gives.
        The images b are still checked against ker d_{t-1}: one outside
        it is the same hard error as in a lift."""
        if t < 0:
            raise IndexError(f"negative degree {t}")
        if t >= len(self.maps) and t == self.tgt.top_degree and self.tgt._top is not None:
            self.extend_to(t - 1)
            return self._solve_degree(t, self.tgt.top_classes, 1)
        self.extend_to(t)
        rows = self.maps[t]
        return self.tgt.block_sums(rows, self.tgt.rank(t))


# ---------------------------------------------------------------------------
# cup products

def _cocycle_chain(res, g: Cocycle) -> ChainMap:
    base = np.zeros((res.rank(g.degree), res.order), dtype=np.uint8)
    base[:, 0] = g.vec  # g_j times the identity basis vector of F_0
    phi = np.arange(res.order, dtype=np.int32)
    return ChainMap(res, res, phi, g.degree, base)


def _cocycle_lift(res, g: Cocycle) -> ChainMap:
    """The kept chain map of g, lifted as far as its reads needed so far."""
    key = g.key()
    cm = res._cup_lifts.get(key)
    if cm is None:
        cm = _cocycle_chain(res, g)
        res._cup_lifts[key] = cm
    return cm


def cup_product(res, f: Cocycle, g: Cocycle) -> Cocycle:
    """The product f.g in H*(G): f's column under multiplication by g."""
    m, n = f.degree, g.degree
    if m + n > res.top_degree:
        raise IndexError("product degree exceeds resolution bound")
    M = multiplication_matrix(res, g, m)
    return Cocycle(m + n, matmul_mod(M, f.vec[:, None], res.p)[:, 0])


def multiplication_matrix(res, g: Cocycle, m: int) -> np.ndarray:
    """Matrix of (cup with g): H^m -> H^{m+|g|}, columns over the H^m basis.

    A class of degree 0 is a scalar.  On a TensorResolution of A x B the
    matrix is read off the factors, with no lift over the product; any
    other resolution lifts g to a chain map.  The block of g in
    H^i0(A) (x) H^(n-i0)(B), n = |g|, is a b_i0(A) x b_(n-i0)(B) matrix;
    with R its RREF rows and L = block[:, pivots of R] it is L R, so
    g = sum of the cross products a_r x b_r over the columns a_r of L
    and the rows b_r of R.  Multiplication by a x b maps H^i(A) (x) H^j(B)
    to H^(i+|a|)(A) (x) H^(j+|b|)(B) by (-1)^(|a| j) kron(M_A(a, i),
    M_B(b, j)), and multiplication is linear in g, so these blocks add.
    Proof of the block: the cup product lifts g to a chain map G_g with
    d G_g = G_g d, so x.g = x o G_g.  If G_a, G_b lift a and b, then
    T(x (x) y) = (-1)^(|a||y|) G_a x (x) G_b y commutes with the tensor
    differential d(x (x) y) = dx (x) y + (-1)^|x| x (x) dy, and it is
    (-1)^(|a||b|) a x b in degree |a| + |b|, so G_(a x b) is
    (-1)^(|a||b|) T.  Hence (x' x y').(a x b) = (-1)^(|a||y'|)
    (x'.a) x (y'.b) on dual generators, which is the block above."""
    g = Cocycle(g.degree, g.vec % res.p)  # every lift, key and block reads residues
    if g.degree == 0:
        return np.eye(res.rank(m), dtype=np.uint8) * g.vec[0]
    if not isinstance(res, TensorResolution):
        return _cocycle_lift(res, g).functional_matrix(m)
    n, resA, resB = g.degree, res.resA, res.resB
    M = np.zeros((res.rank(m + n), res.rank(m)), dtype=np.int64)
    for i0 in range(n + 1):
        block = g.vec[res.block(n, i0)].reshape(resA.rank(i0), -1)
        R, pivots, rank = rref(FpMatrix(res.p, block, check=False))
        for a, b in zip(block[:, list(pivots)].T, R.arr[:rank]):
            a, b = Cocycle(i0, a), Cocycle(n - i0, b)
            for i in range(m + 1):
                kron = np.kron(multiplication_matrix(resA, a, i).astype(np.int64),
                               multiplication_matrix(resB, b, m - i).astype(np.int64))
                M[res.block(m + n, i + i0), res.block(m, i)] += -kron if i0 * (m - i) % 2 else kron
    return (M % res.p).astype(np.uint8)


def product_span(res, k: int, factors: list[Cocycle],
                 below: list[FpSubspace] | None = None) -> FpSubspace:
    """Span in H^k of the products g.x over the classes g in factors and
    the x in below[k - |g|], or in all of H^(k - |g|) when below is None.
    A factor whose below[k - |g|] is zero spans nothing and is not lifted."""
    rows = []
    for g in factors:
        if g.degree > k:
            continue
        if below is None:
            M = multiplication_matrix(res, g, k - g.degree)
            rows.extend(M.T)  # column u is (basis_u of H^(k - |g|)) * g
            continue
        B = below[k - g.degree].basis.arr
        if B.shape[0]:
            M = multiplication_matrix(res, g, k - g.degree)
            rows.extend(matmul_mod(M, B.T, res.p).T)
    if rows:
        return FpSubspace.from_spanning(res.p, res.rank(k), np.array(rows))
    return FpSubspace.zero(res.p, res.rank(k))


# ---------------------------------------------------------------------------
# induced maps on cohomology

class InducedMap:
    """phi*: H^k(T) -> H^k(S) for a homomorphism phi: S -> T.

    Covers restriction (phi an inclusion), inflation (phi a quotient
    map), conjugation isomorphisms, and the coaction (phi the central
    multiplication map), all through the same lifting machinery.
    """

    def __init__(self, hom: GroupHom, res_src, res_tgt):
        # hash equality suffices: equal relations give identical collection tables
        if (hom.src.hash_key() != res_src.pres.hash_key()
                or hom.tgt.hash_key() != res_tgt.pres.hash_key()):
            raise ValueError("resolutions do not match the homomorphism")
        self.hom = hom
        self.res_src = res_src
        self.res_tgt = res_tgt
        base = np.zeros((1, res_tgt.order), dtype=np.uint8)
        base[0, int(hom.apply(0))] = 1  # identity maps to identity
        self._chain = ChainMap(res_src, res_tgt, hom.table(), 0, base)
        self._matrices: dict[int, np.ndarray] = {}

    def matrix(self, k: int) -> np.ndarray:
        """Shape (rank_k of source, rank_k of target): coeffs of phi*(f) = M f."""
        got = self._matrices.get(k)
        if got is None:
            got = self._chain.functional_matrix(k)
            self._matrices[k] = got
        return got

    def apply(self, f: Cocycle) -> Cocycle:
        M = self.matrix(f.degree)
        return Cocycle(f.degree, matmul_mod(M, f.vec[:, None], self.res_src.p)[:, 0])


class TensorInducedMap:
    """(phi_A x phi_B)*: H^k(T_A x T_B) -> H^k(S_A x S_B), read off the
    factor maps phi_A*, phi_B* with no lift over the product.

    ``res`` is the TensorResolution of T_A x T_B, and ``matA``, ``matB``
    are per-degree matrix functions k -> phi*^k, such as a map's
    ``matrix`` (None: the identity).  In degree k the matrix is
    block-diagonal over i, with the block
    kron(phi_A*^i, phi_B*^(k-i)) on H^i (x) H^(k-i), so its rows are the
    pair coordinates of TensorResolution(res S_A, res S_B), the resolution
    a Workspace serves for the presentation of a product subgroup
    (``pgroup.subgroup_presentation``).  Proof: if
    f_A, f_B lift phi_A, phi_B, then f_A (x) f_B is a chain map of degree
    0 covering phi_A x phi_B, with no Koszul sign, and its functional
    matrix on e_u (x) e_v is the product of the factors' entries."""

    def __init__(self, res: "TensorResolution", matA, matB):
        self.res = res
        self.mats = [mat or (lambda k, r=r: np.eye(r.rank(k), dtype=np.uint8))
                     for mat, r in ((matA, res.resA), (matB, res.resB))]
        self._matrices: dict[int, np.ndarray] = {}

    def matrix(self, k: int) -> np.ndarray:
        """Shape (rank_k of S_A x S_B, rank_k of T_A x T_B), like InducedMap."""
        got = self._matrices.get(k)
        if got is None:
            matA, matB = self.mats
            blocks = [np.kron(matA(i).astype(np.int64), matB(k - i)) % self.res.p
                      for i in range(k + 1)]
            got = np.zeros((sum(b.shape[0] for b in blocks), self.res.rank(k)), dtype=np.uint8)
            r = 0
            for i, block in enumerate(blocks):
                got[r:r + block.shape[0], self.res.block(k, i)] = block
                r += block.shape[0]
            self._matrices[k] = got
        return got

    def apply(self, f: Cocycle) -> Cocycle:
        M = self.matrix(f.degree)
        return Cocycle(f.degree, matmul_mod(M, f.vec[:, None], self.res.p)[:, 0])


# ---------------------------------------------------------------------------
# comodule structure over a central elementary abelian subgroup

class ComoduleMap:
    """The coaction H*(G) -> H*(C) (x) H*(G) of a central elementary abelian C.

    Computed as the map induced by (c, g) -> cg into the tensor
    resolution of C x G, whose dual generators realize the Kunneth
    identification; the tensor coordinates of the image are indexed by
    the (i, u, v) pairs of the tensor resolution.
    """

    def __init__(self, res_G: MinimalResolution, C: Subgroup,
                 res_C: MinimalResolution):
        self.res_G = res_G
        self.res_C = res_C
        prod, presC, _, mhom = multiplication_hom(res_G.pres, C)
        if presC.hash_key() != res_C.pres.hash_key():
            raise ValueError("res_C must resolve the subgroup presentation of C")
        # the coaction's source is never densified, so no budget applies
        self.kun = TensorResolution(res_C, res_G, prod, budget=math.inf)
        self._induced = InducedMap(mhom, self.kun, res_G)
        self._prim: dict[int, FpSubspace] = {}

    def matrix(self, k: int) -> np.ndarray:
        """Coaction in Kunneth coordinates: (rank_k of C x G, b_k of G)."""
        return self._induced.matrix(k)

    def pi_star_matrix(self, k: int) -> np.ndarray:
        """Matrix of x -> 1 (x) x in the same coordinates."""
        M = np.zeros((self.kun.rank(k), self.res_G.rank(k)), dtype=np.uint8)
        M[self.kun.block(k, 0)] = np.eye(self.res_G.rank(k), dtype=np.uint8)
        return M

    def primitive_basis(self, k: int) -> FpSubspace:
        """Kernel of (coaction - trivial coaction) in degree k."""
        got = self._prim.get(k)
        if got is None:
            diff = (self.matrix(k).astype(np.int64)
                    - self.pi_star_matrix(k).astype(np.int64)) % self.res_G.p
            got = kernel_basis(FpMatrix(self.res_G.p, diff.astype(np.uint8), check=False))
            self._prim[k] = got
        return got


# ---------------------------------------------------------------------------
# ring fragment

class CohomologyFragment:
    """Graded ring data for H*(G) up to the resolution bound."""

    def __init__(self, res):
        self.res = res
        self.p = res.p
        self._decomp: dict[int, FpSubspace] = {}

    def basis(self, k: int) -> list[Cocycle]:
        return [Cocycle(k, row) for row in np.eye(self.res.rank(k), dtype=np.uint8)]

    def _generators(self, i: int) -> list[Cocycle]:
        """Ring generators chosen in degree i: the unit classes of H^i at
        the non-pivot columns of the RREF basis of D_i, which span a
        complement of the decomposables D_i."""
        pivots = {int(np.argmax(row != 0)) for row in self.decomposable_subspace(i).basis.arr}
        return [g for u, g in enumerate(self.basis(i)) if u not in pivots]

    def decomposable_subspace(self, k: int) -> FpSubspace:
        """Span D_k of all products of positive-degree classes in degree k.

        D_k = sum of g.H^(k - |g|) over the chosen generators g with
        |g| <= k/2, so only those are lifted.  Proof: graded
        commutativity orders any product x.y in degree k so that
        1 <= |y| <= k/2, and the sign changes no span.  The generators of
        each degree span a complement of its decomposables, so y is a
        polynomial in generators of degree <= |y|: y = sum g.z_g, and
        x.y = sum +-g.(x.z_g) lies in g.H^(k - |g|)."""
        got = self._decomp.get(k)
        if got is None:
            factors = [g for i in range(1, k // 2 + 1) for g in self._generators(i)]
            got = product_span(self.res, k, factors)
            self._decomp[k] = got
        return got

    def generator_counts(self, up_to: int) -> list[int]:
        """Number of ring generators in each degree 0..up_to."""
        out = [0]
        for k in range(1, up_to + 1):
            out.append(self.res.rank(k) - self.decomposable_subspace(k).dim)
        return out
