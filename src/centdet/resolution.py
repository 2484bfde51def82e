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
cocycles are plain coordinate vectors.

Cohomology operations (cup products, restriction, inflation, maps
induced by arbitrary homomorphisms, the coaction of a central
elementary abelian subgroup) are all computed by lifting module maps
through the resolutions degree by degree; any particular solution of
the lifting systems gives the same answer on cohomology.  The
generators of a degree are lifted together: their right-hand sides are
assembled in chunks of bounded size and solved against the one
factorization of the target differential.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fplinalg import (
    FpMatrix,
    FpSubspace,
    LinSolver,
    kernel_basis,
    matmul_mod,
    segment_sums,
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
        self._gen_images: list[np.ndarray | None] = [None]
        self._expanded: dict[int, np.ndarray] = {}
        self._solvers: dict[int, LinSolver] = {}
        self._cup_lifts: dict = {}

    @property
    def top_degree(self) -> int:
        return len(self.betti) - 1

    def rank(self, k: int) -> int:
        return self.betti[k]

    def gen_image_row(self, k: int, j: int) -> np.ndarray:
        return self._gen_images[k][j]

    def gen_image_sparse(self, k: int, j: int):
        row = self._gen_images[k][j]
        coords = np.flatnonzero(row)
        return coords, row[coords]

    # -- construction -----------------------------------------------------------

    def extend_to(self, N: int) -> "MinimalResolution":
        while self.top_degree < N:
            i = self.top_degree + 1
            kernel = self._kernel_below(i)
            gens = self._radical_complement(kernel)
            needed = len(gens) * self.order
            if needed > self.budget:
                raise BudgetExceededError(i, needed, self.budget)
            if self.block_sums(gens, self.betti[i - 1]).any():
                raise AssertionError(f"differential d_{i} is not minimal")
            self._gen_images.append(gens)
            self.betti.append(len(gens))
        return self

    def _kernel_below(self, i: int) -> np.ndarray:
        if i == 1:
            ones = FpMatrix(self.p, np.ones((1, self.order), dtype=np.uint8))
            return kernel_basis(ones).basis.arr
        return self.solver(i - 1).kernel_rows()

    def _radical_complement(self, kernel_rows: np.ndarray) -> np.ndarray:
        """Minimal module generators of the kernel: the lexicographically
        first kernel-basis rows completing rad*K to K.

        K is in RREF with pivot columns P, so a vector of K has the
        coordinates v[P] in the basis K.  Translation by a pc generator g
        permutes columns, so the coordinates of the rows g.k - k, which
        span rad*K, are K[:, perm_g[P]] - I.  Row j of K is redundant iff
        some vector of rad*K has its last nonzero coordinate at j, i.e. iff
        j is a pivot once the coordinate columns are reversed.
        """
        dim = kernel_rows.shape[0]
        if dim == 0:
            return kernel_rows
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

        pivots = stacked_pivots((coords(t) for t in range(self.pres.n)), dim, self.p)
        keep = np.ones(dim, dtype=bool)
        keep[dim - 1 - np.asarray(pivots, dtype=np.intp)] = False
        return kernel_rows[keep]

    # -- expanded matrices and solvers -------------------------------------------

    def expanded_diff(self, i: int) -> np.ndarray:
        """Full matrix of d_i: F_i -> F_{i-1}, shape (b_{i-1}|G|, b_i|G|)."""
        cached = self._expanded.get(i)
        if cached is not None:
            return cached
        b_i, b_prev = self.betti[i], self.betti[i - 1]
        order = self.order
        if b_i * order > self.budget:
            raise BudgetExceededError(i, b_i * order, self.budget)
        gather = self.pres.left_inv_gather()
        D = np.zeros((b_prev * order, b_i * order), dtype=np.uint8)
        for j in range(b_i):
            V = self.gen_image_row(i, j).reshape(b_prev, order)
            arr = V[:, gather]  # (b_prev, order_g, order_x)
            D[:, j * order:(j + 1) * order] = (
                arr.transpose(1, 0, 2).reshape(order, b_prev * order).T
            )
        self._expanded[i] = D
        return D

    def solver(self, i: int) -> LinSolver:
        s = self._solvers.get(i)
        if s is None:
            s = LinSolver(FpMatrix(self.p, self.expanded_diff(i), check=False))
            self._solvers[i] = s
        return s

    # -- functionals ---------------------------------------------------------------

    def block_sums(self, rows: np.ndarray, blocks: int) -> np.ndarray:
        return rows.reshape(rows.shape[0], blocks, self.order).sum(axis=2) % self.p

    def complex_fault(self, up_to: int | None = None) -> str | None:
        """The first degree where d_i is not minimal or d_{i-1} o d_i != 0,
        described, or None when every built degree passes both checks."""
        top = self.top_degree if up_to is None else min(up_to, self.top_degree)
        for i in range(1, top + 1):
            gens = np.zeros((self.betti[i], self.betti[i - 1] * self.order), dtype=np.uint8)
            for j in range(self.betti[i]):
                gens[j] = self.gen_image_row(i, j)
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
        # exactness of ranks: dim ker d_i = rank d_{i+1} for built degrees
        for i in range(1, top):
            if self.solver(i).nullity() != self.solver(i + 1).rank:
                raise AssertionError(f"resolution not exact at degree {i}")

    def hilbert_fragment(self) -> tuple[int, ...]:
        return tuple(self.betti)


def build_minimal_resolution(
    pres: PcPresentation, N: int, budget: int = 20000
) -> MinimalResolution:
    """Resolve the trivial module to homological degree N."""
    if N < 0:
        raise ValueError("degree bound must be nonnegative")
    return MinimalResolution(pres, budget=budget).extend_to(N)


def betti(res, i: int) -> int:
    if i > res.top_degree:
        raise IndexError(f"degree {i} beyond computed bound {res.top_degree}")
    return res.betti[i]


class TensorResolution(MinimalResolution):
    """Tensor product of two minimal resolutions, over the product group.

    Minimal again since both factors are; generator (i, u, v) of total
    degree k maps to (d e_u) x e_v + (-1)^i e_u x (d e_v).  Rows are
    kept sparse; dense matrices are materialized only within budget.
    """

    def __init__(self, resA: MinimalResolution, resB: MinimalResolution,
                 prod: PcPresentation | None = None, budget: int = 20000):
        super().__init__(prod if prod is not None else direct_product(resA.pres, resB.pres),
                         budget)
        self.resA = resA
        self.resB = resB
        self.orderA = resA.order
        self.orderB = resB.order
        self._pairs: dict[int, list[tuple[int, int, int]]] = {}
        self._sparse: dict = {}
        self.extend_to(min(resA.top_degree, resB.top_degree))

    def extend_to(self, N: int) -> "TensorResolution":
        """Extend both factors to N; the Betti numbers are their convolution."""
        if N > self.top_degree:
            self.resA.extend_to(N)
            self.resB.extend_to(N)
            self.betti = [
                sum(self.resA.betti[i] * self.resB.betti[k - i] for i in range(k + 1))
                for k in range(N + 1)
            ]
        return self

    def pairs(self, k: int) -> list[tuple[int, int, int]]:
        got = self._pairs.get(k)
        if got is None:
            got = [
                (i, u, v)
                for i in range(k + 1)
                for u in range(self.resA.betti[i])
                for v in range(self.resB.betti[k - i])
            ]
            self._pairs[k] = got
        return got

    def pair_pos(self, k: int, triple):
        """Position of (i, u, v) in pairs(k); u and v may be integer arrays."""
        i, u, v = triple
        bA, bB = self.resA.betti, self.resB.betti
        return sum(bA[t] * bB[k - t] for t in range(i)) + u * bB[k - i] + v

    def gen_image_sparse(self, k: int, j: int):
        key = (k, j)
        got = self._sparse.get(key)
        if got is not None:
            return got
        i, u, v = self.pairs(k)[j]
        jj = k - i
        coords: list[np.ndarray] = []
        vals: list[np.ndarray] = []
        if i >= 1:
            alpha = self.resA.gen_image_row(i, u)
            nz = np.flatnonzero(alpha)
            u_prime, a = nz // self.orderA, nz % self.orderA
            pos = self.pair_pos(k - 1, (i - 1, u_prime, v))
            coords.append(pos * self.order + a * self.orderB)
            vals.append(alpha[nz])
        if jj >= 1:
            beta = self.resB.gen_image_row(jj, v)
            nz = np.flatnonzero(beta)
            v_prime, b = nz // self.orderB, nz % self.orderB
            pos = self.pair_pos(k - 1, (i, u, v_prime))
            sign = 1 if (i % 2 == 0 or self.p == 2) else self.p - 1
            coords.append(pos * self.order + b)
            vals.append((beta[nz].astype(np.int64) * sign % self.p).astype(np.uint8))
        if coords:
            got = (np.concatenate(coords), np.concatenate(vals))
        else:
            got = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.uint8))
        self._sparse[key] = got
        return got

    def gen_image_row(self, k: int, j: int) -> np.ndarray:
        row = np.zeros(self.betti[k - 1] * self.order, dtype=np.uint8)
        coords, vals = self.gen_image_sparse(k, j)
        row[coords] = vals
        return row


def kunneth(resA: MinimalResolution, resB: MinimalResolution,
            prod: PcPresentation | None = None, budget: int = 20000) -> TensorResolution:
    """Tensor resolution of the product group, with the pair indexing
    realizing H*(A) (x) H*(B) = H*(A x B) on dual generators."""
    return TensorResolution(resA, resB, prod, budget)


# ---------------------------------------------------------------------------
# chain maps

# bound on the temporaries of one chunk of right-hand sides, in bytes
_LIFT_CHUNK_BYTES = 2 << 20


class ChainMap:
    """Degreewise lift of an augmentation-compatible map between resolutions.

    Realizes the map of complexes covering either a group homomorphism
    (shift 0, base = image of the identity) or a cocycle (shift n, base
    given by the cocycle's coefficients).
    """

    def __init__(self, src_res, tgt_res, phi_table: np.ndarray, shift: int,
                 base_rows: np.ndarray, _second: bool = False):
        self.src = src_res
        self.tgt = tgt_res
        self.phi = phi_table
        self.shift = shift
        self.maps: list[np.ndarray] = [base_rows]
        # add the first kernel row to every solution, so a test can check that
        # the answer on cohomology does not depend on the particular solutions
        self._second = _second

    def extend_to(self, t_max: int):
        p = self.tgt.p
        while len(self.maps) <= t_max:
            t = len(self.maps)
            src_deg = self.shift + t
            if src_deg > self.src.top_degree or t > self.tgt.top_degree:
                raise IndexError("lift exceeds built resolution range")
            solver = self.tgt.solver(t)
            rows = np.empty((self.src.rank(src_deg), solver.cols_n), dtype=np.uint8)
            for lo, hi, images in self._image_chunks(src_deg, self.maps[t - 1]):
                x = solver.solve_rows(images)
                if x is None:
                    raise AssertionError("chain-map lift system inconsistent")
                rows[lo:hi] = x
            ker = solver.kernel_rows() if self._second else ()
            if len(ker):
                rows = ((rows.astype(np.int64) + ker[0]) % p).astype(np.uint8)
            self.maps.append(rows)
        return self

    def _image_chunks(self, src_deg: int, prev: np.ndarray):
        """Yield (lo, hi, B): row j - lo of B is the image of d(e_j) under
        the previous degree's map, for the source generators lo <= j < hi.

        A chunk takes generators until their sparse images hold enough
        terms to fill about _LIFT_CHUNK_BYTES of translated rows."""
        width = prev.shape[1]  # 0 when the target has rank 0 (the trivial group)
        cap = _LIFT_CHUNK_BYTES // max(1, width if self.tgt.p == 2 else 8 * width)
        parts: list = []
        size = lo = 0
        n_gens = self.src.rank(src_deg)
        for j in range(n_gens):
            parts.append(self.src.gen_image_sparse(src_deg, j))
            size += parts[-1][0].size
            if size >= cap or j == n_gens - 1:
                yield lo, j + 1, self._images(parts, prev)
                parts, size, lo = [], 0, j + 1

    def _images(self, parts: list, prev: np.ndarray) -> np.ndarray:
        """Row i is the image of the source vector given sparsely by parts[i].

        prev[w] is the image of source generator w, so a term v.s.e_w maps
        to v.phi(s).prev[w]; each distinct (phi(s), w) is translated once."""
        order, n_prev, width = self.tgt.order, len(prev), prev.shape[1]
        owner = np.repeat(np.arange(len(parts)), [c.size for c, _ in parts])
        coords = np.concatenate([c for c, _ in parts])
        keys = self.phi[coords % self.src.order] * n_prev + coords // self.src.order
        pairs, pick = np.unique(keys, return_inverse=True)
        g, w = np.divmod(pairs, n_prev)
        prev_blocks = prev.reshape(n_prev, width // order, order)
        moved = np.empty((len(pairs),) + prev_blocks.shape[1:], dtype=np.uint8)
        gather = self.tgt.pres.left_inv_gather()
        cuts = np.flatnonzero(np.r_[True, g[1:] != g[:-1], True])
        for a, b in zip(cuts[:-1], cuts[1:]):
            np.take(prev_blocks[w[a:b]], gather[g[a]], axis=2, out=moved[a:b])
        vals = np.concatenate([v for _, v in parts])
        return segment_sums(moved.reshape(len(pairs), width), pick, vals, owner,
                            len(parts), self.tgt.p)

    def functional_matrix(self, t: int) -> np.ndarray:
        """Matrix of f -> f o (this map) in degree t: shape (src rank, tgt rank)."""
        self.extend_to(t)
        rows = self.maps[t]
        return self.tgt.block_sums(rows, self.tgt.rank(t))


# ---------------------------------------------------------------------------
# cup products

def _cocycle_chain(res, g: Cocycle, second: bool = False) -> ChainMap:
    base = np.zeros((res.rank(g.degree), res.order), dtype=np.uint8)
    base[:, 0] = g.vec  # g_j times the identity basis vector of F_0
    phi = np.arange(res.order, dtype=np.int32)
    return ChainMap(res, res, phi, g.degree, base, second)


def _cocycle_lift(res, g: Cocycle, t_max: int) -> ChainMap:
    key = g.key()
    cm = res._cup_lifts.get(key)
    if cm is None:
        cm = _cocycle_chain(res, g)
        res._cup_lifts[key] = cm
    return cm.extend_to(t_max)


def cup_product(res, f: Cocycle, g: Cocycle, alt_lift: bool = False) -> Cocycle:
    """Product in H*(G) by lifting g to a chain map and composing with f.

    ``alt_lift`` lifts afresh, uncached, with different particular solutions."""
    m, n = f.degree, g.degree
    if m + n > res.top_degree:
        raise IndexError("product degree exceeds resolution bound")
    cm = _cocycle_chain(res, g, second=True) if alt_lift else _cocycle_lift(res, g, m)
    M = cm.functional_matrix(m)
    vec = matmul_mod(M, f.vec[:, None], res.p)[:, 0]
    return Cocycle(m + n, vec)


def multiplication_matrix(res, g: Cocycle, m: int) -> np.ndarray:
    """Matrix of (cup with g): H^m -> H^{m+|g|}, columns over the H^m basis."""
    cm = _cocycle_lift(res, g, m)
    return cm.functional_matrix(m)


# ---------------------------------------------------------------------------
# induced maps on cohomology

class InducedMap:
    """phi*: H^k(T) -> H^k(S) for a homomorphism phi: S -> T.

    Covers restriction (phi an inclusion), inflation (phi a quotient
    map), conjugation isomorphisms, and the coaction (phi the central
    multiplication map), all through the same lifting machinery.
    """

    def __init__(self, hom: GroupHom, res_src, res_tgt):
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
            self._chain.extend_to(k)
            got = self._chain.functional_matrix(k)
            self._matrices[k] = got
        return got

    def apply(self, f: Cocycle) -> Cocycle:
        M = self.matrix(f.degree)
        return Cocycle(f.degree, matmul_mod(M, f.vec[:, None], self.res_src.p)[:, 0])


def induced_map(hom: GroupHom, res_src, res_tgt) -> InducedMap:
    # hash equality suffices: equal relations give identical collection tables
    if (hom.src.hash_key() != res_src.pres.hash_key()
            or hom.tgt.hash_key() != res_tgt.pres.hash_key()):
        raise ValueError("resolutions do not match the homomorphism")
    return InducedMap(hom, res_src, res_tgt)


def restriction_map(res_G, embed: GroupHom, res_H) -> InducedMap:
    """H^k(G) -> H^k(H) along a subgroup embedding H -> G."""
    return induced_map(embed, res_H, res_G)


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
        self.C = C
        prod, presC, embedC, mhom = multiplication_hom(res_G.pres, C)
        if presC.hash_key() != res_C.pres.hash_key():
            raise ValueError("res_C must resolve the canonical subgroup presentation")
        self.embedC = embedC
        self.kun = kunneth(res_C, res_G, prod, budget=res_G.budget)
        self.mhom = mhom
        self._induced = InducedMap(mhom, self.kun, res_G)
        self._prim: dict[int, FpSubspace] = {}

    def matrix(self, k: int) -> np.ndarray:
        """Coaction in Kunneth coordinates: (rank_k of C x G, b_k of G)."""
        return self._induced.matrix(k)

    def pi_star_matrix(self, k: int) -> np.ndarray:
        """Matrix of x -> 1 (x) x in the same coordinates."""
        M = np.zeros((self.kun.rank(k), self.res_G.rank(k)), dtype=np.uint8)
        for v in range(self.res_G.rank(k)):
            M[self.kun.pair_pos(k, (0, 0, v)), v] = 1
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


def comodule_map(res_G: MinimalResolution, C: Subgroup,
                 res_C: MinimalResolution) -> ComoduleMap:
    return ComoduleMap(res_G, C, res_C)


# ---------------------------------------------------------------------------
# ring fragment

class CohomologyFragment:
    """Graded ring data for H*(G) up to the resolution bound."""

    def __init__(self, res):
        self.res = res
        self.p = res.p
        self._decomp: dict[int, FpSubspace] = {}

    @property
    def betti(self) -> list[int]:
        return list(self.res.betti)

    def basis(self, k: int) -> list[Cocycle]:
        return [Cocycle(k, np.eye(self.res.rank(k), dtype=np.uint8)[j])
                for j in range(self.res.rank(k))]

    def product(self, f: Cocycle, g: Cocycle) -> Cocycle:
        return cup_product(self.res, f, g)

    def decomposable_subspace(self, k: int) -> FpSubspace:
        """Span of all products of positive-degree classes in degree k.

        Only the products f.g with deg g <= k/2 are formed, since
        f.g = +-g.f; classes above degree k/2 are never lifted."""
        got = self._decomp.get(k)
        if got is None:
            rows = []
            for i in range(1, k // 2 + 1):
                for g in self.basis(i):
                    M = multiplication_matrix(self.res, g, k - i)
                    rows.extend(M.T)  # column u is (basis_u of H^{k-i}) * g
            if rows:
                got = FpSubspace.from_spanning(self.p, self.res.rank(k), np.array(rows))
            else:
                got = FpSubspace.zero(self.p, self.res.rank(k))
            self._decomp[k] = got
        return got

    def generator_counts(self, up_to: int) -> list[int]:
        """Number of ring generators in each degree 0..up_to."""
        out = [0]
        for k in range(1, up_to + 1):
            out.append(self.res.rank(k) - self.decomposable_subspace(k).dim)
        return out
