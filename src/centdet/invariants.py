"""Central detection invariants of mod-p group cohomology.

Everything here is driven by the restriction of H*(G) to C = C(G), the
maximal central elementary abelian subgroup:

- the restriction image is a polynomial sub Hopf algebra of H*(C); a
  Frobenius-power filtration of H^1(C) reads off its generator degrees,
  the *type* [a_1..a_c], from which e(G) = sum(a_i - 1) and h(G) follow;
- lifting the image generators gives a Duflot subalgebra A over which
  H*(G) is free; Q_A denotes indecomposables, P_C the coaction
  primitives, and both vanish above e(G) with a one-dimensional top when
  every order-p element is central;
- central essential classes are those restricting to zero on the
  centralizer of every elementary abelian subgroup strictly above C;
  their top Q_A / P_C degrees e'(G), e''(G) drive the detection number
  d0(G) = max over centralizers of e'', one recursion for every G: when
  G is p-central, C is the only object of A_C and C_G(C) = G, so it
  reads e''(G) = e(G).  H* and Cess share one Q_A and one P_C routine
  over a graded subspace of H*, and Cess and the essential classes one
  kernel of restrictions to a family of subgroups.  Cess needs no
  intersection with A+ . Cess: it is the kernel of restriction, a ring
  map, so it is an ideal and A+ . Cess already lies in it;
- the reduced layers of H*(G) are computed from one categorical
  equalizer over the elementary abelians V above C, with component
  H^j(V) (x) P_V H^d(C_G(V)) at V and inner-automorphism invariance
  imposed through recorded conjugators; the locally finite part in
  degree d is its j = 0 row, because H^0(V) = F_p and every map
  induces 1 on it.

Each question has one route.  Every map induced by conjugation between
subgroups, restriction included, is ``Analyzer._conj_map``, and every
coaction primitive P_V of a central elementary abelian V is
``Analyzer._primitives``; the restriction image, the Cess kernels and
the equalizer all read them, and the centralizers of the d0 recursion
and the equalizer come from one ``Analyzer._centralizer``.  On a
presentation that records factors A and B, a map whose two ends are
products S_A x S_B and the primitives of a product V are read off the
factors' analyzers, so nothing is lifted into the product's own
resolution; any other map or V is lifted.

Degree bounds are honest: every result that could change past the
computed range carries a certification flag.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .fplinalg import (
    FpMatrix,
    FpSubspace,
    LinSolver,
    image_basis,
    intersect,
    kernel_basis,
    matmul_mod,
    rref,
    solve_preimage,
    subspace_sum,
)
from .pgroup import (
    GroupHom,
    PcPresentation,
    Subgroup,
    centralizer,
    factor_parts,
    is_p_central,
    maximal_subgroups,
    omega1_center,
    p_rank,
    quillen_category_AC,
    split_central_factors,
    subgroup_presentation,
    whole_group,
)
from .resolution import (
    BudgetExceededError,
    Cocycle,
    ComoduleMap,
    InducedMap,
    MinimalResolution,
    TensorInducedMap,
    TensorResolution,
    cup_product,
    product_span,
)


class DegreeBoundError(RuntimeError):
    """The degree bound is too small to certify a value a computation needs."""


class Workspace:
    """Shared cache of resolutions and analyzers across related groups.

    Resolutions and analyzers are keyed by ``share_key``, so presentations
    with identical relations and no recorded factors (every rank-r
    elementary abelian, say) share one resolution.  One that records
    factors A and B (``direct_product``, ``subgroup_presentation``) is
    served as the tensor product of the factors' resolutions, and its
    analyzer reads every map off the factors' analyzers.  Every other
    resolution is built in memory and kept for the life of the Workspace.
    """

    def __init__(self, budget: int = 20000):
        self.budget = budget
        self._res: dict[str, MinimalResolution] = {}
        self._analyzers: dict = {}

    def resolution(self, pres: PcPresentation, N: int) -> MinimalResolution:
        return self._get(pres).extend_to(N)

    def _get(self, pres: PcPresentation) -> MinimalResolution:
        key = share_key(pres)
        res = self._res.get(key)
        if res is None:
            if pres.factors is not None:
                A, B = pres.factors
                res = TensorResolution(self._get(A), self._get(B), pres, budget=self.budget)
            else:
                res = MinimalResolution(pres, budget=self.budget)
            self._res[key] = res
        return res

    def analyzer(self, pres: PcPresentation, N: int, label: str | None = None):
        key = (share_key(pres), N)
        a = self._analyzers.get(key)
        if a is None:
            a = Analyzer(pres, N, workspace=self, label=label)
            self._analyzers[key] = a
        return a


def share_key(pres: PcPresentation):
    """The key a Workspace shares by: the hash of a presentation that
    records no factors, else the pair of its factors' keys."""
    if pres.factors is None:
        return pres.hash_key()
    return tuple(share_key(F) for F in pres.factors)


class FlagLevel(NamedTuple):
    """One level of the Frobenius flag of H^1(C): the classes x whose image
    M x in H^degree(C) lies in the restriction image (with level 0 joined)."""

    degree: int
    subspace: FpSubspace
    frobenius: np.ndarray  # M: H^1(C) -> H^degree(C), one column per e_t


@dataclass
class GroupType:
    """Generator degrees [a_1 >= ... >= a_c] of the restriction image."""

    p: int
    entries: tuple[int, ...]
    certified: bool
    flag: list[FlagLevel] = field(default_factory=list)  # the levels walked

    @property
    def e(self) -> int:
        return sum(a - 1 for a in self.entries)

    @property
    def h(self) -> int:
        if not self.entries:
            return 0
        a1 = self.entries[0]
        if a1 == 1:
            return 0
        if a1 == 2:
            return 1
        # a1 = 2 p^k with k >= 1
        return a1 // self.p


@dataclass
class DuflotData:
    """Lifted polynomial generators of the restriction image."""

    generators: list[tuple[int, Cocycle]]  # (degree, lift in H^deg(G))
    targets: list[tuple[int, np.ndarray]]  # (degree, image in H^deg(C) coords)
    entries: tuple[int, ...]

    def a_dims(self, N: int) -> list[int]:
        """Hilbert function of the free commutative algebra on the lifts."""
        dims = [0] * (N + 1)
        dims[0] = 1
        for a in self.entries:
            # multiply the series by 1/(1 - t^a)
            for k in range(a, N + 1):
                dims[k] += dims[k - a]
        return dims


def top_nonzero(dims: tuple[int, ...]) -> int:
    """The last degree with a nonzero dimension, or -1 when there is none."""
    top = -1
    for k, d in enumerate(dims):
        if d:
            top = k
    return top


@dataclass
class InvariantReport:
    """The report of one group; the field order is the JSON key order."""

    group_id: str
    p: int
    order: int
    rank: int
    center_rank: int
    p_central: bool
    type: list[int] | None
    e: int | None
    h: int | None
    d0: int | None
    d1: int | None
    e_prime: int | None
    e_double_prime: int | None
    cess_nonzero: bool | None
    truncation_degree: int
    certified: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return asdict(self)


class Analyzer:
    """All invariant computations for one group at one degree bound."""

    def __init__(self, pres: PcPresentation, N: int,
                 workspace: Workspace | None = None, label: str | None = None):
        self.G = pres
        self.N = int(N)
        self.p = pres.p
        self.ws = workspace if workspace is not None else Workspace()
        self.label = label or f"order-{pres.order} group"
        self._cache: dict = {}
        self._heuristic: set[str] = set()  # certificates from the margin rule

    def _memo(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    # -- basic data ------------------------------------------------------------

    @property
    def res(self) -> MinimalResolution:
        return self.ws.resolution(self.G, self.N)

    @property
    def category(self):
        """The Quillen category of elementary abelians containing C."""
        return quillen_category_AC(self.G)

    @property
    def C(self) -> Subgroup:
        """Omega_1 Z(G), kept on G; reading it builds no conjugacy class."""
        return omega1_center(self.G)

    @property
    def center_rank(self) -> int:
        return self.C.rank

    @property
    def rank(self) -> int:
        return p_rank(self.G)

    @property
    def p_central(self) -> bool:
        return is_p_central(self.G)

    @property
    def resC(self) -> MinimalResolution:
        presC, _, _ = subgroup_presentation(self.G, self.C)
        return self.ws.resolution(presC, self.N)

    # -- a product served from its factors ------------------------------------------

    def _factors(self) -> tuple["Analyzer", "Analyzer"] | None:
        """The analyzers of A and B when G records its factors A and B,
        else None."""
        if self.G.factors is None:
            return None
        return tuple(self.ws.analyzer(F, self.N, label=f"{self.label}:factor")
                     for F in self.G.factors)

    # -- restriction image -------------------------------------------------------

    def restriction_to_C(self) -> InducedMap | TensorInducedMap:
        """res*: H*(G) -> H*(C), in the coordinates of the shared resolution
        of C's presentation; on a product it is read off the factors."""
        return self._conj_map(self.C, whole_group(self.G), 0, self.N)

    def res_image(self, k: int) -> FpSubspace:
        def make():
            M = self.restriction_to_C().matrix(k)
            return image_basis(FpMatrix(self.p, M, check=False))
        return self._memo(("im", k), make)

    def restriction_image_dims(self) -> tuple[int, ...]:
        return tuple(self.res_image(k).dim for k in range(self.N + 1))

    # -- type -----------------------------------------------------------------------

    def _frobenius_matrix(self, k: int) -> np.ndarray:
        """M_k: H^1(C) -> H^(2 p^(k-1))(C), with M_k x = lambda beta(x)^(p^(k-1))
        for one scalar lambda != 0 common to every x and k; lambda = 1 at p = 2.

        Let psi_s: C -> Z/p send the pc generator c_s of C to the generator
        and every other c_r to 1, and let x and u be the unit classes of
        H^1(Z/p) and H^2(Z/p) = F_p u.  The columns a_s = psi_s*(x) of A are
        the functionals dual to the c_s, up to the common factor x(g) != 0,
        so A is invertible.  The columns of B_k are psi_s*(u^m), m = p^(k-1),
        and M_k = B_k A^(-1).  Proof: beta: H^1(Z/p) -> H^2(Z/p) is an
        isomorphism, so beta(x) = mu u with mu != 0, and beta commutes with
        psi_s*, so psi_s*(u^m) = mu^(-m) beta(a_s)^m = lambda beta(a_s)^m with
        lambda = mu^(-1), since mu^m = mu in F_p.  The map y -> beta(y)^m is
        F_p-linear: beta is, m-th powers are additive on the commuting
        even-degree classes, and alpha^m = alpha for alpha in F_p.  So
        B_k = lambda F_k A.  At p = 2, mu = 1 and beta(y) = Sq^1 y = y^2.
        A common scalar changes no preimage or span, which is all the flag
        and the Duflot targets read."""
        def projections():
            p = self.p
            presC, _, _ = subgroup_presentation(self.G, self.C)
            cyc = PcPresentation(p, 1, [(0,)], {})
            maps = [InducedMap(GroupHom(presC, cyc, [cyc.gen_idx(0) if r == s else 0
                                                     for r in range(presC.n)]),
                               self.resC, self.ws.resolution(cyc, self.N))
                    for s in range(presC.n)]
            # row s of A^T is the column a_s of A
            solver = LinSolver(FpMatrix(p, np.stack([m.matrix(1)[:, 0] for m in maps]),
                                        check=False))
            if solver.rank < presC.n:
                raise AssertionError("the projections of C do not span H^1(C)")
            return maps, solver

        def make():
            maps, solver = self._memo("projections", projections)
            res = maps[0].res_tgt
            u = power = Cocycle(2, np.ones(1, dtype=np.uint8))
            for _ in range(self.p ** (k - 1) - 1):
                power = cup_product(res, power, u)
            B = np.stack([m.apply(power).vec for m in maps], axis=1)
            return solver.solve_rows(B)
        return self._memo(("frobenius", k), make)

    def group_type(self) -> GroupType:
        return self._memo("type", self._compute_type)

    def _compute_type(self) -> GroupType:
        """Walk the Frobenius flag of H^1(C) until it fills H^1(C).

        Level 0 is the degree-one image.  Level k >= 1, in degree 2 p^(k-1),
        holds the x with beta(x)^(p^(k-1)) in the restriction image, joined
        with level 0; Frobenius is additive in characteristic p, so that is
        the preimage of the image under ``_frobenius_matrix(k)``, with no
        branch on p.  The dimensions a level adds are the type
        entries equal to its degree; when the bound N stops the walk first,
        the rest get the next level's degree and the type is uncertified."""
        p, c = self.p, self.center_rank
        if c == 0:
            return GroupType(p, (), True)
        flag = [FlagLevel(1, self.res_image(1), np.eye(c, dtype=np.uint8))]
        degree = 2
        while flag[-1].subspace.dim < c and degree <= self.N:
            M = self._frobenius_matrix(len(flag))
            sub = solve_preimage(FpMatrix(p, M, check=False), self.res_image(degree))
            flag.append(FlagLevel(degree, subspace_sum(sub, flag[0].subspace), M))
            degree *= p
        entries: list[int] = []
        prev = 0
        for level in flag:
            entries += [level.degree] * (level.subspace.dim - prev)
            prev = level.subspace.dim
        certified = prev == c
        entries += [degree] * (c - prev)
        entries.sort(reverse=True)
        return GroupType(p, tuple(entries), certified, flag)

    @property
    def e(self) -> int:
        return self.group_type().e

    @property
    def h(self) -> int:
        return self.group_type().h

    # -- Duflot lifts ------------------------------------------------------------------

    def duflot(self) -> DuflotData:
        return self._memo("duflot", self._compute_duflot)

    def _flag_adapted_basis(self) -> list[tuple[int, np.ndarray]]:
        """(level k, vector in H^1(C)) pairs, new directions per flag level.

        The level bases are stacked in order; a row is new exactly when its
        column is a pivot column of the transposed stack."""
        flag = self.group_type().flag
        levels = [k for k, level in enumerate(flag) for _ in range(level.subspace.dim)]
        if not levels:
            return []
        rows = np.vstack([level.subspace.basis.arr for level in flag])
        _, pivots, _ = rref(FpMatrix(self.p, rows.T, check=False))
        return [(levels[i], rows[i]) for i in pivots]

    def _compute_duflot(self) -> DuflotData:
        """Lift one polynomial generator per new flag direction x: its
        target is M_k x in the degree of level k.  At odd p a level-0
        direction also takes M_1 x = lambda beta(x) in degree two, which
        lies in the image because restriction commutes with beta.  Only
        generators of degree <= N are lifted; the rest change no
        dimension in degrees <= N.

        Any lifts of the image generators serve: H*(G) is free over the
        subalgebra A they generate, so the Q_A dimensions are H*'s Hilbert
        series divided by A's, which depend only on the generator degrees
        (freeness stays checked, ``_check_freeness``).  So a served product
        takes the one route too: its lift is one solve against the served
        restriction_to_C() matrix, and every product with the lifted
        class is read off the factors by ``multiplication_matrix``, so no
        solver is built over the product."""
        t = self.group_type()
        if not t.certified:
            raise DegreeBoundError(
                f"the type of {self.label} is not certified at degree bound {self.N}")
        gens: list[tuple[int, Cocycle]] = []
        targets: list[tuple[int, np.ndarray]] = []

        def add(degree: int, M: np.ndarray, x: np.ndarray):
            target = matmul_mod(M, x[:, None], self.p)[:, 0]
            gens.append((degree, self._lift_from_image(degree, target)))
            targets.append((degree, target))

        for k, x in self._flag_adapted_basis():
            degree, _, M = t.flag[k]
            add(degree, M, x)
            if self.p != 2 and k == 0 and self.N >= 2:
                add(2, self._frobenius_matrix(1), x)
        data = DuflotData(gens, targets, t.entries)
        # the subalgebra on the lifts must match the image dimensions
        if list(self.restriction_image_dims()) != data.a_dims(self.N):
            raise AssertionError("Duflot subalgebra does not match the image")
        return data

    def _lift_from_image(self, degree: int, target: np.ndarray) -> Cocycle:
        def make():
            M = self.restriction_to_C().matrix(degree)
            return LinSolver(FpMatrix(self.p, M, check=False))
        x = self._memo(("lift", degree), make).solve(target)
        if x is None:
            raise AssertionError(f"degree-{degree} image element has no preimage")
        return Cocycle(degree, x)

    # -- indecomposables and primitives -----------------------------------------------

    def _qa(self, subs: list[FpSubspace] | None) -> tuple[int, ...]:
        """Q_A dimensions of a graded ideal of H* (None: all of H*), with
        its freeness over A checked.  An ideal holds A+ times itself, so
        Q_A in degree k is the ideal modulo that span, with no intersection."""
        def make():
            totals = self.res.betti[: self.N + 1] if subs is None else [s.dim for s in subs]
            gens = [xi for _, xi in self.duflot().generators]
            dims = [total - product_span(self.res, k, gens, subs).dim
                    for k, total in enumerate(totals)]
            self._check_freeness(totals, dims, "H*" if subs is None else "Cess")
            return tuple(dims)
        return self._memo(("qa", subs is None), make)

    def qa_dims(self) -> tuple[int, ...]:
        return self._qa(None)

    def _check_freeness(self, total_dims, q_dims, what: str):
        a = self.duflot().a_dims(self.N)
        for k in range(self.N + 1):
            conv = sum(a[j] * q_dims[k - j] for j in range(k + 1))
            if conv != total_dims[k]:
                raise AssertionError(
                    f"{what} is not free over the Duflot subalgebra at degree {k}"
                )

    def _comodule(self, V: Subgroup) -> ComoduleMap:
        """The coaction H*(G) -> H*(V) (x) H*(G) of a central elementary
        abelian V, lifted into the Kunneth resolution of V x G and kept."""
        def make():
            presV, _, _ = subgroup_presentation(self.G, V)
            return ComoduleMap(self.res, V, self.ws.resolution(presV, self.N))
        return self._memo(("comodule", V.elems), make)

    def comodule(self) -> ComoduleMap:
        """The lifted coaction of C on H*(G), on every presentation: the
        reference that the served P_C and the comodule axioms are checked
        against."""
        return self._comodule(self.C)

    def _primitives(self, V: Subgroup, k: int) -> FpSubspace:
        """P_V H^k(G), the primitives of the coaction of a central
        elementary abelian V: the one reader of them.

        When G records factors A and B and V = V_A x V_B (``factor_parts``),
        they are read off the factors' readers, in G's (i, u, v) pair
        coordinates:

            P_V H^k(A x B) = sum over i of P_{V_A} H^i(A) (x) P_{V_B} H^(k-i)(B),

        the row space of the block-diagonal Kronecker assembly of the
        factors' basis matrices (``TensorInducedMap``), so the coaction
        of V on the product is never lifted.  Proof: V_A and V_B, the
        projections of V, are central elementary abelian in A and B; the
        multiplication V x G -> G, (v, g) -> vg, is the product of the
        factors' multiplications V_A x A -> A and V_B x B -> B, so under
        Kunneth the coaction of V is Delta_A (x) Delta_B, a coaction of
        H*(V) = H*(V_A) (x) H*(V_B) on H*(A) (x) H*(B); over a field the
        primitives of a tensor product of comodules are the tensor product
        of the primitives.  The Koszul signs scale whole (i, u, v) blocks,
        so they change no span.  For V = C this reads P_C:
        Omega_1 Z(A x B) = Omega_1 Z(A) x Omega_1 Z(B), so C = C_A x C_B.
        Any other V lifts its coaction (``_comodule``)."""
        def make():
            parts = factor_parts(self.G, V)
            if parts is None:
                return self._comodule(V).primitive_basis(k)
            spans = TensorInducedMap(self.res, *(
                lambda i, f=f, Vx=Vx: f._primitives(Vx, i).basis.arr
                for f, Vx in zip(self._factors(), parts)))
            return FpSubspace.from_spanning(self.p, self.res.rank(k), spans.matrix(k))
        return self._memo(("primitives", V.elems, k), make)

    def pc_basis(self, k: int) -> FpSubspace:
        """P_C H^k(G), the C-coaction primitives (``_primitives``)."""
        return self._primitives(self.C, k)

    def _pc(self, subs: list[FpSubspace] | None) -> tuple[int, ...]:
        """P_C dimensions of a graded subspace of H* (None: all of H*)."""
        def make():
            if subs is None:
                return tuple(self.pc_basis(k).dim for k in range(self.N + 1))
            return tuple(intersect(piece, self.pc_basis(k)).dim
                         for k, piece in enumerate(subs))
        return self._memo(("pc", subs is None), make)

    def pc_dims(self) -> tuple[int, ...]:
        return self._pc(None)

    # -- central essential classes ---------------------------------------------------

    def _restriction_kernels(self, family: list[Subgroup], top: int) -> list[FpSubspace]:
        """Per degree 0..top, the classes of H* that restrict to zero on
        every subgroup in family.  The maps are made one at a time, not
        kept, and each is dropped once its matrices are read.  Only the
        kernel is read, so a served map's pair coordinates on H*(S) serve:
        an isomorphism of the target changes no kernel."""
        resG = self.ws.resolution(self.G, top)
        whole = whole_group(self.G)
        mats = [[np.zeros((0, resG.rank(k)), dtype=np.uint8)] for k in range(top + 1)]
        for S in family:
            rmap = self._conj_map(S, whole, 0, top, keep=False)
            for k in range(top + 1):
                mats[k].append(rmap.matrix(k))
        return [kernel_basis(FpMatrix(self.p, np.vstack(m), check=False)) for m in mats]

    def cess_subspaces(self) -> list[FpSubspace] | None:
        """Per-degree kernels of restriction to the strict centralizers,
        or None when there is no subgroup strictly above C (the product
        over the empty set: every class is then central essential)."""
        def make():
            strict = [o for o in self.category.objects if o.rep.order > self.C.order]
            if not strict:
                return None
            family = {}
            for obj in strict:
                K = centralizer(self.G, obj.rep)
                family.setdefault(K.elems, K)
            return self._restriction_kernels(list(family.values()), self.N)
        return self._memo("cess", make)

    def cess_dims(self) -> tuple[int, ...]:
        subs = self.cess_subspaces()
        if subs is None:
            return tuple(self.res.betti[: self.N + 1])
        return tuple(s.dim for s in subs)

    def qa_cess_dims(self) -> tuple[int, ...]:
        return self._qa(self.cess_subspaces())

    def pc_cess_dims(self) -> tuple[int, ...]:
        return self._pc(self.cess_subspaces())

    # -- e', e'' -------------------------------------------------------------------------

    def _margin(self, name: str, top: int) -> tuple[int, bool]:
        """The margin rule: a top degree read inside the bound is certified
        once N clears it by the largest type entry.  The certificate is
        heuristic, and the report says so."""
        self._heuristic.add(name)
        return top, self.N >= top + max(self.group_type().entries, default=1)

    def e_prime(self) -> tuple[int, bool]:
        def make():
            if self.p_central:
                return self.e, self.group_type().certified
            q = self.qa_cess_dims()
            top = top_nonzero(q)
            if self.rank - self.center_rank == 1:
                # duality certificate: first nonzero degree determines the top
                if top < 0:
                    return -1, self.N >= self.e
                m = next(k for k, d in enumerate(q) if d)
                value = self.e - m
                certified = self.N >= value
                if certified:
                    for k in range(min(self.N, self.e) + 1):
                        mirror = self.e - k
                        if 0 <= mirror <= self.N and q[k] != q[mirror]:
                            raise AssertionError("central essential duality fails")
                return value, certified
            if top < 0:
                return -1, False
            return self._margin("e_prime", top)
        return self._memo("eprime", make)

    def e_double_prime(self) -> tuple[int, bool]:
        def make():
            if self.p_central:
                return self.e, self.group_type().certified
            top = top_nonzero(self.pc_cess_dims())
            ep, ep_cert = self.e_prime()
            if top == ep and ep_cert:
                return top, True
            if top < 0:
                return -1, ep == -1 and ep_cert
            return self._margin("e_double_prime", top)
        return self._memo("edp", make)

    # -- detection numbers -------------------------------------------------------------

    def d0_d1_p_central(self) -> tuple[int, int]:
        if not self.p_central:
            raise ValueError("group is not p-central")
        t = self.group_type()
        return t.e, t.e + t.h

    def qualifying_reps(self) -> list[Subgroup]:
        """Conjugacy representatives V with V = C(C_G(V)), including C."""
        def make():
            return [o.rep for o in self.category.objects
                    if omega1_center(self.G, centralizer(self.G, o.rep)) == o.rep]
        return self._memo("qreps", make)

    def d0(self) -> tuple[int, bool]:
        """The largest e'' over the centralizers C_G(V) of the qualifying V.
        For p-central G, A_C is C alone and C_G(C) = G, so this is e''(G),
        that is e with the type certificate."""
        def make():
            best = -1
            certified = True
            for V in self.qualifying_reps():
                val, cert = self._centralizer(V)[1].e_double_prime()
                best = max(best, val)
                certified = certified and cert
            return best, certified
        return self._memo("d0", make)

    # -- top primitive class -----------------------------------------------------------

    def top_primitive_class(self) -> Cocycle:
        if not self.p_central:
            raise ValueError("defined for p-central groups")
        e = self.e
        if e <= 0:
            raise ValueError("needs e(G) > 0")
        if e > self.N:
            raise IndexError("degree bound too small for the top class")
        P = self.pc_basis(e)
        if P.dim != 1:
            raise AssertionError(
                f"top primitive space has dimension {P.dim}, expected 1"
            )
        return Cocycle(e, P.basis.arr[0])

    def is_essential(self, z: Cocycle) -> bool:
        """Whether z restricts to zero on every maximal subgroup."""
        kernels = self._restriction_kernels(maximal_subgroups(self.G), z.degree)
        return kernels[z.degree].contains(z.vec)

    # -- locally finite part and reduced layers ------------------------------------------

    def _centralizer(self, V: Subgroup) -> tuple[Subgroup, "Analyzer", Subgroup]:
        """K = C_G(V), the analyzer of K's presentation (G's own when K is
        presented as G), and V in that presentation, made once per V."""
        def make():
            K = centralizer(self.G, V)
            presK, _, to_idx = subgroup_presentation(self.G, K)
            aK = self if presK is self.G else self.ws.analyzer(
                presK, self.N, label=f"{self.label}:centralizer")
            return K, aK, Subgroup(aK.G, [to_idx[x] for x in V.elems])
        return self._memo(("centralizer", V.elems), make)

    def _conj_map(self, S_from: Subgroup, S_to: Subgroup, g: int, k: int,
                  keep: bool = True) -> InducedMap | TensorInducedMap:
        """The map induced by y -> g y g^-1 from pres(S_from) to pres(S_to),
        where pres(G) is G itself; with S_to = G and g = 1 it is the
        restriction to S_from.  Every call extends both resolutions to the
        degree k asked for, and only to it, whether or not the map is
        kept.  A kept map is made once and read at every degree; a map
        read only once is not kept, so it is freed after use.

        When G records factors A and B and both ends are products,
        S_from = F_A x F_B and S_to = T_A x T_B (``factor_parts``), each is
        presented as that product (``subgroup_presentation``) and the map
        is m_A (x) m_B (``TensorInducedMap``), with m_x the factor's kept
        map F_x -> T_x by g_x, for (g_A, g_B) = divmod(g, |B|) the pair of
        g, and the identity where F_x = T_x and g_x = 1.  Proof: an element
        (a, b) of A x B has index a |B| + b, and
        (g_A, g_B)(a, b)(g_A, g_B)^-1 = (g_A a g_A^-1, g_B b g_B^-1), so
        conjugation by g is the product of the factors' conjugations, and
        it maps F_A x F_B into T_A x T_B exactly when each g_x maps F_x
        into T_x.  The factors split their maps the same way, so nested
        products split at every level.  The restrictions to C and to every
        centralizer C_G(U) = C_A(U_A) x C_B(U_B) split, since (a, b)
        commutes with (u, v) iff a commutes with u and b with v.  Any
        other map is lifted into the resolution of pres(S_to)."""
        G = self.G
        presF, embedF, _ = subgroup_presentation(G, S_from)
        resF = self.ws.resolution(presF, k)
        presT, _, to_idxT = subgroup_presentation(G, S_to)
        resT = self.ws.resolution(presT, k)
        key = ("conj", S_from.elems, S_to.elems, g)
        got = self._cache.get(key)
        if got is None:
            partsF, partsT = factor_parts(G, S_from), factor_parts(G, S_to)
            if partsF is not None and partsT is not None:
                pairs = divmod(g, G.factors[1].order)
                got = TensorInducedMap(resT, *(
                    None if F.elems == T.elems and gx == 0
                    else f._conj_map(F, T, gx, k).matrix
                    for f, F, T, gx in zip(self._factors(), partsF, partsT, pairs)))
            else:
                ginv = G.inv(g)
                images = [to_idxT[G.mult(G.mult(g, embedF.apply(presF.gen_idx(t))), ginv)]
                          for t in range(presF.n)]
                got = InducedMap(GroupHom(presF, presT, images), resF, resT)
            if keep:
                self._cache[key] = got
        return got

    def lf_dims(self) -> tuple[int, ...]:
        def make():
            return tuple(self._equalizer_dim(0, k) for k in range(self.N + 1))
        return self._memo("lf", make)

    def bar_rd_dims(self, d: int) -> tuple[int, ...]:
        if not 0 <= d <= self.N:
            raise IndexError(f"layer degree {d} outside 0..{self.N}")
        return tuple(self._equalizer_dim(j, d) for j in range(self.N - d + 1))

    def _equalizer_dim(self, j: int, d: int) -> int:
        """Dimension of the categorical equalizer in bidegree (j, d).

        Its component at a class rep V, with K = C_G(V), is
        H^j(V) (x) P_V H^d(K), embedded in H^j(V) (x) H^d(K) as
        I (x) P for P the primitive basis.  It must be invariant under the
        Weyl group of V and compatible along every inclusion V1' < V2 with
        V1' = g V1 g^-1 for the class rep V1.  At j = 0 every map on
        H^0(V) = F_p is 1, so that row is the locally finite part."""
        cat, p = self.category, self.p
        prims: list[np.ndarray] = []
        offsets = [0]
        for obj in cat.objects:
            _, aK, V_K = self._centralizer(obj.rep)
            prims.append(aK._primitives(V_K, d).basis.arr.T)  # (b_d(K), dim)
            presV, _, _ = subgroup_presentation(self.G, obj.rep)
            bV = self.ws.resolution(presV, j).rank(j)
            offsets.append(offsets[-1] + bV * prims[-1].shape[1])
        total = offsets[-1]
        if total == 0:
            return 0
        rows: list[np.ndarray] = []

        def require(pos1: int, A1, B1, pos2: int, A2, B2):
            """Rows saying A1 (x) B1 on the unknowns at pos1 equals A2 (x) B2
            on those at pos2 (int64, as a product of residues overflows uint8)."""
            lhs = np.kron(A1.astype(np.int64), B1)
            row = np.zeros((lhs.shape[0], total), dtype=np.int64)
            row[:, offsets[pos1]:offsets[pos1 + 1]] = lhs
            row[:, offsets[pos2]:offsets[pos2 + 1]] -= np.kron(A2.astype(np.int64), B2)
            rows.append((row % p).astype(np.uint8))

        # invariance under the Weyl group at each representative
        for pos, obj in enumerate(cat.objects):
            P = prims[pos]
            if P.shape[1] == 0:
                continue
            K = self._centralizer(obj.rep)[0]
            for w in cat.weyl_reps(obj):
                if w == 0:
                    continue
                AV = self._conj_map(obj.rep, obj.rep, w, j).matrix(j)
                AK = self._conj_map(K, K, w, d).matrix(d)
                require(pos, AV, matmul_mod(AK, P, p), pos, np.eye(AV.shape[0], dtype=np.uint8), P)

        # compatibility along inclusions V1' < V2 (V2 a representative)
        for pos2, obj2 in enumerate(cat.objects):
            V2 = obj2.rep
            K2 = self._centralizer(V2)[0]
            v2set = set(V2.elems)
            for elems, (pos1, g) in cat.member_index.items():
                if elems == V2.elems or not set(elems) <= v2set:
                    continue
                V1p = Subgroup(self.G, elems)
                obj1 = cat.objects[pos1]
                K1 = self._centralizer(obj1.rep)[0]
                # conjugation by g maps V1' onto V1 and K2 into K1
                Mrho = self._conj_map(V1p, obj1.rep, g, j).matrix(j)
                Mpsi = self._conj_map(K2, K1, g, d).matrix(d)
                Minc = self._conj_map(V1p, V2, 0, j).matrix(j)
                require(pos1, Mrho, matmul_mod(Mpsi, prims[pos1], p), pos2, Minc, prims[pos2])

        if not rows:
            return total
        stacked = np.vstack(rows)
        return kernel_basis(FpMatrix(p, stacked, check=False)).dim

    # -- the full report ---------------------------------------------------------------------

    def report(self, group_id: str | None = None) -> InvariantReport:
        """One path for every group: e', e'' and d0 short-cut by themselves
        when G is p-central, and d1 is known only then."""
        gid = group_id or self.label
        t = None
        certified: dict = {}
        e_val = h_val = d0_val = d1_val = ep = edp = None
        cess_nz = None
        try:
            t = self.group_type()
            certified["type"] = t.certified
            e_val, h_val = t.e, t.h
            ep, certified["e_prime"] = self.e_prime()
            edp, certified["e_double_prime"] = self.e_double_prime()
            for name in sorted(self._heuristic):
                certified[f"{name}_heuristic"] = True
            d0_val, certified["d0"] = self.d0()
            if self.p_central:
                d1_val, certified["d1"] = t.e + t.h, t.certified
            cess_nz = ep >= 0
        except BudgetExceededError:
            certified["budget_exceeded"] = True
        except DegreeBoundError:
            certified["degree_bound_too_small"] = True
        return InvariantReport(
            group_id=gid,
            p=self.p,
            order=self.G.order,
            rank=self.rank,
            center_rank=self.center_rank,
            p_central=self.p_central,
            type=list(t.entries) if t else None,
            e=e_val,
            h=h_val,
            d0=d0_val,
            d1=d1_val,
            e_prime=ep,
            e_double_prime=edp,
            cess_nonzero=cess_nz,
            truncation_degree=self.N,
            certified=certified,
        )


def d0_d1_via_sylow_transfer(sylow_type: GroupType) -> tuple[int, int]:
    """Detection numbers of any finite group whose p-Sylow subgroup is
    p-central with the given certified type: they transfer unchanged."""
    if not sylow_type.certified:
        raise ValueError("transfer needs a certified Sylow type")
    return sylow_type.e, sylow_type.e + sylow_type.h


def report(G: PcPresentation, N: int, group_id: str | None = None,
           ws: Workspace | None = None) -> InvariantReport:
    """The report of G, presented with its central cyclic direct factors
    split off (``split_central_factors``); a Workspace or Analyzer given
    G itself serves exactly that presentation."""
    return (ws or Workspace()).analyzer(split_central_factors(G), N).report(group_id)
