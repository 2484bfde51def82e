import os
import tracemalloc

import numpy as np
import pytest

from centdet import cli, resolution
from centdet.acceptance import QUICK_CORPUS, coassociativity_defect
from centdet.catalog import builtin, load_pcp
from centdet.fplinalg import (
    FpMatrix,
    FpSubspace,
    LinSolver,
    QuotientCoords,
    free_columns,
    kernel_basis,
    matmul_mod,
    rref,
    stacked_pivots,
)
from centdet.invariants import Workspace
from centdet.pgroup import (
    PcPresentation,
    cyclic_presentation,
    direct_product,
    maximal_subgroups,
    omega1_center,
    subgroup_presentation,
    whole_group,
)
from centdet.resolution import (
    BudgetExceededError,
    Cocycle,
    CohomologyFragment,
    ComoduleMap,
    InducedMap,
    TensorResolution,
    build_minimal_resolution,
    cup_product,
)


def elem_abelian(p, n):
    return PcPresentation(p, n, [(0,) * n] * n, {})


Q8 = PcPresentation(2, 3, [(0, 0, 1), (0, 0, 1), (0, 0, 0)], {(1, 0): (0, 0, 1)})
D8 = PcPresentation(2, 3, [(0, 0, 0), (0, 0, 1), (0, 0, 0)], {(1, 0): (0, 0, 1)})
# extraspecial of order 27 and exponent 3
E27 = PcPresentation(3, 3, [(0, 0, 0)] * 3, {(1, 0): (0, 0, 1)})


def binom(n, k):
    from math import comb
    return comb(n, k)


# ---------------------------------------------------------------------------
# resolution construction


def test_betti_z2():
    res = build_minimal_resolution(cyclic_presentation(2, 1), 6)
    assert res.betti == [1] * 7
    res.verify()


@pytest.mark.parametrize("k", [2, 3, 4])
def test_betti_cyclic_2_power(k):
    res = build_minimal_resolution(cyclic_presentation(2, k), 6)
    assert res.betti == [1] * 7
    res.verify()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_betti_elementary_abelian(n):
    res = build_minimal_resolution(elem_abelian(2, n), 6)
    assert res.betti == [binom(k + n - 1, k) for k in range(7)]
    res.verify()


def test_betti_q8_periodic():
    res = build_minimal_resolution(Q8, 8)
    assert res.betti == [1, 2, 2, 1, 1, 2, 2, 1, 1]
    res.verify()


def test_betti_d8():
    res = build_minimal_resolution(D8, 6)
    assert res.betti == [k + 1 for k in range(7)]
    res.verify()


def test_betti_odd_p():
    res = build_minimal_resolution(cyclic_presentation(3, 2), 6)
    assert res.betti == [1] * 7
    res.verify()
    res2 = build_minimal_resolution(elem_abelian(3, 2), 5)
    # (Z/p)^2 at odd p: Lambda(x1,x2) (x) F_p[y1,y2] has dim k+1 in degree k
    assert res2.betti == [k + 1 for k in range(6)]
    res2.verify()


def test_complex_fault_reads_the_generators_as_they_are():
    # no solver keeps its differential, so the d o d check sees generator
    # images that changed after the solvers were built
    res = build_minimal_resolution(D8, 4)
    for i in range(1, 4):
        res.solver(i)
    assert res.complex_fault() is None
    gens = res._gen_rows(2)
    gens[0] = (gens[0] + gens[1]) % 2  # still minimal, still in ker d_1
    res._terms[2] = resolution._sparse_rows(gens)  # the one stored form
    assert res.complex_fault() == "d_2 o d_3 != 0"
    with pytest.raises(AssertionError, match="d_2 o d_3"):
        res.verify()


def greedy_generators(G, res, i):
    """Degree i generators picked one kernel row at a time: row j of the
    kernel basis K is kept iff it is not in rad*K plus the rows before it.
    rad*K is spanned by g.k - k over the pc generators g and rows k of K,
    with (g.v)[b, x] = v[b, g^-1 x] computed from the multiplication table."""
    p, order = G.p, G.order
    if i == 1:
        K = kernel_basis(FpMatrix(p, np.ones((1, order), dtype=np.uint8))).basis.arr
    else:
        K = kernel_basis(FpMatrix(p, res.expanded_diff(i - 1))).basis.arr
    blocks = K.shape[1] // order
    rad = []
    for t in range(G.n):
        g_inv = G.inv(G.gen_idx(t))
        src = [G.mult(g_inv, x) for x in range(order)]
        for k in K.reshape(len(K), blocks, order):
            moved = k[:, src].ravel()
            rad.append((moved.astype(np.int64) - k.ravel()) % p)
    R, _, rank = rref(FpMatrix(p, np.array(rad, dtype=np.uint8)))
    span = R.arr[:rank]
    chosen = []
    for j in range(len(K)):
        grown = rref(FpMatrix(p, np.vstack([span, K[j:j + 1]])))
        if grown[2] > rank:
            chosen.append(K[j])
            span, rank = grown[0].arr[:grown[2]], grown[2]
    return np.array(chosen, dtype=np.uint8).reshape(-1, K.shape[1])


@pytest.mark.parametrize("G", [Q8, D8, direct_product(cyclic_presentation(2, 2), cyclic_presentation(2, 1)), E27],
                         ids=["Q8", "D8", "Z4xZ2", "E27"])
def test_generator_choice_matches_greedy_reference(G):
    res = build_minimal_resolution(G, 5)
    res.verify()
    for i in range(1, 6):
        assert np.array_equal(res._gen_rows(i), greedy_generators(G, res, i)), i


def test_b1_is_minimal_generator_count():
    for G in (Q8, D8, cyclic_presentation(2, 3), elem_abelian(2, 3)):
        res = build_minimal_resolution(G, 1)
        from centdet.pgroup import maximal_subgroups as maxsub
        # b1 = rank of G/Phi(G) = log_p of (number of index-p subgroups ... )
        d = res.betti[1]
        assert len(maxsub(G)) == (G.p ** d - 1) // (G.p - 1)


def test_budget_error():
    with pytest.raises(BudgetExceededError):
        build_minimal_resolution(elem_abelian(2, 3), 8, budget=40)


# ---------------------------------------------------------------------------
# cup products


def test_cup_unit():
    res = build_minimal_resolution(Q8, 6)
    one = Cocycle(0, [1])
    for k in range(4):
        for j in range(res.betti[k]):
            f = Cocycle(k, np.eye(res.betti[k], dtype=np.uint8)[j])
            assert np.array_equal(cup_product(res, one, f).vec, f.vec)
            assert np.array_equal(cup_product(res, f, one).vec, f.vec)


def test_cup_commutative_p2():
    rng = np.random.default_rng(2)
    res = build_minimal_resolution(D8, 6)
    for _ in range(10):
        m, n = rng.integers(1, 3, size=2)
        f = Cocycle(int(m), rng.integers(0, 2, size=res.betti[m]))
        g = Cocycle(int(n), rng.integers(0, 2, size=res.betti[n]))
        assert np.array_equal(cup_product(res, f, g).vec,
                              cup_product(res, g, f).vec)


CUP_MOD_P_CASES = {
    "D8": lambda: build_minimal_resolution(D8, 4),
    "E27": lambda: build_minimal_resolution(E27, 4),
    "D8xZ4-served": lambda: Workspace().resolution(builtin("D8xZ4").pres, 4),
}


@pytest.mark.parametrize("case", list(CUP_MOD_P_CASES))
def test_cup_reads_class_vectors_mod_p(case):
    # a class vector with entries >= p is the class of its residues: on D8,
    # [2, 0] is zero, and f.[2, 0] read 2 as 1 in the p = 2 packing
    res = CUP_MOD_P_CASES[case]()
    p, rng = res.p, np.random.default_rng(11)
    if case == "D8":
        f, zero = Cocycle(1, [1, 0]), Cocycle(1, [2, 0])
        assert cup_product(res, f, zero).is_zero() and cup_product(res, zero, f).is_zero()
    for m, n in ((0, 1), (1, 0), (1, 1), (1, 2), (2, 1)):
        f = Cocycle(m, rng.integers(0, p, size=res.rank(m)))
        g = Cocycle(n, rng.integers(0, p, size=res.rank(n)))
        lifted = Cocycle(n, g.vec + p * rng.integers(0, 256 // p, size=res.rank(n)))
        assert np.array_equal(cup_product(res, f, lifted).vec, cup_product(res, f, g).vec)
        assert np.array_equal(cup_product(res, lifted, f).vec, cup_product(res, g, f).vec)


def test_cup_associative():
    rng = np.random.default_rng(5)
    res = build_minimal_resolution(Q8, 6)
    for _ in range(8):
        f = Cocycle(1, rng.integers(0, 2, size=res.betti[1]))
        g = Cocycle(1, rng.integers(0, 2, size=res.betti[1]))
        h = Cocycle(2, rng.integers(0, 2, size=res.betti[2]))
        lhs = cup_product(res, cup_product(res, f, g), h)
        rhs = cup_product(res, f, cup_product(res, g, h))
        assert np.array_equal(lhs.vec, rhs.vec)


def test_cup_anticommutative_odd_p():
    res = build_minimal_resolution(elem_abelian(3, 2), 4)
    # degree-one classes square to zero at odd p
    for j in range(2):
        f = Cocycle(1, np.eye(2, dtype=np.uint8)[j])
        assert cup_product(res, f, f).is_zero()
    # and anticommute: fg + gf = 0
    f = Cocycle(1, [1, 0])
    g = Cocycle(1, [0, 1])
    fg = cup_product(res, f, g).vec.astype(np.int64)
    gf = cup_product(res, g, f).vec.astype(np.int64)
    assert fg.any()
    assert ((fg + gf) % 3 == 0).all()


def test_polynomial_structure_v4():
    res = build_minimal_resolution(elem_abelian(2, 2), 6)
    x = Cocycle(1, [1, 0])
    y = Cocycle(1, [0, 1])
    xy = cup_product(res, x, y)
    assert not xy.is_zero()
    sq = [cup_product(res, x, x).vec, xy.vec, cup_product(res, y, y).vec]
    assert FpSubspace.from_spanning(2, 3, np.array(sq)).dim == 3


def test_lift_independence(monkeypatch):
    # adding a kernel vector to every particular solution of the lifting
    # systems changes the lifts but none of the products
    res, other = build_minimal_resolution(Q8, 6), build_minimal_resolution(Q8, 6)
    rng = np.random.default_rng(9)
    pairs = [(Cocycle(2, rng.integers(0, 2, size=res.betti[2])),
              Cocycle(2, rng.integers(0, 2, size=res.betti[2]))) for _ in range(6)]
    want = [cup_product(res, f, g).vec for f, g in pairs]
    solve_rows = LinSolver.solve_rows

    def shifted(self, B):
        X = solve_rows(self, B)
        ker = self.kernel_rows()
        return X if X is None or not len(ker) else (X + ker[0]) % self.p

    monkeypatch.setattr(LinSolver, "solve_rows", shifted)
    got = [cup_product(other, f, g).vec for f, g in pairs]
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert any(not np.array_equal(a, b) for key, cm in res._cup_lifts.items()
               for a, b in zip(cm.maps, other._cup_lifts[key].maps))


# ---------------------------------------------------------------------------
# induced maps


def test_restriction_to_whole_group_is_identity():
    res = build_minimal_resolution(Q8, 5)
    S = whole_group(Q8)
    presS, embedS, _ = subgroup_presentation(Q8, S)
    resS = build_minimal_resolution(presS, 5)
    rmap = InducedMap(embedS, resS, res)
    for k in range(5):
        M = rmap.matrix(k)
        # an isomorphism in every degree (identity up to basis choice)
        assert M.shape == (res.betti[k], res.betti[k])
        from centdet.fplinalg import FpMatrix, rref
        assert rref(FpMatrix(2, M))[2] == res.betti[k]


def test_restriction_z4_to_z2_pattern():
    Z4 = cyclic_presentation(2, 2)
    res4 = build_minimal_resolution(Z4, 8)
    C = omega1_center(Z4)
    presC, embed, _ = subgroup_presentation(Z4, C)
    resC = build_minimal_resolution(presC, 8)
    rmap = InducedMap(embed, resC, res4)
    for k in range(8):
        expected = 1 if k % 2 == 0 else 0
        assert int(rmap.matrix(k)[0, 0]) == expected


def test_restriction_functoriality():
    Z8 = cyclic_presentation(2, 3)
    res8 = build_minimal_resolution(Z8, 6)
    # Z2 < Z4 < Z8
    from centdet.pgroup import Subgroup
    z4 = Subgroup.generate(Z8, [Z8.gen_idx(1)])
    pres4, embed4, to4 = subgroup_presentation(Z8, z4)
    res4 = build_minimal_resolution(pres4, 6)
    z2_in_4 = Subgroup.generate(pres4, [g for g in range(pres4.order)
                                        if pres4.element_order(g) == 2])
    pres2, embed2, _ = subgroup_presentation(pres4, z2_in_4)
    res2 = build_minimal_resolution(pres2, 6)
    # composite hom Z2 -> Z8
    comp = embed4.compose(embed2)
    direct = InducedMap(comp, res2, res8)
    step1 = InducedMap(embed4, res4, res8)
    step2 = InducedMap(embed2, res2, res4)
    for k in range(6):
        lhs = direct.matrix(k)
        rhs = matmul_mod(step2.matrix(k), step1.matrix(k), 2)
        assert np.array_equal(lhs, rhs)


def test_restriction_is_ring_hom():
    res = build_minimal_resolution(Q8, 6)
    M = maximal_subgroups(Q8)[0]
    presM, embedM, _ = subgroup_presentation(Q8, M)
    resM = build_minimal_resolution(presM, 6)
    rmap = InducedMap(embedM, resM, res)
    rng = np.random.default_rng(3)
    for _ in range(8):
        f = Cocycle(1, rng.integers(0, 2, size=res.betti[1]))
        g = Cocycle(2, rng.integers(0, 2, size=res.betti[2]))
        lhs = rmap.apply(cup_product(res, f, g))
        rhs = cup_product(resM, rmap.apply(f), rmap.apply(g))
        assert np.array_equal(lhs.vec, rhs.vec)


def test_inflation_injective_on_h1():
    # inflation along G -> G/C embeds H^1 of the quotient
    from centdet.pgroup import quotient_by_central, center
    res = build_minimal_resolution(Q8, 4)
    Q, proj = quotient_by_central(Q8, center(Q8))
    resQ = build_minimal_resolution(Q, 4)
    infl = InducedMap(proj, res, resQ)
    M = infl.matrix(1)
    from centdet.fplinalg import FpMatrix, rref
    assert rref(FpMatrix(2, M))[2] == resQ.betti[1]  # injective


def test_inflation_along_identity_quotient():
    from centdet.pgroup import identity_hom
    res = build_minimal_resolution(D8, 4)
    imap = InducedMap(identity_hom(D8), res, res)
    for k in range(4):
        assert np.array_equal(imap.matrix(k), np.eye(res.betti[k], dtype=np.uint8))


def test_induced_map_refuses_resolutions_of_other_groups():
    from centdet.pgroup import identity_hom
    res = build_minimal_resolution(D8, 2)
    with pytest.raises(ValueError, match="do not match"):
        InducedMap(identity_hom(D8), build_minimal_resolution(Q8, 2), res)


# ---------------------------------------------------------------------------
# Kunneth


def test_kunneth_betti_convolution():
    Z4 = cyclic_presentation(2, 2)
    resq = build_minimal_resolution(Q8, 8)
    res4 = build_minimal_resolution(Z4, 8)
    prod = direct_product(Q8, Z4)
    kun = TensorResolution(resq, res4, prod)
    direct = build_minimal_resolution(prod, 8)
    assert kun.betti == direct.betti
    expected = [sum(resq.betti[i] * res4.betti[k - i] for i in range(k + 1))
                for k in range(9)]
    assert kun.betti == expected


def test_kunneth_trivial_factor():
    triv = PcPresentation(2, 0, [], {})
    restriv = build_minimal_resolution(triv, 6)
    resq = build_minimal_resolution(Q8, 6)
    kun = TensorResolution(restriv, resq)
    assert kun.betti == resq.betti[:7]


def test_kunneth_products_match_tensor_structure():
    # (x (x) 1) * (1 (x) y) agrees with the pair indexing, and the tensor
    # resolution's own cup product respects the factorwise products
    Z2 = cyclic_presentation(2, 1)
    res2 = build_minimal_resolution(Z2, 6)
    prod = direct_product(Z2, Z2)
    kun = TensorResolution(res2, res2, prod)
    kun_direct = build_minimal_resolution(prod, 6)
    assert kun.betti == kun_direct.betti
    x1 = np.zeros(kun.rank(1), dtype=np.uint8)
    x1[kun.pair_pos(1, (1, 0, 0))] = 1
    x2 = np.zeros(kun.rank(1), dtype=np.uint8)
    x2[kun.pair_pos(1, (0, 0, 0))] = 1
    f = Cocycle(1, x1)
    g = Cocycle(1, x2)
    fg = cup_product(kun, f, g)
    assert not fg.is_zero()
    # product of the two cross classes is the (1,1) pair class
    expect = np.zeros(kun.rank(2), dtype=np.uint8)
    expect[kun.pair_pos(2, (1, 0, 0))] = 0
    # f*g lands exactly on the mixed pair
    nz = np.flatnonzero(fg.vec)
    assert len(nz) == 1
    assert kun.pairs(2)[nz[0]] == (1, 0, 0)
    # squares land on the pure pairs
    f2 = cup_product(kun, f, f)
    nz = np.flatnonzero(f2.vec)
    assert [kun.pairs(2)[t] for t in nz] == [(2, 0, 0)]
    g2 = cup_product(kun, g, g)
    nz = np.flatnonzero(g2.vec)
    assert [kun.pairs(2)[t] for t in nz] == [(0, 0, 0)]


def test_kunneth_extend_to():
    # extending the tensor resolution extends both factors and keeps the
    # Betti numbers equal to those of the product resolved directly
    Z4 = cyclic_presentation(2, 2)
    resq = build_minimal_resolution(Q8, 3)
    res4 = build_minimal_resolution(Z4, 2)
    kun = TensorResolution(resq, res4)
    assert kun.top_degree == 2
    assert kun.extend_to(5) is kun
    assert resq.top_degree == res4.top_degree == 5
    assert kun.betti == build_minimal_resolution(direct_product(Q8, Z4), 5).betti
    kun.verify()


def test_kunneth_verify_odd_p():
    Z3 = cyclic_presentation(3, 1)
    res3 = build_minimal_resolution(Z3, 5)
    kun = TensorResolution(res3, res3)
    kun.verify(4)
    direct = build_minimal_resolution(direct_product(Z3, Z3), 5)
    assert kun.betti[:5] == direct.betti[:5]


def chosen_rows(res, k):
    """The rows d(e_j) of degree k as the build chose them, made again
    from its elimination: the ``kept`` rows of the kernel basis K below."""
    K = res.solver(k - 1).kernel_rows()
    return K[res._radical_complement(K).kept]


def reference_terms(res, k, j, chosen):
    """(coords, vals) of d(e_j) in degree k, one generator at a time: off
    the dense row that the elimination of a resolution built by it chose
    (``chosen_rows``, kept in the dict chosen), and for a TensorResolution
    by (d e_u) x e_v + (-1)^i e_u x (d e_v), (i, u, v) the pair of e_j,
    from its factors' reference terms."""
    if not isinstance(res, TensorResolution):
        if (id(res), k) not in chosen:
            chosen[id(res), k] = chosen_rows(res, k)
        row = chosen[id(res), k][j]
        nz = np.flatnonzero(row)
        return nz, row[nz]
    i, u, v = res.pairs(k)[j]
    coords, vals = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.uint8)]
    if i >= 1:
        nz, alpha = reference_terms(res.resA, i, u, chosen)
        pos = res.pair_pos(k - 1, (i - 1, nz // res.orderA, v))
        coords.append(pos * res.order + nz % res.orderA * res.orderB)
        vals.append(alpha)
    if k - i >= 1:
        nz, beta = reference_terms(res.resB, k - i, v, chosen)
        pos = res.pair_pos(k - 1, (i, u, nz // res.orderB))
        sign = 1 if i % 2 == 0 else res.p - 1
        coords.append(pos * res.order + nz % res.orderB)
        vals.append((beta.astype(np.int64) * sign % res.p).astype(np.uint8))
    return np.concatenate(coords), np.concatenate(vals)


TENSOR_CASES = {
    "D8xZ4@8": lambda: Workspace().resolution(builtin("D8xZ4").pres, 8),
    "Q8xD8@6": lambda: Workspace().resolution(builtin("Q8xD8").pres, 6),
    "D8xZ4xZ2@5": lambda: Workspace().resolution(builtin("D8xZ4xZ2").pres, 5),
    # Z3 x H27 at p = 3, where the Koszul sign is not 1
    "H27-coaction@10": lambda: build_comodule(load_pcp(H27), 10)[2].kun,
}


@pytest.mark.parametrize("case", list(TENSOR_CASES))
def test_tensor_terms_match_the_per_generator_formula(case):
    res = TENSOR_CASES[case]()
    assert isinstance(res, TensorResolution)
    if case == "D8xZ4xZ2@5":
        assert TensorResolution in {type(res.resA), type(res.resB)}
    chosen = {}
    for k in range(1, res.top_degree + 1):
        indptr, coords, vals = res.gen_terms(k)
        n = res.rank(k)
        assert indptr.shape == (n + 1,) and indptr[-1] == coords.size == vals.size
        assert coords.dtype == np.int64 and vals.dtype == np.uint8
        want = set()
        for j in range(n):
            c, v = reference_terms(res, k, j, chosen)
            lo, hi = indptr[j], indptr[j + 1]
            assert np.array_equal(coords[lo:hi], c) and np.array_equal(vals[lo:hi], v), (k, j)
            want |= set(zip([j] * len(c), c.tolist(), v.tolist()))
        owner = np.repeat(np.arange(n), np.diff(indptr))
        assert set(zip(owner.tolist(), coords.tolist(), vals.tolist())) == want, k
        assert res.gen_terms(k)[1] is coords, k  # built once per degree


def test_each_factor_degree_is_made_sparse_once(capsys, monkeypatch):
    # a served product asks its factors for the form of every lower degree
    # at each of its own degrees; the build makes each degree's form once,
    # from the rows it chose: one form per degree that each from-scratch
    # resolution built, and degree 0's of every resolution, no more
    made, created = [], []
    make, init = resolution._sparse_rows, resolution.MinimalResolution.__init__

    def counted(rows):
        made.append(make(rows))  # kept, so no id is reused while counting
        return made[-1]

    def recorded(self, *args, **kwargs):
        created.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(resolution, "_sparse_rows", counted)
    monkeypatch.setattr(resolution.MinimalResolution, "__init__", recorded)
    ws = Workspace()
    monkeypatch.setattr(cli, "Workspace", lambda budget, **kw: ws)
    assert cli.main(["invariants", "D8xZ4", "--degree", "10"]) == 0
    capsys.readouterr()
    factors = [ws.resolution(builtin(gid).pres, 0) for gid in ("D8", "Z4")]
    assert [res.top_degree for res in factors] == [10, 10]
    assert {id(res) for res in factors} <= {id(res) for res in created}
    assert any(isinstance(res, TensorResolution) for res in created)
    built = [res.gen_terms(k) for res in created
             for k in range(1 if isinstance(res, TensorResolution) else res.top_degree + 1)]
    assert sorted(map(id, made)) == sorted(map(id, built))


# ---------------------------------------------------------------------------
# comodule structure


def build_comodule(G, N):
    res = build_minimal_resolution(G, N)
    C = omega1_center(G)
    presC, embedC, _ = subgroup_presentation(G, C)
    resC = build_minimal_resolution(presC, N)
    return res, resC, ComoduleMap(res, C, resC)


def test_negative_degree_raises():
    # maps[-1] would silently read the top lifted degree
    res = build_minimal_resolution(Q8, 3)
    C = omega1_center(Q8)
    presC, embedC, _ = subgroup_presentation(Q8, C)
    resC = build_minimal_resolution(presC, 3)
    rmap = InducedMap(embedC, resC, res)
    rmap.matrix(3)
    for read in (rmap.matrix, rmap._chain.functional_matrix,
                 ComoduleMap(res, C, resC).primitive_basis):
        with pytest.raises(IndexError):
            read(-1)


def test_comodule_counit():
    for G in (Q8, D8, cyclic_presentation(2, 2)):
        res, resC, cm = build_comodule(G, 5)
        for k in range(5):
            M = cm.matrix(k)
            rows = [cm.kun.pair_pos(k, (0, 0, v)) for v in range(res.betti[k])]
            assert np.array_equal(M[rows], np.eye(res.betti[k], dtype=np.uint8))


def test_comodule_counit_via_machinery():
    # the structural 1 (x) x map equals the machinery's induced projection
    from centdet.pgroup import GroupHom
    res, resC, cm = build_comodule(Q8, 4)
    prod = cm.kun.pres
    proj = GroupHom(prod, Q8, [0] * resC.pres.n + list(Q8.generators()))
    pim = InducedMap(proj, cm.kun, res)
    for k in range(4):
        assert np.array_equal(pim.matrix(k), cm.pi_star_matrix(k))


def test_comodule_restriction_compatibility():
    # (1 (x) eps) o m* = i*: the (i, 0)-components give the restriction
    res, resC, cm = build_comodule(Q8, 6)
    presC, embedC, _ = subgroup_presentation(Q8, omega1_center(Q8))
    rmap = InducedMap(embedC, resC, res)
    for k in range(1, 6):
        M = cm.matrix(k)
        rows = [cm.kun.pair_pos(k, (k, u, 0)) for u in range(resC.betti[k])]
        assert np.array_equal(M[rows], rmap.matrix(k))


def test_pair_pos_matches_pairs_index():
    # the closed-form position agrees with the enumerated pair list, for
    # scalar triples and for u or v given as arrays, and block(k, i) is
    # the index range of the (i, ., .) pairs
    _, _, cm = build_comodule(builtin("D8xZ4").pres, 6)
    kun = cm.kun
    for k in range(7):
        pairs = kun.pairs(k)
        for j, triple in enumerate(pairs):
            assert kun.pair_pos(k, triple) == pairs.index(triple) == j
        for i in range(k + 1):
            block = kun.block(k, i)
            assert list(range(len(pairs))[block]) == [
                j for j, (t, _, _) in enumerate(pairs) if t == i]
            bA, bB = kun.resA.betti[i], kun.resB.betti[k - i]
            for u in range(bA):
                vs = np.arange(bB)
                expect = [pairs.index((i, u, v)) for v in vs]
                assert kun.pair_pos(k, (i, u, vs)).tolist() == expect
            for v in range(bB):
                us = np.arange(bA)
                expect = [pairs.index((i, u, v)) for u in us]
                assert kun.pair_pos(k, (i, us, v)).tolist() == expect


def test_comodule_primitives_of_self():
    # over itself, an elementary abelian group has primitives only in degree 0
    V = elem_abelian(2, 2)
    res = build_minimal_resolution(V, 5)
    C = whole_group(V)
    presC, embedC, _ = subgroup_presentation(V, C)
    resC = build_minimal_resolution(presC, 5)
    cm = ComoduleMap(res, C, resC)
    assert cm.primitive_basis(0).dim == 1
    for k in range(1, 5):
        assert cm.primitive_basis(k).dim == 0


def test_comodule_coassociativity_z4(monkeypatch):
    # (Delta_C (x) 1) m* = (1 (x) m*) m* in degrees 0..4, on images that
    # are never empty; a coaction that sends every class to 0 is refused
    Z4 = cyclic_presentation(2, 2)
    assert coassociativity_defect(Workspace(), Z4, 4) is None
    monkeypatch.setattr(ComoduleMap, "matrix",
                        lambda self, k: np.zeros((self.kun.rank(k), self.res_G.rank(k)),
                                                 dtype=np.uint8))
    assert coassociativity_defect(Workspace(), Z4, 4) == (
        "coaction of basis class 0 is empty in degree 0")


# ---------------------------------------------------------------------------
# batched chain-map lifts against the per-generator reference


def apply_map_to_vec(prev_rows, coords, vals, order_src, phi_table, tgt_res, width, p):
    """Image of a source vector under a module map given on generators.

    prev_rows[w] is the image of source generator w; the vector is
    sum_{(w,s)} vals * s.e_w, so the image is sum vals * phi(s).prev_rows[w],
    grouped by the group element s to keep translations vectorized.
    """
    if p == 2:
        out = np.zeros(width, dtype=np.uint8)
    else:
        out = np.zeros(width, dtype=np.int64)
    if coords.size == 0:
        return out.astype(np.uint8)
    w_idx = coords // order_src
    s_idx = coords % order_src
    gather = tgt_res.pres.left_inv_gather()
    order_t = tgt_res.order
    blocks = width // order_t
    for s in np.unique(s_idx):
        sel = s_idx == s
        ws = w_idx[sel]
        if p == 2:
            if ws.size == 1:
                combo = prev_rows[ws[0]]
            else:
                combo = np.bitwise_xor.reduce(prev_rows[ws], axis=0)
        else:
            combo = (vals[sel].astype(np.int64) @ prev_rows[ws].astype(np.int64)) % p
        g = int(phi_table[s])
        moved = combo.reshape(blocks, order_t)[:, gather[g]].ravel()
        if p == 2:
            out ^= moved.astype(np.uint8)
        else:
            out += moved
    if p != 2:
        out %= p
    return out.astype(np.uint8)


def reference_maps(cm, t_max):
    """The lifts of cm, one generator and one solve at a time, against a
    factorization of the full d_t made here, not the resolution's own."""
    p = cm.tgt.p
    maps = [cm.maps[0]]
    for t in range(1, t_max + 1):
        src_deg = cm.shift + t
        solver = LinSolver(FpMatrix(p, cm.tgt.expanded_diff(t), check=False))
        rows = np.zeros((cm.src.rank(src_deg), solver.cols_n), dtype=np.uint8)
        indptr, coords, vals = cm.src.gen_terms(src_deg)
        for j in range(len(rows)):
            lo, hi = indptr[j], indptr[j + 1]
            rhs = apply_map_to_vec(maps[t - 1], coords[lo:hi], vals[lo:hi], cm.src.order,
                                   cm.phi, cm.tgt, maps[t - 1].shape[1], p)
            rows[j] = solver.solve(rhs)
        maps.append(rows)
    return maps


def cocycle_case(G, N, degree, seed):
    res = build_minimal_resolution(G, N)
    vec = np.random.default_rng(seed).integers(0, G.p, size=res.rank(degree))
    vec[0] = 1
    return resolution._cocycle_chain(res, Cocycle(degree, vec)), N - degree


def restriction_case(G, N):
    res = build_minimal_resolution(G, N)
    presH, embedH, _ = subgroup_presentation(G, maximal_subgroups(G)[0])
    return InducedMap(embedH, build_minimal_resolution(presH, N), res)._chain, N


def comodule_case(G, N):
    return build_comodule(G, N)[2]._induced._chain, N


LIFT_CASES = {
    "Q8-cocycle": lambda: cocycle_case(Q8, 7, 2, 0),
    "32#18-cocycle": lambda: cocycle_case(builtin("32#18").pres, 6, 2, 2),
    "E27-restriction": lambda: restriction_case(E27, 6),
    "D8-comodule": lambda: comodule_case(D8, 5),
    "E27-comodule": lambda: comodule_case(E27, 4),
    # p > 128: two residues can sum past 255 when slices add into one row
    "Z251-cocycle": lambda: cocycle_case(cyclic_presentation(251, 1), 6, 2, 3),
}


def record_translations(monkeypatch):
    """Per lifted degree, the (g, w) pairs handed to resolution._translate."""
    degrees: list[list[tuple[int, int]]] = []
    translate, solve_degree = resolution._translate, resolution.ChainMap._solve_degree

    def counting_translate(prev_blocks, g, w, gather, out):
        degrees[-1].extend(zip(g.tolist(), w.tolist()))
        return translate(prev_blocks, g, w, gather, out)

    def counting_solve_degree(cm, *args):
        degrees.append([])
        return solve_degree(cm, *args)

    monkeypatch.setattr(resolution, "_translate", counting_translate)
    monkeypatch.setattr(resolution.ChainMap, "_solve_degree", counting_solve_degree)
    return degrees


@pytest.mark.parametrize("one_per_chunk", [False, True], ids=["chunked", "one-per-chunk"])
@pytest.mark.parametrize("case", list(LIFT_CASES))
def test_batched_lifts_match_per_generator_reference(case, one_per_chunk, monkeypatch):
    if one_per_chunk:
        monkeypatch.setattr(resolution, "_LIFT_CHUNK_BYTES", 0)
    cm, t_max = LIFT_CASES[case]()
    sizes, solved = [], []
    translate, lift_rows = resolution._translate, cm.tgt.lift_rows

    def sized_translate(prev_blocks, g, w, gather, out):
        sizes.append(len(w))
        return translate(prev_blocks, g, w, gather, out)

    def sized_lift_rows(t, B):
        solved.append(len(B))
        return lift_rows(t, B)

    monkeypatch.setattr(resolution, "_translate", sized_translate)
    monkeypatch.setattr(cm.tgt, "lift_rows", sized_lift_rows)
    cm.extend_to(t_max)
    n_rows = sum(cm.src.rank(cm.shift + t) for t in range(1, t_max + 1))
    assert sum(solved) == n_rows
    if one_per_chunk:
        # with no room, every slice of pairs holds one pair and every solve one row
        assert sizes and set(sizes) == {1}
        assert solved == [1] * n_rows
    want = reference_maps(cm, t_max)
    assert len(cm.maps) == len(want)
    for t, (got, ref) in enumerate(zip(cm.maps, want)):
        assert got.dtype == np.uint8 and np.array_equal(got, ref), t


@pytest.mark.parametrize("cap", [None, 4096], ids=["default-cap", "4k-cap"])
@pytest.mark.parametrize("case", ["32#18-cocycle", "E27-comodule"])
def test_each_pair_is_translated_once_per_degree(case, cap, monkeypatch):
    # a 4k cap cuts most degrees into several slices of pairs
    if cap is not None:
        monkeypatch.setattr(resolution, "_LIFT_CHUNK_BYTES", cap)
    cm, t_max = LIFT_CASES[case]()
    degrees = record_translations(monkeypatch)
    cm.extend_to(t_max)
    assert len(degrees) == t_max
    for t, moved in enumerate(degrees, start=1):
        _, coords, _ = cm.src.gen_terms(cm.shift + t)
        want = set(zip(cm.phi[coords % cm.src.order].tolist(),
                       (coords // cm.src.order).tolist()))
        assert len(moved) == len(want) and set(moved) == want, t
    for t, (got, ref) in enumerate(zip(cm.maps, reference_maps(cm, t_max))):
        assert np.array_equal(got, ref), t


@pytest.mark.parametrize("t", [9, 10])
def test_one_degree_of_a_coaction_lift_stays_within_its_memory_bound(t):
    # H27 at degree 10, the largest coaction lift of the report_p3 ladder:
    # one degree may hold twice _LIFT_CHUNK_BYTES besides its right-hand
    # sides and its solutions.  Degree 9 is lifted; degree 10, the top, is
    # read modulo the radical.  Assembling a whole degree in one slice peaks
    # at 6.2 and 10.3 MB here, against a bound of 4.2 MB.
    res, _, comodule = build_comodule(load_pcp(H27), 10)
    cm = comodule._induced._chain
    cm.extend_to(t - 1)
    cm.src.gen_terms(t)  # the source's sparse rows are kept
    res.solver(t - 1)
    if t < res.top_degree:
        res.solver(t)
    n, width = cm.src.rank(t), cm.maps[t - 1].shape[1]
    per_gen = res.order if t < res.top_degree else 1
    output = n * width + n * res.rank(t) * per_gen
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        if t < res.top_degree:
            cm.extend_to(t)
        else:
            cm.functional_matrix(t)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 2 * resolution._LIFT_CHUNK_BYTES + output, (peak, output)


# ---------------------------------------------------------------------------
# solves on the rows that determine each differential

H27 = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "perfbench", "inputs", "H27.pcp")
# extraspecial of order 125 and exponent 5
E125 = PcPresentation(5, 3, [(0, 0, 0)] * 3, {(1, 0): (0, 0, 1)})

RESTRICTED_CASES = {
    "Q8@7": lambda: (Q8, 7),
    "32#18@6": lambda: (builtin("32#18").pres, 6),
    "E27@6": lambda: (E27, 6),
    "H27@6": lambda: (load_pcp(H27), 6),
    "E125@3": lambda: (E125, 3),
}


# products a Workspace serves as TensorResolutions of their factors
SERVED_CASES = {
    "D8xZ4@5-served": lambda: (builtin("D8xZ4").pres, 5),
    "H27xZ3@3-served": lambda: (direct_product(load_pcp(H27), cyclic_presentation(3, 1)), 3),
}


def lift_target(case):
    """A fresh resolution of the case: built from scratch, or served."""
    if case in SERVED_CASES:
        G, N = SERVED_CASES[case]()
        res = Workspace().resolution(G, N)
        assert isinstance(res, TensorResolution)
        return res, N
    G, N = RESTRICTED_CASES[case]()
    return build_minimal_resolution(G, N), N


@pytest.mark.parametrize("case", list(RESTRICTED_CASES) + list(SERVED_CASES))
def test_lift_rows_match_a_solver_of_the_full_differential(case):
    res, N = lift_target(case)
    p, rng = res.p, np.random.default_rng(7)
    for t in range(1, N + 1):
        D = res.expanded_diff(t)
        full = LinSolver(FpMatrix(p, D, check=False))
        X = rng.integers(0, p, size=(4, D.shape[1]))
        B = matmul_mod(X, D.T, p)
        got = res.lift_rows(t, B)
        assert got.dtype == np.uint8
        assert np.array_equal(got, np.array([full.solve(b) for b in B])), t
        assert np.array_equal(matmul_mod(got, D.T, p), B), t
        # the rows P of d_t that solver(t) factors have the row space of d_t
        solver = res.solver(t)
        assert (solver.rank, solver.pivots) == (full.rank, full.pivots), t
        assert np.array_equal(solver.kernel_rows(), full.kernel_rows()), t
        # and P leads the RREF basis rows of ker d_{t-1}
        prev = res.solver(t - 1)
        assert np.array_equal(free_columns(prev), np.argmax(prev.kernel_rows() != 0, axis=1))
        # b + e_0 leaves ker d_{t-1}: column 0 of d_{t-1} is d(e_0) != 0,
        # and the augmentation of e_0 is 1
        bad = B[0].copy()
        bad[0] = (bad[0] + 1) % p
        below = (np.ones((1, res.order), dtype=np.uint8) if t == 1
                 else res.expanded_diff(t - 1))
        assert matmul_mod(below, bad[:, None], p).any()
        assert res.lift_rows(t, bad[None, :]) is None, t
        assert res.lift_rows(t, np.vstack([B, bad])) is None, t
    # a refused lift into the top degree factors no d_N
    fresh, _ = lift_target(case)
    assert fresh.lift_rows(N, bad[None, :]) is None
    assert N not in fresh._solvers


@pytest.mark.parametrize("case", list(RESTRICTED_CASES))
def test_chain_map_refuses_an_image_outside_the_kernel(case):
    G, N = RESTRICTED_CASES[case]()
    res = build_minimal_resolution(G, N)
    cm = resolution._cocycle_chain(res, Cocycle(1, np.eye(res.rank(1), dtype=np.uint8)[0]))
    cm.extend_to(1)
    cm.maps[1] = np.random.default_rng(3).integers(0, G.p, size=cm.maps[1].shape,
                                                   dtype=np.uint8)
    with pytest.raises(AssertionError, match="chain-map lift system inconsistent"):
        cm.extend_to(2)


# ---------------------------------------------------------------------------
# the top degree, read modulo the radical

W23 = os.path.join(os.path.dirname(H27), "W23.pcp")

TOP_CASES = {
    "D8@5": lambda: (D8, 5),
    "32#18@4": lambda: (builtin("32#18").pres, 4),
    "H27@5": lambda: (load_pcp(H27), 5),
    "W23@2": lambda: (load_pcp(W23), 2),
    "Z5xZ25@3": lambda: (direct_product(cyclic_presentation(5, 1), cyclic_presentation(5, 2)), 3),
}


@pytest.mark.parametrize("case", list(TOP_CASES))
def test_top_degree_reads_match_the_lifts_of_a_deeper_resolution(case):
    # at the top degree N the restriction to C and the coaction are read
    # modulo the radical; through a resolution extended to N + 1 they are
    # lifted, and so is every cup product, which lifts below the top
    G, N = TOP_CASES[case]()
    C = omega1_center(G)
    presC, embedC, _ = subgroup_presentation(G, C)
    resC = build_minimal_resolution(presC, N)
    read = {}
    for route, res in (("top", build_minimal_resolution(G, N)),
                       ("lifted", build_minimal_resolution(G, N + 1))):
        restriction = InducedMap(embedC, resC, res)
        coaction = ComoduleMap(res, C, resC)
        f = Cocycle(1, np.eye(res.rank(1), dtype=np.uint8)[0])
        g = Cocycle(N - 1, np.eye(res.rank(N - 1), dtype=np.uint8)[-1])
        read[route] = (restriction.matrix(N), coaction.matrix(N), cup_product(res, f, g).vec)
        lifted = len(restriction._chain.maps) - 1
        assert lifted == (N - 1 if route == "top" else N), route
        assert (N in res._solvers) == (route == "lifted"), route
    for name, top, want in zip(("restriction", "coaction", "cup"), read["top"], read["lifted"]):
        assert top.dtype == np.uint8 and np.array_equal(top, want), name


@pytest.mark.parametrize("case", list(RESTRICTED_CASES))
def test_top_classes_refuse_an_image_outside_the_kernel(case):
    G, N = RESTRICTED_CASES[case]()
    res = build_minimal_resolution(G, N)
    p, rng = G.p, np.random.default_rng(7)
    D = res.expanded_diff(N)
    X = rng.integers(0, p, size=(4, D.shape[1])).astype(np.uint8)
    B = matmul_mod(X, D.T, p)
    # the classes of the preimages X modulo the radical are their block sums
    assert np.array_equal(res.top_classes(B), res.block_sums(X, res.rank(N)))
    bad = B[0].copy()
    bad[0] = (bad[0] + 1) % p  # leaves ker d_{N-1}, as in the lift_rows test
    assert res.top_classes(bad[None, :]) is None
    assert res.top_classes(np.vstack([B, bad])) is None
    cm = restriction_case(G, N)[0]
    cm.extend_to(N - 1)
    cm.maps[N - 1] = rng.integers(0, p, size=cm.maps[N - 1].shape, dtype=np.uint8)
    with pytest.raises(AssertionError, match="chain-map lift system inconsistent"):
        cm.functional_matrix(N)
    assert N not in cm.tgt._solvers


def test_report_builds_no_solver_of_the_top_differential(capsys, monkeypatch):
    built = []
    solver = resolution.MinimalResolution.solver

    def recorded_solver(self, i):
        if i not in self._solvers:
            built.append((self.order, i))
        return solver(self, i)

    monkeypatch.setattr(resolution.MinimalResolution, "solver", recorded_solver)
    assert cli.main(["invariants", W23, "--degree", "2"]) == 0
    capsys.readouterr()
    assert (243, 1) in built and (243, 2) not in built, built


@pytest.mark.parametrize("group,N", [(H27, 10), ("64#187", 8)], ids=["H27", "64#187"])
def test_reports_factor_no_dense_differential(capsys, monkeypatch, group, N):
    dense, built = [], []
    expanded = resolution.MinimalResolution.expanded_diff
    solver = resolution.MinimalResolution.solver

    def counted_expanded(self, i):
        dense.append((self.order, i))
        return expanded(self, i)

    def collected_solver(self, i):
        built.append(solver(self, i))
        return built[-1]

    monkeypatch.setattr(resolution.MinimalResolution, "expanded_diff", counted_expanded)
    monkeypatch.setattr(resolution.MinimalResolution, "solver", collected_solver)
    assert cli.main(["invariants", group, "--degree", str(N)]) == 0
    capsys.readouterr()
    assert dense == []
    assert built and all(s.rows_n == s.rank for s in built)


# ---------------------------------------------------------------------------
# rad*K spanned by the Burnside generators


def all_generator_radical(res, K):
    """The elimination of rad*K from the rows g.k - k of all n pc generators
    g, in the coordinates of the basis K, with (g.v)[b, x] = v[b, g^-1 x]
    read off the multiplication table."""
    G, order, p = res.pres, res.order, res.p
    P = np.argmax(K != 0, axis=1)
    blocks = []
    for g in G.generators():
        moved = K.reshape(len(K), -1, order)[:, :, G.mult_table()[G.inv(g)]].reshape(K.shape)
        diff = (moved.astype(np.int64) - K) % p
        blocks.append(diff[:, P][:, ::-1].astype(np.uint8))
    rows, pivots = stacked_pivots(blocks, len(K), p)
    return QuotientCoords(rows, pivots, len(K), p)


def plain_d8xd8():
    G = builtin("D8xD8").pres
    return PcPresentation(G.p, G.n, G.power_rels, G.comm_rels), 4


BURNSIDE_CASES = {
    **{f"{gid}@5": lambda gid=gid: (builtin(gid).pres, 5) for gid in QUICK_CORPUS},
    "W23@2": lambda: (load_pcp(W23), 2),
    "H27@8": lambda: (load_pcp(H27), 8),
    "Z9xZ9@6": lambda: (load_pcp(os.path.join(os.path.dirname(H27), "Z9xZ9.pcp")), 6),
    "plain-D8xD8@4": plain_d8xd8,
}


@pytest.mark.parametrize("case", list(BURNSIDE_CASES))
def test_radical_from_burnside_generators_matches_all_generators(case, monkeypatch):
    G, N = BURNSIDE_CASES[case]()
    stacked = []

    def counted(blocks, ncols, p):
        blocks = list(blocks)
        stacked.append(len(blocks))
        return stacked_pivots(blocks, ncols, p)

    monkeypatch.setattr(resolution, "stacked_pivots", counted)
    res = build_minimal_resolution(G, N)
    assert stacked == [len(G.burnside_generators())] * N
    betti = [1]
    for i in range(1, N + 1):
        K = res.solver(i - 1).kernel_rows()
        want = all_generator_radical(res, K)
        # the top degree's reduction is the one the build kept
        got = res._top[1] if i == N else res._radical_complement(K)
        assert np.array_equal(got.kept, want.kept), i
        assert np.array_equal(got.red, want.red), i
        assert np.array_equal(got._block_t, want._block_t), i
        assert np.array_equal(res._gen_rows(i), K[want.kept]), i
        betti.append(len(want.kept))
    assert res.betti == betti


def test_dropping_a_generator_breaks_the_next_solver():
    res = build_minimal_resolution(D8, 4)
    indptr, coords, vals = res.gen_terms(3)
    res._terms = {k: t for k, t in res._terms.items() if k < 3}
    res._terms[3] = (indptr[:-1], coords[:indptr[-2]], vals[:indptr[-2]])
    res.betti = res.betti[:3] + [res.betti[3] - 1]
    res._solvers = {i: s for i, s in res._solvers.items() if i < 3}
    with pytest.raises(AssertionError, match="not exact at degree 2"):
        res.solver(3)
    with pytest.raises(AssertionError, match="not exact at degree 2"):
        res.extend_to(4)


# ---------------------------------------------------------------------------
# d o d = 0 from the sparse rows


def dense_fault(res):
    """``complex_fault`` read off the full dense differential: the block sums
    of the rows d(e_j) of degree i, then d_{i-1} times those rows."""
    for i in range(1, res.top_degree + 1):
        gens = res._gen_rows(i)
        if res.block_sums(gens, res.betti[i - 1]).any():
            return f"differential d_{i} is not minimal"
        if i >= 2 and matmul_mod(res.expanded_diff(i - 1), gens.T, res.p).any():
            return f"d_{i - 1} o d_{i} != 0"
    return None


def mutated_forms(res, rng):
    """Seeded changes of one degree's sparse rows, as (degree, form): the sum
    of two rows (minimal and in ker d_{i-1}, so d_i o d_{i+1} breaks), at
    odd p one value scaled by 2, one row made non-minimal, and one row moved
    by x - y inside a block (still minimal, so d_{i-1} o d_i breaks)."""
    p, top = res.p, res.top_degree
    i = int(rng.integers(2, top))
    gens = res._gen_rows(i)
    j0, j1 = rng.choice(len(gens), 2, replace=False)
    gens[j0] = (gens[j0].astype(np.int64) + gens[j1]) % p
    yield i, resolution._sparse_rows(gens)
    if p > 2:
        i = int(rng.integers(1, top + 1))
        indptr, coords, vals = res.gen_terms(i)
        vals = vals.copy()
        t = rng.integers(vals.size)
        vals[t] = int(vals[t]) * 2 % p
        yield i, (indptr, coords, vals)
    i = int(rng.integers(1, top + 1))
    gens = res._gen_rows(i)
    j, c = rng.integers(len(gens)), rng.integers(gens.shape[1])
    gens[j, c] = (int(gens[j, c]) + 1) % p
    yield i, resolution._sparse_rows(gens)
    i = int(rng.integers(2, top + 1))
    gens = res._gen_rows(i)
    j, (c, c2) = rng.integers(len(gens)), rng.choice(res.order, 2, replace=False)
    w = res.order * rng.integers(res.betti[i - 1])
    gens[j, w + c] = (int(gens[j, w + c]) + 1) % p
    gens[j, w + c2] = (int(gens[j, w + c2]) + p - 1) % p
    yield i, resolution._sparse_rows(gens)


DD_CASES = {
    "D8@6": lambda: build_minimal_resolution(D8, 6),
    "32#18@6": lambda: build_minimal_resolution(builtin("32#18").pres, 6),
    "H27@6": lambda: build_minimal_resolution(load_pcp(H27), 6),
    "E27@5": lambda: build_minimal_resolution(E27, 5),
    "D8xZ4@5": lambda: Workspace().resolution(builtin("D8xZ4").pres, 5),
    "H27-coaction@5": lambda: build_comodule(load_pcp(H27), 5)[2].kun,
}


@pytest.mark.parametrize("case", list(DD_CASES))
def test_sparse_dd_check_matches_the_dense_reference(case):
    res = DD_CASES[case]()
    assert isinstance(res, TensorResolution) == (case in ("D8xZ4@5", "H27-coaction@5"))
    assert res.complex_fault() is None
    assert dense_fault(res) is None
    for i, form in mutated_forms(res, np.random.default_rng(0)):
        kept, res._terms[i] = res._terms[i], form
        fault = res.complex_fault()
        assert fault is not None and fault == dense_fault(res), (i, fault)
        res._terms[i] = kept


NO_DENSE_CASES = {
    "plain-D8xD8@5": lambda: build_minimal_resolution(plain_d8xd8()[0], 5),
    "D8xZ4@5": lambda: Workspace().resolution(builtin("D8xZ4").pres, 5),
}


@pytest.mark.parametrize("case", list(NO_DENSE_CASES))
def test_complex_checks_make_no_dense_differential(monkeypatch, case):
    res = NO_DENSE_CASES[case]()
    dense = []
    expanded = resolution.MinimalResolution.expanded_diff

    def counted_expanded(self, i):
        dense.append((self.order, i))
        return expanded(self, i)

    monkeypatch.setattr(resolution.MinimalResolution, "expanded_diff", counted_expanded)
    assert res.complex_fault() is None
    res.verify()
    assert dense == []


# ---------------------------------------------------------------------------
# ring fragment


def test_fragment_generators():
    res = build_minimal_resolution(Q8, 6)
    frag = CohomologyFragment(res)
    # H*(Q8): two degree-1 generators and the degree-4 periodicity class
    assert frag.generator_counts(5) == [0, 2, 0, 0, 1, 0]


@pytest.mark.parametrize("name", ["Q8", "D8xZ4", "E27"])
def test_decomposables_match_all_explicit_products(name):
    G = builtin(name).pres if name == "D8xZ4" else {"Q8": Q8, "E27": E27}[name]
    # Q8 to degree 9, so that its degree-4 generator acts at k = 8 and 9
    N = 9 if name == "Q8" else 6
    res = build_minimal_resolution(G, N)
    frag = CohomologyFragment(res)
    for k in range(2, N + 1):
        products = [cup_product(res, f, g).vec
                    for i in range(1, k) for f in frag.basis(i) for g in frag.basis(k - i)]
        want = FpSubspace.from_spanning(res.p, res.rank(k), np.array(products))
        assert frag.decomposable_subspace(k) == want, k
    if name == "Q8":
        assert len(frag._generators(4)) == 1


@pytest.mark.parametrize("G,N,counts", [
    (builtin("64#187").pres, 10, [0, 4, 0, 0, 4, 0, 8, 0, 2, 6, 0]),
    (E27, 10, [0, 2, 4, 2, 0, 0, 1, 0, 0, 0, 0]),
], ids=["64#187", "E27"])
def test_generator_counts_with_high_degree_generators(G, N, counts):
    frag = CohomologyFragment(build_minimal_resolution(G, N))
    assert frag.generator_counts(N) == counts


def test_decomposables_lift_only_the_chosen_generators():
    res = build_minimal_resolution(builtin("32#18").pres, 10)
    frag = CohomologyFragment(res)
    counts = frag.generator_counts(10)
    # one cup chain map per generator of degree <= 5: 2 + 5, not the 41
    # basis classes of degrees 1..5
    assert len(res._cup_lifts) == sum(counts[1:6]) == 7
    chosen = [g.key() for i in range(1, 6) for g in frag._generators(i)]
    assert sorted(res._cup_lifts) == sorted(chosen)


def test_product_span_lifts_nothing_over_a_zero_below():
    res = build_minimal_resolution(builtin("D8").pres, 6)
    gens = [Cocycle(1, row) for row in np.eye(res.rank(1), dtype=np.uint8)]
    zero = [FpSubspace.zero(2, res.rank(k)) for k in range(7)]
    for k in range(7):
        assert resolution.product_span(res, k, gens, zero).dim == 0
    assert res._cup_lifts == {}
    # one nonzero degree below lifts each generator once
    below = zero[:3] + [FpSubspace.full(2, res.rank(3))] + zero[4:]
    assert resolution.product_span(res, 4, gens, below).dim > 0
    assert len(res._cup_lifts) == len(gens)


def test_fragment_generators_w32():
    W = PcPresentation(
        2, 5,
        [(0, 0, 1, 0, 0), (0, 0, 0, 0, 1), (0,) * 5, (0,) * 5, (0,) * 5],
        {(1, 0): (0, 0, 0, 1, 0)},
    )
    res = build_minimal_resolution(W, 4)
    frag = CohomologyFragment(res)
    # x, y in degree 1; alpha, beta, gamma, u, v in degree 2
    assert frag.generator_counts(3) == [0, 2, 5, 0]
