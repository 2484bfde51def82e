import numpy as np
import pytest

from centdet import resolution
from centdet.catalog import builtin
from centdet.fplinalg import FpSubspace, intersect, matmul_mod, subspace_sum
from centdet.pgroup import (
    PcPresentation,
    Subgroup,
    cyclic_presentation,
    direct_product,
    omega1_center,
    subgroup_presentation,
)
from centdet.invariants import (
    Analyzer,
    GroupType,
    Workspace,
)
from centdet.resolution import (
    Cocycle,
    MinimalResolution,
    TensorResolution,
    cup_product,
    product_span,
)

WS = Workspace()


def elem_abelian(p, n):
    return PcPresentation(p, n, [(0,) * n] * n, {})


Q8 = PcPresentation(2, 3, [(0, 0, 1), (0, 0, 1), (0, 0, 0)], {(1, 0): (0, 0, 1)})
D8 = PcPresentation(2, 3, [(0, 0, 0), (0, 0, 1), (0, 0, 0)], {(1, 0): (0, 0, 1)})
W32 = PcPresentation(
    2, 5,
    [(0, 0, 1, 0, 0), (0, 0, 0, 0, 1), (0,) * 5, (0,) * 5, (0,) * 5],
    {(1, 0): (0, 0, 0, 1, 0)},
)
# universal 3-central group of order 3^5: both p-th powers and the
# commutator of the two lifts generate the rank-3 socle
W23 = PcPresentation(
    3, 5,
    [(0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0,) * 5, (0,) * 5, (0,) * 5],
    {(1, 0): (0, 0, 0, 0, 1)},
)
# extraspecial of order 27 and exponent 3
H27 = PcPresentation(3, 3, [(0, 0, 0)] * 3, {(1, 0): (0, 0, 1)})


def semidihedral(k):
    n = k
    pow_rels = [(0,) * n]
    for i in range(1, n):
        w = [0] * n
        if i + 1 < n:
            w[i + 1] = 1
        pow_rels.append(tuple(w))
    comm = {}
    w = [0] * n
    for t in range(2, n - 1):
        w[t] = 1
    comm[(1, 0)] = tuple(w)
    for i in range(2, n - 1):
        w = [0] * n
        for t in range(i + 1, n):
            w[t] = 1
        comm[(i, 0)] = tuple(w)
    return PcPresentation(2, n, pow_rels, comm)


# ---------------------------------------------------------------------------
# restriction image and type


def test_restriction_image_elementary_abelian():
    a = WS.analyzer(elem_abelian(2, 2), 5)
    assert a.restriction_image_dims() == tuple(a.res.betti[:6])


def test_restriction_image_z4():
    a = WS.analyzer(cyclic_presentation(2, 2), 8)
    assert a.restriction_image_dims() == (1, 0, 1, 0, 1, 0, 1, 0, 1)


def test_restriction_image_q8():
    a = WS.analyzer(Q8, 8)
    assert a.restriction_image_dims() == (1, 0, 0, 0, 1, 0, 0, 0, 1)


@pytest.mark.parametrize(
    "G,N,expected",
    [
        (Q8, 8, (4,)),
        (cyclic_presentation(2, 2), 6, (2,)),
        (cyclic_presentation(2, 4), 6, (2,)),
        (D8, 6, (2,)),
        (W32, 6, (2, 2, 2)),
        (elem_abelian(2, 3), 4, (1, 1, 1)),
        (cyclic_presentation(2, 1), 4, (1,)),
        (semidihedral(4), 8, (4,)),
    ],
)
def test_types_p2(G, N, expected):
    t = WS.analyzer(G, N).group_type()
    assert t.entries == expected
    assert t.certified


def test_types_odd_p():
    assert WS.analyzer(cyclic_presentation(3, 2), 8).group_type().entries == (2,)
    assert WS.analyzer(cyclic_presentation(3, 1), 6).group_type().entries == (1,)
    assert WS.analyzer(elem_abelian(3, 2), 6).group_type().entries == (1, 1)
    t = WS.analyzer(direct_product(cyclic_presentation(3, 1), cyclic_presentation(3, 2)), 8).group_type()
    assert t.entries == (2, 1)


def test_uncertified_type_at_tiny_bound():
    # Q8 needs degree 4 to see x^4; at N = 3 the flag cannot saturate
    a = Analyzer(Q8, 3, workspace=Workspace())
    t = a.group_type()
    assert not t.certified


def test_odd_p_type_below_degree_two_is_uncertified():
    # at N = 1 the Bockstein level (degree 2) is out of range: the walk
    # stops after the degree-one image instead of lifting into degree 2
    a = Analyzer(direct_product(cyclic_presentation(3, 1), cyclic_presentation(3, 2)), 1, workspace=Workspace())
    t = a.group_type()
    assert t.entries == (2, 1) and not t.certified
    assert [level.degree for level in t.flag] == [1]


@pytest.mark.parametrize("G", [W23, direct_product(cyclic_presentation(5, 1), cyclic_presentation(5, 2))])
def test_order_p_subgroups_of_c_share_the_canonical_presentation(G):
    # the level-1 reference below pins M_1 on every order-p subgroup U of
    # C up to the scalar that the resolution of U picks; one presentation
    # for every U, that of Z/p, makes that scalar the one of M_1
    C = omega1_center(G)
    subs = {Subgroup.generate(G, [x]).elems for x in C.elems[1:]}
    assert len(subs) == (C.order - 1) // (G.p - 1)
    hashes = {subgroup_presentation(G, Subgroup(G, U))[0].hash_key() for U in subs}
    assert hashes == {cyclic_presentation(G.p, 1).hash_key()}


def _order_p_restrictions(a):
    """The restriction matrices H^1(C) -> H^1(U) and H^2(C) -> H^2(U),
    each stacked over the subgroups U of order p in C, one row per U."""
    R1, R2 = [], []
    seen = set()
    for x in a.C.elems[1:]:
        U = Subgroup.generate(a.G, [x])
        if U.elems in seen:
            continue
        seen.add(U.elems)
        rmap = a._conj_map(U, a.C, 0, 2, keep=False)
        R1.append(rmap.matrix(1))
        R2.append(rmap.matrix(2))
    return np.vstack(R1), np.vstack(R2)


@pytest.mark.parametrize("G", [
    Q8,
    builtin("32#18").pres,
    builtin("D8xZ4").pres,
    W23,
    H27,
    direct_product(cyclic_presentation(3, 2), cyclic_presentation(3, 2)),
    direct_product(cyclic_presentation(3, 1), cyclic_presentation(3, 2)),
    direct_product(cyclic_presentation(5, 1), cyclic_presentation(5, 2)),
    elem_abelian(3, 3),
    direct_product(H27, cyclic_presentation(3, 1)),
], ids=["Q8", "32#18", "D8xZ4", "W23", "H27", "Z9xZ9", "Z3xZ9", "Z5xZ25", "E27", "H27xZ3"])
def test_bockstein_level_restricts_like_the_order_p_subgroups(G):
    # M_1 e_t = lambda beta(e_t) restricts on each U to e_t|U times the unit
    # class of H^2(U), with one lambda for every U: each is presented as Z/p
    a = Analyzer(G, 2, workspace=Workspace())
    R1, R2 = _order_p_restrictions(a)
    assert R1.shape[0] == (a.C.order - 1) // (a.p - 1)
    assert np.array_equal(matmul_mod(R2, a._frobenius_matrix(1), a.p), R1)


def _slot_class(res, slot: int, degree: int) -> np.ndarray:
    """1 (x) ... (x) w (x) ... (x) 1 in the pair coordinates of a served
    (Z/p)^c, with the unit class w of H^degree(Z/p) in factor `slot`."""
    if not isinstance(res, TensorResolution):
        return np.ones(1, dtype=np.uint8)
    nA = _cyclic_factors(res.resA)
    one = np.ones(1, dtype=np.uint8)
    if slot < nA:
        a, b, i = _slot_class(res.resA, slot, degree), one, degree
    else:
        a, b, i = one, _slot_class(res.resB, slot - nA, degree), 0
    v = np.zeros(res.rank(degree), dtype=np.uint8)
    v[res.block(degree, i)] = np.kron(a, b)
    return v


def _cyclic_factors(res) -> int:
    if not isinstance(res, TensorResolution):
        return 1
    return _cyclic_factors(res.resA) + _cyclic_factors(res.resB)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("c", [2, 3])
def test_bockstein_level_of_a_served_elementary_abelian(p, c):
    # beta(1 (x) x (x) 1) = 1 (x) beta(x) (x) 1, with no products of
    # degree-one classes, and M_1 x = u on Z/p itself
    G = cyclic_presentation(p, 1)
    for _ in range(c - 1):
        G = direct_product(G, cyclic_presentation(p, 1))
    a = Analyzer(G, 2, workspace=Workspace())
    assert isinstance(a.resC, TensorResolution)
    M = a._frobenius_matrix(1)
    for slot in range(c):
        x = _slot_class(a.resC, slot, 1)
        assert x.sum() == 1
        assert np.array_equal(M[:, int(np.argmax(x))], _slot_class(a.resC, slot, 2))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_canonical_cyclic_resolution(p):
    # d_1(e_1) = e - g^(p-1) and d_2(e_2) = sum of all g
    res = MinimalResolution(cyclic_presentation(p, 1)).extend_to(2)
    assert res.rank(1) == res.rank(2) == 1
    for k, want in ((1, [1] + [0] * (p - 2) + [p - 1]), (2, [1] * p)):
        indptr, coords, vals = res.gen_terms(k)
        row = np.zeros(p, dtype=np.uint8)
        row[coords] = vals
        assert indptr.tolist() == [0, len(coords)] and row.tolist() == want


def test_e_h_values():
    for entries, e, h in (((8, 8), 14, 4), ((4, 2), 4, 2), ((1, 1, 1), 0, 0),
                          ((4, 4, 4), 9, 2)):
        t = GroupType(2, entries, True)
        assert (t.e, t.h) == (e, h)
    # odd p: a1 = 2p^k has h = 2p^(k-1); a1 = 2 has h = 1
    assert GroupType(3, (6, 2), True).h == 2
    assert GroupType(3, (2, 1), True).h == 1


# ---------------------------------------------------------------------------
# Duflot subalgebra


def test_duflot_w32():
    d = WS.analyzer(W32, 6).duflot()
    assert sorted(deg for deg, _ in d.generators) == [2, 2, 2]
    assert d.a_dims(6) == [1, 0, 3, 0, 6, 0, 10]


def test_duflot_elementary_abelian_is_everything():
    a = WS.analyzer(elem_abelian(2, 2), 6)
    d = a.duflot()
    assert d.a_dims(6) == a.res.betti[:7]


def test_duflot_z4():
    d = WS.analyzer(cyclic_presentation(2, 2), 6).duflot()
    assert [deg for deg, _ in d.generators] == [2]


def test_duflot_restrictions_are_targets():
    for G, N in ((Q8, 8), (H27, 6), (direct_product(cyclic_presentation(3, 1), cyclic_presentation(3, 2)), 8)):
        a = WS.analyzer(G, N)
        d = a.duflot()
        rmap = a.restriction_to_C()
        for (deg, xi), (deg2, target) in zip(d.generators, d.targets):
            assert deg == deg2
            assert np.array_equal(rmap.apply(xi).vec, target)


def _cup_power_target(a, x: np.ndarray, k: int) -> Cocycle:
    """The level-k Frobenius image of x in H^1(C) by repeated cup products:
    x^(2^k) at p = 2, (M_1 x)^(p^(k-1)) at odd p, M_1 the Bockstein level."""
    p = a.p
    if p == 2:
        v, n = Cocycle(1, x), 2 ** k
    else:
        v, n = Cocycle(2, matmul_mod(a._frobenius_matrix(1), x[:, None], p)[:, 0]), p ** (k - 1)
    out = v
    for _ in range(n - 1):
        out = cup_product(a.resC, out, v)
    return out


@pytest.mark.parametrize("G,N", [
    (Q8, 8),
    (cyclic_presentation(2, 2), 6),
    (builtin("64#187").pres, 8),
    (H27, 10),
    # served: the cup powers are read off the factors of C = Z/3 x Z/3
    (direct_product(H27, cyclic_presentation(3, 1)), 10),
])
def test_flag_targets_match_explicit_cup_powers(G, N):
    # reference path for the Frobenius matrices M_k of the flag and for the
    # Duflot targets M_k x read off them, by cup powers in H*(C); below
    # level `first` the matrix is the identity (p = 2) or the Bockstein
    # level M_1 that the odd-p reference starts from
    a = WS.analyzer(G, N)
    flag = a.group_type().flag
    first = 1 if a.p == 2 else 2
    assert len(flag) > first
    eye = np.eye(a.center_rank, dtype=np.uint8)
    for k in range(first, len(flag)):
        for s in range(a.center_rank):
            ref = _cup_power_target(a, eye[s], k)
            assert ref.degree == flag[k].degree
            assert np.array_equal(ref.vec, flag[k].frobenius[:, s])
    deep = [(k, x) for k, x in a._flag_adapted_basis() if k >= first]
    targets = [(deg, v) for deg, v in a.duflot().targets if deg >= flag[first].degree]
    assert len(deep) == len(targets) > 0
    for (k, x), (deg, v) in zip(deep, targets):
        ref = _cup_power_target(a, x, k)
        assert deg == ref.degree
        assert np.array_equal(v, ref.vec)


def test_duflot_odd_p_split():
    # Z/3 x Z/9 has one split entry (a=1) and one polynomial entry (a=2)
    G = direct_product(cyclic_presentation(3, 1), cyclic_presentation(3, 2))
    a = WS.analyzer(G, 8)
    d = a.duflot()
    degs = sorted(deg for deg, _ in d.generators)
    assert degs == [1, 2, 2]  # x, its Bockstein partner, and y^(p^0)


def _greedy_flag_basis(a):
    """Reference for _flag_adapted_basis: walk the level bases row by row
    and keep each row that is not in the span of those kept before."""
    chosen = []
    span = FpSubspace.zero(a.p, a.center_rank)
    for k, level in enumerate(a.group_type().flag):
        for row in level.subspace.basis.arr:
            if not span.contains(row):
                chosen.append((k, row))
                span = subspace_sum(span, FpSubspace.from_spanning(
                    a.p, a.center_rank, row[None, :]))
    return chosen


@pytest.mark.parametrize("G,N", [
    (Q8, 8),
    (builtin("64#187").pres, 8),
    (H27, 10),
    (direct_product(cyclic_presentation(3, 1), cyclic_presentation(3, 2)), 8),
    (W23, 2),
    (PcPresentation(2, 0, [], {}), 2),
])
def test_flag_adapted_basis_matches_greedy_rows(G, N):
    a = WS.analyzer(G, N)
    got, want = a._flag_adapted_basis(), _greedy_flag_basis(a)
    assert [k for k, _ in got] == [k for k, _ in want]
    assert all(np.array_equal(x, y) for (_, x), (_, y) in zip(got, want))
    if a.center_rank == 0:
        assert got == []


# ---------------------------------------------------------------------------
# Q_A and P_C


def test_qa_w32():
    assert WS.analyzer(W32, 8).qa_dims() == (1, 2, 2, 1, 0, 0, 0, 0, 0)


def test_qa_pcentral_palindrome_top_e():
    for G, N in ((Q8, 8), (W32, 8), (cyclic_presentation(2, 2), 6), (direct_product(Q8, cyclic_presentation(2, 2)), 8)):
        a = WS.analyzer(G, N)
        assert a.p_central
        q = list(a.qa_dims())
        e = a.e
        assert q[e] == 1
        assert all(d == 0 for d in q[e + 1:])
        assert q[: e + 1] == q[e::-1]


def test_pc_inside_qa():
    for G, N in ((Q8, 6), (D8, 6), (W32, 6), (semidihedral(4), 6)):
        a = WS.analyzer(G, N)
        p_dims = a.pc_dims()
        q_dims = a.qa_dims()
        for k in range(N + 1):
            assert p_dims[k] <= q_dims[k]
        # the composite P -> Q is monic: P meets the ideal span trivially
        gens = [xi for _, xi in a.duflot().generators]
        for k in range(1, N + 1):
            span = product_span(a.res, k, gens)
            P = a.comodule().primitive_basis(k)
            assert intersect(P, span).dim == 0


def test_pc_top_for_p_central():
    for G, N in ((Q8, 8), (W32, 6)):
        a = WS.analyzer(G, N)
        e = a.e
        dims = a.pc_dims()
        assert dims[e] == 1
        assert all(d == 0 for d in dims[e + 1:])


@pytest.mark.parametrize("name,N,dims", [
    # no subgroup strictly above C: Cess is all of H*
    ("Q8xZ4", 6, [(1, 3, 4, 3, 1, 0, 0)] * 4),
    ("SD16", 8, [(1, 2, 2, 2, 2, 2, 2, 2, 2), (1, 2, 2, 1, 1, 1, 1, 1, 1),
                 (0, 1, 1, 0, 0, 0, 0, 0, 0), (0, 1, 1, 0, 0, 0, 0, 0, 0)]),
])
def test_qa_pc_dims_of_h_and_cess(name, N, dims):
    a = WS.analyzer(builtin(name).pres, N)
    assert (a.cess_subspaces() is None) == (name == "Q8xZ4")
    got = [a.qa_dims(), a.pc_dims(), a.qa_cess_dims(), a.pc_cess_dims()]
    assert got == dims


def test_pc_w32_degreewise():
    # primitives: 1; x, y; nothing in degree 2; the top class
    assert WS.analyzer(W32, 6).pc_dims()[:4] == (1, 2, 0, 1)


# ---------------------------------------------------------------------------
# central essential classes


def test_cess_d8_vanishes():
    a = WS.analyzer(D8, 8)
    assert a.cess_dims() == (0,) * 9
    assert a.e_prime() == (-1, True)
    assert a.e_double_prime() == (-1, True)


def test_cess_sd16():
    a = WS.analyzer(semidihedral(4), 10)
    assert a.e_prime() == (2, True)
    assert a.e_double_prime() == (2, True)
    # r - c = 1 duality: Q_A Cess dims form a palindrome against degree e
    q = a.qa_cess_dims()
    e = a.e
    for k in range(e + 1):
        assert q[k] == q[e - k]
    # the central essential primitives inject into the indecomposables
    pc = a.pc_cess_dims()
    for k in range(11):
        assert pc[k] <= q[k]


@pytest.mark.parametrize("G,N", [
    (D8, 6),
    (semidihedral(4), 8),
    (builtin("D8xZ4").pres, 6),
])
def test_duflot_ideal_of_cess_lies_in_cess(G, N):
    # Cess is a kernel of ring maps, so Q_A Cess needs no intersection
    a = WS.analyzer(G, N)
    subs = a.cess_subspaces()
    assert subs is not None
    gens = [xi for _, xi in a.duflot().generators]
    for k in range(N + 1):
        span = product_span(a.res, k, gens, subs)
        assert intersect(subs[k], span) == span


def test_cess_p_central_convention():
    a = WS.analyzer(Q8, 6)
    assert a.cess_subspaces() is None
    assert a.cess_dims() == tuple(a.res.betti[:7])
    assert a.e_prime() == (3, True)


def test_e_dp_le_e_prime():
    for G, N in ((D8, 6), (semidihedral(4), 8), (semidihedral(5), 8)):
        a = WS.analyzer(G, N)
        ep, _ = a.e_prime()
        edp, _ = a.e_double_prime()
        assert edp <= ep


# ---------------------------------------------------------------------------
# detection numbers


def test_d0_d1_q8():
    assert WS.analyzer(Q8, 8).d0_d1_p_central() == (3, 5)


def test_d0_d1_elementary_abelian():
    assert WS.analyzer(elem_abelian(2, 3), 4).d0_d1_p_central() == (0, 0)


def test_d0_d1_not_defined_for_non_p_central():
    with pytest.raises(ValueError):
        WS.analyzer(D8, 6).d0_d1_p_central()


def test_d0_p_central_matches_e():
    for G, N in ((Q8, 8), (W32, 8)):
        a = WS.analyzer(G, N)
        assert a.d0() == (a.e, True)
    # below the bound that certifies the type, d0 is e, uncertified
    for G, N in ((Q8, 2), (builtin("64#187").pres, 4)):
        a = WS.analyzer(G, N)
        assert not a.group_type().certified
        assert a.d0() == (a.e, False)


def test_d0_d8():
    assert WS.analyzer(D8, 8).d0() == (0, True)


def test_d0_product_law():
    # d0(Q8 x Z4) = d0(Q8) + d0(Z4) = 3 + 1
    P = direct_product(Q8, cyclic_presentation(2, 2))
    a = WS.analyzer(P, 8)
    assert a.d0_d1_p_central() == (4, 6)
    val, cert = a.d0()
    assert val == 4 and cert


def test_product_laws_type_e_h():
    P = direct_product(Q8, cyclic_presentation(2, 2))
    t = WS.analyzer(P, 8).group_type()
    assert t.entries == (4, 2)
    assert t.e == 4 and t.h == 2
    P2 = direct_product(cyclic_presentation(2, 2), cyclic_presentation(2, 2))
    t2 = WS.analyzer(P2, 6).group_type()
    assert t2.entries == (2, 2)
    assert t2.e == 2 and t2.h == 1
    a2 = WS.analyzer(P2, 6)
    assert a2.d0_d1_p_central() == (2, 3)


def test_eprime_product_with_p_central_factor():
    # Cess(G x H) = Cess(G) (x) Cess(H); with H = Z/2, e'(SD16 x Z2) = 2 + 0
    P = direct_product(semidihedral(4), cyclic_presentation(2, 1))
    a = WS.analyzer(P, 8)
    ep, cert = a.e_prime()
    assert ep == 2
    edp, _ = a.e_double_prime()
    assert edp == 2


# ---------------------------------------------------------------------------
# top primitive class


def test_top_class_q8_essential():
    a = WS.analyzer(Q8, 8)
    z = a.top_primitive_class()
    assert z.degree == 3
    assert a.is_essential(z)


def test_top_class_w32_essential():
    a = WS.analyzer(W32, 6)
    z = a.top_primitive_class()
    assert z.degree == 3
    assert a.is_essential(z)
    # a nonzero degree-one class is a homomorphism onto F_p: it vanishes on
    # its kernel, and on no other of the three maximal subgroups
    assert not a.is_essential(Cocycle(1, np.eye(a.res.rank(1), dtype=np.uint8)[0]))


def test_top_class_rejects_elementary_abelian():
    with pytest.raises(ValueError):
        WS.analyzer(elem_abelian(2, 2), 4).top_primitive_class()


# ---------------------------------------------------------------------------
# locally finite part and layers


def test_lf_equals_pc_for_p_central():
    for G, N in ((Q8, 6), (W32, 5), (cyclic_presentation(2, 2), 6)):
        a = WS.analyzer(G, N)
        assert a.lf_dims() == a.pc_dims()


def test_bar_rd_p_central_tensor_formula():
    for G, N in ((Q8, 6), (cyclic_presentation(2, 2), 5)):
        a = WS.analyzer(G, N)
        pdims = a.pc_dims()
        for d in range(N + 1):
            got = a.bar_rd_dims(d)
            expect = tuple(
                a.resC.betti[j] * pdims[d] for j in range(N - d + 1)
            )
            assert got == expect


def test_lf_d8_is_scalars():
    ws = Workspace()
    a = ws.analyzer(D8, 6)
    assert a.lf_dims() == (1, 0, 0, 0, 0, 0, 0)
    for d in range(7):
        a.bar_rd_dims(d)
    # the component at V = C has centralizer G, which presents itself
    resolved = [res.pres for res in ws._res.values() if res.pres.order == 8]
    assert len(resolved) == 1 and resolved[0] is D8


def test_lf_sd16():
    # LF in positive degrees injects into central essential primitives
    a = WS.analyzer(semidihedral(4), 6)
    lf = a.lf_dims()
    assert lf[0] == 1
    pc_cess = a.pc_cess_dims()
    for k in range(1, 7):
        assert lf[k] <= pc_cess[k] + (1 if k == 0 else 0)


def test_bar_rd_pinned_on_non_p_central_groups():
    # groups where the Weyl-invariance and inclusion conditions both act
    sd16 = WS.analyzer(semidihedral(4), 6)
    assert sd16.lf_dims() == (1, 1, 1, 0, 0, 0, 0)
    assert [sd16.bar_rd_dims(d) for d in range(4)] == [
        (1, 1, 2, 2, 3, 3, 4), (1,) * 6, (1,) * 5, (0,) * 4]
    d8z4 = WS.analyzer(builtin("D8xZ4").pres, 6)
    assert d8z4.lf_dims() == (1, 1, 0, 0, 0, 0, 0)
    assert [d8z4.bar_rd_dims(d) for d in range(3)] == [
        (1, 3, 6, 10, 15, 21, 28), (1, 3, 6, 10, 15, 21), (0,) * 5]


def test_equalizer_lifts_each_map_once(monkeypatch):
    built = []
    init = resolution.ChainMap.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(resolution.ChainMap, "__init__", counting_init)
    a = Analyzer(D8, 6, workspace=Workspace())
    lf = a.lf_dims()
    assert built
    built.clear()
    layers = [a.bar_rd_dims(d) for d in range(7)]
    assert [layer[0] for layer in layers] == list(lf)  # LF is the j = 0 row
    assert built == []
    a.bar_rd_dims(2)
    assert built == []


def test_bar_rd_rejects_negative_layer():
    with pytest.raises(IndexError):
        WS.analyzer(D8, 4).bar_rd_dims(-1)


# ---------------------------------------------------------------------------
# reports


def test_report_q8():
    r = WS.analyzer(Q8, 8).report("Q8").to_json_dict()
    assert r["type"] == [4]
    assert (r["e"], r["h"], r["d0"], r["d1"]) == (3, 2, 3, 5)
    assert r["p_central"] is True
    assert r["certified"]["type"] is True


def test_report_d8():
    r = WS.analyzer(D8, 8).report("D8").to_json_dict()
    assert r["type"] == [2]
    assert r["e"] == 1
    assert r["e_prime"] == -1
    assert r["d0"] == 0
    assert r["d1"] is None
    assert r["p_central"] is False
    assert r["cess_nonzero"] is False


# full reports, as values of the single-branch report they replaced
PINNED_REPORTS = [
    (builtin("Q8").pres, "Q8", 8, {
        "group_id": "Q8", "p": 2, "order": 8, "rank": 1, "center_rank": 1,
        "p_central": True, "type": [4], "e": 3, "h": 2, "d0": 3, "d1": 5,
        "e_prime": 3, "e_double_prime": 3, "cess_nonzero": True,
        "truncation_degree": 8,
        "certified": {"type": True, "d0": True, "d1": True, "e_prime": True,
                      "e_double_prime": True}}),
    (builtin("SD16").pres, "SD16", 8, {
        "group_id": "SD16", "p": 2, "order": 16, "rank": 2, "center_rank": 1,
        "p_central": False, "type": [4], "e": 3, "h": 2, "d0": 2, "d1": None,
        "e_prime": 2, "e_double_prime": 2, "cess_nonzero": True,
        "truncation_degree": 8,
        "certified": {"type": True, "e_prime": True, "e_double_prime": True,
                      "d0": True}}),
    (builtin("D8xD8").pres, "D8xD8", 4, {
        "group_id": "D8xD8", "p": 2, "order": 64, "rank": 4, "center_rank": 2,
        "p_central": False, "type": [2, 2], "e": 2, "h": 1, "d0": 0, "d1": None,
        "e_prime": -1, "e_double_prime": -1, "cess_nonzero": False,
        "truncation_degree": 4,
        "certified": {"type": True, "e_prime": False, "e_double_prime": False,
                      "d0": False}}),
    (H27, "H27", 6, {
        "group_id": "H27", "p": 3, "order": 27, "rank": 2, "center_rank": 1,
        "p_central": False, "type": [6], "e": 5, "h": 2, "d0": 0, "d1": None,
        "e_prime": -1, "e_double_prime": -1, "cess_nonzero": False,
        "truncation_degree": 6,
        "certified": {"type": True, "e_prime": True, "e_double_prime": True,
                      "d0": True}}),
]


@pytest.mark.parametrize("G,gid,N,want", PINNED_REPORTS,
                         ids=[gid for _, gid, _, _ in PINNED_REPORTS])
def test_report_pinned(G, gid, N, want):
    assert WS.analyzer(G, N).report(gid).to_json_dict() == want


def test_report_trivial_group():
    triv = PcPresentation(2, 0, [], {})
    r = WS.analyzer(triv, 2).report("1").to_json_dict()
    assert r["type"] == []
    assert r["e"] == 0 and r["d0"] == 0 and r["d1"] == 0


def test_sylow_transfer():
    from centdet.invariants import d0_d1_via_sylow_transfer
    assert d0_d1_via_sylow_transfer(GroupType(2, (4, 4, 4), True)) == (9, 11)
    assert d0_d1_via_sylow_transfer(GroupType(2, (8, 8), True)) == (14, 18)
    t = WS.analyzer(Q8, 8).group_type()
    assert d0_d1_via_sylow_transfer(t) == (3, 5)
    with pytest.raises(ValueError):
        d0_d1_via_sylow_transfer(GroupType(2, (8, 8), False))


def test_inflation_image_is_degree_one_primitives():
    # H^1 of the central quotient inflates isomorphically onto P_C H^1
    from centdet.pgroup import quotient_by_central, center
    from centdet.resolution import InducedMap
    from centdet.fplinalg import FpMatrix, image_basis
    for G in (Q8, W32):
        a = WS.analyzer(G, 4)
        Qpres, proj = quotient_by_central(G, center(G))
        resQ = WS.resolution(Qpres, 4)
        infl = InducedMap(proj, a.res, resQ)
        M = infl.matrix(1)
        img = image_basis(FpMatrix(2, M))
        prim = a.comodule().primitive_basis(1)
        assert img == prim


def test_e_prime_at_most_e_on_corpus():
    for G, N in ((D8, 8), (semidihedral(4), 8), (semidihedral(5), 8)):
        a = WS.analyzer(G, N)
        ep, _ = a.e_prime()
        assert ep <= a.e


def test_universal_2central_group_odd_p():
    # order 3^5 universal example (W23 above); d0 = 3, d1 = 4
    a = WS.analyzer(W23, 3, label="W(2,3)")
    t = a.group_type()
    assert t.entries == (2, 2, 2) and t.certified
    assert a.d0_d1_p_central() == (3, 4)
    assert sorted(deg for deg, _ in a.duflot().generators) == [2, 2, 2]


def test_extraspecial_27_exponent_3():
    # extraspecial of order 27 and exponent 3: restriction image is generated
    # by the degree-2p class, cohomology is detected without central
    # essential classes
    a = WS.analyzer(H27, 6, label="H27")
    t = a.group_type()
    assert t.entries == (6,) and t.certified
    assert t.e == 5
    assert a.e_prime() == (-1, True)
    assert a.d0() == (0, True)


def test_q8_squared_product_laws():
    P = direct_product(Q8, Q8)
    a = WS.analyzer(P, 8, label="Q8xQ8")
    assert a.group_type().entries == (4, 4)
    assert a.d0_d1_p_central() == (6, 8)


def test_report_degrades_on_budget():
    a = Analyzer(W32, 8, workspace=Workspace(budget=64))
    r = a.report("tight").to_json_dict()
    assert r["certified"].get("budget_exceeded") is True
    assert r["d0"] is None and r["type"] is None
    assert r["order"] == 32  # fingerprint data survives
