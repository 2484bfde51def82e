import functools
import itertools
import os
import random

import numpy as np
import pytest

from centdet import pgroup
from centdet.acceptance import QUICK_CORPUS
from centdet.catalog import builtin, load_pcp
from centdet.pgroup import (
    GroupHom,
    InconsistentPresentationError,
    PcPresentation,
    PcPresentationError,
    Subgroup,
    center,
    centralizer,
    central_factor_mask,
    closure,
    conjugacy_classes,
    cyclic_presentation,
    direct_product,
    elementary_abelian_subgroups,
    factor_parts,
    frattini_subgroup,
    is_p_central,
    maximal_subgroups,
    multiplication_hom,
    normal_form,
    normalizer,
    omega1_center,
    p_rank,
    pc_structure,
    quillen_category_AC,
    quotient_by_central,
    split_central_factors,
    subgroup_presentation,
    whole_group,
)


def elem_abelian(p, n):
    return PcPresentation(p, n, [(0,) * n] * n, {})


def quaternion(k):
    """Q_{2^k}: a1 = s, a_i = r^(2^(i-2)) for i >= 2."""
    n = k
    pow_rels = []
    w = [0] * n
    w[n - 1] = 1
    pow_rels.append(tuple(w))  # s^2 = r^(2^(k-2)) = last generator
    for i in range(1, n):
        w = [0] * n
        if i + 1 < n:
            w[i + 1] = 1
        pow_rels.append(tuple(w))
    comm = {}
    for i in range(1, n - 1):
        w = [0] * n
        for t in range(i + 1, n):
            w[t] = 1
        comm[(i, 0)] = tuple(w)
    return PcPresentation(2, n, pow_rels, comm)


def dihedral(k):
    """D_{2^k}: a1 = s (involution), a_i = r^(2^(i-2))."""
    n = k
    pow_rels = [(0,) * n]
    for i in range(1, n):
        w = [0] * n
        if i + 1 < n:
            w[i + 1] = 1
        pow_rels.append(tuple(w))
    comm = {}
    for i in range(1, n - 1):
        w = [0] * n
        for t in range(i + 1, n):
            w[t] = 1
        comm[(i, 0)] = tuple(w)
    return PcPresentation(2, n, pow_rels, comm)


Q8 = quaternion(3)
D8 = dihedral(3)
V4 = elem_abelian(2, 2)


def test_orders():
    assert Q8.order == 8
    assert D8.order == 8
    assert cyclic_presentation(2, 3).order == 8
    assert elem_abelian(3, 2).order == 9


def test_normal_form_trivia():
    assert normal_form(Q8, []) == (0, 0, 0)
    # g * g^-1 = identity
    assert normal_form(Q8, [(1, 1), (1, -1)]) == (0, 0, 0)


def test_q8_classical_relations():
    # in Q8 with a = g1, b = g2: a^2 = b^2 = central z, and b^a = b^-1
    a, b = Q8.gen_idx(0), Q8.gen_idx(1)
    z = Q8.gen_idx(2)
    assert Q8.pth_power(a) == z
    assert Q8.pth_power(b) == z
    assert Q8.conj(b, a) == Q8.inv(b)
    assert Q8.element_order(a) == 4
    assert Q8.element_order(z) == 2
    # exactly one involution
    assert sum(1 for x in range(8) if Q8.element_order(x) == 2) == 1


def test_collection_strategies_agree():
    rng = np.random.default_rng(0)
    for G in (Q8, D8, cyclic_presentation(2, 4), elem_abelian(3, 2)):
        gens = G.generators()
        for _ in range(50):
            word = [int(rng.integers(0, len(gens))) for _ in range(8)]
            # linear left fold
            x = 0
            for t in word:
                x = G.mult(x, gens[t])
            # balanced fold (different association order)
            vals = [gens[t] for t in word]
            while len(vals) > 1:
                vals = [
                    G.mult(vals[i], vals[i + 1]) if i + 1 < len(vals) else vals[i]
                    for i in range(0, len(vals), 2)
                ]
            assert x == vals[0]


def test_inconsistent_presentation_rejected():
    # conjugation by g1 sends g2 -> g2 g3 -> g2 g3 (g3 g4) = g2 g4, so it
    # fails to square to the identity even though g1^2 = 1 is claimed
    with pytest.raises(InconsistentPresentationError):
        PcPresentation(
            2, 4,
            [(0,) * 4] * 4,
            {(1, 0): (0, 0, 1, 0), (2, 0): (0, 0, 0, 1)},
        )


def test_center_and_omega1():
    assert center(elem_abelian(2, 2)).order == 4
    assert omega1_center(Q8).rank == 1
    assert center(D8).order == 2
    Z4 = cyclic_presentation(2, 2)
    assert center(Z4).order == 4
    assert omega1_center(Z4).order == 2


def test_p_centrality():
    assert is_p_central(Q8)
    assert not is_p_central(D8)
    assert is_p_central(elem_abelian(2, 3))
    assert is_p_central(cyclic_presentation(2, 4))


def test_elementary_abelian_subgroups_v4():
    subs = elementary_abelian_subgroups(V4)
    # 1 trivial + 3 rank one + 1 rank two
    assert len(subs) == 5
    assert sorted(s.order for s in subs) == [1, 2, 2, 2, 4]


def test_elementary_abelian_subgroups_q8():
    subs = elementary_abelian_subgroups(Q8)
    nontrivial = [s for s in subs if s.order > 1]
    assert len(nontrivial) == 1
    assert nontrivial[0] == omega1_center(Q8)


def test_d8_has_rank_two():
    assert p_rank(D8) == 2
    assert p_rank(Q8) == 1
    assert p_rank(elem_abelian(2, 3)) == 3


def test_centralizer_normalizer():
    Z = center(Q8)
    assert centralizer(Q8, Z).order == 8
    V = [s for s in elementary_abelian_subgroups(D8) if s.rank == 2][0]
    K = centralizer(D8, V)
    assert K == V  # Klein fours in D8 are self-centralizing
    assert normalizer(D8, V).order == 8
    # centralizer of a maximal elementary abelian is p-central
    presK, _, _ = subgroup_presentation(D8, K)
    assert is_p_central(presK)


def test_maximal_subgroups():
    assert len(maximal_subgroups(cyclic_presentation(2, 2))) == 1
    assert len(maximal_subgroups(V4)) == 3
    maxQ8 = maximal_subgroups(Q8)
    assert len(maxQ8) == 3
    for M in maxQ8:
        assert M.order == 4
        presM, _, _ = subgroup_presentation(Q8, M)
        # all three are cyclic of order 4: exactly one involution
        assert sum(1 for x in range(4) if presM.element_order(x) == 2) == 1


INPUTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "inputs")

# d(G), the number of pc generators that span G / Phi(G)
BURNSIDE_SIZES = {
    "32#18": 2, "W23": 2, "H27": 2, "Z9xZ9": 2,
    "64#187": 4, "D8xD8xZ2": 5, "E8xD8": 5, "D8xD8": 4,
}


def named_group(gid):
    path = os.path.join(INPUTS, f"{gid}.pcp")
    return load_pcp(path) if os.path.exists(path) else builtin(gid).pres


@pytest.mark.parametrize("gid", list(BURNSIDE_SIZES))
def test_frattini_subgroup_and_burnside_generators(gid):
    G, d = named_group(gid), BURNSIDE_SIZES[gid]
    phi = frattini_subgroup(G)
    common = set(range(G.order))
    for M in maximal_subgroups(G):
        common &= set(M.elems)
    assert phi.elems == tuple(sorted(common))
    # Phi(G) = G^p [G, G], generated by the p-th powers and the commutators
    tbl, inv, x = G.mult_table(), G.inv_table(), np.arange(G.order)
    powers = functools.reduce(lambda acc, _: tbl[acc, x], range(G.p - 1), x)
    comms = tbl[tbl[inv[:, None], inv[None, :]], tbl]  # x^-1 y^-1 x y
    gens = set(powers.tolist()) | set(comms.ravel().tolist())
    assert phi.elems == tuple(sorted(closure(G.mult, 0, gens)))
    assert G.order == phi.order * G.p ** d
    burnside = G.burnside_generators()
    assert len(burnside) == d
    assert len(closure(G.mult, 0, [G.gen_idx(t) for t in burnside])) == G.order


def test_trivial_group_has_no_burnside_generators():
    T = PcPresentation(3, 0, [], {})
    assert T.burnside_generators() == ()
    assert frattini_subgroup(T).elems == (0,)
    assert maximal_subgroups(T) == []


def test_a_burnside_set_short_of_one_generator_is_refused(monkeypatch):
    # with the last basis row of Hom(G, Z/p) gone, the pivots lose a
    # generator of G / Phi(G), and the closure check is a hard error
    hom_basis = pgroup._hom_basis
    monkeypatch.setattr(pgroup, "_hom_basis", lambda G: hom_basis(G)[:-1])
    for gid in ("D8xD8", "H27"):
        with pytest.raises(AssertionError, match="do not generate G"):
            named_group(gid).burnside_generators()


def test_conjugacy_classes_d8_kleins():
    subs = [s for s in elementary_abelian_subgroups(D8) if s.rank == 2]
    assert len(subs) == 2
    classes = conjugacy_classes(D8, subs)
    assert len(classes) == 2  # the two Klein fours are not conjugate


def test_conjugacy_recorded_conjugators():
    subs = [s for s in elementary_abelian_subgroups(D8) if s.rank == 1]
    classes = conjugacy_classes(D8, subs)
    for cls in classes:
        for elems, g in cls.members.items():
            assert cls.rep.conjugate(g).elems == elems


def test_direct_product():
    P = direct_product(Q8, cyclic_presentation(2, 2))
    assert P.order == 32
    assert omega1_center(P).rank == 2
    assert is_p_central(P)


def test_quotient_by_central():
    Z = center(Q8)
    Q, proj = quotient_by_central(Q8, Z)
    assert Q.order == 4
    assert all(Q.pth_power(x) == 0 for x in range(4))  # (Z/2)^2
    assert sorted(proj.kernel_elements()) == list(Z.elems)


def test_quotient_w32_like():
    # the order-32 group with center (Z/2)^3 and quotient (Z/2)^2
    W = PcPresentation(
        2, 5,
        [(0, 0, 1, 0, 0), (0, 0, 0, 0, 1), (0,) * 5, (0,) * 5, (0,) * 5],
        {(1, 0): (0, 0, 0, 1, 0)},
    )
    assert W.order == 32
    C = omega1_center(W)
    assert C.rank == 3
    assert is_p_central(W)
    Q, proj = quotient_by_central(W, C)
    assert Q.order == 4
    assert sorted(proj.kernel_elements()) == list(C.elems)


def test_subgroup_presentation_roundtrip():
    for G in (Q8, D8, builtin("D8xZ4").pres, builtin("D8xD8xZ2").pres):
        subs = list(elementary_abelian_subgroups(G))
        # and their centralizers, which a product splits at every level
        for S in {S.elems: S for S in subs + [centralizer(G, E) for E in subs]}.values():
            pres, embed, to_idx = subgroup_presentation(G, S)
            assert pres.order == S.order
            # a product subgroup of a product is presented as one, at every level
            assert (pres.factors is not None) == (factor_parts(G, S) is not None)
            for x in S.elems:
                assert embed.apply(to_idx[x]) == x
            # multiplication transported correctly
            for x in S.elems[: min(4, len(S.elems))]:
                for y in S.elems[: min(4, len(S.elems))]:
                    assert to_idx[G.mult(x, y)] == pres.mult(to_idx[x], to_idx[y])
    # a diagonal subgroup of a product keeps the canonical presentation
    G = builtin("D8xZ4").pres
    diagonal = [M for M in maximal_subgroups(G) if factor_parts(G, M) is None]
    assert diagonal
    for M in diagonal:
        pres, _, _ = subgroup_presentation(G, M)
        canonical, _, _ = pc_structure(list(M.elems), G.mult, G.inv, G.p)
        assert pres.factors is None and pres.hash_key() == canonical.hash_key()


@pytest.mark.parametrize("name", ["D8", "SD16"])
def test_whole_group_presents_itself(name):
    G = builtin(name).pres
    pres, embed, to_idx = subgroup_presentation(G, whole_group(G))
    assert pres is G
    assert list(embed.table()) == list(to_idx) == list(range(G.order))


def test_multiplication_hom():
    C = omega1_center(Q8)
    prod, presC, embedC, m = multiplication_hom(Q8, C)
    assert prod.order == 16
    # restricted to C x 1 it is the inclusion, to 1 x G the identity
    for t in range(presC.n):
        assert m.apply(prod.gen_idx(t)) == embedC.apply(presC.gen_idx(t))
    for t in range(Q8.n):
        assert m.apply(prod.gen_idx(presC.n + t)) == Q8.gen_idx(t)


def test_multiplication_hom_elem_abelian_is_addition():
    G = elem_abelian(2, 2)
    C = whole_group(G)
    prod, presC, embedC, m = multiplication_hom(G, C)
    for c in range(4):
        for g in range(4):
            pair = prod.mult(
                prod.idx_of(presC.exp_of(c) + (0, 0)),
                prod.idx_of((0, 0) + G.exp_of(g)),
            )
            assert m.apply(pair) == G.mult(embedC.apply(c), g)


def test_quillen_category():
    catQ8 = quillen_category_AC(Q8)
    assert len(catQ8.objects) == 1
    assert catQ8.objects[0].rep == omega1_center(Q8)
    assert catQ8.weyl_reps(catQ8.objects[0]) == [0]

    catV4 = quillen_category_AC(V4)
    assert len(catV4.objects) == 1  # only the whole group contains C = V4

    catD8 = quillen_category_AC(D8)
    # center + two Klein fours
    assert len(catD8.objects) == 3
    kleins = [o for o in catD8.objects if o.rep.rank == 2]
    assert len(kleins) == 2
    for o in kleins:
        assert len(catD8.weyl_reps(o)) == 2  # N/C = D8 / V has order 2


def test_pc_structure_from_table():
    # rebuild Q8 from its abstract multiplication
    pres, gens, to_idx = pc_structure(
        list(range(8)), Q8.mult, Q8.inv, 2
    )
    assert pres.order == 8
    assert sum(1 for x in range(8) if pres.element_order(x) == 2) == 1
    assert is_p_central(pres)


def test_group_hom_validation():
    with pytest.raises(PcPresentationError):
        # sending the generator of Z/4 to an involution-free image violates g^2 = z
        GroupHom(cyclic_presentation(2, 2), elem_abelian(2, 1), [0, 1][:2])


@pytest.mark.parametrize("build,error,message", [
    # g1^2 = g2 cannot hold while g1 does not commute with g2
    (lambda: PcPresentation(2, 3, [(0, 1, 0), (0,) * 3, (0,) * 3], {(1, 0): (0, 0, 1)}),
     InconsistentPresentationError, "power relation of g1 fails under collection"),
    # conjugation by g3 sends g2 -> g2 g4 -> g2 g5, so [g3, g2] is not g4
    (lambda: PcPresentation(2, 5, [(0,) * 5] * 5,
                            {(2, 1): (0, 0, 0, 1, 0), (3, 2): (0, 0, 0, 0, 1)}),
     InconsistentPresentationError, "commutator relation [g3,g2] fails under collection"),
    # the generator of Z/4 goes to 1, its square g2 to an involution
    (lambda: GroupHom(cyclic_presentation(2, 2), elem_abelian(2, 1), [0, 1]),
     PcPresentationError, "image violates power relation of g1"),
    # an abelian image cannot carry [g2, g1] = g3 to a nontrivial element
    (lambda: GroupHom(PcPresentation(3, 3, [(0,) * 3] * 3, {(1, 0): (0, 0, 1)}),
                      elem_abelian(3, 3), elem_abelian(3, 3).generators()),
     PcPresentationError, "image violates commutator relation [g2,g1]"),
], ids=["presentation-power", "presentation-commutator", "hom-power", "hom-commutator"])
def test_relation_failures_name_the_relation(build, error, message):
    with pytest.raises(PcPresentationError) as info:
        build()
    assert info.type is error
    assert str(info.value) == message


def test_p_central_iff_rank_equals_socle_rank():
    for G in (Q8, D8, V4, cyclic_presentation(2, 3), quaternion(4), dihedral(4),
              elem_abelian(3, 2), cyclic_presentation(3, 2)):
        assert is_p_central(G) == (p_rank(G) == omega1_center(G).rank)


def test_centralizers_of_maximal_elementary_abelians_are_p_central():
    for G in (D8, dihedral(4), quaternion(4), Q8):
        subs = elementary_abelian_subgroups(G)
        top = max(s.rank for s in subs)
        for V in subs:
            if V.rank == top:
                K = centralizer(G, V)
                presK, _, _ = subgroup_presentation(G, K)
                assert is_p_central(presK)


def test_center_order_by_enumeration():
    for G in (Q8, D8, V4, quaternion(4)):
        gens = G.generators()
        n_central = sum(
            1 for x in range(G.order)
            if all(G.comm(x, g) == 0 for g in gens)
        )
        assert n_central == center(G).order


# ---------------------------------------------------------------------------
# the table-based predicates against their textbook definitions, computed
# element by element from G.mult and G.inv only

# the universal 3-central group of order 3^5 and the extraspecial group of
# order 27 and exponent 3, as W23 and H27 in test_invariants.py
W23 = PcPresentation(
    3, 5,
    [(0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0,) * 5, (0,) * 5, (0,) * 5],
    {(1, 0): (0, 0, 0, 0, 1)},
)
H27 = PcPresentation(3, 3, [(0, 0, 0)] * 3, {(1, 0): (0, 0, 1)})
REFERENCE_GROUPS = ["V4", "D8", "Q8", "32#18", "D8xZ4", "64#187", "W23", "H27", "D16xD8"]


class Reference:
    """Definitions evaluated one element at a time."""

    def __init__(self, G):
        self.G = G
        self.n = G.order
        self.mul = [[G.mult(a, b) for b in range(self.n)] for a in range(self.n)]
        self.inv = [G.inv(a) for a in range(self.n)]

    def commutes(self, x, y):
        return self.mul[x][y] == self.mul[y][x]

    def has_order_dividing_p(self, x):
        y = 0
        for _ in range(self.G.p):
            y = self.mul[y][x]
        return y == 0

    def centralizer(self, S):
        return [g for g in range(self.n) if all(self.commutes(g, s) for s in S)]

    def normalizer(self, S):
        inside = set(S)
        return [g for g in range(self.n)
                if all(self.mul[self.mul[self.inv[g]][s]][g] in inside for s in S)]

    def omega1_center(self, S):
        return [x for x in S
                if self.has_order_dividing_p(x) and all(self.commutes(x, s) for s in S)]

    def is_elementary_abelian(self, S):
        return (all(self.has_order_dividing_p(x) for x in S)
                and all(self.commutes(x, y) for x in S for y in S))

    def closure(self, gens):
        seen, frontier = {0}, [0]
        while frontier:
            frontier = [y for y in {self.mul[x][g] for x in frontier for g in gens}
                        if y not in seen]
            seen.update(frontier)
        return tuple(sorted(seen))

    def elementary_abelian_subgroups(self, containing=None):
        """The breadth-first enumerator the table-based one replaced:
        (elems, gens) pairs, smallest first."""
        if containing is None:
            base = ((0,), ())
        elif self.is_elementary_abelian(containing.elems):
            base = (containing.elems, containing.gens)
        else:
            return []
        order_p = [x for x in range(1, self.n) if self.has_order_dividing_p(x)]
        found = {base[0]: base}
        frontier = [base]
        while frontier:
            nxt = []
            for elems, gens in frontier:
                for x in order_p:
                    if x in elems or not all(self.commutes(x, s) for s in elems):
                        continue
                    bigger_gens = tuple(gens or elems) + (x,)
                    bigger = self.closure(bigger_gens)
                    if bigger not in found:
                        found[bigger] = (bigger, bigger_gens)
                        nxt.append(found[bigger])
            frontier = nxt
        return sorted(found.values(), key=lambda s: (len(s[0]), s[0]))

    def weyl_reps(self, N, K):
        """First element of each coset K x met in N, by frozenset cosets."""
        reps, seen = [], set()
        for x in N:
            coset = frozenset(self.mul[c][x] for c in K)
            if coset not in seen:
                seen.add(coset)
                reps.append(x)
        return reps


@functools.lru_cache(maxsize=None)
def _reference(name):
    fixed = {"V4": V4, "D8": D8, "Q8": Q8, "W23": W23, "H27": H27}
    return Reference(fixed[name] if name in fixed else builtin(name).pres)


@pytest.mark.parametrize("name", REFERENCE_GROUPS)
def test_center_and_p_centrality_match_definitions(name):
    ref = _reference(name)
    G = ref.G
    Z = ref.centralizer(range(G.order))
    assert list(center(G).elems) == Z
    assert list(omega1_center(G).elems) == ref.omega1_center(Z)
    p_central = all(x in Z for x in range(G.order) if ref.has_order_dividing_p(x))
    assert is_p_central(G) is p_central


@pytest.mark.parametrize("name", REFERENCE_GROUPS)
def test_inverses_match_definitions(name):
    # inv_table takes x^-1 as a power of x, not by a search of the table
    ref = _reference(name)
    assert all(ref.mul[x][ref.inv[x]] == 0 for x in range(ref.n))


@pytest.mark.parametrize("name", REFERENCE_GROUPS)
def test_elementary_abelian_enumeration_matches_bfs_reference(name):
    ref = _reference(name)
    G = ref.G
    C = omega1_center(G)
    for containing in (None, C):
        got = elementary_abelian_subgroups(G, containing=containing)
        expect = ref.elementary_abelian_subgroups(containing)
        assert [(S.elems, S.gens, S.order) for S in got] == \
            [(elems, gens, len(elems)) for elems, gens in expect]
        assert all(S.is_elementary_abelian() for S in got)
    assert G.p ** p_rank(G) == max(len(elems) for elems, _ in ref.elementary_abelian_subgroups())


def test_elementary_abelian_enumeration_builds_each_subgroup_once(monkeypatch):
    # one construction for the trivial subgroup, then one per cover S < T
    ref = _reference("D16xD8")
    subs = [set(elems) for elems, _ in ref.elementary_abelian_subgroups()]
    covers = sum(len(T) == ref.G.p * len(S) and S < T for S in subs for T in subs)
    built = []
    init = Subgroup.__init__

    def counted(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(Subgroup, "__init__", counted)
    assert len(elementary_abelian_subgroups(ref.G)) == len(subs)
    assert len(built) == 1 + covers


@pytest.mark.parametrize("name", REFERENCE_GROUPS)
def test_centralizers_and_normalizers_match_definitions(name):
    ref = _reference(name)
    G = ref.G
    socles = {}
    for V in elementary_abelian_subgroups(G):
        K = centralizer(G, V)
        assert list(K.elems) == ref.centralizer(V.elems)
        assert list(normalizer(G, V).elems) == ref.normalizer(V.elems)
        if K.elems not in socles:
            socles[K.elems] = ref.omega1_center(K.elems)
            assert K.is_elementary_abelian() == ref.is_elementary_abelian(K.elems)
        assert list(omega1_center(G, K).elems) == socles[K.elems]


@pytest.mark.parametrize("name", REFERENCE_GROUPS)
def test_weyl_reps_match_coset_loop(name):
    ref = _reference(name)
    cat = quillen_category_AC(ref.G)
    for obj in cat.objects:
        V = obj.rep.elems
        expect = ref.weyl_reps(ref.normalizer(V), ref.centralizer(V))
        assert cat.weyl_reps(obj) == expect


# ---------------------------------------------------------------------------
# full multiplication tables against multiplications computed independently

def _unitriangular(size, p):
    """Elements, product and inverse of the upper unitriangular size x size
    matrices over F_p, an element the tuple of its entries above the diagonal."""
    slots = [(i, j) for i in range(size) for j in range(i + 1, size)]
    one = (0,) * len(slots)

    def matrix(x):
        a = [[int(i == j) for j in range(size)] for i in range(size)]
        for (i, j), v in zip(slots, x):
            a[i][j] = v
        return a

    @functools.lru_cache(maxsize=None)
    def mult(x, y):
        a, b = matrix(x), matrix(y)
        return tuple(sum(a[i][k] * b[k][j] for k in range(size)) % p for i, j in slots)

    def inv(x):
        y = x
        while mult(y, x) != one:
            y = mult(y, x)
        return y

    elems = list(itertools.product(range(p), repeat=len(slots)))
    return elems, mult, inv


def _assert_table_matches(pres, elems, mult, to_idx):
    idx = np.array([to_idx[x] for x in elems])
    want = np.array([[to_idx[mult(x, y)] for y in elems] for x in elems])
    assert np.array_equal(pres.mult_table()[np.ix_(idx, idx)], want)


@pytest.mark.parametrize("size,p", [(4, 2), (3, 3), (3, 5)], ids=["UT4(2)", "UT3(3)", "UT3(5)"])
def test_unitriangular_tables_match_matrix_products(size, p):
    elems, mult, inv = _unitriangular(size, p)
    pres, _, to_idx = pc_structure(elems, mult, inv, p)
    assert pres.order == len(elems) == p ** (size * (size - 1) // 2)
    _assert_table_matches(pres, elems, mult, to_idx)


@pytest.mark.parametrize("gid", QUICK_CORPUS)
def test_relabelled_tables_and_embeddings_match_the_source(gid):
    G = builtin(gid).pres
    source = G.mult_table()
    elems = list(range(G.order))
    random.Random(7).shuffle(elems)
    pres, _, to_idx = pc_structure(elems, G.mult, G.inv, G.p)
    _assert_table_matches(pres, elems, lambda x, y: int(source[x, y]), to_idx)
    subs = elementary_abelian_subgroups(G)
    for S in {S.elems: S for S in subs + [centralizer(G, E) for E in subs]}.values():
        _, embed, to_idx = subgroup_presentation(G, S)
        assert [int(embed.table()[to_idx[x]]) for x in S.elems] == list(S.elems)


# ---------------------------------------------------------------------------
# central cyclic direct factors


def plain(G):
    """The same relations, with no recorded factors."""
    return PcPresentation(G.p, G.n, G.power_rels, G.comm_rels)


def has_complement(G, z):
    """Whether <z> has a normal complement in G, by a search over the
    subgroups that meet <z> trivially, each one grown by one element."""
    Z = closure(G.mult, 0, [z])
    target = G.order // len(Z)
    seen, frontier = set(), [((0,), [])]
    while frontier:
        nxt = []
        for elems, gens in frontier:
            if len(elems) == target:
                if all(G.conj(h, g) in elems for h in elems for g in G.generators()):
                    return True
                continue
            for x in range(G.order):
                if x in elems or x in Z:
                    continue
                S = closure(G.mult, 0, gens + [x])
                key = tuple(sorted(S))
                if len(S & Z) == 1 and key not in seen:
                    seen.add(key)
                    nxt.append((key, gens + [x]))
        frontier = nxt
    return False


CRITERION_GROUPS = [
    pytest.param(builtin(gid).pres, id=gid) for gid in QUICK_CORPUS
    if builtin(gid).pres.order <= 32
] + [
    pytest.param(plain(builtin(gid).pres), id=f"plain {gid}")
    for gid in ("D8xZ4", "Q8xZ4", "Z4xZ2", "Z8xZ2", "Z4xZ4", "D8xZ2", "SD16xZ2")
] + [pytest.param(plain(direct_product(cyclic_presentation(3, 1), cyclic_presentation(3, 2))),
                  id="plain Z3xZ9")]


@pytest.mark.parametrize("G", CRITERION_GROUPS)
def test_split_criterion_matches_a_search_for_complements(G):
    # z^(p^(a-1)) outside [G,G] G^(p^a) against a search that knows no theory
    mask = central_factor_mask(G)
    central = center(G).elems
    assert not mask[[x for x in range(G.order) if x not in central]].any()
    for z in central[1:]:
        assert mask[z] == has_complement(G, z), z


def factor_orders(G):
    return G.order if G.factors is None else tuple(factor_orders(F) for F in G.factors)


Z3, Z9 = cyclic_presentation(3, 1), cyclic_presentation(3, 2)


@pytest.mark.parametrize("G,want", [
    (direct_product(Z9, Z9), (9, 9)),
    (direct_product(Z3, Z9), (9, 3)),
    (direct_product(cyclic_presentation(5, 1), cyclic_presentation(5, 2)), (25, 5)),
    (direct_product(H27, Z3), (3, 27)),
    (builtin("D8xZ4").pres, (4, 8)),
    (builtin("E8xD8").pres, (2, (2, (2, 8)))),
    (elem_abelian(3, 3), (3, (3, 3))),
], ids=["Z9xZ9", "Z3xZ9", "Z5xZ25", "H27xZ3", "D8xZ4", "E8xD8", "E27"])
@pytest.mark.parametrize("copy", ["plain", "relabelled"])
def test_split_gives_the_expected_factor_orders(G, want, copy):
    if copy == "plain":
        G = plain(G)
    else:
        elems = list(range(G.order))
        random.Random(3).shuffle(elems)
        G, _, _ = pc_structure(elems, G.mult, G.inv, G.p)
    split = split_central_factors(G)
    assert factor_orders(split) == want
    assert omega1_center(split).order == omega1_center(G).order
    assert p_rank(split) == p_rank(G)


@pytest.mark.parametrize("G", [
    H27, W23, builtin("32#18").pres, builtin("64#187").pres, plain(builtin("D8xD8").pres),
    builtin("SD16").pres, builtin("D8xZ4").pres, *(builtin(f"Z{2 ** k}").pres for k in range(1, 7)),
    Z3, Z9, cyclic_presentation(3, 3), cyclic_presentation(5, 2),
], ids=lambda G: repr(G))
def test_groups_without_a_split_come_back_unchanged(G):
    # a cyclic group would split off itself, with a trivial complement;
    # a presentation that records factors is not split again
    assert split_central_factors(G) is G


def test_a_wrong_retraction_is_a_hard_error(monkeypatch):
    monkeypatch.setattr(pgroup, "_solve_mod_prime_power", lambda rows, rhs, p, a: [0] * len(rows[0]))
    with pytest.raises(AssertionError, match="does not send z"):
        split_central_factors(plain(direct_product(Z9, Z9)))


@pytest.mark.parametrize("p,a", [(2, 2), (2, 3), (3, 2), (5, 2)])
def test_solve_mod_prime_power_matches_an_exhaustive_search(p, a):
    rng = np.random.default_rng(p * 10 + a)
    q = p ** a
    for _ in range(60):
        m, n = rng.integers(1, 5), rng.integers(1, 4)
        rows = rng.integers(0, q, (m, n)) * p ** rng.integers(0, a + 1, (m, 1))
        rhs = rng.integers(0, q, m) * p ** rng.integers(0, a + 1, m)
        every = np.array(list(itertools.product(range(q), repeat=n)))
        solvable = not ((every @ rows.T - rhs) % q).any(axis=1).all()
        x = pgroup._solve_mod_prime_power(rows.tolist(), rhs.tolist(), p, a)
        assert (x is not None) == solvable
        if x is not None:
            assert not ((rows @ x - rhs) % q).any()
