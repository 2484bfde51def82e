"""Direct products served from their factors.

A presentation made by ``direct_product`` is resolved as the tensor
product of its factors' resolutions, and every map its analyzer needs
is read off the factors' analyzers: the C-coaction primitives
(Kunneth), the restriction to C, the Cess restrictions, every cup
product and the centralizers of the d0 recursion.  These tests compare
that route with independent derivations: a from-scratch resolution of
the same relations, each map lifted into the served resolution, the
reports of copies of each product that record no factors, and the
Kunneth laws for the dimensions the invariants are read from.  A
``.pcp`` input that splits off central cyclic factors is served the same
way, and is compared with the from-scratch route on its literal
presentation.
"""

import json
import os
import random
from collections import Counter

import numpy as np
import pytest

from centdet import cli, resolution
from centdet.acceptance import QUICK_CORPUS
from centdet.catalog import CatalogEntry, builtin, format_pcp, load_pcp
from centdet.fplinalg import FpMatrix, kernel_basis
from centdet.invariants import Workspace, report
from centdet.pgroup import (
    GroupHom,
    PcPresentation,
    Subgroup,
    centralizer,
    cyclic_presentation,
    direct_product,
    factor_parts,
    omega1_center,
    pc_structure,
    split_central_factors,
    subgroup_presentation,
    whole_group,
)
from centdet.resolution import (
    BudgetExceededError,
    Cocycle,
    ComoduleMap,
    InducedMap,
    MinimalResolution,
    TensorInducedMap,
    TensorResolution,
    _cocycle_lift,
    multiplication_matrix,
)

Z3 = PcPresentation(3, 1, [(0,)], {})
# extraspecial of order 27 and exponent 3
H27 = PcPresentation(3, 3, [(0, 0, 0)] * 3, {(1, 0): (0, 0, 1)})
# universal 3-central group of order 3^5
W23 = PcPresentation(
    3, 5,
    [(0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0,) * 5, (0,) * 5, (0,) * 5],
    {(1, 0): (0, 0, 0, 0, 1)},
)


SERVED = [
    ("D8xZ4", builtin("D8xZ4").pres, 6),
    # both factors have primitive bases that are not identities (D8 in
    # degrees >= 2), so the Kunneth blocks are no symmetric kron
    ("D8xD8", builtin("D8xD8").pres, 3),
    ("Q8xZ2", builtin("Q8xZ2").pres, 6),
    ("SD16xZ2", builtin("SD16xZ2").pres, 6),
    ("Z3xZ3", direct_product(Z3, Z3), 4),
    ("H27xZ3", direct_product(H27, Z3), 4),
]


def plain_copy(G: PcPresentation) -> PcPresentation:
    """The same relations, with no recorded factors."""
    return PcPresentation(G.p, G.n, G.power_rels, G.comm_rels)


def relabelled_copy(G: PcPresentation, seed: int) -> PcPresentation:
    """The presentation pc_structure picks from a seeded shuffle of G."""
    elems = list(range(G.order))
    random.Random(seed).shuffle(elems)
    pres, _, _ = pc_structure(elems, G.mult, G.inv, G.p)
    return pres


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


@pytest.mark.parametrize("gid,G,N", SERVED, ids=[g for g, _, _ in SERVED])
def test_served_betti_match_a_from_scratch_resolution(gid, G, N):
    res = Workspace().resolution(G, N)
    assert isinstance(res, TensorResolution)
    assert res.betti == MinimalResolution(plain_copy(G)).extend_to(N).betti


@pytest.mark.parametrize("gid,G,N", SERVED, ids=[g for g, _, _ in SERVED])
def test_kunneth_primitives_match_the_lifted_coaction(gid, G, N):
    ws = Workspace()
    a = ws.analyzer(G, N)
    C = omega1_center(G)
    presC, _, _ = subgroup_presentation(G, C)
    lifted = ComoduleMap(a.res, C, ws.resolution(presC, N))
    for k in range(N + 1):
        got, want = a.pc_basis(k).basis.arr, lifted.primitive_basis(k).basis.arr
        assert got.shape == want.shape and np.array_equal(got, want), k


# ---------------------------------------------------------------------------
# every map read off the factors equals the map lifted into the same
# served resolution


FACTOR_MAPS = [
    ("D8xZ4", builtin("D8xZ4").pres, 6),
    ("Q8xZ2", builtin("Q8xZ2").pres, 6),
    ("Z3xZ3", direct_product(Z3, Z3), 5),
    # the type of H27 needs N = 6, so there are no Duflot generators at N = 4
    ("H27xZ3", direct_product(H27, Z3), 4),
    # both factors restrict and multiply non-trivially, so a swapped kron fails
    ("D8xD8", builtin("D8xD8").pres, 3),
]


def lifted_conj(ws, G, S_from, S_to, g, k):
    """The map y -> g y g^-1 from pres(S_from) to pres(S_to), lifted into
    ws's resolution of pres(S_to) from the embedding of S_from."""
    presF, embedF, _ = subgroup_presentation(G, S_from)
    presT, _, to_idxT = subgroup_presentation(G, S_to)
    images = [to_idxT[G.mult(G.mult(g, embedF.apply(x)), G.inv(g))]
              for x in presF.generators()]
    return InducedMap(GroupHom(presF, presT, images),
                      ws.resolution(presF, k), ws.resolution(presT, k))


def lifted_restriction(ws, G, S, N):
    """res*: H*(G) -> H*(S) lifted into ws's resolution of G, from ws's
    resolution of S's presentation; a product subgroup of a product is
    presented as one, so its rows are then the pair coordinates of
    S_A x S_B."""
    return lifted_conj(ws, G, S, whole_group(G), 0, N)


def strict_centralizers(a):
    family = {}
    for obj in a.category.objects:
        if obj.rep.order > a.C.order:
            K = centralizer(a.G, obj.rep)
            family.setdefault(K.elems, K)
    return list(family.values())


def duflot_generators(a):
    return [g for _, g in a.duflot().generators] if a.group_type().certified else []


def cross_product(res, a, b):
    """The cross product a x b in H*(A x B), for a in H*(A) and b in H*(B),
    in the pair coordinates of res: a_u b_v on (|a|, u, v)."""
    k = a.degree + b.degree
    vec = np.zeros(res.rank(k), dtype=np.uint8)
    vec[res.block(k, a.degree)] = np.kron(a.vec.astype(np.int64), b.vec) % res.p
    return Cocycle(k, vec)


def lifted_product(res, g, m):
    """Multiplication by g on H^m, lifted into res as a chain map."""
    return _cocycle_lift(res, g).functional_matrix(m)


def assert_maps_match_their_lifts(ws, a):
    """The restriction to C, the Cess restrictions and kernels, and the
    Duflot products of a's analyzer equal those lifted into a.res."""
    N, res = a.N, a.res
    lifted = lifted_restriction(ws, a.G, a.C, N)
    for k in range(N + 1):
        assert np.array_equal(a.restriction_to_C().matrix(k), lifted.matrix(k)), ("res_C", k)
    family = strict_centralizers(a)
    for K in family:
        served = a._conj_map(K, whole_group(a.G), 0, N)
        ref = lifted_restriction(ws, a.G, K, N)
        for k in range(N + 1):
            assert np.array_equal(served.matrix(k), ref.matrix(k)), ("cess map", k)
    kernels = a.cess_subspaces()
    assert (kernels is None) == (not family)
    for k in range(N + 1 if family else 0):
        stacked = np.vstack([np.zeros((0, res.rank(k)), dtype=np.uint8)]
                            + [lifted_restriction(ws, a.G, K, N).matrix(k) for K in family])
        want = kernel_basis(FpMatrix(a.p, stacked, check=False)).basis.arr
        assert np.array_equal(kernels[k].basis.arr, want), ("cess", k)
    for g in duflot_generators(a):
        for m in range(N - g.degree + 1):
            assert np.array_equal(multiplication_matrix(res, g, m),
                                  lifted_product(res, g, m)), ("duflot", g.degree, m)


@pytest.mark.parametrize("gid,G,N", FACTOR_MAPS, ids=[g for g, _, _ in FACTOR_MAPS])
def test_factor_maps_match_their_lifts(gid, G, N):
    ws = Workspace()
    a = ws.analyzer(G, N)
    assert isinstance(a.restriction_to_C(), TensorInducedMap)
    assert all(isinstance(a._conj_map(K, whole_group(a.G), 0, N), TensorInducedMap)
               for K in strict_centralizers(a))
    assert_maps_match_their_lifts(ws, a)


@pytest.mark.parametrize("gid,G,N", FACTOR_MAPS, ids=[g for g, _, _ in FACTOR_MAPS])
def test_cross_products_multiply_like_their_lifts(gid, G, N):
    # every unit class of degree <= 1 (2 at odd p) in each factor; at odd
    # p an odd |a| meets odd B-degrees, so the Koszul sign is pinned
    res = Workspace().resolution(G, N)
    top = 1 if res.p == 2 else 2
    units = [[Cocycle(d, row) for d in range(top + 1)
              for row in np.eye(r.rank(d), dtype=np.uint8)] for r in (res.resA, res.resB)]
    for a in units[0]:
        for b in units[1]:
            g = cross_product(res, a, b)
            if not 1 <= g.degree <= N:
                continue
            for m in range(N - g.degree + 1):
                assert np.array_equal(multiplication_matrix(res, g, m),
                                      lifted_product(res, g, m)), (a.degree, b.degree, m)


@pytest.mark.parametrize("gid,G,N", SERVED, ids=[g for g, _, _ in SERVED])
def test_every_class_multiplies_like_its_lift(gid, G, N):
    # a random class of each degree, nonzero in its first and last Kunneth
    # blocks, so it is no cross product; odd p pins the Koszul sign
    res = Workspace().resolution(G, N)
    rng = np.random.default_rng(7)
    for n in range(1, N + 1):
        vec = rng.integers(0, res.p, res.rank(n), dtype=np.uint8)
        vec[[res.pair_pos(n, (0, 0, 0)), res.pair_pos(n, (n, 0, 0))]] = 1
        g = Cocycle(n, vec)
        for m in range(N - n + 1):
            assert np.array_equal(multiplication_matrix(res, g, m),
                                  lifted_product(res, g, m)), (n, m)
    assert len(res._cup_lifts) == N  # only the references were lifted


# ---------------------------------------------------------------------------
# the equalizer reads its primitives and maps off the factors


EQUALIZER = [
    ("D8xD8", builtin("D8xD8").pres, 4),
    ("E8xD8", builtin("E8xD8").pres, 4),
    ("Q8xZ4", builtin("Q8xZ4").pres, 4),
    ("H27xZ3", direct_product(H27, Z3), 5),
]


@pytest.mark.parametrize("gid,G,N", EQUALIZER, ids=[g for g, _, _ in EQUALIZER])
def test_object_primitives_match_the_lifted_coaction(gid, G, N):
    # every object V of A_C, in its centralizer K; a product V is read
    # off the factors, a diagonal one (in D8 x D8) lifts
    ws = Workspace()
    a = ws.analyzer(G, N)
    served = 0
    for obj in a.category.objects:
        _, aK, V_K = a._centralizer(obj.rep)
        presV, _, _ = subgroup_presentation(aK.G, V_K)
        lifted = ComoduleMap(aK.res, V_K, ws.resolution(presV, N))
        for d in range(N + 1):
            got, want = aK._primitives(V_K, d).basis.arr, lifted.primitive_basis(d).basis.arr
            assert got.shape == want.shape and np.array_equal(got, want), (obj.rep.elems, d)
        if factor_parts(aK.G, V_K) is not None:
            served += 1
            assert ("comodule", V_K.elems) not in aK._cache
    assert served


def equalizer_maps(a):
    """(S_from, S_to, g) of every Weyl and inclusion map ``_equalizer_dim``
    reads, on the class reps V and on their centralizers."""
    cat, maps = a.category, []
    for obj in cat.objects:
        K = a._centralizer(obj.rep)[0]
        maps += [m for w in cat.weyl_reps(obj) if w
                 for m in ((obj.rep, obj.rep, w), (K, K, w))]
    for obj2 in cat.objects:
        V2, K2 = obj2.rep, a._centralizer(obj2.rep)[0]
        for elems, (pos1, g) in cat.member_index.items():
            if elems != V2.elems and set(elems) <= set(V2.elems):
                V1p, obj1 = Subgroup(a.G, elems), cat.objects[pos1]
                maps += [(V1p, obj1.rep, g), (K2, a._centralizer(obj1.rep)[0], g),
                         (V1p, V2, 0)]
    return maps


# Q8 x Z4 is p-central, so its A_C is C alone, with no map to read
EQUALIZER_MAPS = [case for case in EQUALIZER if case[0] != "Q8xZ4"] + [
    ("D8xZ4", builtin("D8xZ4").pres, 4)]


@pytest.mark.parametrize("gid,G,N", EQUALIZER_MAPS, ids=[g for g, _, _ in EQUALIZER_MAPS])
def test_equalizer_maps_match_their_lifts(gid, G, N):
    ws = Workspace()
    a = ws.analyzer(G, N)
    twisted = 0
    for S_from, S_to, g in equalizer_maps(a):
        top = N if S_from.order > a.C.order else 2
        served, ref = a._conj_map(S_from, S_to, g, top), lifted_conj(ws, a.G, S_from, S_to, g, top)
        for k in range(top + 1):
            assert np.array_equal(served.matrix(k), ref.matrix(k)), (S_from.elems, g, k)
        twisted += isinstance(served, TensorInducedMap) and g != 0
    assert twisted  # some served map conjugates by g != 1


LAYERS = [
    ("D8xZ4", builtin("D8xZ4").pres, 4),
    ("D8xD8", builtin("D8xD8").pres, 3),
    ("E8xD8", builtin("E8xD8").pres, 3),
    ("Q8xZ4", builtin("Q8xZ4").pres, 4),
    ("H27xZ3", direct_product(H27, Z3), 4),
]


@pytest.mark.parametrize("gid,G,N", LAYERS, ids=[g for g, _, _ in LAYERS])
def test_layers_match_the_plain_copy(gid, G, N):
    # the plain copy records no factors, so it lifts every primitive and map
    a, b = (Workspace().analyzer(pres, N) for pres in (G, plain_copy(G)))
    assert isinstance(a.res, TensorResolution) and not isinstance(b.res, TensorResolution)
    assert a.lf_dims() == b.lf_dims()
    for d in range(N + 1):
        assert a.bar_rd_dims(d) == b.bar_rd_dims(d), d


@pytest.mark.parametrize("gid,G,N", [("E8xD8", builtin("E8xD8").pres, 4),
                                     ("H27xZ3", direct_product(H27, Z3), 8)],
                         ids=["E8xD8", "H27xZ3"])
def test_locally_finite_part_builds_no_tensor_solver(monkeypatch, gid, G, N):
    # every object and centralizer is a product, so the equalizer lifts
    # nothing into a tensor resolution
    _, _, by_class = count_group_work(monkeypatch)
    a = Workspace().analyzer(G, N)
    assert a.lf_dims()[0] == 1
    assert by_class["MinimalResolution"] and not by_class["TensorResolution"], by_class


# ---------------------------------------------------------------------------
# exact arithmetic: every map is uint8, so no Kronecker product is float


def test_every_map_route_is_uint8():
    # a uint64 block sum once made every lifted matrix uint64, and its
    # kron with an int64 factor matrix float64
    ws = Workspace()
    G = builtin("D8xZ4").pres
    a = ws.analyzer(G, 4)
    res = a.res
    g = Cocycle(1, np.ones(res.resA.rank(1), dtype=np.uint8))
    h = Cocycle(2, np.ones(res.rank(2), dtype=np.uint8))
    K = strict_centralizers(a)[0]
    mats = {
        "InducedMap.matrix": lifted_restriction(ws, G, a.C, 4).matrix(3),
        "ChainMap.functional_matrix": _cocycle_lift(res.resA, g).functional_matrix(2),
        "lifted multiplication_matrix": multiplication_matrix(res.resA, g, 2),
        "tensor multiplication_matrix": multiplication_matrix(res, h, 2),
        "TensorInducedMap.matrix": a._conj_map(K, whole_group(a.G), 0, 4).matrix(3),
        "TensorInducedMap.matrix to C": a.restriction_to_C().matrix(3),
    }
    assert {name: M.dtype for name, M in mats.items()} == dict.fromkeys(mats, np.dtype(np.uint8))


def test_no_kronecker_product_is_float(capsys, monkeypatch):
    kinds = Counter()
    kron = np.kron

    def spy(a, b):
        out = kron(a, b)
        kinds[out.dtype.kind] += 1
        return out

    monkeypatch.setattr(resolution.np, "kron", spy)
    for argv in (("invariants", "D8xZ4", "--degree", "8"),
                 ("invariants", "64#187", "--degree", "6"),
                 ("invariants", "E8xD8", "--degree", "5"),
                 ("cohomology", "D8xZ4", "--degree", "8")):
        assert run_cli(capsys, *argv)[0] == 0
    assert kinds["i"] and not kinds["f"], kinds


# ---------------------------------------------------------------------------
# the Kunneth laws, independently of the route that computed the dims


KUNNETH_LAWS = [
    ("D8xZ4", builtin("D8xZ4").pres),
    ("Q8xZ2", builtin("Q8xZ2").pres),
    ("SD16xZ2", builtin("SD16xZ2").pres),
    ("Q8xD8", builtin("Q8xD8").pres),
    ("Z3xZ3", direct_product(Z3, Z3)),
]


def convolve(a, b):
    return tuple(sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(len(a)))


@pytest.mark.parametrize("copy", ["served", "plain"])
@pytest.mark.parametrize("gid,G", KUNNETH_LAWS, ids=[g for g, _ in KUNNETH_LAWS])
def test_dims_convolve_the_factors_dims(gid, G, copy):
    # H*(A x B) = H*(A) (x) H*(B) is free over the Duflot subalgebra, so
    # Q_A has the generator degrees' quotient series and convolves; and
    # Cess(A x B) = Cess(A) (x) Cess(B): the centralizer of an elementary
    # abelian U > C is C_A(U_A) x C_B(U_B), restriction to C_A(U_A) x B
    # has kernel ker(res_A) (x) H*(B), the intersection of X (x) H*(B)
    # and H*(A) (x) Y is X (x) Y, and P_C is P_{C_A} (x) P_{C_B}.  The
    # plain copy records no factors, so every map is lifted into a
    # from-scratch resolution of the product.
    N = 6
    a = Workspace().analyzer(G if copy == "served" else plain_copy(G), N)
    assert isinstance(a.res, TensorResolution) == (copy == "served")
    ws = Workspace()
    factors = [ws.analyzer(F, N) for F in G.factors]
    for dims in ("qa_dims", "cess_dims", "qa_cess_dims", "pc_cess_dims"):
        assert getattr(a, dims)() == convolve(*(getattr(f, dims)() for f in factors)), dims


# ---------------------------------------------------------------------------
# the same output from copies that record no factors


def stretch(gid, G, N):
    return pytest.param(gid, G, N, id=f"{gid}@{N}", marks=[
        pytest.mark.stretch,
        pytest.mark.skipif(not os.environ.get("CENTDET_STRETCH"),
                           reason="stretch tier: set CENTDET_STRETCH=1")])


INVARIANCE = [pytest.param(gid, G, N, id=gid) for gid, G, N in [
    ("D8xZ4", builtin("D8xZ4").pres, 8),
    ("Q8xZ4", builtin("Q8xZ4").pres, 6),
    ("SD16xZ2", builtin("SD16xZ2").pres, 6),
    ("H27xZ3", direct_product(H27, Z3), 4),
    ("E8xD8", builtin("E8xD8").pres, 4),
    ("D8xD8", builtin("D8xD8").pres, 4),
]] + [
    # their plain copies alone take 7.6 s and 5.4 s
    stretch("E8xD8", builtin("E8xD8").pres, 5),
    stretch("D8xD8", builtin("D8xD8").pres, 6),
]


@pytest.mark.parametrize("gid,G,N", INVARIANCE)
def test_products_report_like_their_unfactored_copies(capsys, monkeypatch, gid, G, N):
    # the three commands on one copy share a Workspace, which cuts the
    # from-scratch work; at N = 4 the type of H27 is not certified, so its
    # cess output is the same DegreeBoundError for every copy
    outputs = []
    for pres in (G, plain_copy(G), relabelled_copy(G, seed=1)):
        ws = Workspace()
        monkeypatch.setattr(cli, "resolve_group", lambda name, pres=pres: CatalogEntry(name, pres))
        monkeypatch.setattr(cli, "Workspace", lambda budget, ws=ws, **kw: ws)
        outputs.append([run_cli(capsys, command, gid, "--degree", str(N))
                        for command in ("invariants", "cess", "cohomology")])
    assert outputs[0][0][0] == outputs[0][2][0] == 0
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


RELABELLED = [pytest.param(gid, builtin(gid).pres, 8, id=gid) for gid in QUICK_CORPUS] + [
    pytest.param(gid, G, N, id=f"{gid}@{N}") for gid, G, N in [
        ("W23", W23, 2),
        ("H27", H27, 10),
        ("Z9xZ9", direct_product(cyclic_presentation(3, 2), cyclic_presentation(3, 2)), 8),
        ("Z3xZ9", direct_product(Z3, cyclic_presentation(3, 2)), 8),
        ("Z5xZ25", direct_product(cyclic_presentation(5, 1), cyclic_presentation(5, 2)), 6),
    ]]


@pytest.mark.parametrize("gid,G,N", RELABELLED)
def test_reports_like_relabelled_copies(capsys, monkeypatch, gid, G, N):
    # each degree of a build spans rad*K from the Burnside generators of
    # its presentation, and the Frobenius levels lift the projections of
    # C onto Z/p; a seeded relabelling presents G on other pc generators,
    # for most of these groups with other relations too
    outputs = []
    for pres in (G, relabelled_copy(G, seed=1), relabelled_copy(G, seed=2)):
        monkeypatch.setattr(cli, "resolve_group", lambda name, pres=pres: CatalogEntry(name, pres))
        outputs.append(run_cli(capsys, "invariants", gid, "--degree", str(N)))
    assert outputs[0][0] == 0
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


def sylow_2_of_s8() -> PcPresentation:
    """Z2 wr Z2 wr Z2, generated by (1 2), (1 3)(2 4), (1 5)(2 6)(3 7)(4 8)."""
    def perm(*cycles):
        images = list(range(8))
        for cycle in cycles:
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                images[a - 1] = b - 1
        return tuple(images)

    def mult(x, y):  # x, then y
        return tuple(y[i] for i in x)

    def inv(x):
        out = [0] * 8
        for i, image in enumerate(x):
            out[image] = i
        return tuple(out)

    gens = [perm((1, 2)), perm((1, 3), (2, 4)), perm((1, 5), (2, 6), (3, 7), (4, 8))]
    elems, frontier = {tuple(range(8))}, [tuple(range(8))]
    while frontier:
        frontier = [y for x in frontier for y in {mult(x, g) for g in gens} if y not in elems]
        elems.update(frontier)
    pres, _, _ = pc_structure(sorted(elems), mult, inv, 2)
    return pres


@pytest.mark.stretch
@pytest.mark.skipif(not os.environ.get("CENTDET_STRETCH"),
                    reason="stretch tier: set CENTDET_STRETCH=1")
def test_sylow_2_of_s8_reports_like_a_relabelled_copy(capsys, tmp_path):
    # order 128, not a product and no central factor splits off: every
    # invariant is read off lifts into from-scratch resolutions
    G = sylow_2_of_s8()
    assert G.order == 128 and split_central_factors(G) is G
    outputs = []
    for copy, pres in (("plain", G), ("relabelled", relabelled_copy(G, seed=1))):
        (tmp_path / copy).mkdir()
        path = tmp_path / copy / "Syl2S8.pcp"
        path.write_text(format_pcp(pres))
        outputs.append(run_cli(capsys, "--budget", "100000000", "invariants", str(path),
                               "--degree", "6"))
    assert outputs[1] == outputs[0]
    code, out = outputs[0]
    assert code == 0
    assert json.loads(out) == {
        "group_id": "Syl2S8", "p": 2, "order": 128, "rank": 4, "center_rank": 1,
        "p_central": False, "type": [4], "e": 3, "h": 2, "d0": 0, "d1": None,
        "e_prime": -1, "e_double_prime": -1, "cess_nonzero": False,
        "truncation_degree": 6,
        "certified": {"type": True, "e_prime": False, "e_double_prime": False,
                      "d0": False},
    }


# ---------------------------------------------------------------------------
# the budget of a served product is that of a from-scratch build


# `invariants D8xZ4 --degree 10` before products were served from factors
D8XZ4_REPORT = {
    "group_id": "D8xZ4", "p": 2, "order": 32, "rank": 3, "center_rank": 2,
    "p_central": False, "type": [2, 2], "e": 2, "h": 1, "d0": 1, "d1": None,
    "e_prime": -1, "e_double_prime": -1, "cess_nonzero": False,
    "truncation_degree": 10,
    "certified": {"type": True, "e_prime": True, "e_double_prime": True, "d0": True},
}
D8XZ4_REFUSED = {
    **D8XZ4_REPORT, "type": None, "e": None, "h": None, "d0": None,
    "e_prime": None, "e_double_prime": None, "cess_nonzero": None,
    "certified": {"budget_exceeded": True},
}


@pytest.mark.parametrize("budget,want", [(500, D8XZ4_REFUSED), (2000, D8XZ4_REFUSED),
                                         (3000, D8XZ4_REPORT)])
def test_served_product_report_under_a_budget(capsys, budget, want):
    code, out = run_cli(capsys, "--budget", str(budget), "invariants", "D8xZ4",
                        "--degree", "10")
    assert code == 0
    assert json.loads(out) == want


def test_served_product_refuses_with_the_from_scratch_message(capsys):
    # b_10(D8 x Z4) = 66, and 66 * 32 = 2112 columns
    code, out = run_cli(capsys, "--budget", "2000", "cess", "D8xZ4", "--degree", "10")
    assert code == 1
    assert json.loads(out)["error"] == {
        "type": "BudgetExceededError",
        "message": "resolution degree 10 needs 2112 columns, budget is 2000"}


@pytest.mark.parametrize("budget", [15, 100, 500, 2000])
def test_served_product_refuses_at_the_from_scratch_degree(budget):
    # at budget 15 the factor D8 is itself over budget in degree 1
    G = builtin("D8xZ4").pres
    with pytest.raises(BudgetExceededError) as scratch:
        MinimalResolution(plain_copy(G), budget=budget).extend_to(10)
    with pytest.raises(BudgetExceededError) as served:
        Workspace(budget=budget).resolution(G, 10)
    assert (served.value.degree, served.value.needed) == (
        scratch.value.degree, scratch.value.needed)


def test_deeper_factors_do_not_refuse_a_shallower_product():
    ws = Workspace(budget=2000)
    ws.resolution(builtin("D8").pres, 12)
    ws.resolution(builtin("Z4").pres, 12)
    G = builtin("D8xZ4").pres
    assert ws.resolution(G, 6).betti == [1, 3, 6, 10, 15, 21, 28, 36, 45, 55]
    with pytest.raises(BudgetExceededError, match="degree 10 needs 2112"):
        ws.resolution(G, 10)


def test_the_coaction_source_is_not_refused():
    # C x G has order 128 and is over the budget in degree 6, though never densified
    ws = Workspace(budget=2000)
    a = ws.analyzer(builtin("D8xZ4").pres, 6)
    assert a.comodule().kun.rank(6) * 128 > 2000
    assert a.comodule().primitive_basis(6) == a.pc_basis(6)


# ---------------------------------------------------------------------------
# the mechanism


def test_served_report_lifts_no_coaction_over_the_product(capsys, monkeypatch):
    resolved, coacted = [], []
    complement = resolution.MinimalResolution._radical_complement
    comodule_init = resolution.ComoduleMap.__init__

    def counted_complement(self, kernel_rows):
        resolved.append(self.order)
        return complement(self, kernel_rows)

    def counted_init(self, res_G, C, res_C):
        coacted.append(res_G.order)
        comodule_init(self, res_G, C, res_C)

    monkeypatch.setattr(resolution.MinimalResolution, "_radical_complement", counted_complement)
    monkeypatch.setattr(resolution.ComoduleMap, "__init__", counted_init)
    code, _ = run_cli(capsys, "invariants", "D8xZ4", "--degree", "6")
    assert code == 0
    assert 8 in resolved and 32 not in resolved  # D8 is built, D8 x Z4 is not
    assert 8 in coacted and 32 not in coacted


def count_group_work(monkeypatch):
    """Counters, by group order, of the LinSolver builds over a group's
    differentials (a miss of MinimalResolution.solver, the one route
    that builds them) and of the radical complements, and of the solver
    builds by resolution class."""
    solvers, complements, by_class = Counter(), Counter(), Counter()
    solver = resolution.MinimalResolution.solver
    complement = resolution.MinimalResolution._radical_complement

    def counted_solver(self, i):
        if i not in self._solvers:
            solvers[self.order] += 1
            by_class[type(self).__name__] += 1
        return solver(self, i)

    def counted_complement(self, kernel_rows):
        complements[self.order] += 1
        return complement(self, kernel_rows)

    monkeypatch.setattr(resolution.MinimalResolution, "solver", counted_solver)
    monkeypatch.setattr(resolution.MinimalResolution, "_radical_complement", counted_complement)
    return solvers, complements, by_class


def test_served_reports_build_no_solver_over_the_product(capsys, monkeypatch):
    solvers, complements, _ = count_group_work(monkeypatch)
    assert run_cli(capsys, "invariants", "D8xZ4", "--degree", "10")[0] == 0
    assert solvers[8] and complements[8]  # D8 is resolved and lifted into
    assert max(solvers) < 16 and max(complements) < 16
    solvers.clear()
    complements.clear()
    assert run_cli(capsys, "invariants", "E8xD8", "--degree", "6")[0] == 0
    assert solvers[8] and complements[8]  # E8 and D8 are resolved and lifted into
    assert max(solvers) < 16 and max(complements) < 16  # nothing of order >= 16 is built


@pytest.mark.parametrize("command,gid,N", [
    ("invariants", "D8xZ4", 10), ("invariants", "E8xD8", 6), ("invariants", "D8xD8", 6),
    ("invariants", "64#187xZ2", 8), ("invariants", "D8xD8xZ2", 5), ("cess", "D8xD8xZ2", 5),
], ids=lambda v: str(v))
def test_no_solver_is_built_over_a_tensor_resolution(capsys, monkeypatch, command, gid, N):
    # C and the centralizers are presented as products of factor subgroups,
    # at every nesting level, so every map is read off the factors and
    # nothing is lifted into a tensor resolution
    solvers, complements, by_class = count_group_work(monkeypatch)
    assert run_cli(capsys, command, gid, "--degree", str(N))[0] == 0
    assert by_class["MinimalResolution"] and not by_class["TensorResolution"], by_class
    if gid == "D8xD8xZ2":  # no order-16 subgroup of the nested product is resolved
        assert max(solvers) < 16 and max(complements) < 16


def test_odd_p_served_report_builds_no_solver_over_a_tensor_resolution(monkeypatch):
    # every Frobenius level lifts the projections of C = Z/3 x Z/3 onto
    # Z/3 into the order-3 resolution, so C's tensor is only lifted from
    _, _, by_class = count_group_work(monkeypatch)
    Workspace().analyzer(direct_product(H27, Z3), 6).report()
    assert by_class["MinimalResolution"] and not by_class["TensorResolution"], by_class


@pytest.mark.parametrize("gid,N,largest", [("E8xD8", 5, 8), ("64#187xZ2", 6, 64)])
def test_served_cohomology_builds_nothing_over_the_product(capsys, monkeypatch,
                                                           gid, N, largest):
    solvers, complements, _ = count_group_work(monkeypatch)
    assert run_cli(capsys, "cohomology", gid, "--degree", str(N))[0] == 0
    assert solvers[largest] and complements[largest]  # a factor is resolved and lifted into
    assert max(solvers) == max(complements) == largest


def test_served_cohomology_refuses_like_its_plain_copy(capsys, monkeypatch):
    # b_5(D8 x Z4) = 21, and 21 * 32 = 672 columns
    argv = ("--budget", "500", "cohomology", "D8xZ4", "--degree", "10")
    served = run_cli(capsys, *argv)
    assert served[0] == 1
    assert json.loads(served[1])["error"] == {
        "type": "BudgetExceededError",
        "message": "resolution degree 5 needs 672 columns, budget is 500"}
    plain = plain_copy(builtin("D8xZ4").pres)
    monkeypatch.setattr(cli, "resolve_group", lambda name: CatalogEntry(name, plain))
    assert run_cli(capsys, *argv) == served


def test_a_product_and_its_plain_copy_keep_their_routes_in_one_workspace():
    # a Workspace shares by recorded factors, not by the hash alone: in
    # either order, the product reads its maps off the factors and the
    # plain copy, with the same hash, lifts them into its own resolution
    G = builtin("D8xZ4").pres
    for first, second in ((plain_copy(G), G), (G, plain_copy(G))):
        ws = Workspace()
        ws.resolution(first, 6)
        by_route = {}
        for pres in (first, second):
            a = ws.analyzer(pres, 6)
            served = pres.factors is not None
            assert isinstance(a.res, TensorResolution) == served
            assert isinstance(a.restriction_to_C(), TensorInducedMap) == served
            assert (a._factors() is not None) == served
            for k in range(7):
                assert a.pc_basis(k) == a.comodule().primitive_basis(k)
            assert_maps_match_their_lifts(ws, a)
            by_route[served] = a
        a, b = by_route[True], by_route[False]
        assert a.pc_dims() == b.pc_dims() == (1, 3, 4, 4, 4, 4, 4)
        for dims in ("restriction_image_dims", "qa_dims", "cess_dims", "qa_cess_dims"):
            assert getattr(a, dims)() == getattr(b, dims)(), dims
        assert a.d0() == b.d0()


# ---------------------------------------------------------------------------
# a .pcp input is served from the central cyclic factors it splits off


PLAIN_INPUTS = [pytest.param(gid, G, N, id=gid) for gid, G, N in [
    ("Z9xZ9", direct_product(cyclic_presentation(3, 2), cyclic_presentation(3, 2)), 8),
    ("Z3xZ9", direct_product(Z3, cyclic_presentation(3, 2)), 8),
    ("Z5xZ25", direct_product(cyclic_presentation(5, 1), cyclic_presentation(5, 2)), 6),
    ("D8xZ4", builtin("D8xZ4").pres, 6),
    ("Q8xZ4", builtin("Q8xZ4").pres, 6),
    ("E8xD8", builtin("E8xD8").pres, 4),
    ("E27", PcPresentation(3, 3, [(0,) * 3] * 3, {}), 4),
]]


@pytest.mark.parametrize("gid,G,N", PLAIN_INPUTS)
def test_split_inputs_report_like_the_from_scratch_route(capsys, monkeypatch, tmp_path,
                                                         gid, G, N):
    # the CLI splits the file's presentation and serves it from the
    # factors; the library resolves the presentation it is given, so
    # a Workspace on load_pcp(path) is the from-scratch reference
    path = str(tmp_path / f"{gid}.pcp")
    with open(path, "w") as fh:
        fh.write(format_pcp(G))
    commands = ("invariants", "cess", "cohomology")
    solvers, complements, by_class = count_group_work(monkeypatch)
    served = [run_cli(capsys, command, path, "--degree", str(N)) for command in commands]
    assert served[0][0] == 0
    assert not solvers[G.order] and not complements[G.order]
    assert by_class["MinimalResolution"] and not by_class["TensorResolution"], by_class
    literal = load_pcp(path)
    assert report(literal, N, gid).to_json_dict() == json.loads(served[0][1])
    assert not complements[G.order]
    monkeypatch.setattr(cli, "resolve_group", lambda name: CatalogEntry(gid, literal))
    scratch = [run_cli(capsys, command, path, "--degree", str(N)) for command in commands]
    assert complements[G.order]
    assert served == scratch
