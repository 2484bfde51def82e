"""The acceptance-verification suites behind `centdet verify`.

Each criterion is a function returning (ok, detail); the runner prints
one PASS/FAIL line per criterion.  Expected values are frozen from the
published tables for the shipped corpus; dimension sequences that admit
an independent derivation (series expansions, convolutions) are
recomputed here from scratch rather than trusted from the pipeline
under test.
"""

from __future__ import annotations

import time

import numpy as np

from .catalog import builtin, load_pcp
from .fplinalg import FpMatrix, intersect, kernel_basis, rref
from .invariants import Workspace
from .resolution import Cocycle, CohomologyFragment, cup_product, product_span

# the rows of the published tables that criteria 2, 3 and 7 check; their
# values are read from the catalog, which keeps the one copy of them
TABLE1_AND_Q64 = ("Z4", "Z8", "Z16", "Q8", "Q16", "Q32", "Q64")
TABLE3_NAMED = ("D8", "D16", "D32", "SD16", "SD32")

# degrees of the ring generators of H*(G; F_2), from the textbook
# presentations (SD16: Evens-Priddy)
RING_GENERATOR_DEGREES = {
    "Z4": [1, 2],
    "E4": [1, 1],
    "D8": [1, 1, 2],
    "Q8": [1, 1, 4],
    "SD16": [1, 1, 3, 4],
}

QUICK_CORPUS = [
    "Z4", "Z8", "Z16", "E4", "E8",
    "Q8", "Q16", "Q32", "D8", "D16", "D32", "SD16", "SD32",
    "32#18", "Q8xZ4",
]


def _series_quotient_expansion(numerator, gen_degrees, N):
    """Coefficients of numerator(t) / prod (1 - t^a) through degree N."""
    out = [0] * (N + 1)
    for k, cf in enumerate(numerator):
        if k <= N:
            out[k] = cf
    for a in gen_degrees:
        for k in range(a, N + 1):
            out[k] += out[k - a]
    return out


def _generator_degrees(res, N: int) -> list[int]:
    """Degrees of the ring generators of H*(G) through degree N, ascending."""
    counts = CohomologyFragment(res).generator_counts(N)
    return [k for k, c in enumerate(counts) for _ in range(c)]


def criterion_1(ws: Workspace):
    """Q8 end to end at N=8, under five seconds."""
    t0 = time.time()
    a = ws.analyzer(builtin("Q8").pres, 8, label="Q8")
    t = a.group_type()
    d0, d1 = a.d0_d1_p_central()
    ok = (list(t.entries) == [4] and t.certified and t.e == 3 and t.h == 2
          and d0 == 3 and d1 == 5)
    elapsed = time.time() - t0
    ok = ok and elapsed < 5.0
    return ok, f"type {list(t.entries)}, e={t.e}, h={t.h}, d0={d0}, d1={d1}, {elapsed:.2f}s"


def criterion_2(ws: Workspace):
    """Cyclic and quaternion corpus: exact (type, d0, d1) under one minute."""
    t0 = time.time()
    bad = []
    for gid in TABLE1_AND_Q64:
        entry = builtin(gid)
        a = ws.analyzer(entry.pres, 8, label=gid)
        t = a.group_type()
        got = (list(t.entries), *a.d0_d1_p_central())
        want = tuple(entry.expected[k] for k in ("type", "d0", "d1"))
        if got != want or not t.certified:
            bad.append((gid, got))
    elapsed = time.time() - t0
    return (not bad) and elapsed < 60.0, f"{len(TABLE1_AND_Q64)} groups, {elapsed:.1f}s" + (
        f", mismatches {bad}" if bad else "")


def criterion_3(ws: Workspace):
    """Dihedral/semidihedral rows: (type, e, e', d0, rank, center rank)."""
    t0 = time.time()
    bad = []
    for gid in TABLE3_NAMED:
        entry = builtin(gid)
        a = ws.analyzer(entry.pres, 10, label=gid)
        t = a.group_type()
        ep, epc = a.e_prime()
        d0, d0c = a.d0()
        got = dict(type=list(t.entries), e=t.e, e_prime=ep, d0=d0,
                   rank=a.rank, center_rank=a.center_rank)
        want = {k: entry.expected[k] for k in got}
        if got != want or not (t.certified and epc and d0c):
            bad.append((gid, got))
    elapsed = time.time() - t0
    return (not bad) and elapsed < 120.0, f"{len(TABLE3_NAMED)} groups, {elapsed:.1f}s" + (
        f", mismatches {bad}" if bad else "")


def criterion_4(ws: Workspace):
    """The order-32 worked example: type, detection numbers, indecomposable
    dimensions, the Betti series against an independent expansion, the
    essential top class, and the failure of degree-2 primitivity."""
    t0 = time.time()
    a = ws.analyzer(builtin("32#18").pres, 10, label="32#18")
    msgs = []
    t = a.group_type()
    if list(t.entries) != [2, 2, 2] or not t.certified:
        msgs.append(f"type {t.entries}")
    if a.d0_d1_p_central() != (3, 4):
        msgs.append(f"d0d1 {a.d0_d1_p_central()}")
    q = a.qa_dims()
    if q[:5] != (1, 2, 2, 1, 0) or any(q[5:]):
        msgs.append(f"qa {q}")
    expected_betti = _series_quotient_expansion([1, 2, 2, 1], [2, 2, 2], 10)
    if a.res.betti[:11] != expected_betti:
        msgs.append(f"betti {a.res.betti[:11]} != {expected_betti}")
    z = a.top_primitive_class()
    if z.degree != 3 or not a.is_essential(z):
        msgs.append("top class not essential in degree 3")
    pdims = a.pc_dims()
    if pdims[3] != 1 or q[3] != 1 or any(pdims[4:]):
        msgs.append("duality/uniqueness of the top class fails")
    # degree-2 classes exist but none are primitive: the coaction moves them
    if a.res.betti[2] != 5 or pdims[2] != 0:
        msgs.append(f"degree-2 primitives {pdims[2]} of {a.res.betti[2]}")
    elapsed = time.time() - t0
    ok = not msgs and elapsed < 120.0
    return ok, ("; ".join(msgs) if msgs else f"all checks, {elapsed:.1f}s")


def criterion_5(ws: Workspace):
    """Product laws on Q8 x Z4, plus the Betti convolution, the ring
    generator degrees through N=8, and the primitives read off the
    factors against the coaction lifted on the product at N=4."""
    t0 = time.time()
    entry = builtin("Q8xZ4")
    a = ws.analyzer(entry.pres, 8, label="Q8xZ4")
    msgs = []
    t = a.group_type()
    if list(t.entries) != [4, 2] or t.e != 4 or t.h != 2:
        msgs.append(f"type/e/h {t.entries} {t.e} {t.h}")
    if a.d0_d1_p_central() != (4, 6):
        msgs.append(f"d0d1 {a.d0_d1_p_central()}")
    resq = ws.resolution(builtin("Q8").pres, 8)
    res4 = ws.resolution(builtin("Z4").pres, 8)
    conv = [sum(resq.betti[i] * res4.betti[k - i] for i in range(k + 1))
            for k in range(9)]
    if a.res.betti[:9] != conv:
        msgs.append(f"betti convolution {a.res.betti[:9]} != {conv}")
    # Kunneth for indecomposables: Q(A x B) = Q(A) + Q(B)
    gens = _generator_degrees(a.res, 8)
    if gens != sorted(_generator_degrees(resq, 8) + _generator_degrees(res4, 8)):
        msgs.append(f"generator degrees {gens} are not those of Q8 and Z4")
    # P_C of a product is read off its factors; the lifted coaction checks it
    b = ws.analyzer(entry.pres, 4, label="Q8xZ4")
    lifted = tuple(b.comodule().primitive_basis(k).dim for k in range(5))
    if b.pc_dims() != lifted:
        msgs.append(f"primitive dims {b.pc_dims()} != lifted {lifted}")
    elapsed = time.time() - t0
    return not msgs and elapsed < 120.0, ("; ".join(msgs) if msgs else f"ok, {elapsed:.1f}s")


def criterion_6(ws: Workspace, corpus=None, N: int = 8):
    """Structural property sweep over the whole corpus."""
    t0 = time.time()
    msgs = []
    rng = np.random.default_rng(0)

    # exact linear algebra: rank-nullity on a randomized suite
    for _ in range(20):
        rows, cols = int(rng.integers(1, 40)), int(rng.integers(1, 40))
        m = FpMatrix(2, rng.integers(0, 2, size=(rows, cols)))
        if rref(m)[2] + kernel_basis(m).dim != cols:
            msgs.append("rank-nullity failure")
            break

    for gid in (corpus or QUICK_CORPUS):
        pres = builtin(gid).pres
        a = ws.analyzer(pres, N, label=gid)
        res = a.res
        try:
            res.verify(N)
        except AssertionError as exc:
            msgs.append(f"{gid}: {exc}")
            continue
        # cup products: unit, commutativity, associativity on samples
        for _ in range(3):
            deg_f = int(rng.integers(1, 3))
            deg_g = int(rng.integers(1, 3))
            f = Cocycle(deg_f, rng.integers(0, 2, size=res.betti[deg_f]))
            g = Cocycle(deg_g, rng.integers(0, 2, size=res.betti[deg_g]))
            if not np.array_equal(cup_product(res, f, g).vec,
                                  cup_product(res, g, f).vec):
                msgs.append(f"{gid}: cup not commutative")
            h = Cocycle(1, rng.integers(0, 2, size=res.betti[1]))
            lhs = cup_product(res, cup_product(res, f, g), h)
            rhs = cup_product(res, f, cup_product(res, g, h))
            if not np.array_equal(lhs.vec, rhs.vec):
                msgs.append(f"{gid}: cup not associative")
        if gid in RING_GENERATOR_DEGREES:
            got = _generator_degrees(res, N)
            if got != RING_GENERATOR_DEGREES[gid]:
                msgs.append(f"{gid}: ring generators in degrees {got}")
        # freeness identities (hard-asserted inside) and P_C inside Q_A
        q = a.qa_dims()
        p_dims = a.pc_dims()
        if any(p_dims[k] > q[k] for k in range(N + 1)):
            msgs.append(f"{gid}: P_C exceeds Q_A")
        gens = [xi for _, xi in a.duflot().generators]
        for k in range(1, N + 1):
            span = product_span(res, k, gens)
            if intersect(a.pc_basis(k), span).dim:
                msgs.append(f"{gid}: P_C meets the Duflot ideal")
                break
        a.qa_cess_dims()  # Cess freeness is hard-asserted inside
        ep, _ = a.e_prime()
        edp, _ = a.e_double_prime()
        if edp > ep:
            msgs.append(f"{gid}: e'' > e'")
        if a.p_central:
            e = a.e
            if q[e] != 1 or any(q[e + 1:]) or q[: e + 1] != q[e::-1]:
                msgs.append(f"{gid}: indecomposables not palindromic to {e}")
            if p_dims[e] != 1 or any(p_dims[e + 1:]):
                msgs.append(f"{gid}: primitives do not peak at {e}")

    # restriction/inflation ring maps and functoriality, on one chain
    from .pgroup import Subgroup, subgroup_presentation
    from .resolution import InducedMap
    Z8 = builtin("Z8").pres
    res8 = ws.resolution(Z8, 6)
    z4 = Subgroup.generate(Z8, [Z8.gen_idx(1)])
    pres4, embed4, _ = subgroup_presentation(Z8, z4)
    res4b = ws.resolution(pres4, 6)
    z2 = Subgroup.generate(pres4, [pres4.gen_idx(1)])
    pres2, embed2, _ = subgroup_presentation(pres4, z2)
    res2 = ws.resolution(pres2, 6)
    comp = embed4.compose(embed2)
    from .fplinalg import matmul_mod
    for k in range(6):
        lhs = InducedMap(comp, res2, res8).matrix(k)
        rhs = matmul_mod(InducedMap(embed2, res2, res4b).matrix(k),
                         InducedMap(embed4, res4b, res8).matrix(k), 2)
        if not np.array_equal(lhs, rhs):
            msgs.append("restriction functoriality fails")
            break

    # comodule axioms: counit on the corpus, coassociativity on small cases
    for gid in ["Q8", "D8", "SD16"]:
        a = ws.analyzer(builtin(gid).pres, 4, label=gid)
        cm = a.comodule()
        for k in range(4):
            rows = [cm.kun.pair_pos(k, (0, 0, v)) for v in range(a.res.betti[k])]
            if not np.array_equal(cm.matrix(k)[rows],
                                  np.eye(a.res.betti[k], dtype=np.uint8)):
                msgs.append(f"{gid}: counit fails in degree {k}")
    for gid, kmax in (("Z4", 5), ("Q8", 4)):
        detail = coassociativity_defect(ws, builtin(gid).pres, kmax)
        if detail:
            msgs.append(f"{gid}: {detail}")

    # r - c = 1 duality on SD16
    a = ws.analyzer(builtin("SD16").pres, 10, label="SD16")
    qd = a.qa_cess_dims()
    e = a.e
    for k in range(e + 1):
        if qd[k] != qd[e - k]:
            msgs.append("SD16 central essential duality fails")
            break

    # agreement of the categorical equalizer with the closed forms, on
    # every p-central corpus member
    for gid in (corpus or QUICK_CORPUS):
        a = ws.analyzer(builtin(gid).pres, 5, label=gid)
        if not a.p_central:
            continue
        if a.lf_dims() != a.pc_dims():
            msgs.append(f"{gid}: locally finite part != primitives")
        pdims = a.pc_dims()
        for d in range(4):
            got = a.bar_rd_dims(d)
            want = tuple(a.resC.betti[j] * pdims[d] for j in range(5 - d + 1))
            if got != want:
                msgs.append(f"{gid}: layer {d} tensor formula fails")

    elapsed = time.time() - t0
    return not msgs, ("; ".join(msgs[:4]) if msgs else f"corpus clean, {elapsed:.1f}s")


def coassociativity_defect(ws: Workspace, pres, k_max: int) -> str | None:
    """Compare (Delta (x) 1) m* with (1 (x) m*) m* degreewise; None if equal.
    A basis class whose image is empty is reported too: by the counit,
    the image of x holds 1 (x) x."""
    from .fplinalg import matmul_mod
    from .pgroup import whole_group
    from .resolution import ComoduleMap

    a = ws.analyzer(pres, k_max + 1)
    cm = a.comodule()
    res, resC = a.res, a.resC
    # C presents itself, so Delta is read in resC's own coordinates
    delta = ComoduleMap(resC, whole_group(resC.pres), resC)
    p = pres.p
    for k in range(k_max + 1):
        for x_idx in range(res.betti[k]):
            x = np.eye(res.betti[k], dtype=np.uint8)[x_idx]
            img = matmul_mod(cm.matrix(k), x[:, None], p)[:, 0]
            lhs: dict = {}
            rhs: dict = {}
            for j, (i, u, v) in enumerate(cm.kun.pairs(k)):
                if not img[j]:
                    continue
                eu = np.eye(resC.betti[i], dtype=np.uint8)[u]
                dimg = matmul_mod(delta.matrix(i), eu[:, None], p)[:, 0]
                for jj, (aa, w, y) in enumerate(delta.kun.pairs(i)):
                    if dimg[jj]:
                        key = (aa, w, i - aa, y, k - i, v)
                        lhs[key] = (lhs.get(key, 0) + int(img[j]) * int(dimg[jj])) % p
                ev = np.eye(res.betti[k - i], dtype=np.uint8)[v]
                mimg = matmul_mod(cm.matrix(k - i), ev[:, None], p)[:, 0]
                for jj, (b, y, vg) in enumerate(cm.kun.pairs(k - i)):
                    if mimg[jj]:
                        key = (i, u, b, y, k - i - b, vg)
                        rhs[key] = (rhs.get(key, 0) + int(img[j]) * int(mimg[jj])) % p
            lhs = {kk: vv for kk, vv in lhs.items() if vv}
            rhs = {kk: vv for kk, vv in rhs.items() if vv}
            if not lhs:
                return f"coaction of basis class {x_idx} is empty in degree {k}"
            if lhs != rhs:
                return f"coassociativity fails in degree {k}"
    return None


def criterion_7(ws: Workspace):
    """cess_nonzero agrees with (published depth == rank of the socle)."""
    bad = []
    for gid in TABLE3_NAMED:
        entry = builtin(gid)
        a = ws.analyzer(entry.pres, 10, label=gid)
        ep, _ = a.e_prime()
        computed_nonzero = ep >= 0
        predicted = entry.expected["depth"] == entry.expected["center_rank"]
        if computed_nonzero != predicted:
            bad.append((gid, computed_nonzero, predicted))
    return not bad, (f"mismatches {bad}" if bad else "all rows consistent")


def criterion_8(ws: Workspace):
    """Stretch: the two order-64 Sylow entries at full depth."""
    t0 = time.time()
    msgs = []
    a = ws.analyzer(builtin("64#187").pres, 16, label="64#187")
    t = a.group_type()
    if list(t.entries) != [8, 8] or a.d0_d1_p_central() != (14, 18):
        msgs.append(f"64#187 type/d {t.entries} {a.d0_d1_p_central()}")
    q = a.qa_dims()
    expected_q = (1, 4, 8, 10, 12, 13, 16, 20, 16, 13, 12, 10, 8, 4, 1, 0, 0)
    if q != expected_q:
        msgs.append(f"64#187 indecomposables {q}")
    b = ws.analyzer(builtin("64#153").pres, 8, label="64#153")
    tb = b.group_type()
    if list(tb.entries) != [4, 4, 4] or b.d0_d1_p_central() != (9, 11):
        msgs.append(f"64#153 type/d {tb.entries} {b.d0_d1_p_central()}")
    elapsed = time.time() - t0
    return not msgs, ("; ".join(msgs) if msgs else f"ok, {elapsed:.0f}s")


def criterion_9(ws: Workspace, pcp_path: str):
    """Stretch, conditional: the order-64 rank-3 example from a user file."""
    pres = load_pcp(pcp_path)
    a = ws.analyzer(pres, 9, label="64#108")
    msgs = []
    t = a.group_type()
    if list(t.entries) != [8, 2] or t.e != 8:
        msgs.append(f"type {t.entries}")
    q = a.qa_cess_dims()
    if q[:8] != (0, 1, 3, 5, 6, 5, 3, 1):
        msgs.append(f"qa cess {q[:8]}")
    ep, _ = a.e_prime()
    edp, _ = a.e_double_prime()
    d0, _ = a.d0()
    if (ep, edp, d0) != (7, 7, 7):
        msgs.append(f"e'/e''/d0 {(ep, edp, d0)}")
    return not msgs, ("; ".join(msgs) if msgs else "ok")


def run_criteria(suite: str, lines: list[str], pcp_64_108: str | None = None,
                 budget: int = 20000) -> bool:
    ws = Workspace(budget=budget)
    ok = True

    def run(name, fn, *args):
        nonlocal ok
        try:
            good, detail = fn(*args)
        except Exception as exc:  # a crash is a failure, not an abort
            good, detail = False, f"{type(exc).__name__}: {exc}"
        lines.append(f"{'PASS' if good else 'FAIL'}  {name}: {detail}")
        ok = ok and good

    run("criterion 1 (Q8 end to end)", criterion_1, ws)
    run("criterion 2 (cyclic/quaternion corpus)", criterion_2, ws)
    run("criterion 3 (dihedral/semidihedral rows)", criterion_3, ws)
    run("criterion 4 (order-32 worked example)", criterion_4, ws)
    run("criterion 5 (product laws)", criterion_5, ws)
    if suite == "quick":
        run("criterion 6 (property suites)", criterion_6, ws, None, 6)
    else:
        run("criterion 6 (property suites)", criterion_6, ws, None, 8)
    run("criterion 7 (depth consistency)", criterion_7, ws)
    if suite == "full":
        run("extra (order-64 types at N=8)", _full_extras, ws)
    if suite == "stretch":
        run("criterion 8 (order-64 Sylow entries)", criterion_8, ws)
    if pcp_64_108:
        run("criterion 9 (user-supplied 64#108)", criterion_9, ws, pcp_64_108)
    elif suite == "stretch":
        lines.append("SKIP  criterion 9: no user-supplied presentation")
    return ok


def _full_extras(ws: Workspace):
    msgs = []
    for gid, want in (("64#187", [8, 8]), ("64#153", [4, 4, 4])):
        a = ws.analyzer(builtin(gid).pres, 8, label=gid)
        t = a.group_type()
        if list(t.entries) != want or not t.certified:
            msgs.append(f"{gid}: type {t.entries}")
    return not msgs, ("; ".join(msgs) if msgs else "ok")
