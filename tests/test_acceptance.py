"""Acceptance gate: one test per criterion, each printing its PASS/FAIL line.

Criteria 1-8 always run.  Criterion 9 is conditional on a user-supplied
presentation: set CENTDET_64_108_PCP=<path>.  The checks on a reconstructed
64#108 are stretch tier: set CENTDET_STRETCH=1.  `centdet verify --suite
stretch` runs the criteria from the command line.
"""

import os

import pytest

from centdet import acceptance
from centdet.catalog import builtin, builtin_ids
from centdet.invariants import Workspace

WS = Workspace()


def _run(name, fn, *args):
    ok, detail = fn(*args)
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_q8_end_to_end():
    _run("criterion 1 (Q8 end to end)", acceptance.criterion_1, WS)


def test_criterion_2_table1_corpus():
    _run("criterion 2 (cyclic/quaternion corpus)", acceptance.criterion_2, WS)


def test_criterion_3_table3_named_rows():
    _run("criterion 3 (dihedral/semidihedral rows)", acceptance.criterion_3, WS)


def test_criterion_4_w32_worked_example():
    _run("criterion 4 (order-32 worked example)", acceptance.criterion_4, WS)


def test_criterion_5_product_laws():
    _run("criterion 5 (product laws)", acceptance.criterion_5, WS)


def test_criterion_6_property_suites():
    _run("criterion 6 (property suites)", acceptance.criterion_6, WS, None, 8)


def test_criterion_7_depth_consistency():
    _run("criterion 7 (depth consistency)", acceptance.criterion_7, WS)


def test_every_recorded_depth_obeys_criterion_7():
    # Cess != 0, that is e' >= 0, iff the depth of H*(G) is the socle rank
    for gid in builtin_ids():
        entry = builtin(gid)
        if "depth" not in entry.expected:
            continue
        ep, certified = WS.analyzer(entry.pres, 10, label=gid).e_prime()
        assert certified, gid
        assert (ep >= 0) == (entry.expected["depth"] == entry.expected["center_rank"]), gid


def test_criterion_8_order_64_sylow_entries():
    _run("criterion 8 (order-64 Sylow entries)", acceptance.criterion_8, WS)


@pytest.mark.stretch
@pytest.mark.skipif(not os.environ.get("CENTDET_64_108_PCP"),
                    reason="conditional: set CENTDET_64_108_PCP=<path to .pcp>")
def test_criterion_9_user_supplied_64_108():
    _run("criterion 9 (user-supplied 64#108)", acceptance.criterion_9, WS,
         os.environ["CENTDET_64_108_PCP"])


@pytest.mark.stretch
@pytest.mark.skipif(not os.environ.get("CENTDET_STRETCH"),
                    reason="stretch tier: set CENTDET_STRETCH=1")
def test_criterion_9_path_with_reconstructed_group(tmp_path):
    """Exercise the user-supplied path with a presentation reconstructed from
    the published structural constraints (order 64, socle rank 2, a unique
    rank-3 elementary abelian whose centralizer is (Z/2)^2 x Q8)."""
    text = (
        "p 2\ngens 6\n"
        "pow 2 = g5^1\npow 3 = g5^1\npow 4 = g6^1\n"
        "comm 3 2 = g5^1\ncomm 4 1 = g5^1\n"
    )
    path = tmp_path / "candidate-64-108.pcp"
    path.write_text(text)
    _run("criterion 9 (reconstructed input)", acceptance.criterion_9, WS,
         str(path))


@pytest.mark.stretch
@pytest.mark.skipif(not os.environ.get("CENTDET_STRETCH"),
                    reason="stretch tier: set CENTDET_STRETCH=1")
def test_locally_finite_part_of_reconstructed_64_108():
    """The locally finite part of the reconstructed group matches the
    dimension count of the published extension 0 -> S B[y]/(y^4) -> LF -> B."""
    from centdet.catalog import parse_pcp
    from centdet.invariants import Workspace

    pres = parse_pcp(
        "p 2\ngens 6\n"
        "pow 2 = g5^1\npow 3 = g5^1\npow 4 = g6^1\n"
        "comm 3 2 = g5^1\ncomm 4 1 = g5^1\n"
    )
    ws = Workspace(budget=40000)
    a = ws.analyzer(pres, 8, label="64#108-candidate")
    # the rank-3 object carries a two-element Weyl group
    from centdet.pgroup import quillen_category_AC
    cat = quillen_category_AC(pres)
    v3 = [o for o in cat.objects if o.rep.rank == 3]
    assert len(v3) == 1
    assert len(cat.weyl_reps(v3[0])) == 2
    B = [1, 2, 2, 1, 0, 0, 0, 0, 0]
    By = [sum(B[k - j] for j in range(4) if 0 <= k - j <= 8) for k in range(9)]
    expect = tuple(B[k] + (By[k - 1] if k >= 1 else 0) for k in range(9))
    got = a.lf_dims()
    print(f"{'PASS' if got == expect else 'FAIL'}  LF layers: {got}")
    assert got == expect
