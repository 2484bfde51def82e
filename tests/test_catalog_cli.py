import importlib
import inspect
import io
import json
import os
import pickle
import pkgutil

import pytest

import centdet
from centdet import catalog, pgroup
from centdet.catalog import (
    CatalogError,
    PcpFormatError,
    builtin,
    builtin_ids,
    format_pcp,
    parse_pcp,
    su34_sylow_presentation,
    sz8_sylow_presentation,
)
from centdet.cli import CSV_HEADER, main, run_verify
from centdet.fplinalg import DimensionMismatchError
from centdet.invariants import DegreeBoundError
from centdet.pgroup import (
    InconsistentPresentationError,
    PcPresentation,
    PcPresentationError,
    direct_product,
)
from centdet.resolution import BudgetExceededError


def test_builtin_fingerprints_all():
    for gid in builtin_ids():
        entry = builtin(gid)  # raises on fingerprint mismatch
        assert entry.pres.order == entry.expected["order"]


def test_builtin_unknown():
    with pytest.raises(CatalogError):
        builtin("Z7")


def test_builtin_products():
    e = builtin("Q8xZ4")
    assert e.pres.order == 32
    assert e.expected["type"] == [4, 2]
    e2 = builtin("Q8xZ2xZ2")
    assert e2.pres.order == 32
    assert e2.expected["d0"] == 3


def test_builtin_product_is_the_right_nested_direct_product():
    nested = direct_product(builtin("D8").pres,
                            direct_product(builtin("Z4").pres, builtin("Z2").pres))
    assert builtin("D8xZ4xZ2").pres.hash_key() == nested.hash_key()


def test_builtin_refuses_an_unknown_middle_factor_before_building(monkeypatch):
    built = []
    monkeypatch.setattr(catalog, "dihedral_presentation", built.append)
    with pytest.raises(CatalogError):
        builtin("D8xFOOxZ2")
    assert built == []


def test_finite_field_groups_keep_their_presentations():
    # built from the F16 and F8 product tables, the same presentations as
    # from field arithmetic done product by product
    assert su34_sylow_presentation().hash_key() == "c45ac8fad90c186a"
    assert sz8_sylow_presentation().hash_key() == "8791d96fbbed079e"


def test_oversized_product_builds_no_factor(monkeypatch):
    with pytest.raises(CatalogError):
        builtin("Q8xZ7")  # a product with an unknown factor is unknown
    built = []
    monkeypatch.setattr(catalog, "quaternion_presentation", built.append)
    with pytest.raises(PcPresentationError, match=r"2\^18"):
        builtin("Q64xQ64xQ64")
    assert built == []


def test_q8_pcp_parse():
    text = """
# quaternion group of order 8
p 2
gens 3
pow 1 = g3^1
pow 2 = g3^1
comm 2 1 = g3^1
"""
    pres = parse_pcp(text)
    assert pres.order == 8
    assert sum(1 for x in range(8) if pres.element_order(x) == 2) == 1


def test_pcp_empty_relations_gives_elementary_abelian():
    pres = parse_pcp("p 2\ngens 3\n")
    assert pres.order == 8
    assert all(pres.pth_power(x) == 0 for x in range(8))


def test_pcp_rejects_bad_comm_order():
    with pytest.raises(PcpFormatError) as ei:
        parse_pcp("p 2\ngens 3\ncomm 1 2 = g3^1\n")
    assert "j > i" in str(ei.value)


def test_pcp_rejects_bad_word():
    with pytest.raises(PcpFormatError):
        parse_pcp("p 2\ngens 2\npow 1 = h2^1\n")


@pytest.mark.parametrize("line", ["pow x = g2^1", "comm 2 y = g3^1", "comm z 1 = g3^1"])
def test_pcp_rejects_non_integer_index(line):
    with pytest.raises(PcpFormatError) as ei:
        parse_pcp(f"p 2\ngens 3\n{line}\n")
    assert ei.value.line_no == 3 and str(ei.value).startswith("line 3:")


def test_pcp_rejects_non_prime():
    with pytest.raises(ValueError):
        parse_pcp("p 4\ngens 1\n")


def test_pcp_roundtrip_all_builtins():
    for gid in builtin_ids():
        pres = builtin(gid).pres
        again = parse_pcp(format_pcp(pres, header=gid))
        assert again.hash_key() == pres.hash_key()


# ---------------------------------------------------------------------------
# CLI


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_cli_info(capsys):
    code, out = run_cli(capsys, "info", "D8")
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 8
    assert data["rank"] == 2
    assert data["center_rank"] == 1
    assert data["p_central"] is False


def test_cli_invariants_q8(capsys, tmp_path):
    out_path = str(tmp_path / "q8.json")
    code, out = run_cli(capsys, "invariants", "Q8", "--degree", "8",
                        "--json", out_path)
    assert code == 0
    data = json.loads(out)
    assert data["d0"] == 3 and data["d1"] == 5
    with open(out_path) as fh:
        assert json.load(fh) == data
    validate_report_schema(data)


def test_cli_invariants_self_identification_gate(capsys):
    # a catalog entry whose computed invariants disagree is refused;
    # simulate by pointing the Q8 id at a D8 presentation through a file
    code, out = run_cli(capsys, "invariants", "Q8", "--degree", "6")
    assert code == 0  # the genuine entry passes the gate


def test_cli_cohomology_q8(capsys):
    code, out = run_cli(capsys, "cohomology", "Q8", "--degree", "6")
    assert code == 0
    data = json.loads(out)
    assert data["betti"] == [1, 2, 2, 1, 1, 2, 2]
    assert data["ring_generators_by_degree"] == [0, 2, 0, 0, 1, 0, 0]


def test_cli_cohomology_refuses_past_its_budget(capsys):
    # at budget 30, D8 (b_3 = 4, 32 columns) is refused from degree 3 on
    assert run_cli(capsys, "--budget", "30", "cohomology", "D8", "--degree", "2")[0] == 0
    code, out = run_cli(capsys, "--budget", "30", "cohomology", "D8", "--degree", "3")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "BudgetExceededError"


def test_cli_cess(capsys):
    code, out = run_cli(capsys, "cess", "SD16", "--degree", "8")
    assert code == 0
    data = json.loads(out)
    assert data["e_prime"] == 2
    assert data["e_double_prime"] == 2


PINNED_CESS = [
    ("Q8", "", {
        "group_id": "Q8", "degree_bound": 6, "p_central": True,
        "cess_dims": [1, 2, 2, 1, 1, 2, 2], "qa_cess_dims": [1, 2, 2, 1, 0, 0, 0],
        "pc_cess_dims": [1, 2, 2, 1, 0, 0, 0], "e_prime": 3, "e_double_prime": 3,
        "certified": {"e_prime": True, "e_double_prime": True}}),
    ("SD16", "", {
        "group_id": "SD16", "degree_bound": 6, "p_central": False,
        "cess_dims": [0, 1, 1, 0, 0, 1, 1], "qa_cess_dims": [0, 1, 1, 0, 0, 0, 0],
        "pc_cess_dims": [0, 1, 1, 0, 0, 0, 0], "e_prime": 2, "e_double_prime": 2,
        "certified": {"e_prime": True, "e_double_prime": True}}),
    ("H27", "p 3\ngens 3\ncomm 2 1 = g3^1\n", {
        "group_id": "H27", "degree_bound": 6, "p_central": False,
        "cess_dims": [0] * 7, "qa_cess_dims": [0] * 7, "pc_cess_dims": [0] * 7,
        "e_prime": -1, "e_double_prime": -1,
        "certified": {"e_prime": True, "e_double_prime": True}}),
    ("Z9xZ3", "p 3\ngens 3\npow 1 = g2^1\n", {
        "group_id": "Z9xZ3", "degree_bound": 6, "p_central": True,
        "cess_dims": [1, 2, 3, 4, 5, 6, 7], "qa_cess_dims": [1, 1, 0, 0, 0, 0, 0],
        "pc_cess_dims": [1, 1, 0, 0, 0, 0, 0], "e_prime": 1, "e_double_prime": 1,
        "certified": {"e_prime": True, "e_double_prime": True}}),
]


@pytest.mark.parametrize("gid,pcp,want", PINNED_CESS, ids=[g for g, _, _ in PINNED_CESS])
def test_cli_cess_pinned(capsys, tmp_path, gid, pcp, want):
    # a catalog id, or a .pcp file of that name when its text is given
    group = gid
    if pcp:
        group = str(tmp_path / f"{gid}.pcp")
        with open(group, "w") as fh:
            fh.write(pcp)
    code, out = run_cli(capsys, "cess", group, "--degree", "6")
    assert code == 0
    assert json.loads(out) == want


@pytest.mark.parametrize("p", [2, 3])
def test_cli_cess_trivial_group(capsys, tmp_path, p):
    path = str(tmp_path / f"trivial{p}.pcp")
    with open(path, "w") as fh:
        fh.write(f"p {p}\ngens 0\n")
    code, out = run_cli(capsys, "cess", path, "--degree", "4")
    assert code == 0
    data = json.loads(out)
    assert data["cess_dims"] == [1, 0, 0, 0, 0]
    assert data["e_prime"] == 0 and data["e_double_prime"] == 0


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("c", [1, 3])
def test_cli_cess_of_an_elementary_abelian_at_degree_one(capsys, tmp_path, p, c):
    # at odd p each degree-one generator x of the image has the partner
    # beta(x) in degree 2, past the bound, so it is not lifted
    path = str(tmp_path / f"E{p}_{c}.pcp")
    with open(path, "w") as fh:
        fh.write(format_pcp(PcPresentation(p, c, [(0,) * c] * c, {})))
    got = {}
    for N in (1, 2):
        code, out = run_cli(capsys, "cess", path, "--degree", str(N))
        assert code == 0
        got[N] = json.loads(out)
    want = {key: v[:2] if isinstance(v, list) else v for key, v in got[2].items()}
    assert got[1] == {**want, "degree_bound": 1}


def test_cli_table_csv(capsys, tmp_path):
    csv_path = str(tmp_path / "rows.csv")
    code, out = run_cli(capsys, "table", "Q8", "Z4", "SD16",
                        "--degree", "8", "--csv", csv_path)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    rows = {line.split(",")[1]: line.split(",") for line in lines[1:]}
    assert rows["Q8"][2] == "[4]" and rows["Q8"][5] == "3" and rows["Q8"][6] == "5"
    assert rows["Z4"][2] == "[2]" and rows["Z4"][5] == "1"
    assert rows["SD16"][7] == "2"  # e_prime
    assert rows["SD16"][6] == ""   # d1 unavailable for non-p-central
    with open(csv_path) as fh:
        assert fh.read().strip() == out.strip()


def test_cli_table_csv_budget_exceeded_is_not_certified(capsys):
    # Q8 needs 16 columns in degree 1, over the budget; Z4 fits in 8
    code, out = run_cli(capsys, "--budget", "8", "table", "Q8", "Z4", "--degree", "8")
    assert code == 0
    rows = {line.split(",")[1]: line for line in out.strip().splitlines()[1:]}
    assert rows["Q8"].endswith(",false")
    assert rows["Z4"].endswith(",true")


def test_cli_pcp_file_input(capsys, tmp_path):
    path = str(tmp_path / "v4.pcp")
    with open(path, "w") as fh:
        fh.write("p 2\ngens 2\n")
    code, out = run_cli(capsys, "info", path)
    assert code == 0
    assert json.loads(out)["order"] == 4


@pytest.mark.parametrize("p", [131, 251])
def test_cli_cohomology_cyclic_large_prime(capsys, tmp_path, p):
    # H^*(Z/p; F_p) has dimension 1 in every degree; from p = 131 on, the
    # radical complement's sums reach 2p - 2, which no longer fits a uint8
    path = str(tmp_path / f"z{p}.pcp")
    with open(path, "w") as fh:
        fh.write(f"p {p}\ngens 1\n")
    code, out = run_cli(capsys, "cohomology", path, "--degree", "4")
    assert code == 0
    assert json.loads(out)["betti"] == [1, 1, 1, 1, 1]


def test_cli_rejects_prime_above_251(capsys, tmp_path):
    # matrices are stored as uint8, which holds the residues of p <= 251 only
    with pytest.raises(PcPresentationError):
        PcPresentation(257, 1, [(0,)], {})
    path = str(tmp_path / "z257.pcp")
    with open(path, "w") as fh:
        fh.write("p 257\ngens 1\n")
    code, out = run_cli(capsys, "cohomology", path, "--degree", "4")
    assert code == 1
    error = json.loads(out)["error"]
    assert error == {"type": "PcPresentationError",
                     "message": "p must be at most 251, got 257"}


# line 3 holds a word that is not in normal form.  Adding up its exponents
# and reducing them mod p misreads it: the p = 2 text, Q8 with g2^2 for
# g3, would be read as D8.
NON_NORMAL_WORDS = [
    ("p 2\ngens 3\npow 1 = g2^2\npow 2 = g3^1\ncomm 2 1 = g3^1\n", "exponent 2 of g2"),
    ("p 3\ngens 3\npow 1 = g2^1 g2^1\n", "g2 after g2"),
    ("p 3\ngens 3\npow 1 = g3^1 g2^1\n", "g2 after g3"),
    ("p 3\ngens 3\npow 1 = g2^-1\n", "exponent -1 of g2"),
    ("p 3\ngens 3\npow 1 = g2^3\n", "exponent 3 of g2"),
]


@pytest.mark.parametrize("text,why", NON_NORMAL_WORDS, ids=[w for _, w in NON_NORMAL_WORDS])
def test_cli_refuses_words_not_in_normal_form(capsys, tmp_path, text, why):
    path = str(tmp_path / "word.pcp")
    with open(path, "w") as fh:
        fh.write(text)
    code, out = run_cli(capsys, "info", path)
    assert code == 1
    err = json.loads(out)["error"]
    assert err["type"] == "PcpFormatError"
    assert err["message"].startswith("line 3: word not in normal form") and why in err["message"]
    # the same word with exponent 2 < p is in normal form at p = 3
    assert parse_pcp("p 3\ngens 3\npow 1 = g2^2\n").power_rels[0] == (0, 2, 0)


def test_cli_error_is_machine_readable(capsys):
    code, out = run_cli(capsys, "info", "NOPE")
    assert code == 1
    data = json.loads(out)
    assert "error" in data and "NOPE" in data["error"]["message"]


def test_cli_refuses_oversized_pcp(capsys, tmp_path):
    path = str(tmp_path / "big.pcp")
    with open(path, "w") as fh:
        fh.write("p 2\ngens 40\n")
    code, out = run_cli(capsys, "info", path)
    assert code == 1
    err = json.loads(out)["error"]
    assert err["type"] == "PcPresentationError" and "2^40" in err["message"]


def test_cli_refuses_oversized_product(capsys):
    # refused from the catalog orders, before Q64 or Q64xQ64 is built
    code, out = run_cli(capsys, "info", "Q64xQ64xQ64")
    assert code == 1
    err = json.loads(out)["error"]
    assert err["type"] == "PcPresentationError" and "2^18" in err["message"]


@pytest.mark.parametrize("argv", [["info", "E8xD8"],
                                  ["invariants", "D8xZ4", "--degree", "6"]])
def test_no_presentation_is_enumerated_twice(capsys, monkeypatch, argv):
    enumerated = []
    orig = pgroup.elementary_abelian_subgroups

    def counted(G, containing=None):
        enumerated.append(G)
        return orig(G, containing)

    monkeypatch.setattr(pgroup, "elementary_abelian_subgroups", counted)
    code, _ = run_cli(capsys, *argv)
    assert code == 0 and enumerated
    assert len({id(G) for G in enumerated}) == len(enumerated)


def test_cli_info_on_largest_admitted_group(capsys, tmp_path):
    # the elementary abelian group of order 2^12: C = G, so A_C is one object
    path = str(tmp_path / "e4096.pcp")
    with open(path, "w") as fh:
        fh.write("p 2\ngens 12\n")
    code, out = run_cli(capsys, "info", path)
    assert code == 0
    data = json.loads(out)
    assert (data["rank"], data["center_rank"], data["p_central"]) == (12, 12, True)


def test_builtin_order_128_product_is_served():
    entry = builtin("E16xD8")
    assert entry.pres.order == 128 and entry.expected["rank"] == 6


def test_cli_verify_quick(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "quick")
    assert code == 0
    assert out.count("PASS") >= 7
    assert "ALL PASS" in out


def test_verify_runs_criterion_9_whenever_a_path_is_given(tmp_path):
    out = io.StringIO()
    assert run_verify("quick", out, pcp_64_108=str(tmp_path / "missing.pcp")) == 1
    assert any(line.startswith("FAIL  criterion 9") for line in out.getvalue().splitlines())


REPORT_FIELDS = {
    "group_id": str, "p": int, "order": int, "rank": int, "center_rank": int,
    "p_central": bool, "type": (list, type(None)), "e": (int, type(None)),
    "h": (int, type(None)), "d0": (int, type(None)), "d1": (int, type(None)),
    "e_prime": (int, type(None)), "e_double_prime": (int, type(None)),
    "cess_nonzero": (bool, type(None)), "truncation_degree": int,
    "certified": dict,
}


def validate_report_schema(data: dict):
    assert set(data) == set(REPORT_FIELDS)
    for key, typ in REPORT_FIELDS.items():
        assert isinstance(data[key], typ), (key, data[key])
    for k, v in data["certified"].items():
        assert isinstance(k, str) and isinstance(v, bool)


def test_report_schema_on_corpus(capsys):
    for gid in ["Q8", "D8", "E4", "32#18"]:
        code, out = run_cli(capsys, "invariants", gid, "--degree", "6")
        assert code == 0
        validate_report_schema(json.loads(out))


def test_cli_cohomology_writes_no_cache(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("CENTDET_CACHE_DIR", str(tmp_path))
    code, _ = run_cli(capsys, "cohomology", "Z8", "--degree", "5")
    assert code == 0
    assert os.listdir(tmp_path) == []


def test_table_parallel_jobs(capsys):
    code, out = run_cli(capsys, "table", "Q8", "D8", "--degree", "6",
                        "--jobs", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3


def test_table_parallel_jobs_report_a_malformed_file(capsys, tmp_path):
    # the refusal is raised in a pool worker and must reach the parent
    # whole, as the same JSON error a sequential run prints
    path = str(tmp_path / "bad.pcp")
    with open(path, "w") as fh:
        fh.write("p 2\ngens 2\npow 1 = g2^2\n")
    outputs = [run_cli(capsys, "table", path, "Q8", "--degree", "2", "--jobs", jobs)
               for jobs in ("2", "1")]
    assert outputs[0] == outputs[1]
    code, out = outputs[0]
    assert code == 1
    err = json.loads(out)["error"]
    assert err["type"] == "PcpFormatError" and err["message"].startswith("line 3:")


def _exception_classes():
    """Every exception class defined in a centdet module."""
    found = {}
    for info in pkgutil.iter_modules(centdet.__path__):
        module = importlib.import_module(f"centdet.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if issubclass(cls, BaseException) and cls.__module__.startswith("centdet."):
                found[cls.__qualname__] = cls
    return found


def test_every_exception_survives_a_pickle_round_trip():
    # a process pool pickles a worker's exception and rebuilds it in the
    # parent; one that cannot be rebuilt breaks the pool
    samples = [
        PcpFormatError(3, "word not in normal form"),
        BudgetExceededError(10, 2112, 2000),
        CatalogError("unknown group id 'Z7'"),
        PcPresentationError("factors must share the prime"),
        InconsistentPresentationError("relation fails"),
        DimensionMismatchError("ambient spaces differ"),
        DegreeBoundError("the type is not certified"),
    ]
    assert {type(e).__qualname__ for e in samples} == set(_exception_classes())
    for exc in samples:
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is type(exc)
        assert str(back) == str(exc)
        assert vars(back) == vars(exc)


@pytest.mark.parametrize("argv", [
    ("invariants", "Q8", "--degree", "0"),
    ("invariants", "Q8", "--degree", "-1"),
    ("cess", "Q8", "--degree", "0"),
    ("table", "Q8", "Z4", "--degree", "0"),
    ("cohomology", "Q8", "--degree", "-1"),
])
def test_cli_rejects_bad_degree(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 1
    assert "--degree" in json.loads(out)["error"]["message"]


@pytest.mark.parametrize("argv,words", [
    (("invariants", "Q8", "--degree", "abc"), "--degree"),
    (("invariants", "Q8", "--no-such-flag"), "--no-such-flag"),
    (("no-such-command", "Q8"), "no-such-command"),
    (("cohomology", "Q8", "--cache", "d"), "--cache"),
    (("--budget", "-1", "invariants", "Q8", "--degree", "3"), "--budget"),
    (("table", "Q8", "--jobs", "-3"), "--jobs"),
])
def test_cli_usage_errors_are_json(capsys, tmp_path, monkeypatch, argv, words):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2
    error = json.loads(captured.out)["error"]
    assert error["type"] == "UsageError" and words in error["message"]
    assert captured.err == ""
    assert os.listdir(tmp_path) == []


def test_cli_cohomology_degree_zero(capsys):
    code, out = run_cli(capsys, "cohomology", "Q8", "--degree", "0")
    assert code == 0
    assert json.loads(out)["betti"] == [1]


def test_cli_uncertified_fields_do_not_refuse_the_entry(capsys):
    # at degree 1 the type of Q8 reads [2], uncertified; the published [4]
    # must not be compared with it
    code, out = run_cli(capsys, "invariants", "Q8", "--degree", "1")
    assert code == 0
    data = json.loads(out)
    assert data["type"] == [2] and data["certified"]["type"] is False
    validate_report_schema(data)


def test_cli_degree_bound_too_small_is_not_a_budget_error(capsys):
    code, out = run_cli(capsys, "invariants", "SD16", "--degree", "2")
    assert code == 0
    certified = json.loads(out)["certified"]
    assert certified["degree_bound_too_small"] is True
    assert "budget_exceeded" not in certified
    code, out = run_cli(capsys, "cess", "SD16", "--degree", "2")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "DegreeBoundError"
