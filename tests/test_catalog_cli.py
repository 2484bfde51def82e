import json
import os

import numpy as np
import pytest

from centdet.catalog import (
    CatalogError,
    PcpFormatError,
    builtin,
    builtin_ids,
    format_pcp,
    load_resolution,
    parse_pcp,
    save_resolution,
)
from centdet.cli import CSV_HEADER, main
from centdet.pgroup import PcPresentation, PcPresentationError
from centdet.resolution import build_minimal_resolution


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


def test_resolution_cache_roundtrip(tmp_path):
    pres = builtin("Q8").pres
    res = build_minimal_resolution(pres, 6)
    save_resolution(res, str(tmp_path))
    back = load_resolution(pres, str(tmp_path))
    assert back is not None
    assert back.betti == res.betti
    for i in range(1, 7):
        assert np.array_equal(back._gen_images[i], res._gen_images[i])
    back.verify()


def test_resolution_cache_invalidated_on_other_presentation(tmp_path):
    res = build_minimal_resolution(builtin("Q8").pres, 4)
    save_resolution(res, str(tmp_path))
    assert load_resolution(builtin("D8").pres, str(tmp_path)) is None


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


def test_cli_cohomology_with_cache(capsys, tmp_path):
    cache = str(tmp_path)
    code, out = run_cli(capsys, "cohomology", "Q8", "--degree", "6",
                        "--cache", cache)
    assert code == 0
    data = json.loads(out)
    assert data["betti"] == [1, 2, 2, 1, 1, 2, 2]
    assert data["ring_generators_by_degree"] == [0, 2, 0, 0, 1, 0, 0]
    assert any(name.startswith("cohres-") for name in os.listdir(cache))
    # second run hits the cache
    code, out = run_cli(capsys, "cohomology", "Q8", "--degree", "6",
                        "--cache", cache)
    assert code == 0
    assert json.loads(out)["betti"] == data["betti"]


def test_cli_cohomology_rewrites_cache_only_when_it_grows(capsys, tmp_path):
    cache = str(tmp_path)

    def cohomology(degree):
        code, out = run_cli(capsys, "cohomology", "Q8", "--degree", str(degree),
                            "--cache", cache)
        assert code == 0
        [name] = [n for n in os.listdir(cache) if n.startswith("cohres-")]
        path = os.path.join(cache, name)
        st = os.stat(path)
        with open(path) as fh:
            top = [line for line in fh if line.startswith("N ")]
        return (st.st_ino, st.st_mtime_ns), top

    # a hit that needs no new degree leaves the file alone
    written, top = cohomology(6)
    assert cohomology(4) == (written, top)
    assert top == ["N 6\n"]

    # a hit that needs more degrees rewrites it
    for name in os.listdir(cache):
        os.remove(os.path.join(cache, name))
    written, top = cohomology(4)
    assert top == ["N 4\n"]
    rewritten, top = cohomology(6)
    assert rewritten != written
    assert top == ["N 6\n"]


def test_cli_cess(capsys):
    code, out = run_cli(capsys, "cess", "SD16", "--degree", "8")
    assert code == 0
    data = json.loads(out)
    assert data["e_prime"] == 2
    assert data["e_double_prime"] == 2


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


def test_cli_error_is_machine_readable(capsys):
    code, out = run_cli(capsys, "info", "NOPE")
    assert code == 1
    data = json.loads(out)
    assert "error" in data and "NOPE" in data["error"]["message"]


def test_cli_verify_quick(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "quick")
    assert code == 0
    assert out.count("PASS") >= 7
    assert "ALL PASS" in out


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


def test_cache_env_var(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("CENTDET_CACHE_DIR", str(tmp_path))
    code, _ = run_cli(capsys, "cohomology", "Z8", "--degree", "5")
    assert code == 0
    assert any(name.startswith("cohres-") for name in os.listdir(str(tmp_path)))


def test_table_parallel_jobs(capsys):
    code, out = run_cli(capsys, "table", "Q8", "D8", "--degree", "6",
                        "--jobs", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3


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


@pytest.mark.parametrize("damage", ["line_boundary", "mid_line", "flipped_digit"])
def test_cli_cohomology_rebuilds_damaged_cache(capsys, tmp_path, damage):
    cache = str(tmp_path)
    code, out = run_cli(capsys, "cohomology", "Q8", "--degree", "6", "--cache", cache)
    assert code == 0
    [name] = [n for n in os.listdir(cache) if n.startswith("cohres-")]
    path = os.path.join(cache, name)
    with open(path) as fh:
        good = fh.read()
    last = good.splitlines(keepends=True)[-1]
    if damage == "line_boundary":
        bad = good[: -len(last)]
    elif damage == "mid_line":
        bad = good[: -(len(last) // 2)]
    else:
        bad = good[:-2] + ("1" if good[-2] == "0" else "0") + "\n"
    with open(path, "w") as fh:
        fh.write(bad)
    assert load_resolution(builtin("Q8").pres, cache) is None
    code, again = run_cli(capsys, "cohomology", "Q8", "--degree", "6", "--cache", cache)
    assert code == 0
    assert json.loads(again) == json.loads(out)
    with open(path) as fh:
        assert fh.read() == good
