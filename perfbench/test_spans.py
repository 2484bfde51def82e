"""Checks of the benchmark's tracing harness.

Run from the root of the repository:  python3 -m pytest perfbench
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402

OPS = [
    ["invariants", "Q8", "--degree", "6"],
    ["cohomology", "D8", "--degree", "4"],
    ["info", "Q8xZ2"],
]


def run_worker(tmp_path, ops, traced):
    spec = tmp_path / "spec.json"
    spans_path = str(tmp_path / "spans.jsonl") if traced else None
    spec.write_text(json.dumps({"src": os.path.join(ROOT, "src"), "ops": ops,
                                "spans": spans_path}))
    result = tmp_path / "result.json"
    subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), str(spec), str(result)],
                   cwd=ROOT, check=True, timeout=300)
    return json.loads(result.read_text()), spans_path


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    return run_worker(tmp_path_factory.mktemp("traced"), OPS, traced=True)


def test_layer_self_times_sum_to_root_spans(traced_run):
    result, path = traced_run
    loaded = spans.load_spans(path)
    roots = [s for s in loaded if s["parent"] is None]
    assert [s["name"] for s in roots] == ["cli.main"] * len(OPS)
    self_s = spans.layer_self_times(loaded)
    assert set(self_s) == set(spans.LAYERS)
    assert all(t >= 0 for t in self_s.values())
    root_time = sum(s["end"] - s["start"] for s in roots)
    assert sum(self_s.values()) == pytest.approx(root_time, rel=1e-9, abs=1e-9)
    # every root span lies inside the pass, whose wall_s leaves out the probes
    assert root_time <= result["wall_s"] + sum(result["probes"])


def test_probes_sample_the_pass_and_leave_its_time(traced_run):
    result, _ = traced_run
    probes = result["probes"]
    assert len(probes) >= 1 and all(p > 0 for p in probes)
    assert result["wall_s"] == pytest.approx(sum(op["seconds"] for op in result["ops"]))
    assert all(op["seconds"] > 0 for op in result["ops"])


def test_spans_nest_inside_their_parents(traced_run):
    _, path = traced_run
    loaded = spans.load_spans(path)
    for s in loaded:
        assert s["start"] <= s["end"]
        if s["parent"] is not None:
            parent = loaded[s["parent"]]
            assert parent["layer"] != s["layer"]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]


def test_every_layer_is_reached_and_counted(traced_run):
    result, path = traced_run
    layers = {s["layer"] for s in spans.load_spans(path)}
    assert layers == set(spans.LAYERS)
    counts = result["counts"]
    for layer in spans.LAYERS:
        assert counts[layer + ".calls"] > 0
    assert counts["invariants.analyzers"] >= 1
    assert counts["resolution.build.degrees"] >= 6
    assert counts["fplinalg.solver_builds"] >= 1
    assert 0 < counts["invariants.ws_hits"] <= counts["invariants.ws_calls"]


def test_tracing_leaves_outputs_unchanged(traced_run, tmp_path):
    traced, _ = traced_run
    plain, _ = run_worker(tmp_path, OPS, traced=False)
    assert "counts" not in plain
    for a, b in zip(traced["ops"], plain["ops"]):
        assert a["rc"] == b["rc"] == 0 and a["error"] is None
        fields = workloads.documented_fields(a["argv"][0], a["stdout"])
        assert fields == workloads.documented_fields(b["argv"][0], b["stdout"])


def test_install_patches_names_imported_elsewhere():
    code = (
        "import sys; sys.path[:0] = [%r, %r]\n"
        "import centdet.cli, centdet.fplinalg as f, centdet.invariants as inv\n"
        "import centdet.resolution as r, centdet.catalog as c, centdet.pgroup as g\n"
        "orig = f.kernel_basis\n"
        "from spans import Tracer\n"
        "Tracer().install()\n"
        "assert f.kernel_basis is not orig\n"
        "assert r.kernel_basis is f.kernel_basis is inv.kernel_basis is g.kernel_basis\n"
        "assert inv.p_rank is g.p_rank is c.p_rank\n"
        "assert centdet.cli.builtin is c.builtin\n"
    ) % (os.path.join(ROOT, "src"), HERE)
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)


def test_reference_covers_every_operation():
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    keys = {workloads.op_key(argv) for ops in workloads.WORKLOADS.values() for argv in ops}
    assert keys == set(reference)
    for entry in reference.values():
        assert workloads.digest(entry["fields"]) == entry["sha256"]


def test_documented_fields_ignore_added_keys():
    out = {"group_id": "Q8", "order": 8, "center_rank": 1, "rank": 1,
           "p_central": True, "notes": "x"}
    base = workloads.documented_fields("info", json.dumps(out))
    out["provenance"] = {"type": "saturation"}
    assert workloads.documented_fields("info", json.dumps(out)) == base
    del out["rank"]
    with pytest.raises(KeyError):
        workloads.documented_fields("info", json.dumps(out))


def test_relabelled_inputs_are_new_presentations_of_the_same_groups(tmp_path):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from centdet.catalog import load_pcp

    workloads.write_relabelled_inputs(str(tmp_path), 7)
    names = sorted(os.listdir(workloads.INPUTS_DIR))
    assert sorted(os.listdir(tmp_path)) == names
    changed = 0
    for name in names:
        shipped = load_pcp(os.path.join(workloads.INPUTS_DIR, name))
        relabelled = load_pcp(str(tmp_path / name))
        assert (relabelled.p, relabelled.order) == (shipped.p, shipped.order)
        changed += relabelled.hash_key() != shipped.hash_key()
    assert changed > 0
