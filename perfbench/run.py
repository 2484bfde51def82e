"""centdet benchmark: run one workload for a fixed time and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ring_p2 --seed 0 --seconds 30 --trace 0

Each pass of a workload is a fresh single-threaded Python process
(worker.py) that calls ``centdet.cli.main`` once per operation.  Passes
repeat until the time is spent; every operation's output is checked
against reference.json.  With ``--trace 0`` the last line reports the
end-to-end metrics; with ``--trace 1`` traced and untraced passes
alternate and the last line reports the per-layer metrics.  Operation
times are also reported rescaled to a reference host speed, gauged by
the probe the worker times while the operations run (``ref_wall_s``).
A record of the run is written to perfbench/results/.  See README.md.
"""

import argparse
import compileall
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5  # extra processes per run that only set up, for setup_s
WORKER_TIMEOUT_S = 150
# The median time of worker.probe() on the 2-core Intel Xeon where this
# benchmark was written.  It fixes the scale of ref_wall_s: at a host
# speed where the probe takes PROBE_REF_S, ref_wall_s equals wall_s.
PROBE_REF_S = 0.007
END_TO_END = ("ref_wall_s", "setup_s", "peak_rss_mb")  # the result line, --trace 0

COUNTS = ["pgroup.calls", "pgroup.ea_subgroups", "fplinalg.calls",
          "fplinalg.solver_builds", "fplinalg.solver_cells", "fplinalg.solves",
          "fplinalg.span_rows", "resolution.build.degrees",
          "resolution.build.gen_cols", "resolution.lift.calls",
          "resolution.lift.generators_lifted", "invariants.analyzers",
          "invariants.ws_calls"]


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_pass(workdir: str, ops: list, spans_path: str | None) -> tuple[dict | None, float]:
    """Run one worker process; return its result and its set-up time, or
    (None, None) if it died."""
    fd, spec_path = tempfile.mkstemp(suffix=".json", dir=workdir)
    with os.fdopen(fd, "w", encoding="utf-8") as fh:
        json.dump({"src": SRC, "ops": ops, "spans": spans_path}, fh)
    result_path = spec_path[:-5] + ".result.json"
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"),
                               spec_path, result_path],
                              cwd=ROOT, env=worker_env(), timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, None
    if proc.returncode != 0 or not os.path.exists(result_path):
        return None, None
    with open(result_path, "r", encoding="utf-8") as fh:
        result = json.load(fh)
    return result, result["t_ready"] - t_spawn


def ref_wall(result: dict) -> float:
    """A pass's operation time rescaled to the reference host speed.

    The probes are evenly spaced in time, so the mean of PROBE_REF_S / probe
    is the host's speed over the pass relative to the reference speed."""
    speeds = [PROBE_REF_S / p for p in result["probes"]]
    return result["wall_s"] * sum(speeds) / len(speeds)


def op_failure(argv: list, op: dict | None, reference: dict) -> str | None:
    """Why one operation failed, or None if its output matches the reference."""
    if op is None:
        return "worker process died"
    if op["error"] is not None:
        return op["error"]
    if op["rc"] != 0:
        return f"exit code {op['rc']}: {op['stdout'][:200]}"
    try:
        fields = workloads.documented_fields(argv[0], op["stdout"])
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
    if workloads.digest(fields) != reference[workloads.op_key(argv)]["sha256"]:
        return "digest differs from reference"
    return None


def quartiles(values: list) -> list:
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def layer_metrics(traced: list, untraced: list) -> dict:
    """Per-layer metrics from the traced passes (spans files and counts)."""
    metrics = {}
    self_times = [spans.layer_self_times(spans.load_spans(path)) for path, _ in traced]
    for layer in spans.LAYERS:
        metrics[f"{layer}.self_s"] = ("s", [t[layer] for t in self_times])
    counts = [r["counts"] for _, r in traced]
    for name in COUNTS:
        metrics[name] = ("count", [c.get(name, 0) for c in counts])
    metrics["invariants.ws_hit_ratio"] = ("ratio", [
        c.get("invariants.ws_hits", 0) / c["invariants.ws_calls"]
        if c.get("invariants.ws_calls") else 0.0 for c in counts])
    plain = statistics.median(ref_wall(r) for r in untraced)
    metrics["trace.overhead_frac"] = ("ratio", [
        (statistics.median(ref_wall(r) for _, r in traced) - plain) / plain])
    return metrics


def git_commit() -> str | None:
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
            "python": platform.python_version(), "numpy": numpy_version,
            "git_commit": git_commit(), "seed": seed}


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    with open(os.path.join(HERE, "reference.json"), "r", encoding="utf-8") as fh:
        reference = json.load(fh)
    inputs = workloads.INPUTS_DIR
    ops = workloads.WORKLOADS[workload]
    if seed != workloads.DEFAULT_SEED and any("{inputs}" in a for argv in ops for a in argv):
        sys.path.insert(0, SRC)
        inputs = os.path.join(workdir, "inputs")
        os.mkdir(inputs)
        workloads.write_relabelled_inputs(inputs, seed)
    inputs = os.path.relpath(inputs, ROOT)  # workers run in ROOT
    ops = [[a.replace("{inputs}", inputs) for a in argv] for argv in ops]

    failures: list = []
    attempted = failed = 0
    setups: list = []
    untraced: list = []
    traced: list = []  # (spans path, result)
    t0 = time.monotonic()
    if not trace:
        for _ in range(SETUP_PROBES):
            result, setup = run_pass(workdir, [], None)
            if result is not None:
                setups.append(setup)
    while True:
        spans_path = None
        if trace and len(traced) < len(untraced):
            spans_path = os.path.join(workdir, f"spans-{len(traced)}.jsonl")
        result, setup = run_pass(workdir, ops, spans_path)
        attempted += len(ops)
        bad = 0
        for i, argv in enumerate(ops):
            why = op_failure(argv, result["ops"][i] if result else None, reference)
            if why is not None:
                bad += 1
                failures.append({"op": workloads.op_key(argv), "why": why})
        failed += bad
        if result is not None and not bad:
            setups.append(setup)
            if spans_path:
                traced.append((spans_path, result))
            else:
                untraced.append(result)
        elapsed = time.monotonic() - t0
        if untraced and (traced or not trace):
            typical = statistics.median([r["wall_s"] for r in untraced]
                                        + [r["wall_s"] for _, r in traced])
            if elapsed + typical / 2 > seconds:
                break
        elif bad and elapsed > seconds:
            break  # the passes keep failing: stop rather than spin

    if trace and traced:
        metrics = layer_metrics(traced, untraced)
        keep = os.path.join(HERE, "results", f"{workload}-seed{seed}.spans.jsonl")
        shutil.copyfile(traced[-1][0], keep)
    elif not trace and untraced:
        metrics = {
            "ref_wall_s": ("s", [ref_wall(r) for r in untraced]),
            "setup_s": ("s", setups),
            "peak_rss_mb": ("MB", [r["peak_rss_mb"] for r in untraced]),
            "wall_s": ("s", [r["wall_s"] for r in untraced]),
            "probe_s": ("s", [p for r in untraced for p in r["probes"]]),
        }
    else:
        metrics = {}
    return {"workload": workload, "seconds": seconds, "trace": int(trace),
            "environment": environment(seed), "attempted": attempted,
            "failed": failed, "failures": failures,
            "metrics": {name: {"value": (statistics.median_low(vals) if unit == "count"
                                         else statistics.median(vals)), "unit": unit,
                               "samples": len(vals), "quartiles": quartiles(vals),
                               "values": vals}
                        for name, (unit, vals) in metrics.items()}}


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> bool:
    """Measure one workload, write its record, print its metrics; True if
    every operation passed its check."""
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=os.path.join(HERE, ".work"))
    try:
        record = measure(workload, seed, seconds, bool(trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = os.path.join(HERE, "results", f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)

    attempted, failed = record["attempted"], record["failed"]
    for name, m in record["metrics"].items():
        q1, _, q3 = m["quartiles"]
        print(f"{workload}  {name} = {m['value']:.6g} {m['unit']}  "
              f"(median of {m['samples']}; quartiles {q1:.6g} .. {q3:.6g})")
    print(f"{workload}  fail_frac = {failed}/{attempted} = {failed / attempted:.3g}")
    for f in record["failures"]:
        print(f"FAILED  {f['op']}: {f['why']}")
    correct = failed == 0 and bool(record["metrics"])
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in record["metrics"].items()
                    if trace or name in END_TO_END},
    }), flush=True)
    return correct


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"],
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "centdet", "cli.py")):
        print(f"centdet sources not found under {SRC}", file=sys.stderr)
        return 2

    # Byte-compile once, as an install does, so that set-up never includes
    # compiling centdet even where PYTHONDONTWRITEBYTECODE is set.
    compileall.compile_dir(os.path.join(SRC, "centdet"), quiet=1)
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(name, args.seed, args.seconds, args.trace) for name in names]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
