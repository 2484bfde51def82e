"""One workload process: run CLI operations in order and report timings.

Usage: python3 worker.py SPEC_JSON RESULT_JSON

SPEC_JSON holds ``src`` (the directory holding the ``centdet`` package),
``ops`` (a list of CLI argument lists) and ``spans`` (a path for the
span JSONL, or null for an untraced run).  The process calls
``centdet.cli.main(argv)`` once per operation, one after another, and
writes RESULT_JSON with the moment it became ready (system-wide
monotonic clock, so the parent can subtract its spawn time), each
operation's exit code, standard output and wall time, and its peak RSS.

While the operations run, a timer interrupts them every
``SAMPLE_EVERY_S`` seconds to time ``probe()``, a fixed piece of
pure-Python work that gauges how fast the host runs at that moment.
The probe times go to RESULT_JSON as ``probes``; an operation's time
excludes the probes that ran inside it.
"""

import contextlib
import io
import json
import resource
import signal
import sys
import time

PROBE_ITERATIONS = 40_000  # about 7 ms on a 2-core Intel Xeon
SAMPLE_EVERY_S = 0.2


def probe() -> float:
    """Seconds taken by a fixed piece of pure-Python work."""
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(PROBE_ITERATIONS):
        acc += i * i % 7
        table[i & 1023] = acc
    return time.perf_counter() - t0


class Sampler:
    """Times probe() every SAMPLE_EVERY_S seconds while active.

    The probe runs in a signal handler, between two bytecodes of the
    main thread, so it never overlaps the code it interrupts."""

    def __init__(self):
        self.samples = []  # (start, seconds) of each probe

    def _tick(self, signum, frame):
        self.samples.append((time.perf_counter(), probe()))

    def __enter__(self):
        self._tick(None, None)  # every pass has at least one sample
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def inside(self, t0: float, t1: float) -> float:
        """Seconds of probing between t0 and t1."""
        return sum(sec for start, sec in self.samples if t0 <= start < t1)


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import centdet.cli

    tracer = None
    if spec["spans"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    t_ready = time.monotonic()

    ops = []
    with Sampler() as sampler:
        for argv in spec["ops"]:
            out = io.StringIO()
            rc, error = None, None
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out):
                    rc = centdet.cli.main(argv)
            except (Exception, SystemExit) as exc:  # a failed operation is recorded, not fatal
                error = f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            ops.append({"argv": argv, "rc": rc, "error": error,
                        "seconds": t1 - t0 - sampler.inside(t0, t1),
                        "stdout": out.getvalue()})

    result = {
        "t_ready": t_ready,
        "wall_s": sum(op["seconds"] for op in ops),
        "probes": [sec for _, sec in sampler.samples],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": ops,
    }
    if tracer is not None:
        tracer.dump(spec["spans"])
        result["counts"] = dict(tracer.counts)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
