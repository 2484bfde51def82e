"""Layer spans recorded from outside centdet, by wrapping its entry points.

``Tracer.install()`` replaces each entry point listed in ``ENTRY_POINTS``
with a wrapper that counts the call and, when the call crosses into a
layer from a different layer (or from no layer), records a span: name,
layer, start, end and parent span.  A call made from inside its own
layer is counted but opens no span, since it cannot change any layer's
self time.  Module-level functions are patched in every ``centdet``
module that imported them by name, not only in the defining module.

Element-level accessors (``mult``, ``comm``, ``inv``, ``pth_power``,
``Subgroup.*``) are deliberately not wrapped: they run millions of
times, and their time is charged to whichever layer called them.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

# ENTRY_POINTS rows are (module, target, layer, hook).  ``Class.*`` means
# every public method or property of the class; constructors are listed
# on their own.  A hook is called as hook(counts, args) before the call
# and may return done(result), called after the call returns.  Hooks read
# plain attributes only, so they never call a wrapped entry point.


def _count(name):
    def hook(counts, args):
        counts[name] += 1
    return hook


def _ea_subgroups(counts, args):
    def done(result):
        counts["pgroup.ea_subgroups"] += len(result)
    return done


def _solver_build(counts, args):
    mat = args[1]
    counts["fplinalg.solver_builds"] += 1
    counts["fplinalg.solver_cells"] += mat.rows * mat.cols


def _resolution_degrees(counts, args):
    res = args[0]
    before = res.top_degree

    def done(result):
        for i in range(before + 1, res.top_degree + 1):
            counts["resolution.build.degrees"] += 1
            counts["resolution.build.gen_cols"] += res.betti[i] * res.order
    return done


def _generators_lifted(counts, args):
    cm = args[0]
    before = len(cm.maps)

    def done(result):
        for t in range(before, len(cm.maps)):
            counts["resolution.lift.generators_lifted"] += cm.src.betti[cm.shift + t]
    return done


def _ws_resolution(counts, args):
    ws, pres, N = args[:3]
    res = ws._res.get(pres.hash_key())
    counts["invariants.ws_calls"] += 1
    counts["invariants.ws_hits"] += res is not None and res.top_degree >= N


ENTRY_POINTS = [
    ("pgroup", "PcPresentation.__init__", "pgroup", None),
    ("pgroup", "direct_product", "pgroup", None),
    ("pgroup", "elementary_abelian_subgroups", "pgroup", _ea_subgroups),
    ("pgroup", "p_rank", "pgroup", None),
    ("pgroup", "center", "pgroup", None),
    ("pgroup", "omega1_center", "pgroup", None),
    ("pgroup", "is_p_central", "pgroup", None),
    ("pgroup", "centralizer", "pgroup", None),
    ("pgroup", "normalizer", "pgroup", None),
    ("pgroup", "conjugacy_classes", "pgroup", None),
    ("pgroup", "subgroup_presentation", "pgroup", None),
    ("pgroup", "pc_structure", "pgroup", None),
    ("pgroup", "quillen_category_AC", "pgroup", None),
    ("fplinalg", "LinSolver.__init__", "fplinalg", _solver_build),
    ("fplinalg", "LinSolver.solve", "fplinalg", _count("fplinalg.solves")),
    ("fplinalg", "LinSolver.second_solution", "fplinalg", _count("fplinalg.solves")),
    ("fplinalg", "LinSolver.kernel_rows", "fplinalg", None),
    ("fplinalg", "kernel_basis", "fplinalg", None),
    ("fplinalg", "rref", "fplinalg", None),
    ("fplinalg", "intersect", "fplinalg", None),
    ("fplinalg", "subspace_sum", "fplinalg", None),
    ("fplinalg", "FpSubspace.from_spanning", "fplinalg", None),
    ("fplinalg", "matmul_mod", "fplinalg", None),
    ("fplinalg", "IncrementalSpan.add", "fplinalg", _count("fplinalg.span_rows")),
    ("fplinalg", "IncrementalSpan.add_rows", "fplinalg", None),
    ("resolution", "MinimalResolution.extend_to", "resolution.build", _resolution_degrees),
    ("resolution", "MinimalResolution.expanded_diff", "resolution.build", None),
    ("resolution", "MinimalResolution.solver", "resolution.build", None),
    ("resolution", "TensorResolution.__init__", "resolution.build", None),
    ("resolution", "TensorResolution.*", "resolution.build", None),
    ("resolution", "ChainMap.extend_to", "resolution.lift", _generators_lifted),
    ("resolution", "InducedMap.matrix", "resolution.lift", None),
    ("resolution", "ComoduleMap.__init__", "resolution.lift", None),
    ("resolution", "ComoduleMap.*", "resolution.lift", None),
    ("resolution", "cup_product", "resolution.lift", None),
    ("resolution", "multiplication_matrix", "resolution.lift", None),
    ("resolution", "CohomologyFragment.__init__", "resolution.lift", None),
    ("resolution", "CohomologyFragment.*", "resolution.lift", None),
    ("invariants", "Workspace.resolution", "invariants", _ws_resolution),
    ("invariants", "Workspace.analyzer", "invariants", None),
    ("invariants", "Analyzer.__init__", "invariants", _count("invariants.analyzers")),
    ("invariants", "Analyzer.*", "invariants", None),
    ("catalog", "builtin", "catalog", None),
    ("catalog", "CatalogEntry.check_fingerprint", "catalog", None),
    ("catalog", "CatalogEntry.check_invariants", "catalog", None),
    ("catalog", "load_pcp", "catalog", None),
    ("cli", "main", "cli", None),
]

LAYERS = ["pgroup", "fplinalg", "resolution.build", "resolution.lift",
          "invariants", "catalog", "cli"]


class Tracer:
    """Spans and counters of one process, kept in memory until ``dump``."""

    def __init__(self):
        self.spans: list[list] = []  # [name, layer, start, end, parent index]
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def wrap(self, fn, name: str, layer: str, hook=None):
        spans, counts, stack = self.spans, self.counts, self._open
        calls = layer + ".calls"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts[calls] += 1
            done = hook(counts, args) if hook is not None else None
            if stack and spans[stack[-1]][1] == layer:
                result = fn(*args, **kwargs)
            else:
                span = [name, layer, time.perf_counter(), None,
                        stack[-1] if stack else None]
                stack.append(len(spans))
                spans.append(span)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[3] = time.perf_counter()
                    stack.pop()
            if done is not None:
                done(result)
            return result

        return traced

    def install(self):
        """Patch every entry point of ``ENTRY_POINTS`` in the loaded centdet."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "centdet" or n.startswith("centdet."))]
        for mod_name, target, layer, hook in ENTRY_POINTS:
            mod = sys.modules["centdet." + mod_name]
            if "." not in target:
                orig = getattr(mod, target)
                wrapped = self.wrap(orig, f"{mod_name}.{target}", layer, hook)
                for m in modules:
                    if getattr(m, target, None) is orig:
                        setattr(m, target, wrapped)
                continue
            cls_name, attr = target.split(".")
            cls = getattr(mod, cls_name)
            attrs = [a for a in vars(cls) if not a.startswith("_")] if attr == "*" else [attr]
            for a in attrs:
                self._patch_attr(cls, a, f"{cls_name}.{a}", layer, hook)

    def _patch_attr(self, cls, attr: str, name: str, layer: str, hook):
        raw = vars(cls)[attr]
        if isinstance(raw, property):
            setattr(cls, attr, property(self.wrap(raw.fget, name, layer, hook)))
        elif isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(self.wrap(raw.__func__, name, layer, hook)))
        elif callable(raw):
            setattr(cls, attr, self.wrap(raw, name, layer, hook))

    def dump(self, path: str):
        """Write the spans as JSONL, one object per span."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, layer, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": parent, "name": name,
                                     "layer": layer, "start": start, "end": end}))
                fh.write("\n")


def load_spans(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def layer_self_times(spans: list[dict]) -> dict[str, float]:
    """Per layer: span time minus the time covered by its child spans."""
    self_s = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        dur = s["end"] - s["start"]
        self_s[s["layer"]] += dur
        if s["parent"] is not None:
            self_s[spans[s["parent"]]["layer"]] -= dur
    return self_s
