"""The benchmark's tracer (perfbench/spans.py) wraps centdet entry points
by name.  A renamed or moved entry point would break only the benchmark,
whose own tests are outside the default test paths, so this checks here
that every ENTRY_POINTS row still resolves.  It only reads perfbench."""

import importlib
import importlib.util
import os

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "spans.py")


def entry_points():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.ENTRY_POINTS


def test_benchmark_entry_points_resolve():
    unresolved = []
    for mod_name, target, _layer, _hook in entry_points():
        mod = importlib.import_module("centdet." + mod_name)
        if "." not in target:
            ok = callable(getattr(mod, target, None))
        else:
            cls_name, attr = target.split(".")
            cls = getattr(mod, cls_name, None)
            # the tracer patches the class's own attribute, not an inherited one
            ok = isinstance(cls, type) and (attr == "*" or attr in vars(cls))
        if not ok:
            unresolved.append(f"{mod_name}.{target}")
    assert unresolved == []
