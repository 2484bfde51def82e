"""The package's public names: a name deleted from a module must also
leave ``centdet.__all__``, or ``from centdet import *`` breaks.  No
module keeps an import it no longer uses, so a deletion leaves no trace,
and no function, class or method stays defined that nothing refers to.
No array is allocated with numpy's float64 default, since the
arithmetic is exact over F_p.  The report route imports no numpy
submodule it never uses."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import centdet

SRC = Path(centdet.__file__).parent
REPO = Path(__file__).resolve().parents[1]


def test_all_names_resolve():
    assert [name for name in centdet.__all__ if not hasattr(centdet, name)] == []
    assert len(set(centdet.__all__)) == len(centdet.__all__)


def unused_imports(source: str, exempt=()) -> list[str]:
    """Names bound by top-level imports that nothing else in the module
    reads, apart from the exempt ones."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used and name not in exempt)


def test_unused_imports_are_detected():
    src = "import os\nimport numpy as np\nfrom .x import a, b\nprint(np.pi, b)\n"
    assert unused_imports(src) == ["a (line 3)", "os (line 1)"]
    assert unused_imports(src, exempt={"a"}) == ["os (line 1)"]


def test_no_module_keeps_an_unused_import():
    # the package's __init__ imports only to re-export through __all__
    found = {path.name: unused_imports(
                 path.read_text(), centdet.__all__ if path.name == "__init__.py" else ())
             for path in sorted(SRC.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}


ALLOCATORS = {"zeros", "ones", "eye", "empty", "full"}


def untyped_allocations(source: str) -> list[str]:
    """'np.name (line n)' for each call of an allocator that names no
    dtype keyword: every one of them defaults to float64."""
    return [f"np.{node.func.attr} (line {node.lineno})"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"
            and node.func.attr in ALLOCATORS
            and not any(kw.arg == "dtype" for kw in node.keywords)]


def test_untyped_allocations_are_detected():
    src = ("import numpy as np\na = np.zeros(3)\nb = np.eye(2, dtype=np.uint8)\n"
           "c = np.full((2,), 1)\nd = np.zeros_like(a)\ne = np.ones(2, np.uint8)\n")
    assert untyped_allocations(src) == ["np.zeros (line 2)", "np.full (line 4)",
                                        "np.ones (line 6)"]


def test_every_allocation_names_a_dtype():
    found = {path.name: untyped_allocations(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert {name: calls for name, calls in found.items() if calls} == {}


def definitions(source: str) -> list[str]:
    """Module-level functions and classes, and the methods of those
    classes as 'Class.method'; dunder methods are called implicitly and
    are left out."""
    tree = ast.parse(source)
    defs = ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef
    names = []
    for node in tree.body:
        if isinstance(node, defs):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [f"{node.name}.{f.name}" for f in node.body if isinstance(f, defs)
                      and not (f.name.startswith("__") and f.name.endswith("__"))]
    return names


def references(source: str) -> tuple[set[str], set[str]]:
    """The bare and imported names the source mentions, and its
    attributes with each dotted part of its string constants (entry-point
    tables name their targets as strings)."""
    names, members = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Attribute):
            members.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            members.update(node.value.split("."))
    return names, members


def unreferenced(defining: dict[str, str], referring: list[str]) -> list[str]:
    """'module.name' for each definition in the defining sources (by
    module name) that no referring source mentions.  A method counts as
    used only through an attribute or a string, so a local variable of
    the same name does not hide it."""
    found = [references(source) for source in referring]
    members = set().union(*(m for _, m in found))
    used = members.union(*(n for n, _ in found))
    return sorted(f"{module}.{name}" for module, source in defining.items()
                  for name in definitions(source)
                  if name.rpartition(".")[2] not in (members if "." in name else used))


def test_unreferenced_definitions_are_detected():
    lib = ("def used():\n    pass\n\ndef dead():\n    pass\n\n"
           "class K:\n    def __init__(self):\n        pass\n"
           "    def live(self):\n        pass\n    def stale(self):\n        pass\n"
           "    def shadowed(self):\n        pass\n")
    user = "from lib import used, K\nK()\nROWS = [('lib', 'K.live')]\nshadowed = 1\n"
    assert unreferenced({"lib": lib}, [user]) == ["lib.K.shadowed", "lib.K.stale", "lib.dead"]
    assert unreferenced({"lib": lib}, [user, "x.stale, x.shadowed, dead"]) == []


def test_every_definition_is_referenced():
    # __init__'s re-exports through __all__ do not count as a use
    package = REPO / "src" / "centdet"
    referring = [path.read_text()
                 for root in (REPO / "src", REPO / "tests", REPO / "perfbench")
                 for path in sorted(root.rglob("*.py")) if path != package / "__init__.py"]
    defining = {path.stem: path.read_text() for path in sorted(package.glob("*.py"))}
    assert unreferenced(defining, referring) == []


def test_the_report_route_does_not_import_numpy_ma():
    # numpy imports numpy.ma on first use of some functions (np.unique
    # among them); a fresh process shows what the route itself imports,
    # since pytest or hypothesis may have imported it here already
    code = "\n".join([
        "import contextlib, io, sys",
        "from centdet import cli",
        "from centdet.catalog import builtin",
        "from centdet.pgroup import center, quotient_by_central",
        "with contextlib.redirect_stdout(io.StringIO()):",
        f"    assert cli.main(['invariants', {str(REPO / 'perfbench' / 'inputs' / 'Z9xZ9.pcp')!r},"
        " '--degree', '2']) == 0",
        "Q8 = builtin('Q8').pres",
        "quotient_by_central(Q8, center(Q8))",
        "print('numpy.ma' in sys.modules)",
    ])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert run.stdout.strip() == "False"
