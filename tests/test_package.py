"""The package's public names: a name deleted from a module must also
leave ``centdet.__all__``, or ``from centdet import *`` breaks.  And no
module keeps an import it no longer uses, so a deletion leaves no trace."""

import ast
from pathlib import Path

import centdet

SRC = Path(centdet.__file__).parent


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
