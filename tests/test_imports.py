"""Every import in the package and the tests is used.

A deletion that leaves an import behind fails here.  The package's
``__init__`` is exempt: its imports are the public exports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHECKED = sorted(p for folder in (ROOT / "src" / "ordalg", ROOT / "tests")
                 for p in folder.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by an import statement that nothing else in the module reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            for alias in node.names:
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_unused_imports_are_found():
    source = ("import os\nimport sys as system\nfrom typing import Dict, List\n"
              "x: List = system.argv\n")
    assert unused_imports(source) == [(1, "os"), (3, "Dict")]


def test_no_module_imports_a_name_it_never_uses():
    assert len(CHECKED) > 10
    found = {p.relative_to(ROOT).as_posix(): unused_imports(p.read_text()) for p in CHECKED}
    assert {path: names for path, names in found.items() if names} == {}
