"""Every import in the package and the tests is used, every export is read,
and the CLI starts lean.

A deletion that leaves an import behind fails here.  The package's
``__init__`` is exempt: its imports are the public exports, and each of
those must have a reader outside ``tests/``.
"""

import ast
import re
import subprocess
import sys
import types
from pathlib import Path

import ordalg

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


def loaded_names(source: str) -> set:
    """Names and attributes the source reads; definitions, strings and prose do not count."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def test_loaded_names_skip_definitions_and_strings():
    source = 'def f(x):\n    """q_decompose"""\n    y = "antichain"\n    return chain(x).leq\n'
    assert loaded_names(source) == {"chain", "leq", "x"}


def test_every_export_has_a_reader():
    """Each name in ``ordalg.__all__`` but the submodules is read by a module of the package
    other than ``__init__``, by ``bench/*.py`` or by the README's ``## Library`` example."""
    library = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    read = loaded_names(re.search(r"```python\n(.*?)```", library, re.S).group(1))
    for path in [*(ROOT / "src" / "ordalg").glob("*.py"), *(ROOT / "bench").glob("*.py")]:
        if path.name != "__init__.py":
            read |= loaded_names(path.read_text(encoding="utf-8"))
    exports = {name for name in ordalg.__all__
               if not isinstance(getattr(ordalg, name), types.ModuleType)}
    assert len(exports) > 50
    assert sorted(exports - read) == []


# Modules the CLI's verdicts do not need: dataclasses (which pulls in
# inspect, ast, dis and tokenize when a class is decorated) and hashlib
# (OpenSSL), which only rng.child_seed loads, on first use.
HEAVY = {"dataclasses", "inspect", "hashlib"}


def test_the_cli_starts_without_dataclasses_inspect_or_hashlib():
    """A fresh interpreter without ``site`` imports ordalg.cli and loads none of HEAVY."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
            "import ordalg.cli; print(*sorted(set(sys.modules) - before))")
    res = subprocess.run([sys.executable, "-S", "-c", code, str(ROOT / "src")],
                         capture_output=True, text=True, check=True)
    loaded = set(res.stdout.split())
    assert {"ordalg.cli", "ordalg.rng", "fractions", "argparse"} <= loaded
    assert loaded & HEAVY == set()
