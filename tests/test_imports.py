"""Every import in the package and the tests is used, and the CLI starts lean.

A deletion that leaves an import behind fails here.  The package's
``__init__`` is exempt: its imports are the public exports.
"""

import ast
import subprocess
import sys
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
