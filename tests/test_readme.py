"""The README documents every cap and names only what the package defines.

A cap refuses user input, so the README names each module-level ``*_CAP``
constant next to its value: both must appear in one paragraph.  Values are
read from the source with the stdlib ``ast`` module, and may be written
with or without digit separators ("100000", "100,000" or "100_000").

Each identifier in an inline code span that contains ``_`` or is camel
case must be defined in the package, so a deletion that leaves its README
line behind fails here.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def module_caps(source: str) -> dict:
    """Module-level ``NAME_CAP = <literal>`` assignments, annotated or not."""
    caps = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and target.id.endswith("_CAP"):
                caps[target.id] = ast.literal_eval(node.value)
    return caps


def documented(name: str, value: int, text: str) -> bool:
    """Whether one paragraph names ``name`` and states ``value`` as a whole number."""
    spellings = "|".join(re.escape(s) for s in {str(value), f"{value:,}", f"{value:_}"})
    number = re.compile(r"(?<![\w/])(?<!\d[.,])(?:" + spellings + r")(?![\w/]|[.,]\d)")
    return any(re.search(rf"\b{name}\b", para) and number.search(para)
               for para in re.split(r"\n\s*\n", text))


def test_module_caps_are_found():
    source = "A_CAP = 4\nB_CAP: int = 5_000\nC = 6\ndef f():\n    D_CAP = 7\n"
    assert module_caps(source) == {"A_CAP": 4, "B_CAP": 5000}


def test_documented_needs_name_and_value_in_one_paragraph():
    assert documented("X_CAP", 100_000, "capped at 100,000 (`cli.X_CAP`)")
    assert not documented("X_CAP", 4, "`X_CAP` points\n\nat most 4")
    assert documented("X_CAP", 4, "at most 4, `X_CAP`, points")
    assert not documented("X_CAP", 4, "`X_CAP` is 40, 1/4, 2.4 or 3,4")


def test_every_cap_is_in_the_readme():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    caps = {}
    for path in sorted((ROOT / "src" / "ordalg").glob("*.py")):
        caps.update(module_caps(path.read_text(encoding="utf-8")))
    assert {"ENUMERATION_CAP", "GRID_CAP", "CARRIER_CAP", "SAMPLES_CAP"} <= set(caps)
    assert sorted(name for name, value in caps.items()
                  if not documented(name, value, readme)) == []


def defined_names(source: str) -> set:
    """Module-level names, class attributes (slots too) and ``self.<name> =`` targets."""
    tree = ast.parse(source)

    def bound(node) -> list:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            return [node.name]
        if isinstance(node, ast.Assign):
            return [t.id for t in node.targets if isinstance(t, ast.Name)]
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            return [node.target.id]
        return []

    names = set()
    for node in tree.body:
        names.update(bound(node))
        for item in node.body if isinstance(node, ast.ClassDef) else ():
            names.update(bound(item))
            if "__slots__" in bound(item):
                names.update(ast.literal_eval(item.value))
    names.update(node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                 and isinstance(node.value, ast.Name) and node.value.id == "self")
    return names


PATH = re.compile(r"[\w.-]*/[\w./-]*|\b[\w-]+\.(?:py|json|md)\b")


def code_identifiers(text: str) -> set:
    """Identifiers with ``_`` or camel case in inline code spans, outside file paths."""
    spans = re.findall(r"`([^`\n]+)`", re.sub(r"```.*?```", "", text, flags=re.S))
    return {token for span in spans for token in re.findall(r"[A-Za-z_]\w*", PATH.sub(" ", span))
            if "_" in token or re.search(r"[a-z][A-Z]", token)}


def test_code_identifiers_and_definitions_are_found():
    text = ("`RationalFn.on`, `q_decompose(m)`, `tests/test_cli.py`, `run.py`, `Fraction`\n"
            "```python\nfenced_name = 1\n```\n")
    assert code_identifiers(text) == {"RationalFn", "q_decompose"}
    source = ("A_CAP = 1\nclass K:\n    __slots__ = ('pos',)\n    x: int = 0\n"
              "    def run(self):\n        self.hits = 0\n        local = 1\n")
    assert defined_names(source) == {"A_CAP", "K", "__slots__", "pos", "x", "run", "hits"}


def test_the_readme_names_only_what_the_package_defines():
    defined = set()
    for path in sorted((ROOT / "src" / "ordalg").glob("*.py")):
        defined.add(path.stem)
        defined |= defined_names(path.read_text(encoding="utf-8"))
    names = code_identifiers((ROOT / "README.md").read_text(encoding="utf-8"))
    assert {"SbalSkeleton", "contains_nonneg", "naturality_ok", "CARRIER_CAP"} <= names
    assert sorted(names - defined) == []
