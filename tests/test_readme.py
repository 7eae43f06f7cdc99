"""Every module-level ``*_CAP`` constant is documented in the README.

A cap refuses user input, so the README names it next to its value: both
must appear in one paragraph.  Values are read from the source with the
stdlib ``ast`` module, and may be written with or without digit
separators ("100000", "100,000" or "100_000").
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
