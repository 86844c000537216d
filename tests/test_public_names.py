"""Every public name of the library has a user besides the tests.

A public function, class or method that only tests call is a helper for
the tests: it belongs under tests/, where it does not count as library.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "wickbench"
# read as text: the benchmark names the functions it traces in strings
OUTSIDE = [ROOT / "README.md", *sorted((ROOT / "demos").glob("*.py")),
           *sorted((ROOT / "perfbench").rglob("*.py")), *sorted((ROOT / "perfbench").rglob("*.md"))]


def _public_definitions():
    """(file, qualified name, name, node) of each public top-level function
    and class of the package, and of each public method of those classes."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield path, node.name, node.name, node
                for item in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield path, f"{node.name}.{item.name}", item.name, item


def _src_uses():
    """(file, line) of each name read and each attribute taken in the package."""
    uses = {}
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                uses.setdefault(node.id, []).append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses.setdefault(node.attr, []).append((path, node.lineno))
    return uses


def test_no_public_name_is_used_only_by_tests():
    uses = _src_uses()
    outside = "\n".join(path.read_text() for path in OUTSIDE)
    test_only = []
    for path, qualified, name, node in _public_definitions():
        in_src = any(p != path or not node.lineno <= line <= node.end_lineno for p, line in uses.get(name, ()))
        if not in_src and not re.search(rf"\b{re.escape(name)}\b", outside):
            test_only.append(qualified)
    assert not test_only, f"public, but used only by tests: {test_only}"
