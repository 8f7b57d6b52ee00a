"""Every module-level function or class in src/qfock and in the test
oracles (tests/oracles.py), and every non-dunder method of such a class,
must be named somewhere outside its own definition in src/ or tests/.  A
name that nothing calls, imports or reads is dead code."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qfock"
CHECKED = sorted(PACKAGE.glob("*.py")) + [ROOT / "tests" / "oracles.py"]


def _definitions(path, tree):
    """(name, path, first line, last line) of the definitions to check."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, path, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield item.name, path, item.lineno, item.end_lineno


def _references(path, tree):
    """(name, path, line) of every identifier the code reads or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, path, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, path, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name, path, node.lineno


def test_no_unreferenced_definitions():
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in files}
    uses = {}
    for path, tree in trees.items():
        for name, where, line in _references(path, tree):
            uses.setdefault(name, []).append((where, line))
    dead = []
    for path in CHECKED:
        for name, where, first, last in _definitions(path, trees[path]):
            outside = [u for u in uses.get(name, ())
                       if not (u[0] == where and first <= u[1] <= last)]
            if not outside:
                dead.append("%s:%d %s" % (path.name, first, name))
    assert not dead, "named nowhere else: " + ", ".join(dead)
