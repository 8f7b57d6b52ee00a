"""Every module-level function or class in src/qfock and in the test
oracles (tests/oracles.py), and every non-dunder method of such a class,
must be named somewhere outside its own definition in src/ or tests/.  A
name that nothing calls, imports or reads is dead code.  So is a parameter
of a src/qfock function, or lambda, that its body never reads.

A definition in src/ must also be named by src/ itself, not only by the
tests: test-only code belongs in tests/oracles.py.  The names in TEST_ONLY
are kept in src/ on purpose, each for the reason given."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qfock"
CHECKED = sorted(PACKAGE.glob("*.py")) + [ROOT / "tests" / "oracles.py"]

RECORD = ("perfbench/record.py builds the label pool with it; "
          "moves to tests/oracles.py with ROADMAP item 6")

TEST_ONLY = {
    "kleshchev_charge": "exported from qfock/__init__.py",
    "CanonicalBasis": RECORD,
    "element_for_label": RECORD,
}


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


def _unnamed(files, checked):
    """'file:line name' of each definition in `checked` that no reference in
    `files` names outside the definition itself."""
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in set(files) | set(checked)}
    uses = {}
    for path in files:
        for name, where, line in _references(path, trees[path]):
            uses.setdefault(name, []).append((where, line))
    unnamed = []
    for path in checked:
        for name, where, first, last in _definitions(path, trees[path]):
            outside = [u for u in uses.get(name, ())
                       if not (u[0] == where and first <= u[1] <= last)]
            if not outside:
                unnamed.append("%s:%d %s" % (path.name, first, name))
    return unnamed


def test_no_unreferenced_definitions():
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    dead = _unnamed(files, CHECKED)
    assert not dead, "named nowhere else: " + ", ".join(dead)


def test_no_src_definition_only_tests_name():
    # a re-export from __init__.py is not a use
    src = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    found = _unnamed(src, sorted(PACKAGE.glob("*.py")))
    names = {entry.split()[-1] for entry in found}
    unlisted = [entry for entry in found if entry.split()[-1] not in TEST_ONLY]
    assert not unlisted, "named only by tests/: " + ", ".join(unlisted)
    assert not set(TEST_ONLY) - names, "stale TEST_ONLY entries"



def _unread_parameters(path, tree):
    """'file:line function parameter' for each parameter, self and cls
    excepted, that its function's body never reads."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [x for x in (a.vararg, a.kwarg) if x]
        read = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)
                and isinstance(n.ctx, ast.Load)}
        for param in params:
            if param.arg not in read and param.arg not in ("self", "cls"):
                name = getattr(node, "name", "<lambda>")
                yield "%s:%d %s %s" % (path.name, node.lineno, name, param.arg)


def test_every_src_parameter_is_read():
    unread = [entry for path in sorted(PACKAGE.glob("*.py"))
              for entry in _unread_parameters(path, ast.parse(path.read_text()))]
    assert not unread, "parameters never read: " + ", ".join(unread)
