"""Static checks on the package source, with the standard library only.

* No `assert` statement in src/: a check that `python -O` strips is not a
  check.
* Every module-level private function or class in src/qaffine is referenced
  somewhere in src/: an unreferenced one is dead code.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _modules():
    return [(path, ast.parse(path.read_text(), str(path)))
            for path in sorted(SRC.rglob("*.py"))]


def test_no_assert_statements_in_src():
    found = ["%s:%d" % (path.relative_to(SRC), node.lineno)
             for path, tree in _modules()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_every_private_definition_is_referenced():
    modules = _modules()
    used = set()
    for _, tree in modules:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    unused = ["%s:%s" % (path.relative_to(SRC), node.name)
              for path, tree in modules for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name.startswith("_")
              and not node.name.startswith("__")
              and node.name not in used]
    assert unused == []
