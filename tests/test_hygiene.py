"""Static checks on the package source, with the standard library only.

* No `assert` statement in src/: a check that `python -O` strips is not a
  check.
* Every module-level private function or class in src/qaffine is referenced
  somewhere in src/: an unreferenced one is dead code.
* Only linalg.py spells out a Fock window: every other module asks
  `fock_window`, so the truncation rule lives in one place.
* In scalars.py, true division appears only in the exact-quotient helper
  `_quo` and at the QScalar level (`__truediv__`, `qbinom`): an int / int
  in the polynomial kernel would put a float into a coefficient.
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


def test_true_division_in_scalars_only_where_exact():
    allowed = {"_quo", "__truediv__", "qbinom"}
    tree = ast.parse((SRC / "qaffine" / "scalars.py").read_text())
    found = []

    def visit(node, where):
        if isinstance(node, ast.FunctionDef):
            where = node.name
        if (isinstance(node, (ast.BinOp, ast.AugAssign))
                and isinstance(node.op, ast.Div)):
            found.append((where, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, where)
    visit(tree, None)
    assert "qbinom" in {where for where, _ in found}
    assert [f for f in found if f[0] not in allowed] == []


def test_only_linalg_spells_out_a_fock_window():
    found = ["%s:%d" % (path.relative_to(SRC), node.lineno)
             for path, tree in _modules() if path.name != "linalg.py"
             for node in ast.walk(tree)
             if "fock_level" in {getattr(node, "id", None),
                                 getattr(node, "attr", None),
                                 getattr(node, "name", None)}]
    assert found == []
