"""Static checks on the package source, with the standard library only.

* No `assert` statement in src/: a check that `python -O` strips is not a
  check.
* Every module-level private function or class in src/qaffine is referenced
  somewhere in src/: an unreferenced one is dead code.
* Every name a module imports is used in that module or re-exported in its
  `__all__`: an import left behind by a deletion is dead code too.
* Every function, method and class defined in src/ (dunders aside) is named
  somewhere else in src/, tests/ or perfbench/: a helper whose last caller
  went is dead code.  Stricter: each is named by code in src/ outside its
  own definition, or by perfbench/: one that only tests call is a test
  oracle, and belongs with the tests.
* src/ has no Fock window: the relation, duality, gauge and structure
  checks compare elements of the q-oscillator ring, which hold on the
  untruncated Fock space, so no margin, window or windowed product is
  left, and none of those checks takes a Fock dimension `d`.
* In scalars.py, true division appears only at the QScalar level
  (`__truediv__`): an int / int in the polynomial kernel would put a float
  into a coefficient.
* In scalars.py, `Fraction` appears only where values enter and where they
  are printed, never in the integer kernel.
* src/ defines one q-oscillator ring class, `linalg.OscPoly`, and it is
  integer-only: no method but `__str__` names `QScalar` or `Fraction`.
* The engine has no Fock-dependent constant: it names no pad, window or
  truncated ladder matrix, and reads `fock_dim` only where `EngineParams`
  stores it and where the reported block is chosen.
* src/ builds no diagonal matrix: a diagonal conjugation or diagonal factor
  is applied with `scaled`, never as a product with a diagonal matrix.
* src/ builds no permutation matrix either: a leg permutation is an index
  map (`leg_permutation`) applied with `relabeled`, so R P, P R and the
  three Yang-Baxter leg placements form no matrix product.
* Every check function of the catalog runner is named by a catalog item,
  and every defaulted parameter of the catalogued checks, of `EngineParams`
  and of `assemble` is set by some production caller: a check nothing runs,
  or a parameter only tests set, is code for the tests alone.
* No call in src/ passes `indent=` to `json.dumps` or `json.dump`: with an
  indent the standard library encodes in pure Python, and
  `serialize.write_json` spells the same bytes.
* An L-operator has one algebraic form, its matrix over the oscillator
  ring: src/ branches on no Grid (Grid's own operators aside), `LTable`
  has no renderer of its own, and the one elimination inverts only the
  units c x^kappa of the ring (`reference.op_inverse`), which `OscPoly`
  does not invert itself.
* One sparse-arithmetic kernel: the sum, negation and additive-key
  convolution of sparse dicts live in scalars.py (`_p_add`, `_p_neg`,
  `_p_conv`), and the matrix product and Kronecker product in linalg.py
  (`_product`, `_kron`).  rational.py defines no `_add` or `_mul` of its
  own, and no sum, negation or matrix product of the matrices, the
  oscillator rings or the series, nor `kron` or `grid_akp`, holds a loop
  or a comprehension: each calls the kernel.  The q-twisted product of
  the oscillator ring, `OscPoly.__mul__`, loops over term pairs itself and
  never names `_p_mul`, whose Kronecker substitution would build integers
  as wide as the packed keys' span (`test_verify` also runs it with every
  multiplication entry of scalars refused).
* Every entry point the benchmark's tracer wraps (`perfbench/tracer.py`,
  `LAYERS`) is defined on its owner, so a rename in src/ fails here and not
  first in a traced benchmark run.
* The arithmetic of `QScalar` builds canonical values only: inside its
  methods every `QScalar(...)` passes `_canonical=True`, so `_normalize`,
  which reduces an arbitrary pair, runs only where values enter (the
  public constructor, as `qint_base` and `parse_qscalar` call it).
* One long division: in scalars.py and rational.py only
  `scalars._p_divmod` loops over the divisor's terms, subtracting a
  multiple of each, inside a loop over the dividend's degrees.  The exact
  quotient over Z (`_p_exquo`), both integer gcds (`_heu_gcd`, `_prs_gcd`)
  and the zeta-polynomial division of rational.py with its exact quotient
  and Euclid's gcd (`_divmod`, `_exquo`, `_gcd`) all call it.  rational.py
  borrows no polynomial gcd, exact quotient or product in t from
  scalars.py.
"""

import ast
import collections
import importlib.util
import inspect
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _modules():
    return [(path, ast.parse(path.read_text(), str(path)))
            for path in sorted(SRC.rglob("*.py"))]


def test_no_assert_statements_in_src():
    found = ["%s:%d" % (path.relative_to(SRC), node.lineno)
             for path, tree in _modules()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_no_indented_json_dumps_in_src():
    found = ["%s:%d" % (path.relative_to(SRC), node.lineno)
             for path, tree in _modules() for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and (getattr(node.func, "attr", None)
                  or getattr(node.func, "id", None)) in ("dumps", "dump")
             and any(k.arg == "indent" for k in node.keywords)]
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


def test_every_imported_name_is_used_or_exported():
    unused = []
    for path, tree in _modules():
        imported = {}
        used = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif (isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "__all__"
                          for t in node.targets)):
                used.update(ast.literal_eval(node.value))
        unused += ["%s:%d:%s" % (path.relative_to(SRC), line, name)
                   for name, line in sorted(imported.items())
                   if name not in used]
    assert unused == []


def test_every_definition_is_named_elsewhere():
    # a word match over the Python files: a name counts as used when it
    # occurs more often than it is defined
    words = collections.Counter(
        word for top in ("src", "tests", "perfbench")
        for path in sorted((ROOT / top).rglob("*.py"))
        for word in re.findall(r"\w+", path.read_text()))
    defined = {}
    for path, tree in _modules():
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and not (node.name.startswith("__")
                             and node.name.endswith("__"))):
                defined.setdefault(node.name, []).append(
                    "%s:%d" % (path.relative_to(SRC), node.lineno))
    assert len(defined) > 200
    assert [where for name, where in sorted(defined.items())
            if words[name] <= len(where)] == []


def test_every_definition_is_named_in_production_code():
    # src/ by its syntax tree, so a docstring, a comment or an `__all__`
    # entry does not count; perfbench/ by word, since its tracer names the
    # entry points it wraps in strings
    bench = collections.Counter(
        word for path in sorted((ROOT / "perfbench").rglob("*.py"))
        for word in re.findall(r"\w+", path.read_text()))

    def names(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                yield node.id
            elif isinstance(node, ast.Attribute):
                yield node.attr
            elif isinstance(node, ast.alias):
                yield node.name
    modules = _modules()
    named = collections.Counter(n for _, tree in modules for n in names(tree))
    defs = [(path, node) for path, tree in modules for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))]
    assert len(defs) > 200
    unreached = ["%s:%d:%s" % (path.relative_to(SRC), node.lineno, node.name)
                 for path, node in defs
                 if named[node.name] == list(names(node)).count(node.name)
                 and not bench[node.name]]
    assert unreached == []


def _true_divisions(tree):
    """(enclosing function, line) of every `/` and `/=` in `tree`."""
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
    return found


def test_true_division_in_scalars_only_where_exact():
    allowed = {"__truediv__"}
    sample = ast.parse("def kernel(a, b):\n    return a / b\n")
    assert _true_divisions(sample) == [("kernel", 2)]
    tree = ast.parse((SRC / "qaffine" / "scalars.py").read_text())
    assert [f for f in _true_divisions(tree) if f[0] not in allowed] == []


def test_src_has_no_fock_window_and_relation_checks_take_no_d():
    named = sorted({"%s:%s" % (path.relative_to(SRC), node.id
                                if isinstance(node, ast.Name) else
                                getattr(node, "attr", None)
                                or getattr(node, "name", None))
                    for path, tree in _modules() for node in ast.walk(tree)
                    if {getattr(node, "id", None), getattr(node, "attr", None),
                        getattr(node, "name", None)}
                    & {"RELATION_MARGIN", "window_product", "fock_window"}})
    assert named == []
    from qaffine import verify
    takes_d = [fn.__name__ for fn in (verify.check_rll, verify.check_duality,
                                      verify.check_gauge,
                                      verify.check_structure)
               if "d" in inspect.signature(fn).parameters]
    assert takes_d == []


def test_an_l_operator_has_one_form():
    # Grid's own operators may refuse other operand types; nothing else in
    # src/ asks whether a matrix is a Grid
    def outside_grid(tree):
        for node in ast.iter_child_nodes(tree):
            if not (isinstance(node, ast.ClassDef) and node.name == "Grid"):
                yield from ast.walk(node)
    branches = ["%s:%d" % (path.relative_to(SRC), node.lineno)
                for path, tree in _modules() for node in outside_grid(tree)
                if isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "isinstance"
                and "Grid" in {getattr(n, "id", None)
                               for n in ast.walk(node.args[1])}]
    assert branches == []
    from qaffine.linalg import OscPoly
    from qaffine.reference import LTable, l_table, op_inverse
    assert not hasattr(LTable, "render")
    assert not hasattr(OscPoly, "inverse")
    l_mat, _ = l_table("a1", "hat", (1, 0)).ring()
    # a ladder monomial, a sum of two monomials, and zero
    refused = []
    unit = l_mat.entry(0, 0)
    for x in (l_mat.entry(1, 0), l_mat.entry(1, 1), unit - unit):
        try:
            op_inverse(x)
        except ValueError:
            refused.append(x)
    assert len(refused) == 3
    assert op_inverse(unit) * unit == l_mat.one


def test_fraction_in_scalars_only_at_the_boundaries():
    allowed = {"_coeff", "from_fraction", "__str__", "_poly_str",
               "_normalize", "q_power"}
    named = {"_prs_gcd", "_heu_gcd", "_reduce_pair", "_content_reduced"}
    tree = ast.parse((SRC / "qaffine" / "scalars.py").read_text())
    helpers = {node.name for node in tree.body
               if isinstance(node, ast.FunctionDef)
               and (node.name.startswith(("_p_", "_int_"))
                    or node.name in named)}
    assert {"_p_mul", "_p_exquo", "_p_gcd", "_content_reduced"} <= helpers
    found = set()

    def visit(node, where):
        if isinstance(node, ast.FunctionDef):
            where = node.name
        if isinstance(node, ast.Name) and node.id == "Fraction":
            found.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)
    visit(tree, None)
    assert found & helpers == set()
    assert found <= allowed


def test_src_defines_one_oscillator_ring_class():
    # a class of src/ with a product that calls itself an element of the
    # oscillator ring; the former coefficient-generic ring and the
    # two-variable one are gone
    rings = ["%s:%s" % (path.relative_to(SRC), node.name)
             for path, tree in _modules() for node in tree.body
             if isinstance(node, ast.ClassDef)
             and "oscillator ring" in " ".join(
                 (ast.get_docstring(node) or "").split())
             and any(isinstance(f, ast.FunctionDef) and f.name == "__mul__"
                     for f in node.body)]
    assert rings == ["qaffine/linalg.py:OscPoly"]
    names = {node.name for _, tree in _modules() for node in ast.walk(tree)
             if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
    assert not names & {"OscElement", "_Laurent2", "_zeta_q", "_cleared",
                        "_values", "_map_scalars", "subs_power",
                        "is_polynomial"}
    # the identity checks read no rational in zeta
    tree = ast.parse((SRC / "qaffine" / "verify.py").read_text())
    assert "rational" not in {node.module for node in ast.walk(tree)
                              if isinstance(node, ast.ImportFrom)}


def test_two_variable_ring_is_integer_only():
    tree = ast.parse((SRC / "qaffine" / "linalg.py").read_text())
    ring, = [node for node in tree.body
             if isinstance(node, ast.ClassDef) and node.name == "OscPoly"]
    methods = [node for node in ring.body
               if isinstance(node, ast.FunctionDef)]
    assert {"__add__", "__mul__", "__str__"} <= {m.name for m in methods}
    found = sorted({m.name for m in methods for node in ast.walk(m)
                    if getattr(node, "id", None) in ("QScalar", "Fraction")
                    or getattr(node, "attr", None) in ("QScalar",
                                                       "Fraction")})
    assert found == ["__str__"]


def test_the_engine_reads_the_fock_dimension_only_for_the_output():
    source = (SRC / "qaffine" / "engine.py").read_text()
    named = [w for w in ("internal_fock_dim", "fock_window", "_leg_map",
                         "FockCopies") if re.search(r"\b%s\b" % w, source)]
    assert named == []
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            where = where + (node.name,)
        if "fock_dim" in {getattr(node, "id", None),
                          getattr(node, "attr", None),
                          getattr(node, "arg", None)}:
            found.add(".".join(where))
        for child in ast.iter_child_nodes(node):
            visit(child, where)
    visit(ast.parse(source), ())
    assert found == {"EngineParams.__init__", "_reported"}


def test_diagonal_matrices_only_where_they_are_operators():
    # no operator the program builds is diagonal, so nothing in src/ calls
    # a `diagonal` constructor, and OpMatrix has none
    from qaffine.linalg import OpMatrix
    assert not hasattr(OpMatrix, "diagonal")
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            where = where + (node.name,)
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "diagonal"):
            found.add(".".join(where))
        for child in ast.iter_child_nodes(node):
            visit(child, where)
    visit(ast.parse("def f(one):\n    return OpMatrix.diagonal([one], one)\n"),
          ("sample",))
    assert found == {"sample.f"}
    for path, tree in _modules():
        visit(tree, (path.stem,))
    assert found == {"sample.f"}


def test_legs_move_by_relabeling_not_by_products(monkeypatch):
    from qaffine import linalg, verify
    from qaffine.reference import r_form
    assert not hasattr(linalg, "perm_operator")
    assert not hasattr(linalg, "embed_legs")
    r, _ = r_form("a2", 2, 1, -1)
    r_uv, r_v = verify._lift(r, "uv"), verify._lift(r, "v")

    def refuse(x, y):
        raise AssertionError("a matrix product")
    monkeypatch.setattr(linalg, "_product", refuse)
    hat, check = (linalg.hat_or_check(r, kind) for kind in ("hat", "check"))
    legs = verify._on_three_legs(r, r_uv, r_v, 3)
    monkeypatch.undo()
    # the same matrices as the products with permutation matrices, and as
    # each two-leg matrix placed index by index on its legs of three
    eye = linalg.OpMatrix.identity(9, r.one)
    swap = eye.relabeled(rows=linalg.leg_permutation((1, 0), 3))
    assert (hat, check) == (r * swap, swap * r)

    def placed(m, at):
        out = {}
        for (i, j), v in m.entries.items():
            for c in range(3):
                row, col = [c] * 3, [c] * 3
                row[at[0]], row[at[1]] = divmod(i, 3)
                col[at[0]], col[at[1]] = divmod(j, 3)
                out[(row[0] * 9 + row[1] * 3 + row[2],
                     col[0] * 9 + col[1] * 3 + col[2])] = v
        return linalg.OpMatrix(27, out, m.one)
    assert legs == (placed(r, (0, 1)), placed(r_uv, (0, 2)),
                    placed(r_v, (1, 2)))


def _parameters(node):
    """The positional parameters of a def, `self` left out, and those of
    them, and of its keyword-only ones, that have a default."""
    names = [a.arg for a in node.args.args if a.arg != "self"]
    defaulted = names[len(names) - len(node.args.defaults):]
    defaulted += [a.arg for a, d in zip(node.args.kwonlyargs,
                                        node.args.kw_defaults)
                  if d is not None]
    return names, defaulted


def test_every_defaulted_parameter_is_set_in_production():
    from qaffine import verify
    items = verify.suite_checks()
    unnamed = sorted(set(verify._CHECK_FNS) - {fn for _, fn, _ in items})
    # the checks get their arguments from the catalog, EngineParams and
    # assemble from their calls in src/
    defs = {}
    for path, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "EngineParams":
                defs["EngineParams"], = [f for f in node.body if getattr(
                    f, "name", None) == "__init__"]
            elif (isinstance(node, ast.FunctionDef)
                  and (path.name, node.name) in (
                      {("verify.py", fn) for _, fn, _ in items}
                      | {("engine.py", "assemble")})):
                defs[node.name] = node
    set_by = collections.defaultdict(set)
    for _, fn, kwargs in items:
        set_by[fn].update(kwargs)
    for _, tree in _modules():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = (getattr(node.func, "id", None)
                    or getattr(node.func, "attr", None))
            if name in ("EngineParams", "assemble"):
                names, _ = _parameters(defs[name])
                set_by[name].update(names[:len(node.args)])
                set_by[name].update(kw.arg for kw in node.keywords)
    assert len(defs) == 8 and set(set_by) == set(defs)
    unset = ["%s(%s)" % (fn, name) for fn, node in sorted(defs.items())
             for name in _parameters(node)[1] if name not in set_by[fn]]
    assert unnamed + unset == []


def test_every_traced_entry_point_is_defined_on_its_owner():
    # read as Tracer.install reads it: vars(owner)[attr], so an attribute
    # inherited or set on an instance does not count
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    entries = [entry for _, entry_points, _, _ in tracer.LAYERS
               for entry in entry_points]
    missing = []
    for entry in entries:
        module_name, path = entry.split(":")
        owner = importlib.import_module("qaffine." + module_name)
        cls_name, _, attr = path.rpartition(".")
        if cls_name:
            owner = getattr(owner, cls_name, None)
        if owner is None or attr not in vars(owner):
            missing.append(entry)
    assert len(entries) > 20
    assert missing == []


def _definitions(module):
    """{qualified name: node} of the functions a module of src/ defines at
    module level and in its classes."""
    tree = ast.parse((SRC / "qaffine" / module).read_text())
    out = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            out[node.name] = node
        elif isinstance(node, ast.ClassDef):
            out.update(("%s.%s" % (node.name, f.name), f) for f in node.body
                       if isinstance(f, ast.FunctionDef))
    return out


def test_one_sparse_arithmetic_kernel():
    assert {"_p_add", "_p_neg", "_p_conv"} <= set(_definitions("scalars.py"))
    assert {"_product", "_kron"} <= set(_definitions("linalg.py"))
    assert not {"_add", "_mul"} & set(_definitions("rational.py"))
    callers = {
        "linalg.py": ("OpMatrix.__add__", "OpMatrix.__neg__",
                      "OpMatrix.__mul__", "OscPoly.__add__",
                      "OscPoly.__neg__", "Grid.__mul__", "kron",
                      "grid_akp"),
        "series.py": ("ZetaSeries.__add__", "ZetaSeries.__neg__"),
        "rational.py": ("ZetaRational.__neg__",),
    }
    loops = []
    for module, names in callers.items():
        defs = _definitions(module)
        loops += ["%s:%s" % (module, name) for name in names
                  if any(isinstance(node, (ast.For, ast.comprehension))
                         for node in ast.walk(defs[name]))]
    assert loops == []
    called = {node.id for node in ast.walk(
        _definitions("linalg.py")["OscPoly.__mul__"])
        if isinstance(node, ast.Name)}
    assert "_p_mul" not in called


def _division_steps(fn):
    """True when fn runs a long-division step: inside a loop over the
    dividend's degrees, a loop over the divisor's terms that subtracts a
    multiple of each term."""
    def subtracts_a_product(node):
        # x - y * z, or x -= y * z
        value = getattr(node, "right", getattr(node, "value", None))
        return isinstance(node, (ast.BinOp, ast.AugAssign)) \
            and isinstance(node.op, ast.Sub) \
            and isinstance(value, ast.BinOp) and isinstance(value.op, ast.Mult)
    loops = (ast.For, ast.While)
    return any(inner is not outer
               and isinstance(inner, (ast.For, ast.comprehension))
               and any(subtracts_a_product(n) for n in ast.walk(inner))
               for outer in ast.walk(fn) if isinstance(outer, loops)
               for inner in ast.walk(outer))


def test_one_long_division():
    defs = {module: _definitions(module)
            for module in ("scalars.py", "rational.py")}
    steps = ["%s:%s" % (module, name) for module, fns in defs.items()
             for name, fn in fns.items() if _division_steps(fn)]
    assert steps == ["scalars.py:_p_divmod"]

    def reaches(module, name, seen):
        # the names the function refers to, followed through the module's own
        # functions, include `_p_divmod`
        seen.add(name)
        named = {node.id for node in ast.walk(defs[module][name])
                 if isinstance(node, ast.Name)}
        return "_p_divmod" in named or any(
            reaches(module, other, seen)
            for other in named & set(defs[module]) - seen)
    callers = {"scalars.py": ("_p_exquo", "_prs_gcd", "_heu_gcd"),
               "rational.py": ("_divmod", "_exquo", "_gcd")}
    assert [(module, name) for module, names in callers.items()
            for name in names if not reaches(module, name, set())] == []
    tree = ast.parse((SRC / "qaffine" / "rational.py").read_text())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert not {"_p_gcd", "_p_exquo", "_p_mul"} & imported


def test_qscalar_arithmetic_builds_canonical_values_only():
    defs = _definitions("scalars.py")
    methods = {name: fn for name, fn in defs.items()
               if name.startswith("QScalar.")}
    assert {"QScalar.__add__", "QScalar.__mul__", "QScalar.inverse"} <= \
        set(methods)

    def canonical(call):
        return any(kw.arg == "_canonical"
                   and isinstance(kw.value, ast.Constant)
                   and kw.value.value is True for kw in call.keywords)
    loose = sorted("%s:%d" % (name, node.lineno)
                   for name, fn in methods.items() for node in ast.walk(fn)
                   if isinstance(node, ast.Call)
                   and isinstance(node.func, ast.Name)
                   and node.func.id == "QScalar" and not canonical(node))
    assert loose == []
    normalizing = sorted(name for name, fn in defs.items()
                         if "_normalize" in {node.id for node in ast.walk(fn)
                                             if isinstance(node, ast.Name)})
    assert normalizing == ["QScalar.__init__"]
