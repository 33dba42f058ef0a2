import ast
import os
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "nhdm"


def test_no_assert_statements():
    # checks that guard results must survive ``python -O``, which strips asserts
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert found == []


def test_imports_sit_at_module_level():
    # a function-local import hides a module dependency from the reader
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.relative_to(SRC)}:{node.lineno}" for node in ast.walk(func)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert found == []


DUNDER = re.compile(r"__\w+__")

# definitions kept though no module, demo or trace target names them
UNREFERENCED_ALLOWED = {
    # SnfResult.diagonal_matrix, the public accessor for the Smith identity u @ m @ v == D
    "diagonal_matrix",
}

# names of the methods of the built-in containers, which an attribute of the
# same name may call instead of a method of src/nhdm
CONTAINER_METHODS = {name for kind in (set, dict, list, str) for name in dir(kind)
                     if not DUNDER.fullmatch(name)}

# each method of src/nhdm named like a container method, with a function of
# src/nhdm or the demos that reads it
CONTAINER_NAMED_READERS = {
    "find": "witness_potential",  # ClassificationResult.find
}


def test_every_definition_is_reached():
    """Each def under src/nhdm is named by library code, a demo or a trace target.

    A module-level or nested function counts as referenced when an
    ``ast.Name`` or ``ast.Attribute`` in ``src/nhdm`` or ``demos/`` carries
    its name; a method, a def in a class body, only when an ``ast.Attribute``
    does, since a local variable of the same name does not call it.  A string
    in ``perfbench/tracer.py`` that names a def as a dotted component counts
    for both.  The check is by name, so same-named definitions hide each
    other: one ``identity`` in use keeps every other ``identity`` from being
    flagged.  A method named like a method of ``set``, ``dict``, ``list`` or
    ``str`` counts only through ``CONTAINER_NAMED_READERS``, when the
    function listed there reads it, since ``seen.add(x)`` reads no method of
    src/nhdm; every such method must be listed.
    """
    root = SRC.parent.parent
    defs, names, attrs, read_in = [], set(), set(), {}
    for path in sorted(SRC.rglob("*.py")) + sorted((root / "demos").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        methods = {id(item) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                   for item in node.body}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                read_in.setdefault(node.name, set()).update(
                    inner.attr for inner in ast.walk(node) if isinstance(inner, ast.Attribute))
                if path.is_relative_to(SRC) and not DUNDER.fullmatch(node.name):
                    defs.append((f"{path.relative_to(SRC)}:{node.lineno}", node.name,
                                 id(node) in methods))
    traced = set(UNREFERENCED_ALLOWED)
    tracer = root / "perfbench" / "tracer.py"
    for node in ast.walk(ast.parse(tracer.read_text(), filename=str(tracer))):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            traced.update(node.value.split("."))
    shared = {name for _, name, method in defs if method and name in CONTAINER_METHODS}
    assert shared == CONTAINER_NAMED_READERS.keys()
    read_by = {name for name, reader in CONTAINER_NAMED_READERS.items()
               if name in read_in.get(reader, ())}
    assert [f"{where} {name}" for where, name, method in defs
            if name not in (read_by if method and name in CONTAINER_METHODS else
                            attrs | traced | (set() if method else names))] == []


def test_no_module_defines_a_trusted_constructor():
    # record writes _trusted from the fields of each class with a __post_init__,
    # so a method kept by hand would restate the field list
    found = [f"{path.relative_to(SRC)}:{node.lineno}" for path in sorted(SRC.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and node.name == "_trusted"]
    assert found == []


def test_no_module_reads_a_private_name_of_exactmath():
    # the Hermite pivot reading stays in exactmath.py, so the walk cannot
    # carry a second, inline copy of the residue step
    root = SRC.parent.parent
    found = []
    for path in sorted(SRC.rglob("*.py")) + sorted((root / "demos").rglob("*.py")):
        if path == SRC / "exactmath.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "exactmath":
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id == "exactmath":
                names = [node.attr]
            else:
                continue
            found += [f"{path.relative_to(root)}:{node.lineno} {name}" for name in names
                      if name.startswith("_")]
    assert found == []


def test_only_torus_reads_the_circle_weights():
    # the pairing of circles and doublets is read through torus.py: elsewhere
    # a charge comes from bilinear_charges and a phase from element_from_angles
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "torus.py":
            continue
        found += [f"{path.relative_to(SRC)}:{node.lineno} {node.attr}"
                  for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
                  if isinstance(node, ast.Attribute)
                  and node.attr in {"weights", "common_weights"}]
    assert found == []


def test_only_the_term_action_permutes_terms():
    # a term's image under a pattern is read once per N in cpext._term_action;
    # every other reader takes it from there
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = {id(node) for func in ast.walk(tree)
                   if isinstance(func, ast.FunctionDef) and func.name == "_term_action"
                   and path.name == "cpext.py" for node in ast.walk(func)}
        found += [f"{path.relative_to(SRC)}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "permuted" and id(node) not in allowed]
    assert found == []


# what yields a Monomial inside cpext.py: the class, a term's image under a
# pattern, and the term table's list of monomials
MONOMIAL_SOURCES = {"Monomial", "permuted", "monomials", "enumerate_monomials"}


def test_cpext_keys_no_dict_by_monomial():
    # inside cpext a term is its index in the term table, so no dict there is
    # keyed by a Monomial: no annotation says so, and no dict display,
    # comprehension or dict(...) / dict.fromkeys(...) call takes its keys from
    # an expression that names a source of monomials
    path = SRC / "cpext.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    keyed = re.compile(r"\b(dict|Dict|Mapping|MappingProxyType)\[\s*Monomial\b")

    def names_a_monomial(node):
        return any(isinstance(n, ast.Name) and n.id in MONOMIAL_SOURCES
                   or isinstance(n, ast.Attribute) and n.attr in MONOMIAL_SOURCES
                   for n in ast.walk(node))

    found = []
    for node in ast.walk(tree):
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations = [a.annotation for a in (*args.posonlyargs, *args.args,
                                                  *args.kwonlyargs) if a.annotation]
            annotations += [node.returns] if node.returns else []
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        found += [f"cpext.py:{node.lineno} {ast.unparse(a)}" for a in annotations
                  if keyed.search(ast.unparse(a))]
        if isinstance(node, ast.Dict):
            keys = [k for k in node.keys if k is not None]
        elif isinstance(node, ast.DictComp):
            keys = [node.key, *(g.iter for g in node.generators)]
        elif isinstance(node, ast.Call) and (
                isinstance(node.func, ast.Name) and node.func.id == "dict"
                or isinstance(node.func, ast.Attribute) and node.func.attr == "fromkeys"):
            keys = node.args[:1]
        else:
            continue
        found += [f"cpext.py:{node.lineno} {ast.unparse(node)}"
                  for k in keys if names_a_monomial(k)][:1]
    assert found == []


def _enclosing_functions(tree):
    """Each node of ``tree`` mapped to the names of the class and function defs around it."""
    out = {}

    def visit(node, names):
        for child in ast.iter_child_nodes(node):
            inner = names + (child.name,) if isinstance(
                child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) else names
            out[id(child)] = inner
            visit(child, inner)

    visit(tree, ())
    return out


def test_a_phase_system_takes_one_shape():
    # a PhaseConstraintSystem is made only empty over a base's layout, by
    # AbelianBase.phase_system; head rows enter through pin, and coefficient
    # phases only with a whole term orbit, so _join is the one writer of
    # ``blocks`` after the constructor sets it to an empty dict
    mutators = {"update", "setdefault", "pop", "popitem", "clear"}
    made, written = [], []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        where = _enclosing_functions(tree)
        emptied = {id(node.target) for node in ast.walk(tree)
                   if isinstance(node, ast.AnnAssign) and isinstance(node.value, ast.Dict)
                   and not node.value.keys
                   and where[id(node)][-2:] == ("PhaseConstraintSystem", "__init__")}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id == "PhaseConstraintSystem":
                made.append(where[id(node)])
                continue
            if isinstance(node, ast.Attribute) and node.attr in mutators:
                stored, target = True, node.value  # blocks.update(...) and the like
            elif isinstance(node, (ast.Attribute, ast.Subscript)):
                stored = isinstance(node.ctx, (ast.Store, ast.Del)) and id(node) not in emptied
                target = node if isinstance(node, ast.Attribute) else node.value
            else:
                continue
            if stored and isinstance(target, ast.Attribute) and target.attr == "blocks":
                written.append(f"{path.relative_to(SRC)}:{node.lineno} {where[id(node)]}")
    assert made == [("AbelianBase", "phase_system")]
    assert written and all(w.endswith("'_join')") for w in written), written


def test_only_solve_reads_a_phase_system_row_over_every_unknown():
    # a row of a PhaseConstraintSystem enters and is asked about as its head
    # part and its psi entries by term; ``equations`` writes every row over
    # all unknowns, and only the Smith solve reads it
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        where = _enclosing_functions(tree)
        found += [f"{path.relative_to(SRC)}:{node.lineno} {where[id(node)]}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "equations"
                  and where[id(node)][-2:] != ("PhaseConstraintSystem", "solve")]
    assert found == []


def test_a_term_orbit_is_made_one_way_and_the_layout_read_once():
    # a TermOrbit is built only by TermOrbit.reduced, from one pattern's
    # relations, and joins every base as it is; the psi columns of a base are
    # read from its layout only by AbelianBase.phase_system, and every other
    # reader keys a psi by its term
    made, read = [], []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        where = _enclosing_functions(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id == "TermOrbit":
                made.append(where[id(node)])
            elif isinstance(node, ast.Attribute) and node.attr == "layout":
                read.append(where[id(node)])
    assert all(w[-2:] == ("TermOrbit", "reduced") for w in made), made
    assert read == [("AbelianBase", "phase_system")]


# the functions of classifier.py and cpext.py that read a term table's
# monomials: the report edge, where a witness, a psi name or a verdict's
# detail is printed, and the two readers of a term's factors
MONOMIAL_READERS = {
    ("classify",), ("witness_potential",), ("AbelianBase", "layout"), ("_term_action",),
    ("cp_realizable",), ("check_z3z3",),
}


def test_only_the_report_edge_reads_the_table_monomials():
    # below the report edge a term is its index in the term table: the walk
    # labels its witnesses by index and terms are ordered by the table's
    # rank, so no other function reads ``.monomials``
    found = []
    for name in ("classifier.py", "cpext.py"):
        path = SRC / name
        tree = ast.parse(path.read_text(), filename=str(path))
        where = _enclosing_functions(tree)
        found += [f"{name}:{node.lineno} {where[id(node)]}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "monomials"
                  and where[id(node)] not in MONOMIAL_READERS]
    assert found == []


def test_no_module_imports_dataclasses():
    # records are built by nhdm._record.record: importing dataclasses pulls
    # in inspect, ast and dis, which every CLI call would pay at start
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.relative_to(SRC)}:{node.lineno}" for name in names
                      if name.split(".")[0] == "dataclasses"]
    assert found == []


def test_the_cli_loads_neither_dataclasses_nor_inspect():
    # -S leaves out site, whose .pth files may load either on their own
    code = ("import sys, nhdm.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          timeout=30, env=dict(os.environ, PYTHONPATH=str(SRC.parent)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
