import ast
import re
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


def test_every_definition_is_reached():
    """Each def under src/nhdm is named by library code, a demo or a trace target.

    A name counts as referenced when an ``ast.Name`` or ``ast.Attribute``
    in ``src/nhdm`` or ``demos/`` carries it, or when a string in
    ``perfbench/tracer.py`` names it as a dotted component.  The check is by
    name, so same-named definitions hide each other: one ``identity`` in use
    keeps every other ``identity`` from being flagged.
    """
    root = SRC.parent.parent
    defs, used = [], set()
    for path in sorted(SRC.rglob("*.py")) + sorted((root / "demos").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and \
                    path.is_relative_to(SRC) and not DUNDER.fullmatch(node.name):
                defs.append((f"{path.relative_to(SRC)}:{node.lineno}", node.name))
    tracer = root / "perfbench" / "tracer.py"
    for node in ast.walk(ast.parse(tracer.read_text(), filename=str(tracer))):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.update(node.value.split("."))
    assert [f"{where} {name}" for where, name in defs
            if name not in used | UNREFERENCED_ALLOWED] == []
