import ast
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
