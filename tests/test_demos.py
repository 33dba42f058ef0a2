import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))
GOLDEN = ROOT / "tests" / "golden"


def run_demo(path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, str(path)], capture_output=True, text=True,
                          timeout=60, env=env, cwd=ROOT)


def test_all_demos_are_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path):
    proc = run_demo(path)
    assert proc.returncode == 0, proc.stderr


# the two demos that exercise the antiunitary layer, recorded before its
# congruence solver shared one Smith form
@pytest.mark.parametrize("prefix", ["05", "06"])
def test_demo_output_is_byte_identical(prefix):
    (path,) = [p for p in DEMOS if p.name.startswith(prefix + "_")]
    assert run_demo(path).stdout == (GOLDEN / f"demo-{prefix}.txt").read_text()


def test_readme_minimal_session_prints_its_comments():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    snippet = readme.split("A minimal session:\n\n```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(snippet, {})
    prints = [line for line in snippet.splitlines() if line.startswith("print(")]
    printed = out.getvalue().splitlines()
    assert len(printed) == len(prints)
    commented = [(got, line.partition("# ")[2]) for got, line in zip(printed, prints)
                 if "# " in line]
    assert commented == [("Z3", "Z3"), ("2π·(2/3, 1/3, 0)", "2π·(2/3, 1/3, 0)")]
