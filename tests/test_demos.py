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
