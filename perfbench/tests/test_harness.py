"""Self-test of the benchmark harness on small inputs.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import run  # noqa: E402

SMALL = {
    "walk": run.Workload("walk", n=3),
    "cp-sweep": run.Workload("cp-sweep", n=3),
    "term-queries": run.Workload("term-queries", queries=300),
}
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in DECLARED[kind]}


def units(metrics: dict) -> dict:
    return {name: unit for name, (_, unit, _) in metrics.items()}


@pytest.mark.parametrize("kind", SMALL)
def test_end_to_end_metrics_all_present_and_nonzero(kind):
    done, metrics, _ = run.run_workload(SMALL[kind], seed=3, seconds=0, trace=False)
    assert (done.failed, done.problems) == (0, [])
    assert units(metrics) == declared("end_to_end")
    assert all(value > 0 for value, _, _ in metrics.values())
    line = json.loads(run.result_line(done, metrics))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True


@pytest.mark.parametrize("kind", SMALL)
def test_traced_run_emits_every_per_layer_metric(kind):
    done, metrics, _ = run.run_workload(SMALL[kind], seed=3, seconds=0, trace=True)
    assert (done.failed, done.problems) == (0, [])
    assert units(metrics) == declared("per_layer")


def test_traced_walk_counts_at_three_doublets():
    _, metrics, _ = run.run_workload(SMALL["walk"], seed=3, seconds=0, trace=True)
    value = {name: v for name, (v, _, _) in metrics.items()}
    assert value["classifier.lattices"] == 19
    # every lattice but the empty one makes one snf call for its group
    assert value["exactmath.snf.calls"] == 18
    assert value["classifier.edges"] == value["exactmath.hnf_add.calls"]


@pytest.mark.parametrize("kind", ["walk", "cp-sweep"])
def test_corrupted_expected_digest_is_a_failed_operation(kind):
    expected = copy.deepcopy(run.EXPECTED)
    expected[kind][str(SMALL[kind].n)]["sha256"] = "0" * 64
    done, _, _ = run.run_workload(SMALL[kind], seed=3, seconds=0, trace=False, expected=expected)
    assert done.attempted == done.failed == 1
    assert json.loads(run.result_line(done, {}))["correct"] is False


def test_oracle_accepts_the_worked_z3_example_and_rejects_wrong_answers():
    terms = [[[1, 2], [1, 3]], [[2, 1], [2, 3]]]
    right = [[3], 0, [["2/3", "1/3", "0"]], []]
    assert oracle.check_answer(3, terms, right) is None
    for wrong in ([[2], 0, [["1/2", "0", "0"]], []],     # wrong group
                  [[3], 0, [["1/3", "0", "0"]], []],     # generator moves a term
                  [[3], 0, [["0", "0", "0"]], []],       # generator of the wrong order
                  [[], 1, [], [[1, 0]]]):                # direction not orthogonal
        assert oracle.check_answer(3, terms, wrong) is not None


def test_queries_depend_only_on_the_seed():
    assert run.make_queries(5, 0, 50) == run.make_queries(5, 0, 50)
    assert run.make_queries(5, 0, 50) != run.make_queries(6, 0, 50)


def test_refuses_to_run_without_sources():
    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "walk-n5",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
