"""nhdm benchmark: cold N=5 lattice walk, N=4 antiunitary sweep, term-set queries.

Run from the repository root:

    python3 perfbench/run.py --workload walk-n5 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

Workloads (each job runs in a fresh interpreter, one at a time, because the
walk and its group extraction are cached per process and every CLI call pays
them cold):

- ``walk-n5``: one ``nhdm classify --doublets 5 --format json`` through
  ``nhdm.cli``; the report must match the one recorded from the seed commit
  byte for byte.
- ``cp-sweep-n4``: ``cp_extensions`` on every base of ``cp_bases(4)`` and
  ``cp_realizable`` on every candidate; the sorted verdict list must match
  the recorded digest.
- ``term-queries``: a closed loop, one client, of ``symmetry_group_of_terms``
  on seeded random sets of 1..N+1 monomials, N in {3, 4, 5, 6}; every answer
  is checked by ``oracle.py``, outside the timed region.

A run spawns jobs until ``--seconds`` of job time have passed (at least one
job; the walk and the sweep each take longer than that, so they run once).
Each child gets its own ``PYTHONHASHSEED``, derived from ``--seed``, so an
output that depends on hash order fails its check.  A wrong output counts as
a failed operation: one per job for the walk and the sweep, one per query for
``term-queries``.

Times are reported at a reference machine speed (see ``speed.py``): the
machine this was built on is shared, and the same job's raw time varied by
a factor of 1.5 from run to run.  A fixed kernel is timed while each job
runs and the job's time is scaled by how fast the kernel ran; the unscaled
medians are printed too.  Query latencies of ``term-queries`` are process
CPU time, scaled the same way, so that moments the virtual machine is
preempted do not decide the tail; on the walk and the sweep the one query
is the whole job, so there the percentiles equal ``wall_s``.  ``setup_s`` is
the time from spawning an interpreter to ``import nhdm`` done, over
SETUP_PROBES extra interpreters.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one plain
and one traced job and prints the per-layer metrics from spans that
``tracer.py`` records around every public call into each layer, plus the
tracing overhead (traced minus plain wall time).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  Work files and spans go to ``.bench_build/perfbench``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
PYCACHE = ROOT / ".bench_build" / "pycache"
sys.pycache_prefix = str(PYCACHE)

import speed  # noqa: E402

SETUP_PROBES = 11     # extra interpreter spawns per run; setup_s is the median
RUN_LIMIT_S = 170.0   # a run ends within this, whatever its children do
ERROR_SAMPLE = 10     # failure messages printed per run


@dataclass(frozen=True)
class Workload:
    kind: str          # "walk", "cp-sweep" or "term-queries"
    n: int = 0         # doublets, for "walk" and "cp-sweep"
    queries: int = 0   # queries per job, for "term-queries"


WORKLOADS = {
    "walk-n5": Workload("walk", n=5),
    "cp-sweep-n4": Workload("cp-sweep", n=4),
    "term-queries": Workload("term-queries", queries=5000),
}

EXPECTED = json.loads((HERE / "expected.json").read_text())


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class JobFailed(Exception):
    pass


@dataclass
class Run:
    """What one run attempted and what failed, and why."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    children: int = 0

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        self.problems.append(why)


# -- inputs -------------------------------------------------------------------


def _random_bilinear(rng: random.Random, n: int) -> tuple[int, int]:
    a = rng.randrange(1, n + 1)
    b = rng.randrange(1, n)
    return a, b + (b >= a)


def _random_monomial(rng: random.Random, n: int) -> tuple:
    """One or two off-diagonal bilinears (a, b), never the neutral (a,b)(b,a)."""
    first = _random_bilinear(rng, n)
    factors = [first]
    if rng.random() < 0.5:
        second = _random_bilinear(rng, n)
        while second == first[::-1]:
            second = _random_bilinear(rng, n)
        factors.append(second)
    # key up to complex conjugation, so a query holds distinct terms
    return min(tuple(sorted(factors)), tuple(sorted(f[::-1] for f in factors)))


def make_queries(seed: int, batch: int, count: int) -> list:
    """``count`` queries [N, [[a, b], ...] per term]; the same arguments give the same list."""
    rng = random.Random(f"term-queries:{seed}:{batch}")
    out = []
    for _ in range(count):
        n = rng.choice((3, 4, 5, 6))
        k = rng.randint(1, n + 1)
        terms: list = []
        while len(terms) < k:
            m = _random_monomial(rng, n)
            if m not in terms:
                terms.append(m)
        out.append([n, [[list(f) for f in m] for m in terms]])
    return out


# -- children -----------------------------------------------------------------


def run_child(run: Run, work: Path, spec: dict, seed: int, deadline: float) -> dict:
    """Run child.py on ``spec`` in a fresh interpreter; its result plus ``setup_s``."""
    run.children += 1
    spec = dict(spec, result=str(work / "result.json"))
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec))
    Path(spec["result"]).unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONPYCACHEPREFIX=str(PYCACHE),
               PYTHONHASHSEED=str((seed * 7919 + run.children) % 4294967296))
    # users run from cached bytecode; the cache lives under .bench_build
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    err_path = work / "stderr.txt"
    with open(err_path, "wb") as err:
        start = now()
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(spec_path)],
                                cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=err, stderr=err)
        try:
            code = proc.wait(timeout=max(1.0, deadline - now()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise JobFailed(f"{spec['kind']} job killed at the run's time limit")
    if code != 0:
        tail = err_path.read_text(errors="replace").strip().splitlines()[-3:]
        raise JobFailed(f"{spec['kind']} job exited with {code}: {' | '.join(tail)}")
    result = json.loads(Path(spec["result"]).read_text())
    result["setup_s"] = result["imported"] - start
    result["elapsed_s"] = now() - start
    return result


def job_spec(wl: Workload, work: Path, seed: int, batch: int, trace: bool) -> dict:
    spec = {"kind": wl.kind, "trace": trace, "n": wl.n,
            "spans": str(BUILD / f"spans-{wl.kind}")}
    if wl.kind == "term-queries":
        spec["input"] = str(work / "queries.jsonl")
        spec["answers"] = str(work / "answers.jsonl")
        with open(spec["input"], "w") as f:
            for query in make_queries(seed, batch, wl.queries):
                f.write(json.dumps(query) + "\n")
    return spec


# -- output checks --------------------------------------------------------------


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_walk(wl: Workload, outputs: dict, expected: dict) -> list[str]:
    want = expected["walk"][str(wl.n)]
    if outputs["exit_code"] != 0:
        return [f"classify exited with {outputs['exit_code']}"]
    problems = []
    if _digest(outputs["stdout"]) != want["sha256"]:
        problems.append("classify report differs from the recorded one")
    payload = json.loads(outputs["stdout"])["payload"]
    got = {"groups": len(payload["groups"]),
           "max_finite_order": payload["max_finite_order"],
           "lattices": sum(g["n_lattices"] for g in payload["groups"])}
    problems += [f"{k} is {v}, expected {want[k]}" for k, v in got.items() if v != want[k]]
    return problems


def check_cp_sweep(wl: Workload, outputs: dict, expected: dict) -> list[str]:
    want = expected["cp-sweep"][str(wl.n)]
    cases = sorted(outputs["cases"])
    verdicts = {k: 0 for k in want["verdicts"]}
    for case in cases:
        verdicts[case[3]] = verdicts.get(case[3], 0) + 1
    problems = []
    if len(cases) != want["candidates"]:
        problems.append(f"{len(cases)} candidates, expected {want['candidates']}")
    if verdicts != want["verdicts"]:
        problems.append(f"verdicts {verdicts}, expected {want['verdicts']}")
    if _digest(json.dumps(cases)) != want["sha256"]:
        problems.append("sorted (lattice, sigma, extension, verdict) list differs")
    return problems


def check_queries(spec: dict) -> list[str]:
    """One message per wrong answer."""
    import oracle  # imports nhdm, so only once main() has put src/ on the path

    with open(spec["input"]) as f:
        queries = [json.loads(line) for line in f]
    with open(spec["answers"]) as f:
        answers = [json.loads(line) for line in f]
    if len(answers) != len(queries):
        return [f"{len(answers)} answers to {len(queries)} queries"] * len(queries)
    problems = []
    for i, ((n, terms), answer) in enumerate(zip(queries, answers)):
        why = oracle.check_answer(n, terms, answer)
        if why is not None:
            problems.append(f"query {i} (N={n}): {why}")
    return problems


def run_job(run: Run, wl: Workload, work: Path, seed: int, batch: int, trace: bool,
            deadline: float, expected: dict) -> dict | None:
    """Spawn, run and check one job; None when it failed to produce outputs."""
    ops = wl.queries if wl.kind == "term-queries" else 1
    run.attempted += ops
    spec = job_spec(wl, work, seed, batch, trace)
    try:
        result = run_child(run, work, spec, seed, deadline)
    except JobFailed as exc:
        run.fail(ops, str(exc))
        return None
    try:
        if wl.kind == "walk":
            problems = check_walk(wl, result["outputs"], expected)
        elif wl.kind == "cp-sweep":
            problems = check_cp_sweep(wl, result["outputs"], expected)
        else:
            problems = check_queries(spec)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        problems = [f"unreadable {wl.kind} output: {exc!r}"] * ops
    if wl.kind == "term-queries":
        for why in problems:
            run.fail(1, why)
    elif problems:
        run.fail(1, "; ".join(problems))
    return result


# -- metrics --------------------------------------------------------------------


def _quantile(values: list, q: int) -> float:
    """The q-th percentile (exclusive method); the value itself for one sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(run: Run, wl: Workload, work: Path, seed: int, seconds: float,
               deadline: float, expected: dict) -> tuple[dict, dict]:
    """(metrics at the reference speed, the same before scaling)."""
    setups, raw_setups = [], []
    for _ in range(SETUP_PROBES):
        before = speed.sample()
        try:
            setup = run_child(run, work, {"kind": "probe"}, seed, deadline)["setup_s"]
        except JobFailed as exc:
            run.problems.append(f"setup probe: {exc}")
            continue
        raw_setups.append(setup)
        setups.append(setup * speed.factor([before, speed.sample()]))
    walls, raw_walls, rss, p50s, p99s = [], [], [], [], []
    queries = 0
    measured = 0.0
    batch = 0
    while batch == 0 or (measured < seconds and now() < deadline):
        result = run_job(run, wl, work, seed, batch, False, deadline, expected)
        batch += 1
        if result is None:
            break
        measured += result["elapsed_s"]
        raw_walls.append(result["wall_s"])
        walls.append(result["wall_s"] * result["speed"])
        rss.append(result["peak_rss_kib"] / 1024)
        if wl.kind == "term-queries":
            out = result["outputs"]
            latencies = [ns / 1000 * out["block_cpu_speed"][i // out["block"]]
                         for i, ns in enumerate(out["cpu_ns"])]
        else:
            latencies = [walls[-1] * 1e6]
        queries += len(latencies)
        p50s.append(statistics.median(latencies))
        p99s.append(_quantile(latencies, 99))
    if not walls or not setups:
        return {}, {}
    # Latency percentiles are taken per job and their median reported, so a
    # burst of load on the machine moves one job's figures, not the run's.
    per_job = f"{queries} queries in {len(walls)} jobs"
    metrics = {
        "wall_s": (statistics.median(walls), "s", f"{len(walls)} jobs"),
        "setup_s": (statistics.median(setups), "s", f"{len(setups)} interpreters"),
        "peak_rss_mib": (statistics.median(rss), "MiB", f"{len(rss)} jobs"),
        "query_p50_us": (statistics.median(p50s), "us", per_job),
        "query_p99_us": (statistics.median(p99s), "us", per_job),
    }
    raw = {"wall_s": (statistics.median(raw_walls), "s", f"{len(raw_walls)} jobs"),
           "setup_s": (statistics.median(raw_setups), "s", f"{len(raw_setups)} interpreters")}
    return metrics, raw


def per_layer(summary: dict) -> dict:
    spans, counters = summary["spans"], summary["counters"]
    out = {}

    def span(name: str, *fields: str) -> None:
        s = spans[name]
        for f in fields:
            if f == "calls":
                out[f"{name}.calls"] = (s["calls"], "count")
            elif f == "self_s":
                out[f"{name}.self_s"] = (s["self_s"], "s")
            else:
                out[f"{name}.us_per_call"] = (
                    s["self_s"] / s["calls"] * 1e6 if s["calls"] else 0.0, "us")

    def share(name: str, part: float, whole: float) -> None:
        out[name] = (part / whole if whole else 0.0, "ratio")

    span("exactmath.hnf_add", "calls", "self_s", "us_per_call")
    span("exactmath.hnf_contains", "calls", "self_s", "us_per_call")
    share("exactmath.hnf_contains.hit_share",
          counters.get("exactmath.hnf_contains.true", 0), spans["exactmath.hnf_contains"]["calls"])
    span("exactmath.snf", "calls", "self_s", "us_per_call")
    span("exactmath.hnf_rows", "calls", "self_s")

    lattices = counters.get("classifier.lattices", 0)
    edges = counters["classifier.walk.edges"]
    walk_s = spans["classifier.walk"]["total_s"]
    out["classifier.lattices"] = (lattices, "count")
    out["classifier.edges"] = (edges, "count")
    # every lattice but the empty start is first reached by one edge
    share("classifier.dedup_share", edges - max(lattices - 1, 0), edges)
    out["classifier.edges_per_s"] = (edges / walk_s if walk_s else 0.0, "1/s")
    span("classifier.walk", "self_s")
    span("classifier.classify", "self_s")
    span("classifier.symmetry_group_of_terms", "self_s")

    span("groups.group_from_snf", "calls", "self_s")
    span("groups.canonicalize", "calls", "self_s")
    span("torus.element_from_angles", "calls", "self_s")
    span("torus.direction_weights", "calls", "self_s")
    span("monomials.charge_vector", "calls", "self_s")
    span("monomials.build_x_matrix", "calls", "self_s")
    span("monomials.enumerate_monomials", "calls")

    span("cpext.PhaseConstraintSystem.solve", "calls", "self_s")
    share("cpext.PhaseConstraintSystem.solve.unsolvable_share",
          counters.get("cpext.PhaseConstraintSystem.solve.none", 0),
          spans["cpext.PhaseConstraintSystem.solve"]["calls"])
    span("cpext.cp_extensions", "calls", "self_s")
    span("cpext.cp_realizable", "calls", "self_s")
    span("cpext.AbelianBase.invariant_monomials", "calls", "self_s")
    out["cpext.candidates"] = (counters.get("cpext.candidates", 0), "count")
    for kind in ("realizable", "enlarged_unitary", "continuous_degeneration"):
        out[f"cpext.verdict.{kind}"] = (counters.get(f"cpext.verdict.{kind}", 0), "count")

    span("cli.run", "self_s")
    out["trace.spans"] = (summary["span_count"], "count")
    return {k: (v, unit, "1 traced job") for k, (v, unit) in out.items()}


def traced(run: Run, wl: Workload, work: Path, seed: int, deadline: float,
           expected: dict) -> tuple[dict, dict]:
    plain = run_job(run, wl, work, seed, 0, False, deadline, expected)
    spanned = run_job(run, wl, work, seed, 0, True, deadline, expected)
    if plain is None or spanned is None:
        return {}, {}
    metrics = per_layer(spanned["trace"])
    wall, plain_wall = (r["wall_s"] * r["speed"] for r in (spanned, plain))
    metrics["trace.wall_s"] = (wall, "s", "1 traced job")
    metrics["trace.overhead_s"] = (wall - plain_wall, "s", "1 traced, 1 plain job")
    raw = {"trace.wall_s": (spanned["wall_s"], "s", "1 traced job"),
           "trace.overhead_s": (spanned["wall_s"] - plain["wall_s"], "s", "1 traced, 1 plain job")}
    return metrics, raw


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool,
                 expected: dict = EXPECTED) -> tuple[Run, dict, dict]:
    """One run of one workload: (what was attempted and failed, metrics, raw times)."""
    deadline = now() + RUN_LIMIT_S
    run = Run()
    work = BUILD / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            return (run, *traced(run, wl, work, seed, deadline, expected))
        return (run, *end_to_end(run, wl, work, seed, seconds, deadline, expected))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report(name: str, run: Run, metrics: dict, raw: dict) -> None:
    print(f"{name}: {run.attempted} operations attempted, {run.failed} failed, "
          f"{run.children} interpreters started; times at the reference speed")
    for metric, (value, unit, samples) in metrics.items():
        print(f"  {metric:<52} {value:>14.6g} {unit:<6} ({samples})")
    for metric, (value, unit, samples) in raw.items():
        print(f"  unscaled {metric:<43} {value:>14.6g} {unit:<6} ({samples})")
    for why in run.problems[:ERROR_SAMPLE]:
        print(f"  FAILED: {why}")


def result_line(run: Run, metrics: dict) -> str:
    return json.dumps({
        "correct": run.failed == 0 and not run.problems and bool(metrics),
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "nhdm" / "__init__.py").is_file():
        print(f"perfbench: no nhdm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    total, combined = Run(), {}
    for name in names:
        run, metrics, raw = run_workload(WORKLOADS[name], args.seed, args.seconds,
                                         bool(args.trace))
        report(name, run, metrics, raw)
        total.attempted += run.attempted
        total.failed += run.failed
        total.problems += run.problems
        prefix = f"{name}/" if len(names) > 1 else ""
        combined.update({prefix + k: v for k, v in metrics.items()})
    print(result_line(total, combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
