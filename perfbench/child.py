"""One benchmark job in a fresh interpreter: ``python child.py <spec.json>``.

The walk and the phase solver cache their results per process, and a user
pays the cold computation on every CLI call, so every job gets a new
interpreter.  The spec names the job and where to write the result; the
result carries the moment ``import nhdm`` finished (CLOCK_MONOTONIC, which
the parent shares), the job's raw wall time with the speed factor that
scales it to the reference speed (see speed.py), the peak RSS and the raw
outputs.
"""

import sys
import time

import nhdm

IMPORTED = time.clock_gettime(time.CLOCK_MONOTONIC)

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

import nhdm.cli  # noqa: E402  (loaded before tracing so its bindings get wrapped)
import speed  # noqa: E402


def walk(spec):
    """One ``nhdm classify --doublets N --format json`` through the CLI."""
    argv = ["classify", "--doublets", str(spec["n"]), "--format", "json"]
    out = io.StringIO()
    with speed.Sampler() as sampler, contextlib.redirect_stdout(out):
        t0 = time.perf_counter()
        code = nhdm.cli.run(argv)
        wall = time.perf_counter() - t0
    outputs = {"exit_code": code, "stdout": out.getvalue()}
    return wall - sampler.spent_s, sampler.factor(), outputs


def cp_sweep(spec):
    """Every antiunitary candidate of every base at N doublets, with its verdict."""
    cases = []
    with speed.Sampler() as sampler:
        t0 = time.perf_counter()
        for base in nhdm.cpext.cp_bases(spec["n"]):
            for cand in nhdm.cpext.cp_extensions(base):
                cases.append((base, cand, nhdm.cpext.cp_realizable(cand)))
        wall = time.perf_counter() - t0
    rows = [[[list(r) for r in base.lattice], list(cand.sigma), cand.signature.name(), v.kind]
            for base, cand, v in cases]
    return wall - sampler.spent_s, sampler.factor(), {"cases": rows}


QUERY_BLOCK = 100  # queries between two speed samples


def term_queries(spec):
    """A closed loop of ``symmetry_group_of_terms`` calls, one client.

    Queries are read and answers written one at a time, so the peak RSS is
    the program's, not the batch's.  Each call is timed twice: wall time,
    whose sum is the job's wall time, and process CPU time, which gives the
    latency percentiles; CPU time leaves out the moments the virtual machine
    is preempted, which otherwise decide the tail.  The speed kernel runs
    between blocks of QUERY_BLOCK queries, never inside a timed call, and is
    timed on both clocks; ``block_speed[b]`` and ``block_cpu_speed[b]`` scale
    block b.
    """
    bases = {}
    wall_ns, cpu_ns = [], []
    samples = [speed.sample_pair()]
    clock, cpu_clock = time.perf_counter_ns, time.process_time_ns
    with open(spec["input"]) as queries, open(spec["answers"], "w") as answers:
        for i, line in enumerate(queries, 1):
            n, terms = json.loads(line)
            if n not in bases:
                bases[n] = nhdm.torus_basis(n)
            monomials = [nhdm.Monomial.canonical(f) for f in terms]
            t = clock()
            c = cpu_clock()
            g = nhdm.symmetry_group_of_terms(monomials, bases[n])
            cpu_ns.append(cpu_clock() - c)
            wall_ns.append(clock() - t)
            answers.write(json.dumps([list(g.signature.finite), g.signature.torus_rank,
                                      [[str(p) for p in pv.phases] for pv in g.finite_generators],
                                      [list(d) for d in g.torus_directions]]) + "\n")
            if i % QUERY_BLOCK == 0:
                samples.append(speed.sample_pair())
    if len(wall_ns) % QUERY_BLOCK:
        samples.append(speed.sample_pair())
    block_speed, block_cpu_speed = (
        [speed.factor([s[k] for s in samples[b:b + 2]]) for b in range(len(samples) - 1)]
        for k in (0, 1))
    wall = sum(wall_ns) / 1e9
    scaled = sum(ns * block_speed[i // QUERY_BLOCK] for i, ns in enumerate(wall_ns)) / 1e9
    return wall, scaled / wall, {"cpu_ns": cpu_ns, "block": QUERY_BLOCK,
                                 "block_cpu_speed": block_cpu_speed}


JOBS = {"walk": walk, "cp-sweep": cp_sweep, "term-queries": term_queries}


def main(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text())
    result = {"imported": IMPORTED}
    if spec["kind"] != "probe":
        tracer = None
        if spec["trace"]:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        wall, factor, outputs = JOBS[spec["kind"]](spec)
        result.update(wall_s=wall, speed=factor, outputs=outputs,
                      peak_rss_kib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        if tracer is not None:
            result["trace"] = tracer.summary()
            tracer.write(Path(spec["spans"]))
    Path(spec["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
