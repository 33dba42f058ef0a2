"""Spans around the public functions of each nhdm layer, installed from outside.

The nhdm modules bind each other's functions at import time (``from .exactmath
import hnf_add``), so a wrapper set only on the defining module would miss most
calls.  ``Tracer.install`` therefore replaces every binding of a target that
any loaded ``nhdm`` module holds, and methods on their class.

A span is (name, parent span, start, end).  Spans are kept in flat arrays in
memory while the job runs and written out once, when it ends.  A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path


def _count_true(counters, result):
    counters["exactmath.hnf_contains.true"] += result is True


def _count_none(counters, result):
    counters["cpext.PhaseConstraintSystem.solve.none"] += result is None


def _count_lattices(counters, result):
    counters["classifier.lattices"] += len(result)


def _count_candidates(counters, result):
    counters["cpext.candidates"] += len(result)


def _count_verdict(counters, result):
    counters["cpext.verdict." + result.kind] += 1


# (span name, defining module, attribute path, observer of the return value)
TARGETS = (
    ("exactmath.hnf_add", "nhdm.exactmath", "hnf_add", None),
    ("exactmath.hnf_contains", "nhdm.exactmath", "hnf_contains", _count_true),
    ("exactmath.snf", "nhdm.exactmath", "snf", None),
    ("exactmath.hnf_rows", "nhdm.exactmath", "hnf_rows", None),
    ("groups.group_from_snf", "nhdm.groups", "group_from_snf", None),
    ("groups.canonicalize", "nhdm.groups", "canonicalize", None),
    ("torus.element_from_angles", "nhdm.torus", "element_from_angles", None),
    ("torus.direction_weights", "nhdm.torus", "direction_weights", None),
    ("monomials.charge_vector", "nhdm.monomials", "charge_vector", None),
    ("monomials.build_x_matrix", "nhdm.monomials", "build_x_matrix", None),
    ("monomials.enumerate_monomials", "nhdm.monomials", "enumerate_monomials", None),
    ("classifier.classify", "nhdm.classifier", "classify", None),
    ("classifier.symmetry_group_of_terms", "nhdm.classifier", "symmetry_group_of_terms", None),
    ("classifier.walk", "nhdm.classifier", "_lattice_scan", _count_lattices),
    ("cpext.PhaseConstraintSystem.solve", "nhdm.cpext", "PhaseConstraintSystem.solve", _count_none),
    ("cpext.cp_extensions", "nhdm.cpext", "cp_extensions", _count_candidates),
    ("cpext.cp_realizable", "nhdm.cpext", "cp_realizable", _count_verdict),
    ("cpext.AbelianBase.invariant_monomials", "nhdm.cpext", "AbelianBase.invariant_monomials", None),
    ("cli.run", "nhdm.cli", "run", None),
)


class Tracer:
    """Records one span per call of each target, in memory."""

    def __init__(self):
        self.names: list[str] = []
        self.counters: Counter = Counter()
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []

    def wrap(self, name: str, fn, observe=None):
        name_id = len(self.names)
        self.names.append(name)
        name_ids, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack, counters, clock = self._stack, self.counters, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(name_ids)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(counters, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Wrap every target at every binding held by a loaded nhdm module."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "nhdm" or n.startswith("nhdm."))]
        for name, module_name, attr, observe in TARGETS:
            owner = sys.modules[module_name]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            traced = self.wrap(name, original, observe)
            if path:
                setattr(owner, leaf, traced)
                continue
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, binding, traced)

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds; plus the counters.

        ``classifier.walk.edges`` counts the ``hnf_add`` calls made directly
        by the lattice walk.
        """
        n = len(self.span_name)
        child = [0.0] * n
        name_ids, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        self_s = [0.0] * len(self.names)
        walk_id = self.names.index("classifier.walk") if "classifier.walk" in self.names else -1
        add_id = self.names.index("exactmath.hnf_add") if "exactmath.hnf_add" in self.names else -1
        edges = 0
        for i in range(n):
            k = name_ids[i]
            d = ends[i] - starts[i]
            calls[k] += 1
            total[k] += d
            self_s[k] += d - child[i]
            if k == add_id and parents[i] >= 0 and name_ids[parents[i]] == walk_id:
                edges += 1
        spans = {name: {"calls": calls[k], "total_s": total[k], "self_s": self_s[k]}
                 for k, name in enumerate(self.names)}
        counters = dict(self.counters)
        counters["classifier.walk.edges"] = edges
        return {"spans": spans, "counters": counters, "span_count": n}

    def write(self, stem: Path) -> None:
        """Write the spans as ``<stem>.json`` (names, layout) and ``<stem>.bin``."""
        arrays = (self.span_name, self.span_parent, self.span_start, self.span_end)
        with open(stem.with_suffix(".bin"), "wb") as f:
            for a in arrays:
                a.tofile(f)
        layout = {"names": self.names, "count": len(self.span_name),
                  "arrays": [["name", "i"], ["parent", "q"], ["start", "d"], ["end", "d"]],
                  "byteorder": sys.byteorder}
        stem.with_suffix(".json").write_text(json.dumps(layout))
