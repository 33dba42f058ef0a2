"""Command-line interface: classification reports in text or JSON.

Identical invocations produce byte-identical output; every listing is sorted
before rendering.  JSON reports follow the schema shipped in
``nhdm/schema/report.schema.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .classifier import (
    backbone_terms,
    classify,
    probe_conjecture,
    verify_order_bound,
    witness_potential,
)
from .constructions import cyclic_c_matrix, product_c_matrix
from .cpext import cp_bases, cp_extensions, cp_realizable, check_z3z3, classify_cp
from .exactmath import IntMatrix, snf
from .groups import GroupSignature, canonicalize, group_from_snf
from .monomials import c_decompose, monomial_charges

FORMAT_VERSION = "1"
MAX_SNF_DIGITS = 10_000  # all entries of a `snf` matrix; 16x16 of 451 digits takes seconds


def _report(command: str, payload: dict, n_doublets: int | None = None) -> dict:
    report = {"command": command, "format_version": FORMAT_VERSION}
    if n_doublets is not None:
        report["n_doublets"] = n_doublets
    report["payload"] = payload
    return report


def _emit(report: dict, text: str, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(text)


def _parse_group_name(name: str) -> GroupSignature:
    """Parse names like Z4, Z2xZ2, U(1)xZ2, trivial."""
    if name == "trivial":
        return GroupSignature()
    finite = []
    rank = 0
    for part in name.split("x"):
        part = part.strip()
        if part == "U(1)":
            rank += 1
        elif part.startswith("Z") and part[1:].isascii() and part[1:].isdigit():
            finite.append(int(part[1:]))
        else:
            raise ValueError(f"cannot parse group name {name!r}")
    return canonicalize(finite, torus_rank=rank)


def _cmd_classify(args) -> None:
    result = classify(args.doublets, include_continuous=not args.finite_only)
    rows = []
    for e in result.entries:
        rows.append({
            "group": e.signature.name(),
            "order": None if not e.signature.is_finite else int(e.signature.order()),
            "witness": [m.to_json() for m in e.witness],
            "witness_text": [str(m) for m in e.witness],
            "generators": [[str(p) for p in g.phases] for g in e.generators],
            "n_lattices": e.n_lattices,
        })
    payload = {"groups": rows, "max_finite_order": result.max_finite_order}
    lines = [f"realizable torus subgroups for N={args.doublets}"
             + (" (finite only)" if args.finite_only else "")]
    for e in result.entries:
        order = e.signature.order()
        order_text = "inf" if order == float("inf") else str(int(order))
        witness = " ".join(str(m) for m in e.witness) or "(torus-symmetric backbone only)"
        lines.append(f"  {e.signature.name():<14} order {order_text:<4} witness: {witness}")
    lines.append(f"max finite order: {result.max_finite_order}")
    _emit(_report("classify", payload, args.doublets), "\n".join(lines), args.format)


def _cmd_snf(args) -> None:
    m = IntMatrix.from_text(args.matrix)
    if m.rows > 16 or m.cols > 16:
        raise ValueError("matrix too large (limit 16x16)")
    if sum(len(str(abs(x))) for row in m.entries for x in row) > MAX_SNF_DIGITS:
        raise ValueError(f"matrix entries too long (limit {MAX_SNF_DIGITS} decimal digits "
                         "in all)")
    res = snf(m)
    sig = group_from_snf(res.d, m.cols)
    try:
        payload = {
            "matrix": [list(r) for r in m.entries],
            "d": list(res.d),
            "u": [list(r) for r in res.u.entries],
            "v": [list(r) for r in res.v.entries],
            "group": sig.name(),
        }
        text = "\n".join([
            f"input: {m.to_text()}",
            f"d: {res.d}",
            f"u: {res.u.to_text()}",
            f"v: {res.v.to_text()}",
            f"group (as a charge matrix): {sig.name()}",
        ])
        _emit(_report("snf", payload), text, args.format)
    except ValueError as exc:  # an int past Python's limit on digits in str()
        raise ValueError("Smith form too long to print: its transform entries or invariant "
                         "factors have more digits than Python converts to text") from exc


def _cmd_charges(args) -> None:
    charges = monomial_charges(args.doublets)
    c, types = c_decompose(IntMatrix.from_rows(charges.values()), args.doublets)
    rows = []
    lines = [f"{len(charges)} monomials for N={args.doublets}"]
    for (m, chg), crow, t in zip(charges.items(), c.entries, types):
        rows.append({"monomial": m.to_json(), "text": str(m), "charge": list(chg),
                     "c_row": list(crow), "row_type": t})
        lines.append(f"  {m.render(args.pretty):<24} charge {str(chg):<18} "
                     f"c-row {str(crow):<18} type {t}")
    _emit(_report("charges", {"monomials": rows}, args.doublets), "\n".join(lines), args.format)


def _cmd_construct(args) -> None:
    if args.kind == "cyclic":
        built = cyclic_c_matrix(args.p, args.n)
    else:
        partition = [int(x) for x in args.partition.split(",")]
        orders = [int(x) for x in args.orders.split(",")]
        built = product_c_matrix(partition, orders)
    payload = {
        "matrix": [list(r) for r in built.matrix.entries],
        "row_types": list(built.row_types),
        "snf_diagonal": list(built.snf_diagonal),
        "group": built.group.name(),
        "witness": [m.to_json() for m in built.witness],
        "witness_text": [str(m) for m in built.witness],
        "boundary_orders": list(built.boundary_orders),
    }
    lines = [f"matrix: {built.matrix.to_text()}",
             f"row types: {built.row_types}",
             f"snf diagonal: {built.snf_diagonal}",
             f"group: {built.group.name()}",
             "witness terms: " + " ".join(str(m) for m in built.witness)]
    if built.boundary_orders:
        lines.append(f"note: block orders {built.boundary_orders} sit at the 2^n "
                     "boundary (supported; the strict product statement excludes them)")
    _emit(_report("construct", payload), "\n".join(lines), args.format)


def _cmd_cp_extend(args) -> None:
    if args.group is None:
        res = classify_cp(args.doublets)
        payload = {
            "realizable": [s.name() for s in res.realizable],
            "rejected": [{"group": s.name(), **v.to_json()} for s, v in res.rejected],
        }
        lines = [f"realizable antiunitary-containing abelian groups for N={args.doublets}:"]
        lines += [f"  {s.name()}" for s in res.realizable]
        lines.append("rejected candidates:")
        for s, v in res.rejected:
            lines.append(f"  {s.name():<10} {v.kind}: {v.detail}")
        _emit(_report("cp-extend", payload, args.doublets), "\n".join(lines), args.format)
        return
    target = _parse_group_name(args.group)
    bases = [b for b in cp_bases(args.doublets) if b.signature == target]
    if not bases:
        raise ValueError(f"group {args.group} is not a realizable torus subgroup here")
    candidates = [cand for base in bases for cand in cp_extensions(base)]
    cases = []
    lines = [f"antiunitary extensions of {target.name()} for N={args.doublets}"]
    for cand in candidates:
        verdict = cp_realizable(cand)
        cases.append({
            "extension": cand.signature.name(),
            "sigma": [p + 1 for p in cand.sigma],
            "square": [str(p) for p in cand.square.phases],
            "constraints": cand.system.render(),
            "surviving": [str(m) for m in cand.surviving],
            "killed": [str(m) for m in cand.killed],
            "backbone_equalities": cand.backbone.equalities(),
            **verdict.to_json(),
        })
        lines.append(f"  candidate {cand.signature.name():<10} sigma "
                     f"{[p + 1 for p in cand.sigma]} -> {verdict.kind}")
        lines.append(f"    {verdict.detail}")
    cases.sort(key=lambda c: (c["extension"], c["sigma"]))
    _emit(_report("cp-extend", {"group": target.name(), "cases": cases}, args.doublets),
          "\n".join(lines), args.format)


def _cmd_check_z3z3(args) -> None:
    rep = check_z3z3()
    text = "\n".join([
        f"phase generator a: {rep.phase_generator}",
        f"cyclic generator b: {rep.cyclic_generator}",
        f"invariant under a, b: {rep.invariant_under_generators}",
        f"invariant under swap 1<->2: {rep.invariant_under_swap}",
        f"swap commutes with a: {rep.swap_commutes}",
        f"verdict: {rep.verdict}",
    ])
    _emit(_report("check-z3z3", rep.to_json(), 3), text, args.format)


def _cmd_verify_bound(args) -> None:
    rep = verify_order_bound(args.doublets)
    payload = {"max_order": rep.max_order, "bound": rep.bound, "bound_met": rep.bound_met}
    text = (f"N={args.doublets}: max finite order {rep.max_order}, "
            f"bound {rep.bound}, attained and not exceeded: {rep.bound_met}")
    _emit(_report("verify-bound", payload, args.doublets), text, args.format)


def _cmd_probe_conjecture(args) -> None:
    rep = probe_conjecture(args.doublets)
    payload = {
        "bound": rep.bound,
        "realized": [s.name() for s in rep.realized],
        "missing": [s.name() for s in rep.missing],
    }
    lines = [f"abelian groups of order <= {rep.bound} at N={args.doublets} "
             "(informational; general realizability is an open question):"]
    for s in rep.realized:
        lines.append(f"  {s.name():<14} found")
    for s in rep.missing:
        lines.append(f"  {s.name():<14} not found")
    _emit(_report("probe-conjecture", payload, args.doublets), "\n".join(lines), args.format)


def _cmd_witness(args) -> None:
    target = _parse_group_name(args.group)
    rep = witness_potential(target, args.doublets)
    payload = {
        "group": target.name(),
        "realizable": rep.realizable,
        "witness": [m.to_json() for m in rep.witness],
        "witness_text": [str(m) for m in rep.witness],
        "generators": [[str(p) for p in g.phases] for g in rep.generators],
        "backbone": backbone_terms(args.doublets),
    }
    _emit(_report("witness", payload, args.doublets), rep.render(args.pretty), args.format)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nhdm",
        description="Classify abelian symmetry groups of N-Higgs-doublet potentials "
                    "in exact arithmetic.")
    parser.add_argument("--version", action="version", version=f"nhdm {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_format(p):
        p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("classify", help="list realizable torus subgroups")
    p.add_argument("--doublets", type=int, required=True)
    p.add_argument("--finite-only", action="store_true")
    add_format(p)
    p.set_defaults(func=_cmd_classify, min_doublets=2, max_doublets=6)

    p = sub.add_parser("snf", help="Smith normal form of an integer matrix")
    p.add_argument("--matrix", required=True, help="rows separated by ';', entries by ','; "
                   "a leading minus sign needs the form --matrix='-1,2;3,4'")
    add_format(p)
    p.set_defaults(func=_cmd_snf)

    p = sub.add_parser("charges", help="monomials, charges, c-rows and row types")
    p.add_argument("--doublets", type=int, required=True)
    p.add_argument("--pretty", action="store_true", help="unicode field symbols")
    add_format(p)
    p.set_defaults(func=_cmd_charges, min_doublets=2, max_doublets=6)

    p = sub.add_parser("construct", help="build c-matrices realizing prescribed groups")
    kind = p.add_subparsers(dest="kind", required=True)
    pc = kind.add_parser("cyclic", help="cyclic group of any order up to 2^n")
    pc.add_argument("--p", type=int, required=True)
    pc.add_argument("--n", type=int, required=True)
    add_format(pc)
    pc.set_defaults(func=_cmd_construct, kind="cyclic")
    pp = kind.add_parser("product", help="block product over a partition")
    pp.add_argument("--partition", required=True, help="comma-separated block sizes")
    pp.add_argument("--orders", required=True, help="comma-separated cyclic orders")
    add_format(pp)
    pp.set_defaults(func=_cmd_construct, kind="product")

    p = sub.add_parser("cp-extend", help="antiunitary extensions and their verdicts")
    p.add_argument("--doublets", type=int, default=3)
    p.add_argument("--group", help="base group name, e.g. Z4; omit for the full list")
    add_format(p)
    p.set_defaults(func=_cmd_cp_extend, min_doublets=3, max_doublets=3)

    p = sub.add_parser("check-z3z3", help="explicit Z3 x Z3 non-realizability check")
    add_format(p)
    p.set_defaults(func=_cmd_check_z3z3)

    p = sub.add_parser("verify-bound", help="check the 2^(N-1) order bound")
    p.add_argument("--doublets", type=int, required=True)
    add_format(p)
    p.set_defaults(func=_cmd_verify_bound, min_doublets=2, max_doublets=5)

    p = sub.add_parser("probe-conjecture", help="realization status of all small abelian groups")
    p.add_argument("--doublets", type=int, required=True)
    add_format(p)
    p.set_defaults(func=_cmd_probe_conjecture, min_doublets=2, max_doublets=5)

    p = sub.add_parser("witness", help="witness potential for a realizable group")
    p.add_argument("--doublets", type=int, required=True)
    p.add_argument("--group", required=True)
    p.add_argument("--pretty", action="store_true")
    add_format(p)
    p.set_defaults(func=_cmd_witness, min_doublets=2, max_doublets=6)

    return parser


def run(argv: list[str]) -> int:
    """Entry point returning an exit code: 0 on success, 2 on usage errors."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    doublets = getattr(args, "doublets", None)
    if doublets is not None and hasattr(args, "min_doublets"):
        if not args.min_doublets <= doublets <= args.max_doublets:
            print(f"nhdm: doublet count out of supported range "
                  f"({args.min_doublets}..{args.max_doublets})", file=sys.stderr)
            return 2
    try:
        args.func(args)
    except ValueError as exc:
        print(f"nhdm: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    """Run the CLI and exit with its code, or with 1 if the reader closed stdout early."""
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # as in `nhdm ... | head`: point stdout at devnull so the flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
