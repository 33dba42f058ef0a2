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
from .classifier import (BOUND_DOUBLETS, WALK_DOUBLETS, backbone_terms, check_doublets, classify,
                         probe_conjecture, verify_order_bound, witness_potential)
from .constructions import cyclic_c_matrix, product_c_matrix
from .cpext import (CP_DOUBLETS, backbone_classes, check_z3z3, classify_cp, cp_bases, cp_extensions,
                    cp_realizable)
from .exactmath import IntMatrix, snf
from .groups import MAX_CYCLIC_ORDER, GroupSignature, canonicalize, group_from_snf
from .monomials import c_row, row_type, term_table

FORMAT_VERSION = "1"
MAX_SNF_DIGITS = 10_000  # all entries of a `snf` matrix; 16x16 of 451 digits takes seconds


def _emit(args, payload: dict, text: str) -> None:
    """Print ``text``, or with ``--format json`` the report of the command in ``args``."""
    if args.format == "json":
        report = {"command": args.subcommand, "format_version": FORMAT_VERSION, "payload": payload}
        if hasattr(args, "doublets"):
            report["n_doublets"] = args.doublets
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(text)


def _witness(monomials) -> dict:
    """The ``witness`` and ``witness_text`` keys of a report."""
    return {"witness": [m.to_json() for m in monomials],
            "witness_text": [str(m) for m in monomials]}


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
            digits = part[1:].lstrip("0") or "0"
            if len(digits) > len(str(MAX_CYCLIC_ORDER)):
                raise ValueError(f"cyclic factor of {len(digits)} digits exceeds the supported "
                                 f"order {MAX_CYCLIC_ORDER}")
            finite.append(int(digits))
        else:
            raise ValueError(f"cannot parse group name {name!r}")
    return canonicalize(finite, torus_rank=rank)


def _check_digits(what: str, texts: list[str]) -> None:
    """Refuse integer texts with more digits than Python converts, naming ``what`` and the limit."""
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0, no limit, before Python 3.10.7
    if limit and any(sum(map(str.isdigit, t)) > limit for t in texts):
        raise ValueError(f"{what} too long (limit {limit} decimal digits each)")


def _int_list(option: str, text: str) -> list[int]:
    """Parse the comma-separated integers of ``option``, naming it on failure."""
    _check_digits(f"{option} entries", text.split(","))
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise ValueError(f"{option} must be comma-separated integers, got {text!r}") from None


def _cmd_classify(args) -> None:
    result = classify(args.doublets)
    entries = [e for e in result.entries if e.signature.is_finite or not args.finite_only]
    rows = []
    for e in entries:
        rows.append({
            "group": e.signature.name(),
            "order": None if not e.signature.is_finite else int(e.signature.order()),
            **_witness(e.witness),
            "generators": [[str(p) for p in g.phases] for g in e.generators],
            "n_lattices": e.n_lattices,
        })
    payload = {"groups": rows, "max_finite_order": result.max_finite_order}
    lines = [f"realizable torus subgroups for N={args.doublets}"
             + (" (finite only)" if args.finite_only else "")]
    for e in entries:
        order = e.signature.order()
        order_text = "inf" if order == float("inf") else str(int(order))
        witness = " ".join(str(m) for m in e.witness) or "(torus-symmetric backbone only)"
        lines.append(f"  {e.signature.name():<14} order {order_text:<4} witness: {witness}")
    lines.append(f"max finite order: {result.max_finite_order}")
    _emit(args, payload, "\n".join(lines))


def _cmd_snf(args) -> None:
    _check_digits("matrix entries", args.matrix.replace(";", ",").split(","))
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
        _emit(args, payload, text)
    except ValueError as exc:  # an int past Python's limit on digits in str()
        raise ValueError("Smith form too long to print: its transform entries or invariant "
                         "factors have more digits than Python converts to text") from exc


def _cmd_charges(args) -> None:
    table = term_table(args.doublets)
    rows = []
    lines = [f"{len(table.monomials)} monomials for N={args.doublets}"]
    for m, chg in zip(table.monomials, table.charges):
        crow = c_row(m, args.doublets)
        t = row_type(crow)
        rows.append({"monomial": m.to_json(), "text": str(m), "charge": list(chg),
                     "c_row": list(crow), "row_type": t})
        lines.append(f"  {m.render(args.pretty):<24} charge {str(chg):<18} "
                     f"c-row {str(crow):<18} type {t}")
    _emit(args, {"monomials": rows}, "\n".join(lines))


def _cmd_construct(args) -> None:
    built = args.build(args)
    payload = {
        "matrix": [list(r) for r in built.matrix.entries],
        "row_types": list(built.row_types),
        "snf_diagonal": list(built.snf_diagonal),
        "group": built.group.name(),
        **_witness(built.witness),
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
    _emit(args, payload, "\n".join(lines))


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
        _emit(args, payload, "\n".join(lines))
        return
    target = _parse_group_name(args.group)
    bases = [b for b in cp_bases(args.doublets) if b.group.signature == target]
    if not bases:
        raise ValueError(f"group {args.group} is not a realizable torus subgroup here")
    candidates = [cand for base in bases for cand in cp_extensions(base)]
    terms = term_table(args.doublets).monomials
    cases = []
    lines = [f"antiunitary extensions of {target.name()} for N={args.doublets}"]
    for cand in candidates:
        verdict = cp_realizable(cand)
        cases.append({
            "extension": cand.signature.name(),
            "sigma": [p + 1 for p in cand.sigma],
            "square": [str(p) for p in cand.square.phases],
            "constraints": cand.system.render(),
            "surviving": [str(terms[t]) for t in cand.surviving],
            "killed": [str(terms[t]) for t in cand.killed],
            "backbone_equalities": backbone_classes(cand.sigma).equalities(),
            **verdict.to_json(),
        })
        lines.append(f"  candidate {cand.signature.name():<10} sigma "
                     f"{[p + 1 for p in cand.sigma]} -> {verdict.kind}")
        lines.append(f"    {verdict.detail}")
    if not candidates:
        lines.append("  (no antiunitary candidates)")
    cases.sort(key=lambda c: (c["extension"], c["sigma"]))
    _emit(args, {"group": target.name(), "cases": cases}, "\n".join(lines))


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
    _emit(args, rep.to_json(), text)


def _cmd_verify_bound(args) -> None:
    rep = verify_order_bound(args.doublets)
    payload = {"max_order": rep.max_order, "bound": rep.bound, "bound_met": rep.bound_met}
    text = (f"N={args.doublets}: max finite order {rep.max_order}, "
            f"bound {rep.bound}, attained and not exceeded: {rep.bound_met}")
    _emit(args, payload, text)


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
    _emit(args, payload, "\n".join(lines))


def _cmd_witness(args) -> None:
    target = _parse_group_name(args.group)
    rep = witness_potential(target, args.doublets)
    payload = {
        "group": target.name(),
        "realizable": rep.realizable,
        **_witness(rep.witness),
        "generators": [[str(p) for p in g.phases] for g in rep.generators],
        "backbone": backbone_terms(args.doublets),
    }
    _emit(args, payload, rep.render(args.pretty))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nhdm",
        description="Classify abelian symmetry groups of N-Higgs-doublet potentials "
                    "in exact arithmetic.")
    parser.add_argument("--version", action="version", version=f"nhdm {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name, func, help, doublets=None, parent=sub, **options):
        """Add ``name``: ``--doublets`` over the pair ``doublets`` where given,
        then ``options`` by keyword (``finite_only`` is ``--finite-only``), then
        ``--format``.  A pair of one count makes that count the default."""
        p = parent.add_parser(name, help=help)
        if doublets:
            p.add_argument("--doublets", type=int, required=doublets[0] < doublets[1],
                           default=doublets[0])
            p.set_defaults(supported=doublets)
        for key, keywords in options.items():
            p.add_argument("--" + key.replace("_", "-"), **keywords)
        p.add_argument("--format", choices=["text", "json"], default="text")
        p.set_defaults(func=func)
        return p

    flag = {"action": "store_true"}
    command("classify", _cmd_classify, "list realizable torus subgroups", WALK_DOUBLETS,
            finite_only=flag)
    command("snf", _cmd_snf, "Smith normal form of an integer matrix", matrix={
        "required": True, "help": "rows separated by ';', entries by ','; "
        "a leading minus sign needs the form --matrix='-1,2;3,4'"})
    command("charges", _cmd_charges, "monomials, charges, c-rows and row types", WALK_DOUBLETS,
            pretty={**flag, "help": "unicode field symbols"})
    kind = sub.add_parser("construct", help="build c-matrices realizing prescribed groups"
                          ).add_subparsers(dest="kind", required=True)
    number = {"type": int, "required": True}
    command("cyclic", _cmd_construct, "cyclic group of any order up to 2^n", parent=kind,
            p=number, n=number).set_defaults(build=lambda a: cyclic_c_matrix(a.p, a.n))
    command("product", _cmd_construct, "block product over a partition", parent=kind,
            partition={"required": True, "help": "comma-separated block sizes"},
            orders={"required": True, "help": "comma-separated cyclic orders"}
            ).set_defaults(build=lambda a: product_c_matrix(_int_list("--partition", a.partition),
                                                            _int_list("--orders", a.orders)))
    command("cp-extend", _cmd_cp_extend, "antiunitary extensions and their verdicts", CP_DOUBLETS,
            group={"help": "base group name, e.g. Z4; omit for the full list"})
    command("check-z3z3", _cmd_check_z3z3, "explicit Z3 x Z3 non-realizability check"
            ).set_defaults(doublets=3)
    command("verify-bound", _cmd_verify_bound, "check the 2^(N-1) order bound", BOUND_DOUBLETS)
    command("probe-conjecture", _cmd_probe_conjecture,
            "realization status of all small abelian groups", BOUND_DOUBLETS)
    command("witness", _cmd_witness, "witness potential for a realizable group", WALK_DOUBLETS,
            group={"required": True}, pretty=flag)
    return parser


def run(argv: list[str]) -> int:
    """Entry point returning an exit code: 0 on success, 2 on usage errors."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if hasattr(args, "supported"):
            check_doublets(args.doublets, args.supported)
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
