"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  All comparisons are exact (integer or rational arithmetic); the only
tolerances are the stated wall-clock limits.
"""

import contextlib
import io
import json
import random
import time
from fractions import Fraction as F
from math import prod

from nhdm.classifier import (
    classify,
    symmetry_group_of_terms,
    verify_order_bound,
)
from nhdm.constructions import cyclic_c_matrix, product_c_matrix
from nhdm.cpext import check_z3z3, classify_cp, commutes_with_diagonal
from nhdm.exactmath import IntMatrix, snf
from nhdm.groups import GroupSignature, canonicalize
from nhdm.monomials import (
    Monomial,
    build_x_matrix,
    c_decompose,
    charge_vector,
    enumerate_monomials,
)
from nhdm.torus import torus_basis
from reference import finite_groups_by_subset_scan


def report(number, message):
    print(f"ACCEPTANCE {number:>2} PASS: {message}")


def names(sigs):
    return sorted(s.name() for s in sigs)


def cli_json(argv):
    from nhdm.cli import run

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv + ["--format", "json"])
    assert code == 0
    return json.loads(out.getvalue())


def test_criterion_01_three_doublet_torus_list():
    start = time.monotonic()
    payload = cli_json(["classify", "--doublets", "3"])["payload"]
    elapsed = time.monotonic() - start
    expected = ["U(1)", "U(1)xU(1)", "U(1)xZ2", "Z2", "Z2xZ2", "Z3", "Z4"]
    assert sorted(g["group"] for g in payload["groups"]) == expected
    assert names(classify(3).signatures()) == expected
    assert elapsed < 1.0, f"classification took {elapsed:.2f}s"
    report(1, f"3HDM torus list is exactly {{{', '.join(expected)}}} in {elapsed:.2f}s")


def test_criterion_02_four_doublet_finite_list():
    start = time.monotonic()
    payload = cli_json(["classify", "--doublets", "4", "--finite-only"])["payload"]
    elapsed = time.monotonic() - start
    expected = names([GroupSignature((k,)) for k in range(2, 9)]
                     + [GroupSignature((2, 2)), GroupSignature((2, 4)),
                        GroupSignature((2, 2, 2))])
    assert sorted(g["group"] for g in payload["groups"]) == expected
    assert len(payload["groups"]) == 10
    assert elapsed < 10.0, f"classification took {elapsed:.2f}s"
    report(2, f"4HDM finite list is the 10 abelian groups of order <= 8 in {elapsed:.2f}s")


def test_criterion_03_monomial_counts():
    assert len(enumerate_monomials(3)) == 12
    assert len(enumerate_monomials(4)) == 42
    report(3, "monomial counts are 12 (N=3) and 42 (N=4)")


def test_criterion_04_worked_z3_example():
    basis = torus_basis(3)
    terms = [Monomial(((1, 2), (1, 3))), Monomial(((2, 1), (2, 3)))]
    x = build_x_matrix(terms, basis)
    assert x.entries == ((3, 2), (-3, -1))
    group = symmetry_group_of_terms(terms, basis)
    assert group.signature == GroupSignature((3,))
    assert group.finite_generator_angles == ((F(1, 3), F(0)),)
    assert group.finite_generators[0].phases == (F(2, 3), F(1, 3), F(0))
    report(4, "X = [[3,2],[-3,-1]] solves to Z3 with angles (2pi/3, 0)")


def test_criterion_05_z7_witness():
    basis = torus_basis(4)
    terms = [Monomial(((1, 3), (1, 4))), Monomial(((2, 1), (2, 4))),
             Monomial(((3, 2), (3, 4)))]
    group = symmetry_group_of_terms(terms, basis)
    assert group.signature == GroupSignature((7,))
    gen = group.finite_generators[0]
    assert (7 * gen).is_identity_mod_center()
    assert all(not (k * gen).is_identity_mod_center() for k in range(1, 7))
    report(5, "the three 4HDM terms give Z7 with a generator whose 7th power is central")


def test_criterion_06_order_bound():
    start = time.monotonic()
    maxima = {}
    for n in (2, 3, 4, 5):
        rep = verify_order_bound(n)
        assert rep.bound == 2 ** (n - 1)
        assert rep.max_order == rep.bound, f"N={n}: {rep.max_order} != {rep.bound}"
        assert rep.bound_met
        maxima[n] = rep.max_order
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"scan took {elapsed:.1f}s"
    report(6, f"max orders {maxima} equal 2^(N-1), attained, never exceeded "
              f"({elapsed:.0f}s total)")


def test_criterion_07_construction_propositions():
    start = time.monotonic()
    for n in range(1, 9):
        for p in range(1, 2 ** n + 1):
            built = cyclic_c_matrix(p, n)
            expected = GroupSignature(() if p == 1 else (p,))
            assert built.group == expected, (n, p)
            assert all(t in range(1, 10) for t in built.row_types)
    nine = cyclic_c_matrix(9, 5)
    assert nine.matrix.column(0) == (1, 0, -1, -1, -1)
    assert nine.group == GroupSignature((9,))
    for partition, orders in [([1, 2], [2, 3]), ([1, 1], [2, 2]), ([2, 2], [3, 4]),
                              ([1, 3], [2, 8]), ([2, 2], [4, 4]), ([1, 1, 2], [2, 2, 3])]:
        built = product_c_matrix(partition, orders)
        assert built.group == canonicalize(orders)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"constructions took {elapsed:.1f}s"
    report(7, f"all cyclic orders p <= 2^n realize exactly Zp for n <= 8, block "
              f"products canonicalize ({elapsed:.1f}s)")


def test_criterion_08_antiunitary_list():
    payload = cli_json(["cp-extend", "--doublets", "3"])["payload"]
    assert sorted(payload["realizable"]) == ["Z2*", "Z2xZ2*", "Z2xZ2xZ2*", "Z4*"]
    res = classify_cp(3)
    assert [s.name() for s in res.realizable] == ["Z2*", "Z4*", "Z2xZ2*", "Z2xZ2xZ2*"]
    rejected = {s.name(): v for s, v in res.rejected}
    assert set(rejected) == {"Z6*", "Z8*", "Z4xZ2*", "U(1)xZ2*"}
    assert rejected["Z6*"].kind == "enlarged_unitary" and rejected["Z6*"].witness
    assert rejected["Z4xZ2*"].kind == "enlarged_unitary" and rejected["Z4xZ2*"].witness
    assert rejected["U(1)xZ2*"].kind == "enlarged_unitary" and rejected["U(1)xZ2*"].witness
    assert rejected["Z8*"].kind == "continuous_degeneration"
    report(8, "starred list is {Z2*, Z2xZ2*, Z2xZ2xZ2*, Z4*}; Z6*, Z8*, Z4xZ2*, "
              "U(1)xZ2* rejected with the expected failure modes")


def test_criterion_09_z3z3():
    rep = check_z3z3()
    assert rep.verdict == "not_realizable"
    assert rep.invariant_under_generators
    assert rep.invariant_under_swap
    assert not rep.swap_commutes
    assert not commutes_with_diagonal(rep.swap, rep.phase_generator)
    report(9, "Z3 x Z3 potential is swap-invariant and the swap fails to commute: "
              "not realizable")


def test_criterion_10a_snf_property_suite():
    rng = random.Random(1234)
    for _ in range(10_000):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = IntMatrix.from_rows(
            [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)])
        res = snf(m)
        assert (res.u @ m @ res.v).entries == res.diagonal_matrix().entries
        nonzero = [x for x in res.d if x]
        assert all(x >= 0 for x in res.d)
        assert all(nonzero[i + 1] % nonzero[i] == 0 for i in range(len(nonzero) - 1))
        if m.is_square:
            from nhdm.exactmath import det

            assert abs(det(m)) == prod(res.d)
    report("10a", "SNF identities hold on 10000 random matrices (dims <= 6, "
                  "entries in [-5, 5])")


def test_criterion_10b_conjugation_antisymmetry():
    for n in range(2, 6):
        basis = torus_basis(n)
        for m in enumerate_monomials(n):
            chg = charge_vector(m, basis)
            conj = Monomial(m.conjugate_factors())
            assert charge_vector(conj, basis) == tuple(-c for c in chg)
    report("10b", "conjugation negates every charge vector, exhaustively for N <= 5")


def test_criterion_10c_nine_type_closure():
    basis = torus_basis(4)
    x = build_x_matrix(list(enumerate_monomials(4)), basis)
    c, types = c_decompose(x, 4)
    assert all(t in range(1, 10) for t in types)
    from nhdm.monomials import row_type

    for row in c.entries:
        for k in range(len(row)):
            removed = row[:k] + row[k + 1:]
            assert not any(removed) or row_type(removed) in range(1, 10)
            for t in range(len(removed)):
                merged = list(removed)
                merged[t] += row[k]
                assert not any(merged) or row_type(tuple(merged)) in range(1, 10)
    report("10c", "all 4HDM c-rows are of the nine types, closed under removal "
                  "and merging")


def test_criterion_10d_scan_agreement():
    for n in (2, 3, 4):
        bfs = {e.signature for e in classify(n, include_continuous=False).entries}
        subsets = finite_groups_by_subset_scan(n)
        assert bfs == subsets, f"N={n}"
    report("10d", "lattice walk and fixed-size subset scan agree for N <= 4")
