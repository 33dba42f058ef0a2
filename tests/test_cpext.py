import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction as F
from functools import lru_cache
from math import factorial, gcd, prod
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhdm import classifier, cpext, exactmath
from nhdm.cpext import (
    AbelianBase,
    CpCandidate,
    GenPermMatrix,
    PhaseConstraintSystem,
    TermOrbit,
    _cycles,
    _forced_symmetry,
    _noncommuting_generator,
    _pin_system,
    backbone_classes,
    check_z3z3,
    classify_cp,
    commutant_support,
    commuting_involutions,
    commutes_with_diagonal,
    cp_bases,
    cp_extensions,
    cp_realizable,
)
from nhdm.exactmath import hnf_contains, hnf_rows
from nhdm.groups import GroupSignature
from nhdm.monomials import Monomial, enumerate_monomials, phase_shift, raw_exponents, term_table
from nhdm.torus import PhaseVector, element_from_angles, equal_mod_center, torus_basis
import reference
from reference import antiunitary_square, monomials_of, snf_rows


def base_u11():
    return AbelianBase.from_lattice(3, [(0, 1)])


def base_u12():
    return AbelianBase.from_lattice(3, [(1, 0)])


def base_r12():
    return AbelianBase.from_lattice(3, [(2, 0), (0, 1)])


def base_z3():
    return AbelianBase.from_lattice(3, [(3, 0), (0, 1)])


def base_z4():
    return AbelianBase.from_lattice(3, [(0, 1), (4, 2)])


def base_klein():
    return AbelianBase.from_lattice(3, [(2, 0), (0, 2)])


def base_torus():
    return AbelianBase.from_lattice(3, [])


def base_u1_x_z2():
    return AbelianBase.from_lattice(3, [(2, 0)])


@lru_cache(maxsize=None)
def all_bases(n):
    return tuple(cp_bases(n))


@lru_cache(maxsize=None)
def square_classes(n):
    """Per base of ``all_bases(n)``: its distinct squares, and each element of
    ``reference.finite_elements`` with its ``reference.square_class_key``."""
    out = []
    for base in all_bases(n):
        elements = reference.finite_elements(base)
        squares = reference.squares(elements)
        out.append((squares, [(reference.square_class_key(squares, f), f) for _, f in elements]))
    return tuple(out)


def row_of(system, coeffs):
    """Coefficient row of ``system`` with the named unknowns set, zero elsewhere."""
    row = [0] * len(system.unknowns)
    for name, c in coeffs.items():
        row[system.unknowns.index(name)] = c
    return row


def names(n, terms):
    """The text of the monomial of each term index of ``terms``, in order."""
    return [str(m) for m in monomials_of(n, terms)]


def library_images(candidate, perm):
    """Each surviving monomial's (image, conjugated) under ``perm``, as
    ``_term_action`` stores it, by term index."""
    monomials = term_table(candidate.base.n_doublets).monomials
    images = cpext._term_action(perm, False).images
    return {monomials[t]: (monomials[images[t][0]], images[t][1]) for t in candidate.surviving}


def find_candidates(base, name):
    return [c for c in cp_extensions(base) if c.signature.name() == name]


class TestGenPermAlgebra:
    def test_square_of_antiunitary(self):
        b = GenPermMatrix((1, 0, 2), (F(1, 8), F(3, 8), F(0)))
        sq = antiunitary_square(b)
        assert sq.perm == (0, 1, 2)
        assert sq.phases == (F(3, 4), F(1, 4), F(0))

    def test_float_phase_rejected(self):
        with pytest.raises(ValueError):
            GenPermMatrix((0, 1), (0.1, F(1, 3)))

    def test_string_phase_rejected(self):
        with pytest.raises(ValueError):
            GenPermMatrix((0, 1), (F(1, 10), "1/3"))

    @pytest.mark.parametrize("perm", [(1.0, 0.0, 2.0), ("1", "0", "2")])
    def test_float_and_string_images_rejected(self, perm):
        # sorted((1.0, 0.0, 2.0)) == [0, 1, 2], so the float images passed
        # the permutation check and failed later in commutes_with_diagonal
        with pytest.raises(ValueError):
            GenPermMatrix(perm, (0, 0, 0))

    def test_commutation_mod_scalar(self):
        r12 = PhaseVector((F(1, 2), F(1, 2), F(0)))
        assert commutes_with_diagonal(GenPermMatrix.permutation((1, 0, 2)), r12)
        z4 = PhaseVector((F(3, 4), F(1, 4), F(0)))
        assert not commutes_with_diagonal(GenPermMatrix.permutation((0, 2, 1)), z4)

    @pytest.mark.parametrize("phases", [(F(1, 2), F(1, 2)), (F(1, 2), F(1, 2), 0, 0)])
    def test_commutation_needs_one_phase_per_doublet(self, phases):
        # fewer phases than doublets raised IndexError, more a bare "length mismatch"
        u = GenPermMatrix.permutation((1, 0, 2))
        with pytest.raises(ValueError, match=f"3 doublets and {len(phases)} diagonal phases"):
            commutes_with_diagonal(u, PhaseVector(phases))


class TestCommutantAndCentralizer:
    def test_u11_support_pattern(self):
        support = commutant_support(base_u11())
        assert support == ((False, True, False), (True, False, False), (False, False, True))

    def test_full_torus_has_empty_support(self):
        for n in (3, 4, 5):
            basis_rows = []
            base = AbelianBase.from_lattice(n, basis_rows)
            support = commutant_support(base)
            assert all(not x for row in support for x in row)
            assert commuting_involutions(base) == reference.pattern_scan(base, 1) == []

    def test_two_doublet_torus_is_the_boundary_case(self):
        # with a single circle the two phases are opposite, so the doublet
        # swap does commute: the no-embedding property starts at three doublets
        base = AbelianBase.from_lattice(2, [])
        assert commutant_support(base) == ((False, True), (True, False))
        assert commuting_involutions(base) == reference.pattern_scan(base, 1) == [(1, 0)]

    def test_trivial_group_allows_everything(self):
        base = all_bases(3)[0]
        assert all(all(row) for row in commutant_support(base))
        assert len(reference.pattern_scan(base, 1)) == 6
        assert len(reference.pattern_scan(base, -1)) == 6
        assert commuting_involutions(base) == [(0, 1, 2), (0, 2, 1), (1, 0, 2), (2, 1, 0)]

    def test_u11_centralizer_diagonal_only(self):
        assert reference.pattern_scan(base_u11(), -1) == [(0, 1, 2)]

    def test_r12_centralizer_allows_the_swap(self):
        assert set(reference.pattern_scan(base_r12(), -1)) == {(0, 1, 2), (1, 0, 2)}

    def test_centralizer_against_brute_force(self):
        # oracle: try every permutation with every phase vector over a small
        # denominator grid and collect those commuting with the group
        base = base_r12()
        perms = reference.pattern_scan(base, -1)
        grid = [F(k, 4) for k in range(4)]
        seen_perms = set()
        for perm in itertools.permutations(range(3)):
            for phases in itertools.product(grid, repeat=3):
                u = GenPermMatrix(perm, phases)
                commutes = all(commutes_with_diagonal(u, g)
                               for g in base.group.finite_generators)
                assert commutes == (u.perm in perms)
                if commutes:
                    seen_perms.add(perm)
        assert seen_perms == set(perms)


class TestLatticeForms:
    """The lattice-membership and single-orbit forms against the earlier code."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_trivial_base_is_the_full_lattice(self, n):
        unit = tuple(tuple(int(i == j) for j in range(n - 1)) for i in range(n - 1))
        base = AbelianBase.from_lattice(n, term_table(n).charges)
        assert base == AbelianBase(n, unit)
        assert base.group.signature == GroupSignature()
        assert base.group.finite_generators == () and base.doublet_weights == ()

    def test_rows_of_the_wrong_length_or_type_rejected(self):
        # the N=3 charge space has 2 coordinates
        for rows in ([(1, 2, 3)], [(2, 0), (0,)], [(1,)], [(2, F(1, 2))]):
            with pytest.raises(ValueError):
                AbelianBase.from_lattice(3, rows)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_pattern_scans_match_the_generator_form(self, n):
        # the library tries only the involutions, the oracle all N! patterns
        for base in all_bases(n):
            assert commuting_involutions(base) == [
                s for s in reference.pattern_scan(base, 1) if all(s[s[a]] == a for a in range(n))]

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_support_matches_the_generator_form(self, n):
        for base in all_bases(n):
            assert commutant_support(base) == reference.commutant_support(base)

    @pytest.mark.parametrize("n", [3, 4])
    def test_term_orbits_match_the_union_find(self, n):
        # every (base, sigma) a candidate can be built from: an involutive
        # commuting pattern acting on the base's invariant terms, whose
        # orbits come in Monomial order, not in the order of term indices
        checked = 0
        for base in all_bases(n):
            invariant = base.invariant_monomials()
            terms = monomials_of(n, invariant)
            for sigma in commuting_involutions(base):
                image = {m: Monomial(m.conjugate_factors()).permuted(sigma)[0] for m in terms}
                assert (_cycles(terms, image.__getitem__)
                        == reference.components(terms, image.items()))
                orbits = [monomials_of(n, orbit.terms)
                          for orbit in cpext._term_action(sigma, True).orbits
                          if orbit.terms[0] in invariant]
                assert orbits == list(reference.components(terms, image.items()))
                checked += 1
        assert checked > 0

    @pytest.mark.parametrize("n", [3, 4])
    def test_backbone_classes_match_the_cycle_and_pair_loops(self, n):
        for sigma in itertools.permutations(range(n)):
            classes = backbone_classes(sigma)
            assert classes.single_classes == tuple(
                tuple(a + 1 for a in cyc) for cyc in reference.sigma_cycles(sigma))
            assert classes.pair_classes == reference.pair_classes(sigma)


def invariant_terms(base):
    """The monomial of each invariant term index of ``base``, in order."""
    return monomials_of(base.n_doublets, base.invariant_monomials())


class TestInvariantTerms:
    # the library reads each invariant term as its index in ``term_table``
    def test_u11_has_exactly_one_invariant_term(self):
        assert invariant_terms(base_u11()) == (Monomial.canonical(((1, 3), (2, 3))),)

    def test_z4_invariant_terms_match_the_two_term_potential(self):
        assert set(invariant_terms(base_z4())) == {
            Monomial.canonical(((1, 3), (2, 3))), Monomial.canonical(((1, 2), (1, 2)))}

    def test_z3_invariant_terms_are_the_three_cyclic_products(self):
        assert set(invariant_terms(base_z3())) == {
            Monomial.canonical(((1, 2), (1, 3))),
            Monomial.canonical(((2, 3), (2, 1))),
            Monomial.canonical(((3, 1), (3, 2)))}

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_lattice_membership_matches_the_phase_shift_definition(self, n):
        # reference definition: no finite generator shifts the term's phase
        # and its net exponents pair to zero with every continuous direction's
        # doublet weights
        def reference(base):
            return tuple(
                m for m in enumerate_monomials(n)
                if all(phase_shift(m, g) == 0 for g in base.group.finite_generators)
                and all(sum(e * w for e, w in zip(raw_exponents(m, n), weights)) == 0
                        for weights in base.doublet_weights))

        for base in cp_bases(n):
            assert invariant_terms(base) == reference(base)


def element_angles(base):
    """Circle angles of each element of ``reference.finite_elements(base)``, in its order."""
    gens = base.group.finite_generator_angles
    return [tuple(sum((e * g[i] for e, g in zip(expts, gens)), F(0))
                  for i in range(base.n_doublets - 1))
            for expts, _ in reference.finite_elements(base)]


class TestContainsDiagonal:
    """``contains_angles`` on the torus element ``element_from_angles`` gives."""

    def test_matches_the_listed_elements_on_a_grid(self):
        # independent path: a finite base contains exactly its listed
        # elements, up to an overall phase.  Every N=3 group has exponent 2,
        # 3 or 4, so each element has exactly one angle vector on the grid.
        basis = torus_basis(3)
        grid = [F(k, 12) for k in range(12)]
        bases = [b for b in cp_bases(3) if b.group.signature.is_finite]
        assert len(bases) == 9
        for base in bases:
            elements = [e for _, e in reference.finite_elements(base)]
            members = 0
            for angles in itertools.product(grid, repeat=2):
                pv = element_from_angles(basis, angles)
                expected = any(equal_mod_center(pv, e) for e in elements)
                assert base.contains_angles(angles) == expected
                members += expected
            assert members == base.group.signature.order()

    @pytest.mark.parametrize("n, rows, outsider", [
        (2, [(4,)], (F(1, 3),)),  # Z4 with no invariant monomial
        (3, [(0, 3), (3, 0)], (F(1, 5), F(0))),  # Z3 x Z3, the same
    ])
    def test_lattice_not_spanned_by_monomials(self, n, rows, outsider):
        basis = torus_basis(n)
        base = AbelianBase.from_lattice(n, rows)
        assert base.invariant_monomials() == ()
        elements = [e for _, e in reference.finite_elements(base)]
        for angles, e in zip(element_angles(base), elements):
            assert base.contains_angles(angles)
            assert equal_mod_center(element_from_angles(basis, angles), e)
        assert not base.contains_angles(outsider)
        grid = [F(k, 9) for k in range(9)] + [F(1, 5), F(1, 4)]
        for angles in itertools.product(grid, repeat=n - 1):
            pv = element_from_angles(basis, angles)
            assert base.contains_angles(angles) == any(equal_mod_center(pv, e) for e in elements)

    def test_a_member_keeps_its_phases_relative_to_the_first(self):
        # angle 1/4 is the element (7/8, 1/8), which is (1/8, 3/8) up to an
        # overall phase; angle 1/8 is (1/8, 1/4) up to one.  Angles count mod 1.
        basis = torus_basis(2)
        base = AbelianBase.from_lattice(2, [(4,)])
        assert equal_mod_center(element_from_angles(basis, (F(1, 4),)),
                                PhaseVector((F(1, 8), F(3, 8))))
        assert base.contains_angles((F(1, 4),)) and base.contains_angles((F(5, 4),))
        assert equal_mod_center(element_from_angles(basis, (F(1, 8),)),
                                PhaseVector((F(1, 8), F(1, 4))))
        assert not base.contains_angles((F(1, 8),))

    @pytest.mark.parametrize("phases", [(F(1, 3),), (F(1, 3), F(2, 3), F(0))])
    def test_rejects_a_phase_vector_of_another_length(self, phases):
        # the angles of another doublet count, one circle short or one over
        with pytest.raises(ValueError, match="need 2 angles"):
            base_z3().contains_angles(phases)

    def test_rejects_float_angles(self):
        with pytest.raises(ValueError):
            base_z3().contains_angles((0.5, F(0)))

    def test_empty_lattice_contains_every_element(self):
        assert AbelianBase.from_lattice(3, []).contains_angles((F(1, 7), F(1, 5)))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_the_monomial_scan_on_every_walked_base(self, n):
        # probe angles: the generators of every walked base and a few torus
        # elements; for N=4 each base's own generators and a seeded sample
        basis = torus_basis(n)
        bases = all_bases(n)
        probes = sorted({a for b in bases for a in b.group.finite_generator_angles}, key=str)
        probes += [tuple(F(x, 7) for x in d) for b in bases[:4]
                   for d in b.group.torus_directions]
        rng = random.Random(n)
        for base in bases:
            own = base.group.finite_generator_angles
            for angles in probes if n < 4 else [*own, *rng.sample(probes, 6)]:
                assert base.contains_angles(angles) == reference.contains_diagonal(
                    base, element_from_angles(basis, angles))


class TestSmithBudget:
    def test_bases_take_no_smith_form_and_extensions_one_per_involutive_base(self, monkeypatch):
        # and one pinned system per (involution, class of G / G^2) and one
        # starred signature per (unitary signature, square exponents);
        # pinning every element until its class solved made 411 pins and 274
        # starred signatures, and one starred signature per class 219
        cpext._starred.cache_clear()
        calls, pins, starred = [], [], []
        real = classifier.smith_columns
        real_pin, real_starred = cpext._pin_system, cpext.extend_by_antiunitary
        monkeypatch.setattr(classifier, "smith_columns",
                            lambda *args: calls.append(args) or real(*args))
        monkeypatch.setattr(cpext, "_pin_system",
                            lambda *args: pins.append(args) or real_pin(*args))
        monkeypatch.setattr(cpext, "extend_by_antiunitary",
                            lambda *args: starred.append(args) or real_starred(*args))
        bases = cp_bases(4)
        assert (len(bases), len(calls)) == (295, 0)
        for base in bases:
            cp_extensions(base)
        involutive = classes = involution_classes = 0
        for base in bases:
            involutions = len(commuting_involutions(base))
            if involutions:
                quotient = prod(gcd(2, d) for d in base.group.signature.finite)  # |G / G^2|
                involutive += 1
                classes += quotient
                involution_classes += involutions * quotient
        assert len(calls) == involutive == 109
        assert (len(pins), involution_classes, classes) == (369, 369, 219)
        assert len(starred) == len(set(starred)) == 29

    def test_term_images_read_once_per_involution(self, monkeypatch):
        # one Monomial.permuted per term of three doublets and involution, 4
        # involutions, and none in the verdicts, which read the same images;
        # reading them per (base, involution) made 105 calls, building them
        # per candidate 129, and reading them again per verdict 189; the
        # invariant terms are read once per base with an involution
        cpext._term_action.cache_clear()
        bases = cp_bases(3)
        permuted, invariant = [], []
        real_permuted, real_invariant = Monomial.permuted, AbelianBase.invariant_monomials
        monkeypatch.setattr(Monomial, "permuted",
                            lambda m, perm: permuted.append(m) or real_permuted(m, perm))
        monkeypatch.setattr(AbelianBase, "invariant_monomials",
                            lambda base: invariant.append(base) or real_invariant(base))
        for base in bases:
            for cand in cp_extensions(base):
                cp_realizable(cand)
        assert (len(permuted), len(invariant)) == (4 * 12, 12)


class TestTermActions:
    """Each pattern's term images, invariance relations and orbit reductions,
    read once per N and shared by every base, square class and verdict."""

    @staticmethod
    def sweep(n):
        for base in cp_bases(n):
            for cand in cp_extensions(base):
                cp_realizable(cand)

    def test_four_doublet_sweep_reads_each_action_once(self, monkeypatch):
        # one Monomial.permuted per term of four doublets and involution, 10
        # involutions, where reading the images per (base, involution) made
        # 2,196 calls; one invariance relation per term, involution and
        # conjugation flag, where relating every orbit tried per candidate
        # made 5,427; no Hermite form of whole rows in ``_restrict``, only the
        # reduction of each orbit of an involution's action, on its first
        # restriction; and a second sweep reads none of these again
        cp_bases(4)
        cpext._term_action.cache_clear()
        permuted, relations, rows, restricting = [], [], [], []
        real_permuted, real_relation = Monomial.permuted, cpext._invariance_relation
        real_rows, real_restrict = cpext.hnf_rows, cpext._restrict
        monkeypatch.setattr(Monomial, "permuted",
                            lambda m, perm: permuted.append((m, perm)) or real_permuted(m, perm))
        monkeypatch.setattr(cpext, "_invariance_relation",
                            lambda *args: relations.append(args) or real_relation(*args))
        monkeypatch.setattr(cpext, "hnf_rows",
                            lambda r: rows.append(bool(restricting)) or real_rows(r))

        def restrict(*args):
            restricting.append(True)
            try:
                return real_restrict(*args)
            finally:
                restricting.pop()

        monkeypatch.setattr(cpext, "_restrict", restrict)
        self.sweep(4)
        assert len(permuted) == len(set(permuted)) == 10 * 42
        assert len(relations) == 2 * len(permuted)
        orbits = sum(len(cpext._term_action(s, True).orbits) for s in cpext._involutions(4))
        assert rows.count(True) == orbits
        assert not all(rows)  # the verdicts' surviving lattices take the others
        permuted.clear(), relations.clear(), rows.clear()
        self.sweep(4)
        assert (permuted, relations) == ([], []) and not any(rows)

    def test_a_cold_sweep_neither_hashes_nor_compares_term_records(self):
        # in a fresh interpreter, so that no term table or action is cached:
        # inside cpext a term is its index, so one N=4 sweep hashes a Monomial
        # fewer than 1,000 times and compares none; keyed by Monomial, the
        # same sweep hashed one 48,324 times and compared 8,279 pairs
        code = """
import json
from nhdm import cpext
from nhdm.monomials import Monomial
counts = [0, 0]
real_hash, real_eq = Monomial.__hash__, Monomial.__eq__
def counted_hash(m):
    counts[0] += 1
    return real_hash(m)
def counted_eq(m, other):
    counts[1] += 1
    return real_eq(m, other)
Monomial.__hash__, Monomial.__eq__ = counted_hash, counted_eq
for base in cpext.cp_bases(4):
    for cand in cpext.cp_extensions(base):
        cpext.cp_realizable(cand)
print(json.dumps(counts))
"""
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120, env=dict(os.environ, PYTHONPATH=str(src)))
        assert proc.returncode == 0, proc.stderr
        hashes, comparisons = json.loads(proc.stdout)
        assert hashes < 1000 and comparisons == 0, (hashes, comparisons)

    def test_one_exponent_tuple_per_term(self):
        # every relation of a term, under any pattern and either flag, holds
        # the same tuple of entry exponents, the one ``term_table`` keeps
        unitary, conjugating = cpext._term_action((1, 0, 2, 3), False), cpext._term_action(
            (0, 1, 3, 2), True)
        table = term_table(4)
        assert len(unitary.relations) == len(conjugating.relations) == len(table.monomials)
        for t, m in enumerate(table.monomials):
            assert unitary.relations[t][0] is conjugating.relations[t][0] is table.exponents[t]
            assert unitary.relations[t][0] == raw_exponents(m, 4)

    @pytest.mark.parametrize("n", [3, 4])
    def test_systems_match_the_orbit_by_orbit_build(self, n):
        # a candidate's equations are its pins, then the invariance relations
        # of each surviving orbit read afresh; its scale and head basis are
        # those of the wide Hermite lattice of these equations, and fixes
        # answers as that lattice does on each unit row and each equation row
        for base in cp_bases(n):
            for cand in cp_extensions(base):
                equations = _pin_system(base, cand.sigma, cand.square).equations + [
                    row for orbit in cand.magnitude_classes
                    for row in reference.orbit_rows(base, cand.sigma, monomials_of(n, orbit))]
                system = cand.system
                assert system.equations == equations
                wide, scale = reference.hnf_lattice(equations, len(system.unknowns))
                assert (system.basis, system.scale) == (head_basis(wide, system.head), scale)
                units = [tuple(int(i == j) for i in range(len(system.unknowns)))
                         for j in range(len(system.unknowns))]
                for w in units + [row for row, _ in equations]:
                    assert system.fixes(*reference.split_row(system, w)) == hnf_contains(
                        wide, w + (0,))

    @pytest.mark.parametrize("n", [3, 4])
    def test_one_block_per_surviving_orbit_with_a_psi_part(self, n):
        # an orbit's rows carry no psi only for a single term that b maps to
        # itself unconjugated, whose relation under b J is then psi-free; each
        # term of every other surviving orbit maps to that orbit, one object
        # per orbit, whose block rows span its terms' psi columns
        monomials = term_table(n).monomials
        for base in cp_bases(n):
            for cand in cp_extensions(base):
                blocks = cand.system.blocks
                expected = [orbit for orbit in cand.magnitude_classes if len(orbit) > 1 or
                            monomials[orbit[0]].permuted(cand.sigma) == (monomials[orbit[0]], False)]
                assert {m: orbit.terms for m, orbit in blocks.items()} == {
                    m: orbit for orbit in expected for m in orbit}
                distinct = {id(orbit): orbit for orbit in blocks.values()}.values()
                assert len(distinct) == len(expected)
                assert all(len(orbit.block[0]) == len(orbit.terms) + n for orbit in distinct)


def head_basis(wide, head):
    """The zero-psi rows of the Hermite form of ``wide`` with its psi columns,
    those after the ``head`` and before the last, moved first, without them."""
    npsi = len(wide[0]) - 1 - head
    psi_first = hnf_rows(r[head:-1] + r[:head] + r[-1:] for r in wide)
    return tuple(r[npsi:] for r in psi_first if not any(r[:npsi]))


class TestCandidates:
    def test_z4_has_split_and_twisted_embeddings(self):
        names = sorted(c.signature.name() for c in cp_extensions(base_z4()))
        assert names == ["Z4xZ2*", "Z8*"]

    def test_z3_single_candidate_per_pattern(self):
        cands = cp_extensions(base_z3())
        assert {c.signature.name() for c in cands} == {"Z6*"}
        assert {c.sigma for c in cands} == {(1, 0, 2), (2, 1, 0), (0, 2, 1)}

    def test_z2_case(self):
        names = sorted(c.signature.name() for c in cp_extensions(base_r12()))
        assert names == ["Z2xZ2*", "Z2xZ2*", "Z4*"]

    def test_klein_case_diagonal_only(self):
        cands = cp_extensions(base_klein())
        assert [c.signature.name() for c in cands] == ["Z2xZ2xZ2*"]
        assert cands[0].sigma == (0, 1, 2)

    def test_continuous_cases(self):
        assert [c.signature.name() for c in cp_extensions(base_u11())] == ["U(1)xZ2*"]
        assert cp_extensions(base_u12()) == []
        assert cp_extensions(base_u1_x_z2()) == []
        assert cp_extensions(base_torus()) == []

    def test_squares_lie_in_the_claimed_element(self):
        charges = term_table(3).charges
        for base in (all_bases(3)[0], base_r12(), base_z3(), base_z4(),
                     base_klein(), base_u11()):
            # the invariant charges span the lattice, so the monomial scan is exact
            assert hnf_rows(charges[t] for t in base.invariant_monomials()) == base.lattice
            for cand in cp_extensions(base):
                particular = cand.system.solve()
                assert particular is not None
                eta = tuple(particular[:3])
                b = GenPermMatrix(cand.sigma, eta)
                sq = antiunitary_square(b)
                assert sq.perm == (0, 1, 2)
                diff = PhaseVector(sq.phases) + (-cand.square)
                assert reference.contains_diagonal(base, diff)


class TestConstraintSystems:
    @staticmethod
    def pinned(cand, assignments):
        """The candidate's equations, with each named psi pinned to its value."""
        unknowns = cand.system.unknowns
        return cand.system.equations + [
            (tuple(int(name == f"psi[{m}]") for name in unknowns), F(value))
            for m, value in assignments.items()]

    def fix_and_check(self, cand, assignments):
        return reference.smith_solvable(self.pinned(cand, assignments), len(cand.system.unknowns))

    def test_z6_attempt_reproduces_the_phase_sum_condition(self):
        cand = next(c for c in cp_extensions(base_z3()) if c.sigma == (1, 0, 2))
        m1, m2, m3 = ("(f1+ f2)(f1+ f3)", "(f1+ f2)(f3+ f2)", "(f1+ f3)(f2+ f3)")
        # canonical m2, m3 are conjugates of the cyclic-potential terms, so
        # the sum condition psi1 + psi2 + psi3 = pi reads psi1 - psi2 - psi3 = 1/2
        assert self.fix_and_check(cand, {m1: F(1, 2), m2: 0, m3: 0})
        assert self.fix_and_check(cand, {m1: 0, m2: 0, m3: 0})
        assert not self.fix_and_check(cand, {m1: F(1, 8), m2: 0, m3: 0})
        # the two cyclically-exchanged couplings must share one magnitude
        mags = {frozenset(names(3, cls)) for cls in cand.magnitude_classes}
        assert frozenset({m1, m2}) in mags
        assert frozenset({m3}) in mags

    def test_z4_star_conditions(self):
        cand = next(c for c in cp_extensions(base_r12()) if c.signature.name() == "Z4*")
        killed = set(names(3, cand.killed))
        assert killed == {"(f1+ f2)", "(f1+ f3)(f3+ f2)"}
        l7, l8, l9 = ("(f1+ f3)(f2+ f3)", "(f1+ f3)(f1+ f3)", "(f2+ f3)(f2+ f3)")
        assert self.fix_and_check(cand, {l7: 0, l8: F(1, 4), l9: F(1, 4)})
        assert self.fix_and_check(cand, {l7: F(1, 4), l8: F(1, 2), l9: F(1, 2)})
        assert not self.fix_and_check(cand, {l7: 0, l8: 0, l9: 0})
        mags = {frozenset(names(3, cls)) for cls in cand.magnitude_classes}
        assert frozenset({l8, l9}) in mags
        # the structural phase is pinned by the coefficient phases
        trial = self.pinned(cand, {l7: 0, l8: F(1, 4), l9: F(1, 4)})
        xi13 = tuple(row_of(cand.system, {"xi1": 1, "xi3": -1}))
        ncols = len(cand.system.unknowns)
        assert reference.smith_solvable(trial + [(xi13, F(1, 4))], ncols)
        assert not reference.smith_solvable(trial + [(xi13, F(0))], ncols)

    def test_klein_real_product_condition(self):
        cand = cp_extensions(base_klein())[0]
        s12, s23, s13 = ("(f1+ f2)(f1+ f2)", "(f2+ f3)(f2+ f3)", "(f1+ f3)(f1+ f3)")
        # canonical s13 is the conjugate of the cyclic coupling, so the
        # real-product condition reads psi12 + psi23 - psi13 in {0, 1/2}
        assert self.fix_and_check(cand, {s12: 0, s23: 0, s13: 0})
        assert self.fix_and_check(cand, {s12: F(1, 4), s23: F(1, 4), s13: 0})
        assert self.fix_and_check(cand, {s12: F(1, 4), s23: F(1, 4), s13: F(1, 2)})
        assert not self.fix_and_check(cand, {s12: F(1, 4), s23: 0, s13: 0})

    def test_coefficients_must_be_integers(self):
        system = PhaseConstraintSystem(["x", "y"])
        system.pin([True, -1], F(1, 2))
        assert system.equations == [((1, -1), F(1, 2))]
        with pytest.raises(ValueError):
            system.pin([F(5, 2), 1], 0)

    def test_a_psi_row_is_not_added(self):
        # coefficient phases enter only with a whole term orbit, through _join;
        # the column map names their positions, after the head, and pin
        # takes a row over the head alone
        system = PhaseConstraintSystem(["x", "psi0", "psi1"], column={0: 1, 1: 2})
        assert system.head == 1
        with pytest.raises(ValueError, match=r"need 1 head coefficients, got 3"):
            system.pin([1, 0, 2], F(1, 2))
        system.pin([1], F(1, 2))
        assert system.equations == [((1, 0, 0), F(1, 2))] and system.blocks == {}

    @pytest.mark.parametrize("positions", [(-1,), (3,), (0,), (1, 0), (0, 1, 2)],
                             ids=lambda p: ",".join(map(str, p)))
    def test_psi_positions_are_the_trailing_unknowns(self, positions):
        # outside the unknowns, before the last, out of order, or too many
        column = dict(enumerate(positions))
        with pytest.raises(ValueError, match="are not the last"):
            PhaseConstraintSystem(["x", "y"], column=column)

    @pytest.mark.parametrize("rhs", [0.1, "1/3"])
    def test_float_and_string_right_hand_sides_rejected(self, rhs):
        # Fraction(0.1) is 3602879701896397/36028797018963968, not 1/10
        system = PhaseConstraintSystem(["x"])
        with pytest.raises(ValueError):
            system.pin([1], rhs)
        assert system.equations == []

    def test_a_fraction_coefficient_enters_by_no_path(self):
        # head rows enter only through ``pin``; the constructor takes none
        with pytest.raises(TypeError):
            PhaseConstraintSystem(["x"], [((F(5, 2),), F(1, 2))])
        system = PhaseConstraintSystem(["x"])
        for row in ([F(5, 2)], [F(2)], [0.5], ["1"]):
            with pytest.raises(ValueError):
                system.pin(row, F(1, 2))
            with pytest.raises(ValueError):
                system.fixes(*reference.split_row(system, row))
        assert system.equations == []
        assert system.basis == ((0, 1),) and system.solve() == [F(0)]

    def test_u11_backbone_equalities(self):
        cand = cp_extensions(base_u11())[0]
        assert backbone_classes(cand.sigma).equalities() == [
            "m1^2 = m2^2", "L11 = L22", "L13 = L23", "L'13 = L'23"]


@st.composite
def congruences(draw):
    """A random integer system A (1-4 x 1-5, entries -3..3) and a rational b.

    Half of the right-hand sides are A applied to a rational vector, so the
    span and solvability tests see both outcomes often; the rationals lie in
    [-3, 3] with denominators 1..6.  The shape is drawn first, then A, the
    choice of half and two bytes per rational as one byte string.  A byte b
    is the entry (b + 3) % 7 - 3; bytes (p, q) are the rational n / d with
    d = q % 6 + 1 and n = (p + 3d) % (6d + 1) - 3d.  Zero bytes read 0 and
    pick the right-hand side drawn directly, so hypothesis shrinks toward
    zero entries.  One draw per example costs far less than one per entry.
    """
    nrows, ncols = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    size = nrows * ncols
    raw = draw(st.binary(min_size=size + 1 + 2 * max(nrows, ncols),
                         max_size=size + 1 + 2 * max(nrows, ncols)))
    rows = [[(b + 3) % 7 - 3 for b in raw[i:i + ncols]] for i in range(0, size, ncols)]
    rational = [F((p + 3 * d) % (6 * d + 1) - 3 * d, d)
                for p, d in zip(raw[size + 1::2], (q % 6 + 1 for q in raw[size + 2::2]))]
    if raw[size] % 2:
        rhs = [sum((c * v for c, v in zip(row, rational)), F(0)) for row in rows]
    else:
        rhs = rational[:nrows]
    return rows, rhs


def satisfies(rows, rhs, x):
    return all((sum((c * v for c, v in zip(row, x)), F(0)) - b) % 1 == 0
               for row, b in zip(rows, rhs))


class TestSolver:
    @settings(max_examples=200, deadline=None, database=None)
    @given(congruences(), st.fractions(min_value=-2, max_value=2, max_denominator=7))
    def test_solutions_satisfy_every_congruence(self, case, t):
        rows, rhs = case
        system = PhaseConstraintSystem([f"x{j}" for j in range(len(rows[0]))])
        for row, b in zip(rows, rhs):
            system.pin(row, b)
        particular = system.solve()
        oracle = reference.solve(system)
        assert system.solvable() == (particular is not None) == (oracle is not None)
        if particular is None:
            return
        assert satisfies(rows, rhs, particular)
        # the oracle's solution set: each torsion generator and each free
        # direction moves the library's solution to another one
        _, torsion, free = oracle
        for gen in torsion:
            assert satisfies(rows, rhs, [p + g for p, g in zip(particular, gen)])
        for direction in free:
            assert satisfies(rows, rhs, [p + t * d for p, d in zip(particular, direction)])

    @settings(max_examples=200, deadline=None, database=None)
    @given(congruences())
    def test_zero_residual_is_the_rational_span(self, case):
        rows, rhs = case
        augmented = [row + [b] for row, b in zip(rows, rhs)]
        in_span = reference.fraction_rank(augmented) == reference.fraction_rank(rows)
        assert reference._in_span(snf_rows(rows, len(rows[0])), rhs) == in_span


class TestVerdicts:
    def test_z4_split_rejected_with_swap_witness(self):
        cand = next(c for c in cp_extensions(base_z4()) if c.signature.name() == "Z4xZ2*")
        verdict = cp_realizable(cand)
        assert verdict.kind == "enlarged_unitary"
        assert verdict.witness is not None and verdict.witness.perm == (1, 0, 2)
        gen = base_z4().group.finite_generators[0]
        assert not commutes_with_diagonal(verdict.witness, gen)

    def test_z8_degenerates(self):
        cand = next(c for c in cp_extensions(base_z4()) if c.signature.name() == "Z8*")
        verdict = cp_realizable(cand)
        assert verdict.kind == "continuous_degeneration"
        assert names(3, cand.killed) == ["(f1+ f2)(f1+ f2)"]

    def test_z6_rejected(self):
        for cand in cp_extensions(base_z3()):
            assert cp_realizable(cand).kind == "enlarged_unitary"

    def test_u11_rejected_by_the_doublet_swap(self):
        cand = cp_extensions(base_u11())[0]
        verdict = cp_realizable(cand)
        assert verdict.kind == "enlarged_unitary"
        assert verdict.witness.perm == (1, 0, 2)

    def test_witness_phases_come_from_the_reduced_rows(self):
        # each row of u @ b is reduced mod 1 before the Smith division; the
        # unreduced rows would give the equally valid phases (1/4, 3/4, 0, 0)
        base = AbelianBase.from_lattice(4, [(2, 0, 0), (0, 2, 1)])
        cand = next(c for c in cp_extensions(base)
                    if c.sigma == (1, 0, 3, 2) and c.signature.name() == "U(1)xZ4*")
        verdict = cp_realizable(cand)
        assert verdict.kind == "enlarged_unitary"
        assert verdict.witness.to_json() == {"perm": [2, 1, 4, 3],
                                             "phases": ["3/4", "1/4", "0", "0"]}

    def test_realizable_cases(self):
        assert cp_realizable(cp_extensions(base_klein())[0]).realizable
        z4star = next(c for c in cp_extensions(base_r12()) if c.signature.name() == "Z4*")
        assert cp_realizable(z4star).realizable
        trivial = cp_extensions(all_bases(3)[0])
        assert any(cp_realizable(c).realizable for c in trivial)

    def test_a_surviving_lattice_with_a_finite_gap_gives_a_diagonal_witness(self):
        # keeping the terms of even first charge coordinate halves the
        # trivial group's lattice: the surviving terms gain a diagonal Z2
        cand = cp_extensions(cp_bases(3)[0])[0]
        table = term_table(3)
        terms = cand.surviving + cand.killed
        surviving = tuple(sorted((t for t in terms if table.charges[t][0] % 2 == 0),
                                 key=table.monomials.__getitem__))
        killed = tuple(sorted((t for t in terms if table.charges[t][0] % 2),
                              key=table.monomials.__getitem__))
        assert (len(surviving), len(killed)) == (6, 6)
        verdict = cp_realizable(CpCandidate(cand.base, cand.sigma, cand.square, cand.signature,
                                            cand.system, surviving, killed,
                                            cand.magnitude_classes))
        assert verdict.kind == "enlarged_unitary"
        assert str(verdict.witness) == "[1->1:e(1/2), 2->2:e(1/2), 3->3:e(0)]"
        phases = PhaseVector(verdict.witness.phases)
        assert all(phase_shift(m, phases) == 0 for m in monomials_of(3, surviving))
        assert any(phase_shift(m, phases) != 0 for m in monomials_of(3, killed))

    def test_a_forced_permutation_must_keep_each_magnitude_class(self):
        # the exchange 2 <-> 3 maps each surviving Z6* term to the other term
        # of its magnitude class; with singleton classes no term may move
        cand = next(c for c in cp_extensions(base_z3()) if c.sigma == (0, 2, 1))
        assert library_images(cand, (0, 2, 1)) == reference.term_images(cand, (0, 2, 1))
        assert str(_forced_symmetry(cand, (0, 2, 1))) == "[1->1:e(0), 2->3:e(0), 3->2:e(0)]"
        singletons = tuple((m,) for m in cand.surviving)
        regrouped = CpCandidate(cand.base, cand.sigma, cand.square, cand.signature, cand.system,
                                cand.surviving, cand.killed, singletons)
        assert _forced_symmetry(regrouped, (0, 2, 1)) is None

    @staticmethod
    def searched_verdict_kinds(n):
        """The verdicts past the lattice checks, each checked against the
        first forced symmetry of the full backbone-preserving search: a
        candidate is realizable exactly when the search yields nothing, and
        otherwise rejected by its first yield."""
        kinds = Counter()
        for base in cp_bases(n):
            for cand in cp_extensions(base):
                verdict = cp_realizable(cand)
                if verdict.kind == "continuous_degeneration" or (
                        verdict.witness is not None and verdict.witness.perm == tuple(range(n))):
                    continue
                assert verdict.witness == next(reference.forced_symmetries(cand), None)
                kinds[verdict.kind] += 1
        return kinds

    def test_witness_is_the_first_forced_symmetry(self):
        assert self.searched_verdict_kinds(3) == {"realizable": 14, "enlarged_unitary": 9}

    def test_four_doublet_witnesses_match_the_search(self):
        assert self.searched_verdict_kinds(4) == {"realizable": 157, "enlarged_unitary": 72}

    def test_a_verdict_asks_only_its_own_pattern(self, monkeypatch):
        # one question per candidate past the lattice checks, about sigma,
        # and none when sigma is the identity
        asked = []
        real = cpext._forced_symmetry

        def counted(cand, perm):
            asked.append(perm)
            return real(cand, perm)

        monkeypatch.setattr(cpext, "_forced_symmetry", counted)
        kinds = Counter()
        for base in cp_bases(3):
            for cand in cp_extensions(base):
                asked.clear()
                verdict = cp_realizable(cand)
                if verdict.kind == "continuous_degeneration" or (
                        verdict.witness is not None and verdict.witness.perm == (0, 1, 2)):
                    assert asked == []
                    continue
                assert asked == ([] if cand.sigma == (0, 1, 2) else [cand.sigma])
                kinds[len(asked)] += 1
        assert kinds == {0: 5, 1: 18}

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_an_involution_s_backbone_is_kept_only_by_itself_and_the_identity(self, n):
        # so the pattern sigma is the one permutation a verdict needs to ask;
        # the per-N list is the involutive part of the N! enumeration
        identity = tuple(range(n))
        involutions = [s for s in itertools.permutations(range(n))
                       if all(s[s[a]] == a for a in range(n))]
        assert cpext._involutions(n) == tuple(involutions)
        for sigma in involutions:
            classes = backbone_classes(sigma)
            kept = {perm for perm in itertools.permutations(range(n))
                    if reference.preserves_backbone(classes, perm)}
            assert kept == {identity, sigma}
        assert len(involutions) == [2, 4, 10, 26, 76][n - 2]


class TestNoncommutingGenerator:
    def test_torus_elements_fail_to_commute_on_the_weight_grid(self):
        # sum-zero weights in [-4, 4] for 3 to 5 doublets, each nondecreasing:
        # relabelling the doublets conjugates both u and the element, so each
        # weight vector stands for its n! / prod(multiplicity!) orderings.
        # Over all orderings the angle 1/(2M + 1) commutes at 492 pairs.
        beyond_first = 0
        for n in (3, 4, 5):
            perms = [GenPermMatrix.permutation(p) for p in itertools.permutations(range(n))]
            for w in itertools.combinations_with_replacement(range(-4, 5), n):
                if sum(w):
                    continue
                base = SimpleNamespace(group=SimpleNamespace(finite_generators=()),
                                       doublet_weights=(w,))
                orderings = factorial(n) // prod(map(factorial, Counter(w).values()))
                first = 2 * max(map(abs, w)) + 1
                for u in perms:
                    g = _noncommuting_generator(base, u)
                    if all(w[a] == w[u.perm[a]] for a in range(n)):
                        assert g is None
                        continue
                    assert not commutes_with_diagonal(u, g)
                    if g != PhaseVector(tuple(F(x, first) for x in w)):
                        beyond_first += orderings
        assert beyond_first == 492


def sweep_digest(n):
    """Candidate count and SHA-256 of one JSON line per candidate, in
    cp_bases / cp_extensions order, with every field a report or a later
    check can read."""
    lines = []
    for base in cp_bases(n):
        for cand in cp_extensions(base):
            rec = [[list(row) for row in base.lattice], base.group.signature.name(),
                   list(cand.sigma), str(cand.square), cand.signature.name(),
                   cand.system.render(), names(n, cand.surviving), names(n, cand.killed),
                   [names(n, cls) for cls in cand.magnitude_classes],
                   backbone_classes(cand.sigma).equalities(), cp_realizable(cand).to_json()]
            lines.append(json.dumps(rec, sort_keys=True) + "\n")
    return len(lines), hashlib.sha256("".join(lines).encode()).hexdigest()


class TestFullDetail:
    def test_three_doublet_sweep_digest(self):
        assert sweep_digest(3) == (
            26, "0f8e53e260776959cd238d8e623fa0883f0ac575c1e72bacd53fb3da4937bd1c")

    def test_four_doublet_sweep_digest(self):
        assert sweep_digest(4) == (
            274, "4d94136717f361cf8faf8df7eecdd4f0221276897031e59861177ed33e0e9898")

    def test_five_doublet_sweep_digest(self):
        # the 2,462 candidates take about 3 s on a 2-core VM
        assert sweep_digest(5) == (
            2462, "333569afc5940f2c79eb566ef91e6f21bb481382e3f6a4ffe52a4257c01c129d")


@st.composite
def wide_congruences(draw):
    """A random integer system A (1-5 x 1-6, entries -3..3) and b with
    denominators 1..12.

    Half of the systems repeat a multiple of the first row as the last one,
    so that the left kernel of A is nonzero and both outcomes are common.
    The shape is drawn first, then A, the plant and two bytes per entry of b
    as one byte string.  A byte b is the entry (b + 3) % 7 - 3; an odd plant
    byte p repeats k = (p // 2 + 2) % 5 - 2 times the first row; bytes
    (p, q) are (p + 24) % 49 - 24 over q % 12 + 1.  Zero bytes read 0 and
    plant nothing, so hypothesis shrinks toward zero entries.
    """
    nrows, ncols = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    size = nrows * ncols
    raw = draw(st.binary(min_size=size + 1 + 2 * nrows, max_size=size + 1 + 2 * nrows))
    rows = [[(b + 3) % 7 - 3 for b in raw[i:i + ncols]] for i in range(0, size, ncols)]
    if nrows > 1 and raw[size] % 2:
        k = (raw[size] // 2 + 2) % 5 - 2
        rows[-1] = [k * x for x in rows[0]]
    rhs = [F((p + 24) % 49 - 24, q % 12 + 1) for p, q in zip(raw[size + 1::2], raw[size + 2::2])]
    return rows, rhs


@st.composite
def orbit_congruences(draw):
    """A head of 1-3 unknowns, the first 1-head of them entry phases, then
    3-6 head rows and term orbits in random order.

    A head row has a right-hand side with denominators 1..12, so the scale
    grows at random steps.  An orbit of 1-3 terms has one psi per term,
    which no other orbit has, and its rows each link a term to the next in a
    cycle, psi_t +- psi_next (2 psi_t or 0 for one term), over the entry
    phases only, with right-hand side 0, as an orbit's invariance relations
    do.  The terms are labelled 0, 1, ... and the psi columns after the head
    are dealt to them in a random order.  Returns the head, the column of
    each term, in column order, and the items, each ("head", row, b) or
    ("orbit", terms in column order, rows as (entry part, nonzero (term,
    psi coefficient) pairs)).
    """
    head = draw(st.integers(1, 3))
    entry = draw(st.integers(1, head))
    heads = st.lists(st.integers(-3, 3), min_size=head, max_size=head).map(tuple)
    entries = st.lists(st.integers(-3, 3), min_size=entry, max_size=entry).map(tuple)
    rhs = st.builds(F, st.integers(-24, 24), st.integers(1, 12))
    items, npsi = [], 0
    for _ in range(draw(st.integers(3, 6))):
        if draw(st.booleans()):
            items.append(("head", draw(heads), draw(rhs)))
            continue
        terms = range(npsi, npsi + draw(st.integers(1, 3)))
        npsi += len(terms)
        rows = []
        for t, nxt in zip(terms, [*terms[1:], terms[0]]):
            psi = Counter({t: 1})
            psi[nxt] += draw(st.sampled_from([1, -1]))
            rows.append((draw(entries), tuple((u, c) for u, c in psi.items() if c)))
        items.append(("orbit", terms, rows))
    column = {t: head + j for j, t in enumerate(draw(st.permutations(range(npsi))))}
    items = [item if item[0] == "head" else
             ("orbit", tuple(sorted(item[1], key=column.get)), item[2]) for item in items]
    return head, column, items


def dense(head_part, psi, column, ncols):
    """A row over ``ncols`` unknowns from its head part and its (term, psi coefficient) pairs."""
    row = list(head_part) + [0] * (ncols - len(head_part))
    for t, c in psi:
        row[column[t]] = c
    return tuple(row)


class TestHermiteSolvability:
    """The augmented Hermite test and the orbit-by-orbit basis against the
    Smith readings they replace."""

    @settings(max_examples=100, deadline=None, database=None)
    @given(orbit_congruences(), st.data())
    def test_blocks_answer_as_the_wide_lattice(self, case, data):
        # an orbit joins exactly when the wide lattice of the rows kept so far
        # and its own stays solvable; then the head basis is exactly the
        # zero-psi part of the Hermite basis of every kept row with the psi
        # columns first, and solvable and fixes answer as that wide lattice
        # does; w is arbitrary or k y A for integer y
        head, column, items = case
        ncols = head + len(column)
        system = PhaseConstraintSystem([f"x{j}" for j in range(head)] +
                                       [f"psi{t}" for t in column], column=column)
        kept = []
        for item in items:
            if item[0] == "head":
                _, row, b = item
                system.pin(row, b)
                kept.append((dense(row, (), column, ncols), b % 1))
                continue
            _, terms, relations = item
            rows = [(dense(xi, psi, column, ncols), F(0)) for xi, psi in relations]
            wide, scale = reference.hnf_lattice(kept + rows, ncols)
            orbit = TermOrbit.reduced(terms, tuple(relations))
            assert system._join(orbit) == (wide[-1][-1] == scale)
            if wide[-1][-1] == scale:
                kept += rows
        assert system.equations == kept
        wide, scale = reference.hnf_lattice(kept, ncols)
        assert system.scale == scale
        assert system.basis == head_basis(wide, head)
        assert system.solvable() == (wide[-1][-1] == scale)
        for _ in range(4):
            if data.draw(st.booleans()):
                w = data.draw(st.lists(st.integers(-4, 4), min_size=ncols, max_size=ncols))
            else:
                y = data.draw(st.lists(st.integers(-2, 2), min_size=len(kept), max_size=len(kept)))
                k = data.draw(st.integers(1, 12))
                w = [k * sum(c * r[j] for c, (r, _) in zip(y, kept)) for j in range(ncols)]
            head_part, psi = reference.split_row(system, w)
            unchanged = dict(psi)
            assert system.fixes(head_part, psi) == (
                not system.solvable() or hnf_contains(wide, w + [0]))
            assert psi == unchanged

    @settings(max_examples=200, deadline=None, database=None)
    @given(wide_congruences())
    def test_same_answers_as_the_smith_readings(self, case):
        rows, rhs = case
        system = PhaseConstraintSystem([f"x{j}" for j in range(len(rows[0]))])
        for row, b in zip(rows, rhs):
            system.pin(row, b)
        solvable = reference.smith_solvable(system.equations, len(system.unknowns))
        assert system.solvable() == solvable
        if solvable:
            # solve reads u @ (D b) from its bordered Smith reading; the oracle
            # writes u out and sums in Fractions
            res = snf_rows(rows, len(rows[0]))
            assert system.solve() == reference.fraction_particular(res, rhs)

    @settings(max_examples=200, deadline=None, database=None)
    @given(wide_congruences(), st.data())
    def test_grown_basis_is_the_hermite_form_of_all_rows(self, case, data):
        # equations in random order, so the scale grows at random steps
        rows, rhs = case
        order = data.draw(st.permutations(range(len(rows))))
        system = PhaseConstraintSystem([f"x{j}" for j in range(len(rows[0]))])
        for i in order:
            system.pin(rows[i], rhs[i])
        assert (system.basis, system.scale) == reference.hnf_lattice(system.equations,
                                                                      len(system.unknowns))

    @settings(max_examples=300, deadline=None, database=None)
    @given(wide_congruences(), st.data())
    def test_fixes_is_integrality_on_the_solution_set(self, case, data):
        # w is either arbitrary or k y A for integer y, which lies in the row
        # lattice of A and is integral on every solution when k y b is
        rows, rhs = case
        ncols = len(rows[0])
        system = PhaseConstraintSystem([f"x{j}" for j in range(ncols)])
        for row, b in zip(rows, rhs):
            system.pin(row, b)
        if data.draw(st.booleans()):
            w = data.draw(st.lists(st.integers(-4, 4), min_size=ncols, max_size=ncols))
        else:
            y = data.draw(st.lists(st.integers(-2, 2), min_size=len(rows), max_size=len(rows)))
            k = data.draw(st.integers(1, 12))
            w = [k * sum(c * r[j] for c, r in zip(y, rows)) for j in range(ncols)]
        oracle = reference.solve(system)
        if oracle is None:
            assert system.fixes(*reference.split_row(system, w))  # nothing to be integral on
            return
        particular, torsion, free = oracle

        def dot(x):
            return sum((a * b for a, b in zip(w, x)), F(0))

        assert system.fixes(*reference.split_row(system, w)) == (
            dot(particular).denominator == 1 and all(dot(g).denominator == 1 for g in torsion)
            and all(dot(d) == 0 for d in free))

    def test_three_doublet_sweep_matches_the_refactoring_loop(self):
        for base in cp_bases(3):
            invariant = invariant_terms(base)
            involutions = commuting_involutions(base)
            for sigma, (_, f) in itertools.product(involutions, reference.finite_elements(base)):
                pin = _pin_system(base, sigma, f)
                assert pin.solvable() == reference.smith_solvable(pin.equations, len(pin.unknowns))
            for cand in cp_extensions(base):
                pin = _pin_system(base, cand.sigma, cand.square)
                assert reference.refactoring_restriction(base, cand.sigma, pin, invariant) == (
                    monomials_of(3, cand.surviving), monomials_of(3, cand.killed),
                    tuple(monomials_of(3, cls) for cls in cand.magnitude_classes),
                    cand.system.equations)

    def test_no_smith_form_per_orbit(self, monkeypatch):
        # 27 bordered Smith readings in the N=3 sweep, none of them for the
        # groups of the bases: 9 solve the systems of the candidates with a
        # forced witness and 18 read invariance relations; factoring the
        # system again for every orbit tried made 140 more, and solving every
        # candidate's system up front 14 more
        cp_bases(3)  # fill the lattice-walk cache first
        calls = []
        real = cpext.smith_bordered

        def counted(rows, ncols):
            calls.append(rows)
            return real(rows, ncols)

        monkeypatch.setattr(cpext, "smith_bordered", counted)
        for base in cp_bases(3):
            for cand in cp_extensions(base):
                cp_realizable(cand)
        assert len(calls) == 27

    @pytest.mark.parametrize("n", [3, 4])
    def test_no_sweep_forms_a_smith_transform_u(self, n, monkeypatch):
        # the verdicts read u only as the border of ``smith_bordered``; the
        # sweeps made 27 and 285 snf calls at N=3 and 4 when they wrote u
        # out.  The starred signatures, one snf each and cached, are read
        # through the name ``groups`` binds, which is not counted here
        cp_bases(n)
        calls = []
        real = exactmath.snf

        def counted(m):
            calls.append(m)
            return real(m)

        monkeypatch.setattr(exactmath, "snf", counted)
        verdicts = [cp_realizable(cand) for base in cp_bases(n) for cand in cp_extensions(base)]
        assert len(verdicts) == {3: 26, 4: 274}[n]
        assert calls == []

    def test_one_solve_per_forced_witness(self, monkeypatch):
        # a candidate's system is solved only to write the phases of a forced
        # symmetry, whose permutation is never the identity; solving every
        # candidate's system made 23 calls
        cp_bases(3)
        calls = []
        real = PhaseConstraintSystem.solve

        def counted(system):
            calls.append(system)
            return real(system)

        monkeypatch.setattr(PhaseConstraintSystem, "solve", counted)
        verdicts = [cp_realizable(cand) for base in cp_bases(3) for cand in cp_extensions(base)]
        forced = [v for v in verdicts if v.witness and v.witness.perm != (0, 1, 2)]
        assert len(calls) == len(forced) == 9

    def test_membership_only_in_fixes(self, monkeypatch):
        # the bases' coset questions and the surviving-lattice check each take
        # one hnf_residues pass, so hnf_contains serves only the forced-symmetry
        # search's fixes; asking them one charge at a time made 407 calls, and
        # checking the 9 killed charges one at a time would add 9.  Of the 13
        # rows fixes is asked, 9 are decided by their psi part: 7 name the
        # phase of a term whose relation has none, so no equation holds it,
        # and 2 leave a remainder in a block; the 4 with no psi part left
        # take one hnf_contains each, where the wide lattice took 13
        cp_bases(3)
        calls = []
        real = exactmath.hnf_contains

        def counted(basis, vec):
            calls.append(vec)
            return real(basis, vec)

        for module in (exactmath, cpext):
            monkeypatch.setattr(module, "hnf_contains", counted)
        for base in cp_bases(3):
            for cand in cp_extensions(base):
                cp_realizable(cand)
        assert len(calls) == 4

    def test_invariant_terms_read_only_with_an_involution(self, monkeypatch):
        # a base without an involutive commuting pattern has no candidate, and
        # its invariant terms are not read; reading them first made 19 calls
        with_involution = sum(bool(commuting_involutions(b)) for b in cp_bases(3))
        calls = []
        real = AbelianBase.invariant_monomials

        def counted(base):
            calls.append(base)
            return real(base)

        monkeypatch.setattr(AbelianBase, "invariant_monomials", counted)
        for base in cp_bases(3):
            for cand in cp_extensions(base):
                cp_realizable(cand)
        assert len(calls) == with_involution == 12

    def test_unsolvable_system_raises(self):
        # a pattern other than the identity, which ``cp_realizable`` asks about
        cand = next(c for base in cp_bases(3) for c in cp_extensions(base)
                    if c.sigma != (0, 1, 2))
        cand.system.pin([0] * cand.system.head, F(1, 2))
        with pytest.raises(RuntimeError, match="have no solution"):
            _forced_symmetry(cand, cand.sigma)


class TestLatticeReadings:
    """The membership reading of forced symmetries and the exponent-space square
    classes against the readings they replace."""

    def test_forced_symmetry_matches_the_solution_set_reading(self):
        # every non-identity permutation preserving the backbone, not only
        # those ``cp_realizable`` reaches before its first witness
        pairs = forced = 0
        for base in cp_bases(3):
            for cand in cp_extensions(base):
                oracle = reference.solve(cand.system)
                classes = backbone_classes(cand.sigma)
                for perm in itertools.permutations(range(3)):
                    if perm == (0, 1, 2) or not reference.preserves_backbone(classes, perm):
                        continue
                    got = _forced_symmetry(cand, perm)
                    assert got == reference.forced_symmetry(cand, perm, *oracle)
                    pairs += 1
                    forced += got is not None
        assert (pairs, forced) == (21, 12)

    def test_four_doublet_witnesses_match_the_u_transform_reading(self):
        # each forced witness reads its phases from the border of one Smith
        # reading; the oracle writes u out, sums each kernel row's psi by
        # term and reads the witness from u @ (D b) in Fractions
        identity = (0, 1, 2, 3)
        asked = witnesses = 0
        for base in cp_bases(4):
            for cand in cp_extensions(base):
                if cand.sigma == identity:
                    continue
                got = _forced_symmetry(cand, cand.sigma)
                assert got == reference.forced_symmetry_through_u(cand, cand.sigma)
                asked += 1
                verdict = cp_realizable(cand)
                if verdict.witness is not None and verdict.witness.perm != identity:
                    assert verdict.witness == got
                    witnesses += 1
        assert witnesses == 72 and asked > witnesses

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_square_classes_match_the_center_key_cosets(self, n, monkeypatch):
        # per involution, ``cp_extensions`` pins one element in each coset of
        # G^2; the restriction of the terms is not under test
        pins = []
        real = cpext._pin_system
        monkeypatch.setattr(cpext, "_pin_system",
                            lambda base, sigma, f: pins.append((sigma, f)) or real(base, sigma, f))
        monkeypatch.setattr(cpext, "_restrict", lambda pin, action: (pin, (), (), ()))
        for base, (squares, keyed) in zip(all_bases(n), square_classes(n)):
            pins.clear()
            cp_extensions(base)
            for sigma in {s for s, _ in pins}:
                keys = [reference.square_class_key(squares, f) for s, f in pins if s == sigma]
                assert sorted(keys) == sorted({key for key, _ in keyed})

    @pytest.mark.parametrize("n", [3, 4])
    def test_a_pin_is_solvable_exactly_on_whole_square_classes(self, n):
        # J -> J h moves the square by h^2, so every element pins exactly
        # when the first element of its coset of G^2 does
        for base, (_, keyed) in zip(all_bases(n), square_classes(n)):
            for sigma in commuting_involutions(base):
                solvable = {}
                for key, f in keyed:
                    got = _pin_system(base, sigma, f).solvable()
                    assert solvable.setdefault(key, got) == got


class TestClassification:
    def test_three_doublet_star_list(self):
        res = classify_cp(3)
        assert [s.name() for s in res.realizable] == ["Z2*", "Z4*", "Z2xZ2*", "Z2xZ2xZ2*"]
        rejected = {s.name(): v.kind for s, v in res.rejected}
        assert rejected == {
            "Z6*": "enlarged_unitary",
            "Z8*": "continuous_degeneration",
            "Z4xZ2*": "enlarged_unitary",
            "U(1)xZ2*": "enlarged_unitary",
        }

    def test_rejections_carry_witnesses(self):
        res = classify_cp(3)
        for sig, verdict in res.rejected:
            if verdict.kind == "enlarged_unitary":
                assert verdict.witness is not None

    def test_unsupported_doublet_count(self):
        with pytest.raises(ValueError):
            classify_cp(4)

    def test_bases_out_of_range_raise_before_any_walk(self, monkeypatch):
        def no_walk(generators):
            raise AssertionError("the walk started")

        monkeypatch.setattr(classifier, "_walk", no_walk)
        with pytest.raises(ValueError, match=r"out of supported range \(2\.\.6\)"):
            cp_bases(7)

    def test_bases_check_the_range_before_reading_a_charge(self, monkeypatch):
        def no_charges(n_doublets):
            raise AssertionError("a charge was read")

        for module in (classifier, cpext):
            monkeypatch.setattr(module, "term_table", no_charges)
        for n in (1, 7):
            with pytest.raises(ValueError, match=r"out of supported range \(2\.\.6\)"):
                cp_bases(n)

    def test_bases_cover_all_lattices_once(self):
        bases = cp_bases(3)
        assert bases[0].group.signature.is_trivial
        assert all(not b.group.signature.is_trivial for b in bases[1:])
        assert len({b.lattice for b in bases}) == len(bases)


class TestZ3Z3:
    def test_not_realizable(self):
        rep = check_z3z3()
        assert rep.verdict == "not_realizable"
        assert rep.invariant_under_generators
        assert rep.invariant_under_swap
        assert not rep.swap_commutes

    def test_generators_as_in_the_construction(self):
        rep = check_z3z3()
        assert rep.phase_generator.phases == (F(0), F(1, 3), F(2, 3))
        assert rep.cyclic_generator.perm == (1, 2, 0)
        assert rep.swap.perm == (1, 0, 2)

    def test_cycle_orbit_makes_one_block(self, monkeypatch):
        # each row of the 3-cycle's orbit links a term's psi to the next one's,
        # so the orbit's rows make one block over the three terms' columns,
        # and the system answers as the wide lattice
        grown = []
        real = cpext._restrict
        monkeypatch.setattr(cpext, "_restrict", lambda *args: grown.append(real(*args)) or grown[-1])
        assert check_z3z3().verdict == "not_realizable"
        ((system, *_),) = grown
        blocks = {id(orbit): orbit for orbit in system.blocks.values()}.values()
        assert [[system.column[m] for m in orbit.terms] for orbit in blocks] == [[4, 5, 6]]
        wide, scale = reference.hnf_lattice(system.equations, len(system.unknowns))
        assert system.solvable() == (wide[-1][-1] == scale)
        for w in itertools.product(range(-1, 2), repeat=len(system.unknowns)):
            assert system.fixes(*reference.split_row(system, w)) == hnf_contains(wide, w + (0,))

    def test_search_yields_the_five_forced_permutations(self, monkeypatch):
        # the Z3 potential restricted by the 3-cycle is forced to admit every
        # permutation with zero phases; the transpositions fail to commute
        # with a, the 3-cycles commute
        asked = []
        real = cpext._forced_symmetry
        monkeypatch.setattr(cpext, "_forced_symmetry",
                            lambda cand, perm: asked.append((cand, perm)) or real(cand, perm))
        rep = check_z3z3()
        ((extension, perm),) = asked
        assert perm == rep.swap.perm
        assert library_images(extension, perm) == reference.term_images(extension, perm)
        assert extension.sigma == (1, 2, 0)
        assert extension.square == PhaseVector.identity(3)
        assert extension.signature == GroupSignature((3, 3))
        assert extension.base.group.signature == GroupSignature((3,))
        assert not extension.killed
        forced = list(reference.forced_symmetries(extension))
        assert [u.perm for u in forced] == [(0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
        assert all(u.phases == (0, 0, 0) for u in forced)
        assert [commutes_with_diagonal(u, rep.phase_generator) for u in forced] == [
            False, False, True, True, False]
