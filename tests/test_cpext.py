import hashlib
import itertools
import json
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction as F
from functools import lru_cache
from math import factorial, gcd, prod
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhdm import cpext, exactmath
from nhdm.cpext import (
    AbelianBase,
    GenPermMatrix,
    PhaseConstraintSystem,
    _cycles,
    _forced_symmetry,
    _layout,
    _noncommuting_generator,
    _particular,
    _pin_system,
    backbone_classes,
    check_z3z3,
    classify_cp,
    commutant_perms,
    commutant_support,
    commutes_with_diagonal,
    cp_bases,
    cp_extensions,
    cp_realizable,
    forced_symmetries,
)
from nhdm.exactmath import snf_rows
from nhdm.groups import GroupSignature
from nhdm.monomials import Monomial, enumerate_monomials, phase_shift, raw_exponents
from nhdm.torus import PhaseVector, equal_mod_center
import reference
from reference import antiunitary_square


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


def row_of(system, coeffs):
    """Coefficient row of ``system`` with the named unknowns set, zero elsewhere."""
    row = [0] * len(system.unknowns)
    for name, c in coeffs.items():
        row[system.unknowns.index(name)] = c
    return row


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
        # the permutation check and failed later in conjugate_diagonal
        with pytest.raises(ValueError):
            GenPermMatrix(perm, (0, 0, 0))

    def test_commutation_mod_scalar(self):
        r12 = PhaseVector((F(1, 2), F(1, 2), F(0)))
        assert commutes_with_diagonal(GenPermMatrix.permutation((1, 0, 2)), r12)
        z4 = PhaseVector((F(3, 4), F(1, 4), F(0)))
        assert not commutes_with_diagonal(GenPermMatrix.permutation((0, 2, 1)), z4)


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
            assert commutant_perms(base) == []

    def test_two_doublet_torus_is_the_boundary_case(self):
        # with a single circle the two phases are opposite, so the doublet
        # swap does commute: the no-embedding property starts at three doublets
        base = AbelianBase.from_lattice(2, [])
        assert commutant_support(base) == ((False, True), (True, False))
        assert commutant_perms(base) == [(1, 0)]

    def test_trivial_group_allows_everything(self):
        base = AbelianBase.trivial(3)
        assert all(all(row) for row in commutant_support(base))
        assert len(commutant_perms(base)) == 6
        assert len(reference.pattern_scan(base, -1)) == 6

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
                commutes = all(commutes_with_diagonal(u, g) for g in base.finite_generators)
                assert commutes == (u.perm in perms)
                if commutes:
                    seen_perms.add(perm)
        assert seen_perms == set(perms)


class TestLatticeForms:
    """The lattice-membership and single-orbit forms against the earlier code."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_trivial_base_is_the_full_lattice(self, n):
        unit = tuple(tuple(int(i == j) for j in range(n - 1)) for i in range(n - 1))
        assert AbelianBase.trivial(n) == AbelianBase(n, GroupSignature(), (), (), unit)

    def test_rows_of_the_wrong_length_or_type_rejected(self):
        # the N=3 charge space has 2 coordinates
        for rows in ([(1, 2, 3)], [(2, 0), (0,)], [(1,)], [(2, F(1, 2))]):
            with pytest.raises(ValueError):
                AbelianBase.from_lattice(3, rows)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_pattern_scans_match_the_generator_form(self, n):
        for base in all_bases(n):
            assert commutant_perms(base) == reference.pattern_scan(base, 1)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_support_matches_the_generator_form(self, n):
        for base in all_bases(n):
            assert commutant_support(base) == reference.commutant_support(base)

    @pytest.mark.parametrize("n", [3, 4])
    def test_term_orbits_match_the_union_find(self, n):
        # every (base, sigma) a candidate can be built from: an involutive
        # commuting pattern acting on the base's invariant terms
        checked = 0
        for base in all_bases(n):
            invariant = base.invariant_monomials()
            for sigma in commutant_perms(base):
                if any(sigma[sigma[a]] != a for a in range(n)):
                    continue
                image = {m: Monomial(m.conjugate_factors()).permuted(sigma)[0]
                         for m in invariant}
                assert (_cycles(invariant, image.__getitem__)
                        == reference.components(invariant, image.items()))
                checked += 1
        assert checked > 0

    @pytest.mark.parametrize("n", [3, 4])
    def test_backbone_classes_match_the_cycle_and_pair_loops(self, n):
        for sigma in itertools.permutations(range(n)):
            classes = backbone_classes(sigma)
            assert classes.single_classes == tuple(
                tuple(a + 1 for a in cyc) for cyc in reference.sigma_cycles(sigma))
            assert classes.pair_classes == reference.pair_classes(sigma)


class TestInvariantTerms:
    def test_u11_has_exactly_one_invariant_term(self):
        assert base_u11().invariant_monomials() == (Monomial.canonical(((1, 3), (2, 3))),)

    def test_z4_invariant_terms_match_the_two_term_potential(self):
        assert set(base_z4().invariant_monomials()) == {
            Monomial.canonical(((1, 3), (2, 3))), Monomial.canonical(((1, 2), (1, 2)))}

    def test_z3_invariant_terms_are_the_three_cyclic_products(self):
        assert set(base_z3().invariant_monomials()) == {
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
                if all(phase_shift(m, g) == 0 for g in base.finite_generators)
                and all(sum(e * w for e, w in zip(raw_exponents(m, n), weights)) == 0
                        for weights in base.doublet_weights))

        for base in cp_bases(n):
            assert base.invariant_monomials() == reference(base)


class TestContainsDiagonal:
    def test_matches_the_listed_elements_on_a_grid(self):
        # independent path: a finite base contains exactly its listed
        # elements, up to an overall phase; both sides ignore that phase, so
        # the first entry of each grid vector stays 0
        grid = [F(k, 12) for k in range(12)]
        bases = [b for b in cp_bases(3) if b.signature.is_finite]
        assert len(bases) == 9
        for base in bases:
            elements = [e for _, e in base.finite_elements()]
            for phases in itertools.product(grid, repeat=2):
                pv = PhaseVector((F(0), *phases))
                expected = any(equal_mod_center(pv, e) for e in elements)
                assert base.contains_diagonal(pv) == expected

    @pytest.mark.parametrize("n, rows, outsider", [
        (2, [(4,)], (F(0), F(1, 3))),  # Z4 with no invariant monomial
        (3, [(0, 3), (3, 0)], (F(0), F(1, 5), F(0))),  # Z3 x Z3, the same
    ])
    def test_lattice_not_spanned_by_monomials(self, n, rows, outsider):
        base = AbelianBase.from_lattice(n, rows)
        assert base.invariant_monomials() == ()
        elements = [e for _, e in base.finite_elements()]
        assert all(base.contains_diagonal(e) for e in elements)
        assert not base.contains_diagonal(PhaseVector(outsider))
        grid = [F(k, 9) for k in range(9)] + [F(1, 5), F(1, 4)]
        for phases in itertools.product(grid, repeat=n - 1):
            pv = PhaseVector((F(0), *phases))
            assert base.contains_diagonal(pv) == any(equal_mod_center(pv, e) for e in elements)

    def test_a_member_keeps_its_phases_relative_to_the_first(self):
        base = AbelianBase.from_lattice(2, [(4,)])
        assert base.contains_diagonal(PhaseVector((F(1, 8), F(3, 8))))
        assert not base.contains_diagonal(PhaseVector((F(1, 8), F(1, 4))))

    @pytest.mark.parametrize("phases", [(F(0), F(1, 3)), (F(0), F(1, 3), F(2, 3), F(0))])
    def test_rejects_a_phase_vector_of_another_length(self, phases):
        with pytest.raises(ValueError, match="need 3 phases"):
            base_z3().contains_diagonal(PhaseVector(phases))

    def test_empty_lattice_contains_every_element(self):
        assert AbelianBase.from_lattice(3, []).contains_diagonal(
            PhaseVector((F(1, 7), F(1, 5), F(0))))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_the_monomial_scan_on_every_walked_base(self, n):
        # probe elements: the generators of every walked base and a few torus
        # elements; for N=4 each base's own generators and a seeded sample
        bases = all_bases(n)
        probes = sorted({g for b in bases for g in b.finite_generators}, key=str)
        probes += [PhaseVector(tuple(F(w, 7) for w in ws)) for b in bases[:4]
                   for ws in b.doublet_weights]
        rng = random.Random(n)
        for base in bases:
            for pv in probes if n < 4 else [*base.finite_generators, *rng.sample(probes, 6)]:
                assert base.contains_diagonal(pv) == reference.contains_diagonal(base, pv)


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
        for base in (AbelianBase.trivial(3), base_r12(), base_z3(), base_z4(),
                     base_klein(), base_u11()):
            for cand in cp_extensions(base):
                particular = cand.system.solve()
                assert particular is not None
                eta = tuple(particular[:3])
                b = GenPermMatrix(cand.sigma, eta)
                sq = antiunitary_square(b)
                assert sq.perm == (0, 1, 2)
                diff = PhaseVector(sq.phases) + (-cand.square)
                assert base.contains_diagonal(diff)


class TestConstraintSystems:
    def fix_and_check(self, cand, assignments):
        trial = cand.system.copy()
        for m, value in assignments.items():
            trial.add(row_of(trial, {f"psi[{m}]": 1}), value)
        return trial.solvable()

    def test_z6_attempt_reproduces_the_phase_sum_condition(self):
        cand = next(c for c in cp_extensions(base_z3()) if c.sigma == (1, 0, 2))
        m1, m2, m3 = ("(f1+ f2)(f1+ f3)", "(f1+ f2)(f3+ f2)", "(f1+ f3)(f2+ f3)")
        # canonical m2, m3 are conjugates of the cyclic-potential terms, so
        # the sum condition psi1 + psi2 + psi3 = pi reads psi1 - psi2 - psi3 = 1/2
        assert self.fix_and_check(cand, {m1: F(1, 2), m2: 0, m3: 0})
        assert self.fix_and_check(cand, {m1: 0, m2: 0, m3: 0})
        assert not self.fix_and_check(cand, {m1: F(1, 8), m2: 0, m3: 0})
        # the two cyclically-exchanged couplings must share one magnitude
        mags = {frozenset(str(m) for m in cls) for cls in cand.magnitude_classes}
        assert frozenset({m1, m2}) in mags
        assert frozenset({m3}) in mags

    def test_z4_star_conditions(self):
        cand = next(c for c in cp_extensions(base_r12()) if c.signature.name() == "Z4*")
        killed = {str(m) for m in cand.killed}
        assert killed == {"(f1+ f2)", "(f1+ f3)(f3+ f2)"}
        l7, l8, l9 = ("(f1+ f3)(f2+ f3)", "(f1+ f3)(f1+ f3)", "(f2+ f3)(f2+ f3)")
        assert self.fix_and_check(cand, {l7: 0, l8: F(1, 4), l9: F(1, 4)})
        assert self.fix_and_check(cand, {l7: F(1, 4), l8: F(1, 2), l9: F(1, 2)})
        assert not self.fix_and_check(cand, {l7: 0, l8: 0, l9: 0})
        mags = {frozenset(str(m) for m in cls) for cls in cand.magnitude_classes}
        assert frozenset({l8, l9}) in mags
        # the structural phase is pinned by the coefficient phases
        trial = cand.system.copy()
        for m, v in {l7: 0, l8: F(1, 4), l9: F(1, 4)}.items():
            trial.add(row_of(trial, {f"psi[{m}]": 1}), v)
        pinned = trial.copy()
        pinned.add(row_of(pinned, {"xi1": 1, "xi3": -1}), F(1, 4))
        assert pinned.solvable()
        pinned_bad = trial.copy()
        pinned_bad.add(row_of(pinned_bad, {"xi1": 1, "xi3": -1}), 0)
        assert not pinned_bad.solvable()

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
        system.add([True, -1], F(1, 2))
        assert system.equations == [((1, -1), F(1, 2))]
        with pytest.raises(ValueError):
            system.add([F(5, 2), 1], 0)

    @pytest.mark.parametrize("rhs", [0.1, "1/3"])
    def test_float_and_string_right_hand_sides_rejected(self, rhs):
        # Fraction(0.1) is 3602879701896397/36028797018963968, not 1/10
        system = PhaseConstraintSystem(["x"])
        with pytest.raises(ValueError):
            system.add([1], rhs)
        assert system.equations == []

    def test_a_fraction_coefficient_enters_by_no_path(self):
        # equations enter only through ``add``; the constructor takes none
        # and ``copy`` copies only what ``add`` let in
        with pytest.raises(TypeError):
            PhaseConstraintSystem(["x"], [((F(5, 2),), F(1, 2))])
        system = PhaseConstraintSystem(["x"])
        for row in ([F(5, 2)], [F(2)], [0.5], ["1"]):
            with pytest.raises(ValueError):
                system.add(row, F(1, 2))
            with pytest.raises(ValueError):
                system.fixes(row)
        assert system.equations == [] and system.copy().equations == []
        assert system.basis == ((0, 1),) and system.solve() == [F(0)]

    def test_u11_backbone_equalities(self):
        cand = cp_extensions(base_u11())[0]
        assert cand.backbone.equalities() == [
            "m1^2 = m2^2", "L11 = L22", "L13 = L23", "L'13 = L'23"]


@st.composite
def congruences(draw):
    """A random integer system A (1-4 x 1-5, entries -3..3) and a rational b.

    Half of the right-hand sides are A applied to a rational vector, so the
    span and solvability tests see both outcomes often.
    """
    nrows, ncols = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    rational = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    if draw(st.booleans()):
        x = draw(st.lists(rational, min_size=ncols, max_size=ncols))
        rhs = [sum((c * v for c, v in zip(row, x)), F(0)) for row in rows]
    else:
        rhs = draw(st.lists(rational, min_size=nrows, max_size=nrows))
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
            system.add(row, b)
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
        gen = base_z4().finite_generators[0]
        assert not commutes_with_diagonal(verdict.witness, gen)

    def test_z8_degenerates(self):
        cand = next(c for c in cp_extensions(base_z4()) if c.signature.name() == "Z8*")
        verdict = cp_realizable(cand)
        assert verdict.kind == "continuous_degeneration"
        assert [str(m) for m in cand.killed] == ["(f1+ f2)(f1+ f2)"]

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
        trivial = cp_extensions(AbelianBase.trivial(3))
        assert any(cp_realizable(c).realizable for c in trivial)

    def test_witness_is_the_first_forced_symmetry(self):
        # a candidate that passes the lattice checks is realizable exactly
        # when the search yields nothing, and otherwise rejected by its first
        # yield
        kinds = Counter()
        for base in cp_bases(3):
            for cand in cp_extensions(base):
                verdict = cp_realizable(cand)
                if verdict.kind == "continuous_degeneration" or (
                        verdict.witness is not None and verdict.witness.perm == (0, 1, 2)):
                    continue
                assert verdict.witness == next(forced_symmetries(cand), None)
                kinds[verdict.kind] += 1
        assert kinds == {"realizable": 14, "enlarged_unitary": 9}


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
                base = SimpleNamespace(finite_generators=(), doublet_weights=(w,))
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
            rec = [[list(row) for row in base.lattice], base.signature.name(),
                   list(cand.sigma), str(cand.square), cand.signature.name(),
                   cand.system.render(), [str(m) for m in cand.surviving],
                   [str(m) for m in cand.killed],
                   [[str(m) for m in cls] for cls in cand.magnitude_classes],
                   cand.backbone.equalities(), cp_realizable(cand).to_json()]
            lines.append(json.dumps(rec, sort_keys=True) + "\n")
    return len(lines), hashlib.sha256("".join(lines).encode()).hexdigest()


class TestFullDetail:
    def test_three_doublet_sweep_digest(self):
        assert sweep_digest(3) == (
            26, "0f8e53e260776959cd238d8e623fa0883f0ac575c1e72bacd53fb3da4937bd1c")

    def test_four_doublet_sweep_digest(self):
        assert sweep_digest(4) == (
            274, "4d94136717f361cf8faf8df7eecdd4f0221276897031e59861177ed33e0e9898")

    @pytest.mark.slow
    def test_five_doublet_sweep_digest(self):
        # opt-in with `pytest -m slow`: the 2,462 candidates take about 30 s
        assert sweep_digest(5) == (
            2462, "333569afc5940f2c79eb566ef91e6f21bb481382e3f6a4ffe52a4257c01c129d")


@st.composite
def wide_congruences(draw):
    """A random integer system A (1-5 x 1-6, entries -3..3) and b with
    denominators 1..12.

    Half of the systems repeat a multiple of the first row as the last one,
    so that the left kernel of A is nonzero and both outcomes are common.
    """
    nrows, ncols = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    if nrows > 1 and draw(st.booleans()):
        k = draw(st.integers(-2, 2))
        rows[-1] = [k * x for x in rows[0]]
    rhs = [F(draw(st.integers(-24, 24)), draw(st.integers(1, 12))) for _ in rows]
    return rows, rhs


class TestHermiteSolvability:
    """The augmented Hermite test and the orbit-by-orbit basis against the
    Smith readings they replace."""

    @settings(max_examples=200, deadline=None, database=None)
    @given(wide_congruences())
    def test_same_answers_as_the_smith_readings(self, case):
        rows, rhs = case
        system = PhaseConstraintSystem([f"x{j}" for j in range(len(rows[0]))])
        for row, b in zip(rows, rhs):
            system.add(row, b)
        solvable = reference.smith_solvable(system)
        assert system.solvable() == solvable
        if solvable:
            res = snf_rows(rows, len(rows[0]))
            assert _particular(res, rhs) == reference.fraction_particular(res, rhs)

    @settings(max_examples=200, deadline=None, database=None)
    @given(wide_congruences(), st.data())
    def test_grown_basis_is_the_hermite_form_of_all_rows(self, case, data):
        # equations in random order, so the scale grows at random steps
        rows, rhs = case
        order = data.draw(st.permutations(range(len(rows))))
        system = PhaseConstraintSystem([f"x{j}" for j in range(len(rows[0]))])
        for i in order:
            system.add(rows[i], rhs[i])
        assert (system.basis, system.scale) == reference.hnf_lattice(system)

    @settings(max_examples=300, deadline=None, database=None)
    @given(wide_congruences(), st.data())
    def test_fixes_is_integrality_on_the_solution_set(self, case, data):
        # w is either arbitrary or k y A for integer y, which lies in the row
        # lattice of A and is integral on every solution when k y b is
        rows, rhs = case
        ncols = len(rows[0])
        system = PhaseConstraintSystem([f"x{j}" for j in range(ncols)])
        for row, b in zip(rows, rhs):
            system.add(row, b)
        if data.draw(st.booleans()):
            w = data.draw(st.lists(st.integers(-4, 4), min_size=ncols, max_size=ncols))
        else:
            y = data.draw(st.lists(st.integers(-2, 2), min_size=len(rows), max_size=len(rows)))
            k = data.draw(st.integers(1, 12))
            w = [k * sum(c * r[j] for c, r in zip(y, rows)) for j in range(ncols)]
        oracle = reference.solve(system)
        if oracle is None:
            assert system.fixes(w)  # nothing to be integral on
            return
        particular, torsion, free = oracle

        def dot(x):
            return sum((a * b for a, b in zip(w, x)), F(0))

        assert system.fixes(w) == (dot(particular).denominator == 1
                                   and all(dot(g).denominator == 1 for g in torsion)
                                   and all(dot(d) == 0 for d in free))

    def test_three_doublet_sweep_matches_the_refactoring_loop(self):
        for base in cp_bases(3):
            invariant = base.invariant_monomials()
            unknowns, psi_positions = _layout(base, invariant)
            involutions = [s for s in commutant_perms(base)
                           if all(s[s[a]] == a for a in range(len(s)))]
            for sigma, (_, f) in itertools.product(involutions, base.finite_elements()):
                pin = _pin_system(base, sigma, f, unknowns)
                assert pin.solvable() == reference.smith_solvable(pin)
            for cand in cp_extensions(base):
                pin = _pin_system(base, cand.sigma, cand.square, unknowns)
                assert reference.refactoring_restriction(
                    base, cand.sigma, pin, invariant, psi_positions) == (
                    cand.surviving, cand.killed, cand.magnitude_classes,
                    cand.system.render())

    def test_no_smith_form_per_orbit(self, monkeypatch):
        # 27 snf calls in the N=3 sweep, none of them for the groups of the
        # bases: 9 solve the systems of the candidates with a forced witness
        # and 18 read invariance relations; factoring the system again for
        # every orbit tried made 140 more, and solving every candidate's
        # system up front 14 more
        cp_bases(3)  # fill the lattice-walk cache first
        calls = []
        real = exactmath.snf

        def counted(m):
            calls.append(m)
            return real(m)

        monkeypatch.setattr(exactmath, "snf", counted)
        for base in cp_bases(3):
            for cand in cp_extensions(base):
                cp_realizable(cand)
        assert len(calls) == 27

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

    def test_unsolvable_system_raises(self):
        cand = next(c for base in cp_bases(3) for c in cp_extensions(base))
        system = cand.system.copy()
        system.add([0] * len(system.unknowns), F(1, 2))
        with pytest.raises(RuntimeError, match="have no solution"):
            next(forced_symmetries(replace(cand, system=system)))


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
                for perm in itertools.permutations(range(3)):
                    if perm == (0, 1, 2) or not cand.backbone.preserved_by(perm):
                        continue
                    got = _forced_symmetry(cand, perm)
                    assert got == reference.forced_symmetry(cand, perm, *oracle)
                    pairs += 1
                    forced += got is not None
        assert (pairs, forced) == (21, 12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_square_classes_match_the_center_key_cosets(self, n):
        # ``cp_extensions`` keys an element by its exponents mod gcd(2, d_i)
        for base in all_bases(n):
            elements = base.finite_elements()
            pairs = {(tuple(e % gcd(2, d) for e, d in zip(expts, base.signature.finite)),
                      reference.square_class_key(elements, f)) for expts, f in elements}
            # the same partition: each key determines the other
            assert len(pairs) == len({a for a, _ in pairs}) == len({b for _, b in pairs})


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

    def test_bases_cover_all_lattices_once(self):
        bases = cp_bases(3)
        assert bases[0].signature.is_trivial
        assert all(not b.signature.is_trivial for b in bases[1:])


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

    def test_search_yields_the_five_forced_permutations(self, monkeypatch):
        # the Z3 potential restricted by the 3-cycle is forced to admit every
        # permutation with zero phases; the transpositions fail to commute
        # with a, the 3-cycles commute
        searched = []
        real = cpext.forced_symmetries
        monkeypatch.setattr(cpext, "forced_symmetries",
                            lambda cand: searched.append(cand) or real(cand))
        rep = check_z3z3()
        (extension,) = searched
        assert extension.sigma == (1, 2, 0)
        assert extension.square == PhaseVector.identity(3)
        assert extension.signature == GroupSignature((3, 3))
        assert extension.base.signature == GroupSignature((3,))
        assert not extension.killed
        forced = list(real(extension))
        assert [u.perm for u in forced] == [(0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
        assert all(u.phases == (0, 0, 0) for u in forced)
        assert [commutes_with_diagonal(u, rep.phase_generator) for u in forced] == [
            False, False, True, True, False]
