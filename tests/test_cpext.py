import itertools
from fractions import Fraction as F
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhdm.cpext import (
    AbelianBase,
    GenPermMatrix,
    PhaseConstraintSystem,
    _cycles,
    _residual,
    _smith,
    backbone_classes,
    check_z3z3,
    classify_cp,
    commutant_perms,
    commutant_support,
    commutes_with_diagonal,
    centralizer_genperm,
    centralizer_perms,
    cp_bases,
    cp_extensions,
    cp_realizable,
)
from nhdm.monomials import Monomial, charge_vector, enumerate_monomials, phase_shift
from nhdm.torus import PhaseVector, equal_mod_center, torus_basis
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
    def test_compose_inverse(self):
        u = GenPermMatrix((1, 2, 0), (F(1, 3), F(1, 4), F(1, 5)))
        w = GenPermMatrix((2, 1, 0), (F(1, 7), F(0), F(1, 2)))
        assert u.compose(u.inverse()) == GenPermMatrix.identity(3)
        assert u.inverse().compose(u) == GenPermMatrix.identity(3)
        # associativity spot check
        v = GenPermMatrix.diagonal(PhaseVector((F(1, 6), F(1, 6), F(0))))
        assert u.compose(w).compose(v) == u.compose(w.compose(v))

    def test_square_of_antiunitary(self):
        b = GenPermMatrix((1, 0, 2), (F(1, 8), F(3, 8), F(0)))
        sq = antiunitary_square(b)
        assert sq.is_diagonal
        assert sq.phases == (F(3, 4), F(1, 4), F(0))

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
        assert len(centralizer_perms(base)) == 6

    def test_u11_centralizer_diagonal_only(self):
        assert centralizer_perms(base_u11()) == [(0, 1, 2)]

    def test_r12_centralizer_allows_the_swap(self):
        assert set(centralizer_perms(base_r12())) == {(0, 1, 2), (1, 0, 2)}

    def test_centralizer_against_brute_force(self):
        # oracle: try every permutation with every phase vector over a small
        # denominator grid and collect those commuting with the group
        base = base_r12()
        desc = centralizer_genperm(base)
        grid = [F(k, 4) for k in range(4)]
        seen_perms = set()
        for perm in itertools.permutations(range(3)):
            for phases in itertools.product(grid, repeat=3):
                u = GenPermMatrix(perm, phases)
                commutes = all(commutes_with_diagonal(u, g) for g in base.finite_generators)
                assert commutes == desc.contains(u)
                if commutes:
                    seen_perms.add(perm)
        assert seen_perms == set(desc.perms)


class TestLatticeForms:
    """The lattice-membership and single-orbit forms against the earlier code."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_pattern_scans_match_the_generator_form(self, n):
        for base in all_bases(n):
            assert commutant_perms(base) == reference.pattern_scan(base, 1)
            assert centralizer_perms(base) == reference.pattern_scan(base, -1)

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
        # and its charge pairs to zero with every continuous direction
        basis = torus_basis(n)

        def reference(base):
            return tuple(
                m for m in enumerate_monomials(n)
                if all(phase_shift(m, g) == 0 for g in base.finite_generators)
                and all(sum(c * d for c, d in zip(charge_vector(m, basis), direction)) == 0
                        for direction in base.angle_directions))

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
                solution = cand.system.solve()
                assert solution is not None
                particular, _, _ = solution
                eta = tuple(particular[:3])
                b = GenPermMatrix(cand.sigma, eta)
                sq = antiunitary_square(b).to_phase_vector()
                diff = sq + (-cand.square)
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
        solution = system.solve()
        assert system.solvable() == (solution is not None)
        if solution is None:
            return
        particular, torsion, free = solution
        assert satisfies(rows, rhs, particular)
        for gen in torsion:
            assert satisfies(rows, rhs, [p + g for p, g in zip(particular, gen)])
        for direction in free:
            assert satisfies(rows, rhs, [p + t * d for p, d in zip(particular, direction)])

    @settings(max_examples=200, deadline=None, database=None)
    @given(congruences())
    def test_zero_residual_is_the_rational_span(self, case):
        sympy = pytest.importorskip("sympy")
        rows, rhs = case
        a = sympy.Matrix(rows)
        in_span = a.row_join(sympy.Matrix([sympy.Rational(b.numerator, b.denominator)
                                           for b in rhs])).rank() == a.rank()
        assert (not any(_residual(_smith(rows, len(rows[0])), rhs))) == in_span


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

    def test_wrong_doublet_count(self):
        with pytest.raises(ValueError):
            check_z3z3(4)
