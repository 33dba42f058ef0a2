import itertools

import pytest

from nhdm.exactmath import IntMatrix, det
from nhdm.monomials import (
    Monomial,
    build_x_matrix,
    c_row,
    charge_vector,
    enumerate_monomials,
    phase_shift,
    raw_exponents,
    row_type,
)
from nhdm.torus import PhaseVector, torus_basis
from reference import charge_basis, duplicate_charge_report, fraction_charge_vector, is_canonical


class TestEnumeration:
    def test_counts(self):
        assert len(enumerate_monomials(3)) == 12
        assert len(enumerate_monomials(4)) == 42

    def test_two_doublets_by_hand(self):
        # the only index combinations are the bilinear and its square
        assert enumerate_monomials(2) == (
            Monomial(((1, 2),)), Monomial(((1, 2), (1, 2))))

    def test_three_doublets_split(self):
        monos = enumerate_monomials(3)
        assert sum(1 for m in monos if len(m.factors) == 1) == 3
        assert sum(1 for m in monos if len(m.factors) == 2) == 9

    def test_all_canonical_unique_nonzero_charge(self):
        for n in (2, 3, 4, 5):
            basis = torus_basis(n)
            monos = enumerate_monomials(n)
            assert len(set(monos)) == len(monos)
            for m in monos:
                assert is_canonical(m)
                assert any(charge_vector(m, basis))

    def test_rejects_diagonal_factor(self):
        with pytest.raises(ValueError):
            Monomial.canonical(((1, 1),))

    @pytest.mark.parametrize("factors", [((0, 2),), ((-1, 2),), ((1, 2), (3, 0))])
    def test_rejects_indices_below_one(self, factors):
        with pytest.raises(ValueError):
            Monomial.canonical(factors)

    def test_permuted_is_canonical_and_flags_the_conjugate(self):
        for m in enumerate_monomials(4):
            assert m.permuted((0, 1, 2, 3)) == (m, False)
            for perm in [(1, 0, 2, 3), (3, 2, 0, 1), (1, 2, 3, 0)]:
                image, conjugated = m.permuted(perm)
                raw = tuple(sorted((perm[a - 1] + 1, perm[b - 1] + 1) for a, b in m.factors))
                assert is_canonical(image)
                assert (image.conjugate_factors() if conjugated else image.factors) == raw

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_conjugate_image_is_the_image_with_the_flag_flipped(self, n):
        # the premise that lets one map of unitary images serve the
        # antiunitary generator too: no enumerated term is its own conjugate;
        # every permutation through N=4, the involutions at N=5
        perms = [p for p in itertools.permutations(range(n))
                 if n < 5 or all(p[p[a]] == a for a in range(n))]
        for m in enumerate_monomials(n):
            conj = Monomial(m.conjugate_factors())
            assert conj != m
            for perm in perms:
                image, conjugated = m.permuted(perm)
                assert conj.permuted(perm) == (image, not conjugated)


class TestCharges:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_table_matches_fraction_arithmetic(self, n):
        basis = torus_basis(n)
        for m in enumerate_monomials(n):
            assert charge_vector(m, basis) == fraction_charge_vector(m, basis)
            conj = Monomial(m.conjugate_factors())
            assert charge_vector(conj, basis) == fraction_charge_vector(conj, basis)

    @pytest.mark.parametrize("factors", [((1, 4),), ((1, 2), (4, 3)), ((0, 2),), ((-1, 2),)])
    def test_out_of_range_doublets_rejected(self, factors):
        # built directly, past the checks of Monomial.canonical; a charge that
        # raised is not kept, so every read raises
        m = Monomial(factors)
        for _ in range(2):
            with pytest.raises(ValueError):
                charge_vector(m, torus_basis(3))
        assert m.factors not in torus_basis(3).charges  # the memo is keyed by factor tuple
        with pytest.raises(ValueError):
            raw_exponents(m, 3)
        with pytest.raises(ValueError):
            phase_shift(m, PhaseVector.identity(3))

    def test_bilinear_table(self):
        basis = torus_basis(3)
        assert charge_vector(Monomial(((2, 1),)), basis) == (-2, -1)
        assert charge_vector(Monomial(((3, 2),)), basis) == (1, 0)
        assert charge_vector(Monomial(((1, 3),)), basis) == (1, 1)

    def test_paired_product_charges(self):
        basis = torus_basis(3)
        assert charge_vector(Monomial(((1, 2), (1, 3))), basis) == (3, 2)

    def test_conjugate_negates(self):
        for n in (2, 3, 4):
            basis = torus_basis(n)
            for m in enumerate_monomials(n):
                chg = charge_vector(m, basis)
                conj = Monomial(m.conjugate_factors())
                assert charge_vector(conj, basis) == tuple(-c for c in chg)

    def test_injective_on_bilinears(self):
        for n in range(2, 7):
            basis = torus_basis(n)
            singles = [m for m in enumerate_monomials(n) if len(m.factors) == 1]
            # both orientations of every bilinear
            charges = set()
            for m in singles:
                charges.add(charge_vector(m, basis))
                charges.add(charge_vector(Monomial(m.conjugate_factors()), basis))
            assert len(charges) == n * (n - 1)

    def test_duplicate_charges_exist_and_are_reported(self):
        report = duplicate_charge_report(4)
        pair = {Monomial.canonical(((1, 2), (3, 4))), Monomial.canonical(((1, 4), (3, 2)))}
        assert any(pair <= set(group) for group in report.values())
        assert not duplicate_charge_report(2)

    def test_sum_rule_and_plain_phase_patterns(self):
        # raw per-doublet exponents always sum to zero and fall in the four
        # sign patterns (1,-1), (2,-2), (2,-1,-1), (1,1,-1,-1) up to order
        allowed = {(-1, 1), (-2, 2), (-1, -1, 2), (-2, 1, 1), (-1, -1, 1, 1)}
        for n in (2, 3, 4, 5):
            for m in enumerate_monomials(n):
                raw = raw_exponents(m, n)
                assert sum(raw) == 0
                assert tuple(sorted(x for x in raw if x)) in allowed


class TestXMatrix:
    def test_worked_pair(self):
        basis = torus_basis(3)
        terms = [Monomial(((1, 2), (1, 3))), Monomial(((2, 1), (2, 3)))]
        assert build_x_matrix(terms, basis).entries == ((3, 2), (-3, -1))

    def test_single_square(self):
        basis = torus_basis(3)
        assert build_x_matrix([Monomial.canonical(((2, 3), (2, 3)))], basis).entries == ((-2, 0),)

    def test_row_order_preserved(self):
        basis = torus_basis(3)
        terms = [Monomial(((3, 2),)), Monomial(((1, 3),))]
        assert build_x_matrix(terms, basis).entries == ((1, 0), (1, 1))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_x_matrix([], torus_basis(3))


class TestChargeBasis:
    # A, the charges of the bilinears (phi_1^dagger phi_a), a = 2..N, read
    # straight off the circle weights
    def test_rows_follow_the_ladder_pattern(self):
        # row i: (1, 2, ..., i-1, i+1, ..., n, 1)
        for n_doublets in range(2, 8):
            n = n_doublets - 1
            a = charge_basis(n_doublets)
            for i in range(1, n + 1):
                expected = [j if j < i else j + 1 for j in range(1, n)] + [1]
                assert a.entries[i - 1] == tuple(expected)

    def test_determinant_one(self):
        for n_doublets in range(2, 10):
            assert det(charge_basis(n_doublets)) == 1


class TestCDecompose:
    # X = c @ A, with each row of c read off the monomial's exponents
    def test_base_bilinears_are_unit_rows(self):
        for i in range(1, 4):
            crow = c_row(Monomial(((1, i + 1),)), 4)
            assert crow == tuple(1 if j == i - 1 else 0 for j in range(3))
            assert row_type(crow) == 1

    def test_square_row_with_independent_solve(self):
        m = Monomial.canonical(((1, 2), (1, 2)))
        x0 = charge_vector(m, torus_basis(3))
        # oracle: solve (c1, c2) @ A = x directly by Cramer's rule
        a = charge_basis(3)
        d = det(a)
        c1 = (x0[0] * a[(1, 1)] - x0[1] * a[(1, 0)]) // d
        c2 = (a[(0, 0)] * x0[1] - a[(0, 1)] * x0[0]) // d
        assert (c1, c2) == (2, 0)
        assert c_row(m, 3) == (2, 0)
        assert row_type(c_row(m, 3)) == 2

    def test_all_rows_admissible_for_four_doublets(self):
        assert all(row_type(c_row(m, 4)) in range(1, 10) for m in enumerate_monomials(4))

    def test_invalid_row_detected(self):
        assert row_type((3, 0, 0)) is None

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_factors_every_monomial_charge(self, n):
        basis = torus_basis(n)
        a = charge_basis(n)
        for m in enumerate_monomials(n):
            crow = c_row(m, n)
            assert (IntMatrix.from_rows([crow]) @ a).entries == (charge_vector(m, basis),)
            assert row_type(crow) in range(1, 10)


class TestRowTypeClosure:
    def test_closure_under_removal_and_merge(self):
        # dropping a component, or folding it into another, keeps a row
        # admissible; checked on every c-row arising at four doublets
        for row in (c_row(m, 4) for m in enumerate_monomials(4)):
            for k in range(len(row)):
                removed = row[:k] + row[k + 1:]
                assert row_type(removed) in range(1, 10) or not any(removed)
                for t in range(len(removed)):
                    merged = list(removed)
                    merged[t] += row[k]
                    assert row_type(tuple(merged)) in range(1, 10) or not any(merged)


def test_doublet_indices_must_be_integers():
    assert Monomial.canonical(((True, 2),)) == Monomial(((1, 2),))
    with pytest.raises(ValueError):
        Monomial.canonical(((1.9, 2),))


def test_render_modes():
    m = Monomial(((1, 2), (1, 3)))
    assert str(m) == "(f1+ f2)(f1+ f3)"
    assert m.render(pretty=True) == "(φ1†φ2)(φ1†φ3)"
    assert m.to_json() == [[1, 2], [1, 3]]
