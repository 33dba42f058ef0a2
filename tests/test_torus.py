import random
from fractions import Fraction as F
from math import gcd, lcm

import pytest

from nhdm.exactmath import snf
from nhdm.monomials import Monomial, phase_shift
from nhdm.torus import (
    PhaseVector,
    TorusBasis,
    direction_weights,
    element_from_angles,
    equal_mod_center,
    torus_basis,
)
from reference import charge_basis, fraction_element_from_angles


class TestBasis:
    def test_three_doublets(self):
        b = torus_basis(3)
        assert b.weights == ((F(-1), F(1), F(0)), (F(-2, 3), F(1, 3), F(1, 3)))

    def test_four_doublets_last_circle(self):
        assert torus_basis(4).weights[2] == (F(-3, 4), F(1, 4), F(1, 4), F(1, 4))
        assert torus_basis(4).weights[:2] == (
            (F(-1), F(1), F(0), F(0)), (F(-2), F(1), F(1), F(0)))

    def test_two_doublets(self):
        assert torus_basis(2).weights == ((F(-1, 2), F(1, 2)),)

    def test_rejects_single_doublet(self):
        with pytest.raises(ValueError, match="need at least 2 doublets"):
            torus_basis(1)


class TestMalformedBasis:
    # a hand-built basis is checked when it is made, not when a reading fails
    def test_too_few_circles(self):
        with pytest.raises(ValueError, match="weights must be 2 x 3 for 3 doublets"):
            TorusBasis(3, ((F(1), F(0)),))

    def test_rows_of_the_wrong_width(self):
        with pytest.raises(ValueError, match="weights must be 1 x 2 for 2 doublets"):
            TorusBasis(2, ((F(1), F(0), F(0)),))

    @pytest.mark.parametrize("weight", [0.5, "1/2", None])
    def test_weights_must_be_exact(self, weight):
        with pytest.raises(ValueError, match="weights must be int or Fraction"):
            TorusBasis(2, ((weight, F(-1, 2)),))

    @pytest.mark.parametrize("n", [1, 0, 2.0])
    def test_needs_two_doublets(self, n):
        with pytest.raises(ValueError, match="need at least 2 doublets"):
            TorusBasis(n, ())

    def test_int_weights_are_accepted(self):
        basis = TorusBasis(2, ((-1, 1),))
        assert basis.bilinear_charges == ((0,), (2,))
        assert element_from_angles(basis, (F(1, 4),)).render() == "2π·(3/4, 1/4)"


class TestDifferences:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_entries_are_the_bilinear_charges(self, n):
        # row a is the charge of psi_{a+1} - psi_1, so row a - row b is the
        # charge of psi_{a+1} - psi_{b+1}, the phase of (phi_{b+1}^dagger phi_{a+1})
        basis = torus_basis(n)
        rows = basis.bilinear_charges
        assert len(rows) == n
        assert rows[0] == (0,) * basis.n
        assert all(isinstance(c, int) for row in rows for c in row)
        for a in range(n):
            for b in range(n):
                expected = tuple(w[a] - w[b] for w in basis.weights)
                assert tuple(x - y for x, y in zip(rows[a], rows[b])) == expected

    def test_non_integer_entry_raises(self):
        basis = TorusBasis(2, ((F(1, 2), F(0)),))
        with pytest.raises(ValueError, match="non-integer charge of psi_2 - psi_1"):
            basis.bilinear_charges

    def test_basis_is_shared_per_doublet_count(self):
        assert torus_basis(4) is torus_basis(4)
        assert torus_basis(4) is not torus_basis(5)


class TestElements:
    def test_solved_generator_of_the_paired_terms(self):
        # angles (2*pi/3, 0) act on the doublets as (w^-1, w, 1)
        e = element_from_angles(torus_basis(3), [F(1, 3), 0])
        assert e.phases == (F(2, 3), F(1, 3), F(0))

    def test_zero_angles_identity(self):
        for n in (2, 3, 4, 5):
            e = element_from_angles(torus_basis(n), [0] * (n - 1))
            assert e == PhaseVector.identity(n)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            element_from_angles(torus_basis(3), [F(1, 3)])

    def test_sum_of_different_lengths_names_both(self):
        with pytest.raises(ValueError, match="lengths 3 and 2"):
            PhaseVector.identity(3) + PhaseVector.identity(2)

    @pytest.mark.parametrize("angle", [0.1, "1/3"])
    def test_float_and_string_angles_rejected(self, angle):
        # Fraction(angle) read 0.1 at its binary value and "1/3" as 1/3
        with pytest.raises(ValueError):
            element_from_angles(torus_basis(3), (angle, 0))

    def test_homomorphism(self):
        rng = random.Random(5)
        basis = torus_basis(4)
        for _ in range(100):
            a1 = [F(rng.randint(-6, 6), rng.randint(1, 9)) for _ in range(3)]
            a2 = [F(rng.randint(-6, 6), rng.randint(1, 9)) for _ in range(3)]
            lhs = element_from_angles(basis, [x + y for x, y in zip(a1, a2)])
            rhs = element_from_angles(basis, a1) + element_from_angles(basis, a2)
            assert lhs == rhs

    def test_center_reduced_last_circle(self):
        for n in (2, 3, 4, 5):
            basis = torus_basis(n)
            angles = [0] * (n - 2) + [1]
            full_turn = element_from_angles(basis, angles)
            assert full_turn.is_identity_mod_center()

    def test_seventh_power_of_the_order_seven_generator(self):
        # the four-doublet element with phases (1/28)(-9, -1, 3, 7)
        pv = PhaseVector((F(-9, 28), F(-1, 28), F(3, 28), F(7, 28)))
        assert (7 * pv).is_identity_mod_center()
        assert all(not (k * pv).is_identity_mod_center() for k in range(1, 7))

    def test_order_seven_generator_in_basis_coordinates(self):
        # decompose through the bilinear charge basis and rebuild the element
        basis = torus_basis(4)
        pv = PhaseVector((F(-9, 28), F(-1, 28), F(3, 28), F(7, 28)))
        res = snf(charge_basis(4))  # A is unimodular: u A v = I, so A^-1 = v u
        assert res.d == (1, 1, 1)
        a_inv = res.v @ res.u
        rel = [pv.phases[j] - pv.phases[0] for j in range(1, 4)]
        angles = [sum(a_inv[(j, i)] * rel[i] for i in range(3)) for j in range(3)]
        rebuilt = element_from_angles(basis, angles)
        assert equal_mod_center(rebuilt, pv)
        terms = [Monomial(((1, 3), (1, 4))), Monomial(((2, 1), (2, 4))),
                 Monomial(((3, 2), (3, 4)))]
        assert all(phase_shift(m, pv) == 0 for m in terms)


class TestOtherDenominators:
    # a hand-built basis whose weight denominators need not divide N
    def test_scaled_weights_name_the_weight(self):
        # direction_weights reads the weights over their common denominator,
        # so a denominator that does not divide N is not truncated away
        basis = TorusBasis(2, ((F(1, 3), F(0)),))
        for d in [(1,), (-2,), (0,)]:
            assert direction_weights(basis, d) == fraction_direction_weights(basis, d)
        assert direction_weights(basis, (1,)) == (1, 0)

    def test_elements_take_the_common_denominator(self):
        basis = TorusBasis(2, ((F(1, 3), F(0)),))
        assert basis.common_weights == (3, ((1, 0),))
        assert element_from_angles(basis, (F(1, 2),)).render() == "2π·(1/6, 0)"

    def test_elements_match_fraction_arithmetic(self):
        rng = random.Random(11)
        for n in (2, 3, 4):
            weights = tuple(tuple(F(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(n))
                            for _ in range(n - 1))
            for basis in (TorusBasis(n, weights), torus_basis(n)):
                for _ in range(20):
                    angles = [rng.choice((rng.randint(-3, 3),
                                          F(rng.randint(-9, 9), rng.randint(1, 10))))
                              for _ in range(n - 1)]
                    expected = fraction_element_from_angles(basis, angles)
                    assert element_from_angles(basis, angles) == expected


    def test_elements_are_stored_as_the_checked_constructor_stores_them(self):
        # element_from_angles reduces each phase itself and skips the second
        # reduction of PhaseVector's constructor
        rng = random.Random(6)
        sixth = TorusBasis(3, ((F(1, 6), F(-1, 6), F(0)), (F(1, 2), F(1, 3), F(-5, 6))))
        for basis in [torus_basis(n) for n in range(3, 7)] + [sixth]:
            for _ in range(20):
                angles = [F(rng.randint(-20, 20), rng.randint(1, 12)) for _ in range(basis.n)]
                pv = element_from_angles(basis, angles)
                assert pv == PhaseVector(pv.phases) == fraction_element_from_angles(basis, angles)
                assert all(type(p) is F and 0 <= p < 1 for p in pv.phases)


class TestPhaseTypes:
    # Fraction(p) would take a float at its binary value and a string as a
    # rational; only int and Fraction phases are accepted
    def test_ints_and_fractions(self):
        assert PhaseVector((1, F(5, 4), True)).phases == (F(0), F(1, 4), F(0))

    def test_float_phase_rejected(self):
        with pytest.raises(ValueError):
            PhaseVector((0.1, 0.9))

    def test_string_phase_rejected(self):
        with pytest.raises(ValueError):
            PhaseVector((F(0), "1/3"))


class TestCenterEquivalence:
    def test_hypercharge_shifted_pair(self):
        assert equal_mod_center(PhaseVector((F(0), F(0), F(1, 2))),
                                PhaseVector((F(1, 2), F(1, 2), F(0))))

    def test_reflexive(self):
        x = PhaseVector((F(1, 7), F(2, 7), F(4, 7)))
        assert equal_mod_center(x, x)

    def test_central_element(self):
        assert equal_mod_center(PhaseVector((F(1, 3),) * 3), PhaseVector.identity(3))

    def test_equivalence_relation(self):
        rng = random.Random(17)

        def rand_pv():
            return PhaseVector(tuple(F(rng.randint(0, 11), 12) for _ in range(3)))

        for _ in range(200):
            x, y, z = rand_pv(), rand_pv(), rand_pv()
            shift = F(rng.randint(0, 11), 12)
            assert equal_mod_center(x, PhaseVector(tuple(p + shift for p in x.phases)))
            if equal_mod_center(x, y) and equal_mod_center(y, z):
                assert equal_mod_center(x, z)
            if equal_mod_center(x, y):
                assert equal_mod_center(y, x)

    def test_center_key_is_relative_to_the_first_phase(self):
        x = PhaseVector((F(1, 3), F(1, 2), F(0)))
        assert x.center_key() == (F(0), F(1, 6), F(2, 3))
        shifted = PhaseVector(tuple(p + F(2, 7) for p in x.phases))
        assert shifted.center_key() == x.center_key()

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="lengths 1 and 2"):
            equal_mod_center(PhaseVector((F(0),)), PhaseVector((F(0), F(0))))


def test_direction_weights():
    basis = torus_basis(3)
    assert direction_weights(basis, (1, 0)) == (-1, 1, 0)
    assert direction_weights(basis, (0, 1)) == (-2, 1, 1)
    assert sum(direction_weights(basis, (2, 3))) == 0


def fraction_direction_weights(basis, angle_direction):
    """The weights summed as Fractions, cleared of denominators and divided
    by their content."""
    raw = [F(0)] * basis.n_doublets
    for coeff, weight in zip(angle_direction, basis.weights):
        for a in range(basis.n_doublets):
            raw[a] += coeff * weight[a]
    denom = lcm(*(f.denominator for f in raw))
    ints = [int(f * denom) for f in raw]
    content = gcd(*(abs(x) for x in ints)) or 1
    return tuple(x // content for x in ints)


@pytest.mark.parametrize("n_doublets", range(2, 8))
def test_direction_weights_match_fraction_arithmetic(n_doublets):
    basis = torus_basis(n_doublets)
    rng = random.Random(n_doublets)
    directions = [(0,) * basis.n] + [tuple(rng.randint(-9, 9) for _ in range(basis.n))
                                     for _ in range(200)]
    for d in directions:
        assert direction_weights(basis, d) == fraction_direction_weights(basis, d)


def test_render():
    assert str(PhaseVector((F(2, 3), F(1, 3), F(0)))) == "2π·(2/3, 1/3, 0)"
