import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from nhdm.groups import (
    MAX_CYCLIC_FACTORS,
    MAX_CYCLIC_ORDER,
    GroupSignature,
    abelian_groups_of_order,
    all_abelian_groups_up_to,
    canonicalize,
    extend_by_antiunitary,
    group_from_snf,
)


class TestCanonicalize:
    def test_coprime_merge(self):
        assert canonicalize([2, 3]) == GroupSignature((6,))

    def test_divisible_unchanged(self):
        assert canonicalize([2, 4]) == GroupSignature((2, 4))
        assert canonicalize([3, 3]) == GroupSignature((3, 3))

    def test_idempotent(self):
        rng = random.Random(3)
        for _ in range(200):
            factors = [rng.randint(1, 24) for _ in range(rng.randint(0, 4))]
            once = canonicalize(factors)
            assert canonicalize(once.finite) == once

    def test_prime_power_multiset_determines_result(self):
        # Z12 x Z60 and Z3 x Z4 x Z60 share elementary divisors
        assert canonicalize([12, 60]) == canonicalize([3, 4, 60]) == GroupSignature((12, 60))

    @settings(max_examples=200, deadline=None, database=None)
    @given(st.lists(st.one_of(st.integers(1, 72), st.integers(1, MAX_CYCLIC_ORDER)),
                    max_size=4))
    def test_matches_the_prime_power_merge(self, factors):
        # oracle: factor each order by trial division and merge prime powers
        assert canonicalize(factors) == reference.canonicalize_by_factoring(factors)

    def test_empty_and_unit_factors_give_the_trivial_group(self):
        assert canonicalize([]) == canonicalize([1, 1]) == GroupSignature()
        assert canonicalize([1], torus_rank=2) == GroupSignature(torus_rank=2)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            canonicalize([0])

    def test_rejects_orders_too_large_to_factor(self):
        assert canonicalize([MAX_CYCLIC_ORDER]) == GroupSignature((MAX_CYCLIC_ORDER,))
        with pytest.raises(ValueError, match="exceeds the supported order"):
            canonicalize([2, MAX_CYCLIC_ORDER + 1])

    def test_rejects_more_factors_than_supported(self):
        assert canonicalize([2] * MAX_CYCLIC_FACTORS) == GroupSignature((2,) * MAX_CYCLIC_FACTORS)
        with pytest.raises(ValueError, match="exceed the supported"):
            canonicalize([2] * (MAX_CYCLIC_FACTORS + 1))


class TestGroupFromSnf:
    def test_cyclic_three(self):
        assert group_from_snf((1, 3), 2) == GroupSignature((3,))

    def test_unconstrained_torus(self):
        assert group_from_snf((), 2) == GroupSignature(torus_rank=2)

    def test_klein_four(self):
        assert group_from_snf((2, 2), 2) == GroupSignature((2, 2))

    def test_mixed(self):
        assert group_from_snf((1, 2, 0), 3) == GroupSignature((2,), torus_rank=1)

    def test_huge_factor_read_without_factoring(self):
        big = 3 * 10 ** 23 - 5
        assert group_from_snf((1, big), 2) == GroupSignature((big,))

    @pytest.mark.parametrize("d", [(2, 3), (0, 2), (-2,), (2, 0, 4)])
    def test_rejects_non_chains(self, d):
        with pytest.raises(ValueError, match="not a Smith diagonal"):
            group_from_snf(d, 3)


class TestOrderAndNames:
    def test_orders(self):
        assert GroupSignature((2, 4)).order() == 8
        assert GroupSignature((2,), torus_rank=1).order() == math.inf
        assert GroupSignature((7,)).order() == 7
        assert GroupSignature((2, 2), star=2).order() == 8

    def test_names(self):
        assert GroupSignature((4,)).name() == "Z4"
        assert GroupSignature((2, 2)).name() == "Z2xZ2"
        assert GroupSignature((2,), torus_rank=1).name() == "U(1)xZ2"
        assert GroupSignature(torus_rank=1, star=2).name() == "U(1)xZ2*"
        assert GroupSignature(star=4).name() == "Z4*"
        assert GroupSignature().name() == "trivial"

    def test_chain_validated(self):
        with pytest.raises(ValueError):
            GroupSignature((2, 3))
        with pytest.raises(ValueError):
            GroupSignature((1, 2))


class TestIntegerInputs:
    """Integer fields go through ``operator.index``: no silent truncation."""

    @pytest.mark.parametrize("factor", [Fraction(5, 2), 2.9])
    def test_invariant_factors(self, factor):
        with pytest.raises(ValueError):
            GroupSignature((factor,))

    def test_negative_torus_rank(self):
        with pytest.raises(ValueError):
            GroupSignature(torus_rank=-1)

    def test_starred_order_below_two(self):
        with pytest.raises(ValueError):
            GroupSignature((2,), star=1)

    def test_canonicalize_factors(self):
        with pytest.raises(ValueError):
            canonicalize([2.5, 3])


class TestEnumeration:
    def test_order_sixteen_has_five_groups(self):
        assert len(abelian_groups_of_order(16)) == 5

    def test_up_to_eight_is_the_ten_groups(self):
        names = [g.name() for g in all_abelian_groups_up_to(8)]
        assert names == ["Z2", "Z3", "Z4", "Z2xZ2", "Z5", "Z6", "Z7", "Z8",
                         "Z2xZ4", "Z2xZ2xZ2"]

    def test_up_to_sixteen_count(self):
        assert len(all_abelian_groups_up_to(16)) == 24

    def test_chains_match_the_prime_partitions(self):
        for m in range(1, 301):
            assert abelian_groups_of_order(m) == reference.abelian_groups_of_order(m), m


class TestAntiunitaryExtension:
    def test_standard_cp_of_trivial(self):
        assert extend_by_antiunitary(GroupSignature(), ()) == GroupSignature(star=2)

    def test_z2_split_and_twisted(self):
        z2 = GroupSignature((2,))
        assert extend_by_antiunitary(z2, (0,)).name() == "Z2xZ2*"
        assert extend_by_antiunitary(z2, (1,)).name() == "Z4*"

    def test_z3_gives_cyclic_six(self):
        z3 = GroupSignature((3,))
        assert extend_by_antiunitary(z3, (0,)).name() == "Z6*"
        assert extend_by_antiunitary(z3, (1,)).name() == "Z6*"
        assert extend_by_antiunitary(z3, (2,)).name() == "Z6*"

    def test_z4_split_and_twisted(self):
        z4 = GroupSignature((4,))
        assert extend_by_antiunitary(z4, (0,)).name() == "Z4xZ2*"
        assert extend_by_antiunitary(z4, (2,)).name() == "Z4xZ2*"
        assert extend_by_antiunitary(z4, (1,)).name() == "Z8*"
        assert extend_by_antiunitary(z4, (3,)).name() == "Z8*"

    def test_klein_four(self):
        assert extend_by_antiunitary(GroupSignature((2, 2)), (0, 0)).name() == "Z2xZ2xZ2*"

    def test_torus_passthrough(self):
        assert extend_by_antiunitary(GroupSignature(torus_rank=1), ()).name() == "U(1)xZ2*"

    def test_star_matches_the_inverse_transform_reading(self):
        # every group of order <= 32 (the 2^(N-1) bound at N=6), every square
        # class and torus rank 0 and 1: 2,036 extensions
        count = 0
        for m in range(1, 33):
            for sig in reference.abelian_groups_of_order(m):
                for expts in itertools.product(*(range(d) for d in sig.finite)):
                    for rank in (0, 1):
                        unitary = GroupSignature(sig.finite, rank)
                        assert (extend_by_antiunitary(unitary, expts)
                                == reference.extend_by_antiunitary(unitary, expts)), (sig, expts)
                        count += 1
        assert count == 2036

    def test_full_order_doubles(self):
        rng = random.Random(9)
        for _ in range(100):
            factors = canonicalize([rng.randint(2, 6) for _ in range(rng.randint(1, 3))])
            expts = tuple(rng.randrange(f) for f in factors.finite)
            ext = extend_by_antiunitary(factors, expts)
            assert ext.order() == 2 * factors.order()
            assert ext.star is not None
