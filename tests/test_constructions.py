import itertools

import pytest

from nhdm import constructions
from nhdm.classifier import symmetry_group_of_terms
from nhdm.constructions import cyclic_c_matrix, monomial_for_c_row, power_block, product_c_matrix
from nhdm.exactmath import det
from nhdm.groups import GroupSignature, canonicalize
from nhdm.monomials import charge_vector, row_type
from nhdm.torus import torus_basis
import reference


class TestCyclic:
    def test_nine_from_five(self):
        built = cyclic_c_matrix(9, 5)
        assert built.matrix.column(0) == (1, 0, -1, -1, -1)
        assert built.group == GroupSignature((9,))

    def test_full_power(self):
        built = cyclic_c_matrix(32, 5)
        assert built.matrix == power_block(5)
        assert built.group == GroupSignature((32,))

    def test_trivial(self):
        built = cyclic_c_matrix(1, 4)
        assert built.group.is_trivial
        assert built.snf_diagonal == (1, 1, 1, 1)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            cyclic_c_matrix(0, 3)
        with pytest.raises(ValueError):
            cyclic_c_matrix(9, 3)

    @pytest.mark.parametrize("p, n", [(2.0, 3), ("3", 2)])
    def test_rejects_a_non_integer(self, p, n):
        with pytest.raises(ValueError, match="must be integers"):
            cyclic_c_matrix(p, n)

    @pytest.mark.parametrize("n", [2.0, "2"])
    def test_power_block_rejects_a_non_integer(self, n):
        with pytest.raises(ValueError, match="must be integers"):
            power_block(n)

    def test_every_order_up_to_eight_rows(self):
        for n in range(1, 9):
            for p in range(1, 2 ** n + 1):
                built = cyclic_c_matrix(p, n)
                assert abs(det(built.matrix)) == p
                assert all(t in range(1, 10) for t in built.row_types)
                expected = GroupSignature(() if p == 1 else (p,))
                assert built.group == expected


class TestProduct:
    def test_coprime_blocks_merge(self):
        built = product_c_matrix([1, 2], [2, 3])
        # independent oracle: the group is the canonicalized product
        assert built.group == canonicalize([2, 3]) == GroupSignature((6,))

    def test_klein_four(self):
        built = product_c_matrix([1, 1], [2, 2])
        assert built.group == GroupSignature((2, 2))
        assert built.boundary_orders == (2, 2)

    def test_whole_partition_trivial_order(self):
        assert product_c_matrix([3], [1]).group.is_trivial

    def test_boundary_flagging(self):
        built = product_c_matrix([2, 2], [4, 3])
        assert built.group == canonicalize([4, 3]) == GroupSignature((12,))
        assert built.boundary_orders == (4,)

    def test_malformed(self):
        with pytest.raises(ValueError):
            product_c_matrix([1, 2], [2])
        with pytest.raises(ValueError):
            product_c_matrix([], [])
        with pytest.raises(ValueError):
            product_c_matrix([1], [3])

    @pytest.mark.parametrize("partition, orders", [([1.5], [2]), (["2"], ["3"])])
    def test_rejects_a_non_integer(self, partition, orders):
        # int() built Z2 on a size-1 block from 1.5 and parsed the strings
        with pytest.raises(ValueError, match="must be integers"):
            product_c_matrix(partition, orders)

    def test_various_products(self):
        cases = [
            ([2, 2], [3, 3], GroupSignature((3, 3))),
            ([1, 3], [2, 8], GroupSignature((2, 8))),
            ([2, 2], [4, 4], GroupSignature((4, 4))),
            ([1, 1, 2], [2, 2, 4], GroupSignature((2, 2, 4))),
        ]
        for partition, orders, expected in cases:
            assert product_c_matrix(partition, orders).group == expected

    def test_each_block_is_built_once(self, monkeypatch):
        # the blocks are assembled as rows, and only the assembled matrix
        # takes a Smith form and one witness term per row
        smith, terms = [], []
        real_smith, real_term = constructions.smith_columns, constructions.monomial_for_c_row

        def counted_smith(rows, ncols):
            smith.append(ncols)
            return real_smith(rows, ncols)

        def counted_term(row):
            terms.append(row)
            return real_term(row)

        monkeypatch.setattr(constructions, "smith_columns", counted_smith)
        monkeypatch.setattr(constructions, "monomial_for_c_row", counted_term)
        built = product_c_matrix([1, 2, 3], [2, 3, 8])
        assert (len(smith), len(terms)) == (1, 6)
        assert built.group.name() == "Z2xZ24"
        assert built.snf_diagonal == (1, 1, 1, 1, 2, 24)


class TestRowRealization:
    def test_type_patterns_map_back(self):
        n_doublets = 5
        rows = {
            (1, 0, 0, 0): 1, (2, 0, 0, 0): 2, (1, 1, 0, 0): 3, (1, -1, 0, 0): 4,
            (2, -1, 0, 0): 5, (1, 1, -1, 0): 6, (2, -2, 0, 0): 7,
            (2, -1, -1, 0): 8, (1, 1, -1, -1): 9,
        }
        a = reference.charge_basis(n_doublets)
        basis = torus_basis(n_doublets)
        for row, expected_type in rows.items():
            assert row_type(row) == expected_type
            mono = monomial_for_c_row(row)
            target = tuple(sum(row[i] * a[(i, j)] for i in range(4)) for j in range(4))
            chg = charge_vector(mono, basis)
            assert chg == target or chg == tuple(-x for x in target)

    def test_inadmissible_rejected(self):
        with pytest.raises(ValueError):
            monomial_for_c_row((3, 0, 0, 0))

    @pytest.mark.parametrize("row", [[1.5, 0], ["1", "0"]])
    def test_rejects_a_non_integer(self, row):
        with pytest.raises(ValueError, match="must be integers"):
            monomial_for_c_row(row)

    def test_matches_the_sign_loop(self):
        # every row with at most four entries from {-2, -1, 1, 2}, 1..6 long
        checked = 0
        for length in range(1, 7):
            for row in itertools.product((-2, -1, 0, 1, 2), repeat=length):
                if sum(1 for x in row if x) > 4:
                    continue
                try:
                    expected = reference.monomial_for_c_row(row, length + 1)
                except ValueError:
                    with pytest.raises(ValueError):
                        monomial_for_c_row(row)
                    continue
                assert monomial_for_c_row(row) == expected
                checked += 1
        assert checked == 980  # rows with an admissible monomial

    def test_witness_group_matches_for_small_blocks(self):
        # mapping rows back to monomials preserves the charge lattice
        for n, p in [(2, 3), (2, 4), (3, 7), (3, 5), (4, 9), (4, 16), (5, 23)]:
            built = cyclic_c_matrix(p, n)
            basis = torus_basis(n + 1)
            group = symmetry_group_of_terms(built.witness, basis)
            assert group.signature == built.group

    def test_product_witness_group_matches(self):
        for partition, orders in [([1, 2], [2, 3]), ([2, 2], [3, 4]), ([1, 1, 1], [2, 2, 2])]:
            built = product_c_matrix(partition, orders)
            basis = torus_basis(sum(partition) + 1)
            assert symmetry_group_of_terms(built.witness, basis).signature == built.group
