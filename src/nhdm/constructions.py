"""Constructive c-matrices realizing prescribed cyclic groups and products.

The seed is the bidiagonal matrix with 2 on the diagonal and -1 above it,
which realizes the cyclic group of order 2^n.  Subtracting the binary digits
of a deficit q from its first column lowers the order to exactly 2^n - q, so
every cyclic group up to the order bound is reachable; block-diagonal
assembly over a partition produces direct products.

Every row of every constructed matrix is one of the nine admissible row
patterns, so each row maps back to a concrete monomial and the construction
comes with an explicit witness potential.
"""

from __future__ import annotations

import itertools

from ._record import record
from .exactmath import IntMatrix, integers, smith_columns
from .groups import GroupSignature, group_from_snf
from .monomials import Monomial, row_type


@record
class ConstructedMatrix:
    """A c-matrix together with its verification data and witness terms."""

    matrix: IntMatrix
    row_types: tuple[int, ...]
    snf_diagonal: tuple[int, ...]
    group: GroupSignature
    witness: tuple[Monomial, ...]
    boundary_orders: tuple[int, ...] = ()  # block orders equal to their 2^n bound


def power_block(n: int) -> IntMatrix:
    """n x n matrix with 2 on the diagonal and -1 on the superdiagonal.

    The size must be an integer, or ValueError.
    """
    (n,) = integers((n,), "block size")
    if n < 1:
        raise ValueError("block size must be positive")
    return IntMatrix.from_rows(
        [[2 if j == i else -1 if j == i + 1 else 0 for j in range(n)] for i in range(n)])


def _binary_digits(q: int, n: int) -> list[int]:
    """Binary expansion of q over n digits, most significant first."""
    digits = [int(c) for c in bin(q)[2:].zfill(n)]
    if len(digits) > n:
        raise ValueError("deficit does not fit the block")
    return digits


def cyclic_c_matrix(p: int, n: int) -> ConstructedMatrix:
    """c-matrix whose charge system realizes exactly the cyclic group of order p.

    Valid for 1 <= p <= 2^n; p = 1 gives the trivial group (all invariant
    factors one).  Both arguments must be integers, or ValueError.
    """
    p, n = integers((p, n), "order and block size")
    if n < 1 or n > 16:
        raise ValueError("block size out of range (1..16)")
    if not 1 <= p <= 2 ** n:
        raise ValueError(f"order {p} out of range for n={n} (max {2 ** n})")
    rows = [list(r) for r in power_block(n).entries]
    for i, digit in enumerate(_binary_digits(2 ** n - p, n)):
        rows[i][0] -= digit
    return _finish(IntMatrix.from_rows(rows))


def product_c_matrix(partition, orders) -> ConstructedMatrix:
    """Block-diagonal c-matrix realizing a product of cyclic groups.

    Each block of size n_i carries one cyclic factor of order p_i with
    1 <= p_i <= 2^(n_i).  Orders equal to the bound are accepted and flagged:
    the block construction supports them even though the product statement is
    usually quoted with a strict inequality.
    """
    partition = integers(partition, "partition parts")
    orders = integers(orders, "orders")
    if len(partition) != len(orders):
        raise ValueError("partition and orders must have the same length")
    if not partition:
        raise ValueError("empty partition")
    if any(x < 1 for x in partition):
        raise ValueError("partition parts must be positive")
    n = sum(partition)
    if n > 16:
        raise ValueError("total size out of range (<= 16)")
    blocks = []
    boundary = []
    for size, p in zip(partition, orders):
        if not 1 <= p <= 2 ** size:
            raise ValueError(f"order {p} out of range for block of size {size}")
        if p == 2 ** size:
            boundary.append(p)
        blocks.append(cyclic_c_matrix(p, size).matrix)
    rows = []
    offset = 0
    for block in blocks:
        for row in block.entries:
            rows.append([0] * offset + list(row) + [0] * (n - offset - block.cols))
        offset += block.cols
    return _finish(IntMatrix.from_rows(rows), boundary_list=boundary)


def _finish(matrix: IntMatrix, boundary_list=()) -> ConstructedMatrix:
    types = tuple(row_type(row) for row in matrix.entries)
    if any(t is None for t in types):
        raise AssertionError("constructed matrix has an inadmissible row")
    d = smith_columns(matrix.entries, matrix.cols)[0]
    group = group_from_snf(d, matrix.cols)
    witness = tuple(monomial_for_c_row(row) for row in matrix.entries)
    return ConstructedMatrix(matrix, types, d, group, witness, tuple(boundary_list))


def monomial_for_c_row(row) -> Monomial:
    """Concrete monomial whose charge decomposes to the given c-row.

    A c-row lists the net exponents of doublets 2..N (phi_a counts +1 and
    phi_a^dagger -1), so doublet 1 carries minus their sum.  Of the ways to
    pair the phi^dagger factors with the phi factors the least canonical
    monomial is returned.  The entries must be integers, or ValueError.
    """
    row = integers(row, "c-row entries")
    exponents = (-sum(row), *row)
    downs = [a for a, e in enumerate(exponents, 1) for _ in range(-e)]
    ups = [a for a, e in enumerate(exponents, 1) for _ in range(e)]
    if not 1 <= len(ups) <= 2:
        raise ValueError(f"row {tuple(row)} is not an admissible monomial pattern")
    return min(Monomial.canonical(zip(downs, p)) for p in itertools.permutations(ups))
