"""Canonical signatures of abstract abelian groups.

A signature is the invariant-factor form of a finitely generated abelian
group: finite cyclic factors with each order dividing the next, a torus rank
counting U(1) factors, and optionally a starred factor whose generator is an
antiunitary transformation.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from ._record import record
from .exactmath import IntMatrix, integers, smith_columns, snf


@record(order=True)
class GroupSignature:
    """Abelian group in canonical form.

    ``finite`` lists invariant factors >= 2 in the divisibility chain,
    ``torus_rank`` counts U(1) factors, and ``star`` (if set) is the order of
    the cyclic factor generated by an antiunitary transformation.
    """

    finite: tuple[int, ...] = ()
    torus_rank: int = 0
    star: int | None = None

    def __post_init__(self):
        factors = integers(self.finite, "invariant factors")
        rank, star = integers((self.torus_rank, 2 if self.star is None else self.star),
                              "the torus rank and the starred order")
        if any(f < 2 for f in factors):
            raise ValueError("invariant factors must be at least 2")
        if any(factors[i + 1] % factors[i] for i in range(len(factors) - 1)):
            raise ValueError(f"not a divisibility chain: {factors}")
        if rank < 0 or star < 2:
            raise ValueError(f"need torus_rank >= 0 and star >= 2, got {rank} and {self.star}")
        object.__setattr__(self, "finite", factors)
        object.__setattr__(self, "torus_rank", rank)
        if self.star is not None:
            object.__setattr__(self, "star", star)

    @classmethod
    def _trusted(cls, finite: tuple[int, ...], torus_rank: int) -> "GroupSignature":
        """An unstarred signature of ints this module checked itself, stored without re-checking."""
        sig = object.__new__(cls)
        object.__setattr__(sig, "finite", finite)
        object.__setattr__(sig, "torus_rank", torus_rank)
        object.__setattr__(sig, "star", None)
        return sig

    @property
    def is_trivial(self) -> bool:
        return not self.finite and self.torus_rank == 0 and self.star is None

    @property
    def is_finite(self) -> bool:
        return self.torus_rank == 0

    def order(self) -> int | float:
        if self.torus_rank > 0:
            return math.inf
        return math.prod(self.finite) * (self.star or 1)

    def name(self) -> str:
        parts = ["U(1)"] * self.torus_rank
        parts += [f"Z{f}" for f in self.finite]
        if self.star is not None:
            parts.append(f"Z{self.star}*")
        return "x".join(parts) if parts else "trivial"

    def sort_key(self):
        order = self.order()
        return (self.torus_rank, order if order != math.inf else 0,
                len(self.finite), self.finite, self.star or 0)

    def __str__(self) -> str:
        return self.name()


# Bounds ``canonicalize`` puts on the group names users type: the Smith form
# takes orders of any size, but its time grows steeply with the factor count.
MAX_CYCLIC_ORDER = 2 ** 32
MAX_CYCLIC_FACTORS = 64


def canonicalize(factors: Iterable[int], torus_rank: int = 0) -> GroupSignature:
    """Invariant-factor form of a product of cyclic groups.

    The form is the Smith diagonal of diag(factors) without its ones, e.g.
    Z2 x Z3 becomes Z6 while Z2 x Z4 stays as it is.  Each factor must lie
    in ``1..MAX_CYCLIC_ORDER``, and at most ``MAX_CYCLIC_FACTORS`` are taken.
    """
    factors = integers(factors, "cyclic factors")
    if len(factors) > MAX_CYCLIC_FACTORS:
        raise ValueError(f"{len(factors)} cyclic factors exceed the supported {MAX_CYCLIC_FACTORS}")
    for f in factors:
        if f < 1:
            raise ValueError("cyclic factors must be positive")
        if f > MAX_CYCLIC_ORDER:
            raise ValueError(f"cyclic factor {f} exceeds the supported order {MAX_CYCLIC_ORDER}")
    d = smith_columns(IntMatrix.diagonal(factors).entries, len(factors))[0] if factors else ()
    return GroupSignature(tuple(x for x in d if x > 1), torus_rank)


def group_from_snf(d: Sequence[int], n: int) -> GroupSignature:
    """Group read off a charge-matrix Smith diagonal with n torus angles.

    A Smith diagonal is already an invariant-factor chain, so no factoring
    is needed: entries above one are the cyclic factors and the rank deficit
    contributes U(1) factors.  Raises ValueError if ``d`` is not such a
    chain (non-negative, each entry dividing the next, zeros last).  One
    pass checks the chain and counts the rank, so the signature is built
    without checking it again.
    """
    d = tuple(d)
    prev, rank = 1, 0
    for x in d:
        if x < 0 or (x % prev if prev else x):
            raise ValueError(f"not a Smith diagonal: {d}")
        prev, rank = x, rank + (x != 0)
    if rank > n:
        raise ValueError("rank exceeds the number of angles")
    return GroupSignature._trusted(tuple(x for x in d if x > 1), n - rank)


def _chains(m: int, least: int):
    """Divisibility chains of factors >= 2 with product m, the first a multiple of least."""
    if m == 1:
        yield ()
        return
    for d in range(max(least, 2), m + 1, least):
        if m % d == 0:
            for rest in _chains(m // d, d):
                yield (d,) + rest


def abelian_groups_of_order(m: int) -> list[GroupSignature]:
    """All abelian groups of order m: each is its invariant-factor chain with product m."""
    if m < 1:
        raise ValueError("order must be positive")
    return sorted((GroupSignature(c) for c in _chains(m, 1)), key=GroupSignature.sort_key)


def all_abelian_groups_up_to(order_bound: int) -> list[GroupSignature]:
    """All nontrivial abelian groups of order 2..order_bound."""
    out: list[GroupSignature] = []
    for m in range(2, order_bound + 1):
        out.extend(abelian_groups_of_order(m))
    return sorted(out, key=GroupSignature.sort_key)


def extend_by_antiunitary(unitary: GroupSignature,
                          square_exponents: Sequence[int]) -> GroupSignature:
    """Signature of an abelian group extended by a commuting antiunitary j.

    ``unitary`` is the finite unitary part (any torus factors pass through
    unchanged), and ``square_exponents`` expresses j^2 over its invariant-
    factor generators.  The result is the invariant-factor form of the full
    group with the star on the factor whose generator is antiunitary.
    """
    gens = unitary.finite
    r = len(gens)
    if len(square_exponents) != r:
        raise ValueError("square_exponents must match the invariant factors")
    # Relation matrix over generators (g_1..g_r, j): the cyclic orders and
    # j^2 = sum c_i g_i.
    rows = [[gens[i] if k == i else 0 for k in range(r + 1)] for i in range(r)]
    rows.append([-c for c in square_exponents] + [2])
    res = snf(IntMatrix.from_rows(rows))
    # Row i of v^-1 expresses the i-th canonical generator over (g_1..g_r, j);
    # an odd j-coefficient marks it antiunitary.  The relations have full
    # rank, so v^-1 == diag(d)^-1 @ u @ rows, and column r of the rows is
    # 2 e_r: the j-coefficient is 2 u[i][r] / d_i, which is even if d_i == 1.
    # Concentrate antiunitarity on the earliest flagged factor: for i < k a
    # transvection h_k -> h_k - h_i is an automorphism because d_i | d_k.
    first = next(i for i, d in enumerate(res.d) if 2 * res.u[(i, r)] // d % 2)
    finite = tuple(d for i, d in enumerate(res.d) if d > 1 and i != first)
    return GroupSignature(finite, unitary.torus_rank, star=res.d[first])
