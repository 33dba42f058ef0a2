"""Potential monomials, their integer charge vectors, and their c-rows.

A monomial is a product of one or two off-diagonal bilinears (phi_a^dagger
phi_b).  Monomials are kept up to complex conjugation (the potential always
carries the conjugate with the conjugate coefficient) and canonicalized so
that enumeration and dedup are deterministic.

A monomial's c-row is its net exponent vector over doublets 2..N.  The
exponents of all N doublets sum to zero, so the charge is the c-row times A,
the charges of the bilinears (phi_1^dagger phi_a), a = 2..N, as rows.

Products of a diagonal bilinear with an off-diagonal one are excluded: their
charge vector coincides with the bare bilinear's, so they add nothing to the
charge-lattice classification.

``term_table`` holds the enumerated terms of N doublets with their
exponents and charges; the antiunitary layer reads each term as its index
there, and builds or reads a ``Monomial`` only to print one.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from ._record import record
from .exactmath import IntMatrix, integers
from .torus import PhaseVector, TorusBasis, torus_basis

Factor = tuple[int, int]
ChargeVector = tuple[int, ...]


def _conj_factors(factors: tuple[Factor, ...]) -> tuple[Factor, ...]:
    return tuple(sorted((b, a) for a, b in factors))


def _flat(factors: tuple[Factor, ...]) -> tuple[int, ...]:
    return tuple(x for pair in factors for x in pair)


@record(order=True)
class Monomial:
    """Canonical product of one or two off-diagonal bilinears.

    ``factors`` are 1-based index pairs (a, b), each meaning (phi_a^dagger
    phi_b).  The stored representative is the lexicographically smaller of the
    monomial and its complex conjugate, with factors sorted.
    """

    factors: tuple[Factor, ...]

    @classmethod
    def canonical(cls, factors) -> "Monomial":
        factors = tuple(sorted(integers(f, "doublet indices") for f in factors))
        if not 1 <= len(factors) <= 2:
            raise ValueError("a monomial has one or two bilinear factors")
        if any(a == b for a, b in factors):
            raise ValueError("diagonal bilinears carry no charge")
        if min(_flat(factors)) < 1:
            raise ValueError("doublet indices start at 1")
        conj = _conj_factors(factors)
        return cls(min(factors, conj, key=_flat))

    def permuted(self, perm) -> tuple["Monomial", bool]:
        """Canonical image under the doublet permutation a -> perm[a] (0-based).

        The flag is set when the image listed is the conjugate of the
        permuted factors.
        """
        raw = tuple(sorted((perm[a - 1] + 1, perm[b - 1] + 1) for a, b in self.factors))
        image = Monomial.canonical(raw)
        return image, image.factors != raw

    def conjugate_factors(self) -> tuple[Factor, ...]:
        return _conj_factors(self.factors)

    def render(self, pretty: bool = False) -> str:
        if pretty:
            return "".join(f"(φ{a}†φ{b})" for a, b in self.factors)
        return "".join(f"(f{a}+ f{b})" for a, b in self.factors)

    def to_json(self) -> list[list[int]]:
        return [list(pair) for pair in self.factors]

    def __str__(self) -> str:
        return self.render()


def enumerate_monomials(n_doublets: int) -> tuple[Monomial, ...]:
    """All canonical monomials with a nonzero charge vector, in sorted order.

    Counts: 12 for three doublets, 42 for four.  Duplicates are dropped by
    factor tuple, which equal monomials share, so no record is hashed or
    compared.
    """
    if n_doublets < 2:
        raise ValueError("need at least 2 doublets")
    bilinears = [(a, b) for a in range(1, n_doublets + 1)
                 for b in range(1, n_doublets + 1) if a != b]
    pairs = itertools.combinations_with_replacement(bilinears, 2)
    # |phi_a^dagger phi_b|^2 is neutral under the whole torus
    products = [(f,) for f in bilinears] + [p for p in pairs if p[1] != p[0][::-1]]
    seen = {Monomial.canonical(p).factors for p in products}
    return tuple(Monomial(f) for f in sorted(seen, key=lambda f: (len(f), f)))


def raw_exponents(m: Monomial, n_doublets: int) -> tuple[int, ...]:
    """Net per-doublet exponent vector (count of phi_a minus phi_a^dagger); ``term_table``
    keeps it per enumerated term."""
    if not all(1 <= x <= n_doublets for x in _flat(m.factors)):
        raise ValueError(f"{m} names a doublet outside 1..{n_doublets}")
    out = [0] * n_doublets
    for a, b in m.factors:
        out[a - 1] -= 1
        out[b - 1] += 1
    return tuple(out)


def charge_vector(m: Monomial, basis: TorusBasis) -> ChargeVector:
    """Integer coefficients of the monomial's phase change in the torus angles.

    The charge is ``raw_exponents`` times ``basis.bilinear_charges``, the
    rule of the module note.  It is computed on a monomial's first read in a
    basis and kept in ``basis.charges``; later reads take it from there.
    The memo is keyed by the factor tuple, which equal monomials share: a
    term query builds its monomials afresh, and looking one up by its factors
    neither hashes nor compares a record.
    """
    table = basis.charges
    chg = table.get(m.factors)
    if chg is None:
        exponents = raw_exponents(m, basis.n_doublets)
        chg = table[m.factors] = tuple(sum(e * c for e, c in zip(exponents, column))
                                       for column in zip(*basis.bilinear_charges))
    return chg


class TermTable:
    """The terms of N doublets, in ``enumerate_monomials`` order, each read as its index.

    ``monomials`` lists the terms, and ``exponents`` and ``charges`` hold
    each one's ``raw_exponents`` and ``charge_vector``, indexed alike.
    ``index`` maps a term's factor tuple back to its index, so a term built
    afresh is found without hashing or comparing a record.  Reports list
    terms in ``Monomial`` order, which differs from the index order: that
    sorts by factor count first.  ``term_table(n)`` is the one table of N
    doublets, built on first use.
    """

    def __init__(self, n_doublets: int):
        self.monomials = enumerate_monomials(n_doublets)
        self.index = MappingProxyType({m.factors: i for i, m in enumerate(self.monomials)})
        self.exponents = tuple(raw_exponents(m, n_doublets) for m in self.monomials)
        self.charges = tuple(charge_vector(m, torus_basis(n_doublets)) for m in self.monomials)


term_table = lru_cache(maxsize=None)(TermTable)


def phase_shift(m: Monomial, element: PhaseVector) -> Fraction:
    """Phase (units of 2*pi, mod 1) the monomial picks up under a diagonal element."""
    exponents = raw_exponents(m, len(element))
    return sum((e * p for e, p in zip(exponents, element.phases)), Fraction(0)) % 1


def charge_rows(terms, basis: TorusBasis) -> list[ChargeVector]:
    """The charge vector of each term, in order; an empty term list raises ValueError."""
    rows = [charge_vector(m, basis) for m in terms]
    if not rows:
        raise ValueError("empty term list")
    return rows


def build_x_matrix(terms, basis: TorusBasis) -> IntMatrix:
    """Charge matrix of a term list: row i is the charge vector of terms[i]."""
    return IntMatrix.from_rows(charge_rows(terms, basis))


def c_row(m: Monomial, n_doublets: int) -> tuple[int, ...]:
    """Net exponents of doublets 2..N, the c-row: the monomial's charge is
    ``c_row @ A`` over the bilinear charge basis A of the module note."""
    return raw_exponents(m, n_doublets)[1:]


def row_type(row) -> int | None:
    """Classify a c-row against the nine admissible patterns, or None.

    Up to permutation and an overall sign the patterns are
    (1), (2), (1,1), (1,-1), (2,-1), (1,1,-1), (2,-2), (2,-1,-1), (1,1,-1,-1).
    """
    nonzero = tuple(sorted(x for x in row if x))
    patterns = {
        (1,): 1, (-1,): 1,
        (2,): 2, (-2,): 2,
        (1, 1): 3, (-1, -1): 3,
        (-1, 1): 4,
        (-1, 2): 5, (-2, 1): 5,
        (-1, 1, 1): 6, (-1, -1, 1): 6,
        (-2, 2): 7,
        (-1, -1, 2): 8, (-2, 1, 1): 8,
        (-1, -1, 1, 1): 9,
    }
    return patterns.get(nonzero)
