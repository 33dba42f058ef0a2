"""Potential monomials, their integer charge vectors, and the c-row calculus.

A monomial is a product of one or two off-diagonal bilinears (phi_a^dagger
phi_b).  Monomials are kept up to complex conjugation (the potential always
carries the conjugate with the conjugate coefficient) and canonicalized so
that enumeration and dedup are deterministic.

Products of a diagonal bilinear with an off-diagonal one are excluded: their
charge vector coincides with the bare bilinear's, so they add nothing to the
charge-lattice classification.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from .exactmath import IntMatrix, inverse_unimodular
from .torus import PhaseVector, TorusBasis, torus_basis

Factor = tuple[int, int]
ChargeVector = tuple[int, ...]


def _conj_factors(factors: tuple[Factor, ...]) -> tuple[Factor, ...]:
    return tuple(sorted((b, a) for a, b in factors))


def _flat(factors: tuple[Factor, ...]) -> tuple[int, ...]:
    return tuple(x for pair in factors for x in pair)


@dataclass(frozen=True, order=True)
class Monomial:
    """Canonical product of one or two off-diagonal bilinears.

    ``factors`` are 1-based index pairs (a, b), each meaning (phi_a^dagger
    phi_b).  The stored representative is the lexicographically smaller of the
    monomial and its complex conjugate, with factors sorted.
    """

    factors: tuple[Factor, ...]

    @classmethod
    def canonical(cls, factors) -> "Monomial":
        factors = tuple(sorted((int(a), int(b)) for a, b in factors))
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

    @property
    def is_canonical(self) -> bool:
        return self.factors == min(self.factors, _conj_factors(self.factors), key=_flat)

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

    Counts: 12 for three doublets, 42 for four.
    """
    if n_doublets < 2:
        raise ValueError("need at least 2 doublets")
    bilinears = [(a, b) for a in range(1, n_doublets + 1)
                 for b in range(1, n_doublets + 1) if a != b]
    seen = set()
    for f in bilinears:
        seen.add(Monomial.canonical((f,)))
    for f1, f2 in itertools.combinations_with_replacement(bilinears, 2):
        if f2 == (f1[1], f1[0]):
            continue  # |phi_a^dagger phi_b|^2 is neutral under the whole torus
        seen.add(Monomial.canonical((f1, f2)))
    return tuple(sorted(seen, key=lambda m: (len(m.factors), m.factors)))


def _check_range(m: Monomial, n_doublets: int) -> None:
    if not all(1 <= x <= n_doublets for x in _flat(m.factors)):
        raise ValueError(f"{m} names a doublet outside 1..{n_doublets}")


def raw_exponents(m: Monomial, n_doublets: int) -> tuple[int, ...]:
    """Net per-doublet exponent vector (count of phi_a minus phi_a^dagger)."""
    _check_range(m, n_doublets)
    out = [0] * n_doublets
    for a, b in m.factors:
        out[a - 1] -= 1
        out[b - 1] += 1
    return tuple(out)


def charge_vector(m: Monomial, basis: TorusBasis) -> ChargeVector:
    """Integer coefficients of the monomial's phase change in the torus angles.

    Each factor (phi_a^dagger phi_b) shifts the phase by psi_b - psi_a.
    """
    _check_range(m, basis.n_doublets)
    table = basis.differences
    return tuple(map(sum, zip(*(table[b - 1][a - 1] for a, b in m.factors))))


@lru_cache(maxsize=None)
def monomial_charges(n_doublets: int) -> MappingProxyType[Monomial, ChargeVector]:
    """Read-only map from each monomial of ``enumerate_monomials`` to its charge, in order."""
    basis = torus_basis(n_doublets)
    return MappingProxyType({m: charge_vector(m, basis) for m in enumerate_monomials(n_doublets)})


def phase_shift(m: Monomial, element: PhaseVector) -> Fraction:
    """Phase (units of 2*pi, mod 1) the monomial picks up under a diagonal element."""
    _check_range(m, len(element))
    total = Fraction(0)
    for a, b in m.factors:
        total += element.phases[b - 1] - element.phases[a - 1]
    return total % 1


def build_x_matrix(terms, basis: TorusBasis) -> IntMatrix:
    """Charge matrix of a term list: row i is the charge vector of terms[i]."""
    terms = list(terms)
    if not terms:
        raise ValueError("empty term list")
    return IntMatrix.from_rows([charge_vector(m, basis) for m in terms])


def charge_basis_matrix(n_doublets: int) -> IntMatrix:
    """Charges of the bilinears (phi_1^dagger phi_{i+1}), i = 1..N-1.

    These rows form a determinant-one basis of the charge space: every
    monomial charge is an integer combination of them with coefficients
    between -2 and 2.
    """
    basis = torus_basis(n_doublets)
    rows = [charge_vector(Monomial.canonical(((1, i),)), basis)
            for i in range(2, n_doublets + 1)]
    return IntMatrix.from_rows(rows)


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


def c_decompose(x: IntMatrix, n_doublets: int) -> tuple[IntMatrix, tuple[int | None, ...]]:
    """Factor a charge matrix as c @ A over the bilinear charge basis A.

    Returns c together with the nine-type classification of each row.  A row
    classifies as None only if it cannot come from a real monomial.
    """
    if x.cols != n_doublets - 1:
        raise ValueError(f"charge matrix needs {n_doublets - 1} columns")
    a_inv = inverse_unimodular(charge_basis_matrix(n_doublets))
    c = x @ a_inv
    return c, tuple(row_type(row) for row in c.entries)
