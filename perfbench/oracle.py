"""Independent check of ``symmetry_group_of_terms`` answers.

The group is recomputed from determinantal divisors: D_i is the gcd of all
i x i minors of the charge matrix (each a ``det``), the rank is the largest i
with D_i != 0, and the invariant factors are D_i / D_(i-1).  None of this
shares code with ``snf``.  The charges are recomputed here from the torus
basis weights, and the reported generators and torus directions are checked
directly against the terms:

- every finite generator leaves every term invariant (``phase_shift`` is 0);
- each generator has exactly the order of its invariant factor, modulo
  overall phases;
- every torus direction is orthogonal to every charge.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from nhdm import IntMatrix, Monomial, PhaseVector, det, torus_basis
from nhdm.monomials import phase_shift


_SCALED_WEIGHTS: dict[int, list[list[int]]] = {}


def charge(factors, n_doublets: int) -> tuple[int, ...]:
    """Charge of a term, from the torus basis weights scaled by N to integers."""
    if n_doublets not in _SCALED_WEIGHTS:
        _SCALED_WEIGHTS[n_doublets] = [[int(x * n_doublets) for x in w]
                                       for w in torus_basis(n_doublets).weights]
    out = []
    for w in _SCALED_WEIGHTS[n_doublets]:
        q, r = divmod(sum(w[b - 1] - w[a - 1] for a, b in factors), n_doublets)
        if r:
            raise ValueError(f"non-integer charge for {factors}")
        out.append(q)
    return tuple(out)


def invariant_factors(rows, ncols: int) -> tuple[tuple[int, ...], int]:
    """(invariant factors, rank) of an integer row matrix via determinantal divisors."""
    unique = []
    for r in rows:
        if any(r) and r not in unique and tuple(-x for x in r) not in unique:
            unique.append(r)
    factors = []
    prev = 1
    for i in range(1, min(len(unique), ncols) + 1):
        d = 0
        for rs in combinations(unique, i):
            for cs in combinations(range(ncols), i):
                d = gcd(d, det(IntMatrix(tuple(tuple(r[c] for c in cs) for r in rs))))
                if d == 1:
                    break
            if d == 1:
                break
        if d == 0:
            break
        factors.append(d // prev)
        prev = d
    return tuple(factors), len(factors)


def order_mod_center(phases: tuple[Fraction, ...]) -> int:
    return lcm(*(((p - phases[0]) % 1).denominator for p in phases))


def check_answer(n_doublets: int, terms, answer) -> str | None:
    """None when ``answer`` is right for the raw factor lists ``terms``, else why not."""
    finite, torus_rank, generators, directions = answer
    ncols = n_doublets - 1
    charges = [charge(f, n_doublets) for f in terms]
    factors, rank = invariant_factors(charges, ncols)
    want = [d for d in factors if d > 1]
    if list(finite) != want or torus_rank != ncols - rank:
        return f"group {finite}+U(1)^{torus_rank}, expected {want}+U(1)^{ncols - rank}"
    if len(generators) != len(finite) or len(directions) != torus_rank:
        return "generator or direction count differs from the group"
    monomials = [Monomial.canonical(f) for f in terms]
    for phases, order in zip(generators, finite):
        g = PhaseVector(tuple(Fraction(p) for p in phases))
        if any(phase_shift(m, g) != 0 for m in monomials):
            return f"generator {phases} moves a term"
        if order_mod_center(g.phases) != order:
            return f"generator {phases} does not have order {order}"
    for d in directions:
        if any(sum(x * y for x, y in zip(d, q)) for q in charges):
            return f"torus direction {d} is not orthogonal to every charge"
    return None
