"""Helpers only the tests call, and earlier forms of library code kept as oracles.

The oracles are the generator-based group questions, union-find orbits and
Fraction charges that ``nhdm`` answered with before it asked everything
through the charge lattice; the tests require the library to agree with them.
"""

import itertools
from fractions import Fraction

from nhdm.exactmath import IntMatrix, snf
from nhdm.groups import GroupSignature, group_from_snf
from nhdm.monomials import monomial_charges


# -- helpers moved out of the library ------------------------------------------


def finite_groups_by_subset_scan(n_doublets: int) -> set[GroupSignature]:
    """Finite groups found by checking every subset of exactly N-1 monomials.

    This is the direct strategy the lattice walk supersedes; it is kept as an
    independent cross-check of completeness.
    """
    charges = monomial_charges(n_doublets)
    found: set[GroupSignature] = set()
    for subset in itertools.combinations(charges, n_doublets - 1):
        x = IntMatrix.from_rows([charges[m] for m in subset])
        res = snf(x)
        if all(res.d):
            sig = group_from_snf(res.d, n_doublets - 1)
            if not sig.is_trivial:
                found.add(sig)
    return found


def all_realized(probe) -> bool:
    """Whether a ``ConjectureProbe`` found every group within the bound."""
    return not probe.missing


def duplicate_charge_report(n_doublets: int) -> dict:
    """Charge vectors carried by more than one monomial (sign-insensitive)."""
    by_charge: dict = {}
    for m, chg in monomial_charges(n_doublets).items():
        key = min(chg, tuple(-x for x in chg))
        by_charge.setdefault(key, []).append(m)
    return {k: tuple(v) for k, v in sorted(by_charge.items()) if len(v) > 1}


def antiunitary_square(b):
    """(b J)^2 = b b* as a unitary matrix."""
    return b.compose(b.conjugate())


# -- oracles: the generator-based and union-find forms ---------------------------


def su_normalized(pv) -> tuple:
    """Representative with phase sum 0 mod 1 (determinant-one convention)."""
    shift = sum(pv.phases) / len(pv.phases)
    return tuple((p - shift) % 1 for p in pv.phases)


def pattern_scan(base, sign: int) -> list:
    """Permutations sigma with psi_a + sign * psi_{sigma(a)} constant per generator.

    Finite generators are compared mod 1 in their determinant-one form, and
    continuous directions need w_a + sign * w_{sigma(a)} == 0 exactly.
    """
    n = base.n_doublets
    finite = [su_normalized(g) for g in base.finite_generators]
    return [perm for perm in itertools.permutations(range(n))
            if all(len({(psi[a] + sign * psi[perm[a]]) % 1 for a in range(n)}) == 1
                   for psi in finite)
            and all(w[a] + sign * w[perm[a]] == 0 for w in base.doublet_weights
                    for a in range(n))]


def commutant_support(base) -> tuple:
    """Entries (i, j) where psi_i + psi_j vanishes up to a center shift for every
    finite generator and exactly for every continuous direction."""
    n = base.n_doublets
    finite = [su_normalized(g) for g in base.finite_generators]
    shifts = {Fraction(k, n) % 1 for k in range(n)}

    def allowed(i: int, j: int) -> bool:
        for psi in finite:
            if (psi[i] + psi[j]) % 1 not in shifts:
                return False
        return all(w[i] + w[j] == 0 for w in base.doublet_weights)

    return tuple(tuple(allowed(i, j) for j in range(n)) for i in range(n))


def components(terms, links) -> tuple:
    """Connected components of ``terms`` under the linked pairs (union-find), sorted."""
    parent = {m: m for m in terms}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in links:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    groups: dict = {}
    for m in terms:
        groups.setdefault(find(m), []).append(m)
    return tuple(sorted((tuple(sorted(v)) for v in groups.values()), key=lambda t: t[0]))


def sigma_cycles(sigma) -> list:
    """Cycles of a 0-based permutation, each sorted, by least element."""
    n = len(sigma)
    seen = [False] * n
    cycles = []
    for a in range(n):
        if not seen[a]:
            cyc = []
            x = a
            while not seen[x]:
                seen[x] = True
                cyc.append(x)
                x = sigma[x]
            cycles.append(tuple(sorted(cyc)))
    return cycles


def pair_classes(sigma) -> tuple:
    """Orbits of the unordered 1-based doublet pairs under sigma."""
    n = len(sigma)
    pair_seen: set = set()
    classes = []
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            if (a, b) in pair_seen:
                continue
            orbit = set()
            x, y = a, b
            while True:
                pair = tuple(sorted((x, y)))
                if pair in orbit:
                    break
                orbit.add(pair)
                x, y = sigma[x - 1] + 1, sigma[y - 1] + 1
            pair_seen |= orbit
            classes.append(tuple(sorted(orbit)))
    return tuple(classes)


def fraction_charge_vector(m, basis) -> tuple:
    """Charge of a monomial summed over the Fraction circle weights."""
    out = []
    for weight in basis.weights:
        total = Fraction(0)
        for a, b in m.factors:
            total += weight[b - 1] - weight[a - 1]
        if total.denominator != 1:
            raise ValueError(f"non-integer charge for {m}")
        out.append(int(total))
    return tuple(out)
