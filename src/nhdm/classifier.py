"""Classification of realizable abelian subgroups of the maximal torus.

The scan walks the closure of charge lattices under monomial additions,
deduplicating lattices by their canonical Hermite basis.  Every subset of
monomials spans one of the visited lattices, so the walk covers the
fixed-size subset scan.  Groups that would need more than N-1 terms do not
occur at N=2..6: walks without the full-rank skip below record none (the
tests pin them).  From each lattice the walk builds one child per coset that
is nonzero and that no earlier generator has, taken over the generators
after the last one of its witness, instead of one per generator; the
visited lattices, their order and their witnesses are the same either way
(see ``_lattice_scan``).  One ``hnf_residues`` pass per lattice gives the
cosets of all generators at once; a lattice of full rank takes none, as its
children are all recorded already.  A lattice's group is read off the Smith
diagonal of the block its unit pivots leave (``hnf_unit_split``), one
``smith_columns`` per distinct block; only the first lattice of each
reported group takes a full reading, whose v gives the generators of its
entry.

Realizability rests on the fact that the generic torus-symmetric potential
has no unitary symmetry beyond the torus itself, so the group computed from
any added term set is the full unitary symmetry group of backbone + terms.
The backbone gives each doublet its own mass term -m_a^2 (phi_a^dagger
phi_a), and generic masses are distinct.  A unitary symmetry U must keep the
mass matrix, U^dagger diag(m_a^2) U = diag(m_a^2), and the commutant of a
diagonal matrix with distinct entries is the diagonal algebra: X -> DX - XD
scales entry (i, j) by d_i - d_j, so its rank is N^2 - N (the tests read
that rank off a Smith form).  So U is diagonal and lies in the torus, where
the lattice walk is exact.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Sequence, TypeVar

from ._record import record
from .exactmath import IntMatrix, Rows, hnf_add, hnf_residues, hnf_unit_split, smith_columns
from .groups import GroupSignature, all_abelian_groups_up_to, group_from_snf
from .monomials import Monomial, charge_rows, monomial_charges
from .torus import PhaseVector, TorusBasis, element_from_angles, torus_basis

T = TypeVar("T")


@record
class SymmetryGroup:
    """Symmetry group of a term set: signature plus explicit generators.

    ``finite_generators`` are diagonal transformations generating the cyclic
    factors (one per invariant factor, in order).  ``torus_directions`` are
    integer angle-space vectors spanning the continuous part.
    """

    signature: GroupSignature
    finite_generator_angles: tuple[tuple[Fraction, ...], ...]
    finite_generators: tuple[PhaseVector, ...]
    torus_directions: tuple[tuple[int, ...], ...]


def _canonical_generator(column: tuple[int, ...], d: int) -> tuple[Fraction, ...]:
    """Lex-smallest coprime multiple of column/d, reduced mod 1.

    Any multiple k with gcd(k, d) = 1 generates the same cyclic factor; the
    smallest representative makes reports deterministic and matches hand
    calculations.  Every multiple has denominator d, so the minimum is taken
    over the integer numerator tuples k*c mod d, and only the least one
    becomes Fractions.
    """
    if d < 1:
        raise ValueError(f"cyclic order must be positive, got {d}")
    least = min(tuple(k * c % d for c in column) for k in range(1, d + 1) if gcd(k, d) == 1)
    return tuple(Fraction(x, d) for x in least)


def symmetry_group_of_terms(terms, basis: TorusBasis) -> SymmetryGroup:
    """Torus subgroup leaving every term invariant, with solved generators."""
    return _group_of_lattice(charge_rows(terms, basis), basis)


def _group_from_smith(d: tuple[int, ...], v: IntMatrix, basis: TorusBasis) -> SymmetryGroup:
    angles = []
    gens = []
    for i, di in enumerate(d):
        if di > 1:
            a = _canonical_generator(v.column(i), di)
            angles.append(a)
            gens.append(element_from_angles(basis, a))
    # the columns of v past the rank are the angle directions fixing every charge
    rank = sum(1 for x in d if x)
    return SymmetryGroup(group_from_snf(d, basis.n), tuple(angles), tuple(gens),
                         tuple(v.column(i) for i in range(rank, v.cols)))


def _group_of_lattice(rows: Rows, basis: TorusBasis) -> SymmetryGroup:
    return _group_from_smith(*smith_columns(rows, basis.n), basis)


@record
class ClassificationEntry:
    """One realizable group with a minimal witness term set."""

    signature: GroupSignature
    witness: tuple[Monomial, ...]
    generators: tuple[PhaseVector, ...]
    n_lattices: int


@record
class ClassificationResult:
    entries: tuple[ClassificationEntry, ...]
    max_finite_order: int

    def finite_signatures(self) -> tuple[GroupSignature, ...]:
        return tuple(e.signature for e in self.entries if e.signature.is_finite)

    def find(self, signature: GroupSignature) -> ClassificationEntry | None:
        return next((e for e in self.entries if e.signature == signature), None)


@lru_cache(maxsize=None)
def _lattice_scan(n_doublets: int) -> dict[Rows, tuple[Monomial, ...]]:
    """All charge lattices spanned by monomial subsets, keyed by HNF basis.

    N outside the supported range 2..6 raises ValueError before any charge
    is read; ``classify``, ``witness_potential`` and ``cp_bases`` rely on it.
    ``_walk`` over the monomial charges, one generator per charge up to sign,
    in ``enumerate_monomials`` order.  Children enter in (parent, generator
    index) order, so each lattice is recorded with the lex-least shortest
    sequence of generators that spans it as its witness; reordering such a
    sequence spans the same lattice, so the witness is sorted.  Three
    prunings leave the insertion order and every witness as they are:

    - A lattice L is extended only by the generators after the last one of
      its witness.  For an earlier generator g not in L, inserting g into
      the witness gives a sorted sequence spanning L + g whose prefix
      without the last term is lex-smaller than the witness of L, so L + g
      was already recorded from a lattice popped before L.
    - Of the remaining generators an edge is tried only for one whose
      residue modulo L, all taken by one ``hnf_residues(L, ...)``, is nonzero
      and belongs to no earlier generator.  A zero residue means g is
      already in L.  If g shares its residue with an earlier g' not in L,
      then L + g = L + g'.  For g' in the same loop, that edge came first;
      for g' before the start, the first bullet shows that L + g' was
      recorded from a lattice popped before L.
    - A lattice of full rank N-1 is not extended at all.  This rests on a
      premise verified, not proved: every lattice of this walk has a witness
      as long as its rank, for every lattice at N=2..6 (the tests check it).
      A child L + g of a full-rank L has full rank too, so its parent has
      depth N-2 and was popped before L, and L + g is already recorded.
      Widening the range past N=6 needs the premise verified again there.
      The premise is about the monomial charges: over other generators the
      walk can go deeper than the rank, so only this scan asks for the skip.
    """
    if not 2 <= n_doublets <= 6:
        raise ValueError("doublet count out of supported range (2..6)")
    generators: list[tuple[tuple[int, ...], Monomial]] = []
    seen_charges = set()
    for m, chg in monomial_charges(n_doublets).items():
        key = min(chg, tuple(-c for c in chg))
        if key not in seen_charges:
            seen_charges.add(key)
            generators.append((chg, m))
    return _walk(generators, skip_full_rank=True)


def _walk(generators: Sequence[tuple[tuple[int, ...], T]], *,
          skip_full_rank: bool = False) -> dict[Rows, tuple[T, ...]]:
    """Breadth-first closure of the zero lattice under (vector, label)
    generators, mapping each lattice to the labels of its witness, with the
    first two prunings described in ``_lattice_scan``; ``skip_full_rank``
    adds the third, which holds only under that scan's premise."""
    columns = list(zip(*(chg for chg, _ in generators)))
    states: dict[Rows, tuple[T, ...]] = {(): ()}
    frontier: deque[tuple[Rows, int]] = deque([((), 0)])
    while frontier:
        lattice, start = frontier.popleft()
        if skip_full_rank and len(lattice) == len(columns):
            continue
        witness = states[lattice]
        residues = hnf_residues(lattice, columns)
        tried = {(0,) * len(columns), *residues[:start]}
        for i, residue in enumerate(residues[start:], start):
            if residue in tried:
                continue
            tried.add(residue)
            grown = hnf_add(lattice, residue)
            if grown not in states:
                states[grown] = witness + (generators[i][1],)
                frontier.append((grown, i + 1))
    return states


@lru_cache(maxsize=None)
def classify(n_doublets: int) -> ClassificationResult:
    """Complete list of realizable subgroups of the maximal torus.

    One entry per abstract group, carrying the first minimal witness found.
    The trivial group is excluded.  The range 2..6 is checked by the walk,
    ``_lattice_scan``, which runs first.
    """
    states = _lattice_scan(n_doublets)
    basis = torus_basis(n_doublets)
    n = basis.n

    # Each group keeps its first lattice in the breadth-first insertion order,
    # which has a minimal witness.  A lattice's group is its Smith diagonal:
    # one 1 per unit pivot, then the diagonal of the block left without them,
    # so each distinct nonempty block takes one Smith diagonal.  The first
    # lattice of each group takes one full reading, whose d and v the
    # printed entries below use.
    primary: dict[GroupSignature, tuple] = {}
    counts: dict[GroupSignature, int] = {}
    signatures: dict[tuple[int, Rows, int], GroupSignature] = {}
    for lattice, witness in states.items():
        split = hnf_unit_split(lattice, n)
        sig = signatures.get(split)
        if sig is None:
            units, block, width = split
            d = (1,) * units + (smith_columns(block, width)[0] if block else ())
            sig = signatures[split] = group_from_snf(d, n)
        if sig.is_trivial:
            continue
        counts[sig] = counts.get(sig, 0) + 1
        if sig not in primary:
            primary[sig] = (witness, *smith_columns(lattice, n))

    entries = []
    for sig in sorted(primary, key=GroupSignature.sort_key):
        witness, d, v = primary[sig]
        group = _group_from_smith(d, v, basis)
        entries.append(ClassificationEntry(group.signature, witness, group.finite_generators,
                                           counts[sig]))
    max_order = max((int(e.signature.order()) for e in entries if e.signature.is_finite),
                    default=1)
    if max_order > 2 ** (n_doublets - 1):
        raise RuntimeError(f"order bound violated: a group of order {max_order} "
                           f"at N={n_doublets} exceeds 2^(N-1)")
    return ClassificationResult(tuple(entries), max_order)


@record
class OrderBoundReport:
    max_order: int
    bound: int
    bound_met: bool


def verify_order_bound(n_doublets: int) -> OrderBoundReport:
    """Check the exact bound 2^(N-1) on finite group orders: never exceeded,
    always attained."""
    if not 2 <= n_doublets <= 5:
        raise ValueError("doublet count out of supported range (2..5)")
    result = classify(n_doublets)
    bound = 2 ** (n_doublets - 1)
    return OrderBoundReport(result.max_finite_order, bound, result.max_finite_order == bound)


@record
class ConjectureProbe:
    """Realization status of every abelian group within the order bound.

    Purely informational: whether every such group is realizable for all N is
    an open question, and this report only states what the scan found.
    """

    bound: int
    realized: tuple[GroupSignature, ...]
    missing: tuple[GroupSignature, ...]


def probe_conjecture(n_doublets: int) -> ConjectureProbe:
    if not 2 <= n_doublets <= 5:
        raise ValueError("doublet count out of supported range (2..5)")
    result = classify(n_doublets)
    bound = 2 ** (n_doublets - 1)
    found = set(result.finite_signatures())
    realized = []
    missing = []
    for g in all_abelian_groups_up_to(bound):
        (realized if g in found else missing).append(g)
    return ConjectureProbe(bound, tuple(realized), tuple(missing))


def backbone_terms(n_doublets: int, pretty: bool = False) -> list[str]:
    """Rendered terms of the fully torus-symmetric potential.

    Every potential in the classification is understood as this backbone plus
    the witness terms; the backbone itself is neutral under all phase
    rotations.
    """
    phi = "φ" if pretty else "f"
    dag = "†" if pretty else "+"
    terms = [f"-m{a}^2 ({phi}{a}{dag} {phi}{a})" for a in range(1, n_doublets + 1)]
    terms += [f"L{a}{a} ({phi}{a}{dag} {phi}{a})^2" for a in range(1, n_doublets + 1)]
    for a in range(1, n_doublets + 1):
        for b in range(a + 1, n_doublets + 1):
            terms.append(f"L{a}{b} ({phi}{a}{dag} {phi}{a})({phi}{b}{dag} {phi}{b})")
            terms.append(f"L'{a}{b} |{phi}{a}{dag} {phi}{b}|^2")
    return terms


@record
class WitnessReport:
    n_doublets: int
    signature: GroupSignature
    realizable: bool
    witness: tuple[Monomial, ...]
    generators: tuple[PhaseVector, ...]

    def render(self, pretty: bool = False) -> str:
        if not self.realizable:
            return f"{self.signature} is not realizable as a torus subgroup for N={self.n_doublets}"
        lines = [f"group: {self.signature}"]
        lines.append("witness terms (added to the torus-symmetric backbone):")
        lines += [f"  {m.render(pretty)} + h.c." for m in self.witness] or [
            "  (torus-symmetric backbone only)"]
        if self.generators:
            lines.append("generators:")
            for g in self.generators:
                lines.append(f"  {g}")
        lines.append("backbone:")
        lines.append("  " + " + ".join(backbone_terms(self.n_doublets, pretty)))
        return "\n".join(lines)


def witness_potential(signature: GroupSignature, n_doublets: int) -> WitnessReport:
    """Witness term set for a signature, or a not-realizable report.

    ``classify`` leaves out the trivial group, whose lattice is every charge:
    the only lattice with an all-ones Smith diagonal, keyed by the identity
    as its Hermite basis.  The walk records it with a minimal witness, so the
    trivial group is read off the walk alone, which also checks the range,
    and takes no Smith form; every other group is looked up in ``classify``.
    """
    if signature.is_trivial:
        n = n_doublets - 1
        unit = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        return WitnessReport(n_doublets, signature, True, _lattice_scan(n_doublets)[unit], ())
    entry = classify(n_doublets).find(signature)
    if entry is None:
        return WitnessReport(n_doublets, signature, False, (), ())
    return WitnessReport(n_doublets, signature, True, entry.witness, entry.generators)
