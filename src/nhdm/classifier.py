"""Classification of realizable abelian subgroups of the maximal torus.

The scan walks the closure of charge lattices under monomial additions,
deduplicating lattices by their canonical Hermite basis.  Every subset of
monomials spans one of the visited lattices, so the walk covers the
fixed-size subset scan.  Groups that would need more than N-1 terms do not
occur at N=2..6: walks without the full-rank skip below record none (the
tests pin them).  Modulo a lattice the generators fall into residue
classes, and each class has a first index, the least index of a generator
in it.  From each lattice the walk builds one child per nonzero class whose
first index is past the last generator of its witness and not after the
first index of its negation's class, instead of one per generator; the
visited lattices, their order and their witnesses are the same either way
(see ``_lattice_scan``).  One ``hnf_residues`` pass per lattice, over the
distinct residues of its parent, gives every class with its first index,
and ``hnf_negation`` the negations of the classes past that start; a
lattice of full rank is not queued and takes neither, as its children are
all recorded already.  A lattice's group is read off the Smith diagonal of
the block its unit pivots leave (``hnf_unit_split``): the lattices are
counted per distinct block, and each block takes one ``smith_columns`` and
one signature.  Only the first lattice of each reported group takes a full
reading, whose v gives the generators of its entry.

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

from array import array
from collections import deque
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd
from typing import Iterable, Sequence

from ._record import record
from .exactmath import (IntMatrix, Rows, hnf_add, hnf_negation, hnf_residues, hnf_unit_split,
                        smith_columns, smith_rank)
from .groups import GroupSignature, all_abelian_groups_up_to, group_from_snf
from .monomials import Monomial, charge_rows, term_table
from .torus import PhaseVector, TorusBasis, element_from_angles, torus_basis


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
    rank = smith_rank(d)
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
def _lattice_scan(n_doublets: int) -> dict[Rows, tuple[int, ...]]:
    """All charge lattices spanned by monomial subsets, keyed by HNF basis.

    N outside the supported range 2..6 raises ValueError before any charge
    is read; ``classify``, ``witness_potential`` and ``cp_bases`` rely on it.
    ``_walk`` over the monomial charges, one generator per charge up to sign,
    in ``term_table`` order, each labelled by the index of its first term
    there: a witness is a tuple of term indices, which ``classify`` and
    ``witness_potential`` read back as monomials to report them.  Children
    enter in (parent, generator index) order, so each lattice is recorded
    with the lex-least shortest sequence of generators that spans it as its
    witness; reordering such a sequence spans the same lattice, so the
    witness is sorted.  Three prunings leave the insertion order and every
    witness as they are:

    - A lattice L is extended only by the generators after the last one of
      its witness.  For an earlier generator g not in L, inserting g into
      the witness gives a sorted sequence spanning L + g whose prefix
      without the last term is lex-smaller than the witness of L, so L + g
      was already recorded from a lattice popped before L.
    - Modulo L the generators fall into residue classes, all read by one
      ``hnf_residues(L, ...)`` over the distinct residues modulo the parent
      of L (see ``_walk``), and the first index of a class is the least
      index of a generator in it.  Of the remaining generators an edge is
      tried only for the first index i of a class that is not zero, and
      only if the class of its negation is absent or has a first index not
      less than i.  A zero class means g is already in L, so ``_walk``
      stores no zero residue.  Otherwise g or -g shares its class with a
      generator g' of smaller index, and L + g = L + g'.  By induction on
      the index, L + g' was reached first: in the same loop if g' is past
      the start, and from a lattice popped before L, by the first bullet,
      if not.  A class that is its own negation (an element of order 2
      modulo L) has i as the first index of both, so it is still tried.
      The classes whose first index lies before the start are read for
      this alone: at N=5 they stop 83,980 edges, and the walk would take
      51,541 ``hnf_add`` calls without them, not 11,500.
    - A lattice of full rank N-1 is recorded but not queued, so it is not
      extended at all.  This rests on a premise verified, not proved: every
      lattice of this walk has a witness as long as its rank, for every
      lattice at N=2..6 (the tests check it).
      A child L + g of a full-rank L has full rank too, so its parent has
      depth N-2 and was popped before L, and L + g is already recorded.
      Widening the range past N=6 needs the premise verified again there.
      The premise is about the monomial charges: over other generators the
      walk can go deeper than the rank, so only this scan asks for the skip.
    """
    if not 2 <= n_doublets <= 6:
        raise ValueError("doublet count out of supported range (2..6)")
    table = term_table(n_doublets)
    first: dict[tuple[int, ...], tuple[tuple[int, ...], int]] = {}  # by charge up to sign
    for t, chg in enumerate(table.charges):
        first.setdefault(min(chg, tuple(-c for c in chg)), (chg, t))
    return _walk(list(first.values()), skip_full_rank=True)


def _full_lattice(n_doublets: int) -> Rows:
    """The lattice of every charge, which ``_lattice_scan`` keys by the identity."""
    return IntMatrix.identity(n_doublets - 1).entries


def _walk(generators: Sequence[tuple[tuple[int, ...], int]], *,
          skip_full_rank: bool = False) -> dict[Rows, tuple[int, ...]]:
    """Breadth-first closure of the zero lattice under (vector, int label)
    generators, mapping each lattice to the labels of its witness (term
    indices, in ``_lattice_scan``), with the first two prunings described in
    ``_lattice_scan``; ``skip_full_rank`` adds the third, which holds only
    under that scan's premise: a full-rank child is recorded but not queued.

    Each queued lattice L' = L + g carries its witness and two objects
    shared by every child of its parent L: the distinct nonzero residues
    modulo L of the generators, in first-seen order, and the first index of
    each, which increases along them.  As L lies in L', a residue r = h - l
    modulo L, l in L, has the same residue modulo L' as h itself.  So the
    one ``hnf_residues`` pass of L' reduces only the residues L stores
    (36.8 of the 65 generators on average at N=5), and a class modulo L'
    keeps the first index of the first of them that lands in it, the least
    one.  The rule of ``_lattice_scan`` reads only classes and first
    indices, so the walk keeps no state per generator.  A zero class is
    never tried, so no store holds one: that of L' holds the residue of g,
    whose index is before the start.

    The residues are stored one after another, one byte per entry, in an
    ``array('b')`` for [-128, 127], and the first indices in an
    ``array('B')`` for [0, 255].  The whole walks at N=2..6 stay inside
    them, with residue entries up to 32 at N=5 and 80 at N=6 and indices
    up to 134 (135 generators at N=6).  A parent with a value outside its
    type keeps a tuple instead (``_packed``), never a truncated array; the
    property tests reach such residues with generator entries in [-4, 4].
    At N=6 all 82,575 lattices of depth 3 hold their residues while their
    children wait, so the store's size shows in the walk's peak: 534 MiB
    with this store, 538 MiB with one ``array('b')`` per coordinate.
    """
    width = len(generators[0][0]) if generators else 0
    states: dict[Rows, tuple[int, ...]] = {(): ()}
    # modulo the zero lattice, generator i is its own residue, first seen at i
    nonzero = [i for i, (chg, _) in enumerate(generators) if any(chg)]
    root = ((), (), 0, _packed("b", chain.from_iterable(generators[i][0] for i in nonzero)),
            _packed("B", nonzero))
    frontier: deque[tuple[Rows, tuple[int, ...], int, Sequence[int], Sequence[int]]] = deque([root])
    while frontier:
        lattice, witness, start, residues, firsts = frontier.popleft()
        distinct = hnf_residues(lattice, [residues[c::width] for c in range(width)])
        # read in reverse, each class keeps the least first index landing in it
        classes = dict(zip(reversed(distinct), reversed(firsts)))
        negated = hnf_negation(lattice)
        shared = None
        for residue, i in zip(distinct, firsts):
            # L + g = L - g; a class that is its own negation is its own
            # negation's first index too, so it is still tried
            if i < start or classes[residue] != i or classes.get(negated(residue), i) < i:
                continue
            grown = hnf_add(lattice, residue)
            if grown in states:
                continue
            states[grown] = grown_witness = witness + (generators[i][1],)
            if skip_full_rank and len(grown) == width:
                continue
            if shared is None:
                keys = dict.fromkeys(distinct)
                keys.pop((0,) * width, None)
                shared = (_packed("b", chain.from_iterable(keys)),
                          _packed("B", map(classes.__getitem__, keys)))
            frontier.append((grown, grown_witness, i + 1, *shared))
    return states


def _packed(typecode: str, values: Iterable[int]) -> Sequence[int]:
    """``values`` as an array of ``typecode``, or as a tuple if one does not fit."""
    values = list(values)
    try:
        return array(typecode, values)
    except OverflowError:
        return tuple(values)


@lru_cache(maxsize=None)
def classify(n_doublets: int) -> ClassificationResult:
    """Complete list of realizable subgroups of the maximal torus.

    One entry per abstract group, carrying the first minimal witness found,
    its term indices read back as the table's monomials.  The trivial group
    is excluded.  The range 2..6 is checked by the walk, ``_lattice_scan``,
    which runs first.
    """
    states = _lattice_scan(n_doublets)
    monomials = term_table(n_doublets).monomials
    basis = torus_basis(n_doublets)
    n = basis.n

    # Each group keeps its first lattice in the breadth-first insertion order,
    # which has a minimal witness.  A lattice's group is its Smith diagonal:
    # one 1 per unit pivot, then the diagonal of the block left without them.
    # So the lattices are counted per block, each block keeping its first
    # lattice, and each block takes one Smith diagonal and one signature, in
    # the order of its first lattice.  The first lattice of each group takes
    # one full reading, whose d and v the printed entries below use.
    blocks: dict[tuple[int, Rows, int], list] = {}
    for lattice, witness in states.items():
        blocks.setdefault(hnf_unit_split(lattice, n), [lattice, witness, 0])[2] += 1
    primary: dict[GroupSignature, tuple] = {}
    counts: dict[GroupSignature, int] = {}
    for (units, block, width), (lattice, witness, count) in blocks.items():
        d = (1,) * units + (smith_columns(block, width)[0] if block else ())
        sig = group_from_snf(d, n)
        if sig.is_trivial:
            continue
        if sig in counts:
            counts[sig] += count
        else:
            counts[sig] = count
            primary[sig] = (witness, *smith_columns(lattice, n))

    entries = []
    for sig in sorted(primary, key=GroupSignature.sort_key):
        witness, d, v = primary[sig]
        group = _group_from_smith(d, v, basis)
        entries.append(ClassificationEntry(group.signature, tuple(monomials[t] for t in witness),
                                           group.finite_generators, counts[sig]))
    max_order = max((int(e.signature.order()) for e in entries if e.signature.is_finite),
                    default=1)
    if max_order > _order_bound(n_doublets):
        raise RuntimeError(f"order bound violated: a group of order {max_order} "
                           f"at N={n_doublets} exceeds 2^(N-1)")
    return ClassificationResult(tuple(entries), max_order)


def _order_bound(n_doublets: int) -> int:
    """2^(N-1), the exact bound on the order of a finite group at N doublets."""
    return 2 ** (n_doublets - 1)


def _bounded_classification(n_doublets: int) -> tuple[ClassificationResult, int]:
    """``classify`` and the order bound, for N in 2..5 only."""
    if not 2 <= n_doublets <= 5:
        raise ValueError("doublet count out of supported range (2..5)")
    return classify(n_doublets), _order_bound(n_doublets)


@record
class OrderBoundReport:
    max_order: int
    bound: int
    bound_met: bool


def verify_order_bound(n_doublets: int) -> OrderBoundReport:
    """Check the exact bound 2^(N-1) on finite group orders: never exceeded,
    always attained."""
    result, bound = _bounded_classification(n_doublets)
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
    result, bound = _bounded_classification(n_doublets)
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

    ``classify`` leaves out the trivial group, whose lattice is every charge
    (``_full_lattice``): the only lattice with an all-ones Smith diagonal.
    The walk records it with a minimal witness, so the trivial group is read
    off the walk alone, which also checks the range, and takes no Smith
    form; its term indices are read back as the table's monomials.  Every
    other group is looked up in ``classify``.
    """
    if signature.is_trivial:
        witness = _lattice_scan(n_doublets)[_full_lattice(n_doublets)]
        monomials = term_table(n_doublets).monomials
        return WitnessReport(n_doublets, signature, True, tuple(monomials[t] for t in witness), ())
    entry = classify(n_doublets).find(signature)
    if entry is None:
        return WitnessReport(n_doublets, signature, False, (), ())
    return WitnessReport(n_doublets, signature, True, entry.witness, entry.generators)
