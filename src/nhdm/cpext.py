"""Antiunitary (generalized-CP) extensions of torus subgroups.

Implements the five-step embedding strategy over generalized-permutation
matrices with exact rational phases:

1. find an involutive permutation pattern commuting with the chosen abelian group,
2. describe its centralizer among generalized permutations,
3. close the antiunitary coset so products of two antiunitaries land in the
   group (this quantizes the structural phases and picks one square per
   class of G / G^2),
4. restrict the invariant terms by antiunitary invariance, dropping terms
   whose coefficient is forced to vanish,
5. check that the restricted potential acquires no further unitary symmetry.
   A forced unitary must keep the backbone's mass and coupling classes, the
   cycles of the pattern sigma on doublets and on doublet pairs.  For an
   involution only the identity and sigma itself do, so step 5 asks sigma
   alone, and nothing when sigma is the identity.

Every question is read off an integer lattice.  The group is the set of
torus elements on which every charge in its lattice vanishes, so
``AbelianBase.contains_angles`` tests an element by checking that every
lattice row is integral on its circle angles.  By duality a character is
trivial on the whole group, continuous part included, exactly when its
charge lies in that lattice.
Invariant terms, commuting involutive patterns and the support of a
commuting antiunitary are each read off the cosets modulo that lattice
(``AbelianBase.cosets``) of charges built from the charges of
psi_a - psi_1 (``TorusBasis.bilinear_charges``): a zero coset is a trivial
character, and two equal cosets are characters that agree on the group.
The phase congruences of steps 3 to 5 are read through the lattice of a
``PhaseConstraintSystem``, kept as a Hermite basis over the head unknowns
(the entry phases, c0 and the torus angles) and one small block per term
orbit.  The structural-phase pins are head rows (``pin``), free of
coefficient phases psi, and an orbit's invariance relations carry only its
own terms' psi, so each orbit's rows, reduced once, make their own block
and only their psi-free combinations reach the head basis.
An orbit survives while the head basis stays solvable, and a unitary
symmetry is forced when the system fixes each relation its invariance
needs; a Smith form only writes phases.

Each term is read as its index in the one ``term_table`` of N doublets,
and every per-term fact here, psi included, is keyed by that index.  A
``Monomial`` is read back only to print a term, in the psi names of a
``layout`` and in a verdict's detail, and for the phase a term takes under
the Z3 clock of ``check_z3z3``.  Orbits and the surviving and killed
terms are listed by the table's ``rank``, which is ``Monomial`` order, as
reports print them.

Each fact is read at the level it depends on.  Per N and pattern, b or
b J, ``_term_action`` reads each term's image and invariance relation and
reduces each term orbit's rows by one Hermite form: none of it depends on
the base, whose invariant terms are a union of whole orbits.  Per
candidate only the psi-free rows of each orbit of invariant terms join the
pinned head basis.

Verdicts are exact for three doublets, where all cases are worked out; for
more doublets the generalized-permutation ansatz is a documented soundness
boundary (a "realizable" verdict is then best-effort).
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm

from ._record import record
from .classifier import SymmetryGroup, _full_lattice, _group_of_lattice, _lattice_scan
from .exactmath import (IntMatrix, Rows, hnf_add, hnf_contains, hnf_residues, hnf_rows, integers,
                        smith_bordered, smith_rank)
from .groups import GroupSignature, extend_by_antiunitary
from .monomials import phase_shift, term_table
from .torus import (PhaseVector, direction_weights, element_from_angles, equal_mod_center,
                    rational_phases, torus_basis)

Perm = tuple[int, ...]  # 0-based images: a -> perm[a]
Psi = tuple[tuple[int, int], ...]  # nonzero (term index, coefficient) pairs
_ZERO = Fraction(0)


# -- generalized permutation matrices -----------------------------------------


@record
class GenPermMatrix:
    """Unitary matrix with one phase entry per row and column.

    Acts on doublets as phi_a -> e(phases[a]) phi_{perm[a]} (indices 0-based
    internally; monomial factors are 1-based).  Phases are rational, in units
    of 2*pi, reduced mod 1.  Images are ints and phases ints or Fractions;
    anything else raises ValueError.
    """

    perm: Perm
    phases: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "perm", integers(self.perm, "permutation images"))
        if sorted(self.perm) != list(range(len(self.perm))):
            raise ValueError("not a permutation")
        if len(self.phases) != len(self.perm):
            raise ValueError("need one phase per row")
        object.__setattr__(self, "phases", rational_phases(self.phases))

    @classmethod
    def diagonal(cls, pv: PhaseVector) -> "GenPermMatrix":
        return cls(tuple(range(len(pv))), pv.phases)

    @classmethod
    def permutation(cls, perm: Perm) -> "GenPermMatrix":
        return cls(tuple(perm), (Fraction(0),) * len(perm))

    @property
    def n(self) -> int:
        return len(self.perm)

    def to_json(self) -> dict:
        return {"perm": [p + 1 for p in self.perm], "phases": [str(p) for p in self.phases]}

    def __str__(self) -> str:
        cols = ", ".join(f"{a + 1}->{b + 1}:e({p})" for a, (b, p) in
                         enumerate(zip(self.perm, self.phases)))
        return f"[{cols}]"


def commutes_with_diagonal(u: GenPermMatrix, pv: PhaseVector) -> bool:
    """Commutation modulo an overall scalar (PSU): u diag(pv) u^-1 is diag(pv[u.perm])."""
    if len(pv) != u.n:
        raise ValueError(f"a permutation of {u.n} doublets and {len(pv)} diagonal phases")
    return equal_mod_center(PhaseVector(tuple(pv.phases[b] for b in u.perm)), pv)


# -- the action of transformations on monomials -------------------------------


def _invariance_relation(m: int, image: int, conjugated: bool, exponents: tuple[int, ...]
                         ) -> tuple[tuple[int, ...], Psi]:
    """Invariance of the term m under a generalized permutation mapping it to image.

    The relation reads  entry-phase part + coefficient-phase part == 0
    (mod 1).  The entry phases of the transformation enter with the net
    ``exponents`` of m; coefficient matching adds psi_m, plus psi_image for
    a conjugated image or minus psi_image for a direct one.  Returns the
    entry coefficients and the nonzero psi coefficients by term index.
    """
    if image == m:
        return exponents, ((m, 2),) if conjugated else ()
    return exponents, ((m, 1), (image, 1 if conjugated else -1))


# -- exact linear congruence systems ------------------------------------------


def _particular(d: tuple[int, ...], v: IntMatrix, t, scale: int) -> list[Fraction]:
    """One solution of A x == b (mod 1), for a right-hand side b that has one.

    ``d`` and ``v`` come from the Smith form u @ A @ v == diag(d), and ``t``,
    up to the rank, from u @ (D b) for a ``scale`` D that makes D b integral:
    the border a Smith reading of A bordered by D b leaves.  Each t_i up to
    the rank is reduced mod D before it is divided by D d_i; (t_i mod D) / D
    is (u @ b)_i mod 1 for every such D, which fixes the representative the
    solution is read from.  The sums over the columns of v are taken in
    integers over one denominator.
    """
    rank = smith_rank(d)
    # y_i = (t_i mod D) / (D d_i), each put over the one denominator D lcm(d)
    common = lcm(*d[:rank])
    den = scale * common
    y = [x % scale * (common // di) for x, di in zip(t[:rank], d)]
    return [Fraction(sum(a * b for a, b in zip(row, y)) % den, den) for row in v.entries]


class PhaseConstraintSystem:
    """Linear congruences A x == b (mod 1) over rational unknowns indexed by position.

    ``unknowns`` labels the positions for ``render``.  ``column`` maps the
    term index of each coefficient phase psi to its position, which must be
    one of the trailing unknowns, in order, or ValueError is raised; the
    unknowns before them are the ``head``.  A row enters and is asked about
    as its head part and its psi entries by term index; only ``equations``,
    which ``solve`` reads, writes rows over every unknown, through ``column``.
    The system is read through one integer lattice L: with D the lcm of the
    denominators of b, L is spanned by the rows [A_i | D b_i] and (0, ..., 0, D).

    - Its elements with zero A-part are (0, y D b + k D) for integer y with
      y A == 0, so the Hermite basis of L ends in a row (0, ..., 0, t) with t
      dividing D, and the congruences are solvable exactly when t == D, that
      is when y b is an integer for every such y (``solvable``).
    - For a solvable system, an integer row w has w x an integer on every
      solution x exactly when (w, 0) lies in L (``fixes``).  The solutions
      are x0 + S with S = {s : A s integral}, the dual of the row lattice of
      A, whose dual is that row lattice again.  So w x is integral on S
      exactly when w == y A for an integer y, and then w x0 == y b (mod 1),
      which is an integer exactly when (w, 0) == y [A | D b] - (y b)(0, D)
      lies in L.

    L is never written out over all unknowns.  Head rows carry no psi
    (``pin``); whole term orbits (``_join``) carry the psi of their own
    terms, which no other orbit carries, with right-hand side 0.  ``basis``
    is the Hermite basis of the elements of L with zero psi part, over the
    head and the scaled right-hand side, and ``blocks`` maps the index of
    each psi term to its orbit (``TermOrbit``), whose block rows span the
    rest.  Distinct blocks have disjoint psi, so the Hermite basis of L with
    the psi columns first is block-diagonal in psi and its zero-psi rows
    span exactly the lattice of ``basis``, whose last row is that of L.
    """

    def __init__(self, unknowns, *, column: dict[int, int] | None = None):
        self.unknowns: tuple[str, ...] = tuple(unknowns)
        self.column: dict[int, int] = {} if column is None else column
        self.head = len(self.unknowns) - len(self.column)
        if list(self.column.values()) != list(range(self.head, len(self.unknowns))):
            raise ValueError(f"coefficient phases at {list(self.column.values())} are not "
                             f"the last {len(self.column)} of {len(self.unknowns)} unknowns")
        self.scale = 1
        self.basis: Rows = ((0,) * self.head + (1,),)
        self.blocks: dict[int, TermOrbit] = {}
        self._equations: list[tuple[tuple[int, ...], Psi, Fraction]] = []

    @property
    def equations(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Each congruence as (coefficients over every unknown, right-hand side)."""
        out = []
        for head, psi, rhs in self._equations:  # an orbit's rows end after the entry phases
            row = list(head) + [0] * (len(self.unknowns) - len(head))
            for t, c in psi:
                row[self.column[t]] = c
            out.append((tuple(row), rhs))
        return out

    def _head_row(self, head) -> tuple[int, ...]:
        """``head`` as a tuple of ints, one per head unknown, or ValueError."""
        head = integers(head, "coefficients")
        if len(head) != self.head:
            raise ValueError(f"need {self.head} head coefficients, got {len(head)}")
        return head

    def pin(self, head, rhs) -> None:
        """Append  sum head[j] * unknowns[j] == rhs (mod 1): one int per head unknown, int or
        Fraction rhs, or ValueError.  Coefficient phases enter only with a term orbit."""
        head = self._head_row(head)
        (rhs,) = rational_phases((rhs,))
        self._equations.append((head, (), rhs))
        if self.scale % rhs.denominator:
            # scaling the last column keeps ``basis`` in Hermite form: it is a
            # pivot column only in the last row
            k = lcm(self.scale, rhs.denominator) // self.scale
            self.basis = tuple(r[:-1] + (r[-1] * k,) for r in self.basis)
            self.scale *= k
        self.basis = hnf_add(self.basis, head + (rhs.numerator * (self.scale // rhs.denominator),))

    def _join(self, orbit: TermOrbit) -> bool:
        """Add a term orbit of ``TermAction.orbits``, unless the system would become unsolvable.

        Its terms are in no block, so only its ``free`` rows reach ``basis``,
        padded with zeros past the entry phases.  When the grown basis is
        unsolvable nothing changes and False comes back; otherwise the
        orbit's relations join, and it becomes the block of its terms.
        """
        basis = self.basis
        for row in orbit.free:
            basis = hnf_add(basis, row + (0,) * (self.head + 1 - len(row)))
        if basis[-1][-1] != self.scale:
            return False
        self.basis = basis
        self._equations.extend((xi, psi, _ZERO) for xi, psi in orbit.relations)
        if orbit.block:
            self.blocks.update(dict.fromkeys(orbit.terms, orbit))
        return True

    def solvable(self) -> bool:
        """The congruences have a solution: the last pivot of ``basis`` is D."""
        return self.basis[-1][-1] == self.scale

    def fixes(self, head, psi: dict[int, int]) -> bool:
        """w x is an integer on every solution x: (w, 0) lies in the lattice.

        w is a ``head`` part, as for ``pin``, and integer ``psi`` entries by
        term index, read but not changed.  Those on an orbit's terms, with the
        entry-phase prefix of the head vector, are reduced against the
        orbit's block; a psi remainder, or a psi entry in no block, leaves
        (w, 0) outside L.  The head vector left over must lie in ``basis``.
        """
        head = self._head_row(head)
        psi = {t: c for t, c in zip(psi, integers(psi.values(), "coefficients")) if c}
        if not self.solvable():
            return True
        vec = head + (0,)
        while psi:
            orbit = self.blocks.get(next(iter(psi)))
            if orbit is None:
                return False
            k = len(orbit.terms)
            n = len(orbit.block[0]) - k
            residue = hnf_residues(orbit.block, [(psi.pop(t, 0),) for t in orbit.terms] +
                                   [(x,) for x in vec[:n]])[0]
            if any(residue[:k]):
                return False
            vec = residue[k:] + vec[n:]
        return hnf_contains(self.basis, vec)

    def solve(self) -> list[Fraction] | None:
        """One solution, indexed like ``unknowns``, or None.

        It is read from a Smith form of A bordered by the one column D b,
        with D the ``scale``, the lcm of the denominators of b.
        """
        if not self.solvable():
            return None
        rows = [row + (rhs.numerator * (self.scale // rhs.denominator),)
                for row, rhs in self.equations]
        d, v, border = smith_bordered(rows, len(self.unknowns))
        return _particular(d, v, [t for (t,) in border], self.scale)

    def render(self) -> list[str]:
        out = []
        for head, psi, rhs in self._equations:
            parts = []
            for name, c in sorted([(self.unknowns[j], c) for j, c in enumerate(head) if c] +
                                  [(self.unknowns[self.column[t]], c) for t, c in psi]):
                if c == 1:
                    parts.append(f"+ {name}")
                elif c == -1:
                    parts.append(f"- {name}")
                else:
                    parts.append(f"{'+' if c > 0 else '-'} {abs(c)}*{name}")
            lhs = " ".join(parts).lstrip("+ ") or "0"
            out.append(f"{lhs} = {rhs} (mod 1)")
        return out


# -- abelian bases -------------------------------------------------------------


@record
class AbelianBase:
    """The torus subgroup fixing every charge in ``lattice``, a Hermite basis.

    Its group facts come from one Smith reading, ``group``, and the columns
    of its candidates' phase systems from one ``layout``, each taken on
    first use.
    """

    n_doublets: int
    lattice: Rows

    @classmethod
    def from_lattice(cls, n_doublets: int, rows) -> "AbelianBase":
        """The group fixing every charge in the span of ``rows``, each of N-1 integers."""
        n = torus_basis(n_doublets).n
        rows = [integers(row, "lattice rows") for row in rows]
        if any(len(row) != n for row in rows):
            raise ValueError(f"lattice rows need {n} entries for {n_doublets} doublets")
        return cls(n_doublets, hnf_rows(rows))

    @cached_property
    def group(self) -> SymmetryGroup:
        """Signature, finite generators and continuous directions, from one Smith form."""
        return _group_of_lattice(self.lattice, torus_basis(self.n_doublets))

    @cached_property
    def doublet_weights(self) -> tuple[tuple[int, ...], ...]:
        """Per-doublet weights of each continuous direction of ``group``."""
        basis = torus_basis(self.n_doublets)
        return tuple(direction_weights(basis, d) for d in self.group.torus_directions)

    @cached_property
    def layout(self) -> tuple[tuple[str, ...], dict[int, int]]:
        """Unknowns of a candidate's phase system and the column of each invariant term's psi.

        The columns are the entry phases xi_1..xi_N of the generator, the
        overall phase c0, one angle t_i per continuous direction, then one
        psi per invariant term, in index order: the keys of the positions
        map.  Each psi is named by its monomial.  The columns before the
        first psi are the head of ``phase_system``.
        """
        invariant = self.invariant_monomials()
        monomials = term_table(self.n_doublets).monomials
        names = [f"xi{a}" for a in range(1, self.n_doublets + 1)]
        names += ["c0"] + [f"t{i}" for i in range(1, len(self.doublet_weights) + 1)]
        positions = {t: len(names) + k for k, t in enumerate(invariant)}
        names += [f"psi[{monomials[t].render()}]" for t in invariant]
        return tuple(names), positions

    def phase_system(self) -> PhaseConstraintSystem:
        """An empty phase system over ``layout``, whose head is the unknowns before the psi."""
        unknowns, column = self.layout
        return PhaseConstraintSystem(unknowns, column=column)

    def cosets(self, charges) -> list[tuple[int, ...]]:
        """Each charge modulo ``lattice``, in order, from one ``hnf_residues`` pass.

        A zero coset is a character trivial on the whole group, and two equal
        cosets are two characters that agree on it.
        """
        columns = [[chg[c] for chg in charges] for c in range(self.n_doublets - 1)]
        return hnf_residues(self.lattice, columns)

    def invariant_monomials(self) -> tuple[int, ...]:
        """The index of each term left invariant by every element of the group, in order."""
        cosets = self.cosets(term_table(self.n_doublets).charges)
        return tuple(t for t, coset in enumerate(cosets) if not any(coset))

    def contains_angles(self, angles) -> bool:
        """Membership of ``element_from_angles(basis, angles)``: a charge r shifts
        its phase by r . angles, which must be integral for every lattice row.
        Angles are ints or Fractions; anything else raises ValueError."""
        angles = rational_phases(angles)
        if len(angles) != self.n_doublets - 1:
            raise ValueError(f"need {self.n_doublets - 1} angles, got {len(angles)}")
        return all(sum(r * a for r, a in zip(row, angles)).denominator == 1
                   for row in self.lattice)


@lru_cache(maxsize=None)
def _involutions(n: int) -> tuple[Perm, ...]:
    """The permutations of n doublets that are their own inverse, in sorted order."""
    return tuple(s for s in itertools.permutations(range(n)) if all(s[s[a]] == a for a in range(n)))


@lru_cache(maxsize=None)
def _pair_charges(n: int) -> tuple[Rows, Rows]:
    """Two charges per doublet pair (i, j) of n doublets, at position i * n + j, read once per N.

    The first is s(i, j), the charge of psi_i + psi_j - 2 psi_0: rows i and
    j of ``bilinear_charges`` summed.  The second is N s(i, j) - 2 sum_c row
    c, the charge of N (psi_i + psi_j) - 2 sum_c psi_c.
    """
    rows = torus_basis(n).bilinear_charges
    total = [sum(column) for column in zip(*rows)]
    sums = tuple(tuple(x + y for x, y in zip(rows[i], rows[j])) for i in range(n) for j in range(n))
    return sums, tuple(tuple(n * s - 2 * t for s, t in zip(pair, total)) for pair in sums)


def commuting_involutions(base: AbelianBase) -> list[Perm]:
    """Involutive patterns sigma with psi_a + psi_{sigma(a)} constant on the group.

    That is, every s(a, sigma(a)) lies in one coset, with s(i, j) the charge
    of psi_i + psi_j - 2 psi_0 (``_pair_charges``): s(a, sigma(a)) - s(0,
    sigma(0)) is (psi_a - psi_0) + (psi_sigma(a) - psi_sigma(0)).  A matrix
    b supported on such a pattern makes b J commute with the whole group; no
    other generalized permutation can.  Only an involution keeps (b J)^2
    diagonal.
    """
    n = base.n_doublets
    coset = base.cosets(_pair_charges(n)[0])
    return [sigma for sigma in _involutions(n)
            if len({coset[a * n + sigma[a]] for a in range(n)}) == 1]


def commutant_support(base: AbelianBase) -> tuple[tuple[bool, ...], ...]:
    """Entry pattern (i, j) where an antiunitary b J may have support.

    An entry is allowed when psi_i + psi_j is a center phase on the whole
    group, that is when N (psi_i + psi_j) - 2 sum_c psi_c (``_pair_charges``)
    has a zero coset.  The N^2 cosets are read in one pass.
    """
    n = base.n_doublets
    coset = base.cosets(_pair_charges(n)[1])
    return tuple(tuple(not any(coset[i * n + j]) for j in range(n)) for i in range(n))


# -- candidate construction -----------------------------------------------------


def _cycles(items, image) -> tuple[tuple, ...]:
    """Cycles of the permutation ``image`` of ``items``, each sorted, in sorted order."""
    seen = set()
    cycles = []
    for x in items:
        cycle = []
        while x not in seen:
            seen.add(x)
            cycle.append(x)
            x = image(x)
        if cycle:
            cycles.append(tuple(sorted(cycle)))
    return tuple(sorted(cycles))


@record
class TermOrbit:
    """One orbit of terms under a generalized permutation, with its invariance rows reduced once.

    ``terms`` are term indices, in increasing order, which is the order of
    their columns in any phase system.  ``relations`` holds one row per
    term, (entry-phase part, nonzero (term index, psi coefficient) pairs),
    with right-hand side 0.  Of their Hermite basis over the psi of
    ``terms`` then the entry phases, ``block`` holds the rows with psi
    pivots, or is None without psi, and ``free`` the rest without their psi
    part.
    """

    terms: tuple[int, ...]
    relations: tuple[tuple[tuple[int, ...], Psi], ...]
    block: Rows | None
    free: Rows

    @classmethod
    def reduced(cls, terms: tuple[int, ...], relations: tuple) -> "TermOrbit":
        """The orbit of ``terms`` with the rows ``relations``, reduced by one ``hnf_rows``."""
        rows = hnf_rows([tuple(map(dict(psi).get, terms, [0] * len(terms))) + xi
                         for xi, psi in relations])
        kept = sum(1 for r in rows if any(r[:len(terms)]))  # the psi pivots come first
        return cls(terms, relations, rows[:kept] or None,
                   tuple(r[len(terms):] for r in rows[kept:]))


@record
class TermAction:
    """The action of a generalized permutation with pattern ``perm`` on the terms of N doublets.

    Both tuples are indexed by term (``term_table``): ``images`` holds each
    term's (image index, conjugated) and ``relations`` its
    ``_invariance_relation``, over the entry phases xi_1..xi_N and the psi
    of the terms.  ``orbits``, taken on first use, lists the orbits in
    ``Monomial`` order of their first terms, by the table's ``rank``, each
    reduced once (``TermOrbit.reduced``); a verdict reads only the images and
    relations.
    """

    perm: Perm
    images: tuple[tuple[int, bool], ...]
    relations: tuple[tuple[tuple[int, ...], Psi], ...]

    @cached_property
    def orbits(self) -> tuple[TermOrbit, ...]:
        rank = term_table(len(self.perm)).rank
        cycles = _cycles(range(len(self.images)), lambda t: self.images[t][0])
        return tuple(TermOrbit.reduced(terms, tuple(self.relations[t] for t in terms))
                     for terms in sorted(cycles, key=lambda cycle: rank[cycle[0]]))


@lru_cache(maxsize=None)
def _term_action(perm: Perm, conjugating: bool) -> TermAction:
    """The action of b, or of b J when ``conjugating``, for b supported on the pattern ``perm``.

    None of it depends on a base: a pattern that commutes with the group
    maps invariant terms to invariant terms, so the invariant terms are a
    union of whole orbits, and each orbit's rows, right-hand sides 0, meet
    no other orbit's psi.  The images under b J are those under b with the
    flag flipped, since no term is its own conjugate: b J conjugates, then
    permutes.
    """
    table = term_table(len(perm))
    if conjugating:
        images = tuple((img, not flag) for img, flag in _term_action(perm, False).images)
    else:
        images = tuple((table.index[img.factors], conjugated)
                       for img, conjugated in (m.permuted(perm) for m in table.monomials))
    return TermAction(perm, images, tuple(_invariance_relation(t, *images[t], table.exponents[t])
                                          for t in range(len(images))))


@record
class BackboneClasses:
    """Coefficient identifications forced on the torus-symmetric backbone.

    Antiunitary invariance only ever permutes backbone terms, so the forced
    restrictions are equalities along the orbits of the permutation pattern:
    one class per cycle for the mass/self-coupling indices, one per pair
    orbit for the cross couplings.
    """

    single_classes: tuple[tuple[int, ...], ...]   # 1-based doublet indices
    pair_classes: tuple[tuple[tuple[int, int], ...], ...]

    def equalities(self) -> list[str]:
        out = []
        for cls in self.single_classes:
            if len(cls) > 1:
                out.append(" = ".join(f"m{a}^2" for a in cls))
                out.append(" = ".join(f"L{a}{a}" for a in cls))
        for cls in self.pair_classes:
            if len(cls) > 1:
                out.append(" = ".join(f"L{a}{b}" for a, b in cls))
                out.append(" = ".join(f"L'{a}{b}" for a, b in cls))
        return out


def backbone_classes(sigma: Perm) -> BackboneClasses:
    doublets = range(1, len(sigma) + 1)
    singles = _cycles(doublets, lambda a: sigma[a - 1] + 1)
    pairs = _cycles(itertools.combinations(doublets, 2),
                    lambda p: tuple(sorted((sigma[p[0] - 1] + 1, sigma[p[1] - 1] + 1))))
    return BackboneClasses(singles, pairs)


@record
class CpCandidate:
    """One possible abelian extension of a torus subgroup by one generalized permutation.

    The generator is the antiunitary b J of ``cp_extensions``, or a unitary
    b as in ``check_z3z3``.  ``square`` is the power of the generator that
    lands in the base: the unitary part of (b J)^2, or b^3 for the Z3 x Z3
    cycle.  The constraint system collects the structural-phase pinning and
    the coefficient conditions required for invariance of the surviving terms.
    Its unknowns and psi columns are ``base.layout``, and it keys each psi
    by its term index.  The surviving and killed terms are term indices in
    ``Monomial`` order, and the magnitude classes the surviving orbits; the
    backbone classes are ``backbone_classes(sigma)``.
    """

    base: AbelianBase
    sigma: Perm
    square: PhaseVector
    signature: GroupSignature
    system: PhaseConstraintSystem
    surviving: tuple[int, ...]
    killed: tuple[int, ...]
    magnitude_classes: tuple[tuple[int, ...], ...]


def cp_extensions(base: AbelianBase) -> list[CpCandidate]:
    """All candidate abelian extensions of ``base`` by an antiunitary generator.

    Candidates are indexed by a commuting involutive pattern and the class
    of the generator's square in G / G^2, pinned to its element with
    exponents 0 or 1 on the even cyclic factors and 0 on the odd ones.  With
    none the empty list comes back before the invariant terms and group
    facts are read.  The term images, invariance relations and reduced
    orbits of each pattern are read once per N (``_term_action``), the
    starred signatures once per unitary signature and square exponents.
    Per base the layout and square classes are read once, and per candidate
    the pinned system and its restriction, which joins the pattern's orbits
    of invariant terms as they are.
    """
    involutions = commuting_involutions(base)
    if not involutions:
        return []
    # J -> J h (h in G) turns J^2 into J^2 h^2, so a pin's solvability and the
    # starred group depend only on the class of the square in G / G^2
    basis = torus_basis(base.n_doublets)
    angles = base.group.finite_generator_angles
    classes = [(_starred(base.group.signature, expts),
                element_from_angles(basis, [sum(a[k] for e, a in zip(expts, angles) if e)
                                            for k in range(basis.n)]))
               for expts in itertools.product(*(range(gcd(2, d))
                                                for d in base.group.signature.finite))]
    candidates: list[CpCandidate] = []
    for sigma in involutions:
        action = _term_action(sigma, True)
        for signature, f in classes:
            pin = _pin_system(base, sigma, f)
            if pin.solvable():
                candidates.append(CpCandidate(base, sigma, f, signature, *_restrict(pin, action)))
    return candidates


@lru_cache(maxsize=None)
def _starred(signature: GroupSignature, square_exponents: tuple[int, ...]) -> GroupSignature:
    """``extend_by_antiunitary``, taken once per unitary signature and square exponents."""
    return extend_by_antiunitary(signature, square_exponents)


def _pin_system(base: AbelianBase, sigma: Perm, f: PhaseVector) -> PhaseConstraintSystem:
    """Structural-phase equations pinning (b J)^2 to the element f.

    Row a reads  xi_a - xi_sigma(a) - c0 - sum_i w_i[a] t_i == f_a (mod 1).
    """
    n = base.n_doublets
    system = base.phase_system()
    for a in range(n):
        head = [int(x == a) - int(x == sigma[a]) for x in range(n)]
        system.pin(head + [-1] + [-w[a] for w in base.doublet_weights], f.phases[a])
    return system


def _restrict(system: PhaseConstraintSystem, action: TermAction) -> tuple:
    """Restrict the terms orbit by orbit, keeping each orbit that leaves ``system`` solvable.

    The orbits are ``action.orbits``, reduced once per action; orbits of
    terms that are not psi of ``system`` are skipped.  Per orbit only its
    psi-free rows are added to the head basis; a kept orbit's block and
    relations join ``system`` as they are (``_join``).  Returns the grown
    system, the surviving and the killed terms, each sorted by the table's
    ``rank``, and the magnitude classes: surviving terms linked by the
    action, which are exactly the surviving orbits.
    """
    rank = term_table(len(action.perm)).rank.__getitem__
    surviving, killed, classes = [], [], []
    for orbit in action.orbits:
        if orbit.terms[0] not in system.column:
            continue
        if system._join(orbit):
            surviving.extend(orbit.terms)
            classes.append(orbit.terms)
        else:
            killed.extend(orbit.terms)
    return (system, tuple(sorted(surviving, key=rank)), tuple(sorted(killed, key=rank)),
            tuple(classes))


# -- realizability verdicts -----------------------------------------------------


@record
class CpVerdict:
    kind: str  # "realizable" | "enlarged_unitary" | "continuous_degeneration"
    detail: str
    witness: GenPermMatrix | None = None

    @property
    def realizable(self) -> bool:
        return self.kind == "realizable"

    def to_json(self) -> dict:
        return {"kind": self.kind, "detail": self.detail,
                "witness": self.witness.to_json() if self.witness else None}


def cp_realizable(candidate: CpCandidate) -> CpVerdict:
    """Decide whether a candidate extension is the full symmetry group.

    Degeneration: dropping terms left too small a charge lattice, so the
    unitary symmetry grows beyond the base (continuously, in every case that
    occurs here).  Enlarged unitary: the forced coefficient restrictions make
    some non-diagonal generalized permutation a symmetry of every admissible
    potential; the witness is returned.  Such a permutation keeps the
    backbone classes of the involution sigma, so it is sigma itself, and only
    sigma is asked, once, unless it is the identity.  Otherwise the candidate
    is realizable.
    """
    base = candidate.base
    table = term_table(base.n_doublets)
    surv = AbelianBase(base.n_doublets, hnf_rows([table.charges[t] for t in candidate.surviving]))
    # surviving and killed terms make up the invariant set, so the surviving
    # lattice is the full invariant lattice unless it misses a killed charge
    if any(map(any, surv.cosets([table.charges[t] for t in candidate.killed]))):
        if surv.group.signature.torus_rank > base.group.signature.torus_rank:
            return CpVerdict(
                "continuous_degeneration",
                f"dropping {', '.join(str(table.monomials[t]) for t in candidate.killed)} "
                f"leaves the diagonal symmetry {surv.group.signature}, strictly larger than "
                f"{base.group.signature}")
        witness_gen = next((g for angles, g in zip(surv.group.finite_generator_angles,
                                                   surv.group.finite_generators)
                            if not base.contains_angles(angles)), None)
        if witness_gen is None:
            raise RuntimeError(f"surviving lattice of {candidate.signature} differs from the "
                               "base lattice but no generator leaves the base group")
        return CpVerdict(
            "enlarged_unitary",
            f"surviving terms are invariant under the extra diagonal {witness_gen}",
            GenPermMatrix.diagonal(witness_gen))

    sigma = candidate.sigma
    forced = None if sigma == tuple(range(base.n_doublets)) else _forced_symmetry(candidate, sigma)
    if forced is None:
        return CpVerdict("realizable", "no further unitary symmetry is forced")
    noncomm = _noncommuting_generator(base, forced)
    extra = f"; does not commute with {noncomm}" if noncomm else ""
    return CpVerdict("enlarged_unitary",
                     f"coefficient restrictions force the unitary symmetry {forced}{extra}", forced)


def _noncommuting_generator(base: AbelianBase, u: GenPermMatrix) -> PhaseVector | None:
    for g in base.group.finite_generators:
        if not commutes_with_diagonal(u, g):
            return g
    for w in base.doublet_weights:
        if any(w[a] != w[u.perm[a]] for a in range(u.n)):
            # the shifts w[u(a)] - w[a] lie in [-2M, 2M], sum to 0 and are not
            # all 0, so two differ by 1 to 4M and the angle 1/d fails to
            # commute for some d from 2M + 1 to 4M + 1
            top = 2 * max(abs(x) for x in w)
            for denom in range(top + 1, 2 * top + 2):
                g = PhaseVector(tuple(Fraction(x, denom) for x in w))
                if not commutes_with_diagonal(u, g):
                    return g
    return None


def _forced_symmetry(candidate: CpCandidate, perm: Perm) -> GenPermMatrix | None:
    """Unitary witness with permutation ``perm`` if one is forced, else None.

    Forced means: for every admissible coefficient assignment there are
    entry phases making the generalized permutation a symmetry of backbone
    plus surviving terms.  Each surviving term's (image, conjugated) under
    ``perm`` and its invariance relation are read from
    ``_term_action(perm, False)``, once per N, with psi keyed by term index
    as in the candidate's system.  A ``perm`` that moves a surviving term out of
    its magnitude class is not forced.
    The candidate's system must be solvable, or RuntimeError is raised.
    The invariance relations read R theta == -P psi (mod 1), one row per
    surviving term, P over the surviving terms' psi.  One Smith reading of
    R bordered by P gives u @ R @ v == diag(d) and the border u @ P: the
    relations are solvable exactly when z @ P @ psi is an integer for each
    row z @ P of the border past the rank, so each must be fixed by the
    candidate's system.  Only then is the system solved: the witness phases
    are read from the rows up to the rank times one particular solution's
    coefficient phases, over their common denominator.
    """
    if not candidate.system.solvable():
        raise RuntimeError(f"phase constraints of candidate {candidate.signature} "
                           "have no solution")
    action = _term_action(perm, False)
    n = candidate.base.n_doublets
    surviving = candidate.surviving
    index = {t: n + k for k, t in enumerate(surviving)}
    klass = {t: i for i, cls in enumerate(candidate.magnitude_classes) for t in cls}
    rows = []  # entry coefficients, then psi coefficients over ``surviving``, per surviving term
    for t in surviving:
        if klass.get(action.images[t][0]) != klass[t]:
            return None  # the image is not a surviving term of the same magnitude
        theta, psi = action.relations[t]
        row = [*theta] + [0] * len(surviving)
        for term, c in psi:
            row[index[term]] = c
        rows.append(row)

    d, v, border = smith_bordered(rows, n)
    rank = smith_rank(d)
    zero = (0,) * candidate.system.head
    for z in border[rank:]:
        if not candidate.system.fixes(zero, dict(zip(surviving, z))):
            return None
    particular = candidate.system.solve()
    column = candidate.system.column
    psi = [particular[column[t]] for t in surviving]
    scale = lcm(*(p.denominator for p in psi))
    scaled = [p.numerator * (scale // p.denominator) for p in psi]
    t = [-sum(map(operator.mul, z, scaled)) for z in border]
    if any(x % scale for x in t[rank:]):
        raise RuntimeError(f"the forced symmetry {perm} of candidate {candidate.signature} "
                           "does not solve its invariance relations")
    return GenPermMatrix(perm, tuple(_particular(d, v, t, scale)))


# -- full antiunitary classification (three doublets) ---------------------------


@record
class CpClassification:
    realizable: tuple[GroupSignature, ...]
    rejected: tuple[tuple[GroupSignature, CpVerdict], ...]


def cp_bases(n_doublets: int) -> list[AbelianBase]:
    """The trivial group (the lattice of every charge), then one base per other
    walked charge lattice in sorted order, none of them read by a Smith form yet.

    Conjugate embeddings of the same abstract group appear separately so that
    every inequivalent extension pattern is examined.  The walk runs first,
    so N outside 2..6 raises its range error before any charge is read.
    """
    lattices = _lattice_scan(n_doublets)
    full = _full_lattice(n_doublets)
    return [AbelianBase(n_doublets, full)] + [AbelianBase(n_doublets, rows)
                                              for rows in sorted(lattices) if rows != full]


# The doublet counts of ``classify_cp``, as (least, greatest): exhaustive for three only.
CP_DOUBLETS = (3, 3)


def classify_cp(n_doublets: int = CP_DOUBLETS[0]) -> CpClassification:
    """Realizable abelian groups containing an antiunitary generator.

    Exhaustive for three doublets.  Per starred signature the verdicts of all
    embeddings are aggregated: realizable wins over enlarged-unitary, which
    wins over continuous degeneration.
    """
    if not CP_DOUBLETS[0] <= n_doublets <= CP_DOUBLETS[1]:
        raise ValueError("the antiunitary classification is only supported for "
                         f"{CP_DOUBLETS[0]} doublets")
    by_sig: dict[GroupSignature, list[CpVerdict]] = {}
    for base in cp_bases(n_doublets):
        for candidate in cp_extensions(base):
            by_sig.setdefault(candidate.signature, []).append(cp_realizable(candidate))
    realizable = []
    rejected = []
    for sig in sorted(by_sig, key=GroupSignature.sort_key):
        verdicts = by_sig[sig]
        if any(v.realizable for v in verdicts):
            realizable.append(sig)
        else:
            pick = next((v for v in verdicts if v.kind == "enlarged_unitary"), verdicts[0])
            rejected.append((sig, pick))
    return CpClassification(tuple(realizable), tuple(rejected))


# -- the Z3 x Z3 exception -------------------------------------------------------


@record
class Z3Z3Report:
    """Outcome of the explicit non-realizability check for Z3 x Z3.

    The invariant potential admits the doublet exchange as an extra unitary
    symmetry, and the exchange fails to commute with the phase generator, so
    the full symmetry group is nonabelian.
    """

    phase_generator: PhaseVector
    cyclic_generator: GenPermMatrix
    swap: GenPermMatrix
    invariant_under_generators: bool
    invariant_under_swap: bool
    swap_commutes: bool
    verdict: str

    def to_json(self) -> dict:
        return {
            "phase_generator": [str(p) for p in self.phase_generator.phases],
            "cyclic_generator": self.cyclic_generator.to_json(),
            "swap": self.swap.to_json(),
            "invariant_under_generators": self.invariant_under_generators,
            "invariant_under_swap": self.invariant_under_swap,
            "swap_commutes": self.swap_commutes,
            "verdict": self.verdict,
        }


def check_z3z3() -> Z3Z3Report:
    """Non-realizability of Z3 x Z3 as a symmetry of a three-doublet potential.

    The group extends the Z3 of the phase rotation a = diag(1, w, w^2) by
    the cyclic doublet permutation b, whose cube is the identity.  Its
    potential is the Z3-invariant one restricted by b, as an antiunitary
    candidate is restricted by its generator.  The forced-symmetry question
    an antiunitary verdict asks of its pattern, asked here of the doublet
    swap 1 <-> 2, finds it forced, and the swap does not commute with a.
    """
    a = PhaseVector((Fraction(0), Fraction(1, 3), Fraction(2, 3)))
    b = GenPermMatrix.permutation((1, 2, 0))
    swap = GenPermMatrix.permutation((1, 0, 2))
    table = term_table(3)
    shifts = [phase_shift(m, a) for m in table.monomials]  # each term's phase under a
    base = AbelianBase.from_lattice(3, [chg for chg, x in zip(table.charges, shifts) if x == 0])
    system = base.phase_system()
    for k, phase in enumerate(b.phases):  # xi_k is the entry phase of b
        system.pin([int(j == k) for j in range(system.head)], phase)
    extension = CpCandidate(base, b.perm, PhaseVector.identity(3), GroupSignature((3, 3)),
                            *_restrict(system, _term_action(b.perm, False)))
    inv_ab = not extension.killed and all(shifts[t] == 0 for t in extension.surviving)
    inv_swap = _forced_symmetry(extension, swap.perm) == swap
    commutes = commutes_with_diagonal(swap, a)
    verdict = "not_realizable" if (inv_ab and inv_swap and not commutes) else "inconclusive"
    return Z3Z3Report(a, b, swap, inv_ab, inv_swap, commutes, verdict)
