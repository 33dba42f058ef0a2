"""Antiunitary (generalized-CP) extensions of torus subgroups.

Implements the five-step embedding strategy over generalized-permutation
matrices with exact rational phases:

1. find a permutation pattern commuting with the chosen abelian group,
2. describe its centralizer among generalized permutations,
3. close the antiunitary coset so products of two antiunitaries land in the
   group (this quantizes the structural phases and picks the square),
4. restrict the invariant terms by antiunitary invariance, dropping terms
   whose coefficient is forced to vanish,
5. check that the restricted potential acquires no further unitary symmetry.

Every question is read off an integer lattice.  The group is the set of
torus elements on which every charge in its lattice vanishes, which is how
``AbelianBase.contains_diagonal`` tests a diagonal element.  By duality a
character is trivial on the whole group, continuous part included, exactly
when its charge lies in that lattice.
Invariant terms, commuting permutation patterns and the support of a
commuting antiunitary are each such a test (``AbelianBase.annihilates``) of
a charge built from the phase differences psi_a - psi_b
(``TorusBasis.differences``).  The phase congruences of steps 3 to 5 are read
through the one lattice of a ``PhaseConstraintSystem``: a term orbit survives
while the system stays solvable, and a unitary symmetry is forced when the
system fixes each relation its invariance needs.  A Smith form only writes
witness phases.

Verdicts are exact for three doublets, where all cases are worked out; for
more doublets the generalized-permutation ansatz is a documented soundness
boundary (a "realizable" verdict is then best-effort).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

from .classifier import _group_of_lattice, _lattice_scan
from .exactmath import (IntMatrix, Rows, SnfResult, hnf_add, hnf_contains, hnf_rows, integers,
                        snf_rows)
from .groups import GroupSignature, extend_by_antiunitary
from .monomials import Monomial, c_decompose, monomial_charges, phase_shift, raw_exponents
from .torus import (PhaseVector, direction_weights, equal_mod_center, rational_phases,
                    torus_basis)

Perm = tuple[int, ...]  # 0-based images: a -> perm[a]


# -- generalized permutation matrices -----------------------------------------


@dataclass(frozen=True)
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


def conjugate_diagonal(u: GenPermMatrix, pv: PhaseVector) -> PhaseVector:
    """u diag(pv) u^{-1}, which is again diagonal."""
    return PhaseVector(tuple(pv.phases[u.perm[a]] for a in range(u.n)))


def commutes_with_diagonal(u: GenPermMatrix, pv: PhaseVector) -> bool:
    """Commutation modulo an overall scalar (the PSU identification)."""
    return equal_mod_center(conjugate_diagonal(u, pv), pv)


# -- the action of transformations on monomials -------------------------------


def _invariance_relation(m: Monomial, image: Monomial, conjugated: bool, n_doublets: int,
                         psi_positions: dict[Monomial, int]
                         ) -> tuple[tuple[int, ...], dict[int, int]]:
    """Invariance of the term m under a generalized permutation mapping it to image.

    The relation reads  entry-phase part + coefficient-phase part == 0
    (mod 1).  The entry phases of the transformation enter with the net
    exponents of m; coefficient matching adds psi_m, plus psi_image for a
    conjugated image or minus psi_image for a direct one.  Returns the entry
    coefficients and the psi coefficients keyed by position.
    """
    psi = {psi_positions[image]: 1 if conjugated else -1}
    psi[psi_positions[m]] = psi.get(psi_positions[m], 0) + 1
    return raw_exponents(m, n_doublets), psi


# -- exact linear congruence systems ------------------------------------------


def _particular(res: SnfResult, rhs) -> list[Fraction]:
    """One solution of A x == rhs (mod 1), for a right-hand side that has one.

    ``res`` is the Smith form u @ A @ v == diag(d) and D the lcm of the
    denominators of rhs.  Each row t_i of u @ (D rhs) up to the rank is
    reduced mod D before it is divided by D d_i, which fixes the
    representative the solution is read from.  The sums over the columns of
    v are taken in integers over one denominator.
    """
    scale = lcm(*(b.denominator for b in rhs))
    scaled = [(j, b.numerator * (scale // b.denominator)) for j, b in enumerate(rhs) if b]
    t = [sum(row[j] * b for j, b in scaled) for row in res.u.entries[:res.rank]]
    # y_i = (t_i mod D) / (D d_i), each put over the one denominator D lcm(d)
    common = lcm(*res.d[:res.rank])
    den = scale * common
    y = [x % scale * (common // d) for x, d in zip(t, res.d)]
    return [Fraction(sum(a * b for a, b in zip(row, y)) % den, den) for row in res.v.entries]


class PhaseConstraintSystem:
    """Linear congruences A x == b (mod 1) over rational unknowns indexed by position.

    ``unknowns`` labels the positions for ``render``.  The system is read
    through one integer lattice L: with D the lcm of the denominators of b,
    L is spanned by the rows [A_i | D b_i] and (0, ..., 0, D), and ``basis``
    is its Hermite basis, grown by ``add`` one equation at a time.

    - Its elements with zero A-part are (0, y D b + k D) for integer y with
      y A == 0, so the basis ends in a row (0, ..., 0, t) with t dividing D,
      and the congruences are solvable exactly when t == D, that is when
      y b is an integer for every such y (``solvable``).
    - For a solvable system, an integer row w has w x an integer on every
      solution x exactly when (w, 0) lies in L (``fixes``).  The solutions
      are x0 + S with S = {s : A s integral}, the dual of the row lattice of
      A, whose dual is that row lattice again.  So w x is integral on S
      exactly when w == y A for an integer y, and then w x0 == y b (mod 1),
      which is an integer exactly when (w, 0) == y [A | D b] - (y b)(0, D)
      lies in L.
    """

    def __init__(self, unknowns):
        self.unknowns: tuple[str, ...] = tuple(unknowns)
        self.equations: list[tuple[tuple[int, ...], Fraction]] = []
        self.scale = 1
        self.basis: Rows = ((0,) * len(self.unknowns) + (1,),)

    def copy(self) -> "PhaseConstraintSystem":
        other = PhaseConstraintSystem(self.unknowns)
        other.equations = list(self.equations)
        other.scale, other.basis = self.scale, self.basis
        return other

    def _row(self, row) -> tuple[int, ...]:
        if len(row) != len(self.unknowns):
            raise ValueError(f"need {len(self.unknowns)} coefficients, got {len(row)}")
        return integers(row, "coefficients")

    def add(self, row, rhs) -> None:
        """Append  sum row[j] * unknowns[j] == rhs (mod 1): int coefficients, int or Fraction rhs."""
        row, (rhs,) = self._row(row), rational_phases((rhs,))
        self.equations.append((row, rhs))
        scale = lcm(self.scale, rhs.denominator)
        if scale > self.scale:
            # scaling the last column keeps the basis in Hermite form
            self.basis = tuple(r[:-1] + (r[-1] * scale // self.scale,) for r in self.basis)
            self.scale = scale
        self.basis = hnf_add(self.basis, row + (rhs.numerator * (scale // rhs.denominator),))

    def solvable(self) -> bool:
        """The congruences have a solution: the last pivot of ``basis`` is D."""
        return self.basis[-1][-1] == self.scale

    def fixes(self, row) -> bool:
        """sum row[j] * x_j is an integer on every solution x: (row, 0) lies in the lattice."""
        return hnf_contains(self.basis, self._row(row) + (0,)) or not self.solvable()

    def solve(self) -> list[Fraction] | None:
        """One solution, indexed like ``unknowns``, read from a Smith form of A, or None."""
        if not self.solvable():
            return None
        res = snf_rows([row for row, _ in self.equations], len(self.unknowns))
        return _particular(res, [rhs for _, rhs in self.equations])

    def render(self) -> list[str]:
        out = []
        for row, rhs in self.equations:
            parts = []
            for name, c in sorted((self.unknowns[j], c) for j, c in enumerate(row) if c):
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


@dataclass(frozen=True)
class AbelianBase:
    """A concrete torus subgroup: finite generators plus continuous directions."""

    n_doublets: int
    signature: GroupSignature
    finite_generators: tuple[PhaseVector, ...]
    doublet_weights: tuple[tuple[int, ...], ...]
    lattice: tuple[tuple[int, ...], ...]

    @classmethod
    def trivial(cls, n_doublets: int) -> "AbelianBase":
        return cls.from_lattice(n_doublets, monomial_charges(n_doublets).values())

    @classmethod
    def from_lattice(cls, n_doublets: int, rows) -> "AbelianBase":
        """The group fixing every charge in the span of ``rows``, each of N-1 integers."""
        basis = torus_basis(n_doublets)
        rows = [integers(row, "lattice rows") for row in rows]
        if any(len(row) != basis.n for row in rows):
            raise ValueError(f"lattice rows need {basis.n} entries for {n_doublets} doublets")
        rows = hnf_rows(rows)
        group = _group_of_lattice(rows, basis)
        weights = tuple(direction_weights(basis, d) for d in group.torus_directions)
        return cls(n_doublets, group.signature, group.finite_generators, weights, rows)

    def annihilates(self, charge) -> bool:
        """True when the character with this charge is trivial on the whole group."""
        return hnf_contains(self.lattice, charge)

    def invariant_monomials(self) -> tuple[Monomial, ...]:
        """All monomials left invariant by every element of the group."""
        return tuple(m for m, chg in monomial_charges(self.n_doublets).items()
                     if self.annihilates(chg))

    def finite_elements(self) -> list[tuple[tuple[int, ...], PhaseVector]]:
        """All elements of the finite part as (exponents, phase vector)."""
        gens = self.finite_generators
        return [(expts, PhaseVector(tuple(sum(e * g.phases[a] for e, g in zip(expts, gens))
                                          for a in range(self.n_doublets))))
                for expts in itertools.product(*(range(d) for d in self.signature.finite))]

    def contains_diagonal(self, pv: PhaseVector) -> bool:
        """Exact membership test: every charge in the lattice is trivial on pv.

        A charge r has net exponents c == r A^-1 on doublets 2..N over the
        bilinear charge basis A (``c_decompose``), so its phase under pv is
        sum_b c_b (pv_b - pv_1).  The empty lattice contains every element.
        """
        if len(pv) != self.n_doublets:
            raise ValueError(f"need {self.n_doublets} phases, got {len(pv)}")
        if not self.lattice:
            return True
        c, _ = c_decompose(IntMatrix.from_rows(self.lattice), self.n_doublets)
        shifts = [p - pv.phases[0] for p in pv.phases[1:]]
        return all(sum(x * y for x, y in zip(row, shifts)).denominator == 1 for row in c.entries)


def commutant_perms(base: AbelianBase) -> list[Perm]:
    """Permutation patterns sigma with psi_a + psi_{sigma(a)} constant on the group.

    That is, the group annihilates (psi_a - psi_0) + (psi_sigma(a) - psi_sigma(0))
    for every a.  A matrix b supported on such a pattern makes b J commute
    with the whole group; no other generalized permutation can.
    """
    n = base.n_doublets
    diff = torus_basis(n).differences
    return [perm for perm in itertools.permutations(range(n))
            if all(base.annihilates(tuple(x + y for x, y in
                                          zip(diff[a][0], diff[perm[a]][perm[0]])))
                   for a in range(1, n))]


def commutant_support(base: AbelianBase) -> tuple[tuple[bool, ...], ...]:
    """Entry pattern (i, j) where an antiunitary b J may have support.

    An entry is allowed when psi_i + psi_j is a center phase on the whole
    group, that is when the group annihilates N (psi_i + psi_j) - 2 sum_c psi_c,
    the sum over c of (psi_i - psi_c) + (psi_j - psi_c).
    """
    n = base.n_doublets
    diff = torus_basis(n).differences

    def allowed(i: int, j: int) -> bool:
        return base.annihilates(tuple(map(sum, zip(*diff[i], *diff[j]))))

    return tuple(tuple(allowed(i, j) for j in range(n)) for i in range(n))


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


@dataclass(frozen=True)
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

    def preserved_by(self, perm: Perm) -> bool:
        for cls in self.single_classes:
            if {perm[a - 1] + 1 for a in cls} != set(cls):
                return False
        for cls in self.pair_classes:
            mapped = {tuple(sorted((perm[a - 1] + 1, perm[b - 1] + 1))) for a, b in cls}
            if mapped != set(cls):
                return False
        return True


def backbone_classes(sigma: Perm) -> BackboneClasses:
    doublets = range(1, len(sigma) + 1)
    singles = _cycles(doublets, lambda a: sigma[a - 1] + 1)
    pairs = _cycles(itertools.combinations(doublets, 2),
                    lambda p: tuple(sorted((sigma[p[0] - 1] + 1, sigma[p[1] - 1] + 1))))
    return BackboneClasses(singles, pairs)


@dataclass(frozen=True)
class CpCandidate:
    """One possible abelian extension of a torus subgroup by one generalized permutation.

    The generator is the antiunitary b J of ``cp_extensions``, or a unitary
    b as in ``check_z3z3``.  ``square`` is the power of the generator that
    lands in the base: the unitary part of (b J)^2, or b^3 for the Z3 x Z3
    cycle.  The constraint system collects the structural-phase pinning and
    the coefficient conditions required for invariance of the surviving terms.
    """

    base: AbelianBase
    sigma: Perm
    square: PhaseVector
    signature: GroupSignature
    system: PhaseConstraintSystem
    surviving: tuple[Monomial, ...]
    killed: tuple[Monomial, ...]
    magnitude_classes: tuple[tuple[Monomial, ...], ...]
    backbone: BackboneClasses
    # the column of each invariant monomial's psi in ``system``; fixed by the base
    psi_positions: dict[Monomial, int] = field(compare=False, repr=False)


def cp_extensions(base: AbelianBase) -> list[CpCandidate]:
    """All candidate abelian extensions of ``base`` by an antiunitary generator.

    Candidates are indexed by a commuting permutation pattern and the square
    class of the antiunitary generator inside the group.  An empty list means
    the group admits no commuting antiunitary at all.
    """
    n = base.n_doublets
    invariant = base.invariant_monomials()
    unknowns, psi_positions = _layout(base, invariant)
    elements = base.finite_elements()
    candidates: list[CpCandidate] = []
    seen: set[tuple] = set()

    for sigma in commutant_perms(base):
        if any(sigma[sigma[a]] != a for a in range(n)):
            continue  # the squared generator must stay diagonal
        for expts, f in elements:
            # the elements are distinct modulo the center, so two differ by a
            # square exactly when their exponents agree mod gcd(2, d_i)
            key = (sigma, tuple(e % gcd(2, d) for e, d in zip(expts, base.signature.finite)))
            if key in seen:
                continue
            pin = _pin_system(base, sigma, f, unknowns)
            if not pin.solvable():
                continue
            seen.add(key)
            candidates.append(_build_candidate(base, sigma, expts, f, pin, invariant,
                                               psi_positions))
    return candidates


def _layout(base: AbelianBase, invariant) -> tuple[list[str], dict[Monomial, int]]:
    """Unknowns of a candidate's phase system and the position of each psi.

    The columns are the entry phases xi_1..xi_N of the antiunitary
    generator, the overall phase c0, one angle t_i per continuous direction,
    then one coefficient phase psi per invariant monomial, in order.
    """
    names = [f"xi{a}" for a in range(1, base.n_doublets + 1)]
    names += ["c0"] + [f"t{i}" for i in range(1, len(base.doublet_weights) + 1)]
    psi_positions = {m: len(names) + i for i, m in enumerate(invariant)}
    names += [f"psi[{m.render()}]" for m in invariant]
    return names, psi_positions


def _pin_system(base: AbelianBase, sigma: Perm, f: PhaseVector,
                unknowns: list[str]) -> PhaseConstraintSystem:
    """Structural-phase equations pinning (b J)^2 to the element f.

    Row a reads  xi_a - xi_sigma(a) - c0 - sum_i w_i[a] t_i == f_a (mod 1).
    """
    n = base.n_doublets
    system = PhaseConstraintSystem(unknowns)
    for a in range(n):
        head = [int(x == a) - int(x == sigma[a]) for x in range(n)]
        head += [-1] + [-w[a] for w in base.doublet_weights]
        system.add(head + [0] * (len(unknowns) - len(head)), f.phases[a])
    return system


def _build_candidate(base: AbelianBase, sigma: Perm, expts, f: PhaseVector,
                     pin: PhaseConstraintSystem, invariant,
                     psi_positions: dict[Monomial, int]) -> CpCandidate:
    # b J with b the bare permutation: conjugate, then permute
    images = {m: Monomial(m.conjugate_factors()).permuted(sigma) for m in invariant}
    return CpCandidate(base, sigma, f, extend_by_antiunitary(base.signature, expts),
                       *_restrict(pin, images, psi_positions, base.n_doublets),
                       backbone_classes(sigma), psi_positions)


def _restrict(system: PhaseConstraintSystem, images: dict[Monomial, tuple[Monomial, bool]],
              psi_positions: dict[Monomial, int], n_doublets: int) -> tuple:
    """Restrict the terms orbit by orbit, keeping each orbit that stays solvable.

    ``images`` maps each term, in order, to its (image, conjugated) under the
    generator.  Returns the grown system, the surviving and the killed terms
    and the magnitude classes: surviving terms linked by the action, which
    are exactly the surviving orbits.
    """
    surviving: list[Monomial] = []
    killed: list[Monomial] = []
    classes: list[tuple[Monomial, ...]] = []
    for orbit in _cycles(images, lambda m: images[m][0]):
        trial = system.copy()
        for m in orbit:
            xi, psi = _invariance_relation(m, *images[m], n_doublets, psi_positions)
            row = list(xi) + [0] * (len(system.unknowns) - n_doublets)
            for j, c in psi.items():
                row[j] += c
            trial.add(row, 0)
        if trial.solvable():
            system = trial
            surviving.extend(orbit)
            classes.append(orbit)
        else:
            killed.extend(orbit)
    return system, tuple(sorted(surviving)), tuple(sorted(killed)), tuple(classes)


# -- realizability verdicts -----------------------------------------------------


@dataclass(frozen=True)
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
    potential; the witness is returned.  Otherwise the candidate is
    realizable.
    """
    base = candidate.base
    charges = monomial_charges(base.n_doublets)
    surv_lattice = hnf_rows([charges[m] for m in candidate.surviving])
    # surviving and killed terms make up the invariant set, so the surviving
    # lattice is the full invariant lattice unless it misses a killed charge
    if not all(hnf_contains(surv_lattice, charges[m]) for m in candidate.killed):
        surv_group = _group_of_lattice(surv_lattice, torus_basis(base.n_doublets))
        if surv_group.signature.torus_rank > base.signature.torus_rank:
            return CpVerdict(
                "continuous_degeneration",
                f"dropping {', '.join(str(m) for m in candidate.killed)} leaves the "
                f"diagonal symmetry {surv_group.signature}, strictly larger than {base.signature}")
        witness_gen = next((g for g in surv_group.finite_generators
                            if not base.contains_diagonal(g)), None)
        if witness_gen is None:
            raise RuntimeError(f"surviving lattice of {candidate.signature} differs from the "
                               "base lattice but no generator leaves the base group")
        return CpVerdict(
            "enlarged_unitary",
            f"surviving terms are invariant under the extra diagonal {witness_gen}",
            GenPermMatrix.diagonal(witness_gen))

    forced = next(forced_symmetries(candidate), None)
    if forced is None:
        return CpVerdict("realizable", "no further unitary symmetry is forced")
    noncomm = _noncommuting_generator(base, forced)
    extra = f"; does not commute with {noncomm}" if noncomm else ""
    return CpVerdict("enlarged_unitary",
                     f"coefficient restrictions force the unitary symmetry {forced}{extra}", forced)


def forced_symmetries(candidate: CpCandidate):
    """Each unitary generalized permutation forced on the candidate's potential.

    Permutations are tried in sorted order, skipping the identity and every
    permutation that breaks the backbone classes; each forced
    ``GenPermMatrix`` is yielded as it is found.  The candidate's system must
    be solvable, or RuntimeError is raised; it is solved only for a witness.
    """
    if not candidate.system.solvable():
        raise RuntimeError(f"phase constraints of candidate {candidate.signature} "
                           "have no solution")
    # the permutations come in sorted order, the identity first
    for perm in itertools.islice(itertools.permutations(range(candidate.base.n_doublets)), 1, None):
        if candidate.backbone.preserved_by(perm):
            forced = _forced_symmetry(candidate, perm)
            if forced is not None:
                yield forced


def _noncommuting_generator(base: AbelianBase, u: GenPermMatrix) -> PhaseVector | None:
    for g in base.finite_generators:
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
    plus surviving terms.  The invariance relations read R theta == -P psi
    (mod 1); with u @ R @ v == diag(d) they are solvable exactly when
    z @ P @ psi is an integer for each row z of u past the rank, so each
    z @ P must be fixed by the candidate's system.  Only then is the system
    solved: the witness phases are read from one particular solution's
    coefficient phases.
    """
    n = candidate.base.n_doublets
    klass = {m: i for i, cls in enumerate(candidate.magnitude_classes) for m in cls}
    relations = []  # (entry coefficients, psi coefficients) per surviving term
    for m in candidate.surviving:
        img, conjugated = m.permuted(perm)
        if klass.get(img) != klass[m]:
            return None  # the image is not a surviving term of the same magnitude
        relations.append(_invariance_relation(m, img, conjugated, n, candidate.psi_positions))

    res = snf_rows([theta for theta, _ in relations], n)
    for z in res.u.entries[res.rank:]:
        w = [0] * len(candidate.system.unknowns)
        for zk, (_, psi) in zip(z, relations):
            for j, c in psi.items():
                w[j] += zk * c
        if not candidate.system.fixes(w):
            return None
    particular = candidate.system.solve()
    target = [-sum((c * particular[j] for j, c in psi.items()), Fraction(0))
              for _, psi in relations]
    return GenPermMatrix(perm, tuple(_particular(res, target)))


# -- full antiunitary classification (three doublets) ---------------------------


@dataclass(frozen=True)
class CpClassification:
    realizable: tuple[GroupSignature, ...]
    rejected: tuple[tuple[GroupSignature, CpVerdict], ...]


def cp_bases(n_doublets: int) -> list[AbelianBase]:
    """The trivial group plus one base per distinct realizable charge lattice.

    Conjugate embeddings of the same abstract group appear separately so that
    every inequivalent extension pattern is examined.
    """
    bases = [AbelianBase.trivial(n_doublets)]
    for rows in sorted(_lattice_scan(n_doublets)):
        base = AbelianBase.from_lattice(n_doublets, rows)
        if not base.signature.is_trivial:
            bases.append(base)
    return bases


def classify_cp(n_doublets: int = 3) -> CpClassification:
    """Realizable abelian groups containing an antiunitary generator.

    Exhaustive for three doublets.  Per starred signature the verdicts of all
    embeddings are aggregated: realizable wins over enlarged-unitary, which
    wins over continuous degeneration.
    """
    if n_doublets != 3:
        raise ValueError("the antiunitary classification is only supported for 3 doublets")
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


@dataclass(frozen=True)
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
    candidate is restricted by its generator, and the same forced-symmetry
    search finds the doublet swap 1 <-> 2, which does not commute with a.
    """
    a = PhaseVector((Fraction(0), Fraction(1, 3), Fraction(2, 3)))
    b = GenPermMatrix.permutation((1, 2, 0))
    swap = GenPermMatrix.permutation((1, 0, 2))
    base = AbelianBase.from_lattice(3, [chg for m, chg in monomial_charges(3).items()
                                        if phase_shift(m, a) == 0])
    invariant = base.invariant_monomials()
    unknowns, psi_positions = _layout(base, invariant)
    pin = PhaseConstraintSystem(unknowns)
    for k, phase in enumerate(b.phases):  # xi_k is the entry phase of b
        pin.add([int(j == k) for j in range(len(unknowns))], phase)
    images = {m: m.permuted(b.perm) for m in invariant}
    extension = CpCandidate(base, b.perm, PhaseVector.identity(3), GroupSignature((3, 3)),
                            *_restrict(pin, images, psi_positions, 3),
                            backbone_classes(b.perm), psi_positions)
    inv_ab = base.contains_diagonal(a) and not extension.killed
    inv_swap = swap in forced_symmetries(extension)
    commutes = commutes_with_diagonal(swap, a)
    verdict = "not_realizable" if (inv_ab and inv_swap and not commutes) else "inconclusive"
    return Z3Z3Report(a, b, swap, inv_ab, inv_swap, commutes, verdict)
