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

The group is asked about only through its charge lattice.  It is the set of
torus elements on which every charge in the lattice vanishes, so by duality a
character is trivial on the whole group, continuous part included, exactly
when its charge lies in the lattice.  Invariant terms, commuting permutation
patterns and the support of a commuting antiunitary are each a membership
test (``AbelianBase.annihilates``) of a charge built from the phase
differences psi_a - psi_b (``TorusBasis.differences``).

Verdicts are exact for three doublets, where all cases are worked out; for
more doublets the generalized-permutation ansatz is a documented soundness
boundary (a "realizable" verdict is then best-effort).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .classifier import _group_of_lattice, _lattice_scan
from .exactmath import IntMatrix, SnfResult, hnf_contains, hnf_rows, snf
from .groups import GroupSignature, extend_by_antiunitary
from .monomials import Monomial, monomial_charges, phase_shift, raw_exponents
from .torus import PhaseVector, direction_weights, equal_mod_center, torus_basis

Perm = tuple[int, ...]  # 0-based images: a -> perm[a]


# -- generalized permutation matrices -----------------------------------------


@dataclass(frozen=True)
class GenPermMatrix:
    """Unitary matrix with one phase entry per row and column.

    Acts on doublets as phi_a -> e(phases[a]) phi_{perm[a]} (indices 0-based
    internally; monomial factors are 1-based).  Phases are rational, in units
    of 2*pi, reduced mod 1.
    """

    perm: Perm
    phases: tuple[Fraction, ...]

    def __post_init__(self):
        if sorted(self.perm) != list(range(len(self.perm))):
            raise ValueError("not a permutation")
        if len(self.phases) != len(self.perm):
            raise ValueError("need one phase per row")
        object.__setattr__(self, "phases", tuple(Fraction(p) % 1 for p in self.phases))

    @classmethod
    def identity(cls, n: int) -> "GenPermMatrix":
        return cls(tuple(range(n)), (Fraction(0),) * n)

    @classmethod
    def diagonal(cls, pv: PhaseVector) -> "GenPermMatrix":
        return cls(tuple(range(len(pv))), pv.phases)

    @classmethod
    def permutation(cls, perm: Perm) -> "GenPermMatrix":
        return cls(tuple(perm), (Fraction(0),) * len(perm))

    @property
    def n(self) -> int:
        return len(self.perm)

    @property
    def is_diagonal(self) -> bool:
        return self.perm == tuple(range(self.n))

    def to_phase_vector(self) -> PhaseVector:
        if not self.is_diagonal:
            raise ValueError("not diagonal")
        return PhaseVector(self.phases)

    def compose(self, other: "GenPermMatrix") -> "GenPermMatrix":
        """Matrix product self @ other (apply ``other`` first)."""
        perm = tuple(other.perm[self.perm[a]] for a in range(self.n))
        phases = tuple(self.phases[a] + other.phases[self.perm[a]] for a in range(self.n))
        return GenPermMatrix(perm, phases)

    def inverse(self) -> "GenPermMatrix":
        inv = [0] * self.n
        for a, b in enumerate(self.perm):
            inv[b] = a
        return GenPermMatrix(tuple(inv), tuple(-self.phases[inv[a]] for a in range(self.n)))

    def conjugate(self) -> "GenPermMatrix":
        return GenPermMatrix(self.perm, tuple(-p for p in self.phases))

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


def act_unitary(u: GenPermMatrix, m: Monomial) -> tuple[Monomial, Fraction, bool]:
    """Image of a monomial under a unitary generalized permutation.

    Returns (canonical image, phase shift, conjugated) such that the monomial
    evaluated on transformed fields equals e(shift) times the image; when
    ``conjugated`` is set the image listed is the conjugate of the raw one.
    """
    image, conjugated = m.permuted(u.perm)
    shift = sum((e * p for e, p in zip(raw_exponents(m, u.n), u.phases)), Fraction(0))
    return image, shift % 1, conjugated


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


def _smith(rows, ncols: int) -> SnfResult:
    """Smith form u @ A @ v == diag(d) of the coefficient rows; identities when A is empty."""
    if rows and ncols:
        return snf(IntMatrix.from_rows(rows))
    return SnfResult((), IntMatrix.identity(len(rows)), IntMatrix.identity(ncols))


def _transform(res: SnfResult, rhs) -> list[Fraction]:
    """u @ rhs, exactly (not reduced mod 1)."""
    return [sum((c * b for c, b in zip(row, rhs)), Fraction(0)) for row in res.u.entries]


def _residual(res: SnfResult, rhs) -> list[Fraction]:
    """The rows of u @ rhs past the rank, which decide solvability and span."""
    return _transform(res, rhs)[res.rank:]


def _integral(residual) -> bool:
    return all(r.denominator == 1 for r in residual)


def _particular(res: SnfResult, rhs) -> list[Fraction]:
    """One solution of A x == rhs (mod 1), for a right-hand side that has one.

    Each row of u @ rhs is reduced mod 1 before it is divided by its Smith
    entry, which fixes the representative the solution is read from.
    """
    y = [b % 1 / d for b, d in zip(_transform(res, rhs), res.d[:res.rank])]
    return [sum((res.v[(j, i)] * y[i] for i in range(res.rank)), Fraction(0)) % 1
            for j in range(res.v.rows)]


class PhaseConstraintSystem:
    """Linear congruences A x == b (mod 1) over rational unknowns indexed by position.

    ``unknowns`` labels the positions for ``render``.  Every question is
    answered by one Smith form u @ A @ v == diag(d) of the integer
    coefficients: the rows of u @ b past the rank are all integers exactly
    when the congruences are solvable, and all zero exactly when b lies in
    the rational column span of A.
    """

    def __init__(self, unknowns, equations=()):
        self.unknowns: tuple[str, ...] = tuple(unknowns)
        self.equations: list[tuple[tuple[int, ...], Fraction]] = list(equations)

    def copy(self) -> "PhaseConstraintSystem":
        return PhaseConstraintSystem(self.unknowns, self.equations)

    def add(self, row, rhs) -> None:
        """Append  sum row[j] * unknowns[j] == rhs (mod 1), one coefficient per unknown."""
        if len(row) != len(self.unknowns):
            raise ValueError(f"need {len(self.unknowns)} coefficients, got {len(row)}")
        self.equations.append((tuple(int(c) for c in row), Fraction(rhs) % 1))

    def _factor(self) -> tuple[SnfResult, list[Fraction]]:
        return (_smith([row for row, _ in self.equations], len(self.unknowns)),
                [r for _, r in self.equations])

    def solve(self):
        """(particular, torsion generators, free directions) or None.

        The particular solution and each generator are lists indexed like
        ``unknowns``; free directions span the divisible part of the solution
        set, torsion generators its finite part (all mod 1).
        """
        res, rhs = self._factor()
        if not _integral(_residual(res, rhs)):
            return None
        nu = len(self.unknowns)
        torsion = [[Fraction(res.v[(j, i)], res.d[i]) % 1 for j in range(nu)]
                   for i in range(res.rank) if res.d[i] > 1]
        free = [[Fraction(res.v[(j, i)]) for j in range(nu)] for i in range(res.rank, nu)]
        return _particular(res, rhs), torsion, free

    def solvable(self) -> bool:
        return _integral(_residual(*self._factor()))

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
    angle_directions: tuple[tuple[int, ...], ...]
    doublet_weights: tuple[tuple[int, ...], ...]
    lattice: tuple[tuple[int, ...], ...]

    @classmethod
    def trivial(cls, n_doublets: int) -> "AbelianBase":
        full = hnf_rows(monomial_charges(n_doublets).values())
        return cls(n_doublets, GroupSignature(), (), (), (), full)

    @classmethod
    def from_lattice(cls, n_doublets: int, rows) -> "AbelianBase":
        basis = torus_basis(n_doublets)
        rows = hnf_rows(rows)
        group = _group_of_lattice(rows, basis)
        weights = tuple(direction_weights(basis, d) for d in group.torus_directions)
        return cls(n_doublets, group.signature, group.finite_generators,
                   group.torus_directions, weights, rows)

    def annihilates(self, charge) -> bool:
        """True when the character with this charge is trivial on the whole group."""
        return hnf_contains(self.lattice, charge)

    def invariant_monomials(self) -> tuple[Monomial, ...]:
        """All monomials left invariant by every element of the group."""
        return tuple(m for m, chg in monomial_charges(self.n_doublets).items()
                     if self.annihilates(chg))

    def finite_elements(self) -> list[tuple[tuple[int, ...], PhaseVector]]:
        """All elements of the finite part as (exponents, phase vector)."""
        orders = self.signature.finite
        out = []
        for expts in itertools.product(*(range(d) for d in orders)):
            pv = PhaseVector.identity(self.n_doublets)
            for e, g in zip(expts, self.finite_generators):
                pv = pv + e * g
            out.append((expts, pv))
        return out

    def contains_diagonal(self, pv: PhaseVector) -> bool:
        """Exact membership test: pv leaves every invariant monomial invariant."""
        return all(phase_shift(m, pv) == 0 for m in self.invariant_monomials())


def _pattern_scan(base: AbelianBase, sign: int) -> list[Perm]:
    """Permutations sigma with psi_a + sign * psi_{sigma(a)} constant on the group.

    That is, the group annihilates (psi_a - psi_0) + sign * (psi_sigma(a) - psi_sigma(0))
    for every a.
    """
    n = base.n_doublets
    diff = torus_basis(n).differences
    return [perm for perm in itertools.permutations(range(n))
            if all(base.annihilates(tuple(x + sign * y for x, y in
                                          zip(diff[a][0], diff[perm[a]][perm[0]])))
                   for a in range(1, n))]


def commutant_perms(base: AbelianBase) -> list[Perm]:
    """Permutation patterns sigma with psi_a + psi_{sigma(a)} constant per generator.

    A matrix b supported on such a pattern makes b J commute with the whole
    group; no other generalized permutation can.
    """
    return _pattern_scan(base, 1)


def centralizer_perms(base: AbelianBase) -> list[Perm]:
    """Permutation patterns of unitary generalized permutations commuting with the group."""
    return _pattern_scan(base, -1)


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


@dataclass(frozen=True)
class CentralizerDescription:
    """Centralizer of the group among generalized permutations.

    Each listed permutation pattern extends to a commuting unitary with fully
    free phases (modulo the overall scalar), so the centralizer is the union
    of those phase tori.
    """

    base: AbelianBase
    perms: tuple[Perm, ...]

    def contains(self, u: GenPermMatrix) -> bool:
        # the phase part of u is diagonal, so it commutes with the group already
        return u.perm in self.perms


def centralizer_genperm(base: AbelianBase) -> CentralizerDescription:
    return CentralizerDescription(base, tuple(centralizer_perms(base)))


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
    """One possible abelian extension of a torus subgroup by an antiunitary.

    ``square`` is the unitary part of the squared antiunitary generator; the
    constraint system collects the structural-phase pinning and the
    coefficient conditions required for invariance of the surviving terms.
    """

    base: AbelianBase
    sigma: Perm
    square: PhaseVector
    square_exponents: tuple[int, ...]
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
    squares = [2 * pv for _, pv in elements]
    candidates: list[CpCandidate] = []
    seen: set[tuple] = set()

    for sigma in commutant_perms(base):
        if any(sigma[sigma[a]] != a for a in range(n)):
            continue  # the squared generator must stay diagonal
        for expts, f in elements:
            key = (sigma, min((f + s).center_key() for s in squares))
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
    names += ["c0"] + [f"t{i}" for i in range(1, len(base.angle_directions) + 1)]
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
    """Restrict the invariant terms orbit by orbit, keeping each orbit that stays solvable."""
    n = base.n_doublets
    # b J with b the bare permutation: conjugate, then permute
    images = {m: Monomial(m.conjugate_factors()).permuted(sigma) for m in invariant}
    system = pin
    surviving: list[Monomial] = []
    killed: list[Monomial] = []
    classes: list[tuple[Monomial, ...]] = []
    for orbit in _cycles(invariant, lambda m: images[m][0]):
        trial = system.copy()
        for m in orbit:
            img, conjugated = images[m]
            xi, psi = _invariance_relation(m, img, conjugated, n, psi_positions)
            row = list(xi) + [0] * (len(system.unknowns) - n)
            for j, c in psi.items():
                row[j] += c
            trial.add(row, 0)
        if trial.solvable():
            system = trial
            surviving.extend(orbit)
            # magnitude classes: surviving terms linked by the action, which
            # are exactly the surviving orbits
            classes.append(orbit)
        else:
            killed.extend(orbit)
    finite_part = GroupSignature(base.signature.finite, base.signature.torus_rank)
    signature = extend_by_antiunitary(finite_part, expts)
    return CpCandidate(base, sigma, f, tuple(expts), signature, system,
                       tuple(sorted(surviving)), tuple(sorted(killed)),
                       tuple(classes), backbone_classes(sigma), psi_positions)


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

    solution = candidate.system.solve()
    if solution is None:
        raise RuntimeError(f"phase constraints of candidate {candidate.signature} "
                           "have no solution")
    particular, torsion, free = solution
    n = base.n_doublets
    for perm in sorted(itertools.permutations(range(n))):
        if perm == tuple(range(n)):
            continue
        if not candidate.backbone.preserved_by(perm):
            continue
        forced = _forced_symmetry(candidate, perm, particular, torsion, free)
        if forced is not None:
            noncomm = _noncommuting_generator(base, forced)
            extra = f"; does not commute with {noncomm}" if noncomm else ""
            return CpVerdict(
                "enlarged_unitary",
                f"coefficient restrictions force the unitary symmetry {forced}{extra}",
                forced)
    return CpVerdict("realizable", "no further unitary symmetry is forced")


def _noncommuting_generator(base: AbelianBase, u: GenPermMatrix) -> PhaseVector | None:
    for g in base.finite_generators:
        if not commutes_with_diagonal(u, g):
            return g
    for w in base.doublet_weights:
        if any(w[a] != w[u.perm[a]] for a in range(u.n)):
            # a torus element along this direction fails to commute
            denom = 2 * max(abs(x) for x in w) + 1
            return PhaseVector(tuple(Fraction(x, denom) for x in w))
    return None


def _forced_symmetry(candidate: CpCandidate, perm: Perm, particular, torsion,
                     free) -> GenPermMatrix | None:
    """Unitary witness with permutation ``perm`` if one is forced, else None.

    Forced means: for every admissible coefficient assignment there are
    entry phases making the generalized permutation a symmetry of backbone
    plus surviving terms.  One Smith form of the entry-phase coefficients
    checks the particular coefficient phases and each torsion generator for
    solvability, and each free direction for lying in the rational span.
    """
    n = candidate.base.n_doublets
    klass = {m: i for i, cls in enumerate(candidate.magnitude_classes) for m in cls}
    relations = []  # (entry coefficients, psi coefficients) per surviving term
    for m in candidate.surviving:
        img, conjugated = m.permuted(perm)
        if klass.get(img) != klass[m]:
            return None  # the image is not a surviving term of the same magnitude
        relations.append(_invariance_relation(m, img, conjugated, n, candidate.psi_positions))

    def rhs(assign: list[Fraction]) -> list[Fraction]:
        # the invariance relations read  theta-part == -(psi-part)  (mod 1)
        return [-sum((c * assign[j] for j, c in psi.items()), Fraction(0))
                for _, psi in relations]

    res = _smith([theta for theta, _ in relations], n)
    target = rhs(particular)
    if not (_integral(_residual(res, target))
            and all(_integral(_residual(res, rhs(gen))) for gen in torsion)
            and all(not any(_residual(res, rhs(direction))) for direction in free)):
        return None
    return GenPermMatrix(perm, tuple(_particular(res, target)))


# -- full antiunitary classification (three doublets) ---------------------------


@dataclass(frozen=True)
class CpCaseResult:
    base_signature: GroupSignature
    candidate: CpCandidate
    verdict: CpVerdict


@dataclass(frozen=True)
class CpClassification:
    n_doublets: int
    realizable: tuple[GroupSignature, ...]
    rejected: tuple[tuple[GroupSignature, CpVerdict], ...]
    cases: tuple[CpCaseResult, ...]


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
    cases: list[CpCaseResult] = []
    for base in cp_bases(n_doublets):
        for candidate in cp_extensions(base):
            verdict = cp_realizable(candidate)
            cases.append(CpCaseResult(base.signature, candidate, verdict))
    by_sig: dict[GroupSignature, list[CpVerdict]] = {}
    for case in cases:
        by_sig.setdefault(case.candidate.signature, []).append(case.verdict)
    realizable = []
    rejected = []
    for sig in sorted(by_sig, key=GroupSignature.sort_key):
        verdicts = by_sig[sig]
        if any(v.realizable for v in verdicts):
            realizable.append(sig)
        else:
            pick = next((v for v in verdicts if v.kind == "enlarged_unitary"), verdicts[0])
            rejected.append((sig, pick))
    return CpClassification(n_doublets, tuple(realizable), tuple(rejected), tuple(cases))


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


def _z3z3_terms() -> dict[Monomial, tuple[str, bool]]:
    """Charged sector of the Z3 x Z3 invariant potential.

    All three terms share one complex coefficient; the boolean marks whether
    the canonical representative is the conjugate of the term as written.
    """
    return {
        Monomial.canonical(((1, 2), (1, 3))): ("l3", False),
        Monomial.canonical(((2, 3), (2, 1))): ("l3", True),
        Monomial.canonical(((3, 1), (3, 2))): ("l3", True),
    }


def _class_potential_invariant(terms: dict[Monomial, tuple[str, bool]],
                               u: GenPermMatrix) -> bool:
    """Invariance of a symbolic-coefficient charged sector under a unitary.

    Coefficients within a class are equal but otherwise arbitrary complex
    numbers, so invariance requires each term to land on a term of the same
    class with zero phase shift and consistently composed conjugations.
    """
    for m, (klass, flag) in terms.items():
        img, shift, flip = act_unitary(u, m)
        if img not in terms:
            return False
        k2, flag2 = terms[img]
        if k2 != klass or flag2 != (flag ^ flip) or shift % 1 != 0:
            return False
    return True


def check_z3z3(n_doublets: int = 3) -> Z3Z3Report:
    """Non-realizability of Z3 x Z3 as a symmetry of a three-doublet potential.

    Builds the invariant potential of the group generated by the phase
    rotation diag(1, w, w^2) and the cyclic doublet permutation, verifies both
    invariances, then exhibits the doublet swap 1 <-> 2 as a further unitary
    symmetry that does not commute with the phase rotation.
    """
    if n_doublets != 3:
        raise ValueError("the Z3 x Z3 check is specific to 3 doublets")
    a = PhaseVector((Fraction(0), Fraction(1, 3), Fraction(2, 3)))
    b = GenPermMatrix.permutation((1, 2, 0))
    swap = GenPermMatrix.permutation((1, 0, 2))
    terms = _z3z3_terms()

    inv_a = _class_potential_invariant(terms, GenPermMatrix.diagonal(a))
    inv_b = _class_potential_invariant(terms, b)
    inv_swap = _class_potential_invariant(terms, swap)
    commutes = commutes_with_diagonal(swap, a)
    verdict = "not_realizable" if (inv_a and inv_b and inv_swap and not commutes) \
        else "inconclusive"
    return Z3Z3Report(a, b, swap, inv_a and inv_b, inv_swap, commutes, verdict)
