"""Helpers only the tests call, and earlier forms of library code kept as oracles.

The oracles are the generator-based group questions, the diagonal
membership scanned over invariant monomials, union-find orbits and
Fraction charges that ``nhdm`` answered with before it asked everything
through the charge lattice, the Smith form that kept its transforms beside
the matrix, ``snf_rows`` with its ``u`` written out, the forced witness read
through that ``u``, the sign loop that mapped c-rows to monomials, the starred
factor read from the inverse of the Smith column transform, the
invariant factors merged from the prime powers of each cyclic order, the
abelian groups of each order assembled from per-prime partitions, the phase
congruences decided by a Smith form of the whole system for every orbit
tried, each candidate's equations grown orbit by orbit from term images and
invariance relations read afresh, the solution set as a particular
solution with torsion generators and free directions, the forced unitary
symmetry decided by testing that
solution set against one Smith form, the forced unitary symmetries searched
over every permutation that keeps the backbone classes, each with its term
images read afresh, the square classes keyed by the least center key
over a coset of squares, and the canonical generators and their phases
summed in Fractions; the tests require the library to agree with them.
The generator-based pattern scan tries all N! patterns, where the library
lists only the involutions; with sign -1 it also stands in for the
centralizer patterns, which no library code asks for.

The helpers include every element of a base's finite part, of which the
library reads one per square class, the square b b* of an antiunitary b J
taken entry by entry, the canonical-representative check on a stored
monomial, a rank by Fraction elimination that shares no code with the Smith
form, and the bilinear charge basis read straight off the circle weights.
"""

import itertools
from collections import Counter
from fractions import Fraction
from math import gcd, lcm

from nhdm.classifier import SymmetryGroup
from nhdm.cpext import GenPermMatrix, _cycles, _forced_symmetry, backbone_classes
from nhdm.exactmath import IntMatrix, SnfResult, hnf_rows, smith_columns, snf
from nhdm.groups import GroupSignature, canonicalize, group_from_snf
from nhdm.monomials import Monomial, phase_shift, term_table
from nhdm.torus import PhaseVector, torus_basis


# -- helpers moved out of the library ------------------------------------------


def finite_groups_by_subset_scan(n_doublets: int) -> set[GroupSignature]:
    """Finite groups found by checking every subset of exactly N-1 monomials.

    This is the direct strategy the lattice walk supersedes; it is kept as an
    independent cross-check of completeness.
    """
    found: set[GroupSignature] = set()
    for subset in itertools.combinations(term_table(n_doublets).charges, n_doublets - 1):
        x = IntMatrix.from_rows(subset)
        res = snf(x)
        if all(res.d):
            sig = group_from_snf(res.d, n_doublets - 1)
            if not sig.is_trivial:
                found.add(sig)
    return found


def charge_basis(n_doublets: int) -> IntMatrix:
    """A: row a - 1 is the charge of (phi_1^dagger phi_a), a = 2..N, taken on
    each circle as the weight of doublet a minus that of doublet 1, without
    ``bilinear_charges`` or ``charge_vector``."""
    weights = torus_basis(n_doublets).weights
    rows = [[w[a] - w[0] for w in weights] for a in range(1, n_doublets)]
    assert all(x.denominator == 1 for row in rows for x in row)
    return IntMatrix.from_rows([[int(x) for x in row] for row in rows])


def all_realized(probe) -> bool:
    """Whether a ``ConjectureProbe`` found every group within the bound."""
    return not probe.missing


def duplicate_charge_report(n_doublets: int) -> dict:
    """Charge vectors carried by more than one monomial (sign-insensitive)."""
    by_charge: dict = {}
    table = term_table(n_doublets)
    for m, chg in zip(table.monomials, table.charges):
        key = min(chg, tuple(-x for x in chg))
        by_charge.setdefault(key, []).append(m)
    return {k: tuple(v) for k, v in sorted(by_charge.items()) if len(v) > 1}


def antiunitary_square(b):
    """(b J)^2 = b b* as a unitary matrix, taken entry by entry.

    Its permutation is sigma applied twice, and row a carries the phase
    eta_a - eta_sigma(a): b's phase, less b*'s phase on the row sigma(a).
    """
    return GenPermMatrix(tuple(b.perm[b.perm[a]] for a in range(b.n)),
                         tuple(b.phases[a] - b.phases[b.perm[a]] for a in range(b.n)))


def monomials_of(n_doublets, terms) -> tuple:
    """The monomial of each term index of ``terms``, in order."""
    monomials = term_table(n_doublets).monomials
    return tuple(monomials[t] for t in terms)


def index_of(n_doublets, m) -> int:
    """The term index of the monomial ``m``."""
    return term_table(n_doublets).index[m.factors]


def is_canonical(m) -> bool:
    """Whether ``m`` is stored as the representative ``Monomial.canonical`` picks."""
    return m.factors == Monomial.canonical(m.factors).factors


def fraction_rank(rows) -> int:
    """Rank over the rationals, by Gaussian elimination on Fractions."""
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            factor = rows[i][col] / rows[rank][col]
            rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


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
    finite = [su_normalized(g) for g in base.group.finite_generators]
    return [perm for perm in itertools.permutations(range(n))
            if all(len({(psi[a] + sign * psi[perm[a]]) % 1 for a in range(n)}) == 1
                   for psi in finite)
            and all(w[a] + sign * w[perm[a]] == 0 for w in base.doublet_weights
                    for a in range(n))]


def commutant_support(base) -> tuple:
    """Entries (i, j) where psi_i + psi_j vanishes up to a center shift for every
    finite generator and exactly for every continuous direction."""
    n = base.n_doublets
    finite = [su_normalized(g) for g in base.group.finite_generators]
    shifts = {Fraction(k, n) % 1 for k in range(n)}

    def allowed(i: int, j: int) -> bool:
        for psi in finite:
            if (psi[i] + psi[j]) % 1 not in shifts:
                return False
        return all(w[i] + w[j] == 0 for w in base.doublet_weights)

    return tuple(tuple(allowed(i, j) for j in range(n)) for i in range(n))


def contains_diagonal(base, pv) -> bool:
    """pv leaves every invariant monomial of the base invariant.  Exact only
    when the lattice is spanned by monomial charges, as on every walked base."""
    return all(phase_shift(m, pv) == 0
               for m in monomials_of(base.n_doublets, base.invariant_monomials()))


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


def fraction_canonical_generator(column, d) -> tuple:
    """Lex-least coprime multiple of column/d, each multiple built from Fractions."""
    return min(tuple(Fraction(k * c, d) % 1 for c in column)
               for k in range(1, d + 1) if gcd(k, d) == 1)


def fraction_element_from_angles(basis, angles) -> PhaseVector:
    """Torus element with the given circle angles, summed in Fraction products."""
    phases = [Fraction(0)] * basis.n_doublets
    for angle, weight in zip(angles, basis.weights):
        for a in range(basis.n_doublets):
            phases[a] += angle * weight[a]
    return PhaseVector(tuple(phases))


def fraction_group_of_terms(terms, basis) -> SymmetryGroup:
    """``symmetry_group_of_terms`` from Fraction charges and the Fraction generators."""
    d, v = smith_columns([fraction_charge_vector(m, basis) for m in terms], basis.n)
    angles = tuple(fraction_canonical_generator(v.column(i), di)
                   for i, di in enumerate(d) if di > 1)
    rank = sum(1 for x in d if x)
    return SymmetryGroup(group_from_snf(d, basis.n), angles,
                         tuple(fraction_element_from_angles(basis, a) for a in angles),
                         tuple(v.column(i) for i in range(rank, basis.n)))


# -- oracles: the Smith form with separate transforms, c-rows by sign loop ------


def _swap_rows(a, u, i, j):
    a[i], a[j] = a[j], a[i]
    u[i], u[j] = u[j], u[i]


def _swap_cols(a, v, i, j):
    for row in a:
        row[i], row[j] = row[j], row[i]
    for row in v:
        row[i], row[j] = row[j], row[i]


def _add_row(a, u, dst, src, factor):
    a[dst] = [x + factor * y for x, y in zip(a[dst], a[src])]
    u[dst] = [x + factor * y for x, y in zip(u[dst], u[src])]


def _add_col(a, v, dst, src, factor):
    for row in a:
        row[dst] += factor * row[src]
    for row in v:
        row[dst] += factor * row[src]


def _negate_row(a, u, i):
    a[i] = [-x for x in a[i]]
    u[i] = [-x for x in u[i]]


def _pivot(a, t, nrows, ncols):
    best = None
    best_abs = None
    for i in range(t, nrows):
        for j in range(t, ncols):
            x = a[i][j]
            if x and (best_abs is None or abs(x) < best_abs):
                best, best_abs = (i, j), abs(x)
                if best_abs == 1:
                    return best
    return best


def reference_snf(m):
    """Smith form as (d, u, v) with u and v kept beside the matrix, each
    operation applied to both by a helper; ``nhdm.exactmath.snf`` must take
    the same operations in the same order."""
    nrows, ncols = m.rows, m.cols
    a = [list(row) for row in m.entries]
    u = [[1 if i == j else 0 for j in range(nrows)] for i in range(nrows)]
    v = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]
    t = 0
    while t < min(nrows, ncols):
        piv = _pivot(a, t, nrows, ncols)
        if piv is None:
            break
        _swap_rows(a, u, t, piv[0])
        _swap_cols(a, v, t, piv[1])
        while True:
            restart = False
            for i in range(t + 1, nrows):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    if q:
                        _add_row(a, u, i, t, -q)
                    if a[i][t]:
                        _swap_rows(a, u, t, i)
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, ncols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    if q:
                        _add_col(a, v, j, t, -q)
                    if a[t][j]:
                        _swap_cols(a, v, t, j)
                        restart = True
                        break
            if restart:
                continue
            p = a[t][t]
            bad = next(((i, j) for i in range(t + 1, nrows) for j in range(t + 1, ncols)
                        if a[i][j] % p), None)
            if bad is None:
                break
            _add_row(a, u, t, bad[0], 1)
        if a[t][t] < 0:
            _negate_row(a, u, t)
        t += 1
    d = tuple(a[i][i] for i in range(min(nrows, ncols)))
    return d, tuple(map(tuple, u)), tuple(map(tuple, v))


def monomial_for_c_row(row, n_doublets):
    """Least monomial (by factor count, then factors) among ``_realizations``."""
    candidates = _realizations(tuple(row))
    if not candidates:
        raise ValueError(f"row {tuple(row)} is not an admissible monomial pattern")
    return min(candidates, key=lambda m: (len(m.factors), m.factors))


def _realizations(row):
    """Monomials for the row and for its negation: positive entries become
    phi factors, negative ones phi^dagger factors, and phi_1^dagger pads the
    phi^dagger side up to the phi side."""
    out = []
    for sign in (1, -1):
        entries = [sign * x for x in row]
        pos = [(i + 2, x) for i, x in enumerate(entries) if x > 0]
        neg = [(i + 2, -x) for i, x in enumerate(entries) if x < 0]
        total_pos = sum(x for _, x in pos)
        total_neg = sum(x for _, x in neg)
        if total_pos == 0:
            continue
        while total_neg < total_pos:
            neg.append((1, 1))
            total_neg += 1
        if total_neg != total_pos or total_pos > 2:
            continue
        ups = [d for d, w in pos for _ in range(w)]
        downs = [d for d, w in neg for _ in range(w)]
        if len(ups) == 1:
            out.append(Monomial.canonical(((downs[0], ups[0]),)))
        else:
            for first, second in ((0, 1), (1, 0)):
                f1 = (downs[first], ups[0])
                f2 = (downs[second], ups[1])
                if f1[0] != f1[1] and f2[0] != f2[1]:
                    try:
                        out.append(Monomial.canonical((f1, f2)))
                    except ValueError:
                        pass
    return out


# -- oracles: the star from v^-1, abelian groups from prime partitions ----------


def extend_by_antiunitary(unitary, square_exponents):
    """Starred extension with the antiunitary factor flagged by the j-column
    of v^-1, taken from a second Smith form of v."""
    gens = unitary.finite
    r = len(gens)
    rows = [[gens[i] if k == i else 0 for k in range(r + 1)] for i in range(r)]
    rows.append([-int(c) for c in square_exponents] + [2])
    res = snf(IntMatrix.from_rows(rows))
    res_v = snf(res.v)  # v is unimodular: u' v v' = I, so v^-1 = v' u'
    v_inv = res_v.v @ res_v.u
    factors = []
    flags = []
    for i, d in enumerate(res.d):
        if d == 1:
            continue
        factors.append(d)
        flags.append(v_inv[(i, r)] % 2 == 1)
    first = next(i for i, f in enumerate(flags) if f)
    finite = tuple(f for i, f in enumerate(factors) if i != first)
    return GroupSignature(finite, unitary.torus_rank, star=factors[first])


def _partitions(k, cap=None):
    if k == 0:
        yield ()
        return
    cap = k if cap is None else min(cap, k)
    for first in range(cap, 0, -1):
        for rest in _partitions(k - first, first):
            yield (first,) + rest


def _prime_factorization(n):
    """Prime exponents of n by trial division, as {prime: exponent}."""
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def canonicalize_by_factoring(factors):
    """Invariant factors of a product of cyclic groups: the i-th largest
    power of each prime, over all factors, goes into the i-th factor."""
    primes = {}
    for f in factors:
        for p, e in _prime_factorization(f).items():
            primes.setdefault(p, []).append(e)
    chain = []
    for i in range(max((len(v) for v in primes.values()), default=0)):
        chain.append(1)
        for p, exps in primes.items():
            exps = sorted(exps, reverse=True)
            if i < len(exps):
                chain[-1] *= p ** exps[i]
    return GroupSignature(tuple(sorted(d for d in chain if d > 1)))


def abelian_groups_of_order(m):
    """One partition of each prime's exponent per factor of m, every
    combination put through ``canonicalize``, sorted."""
    per_prime = [[(p, part) for part in _partitions(e)]
                 for p, e in sorted(_prime_factorization(m).items())]
    out = set()
    for combo in itertools.product(*per_prime):
        out.add(canonicalize([p ** e for p, part in combo for e in part]))
    return sorted(out, key=GroupSignature.sort_key)


# -- oracles: phase congruences by a Smith form per question ---------------------


def _rank(res) -> int:
    """The count of nonzero entries of the Smith diagonal of ``res``."""
    return sum(1 for x in res.d if x)


def snf_rows(rows, ncols) -> SnfResult:
    """``snf`` of the matrix with these rows and ``ncols`` columns, its ``u``
    written out beside it; ``nhdm`` reads ``u`` only through the border of
    ``smith_bordered``.

    With no rows or no columns there is nothing to reduce: the diagonal is
    empty and both transforms are identities, and ``snf`` is not called.
    """
    if rows and ncols:
        return snf(IntMatrix.from_rows(rows))
    return SnfResult((), IntMatrix.identity(len(rows)), IntMatrix.identity(ncols))


def _transform(res, rhs, rows):
    """The given rows of u @ (D * rhs), and D, the lcm of the denominators of rhs."""
    scale = lcm(*(b.denominator for b in rhs))
    scaled = [(j, b.numerator * (scale // b.denominator)) for j, b in enumerate(rhs) if b]
    u = res.u.entries
    return [sum(u[i][j] * b for j, b in scaled) for i in rows], scale


def _solvable(res, rhs) -> bool:
    """A x == rhs (mod 1) has a solution: each row of u @ rhs past the rank is an integer."""
    t, scale = _transform(res, rhs, range(_rank(res), res.u.rows))
    return all(x % scale == 0 for x in t)


def _in_span(res, rhs) -> bool:
    """rhs lies in the rational column span of A: each row of u @ rhs past the rank is zero."""
    t, _ = _transform(res, rhs, range(_rank(res), res.u.rows))
    return not any(t)


def hnf_lattice(equations, ncols) -> tuple:
    """The Hermite basis of the rows [A_i | D b_i] and (0, ..., 0, D) of the
    congruences (row, b) over ``ncols`` unknowns, taken at once, and D."""
    scale = lcm(*(rhs.denominator for _, rhs in equations))
    rows = [tuple(row) + (rhs.numerator * (scale // rhs.denominator),) for row, rhs in equations]
    rows.append((0,) * ncols + (scale,))
    return hnf_rows(rows), scale


def split_row(system, row) -> tuple:
    """A row over every unknown of ``system`` as ``fixes`` takes it: the head
    part and the psi entries keyed by term, zeros included, through ``column``."""
    if len(row) != len(system.unknowns):
        raise ValueError(f"need {len(system.unknowns)} coefficients, got {len(row)}")
    return tuple(row[:system.head]), dict(zip(system.column, row[system.head:]))


def solve(system):
    """(particular, torsion generators, free directions) or None, from one
    Smith form of the whole system.

    Free directions span the divisible part of the solution set, torsion
    generators its finite part (all mod 1)."""
    res = snf_rows([row for row, _ in system.equations], len(system.unknowns))
    rhs = [r for _, r in system.equations]
    if not _solvable(res, rhs):
        return None
    nu = len(system.unknowns)
    torsion = [[Fraction(res.v[(j, i)], res.d[i]) % 1 for j in range(nu)]
               for i in range(_rank(res)) if res.d[i] > 1]
    free = [[Fraction(res.v[(j, i)]) for j in range(nu)] for i in range(_rank(res), nu)]
    return fraction_particular(res, rhs), torsion, free


def forced_symmetry(candidate, perm, particular, torsion, free):
    """Unitary witness with permutation ``perm`` if one is forced, else None:
    one Smith form of the entry-phase coefficients, checked for solvability
    against the particular coefficient phases and each torsion generator,
    and for span against each free direction."""
    n = candidate.base.n_doublets
    klass = {m: i for i, cls in enumerate(candidate.magnitude_classes)
             for m in monomials_of(n, cls)}
    positions = {m: candidate.base.layout[1][index_of(n, m)] for m in klass}
    relations = []
    for m in monomials_of(n, candidate.surviving):
        img, conjugated = m.permuted(perm)
        if klass.get(img) != klass[m]:
            return None
        relations.append(invariance_relation(m, img, conjugated, n, positions))

    def rhs(assign):
        return [-sum((c * assign[j] for j, c in psi.items()), Fraction(0))
                for _, psi in relations]

    res = snf_rows([theta for theta, _ in relations], n)
    target = rhs(particular)
    if not (_solvable(res, target)
            and all(_solvable(res, rhs(gen)) for gen in torsion)
            and all(_in_span(res, rhs(direction)) for direction in free)):
        return None
    return GenPermMatrix(perm, tuple(fraction_particular(res, target)))


def forced_symmetry_through_u(candidate, perm):
    """Unitary witness with permutation ``perm`` if one is forced, else None,
    read through the Smith transform u written out: each row z of u past
    the rank of the entry coefficients R, with z @ P summed by term over the
    psi entries of the relations, must be fixed by the candidate's system,
    and the witness is read from u @ (D target) at the oracle's particular
    solution, in Fractions."""
    n = candidate.base.n_doublets
    system = candidate.system
    klass = {m: i for i, cls in enumerate(candidate.magnitude_classes)
             for m in monomials_of(n, cls)}
    relations = []
    for m in monomials_of(n, candidate.surviving):
        img, conjugated = m.permuted(perm)
        if klass.get(img) != klass[m]:
            return None
        relations.append(invariance_relation(m, img, conjugated, n,
                                             {t: index_of(n, t) for t in klass}))
    res = snf_rows([theta for theta, _ in relations], n)
    for z in res.u.entries[_rank(res):]:
        w = Counter()
        for zk, (_, psi) in zip(z, relations):
            for t, c in psi.items():
                w[t] += zk * c
        if not system.fixes((0,) * system.head, dict(w)):
            return None
    particular = solve(system)[0]
    target = [-sum((c * particular[system.column[t]] for t, c in psi.items()), Fraction(0))
              for _, psi in relations]
    return GenPermMatrix(perm, tuple(fraction_particular(res, target)))


def preserves_backbone(classes, perm) -> bool:
    """``perm`` maps each single and each pair class of ``classes`` onto itself."""
    if any({perm[a - 1] + 1 for a in cls} != set(cls) for cls in classes.single_classes):
        return False
    return all({tuple(sorted((perm[a - 1] + 1, perm[b - 1] + 1))) for a, b in cls} == set(cls)
               for cls in classes.pair_classes)


def term_images(candidate, perm) -> dict:
    """Each surviving monomial's (image, conjugated) under ``perm``, read afresh."""
    return {m: m.permuted(perm)
            for m in monomials_of(candidate.base.n_doublets, candidate.surviving)}


def forced_symmetries(candidate):
    """Each unitary generalized permutation forced on the candidate's potential,
    searched over every non-identity permutation, in sorted order, that keeps
    the backbone classes of the candidate's pattern."""
    classes = backbone_classes(candidate.sigma)
    for perm in itertools.islice(itertools.permutations(range(candidate.base.n_doublets)), 1, None):
        if preserves_backbone(classes, perm):
            forced = _forced_symmetry(candidate, perm)
            if forced is not None:
                yield forced


def finite_elements(base) -> list:
    """Every element of the finite part of ``base`` as (exponents, phase vector),
    the exponents over ``base.group.finite_generators`` in product order."""
    gens = base.group.finite_generators
    return [(expts, PhaseVector(tuple(sum(e * g.phases[a] for e, g in zip(expts, gens))
                                      for a in range(base.n_doublets))))
            for expts in itertools.product(*(range(d) for d in base.group.signature.finite))]


def squares(elements) -> list:
    """The squares 2 h of ``elements``, one phase vector per center key."""
    return list({sq.center_key(): sq for sq in (2 * pv for _, pv in elements)}.values())


def square_class_key(squares, f) -> tuple:
    """The least center key over the coset of f modulo ``squares``."""
    return min((f + s).center_key() for s in squares)


def smith_solvable(equations, ncols) -> bool:
    """Solvability of the congruences (row, b) over ``ncols`` unknowns from one
    Smith form of them all: each row of u @ (D b) past the rank is divisible by D."""
    return _solvable(snf_rows([row for row, _ in equations], ncols),
                     [rhs for _, rhs in equations])


def fraction_particular(res, rhs) -> list:
    """One solution of A x == rhs (mod 1), summed in Fractions term by term."""
    t, scale = _transform(res, rhs, range(_rank(res)))
    y = [Fraction(x % scale, scale * d) for x, d in zip(t, res.d)]
    return [sum((res.v[(j, i)] * y[i] for i in range(_rank(res))), Fraction(0)) % 1
            for j in range(res.v.rows)]


def invariance_relation(m, img, conjugated, n_doublets, positions) -> tuple:
    """The invariance relation of the term m under a map sending it to ``img``,
    written from the rule: on each entry phase the net exponent of its
    doublet in m, phi less phi^dagger, read off the factors; on psi_m 1, and
    on psi_img 1 more for a conjugated image or 1 less for a direct one.
    Returns the entry coefficients and the nonzero psi coefficients keyed by
    ``positions``."""
    xi = [0] * n_doublets
    for a, b in m.factors:
        xi[a - 1] -= 1
        xi[b - 1] += 1
    psi = Counter({positions[m]: 1})
    psi[positions[img]] += 1 if conjugated else -1
    return tuple(xi), {j: c for j, c in psi.items() if c}


def orbit_rows(base, sigma, orbit) -> list:
    """The invariance relations of the monomials of ``orbit`` under b J, for b
    on the pattern ``sigma``, as (row over ``base.layout``, 0): each image
    read afresh by conjugating the term, then permuting it."""
    n = base.n_doublets
    unknowns, columns = base.layout
    positions = {m: columns[t] for m, t in zip(monomials_of(n, columns), columns)}
    rows = []
    for m in orbit:
        img, conjugated = Monomial(m.conjugate_factors()).permuted(sigma)
        xi, psi = invariance_relation(m, img, conjugated, n, positions)
        row = list(xi) + [0] * (len(unknowns) - n)
        for j, c in psi.items():
            row[j] += c
        rows.append((tuple(row), Fraction(0)))
    return rows


def refactoring_restriction(base, sigma, pin, invariant) -> tuple:
    """(surviving, killed, magnitude classes, equations) of a candidate, as
    monomials, from the ``invariant`` monomials of ``base``, with
    each orbit's ``orbit_rows`` kept when ``smith_solvable`` holds for the
    equations kept so far, the pins first, plus those rows."""
    images = {m: Monomial(m.conjugate_factors()).permuted(sigma) for m in invariant}
    kept = pin.equations
    surviving, killed, classes = [], [], []
    for orbit in _cycles(invariant, lambda m: images[m][0]):
        rows = orbit_rows(base, sigma, orbit)
        if smith_solvable(kept + rows, len(pin.unknowns)):
            kept += rows
            surviving.extend(orbit)
            classes.append(orbit)
        else:
            killed.extend(orbit)
    return tuple(sorted(surviving)), tuple(sorted(killed)), tuple(classes), kept
