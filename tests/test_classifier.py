import hashlib
import json
import random
from collections import Counter, deque
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nhdm import classifier, exactmath
from nhdm.classifier import (
    ClassificationEntry,
    ClassificationResult,
    classify,
    probe_conjecture,
    symmetry_group_of_terms,
    verify_order_bound,
    witness_potential,
)
from nhdm.exactmath import IntMatrix, hnf_add, hnf_unit_split, smith_rank, snf
from nhdm.groups import GroupSignature
from nhdm.monomials import Monomial, charge_vector, enumerate_monomials, term_table
from nhdm.torus import PhaseVector, TorusBasis, equal_mod_center, torus_basis
from reference import all_realized, finite_groups_by_subset_scan, fraction_group_of_terms, snf_rows


def names(sigs):
    return sorted(s.name() for s in sigs)


def commutator_map(masses):
    """Integer matrix of X -> DX - XD on row-major vec(X), D = diag(masses)."""
    n = len(masses)
    d = [[masses[i] if i == k else 0 for k in range(n)] for i in range(n)]
    return [[d[i][k] * (j == l) - (i == k) * d[l][j] for k in range(n) for l in range(n)]
            for i in range(n) for j in range(n)]


class TestUnitaryPremise:
    """Distinct backbone masses leave only diagonal unitary symmetries."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_commutant_of_distinct_masses_is_the_diagonal_algebra(self, n):
        rows = commutator_map(random.Random(n).sample(range(1, 100), n))
        # the N diagonal units are in the kernel, and rank N^2 - N leaves
        # room for nothing else
        assert all(row[a * n + a] == 0 for row in rows for a in range(n))
        assert smith_rank(snf(IntMatrix.from_rows(rows)).d) == n * n - n

    def test_equal_masses_let_the_pair_mix(self):
        rows = commutator_map([3, 3, 5])
        assert smith_rank(snf(IntMatrix.from_rows(rows)).d) == 9 - 3 - 2


class TestSymmetryGroupOfTerms:
    def test_worked_pair_solves_to_z3(self):
        basis = torus_basis(3)
        terms = [Monomial(((1, 2), (1, 3))), Monomial(((2, 1), (2, 3)))]
        group = symmetry_group_of_terms(terms, basis)
        assert group.signature == GroupSignature((3,))
        assert group.finite_generator_angles == ((F(1, 3), F(0)),)
        assert group.finite_generators[0].phases == (F(2, 3), F(1, 3), F(0))

    def test_single_term_continuous(self):
        basis = torus_basis(3)
        group = symmetry_group_of_terms([Monomial.canonical(((1, 3), (2, 3)))], basis)
        assert group.signature == GroupSignature(torus_rank=1)
        assert group.torus_directions == ((1, 0),)

    def test_single_square_u1_x_z2(self):
        basis = torus_basis(3)
        group = symmetry_group_of_terms([Monomial.canonical(((2, 3), (2, 3)))], basis)
        assert group.signature == GroupSignature((2,), torus_rank=1)

    def test_seven_torsion_terms(self):
        basis = torus_basis(4)
        terms = [Monomial(((1, 3), (1, 4))), Monomial(((2, 1), (2, 4))),
                 Monomial(((3, 2), (3, 4)))]
        group = symmetry_group_of_terms(terms, basis)
        assert group.signature == GroupSignature((7,))
        gen = group.finite_generators[0]
        assert (7 * gen).is_identity_mod_center()
        paper_generator = PhaseVector((F(-9, 28), F(-1, 28), F(3, 28), F(7, 28)))
        assert any(equal_mod_center(k * gen, paper_generator) for k in range(1, 7))


class TestClassify:
    def test_three_doublets_full_list(self):
        result = classify(3)
        assert names(tuple(e.signature for e in result.entries)) == names([
            GroupSignature((2,)), GroupSignature((3,)), GroupSignature((4,)),
            GroupSignature((2, 2)), GroupSignature(torus_rank=1),
            GroupSignature((2,), torus_rank=1), GroupSignature(torus_rank=2)])

    def test_two_doublets_by_hand(self):
        # charges are (1) and (2): the only lattices are Z, 2Z and the empty one
        result = classify(2)
        assert names(tuple(e.signature for e in result.entries)) == ["U(1)", "Z2"]
        assert result.max_finite_order == 2

    def test_four_doublet_finite_list(self):
        assert names(classify(4).finite_signatures()) == names([
            GroupSignature((k,)) for k in range(2, 9)] + [
            GroupSignature((2, 2)), GroupSignature((2, 4)), GroupSignature((2, 2, 2))])

    def test_every_witness_reproduces_its_signature(self):
        for n in (2, 3, 4):
            basis = torus_basis(n)
            for entry in classify(n).entries:
                if entry.witness:
                    group = symmetry_group_of_terms(entry.witness, basis)
                    assert group.signature == entry.signature
                else:
                    assert entry.signature == GroupSignature(torus_rank=n - 1)

    def test_trivial_group_excluded(self):
        for n in (2, 3, 4):
            assert all(not e.signature.is_trivial for e in classify(n).entries)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            classify(7)
        with pytest.raises(ValueError):
            classify(1)


def reference_walk_of(generators):
    """The lattice walk without coset deduplication or pruning: from every
    lattice, every generator that is not already a member is added, in
    order."""
    states = {(): ()}
    frontier = deque([()])
    while frontier:
        lattice = frontier.popleft()
        witness = states[lattice]
        for chg, label in generators:
            grown = hnf_add(lattice, chg)
            if grown == lattice:
                continue
            if grown not in states:
                states[grown] = witness + (label,)
                frontier.append(grown)
    return states


def reference_walk(n):
    basis = torus_basis(n)
    generators = []
    seen = set()
    for m in enumerate_monomials(n):
        chg = charge_vector(m, basis)
        key = min(chg, tuple(-c for c in chg))
        if key not in seen:
            seen.add(key)
            generators.append((chg, m))
    return reference_walk_of(generators)


def walk_digest(states):
    """SHA-256 of the walk's JSON lines joined by newlines, fed one line at a time."""
    digest = hashlib.sha256()
    for k, (rows, witness) in enumerate(states.items()):
        if k:
            digest.update(b"\n")
        digest.update(json.dumps((rows, [m.to_json() for m in witness])).encode())
    return digest.hexdigest()


@st.composite
def generator_lists(draw):
    dim = draw(st.integers(1, 3))
    vectors = draw(st.lists(st.tuples(*[st.integers(-4, 4)] * dim), min_size=1, max_size=8))
    return [(vec, i) for i, vec in enumerate(vectors)]


def edges_of_walks(monkeypatch):
    """The vector of every ``hnf_add`` call the walk makes from now on."""
    edges = []
    real = classifier.hnf_add
    monkeypatch.setattr(classifier, "hnf_add",
                        lambda basis, vec: edges.append(vec) or real(basis, vec))
    return edges


def negations_of_walks(monkeypatch):
    """The residue of every negation the walk reads from now on."""
    negations = []
    real = classifier.hnf_negation

    def counted(basis):
        negated = real(basis)
        return lambda residue: negations.append(residue) or negated(residue)

    monkeypatch.setattr(classifier, "hnf_negation", counted)
    return negations


def residue_passes(monkeypatch):
    """The lattice and the vector count of each ``hnf_residues`` pass the walk makes from now on."""
    passes, vectors = [], []
    real = classifier.hnf_residues

    def counted(basis, columns):
        passes.append(basis)
        vectors.append(len(columns[0]))
        return real(basis, columns)

    monkeypatch.setattr(classifier, "hnf_residues", counted)
    return passes, vectors


class TestLatticeWalk:
    @pytest.mark.parametrize("n", [3, 4])
    def test_same_order_and_witnesses_as_the_reference_walk(self, n):
        # classify takes the first lattice per group in insertion order as
        # its minimal witness, so the order matters, not just the set
        assert list(classifier._lattice_scan(n).items()) == list(reference_walk(n).items())

    @settings(max_examples=200, deadline=None, database=None)
    @given(generator_lists())
    @example([])
    @example([((0, 0), 0), ((0, 0), 1), ((0, 0), 2)])
    # Z needs all three, so the walk goes deeper than the rank; and 15 has
    # residue 3 modulo 6Z, its own negation, which must still be tried: a
    # walk that skips such a residue too matches the N=3..5 walks, and this
    # is the explicit example it fails
    @example([((6,), 0), ((10,), 1), ((15,), 2)])
    # a generator, its negative and its double share or split cosets
    @example([((2, 1), 0), ((1, 3), 1), ((-2, -1), 2), ((4, 2), 3)])
    # one generator: one residue per pass, spread to one generator
    @example([((3,), 0)])
    # repeated generators: every pass has one distinct residue
    @example([((2, 1), 0), ((2, 1), 1), ((2, 1), 2)])
    # modulo <(0, 2)>, the residues (1, 0) and (1, 2) of the zero lattice
    # merge into one class, whose first index is 1: generator 2 is not
    # tried, and <(0, 2), (1, 0)> keeps the witness (0, 1)
    @example([((0, 2), 0), ((1, 0), 1), ((1, 2), 2)])
    # modulo 5Z, the class 3 of generator 2 is the negation of the class 2
    # of generator 1, whose first index is earlier: generator 1 is tried
    # and reaches Z with the witness (0, 1), and generator 2 is not
    @example([((5,), 0), ((2,), 1), ((3,), 2)])
    def test_pruned_walk_equals_the_reference_walk(self, generators):
        # random generators may repeat, vanish or be multiples of each other
        walked = classifier._walk(generators)
        assert list(walked.items()) == list(reference_walk_of(generators).items())

    @pytest.mark.parametrize("n", [3, 4])
    def test_edge_budget(self, monkeypatch, n):
        # one hnf_add per tried edge; an edge is tried only for the first
        # index of a nonzero class whose negation's class has no earlier
        # first index: then every edge records a lattice, one per lattice
        # after the zero lattice.  The negation is read once per nonzero
        # class whose first index is past the start
        edges = edges_of_walks(monkeypatch)
        negations = negations_of_walks(monkeypatch)
        states = classifier._lattice_scan.__wrapped__(n)
        assert len(edges) == len(states) - 1 == {3: 18, 4: 294}[n]
        assert len(negations) == {3: 26, 4: 541}[n]

    def test_five_doublet_edge_budget(self, monkeypatch):
        # the one edge budget that is not one per lattice: 8 of its edges
        # reach a lattice recorded already
        edges = edges_of_walks(monkeypatch)
        negations = negations_of_walks(monkeypatch)
        states = classifier._lattice_scan.__wrapped__(5)
        assert (len(edges), len(states), len(negations)) == (11500, 11493, 24464)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_residue_budget(self, monkeypatch, n):
        # one hnf_residues pass per lattice below full rank, in walk order: a
        # full-rank lattice is not queued, since its children are all
        # recorded; each pass reduces only the nonzero distinct residues
        # modulo the lattice's parent (27 generators at N=4, 19.4 residues
        # per pass)
        passes, vectors = residue_passes(monkeypatch)
        states = classifier._lattice_scan.__wrapped__(n)
        assert (len(passes), sum(vectors)) == {2: (1, 2), 3: (10, 90), 4: (169, 3273)}[n]
        assert passes == [lattice for lattice in states if len(lattice) < n - 1]

    def test_five_doublet_residue_budget(self, monkeypatch):
        # 36.8 nonzero distinct residues per pass on average, of 65 generators
        passes, vectors = residue_passes(monkeypatch)
        classifier._lattice_scan.__wrapped__(5)
        assert (len(passes), sum(vectors)) == (6261, 230567)

    def test_residues_past_one_byte_are_kept_whole(self, monkeypatch):
        # modulo the lattice of (1, 100), the residue of (2, 0) is (0, -200),
        # past array('b'): that parent keeps its nonzero residues as a tuple,
        # and the walk is still the reference walk
        stores = []
        real = classifier._packed

        def packed(typecode, values):
            stores.append(real(typecode, values))
            return stores[-1]

        monkeypatch.setattr(classifier, "_packed", packed)
        generators = [((1, 100), 0), ((2, 0), 1), ((0, 1), 2)]
        walked = classifier._walk(generators)
        assert list(walked.items()) == list(reference_walk_of(generators).items())
        assert (0, -200, 0, 1) in stores

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_depth_equals_rank(self, n):
        # the premise of the full-rank skip: every lattice of the walk from
        # zero over the monomial charges has a witness as long as its rank
        assert all(len(witness) == len(lattice)
                   for lattice, witness in classifier._lattice_scan(n).items())

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_minimal_witness_has_one_term_per_lattice_rank(self, n):
        # so every finite group has a minimal witness of exactly N-1 terms,
        # and one with k U(1) factors has one of N-1-k terms
        assert all(len(e.witness) == n - 1 - e.signature.torus_rank
                   for e in classify(n).entries)

    def test_full_rank_skip_needs_the_premise(self):
        # Z needs all three generators, so the depth exceeds the rank; the
        # skip stops at the rank-one lattices and never reaches Z
        generators = [((6,), 0), ((10,), 1), ((15,), 2)]
        assert ((1,),) in classifier._walk(generators)
        skipped = classifier._walk(generators, skip_full_rank=True)
        assert list(skipped) == [(), ((6,),), ((10,),), ((15,),)]

    def test_zero_generator_takes_no_edge(self, monkeypatch):
        edges = edges_of_walks(monkeypatch)
        classifier._walk([((0, 0), 0), ((2, 0), 1), ((0, 0), 2)])
        assert edges == [(2, 0)]

    def test_five_doublet_walk_is_pinned(self):
        # digest of the N=5 walk, lattices and witnesses in insertion order,
        # recorded from the walk without the last-generator pruning
        states = classifier._lattice_scan(5)
        assert len(states) == 11493
        assert walk_digest(states) == (
            "5cca90c73f9f159f54b5cb67eb2a01cd9daaccca1313f168e2c36654faa3d075")

    @pytest.mark.slow
    def test_six_doublet_walk_is_pinned(self):
        # digest of the N=6 walk, recorded from the walk whose coset set
        # started from the zero residue alone; minutes of work and about
        # 600 MiB at its peak, most of it the walk's own, which makes it the
        # one opt-in test, run with `pytest -m slow`
        states = classifier._lattice_scan(6)
        assert len(states) == 1051229
        assert all(len(witness) == len(lattice) for lattice, witness in states.items())
        assert walk_digest(states) == (
            "a8292697b08da67aea60388e94b69e01b595d8104a7eb6f9dc61556840d199e8")


def reference_classification(n_doublets):
    """Group extraction from the bordered ``snf_rows`` reading of every walked lattice."""
    basis = torus_basis(n_doublets)
    primary, counts = {}, {}
    for lattice, witness in classifier._lattice_scan(n_doublets).items():
        res = snf_rows(lattice, basis.n)
        group = classifier._group_from_smith(res.d, res.v, basis)
        sig = group.signature
        if sig.is_trivial:
            continue
        counts[sig] = counts.get(sig, 0) + 1
        if sig not in primary:
            primary[sig] = witness, group.finite_generators
    entries = tuple(ClassificationEntry(sig, *primary[sig], n_lattices=counts[sig])
                    for sig in sorted(primary, key=GroupSignature.sort_key))
    max_order = max((int(e.signature.order()) for e in entries if e.signature.is_finite),
                    default=1)
    return ClassificationResult(entries, max_order)


class TestGroupExtraction:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_same_result_as_extracting_every_lattice(self, n):
        # compares every field of every entry: signature, witness,
        # generators and n_lattices
        assert classifier.classify(n) == reference_classification(n)

    def test_empty_lattice_is_the_full_torus(self):
        group = classifier._group_of_lattice((), torus_basis(4))
        assert group.signature == GroupSignature(torus_rank=3)
        assert group.finite_generators == ()
        assert group.torus_directions == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    @pytest.mark.parametrize("n", [3, 4])
    def test_smith_budget(self, monkeypatch, n):
        # one smith_columns diagonal per distinct nonempty block left by the
        # unit pivots, and one full-width reading (d and v) of the first
        # lattice of each printed entry; snf is never taken
        uncached = classifier.classify.__wrapped__
        result = uncached(n)  # fill the caches below the classification first
        calls, snf_calls = [], []
        real = classifier.smith_columns

        def counted(rows, ncols):
            calls.append((tuple(rows), ncols))
            return real(rows, ncols)

        monkeypatch.setattr(classifier, "smith_columns", counted)
        monkeypatch.setattr(exactmath, "snf", lambda m: snf_calls.append(m))
        uncached(n)
        assert snf_calls == []
        assert len(calls) == {3: 17, 4: 126}[n]
        scan = classifier._lattice_scan(n)
        lattice_of = {witness: lattice for lattice, witness in scan.items()}
        firsts = [(lattice_of[e.witness], n - 1) for e in result.entries]
        splits = {hnf_unit_split(lattice, n - 1) for lattice in scan}
        blocks = [(block, width) for _, block, width in splits if block]
        assert Counter(calls) == Counter(blocks) + Counter(firsts)

    def test_term_input_errors(self):
        basis = torus_basis(3)
        with pytest.raises(ValueError, match="empty term list"):
            symmetry_group_of_terms([], basis)
        for factors in (((1, 4),), ((0, 2),)):
            with pytest.raises(ValueError, match="outside 1..3"):
                symmetry_group_of_terms([Monomial(factors)], basis)


def random_term(rng, n):
    """One or two random off-diagonal bilinears; about one in six is neutral, (a,b)(b,a)."""
    a, b = rng.sample(range(1, n + 1), 2)
    if rng.random() < 0.15:
        return Monomial.canonical(((a, b), (b, a)))
    factors = [(a, b)]
    if rng.random() < 0.5:
        factors.append(tuple(rng.sample(range(1, n + 1), 2)))
    return Monomial.canonical(factors)


class TestTermQueryPath:
    def test_matches_the_fraction_path(self):
        # integer generators and memoized charges against the Fraction forms
        rng = random.Random(28)
        cases = [(n, [random_term(rng, n) for _ in range(rng.randint(1, n + 1))])
                 for n in (rng.randint(3, 6) for _ in range(300))]
        # every classify entry at N=3 and 4, its witness with a neutral term added
        cases += [(n, [*e.witness, Monomial.canonical(((1, n), (n, 1)))])
                  for n in (3, 4) for e in classify(n).entries]
        generators = 0
        for n, terms in cases:
            basis = torus_basis(n)
            group = symmetry_group_of_terms(terms, basis)
            assert group == fraction_group_of_terms(terms, basis)
            generators += len(group.finite_generators)
        assert sum(any(m.factors not in term_table(n).index for m in terms)
                   for n, terms in cases) > 100
        assert generators > 50

    def test_each_charge_is_summed_once_per_basis(self):
        class CountingBasis(TorusBasis):
            reads = 0

            @property
            def bilinear_charges(self):
                CountingBasis.reads += 1
                return torus_basis(self.n_doublets).bilinear_charges

        basis = CountingBasis(4, torus_basis(4).weights)
        rng = random.Random(7)
        seen = set()
        for _ in range(3):
            for _ in range(100):
                terms = [random_term(rng, 4) for _ in range(rng.randint(1, 5))]
                seen.update(terms)
                symmetry_group_of_terms(terms, basis)
            assert CountingBasis.reads == len(seen) == len(basis.charges)

    def test_builds_no_validated_matrix(self, monkeypatch):
        def no_matrix(self):
            raise AssertionError("an IntMatrix was validated")

        monkeypatch.setattr(IntMatrix, "__post_init__", no_matrix)
        terms = [Monomial(((1, 2), (1, 3))), Monomial(((2, 1), (2, 3)))]
        assert symmetry_group_of_terms(terms, torus_basis(3)).signature == GroupSignature((3,))


class TestMonotonicity:
    def test_adding_terms_never_enlarges_the_group(self):
        rng = random.Random(41)
        for n in (3, 4):
            basis = torus_basis(n)
            monos = list(enumerate_monomials(n))
            for _ in range(40):
                chain = rng.sample(monos, rng.randint(2, min(6, len(monos))))
                prev_order = None
                prev_rank = None
                for k in range(1, len(chain) + 1):
                    group = symmetry_group_of_terms(chain[:k], basis)
                    order = group.signature.order()
                    rank = group.signature.torus_rank
                    if prev_order is not None:
                        assert rank <= prev_rank
                        if prev_rank == rank and prev_order != float("inf"):
                            assert prev_order % order == 0
                    prev_order, prev_rank = order, rank


class TestSubsetScanAgreement:
    @pytest.mark.parametrize("n", [2, 3])
    def test_small(self, n):
        bfs = set(classify(n).finite_signatures())
        assert finite_groups_by_subset_scan(n) == bfs


class TestOrderBound:
    def test_violation_raises(self, monkeypatch):
        # a fake walk that reports Z5 at N=2, where the bound is 2
        basis = torus_basis(2)
        mono = next(m for m in enumerate_monomials(2) if charge_vector(m, basis) == (2,))
        monkeypatch.setattr(classifier, "_lattice_scan", lambda n: {(): (), ((5,),): (mono,)})
        with pytest.raises(RuntimeError, match="order bound violated"):
            classifier.classify.__wrapped__(2)

    @pytest.mark.parametrize("n,expected", [(2, 2), (3, 4), (4, 8)])
    def test_bound_attained(self, n, expected):
        rep = verify_order_bound(n)
        assert rep.max_order == expected == rep.bound
        assert rep.bound_met


class TestConjectureProbe:
    def test_three_doublets_all_realized(self):
        rep = probe_conjecture(3)
        assert all_realized(rep)
        assert names(rep.realized) == names(
            [GroupSignature((2,)), GroupSignature((3,)), GroupSignature((4,)),
             GroupSignature((2, 2))])

    def test_four_doublets_all_ten_realized(self):
        rep = probe_conjecture(4)
        assert all_realized(rep)
        assert len(rep.realized) == 10


class TestWitnessPotential:
    def test_paper_z4_terms(self):
        basis = torus_basis(3)
        terms = [Monomial.canonical(((1, 3), (2, 3))), Monomial.canonical(((1, 2), (1, 2)))]
        assert symmetry_group_of_terms(terms, basis).signature == GroupSignature((4,))

    def test_klein_four_from_any_two_squares(self):
        basis = torus_basis(3)
        squares = [Monomial.canonical(((1, 2), (1, 2))),
                   Monomial.canonical(((2, 3), (2, 3))),
                   Monomial.canonical(((3, 1), (3, 1)))]
        import itertools

        for pair in itertools.combinations(squares, 2):
            assert symmetry_group_of_terms(list(pair), basis).signature == GroupSignature((2, 2))

    def test_lookup_realizable(self):
        rep = witness_potential(GroupSignature((4,)), 3)
        assert rep.realizable
        group = symmetry_group_of_terms(rep.witness, torus_basis(3))
        assert group.signature == GroupSignature((4,))
        assert "backbone" in rep.render()

    def test_trivial_witness_takes_no_classification(self, monkeypatch):
        def no_classify(n):
            raise AssertionError("classify ran")

        expected = witness_potential(GroupSignature(), 3)
        monkeypatch.setattr(classifier, "classify", no_classify)
        assert witness_potential(GroupSignature(), 3) == expected
        assert expected.realizable and expected.witness

    def test_lookup_not_realizable(self):
        rep = witness_potential(GroupSignature((16,)), 3)
        assert not rep.realizable
        assert "not realizable" in rep.render()


class TestFiveDoublets:
    # classify(5) is cached process-wide after the first call (the acceptance
    # suite also runs it), so these stay cheap in a full run.
    def test_probe_reports_status_for_every_group_up_to_sixteen(self):
        rep = probe_conjecture(5)
        assert rep.bound == 16
        assert len(rep.realized) + len(rep.missing) == 24
        # the scan found all of them; reported as status, not as a theorem
        assert all_realized(rep)

    def test_witnesses_reproduce_signatures(self):
        basis = torus_basis(5)
        for entry in classify(5).entries:
            if entry.signature.is_finite:
                group = symmetry_group_of_terms(entry.witness, basis)
                assert group.signature == entry.signature
