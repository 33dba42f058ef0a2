import random
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nhdm.classifier import _lattice_scan
from nhdm.exactmath import (
    IntMatrix, det, hnf, hnf_add, hnf_contains, hnf_negation, hnf_pivots, hnf_residues,
    hnf_rows, hnf_unit_split, smith_bordered, smith_columns, smith_rank, snf,
)
from reference import reference_snf, snf_rows


def random_matrix(rng, max_dim=6, lo=-5, hi=5):
    rows = rng.randint(1, max_dim)
    cols = rng.randint(1, max_dim)
    return IntMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


def check_snf(m):
    res = snf(m)
    assert (res.u @ m @ res.v).entries == res.diagonal_matrix().entries
    nonzero = [x for x in res.d if x]
    assert all(x >= 0 for x in res.d)
    assert all(nonzero[i + 1] % nonzero[i] == 0 for i in range(len(nonzero) - 1))
    assert len(nonzero) == len(res.d[:len(nonzero)])  # zeros trail
    assert abs(det(res.u)) == 1
    assert abs(det(res.v)) == 1
    if m.is_square:
        assert abs(det(m)) == prod(res.d)
    return res


class TestSnf:
    def test_worked_two_by_two(self):
        # the charge matrix of the paired-terms example; its diagonal form is
        # reordered into the canonical divisibility chain
        assert snf(IntMatrix.from_text("3,2;-3,-1")).d == (1, 3)

    def test_identity(self):
        assert snf(IntMatrix.identity(3)).d == (1, 1, 1)

    def test_oracle_gcd_det(self):
        # independent 2x2 oracle: d1 is the gcd of the entries, d1*d2 = |det|
        m = IntMatrix.from_rows([(0, 1), (4, 2)])
        entries = [x for row in m.entries for x in row]
        d1 = gcd(*entries)
        d2 = abs(det(m)) // d1
        assert (d1, d2) == (1, 4)
        assert snf(m).d == (d1, d2)

    def test_rank_deficient(self):
        res = check_snf(IntMatrix.from_rows([(2, 4), (1, 2)]))
        assert res.d == (1, 0)

    def test_deterministic(self):
        m = IntMatrix.from_rows([(6, 4, 2), (2, 8, 6), (10, 2, 4)])
        assert snf(m) == snf(m)

    def test_random_identities(self):
        rng = random.Random(20120905)
        for _ in range(500):
            check_snf(random_matrix(rng))

    def test_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import invariant_factors

        rng = random.Random(7)
        for _ in range(60):
            m = random_matrix(rng, max_dim=5)
            ours = [x for x in snf(m).d if x]
            theirs = [int(f) for f in invariant_factors(sympy.Matrix(m.entries)) if f]
            assert ours == theirs

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            snf(IntMatrix((), cols=3))

    def test_transforms_match_the_reference(self):
        # Smith transforms are not unique, and reports read them, so the
        # reduction must take the reference's operations in its order
        rng = random.Random(1112)
        for _ in range(3000):
            rows, cols = rng.randint(1, 7), rng.randint(1, 7)
            entries = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
            if rng.random() < 0.3:
                entries[rng.randrange(rows)] = [0] * cols
            if rng.random() < 0.3:
                j = rng.randrange(cols)
                for row in entries:
                    row[j] = 0
            m = IntMatrix.from_rows(entries)
            res = snf(m)
            assert (res.d, res.u.entries, res.v.entries) == reference_snf(m)


class TestSnfRows:
    def test_no_rows(self):
        res = snf_rows([], 3)
        assert res.d == () and smith_rank(res.d) == 0
        assert res.u == IntMatrix.identity(0)
        assert res.v == IntMatrix.identity(3)
        m = IntMatrix.from_rows([], 3)
        assert res.u @ m @ res.v == res.diagonal_matrix()

    def test_no_columns(self):
        res = snf_rows([(), ()], 0)
        assert res.d == ()
        assert res.u == IntMatrix.identity(2)
        assert res.v == IntMatrix.identity(0)

    def test_nonempty_is_snf(self):
        rows = [(3, 2), (-3, -1), (0, 4)]
        assert snf_rows(rows, 2) == snf(IntMatrix.from_rows(rows))


BIG = 10**40
ENTRY_BYTES = 19  # a kind byte, a length byte, then up to 17 bytes: 2^135 > BIG
PLANT_BYTES = 7


def smith_entry(raw: bytes) -> int:
    """One entry from ``ENTRY_BYTES`` bytes; zero bytes read 0.

    An even kind byte reads the next byte as an entry in [-9, 9].  An odd
    one reads the next (length byte mod 18) bytes as a number whose low bit
    is the sign and whose rest, mod BIG + 1, is the size, so large entries of
    every length up to 40 digits occur.
    """
    if raw[0] % 2 == 0:
        return (raw[1] + 9) % 19 - 9
    x = int.from_bytes(raw[2:2 + raw[1] % 18], "big")
    return (-1) ** (x & 1) * ((x >> 1) % (BIG + 1))


@st.composite
def smith_inputs(draw):
    """Rows of an up to 6x6 integer matrix, empty shapes included, and its width.

    Entries are small or up to 40 digits, of either sign; a zero row, a zero
    column and a row that combines two others are each mixed in at random.
    The shape is drawn first, then every entry and, for a nonempty shape, the
    plants as one byte string: each entry reads ``ENTRY_BYTES`` bytes through
    ``smith_entry``, and the last ``PLANT_BYTES`` bytes pick the plants.  Zero
    bytes read 0 and plant nothing, so hypothesis shrinks toward zero
    entries.  One draw per example costs far less than one draw per entry; a
    second byte string for the plants made hypothesis read about half the
    examples' entries as zero bytes.
    """
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    size = nrows * ncols * ENTRY_BYTES
    raw = draw(st.binary(min_size=size + PLANT_BYTES * (size > 0),
                         max_size=size + PLANT_BYTES * (size > 0)))
    flat = [smith_entry(raw[k:k + ENTRY_BYTES]) for k in range(0, size, ENTRY_BYTES)]
    rows = [flat[i * ncols:(i + 1) * ncols] for i in range(nrows)]
    if size:
        plants = raw[size:]
        if plants[0] % 2:
            rows[plants[1] % nrows] = [0] * ncols
        if plants[2] % 2:
            j = plants[3] % ncols
            for row in rows:
                row[j] = 0
        if nrows > 1 and plants[4] % 2:
            a, b = (plants[5] + 3) % 7 - 3, (plants[6] + 3) % 7 - 3
            rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[-2])]
    return rows, ncols


def reference_diagonal(rows, ncols):
    return reference_snf(IntMatrix.from_rows(rows))[0] if rows and ncols else ()


def check_smith_columns(rows, ncols):
    before = [list(row) for row in rows]
    d, v = smith_columns(rows, ncols)
    assert [list(row) for row in rows] == before
    full = snf_rows(rows, ncols)
    assert (d, v) == (full.d, full.v)
    assert d == reference_diagonal(rows, ncols)
    assert v.rows == v.cols == ncols
    if ncols:
        assert abs(det(v)) == 1
    rank = sum(1 for x in d if x)
    assert all(not any(row[rank:]) for row in (IntMatrix.from_rows(rows, ncols) @ v).entries)


class TestSmithDiagonal:
    # smith_columns reads the Smith diagonal and the column transform of the
    # reduction snf runs, so each is also held to the separately written
    # reference
    @settings(max_examples=300, deadline=None, database=None)
    @given(smith_inputs())
    def test_matches_the_full_smith_form(self, case):
        check_smith_columns(*case)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_on_every_walked_lattice(self, n):
        for lattice in _lattice_scan(n):
            check_smith_columns(lattice, n - 1)

    def test_empty_shapes(self):
        assert smith_columns([], 3) == ((), IntMatrix.identity(3))
        assert smith_columns([(), ()], 0) == ((), IntMatrix.identity(0))
        assert IntMatrix.identity(0).entries == ()

    def test_leaves_its_input_alone(self):
        rows = [[4, 6], [6, 4]]
        assert smith_columns(rows, 2)[0] == (2, 10)
        assert rows == [[4, 6], [6, 4]]


def check_smith_bordered(rows, ncols, border):
    """``smith_bordered`` of ``rows`` each followed by its row of ``border``
    against ``snf_rows``: the same d and v, and ``u @ border``."""
    width = len(border[0]) if border else 0
    bordered = [list(row) + list(extra) for row, extra in zip(rows, border)]
    before = [list(row) for row in bordered]
    d, v, got = smith_bordered(bordered, ncols)
    assert bordered == before
    full = snf_rows(rows, ncols)
    assert (d, v) == (full.d, full.v)
    # one border row per input row: the rows of v that the reduction appends
    # below its input are not part of it
    assert got == (full.u @ IntMatrix.from_rows(border, width)).entries
    assert len(got) == len(rows) and all(len(row) == width for row in got)


class TestSmithBordered:
    def test_matches_the_u_transform_on_seeded_inputs(self):
        rng = random.Random(40)
        shapes = [(0, 3, 2), (0, 0, 1), (2, 0, 3), (3, 2, 0), (1, 1, 0), (0, 4, 0)]
        shapes += [(rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 4)) for _ in range(300)]
        for nrows, ncols, width in shapes:
            rows = [[rng.randint(-6, 6) for _ in range(ncols)] for _ in range(nrows)]
            if nrows > 1 and rng.random() < 0.5:  # a dependent row, so the kernel is nonzero
                rows[-1] = [2 * x - y for x, y in zip(rows[0], rows[1])]
            border = [[rng.randint(-9, 9) for _ in range(width)] for _ in range(nrows)]
            check_smith_bordered(rows, ncols, border)

    def test_big_entries(self):
        rng = random.Random(41)
        for _ in range(50):
            nrows, ncols, width = rng.randint(1, 5), rng.randint(1, 5), rng.randint(0, 3)
            rows = [[rng.randint(-BIG, BIG) for _ in range(ncols)] for _ in range(nrows)]
            border = [[rng.randint(-BIG, BIG) for _ in range(width)] for _ in range(nrows)]
            check_smith_bordered(rows, ncols, border)

    def test_empty_shapes(self):
        identity = IntMatrix.identity
        assert smith_bordered([], 3) == ((), identity(3), ())
        assert smith_bordered([(5, 7), (1, 2)], 0) == ((), identity(0), ((5, 7), (1, 2)))
        assert smith_bordered([(4, 6), (6, 4)], 2)[:2] == smith_columns([(4, 6), (6, 4)], 2)
        assert smith_bordered([(4, 6), (6, 4)], 2)[2] == ((), ())


class TestDet:
    def test_upper_bidiagonal_power_of_two(self):
        n = 5
        m = IntMatrix.from_rows(
            [[2 if j == i else -1 if j == i + 1 else 0 for j in range(n)] for i in range(n)])
        assert det(m) == 32

    def test_worked_example(self):
        assert det(IntMatrix.from_text("3,2;-3,-1")) == 3

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            det(IntMatrix.from_rows([(1, 2, 3)]))

    def test_empty_matrix_is_the_empty_product(self):
        # d0 = 1 in the determinantal-divisor reading of a Smith form
        assert det(IntMatrix((), 0)) == 1

    def test_matches_snf_product(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randint(1, 5)
            m = IntMatrix.from_rows([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
            assert abs(det(m)) == prod(snf(m).d)


class TestHnf:
    def test_already_canonical(self):
        assert hnf(IntMatrix.from_rows([(2, 0), (0, 2)])).entries == ((2, 0), (0, 2))

    def test_zero_rows_dropped(self):
        assert hnf(IntMatrix.from_rows([(1, 1), (0, 0)])).entries == ((1, 1),)

    def test_same_lattice_same_form(self):
        a = [(3, 2), (-3, -1)]
        b = [(0, 1), (3, 2)]

        def solves_integrally(rows, vec):
            # independent membership oracle: exact 2x2 solve over the basis
            (r1, r2) = rows
            d = r1[0] * r2[1] - r1[1] * r2[0]
            assert d != 0
            x = vec[0] * r2[1] - vec[1] * r2[0]
            y = r1[0] * vec[1] - r1[1] * vec[0]
            return x % d == 0 and y % d == 0

        assert all(solves_integrally(a, v) for v in b)
        assert all(solves_integrally(b, v) for v in a)
        assert hnf(IntMatrix.from_rows(a)).entries == hnf(IntMatrix.from_rows(b)).entries

    def test_idempotent_and_unimodular_invariant(self):
        rng = random.Random(23)
        for _ in range(200):
            m = random_matrix(rng, max_dim=5, lo=-4, hi=4)
            h = hnf_rows(m.entries)
            if not h:
                continue
            assert hnf_rows(h) == h
            # apply a random sequence of unimodular row operations first
            rows = [list(r) for r in m.entries]
            for _ in range(6):
                i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
                c = rng.choice([-2, -1, 1, 2])
                if i != j:
                    rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
            assert hnf_rows(rows) == h

    def test_membership_and_add(self):
        basis = hnf_rows([(2, 0), (0, 3)])
        assert hnf_contains(basis, (4, 3))
        assert not hnf_contains(basis, (1, 0))
        grown = hnf_add(basis, (1, 0))
        assert hnf_contains(grown, (1, 0))
        assert grown == hnf_rows([(1, 0), (0, 3)])

    def test_residues_of_edge_cases(self):
        # no basis rows leave every vector as it is, a zero vector stays
        # zero, and no vectors give no residues
        assert hnf_residues((), [(1, 0, -7), (2, 0, 5)]) == [(1, 2), (0, 0), (-7, 5)]
        basis = hnf_rows([(2, 1), (0, 3)])
        assert hnf_residues(basis, [(0, 5), (0, -3)]) == [(0, 0), (1, 1)]
        assert hnf_residues(basis, [(), ()]) == []

    def test_residues_through_a_unit_pivot(self):
        # the unit row clears coordinate 0 and carries it into coordinate 2;
        # vectors already zero at coordinate 0 skip that row
        basis = hnf_rows([(1, 2, 3), (0, 2, 1)])
        assert basis == ((1, 0, 2), (0, 2, 1))
        assert hnf_residues(basis, [(3, -2), (1, 3), (0, 1)]) == [(0, 1, -6), (0, 1, 4)]
        assert hnf_residues(basis, [(0, 0), (5, 0), (4, 7)]) == [(0, 1, 2), (0, 0, 7)]


@st.composite
def rows_and_vector(draw, max_rows=5):
    """Small integer rows A, a vector v and integer coefficients for A.

    The shape is drawn first, then every entry of A, v and the coefficients
    as one byte string, cut into rows.  A byte b is the entry (b + 6) % 13 - 6
    in [-6, 6] or the coefficient (b + 3) % 7 - 3 in [-3, 3]; byte 0 reads
    0, so hypothesis shrinks toward zero entries.  One draw per example costs
    far less than one draw per entry.
    """
    cols = draw(st.integers(1, 4))
    nrows = draw(st.integers(0, max_rows))
    size = (nrows + 1) * cols
    raw = draw(st.binary(min_size=size + nrows, max_size=size + nrows))
    flat = [(b + 6) % 13 - 6 for b in raw[:size]]
    coeffs = [(b + 3) % 7 - 3 for b in raw[size:]]
    rows = [flat[i:i + cols] for i in range(0, size, cols)]
    return rows[:-1], rows[-1], coeffs


def combination(rows, coeffs, cols):
    return [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(cols)]


def is_canonical_hnf(basis):
    pivots = [next(j for j, x in enumerate(row) if x) for row in basis]
    if pivots != sorted(set(pivots)):
        return False
    for k, (row, j) in enumerate(zip(basis, pivots)):
        if row[j] <= 0 or any(not 0 <= basis[i][j] < row[j] for i in range(k)):
            return False
    return True


class TestHnfProperties:
    @settings(max_examples=300, deadline=None, database=None)
    @given(rows_and_vector())
    def test_add_matches_full_recompute(self, case):
        rows, v, _ = case
        basis = hnf_rows(rows)
        grown = hnf_add(basis, v)
        assert grown == hnf_rows(rows + [v])
        assert is_canonical_hnf(grown)
        # given the pivots read once, the same basis, and the pivots unchanged
        pivots = hnf_pivots(basis)
        assert hnf_add(basis, v, pivots) == grown
        assert pivots == hnf_pivots(basis)

    @settings(max_examples=300, deadline=None, database=None)
    @given(rows_and_vector())
    def test_reduce_depends_only_on_the_coset(self, case):
        rows, v, coeffs = case
        basis = hnf_rows(rows)
        w = combination(rows, coeffs, len(v))
        shifted = [x + y for x, y in zip(v, w)]
        columns = list(zip(v, shifted, v))
        residue, *others = hnf_residues(basis, columns)
        assert others == [residue] * 2
        assert hnf_residues(basis, columns, hnf_pivots(basis)) == [residue] * 3
        # the residue lies in the coset of v, and is its canonical
        # representative: every pivot coordinate in [0, pivot)
        assert hnf_add(basis, [x - y for x, y in zip(v, residue)]) == basis
        for row in basis:
            j = next(j for j, x in enumerate(row) if x)
            assert 0 <= residue[j] < row[j]

    @settings(max_examples=300, deadline=None, database=None)
    @given(rows_and_vector())
    def test_reduce_is_zero_exactly_on_members(self, case):
        rows, v, coeffs = case
        basis = hnf_rows(rows)
        vectors = (v, combination(rows, coeffs, len(v)))
        residues = hnf_residues(basis, list(zip(*vectors)))
        assert not any(residues[1])
        for vec, residue in zip(vectors, residues):
            is_zero = not any(residue)
            assert is_zero == hnf_contains(basis, vec)
            # independent of the reduction: v lies in L exactly when adding
            # it leaves the canonical basis unchanged
            assert is_zero == (hnf_add(basis, vec) == basis)
            assert is_zero == (hnf_rows(rows + [vec]) == basis)

    @settings(max_examples=300, deadline=None, database=None)
    @given(rows_and_vector())
    # unit pivots alone: the negation subtracts no row
    @example(([[1, 2, 0], [0, 1, 3]], [2, -5, 7], [0, 0]))
    # 1 + 2Z is its own negation
    @example(([[2]], [1], [0]))
    def test_negation_is_the_residue_of_the_negative(self, case):
        rows, v, _ = case
        basis = hnf_rows(rows)
        residue, negative = hnf_residues(basis, [(x, -x) for x in v])
        assert hnf_negation(basis, hnf_pivots(basis))(residue) == negative

    @settings(max_examples=100, deadline=None, database=None)
    @given(rows_and_vector(), st.binary(min_size=12, max_size=12))
    # v turns the pivot 2 into 1 and adds the unit pivot of column 1
    @example(([[2, 1, 0]], [1, 0, 3], [0]), bytes(range(12)))
    def test_residues_modulo_a_sublattice_reduce_to_the_residues(self, case, raw):
        # the walk reduces each lattice L' = L + v from the residues modulo
        # its parent L: they differ from their vectors by elements of L,
        # which lie in L'
        rows, v, _ = case
        basis = hnf_rows(rows)
        grown = hnf_add(basis, v)
        entries = [(b + 6) % 13 - 6 for b in raw]
        cols = len(v)
        vectors = [v] + [entries[i:i + cols] for i in range(0, len(entries) - cols + 1, cols)]
        columns = list(zip(*vectors))
        residues = hnf_residues(basis, columns)
        assert hnf_residues(grown, list(zip(*residues))) == hnf_residues(grown, columns)

    # fewer examples than its neighbours, a count set when each one cost
    # hypothesis about 3 ms to draw, with tier-1 at its time budget
    @settings(max_examples=120, deadline=None, database=None)
    @given(rows_and_vector())
    def test_unit_split_keeps_the_smith_diagonal(self, case):
        rows, v, _ = case
        ncols = len(v)
        basis = hnf_rows(rows)
        units, block, width = hnf_unit_split(basis, ncols)
        assert width == ncols - units
        assert (1,) * units + smith_columns(block, width)[0] == smith_columns(basis, ncols)[0]


@pytest.mark.parametrize("call", [
    lambda: hnf_contains(((2, 0, 0),), (2, 0)),
    lambda: hnf_add(((1, 0, 0),), (0, 1)),
    lambda: hnf_rows([(1, 0, 0), (0, 1)]),
    lambda: hnf_residues(((1, 0, 0),), [(0,), (0,)]),
    lambda: hnf_unit_split(((1, 0, 0),), 2),
], ids=["contains", "add", "rows", "residues", "unit_split"])
def test_hermite_helpers_reject_mismatched_lengths(call):
    with pytest.raises(ValueError, match="rows of 3 entries, vectors of 2"):
        call()


def test_matrix_entries_must_be_integers():
    assert IntMatrix(((True, 2),)).entries == ((1, 2),)
    for bad in (Fraction(5, 2), Fraction(4, 2), 0.9, 2.0, "3"):
        with pytest.raises(ValueError):
            IntMatrix(((bad, 1), (0, 3)))


def test_snf_transforms_are_plain_integer_matrices():
    # snf stores its transforms without re-checking them; they must equal
    # the validated construction of the same entries
    rng = random.Random(9)
    for _ in range(50):
        res = snf(random_matrix(rng))
        for t in (res.u, res.v):
            assert t == IntMatrix(t.entries, t.cols)
            assert all(type(x) is int for row in t.entries for x in row)


def test_matrix_text_roundtrip():
    m = IntMatrix.from_text("3,2;-3,-1")
    assert m.entries == ((3, 2), (-3, -1))
    assert IntMatrix.from_text(m.to_text()) == m
    with pytest.raises(ValueError):
        IntMatrix.from_text("1,2;x,4")
    with pytest.raises(ValueError):
        IntMatrix.from_text("1,2;3")
