"""Exact integer linear algebra: matrices, determinants, Smith and Hermite forms.

Everything here runs on arbitrary-precision Python integers.  There is no
floating point anywhere, so all results are exact and deterministic.  The
matrices involved are small (a handful of rows and columns), which makes the
classical elimination algorithms entirely adequate.
"""

from __future__ import annotations

import operator
from itertools import compress
from typing import Callable, Iterable, Sequence

from ._record import record


def integers(values: Iterable, what: str) -> tuple[int, ...]:
    """The values as ints through ``operator.index``.

    A Fraction, float or string raises ValueError instead of being
    truncated the way ``int()`` would.
    """
    try:
        return tuple(map(operator.index, values))
    except TypeError as exc:
        raise ValueError(f"{what} must be integers: {exc}") from exc


def quoted(text: str) -> str:
    """``repr(text)`` for an error message, or for a text of more than 40
    characters, the repr of its first 40 and its length."""
    if len(text) <= 40:
        return repr(text)
    return f"{text[:40]!r}... ({len(text)} characters)"


@record
class IntMatrix:
    """Immutable integer matrix stored as a tuple of row tuples.

    Entries must be integers (``operator.index`` accepts them); a Fraction,
    float or string raises ValueError instead of being truncated.

    A matrix may have zero rows (the basis of the zero lattice); in that case
    ``cols`` must be supplied explicitly because it cannot be inferred.
    """

    entries: tuple[tuple[int, ...], ...]
    cols: int = -1

    def __post_init__(self):
        entries = tuple(integers(row, "matrix entries") for row in self.entries)
        object.__setattr__(self, "entries", entries)
        cols = self.cols
        if entries:
            cols = len(entries[0])
            if any(len(row) != cols for row in entries):
                raise ValueError("ragged rows in matrix")
        elif cols < 0:
            raise ValueError("empty matrix needs an explicit column count")
        object.__setattr__(self, "cols", cols)

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]], cols: int = -1) -> "IntMatrix":
        return cls(tuple(tuple(row) for row in rows), cols)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls._trusted(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)), n)

    @classmethod
    def diagonal(cls, diag: Sequence[int], rows: int | None = None, cols: int | None = None) -> "IntMatrix":
        rows = len(diag) if rows is None else rows
        cols = len(diag) if cols is None else cols
        return cls(tuple(tuple(diag[i] if i == j and i < len(diag) else 0
                               for j in range(cols)) for i in range(rows)), cols)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i][j]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        ot = tuple(zip(*other.entries)) if other.entries else ()
        return IntMatrix._trusted(
            tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in ot) for row in self.entries),
            other.cols,
        )

    def to_text(self) -> str:
        """Render in the CLI matrix format: rows joined by ';', entries by ','."""
        return ";".join(",".join(str(x) for x in row) for row in self.entries)

    @classmethod
    def from_text(cls, text: str) -> "IntMatrix":
        """Parse the CLI matrix format, e.g. ``"3,2;-3,-1"``."""
        try:
            rows = tuple(tuple(int(x.strip()) for x in part.split(",")) for part in text.split(";") if part.strip())
        except ValueError as exc:
            raise ValueError(f"malformed matrix string {quoted(text)}") from exc
        if not rows:
            raise ValueError("empty matrix string")
        return cls(rows)


@record
class SnfResult:
    """Smith decomposition ``u @ m @ v == diag(d)`` with unimodular u, v.

    ``d`` is canonical: entries are non-negative, each nonzero entry divides
    the next, and zeros (if any) sit at the end.
    """

    d: tuple[int, ...]
    u: IntMatrix
    v: IntMatrix

    def diagonal_matrix(self) -> IntMatrix:
        return IntMatrix.diagonal(self.d, self.u.rows, self.v.rows)


def _pivot(a: list[list[int]], t: int, nrows: int, ncols: int) -> tuple[int, int] | None:
    """Entry of smallest nonzero absolute value in the block from (t, t) on.

    Ties break on the lowest (row, col), which keeps the whole reduction
    deterministic.
    """
    best = None
    best_abs = None
    for i in range(t, nrows):
        row = a[i]
        for j in range(t, ncols):
            x = row[j]
            if x:
                ax = -x if x < 0 else x
                if best_abs is None or ax < best_abs:
                    best, best_abs = (i, j), ax
                    if ax == 1:
                        return best
    return best


def _smith_reduce(w: list[list[int]], ncols: int) -> tuple[tuple[int, ...], IntMatrix]:
    """Reduce the leading ``ncols`` columns of the rows ``w`` to Smith form, in place.

    Returns ``d`` and ``v``: the ``ncols`` identity rows appended below ``w``
    follow the column operations and become ``v``.  Entries right of the
    columns follow the row operations; only the rows of ``w`` and the leading
    columns are searched and checked.
    """
    nrows = len(w)
    w += [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]
    t = 0
    while t < min(nrows, ncols):
        piv = _pivot(w, t, nrows, ncols)
        if piv is None:
            break
        i, j = piv
        w[t], w[i] = w[i], w[t]
        if j != t:
            for row in w:
                row[t], row[j] = row[j], row[t]
        while True:
            # Clear column t below the pivot, then row t right of it.  A
            # nonzero remainder becomes the new, strictly smaller pivot and
            # the clearing starts over.
            for i in range(t + 1, nrows):
                if w[i][t]:
                    q = w[i][t] // w[t][t]
                    if q:
                        w[i] = [x - q * y for x, y in zip(w[i], w[t])]
                    if w[i][t]:
                        w[t], w[i] = w[i], w[t]
                        break
            else:
                for j in range(t + 1, ncols):
                    if w[t][j]:
                        q = w[t][j] // w[t][t]
                        if q:
                            for row in w:
                                row[j] -= q * row[t]
                        if w[t][j]:
                            for row in w:
                                row[t], row[j] = row[j], row[t]
                            break
                else:
                    # Row and column are clear; force the divisibility chain,
                    # which a unit pivot keeps by itself.
                    p = w[t][t]
                    if p in (1, -1):
                        break
                    bad = next((i for i in range(t + 1, nrows) for j in range(t + 1, ncols)
                                if w[i][j] % p), None)
                    if bad is None:
                        break
                    w[t] = [x + y for x, y in zip(w[t], w[bad])]
        if w[t][t] < 0:
            w[t] = [-x for x in w[t]]
        t += 1
    return (tuple(w[i][i] for i in range(min(nrows, ncols))),
            IntMatrix._trusted(tuple(tuple(row) for row in w[nrows:]), ncols))


def snf(m: IntMatrix) -> SnfResult:
    """Smith normal form with transformation matrices.

    Returns ``SnfResult(d, u, v)`` with ``u @ m @ v == diag(d)``, ``u`` and
    ``v`` unimodular, and ``d`` in the canonical divisibility chain.

    ``smith_bordered`` reduces the rows of ``m``, each followed by the same
    row of the identity, whose border ``u @ I`` is ``u``.
    """
    if m.rows == 0 or m.cols == 0:
        raise ValueError("snf needs a nonempty matrix")
    identity = IntMatrix.identity(m.rows).entries
    d, v, u = smith_bordered([row + unit for row, unit in zip(m.entries, identity)], m.cols)
    return SnfResult(d, IntMatrix._trusted(u, m.rows), v)


def smith_rank(d: tuple[int, ...]) -> int:
    """The rank of a matrix with the Smith diagonal ``d``: the count of its nonzero entries."""
    return len(d) - d.count(0)


def smith_columns(rows: Sequence[Sequence[int]], ncols: int) -> tuple[tuple[int, ...], IntMatrix]:
    """``d`` and ``v`` of ``smith_bordered(rows, ncols)``, without reading a border."""
    return _smith_reduce([list(row) for row in rows], ncols)


def smith_bordered(rows: Sequence[Sequence[int]], ncols: int
                   ) -> tuple[tuple[int, ...], IntMatrix, Rows]:
    """``d``, ``v`` and the border of rows whose leading ``ncols`` entries are reduced.

    The entries of each row right of ``ncols`` are its border B.  The
    leading columns A are reduced as by ``snf``, ``u @ A @ v == diag(d)``,
    and B follows the row operations, so the border comes back as ``u @ B``,
    one row per input row, without ``u`` being formed.  With no rows or no
    columns, ``d`` is empty, ``v`` the identity and the border B.
    """
    w = [list(row) for row in rows]
    d, v = _smith_reduce(w, ncols)
    return d, v, tuple(tuple(row[ncols:]) for row in w[:len(rows)])


def det(m: IntMatrix) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination; 1 for 0 x 0."""
    if not m.is_square:
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return 1  # the empty product
    a = [list(row) for row in m.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


# -- Hermite normal form ------------------------------------------------------
#
# Row-style HNF used as the canonical representative of an integer row lattice:
# pivots positive, strictly increasing pivot columns, entries above each pivot
# reduced into [0, pivot).  Zero rows are dropped, so two generating sets of
# the same lattice always produce the identical basis.

Rows = tuple[tuple[int, ...], ...]


def hnf_pivots(basis: Sequence[Sequence[int]]) -> list[int]:
    """Pivot column of each row of an echelon basis without zero rows."""
    pivots = []
    j = 0
    for row in basis:
        # pivot columns strictly increase, so each search starts past the last
        while not row[j]:
            j += 1
        pivots.append(j)
        j += 1
    return pivots


def _reduce_above(basis: list[Sequence[int]], pivots: list[int]) -> None:
    # ascending pivot order: a later reduction never touches an earlier
    # pivot column, so each above-pivot entry ends in [0, pivot)
    for k, j in enumerate(pivots):
        row = basis[k]
        p = row[j]
        for i in range(k):
            q = basis[i][j] // p
            if q:
                basis[i] = [x - q * y for x, y in zip(basis[i], row)]


def _insert_vector(basis: list[Sequence[int]], pivots: list[int], vec: Sequence[int]) -> bool:
    """Add ``vec`` to an echelon basis with positive pivots, in place.

    ``pivots`` holds the pivot column of each row and is kept in step with
    ``basis``.  Every row this adds or rewrites has a positive pivot.
    Returns True if the lattice grew.
    """
    v = list(vec)
    ncols = len(v)
    grew = False
    lead = 0
    k = 0
    while True:
        while lead < ncols and not v[lead]:
            lead += 1
        if lead == ncols:
            return grew
        while k < len(pivots) and pivots[k] < lead:
            k += 1
        if k == len(pivots) or pivots[k] != lead:
            if v[lead] < 0:
                v = [-x for x in v]
            basis.insert(k, v)
            pivots.insert(k, lead)
            return True
        row = basis[k]
        a, b = row[lead], v[lead]
        if b % a == 0:
            q = b // a
            v = [x - q * y for x, y in zip(v, row)]
        else:
            g, s, t = _xgcd(a, b)
            basis[k] = [s * x + t * y for x, y in zip(row, v)]
            v = [(a // g) * y - (b // g) * x for x, y in zip(row, v)]
            grew = True
        # v[lead] is now zero and row k keeps its pivot column
        lead += 1
        k += 1


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """g, s, t with s*a + t*b == g == gcd(a, b)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _check_width(basis: Sequence[Sequence[int]], width: int) -> None:
    """Rows of ``basis`` and a vector or coordinate count of different lengths raise ValueError."""
    if basis and len(basis[0]) != width:
        raise ValueError(f"mismatched lengths: rows of {len(basis[0])} entries, vectors of {width}")


def hnf_rows(rows: Iterable[Sequence[int]]) -> Rows:
    """Canonical HNF basis (as a tuple of row tuples) of the given row span.

    Rows of different lengths raise ValueError.
    """
    rows = list(rows)
    basis: list[Sequence[int]] = []
    pivots: list[int] = []
    for row in rows:
        _check_width(rows, len(row))
        _insert_vector(basis, pivots, row)
    _reduce_above(basis, pivots)
    return tuple(tuple(row) for row in basis)


def hnf_add(basis: Rows, vec: Sequence[int], pivots: Sequence[int] | None = None) -> Rows:
    """HNF basis of the lattice spanned by ``basis`` plus one new vector.

    ``pivots``, if given, is ``hnf_pivots(basis)``, read once by a caller
    that adds many vectors to one basis; it is copied, not changed.  A
    vector whose length differs from the rows' raises ValueError.
    """
    _check_width(basis, len(vec))
    # the helpers replace rows and never write into one, so the row tuples
    # of ``basis`` can be shared
    work: list[Sequence[int]] = list(basis)
    pivots = hnf_pivots(basis) if pivots is None else list(pivots)
    if not _insert_vector(work, pivots, vec):
        return basis
    _reduce_above(work, pivots)
    return tuple(tuple(row) for row in work)


def hnf_residues(basis: Rows, columns: Sequence[Sequence[int]],
                 pivots: Sequence[int] | None = None) -> list[tuple[int, ...]]:
    """Canonical representatives of the cosets ``v + L`` of many v, L spanned by ``basis``.

    ``columns[c][i]`` is coordinate c of vector i, one list per coordinate
    even when there are no vectors; the residues come back in vector order.
    Each HNF row is subtracted from all vectors at once, in pivot order, so
    that each pivot coordinate lands in ``[0, pivot)``.  Two vectors give the
    same residue exactly when they differ by an element of L, so a residue is
    all zeros exactly when its vector lies in L.  With no coordinates there
    are no vectors to return.  A row with pivot 1 takes no division: its
    quotients are coordinate j itself, which it sets to zero.  ``pivots``,
    if given, is ``hnf_pivots(basis)``.  A coordinate count that differs
    from the rows' length raises ValueError.
    """
    _check_width(basis, len(columns))
    cols = list(columns)
    for row, j in zip(basis, hnf_pivots(basis) if pivots is None else pivots):
        p = row[j]
        qs = cols[j] if p == 1 else [x // p for x in cols[j]]
        if not any(qs):
            continue  # coordinate j is already in [0, p) and nothing is subtracted
        cols[j] = [0] * len(qs) if p == 1 else [x % p for x in cols[j]]
        for c in range(j + 1, len(row)):
            y = row[c]
            if y:
                cols[c] = [x - q * y for x, q in zip(cols[c], qs)]
    return list(zip(*cols))


def hnf_negation(basis: Rows, pivots: Sequence[int]) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """The map from the residue of v to the residue of −v, both by ``hnf_residues(basis, ...)``.

    A residue r has every pivot coordinate in ``[0, pivot)``, so a unit
    pivot's coordinate is 0, and so is every entry above a unit pivot.  Of
    −r, only the coordinates of the other pivots can leave their range, and
    only their rows are subtracted, in pivot order.  Those rows are read here
    once, for every residue modulo the same lattice.  ``pivots`` is
    ``hnf_pivots(basis)``.
    """
    steps = [(j, row[j], row) for row, j in zip(basis, pivots) if row[j] != 1]

    def negated(residue: Sequence[int]) -> tuple[int, ...]:
        v = [-x for x in residue]
        for j, p, row in steps:
            q = v[j] // p
            if q:
                v = [x - q * y for x, y in zip(v, row)]
        return tuple(v)

    return negated


def hnf_unit_split(basis: Rows, ncols: int) -> tuple[int, Rows, int]:
    """Unit pivot count, block rows and block width of an HNF basis of ``ncols`` columns.

    The entries above a pivot of 1 lie in [0, 1), so they are 0 and the pivot
    is alone in its column; column operations then clear its row and touch no
    other row.  So the Smith diagonal of ``basis`` is one 1 per unit pivot,
    followed by the Smith diagonal of the block: the rows with other pivots,
    on the columns that are not unit pivots.  Rows of another length than
    ``ncols`` raise ValueError.
    """
    _check_width(basis, ncols)
    keep = [True] * ncols
    block = []
    for row, j in zip(basis, hnf_pivots(basis)):
        if row[j] == 1:
            keep[j] = False
        else:
            block.append(row)
    units = len(basis) - len(block)
    return units, tuple(tuple(compress(row, keep)) for row in block), ncols - units


def hnf_contains(basis: Rows, vec: Sequence[int]) -> bool:
    """Exact membership test of ``vec`` in the lattice with HNF basis ``basis``.

    A vector whose length differs from the rows' raises ValueError.
    """
    return not any(map(any, hnf_residues(basis, [(x,) for x in vec])))


def hnf(m: IntMatrix) -> IntMatrix:
    """Row-style Hermite normal form with zero rows dropped.

    The output is the canonical basis of the row lattice of ``m``: two
    generating sets of the same lattice give identical results, and the form
    is idempotent.
    """
    if m.rows == 0 or m.cols == 0:
        raise ValueError("hnf needs a nonempty matrix")
    return IntMatrix.from_rows(hnf_rows(m.entries), m.cols)
