"""Exact sparse linear algebra over the rationals.

Rank, span and nullspace computations need a field, so they run over
Fraction rows; callers with formal scalars read them at l = 1 through
`scalars.homogeneous_at_one`, which first certifies that one point
decides the question for every l > 0.  A row is a
`dict[int, Fraction]`, column -> entry, every column in [0, ncols).
Zero entries of an input row are dropped; a stored row holds none.
An entry is an `int` or a `Fraction`; stored rows hold `Fraction`s.

There is one elimination, `_insert`.  The stored rows are fully reduced:
each has entry 1 at its pivot and none at any other pivot, so a row is
reduced in one pass over the pivots in its own support (subtracting the
row of one pivot leaves every other pivot entry unchanged).  A new row's
pivot is its lowest column: that keeps `rref` canonical, and the first k
rows of a matrix with nonzero leading minors pivot at 0..k-1, which the
Sylvester test `g2._positive_definite` reads.  `FractionSpan` keeps the
rows by pivot, `rref` is "insert every row, sort by pivot", and `solve`
and `nullspace` read one `rref` of the augmented matrix; their solution
and kernel vectors are dense lists.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction

from .scalars import accumulate

Row = dict[int, Fraction]


def _check(v: Row, ncols: int, index: int | None = None) -> None:
    """Raise if a column of v lies outside [0, ncols) or an entry is not an
    int or a Fraction, naming the row and the column."""
    name = v if index is None else index
    cols = v.keys()
    if cols and not 0 <= min(cols) <= max(cols) < ncols:
        j = min(cols) if min(cols) < 0 else max(cols)
        raise ValueError(f"row {name} has column {j} outside [0, {ncols})")
    for j, x in v.items():
        if not isinstance(x, (int, Fraction)):
            raise ValueError(f"row {name} has entry {x!r} at column {j}, not an int or a Fraction")


def _subtract(dst: Row, c: Fraction, src: Row) -> None:
    """dst -= c * src in place, dropping the entries that cancel."""
    c = -c
    for j, x in src.items():
        accumulate(dst, j, c * x)


def _reduce(red: dict[int, Row], v: Row) -> Row:
    out = {j: x for j, x in v.items() if x}
    for p in [p for p in out if p in red]:
        _subtract(out, out[p], red[p])
    return out


def _insert(red: dict[int, Row], v: Row) -> bool:
    """Add v to the reduced rows (pivot -> row) in place; True when it
    enlarged their span."""
    v = _reduce(red, v)
    if not v:
        return False
    p = min(v)
    inv = Fraction(1) / v[p]
    v = {j: x * inv for j, x in v.items()}
    for row in red.values():
        if p in row:
            _subtract(row, row[p], v)
    red[p] = v
    return True


class FractionSpan:
    """Incrementally built subspace of Q^n in reduced row-echelon form;
    `rows` maps each pivot column to its row."""

    def __init__(self, n: int):
        self.n = n
        self.rows: dict[int, Row] = {}

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, v: Row) -> Row:
        _check(v, self.n)
        return _reduce(self.rows, v)

    def add(self, v: Row) -> bool:
        """Insert v; returns True when it enlarged the span."""
        _check(v, self.n)
        return _insert(self.rows, v)

    def contains(self, v: Row) -> bool:
        return not self.reduce(v)


def rref(rows: Iterable[Row], ncols: int) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    red: dict[int, Row] = {}
    for i, row in enumerate(rows):
        _check(row, ncols, i)
        _insert(red, row)
    piv = sorted(red)
    return [red[p] for p in piv], piv


def solve(
    rows: list[Row], rhs: list[Fraction], ncols: int
) -> tuple[list[Fraction] | None, list[list[Fraction]]]:
    """Exact solution set of rows * x = rhs: (one solution, kernel basis).

    The solution is None when the system is inconsistent; the kernel
    basis of the homogeneous system is returned either way, one vector
    per free column.
    """
    for i, r in enumerate(rows):
        _check(r, ncols, i)
    red, piv = rref(({**r, ncols: b} for r, b in zip(rows, rhs, strict=True)), ncols + 1)
    x = None
    if ncols not in piv:  # no pivot in the constant column
        x = [Fraction(0)] * ncols
        for row, p in zip(red, piv):
            x[p] = row.get(ncols, Fraction(0))
    kernel = {f: [Fraction(0)] * ncols for f in sorted(set(range(ncols)) - set(piv))}
    for f, v in kernel.items():
        v[f] = Fraction(1)
    for row, p in zip(red, piv):
        for j, c in row.items():
            if j in kernel:
                kernel[j][p] = -c
    return x, list(kernel.values())


def nullspace(rows: list[Row], ncols: int) -> list[list[Fraction]]:
    """Basis of the right kernel of the matrix given by `rows`."""
    return solve(rows, [Fraction(0)] * len(rows), ncols)[1]
