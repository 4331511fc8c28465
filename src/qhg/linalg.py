"""Exact sparse linear algebra over the rationals, run on integers.

Callers with formal scalars read their rows at l = 1 through
`scalars.homogeneous_part`, which certifies that one point decides the
question for every l > 0, and pass the integer entries they hold: scaling
a row keeps its span.  An input row maps columns in [0, ncols) to `int`
or `Fraction` entries.  A stored row is `(den, {column: int})` in the
normal form of a graded part (`scalars._normal`), worth entries / den.
The rows are fully reduced: entry den at the pivot, none at another
pivot, so a row is reduced in one pass over the pivots in its support.
A step against pivot p is the fraction-free `den_p * e - e[p] * e_p` over
`den * den_p` (Bareiss), then the normal form.  A column index, non-pivot
column -> pivots whose row holds it, lets an insert visit only the rows
that hold its new pivot.  `_insert` is the one elimination.  A new row's
pivot is its lowest column: that keeps `rref` canonical, and the first k
rows of a matrix with nonzero leading minors pivot at 0..k-1, which
`g2._positive_definite` reads.  Entries become `Fraction`s only where a
row leaves the module.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from math import lcm

from .scalars import _normal, accumulate

Row = dict[int, int | Fraction]
Part = tuple[int, dict[int, int]]


def _part(v: Row, ncols: int, index: int | None = None) -> Part:
    """The normal form of a row's value.  Raises if a column lies outside
    [0, ncols) or an entry is not an int or a Fraction, naming the row."""
    name = v if index is None else index
    if v and not 0 <= min(v) <= max(v) < ncols:
        j = min(v) if min(v) < 0 else max(v)
        raise ValueError(f"row {name} has column {j} outside [0, {ncols})")
    den = 1
    for j, x in v.items():
        if type(x) is not int:
            if not isinstance(x, (int, Fraction)):
                raise ValueError(f"row {name} has entry {x!r} at column {j}, not an int or a Fraction")
            den = lcm(den, x.denominator)
    if den == 1:
        return 1, {j: int(x) for j, x in v.items() if x}
    return _normal(den, {j: x.numerator * (den // x.denominator) for j, x in v.items() if x})


def _fractions(den: int, e: dict[int, int]) -> dict[int, Fraction]:
    """The value of a stored row, as Fractions."""
    return {j: Fraction(x, den) for j, x in e.items()}


def _step(den: int, e: dict[int, int], dp: int, ep: dict[int, int], p: int) -> Part:
    """(e / den) - (e[p] / den) * (ep / dp), whose entry at p is zero, in normal
    form; e, which the caller owns, may be changed in place."""
    c = -e[p]
    out = {j: x * dp for j, x in e.items()} if dp != 1 else e
    for j, x in ep.items():
        accumulate(out, j, c * x)
    return _normal(den * dp, out)


def _reduce(rows: dict[int, Part], den: int, e: dict[int, int]) -> Part:
    for p in [p for p in e if p in rows]:
        den, e = _step(den, e, *rows[p], p)
    return den, e


def _insert(rows: dict[int, Part], cols: dict[int, set[int]], v: Part) -> bool:
    """Add v to the reduced rows (pivot -> row) and the column index in
    place; True when it enlarged their span."""
    _, e = _reduce(rows, *v)
    if not e:
        return False
    p = min(e)
    den, e = _normal(e[p], e)  # value 1 at the pivot
    holders = cols.pop(p, ())
    rows[p] = den, e
    others = [j for j in e if j != p]
    for j in others:
        cols.setdefault(j, set()).add(p)  # so no holder set empties below
    for q in holders:
        rows[q] = _step(*rows[q], den, e, p)
        new = rows[q][1]
        for j in others:
            (cols[j].add if j in new else cols[j].discard)(q)
    return True


class FractionSpan:
    """Incrementally built subspace of Q^n in reduced row-echelon form;
    `rows` maps each pivot column to its row."""

    def __init__(self, n: int):
        self.n = n
        self._rows: dict[int, Part] = {}
        self._cols: dict[int, set[int]] = {}

    @property
    def dim(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> dict[int, dict[int, Fraction]]:
        return {p: _fractions(*row) for p, row in self._rows.items()}

    def reduce(self, v: Row) -> dict[int, Fraction]:
        return _fractions(*_reduce(self._rows, *_part(v, self.n)))

    def add(self, v: Row) -> bool:
        """Insert v; returns True when it enlarged the span."""
        return _insert(self._rows, self._cols, _part(v, self.n))


def rref(rows: Iterable[Row], ncols: int) -> tuple[list[dict[int, Fraction]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    red: dict[int, Part] = {}
    cols: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        _insert(red, cols, _part(row, ncols, i))
    piv = sorted(red)
    return [_fractions(*red[p]) for p in piv], piv


def solve(
    rows: list[Row], rhs: list[int | Fraction], ncols: int
) -> tuple[list[Fraction] | None, list[list[Fraction]]]:
    """Exact solution set of rows * x = rhs: (one solution, kernel basis).

    The solution is None when the system is inconsistent; the kernel
    basis of the homogeneous system is returned either way, one vector
    per free column.
    """
    for i, r in enumerate(rows):
        if r and not 0 <= min(r) <= max(r) < ncols:  # a column at ncols would read as the constant
            _part(r, ncols, i)  # raises
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
    return solve(rows, [0] * len(rows), ncols)[1]
