"""Exact linear algebra over the rationals.

Rank, span and nullspace computations need a field, so they run over
Fraction vectors; callers with formal scalars specialize first (and
re-check at a second parameter value where that matters).

There is one elimination, `_insert`: reduce a row against the stored
reduced rows, normalise it, and clear its pivot column in the stored
rows.  `FractionSpan` keeps those rows, `rref` is "insert every row,
sort by pivot", and `solve` and `nullspace` read one `rref` of the
augmented matrix.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction


def _reduce(
    rows: list[list[Fraction]], pivots: list[int], v: list[Fraction]
) -> list[Fraction]:
    v = list(v)
    for row, p in zip(rows, pivots):
        c = v[p]
        if c:
            for j, x in enumerate(row):
                if x:
                    v[j] -= c * x
    return v


def _insert(rows: list[list[Fraction]], pivots: list[int], v: list[Fraction]) -> bool:
    """Add v to the reduced rows in place; True when it enlarged their span."""
    v = _reduce(rows, pivots, v)
    p = next((j for j, x in enumerate(v) if x), None)
    if p is None:
        return False
    inv = 1 / v[p]
    v = [x * inv for x in v]
    support = [(j, x) for j, x in enumerate(v) if x]
    for row in rows:
        c = row[p]
        if c:
            for j, x in support:
                row[j] -= c * x
    rows.append(v)
    pivots.append(p)
    return True


class FractionSpan:
    """Incrementally built subspace of Q^n in reduced row-echelon form."""

    def __init__(self, n: int):
        self.n = n
        self.rows: list[list[Fraction]] = []
        self.pivots: list[int] = []

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, v: list[Fraction]) -> list[Fraction]:
        return _reduce(self.rows, self.pivots, v)

    def add(self, v: list[Fraction]) -> bool:
        """Insert v; returns True when it enlarged the span."""
        return _insert(self.rows, self.pivots, v)

    def contains(self, v: list[Fraction]) -> bool:
        return not any(self.reduce(v))


def rref(rows: Iterable[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    red: list[list[Fraction]] = []
    piv: list[int] = []
    for row in rows:
        _insert(red, piv, row)
    order = sorted(range(len(piv)), key=piv.__getitem__)
    return [red[i] for i in order], [piv[i] for i in order]


def solve(
    rows: list[list[Fraction]], rhs: list[Fraction], ncols: int
) -> tuple[list[Fraction] | None, list[list[Fraction]]]:
    """Exact solution set of rows * x = rhs: (one solution, kernel basis).

    The solution is None when the system is inconsistent; the kernel
    basis of the homogeneous system is returned either way, one vector
    per free column.
    """
    red, piv = rref(list(r) + [b] for r, b in zip(rows, rhs, strict=True))
    x = None
    if ncols not in piv:  # no pivot in the constant column
        x = [Fraction(0)] * ncols
        for row, p in zip(red, piv):
            x[p] = row[ncols]
    kernel = []
    for f in sorted(set(range(ncols)) - set(piv)):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, p in zip(red, piv):
            if p < ncols:
                v[p] = -row[f]
        kernel.append(v)
    return x, kernel


def nullspace(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Basis of the right kernel of the matrix given by `rows`."""
    return solve(rows, [Fraction(0)] * len(rows), ncols)[1]
