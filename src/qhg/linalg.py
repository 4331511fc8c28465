"""Exact sparse linear algebra over the rationals, run on integers.

Callers with formal values read their rows at l = 1 through
`scalars.homogeneous_part`, where one point decides the question for
every l > 0 (the homothety argument of `scalars`), and pass the integer
entries they hold: scaling a row keeps its span.  An input row maps columns in [0, ncols) to `int`
entries; any other entry raises ValueError naming the row.  A stored row,
and every output, is a part `(den, {column: int})` in the normal form of
`scalars._normal` (den > 0, no zero entry, gcd(den, *entries) = 1), worth
entries / den.  The rows are fully reduced: entry den at the pivot, none
at another pivot, so a row is reduced in one pass over the pivots in its
support.  A step against pivot p is the fraction-free `den_p * e - e[p] *
e_p` over `den * den_p` (Bareiss), then the normal form.  A column index,
non-pivot column -> pivots whose row holds it, lets an insert visit only
the rows that hold its new pivot.  `_insert` is the one elimination.  A
new row's pivot is its lowest column: that keeps `rref` canonical, and the
first k rows of a matrix with nonzero leading minors pivot at 0..k-1,
which `g2._positive_definite` reads.  `solve` peels first: while a row
holds one unknown not yet forced, it forces that unknown to an integer
pair (num, den).  A forced unknown has one value in every solution and is
0 in every kernel vector: a pivot of the full rref.  The row space is the
forced coordinates plus the residual rows, those left with two or more
unknowns, forced terms moved into the rhs, so these alone give the same
free columns, kernel basis and particular solution (0 at free columns).
Insertion stops once every unknown is forced or holds a pivot and the rhs
none.
"""

from __future__ import annotations

from collections.abc import Iterable
from math import gcd

from .scalars import _normal, accumulate, graded

Row = dict[int, int]
Part = tuple[int, dict[int, int]]


def _part(v: Row, ncols: int, index: int | None = None, rhs: int = 0) -> Part:
    """The row, a nonzero rhs appended at column ncols, as a part (1, entries).
    Raises if a column lies outside [0, ncols) or an entry is not an int,
    naming the row."""
    name = v if index is None else index
    if v and not 0 <= min(v) <= max(v) < ncols:
        j = min(v) if min(v) < 0 else max(v)
        raise ValueError(f"row {name} has column {j} outside [0, {ncols})")
    if {type(rhs), *map(type, v.values())} != {int}:
        j, x = next((j, x) for j, x in [*v.items(), (ncols, rhs)] if type(x) is not int)
        raise ValueError(f"row {name} has entry {x!r} at column {j}, not an int")
    e = {j: x for j, x in v.items() if x}
    if rhs:
        e[ncols] = rhs
    return 1, e


def _combine(terms: list[Part]) -> Part:
    """The normal-form part of the sum of parts, through `scalars.graded`."""
    _, den, e = graded((0, den, e) for den, e in terms)
    return den, e


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


class Span:
    """Incrementally built subspace of Q^n in reduced row-echelon form."""

    def __init__(self, n: int):
        self.n = n
        self._rows: dict[int, Part] = {}
        self._cols: dict[int, set[int]] = {}

    @property
    def dim(self) -> int:
        return len(self._rows)

    def reduce(self, v: Row) -> Part:
        """v reduced against the rows, as a part: empty iff v lies in the span."""
        return _reduce(self._rows, *_part(v, self.n))

    def add(self, v: Row) -> bool:
        """Insert v; returns True when it enlarged the span."""
        return _insert(self._rows, self._cols, _part(v, self.n))


def rref(rows: Iterable[Row], ncols: int) -> tuple[list[Part], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    red: dict[int, Part] = {}
    cols: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        _insert(red, cols, _part(row, ncols, i))
    piv = sorted(red)
    return [red[p] for p in piv], piv


def _rest(e: Row, b: int, forced: dict[int, tuple[int, int]]) -> tuple[int, int]:
    """b less the forced terms of the row e, as a pair (num, den), den > 0."""
    num, den = b, 1
    for j, x in e.items():
        if j in forced:
            n, d = forced[j]
            num, den = num * d - x * n * den, den * d
    return num, den


def solve(rows: list[Row], rhs: list[int], ncols: int) -> tuple[Part | None, list[Part]]:
    """Exact solution set of rows * x = rhs: (one solution, kernel basis).

    The solution is None when the system is inconsistent; the kernel
    basis of the homogeneous system is returned either way, one vector
    per free column, worth 1 there.  A row that forces its one unknown
    left (module docstring) is never inserted.  Each row neither peeled
    nor inserted is decided by the exact integer substitution
    sum v * xs[j] == b * den of the solution x = xs / den.
    """
    unknowns = list(map(len, rows))  # per row, its nonzero columns not yet forced
    holders: list[list[int]] = [[] for _ in range(ncols)]  # column -> rows holding it
    for i, (v, b) in enumerate(zip(rows, rhs, strict=True)):
        if type(b) is not int:
            _part(v, ncols, i, b)  # raises ValueError naming row i
        for j, x in v.items():
            if type(x) is not int or not 0 <= j < ncols:
                _part(v, ncols, i, b)
            if x:
                holders[j].append(i)
            else:
                unknowns[i] -= 1
    forced: dict[int, tuple[int, int]] = {}  # column -> (num, den), den > 0
    queue = [i for i, k in enumerate(unknowns) if k == 1]
    while queue:
        i = queue.pop()
        if unknowns[i] != 1:
            continue  # its unknown was forced by another row: substituted below
        j, a = next((j, x) for j, x in rows[i].items() if x and j not in forced)
        num, den = _rest(rows[i], rhs[i], forced)
        g = gcd(num, den * a) if a > 0 else -gcd(num, den * a)
        forced[j] = num // g, den * a // g
        unknowns[i] = -1  # holds by construction
        for k in holders[j]:
            unknowns[k] -= 1
            if unknowns[k] == 1:
                queue.append(k)
    del holders, queue
    red: dict[int, Part] = {}
    cols: dict[int, set[int]] = {}
    unforced, substituted = ncols - len(forced), []
    for i, k in enumerate(unknowns):
        if k == 0 or k > 1 and len(red) == unforced and ncols not in red:
            substituted.append(i)  # every unknown of row i is forced or holds a pivot
        elif k > 1:
            num, den = _rest(rows[i], rhs[i], forced)
            e = {j: x * den for j, x in rows[i].items() if x and j not in forced}
            _insert(red, cols, (1, {**e, ncols: num} if num else e))
    stored = sorted(red.items())
    x = None
    if ncols not in red:  # no pivot in the constant column
        values = forced | {p: (e[ncols], den) for p, (den, e) in stored if ncols in e}
        den, xs = x = _combine([(den, {j: num}) for j, (num, den) in sorted(values.items()) if num])
        if any(sum(v * xs.get(j, 0) for j, v in rows[i].items()) != rhs[i] * den for i in substituted):
            x = None
    kernel = {f: [(1, {f: 1})] for f in sorted(set(range(ncols)) - red.keys() - forced.keys())}
    for p, (den, e) in stored:
        for j, c in e.items():
            if j in kernel:
                kernel[j].append((den, {p: -c}))
    return x, [_combine(terms) for terms in kernel.values()]


def nullspace(rows: list[Row], ncols: int) -> list[Part]:
    """Basis of the right kernel of the matrix given by `rows`."""
    return solve(rows, [0] * len(rows), ncols)[1]
