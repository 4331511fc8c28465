"""The exact elimination kernel: rref, solve, nullspace and FractionSpan."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qhg.linalg import FractionSpan, nullspace, rref, solve


def dense_rref(rows):
    """Reference: textbook Gauss-Jordan with row swaps, column by column."""
    mat = [list(r) for r in rows]
    piv_cols = []
    r = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        piv_cols.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], piv_cols


def dot(row, x):
    return sum(a * b for a, b in zip(row, x))


entries = st.builds(
    Fraction, st.integers(-3, 3), st.sampled_from([1, 1, 1, 2, 3])
)


@st.composite
def matrices(draw):
    """Rows over Q with zero rows, repeated rows and dependent rows mixed in."""
    ncols = draw(st.integers(1, 6))
    base = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), max_size=5))
    rows = list(base)
    extras = st.lists(st.sampled_from(["zero", "repeat", "combo"]), max_size=3)
    for kind in draw(extras):
        if kind == "zero" or not base:
            rows.append([Fraction(0)] * ncols)
        elif kind == "repeat":
            rows.append(list(draw(st.sampled_from(base))))
        else:
            a, b = draw(st.sampled_from(base)), draw(st.sampled_from(base))
            s, t = draw(entries), draw(entries)
            rows.append([s * x + t * y for x, y in zip(a, b)])
    order = draw(st.permutations(range(len(rows))))
    return ncols, [rows[i] for i in order]


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_rref_matches_dense_gauss_jordan(case):
    _, rows = case
    assert rref(rows) == dense_rref(rows)


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_fraction_span_holds_the_rref(case):
    _, rows = case
    span = FractionSpan(len(rows[0]) if rows else 0)
    grew = [span.add(r) for r in rows]
    red, piv = dense_rref(rows)
    assert span.dim == len(red) == sum(grew)
    order = sorted(range(span.dim), key=span.pivots.__getitem__)
    assert [span.rows[i] for i in order] == red
    assert all(span.contains(r) for r in rows)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_solve_is_exact(data):
    ncols, rows = data.draw(matrices())
    if data.draw(st.booleans()):
        x0 = data.draw(st.lists(entries, min_size=ncols, max_size=ncols))
        rhs = [dot(r, x0) for r in rows]
    else:
        rhs = data.draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
    x, kernel = solve(rows, rhs, ncols)
    rank = len(dense_rref(rows)[0])
    consistent = len(dense_rref([r + [b] for r, b in zip(rows, rhs)])[0]) == rank
    assert (x is not None) == consistent
    if x is not None:
        assert [dot(r, x) for r in rows] == rhs
    assert len(kernel) == ncols - rank
    assert len(dense_rref(kernel)[0]) == len(kernel)
    assert all(dot(r, k) == 0 for r in rows for k in kernel)
    assert nullspace(rows, ncols) == kernel


def test_solve_inconsistent_system():
    one, two = Fraction(1), Fraction(2)
    x, kernel = solve([[one, two], [two, 2 * two]], [one, one], 2)
    assert x is None
    assert kernel == [[-two, one]]


def test_solve_without_equations():
    x, kernel = solve([], [], 3)
    assert x == [0, 0, 0]
    assert kernel == [[Fraction(i == j) for j in range(3)] for i in range(3)]


def test_solve_rejects_mismatched_rhs():
    with pytest.raises(ValueError):
        solve([[Fraction(1)]], [], 1)
