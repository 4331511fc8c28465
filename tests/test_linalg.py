"""The exact elimination kernel: rref, solve, nullspace and FractionSpan."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from qhg.linalg import FractionSpan, nullspace, rref, solve
from support import span_contains


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


def sparse(rows):
    """The kernel's row type: column -> nonzero entry."""
    return [{j: x for j, x in enumerate(r) if x} for r in rows]


def dense(rows, ncols):
    return [[r.get(j, Fraction(0)) for j in range(ncols)] for r in rows]


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
    ncols, rows = case
    red, piv = dense_rref(rows)
    assert rref(sparse(rows), ncols) == (sparse(red), piv)


@st.composite
def sparse_matrices(draw):
    """Low-density rows over up to 30 columns, with zero, repeated and
    dependent rows mixed in; combinations may keep explicit zero entries."""
    ncols = draw(st.integers(1, 30))
    nonzero = entries.filter(bool)
    row = st.dictionaries(st.integers(0, ncols - 1), nonzero, max_size=4)
    base = draw(st.lists(row, max_size=12))
    rows = list(base)
    extras = st.lists(st.sampled_from(["zero", "repeat", "combo"]), max_size=6)
    for kind in draw(extras):
        if kind == "zero" or not base:
            rows.append({})
        elif kind == "repeat":
            rows.append(dict(draw(st.sampled_from(base))))
        else:
            a, b = draw(st.sampled_from(base)), draw(st.sampled_from(base))
            s, t = draw(entries), draw(entries)
            rows.append(
                {j: s * a.get(j, 0) + t * b.get(j, 0) for j in sorted(a.keys() | b.keys())}
            )
    order = draw(st.permutations(range(len(rows))))
    return ncols, [rows[i] for i in order]


@settings(max_examples=300, deadline=None)
@given(sparse_matrices())
def test_sparse_rref_matches_dense_gauss_jordan(case):
    ncols, rows = case
    red, piv = rref(rows, ncols)
    ref_red, ref_piv = dense_rref(dense(rows, ncols))
    assert (red, piv) == (sparse(ref_red), ref_piv)
    for row, p in zip(red, piv):
        assert all(row.values())  # no stored zero
        assert min(row) == p and row[p] == 1  # the pivot is the lowest column
        assert not set(row) & (set(piv) - {p})  # no entry at another pivot
    span = FractionSpan(ncols)
    for r in rows:
        span.add(r)
        assert all(all(row.values()) and min(row) == p for p, row in span.rows.items())
    assert dict(sorted(span.rows.items())) == dict(zip(piv, red))


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_fraction_span_holds_the_rref(case):
    ncols, rows = case
    span = FractionSpan(ncols)
    grew = [span.add(r) for r in sparse(rows)]
    red, piv = dense_rref(rows)
    assert span.dim == len(red) == sum(grew)
    assert sorted(span.rows) == piv
    assert [span.rows[p] for p in sorted(span.rows)] == sparse(red)
    assert all(span_contains(span, r) for r in sparse(rows))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_solve_is_exact(data):
    ncols, rows = data.draw(matrices())
    if data.draw(st.booleans()):
        x0 = data.draw(st.lists(entries, min_size=ncols, max_size=ncols))
        rhs = [dot(r, x0) for r in rows]
    else:
        rhs = data.draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
    x, kernel = solve(sparse(rows), rhs, ncols)
    rank = len(dense_rref(rows)[0])
    consistent = len(dense_rref([r + [b] for r, b in zip(rows, rhs)])[0]) == rank
    assert (x is not None) == consistent
    if x is not None:
        assert [dot(r, x) for r in rows] == rhs
    assert len(kernel) == ncols - rank
    assert len(dense_rref(kernel)[0]) == len(kernel)
    assert all(dot(r, k) == 0 for r in rows for k in kernel)
    assert nullspace(sparse(rows), ncols) == kernel


def test_solve_inconsistent_system():
    one, two = Fraction(1), Fraction(2)
    x, kernel = solve(sparse([[one, two], [two, 2 * two]]), [one, one], 2)
    assert x is None
    assert kernel == [[-two, one]]


def test_solve_without_equations():
    x, kernel = solve([], [], 3)
    assert x == [0, 0, 0]
    assert kernel == [[Fraction(i == j) for j in range(3)] for i in range(3)]


def test_solve_rejects_mismatched_rhs():
    with pytest.raises(ValueError):
        solve([{0: Fraction(1)}], [], 1)


def test_span_rejects_a_column_outside_its_range():
    span = FractionSpan(3)
    with pytest.raises(ValueError, match="column 3 outside"):
        span.add({0: Fraction(1), 3: Fraction(1)})
    with pytest.raises(ValueError, match="column -1 outside"):
        span.reduce({-1: Fraction(1)})
    assert span.dim == 0


def test_solve_rejects_a_column_outside_its_range():
    # the column past ncols is the augmented one: accepting it would
    # return x = [1] with an empty kernel for x0 + x1 + x2 = 1
    with pytest.raises(ValueError, match="row 0 has column 2 outside"):
        solve([{0: Fraction(1), 1: Fraction(1), 2: Fraction(1)}], [Fraction(1)], 1)


def test_rref_rejects_a_column_outside_its_range():
    ragged = [{0: Fraction(1)}, {0: Fraction(1), 4: Fraction(2)}]
    with pytest.raises(ValueError, match="row 1 has column 4 outside"):
        rref(ragged, 3)
    assert rref(ragged, 5) == ([{0: 1}, {4: 1}], [0, 4])


def _exact(rows):
    """Every entry of every row is a Fraction, never an int or a float."""
    return all(type(x) is Fraction for row in rows for x in row)


def test_span_is_exact_for_int_entries_and_rejects_a_float():
    span = FractionSpan(3)
    assert span.add({0: 3, 1: 1})
    assert span.rows == {0: {0: Fraction(1), 1: Fraction(1, 3)}}
    assert _exact(r.values() for r in span.rows.values())
    with pytest.raises(ValueError, match="row .* has entry 0.5 at column 2"):
        span.add({2: 0.5})
    with pytest.raises(ValueError, match="at column 1, not an int or a Fraction"):
        span.reduce({1: 1.0})
    assert span.dim == 1


def test_rref_is_exact_for_int_entries_and_rejects_a_float():
    red, piv = rref([{0: 2, 1: 4}, {0: 3, 1: 1}], 2)
    assert (red, piv) == ([{0: 1}, {1: 1}], [0, 1])
    assert _exact(r.values() for r in red)
    red, piv = rref([{0: 3, 2: 1}], 3)
    assert red == [{0: Fraction(1), 2: Fraction(1, 3)}] and _exact(r.values() for r in red)
    with pytest.raises(ValueError, match="row 1 has entry 2.0 at column 0"):
        rref([{0: 1}, {0: 2.0}], 1)


def test_solve_and_nullspace_are_exact_for_int_entries_and_reject_a_float():
    x, kernel = solve([{0: 3}], [1], 1)
    assert x == [Fraction(1, 3)] and kernel == [] and _exact([x])
    basis = nullspace([{0: 3, 1: 1}], 2)
    assert basis == [[Fraction(-1, 3), Fraction(1)]] and _exact(basis)
    with pytest.raises(ValueError, match="row 0 has entry 1.5 at column 0"):
        solve([{0: 1.5}], [1], 1)
    with pytest.raises(ValueError, match="row 0 has entry 0.25 at column 1"):
        solve([{0: 1}], [0.25], 1)
    with pytest.raises(ValueError, match="row 0 has entry 3.0 at column 0"):
        nullspace([{0: 3.0, 1: 1}], 2)


def test_every_output_holds_fractions():
    # a row that meets no pivot, or only columns past them, is still read out as Fractions
    span = FractionSpan(3)
    assert span.reduce({0: 3}) == {0: 3} and _exact([span.reduce({0: 3}).values()])
    span.add({1: 2})
    assert span.reduce({0: 3, 1: 4}) == {0: 3}
    assert _exact([span.reduce({0: 3, 1: 4}).values(), span.reduce({2: 5}).values()])
    assert _exact(r.values() for r in span.rows.values())
    red, _ = rref([{0: 4}, {1: 6, 2: 3}], 3)
    assert red == [{0: 1}, {1: 1, 2: Fraction(1, 2)}] and _exact(r.values() for r in red)
    x, kernel = solve([{0: 2}, {1: 1, 2: 1}], [4, 1], 3)
    assert (x, kernel) == ([2, 1, 0], [[0, -1, 1]]) and _exact([x, *kernel])
    assert _exact(nullspace([{0: 1, 1: 1}], 2))


# -- the integer eliminator: stored normal form, column index, Fraction oracle --

big = st.integers(-(10**12), 10**12)
mixed_entries = st.one_of(
    st.integers(-3, 3),
    big,
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4)),
    st.builds(Fraction, big, st.integers(1, 10**9)),
)


@st.composite
def mixed_rows(draw):
    """Sparse rows of int and Fraction entries, some huge, with explicit zeros,
    zero rows, repeated rows and dependent rows mixed in."""
    ncols = draw(st.integers(1, 10))
    row = st.dictionaries(st.integers(0, ncols - 1), mixed_entries, max_size=5)
    rows = draw(st.lists(row, min_size=1, max_size=10))
    for kind in draw(st.lists(st.sampled_from(["zero", "repeat", "combo"]), max_size=5)):
        if kind == "zero":
            rows.append({})
        elif kind == "repeat":
            rows.append(dict(draw(st.sampled_from(rows))))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(mixed_entries), draw(mixed_entries)
            rows.append({j: s * a.get(j, 0) + t * b.get(j, 0) for j in a.keys() | b.keys()})
    return ncols, draw(st.permutations(rows))


def oracle_reduce(red, v):
    """v less its combination of the fully reduced Fraction rows red that
    clears every pivot."""
    out = {j: Fraction(x) for j, x in v.items() if x}
    for p in [p for p in out if p in red]:
        c = out[p]
        for j, y in red[p].items():
            out[j] = out.get(j, 0) - c * y
            if not out[j]:
                del out[j]
    return out


def oracle_insert(red, v):
    """Textbook Gauss-Jordan on Fraction rows, pivot at the lowest column."""
    v = oracle_reduce(red, v)
    if v:
        p = min(v)
        v = {j: x / v[p] for j, x in v.items()}
        for q, row in red.items():
            if p in row:
                red[q] = oracle_reduce({p: v}, row)
        red[p] = v


@settings(max_examples=150, deadline=None)
@given(mixed_rows())
def test_integer_eliminator_keeps_normal_form_index_and_oracle(case):
    ncols, rows = case
    span, red = FractionSpan(ncols), {}
    for v in rows:
        span.add(v)
        oracle_insert(red, v)
        pivots = set(span._rows)
        for p, (den, e) in span._rows.items():
            assert den > 0 and gcd(den, *e.values()) == 1
            assert all(type(x) is int and x for x in e.values())
            assert min(e) == p and e[p] == den and not set(e) & (pivots - {p})
        index = {}
        for p, (_, e) in span._rows.items():
            for j in e.keys() - {p}:
                index.setdefault(j, set()).add(p)
        assert span._cols == index
        assert span.rows == red
        for w in rows:
            assert span.reduce(w) == oracle_reduce(red, w)
