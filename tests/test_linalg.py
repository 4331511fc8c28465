"""The exact elimination kernel: rref, solve, nullspace and Span.

The dense oracles run on Fractions; the kernel takes each rational row
scaled to integers and returns normal-form parts (den, {column: int}),
which `integer_part` gives for an oracle row too."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from qhg.linalg import Span, nullspace, rref, solve
from support import counting_inserts, integer_part, solve_oracle, span_contains


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


def parts(rows):
    """The normal-form parts worth the rational rows, dense or sparse."""
    return [integer_part(dict(enumerate(r)) if isinstance(r, list) else r) for r in rows]


def integer_rows(rows):
    """Each rational row scaled to integers: the same span."""
    return [e for _, e in parts(rows)]


def values(part, ncols):
    """A part (den, entries) as a dense row of Fractions."""
    den, e = part
    return [Fraction(e.get(j, 0), den) for j in range(ncols)]


def is_normal(part):
    """den > 0, no zero entry and gcd(den, *entries) == 1."""
    den, e = part
    return den > 0 and all(type(x) is int and x for x in e.values()) and gcd(den, *e.values()) == 1


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
    assert rref(integer_rows(rows), ncols) == (parts(red), piv)


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
    red, piv = rref(integer_rows(rows), ncols)
    ref_red, ref_piv = dense_rref(dense(rows, ncols))
    assert (red, piv) == (parts(ref_red), ref_piv)
    for (den, row), p in zip(red, piv):
        assert all(row.values())  # no stored zero
        assert min(row) == p and row[p] == den  # the pivot is the lowest column, worth 1
        assert not set(row) & (set(piv) - {p})  # no entry at another pivot
    span = Span(ncols)
    for r in integer_rows(rows):
        span.add(r)
        assert all(all(row.values()) and min(row) == p for p, (_, row) in span._rows.items())
    assert dict(sorted(span._rows.items())) == dict(zip(piv, red))


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_fraction_span_holds_the_rref(case):
    ncols, rows = case
    span = Span(ncols)
    grew = [span.add(r) for r in integer_rows(rows)]
    red, piv = dense_rref(rows)
    assert span.dim == len(red) == sum(grew)
    assert rref(integer_rows(rows), ncols) == (parts(red), piv)
    # e_p reduced against the span is e_p less the rref row of pivot p
    for row, p in zip(sparse(red), piv):
        assert span.reduce({p: 1}) == integer_part({j: -x for j, x in row.items() if j != p})
    assert all(span_contains(span, r) for r in integer_rows(rows))


@st.composite
def tall_full_rank(draw):
    """A square block of full rank (upper triangular with a nonzero diagonal,
    rows shuffled), then more rows than it needs: the solve reaches full
    column rank and substitutes every row after it."""
    ncols = draw(st.integers(1, 5))
    nonzero = entries.filter(bool)
    block = [
        [draw(nonzero) if j == i else draw(entries) if j > i else Fraction(0) for j in range(ncols)]
        for i in range(ncols)
    ]
    block = [block[i] for i in draw(st.permutations(range(ncols)))]
    extra = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), min_size=1, max_size=4))
    kinds = draw(st.lists(st.sampled_from(["combo", "row"]), min_size=len(extra), max_size=len(extra)))
    for i, kind in enumerate(kinds):
        if kind == "combo":
            a, b = draw(st.sampled_from(block)), draw(st.sampled_from(block))
            s, t = draw(entries), draw(entries)
            extra[i] = [s * x + t * y for x, y in zip(a, b)]
    return ncols, block + extra


@st.composite
def with_rhs(draw, systems):
    """A system of `systems` and a rhs, either rows * x0 for a drawn x0 or drawn."""
    ncols, rows = draw(systems)
    if draw(st.booleans()):
        x0 = draw(st.lists(entries, min_size=ncols, max_size=ncols))
        return ncols, rows, [dot(r, x0) for r in rows]
    return ncols, rows, draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))


def integer_system(rows, rhs, ncols):
    """Each equation scaled to integers, its rhs with it: (rows, rhs) for solve."""
    augmented = integer_rows([r + [b] for r, b in zip(rows, rhs)])
    return [{j: v for j, v in a.items() if j < ncols} for a in augmented], [a.get(ncols, 0) for a in augmented]


@settings(max_examples=300, deadline=None)
@given(st.one_of(with_rhs(matrices()), with_rhs(tall_full_rank())))
def test_solve_is_exact(case):
    ncols, rows, rhs = case
    int_rows, int_rhs = integer_system(rows, rhs, ncols)
    x, kernel = solve(int_rows, int_rhs, ncols)
    rank = len(dense_rref(rows)[0])
    consistent = len(dense_rref([r + [b] for r, b in zip(rows, rhs)])[0]) == rank
    assert (x is not None) == consistent
    if x is not None:
        assert is_normal(x) and [dot(r, values(x, ncols)) for r in rows] == rhs
    assert all(is_normal(k) for k in kernel)
    dense_kernel = [values(k, ncols) for k in kernel]
    assert len(kernel) == ncols - rank
    assert len(dense_rref(dense_kernel)[0]) == len(kernel)
    assert all(dot(r, k) == 0 for r in rows for k in dense_kernel)
    assert nullspace(int_rows, ncols) == kernel


@st.composite
def peelable_systems(draw):
    """(ncols, rows, rhs) over Q: a scaled triangular chain, whose row i pins
    chain unknown i once the earlier ones are forced; a coupled block of 2-4
    unknowns, each of its rows holding two or more of them and any chain
    unknowns; redundant multiples of the rows; a rhs rows * x0, or, at
    random, one more row that breaks consistency, a multiple of a chain row
    or of a block row with its rhs off by one.  Columns and rows shuffled."""
    nonzero = entries.filter(bool)
    chain, size = draw(st.integers(0, 5)), draw(st.integers(2, 4))
    ncols = chain + size + draw(st.integers(0, 1))  # maybe a column no row holds
    col = draw(st.permutations(range(ncols)))
    rows = []
    for i in range(chain):
        row = {col[i]: draw(nonzero)}
        row.update({col[j]: draw(entries) for j in range(i) if draw(st.booleans())})
        rows.append(row)
    for _ in range(draw(st.integers(1, size + 1))):
        held = draw(st.lists(st.sampled_from(range(size)), min_size=2, max_size=size, unique=True))
        row = {col[chain + j]: draw(nonzero) for j in held}
        row.update({col[j]: draw(entries) for j in range(chain) if draw(st.booleans())})
        rows.append(row)
    x0 = draw(st.lists(entries, min_size=ncols, max_size=ncols))
    rhs = [sum(v * x0[j] for j, v in row.items()) for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        k, s = draw(st.integers(0, len(rows) - 1)), draw(nonzero)
        rows.append({j: s * v for j, v in rows[k].items()})
        rhs.append(s * rhs[k])
    if draw(st.booleans()):
        k = draw(st.integers(0, chain - 1) if chain and draw(st.booleans()) else st.integers(chain, len(rows) - 1))
        s = draw(nonzero)
        rows.append({j: s * v for j, v in rows[k].items()})
        rhs.append(s * rhs[k] + 1)
    order = draw(st.permutations(range(len(rows))))
    dense_rows = [[rows[i].get(j, Fraction(0)) for j in range(ncols)] for i in order]
    return ncols, dense_rows, [rhs[i] for i in order]


@settings(max_examples=300, deadline=None)
@given(st.one_of(with_rhs(matrices()), with_rhs(tall_full_rank()), peelable_systems()), st.randoms())
def test_solve_and_nullspace_match_the_oracle(case, rng):
    ncols, rows, rhs = case
    int_rows, int_rhs = integer_system(rows, rhs, ncols)
    expected = solve_oracle(int_rows, int_rhs, ncols)
    assert solve(int_rows, int_rhs, ncols) == expected
    assert nullspace(int_rows, ncols) == solve_oracle(int_rows, [0] * len(int_rows), ncols)[1]
    order = list(range(len(int_rows)))
    rng.shuffle(order)
    assert solve([int_rows[i] for i in order], [int_rhs[i] for i in order], ncols) == expected


def test_solve_substitutes_the_rows_after_full_column_rank(monkeypatch):
    # x = (1, 2): row 0 pins x0, and then each other row pins x1 or is substituted
    inserted = counting_inserts(monkeypatch)
    assert solve([{0: 1}, {0: 1, 1: 1}, {0: 2, 1: 1}, {1: 3}], [1, 3, 4, 6], 2) == ((1, {0: 1, 1: 2}), [])
    assert solve([{0: 2}, {1: 3}, {0: 4, 1: 3}], [1, 1, 3], 2) == ((6, {0: 3, 1: 2}), [])  # (1/2, 1/3)
    assert inserted == []  # a row that pins one unknown is never inserted
    # no row pins one unknown: rows 0 and 1 give every unknown a pivot, row 2 is only substituted
    assert solve([{0: 1, 1: 1}, {0: 1, 1: -1}, {0: 2, 1: 1}], [3, -1, 4], 2) == ((1, {0: 1, 1: 2}), [])
    assert len(inserted) == 2
    inserted.clear()
    # row 0 pins x0 = 1/2; the rest reach full column rank in x1, x2 after one insert each
    assert solve([{1: 1, 2: 1, 0: 2}, {0: 2}, {1: 1, 2: -1}, {1: 2, 2: 2}], [6, 1, -1, 10], 3) == (
        (2, {0: 1, 1: 4, 2: 6}),
        [],
    )
    assert len(inserted) == 2
    inserted.clear()
    # a system that never reaches full column rank inserts every row
    assert solve([{0: 1, 1: 1}, {0: 2, 1: 2}, {0: 3, 1: 3}], [1, 2, 3], 2) == ((1, {0: 1}), [(1, {1: 1, 0: -1})])
    assert len(inserted) == 3


def test_solve_rejects_an_inconsistent_row_after_full_column_rank(monkeypatch):
    inserted = counting_inserts(monkeypatch)
    assert solve([{0: 1}, {1: 1}, {0: 1, 1: 1}, {0: 1}], [1, 2, 3, 2], 2) == (None, [])
    assert solve([{0: 2}, {1: 3}, {0: 4, 1: 3}], [1, 1, 4], 2) == (None, [])  # off by one unit at the end
    assert solve([{0: 1, 1: 1}, {0: 2, 1: 2}, {0: 1}], [1, 3, 0], 2) == (None, [])
    assert inserted == []  # each row pins one unknown or is substituted
    # no row pins one unknown: an inconsistency before full rank is a pivot in the rhs column,
    # and every row is inserted
    assert solve([{0: 1, 1: 1}, {0: 2, 1: 2}, {0: 1, 1: -1}], [1, 3, 0], 2) == (None, [])
    assert len(inserted) == 3
    inserted.clear()
    # x1, x2 pinned; the residual x0 + x3 = 1, x0 - x3 = 1 reaches full rank, and the
    # last row, substituted, is off by one
    assert solve(
        [{1: 1}, {1: 1, 2: 1}, {0: 1, 3: 1, 1: 1}, {0: 1, 3: -1}, {0: 2, 3: 1, 2: 1}],
        [1, 3, 2, 1, 5],
        4,
    ) == (None, [])
    assert len(inserted) == 2


@pytest.mark.parametrize(
    "row, b, message",
    [
        ({0: 1.5}, 3, "row 2 has entry 1.5 at column 0, not an int"),
        ({1: Fraction(1, 2)}, 3, r"row 2 has entry Fraction\(1, 2\) at column 1, not an int"),
        ({0: 1}, 0.5, "row 2 has entry 0.5 at column 2, not an int"),
        ({0: 1, 2: 1}, 3, r"row 2 has column 2 outside \[0, 2\)"),
        ({-1: 1}, 3, r"row 2 has column -1 outside \[0, 2\)"),
    ],
    ids=["float", "fraction", "float-rhs", "rhs-column", "negative-column"],
)
def test_solve_validates_the_rows_after_full_column_rank(row, b, message):
    # rows 0 and 1 reach full column rank; row 2 is only substituted, and still validated
    with pytest.raises(ValueError, match=message):
        solve([{0: 1}, {1: 1}, row], [1, 2, b], 2)
    # also after an inconsistent row has decided the answer
    with pytest.raises(ValueError, match=message.replace("row 2", "row 3")):
        solve([{0: 1}, {1: 1}, {0: 1}, row], [1, 2, 5, b], 2)


def test_solve_inconsistent_system():
    x, kernel = solve([{0: 1, 1: 2}, {0: 2, 1: 4}], [1, 1], 2)
    assert x is None
    assert kernel == [(1, {0: -2, 1: 1})]


def test_solve_without_equations():
    x, kernel = solve([], [], 3)
    assert x == (1, {})
    assert kernel == [(1, {i: 1}) for i in range(3)]


def test_solve_rejects_mismatched_rhs():
    with pytest.raises(ValueError):
        solve([{0: 1}], [], 1)


def test_span_rejects_a_column_outside_its_range():
    span = Span(3)
    with pytest.raises(ValueError, match="column 3 outside"):
        span.add({0: 1, 3: 1})
    with pytest.raises(ValueError, match="column -1 outside"):
        span.reduce({-1: 1})
    assert span.dim == 0


def test_solve_rejects_a_column_outside_its_range():
    # the column past ncols is the augmented one: accepting it would
    # return x = [1] with an empty kernel for x0 + x1 + x2 = 1
    with pytest.raises(ValueError, match="row 0 has column 2 outside"):
        solve([{0: 1, 1: 1, 2: 1}], [1], 1)


def test_rref_rejects_a_column_outside_its_range():
    ragged = [{0: 1}, {0: 1, 4: 2}]
    with pytest.raises(ValueError, match="row 1 has column 4 outside"):
        rref(ragged, 3)
    assert rref(ragged, 5) == ([(1, {0: 1}), (1, {4: 1})], [0, 4])


def test_span_is_exact_for_int_entries_and_rejects_a_float():
    span = Span(3)
    assert span.add({0: 3, 1: 1})
    assert span.reduce({0: 1}) == (3, {1: -1})  # e_0 less the row (1, 1/3)
    with pytest.raises(ValueError, match="row .* has entry 0.5 at column 2"):
        span.add({2: 0.5})
    with pytest.raises(ValueError, match="at column 1, not an int"):
        span.reduce({1: 1.0})
    with pytest.raises(ValueError, match=r"has entry Fraction\(1, 2\) at column 1, not an int$"):
        span.add({1: Fraction(1, 2)})
    assert span.dim == 1


def test_rref_is_exact_for_int_entries_and_rejects_a_float():
    red, piv = rref([{0: 2, 1: 4}, {0: 3, 1: 1}], 2)
    assert (red, piv) == ([(1, {0: 1}), (1, {1: 1})], [0, 1])
    red, piv = rref([{0: 3, 2: 1}], 3)
    assert red == [(3, {0: 3, 2: 1})]  # the row (1, 0, 1/3)
    with pytest.raises(ValueError, match="row 1 has entry 2.0 at column 0"):
        rref([{0: 1}, {0: 2.0}], 1)
    with pytest.raises(ValueError, match=r"row 0 has entry Fraction\(2, 1\) at column 0"):
        rref([{0: Fraction(2)}], 1)


def test_solve_and_nullspace_are_exact_for_int_entries_and_reject_a_float():
    x, kernel = solve([{0: 3}], [1], 1)
    assert x == (3, {0: 1}) and kernel == []
    assert nullspace([{0: 3, 1: 1}], 2) == [(3, {0: -1, 1: 3})]  # (-1/3, 1)
    with pytest.raises(ValueError, match="row 0 has entry 1.5 at column 0"):
        solve([{0: 1.5}], [1], 1)
    with pytest.raises(ValueError, match="row 0 has entry 0.25 at column 1"):
        solve([{0: 1}], [0.25], 1)
    with pytest.raises(ValueError, match=r"row 0 has entry Fraction\(1, 4\) at column 1"):
        solve([{0: 1}], [Fraction(1, 4)], 1)
    with pytest.raises(ValueError, match="row 0 has entry 3.0 at column 0"):
        nullspace([{0: 3.0, 1: 1}], 2)


def test_every_output_is_a_normal_form_part():
    # a row that meets no pivot, or only columns past them, is still read out in normal form
    span = Span(3)
    outputs = [span.reduce({0: 3})]
    assert outputs[-1] == (1, {0: 3})
    span.add({1: 2})
    outputs += [span.reduce({0: 3, 1: 4}), span.reduce({2: 5})]
    assert outputs[-2:] == [(1, {0: 3}), (1, {2: 5})]
    span.add({0: 2, 2: 4})
    outputs += [span.reduce({2: 6}), span.reduce({0: 1}), span.reduce({0: 4, 2: 8})]
    assert outputs[-3:] == [(1, {2: 6}), (1, {2: -2}), (1, {})]
    red, _ = rref([{0: 4}, {1: 6, 2: 3}], 3)
    assert red == [(1, {0: 1}), (2, {1: 2, 2: 1})]
    x, kernel = solve([{0: 2}, {1: 1, 2: 1}], [4, 1], 3)
    assert (x, kernel) == ((1, {0: 2, 1: 1}), [(1, {2: 1, 1: -1})])
    y, more = solve([{0: 4, 1: 6}], [2], 2)  # y = (1/2, 0), kernel (-3/2, 1)
    assert (y, more) == ((2, {0: 1}), [(2, {1: 2, 0: -3})])
    basis = nullspace([{0: 6, 1: 4}], 2)  # (-2/3, 1)
    assert basis == [(3, {1: 3, 0: -2})]
    outputs += [*red, x, *kernel, y, *more, *basis]
    assert all(is_normal(part) for part in outputs)


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
    zero rows, repeated rows and dependent rows mixed in; the test scales
    each row to integers."""
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
    rows = integer_rows(rows)
    span, red = Span(ncols), {}
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
        assert span._rows == {p: integer_part(row) for p, row in red.items()}
        for w in rows:
            assert span.reduce(w) == integer_part(oracle_reduce(red, w))
