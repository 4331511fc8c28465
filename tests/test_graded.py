"""The graded integer kernels against definitional Scalar sums.

Vectors, forms and endomorphisms keep their entries as parts
{degree: (den, {index: int})}.  Every kernel is checked here, entry by
entry, against a sum of `Scalar` products written out from the
definition, on random tensors with Fraction coefficients whose entries
may mix several degrees (two or more parts), which no report builds.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from qhg.connections import _act_on_form
from qhg.exterior import Endo, KForm, Vector, form_inner, hodge_star, interior, wedge
from qhg.scalars import LAM, ONE, ZERO, Scalar, homogeneous_part

DIM = 4

coefficients = st.fractions(min_value=-4, max_value=4, max_denominator=6)
scalars = st.dictionaries(st.integers(-1, 2), coefficients, max_size=2).map(Scalar)


def sparse(keys):
    return st.dictionaries(st.sampled_from(keys), scalars, max_size=6)


endos = sparse([(r, c) for r in range(DIM) for c in range(DIM)]).map(lambda m: Endo(DIM, m))
vectors = st.lists(scalars, min_size=DIM, max_size=DIM).map(Vector)


def forms(k):
    return sparse(list(combinations(range(DIM), k))).map(lambda m: KForm(DIM, k, m))


def assert_normal(t):
    """den > 0, the content divided out, no zero entry and no empty part."""
    for d, (den, e) in t.parts.items():
        assert isinstance(d, int) and den > 0 and e
        assert all(type(v) is int and v for v in e.values())
        assert gcd(den, *e.values()) == 1


def endo_entries(a: Endo) -> dict:
    return {(r, c): a.entry(r, c) for r in range(DIM) for c in range(DIM)}


def sign(idx) -> int:
    """Sign of the permutation sorting idx, 0 with a repeated index."""
    if len(set(idx)) < len(idx):
        return 0
    inversions = sum(1 for a, b in combinations(idx, 2) if a > b)
    return -1 if inversions % 2 else 1


def coef(f: KForm, idx) -> Scalar:
    """f(e_idx) for any index tuple, read from the sorted components."""
    s = sign(idx)
    return f.comps.get(tuple(sorted(idx)), ZERO) * s if s else ZERO


def form_entries(f: KForm) -> dict:
    return {idx: coef(f, idx) for idx in combinations(range(f.dim), f.degree)}


def total(terms) -> Scalar:
    out = ZERO
    for t in terms:
        out = out + t
    return out


@settings(max_examples=40, deadline=None)
@given(endos, endos, scalars)
def test_endo_kernels_match_scalar_sums(a, b, c):
    ea, eb = endo_entries(a), endo_entries(b)
    n = range(DIM)
    expected = {
        "add": {k: ea[k] + eb[k] for k in ea},
        "sub": {k: ea[k] - eb[k] for k in ea},
        "scale": {k: c * ea[k] for k in ea},
        "compose": {(r, s): total(ea[r, k] * eb[k, s] for k in n) for r, s in ea},
        "commutator": {
            (r, s): total(ea[r, k] * eb[k, s] - eb[r, k] * ea[k, s] for k in n) for r, s in ea
        },
    }
    got = {
        "add": a + b, "sub": a - b, "scale": a.scale(c),
        "compose": a.compose(b), "commutator": a.commutator(b),
    }
    for name, e in got.items():
        assert_normal(e)
        assert endo_entries(e) == expected[name], name
    assert a.trace() == total(ea[i, i] for i in n)
    assert (-a) + a == Endo.zero(DIM)
    for s in n:
        assert list(a.column(s)) == [ea[r, s] for r in n]


@settings(max_examples=40, deadline=None)
@given(endos, vectors, vectors)
def test_vector_kernels_match_scalar_sums(a, x, y):
    ea = endo_entries(a)
    image = a.apply(x)
    assert_normal(image)
    assert list(image) == [total(ea[r, s] * x[s] for s in range(DIM)) for r in range(DIM)]
    assert x.dot(y) == total(x[i] * y[i] for i in range(DIM))
    assert_normal(x - y)
    assert list(x - y) == [x[i] - y[i] for i in range(DIM)]


@settings(max_examples=25, deadline=None)
@given(forms(1), forms(2), forms(2), vectors, endos)
def test_form_kernels_match_scalar_sums(f1, f2, g2, x, a):
    ea = endo_entries(a)
    w = wedge(f1, f2)
    assert_normal(w)
    assert form_entries(w) == {
        k: total(coef(f1, (k[t],)) * coef(f2, k[:t] + k[t + 1 :]) * (-1) ** t for t in range(3))
        for k in combinations(range(DIM), 3)
    }
    ix = interior(x, f2)
    assert_normal(ix)
    assert form_entries(ix) == {
        (j,): total(x[i] * coef(f2, (i, j)) for i in range(DIM)) for j in range(DIM)
    }
    star = hodge_star(f2)
    assert_normal(star)
    assert form_entries(star) == {
        k: coef(f2, comp) * sign(comp + k)
        for k in combinations(range(DIM), DIM - 2)
        for comp in [tuple(i for i in range(DIM) if i not in k)]
    }
    pairs = combinations(range(DIM), 2)
    assert form_inner(f2, g2) == total(coef(f2, k) * coef(g2, k) for k in pairs)
    # (A.f)(e_K) = -sum_t f(.., A e_{K_t}, ..), with A e_j = sum_m A[m, j] e_m
    acted = _act_on_form(a, f2)
    assert_normal(acted)
    assert form_entries(acted) == {
        k: -total(
            ea[m, k[t]] * coef(f2, k[:t] + (m,) + k[t + 1 :]) for t in range(2) for m in range(DIM)
        )
        for k in combinations(range(DIM), 2)
    }


def test_equal_tensors_have_equal_parts():
    half = Fraction(1, 2)
    a = Endo(3, {(0, 1): LAM * half, (1, 0): LAM * Fraction(3, 2), (2, 2): ONE})
    b = Endo(3, {(0, 1): LAM, (1, 0): LAM * 3}).scale(half) + Endo(3, {(2, 2): ONE})
    assert a.parts == b.parts == {1: (2, {(0, 1): 1, (1, 0): 3}), 0: (1, {(2, 2): 1})}
    assert a.scale(2).parts == {1: (1, {(0, 1): 1, (1, 0): 3}), 0: (1, {(2, 2): 2})}
    assert (a - a).parts == {}


def test_homogeneous_part_rejects_a_second_part():
    # the first index in sorted order sets the degree; the first other one fails
    two_degrees = Endo(3, {(0, 1): LAM, (2, 0): ONE})
    message = r"^endo at index \(2, 0\): 1 has degree 0 in l, expected 1$"
    with pytest.raises(ArithmeticError, match=message):
        homogeneous_part(two_degrees, "endo")
    shared = Endo(3, {(1, 2): LAM + 1, (0, 0): ONE})
    with pytest.raises(ArithmeticError, match=r"^endo at index \(1, 2\): l \+ 1 is not a monomial"):
        homogeneous_part(shared, "endo")
    with pytest.raises(ArithmeticError, match=r"\(0, 1\): l has degree 1 in l, expected 2"):
        homogeneous_part(Endo(3, {(0, 1): LAM}), "endo", 2)
    one = Endo(3, {(0, 1): LAM * Fraction(2, 3), (1, 0): LAM})
    assert homogeneous_part(one) == (1, 3, {(0, 1): 2, (1, 0): 3})
    assert homogeneous_part(Endo.zero(3)) == (None, 1, {})
