import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from qhg.exterior import Endo, Vector
from qhg.scalars import LAM, ONE, ZERO, Scalar, _scalar, homogeneous_part
from support import rational_value, specialize


def rand_scalar(rng, d):
    return Scalar({d: Fraction(rng.randint(-6, 6), rng.randint(1, 4))})


def test_canonical_form_drops_zeros():
    s = Scalar({2: Fraction(0), 1: Fraction(3)})
    assert s == Scalar({1: 3})
    assert (s - s).is_zero() and (s - s).part == (None, 1, {})
    assert not Scalar(0)


def test_monomial_division():
    assert LAM**3 / LAM == LAM**2
    assert (LAM * 6) / Scalar({1: 2}) == Scalar(3)
    assert Scalar({-1: 1}) * LAM == ONE


def test_a_sum_of_two_degrees_raises_naming_both():
    """Adding a length to an area: a Scalar holds one monomial c * l^d."""
    for mixed in (lambda: LAM**2 - 1, lambda: 1 + LAM, lambda: LAM - Fraction(1, 2), lambda: Scalar({0: 1, 1: 2})):
        with pytest.raises(TypeError, match=r"a term of degree \d in l meets one of degree \d$"):
            mixed()
    with pytest.raises(TypeError, match=r"^Scalar sum: a term of degree 0 in l meets one of degree 2$"):
        LAM**2 - 1
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    assert (LAM - LAM) + 1 == ONE  # zero has no degree


def test_ring_axioms_randomized():
    rng = random.Random(11)
    for _ in range(60):
        d, e = rng.randint(-3, 3), rng.randint(-3, 3)
        a, b, c = rand_scalar(rng, d), rand_scalar(rng, d), rand_scalar(rng, e)
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert a * (b * c) == (a * b) * c
        assert a + (-a) == ZERO


def test_specialize():
    s = LAM**2 * 3
    assert specialize(s, Fraction(2)) == Fraction(12)
    assert specialize(Scalar({-2: 1}), Fraction(1, 3)) == 9
    with pytest.raises(ZeroDivisionError):
        specialize(Scalar({-1: 1}), 0)


def test_homogeneous_part_reads_a_common_degree():
    row = Vector([LAM * 3, ZERO, LAM * Fraction(-1, 2)])
    assert homogeneous_part(row) == (1, 2, {0: 6, 2: -1})
    assert homogeneous_part(Endo(3, {(0, 1): LAM**-2, (2, 2): LAM**-2 * 5})) == (-2, 1, {(0, 1): 1, (2, 2): 5})
    assert homogeneous_part(Vector([ZERO, ZERO])) == (None, 1, {})
    assert homogeneous_part(Vector([])) == (None, 1, {})
    assert homogeneous_part(Vector([Scalar(Fraction(3, 2))]), degree=0) == (0, 2, {0: 3})
    assert homogeneous_part(Vector([ZERO]), degree=4) == (4, 1, {})
    _, _, entries = homogeneous_part(Vector([LAM * 2, ZERO]))
    assert all(type(v) is int for v in entries.values())


def test_homogeneous_part_rejects_rows_that_change_rank_with_the_parameter():
    # [[l, 1], [1, l]] is singular at l = 1 only: no single point decides it, and
    # no such row or matrix can be built
    for row, first, second in (([LAM, ONE], 1, 0), ([ONE, LAM], 0, 1)):
        with pytest.raises(TypeError, match=rf"^Vector at index 1: degree {second} in l meets degree {first} at index 0$"):
            Vector(row)
    with pytest.raises(TypeError, match=r"^Endo at index \(0, 1\): degree 0 in l meets degree 1 at index \(0, 0\)$"):
        Endo(2, {(0, 0): LAM, (0, 1): ONE, (1, 0): ONE, (1, 1): LAM})
    # rows read from several tensors must share the degree asked for
    with pytest.raises(ArithmeticError, match=r"^tensor has degree 1 in l, expected 0$"):
        homogeneous_part(Vector([LAM * 2]), degree=0)


def test_rational_value():
    assert rational_value(Scalar(Fraction(7, 3))) == Fraction(7, 3)
    with pytest.raises(ValueError):
        rational_value(LAM)


def test_string_forms():
    assert str(ZERO) == "0"
    assert str(LAM) == "l"
    assert str(-LAM) == "-l"
    assert str(LAM**2 * -12) == "-12*l^2"
    assert str(Scalar({-1: Fraction(1, 2)})) == "1/2*l^-1"
    assert str(Scalar(Fraction(-3, 4))) == "-3/4"


def test_power_and_coercion():
    assert LAM**0 == ONE
    assert 2 * LAM == LAM + LAM
    assert Fraction(1, 2) - ONE == ONE * Fraction(-1, 2)
    assert Scalar({1: 2}) ** -2 == Scalar({-2: Fraction(1, 4)})
    with pytest.raises(ZeroDivisionError):
        ZERO**-1


def test_parts_outside_the_normal_form_compare_unequal():
    """Equality and hashing read the part, so they hold only for parts in
    normal form; 2/2 stored without its content divided out is not 1."""
    unreduced = _scalar((0, 2, {(): 2}))
    assert rational_value(unreduced) == 1 and str(unreduced) == "1"
    assert unreduced != ONE and unreduced != 1
    assert Scalar(Fraction(2, 2)) == ONE and hash(Scalar(Fraction(2, 2))) == hash(ONE)
    assert _scalar((0, 1, {(): 1})) == ONE


def test_floats_are_rejected():
    for bad in (lambda: Scalar(0.5), lambda: Scalar({1: 0.5}), lambda: Scalar({1: LAM}), lambda: ONE + 0.5,
                lambda: 0.5 + ONE, lambda: LAM * 0.5, lambda: 0.5 - LAM, lambda: ONE / 2.0,
                lambda: specialize(LAM, 0.5)):
        with pytest.raises(TypeError):
            bad()
    assert ONE != 1.0 and not (LAM == 0.5)


# -- the ring operations on parts against a reference over Fraction dicts -------


def ref_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, v in b.items():
        out[e] = out.get(e, 0) + v
    return {e: v for e, v in out.items() if v}


def ref_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, v1 in a.items():
        for e2, v2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + v1 * v2
    return {e: v for e, v in out.items() if v}


def ref_specialize(a: dict, q: Fraction) -> Fraction:
    return sum((c * q**e for e, c in a.items()), Fraction(0))


# int and Fraction coefficients, integral Fractions among them
coeffs = st.one_of(
    st.integers(-6, 6), st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3, 4]))
)
monomials = st.one_of(
    st.just({}),  # zero
    st.dictionaries(st.integers(-3, 3), coeffs, min_size=1, max_size=1),  # c * l^d
)


def assert_matches(result: Scalar, expected: dict):
    """result equals the Fraction dict `expected`; its part is in normal
    form, (exponent, den, {(): num}) with den > 0, num a nonzero int and
    gcd(num, den) = 1, or (None, 1, {}) for zero; and only Fractions leave
    through terms, coeff and rational_value."""
    e, den, entries = result.part
    if not expected:
        assert result.part == (None, 1, {})
    else:
        assert type(e) is int and type(den) is int and den > 0 and list(entries) == [()]
        num = entries[()]
        assert type(num) is int and num != 0 and gcd(num, den) == 1
        assert Fraction(num, den) == expected[e]
    terms = result.terms()
    assert dict(terms) == expected and all(type(c) is Fraction for _, c in terms)
    for e in range(-8, 9):
        c = result.coeff(e)
        assert type(c) is Fraction and c == expected.get(e, 0)
    assert result == Scalar(expected)
    assert hash(result) == hash(Scalar(expected))
    if set(expected) <= {0}:
        value = rational_value(result)
        assert type(value) is Fraction and value == expected.get(0, 0)
        assert result == value and hash(result) == hash(Scalar(value))


def assert_sum(thunk, a: dict, b: dict):
    """thunk() is a + b: it matches the convolution reference when a and b
    share a degree or one is zero, and raises TypeError otherwise."""
    if len(set(a) | set(b)) > 1:
        with pytest.raises(TypeError, match=r"a term of degree -?\d in l meets one of degree -?\d$"):
            thunk()
    else:
        assert_matches(thunk(), ref_add(a, b))


@settings(max_examples=400, deadline=None)
@given(monomials, monomials, st.integers(-2, 2), st.integers(-2, 2), coeffs.filter(bool),
       st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)))
def test_ring_operations_match_laurent_convolution(a, b, k, de, dv, q):
    x, y = Scalar(a), Scalar(b)
    a = {e: Fraction(v) for e, v in a.items() if v}
    b = {e: Fraction(v) for e, v in b.items() if v}
    neg = lambda d: {e: -v for e, v in d.items()}
    assert_matches(x, a)
    assert_sum(lambda: x + y, a, b)
    assert_sum(lambda: x - y, a, neg(b))
    assert_matches(-y, neg(b))
    assert_matches(x * y, ref_mul(a, b))
    assert hash(x * y) == hash(y * x)
    assert (x == y) == (a == b)
    # mixed with plain ints, on either side
    const = {0: Fraction(k)} if k else {}
    assert_sum(lambda: x + k, a, const)
    assert_sum(lambda: k + x, a, const)
    assert_sum(lambda: x - k, a, neg(const))
    assert_sum(lambda: k - x, const, neg(a))
    assert_matches(x * k, ref_mul(a, const))
    assert_matches(k * x, ref_mul(a, const))
    assert (x == k) == (a == const)
    # division by a monomial and by a plain nonzero int
    assert_matches(x / Scalar({de: dv}), {e - de: v / dv for e, v in a.items()})
    if k:
        assert_matches(x / k, {e: v / k for e, v in a.items()})
    power = {0: Fraction(1)}
    for n in range(4):
        assert_matches(x**n, power)
        power = ref_mul(power, a)
    if a:
        ((e, v),) = a.items()
        assert_matches(x**-1, {-e: 1 / v})
        assert_matches(x**-2, {-2 * e: 1 / v**2})
        assert_matches(x**-2 * x * x, {0: Fraction(1)})
    else:
        with pytest.raises(ZeroDivisionError):
            x**-1
    # specialize at 1 (as Fraction and as int), at q and at 0
    for point in (Fraction(1), 1, q, 0):
        if point == 0 and any(e < 0 for e in a):
            with pytest.raises(ZeroDivisionError):
                specialize(x, point)
            continue
        value = specialize(x, point)
        assert type(value) is Fraction and value == ref_specialize(a, Fraction(point))
