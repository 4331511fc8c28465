import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from qhg.exterior import Endo, Vector
from qhg.scalars import LAM, ONE, ZERO, Scalar, _scalar, homogeneous_part
from support import rational_value, specialize


def rand_scalar(rng):
    return Scalar(
        {
            rng.randint(-3, 3): Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            for _ in range(rng.randint(0, 4))
        }
    )


def test_canonical_form_drops_zeros():
    s = Scalar({2: Fraction(0), 1: Fraction(3)})
    assert s == Scalar({1: 3})
    assert (s - s).is_zero()
    assert not Scalar(0)


def test_monomial_division():
    assert LAM**3 / LAM == LAM**2
    assert (LAM * 6) / Scalar({1: 2}) == Scalar(3)
    assert Scalar({-1: 1}) * LAM == ONE


def test_non_monomial_division_rejected():
    with pytest.raises(ValueError):
        (LAM**2 - 1) / (LAM - 1)
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_ring_axioms_randomized():
    rng = random.Random(11)
    for _ in range(60):
        a, b, c = (rand_scalar(rng) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert a * (b * c) == (a * b) * c
        assert a + (-a) == ZERO


def test_specialize():
    s = LAM**2 * 3 - LAM * Fraction(1, 2) + 5
    assert specialize(s, Fraction(2)) == Fraction(16)
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
    # [[l, 1], [1, l]] is singular at l = 1 only: no single point decides it
    for row in ([LAM, ONE], [ONE, LAM]):
        with pytest.raises(ArithmeticError, match=r"^row at index 1: .* has degree \d in l, expected \d$"):
            homogeneous_part(Vector(row), "row")
    matrix = Endo(2, {(0, 0): LAM, (0, 1): ONE, (1, 0): ONE, (1, 1): LAM})
    with pytest.raises(ArithmeticError, match=r"^matrix at index \(0, 1\): 1 has degree 0 in l, expected 1$"):
        homogeneous_part(matrix, "matrix")
    with pytest.raises(ArithmeticError, match=r"at index \(2, 0\): l \+ 1 is not a monomial"):
        homogeneous_part(Endo(3, {(0, 0): ZERO, (2, 0): LAM + 1}))
    with pytest.raises(ArithmeticError, match=r"at index 0: 2\*l has degree 1 in l, expected 0"):
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
    assert str(LAM * 2 + 1) == "2*l + 1"


def test_power_and_coercion():
    assert LAM**0 == ONE
    assert 2 * LAM == LAM + LAM
    assert LAM - Fraction(1, 2) == LAM + Fraction(-1, 2)
    assert Scalar({1: 2}) ** -2 == Scalar({-2: Fraction(1, 4)})


def test_parts_outside_the_normal_form_compare_unequal():
    """Equality and hashing read the parts, so they hold only for parts in
    normal form; 2/2 stored without its content divided out is not 1."""
    unreduced = _scalar({0: (2, {(): 2})})
    assert rational_value(unreduced) == 1 and str(unreduced) == "1"
    assert unreduced != ONE and unreduced != 1
    assert Scalar(Fraction(2, 2)) == ONE and hash(Scalar(Fraction(2, 2))) == hash(ONE)
    assert _scalar({0: (1, {(): 1})}) == ONE


def test_floats_are_rejected():
    for bad in (lambda: Scalar(0.5), lambda: Scalar({1: 0.5}), lambda: ONE + 0.5,
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
laurent = st.one_of(
    st.just({}),  # zero
    st.dictionaries(st.integers(-3, 3), coeffs, min_size=1, max_size=1),  # monomial
    st.dictionaries(st.integers(-3, 3), coeffs, min_size=2, max_size=4),  # multi-term
)


def assert_matches(result: Scalar, expected: dict):
    """result equals the Fraction dict `expected`; its parts are in normal
    form, {exponent: (den, {(): num})} with den > 0, num a nonzero int and
    gcd(num, den) = 1; and only Fractions leave through terms, coeff and
    rational_value."""
    for e, (den, entries) in result.parts.items():
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


@settings(max_examples=400, deadline=None)
@given(laurent, laurent, st.integers(-2, 2), st.integers(-2, 2), coeffs.filter(bool),
       st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)))
def test_ring_operations_match_laurent_convolution(a, b, k, de, dv, q):
    x, y = Scalar(a), Scalar(b)
    a = {e: Fraction(v) for e, v in a.items() if v}
    b = {e: Fraction(v) for e, v in b.items() if v}
    neg = lambda d: {e: -v for e, v in d.items()}
    assert_matches(x, a)
    assert_matches(x + y, ref_add(a, b))
    assert_matches(x - y, ref_add(a, neg(b)))
    assert_matches(-y, neg(b))
    assert_matches(x * y, ref_mul(a, b))
    assert hash(x * y) == hash(y * x) and hash(x + y) == hash(y + x)
    assert (x == y) == (a == b)
    # mixed with plain ints, on either side
    const = {0: Fraction(k)} if k else {}
    assert_matches(x + k, ref_add(a, const))
    assert_matches(k + x, ref_add(a, const))
    assert_matches(x - k, ref_add(a, neg(const)))
    assert_matches(k - x, ref_add(const, neg(a)))
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
    if len(a) == 1:
        ((e, v),) = a.items()
        assert_matches(x**-1, {-e: 1 / v})
        assert_matches(x**-2, {-2 * e: 1 / v**2})
        assert_matches(x**-2 * x * x, {0: Fraction(1)})
    else:
        with pytest.raises(ValueError):
            x**-1
    # specialize at 1 (as Fraction and as int), at q and at 0
    for point in (Fraction(1), 1, q, 0):
        if point == 0 and any(e < 0 for e in a):
            with pytest.raises(ZeroDivisionError):
                specialize(x, point)
            continue
        value = specialize(x, point)
        assert type(value) is Fraction and value == ref_specialize(a, Fraction(point))
