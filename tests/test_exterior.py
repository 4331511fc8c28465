import random
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest

from qhg import algebra
from qhg.exterior import (
    Endo,
    KForm,
    Vector,
    _sort_tuple,
    ce_differential,
    endo_two_form,
    form_inner,
    hodge_star,
    interior,
    two_form_endo,
    volume_form,
    wedge,
)
from qhg.scalars import LAM, ONE, ZERO, Scalar
from support import dual, random_form


def basis_vectors(n):
    return [Vector.basis(n, i) for i in range(n)]


def rand_vector(rng, n):
    return Vector([Scalar(Fraction(rng.randint(-3, 3))) for _ in range(n)])


# -- wedge -------------------------------------------------------------------


def test_wedge_basis_cases():
    n = 7
    th1 = KForm.basis(n, (3,))
    th2 = KForm.basis(n, (4,))
    assert wedge(th1, th2) == KForm.basis(n, (3, 4))
    th12 = KForm.basis(n, (3, 4))
    assert wedge(th12, th1).is_zero()


def test_wedge_distributes_over_torsion_summand():
    # eta_1 ^ (th_12 + th_34) splits into the two expected 3-form terms
    alg = algebra.build(1)
    s = wedge(alg.theta(1), alg.theta(2)) + wedge(alg.theta(3), alg.theta(4))
    w = wedge(alg.eta(1), s)
    assert w == KForm(7, 3, {(0, 3, 4): ONE, (0, 5, 6): ONE})
    # and equals -1/lam times the corresponding torsion summand
    d_eta = ce_differential(alg.eta(1), alg)
    assert wedge(alg.eta(1), d_eta) == w.scale(-LAM)


def test_wedge_graded_commutative_and_associative():
    rng = random.Random(3)
    n = 6
    for _ in range(25):
        ka, kb, kc = rng.randint(0, 2), rng.randint(0, 2), rng.randint(1, 2)
        a = random_form(rng, n, ka)
        b = random_form(rng, n, kb)
        c = random_form(rng, n, kc)
        sign = (-1) ** (ka * kb)
        assert wedge(a, b) == wedge(b, a).scale(sign)
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


def test_wedge_dimension_mismatch():
    with pytest.raises(ValueError):
        wedge(KForm.basis(7, (0,)), KForm.basis(11, (0,)))


# -- interior product ---------------------------------------------------------


def test_interior_basis_cases():
    alg = algebra.build(1)
    th12 = wedge(alg.theta(1), alg.theta(2))
    assert interior(alg.tau(1), th12) == alg.theta(2)
    assert interior(alg.xi(1), th12).is_zero()


def test_interior_of_d_eta():
    alg = algebra.build(1)
    d_eta = ce_differential(alg.eta(1), alg)
    assert interior(alg.tau(1), d_eta) == alg.theta(2).scale(-LAM)


def test_interior_antiderivation():
    rng = random.Random(5)
    n = 6
    for _ in range(25):
        ka = rng.randint(1, 2)
        a = random_form(rng, n, ka)
        b = random_form(rng, n, rng.randint(1, 2))
        x = rand_vector(rng, n)
        lhs = interior(x, wedge(a, b))
        rhs = wedge(interior(x, a), b) + wedge(a, interior(x, b)).scale((-1) ** ka)
        assert lhs == rhs


def test_interior_is_evaluation_on_one_forms():
    rng = random.Random(6)
    n = 5
    a = random_form(rng, n, 1)
    x = rand_vector(rng, n)
    assert interior(x, a).coeff(()) == a.evaluate(x)


# -- Hodge star ----------------------------------------------------------------


def test_star_volume_and_involution():
    n = 7
    assert hodge_star(volume_form(n)) == KForm.unit(n)
    assert hodge_star(KForm.unit(n)) == volume_form(n)
    rng = random.Random(8)
    for _ in range(10):
        a = random_form(rng, n, 3)
        assert hodge_star(hodge_star(a)) == a  # k(n-k) even
    for k in range(n + 1):
        a = random_form(rng, n, k)
        sign = (-1) ** (k * (n - k))
        assert hodge_star(hodge_star(a)) == a.scale(sign)


def test_star_isometry():
    rng = random.Random(9)
    n = 7
    for k in (1, 2, 3):
        a = random_form(rng, n, k)
        b = random_form(rng, n, k)
        assert form_inner(hodge_star(a), hodge_star(b)) == form_inner(a, b)


# -- inner product --------------------------------------------------------------


def test_inner_orthonormal_basis():
    n = 7
    th12 = KForm.basis(n, (3, 4))
    assert form_inner(th12, th12) == ONE
    assert form_inner(th12, KForm.basis(n, (3, 5))).is_zero()
    with pytest.raises(ValueError):
        form_inner(th12, KForm.basis(n, (3,)))


def eval_norm_squared(t: KForm) -> Scalar:
    """Independent oracle: sum of squared evaluations on frame triples."""
    total = ZERO
    for idx in combinations(range(t.dim), t.degree):
        vectors = [Vector.basis(t.dim, i) for i in idx]
        v = t.evaluate(*vectors)
        total = total + v * v
    return total


@pytest.mark.parametrize("p", [1, 2, 3])
def test_torsion_norm_against_evaluation_oracle(p):
    from qhg.connections import canonical_torsion

    alg = algebra.build(p)
    t = canonical_torsion(alg)
    expected = (Scalar(6 * p) + Scalar(16)) * LAM * LAM
    assert eval_norm_squared(t) == expected
    assert form_inner(t, t) == expected
    # third route: t ^ *t is the norm times the volume form
    assert wedge(t, hodge_star(t)) == volume_form(alg.dim).scale(expected)


# -- 2-form / endomorphism identification ---------------------------------------


def test_two_form_endo_rotation():
    n = 7
    a = KForm.basis(n, (3, 4))
    e = two_form_endo(a)
    assert e.apply(Vector.basis(n, 3)) == Vector.basis(n, 4)
    assert e.apply(Vector.basis(n, 4)) == -Vector.basis(n, 3).scale(1)
    assert e.is_skew()


def test_su2_generator_acts_on_vertical():
    from qhg.connections import su2_generators

    alg = algebra.build(1)
    h1 = two_form_endo(su2_generators(alg)[0])
    assert h1.apply(alg.xi(2)) == alg.xi(3).scale(2)


def test_round_trip_random():
    rng = random.Random(10)
    n = 7
    for _ in range(20):
        a = random_form(rng, n, 2)
        assert endo_two_form(two_form_endo(a)) == a


def test_endo_two_form_rejects_non_skew():
    with pytest.raises(ValueError):
        endo_two_form(Endo.identity(3))


def test_two_form_endo_matches_interior():
    rng = random.Random(12)
    n = 7
    a = random_form(rng, n, 2)
    e = two_form_endo(a)
    for i in range(n):
        x = Vector.basis(n, i)
        assert dual(e.apply(x)) == interior(x, a)


# -- evaluation convention --------------------------------------------------------


def test_evaluation_is_alternating_determinant():
    n = 5
    a = KForm.basis(n, (0, 1, 2))
    vs = [Vector.basis(n, i) for i in (0, 1, 2)]
    assert a.evaluate(*vs) == ONE
    for perm in permutations(range(3)):
        sign = Scalar(1)
        lst = list(perm)
        for i in range(3):
            for j in range(i + 1, 3):
                if lst[i] > lst[j]:
                    sign = -sign
        assert a.evaluate(*[vs[i] for i in perm]) == sign


# -- the sparse Vector contract ----------------------------------------------


def test_sparse_vector_iterates_densely():
    v = Vector([0, LAM, 0, 0])
    assert v.dim == 4
    assert list(v) == [ZERO, LAM, ZERO, ZERO]  # trailing zeros included
    assert Vector([0, 0, 0]) == Vector.zero(3)
    assert Vector([0, 0, 0]) != Vector.zero(2)
    assert Vector([]).dim == 0 and list(Vector([])) == []
    assert Vector(c for c in (0, 1, 0)) == Vector.basis(3, 1)
    for i in (0, 2, 3, -1, -4):
        assert v[i] == ZERO and v[i].is_zero()
    assert v[1] == LAM and v[-3] == LAM
    with pytest.raises(IndexError):
        v[4]
    with pytest.raises(IndexError):
        v[-5]


def test_sparse_vector_matches_dense_definitions():
    rng = random.Random(23)
    n = 6
    for _ in range(40):
        d = rng.randint(0, 1)  # x and y of one degree, so that they add
        x, y = (Vector([rng.randint(-2, 2) * LAM**d for _ in range(n)]) for _ in range(2))
        dx, dy = list(x), list(y)
        assert len(dx) == n
        dot = ZERO
        for a, b in zip(dx, dy):
            dot = dot + a * b
        assert x.dot(y) == dot
        assert dual(x) == KForm(n, 1, {(i,): c for i, c in enumerate(dx)})
        assert list(x + y) == [a + b for a, b in zip(dx, dy)]
        assert list(x - y) == [a - b for a, b in zip(dx, dy)]
        assert list(-x) == [-a for a in dx]
        assert list(x.scale(LAM)) == [LAM * a for a in dx]
        assert x.scale(0) == Vector.zero(n)
        assert x.is_zero() == all(a.is_zero() for a in dx)
        e = Endo(n, {(rng.randrange(n), rng.randrange(n)): rng.randint(-2, 2) for _ in range(8)})
        applied = [ZERO] * n
        for r in range(n):
            for c in range(n):
                applied[r] = applied[r] + e.entry(r, c) * dx[c]
        assert list(e.apply(x)) == applied
        for c in range(n):
            assert list(e.column(c)) == [e.entry(r, c) for r in range(n)]


@pytest.mark.parametrize(
    "op",
    [
        lambda x, y: x + y,
        lambda x, y: x - y,
        lambda x, y: x.dot(y),
        lambda x, y: Endo.identity(x.dim).apply(y),
    ],
    ids=["add", "sub", "dot", "endo-apply"],
)
def test_vector_dimension_mismatch_raises(op):
    # equal supports, different dimensions
    x, y = Vector([1, 0, 0]), Vector([1, 0])
    for a, b in ((x, y), (y, x)):
        with pytest.raises(ValueError):
            op(a, b)


@pytest.mark.parametrize(
    "op",
    [lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a.compose(b), lambda a, b: a.commutator(b)],
    ids=["add", "sub", "compose", "commutator"],
)
def test_endo_dimension_mismatch_raises(op):
    # unchecked, identity(3) + identity(5) is a dim-3 Endo with entries at (3, 3) and (4, 4)
    small, large = Endo.identity(3), Endo.identity(5)
    for a, b in ((small, large), (large, small), (Endo.zero(3), large)):
        with pytest.raises(ValueError, match="dimension mismatch"):
            op(a, b)
    assert op(small, Endo.identity(3)).dim == 3


def test_basis_vector_rejects_an_out_of_range_index():
    for bad in (-1, 7, 12):
        with pytest.raises(IndexError, match=rf"basis index {bad} outside \[0, 7\)"):
            Vector.basis(7, bad)
    with pytest.raises(IndexError):
        algebra.build(1).basis_vector(12)
    assert Vector.basis(7, 0)[0] == ONE and Vector.basis(7, 6)[6] == ONE


def test_constructors_reject_indices_outside_the_frame():
    for bad, entries in ((5, {(5, 0): 1}), (-1, {(0, -1): 1}), (3, {(1, 3): ZERO})):
        with pytest.raises(IndexError, match=rf"^index {bad} outside \[0, 3\)$"):
            Endo(3, entries)
    # unchecked, KForm(3, 1, {(7,): 1}) wedged with e[9] gave e[7, 9] in dimension 3
    for bad, comps in ((7, {(7,): 1}), (9, {(9,): LAM}), (-2, {(-2,): 1})):
        with pytest.raises(IndexError, match=rf"^index {bad} outside \[0, 3\)$"):
            KForm(3, 1, comps)
    with pytest.raises(IndexError, match=r"^index 3 outside \[0, 3\)$"):
        KForm.basis(3, (0, 3))
    assert Endo(3, {(2, 0): 1, (0, 2): 0}).comps == {(2, 0): ONE}
    assert KForm(3, 2, {(2, 0): 1}) == KForm.basis(3, (0, 2)).scale(-1)


_E7 = Endo.identity(7)
_F2 = KForm.basis(7, (0, 1))


@pytest.mark.parametrize(
    "read, error, message",
    [
        (lambda: _E7.entry(7, 0), IndexError, r"^index 7 outside \[0, 7\)$"),
        (lambda: _E7.entry(-1, 0), IndexError, r"^index -1 outside \[0, 7\)$"),
        (lambda: _E7.entry(0, 9), IndexError, r"^index 9 outside \[0, 7\)$"),
        (lambda: _E7.column(9), IndexError, r"^index 9 outside \[0, 7\)$"),
        (lambda: _F2.coeff((0, 9)), IndexError, r"^index 9 outside \[0, 7\)$"),
        (lambda: _F2.coeff((0,)), ValueError, r"wrong length for degree 2"),
        (lambda: _F2.coeff((0, 1, 2)), ValueError, r"wrong length for degree 2"),
    ],
    ids=["entry-row", "entry-negative", "entry-column", "column", "coeff-index", "coeff-short",
         "coeff-long"],
)
def test_readers_reject_unchecked_indices(read, error, message):
    # unchecked, each of these read as zero
    with pytest.raises(error, match=message):
        read()
    # in range, the same readers still answer
    assert _E7.entry(6, 6) == ONE and _E7.column(6) == Vector.basis(7, 6)
    assert _F2.coeff((1, 0)) == -ONE and _F2.coeff((1, 1)) == ZERO


def test_linear_operations_need_one_class_dimension_and_degree():
    """The shared linear operations of Vector, KForm and Endo."""
    one, two = KForm.basis(3, (0,)), KForm.basis(3, (0, 1))
    for op in (lambda a, b: a + b, lambda a, b: a - b):
        with pytest.raises(ValueError, match=r"^degree mismatch: 1 vs 2$"):
            op(one, two)
        with pytest.raises(TypeError, match=r"^expected a Vector, got Endo$"):
            op(Vector.zero(3), Endo.zero(3))
    with pytest.raises(ValueError, match="degree mismatch"):
        form_inner(one, two)
    # equal dimension and equal (empty) parts, yet never equal across classes or degrees
    zeros = [Vector.zero(3), Endo.zero(3), KForm.zero(3, 1), KForm.zero(3, 2)]
    for a in zeros:
        assert [a == b for b in zeros] == [a is b for b in zeros]
    assert Vector.basis(3, 0) != Endo.identity(3) and dual(Vector.basis(3, 0)) == one
    assert one.scale(LAM) + one.scale(-LAM) == KForm.zero(3, 1) and -two == two.scale(-1)


def test_endo_negation_and_subtraction():
    a = Endo(3, {(0, 1): LAM, (1, 0): -LAM, (2, 2): LAM * 3})
    b = Endo(3, {(0, 1): LAM, (2, 0): LAM})
    assert -a == a.scale(-1)
    assert a - b == a + b.scale(-1)
    assert (a - a).is_zero() and (a - a).comps == {}
    assert (a - b).comps == {(1, 0): -LAM, (2, 2): LAM * 3, (2, 0): -LAM}


@pytest.mark.parametrize("k", range(6))
def test_sort_tuple_is_the_sign_of_the_sorting_permutation(k):
    # every k-tuple over k + 1 indices: a repeat gives (0, ()), else the sorted
    # tuple and (-1)^(k - number of cycles) of the permutation that sorts it
    for idx in product(range(k + 1), repeat=k):
        if len(set(idx)) < k:
            assert _sort_tuple(idx) == (0, ())
            continue
        perm = sorted(range(k), key=idx.__getitem__)
        cycles, seen = 0, set()
        for start in range(k):
            cycles += start not in seen
            while start not in seen:
                seen.add(start)
                start = perm[start]
        assert _sort_tuple(idx) == ((-1) ** (k - cycles), tuple(sorted(idx)))
