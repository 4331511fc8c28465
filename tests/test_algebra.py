import random
from fractions import Fraction

import pytest

from qhg import algebra
from qhg.exterior import KForm, Vector, ce_differential, wedge
from qhg.scalars import LAM, Scalar


def test_build_rejects_bad_p():
    with pytest.raises(ValueError):
        algebra.build(0)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_dimensions(p):
    alg = algebra.build(p)
    assert alg.dim == 4 * p + 3
    assert algebra.center_dimension(alg) == 3


def test_commutator_table_p1():
    alg = algebra.build(1)
    assert alg.bracket(alg.tau(1), alg.tau(2)) == alg.xi(1).scale(LAM)
    assert alg.bracket(alg.tau(3), alg.tau(4)) == alg.xi(1).scale(LAM)
    assert alg.bracket(alg.tau(1), alg.tau(3)) == alg.xi(2).scale(LAM)
    assert alg.bracket(alg.tau(4), alg.tau(2)) == alg.xi(2).scale(LAM)
    assert alg.bracket(alg.tau(1), alg.tau(4)) == alg.xi(3).scale(LAM)
    assert alg.bracket(alg.tau(2), alg.tau(3)) == alg.xi(3).scale(LAM)


def test_mismatched_copies_commute():
    alg = algebra.build(2)
    # tau_1 sits in the first quaternion copy, tau_6 = tau_{2p+2} in the second
    assert alg.bracket(alg.tau(1), alg.tau(6)).is_zero()


def test_center_annihilates():
    alg = algebra.build(2)
    for i in (1, 2, 3):
        for k in range(alg.dim):
            assert alg.bracket(alg.xi(i), alg.basis_vector(k)).is_zero()


def test_bracket_antisymmetry_and_center_values():
    rng = random.Random(21)
    alg = algebra.build(2)
    for _ in range(15):
        x = Vector([Scalar(Fraction(rng.randint(-3, 3))) for _ in range(alg.dim)])
        y = Vector([Scalar(Fraction(rng.randint(-3, 3))) for _ in range(alg.dim)])
        b = alg.bracket(x, y)
        assert alg.bracket(x, x).is_zero()
        assert b == -alg.bracket(y, x)
        assert all(b[k].is_zero() for k in alg.horizontal_indices)


def test_type_h_quaternion_multiplication():
    """<[x,y], xi_a> = lam <L_a x, y> with L_a the unit left multiplication."""
    rng = random.Random(22)
    for p in (1, 2):
        alg = algebra.build(p)
        actions = [algebra.quaternion_action(alg, a) for a in (1, 2, 3)]
        for _ in range(12):
            x = Vector([Scalar(Fraction(rng.randint(-2, 2))) for _ in range(alg.dim)])
            y = Vector([Scalar(Fraction(rng.randint(-2, 2))) for _ in range(alg.dim)])
            b = alg.bracket(x, y)
            for a in (1, 2, 3):
                assert b[a - 1] == alg.lam * actions[a - 1].apply(x).dot(y)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_jacobi(p):
    ok, witness = algebra.jacobi_check(algebra.build(p))
    assert ok and witness is None


def test_jacobi_mutated_structure_fails():
    alg = algebra.build(1)
    bad = dict(alg._sc)
    # inject a horizontal value into [tau_1, tau_2]
    key = (3, 4)
    bad[key] = bad[key] + alg.tau(3).scale(LAM)
    mutated = algebra.QHAlgebra(1, alg.lam, bad)
    ok, witness = algebra.jacobi_check(mutated)
    assert not ok
    assert witness is not None
    i, j, k = witness
    total = (
        mutated.bracket(mutated.bracket_basis(i, j), mutated.basis_vector(k))
        + mutated.bracket(mutated.bracket_basis(j, k), mutated.basis_vector(i))
        + mutated.bracket(mutated.bracket_basis(k, i), mutated.basis_vector(j))
    )
    assert not total.is_zero()


def test_center_is_the_exact_nullspace_of_ad():
    """[e3, e5] = lam e5 and [e4, e5] = -lam e5: e3 + e4 is central, e3 and e4 are not."""
    e5 = Vector.basis(7, 5).scale(LAM)
    alg = algebra.QHAlgebra(1, LAM, {(3, 5): e5, (4, 5): -e5})
    assert algebra.jacobi_check(alg) == (True, None)
    assert alg.bracket(alg.basis_vector(3) + alg.basis_vector(4), alg.basis_vector(5)).is_zero()
    # e0, e1, e2, e6 and e3 + e4; counting central basis vectors gives 4
    assert algebra.center_dimension(alg) == 5


def test_structure_constants_on_a_non_nilpotent_table():
    """sl(2): [h, e] = 2e, [h, f] = -2f, [e, f] = h; Jacobi holds, center is 0."""
    h, e, f = (Vector.basis(3, i) for i in range(3))
    sl2 = algebra.StructureConstants(3, {(0, 1): e.scale(2), (0, 2): f.scale(-2), (1, 2): h})
    assert sl2.bracket(e, h) == e.scale(-2)
    assert algebra.jacobi_check(sl2) == (True, None)
    assert algebra.center_dimension(sl2) == 0
    broken = algebra.StructureConstants(3, {(0, 1): e.scale(2), (0, 2): f.scale(-2), (1, 2): e})
    assert algebra.jacobi_check(broken) == (False, (0, 1, 2))


def test_two_step_nilpotent():
    alg = algebra.build(2)
    n = alg.dim
    for i in range(n):
        for j in range(n):
            bij = alg.bracket_basis(i, j)
            for k in range(n):
                assert alg.bracket(bij, alg.basis_vector(k)).is_zero()


@pytest.mark.parametrize("p", [1, 2, 3])
def test_d_eta_closed_form(p):
    alg = algebra.build(p)
    for i in (1, 2, 3):
        j, k = (i % 3) + 1, ((i + 1) % 3) + 1
        expected = KForm.zero(alg.dim, 2)
        for r in range(1, p + 1):
            expected = expected + wedge(alg.theta(r), alg.theta(i * p + r))
            expected = expected + wedge(alg.theta(j * p + r), alg.theta(k * p + r))
        assert ce_differential(alg.eta(i), alg) == expected.scale(-LAM)


def test_d_eta_p1_explicit():
    alg = algebra.build(1)
    th = alg.theta
    assert ce_differential(alg.eta(1), alg) == (
        wedge(th(1), th(2)) + wedge(th(3), th(4))
    ).scale(-LAM)
    assert ce_differential(alg.eta(2), alg) == (
        wedge(th(1), th(3)) - wedge(th(2), th(4))
    ).scale(-LAM)
    assert ce_differential(alg.eta(3), alg) == (
        wedge(th(1), th(4)) + wedge(th(2), th(3))
    ).scale(-LAM)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_d_theta_vanishes(p):
    alg = algebra.build(p)
    for l in range(1, 4 * p + 1):
        assert ce_differential(alg.theta(l), alg).is_zero()


@pytest.mark.parametrize("p", [1, 2, 3])
def test_d_squared_zero(p):
    from itertools import combinations

    alg = algebra.build(p)
    for i in range(alg.dim):
        one = KForm.basis(alg.dim, (i,))
        assert ce_differential(ce_differential(one, alg), alg).is_zero()
    if p == 1:
        for idx in combinations(range(alg.dim), 2):
            two = KForm.basis(alg.dim, idx)
            assert ce_differential(ce_differential(two, alg), alg).is_zero()


def test_specialized_parameter():
    alg = algebra.build(1, Fraction(3, 2))
    assert alg.bracket(alg.tau(1), alg.tau(2)) == alg.xi(1).scale(Fraction(3, 2))
    with pytest.raises(ValueError):
        algebra.build(1, Fraction(-1))
