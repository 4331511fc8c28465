import random
from fractions import Fraction

import pytest

from qhg import algebra, clifford as cl, connections as cn, g2
from qhg.exterior import (
    KForm,
    Vector,
    ce_differential,
    form_inner,
    hodge_star,
    interior,
    two_form_endo,
    wedge,
)
from qhg.linalg import rref
from qhg.scalars import LAM, ONE, Scalar
from support import integer_part


@pytest.fixture(scope="module")
def alg():
    return algebra.build(1)


@pytest.fixture(scope="module")
def omega(alg):
    return g2.build_omega(alg)


@pytest.fixture(scope="module")
def split(alg):
    return g2.parallel_spinor(alg, cn.canonical_connection(alg))


def test_omega_components(alg, omega):
    assert omega.coeff((0, 3, 4)) == Scalar(-1)  # eta_1 ^ th_12
    assert omega.coeff((0, 1, 2)) == ONE  # eta_123
    assert omega.coeff((1, 4, 6)) == ONE  # eta_2 ^ th_42 read as -th_24
    assert len(omega.comps) == 7


def test_omega_needs_p1():
    with pytest.raises(ValueError):
        g2.build_omega(algebra.build(2))


def test_torsion_relation(alg, omega):
    eta123 = KForm.basis(7, (0, 1, 2))
    assert cn.canonical_torsion(alg) == (omega - eta123.scale(5)).scale(LAM)


def test_cocalibrated(alg, omega):
    assert g2.cocalibrated_check(alg, omega)


def test_cocalibration_fails_for_perturbation(alg, omega):
    perturbed = omega + wedge(wedge(alg.theta(1), alg.theta(2)), alg.theta(3))
    assert not g2.cocalibrated_check(alg, perturbed)


def test_abelianized_algebra_everything_cocalibrated(omega):
    flat_alg = algebra.QHAlgebra(1, LAM, {})
    assert g2.cocalibrated_check(flat_alg, omega)


def test_characteristic_torsion_reproduces_canonical(alg, omega):
    assert g2.characteristic_torsion(alg, omega) == cn.canonical_torsion(alg)


def test_pairing_value(alg, omega):
    # frozen intermediate of the characteristic-torsion formula
    pairing = form_inner(ce_differential(omega, alg), hodge_star(omega))
    assert pairing == LAM * 12


def test_genericity(alg, omega):
    assert g2.genericity_check(alg, omega)
    degenerate = wedge(wedge(alg.theta(1), alg.theta(2)), alg.theta(3))
    assert not g2.genericity_check(alg, degenerate)


def test_readings_at_one_reject_a_mixed_degree_input(alg, omega, split):
    """genericity, parallel_spinor and splitting_dimensions read l = 1 only after
    certifying that their input is homogeneous in l; a mixed degree raises at its index."""
    bump = wedge(wedge(alg.theta(1), alg.theta(2)), alg.theta(3))
    with pytest.raises(ArithmeticError, match=r"^Hitchin form at index \(\d, \d\): "):
        g2.genericity_check(alg, omega + bump.scale(LAM))
    assert g2.genericity_check(alg, omega.scale(LAM))  # degree 3, definite at every l
    can = cn.canonical_connection(alg)
    tilt = two_form_endo(wedge(alg.theta(1), alg.theta(2)))
    mixed = cn.Connection([can.form(0) + tilt] + can.omega[1:])
    with pytest.raises(ArithmeticError, match=r"^lifted connection form 0 at index \(\d, \d\): "):
        g2.parallel_spinor(alg, mixed)
    bad = g2.SpinorSplitting(split.psi0, [split.vertical[0].scale(LAM + 1)], split.horizontal)
    with pytest.raises(ArithmeticError, match=r"^spinor at index \d: .* is not a monomial"):
        g2.splitting_dimensions(bad)


def _rat_matrix(rows):
    return [[Fraction(x) for x in row] for row in rows]


def _int_rows(m):
    """The rows of a rational matrix scaled to integers, which keeps the
    sign of every leading minor."""
    return [integer_part(dict(enumerate(row)))[1] for row in m]


def _det(m):
    if not m:
        return Fraction(1)
    return sum(
        (-1) ** j * m[0][j] * _det([row[:j] + row[j + 1 :] for row in m[1:]])
        for j in range(len(m))
        if m[0][j]
    )


def test_positive_definite_reads_the_leading_minors():
    assert g2._positive_definite(_int_rows(_rat_matrix([[2, 1, 0], [1, 2, 1], [0, 1, 2]])))
    # det(M_2) = 0, but row 1 reduced against row 0 is (0, 0, 1): its pivot
    # is positive and sits in column 2, so a pivot-sign test would pass it
    trap = _rat_matrix([[1, 1, 0], [1, 1, 1], [0, 1, 1]])
    assert _det([row[:2] for row in trap[:2]]) == 0
    assert rref(_int_rows(trap[:2]), 3) == ([(1, {0: 1, 1: 1}), (1, {2: 1})], [0, 2])
    assert not g2._positive_definite(_int_rows(trap))
    assert not g2._positive_definite(_int_rows(_rat_matrix([[1, 2], [2, 1]])))  # indefinite
    negative_definite = _rat_matrix([[-2, 1], [1, -3]])
    assert not g2._positive_definite(_int_rows(negative_definite))
    # rational entries: [[1/2, 1/3], [1/3, 1/4]] has minors 1/2 and 1/72
    assert g2._positive_definite(_int_rows([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 3), Fraction(1, 4)]]))


def test_positive_definite_agrees_with_sylvester():
    rng = random.Random(11)
    seen = set()
    for _ in range(300):
        n = rng.randint(1, 4)
        a = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        gram = [
            [sum(a[k][i] * a[k][j] for k in range(n)) for j in range(n)] for i in range(n)
        ]
        for i in range(n):
            gram[i][i] -= rng.choice((0, 0, 1))
        m = _rat_matrix(gram)
        minors = [_det([row[:k] for row in m[:k]]) for k in range(1, n + 1)]
        expected = all(d > 0 for d in minors)
        seen.add(expected)
        assert g2._positive_definite(_int_rows(m)) == expected
    assert seen == {True, False}


def test_hitchin_form_symmetric(alg, omega):
    b = g2.hitchin_form(alg, omega)
    for i in range(7):
        for j in range(7):
            assert b[i][j] == b[j][i]


# -- parallel spinor ------------------------------------------------------------


def test_parallel_spinor_dimensions(split):
    assert g2.splitting_dimensions(split) == (1, 3, 4)
    assert g2.splitting_orthogonal(split)
    norm = split.psi0.dot(split.psi0)
    assert norm == ONE  # unit after primitive normalization here


def test_psi0_killed_by_lifted_generators(alg, split):
    from qhg.exterior import two_form_endo

    for f in cn.su2_generators(alg):
        assert cl.spin_lift(two_form_endo(f)).apply(split.psi0).is_zero()


def test_parallel_spinor_aborts_on_wrong_connection(alg):
    with pytest.raises(ArithmeticError):
        g2.parallel_spinor(alg, cn.levi_civita(alg))


def test_torsion_spectrum(alg, split):
    t = cn.canonical_torsion(alg)
    spectrum = g2.torsion_spectrum(alg, t, split)
    assert spectrum["psi0"] == LAM * -2
    assert spectrum["vertical"] == LAM * 6
    assert spectrum["horizontal"] == LAM * -4
    assert spectrum["multiplicities"] == (1, 3, 4)
    # any 3-form acts tracelessly on the spin module in dimension 7
    assert spectrum["trace"] == Scalar(0)


def test_spectrum_examples(alg, split):
    t = cn.canonical_torsion(alg)
    tm = cl.clifford_matrix(t)
    psi = split.psi0
    assert tm.apply(psi) == psi.scale(LAM * -2)
    tau1_psi = cl.vector_action(alg.tau(1), psi)
    assert tm.apply(tau1_psi) == tau1_psi.scale(LAM * -4)
    xi1_psi = cl.vector_action(alg.xi(1), psi)
    assert tm.apply(xi1_psi) == xi1_psi.scale(LAM * 6)


# -- generalized Killing spinors --------------------------------------------------


def test_killing_psi0(alg, split):
    values = g2.generalized_killing_check(alg, split.psi0)
    half = LAM * Fraction(1, 2)
    for i in alg.vertical_indices:
        assert values[i] == half
    for i in alg.horizontal_indices:
        assert values[i] == LAM * Fraction(-3, 4)


def test_killing_translates(alg, split):
    half = LAM * Fraction(1, 2)
    quarter = LAM * Fraction(1, 4)
    for i in (1, 2, 3):
        psi_i = cl.vector_action(alg.xi(i), split.psi0)
        values = g2.generalized_killing_check(alg, psi_i)
        assert values[i - 1] == half
        for j in (1, 2, 3):
            if j != i:
                assert values[j - 1] == -half
        for idx in alg.horizontal_indices:
            assert values[idx] == quarter
        assert len({str(v) for v in values}) == 3


def test_random_spinor_not_generalized_killing(alg):
    rng = random.Random(71)
    s = Vector([Scalar(Fraction(rng.randint(1, 9))) for _ in range(8)])
    values = g2.generalized_killing_check(alg, s)
    assert any(v is None for v in values)


def test_both_routes_to_killing_equation(alg, split):
    t = cn.canonical_torsion(alg)
    lc = cn.levi_civita(alg)
    for i in range(7):
        lhs = cl.spin_lift(lc.form(i)).apply(split.psi0)
        rhs = (
            cl.clifford_matrix(interior(alg.basis_vector(i), t))
            .apply(split.psi0)
            .scale(Fraction(-1, 4))
        )
        assert lhs == rhs


def test_proof_identities(alg, split):
    assert g2.proof_identities_check(alg, split)
    # explicit instance with the computed sign: (tau_1 . d eta_1) psi0 = -lam tau_1 xi_1 psi0
    d_eta = ce_differential(alg.eta(1), alg)
    lhs = cl.clifford_matrix(interior(alg.tau(1), d_eta)).apply(split.psi0)
    rhs = cl.vector_action(
        alg.tau(1), cl.vector_action(alg.xi(1), split.psi0)
    ).scale(-LAM)
    assert lhs == rhs
    # vertical contractions vanish outright
    assert interior(alg.xi(2), d_eta).is_zero()


def test_vertical_vectors_anticommute_as_clifford_elements(alg, split):
    g = cl.gamma()
    for i in range(3):
        for j in range(3):
            if i != j:
                lhs = g[i].compose(g[j])
                rhs = g[j].compose(g[i]).scale(-1)
                assert lhs == rhs


def test_report_spinor_verdicts_and_their_negative_controls(alg, split):
    """The verdicts the report reads, with inputs that must make each one fail."""
    t = cn.canonical_torsion(alg)
    assert g2.generalized_killing_check(alg, split.psi0) == g2.invariant_killing_values(alg)
    assert g2.generalized_killing_check(alg, split.vertical[0]) != g2.invariant_killing_values(alg)
    ok, horizontal = g2.translate_killing_check(alg, split.psi0)
    assert ok and horizontal == {str(LAM * Fraction(1, 4))}
    rng = random.Random(72)
    s = Vector([Scalar(Fraction(rng.randint(1, 9))) for _ in range(8)])
    assert not g2.translate_killing_check(alg, s)[0]
    assert g2.killing_via_torsion_check(alg, t, split.psi0)
    assert not g2.killing_via_torsion_check(alg, t.scale(2), split.psi0)
