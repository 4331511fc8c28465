import pytest
from fractions import Fraction

from qhg import algebra, cone, connections as cn, contact as ct
from qhg.exterior import KForm, wedge
from qhg.scalars import LAM, Scalar


@pytest.fixture(scope="module")
def alg():
    return algebra.build(1)


def test_cone_constant_is_the_metric_parameter(alg):
    crit = cone.cone_constant(alg)
    assert crit.constant == LAM


def test_common_tensor(alg):
    crit = cone.cone_constant(alg)
    from qhg.exterior import KForm, ce_differential

    expected = KForm.zero(alg.dim, 3)
    for j in (1, 2, 3):
        expected = expected - wedge(alg.eta(j), ce_differential(alg.eta(j), alg))
    eta123 = wedge(wedge(alg.eta(1), alg.eta(2)), alg.eta(3))
    expected = expected + eta123.scale(LAM * 2)
    assert crit.common == expected


def test_forced_constant_leaves_residual(alg):
    residuals = cone.coincidence_residuals(alg, LAM * 2)
    assert any(not r.is_zero() for r in residuals)
    # while the true constant clears every residual
    assert all(r.is_zero() for r in cone.coincidence_residuals(alg, LAM))


def test_opposite_convention_flips_sign(alg):
    crit = cone.cone_constant(alg, opposite_convention=True)
    assert crit.constant == -LAM


def test_torsions_recomputed_from_connections(alg):
    crit = cone.cone_constant(alg)
    for i in (1, 2, 3):
        assert crit.torsions[i - 1] == ct.contact_characteristic_torsion(alg, i)
        assert crit.torsions[i - 1] == cn.Geometry(
            alg, ct.characteristic_connection(alg, i)
        ).torsion_form


def test_a_characteristic_torsion_that_is_not_skew_is_named(monkeypatch):
    characteristic = ct.characteristic_connection
    monkeypatch.setattr(
        cone, "characteristic_connection",
        lambda alg, i: cn.flat_connection(alg) if i == 2 else characteristic(alg, i),
    )
    # a fresh algebra: the terms are memoized per algebra
    with pytest.raises(ValueError, match=r"^torsion of characteristic connection 2 is not totally skew$"):
        cone.cone_constant(algebra.build(1))


def test_requires_p1():
    with pytest.raises(ValueError):
        cone.cone_constant(algebra.build(2))


def test_specialized_parameter():
    alg2 = algebra.build(1, Fraction(5, 2))
    crit = cone.cone_constant(alg2)
    assert crit.constant == Scalar(Fraction(5, 2))


def test_equal_mixed_terms_are_degenerate(monkeypatch):
    """All eta_i ^ F_i equal: no entry constrains a, and the solve names it."""
    alg = algebra.build(1)
    torsions, mixed = cone._characteristic_terms(alg)
    monkeypatch.setattr(cone, "_characteristic_terms", lambda a: (torsions, (mixed[0],) * 3))
    with pytest.raises(ArithmeticError, match=r"^coincidence system is degenerate \(no constraint on a\)$"):
        cone.cone_constant(alg)


def test_a_torsion_bumped_off_the_mixed_terms_is_rejected(monkeypatch):
    """T_1 bumped at e^{345}, which no eta_i ^ F_i reaches: the candidate is still
    read on the mixed entries, and the residual check rejects it."""
    alg = algebra.build(1)
    torsions, mixed = cone._characteristic_terms(alg)
    assert all(m.coeff((3, 4, 5)) == 0 for m in mixed)
    bumped = (torsions[0] + KForm.basis(alg.dim, (3, 4, 5)).scale(LAM), *torsions[1:])
    monkeypatch.setattr(cone, "_characteristic_terms", lambda a: (bumped, mixed))
    with pytest.raises(ArithmeticError, match=r"^candidate does not make the three tensors coincide$"):
        cone.cone_constant(alg)
