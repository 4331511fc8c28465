import random
from fractions import Fraction

import pytest

from qhg import algebra, clifford as cl, connections as cn, g2
from qhg.exterior import (
    Endo,
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
from qhg.report import ReportConfig, run
from qhg.scalars import LAM, ONE, ZERO, Scalar
from support import executed_code, integer_part


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
    """genericity, parallel_spinor and splitting_dimensions read l = 1, which holds
    for every l > 0 as each input is one monomial in l: a mixed-degree input
    cannot be built, and its sum raises naming both degrees."""
    bump = wedge(wedge(alg.theta(1), alg.theta(2)), alg.theta(3))
    with pytest.raises(TypeError, match=r"^KForm sum: a term of degree 1 in l meets one of degree 0$"):
        omega + bump.scale(LAM)
    assert g2.genericity_check(alg, omega.scale(LAM))  # degree 3, definite at every l
    can = cn.canonical_connection(alg)
    tilt = two_form_endo(wedge(alg.theta(1), alg.theta(2)))
    with pytest.raises(TypeError, match=r"^Endo sum: a term of degree 0 in l meets one of degree 1$"):
        can.form(0) + tilt
    with pytest.raises(TypeError, match=r"^Scalar sum: a term of degree 0 in l meets one of degree 1$"):
        LAM + 1


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
    """B is symmetric by construction (2-forms commute); every entry matches
    the 49-entry oracle, on the generic 3-form, on one with a bumped entry
    and on a degenerate one."""
    bumped = omega + KForm.basis(7, (0, 1, 2))
    degenerate = wedge(wedge(alg.theta(1), alg.theta(2)), alg.theta(3))
    for form in (omega, bumped, degenerate):
        b = g2.hitchin_form(alg, form)
        assert b == hitchin_form_oracle(alg, form)
        assert all(b[i][j] == b[j][i] for i in range(7) for j in range(7))
    assert g2.hitchin_form(alg, bumped) != g2.hitchin_form(alg, omega)
    with pytest.raises(ValueError, match="needs a 3-form"):
        g2.hitchin_form(alg, KForm.basis(7, (0, 1)))


# -- parallel spinor ------------------------------------------------------------


def test_parallel_spinor_dimensions(split):
    assert g2.splitting_dimensions(split) == (1, 3, 4)
    assert g2.splitting_orthogonal(split)
    norm = split.psi0.dot(split.psi0)
    assert norm == ONE  # unit after primitive normalization here


def test_psi0_killed_by_lifted_generators(alg, split):
    from qhg.exterior import two_form_endo

    for f in cn.su2_generators(alg):
        assert cl.spin_lift(alg, two_form_endo(f)).apply(split.psi0).is_zero()


def test_parallel_spinor_aborts_on_wrong_connection(alg):
    with pytest.raises(ArithmeticError):
        g2.parallel_spinor(alg, cn.levi_civita(alg))


def test_torsion_spectrum(alg, split):
    t = cn.canonical_torsion(alg)
    spectrum = g2.torsion_spectrum(alg, t, split)
    assert spectrum["psi0"] == LAM * -2
    assert spectrum["vertical"] == LAM * 6
    assert spectrum["horizontal"] == LAM * -4
    # any 3-form acts tracelessly on the spin module in dimension 7
    assert spectrum["trace"] == Scalar(0)


def test_spectrum_examples(alg, split):
    t = cn.canonical_torsion(alg)
    tm = cl.clifford_matrix(alg, t)
    psi = split.psi0
    assert tm.apply(psi) == psi.scale(LAM * -2)
    tau1_psi = cl.vector_action(alg, alg.tau(1), psi)
    assert tm.apply(tau1_psi) == tau1_psi.scale(LAM * -4)
    xi1_psi = cl.vector_action(alg, alg.xi(1), psi)
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
        psi_i = cl.vector_action(alg, alg.xi(i), split.psi0)
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
        lhs = cl.spin_lift(alg, lc.form(i)).apply(split.psi0)
        rhs = (
            cl.clifford_matrix(alg, interior(alg.basis_vector(i), t))
            .apply(split.psi0)
            .scale(Fraction(-1, 4))
        )
        assert lhs == rhs


def test_proof_identities(alg, split):
    assert g2.proof_identities_check(alg, split)
    # explicit instance with the computed sign: (tau_1 . d eta_1) psi0 = -lam tau_1 xi_1 psi0
    d_eta = ce_differential(alg.eta(1), alg)
    lhs = cl.clifford_matrix(alg, interior(alg.tau(1), d_eta)).apply(split.psi0)
    rhs = cl.vector_action(alg, alg.tau(1), cl.vector_action(alg, alg.xi(1), split.psi0)).scale(-LAM)
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


# -- dense oracles: the entry-by-entry definitions the integer checks replaced ----


def eigen_ratio_oracle(image, v):
    """Scalar s with image = s*v, or None, read entry by entry."""
    s = None
    for a, b in zip(image, v):
        if not b.is_zero():
            s = a / b
            break
    if s is None:
        return None if not image.is_zero() else ZERO
    for a, b in zip(image, v):
        if not (a - s * b).is_zero():
            return None
    return s


def hitchin_form_oracle(alg, omega):
    """All 49 entries of B(X,Y) vol = (X . omega)^(Y . omega)^omega."""
    n = alg.dim
    top = tuple(range(n))
    rows = []
    for i in range(n):
        xi = interior(alg.basis_vector(i), omega)
        row = []
        for j in range(n):
            yj = interior(alg.basis_vector(j), omega)
            row.append(wedge(wedge(xi, yj), omega).coeff(top))
        rows.append(row)
    return rows


def proof_identities_oracle(alg, split):
    """The identities of `g2.proof_identities_check`, with a Clifford matrix
    per interior product."""
    lc, lifts = g2.levi_civita(alg), g2.levi_civita_lifts(alg)
    psi0 = split.psi0
    g = cl.gamma()
    for i in (1, 2, 3):
        d_eta = ce_differential(alg.eta(i), alg)
        xi_psi = cl.vector_action(alg, alg.xi(i), psi0)
        for idx in alg.horizontal_indices:
            x = alg.basis_vector(idx)
            lhs = cl.clifford_matrix(alg, interior(x, d_eta)).apply(psi0)
            rhs = g[idx].apply(xi_psi).scale(-alg.lam)
            if lhs != rhs:
                return False
        for idx in alg.vertical_indices:
            x = alg.basis_vector(idx)
            if not cl.clifford_matrix(alg, interior(x, d_eta)).apply(psi0).is_zero():
                return False
        for idx in range(alg.dim):
            direct = lifts[idx].apply(xi_psi)
            term1 = cl.vector_action(alg, lc.form(idx).apply(alg.xi(i)), psi0)
            term2 = cl.vector_action(alg, alg.xi(i), lifts[idx].apply(psi0))
            if direct != term1 + term2:
                return False
    return True


def killing_via_torsion_oracle(alg, t, psi0):
    """nabla^g_X psi0 = -(1/4)(X . t) psi0 with a Clifford matrix per direction."""
    lifts = g2.levi_civita_lifts(alg)
    return all(
        lifts[i].apply(psi0)
        == cl.clifford_matrix(alg, interior(alg.basis_vector(i), t)).apply(psi0).scale(Fraction(-1, 4))
        for i in range(alg.dim)
    )


def _random_spinor(seed):
    rng = random.Random(seed)
    return Vector([Scalar(Fraction(rng.randint(-9, 9))) for _ in range(8)])


def test_eigen_ratio_matches_the_oracle(alg, split):
    """Every (image, v) pair the p = 1 report forms, and mutated pairs: a
    spinor that is not an eigenvector, a divisor that is not a monomial and
    a zero v with a zero and with a nonzero image."""
    tm = cl.clifford_matrix(alg, cn.canonical_torsion(alg))
    lifts = g2.levi_civita_lifts(alg)
    spinors = [split.psi0, *split.vertical, *split.horizontal]
    pairs = [(tm.apply(v), v) for v in spinors]
    for psi in [split.psi0, *split.vertical]:
        pairs += [(lift.apply(psi), g.apply(psi)) for lift, g in zip(lifts, cl.gamma())]
    assert all(g2._eigen_ratio(*pair) is not None for pair in pairs[:8])
    s, zero = _random_spinor(73), Vector.zero(8)
    mutants = [
        (tm.apply(s), s),
        (lifts[3].apply(s), cl.gamma()[3].apply(s)),
        (split.psi0.scale(LAM), split.psi0.scale(LAM * 2)),
        (zero, zero),
        (split.psi0, zero),
        (zero, split.psi0),
    ]
    for image, v in pairs + mutants:
        assert g2._eigen_ratio(image, v) == eigen_ratio_oracle(image, v)
    assert [g2._eigen_ratio(*pair) for pair in mutants] == [None, None, Scalar(Fraction(1, 2)), ZERO, None, ZERO]


def test_p1_report_iterates_no_vector(monkeypatch):
    """The checks of a p = 1 report read no Vector entry by entry:
    `Vector.__iter__` never runs.  Negative control: the entry-by-entry
    oracle of `_eigen_ratio` iterates again."""

    def iterations():
        return executed_code(lambda: run(ReportConfig(p=1)))[Vector.__iter__.__code__]

    assert iterations() == 0
    monkeypatch.setattr(g2, "_eigen_ratio", eigen_ratio_oracle)
    assert iterations() > 0


def _seeded(lc, lifts):
    """A fresh p = 1 algebra whose memo holds the given Levi-Civita
    connection and spinor lifts."""
    alg = algebra.build(1)
    alg._derived[(cn.levi_civita.__wrapped__, ())] = lc
    alg._derived[(g2.levi_civita_lifts.__wrapped__, ())] = lifts
    return alg


def _negated_entry(g, key):
    """The generator g with its entry at key negated."""
    return Endo(8, {k: -v if k == key else v for k, v in g.comps.items()})


def _spinor_verdicts(alg, split, t):
    """(integer check, oracle) of the proof identities and of the Killing
    equation via torsion."""
    return [
        (g2.proof_identities_check(alg, split), proof_identities_oracle(alg, split)),
        (g2.killing_via_torsion_check(alg, t, split.psi0),
         killing_via_torsion_oracle(alg, t, split.psi0)),
    ]


def test_spinor_identities_match_the_oracles(alg, split):
    t = cn.canonical_torsion(alg)
    assert _spinor_verdicts(alg, split, t) == [(True, True), (True, True)]
    # a spinor that is not an eigenvector, and a doubled torsion
    moved = g2.SpinorSplitting(_random_spinor(74), split.vertical, split.horizontal)
    assert _spinor_verdicts(alg, moved, t) == [(False, False), (False, False)]
    assert _spinor_verdicts(alg, split, t.scale(2))[1] == (False, False)
    # one bumped skew pair, in column xi_1, of one Levi-Civita form, at its degree 1:
    # with its own lift the Leibniz rule still holds, with the old lift it fails
    lc = cn.levi_civita(alg)
    bump = Endo(7, {(3, 0): LAM, (0, 3): -LAM})
    bumped = cn.Connection([f + bump if x == 4 else f for x, f in enumerate(lc.omega)])
    own = _seeded(bumped, [cl.spin_lift(alg, f) for f in bumped.omega])
    assert _spinor_verdicts(own, split, t)[0] == (True, True)
    assert _spinor_verdicts(own, split, t)[1] == (False, False)
    old_lifts = _seeded(bumped, g2.levi_civita_lifts(alg))
    assert _spinor_verdicts(old_lifts, split, t)[0] == (False, False)


@pytest.mark.parametrize("generator", range(7))
def test_spinor_identities_match_the_oracles_with_a_negated_generator_entry(
    alg, split, generator, monkeypatch
):
    """Each of the 8 entries of the generator negated in turn; the
    generators, products and lifts of a fresh algebra are built with the
    mutated generators."""
    t, g = cn.canonical_torsion(alg), cl.gamma()
    for key in sorted(g[generator].comps):
        mutated = [_negated_entry(x, key) if i == generator else x for i, x in enumerate(g)]
        monkeypatch.setattr(cl, "gamma", lambda: mutated)
        for new, oracle in _spinor_verdicts(algebra.build(1), split, t):
            assert new == oracle
