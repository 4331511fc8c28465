import random
from fractions import Fraction

import pytest

from qhg import algebra, connections as cn
from qhg.exterior import (
    Endo,
    KForm,
    Vector,
    ce_differential,
    form_inner,
    interior,
    two_form_endo,
    wedge,
)
from qhg.scalars import LAM, Scalar


def koszul_oracle(alg):
    """Brute-force Koszul formula, independent of the library path."""
    n = alg.dim
    omegas = []
    for i in range(n):
        entries = {}
        for j in range(n):
            for k in range(n):
                val = (
                    alg.bracket(alg.basis_vector(i), alg.basis_vector(j)).dot(
                        alg.basis_vector(k)
                    )
                    - alg.bracket(alg.basis_vector(j), alg.basis_vector(k)).dot(
                        alg.basis_vector(i)
                    )
                    + alg.bracket(alg.basis_vector(k), alg.basis_vector(i)).dot(
                        alg.basis_vector(j)
                    )
                ) * Fraction(1, 2)
                if not val.is_zero():
                    entries[(k, j)] = val
        omegas.append(Endo(n, entries))
    return omegas


def test_levi_civita_against_koszul_oracle():
    alg = algebra.build(1)
    lc = cn.levi_civita(alg)
    for i, expected in enumerate(koszul_oracle(alg)):
        assert lc.form(i) == expected


def test_levi_civita_frozen_values():
    alg = algebra.build(1)
    lc = cn.levi_civita(alg)
    half = LAM * Fraction(1, 2)
    assert lc.form_of(alg.tau(1)).apply(alg.tau(2)) == alg.xi(1).scale(half)
    assert lc.form_of(alg.xi(1)).apply(alg.tau(1)) == alg.tau(2).scale(-half)


@pytest.mark.parametrize("p", [1, 2])
def test_killing_one_form_identity(p):
    alg = algebra.build(p)
    lc = cn.levi_civita(alg)
    for i in (1, 2, 3):
        d_eta = ce_differential(alg.eta(i), alg)
        for x in range(alg.dim):
            lhs = lc.form(x).apply(alg.xi(i)).dual()
            rhs = interior(alg.basis_vector(x), d_eta).scale(Fraction(1, 2))
            assert lhs == rhs


def test_with_torsion_zero_is_levi_civita():
    alg = algebra.build(1)
    lc = cn.levi_civita(alg)
    conn = cn.with_torsion(alg, KForm.zero(alg.dim, 3))
    assert all(conn.form(i) == lc.form(i) for i in range(alg.dim))


def test_with_torsion_rejects_wrong_degree():
    alg = algebra.build(1)
    with pytest.raises(ValueError):
        cn.with_torsion(alg, KForm.basis(alg.dim, (0, 1)))


def test_canonical_torsion_components():
    alg = algebra.build(1)
    t = cn.canonical_torsion(alg)
    assert t.coeff((0, 3, 4)) == -LAM  # eta_1 ^ theta_1 ^ theta_2
    assert t.coeff((0, 1, 2)) == LAM * -4


@pytest.mark.parametrize("p", [1, 2, 3])
def test_omega_map(p):
    alg = algebra.build(p)
    conn = cn.canonical_connection(alg)
    h = [two_form_endo(f) for f in cn.su2_generators(alg)]
    for l in alg.horizontal_indices:
        assert conn.form(l).is_zero()
    for i in (1, 2, 3):
        assert conn.form(i - 1) == h[i - 1].scale(-LAM)


def test_su2_generator_formula():
    alg = algebra.build(1)
    h1 = cn.su2_generators(alg)[0]
    d_eta = ce_differential(alg.eta(1), alg)
    expected = d_eta.scale(Scalar(-1) / LAM) + wedge(alg.eta(2), alg.eta(3)).scale(2)
    assert h1 == expected


@pytest.mark.parametrize("p", [1, 2, 3])
def test_su2_relations(p):
    alg = algebra.build(p)
    h = [two_form_endo(f) for f in cn.su2_generators(alg)]
    assert h[0].commutator(h[1]) == h[2].scale(2)
    assert h[2].commutator(h[0]) == h[1].scale(2)
    assert h[1].commutator(h[2]) == h[0].scale(2)


def test_wrong_third_generator_breaks_su2():
    # negative control: building the third generator from the first
    # differential (instead of the third) breaks the bracket relations
    alg = algebra.build(1)
    h = cn.su2_generators(alg)
    wrong = ce_differential(alg.eta(1), alg).scale(Scalar(-1) / LAM) + wedge(
        alg.eta(1), alg.eta(2)
    ).scale(2)
    h1, h2 = two_form_endo(h[0]), two_form_endo(h[1])
    h3_wrong = two_form_endo(wrong)
    assert h1.commutator(h2) != h3_wrong.scale(2)
    assert h1.commutator(h2) == two_form_endo(h[2]).scale(2)


def test_metricity():
    alg = algebra.build(2)
    for conn in (cn.levi_civita(alg), cn.canonical_connection(alg)):
        for i in range(alg.dim):
            assert conn.form(i).is_skew()


def test_torsion_round_trip():
    rng = random.Random(31)
    alg = algebra.build(1)
    from qhg.exterior import random_form

    for _ in range(5):
        t = random_form(rng, alg.dim, 3, density=0.3)
        conn = cn.with_torsion(alg, t)
        assert cn.torsion_is_skew(alg, conn)
        assert cn.torsion_form(alg, conn) == t


def test_curvature_values():
    alg = algebra.build(1)
    conn = cn.canonical_connection(alg)
    r = cn.curvature(alg, conn)
    h = [two_form_endo(f) for f in cn.su2_generators(alg)]
    lam2 = LAM * LAM
    assert r.endo(3, 4) == h[0].scale(lam2)  # R(tau_1, tau_2)
    assert r.endo(0, 1) == h[2].scale(lam2 * 2)  # R(xi_1, xi_2)


def test_abelian_curvature_vanishes():
    alg = algebra.QHAlgebra(1, LAM, {})  # all brackets zero
    lc = cn.levi_civita(alg)
    assert all(lc.form(i).is_zero() for i in range(alg.dim))
    assert cn.curvature(alg, lc).is_zero()


@pytest.mark.parametrize("p", [1, 2, 3])
def test_curvature_closed_form(p):
    alg = algebra.build(p)
    conn = cn.canonical_connection(alg)
    r = cn.curvature(alg, conn)
    h_forms = cn.su2_generators(alg)
    h = [two_form_endo(f) for f in h_forms]
    lam2 = LAM * LAM
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            expect = Endo.zero(alg.dim)
            for k in range(3):
                c = h_forms[k].coeff((i, j))
                if not c.is_zero():
                    expect = expect + h[k].scale(c)
            assert r.endo(i, j) == expect.scale(lam2)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_parallel_tensors(p):
    alg = algebra.build(p)
    conn = cn.canonical_connection(alg)
    t = cn.canonical_torsion(alg)
    assert cn.is_parallel(conn, t)
    assert cn.is_parallel(conn, cn.curvature(alg, conn))
    eta123 = wedge(wedge(alg.eta(1), alg.eta(2)), alg.eta(3))
    assert cn.is_parallel(conn, eta123)
    for r in range(1, p + 1):
        assert cn.is_parallel(conn, KForm.basis(alg.dim, alg.quaternionic_plane(r)))


def test_perturbed_torsion_not_parallel():
    alg = algebra.build(2)
    t = cn.canonical_torsion(alg) + wedge(
        wedge(alg.theta(4), alg.theta(5)), alg.theta(6)
    ).scale(LAM)
    conn = cn.with_torsion(alg, t)
    assert not cn.is_parallel(conn, t)
    ok, witness = cn.transvection_check(alg, conn)
    assert not ok and witness[0] == "torsion not parallel"


@pytest.mark.parametrize("p", [1, 2, 3])
def test_ricci_and_scalars(p):
    alg = algebra.build(p)
    conn = cn.canonical_connection(alg)
    ric = cn.ricci(alg, conn)
    lam2 = LAM * LAM
    for i in range(alg.dim):
        for j in range(alg.dim):
            if i != j:
                assert ric.entry(i, j).is_zero()
    for i in alg.vertical_indices:
        assert ric.entry(i, i) == lam2 * -8
    for i in alg.horizontal_indices:
        assert ric.entry(i, i) == lam2 * -3
    s_conn, s_g = cn.scalar_curvatures(alg, conn)
    assert s_conn == lam2 * (-12 * (p + 2))
    assert s_g == lam2 * (-3 * p)
    assert s_conn == ric.trace()
    t = cn.canonical_torsion(alg)
    assert s_g - s_conn == form_inner(t, t) * Fraction(3, 2)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_holonomy_su2(p):
    alg = algebra.build(p)
    conn = cn.canonical_connection(alg)
    hol = cn.holonomy(alg, conn)
    assert len(hol) == 3
    # closes into su(2): brackets stay inside the span
    from qhg.linalg import FractionSpan

    span = FractionSpan(alg.dim * alg.dim)
    for e in hol:
        flat = [Fraction(0)] * (alg.dim * alg.dim)
        for (r, c), v in e.m.items():
            flat[r * alg.dim + c] = v.rational_value()
        span.add(flat)
    for a in hol:
        for b in hol:
            c = a.commutator(b)
            flat = [Fraction(0)] * (alg.dim * alg.dim)
            for (r, cc), v in c.m.items():
                flat[r * alg.dim + cc] = v.rational_value()
            assert span.contains(flat)
    assert cn.vertical_action_irreducible(alg, hol)
    for r in range(1, p + 1):
        assert cn.invariant_subspace(hol, alg.quaternionic_plane(r))


def test_flat_connection_holonomy_empty():
    alg = algebra.build(1)
    flat = cn.flat_connection(alg)
    assert cn.holonomy(alg, flat) == []
    assert cn.curvature(alg, flat).is_zero()


@pytest.mark.parametrize("p", [1, 2])
def test_transvection(p):
    alg = algebra.build(p)
    conn = cn.canonical_connection(alg)
    ok, witness = cn.transvection_check(alg, conn)
    assert ok and witness is None


def test_transvection_rejects_non_skew_torsion():
    alg = algebra.build(1)
    ok, witness = cn.transvection_check(alg, cn.flat_connection(alg))
    assert not ok and witness == ("torsion not totally skew",)


def test_transvection_algebra_jacobi_negative_control():
    alg = algebra.build(1)
    table, witness = cn.transvection_algebra(alg, cn.canonical_connection(alg))
    assert witness is None and table.dim == 3 + alg.dim
    assert algebra.jacobi_check(table) == (True, None)
    # flip the sign of the hol component of [xi_1, xi_2]
    h = table.dim - alg.dim
    structure = dict(table._sc)
    v = structure[(h, h + 1)]
    assert any(not v[a].is_zero() for a in range(h))
    structure[(h, h + 1)] = Vector([-c if a < h else c for a, c in enumerate(v)])
    mutated = algebra.StructureConstants(table.dim, structure)
    ok, triple = algebra.jacobi_check(mutated)
    assert not ok
    x, y, z = (mutated.basis_vector(i) for i in triple)
    total = (
        mutated.bracket(mutated.bracket(x, y), z)
        + mutated.bracket(mutated.bracket(y, z), x)
        + mutated.bracket(mutated.bracket(z, x), y)
    )
    assert not total.is_zero()


def test_first_bianchi_p1():
    alg = algebra.build(1)
    conn = cn.canonical_connection(alg)
    assert cn.first_bianchi_check(alg, conn)


def test_first_bianchi_levi_civita():
    # torsion-free case: the identity degenerates to the cyclic sum vanishing
    alg = algebra.build(1)
    assert cn.first_bianchi_check(alg, cn.levi_civita(alg))


def test_reductivity_is_total_skewness():
    # the m-part of the rebuilt bracket is minus the torsion, so the
    # reductivity condition is exactly total skewness of the torsion
    alg = algebra.build(1)
    conn = cn.canonical_connection(alg)
    tor = cn.torsion_tensor(alg, conn)
    t3 = cn.torsion_form(alg, conn)
    for (i, j), v in tor.items():
        for k in range(alg.dim):
            assert v[k] == t3.coeff((i, j, k))


def _skew_unit(n, r, c):
    return Endo(n, {(r, c): 1, (c, r): -1})


def test_coordinate_reader_exact_coordinates():
    b0, b1 = _skew_unit(3, 0, 1), _skew_unit(3, 0, 2) + _skew_unit(3, 1, 2)
    read = cn._coordinate_reader([b0, b1], 3)
    x0 = LAM * 2
    x1 = LAM * LAM * 3 - LAM * Fraction(1, 2)  # two parameter powers
    assert read(b0.scale(x0) + b1.scale(x1)) == [x0, x1]
    assert read(Endo.zero(3)) == [Scalar(0), Scalar(0)]
    alg = algebra.build(1)
    hol = cn.holonomy(alg, cn.canonical_connection(alg))
    read = cn._coordinate_reader(hol, alg.dim)
    for a, e in enumerate(hol):
        assert read(e.scale(LAM)) == [LAM if b == a else Scalar(0) for b in range(3)]


def test_coordinate_reader_outside_span():
    b0, b1 = _skew_unit(3, 0, 1), _skew_unit(3, 0, 2) + _skew_unit(3, 1, 2)
    read = cn._coordinate_reader([b0, b1], 3)
    outside = _skew_unit(3, 1, 2)
    assert read(outside) is None
    # inside the span at lam^1, outside at lam^2
    assert read(b0.scale(LAM) + outside.scale(LAM * LAM)) is None
    assert cn._coordinate_reader([], 3)(outside) is None
    assert cn._coordinate_reader([], 3)(Endo.zero(3)) == []


def test_transvection_algebra_holonomy_witnesses(monkeypatch):
    from qhg.linalg import FractionSpan

    alg = algebra.build(1)
    conn = cn.canonical_connection(alg)
    hol = cn.holonomy(alg, conn)
    # su(2) has no 2-dim subalgebra, so two of its three basis elements
    # do not close under the bracket
    monkeypatch.setattr(cn, "holonomy", lambda alg, conn: hol[:2])
    assert cn.transvection_check(alg, conn) == (
        False,
        ("holonomy not closed under bracket", 0, 1),
    )
    monkeypatch.setattr(cn, "holonomy", lambda alg, conn: hol[:1])
    table, witness = cn.transvection_algebra(alg, conn)
    assert table is None and witness[0] == "curvature outside holonomy span"
    span = FractionSpan(alg.dim * alg.dim)
    span.add(cn._flatten(hol[0], Fraction(1)))
    r = cn.curvature(alg, conn).endo(*witness[1:])
    assert not span.contains(cn._flatten(r, Fraction(1)))
