import json
import random
from fractions import Fraction
from itertools import combinations

import pytest

from qhg import algebra, connections as cn
from qhg.algebra import StructureConstants
from qhg.exterior import (
    Endo,
    KForm,
    Vector,
    _endo,
    _rows,
    _sort_tuple,
    _vector,
    ce_differential,
    form_inner,
    interior,
    two_form_endo,
    wedge,
)
from qhg.linalg import Span
from qhg.scalars import LAM, ZERO, Scalar, accumulate, graded, homogeneous_part
from support import (
    code_of,
    dual,
    executed_code,
    form_of,
    integer_part,
    random_form,
    rational_value,
    span_contains,
    unexecuted,
)


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


def sl2():
    e, f, h = (Vector.basis(3, i) for i in range(3))
    return algebra.StructureConstants(3, {(0, 1): e.scale(2), (0, 2): f.scale(-2), (1, 2): h})


def test_levi_civita_against_koszul_oracle():
    alg = algebra.build(1)
    lc = cn.levi_civita(alg)
    for i, expected in enumerate(koszul_oracle(alg)):
        assert lc.form(i) == expected


@pytest.mark.parametrize("table", ["p2", "sl2"])
def test_levi_civita_against_koszul_oracle_beyond_p1(table):
    alg = algebra.build(2) if table == "p2" else sl2()
    lc = cn.levi_civita(alg)
    for i, expected in enumerate(koszul_oracle(alg)):
        assert lc.form(i) == expected


def test_levi_civita_frozen_values():
    alg = algebra.build(1)
    lc = cn.levi_civita(alg)
    half = LAM * Fraction(1, 2)
    assert form_of(lc, alg.tau(1)).apply(alg.tau(2)) == alg.xi(1).scale(half)
    assert form_of(lc, alg.xi(1)).apply(alg.tau(1)) == alg.tau(2).scale(-half)


def killing_one_forms_oracle(alg, lc):
    """nabla^g_X eta_i = (1/2) X . d eta_i compared 1-form by 1-form."""
    for i in (1, 2, 3):
        d_eta = ce_differential(alg.eta(i), alg)
        for x in range(alg.dim):
            lhs = dual(lc.form(x).apply(alg.xi(i)))
            if lhs != interior(alg.basis_vector(x), d_eta).scale(Fraction(1, 2)):
                return False
    return True


@pytest.mark.parametrize("p", [1, 2])
def test_killing_one_form_identity(p):
    alg = algebra.build(p)
    assert killing_one_forms_oracle(alg, cn.levi_civita(alg))


@pytest.mark.parametrize("p", [1, 2])
def test_killing_one_forms_check_matches_the_oracle(p):
    """On the Levi-Civita and canonical connections, and on one bumped entry
    of a Levi-Civita form: in column xi_1, which the equation reads, and in a
    horizontal column, which it does not."""
    alg = algebra.build(p)
    lc = cn.levi_civita(alg)

    def bumped(key):
        return cn.Connection([f + Endo(alg.dim, {key: LAM}) if x == 4 else f
                              for x, f in enumerate(lc.omega)])

    cases = [(lc, True), (cn.canonical_connection(alg), False), (bumped((3, 0)), False),
             (bumped((0, 3)), True)]
    for conn, expected in cases:
        assert cn.killing_one_forms_check(alg, conn) == killing_one_forms_oracle(alg, conn) == expected


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
    for _ in range(5):
        t = random_form(rng, alg.dim, 3, density=0.3).scale(LAM)  # of the degree of the brackets
        conn = cn.with_torsion(alg, t)
        assert cn.Geometry(alg, conn).torsion_form == t


def test_curvature_values():
    alg = algebra.build(1)
    conn = cn.canonical_connection(alg)
    r = cn.Geometry(alg, conn).curvature
    h = [two_form_endo(f) for f in cn.su2_generators(alg)]
    lam2 = LAM * LAM
    assert r[(3, 4)] == h[0].scale(lam2)  # R(tau_1, tau_2)
    assert r[(0, 1)] == h[2].scale(lam2 * 2)  # R(xi_1, xi_2)


def test_abelian_curvature_vanishes():
    alg = algebra.QHAlgebra(1, LAM, {})  # all brackets zero
    lc = cn.levi_civita(alg)
    assert all(lc.form(i).is_zero() for i in range(alg.dim))
    geo = cn.Geometry(alg, lc)
    assert geo.curvature_parts == (None, 1, {}) and geo.curvature == {}


@pytest.mark.parametrize("p", [1, 2, 3])
def test_curvature_closed_form(p):
    alg = algebra.build(p)
    conn = cn.canonical_connection(alg)
    r = cn.Geometry(alg, conn).curvature
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
            assert r.get((i, j), Endo.zero(alg.dim)) == expect.scale(lam2)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_parallel_tensors(p):
    alg = algebra.build(p)
    conn = cn.canonical_connection(alg)
    t = cn.canonical_torsion(alg)
    assert cn.is_parallel(conn, t)
    assert cn.Geometry(alg, conn).curvature_parallel
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
    ric = cn.Geometry(alg, conn).ricci
    lam2 = LAM * LAM
    for i in range(alg.dim):
        for j in range(alg.dim):
            if i != j:
                assert ric.entry(i, j).is_zero()
    for i in alg.vertical_indices:
        assert ric.entry(i, i) == lam2 * -8
    for i in alg.horizontal_indices:
        assert ric.entry(i, i) == lam2 * -3
    s_conn, s_g = ric.trace(), cn.Geometry(alg, cn.levi_civita(alg)).ricci.trace()
    assert s_conn == lam2 * (-12 * (p + 2))
    assert s_g == lam2 * (-3 * p)
    t = cn.canonical_torsion(alg)
    assert s_g - s_conn == form_inner(t, t) * Fraction(3, 2)


def flat(e):
    """The row-major entries of a rational endomorphism, scaled to integers."""
    return integer_part({r * e.dim + c: rational_value(v) for (r, c), v in e.comps.items()})[1]


@pytest.mark.parametrize("p", [1, 2, 3])
def test_holonomy_su2(p):
    alg = algebra.build(p)
    conn = cn.canonical_connection(alg)
    hol = cn.Geometry(alg, conn).holonomy
    assert len(hol) == 3
    # closes into su(2): brackets stay inside the span
    span = Span(alg.dim * alg.dim)
    for e in hol:
        span.add(flat(e))
    for a in hol:
        for b in hol:
            assert span_contains(span, flat(a.commutator(b)))
    assert cn.vertical_action_irreducible(alg, hol)
    for r in range(1, p + 1):
        assert cn.invariant_subspace(hol, alg.quaternionic_plane(r))


def test_flat_connection_holonomy_empty():
    alg = algebra.build(1)
    flat = cn.flat_connection(alg)
    geo = cn.Geometry(alg, flat)
    assert geo.holonomy == [] and geo.curvature_parts == (None, 1, {})


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
    table, witness = cn.Geometry(alg, cn.canonical_connection(alg)).transvection_algebra
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
    assert cn.Geometry(alg, conn).first_bianchi


def first_bianchi_oracle(geo):
    """The identity at every (x < y < z, v), each side summed term by term."""
    n = geo.alg.dim
    t3 = geo.torsion_form
    r = geo.curvature
    R = lambda i, j, k, l: curvature_endo(r, i, j, n).entry(l, k)  # g(R(e_i, e_j) e_k, e_l)
    dt = ce_differential(t3, geo.alg)
    nt = cn.nabla_tensor(geo.conn, t3)

    def t_pair(x, y, z, v):
        out = ZERO
        for k in range(n):
            out = out + t3.coeff((x, y, k)) * t3.coeff((z, v, k))
        return out

    for x, y, z in combinations(range(n), 3):
        for v in range(n):
            lhs = R(x, y, z, v) + R(y, z, x, v) + R(z, x, y, v)
            rhs = (
                dt.coeff((x, y, z, v))
                - (t_pair(x, y, z, v) + t_pair(y, z, x, v) + t_pair(z, x, y, v))
                + nt[v].coeff((x, y, z))
            )
            if not (lhs - rhs).is_zero():
                return False
    return True


@pytest.mark.parametrize("p", [1, 2])
def test_first_bianchi_matches_the_dense_oracle(p):
    alg = algebra.build(p)
    connections = [
        cn.canonical_connection(alg),
        cn.levi_civita(alg),
        # torsion that is not parallel, so dT and nabla T enter
        cn.with_torsion(alg, cn.canonical_torsion(alg).scale(Fraction(1, 2))),
        cn.with_torsion(alg, random_form(random.Random(p), alg.dim, 3, 0.3).scale(LAM)),
    ]
    for conn in connections:
        geo = cn.Geometry(alg, conn)
        assert geo.first_bianchi and first_bianchi_oracle(geo)
    # negative control: one perturbed curvature entry breaks the identity
    geo = cn.Geometry(alg, cn.canonical_connection(alg))
    d, den, e = geo.curvature_parts
    assert d == 2
    i, j, _, _ = min(e)
    a, b = [k for k in range(alg.dim) if k not in (i, j)][:2]
    # l^2 added at (a, b) of R(e_i, e_j), and -l^2 at (b, a)
    geo.curvature_parts = graded([(d, den, e), (2, 1, {(i, j, a, b): 1, (i, j, b, a): -1})])
    assert not first_bianchi_oracle(geo)
    assert not geo.first_bianchi


def test_first_bianchi_levi_civita():
    # torsion-free case: the identity degenerates to the cyclic sum vanishing
    alg = algebra.build(1)
    assert cn.Geometry(alg, cn.levi_civita(alg)).first_bianchi


@pytest.mark.parametrize("p, lam", [(1, None), (2, None), (3, None), (1, Fraction(3, 2))])
def test_reductivity_is_total_skewness(p, lam):
    # the m-part of the rebuilt bracket [X_i, X_j], X_i = e_i / lam, is
    # -T(e_i, e_j) / lam^2 = -T(e_i, e_j)_k / lam at X_k, so the m-block A of
    # ad(X_i), A[k, j] = -T_ijk / lam, is skew: the reductivity condition is
    # exactly total skewness of the torsion; a numeric lam moves no degree
    alg = algebra.build(p, lam)
    geo = cn.Geometry(alg, cn.canonical_connection(alg))
    table, _ = geo.transvection_algebra
    h, n, t3 = len(geo.holonomy), alg.dim, geo.torsion_form
    assert not t3.is_zero()
    m = {(i, j): table.bracket_basis(h + i, h + j) for i in range(n) for j in range(n)}
    for (i, j), v in m.items():
        for k in range(n):
            assert v[h + k] == -t3.coeff((i, j, k)) / alg.lam
            assert (v[h + k] + m[i, k][h + j]).is_zero()  # A + A^T = 0


def _skew_unit(n, r, c):
    return Endo(n, {(r, c): 1, (c, r): -1})


def holonomy_span(basis, n):
    """`Geometry._holonomy_span` holding exactly the given basis of degree 0."""
    span, members = Span(n * n + n * (n - 1) // 2), []
    for e in basis:
        cn._push(span, members, e)
    assert members == basis
    return members, span


def coordinates(span, e, h):
    """The coordinates of e that `_coordinates` reads, as a Vector, or None."""
    raw = cn._coordinates(span, e)
    return None if raw is None else -_vector(h, graded([raw]))


def test_coordinates_are_exact():
    # b1 reduces against b0 over res_den 2: the row of b1 carries that factor
    b0, b1 = _skew_unit(3, 0, 1).scale(2) + _skew_unit(3, 0, 2), _skew_unit(3, 0, 1) + _skew_unit(3, 1, 2)
    _, span = holonomy_span([b0, b1], 3)
    x0, x1 = LAM * 2, LAM * Fraction(-1, 2)
    assert coordinates(span, b0.scale(x0) + b1.scale(x1), 2) == Vector([x0, x1])
    assert coordinates(span, b1.scale(Fraction(1, 3)), 2) == Vector([0, Fraction(1, 3)])
    assert coordinates(span, Endo.zero(3), 2) == Vector.zero(2)
    alg = algebra.build(1)
    hol, span, _ = cn.Geometry(alg, cn.canonical_connection(alg))._holonomy_span
    for a, e in enumerate(hol):
        assert coordinates(span, e.scale(LAM), 3) == Vector.basis(3, a).scale(LAM)


def test_coordinates_outside_span():
    b0, b1 = _skew_unit(3, 0, 1), _skew_unit(3, 0, 2) + _skew_unit(3, 1, 2)
    _, span = holonomy_span([b0, b1], 3)
    outside = _skew_unit(3, 1, 2)
    assert coordinates(span, outside, 2) is None
    assert coordinates(span, b0.scale(LAM) + outside.scale(LAM), 2) is None
    # inside the span at lam^1, outside at lam^2: no such endomorphism can be built
    with pytest.raises(TypeError, match=r"^Endo sum: a term of degree 2 in l meets one of degree 1$"):
        b0.scale(LAM) + outside.scale(LAM * LAM)
    _, empty = holonomy_span([], 3)
    assert coordinates(empty, outside, 0) is None
    assert coordinates(empty, Endo.zero(3), 0) == Vector.zero(0)


def test_coordinates_rebuild_the_curvature_at_its_degree():
    """The basis is read at l = 1, so it has degree 0, and R(e_i, e_j), of
    degree 2, comes back as coordinates of degree 2 that rebuild it."""
    alg = algebra.build(1)
    geo = cn.Geometry(alg, cn.canonical_connection(alg))
    hol, span, _ = geo._holonomy_span
    assert all(e.part[0] == 0 for e in hol)
    assert geo.curvature
    for r in geo.curvature.values():
        x = coordinates(span, r, len(hol))
        assert x.part[0] == 2
        rebuilt = Endo.zero(alg.dim)
        for a, e in enumerate(hol):
            rebuilt = rebuilt + e.scale(x[a])
        assert rebuilt == r


def test_holonomy_is_read_at_one_only_for_homogeneous_input():
    """One closure at l = 1 is a proof because every connection form and every
    R(e_i, e_j) is one monomial in l: a torsion or a connection form of two
    degrees cannot be built, and its sum raises naming both degrees."""
    alg = algebra.build(1)
    bump = wedge(wedge(alg.theta(1), alg.theta(2)), alg.theta(3))
    # l = 1 and l = 2 both give a 9-dimensional closure here: sampling cannot tell
    with pytest.raises(TypeError, match=r"^KForm sum: a term of degree 0 in l meets one of degree 1$"):
        cn.canonical_torsion(alg) + bump
    scaled = cn.with_torsion(alg, cn.canonical_torsion(alg) + bump.scale(LAM))
    assert len(cn.Geometry(alg, scaled).holonomy) == 9
    can = cn.canonical_connection(alg)
    tilt = two_form_endo(wedge(alg.theta(1), alg.theta(2)))
    with pytest.raises(TypeError, match=r"^Endo sum: a term of degree 0 in l meets one of degree 1$"):
        can.form(0) + tilt
    # nor by a torsion of another degree than the Levi-Civita forms it is added to
    with pytest.raises(TypeError, match=r"^connection form 3: a term of degree 0 in l meets one of degree 1$"):
        cn.with_torsion(alg, bump)


def test_vertical_irreducibility_certifies_each_row():
    alg = algebra.build(1)
    rot = [_skew_unit(alg.dim, 0, 1), _skew_unit(alg.dim, 1, 2), _skew_unit(alg.dim, 0, 2)]
    # each element has its own degree: every row is homogeneous, the verdict holds for all l
    assert cn.vertical_action_irreducible(alg, [rot[0].scale(LAM), rot[1], rot[2].scale(LAM * LAM)])
    assert not cn.vertical_action_irreducible(alg, [rot[0].scale(LAM)])
    with pytest.raises(TypeError, match=r"^Endo sum: a term of degree 0 in l meets one of degree 1$"):
        rot[0].scale(LAM) + rot[1]  # row 1 would be (-l, 0, 1)


def transvection_table_oracle(geo, hol, inverse=None):
    """`Geometry.transvection_algebra` built pair by pair on the basis hol, m in
    the frame X_i = inverse e_i, inverse = 1 / lam by default: the torsion
    T(e_i, e_j) of each pair from its definition, the hol coordinates from a
    second span of the rows [b_a | e_a], [X_i, X_j] = inverse^2 [e_i, e_j],
    whose m-part -inverse^2 T(e_i, e_j) is -inverse T(e_i, e_j)_k at X_k,
    and every bracket padded to dimension h + n by zero vectors."""
    alg = geo.alg
    inverse = Scalar(1) / alg.lam if inverse is None else inverse
    h, n = len(hol), alg.dim
    tor = torsion_tensor_oracle(alg, geo.conn)
    nn = n * n
    span = Span(nn + h)
    for a, b in enumerate(hol):
        _, den, entries = homogeneous_part(b, f"basis element {a}", 0)
        span.add({**{r * n + c: v for (r, c), v in entries.items()}, nn + a: den})

    def hol_coords(e):
        exp, den, entries = e.part
        res_den, res = span.reduce({r * n + c: v for (r, c), v in entries.items()})
        if min(res, default=nn) < nn:
            return None
        return _vector(h, graded([(exp, den * res_den, {j - nn: -x for j, x in res.items()})]))

    table = {}

    def put(x, y, coords, v):
        (dc, nc, ec), (dv, nv, ev) = coords.part, v.part
        part = graded([(dc, nc, ec), (dv, nv, {h + k: c for k, c in ev.items()})])
        if part[2]:
            table[(x, y)] = _vector(h + n, part)

    for a, b in combinations(range(h), 2):
        coords = hol_coords(hol[a].commutator(hol[b]))
        if coords is None:
            return None, ("holonomy not closed under bracket", a, b)
        put(a, b, coords, Vector.zero(n))
    for a in range(h):
        for i in range(n):
            put(a, h + i, Vector.zero(h), hol[a].column(i))
    for i, j in sorted(geo.curvature.keys() | tor.keys()):
        coords = hol_coords(-geo.curvature.get((i, j), Endo.zero(n)))
        put(h + i, h + j, coords.scale(inverse * inverse), -tor.get((i, j), Vector.zero(n)).scale(inverse))
    return StructureConstants(h + n, table), None


@pytest.mark.parametrize("p", [1, 2, 3])
def test_transvection_table_matches_the_pairwise_oracle(p):
    alg = algebra.build(p)
    geo = cn.Geometry(alg, cn.canonical_connection(alg))
    table, witness = geo.transvection_algebra
    oracle, _ = transvection_table_oracle(geo, geo.holonomy)
    assert witness is None and table.dim == oracle.dim == alg.dim + 3
    assert table._sc == oracle._sc
    assert list(table._sc) == sorted(table._sc)


def test_curvature_coordinates_are_read_from_the_pushes(monkeypatch):
    """`_push` hands back the coordinates of each part of R it reduced, so
    `curvature_coordinates` reduces nothing a second time.  The Levi-Civita
    curvature spans so(7): one push per nonzero R(e_i, e_j), and the closure
    pushes nothing."""
    alg = algebra.build(1)
    geo = cn.Geometry(alg, cn.levi_civita(alg))
    pushed = counted_pushes(monkeypatch)
    members = geo._holonomy_span[0]
    assert pushed == at_one(geo.curvature.values())
    reduced = []
    monkeypatch.setattr(Span, "reduce", lambda self, v: reduced.append(v))
    forms = geo.curvature_coordinates
    assert reduced == [] and len(forms) == len(members) == 21


@pytest.mark.parametrize("p, lam", [(1, None), (2, None), (3, None), (1, Fraction(3, 2))])
def test_transvection_table_has_one_part_per_bracket(p, lam):
    """In the frame e_i / lam every stored bracket of hol + m has degree 0, for
    the formal parameter and for a numeric one."""
    alg = algebra.build(p, lam)
    table, witness = cn.Geometry(alg, cn.canonical_connection(alg)).transvection_algebra
    assert witness is None and table.degree == 0
    assert {v.part[0] for v in table._sc.values()} == {0}


def test_one_part_negative_control_ignores_the_degree_of_lam(monkeypatch):
    """A shift of the curvature by -2 and the torsion by -1 that ignores the
    degree of lam: at lam = 3/2 a bracket [X_i, X_j] would meet degrees -2 and
    -1, and its sum raises naming the bracket and both degrees."""
    alg = algebra.build(1, Fraction(3, 2))
    geo = cn.Geometry(alg, cn.canonical_connection(alg))
    assert geo.curvature_parallel and geo.torsion_parallel and len(geo.holonomy) == 3
    monkeypatch.setattr(alg, "lam", LAM)  # the formal degree, read by the table alone
    with pytest.raises(TypeError, match=r"^bracket \(3, 4\): a term of degree -1 in l meets one of degree -2$"):
        geo.transvection_algebra


@pytest.mark.parametrize("p", [1, 2, 3])
def test_transvection_jacobi_witness_in_the_scaled_frame(p):
    """Negating the hol components of every m-m bracket breaks Jacobi at the
    first triple (X_0, X_1, X_3) = indices (3, 4, 6), in the frame e_i / lam
    as in the frame e_i: the change of frame keeps the witnesses."""
    alg = algebra.build(p)
    table, _ = cn.Geometry(alg, cn.canonical_connection(alg)).transvection_algebra
    h = table.dim - alg.dim
    assert algebra.jacobi_check(table) == (True, None)
    structure = {(x, y): Vector([-c if a < h else c for a, c in enumerate(v)]) if x >= h else v
                 for (x, y), v in table._sc.items()}  # x < y: an m-m bracket has x >= h
    assert algebra.jacobi_check(StructureConstants(table.dim, structure)) == (False, (3, 4, 6))


def test_transvection_algebra_holonomy_witnesses(monkeypatch):
    alg = algebra.build(1)
    conn = cn.canonical_connection(alg)
    geo = cn.Geometry(alg, conn)
    hol = geo.holonomy
    # nabla R and the coordinates of -R are read on the whole basis, before the patch
    fresh = cn.Geometry(alg, conn)
    assert fresh.curvature_parallel and len(fresh.curvature_coordinates) == 3
    basis = (*holonomy_span(hol[:2], alg.dim), geo._holonomy_span[2])
    monkeypatch.setattr(cn.Geometry, "_holonomy_span", property(lambda _: basis))
    got = fresh.transvection_algebra
    assert got == transvection_table_oracle(geo, hol[:2])
    assert fresh.transvection == (False, got[1])
    # su(2) has no 2-dim subalgebra, so two of its three basis elements
    # do not close under the bracket
    assert got == (None, ("holonomy not closed under bracket", 0, 1))


def counted_spans(monkeypatch) -> list:
    """The `linalg.Span` objects that `connections` builds from now on."""
    built = []

    class Counted(Span):
        def __init__(self, n):
            super().__init__(n)
            built.append(self)

    monkeypatch.setattr(cn, "Span", Counted)
    return built


@pytest.mark.parametrize("p", [1, 2])
def test_transvection_builds_one_span(monkeypatch, p):
    """The holonomy closure and the hol coordinates share one elimination."""
    alg = algebra.build(p)
    built = counted_spans(monkeypatch)
    assert cn.Geometry(alg, cn.with_torsion(alg, cn.canonical_torsion(alg))).transvection == (True, None)
    assert len(built) == 1


def test_holonomy_closure_stops_at_so_n(monkeypatch):
    """Non-skew forms generate more than so(n): the bound raises when the
    basis is full, before an element would need a column past the span."""
    alg = algebra.QHAlgebra(1, LAM, {})  # all brackets zero
    n = alg.dim
    rng = random.Random(3)
    cells = [(r, c) for r in range(n) for c in range(n)]
    forms = [Endo(n, {key: rng.randint(1, 3) for key in rng.sample(cells, 3)}) for _ in range(n)]
    built = counted_spans(monkeypatch)
    with pytest.raises(ArithmeticError, match=r"^holonomy closure exceeded so\(n\)$"):
        cn.Geometry(alg, cn.Connection(forms)).holonomy
    (span,) = built
    assert span.dim == n * (n - 1) // 2 and span.n == n * n + span.dim


def counted_pushes(monkeypatch) -> list:
    """The elements `connections._push` is handed from now on."""
    pushed, push = [], cn._push

    def counted(span, members, e):
        pushed.append(e)
        return push(span, members, e)

    monkeypatch.setattr(cn, "_push", counted)
    return pushed


def at_one(endos) -> list:
    """Each endomorphism at l = 1, of degree 0, as the holonomy basis pushes it."""
    return [_endo(e.dim, (0, *e.part[1:])) for e in endos]


def test_dense_holonomy_stops_at_so_n(monkeypatch):
    """A dense skew torsion whose curvature already spans so(11): the closure
    of skew forms stops at n(n - 1)/2 members without bracketing a pair, after
    one push per nonzero R(e_i, e_j)."""
    alg = algebra.build(2)
    geo = cn.Geometry(alg, cn.with_torsion(alg, random_form(random.Random(1), 11, 3, 0.3).scale(LAM)))
    pushed = counted_pushes(monkeypatch)
    assert len(geo.holonomy) == 55 and len(geo.curvature_coordinates) == 55
    assert pushed == at_one(geo.curvature.values())


def test_holonomy_closure_brackets_the_forms_and_each_pair_once(monkeypatch):
    """On the abelian algebra, Omega_0 = A and Omega_1 = B rotating the planes
    e_0 e_1 and e_1 e_2: the curvature spans [A, B] alone, and only the forms
    bracket it up to so(3).  Member a meets the two forms and the a members
    before it: 2 + 3 + 4 brackets for three members."""
    alg = algebra.QHAlgebra(1, LAM, {})  # all brackets zero
    n = alg.dim
    a, b = _skew_unit(n, 0, 1), _skew_unit(n, 1, 2)
    geo = cn.Geometry(alg, cn.Connection([a, b] + [Endo.zero(n)] * (n - 2)))
    pushed = counted_pushes(monkeypatch)
    hol = geo.holonomy
    # the curvature push first, R(e_0, e_1) = [A, B], then the closure pushes
    assert list(geo.curvature) == [(0, 1)] and pushed[0] == hol[0] == a.commutator(b)
    assert len(hol) == 3 and len(pushed) == 1 + 9
    assert cn.invariant_subspace(hol, (0, 1, 2)) and cn.invariant_subspace(hol, tuple(range(3, n)))


def ricci_oracle(alg, conn):
    """Definitional Ric(e_a, e_b) = sum_i g(R(e_i, e_a) e_b, e_i), all n^3 terms,
    with R from the dense commutator oracle."""
    r = curvature_oracle(alg, conn)
    n = alg.dim
    out = {}
    for a in range(n):
        for b in range(n):
            s = Scalar(0)
            for i in range(n):
                s = s + curvature_endo(r, i, a, n).entry(i, b)
            out[(a, b)] = s
    return out


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("which", ["canonical", "levi-civita", "perturbed", "random"])
def test_ricci_matches_definitional_sum(p, which):
    alg = algebra.build(p)
    if which == "canonical":
        conn = cn.canonical_connection(alg)
    elif which == "levi-civita":
        conn = cn.levi_civita(alg)
    elif which == "perturbed":
        bump = wedge(wedge(alg.theta(1), alg.theta(2)), alg.theta(3)).scale(LAM)
        conn = cn.with_torsion(alg, cn.canonical_torsion(alg) + bump)
    else:
        # a generic (not metric) connection form: every curvature row is nonzero
        conn = random_connection(random.Random(p), alg.dim, alg.dim)
    ric = cn.Geometry(alg, conn).ricci
    expected = ricci_oracle(alg, conn)
    for (a, b), value in expected.items():
        assert ric.entry(a, b) == value, (a, b)
    assert all(not v.is_zero() for v in ric.comps.values())
    if which in ("perturbed", "random"):
        # off-diagonal and non-symmetric entries are covered, not only the diagonal
        off = [(a, b) for (a, b), v in expected.items() if a != b and not v.is_zero()]
        assert off and any(expected[(b, a)] != expected[(a, b)] for a, b in off)


def random_connection(rng, n, entries):
    """Generic (not metric) connection forms of degree 1, the degree of the brackets."""
    def form():
        keys = [(rng.randrange(n), rng.randrange(n)) for _ in range(entries)]
        return Endo(n, {key: rng.randint(-2, 2) * LAM for key in keys})

    return cn.Connection([form() for _ in range(n)])


def test_nabla_matches_definitional_action():
    """(nabla_A f)(Y..) = -sum_t f(.., A Y_t, ..) and
    (nabla_A R)(X, Y) = [A, R(X, Y)] - R(AX, Y) - R(X, AY), with generic A
    and the curvature of a metric and of a generic connection."""
    alg = algebra.build(1)
    n = alg.dim
    rng = random.Random(5)
    conn = random_connection(rng, n, 2 * n)
    e = [alg.basis_vector(i) for i in range(n)]
    f = random_form(rng, n, 3)
    for a, d in zip(conn.omega, cn.nabla_tensor(conn, f)):
        for idx in combinations(range(n), 3):
            expected = Scalar(0)
            for t in range(3):
                args = [e[i] for i in idx]
                args[t] = a.apply(args[t])
                expected = expected - f.evaluate(*args)
            assert d.coeff(idx) == expected, idx

    for source in (cn.canonical_connection(alg), conn):
        geo = cn.Geometry(alg, source)
        r = curvature_oracle(alg, source)
        for a in conn.omega:
            assert curvature_derivative_oracle(geo, a) == pair_parts(nabla_curvature_oracle(r, a, n))


def replacement_disagreements(replace, n=7) -> list[tuple]:
    """The (idx, t, b), idx increasing over range(n), for which replace(idx, t, b)
    differs from `_sort_tuple` of idx with slot t replaced by b."""
    return [
        (idx, t, b)
        for k in range(1, n + 1)
        for idx in combinations(range(n), k)
        for t in range(k)
        for b in range(n)
        if replace(idx, t, b) != _sort_tuple(idx[:t] + (b,) + idx[t + 1 :])
    ]


def test_one_slot_replacement_agrees_with_the_full_sort():
    """Exhaustive at n = 7: every increasing tuple, every slot, every new index."""
    assert replacement_disagreements(cn._replace_sorted) == []


def test_one_slot_replacement_comparison_negative_control():
    def unsigned(idx, t, b):  # without the sign flip of an odd move
        sign, key = cn._replace_sorted(idx, t, b)
        return abs(sign), key

    assert ((0, 1), 0, 2) in replacement_disagreements(unsigned)


# the m-part {k: int} of [X_i, X_j], -T(e_i, e_j) / lam, as six wrong torsion blocks
TORSION_BLOCK_MUTANTS = {
    "at X_j": lambda i, j, m: {j: sum(m.values())},
    "at X_i": lambda i, j, m: {i: sum(m.values())},
    "k > j only": lambda i, j, m: {k: c for k, c in m.items() if k > j},
    "k < j only": lambda i, j, m: {k: c for k, c in m.items() if k < j},
    "doubled": lambda i, j, m: {k: 2 * c for k, c in m.items()},
    "dropped": lambda i, j, m: {},
}


def with_torsion_block(table, n, mutate):
    """hol + m with the m-part of every m-m bracket [X_i, X_j] replaced by
    mutate(i, j, m), m its integer entries {k: int} at X_k; the hol part stays."""
    h, structure = table.dim - n, {}
    for (x, y), v in table._sc.items():
        d, den, e = v.part
        if x >= h:
            m = {k - h: c for k, c in e.items() if k >= h}
            e = {k: c for k, c in e.items() if k < h}
            for k, c in mutate(x - h, y - h, m).items():
                accumulate(e, h + k, c)
        w = _vector(table.dim, graded([(d, den, e)]))
        if not w.is_zero():
            structure[(x, y)] = w
    return StructureConstants(table.dim, structure)


@pytest.mark.parametrize("p", [1, 2])
def test_jacobi_rejects_every_torsion_block_mutant(p):
    """`Geometry.transvection` tests Jacobi alone: each wrong torsion block of
    the canonical hol + m, moved, cut, doubled or dropped, breaks Jacobi, so
    none passes on a second, reductivity, pass."""
    alg = algebra.build(p)
    table, _ = cn.Geometry(alg, cn.canonical_connection(alg)).transvection_algebra
    # control: the transform that keeps the block rebuilds the table, which passes
    kept = with_torsion_block(table, alg.dim, lambda i, j, m: m)
    assert kept._sc == table._sc and algebra.jacobi_check(kept) == (True, None)
    for name, mutate in TORSION_BLOCK_MUTANTS.items():
        ok, triple = algebra.jacobi_check(with_torsion_block(table, alg.dim, mutate))
        assert not ok and triple is not None, name


def test_transvection_stops_before_curvature_and_holonomy():
    """Torsion that is not parallel is reported from the lazy bundle before the
    curvature, its coordinates, its derivative or the holonomy closure is built."""
    kernels = ["qhg.connections.Geometry.curvature_parts", "qhg.connections.Geometry.curvature_coordinates",
               "qhg.connections.Geometry._nabla_curvature", "qhg.connections.Geometry._holonomy_span"]
    alg = algebra.build(1)
    bump = wedge(wedge(alg.theta(1), alg.theta(2)), alg.theta(3)).scale(LAM)
    conn = cn.with_torsion(alg, cn.canonical_torsion(alg) + bump)
    out = []
    ran = executed_code(lambda: out.append(cn.transvection_check(alg, conn)))
    assert out == [(False, ("torsion not parallel",))]
    assert unexecuted(kernels, ran) == sorted(kernels)
    # control: the canonical connection reaches all four
    ran = executed_code(lambda: out.append(cn.transvection_check(alg, cn.canonical_connection(alg))))
    assert out[1] == (True, None)
    assert unexecuted(kernels, ran) == []


@pytest.mark.parametrize("p", [1, 2])
def test_closed_forms_reject_the_levi_civita_connection(p):
    """The closed forms the report compares against, and connections that fail them."""
    alg = algebra.build(p)
    can, lc = cn.Geometry(alg, cn.canonical_connection(alg)), cn.Geometry(alg, cn.levi_civita(alg))
    assert cn.su2_curvature(alg) == can.curvature_parts != lc.curvature_parts
    assert cn.ricci_closed_form(alg) == can.ricci != lc.ricci
    assert cn.volumes_parallel(alg, can.conn) and not cn.volumes_parallel(alg, lc.conn)
    assert cn.killing_one_forms_check(alg, lc.conn)
    assert not cn.killing_one_forms_check(alg, can.conn)
    assert cn.su2_holonomy_check(alg, can.holonomy)
    assert not cn.su2_holonomy_check(alg, can.holonomy[:2])


def test_a_connection_of_another_dimension_is_rejected():
    alg = algebra.build(1)
    conn = cn.levi_civita(algebra.build(2))
    for reader in (cn.Geometry, cn.transvection_check):
        with pytest.raises(ValueError, match=r"^connection of dimension 11 on an algebra of dimension 7$"):
            reader(alg, conn)


# -- the one-pass torsion kernels against their per-direction definitions -----


def with_torsion_oracle(alg, t):
    """Omega(e_i) = Omega^g(e_i) + (1/2) (e_i . t), direction by direction."""
    lc = cn.levi_civita(alg)
    half = Fraction(1, 2)
    return cn.Connection([
        lc.form(i) + two_form_endo(interior(alg.basis_vector(i), t)).scale(half)
        for i in range(alg.dim)
    ])


def torsion_tensor_oracle(alg, conn):
    """T(e_i, e_j) = Omega(e_i)e_j - Omega(e_j)e_i - [e_i, e_j], pair by pair."""
    out = {}
    for i, j in combinations(range(alg.dim), 2):
        v = (
            conn.form(i).apply(alg.basis_vector(j))
            - conn.form(j).apply(alg.basis_vector(i))
            - alg.bracket_basis(i, j)
        )
        if not v.is_zero():
            out[(i, j)] = v
    return out


def torsion_form_oracle(alg, tor):
    """The 3-form of the entries at i < j < k, or None unless every T(e_i, e_j)_k
    equals its value."""
    n = alg.dim
    t3 = KForm(n, 3, {
        (i, j, k): v[k] for (i, j), v in tor.items() for k in range(j + 1, n) if not v[k].is_zero()
    })
    zero = Vector.zero(n)
    skew = all(
        tor.get((i, j), zero)[k] == t3.coeff((i, j, k))
        for i, j in combinations(range(n), 2)
        for k in range(n)
    )
    return t3 if skew else None


def perturbed_torsions(alg):
    """The canonical torsion plus lam theta_i ^ theta_j ^ theta_k, i < j < k."""
    t = cn.canonical_torsion(alg)
    for i, j, k in combinations(range(1, 4 * alg.p + 1), 3):
        yield t + wedge(wedge(alg.theta(i), alg.theta(j)), alg.theta(k)).scale(LAM)


def oracle_torsions(alg):
    """Torsions of degree 1 in l, the degree of the brackets, which they join."""
    bump = wedge(wedge(alg.theta(1), alg.theta(2)), alg.theta(3))
    rng = random.Random(alg.p)
    return [
        cn.canonical_torsion(alg),
        KForm.zero(alg.dim, 3),
        *perturbed_torsions(alg),
        *(random_form(rng, alg.dim, 3, 0.3).scale(LAM) for _ in range(5)),  # denominators 1..3
        cn.canonical_torsion(alg) + bump.scale(LAM * Fraction(1, 3)),  # den 3 on the canonical torsion
    ]


def omega_parts(conn):
    return [form.part for form in conn.omega]


def torsion_parts(tor):
    """The per-pair vectors T(e_i, e_j) as one part keyed (i, j, k), the form of
    `Geometry.torsion_parts`."""
    return graded((d, den, {(i, j, k): v for k, v in e.items()})
                  for (i, j), (d, den, e) in ((key, vec.part) for key, vec in tor.items()))


@pytest.mark.parametrize("p", [1, 2])
def test_torsion_kernels_match_the_per_direction_definitions(p):
    alg = algebra.build(p)
    torsions = oracle_torsions(alg)
    assert len(torsions) == 8 + len(list(combinations(range(4 * p), 3)))
    assert any(t.part[1] > 1 for t in torsions) and torsions[-1].part[1] == 3
    for t in torsions:
        conn = cn.with_torsion(alg, t)
        assert omega_parts(conn) == omega_parts(with_torsion_oracle(alg, t))
        tor = torsion_tensor_oracle(alg, conn)
        assert cn.Geometry(alg, conn).torsion_parts == torsion_parts(tor)
        assert cn.Geometry(alg, conn).torsion_form == torsion_form_oracle(alg, tor) == t
    # connections that are not metric with skew torsion: T is not totally skew
    for conn in (cn.flat_connection(alg), random_connection(random.Random(p), alg.dim, 2 * alg.dim)):
        tor = torsion_tensor_oracle(alg, conn)
        assert tor and cn.Geometry(alg, conn).torsion_parts == torsion_parts(tor)
        assert cn.Geometry(alg, conn).torsion_form is None is torsion_form_oracle(alg, tor)


def test_torsion_kernel_comparison_negative_control():
    """Dropping the 1/2 of the torsion or the sign of the sorted pair changes
    the parts the comparison reads."""
    alg = algebra.build(1)
    t = cn.canonical_torsion(alg)
    lc = cn.levi_civita(alg)
    whole = cn.Connection([
        lc.form(i) + two_form_endo(interior(alg.basis_vector(i), t)) for i in range(alg.dim)
    ])
    assert omega_parts(cn.with_torsion(alg, t)) != omega_parts(whole)
    conn = cn.with_torsion(alg, t)
    unsigned = {}
    for i, j in combinations(range(alg.dim), 2):
        v = (
            conn.form(i).apply(alg.basis_vector(j))
            + conn.form(j).apply(alg.basis_vector(i))
            - alg.bracket_basis(i, j)
        )
        if not v.is_zero():
            unsigned[(i, j)] = v
    assert cn.Geometry(alg, conn).torsion_parts != torsion_parts(unsigned)


# -- the one-pass curvature kernels against their dense definitions ----------


def curvature_oracle(alg, conn, bracket_term=True):
    """R(e_i, e_j) = [Omega(e_i), Omega(e_j)] - Omega([e_i, e_j]), i < j, pair by
    pair; without the Omega([e_i, e_j]) term when bracket_term is false."""
    out = {}
    for i, j in combinations(range(alg.dim), 2):
        r = conn.form(i).commutator(conn.form(j))
        if bracket_term:
            r = r - form_of(conn, alg.bracket_basis(i, j))
        if not r.is_zero():
            out[(i, j)] = r
    return out


def curvature_endo(r, i, j, n):
    """R(e_i, e_j) from the pairs i < j of r, antisymmetric in (i, j)."""
    return r.get((i, j), Endo.zero(n)) if i <= j else -r.get((j, i), Endo.zero(n))


def nabla_curvature_oracle(r, a, n, slot_sign=-1):
    """(nabla_A R)(e_i, e_j) = [A, R(e_i, e_j)] - R(A e_i, e_j) - R(e_i, A e_j),
    i < j, with R extended bilinearly; slot_sign = 1 flips the sign of the
    R(A e_i, e_j) term."""
    e = [Vector.basis(n, i) for i in range(n)]

    def r_of(x, y):
        out = Endo.zero(n)
        for i, xi in x.comps.items():
            for j, yj in y.comps.items():
                out = out + curvature_endo(r, i, j, n).scale(xi * yj)
        return out

    out = {}
    for i, j in combinations(range(n), 2):
        d = (
            a.commutator(curvature_endo(r, i, j, n))
            + r_of(a.apply(e[i]), e[j]).scale(slot_sign)
            - r_of(e[i], a.apply(e[j]))
        )
        if not d.is_zero():
            out[(i, j)] = d
    return out


def pair_parts(r):
    """The part (degree, den, {(i, j, k, l): int}) of a dict (i, j) -> Endo."""
    return graded(
        (d, den, {(i, j) + kl: v for kl, v in e.items()})
        for (i, j), (d, den, e) in ((key, endo.part) for key, endo in r.items())
    )


def oracle_connections(alg):
    """Canonical, Levi-Civita, flat, and three random skew torsions of degree 1."""
    rng = random.Random(alg.p)
    return [
        cn.canonical_connection(alg),
        cn.levi_civita(alg),
        cn.flat_connection(alg),
        *(cn.with_torsion(alg, random_form(rng, alg.dim, 3, 0.3).scale(LAM)) for _ in range(3)),
    ]


@pytest.mark.parametrize("p", [1, 2])
def test_curvature_kernels_match_the_dense_oracles(p):
    alg = algebra.build(p)
    n = alg.dim
    for conn in oracle_connections(alg):
        geo = cn.Geometry(alg, conn)
        r = curvature_oracle(alg, conn)
        assert geo.curvature_parts == pair_parts(r)
        assert geo.curvature == r and list(geo.curvature) == sorted(r)
        derivatives = [curvature_derivative_oracle(geo, a) for a in conn.omega]
        for a, d in zip(conn.omega, derivatives):
            assert d == pair_parts(nabla_curvature_oracle(r, a, n))
        assert geo.curvature_parallel == all(not d[2] for d in derivatives)
    # the comparison reads every kind of entry: nonzero R and nonzero nabla R
    lc = cn.Geometry(alg, cn.levi_civita(alg))
    assert lc.curvature and not lc.curvature_parallel


def test_curvature_kernel_comparison_negative_control():
    """Dropping the Omega([X, Y]) term of R, or flipping the sign of one
    form-slot term of nabla R, changes the parts the comparison reads."""
    alg = algebra.build(1)
    n = alg.dim
    can = cn.Geometry(alg, cn.canonical_connection(alg))
    assert can.curvature_parts != pair_parts(curvature_oracle(alg, can.conn, bracket_term=False))
    lc = cn.Geometry(alg, cn.levi_civita(alg))
    r = curvature_oracle(alg, lc.conn)
    assert any(
        curvature_derivative_oracle(lc, a) != pair_parts(nabla_curvature_oracle(r, a, n, slot_sign=1))
        for a in lc.conn.omega
    )


# -- nabla R and Ricci in holonomy coordinates against the curvature parts ----


def curvature_derivative_oracle(geo, a):
    """The part of nabla_A R at the keys (i, j, k, l) of `curvature_parts`:
    (nabla_A R)(e_i, e_j) = [A, R(e_i, e_j)] - R(A e_i, e_j) - R(e_i, A e_j).

    From each stored entry c = R(e_i, e_j)[k, l]: the endomorphism slots
    add A[r, k] c at (i, j, r, l) and -c A[l, r] at (i, j, k, r).  The form
    slots are one pair, read in both orders, (s, t) = (i, j) with f = c and
    (j, i) with f = -c: an index x, A[s, x] = w, that replaces s adds -f w
    at (x, t) for x < t and f w at (t, x) for x > t.
    """
    (da, na, ea), (d, den, e) = a.part, geo.curvature_parts
    rows, cols = _rows(ea), _rows({(c, r): w for (r, c), w in ea.items()})
    acc = {}
    for (i, j, k, l), c in e.items():
        for r, w in cols.get(k, ()):
            accumulate(acc, (i, j, r, l), w * c)
        for r, w in rows.get(l, ()):
            accumulate(acc, (i, j, k, r), -c * w)
        for s, t, f in ((i, j, c), (j, i, -c)):
            for x, w in rows.get(s, ()):
                if x < t:
                    accumulate(acc, (x, t, k, l), -f * w)
                elif x > t:
                    accumulate(acc, (t, x, k, l), f * w)
    return graded([(da + d, na * den, acc)] if acc else [])


def ricci_parts_oracle(geo):
    """Ric contracted over the stored entries R(e_i, e_j)[row, b], i < j, of
    `curvature_parts`: row i adds into Ric(e_j, .) and, as R(e_j, e_i) =
    -R(e_i, e_j), row j subtracts from Ric(e_i, .)."""
    d, den, e = geo.curvature_parts
    acc = {}
    for (i, j, row, b), v in e.items():
        if row == i:
            accumulate(acc, (j, b), v)
        elif row == j:
            accumulate(acc, (i, b), -v)
    return _endo(geo.alg.dim, graded([(d, den, acc)]))


def nabla_curvature_parts(geo, x):
    """nabla_{e_x} R at the keys (i, j, k, l), rebuilt from the coefficient
    2-forms D^c of nabla_{e_x} (-R) and the holonomy basis: -sum_c D^c B_c."""
    forms = geo._nabla_curvature(x)
    return graded(
        (d + db, -den * nb, {(i, j, k, l): v * w for (k, l), w in eb.items()})
        for (d, den, e), (db, nb, eb) in ((f.part, b.part) for f, b in zip(forms, geo.holonomy))
        for (i, j), v in e.items()
    )


def skew_connections(alg):
    """Canonical, Levi-Civita, the canonical torsion perturbed by lam theta_123,
    and a random skew torsion scaled by lam, sparse at p = 2 where a dense one
    costs seconds."""
    rng = random.Random(alg.p)
    bump = wedge(wedge(alg.theta(1), alg.theta(2)), alg.theta(3))
    t = random_form(rng, alg.dim, 3, 0.3 if alg.p == 1 else 0.03).scale(LAM)
    return [
        cn.canonical_connection(alg),
        cn.levi_civita(alg),
        cn.with_torsion(alg, cn.canonical_torsion(alg) + bump.scale(LAM)),
        cn.with_torsion(alg, t),
    ]


@pytest.mark.parametrize("p", [1, 2])
def test_curvature_span_coordinates_match_the_curvature_parts_oracles(monkeypatch, p):
    """nabla R read in the holonomy basis, rebuilt as parts, and Ricci read
    from the connection forms, against the kernels that read `curvature_parts`,
    in every direction."""
    alg = algebra.build(p)
    pushed = counted_pushes(monkeypatch)
    parallel, grown = [], []
    for conn in skew_connections(alg):
        geo = cn.Geometry(alg, conn)
        derivatives = [curvature_derivative_oracle(geo, a) for a in conn.omega]
        pushed.clear()
        for x, d in enumerate(derivatives):
            assert nabla_curvature_parts(geo, x) == d
        assert geo.curvature_parallel == all(not d[2] for d in derivatives)
        assert geo.ricci == ricci_parts_oracle(geo) and not geo.ricci.is_zero()
        parallel.append(geo.curvature_parallel)
        # one curvature push per nonzero R(e_i, e_j) first, then the closure pushes
        r = len(geo.curvature)
        assert pushed[:r] == at_one(geo.curvature.values())
        grown.append(len(geo.holonomy) > len(geo.curvature_coordinates) and len(pushed) > r)
    # only the canonical curvature is parallel, so nonzero nabla R is compared too
    assert parallel == [True, False, False, False]
    # at p = 2 a closure grows past the span V of the curvature, and nabla R
    # reads the D^c of the members it adds
    assert any(grown) == (p == 2)


def test_levi_civita_transvection_stops_before_the_table():
    """Parallel torsion and curvature that is not: the curvature verdict reads
    the holonomy basis, and neither the brackets of hol + m nor Jacobi run."""
    alg = algebra.build(2)
    out = []
    ran = executed_code(lambda: out.append(cn.transvection_check(alg, cn.levi_civita(alg))))
    assert out == [(False, ("curvature not parallel",))]
    kernels = ["qhg.algebra.StructureConstants.__init__", "qhg.algebra.jacobi_check",
               "qhg.connections.Geometry._holonomy_span", "qhg.connections.Geometry._nabla_curvature"]
    assert unexecuted(kernels, ran) == kernels[:2]
    # control: the canonical connection builds the table and tests it
    ran = executed_code(lambda: out.append(cn.transvection_check(alg, cn.canonical_connection(alg))))
    assert out[1] == (True, None) and unexecuted(kernels, ran) == []


def test_a_bracket_outside_the_holonomy_span_raises(monkeypatch):
    """The holonomy basis is closed under every ad Omega_x, so a bracket that
    `_coordinates` cannot read is a broken invariant: `curvature_parallel`
    raises, and does not answer False."""
    alg = algebra.build(1)
    conn = cn.canonical_connection(alg)
    assert cn.Geometry(alg, conn).curvature_parallel
    monkeypatch.setattr(cn, "_coordinates", lambda span, e: None)
    with pytest.raises(ArithmeticError, match=r"^holonomy basis not closed under ad Omega_0$"):
        cn.Geometry(alg, conn).curvature_parallel


def plane_rotations(alg, rotations):
    """The connection with Omega(e_x) = lam (E_rc - E_cr) for each (x, r, c), else 0."""
    omega = [Endo.zero(alg.dim) for _ in range(alg.dim)]
    for x, r, c in rotations:
        omega[x] = _skew_unit(alg.dim, r, c).scale(LAM)
    return cn.Connection(omega)


@pytest.mark.parametrize("make", ["canonical", "levi-civita", "rotations"])
def test_holonomy_and_nabla_r_agree_in_either_order(make):
    """nabla R and the holonomy read one basis: reading the holonomy first or
    last gives the same verdict, coordinates of -R and holonomy basis."""
    alg = algebra.build(1)
    conn = {"canonical": cn.canonical_connection, "levi-civita": cn.levi_civita,
            "rotations": lambda alg: plane_rotations(alg, [(4, 1, 3), (6, 5, 3)])}[make](alg)
    first, last = cn.Geometry(alg, conn), cn.Geometry(alg, conn)
    hol = first.holonomy
    verdict = last.curvature_parallel
    assert first.curvature_parallel == verdict
    assert first.curvature_coordinates == last.curvature_coordinates
    assert last.holonomy == hol
    assert verdict == (make == "canonical")
    if make == "rotations":
        # dim V = 1 < dim hol = 3: [Omega_x, B] leaves V, and nabla_{e_x} R
        # moves in a D^c of a member that the closure adds
        assert len(last.curvature_coordinates) == 1 and len(hol) == 3
        for x in (4, 6):
            moved = [c for c, f in enumerate(last._nabla_curvature(x)) if not f.is_zero()]
            assert moved and min(moved) >= 1


def test_curvature_parallel_stops_at_the_first_direction_that_moves(monkeypatch):
    alg = algebra.build(1)
    calls = []
    derivative = cn.Geometry._nabla_curvature
    monkeypatch.setattr(cn.Geometry, "_nabla_curvature",
                        lambda geo, x: calls.append(x) or derivative(geo, x))
    assert not cn.Geometry(alg, cn.levi_civita(alg)).curvature_parallel
    assert 0 < len(calls) < alg.dim
    # control: a parallel curvature is differentiated in every direction that
    # has a nonzero form, the three vertical ones; nabla_{e_x} = 0 for the rest
    calls.clear()
    conn = cn.canonical_connection(alg)
    assert cn.Geometry(alg, conn).curvature_parallel
    assert calls == [x for x, a in enumerate(conn.omega) if not a.is_zero()] == [0, 1, 2]


def test_is_parallel_stops_at_the_first_direction_that_moves(monkeypatch):
    alg = algebra.build(2)
    n = alg.dim
    t = next(perturbed_torsions(alg))
    conn = cn.with_torsion(alg, t)
    derivatives = cn.nabla_tensor(conn, t)
    assert len(derivatives) == n
    calls = []
    act = cn._act_on_form
    monkeypatch.setattr(cn, "_act_on_form", lambda a, f: calls.append(a) or act(a, f))
    assert cn.is_parallel(conn, t) is all(d.is_zero() for d in derivatives) is False
    assert 0 < len(calls) < n
    # control: a parallel form is differentiated in every direction
    calls.clear()
    assert cn.is_parallel(cn.canonical_connection(alg), cn.canonical_torsion(alg))
    assert len(calls) == n


@pytest.mark.parametrize("which", ["canonical", "perturbed", "levi-civita"])
def test_is_parallel_agrees_with_every_derivative(which):
    alg = algebra.build(2)
    if which == "levi-civita":
        conn = cn.levi_civita(alg)
    else:
        t = cn.canonical_torsion(alg) if which == "canonical" else next(perturbed_torsions(alg))
        conn = cn.with_torsion(alg, t)
    tensors = [
        cn.canonical_torsion(alg),
        KForm.basis(alg.dim, alg.vertical_indices),
        two_form_endo(wedge(alg.eta(1), alg.eta(2))),
        Vector.basis(alg.dim, 0),
    ]
    for tensor in tensors:
        derivatives = cn.nabla_tensor(conn, tensor)
        assert len(derivatives) == alg.dim
        assert cn.is_parallel(conn, tensor) == all(d.is_zero() for d in derivatives)
    geo = cn.Geometry(alg, conn)
    derivatives = [curvature_derivative_oracle(geo, a) for a in conn.omega]
    assert geo.curvature_parallel == all(not d[2] for d in derivatives) == (which == "canonical")
    with pytest.raises(TypeError, match="cannot differentiate int"):
        cn.is_parallel(conn, 0)


def transvection_oracle(alg, t):
    """transvection_check on the per-direction connection, its per-pair torsion
    and the covariant derivative of the torsion in every direction."""
    conn = with_torsion_oracle(alg, t)
    geo = cn.Geometry(alg, conn)
    tor = torsion_tensor_oracle(alg, conn)
    geo.torsion_parts = torsion_parts(tor)
    geo.torsion_form = t3 = torsion_form_oracle(alg, tor)
    geo.torsion_parallel = t3 is not None and all(d.is_zero() for d in cn.nabla_tensor(conn, t3))
    return geo.transvection


@pytest.mark.parametrize("p, sample", [(2, None), (4, 24)])
def test_perturbed_torsions_give_the_oracle_witness(p, sample):
    alg = algebra.build(p)
    torsions = list(perturbed_torsions(alg))
    assert len(torsions) == {2: 56, 4: 560}[p]
    if sample is not None:
        torsions = random.Random(17).sample(torsions, sample)
    for t in torsions:
        got = cn.transvection_check(alg, cn.with_torsion(alg, t))
        assert got == transvection_oracle(alg, t) == (False, ("torsion not parallel",))
        # the verdict the refute benchmark reads, as its JSON
        assert json.loads(json.dumps(got[1])) == ["torsion not parallel"]
    # control: the canonical torsion passes on both paths
    if p == 2:
        t = cn.canonical_torsion(alg)
        assert cn.transvection_check(alg, cn.canonical_connection(alg)) == transvection_oracle(alg, t) == (True, None)
