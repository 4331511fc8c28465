import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from benchmarks import gate
from qhg import algebra, connections
from qhg.exterior import Endo, KForm, Vector, ce_differential, wedge
from qhg.scalars import LAM, Scalar
from support import jacobi_oracle


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


def sl2_tables():
    """sl(2) = <h, e, f> and `broken`, the same table with [e, f] = e."""
    h, e, f = (Vector.basis(3, i) for i in range(3))
    table = {(0, 1): e.scale(2), (0, 2): f.scale(-2), (1, 2): h}
    return algebra.StructureConstants(3, table), algebra.StructureConstants(3, {**table, (1, 2): e})


def test_structure_constants_on_a_non_nilpotent_table():
    """sl(2): [h, e] = 2e, [h, f] = -2f, [e, f] = h; Jacobi holds, center is 0."""
    h, e, f = (Vector.basis(3, i) for i in range(3))
    sl2, broken = sl2_tables()
    assert sl2.bracket(e, h) == e.scale(-2)
    assert algebra.jacobi_check(sl2) == (True, None)
    assert algebra.center_dimension(sl2) == 0
    assert algebra.jacobi_check(broken) == (False, (0, 1, 2))


@pytest.mark.parametrize(
    "structure, bad",
    [
        ({(0, 1): (2, 1), (0, 2): (-2, 2), (2, 1): (-1, 1)}, (2, 1)),  # `broken` with [e, f] read as -[f, e]
        ({(0, 1): (2, 1), (1, 1): (1, 1)}, (1, 1)),  # diagonal: [e, e] would read as -e
        ({(0, 1): (2, 1), (1, 3): (1, 1)}, (1, 3)),  # past dim
        ({(-1, 1): (1, 1)}, (-1, 1)),
    ],
)
def test_structure_constants_reject_a_key_outside_i_below_j_below_dim(structure, bad):
    """Every key the table cannot honour is refused by name; `structure` maps
    a key to (c, k), the bracket c e_k.  A reversed key was bracketed by
    `bracket` but never read by Jacobi, which passed the reversed form of
    `broken`; a diagonal key gave [e_1, e_1] != 0."""
    vectors = {key: Vector.basis(3, k).scale(c) for key, (c, k) in structure.items()}
    with pytest.raises(ValueError, match=rf"bracket key \({bad[0]}, {bad[1]}\)"):
        algebra.StructureConstants(3, vectors)


def test_structure_constants_reject_a_vector_of_another_dimension():
    with pytest.raises(ValueError, match=r"bracket \(0, 1\) has dimension 4, not 3"):
        algebra.StructureConstants(3, {(0, 2): Vector.basis(3, 1), (0, 1): Vector.basis(4, 2)})


def test_structure_constants_reject_brackets_of_two_degrees():
    """The table names the first key, in sorted order, whose degree in l is not
    that of the first bracket; zero brackets have no degree and pass."""
    e = [Vector.basis(4, k) for k in range(4)]
    structure = {(1, 2): e[0], (0, 3): e[1].scale(LAM), (0, 1): e[2].scale(LAM * 2), (0, 2): Vector.zero(4)}
    with pytest.raises(ValueError, match=r"^bracket \(1, 2\) has degree 0 in l, not 1 as bracket \(0, 1\)$"):
        algebra.StructureConstants(4, structure)
    structure[(1, 2)] = e[0].scale(LAM * Fraction(1, 3))
    assert algebra.StructureConstants(4, structure).degree == 1
    assert algebra.StructureConstants(4, {(0, 2): Vector.zero(4)}).degree is None


@pytest.mark.parametrize("p", [1, 2, 3])
def test_dilation_is_a_homothety_onto_the_formal_algebra(p):
    """e -> e / l maps the brackets of build(p, 1) onto those of build(p), and
    pulls g back to l^-2 g, exactly: the argument of the `scalars` docstring
    behind every claim for all l > 0.  Negative control: e -> e / l^2 is no
    Lie algebra homomorphism."""
    one, formal = algebra.build(p, 1), algebra.build(p)
    n = one.dim

    def preserves_brackets(scale):
        phi = [one.basis_vector(i).scale(scale) for i in range(n)]
        return all(
            one.bracket_basis(i, j).scale(scale) == formal.bracket(phi[i], phi[j])
            for i, j in combinations(range(n), 2)
        )

    inverse = Scalar(1) / LAM
    assert preserves_brackets(inverse)
    phi = [one.basis_vector(i).scale(inverse) for i in range(n)]
    assert all(phi[i].dot(phi[j]) == (LAM**-2 if i == j else 0) for i in range(n) for j in range(n))
    assert not preserves_brackets(inverse * inverse)


def canonical_hol_m(p):
    alg = algebra.build(p)
    return connections.Geometry(alg, connections.canonical_connection(alg)).transvection_algebra[0]


def negated_hol_m(p):
    """hol + m with the hol components of every m-m bracket negated; Jacobi
    first fails at (3, 4, 6)."""
    table = canonical_hol_m(p)
    h = table.dim - 4 * p - 3
    structure = {(x, y): Vector([-c if a < h else c for a, c in enumerate(v)]) if x >= h else v
                 for (x, y), v in table._sc.items()}
    return algebra.StructureConstants(table.dim, structure)


ORACLE_TABLES = {
    **{f"build({p})": lambda p=p: algebra.build(p) for p in (1, 2, 3)},
    **{f"hol+m({p})": lambda p=p: canonical_hol_m(p) for p in (1, 2, 3)},
    **{f"negated hol+m({p})": lambda p=p: negated_hol_m(p) for p in (1, 2, 3)},
    "sl2": lambda: sl2_tables()[0],
    "broken": lambda: sl2_tables()[1],
    # fails at (0, 1, 3) and (0, 2, 3); the scan meets (0, 2, 3) first, at [v_03, e_2]
    "two-at-0": lambda: algebra.StructureConstants(
        4, {(0, 3): Vector.basis(4, 1), (1, 2): Vector.basis(4, 2), (1, 3): Vector.basis(4, 3)}),
}


@pytest.mark.parametrize("name", ORACLE_TABLES)
def test_jacobi_check_matches_the_triple_by_triple_oracle(name):
    table = ORACLE_TABLES[name]()
    assert algebra.jacobi_check(table) == jacobi_oracle(table)


@st.composite
def sparse_tables(draw):
    """A table of dimension 3..9 with a few sparse brackets of one degree whose
    entries mix denominators; most such tables fail Jacobi at several triples."""
    dim, d = draw(st.integers(3, 9)), draw(st.integers(-1, 2))
    keys = list(combinations(range(dim), 2))
    entries = draw(st.lists(st.tuples(
        st.sampled_from(keys), st.integers(0, dim - 1),  # [e_i, e_j] gets c lam^d e_k
        st.integers(-3, 3).filter(bool), st.integers(1, 4)), max_size=12))
    comps: dict = {}
    for key, k, num, den in entries:
        row = comps.setdefault(key, {})
        row[k] = row.get(k, Scalar(0)) + Scalar({d: Fraction(num, den)})
    structure = {key: Vector([c.get(k, Scalar(0)) for k in range(dim)]) for key, c in comps.items()}
    return algebra.StructureConstants(dim, {key: v for key, v in structure.items() if not v.is_zero()})


@settings(max_examples=120, deadline=None)
@given(sparse_tables())
def test_jacobi_check_matches_the_oracle_on_random_sparse_tables(table):
    failing = [t for t in combinations(range(table.dim), 3) if gate.jacobi_sum_is_nonzero(table, t)]
    expected = (False, failing[0]) if failing else (True, None)
    assert algebra.jacobi_check(table) == jacobi_oracle(table) == expected


def test_jacobi_witnesses_of_all_p4_mutants():
    """All 1,920 mutants [tau_a, tau_b] += lam tau_c of the p = 4 algebra fail
    at the triple of the oracle and of the benchmark's known answer."""
    alg = algebra.build(4)
    horizontal = alg.horizontal_indices
    extras = {c: alg.basis_vector(c).scale(alg.lam) for c in horizontal}
    for a, b in combinations(horizontal, 2):
        for c in horizontal:
            structure = dict(alg._sc)
            structure[(a, b)] = structure[(a, b)] + extras[c] if (a, b) in structure else extras[c]
            mutated = algebra.QHAlgebra(4, alg.lam, structure)
            witness = gate.mutant_witness(4, a, b, c)
            assert algebra.jacobi_check(mutated) == jacobi_oracle(mutated) == (False, witness)


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


def test_ce_differential_reads_only_the_indices_the_form_holds():
    # a form on e^0 and e^5 asks for d e^0 and d e^5, not for all 35 basis differentials
    alg = algebra.build(8)
    asked = []
    table = alg.d_basis_one_form
    alg.d_basis_one_form = lambda i: asked.append(i) or table(i)
    eta, theta = alg.eta(1), alg.theta(3)
    d = ce_differential(wedge(eta, theta).scale(LAM * 3), alg)
    assert sorted(set(asked)) == [0, 5] and len(asked) == 2
    # d(eta ^ theta) = d eta ^ theta - eta ^ d theta, and d theta = 0
    assert d == wedge(ce_differential(eta, alg), theta).scale(LAM * 3)


@pytest.mark.parametrize("p", [1, 2])
def test_ad_is_the_bracket_read_from_the_table(p):
    alg = algebra.build(p)
    e = [alg.basis_vector(a) for a in range(alg.dim)]
    for x in e:
        ad = alg.ad(x)
        assert all(ad.apply(y) == alg.bracket(x, y) for y in e)
    rng = random.Random(p)
    for _ in range(5):
        x, y = (
            Vector([Scalar({d: Fraction(rng.randint(-3, 3), rng.randint(1, 3))}) for _ in range(alg.dim)])
            for d in (rng.randint(-1, 1), rng.randint(-1, 1))
        )
        assert alg.ad(x).apply(y) == alg.bracket(x, y)
    assert alg.ad(alg.xi(1)).is_zero()


def test_specialized_parameter():
    alg = algebra.build(1, Fraction(3, 2))
    assert alg.bracket(alg.tau(1), alg.tau(2)) == alg.xi(1).scale(Fraction(3, 2))
    with pytest.raises(ValueError):
        algebra.build(1, Fraction(-1))


def test_build_accepts_only_a_positive_int_or_fraction():
    # a Scalar, even a negative one, and a float once slipped past the checks
    for bad in (-LAM, Scalar(-1), 0.1):
        with pytest.raises(TypeError, match=f"must be an int or a Fraction, got {type(bad).__name__}$"):
            algebra.build(1, bad)
    for bad in (0, -2, Fraction(-1, 3)):
        with pytest.raises(ValueError, match=f"must be positive, got {bad}$"):
            algebra.build(1, bad)
    assert algebra.build(1, 2).lam == Scalar(2)


@pytest.mark.parametrize("p", [1, 2])
def test_frame_accessors_reject_out_of_range_indices(p):
    alg = algebra.build(p)
    accessors = [
        (alg.xi, 3),
        (alg.eta, 3),
        (alg.tau, 4 * p),
        (alg.theta, 4 * p),
        (alg.quaternionic_plane, p),
    ]
    for accessor, top in accessors:
        accessor(1), accessor(top)  # both ends of the range are accepted
        for bad in (0, -1, top + 1):
            message = rf"^{accessor.__name__}\({bad}\): .* 1\.\.{top}$"
            with pytest.raises(IndexError, match=message):
                accessor(bad)
    # the ends still name the right frame positions
    assert alg.xi(3) == Vector.basis(alg.dim, 2)
    assert alg.tau(4 * p) == Vector.basis(alg.dim, alg.dim - 1)
    assert alg.quaternionic_plane(p) == (2 + p, 2 + 2 * p, 2 + 3 * p, 2 + 4 * p)


@pytest.mark.parametrize("a", [0, 4])
def test_quaternion_action_rejects_an_index_outside_1_to_3(a):
    # 0 would give the identity on H, 4 a bare list error
    alg = algebra.build(1)
    with pytest.raises(ValueError, match=rf"^imaginary unit index must be 1, 2 or 3, got {a}$"):
        algebra.quaternion_action(alg, a)
    assert alg._derived == {}  # the rejected call cached nothing
    assert algebra.quaternion_action(alg, 3).apply(alg.tau(1)) == alg.tau(4)


@pytest.mark.parametrize("p", [1, 2])
def test_d_basis_one_form_rejects_an_index_outside_the_basis(p):
    alg = algebra.build(p)
    for bad in (-1, alg.dim):  # -1 would wrap to the last basis 1-form
        with pytest.raises(IndexError, match=rf"^basis index {bad} outside \[0, {alg.dim}\)$"):
            alg.d_basis_one_form(bad)
    assert alg._derived == {}  # the rejected calls cached nothing
    assert alg.d_basis_one_form(alg.dim - 1).is_zero()  # d theta_4p = 0
    assert alg.d_basis_one_form(0) == algebra.d_eta_closed_form(alg, 1)


def test_derived_values_are_built_once_per_algebra():
    alg = algebra.build(1)
    lc = connections.levi_civita(alg)
    assert connections.levi_civita(alg) is lc
    assert alg.d_basis_one_form(0) is alg.d_basis_one_form(0)
    assert algebra.quaternion_action(alg, 1) is not algebra.quaternion_action(alg, 2)
    # a second algebra, equal to the first, builds its own values
    other = algebra.build(1)
    assert other._derived == {}
    assert connections.levi_civita(other) is not lc
    assert connections.levi_civita(other).omega == lc.omega
    # the memo keeps the name and module the span tracer labels it by
    assert connections.levi_civita.__name__ == "levi_civita"
    assert connections.levi_civita.__module__ == "qhg.connections"


def test_algebra_verdicts_and_their_negative_controls():
    alg = algebra.build(1)
    assert algebra.two_step_nilpotent(alg, alg.vertical_indices)
    assert not algebra.two_step_nilpotent(alg, (0, 1))  # [tau_1, tau_4] = lam xi_3
    e = [Vector.basis(3, i) for i in range(3)]
    sl2 = algebra.StructureConstants(
        3, {(0, 1): e[0].scale(2), (0, 2): e[1].scale(-2), (1, 2): e[2]}
    )
    assert not algebra.two_step_nilpotent(sl2, (0, 1, 2))  # brackets of brackets survive
    assert algebra.quaternion_brackets_check(alg)
    structure = dict(alg._sc)
    structure[(3, 4)] = -structure[(3, 4)]  # [tau_1, tau_2] = -lam xi_1
    flipped = algebra.QHAlgebra(1, alg.lam, structure)
    assert not algebra.quaternion_brackets_check(flipped)
    assert ce_differential(flipped.eta(1), flipped) != algebra.d_eta_closed_form(flipped, 1)
    assert ce_differential(alg.eta(1), alg) == algebra.d_eta_closed_form(alg, 1)


def test_quaternion_brackets_check_fails_for_a_non_skew_unit(monkeypatch):
    """A unit whose skew part is I_1 but which is not skew fails the check
    without raising, and so does a bracket with a horizontal component."""
    alg = algebra.build(1)
    units = {a: algebra.quaternion_action(alg, a) for a in (1, 2, 3)}
    symmetric = Endo(alg.dim, {(3, 4): 1, (4, 3): 1})
    assert not (units[1] + symmetric).is_skew()
    monkeypatch.setattr(algebra, "quaternion_action",
                        lambda alg, a: units[a] + symmetric if a == 1 else units[a])
    assert not algebra.quaternion_brackets_check(alg)
    monkeypatch.undo()
    assert algebra.quaternion_brackets_check(alg)
    structure = dict(alg._sc)
    structure[(3, 4)] = structure[(3, 4)] + Vector.basis(alg.dim, 5).scale(alg.lam)
    assert not algebra.quaternion_brackets_check(algebra.QHAlgebra(1, alg.lam, structure))
