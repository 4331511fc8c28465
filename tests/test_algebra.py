import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from benchmarks import gate
from qhg import algebra, connections
from qhg.exterior import Endo, KForm, Vector, ce_differential, wedge
from qhg.scalars import LAM, ZERO_PART, Scalar
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


def test_bracket_and_ad_reject_a_vector_of_another_dimension():
    """A 5-dim operand of the 7-dim table once gave a 7-dim l xi_1, an 11-dim
    one an IndexError."""
    alg = algebra.build(1)
    with pytest.raises(ValueError, match=r"^bracket operands have dimensions 5 and 5, not 7$"):
        alg.bracket(Vector.basis(5, 3), Vector.basis(5, 4))
    with pytest.raises(ValueError, match=r"^bracket operands have dimensions 7 and 11, not 7$"):
        alg.bracket(alg.tau(1), Vector.basis(11, 9))
    with pytest.raises(ValueError, match=r"^bracket operands have dimensions 11 and 7, not 7$"):
        alg.bracket(Vector.basis(11, 9), alg.tau(1))
    with pytest.raises(ValueError, match=r"^ad operand has dimension 11, not 7$"):
        alg.ad(Vector.basis(11, 9))
    with pytest.raises(ValueError, match=r"^ad operand has dimension 5, not 7$"):
        alg.ad(Vector.basis(5, 3))


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


@st.composite
def pooled_tables(draw):
    """A table of dimension 3..9 whose stored brackets are drawn from a pool of
    2..3 values of one degree and their negatives, so most tables store one
    value at several keys.  A pool value is 1, 2, 1/2 or 1/3 times one of at
    most two sparse vectors (equal entries, other denominators), and a stored
    bracket may be built at twice its value and halved."""
    dim, d = draw(st.integers(3, 9)), draw(st.integers(-1, 2))
    bases = draw(st.lists(st.dictionaries(
        st.integers(0, dim - 1), st.integers(-2, 2).filter(bool), min_size=1, max_size=2), min_size=1, max_size=2))
    pool = draw(st.lists(st.tuples(
        st.sampled_from(bases), st.sampled_from([1, 2, Fraction(1, 2), Fraction(1, 3)])), min_size=2, max_size=3))
    stored = draw(st.lists(st.tuples(
        st.sampled_from(list(combinations(range(dim), 2))), st.sampled_from(pool),
        st.sampled_from([1, -1]), st.booleans()), min_size=3, max_size=10, unique_by=lambda t: t[0]))
    structure = {}
    for key, (base, q), sign, halved in stored:
        f = sign * q * (2 if halved else 1)
        v = Vector([Scalar({d: Fraction(base.get(k, 0)) * f}) for k in range(dim)])
        structure[key] = v.scale(Fraction(1, 2)) if halved else v
    return algebra.StructureConstants(dim, structure)


@st.composite
def solvable_extensions(draw, mutant=False):
    """RD + N of dimension 3..9: N a random 2-step nilpotent table, [x_a, x_b] in
    the span of the z_k, and D the diagonal derivation D x_a = w_a x_a, D z_k =
    u_k z_k, u_k = w_a + w_b for every [x_a, x_b] that meets z_k.  The indices
    are shuffled, each basis vector is rescaled by a random rational and every
    bracket gets one degree in l.  Such a table passes Jacobi, with nonzero
    double brackets such as [[D, x_a], x_b] = w_a [x_a, x_b].  A mutant adds
    c l^d e_k to one stored bracket."""
    gens, centre = draw(st.integers(2, 5)), draw(st.integers(1, 3))
    dim, d = 1 + gens + centre, draw(st.integers(-1, 2))
    w = draw(st.lists(st.integers(-2, 2), min_size=gens, max_size=gens).filter(any))  # D != 0
    pairs = list(combinations(range(gens), 2))
    u = [draw(st.sampled_from([w[a] + w[b] for a, b in pairs])) for _ in range(centre)]
    raw = {}  # (a, b) -> {k: c}, [e_a, e_b] = sum_k c e_k before the rescaling
    for k in range(centre):
        for a, b in draw(st.lists(st.sampled_from([ab for ab in pairs if w[ab[0]] + w[ab[1]] == u[k]]),
                                  min_size=1, max_size=3, unique=True)):
            raw.setdefault((1 + a, 1 + b), {})[1 + gens + k] = draw(st.integers(-3, 3).filter(bool))
    for x, weight in enumerate(w + u, start=1):  # D = e_0
        if weight:
            raw[(0, x)] = {x: weight}
    order = draw(st.permutations(range(dim)))
    scale = [Fraction(draw(st.integers(1, 4)), draw(st.integers(1, 4))) * draw(st.sampled_from([1, -1]))
             for _ in range(dim)]
    comps: dict = {}  # [f_a, f_b] = s_a s_b c / s_k f_k for f_i = s_i e_i, on the shuffled indices
    for (a, b), entries in raw.items():
        x, y = order[a], order[b]
        sign = 1 if x < y else -1
        row = comps.setdefault((min(x, y), max(x, y)), {})
        for k, c in entries.items():
            row[order[k]] = sign * c * scale[a] * scale[b] / scale[k]
    if mutant:
        key = draw(st.sampled_from(sorted(set(comps) | set(combinations(range(dim), 2)))))
        row = comps.setdefault(key, {})
        k = draw(st.integers(0, dim - 1))
        row[k] = row.get(k, 0) + Fraction(draw(st.integers(-3, 3).filter(bool)), draw(st.integers(1, 3)))
    structure = {key: Vector([Scalar({d: row[k]}) if row.get(k) else Scalar(0) for k in range(dim)])
                 for key, row in comps.items()}
    return algebra.StructureConstants(dim, {key: v for key, v in structure.items() if not v.is_zero()})


@settings(max_examples=300, deadline=None)
@given(st.one_of(sparse_tables(), pooled_tables(), solvable_extensions(), solvable_extensions(mutant=True)))
def test_jacobi_check_matches_the_oracle_on_random_sparse_tables(table):
    failing = [t for t in combinations(range(table.dim), 3) if gate.jacobi_sum_is_nonzero(table, t)]
    expected = (False, failing[0]) if failing else (True, None)
    assert algebra.jacobi_check(table) == jacobi_oracle(table) == expected


@settings(max_examples=100, deadline=None)
@given(solvable_extensions())
def test_solvable_extensions_pass_jacobi_with_nonzero_double_brackets(table):
    assert algebra.jacobi_check(table) == (True, None)
    assert any(not table.ad(v).is_zero() for v in table._sc.values())


def dilation_extension(alg, vertical_weight=2):
    """RD + build(p), D the last basis vector: [D, tau] = l tau and [D, xi] =
    vertical_weight l xi, one degree with the brackets lam xi.  D is a derivation,
    the dilation of the solvable algebra of quaternionic hyperbolic space,
    exactly when vertical_weight is 2."""
    n = alg.dim
    structure = {key: Vector([*v, Scalar(0)]) for key, v in alg._sc.items()}
    for i in range(n):
        weight = vertical_weight if i in alg.vertical_indices else 1
        structure[(i, n)] = Vector.basis(n + 1, i).scale(-weight * alg.lam)  # [e_i, D] = -[D, e_i]
    return algebra.StructureConstants(n + 1, structure)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_dilation_extension_passes_jacobi_and_has_no_centre(p):
    """The extension passes Jacobi through nonzero double brackets: [[D, tau_a],
    tau_b] = l [tau_a, tau_b].  D acts on every basis vector, so the centre is 0,
    and the table is not 2-step nilpotent.  Negative control: D xi = xi is no
    derivation, and Jacobi fails at the oracle's first triple."""
    alg = algebra.build(p)
    table = dilation_extension(alg)
    assert algebra.jacobi_check(table) == jacobi_oracle(table) == (True, None)
    assert algebra.center_dimension(table) == 0
    assert not algebra.two_step_nilpotent(table, alg.vertical_indices)
    assert not algebra.two_step_nilpotent(table, tuple(range(table.dim)))
    wrong = dilation_extension(alg, vertical_weight=1)
    ok, triple = algebra.jacobi_check(wrong)
    assert not ok and (ok, triple) == jacobi_oracle(wrong) and gate.jacobi_sum_is_nonzero(wrong, triple)


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


def bracket_calls(table, monkeypatch) -> Counter:
    """Run `jacobi_check` on a passing table and count its `bracket` calls by
    (value of the first operand, index of the basis vector in the second)."""
    calls = Counter()
    bracket = algebra.StructureConstants.bracket

    def counted(sc, x, y):
        (c,) = y.part[2]
        assert y == sc.basis_vector(c)
        calls[tuple(x), c] += 1
        return bracket(sc, x, y)

    monkeypatch.setattr(algebra.StructureConstants, "bracket", counted)
    monkeypatch.setattr(algebra.QHAlgebra, "bracket", counted)
    assert algebra.jacobi_check(table) == (True, None)
    return calls


def needed_products(table) -> Counter:
    """Each pair of a distinct stored value v and an index c outside {a, b}
    for some stored (a, b) with value v, once."""
    return Counter({(tuple(v), c): 1 for (a, b), v in table._sc.items() if not v.is_zero()
                    for c in range(table.dim) if c not in (a, b)})


CALL_COUNT_TABLES = {
    **{f"build({p})": (lambda p=p: algebra.build(p), calls) for p, calls in ((1, 24), (2, 44), (3, 60))},
    **{f"hol+m({p})": (lambda p=p: canonical_hol_m(p), calls) for p, calls in ((1, 248), (2, 548))},
}


@pytest.mark.parametrize("name", CALL_COUNT_TABLES)
def test_jacobi_check_brackets_every_product_of_a_passing_table(name, monkeypatch):
    """On a table that passes, `bracket` runs exactly once on each distinct
    stored value v and each e_c that a stored bracket of value v meets, zero
    or not: no double bracket is assumed zero, and none is computed twice."""
    build, expected = CALL_COUNT_TABLES[name]
    table = build()
    calls = bracket_calls(table, monkeypatch)
    assert calls == needed_products(table)
    assert sum(calls.values()) == expected


def test_equal_stored_brackets_built_differently_share_their_products(monkeypatch):
    """[e_1, e_2] = (2l e_0) / 2 and [e_3, e_4] = l e_0 are one value and share
    its five products; l/2 e_0 (equal entries, another denominator) and -l e_0
    are two more values, three products each."""
    e0 = Vector.basis(5, 0)
    structure = {(1, 2): e0.scale(LAM * 2).scale(Fraction(1, 2)), (3, 4): e0.scale(LAM),
                 (1, 3): e0.scale(LAM / 2), (2, 4): e0.scale(-LAM)}
    table = algebra.StructureConstants(5, structure)
    assert structure[1, 2].part == structure[3, 4].part
    calls = bracket_calls(table, monkeypatch)
    assert calls == needed_products(table) and sum(calls.values()) == 5 + 3 + 3


@pytest.mark.parametrize("name", ["build(2)", "hol+m(1)"])
def test_a_zero_product_is_the_shared_zero_vector(name):
    """A product that no table entry meets, and `bracket_basis` of an absent
    pair, are the zero vector on the shared ZERO_PART, one object per table;
    +, - and scale on it build new values and leave it zero."""
    table = CALL_COUNT_TABLES[name][0]()
    n = table.dim
    i, j = next((i, j) for i, j in combinations(range(n), 2) if j not in table._parts[i])
    zero = table.bracket(table.basis_vector(i), table.basis_vector(j))
    assert zero == Vector.zero(n) and zero.part is ZERO_PART
    assert table.bracket(table.basis_vector(j), table.basis_vector(i)) is zero
    assert table.bracket(Vector.zero(n), Vector([1] * n)) is zero
    assert table.bracket_basis(i, j) is zero and table.bracket_basis(j, i) is zero
    x = table.bracket_basis(*next((i, j) for i, row in enumerate(table._parts) for j in row))
    for value, expected in ((zero + zero, Vector.zero(n)), (zero + x, x), (zero - x, -x), (-zero, Vector.zero(n)),
                            (zero.scale(LAM), Vector.zero(n))):
        assert value is not zero and value == expected
    assert zero == Vector.zero(n) and zero.part is ZERO_PART


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
