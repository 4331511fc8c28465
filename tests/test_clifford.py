import random
from fractions import Fraction

import pytest

from qhg import algebra, clifford as cl, connections as cn
from qhg.exterior import Endo, KForm, Vector, endo_two_form, two_form_endo
from qhg.scalars import Scalar
from support import dual, random_form, rational_value


def rand_spinor(rng):
    return Vector([Scalar(Fraction(rng.randint(-4, 4))) for _ in range(8)])


def rand_skew(rng, n=7):
    entries = {}
    for i in range(n):
        for j in range(i + 1, n):
            c = Fraction(rng.randint(-3, 3))
            if c:
                entries[(i, j)] = Scalar(-c)
                entries[(j, i)] = Scalar(c)
    return Endo(n, entries)


def test_clifford_relations():
    g = cl.gamma()
    minus_two = Endo.identity(8).scale(-2)
    for i in range(7):
        for j in range(7):
            anti = g[i].compose(g[j]) + g[j].compose(g[i])
            assert anti == (minus_two if i == j else Endo.zero(8))


def test_entries_are_signs():
    for g in cl.build_gamma():
        for c in g.m.values():
            assert rational_value(c) in (-1, 0, 1)  # raises if c carries l


def test_volume_element_is_plus_identity():
    assert cl.volume_sign() == 1
    prod = cl.gamma_product(tuple(range(7)))
    assert prod.compose(prod) == Endo.identity(8)


def test_one_form_squares_to_minus_norm():
    rng = random.Random(41)
    for _ in range(10):
        a = random_form(rng, 7, 1)
        s = rand_spinor(rng)
        m = cl.clifford_matrix(a)
        norm2 = sum(
            (c * c for c in (a.coeff((i,)) for i in range(7))), Scalar(0)
        )
        assert m.apply(m.apply(s)) == s.scale(-norm2)


def test_vertical_volume_action_is_triple_product():
    rng = random.Random(42)
    alg = algebra.build(1)
    eta123 = KForm.basis(7, (0, 1, 2))
    g = cl.gamma()
    triple = g[0].compose(g[1]).compose(g[2])
    for _ in range(5):
        s = rand_spinor(rng)
        assert cl.clifford_matrix(eta123).apply(s) == triple.apply(s)


def test_clifford_matrix_and_vector_action_need_dimension_7():
    with pytest.raises(ValueError, match="needs ambient dimension 7, got 11"):
        cl.clifford_matrix(KForm.basis(11, (0, 1)))
    with pytest.raises(ValueError, match="needs ambient dimension 7, got 11"):
        cl.vector_action(Vector.basis(11, 0), Vector.zero(8))


def test_spin_lift_zero():
    assert cl.spin_lift(Endo.zero(7)) == Endo.zero(8)


def test_spin_lift_rejects_non_skew():
    with pytest.raises(ValueError):
        cl.spin_lift(Endo.identity(7))


@pytest.mark.parametrize("dim", [6, 8, 11])
def test_spin_lift_rejects_another_dimension(dim):
    skew = Endo(dim, {(0, dim - 1): 1, (dim - 1, 0): -1})
    with pytest.raises(ValueError, match=f"^Clifford action needs ambient dimension 7, got {dim}$"):
        cl.spin_lift(skew)
    with pytest.raises(ValueError, match=f"got {dim}$"):
        cl.spin_lift(Endo.zero(dim))


def test_spin_lift_homomorphism_random():
    rng = random.Random(43)
    for _ in range(50):
        a = rand_skew(rng)
        b = rand_skew(rng)
        lhs = cl.spin_lift(a.commutator(b))
        rhs = cl.spin_lift(a).commutator(cl.spin_lift(b))
        assert lhs == rhs


def test_spin_lift_commutes_with_vector_action():
    rng = random.Random(44)
    g = cl.gamma()
    for _ in range(20):
        a = rand_skew(rng)
        lift = cl.spin_lift(a)
        for i in range(7):
            x = Vector.basis(7, i)
            lhs = lift.commutator(g[i])
            ax = a.apply(x)
            rhs = Endo.zero(8)
            for k, c in enumerate(ax):
                if not c.is_zero():
                    rhs = rhs + g[k].scale(c)
            assert lhs == rhs


def test_su2_lift_bracket():
    alg = algebra.build(1)
    h = [two_form_endo(f) for f in cn.su2_generators(alg)]
    rho = [cl.spin_lift(e) for e in h]
    assert cl.spin_lift(h[0].commutator(h[1])) == rho[0].commutator(rho[1])
    assert rho[0].commutator(rho[1]) == rho[2].scale(2)


def test_two_form_action_doubles_lift():
    rng = random.Random(45)
    for _ in range(10):
        a = random_form(rng, 7, 2)
        assert cl.clifford_matrix(a) == cl.spin_lift(two_form_endo(a)).scale(2)


def test_action_is_skew_for_invariant_product():
    rng = random.Random(46)
    g = cl.gamma()
    for i in range(7):
        s = rand_spinor(rng)
        t = rand_spinor(rng)
        assert g[i].apply(s).dot(t) == -s.dot(g[i].apply(t))


def test_relations_and_lift_checks_can_fail(monkeypatch):
    a = rand_skew(random.Random(47))
    assert cl.relations_check() and cl.lift_check(a)
    lift = cl.spin_lift
    monkeypatch.setattr(cl, "spin_lift", lambda e: lift(e).scale(2))
    assert not cl.lift_check(a)
    # flipping one generator keeps the anticommutation relations but not the volume sign
    flipped = [g.scale(-1) if i == 0 else g for i, g in enumerate(cl.build_gamma())]
    monkeypatch.setattr(cl, "gamma", lambda: flipped)
    monkeypatch.setattr(cl, "_PRODUCTS", {})
    assert cl.volume_sign() == -1 and not cl.relations_check()


def test_lift_clause_compares_two_constructions(monkeypatch):
    """The 2-form clause of `lift_check` sets the products i < j of
    `clifford_matrix` against `spin_lift`, which takes each pair in both
    orders.  One product i < j shifted by the identity, which commutes with
    every generator, fails that clause alone: the commutator clause holds."""
    a = rand_skew(random.Random(47))
    i, j = next((i, j) for (j, i) in sorted(a.m) if i < j)  # A[j, i] != 0
    assert cl.lift_check(a)
    g, shifted = cl.gamma(), cl.gamma_product((i, j)) + Endo.identity(8)
    monkeypatch.setitem(cl._PRODUCTS, (i, j), shifted)
    assert not cl.lift_check(a)
    lift = cl.spin_lift(a)
    for x in range(7):
        image = Endo.zero(8)
        for k, c in enumerate(a.apply(Vector.basis(7, x))):
            image = image + g[k].scale(c)
        assert lift.commutator(g[x]) == image


# -- dense oracles: the definitions the checks replaced -------------------------


def relations_oracle():
    """All 7 x 7 anticommutators, and the volume sign."""
    g, minus_two = cl.gamma(), Endo.identity(8).scale(-2)
    return cl.volume_sign() == 1 and all(
        g[i].compose(g[j]) + g[j].compose(g[i]) == (minus_two if i == j else Endo.zero(8))
        for i in range(7)
        for j in range(7)
    )


def lift_oracle(a):
    """[lift(A), X] = AX with a Clifford matrix per basis 1-form."""
    lift = cl.spin_lift(a)
    for i in range(7):
        x = Vector.basis(7, i)
        if lift.commutator(cl.clifford_matrix(dual(x))) != cl.clifford_matrix(dual(a.apply(x))):
            return False
    return cl.clifford_matrix(endo_two_form(a)) == lift.scale(2)


def _lift_inputs():
    alg = algebra.build(1)
    rng = random.Random(48)
    return (
        [two_form_endo(f) for f in cn.su2_generators(alg)]
        + cn.levi_civita(alg).omega
        + [rand_skew(rng) for _ in range(5)]
    )


def test_relations_and_lift_checks_match_the_oracles(monkeypatch):
    inputs = _lift_inputs()
    assert cl.relations_check() and relations_oracle()
    assert all(cl.lift_check(a) and lift_oracle(a) for a in inputs)
    # g_1 doubled and g_2 halved: the volume element and every anticommutator
    # of distinct generators hold, only the squares fail
    g = cl.build_gamma()
    rescaled = [g[0], g[1].scale(2), g[2].scale(Fraction(1, 2)), *g[3:]]
    monkeypatch.setattr(cl, "gamma", lambda: rescaled)
    monkeypatch.setattr(cl, "_PRODUCTS", {})
    assert cl.volume_sign() == 1
    assert not cl.relations_check() and not relations_oracle()
    for a in inputs:
        assert cl.lift_check(a) == lift_oracle(a)


def _outcome(check, *args):
    """The verdict of check(*args), or the type of the ArithmeticError it
    raises (`volume_sign` raises when the volume element is no multiple of Id)."""
    try:
        return check(*args)
    except ArithmeticError as err:
        return type(err)


@pytest.mark.parametrize("generator", range(7))
def test_relations_and_lift_checks_match_the_oracles_with_a_negated_generator_entry(
    generator, monkeypatch
):
    """Each of the 8 entries of the generator negated in turn, and the whole
    generator negated."""
    inputs, g = _lift_inputs(), cl.build_gamma()
    entries = [{key} for key in sorted(g[generator].m)] + [set(g[generator].m)]
    for keys in entries:
        flipped = Endo(8, {k: -v if k in keys else v for k, v in g[generator].m.items()})
        mutated = [flipped if i == generator else x for i, x in enumerate(g)]
        monkeypatch.setattr(cl, "gamma", lambda: mutated)
        monkeypatch.setattr(cl, "_PRODUCTS", {})
        verdict = _outcome(cl.relations_check)
        assert verdict == _outcome(relations_oracle) and verdict in (False, ArithmeticError)
        for a in inputs:
            assert cl.lift_check(a) == lift_oracle(a)
