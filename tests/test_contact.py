import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd

import pytest

from qhg import algebra, connections as cn, contact as ct
from qhg.exterior import Endo, KForm, ce_differential, two_form_endo
from qhg.linalg import nullspace, rref, solve
from qhg.scalars import LAM, ONE, ZERO, Scalar


@pytest.mark.parametrize("p", [1, 2, 3])
def test_structure_images(p):
    alg = algebra.build(p)
    phi1 = ct.build_phi(alg, 1)
    phi2 = ct.build_phi(alg, 2)
    assert phi1.phi.apply(alg.tau(1)) == alg.tau(p + 1)
    assert phi1.phi.apply(alg.xi(2)) == alg.xi(3)
    assert phi2.phi.apply(alg.tau(p + 1)) == -alg.tau(3 * p + 1)


def test_build_phi_rejects_bad_index():
    alg = algebra.build(1)
    with pytest.raises(ValueError):
        ct.build_phi(alg, 4)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_almost_contact_axioms(p):
    alg = algebra.build(p)
    for i in (1, 2, 3):
        assert ct.almost_contact_axioms(alg, ct.build_phi(alg, i))


@pytest.mark.parametrize("p", [1, 2, 3])
def test_compatibility(p):
    alg = algebra.build(p)
    ok, witness = ct.compatibility_check(alg)
    assert ok and witness is None


def test_inconsistent_variant_fails_compatibility():
    alg = algebra.build(1)
    bad = [
        ct.build_phi(alg, 1),
        ct.build_phi(alg, 2, inconsistent_variant=True),
        ct.build_phi(alg, 3),
    ]
    ok, witness = ct.compatibility_check(alg, bad)
    assert not ok and witness is not None
    # the inconsistent variant is not even almost contact metric
    assert not ct.almost_contact_axioms(alg, bad[1])


@pytest.mark.parametrize("p", [1, 2, 3])
def test_normality(p):
    alg = algebra.build(p)
    for i in (1, 2, 3):
        assert ct.normality_check(alg, i)


def test_normality_negative_control():
    # dropping the eta_2 (x) xi_3 term breaks normality
    alg = algebra.build(1)
    ac = ct.build_phi(alg, 1)
    broken = Endo(
        alg.dim, {k: v for k, v in ac.phi.m.items() if k != (2, 1)}
    )
    bad = ct.AlmostContact(broken, ac.xi, ac.eta, 1)
    assert not ct.normality_check(alg, 1, bad)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_not_quasi_sasaki(p):
    alg = algebra.build(p)
    for i in (1, 2, 3):
        assert not ct.quasi_sasaki_check(alg, i)
        # normality holds, so failure comes from dF != 0
        f = ct.fundamental_form(alg, ct.build_phi(alg, i))
        assert not ce_differential(f, alg).is_zero()


def test_fundamental_form_values():
    alg = algebra.build(1)
    f1 = ct.fundamental_form(alg, ct.build_phi(alg, 1))
    # F(X, Y) = g(X, phi Y): phi_1 tau_2 = -tau_1 gives F(tau_1, tau_2) = -1
    assert f1.evaluate(alg.tau(1), alg.tau(2)) == Scalar(-1)
    assert f1.evaluate(alg.xi(2), alg.xi(3)) == Scalar(-1)


def test_characteristic_torsion_formula():
    alg = algebra.build(1)
    t1 = ct.contact_characteristic_torsion(alg, 1)
    from qhg.exterior import wedge

    expected = (
        wedge(alg.eta(1), ce_differential(alg.eta(1), alg))
        - wedge(alg.eta(2), ce_differential(alg.eta(2), alg))
        - wedge(alg.eta(3), ce_differential(alg.eta(3), alg))
    )
    assert t1 == expected
    assert t1 != ct.contact_characteristic_torsion(alg, 2)


def test_characteristic_connection_parallelism():
    alg = algebra.build(1)
    for i in (1, 2, 3):
        conn = ct.characteristic_connection(alg, i)
        ac = ct.build_phi(alg, i)
        assert cn.is_parallel(conn, ac.phi)
        assert cn.is_parallel(conn, ac.eta)
        assert cn.is_parallel(conn, ac.xi)


def test_characteristic_connection_not_cross_adapted():
    alg = algebra.build(1)
    conn1 = ct.characteristic_connection(alg, 1)
    assert not cn.is_parallel(conn1, ct.build_phi(alg, 2).phi)


def test_characteristic_connection_needs_p1():
    with pytest.raises(ValueError):
        ct.characteristic_connection(algebra.build(2), 1)


@pytest.mark.parametrize("i", [0, 4])
@pytest.mark.parametrize("build", [ct.contact_characteristic_torsion, ct.characteristic_connection])
def test_characteristic_structures_reject_an_index_outside_1_to_3(build, i):
    # without the check, i = 0 or 4 gives the torsion with every term negated
    alg = algebra.build(1)
    with pytest.raises(ValueError, match=rf"^structure index must be 1, 2 or 3, got {i}$"):
        build(alg, i)
    assert alg._derived == {}  # the rejected call cached nothing
    assert build(alg, 3) is build(alg, 3)


# -- qc structure ---------------------------------------------------------------


@pytest.mark.parametrize("p", [1, 2, 3])
def test_qc_axioms(p):
    alg = algebra.build(p)
    assert ct.qc_axioms_check(alg, ct.build_qc(alg))


def test_qc_values():
    alg = algebra.build(1)
    qc = ct.build_qc(alg)
    d1 = ce_differential(qc.one_forms[0], alg)
    assert d1.evaluate(alg.tau(1), alg.tau(2)) == Scalar(2)
    for l in range(1, 5):
        for f in qc.one_forms:
            assert f.evaluate(alg.tau(l)).is_zero()
    assert qc.reeb[0] == alg.xi(1).scale(LAM * Fraction(-1, 2))


@pytest.mark.parametrize("p", [1, 2])
def test_qc_preservation(p):
    alg = algebra.build(p)
    assert ct.qc_preservation_check(alg, cn.canonical_connection(alg))
    assert not ct.qc_preservation_check(alg, cn.levi_civita(alg))
    assert ct.qc_preservation_check(alg, cn.flat_connection(alg))


def test_flat_connection_biquard_properties():
    alg = algebra.build(1)
    flat = cn.flat_connection(alg)
    assert cn.curvature(alg, flat).is_zero()
    assert cn.holonomy(alg, flat) == []
    assert not cn.torsion_is_skew(alg, flat)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_qc_unique_skew(p):
    # no splitting rows are imposed: the Reeb equation forces the splitting
    alg = algebra.build(p)
    dim, torsion = ct.qc_unique_skew(alg)
    assert dim == 1
    assert torsion == cn.canonical_torsion(alg)


@pytest.mark.parametrize("p, dim", [(1, 6), (2, 13), (3, 24)])
def test_qc_functionals_cut_out_sp_p_plus_sp_1(p, dim):
    """The skew forms preserving the qc structure are sp(p) + sp(1), of
    dimension 2p^2 + p + 3."""
    alg = algebra.build(p)
    nb = alg.dim * (alg.dim - 1) // 2
    assert dim == 2 * p * p + p + 3
    rows = ct._qc_functionals(alg, ct.build_qc(alg))
    assert all(type(v) is int for row in rows for v in row.values())
    assert nb - len(rref(rows, nb)[0]) == dim


def test_qc_functionals_are_exact_for_any_defect_denominator(monkeypatch):
    # the defects are integral here: divide the defect of B_k by k + 2, then undo it on column k
    alg = algebra.build(1)
    qc = ct.build_qc(alg)
    plain = ct._qc_functionals(alg, qc)
    defect, calls = ct._qc_defect, []

    def divided(alg, qc, a):
        calls.append(a)
        return {d: (den * (len(calls) + 1), e) for d, (den, e) in defect(alg, qc, a).items()}

    monkeypatch.setattr(ct, "_qc_defect", divided)
    rows = ct._qc_functionals(alg, qc)
    assert all(type(v) is int for row in rows for v in row.values())

    def primitive(row):
        g = gcd(*row.values()) * (1 if row[min(row)] > 0 else -1)
        return tuple(sorted((k, v // g) for k, v in row.items()))

    undone = {primitive({k: v * (k + 2) for k, v in row.items()}) for row in rows}
    assert undone == {primitive(row) for row in plain}


@pytest.mark.parametrize("p, dim", [(1, 9), (2, 16)])
def test_qc_kernel_grows_without_the_reeb_rows(p, dim):
    # negative control: the I (x) I rows alone leave the kernel larger than sp(p) + sp(1)
    n = algebra.build(p).dim
    nb = n * (n - 1) // 2
    rows = _sparse(_reference_rows(p)["I"])
    assert nb - len(rref(rows, nb)[0]) == dim != 2 * p * p + p + 3


def test_qc_unique_skew_rejects_koszul_coefficients_of_mixed_degree(monkeypatch):
    # the solve runs at l = 1 and scales the torsion back by l^d, which needs one degree d
    alg = algebra.build(1)
    bump = KForm(alg.dim, 3, {(3, 4, 5): ONE})
    monkeypatch.setattr(ct, "levi_civita", lambda a: cn.with_torsion(a, bump))
    with pytest.raises(ArithmeticError, match=r"^Levi-Civita forms at index \(\d+, \d, \d\): "):
        ct.qc_unique_skew(alg)


def test_qc_unique_skew_specialized_parameter():
    alg = algebra.build(1, Fraction(2))
    dim, torsion = ct.qc_unique_skew(alg)
    assert dim == 1
    assert torsion == cn.canonical_torsion(alg)


def test_qc_unique_skew_without_splitting_constraint():
    # the Reeb-tensor condition forces the splitting for skew forms, so the
    # rows the solve uses span the explicit splitting rows as well, and
    # leaving those out does not enlarge the space
    alg = algebra.build(1)
    nb = alg.dim * (alg.dim - 1) // 2
    used = rref(ct._qc_functionals(alg, ct.build_qc(alg)), nb)
    assert used == rref(_sparse(_reference_functionals(1, True)), nb)
    dim, torsion = ct.qc_unique_skew(alg)
    assert dim == 1
    assert torsion == cn.canonical_torsion(alg)


@pytest.mark.parametrize(
    "p, lam", [(1, Fraction(3, 2)), (1, Fraction(2, 7)), (2, Fraction(5))], ids=["1-3/2", "1-2/7", "2-5"]
)
def test_qc_unique_skew_at_a_non_integral_parameter(p, lam):
    # the Levi-Civita forms carry denominators here, so each form's rows are scaled by its own
    alg = algebra.build(p, lam)
    assert any(den != 1 for x in range(alg.dim) for den, _ in cn.levi_civita(alg).form(x).parts.values())
    assert ct.qc_unique_skew(alg) == (1, cn.canonical_torsion(alg))


def _off_by_one(where):
    """solve, with one unit added to the first rhs or to the first unknown."""

    def perturbed(rows, rhs, ncols):
        if where == "rhs":
            rhs = [rhs[0] + 1, *rhs[1:]]
        x, kernel = solve(rows, rhs, ncols)
        if where == "solution" and x is not None:
            x = [x[0] + 1, *x[1:]]
        return x, kernel

    return perturbed


@pytest.mark.parametrize("where", ["rhs", "solution"])
def test_qc_unique_skew_rejects_a_solution_off_by_one(monkeypatch, where):
    # negative control: a rhs or a particular solution off by one unit gives no torsion
    alg = algebra.build(1, Fraction(3, 2))
    monkeypatch.setattr(ct, "solve", _off_by_one(where))
    assert ct.qc_unique_skew(alg) == (0, None)


# -- the qc-defect map: negative controls and a dense reference ---------------


def _rotation(alg, a: int, b: int) -> Endo:
    return two_form_endo(KForm(alg.dim, 2, {(a, b): ONE}))


def _connection_with_form(alg, x: int, form: Endo) -> cn.Connection:
    omega = [Endo.zero(alg.dim) for _ in range(alg.dim)]
    omega[x] = form
    return cn.Connection(omega)


@pytest.mark.parametrize("p", [1, 2])
def test_qc_vertical_rotation_breaks_only_the_reeb_equation(p):
    alg = algebra.build(p)
    qc = ct.build_qc(alg)
    rot = _rotation(alg, 1, 2)  # xi_2 -> xi_3; commutes with every I_i
    conn = _connection_with_form(alg, 0, rot)
    assert _preserves_splitting(alg, conn)
    assert not ct.qc_preservation_check(alg, conn)
    assert ct._qc_defect(alg, qc, rot)
    assert _reference_broken_halves(qc, rot, alg.dim) == {"xi"}


@pytest.mark.parametrize("p", [1, 2])
def test_qc_horizontal_rotation_off_the_commutant_is_rejected(p):
    alg = algebra.build(p)
    qc = ct.build_qc(alg)
    rot = _rotation(alg, 3, 4)  # tau_1 -> tau_2
    assert any(not rot.commutator(e).is_zero() for e in qc.complex_structures)
    conn = _connection_with_form(alg, 3, rot)
    assert _preserves_splitting(alg, conn)
    assert not ct.qc_preservation_check(alg, conn)
    assert ct._qc_defect(alg, qc, rot)
    # at p = 1 every horizontal rotation lies in so(4) = sp(1) + sp(1), which
    # keeps sum_i I_i (x) I_i, so there only the Reeb equation can break
    assert _reference_broken_halves(qc, rot, alg.dim) == ({"xi"} if p == 1 else {"I", "xi"})


def _preserves_splitting(alg, conn: cn.Connection) -> bool:
    """No connection form joins a vertical and a horizontal index."""
    return not any(
        alg.is_vertical(r) != alg.is_vertical(c)
        for i in range(alg.dim)
        for _, e in conn.form(i).parts.values()
        for r, c in e
    )


def _reference_broken_halves(qc, a: Endo, n: int) -> set[str]:
    """Which of the two qc equations, "I" for sum_i [A, I_i] (x) I_i + I_i (x) [A, I_i]
    and "xi" for sum_i (A reeb_i) (x) I_i + reeb_i (x) [A, I_i], fail for one
    connection form, as dense pair loops."""
    brackets = [a.commutator(e) for e in qc.complex_structures]
    pairs = set()
    for e in qc.complex_structures + brackets:
        pairs.update(e.m.keys())
    broken = set()
    for ab in pairs:
        for cd in pairs:
            total = ZERO
            for e, br in zip(qc.complex_structures, brackets):
                total = total + br.entry(*ab) * e.entry(*cd) + e.entry(*ab) * br.entry(*cd)
            if not total.is_zero():
                broken.add("I")
    images = [a.apply(v) for v in qc.reeb]
    for slot in range(n):
        for cd in pairs:
            total = ZERO
            for img, reeb_v, e, br in zip(images, qc.reeb, qc.complex_structures, brackets):
                total = total + img[slot] * e.entry(*cd) + reeb_v[slot] * br.entry(*cd)
            if not total.is_zero():
                broken.add("xi")
    return broken


def _reference_form_preserves(alg, qc, a: Endo) -> bool:
    """The full qc test of one connection form: the splitting and both equations."""
    return _preserves_splitting(alg, _connection_with_form(alg, 0, a)) and not (
        _reference_broken_halves(qc, a, alg.dim)
    )


def _reference_functionals(p: int, require_splitting: bool) -> list[list[Fraction]]:
    """The qc equations as dense rows over the skew basis e_a ^ e_b, a < b:
    both halves, and the splitting when `require_splitting` is set."""
    rows = _reference_rows(p)
    return (rows["split"] if require_splitting else []) + rows["I"] + rows["xi"]


@lru_cache(maxsize=None)
def _reference_rows(p: int) -> dict[str, list[list[Fraction]]]:
    """The nonzero dense rows of the splitting ("split") and of the two qc
    equations ("I", "xi"), written out over every (ab, cd) pair touching a
    structure entry."""
    alg = algebra.build(p)
    qc = ct.build_qc(alg)
    n = alg.dim
    skew_basis = list(combinations(range(n), 2))
    nb = len(skew_basis)
    coords = {pair: idx for idx, pair in enumerate(skew_basis)}
    struct_entries = [
        {k: v.rational_value() for k, v in e.m.items()} for e in qc.complex_structures
    ]
    bracket_index = [{}, {}, {}]
    for k, ab in enumerate(skew_basis):
        b_k = _rotation(alg, *ab)
        for i, i_s in enumerate(qc.complex_structures):
            for pq, v in b_k.commutator(i_s).m.items():
                bracket_index[i].setdefault(pq, []).append((k, v.rational_value()))
    support = set()
    for i in range(3):
        support.update(struct_entries[i])
        support.update(bracket_index[i])
    support = sorted(support)

    rows = {"split": [], "I": [], "xi": []}
    for v in alg.vertical_indices:
        for h in alg.horizontal_indices:
            row = [Fraction(0)] * nb
            row[coords[(v, h)]] = Fraction(1)
            rows["split"].append(row)
    all_pairs = [(r, c) for r in range(n) for c in range(n) if r != c]
    eq_keys = {(ab, cd) for ab in all_pairs for cd in support}
    eq_keys |= {(ab, cd) for ab in support for cd in all_pairs}
    for ab, cd in sorted(eq_keys):
        row = [Fraction(0)] * nb
        for i in range(3):
            s_cd = struct_entries[i].get(cd)
            if s_cd:
                for k, v in bracket_index[i].get(ab, ()):
                    row[k] += v * s_cd
            s_ab = struct_entries[i].get(ab)
            if s_ab:
                for k, v in bracket_index[i].get(cd, ()):
                    row[k] += s_ab * v
        rows["I"].append(row)
    for slot in range(n):
        for cd in support:
            row = [Fraction(0)] * nb
            for i in range(3):
                s_cd = struct_entries[i].get(cd)
                if s_cd:
                    # (B_ab xi_{i+1})[slot]: +1 when ab = (i, slot), -1 when (slot, i)
                    if i < slot:
                        row[coords[(i, slot)]] += s_cd
                    elif slot < i:
                        row[coords[(slot, i)]] -= s_cd
                if slot == i:
                    for k, v in bracket_index[i].get(cd, ()):
                        row[k] += v
            rows["xi"].append(row)
    return {group: [row for row in group_rows if any(row)] for group, group_rows in rows.items()}


def _sparse(rows):
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


@pytest.mark.parametrize(
    "p, require_splitting", [(1, True), (1, False), (2, True), (2, False)]
)
def test_qc_functionals_match_the_dense_reference(p, require_splitting):
    # on skew forms the Reeb rows alone span the splitting and both halves
    alg = algebra.build(p)
    nb = alg.dim * (alg.dim - 1) // 2
    new = ct._qc_functionals(alg, ct.build_qc(alg))
    reduced = rref(new, nb)
    assert reduced == rref(_sparse(_reference_functionals(p, require_splitting)), nb)
    # exact duplicates dropped
    assert len(new) == len({tuple(sorted(row.items())) for row in new})
    if p == 2:
        assert len(reduced[0]) == 42


@pytest.mark.parametrize("p", [1, 2])
def test_qc_defect_vanishes_exactly_when_the_reference_preserves(p):
    alg = algebra.build(p)
    qc = ct.build_qc(alg)
    n = alg.dim
    skew_basis = list(combinations(range(n), 2))
    kernel = nullspace(_sparse(_reference_functionals(p, True)), len(skew_basis))
    blocks = [
        ab for ab in skew_basis if alg.is_vertical(ab[0]) == alg.is_vertical(ab[1])
    ]
    mixed = [ab for ab in skew_basis if ab not in blocks]
    rng = random.Random(7 + p)
    verdicts, kinds = [], set()
    for _ in range(30):
        comps = {}
        for vec in rng.sample(kernel, 3):
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            for k, v in enumerate(vec):
                if v:
                    comps[skew_basis[k]] = comps.get(skew_basis[k], 0) + c * v
        if rng.random() < 0.5:  # leave the qc-preserving forms, inside the blocks or across
            kind = rng.choice(("block", "mixed"))
            ab = rng.choice(blocks if kind == "block" else mixed)
            comps[ab] = comps.get(ab, 0) + rng.randint(1, 2)
            kinds.add(kind)
        form = two_form_endo(KForm(n, 2, comps))
        defect = ct._qc_defect(alg, qc, form)
        assert (not defect) == _reference_form_preserves(alg, qc, form)
        verdicts.append(not defect)
    assert True in verdicts and False in verdicts
    assert kinds == {"block", "mixed"}


@pytest.mark.parametrize("p", [1, 2, 3])
def test_reeb_equation_alone_decides_qc_preservation_on_gl_n(p):
    """Over all n^2 matrix units, skew or not, the Reeb rows of `_qc_defect`
    cut out gl(p, H) + sp(1), of dimension 4p^2 + 3: the splitting and the
    I (x) I equation follow, which the dense oracle confirms at p = 1 and 2."""
    alg = algebra.build(p)
    qc = ct.build_qc(alg)
    n = alg.dim
    units = [(r, c) for r in range(n) for c in range(n)]
    rows = {}
    for k, rc in enumerate(units):
        for d, (den, e) in ct._qc_defect(alg, qc, Endo(n, {rc: 1})).items():
            for key, v in e.items():
                rows.setdefault((d, key), {})[k] = Fraction(v, den)
    kernel = nullspace(list(rows.values()), len(units))
    assert len(kernel) == 4 * p * p + 3
    if p <= 2:
        for vec in kernel:
            form = Endo(n, {units[k]: v for k, v in enumerate(vec) if v})
            assert _reference_form_preserves(alg, qc, form)
