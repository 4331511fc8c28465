import inspect
import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd

import pytest

from qhg import algebra, connections as cn, contact as ct
from qhg.exterior import Endo, KForm, _sort_tuple, ce_differential, two_form_endo
from qhg.linalg import nullspace, rref, solve
from qhg.scalars import LAM, ONE, ZERO, Scalar, homogeneous_part, scalars_of
from support import counting_inserts, executed_code, integer_part, rational_value


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
        alg.dim, {k: v for k, v in ac.phi.comps.items() if k != (2, 1)}
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


# -- dense oracles: the almost contact axioms and normality, pair by pair -------


def _dense_almost_contact(alg, ac) -> dict[str, bool]:
    """The five almost contact metric equations, read entry by entry on the
    basis vectors with Scalar arithmetic."""
    n, phi, xi, eta = alg.dim, ac.phi, ac.xi, ac.eta
    e = [alg.basis_vector(a) for a in range(n)]
    return {
        "phi^2 = -1 + xi (x) eta": all(
            phi.apply(phi.apply(x)) == xi.scale(eta.evaluate(x)) - x for x in e
        ),
        "phi xi = 0": all(phi.apply(xi)[a].is_zero() for a in range(n)),
        "phi^T eta = 0": all(eta.evaluate(phi.column(a)).is_zero() for a in range(n)),
        "eta(xi) = 1": eta.evaluate(xi) == ONE,
        "phi^T phi = 1 - eta (x) eta": all(
            phi.column(a).dot(phi.column(b))
            == e[a].dot(e[b]) - eta.evaluate(e[a]) * eta.evaluate(e[b])
            for a in range(n)
            for b in range(a, n)
        ),
    }


def _dense_nijenhuis_defect(alg, ac, x, y):
    """N(X,Y) = phi^2[X,Y] + [phiX,phiY] - phi[phiX,Y] - phi[X,phiY] + d eta(X,Y) xi."""
    phi = ac.phi
    px, py = phi.apply(x), phi.apply(y)
    out = (
        phi.apply(phi.apply(alg.bracket(x, y)))
        + alg.bracket(px, py)
        - phi.apply(alg.bracket(px, y))
        - phi.apply(alg.bracket(x, py))
    )
    return out + ac.xi.scale(ce_differential(ac.eta, alg).evaluate(x, y))


def _dense_normality(alg, ac) -> bool:
    e = [alg.basis_vector(a) for a in range(alg.dim)]
    return all(
        _dense_nijenhuis_defect(alg, ac, e[a], e[b]).is_zero()
        for a in range(alg.dim)
        for b in range(a + 1, alg.dim)
    )


def _changed(endo: Endo, rc, delta=1) -> Endo:
    """The endomorphism with `delta` added to its entry at rc."""
    return endo + Endo(endo.dim, {rc: delta})


def _phi_changes(i: int) -> dict[str, tuple]:
    """One-entry changes of phi_i, by what they touch: (row, column, delta)."""
    j, k = i % 3 + 1, (i + 1) % 3 + 1
    return {
        "horizontal": (3, 3, 1),  # the diagonal of the H block
        "xi column": (3, i - 1, 1),  # phi xi_i gains tau_1
        "eta row": (i - 1, 3, 1),  # eta_i o phi gains theta_1
        "vertical": (k - 1, j - 1, -1),  # drops eta_j (x) xi_k
    }


# which equations read each changed entry, and so fail
PHI_BREAKS = {
    "horizontal": {"phi^2 = -1 + xi (x) eta", "phi^T phi = 1 - eta (x) eta"},
    "xi column": {"phi^2 = -1 + xi (x) eta", "phi xi = 0", "phi^T phi = 1 - eta (x) eta"},
    "eta row": {"phi^2 = -1 + xi (x) eta", "phi^T eta = 0", "phi^T phi = 1 - eta (x) eta"},
    "vertical": {"phi^2 = -1 + xi (x) eta", "phi^T phi = 1 - eta (x) eta"},
}


def _failing(equations: dict) -> set[str]:
    return {name for name, holds in equations.items() if not holds()}


@pytest.mark.parametrize("p", [1, 2])
def test_almost_contact_equations_match_the_dense_oracle(p):
    alg = algebra.build(p)
    for i in (1, 2, 3):
        ac = ct.build_phi(alg, i)
        cases = {"phi": ac, "variant": ct.build_phi(alg, 2, inconsistent_variant=True)}
        for what, (r, c, delta) in _phi_changes(i).items():
            cases[what] = ct.AlmostContact(_changed(ac.phi, (r, c), delta), ac.xi, ac.eta, i)
        for what, case in cases.items():
            equations = ct._almost_contact_equations(alg, case)
            assert {name: holds() for name, holds in equations.items()} == (
                _dense_almost_contact(alg, case)
            ), (i, what)
            assert ct.almost_contact_axioms(alg, case) == (what == "phi"), (i, what)
            assert ct.normality_check(alg, i, case) == _dense_normality(alg, case), (i, what)


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("what", sorted(PHI_BREAKS))
def test_a_one_entry_change_of_phi_fails_exactly_the_equations_that_read_it(p, what):
    alg = algebra.build(p)
    for i in (1, 2, 3):
        ac = ct.build_phi(alg, i)
        r, c, delta = _phi_changes(i)[what]
        bad = ct.AlmostContact(_changed(ac.phi, (r, c), delta), ac.xi, ac.eta, i)
        assert _failing(ct._almost_contact_equations(alg, bad)) == PHI_BREAKS[what], i
    assert _failing(ct._almost_contact_equations(alg, ct.build_phi(alg, 1))) == set()


@pytest.mark.parametrize("p", [1, 2])
def test_normality_reads_the_structure_constants(p):
    # a one-entry change of the bracket table breaks the normality of some phi_i
    alg = algebra.build(p)
    assert all(ct.normality_check(alg, i) for i in (1, 2, 3))
    structure = dict(alg._sc)
    a, b = alg.quaternionic_plane(1)[:2]
    structure[(a, b)] = structure[(a, b)] + alg.xi(2).scale(LAM)  # [tau_1, tau_{p+1}] gains xi_2
    bent = algebra.QHAlgebra(p, LAM, structure)
    verdicts = [ct.normality_check(bent, i) for i in (1, 2, 3)]
    assert verdicts == [_dense_normality(bent, ct.build_phi(bent, i)) for i in (1, 2, 3)]
    assert not all(verdicts)


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
    geo = cn.Geometry(alg, flat)
    assert geo.curvature_parts == (None, 1, {})
    assert geo.holonomy == []
    assert geo.torsion_form is None


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


def _primitive(row: dict) -> tuple:
    """The row scaled to coprime integers with a positive first entry."""
    _, ints = integer_part(row)
    g = gcd(*ints.values()) * (1 if ints[min(ints)] > 0 else -1)
    return tuple(sorted((k, v // g) for k, v in ints.items()))


def _odd_qc(alg) -> ct.QcStructure:
    """The qc structure with I_1, I_2, I_3 scaled by 1 / 2, 1 / 3 and 1 / 5: the
    Reeb matrix gets denominators."""
    qc = ct.build_qc(alg)
    factors = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))
    scaled = [e.scale(f) for e, f in zip(qc.complex_structures, factors)]
    return ct.QcStructure(scaled, qc.one_forms, qc.reeb)


def test_qc_functionals_are_exact_for_any_defect_denominator():
    # denominators enter through the I_i parts; each functional is then an integer
    # multiple of the rational row the defects of the B_k give at one key
    alg = algebra.build(1)
    odd = _odd_qc(alg)
    assert {e.part[1] for e in odd.complex_structures} == {2, 3, 5}
    rows = ct._qc_functionals(alg, odd)
    assert all(type(v) is int for row in rows for v in row.values())
    exact = {}
    for k, ab in enumerate(combinations(range(alg.dim), 2)):
        _, den, e = ct._qc_defect(alg, odd, _rotation(alg, *ab))
        for key, v in e.items():
            exact.setdefault(key, {})[k] = Fraction(v, den)
    assert {_primitive(row) for row in rows} == {_primitive(row) for row in exact.values()}
    # complex structures of two degrees make no Reeb matrix: its sum names both
    qc = ct.build_qc(alg)
    tilted = ct.QcStructure([qc.complex_structures[0].scale(LAM), *qc.complex_structures[1:]],
                            qc.one_forms, qc.reeb)
    with pytest.raises(TypeError, match=r"^complex structures: a term of degree 0 in l meets one of degree 1$"):
        ct._reeb_matrix(alg, tilted)


@pytest.mark.parametrize("p, dim", [(1, 9), (2, 16)])
def test_qc_kernel_grows_without_the_reeb_rows(p, dim):
    # negative control: the I (x) I rows alone leave the kernel larger than sp(p) + sp(1)
    n = algebra.build(p).dim
    nb = n * (n - 1) // 2
    rows = _sparse(_reference_rows(p)["I"])
    assert nb - len(rref(rows, nb)[0]) == dim != 2 * p * p + p + 3


def test_qc_unique_skew_rejects_koszul_coefficients_of_mixed_degree(monkeypatch):
    # the solve runs at l = 1 and scales the torsion back by l^d, which needs one
    # degree d across the forms; within one form a second degree cannot be built
    alg = algebra.build(1)
    lc = cn.levi_civita(alg)
    raised = cn.Connection([f.scale(LAM) if x == 3 else f for x, f in enumerate(lc.omega)])
    monkeypatch.setattr(ct, "levi_civita", lambda a: raised)
    with pytest.raises(ArithmeticError, match=r"^Levi-Civita form 3 has degree 2 in l, expected 1$"):
        ct.qc_unique_skew(alg)
    with pytest.raises(TypeError, match=r"^connection form 3: a term of degree 0 in l meets one of degree 1$"):
        cn.with_torsion(alg, KForm(alg.dim, 3, {(3, 4, 5): ONE}))


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
    assert any(cn.levi_civita(alg).form(x).part[1] != 1 for x in range(alg.dim))
    assert ct.qc_unique_skew(alg) == (1, cn.canonical_torsion(alg))


def _sort_tuple_system(alg) -> tuple[list, list]:
    """The qc system (rows, rhs) as `qc_unique_skew` built it before its slot
    table: one `_sort_tuple` and one Koszul lookup per functional entry."""
    n = alg.dim
    skew_basis = list(combinations(range(n), 2))
    reduced, _ = rref(ct._qc_functionals(alg, ct.build_qc(alg)), len(skew_basis))
    t_index = {t: i for i, t in enumerate(combinations(range(n), 3))}
    lc, d, rows, rhss = cn.levi_civita(alg), None, [], []
    for x in range(n):
        d, den_x, koszul = homogeneous_part(lc.form(x), "Levi-Civita form", d)
        for _, functional in reduced:
            rhs, row = 0, {}
            for k, coeff in functional.items():
                a, b = skew_basis[k]
                rhs -= 2 * coeff * koszul.get((b, a), 0)
                sign, key = _sort_tuple((x, a, b))
                if sign:
                    row[t_index[key]] = coeff * sign * den_x
            if row or rhs:
                rows.append(row)
                rhss.append(rhs)
    return rows, rhss


def _solved_system(monkeypatch, alg) -> tuple[tuple, tuple]:
    """(the (rows, rhs) that qc_unique_skew hands to solve, its answer)."""
    seen = []
    monkeypatch.setattr(ct, "solve", lambda rows, rhs, ncols: seen.append((rows, rhs)) or solve(rows, rhs, ncols))
    answer = ct.qc_unique_skew(alg)
    (system,) = seen
    return system, answer


@pytest.mark.parametrize("p", [1, 2, 3])
def test_qc_slot_table_builds_the_sort_tuple_system(monkeypatch, p):
    alg = algebra.build(p)
    system, answer = _solved_system(monkeypatch, alg)
    assert system == _sort_tuple_system(alg)
    assert answer == (1, cn.canonical_torsion(alg))
    # the table sorts no triple: a warm algebra runs qc_unique_skew without _sort_tuple
    assert executed_code(lambda: ct.qc_unique_skew(alg))[_sort_tuple.__code__] == 0


@pytest.mark.parametrize("p, unforced", [(1, 0), (2, 0), (3, 64)])
def test_qc_solve_peels_every_unknown_outside_the_coupled_blocks(monkeypatch, p, unforced):
    # the peel forces all 35 and 165 unknowns at p = 1 and 2, so the solve inserts
    # no row; at p = 3 it leaves the 4 C(3, 3) blocks of 16 coupled unknowns
    alg = algebra.build(p)
    system, answer = _solved_system(monkeypatch, alg)
    assert answer == (1, cn.canonical_torsion(alg))
    inserted = counting_inserts(monkeypatch)
    ncols = len(list(combinations(range(alg.dim), 3)))
    x, kernel = solve(*system, ncols)
    assert x is not None and kernel == []
    assert len(set().union(*(e for _, e in inserted)) - {ncols}) == unforced
    assert bool(inserted) == bool(unforced)

def test_qc_slot_table_with_a_flipped_sign_fails_the_oracle(monkeypatch):
    # negative control: one sign flipped in the table of form 0 changes the system,
    # and the solve finds no torsion
    alg = algebra.build(1)
    slots = ct._qc_slots

    def flipped(x, *args):
        table = slots(x, *args)
        if x == 0:
            k = next(k for k, (_, v, _) in enumerate(table) if v is not None)
            t, v, kz = table[k]
            table[k] = t, -v, kz
        return table

    monkeypatch.setattr(ct, "_qc_slots", flipped)
    system, answer = _solved_system(monkeypatch, alg)
    assert system != _sort_tuple_system(alg)
    assert answer == (0, None)


def _off_by_one(where):
    """solve, with one unit added to the first rhs or to the first unknown."""

    def perturbed(rows, rhs, ncols):
        if where == "rhs":
            rhs = [rhs[0] + 1, *rhs[1:]]
        x, kernel = solve(rows, rhs, ncols)
        if where == "solution" and x is not None:
            den, e = x  # worth e / den: one unit at column 0 is den more there
            x = den, {**e, 0: e.get(0, 0) + den}
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
    assert ct._qc_defect(alg, qc, rot)[2]
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
    assert ct._qc_defect(alg, qc, rot)[2]
    # at p = 1 every horizontal rotation lies in so(4) = sp(1) + sp(1), which
    # keeps sum_i I_i (x) I_i, so there only the Reeb equation can break
    assert _reference_broken_halves(qc, rot, alg.dim) == ({"xi"} if p == 1 else {"I", "xi"})


def _preserves_splitting(alg, conn: cn.Connection) -> bool:
    """No connection form joins a vertical and a horizontal index."""
    return not any(
        alg.is_vertical(r) != alg.is_vertical(c)
        for i in range(alg.dim)
        for r, c in conn.form(i).part[2]
    )


def _reference_broken_halves(qc, a: Endo, n: int) -> set[str]:
    """Which of the two qc equations, "I" for sum_i [A, I_i] (x) I_i + I_i (x) [A, I_i]
    and "xi" for sum_i (A reeb_i) (x) I_i + reeb_i (x) [A, I_i], fail for one
    connection form, as dense pair loops."""
    brackets = [a.commutator(e) for e in qc.complex_structures]
    pairs = set()
    for e in qc.complex_structures + brackets:
        pairs.update(e.comps.keys())
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
        {k: rational_value(v) for k, v in e.comps.items()} for e in qc.complex_structures
    ]
    bracket_index = [{}, {}, {}]
    for k, ab in enumerate(skew_basis):
        b_k = _rotation(alg, *ab)
        for i, i_s in enumerate(qc.complex_structures):
            for pq, v in b_k.commutator(i_s).comps.items():
                bracket_index[i].setdefault(pq, []).append((k, rational_value(v)))
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
    """The dense rational rows as sparse rows scaled to integers: the same span."""
    return [integer_part(dict(enumerate(row)))[1] for row in rows]


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
        for den, vec in rng.sample(kernel, 3):
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            for k, v in vec.items():
                comps[skew_basis[k]] = comps.get(skew_basis[k], 0) + c * Fraction(v, den)
        if rng.random() < 0.5:  # leave the qc-preserving forms, inside the blocks or across
            kind = rng.choice(("block", "mixed"))
            ab = rng.choice(blocks if kind == "block" else mixed)
            comps[ab] = comps.get(ab, 0) + rng.randint(1, 2)
            kinds.add(kind)
        form = two_form_endo(KForm(n, 2, comps))
        defect = ct._qc_defect(alg, qc, form)[2]
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
        _, den, e = ct._qc_defect(alg, qc, Endo(n, {rc: 1}))
        for key, v in e.items():
            rows.setdefault(key, {})[k] = Fraction(v, den)
    kernel = nullspace([integer_part(row)[1] for row in rows.values()], len(units))
    assert len(kernel) == 4 * p * p + 3
    if p <= 2:
        for den, vec in kernel:
            form = Endo(n, {units[k]: Fraction(v, den) for k, v in vec.items()})
            assert _reference_form_preserves(alg, qc, form)


# -- dense oracle: the qc axioms, pair by pair ------------------------------------


def _dense_qc(alg, qc) -> dict[str, bool]:
    """The qc axioms as the check read them before it stated them as tensor
    equations: on basis vectors, with Scalar arithmetic.  Those loops read
    the product I_1 I_2 I_3 and d eta_j only on H, and the joint kernel
    only on the vertical basis vectors."""
    n, horizontal = alg.dim, alg.horizontal_indices
    e = [alg.basis_vector(a) for a in range(n)]
    i1, i2, i3 = qc.complex_structures
    prod = i1.compose(i2).compose(i3)
    d = [ce_differential(f, alg) for f in qc.one_forms]
    return {
        "I_1 I_2 I_3 = -P_H": all(prod.apply(e[h]) == -e[h] for h in horizontal),
        "eta_j = 0 on H": all(f.evaluate(e[h]).is_zero() for f in qc.one_forms for h in horizontal),
        "eta_j(xi_i) invertible": all(
            any(not f.evaluate(e[v]).is_zero() for f in qc.one_forms) for v in alg.vertical_indices
        ),
        "d eta_j = 2 g(I_j -, -) on H": all(
            dj.evaluate(e[a], e[b]) == ij.apply(e[a]).dot(e[b]) * 2
            for ij, dj in zip(qc.complex_structures, d)
            for a in horizontal
            for b in horizontal
        ),
        "xi_k _| d eta_j + xi_j _| d eta_k = 0 on H": all(
            (d[j].evaluate(qc.reeb[k], e[a]) + d[k].evaluate(qc.reeb[j], e[a])).is_zero()
            for j in range(3)
            for k in range(3)
            for a in horizontal
        ),
    }


def _qc_changes(alg) -> dict[str, ct.QcStructure]:
    """One-entry changes of the qc structure of `alg`, by what they touch."""
    qc = ct.build_qc(alg)
    structures, forms, reeb = qc.complex_structures, qc.one_forms, qc.reeb
    h = alg.horizontal_indices[0]
    return {
        "I_2 on H": ct.QcStructure(
            [structures[0], _changed(structures[1], (h, h)), structures[2]], forms, reeb
        ),
        "I_1 off H x H": ct.QcStructure(  # I_1 xi_1 = tau_1
            [_changed(structures[0], (h, 0)), *structures[1:]], forms, reeb
        ),
        # each change at the degree in l of what it changes: eta_3 has -1, xi_2 has 1
        "eta_3 off V": ct.QcStructure(structures, [*forms[:2], forms[2] + alg.theta(1).scale(ONE / alg.lam)], reeb),
        "xi_2 off V": ct.QcStructure(structures, forms, [reeb[0], reeb[1] + alg.tau(1).scale(alg.lam), reeb[2]]),
    }


# which qc equations read each changed entry, and so fail
QC_BREAKS = {
    "I_2 on H": {"I_1 I_2 I_3 = -P_H", "d eta_j = 2 g(I_j -, -) on H"},
    "I_1 off H x H": {"d eta_j = 2 g(I_j -, -) on H"},
    "eta_3 off V": {"eta_j = 0 on H"},
    "xi_2 off V": {"xi_k _| d eta_j + xi_j _| d eta_k = 0 on H"},
}


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("what", sorted(QC_BREAKS))
def test_a_one_entry_change_fails_exactly_the_qc_equations_that_read_it(p, what):
    alg = algebra.build(p)
    assert _failing(ct._qc_equations(alg, ct.build_qc(alg))) == set()
    bad = _qc_changes(alg)[what]
    assert _failing(ct._qc_equations(alg, bad)) == QC_BREAKS[what]
    assert not ct.qc_axioms_check(alg, bad)


@pytest.mark.parametrize("p", [1, 2])
def test_qc_equations_match_the_dense_oracle(p):
    alg = algebra.build(p)
    cases = {"qc": ct.build_qc(alg), **_qc_changes(alg)}
    for what, qc in cases.items():
        verdicts = {name: holds() for name, holds in ct._qc_equations(alg, qc).items()}
        dense = _dense_qc(alg, qc)
        if what == "I_1 off H x H":
            # the pair loops read I_1 only on H x H, and miss that it maps xi_1 into H
            assert dense == dict.fromkeys(dense, True)
            dense["d eta_j = 2 g(I_j -, -) on H"] = False
        assert verdicts == dense, what


def test_the_joint_kernel_of_the_one_forms_is_exactly_h():
    alg = algebra.build(1)
    qc = ct.build_qc(alg)
    eta = [alg.eta(i) for i in (1, 2, 3)]
    kernel = "eta_j(xi_i) invertible"

    def verdicts(forms):
        return ct._qc_equations(alg, ct.QcStructure(qc.complex_structures, forms, qc.reeb))

    # xi_1 + xi_2 + xi_3 lies in the joint kernel of these three, though each
    # vertical basis vector is seen by one of them: the basis shortcut passes them
    differences = [eta[0] - eta[1], eta[1] - eta[2], eta[0] - eta[2]]
    assert not verdicts(differences)[kernel]()
    assert _dense_qc(alg, ct.QcStructure(qc.complex_structures, differences, qc.reeb))[kernel]
    # an invertible block need not be diagonal, nor of one degree; a 1-form whose
    # block row mixes degrees, so that a determinant like 1 - l could vanish at
    # l = 1 only, cannot be built
    assert verdicts([eta[0] + eta[1], eta[1].scale(LAM), eta[2]])[kernel]()
    assert not verdicts([eta[0] + eta[1], (eta[0] + eta[1]).scale(LAM), eta[2]])[kernel]()
    with pytest.raises(TypeError, match=r"^KForm sum: a term of degree 1 in l meets one of degree 0$"):
        eta[0] + eta[1].scale(LAM)
    assert verdicts(qc.one_forms)[kernel]()


def _direct_reeb_tensor(alg, qc, a: Endo) -> dict:
    """sum_i (A xi_i) (x) I_i + xi_i (x) [A, I_i] entry by entry, with Scalars."""
    out = {}
    for i, structure in enumerate(qc.complex_structures, start=1):
        xi = alg.xi(i)
        for x, y in ((a.apply(xi), structure), (xi, a.commutator(structure))):
            for s in range(alg.dim):
                for cd, w in y.comps.items():
                    out[(s, *cd)] = out.get((s, *cd), ZERO) + x[s] * w
    return {key: v for key, v in out.items() if not v.is_zero()}


@pytest.mark.parametrize("p", [1, 2])
def test_qc_defect_is_the_reeb_tensor(p):
    # the matrix applied to A's parts is the tensor built from A by Endo
    # products, for the algebra's own structure and for one with denominators
    alg = algebra.build(p)
    rng = random.Random(p)
    n = alg.dim
    for qc in (ct.build_qc(alg), _odd_qc(alg)):
        for _ in range(12):
            entries = {
                (rng.randrange(n), rng.randrange(n)): Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                for _ in range(rng.randint(1, 6))
            }
            form = Endo(n, entries)
            defect = ct._qc_defect(alg, qc, form)
            assert scalars_of(defect) == _direct_reeb_tensor(alg, qc, form)


def test_the_reeb_matrix_is_built_once_per_qc_structure():
    alg = algebra.build(2)
    qc = ct.build_qc(alg)
    assert ct._reeb_matrix(alg, qc) is ct._reeb_matrix(alg, ct.build_qc(alg))
    assert ct.qc_preservation_check(alg, cn.canonical_connection(alg))
    assert sum(key[0] is inspect.unwrap(ct._reeb_matrix) for key in alg._derived) == 1
    other = algebra.build(2)
    assert ct._reeb_matrix(other, ct.build_qc(other)) is not ct._reeb_matrix(alg, qc)
