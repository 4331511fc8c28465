"""Acceptance suite: one test per criterion, all arithmetic exact.

Prints one pass/fail line per criterion.  Two criterion-9 tests assert
the proven spinor values in place of a stated eigenvalue assignment that
no spin module can carry, and keep the stated values as refuted
controls: the torsion spectrum is {-2l x1, 6l x3, -4l x4}, not
{-2l x1, -4l x3, 6l x4} (a 3-form acts tracelessly), and the horizontal
eigenvalue of the translate spinors is l/4, not 5l/4 (the bridge
identity carries -l, not +l).
"""

import json
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

from qhg import algebra, clifford as cl, cone, connections as cn, contact as ct, g2
from qhg.cli import main
from qhg.exterior import (
    Endo,
    KForm,
    ce_differential,
    form_inner,
    interior,
    two_form_endo,
    wedge,
)
from qhg.scalars import LAM, Scalar
from support import UNRUN_ALLOWED, cli_env, dual, unrun_in_cli_report


@contextmanager
def criterion(num, description):
    try:
        yield
    except AssertionError:
        print(f"criterion {num}: FAIL - {description}")
        raise
    print(f"criterion {num}: PASS - {description}")


def test_criterion_1_structure_constants_and_differentials():
    with criterion(1, "structure constants and the d eta closed forms"):
        for p in (1, 2, 3):
            alg = algebra.build(p)
            for i in (1, 2, 3):
                j, k = (i % 3) + 1, ((i + 1) % 3) + 1
                expected = KForm.zero(alg.dim, 2)
                for r in range(1, p + 1):
                    expected = expected + wedge(alg.theta(r), alg.theta(i * p + r))
                    expected = expected + wedge(
                        alg.theta(j * p + r), alg.theta(k * p + r)
                    )
                assert ce_differential(alg.eta(i), alg) == expected.scale(-LAM)
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


def test_criterion_2_canonical_connection():
    with criterion(2, "connection map, parallel torsion/curvature, holonomy"):
        for p in (1, 2, 3):
            alg = algebra.build(p)
            t = cn.canonical_torsion(alg)
            conn = cn.with_torsion(alg, t)
            h = [two_form_endo(f) for f in cn.su2_generators(alg)]
            for l in alg.horizontal_indices:
                assert conn.form(l).is_zero()
            for i in (1, 2, 3):
                assert conn.form(i - 1) == h[i - 1].scale(-LAM)
            assert cn.is_parallel(conn, t)
            geo = cn.Geometry(alg, conn)
            assert geo.curvature_parallel
            hol = geo.holonomy
            assert len(hol) == 3
            assert h[0].commutator(h[1]) == h[2].scale(2)
            assert h[2].commutator(h[0]) == h[1].scale(2)
            assert h[1].commutator(h[2]) == h[0].scale(2)
            assert cn.invariant_subspace(hol, alg.vertical_indices)
            assert cn.vertical_action_irreducible(alg, hol)
            for r in range(1, p + 1):
                assert cn.invariant_subspace(hol, alg.quaternionic_plane(r))


def test_criterion_3_curvature_closed_form():
    with criterion(3, "curvature equals lam^2 x sum of generator squares"):
        for p in (1, 2, 3):
            alg = algebra.build(p)
            conn = cn.canonical_connection(alg)
            r = cn.Geometry(alg, conn).curvature
            h_forms = cn.su2_generators(alg)
            h = [two_form_endo(f) for f in h_forms]
            for i in range(alg.dim):
                for j in range(i + 1, alg.dim):
                    expect = Endo.zero(alg.dim)
                    for k in range(3):
                        c = h_forms[k].coeff((i, j))
                        if not c.is_zero():
                            expect = expect + h[k].scale(c)
                    assert r.get((i, j), Endo.zero(alg.dim)) == expect.scale(LAM * LAM)


def test_criterion_4_ricci_and_scalar_curvatures():
    with criterion(4, "Ricci diagonal, scalar curvatures, torsion norm"):
        for p in (1, 2, 3):
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
            norm2 = form_inner(t, t)
            assert norm2 == lam2 * (6 * p + 16)
            # independent evaluation oracle for the norm
            oracle = Scalar(0)
            for idx in combinations(range(alg.dim), 3):
                v = t.evaluate(*[alg.basis_vector(i) for i in idx])
                oracle = oracle + v * v
            assert oracle == norm2
            assert s_g - s_conn == norm2 * Fraction(3, 2)


def test_criterion_5_natural_reductivity():
    with criterion(5, "transvection construction satisfies Jacobi and reductivity"):
        for p in (1, 2):
            alg = algebra.build(p)
            ok, witness = cn.transvection_check(alg, cn.canonical_connection(alg))
            assert ok, witness


def test_criterion_6_contact_suite():
    with criterion(6, "contact axioms, compatibility, normality, discriminator"):
        for p in (1, 2, 3):
            alg = algebra.build(p)
            for i in (1, 2, 3):
                assert ct.almost_contact_axioms(alg, ct.build_phi(alg, i))
                assert ct.normality_check(alg, i)
                assert not ct.quasi_sasaki_check(alg, i)
            ok, _ = ct.compatibility_check(alg)
            assert ok
        alg = algebra.build(1)
        bad = [
            ct.build_phi(alg, 1),
            ct.build_phi(alg, 2, inconsistent_variant=True),
            ct.build_phi(alg, 3),
        ]
        bad_ok, witness = ct.compatibility_check(alg, bad)
        assert not bad_ok and witness is not None


def test_criterion_7_qc_suite():
    with criterion(7, "qc invariants, preservation, flat connection, uniqueness"):
        for p in (1, 2):
            alg = algebra.build(p)
            assert ct.qc_axioms_check(alg, ct.build_qc(alg))
            assert ct.qc_preservation_check(alg, cn.canonical_connection(alg))
            flat = cn.flat_connection(alg)
            assert ct.qc_preservation_check(alg, flat)
            geo = cn.Geometry(alg, flat)
            assert not geo.curvature_parts[2]
            assert geo.holonomy == []
            assert geo.torsion_form is None
            dim, torsion = ct.qc_unique_skew(alg)
            assert dim == 1
            assert torsion == cn.canonical_torsion(alg)


def test_criterion_8_g2_suite():
    with criterion(8, "generic cocalibrated 3-form with matching torsion"):
        alg = algebra.build(1)
        omega = g2.build_omega(alg)
        assert g2.genericity_check(alg, omega)
        assert g2.cocalibrated_check(alg, omega)
        t = cn.canonical_torsion(alg)
        assert g2.characteristic_torsion(alg, omega) == t
        eta123 = KForm.basis(7, (0, 1, 2))
        assert t == (omega - eta123.scale(5)).scale(LAM)


def test_criterion_9_spinor_suite_attainable():
    with criterion(9, "spinor suite (kernel, splitting, Killing eigenvalues)"):
        alg = algebra.build(1)
        conn = cn.canonical_connection(alg)
        split = g2.parallel_spinor(alg, conn)  # raises unless the kernel is 1-dim
        assert g2.splitting_dimensions(split) == (1, 3, 4)
        assert g2.splitting_orthogonal(split)

        t = cn.canonical_torsion(alg)
        spectrum = g2.torsion_spectrum(alg, t, split)
        assert spectrum["psi0"] == LAM * -2

        killing0 = g2.generalized_killing_check(alg, split.psi0)
        for i in alg.vertical_indices:
            assert killing0[i] == LAM * Fraction(1, 2)
        for i in alg.horizontal_indices:
            assert killing0[i] == LAM * Fraction(-3, 4)

        for i in (1, 2, 3):
            psi_i = cl.vector_action(alg, alg.xi(i), split.psi0)
            values = g2.generalized_killing_check(alg, psi_i)
            assert values[i - 1] == LAM * Fraction(1, 2)
            for j in (1, 2, 3):
                if j != i:
                    assert values[j - 1] == LAM * Fraction(-1, 2)
            assert all(v is not None for v in values)
            assert len({str(v) for v in values}) == 3  # three distinct eigenvalues

        assert g2.proof_identities_check(alg, split)


def test_criterion_9_torsion_spectrum_as_stated():
    """Torsion spectrum {-2l x1, 6l x3, -4l x4}; the stated one is refuted.

    The stated assignment {-2l x1, -4l x3, 6l x4} sums to
    -2l - 12l + 24l = 10l.  Every basis triple g_i g_j g_k anticommutes
    with some generator outside the triple, so every 3-form acts
    tracelessly on the 8-dim module and no torsion can carry it.  The
    proven values follow from T = l (omega - 5 eta_123) (criterion 8):
    omega acts as -7 on psi0 and as +1 on all seven translates, eta_123
    as -1 on psi0 and the vertical translates and as +1 on the
    horizontal ones.
    """
    with criterion(
        9, "torsion spectrum {-2l x1, 6l x3, -4l x4}; stated {-4l x3, 6l x4} has trace 10l"
    ):
        alg = algebra.build(1)
        split = g2.parallel_spinor(alg, cn.canonical_connection(alg))
        t = cn.canonical_torsion(alg)
        spectrum = g2.torsion_spectrum(alg, t, split)
        summands = ("psi0", "vertical", "horizontal")
        values = [spectrum[s] for s in summands]

        g = cl.gamma()
        for idx in combinations(range(7), 3):
            prod = cl.gamma_product(alg, idx)
            assert prod.trace().is_zero()
            assert any(
                g[k].compose(prod) == -prod.compose(g[k])
                for k in range(7)
                if k not in idx
            ), idx

        omega = g2.build_omega(alg)
        eta123 = KForm.basis(7, (0, 1, 2))
        assert t == (omega - eta123.scale(5)).scale(LAM)
        on_omega = g2.torsion_spectrum(alg, omega, split)
        on_eta123 = g2.torsion_spectrum(alg, eta123, split)
        assert [on_omega[s] for s in summands] == [-7, 1, 1]
        assert [on_eta123[s] for s in summands] == [-1, -1, 1]
        assert values == [(on_omega[s] - on_eta123[s] * 5) * LAM for s in summands]
        assert values == [LAM * -2, LAM * 6, LAM * -4]

        def weighted_trace(eigenvalues):
            return sum(m * v for m, v in zip(g2.splitting_dimensions(split), eigenvalues))

        assert weighted_trace(values) == spectrum["trace"] == 0
        stated = [LAM * -2, LAM * -4, LAM * 6]
        assert weighted_trace(stated) == LAM * 10
        assert values != stated


def test_criterion_9_translate_horizontal_eigenvalue_as_stated():
    """Horizontal eigenvalue l/4 of the translate spinors; 5l/4 is refuted.

    For horizontal X the product rule splits nabla^g_X (xi_i . psi0) into
    (nabla^g_X xi_i) . psi0 + xi_i . nabla^g_X psi0.  The Levi-Civita
    term is nabla^g_X xi_i = (1/2) (X _| d eta_i), and the bridge
    identity gives (X _| d eta_i) . psi0 = -l X . xi_i . psi0.  With the
    verified invariant-spinor eigenvalue -3l/4 the two terms combine to
    (-1/2 + 3/4) l = l/4.  The stated 5l/4 = (1/2 + 3/4) l needs the
    bridge to carry +l, which it does not.
    """
    with criterion(9, "translate horizontal eigenvalue l/4; stated 5l/4 needs a +l bridge"):
        alg = algebra.build(1)
        split = g2.parallel_spinor(alg, cn.canonical_connection(alg))
        assert g2.proof_identities_check(alg, split)  # bridge and product rule
        psi0 = split.psi0
        lc = cn.levi_civita(alg)
        g = cl.gamma()
        killing0 = g2.generalized_killing_check(alg, psi0)
        for i in (1, 2, 3):
            xi = alg.xi(i)
            psi_i = cl.vector_action(alg, xi, psi0)
            values = g2.generalized_killing_check(alg, psi_i)
            d_eta = ce_differential(alg.eta(i), alg)
            for idx in alg.horizontal_indices:
                x_xi_psi0 = g[idx].apply(psi_i)
                x_d_eta = interior(alg.basis_vector(idx), d_eta)
                assert dual(lc.form(idx).apply(xi)) == x_d_eta.scale(Fraction(1, 2))
                bridge = cl.clifford_matrix(alg, x_d_eta).apply(psi0)
                assert bridge == x_xi_psi0.scale(-LAM)
                assert bridge != x_xi_psi0.scale(LAM)

                assert killing0[idx] == LAM * Fraction(-3, 4)
                # -l/2 from the bridge; moving xi_i past X negates killing0
                derived = -LAM * Fraction(1, 2) - killing0[idx]
                assert values[idx] == derived == LAM * Fraction(1, 4)
                assert values[idx] != LAM * Fraction(5, 4)


def test_criterion_10_cone_constant():
    with criterion(10, "unique cone constant equals the metric parameter"):
        alg = algebra.build(1)
        crit = cone.cone_constant(alg)
        assert crit.constant == LAM
        residuals = cone.coincidence_residuals(alg, LAM * 2)
        assert any(not r.is_zero() for r in residuals)


def test_criterion_11_negative_controls():
    with criterion(11, "mutated constants, wrong generator, perturbed torsion"):
        alg = algebra.build(1)
        bad_structure = dict(alg._sc)
        bad_structure[(3, 4)] = bad_structure[(3, 4)] + alg.tau(3).scale(LAM)
        mutated = algebra.QHAlgebra(1, alg.lam, bad_structure)
        ok, witness = algebra.jacobi_check(mutated)
        assert not ok and witness is not None

        h = cn.su2_generators(alg)
        wrong_third = ce_differential(alg.eta(1), alg).scale(
            Scalar(-1) / LAM
        ) + wedge(alg.eta(1), alg.eta(2)).scale(2)
        h1, h2 = two_form_endo(h[0]), two_form_endo(h[1])
        assert h1.commutator(h2) == two_form_endo(h[2]).scale(2)
        assert h1.commutator(h2) != two_form_endo(wrong_third).scale(2)

        alg2 = algebra.build(2)
        perturbed = cn.canonical_torsion(alg2) + wedge(
            wedge(alg2.theta(4), alg2.theta(5)), alg2.theta(6)
        ).scale(LAM)
        conn = cn.with_torsion(alg2, perturbed)
        assert not cn.is_parallel(conn, perturbed)
        ok, _ = cn.transvection_check(alg2, conn)
        assert not ok


def test_criterion_12_cli():
    with criterion(12, "deterministic JSON, exit codes, operation coverage"):
        cmd = [
            sys.executable,
            "-m",
            "qhg",
            "verify",
            "--p",
            "1",
            "--suite",
            "algebra",
            "--format",
            "json",
        ]
        first = subprocess.run(cmd, capture_output=True, check=True, env=cli_env())
        second = subprocess.run(cmd, capture_output=True, check=True, env=cli_env())
        assert first.stdout == second.stdout
        json.loads(first.stdout)

        assert main(["verify", "--p", "2", "--suite", "spinors"]) == 2
        assert main(["verify", "--p", "1", "--lambda", "-1"]) == 2

        # every public definition but the allowed ones runs in the p = 1 report
        assert unrun_in_cli_report() == sorted(UNRUN_ALLOWED)
