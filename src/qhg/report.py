"""Verification suites and report assembly for the command line.

Each suite runs a fixed list of exact checks and records, per check, a
machine-readable name, the claim being certified, pass/fail status and
any computed values (as exact strings).  Reports are deterministic:
the same configuration always produces byte-identical JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from . import algebra, clifford, cone, connections, contact, g2
from .exterior import (
    Endo,
    KForm,
    ce_differential,
    endo_two_form,
    form_inner,
    hodge_star,
    interior,
    two_form_endo,
    volume_form,
    wedge,
)
from .scalars import ONE, Scalar

SUITES = ("algebra", "connection", "contact", "qc", "g2", "spinors", "cone")
P1_ONLY = ("g2", "spinors", "cone")


class ConfigError(ValueError):
    """Invalid report configuration."""


@dataclass(frozen=True)
class ReportConfig:
    p: int = 1
    lam: Fraction | None = None  # None = formal parameter
    suites: tuple[str, ...] = ("all",)
    fmt: str = "text"

    def resolved_suites(self) -> tuple[str, ...]:
        requested = []
        for s in self.suites:
            if s == "all":
                requested.extend(SUITES)
            elif s in SUITES:
                requested.append(s)
            else:
                raise ConfigError(f"unknown suite {s!r}")
        out = []
        for s in requested:  # stable dedupe
            if s not in out:
                out.append(s)
        return tuple(out)

    def validate(self):
        if self.p < 1:
            raise ConfigError(f"p must be >= 1, got {self.p}")
        if self.lam is not None and self.lam <= 0:
            raise ConfigError("the metric parameter must be positive")
        if self.fmt not in ("json", "text"):
            raise ConfigError(f"unknown format {self.fmt!r}")
        if self.p != 1:
            for s in self.suites:
                if s in P1_ONLY:
                    raise ConfigError(f"suite {s!r} requires p = 1, got p = {self.p}")


@dataclass
class CheckResult:
    name: str
    claim: str
    status: str  # pass | fail | skipped
    witness: str | None = None
    values: dict[str, str] | None = None
    ops: tuple[str, ...] = ()


@dataclass
class VerificationReport:
    config: ReportConfig
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def summary(self) -> dict[str, int]:
        passed = sum(1 for c in self.checks if c.status == "pass")
        failed = sum(1 for c in self.checks if c.status == "fail")
        skipped = sum(1 for c in self.checks if c.status == "skipped")
        return {
            "total": len(self.checks),
            "passed": passed,
            "failed": failed,
            "skipped": skipped,
        }

    @property
    def all_passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def to_json(self) -> str:
        payload = {
            "config": {
                "p": self.config.p,
                "lambda": "formal" if self.config.lam is None else str(self.config.lam),
                "suites": list(self.config.suites),
                "format": self.config.fmt,
            },
            "checks": [
                {
                    "name": c.name,
                    "claim": c.claim,
                    "status": c.status,
                    **({"witness": c.witness} if c.witness else {}),
                    **({"values": c.values} if c.values else {}),
                }
                for c in self.checks
            ],
            "summary": self.summary,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"

    def to_text(self) -> str:
        lines = []
        width = max((len(c.name) for c in self.checks), default=0)
        for c in self.checks:
            status = c.status.upper()
            line = f"{status:7s} {c.name:<{width}s}  {c.claim}"
            if c.values:
                vals = ", ".join(f"{k}={v}" for k, v in sorted(c.values.items()))
                line += f"  [{vals}]"
            if c.witness:
                line += f"  (witness: {c.witness})"
            lines.append(line)
        s = self.summary
        lines.append(
            f"{s['passed']}/{s['total']} passed, {s['failed']} failed, "
            f"{s['skipped']} skipped"
        )
        return "\n".join(lines) + "\n"


def _check(name, claim, ok, ops=(), values=None, witness=None) -> CheckResult:
    return CheckResult(
        name=name,
        claim=claim,
        status="pass" if ok else "fail",
        witness=witness if not ok else None,
        values=values,
        ops=tuple(ops),
    )


def _skip(name, claim, reason, ops=()) -> CheckResult:
    return CheckResult(name, claim, "skipped", witness=reason, ops=tuple(ops))


# -- suites ------------------------------------------------------------------


def _suite_algebra(alg: algebra.QHAlgebra) -> list[CheckResult]:
    checks = []
    ok, witness = algebra.jacobi_check(alg)
    checks.append(
        _check(
            "algebra.jacobi",
            "Jacobi identity holds on all frame triples",
            ok,
            ops=("qhg.algebra.build", "qhg.algebra.jacobi_check"),
            witness=str(witness) if witness else None,
        )
    )

    center_dim = algebra.center_dimension(alg)
    derived_in_center = all(
        all(v.is_zero() for k, v in enumerate(alg.bracket_basis(i, j)) if k >= 3)
        for i in range(alg.dim)
        for j in range(alg.dim)
    )
    two_step = all(
        alg.bracket(alg.bracket_basis(i, j), alg.basis_vector(k)).is_zero()
        for i in range(alg.dim)
        for j in range(alg.dim)
        for k in range(alg.dim)
    )
    checks.append(
        _check(
            "algebra.center",
            "center is the 3-dim vertical space and brackets are 2-step nilpotent",
            center_dim == 3 and derived_in_center and two_step,
            ops=("qhg.algebra.QHAlgebra.bracket",),
            values={"dim": str(alg.dim), "center_dim": str(center_dim)},
        )
    )

    quat_ok = True
    for a in (1, 2, 3):
        action = algebra.quaternion_action(alg, a)
        for i in range(alg.dim):
            ei = alg.basis_vector(i)
            for j in range(alg.dim):
                ej = alg.basis_vector(j)
                lhs = alg.bracket(ei, ej)[a - 1]
                rhs = alg.lam * action.apply(ei).dot(ej)
                if lhs != rhs:
                    quat_ok = False
    checks.append(
        _check(
            "algebra.quaternion-brackets",
            "bracket table equals quaternion left multiplication paired with the center",
            quat_ok,
            ops=("qhg.algebra.quaternion_action",),
        )
    )

    # closed form of d eta_i
    d_ok = True
    p = alg.p
    for i in (1, 2, 3):
        j, k = (i % 3) + 1, ((i + 1) % 3) + 1
        expected = KForm.zero(alg.dim, 2)
        for r in range(1, p + 1):
            expected = expected + wedge(alg.theta(r), alg.theta(i * p + r))
            expected = expected + wedge(alg.theta(j * p + r), alg.theta(k * p + r))
        expected = expected.scale(-alg.lam)
        if ce_differential(alg.eta(i), alg) != expected:
            d_ok = False
    checks.append(
        _check(
            "algebra.d-eta",
            "differentials of the vertical 1-forms match their closed form",
            d_ok,
            ops=("qhg.exterior.ce_differential",),
        )
    )

    theta_ok = all(
        ce_differential(alg.theta(l), alg).is_zero() for l in range(1, 4 * p + 1)
    )
    checks.append(
        _check(
            "algebra.d-theta",
            "horizontal 1-forms are closed",
            theta_ok,
            ops=("qhg.exterior.ce_differential",),
        )
    )

    dd_ok = True
    for idx in range(alg.dim):
        one = KForm.basis(alg.dim, (idx,))
        if not ce_differential(ce_differential(one, alg), alg).is_zero():
            dd_ok = False
    for i in (1, 2, 3):  # degree-2 spot checks
        two = wedge(alg.eta(i), alg.theta(i))
        if not ce_differential(ce_differential(two, alg), alg).is_zero():
            dd_ok = False
    checks.append(
        _check(
            "algebra.d-squared",
            "the invariant differential squares to zero",
            dd_ok,
            ops=("qhg.exterior.ce_differential",),
        )
    )

    vol = volume_form(alg.dim)
    star_ok = hodge_star(vol) == KForm.unit(alg.dim)
    sample = wedge(alg.eta(1), alg.theta(1))
    star_ok = star_ok and hodge_star(hodge_star(sample)) == sample
    inner_ok = form_inner(sample, sample) == ONE
    rt = wedge(alg.eta(2), alg.theta(2)) + wedge(alg.theta(1), alg.theta(2)).scale(3)
    round_trip = endo_two_form(two_form_endo(rt)) == rt
    int_ok = interior(alg.tau(1), wedge(alg.theta(1), alg.theta(2))) == alg.theta(2)
    checks.append(
        _check(
            "algebra.exterior-kernel",
            "Hodge star, interior product and the 2-form identification are consistent",
            star_ok and inner_ok and round_trip and int_ok,
            ops=(
                "qhg.exterior.wedge",
                "qhg.exterior.interior",
                "qhg.exterior.hodge_star",
                "qhg.exterior.form_inner",
                "qhg.exterior.two_form_endo",
                "qhg.exterior.endo_two_form",
            ),
        )
    )
    return checks


def _suite_connection(alg: algebra.QHAlgebra) -> list[CheckResult]:
    checks = []
    lc = connections.levi_civita(alg)
    t = connections.canonical_torsion(alg)
    conn = connections.with_torsion(alg, t)
    h_forms = connections.su2_generators(alg)
    h = [two_form_endo(f) for f in h_forms]

    killing_ok = True
    for i in (1, 2, 3):
        d_eta = ce_differential(alg.eta(i), alg)
        for x in range(alg.dim):
            lhs = lc.form(x).apply(alg.xi(i)).dual()
            rhs = interior(alg.basis_vector(x), d_eta).scale(Fraction(1, 2))
            if lhs != rhs:
                killing_ok = False
    checks.append(
        _check(
            "connection.killing-one-forms",
            "vertical 1-forms are Killing: nabla^g eta = (1/2) X . d eta",
            killing_ok,
            ops=("qhg.connections.levi_civita",),
        )
    )

    omega_ok = all(conn.form(idx).is_zero() for idx in alg.horizontal_indices) and all(
        conn.form(i - 1) == h[i - 1].scale(alg.lam).scale(-1) for i in (1, 2, 3)
    )
    checks.append(
        _check(
            "connection.omega-map",
            "canonical connection vanishes horizontally and is -lam x rotation vertically",
            omega_ok,
            ops=("qhg.connections.with_torsion", "qhg.connections.canonical_torsion"),
        )
    )

    su2_ok = (
        h[0].commutator(h[1]) == h[2].scale(2)
        and h[2].commutator(h[0]) == h[1].scale(2)
        and h[1].commutator(h[2]) == h[0].scale(2)
    )
    checks.append(
        _check(
            "connection.su2-relations",
            "the three rotation generators close into su(2)",
            su2_ok,
            ops=("qhg.connections.su2_generators",),
        )
    )

    checks.append(
        _check(
            "connection.torsion-roundtrip",
            "the torsion recovered from the connection equals the input 3-form",
            connections.torsion_form(alg, conn) == t,
            ops=("qhg.connections.torsion_form",),
        )
    )

    norm2 = form_inner(t, t)
    expected_norm = (Scalar(6 * alg.p) + Scalar(16)) * alg.lam * alg.lam
    checks.append(
        _check(
            "connection.torsion-norm",
            "squared torsion norm equals (6p + 16) lam^2",
            norm2 == expected_norm,
            ops=("qhg.exterior.form_inner",),
            values={"norm2": str(norm2)},
        )
    )

    r = connections.curvature(alg, conn)
    par_ok = connections.is_parallel(conn, t) and connections.is_parallel(conn, r)
    eta123 = wedge(wedge(alg.eta(1), alg.eta(2)), alg.eta(3))
    par_ok = par_ok and connections.is_parallel(conn, eta123)
    for rr in range(1, alg.p + 1):
        plane = alg.quaternionic_plane(rr)
        plane_vol = KForm.basis(alg.dim, plane)
        par_ok = par_ok and connections.is_parallel(conn, plane_vol)
    checks.append(
        _check(
            "connection.parallel",
            "torsion, curvature, vertical volume and plane volumes are all parallel",
            par_ok,
            ops=("qhg.connections.nabla_tensor", "qhg.connections.is_parallel"),
        )
    )

    closed_ok = True
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            expect = Endo.zero(alg.dim)
            for k in range(3):
                c = h_forms[k].coeff((i, j))
                if not c.is_zero():
                    expect = expect + h[k].scale(c)
            if r.endo(i, j) != expect.scale(alg.lam * alg.lam):
                closed_ok = False
    checks.append(
        _check(
            "connection.curvature-closed-form",
            "curvature equals lam^2 x (sum of rotation generators squared)",
            closed_ok,
            ops=("qhg.connections.curvature",),
        )
    )

    ric = connections.ricci(alg, conn)
    diag = [str(ric.entry(i, i)) for i in range(alg.dim)]
    vert_val = Scalar(-8) * alg.lam * alg.lam
    horiz_val = Scalar(-3) * alg.lam * alg.lam
    ric_ok = all(
        (ric.entry(i, j).is_zero()) if i != j else True
        for i in range(alg.dim)
        for j in range(alg.dim)
    )
    ric_ok = ric_ok and all(ric.entry(i, i) == vert_val for i in alg.vertical_indices)
    ric_ok = ric_ok and all(ric.entry(i, i) == horiz_val for i in alg.horizontal_indices)
    s_conn, s_g = connections.scalar_curvatures(alg, conn)
    expect_s_conn = Scalar(-12 * (alg.p + 2)) * alg.lam * alg.lam
    expect_s_g = Scalar(-3 * alg.p) * alg.lam * alg.lam
    scal_ok = (
        s_conn == expect_s_conn
        and s_g == expect_s_g
        and s_conn == ric.trace()
        and s_g - s_conn == Scalar(Fraction(3, 2)) * norm2
    )
    checks.append(
        _check(
            "connection.ricci",
            "Ricci is diag(-8 lam^2 x3, -3 lam^2 x4p) with the stated scalar curvatures",
            ric_ok and scal_ok,
            ops=("qhg.connections.ricci", "qhg.connections.scalar_curvatures"),
            values={
                "ricci_diag_vertical": diag[0],
                "ricci_diag_horizontal": diag[3],
                "s_connection": str(s_conn),
                "s_riemannian": str(s_g),
            },
        )
    )

    hol = connections.holonomy(alg, conn)
    hol_ok = len(hol) == 3
    hol_ok = hol_ok and connections.vertical_action_irreducible(alg, hol)
    hol_ok = hol_ok and all(
        connections.invariant_subspace(hol, alg.quaternionic_plane(rr))
        for rr in range(1, alg.p + 1)
    )
    checks.append(
        _check(
            "connection.holonomy",
            "holonomy is 3-dimensional, irreducible vertically, preserving each plane",
            hol_ok,
            ops=("qhg.connections.holonomy",),
            values={"holonomy_dim": str(len(hol))},
        )
    )

    if alg.p == 1:
        checks.append(
            _check(
                "connection.first-bianchi",
                "cyclic curvature sum satisfies the skew-torsion Bianchi identity",
                connections.first_bianchi_check(alg, conn),
                ops=("qhg.connections.first_bianchi_check",),
            )
        )

    ok, witness = connections.transvection_check(alg, conn)
    checks.append(
        _check(
            "connection.transvection",
            "the rebuilt homogeneous algebra satisfies Jacobi and reductivity",
            ok,
            ops=("qhg.connections.transvection_check",),
            witness=str(witness) if witness else None,
        )
    )
    return checks


def _suite_contact(alg: algebra.QHAlgebra) -> list[CheckResult]:
    checks = []
    phis = [contact.build_phi(alg, i) for i in (1, 2, 3)]
    checks.append(
        _check(
            "contact.axioms",
            "all three structures satisfy the almost contact metric axioms",
            all(contact.almost_contact_axioms(alg, ac) for ac in phis),
            ops=("qhg.contact.build_phi", "qhg.contact.almost_contact_axioms"),
        )
    )
    ok, witness = contact.compatibility_check(alg, phis)
    checks.append(
        _check(
            "contact.compatibility",
            "the triple satisfies the quaternionic compatibility equations",
            ok,
            ops=("qhg.contact.compatibility_check",),
            witness=str(witness) if witness else None,
        )
    )
    bad = [
        contact.build_phi(alg, 1),
        contact.build_phi(alg, 2, inconsistent_variant=True),
        contact.build_phi(alg, 3),
    ]
    bad_ok, _ = contact.compatibility_check(alg, bad)
    checks.append(
        _check(
            "contact.variant-discriminator",
            "the misindexed second structure fails the compatibility equations",
            not bad_ok,
            ops=("qhg.contact.compatibility_check",),
        )
    )
    checks.append(
        _check(
            "contact.normality",
            "all three structures are normal",
            all(contact.normality_check(alg, i) for i in (1, 2, 3)),
            ops=("qhg.contact.normality_check",),
        )
    )
    checks.append(
        _check(
            "contact.not-quasi-sasaki",
            "none of the structures is quasi-Sasaki",
            not any(contact.quasi_sasaki_check(alg, i) for i in (1, 2, 3)),
            ops=("qhg.contact.quasi_sasaki_check",),
        )
    )
    if alg.p == 1:
        conns = [contact.characteristic_connection(alg, i) for i in (1, 2, 3)]
        own_ok = all(
            connections.is_parallel(c, ac.phi)
            and connections.is_parallel(c, ac.eta)
            and connections.is_parallel(c, ac.xi)
            for c, ac in zip(conns, phis)
        )
        distinct = (
            contact.contact_characteristic_torsion(alg, 1)
            != contact.contact_characteristic_torsion(alg, 2)
        )
        cross_fails = not connections.is_parallel(conns[0], phis[1].phi)
        checks.append(
            _check(
                "contact.characteristic-connections",
                "each structure is parallel for its own connection, the three "
                "connections are distinct, and none is adapted to the others",
                own_ok and distinct and cross_fails,
                ops=("qhg.contact.characteristic_connection",),
            )
        )
    else:
        checks.append(
            _skip(
                "contact.characteristic-connections",
                "characteristic connections of the three structures",
                "stated in dimension 7 only",
                ops=("qhg.contact.characteristic_connection",),
            )
        )
    return checks


def _suite_qc(alg: algebra.QHAlgebra) -> list[CheckResult]:
    checks = []
    qc = contact.build_qc(alg)
    checks.append(
        _check(
            "qc.axioms",
            "quaternion relations, kernel property and the 1-form differentials hold",
            contact.qc_axioms_check(alg, qc),
            ops=("qhg.contact.build_qc", "qhg.contact.qc_axioms_check"),
        )
    )
    conn = connections.with_torsion(alg, connections.canonical_torsion(alg))
    checks.append(
        _check(
            "qc.canonical-preserves",
            "the canonical connection preserves the qc structure",
            contact.qc_preservation_check(alg, conn),
            ops=("qhg.contact.qc_preservation_check",),
        )
    )
    checks.append(
        _check(
            "qc.levi-civita-does-not",
            "the Levi-Civita connection does not preserve the splitting",
            not contact.qc_preservation_check(alg, connections.levi_civita(alg)),
            ops=("qhg.contact.qc_preservation_check",),
        )
    )
    flat = connections.flat_connection(alg)
    flat_ok = (
        contact.qc_preservation_check(alg, flat)
        and connections.curvature(alg, flat).is_zero()
        and len(connections.holonomy(alg, flat)) == 0
        and not connections.torsion_is_skew(alg, flat)
    )
    checks.append(
        _check(
            "qc.flat-connection",
            "the flat connection preserves the qc structure, has zero holonomy "
            "and its torsion is not totally skew",
            flat_ok,
            ops=("qhg.connections.flat_connection", "qhg.connections.torsion_is_skew"),
        )
    )
    if alg.p <= 2:
        dim, torsion = contact.qc_unique_skew(alg)
        unique_ok = dim == 1 and torsion == connections.canonical_torsion(alg)
        checks.append(
            _check(
                "qc.unique-skew-torsion",
                "exactly one totally skew torsion yields a qc-preserving connection",
                unique_ok,
                ops=("qhg.contact.qc_unique_skew",),
                values={"solution_dim": str(dim)},
            )
        )
    else:
        checks.append(
            _skip(
                "qc.unique-skew-torsion",
                "uniqueness of the skew torsion preserving the qc structure",
                "linear solve restricted to p <= 2",
                ops=("qhg.contact.qc_unique_skew",),
            )
        )
    return checks


def _suite_g2(alg: algebra.QHAlgebra) -> list[CheckResult]:
    checks = []
    omega = g2.build_omega(alg)
    comp_ok = (
        omega.coeff((0, 3, 4)) == Scalar(-1)
        and omega.coeff((0, 1, 2)) == ONE
        and omega.coeff((1, 4, 6)) == ONE
    )
    checks.append(
        _check(
            "g2.three-form",
            "the generic 3-form has the stated frame components",
            comp_ok,
            ops=("qhg.g2.build_omega",),
        )
    )
    t = connections.canonical_torsion(alg)
    eta123 = wedge(wedge(alg.eta(1), alg.eta(2)), alg.eta(3))
    checks.append(
        _check(
            "g2.torsion-relation",
            "canonical torsion equals lam x (3-form - 5 x vertical volume)",
            t == (omega - eta123.scale(5)).scale(alg.lam),
            ops=("qhg.connections.canonical_torsion",),
        )
    )
    checks.append(
        _check(
            "g2.generic",
            "the Hitchin form of the 3-form is definite",
            g2.genericity_check(alg, omega),
            ops=("qhg.g2.genericity_check",),
        )
    )
    checks.append(
        _check(
            "g2.cocalibrated",
            "the 3-form is cocalibrated: d(star omega) = 0",
            g2.cocalibrated_check(alg, omega),
            ops=("qhg.g2.cocalibrated_check", "qhg.exterior.hodge_star"),
        )
    )
    tc = g2.characteristic_torsion(alg, omega)
    pairing = form_inner(ce_differential(omega, alg), hodge_star(omega))
    checks.append(
        _check(
            "g2.characteristic-torsion",
            "the characteristic torsion of the 3-form equals the canonical torsion",
            tc == t,
            ops=("qhg.g2.characteristic_torsion",),
            values={"d_omega_pairing": str(pairing)},
        )
    )
    return checks


def _suite_spinors(alg: algebra.QHAlgebra) -> list[CheckResult]:
    checks = []
    gammas = clifford.gamma()
    rel_ok = True
    for i in range(7):
        for j in range(7):
            anti = gammas[i].compose(gammas[j]) + gammas[j].compose(gammas[i])
            expect = (
                clifford.SpinEndo.identity().scale(-2)
                if i == j
                else clifford.SpinEndo.zero()
            )
            if anti != expect:
                rel_ok = False
    rel_ok = rel_ok and clifford.volume_sign() == 1
    checks.append(
        _check(
            "spinors.clifford-relations",
            "generators anticommute, square to -Id, volume element is +Id",
            rel_ok,
            ops=("qhg.clifford.build_gamma",),
            values={"volume_sign": str(clifford.volume_sign())},
        )
    )

    h = [two_form_endo(f) for f in connections.su2_generators(alg)]
    lift_ok = True
    for a in h:
        lifted = clifford.spin_lift(a)
        for x in range(alg.dim):
            lhs = lifted.commutator(
                _gamma_of(alg.basis_vector(x))
            )
            rhs = _gamma_of(a.apply(alg.basis_vector(x)))
            if lhs != rhs:
                lift_ok = False
    two_form_ok = all(
        clifford.clifford_matrix(endo_two_form(a)) == clifford.spin_lift(a).scale(2)
        for a in h
    )
    checks.append(
        _check(
            "spinors.spin-lift",
            "the lift satisfies [lift(A), X] = AX and doubles the 2-form action",
            lift_ok and two_form_ok,
            ops=("qhg.clifford.spin_lift", "qhg.clifford.clifford_action"),
        )
    )

    conn = connections.with_torsion(alg, connections.canonical_torsion(alg))
    split = g2.parallel_spinor(alg, conn)
    dims = g2.splitting_dimensions(split)
    checks.append(
        _check(
            "spinors.parallel-spinor",
            "the lifted connection has a 1-dim invariant spinor line and the "
            "translate splitting is orthogonal with dimensions 1+3+4",
            dims == (1, 3, 4) and g2.splitting_orthogonal(split),
            ops=("qhg.g2.parallel_spinor",),
            values={"splitting": "1+3+4"},
        )
    )

    t = connections.canonical_torsion(alg)
    spectrum = g2.torsion_spectrum(alg, t, split)
    minus2 = Scalar(-2) * alg.lam
    spec_ok = (
        spectrum["psi0"] == minus2
        and spectrum["vertical"] is not None
        and spectrum["horizontal"] is not None
        and spectrum["trace"] == Scalar(0)
    )
    checks.append(
        _check(
            "spinors.torsion-spectrum",
            "torsion acts as -2 lam on the invariant spinor and as a scalar on "
            "each translate summand (traceless overall)",
            spec_ok,
            ops=("qhg.g2.torsion_spectrum",),
            values={
                "psi0": str(spectrum["psi0"]),
                "vertical": str(spectrum["vertical"]),
                "horizontal": str(spectrum["horizontal"]),
                "trace": str(spectrum["trace"]),
            },
        )
    )

    killing0 = g2.generalized_killing_check(alg, split.psi0)
    half = alg.lam * Fraction(1, 2)
    minus34 = alg.lam * Fraction(-3, 4)
    k0_ok = all(killing0[i] == half for i in alg.vertical_indices) and all(
        killing0[i] == minus34 for i in alg.horizontal_indices
    )
    checks.append(
        _check(
            "spinors.killing-invariant-spinor",
            "the invariant spinor is generalized Killing with eigenvalues "
            "lam/2 vertically and -3 lam/4 horizontally",
            k0_ok,
            ops=("qhg.g2.generalized_killing_check",),
            values={
                "vertical": str(killing0[0]),
                "horizontal": str(killing0[3]),
            },
        )
    )

    ki_ok = True
    horiz_values = set()
    distinct_counts = set()
    for i in (1, 2, 3):
        psi_i = clifford.vector_action(alg.xi(i), split.psi0)
        ki = g2.generalized_killing_check(alg, psi_i)
        if ki[i - 1] != half:
            ki_ok = False
        for j in (1, 2, 3):
            if j != i and ki[j - 1] != -half:
                ki_ok = False
        horiz = {str(ki[idx]) for idx in alg.horizontal_indices}
        if len(horiz) != 1 or any(k is None for k in ki):
            ki_ok = False
        horiz_values |= horiz
        distinct_counts.add(len({str(s) for s in ki}))
    checks.append(
        _check(
            "spinors.killing-translates",
            "the three translate spinors are generalized Killing with exactly "
            "three distinct eigenvalues (lam/2, -lam/2 and a horizontal value)",
            ki_ok and distinct_counts == {3},
            ops=("qhg.g2.generalized_killing_check",),
            values={"horizontal": ", ".join(sorted(horiz_values))},
        )
    )

    checks.append(
        _check(
            "spinors.proof-identities",
            "the interior-product identities behind the Killing equations hold",
            g2.proof_identities_check(alg, split),
            ops=("qhg.g2.proof_identities_check",),
        )
    )

    lc = connections.levi_civita(alg)
    both_ok = True
    for i in range(alg.dim):
        lhs = clifford.spin_lift(lc.form(i)).apply(split.psi0)
        rhs = clifford.clifford_matrix(
            interior(alg.basis_vector(i), t)
        ).apply(split.psi0).scale(Fraction(-1, 4))
        if lhs != rhs:
            both_ok = False
    checks.append(
        _check(
            "spinors.killing-via-torsion",
            "the Riemannian derivative of the invariant spinor equals "
            "-(1/4)(X . T) acting on it",
            both_ok,
            ops=("qhg.clifford.clifford_action",),
        )
    )
    return checks


def _gamma_of(v) -> clifford.SpinEndo:
    out = clifford.SpinEndo.zero()
    for i, c in enumerate(v):
        if not c.is_zero():
            out = out + clifford.gamma()[i].scale(c)
    return out


def _suite_cone(alg: algebra.QHAlgebra) -> list[CheckResult]:
    checks = []
    crit = cone.cone_constant(alg)
    checks.append(
        _check(
            "cone.constant",
            "the unique cone constant equals the metric parameter",
            crit.constant == alg.lam,
            ops=("qhg.cone.cone_constant",),
            values={"constant": str(crit.constant), "common_tensor_terms": str(len(crit.common.comps))},
        )
    )
    res = cone.coincidence_residuals(alg, alg.lam * 2)
    checks.append(
        _check(
            "cone.forced-constant-fails",
            "doubling the constant leaves a nonzero residual",
            any(not r.is_zero() for r in res),
            ops=("qhg.cone.coincidence_residuals",),
        )
    )
    flipped = cone.cone_constant(alg, opposite_convention=True)
    checks.append(
        _check(
            "cone.convention-discriminator",
            "the opposite 2-form convention flips the constant's sign",
            flipped.constant == -alg.lam,
            ops=("qhg.cone.cone_constant",),
        )
    )
    torsion_ok = all(
        crit.torsions[i - 1] == contact.contact_characteristic_torsion(alg, i)
        for i in (1, 2, 3)
    )
    checks.append(
        _check(
            "cone.torsion-recomputed",
            "the three torsions recovered from their connections match the formula",
            torsion_ok,
            ops=("qhg.connections.torsion_form",),
        )
    )
    return checks


_SUITE_RUNNERS = {
    "algebra": _suite_algebra,
    "connection": _suite_connection,
    "contact": _suite_contact,
    "qc": _suite_qc,
    "g2": _suite_g2,
    "spinors": _suite_spinors,
    "cone": _suite_cone,
}

# every public operation the full report at p = 1 must exercise
REQUIRED_OPS = (
    "qhg.algebra.build",
    "qhg.algebra.QHAlgebra.bracket",
    "qhg.algebra.jacobi_check",
    "qhg.exterior.wedge",
    "qhg.exterior.interior",
    "qhg.exterior.hodge_star",
    "qhg.exterior.form_inner",
    "qhg.exterior.two_form_endo",
    "qhg.exterior.endo_two_form",
    "qhg.exterior.ce_differential",
    "qhg.connections.levi_civita",
    "qhg.connections.with_torsion",
    "qhg.connections.canonical_torsion",
    "qhg.connections.curvature",
    "qhg.connections.nabla_tensor",
    "qhg.connections.is_parallel",
    "qhg.connections.ricci",
    "qhg.connections.scalar_curvatures",
    "qhg.connections.holonomy",
    "qhg.connections.transvection_check",
    "qhg.clifford.build_gamma",
    "qhg.clifford.clifford_action",
    "qhg.clifford.spin_lift",
    "qhg.contact.build_phi",
    "qhg.contact.compatibility_check",
    "qhg.contact.normality_check",
    "qhg.contact.quasi_sasaki_check",
    "qhg.contact.characteristic_connection",
    "qhg.contact.build_qc",
    "qhg.contact.qc_preservation_check",
    "qhg.contact.qc_unique_skew",
    "qhg.g2.build_omega",
    "qhg.g2.cocalibrated_check",
    "qhg.g2.characteristic_torsion",
    "qhg.g2.parallel_spinor",
    "qhg.g2.torsion_spectrum",
    "qhg.g2.generalized_killing_check",
    "qhg.g2.proof_identities_check",
    "qhg.cone.cone_constant",
)


def run(config: ReportConfig) -> VerificationReport:
    """Run the selected suites; raises ConfigError on a bad configuration."""
    config.validate()
    suites = config.resolved_suites()
    if config.p != 1:
        suites = tuple(s for s in suites if s not in P1_ONLY)
    alg = algebra.build(config.p, config.lam)
    report = VerificationReport(config=config)
    for name in suites:
        report.checks.extend(_SUITE_RUNNERS[name](alg))
    return report
