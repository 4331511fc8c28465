"""Verification checks and report assembly for the command line.

The report is one table, CHECKS, in report order.  Each row names a
check, the library operations it exercises, the claim it certifies and
the function that decides it.  `run` builds the algebra and the
canonical and Levi-Civita connection bundles once; every check reads
them, and the inputs several checks share, from one `_Run`.  Reports are
deterministic: the same configuration always produces byte-identical JSON.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, NamedTuple

from . import algebra, clifford, cone, connections, contact, exterior, g2
from .connections import Geometry
from .exterior import KForm, ce_differential, form_inner, wedge
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
            if s != "all" and s not in SUITES:
                raise ConfigError(f"unknown suite {s!r}")
            requested.extend(SUITES if s == "all" else (s,))
        return tuple(dict.fromkeys(requested))  # stable dedupe

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
        n = Counter(c.status for c in self.checks)
        return {"total": len(self.checks), "passed": n["pass"], "failed": n["fail"],
                "skipped": n["skipped"]}

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


class _Run:
    """What the checks of one report read: the algebra, its canonical
    torsion, the canonical and Levi-Civita bundles, and the inputs several
    checks share, each built at most once, on first read.  What the algebra
    alone determines (the phi_i, the qc structure, ...) its own memo keeps."""

    def __init__(self, alg: algebra.QHAlgebra, t: KForm, can: Geometry, lc: Geometry):
        self.alg, self.t, self.can, self.lc = alg, t, can, lc

    @cached_property
    def h(self) -> list[exterior.Endo]:
        return [exterior.two_form_endo(f) for f in connections.su2_generators(self.alg)]

    @cached_property
    def omega(self) -> KForm:
        return g2.build_omega(self.alg)

    @cached_property
    def split(self) -> g2.SpinorSplitting:
        return g2.parallel_spinor(self.alg, self.can.conn)

    @cached_property
    def crit(self) -> cone.ConeCriterion:
        return cone.cone_constant(self.alg)


def _center(r: _Run):
    dim = algebra.center_dimension(r.alg)
    ok = dim == 3 and algebra.two_step_nilpotent(r.alg, r.alg.vertical_indices)
    return ok, {"dim": r.alg.dim, "center_dim": dim}


def _torsion_norm(r: _Run):
    norm2 = form_inner(r.t, r.t)
    return norm2 == Scalar(6 * r.alg.p + 16) * r.alg.lam * r.alg.lam, {"norm2": norm2}


def _ricci(r: _Run):
    ric, s_conn, s_g = r.can.ricci, r.can.ricci.trace(), r.lc.ricci.trace()
    ok = (
        ric == connections.ricci_closed_form(r.alg)
        and s_g == Scalar(-3 * r.alg.p) * r.alg.lam * r.alg.lam
        and s_g - s_conn == Scalar(Fraction(3, 2)) * form_inner(r.t, r.t)
    )
    return ok, {"ricci_diag_vertical": ric.entry(0, 0), "ricci_diag_horizontal": ric.entry(3, 3),
                "s_connection": s_conn, "s_riemannian": s_g}


def _qc_unique(r: _Run):
    dim, torsion = contact.qc_unique_skew(r.alg)
    return dim == 1 and torsion == r.t, {"solution_dim": dim}


def _g2_characteristic_torsion(r: _Run):
    pairing = form_inner(ce_differential(r.omega, r.alg), exterior.hodge_star(r.omega))
    return g2.characteristic_torsion(r.alg, r.omega) == r.t, {"d_omega_pairing": pairing}


def _torsion_spectrum(r: _Run):
    spectrum = g2.torsion_spectrum(r.alg, r.t, r.split)
    keys = ("psi0", "vertical", "horizontal", "trace")
    ok = spectrum["psi0"] == Scalar(-2) * r.alg.lam and spectrum["trace"].is_zero()
    ok = ok and spectrum["vertical"] is not None and spectrum["horizontal"] is not None
    return ok, {k: spectrum[k] for k in keys}


def _killing_invariant(r: _Run):
    ki = g2.generalized_killing_check(r.alg, r.split.psi0)
    return ki == g2.invariant_killing_values(r.alg), {"vertical": ki[0], "horizontal": ki[3]}


def _killing_translates(r: _Run):
    ok, horizontal = g2.translate_killing_check(r.alg, r.split.psi0)
    return ok, {"horizontal": ", ".join(sorted(horizontal))}


class Check(NamedTuple):
    """One row of the table.  `check` returns a verdict, or (verdict, values)
    with values a dict, or (verdict, witness).  Beyond p = p_max the row is
    reported as skipped with skip = (claim, reason), or left out if skip is None."""

    name: str
    ops: tuple[str, ...]  # library operations, without the "qhg." prefix
    claim: str
    check: Callable[[_Run], object]
    p_max: int | None = None
    skip: tuple[str, str] | None = None


CHECKS = (
    Check("algebra.jacobi", ("algebra.build", "algebra.jacobi_check", "algebra.QHAlgebra.bracket"),
          "Jacobi identity holds on all frame triples", lambda r: algebra.jacobi_check(r.alg)),
    Check("algebra.center", ("algebra.center_dimension", "algebra.two_step_nilpotent"),
          "center is the 3-dim vertical space and brackets are 2-step nilpotent", _center),
    Check("algebra.quaternion-brackets", ("algebra.quaternion_action", "exterior.two_form_endo"),
          "bracket table equals quaternion left multiplication paired with the center",
          lambda r: algebra.quaternion_brackets_check(r.alg)),
    Check("algebra.d-eta", ("exterior.ce_differential",),
          "differentials of the vertical 1-forms match their closed form",
          lambda r: all(ce_differential(r.alg.eta(i), r.alg) == algebra.d_eta_closed_form(r.alg, i)
                        for i in (1, 2, 3))),
    Check("algebra.d-theta", ("exterior.ce_differential",), "horizontal 1-forms are closed",
          lambda r: all(ce_differential(r.alg.theta(l), r.alg).is_zero()
                        for l in range(1, 4 * r.alg.p + 1))),
    Check("algebra.d-squared", ("exterior.ce_differential",),
          "the invariant differential squares to zero",
          lambda r: all(ce_differential(ce_differential(f, r.alg), r.alg).is_zero()
                        for f in [KForm.basis(r.alg.dim, (i,)) for i in range(r.alg.dim)]
                        + [wedge(r.alg.eta(i), r.alg.theta(i)) for i in (1, 2, 3)])),
    Check("algebra.exterior-kernel",
          ("exterior.wedge", "exterior.interior", "exterior.hodge_star", "exterior.form_inner",
           "exterior.two_form_endo", "exterior.endo_two_form"),
          "Hodge star, interior product and the 2-form identification are consistent",
          lambda r: exterior.consistency_check(r.alg)),
    Check("connection.killing-one-forms", ("connections.levi_civita", "exterior.ce_differential"),
          "vertical 1-forms are Killing: nabla^g eta = (1/2) X . d eta",
          lambda r: connections.killing_one_forms_check(r.alg, r.lc.conn)),
    Check("connection.omega-map", ("connections.with_torsion", "connections.canonical_torsion"),
          "canonical connection vanishes horizontally and is -lam x rotation vertically",
          lambda r: all(r.can.conn.form(i).is_zero() for i in r.alg.horizontal_indices)
          and all(r.can.conn.form(i) == r.h[i].scale(-r.alg.lam) for i in range(3))),
    Check("connection.su2-relations", ("connections.su2_generators",),
          "the three rotation generators close into su(2)",
          lambda r: all(r.h[i].commutator(r.h[(i + 1) % 3]) == r.h[(i + 2) % 3].scale(2)
                        for i in range(3))),
    Check("connection.torsion-roundtrip", ("connections.Geometry.torsion_form",),
          "the torsion recovered from the connection equals the input 3-form",
          lambda r: r.can.torsion_form == r.t),
    Check("connection.torsion-norm", ("exterior.form_inner",),
          "squared torsion norm equals (6p + 16) lam^2", _torsion_norm),
    Check("connection.parallel", ("connections.is_parallel", "connections.Geometry.curvature_parallel"),
          "torsion, curvature, vertical volume and plane volumes are all parallel",
          lambda r: r.can.torsion_parallel and r.can.curvature_parallel
          and connections.volumes_parallel(r.alg, r.can.conn)),
    Check("connection.curvature-closed-form",
          ("connections.Geometry.curvature_parts", "connections.su2_curvature"),
          "curvature equals lam^2 x (sum of rotation generators squared)",
          lambda r: r.can.curvature_parts == connections.su2_curvature(r.alg)),
    Check("connection.ricci",
          ("connections.Geometry.ricci", "connections.ricci_closed_form", "exterior.Endo.trace"),
          "Ricci is diag(-8 lam^2 x3, -3 lam^2 x4p) with the stated scalar curvatures", _ricci),
    Check("connection.holonomy",
          ("connections.Geometry.holonomy", "connections.su2_holonomy_check"),
          "holonomy is 3-dimensional, irreducible vertically, preserving each plane",
          lambda r: (connections.su2_holonomy_check(r.alg, r.can.holonomy),
                     {"holonomy_dim": len(r.can.holonomy)})),
    Check("connection.first-bianchi", ("connections.Geometry.first_bianchi", "connections.nabla_tensor"),
          "cyclic curvature sum satisfies the skew-torsion Bianchi identity",
          lambda r: r.can.first_bianchi, p_max=1),
    Check("connection.transvection", ("connections.Geometry.transvection",),
          "the rebuilt homogeneous algebra satisfies Jacobi and reductivity",
          lambda r: r.can.transvection),
    Check("contact.axioms", ("contact.build_phi", "contact.almost_contact_axioms"),
          "all three structures satisfy the almost contact metric axioms",
          lambda r: all(contact.almost_contact_axioms(r.alg, contact.build_phi(r.alg, i))
                        for i in (1, 2, 3))),
    Check("contact.compatibility", ("contact.compatibility_check",),
          "the triple satisfies the quaternionic compatibility equations",
          lambda r: contact.compatibility_check(r.alg)),
    Check("contact.variant-discriminator", ("contact.compatibility_check",),
          "the misindexed second structure fails the compatibility equations",
          lambda r: not contact.compatibility_check(r.alg, [contact.build_phi(r.alg, 1),
              contact.build_phi(r.alg, 2, inconsistent_variant=True), contact.build_phi(r.alg, 3)])[0]),
    Check("contact.normality", ("contact.normality_check",), "all three structures are normal",
          lambda r: all(contact.normality_check(r.alg, i) for i in (1, 2, 3))),
    Check("contact.not-quasi-sasaki", ("contact.quasi_sasaki_check",),
          "none of the structures is quasi-Sasaki",
          lambda r: not any(contact.quasi_sasaki_check(r.alg, i) for i in (1, 2, 3))),
    Check("contact.characteristic-connections", ("contact.characteristic_connection",),
          "each structure is parallel for its own connection, the three "
          "connections are distinct, and none is adapted to the others",
          lambda r: contact.characteristic_connections_check(r.alg), p_max=1,
          skip=("characteristic connections of the three structures",
                "stated in dimension 7 only")),
    Check("qc.axioms", ("contact.build_qc", "contact.qc_axioms_check"),
          "quaternion relations, kernel property and the 1-form differentials hold",
          lambda r: contact.qc_axioms_check(r.alg, contact.build_qc(r.alg))),
    Check("qc.canonical-preserves", ("contact.qc_preservation_check",),
          "the canonical connection preserves the qc structure",
          lambda r: contact.qc_preservation_check(r.alg, r.can.conn)),
    Check("qc.levi-civita-does-not", ("contact.qc_preservation_check",),
          "the Levi-Civita connection does not preserve the splitting",
          lambda r: not contact.qc_preservation_check(r.alg, r.lc.conn)),
    Check("qc.flat-connection",
          ("contact.flat_connection_check", "connections.flat_connection",
           "connections.Geometry.torsion_form"),
          "the flat connection preserves the qc structure, has zero holonomy "
          "and its torsion is not totally skew",
          lambda r: contact.flat_connection_check(r.alg)),
    Check("qc.unique-skew-torsion", ("contact.qc_unique_skew",),
          "exactly one totally skew torsion yields a qc-preserving connection", _qc_unique),
    Check("g2.three-form", ("g2.build_omega",),
          "the generic 3-form has the stated frame components",
          lambda r: [r.omega.coeff(idx) for idx in ((0, 3, 4), (0, 1, 2), (1, 4, 6))]
          == [Scalar(-1), ONE, ONE]),
    Check("g2.torsion-relation", ("connections.canonical_torsion",),
          "canonical torsion equals lam x (3-form - 5 x vertical volume)",
          lambda r: r.t == (r.omega - KForm.basis(r.alg.dim, (0, 1, 2)).scale(5)).scale(r.alg.lam)),
    Check("g2.generic", ("g2.genericity_check",), "the Hitchin form of the 3-form is definite",
          lambda r: g2.genericity_check(r.alg, r.omega)),
    Check("g2.cocalibrated", ("g2.cocalibrated_check", "exterior.hodge_star"),
          "the 3-form is cocalibrated: d(star omega) = 0",
          lambda r: g2.cocalibrated_check(r.alg, r.omega)),
    Check("g2.characteristic-torsion", ("g2.characteristic_torsion",),
          "the characteristic torsion of the 3-form equals the canonical torsion",
          _g2_characteristic_torsion),
    Check("spinors.clifford-relations", ("clifford.build_gamma",),
          "generators anticommute, square to -Id, volume element is +Id",
          lambda r: (clifford.relations_check(), {"volume_sign": clifford.volume_sign()})),
    Check("spinors.spin-lift",
          ("clifford.lift_check", "clifford.spin_lift", "clifford.clifford_matrix"),
          "the lift satisfies [lift(A), X] = AX and doubles the 2-form action",
          lambda r: all(clifford.lift_check(a) for a in r.h)),
    Check("spinors.parallel-spinor", ("g2.parallel_spinor",),
          "the lifted connection has a 1-dim invariant spinor line and the "
          "translate splitting is orthogonal with dimensions 1+3+4",
          lambda r: (g2.splitting_dimensions(r.split) == (1, 3, 4)
                     and g2.splitting_orthogonal(r.split), {"splitting": "1+3+4"})),
    Check("spinors.torsion-spectrum", ("g2.torsion_spectrum",),
          "torsion acts as -2 lam on the invariant spinor and as a scalar on "
          "each translate summand (traceless overall)", _torsion_spectrum),
    Check("spinors.killing-invariant-spinor", ("g2.generalized_killing_check",),
          "the invariant spinor is generalized Killing with eigenvalues "
          "lam/2 vertically and -3 lam/4 horizontally", _killing_invariant),
    Check("spinors.killing-translates",
          ("g2.translate_killing_check", "g2.generalized_killing_check"),
          "the three translate spinors are generalized Killing with exactly "
          "three distinct eigenvalues (lam/2, -lam/2 and a horizontal value)", _killing_translates),
    Check("spinors.proof-identities", ("g2.proof_identities_check", "clifford.vector_action"),
          "the interior-product identities behind the Killing equations hold",
          lambda r: g2.proof_identities_check(r.alg, r.split)),
    Check("spinors.killing-via-torsion",
          ("g2.killing_via_torsion_check", "clifford.gamma_product"),
          "the Riemannian derivative of the invariant spinor equals "
          "-(1/4)(X . T) acting on it",
          lambda r: g2.killing_via_torsion_check(r.alg, r.t, r.split.psi0)),
    Check("cone.constant", ("cone.cone_constant",),
          "the unique cone constant equals the metric parameter",
          lambda r: (r.crit.constant == r.alg.lam, {"constant": r.crit.constant,
                     "common_tensor_terms": len(r.crit.common.comps)})),
    Check("cone.forced-constant-fails", ("cone.coincidence_residuals",),
          "doubling the constant leaves a nonzero residual",
          lambda r: any(not x.is_zero() for x in cone.coincidence_residuals(r.alg, r.alg.lam * 2))),
    Check("cone.convention-discriminator", ("cone.cone_constant",),
          "the opposite 2-form convention flips the constant's sign",
          lambda r: cone.cone_constant(r.alg, opposite_convention=True).constant == -r.alg.lam),
    Check("cone.torsion-recomputed", ("connections.Geometry.torsion_form",),
          "the three torsions recovered from their connections match the formula",
          lambda r: all(r.crit.torsions[i - 1] == contact.contact_characteristic_torsion(r.alg, i)
                        for i in (1, 2, 3))),
)

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
    "qhg.connections.Geometry.curvature_parts",
    "qhg.connections.nabla_tensor",
    "qhg.connections.is_parallel",
    "qhg.connections.Geometry.ricci",
    "qhg.exterior.Endo.trace",
    "qhg.connections.Geometry.holonomy",
    "qhg.connections.Geometry.transvection",
    "qhg.clifford.build_gamma",
    "qhg.clifford.clifford_matrix",
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


def _decide(row: Check, r: _Run) -> CheckResult:
    ops = tuple(f"qhg.{op}" for op in row.ops)
    if row.p_max is not None and r.alg.p > row.p_max:
        claim, reason = row.skip
        return CheckResult(row.name, claim, "skipped", witness=reason, ops=ops)
    out = row.check(r)
    ok, extra = out if isinstance(out, tuple) else (out, None)
    if isinstance(extra, dict):
        values, witness = {k: str(v) for k, v in extra.items()}, None
    else:
        values, witness = None, None if ok or extra is None else str(extra)
    return CheckResult(row.name, row.claim, "pass" if ok else "fail", witness, values, ops)


def run(config: ReportConfig) -> VerificationReport:
    """Run the selected suites; raises ConfigError on a bad configuration."""
    config.validate()
    suites = config.resolved_suites()
    if config.p != 1:
        suites = tuple(s for s in suites if s not in P1_ONLY)
    alg = algebra.build(config.p, config.lam)
    t = connections.canonical_torsion(alg)
    can = Geometry(alg, connections.with_torsion(alg, t))
    lc = Geometry(alg, connections.levi_civita(alg))
    r = _Run(alg, t, can, lc)
    rows = [row for s in suites for row in CHECKS if row.name.split(".")[0] == s]
    rows = [row for row in rows if row.skip or row.p_max is None or alg.p <= row.p_max]
    return VerificationReport(config, [_decide(row, r) for row in rows])
