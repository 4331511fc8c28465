"""Known-answer gate: every verdict the benchmark times is checked here.

The expected statuses and values are written by hand from the paper's
statements and the closed forms pinned by the tier-1 tests, as functions
of p; none of them is copied from a captured run.  The only recorded
data are the SHA-256 digests of the certify reports, which guard the
byte-identity of the JSON output against the engine at commit 3bc49dd.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from qhg.exterior import Vector

# SHA-256 of the stdout of `qhg verify --p <p> --suite <suite> --format json`
REPORT_DIGESTS = {
    (1, "all"): "e4f3f187f2c15dee80b29d324b611fb1d2a05aef0f6efb69aadf88b3b1afa578",
    (5, "connection"): "9f3b77df08bd8728818ceeae7e3b64d33beb75daffa32a49f39687a2a9c29cd3",
    (2, "qc"): "f4de519bacfeb6eae661523cd29fa35c95c9bbe9ae3af326c26c7784a824e47e",
}

SUITE_ORDER = ("algebra", "connection", "contact", "qc", "g2", "spinors", "cone")


def lam(coeff, exp: int = 1) -> str:
    """The report's spelling of the monomial coeff * l^exp, e.g. -12*l^2."""
    c = Fraction(coeff)
    var = "l" if exp == 1 else f"l^{exp}"
    if c == 1:
        return var
    if c == -1:
        return f"-{var}"
    return f"{c}*{var}"


def expected_checks(p: int, suite: str) -> list[tuple[str, dict | None]]:
    """(check name, expected values) in report order; every status is pass.

    Covers the configurations the benchmark runs: any p for algebra and
    connection, p <= 2 for qc, and p = 1 for contact, g2, spinors and cone.
    """
    if suite == "algebra":
        return [
            ("algebra.jacobi", None),
            ("algebra.center", {"dim": str(4 * p + 3), "center_dim": "3"}),
            ("algebra.quaternion-brackets", None),
            ("algebra.d-eta", None),
            ("algebra.d-theta", None),
            ("algebra.d-squared", None),
            ("algebra.exterior-kernel", None),
        ]
    if suite == "connection":
        return [
            ("connection.killing-one-forms", None),
            ("connection.omega-map", None),
            ("connection.su2-relations", None),
            ("connection.torsion-roundtrip", None),
            ("connection.torsion-norm", {"norm2": lam(6 * p + 16, 2)}),
            ("connection.parallel", None),
            ("connection.curvature-closed-form", None),
            (
                "connection.ricci",
                {
                    "ricci_diag_vertical": lam(-8, 2),
                    "ricci_diag_horizontal": lam(-3, 2),
                    "s_connection": lam(-12 * (p + 2), 2),
                    "s_riemannian": lam(-3 * p, 2),
                },
            ),
            ("connection.holonomy", {"holonomy_dim": "3"}),
            *([("connection.first-bianchi", None)] if p == 1 else []),
            ("connection.transvection", None),
        ]
    if suite == "contact":
        return [
            ("contact.axioms", None),
            ("contact.compatibility", None),
            ("contact.variant-discriminator", None),
            ("contact.normality", None),
            ("contact.not-quasi-sasaki", None),
            ("contact.characteristic-connections", None),
        ]
    if suite == "qc":
        return [
            ("qc.axioms", None),
            ("qc.canonical-preserves", None),
            ("qc.levi-civita-does-not", None),
            ("qc.flat-connection", None),
            ("qc.unique-skew-torsion", {"solution_dim": "1"}),
        ]
    if suite == "g2":
        return [
            ("g2.three-form", None),
            ("g2.torsion-relation", None),
            ("g2.generic", None),
            ("g2.cocalibrated", None),
            ("g2.characteristic-torsion", {"d_omega_pairing": lam(12)}),
        ]
    if suite == "spinors":
        return [
            ("spinors.clifford-relations", {"volume_sign": "1"}),
            ("spinors.spin-lift", None),
            ("spinors.parallel-spinor", {"splitting": "1+3+4"}),
            (
                "spinors.torsion-spectrum",
                {"psi0": lam(-2), "vertical": lam(6), "horizontal": lam(-4), "trace": "0"},
            ),
            (
                "spinors.killing-invariant-spinor",
                {"vertical": lam(Fraction(1, 2)), "horizontal": lam(Fraction(-3, 4))},
            ),
            ("spinors.killing-translates", {"horizontal": lam(Fraction(1, 4))}),
            ("spinors.proof-identities", None),
            ("spinors.killing-via-torsion", None),
        ]
    if suite == "cone":
        # the common tensor -sum eta_j ^ d eta_j + 2 lam eta_123 has 6p + 1 terms
        return [
            ("cone.constant", {"constant": lam(1), "common_tensor_terms": str(6 * p + 1)}),
            ("cone.forced-constant-fails", None),
            ("cone.convention-discriminator", None),
            ("cone.torsion-recomputed", None),
        ]
    raise ValueError(f"no known answers for suite {suite!r}")


def check_report(
    p: int, suite: str, rc: int, stdout: str, digest: str | None
) -> tuple[int, list[str]]:
    """Gate one certify report: (checks decided correctly, discrepancies).

    A report is a wrong verdict when the discrepancy list is not empty:
    exit code, JSON digest, summary, or any check's status, values or
    witness differs from the known answer.
    """
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}, expected 0")
    if digest is not None:
        got = hashlib.sha256(stdout.encode()).hexdigest()
        if got != digest:
            problems.append(f"JSON digest {got[:12]} differs from the recorded {digest[:12]}")
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return 0, problems + [f"output is not JSON: {exc}"]

    run_suites = SUITE_ORDER if suite == "all" else (suite,)
    expected = [row for s in run_suites for row in expected_checks(p, s)]
    got_checks = payload.get("checks", [])
    if [c.get("name") for c in got_checks] != [name for name, _ in expected]:
        problems.append("check list differs from the known answer")
    correct = 0
    for (name, values), got in zip(expected, got_checks):
        mismatch = [
            f"{key}={got.get(key)!r}, expected {want!r}"
            for key, want in (
                ("name", name),
                ("status", "pass"),
                ("values", values),
                ("witness", None),
            )
            if got.get(key) != want
        ]
        if mismatch:
            problems.append(f"{name}: " + "; ".join(mismatch))
        else:
            correct += 1
    n = len(expected)
    summary = {"total": n, "passed": n, "failed": 0, "skipped": 0}
    if payload.get("summary") != summary:
        problems.append(f"summary {payload.get('summary')}, expected {summary}")
    config = {"p": p, "lambda": "formal", "suites": [suite], "format": "json"}
    if payload.get("config") != config:
        problems.append(f"config {payload.get('config')}, expected {config}")
    return correct, problems


# -- refutations ---------------------------------------------------------------


def copy_partners(p: int, c: int) -> list[int]:
    """Frame indices whose bracket with tau at frame index c is nonzero.

    Every two distinct units of one quaternion copy bracket into the
    center, so the partners are the other three members of c's copy.
    """
    r = (c - 3) % p + 1
    return [2 + q * p + r for q in range(4) if 2 + q * p + r != c]


def mutant_witness(p: int, a: int, b: int, c: int) -> tuple[int, int, int]:
    """First failing frame triple of jacobi_check after [tau_a, tau_b] += lam tau_c.

    Only the Jacobi sums on {a, b, z} can change, and for a partner z of
    c the sum is lam [tau_c, tau_z] != 0 because brackets with central
    vectors vanish; jacobi_check scans sorted triples lexicographically.
    """
    return min(tuple(sorted((a, b, z))) for z in copy_partners(p, c) if z not in (a, b))


def jacobi_sum_is_nonzero(alg, triple) -> bool:
    """Recompute the cyclic Jacobi sum on a frame triple with QHAlgebra.bracket."""
    x, y, z = (Vector.basis(alg.dim, i) for i in triple)
    total = (
        alg.bracket(alg.bracket(x, y), z)
        + alg.bracket(alg.bracket(y, z), x)
        + alg.bracket(alg.bracket(z, x), y)
    )
    return not total.is_zero()


def check_mutant(alg, expected_witness, verdict: str) -> list[str]:
    """Gate a Jacobi refutation of the mutated algebra `alg`."""
    got = json.loads(verdict)
    problems = []
    if got["status"] != "fail":
        problems.append(f"jacobi status {got['status']}, expected fail")
    elif tuple(got["witness"]) != expected_witness:
        problems.append(f"witness {got['witness']}, expected {list(expected_witness)}")
    elif not jacobi_sum_is_nonzero(alg, expected_witness):
        problems.append(f"Jacobi sum on {list(expected_witness)} recomputes to zero")
    return problems


# the perturbation lam * theta_ijk is horizontal, so it leaves Omega(xi_m)
# unchanged, and -lam h_m moves every basis horizontal 3-form: h_m pairs
# the four units of each copy without fixed points, and no 3-element set
# is a union of pairs.  Hence the torsion is never parallel.
TORSION_WITNESS = ["torsion not parallel"]


def check_torsion(verdict: str) -> list[str]:
    """Gate a transvection refutation of a perturbed canonical torsion."""
    got = json.loads(verdict)
    if got["status"] != "fail":
        return [f"transvection status {got['status']}, expected fail"]
    if got["witness"] != TORSION_WITNESS:
        return [f"witness {got['witness']}, expected {TORSION_WITNESS}"]
    return []
