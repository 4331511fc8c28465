import hashlib
import inspect
import json
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest

from qhg import algebra, cone, connections, contact, g2, report
from qhg.cli import main
from qhg.report import ConfigError, ReportConfig, run
from qhg.scalars import Scalar
from support import (
    UNRUN_ALLOWED,
    cli_env,
    code_of,
    executed_code,
    profiled_report,
    unexecuted,
    unrun_in_cli_report,
)


# SHA-256 of the full formal JSON report; any change to its bytes shows here
GOLDEN_DIGESTS = {
    1: "e4f3f187f2c15dee80b29d324b611fb1d2a05aef0f6efb69aadf88b3b1afa578",
    2: "17e0d7ecfac26d20298203b0d8f2083a4a9d686e49220aa35e65f4e6d52841f7",
    3: "c0f68f2e41f2c8fba925ec0af16e21af7745f5b4fc09f7dff529d77eb61c4689",
    4: "6d7ec2a53c71d4332a58a6064cd87046e2333b71a2c26f21d690aaf6fab6428c",
}


def _digest(rep) -> str:
    return hashlib.sha256(rep.to_json().encode()).hexdigest()


def test_full_report_passes_p1():
    rep = run(ReportConfig(p=1, suites=("all",), fmt="json"))
    assert rep.all_passed
    assert rep.summary["failed"] == 0
    assert rep.summary["skipped"] == 0
    assert _digest(rep) == GOLDEN_DIGESTS[1]


@pytest.mark.parametrize("p", [2, 3, 4])
def test_full_report_passes_larger_p(p):
    rep = run(ReportConfig(p=p, suites=("all",), fmt="json"))
    assert rep.summary["failed"] == 0
    assert _digest(rep) == GOLDEN_DIGESTS[p]


def test_specialized_parameter_report():
    rep = run(ReportConfig(p=3, lam=Fraction(2), suites=("connection",), fmt="json"))
    assert rep.all_passed
    ricci = next(c for c in rep.checks if c.name == "connection.ricci")
    assert ricci.values["s_connection"] == "-240"
    assert ricci.values["s_riemannian"] == "-36"


# SHA-256 of the JSON report of `--p 1 --lambda 3/2`: a numeric parameter
# enters the hol + m table through its degree and denominator
LAMBDA_3_2_DIGEST = "c9cd75690ffd0196f5847bfae9dc6d9c7dac31b8eaa226f671c958fed611f619"


def test_specialized_parameter_report_digest():
    rep = run(ReportConfig(p=1, lam=Fraction(3, 2), suites=("all",), fmt="json"))
    assert rep.all_passed and _digest(rep) == LAMBDA_3_2_DIGEST


# a monomial as Scalar prints it: l, -l, c*l, l^k, -l^k, c*l^k
_MONOMIAL = re.compile(r"^(?:(-?\d+(?:/\d+)?)\*|(-))?l(?:\^(-?\d+))?$")


def _read_at(value: str, q: Fraction) -> str:
    """A formal value string at l = q: c*l^k prints as c*q^k, a rational as itself."""
    m = _MONOMIAL.match(value)
    if m is None:
        assert "l" not in value, value
        return value
    coeff = Fraction(m[1]) if m[1] else Fraction(-1 if m[2] else 1)
    return str(Scalar(coeff * q ** int(m[3] or 1)))


@lru_cache(maxsize=None)
def _formal_checks(p: int):
    return json.loads(run(ReportConfig(p=p, suites=("all",), fmt="json")).to_json())["checks"]


@pytest.mark.parametrize("q", [Fraction(3, 2), Fraction(2, 7), Fraction(5)])
@pytest.mark.parametrize("p", [1, 2])
def test_lambda_q_is_the_formal_report_at_q(p, q):
    """`--lambda q` decides every check as the formal report does, and each
    formal value c*l^k prints as c*q^k: reading l at 1 proves for every q > 0."""
    formal = _formal_checks(p)
    at_q = json.loads(run(ReportConfig(p=p, lam=q, suites=("all",), fmt="json")).to_json())["checks"]
    assert [c["name"] for c in at_q] == [c["name"] for c in formal]
    read = 0
    for f, c in zip(formal, at_q):
        assert (c["status"], c.get("witness")) == (f["status"], f.get("witness")), f["name"]
        values = f.get("values", {})
        assert c.get("values", {}).keys() == values.keys(), f["name"]
        for key, v in values.items():
            assert c["values"][key] == _read_at(v, q), (f["name"], key)
            read += "l" in v
    assert read == {1: 13, 2: 5}[p]  # the values that carry l


def test_json_deterministic():
    cfg = ReportConfig(p=1, suites=("algebra", "connection"), fmt="json")
    assert run(cfg).to_json() == run(cfg).to_json()


def test_json_round_trip_schema():
    rep = run(ReportConfig(p=1, suites=("cone",), fmt="json"))
    payload = json.loads(rep.to_json())
    assert set(payload) == {"config", "checks", "summary"}
    assert payload["config"]["lambda"] == "formal"
    for check in payload["checks"]:
        assert {"name", "claim", "status"} <= set(check)
        assert check["status"] in ("pass", "fail", "skipped")
    assert payload["summary"]["total"] == len(payload["checks"])


def test_config_errors():
    with pytest.raises(ConfigError):
        run(ReportConfig(p=0))
    with pytest.raises(ConfigError):
        run(ReportConfig(p=2, suites=("g2",)))
    with pytest.raises(ConfigError):
        run(ReportConfig(p=1, suites=("nonsense",)))
    with pytest.raises(ConfigError):
        run(ReportConfig(p=1, lam=Fraction(-1)))


def test_operation_coverage_of_full_suite():
    """Every public definition of the package but the allowed ones runs in
    the p = 1 CLI report, in JSON and in text, compared by code object."""
    assert unrun_in_cli_report() == sorted(UNRUN_ALLOWED)


def test_operation_coverage_names_a_public_function_no_report_calls(monkeypatch):
    def orphan(alg):
        return alg

    def imported(alg):
        return alg

    orphan.__module__ = "qhg.contact"
    imported.__module__ = "qhg.algebra"  # another module's name: left to that module
    monkeypatch.setattr(contact, "orphan", orphan, raising=False)
    monkeypatch.setattr(contact, "imported", imported, raising=False)
    assert unrun_in_cli_report() == sorted([*UNRUN_ALLOWED, "contact.orphan"])


def test_operation_coverage_names_the_reader_of_a_row_that_no_longer_calls_it(monkeypatch):
    rows = [row._replace(check=lambda r: True) if row.name == "contact.normality" else row
            for row in report.CHECKS]
    monkeypatch.setattr(report, "CHECKS", tuple(rows))
    assert unrun_in_cli_report() == sorted([*UNRUN_ALLOWED, "contact.normality_check"])


def test_operation_coverage_fails_for_a_declaration_that_never_runs():
    _, ran = profiled_report(ReportConfig(p=2, suites=("algebra", "contact")))
    assert unexecuted(["qhg.algebra.jacobi_check", "qhg.contact.build_phi"], ran) == []
    # a module-level reader no row calls, a bundle field the suites never read,
    # and a memoized builder whose row is skipped at p = 2
    never = ["qhg.connections.transvection_check", "qhg.connections.Geometry.ricci",
             "qhg.contact.characteristic_connection"]
    assert unexecuted(never, ran) == sorted(never)
    # the memo wrapper itself runs, so only its unwrapped body tells the two apart
    assert contact.characteristic_connection.__code__ in ran


def test_each_report_builds_its_own_clifford_generators():
    """Two p = 1 reports in one process: each builds the generators once, in
    the memo of its own algebra, so nothing the first built outlives it."""
    for _ in range(2):
        _, ran = profiled_report(ReportConfig(p=1))
        assert ran[code_of("qhg.clifford.gamma")] == 1


def test_cli_exit_zero_and_text_format(capsys):
    code = main(["verify", "--p", "1", "--suite", "algebra"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out and "algebra.jacobi" in out


def test_cli_json_output(capsys):
    code = main(["verify", "--p", "1", "--suite", "cone", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["failed"] == 0


def test_cli_config_error_exit_codes(capsys):
    assert main(["verify", "--p", "2", "--suite", "g2"]) == 2
    assert main(["verify", "--p", "1", "--lambda", "0"]) == 2
    assert main(["verify", "--p", "1", "--lambda", "x/y"]) == 2
    assert main(["verify", "--p", "0"]) == 2
    capsys.readouterr()
    # one positivity check, in ReportConfig.validate, names the value on one line
    assert main(["verify", "--p", "1", "--lambda", "-1"]) == 2
    assert capsys.readouterr().err == "qhg: configuration error: the metric parameter must be positive, got -1\n"


def test_cli_unknown_suite_is_argparse_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "bogus"])
    assert exc.value.code == 2


def test_cli_failure_exit_code(monkeypatch, capsys):
    failing = report.Check("algebra.injected", "injected failure for exit-code coverage", lambda r: False)
    monkeypatch.setattr(report, "CHECKS", (failing,))
    code = main(["verify", "--p", "1", "--suite", "algebra"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out


def test_cli_subprocess_byte_identical():
    cmd = [
        sys.executable,
        "-m",
        "qhg",
        "verify",
        "--p",
        "1",
        "--suite",
        "qc",
        "--format",
        "json",
    ]
    first = subprocess.run(cmd, capture_output=True, check=True, env=cli_env())
    second = subprocess.run(cmd, capture_output=True, check=True, env=cli_env())
    assert first.stdout == second.stdout
    assert first.returncode == 0


def test_skips_reported_for_large_p():
    rep = run(ReportConfig(p=3, suites=("contact", "qc")))
    skipped = {c.name for c in rep.checks if c.status == "skipped"}
    assert skipped == {"contact.characteristic-connections"}
    unique = next(c for c in rep.checks if c.name == "qc.unique-skew-torsion")
    assert unique.status == "pass" and unique.values == {"solution_dim": "1"}


# SHA-256 of the formal JSON report of `--suite connection` at larger p
CONNECTION_DIGESTS = {
    5: "9f3b77df08bd8728818ceeae7e3b64d33beb75daffa32a49f39687a2a9c29cd3",
    8: "e67b88e1df7bdc5aac38c9e293511eba08197daf61e006a6512436950a5890c7",
}


def test_connection_suite_p5():
    # dimension 23; exercises the exact pipeline well beyond the small cases
    rep = run(ReportConfig(p=5, suites=("connection",), fmt="json"))
    assert rep.all_passed
    hol = next(c for c in rep.checks if c.name == "connection.holonomy")
    assert hol.values["holonomy_dim"] == "3"
    assert _digest(rep) == CONNECTION_DIGESTS[5]


def test_connection_suite_p8():
    # dimension 35
    rep = run(ReportConfig(p=8, suites=("connection",), fmt="json"))
    assert rep.all_passed
    assert _digest(rep) == CONNECTION_DIGESTS[8]


# the contact and qc suites at dimension 35, where the contact and qc checks
# run on their largest inputs of the suite
SUITE_DIGESTS_P8 = {
    "contact": "cbf09e180d6d603f0417cff37144f4af76849461ab1740b3851592137e1239df",
    "qc": "3ccd2a4fec27d587852a066a2978185a0c2a992b00874fe29783148cb68dd884",
}


@pytest.mark.parametrize("suite", sorted(SUITE_DIGESTS_P8))
def test_contact_and_qc_suites_p8(suite):
    rep = run(ReportConfig(p=8, suites=(suite,), fmt="json"))
    assert rep.summary["failed"] == 0
    assert _digest(rep) == SUITE_DIGESTS_P8[suite]


def test_connection_suite_builds_each_tensor_once():
    """One report reads the curvature, its holonomy coordinates, the holonomy
    and nabla R of each connection from its bundle."""
    rep, ran = profiled_report(ReportConfig(p=5, suites=("connection",), fmt="json"))
    assert rep.all_passed and _digest(rep) == CONNECTION_DIGESTS[5]
    names = ("Geometry.curvature_parts", "Geometry.curvature_coordinates", "Geometry._holonomy_span",
             "Geometry._nabla_curvature")
    calls = {name: ran[code_of(f"qhg.connections.{name}")] for name in names}
    # the canonical curvature only: the Levi-Civita Ricci is read from the
    # forms; one coordinate read and one closure, at l = 1; one nabla R per
    # direction with a nonzero canonical form, the three vertical ones
    assert calls["Geometry.curvature_parts"] == 1
    assert calls["Geometry.curvature_coordinates"] == 1
    assert calls["Geometry._holonomy_span"] == 1
    assert calls["Geometry._nabla_curvature"] == 3


def test_spinor_checks_lift_the_levi_civita_forms_once(monkeypatch):
    """The spinor checks share one lift of the 7 Levi-Civita forms."""
    calls = Counter()
    original = g2.spin_lift

    def counted(*args):
        calls["spin_lift"] += 1
        return original(*args)

    monkeypatch.setattr(g2, "spin_lift", counted)
    rep = run(ReportConfig(p=1, fmt="json"))
    assert rep.all_passed and _digest(rep) == GOLDEN_DIGESTS[1]
    # 7 Levi-Civita lifts and the 3 nonzero canonical forms of parallel_spinor
    assert 7 <= calls["spin_lift"] <= 10


def test_cone_suite_builds_the_mixed_terms_once_per_solve(monkeypatch):
    """cone_constant re-checks its candidate on the terms it already holds."""
    calls = Counter()
    original = cone._mixed_terms

    def counted(*args, **kwargs):
        calls["_mixed_terms"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(cone, "_mixed_terms", counted)
    rep = run(ReportConfig(p=1, suites=("cone",)))
    assert rep.all_passed
    # two cone_constant solves (both conventions) and one forced-constant residual
    assert calls["_mixed_terms"] <= 3


# the builders an algebra memoizes, and the functions they call
BODIES = {
    "levi_civita": connections.levi_civita,
    "with_torsion": connections.with_torsion,
    "build_phi": contact.build_phi,
    "build_qc": contact.build_qc,
    "contact_characteristic_torsion": contact.contact_characteristic_torsion,
    "quaternion_action": algebra.quaternion_action,
    "normality_check": contact.normality_check,
    "Geometry.torsion_form": connections.Geometry.torsion_form.func,
}


def _body_calls(action) -> dict[str, int]:
    """How often `action()` runs the body of each function of BODIES."""
    calls = executed_code(action)
    return {name: calls[inspect.unwrap(fn).__code__] for name, fn in BODIES.items()}


def test_one_report_builds_each_derived_structure_once():
    """The algebra of a report memoizes what it derives: the Levi-Civita
    connection, the three phi_i and the variant, their characteristic
    torsions, the qc structure and the quaternion units."""
    reports = []
    calls = _body_calls(lambda: reports.append(run(ReportConfig(p=1, fmt="json"))))
    assert _digest(reports[0]) == GOLDEN_DIGESTS[1]
    # with_torsion: the canonical and three characteristic connections; normality
    # only in contact.normality (quasi-Sasaki fails on dF_i first); the torsion
    # form of the canonical bundle, the flat connection and the three cone torsions
    assert calls == {
        "levi_civita": 1,
        "with_torsion": 4,
        "build_phi": 4,
        "build_qc": 1,
        "contact_characteristic_torsion": 3,
        "quaternion_action": 3,
        "normality_check": 3,
        "Geometry.torsion_form": 5,
    }


def test_no_memo_outlives_its_report():
    # negative control: each report builds its own algebra, so nothing is shared
    calls = _body_calls(lambda: [run(ReportConfig(p=1, suites=("connection",))) for _ in range(2)])
    assert calls["levi_civita"] == 2
