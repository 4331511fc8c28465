import hashlib
import importlib
import json
import subprocess
import sys
from fractions import Fraction

import pytest

from qhg import report
from qhg.cli import main
from qhg.report import REQUIRED_OPS, ConfigError, ReportConfig, run


# SHA-256 of the full formal JSON report; any change to its bytes shows here
GOLDEN_DIGESTS = {
    1: "e4f3f187f2c15dee80b29d324b611fb1d2a05aef0f6efb69aadf88b3b1afa578",
    2: "17e0d7ecfac26d20298203b0d8f2083a4a9d686e49220aa35e65f4e6d52841f7",
    3: "9c8f81e40e6194c284748b6b6fb8b4262166ed7b17ea33110be582137b4145d4",
}


def _digest(rep) -> str:
    return hashlib.sha256(rep.to_json().encode()).hexdigest()


def test_full_report_passes_p1():
    rep = run(ReportConfig(p=1, suites=("all",), fmt="json"))
    assert rep.all_passed
    assert rep.summary["failed"] == 0
    assert rep.summary["skipped"] == 0
    assert _digest(rep) == GOLDEN_DIGESTS[1]


@pytest.mark.parametrize("p", [2, 3])
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
    """Every public operation of the library is exercised by the full report at p = 1."""
    rep = run(ReportConfig(p=1, suites=("all",)))
    exercised = set()
    for check in rep.checks:
        exercised.update(check.ops)
    missing = set(REQUIRED_OPS) - exercised
    assert not missing, f"operations not exercised: {sorted(missing)}"
    # and each declared operation resolves to a real callable
    for dotted in REQUIRED_OPS:
        parts = dotted.split(".")
        obj = importlib.import_module(".".join(parts[:2]))
        for attr in parts[2:]:
            obj = getattr(obj, attr)
        assert callable(obj), dotted


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


def test_cli_unknown_suite_is_argparse_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "bogus"])
    assert exc.value.code == 2


def test_cli_failure_exit_code(monkeypatch, capsys):
    def failing_suite(alg):
        return [
            report.CheckResult(
                name="algebra.injected",
                claim="injected failure for exit-code coverage",
                status="fail",
            )
        ]

    monkeypatch.setitem(report._SUITE_RUNNERS, "algebra", failing_suite)
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
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.returncode == 0


def test_skips_reported_for_large_p():
    rep = run(ReportConfig(p=3, suites=("contact", "qc")))
    skipped = {c.name for c in rep.checks if c.status == "skipped"}
    assert "contact.characteristic-connections" in skipped
    assert "qc.unique-skew-torsion" in skipped


def test_connection_suite_p5():
    # dimension 23; exercises the exact pipeline well beyond the small cases
    rep = run(ReportConfig(p=5, suites=("connection",)))
    assert rep.all_passed
    hol = next(c for c in rep.checks if c.name == "connection.holonomy")
    assert hol.values["holonomy_dim"] == "3"
