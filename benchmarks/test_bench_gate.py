"""Negative controls for the benchmark's own gate and tracer.

Each test runs in well under a second (p = 1 only), so the tier-1 suite,
which collects this file, stays fast.
"""

import contextlib
import io
import json

import pytest

import qhg
from qhg import algebra, cli, connections
from qhg.scalars import Scalar

from benchmarks import gate
from benchmarks.run import WORKLOAD_NAMES, tail
from benchmarks.tracing import Tracer
from benchmarks.workloads import WORKLOADS, MutantUnit, structure_constants


def _algebra_report():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["verify", "--p", "1", "--suite", "algebra", "--format", "json"])
    return rc, out.getvalue()


def test_gate_accepts_the_known_answers():
    rc, stdout = _algebra_report()
    assert gate.check_report(1, "algebra", rc, stdout, None) == (7, [])


def test_gate_flags_a_wrong_expected_value(monkeypatch):
    rc, stdout = _algebra_report()
    rows = gate.expected_checks(1, "algebra")
    rows[1] = ("algebra.center", {"dim": "7", "center_dim": "4"})
    monkeypatch.setattr(gate, "expected_checks", lambda p, suite: rows)
    correct, problems = gate.check_report(1, "algebra", rc, stdout, None)
    assert correct == 6
    assert problems and "algebra.center" in problems[0]


def test_gate_flags_digest_and_exit_code():
    rc, stdout = _algebra_report()
    _, problems = gate.check_report(1, "algebra", 1, stdout, "0" * 64)
    assert len(problems) == 2


def test_gate_flags_a_changed_status():
    rc, stdout = _algebra_report()
    payload = json.loads(stdout)
    payload["checks"][0]["status"] = "fail"
    correct, problems = gate.check_report(1, "algebra", rc, json.dumps(payload), None)
    assert correct == 6 and problems


@pytest.mark.parametrize("p, pairs", [(1, None), (2, [(3, 4), (5, 10)])])
def test_mutant_witness_matches_jacobi_check(p, pairs):
    alg = algebra.build(p)
    structure = structure_constants(alg)
    h = alg.horizontal_indices
    for a, b in pairs or [(a, b) for a in h for b in h if a < b]:
        for c in h:
            unit = MutantUnit(alg, structure, a, b, c)
            assert unit.check(unit.run()) == (1, [])


def test_refute_gate_flags_an_unmutated_algebra():
    alg = algebra.build(1)
    structure = structure_constants(alg)
    unit = MutantUnit(alg, structure, 3, 4, 5)
    unit.structure = dict(structure)  # drop the mutation
    correct, problems = unit.check(unit.run())
    assert correct == 0 and "expected fail" in problems[0]


def test_refute_gate_flags_a_passing_transvection():
    ok, witness = connections.transvection_check(
        algebra.build(1), connections.canonical_connection(algebra.build(1))
    )
    verdict = json.dumps({"status": "pass" if ok else "fail", "witness": witness})
    assert gate.check_torsion(verdict)


def test_tracer_sees_calls_through_every_binding_and_restores():
    original = qhg.jacobi_check
    tracer = Tracer()
    tracer.install()
    try:
        alg = qhg.build(1)
        qhg.jacobi_check(alg)
        algebra.jacobi_check(alg)
        Scalar(2) * Scalar(0) + Scalar(1)
    finally:
        tracer.uninstall()
    assert qhg.jacobi_check is original and algebra.jacobi_check is original
    self_s, calls = tracer.self_times()
    assert calls["algebra.jacobi_check"] == 2 and calls["algebra.build"] == 1
    assert calls["algebra.QHAlgebra.bracket"] > 0
    assert all(s >= 0 for s in self_s.values())
    assert tracer.mul[0] >= 1 and tracer.add[0] >= 1
    assert tracer.mul[1] < tracer.mul[0]  # the product with zero is not counted as nonzero


@pytest.mark.parametrize(
    "n, percentile", [(1, 50.0), (20, 50.0), (21, 100 * 11 / 21), (100, 90.0)]
)
def test_tail_has_ten_samples_beyond(n, percentile):
    durations = [float(i) for i in range(n)]
    value, pct = tail(durations)
    assert pct == pytest.approx(percentile)
    if pct > 50:
        assert sum(d > value for d in durations) == 10


def test_every_workload_is_runnable_by_name():
    assert set(WORKLOAD_NAMES) == set(WORKLOADS)
