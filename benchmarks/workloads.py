"""The four workloads: their units, their seeded inputs and their gate.

A unit is one timed call into qhg that ends in a serialized verdict.
`Unit.run` is the timed part; `Unit.check` runs the known-answer gate
afterwards and returns (checks decided correctly, discrepancies).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from itertools import combinations

from qhg import algebra, cli, connections, report
from qhg.exterior import wedge

from . import gate


def structure_constants(alg: algebra.QHAlgebra) -> dict:
    """The nonzero brackets [e_i, e_j], i < j, as QHAlgebra takes them."""
    return {
        (i, j): alg.bracket_basis(i, j)
        for i, j in combinations(range(alg.dim), 2)
        if not alg.bracket_basis(i, j).is_zero()
    }


class ReportUnit:
    """`qhg verify --p <p> --suite <suite> --format json` through cli.main."""

    def __init__(self, p: int, suite: str):
        self.p, self.suite = p, suite
        self.argv = ["verify", "--p", str(p), "--suite", suite, "--format", "json"]

    def run(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(self.argv)
        return rc, out.getvalue()

    def check(self, outcome):
        rc, stdout = outcome
        return gate.check_report(
            self.p, self.suite, rc, stdout, gate.REPORT_DIGESTS[(self.p, self.suite)]
        )


class SuiteUnit:
    """One suite through report.run, as the per-suite timings use it."""

    def __init__(self, p: int, suite: str):
        self.p, self.suite = p, suite

    def run(self):
        rep = report.run(report.ReportConfig(p=self.p, suites=(self.suite,), fmt="json"))
        return (0 if rep.all_passed else 1), rep.to_json()

    def check(self, outcome):
        rc, stdout = outcome
        digest = gate.REPORT_DIGESTS.get((self.p, self.suite))
        return gate.check_report(self.p, self.suite, rc, stdout, digest)


class MutantUnit:
    """jacobi_check on the algebra with [tau_a, tau_b] += lam tau_c."""

    def __init__(self, alg: algebra.QHAlgebra, structure: dict, a: int, b: int, c: int):
        self.p, self.lam = alg.p, alg.lam
        self.structure = dict(structure)
        extra = alg.basis_vector(c).scale(alg.lam)
        base = self.structure.get((a, b))
        self.structure[(a, b)] = extra if base is None else base + extra
        self.witness = gate.mutant_witness(alg.p, a, b, c)

    def run(self):
        mutated = algebra.QHAlgebra(self.p, self.lam, self.structure)
        ok, witness = algebra.jacobi_check(mutated)
        return mutated, json.dumps({"status": "pass" if ok else "fail", "witness": witness})

    def check(self, outcome):
        mutated, verdict = outcome
        problems = gate.check_mutant(mutated, self.witness, verdict)
        return (0 if problems else 1), problems


class TorsionUnit:
    """transvection_check for the canonical torsion plus lam theta_i^theta_j^theta_k."""

    def __init__(self, alg: algebra.QHAlgebra, canonical, i: int, j: int, k: int):
        self.alg = alg
        form = wedge(wedge(alg.theta(i), alg.theta(j)), alg.theta(k))
        self.torsion = canonical + form.scale(alg.lam)

    def run(self):
        conn = connections.with_torsion(self.alg, self.torsion)
        ok, witness = connections.transvection_check(self.alg, conn)
        return json.dumps({"status": "pass" if ok else "fail", "witness": witness})

    def check(self, verdict):
        problems = gate.check_torsion(verdict)
        return (0 if problems else 1), problems


class Certify:
    """A fixed `qhg verify` configuration; one round is one report."""

    def __init__(self, p: int, suite: str):
        self.p, self.suite = p, suite
        self.suites = gate.SUITE_ORDER if suite == "all" else (suite,)

    def rounds(self, seed: int):
        while True:
            yield [ReportUnit(self.p, self.suite)]


class Refute:
    """Seeded false inputs at p = 4 (n = 19), all expected to fail.

    A round is MUTANTS_PER_ROUND structure-constant mutants and
    TORSIONS_PER_ROUND perturbed torsions in seeded order.  jacobi_check
    stops at the first failing triple, so a mutant costs about the
    lexicographic rank of its witness; the mutants are stratified by
    that rank (one per 1/40 of all 16*120 mutants), which keeps
    the cost mix of every round the same while the seed picks the inputs.
    """

    p = 4
    suites: tuple[str, ...] = ()
    MUTANTS_PER_ROUND = 40
    TORSIONS_PER_ROUND = 12

    def __init__(self):
        self.alg = algebra.build(self.p)
        n = self.alg.dim
        self.structure = structure_constants(self.alg)
        horizontal = self.alg.horizontal_indices
        rank = {t: r for r, t in enumerate(combinations(range(n), 3))}
        mutants = sorted(
            ((a, b, c) for a, b in combinations(horizontal, 2) for c in horizontal),
            key=lambda m: rank[gate.mutant_witness(self.p, *m)],
        )
        size = len(mutants) // self.MUTANTS_PER_ROUND
        self.strata = [mutants[s * size : (s + 1) * size] for s in range(self.MUTANTS_PER_ROUND)]
        self.triples = list(combinations(range(1, 4 * self.p + 1), 3))
        self.canonical = connections.canonical_torsion(self.alg)

    def rounds(self, seed: int):
        rng = random.Random(seed)
        while True:
            units = [MutantUnit(self.alg, self.structure, *rng.choice(s)) for s in self.strata]
            units += [
                TorsionUnit(self.alg, self.canonical, *rng.choice(self.triples))
                for _ in range(self.TORSIONS_PER_ROUND)
            ]
            rng.shuffle(units)
            yield units


WORKLOADS = {
    "report-p1": lambda: Certify(1, "all"),
    "connection-p5": lambda: Certify(5, "connection"),
    "qc-p2": lambda: Certify(2, "qc"),
    "refute-p4": Refute,
}
