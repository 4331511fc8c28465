"""Time-to-verdict benchmark for qhg.

    python3 benchmarks/run.py --workload report-p1 --seed 1 --seconds 20 --trace 0

Runs one workload (or `all`, each in its own process) in a closed loop:
one caller, one process, no threads; each unit starts only after the
previous verdict has been gated.  With `--trace 0` it prints the
end-to-end metrics, with `--trace 1` the per-layer metrics of one traced
round.  The last line of stdout is the JSON result.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("report-p1", "connection-p5", "qc-p2", "refute-p4")
SETUP_RUNS = 9
TAIL_BEYOND = 10

# run in a fresh interpreter: import the CLI's modules, build, first
# gamma(); then probe the host speed for rescaling (see speed.py)
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import qhg.cli
from qhg import algebra, clifford
algebra.build(int(sys.argv[3]))
if sys.argv[3] == "1":
    clifford.gamma()
setup = time.perf_counter() - t0
sys.path.insert(0, sys.argv[2])
from statistics import median
from benchmarks.speed import probe
print(setup, median(probe() for _ in range(9)))
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description="qhg time-to-verdict benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def wall_time(fn):
    t0 = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - t0
    return wall, wall, result


class Tally:
    """Units attempted, wrong verdicts and checks decided correctly."""

    def __init__(self):
        self.attempted = self.wrong = self.checks_ok = 0

    def run(self, unit, timer=wall_time):
        """Time one unit: (wall s, rescaled s, outcome), or None if it raised."""
        self.attempted += 1
        try:
            wall, rescaled, outcome = timer(unit.run)
        except Exception:  # a unit that raises is a wrong verdict, not a crash
            traceback.print_exc()
            self.wrong += 1
            return None
        return wall, rescaled, outcome

    def gate(self, unit, outcome):
        ok, problems = unit.check(outcome)
        self.checks_ok += ok
        if problems:
            self.wrong += 1
            print(f"wrong verdict: {'; '.join(problems)}", file=sys.stderr)

    def result(self, metrics: dict) -> dict:
        return {
            "correct": self.wrong == 0,
            "attempted": self.attempted,
            "failed": self.wrong,
            "metrics": metrics,
        }


def setup_seconds(p: int) -> tuple[float, float]:
    """Median (wall, rescaled) over fresh processes of the CLI's set-up."""
    from benchmarks.speed import PROBE_REF_S

    walls, rescaled = [], []
    for _ in range(SETUP_RUNS):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(ROOT), str(p)],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
        )
        setup, speed = map(float, out.stdout.split())
        walls.append(setup)
        rescaled.append(setup * PROBE_REF_S / speed)
    return statistics.median(walls), statistics.median(rescaled)


def tail(durations: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it.

    With twenty samples or fewer that percentile is at or below the
    median, so the median is reported and labelled p50.
    """
    n = len(durations)
    if n - TAIL_BEYOND <= n // 2:
        return statistics.median(durations), 50.0
    return sorted(durations)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def measure(workload, seed: int, seconds: float):
    """Closed loop over whole rounds until the next round would overrun."""
    from qhg import algebra, clifford

    from benchmarks.speed import Rescaler

    tally = Tally()
    algebra.build(workload.p)
    if workload.p == 1:
        clifford.gamma()
    setup_wall, setup = setup_seconds(workload.p)
    walls, durations = [], []
    rounds = workload.rounds(seed)
    began = time.perf_counter()
    with Rescaler() as rescaler:
        while True:
            round_began = time.perf_counter()
            for unit in next(rounds):
                timed = tally.run(unit, rescaler.time)
                if timed:
                    walls.append(timed[0])
                    durations.append(timed[1])
                    tally.gate(unit, timed[2])
            now = time.perf_counter()
            if now - began + (now - round_began) > seconds:
                break
    tail_value, tail_pct = tail(durations)
    metrics = {
        "verdict_s.p50": (statistics.median(durations), "s"),
        "verdict_s.tail": (tail_value, "s"),
        "checks_per_s": (tally.checks_ok / sum(durations), "1/s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "verdict_s.p50": f"{len(durations)} samples; wall {statistics.median(walls):.4f} s",
        "verdict_s.tail": f"p{tail_pct:.1f} of {len(durations)} samples",
        "checks_per_s": f"wall {tally.checks_ok / sum(walls):.4f} 1/s",
        "setup_s": f"median of {SETUP_RUNS} processes; wall {setup_wall:.4f} s",
    }
    print(f"wrong_verdict_share = {tally.wrong / tally.attempted} "
          f"({tally.wrong} of {tally.attempted} units)")
    return tally, metrics, notes


FUNCTION_SELF = (
    "connections.transvection_check",
    "connections.levi_civita",
    "connections.ricci",
    "connections.nabla_tensor",
    "connections.curvature",
    "connections.holonomy",
    "connections.is_parallel",
    "linalg.rref",
    "contact.qc_unique_skew",
    "contact.nijenhuis_defect",
    "algebra.jacobi_check",
    "exterior.wedge",
)


def trace(workload, name: str, seed: int):
    """One round untraced, one-suite report.run timings, the round traced.

    Times here are plain wall times.
    """
    from benchmarks import gate
    from benchmarks.tracing import LAYERS, Tracer
    from benchmarks.workloads import SuiteUnit

    tally = Tally()
    units = next(workload.rounds(seed))

    def run_units(units):
        timed = [(unit, tally.run(unit)) for unit in units]
        return timed, sum(t[0] for _, t in timed if t)

    timed, untraced = run_units(units)
    suite_units = [SuiteUnit(workload.p, suite) for suite in workload.suites]
    suite_timed, _ = run_units(suite_units)
    suite_s = {u.suite: t[0] for u, t in suite_timed if t}

    tracer = Tracer()
    tracer.install()
    try:
        traced_timed, traced = run_units(units)
    finally:
        tracer.uninstall()
    for unit, t in timed + suite_timed + traced_timed:
        if t:
            tally.gate(unit, t[2])

    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{name}-seed{seed}.csv.gz")
    self_s, calls = tracer.self_times()
    mul_calls, mul_nonzero = tracer.mul
    add_calls, add_nonzero = tracer.add
    metrics = {
        "scalars.mul.count": (mul_calls, "count"),
        "scalars.add.count": (add_calls, "count"),
        "scalars.mul.nonzero_share": (mul_nonzero / mul_calls if mul_calls else 0.0, "share"),
        "scalars.add.nonzero_share": (add_nonzero / add_calls if add_calls else 0.0, "share"),
    }
    for layer in LAYERS:
        prefix = layer + "."
        metrics[f"{layer}.calls"] = (
            sum(c for label, c in calls.items() if label.startswith(prefix)), "count"
        )
        metrics[f"{layer}.self_s"] = (
            sum((s for label, s in self_s.items() if label.startswith(prefix)), 0.0), "s"
        )
    for label in FUNCTION_SELF:
        metrics[f"{label}.self_s"] = (self_s.get(label, 0.0), "s")
    metrics["algebra.jacobi_check.calls"] = (calls["algebra.jacobi_check"], "count")
    for suite in gate.SUITE_ORDER:
        metrics[f"report.suite.{suite}.s"] = (suite_s.get(suite, 0.0), "s")
    metrics["trace.overhead_share"] = (traced / untraced - 1, "share")
    notes = {"trace.overhead_share": f"traced {traced:.3f} s vs untraced {untraced:.3f} s"}
    return tally, metrics, notes


def run_one(args) -> int:
    sys.path[:0] = [str(SRC), str(ROOT)]
    import qhg

    if Path(qhg.__file__).resolve().parent != (SRC / "qhg").resolve():
        print(f"imported qhg from {qhg.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from benchmarks.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    if args.trace:
        tally, metrics, notes = trace(workload, args.workload, args.seed)
    else:
        tally, metrics, notes = measure(workload, args.seed, args.seconds)
    for key, (value, unit) in metrics.items():
        note = f"  ({notes[key]})" if key in notes else ""
        print(f"{args.workload}  {key} = {value} {unit}{note}")
    result = tally.result({k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            merged["correct"] = False
            continue
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qhg" / "__init__.py").is_file():
        print(f"qhg sources not found under {SRC}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
