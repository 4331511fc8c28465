"""Helpers that only the tests use."""

import importlib
import inspect
import os
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import lcm
from pathlib import Path

from qhg import clifford, report
from qhg.exterior import Endo, KForm, Vector, _kform
from qhg.scalars import Scalar, graded


def cli_env() -> dict[str, str]:
    """The environment with the source tree first on PYTHONPATH, so that a
    `python -m qhg` child imports the package under test without an install."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}


def random_form(rng, dim: int, degree: int, density: float = 0.5) -> KForm:
    """Small random form with rational coefficients."""
    comps = {}
    for idx in combinations(range(dim), degree):
        if rng.random() < density:
            comps[idx] = Scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    return KForm(dim, degree, comps)


def rational_value(s: Scalar) -> Fraction:
    """The value of a Scalar that does not depend on the parameter."""
    if s and s.part[0] != 0:
        raise ValueError(f"{s} is not parameter-free")
    return s.coeff(0)


def specialize(s: Scalar, value) -> Fraction:
    """The Scalar evaluated at a concrete rational parameter value."""
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"cannot coerce {type(value).__name__} to a rational")
    v = Fraction(value)
    if v == 0 and s and s.part[0] < 0:
        raise ZeroDivisionError("negative exponent at parameter 0")
    return sum((c * v**e for e, c in s.terms()), Fraction(0))


def dual(v: Vector) -> KForm:
    """The metric-dual 1-form of a vector (trivial in an orthonormal frame)."""
    d, den, e = v.part
    return _kform(v.dim, 1, (d, den, {(i,): x for i, x in e.items()}))


def form_of(conn, x: Vector) -> Endo:
    """Omega(x) = sum_i x_i Omega(e_i), the connection form at a vector."""
    out = Endo.zero(conn.dim)
    for i, c in x.comps.items():
        out = out + conn.form(i).scale(c)
    return out


def integer_part(row: dict) -> tuple[int, dict]:
    """A rational row {column: value} as the normal-form part (den, entries)
    worth it: den is the lcm of the denominators, and the entries, the row
    scaled to integers, hold no zero."""
    row = {j: x for j, x in row.items() if x}
    den = lcm(*(x.denominator for x in row.values()))
    return den, {j: x.numerator * (den // x.denominator) for j, x in row.items()}


def jacobi_oracle(sc) -> tuple[bool, tuple[int, int, int] | None]:
    """Jacobi identity triple by triple over all i < j < k, the reference for
    `algebra.jacobi_check`: the lexicographically first triple with a nonzero
    cyclic sum [[e_i, e_j], e_k] + [[e_j, e_k], e_i] - [[e_i, e_k], e_j]."""
    n, get = sc.dim, sc._sc.get
    basis = [sc.basis_vector(c) for c in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            ij = get((i, j))
            for k in range(j + 1, n):
                jk, ik = get((j, k)), get((i, k))
                if ij is None and jk is None and ik is None:
                    continue
                raw = []  # [[e_i, e_j], e_k] + [[e_j, e_k], e_i] - [[e_i, e_k], e_j]
                for v, c, sign in ((ij, k, 1), (jk, i, 1), (ik, j, -1)):
                    if v is not None:
                        d, den, e = sc.bracket(v, basis[c]).part
                        raw.append((d, sign * den, e))
                if graded(raw)[2]:
                    return False, (i, j, k)
    return True, None


def span_contains(span, v) -> bool:
    """Whether the row v lies in the linalg Span span."""
    return not span.reduce(v)[1]


def executed_code(fn) -> Counter:
    """How often the code object of each Python function ran during fn(),
    counted by the call events of `sys.setprofile`."""
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call":
            calls[frame.f_code] += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def code_of(dotted: str):
    """The code object that runs for 'qhg.<module>.<name>[.<attr>]': the
    function under the `algebra.derived` memo (`__wrapped__`) or under a
    `cached_property` (`.func`)."""
    parts = dotted.split(".")
    obj = importlib.import_module(".".join(parts[:2]))
    for attr in parts[2:]:
        obj = getattr(obj, attr)
    return inspect.unwrap(getattr(obj, "func", obj)).__code__


def profiled_report(config):
    """(report, code objects run) of one report, as in a fresh interpreter:
    the Clifford generators, which `clifford.gamma` keeps for the process,
    are built again."""
    saved = clifford._GAMMA, clifford._PRODUCTS
    clifford._GAMMA, clifford._PRODUCTS = None, {}
    out = []
    try:
        ran = executed_code(lambda: out.append(report.run(config)))
    finally:
        clifford._GAMMA, clifford._PRODUCTS = saved
    return out[0], ran


def unexecuted(ops, ran) -> list[str]:
    """The dotted operations, in sorted order, whose code is not in ran."""
    return sorted(op for op in set(ops) if code_of(op) not in ran)
