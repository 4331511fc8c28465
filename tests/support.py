"""Helpers that only the tests use."""

import importlib
import inspect
import io
import os
import pkgutil
import sys
from collections import Counter
from contextlib import redirect_stdout
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import lcm
from pathlib import Path

import qhg
from qhg import cli, linalg, report
from qhg.exterior import Endo, KForm, Vector, _kform
from qhg.linalg import Part, Row, _combine, _insert, _part
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


def solve_oracle(rows: list[Row], rhs: list[int], ncols: int) -> tuple[Part | None, list[Part]]:
    """`linalg.solve` before its peel, the reference for it: every row is
    inserted in turn until every unknown holds a pivot and the rhs column
    none, and each later row is decided by substitution."""
    red: dict[int, Part] = {}
    cols: dict[int, set[int]] = {}
    augmented = (_part(r, ncols, i, b) for i, (r, b) in enumerate(zip(rows, rhs, strict=True)))
    for v in augmented:
        _insert(red, cols, v)
        if len(red) == ncols and ncols not in red:
            break  # every unknown holds a pivot
    stored = sorted(red.items())
    x = None
    if ncols not in red:  # no pivot in the constant column
        x = _combine([(den, {p: e[ncols]}) for p, (den, e) in stored if ncols in e])
    for _, e in augmented:  # the rows after a break, each decided by substitution
        if x and sum(v * x[1].get(j, 0) for j, v in e.items()) != e.get(ncols, 0) * x[0]:
            x = None
    kernel = {f: [(1, {f: 1})] for f in sorted(set(range(ncols)) - red.keys())}
    for p, (den, e) in stored:
        for j, c in e.items():
            if j in kernel:
                kernel[j].append((den, {p: -c}))
    return x, [_combine(terms) for terms in kernel.values()]


def counting_inserts(monkeypatch) -> list:
    """Patch linalg._insert to record each row it inserts."""
    inserted, insert = [], linalg._insert
    monkeypatch.setattr(linalg, "_insert", lambda rows, cols, v: inserted.append(v) or insert(rows, cols, v))
    return inserted

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


def _code(member):
    """The code object that runs for a function, method, property or
    cached_property, under the `algebra.derived` memo; None for any other value."""
    if isinstance(member, property):
        member = member.fget
    elif isinstance(member, cached_property):
        member = member.func
    elif isinstance(member, staticmethod):
        member = member.__func__
    return inspect.unwrap(member).__code__ if inspect.isfunction(member) else None


def code_of(dotted: str):
    """The code object that runs for 'qhg.<module>.<name>[.<attr>]'."""
    parts = dotted.split(".")
    obj = importlib.import_module(".".join(parts[:2]))
    for attr in parts[2:]:
        obj = getattr(obj, attr)
    return _code(obj)


def profiled_report(config):
    """(report, code objects run) of one report."""
    out = []
    ran = executed_code(lambda: out.append(report.run(config)))
    return out[0], ran


def unexecuted(ops, ran) -> list[str]:
    """The dotted operations, in sorted order, whose code is not in ran."""
    return sorted(op for op in set(ops) if code_of(op) not in ran)


def public_definitions() -> dict[str, object]:
    """The code object of every public definition of the package, by
    `module.name` or `module.Class.name`: each function, method, property and
    cached_property whose name has no leading underscore, and each dunder
    method written in a class body of the module (not one that `dataclass` or
    `NamedTuple` generates).  A name whose `__module__` is another module is
    left to that module; `qhg.__main__` is left out, as importing it runs the
    CLI."""
    found = {}
    for info in pkgutil.iter_modules(qhg.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"qhg.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).items() if inspect.isclass(obj) else [("", obj)]
            for attr, member in members:
                code = _code(member)
                if code is None:
                    continue
                dunder = attr[:2] == attr[-2:] == "__" and code.co_filename == module.__file__
                if dunder or not attr.startswith("_"):
                    found[".".join(filter(None, (info.name, name, attr)))] = code
    return found


def unrun_in_cli_report() -> list[str]:
    """The public definitions, in sorted order, whose code runs neither in
    `qhg verify --p 1 --format json` nor in `--format text`, each run
    required to pass."""
    ran, exits = Counter(), []
    for fmt in ("json", "text"):
        with redirect_stdout(io.StringIO()):
            ran += executed_code(lambda: exits.append(cli.main(["verify", "--p", "1", "--format", fmt])))
    assert exits == [0, 0], exits
    return sorted(name for name, code in public_definitions().items() if code not in ran)


# public definitions that nothing in the package reads, each kept for a reason
UNREFERENCED_ALLOWED = {
    "algebra.StructureConstants.bracket_basis": "read by the benchmark workloads (`structure_constants`)",
    "connections.transvection_check": "an entry point of the benchmark workloads",
}

# public definitions that the p = 1 report does not run, each kept for a reason
UNRUN_ALLOWED = {
    **UNREFERENCED_ALLOWED,
    "algebra.derived": "a decorator: it runs at import, and the memo it returns runs in every report",
    "exterior.Vector.__init__": "the kernels build vectors from parts (`_vector`); only the tests list components",
    "scalars.Scalar.coeff": "read by the tests; the package reads a Scalar through `homogeneous_part`",
    "exterior.Vector.__iter__": "read by the entry-by-entry test oracles; no report reads a vector entry by entry",
    "scalars.Scalar.__pow__": "read by the tests (`LAM**2`); the package multiplies monomials directly",
    "scalars.Scalar.__rsub__": "read by the tests (`Fraction(1, 2) - ONE`); the package subtracts Scalars only",
    "scalars.Scalar.__hash__": "read by the tests (`hash`); a Scalar defines `__eq__`, so it needs its own",
    **{f"{name}.__repr__": "read by pytest, which prints it when an assertion on such a value fails"
       for name in ("exterior.Vector", "exterior.KForm", "exterior.Endo", "scalars.Scalar")},
}
