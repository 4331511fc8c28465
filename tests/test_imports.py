"""The package imports nothing outside the standard library, and only at
module level; only `scalars` evaluates the metric parameter."""

import ast
import sys
from fractions import Fraction
from pathlib import Path

from qhg.exterior import KForm
from qhg.report import ReportConfig, run
from qhg.scalars import LAM, Scalar
from support import UNREFERENCED_ALLOWED

SRC = Path(__file__).resolve().parents[1] / "src" / "qhg"


def foreign_imports(source: str) -> list[str]:
    """Absolute imports in source whose top-level module is neither stdlib nor qhg."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [
        name
        for name in names
        if name.split(".")[0] not in sys.stdlib_module_names and name.split(".")[0] != "qhg"
    ]


def local_imports(source: str) -> list[str]:
    """`function:line` of every import statement inside a function body."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Import, ast.ImportFrom)):
                    found.append(f"{node.name}:{inner.lineno}")
    return sorted(set(found))


def test_package_imports_only_the_standard_library():
    files = sorted(SRC.glob("*.py"))
    assert len(files) > 10
    for path in files:
        assert foreign_imports(path.read_text()) == [], path.name


def test_import_guard_flags_a_foreign_module():
    assert foreign_imports("import numpy\nfrom fractions import Fraction\n") == ["numpy"]
    assert foreign_imports("def f():\n    from scipy.linalg import solve\n") == ["scipy.linalg"]
    assert foreign_imports("from . import algebra\nimport qhg.cli\nimport json") == []


def test_package_imports_only_at_module_level():
    for path in sorted(SRC.glob("*.py")):
        assert local_imports(path.read_text()) == [], path.name


def test_local_import_guard_flags_an_import_in_a_function():
    assert local_imports("def f():\n    from .exterior import Endo\n") == ["f:2"]
    nested = "class A:\n    def m(self):\n        if True:\n            import json\n"
    assert local_imports(nested) == ["m:4"]
    assert local_imports("from .exterior import Endo\nimport json\ndef f():\n    return json\n") == []


def test_only_scalars_specializes_the_metric_parameter():
    """No `.terms()` call outside `scalars.py`: `terms()` is how
    `tests/support.specialize` evaluates a Scalar at a sampled l, and every
    other module reads the parameter at l = 1 through
    `scalars.homogeneous_part`, where the homothety of the `scalars`
    docstring makes one point suffice.  Only `.terms()` calls are caught
    here: `Scalar.coeff` and `Scalar.part` read the coefficient and the
    degree too, but `KForm.coeff` and `Endo.part` share those names, so
    `scalar_reads` catches them at run time, where the receiver's type is
    known."""
    for path in sorted(SRC.glob("*.py")):
        if path.name != "scalars.py":
            assert rational_calls(path.read_text(), ("terms",)) == [], path.name


def test_terms_guard_flags_a_sampled_parameter():
    # the evaluation of tests/support.specialize, moved into a module
    sampled = "def _at(s, v):\n    return sum(c * v**e for e, c in s.terms())\n"
    assert rational_calls(sampled, ("terms",)) == ["_at:2"]
    method = "class G:\n    def f(self, b):\n        return [dict(c.terms()) for c in b]\n"
    assert rational_calls(method, ("terms",)) == ["G.f:3"]
    assert rational_calls("x = s.terms()\n", ("terms",)) == ["<module>:1"]
    assert rational_calls("def f(s):\n    return homogeneous_part(s), s.terms\n", ("terms",)) == []


def scalar_reads(action) -> list[str]:
    """`file:function:line` of every read of a Scalar's coefficient by exponent,
    a `Scalar.coeff` or `Scalar.terms` call or a read of `Scalar.part`, that code
    in src/ outside `scalars.py` makes while action() runs.  The class is patched
    for the run, so a tensor's `coeff` or `part` is never mistaken for one."""
    found = set()
    slot, coeff, terms = Scalar.part, Scalar.coeff, Scalar.terms

    def note():
        frame = sys._getframe(2)  # the reader, past the patched attribute
        path = Path(frame.f_code.co_filename)
        if path.parent == SRC and path.name != "scalars.py":
            found.add(f"{path.name}:{frame.f_code.co_name}:{frame.f_lineno}")

    def part(s):
        note()
        return slot.__get__(s)

    def noted(method):
        def read(s, *args):
            note()
            return method(s, *args)

        return read

    Scalar.part, Scalar.coeff, Scalar.terms = property(part, slot.__set__), noted(coeff), noted(terms)
    try:
        action()
    finally:
        Scalar.part, Scalar.coeff, Scalar.terms = slot, coeff, terms
    return sorted(found)


def test_only_scalars_reads_a_scalar_by_exponent():
    """Whole reports, formal at p = 1 and 2 and at l = 3/2, read no Scalar's
    coefficients by exponent outside `scalars.py`."""
    configs = [ReportConfig(p=1), ReportConfig(p=2), ReportConfig(p=1, lam=Fraction(3, 2))]
    assert scalar_reads(lambda: [run(cfg) for cfg in configs]) == []


def _in_src(source: str) -> dict:
    """The names source defines, run as if it were a module of src/."""
    names: dict = {}
    exec(compile(source, str(SRC / "sampled.py"), "exec"), names)
    return names


def test_scalar_read_guard_flags_a_sampled_parameter():
    at = _in_src("def _at(s, v):\n    return sum(s.coeff(e) * v**e for e in [s.part[0]])\n")["_at"]
    assert scalar_reads(lambda: at(LAM * 2, 3)) == ["sampled.py:<genexpr>:2", "sampled.py:_at:2"]
    degree = _in_src("def f(s, v):\n    d, den, e = s.part\n    return e[()] * v**d / den\n")["f"]
    assert scalar_reads(lambda: degree(LAM * 2, 3)) == ["sampled.py:f:2"]
    terms = _in_src("def f(s):\n    return dict(s.terms())\n")["f"]
    assert scalar_reads(lambda: terms(LAM)) == ["sampled.py:f:2"]
    # a 2-form's coeff and part, and the same reads outside src/, are not flagged
    form = KForm.basis(3, (0, 1)).scale(LAM)
    tensor = _in_src("def f(t):\n    return t.coeff((0, 1)), t.part\n")["f"]
    assert scalar_reads(lambda: tensor(form)) == []
    assert scalar_reads(lambda: sum(s.coeff(e) for s in [LAM] for e in [s.part[0]])) == []
    assert Scalar.part.__class__.__name__ == "member_descriptor"  # restored


def hand_accumulations(source: str) -> list[str]:
    """`scope:line` of every sparse accumulation written out by hand: a
    `<dict>.get(<key>, ZERO)` or `<dict>.get(<key>, 0)` added or subtracted,
    and a `<dict>.pop(<key>, None)` under an `if`.  A method is scoped
    `Class.method`."""
    tree = ast.parse(source)
    scope, in_if, owner = {}, set(), {}
    for node in ast.walk(tree):  # outer scopes first, so the innermost name wins
        if isinstance(node, ast.ClassDef):
            owner.update(dict.fromkeys(node.body, node.name + "."))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope.update(dict.fromkeys(ast.walk(node), owner.get(node, "") + node.name))
        elif isinstance(node, ast.If):
            in_if.update(n for branch in node.body + node.orelse for n in ast.walk(branch))

    def call(node, attr, default):
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == attr
            and len(node.args) == 2
            and default(node.args[1])
        )

    def zero(arg):
        return (isinstance(arg, ast.Name) and arg.id == "ZERO") or (
            isinstance(arg, ast.Constant) and arg.value == 0 and arg.value is not None
        )

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
            if call(node.left, "get", zero) or call(node.right, "get", zero):
                found.append(node)
        elif node in in_if and call(node, "pop", lambda a: isinstance(a, ast.Constant)):
            found.append(node)
    return [f"{scope.get(n, '<module>')}:{n.lineno}" for n in sorted(found, key=lambda n: n.lineno)]


def test_only_the_accumulation_helper_sums_into_a_sparse_dict():
    """Every kernel, the Scalar ring operations among them, sums through
    `scalars.accumulate`."""
    for path in sorted(SRC.glob("*.py")):
        found = hand_accumulations(path.read_text())
        if path.name == "scalars.py":
            found = [f for f in found if not f.startswith("accumulate:")]
        assert found == [], path.name


def test_accumulation_guard_flags_a_hand_written_sum():
    # the wedge kernel as it read before the one accumulation helper
    wedge = (
        "def wedge(a, b):\n"
        "    comps = {}\n"
        "    for ia, ca in a.comps.items():\n"
        "        for ib, cb in b.comps.items():\n"
        "            cur = comps.get(ia + ib, ZERO) + ca * cb\n"
        "            if cur.is_zero():\n"
        "                comps.pop(ia + ib, None)\n"
        "            else:\n"
        "                comps[ia + ib] = cur\n"
    )
    assert hand_accumulations(wedge) == ["wedge:5", "wedge:7"]
    ricci = "class G:\n    def ricci(self, e, k, v):\n        e[k] = e.get(k, 0) - v\n"
    assert hand_accumulations(ricci) == ["G.ricci:3"]
    assert hand_accumulations("x = d.get(k, ZERO) + 1\n") == ["<module>:1"]
    # the helper, a comparison and an unconditional pop are not hand-written sums
    helper = "def f(d, k, v):\n    accumulate(d, k, v)\n    return d.get(k, 0) < 0, d.pop(k, None)\n"
    assert hand_accumulations(helper) == []


# the linear operations that Vector, KForm and Endo take from exterior.Tensor
BASE_METHODS = {"__add__", "__sub__", "__neg__", "scale", "__eq__", "is_zero", "_check"}


def class_members(source: str, name: str) -> set[str]:
    """The names the class `name` binds in its own body: its functions and
    the targets of its assignments."""
    (cls,) = [n for n in ast.parse(source).body if isinstance(n, ast.ClassDef) and n.name == name]
    names = set()
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def test_tensor_classes_share_the_linear_operations():
    source = (SRC / "exterior.py").read_text()
    assert BASE_METHODS <= class_members(source, "Tensor")
    for name in ("Vector", "KForm", "Endo"):
        assert class_members(source, name) & BASE_METHODS == set(), name
        assert "_like" in class_members(source, name), name


def test_linear_operation_guard_flags_a_copy_in_a_tensor_class():
    # Endo as it read before the shared base: its own sum, scale and check
    endo = (
        "class Endo:\n"
        "    _check = _check_dims\n"
        "    def __add__(self, other):\n"
        "        return _endo(self.dim, _merge(self.part, other.part, 1))\n"
        "    def scale(self, c):\n"
        "        return _endo(self.dim, _scale(self.part, c))\n"
        "    def compose(self, other):\n"
        "        return other\n"
    )
    assert class_members(endo, "Endo") & BASE_METHODS == {"_check", "__add__", "scale"}
    assert class_members("class Vector(Tensor):\n    __slots__ = ()\n", "Vector") == {"__slots__"}


def rational_calls(source: str, callees=("Fraction", "rational")) -> list[str]:
    """`scope:line` of every call to one of `callees`, by name or attribute.
    A scope is a top-level function or `Class.method`; a nested function
    counts in the function around it."""
    tree = ast.parse(source)
    scope = {}
    for top in tree.body:
        members = [(top, "")]
        if isinstance(top, ast.ClassDef):
            members = [(m, top.name + ".") for m in top.body]
        for node, owner in members:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope.update(dict.fromkeys(ast.walk(node), owner + node.name))
    calls = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) in callees or getattr(node.func, "attr", None) in callees)
    ]
    return [f"{scope.get(c, '<module>')}:{c.lineno}" for c in sorted(calls, key=lambda c: c.lineno)]


def _functions(source: str) -> set[str]:
    return {node.name for node in ast.walk(ast.parse(source)) if isinstance(node, ast.FunctionDef)}


# the functions that feed a span the integer parts they hold, or read its parts
SPAN_FEEDERS = {
    "algebra.py": {"center_dimension"},
    "connections.py": {"_push", "_coordinates", "_read", "vertical_action_irreducible"},
    "contact.py": {"_qc_functionals", "_qc_slots", "_reeb_matrix", "qc_unique_skew"},
    "g2.py": {"_positive_definite", "genericity_check"},
}


def fraction_uses(source: str) -> list[str]:
    """`import:line` of every import of the fractions module or from it, and
    `scope:line` of every `Fraction(...)` call."""
    imports = [
        f"import:{node.lineno}"
        for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.ImportFrom) and node.module == "fractions")
        or (isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names))
    ]
    return imports + rational_calls(source, ("Fraction",))


def test_linalg_builds_no_fractions():
    """Rows enter and leave linalg as integer parts (den, {column: int})."""
    assert fraction_uses((SRC / "linalg.py").read_text()) == []


def test_fraction_guard_flags_a_reintroduced_fraction():
    # the output reader of linalg before its outputs were integer parts
    reader = (
        "from fractions import Fraction\n"
        "def _fractions(den, e):\n"
        "    return {j: Fraction(x, den) for j, x in e.items()}\n"
    )
    assert fraction_uses(reader) == ["import:1", "_fractions:3"]
    assert fraction_uses("import fractions\nx = fractions.Fraction(1)\n") == ["import:1", "<module>:2"]
    assert fraction_uses("def f(x):\n    return isinstance(x, int)\n") == []


def test_span_feeders_pass_integer_parts():
    for name, feeders in SPAN_FEEDERS.items():
        source = (SRC / name).read_text()
        assert feeders <= _functions(source), name
        assert [f for f in rational_calls(source) if f.split(":")[0] in feeders] == [], name


def test_rational_call_guard_flags_a_fraction_fed_to_a_span():
    # the coordinate reader as it read before the integer rows
    reader = (
        "def _coordinate_reader(basis, n):\n"
        "    span.add({**_flatten(b), nn + a: Fraction(1)})\n"
        "    def read(e):\n"
        "        return span.reduce({k: rational(v, den) for k, v in e.items()})\n"
        "    return read\n"
    )
    assert rational_calls(reader) == ["_coordinate_reader:2", "_coordinate_reader:4"]
    method = "class Span:\n    def add(self, v):\n        return fractions.Fraction(1) / v[0]\n"
    assert rational_calls(method) == ["Span.add:3"]
    assert rational_calls("x = Fraction(1, 2)\n") == ["<module>:1"]
    assert rational_calls("def f(x):\n    return isinstance(x, Fraction), x.numerator\n") == []


CACHES = {"cache", "lru_cache"}


def functools_caches(source: str) -> list[int]:
    """Lines that reach for functools.cache or functools.lru_cache, by an
    import from functools or as an attribute of the imported module."""
    tree = ast.parse(source)
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "functools"
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [node.lineno for alias in node.names if alias.name in CACHES]
        elif isinstance(node, ast.Attribute) and node.attr in CACHES:
            if isinstance(node.value, ast.Name) and node.value.id in modules:
                found.append(node.lineno)
    return sorted(found)


def decorators(source: str, name: str) -> list[str]:
    """The decorators of the module-level function `name`, as source text."""
    (fn,) = [n for n in ast.parse(source).body if isinstance(n, ast.FunctionDef) and n.name == name]
    return [ast.unparse(d) for d in fn.decorator_list]


def test_only_the_algebra_memo_caches_derived_values():
    """A derived value lives in the memo of its algebra (`algebra.derived`) and
    dies with it: no module-level cache, and no memo on `algebra.build`, so two
    builds never share a value."""
    for path in sorted(SRC.glob("*.py")):
        assert functools_caches(path.read_text()) == [], path.name
    assert decorators((SRC / "algebra.py").read_text(), "build") == []


def test_cache_guard_flags_a_module_level_cache():
    memoized_build = (
        "import functools\n"
        "from functools import lru_cache, wraps\n"
        "@functools.cache\n"
        "def build(p, lam=None):\n"
        "    return p\n"
        "@lru_cache(maxsize=None)\n"
        "def levi_civita(alg):\n"
        "    return alg\n"
    )
    assert functools_caches(memoized_build) == [2, 3]
    assert decorators(memoized_build, "build") == ["functools.cache"]
    aliased = "import functools as ft\nf = ft.lru_cache(None)(len)\n"
    assert functools_caches(aliased) == [2]
    # the memo, cached_property and an unrelated .cache attribute are not caches
    allowed = (
        "import functools\n"
        "from functools import cached_property\n"
        "@derived\n"
        "def levi_civita(alg):\n"
        "    return alg.cache, functools.wraps\n"
    )
    assert functools_caches(allowed) == []
    assert decorators(allowed, "levi_civita") == ["derived"]


def process_state(source: str) -> list[str]:
    """Names that outlive every algebra: each name of a `global` statement, and
    each module-level name bound to an empty {}, [] or set()."""
    tree = ast.parse(source)
    found = [name for node in ast.walk(tree) if isinstance(node, ast.Global) for name in node.names]
    for top in tree.body:
        if isinstance(top, (ast.Assign, ast.AnnAssign)) and top.value is not None:
            if ast.unparse(top.value) in ("{}", "[]", "set()"):
                targets = top.targets if isinstance(top, ast.Assign) else [top.target]
                found += [t.id for t in targets if isinstance(t, ast.Name)]
    return sorted(found)


# module state that lives for the whole process, each kept for a reason
PROCESS_STATE_ALLOWED: dict[str, str] = {}


def test_no_module_state_lives_for_the_process():
    found = [f"{path.stem}.{name}" for path in sorted(SRC.glob("*.py")) for name in process_state(path.read_text())]
    assert sorted(found) == sorted(PROCESS_STATE_ALLOWED)


def test_process_state_guard_flags_a_module_cache_and_a_global():
    source = (
        "_CACHE = {}\n"
        "_TABLE = {1: 2}\n"
        "def f():\n"
        "    global _X\n"
        "    local = []\n"
        "    return local\n"
    )
    assert process_state(source) == ["_CACHE", "_X"]
    assert process_state("_SEEN: set[int] = set()\n_ROWS = []\n_N = 0\n") == ["_ROWS", "_SEEN"]


def unreferenced(sources: dict[str, str]) -> list[str]:
    """`module.function` and `module.Class.method` of every public definition
    that no module of `sources` (module name -> text) refers to.  A function
    counts as referenced by its name in its own module, by
    `from .module import function`, or as `module.function`; a method by an
    attribute of its name."""
    trees = {m: ast.parse(source) for m, source in sources.items()}
    names = {m: {n.id for n in ast.walk(t) if isinstance(n, ast.Name)} for m, t in trees.items()}
    qualified, attributes = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                qualified |= {(node.module.split(".")[-1], a.name) for a in node.names}
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
                if isinstance(node.value, ast.Name):
                    qualified.add((node.value.id, node.attr))
    found = []
    for m, tree in trees.items():
        for top in tree.body:
            if isinstance(top, ast.FunctionDef) and not top.name.startswith("_"):
                if top.name not in names[m] and (m, top.name) not in qualified:
                    found.append(f"{m}.{top.name}")
            elif isinstance(top, ast.ClassDef):
                found += [
                    f"{m}.{top.name}.{f.name}"
                    for f in top.body
                    if isinstance(f, ast.FunctionDef)
                    and not f.name.startswith("_")
                    and f.name not in attributes
                ]
    return sorted(found)


def test_every_public_definition_has_a_reader_in_the_package():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unreferenced(sources) == sorted(UNREFERENCED_ALLOWED)


def test_reader_guard_flags_an_uncalled_definition():
    # a module-level reader of one bundle field that only tests call
    wrappers = (
        "def ricci(alg, conn):\n"
        "    return Geometry(alg, conn).ricci\n"
        "def curvature(alg, conn):\n"
        "    return conn\n"
        "class Geometry:\n"
        "    def ricci(self):\n"
        "        return curvature(self.alg, self.conn)\n"
        "    def lowered(self, i):\n"
        "        return i\n"
    )
    assert unreferenced({"connections": wrappers}) == [
        "connections.Geometry.lowered", "connections.ricci"
    ]
    # imported by name, or read as module.name, from another module
    report = "from .connections import ricci\nfrom . import connections\nx = connections.curvature\n"
    both = "def ricci(alg):\n    return alg\ndef curvature(alg):\n    return alg\n"
    assert unreferenced({"connections": both, "report": report}) == []
