"""Exterior algebra on an orthonormal frame, with exact scalars.

Alternating k-tensors are stored sparsely on strictly increasing index
tuples over the frame 0..n-1.  The basis k-forms are orthonormal (no
1/k! weights) and the evaluation convention is the determinant one,
(a^b)(X,Y) = a(X)b(Y) - a(Y)b(X).  Skew endomorphisms and 2-forms are
identified by  A X = X . a  (interior product), i.e. a(X,Y) = g(AX,Y).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, repeat

from .scalars import ONE, ZERO, Scalar


def _coeff(x) -> Scalar:
    return x if isinstance(x, Scalar) else Scalar(x)


def _check_dims(a, b):
    """Raise unless the two operands live in the same dimension."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")


class Vector:
    """Element of the frame space, components in the orthonormal frame.

    `comps` maps index -> nonzero Scalar, like KForm.comps; indexing and
    iteration still see all `dim` components, zeros included.
    """

    __slots__ = ("dim", "comps")

    def __init__(self, components):
        comps = [_coeff(c) for c in components]
        self.dim = len(comps)
        self.comps = {i: c for i, c in enumerate(comps) if not c.is_zero()}

    @staticmethod
    def zero(dim: int) -> "Vector":
        return _vector(dim, {})

    @staticmethod
    def basis(dim: int, index: int) -> "Vector":
        if not 0 <= index < dim:
            raise IndexError(f"basis index {index} outside [0, {dim})")
        return _vector(dim, {index: ONE})

    def __getitem__(self, i: int) -> Scalar:
        if not -self.dim <= i < self.dim:
            raise IndexError("vector index out of range")
        return self.comps.get(i % self.dim, ZERO)

    def __iter__(self):
        return map(self.comps.get, range(self.dim), repeat(ZERO))

    _check = _check_dims

    def __add__(self, other: "Vector") -> "Vector":
        self._check(other)
        return _vector(self.dim, _merge(self.comps, other.comps, 1))

    def __sub__(self, other: "Vector") -> "Vector":
        self._check(other)
        return _vector(self.dim, _merge(self.comps, other.comps, -1))

    def __neg__(self) -> "Vector":
        return _vector(self.dim, {i: -a for i, a in self.comps.items()})

    def scale(self, c) -> "Vector":
        c = _coeff(c)
        if c.is_zero():
            return Vector.zero(self.dim)
        # no zero divisors: nonzero times nonzero stays nonzero
        return _vector(self.dim, {i: c * a for i, a in self.comps.items()})

    def dot(self, other: "Vector") -> Scalar:
        """Inner product of the orthonormal frame."""
        self._check(other)
        out = ZERO
        for i, a in self.comps.items():
            b = other.comps.get(i)
            if b is not None:
                out = out + a * b
        return out

    def is_zero(self) -> bool:
        return not self.comps

    def dual(self) -> "KForm":
        """Metric-dual 1-form (trivial in an orthonormal frame)."""
        return KForm(self.dim, 1, {(i,): self.comps[i] for i in sorted(self.comps)})

    def __eq__(self, other):
        return isinstance(other, Vector) and self.dim == other.dim and self.comps == other.comps

    def __repr__(self):
        return f"Vector({[str(c) for c in self]})"


# Raw constructors over dicts that already hold only nonzero scalars.


def _vector(dim: int, v: dict[int, Scalar]) -> Vector:
    out = Vector.__new__(Vector)
    out.dim, out.comps = dim, v
    return out


def _kform(dim: int, degree: int, comps: dict[tuple[int, ...], Scalar]) -> "KForm":
    out = KForm.__new__(KForm)
    out.dim, out.degree, out.comps = dim, degree, comps
    return out


def _endo(dim: int, m: dict[tuple[int, int], Scalar]) -> "Endo":
    out = Endo.__new__(Endo)
    out.dim, out.m = dim, m
    return out


def _merge(a: dict, b: dict, sign: int) -> dict:
    """a + sign * b on sparse dicts of nonzero scalars, zeros dropped."""
    out = dict(a)
    for k, v in b.items():
        w = out.get(k)
        if w is None:
            out[k] = v if sign > 0 else -v
            continue
        w = w + v if sign > 0 else w - v
        if w.is_zero():
            del out[k]
        else:
            out[k] = w
    return out


def _sort_tuple(idx: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Sort an index tuple, returning the permutation sign (0 if repeated)."""
    idx = list(idx)
    sign = 1
    for i in range(len(idx)):
        for j in range(len(idx) - 1 - i):
            if idx[j] > idx[j + 1]:
                idx[j], idx[j + 1] = idx[j + 1], idx[j]
                sign = -sign
            elif idx[j] == idx[j + 1]:
                return 0, ()
    return sign, tuple(idx)


class KForm:
    """Alternating k-tensor, sparse map from increasing index tuples."""

    __slots__ = ("dim", "degree", "comps")

    def __init__(self, dim: int, degree: int, comps: dict | None = None):
        if not 0 <= degree <= dim:
            raise ValueError(f"degree {degree} out of range for dimension {dim}")
        self.dim = dim
        self.degree = degree
        clean: dict[tuple[int, ...], Scalar] = {}
        for idx, c in (comps or {}).items():
            c = _coeff(c)
            if c.is_zero():
                continue
            if len(idx) != degree:
                raise ValueError(f"index tuple {idx} has wrong length for degree {degree}")
            sign, key = _sort_tuple(tuple(idx))
            if sign == 0:
                continue
            cur = clean.get(key, ZERO) + (c if sign > 0 else -c)
            if cur.is_zero():
                clean.pop(key, None)
            else:
                clean[key] = cur
        self.comps = clean

    @staticmethod
    def zero(dim: int, degree: int) -> "KForm":
        return KForm(dim, degree, {})

    @staticmethod
    def unit(dim: int) -> "KForm":
        return KForm(dim, 0, {(): ONE})

    @staticmethod
    def basis(dim: int, idx: tuple[int, ...]) -> "KForm":
        return KForm(dim, len(idx), {tuple(idx): ONE})

    def coeff(self, idx: tuple[int, ...]) -> Scalar:
        sign, key = _sort_tuple(tuple(idx))
        if sign == 0:
            return ZERO
        c = self.comps.get(key, ZERO)
        return c if sign > 0 else -c

    def is_zero(self) -> bool:
        return not self.comps

    _check = _check_dims

    def __add__(self, other: "KForm") -> "KForm":
        self._check(other)
        if self.degree != other.degree:
            raise ValueError("degree mismatch in form addition")
        return _kform(self.dim, self.degree, _merge(self.comps, other.comps, 1))

    def __sub__(self, other: "KForm") -> "KForm":
        return self + (-other)

    def __neg__(self) -> "KForm":
        return _kform(self.dim, self.degree, {k: -v for k, v in self.comps.items()})

    def scale(self, c) -> "KForm":
        c = _coeff(c)
        comps = {} if c.is_zero() else {k: c * v for k, v in self.comps.items()}
        return _kform(self.dim, self.degree, comps)

    def __eq__(self, other):
        return (
            isinstance(other, KForm)
            and self.dim == other.dim
            and self.degree == other.degree
            and self.comps == other.comps
        )

    def evaluate(self, *vectors: Vector) -> Scalar:
        """Evaluate on vectors via the determinant convention."""
        if len(vectors) != self.degree:
            raise ValueError("wrong number of arguments")
        out = ZERO
        for idx, c in self.comps.items():
            out = out + c * _det([[v[i] for i in idx] for v in vectors])
        return out

    def __str__(self):
        if not self.comps:
            return "0"
        parts = [f"({c})e{list(k)}" for k, c in sorted(self.comps.items())]
        return " + ".join(parts)

    __repr__ = __str__


def _det(rows: list[list[Scalar]]) -> Scalar:
    n = len(rows)
    if n == 0:
        return ONE
    if n == 1:
        return rows[0][0]
    out = ZERO
    for j in range(n):
        if rows[0][j].is_zero():
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * _det(minor)
        out = out + (term if j % 2 == 0 else -term)
    return out


# -- core operations -------------------------------------------------------


def wedge(a: KForm, b: KForm) -> KForm:
    """Exterior product; graded-commutative and associative."""
    a._check(b)
    k = a.degree + b.degree
    if k > a.dim:
        # everything above top degree vanishes
        return KForm.zero(a.dim, a.dim)
    comps: dict[tuple[int, ...], Scalar] = {}
    for ia, ca in a.comps.items():
        sa = set(ia)
        for ib, cb in b.comps.items():
            if sa & set(ib):
                continue
            sign, key = _sort_tuple(ia + ib)
            c = ca * cb
            cur = comps.get(key, ZERO) + (c if sign > 0 else -c)
            if cur.is_zero():
                comps.pop(key, None)
            else:
                comps[key] = cur
    return _kform(a.dim, k, comps)


def interior(x: Vector, a: KForm) -> KForm:
    """Interior product x . a, an antiderivation of degree -1."""
    if x.dim != a.dim:
        raise ValueError(f"dimension mismatch: {x.dim} vs {a.dim}")
    if a.degree == 0:
        raise ValueError("interior product needs degree >= 1")
    comps: dict[tuple[int, ...], Scalar] = {}
    for idx, c in a.comps.items():
        for t, i in enumerate(idx):
            xi = x[i]
            if xi.is_zero():
                continue
            key = idx[:t] + idx[t + 1 :]
            term = xi * c
            cur = comps.get(key, ZERO) + (term if t % 2 == 0 else -term)
            if cur.is_zero():
                comps.pop(key, None)
            else:
                comps[key] = cur
    return _kform(a.dim, a.degree - 1, comps)


def hodge_star(a: KForm) -> KForm:
    """Hodge star for the orthonormal frame, e_0^...^e_{n-1} positive."""
    comps: dict[tuple[int, ...], Scalar] = {}
    for idx, c in a.comps.items():
        comp = tuple(i for i in range(a.dim) if i not in idx)
        sign, _ = _sort_tuple(idx + comp)
        comps[comp] = c if sign > 0 else -c
    return KForm(a.dim, a.dim - a.degree, comps)


def form_inner(a: KForm, b: KForm) -> Scalar:
    """Inner product for which the basis k-forms are orthonormal."""
    a._check(b)
    if a.degree != b.degree:
        raise ValueError("degree mismatch in form inner product")
    small, large = (a.comps, b.comps) if len(a.comps) <= len(b.comps) else (b.comps, a.comps)
    out = ZERO
    for k, v in small.items():
        w = large.get(k)
        if w is not None:
            out = out + v * w
    return out


class Endo:
    """Linear endomorphism of the frame space, sparse matrix of scalars."""

    __slots__ = ("dim", "m")

    def __init__(self, dim: int, entries: dict | None = None):
        self.dim = dim
        self.m: dict[tuple[int, int], Scalar] = {}
        for (r, c), v in (entries or {}).items():
            v = _coeff(v)
            if not v.is_zero():
                self.m[(r, c)] = v

    @staticmethod
    def zero(dim: int) -> "Endo":
        return Endo(dim)

    @staticmethod
    def identity(dim: int) -> "Endo":
        return Endo(dim, {(i, i): ONE for i in range(dim)})

    def entry(self, r: int, c: int) -> Scalar:
        return self.m.get((r, c), ZERO)

    def is_zero(self) -> bool:
        return not self.m

    def is_skew(self) -> bool:
        for (r, c), v in self.m.items():
            if not (self.m.get((c, r), ZERO) + v).is_zero():
                return False
        return True

    _check = _check_dims

    def apply(self, x: Vector) -> Vector:
        self._check(x)
        out: dict[int, Scalar] = {}
        for (r, c), v in self.m.items():
            xc = x.comps.get(c)
            if xc is not None:
                out[r] = out.get(r, ZERO) + v * xc
        return _vector(self.dim, {r: v for r, v in out.items() if not v.is_zero()})

    def column(self, c: int) -> Vector:
        return _vector(self.dim, {r: v for (r, cc), v in self.m.items() if cc == c})

    def __add__(self, other: "Endo") -> "Endo":
        self._check(other)
        return _endo(self.dim, _merge(self.m, other.m, 1))

    def __sub__(self, other: "Endo") -> "Endo":
        self._check(other)
        return _endo(self.dim, _merge(self.m, other.m, -1))

    def __neg__(self) -> "Endo":
        return _endo(self.dim, {k: -v for k, v in self.m.items()})

    def scale(self, c) -> "Endo":
        c = _coeff(c)
        return _endo(self.dim, {} if c.is_zero() else {k: c * v for k, v in self.m.items()})

    def compose(self, other: "Endo") -> "Endo":
        """Matrix product self * other."""
        self._check(other)
        if self.is_zero() or other.is_zero():
            return Endo.zero(self.dim)
        rows: dict[int, list[tuple[int, Scalar]]] = {}
        for (r, c), v in other.m.items():
            rows.setdefault(r, []).append((c, v))
        m: dict[tuple[int, int], Scalar] = {}
        for (r, k), v in self.m.items():
            for c, w in rows.get(k, ()):
                key = (r, c)
                s = m.get(key, ZERO) + v * w
                if s.is_zero():
                    m.pop(key, None)
                else:
                    m[key] = s
        return _endo(self.dim, m)

    def commutator(self, other: "Endo") -> "Endo":
        return self.compose(other) - other.compose(self)

    def trace(self) -> Scalar:
        out = ZERO
        for (r, c), v in self.m.items():
            if r == c:
                out = out + v
        return out

    def __eq__(self, other):
        return isinstance(other, Endo) and self.dim == other.dim and self.m == other.m

    def __repr__(self):
        return f"Endo({self.dim}, {{{', '.join(f'{k}: {v}' for k, v in sorted(self.m.items()))}}})"


def two_form_endo(a: KForm) -> Endo:
    """Skew endomorphism of a 2-form: A X = X . a."""
    if a.degree != 2:
        raise ValueError("expected a 2-form")
    entries: dict[tuple[int, int], Scalar] = {}
    for (i, j), c in a.comps.items():
        entries[(j, i)] = c
        entries[(i, j)] = -c
    return Endo(a.dim, entries)


def endo_two_form(a: Endo) -> KForm:
    """Inverse of two_form_endo; rejects non-skew input."""
    if not a.is_skew():
        raise ValueError("endomorphism is not skew")
    comps = {(i, j): a.entry(j, i) for (j, i) in a.m if i < j}
    return KForm(a.dim, 2, comps)


def ce_differential(a: KForm, alg) -> KForm:
    """Chevalley-Eilenberg differential of a left-invariant form.

    `alg` provides d of the basis 1-forms via `d_basis_one_form(i)`;
    the differential extends as an antiderivation and squares to zero
    exactly when the Jacobi identity holds.
    """
    if a.dim != alg.dim:
        raise ValueError("form does not live on this algebra")
    if a.degree == 0 or a.degree == a.dim:
        return KForm.zero(a.dim, min(a.degree + 1, a.dim))
    out = KForm.zero(a.dim, a.degree + 1)
    for idx, c in a.comps.items():
        for t, i in enumerate(idx):
            di = alg.d_basis_one_form(i)
            if di.is_zero():
                continue
            front = KForm.basis(a.dim, idx[:t])
            back = KForm.basis(a.dim, idx[t + 1 :])
            term = wedge(wedge(front, di), back).scale(c)
            out = out + (term if t % 2 == 0 else term.scale(-1))
    return out


def consistency_check(alg) -> bool:
    """Hodge star, interior product, inner product and the 2-form/endomorphism
    identification agree on sample forms of the frame of `alg`."""
    sample = wedge(alg.eta(1), alg.theta(1))
    rt = wedge(alg.eta(2), alg.theta(2)) + wedge(alg.theta(1), alg.theta(2)).scale(3)
    return (
        hodge_star(volume_form(alg.dim)) == KForm.unit(alg.dim)
        and hodge_star(hodge_star(sample)) == sample
        and form_inner(sample, sample) == ONE
        and endo_two_form(two_form_endo(rt)) == rt
        and interior(alg.tau(1), wedge(alg.theta(1), alg.theta(2))) == alg.theta(2)
    )


def volume_form(dim: int) -> KForm:
    return KForm.basis(dim, tuple(range(dim)))


def random_form(rng, dim: int, degree: int, density: float = 0.5) -> KForm:
    """Small random form with rational coefficients (test helper)."""
    comps = {}
    for idx in combinations(range(dim), degree):
        if rng.random() < density:
            comps[idx] = Scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    return KForm(dim, degree, comps)
