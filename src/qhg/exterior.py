"""Exterior algebra on an orthonormal frame, with exact values.

Alternating k-tensors are stored sparsely on strictly increasing index
tuples over the frame 0..n-1.  The basis k-forms are orthonormal (no
1/k! weights) and the evaluation convention is the determinant one,
(a^b)(X,Y) = a(X)b(Y) - a(Y)b(X).  Skew endomorphisms and 2-forms are
identified by  A X = X . a  (interior product), i.e. a(X,Y) = g(AX,Y).

Vectors, forms and endomorphisms hold the one exact value type of
`scalars`, one monomial c * l^d: the part (degree, den, {index: int}),
indexed by frame indices, index tuples and (row, column) pairs; a `Scalar`
is the same thing indexed by the empty tuple.  Their linear operations
live once, in `Tensor`, and every kernel below loops over plain ints;
`comps`, `m`, `coeff`, `entry` and indexing read entries out as Scalars on
demand.
"""

from __future__ import annotations

from itertools import repeat

from .scalars import (
    ONE,
    ZERO,
    ZERO_PART,
    PartSum,
    Scalar,
    _merge,
    _negate,
    _part,
    _product,
    _scalar,
    _scaled,
    accumulate,
    graded,
    part,
    part_of,
    scalar_at,
    scalar_of,
    scalars_of,
)


def _check_dims(a, b):
    """Raise unless the two operands live in the same dimension."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")


def _check_indices(dim: int, indices):
    """Raise IndexError naming the first index outside [0, dim)."""
    for i in indices:
        if not 0 <= i < dim:
            raise IndexError(f"index {i} outside [0, {dim})")


# -- integer kernels over the part (degree, den, {index: int}) --------------------


def _combination(terms) -> tuple:
    """The part of sum c l^d / den * T over the terms (d, den, c, part of T)."""
    return graded(
        (d + dt, den * nt, {k: c * v for k, v in et.items()})
        for d, den, c, (dt, nt, et) in terms
        if et
    )


def _dot(ea: dict, eb: dict) -> dict:
    s = sum(v * eb[k] for k, v in ea.items() if k in eb)
    return {(): s} if s else {}


def _inner(a: tuple, b: tuple) -> Scalar:
    """Sum over the common indices of the products of the entries of a and b."""
    return _scalar(_product(a, b, _dot))


def _rows(e: dict) -> dict[int, list[tuple[int, int]]]:
    """Row index -> [(column, entry)] of the integer entries of one part."""
    rows: dict[int, list[tuple[int, int]]] = {}
    for (r, c), v in e.items():
        rows.setdefault(r, []).append((c, v))
    return rows


def _compose(ea: dict, eb: dict, acc: dict | None = None, sign: int = 1) -> dict:
    """Integer matrix product ea * eb, added with `sign` into acc."""
    acc = {} if acc is None else acc
    rows = _rows(eb)
    for (r, k), v in ea.items():
        row = rows.get(k)
        if row:
            v *= sign
            for c, w in row:
                accumulate(acc, (r, c), v * w)
    return acc


def _commutator(ea: dict, eb: dict) -> dict:
    return _compose(eb, ea, _compose(ea, eb), -1)


def _apply(ea: dict, ex: dict) -> dict:
    acc: dict = {}
    for (r, c), v in ea.items():
        xc = ex.get(c)
        if xc:
            accumulate(acc, r, v * xc)
    return acc


class Tensor:
    """One part over a frame of dimension `dim`: the base of Vector, KForm
    and Endo.

    The linear operations live here, built over each class's `_like(part)`,
    a tensor of the same class, dimension and degree.  `degree` is that of
    a KForm; the other tensors have none.
    """

    __slots__ = ("dim", "part")
    degree = None

    def _check(self, other):
        """Raise unless other has the class, dimension and degree of self."""
        if type(other) is not type(self):
            raise TypeError(f"expected a {type(self).__name__}, got {type(other).__name__}")
        _check_dims(self, other)
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")

    def __add__(self, other):
        self._check(other)
        return self._like(_merge(self.part, other.part, 1, f"{type(self).__name__} sum"))

    def __sub__(self, other):
        self._check(other)
        return self._like(_merge(self.part, other.part, -1, f"{type(self).__name__} sum"))

    def __neg__(self):
        return self._like(_negate(self.part))

    def scale(self, c):
        """c times the tensor, for a Scalar, an int or a Fraction c."""
        return self._like(_product(_part(c), self.part, _scaled))

    def is_zero(self) -> bool:
        return not self.part[2]

    @property
    def comps(self) -> dict:
        """index -> nonzero Scalar, in sorted index order."""
        return scalars_of(self.part)

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.dim == other.dim
            and self.degree == other.degree
            and self.part == other.part
        )


class Vector(Tensor):
    """Element of the frame space, components in the orthonormal frame.

    `comps` holds the nonzero components; indexing and iteration see all
    `dim` components, zeros included.
    """

    __slots__ = ()

    def __init__(self, components):
        components = list(components)
        self.dim = len(components)
        self.part = part_of(enumerate(components), "Vector")

    def _like(self, p: tuple) -> "Vector":
        return _vector(self.dim, p)

    @staticmethod
    def zero(dim: int) -> "Vector":
        return _vector(dim, ZERO_PART)

    @staticmethod
    def basis(dim: int, index: int) -> "Vector":
        if not 0 <= index < dim:
            raise IndexError(f"basis index {index} outside [0, {dim})")
        return _vector(dim, (0, 1, {index: 1}))

    def __getitem__(self, i: int) -> Scalar:
        if not -self.dim <= i < self.dim:
            raise IndexError("vector index out of range")
        return scalar_at(self.part, i % self.dim)

    def __iter__(self):
        return map(self.comps.get, range(self.dim), repeat(ZERO))

    def dot(self, other: "Vector") -> Scalar:
        """Inner product of the orthonormal frame."""
        self._check(other)
        return _inner(self.part, other.part)

    def __repr__(self):
        return f"Vector({[str(c) for c in self]})"


# Raw constructors over a part already in normal form; no index check.


def _vector(dim: int, p: tuple) -> Vector:
    out = Vector.__new__(Vector)
    out.dim, out.part = dim, p
    return out


def _kform(dim: int, degree: int, p: tuple) -> "KForm":
    out = KForm.__new__(KForm)
    out.dim, out.degree, out.part = dim, degree, p
    return out


def _endo(dim: int, p: tuple) -> "Endo":
    out = Endo.__new__(Endo)
    out.dim, out.part = dim, p
    return out


def _sort_tuple(idx: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Sort an index tuple, returning the permutation sign (0 if repeated)."""
    odd = False
    for i, a in enumerate(idx):
        for b in idx[i + 1 :]:
            if a == b:
                return 0, ()
            odd ^= a > b
    return -1 if odd else 1, tuple(sorted(idx))


class KForm(Tensor):
    """Alternating k-tensor, sparse over increasing index tuples.

    `comps` maps each index tuple with a nonzero coefficient to its Scalar.
    """

    __slots__ = ("degree",)

    def __init__(self, dim: int, degree: int, comps: dict | None = None):
        if not 0 <= degree <= dim:
            raise ValueError(f"degree {degree} out of range for dimension {dim}")
        self.dim = dim
        self.degree = degree
        items = []
        for idx, c in (comps or {}).items():
            _check_indices(dim, idx)
            if _part(c)[2] and len(idx) != degree:
                raise ValueError(f"index tuple {idx} has wrong length for degree {degree}")
            sign, key = _sort_tuple(tuple(idx))
            if sign:
                items.append((key, c if sign > 0 else -c))
        self.part = part_of(items, "KForm")

    def _like(self, p: tuple) -> "KForm":
        return _kform(self.dim, self.degree, p)

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
        _check_indices(self.dim, idx)
        if len(idx) != self.degree:
            raise ValueError(f"index tuple {idx} has wrong length for degree {self.degree}")
        sign, key = _sort_tuple(tuple(idx))
        if sign == 0:
            return ZERO
        c = scalar_at(self.part, key)
        return c if sign > 0 else -c

    def evaluate(self, *vectors: Vector) -> Scalar:
        """Evaluate on vectors via the determinant convention:
        f(v_1, .., v_k) = v_k . ( .. (v_1 . f))."""
        if len(vectors) != self.degree:
            raise ValueError("wrong number of arguments")
        p = self.part
        for v in vectors:
            _check_dims(v, self)
            p = _product(v.part, p, _interior)
        return scalar_at(p, ())

    def __str__(self):
        if self.is_zero():
            return "0"
        return " + ".join(f"({c})e{list(k)}" for k, c in self.comps.items())

    __repr__ = __str__


# -- core operations -------------------------------------------------------


def _wedge(ea: dict, eb: dict) -> dict:
    acc: dict = {}
    for ia, va in ea.items():
        sa = set(ia)
        for ib, vb in eb.items():
            if sa.isdisjoint(ib):
                sign, key = _sort_tuple(ia + ib)
                accumulate(acc, key, va * vb if sign > 0 else -va * vb)
    return acc


def wedge(a: KForm, b: KForm) -> KForm:
    """Exterior product; graded-commutative and associative."""
    _check_dims(a, b)
    k = a.degree + b.degree
    if k > a.dim:
        # everything above top degree vanishes
        return KForm.zero(a.dim, a.dim)
    return _kform(a.dim, k, _product(a.part, b.part, _wedge))


def _interior(ex: dict, ea: dict) -> dict:
    acc: dict = {}
    for idx, c in ea.items():
        for t, i in enumerate(idx):
            xi = ex.get(i)
            if xi:
                accumulate(acc, idx[:t] + idx[t + 1 :], xi * c if t % 2 == 0 else -xi * c)
    return acc


def interior(x: Vector, a: KForm) -> KForm:
    """Interior product x . a, an antiderivation of degree -1."""
    _check_dims(x, a)
    if a.degree == 0:
        raise ValueError("interior product needs degree >= 1")
    return _kform(a.dim, a.degree - 1, _product(x.part, a.part, _interior))


def hodge_star(a: KForm) -> KForm:
    """Hodge star for the orthonormal frame, e_0^...^e_{n-1} positive."""
    frame = range(a.dim)
    d, den, e = a.part
    starred = {}
    for idx, c in e.items():
        comp = tuple(i for i in frame if i not in idx)
        sign, _ = _sort_tuple(idx + comp)
        starred[comp] = c if sign > 0 else -c
    return _kform(a.dim, a.dim - a.degree, (d, den, starred))


def form_inner(a: KForm, b: KForm) -> Scalar:
    """Inner product for which the basis k-forms are orthonormal."""
    a._check(b)
    return _inner(a.part, b.part)


class Endo(Tensor):
    """Linear endomorphism of the frame space, a sparse matrix.

    `m` maps each (row, column) with a nonzero entry to its Scalar.
    """

    __slots__ = ()

    def __init__(self, dim: int, entries: dict | None = None):
        entries = entries or {}
        for key in entries:
            _check_indices(dim, key)
        self.dim = dim
        self.part = part_of(entries.items(), "Endo")

    m = Tensor.comps

    def _like(self, p: tuple) -> "Endo":
        return _endo(self.dim, p)

    @staticmethod
    def zero(dim: int) -> "Endo":
        return _endo(dim, ZERO_PART)

    @staticmethod
    def identity(dim: int) -> "Endo":
        return _endo(dim, (0, 1, {(i, i): 1 for i in range(dim)}) if dim else ZERO_PART)

    def entry(self, r: int, c: int) -> Scalar:
        _check_indices(self.dim, (r, c))
        return scalar_at(self.part, (r, c))

    def is_skew(self) -> bool:
        e = self.part[2]
        return all(e.get((c, r), 0) == -v for (r, c), v in e.items())

    def apply(self, x: Vector) -> Vector:
        _check_dims(self, x)
        return _vector(self.dim, _product(self.part, x.part, _apply))

    def column(self, c: int) -> Vector:
        _check_indices(self.dim, (c,))
        d, den, e = self.part
        return _vector(self.dim, part(d, den, {r: v for (r, cc), v in e.items() if cc == c}))

    def compose(self, other: "Endo") -> "Endo":
        """Matrix product self * other."""
        self._check(other)
        return _endo(self.dim, _product(self.part, other.part, _compose))

    def commutator(self, other: "Endo") -> "Endo":
        self._check(other)
        return _endo(self.dim, _product(self.part, other.part, _commutator))

    def trace(self) -> Scalar:
        d, den, e = self.part
        return scalar_of(d, den, sum(v for (r, c), v in e.items() if r == c))

    def __repr__(self):
        return f"Endo({self.dim}, {{{', '.join(f'{k}: {v}' for k, v in self.m.items())}}})"


def two_form_endo(a: KForm) -> Endo:
    """Skew endomorphism of a 2-form: A X = X . a."""
    if a.degree != 2:
        raise ValueError("expected a 2-form")
    d, den, e = a.part
    entries = {}
    for (i, j), c in e.items():
        entries[(j, i)] = c
        entries[(i, j)] = -c
    return _endo(a.dim, (d, den, entries))


def endo_two_form(a: Endo) -> KForm:
    """Inverse of two_form_endo; rejects non-skew input."""
    if not a.is_skew():
        raise ValueError("endomorphism is not skew")
    # the entries below the diagonal carry every value of a skew matrix up to sign
    d, den, e = a.part
    return _kform(a.dim, 2, (d, den, {(i, j): v for (j, i), v in e.items() if i < j}))


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
    # d e^I = sum_t (-1)^t e^{I[:t]} ^ d e^{I[t]} ^ e^{I[t+1:]}, one sort per term
    d, den, e = a.part
    d1 = {i: alg.d_basis_one_form(i).part for i in {i for idx in e for i in idx}}
    sums = PartSum("Chevalley-Eilenberg differential")
    for idx, c in e.items():
        for t, i in enumerate(idx):
            dd, dden, de = d1[i]
            if de:
                acc = sums.at(d + dd, den * dden)
                for pq, w in de.items():
                    sign, key = _sort_tuple(idx[:t] + pq + idx[t + 1 :])
                    if sign:
                        accumulate(acc, key, c * w if (sign > 0) == (t % 2 == 0) else -c * w)
    return _kform(a.dim, a.degree + 1, sums.part())


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
