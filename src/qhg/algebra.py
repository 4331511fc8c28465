"""The quaternionic Heisenberg Lie algebra of dimension 4p+3.

Frame layout shared by every module: positions 0..2 carry the vertical
(central) directions xi_1, xi_2, xi_3, positions 3..4p+2 the horizontal
directions tau_1..tau_4p, grouped as p quaternion copies (1, i, j, k) =
(tau_r, tau_{p+r}, tau_{2p+r}, tau_{3p+r}).  The frame is orthonormal
for the metric; its parameter enters through the brackets
[tau_r, tau_{p+r}] = lam * xi_1 and cyclic relatives.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from fractions import Fraction

from .exterior import Endo, KForm, Vector, _endo, _kform, _vector, two_form_endo, wedge
from .linalg import nullspace
from .scalars import LAM, Scalar, accumulate, graded, part

# quaternion unit table (1, i, j, k): _QUAT[a][b] = (sign, index of a*b)
_QUAT = [
    [(1, 0), (1, 1), (1, 2), (1, 3)],
    [(1, 1), (-1, 0), (1, 3), (-1, 2)],
    [(1, 2), (-1, 3), (-1, 0), (1, 1)],
    [(1, 3), (1, 2), (-1, 1), (-1, 0)],
]


def quat_mul(a: int, b: int) -> tuple[int, int]:
    return _QUAT[a][b]


def derived(fn):
    """Memoize fn(alg, *args, **kwargs) on the algebra `alg`.

    The value is built on the first request and shared by every later one
    with the same arguments, passed the same way (positionally or by
    keyword); a call that raises caches nothing.  The memo
    is a dict on `alg`, so it dies with its algebra, and two algebras, even
    equal ones, never share a value.
    """

    @functools.wraps(fn)
    def memo(alg, *args, **kwargs):
        key = (fn, args, frozenset(kwargs.items())) if kwargs else (fn, args)
        try:
            return alg._derived[key]
        except KeyError:
            pass
        value = alg._derived[key] = fn(alg, *args, **kwargs)
        return value

    return memo


class StructureConstants:
    """Sparse Lie bracket table on the basis e_0..e_{dim-1}.

    `structure` maps (i, j) with 0 <= i < j < dim to the nonzero brackets
    [e_i, e_j], vectors of dimension dim, all of one degree in l, `degree`
    (None when every bracket is zero); any other key or vector, a bracket of
    a second degree, or an operand of `bracket` or `ad` of another dimension
    raises ValueError.  `_derived` is the memo of the `derived` functions of
    the table.
    """

    def __init__(self, dim: int, structure: dict[tuple[int, int], Vector]):
        self.dim = dim
        self._sc = structure
        self._zero = Vector.zero(dim)  # every zero product; values are immutable
        # _parts[i][j] = (den, {k: int}), [e_i, e_j] = entries / den * l^degree
        # in both orders; a negative den negates (see scalars.graded)
        self._parts: list[dict[int, tuple]] = [{} for _ in range(dim)]
        degrees = set()
        for (i, j), v in structure.items():
            if not 0 <= i < j < dim:
                raise ValueError(f"bracket key {(i, j)} must satisfy 0 <= i < j < {dim}")
            if v.dim != dim:
                raise ValueError(f"bracket {(i, j)} has dimension {v.dim}, not {dim}")
            d, den, e = v.part
            if e:
                self._parts[i][j], self._parts[j][i] = (den, e), (-den, e)
                degrees.add(d)
        if len(degrees) > 1:  # name the first key, in sorted order, of a second degree
            first, *keys = sorted(key for key, v in structure.items() if v.part[2])
            d0 = structure[first].part[0]
            key = next(key for key in keys if structure[key].part[0] != d0)
            raise ValueError(f"bracket {key} has degree {structure[key].part[0]} in l, not {d0} as bracket {first}")
        self.degree = next(iter(degrees), None)
        self._derived: dict = {}

    def basis_vector(self, index: int) -> Vector:
        return Vector.basis(self.dim, index)

    def bracket_basis(self, i: int, j: int) -> Vector:
        v = self._sc.get((i, j))
        if v is not None:
            return v
        v = self._sc.get((j, i))
        return -v if v is not None else self._zero

    def bracket(self, x: Vector, y: Vector) -> Vector:
        """Bilinear extension over the nonzero components of x and y; a
        product that no table entry meets is the shared zero and allocates
        nothing, one whose terms cancel is a new zero."""
        if x.dim != self.dim or y.dim != self.dim:
            raise ValueError(f"bracket operands have dimensions {x.dim} and {y.dim}, not {self.dim}")
        acc: dict[int, dict[int, int]] = {}  # den of the table -> sums
        table = self._parts
        dx, nx, ex = x.part
        dy, ny, ey = y.part
        for i, a in ex.items():
            row = table[i]
            if not row:
                continue
            for j, b in ey.items():
                t = row.get(j)
                if t:
                    den, v = t
                    sums = acc.get(den)
                    if sums is None:
                        sums = acc[den] = {}
                    ab = a * b
                    for k, c in v.items():
                        accumulate(sums, k, ab * c)
        if not acc:
            return self._zero
        d, n = dx + dy + self.degree, nx * ny
        if len(acc) == 1:  # one table denominator: graded of one raw part is part
            (den, e), = acc.items()
            return _vector(self.dim, part(d, n * den, e))
        return _vector(self.dim, graded(((d, n * den, e) for den, e in acc.items()), "bracket"))

    def ad(self, x: Vector) -> Endo:
        """ad_x = [x, -] read from the table: entry (k, j) is [x, e_j]_k."""
        if x.dim != self.dim:
            raise ValueError(f"ad operand has dimension {x.dim}, not {self.dim}")
        dx, nx, ex = x.part
        if not ex or self.degree is None:
            return Endo.zero(self.dim)
        d = dx + self.degree
        return _endo(self.dim, graded(
            (d, nx * den, {(k, j): a * c for k, c in e.items()})
            for i, a in ex.items() for j, (den, e) in self._parts[i].items()
        ))

    @derived
    def d_basis_one_form(self, index: int) -> KForm:
        """Chevalley-Eilenberg differential of the index-th basis 1-form."""
        if not 0 <= index < self.dim:
            raise IndexError(f"basis index {index} outside [0, {self.dim})")
        # d e^k (e_i, e_j) = -[e_i, e_j]_k
        return _kform(self.dim, 2, graded(
            (self.degree, -den, {(i, j): e[index]})
            for i, row in enumerate(self._parts) for j, (den, e) in row.items() if i < j and index in e
        ))


class QHAlgebra(StructureConstants):
    """Structure constants, metric frame and vertical/horizontal split."""

    def __init__(self, p: int, lam: Scalar, structure: dict[tuple[int, int], Vector]):
        super().__init__(4 * p + 3, structure)
        self.p = p
        self.lam = lam

    # Spans are labelled by the class that defines a method
    # (benchmarks/tracing.py); binding it here keeps the group algebra's
    # brackets under `algebra.QHAlgebra.bracket`.
    bracket = StructureConstants.bracket

    # -- frame accessors (1-based, matching the usual naming) -------------

    def xi(self, i: int) -> Vector:
        """Vertical frame vector, i in 1..3."""
        return Vector.basis(self.dim, _frame_index("xi", i, 3) - 1)

    def tau(self, l: int) -> Vector:
        """Horizontal frame vector, l in 1..4p."""
        return Vector.basis(self.dim, 2 + _frame_index("tau", l, 4 * self.p))

    def eta(self, i: int) -> KForm:
        return KForm.basis(self.dim, (_frame_index("eta", i, 3) - 1,))

    def theta(self, l: int) -> KForm:
        return KForm.basis(self.dim, (2 + _frame_index("theta", l, 4 * self.p),))

    @property
    def vertical_indices(self) -> tuple[int, ...]:
        return (0, 1, 2)

    @property
    def horizontal_indices(self) -> tuple[int, ...]:
        return tuple(range(3, self.dim))

    def quaternionic_plane(self, r: int) -> tuple[int, int, int, int]:
        """Frame indices of the r-th quaternion copy, r in 1..p."""
        p = self.p
        _frame_index("quaternionic_plane", r, p)
        return (2 + r, 2 + p + r, 2 + 2 * p + r, 2 + 3 * p + r)

    def is_vertical(self, index: int) -> bool:
        return index < 3


def _unit_index(what: str, i: int):
    """Reject an index that names none of the three imaginary units or structures."""
    if i not in (1, 2, 3):
        raise ValueError(f"{what} index must be 1, 2 or 3, got {i}")


def _frame_index(accessor: str, k: int, top: int) -> int:
    """k, checked to lie in 1..top: an index outside it would silently name
    another frame direction or the zero vector."""
    if not 1 <= k <= top:
        raise IndexError(f"{accessor}({k}): index must lie in 1..{top}")
    return k


def build(p: int, lam: int | Fraction | None = None) -> QHAlgebra:
    """Construct the algebra; `lam` is the formal parameter by default.

    Passing a positive int or Fraction specializes the metric parameter.
    """
    if p < 1:
        raise ValueError(f"p must be a positive integer, got {p}")
    if lam is not None:
        if not isinstance(lam, (int, Fraction)):
            raise TypeError(f"metric parameter must be an int or a Fraction, got {type(lam).__name__}")
        if lam <= 0:
            raise ValueError(f"metric parameter must be positive, got {lam}")
    lam_scalar = LAM if lam is None else Scalar(lam)

    dim = 4 * p + 3
    structure: dict[tuple[int, int], Vector] = {}

    def put(a: int, b: int, center: int):
        val = Vector.basis(dim, center - 1).scale(lam_scalar)
        if a < b:
            structure[(a, b)] = val
        else:
            structure[(b, a)] = -val

    def t(l: int) -> int:  # frame index of tau_l
        return 2 + l

    for r in range(1, p + 1):
        put(t(r), t(p + r), 1)
        put(t(2 * p + r), t(3 * p + r), 1)
        put(t(r), t(2 * p + r), 2)
        put(t(3 * p + r), t(p + r), 2)
        put(t(r), t(3 * p + r), 3)
        put(t(p + r), t(2 * p + r), 3)
    return QHAlgebra(p, lam_scalar, structure)


def jacobi_check(sc: StructureConstants) -> tuple[bool, tuple[int, int, int] | None]:
    """Exact Jacobi identity on i < j < k, read from the stored v_ab = [e_a, e_b].

    The sum on (i, j, k) is [v_ij, e_k] + [v_jk, e_i] - [v_ik, e_j].  For one i
    at a time, each v_ij meets every e_c, c > i, c != j, at the sorted triple
    (negated when c < j), and each v_jk, j > i, meets e_i; the least triple
    with a nonzero sum, the lexicographically first, is returned.  [v, e_c]
    depends only on the value of v, keyed by its normal form (den, entries):
    within the call it goes through `sc.bracket` once, zero or not, when a
    stored bracket of that value first needs it, so a full scan makes at most
    |stored| * (n - 2) calls: no double bracket is assumed zero.
    """
    n, bracket = sc.dim, sc.bracket
    basis = [sc.basis_vector(c) for c in range(n)]
    memo: dict = {}  # normal-form (den, entries) of a stored value -> part of [v, e_c] by c
    rows = [[] for _ in range(n)]  # rows[i] = [(j, v_ij, products of its value)]
    for (i, j), v in sc._sc.items():
        _, den, e = v.part
        if e:
            rows[i].append((j, v, memo.setdefault((den, frozenset(e.items())), [None] * n)))
    for i in range(n):
        raw = defaultdict(list)  # (i, j, k) -> raw parts of its sum
        for j, v, products in rows[i]:
            for c in range(i + 1, n):
                if c != j:
                    if products[c] is None:
                        products[c] = bracket(v, basis[c]).part
                    d, den, e = products[c]
                    if e:
                        key = (i, j, c) if c > j else (i, c, j)
                        raw[key].append((d, den if c > j else -den, e))
        for j in range(i + 1, n):
            for k, v, products in rows[j]:
                if products[i] is None:
                    products[i] = bracket(v, basis[i]).part
                d, den, e = products[i]
                if e:
                    raw[i, j, k].append((d, den, e))
        for key in sorted(raw):
            if graded(raw[key])[2]:
                return False, key
    return True, None


def center_dimension(sc: StructureConstants) -> int:
    """Dimension of the center, the exact nullspace of x -> ad(x).

    One row per (e_j, output index k) asks that [x, e_j]_k vanish; the terms
    of (e_j, k) are raw parts over x, and `graded` brings them to one
    denominator.
    """
    raw: dict[tuple[int, int], list] = {}
    for i, row in enumerate(sc._parts):
        for j, (den, entries) in row.items():
            for k, c in entries.items():  # [e_i, e_j]_k = c: x_i c at (j, k)
                raw.setdefault((j, k), []).append((sc.degree, den, {i: c}))
    rows = [e for terms in raw.values() if (e := graded(terms)[2])]
    return len(nullspace(rows, sc.dim))


def two_step_nilpotent(sc: StructureConstants, center: tuple[int, ...]) -> bool:
    """Whether every bracket lies in span(e_k : k in center) and every
    bracket of a bracket vanishes: ad v = 0 for each stored bracket v."""
    brackets = sc._sc.values()
    return all(k in center for v in brackets for k in v.part[2]) and all(
        sc.ad(v).is_zero() for v in brackets
    )


def d_eta_closed_form(alg: QHAlgebra, i: int) -> KForm:
    """d eta_i = -lam sum_r (theta_r ^ theta_{ip+r} + theta_{jp+r} ^ theta_{kp+r})
    for (i, j, k) a cyclic permutation of (1, 2, 3)."""
    p = alg.p
    j, k = (i % 3) + 1, ((i + 1) % 3) + 1
    out = KForm.zero(alg.dim, 2)
    for r in range(1, p + 1):
        out = out + wedge(alg.theta(r), alg.theta(i * p + r))
        out = out + wedge(alg.theta(j * p + r), alg.theta(k * p + r))
    return out.scale(-alg.lam)


def quaternion_brackets_check(alg: QHAlgebra) -> bool:
    """[X, Y] = lam sum_a <I_a X, Y> xi_a on the frame, I_a = quaternion_action(alg, a):
    as d e^k(X, Y) = -[X, Y]_k, the (skew) endomorphism of d e^k is -lam I_{k+1}
    for k < 3 and zero otherwise, so an I_a that is not skew fails."""
    return all(
        two_form_endo(alg.d_basis_one_form(k))
        == (quaternion_action(alg, k + 1).scale(-alg.lam) if k < 3 else Endo.zero(alg.dim))
        for k in range(alg.dim)
    )


@derived
def quaternion_action(alg: QHAlgebra, a: int) -> Endo:
    """Left multiplication by the a-th imaginary unit on each quaternion copy,
    a in 1..3.

    Zero on the vertical directions; the horizontal block of the almost
    contact structures, and the cross-check of the structure constants.
    """
    _unit_index("imaginary unit", a)
    entries = {}
    p = alg.p
    for r in range(1, p + 1):
        plane = alg.quaternionic_plane(r)
        for pos in range(4):
            sign, out = quat_mul(a, pos)
            entries[(plane[out], plane[pos])] = sign
    return Endo(alg.dim, entries)
