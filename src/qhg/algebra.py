"""The quaternionic Heisenberg Lie algebra of dimension 4p+3.

Frame layout shared by every module: positions 0..2 carry the vertical
(central) directions xi_1, xi_2, xi_3, positions 3..4p+2 the horizontal
directions tau_1..tau_4p, grouped as p quaternion copies (1, i, j, k) =
(tau_r, tau_{p+r}, tau_{2p+r}, tau_{3p+r}).  The frame is orthonormal
for the metric; its parameter enters through the brackets
[tau_r, tau_{p+r}] = lam * xi_1 and cyclic relatives.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .exterior import KForm, Vector
from .linalg import nullspace
from .scalars import LAM, Scalar

# quaternion unit table (1, i, j, k): _QUAT[a][b] = (sign, index of a*b)
_QUAT = [
    [(1, 0), (1, 1), (1, 2), (1, 3)],
    [(1, 1), (-1, 0), (1, 3), (-1, 2)],
    [(1, 2), (-1, 3), (-1, 0), (1, 1)],
    [(1, 3), (1, 2), (-1, 1), (-1, 0)],
]


def quat_mul(a: int, b: int) -> tuple[int, int]:
    return _QUAT[a][b]


class StructureConstants:
    """Sparse Lie bracket table on the basis e_0..e_{dim-1}.

    `structure` maps (i, j) with i < j to the nonzero brackets [e_i, e_j].
    """

    def __init__(self, dim: int, structure: dict[tuple[int, int], Vector]):
        self.dim = dim
        self._sc = structure
        # _rows[i][j] = [e_i, e_j] for every nonzero bracket, both orders
        self._rows: list[dict[int, Vector]] = [{} for _ in range(dim)]
        for (i, j), v in structure.items():
            self._rows[i][j] = v
            self._rows[j][i] = -v
        self._d1: list[KForm | None] = [None] * dim

    def basis_vector(self, index: int) -> Vector:
        return Vector.basis(self.dim, index)

    def bracket_basis(self, i: int, j: int) -> Vector:
        v = self._rows[i].get(j)
        return v if v is not None else Vector.zero(self.dim)

    def bracket(self, x: Vector, y: Vector) -> Vector:
        """Bilinear extension over the nonzero components of x."""
        out = Vector.zero(self.dim)
        for i, xi in enumerate(x):
            if xi.is_zero():
                continue
            for j, v in self._rows[i].items():
                c = xi * y[j]
                if not c.is_zero():
                    out = out + v.scale(c)
        return out

    def d_basis_one_form(self, index: int) -> KForm:
        """Chevalley-Eilenberg differential of the index-th basis 1-form."""
        cached = self._d1[index]
        if cached is None:
            comps = {}
            for (i, j), v in self._sc.items():
                c = v[index]
                if not c.is_zero():
                    comps[(i, j)] = -c
            cached = KForm(self.dim, 2, comps)
            self._d1[index] = cached
        return cached


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
        return Vector.basis(self.dim, i - 1)

    def tau(self, l: int) -> Vector:
        """Horizontal frame vector, l in 1..4p."""
        return Vector.basis(self.dim, 2 + l)

    def eta(self, i: int) -> KForm:
        return KForm.basis(self.dim, (i - 1,))

    def theta(self, l: int) -> KForm:
        return KForm.basis(self.dim, (2 + l,))

    @property
    def vertical_indices(self) -> tuple[int, ...]:
        return (0, 1, 2)

    @property
    def horizontal_indices(self) -> tuple[int, ...]:
        return tuple(range(3, self.dim))

    def quaternionic_plane(self, r: int) -> tuple[int, int, int, int]:
        """Frame indices of the r-th quaternion copy, r in 1..p."""
        p = self.p
        return (2 + r, 2 + p + r, 2 + 2 * p + r, 2 + 3 * p + r)

    def is_vertical(self, index: int) -> bool:
        return index < 3

    def metric(self, x: Vector, y: Vector) -> Scalar:
        return x.dot(y)


def build(p: int, lam=None) -> QHAlgebra:
    """Construct the algebra; `lam` is the formal parameter by default.

    Passing a positive rational specializes the metric parameter.
    """
    if p < 1:
        raise ValueError(f"p must be a positive integer, got {p}")
    if lam is None:
        lam_scalar = LAM
    elif isinstance(lam, Scalar):
        if not lam.is_monomial():
            raise ValueError("metric parameter must be a monomial")
        lam_scalar = lam
    else:
        q = Fraction(lam)
        if q <= 0:
            raise ValueError("metric parameter must be positive")
        lam_scalar = Scalar(q)

    dim = 4 * p + 3
    structure: dict[tuple[int, int], Vector] = {}

    def put(a: int, b: int, center: int):
        val = Vector([lam_scalar if k == center - 1 else 0 for k in range(dim)])
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
    """Exact Jacobi identity over all basis triples i < j < k.

    Returns the lexicographically first triple with a nonzero cyclic sum.
    A sum runs only over the nonzero brackets among its three vectors.
    """
    for i, j, k in combinations(range(sc.dim), 3):
        total = None
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            v = sc._rows[a].get(b)
            if v is not None:
                term = sc.bracket(v, sc.basis_vector(c))
                total = term if total is None else total + term
        if total is not None and not total.is_zero():
            return False, (i, j, k)
    return True, None


def center_dimension(sc: StructureConstants) -> int:
    """Dimension of the center, the exact nullspace of x -> ad(x).

    One row per (e_j, output index k, parameter power e) asks that the
    coefficient of lam^e in [x, e_j]_k vanish.
    """
    n = sc.dim
    rows: dict[tuple[int, int, int], list[Fraction]] = {}
    for (i, j), v in sc._sc.items():
        for k, c in enumerate(v):
            for e, q in c.terms():
                rows.setdefault((j, k, e), [Fraction(0)] * n)[i] += q
                rows.setdefault((i, k, e), [Fraction(0)] * n)[j] -= q
    return len(nullspace(list(rows.values()), n))


def quaternion_action(alg: QHAlgebra, a: int):
    """Left multiplication by the a-th imaginary unit on each quaternion copy.

    Zero on the vertical directions; used to cross-check the structure
    constants against quaternion algebra.
    """
    from .exterior import Endo

    entries = {}
    p = alg.p
    for r in range(1, p + 1):
        plane = alg.quaternionic_plane(r)
        for pos in range(4):
            sign, out = quat_mul(a, pos)
            entries[(plane[out], plane[pos])] = sign
    return Endo(alg.dim, entries)
