"""Left-invariant metric connections: curvature, holonomy, reductivity.

A left-invariant connection is the linear map X -> Omega(X) into the
skew endomorphisms, nabla_X Y = Omega(X) Y on invariant fields.  The
Levi-Civita map comes from the Koszul formula; adding half of a torsion
3-form produces the metric connection with that skew torsion.  On
frame-constant tensors nabla_X acts through the natural so(n) action of
Omega(X), which is what all parallelism checks below use.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .algebra import QHAlgebra, StructureConstants, jacobi_check
from .exterior import (
    Endo,
    KForm,
    Vector,
    _sort_tuple,
    form_inner,
    interior,
    two_form_endo,
    wedge,
)
from .linalg import FractionSpan, solve_in_rational_span
from .scalars import ZERO, Scalar


class Connection:
    """Connection form: one skew endomorphism per frame direction."""

    __slots__ = ("omega",)

    def __init__(self, omega: list[Endo]):
        self.omega = list(omega)

    @property
    def dim(self) -> int:
        return len(self.omega)

    def form(self, index: int) -> Endo:
        return self.omega[index]

    def form_of(self, x: Vector) -> Endo:
        out = Endo.zero(self.dim)
        for i, c in enumerate(x):
            if not c.is_zero():
                out = out + self.omega[i].scale(c)
        return out


class CurvatureTensor:
    """R(e_i, e_j) for i < j; antisymmetric in the two arguments."""

    __slots__ = ("dim", "values")

    def __init__(self, dim: int, values: dict[tuple[int, int], Endo]):
        self.dim = dim
        self.values = {k: v for k, v in values.items() if not v.is_zero()}

    def endo(self, i: int, j: int) -> Endo:
        if i == j:
            return Endo.zero(self.dim)
        if i < j:
            return self.values.get((i, j), Endo.zero(self.dim))
        v = self.values.get((j, i))
        return -v if v is not None else Endo.zero(self.dim)

    def lowered(self, i: int, j: int, k: int, l: int) -> Scalar:
        """g(R(e_i, e_j) e_k, e_l)."""
        return self.endo(i, j).entry(l, k)

    def is_zero(self) -> bool:
        return not self.values


def levi_civita(alg: QHAlgebra) -> Connection:
    """Koszul formula on left-invariant fields."""
    n = alg.dim
    half = Fraction(1, 2)
    omega = []
    for i in range(n):
        entries = {}
        for j in range(n):
            bij = alg.bracket_basis(i, j)
            for k in range(n):
                val = bij[k] - alg.bracket_basis(j, k)[i] + alg.bracket_basis(k, i)[j]
                if not val.is_zero():
                    entries[(k, j)] = val * half
        omega.append(Endo(n, entries))
    return Connection(omega)


def with_torsion(alg: QHAlgebra, t: KForm) -> Connection:
    """Metric connection whose totally skew torsion is the 3-form t."""
    if t.degree != 3:
        raise ValueError("torsion must be a 3-form")
    if t.dim != alg.dim:
        raise ValueError("torsion does not live on this algebra")
    lc = levi_civita(alg)
    omega = []
    for i in range(alg.dim):
        correction = two_form_endo(interior(alg.basis_vector(i), t)).scale(Fraction(1, 2))
        omega.append(lc.form(i) + correction)
    return Connection(omega)


def flat_connection(alg: QHAlgebra) -> Connection:
    """The trivial map Omega = 0 (left-invariant parallelization)."""
    return Connection([Endo.zero(alg.dim) for _ in range(alg.dim)])


def canonical_torsion(alg: QHAlgebra) -> KForm:
    """sum_i eta_i ^ d eta_i - 4 lam eta_123."""
    from .exterior import ce_differential

    t = KForm.zero(alg.dim, 3)
    for i in (1, 2, 3):
        t = t + wedge(alg.eta(i), ce_differential(alg.eta(i), alg))
    eta123 = wedge(wedge(alg.eta(1), alg.eta(2)), alg.eta(3))
    return t - eta123.scale(4 * alg.lam)


def canonical_connection(alg: QHAlgebra) -> Connection:
    return with_torsion(alg, canonical_torsion(alg))


def su2_generators(alg: QHAlgebra) -> list[KForm]:
    """The three vertical-rotation 2-forms spanning the holonomy algebra.

    Generator i is -(d eta_i)/lam + 2 eta_j ^ eta_k with the sign pattern
    (+, -, +) on the vertical products for i = 1, 2, 3.
    """
    from .exterior import ce_differential

    eta = [alg.eta(i) for i in (1, 2, 3)]
    vertical = [
        wedge(eta[1], eta[2]),
        wedge(eta[0], eta[2]).scale(-1),
        wedge(eta[0], eta[1]),
    ]
    out = []
    for i in (1, 2, 3):
        h = ce_differential(alg.eta(i), alg).scale(Scalar(-1) / alg.lam)
        out.append(h + vertical[i - 1].scale(2))
    return out


def torsion_tensor(alg: QHAlgebra, conn: Connection) -> dict[tuple[int, int], Vector]:
    """T(e_i, e_j) = Omega(e_i)e_j - Omega(e_j)e_i - [e_i, e_j], for i < j."""
    n = alg.dim
    out = {}
    for i in range(n):
        for j in range(i + 1, n):
            v = (
                conn.form(i).apply(alg.basis_vector(j))
                - conn.form(j).apply(alg.basis_vector(i))
                - alg.bracket_basis(i, j)
            )
            if not v.is_zero():
                out[(i, j)] = v
    return out


def torsion_is_skew(alg: QHAlgebra, conn: Connection) -> bool:
    """Whether the lowered torsion is alternating in all three slots."""
    tor = torsion_tensor(alg, conn)
    for (i, j), v in tor.items():
        for k in range(alg.dim):
            c = v[k]
            if c.is_zero():
                continue
            if k == i or k == j:
                return False
            # compare against the slot-swapped value T(e_i, e_k, e_j)
            a, b = (i, k) if i < k else (k, i)
            w = tor.get((a, b), Vector.zero(alg.dim))
            swapped = w[j] if i < k else -w[j]
            if not (c + swapped).is_zero():
                return False
    return True


def torsion_form(alg: QHAlgebra, conn: Connection) -> KForm:
    """Recover the torsion as a 3-form; raises if it is not totally skew."""
    if not torsion_is_skew(alg, conn):
        raise ValueError("torsion of this connection is not totally skew")
    comps = {}
    for (i, j), v in torsion_tensor(alg, conn).items():
        for k in range(j + 1, alg.dim):
            c = v[k]
            if not c.is_zero():
                comps[(i, j, k)] = c
    return KForm(alg.dim, 3, comps)


def curvature(alg: QHAlgebra, conn: Connection) -> CurvatureTensor:
    """R(X, Y) = [Omega(X), Omega(Y)] - Omega([X, Y])."""
    n = alg.dim
    values = {}
    for i in range(n):
        oi = conn.form(i)
        for j in range(i + 1, n):
            r = oi.commutator(conn.form(j)) - conn.form_of(alg.bracket_basis(i, j))
            if not r.is_zero():
                values[(i, j)] = r
    return CurvatureTensor(n, values)


# -- covariant derivatives of frame-constant tensors -----------------------


def _act_on_form(a: Endo, f: KForm) -> KForm:
    """Natural so(n) action on a k-form: (A.f)(..Y..) = -sum f(..AY..)."""
    comps: dict[tuple[int, ...], Scalar] = {}
    for idx, c in f.comps.items():
        for t, i in enumerate(idx):
            # A acts on the dual basis by A.e^i = -sum_b A[i,b] e^b
            for (r, b), v in a.m.items():
                if r != i:
                    continue
                sign, key = _sort_tuple(idx[:t] + (b,) + idx[t + 1 :])
                if sign == 0:
                    continue
                term = c * v
                cur = comps.get(key, ZERO) - (term if sign > 0 else -term)
                if cur.is_zero():
                    comps.pop(key, None)
                else:
                    comps[key] = cur
    out = KForm.__new__(KForm)
    out.dim, out.degree, out.comps = f.dim, f.degree, comps
    return out


def nabla_tensor(conn: Connection, tensor):
    """Covariant derivative per frame direction of a frame-constant tensor.

    Supports KForm, Endo, Vector and CurvatureTensor values.
    """
    out = []
    for i in range(conn.dim):
        a = conn.form(i)
        if isinstance(tensor, KForm):
            out.append(_act_on_form(a, tensor))
        elif isinstance(tensor, Endo):
            out.append(a.commutator(tensor))
        elif isinstance(tensor, Vector):
            out.append(a.apply(tensor))
        elif isinstance(tensor, CurvatureTensor):
            out.append(_nabla_curvature(conn, tensor, a))
        else:
            raise TypeError(f"cannot differentiate {type(tensor).__name__}")
    return out


def _nabla_curvature(conn: Connection, r: CurvatureTensor, a: Endo) -> CurvatureTensor:
    n = r.dim
    values = {}
    for i in range(n):
        for j in range(i + 1, n):
            d = a.commutator(r.endo(i, j))
            # argument slots: -R(A e_i, e_j) - R(e_i, A e_j)
            for (row, col), v in a.m.items():
                if col == i:
                    d = d - r.endo(row, j).scale(v)
                if col == j:
                    d = d - r.endo(i, row).scale(v)
            if not d.is_zero():
                values[(i, j)] = d
    return CurvatureTensor(n, values)


def is_parallel(conn: Connection, tensor) -> bool:
    for d in nabla_tensor(conn, tensor):
        if isinstance(d, CurvatureTensor):
            if not d.is_zero():
                return False
        elif not d.is_zero():
            return False
    return True


# -- curvature contractions -------------------------------------------------


def ricci(alg: QHAlgebra, conn: Connection) -> Endo:
    """Ric(X, Y) = sum_i g(R(e_i, X) Y, e_i)."""
    n = alg.dim
    r = curvature(alg, conn)
    entries = {}
    for a in range(n):
        for b in range(n):
            s = ZERO
            for i in range(n):
                s = s + r.lowered(i, a, b, i)
            if not s.is_zero():
                entries[(a, b)] = s
    return Endo(n, entries)


def scalar_curvatures(alg: QHAlgebra, conn: Connection) -> tuple[Scalar, Scalar]:
    """(scalar curvature of conn, Riemannian scalar curvature)."""
    s_conn = ricci(alg, conn).trace()
    s_g = ricci(alg, levi_civita(alg)).trace()
    return s_conn, s_g


# -- holonomy ----------------------------------------------------------------


def _flatten(e: Endo, value: Fraction) -> list[Fraction]:
    flat = [Fraction(0)] * (e.dim * e.dim)
    for (r, c), v in e.m.items():
        flat[r * e.dim + c] = v.specialize(value)
    return flat


def _specialize_endo(e: Endo, value: Fraction) -> Endo:
    return Endo(e.dim, {k: Scalar(v.specialize(value)) for k, v in e.m.items()})


def holonomy(alg: QHAlgebra, conn: Connection) -> list[Endo]:
    """Ambrose-Singer closure: curvature endomorphisms, closed under
    bracketing with the connection forms and among themselves.

    Rank bookkeeping runs over specialized rationals; for a formal
    metric parameter the dimension is re-checked at a second value.
    """
    if alg.lam.is_rational():
        values = [alg.lam.rational_value()]
    else:
        values = [Fraction(1), Fraction(2)]

    basis = _holonomy_at(alg, conn, values[0])
    for v in values[1:]:
        other = _holonomy_at(alg, conn, v)
        if len(other) != len(basis):
            raise ArithmeticError(
                "holonomy dimension depends on the metric parameter: "
                f"{len(basis)} at {values[0]} vs {len(other)} at {v}"
            )
    return basis


def _holonomy_at(alg: QHAlgebra, conn: Connection, value: Fraction) -> list[Endo]:
    n = alg.dim
    max_dim = n * (n - 1) // 2
    span = FractionSpan(n * n)
    members: list[Endo] = []

    def push(e: Endo) -> bool:
        if e.is_zero():
            return False
        if span.add(_flatten(e, value)):
            members.append(_specialize_endo(e, value))
            return True
        return False

    r = curvature(alg, conn)
    for e in r.values.values():
        push(e)

    omegas = [_specialize_endo(conn.form(i), value) for i in range(n)]
    frontier = list(members)
    while frontier:
        if span.dim > max_dim:
            raise ArithmeticError("holonomy closure exceeded so(n)")
        fresh: list[Endo] = []
        for h in frontier:
            for o in omegas:
                if o.is_zero():
                    continue
                c = o.commutator(h)
                if push(c):
                    fresh.append(members[-1])
            for other in members:
                c = other.commutator(h)
                if push(c):
                    fresh.append(members[-1])
        frontier = fresh
    return members


def invariant_subspace(basis: list[Endo], indices: tuple[int, ...]) -> bool:
    """Whether span(e_i : i in indices) is preserved by every endo."""
    inside = set(indices)
    for e in basis:
        for (r, c), v in e.m.items():
            if c in inside and r not in inside and not v.is_zero():
                return False
    return True


def vertical_action_irreducible(alg: QHAlgebra, basis: list[Endo]) -> bool:
    """Irreducibility of the holonomy action on the 3-dim vertical space.

    Skew endomorphisms have no nonzero real eigenvalues, so an invariant
    line would lie in the joint kernel, and in dimension three invariant
    planes are orthogonal complements of invariant lines.  Hence the
    action is irreducible iff the joint kernel within the vertical space
    is zero.
    """
    if not invariant_subspace(basis, alg.vertical_indices):
        return False
    rows = []
    for e in basis:
        for r in alg.vertical_indices:
            row = []
            for c in alg.vertical_indices:
                row.append(e.entry(r, c).specialize(Fraction(1)))
            rows.append(row)
    span = FractionSpan(3)
    for row in rows:
        span.add(row)
    return span.dim == 3  # zero joint kernel


# -- natural reductivity ------------------------------------------------------


def transvection_algebra(alg: QHAlgebra, conn: Connection):
    """The homogeneous algebra hol + m as one structure-constant table.

    hol takes the indices 0..h-1 of the holonomy basis, m the indices
    h..h+n-1 of the frame.  The brackets are [A, B] in holonomy
    coordinates, [A, e_i] = A e_i and [e_i, e_j] = (-R(e_i, e_j),
    -T(e_i, e_j)).  Requires totally skew, parallel torsion and parallel
    curvature; returns (table, None), or (None, witness) otherwise.
    """
    try:
        t3 = torsion_form(alg, conn)
    except ValueError:
        return None, ("torsion not totally skew",)
    if not is_parallel(conn, t3):
        return None, ("torsion not parallel",)
    r = curvature(alg, conn)
    if not is_parallel(conn, r):
        return None, ("curvature not parallel",)

    hol = holonomy(alg, conn)
    h = len(hol)
    n = alg.dim
    flat_hol = [_flatten(e, Fraction(1)) for e in hol]

    def hol_coords(e: Endo) -> list[Scalar] | None:
        target = [ZERO] * (n * n)
        for (rr, cc), v in e.m.items():
            target[rr * n + cc] = v
        return solve_in_rational_span(flat_hol, target)

    table: dict[tuple[int, int], Vector] = {}

    def put(x: int, y: int, coords: list[Scalar], v: Vector):
        w = Vector(list(coords) + list(v))
        if not w.is_zero():
            table[(x, y)] = w

    for a, b in combinations(range(h), 2):
        coords = hol_coords(hol[a].commutator(hol[b]))
        if coords is None:
            return None, ("holonomy not closed under bracket", a, b)
        put(a, b, coords, Vector.zero(n))
    for a in range(h):
        for i in range(n):
            put(a, h + i, [ZERO] * h, hol[a].column(i))
    tor = torsion_tensor(alg, conn)
    for i, j in combinations(range(n), 2):
        coords = hol_coords(-r.endo(i, j))
        if coords is None:
            return None, ("curvature outside holonomy span", i, j)
        put(h + i, h + j, coords, -tor.get((i, j), Vector.zero(n)))
    return StructureConstants(h + n, table), None


def transvection_check(alg: QHAlgebra, conn: Connection):
    """Rebuild hol + m and test it exactly.

    Checks the Jacobi identity of the rebuilt table and the reductivity
    condition <[X,Y]_m, Z> + <Y, [X,Z]_m> = 0 on all frame triples.
    """
    table, witness = transvection_algebra(alg, conn)
    if table is None:
        return False, witness
    ok, triple = jacobi_check(table)
    if not ok:
        return False, ("jacobi failure", *triple)

    h = table.dim - alg.dim
    for i in range(alg.dim):
        for j in range(alg.dim):
            if i == j:
                continue
            vij = table.bracket_basis(h + i, h + j)
            for k in range(alg.dim):
                if k == i:
                    continue
                vik = table.bracket_basis(h + i, h + k)
                if not (vij[h + k] + vik[h + j]).is_zero():
                    return False, ("reductivity failure", i, j, k)
    return True, None


# -- Bianchi identity ---------------------------------------------------------


def first_bianchi_check(alg: QHAlgebra, conn: Connection) -> bool:
    """Cyclic curvature sum against the skew-torsion Bianchi identity.

    For a metric connection with totally skew torsion T:
    cyclic R(X,Y,Z,V) = dT(X,Y,Z,V) - cyclic <T(X,Y), T(Z,V)> + (nabla_V T)(X,Y,Z).
    """
    from .exterior import ce_differential

    n = alg.dim
    t3 = torsion_form(alg, conn)
    r = curvature(alg, conn)
    dt = ce_differential(t3, alg)
    nt = nabla_tensor(conn, t3)

    def t_pair(x, y, z, v) -> Scalar:
        out = ZERO
        for k in range(n):
            out = out + t3.coeff((x, y, k)) * t3.coeff((z, v, k))
        return out

    for x in range(n):
        for y in range(x + 1, n):
            for z in range(y + 1, n):
                for v in range(n):
                    lhs = (
                        r.lowered(x, y, z, v)
                        + r.lowered(y, z, x, v)
                        + r.lowered(z, x, y, v)
                    )
                    rhs = (
                        dt.coeff((x, y, z, v))
                        - (t_pair(x, y, z, v) + t_pair(y, z, x, v) + t_pair(z, x, y, v))
                        + nt[v].coeff((x, y, z))
                    )
                    if not (lhs - rhs).is_zero():
                        return False
    return True


def torsion_norm_squared(alg: QHAlgebra, t: KForm) -> Scalar:
    return form_inner(t, t)
