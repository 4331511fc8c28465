"""Dimension-7 specialization: the cocalibrated 3-form and spinor fields.

Everything here requires p = 1.  The generic 3-form reproduces the
canonical torsion through the characteristic-torsion formula, its
characteristic connection admits a one-dimensional space of parallel
spinors, and the derived spinor fields satisfy generalized Killing
equations with direction-dependent eigenvalues.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .algebra import QHAlgebra, derived
from .clifford import SPIN_DIM, clifford_matrix, gamma_product, generators, spin_lift, vector_action
from .connections import Connection, levi_civita
from .exterior import (
    Endo,
    KForm,
    Vector,
    _combination,
    _vector,
    ce_differential,
    form_inner,
    hodge_star,
    interior,
    two_form_endo,
    wedge,
)
from .linalg import Part, Row, Span, nullspace
from .scalars import ZERO, Scalar, homogeneous_part, part


def _require_p1(alg: QHAlgebra):
    if alg.p != 1:
        raise ValueError(f"7-dimensional structure needs p = 1, got p = {alg.p}")


def build_omega(alg: QHAlgebra) -> KForm:
    """The generic 3-form of the 7-dimensional group.

    -eta_1^(th_12+th_34) - eta_2^(th_13-th_24) - eta_3^(th_14+th_23) + eta_123,
    where the middle sign follows the orientation of the second
    quaternionic pairing (th_42 = -th_24).
    """
    _require_p1(alg)
    th = alg.theta
    eta = alg.eta
    pair = lambda a, b: wedge(th(a), th(b))
    omega = (
        wedge(eta(1), pair(1, 2) + pair(3, 4)).scale(-1)
        + wedge(eta(2), pair(1, 3) - pair(2, 4)).scale(-1)
        + wedge(eta(3), pair(1, 4) + pair(2, 3)).scale(-1)
        + wedge(wedge(eta(1), eta(2)), eta(3))
    )
    return omega


def cocalibrated_check(alg: QHAlgebra, omega: KForm) -> bool:
    """d(star omega) = 0, exactly."""
    return ce_differential(hodge_star(omega), alg).is_zero()


def characteristic_torsion(alg: QHAlgebra, omega: KForm) -> KForm:
    """(1/6) (d omega, star omega) omega - star d omega."""
    d_omega = ce_differential(omega, alg)
    star_omega = hodge_star(omega)
    pairing = form_inner(d_omega, star_omega)
    return omega.scale(pairing * Fraction(1, 6)) - hodge_star(d_omega)


def hitchin_form(alg: QHAlgebra, omega: KForm) -> list[list[Scalar]]:
    """Matrix B with B(X,Y) vol = (X . omega)^(Y . omega)^omega, for a 3-form.

    Each e_i . omega is built once and each entry for i <= j only: B is
    symmetric because 2-forms commute, a^b = (-1)^(2*2) b^a.  An entry is
    <a^b, star omega>, as a^star c = <a, c> vol and star star = 1 in odd n."""
    if omega.degree != 3:
        raise ValueError("the Hitchin form needs a 3-form")
    n, star = alg.dim, hodge_star(omega)
    x = [interior(alg.basis_vector(i), omega) for i in range(n)]
    b = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            b[i][j] = b[j][i] = form_inner(wedge(x[i], x[j]), star)
    return b


def genericity_check(alg: QHAlgebra, omega: KForm) -> bool:
    """Definiteness (up to overall sign) of the Hitchin form.

    The matrix is l^d times a rational matrix; l^d > 0 keeps definiteness,
    so one Sylvester test at l = 1 decides it for every l > 0.
    """
    b = hitchin_form(alg, omega)
    n = len(b)
    matrix = Endo(n, {(i, j): c for i, row in enumerate(b) for j, c in enumerate(row)})
    _, _, m = homogeneous_part(matrix)
    sign = -1 if m.get((0, 0), 0) < 0 else 1
    return _positive_definite([{j: sign * v for (r, j), v in m.items() if r == i} for i in range(n)])


def _positive_definite(rows: list[Row]) -> bool:
    """Sylvester's criterion from one pass of row insertions.

    While the leading minors det(M_1), .., det(M_k) are positive, the
    first k rows have their pivots at columns 0..k-1, and entry k of
    row k reduced against them is det(M_{k+1}) / det(M_k), det(M_0) = 1,
    times the positive den of the reduced part.
    """
    span = Span(len(rows))
    for k, row in enumerate(rows):
        _, v = span.reduce(row)
        if v.get(k, 0) <= 0:
            return False
        span.add(v)
    return True


class SpinorSplitting:
    """Invariant spinor and the two Clifford-translate subspaces."""

    __slots__ = ("psi0", "vertical", "horizontal")

    def __init__(self, psi0: Vector, vertical: list[Vector], horizontal: list[Vector]):
        self.psi0 = psi0
        self.vertical = vertical
        self.horizontal = horizontal


def parallel_spinor(alg: QHAlgebra, conn: Connection) -> SpinorSplitting:
    """Joint kernel of the lifted connection forms, with its splitting.

    Aborts when the kernel is not one-dimensional, which would signal a
    convention mismatch between the Clifford module and the connection.
    """
    _require_p1(alg)
    rows = []
    for i in range(alg.dim):
        om = conn.form(i)
        if om.is_zero():
            continue
        # one monomial in l: its kernel at l = 1 is its kernel at every l > 0
        _, _, lift = homogeneous_part(spin_lift(alg, om))
        rows.extend({c: v for (r, c), v in lift.items() if r == row} for row in range(8))
    kernel = nullspace(rows, 8)
    if len(kernel) != 1:
        raise ArithmeticError(
            f"joint kernel of the lifted connection is {len(kernel)}-dimensional, "
            "expected 1 (Clifford convention mismatch?)"
        )
    psi0 = _normalize_spinor(kernel[0])
    vertical = [vector_action(alg, alg.xi(i), psi0) for i in (1, 2, 3)]
    horizontal = [vector_action(alg, alg.tau(l), psi0) for l in range(1, 5)]
    return SpinorSplitting(psi0, vertical, horizontal)


def _normalize_spinor(v: Part) -> Vector:
    """The kernel vector as primitive integer components, first nonzero
    positive, divided by its norm whenever that norm is rational."""
    _, e = v
    g = math.gcd(*e.values()) * (1 if e[min(e)] > 0 else -1)
    ints = {k: e[k] // g for k in sorted(e)}
    norm2 = sum(c * c for c in ints.values())
    root = math.isqrt(norm2)
    return _vector(8, part(0, root if root * root == norm2 else 1, ints))


def splitting_dimensions(split: SpinorSplitting) -> tuple[int, int, int]:
    """Dimensions of the three summands (checked to be a direct sum)."""
    span = Span(8)
    dims = []
    for group in ([split.psi0], split.vertical, split.horizontal):
        before = span.dim
        for v in group:
            span.add(homogeneous_part(v)[2])
        dims.append(span.dim - before)
    return tuple(dims)


def splitting_orthogonal(split: SpinorSplitting) -> bool:
    groups = [[split.psi0], split.vertical, split.horizontal]
    for a in range(3):
        for b in range(a + 1, 3):
            for x in groups[a]:
                for y in groups[b]:
                    if not x.dot(y).is_zero():
                        return False
    return True


def torsion_spectrum(alg: QHAlgebra, t: KForm, split: SpinorSplitting) -> dict:
    """Eigenvalues of the Clifford action of t on the three summands.

    Returns None entries when some summand is not an eigenspace.
    """
    tm = clifford_matrix(alg, t)

    def common_eigenvalue(vectors: list[Vector]) -> Scalar | None:
        value = None
        for v in vectors:
            image = tm.apply(v)
            s = _eigen_ratio(image, v)
            if s is None or (value is not None and s != value):
                return None
            value = s
        return value

    return {
        "psi0": common_eigenvalue([split.psi0]),
        "vertical": common_eigenvalue(split.vertical),
        "horizontal": common_eigenvalue(split.horizontal),
        "trace": tm.trace(),
    }


def _eigen_ratio(image: Vector, v: Vector) -> Scalar | None:
    """Scalar s with image = s*v, or None: s = image[k] / v[k] at the least
    index k of v, and one equation between integer parts, s v = image,
    decides every entry.  A zero v gives ZERO for a zero image, else None."""
    if v.is_zero():
        return ZERO if image.is_zero() else None
    k = min(v.part[2])
    s = image[k] / v[k]
    return s if v.scale(s) == image else None


@derived
def levi_civita_lifts(alg: QHAlgebra) -> list[Endo]:
    """The spinor lifts of the Levi-Civita connection forms, one per frame direction."""
    _require_p1(alg)
    return [spin_lift(alg, form) for form in levi_civita(alg).omega]


def generalized_killing_check(alg: QHAlgebra, psi: Vector) -> list[Scalar | None]:
    """Eigenvalue s(e_i) with nabla^g_{e_i} psi = s(e_i) e_i . psi, per direction.

    A None entry means no scalar works in that direction (the spinor is
    not generalized Killing there).
    """
    lifts = levi_civita_lifts(alg)
    return [_eigen_ratio(lift.apply(psi), g.apply(psi)) for lift, g in zip(lifts, generators(alg))]


def invariant_killing_values(alg: QHAlgebra) -> list[Scalar]:
    """Killing eigenvalues of the invariant spinor: lam/2 vertically, -3 lam/4 horizontally."""
    return [alg.lam * Fraction(1, 2)] * 3 + [alg.lam * Fraction(-3, 4)] * (alg.dim - 3)


def translate_killing_check(alg: QHAlgebra, psi0: Vector) -> tuple[bool, set[str]]:
    """Killing eigenvalues of the translates xi_i . psi0: lam/2 along xi_i,
    -lam/2 along the other vertical directions and one horizontal value,
    three distinct values for each translate.  Returns the verdict and the
    horizontal values met, as strings."""
    half = alg.lam * Fraction(1, 2)
    ok, horizontal = True, set()
    for i in (1, 2, 3):
        ki = generalized_killing_check(alg, vector_action(alg, alg.xi(i), psi0))
        horiz = {str(ki[idx]) for idx in alg.horizontal_indices}
        ok = (
            ok
            and ki[:3] == [half if j == i else -half for j in (1, 2, 3)]
            and len(horiz) == 1
            and not any(k is None for k in ki)
            and len({str(k) for k in ki}) == 3
        )
        horizontal |= horiz
    return ok, horizontal


def killing_via_torsion_check(alg: QHAlgebra, t: KForm, psi0: Vector) -> bool:
    """nabla^g_X psi0 = -(1/4)(X . t) psi0 for every frame vector X.

    One pass over the entries of the 3-form t gives every (X . t) psi0: as
    e_a . e^{abc} = e^{bc}, e_b . e^{abc} = -e^{ac} and e_c . e^{abc} = e^{ab},
    v e^{abc} adds v g_b g_c psi0 to direction a, -v g_a g_c psi0 to b and
    v g_a g_b psi0 to c."""
    if t.degree != 3:
        raise ValueError("torsion must be a 3-form")
    terms = [[] for _ in range(alg.dim)]  # direction -> terms of (X . t) psi0
    d, den, e = t.part
    for (a, b, c), v in e.items():
        for x, pair, w in ((a, (b, c), v), (b, (a, c), -v), (c, (a, b), v)):
            terms[x].append((d, den, w, gamma_product(alg, pair).apply(psi0).part))
    return all(
        lift.apply(psi0).scale(-4) == _vector(SPIN_DIM, _combination(x_terms))
        for lift, x_terms in zip(levi_civita_lifts(alg), terms)
    )


def proof_identities_check(alg: QHAlgebra, split: SpinorSplitting) -> bool:
    """The two exact identities behind the generalized Killing equations.

    (X . d eta_i) acts on the invariant spinor as -lam X xi_i for
    horizontal X and as zero for vertical X; and the Leibniz expansion
    of nabla^g_X (xi_i . psi0) matches its direct evaluation.  The vector
    of e_x . d eta_i is column x of the skew endomorphism of d eta_i, that
    of nabla^g_X xi_i column xi_i of Omega^g(X); each acts by `vector_action`.
    """
    lc, lifts, g, psi0 = levi_civita(alg), levi_civita_lifts(alg), generators(alg), split.psi0
    lifted = [lift.apply(psi0) for lift in lifts]  # nabla^g_X psi0
    for i in alg.vertical_indices:
        d_eta = two_form_endo(ce_differential(alg.eta(i + 1), alg))
        xi_psi = g[i].apply(psi0)
        bridge = xi_psi.scale(-alg.lam)
        for x in range(alg.dim):
            bridge_x = g[x].apply(bridge) if x in alg.horizontal_indices else Vector.zero(SPIN_DIM)
            # product rule: nabla^g_X(xi_i psi0) = (nabla^g_X xi_i) psi0 + xi_i nabla^g_X psi0
            leibniz = vector_action(alg, lc.form(x).column(i), psi0) + g[i].apply(lifted[x])
            if vector_action(alg, d_eta.column(x), psi0) != bridge_x or lifts[x].apply(xi_psi) != leibniz:
                return False
    return True
