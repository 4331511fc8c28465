"""Almost 3-contact structures and the quaternionic contact structure.

The three almost contact structures act on each quaternion copy by left
multiplication with the imaginary units and rotate the two complementary
vertical directions.  Their restrictions to the horizontal space give
the complex structures of the qc structure; the canonical connection
preserves all of it, and among metric connections with totally skew
torsion it is the only one that does.  Preservation is decided by one
tensor equation per connection form, the Reeb equation of `_qc_defect`,
which implies the splitting and the I (x) I equation.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm

from .algebra import QHAlgebra, _unit_index, derived, quaternion_action
from .connections import (
    Connection,
    Geometry,
    flat_connection,
    is_parallel,
    levi_civita,
    with_torsion,
)
from .exterior import (
    Endo,
    KForm,
    Vector,
    _product,
    _sort_tuple,
    ce_differential,
    two_form_endo,
    wedge,
)
from .linalg import rref, solve
from .scalars import ONE, Scalar, accumulate, graded, homogeneous_at_one


class AlmostContact:
    """One almost contact structure: endomorphism, Reeb vector, 1-form."""

    __slots__ = ("phi", "xi", "eta", "index")

    def __init__(self, phi: Endo, xi: Vector, eta: KForm, index: int):
        self.phi = phi
        self.xi = xi
        self.eta = eta
        self.index = index


@derived
def build_phi(alg: QHAlgebra, i: int, inconsistent_variant: bool = False) -> AlmostContact:
    """The i-th almost contact structure, i in {1, 2, 3}.

    Horizontally it is left multiplication by the i-th imaginary unit on
    each quaternion copy; vertically it rotates the other two Reeb
    directions.  `inconsistent_variant` (i = 2 only) swaps one horizontal
    coefficient to the quaternionically wrong slot; the compatibility
    equations reject it, which pins the consistent tensor.
    """
    _unit_index("structure", i)
    entries = dict(quaternion_action(alg, i).m)
    j, k = ((i % 3) + 1, ((i + 1) % 3) + 1)
    entries[(k - 1, j - 1)] = 1  # eta_j (x) xi_k
    entries[(j - 1, k - 1)] = -1  # -eta_k (x) xi_j
    if inconsistent_variant:
        if i != 2:
            raise ValueError("the inconsistent variant is defined for i = 2 only")
        for r in range(1, alg.p + 1):
            plane = alg.quaternionic_plane(r)
            # replace -theta_{p+r} (x) tau_{3p+r} by -theta_r (x) tau_{3p+r}
            del entries[(plane[3], plane[1])]
            accumulate(entries, (plane[3], plane[0]), -1)
    return AlmostContact(Endo(alg.dim, entries), alg.xi(i), alg.eta(i), i)


def almost_contact_axioms(alg: QHAlgebra, ac: AlmostContact) -> bool:
    """phi^2 = -Id + eta (x) xi, phi xi = 0, eta o phi = 0, eta(xi) = 1,
    and metric compatibility g(phi X, phi Y) = g(X, Y) - eta(X) eta(Y)."""
    n = alg.dim
    phi2 = ac.phi.compose(ac.phi)
    expected = Endo.identity(n).scale(-1) + _outer(ac.xi, ac.eta, n)
    if phi2 != expected:
        return False
    if not ac.phi.apply(ac.xi).is_zero():
        return False
    for idx in range(n):
        col = ac.phi.column(idx)
        if not ac.eta.evaluate(col).is_zero():
            return False
    if ac.eta.evaluate(ac.xi) != ONE:
        return False
    for a in range(n):
        pa = ac.phi.column(a)
        ea = alg.basis_vector(a)
        for b in range(a, n):
            pb = ac.phi.column(b)
            eb = alg.basis_vector(b)
            lhs = pa.dot(pb)
            rhs = ea.dot(eb) - ac.eta.evaluate(ea) * ac.eta.evaluate(eb)
            if lhs != rhs:
                return False
    return True


def _outer(v: Vector, form: KForm, n: int) -> Endo:
    entries = {}
    for b in range(n):
        c = form.coeff((b,))
        if c.is_zero():
            continue
        for a in range(n):
            if not v[a].is_zero():
                entries[(a, b)] = v[a] * c
    return Endo(n, entries)


def compatibility_check(alg: QHAlgebra, phis: list[AlmostContact] | None = None):
    """Quaternionic compatibility of the triple, with a witness on failure.

    phi_i = phi_j phi_k - eta_k (x) xi_j = -phi_k phi_j + eta_j (x) xi_k
    for (i,j,k) = (1,2,3) and cyclic permutations.
    """
    if phis is None:
        phis = [build_phi(alg, i) for i in (1, 2, 3)]
    n = alg.dim
    by_index = {ac.index: ac for ac in phis}
    for i, j, k in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        pi, pj, pk = by_index[i], by_index[j], by_index[k]
        first = pj.phi.compose(pk.phi) - _outer(pj.xi, pk.eta, n)
        if first != pi.phi:
            return False, ("first identity", i)
        second = pk.phi.compose(pj.phi).scale(-1) + _outer(pk.xi, pj.eta, n)
        if second != pi.phi:
            return False, ("second identity", i)
    return True, None


def nijenhuis_defect(alg: QHAlgebra, ac: AlmostContact, x: Vector, y: Vector) -> Vector:
    """N(X,Y) = phi^2[X,Y] + [phiX,phiY] - phi[phiX,Y] - phi[X,phiY] + d eta(X,Y) xi."""
    phi = ac.phi
    px, py = phi.apply(x), phi.apply(y)
    out = (
        phi.apply(phi.apply(alg.bracket(x, y)))
        + alg.bracket(px, py)
        - phi.apply(alg.bracket(px, y))
        - phi.apply(alg.bracket(x, py))
    )
    d_eta = ce_differential(ac.eta, alg)
    return out + ac.xi.scale(d_eta.evaluate(x, y))


def normality_check(alg: QHAlgebra, i: int, ac: AlmostContact | None = None) -> bool:
    if ac is None:
        ac = build_phi(alg, i)
    n = alg.dim
    for a in range(n):
        ea = alg.basis_vector(a)
        for b in range(a + 1, n):
            if not nijenhuis_defect(alg, ac, ea, alg.basis_vector(b)).is_zero():
                return False
    return True


def fundamental_form(alg: QHAlgebra, ac: AlmostContact) -> KForm:
    """F(X, Y) = g(X, phi Y)."""
    comps = {}
    for a in range(alg.dim):
        for b in range(a + 1, alg.dim):
            c = ac.phi.entry(a, b)
            if not c.is_zero():
                comps[(a, b)] = c
    return KForm(alg.dim, 2, comps)


def quasi_sasaki_check(alg: QHAlgebra, i: int) -> bool:
    """A closed fundamental 2-form together with normality; the closedness
    test is the cheaper one, so it runs first."""
    ac = build_phi(alg, i)
    if not ce_differential(fundamental_form(alg, ac), alg).is_zero():
        return False
    return normality_check(alg, i, ac)


@derived
def contact_characteristic_torsion(alg: QHAlgebra, i: int) -> KForm:
    """eta_i ^ d eta_i - sum_{j != i} eta_j ^ d eta_j (dimension 7 only)."""
    if alg.p != 1:
        raise ValueError("characteristic torsion is implemented for p = 1 only")
    _unit_index("structure", i)
    out = KForm.zero(alg.dim, 3)
    for j in (1, 2, 3):
        term = wedge(alg.eta(j), ce_differential(alg.eta(j), alg))
        out = out + (term if j == i else term.scale(-1))
    return out


@derived
def characteristic_connection(alg: QHAlgebra, i: int) -> Connection:
    """The connection making the i-th structure parallel, via its torsion."""
    return with_torsion(alg, contact_characteristic_torsion(alg, i))


def characteristic_connections_check(alg: QHAlgebra) -> bool:
    """Each structure is parallel for its own characteristic connection,
    the first two connections differ, and the first is not adapted to the
    second structure (dimension 7 only)."""
    phis = [build_phi(alg, i) for i in (1, 2, 3)]
    conns = [characteristic_connection(alg, i) for i in (1, 2, 3)]
    own = all(
        is_parallel(c, ac.phi) and is_parallel(c, ac.eta) and is_parallel(c, ac.xi)
        for c, ac in zip(conns, phis)
    )
    distinct = contact_characteristic_torsion(alg, 1) != contact_characteristic_torsion(alg, 2)
    return own and distinct and not is_parallel(conns[0], phis[1].phi)


# -- quaternionic contact structure -----------------------------------------


class QcStructure:
    __slots__ = ("complex_structures", "one_forms", "reeb")

    def __init__(self, complex_structures: list[Endo], one_forms: list[KForm], reeb: list[Vector]):
        self.complex_structures = complex_structures
        self.one_forms = one_forms
        self.reeb = reeb


@derived
def build_qc(alg: QHAlgebra) -> QcStructure:
    """Complex structures I_i = phi_i restricted to the horizontal space,
    1-forms -(2/lam) eta_i and Reeb fields -(lam/2) xi_i."""
    complex_structures = []
    for i in (1, 2, 3):
        phi = build_phi(alg, i).phi
        entries = {
            (r, c): v
            for (r, c), v in phi.m.items()
            if not alg.is_vertical(r) and not alg.is_vertical(c)
        }
        complex_structures.append(Endo(alg.dim, entries))
    scale = Scalar(-2) / alg.lam
    one_forms = [alg.eta(i).scale(scale) for i in (1, 2, 3)]
    reeb = [alg.xi(i).scale(alg.lam * Fraction(-1, 2)) for i in (1, 2, 3)]
    return QcStructure(complex_structures, one_forms, reeb)


def qc_axioms_check(alg: QHAlgebra, qc: QcStructure) -> bool:
    """Quaternion relations on the horizontal space, kernel property of
    the 1-forms, and the two differential identities of the 1-forms."""
    n = alg.dim
    i1, i2, i3 = qc.complex_structures
    prod = i1.compose(i2).compose(i3)
    for idx in alg.horizontal_indices:
        e = alg.basis_vector(idx)
        if prod.apply(e) != -e:
            return False
        for f in qc.one_forms:
            if not f.evaluate(e).is_zero():
                return False
    for idx in alg.vertical_indices:
        if all(qc.one_forms[j].evaluate(alg.basis_vector(idx)).is_zero() for j in range(3)):
            return False  # the joint kernel must be exactly horizontal
    for j in range(3):
        d_form = ce_differential(qc.one_forms[j], alg)
        for a in alg.horizontal_indices:
            ea = alg.basis_vector(a)
            for b in alg.horizontal_indices:
                eb = alg.basis_vector(b)
                lhs = d_form.evaluate(ea, eb)
                rhs = qc.complex_structures[j].apply(ea).dot(eb) * 2
                if lhs != rhs:
                    return False
        for k in range(3):
            d_other = ce_differential(qc.one_forms[k], alg)
            for a in alg.horizontal_indices:
                ea = alg.basis_vector(a)
                lhs = d_form.evaluate(qc.reeb[k], ea)
                rhs = d_other.evaluate(qc.reeb[j], ea)
                if not (lhs + rhs).is_zero():
                    return False
    return True


def _qc_defect(alg: QHAlgebra, qc: QcStructure, a: Endo) -> dict:
    """Graded parts of the Reeb tensor sum_i (A xi_i) (x) I_i + xi_i (x) [A, I_i]
    at keys (s, c, d), with the common factor -lam/2 of the Reeb fields dropped.

    The result has no part exactly when the connection form A preserves the
    qc structure: the V + H splitting, sum_i I_i (x) I_i and this tensor.
    The one equation implies the other two for every A, skew or not:

    1. Its entries with s horizontal read sum_i (A xi_i)_s I_i = 0, since
       each xi_i is vertical.  The I_i are linearly independent, so A maps
       V into V.
    2. With s = xi_j they read [A, I_j] = -sum_i (A xi_i)_j I_i, a
       combination of the I_i.  Each I_i vanishes on V and keeps H, so the
       block of [A, I_j] mapping H to V is A_VH I_j, with A_VH that block
       of A, while that of every I_i is 0.  I_j is invertible on H, hence
       A_VH = 0 and A maps H into H.
    3. ad_A therefore maps span(I_1, I_2, I_3), a Lie algebra isomorphic to
       sp(1), into itself, as a derivation (the Jacobi identity).  Every
       derivation of sp(1) is inner, so [A, I_j] = sum_i c_ij I_i with c
       skew, and sum_j [A, I_j] (x) I_j + I_j (x) [A, I_j]
       = sum_ij (c_ij + c_ji) I_i (x) I_j = 0.

    The premises are the quaternion relations I_i^2 = -1 and
    I_i I_j = I_k = -I_j I_i on H for (i, j, k) cyclic, certified by
    `almost_contact_axioms`, `compatibility_check` and `qc_axioms_check`
    (the contact.axioms, contact.compatibility and qc.axioms rows of the
    report); and, by construction, that each I_i is phi_i cut to H x H and
    that xi_1, xi_2, xi_3 are the vertical basis vectors.  Only the nonzero
    entries of A, of the I_i and of the commutators are read.
    """

    def reeb_first(v: dict, e: dict) -> dict:
        acc: dict = {}
        for s, u in v.items():
            for cd, w in e.items():
                accumulate(acc, (s, *cd), u * w)
        return acc

    raw = []
    for i, e in enumerate(qc.complex_structures, start=1):
        xi = alg.xi(i)
        for x, y in ((a.apply(xi), e), (xi, a.commutator(e))):
            raw += [(d, den, t) for d, (den, t) in _product(x.parts, y.parts, reeb_first).items()]
    return graded(raw)


def qc_preservation_check(alg: QHAlgebra, conn: Connection) -> bool:
    """Whether the connection preserves the qc structure: the V + H
    splitting, sum_i I_i (x) I_i and sum_i reeb_i (x) I_i.  Each form
    A = conn.form(x) is tested by the Reeb equation alone, which implies
    the other two (see `_qc_defect`)."""
    qc = build_qc(alg)
    return not any(_qc_defect(alg, qc, conn.form(x)) for x in range(alg.dim))


def flat_connection_check(alg: QHAlgebra) -> bool:
    """The flat connection preserves the qc structure, has zero curvature
    and holonomy, and its torsion is not totally skew."""
    flat = Geometry(alg, flat_connection(alg))
    return (
        qc_preservation_check(alg, flat.conn)
        and flat.curvature.is_zero()
        and len(flat.holonomy) == 0
        and flat.torsion_form is None
    )


def _qc_functionals(alg: QHAlgebra, qc: QcStructure) -> list[dict[int, int]]:
    """Linear functionals on the skew forms sum_k c_k B_k whose common kernel
    is the qc-preserving forms, one distinct sparse integer row per equation.

    B_k runs over the 2-forms e_a ^ e_b, a < b; each row is the transpose of
    `_qc_defect` at one key and degree, times the lcm of the defects'
    denominators (1 here), and exact duplicate rows are dropped.
    """
    n = alg.dim
    skew_basis = list(combinations(range(n), 2))
    rows: dict[tuple, dict[int, int]] = {}
    common = 1
    for k, ab in enumerate(skew_basis):
        b_k = two_form_endo(KForm.basis(n, ab))
        for d, (den, entries) in _qc_defect(alg, qc, b_k).items():
            if common % den:  # exact for any den; b_k and the I_i are integral, so here den is 1
                f = lcm(common, den) // common
                common *= f
                rows = {key: {j: v * f for j, v in row.items()} for key, row in rows.items()}
            f = common // den
            for key, v in entries.items():
                rows.setdefault((d, key), {})[k] = v * f
    distinct = {tuple(sorted(row.items())) for row in rows.values()}
    return [dict(items) for items in sorted(distinct)]


def qc_unique_skew(alg: QHAlgebra):
    """Solve for all 3-form torsions whose connection preserves the qc
    structure; returns (solution dimension, torsion or None).

    Each connection form, the Levi-Civita form plus half the torsion's
    contraction, must satisfy the Reeb equation of `_qc_defect`, which
    also forces the splitting and the I (x) I equation.  The solution
    dimension is 1 + (kernel dimension) when the affine system is
    solvable, so 1 means unique; 0 means no solution.
    """
    n = alg.dim
    skew_basis = list(combinations(range(n), 2))
    functionals = _qc_functionals(alg, build_qc(alg))
    reduced, _ = rref(functionals, len(skew_basis))

    # unknowns: components of the torsion 3-form; the form at x is the
    # Levi-Civita form plus (1/2) x . T, whose (a, b) coordinate is T_xab / 2.
    # The Koszul coefficients are l^d times rationals, so T = l^d T_1 with
    # T_1 solving the system at l = 1.
    triples = list(combinations(range(n), 3))
    t_index = {t: i for i, t in enumerate(triples)}
    lc = levi_civita(alg)
    forms = [lc.form(x).parts for x in range(n)]
    if len({d for parts in forms for d in parts}) > 1:  # names the first index of another degree
        entries = {(x, *rc): v for x in range(n) for rc, v in lc.form(x).m.items()}
        homogeneous_at_one(entries, "Levi-Civita forms")
    d = next((d for parts in forms for d in parts), None)

    # the row of form x and functional f, times 2 den_x:
    # sum_k f_k sign den_x T_(x a b) = -2 sum_k f_k koszul_x(b, a)
    dens = [lcm(*(c.denominator for c in f.values())) for f in reduced]  # f * den is primitive
    primitive = [{k: c.numerator * (m // c.denominator) for k, c in f.items()}
                 for f, m in zip(reduced, dens)]
    sys_rows: list[dict[int, int]] = []
    sys_rhs: list[int] = []
    for x in range(n):
        den_x, koszul = forms[x].get(d, (1, {}))
        for functional in primitive:
            rhs = 0
            row: dict[int, int] = {}
            for k, coeff in functional.items():
                a, b = skew_basis[k]
                rhs -= 2 * coeff * koszul.get((b, a), 0)
                sign, key = _sort_tuple((x, a, b))
                if sign:  # distinct (a, b) name distinct triples (x, a, b)
                    row[t_index[key]] = coeff * sign * den_x
            if row or rhs:
                sys_rows.append(row)
                sys_rhs.append(rhs)

    particular, kernel = solve(sys_rows, sys_rhs, len(triples))
    if particular is None:
        return 0, None
    # verify the particular solution exactly, on its integer multiple den * x
    den = lcm(*(v.denominator for v in particular))
    xs = [v.numerator * (den // v.denominator) for v in particular]
    for row, rhs in zip(sys_rows, sys_rhs):
        if sum(v * xs[t] for t, v in row.items()) != rhs * den:
            return 0, None
    comps = {t: Scalar.monomial(v, d) for t, v in zip(triples, particular) if v}
    return 1 + len(kernel), KForm(n, 3, comps)
