"""Almost 3-contact structures and the quaternionic contact structure.

The three almost contact structures act on each quaternion copy by left
multiplication with the imaginary units and rotate the two complementary
vertical directions.  Their restrictions to the horizontal space give
the complex structures of the qc structure; the canonical connection
preserves all of it, and among metric connections with totally skew
torsion it is the only one that does.  Each axiom is one equation
between tensors built by the integer kernels of `exterior` (Blair 2002
for almost contact structures, Biquard 2000 for the qc structure):

* almost contact metric: phi^2 = -1 + xi (x) eta, phi xi = 0,
  phi^T eta = 0, eta(xi) = 1, phi^T phi = 1 - eta (x) eta;
* normality: M_a = phi [phi, ad_a] - [phi, ad_{phi e_a}] + xi (x) (e_a _| d eta)
  = (N_phi + d eta (x) xi)(e_a, -) vanishes for each basis index a;
* qc: I_1 I_2 I_3 = -P_H, eta_j = 0 on H with eta_j(xi_i) invertible,
  d eta_j = 2 g(I_j -, -) on H ^ H, and xi_k _| d eta_j + xi_j _| d eta_k = 0 on H;
* qc preservation: the Reeb equation, one sparse integer matrix over gl(n)
  (`_reeb_matrix`), which implies the splitting and the I (x) I equation.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations

from .algebra import QHAlgebra, _unit_index, derived, quaternion_action
from .connections import Connection, Geometry, flat_connection, is_parallel, levi_civita, with_torsion
from .exterior import (Endo, KForm, Vector, _endo, _kform, _sort_tuple, _vector, ce_differential,
                       endo_two_form, interior, wedge)
from .linalg import rref, solve
from .scalars import ONE, ZERO, PartSum, Scalar, _product, accumulate, homogeneous_part, part


class AlmostContact:
    """One almost contact structure: endomorphism, Reeb vector, 1-form."""

    __slots__ = ("phi", "xi", "eta", "index")

    def __init__(self, phi: Endo, xi: Vector, eta: KForm, index: int):
        self.phi, self.xi, self.eta, self.index = phi, xi, eta, index


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
    j, k = ((i % 3) + 1, ((i + 1) % 3) + 1)
    entries = {(k - 1, j - 1): 1, (j - 1, k - 1): -1}  # eta_j (x) xi_k - eta_k (x) xi_j
    if inconsistent_variant:
        if i != 2:
            raise ValueError("the inconsistent variant is defined for i = 2 only")
        for r in range(1, alg.p + 1):
            plane = alg.quaternionic_plane(r)
            # replace -theta_{p+r} (x) tau_{3p+r} by -theta_r (x) tau_{3p+r}
            entries[(plane[3], plane[1])] = 1
            entries[(plane[3], plane[0])] = -1
    phi = quaternion_action(alg, i) + Endo(alg.dim, entries)
    return AlmostContact(phi, alg.xi(i), alg.eta(i), i)


# -- tensors from parts ---------------------------------------------------------


def _outer(v: Vector, form: KForm) -> Endo:
    """v (x) form, the endomorphism X -> form(X) v."""

    def outer(ev: dict, ef: dict) -> dict:
        return {(a, b): x * y for a, x in ev.items() for (b,), y in ef.items()}

    return _endo(v.dim, _product(v.part, form.part, outer))


def _where(p: tuple, keep) -> tuple:
    """The part of the entries whose index satisfies `keep`."""
    d, den, e = p
    return part(d, den, {k: v for k, v in e.items() if keep(k)})


def _on_h(alg: QHAlgebra, p: tuple) -> tuple:
    """The part of the entries whose indices are all horizontal: a form
    restricted to H, an endomorphism cut to H x H."""
    return _where(p, lambda idx: not any(map(alg.is_vertical, idx)))


# -- almost contact metric structures -------------------------------------------


def _almost_contact_equations(alg: QHAlgebra, ac: AlmostContact) -> dict:
    """Each defining equation of an almost contact metric structure, by name,
    as a thunk that decides it."""
    n, phi, xi, eta = alg.dim, ac.phi, ac.xi, ac.eta
    # phi^T, and the metric dual of eta: the same components, the frame being orthonormal
    (dp, np, ep), (de, ne, ee) = phi.part, eta.part
    phi_t = _endo(n, (dp, np, {(c, r): v for (r, c), v in ep.items()}))
    eta_v = _vector(n, (de, ne, {i: v for (i,), v in ee.items()}))
    one = Endo.identity(n)
    return {
        "phi^2 = -1 + xi (x) eta": lambda: phi.compose(phi) == _outer(xi, eta) - one,
        "phi xi = 0": lambda: phi.apply(xi).is_zero(),
        "phi^T eta = 0": lambda: phi_t.apply(eta_v).is_zero(),
        "eta(xi) = 1": lambda: eta.evaluate(xi) == ONE,
        "phi^T phi = 1 - eta (x) eta": lambda: phi_t.compose(phi) == one - _outer(eta_v, eta),
    }


def almost_contact_axioms(alg: QHAlgebra, ac: AlmostContact) -> bool:
    """phi^2 = -1 + xi (x) eta, phi xi = 0, phi^T eta = 0, eta(xi) = 1, and
    metric compatibility phi^T phi = 1 - eta (x) eta."""
    return all(holds() for holds in _almost_contact_equations(alg, ac).values())


def compatibility_check(alg: QHAlgebra, phis: list[AlmostContact] | None = None):
    """Quaternionic compatibility of the triple, with a witness on failure.

    phi_i = phi_j phi_k - eta_k (x) xi_j = -phi_k phi_j + eta_j (x) xi_k
    for (i,j,k) = (1,2,3) and cyclic permutations.
    """
    if phis is None:
        phis = [build_phi(alg, i) for i in (1, 2, 3)]
    by_index = {ac.index: ac for ac in phis}
    for i, j, k in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        pi, pj, pk = by_index[i], by_index[j], by_index[k]
        if pj.phi.compose(pk.phi) - _outer(pj.xi, pk.eta) != pi.phi:
            return False, ("first identity", i)
        if _outer(pk.xi, pj.eta) - pk.phi.compose(pj.phi) != pi.phi:
            return False, ("second identity", i)
    return True, None


def normality_check(alg: QHAlgebra, i: int, ac: AlmostContact | None = None) -> bool:
    """N_phi + d eta (x) xi = 0, where N(X,Y) = phi^2[X,Y] + [phiX,phiY]
    - phi[phiX,Y] - phi[X,phiY]: for each basis index a the endomorphism
    M_a = phi [phi, ad_a] - [phi, ad_{phi e_a}] + xi (x) (e_a _| d eta),
    which is Y -> N(e_a, Y) + d eta(e_a, Y) xi, vanishes."""
    if ac is None:
        ac = build_phi(alg, i)
    phi, d_eta = ac.phi, ce_differential(ac.eta, alg)
    for e_a in map(alg.basis_vector, range(alg.dim)):
        m_a = phi.compose(phi.commutator(alg.ad(e_a))) - phi.commutator(alg.ad(phi.apply(e_a)))
        if not (m_a + _outer(ac.xi, interior(e_a, d_eta))).is_zero():
            return False
    return True


def fundamental_form(alg: QHAlgebra, ac: AlmostContact) -> KForm:
    """F(X, Y) = g(X, phi Y)."""
    return _kform(alg.dim, 2, _where(ac.phi.part, lambda rc: rc[0] < rc[1]))


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
        self.complex_structures, self.one_forms, self.reeb = complex_structures, one_forms, reeb


@derived
def build_qc(alg: QHAlgebra) -> QcStructure:
    """Complex structures I_i = phi_i restricted to the horizontal space,
    1-forms -(2/lam) eta_i and Reeb fields -(lam/2) xi_i."""
    complex_structures = [_endo(alg.dim, _on_h(alg, build_phi(alg, i).phi.part)) for i in (1, 2, 3)]
    scale = Scalar(-2) / alg.lam
    one_forms = [alg.eta(i).scale(scale) for i in (1, 2, 3)]
    reeb = [alg.xi(i).scale(alg.lam * Fraction(-1, 2)) for i in (1, 2, 3)]
    return QcStructure(complex_structures, one_forms, reeb)


def _qc_equations(alg: QHAlgebra, qc: QcStructure) -> dict:
    """Each qc axiom, by name, as a thunk that decides it.  The joint kernel
    of the 1-forms is exactly H when they vanish on H and their block on the
    vertical basis is invertible: its determinant, one monomial c * l^d, is
    nonzero, and so nonzero at every lam > 0."""
    i1, i2, i3 = qc.complex_structures
    d_eta = [ce_differential(f, alg) for f in qc.one_forms]
    p_h = Endo(alg.dim, {(h, h): 1 for h in alg.horizontal_indices})
    block = [[f.coeff((v,)) for v in alg.vertical_indices] for f in qc.one_forms]
    det = sum((_sort_tuple(s)[0] * block[0][s[0]] * block[1][s[1]] * block[2][s[2]]
               for s in permutations(range(3))), ZERO)
    return {
        "I_1 I_2 I_3 = -P_H": lambda: i1.compose(i2).compose(i3) == -p_h,
        "eta_j = 0 on H": lambda: not any(_on_h(alg, f.part)[2] for f in qc.one_forms),
        "eta_j(xi_i) invertible": lambda: not det.is_zero(),
        "d eta_j = 2 g(I_j -, -) on H": lambda: all(
            ij.is_skew() and _on_h(alg, dj.part) == endo_two_form(ij).scale(2).part
            for ij, dj in zip(qc.complex_structures, d_eta)
        ),
        "xi_k _| d eta_j + xi_j _| d eta_k = 0 on H": lambda: not any(
            _on_h(alg, (interior(qc.reeb[k], d_eta[j]) + interior(qc.reeb[j], d_eta[k])).part)[2]
            for j, k in combinations_with_replacement(range(3), 2)
        ),
    }


def qc_axioms_check(alg: QHAlgebra, qc: QcStructure) -> bool:
    """Quaternion relations on the horizontal space, the joint kernel of the
    1-forms, and the two differential identities of the 1-forms."""
    return all(holds() for holds in _qc_equations(alg, qc).values())


@derived
def _reeb_matrix(alg: QHAlgebra, qc: QcStructure) -> tuple:
    """The Reeb tensor sum_i (A xi_i) (x) I_i + xi_i (x) [A, I_i] as a linear
    map of A, with xi_i the i-th vertical basis vector: one part
    (degree, den, {(r, c): {(s, c', d'): int}}), the column of the matrix
    unit (r, c) of gl(n) at each key (s, c', d') of the tensor, den times
    its entries.

    The tensor vanishes exactly when the connection form A preserves the qc
    structure: the V + H splitting, sum_i I_i (x) I_i and this tensor.  The
    one equation implies the other two for every A, skew or not:

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
    that xi_1, xi_2, xi_3 are the vertical basis vectors.

    One pass over the nonzero entries I_i[c, d] builds the matrix: each adds,
    for every x, (A xi_i)_x I_i[c, d] at (x, c, d), A[x, c] I_i[c, d] at
    (i, x, d) and -I_i[c, d] A[d, x] at (i, c, x), keyed (unit, key) until
    the sum is one part.  The memo keys on the qc structure itself, which is
    never changed after it is built.
    """
    sums = PartSum("complex structures")
    for i, structure in enumerate(qc.complex_structures):
        deg, den, e = structure.part
        if e:
            acc = sums.at(deg, den)
            for (c, d), v in e.items():
                for x in range(alg.dim):
                    accumulate(acc, ((x, i), (x, c, d)), v)
                    accumulate(acc, ((x, c), (i, x, d)), v)
                    accumulate(acc, ((d, x), (i, c, x)), -v)
    deg, den, flat = sums.part()
    columns: dict = {}
    for (unit, key), v in flat.items():
        columns.setdefault(unit, {})[key] = v
    return deg, den, columns


def _apply_columns(ea: dict, columns: dict) -> dict:
    acc: dict = {}
    for unit, v in ea.items():
        column = columns.get(unit)
        if column:
            for key, w in column.items():
                accumulate(acc, key, v * w)
    return acc


def _qc_defect(alg: QHAlgebra, qc: QcStructure, a: Endo) -> dict:
    """The part of the Reeb tensor sum_i (A xi_i) (x) I_i + xi_i (x) [A, I_i]
    at keys (s, c, d), with the common factor -lam/2 of the Reeb fields
    dropped: the matrix of `_reeb_matrix` applied to the part of A.  It has
    no entry exactly when A preserves the qc structure."""
    return _product(a.part, _reeb_matrix(alg, qc), _apply_columns)


def qc_preservation_check(alg: QHAlgebra, conn: Connection) -> bool:
    """Whether the connection preserves the qc structure: the V + H
    splitting, sum_i I_i (x) I_i and sum_i reeb_i (x) I_i.  Each form
    A = conn.form(x) is tested by the Reeb equation alone, which implies
    the other two (see `_reeb_matrix`)."""
    qc = build_qc(alg)
    return not any(_qc_defect(alg, qc, conn.form(x))[2] for x in range(alg.dim))


def flat_connection_check(alg: QHAlgebra) -> bool:
    """The flat connection preserves the qc structure, has zero curvature
    and holonomy, and its torsion is not totally skew."""
    flat = Geometry(alg, flat_connection(alg))
    return (
        qc_preservation_check(alg, flat.conn)
        and not flat.curvature_parts[2]
        and len(flat.holonomy) == 0
        and flat.torsion_form is None
    )


def _qc_functionals(alg: QHAlgebra, qc: QcStructure) -> list[dict[int, int]]:
    """Linear functionals on the skew forms sum_k c_k B_k whose common kernel
    is the qc-preserving forms, one distinct sparse integer row per equation.

    B_k runs over the 2-forms e_a ^ e_b, a < b, whose matrix has +1 at
    (b, a) and -1 at (a, b).  Row key reads the Reeb matrix at that key on
    the two columns of each B_k: den times the rational entries, so the
    row is exact.  Exact duplicate rows are dropped.
    """
    k_of = {ab: k for k, ab in enumerate(combinations(range(alg.dim), 2))}
    rows: dict[tuple, dict[int, int]] = {}
    for (r, c), column in _reeb_matrix(alg, qc)[2].items():
        if r != c:
            k, sign = (k_of[(c, r)], 1) if c < r else (k_of[(r, c)], -1)
            for key, v in column.items():
                accumulate(rows.setdefault(key, {}), k, sign * v)
    distinct = {tuple(sorted(row.items())) for row in rows.values() if row}
    return [dict(items) for items in sorted(distinct)]


def _qc_slots(x: int, den_x: int, koszul: dict, skew_basis: list, t_index: dict) -> list[tuple]:
    """Entry k, for (a, b) = skew_basis[k]: the index of the sorted triple (x, a, b),
    its sign (-1 iff a < x < b) times den_x or None when x is a or b, and koszul_x(b, a)."""
    return [(t_index.get((x, a, b) if x < a else (a, x, b) if x < b else (a, b, x)),
             None if x in (a, b) else -den_x if a < x < b else den_x, koszul.get((b, a), 0)) for a, b in skew_basis]


def qc_unique_skew(alg: QHAlgebra):
    """Solve for all 3-form torsions whose connection preserves the qc
    structure; returns (solution dimension, torsion or None).

    Each connection form, the Levi-Civita form plus half the torsion's
    contraction, must satisfy the Reeb equation of `_qc_defect`, which
    also forces the splitting and the I (x) I equation.  The solution
    dimension is 1 + (kernel dimension) when the affine system is
    solvable, so 1 means unique; 0 means no solution.  Each row is read
    from the slot table `_qc_slots` of its form, so no triple is sorted
    per entry; the solution is checked on every row by substitution.
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
    # the row of form x and a reduced functional f, whose entries are
    # coprime integers, times 2 den_x:
    # sum_k f_k sign den_x T_(x a b) = -2 sum_k f_k koszul_x(b, a)
    lc = levi_civita(alg)
    d, sys_rows, sys_rhs = None, [], []
    for x in range(n):  # one degree d; a form of another raises, naming the index
        d, den_x, koszul = homogeneous_part(lc.form(x), f"Levi-Civita form {x}", d)
        slots = _qc_slots(x, den_x, koszul, skew_basis, t_index)
        for _, functional in reduced:
            rhs = 0
            row: dict[int, int] = {}
            for k, coeff in functional.items():
                t, v, kz = slots[k]
                rhs -= 2 * coeff * kz
                if v is not None:  # distinct (a, b) name distinct triples (x, a, b)
                    row[t] = coeff * v
            if row or rhs:
                sys_rows.append(row)
                sys_rhs.append(rhs)

    particular, kernel = solve(sys_rows, sys_rhs, len(triples))
    if particular is None:
        return 0, None
    den, xs = particular  # verify it exactly, on its integer multiple den * x
    for row, rhs in zip(sys_rows, sys_rhs):
        if sum(v * xs.get(t, 0) for t, v in row.items()) != rhs * den:
            return 0, None
    return 1 + len(kernel), _kform(n, 3, part(d, den, {triples[t]: v for t, v in xs.items()}))
