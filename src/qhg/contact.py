"""Almost 3-contact structures and the quaternionic contact structure.

The three almost contact structures act on each quaternion copy by left
multiplication with the imaginary units and rotate the two complementary
vertical directions.  Their restrictions to the horizontal space give
the complex structures of the qc structure; the canonical connection
preserves all of it, and among metric connections with totally skew
torsion it is the only one that does.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .algebra import QHAlgebra
from .connections import Connection, levi_civita, with_torsion
from .exterior import (
    Endo,
    KForm,
    Vector,
    _sort_tuple,
    ce_differential,
    two_form_endo,
    wedge,
)
from .linalg import nullspace, rref, solve_affine
from .scalars import ONE, ZERO, Scalar


class AlmostContact:
    """One almost contact structure: endomorphism, Reeb vector, 1-form."""

    __slots__ = ("phi", "xi", "eta", "index")

    def __init__(self, phi: Endo, xi: Vector, eta: KForm, index: int):
        self.phi = phi
        self.xi = xi
        self.eta = eta
        self.index = index


def build_phi(alg: QHAlgebra, i: int, inconsistent_variant: bool = False) -> AlmostContact:
    """The i-th almost contact structure, i in {1, 2, 3}.

    Horizontally it is left multiplication by the i-th imaginary unit on
    each quaternion copy; vertically it rotates the other two Reeb
    directions.  `inconsistent_variant` (i = 2 only) swaps one horizontal
    coefficient to the quaternionically wrong slot; the compatibility
    equations reject it, which pins the consistent tensor.
    """
    if i not in (1, 2, 3):
        raise ValueError(f"structure index must be 1, 2 or 3, got {i}")
    entries: dict[tuple[int, int], int] = {}
    j, k = ((i % 3) + 1, ((i + 1) % 3) + 1)
    entries[(k - 1, j - 1)] = 1  # eta_j (x) xi_k
    entries[(j - 1, k - 1)] = -1  # -eta_k (x) xi_j
    for r in range(1, alg.p + 1):
        plane = alg.quaternionic_plane(r)
        for pos in range(4):
            from .algebra import quat_mul

            sign, out = quat_mul(i, pos)
            entries[(plane[out], plane[pos])] = sign
    if inconsistent_variant:
        if i != 2:
            raise ValueError("the inconsistent variant is defined for i = 2 only")
        for r in range(1, alg.p + 1):
            plane = alg.quaternionic_plane(r)
            # replace -theta_{p+r} (x) tau_{3p+r} by -theta_r (x) tau_{3p+r}
            del entries[(plane[3], plane[1])]
            entries[(plane[3], plane[0])] = entries.get((plane[3], plane[0]), 0) - 1
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
    """Normality together with a closed fundamental 2-form."""
    ac = build_phi(alg, i)
    if not normality_check(alg, i, ac):
        return False
    return ce_differential(fundamental_form(alg, ac), alg).is_zero()


def contact_characteristic_torsion(alg: QHAlgebra, i: int) -> KForm:
    """eta_i ^ d eta_i - sum_{j != i} eta_j ^ d eta_j (dimension 7 only)."""
    if alg.p != 1:
        raise ValueError("characteristic torsion is implemented for p = 1 only")
    out = KForm.zero(alg.dim, 3)
    for j in (1, 2, 3):
        term = wedge(alg.eta(j), ce_differential(alg.eta(j), alg))
        out = out + (term if j == i else term.scale(-1))
    return out


def characteristic_connection(alg: QHAlgebra, i: int) -> Connection:
    """The connection making the i-th structure parallel, via its torsion."""
    return with_torsion(alg, contact_characteristic_torsion(alg, i))


# -- quaternionic contact structure -----------------------------------------


class QcStructure:
    __slots__ = ("complex_structures", "one_forms", "reeb")

    def __init__(self, complex_structures: list[Endo], one_forms: list[KForm], reeb: list[Vector]):
        self.complex_structures = complex_structures
        self.one_forms = one_forms
        self.reeb = reeb


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
                rhs = qc.complex_structures[j].apply(ea).dot(eb).__mul__(2)
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


def _preserves_splitting(alg: QHAlgebra, conn: Connection) -> bool:
    for i in range(alg.dim):
        for (r, c), v in conn.form(i).m.items():
            if alg.is_vertical(r) != alg.is_vertical(c) and not v.is_zero():
                return False
    return True


def qc_preservation_check(alg: QHAlgebra, conn: Connection) -> bool:
    """Whether the connection preserves the qc structure.

    Requires the vertical/horizontal splitting to be preserved and the
    two sums I_i (x) I_i and reeb_i (x) I_i to be parallel.
    """
    if not _preserves_splitting(alg, conn):
        return False
    qc = build_qc(alg)
    n = alg.dim
    supports = set()
    for e in qc.complex_structures:
        supports.update(e.m.keys())
    for x in range(n):
        a = conn.form(x)
        if a.is_zero():
            continue
        brackets = [a.commutator(e) for e in qc.complex_structures]
        # sum_i [A, I_i] (x) I_i + I_i (x) [A, I_i] = 0
        pairs = set()
        for e in qc.complex_structures + brackets:
            pairs.update(e.m.keys())
        for ab in pairs:
            for cd in pairs:
                total = ZERO
                for e, br in zip(qc.complex_structures, brackets):
                    total = total + br.entry(*ab) * e.entry(*cd)
                    total = total + e.entry(*ab) * br.entry(*cd)
                if not total.is_zero():
                    return False
        # sum_i (A reeb_i) (x) I_i + reeb_i (x) [A, I_i] = 0
        images = [a.apply(v) for v in qc.reeb]
        for slot in range(n):
            for cd in pairs:
                total = ZERO
                for img, reeb_v, e, br in zip(
                    images, qc.reeb, qc.complex_structures, brackets
                ):
                    total = total + img[slot] * e.entry(*cd)
                    total = total + reeb_v[slot] * br.entry(*cd)
                if not total.is_zero():
                    return False
    return True


def qc_unique_skew(alg: QHAlgebra, require_splitting: bool = True):
    """Solve for all 3-form torsions whose connection preserves the qc
    structure; returns (solution dimension, torsion or None).

    The solution dimension is 1 + (kernel dimension) when the affine
    system is solvable, so 1 means unique; 0 means no solution.  With
    `require_splitting` off the splitting constraint is dropped, which
    strictly enlarges the solution space.
    """
    if alg.p > 2:
        raise ValueError("the torsion solve is restricted to p <= 2")
    n = alg.dim
    qc = build_qc(alg)

    skew_basis = list(combinations(range(n), 2))
    nb = len(skew_basis)
    coords = {pair: idx for idx, pair in enumerate(skew_basis)}

    # sparse data: structure entries and brackets [B_ab, I_i] per basis element
    struct_entries = [
        {k: _rat(v) for k, v in e.m.items()} for e in qc.complex_structures
    ]
    bracket_entries: list[list[dict]] = []
    for a, b in skew_basis:
        e = two_form_endo(KForm(n, 2, {(a, b): ONE}))
        bracket_entries.append(
            [
                {k: _rat(v) for k, v in e.commutator(i_s).m.items()}
                for i_s in qc.complex_structures
            ]
        )
    # index: for structure i and matrix position pq, which basis elements
    # have a nonzero bracket entry there
    bracket_index: list[dict[tuple[int, int], list[tuple[int, Fraction]]]] = [
        {}, {}, {},
    ]
    for k in range(nb):
        for i in range(3):
            for pq, v in bracket_entries[k][i].items():
                bracket_index[i].setdefault(pq, []).append((k, v))

    support = set()
    for i in range(3):
        support.update(struct_entries[i])
        support.update(bracket_index[i])
    support = sorted(support)

    def functional_rows() -> list[list[Fraction]]:
        seen: set[tuple] = set()
        rows: list[list[Fraction]] = []

        def emit(row: list[Fraction]):
            lead = next((c for c in row if c), None)
            if lead is None:
                return
            key = tuple(c / lead for c in row)
            if key not in seen:
                seen.add(key)
                rows.append(list(key))

        if require_splitting:
            for v in alg.vertical_indices:
                for h in alg.horizontal_indices:
                    row = [Fraction(0)] * nb
                    row[coords[(v, h)]] = Fraction(1)
                    emit(row)

        # sum_i [A,I_i] (x) I_i + I_i (x) [A,I_i] = 0, componentwise
        all_pairs = [(r, c) for r in range(n) for c in range(n) if r != c]
        eq_keys = {(ab, cd) for ab in all_pairs for cd in support}
        eq_keys |= {(ab, cd) for ab in support for cd in all_pairs}
        for ab, cd in sorted(eq_keys):
            row = [Fraction(0)] * nb
            for i in range(3):
                s_cd = struct_entries[i].get(cd)
                if s_cd:
                    for k, v in bracket_index[i].get(ab, ()):
                        row[k] += v * s_cd
                s_ab = struct_entries[i].get(ab)
                if s_ab:
                    for k, v in bracket_index[i].get(cd, ()):
                        row[k] += s_ab * v
            emit(row)

        # sum_i (A xi_i) (x) I_i + xi_i (x) [A,I_i] = 0 (common Reeb scale dropped)
        for slot in range(n):
            for cd in support:
                row = [Fraction(0)] * nb
                for i in range(3):
                    s_cd = struct_entries[i].get(cd)
                    if s_cd:
                        # (B_ab xi_i)[slot]: +1 when ab = (i-1, slot), -1 when (slot, i-1)
                        vert = i  # xi_{i+1} sits at frame index i
                        if vert < slot:
                            row[coords[(vert, slot)]] += s_cd
                        elif slot < vert:
                            row[coords[(slot, vert)]] -= s_cd
                    if slot == i:  # xi_i[slot] = 1 exactly at its own index
                        for k, v in bracket_index[i].get(cd, ()):
                            row[k] += v
                emit(row)
        return rows

    reduced, _ = rref(functional_rows())

    # unknowns: components of the torsion 3-form
    triples = list(combinations(range(n), 3))
    t_index = {t: i for i, t in enumerate(triples)}
    lc = levi_civita(alg)

    sys_rows: list[list[Fraction]] = []
    sys_rhs: list[Fraction] = []
    for x in range(n):
        omega_x = lc.form(x)
        base = []
        for a, b in skew_basis:
            entry = omega_x.entry(b, a)  # coordinate of the skew part
            base.append(_rat_linear(entry, alg))
        for functional in reduced:
            rhs = Fraction(0)
            row = [Fraction(0)] * len(triples)
            for coeff, (a, b), const in zip(functional, skew_basis, base):
                if not coeff:
                    continue
                rhs -= coeff * const
                sign, key = _sort_tuple((x, a, b))
                if sign == 0:
                    continue
                row[t_index[key]] += coeff * Fraction(1, 2) * sign
            if any(row) or rhs:
                sys_rows.append(row)
                sys_rhs.append(rhs)

    kernel = nullspace(sys_rows, len(triples)) if sys_rows else []
    particular = solve_affine(sys_rows, sys_rhs)
    if particular is None:
        return 0, None
    # verify the particular solution exactly
    for row, rhs in zip(sys_rows, sys_rhs):
        if sum(r * p for r, p in zip(row, particular)) != rhs:
            return 0, None
    comps = {
        t: Scalar(v) * alg.lam for t, v in zip(triples, particular) if v
    }
    return 1 + len(kernel), KForm(n, 3, comps)


def _rat(s: Scalar) -> Fraction:
    return s.rational_value()


def _rat_linear(s: Scalar, alg: QHAlgebra) -> Fraction:
    """Strip the parameter factor shared by all Koszul coefficients."""
    return (s / alg.lam).rational_value()
