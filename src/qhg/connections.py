"""Left-invariant metric connections: curvature, holonomy, hol + m.

A left-invariant connection is the linear map X -> Omega(X) into the
skew endomorphisms, nabla_X Y = Omega(X) Y on invariant fields.  The
Levi-Civita map comes from the Koszul formula; adding half of a torsion
3-form produces the metric connection with that skew torsion.  On
frame-constant tensors nabla_X acts through the natural so(n) action of
Omega(X), which is what all parallelism checks below use.  `Geometry`
bundles one connection with the tensors read from it (torsion,
curvature, Ricci, holonomy, parallelism, hol + m), each computed at most
once, on first read.  Every value holds one monomial c * l^d (see
`scalars`).  Torsion, curvature and Ricci are each one pass over the
stored entries of the connection forms into one integer part keyed by
index tuples.  The span of the curvature and the holonomy closure built
on it share one basis; nabla R and hol + m (m in the frame e_i / l) read R in it.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property
from itertools import chain, combinations

from .algebra import QHAlgebra, StructureConstants, derived, jacobi_check
from .exterior import (
    Endo,
    KForm,
    Vector,
    _endo,
    _kform,
    _rows,
    _vector,
    ce_differential,
    two_form_endo,
    wedge,
)
from .linalg import Span
from .scalars import PartSum, Scalar, _product, accumulate, graded, homogeneous_part, part


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


@derived
def levi_civita(alg: QHAlgebra) -> Connection:
    """Koszul formula on left-invariant fields.

    Omega(e_i)[k, j] = ([e_i, e_j]_k - [e_j, e_k]_i + [e_k, e_i]_j) / 2,
    summed over the stored structure constants [e_a, e_b]_m, read in both
    orders: each lands in one entry of each of the three terms.
    """
    n, d = alg.dim, alg.degree
    # per direction: den -> integer sums, halved through the den
    sums: list[dict[int, dict]] = [{} for _ in range(n)]
    for a, row in enumerate(alg._parts):
        for b, (den, e) in row.items():
            for m, c in e.items():
                accumulate(sums[a].setdefault(den, {}), (m, b), c)
                accumulate(sums[m].setdefault(den, {}), (b, a), -c)
                accumulate(sums[b].setdefault(den, {}), (a, m), c)
    return Connection([_endo(n, graded((d, 2 * den, acc) for den, acc in s.items())) for s in sums])


def with_torsion(alg: QHAlgebra, t: KForm) -> Connection:
    """Metric connection whose totally skew torsion is the 3-form t.

    Omega(e_x) = Omega^g(e_x) + (1/2) e_x . t, in one pass over the nonzero
    entries of t: v e^{abc} adds v/2 at (c, b) of Omega(e_a), (a, c) of
    Omega(e_b) and (b, a) of Omega(e_c), and -v/2 at the transposed entries;
    each direction then sums its Levi-Civita and torsion parts in one `graded`,
    which raises where t meets a Levi-Civita form of another degree in l.
    """
    if t.degree != 3:
        raise ValueError("torsion must be a 3-form")
    if t.dim != alg.dim:
        raise ValueError("torsion does not live on this algebra")
    raw = [[form.part] for form in levi_civita(alg).omega]
    d, den, e = t.part
    # direction -> integer entries; a 3-form reaches each key at most once
    half: dict[int, dict] = {}
    for (a, b, c), v in e.items():
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):  # e_x . e^{xyz} = e^{yz}
            acc = half.setdefault(x, {})
            acc[(z, y)], acc[(y, z)] = v, -v
    for x, acc in half.items():
        raw[x].append((d, 2 * den, acc))
    return Connection([_endo(alg.dim, graded(r, f"connection form {x}")) for x, r in enumerate(raw)])


def flat_connection(alg: QHAlgebra) -> Connection:
    """The trivial map Omega = 0 (left-invariant parallelization)."""
    return Connection([Endo.zero(alg.dim) for _ in range(alg.dim)])


@derived
def canonical_torsion(alg: QHAlgebra) -> KForm:
    """sum_i eta_i ^ d eta_i - 4 lam eta_123."""
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


def killing_one_forms_check(alg: QHAlgebra, lc: Connection) -> bool:
    """nabla^g_X eta_i = (1/2) X . d eta_i for the Levi-Civita connection lc:
    the vertical 1-forms are Killing.  One equation between integer parts
    keyed (i, x, k), each side read in one pass over its parts: column xi_i
    of every form, Omega(e_x)[k, i], against (1/2) d eta_i(e_x, e_k), entry
    (k, x) of the skew endomorphism of d eta_i."""
    vertical = alg.vertical_indices
    lhs = graded((d, den, {(i, x, k): v for (k, i), v in e.items() if i in vertical})
                 for x, (d, den, e) in enumerate(form.part for form in lc.omega))
    d_eta = [two_form_endo(ce_differential(alg.eta(i + 1), alg)).part for i in vertical]
    rhs = graded((d, 2 * den, {(i, x, k): v for (k, x), v in e.items()}) for i, (d, den, e) in zip(vertical, d_eta))
    return lhs == rhs


def su2_curvature(alg: QHAlgebra) -> tuple:
    """Closed form of the canonical `Geometry.curvature_parts`: R(e_i, e_j) =
    lam^2 sum_k h_k(e_i, e_j) H_k, with h_k the su2_generators and H_k their
    endomorphisms, an entry (i, j) of h_k times an entry (k, l) of H_k."""
    def outer(ef: dict, eh: dict) -> dict:
        return {ij + kl: c * w for ij, c in ef.items() for kl, w in eh.items()}

    return graded(_product(form.part, two_form_endo(form).scale(alg.lam * alg.lam).part, outer)
                  for form in su2_generators(alg))


def ricci_closed_form(alg: QHAlgebra) -> Endo:
    """Ricci of the canonical connection: diag(-8 lam^2 x3, -3 lam^2 x4p)."""
    diagonal = {(i, i): -8 if i < 3 else -3 for i in range(alg.dim)}
    return Endo(alg.dim, diagonal).scale(alg.lam * alg.lam)


def volumes_parallel(alg: QHAlgebra, conn: Connection) -> bool:
    """Whether the vertical volume eta_123 and every plane volume are parallel."""
    vertical = KForm.basis(alg.dim, alg.vertical_indices)
    planes = [KForm.basis(alg.dim, alg.quaternionic_plane(q)) for q in range(1, alg.p + 1)]
    return all(is_parallel(conn, f) for f in [vertical] + planes)


def su2_holonomy_check(alg: QHAlgebra, hol: list[Endo]) -> bool:
    """hol is 3-dimensional, irreducible on the vertical space and
    preserves each quaternionic plane."""
    planes = [alg.quaternionic_plane(q) for q in range(1, alg.p + 1)]
    return (
        len(hol) == 3
        and vertical_action_irreducible(alg, hol)
        and all(invariant_subspace(hol, plane) for plane in planes)
    )


class Geometry:
    """One connection on one algebra, with the tensors every check reads:
    torsion and curvature as integer parts and their 3-form and per-pair
    views, Ricci, the span of the curvature with the curvature's coordinates
    on it, the holonomy basis, the parallelism verdicts and the degree-0 table of hol + m.

    Each field is computed at most once, on first read, and a field reads
    only the fields it needs: a transvection test that stops at torsion or
    curvature which is not parallel never builds the holonomy.
    """

    def __init__(self, alg: QHAlgebra, conn: Connection):
        if conn.dim != alg.dim:
            raise ValueError(f"connection of dimension {conn.dim} on an algebra of dimension {alg.dim}")
        self.alg = alg
        self.conn = conn

    @cached_property
    def torsion_parts(self) -> tuple:
        """T(e_i, e_j)_k, i < j, as one part (degree, den, {(i, j, k): int}).

        T(e_i, e_j) = Omega(e_i)e_j - Omega(e_j)e_i - [e_i, e_j] in one pass
        over the nonzero entries: entry (k, j) = v of Omega(e_i) lands at the
        sorted pair, v at (i, j, k) for i < j and -v at (j, i, k) for i > j;
        then the stored brackets [e_i, e_j]_k, i < j, are subtracted.
        """
        sums = PartSum("torsion")  # den -> (i, j, k) -> sum
        for i, form in enumerate(self.conn.omega):
            d, den, e = form.part
            if e:
                acc = sums.at(d, den)
                for (k, j), v in e.items():
                    if i != j:
                        accumulate(acc, (i, j, k) if i < j else (j, i, k), v if i < j else -v)
        for (i, j), bracket in self.alg._sc.items():
            d, den, e = bracket.part
            if e:
                acc = sums.at(d, den)
                for k, v in e.items():
                    accumulate(acc, (i, j, k), -v)
        return sums.part()

    @cached_property
    def torsion_form(self) -> KForm | None:
        """The torsion as a 3-form, or None when it is not totally skew, that is
        when a part of T is not the alternating extension of its i < j < k entries."""
        d, den, e = self.torsion_parts
        t = {(i, j, k): v for (i, j, k), v in e.items() if j < k}
        skew = {}
        for (a, b, c), v in t.items():
            skew[(a, b, c)], skew[(a, c, b)], skew[(b, c, a)] = v, -v, v
        if skew != e:
            return None
        return _kform(self.alg.dim, 3, part(d, den, t))

    @cached_property
    def curvature_parts(self) -> tuple:
        """R(e_i, e_j)[k, l], i < j, as one part (degree, den, {(i, j, k, l): int}).

        R(e_i, e_j) = [Omega_i, Omega_j] - sum_c [e_i, e_j]_c Omega_c in one
        pass over the stored entries: each pair Omega_i, Omega_j, i < j, adds
        its integer commutator at (i, j, ., .), and each stored bracket entry
        [e_i, e_j]_c = v subtracts v Omega_c there.
        """
        forms = [(i, d, den, e, _rows(e))
                 for i, (d, den, e) in enumerate(f.part for f in self.conn.omega) if e]
        sums = PartSum("curvature")  # den -> (i, j, k, l) -> sum
        for i, di, ni, ei, ri in forms:
            for j, dj, nj, ej, rj in forms:
                if i < j:
                    acc = sums.at(di + dj, ni * nj)
                    for ea, rows, sign in ((ei, rj, 1), (ej, ri, -1)):
                        for (k, m), v in ea.items():
                            for l, w in rows.get(m, ()):
                                accumulate(acc, (i, j, k, l), sign * v * w)
        omega = [f.part for f in self.conn.omega]
        for (i, j), bracket in self.alg._sc.items():
            d, den, e = bracket.part
            for c, v in e.items():
                dc, nc, ec = omega[c]
                if ec:
                    acc = sums.at(d + dc, den * nc)
                    for (k, l), w in ec.items():
                        accumulate(acc, (i, j, k, l), -v * w)
        return sums.part()

    @cached_property
    def curvature(self) -> dict[tuple[int, int], Endo]:
        """The nonzero R(e_i, e_j), i < j, in sorted pair order."""
        (d, den, e), pairs = self.curvature_parts, {}
        for (i, j, k, l), v in e.items():
            pairs.setdefault((i, j), {})[(k, l)] = v
        return {key: _endo(self.alg.dim, part(d, den, pairs[key])) for key in sorted(pairs)}

    @cached_property
    def ricci(self) -> Endo:
        """Ric(e_j, e_l) = sum_i R(e_i, e_j)[i, l], each ordered pair adding row i of
        R(e_i, e_j) = [Omega_i, Omega_j] - sum_c [e_i, e_j]_c Omega_c alone.  A term (t, s,
        c, v) adds v times row s of Omega_c into Ric(e_t, .): row i of Omega_i meets every
        Omega_j, Omega_j[i, m] meets -Omega_i, [e_a, e_b]_c = v is -v at (b, a), v at (a, b)."""
        omega, n = [f.part for f in self.conn.omega], self.alg.dim
        rows = [(d, den, _rows(e)) for d, den, e in omega]
        terms = [(d, den, j, m, j, v) for i, (d, den, r) in enumerate(rows)
                 for m, v in r.get(i, ()) for j in range(n)]
        terms += [(d, den, j, m, i, -v) for j, (d, den, e) in enumerate(omega) for (i, m), v in e.items()]
        terms += [(self.alg.degree, den, a, b, c, v) for a, row in enumerate(self.alg._parts)
                  for b, (den, e) in row.items() for c, v in e.items()]  # [e_a, e_b]_c = v, both orders
        sums = PartSum("Ricci")  # den -> (t, l) -> sum
        for d, den, t, s, c, v in terms:
            dc, nc, rc = rows[c]
            row = rc.get(s)
            if row:
                acc = sums.at(d + dc, den * nc)
                for l, w in row:
                    accumulate(acc, (t, l), v * w)
        return _endo(n, sums.part())

    @cached_property
    def holonomy(self) -> list[Endo]:
        """Ambrose-Singer closure: curvature endomorphisms, closed under
        bracketing with the connection forms and among themselves; a basis
        of rational endomorphisms, valid for every l > 0 (see `_holonomy_span`)."""
        return self._holonomy_span[0]

    @cached_property
    def _curvature_span(self) -> tuple[list[Endo], Span, list]:
        """A basis B_c of the span V of the curvature, each R(e_i, e_j) pushed at degree 0
        in pair order, and the coordinates of -R the pushes hand back (see `_push`), as
        (i, j, degree, den, {c: int}); the holonomy closure goes on from V."""
        n = self.alg.dim
        span, members = Span(n * n + n * (n - 1) // 2), []  # so(n) bounds the basis
        coords = [(i, j, d, *_push(span, members, _endo(n, (0, den, e))))
                  for (i, j), (d, den, e) in ((key, r.part) for key, r in self.curvature.items())]
        return members, span, coords

    @cached_property
    def _holonomy_span(self) -> tuple[list[Endo], Span]:
        """The holonomy basis at l = 1 and the span it is built on, continuing `_curvature_span`,
        which holds V first.  Each connection form and each R(e_i, e_j) is one monomial in l,
        so at any l > 0 it is a positive multiple of its value at 1, the element of the span.
        Member a meets each form and the members before it: each pair once.  Skew forms keep R
        and every bracket in so(n), so the closure stops when n(n - 1)/2 members span all of it."""
        n = self.alg.dim
        omegas = [_endo(n, (0, den, e)) for _, den, e in (f.part for f in self.conn.omega) if e]
        members, span, _ = self._curvature_span
        full = n * (n - 1) // 2 if all(o.is_skew() for o in omegas) else None
        for a, h in enumerate(members):  # members grows as it is read: a breadth-first closure
            for o in chain(omegas, members[:a]):
                if len(members) == full:
                    return members, span
                _push(span, members, o.commutator(h))
        return members, span

    @cached_property
    def torsion_parallel(self) -> bool:
        """Whether the torsion is totally skew and parallel."""
        t3 = self.torsion_form
        return t3 is not None and is_parallel(self.conn, t3)

    @cached_property
    def curvature_coordinates(self) -> list[KForm]:
        """The coordinates of -R in the basis B_c of V, as `_curvature_span` read them: the
        2-forms s^c of -R = sum_c s^c B_c, one per B_c, none zero, as R spans V."""
        members, _, coords = self._curvature_span
        raw: list[list] = [[] for _ in members]
        for i, j, d, den, e in coords:
            for c, v in e.items():
                raw[c].append((d, den, {(i, j): v}))
        return [_kform(self.alg.dim, 2, graded(r)) for r in raw if r]

    def _nabla_curvature(self, x: int):
        """The 2-forms D^c = Omega_x . s^c + sum_b C^c_b s^b of nabla_{e_x} (-R) = sum_c D^c B_c,
        lazily in c, C^c_b coordinate c of [Omega_x, B_b]: exact, as the B_c are independent
        and hold R and each [Omega_x, B_b].  nabla_{e_x} R = 0 puts [Omega_x, R(e_i, e_j)] =
        R(Omega_x e_i, e_j) + R(e_i, Omega_x e_j) in V, and each B_b is a value of R at l = 1,
        as R is one monomial in l: a bracket outside the span answers None, nabla_{e_x} R != 0."""
        members, span, _ = self._curvature_span
        a, forms, n = self.conn.omega[x], self.curvature_coordinates, self.alg.dim
        terms = {c: [(0, 1, 1, _act_on_form(a, f).part)] for c, f in enumerate(forms)}  # c -> (dc, nc, w, f)
        for f, bracket in zip(forms, (b.commutator(a) for b in members)):  # -[B_b, A] = [A, B_b]
            coords = _coordinates(span, bracket)
            if coords is None:
                return None
            dc, nc, ec = coords
            for c, w in ec.items():
                terms.setdefault(c, []).append((dc, nc, w, f.part))
        return (_kform(n, 2, graded((d + dc, den * nc, {ij: w * v for ij, v in e.items()})
                                    for dc, nc, w, (d, den, e) in terms.get(c, ()) if e))
                for c in range(len(members)))

    @cached_property
    def curvature_parallel(self) -> bool:
        """Whether nabla_{e_x} R = 0 for every x with Omega_x != 0, up to the first D^c that moves."""
        return all((d := self._nabla_curvature(x)) is not None and all(f.is_zero() for f in d)
                   for x, a in enumerate(self.conn.omega) if not a.is_zero())

    @cached_property
    def transvection_algebra(self):
        """The homogeneous algebra hol + m as one structure-constant table.

        hol takes the indices 0..h-1 of the holonomy basis, m the indices h..h+n-1
        of the frame X_i = e_i / l.  The brackets are [A, B] in holonomy coordinates,
        read on the span of the closure, [A, X_i] = A X_i from the entries of A, and
        [X_i, X_j] = -(R(e_i, e_j) + T(e_i, e_j)) / l^2 from `curvature_coordinates`
        and `torsion_parts`, each summed from its raw parts in one `graded`.  The
        frame scales each Jacobi sum by a power of l, so for every l > 0 it
        vanishes as in the frame e_i, at the same triples.  There the
        canonical R has degree 2 and T degree 1 (33 of the 162 brackets at p = 5
        hold both); dividing by l^2 sets both at 0, by a numeric l moves no degree,
        and every bracket has degree 0.  Requires, in this order, totally
        skew and parallel torsion, parallel R and a closure closed under its bracket
        that holds R: (table, None), else (None, witness).  The m-part of [X_i, X_j]
        is then -T(e_i, e_j) / l with T totally skew: hol + m is reductive.
        """
        if self.torsion_form is None:
            return None, ("torsion not totally skew",)
        if not self.torsion_parallel:
            return None, ("torsion not parallel",)
        if not self.curvature_parallel:
            return None, ("curvature not parallel",)

        hol, span = self._holonomy_span
        h, n = len(hol), self.alg.dim
        raw: dict[tuple[int, int], list] = {}  # (x, y) -> raw parts of [x, y]
        for a, b in combinations(range(h), 2):
            coords = _coordinates(span, hol[b].commutator(hol[a]))  # -[B, A] = [A, B]
            if coords is None:
                return None, ("holonomy not closed under bracket", a, b)
            raw[(a, b)] = [coords]
        forms = self.curvature_coordinates  # of -R, in the first B_c of hol
        if len(forms) > h:  # the first pair with a coordinate past hol
            pair = min(ij for f in forms[h:] for ij in f.part[2])
            return None, ("curvature outside holonomy span", *pair)
        dl, nl, el = homogeneous_part(self.alg.lam)  # l = el[()] l^dl / nl
        for c, f in enumerate(forms):
            d, den, e = f.part
            for (i, j), v in e.items():  # -R(e_i, e_j) / l^2
                raw.setdefault((h + i, h + j), []).append((d - 2 * dl, den * el[()] ** 2, {c: v * nl * nl}))
        for a, form in enumerate(hol):
            d, den, e = form.part
            for (k, i), v in e.items():  # A X_i is column i of A
                raw.setdefault((a, h + i), []).append((d, den, {h + k: v}))
        d, den, e = self.torsion_parts
        for (i, j, k), v in e.items():  # -T(e_i, e_j)_k / l at X_k
            raw.setdefault((h + i, h + j), []).append((d - dl, -den * el[()], {h + k: v * nl}))
        table = {key: graded(raw[key], f"bracket {key}") for key in sorted(raw)}
        return StructureConstants(h + n, {key: _vector(h + n, v) for key, v in table.items() if v[2]}), None

    @cached_property
    def transvection(self):
        """Rebuild hol + m and test it exactly: (True, None) or (False, witness).

        Checks the Jacobi identity of the rebuilt table.  Reductivity,
        <[X,Y]_m, Z> + <Y, [X,Z]_m> = 0, needs no second pass: the m-block A of
        ad(X_i) has entries A[k, j] = -T_ijk / l, and `transvection_algebra`
        builds no table before T is certified totally skew, so A + A^T = 0.
        """
        table, witness = self.transvection_algebra
        if table is None:
            return False, witness
        ok, triple = jacobi_check(table)
        return (True, None) if ok else (False, ("jacobi failure", *triple))

    @cached_property
    def first_bianchi(self) -> bool:
        """Cyclic curvature sum against the skew-torsion Bianchi identity.

        For a metric connection with totally skew torsion T:
        cyclic R(X,Y,Z,V) = dT(X,Y,Z,V) - cyclic <T(X,Y), T(Z,V)> + (nabla_V T)(X,Y,Z).

        The defect lhs - rhs is collected per (x < y < z, v) in one pass
        over the nonzero entries of the stored R(e_i, e_j), dT, nabla T and
        the torsion slices T(., ., e_m): an entry at slots (i, j, k; v) lands
        at the sorted triple (i, j, k) with the sign of the sort.
        """
        t3 = self.torsion_form
        if t3 is None:
            raise ValueError("torsion of this connection is not totally skew")
        # the defect per den of its terms; `sums.part()` adds them at the end
        sums = PartSum("first Bianchi defect")

        def put(acc: dict, i: int, j: int, k: int, v: int, c: int):
            if i > j:  # three compare-and-swaps sort (i, j, k), each negating c
                i, j, c = j, i, -c
            if j > k:
                j, k, c = k, j, -c
            if i > j:
                i, j, c = j, i, -c
            if i != j != k:
                accumulate(acc, (i, j, k, v), c)

        d, den, e = self.curvature_parts
        if e:
            acc = sums.at(d, den)
            for (i, j, v, k), c in e.items():  # g(R(e_i, e_j) e_k, e_v) = c
                put(acc, i, j, k, v, c)
        d, den, e = ce_differential(t3, self.alg).part
        if e:
            acc = sums.at(d, den)
            for idx, c in e.items():
                for s in range(4):  # dT(the other three slots, idx[s]) = (-1)^(3-s) c
                    put(acc, *idx[:s], *idx[s + 1 :], idx[s], -c if s % 2 else c)
        for v, nt in enumerate(nabla_tensor(self.conn, t3)):
            d, den, e = nt.part
            if e:
                acc = sums.at(d, den)
                for idx, c in e.items():
                    put(acc, *idx, v, -c)
        d, den, e = t3.part
        if e:
            acc, slices = sums.at(2 * d, den * den), _torsion_slices(e)
            for m, pairs in slices.items():  # <T(e_i, e_j), T(e_k, e_v)>, k < v
                for i, j, s in pairs:
                    for k, v, t in slices.get(m, ()):
                        put(acc, i, j, k, v, s * t)
                        put(acc, i, j, v, k, -(s * t))
        return not sums.part()[2]


def _torsion_slices(e: dict) -> dict[int, list[tuple[int, int, int]]]:
    """m -> [(a, b, T_abm)] with a < b, from the integer entries of a 3-form part."""
    slices: dict[int, list[tuple[int, int, int]]] = {}
    for (a, b, c), w in e.items():
        slices.setdefault(c, []).append((a, b, w))
        slices.setdefault(b, []).append((a, c, -w))
        slices.setdefault(a, []).append((b, c, w))
    return slices


def transvection_check(alg: QHAlgebra, conn: Connection):
    """(True, None) or (False, witness); see Geometry.transvection."""
    return Geometry(alg, conn).transvection


# -- covariant derivatives of frame-constant tensors -----------------------


def _replace_sorted(idx: tuple[int, ...], t: int, b: int) -> tuple[int, tuple[int, ...]]:
    """`_sort_tuple` of the increasing idx with slot t replaced by b: b moves
    from slot t to its place pos among the other entries, |pos - t| swaps."""
    rest = idx[:t] + idx[t + 1 :]
    pos = bisect_left(rest, b)
    if pos < len(rest) and rest[pos] == b:
        return 0, ()
    return -1 if (pos - t) % 2 else 1, rest[:pos] + (b,) + rest[pos:]


def _act_on_form(a: Endo, f: KForm) -> KForm:
    """Natural so(n) action on a k-form: (A.f)(..Y..) = -sum f(..AY..)."""

    def act(ea: dict, ef: dict) -> dict:
        rows = _rows(ea)
        acc: dict = {}
        for idx, c in ef.items():
            for t, i in enumerate(idx):
                # A acts on the dual basis by A.e^i = -sum_b A[i,b] e^b
                for b, v in rows.get(i, ()):
                    sign, key = _replace_sorted(idx, t, b)
                    if sign:
                        accumulate(acc, key, -c * v if sign > 0 else c * v)
        return acc

    return _kform(f.dim, f.degree, _product(a.part, f.part, act))


def _nabla_kernel(tensor):
    """A -> nabla_A tensor, for a KForm, Endo or Vector."""
    if isinstance(tensor, KForm):
        return lambda a: _act_on_form(a, tensor)
    if isinstance(tensor, Endo):
        return lambda a: a.commutator(tensor)
    if isinstance(tensor, Vector):
        return lambda a: a.apply(tensor)
    raise TypeError(f"cannot differentiate {type(tensor).__name__}")


def nabla_tensor(conn: Connection, tensor):
    """Covariant derivative per frame direction of a frame-constant tensor."""
    kernel = _nabla_kernel(tensor)
    return [kernel(a) for a in conn.omega]


def is_parallel(conn: Connection, tensor) -> bool:
    """Whether nabla_{e_i} tensor = 0 for every i: the kernel of `nabla_tensor`,
    run direction by direction up to the first derivative that is nonzero."""
    kernel = _nabla_kernel(tensor)
    return all(kernel(a).is_zero() for a in conn.omega)


# -- holonomy ----------------------------------------------------------------


def _push(span: Span, members: list[Endo], e: Endo) -> tuple[int, dict]:
    """Append e, of degree 0, to the basis when it lies outside its span; return the
    part (den, {a: int}) of the coordinates of -e in the basis, -1 at a when e is b_a.

    Element b_a, of part (d_a, t_a), is the one row [t_a | d_a e_a] = d_a [b_a | e_a].
    Outside the span, the row res that `_read` leaves, with den res_den d_a at column
    n^2 + a, is res_den d_a [e | e_a] modulo the span.  An element past so(n) raises.
    """
    if not e.part[2]:
        return 1, {}
    _, den, res, coords = _read(span, e)
    if coords is not None:
        return den, coords
    nn = e.dim * e.dim
    if nn + len(members) == span.n:
        raise ArithmeticError("holonomy closure exceeded so(n)")
    span.add({**res, nn + len(members): den})
    members.append(e)
    return 1, {len(members) - 1: -1}


def _coordinates(span: Span, e: Endo) -> tuple | None:
    """The raw part (degree, den, {a: int}) of the coordinates of -e in the basis
    b_a of `_push`, or None when e is outside its span (see `_read`)."""
    d, den, _, coords = _read(span, e)
    return None if coords is None else (d, den, coords)


def _read(span: Span, e: Endo) -> tuple[int, int, dict, dict | None]:
    """e, of part (d, den, t), reduced against the basis b_a of `_push`, as
    (d, den res_den, res, coords).  [t | 0] reduces to res / res_den = den [e - s | -x],
    s = sum_a x_a b_a, so e is in the span iff res has no entry below column n^2.
    Then coords = {a: int} are the identity columns n^2 + a of res, and over
    den res_den they are -x, the coordinates of -e; else coords is None.
    """
    nn = e.dim * e.dim
    d, den, entries = e.part
    res_den, res = span.reduce({r * e.dim + c: v for (r, c), v in entries.items()})
    inside = min(res, default=nn) >= nn
    return d, den * res_den, res, {j - nn: x for j, x in res.items()} if inside else None


def invariant_subspace(basis: list[Endo], indices: tuple[int, ...]) -> bool:
    """Whether span(e_i : i in indices) is preserved by every endo."""
    inside = set(indices)
    return not any(
        c in inside and r not in inside
        for e in basis
        for r, c in e.part[2]
    )


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
    vertical = alg.vertical_indices
    span = Span(3)
    for e in basis:  # a monomial in l: its rows at l = 1 span what they span at every l > 0
        x = e.part[2]
        for r in vertical:
            span.add({k: x[r, c] for k, c in enumerate(vertical) if (r, c) in x})
    return span.dim == 3  # zero joint kernel
