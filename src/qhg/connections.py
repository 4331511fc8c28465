"""Left-invariant metric connections: curvature, holonomy, reductivity.

A left-invariant connection is the linear map X -> Omega(X) into the
skew endomorphisms, nabla_X Y = Omega(X) Y on invariant fields.  The
Levi-Civita map comes from the Koszul formula; adding half of a torsion
3-form produces the metric connection with that skew torsion.  On
frame-constant tensors nabla_X acts through the natural so(n) action of
Omega(X), which is what all parallelism checks below use.  `Geometry`
bundles one connection with the tensors read from it (torsion,
curvature, Ricci, holonomy, parallelism, hol + m), each computed at most
once, on first read.  Torsion, curvature and Ricci are each one pass over
the stored entries of the connection forms into integer parts keyed by
index tuples.  The span of the curvature and the holonomy closure built
on it share one basis; nabla R and hol + m read the curvature in it.
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
    _sort_tuple,
    _vector,
    ce_differential,
    two_form_endo,
    wedge,
)
from .linalg import Span
from .scalars import Scalar, _normal, _product, accumulate, graded, homogeneous_part


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
    n = alg.dim
    # per direction: (degree, den) -> integer sums, halved through the den
    sums: list[dict[tuple[int, int], dict]] = [{} for _ in range(n)]
    for a, row in enumerate(alg._parts):
        for b, terms in row.items():
            for d, den, e in terms:
                for m, c in e.items():
                    accumulate(sums[a].setdefault((d, den), {}), (m, b), c)
                    accumulate(sums[m].setdefault((d, den), {}), (b, a), -c)
                    accumulate(sums[b].setdefault((d, den), {}), (a, m), c)
    return Connection([
        _endo(n, graded((d, 2 * den, acc) for (d, den), acc in s.items())) for s in sums
    ])


def with_torsion(alg: QHAlgebra, t: KForm) -> Connection:
    """Metric connection whose totally skew torsion is the 3-form t.

    Omega(e_x) = Omega^g(e_x) + (1/2) e_x . t, in one pass over the nonzero
    entries of t: v e^{abc} adds v/2 at (c, b) of Omega(e_a), (a, c) of
    Omega(e_b) and (b, a) of Omega(e_c), and -v/2 at the transposed entries;
    each direction then sums its Levi-Civita and torsion parts in one `graded`.
    """
    if t.degree != 3:
        raise ValueError("torsion must be a 3-form")
    if t.dim != alg.dim:
        raise ValueError("torsion does not live on this algebra")
    raw = [[(d, den, e) for d, (den, e) in form.parts.items()] for form in levi_civita(alg).omega]
    for d, (den, e) in t.parts.items():
        # direction -> integer entries; a 3-form reaches each key at most once
        half: dict[int, dict] = {}
        for (a, b, c), v in e.items():
            for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):  # e_x . e^{xyz} = e^{yz}
                acc = half.setdefault(x, {})
                acc[(z, y)], acc[(y, z)] = v, -v
        for x, acc in half.items():
            raw[x].append((d, 2 * den, acc))
    return Connection([_endo(alg.dim, graded(r)) for r in raw])


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
                 for x, form in enumerate(lc.omega) for d, (den, e) in form.parts.items())
    rhs = graded((d, 2 * den, {(i, x, k): v for (k, x), v in e.items()}) for i in vertical
                 for d, (den, e) in two_form_endo(ce_differential(alg.eta(i + 1), alg)).parts.items())
    return lhs == rhs


def su2_curvature(alg: QHAlgebra) -> dict:
    """Closed form of the canonical `Geometry.curvature_parts`: R(e_i, e_j) =
    lam^2 sum_k h_k(e_i, e_j) H_k, with h_k the su2_generators and H_k their
    endomorphisms, an entry (i, j) of h_k times an entry (k, l) of H_k."""
    raw = []
    for form in su2_generators(alg):
        h = two_form_endo(form).scale(alg.lam * alg.lam)
        raw += [(df + dh, nf * nh, {ij + kl: c * w for ij, c in ef.items() for kl, w in eh.items()})
                for df, (nf, ef) in form.parts.items() for dh, (nh, eh) in h.parts.items()]
    return graded(raw)


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
    on it, the holonomy basis, the parallelism verdicts and the table of hol + m.

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
    def torsion_parts(self) -> dict:
        """T(e_i, e_j)_k, i < j, as parts {degree: (den, {(i, j, k): int})}.

        T(e_i, e_j) = Omega(e_i)e_j - Omega(e_j)e_i - [e_i, e_j] in one pass
        over the nonzero entries: entry (k, j) = v of Omega(e_i) lands at the
        sorted pair, v at (i, j, k) for i < j and -v at (j, i, k) for i > j;
        then the stored brackets [e_i, e_j]_k, i < j, are subtracted.
        """
        buckets: dict[tuple[int, int], dict] = {}  # (degree, den) -> (i, j, k) -> sum
        for i, form in enumerate(self.conn.omega):
            for d, (den, e) in form.parts.items():
                acc = buckets.setdefault((d, den), {})
                for (k, j), v in e.items():
                    if i != j:
                        accumulate(acc, (i, j, k) if i < j else (j, i, k), v if i < j else -v)
        for (i, j), bracket in self.alg._sc.items():
            for d, (den, e) in bracket.parts.items():
                acc = buckets.setdefault((d, den), {})
                for k, v in e.items():
                    accumulate(acc, (i, j, k), -v)
        return graded((d, den, acc) for (d, den), acc in buckets.items())

    @cached_property
    def torsion_form(self) -> KForm | None:
        """The torsion as a 3-form, or None when it is not totally skew, that is
        when a part of T is not the alternating extension of its i < j < k entries."""
        raw = []
        for d, (den, e) in self.torsion_parts.items():
            t = {(i, j, k): v for (i, j, k), v in e.items() if j < k}
            skew = {}
            for (a, b, c), v in t.items():
                skew[(a, b, c)], skew[(a, c, b)], skew[(b, c, a)] = v, -v, v
            if skew != e:
                return None
            raw.append((d, den, t))
        return _kform(self.alg.dim, 3, graded(raw))

    @cached_property
    def curvature_parts(self) -> dict:
        """R(e_i, e_j)[k, l], i < j, as parts {degree: (den, {(i, j, k, l): int})}.

        R(e_i, e_j) = [Omega_i, Omega_j] - sum_c [e_i, e_j]_c Omega_c in one
        pass over the stored entries: each pair of parts of Omega_i and Omega_j,
        i < j, adds its integer commutator at (i, j, ., .), and each stored
        bracket entry [e_i, e_j]_c = v subtracts v Omega_c there.
        """
        forms = [(i, d, den, e, _rows(e))
                 for i, f in enumerate(self.conn.omega) for d, (den, e) in f.parts.items()]
        buckets: dict[tuple[int, int], dict] = {}  # (degree, den) -> (i, j, k, l) -> sum
        for i, di, ni, ei, ri in forms:
            for j, dj, nj, ej, rj in forms:
                if i < j:
                    acc = buckets.setdefault((di + dj, ni * nj), {})
                    for ea, rows, sign in ((ei, rj, 1), (ej, ri, -1)):
                        for (k, m), v in ea.items():
                            for l, w in rows.get(m, ()):
                                accumulate(acc, (i, j, k, l), sign * v * w)
        for (i, j), bracket in self.alg._sc.items():
            for d, (den, e) in bracket.parts.items():
                for c, v in e.items():
                    for dc, (nc, ec) in self.conn.omega[c].parts.items():
                        acc = buckets.setdefault((d + dc, den * nc), {})
                        for (k, l), w in ec.items():
                            accumulate(acc, (i, j, k, l), -v * w)
        return graded((d, den, acc) for (d, den), acc in buckets.items())

    @cached_property
    def curvature(self) -> dict[tuple[int, int], Endo]:
        """The nonzero R(e_i, e_j), i < j, in sorted pair order."""
        parts, pairs = self.curvature_parts, {}
        for d, (_, e) in parts.items():
            for (i, j, k, l), v in e.items():
                pairs.setdefault((i, j), {}).setdefault(d, {})[(k, l)] = v
        return {key: _endo(self.alg.dim, {d: _normal(parts[d][0], e) for d, e in pairs[key].items()})
                for key in sorted(pairs)}

    @cached_property
    def ricci(self) -> Endo:
        """Ric(e_j, e_l) = sum_i R(e_i, e_j)[i, l], each ordered pair adding row i of
        R(e_i, e_j) = [Omega_i, Omega_j] - sum_c [e_i, e_j]_c Omega_c alone.  A term (t, s,
        c, v) adds v times row s of Omega_c into Ric(e_t, .): row i of Omega_i meets every
        Omega_j, Omega_j[i, m] meets -Omega_i, [e_a, e_b]_c = v is -v at (b, a), v at (a, b)."""
        omega, n = self.conn.omega, self.alg.dim
        rows = [[(d, den, _rows(e)) for d, (den, e) in f.parts.items()] for f in omega]
        terms = [(d, den, j, m, j, v) for i, parts in enumerate(rows) for d, den, r in parts
                 for m, v in r.get(i, ()) for j in range(n)]
        terms += [(d, den, j, m, i, -v) for j, f in enumerate(omega)
                  for d, (den, e) in f.parts.items() for (i, m), v in e.items()]
        terms += [(d, den, t, s, c, f) for (a, b), bracket in self.alg._sc.items()
                  for d, (den, e) in bracket.parts.items() for c, v in e.items()
                  for t, s, f in ((b, a, -v), (a, b, v))]
        buckets: dict[tuple[int, int], dict] = {}  # (degree, den) -> (t, l) -> sum
        for d, den, t, s, c, v in terms:
            for dc, nc, rc in rows[c]:
                acc = buckets.setdefault((d + dc, den * nc), {})
                for l, w in rc.get(s, ()):
                    accumulate(acc, (t, l), v * w)
        return _endo(n, graded((d, den, acc) for (d, den), acc in buckets.items()))

    @cached_property
    def holonomy(self) -> list[Endo]:
        """Ambrose-Singer closure: curvature endomorphisms, closed under
        bracketing with the connection forms and among themselves; a basis
        of rational endomorphisms, valid for every l > 0 (see `_holonomy_at`)."""
        return self._holonomy_span[0]

    @cached_property
    def _curvature_span(self) -> tuple[list[Endo], Span]:
        """A basis B_c of the span V of the curvature, each part of each R(e_i, e_j) at
        degree 0 pushed in pair order (see `_push`); the holonomy closure goes on from it."""
        n = self.alg.dim
        span, members = Span(n * n + n * (n - 1) // 2), []  # so(n) bounds the basis
        for den, e in (part for r in self.curvature.values() for part in r.parts.values()):
            _push(span, members, _endo(n, {0: (den, e)}))
        return members, span

    @cached_property
    def _holonomy_span(self) -> tuple[list[Endo], Span]:
        """The holonomy basis and the span it is built on, which hold V first."""
        return _holonomy_at(self)

    @cached_property
    def torsion_parallel(self) -> bool:
        """Whether the torsion is totally skew and parallel."""
        t3 = self.torsion_form
        return t3 is not None and is_parallel(self.conn, t3)

    @cached_property
    def curvature_coordinates(self) -> list[KForm]:
        """The coordinates of -R in the basis B_c of V, read once on its span: the
        2-forms s^c of -R = sum_c s^c B_c, one per B_c, none zero, as R spans V."""
        members, span = self._curvature_span
        raw: list[list] = [[] for _ in members]
        for (i, j), r in self.curvature.items():
            for d, den, e in _coordinates(span, r):  # never None: R(e_i, e_j) lies in V
                for c, v in e.items():
                    raw[c].append((d, den, {(i, j): v}))
        return [_kform(self.alg.dim, 2, graded(r)) for r in raw if r]

    def _nabla_curvature(self, x: int):
        """The 2-forms D^c = Omega_x . s^c + sum_b C^c_b s^b of nabla_{e_x} (-R) = sum_c D^c B_c,
        lazily in c, C^c_b coordinate c of [Omega_x, B_b]: exact, as the B_c are independent
        and hold R and each [Omega_x, B_b].  nabla_{e_x} R = 0 puts [Omega_x, R(e_i, e_j)] =
        R(Omega_x e_i, e_j) + R(e_i, Omega_x e_j) in V: for R homogeneous in l, each B_b a value
        of R, a bracket outside the span answers None, nabla_{e_x} R != 0.  Else its parts
        join the basis; the holonomy then fails its certificate and is never built."""
        members, span = self._curvature_span
        a, forms, n = self.conn.omega[x], self.curvature_coordinates, self.alg.dim
        terms = {c: [(0, 1, 1, _act_on_form(a, f))] for c, f in enumerate(forms)}  # c -> (dc, nc, w, f)
        for f, bracket in zip(forms, (b.commutator(a) for b in members)):  # -[B_b, A] = [A, B_b]
            coords = _coordinates(span, bracket)
            if coords is None:
                if all(len(r.parts) == 1 for r in self.curvature.values()):
                    return None
                for den, e in bracket.parts.values():
                    _push(span, members, _endo(n, {0: (den, e)}))
                coords = _coordinates(span, bracket)
            for dc, nc, ec in coords:
                for c, w in ec.items():
                    terms.setdefault(c, []).append((dc, nc, w, f))
        return (_kform(n, 2, graded((d + dc, den * nc, {ij: w * v for ij, v in e.items()})
                                    for dc, nc, w, f in terms.get(c, ()) for d, (den, e) in f.parts.items()))
                for c in range(len(members)))

    @cached_property
    def curvature_parallel(self) -> bool:
        """Whether nabla_{e_x} R = 0 for every x with Omega_x != 0, up to the first D^c that moves."""
        return all((d := self._nabla_curvature(x)) is not None and not any(f.parts for f in d)
                   for x, a in enumerate(self.conn.omega) if a.parts)

    @cached_property
    def transvection_algebra(self):
        """The homogeneous algebra hol + m as one structure-constant table.

        hol takes the indices 0..h-1 of the holonomy basis, m the indices
        h..h+n-1 of the frame.  The brackets are [A, B] and -R(e_i, e_j) in
        holonomy coordinates, read on the span of the closure, [A, e_i] =
        A e_i from the entries of A and -T(e_i, e_j) from `torsion_parts`,
        each bracket summed from its raw parts in one `graded`.  Requires, in
        this order, totally skew and parallel torsion, parallel R and a closure
        closed under its bracket that holds R: (table, None), else (None, witness).
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
            raw[(a, b)] = coords
        forms = self.curvature_coordinates  # of -R, in the first B_c of hol
        if len(forms) > h:  # the first pair with a coordinate past hol
            pair = min(ij for f in forms[h:] for _, e in f.parts.values() for ij in e)
            return None, ("curvature outside holonomy span", *pair)
        for c, f in enumerate(forms):
            for d, (den, e) in f.parts.items():
                for (i, j), v in e.items():
                    raw.setdefault((h + i, h + j), []).append((d, den, {c: v}))
        for a, form in enumerate(hol):
            for d, (den, e) in form.parts.items():
                for (k, i), v in e.items():  # A e_i is column i of A
                    raw.setdefault((a, h + i), []).append((d, den, {h + k: v}))
        for d, (den, e) in self.torsion_parts.items():
            for (i, j, k), v in e.items():  # -T(e_i, e_j)
                raw.setdefault((h + i, h + j), []).append((d, -den, {h + k: v}))
        table = {key: graded(raw[key]) for key in sorted(raw)}
        return StructureConstants(h + n, {key: _vector(h + n, v) for key, v in table.items() if v}), None

    @cached_property
    def transvection(self):
        """Rebuild hol + m and test it exactly: (True, None) or (False, witness).

        Checks the Jacobi identity of the rebuilt table and the reductivity
        condition <[X,Y]_m, Z> + <Y, [X,Z]_m> = 0 on all frame triples.
        """
        table, witness = self.transvection_algebra
        if table is None:
            return False, witness
        ok, triple = jacobi_check(table)
        if not ok:
            return False, ("jacobi failure", *triple)
        triple = _reductivity_failure(table, self.alg.dim)
        if triple is not None:
            return False, ("reductivity failure", *triple)
        return True, None

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
        # the defect per (degree, den) of its terms; `graded` sums them at the end
        buckets: dict[tuple[int, int], dict] = {}

        def put(acc: dict, triple: tuple[int, int, int], v: int, c: int):
            sign, key = _sort_tuple(triple)
            if sign:
                accumulate(acc, key + (v,), c if sign > 0 else -c)

        for d, (den, e) in self.curvature_parts.items():
            acc = buckets.setdefault((d, den), {})
            for (i, j, v, k), c in e.items():  # g(R(e_i, e_j) e_k, e_v) = c
                put(acc, (i, j, k), v, c)
        for d, (den, e) in ce_differential(t3, self.alg).parts.items():
            acc = buckets.setdefault((d, den), {})
            for idx, c in e.items():
                for s in range(4):  # dT(the other three slots, idx[s]) = (-1)^(3-s) c
                    put(acc, idx[:s] + idx[s + 1 :], idx[s], -c if s % 2 else c)
        for v, nt in enumerate(nabla_tensor(self.conn, t3)):
            for d, (den, e) in nt.parts.items():
                acc = buckets.setdefault((d, den), {})
                for idx, c in e.items():
                    put(acc, idx, v, -c)
        slices = {d: (den, _torsion_slices(e)) for d, (den, e) in t3.parts.items()}
        for d1, (n1, s1) in slices.items():
            for d2, (n2, s2) in slices.items():
                acc = buckets.setdefault((d1 + d2, n1 * n2), {})
                for m, pairs in s1.items():  # <T(e_i, e_j), T(e_k, e_v)>, k < v
                    for i, j, s in pairs:
                        for k, v, t in s2.get(m, ()):
                            put(acc, (i, j, k), v, s * t)
                            put(acc, (i, j, v), k, -(s * t))
        return not graded((d, den, acc) for (d, den), acc in buckets.items())


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

    return _kform(f.dim, f.degree, _product(a.parts, f.parts, act))


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


def _at_one(e: Endo, label: str) -> Endo:
    """e at l = 1, certified homogeneous in l: its one part, moved to degree 0."""
    _, den, entries = homogeneous_part(e, label)
    return _endo(e.dim, {0: (den, entries)} if entries else {})


def _holonomy_at(geo: Geometry) -> tuple[list[Endo], Span]:
    """The holonomy closure at l = 1, continuing `Geometry._curvature_span`.  Each
    connection form and each R(e_i, e_j) is certified homogeneous in l, so at any
    l > 0 it is a positive multiple of its value at 1, the element of the span."""
    omegas = [o for i, f in enumerate(geo.conn.omega) if (o := _at_one(f, f"connection form {i}")).parts]
    for (i, j), e in geo.curvature.items():
        homogeneous_part(e, f"R(e_{i}, e_{j})")
    members, span = geo._curvature_span
    for h in members:  # members grows as it is read: a breadth-first closure
        for o in chain(omegas, members):
            _push(span, members, o.commutator(h))
    return members, span


def _push(span: Span, members: list[Endo], e: Endo) -> None:
    """Append e, of degree 0, to the basis when it lies outside its span.

    Element b_a, of part (d_a, t_a), is the one row [t_a | d_a e_a] =
    d_a [b_a | e_a].  A candidate e of part (den, t) reduces [t | 0] to res / res_den =
    den [e - s | -x], s = sum_a x_a b_a, so it is outside the span iff res has
    an entry below column n^2; then res with den res_den at column n^2 + a is
    res_den den [e | e_a] modulo the span.  An element past so(n) raises.
    """
    if not e.parts:
        return
    ((den, entries),) = e.parts.values()  # of degree 0: one part
    nn = e.dim * e.dim
    res_den, res = span.reduce({r * e.dim + c: v for (r, c), v in entries.items()})
    if min(res, default=nn) < nn:
        if nn + len(members) == span.n:
            raise ArithmeticError("holonomy closure exceeded so(n)")
        span.add({**res, nn + len(members): den * res_den})
        members.append(e)


def _coordinates(span: Span, e: Endo) -> list | None:
    """Raw parts (degree, den, {a: int}) of the coordinates of -e in the basis
    b_a of `_push`, or None when e is outside its span.  A part (den, t) of e
    reduces [t | 0] to res / res_den = [r | -x], t = r + sum_a x_a b_a: it is
    in the span iff r = 0, and then res over den res_den is -x / den.
    """
    nn = e.dim * e.dim
    raw = []
    for d, (den, entries) in e.parts.items():
        res_den, res = span.reduce({r * e.dim + c: v for (r, c), v in entries.items()})
        if min(res, default=nn) < nn:
            return None
        raw.append((d, den * res_den, {j - nn: x for j, x in res.items()}))
    return raw


def invariant_subspace(basis: list[Endo], indices: tuple[int, ...]) -> bool:
    """Whether span(e_i : i in indices) is preserved by every endo."""
    inside = set(indices)
    return not any(
        c in inside and r not in inside
        for e in basis
        for _, entries in e.parts.values()
        for r, c in entries
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
    for a, e in enumerate(basis):
        for r in vertical:  # each row certified on its own: elements may differ in degree
            raw = [(d, den, {k: x[r, c] for k, c in enumerate(vertical) if (r, c) in x})
                   for d, (den, x) in e.parts.items()]
            row = _vector(3, graded(raw))
            span.add(homogeneous_part(row, f"row {r} of holonomy element {a}")[2])
    return span.dim == 3  # zero joint kernel


# -- natural reductivity ------------------------------------------------------


def _reductivity_failure(table: StructureConstants, n: int) -> tuple[int, int, int] | None:
    """First (i, j, k) with <[e_i, e_j]_m, e_k> + <[e_i, e_k]_m, e_j> != 0.

    For fixed i the sum is entry (k, j) of A + A^T, A the m-block of
    ad(e_i).  It is symmetric in (j, k), so the first failing pair is the
    least key of A + A^T: of the bad entries of A and their transposes.
    """
    h = table.dim - n
    for i in range(n):
        raw = [
            (d, den, {(k - h, j - h): v for (k, j), v in e.items() if k >= h and j >= h})
            for d, (den, e) in table.ad(Vector.basis(table.dim, h + i)).parts.items()
        ]
        raw += [(d, den, {(j, k): v for (k, j), v in e.items()}) for d, den, e in raw]
        bad = [key for _, e in graded(raw).values() for key in e]
        if bad:
            return i, *min(bad)
    return None
