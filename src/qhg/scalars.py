"""Exact values: one monomial c * l^d in the metric parameter per value.

The groups form a one-parameter family (N, g_l), printed with parameter
``l``.  The map e -> e / l is a Lie algebra isomorphism from the algebra
at l = 1 onto the algebra at l, as [tau_a / l, tau_b / l] = l xi_c / l^2 =
xi_c / l, and it pulls g_l back to l^-2 g_1: every (N, g_l) is homothetic
to (N, g_1), the dilation of a graded nilpotent group (Folland and Stein,
*Hardy Spaces on Homogeneous Groups*, 1982).  In the orthonormal frame of
g_l each tensor built naturally from the metric and the bracket is then
one rational tensor c times one power l^d, with d fixed by its type: 1 for
the brackets, the connection forms and the torsion, 2 for the curvature
and Ricci.  So every value here is one monomial c * l^d, exactly, and
this is the one argument behind every "for all l > 0" claim: an identity
between two values of one type holds for every l > 0 iff it holds
between their rational parts c, and as l^d > 0 a rank, span, kernel or
sign read from c at l = 1 holds for every l > 0 (`homogeneous_part`).
The parameter stays formal, so the degrees are checked, not assumed.

A value holds one part ``(degree, den, {index: int})``: the entry at an
index is ``entries[index] / den * l^degree``.  Empty entries mean zero,
and zero has no degree (None).  A part in normal form has ``den > 0``,
``gcd(den, *entries) == 1`` and no zero entry, so equal values have equal
parts; that part, its degree dropped, is also the row format that
`linalg` takes and returns.  A product adds the degrees and multiplies the
denominators; `graded` brings the terms of a sum to the lcm of their
denominators and restores the normal form.  A sum or a construction that
meets two degrees raises TypeError naming both: it would add a length to
an area.  The tensors of `exterior` index their entries by frame indices;
a `Scalar` is the rank-0 case, indexed by the empty tuple, and its ring
operations run through the same kernels.  Only ints and Fractions enter a
`Scalar`, and only Fractions leave it: `coeff` and `terms` return
``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

ZERO_PART = (None, 1, {})  # shared by every zero value; no part is changed in place


class Scalar:
    """One monomial c * l^d: the part (d, den, {(): num}), c = num / den.

    Instances are immutable.  A sum of two degrees raises TypeError, and
    division by a nonzero Scalar is exact.
    """

    __slots__ = ("part",)

    def __init__(self, value=0):
        """A Scalar, an int or a Fraction, or a dict {exponent: coefficient}
        with at most one nonzero coefficient."""
        if not isinstance(value, dict):
            self.part = _part(value)
            return
        for q in value.values():
            if not isinstance(q, (int, Fraction)):
                raise TypeError(f"cannot coerce {type(q).__name__} to a rational")
        # a reduced fraction is a part in normal form
        self.part = graded(((e, q.denominator, {(): q.numerator}) for e, q in value.items() if q), "Scalar")

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.part[2]

    def coeff(self, exp: int) -> Fraction:
        d, den, e = self.part
        return Fraction(e[()], den) if d == exp and e else Fraction(0)

    def terms(self):
        """The (exponent, coefficient) pair of a nonzero Scalar, or none."""
        d, den, e = self.part
        return [(d, Fraction(e[()], den))] if e else []

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        return _scalar(_merge(self.part, _part(other), 1, "Scalar sum"))

    __radd__ = __add__

    def __neg__(self):
        return _scalar(_negate(self.part))

    def __sub__(self, other):
        return _scalar(_merge(self.part, _part(other), -1, "Scalar sum"))

    def __rsub__(self, other):
        return _scalar(_merge(_part(other), self.part, -1, "Scalar sum"))

    def __mul__(self, other):
        return _scalar(_product(self.part, _part(other), _scaled))

    __rmul__ = __mul__

    def __truediv__(self, other):
        d, den, e = _part(other)
        if not e:
            raise ZeroDivisionError("scalar division by zero")
        num = e[()]
        return _scalar(_product(self.part, (-d, abs(num), {(): den if num > 0 else -den}), _scaled))

    def __pow__(self, n: int):
        if n < 0:
            return (ONE / self) ** -n
        out = ONE
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, (Scalar, int, Fraction)):
            return self.part == _part(other)
        return NotImplemented

    def __hash__(self):
        d, den, e = self.part
        return hash((d, den, e.get(())))

    def __bool__(self):
        return bool(self.part[2])

    # -- printing --------------------------------------------------------

    def __str__(self):
        if not self:
            return "0"
        ((d, c),) = self.terms()
        if d == 0:
            return str(c)
        var = "l" if d == 1 else f"l^{d}"
        return var if c == 1 else f"-{var}" if c == -1 else f"{c}*{var}"

    def __repr__(self):
        return f"Scalar({self})"


def _scalar(part: tuple) -> Scalar:
    """The Scalar of a part (degree, den, {(): num}) already in normal form."""
    s = object.__new__(Scalar)
    s.part = part
    return s


def _part(x) -> tuple:
    """The part of a Scalar, an int or a Fraction; TypeError for any other x."""
    if isinstance(x, Scalar):
        return x.part
    if not isinstance(x, (int, Fraction)):
        raise TypeError(f"cannot coerce {type(x).__name__} to a rational")
    # a reduced fraction is a part in normal form
    return (0, x.denominator, {(): x.numerator}) if x else ZERO_PART


def _scaled(ec: dict, et: dict) -> dict:
    """The entries of any part times the entry of a scalar part."""
    c = ec[()]
    return {k: c * v for k, v in et.items()}


def homogeneous_part(tensor, label: str = "tensor", degree: int | None = None):
    """(d, den, entries): the one part of a tensor, so the tensor at l = 1 is
    entries / den and at any l > 0 it is l^d > 0 times that: a rank, span,
    kernel or definiteness read at l = 1 holds for every l > 0 (the homothety
    argument of this module's docstring).

    With `degree`, a nonzero tensor must have that degree, so that rows read
    from several tensors share one: anything else raises ArithmeticError
    naming `label`.  A zero tensor gives (degree, 1, {}).
    """
    d, den, e = tensor.part
    if not e:
        return degree, 1, {}
    if degree is not None and d != degree:
        raise ArithmeticError(f"{label} has degree {d} in l, expected {degree}")
    return d, den, e


# -- parts ----------------------------------------------------------------------


def accumulate(acc: dict, key, value) -> None:
    """acc[key] += value in place, dropping the entry when it cancels.

    The one sparse accumulation of the package: every kernel that sums
    terms into a dict goes through here.
    """
    s = acc.get(key, 0) + value
    if s:
        acc[key] = s
    else:
        acc.pop(key, None)


def _mixed(label: str, d0: int, d: int) -> TypeError:
    return TypeError(f"{label}: a term of degree {d} in l meets one of degree {d0}")


def graded(raw, label: str = "sum") -> tuple:
    """The normal-form part of the sum of raw parts (degree, den, entries).

    A raw den is a nonzero int, negative to negate its part; entries are
    nonzero ints, which may share a factor with den.  The parts are brought
    to the lcm of their denominators.  Raw parts with entries must share one
    degree, else TypeError names `label` and both degrees.  No input dict is
    changed, and an input dict may be shared by the result.
    """
    d0 = acc = None
    for d, den, entries in raw:
        if not entries:
            continue
        if acc is None:
            d0, den0, acc, owned = d, den, entries, False
            continue
        if d != d0:
            raise _mixed(label, d0, d)
        common = lcm(den0, den)
        f0 = common // den0
        if f0 != 1 or not owned:
            acc = {k: v * f0 for k, v in acc.items()} if f0 != 1 else dict(acc)
        f = common // den
        for k, v in entries.items():
            accumulate(acc, k, v * f)
        den0, owned = common, True
    return part(d0, den0, acc) if acc else ZERO_PART


class PartSum:
    """A sum of raw terms of one degree, kept per denominator: `at(d, den)`
    is the integer entries that a term of degree d and denominator den adds
    into, and `part()` the normal-form sum.  A term of a second degree
    raises TypeError naming `label` and both degrees.  Callers pass only
    terms with entries: zero has no degree."""

    __slots__ = ("label", "degree", "by_den")

    def __init__(self, label: str):
        self.label, self.degree, self.by_den = label, None, {}

    def at(self, d: int, den: int) -> dict:
        if d != self.degree:
            if self.degree is not None:
                raise _mixed(self.label, self.degree, d)
            self.degree = d
        acc = self.by_den.get(den)
        if acc is None:
            acc = self.by_den[den] = {}
        return acc

    def part(self) -> tuple:
        return graded(((self.degree, den, acc) for den, acc in self.by_den.items()), self.label)


def part(d: int, den: int, entries: dict) -> tuple:
    """graded([(d, den, entries)]): the normal form of one raw part."""
    return (d, *_normal(den, entries)) if entries else ZERO_PART


def _normal(den: int, entries: dict) -> tuple[int, dict]:
    """(den, entries) with den > 0 and the content divided out."""
    if den == 1:
        return 1, entries
    g = gcd(den, *entries.values())
    if den < 0:
        g = -g
    if g == 1:
        return den, entries
    return den // g, {k: v // g for k, v in entries.items()}


def _merge(a: tuple, b: tuple, sign: int, label: str) -> tuple:
    """The part of a + sign * b."""
    if not b[2]:
        return a
    if not a[2] and sign > 0:
        return b
    return graded([a, (b[0], sign * b[1], b[2])], label)


def _negate(a: tuple) -> tuple:
    d, den, e = a
    return (d, den, {k: -v for k, v in e.items()}) if e else a


def _product(a: tuple, b: tuple, kernel) -> tuple:
    """The part of a bilinear product given on integer entries by kernel(ea, eb)."""
    da, na, ea = a
    db, nb, eb = b
    if not (ea and eb):
        return ZERO_PART
    return part(da + db, na * nb, kernel(ea, eb))


# -- tensor entries as Scalars ----------------------------------------------------


def part_of(items, label: str) -> tuple:
    """The normal-form part of the pairs (index, Scalar, int or Fraction); an
    index may repeat, and its values add.  Values of two degrees raise
    TypeError naming `label`, the index of the second and both degrees."""
    raw, d0 = [], None
    for key, s in items:
        d, den, e = _part(s)
        if e:
            if d0 is None:
                d0, first = d, key
            elif d != d0:
                raise TypeError(f"{label} at index {key}: degree {d} in l meets degree {d0} at index {first}")
            raw.append((d, den, {key: e[()]}))
    return graded(raw, label)


def scalar_at(p: tuple, key) -> Scalar:
    """The entry at one index of the part p, as a Scalar."""
    d, den, e = p
    return _scalar((d, *_normal(den, {(): e[key]})) if key in e else ZERO_PART)


def scalars_of(p: tuple) -> dict:
    """index -> nonzero Scalar, in sorted index order, built from the part p."""
    return {k: scalar_at(p, k) for k in sorted(p[2])}


def scalar_of(d: int, den: int, num: int) -> Scalar:
    """The Scalar num / den * l^d."""
    return _scalar(part(d, den, {(): num} if num else {}))


ZERO = Scalar(0)
ONE = Scalar(1)
LAM = Scalar({1: 1})  # the formal metric parameter
