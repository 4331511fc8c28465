"""Exact scalar arithmetic: Laurent polynomials in the metric parameter.

Every number in this package is a Laurent polynomial in the metric
parameter (printed ``l``) with arbitrary-precision rational coefficients.
All geometric identities we verify are polynomial identities in that
parameter, so keeping it formal proves them for every positive value at
once.  Rank, span and sign questions need rationals: `homogeneous_at_one`
certifies that some scalars share one parameter degree and reads them at
l = 1, which then decides the question for every positive value.

A stored coefficient is an ``int`` when integral and a ``Fraction`` only
when not (`_norm`), so integral sums and products are plain ``int``
operations; division and negative powers go through ``Fraction``.  No
``int`` leaves a `Scalar`: `coeff`, `rational_value`, `terms` and
`specialize` return ``Fraction``; printing, ``==`` and hashing agree.

Tensors do not hold a `Scalar` per entry.  They hold graded parts
``{degree: (den, {index: int})}``: the entry at an index is
``sum_d entries_d[index] / den_d * l^d``.  A part in normal form has
``den > 0``, ``gcd(den, *entries) == 1`` and no zero entry, and no part is
empty, so equal tensors have equal parts.  A product of parts adds the
degrees and multiplies the denominators; `graded` brings parts of one
degree to the lcm of their denominators and restores the normal form.
A report's tensors have one part each, except the vectors of the hol + m
table, whose curvature coordinates and torsion sit at two degrees.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Rat = Fraction


def _norm(q):
    """The stored form of a rational: int when integral, else Fraction."""
    if not isinstance(q, (int, Fraction)):
        raise TypeError(f"cannot coerce {type(q).__name__} to a rational")
    return q.numerator if q.denominator == 1 else q


class Scalar:
    """Sparse Laurent polynomial, exponent -> nonzero rational coefficient.

    Instances are immutable.  Division is defined only by monomials
    ``c*l^k`` (the units of the Laurent ring); anything else raises
    ValueError rather than silently leaving the ring.
    """

    __slots__ = ("_c",)

    def __init__(self, value=0):
        if isinstance(value, Scalar):
            self._c = value._c
        elif isinstance(value, dict):
            self._c = {e: _norm(c) for e, c in value.items() if c != 0}
        else:
            q = _norm(value)
            self._c = {0: q} if q != 0 else {}

    @staticmethod
    def monomial(coeff, exp: int) -> "Scalar":
        return Scalar({exp: coeff})

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._c

    def is_monomial(self) -> bool:
        return len(self._c) == 1

    def rational_value(self) -> Fraction:
        if not self._c:
            return Fraction(0)
        if set(self._c) != {0}:
            raise ValueError(f"{self} is not parameter-free")
        return Fraction(self._c[0])

    def coeff(self, exp: int) -> Fraction:
        return Fraction(self._c.get(exp, 0))

    def terms(self):
        """(exponent, coefficient) pairs, descending exponent."""
        return [(e, Fraction(c)) for e, c in sorted(self._c.items(), reverse=True)]

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Scalar):
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        # scalars are immutable, so a zero summand can hand back the other
        if not other._c:
            return self
        if not self._c:
            return other
        c = dict(self._c)
        for e, v in other._c.items():
            s = c.get(e, 0) + v
            if type(s) is not int:
                s = _norm(s)
            if s:
                c[e] = s
            else:
                c.pop(e, None)
        return _wrap(c)

    __radd__ = __add__

    def __neg__(self):
        return _wrap({e: -v for e, v in self._c.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if not isinstance(other, Scalar):
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if not self._c or not other._c:
            return ZERO
        if len(self._c) == 1 and len(other._c) == 1:
            # monomials: the ring has no zero divisors, so one nonzero term
            ((e1, v1),) = self._c.items()
            ((e2, v2),) = other._c.items()
            v = v1 * v2
            return _wrap({e1 + e2: v if type(v) is int else _norm(v)})
        c: dict[int, int | Fraction] = {}
        for e1, v1 in self._c.items():
            for e2, v2 in other._c.items():
                e = e1 + e2
                s = _norm(c.get(e, 0) + v1 * v2)
                if s:
                    c[e] = s
                else:
                    c.pop(e, None)
        return _wrap(c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("scalar division by zero")
        if not other.is_monomial():
            raise ValueError(f"division only by monomials, got divisor {other}")
        ((de, dv),) = other._c.items()
        return _wrap({e - de: _norm(Fraction(v) / dv) for e, v in self._c.items()})

    def __pow__(self, n: int):
        if n < 0:
            if not self.is_monomial():
                raise ValueError("negative powers only of monomials")
            ((e, v),) = self._c.items()
            return _wrap({e * n: _norm(Fraction(v) ** n)})
        out = ONE
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        return hash(frozenset(self._c.items()))

    def __bool__(self):
        return bool(self._c)

    # -- evaluation and printing -----------------------------------------

    def specialize(self, value) -> Fraction:
        """Evaluate at a concrete rational parameter value."""
        v = Fraction(_norm(value))
        if v == 0 and any(e < 0 for e in self._c):
            raise ZeroDivisionError("negative exponent at parameter 0")
        if len(self._c) == 1:
            ((e, c),) = self._c.items()
            return Fraction(c) if v == 1 else c * v**e
        return sum((c * v**e for e, c in self._c.items()), Fraction(0))

    def __str__(self):
        if not self._c:
            return "0"
        parts = []
        for e, c in sorted(self._c.items(), reverse=True):
            if e == 0:
                body = str(c)
            else:
                var = "l" if e == 1 else f"l^{e}"
                if c == 1:
                    body = var
                elif c == -1:
                    body = f"-{var}"
                else:
                    body = f"{c}*{var}"
            if not parts:
                parts.append(body)
            elif body.startswith("-"):
                parts.append(f"- {body[1:]}")
            else:
                parts.append(f"+ {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"Scalar({self})"


def homogeneous_at_one(entries, label: str = "entries", degree: int | None = None):
    """(d, values): the common l-degree d of a mapping of scalars and their
    values at l = 1, under the same keys.

    Every nonzero entry must be a monomial c*l^d of one degree d (`degree`,
    when given).  Then at any l > 0 the entries are l^d > 0 times the values,
    so a rank, span, kernel or definiteness read at l = 1 holds for every
    l > 0.  Zeros are kept (value 0), and d is None when all entries are
    zero.  Raises ArithmeticError naming the first index that fails.
    """
    values = {}
    for index, s in entries.items():
        if len(s._c) > 1:
            raise ArithmeticError(f"{label} at index {index}: {s} is not a monomial in l")
        for e in s._c:
            if degree is not None and e != degree:
                raise ArithmeticError(
                    f"{label} at index {index}: {s} has degree {e} in l, expected {degree}"
                )
            degree = e
        values[index] = Fraction(s._c.get(degree, 0))
    return degree, values


def homogeneous_part(tensor, label: str = "entries", degree: int | None = None):
    """(d, den, entries): the one graded part of a tensor, certified as by
    `homogeneous_at_one`, so the tensor at l = 1 is entries / den.  A second
    part raises ArithmeticError naming the first index, in sorted order,
    that fails."""
    parts = tensor.parts
    if not parts:
        return degree, 1, {}
    if len(parts) != 1 or (degree is not None and degree not in parts):
        homogeneous_at_one(scalars_of(parts), label, degree)  # raises, in sorted index order
    ((degree, (den, e)),) = parts.items()
    return degree, den, e


# -- graded parts ---------------------------------------------------------------


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


def graded(raw) -> dict:
    """Normal-form parts of the sum of raw parts (degree, den, entries).

    A raw den is a nonzero int, negative to negate its part; entries are
    nonzero ints, which may share a factor with den.  Parts of one degree
    are brought to the lcm of their denominators.  No input dict is
    changed, and an input dict may be shared by the result.
    """
    by_degree: dict[int, list] = {}
    for d, den, entries in raw:
        if not entries:
            continue
        cur = by_degree.get(d)
        if cur is None:
            by_degree[d] = [den, entries, False]
            continue
        den0, acc, owned = cur
        common = lcm(den0, den)
        f0 = common // den0
        if f0 != 1 or not owned:
            acc = {k: v * f0 for k, v in acc.items()} if f0 != 1 else dict(acc)
        f = common // den
        for k, v in entries.items():
            accumulate(acc, k, v * f)
        cur[:] = common, acc, True
    out = {}
    for d, (den, entries, _) in by_degree.items():
        if entries:
            out[d] = _normal(den, entries)
    return out


def part(d: int, den: int, entries: dict) -> dict:
    """graded([(d, den, entries)]): the parts of one raw part."""
    return {d: _normal(den, entries)} if entries else {}


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


def parts_of(mapping) -> dict:
    """Normal-form parts of a mapping index -> Scalar (or int or Fraction)."""
    by_degree: dict[int, dict] = {}
    for key, s in mapping.items():
        if not isinstance(s, Scalar):
            s = Scalar(s)
        for e, q in s._c.items():
            by_degree.setdefault(e, {})[key] = q
    out = {}
    for e, coeffs in by_degree.items():
        # the lcm of the reduced denominators shares no factor with every numerator
        den = lcm(*(q.denominator for q in coeffs.values()))
        out[e] = (den, {k: q.numerator * (den // q.denominator) for k, q in coeffs.items()})
    return out


def rational(v: int, den: int):
    """v / den in the stored form of a Scalar coefficient."""
    if den == 1:
        return v
    q = Fraction(v, den)
    return q.numerator if q.denominator == 1 else q


def scalars_of(parts: dict) -> dict:
    """index -> nonzero Scalar, in sorted index order, built from the parts."""
    coeffs: dict = {}
    for d, (den, entries) in parts.items():
        for k, v in entries.items():
            coeffs.setdefault(k, {})[d] = rational(v, den)
    return {k: _wrap(coeffs[k]) for k in sorted(coeffs)}


def scalar_at(parts: dict, key) -> Scalar:
    """The entry at one index, as a Scalar."""
    return _wrap({d: rational(e[key], den) for d, (den, e) in parts.items() if key in e})


def scalar_sum(raw) -> Scalar:
    """The Scalar sum of raw terms (degree, den, int)."""
    raw = [(d, den, {0: v}) for d, den, v in raw if v]
    if len(raw) == 1:
        ((d, den, e),) = raw
        return _wrap({d: rational(e[0], den)})
    return scalar_at(graded(raw), 0)


def _wrap(c: dict[int, int | Fraction]) -> Scalar:
    """Scalar over a dict of nonzero coefficients already in `_norm` form."""
    s = object.__new__(Scalar)
    s._c = c
    return s


def _coerce(x):
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return Scalar(x)
    return NotImplemented


ZERO = Scalar(0)
ONE = Scalar(1)
LAM = Scalar({1: 1})  # the formal metric parameter
