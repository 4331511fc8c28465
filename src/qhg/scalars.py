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
``int`` leaves this module: `coeff`, `rational_value`, `terms` and
`specialize` return ``Fraction``; printing, ``==`` and hashing agree.
"""

from __future__ import annotations

from fractions import Fraction

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
    """(d, values): the common l-degree d of the scalars in the mapping
    `entries` and their values at l = 1, under the same keys.

    Every nonzero entry must be a monomial c*l^d of one degree d (`degree`,
    when given).  Then at any l > 0 the entries are l^d > 0 times the values,
    so a rank, span, kernel or definiteness read at l = 1 holds for every
    l > 0.  Zeros are allowed; d is None when all entries are zero.  Raises
    ArithmeticError naming the first index that fails.
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
