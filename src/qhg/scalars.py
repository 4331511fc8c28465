"""Exact values: graded parts of Laurent polynomials in the metric parameter.

Every number in this package is a Laurent polynomial in the metric
parameter (printed ``l``) with arbitrary-precision rational coefficients.
All geometric identities we verify are polynomial identities in that
parameter, so keeping it formal proves them for every positive value at
once.  Rank, span and sign questions are read at l = 1: `homogeneous_part`
certifies that a tensor's entries share one parameter degree and gives
its one integer part, whose rank, span or sign then decides the question
for every positive value.  That part, `(den, {index: int})`, is also the
row format that `linalg` takes and returns.

A value is held in one representation, graded parts
``{degree: (den, {index: int})}``: the entry at an index is
``sum_d entries_d[index] / den_d * l^d``.  A part in normal form has
``den > 0``, ``gcd(den, *entries) == 1`` and no zero entry, and no part is
empty, so equal values have equal parts.  A product of parts adds the
degrees and multiplies the denominators; `graded` brings parts of one
degree to the lcm of their denominators and restores the normal form, and
`_merge`, `_negate` and `_product` are the kernels of sums and products.
The tensors of `exterior` index their parts by frame indices; a `Scalar`
is the rank-0 case, indexed by the empty tuple, and its ring operations
run through the same kernels.  Only ints and Fractions enter a `Scalar`,
and only Fractions leave it: `coeff` and `terms` return ``Fraction``.  A
report's tensors have one part each, the hol + m table among them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


class Scalar:
    """Sparse Laurent polynomial: parts {exponent: (den, {(): num})}.

    Instances are immutable.  Division is defined only by monomials
    ``c*l^k`` (the units of the Laurent ring); anything else raises
    ValueError rather than silently leaving the ring.
    """

    __slots__ = ("parts",)

    def __init__(self, value=0):
        """A Scalar, an int or a Fraction, or a dict exponent -> coefficient."""
        if isinstance(value, Scalar):
            self.parts = value.parts
            return
        coeffs = value if isinstance(value, dict) else {0: value}
        for q in coeffs.values():
            if not isinstance(q, (int, Fraction)):
                raise TypeError(f"cannot coerce {type(q).__name__} to a rational")
        # a reduced fraction is a part in normal form
        self.parts = {e: (q.denominator, {(): q.numerator}) for e, q in coeffs.items() if q}

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.parts

    def is_monomial(self) -> bool:
        return len(self.parts) == 1

    def coeff(self, exp: int) -> Fraction:
        den, e = self.parts.get(exp, (1, {(): 0}))
        return Fraction(e[()], den)

    def terms(self):
        """(exponent, coefficient) pairs, descending exponent."""
        return [(e, self.coeff(e)) for e in sorted(self.parts, reverse=True)]

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        return _scalar(_merge(self.parts, _parts(other), 1))

    __radd__ = __add__

    def __neg__(self):
        return _scalar(_negate(self.parts))

    def __sub__(self, other):
        return _scalar(_merge(self.parts, _parts(other), -1))

    def __rsub__(self, other):
        return _scalar(_merge(_parts(other), self.parts, -1))

    def __mul__(self, other):
        return _scalar(_product(self.parts, _parts(other), _scaled))

    __rmul__ = __mul__

    def __truediv__(self, other):
        divisor = _parts(other)
        if not divisor:
            raise ZeroDivisionError("scalar division by zero")
        if len(divisor) != 1:
            raise ValueError(f"division only by monomials, got divisor {Scalar(other)}")
        ((d, (den, e)),) = divisor.items()
        num = e[()]
        inverse = {-d: (abs(num), {(): den if num > 0 else -den})}
        return _scalar(_product(self.parts, inverse, _scaled))

    def __pow__(self, n: int):
        if n < 0:
            if not self.is_monomial():
                raise ValueError("negative powers only of monomials")
            return (ONE / self) ** -n
        out = ONE
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, (Scalar, int, Fraction)):
            return self.parts == _parts(other)
        return NotImplemented

    def __hash__(self):
        return hash(frozenset((d, den, e[()]) for d, (den, e) in self.parts.items()))

    def __bool__(self):
        return bool(self.parts)

    # -- printing --------------------------------------------------------

    def __str__(self):
        if not self.parts:
            return "0"
        parts = []
        for e, c in self.terms():
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


def _scalar(parts: dict) -> Scalar:
    """The Scalar of parts {degree: (den, {(): num})} already in normal form."""
    s = object.__new__(Scalar)
    s.parts = parts
    return s


def _parts(x) -> dict:
    """The parts of a Scalar, an int or a Fraction; TypeError for any other x."""
    return x.parts if isinstance(x, Scalar) else Scalar({0: x}).parts


def _scaled(ec: dict, et: dict) -> dict:
    """The entries of any part times the entry of a scalar part."""
    c = ec[()]
    return {k: c * v for k, v in et.items()}


def homogeneous_part(tensor, label: str = "entries", degree: int | None = None):
    """(d, den, entries): the one graded part of a tensor, at degree d
    (`degree`, when given), so the tensor at l = 1 is entries / den.

    Every nonzero entry is then c*l^d with one d, and at any l > 0 the
    tensor is l^d > 0 times its value at 1, so a rank, span, kernel or
    definiteness read at l = 1 holds for every l > 0.  A zero tensor gives
    (degree, 1, {}).  Anything else raises ArithmeticError naming the first
    index, in sorted order, that fails.
    """
    parts = tensor.parts
    if not parts:
        return degree, 1, {}
    if len(parts) == 1 and degree in (None, *parts):
        ((degree, (den, e)),) = parts.items()
        return degree, den, e
    for index, s in scalars_of(parts).items():  # some index fails
        if len(s.parts) > 1:
            raise ArithmeticError(f"{label} at index {index}: {s} is not a monomial in l")
        (d,) = s.parts
        if degree is not None and d != degree:
            raise ArithmeticError(f"{label} at index {index}: {s} has degree {d} in l, expected {degree}")
        degree = d


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


def _merge(a: dict, b: dict, sign: int) -> dict:
    """Parts of a + sign * b."""
    if not b:
        return a
    if not a and sign > 0:
        return b
    raw = [(d, den, e) for d, (den, e) in a.items()]
    raw += [(d, sign * den, e) for d, (den, e) in b.items()]
    return graded(raw)


def _negate(a: dict) -> dict:
    return {d: (den, {k: -v for k, v in e.items()}) for d, (den, e) in a.items()}


def _product(a: dict, b: dict, kernel) -> dict:
    """Parts of a bilinear product given on integer entries by kernel(ea, eb)."""
    if len(a) == 1 and len(b) == 1:  # homogeneous operands: one product part
        ((da, (na, ea)),) = a.items()
        ((db, (nb, eb)),) = b.items()
        return part(da + db, na * nb, kernel(ea, eb))
    return graded(
        (da + db, na * nb, kernel(ea, eb))
        for da, (na, ea) in a.items()
        for db, (nb, eb) in b.items()
    )


# -- tensor entries as Scalars ----------------------------------------------------


def parts_of(mapping) -> dict:
    """Normal-form parts of a mapping index -> Scalar (or int or Fraction)."""
    return graded(
        (d, den, {key: num})
        for key, s in mapping.items()
        for d, (den, e) in _parts(s).items()
        for num in e.values()
    )


def scalar_at(parts: dict, key) -> Scalar:
    """The entry at one index, as a Scalar."""
    return _scalar({d: _normal(den, {(): e[key]}) for d, (den, e) in parts.items() if key in e})


def scalars_of(parts: dict) -> dict:
    """index -> nonzero Scalar, in sorted index order, built from the parts."""
    keys = {k for _, e in parts.values() for k in e}
    return {k: scalar_at(parts, k) for k in sorted(keys)}


def scalar_sum(raw) -> Scalar:
    """The Scalar sum of raw terms (degree, den, int)."""
    return _scalar(graded((d, den, {(): v}) for d, den, v in raw if v))


ZERO = Scalar(0)
ONE = Scalar(1)
LAM = Scalar({1: 1})  # the formal metric parameter
