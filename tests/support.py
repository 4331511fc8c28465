"""Helpers that only the tests use."""

from fractions import Fraction
from itertools import combinations

from qhg.exterior import KForm
from qhg.scalars import Scalar


def random_form(rng, dim: int, degree: int, density: float = 0.5) -> KForm:
    """Small random form with rational coefficients."""
    comps = {}
    for idx in combinations(range(dim), degree):
        if rng.random() < density:
            comps[idx] = Scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    return KForm(dim, degree, comps)


def span_contains(span, v) -> bool:
    """Whether the row v lies in the FractionSpan span."""
    return not span.reduce(v)
