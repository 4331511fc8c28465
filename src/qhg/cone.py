"""Cone-constant criterion certifying the torsion geometry of the cone.

The three contact characteristic torsions T_i and fundamental 2-forms
F_i admit exactly one scalar a for which the tensors T_i - 2a eta_i^F_i
coincide; it equals the metric parameter.  Only the algebraic criterion
is verified here, not the cone metric itself.
"""

from __future__ import annotations

from .algebra import QHAlgebra, derived
from .connections import Geometry
from .contact import build_phi, characteristic_connection, fundamental_form
from .exterior import KForm, wedge
from .scalars import Scalar


class ConeCriterion:
    """Inputs and solution of the coincidence system S_1 = S_2 = S_3."""

    __slots__ = ("torsions", "fundamental_forms", "constant", "common")

    def __init__(self, torsions, fundamental_forms, constant, common):
        self.torsions = torsions
        self.fundamental_forms = fundamental_forms
        self.constant = constant
        self.common = common


@derived
def _characteristic_terms(alg: QHAlgebra):
    """(T_i, F_i, eta_i ^ F_i) for i = 1, 2, 3, with T_i recomputed from its
    connection."""
    torsions = tuple(Geometry(alg, characteristic_connection(alg, i)).torsion_form for i in (1, 2, 3))
    for i, t in zip((1, 2, 3), torsions):
        if t is None:
            raise ValueError(f"torsion of characteristic connection {i} is not totally skew")
    forms = tuple(fundamental_form(alg, build_phi(alg, i)) for i in (1, 2, 3))
    mixed = tuple(wedge(alg.eta(i), f) for i, f in zip((1, 2, 3), forms))
    return torsions, forms, mixed


def _mixed_terms(alg: QHAlgebra, opposite_convention: bool = False):
    """(T_i, F_i, eta_i ^ F_i); the opposite 2-form convention negates F_i
    and eta_i ^ F_i, and leaves the torsions as they are."""
    torsions, forms, mixed = _characteristic_terms(alg)
    if opposite_convention:
        forms = tuple(f.scale(-1) for f in forms)
        mixed = tuple(m.scale(-1) for m in mixed)
    return torsions, forms, mixed


def cone_constant(alg: QHAlgebra, opposite_convention: bool = False) -> ConeCriterion:
    """Solve T_i - 2a eta_i^F_i = T_j - 2a eta_j^F_j for the scalar a.

    Raises ArithmeticError when no scalar or more than one scalar works;
    with the standard 2-form convention the unique solution is the
    metric parameter itself (the opposite convention flips its sign,
    which is kept as a discriminator).
    """
    if alg.p != 1:
        raise ValueError("the cone criterion is stated in dimension 7")
    torsions, forms, mixed = _mixed_terms(alg, opposite_convention)
    candidate: Scalar | None = None
    for i in range(3):
        for j in range(i + 1, 3):
            lhs = torsions[i] - torsions[j]
            rhs = (mixed[i] - mixed[j]).scale(2)
            for idx, c in rhs.comps.items():
                try:
                    a = lhs.coeff(idx) / c
                except ValueError:
                    raise ArithmeticError(
                        "coincidence system has a non-monomial ratio"
                    ) from None
                if candidate is None:
                    candidate = a
                elif candidate != a:
                    raise ArithmeticError(
                        f"coincidence system is inconsistent: {candidate} vs {a}"
                    )
    if candidate is None:
        raise ArithmeticError("coincidence system is degenerate (no constraint on a)")
    # full verification: every residual must vanish at the candidate
    if any(not r.is_zero() for r in _residuals(torsions, mixed, candidate)):
        raise ArithmeticError("candidate does not make the three tensors coincide")
    common = torsions[0] - mixed[0].scale(candidate * 2)
    return ConeCriterion(torsions, forms, candidate, common)


def coincidence_residuals(
    alg: QHAlgebra, a: Scalar, opposite_convention: bool = False
) -> list[KForm]:
    """S_i - S_j at a given constant, for (i,j) = (1,2), (1,3), (2,3)."""
    torsions, _, mixed = _mixed_terms(alg, opposite_convention)
    return _residuals(torsions, mixed, a)


def _residuals(torsions: list[KForm], mixed: list[KForm], a: Scalar) -> list[KForm]:
    s = [t - m.scale(a * 2) for t, m in zip(torsions, mixed)]
    return [s[0] - s[1], s[0] - s[2], s[1] - s[2]]
