"""Exact verification engine for quaternionic Heisenberg group geometry.

Exact monomials c * l^d in the metric parameter feed an exterior-algebra
kernel on the orthonormal frame of the (4p+3)-dimensional nilpotent Lie
algebra; connection calculus, Clifford/spin computations, contact and
quaternionic contact structures and the dimension-7 special geometry are
built on top, with a report CLI driving the verification suites.
"""

from .algebra import QHAlgebra, build, jacobi_check
from .exterior import Endo, KForm, Vector
from .scalars import LAM, ONE, ZERO, Scalar

__all__ = [
    "QHAlgebra",
    "build",
    "jacobi_check",
    "Endo",
    "KForm",
    "Vector",
    "Scalar",
    "LAM",
    "ONE",
    "ZERO",
]
