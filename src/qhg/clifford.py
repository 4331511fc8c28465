"""Real Clifford algebra of R^7 acting on the 8-dimensional spin module.

Generators are built from octonion left multiplication (Cayley-Dickson
doubling of the quaternions), which gives real 8x8 matrices with
entries in {-1, 0, 1} satisfying g_i g_j + g_j g_i = -2 delta_ij.  Of
the two inequivalent irreducible choices (they differ by the sign of
the volume element) we fix the one whose volume element acts as +Id:
it is the choice for which the canonical torsion acts on its invariant
spinor with eigenvalue -2*lam and the generalized Killing eigenvalues
come out with the signs of the 7-dimensional verification suite.

The generators and their products live in the memo of an algebra
(`algebra.derived`) and die with it, so each function that acts on
spinors takes the algebra whose memo it reads.
"""

from __future__ import annotations

from .algebra import QHAlgebra, derived, quat_mul
from .exterior import Endo, KForm, Vector, _combination, _endo, _vector, endo_two_form

SPIN_DIM = 8
AMBIENT_DIM = 7


def _oct_mul(a: int, b: int) -> tuple[int, int]:
    """Product of octonion basis units 0..7 (0 is the real unit)."""
    if a < 4 and b < 4:
        return quat_mul(a, b)
    if a < 4 and b >= 4:
        s, c = quat_mul(b - 4, a)  # (0,d)(q,0) ... (q,0)(0,d) = (0, d q)
        return s, 4 + c
    if a >= 4 and b < 4:
        s, c = quat_mul(a - 4, b)  # (0,r)(c,0) = (0, r conj(c))
        if b != 0:
            s = -s
        return s, 4 + c
    s, c = quat_mul(b - 4, a - 4)  # (0,r)(0,d) = (-conj(d) r, 0)
    if b - 4 != 0:
        s = -s
    return -s, c


def gamma() -> list[Endo]:
    """The seven Clifford generators, indexed like the ambient frame, built
    afresh on every call; `generators` keeps them for one algebra.

    Generator i is minus the left multiplication by the i-th imaginary
    octonion unit; the minus sign selects the irreducible module with
    volume element +Id.  Each is a signed permutation matrix, stored
    sparsely as an Endo of dimension 8.
    """
    gammas = []
    for i in range(1, 8):
        entries = {}
        for b in range(SPIN_DIM):
            s, c = _oct_mul(i, b)
            entries[(c, b)] = -s
        gammas.append(_endo(SPIN_DIM, (0, 1, entries)))
    return gammas


@derived
def generators(alg: QHAlgebra) -> list[Endo]:
    """The generators of `gamma`, built once per algebra."""
    return gamma()


@derived
def gamma_product(alg: QHAlgebra, indices: tuple[int, ...]) -> Endo:
    """Product of the generators in the order of the index tuple, built once
    per algebra and tuple: the product of all but the last index, itself
    memoised, composed with the last generator of `generators`."""
    g = generators(alg)
    if len(indices) < 2:
        return g[indices[0]] if indices else Endo.identity(SPIN_DIM)
    return gamma_product(alg, indices[:-1]).compose(g[indices[-1]])


def clifford_matrix(alg: QHAlgebra, a: KForm) -> Endo:
    """Clifford action of a form: basis tuples become ordered products."""
    if a.dim != AMBIENT_DIM:
        raise ValueError(f"Clifford action needs ambient dimension 7, got {a.dim}")
    d, den, e = a.part
    return _endo(SPIN_DIM, _combination((d, den, c, gamma_product(alg, idx).part) for idx, c in e.items()))


def vector_action(alg: QHAlgebra, x: Vector, s: Vector) -> Vector:
    """Clifford product of an ambient vector with a spinor."""
    if x.dim != AMBIENT_DIM:
        raise ValueError(f"Clifford action needs ambient dimension 7, got {x.dim}")
    g, (d, den, e) = generators(alg), x.part
    return _vector(SPIN_DIM, _combination((d, den, c, g[i].apply(s).part) for i, c in e.items()))


def spin_lift(alg: QHAlgebra, a: Endo) -> Endo:
    """Lift of a skew endomorphism, (1/4) sum of A[k, l] g_l g_k over the
    stored entries, each pair in both orders, the products taken in that
    order: the unique normalization with [lift(A), g(X)] = g(AX)."""
    if a.dim != AMBIENT_DIM:
        raise ValueError(f"Clifford action needs ambient dimension 7, got {a.dim}")
    if not a.is_skew():
        raise ValueError("endomorphism is not skew")
    d, den, e = a.part
    terms = ((d, 4 * den, c, gamma_product(alg, (l, k)).part) for (k, l), c in e.items())
    return _endo(SPIN_DIM, _combination(terms))


def relations_check(alg: QHAlgebra) -> bool:
    """g_i g_j + g_j g_i = -2 delta_ij Id and the volume element is +Id,
    read from the products of `gamma_product`: g_i g_i = -Id, and
    g_i g_j = -g_j g_i for i < j, as the relation is symmetric in (i, j)."""
    minus_one = Endo.identity(SPIN_DIM).scale(-1)
    return volume_sign(alg) == 1 and all(
        gamma_product(alg, (i, j)) == (minus_one if i == j else -gamma_product(alg, (j, i)))
        for i in range(AMBIENT_DIM)
        for j in range(i, AMBIENT_DIM)
    )


def lift_check(alg: QHAlgebra, a: Endo) -> bool:
    """[lift(A), g_i] = sum_k A[k, i] g_k, the Clifford image of A e_i, for
    every frame index i, with the coefficients read from column i of A in
    one pass over its entries; and the 2-form of A acts as 2 lift(A): the
    products i < j of `clifford_matrix` against both orders in `spin_lift`."""
    lift, g = spin_lift(alg, a), generators(alg)
    images = [[] for _ in range(AMBIENT_DIM)]  # column i -> terms of sum_k A[k, i] g_k
    d, den, e = a.part
    for (k, i), c in e.items():
        images[i].append((d, den, c, g[k].part))
    return clifford_matrix(alg, endo_two_form(a)) == lift.scale(2) and all(
        lift.commutator(g[i]) == _endo(SPIN_DIM, _combination(terms)) for i, terms in enumerate(images))


def volume_sign(alg: QHAlgebra) -> int:
    """Sign s with g_1 g_2 ... g_7 = s * Id (central, squares to +Id)."""
    prod = gamma_product(alg, tuple(range(AMBIENT_DIM)))
    if prod == Endo.identity(SPIN_DIM):
        return 1
    if prod == Endo.identity(SPIN_DIM).scale(-1):
        return -1
    raise ArithmeticError("volume element is not proportional to the identity")
