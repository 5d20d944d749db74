"""The socle test for projective summands against exhaustive enumeration.

engine._projective_summand decides whether some e_iA splits off K by one
action matrix per primitive idempotent: K s_i != 0 for s_i in soc(e_iA).
The oracle below is the enumeration it replaced: every nonzero map
P_i -> K in the span of hom_basis(P_i, K), each tested for a retraction.  It
only runs where p^k <= 4096 (k = dim Hom(P_i, K)), where it is exhaustive.
"""

import itertools
import random

import pytest

from nangulate.algebras import (
    Module,
    ModuleMap,
    direct_sum_modules,
    hom_basis,
    kernel,
    quotient_by_rows,
    solve_in_hom,
    submodule_from_rows,
)
from nangulate.builders import f4_dual_numbers, nakayama_two_cycle, truncated_polynomial_algebra
from nangulate.engine import _projective_summand
from nangulate.linalg import Mat
from nangulate.structure import projective_indecomposables, radical_module

ORACLE_LIMIT = 4096


ALGEBRAS = {
    "F2[x]/(x^2)": lambda: truncated_polynomial_algebra("F2", 2),
    "F3[x]/(x^2)": lambda: truncated_polynomial_algebra("F3", 2),
    "F2[x]/(x^3)": lambda: truncated_polynomial_algebra("F2", 3),
    "F4[x]/(x^2) over F2": f4_dual_numbers,
    "Nakayama 2-cycle over F3": lambda: nakayama_two_cycle("F3"),
}


def _splits(P, K, mat):
    """Does the map P -> K with this matrix have a retraction?"""
    F = K.algebra.field
    return solve_in_hom(K, P, mat, None, Mat.identity(F, P.dim)) is not None


def enumerated_summand(K):
    """Index of the first P_i with a split map P_i -> K, or None.

    Raises LookupError when some enumeration it needs would not be
    exhaustive (p^k > ORACLE_LIMIT).
    """
    F = K.algebra.field
    for idx, (_, P, _, _, _) in enumerate(projective_indecomposables(K.algebra)):
        basis = hom_basis(P, K)
        if F.p ** len(basis) > ORACLE_LIMIT:
            raise LookupError("enumeration would not be exhaustive")
        for coeffs in itertools.product(range(F.p), repeat=len(basis)):
            mat = Mat.zeros(F, P.dim, K.dim)
            for c, b in zip(coeffs, basis):
                if c:
                    mat = mat + b.mat.scale(F.of_int(c))
            if not mat.is_zero() and _splits(P, K, mat):
                return idx
    return None


def _random_vector(rng, F, dim):
    return [F.of_int(rng.randrange(F.p)) for _ in range(dim)]


def _random_invertible(rng, F, dim):
    while True:
        Q = Mat(F, [_random_vector(rng, F, dim) for _ in range(dim)], dim)
        if Q.is_invertible():
            return Q


def _conjugate(M, Q):
    """M in the basis given by the rows of Q (an isomorphic module)."""
    Qi = Q.inverse()
    return Module(M.algebra, M.dim, [Q @ am @ Qi for am in M.action])


def _random_piece(rng, A):
    """A projective, its radical, a random submodule or quotient of one, or a kernel."""
    F = A.field
    proj = [P for _, P, _, _, _ in projective_indecomposables(A)]
    base, _, _ = direct_sum_modules([rng.choice(proj) for _ in range(rng.randint(1, 2))])
    style = rng.random()
    if style < 0.2:
        return base
    if style < 0.4:
        return radical_module(base)[0]
    if style < 0.8:
        rows = Mat(F, [_random_vector(rng, F, base.dim) for _ in range(rng.randint(1, 2))], base.dim)
        S, incl = submodule_from_rows(base, rows)
        if style < 0.6:
            return S
        Q, _ = quotient_by_rows(base, incl.mat)
        return Q
    # the kernel of a random map between projectives, as N1c completion meets it
    target, _, _ = direct_sum_modules([rng.choice(proj) for _ in range(rng.randint(1, 2))])
    f = ModuleMap.zero(base, target)
    for b in hom_basis(base, target):
        c = rng.randrange(F.p)
        if c:
            f = f + b.scale(F.of_int(c))
    K, _ = kernel(f)
    return K


def _random_module(rng, A):
    pieces = [_random_piece(rng, A) for _ in range(rng.randint(1, 2))]
    pieces = [M for M in pieces if M.dim] or [A.regular_module()]
    K, _, _ = direct_sum_modules(pieces)
    return _conjugate(K, _random_invertible(rng, A.field, K.dim))


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_socle_test_agrees_with_enumeration(name):
    A = ALGEBRAS[name]()
    rng = random.Random(2024)
    proj = projective_indecomposables(A)
    compared = {True: 0, False: 0}
    for _ in range(40):
        K = _random_module(rng, A)
        got = _projective_summand(K)
        if got is not None:
            P, phi = got
            ModuleMap(P, K, phi.mat)  # a module map: check=True validates it
            assert _splits(P, K, phi.mat)
        try:
            want = enumerated_summand(K)
        except LookupError:
            continue
        if want is None:
            assert got is None
        else:
            assert got is not None and got[0] == proj[want][1]
        compared[want is not None] += 1
    # the seeded modules reach both answers with an exhaustive oracle
    assert compared[True] >= 5 and compared[False] >= 3, compared
