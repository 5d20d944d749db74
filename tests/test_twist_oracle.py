"""detect_twist against the ordered generator scan it replaced.

The reference below enumerates candidate generators g of X in lexicographic
order (range(p)^d over F_p while p^d <= 4096, else the (d+1)^d grid, which
must fit in the field; the (d+1)^d grid over Q), skips every g whose Phi_g
is singular or whose sigma or bimodule map fails, and returns the first
survivor.  detect_twist must return the same generator, sigma matrix and
isomorphism matrix, or None where the reference does.
"""

import itertools

from nangulate.algebras import AlgebraError, Automorphism, ModuleMap
from nangulate.bimodules import Enveloping, bimodule_syzygy, detect_twist
from nangulate.builders import f4_dual_numbers, nakayama_two_cycle, truncated_polynomial_algebra
from nangulate.linalg import Mat, PrimeField, field_by_name

LIMIT = 4096


def _reference_candidates(F, d):
    if isinstance(F, PrimeField):
        if F.p**d <= LIMIT:
            values = range(F.p)
        elif d + 1 <= F.p:
            values = range(d + 1)
        else:
            raise AssertionError("the reference scan has no regime here")
    else:
        values = range(d + 1)
    for coords in itertools.product(values, repeat=d):
        yield tuple(F.of_int(c) for c in coords)


def reference_twist(env, X):
    A = env.base
    F = A.field
    d = A.dim
    if X.dim != d:
        return None
    left_mats = [env.left_action_mat(X, A.basis_vector(i)) for i in range(d)]
    right_mats = [env.right_action_mat(X, A.basis_vector(j)) for j in range(d)]
    for g in _reference_candidates(F, d):
        if all(c == F.zero for c in g):
            continue
        grow = Mat(F, [list(g)], d)
        Phi = Mat(F, [(grow @ lm).rows[0] for lm in left_mats], d)
        if not Phi.is_invertible():
            continue
        Phi_inv = Phi.inverse()
        S = Mat(F, [(Mat(F, [list((grow @ rm).rows[0])], d) @ Phi_inv).rows[0] for rm in right_mats], d)
        try:
            sigma = Automorphism(A, S)
            iso = ModuleMap(env.twisted_bimodule(sigma), X, Phi)
        except AlgebraError:
            continue
        return g, sigma.mat, iso.mat
    return None


def _summary(result):
    return None if result is None else (result.generator, result.sigma.mat, result.iso.mat)


def _truncated_cases():
    # every F_p[x]/(x^k) that the reference enumerates in full, up to k = 9:
    # building A^e alone takes a second at F2[x]/(x^12)
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61):
        k = 2
        while k <= 9 and p**k <= LIMIT:
            yield f"F{p}", k
            k += 1


def _bimodules():
    for field, k in _truncated_cases():
        A = truncated_polynomial_algebra(field, k)
        # the bimodule syzygy costs about 1 s at k = 6 and grows fast with k
        if k <= 5:
            chain = bimodule_syzygy(A, 4)
            for t, X in enumerate(chain.modules):
                yield f"{field}[x]/(x^{k}) Omega^{t}", chain.env, X
        else:
            env = Enveloping(A)
            yield f"{field}[x]/(x^{k}) Omega^0", env, env.regular_bimodule()
    for field in ("F2", "F3", "F5"):
        chain = bimodule_syzygy(nakayama_two_cycle(field), 4)
        for t, X in enumerate(chain.modules):
            yield f"Nakayama {field} Omega^{t}", chain.env, X
    for name, A in (("F4[x]/(x^2)", f4_dual_numbers()), ("Q[x]/(x^3)", truncated_polynomial_algebra("Q", 3))):
        chain = bimodule_syzygy(A, 4)
        for t, X in enumerate(chain.modules):
            yield f"{name} Omega^{t}", chain.env, X
    # 1_A_s for the unital endomorphism s(x) = 0: left free, not twisted
    for p in (2, 3, 5, 7):
        A = truncated_polynomial_algebra(f"F{p}", 2)
        F = field_by_name(f"F{p}")
        s = Automorphism(A, Mat(F, [[1, 0], [0, 0]], 2), check=False)
        env = Enveloping(A)
        yield f"F{p}[x]/(x^2) x->0", env, env.twisted_bimodule(s)


def test_detect_twist_matches_the_ordered_scan():
    seen = found = 0
    for name, env, X in _bimodules():
        got = _summary(detect_twist(env, X))
        assert got == reference_twist(env, X), name
        seen += 1
        found += got is not None
    assert seen > 100 and found > 50
