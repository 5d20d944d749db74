import itertools

import pytest

from nangulate.algebras import Algebra, AlgebraError, Automorphism, Module, ModuleMap, hom_basis, kernel
from nangulate.bimodules import (
    Enveloping,
    ResourceBudgetExceeded,
    bimodule_syzygy,
    detect_twist,
    kron,
    tensor_bimodules,
    tensor_map_bimodule_side,
    tensor_map_module_side,
    tensor_module_bimodule,
    twist_form_iso,
    twist_map,
    twist_module,
)
from nangulate.builders import (
    dual_numbers,
    product_of_fields,
    scaling_automorphism,
    simple_over_dual_numbers,
    truncated_polynomial_algebra,
)
from nangulate.linalg import Mat, field_by_name
from nangulate.structure import algebra_radical

F2 = field_by_name("F2")
F3 = field_by_name("F3")


def test_enveloping_dimension():
    A = dual_numbers(F2)
    env = Enveloping(A)
    assert env.algebra.dim == 4
    # dim 2 -> dim 4 [dimension formula]
    B = product_of_fields(F3)
    assert Enveloping(B).algebra.dim == 4


def test_enveloping_of_dual_numbers_is_two_variable_truncated():
    # oracle: direct construction of F2[x,y]/(x^2,y^2) multiplication table,
    # compared entrywise after matching the pair basis (1,x) (x) (1,x).
    A = dual_numbers(F2)
    env = Enveloping(A)
    E = env.algebra
    # basis order: 1(x)1, 1(x)x, x(x)1, x(x)x; relabel 1, y, x, xy
    def mul(i, j):
        return E.mult[i][j]

    one, y, x, xy = 0, 1, 2, 3
    assert mul(x, x) == (0, 0, 0, 0)
    assert mul(y, y) == (0, 0, 0, 0)
    got_xy = mul(x, y)
    assert got_xy == tuple(1 if k == xy else 0 for k in range(4))
    assert mul(y, x) == got_xy  # commutative
    E._validate()


def test_regular_bimodule_actions():
    A = dual_numbers(F3)
    env = Enveloping(A)
    R = env.regular_bimodule()
    R._validate()
    x = A.basis_vector(1)
    # x*1*1 = x from the left, 1*1*x from the right
    left = env.left_action_mat(R, x)
    right = env.right_action_mat(R, x)
    one = Mat(F3, [[1, 0]], 2)
    assert (one @ left).rows[0] == (0, 1)
    assert (one @ right).rows[0] == (0, 1)


def test_first_syzygy_dual_numbers():
    # oracle: kernel of the multiplication map A (x) A -> A, 4-dim -> 2-dim
    A = dual_numbers(F2)
    env = Enveloping(A)
    R = env.regular_bimodule()
    chain = bimodule_syzygy(A, 1)
    omega1 = chain.top
    assert omega1.dim == 2
    # the generator x(x)1 + 1(x)x lies in the kernel inclusion's row space
    incl = chain.kernel_incls[0]
    cover = chain.covers[0]
    # cover P_1 is the regular bimodule A^e itself (A^e local here)
    assert cover.P.dim == 4
    from nangulate.linalg import vec_in_row_space

    # kernel of multiplication inside A^e coordinates: x(x)1 + 1(x)x = e2 + e...
    # pair index: (i,j) -> 2i + j with basis 1,x: x(x)1 -> 2, 1(x)x -> 1
    gen = [0, 1, 1, 0]
    # map P_1 -> A sends the class of u to u acted on A's unit: verify gen dies
    eta = cover.epi
    g = Mat(F2, [gen], 4)
    # find preimage coordinates: cover.P is a submodule presentation of A^e
    # instead verify dimension bookkeeping: dim Omega^1 = dim P_1 - dim A
    assert omega1.dim == cover.P.dim - 2


def test_syzygy_dimension_bookkeeping():
    A = dual_numbers(F3)
    chain = bimodule_syzygy(A, 4)
    dims = chain.dims()
    assert dims[0] == 2
    for t, cover in enumerate(chain.covers):
        assert dims[t + 1] == cover.P.dim - dims[t]


def test_budget_error():
    A = dual_numbers(F2)
    with pytest.raises(ResourceBudgetExceeded):
        bimodule_syzygy(A, 3, budget=5)


def brute_bimodule_isos(env, X, Y):
    """Oracle: all invertible intertwiners X -> Y by exhaustive enumeration."""
    F = env.base.field
    if X.dim != Y.dim:
        return []
    out = []
    n = X.dim
    for entries in itertools.product(F.elements(), repeat=n * n):
        mat = Mat(F, [entries[i * n : (i + 1) * n] for i in range(n)], n)
        if not mat.is_invertible():
            continue
        if all(X.action[i] @ mat == mat @ Y.action[i] for i in range(env.algebra.dim)):
            out.append(mat)
    return out


def all_algebra_automorphisms(A):
    """Oracle: enumerate all algebra automorphisms of a small algebra."""
    from nangulate.algebras import AlgebraError

    out = []
    d = A.dim
    for entries in itertools.product(A.field.elements(), repeat=d * d):
        mat = Mat(A.field, [entries[i * d : (i + 1) * d] for i in range(d)], d)
        try:
            out.append(Automorphism(A, mat))
        except AlgebraError:
            continue
    return out


def test_detect_twist_regular_is_identity():
    A = dual_numbers(F2)
    env = Enveloping(A)
    R = env.regular_bimodule()
    res = detect_twist(env, R)
    assert res is not None
    assert res.sigma.is_identity()


def test_detect_twist_f2_first_syzygy():
    # acceptance oracle: over F2, Omega^1 is isomorphic to the untwisted
    # bimodule, cross-checked by enumerating all bimodule isomorphisms from
    # every candidate twisted bimodule.
    A = dual_numbers(F2)
    env = Enveloping(A)
    omega1 = bimodule_syzygy(A, 1).top
    res = detect_twist(env, omega1)
    assert res is not None
    assert res.sigma.is_identity()
    # oracle cross-check over all automorphisms
    matches = []
    for auto in all_algebra_automorphisms(A):
        twisted = env.twisted_bimodule(auto)
        if brute_bimodule_isos(env, twisted, omega1):
            matches.append(auto)
    assert [a.mat for a in matches] == [res.sigma.mat]


def test_detect_twist_f3_first_syzygy():
    # over F3 the first syzygy twists by x |-> -x; exact-match cross-check
    A = dual_numbers(F3)
    env = Enveloping(A)
    omega1 = bimodule_syzygy(A, 1).top
    res = detect_twist(env, omega1)
    assert res is not None
    expected = scaling_automorphism(A, 1, F3.of_int(-1))
    assert res.sigma.mat == expected.mat
    matches = [
        a.mat
        for a in all_algebra_automorphisms(A)
        if brute_bimodule_isos(env, env.twisted_bimodule(a), omega1)
    ]
    assert matches == [expected.mat]


def test_second_syzygy_f3_is_regular():
    A = dual_numbers(F3)
    env = Enveloping(A)
    omega2 = bimodule_syzygy(A, 2).top
    res = detect_twist(env, omega2)
    assert res is not None
    assert res.sigma.is_identity()


def test_power_law_f3():
    # Omega^2 = A and Omega^4 = A over F3[x]/(x^2)
    A = dual_numbers(F3)
    env = Enveloping(A)
    for n, expect_identity in ((2, True), (3, False), (4, True)):
        top = bimodule_syzygy(A, n).top
        res = detect_twist(env, top)
        assert res is not None
        assert res.sigma.is_identity() == expect_identity


def test_twist_composition_law():
    # detect_twist on 1_A_sigma (x)_A 1_A_tau returns tau . sigma
    A = dual_numbers(F3)
    env = Enveloping(A)
    sigma = scaling_automorphism(A, 1, F3.of_int(-1))
    tau = scaling_automorphism(A, 1, F3.of_int(-1))
    X = env.twisted_bimodule(sigma)
    Y = env.twisted_bimodule(tau)
    T = tensor_bimodules(env, X, Y)
    assert T.dim == 2
    res = detect_twist(env, T)
    assert res is not None
    assert res.sigma.mat == tau.then(sigma).mat  # tau sigma = identity here
    assert res.sigma.is_identity()


def test_twist_module_identity():
    A = dual_numbers(F2)
    reg = A.regular_module()
    tw = twist_module(reg, Automorphism.identity(A))
    assert tw == reg


def test_twist_module_f3():
    A = dual_numbers(F3)
    reg = A.regular_module()
    sigma = scaling_automorphism(A, 1, F3.of_int(-1))
    tw = twist_module(reg, sigma)
    tw._validate()
    # explicit isomorphism 1 |-> 1, x |-> -x between twist and regular
    iso = ModuleMap(tw, reg, Mat.from_int_rows(F3, [[1, 0], [0, -1]]))
    assert iso.is_iso()


def test_twisted_projective_matches_sigma_of_idempotent():
    # Sigma(e_i A) = sigma(e_i) A on a product of fields with the swap
    A = product_of_fields(F2)
    env = Enveloping(A)
    swap = Automorphism(A, Mat.from_int_rows(F2, [[0, 1], [1, 0]]))
    from nangulate.structure import principal_projective

    e1 = (F2.one, F2.zero)
    e2 = (F2.zero, F2.one)
    P1, _ = principal_projective(A, e1)
    P2, _ = principal_projective(A, e2)
    # twist by swap^{-1} = swap: the twisted P1 should be isomorphic to P2
    tw = twist_module(P1, swap)
    assert len(hom_basis(tw, P2)) == 1
    iso = hom_basis(tw, P2)[0]
    assert iso.is_iso()


def test_tensor_with_regular_bimodule_is_identity_functor():
    A = dual_numbers(F3)
    env = Enveloping(A)
    reg_bim = env.regular_bimodule()
    k = simple_over_dual_numbers(A)
    tens = tensor_module_bimodule(env, k, reg_bim)
    assert tens.module.dim == 1
    iso = twist_form_iso(env, k, Automorphism.identity(A), tens)
    assert iso.is_iso()


def test_tensor_canonical_twist_iso():
    # the canonical isomorphism M (x) 1_A_tau = twist(M, tau), materialized once
    A = dual_numbers(F3)
    env = Enveloping(A)
    sigma = scaling_automorphism(A, 1, F3.of_int(-1))
    B = env.twisted_bimodule(sigma)
    for M in (A.regular_module(), simple_over_dual_numbers(A)):
        tens = tensor_module_bimodule(env, M, B)
        iso = twist_form_iso(env, M, sigma, tens)
        assert iso.is_iso()
        tens.module._validate()


def test_tensor_functoriality():
    A = dual_numbers(F2)
    env = Enveloping(A)
    B = env.regular_bimodule()
    reg = A.regular_module()
    k = simple_over_dual_numbers(A)
    f = hom_basis(reg, k)[0]
    t_reg = tensor_module_bimodule(env, reg, B)
    t_k = tensor_module_bimodule(env, k, B)
    tf = tensor_map_module_side(env, f, B, t_reg, t_k)
    assert tf.mat.rank() == 1
    # composing with identity bimodule map changes nothing
    idmap = ModuleMap.identity(B)
    tid = tensor_map_bimodule_side(env, reg, idmap, t_reg, t_reg)
    assert tid.mat == Mat.identity(F2, t_reg.module.dim)


def test_kron_row_vector_identity():
    A = Mat.from_int_rows(F3, [[1, 2], [0, 1]])
    B = Mat.from_int_rows(F3, [[2, 0], [1, 1]])
    v = Mat.from_int_rows(F3, [[1, 2]])
    w = Mat.from_int_rows(F3, [[0, 1]])
    lhs = kron(v, w) @ kron(A, B)
    rhs = kron(v @ A, w @ B)
    assert lhs == rhs


# -- radical of A^e from the radical of A ---------------------------------------


def nakayama_two_cycle(F):
    """Basis e1, e2, a, b with e1 a e2 = a, e2 b e1 = b and ab = ba = 0."""

    def unit_vector(i):
        return [1 if k == i else 0 for k in range(4)]

    table = {
        (0, 0): unit_vector(0),
        (1, 1): unit_vector(1),
        (0, 2): unit_vector(2),
        (2, 1): unit_vector(2),
        (1, 3): unit_vector(3),
        (3, 0): unit_vector(3),
    }
    mult = [[table.get((i, j), [0, 0, 0, 0]) for j in range(4)] for i in range(4)]
    return Algebra(F, mult, [1, 1, 0, 0], ["e1", "e2", "a", "b"])


def f9_over_f3():
    """F3[x]/(x^2 + 1): a field, so A^e = F9 (x) F9 is semisimple but not split."""
    mult = [[[1, 0], [0, 1]], [[0, 1], [2, 0]]]
    return Algebra(F3, mult, [1, 0], ["1", "x"])


ENVELOPE_RADICAL_CASES = [
    (f"F{p}[x]/(x^{k})", truncated_polynomial_algebra(f"F{p}", k)) for p in (2, 3, 5, 7) for k in (2, 3, 4)
] + [("Nakayama 2-cycle F3", nakayama_two_cycle(F3)), ("F3[x]/(x^2+1)", f9_over_f3())]


@pytest.mark.parametrize("name,A", ENVELOPE_RADICAL_CASES, ids=[c[0] for c in ENVELOPE_RADICAL_CASES])
def test_enveloping_radical_rule_matches_trace_chain(name, A):
    E = Enveloping(A).algebra
    # same structure constants, no rule: the p-power trace-form chain
    plain = Algebra(E.field, E.mult, E.unit, check=False)
    assert "radical_rule" not in plain._cache
    assert algebra_radical(E).rows == algebra_radical(plain).rows


def test_enveloping_radical_rule_is_lazy():
    A = truncated_polynomial_algebra("F3", 3)
    env = Enveloping(A)
    assert "radical" not in A._cache and "radical" not in env.algebra._cache
    algebra_radical(env.algebra)
    assert "radical" in A._cache and "radical" in env.algebra._cache


def test_enveloping_radical_rule_too_large_is_refused():
    env = Enveloping(dual_numbers(F3))
    E = env.algebra
    env.algebra._cache["radical_rule"] = lambda: [E.basis_vector(i) for i in range(E.dim)]
    with pytest.raises(AlgebraError, match="radical certification failed"):
        algebra_radical(E)
