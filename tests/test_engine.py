import random

import pytest

from nangulate.algebras import Algebra, Module, ModuleMap, hom_basis, kernel
from nangulate.builders import (
    dual_numbers,
    product_of_fields,
    simple_over_dual_numbers,
)
from nangulate.complexes import (
    ChainMap,
    Suspension,
    direct_sum_complexes,
    disk_complex,
    is_contractible,
    is_exact,
    mapping_cone,
    rotate_left,
    trivial_complex,
    z1,
    z1_of_chain,
)
from nangulate.engine import (
    AngulationContext,
    EngineError,
    RefusedContext,
    build_context,
    complete_semisimple,
    decompose_local_module,
    module_iso_search,
    r_u_complex,
)
from nangulate.linalg import Mat, field_by_name

F2 = field_by_name("F2")
F3 = field_by_name("F3")
F5 = field_by_name("F5")


def unit(A, c):
    F = A.field
    return tuple(F.mul(F.of_int(c), a) for a in A.unit)


# -- context construction ------------------------------------------------------


def test_quasi_periodic_context_f2():
    A = dual_numbers(F2)
    for n in (3, 4):
        ctx = build_context(A, n, "quasi-periodic")
        assert ctx.susp.is_identity()


def test_quasi_periodic_context_f3_odd_twists():
    A = dual_numbers(F3)
    ctx = build_context(A, 3, "quasi-periodic")
    # sigma(x) = -x for odd periods over F3
    assert not ctx.susp.is_identity()
    ctx6 = build_context(A, 6, "quasi-periodic")
    assert ctx6.susp.is_identity()


def test_quasi_periodic_refuses_non_selfinjective():
    from nangulate.builders import path_algebra_a2

    with pytest.raises(RefusedContext):
        build_context(path_algebra_a2(F2), 3, "quasi-periodic")


def test_quasi_periodic_refuses_semisimple_zero_syzygy():
    # over a separable algebra the bimodule resolution terminates, so the
    # rank-one twist search has nothing to find
    with pytest.raises(RefusedContext, match="dimension 0"):
        build_context(product_of_fields(F2), 3, "quasi-periodic")


def test_quasi_periodic_extension_residue_field():
    # F4[x]/(x^2) over F2: the top is a 2-dim simple, so covers must count
    # summands by simple copies rather than by basis vectors
    from nangulate.builders import f4_dual_numbers
    from nangulate.bimodules import Enveloping, bimodule_syzygy, detect_twist
    from nangulate.structure import is_selfinjective, primitive_idempotents
    from nangulate.verify import verify_axioms

    A = f4_dual_numbers()
    assert is_selfinjective(A)
    assert primitive_idempotents(A) == [A.unit]
    env = Enveloping(A)
    chain = bimodule_syzygy(A, 1)
    res = detect_twist(env, chain.top)
    assert res is not None and res.sigma.is_identity()
    ctx = build_context(A, 3, "quasi-periodic")
    rep = verify_axioms(ctx, samples=2, seed=5)
    assert rep.passed, {k: v for k, v in rep.axioms.items() if not v["pass"]}


def test_quasi_periodic_truncated_cubic():
    # a dim-3 local algebra: the bimodule resolution has period 2 and the
    # period-4 context passes a short axiom run
    from nangulate.builders import truncated_polynomial_algebra
    from nangulate.verify import verify_axioms

    B = truncated_polynomial_algebra(F2, 3)
    ctx = build_context(B, 4, "quasi-periodic")
    assert ctx.susp.is_identity()
    rep = verify_axioms(ctx, samples=3, seed=2)
    assert rep.passed, {k: v for k, v in rep.axioms.items() if not v["pass"]}


def test_local_ring_parity_rule():
    A3 = dual_numbers(F3)
    with pytest.raises(RefusedContext):
        build_context(A3, 3, "local-ring", unit=A3.unit)
    ctx = build_context(A3, 4, "local-ring", unit=A3.unit)
    assert ctx.mode == "local-ring"
    A2 = dual_numbers(F2)
    ctx2 = build_context(A2, 3, "local-ring", unit=A2.unit)
    assert not ctx2.forced
    forced = build_context(A3, 3, "local-ring", unit=A3.unit, force=True)
    assert forced.forced


def test_local_ring_parity_rule_in_any_basis():
    # F3[x]/(x^2) with basis order (x, 1): basis vector 0 is not the unit,
    # and 2p must still be computed as p + p
    A = Algebra(F3, [[[0, 0], [1, 0]], [[1, 0], [0, 1]]], [0, 1], ["x", "1"])
    with pytest.raises(RefusedContext):
        build_context(A, 3, "local-ring", unit=A.unit)
    forced = build_context(A, 3, "local-ring", unit=A.unit, force=True)
    assert forced.forced
    assert forced.data["parity_violation"]


def test_semisimple_gate():
    ok = build_context(product_of_fields(F2), 4, "semisimple")
    assert ok.mode == "semisimple"
    with pytest.raises(RefusedContext):
        build_context(dual_numbers(F2), 3, "semisimple")
    forced = build_context(dual_numbers(F2), 3, "semisimple", force=True)
    assert forced.forced


def test_forced_semisimple_class_refuses_a_non_projective_kernel():
    # the forced contractible class holds wrap disks of projectives only, so
    # an exact complex whose kernel is not projective is a non-member there
    A = dual_numbers(F2)
    T, _ = build_context(A, 3, "quasi-periodic").resolve(simple_over_dual_numbers(A))
    forced = build_context(A, 3, "semisimple", force=True)
    cert = forced.check_membership(T)
    assert not cert.verdict
    assert cert.reason == "no fixed resolution for the kernel: slot 0 is not projective"


# -- resolutions ----------------------------------------------------------------


def check_resolution(ctx, M):
    T, rho = ctx.resolve(M)
    assert is_exact(T)
    K, _ = z1(T)
    assert rho.source == M and rho.target == K
    assert rho.is_iso()
    return T


def test_resolve_quasi_periodic_f2():
    A = dual_numbers(F2)
    ctx = build_context(A, 3, "quasi-periodic")
    k = simple_over_dual_numbers(A)
    T = check_resolution(ctx, k)
    assert T.dims() == (2, 2, 2)
    # the chain k -> A -> A -> A ->> k has all three maps of rank 1
    assert [m.rank() for m in T.maps] == [1, 1, 1]
    # T_k is isomorphic to R(1), the fixed resolution of k in the local-ring context
    cert = build_context(A, 3, "local-ring").check_membership(T)
    assert cert.verdict
    assert cert.comparison.is_degreewise_iso()


def test_resolve_projective_is_contractible():
    A = dual_numbers(F2)
    ctx = build_context(A, 3, "quasi-periodic")
    reg = A.regular_module()
    T = check_resolution(ctx, reg)
    assert is_contractible(T)


def test_resolve_zero_module():
    A = dual_numbers(F2)
    ctx = build_context(A, 3, "quasi-periodic")
    Z = Module.zero(A)
    T, rho = ctx.resolve(Z)
    assert all(d == 0 for d in T.dims())


def test_resolve_local_ring():
    A = dual_numbers(F5)
    ctx = build_context(A, 4, "local-ring", unit=unit(A, 2))
    k = simple_over_dual_numbers(A)
    T = check_resolution(ctx, k)
    # T_k = R(2): first map is multiplication by 2x
    x = A.basis_vector(1)
    two_x = A.multiply(unit(A, 2), x)
    assert T.maps[0].mat == A.regular_module().act(two_x)
    reg = A.regular_module()
    check_resolution(ctx, reg)
    from nangulate.algebras import direct_sum_modules

    M, _, _ = direct_sum_modules([reg, k, k])
    check_resolution(ctx, M)


def test_resolve_cache_reuses_iso_classes():
    A = dual_numbers(F2)
    ctx = build_context(A, 3, "quasi-periodic")
    k1 = simple_over_dual_numbers(A)
    T1, _ = ctx.resolve(k1)
    # a different-but-isomorphic copy of k: quotient of A by its radical
    from nangulate.structure import top_module

    k2, _ = top_module(A.regular_module())
    T2, rho2 = ctx.resolve(k2)
    assert T1 == T2
    assert rho2.is_iso()


def test_decompose_local_module():
    A = dual_numbers(F3)
    reg = A.regular_module()
    k = simple_over_dual_numbers(A)
    from nangulate.algebras import direct_sum_modules

    M, _, _ = direct_sum_modules([k, reg, k])
    a, b, E = decompose_local_module(A, M)
    assert (a, b) == (1, 2)
    assert E.is_iso()


# -- membership -------------------------------------------------------------------


def test_membership_of_resolutions_and_trivials():
    A = dual_numbers(F2)
    ctx = build_context(A, 3, "quasi-periodic")
    k = simple_over_dual_numbers(A)
    T, _ = ctx.resolve(k)
    cert = ctx.check_membership(T)
    assert cert.verdict
    assert cert.verify()
    triv = trivial_complex(ctx.susp, A.regular_module(), 3)
    assert ctx.check_membership(triv).verdict


def test_membership_rejects_non_exact():
    A = dual_numbers(F2)
    ctx = build_context(A, 3, "quasi-periodic")
    reg = A.regular_module()
    susp = ctx.susp
    from nangulate.complexes import PeriodicComplex

    bad = PeriodicComplex(
        susp,
        [reg, reg, Module.zero(A)],
        [
            ModuleMap.zero(reg, reg),
            ModuleMap.zero(reg, Module.zero(A)),
            ModuleMap.zero(Module.zero(A), susp.apply_module(reg)),
        ],
    )
    cert = ctx.check_membership(bad)
    assert not cert.verdict
    assert cert.reason == "not exact"


def test_membership_unit_table_f3():
    # R(v) is a member of Theta_u iff u = v mod the annihilator of x
    A = dual_numbers(F3)
    ctx = build_context(A, 4, "local-ring", unit=A.unit)
    R1 = r_u_complex(A, A.unit, 4)
    R2 = r_u_complex(A, unit(A, 2), 4)
    assert ctx.check_membership(R1).verdict
    assert not ctx.check_membership(R2).verdict


def test_membership_forced_odd_rotation_negative_control():
    # Theta_1 forced over F3 with n = 3: rotate_left(R(1)) = R(-1) = R(2) is out
    A = dual_numbers(F3)
    ctx = build_context(A, 3, "local-ring", unit=A.unit, force=True)
    R1 = r_u_complex(A, A.unit, 3)
    assert ctx.check_membership(R1).verdict
    rot = rotate_left(R1)
    assert not ctx.check_membership(rot).verdict


@pytest.mark.parametrize("n, force, rotate", [(4, False, False), (3, True, True)])
def test_negative_membership_certificate_is_a_left_null_vector(n, force, rotate):
    # R(2) in Theta_1 over F3[x]/(x^2), n=4, and rotate_left(R(1)) in the
    # forced n=3 class: the certificate must kill the anchored system's
    # matrix and not its right-hand side
    A = dual_numbers(F3)
    ctx = build_context(A, n, "local-ring", unit=A.unit, force=force)
    X = rotate_left(r_u_complex(A, A.unit, n)) if rotate else r_u_complex(A, unit(A, 2), n)
    cert = ctx.check_membership(X)
    assert not cert.verdict
    assert cert.cert is not None
    M, inclX = z1(X)
    T, rho = ctx.resolve(M)
    _, inclT = z1(T)
    if cert.comparison is None:
        prob = ctx._anchored_problem(X, inclX, T, inclT, rho.mat)
    else:
        prob = ctx._anchored_problem(T, inclT, X, inclX, rho.mat.inverse())
    Amat, Bmat = prob.matrix()
    assert (cert.cert @ Amat).is_zero()
    assert not (cert.cert @ Bmat).is_zero()


def test_membership_closed_under_sum_and_iso():
    A = dual_numbers(F2)
    ctx = build_context(A, 3, "quasi-periodic")
    k = simple_over_dual_numbers(A)
    T, _ = ctx.resolve(k)
    D = disk_complex(ctx.susp, A.regular_module(), 3, 1)
    S = direct_sum_complexes(T, D)
    assert ctx.check_membership(S).verdict


def test_membership_semisimple_contractibles():
    A = product_of_fields(F2)
    ctx = build_context(A, 4, "semisimple")
    reg = A.regular_module()
    T = trivial_complex(ctx.susp, reg, 4)
    assert ctx.check_membership(T).verdict
    # a non-contractible exact complex cannot exist over a semisimple algebra,
    # so the only way to fail is inexactness
    from nangulate.complexes import PeriodicComplex

    bad = PeriodicComplex(
        ctx.susp,
        [reg, reg, reg, reg],
        [ModuleMap.zero(reg, reg)] * 4,
    )
    assert not ctx.check_membership(bad).verdict


# -- lifting ---------------------------------------------------------------------


def test_lift_morphism_exact_kernel_level():
    A = dual_numbers(F2)
    ctx = build_context(A, 3, "quasi-periodic")
    k = simple_over_dual_numbers(A)
    T, rho = ctx.resolve(k)
    M, _ = z1(T)
    for h in hom_basis(M, M):
        lifted = ctx.lift_morphism(h, T, T)
        assert z1_of_chain(lifted).mat == h.mat


def test_lift_identity_is_equivalence():
    A = dual_numbers(F2)
    ctx = build_context(A, 3, "quasi-periodic")
    k = simple_over_dual_numbers(A)
    T, _ = ctx.resolve(k)
    M, _ = z1(T)
    idh = ModuleMap.identity(M)
    lifted = ctx.lift_morphism(idh, T, T)
    from nangulate.complexes import is_homotopy_equivalence

    assert is_homotopy_equivalence(lifted) is not None


def test_lift_zero_cone_membership():
    A = dual_numbers(F2)
    ctx = build_context(A, 3, "quasi-periodic")
    k = simple_over_dual_numbers(A)
    T, _ = ctx.resolve(k)
    M, _ = z1(T)
    zero = ModuleMap.zero(M, M)
    lifted = ctx.lift_morphism(zero, T, T)
    assert z1_of_chain(lifted).mat.is_zero()
    cone = mapping_cone(lifted)
    assert ctx.check_membership(cone).verdict


def test_strong_fullness_sample():
    A = dual_numbers(F2)
    ctx = build_context(A, 3, "quasi-periodic")
    k = simple_over_dual_numbers(A)
    reg = A.regular_module()
    T1, _ = ctx.resolve(k)
    T2, _ = ctx.resolve(reg)
    M1, _ = z1(T1)
    M2, _ = z1(T2)
    for h in hom_basis(M1, M2):
        lifted = ctx.lift_morphism(h, T1, T2)
        assert z1_of_chain(lifted).mat == h.mat
        assert ctx.check_membership(mapping_cone(lifted)).verdict


# -- first-map completion ----------------------------------------------------------


def completion_cases_f2():
    A = dual_numbers(F2)
    reg = A.regular_module()
    x = A.basis_vector(1)
    cases = [
        ModuleMap(reg, reg, reg.act(x), check=False),  # radical map
        ModuleMap.identity(reg),  # iso
        ModuleMap.zero(reg, reg),  # zero
    ]
    return A, cases


def test_complete_first_map_quasi_periodic():
    A, cases = completion_cases_f2()
    ctx = build_context(A, 3, "quasi-periodic")
    for f in cases:
        X = ctx.complete_first_map(f)
        assert X.maps[0].mat == f.mat
        assert is_exact(X)
        assert ctx.check_membership(X).verdict


def test_complete_first_map_larger_shapes():
    A = dual_numbers(F2)
    ctx = build_context(A, 4, "quasi-periodic")
    reg = A.regular_module()
    from nangulate.algebras import direct_sum_modules

    M2, _, _ = direct_sum_modules([reg, reg])
    x = A.basis_vector(1)
    # f: A^2 -> A, (a, b) |-> a x (one radical column, one zero column)
    mat = Mat.block(F2, [[reg.act(x)], [None]], [2, 2], [2])
    f = ModuleMap(M2, reg, mat, check=False)
    X = ctx.complete_first_map(f)
    assert X.maps[0].mat == f.mat
    assert ctx.check_membership(X).verdict


def test_complete_first_map_local_ring():
    A = dual_numbers(F5)
    ctx = build_context(A, 4, "local-ring", unit=unit(A, 3))
    reg = A.regular_module()
    x = A.basis_vector(1)
    for c in (0, 1, 2):
        f = ModuleMap(reg, reg, reg.act(A.multiply(unit(A, c) if c else (F5.zero, F5.zero), x)), check=False) if c else ModuleMap.zero(reg, reg)
        X = ctx.complete_first_map(f)
        assert X.maps[0].mat == f.mat
        assert ctx.check_membership(X).verdict


def test_complete_semisimple_and_negative_control():
    A = product_of_fields(F2)
    ctx = build_context(A, 4, "semisimple")
    reg = A.regular_module()
    for f in hom_basis(reg, reg):
        X = ctx.complete_first_map(f)
        assert X.maps[0].mat == f.mat
        assert ctx.check_membership(X).verdict
    # forced contractible-only class on the dual numbers: the radical map
    # admits no contractible completion
    B = dual_numbers(F2)
    forced = build_context(B, 3, "semisimple", force=True)
    regB = B.regular_module()
    bad = ModuleMap(regB, regB, regB.act(B.basis_vector(1)), check=False)
    with pytest.raises(EngineError):
        forced.complete_first_map(bad)


# -- N3 / N4 instances ---------------------------------------------------------------


def test_complete_to_chain_map_and_cone():
    A = dual_numbers(F2)
    ctx = build_context(A, 3, "quasi-periodic")
    k = simple_over_dual_numbers(A)
    T, _ = ctx.resolve(k)
    M, _ = z1(T)
    h = hom_basis(M, M)[0]
    base = ctx.lift_morphism(h, T, T)
    phi = ctx.complete_to_chain_map(T, T, base.parts[0], base.parts[1])
    assert phi is not None
    psi = ctx.cone_completion(T, T, base.parts[0], base.parts[1])
    cone = mapping_cone(psi)
    assert ctx.check_membership(cone).verdict


def test_split_mono_consistency():
    A = dual_numbers(F2)
    ctx = build_context(A, 3, "quasi-periodic")
    triv = trivial_complex(ctx.susp, A.regular_module(), 3)
    res = ctx.split_mono_test(triv)
    assert res["split_mono"] and res["last_zero"] and res["consistent"]
    R1 = r_u_complex(A, A.unit, 3)
    res2 = ctx.split_mono_test(R1)
    assert not res2["split_mono"] and not res2["last_zero"] and res2["consistent"]


# -- beta comparison ------------------------------------------------------------------


def test_beta_comparison_members_and_non_members():
    A = dual_numbers(F3)
    ctx = build_context(A, 4, "local-ring", unit=A.unit)
    R1 = r_u_complex(A, A.unit, 4)
    R2 = r_u_complex(A, unit(A, 2), 4)
    _, _, eq1 = ctx.beta_comparison(R1)
    _, _, eq2 = ctx.beta_comparison(R2)
    assert eq1 is True
    assert eq2 is False
    assert ctx.check_membership(R1).verdict == eq1
    assert ctx.check_membership(R2).verdict == eq2


def test_beta_zero_module():
    A = dual_numbers(F2)
    ctx = build_context(A, 3, "quasi-periodic")
    triv = trivial_complex(ctx.susp, A.regular_module(), 3)
    _, _, eq = ctx.beta_comparison(triv)
    assert eq is True


# -- twisted contexts -----------------------------------------------------------------


def test_twisted_context_identity_unit():
    A = dual_numbers(F5)
    ctx = build_context(A, 4, "local-ring", unit=A.unit)
    tw = ctx.twisted(A.unit)
    R1 = r_u_complex(A, A.unit, 4)
    assert ctx.check_membership(R1).verdict == tw.check_membership(R1).verdict


def test_twisted_matches_unit_class():
    # Theta_1^{lambda_u} = Theta_u over F5[x]/(x^2), n = 4
    A = dual_numbers(F5)
    base = build_context(A, 4, "local-ring", unit=A.unit)
    for u in (2, 3, 4):
        tw = base.twisted(unit(A, u))
        direct = build_context(A, 4, "local-ring", unit=unit(A, u))
        for v in (1, 2, 3, 4):
            Rv = r_u_complex(A, unit(A, v), 4)
            assert tw.check_membership(Rv).verdict == direct.check_membership(Rv).verdict


def test_twisted_rejects_noncentral_or_nonunit():
    A = dual_numbers(F5)
    ctx = build_context(A, 4, "local-ring", unit=A.unit)
    with pytest.raises(RefusedContext):
        ctx.twisted(A.basis_vector(1))  # x is not a unit


def test_resolve_of_sum_equivalent_to_sum_of_resolutions():
    # T over a direct sum is homotopy equivalent to the sum of the T's:
    # the sum of resolutions resolves the sum, so it must be a member
    A = dual_numbers(F2)
    ctx = build_context(A, 3, "quasi-periodic")
    k = simple_over_dual_numbers(A)
    reg = A.regular_module()
    T1, _ = ctx.resolve(k)
    T2, _ = ctx.resolve(reg)
    S = direct_sum_complexes(T1, T2)
    cert = ctx.check_membership(S)
    assert cert.verdict
    assert cert.verify()


def test_envelope_and_cover_of_zero_module():
    from nangulate.structure import injective_envelope, projective_cover

    A = dual_numbers(F2)
    Z = Module.zero(A)
    I, mono = injective_envelope(Z)
    assert I.dim == 0
    assert projective_cover(Z).P.dim == 0


def test_large_prime_local_ring():
    F97 = field_by_name("F97")
    A = dual_numbers(F97)
    ctx = build_context(A, 4, "local-ring", unit=A.unit)
    R1 = r_u_complex(A, A.unit, 4)
    u5 = tuple(F97.mul(F97.of_int(5), c) for c in A.unit)
    assert ctx.check_membership(R1).verdict
    assert not ctx.check_membership(r_u_complex(A, u5, 4)).verdict
    from nangulate.verify import verify_axioms

    rep = verify_axioms(ctx, samples=4, seed=3)
    assert rep.passed


def test_local_ring_axioms_hold():
    from nangulate.verify import verify_axioms

    A = dual_numbers(F3)
    ctx = build_context(A, 4, "local-ring", unit=A.unit)
    rep = verify_axioms(ctx, samples=6, seed=2)
    assert rep.passed, {k: v for k, v in rep.axioms.items() if not v["pass"]}


def test_twisted_sigma_axioms_hold():
    # period 3 over F3 runs with a genuinely nontrivial suspension twist
    from nangulate.verify import verify_axioms

    A = dual_numbers(F3)
    ctx = build_context(A, 3, "quasi-periodic")
    assert not ctx.susp.is_identity()
    rep = verify_axioms(ctx, samples=6, seed=19)
    assert rep.passed, {k: v for k, v in rep.axioms.items() if not v["pass"]}


def test_beta_agrees_with_membership_on_random_members():
    from nangulate.verify import Sampler

    A = dual_numbers(F3)
    ctx = build_context(A, 4, "local-ring", unit=A.unit)
    rng = random.Random(71)
    s = Sampler(ctx, rng)
    for _ in range(10):
        X = s.random_member()
        _, _, eq = ctx.beta_comparison(X)
        assert eq == ctx.check_membership(X).verdict


def test_module_iso_search():
    A = dual_numbers(F2)
    k1 = simple_over_dual_numbers(A)
    from nangulate.structure import top_module

    k2, _ = top_module(A.regular_module())
    iso = module_iso_search(k1, k2)
    assert iso is not None and iso.is_iso()
    assert module_iso_search(k1, A.regular_module()) is None


def test_sampler_member_fallback_catches_only_the_forced_refusal(monkeypatch):
    from nangulate.complexes import ComplexError
    from nangulate.verify import Sampler

    forced = build_context(dual_numbers(F2), 3, "semisimple", force=True)
    real_resolve = forced.resolve
    calls = []

    def refuse_first(M):
        calls.append(M)
        if len(calls) == 1:
            raise ComplexError("slot 0 is not projective")
        return real_resolve(M)

    monkeypatch.setattr(forced, "resolve", refuse_first)
    Sampler(forced, random.Random(3)).random_member()
    assert len(calls) == 2  # the refusal fell back to a projective

    def broken(M):
        raise TypeError("not a refusal")

    monkeypatch.setattr(forced, "resolve", broken)
    with pytest.raises(TypeError, match="not a refusal"):
        Sampler(forced, random.Random(3)).random_member()

    # an unforced context never refuses a module, so the same error is a fault
    ctx = build_context(dual_numbers(F2), 3, "quasi-periodic")
    monkeypatch.setattr(ctx, "resolve", refuse_first)
    calls.clear()
    with pytest.raises(ComplexError):
        Sampler(ctx, random.Random(3)).random_member()
