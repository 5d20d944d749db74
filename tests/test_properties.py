"""Property tests for structural invariants not already pinned elsewhere."""

import random

import pytest

from nangulate.algebras import Module, ModuleMap, hom_basis, kernel
from nangulate.builders import dual_numbers, product_of_fields, simple_over_dual_numbers
from nangulate.complexes import (
    ChainMap,
    Suspension,
    homotopy_between,
    is_exact,
    mapping_cone,
    rotate_left,
    trivial_complex,
    z1,
)
from nangulate.engine import build_context, r_u_complex
from nangulate.linalg import Mat, field_by_name, null_right, row_space_basis
from nangulate.structure import is_semisimple, split_through_image
from nangulate.verify import Sampler

F2 = field_by_name("F2")
F3 = field_by_name("F3")


def test_image_and_kernel_basis_ops():
    A = Mat.from_int_rows(F3, [[1, 2], [2, 1], [0, 0]])
    img = row_space_basis(A.transpose()).transpose()
    assert img.ncols == A.rank()
    ker = null_right(A)
    assert (A @ ker).is_zero()
    assert A.rank() + ker.ncols == A.ncols


def test_n_fold_rotation_is_suspension_shift():
    # rotating n times gives the suspended complex with every map scaled
    # by (-1)^n (each map wraps exactly once)
    A = dual_numbers(F3)
    for n in (3, 4):
        R = r_u_complex(A, A.unit, n)
        X = R
        for _ in range(n):
            X = rotate_left(X)
        susp = R.susp
        sign = F3.one if n % 2 == 0 else F3.neg(F3.one)
        for i in range(n):
            assert X.objects[i] == susp.apply_module(R.objects[i])
            assert X.maps[i].mat == R.maps[i].mat.scale(sign)


def test_homotopy_symmetric_and_transitive():
    A = dual_numbers(F2)
    ctx = build_context(A, 3, "quasi-periodic")
    rng = random.Random(17)
    sampler = Sampler(ctx, rng)
    X = sampler.random_member(conjugate=False)
    from nangulate.complexes import coboundary_chain_map, homotopy_slot_types

    def rand_cob():
        parts = []
        for i in range(X.n):
            src, tgt = homotopy_slot_types(X, X, i)
            parts.append(sampler.random_hom(src, tgt))
        return coboundary_chain_map(X, X, parts)

    idc = ChainMap.identity(X)
    phi = idc + rand_cob()
    psi = idc + rand_cob()
    h1, _ = homotopy_between(phi, psi)
    assert h1 is not None and h1.verifies(phi, psi)
    # symmetry: negated parts witness the reverse direction
    from nangulate.complexes import Homotopy

    neg = Homotopy(X, X, [ -p for p in h1.parts ])
    assert neg.verifies(psi, phi)
    # transitivity: witnesses add
    chi = idc + rand_cob()
    h2, _ = homotopy_between(psi, chi)
    assert h2 is not None
    total = Homotopy(X, X, [a + b for a, b in zip(h1.parts, h2.parts)])
    assert total.verifies(phi, chi)


def test_cone_of_chain_map_between_exact_is_exact():
    A = dual_numbers(F2)
    ctx = build_context(A, 3, "quasi-periodic")
    rng = random.Random(23)
    sampler = Sampler(ctx, rng)
    for _ in range(20):
        X = sampler.random_member(conjugate=False)
        Y = sampler.random_member(conjugate=False)
        MX, _ = z1(X)
        MY, _ = z1(Y)
        h = sampler.random_hom(MX, MY)
        phi = ctx.lift_morphism(h, X, Y)
        assert is_exact(X) and is_exact(Y)
        assert is_exact(mapping_cone(phi))


def test_z1_resolve_round_trip_random_modules():
    for ctx in (
        build_context(dual_numbers(F2), 3, "quasi-periodic"),
        build_context(dual_numbers(F3), 4, "local-ring", unit=dual_numbers(F3).unit),
    ):
        rng = random.Random(29)
        sampler = Sampler(ctx, rng)
        for _ in range(25):
            M = sampler.random_module()
            T, rho = ctx.resolve(M)
            K, _ = z1(T)
            assert rho.source == M and rho.target == K and rho.is_iso()


def test_members_are_exact():
    # every sampled member is exact (angles are exact)
    ctx = build_context(dual_numbers(F2), 3, "quasi-periodic")
    rng = random.Random(31)
    sampler = Sampler(ctx, rng)
    for _ in range(20):
        assert is_exact(sampler.random_member())


def test_injective_first_map_with_zero_kernel_splits():
    # mono => split mono at the tested level: a member whose first map has
    # zero kernel admits a computed left inverse
    ctx = build_context(dual_numbers(F2), 3, "quasi-periodic")
    rng = random.Random(37)
    sampler = Sampler(ctx, rng)
    found = 0
    for _ in range(120):
        X = sampler.random_member()
        M, _ = z1(X)
        if M.dim != 0:
            continue
        if X.objects[0].dim == 0:
            continue
        found += 1
        res = ctx.split_mono_test(X)
        assert res["split_mono"], "injective first map without a left inverse"
        assert res["consistent"]
    assert found >= 3


def test_semisimple_split_factorization_100_random():
    A = product_of_fields(F2)
    assert is_semisimple(A)
    rng = random.Random(41)
    reg = A.regular_module()
    from nangulate.algebras import direct_sum_modules

    M, _, _ = direct_sum_modules([reg, reg])
    N, _, _ = direct_sum_modules([reg])
    basis = hom_basis(M, N)
    done = 0
    while done < 100:
        f = ModuleMap.zero(M, N)
        for b in basis:
            if rng.random() < 0.5:
                f = f + b
        split = split_through_image(f)
        assert split is not None
        onto, incl, section, retraction = split
        assert onto.then(incl).mat == f.mat
        W = incl.source
        assert section.then(onto).mat == Mat.identity(F2, W.dim)
        assert incl.then(retraction).mat == Mat.identity(F2, W.dim)
        done += 1


def test_kernel_cokernel_exactness_contracts():
    # inclusion intertwines and the composite with f vanishes, exactly
    A = dual_numbers(F3)
    reg = A.regular_module()
    k = simple_over_dual_numbers(A)
    from nangulate.algebras import cokernel, direct_sum_modules

    M, _, _ = direct_sum_modules([reg, k])
    rng = random.Random(43)
    for _ in range(25):
        f = ModuleMap.zero(M, reg)
        for b in hom_basis(M, reg):
            c = rng.randrange(3)
            if c:
                f = f + b.scale(F3.of_int(c))
        K, incl = kernel(f)
        ModuleMap(K, M, incl.mat)  # validates intertwining
        assert (incl.mat @ f.mat).is_zero()
        Q, proj = cokernel(f)
        ModuleMap(reg, Q, proj.mat)
        assert (f.mat @ proj.mat).is_zero()
        assert K.dim - M.dim + reg.dim - Q.dim == 0  # rank bookkeeping
