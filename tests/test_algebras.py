import itertools
import random

import pytest

from nangulate.algebras import (
    Algebra,
    AlgebraError,
    Automorphism,
    Module,
    ModuleMap,
    cokernel,
    direct_sum_modules,
    hom_basis,
    image,
    kernel,
    quotient_by_rows,
    submodule_from_rows,
)
from nangulate.bimodules import bimodule_syzygy, kron, tensor_map_bimodule_side, tensor_module_bimodule
from nangulate.builders import (
    dual_numbers,
    field_extension_f4,
    matrix_algebra_2x2,
    path_algebra_a2,
    product_of_fields,
    right_multiplication_map,
    scaling_automorphism,
    simple_over_dual_numbers,
    truncated_polynomial_algebra,
)
from nangulate.linalg import Mat, QQ, field_by_name, row_space_basis, solve_xa_b

F2 = field_by_name("F2")
F3 = field_by_name("F3")
F5 = field_by_name("F5")


def all_matrices(field, m, n):
    for entries in itertools.product(field.elements(), repeat=m * n):
        yield Mat(field, [entries[i * n : (i + 1) * n] for i in range(m)], n)


def brute_hom_dim(M, N):
    """Oracle: enumerate every matrix over F_p and keep the intertwiners."""
    field = M.algebra.field
    hits = []
    for mat in all_matrices(field, M.dim, N.dim):
        if all(M.action[i] @ mat == mat @ N.action[i] for i in range(M.algebra.dim)):
            hits.append(mat.flatten())
    if not hits:
        return 0
    return Mat(field, hits, M.dim * N.dim).rank()


def test_associativity_validation():
    ok = [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
    ]
    # F2[x]/(x^2 - 1) = F2[x]/(x+1)^2 is associative
    Algebra(F2, ok, [1, 0])
    # u*u = v, u*v = 0, v*u = 1 violates (uu)u = u(uu)
    z3 = [0, 0, 0]
    bad = [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 1, 0], [0, 0, 1], z3],
        [[0, 0, 1], [1, 0, 0], z3],
    ]
    with pytest.raises(AlgebraError):
        Algebra(F2, bad, [1, 0, 0])
    # unit law violation: x*1 = 0
    bad_unit = [
        [[1, 0], [0, 1]],
        [[0, 0], [0, 0]],
    ]
    with pytest.raises(AlgebraError):
        Algebra(F2, bad_unit, [1, 0])


def test_regular_module_axioms():
    for A in (dual_numbers(F2), product_of_fields(F3), path_algebra_a2(F2)):
        reg = A.regular_module()
        reg._validate()


def test_hom_dims_against_enumeration():
    A = dual_numbers(F2)
    reg = A.regular_module()
    k = simple_over_dual_numbers(A)
    assert k.dim == 1
    assert len(hom_basis(reg, reg)) == 2 == brute_hom_dim(reg, reg)
    assert len(hom_basis(k, k)) == 1 == brute_hom_dim(k, k)
    assert len(hom_basis(k, reg)) == 1 == brute_hom_dim(k, reg)
    assert len(hom_basis(reg, k)) == 1 == brute_hom_dim(reg, k)


def test_hom_to_zero():
    A = dual_numbers(F2)
    Z = Module.zero(A)
    assert len(hom_basis(A.regular_module(), Z)) == 0
    assert len(hom_basis(Z, A.regular_module())) == 0


def test_kernel_of_identity_and_zero():
    A = dual_numbers(F3)
    reg = A.regular_module()
    K, _ = kernel(ModuleMap.identity(reg))
    assert K.dim == 0
    K2, incl = kernel(ModuleMap.zero(reg, reg))
    assert K2.dim == reg.dim
    assert incl.mat.rank() == reg.dim


def test_kernel_of_mult_by_x():
    # oracle: kernel of the 2x2 action matrix of x
    A = dual_numbers(F2)
    f = right_multiplication_map(A, A.basis_vector(1))
    K, incl = kernel(f)
    assert K.dim == 1
    # verify incl . f == 0 and intertwining of incl
    assert (incl.mat @ f.mat).is_zero()
    incl_checked = ModuleMap(K, f.source, incl.mat)  # validates intertwining
    assert incl_checked.mat == incl.mat


def test_image_cokernel_composition():
    A = dual_numbers(F2)
    f = right_multiplication_map(A, A.basis_vector(1))
    I, incl, onto = image(f)
    assert I.dim == 1
    assert onto.then(incl).mat == f.mat
    Q, proj = cokernel(f)
    assert Q.dim == 1
    assert (f.mat @ proj.mat).is_zero()


def test_direct_sum_roundtrip():
    A = dual_numbers(F2)
    reg = A.regular_module()
    k = simple_over_dual_numbers(A)
    S, incls, projs = direct_sum_modules([reg, k])
    assert S.dim == 3
    S._validate()
    for inc, prj in zip(incls, projs):
        assert inc.then(prj).mat == Mat.identity(F2, inc.source.dim)


def test_automorphism_validation():
    A = dual_numbers(F3)
    sigma = scaling_automorphism(A, 1, F3.of_int(-1))
    assert sigma.apply(A.basis_vector(1)) == (0, 2)
    assert sigma.then(sigma).is_identity()
    assert sigma.order() == 2
    with pytest.raises(AlgebraError):
        # x |-> x + 1 is not multiplicative
        Automorphism(A, Mat.from_int_rows(F3, [[1, 0], [1, 1]]))


def test_submodule_closure():
    A = path_algebra_a2(F2)
    reg = A.regular_module()
    # the row e1 generates e1*A = span{e1, a}
    rows = Mat.from_int_rows(F2, [[1, 0, 0]])
    S, incl = submodule_from_rows(reg, rows)
    assert S.dim == 2


def inverse_quotient(M, rows):
    """Oracle: the complement selection comp and proj = [basis; comp]^-1 at the comp columns."""
    F = M.algebra.field
    basis = row_space_basis(rows)
    r = basis.nrows
    _, piv = basis.rref()
    free = [j for j in range(M.dim) if j not in piv]
    comp = Mat(F, [[F.one if j == c else F.zero for j in range(M.dim)] for c in free], M.dim)
    full = basis.vstack(comp) if r else comp
    return comp, full.inverse().submatrix(range(M.dim), range(r, M.dim))


def test_quotient_projection_matches_inverse_oracle():
    rng = random.Random(11)
    for F in (F2, F3, QQ):
        A = truncated_polynomial_algebra(F, 3)
        M, _, _ = direct_sum_modules([A.regular_module(), A.regular_module()])
        # r = 0 (nothing to divide by) and q = 0 (everything), then random submodules
        cases = [Mat(F, [], ncols=M.dim), Mat.identity(F, M.dim)]
        for _ in range(6):
            rows = Mat(F, [[F.of_int(rng.randrange(-2, 3)) for _ in range(M.dim)] for _ in range(rng.randint(1, 2))], M.dim)
            cases.append(submodule_from_rows(M, rows)[1].mat)
        for rows in cases:
            Q, proj = quotient_by_rows(M, rows)
            if Q.dim == 0:
                assert (proj.mat.nrows, proj.mat.ncols) == (M.dim, 0)
                continue
            comp, ref = inverse_quotient(M, rows)
            assert proj.mat == ref
            assert list(Q.action) == [comp @ am @ ref for am in M.action]
            Q._validate()


def test_tensor_section_selects_the_complement():
    # section @ proj = I, and the induced maps are those of the section the
    # general solve picks, since a map induced on the quotient ignores the choice
    for F in (F2, F3, QQ):
        A = truncated_polynomial_algebra(F, 3)
        chain = bimodule_syzygy(A, 2)
        env = chain.env
        reg = A.regular_module()
        simple, _ = quotient_by_rows(reg, Mat(F, [A.basis_vector(1), A.basis_vector(2)], 3))
        g = chain.boundary_maps()[1]
        for M in (reg, simple):
            src = tensor_module_bimodule(env, M, g.source)
            tgt = tensor_module_bimodule(env, M, g.target)
            for tens in (src, tgt):
                assert tens.section @ tens.proj == Mat.identity(F, tens.module.dim)
            solved = solve_xa_b(src.proj, Mat.identity(F, src.module.dim))
            induced = tensor_map_bimodule_side(env, M, g, src, tgt).mat
            assert induced == solved @ kron(Mat.identity(F, M.dim), g.mat) @ tgt.proj
