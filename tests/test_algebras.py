import itertools

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
    submodule_from_rows,
)
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
from nangulate.linalg import Mat, QQ, field_by_name

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
