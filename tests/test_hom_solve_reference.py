"""solve_in_hom against the dense column assembly it replaced.

The reference flattens L @ b @ R into one column per basis map b of
Hom(M, N), solves with solve_right and sums the basis maps with the
solution's coefficients.  solve_in_hom assembles the same matrix sparsely
through LinearProblem; both read the solution off the rref of the same
[A | B], so they must agree exactly, None included.
"""

from hypothesis import given, settings, strategies as st

from nangulate.algebras import direct_sum_modules, hom_basis, solve_in_hom, submodule_from_rows
from nangulate.builders import product_of_fields, truncated_polynomial_algebra
from nangulate.linalg import QQ, Mat, field_by_name, solve_right

FIELDS = [field_by_name("F2"), field_by_name("F3"), QQ]


def ref_solve_in_hom(M, N, L, R, rhs):
    basis = hom_basis(M, N)
    F = M.algebra.field
    if not basis:
        return Mat.zeros(F, M.dim, N.dim) if rhs.is_zero() else None
    cols = []
    for b in basis:
        c = b.mat
        if L is not None:
            c = L @ c
        if R is not None:
            c = c @ R
        cols.append(c.flatten())
    Amat = Mat(F, list(zip(*cols)), len(cols))
    Bmat = Mat(F, [[v] for v in rhs.flatten()], 1)
    X, _ = solve_right(Amat, Bmat, want_cert=False)
    if X is None:
        return None
    out = Mat.zeros(F, M.dim, N.dim)
    for c, b in zip((r[0] for r in X.rows), basis):
        if c != F.zero:
            out = out + b.mat.scale(c)
    return out


def _modules(F):
    """Modules over k[x]/(x^3) and over k x k; Hom(e1 A, e2 A) = 0."""
    A = truncated_polynomial_algebra(F, 3)
    reg = A.regular_module()
    rad, _ = submodule_from_rows(reg, Mat(F, [[0, 1, 0]], 3))
    soc, _ = submodule_from_rows(reg, Mat(F, [[0, 0, 1]], 3))
    reg_soc, _, _ = direct_sum_modules([reg, soc])
    B = product_of_fields(F)
    e1, _ = submodule_from_rows(B.regular_module(), Mat(F, [[1, 0]], 2))
    e2, _ = submodule_from_rows(B.regular_module(), Mat(F, [[0, 1]], 2))
    return [[reg, rad, soc, reg_soc], [e1, e2, B.regular_module()]]


MODULES = {F.name: _modules(F) for F in FIELDS}


def _random_mat(data, F, m, n):
    vals = data.draw(st.lists(st.integers(-2, 2), min_size=m * n, max_size=m * n))
    return Mat(F, [[F.of_int(v) for v in vals[i * n : (i + 1) * n]] for i in range(m)], n)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_solve_in_hom_matches_dense_reference(data):
    F = data.draw(st.sampled_from(FIELDS))
    family = data.draw(st.sampled_from(MODULES[F.name]))
    M = data.draw(st.sampled_from(family))
    N = data.draw(st.sampled_from(family))
    shape = data.draw(st.sampled_from(["L", "R", "LR", "none"]))
    L = _random_mat(data, F, data.draw(st.integers(1, 3)), M.dim) if "L" in shape else None
    R = _random_mat(data, F, N.dim, data.draw(st.integers(1, 3))) if "R" in shape else None
    rows = M.dim if L is None else L.nrows
    cols = N.dim if R is None else R.ncols
    if data.draw(st.booleans()):
        # solvable: the image of a random element of Hom(M, N)
        U = Mat.zeros(F, M.dim, N.dim)
        for b in hom_basis(M, N):
            U = U + b.mat.scale(F.of_int(data.draw(st.integers(-2, 2))))
        rhs = U if L is None else L @ U
        rhs = rhs if R is None else rhs @ R
    else:
        rhs = _random_mat(data, F, rows, cols)
    got = solve_in_hom(M, N, L, R, rhs)
    assert got == ref_solve_in_hom(M, N, L, R, rhs)
    if got is not None:
        lhs = got if L is None else L @ got
        assert (lhs if R is None else lhs @ R) == rhs


def test_solve_in_hom_fixed_cases():
    for F in FIELDS:
        reg, rad, soc, _ = MODULES[F.name][0]
        e1, e2, _ = MODULES[F.name][1]
        # empty hom basis: only the zero right-hand side is solvable
        assert hom_basis(e1, e2) == ()
        assert solve_in_hom(e1, e2, None, None, Mat.zeros(F, 1, 1)) == Mat.zeros(F, 1, 1)
        assert solve_in_hom(e1, e2, None, None, Mat.identity(F, 1)) is None
        assert ref_solve_in_hom(e1, e2, None, None, Mat.identity(F, 1)) is None
        # the socle does not split off the regular module: no retraction
        _, incl = submodule_from_rows(reg, Mat(F, [[0, 0, 1]], 3))
        assert solve_in_hom(reg, soc, incl.mat, None, Mat.identity(F, 1)) is None
        # but the regular module is projective: identity lifts along itself
        one = Mat.identity(F, 3)
        assert solve_in_hom(reg, reg, None, one, one) == one
