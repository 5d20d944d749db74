import itertools

import pytest
from hypothesis import given, settings, strategies as st

from nangulate.linalg import (
    Mat,
    PrimeField,
    QQ,
    field_by_name,
    left_null_basis,
    null_right,
    row_space_basis,
    solve_right,
    solve_xa_b,
)

F2 = field_by_name("F2")
F3 = field_by_name("F3")
F5 = field_by_name("F5")


def brute_kernel(field, A):
    """Oracle: enumerate all vectors of F_p^n and keep those with A x = 0."""
    n = A.ncols
    hits = []
    for vec in itertools.product(field.elements(), repeat=n):
        col = Mat(field, [[v] for v in vec], 1)
        if (A @ col).is_zero():
            hits.append(vec)
    return hits


def span_dim(field, vecs, n):
    if not vecs:
        return 0
    return Mat(field, vecs, n).rank()


def test_solve_identity():
    I2 = Mat.identity(F2, 2)
    X, cert = solve_right(I2, I2)
    ker = null_right(I2)
    assert cert is None
    assert X == I2
    assert ker.ncols == 0


def test_solve_zero_matrix():
    Z = Mat.zeros(F2, 2, 2)
    X, cert = solve_right(Z, Z)
    ker = null_right(Z)
    assert cert is None
    assert X.is_zero()
    # kernel is the full 2-dim space
    assert ker.ncols == 2
    assert ker.rank() == 2


def test_f3_singular_example():
    # det([[1,2],[2,1]]) = -3 = 0 over F3: rank 1, kernel spanned by (1,1).
    # Oracle: exhaustive enumeration of all 9 vectors.
    A = Mat.from_int_rows(F3, [[1, 2], [2, 1]])
    kernel_vectors = brute_kernel(F3, A)
    assert span_dim(F3, kernel_vectors, 2) == 1
    assert (1, 1) in kernel_vectors

    assert A.rank() == 1
    B = Mat.zeros(F3, 2, 1)
    X, cert = solve_right(A, B)
    ker = null_right(A)
    assert cert is None
    assert X.is_zero()
    assert ker.ncols == 1
    assert (A @ ker).is_zero()
    # normalized basis vector is (1,1)
    assert [r[0] for r in ker.rows] == [1, 1]


def test_rank_identity_and_zero():
    for n in (1, 2, 5):
        assert Mat.identity(F5, n).rank() == n
    assert Mat.zeros(F3, 3, 4).rank() == 0
    assert null_right(Mat.zeros(F3, 3, 4)).ncols == 4


def test_f2_rank_one_kernel():
    # Oracle: enumerate all 4 vectors of F2^2.
    A = Mat.from_int_rows(F2, [[1, 1], [1, 1]])
    hits = brute_kernel(F2, A)
    assert set(hits) == {(0, 0), (1, 1)}
    assert A.rank() == 1
    K = null_right(A)
    assert K.ncols == 1
    assert [r[0] for r in K.rows] == [1, 1]


def test_unsolvable_certificate():
    A = Mat.from_int_rows(F2, [[1, 0], [1, 0]])
    B = Mat.from_int_rows(F2, [[1], [0]])
    X, cert = solve_right(A, B)
    assert X is None
    assert (cert @ A).is_zero()
    assert not (cert @ B).is_zero()


def test_rref_idempotent():
    A = Mat.from_int_rows(F5, [[1, 2, 3], [2, 4, 1], [0, 0, 2]])
    R, piv = A.rref()
    R2, piv2 = R.rref()
    assert R == R2 and piv == piv2


def test_rationals_roundtrip():
    A = Mat.from_int_rows(QQ, [[1, 2], [3, 5]])
    B = Mat.identity(QQ, 2)
    X, cert = solve_right(A, B)
    ker = null_right(A)
    assert cert is None
    assert A @ X == B
    assert ker.ncols == 0
    assert A.inverse() @ A == B


def test_inverse_mod_p():
    A = Mat.from_int_rows(F5, [[1, 2], [3, 4]])
    assert A @ A.inverse() == Mat.identity(F5, 2)


@st.composite
def random_mat(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    field = field_by_name(f"F{p}")
    m = draw(st.integers(min_value=0, max_value=12))
    n = draw(st.integers(min_value=0, max_value=12))
    rows = draw(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=p - 1), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
    return Mat(field, rows, n)


@settings(max_examples=120, deadline=None)
@given(random_mat())
def test_rank_nullity_and_kernel(A):
    K = null_right(A)
    assert A.rank() + K.ncols == A.ncols
    if K.ncols:
        assert (A @ K).is_zero()


@settings(max_examples=80, deadline=None)
@given(random_mat(), st.integers(min_value=0, max_value=3))
def test_solve_roundtrip(A, k):
    # build a solvable B = A @ X0 and check the returned solution exactly
    X0 = Mat(
        A.field,
        [[A.field.of_int((i * 7 + j * 3 + k) % 5) for j in range(k)] for i in range(A.ncols)],
        k,
    )
    B = A @ X0
    X, cert = solve_right(A, B)
    assert cert is None
    assert A @ X == B


@settings(max_examples=60, deadline=None)
@given(random_mat())
def test_left_null_and_row_space(A):
    L = left_null_basis(A)
    if L.nrows:
        assert (L @ A).is_zero()
    assert L.nrows + row_space_basis(A).nrows == A.nrows - (A.nrows - A.rank()) + L.nrows
    # dim(left null) = nrows - rank
    assert L.nrows == A.nrows - A.rank()


def test_solve_xa_b():
    A = Mat.from_int_rows(F3, [[1, 1], [0, 1]])
    B = Mat.from_int_rows(F3, [[2, 1]])
    X = solve_xa_b(A, B)
    assert X @ A == B


def test_block_helpers():
    A = Mat.identity(F2, 2)
    B = Mat.from_int_rows(F2, [[1]])
    D = Mat.block_diag(F2, [A, B])
    assert D.nrows == 3 and D.ncols == 3 and D.rank() == 3
    G = Mat.block(F2, [[A, None], [None, B]], [2, 1], [2, 1])
    assert G == D


def test_zero_dim_matrices():
    E = Mat(F2, [], ncols=3)
    assert E.nrows == 0 and E.ncols == 3
    assert E.rank() == 0
    K = null_right(E)
    assert K.ncols == 3  # everything is in the kernel
    Et = E.transpose()
    assert Et.nrows == 3 and Et.ncols == 0
    assert (Et @ E).nrows == 3


def test_constructor_refuses_ragged_and_shapeless_rows():
    with pytest.raises(ValueError, match="ragged rows"):
        Mat(F3, [[1, 2], [1]])
    with pytest.raises(ValueError, match="ragged rows"):
        Mat(F3, ([1], (2, 0), iter([1, 1])))
    with pytest.raises(ValueError, match="empty matrix needs explicit ncols"):
        Mat(F3, [])
    M = Mat(F3, (iter((1, 2)), [0, 1]))
    assert (M.nrows, M.ncols, M.rows) == (2, 2, ((1, 2), (0, 1)))
