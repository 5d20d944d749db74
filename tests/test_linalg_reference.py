"""The elimination kernels against the plain dense loops they replaced.

The reference below is the straightforward Gauss-Jordan elimination: every
cell of every touched row is rewritten, and F2 rows are packed bit by bit.
The production kernels (the insertion of row supports, packed over F2, for
every reduction without a transform; the list loop with support-restricted
updates and C-level F2 packing for T) must agree with it exactly: R,
pivots, T, solve_right's X and certificate, and null_right.  The product,
which multiplies only nonzero entries, is held to the dense row-by-column
sum in the same way, and kron to its definition.  A basis that
row_space_basis returns carries its pivots (the echelon mark); solving
against it reads coordinates off the pivot columns, and must agree with the
elimination route on an unmarked copy of the same rows.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import nangulate.linalg as linalg
from nangulate.algebras import AlgebraError, Module, ModuleMap, submodule_from_rows
from nangulate.bimodules import kron
from nangulate.builders import dual_numbers, truncated_polynomial_algebra
from nangulate.complexes import ChainMap, ComplexError, z1_of_chain
from nangulate.engine import r_u_complex
from nangulate.linalg import (
    QQ,
    Mat,
    PrimeField,
    _rref,
    _rref_with_transform,
    field_by_name,
    null_right,
    row_space_basis,
    solve_right,
    solve_xa_b,
    vec_in_row_space,
)


def ref_rref_f2(A: Mat, want_transform: bool):
    m, n = A.nrows, A.ncols
    packed = []
    for row in A.rows:
        v = 0
        for j, a in enumerate(row):
            if a & 1:
                v |= 1 << j
        packed.append(v)
    t = [1 << i for i in range(m)] if want_transform else None
    pivots = []
    r = 0
    for c in range(n):
        bit = 1 << c
        pr = next((i for i in range(r, m) if packed[i] & bit), None)
        if pr is None:
            continue
        packed[r], packed[pr] = packed[pr], packed[r]
        if t is not None:
            t[r], t[pr] = t[pr], t[r]
        lead = packed[r]
        tl = t[r] if t is not None else 0
        for i in range(m):
            if i != r and packed[i] & bit:
                packed[i] ^= lead
                if t is not None:
                    t[i] ^= tl
        pivots.append(c)
        r += 1
        if r == m:
            break
    F = A.field
    R = Mat(F, [tuple((v >> j) & 1 for j in range(n)) for v in packed], n)
    T = None
    if t is not None:
        T = Mat(F, [tuple((v >> j) & 1 for j in range(m)) for v in t], m)
    return R, pivots, T


def ref_rref(A: Mat, want_transform: bool):
    F = A.field
    if isinstance(F, PrimeField) and F.p == 2:
        return ref_rref_f2(A, want_transform)
    m, n = A.nrows, A.ncols
    rows = [list(r) for r in A.rows]
    if want_transform:
        t = [[F.one if i == j else F.zero for j in range(m)] for i in range(m)]
    else:
        t = None
    pivots = []
    r = 0
    if isinstance(F, PrimeField):
        p = F.p
        for c in range(n):
            pr = next((i for i in range(r, m) if rows[i][c] % p), None)
            if pr is None:
                continue
            rows[r], rows[pr] = rows[pr], rows[r]
            if t is not None:
                t[r], t[pr] = t[pr], t[r]
            inv = pow(rows[r][c], -1, p)
            if inv != 1:
                rows[r] = [(a * inv) % p for a in rows[r]]
                if t is not None:
                    t[r] = [(a * inv) % p for a in t[r]]
            lead = rows[r]
            tl = t[r] if t is not None else None
            for i in range(m):
                if i != r and rows[i][c]:
                    f = rows[i][c]
                    rows[i] = [(a - f * b) % p for a, b in zip(rows[i], lead)]
                    if t is not None:
                        t[i] = [(a - f * b) % p for a, b in zip(t[i], tl)]
            pivots.append(c)
            r += 1
            if r == m:
                break
    else:
        for c in range(n):
            pr = next((i for i in range(r, m) if rows[i][c] != F.zero), None)
            if pr is None:
                continue
            rows[r], rows[pr] = rows[pr], rows[r]
            if t is not None:
                t[r], t[pr] = t[pr], t[r]
            inv = F.inv(rows[r][c])
            rows[r] = [F.mul(a, inv) for a in rows[r]]
            if t is not None:
                t[r] = [F.mul(a, inv) for a in t[r]]
            lead = rows[r]
            tl = t[r] if t is not None else None
            for i in range(m):
                if i != r and rows[i][c] != F.zero:
                    f = rows[i][c]
                    rows[i] = [F.sub(a, F.mul(f, b)) for a, b in zip(rows[i], lead)]
                    if t is not None:
                        t[i] = [F.sub(a, F.mul(f, b)) for a, b in zip(t[i], tl)]
            pivots.append(c)
            r += 1
            if r == m:
                break
    R = Mat(F, rows, n)
    T = Mat(F, t, m) if t is not None else None
    return R, pivots, T


def ref_matmul(A: Mat, B: Mat) -> Mat:
    """Every row of A against every column of B, zeros included; over F_p each sum is reduced mod p."""
    F = A.field
    if not A.nrows or not B.ncols or not A.ncols:
        return Mat.zeros(F, A.nrows, B.ncols)
    cols = list(zip(*B.rows))
    if F.p:
        return Mat(F, [[sum([a * b for a, b in zip(r, c)]) % F.p for c in cols] for r in A.rows], B.ncols)
    return Mat(F, [[sum([a * b for a, b in zip(r, c)], F.zero) for c in cols] for r in A.rows], B.ncols)


def ref_null_right(A: Mat) -> Mat:
    F = A.field
    R, piv, _ = ref_rref(A, want_transform=False)
    free = [j for j in range(A.ncols) if j not in piv]
    cols = []
    for j in free:
        v = [F.zero] * A.ncols
        v[j] = F.one
        for r, pc in enumerate(piv):
            v[pc] = F.neg(R.rows[r][j])
        cols.append(v)
    if not cols:
        return Mat(F, [[] for _ in range(A.ncols)] if A.ncols else [], 0)
    return Mat(F, list(zip(*cols)), len(cols))


def ref_solve_right(A: Mat, B: Mat):
    F = A.field
    aug = A.hstack(B)
    R, piv, _ = ref_rref(aug, want_transform=False)
    bad = next((c for c in piv if c >= A.ncols), None)
    if bad is not None:
        _, piv2, T = ref_rref(aug, want_transform=True)
        return None, Mat(F, [T.rows[piv2.index(bad)]], A.nrows)
    xrows = [[F.zero] * B.ncols for _ in range(A.ncols)]
    for r, pc in enumerate(piv):
        xrows[pc] = list(R.rows[r][A.ncols :])
    return Mat(F, xrows, B.ncols), None


FIELDS = [field_by_name("F2"), field_by_name("F3"), field_by_name("F97"), QQ]


def _values(F):
    if F.p:
        return range(1, F.p)
    return [Fraction(a, b) for a in (-3, -1, 1, 2, 5) for b in (1, 2, 7)]


def _random_mat(F, rng, density, rows, cols):
    values = _values(F)
    return Mat(F, [[rng.choice(values) if rng.random() < density else F.zero for _ in range(cols)] for _ in range(rows)], cols)


@st.composite
def system(draw):
    """A field, A (m x n) and B (m x k); sparse (<= 5% nonzero) or dense."""
    F = draw(st.sampled_from(FIELDS))
    m = draw(st.integers(min_value=0, max_value=24))
    n = draw(st.integers(min_value=0, max_value=24))
    k = draw(st.integers(min_value=0, max_value=3))
    density = draw(st.sampled_from([0.02, 0.05, 0.5, 1.0]))
    rng = draw(st.randoms(use_true_random=False))
    values = _values(F)

    def entry():
        return rng.choice(values) if rng.random() < density else F.zero

    A = Mat(F, [[entry() for _ in range(n)] for _ in range(m)], n)
    B = Mat(F, [[entry() for _ in range(k)] for _ in range(m)], k)
    if draw(st.booleans()) and n and k:
        # a solvable right-hand side, so both outcomes of solve_right occur
        X0 = Mat(F, [[entry() for _ in range(k)] for _ in range(n)], k)
        B = A @ X0
    return A, B


@settings(max_examples=200, deadline=None)
@given(system())
def test_kernels_match_dense_reference(AB):
    A, B = AB
    assert _rref(A) == ref_rref(A, want_transform=False)[:2]
    assert _rref_with_transform(A) == ref_rref(A, want_transform=True)
    assert solve_right(A, B) == ref_solve_right(A, B)
    assert null_right(A) == ref_null_right(A)


@settings(max_examples=200, deadline=None)
@given(system())
def test_support_kernel_matches_dense_route(AB):
    """rref_supports on row supports (zero rows as empty dicts): the list loop's nonzero rows and pivots."""
    A, _ = AB
    F = A.field
    R, piv, _ = _rref_with_transform(A)
    lead, pivots = linalg.rref_supports(F, [{j: a for j, a in enumerate(r) if a} for r in A.rows])
    assert pivots == piv and sorted(lead) == piv
    assert [{j: a for j, a in enumerate(r) if a} for r in R.rows[: len(piv)]] == [lead[c] for c in piv]
    assert all(type(a) is (Fraction if F is QQ else int) for row in lead.values() for a in row.values())
    assert A.rref() == (R, piv)


def test_empty_shapes_match_dense_reference():
    for F in FIELDS:
        for m, n, k in ((0, 0, 0), (0, 4, 1), (4, 0, 1), (3, 3, 0)):
            A = Mat(F, [[F.zero] * n for _ in range(m)], n)
            B = Mat(F, [[F.one] * k for _ in range(m)], k)
            assert _rref(A) == ref_rref(A, want_transform=False)[:2]
            assert _rref_with_transform(A) == ref_rref(A, want_transform=True)
            assert linalg.rref_supports(F, [{} for _ in range(m)]) == ({}, [])
            assert solve_right(A, B) == ref_solve_right(A, B)
            assert null_right(A) == ref_null_right(A)


@st.composite
def product(draw):
    """A field, A (m x k) and B (k x n) at 2%, 5% or dense fill, any side possibly 0."""
    F = draw(st.sampled_from(FIELDS))
    m, k, n = (draw(st.integers(min_value=0, max_value=16)) for _ in range(3))
    density = draw(st.sampled_from([0.02, 0.05, 0.5, 1.0]))
    rng = draw(st.randoms(use_true_random=False))
    return _random_mat(F, rng, density, m, k), _random_mat(F, rng, density, k, n)


@settings(max_examples=200, deadline=None)
@given(product())
def test_matmul_matches_dense_reference(AB):
    A, B = AB
    C = A @ B
    assert C == ref_matmul(A, B)
    assert C.nrows == A.nrows and C.ncols == B.ncols
    assert all(type(c) is (Fraction if A.field is QQ else int) for r in C.rows for c in r)


def test_matmul_empty_shapes():
    for F in FIELDS:
        for m, k, n in ((0, 0, 0), (0, 3, 2), (2, 0, 3), (2, 3, 0), (3, 2, 2)):
            A = Mat(F, [[F.one] * k for _ in range(m)], k)
            B = Mat(F, [[F.neg(F.one)] * n for _ in range(k)], n)
            assert A @ B == ref_matmul(A, B)


@st.composite
def kron_pair(draw):
    """A field and two matrices of any shapes up to 5 x 5, zeros included."""
    F = draw(st.sampled_from(FIELDS))
    density = draw(st.sampled_from([0.05, 0.5, 1.0]))
    rng = draw(st.randoms(use_true_random=False))
    m, k, n, l = (draw(st.integers(min_value=0, max_value=5)) for _ in range(4))
    return _random_mat(F, rng, density, m, k), _random_mat(F, rng, density, n, l)


@settings(max_examples=100, deadline=None)
@given(kron_pair())
def test_kron_matches_definition(AB):
    A, B = AB
    F = A.field
    K = kron(A, B)
    assert (K.nrows, K.ncols) == (A.nrows * B.nrows, A.ncols * B.ncols)
    for i1, ra in enumerate(A.rows):
        for i2, rb in enumerate(B.rows):
            for j1, a in enumerate(ra):
                for j2, b in enumerate(rb):
                    assert K.rows[i1 * B.nrows + i2][j1 * B.ncols + j2] == F.mul(a, b)


@st.composite
def f2_matrix(draw):
    m = draw(st.integers(min_value=0, max_value=32))
    n = draw(st.integers(min_value=0, max_value=32))
    density = draw(st.sampled_from([0.02, 0.05, 0.2, 0.5, 1.0]))
    rng = draw(st.randoms(use_true_random=False))
    rows = [[int(rng.random() < density) for _ in range(n)] for _ in range(m)]
    if draw(st.booleans()) and m >= 4:
        # a repeated row and a sum of two rows, which must reduce to zero
        rows[-1] = list(rows[0])
        rows[-2] = [a ^ b for a, b in zip(rows[0], rows[1])]
    return Mat(field_by_name("F2"), rows, n)


@settings(max_examples=100, deadline=None)
@given(f2_matrix())
def test_f2_rref_by_insertion_matches_elimination(A):
    R, piv = A.rref()
    assert (R, piv) == _rref_with_transform(A)[:2]
    assert (R, piv) == ref_rref_f2(A, want_transform=False)[:2]


# -- the echelon mark ---------------------------------------------------------

ECHELON_FIELDS = [field_by_name("F2"), field_by_name("F3"), field_by_name("F5"), QQ]


def _unmarked(A: Mat) -> Mat:
    return Mat(A.field, A.rows, A.ncols)


@st.composite
def marked_system(draw):
    """A marked basis and B with rows in its span, outside it, random, or none."""
    F = draw(st.sampled_from(ECHELON_FIELDS))
    m = draw(st.integers(min_value=0, max_value=10))
    n = draw(st.integers(min_value=0, max_value=12))
    k = draw(st.integers(min_value=1, max_value=4))
    density = draw(st.sampled_from([0.1, 0.5, 1.0]))
    rng = draw(st.randoms(use_true_random=False))
    basis = row_space_basis(_random_mat(F, rng, density, m, n))
    kind = draw(st.sampled_from(["span", "outside", "random", "no rows"]))
    if kind == "no rows":
        return basis, Mat(F, [], n)
    if kind == "random":
        return basis, _random_mat(F, rng, density, k, n)
    B = _random_mat(F, rng, density, k, basis.nrows) @ basis
    free = [j for j in range(n) if j not in basis.rref()[1]]
    if kind == "outside" and free:
        # a unit vector at a free column is never in the span
        rows = [list(r) for r in B.rows]
        i = rng.randrange(k)
        j = rng.choice(free)
        rows[i][j] = F.add(rows[i][j], F.one)
        B = Mat(F, rows, n)
    return basis, B


@settings(max_examples=300, deadline=None)
@given(marked_system())
def test_echelon_route_matches_elimination(AB):
    A, B = AB
    plain = _unmarked(A)
    assert A._pivots is not None and plain._pivots is None
    X = solve_xa_b(A, B)
    assert X == solve_xa_b(plain, B)
    if X is not None:
        assert X @ A == B
    assert A.rref() == plain.rref()
    assert null_right(A) == null_right(plain)
    for row in B.rows:
        assert vec_in_row_space(row, A) == vec_in_row_space(row, plain)


def test_echelon_route_empty_basis():
    for F in ECHELON_FIELDS:
        for n in (0, 3):
            A = row_space_basis(Mat(F, [[F.zero] * n] * 2, n))
            assert (A.nrows, A.ncols, A.rref()[1]) == (0, n, [])
            for B in (Mat(F, [], n), Mat(F, [[F.zero] * n] * 2, n), Mat(F, [[F.one] * n], n)):
                assert solve_xa_b(A, B) == solve_xa_b(_unmarked(A), B)
            # a column count that does not match is refused on both routes
            with pytest.raises(ValueError):
                solve_xa_b(A, Mat(F, [[F.one] * (n + 1)], n + 1))


def test_marked_rref_runs_no_elimination(monkeypatch):
    F = field_by_name("F3")
    A = Mat(F, [[1, 2, 0, 1], [2, 1, 1, 0], [0, 0, 1, 2]], 4)
    basis = row_space_basis(A)
    want = _rref(basis)

    def refuse(*args, **kwargs):
        raise AssertionError("a marked matrix was eliminated")

    monkeypatch.setattr(linalg, "_rref", refuse)
    monkeypatch.setattr(linalg, "_rref_rows", refuse)
    monkeypatch.setattr(linalg, "_rref_with_transform", refuse)
    assert basis.rref() == want
    assert row_space_basis(basis) == basis
    assert solve_xa_b(basis, basis) == Mat.identity(F, basis.nrows)


@pytest.mark.parametrize("field", ["F2", "F3", "Q"])
def test_closed_submodule_still_checks_stability(field):
    A = truncated_polynomial_algebra(field_by_name(field), 3)
    F = A.field
    reg = A.regular_module()
    # the span of the unit is not stable under x
    with pytest.raises(AlgebraError, match="action-stable"):
        submodule_from_rows(reg, Mat(F, [list(A.unit)], A.dim), closed=True)
    # the span of x and x^2 is, and its action is read off the pivots
    S, incl = submodule_from_rows(reg, Mat(F, [list(A.basis_vector(1)), list(A.basis_vector(2))], A.dim), closed=True)
    assert S.dim == 2 and incl.mat.rows == ((F.zero, F.one, F.zero), (F.zero, F.zero, F.one))
    Module(A, S.dim, S.action, check=True)  # the action laws hold


@pytest.mark.parametrize("field", ["F2", "F3", "Q"])
def test_z1_of_non_chain_map_still_raises(field):
    A = dual_numbers(field_by_name(field))
    F = A.field
    R = r_u_complex(A, A.unit, 3)
    swap = Mat(F, [[F.zero, F.one], [F.one, F.zero]], 2)
    parts = [ModuleMap(R.objects[0], R.objects[0], swap, check=False)]
    parts += [ModuleMap.identity(M) for M in R.objects[1:]]
    with pytest.raises(ComplexError, match="does not induce"):
        z1_of_chain(ChainMap(R, R, parts, check=False))
