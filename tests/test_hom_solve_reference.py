"""solve_in_hom and LinearProblem against the dense assemblies they replaced.

The reference flattens L @ b @ R into one column per basis map b of
Hom(M, N), solves with solve_right and sums the basis maps with the
solution's coefficients.  solve_in_hom assembles the same matrix sparsely
through LinearProblem; both read the solution off the rref of the same
[A | B], so they must agree exactly, None included.  LinearProblem.matrix is
held to the same column reference on whole systems (several unknowns shared
by several equations, signs, every L/R shape), and the one linear
combination routine, through Module.act and LinearProblem.assignment, to
the chain of additions acc + M.scale(c) it replaced.

hom_basis and LinearProblem.solve build their rows as supports and reduce
them by insertion.  They are held to the dense route: the same system as one
dense matrix, reduced by the list loop that also yields the transform.  The
RREF is unique, so the basis, the solution and the certificate must be the
same, and a solvable system must answer with that loop and
LinearProblem.matrix switched off.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import nangulate.linalg as linalg
from nangulate.algebras import (
    LinearProblem,
    Module,
    ModuleMap,
    direct_sum_modules,
    hom_basis,
    solve_in_hom,
    submodule_from_rows,
)
from nangulate.builders import product_of_fields, truncated_polynomial_algebra
from nangulate.linalg import QQ, Mat, _rref_with_transform, field_by_name, null_right, row_space_basis, solve_right

FIELDS = [field_by_name("F2"), field_by_name("F3"), QQ]
PROBLEM_FIELDS = FIELDS + [field_by_name("F97")]


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


MODULES = {F.name: _modules(F) for F in PROBLEM_FIELDS}


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


# -- LinearProblem.matrix and the linear combination ---------------------------


def _conjugated(M):
    """M in another basis, so its action matrices are dense with entries up to p - 1."""
    F = M.algebra.field
    P = Mat(F, [[F.of_int(a) for a in row] for row in ([1, 2, 1], [0, 1, -1], [0, 0, 1])], 3)
    Pinv = P.inverse()
    return Module(M.algebra, M.dim, [P @ a @ Pinv for a in M.action])


# the first family of MODULES with the regular module in a dense basis added,
# so that sums of scaled matrices overflow p
PROBLEM_MODULES = {
    name: [families[0] + [_conjugated(families[0][0])], families[1]] for name, families in MODULES.items()
}


def ref_matrix(prob: LinearProblem):
    """One dense column per basis map: its L @ b @ R (negated for sign -1), flattened over every equation."""
    F = prob.field
    cols = []
    for name, basis, shape in prob.unknowns:
        for b in basis:
            col = []
            for terms, rhs in prob.equations:
                acc = Mat.zeros(F, rhs.nrows, rhs.ncols)
                for tname, L, R, sign in terms:
                    if tname == name:
                        c = b.mat if L is None else L @ b.mat
                        c = c if R is None else c @ R
                        acc = acc + c if sign > 0 else acc - c
                col.extend(acc.flatten())
            cols.append(col)
    nrows = sum(rhs.nrows * rhs.ncols for _, rhs in prob.equations)
    A = Mat(F, [[col[r] for col in cols] for r in range(nrows)], len(cols))
    B = Mat(F, [[v] for _, rhs in prob.equations for v in rhs.flatten()], 1)
    return A, B


def chain_of_additions(F, nrows, ncols, terms):
    """The reference for linear_combination: Mat.zeros, then acc + M.scale(c) per nonzero c."""
    acc = Mat.zeros(F, nrows, ncols)
    for c, M in terms:
        if c:
            acc = acc + M.scale(c)
    return acc


def _entry_type(F):
    return Fraction if F is QQ else int


def _assert_entry_types(F, *mats):
    assert all(type(a) is _entry_type(F) for m in mats for r in m.rows for a in r)


def _coefficient(data, F):
    if F is QQ:
        return Fraction(data.draw(st.integers(-3, 3)), data.draw(st.integers(1, 3)))
    return data.draw(st.integers(0, F.p - 1))


def _zeroed_rows(data, F, rhs):
    """rhs with a random subset of its rows replaced by zero rows."""
    zero = [F.zero] * rhs.ncols
    return Mat(F, [zero if data.draw(st.booleans()) else list(r) for r in rhs.rows], rhs.ncols)


def _term(data, F, name, M, N, rows, cols, sign):
    """A term on Hom(M, N) into a rows x cols equation; L or R is None where the shape allows it."""
    L = None if rows == M.dim and data.draw(st.booleans()) else _random_mat(data, F, rows, M.dim)
    R = None if cols == N.dim and data.draw(st.booleans()) else _random_mat(data, F, N.dim, cols)
    return (name, L, R, sign)


def _draw_problem(data, F, solvable):
    """Two unknowns shared by one to four equations; rhs the image of a random assignment if solvable."""
    family = data.draw(st.sampled_from(PROBLEM_MODULES[F.name]))
    spaces = {name: (data.draw(st.sampled_from(family)), data.draw(st.sampled_from(family))) for name in ("u", "v")}
    prob = LinearProblem(F)
    for name, (M, N) in spaces.items():
        prob.add_unknown(name, hom_basis(M, N), (M.dim, N.dim))
    equations = []
    for _ in range(data.draw(st.integers(1, 4))):
        first = data.draw(st.sampled_from(["u", "v"]))
        M, N = spaces[first]
        # the first term fixes the shape: as M x N when its L and R are
        # missing, and a 0-row equation is allowed when L is given
        rows = M.dim if data.draw(st.booleans()) else data.draw(st.integers(0, 3))
        cols = N.dim if data.draw(st.booleans()) else data.draw(st.integers(1, 3))
        terms = [_term(data, F, first, M, N, rows, cols, data.draw(st.sampled_from([1, -1])))]
        for name in data.draw(st.lists(st.sampled_from(["u", "v"]), max_size=2)):
            terms.append(_term(data, F, name, *spaces[name], rows, cols, data.draw(st.sampled_from([1, -1]))))
        equations.append((terms, rows, cols))
    if solvable:
        total = sum(len(basis) for _, basis, _ in prob.unknowns)
        U = prob.assignment([_coefficient(data, F) for _ in range(total)])
    for terms, rows, cols in equations:
        if not solvable:
            prob.add_equation(terms, _zeroed_rows(data, F, _random_mat(data, F, rows, cols)))
            continue
        rhs = Mat.zeros(F, rows, cols)
        for name, L, R, sign in terms:
            image = U[name] if L is None else L @ U[name]
            image = image if R is None else image @ R
            rhs = rhs + image if sign > 0 else rhs - image
        prob.add_equation(terms, rhs)
    return prob


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_linear_problem_matrix_matches_dense_reference(data):
    F = data.draw(st.sampled_from(PROBLEM_FIELDS))
    prob = _draw_problem(data, F, solvable=False)
    A, B = prob.matrix()
    assert (A, B) == ref_matrix(prob)
    _assert_entry_types(F, A, B)


def test_linear_problem_matrix_fixed_shapes():
    """Both unknowns in every equation, -1 signs, each L/R shape, a 0-row equation and zero rows."""
    for F in PROBLEM_FIELDS:
        reg, rad, soc, reg_soc = MODULES[F.name][0]
        z, one, two = F.zero, F.one, F.add(F.one, F.one)
        L = Mat(F, [[one, z, two], [z, z, z]], 3)  # its second row is zero
        R = Mat(F, [[z, one], [two, z], [one, one]], 2)
        V = Mat(F, [[z, one], [one, z]], 2)
        V3 = Mat(F, [[one, z, z], [z, two, one]], 3)
        prob = LinearProblem(F)
        prob.add_unknown("u", hom_basis(reg, reg), (3, 3))
        prob.add_unknown("v", hom_basis(reg, rad), (3, 2))
        prob.add_equation([("u", None, None, 1), ("v", None, V3, -1)], Mat.identity(F, 3))
        prob.add_equation([("u", L, None, -1), ("v", L, V3, 1)], Mat.zeros(F, 2, 3))
        prob.add_equation([("u", None, R, 1), ("v", None, V, -1)], Mat(F, [[one, z], [z, z], [z, two]], 2))
        prob.add_equation([("u", L, R, -1), ("u", L, R, 1), ("v", L, V, -1)], Mat(F, [[two, one], [z, z]], 2))
        prob.add_equation([("u", Mat(F, [], 3), R, 1)], Mat(F, [], 2))
        A, B = prob.matrix()
        assert (A.nrows, A.ncols) == (9 + 6 + 6 + 4, len(prob.unknowns[0][1]) + len(prob.unknowns[1][1]))
        assert (A, B) == ref_matrix(prob)
        _assert_entry_types(F, A, B)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_combination_matches_chain_of_additions(data):
    F = data.draw(st.sampled_from(PROBLEM_FIELDS))
    family = data.draw(st.sampled_from(PROBLEM_MODULES[F.name]))
    M = data.draw(st.sampled_from(family))
    x = [_coefficient(data, F) for _ in range(M.algebra.dim)]
    got = M.act(x)
    assert got == chain_of_additions(F, M.dim, M.dim, zip(x, M.action))
    _assert_entry_types(F, got)
    N = data.draw(st.sampled_from(family))
    prob = LinearProblem(F)
    prob.add_unknown("u", hom_basis(M, N), (M.dim, N.dim))
    prob.add_unknown("w", hom_basis(N, M), (N.dim, M.dim))
    coords = [_coefficient(data, F) for _ in range(len(prob.unknowns[0][1]) + len(prob.unknowns[1][1]))]
    got = prob.assignment(coords)
    k = len(prob.unknowns[0][1])
    want_u = chain_of_additions(F, M.dim, N.dim, zip(coords[:k], (b.mat for b in prob.unknowns[0][1])))
    want_w = chain_of_additions(F, N.dim, M.dim, zip(coords[k:], (b.mat for b in prob.unknowns[1][1])))
    assert got == {"u": want_u, "w": want_w}
    _assert_entry_types(F, got["u"], got["w"])


# -- the support route against the dense route ---------------------------------


def dense_route_solve(prob: LinearProblem):
    """prob.solve() on the dense reference [A | B], reduced by the list loop."""
    F = prob.field
    A, B = ref_matrix(prob)
    R, piv, T = _rref_with_transform(A.hstack(B))
    if A.ncols in piv:
        return None, Mat(F, [T.rows[piv.index(A.ncols)]], A.nrows)
    coords = [F.zero] * A.ncols
    for r, c in enumerate(piv):
        coords[c] = R.rows[r][A.ncols]
    return prob.assignment(coords), None


def dense_route_hom_basis(M, N):
    """hom_basis as it was: the dense intertwining matrix, its null basis by the list loop."""
    F = M.algebra.field
    m, n = M.dim, N.dim
    if not m or not n:
        return ()
    rows = []
    for AM, AN in zip(M.action, N.action):
        for r in range(m):
            for c in range(n):
                row = [F.zero] * (m * n)
                for s in range(m):
                    row[s * n + c] = F.add(row[s * n + c], AM.rows[r][s])
                for t in range(n):
                    row[r * n + t] = F.sub(row[r * n + t], AN.rows[t][c])
                rows.append(row)
    R, piv, _ = _rref_with_transform(Mat(F, rows, m * n))
    maps = []
    for f in [j for j in range(m * n) if j not in piv]:
        flat = [F.zero] * (m * n)
        flat[f] = F.one
        for r, pc in enumerate(piv):
            flat[pc] = F.neg(R.rows[r][f])
        maps.append(ModuleMap(M, N, Mat(F, [flat[i * n : (i + 1) * n] for i in range(m)], n), check=False))
    return tuple(maps)


def _rebased(data, M):
    """M in a random basis (M itself when the drawn matrix is singular)."""
    F = M.algebra.field
    P = _random_mat(data, F, M.dim, M.dim)
    if not P.is_invertible():
        return M
    Pinv = P.inverse()
    return Module(M.algebra, M.dim, [P @ a @ Pinv for a in M.action])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_linear_problem_solve_matches_dense_route(data):
    F = data.draw(st.sampled_from(PROBLEM_FIELDS))
    solvable = data.draw(st.booleans())
    prob = _draw_problem(data, F, solvable)
    sol, cert = prob.solve()
    assert (sol, cert) == dense_route_solve(prob)
    if solvable:
        assert sol is not None
    if sol is None:
        assert cert == solve_right(*prob.matrix())[1]
        assert prob.solve(want_cert=False) == (None, None)
        _assert_entry_types(F, cert)
    else:
        assert prob.solve(want_cert=False) == (sol, None)
        _assert_entry_types(F, *sol.values())


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_hom_basis_matches_dense_route(data):
    F = data.draw(st.sampled_from(PROBLEM_FIELDS))
    family = data.draw(st.sampled_from(PROBLEM_MODULES[F.name]))
    M = _rebased(data, data.draw(st.sampled_from(family)))
    N = _rebased(data, data.draw(st.sampled_from(family)))
    got = hom_basis.__wrapped__(M, N)
    assert got == dense_route_hom_basis(M, N)
    for b in got:
        _assert_entry_types(F, b.mat)
        # the cached triples are exactly the nonzero entries
        want = {(i, j, a) for i, r in enumerate(b.mat.rows) for j, a in enumerate(r) if a}
        assert len(b.mat.nonzeros()) == len(want) and set(b.mat.nonzeros()) == want


def test_linear_problem_solve_fixed_shapes():
    """No columns, no equations, a 0-row equation, zero rows; solvable and not."""
    for F in PROBLEM_FIELDS:
        reg, rad, soc, reg_soc = MODULES[F.name][0]
        e1, e2, _ = MODULES[F.name][1]
        empty = LinearProblem(F)
        empty.add_unknown("u", hom_basis(reg, rad), (3, 2))
        assert empty.solve() == ({"u": Mat.zeros(F, 3, 2)}, None) == dense_route_solve(empty)
        # Hom(e1, e2) = 0: the system has no columns
        prob = LinearProblem(F)
        prob.add_unknown("u", hom_basis(e1, e2), (1, 1))
        prob.add_equation([("u", None, None, 1)], Mat.zeros(F, 1, 1))
        prob.add_equation([("u", Mat(F, [], 1), None, -1)], Mat(F, [], 1))
        assert prob.matrix()[0].ncols == 0
        assert prob.solve() == ({"u": Mat.zeros(F, 1, 1)}, None) == dense_route_solve(prob)
        prob.add_equation([("u", None, None, 1)], Mat.identity(F, 1))
        sol, cert = prob.solve()
        assert sol is None and (sol, cert) == dense_route_solve(prob)
        assert cert == solve_right(*prob.matrix())[1] and (cert.nrows, cert.ncols) == (1, 2)
        _assert_entry_types(F, cert)
        # the socle is no summand of the regular module: the retraction
        # system is unsolvable, with zero rows in its matrix
        _, incl = submodule_from_rows(reg, Mat(F, [[0, 0, 1]], 3))
        prob = LinearProblem(F)
        prob.add_unknown("r", hom_basis(reg, soc), (3, 1))
        prob.add_equation([("r", incl.mat, None, 1)], Mat.identity(F, 1))
        prob.add_equation([("r", None, None, 1)], Mat.zeros(F, 3, 1))
        sol, cert = prob.solve()
        assert sol is None and (sol, cert) == dense_route_solve(prob)
        assert cert == solve_right(*prob.matrix())[1]


@pytest.mark.parametrize("name", ["F2", "F3", "Q"])
def test_solvable_paths_run_no_dense_loop(monkeypatch, name):
    """With the list loop and LinearProblem.matrix refusing, solvable paths still answer."""
    F = field_by_name(name)
    reg, rad, soc, reg_soc, dense_reg = PROBLEM_MODULES[name][0]
    prob = LinearProblem(F)
    prob.add_unknown("u", hom_basis(dense_reg, reg_soc), (3, 4))
    prob.add_unknown("v", hom_basis(reg, rad), (3, 2))
    U = prob.assignment([F.one] * sum(len(b) for _, b, _ in prob.unknowns))
    R = Mat(F, [[F.one, F.zero], [F.zero, F.zero], [F.zero, F.one], [F.one, F.one]], 2)
    prob.add_equation([("u", None, R, 1), ("v", None, None, -1)], U["u"] @ R - U["v"])
    want_sol = prob.solve()
    assert want_sol[0] is not None
    unsolvable = LinearProblem(F)
    unsolvable.add_unknown("r", hom_basis(reg, soc), (3, 1))
    unsolvable.add_equation([("r", Mat(F, [[0, 0, 1]], 3), None, 1)], Mat.identity(F, 1))
    want_basis = hom_basis(dense_reg, reg_soc)
    A = Mat(F, [[F.zero, F.one, F.one, F.zero], [F.zero, F.one, F.one, F.zero], [F.one, F.zero, F.one, F.one]], 4)
    want_rref = _rref_with_transform(A)[:2]
    B = A @ Mat(F, [[F.one], [F.zero], [F.one], [F.one]], 1)

    def refuse(*args, **kwargs):
        raise AssertionError("a solvable path ran the dense loop")

    monkeypatch.setattr(linalg, "_rref_with_transform", refuse)
    monkeypatch.setattr(LinearProblem, "matrix", refuse)
    assert prob.solve() == want_sol
    assert prob.solve(want_cert=False) == want_sol
    assert unsolvable.solve(want_cert=False) == (None, None)
    assert hom_basis.__wrapped__(dense_reg, reg_soc) == want_basis
    assert Mat(F, A.rows, A.ncols).rref() == want_rref
    assert row_space_basis(Mat(F, A.rows, A.ncols)).rows == want_rref[0].rows[:2]
    assert null_right(Mat(F, A.rows, A.ncols)).ncols == 2
    X, cert = solve_right(A, B, want_cert=False)
    assert X is not None and A @ X == B and cert is None
    with pytest.raises(AssertionError, match="dense loop"):
        unsolvable.solve()
