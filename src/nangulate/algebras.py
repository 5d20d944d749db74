"""Finite-dimensional algebras and their right modules, by structure constants.

Conventions (fixed once, used everywhere):

* Vectors are rows.  A linear map k^m -> k^n is an m x n matrix F applied as
  v |-> v @ F, and ``F @ G`` means "apply F, then G".
* Modules are RIGHT modules.  ``act(b)`` is the matrix of the right action of
  the basis element b, so ``act(b_i) @ act(b_j) = sum_k c_ijk act(b_k)``
  holds literally (apply b_i, then b_j, equals acting by b_i * b_j).
* A module map f: M -> N intertwines as ``act_M(b) @ f.mat == f.mat @ act_N(b)``.
* Composition of module maps in diagram order: ``f.then(g)`` has matrix
  ``f.mat @ g.mat``.
"""

from __future__ import annotations

from functools import lru_cache

from .linalg import (
    Mat,
    left_null_basis,
    linear_combination,
    row_space_basis,
    rref_supports,
    solve_right,
    solve_xa_b,
)


class AlgebraError(ValueError):
    pass


class Algebra:
    """Associative unital algebra given by a multiplication table.

    mult[i][j] is the coordinate vector of b_i * b_j; unit is the coordinate
    vector of 1.  Associativity and the unit law are checked on construction.
    """

    def __init__(self, field, mult, unit, labels=None, check=True):
        self.field = field
        self.mult = tuple(tuple(tuple(field.of_int(a) if isinstance(a, int) else a for a in row) for row in plane) for plane in mult)
        self.dim = len(self.mult)
        self.unit = tuple(field.of_int(a) if isinstance(a, int) else a for a in unit)
        if labels is None:
            labels = [f"b{i}" for i in range(self.dim)]
        self.labels = tuple(labels)
        if len(self.labels) != self.dim or len(self.unit) != self.dim:
            raise AlgebraError("dimension mismatch in algebra data")
        for plane in self.mult:
            if len(plane) != self.dim or any(len(r) != self.dim for r in plane):
                raise AlgebraError("multiplication table is not dim x dim x dim")
        self._cache = {}
        if check:
            self._validate()

    # -- structure ----------------------------------------------------------

    def _validate(self):
        for i in range(self.dim):
            bi = self.basis_vector(i)
            if self.multiply(self.unit, bi) != bi or self.multiply(bi, self.unit) != bi:
                raise AlgebraError(f"unit law fails at basis element {self.labels[i]}")
        for i in range(self.dim):
            for j in range(self.dim):
                ij = self.mult[i][j]
                for k in range(self.dim):
                    left = self.multiply(ij, self.basis_vector(k))
                    right = self.multiply(self.basis_vector(i), self.mult[j][k])
                    if left != right:
                        raise AlgebraError(
                            f"associativity fails at triple ({self.labels[i]}, {self.labels[j]}, {self.labels[k]})"
                        )

    def basis_vector(self, i):
        F = self.field
        return tuple(F.one if j == i else F.zero for j in range(self.dim))

    def multiply(self, x, y):
        """Product of two coordinate vectors."""
        F = self.field
        out = [F.zero] * self.dim
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in enumerate(y):
                if not yj:
                    continue
                c = F.mul(xi, yj)
                row = self.mult[i][j]
                for k, ck in enumerate(row):
                    if ck:
                        out[k] = F.add(out[k], F.mul(c, ck))
        return tuple(out)

    def left_mult_mat(self, x) -> Mat:
        """Matrix of m |-> x * m (rows are images of basis vectors)."""
        return Mat(self.field, [self.multiply(x, self.basis_vector(r)) for r in range(self.dim)], self.dim)

    def right_mult_mat(self, x) -> Mat:
        """Matrix of m |-> m * x."""
        return Mat(self.field, [self.multiply(self.basis_vector(r), x) for r in range(self.dim)], self.dim)

    def is_commutative(self) -> bool:
        return all(
            self.mult[i][j] == self.mult[j][i]
            for i in range(self.dim)
            for j in range(i + 1, self.dim)
        )

    def opposite(self) -> "Algebra":
        key = "opposite"
        if key not in self._cache:
            mult_op = [[self.mult[j][i] for j in range(self.dim)] for i in range(self.dim)]
            op = Algebra(self.field, mult_op, self.unit, self.labels, check=False)
            # (A^op)^op is A itself, so modules dualized twice (injective
            # envelopes) live over this object and share its caches
            op._cache[key] = self
            self._cache[key] = op
        return self._cache[key]

    def regular_module(self) -> "Module":
        key = "regular"
        if key not in self._cache:
            acts = [self.right_mult_mat(self.basis_vector(j)) for j in range(self.dim)]
            self._cache[key] = Module(self, self.dim, acts, check=False)
        return self._cache[key]

    def __eq__(self, other):
        return (
            isinstance(other, Algebra)
            and self.field == other.field
            and self.mult == other.mult
            and self.unit == other.unit
        )

    def __hash__(self):
        return hash((self.field, self.mult, self.unit))

    def __repr__(self):
        return f"Algebra({self.field.name}, dim={self.dim}, basis={list(self.labels)})"


class Automorphism:
    """Algebra automorphism given by its matrix on the coordinate row space."""

    def __init__(self, algebra: Algebra, mat: Mat, check=True):
        self.algebra = algebra
        self.mat = mat
        if check:
            A = algebra
            if mat.nrows != A.dim or mat.ncols != A.dim or not mat.is_invertible():
                raise AlgebraError("automorphism matrix must be an invertible dim x dim matrix")
            if self.apply(A.unit) != A.unit:
                raise AlgebraError("automorphism does not fix the unit")
            for i in range(A.dim):
                for j in range(A.dim):
                    lhs = self.apply(A.mult[i][j])
                    rhs = A.multiply(self.apply(A.basis_vector(i)), self.apply(A.basis_vector(j)))
                    if lhs != rhs:
                        raise AlgebraError(
                            f"automorphism is not multiplicative at ({A.labels[i]}, {A.labels[j]})"
                        )

    @staticmethod
    def identity(algebra: Algebra) -> "Automorphism":
        return Automorphism(algebra, Mat.identity(algebra.field, algebra.dim), check=False)

    def apply(self, x):
        return tuple((Mat(self.algebra.field, [list(x)], self.algebra.dim) @ self.mat).rows[0])

    def inverse(self) -> "Automorphism":
        return Automorphism(self.algebra, self.mat.inverse(), check=False)

    def then(self, other: "Automorphism") -> "Automorphism":
        return Automorphism(self.algebra, self.mat @ other.mat, check=False)

    def is_identity(self) -> bool:
        return self.mat == Mat.identity(self.algebra.field, self.algebra.dim)

    def order(self, bound=1000) -> int:
        acc = self
        for k in range(1, bound + 1):
            if acc.is_identity():
                return k
            acc = acc.then(self)
        raise AlgebraError("automorphism order exceeds bound")

    def __eq__(self, other):
        return isinstance(other, Automorphism) and self.algebra == other.algebra and self.mat == other.mat

    def __hash__(self):
        return hash((self.algebra, self.mat))

    def __repr__(self):
        return f"Automorphism({self.algebra.field.name}, {list(map(list, self.mat.rows))})"


class Module:
    """Finite-dimensional right module: one action matrix per basis element."""

    __slots__ = ("algebra", "dim", "action", "_hash", "__weakref__")

    def __init__(self, algebra: Algebra, dim: int, action, check=True):
        self.algebra = algebra
        self.dim = dim
        self.action = tuple(action)
        self._hash = None
        if len(self.action) != algebra.dim:
            raise AlgebraError("need one action matrix per algebra basis element")
        if check:
            self._validate()

    def _validate(self):
        A = self.algebra
        F = A.field
        for m in self.action:
            if m.nrows != self.dim or m.ncols != self.dim:
                raise AlgebraError("action matrix has wrong shape")
        if self.act(A.unit) != Mat.identity(F, self.dim):
            raise AlgebraError("act(1) is not the identity")
        for i in range(A.dim):
            for j in range(A.dim):
                lhs = self.action[i] @ self.action[j]
                rhs = self.act(A.mult[i][j])
                if lhs != rhs:
                    raise AlgebraError(
                        f"action violates structure constants at ({A.labels[i]}, {A.labels[j]})"
                    )

    def act(self, x) -> Mat:
        """Action matrix of the algebra element with coordinates x."""
        return linear_combination(self.algebra.field, self.dim, self.dim, zip(x, self.action))

    def is_zero(self) -> bool:
        return self.dim == 0

    @staticmethod
    def zero(algebra: Algebra) -> "Module":
        empty = Mat(algebra.field, [], ncols=0)
        return Module(algebra, 0, [empty] * algebra.dim, check=False)

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, Module)
            and self.algebra == other.algebra
            and self.dim == other.dim
            and self.action == other.action
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.algebra, self.dim, self.action))
        return self._hash

    def __repr__(self):
        return f"Module(dim={self.dim} over {self.algebra.field.name}-algebra of dim {self.algebra.dim})"


class ModuleMap:
    """A linear map intertwining the right actions."""

    __slots__ = ("source", "target", "mat", "__weakref__")

    def __init__(self, source: Module, target: Module, mat: Mat, check=True):
        self.source = source
        self.target = target
        self.mat = mat
        if mat.nrows != source.dim or mat.ncols != target.dim:
            raise AlgebraError(f"map matrix must be {source.dim} x {target.dim}")
        if check:
            if source.algebra != target.algebra:
                raise AlgebraError("source and target live over different algebras")
            for i in range(source.algebra.dim):
                if source.action[i] @ mat != mat @ target.action[i]:
                    raise AlgebraError(
                        f"matrix does not intertwine the action of {source.algebra.labels[i]}"
                    )

    @staticmethod
    def zero(source: Module, target: Module) -> "ModuleMap":
        return ModuleMap(source, target, Mat.zeros(source.algebra.field, source.dim, target.dim), check=False)

    @staticmethod
    def identity(M: Module) -> "ModuleMap":
        return ModuleMap(M, M, Mat.identity(M.algebra.field, M.dim), check=False)

    def then(self, other: "ModuleMap") -> "ModuleMap":
        if self.target != other.source:
            raise AlgebraError("composition mismatch")
        return ModuleMap(self.source, other.target, self.mat @ other.mat, check=False)

    def __add__(self, other):
        return ModuleMap(self.source, self.target, self.mat + other.mat, check=False)

    def __sub__(self, other):
        return ModuleMap(self.source, self.target, self.mat - other.mat, check=False)

    def __neg__(self):
        return ModuleMap(self.source, self.target, -self.mat, check=False)

    def scale(self, c):
        return ModuleMap(self.source, self.target, self.mat.scale(c), check=False)

    def is_zero(self) -> bool:
        return self.mat.is_zero()

    def is_iso(self) -> bool:
        return self.source.dim == self.target.dim and self.mat.is_invertible()

    def inverse(self) -> "ModuleMap":
        return ModuleMap(self.target, self.source, self.mat.inverse(), check=False)

    def rank(self) -> int:
        return self.mat.rank()

    def __eq__(self, other):
        return (
            isinstance(other, ModuleMap)
            and self.source == other.source
            and self.target == other.target
            and self.mat == other.mat
        )

    def __hash__(self):
        return hash((self.source, self.target, self.mat))

    def __repr__(self):
        return f"ModuleMap({self.source.dim} -> {self.target.dim})"


# -- hom spaces ---------------------------------------------------------------


@lru_cache(maxsize=None)
def hom_basis(M: Module, N: Module):
    """Deterministic basis of Hom_A(M, N), as a tuple of ModuleMaps.

    Solves the intertwining system act_M(b) @ F - F @ act_N(b) = 0 for all
    basis elements b, its rows built as supports; the basis map of each
    free column, in increasing order, is 1 there and minus that column of
    the RREF at the pivots.  Each map's matrix carries its nonzero triples.
    """
    if M.algebra != N.algebra:
        raise AlgebraError("hom_basis: algebra mismatch")
    A = M.algebra
    F = A.field
    p = F.p
    m, n = M.dim, N.dim
    if m == 0 or n == 0:
        return ()
    rows = []
    for AM, AN in zip(M.action, N.action):
        # constraint rows indexed by (r, c); unknowns F_{s,t} flattened s*n+t
        mrows = _supports(F, AM, m, by_columns=False)
        ncolumns = _supports(F, AN, n, by_columns=True)
        for r, mrow in enumerate(mrows):
            for c, ncol in enumerate(ncolumns):
                row = {s * n + c: a for s, a in mrow}
                for t, b in ncol:
                    k = r * n + t
                    row[k] = row.get(k, 0) - b
                rows.append(_reduced(row, p))
    lead, _ = rref_supports(F, rows)
    free = {j: {j: F.one} for j in range(m * n) if j not in lead}
    for c, row in lead.items():
        for j, a in row.items():
            if j != c:
                free[j][c] = F.neg(a)
    return tuple(
        ModuleMap(M, N, Mat.from_nonzeros(F, m, n, [(k // n, k % n, a) for k, a in entries.items()]), check=False)
        for entries in free.values()
    )


def _reduced(row, p):
    """A support dict with its sums reduced: mod p over F_p, and no zeros."""
    if p:
        return {j: a % p for j, a in row.items() if a % p}
    return {j: a for j, a in row.items() if a}


def _supports(F, A, n, by_columns):
    """Each row (or column) of A as its nonzero (index, value) pairs; A None is the n x n identity."""
    if A is None:
        return _unit_supports(F, n)
    lines = (zip(*A.rows) if A.nrows else [()] * n) if by_columns else A.rows
    return [[(j, a) for j, a in enumerate(line) if a] for line in lines]


@lru_cache(maxsize=None)
def _unit_supports(F, n):
    """The supports of the n x n identity; tuples, since every caller shares them."""
    return tuple(((i, F.one),) for i in range(n))


class LinearProblem:
    """A joint linear system over hom-space coordinates of named unknowns.

    Each unknown ranges over a hom space (given by its basis); each equation
    states   sum_terms  sign * L @ U_name @ R  =  rhs   entrywise, where L or
    R may be None.  This is the only place where hom-space equations become
    rows: the columns follow the unknowns and their bases in the order they
    were added, the rows follow the equations and their entries row-major.
    """

    def __init__(self, field):
        self.field = field
        self.unknowns = []  # (name, basis tuple, (m, n))
        self.index = {}
        self.equations = []  # (terms, rhs)

    def add_unknown(self, name, basis, shape):
        if name in self.index:
            raise ValueError(f"duplicate unknown {name}")
        self.index[name] = len(self.unknowns)
        self.unknowns.append((name, tuple(basis), shape))

    def add_equation(self, terms, rhs: Mat):
        self.equations.append((tuple(terms), rhs))

    def _offsets(self):
        offsets = []
        total = 0
        for _, basis, _ in self.unknowns:
            offsets.append(total)
            total += len(basis)
        return offsets, total

    def support_rows(self):
        """(rows, total): each row of [A | B] as its support {column: nonzero}.

        B is column total.  vec(L @ e @ R)[(r, c)] is the sum over the
        nonzero e[i][j] of e[i][j] * L[r][i] * R[j][c], a missing L or R
        read as the identity; only these products are formed, over the
        cached nonzeros of each basis map, and each cell is reduced once.
        Zero rows are kept as empty dicts, so the rows are in matrix order.
        """
        F = self.field
        p = F.p
        offsets, total = self._offsets()
        rows = []
        for terms, rhs in self.equations:
            n = rhs.ncols
            eq_rows = [{} for _ in range(rhs.nrows * n)]
            for name, L, R, sign in terms:
                k = self.index[name]
                _, basis, (em, en) = self.unknowns[k]
                lcols = _supports(F, L, em, by_columns=True)
                rrows = _supports(F, R, en, by_columns=False)
                for col, e in enumerate(basis, offsets[k]):
                    for i, j, v in e.mat.nonzeros():
                        for r, a in lcols[i]:
                            w = sign * v * a
                            base = r * n
                            for c, b in rrows[j]:
                                row = eq_rows[base + c]
                                row[col] = row.get(col, 0) + w * b
            for row, b in zip(eq_rows, rhs.flatten()):
                row = _reduced(row, p)
                if b:
                    row[total] = b
                rows.append(row)
        return rows, total

    def matrix(self):
        """(A, B) with the system reading A @ x = B for the coordinate column x: support_rows() made dense."""
        F = self.field
        rows, total = self.support_rows()
        dense = []
        for row in rows:
            line = [F.zero] * (total + 1)
            for j, a in row.items():
                line[j] = a
            dense.append(line)
        return Mat(F, [line[:total] for line in dense], total), Mat(F, [line[total:] for line in dense], 1)

    def assignment(self, coords):
        """Dict name -> matrix of each unknown at the coordinate vector coords."""
        offsets, _ = self._offsets()
        out = {}
        for (name, basis, (m, n)), off in zip(self.unknowns, offsets):
            terms = zip(coords[off : off + len(basis)], (e.mat for e in basis))
            out[name] = linear_combination(self.field, m, n, terms)
        return out

    def solve(self, want_cert=True):
        """Returns (assignment dict, None) or (None, certificate row).

        The rows go into the insertion kernel as supports.  The solution has
        every free coordinate at 0, read off the B column of the RREF, so it
        depends only on the column order and the row space of [A | B].  The
        certificate needs the transform of the dense [A | B], rows in order.
        """
        F = self.field
        rows, total = self.support_rows()
        lead, _ = rref_supports(F, rows)
        if total in lead:
            return None, (solve_right(*self.matrix())[1] if want_cert else None)
        coords = [F.zero] * total
        for c, row in lead.items():
            coords[c] = row.get(total, F.zero)
        return self.assignment(coords), None


def solve_in_hom(M: Module, N: Module, L, R, rhs: Mat):
    """The matrix of some U in Hom(M, N) with L @ U @ R = rhs, or None.

    L or R may be None (no factor on that side).
    """
    prob = LinearProblem(M.algebra.field)
    prob.add_unknown("u", hom_basis(M, N), (M.dim, N.dim))
    prob.add_equation([("u", L, R, +1)], rhs)
    sol, _ = prob.solve(want_cert=False)
    return None if sol is None else sol["u"]


# -- submodules, quotients, kernels ------------------------------------------


def closure_under_action(M: Module, rows: Mat) -> Mat:
    """Row basis of the submodule generated by the given row vectors."""
    basis = row_space_basis(rows)
    while True:
        new = row_space_basis(basis.vstack(*(basis @ am for am in M.action)))
        if new.nrows == basis.nrows:
            return new
        basis = new


def submodule_from_rows(M: Module, rows: Mat, closed=False):
    """Submodule spanned by the rows (must be action-stable if closed=True).

    Returns (S, incl: S -> M); the inclusion matrix is the row basis itself.
    """
    basis = row_space_basis(rows) if closed else closure_under_action(M, rows)
    r = basis.nrows
    A = M.algebra
    if r == 0:
        Z = Module.zero(A)
        return Z, ModuleMap(Z, M, Mat(A.field, [], ncols=M.dim), check=False)
    acts = []
    for am in M.action:
        img = basis @ am
        sol = solve_xa_b(basis, img)
        if sol is None:
            raise AlgebraError("rows do not span an action-stable subspace")
        # sol @ basis = img, i.e. act_S with act_S @ basis = basis @ am
        acts.append(sol)
    S = Module(A, r, acts, check=False)
    return S, ModuleMap(S, M, basis, check=False)


def quotient_by_rows(M: Module, rows: Mat):
    """Quotient of M by the submodule spanned by the rows.

    Returns (Q, proj: M -> Q).  The complement basis is the set of standard
    basis vectors at the non-pivot columns of the rref of the subspace.
    proj is [rref rows; complement]^-1 restricted to the complement columns,
    written down directly: the row of a pivot column is minus its rref row at
    the free columns, the row of a free column is its unit vector.
    """
    A = M.algebra
    F = A.field
    R, piv = rows.rref()
    q = M.dim - len(piv)
    if q == 0:
        Z = Module.zero(A)
        return Z, ModuleMap(M, Z, Mat(F, [[] for _ in range(M.dim)] if M.dim else [], 0), check=False)
    pivot_row = dict(zip(piv, R.rows))
    free = [j for j in range(M.dim) if j not in pivot_row]
    unit = {f: k for k, f in enumerate(free)}
    proj_rows = []
    for j in range(M.dim):
        if j in pivot_row:
            proj_rows.append([F.neg(pivot_row[j][f]) for f in free])
        else:
            row = [F.zero] * q
            row[unit[j]] = F.one
            proj_rows.append(row)
    proj = Mat(F, proj_rows, q)  # M -> Q coordinates
    acts = [Mat(F, [am.rows[f] for f in free], M.dim) @ proj for am in M.action]
    Q = Module(A, q, acts, check=False)
    return Q, ModuleMap(M, Q, proj, check=False)


def kernel(f: ModuleMap):
    """Kernel with its inclusion: rows of the inclusion span {v : v f = 0}."""
    K = left_null_basis(f.mat)
    return submodule_from_rows(f.source, K, closed=True)


def image(f: ModuleMap):
    """Image submodule with inclusion and the corestriction of f onto it.

    Returns (I, incl: I -> target, onto: source -> I) with
    onto.then(incl) == f.
    """
    I, incl = submodule_from_rows(f.target, f.mat, closed=True)
    if I.dim == 0:
        onto = ModuleMap(f.source, I, Mat(f.source.algebra.field, [[] for _ in range(f.source.dim)] if f.source.dim else [], 0), check=False)
        return I, incl, onto
    sol = solve_xa_b(incl.mat, f.mat)
    onto = ModuleMap(f.source, I, sol, check=False)
    return I, incl, onto


def cokernel(f: ModuleMap):
    """Cokernel with its projection."""
    return quotient_by_rows(f.target, row_space_basis(f.mat))


def direct_sum_modules(mods):
    """Direct sum with inclusions and projections."""
    if not mods:
        raise AlgebraError("empty direct sum needs an algebra")
    A = mods[0].algebra
    F = A.field
    total = sum(m.dim for m in mods)
    acts = []
    for bi in range(A.dim):
        acts.append(Mat.block_diag(F, [m.action[bi] for m in mods]))
    S = Module(A, total, acts, check=False)
    incls, projs = [], []
    off = 0
    for m in mods:
        inc = Mat.zeros(F, m.dim, total).to_lists()
        prj = Mat.zeros(F, total, m.dim).to_lists()
        for i in range(m.dim):
            inc[i][off + i] = F.one
            prj[off + i][i] = F.one
        incls.append(ModuleMap(m, S, Mat(F, inc, total), check=False))
        projs.append(ModuleMap(S, m, Mat(F, prj, m.dim), check=False))
        off += m.dim
    return S, incls, projs
