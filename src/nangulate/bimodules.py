"""Enveloping algebras, bimodule syzygies, twist detection and twist functors.

A bimodule over A is a right module over the enveloping algebra
A^e = A^op (x) A with basis b_i (x) b_j and product
(a (x) b)(c (x) d) = (ca) (x) (bd); the element a (x) b acts on a carrier m
as m |-> a*m*b.  The twisted bimodule 1_A_sigma carries the regular left
action and the right action through sigma.
"""

from __future__ import annotations

from .linalg import Mat, PrimeField, solve_xa_b
from .algebras import (
    Algebra,
    AlgebraError,
    Automorphism,
    Module,
    ModuleMap,
    kernel,
    quotient_by_rows,
)
from .structure import algebra_radical, projective_cover


class ResourceBudgetExceeded(RuntimeError):
    pass


def kron(A: Mat, B: Mat) -> Mat:
    """Kronecker product compatible with row vectors: (v (x) w)(A (x) B) = vA (x) wB."""
    F = A.field
    m = A.nrows * B.nrows
    n = A.ncols * B.ncols
    if m == 0 or n == 0:
        return Mat(F, [[] for _ in range(m)] if m else [], n)
    rows = []
    for i1 in range(A.nrows):
        for i2 in range(B.nrows):
            row = []
            for j1 in range(A.ncols):
                a = A.rows[i1][j1]
                for j2 in range(B.ncols):
                    row.append(F.mul(a, B.rows[i2][j2]))
            rows.append(row)
    return Mat(F, rows, n)


class Enveloping:
    """The enveloping algebra of A together with bimodule constructors."""

    def __init__(self, A: Algebra):
        self.base = A
        F = A.field
        d = A.dim
        D = d * d
        mult = [[None] * D for _ in range(D)]
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    for l in range(d):
                        left = A.mult[k][i]  # b_k * b_i
                        right = A.mult[j][l]  # b_j * b_l
                        vec = [F.zero] * D
                        for r in range(d):
                            lr = left[r]
                            if lr == F.zero:
                                continue
                            for s in range(d):
                                rs = right[s]
                                if rs != F.zero:
                                    vec[r * d + s] = F.mul(lr, rs)
                        mult[i * d + j][k * d + l] = vec
        unit = [F.zero] * D
        for r in range(d):
            ur = A.unit[r]
            if ur == F.zero:
                continue
            for s in range(d):
                us = A.unit[s]
                if us != F.zero:
                    unit[r * d + s] = F.mul(ur, us)
        labels = [f"{A.labels[i]}(x){A.labels[j]}" for i in range(d) for j in range(d)]
        self.algebra = Algebra(F, mult, unit, labels, check=(D <= 9))
        # consulted lazily by algebra_radical, which still certifies the result
        self.algebra._cache["radical_rule"] = self._radical_rows
        self._left_mats = [A.left_mult_mat(A.basis_vector(i)) for i in range(d)]
        self._right_mats = [A.right_mult_mat(A.basis_vector(j)) for j in range(d)]

    def pair_coords(self, x, y):
        """Coordinates of x (x) y in A^e."""
        F = self.base.field
        d = self.base.dim
        out = [F.zero] * (d * d)
        for r, xr in enumerate(x):
            if xr == F.zero:
                continue
            for s, ys in enumerate(y):
                if ys != F.zero:
                    out[r * d + s] = F.mul(xr, ys)
        return tuple(out)

    def _radical_rows(self):
        """Rows spanning J(A)^op (x) A + A^op (x) J(A), the radical of A^e over a perfect field."""
        A = self.base
        rows = []
        for r in algebra_radical(A).rows:
            for j in range(A.dim):
                b = A.basis_vector(j)
                rows.append(self.pair_coords(r, b))
                rows.append(self.pair_coords(b, r))
        return rows

    def left_elem(self, x):
        """Coordinates of x (x) 1."""
        return self.pair_coords(x, self.base.unit)

    def right_elem(self, y):
        """Coordinates of 1 (x) y."""
        return self.pair_coords(self.base.unit, y)

    def regular_bimodule(self) -> Module:
        """A itself, with m . (a (x) b) = a*m*b."""
        A = self.base
        d = A.dim
        acts = []
        for i in range(d):
            for j in range(d):
                acts.append(self._left_mats[i] @ self._right_mats[j])
        return Module(self.algebra, d, acts, check=(d * d <= 9))

    def twisted_bimodule(self, sigma: Automorphism) -> Module:
        """1_A_sigma: regular left action, right action through sigma."""
        A = self.base
        d = A.dim
        acts = []
        for i in range(d):
            for j in range(d):
                rj = A.right_mult_mat(sigma.apply(A.basis_vector(j)))
                acts.append(self._left_mats[i] @ rj)
        return Module(self.algebra, d, acts, check=(d * d <= 9))

    def left_action_mat(self, B: Module, x) -> Mat:
        """Matrix of m |-> x*m on a bimodule B."""
        return B.act(self.left_elem(x))

    def right_action_mat(self, B: Module, y) -> Mat:
        """Matrix of m |-> m*y on a bimodule B."""
        return B.act(self.right_elem(y))


class SyzygyChain:
    """Minimal projective bimodule resolution segment of A over A^e.

    steps[t] (t = 0..n-1) carries the cover P_{t+1} -> Omega^t together with
    the kernel inclusion Omega^{t+1} -> P_{t+1}; modules[t] = Omega^t with
    modules[0] the regular bimodule A.
    """

    def __init__(self, env, modules, covers, kernel_incls):
        self.env = env
        self.modules = modules
        self.covers = covers
        self.kernel_incls = kernel_incls

    @property
    def top(self) -> Module:
        return self.modules[-1]

    def dims(self):
        return [m.dim for m in self.modules]

    def boundary_maps(self):
        """Bimodule maps d_t: P_t -> P_{t-1} (t >= 2) and d_1: P_1 -> A."""
        maps = [self.covers[0].epi]
        for t in range(1, len(self.covers)):
            maps.append(self.covers[t].epi.then(self.kernel_incls[t - 1]))
        return maps


def bimodule_syzygy(A: Algebra, n: int, budget: int = 2000) -> SyzygyChain:
    """Compute Omega^n_{A^e}(A) by n minimal cover-and-kernel steps."""
    if n < 0:
        raise ValueError("syzygy index must be nonnegative")
    env = Enveloping(A)
    M = env.regular_bimodule()
    modules = [M]
    covers = []
    kernel_incls = []
    total = M.dim
    for step in range(n):
        cover = projective_cover(M)
        K, incl = kernel(cover.epi)
        total += cover.P.dim + K.dim
        if total > budget:
            raise ResourceBudgetExceeded(
                f"resolution budget {budget} exceeded at step {step + 1} "
                f"(accumulated dimension {total})"
            )
        covers.append(cover)
        kernel_incls.append(incl)
        M = K
        modules.append(M)
    return SyzygyChain(env, modules, covers, kernel_incls)


class TwistResult:
    def __init__(self, sigma: Automorphism, generator, iso: ModuleMap):
        self.sigma = sigma
        self.generator = generator
        self.iso = iso  # 1_A_sigma -> X, verified bimodule isomorphism


def _generator_candidates(field, dim, degree, limit=4096):
    """Deterministic candidate stream covering a grid large enough to hit a
    generator whenever the freeness determinant is not identically zero."""
    import itertools

    if isinstance(field, PrimeField):
        if field.p**dim <= limit:
            for coords in itertools.product(range(field.p), repeat=dim):
                yield tuple(field.of_int(c) for c in coords)
            return
        size = degree + 1
        if size > field.p:
            raise ResourceBudgetExceeded(
                "twist detection grid does not fit in the field"
            )
        for coords in itertools.product(range(size), repeat=dim):
            yield tuple(field.of_int(c) for c in coords)
    else:
        for coords in itertools.product(range(degree + 1), repeat=dim):
            yield tuple(field.of_int(c) for c in coords)


def detect_twist(env: Enveloping, X: Module, all_twists=False):
    """Find sigma with X isomorphic to 1_A_sigma, or None.

    Searches candidate generators g in a deterministic order; g works when
    a |-> a*g is bijective, sigma is then read off from g*a = sigma(a)*g and
    validated, and the resulting bimodule map is verified on both actions.
    With all_twists=True, returns the list of all twists found (distinct
    sigma matrices) instead of the first.
    """
    A = env.base
    F = A.field
    d = A.dim
    if X.dim != d:
        return [] if all_twists else None
    left_mats = [env.left_action_mat(X, A.basis_vector(i)) for i in range(d)]
    right_mats = [env.right_action_mat(X, A.basis_vector(j)) for j in range(d)]
    found = []
    seen = set()
    for g in _generator_candidates(F, d, d):
        if all(c == F.zero for c in g):
            continue
        grow = Mat(F, [list(g)], d)
        phi_rows = [(grow @ lm).rows[0] for lm in left_mats]
        Phi = Mat(F, phi_rows, d)
        if not Phi.is_invertible():
            continue
        Phi_inv = Phi.inverse()
        srows = []
        for j in range(d):
            vj = (grow @ right_mats[j]).rows[0]
            srows.append((Mat(F, [list(vj)], d) @ Phi_inv).rows[0])
        S = Mat(F, srows, d)
        try:
            sigma = Automorphism(A, S)
        except AlgebraError:
            continue
        twisted = env.twisted_bimodule(sigma)
        try:
            iso = ModuleMap(twisted, X, Phi)
        except AlgebraError:
            continue
        result = TwistResult(sigma, g, iso)
        if not all_twists:
            return result
        if S not in seen:
            seen.add(S)
            found.append(result)
    return found if all_twists else None


# -- twist functor ----------------------------------------------------------------


def twist_module(M: Module, tau: Automorphism) -> Module:
    """Same carrier, action m . a := m * tau(a)."""
    A = M.algebra
    acts = [M.act(tau.apply(A.basis_vector(i))) for i in range(A.dim)]
    return Module(A, M.dim, acts, check=False)


def twist_map(f: ModuleMap, tau: Automorphism) -> ModuleMap:
    return ModuleMap(twist_module(f.source, tau), twist_module(f.target, tau), f.mat, check=False)


# -- tensor with a bimodule --------------------------------------------------------


class TensorResult:
    """M (x)_A B as a right A-module, with the quotient bookkeeping.

    pre space = M (x)_k B (indexed (u, v) -> u*dim(B)+v), proj is the
    projection onto the quotient by the balancing relations, section picks
    representatives (section @ proj = identity).
    """

    def __init__(self, module, proj, section):
        self.module = module
        self.proj = proj
        self.section = section


def tensor_module_bimodule(env: Enveloping, M: Module, B: Module) -> TensorResult:
    """M (x)_A B for a right A-module M and a bimodule B."""
    A = env.base
    F = A.field
    d = A.dim
    mdim, bdim = M.dim, B.dim
    pre_dim = mdim * bdim
    if pre_dim == 0:
        Z = Module.zero(A)
        empty = Mat(F, [[] for _ in range(pre_dim)] if pre_dim else [], 0)
        return TensorResult(Z, empty, Mat(F, [], ncols=pre_dim))
    # pre-module: right action through B's right side
    acts = [kron(Mat.identity(F, mdim), env.right_action_mat(B, A.basis_vector(i))) for i in range(d)]
    pre = Module(A, pre_dim, acts, check=False)
    rel_rows = []
    for s in range(d):
        act_s = M.action[s]
        left_s = env.left_action_mat(B, A.basis_vector(s))
        for u in range(mdim):
            mu = act_s.rows[u]  # e_u * b_s in M
            for v in range(bdim):
                row = [F.zero] * pre_dim
                for a, c in enumerate(mu):
                    if c != F.zero:
                        row[a * bdim + v] = F.add(row[a * bdim + v], c)
                bv = left_s.rows[v]  # b_s * e_v in B
                for b, c in enumerate(bv):
                    if c != F.zero:
                        row[u * bdim + b] = F.sub(row[u * bdim + b], c)
                rel_rows.append(row)
    rels = Mat(F, rel_rows, pre_dim)
    Q, proj = quotient_by_rows(pre, rels)
    if Q.dim == 0:
        return TensorResult(Q, proj.mat, Mat(F, [], ncols=pre_dim))
    section = solve_xa_b(proj.mat, Mat.identity(F, Q.dim))
    if section is None:
        raise AlgebraError("tensor quotient section failed")
    return TensorResult(Q, proj.mat, section)


def tensor_map_module_side(env, f: ModuleMap, B: Module, src: TensorResult, tgt: TensorResult) -> ModuleMap:
    """f (x) id_B : (source (x) B) -> (target (x) B)."""
    F = env.base.field
    pre = kron(f.mat, Mat.identity(F, B.dim))
    mat = src.section @ pre @ tgt.proj
    return ModuleMap(src.module, tgt.module, mat, check=False)


def tensor_map_bimodule_side(env, M: Module, g: ModuleMap, src: TensorResult, tgt: TensorResult) -> ModuleMap:
    """id_M (x) g : (M (x) g.source) -> (M (x) g.target)."""
    F = env.base.field
    pre = kron(Mat.identity(F, M.dim), g.mat)
    mat = src.section @ pre @ tgt.proj
    return ModuleMap(src.module, tgt.module, mat, check=False)


def twist_form_iso(env: Enveloping, M: Module, tau: Automorphism, tens: TensorResult) -> ModuleMap:
    """The canonical isomorphism M (x)_A (1_A_tau) -> twist_module(M, tau).

    On representatives, m (x) x |-> m * x.
    """
    A = env.base
    F = A.field
    d = A.dim
    target = twist_module(M, tau)
    bdim = d
    pre_rows = []
    for u in range(M.dim):
        for v in range(bdim):
            row = M.act(A.basis_vector(v)).rows[u]
            pre_rows.append(list(row))
    pre = Mat(F, pre_rows, M.dim)
    mat = tens.section @ pre
    iso = ModuleMap(tens.module, target, mat, check=False)
    if not iso.is_iso():
        raise AlgebraError("twist-form comparison is not an isomorphism")
    return iso


def tensor_bimodules(env: Enveloping, X: Module, Y: Module):
    """X (x)_A Y of two bimodules, again as a bimodule (module over A^e)."""
    A = env.base
    F = A.field
    d = A.dim
    xd, yd = X.dim, Y.dim
    pre_dim = xd * yd
    acts = []
    for i in range(d):
        li = kron(env.left_action_mat(X, A.basis_vector(i)), Mat.identity(F, yd))
        for j in range(d):
            rj = kron(Mat.identity(F, xd), env.right_action_mat(Y, A.basis_vector(j)))
            acts.append(li @ rj)
    pre = Module(env.algebra, pre_dim, acts, check=False)
    rel_rows = []
    for s in range(d):
        right_s = env.right_action_mat(X, A.basis_vector(s))
        left_s = env.left_action_mat(Y, A.basis_vector(s))
        for u in range(xd):
            xu = right_s.rows[u]
            for v in range(yd):
                row = [F.zero] * pre_dim
                for a, c in enumerate(xu):
                    if c != F.zero:
                        row[a * yd + v] = F.add(row[a * yd + v], c)
                yv = left_s.rows[v]
                for b, c in enumerate(yv):
                    if c != F.zero:
                        row[u * yd + b] = F.sub(row[u * yd + b], c)
                rel_rows.append(row)
    rels = Mat(F, rel_rows, pre_dim)
    Q, proj = quotient_by_rows(pre, rels)
    return Q
