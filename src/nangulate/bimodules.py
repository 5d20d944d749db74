"""Enveloping algebras, bimodule syzygies, twist detection and twist functors.

A bimodule over A is a right module over the enveloping algebra
A^e = A^op (x) A with basis b_i (x) b_j and product
(a (x) b)(c (x) d) = (ca) (x) (bd); the element a (x) b acts on a carrier m
as m |-> a*m*b.  The twisted bimodule 1_A_sigma carries the regular left
action and the right action through sigma.
"""

from __future__ import annotations

from .linalg import Mat, PrimeField, null_right
from .algebras import (
    Algebra,
    AlgebraError,
    Automorphism,
    Module,
    ModuleMap,
    kernel,
    quotient_by_rows,
)
from .structure import algebra_radical, primitive_idempotents, projective_cover


class ResourceBudgetExceeded(RuntimeError):
    pass


def kron(A: Mat, B: Mat) -> Mat:
    """Kronecker product compatible with row vectors: (v (x) w)(A (x) B) = vA (x) wB."""
    F = A.field
    m = A.nrows * B.nrows
    n = A.ncols * B.ncols
    if m == 0 or n == 0:
        return Mat(F, [[] for _ in range(m)] if m else [], n)
    mul = F.mul
    zero_block = [F.zero] * B.ncols
    rows = []
    for ra in A.rows:
        for rb in B.rows:
            row = []
            for a in ra:
                row.extend([mul(a, b) for b in rb] if a else zero_block)
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


def _pruned_scan(F, alphabet, d, cuts):
    """Tuples over alphabet in lexicographic order, last coordinate fastest,
    skipping each prefix whose completions all lie in one cut subspace.

    A cut (C, t) is H = {x : x @ C = 0} with e_k in H for every k >= t.  The
    completions of a prefix of length k span prefix + <e_k, .., e_{d-1}>,
    which lies in H exactly when k >= t and the zero-padded prefix does.
    """

    def walk(prefix, sums):
        # sums[i] = prefix @ C_i
        k = len(prefix)
        if any(k >= t and all(c == F.zero for c in s) for (_, t), s in zip(cuts, sums)):
            return
        if k == d:
            yield tuple(prefix)
            return
        for v in alphabet:
            c = F.of_int(v)
            nxt = [
                s if c == F.zero else [F.add(a, F.mul(c, b)) for a, b in zip(s, C.rows[k])]
                for (C, _), s in zip(cuts, sums)
            ]
            yield from walk(prefix + [c], nxt)

    yield from walk([], [[F.zero] * C.ncols for C, _ in cuts])


def detect_twist(env: Enveloping, X: Module):
    """Find sigma with X isomorphic to 1_A_sigma, or None.

    That holds exactly when some g in X is a free left generator (Phi_g:
    a |-> a*g is bijective) and the unital algebra map sigma_g given by
    g*a = sigma_g(a)*g is bijective; Phi_g: 1_A_sigma -> X is then the
    bimodule isomorphism.  Every other free generator is u*g for a unit u,
    with sigma_{u*g} = c_u . sigma_g, so the first one found decides.

    The scan walks g over range(p)^d (over Q, range(d+1)^d) in lexicographic
    order, last coordinate fastest.  A free generator has e_i*g outside JX
    for every primitive idempotent e_i, i.e. g outside H_i = (1 - e_i)X + JX,
    so prefixes whose completions all lie in one H_i are cut, and X is
    refused at once when X/JX and A/J differ in size.  The answer is thus the
    lexicographically first free generator.  Over F_p with d < p its
    coordinates are at most d: det Phi_g has degree d and each variable
    degree below p, so at most d values of the next coordinate kill it.

    If A/J is a product of r copies of the field and r < |alphabet|, the scan
    never backtracks: each H_i cuts at most one value of the next coordinate,
    and a leaf outside every H_i generates X/JX = A/J, hence X.  For a local
    A the one leaf is e_j for the largest j with e_j outside JX.
    """
    A = env.base
    F = A.field
    d = A.dim
    if X.dim != d:
        return None
    rad = algebra_radical(A)
    jx_rows = [row for r in rad.rows for row in env.left_action_mat(X, r).rows]
    if Mat(F, jx_rows, d).rank() != rad.nrows:
        return None
    cuts = []
    for e in primitive_idempotents(A):
        co = tuple(F.sub(a, b) for a, b in zip(A.unit, e))
        C = null_right(Mat(F, list(env.left_action_mat(X, co).rows) + jx_rows, d))
        # e_k lies in H_i exactly when row k of C is zero
        t = next((k for k in range(d, 0, -1) if any(c != F.zero for c in C.rows[k - 1])), 0)
        cuts.append((C, t))
    alphabet = range(F.p) if isinstance(F, PrimeField) else range(d + 1)
    left_mats = [env.left_action_mat(X, A.basis_vector(i)) for i in range(d)]
    right_mats = [env.right_action_mat(X, A.basis_vector(j)) for j in range(d)]
    for g in _pruned_scan(F, alphabet, d, cuts):
        grow = Mat(F, [list(g)], d)
        Phi = Mat(F, [(grow @ lm).rows[0] for lm in left_mats], d)
        if not Phi.is_invertible():
            continue
        Phi_inv = Phi.inverse()
        srows = [(grow @ rm @ Phi_inv).rows[0] for rm in right_mats]
        try:
            sigma = Automorphism(A, Mat(F, srows, d))
        except AlgebraError:
            return None
        return TwistResult(sigma, g, ModuleMap(env.twisted_bimodule(sigma), X, Phi))
    return None


# -- twist functor ----------------------------------------------------------------


def twist_module(M: Module, tau: Automorphism) -> Module:
    """Same carrier, action m . a := m * tau(a)."""
    A = M.algebra
    acts = [M.act(tau.apply(A.basis_vector(i))) for i in range(A.dim)]
    return Module(A, M.dim, acts, check=False)


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
    # the complement basis vectors: quotient_by_rows maps them to the unit vectors
    pivots = set(rels.rref()[1])
    free = [j for j in range(pre_dim) if j not in pivots]
    section = Mat(F, [[F.one if j == f else F.zero for j in range(pre_dim)] for f in free], pre_dim)
    if section @ proj.mat != Mat.identity(F, Q.dim):
        raise AlgebraError("tensor quotient section failed")
    return TensorResult(Q, proj.mat, section)


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

