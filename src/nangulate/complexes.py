"""Periodic complexes over proj-A: rotations, cones, exactness, homotopies.

A period-n complex stores exactly one period: objects X_0..X_{n-1} (all
certified projective) and maps f_i: X_i -> X_{i+1}, the last one landing in
the suspension of X_0.  The doubly infinite periodic extension
(X_{k+n} = Sigma X_k, f_{k+n} = Sigma f_k) is never stored; wraparound
arithmetic retypes matrices on the fly, which is sound because the
suspension acts on maps as the identity on matrices.

The homotopy solver assembles one global linear system over hom-space
coordinates of all n slots; the wraparound constraint couples the slots, so
a slot-by-slot back-substitution could miss solutions.
"""

from __future__ import annotations

from functools import lru_cache

from .linalg import Mat, solve_right, solve_xa_b
from .algebras import (
    Automorphism,
    Module,
    ModuleMap,
    direct_sum_modules,
    hom_basis,
    kernel,
)
from .bimodules import twist_module
from .structure import injective_envelope, is_projective, stable_zero_witness


class ComplexError(ValueError):
    pass


@lru_cache(maxsize=None)
def _projective_cached(M: Module) -> bool:
    return is_projective(M)


class Suspension:
    """The ambient (A, sigma) fixing the suspension of modules and maps."""

    def __init__(self, algebra, sigma: Automorphism | None = None):
        self.algebra = algebra
        self.sigma = sigma if sigma is not None else Automorphism.identity(algebra)
        self._inv = self.sigma.inverse()

    def is_identity(self) -> bool:
        return self.sigma.is_identity()

    def apply_module(self, M: Module) -> Module:
        if self.is_identity():
            return M
        return twist_module(M, self._inv)

    def unapply_module(self, M: Module) -> Module:
        if self.is_identity():
            return M
        return twist_module(M, self.sigma)

    def __eq__(self, other):
        return (
            isinstance(other, Suspension)
            and self.algebra == other.algebra
            and self.sigma == other.sigma
        )

    def __hash__(self):
        return hash((self.algebra, self.sigma))


class PeriodicComplex:
    """One period of an n-Sigma-sequence with projective slots."""

    def __init__(self, susp: Suspension, objects, maps, check=True):
        self.susp = susp
        self.objects = tuple(objects)
        self.maps = tuple(maps)
        self.n = len(self.objects)
        if check:
            self._validate()

    def _validate(self):
        if self.n < 3:
            raise ComplexError("period must be at least 3")
        if len(self.maps) != self.n:
            raise ComplexError("need exactly one map per slot")
        for i in range(self.n - 1):
            if self.maps[i].source != self.objects[i] or self.maps[i].target != self.objects[i + 1]:
                raise ComplexError(f"map {i} does not connect slot {i} to slot {i + 1}")
        last = self.maps[self.n - 1]
        if last.source != self.objects[self.n - 1]:
            raise ComplexError("last map has wrong source")
        if last.target != self.susp.apply_module(self.objects[0]):
            raise ComplexError("last map must land in the suspension of the first slot")
        for i, X in enumerate(self.objects):
            if not _projective_cached(X):
                raise ComplexError(f"slot {i} is not projective")

    def dims(self):
        return tuple(X.dim for X in self.objects)

    def map_mat(self, i) -> Mat:
        """Matrix of f_i with periodic index (suspension acts trivially on matrices)."""
        return self.maps[i % self.n].mat

    def shifted_object(self, i) -> Module:
        """X_i of the periodic extension for 0 <= i <= n."""
        if i < self.n:
            return self.objects[i]
        return self.susp.apply_module(self.objects[i - self.n])

    def __eq__(self, other):
        return (
            isinstance(other, PeriodicComplex)
            and self.susp == other.susp
            and self.objects == other.objects
            and self.maps == other.maps
        )

    def __hash__(self):
        return hash((self.susp, self.objects, self.maps))

    def __repr__(self):
        return f"PeriodicComplex(n={self.n}, dims={self.dims()})"


def disk_complex(susp: Suspension, X: Module, n: int, slot: int) -> PeriodicComplex:
    """The contractible complex with X at positions slot, slot+1 joined by 1.

    slot = 0 gives the trivial sequence X -> X -> 0 -> ... -> 0 -> Sigma X;
    slot = n-1 wraps: the first object is Sigma^{-1} X.
    """
    A = susp.algebra
    F = A.field
    zero = Module.zero(A)
    objects = [zero] * n
    if slot < n - 1:
        objects[slot] = X
        objects[slot + 1] = X
    else:
        objects[n - 1] = X
        objects[0] = susp.unapply_module(X)
    maps = []
    for i in range(n):
        src = objects[i]
        tgt = objects[i + 1] if i < n - 1 else susp.apply_module(objects[0])
        if i == slot:
            maps.append(ModuleMap(src, tgt, Mat.identity(F, X.dim), check=False))
        else:
            maps.append(ModuleMap.zero(src, tgt))
    return PeriodicComplex(susp, objects, maps)


def trivial_complex(susp: Suspension, X: Module, n: int) -> PeriodicComplex:
    return disk_complex(susp, X, n, 0)


def rotate_left(X: PeriodicComplex) -> PeriodicComplex:
    """(X_2, ..., X_n, Sigma X_1) with the wrapped map carrying (-1)^n."""
    susp = X.susp
    F = susp.algebra.field
    sign = F.one if X.n % 2 == 0 else F.neg(F.one)
    objects = list(X.objects[1:]) + [susp.apply_module(X.objects[0])]
    maps = list(X.maps[1:])
    wrapped = ModuleMap(
        objects[-1],
        susp.apply_module(objects[0]),
        X.maps[0].mat.scale(sign),
        check=False,
    )
    maps.append(wrapped)
    return PeriodicComplex(susp, objects, maps)


def rotate_right(X: PeriodicComplex) -> PeriodicComplex:
    """The exact inverse of rotate_left."""
    susp = X.susp
    F = susp.algebra.field
    sign = F.one if X.n % 2 == 0 else F.neg(F.one)
    first_obj = susp.unapply_module(X.objects[-1])
    objects = [first_obj] + list(X.objects[:-1])
    first_map = ModuleMap(first_obj, X.objects[0], X.maps[-1].mat.scale(sign), check=False)
    maps = [first_map] + list(X.maps[:-1])
    return PeriodicComplex(susp, objects, maps)


def direct_sum_complexes(X: PeriodicComplex, Y: PeriodicComplex) -> PeriodicComplex:
    if X.susp != Y.susp or X.n != Y.n:
        raise ComplexError("direct sum needs matching period and ambient suspension")
    F = X.susp.algebra.field
    objects = []
    for a, b in zip(X.objects, Y.objects):
        S, _, _ = direct_sum_modules([a, b])
        objects.append(S)
    maps = []
    for i in range(X.n):
        tgt = objects[i + 1] if i < X.n - 1 else X.susp.apply_module(objects[0])
        maps.append(
            ModuleMap(objects[i], tgt, Mat.block_diag(F, [X.maps[i].mat, Y.maps[i].mat]), check=False)
        )
    return PeriodicComplex(X.susp, objects, maps)


def conjugate_complex(X: PeriodicComplex, isos) -> PeriodicComplex:
    """Replace slot i by the target of the slot isomorphism u_i: X_i -> X'_i."""
    susp = X.susp
    objects = [u.target for u in isos]
    maps = []
    for i in range(X.n):
        u_inv = isos[i].mat.inverse()
        nxt = isos[(i + 1) % X.n].mat
        tgt = objects[i + 1] if i < X.n - 1 else susp.apply_module(objects[0])
        maps.append(ModuleMap(objects[i], tgt, u_inv @ X.maps[i].mat @ nxt, check=False))
    return PeriodicComplex(susp, objects, maps)


def is_exact(X: PeriodicComplex) -> bool:
    """Exactness over one full period including the suspension seam."""
    for i in range(X.n):
        prev = X.map_mat(i - 1)
        cur = X.maps[i].mat
        if not (prev @ cur).is_zero():
            return False
        if prev.rank() + cur.rank() != X.objects[i].dim:
            return False
    return True


class ChainMap:
    """Degreewise maps with commuting squares, the last closed by Sigma phi_1."""

    def __init__(self, source: PeriodicComplex, target: PeriodicComplex, parts, check=True):
        self.source = source
        self.target = target
        self.parts = tuple(parts)
        if check:
            self._validate()

    def _validate(self):
        X, Y = self.source, self.target
        if X.susp != Y.susp or X.n != Y.n:
            raise ComplexError("chain map needs matching period and suspension")
        if len(self.parts) != X.n:
            raise ComplexError("need one component per slot")
        for i, p in enumerate(self.parts):
            if p.source != X.objects[i] or p.target != Y.objects[i]:
                raise ComplexError(f"component {i} has wrong endpoints")
        for i in range(X.n):
            lhs = X.maps[i].mat @ self.part_mat(i + 1)
            rhs = self.parts[i].mat @ Y.maps[i].mat
            if lhs != rhs:
                raise ComplexError(f"square {i} does not commute")

    def part_mat(self, i) -> Mat:
        return self.parts[i % self.source.n].mat

    @staticmethod
    def identity(X: PeriodicComplex) -> "ChainMap":
        return ChainMap(X, X, [ModuleMap.identity(obj) for obj in X.objects], check=False)

    @staticmethod
    def zero(X: PeriodicComplex, Y: PeriodicComplex) -> "ChainMap":
        return ChainMap(X, Y, [ModuleMap.zero(a, b) for a, b in zip(X.objects, Y.objects)], check=False)

    def then(self, other: "ChainMap") -> "ChainMap":
        parts = [a.then(b) for a, b in zip(self.parts, other.parts)]
        return ChainMap(self.source, other.target, parts, check=False)

    def __add__(self, other):
        return ChainMap(self.source, self.target, [a + b for a, b in zip(self.parts, other.parts)], check=False)

    def __sub__(self, other):
        return ChainMap(self.source, self.target, [a - b for a, b in zip(self.parts, other.parts)], check=False)

    def is_zero(self):
        return all(p.is_zero() for p in self.parts)

    def is_degreewise_iso(self):
        return all(p.is_iso() for p in self.parts)

    def __eq__(self, other):
        return (
            isinstance(other, ChainMap)
            and self.source == other.source
            and self.target == other.target
            and self.parts == other.parts
        )

    def __hash__(self):
        return hash((self.source, self.target, self.parts))


class Homotopy:
    """Maps h_i: X_{i+1} -> Y_i; the slot n-1 source is the suspended X_0."""

    def __init__(self, source: PeriodicComplex, target: PeriodicComplex, parts):
        self.source = source
        self.target = target
        self.parts = tuple(parts)

    def part_mat(self, i) -> Mat:
        return self.parts[i % self.source.n].mat

    def boundary_mat(self, i) -> Mat:
        """Matrix of f_i h_i + h_{i-1} g_{i-1} at slot i."""
        X, Y = self.source, self.target
        return X.maps[i].mat @ self.part_mat(i) + self.part_mat(i - 1) @ Y.map_mat(i - 1)

    def verifies(self, phi: ChainMap, psi: ChainMap) -> bool:
        """Exact check of phi_i - psi_i = f_i h_i + h_{i-1} g_{i-1} for all i."""
        for i in range(self.source.n):
            if phi.parts[i].mat - psi.parts[i].mat != self.boundary_mat(i):
                return False
        return True


def homotopy_slot_types(X: PeriodicComplex, Y: PeriodicComplex, i: int):
    src = X.shifted_object(i + 1)
    tgt = Y.objects[i]
    return src, tgt


class LinearProblem:
    """A joint linear system over hom-space coordinates of named unknowns.

    Each unknown ranges over a hom space (given by its basis); each equation
    states   sum_terms  sign * L @ U_name @ R  =  rhs   entrywise.
    """

    def __init__(self, field, want_cert=True):
        self.field = field
        self.want_cert = want_cert
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

    def solve(self):
        """Returns (assignment dict, None) or (None, certificate row)."""
        F = self.field
        add, sub, mul = F.add, F.sub, F.mul
        offsets = []
        total = 0
        for name, basis, shape in self.unknowns:
            offsets.append(total)
            total += len(basis)
        rows = []
        rhs_flat = []
        for terms, rhs in self.equations:
            m, n = rhs.nrows, rhs.ncols
            eq_rows = [[F.zero] * total for _ in range(m * n)]
            for name, L, R, sign in terms:
                k = self.index[name]
                _, basis, shape = self.unknowns[k]
                off = offsets[k]
                # vec(L @ e @ R)[(r, c)] = sum over nonzero e[i][j] of
                # e[i][j] * L[r][i] * R[j][c]; hom bases are sparse, so
                # accumulate outer products per nonzero entry
                for bi, e in enumerate(basis):
                    emat = e.mat if hasattr(e, "mat") else e
                    col = off + bi
                    for i, erow in enumerate(emat.rows):
                        for j, v in enumerate(erow):
                            if v == F.zero:
                                continue
                            if L is None:
                                if R is None:
                                    r0 = i * n + j
                                    cur = eq_rows[r0][col]
                                    eq_rows[r0][col] = add(cur, v) if sign > 0 else sub(cur, v)
                                else:
                                    base = i * n
                                    rrow = R.rows[j]
                                    for c in range(n):
                                        w = rrow[c]
                                        if w != F.zero:
                                            cur = eq_rows[base + c][col]
                                            w = mul(v, w)
                                            eq_rows[base + c][col] = add(cur, w) if sign > 0 else sub(cur, w)
                            else:
                                rrow = None if R is None else R.rows[j]
                                for r in range(m):
                                    lv = L.rows[r][i]
                                    if lv == F.zero:
                                        continue
                                    w0 = mul(v, lv)
                                    base = r * n
                                    if R is None:
                                        cur = eq_rows[base + j][col]
                                        eq_rows[base + j][col] = add(cur, w0) if sign > 0 else sub(cur, w0)
                                    else:
                                        for c in range(n):
                                            w = rrow[c]
                                            if w != F.zero:
                                                cur = eq_rows[base + c][col]
                                                w = mul(w0, w)
                                                eq_rows[base + c][col] = add(cur, w) if sign > 0 else sub(cur, w)
            rows.extend(eq_rows)
            rhs_flat.extend(rhs.flatten())
        A = Mat(F, rows, total)
        B = Mat(F, [[v] for v in rhs_flat], 1)
        Xsol, cert = solve_right(A, B, want_cert=self.want_cert)
        if Xsol is None:
            return None, cert
        out = {}
        for (name, basis, shape), off in zip(self.unknowns, offsets):
            acc = Mat.zeros(F, shape[0], shape[1])
            for bi, e in enumerate(basis):
                c = Xsol.rows[off + bi][0]
                if c != F.zero:
                    em = e.mat if hasattr(e, "mat") else e
                    acc = acc + em.scale(c)
            out[name] = acc
        return out, None


def homotopy_between(phi: ChainMap, psi: ChainMap):
    """Solve for an n-Sigma-homotopy from phi to psi.

    Returns (Homotopy, None) or (None, certificate).  One global system: the
    wraparound h_{n+i} = Sigma h_i identifies the slot-(n-1) unknown matrix
    with its suspended reuse in the slot-0 equation.
    """
    X, Y = phi.source, phi.target
    if psi.source != X or psi.target != Y:
        raise ComplexError("homotopy endpoints mismatch")
    F = X.susp.algebra.field
    prob = LinearProblem(F)
    n = X.n
    for i in range(n):
        src, tgt = homotopy_slot_types(X, Y, i)
        prob.add_unknown(f"h{i}", hom_basis(src, tgt), (src.dim, tgt.dim))
    for i in range(n):
        rhs = phi.parts[i].mat - psi.parts[i].mat
        terms = [
            (f"h{i}", X.maps[i].mat, None, +1),
            (f"h{(i - 1) % n}", None, Y.map_mat(i - 1), +1),
        ]
        prob.add_equation(terms, rhs)
    sol, cert = prob.solve()
    if sol is None:
        return None, cert
    parts = []
    for i in range(n):
        src, tgt = homotopy_slot_types(X, Y, i)
        parts.append(ModuleMap(src, tgt, sol[f"h{i}"], check=False))
    return Homotopy(X, Y, parts), None


def is_contractible(X: PeriodicComplex) -> bool:
    h, _ = homotopy_between(ChainMap.identity(X), ChainMap.zero(X, X))
    return h is not None


def is_homotopy_equivalence(phi: ChainMap):
    """Solve jointly for an inverse-up-to-homotopy and both homotopies.

    Returns (psi, h_X, h_Y) with phi psi homotopic to id_X and psi phi
    homotopic to id_Y, or None.
    """
    X, Y = phi.source, phi.target
    F = X.susp.algebra.field
    n = X.n
    prob = LinearProblem(F)
    for i in range(n):
        prob.add_unknown(f"p{i}", hom_basis(Y.objects[i], X.objects[i]), (Y.objects[i].dim, X.objects[i].dim))
    for i in range(n):
        src, tgt = homotopy_slot_types(X, X, i)
        prob.add_unknown(f"hx{i}", hom_basis(src, tgt), (src.dim, tgt.dim))
    for i in range(n):
        src, tgt = homotopy_slot_types(Y, Y, i)
        prob.add_unknown(f"hy{i}", hom_basis(src, tgt), (src.dim, tgt.dim))
    # psi is a chain map
    for i in range(n):
        terms = [
            (f"p{(i + 1) % n}", Y.maps[i].mat, None, +1),
            (f"p{i}", None, X.maps[i].mat, -1),
        ]
        prob.add_equation(terms, Mat.zeros(F, Y.objects[i].dim, X.objects[(i + 1) % n].dim))
    # phi psi - id_X is the boundary of hx
    for i in range(n):
        terms = [
            (f"p{i}", phi.parts[i].mat, None, +1),
            (f"hx{i}", X.maps[i].mat, None, -1),
            (f"hx{(i - 1) % n}", None, X.map_mat(i - 1), -1),
        ]
        prob.add_equation(terms, Mat.identity(F, X.objects[i].dim))
    # psi phi - id_Y is the boundary of hy
    for i in range(n):
        terms = [
            (f"p{i}", None, phi.parts[i].mat, +1),
            (f"hy{i}", Y.maps[i].mat, None, -1),
            (f"hy{(i - 1) % n}", None, Y.map_mat(i - 1), -1),
        ]
        prob.add_equation(terms, Mat.identity(F, Y.objects[i].dim))
    sol, cert = prob.solve()
    if sol is None:
        return None
    psi = ChainMap(Y, X, [ModuleMap(Y.objects[i], X.objects[i], sol[f"p{i}"], check=False) for i in range(n)], check=False)
    hx_parts = []
    for i in range(n):
        src, tgt = homotopy_slot_types(X, X, i)
        hx_parts.append(ModuleMap(src, tgt, sol[f"hx{i}"], check=False))
    hy_parts = []
    for i in range(n):
        src, tgt = homotopy_slot_types(Y, Y, i)
        hy_parts.append(ModuleMap(src, tgt, sol[f"hy{i}"], check=False))
    return psi, Homotopy(X, X, hx_parts), Homotopy(Y, Y, hy_parts)


def mapping_cone(phi: ChainMap) -> PeriodicComplex:
    """Slots X_{i+1} (+) Y_i with the 2x2 block maps (signs included)."""
    X, Y = phi.source, phi.target
    susp = X.susp
    F = susp.algebra.field
    n = X.n
    objects = []
    for i in range(n):
        S, _, _ = direct_sum_modules([X.shifted_object(i + 1), Y.objects[i]])
        objects.append(S)
    maps = []
    for i in range(n):
        xdim = X.shifted_object(i + 1).dim
        xdim2 = X.objects[(i + 2) % n].dim
        ydim = Y.objects[i].dim
        ydim2 = Y.objects[(i + 1) % n].dim
        grid = [
            [-X.map_mat(i + 1), phi.part_mat(i + 1)],
            [None, Y.maps[i].mat],
        ]
        mat = Mat.block(F, grid, [xdim, ydim], [xdim2, ydim2])
        tgt = objects[i + 1] if i < n - 1 else susp.apply_module(objects[0])
        maps.append(ModuleMap(objects[i], tgt, mat, check=False))
    return PeriodicComplex(susp, objects, maps)


def z1(X: PeriodicComplex):
    """(ker f_1, inclusion into the first slot)."""
    return kernel(X.maps[0])


def z1_of_chain(phi: ChainMap) -> ModuleMap:
    """The induced map on kernels of the first maps."""
    M, inclX = z1(phi.source)
    N, inclY = z1(phi.target)
    sol = solve_xa_b(inclY.mat, inclX.mat @ phi.parts[0].mat)
    if sol is None:
        raise ComplexError("chain map does not induce a map on kernels")
    return ModuleMap(M, N, sol, check=False)


def chain_map_solve(X: PeriodicComplex, Y: PeriodicComplex, constraints):
    """Solve for a chain map X -> Y with extra linear constraints.

    constraints is a list of (slot, L, R, rhs) demanding L @ phi_slot @ R = rhs.
    Returns (ChainMap, None) or (None, cert).
    """
    F = X.susp.algebra.field
    n = X.n
    prob = LinearProblem(F)
    for i in range(n):
        prob.add_unknown(f"c{i}", hom_basis(X.objects[i], Y.objects[i]), (X.objects[i].dim, Y.objects[i].dim))
    for i in range(n):
        terms = [
            (f"c{(i + 1) % n}", X.maps[i].mat, None, +1),
            (f"c{i}", None, Y.maps[i].mat, -1),
        ]
        prob.add_equation(terms, Mat.zeros(F, X.objects[i].dim, Y.objects[(i + 1) % n].dim))
    for slot, L, R, rhs in constraints:
        prob.add_equation([(f"c{slot}", L, R, +1)], rhs)
    sol, cert = prob.solve()
    if sol is None:
        return None, cert
    parts = [ModuleMap(X.objects[i], Y.objects[i], sol[f"c{i}"], check=False) for i in range(n)]
    return ChainMap(X, Y, parts, check=False), None


def coboundary_chain_map(X: PeriodicComplex, Y: PeriodicComplex, t_parts) -> ChainMap:
    """The chain map with components f_i t_i + t_{i-1} g_{i-1} (null-homotopic)."""
    h = Homotopy(X, Y, t_parts)
    parts = []
    for i in range(X.n):
        parts.append(ModuleMap(X.objects[i], Y.objects[i], h.boundary_mat(i), check=False))
    return ChainMap(X, Y, parts, check=False)


def reduce_stably_zero(phi: ChainMap):
    """Push a chain map with stably-zero kernel part into the shape (0,..,0,*).

    Returns (reduced ChainMap, witnessing Homotopy).  Requires the induced map
    on Z_1 to factor through a projective; raises ComplexError otherwise.
    """
    X, Y = phi.source, phi.target
    susp = X.susp
    F = susp.algebra.field
    n = X.n
    h = z1_of_chain(phi)
    kappa = stable_zero_witness(h)
    if kappa is None:
        raise ComplexError("kernel-level map is not stably zero")
    M, inclX = z1(X)
    N, inclY = z1(Y)
    zero_t = [ModuleMap.zero(*homotopy_slot_types(X, Y, i)) for i in range(n)]
    if M.dim > 0:
        I_M, mono = injective_envelope(M)
        # alpha~: extend the envelope mono along the kernel inclusion
        alpha = _solve_extension(inclX.mat, mono.mat, X.objects[0], I_M)
        # pi: corestriction of the wrap map of Y onto Sigma N
        pi = solve_pi(Y, inclY)
        # beta~: lift Sigma kappa along pi (the suspended envelope is projective)
        beta = _solve_lift(pi, kappa.mat, susp.apply_module(I_M), Y.objects[n - 1])
        t_mat = alpha @ beta
        src, tgt = homotopy_slot_types(X, Y, n - 1)
        t_parts = list(zero_t)
        t_parts[n - 1] = ModuleMap(src, tgt, t_mat, check=False)
        delta = coboundary_chain_map(X, Y, t_parts)
        cur = phi - delta
        used = t_parts
    else:
        cur = phi
        used = list(zero_t)
    # clear slots 0..n-2 with successive coboundaries
    for i in range(n - 1):
        ci = cur.parts[i]
        if ci.is_zero():
            continue
        src, tgt = homotopy_slot_types(X, Y, i)
        s_mat = _solve_factor(X.maps[i].mat, ci.mat, src, tgt)
        s_parts = [ModuleMap.zero(*homotopy_slot_types(X, Y, j)) for j in range(n)]
        s_parts[i] = ModuleMap(src, tgt, s_mat, check=False)
        cur = cur - coboundary_chain_map(X, Y, s_parts)
        used[i] = used[i] + s_parts[i]
    if any(not cur.parts[i].is_zero() for i in range(n - 1)):
        raise ComplexError("reduction failed to clear a slot")
    witness = Homotopy(X, Y, used)
    return cur, witness


def solve_pi(Y: PeriodicComplex, inclY: ModuleMap) -> Mat:
    """pi with pi @ (Sigma incl) = wrap map of Y; needs Y exact at the seam."""
    pi = solve_xa_b(inclY.mat, Y.maps[Y.n - 1].mat)
    if pi is None:
        raise ComplexError("wrap map does not corestrict onto the suspended kernel")
    return pi


def _solve_extension(incl_mat: Mat, target_mat: Mat, domain: Module, codomain: Module) -> Mat:
    """U in Hom(domain, codomain) with incl_mat @ U = target_mat."""
    F = domain.algebra.field
    prob = LinearProblem(F)
    prob.add_unknown("u", hom_basis(domain, codomain), (domain.dim, codomain.dim))
    prob.add_equation([("u", incl_mat, None, +1)], target_mat)
    sol, cert = prob.solve()
    if sol is None:
        raise ComplexError("injectivity extension unexpectedly failed")
    return sol["u"]


def _solve_lift(pi: Mat, rhs: Mat, domain: Module, codomain: Module) -> Mat:
    """U in Hom(domain, codomain) with U @ pi = rhs."""
    F = domain.algebra.field
    prob = LinearProblem(F)
    prob.add_unknown("u", hom_basis(domain, codomain), (domain.dim, codomain.dim))
    prob.add_equation([("u", None, pi, +1)], rhs)
    sol, cert = prob.solve()
    if sol is None:
        raise ComplexError("projectivity lift unexpectedly failed")
    return sol["u"]


def _solve_factor(f_mat: Mat, rhs: Mat, domain: Module, codomain: Module) -> Mat:
    """U in Hom(domain, codomain) with f_mat @ U = rhs (factor through image)."""
    F = domain.algebra.field
    prob = LinearProblem(F)
    prob.add_unknown("u", hom_basis(domain, codomain), (domain.dim, codomain.dim))
    prob.add_equation([("u", f_mat, None, +1)], rhs)
    sol, cert = prob.solve()
    if sol is None:
        raise ComplexError("slot clearing unexpectedly failed")
    return sol["u"]


def find_complex_isomorphism(X: PeriodicComplex, Y: PeriodicComplex, attempts=200, rng=None):
    """Search for a degreewise-invertible chain map X -> Y (None if not found).

    Solves the chain-map space once, then scans deterministic combinations of
    the solution space for a degreewise iso; exhaustive over tiny fields.
    """
    if X.dims() != Y.dims() or X.susp != Y.susp:
        return None
    F = X.susp.algebra.field
    n = X.n
    # basis of the space of chain maps, via the homogeneous global system
    prob = LinearProblem(F)
    for i in range(n):
        prob.add_unknown(f"c{i}", hom_basis(X.objects[i], Y.objects[i]), (X.objects[i].dim, Y.objects[i].dim))
    for i in range(n):
        terms = [
            (f"c{(i + 1) % n}", X.maps[i].mat, None, +1),
            (f"c{i}", None, Y.maps[i].mat, -1),
        ]
        prob.add_equation(terms, Mat.zeros(F, X.objects[i].dim, Y.objects[(i + 1) % n].dim))
    # assemble the homogeneous solution space by reusing solve on zero rhs:
    # collect kernel of the assembled system
    offsets = []
    total = 0
    for name, basis, shape in prob.unknowns:
        offsets.append(total)
        total += len(basis)
    rows = []
    for terms, rhs in prob.equations:
        m, nn = rhs.nrows, rhs.ncols
        eq_rows = [[F.zero] * total for _ in range(m * nn)]
        for name, L, R, sign in terms:
            k = prob.index[name]
            _, basis, shape = prob.unknowns[k]
            off = offsets[k]
            for bi, e in enumerate(basis):
                contrib = e.mat
                if L is not None:
                    contrib = L @ contrib
                if R is not None:
                    contrib = contrib @ R
                flat = contrib.flatten()
                col = off + bi
                for r, v in enumerate(flat):
                    if v != F.zero:
                        eq_rows[r][col] = F.add(eq_rows[r][col], v) if sign > 0 else F.sub(eq_rows[r][col], v)
        rows.extend(eq_rows)
    from .linalg import null_right, PrimeField

    K = null_right(Mat(F, rows, total))
    dim_sol = K.ncols

    def vector_to_chain(vec):
        parts = []
        for (name, basis, shape), off in zip(prob.unknowns, offsets):
            acc = Mat.zeros(F, shape[0], shape[1])
            for bi, e in enumerate(basis):
                c = vec[off + bi]
                if c != F.zero:
                    acc = acc + e.mat.scale(c)
            parts.append(acc)
        return parts

    candidates = []
    if isinstance(F, PrimeField) and F.p**dim_sol <= 4096:
        import itertools

        for coeffs in itertools.product(range(F.p), repeat=dim_sol):
            candidates.append(coeffs)
    else:
        import random

        r = rng or random.Random(0)
        for _ in range(attempts):
            candidates.append(tuple(F.of_int(r.randrange(max(F.p, 7))) for _ in range(dim_sol)))
    for coeffs in candidates:
        if all(c == F.zero for c in coeffs):
            continue
        vec = [F.zero] * total
        for j in range(dim_sol):
            if coeffs[j] != F.zero:
                for r in range(total):
                    vec[r] = F.add(vec[r], F.mul(coeffs[j], K.rows[r][j]))
        mats = vector_to_chain(vec)
        if all(m.nrows == m.ncols and m.is_invertible() for m in mats):
            parts = [ModuleMap(X.objects[i], Y.objects[i], mats[i], check=False) for i in range(n)]
            return ChainMap(X, Y, parts, check=False)
    return None
