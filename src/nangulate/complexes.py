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

from .linalg import Mat, solve_xa_b
from .algebras import (
    Automorphism,
    LinearProblem,
    Module,
    ModuleMap,
    direct_sum_modules,
    hom_basis,
    kernel,
    solve_in_hom,
)
from .bimodules import twist_module
from .structure import injective_envelope, is_projective, stable_zero_witness

class ComplexError(ValueError):
    pass


class Suspension:
    """The ambient (A, sigma) fixing the suspension of modules and maps."""

    def __init__(self, algebra, sigma: Automorphism | None = None):
        self.algebra = algebra
        self.sigma = sigma if sigma is not None else Automorphism.identity(algebra)
        self._is_identity = self.sigma.is_identity()
        self._inv = self.sigma if self._is_identity else self.sigma.inverse()

    @staticmethod
    def identity(algebra) -> "Suspension":
        """The one identity suspension of this algebra object."""
        key = "identity_suspension"
        if key not in algebra._cache:
            algebra._cache[key] = Suspension(algebra)
        return algebra._cache[key]

    def is_identity(self) -> bool:
        return self._is_identity

    def apply_module(self, M: Module) -> Module:
        if self.is_identity():
            return M
        return twist_module(M, self._inv)

    def unapply_module(self, M: Module) -> Module:
        if self.is_identity():
            return M
        return twist_module(M, self.sigma)

    def __eq__(self, other):
        if self is other:
            return True
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
            if not is_projective(X):
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


def _add_homotopy(prob, X: PeriodicComplex, Y: PeriodicComplex, name):
    """Add unknowns name0..name{n-1}, name_i in Hom(X_{i+1}, Y_i).

    Returns boundary(i, sign): the terms sign * (f_i h_i + h_{i-1} g_{i-1})
    of slot i, the wraparound h_{n+i} = Sigma h_i reusing the slot-(n-1)
    unknown in slot 0.
    """
    n = X.n
    for i in range(n):
        src, tgt = homotopy_slot_types(X, Y, i)
        prob.add_unknown(f"{name}{i}", hom_basis(src, tgt), (src.dim, tgt.dim))

    def boundary(i, sign):
        return [
            (f"{name}{i}", X.maps[i].mat, None, sign),
            (f"{name}{(i - 1) % n}", None, Y.map_mat(i - 1), sign),
        ]

    return boundary


def _homotopy_from(sol, X: PeriodicComplex, Y: PeriodicComplex, name) -> Homotopy:
    parts = []
    for i in range(X.n):
        src, tgt = homotopy_slot_types(X, Y, i)
        parts.append(ModuleMap(src, tgt, sol[f"{name}{i}"], check=False))
    return Homotopy(X, Y, parts)


def chain_map_problem(X: PeriodicComplex, Y: PeriodicComplex, fixed=None) -> LinearProblem:
    """The system of chain maps X -> Y, with unknowns c0..c{n-1}.

    Square i reads f_i c_{i+1} - c_i g_i = 0, the last one closed by
    Sigma c_0.  fixed maps a slot to a known component (a ModuleMap): it
    gets no unknown, its terms move to the right-hand side, and squares
    whose components are all fixed are left out.
    """
    fixed = fixed or {}
    F = X.susp.algebra.field
    n = X.n
    prob = LinearProblem(F)
    for i in range(n):
        if i not in fixed:
            prob.add_unknown(f"c{i}", hom_basis(X.objects[i], Y.objects[i]), (X.objects[i].dim, Y.objects[i].dim))
    for i in range(n):
        j = (i + 1) % n
        terms = []
        rhs = Mat.zeros(F, X.objects[i].dim, Y.objects[j].dim)
        if j in fixed:
            rhs = rhs - X.maps[i].mat @ fixed[j].mat
        else:
            terms.append((f"c{j}", X.maps[i].mat, None, +1))
        if i in fixed:
            rhs = rhs + fixed[i].mat @ Y.maps[i].mat
        else:
            terms.append((f"c{i}", None, Y.maps[i].mat, -1))
        if terms:
            prob.add_equation(terms, rhs)
    return prob


def chain_map_from(sol, X: PeriodicComplex, Y: PeriodicComplex, fixed=None) -> ChainMap:
    """The ChainMap read off a solution of chain_map_problem(X, Y, fixed)."""
    fixed = fixed or {}
    parts = [
        fixed[i] if i in fixed else ModuleMap(X.objects[i], Y.objects[i], sol[f"c{i}"], check=False)
        for i in range(X.n)
    ]
    return ChainMap(X, Y, parts, check=False)


def homotopy_between(phi: ChainMap, psi: ChainMap):
    """Solve for an n-Sigma-homotopy from phi to psi.

    Returns (Homotopy, None) or (None, certificate).  One global system: the
    wraparound h_{n+i} = Sigma h_i identifies the slot-(n-1) unknown matrix
    with its suspended reuse in the slot-0 equation.
    """
    X, Y = phi.source, phi.target
    if psi.source != X or psi.target != Y:
        raise ComplexError("homotopy endpoints mismatch")
    prob = LinearProblem(X.susp.algebra.field)
    boundary = _add_homotopy(prob, X, Y, "h")
    for i in range(X.n):
        prob.add_equation(boundary(i, +1), phi.parts[i].mat - psi.parts[i].mat)
    sol, cert = prob.solve()
    if sol is None:
        return None, cert
    return _homotopy_from(sol, X, Y, "h"), None


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
    # psi: Y -> X is a chain map
    prob = chain_map_problem(Y, X)
    hx = _add_homotopy(prob, X, X, "hx")
    hy = _add_homotopy(prob, Y, Y, "hy")
    # phi psi - id_X is the boundary of hx
    for i in range(X.n):
        prob.add_equation([(f"c{i}", phi.parts[i].mat, None, +1)] + hx(i, -1), Mat.identity(F, X.objects[i].dim))
    # psi phi - id_Y is the boundary of hy
    for i in range(X.n):
        prob.add_equation([(f"c{i}", None, phi.parts[i].mat, +1)] + hy(i, -1), Mat.identity(F, Y.objects[i].dim))
    sol, _ = prob.solve(want_cert=False)
    if sol is None:
        return None
    return chain_map_from(sol, Y, X), _homotopy_from(sol, X, X, "hx"), _homotopy_from(sol, Y, Y, "hy")


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


def coboundary_chain_map(X: PeriodicComplex, Y: PeriodicComplex, t_parts) -> ChainMap:
    """The chain map with components f_i t_i + t_{i-1} g_{i-1} (null-homotopic)."""
    h = Homotopy(X, Y, t_parts)
    parts = []
    for i in range(X.n):
        parts.append(ModuleMap(X.objects[i], Y.objects[i], h.boundary_mat(i), check=False))
    return ChainMap(X, Y, parts, check=False)


def kappa_homotopy(X: PeriodicComplex, inclX: ModuleMap, Y: PeriodicComplex, inclY: ModuleMap, kappa: Mat):
    """Homotopy parts (0, .., 0, alpha beta) whose coboundary realises kappa.

    kappa: I_M -> N is a map from the injective envelope of M = Z_1 X to
    N = Z_1 Y.  alpha extends the envelope mono along inclX, beta lifts
    Sigma kappa along the corestriction pi of Y's wrap map onto Sigma N (the
    suspended envelope is projective); the coboundary's slot-0 part then
    restricts on M to mono kappa.
    """
    n = X.n
    I_M, mono = injective_envelope(inclX.source)
    alpha = solve_in_hom(X.objects[0], I_M, inclX.mat, None, mono.mat)
    if alpha is None:
        raise ComplexError("injectivity extension unexpectedly failed")
    pi = solve_pi(Y, inclY)
    beta = solve_in_hom(X.susp.apply_module(I_M), Y.objects[n - 1], None, pi, kappa)
    if beta is None:
        raise ComplexError("projectivity lift unexpectedly failed")
    parts = [ModuleMap.zero(*homotopy_slot_types(X, Y, i)) for i in range(n)]
    src, tgt = homotopy_slot_types(X, Y, n - 1)
    parts[n - 1] = ModuleMap(src, tgt, alpha @ beta, check=False)
    return parts


def reduce_stably_zero(phi: ChainMap):
    """Push a chain map with stably-zero kernel part into the shape (0,..,0,*).

    Returns (reduced ChainMap, witnessing Homotopy).  Requires the induced map
    on Z_1 to factor through a projective; raises ComplexError otherwise.
    """
    X, Y = phi.source, phi.target
    n = X.n
    h = z1_of_chain(phi)
    kappa = stable_zero_witness(h)
    if kappa is None:
        raise ComplexError("kernel-level map is not stably zero")
    M, inclX = z1(X)
    N, inclY = z1(Y)
    if M.dim > 0:
        used = kappa_homotopy(X, inclX, Y, inclY, kappa.mat)
        cur = phi - coboundary_chain_map(X, Y, used)
    else:
        cur = phi
        used = [ModuleMap.zero(*homotopy_slot_types(X, Y, i)) for i in range(n)]
    # clear slots 0..n-2 with successive coboundaries
    for i in range(n - 1):
        ci = cur.parts[i]
        if ci.is_zero():
            continue
        src, tgt = homotopy_slot_types(X, Y, i)
        s_mat = solve_in_hom(src, tgt, X.maps[i].mat, None, ci.mat)
        if s_mat is None:
            raise ComplexError("slot clearing unexpectedly failed")
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
