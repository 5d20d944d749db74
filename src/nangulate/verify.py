"""Randomized constructive verification of the four axioms on a context.

Every check is an instance-level construction followed by an exact decision:
memberships are certified solver verdicts, completions are built and then
re-checked, nothing is sampled from the answer side.  All randomness flows
from one seeded generator, so reports are reproducible byte for byte.
"""

from __future__ import annotations

import random

from .linalg import Mat, linear_combination
from .algebras import Module, ModuleMap, direct_sum_modules, hom_basis, submodule_from_rows
from .structure import projective_indecomposables
from .complexes import (
    ComplexError,
    PeriodicComplex,
    conjugate_complex,
    direct_sum_complexes,
    disk_complex,
    mapping_cone,
    rotate_left,
    trivial_complex,
    z1,
)
from .engine import AngulationContext, EngineError, r_u_complex


class Sampler:
    """Seed-deterministic source of modules, members and maps for a context."""

    def __init__(self, ctx: AngulationContext, rng: random.Random, max_gens=2):
        self.ctx = ctx
        self.rng = rng
        self.max_gens = max_gens
        A = ctx.algebra
        self._projectives = [P for _, P, _, _, _ in projective_indecomposables(A)]

    def random_projective(self) -> Module:
        # keep slot sizes proportionate: summing projectives is cheap over
        # dim-2 algebras but hom systems grow quartically with slot size
        count = self.rng.randint(1, 2) if self.ctx.algebra.dim <= 2 else 1
        parts = [self.rng.choice(self._projectives) for _ in range(count)]
        if len(parts) == 1:
            return parts[0]
        S, _, _ = direct_sum_modules(parts)
        return S

    def random_vector(self, dim):
        F = self.ctx.algebra.field
        p = getattr(F, "p", 0) or 7
        return [F.of_int(self.rng.randrange(p)) for _ in range(dim)]

    def random_module(self) -> Module:
        A = self.ctx.algebra
        base = self.random_projective()
        style = self.rng.random()
        if style < 0.2:
            return base
        rows = Mat(A.field, [self.random_vector(base.dim) for _ in range(self.rng.randint(1, 2))], base.dim)
        S, incl = submodule_from_rows(base, rows)
        if style < 0.6:
            return S
        from .algebras import quotient_by_rows

        Q, _ = quotient_by_rows(base, incl.mat)
        return Q

    def random_hom(self, M: Module, N: Module) -> ModuleMap:
        """sum c_b * b over hom_basis(M, N), one draw c_b per basis map in order."""
        F = self.ctx.algebra.field
        terms = [(F.of_int(self.rng.randrange(F.p or 7)), b.mat) for b in hom_basis(M, N)]
        return ModuleMap(M, N, linear_combination(F, M.dim, N.dim, terms), check=False)

    def random_slot_auto(self, M: Module) -> ModuleMap:
        ident = ModuleMap.identity(M)
        for _ in range(4):
            cand = ident + self.random_hom(M, M)
            if cand.mat.is_invertible():
                return cand
        return ident

    def random_member(self, conjugate=True) -> PeriodicComplex:
        ctx = self.ctx
        M = self.random_module()
        try:
            T, _ = ctx.resolve(M)
        except ComplexError:
            # a forced semisimple-mode class only resolves projectives: its
            # disk complex refuses a non-projective slot
            if not ctx.forced:
                raise
            M = self.random_projective()
            T, _ = ctx.resolve(M)
        X = T
        if self.rng.random() < 0.5:
            P = self.random_projective()
            slot = self.rng.randrange(ctx.n)
            X = direct_sum_complexes(X, disk_complex(ctx.susp, ctx.susp.apply_module(P) if slot == ctx.n - 1 else P, ctx.n, slot))
        if conjugate and self.rng.random() < 0.6:
            isos = [self.random_slot_auto(obj) for obj in X.objects]
            X = conjugate_complex(X, isos)
        return X

    def random_non_member(self) -> PeriodicComplex:
        """A non-exact sequence (never a member)."""
        ctx = self.ctx
        n = ctx.n
        P = self.random_projective()
        objects = [P] * n
        maps = []
        for i in range(n):
            tgt = objects[i + 1] if i < n - 1 else ctx.susp.apply_module(objects[0])
            maps.append(ModuleMap.zero(objects[i], tgt))
        return PeriodicComplex(ctx.susp, objects, maps)


def _counterexample(kind, note, X=None):
    out = {"kind": kind, "note": note, "angle": None}
    if X is not None:
        from . import io as nio

        out["dims"] = list(X.dims())
        out["angle"] = nio.complex_to_json(X)
    return out


class AxiomReport:
    def __init__(self, context_info, seed, samples):
        self.context_info = context_info
        self.seed = seed
        self.samples = samples
        self.axioms = {}

    def record(self, axiom, passed, instances, counterexample=None):
        self.axioms[axiom] = {
            "pass": passed,
            "instances": instances,
            "counterexample": counterexample,
        }

    @property
    def passed(self) -> bool:
        return all(a["pass"] for a in self.axioms.values())

    def to_dict(self):
        return {
            "context": self.context_info,
            "seed": self.seed,
            "samples": self.samples,
            "axioms": self.axioms,
            "pass": self.passed,
        }


def context_info(ctx: AngulationContext):
    A = ctx.algebra
    return {
        "field": A.field.name,
        "algebra_dim": A.dim,
        "n": ctx.n,
        "mode": ctx.mode,
        "forced": ctx.forced,
        "sigma": "id" if ctx.susp.is_identity() else [[A.field.fmt(a) for a in row] for row in ctx.susp.sigma.mat.rows],
        "pretwist": None if ctx.pretwist is None else [A.field.fmt(a) for a in ctx.pretwist],
    }


def verify_axioms(ctx: AngulationContext, samples=25, seed=0) -> AxiomReport:
    rng = random.Random(seed)
    report = AxiomReport(context_info(ctx), seed, samples)
    sampler = Sampler(ctx, rng)

    # N1(b): trivial sequences belong to the class
    failure = None
    count = 0
    for _ in range(samples):
        P = sampler.random_projective()
        T = trivial_complex(ctx.susp, P, ctx.n)
        count += 1
        if not ctx.check_membership(T).verdict:
            failure = _counterexample("N1b", "trivial sequence rejected", T)
            break
    report.record("N1b", failure is None, count, failure)

    # N1(a): sums, summands and isomorphs of members stay members
    failure = None
    count = 0
    for _ in range(samples):
        X = sampler.random_member(conjugate=False)
        Y = sampler.random_member(conjugate=False)
        S = direct_sum_complexes(X, Y)
        count += 1
        if not ctx.check_membership(S).verdict:
            failure = _counterexample("N1a", "direct sum rejected", S)
            break
        if not ctx.check_membership(X).verdict:
            failure = _counterexample("N1a", "summand rejected", X)
            break
        isos = [sampler.random_slot_auto(obj) for obj in S.objects]
        Si = conjugate_complex(S, isos)
        if not ctx.check_membership(Si).verdict:
            failure = _counterexample("N1a", "isomorph rejected", Si)
            break
    report.record("N1a", failure is None, count, failure)

    # N1(c): every morphism of projectives starts a member
    failure = None
    count = 0
    for _ in range(samples):
        P = sampler.random_projective()
        Q = sampler.random_projective()
        f = sampler.random_hom(P, Q)
        count += 1
        try:
            X = ctx.complete_first_map(f)
        except EngineError as exc:
            failure = _counterexample("N1c", f"no completion: {exc}")
            break
        if X.maps[0].mat != f.mat:
            failure = _counterexample("N1c", "completion does not start with the map", X)
            break
        if not ctx.check_membership(X).verdict:
            failure = _counterexample("N1c", "completion rejected by membership", X)
            break
    report.record("N1c", failure is None, count, failure)

    # N2: members rotate to members; non-members stay out
    failure = None
    count = 0
    for _ in range(samples):
        X = sampler.random_member()
        count += 1
        rot = rotate_left(X)
        if not ctx.check_membership(rot).verdict:
            failure = _counterexample("N2", "left rotation of a member rejected", rot)
            break
        bad = sampler.random_non_member()
        if bad.objects[0].dim and ctx.check_membership(rotate_left(bad)).verdict:
            failure = _counterexample("N2", "rotation of a non-member accepted", bad)
            break
    report.record("N2", failure is None, count, failure)

    # N3 and N4: completion of commuting squares, cones staying inside
    n3_failure = None
    n4_failure = None
    n3_count = n4_count = 0
    for _ in range(samples):
        X = sampler.random_member(conjugate=False)
        Y = sampler.random_member(conjugate=False)
        MX, _ = z1(ctx._twist_first(X))
        MY, _ = z1(ctx._twist_first(Y))
        h = sampler.random_hom(MX, MY)
        try:
            base = ctx.lift_morphism(h, X, Y)
        except EngineError as exc:
            # X and Y are sampled members, so every kernel map lifts
            raise ComplexError(f"lift between sampled members failed: {exc}") from exc
        u = sampler.random_hom(X.objects[1], Y.objects[0])
        w = sampler.random_hom(X.objects[2], Y.objects[1])
        phi0 = base.parts[0] + ModuleMap(
            X.objects[0], Y.objects[0], X.maps[0].mat @ u.mat, check=False
        )
        phi1 = base.parts[1] + ModuleMap(
            X.objects[1], Y.objects[1], u.mat @ Y.maps[0].mat + X.maps[1].mat @ w.mat, check=False
        )
        if n3_failure is None:
            n3_count += 1
            comp = ctx.complete_to_chain_map(X, Y, phi0, phi1)
            if comp is None:
                n3_failure = _counterexample("N3", "square completion unsolvable", X)
        if n4_failure is None:
            n4_count += 1
            try:
                psi = ctx.cone_completion(X, Y, phi0, phi1)
                cone = mapping_cone(psi)
                if not ctx.check_membership(cone).verdict:
                    n4_failure = _counterexample("N4", "mapping cone rejected", cone)
            except EngineError as exc:
                n4_failure = _counterexample("N4", f"cone completion failed: {exc}")
    report.record("N3", n3_failure is None, n3_count, n3_failure)
    report.record("N4", n4_failure is None, n4_count, n4_failure)
    return report


def split_mono_survey(ctx: AngulationContext, samples=100, seed=0):
    """Check the split-mono three-way equivalence on sampled members."""
    rng = random.Random(seed)
    sampler = Sampler(ctx, rng)
    violations = []
    for k in range(samples):
        X = sampler.random_member()
        res = ctx.split_mono_test(X)
        if not res["consistent"]:
            violations.append({"sample": k, "dims": list(X.dims()), "result": res})
    return violations


def local_ring_existence(p: int, n: int) -> bool:
    """The parity rule: an n-angulation of (proj R, Id) exists for R = F_p[x]/(x^2).

    It exists when n is even, or when n is odd and 2x = 0 (characteristic 2).
    """
    return n % 2 == 0 or p == 2


def unit_equivalence_table(A, n: int):
    """For each pair of scalar units (u, v): is R(u) homotopy equivalent to R(v)?

    Decided through membership in the class generated by R(u); the algebraic
    oracle is u*x == v*x.
    """
    from .engine import build_context

    F = A.field
    units = list(range(1, F.p))
    table = {}
    for u in units:
        uu = tuple(F.mul(F.of_int(u), a) for a in A.unit)
        ctx = build_context(A, n, "local-ring", unit=uu, force=True)
        for v in units:
            vv = tuple(F.mul(F.of_int(v), a) for a in A.unit)
            Rv = r_u_complex(A, vv, n)
            table[(u, v)] = ctx.check_membership(Rv).verdict
    return table
