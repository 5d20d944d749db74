"""The benchmark's workloads: input generation, set-up and the timed ops.

Every workload has three parts:

* ``generate(seed, tiny)`` runs in the generator process and returns
  JSON-ready inputs (algebras, angles, truth labels); ``tiny`` shrinks them
  for the smoke test.  It may warm any cache it likes: the timed process
  never sees them.
* ``setup(inputs)`` runs in the timed process and turns the inputs into a
  list of ``Op`` objects.  Its cost is part of ``setup_s``.
* ``Op.run()`` is the timed work; ``Op.check(value, known)`` runs after
  timing and returns a ``Check``.

The program is reached only through module attributes looked up at call
time (``engine.build_context``, ``nio.dumps``...), so that the span
recorders in ``tracing.py`` see every call the benchmark makes.
"""

from __future__ import annotations

import collections
import hashlib
import json
import random

from nangulate import builders, complexes, engine, verify
from nangulate import io as nio
from nangulate.algebras import Algebra
from nangulate.linalg import field_by_name


def digest(text: str) -> str:
    return hashlib.sha1(text.encode("utf-8")).hexdigest()


class Check:
    """Outcome of one op after timing.

    ``ops`` is the number of timed operations the op stands for (axiom
    instances for the suite, 1 otherwise); ``failed`` how many of them
    failed; ``verdict`` a deterministic record compared across passes and
    between the traced and untraced runs; ``cert`` the digest of a positive
    membership certificate, or None.
    """

    def __init__(self, ops, failed, verdict, note="", cert=None):
        self.ops = ops
        self.failed = failed
        self.verdict = verdict
        self.note = note
        self.cert = cert


class Op:
    def run(self):
        raise NotImplementedError

    def check(self, value, known):
        raise NotImplementedError

    def failed_check(self, exc):
        return Check(1, 1, "error", f"{type(exc).__name__}: {exc}")


# -- algebras ------------------------------------------------------------------


def nakayama_two_cycle(field_name: str) -> Algebra:
    """The selfinjective Nakayama algebra of the 2-cycle with rad^2 = 0.

    Basis e1, e2, a, b with e1 a e2 = a, e2 b e1 = b and ab = ba = 0, written
    as structure constants.  Its bimodule syzygy at n = 3 is a twisted
    bimodule with a non-trivial twist (the idempotents swap).
    """
    F = field_by_name(field_name)

    def unit_vector(i):
        v = [0, 0, 0, 0]
        v[i] = 1
        return v

    table = {
        (0, 0): unit_vector(0),
        (1, 1): unit_vector(1),
        (0, 2): unit_vector(2),
        (2, 1): unit_vector(2),
        (1, 3): unit_vector(3),
        (3, 0): unit_vector(3),
    }
    mult = [[table.get((i, j), [0, 0, 0, 0]) for j in range(4)] for i in range(4)]
    return Algebra(F, mult, [1, 1, 0, 0], ["e1", "e2", "a", "b"])


def _context_spec(algebra_index, ctx):
    spec = {"algebra": algebra_index, "n": ctx.n, "mode": ctx.mode, "force": ctx.forced}
    if ctx.mode == "local-ring":
        spec["unit"] = [ctx.algebra.field.fmt(c) for c in ctx.data["unit"]]
    return spec


def _build_contexts(inputs):
    algebras = [nio.algebra_from_json(a) for a in inputs["algebras"]]
    contexts = []
    for spec in inputs["contexts"]:
        A = algebras[spec["algebra"]]
        unit = None
        if "unit" in spec:
            unit = tuple(A.field.parse(c) for c in spec["unit"])
        contexts.append(engine.build_context(A, spec["n"], spec["mode"], unit=unit, force=spec["force"]))
    return contexts


# -- membership batches --------------------------------------------------------


class MembershipOp(Op):
    """One check_membership decision against a truth label fixed at generation."""

    def __init__(self, ctx, X, label):
        self.ctx = ctx
        self.X = X
        self.label = label

    def run(self):
        return self.ctx.check_membership(self.X)

    def check(self, cert, known):
        verdict = bool(cert.verdict)
        if verdict != self.label:
            return Check(1, 1, verdict, f"verdict {verdict} but label {self.label} ({cert.reason})")
        if not verdict:
            return Check(1, 0, verdict)
        parts = [p.mat.rows for p in cert.comparison.parts] + [p.mat.rows for p in cert.reverse.parts]
        cert_digest = digest(repr(parts))
        if cert_digest not in known and not cert.verify():
            return Check(1, 1, verdict, "positive certificate failed verify()", cert_digest)
        return Check(1, 0, verdict, "", cert_digest)


def _stratified_members(sampler, signatures, draws=20000):
    """Sampled members, one for each signature in the list, in its order.

    A signature is (slot dimensions, dimension of Z_1).  Decision cost grows
    steeply with both, so stratifying by signature keeps the cost of a batch
    the same from seed to seed.  The seed still picks the modules'
    presentations, the disk slots and every conjugating automorphism.  One
    stream of draws fills every signature's quota, and each kept member is
    conjugated slotwise once more, so that every member is conjugated.
    """
    quota = collections.Counter(signatures)
    found = collections.defaultdict(list)
    for _ in range(draws):
        if all(len(found[sig]) >= k for sig, k in quota.items()):
            break
        X = sampler.random_member()
        sig = (X.dims(), complexes.z1(X)[0].dim)
        if len(found[sig]) < quota[sig]:
            found[sig].append(complexes.conjugate_complex(X, [sampler.random_slot_auto(obj) for obj in X.objects]))
    else:
        missing = {sig: k - len(found[sig]) for sig, k in quota.items() if len(found[sig]) < k}
        raise RuntimeError(f"signatures still missing after {draws} draws: {missing}")
    return [found[sig].pop(0) for sig in signatures]


# Signatures of the large members of the F3[x]/(x^3), n=4 batch: T_M for a
# free M of rank one, then with a disk on the middle or on the wrapping
# slot pair.  SMALL is the summand added to form direct sums.  Verifying a
# positive certificate costs about four times its decision, which is what
# keeps this batch at twelve angles.
X3_SIGNATURES = [((9, 9, 9, 9), 3), ((9, 12, 12, 9), 3), ((12, 9, 9, 12), 6)]
X3_SMALL = ((3, 3, 3, 3), 1)
# The batch is drawn once, from this generation seed, and this workload
# ignores the run's seed (as the suite does).  Members of one signature are
# isomorphic from seed to seed, but the cost of deciding them depends on
# their random presentations and on the order in which the context's
# resolution cache meets their kernels: ten seeds gave batches whose
# decisions took 2.9 s to 3.9 s, and four orders of one batch 3.7 s to
# 4.2 s, measured interleaved on one machine.  Three large members a run
# cannot average that out.
X3_POPULATION_SEED = 0


def generate_member_f3_x3(seed, tiny=False):
    A = builders.truncated_polynomial_algebra("F3", 3)
    ctx = engine.build_context(A, 4, "quasi-periodic")
    sampler = verify.Sampler(ctx, random.Random(X3_POPULATION_SEED))
    signatures = X3_SIGNATURES[:1] if tiny else X3_SIGNATURES
    members = _stratified_members(sampler, [sig for s in signatures for sig in (s, X3_SMALL)])
    items = []
    for X, small in zip(members[::2], members[1::2]):
        items.append((X, True))
        items.append((complexes.rotate_left(X), True))
        items.append((complexes.direct_sum_complexes(X, small), True))
        items.append((sampler.random_non_member(), False))
    return {
        "algebras": [nio.algebra_to_json(A)],
        "contexts": [_context_spec(0, ctx)],
        "items": [[0, nio.complex_to_json(X), label] for X, label in items],
    }


# The most frequent small signatures of the F3[x]/(x^2), n=4 local-ring
# context, cycled through the groups; LOCAL_SMALL is the summand of the
# direct sums.
LOCAL_SIGNATURES = [
    ((2, 0, 0, 2), 2),
    ((2, 2, 2, 2), 1),
    ((2, 4, 4, 2), 2),
    ((4, 0, 0, 4), 4),
]
LOCAL_SMALL = ((2, 0, 0, 2), 2)
LOCAL_GROUPS = 200


def generate_member_f3_local(seed, tiny=False):
    A = builders.dual_numbers("F3")
    ctx4 = engine.build_context(A, 4, "local-ring")
    ctx3 = engine.build_context(A, 3, "local-ring", force=True)
    rng = random.Random(seed)
    s4 = verify.Sampler(ctx4, rng)
    s3 = verify.Sampler(ctx3, rng)
    r1 = engine.r_u_complex(A, A.unit, 3, susp=ctx3.susp)
    groups = 17 if tiny else LOCAL_GROUPS  # tiny still gives >= 100 ops, so op_p90_ms is printed
    signatures = [sig for g in range(groups) for sig in (LOCAL_SIGNATURES[g % len(LOCAL_SIGNATURES)], LOCAL_SMALL)]
    members = _stratified_members(s4, signatures)
    items = []
    for X, small in zip(members[::2], members[1::2]):
        items.append((0, X, True))
        items.append((0, complexes.rotate_left(X), True))
        items.append((0, complexes.direct_sum_complexes(X, small), True))
        items.append((0, s4.random_non_member(), False))
        # forced n=3 negative control: conjugates of R(1) are members of the
        # class R(1) generates, their left rotations (R(-1) up to
        # isomorphism, and -1 != 1 in F3) are not
        C = complexes.conjugate_complex(r1, [s3.random_slot_auto(obj) for obj in r1.objects])
        items.append((1, C, True))
        items.append((1, complexes.rotate_left(C), False))
    return {
        "algebras": [nio.algebra_to_json(A)],
        "contexts": [_context_spec(0, ctx4), _context_spec(0, ctx3)],
        "items": [[k, nio.complex_to_json(X), label] for k, X, label in items],
    }


def setup_membership(inputs):
    contexts = _build_contexts(inputs)
    ops = []
    for k, angle, label in inputs["items"]:
        ctx = contexts[k]
        ops.append(MembershipOp(ctx, nio.complex_from_json(ctx.algebra, angle), label))
    return ops


# -- axiom suite ---------------------------------------------------------------


class SuiteOp(Op):
    """One verify_axioms call; its ops are the axiom instances it reports."""

    def __init__(self, ctx, samples, seed):
        self.ctx = ctx
        self.samples = samples
        self.seed = seed

    def run(self):
        return verify.verify_axioms(self.ctx, samples=self.samples, seed=self.seed)

    def check(self, report, known):
        instances = sum(a["instances"] for a in report.axioms.values())
        failing = sorted(name for name, a in report.axioms.items() if not a["pass"])
        text = nio.dumps(report.to_dict())
        note = f"axioms failed: {', '.join(failing)}" if failing else ""
        return Check(instances, len(failing), digest(text), note)


# verify_axioms samples its own instances, and their size (so the call's
# cost) varies tenfold between verify seeds on this family.  Ten runs on ten
# verify seeds could not agree within any usable bound, so every run checks
# the same population: three samples at verify seed 2.
SUITE_SAMPLES = 3
SUITE_VERIFY_SEED = 2


def generate_suite_f2_x3(seed, tiny=False):
    A = builders.truncated_polynomial_algebra("F2", 3)
    return {
        "algebras": [nio.algebra_to_json(A)],
        "contexts": [{"algebra": 0, "n": 4, "mode": "quasi-periodic", "force": False}],
        "samples": 1 if tiny else SUITE_SAMPLES,
        "verify_seeds": [SUITE_VERIFY_SEED],
    }


def setup_suite(inputs):
    ctx = _build_contexts(inputs)[0]
    return [SuiteOp(ctx, inputs["samples"], s) for s in inputs["verify_seeds"]]


# -- context build and persistence ---------------------------------------------


class ContextBuildOp(Op):
    """build_context, then context_to_json -> dumps -> context_from_json."""

    def __init__(self, A, n):
        self.A = A
        self.n = n

    def run(self):
        ctx = engine.build_context(self.A, self.n, "quasi-periodic")
        text = nio.dumps(nio.context_to_json(ctx))
        reloaded = nio.context_from_json(json.loads(text))
        return text, reloaded

    def check(self, value, known):
        text, reloaded = value
        again = nio.dumps(nio.context_to_json(reloaded))
        if again != text:
            return Check(1, 1, digest(text), "reloaded context does not dump byte-identically")
        return Check(1, 0, digest(text))


def context_build_algebras():
    return [
        (builders.truncated_polynomial_algebra("F2", 4), 4),
        (builders.truncated_polynomial_algebra("F3", 4), 4),
        (builders.truncated_polynomial_algebra("F5", 4), 4),
        (builders.truncated_polynomial_algebra("Q", 3), 4),
        (nakayama_two_cycle("F3"), 3),
    ]


def generate_context_build(seed, tiny=False):
    algebras = context_build_algebras()[3:] if tiny else context_build_algebras()
    entries = [{"algebra": nio.algebra_to_json(A), "n": n} for A, n in algebras]
    random.Random(seed).shuffle(entries)
    return {"builds": entries}


def setup_context_build(inputs):
    return [ContextBuildOp(nio.algebra_from_json(e["algebra"]), e["n"]) for e in inputs["builds"]]


# -- registry ------------------------------------------------------------------


class Workload:
    def __init__(self, name, why, generate, setup, per_instance=False):
        self.name = name
        self.why = why
        self.generate = generate
        self.setup = setup
        self.per_instance = per_instance


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "suite-f2-x3",
            "verify_axioms on F2[x]/(x^3), n=4: the full N1-N4 path on large hom systems over the packed-bitset F2 kernel",
            generate_suite_f2_x3,
            setup_suite,
            per_instance=True,
        ),
        Workload(
            "member-f3-x3",
            "check_membership alone on large systems over the odd-p list kernel: F3[x]/(x^3), n=4, members, rotations, sums, non-members",
            generate_member_f3_x3,
            setup_membership,
        ),
        Workload(
            "member-f3-local",
            "thousands of tiny R(u) membership checks over F3[x]/(x^2) with hot caches, plus the forced n=3 control: shows per-call overhead",
            generate_member_f3_local,
            setup_membership,
        ),
        Workload(
            "context-build",
            "build_context and a JSON round trip on F2/F3/F5[x]/(x^4), Q[x]/(x^3) and a Nakayama algebra: structure, bimodules and io",
            generate_context_build,
            setup_context_build,
        ),
    ]
}
