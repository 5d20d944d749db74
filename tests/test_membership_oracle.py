"""Membership decided from Z_1 against the global anchored solve.

check_membership decides a query by comparing beta_X with alpha_M stably and
solves the anchored chain-map systems only for negatives and for lazily
built certificates.  The oracle below is the global decision on its own:
the forward system X -> T_M, then the reverse one.  Every verdict must
agree, and a non-member must already fail the forward system, since both
directions reduce to the same stable condition.
"""

import hashlib
import random

import pytest

from nangulate import io
from nangulate.algebras import ModuleMap
from nangulate.builders import dual_numbers, nakayama_two_cycle, path_algebra_a2, truncated_polynomial_algebra
from nangulate.cli import main
from nangulate.complexes import (
    ComplexError,
    conjugate_complex,
    direct_sum_complexes,
    is_exact,
    rotate_left,
    trivial_complex,
    z1,
)
from nangulate.engine import AngulationContext, build_context, r_u_complex
from nangulate.linalg import Mat, field_by_name
from nangulate.verify import Sampler, verify_axioms

MEMBER = "homotopy equivalent to the fixed resolution"


def unit(A, c):
    F = A.field
    return tuple(F.mul(F.of_int(c), a) for a in A.unit)


def global_decision(ctx, X):
    """(outcome, evidence) from the anchored systems alone.

    The outcome is "member" with the chain maps (phi, psi), "forward" with
    the forward system's certificate, or "reverse".
    """
    Xb = ctx._twist_first(X)
    assert is_exact(Xb)
    M, inclX = z1(Xb)
    T, rho = ctx._resolve_base(M)
    _, inclT = z1(T)
    phi, cert = ctx._anchored_chain_map(Xb, inclX, T, inclT, rho.mat)
    if phi is None:
        return "forward", cert
    psi, _ = ctx._anchored_chain_map(T, inclT, Xb, inclX, rho.mat.inverse())
    return ("member", (phi, psi)) if psi is not None else ("reverse", None)


def rows(chain_map):
    return [part.mat.rows for part in chain_map.parts]


def assert_agrees(ctx, X):
    """The verdict of check_membership, after checking it against the oracle."""
    got = ctx.check_membership(X)
    want, evidence = global_decision(ctx, X)
    assert want != "reverse", "a non-member passed the forward system"
    assert got.verdict == (want == "member")
    if got.verdict:
        assert got.reason == MEMBER
        assert got.witness is not None
        phi, psi = evidence
        assert rows(got.comparison) == rows(phi) and rows(got.reverse) == rows(psi)
    else:
        assert got.reason == "no stably-anchored comparison map"
        assert got.comparison is None
        assert got.cert.rows == evidence.rows
    return got.verdict


MEMBER_CONTEXTS = [
    # (algebra, n, mode, samples, seed)
    (lambda: dual_numbers("F2"), 3, "quasi-periodic", 6, 1),
    (lambda: dual_numbers("F3"), 3, "quasi-periodic", 6, 2),
    (lambda: dual_numbers("F3"), 4, "local-ring", 6, 3),
    (lambda: nakayama_two_cycle("F3"), 3, "quasi-periodic", 4, 4),
    (lambda: truncated_polynomial_algebra("F2", 3), 4, "quasi-periodic", 2, 5),
]


@pytest.mark.parametrize("make, n, mode, samples, seed", MEMBER_CONTEXTS)
def test_members_rotations_and_sums_agree(make, n, mode, samples, seed):
    ctx = build_context(make(), n, mode)
    s = Sampler(ctx, random.Random(seed))
    for _ in range(samples):
        X = s.random_member()
        Y = s.random_member()
        for Z in (X, rotate_left(X), direct_sum_complexes(X, Y)):
            assert assert_agrees(ctx, Z)


def test_exact_non_members_agree():
    non_members = 0
    # R(v) against the class of R(u), u != v, at both parities
    for p in (5, 7):
        A = dual_numbers(f"F{p}")
        for n in (3, 4):
            for u in range(1, p):
                ctx = build_context(A, n, "local-ring", unit=unit(A, u), force=True)
                for v in range(1, p):
                    if v != u:
                        assert not assert_agrees(ctx, r_u_complex(A, unit(A, v), n))
                        non_members += 1
    # conjugates of R(1) and of its rotation in the forced odd-period class
    A = dual_numbers("F3")
    ctx = build_context(A, 3, "local-ring", unit=A.unit, force=True)
    s = Sampler(ctx, random.Random(11))
    R1 = r_u_complex(A, A.unit, 3)
    for _ in range(4):
        C = conjugate_complex(R1, [s.random_slot_auto(obj) for obj in R1.objects])
        assert assert_agrees(ctx, C)
        assert not assert_agrees(ctx, rotate_left(C))
        non_members += 1
    # members of the class of R(1), judged in its twist by the unit 2
    A = dual_numbers("F5")
    base = build_context(A, 4, "local-ring", unit=A.unit)
    twisted = base.twisted(unit(A, 2))
    s = Sampler(base, random.Random(13))
    verdicts = []
    for _ in range(12):
        X = s.random_member()
        assert assert_agrees(base, X)
        verdicts.append(assert_agrees(twisted, X))
    non_members += verdicts.count(False)
    assert True in verdicts and False in verdicts
    assert non_members >= 50


def test_non_selfinjective_algebra_keeps_the_anchored_decision():
    # injective envelopes need a selfinjective algebra, so a forced
    # contractible-only class over the A2 path algebra decides trivial
    # sequences (Z_1 = 0) by the anchored system, without a stable witness
    A = path_algebra_a2(field_by_name("F2"))
    ctx = build_context(A, 3, "semisimple", force=True)
    cert = ctx.check_membership(trivial_complex(ctx.susp, A.regular_module(), 3))
    assert cert.verdict and cert.reason == MEMBER and cert.witness is None
    assert cert.comparison is not None and cert.reverse is not None


def _refuse_anchored_problem(self, *args):
    raise AssertionError("a positive verdict solved an anchored system")


def test_positive_membership_solves_no_anchored_system(monkeypatch):
    A = dual_numbers("F3")
    ctx = build_context(A, 4, "local-ring", unit=A.unit)
    monkeypatch.setattr(AngulationContext, "_anchored_problem", _refuse_anchored_problem)
    cert = ctx.check_membership(r_u_complex(A, A.unit, 4))
    assert cert.verdict and cert.reason == MEMBER
    delta, kappa = cert.witness
    monkeypatch.undo()
    # the lazy chain maps are the ones the global solve produced (the digest
    # is pinned in test_report_bytes.py as well)
    parts = [p.mat.rows for p in cert.comparison.parts] + [p.mat.rows for p in cert.reverse.parts]
    digest = hashlib.sha256(repr(parts).encode()).hexdigest()
    assert digest == "8d85194c9153c4d89ba66e312689816dce0c68a11b8b7d88fcce190064fd4f2b"
    assert cert.verify()
    # a witness that no longer factors beta - alpha fails, whatever the chain maps
    F = A.field
    bump = Mat(F, [[F.one if (i, j) == (0, 0) else F.zero for j in range(delta.mat.ncols)] for i in range(delta.mat.nrows)])
    cert.witness = (ModuleMap(delta.source, delta.target, delta.mat + bump, check=False), kappa)
    assert not cert.verify()


class _Unsolvable:
    def solve(self, want_cert=True):
        return None, None


def test_unsolvable_lazy_system_is_an_internal_fault(monkeypatch):
    A = dual_numbers("F3")
    ctx = build_context(A, 4, "local-ring", unit=A.unit)
    monkeypatch.setattr(AngulationContext, "_anchored_problem", lambda self, *args: _Unsolvable())
    cert = ctx.check_membership(r_u_complex(A, A.unit, 4))
    assert cert.verdict
    with pytest.raises(ComplexError, match="comparison system is unsolvable"):
        cert.comparison
    with pytest.raises(ComplexError, match="reverse system is unsolvable"):
        cert.reverse
    assert cert.verify() is False


def test_failed_lift_between_members_is_an_internal_fault(tmp_path, monkeypatch, capsys):
    ctx = build_context(dual_numbers("F3"), 3, "quasi-periodic")
    ctxfile = tmp_path / "ctx.json"
    io.save_json_file(ctxfile, io.context_to_json(ctx))
    monkeypatch.setattr(AngulationContext, "_anchored_problem", lambda self, *args: _Unsolvable())
    with pytest.raises(ComplexError, match="lift between sampled members failed"):
        verify_axioms(ctx, samples=2, seed=0)
    assert main(["verify", str(ctxfile), "--samples", "2", "--seed", "0"]) == 5
    assert "internal error: lift between sampled members failed" in capsys.readouterr().err


def test_axiom_suite_builds_no_membership_chain_maps(monkeypatch):
    # verdicts alone drive the suite: a fault in a lazy build cannot become
    # an axiom counterexample, because the suite never asks for one
    def refuse(self, which):
        raise AssertionError(f"the suite built the {which} chain map")

    monkeypatch.setattr("nangulate.engine.MembershipCertificate._chain_map", refuse)
    ctx = build_context(dual_numbers("F3"), 3, "quasi-periodic")
    assert verify_axioms(ctx, samples=3, seed=5).passed
