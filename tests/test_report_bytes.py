"""Seeded verify_axioms reports, built contexts and membership certificates, pinned byte for byte.

Each report digest is the sha256 of io.dumps(report.to_dict()).  A change to
the engine that keeps every verdict but alters a count, a reason or a printed
counterexample changes the digest.  Each context digest is the sha256 of
io.dumps(context_to_json(ctx)) for a quasi-periodic context: it pins the
idempotents, the bimodule syzygy and its twist.  The certificate digests are
sha256 of the repr of matrix rows: the comparison and reverse chain maps of
positive verdicts, the reason and left null vector of negative ones.
"""

import hashlib

import pytest

from nangulate import io
from nangulate.builders import dual_numbers, nakayama_two_cycle, truncated_polynomial_algebra
from nangulate.complexes import direct_sum_complexes, rotate_left
from nangulate.engine import build_context, r_u_complex
from nangulate.verify import verify_axioms

CASES = [
    # (field, n, mode, forced, samples, seed, sha256)
    ("F2", 4, "quasi-periodic", False, 5, 7, "c0e7d089660b4d8e9b8b79d4ba5f2857896312e26307e049664700cc5591fafe"),
    ("F3", 3, "quasi-periodic", False, 5, 1, "8d7a69d31294a798c93f827614690188e35e7524a47dd482e3e8fb268dd11338"),
    # the forced parity violation: N2 and N4 counterexamples
    ("F3", 3, "local-ring", True, 25, 7, "05e2e2889bb78f1c172a749f7c54584e0310438ed06fe3ba9999aebe2252e469"),
    ("F3", 4, "local-ring", False, 10, 3, "44c63d0f747ed10c63015b08e3a4e9137c73dba8f285f95b010edb73ea629d48"),
    # the forced semisimple class: the N1c "map does not split" note
    ("F2", 3, "semisimple", True, 25, 5, "54208398205609b8c574c9112498ea7a1b472aaf8b2ed4a804493c0c9ef45d1d"),
]


@pytest.mark.parametrize("field, n, mode, forced, samples, seed, digest", CASES)
def test_report_bytes(field, n, mode, forced, samples, seed, digest):
    ctx = build_context(dual_numbers(field), n, mode, force=forced)
    text = io.dumps(verify_axioms(ctx, samples, seed).to_dict())
    assert hashlib.sha256(text.encode()).hexdigest() == digest


CONTEXT_CASES = [
    # (name, builder, n, sha256)
    ("F2[x]/(x^4)", lambda: truncated_polynomial_algebra("F2", 4), 4, "4c258cefa2de0ff75a7500da1c3c34fcc1119bddae0109c2223bcd616dafffd6"),
    ("F3[x]/(x^4)", lambda: truncated_polynomial_algebra("F3", 4), 4, "60bcd80052cfec3a873ac2b65c2eb50e0e9bbc8ec836d09e68a8aa6f64cfe0fb"),
    ("F5[x]/(x^4)", lambda: truncated_polynomial_algebra("F5", 4), 4, "c77efd6766a86ec94ea74a4cd3a3a1a7443d92e7e3570a871fd20f2d39663a71"),
    ("Q[x]/(x^3)", lambda: truncated_polynomial_algebra("Q", 3), 4, "dbebc80f5effc178860311fb3a841c932c2830cbbfe1ac8621e5fce89422d135"),
    ("Nakayama 2-cycle F3", lambda: nakayama_two_cycle("F3"), 3, "1e212b36a4b7536f4e0f6530e12159d6010b0d8875c87e566383508cc92ba6ce"),
]


@pytest.mark.parametrize("name, make, n, digest", CONTEXT_CASES, ids=[c[0] for c in CONTEXT_CASES])
def test_context_bytes(name, make, n, digest):
    ctx = build_context(make(), n, "quasi-periodic")
    text = io.dumps(io.context_to_json(ctx))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _unit(A, c):
    F = A.field
    return tuple(F.mul(F.of_int(c), a) for a in A.unit)


def _sha256(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


POSITIVE_CERT_CASES = [
    # (u, angle, sha256 of the comparison and reverse parts) for R(u) in
    # its own class over F3[x]/(x^2), n = 4
    (1, "R(u)", "8d85194c9153c4d89ba66e312689816dce0c68a11b8b7d88fcce190064fd4f2b"),
    (1, "rotated", "8d85194c9153c4d89ba66e312689816dce0c68a11b8b7d88fcce190064fd4f2b"),
    (1, "sum", "991302b9b8eec6a4fbfc6254188de5e58eeb6be1f647088b6a5ab80c724ab62a"),
    (2, "R(u)", "8d85194c9153c4d89ba66e312689816dce0c68a11b8b7d88fcce190064fd4f2b"),
    (2, "rotated", "8374410ca6ffa654b37d3aba7548552232f874598d68f112d6020d9775a3875d"),
    (2, "sum", "991302b9b8eec6a4fbfc6254188de5e58eeb6be1f647088b6a5ab80c724ab62a"),
]


@pytest.mark.parametrize("u, angle, digest", POSITIVE_CERT_CASES)
def test_positive_certificate_bytes(u, angle, digest):
    A = dual_numbers("F3")
    ctx = build_context(A, 4, "local-ring", unit=_unit(A, u))
    R = r_u_complex(A, _unit(A, u), 4)
    X = {"R(u)": R, "rotated": rotate_left(R), "sum": direct_sum_complexes(R, R)}[angle]
    cert = ctx.check_membership(X)
    assert cert.verdict and cert.reason == "homotopy equivalent to the fixed resolution"
    parts = [p.mat.rows for p in cert.comparison.parts] + [p.mat.rows for p in cert.reverse.parts]
    assert _sha256(parts) == digest


# (n, u, v, reason, cert rows, comparison is None) of every R(v) outside the
# class of R(u) over F5[x]/(x^2), n in (3, 4), the odd period forced
F5_NEGATIVES_SHA256 = "db023f512cd1173c100463cea12786ac0670906894d6e6b15f257b12c089e4d6"


def test_negative_certificate_bytes():
    A = dual_numbers("F5")
    rows = []
    for n in (3, 4):
        for u in range(1, 5):
            ctx = build_context(A, n, "local-ring", unit=_unit(A, u), force=True)
            for v in range(1, 5):
                if v != u:
                    cert = ctx.check_membership(r_u_complex(A, _unit(A, v), n))
                    assert not cert.verdict
                    rows.append((n, u, v, cert.reason, cert.cert.rows, cert.comparison is None))
    assert {r[3] for r in rows} == {"no stably-anchored comparison map"}
    assert _sha256(rows) == F5_NEGATIVES_SHA256


def test_forced_rotation_certificate_bytes():
    # rotate_left(R(1)) is outside the forced n = 3 class over F3[x]/(x^2)
    A = dual_numbers("F3")
    ctx = build_context(A, 3, "local-ring", unit=A.unit, force=True)
    cert = ctx.check_membership(rotate_left(r_u_complex(A, A.unit, 3)))
    assert not cert.verdict
    assert cert.reason == "no stably-anchored comparison map"
    assert cert.comparison is None
    assert cert.cert.rows == ((0, 2, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0, 1),)
