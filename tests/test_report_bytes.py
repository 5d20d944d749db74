"""Seeded verify_axioms reports and built contexts, pinned byte for byte.

Each report digest is the sha256 of io.dumps(report.to_dict()).  A change to
the engine that keeps every verdict but alters a count, a reason or a printed
counterexample changes the digest.  Each context digest is the sha256 of
io.dumps(context_to_json(ctx)) for a quasi-periodic context: it pins the
idempotents, the bimodule syzygy and its twist.
"""

import hashlib

import pytest

from nangulate import io
from nangulate.builders import dual_numbers, nakayama_two_cycle, truncated_polynomial_algebra
from nangulate.engine import build_context
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
