"""Seeded verify_axioms reports, pinned byte for byte.

Each digest is the sha256 of io.dumps(report.to_dict()).  A change to the
engine that keeps every verdict but alters a count, a reason or a printed
counterexample changes the digest.
"""

import hashlib

import pytest

from nangulate import io
from nangulate.builders import dual_numbers
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
