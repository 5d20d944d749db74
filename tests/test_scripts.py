"""The example scripts run end to end from the repository root.

The local-ring survey decides every off-diagonal R(u)/R(v) entry through a
non-member query, so its tables guard the local-ring result of Bergh, Jasso
and Thaule end to end: R(u) and R(v) are homotopy equivalent exactly when
u = v.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_script(*args):
    out = subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


def diagonal_table(units):
    lines = ["      " + "  ".join(f"R({v})" for v in units)]
    for u in units:
        lines.append(f"R({u})  " + "  ".join("yes " if u == v else "no  " for v in units))
    return "\n".join(lines)


def test_local_ring_survey():
    text = run_script("scripts/local_ring_survey.py", "--primes", "3", "5", "--periods", "3", "4", "--samples", "2")
    blocks = text.strip().split("\n\n")
    assert [b.splitlines()[0] for b in blocks] == [
        "== F3[x]/(x^2), n = 3: no n-angulation (n odd, 2p != 0)",
        "== F3[x]/(x^2), n = 4: exists",
        "== F5[x]/(x^2), n = 3: no n-angulation (n odd, 2p != 0)",
        "== F5[x]/(x^2), n = 4: exists",
    ]
    for block, p in zip(blocks, (3, 3, 5, 5)):
        assert diagonal_table(range(1, p)) in block
    for block in blocks[1::2]:
        assert block.splitlines()[-1] == "axioms at 2 samples: N1b=ok, N1a=ok, N1c=ok, N2=ok, N3=ok, N4=ok"


def test_quasi_periodic_demo():
    text = run_script("scripts/quasi_periodic_demo.py", "--samples", "2")
    head, brace, tail = text.partition("\n{")
    assert "detected twist: identity" in head
    report = json.loads(brace + tail)
    assert report["pass"] is True
    assert all(entry["pass"] for entry in report["axioms"].values())
