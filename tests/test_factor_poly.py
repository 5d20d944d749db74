"""Factoring over F_p by Berlekamp, against sympy's factor_list as the oracle.

`structure._factor_poly` factors over F_p without sympy: a square-free
decomposition (including f' = 0, f = g(x^p)) and then Berlekamp's algorithm.
Factorization is unique, so the list it returns, sorted by the same key, must
equal sympy's exactly, multiplicities included.
"""

import os
import subprocess
import sys

import sympy
from hypothesis import given, settings, strategies as st

from nangulate.linalg import PrimeField
from nangulate.structure import _factor_poly, _poly_mul

PRIMES = [2, 3, 5, 7, 97]


def sympy_factors(F, coeffs):
    x = sympy.Symbol("x")
    poly = sympy.Poly([int(c) for c in reversed(coeffs)], x, domain=sympy.GF(F.p, symmetric=False))
    out = []
    for fac, mult in poly.factor_list()[1]:
        cs = [F.of_int(int(c)) for c in reversed(fac.all_coeffs())]
        inv = F.inv(cs[-1])
        out.append((tuple(F.mul(inv, c) for c in cs), mult))
    out.sort(key=lambda t: (len(t[0]), tuple(str(c) for c in t[0])))
    return out


def frobenius_substitute(F, g):
    """g(x^p), whose derivative is zero."""
    out = [F.zero] * ((len(g) - 1) * F.p + 1)
    for i, c in enumerate(g):
        out[i * F.p] = c
    return out


@st.composite
def products(draw):
    F = PrimeField(draw(st.sampled_from(PRIMES)))
    f = [F.one]
    for _ in range(draw(st.integers(1, 4))):
        low = draw(st.lists(st.integers(0, F.p - 1), min_size=1, max_size=4))
        for _ in range(draw(st.integers(1, 3))):
            f = _poly_mul(F, f, low + [F.one])
    if F.p <= 5 and len(f) <= 8 and draw(st.booleans()):
        f = frobenius_substitute(F, f)
    return F, f


@settings(max_examples=150, deadline=None)
@given(products())
def test_factor_poly_matches_sympy(case):
    F, f = case
    assert _factor_poly(F, f) == sympy_factors(F, f)


def test_inseparable_inputs():
    F2, F3 = PrimeField(2), PrimeField(3)
    # (x^2 + 1)^2 = (x + 1)^4 over F2
    assert _factor_poly(F2, [1, 0, 0, 0, 1]) == [((1, 1), 4)]
    # x^3 + 2 = (x + 2)^3 over F3, and g(x^3) for g = x^2 + 1 irreducible
    assert _factor_poly(F3, [2, 0, 0, 1]) == [((2, 1), 3)]
    assert _factor_poly(F3, [1, 0, 0, 0, 0, 0, 1]) == sympy_factors(F3, [1, 0, 0, 0, 0, 0, 1])
    # a square-free part times a p-th power: x (x + 1)^2 (x^2 + x + 1)^2 over F2
    f = [0, 1]
    for g in ([1, 1], [1, 1], [1, 1, 1], [1, 1, 1]):
        f = _poly_mul(F2, f, g)
    assert _factor_poly(F2, f) == [((0, 1), 1), ((1, 1), 2), ((1, 1, 1), 2)]


def test_irreducible_and_split_over_f97():
    F = PrimeField(97)
    # x^2 + 1 splits over F97 (97 = 1 mod 4); x^2 + 5 does not (5 is a non-square mod 97)
    assert _factor_poly(F, [1, 0, 1]) == sympy_factors(F, [1, 0, 1])
    assert len(_factor_poly(F, [1, 0, 1])) == 2
    assert _factor_poly(F, [5, 0, 1]) == [((5, 0, 1), 1)]


def test_context_build_over_fp_does_not_import_sympy():
    code = (
        "import sys\n"
        "from nangulate.builders import nakayama_two_cycle\n"
        "from nangulate.engine import build_context\n"
        "build_context(nakayama_two_cycle('F3'), 3, 'quasi-periodic')\n"
        "print('sympy' in sys.modules)\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
