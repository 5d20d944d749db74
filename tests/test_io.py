"""The io loaders: validation of every loaded value, and the per-algebra intern tables."""

import gc
import json
import random

import pytest

from nangulate import io as nio
from nangulate.algebras import ModuleMap, hom_basis
from nangulate.builders import dual_numbers, nakayama_two_cycle, truncated_polynomial_algebra
from nangulate.cli import main
from nangulate.engine import build_context, r_u_complex
from nangulate.linalg import QQ, field_by_name
from nangulate.verify import Sampler

F3 = field_by_name("F3")


def fresh(data):
    """A deep copy, as a second read of the same file gives."""
    return json.loads(json.dumps(data))


def r1_angle(A, n=4):
    return nio.complex_to_json(r_u_complex(A, A.unit, n))


def non_linear_r1_angle(A):
    """R(1) over F3[x]/(x^2) with map 0 changed from x to a map that is not A-linear."""
    data = r1_angle(A)
    assert data["maps"][0] == [[0, 1], [0, 0]]
    data["maps"][0] = [[1, 1], [0, 0]]
    return data


# -- scalars -------------------------------------------------------------------


@pytest.mark.parametrize("field", [F3, QQ], ids=["F3", "Q"])
@pytest.mark.parametrize("scalar", [2.7, True, False, 1e30, 1.0], ids=repr)
def test_float_and_boolean_scalars_are_refused(field, scalar):
    with pytest.raises(nio.FormatError, match="bad scalar"):
        nio.mat_from_json(field, [[1, scalar]])


def test_integer_and_fraction_scalars_still_parse():
    assert nio.mat_from_json(F3, [[4, -1, 2]]).rows == ((1, 2, 2),)
    assert nio.mat_to_json(nio.mat_from_json(QQ, [["1/2", 3, "-4/6"]])) == [["1/2", 3, "-2/3"]]
    with pytest.raises(nio.FormatError, match="bad scalar"):
        nio.mat_from_json(QQ, [["1/0"]])


def test_boolean_scalar_in_a_module_is_refused():
    A = dual_numbers(F3)
    data = nio.module_to_json(A.regular_module())
    data["action"]["1"][0][0] = True
    with pytest.raises(nio.FormatError, match="bad scalar"):
        nio.module_from_json(A, data)


# -- angle maps are checked ----------------------------------------------------


def test_non_linear_angle_map_is_a_format_error():
    A = dual_numbers(F3)
    with pytest.raises(nio.FormatError, match="map 0: matrix does not intertwine"):
        nio.complex_from_json(A, non_linear_r1_angle(A))


def test_cli_non_linear_angle_map_exits_2(tmp_path):
    A = dual_numbers(F3)
    algebra = tmp_path / "algebra.json"
    nio.save_json_file(algebra, nio.algebra_to_json(A))
    ctx = tmp_path / "ctx.json"
    assert main(["angulate", str(algebra), "--n", "4", "--mode", "local-ring", "--unit", "1", "--out", str(ctx)]) == 0
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    nio.save_json_file(good, r1_angle(A))
    nio.save_json_file(bad, non_linear_r1_angle(A))
    assert main(["check-angle", str(ctx), str(good), "--out", str(tmp_path / "report.json")]) == 0
    # before angle maps were checked, this printed "member": false, "reason": "not exact" and exited 1
    assert main(["check-angle", str(ctx), str(bad), "--out", str(tmp_path / "report.json")]) == 2


# -- the intern tables ---------------------------------------------------------


def test_equal_values_load_as_one_object():
    A = dual_numbers(F3)
    data = nio.module_to_json(A.regular_module())
    M = nio.module_from_json(A, data)
    assert nio.module_from_json(A, fresh(data)) is M
    # another representative of the same residues is the same value
    shifted = fresh(data)
    shifted["action"]["1"] = [[4, 0], [3, 7]]
    assert nio.module_from_json(A, shifted) is M
    X, Y = nio.complex_from_json(A, r1_angle(A)), nio.complex_from_json(A, r1_angle(A))
    assert X is not Y and X == Y
    assert all(a is b for a, b in zip(X.objects + X.maps, Y.objects + Y.maps))
    assert X.objects[0] is M and X.susp is Y.susp


def test_equal_but_distinct_algebra_gets_its_own_objects():
    A = dual_numbers(F3)
    B = nio.algebra_from_json(nio.algebra_to_json(A))
    assert A == B and A is not B
    data = nio.module_to_json(A.regular_module())
    MA, MB = nio.module_from_json(A, data), nio.module_from_json(B, data)
    assert MA == MB and MA is not MB
    assert MA.algebra is A and MB.algebra is B
    XA, XB = nio.complex_from_json(A, r1_angle(A)), nio.complex_from_json(B, r1_angle(A))
    assert XA.susp is not XB.susp and XB.susp.algebra is B
    for f in XB.maps:
        assert f.source.algebra is B and f.target.algebra is B


def test_invalid_values_are_refused_on_every_load():
    A = dual_numbers(F3)
    good = nio.module_to_json(A.regular_module())
    bad = fresh(good)
    bad["action"]["x"] = [[1, 0], [0, 0]]  # x acts idempotently, but x^2 = 0

    def refused(load, match):
        with pytest.raises(nio.FormatError, match=match):
            load()

    # each invalid value is refused first, again after a valid value of its shape, and once more
    for _ in range(2):
        refused(lambda: nio.module_from_json(A, fresh(bad)), "structure constants")
        M = nio.module_from_json(A, fresh(good))
    refused(lambda: nio.module_from_json(A, fresh(bad)), "structure constants")
    for _ in range(2):
        refused(lambda: nio.complex_from_json(A, non_linear_r1_angle(A)), "map 0")
        nio.complex_from_json(A, r1_angle(A))
    refused(lambda: nio.complex_from_json(A, non_linear_r1_angle(A)), "map 0")
    for _ in range(2):
        refused(lambda: nio.module_map_from_json(M, M, [[1, 1], [0, 0]]), "intertwine")
        nio.module_map_from_json(M, M, [[1, 1], [0, 1]])
    for _ in range(2):
        refused(lambda: nio.complex_from_json(A, {**r1_angle(A), "sigma": [[1, 0], [0, 0]]}), "automorphism")


def test_tables_keep_nothing_alive():
    A = truncated_polynomial_algebra(F3, 3)
    ctx = build_context(nakayama_two_cycle("F3"), 3, "quasi-periodic")
    B = ctx.algebra
    M = nio.module_from_json(A, nio.module_to_json(A.regular_module()))
    f = nio.module_map_from_json(M, M, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    susp = nio._suspension_from_json(B, nio.automorphism_to_json(ctx.susp.sigma))
    assert not susp.is_identity() and susp == ctx.susp
    tables = [A._cache["io_modules"], A._cache["io_maps"], B._cache["io_suspensions"]]
    assert [len(t) for t in tables] == [1, 1, 1]
    del M, f, susp
    gc.collect()
    assert [len(t) for t in tables] == [0, 0, 0]


def test_twisted_angles_round_trip_and_share_one_suspension():
    ctx = build_context(nakayama_two_cycle("F3"), 3, "quasi-periodic")
    A = ctx.algebra
    assert not ctx.susp.is_identity()
    sampler = Sampler(ctx, random.Random(5))
    texts = [nio.dumps(nio.complex_to_json(sampler.random_member())) for _ in range(4)]
    loaded = [nio.complex_from_json(A, json.loads(t)) for t in texts]
    assert [nio.dumps(nio.complex_to_json(X)) for X in loaded] == texts
    assert all(X.susp is loaded[0].susp for X in loaded)
    assert loaded[0].susp == ctx.susp and not loaded[0].susp.is_identity()
    assert any(X.dims() != (0, 0, 0) for X in loaded)


# -- Sampler.random_hom ----------------------------------------------------------


def random_hom_by_sums(rng, M, N):
    """The chain of ModuleMap additions random_hom replaced: the reference."""
    F = M.algebra.field
    out = ModuleMap.zero(M, N)
    for b in hom_basis(M, N):
        c = rng.randrange(F.p or 7)
        if c:
            out = out + b.scale(F.of_int(c))
    return out


@pytest.mark.parametrize("field", ["F2", "F3", "F5", "Q"])
def test_random_hom_matches_the_sum_of_scaled_basis_maps(field):
    ctx = build_context(truncated_polynomial_algebra(field, 2), 4, "quasi-periodic")
    sampler = Sampler(ctx, random.Random(11))
    reference = random.Random(11)
    modules = [sampler.random_module() for _ in range(4)]
    reference.setstate(sampler.rng.getstate())
    for M in modules:
        for N in modules:
            got = sampler.random_hom(M, N)
            want = random_hom_by_sums(reference, M, N)
            assert got == want
            assert [type(a) for r in got.mat.rows for a in r] == [type(a) for r in want.mat.rows for a in r]
            assert sampler.rng.getstate() == reference.getstate()
