import itertools
import json

import pytest

from nangulate import io as nio
from nangulate.builders import dual_numbers, path_algebra_a2, product_of_fields, truncated_polynomial_algebra
from nangulate.cli import main
from nangulate.algebras import Module
from nangulate.complexes import Suspension, disk_complex, trivial_complex, z1
from nangulate.engine import build_context, r_u_complex
from nangulate.linalg import field_by_name

F2 = field_by_name("F2")
F3 = field_by_name("F3")


def write_algebra(tmp_path, A, name="algebra.json"):
    path = tmp_path / name
    nio.save_json_file(path, nio.algebra_to_json(A))
    return str(path)


def read(path):
    with open(path) as fh:
        return json.load(fh)


def test_roundtrip_algebra_module_map():
    A = dual_numbers(F3)
    data = nio.algebra_to_json(A)
    A2 = nio.algebra_from_json(data)
    assert A2 == A
    reg = A.regular_module()
    M2 = nio.module_from_json(A2, nio.module_to_json(reg))
    assert M2 == reg
    from nangulate.builders import right_multiplication_map

    f = right_multiplication_map(A, A.basis_vector(1))
    f2 = nio.module_map_from_json(M2, M2, nio.mat_to_json(f.mat))
    assert f2.mat == f.mat and f2.source == f.source and f2.target == f.target


def test_roundtrip_complex():
    A = dual_numbers(F3)
    R = r_u_complex(A, A.unit, 4)
    data = nio.complex_to_json(R)
    R2 = nio.complex_from_json(A, data)
    assert R2 == R


def test_roundtrip_rational_scalars():
    from nangulate.linalg import QQ, Mat
    from fractions import Fraction

    m = Mat(QQ, [[Fraction(1, 2), Fraction(3)]], 2)
    data = nio.mat_to_json(m)
    assert data == [["1/2", 3]]
    m2 = nio.mat_from_json(QQ, data)
    assert m2 == m


def test_malformed_mult_entry():
    A = dual_numbers(F2)
    data = nio.algebra_to_json(A)
    data["mult"][1] = [0, 7, [0, 0]]
    with pytest.raises(nio.FormatError, match="out of range"):
        nio.algebra_from_json(data)


def test_cli_algebra_check(tmp_path, capsys):
    path = write_algebra(tmp_path, dual_numbers(F2))
    out = tmp_path / "report.json"
    code = main(["algebra-check", path, "--out", str(out)])
    assert code == 0
    rep = read(out)
    assert rep["selfinjective"] is True
    assert rep["semisimple"] is False
    err = capsys.readouterr().err
    assert "selfinjective: true, semisimple: false" in err


def test_cli_algebra_check_semisimple(tmp_path):
    path = write_algebra(tmp_path, product_of_fields(F2))
    out = tmp_path / "report.json"
    assert main(["algebra-check", path, "--out", str(out)]) == 0
    rep = read(out)
    assert rep["semisimple"] is True
    assert len(rep["idempotents"]) == 2


def test_cli_algebra_check_malformed(tmp_path):
    A = dual_numbers(F2)
    data = nio.algebra_to_json(A)
    data["mult"][0] = [0, 0]
    path = tmp_path / "bad.json"
    nio.save_json_file(path, data)
    assert main(["algebra-check", str(path)]) == 2


def test_cli_syzygy_twists(tmp_path):
    path2 = write_algebra(tmp_path, dual_numbers(F2), "a2.json")
    out = tmp_path / "s.json"
    assert main(["syzygy", path2, "--n", "3", "--out", str(out)]) == 0
    rep = read(out)
    assert rep["syzygy_dim"] == 2
    assert rep["twist"]["order"] == 1

    path3 = write_algebra(tmp_path, dual_numbers(F3), "a3.json")
    assert main(["syzygy", path3, "--n", "3", "--out", str(out)]) == 0
    rep = read(out)
    assert rep["twist"]["order"] == 2
    assert main(["syzygy", path3, "--n", "2", "--out", str(out)]) == 0
    rep = read(out)
    assert rep["twist"]["order"] == 1


def test_cli_angulate_and_verify(tmp_path):
    path = write_algebra(tmp_path, dual_numbers(F2))
    ctxfile = tmp_path / "ctx.json"
    assert main(["angulate", path, "--n", "3", "--mode", "quasi-periodic", "--out", str(ctxfile)]) == 0
    out = tmp_path / "verify.json"
    code = main(["verify", str(ctxfile), "--samples", "4", "--seed", "7", "--out", str(out)])
    assert code == 0
    rep = read(out)
    assert rep["pass"] is True
    # determinism: running again is byte-identical
    first = open(out).read()
    main(["verify", str(ctxfile), "--samples", "4", "--seed", "7", "--out", str(out)])
    assert open(out).read() == first


def test_cli_angulate_refusal_exit_code(tmp_path):
    path = write_algebra(tmp_path, dual_numbers(F3))
    assert main(["angulate", path, "--n", "3", "--mode", "local-ring", "--unit", "1"]) == 3
    path2 = write_algebra(tmp_path, path_algebra_a2(F2), "pa.json")
    assert main(["angulate", path2, "--n", "3", "--mode", "quasi-periodic"]) == 3


def _group_algebra_f2_s3():
    """F2[S3] as an algebra file: basis the six permutations, g*h = g after h."""
    perms = list(itertools.permutations(range(3)))
    index = {g: i for i, g in enumerate(perms)}
    mult = []
    for i, g in enumerate(perms):
        for j, h in enumerate(perms):
            coords = [0] * 6
            coords[index[tuple(g[h[k]] for k in range(3))]] = 1
            mult.append([i, j, coords])
    return {
        "field": "F2",
        "dim": 6,
        "basis": ["".join(map(str, g)) for g in perms],
        "unit": [int(g == (0, 1, 2)) for g in perms],
        "mult": mult,
    }


@pytest.mark.parametrize("n", [3, 4])
def test_cli_angulate_f2_s3_refused_by_dimension(tmp_path, capsys, n):
    # F2[S3] = F2[C2] x M_2(F2): splitting its semisimple quotient meets
    # minimal polynomials with repeated factors, which once ended in
    # "failure" (exit 1, a negative verdict).  The F2[C2] block gives
    # Omega^n of dimension 2, so the context is refused (exit 3).
    path = tmp_path / "f2s3.json"
    nio.save_json_file(path, _group_algebra_f2_s3())
    assert main(["angulate", str(path), "--n", str(n), "--mode", "quasi-periodic"]) == 3
    assert f"Omega^{n} has dimension 2" in capsys.readouterr().err


def test_cli_check_angle(tmp_path):
    A = dual_numbers(F2)
    path = write_algebra(tmp_path, A)
    ctxfile = tmp_path / "ctx.json"
    main(["angulate", path, "--n", "3", "--mode", "quasi-periodic", "--out", str(ctxfile)])
    anglefile = tmp_path / "angle.json"
    R = r_u_complex(A, A.unit, 3)
    nio.save_json_file(anglefile, nio.complex_to_json(R))
    out = tmp_path / "m.json"
    assert main(["check-angle", str(ctxfile), str(anglefile), "--out", str(out)]) == 0
    assert read(out)["member"] is True
    # a non-exact angle is rejected with exit 1
    bad = nio.complex_to_json(R)
    bad["maps"][0] = [[0, 0], [0, 0]]
    nio.save_json_file(anglefile, bad)
    assert main(["check-angle", str(ctxfile), str(anglefile), "--out", str(out)]) == 1
    assert read(out)["member"] is False


def _local_ring_context_with_cache(u):
    """F3[x]/(x^2), n=4, unit u, with T_M cached for the simple module M and
    for two presentations of the regular module (the second reuses the first)."""
    A = dual_numbers(F3)
    scalar = tuple(F3.mul(F3.of_int(u), a) for a in A.unit)
    ctx = build_context(A, 4, "local-ring", unit=scalar)
    M, _ = z1(r_u_complex(A, A.unit, 4))
    reg = A.regular_module()
    P = nio.mat_from_json(F3, [[1, 1], [0, 1]])
    conj = Module(A, 2, [P.inverse() @ a @ P for a in reg.action])
    for N in (M, reg, conj):
        ctx.resolve(N)
    return A, ctx


def test_context_file_cache_is_replayed():
    _, ctx = _local_ring_context_with_cache(1)
    text = nio.dumps(nio.context_to_json(ctx))
    loaded = nio.context_from_json(json.loads(text))
    assert nio.dumps(nio.context_to_json(loaded)) == text
    assert loaded._iso_buckets == ctx._iso_buckets


def test_context_file_with_foreign_resolution_is_refused(tmp_path):
    # the unit-1 file carries the unit-2 context's T_M = R(2) for the simple
    # module: trusted, it would flip membership of R(1) and R(2)
    A, ctx1 = _local_ring_context_with_cache(1)
    _, ctx2 = _local_ring_context_with_cache(2)
    data = nio.context_to_json(ctx1)
    data["cache"][0] = nio.context_to_json(ctx2)["cache"][0]
    with pytest.raises(nio.FormatError):
        nio.context_from_json(data)
    ctxfile = tmp_path / "ctx.json"
    nio.save_json_file(ctxfile, data)
    anglefile = tmp_path / "angle.json"
    nio.save_json_file(anglefile, nio.complex_to_json(r_u_complex(A, A.unit, 4)))
    assert main(["check-angle", str(ctxfile), str(anglefile)]) == 2
    # a rho that is not the fixed isomorphism onto Z_1 is refused too
    data = nio.context_to_json(ctx1)
    data["cache"][0]["rho"] = [[2]]
    with pytest.raises(nio.FormatError):
        nio.context_from_json(data)


def test_cli_rotate_round_trip(tmp_path):
    A = dual_numbers(F3)
    path = write_algebra(tmp_path, A)
    R = r_u_complex(A, A.unit, 3)
    anglefile = tmp_path / "angle.json"
    nio.save_json_file(anglefile, nio.complex_to_json(R))
    left = tmp_path / "left.json"
    assert main(["rotate", path, str(anglefile), "--direction", "left", "--out", str(left)]) == 0
    back = tmp_path / "back.json"
    assert main(["rotate", path, str(left), "--direction", "right", "--out", str(back)]) == 0
    assert read(back) == read(str(anglefile))


def test_cli_localring_table(tmp_path):
    out = tmp_path / "lr.json"
    assert main(["localring", "--field", "3", "--n", "3", "--unit", "1", "--out", str(out)]) == 0
    rep = read(out)
    assert rep["exists"] is False
    assert rep["reason"] == "n odd and 2p != 0"

    assert main(["localring", "--field", "2", "--n", "3", "--unit", "1", "--out", str(out)]) == 0
    rep = read(out)
    assert rep["exists"] is True

    assert main(["localring", "--field", "3", "--n", "4", "--unit", "1", "--out", str(out)]) == 0
    rep = read(out)
    assert rep["exists"] is True
    # the unit table over F3: R(u) ~ R(v) iff u = v
    table = rep["unit_equivalences"]
    for u in ("1", "2"):
        for v in ("1", "2"):
            assert table[u][v] == (u == v)


def test_cli_lift_and_cone(tmp_path):
    A = dual_numbers(F2)
    path = write_algebra(tmp_path, A)
    ctxfile = tmp_path / "ctx.json"
    main(["angulate", path, "--n", "3", "--mode", "quasi-periodic", "--out", str(ctxfile)])
    R = r_u_complex(A, A.unit, 3)
    src = tmp_path / "src.json"
    nio.save_json_file(src, nio.complex_to_json(R))
    hfile = tmp_path / "h.json"
    nio.save_json_file(hfile, [[1]])
    out = tmp_path / "lift.json"
    assert main(["lift", str(ctxfile), str(src), str(src), str(hfile), "--out", str(out)]) == 0
    rep = read(out)
    assert rep["cone_member"] is True
    # feed the lifted chain map into the cone command
    cm = tmp_path / "cm.json"
    nio.save_json_file(cm, rep["chain_map"])
    cone_out = tmp_path / "cone.json"
    assert main(["cone", path, str(src), str(src), str(cm), "--out", str(cone_out)]) == 0
    assert read(cone_out)["n"] == 3


def test_internal_error_exit_code(monkeypatch, capsys):
    # a ComplexError reaching main is a broken invariant, not a verdict
    from nangulate import cli
    from nangulate.complexes import ComplexError

    def broken(args):
        raise ComplexError("kappa correction is not a chain homotopy")

    monkeypatch.setattr(cli, "cmd_localring", broken)
    assert main(["localring", "--field", "3", "--n", "3"]) == cli.EXIT_INTERNAL == 5
    assert "internal error: kappa correction" in capsys.readouterr().err


def test_failed_fixed_resolution_is_an_internal_error(tmp_path, monkeypatch, capsys):
    # every module has a fixed resolution in a quasi-periodic context, so a
    # failure to build one is a broken invariant, not a non-member verdict
    from nangulate.complexes import ComplexError
    from nangulate.engine import AngulationContext, EngineError

    A = dual_numbers(F2)
    path = write_algebra(tmp_path, A)
    ctxfile = tmp_path / "ctx.json"
    assert main(["angulate", path, "--n", "3", "--mode", "quasi-periodic", "--out", str(ctxfile)]) == 0
    anglefile = tmp_path / "angle.json"
    R = r_u_complex(A, A.unit, 3)
    nio.save_json_file(anglefile, nio.complex_to_json(R))

    def broken(self, M):
        raise EngineError("tensor resolution is not exact")

    monkeypatch.setattr(AngulationContext, "_build_resolution", broken)
    ctx = build_context(A, 3, "quasi-periodic")
    with pytest.raises(ComplexError, match="tensor resolution is not exact"):
        ctx.check_membership(R)
    capsys.readouterr()
    assert main(["check-angle", str(ctxfile), str(anglefile)]) == 5
    assert "internal error: no fixed resolution for the kernel" in capsys.readouterr().err


def _cached_context_file(tmp_path, edit):
    """The unit-1 F3[x]/(x^2), n=4 context file with its cache, after edit(data)."""
    A, ctx = _local_ring_context_with_cache(1)
    data = nio.context_to_json(ctx)
    edit(data)
    ctxfile = tmp_path / "ctx.json"
    nio.save_json_file(ctxfile, data)
    anglefile = tmp_path / "angle.json"
    nio.save_json_file(anglefile, nio.complex_to_json(r_u_complex(A, A.unit, 4)))
    return str(ctxfile), str(anglefile)


@pytest.mark.parametrize(
    "edit, named",
    [
        (lambda d: d.pop("n"), "missing 'n'"),
        (lambda d: d.update(n="4"), "'n' must be an integer"),
        (lambda d: d.update(cache=5), "'cache' must be a list"),
        (lambda d: d.update(pretwist=[1]), "'pretwist' must be a list of 2 scalars"),
        (lambda d: d["cache"][1]["resolution"].pop("n"), "cache entry 1: angle file is missing 'n'"),
    ],
    ids=["no-n", "string-n", "int-cache", "short-pretwist", "entry-without-n"],
)
def test_malformed_context_file_is_an_input_error(tmp_path, capsys, edit, named):
    ctxfile, anglefile = _cached_context_file(tmp_path, edit)
    assert main(["check-angle", ctxfile, anglefile]) == 2
    assert named in capsys.readouterr().err


def test_user_supplied_maps_are_input_errors(tmp_path, capsys):
    A = dual_numbers(F2)
    path = write_algebra(tmp_path, A)
    ctxfile = tmp_path / "ctx.json"
    main(["angulate", path, "--n", "3", "--mode", "quasi-periodic", "--out", str(ctxfile)])
    src = tmp_path / "src.json"
    nio.save_json_file(src, nio.complex_to_json(r_u_complex(A, A.unit, 3)))
    # (1, 0, 0) on R(1): the square through the first map does not commute
    cm = tmp_path / "cm.json"
    nio.save_json_file(cm, [[[1, 0], [0, 1]], [[0, 0], [0, 0]], [[0, 0], [0, 0]]])
    assert main(["cone", path, str(src), str(src), str(cm)]) == 2
    assert "square 0 does not commute" in capsys.readouterr().err
    # a component that is not A-linear
    nio.save_json_file(cm, [[[1, 0], [0, 0]]] * 3)
    assert main(["cone", path, str(src), str(src), str(cm)]) == 2
    assert "component 0: matrix does not intertwine" in capsys.readouterr().err
    # the wrap disk of A has Z_1 = A in the identity basis, and the idempotent
    # matrix diag(1, 0) does not commute with the action of x
    disk = tmp_path / "disk.json"
    nio.save_json_file(disk, nio.complex_to_json(disk_complex(Suspension(A), A.regular_module(), 3, 2)))
    hfile = tmp_path / "h.json"
    nio.save_json_file(hfile, [[1, 0], [0, 0]])
    assert main(["lift", str(ctxfile), str(disk), str(disk), str(hfile)]) == 2
    assert "matrix does not intertwine the action of x" in capsys.readouterr().err


def test_cli_syzygy_beyond_the_enumeration_limit(tmp_path):
    # 5^6 candidate generators: the twist is decided, not refused
    path = write_algebra(tmp_path, truncated_polynomial_algebra("F5", 6))
    out = tmp_path / "s.json"
    assert main(["syzygy", path, "--n", "4", "--out", str(out)]) == 0
    rep = read(out)
    assert rep["syzygy_dim"] == 6
    assert rep["twist"]["order"] == 1
    assert rep["twist"]["matrix"] == [[int(i == j) for j in range(6)] for i in range(6)]
