"""JSON file formats for algebras, modules, maps, complexes and contexts.

Scalars serialize as integers over F_p and as "num/den" strings over Q.
All matrices are row-major nested lists.  Serialization sorts keys so that
identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json

from .linalg import Mat, field_by_name
from .algebras import Algebra, AlgebraError, Automorphism, Module, ModuleMap
from .complexes import ChainMap, PeriodicComplex, Suspension


class FormatError(ValueError):
    pass


def _fmt_scalar(field, a):
    return field.fmt(a)


def _parse_scalar(field, s):
    try:
        return field.parse(s)
    except (ValueError, TypeError) as exc:
        raise FormatError(f"bad scalar {s!r}: {exc}") from None


def mat_to_json(mat: Mat):
    return [[_fmt_scalar(mat.field, a) for a in row] for row in mat.rows]


def mat_from_json(field, data, nrows=None, ncols=None):
    if not isinstance(data, list) or any(not isinstance(r, list) for r in data):
        raise FormatError("matrix must be a list of rows")
    rows = [[_parse_scalar(field, a) for a in row] for row in data]
    if nrows is not None and len(rows) != nrows:
        raise FormatError(f"expected {nrows} rows, found {len(rows)}")
    if not rows:
        if ncols is None:
            ncols = 0
        return Mat(field, [], ncols=ncols)
    if ncols is not None and len(rows[0]) != ncols:
        raise FormatError(f"expected {ncols} columns, found {len(rows[0])}")
    return Mat(field, rows)


def algebra_to_json(A: Algebra):
    mult = []
    for i in range(A.dim):
        for j in range(A.dim):
            mult.append([i, j, [_fmt_scalar(A.field, c) for c in A.mult[i][j]]])
    return {
        "field": A.field.name,
        "dim": A.dim,
        "basis": list(A.labels),
        "unit": [_fmt_scalar(A.field, c) for c in A.unit],
        "mult": mult,
    }


def algebra_from_json(data) -> Algebra:
    for key in ("field", "dim", "basis", "unit", "mult"):
        if key not in data:
            raise FormatError(f"algebra file is missing {key!r}")
    field = field_by_name(data["field"])
    d = data["dim"]
    labels = data["basis"]
    if len(labels) != d:
        raise FormatError("basis label count does not match dim")
    unit = [_parse_scalar(field, c) for c in data["unit"]]
    if len(unit) != d:
        raise FormatError("unit vector has wrong length")
    table = [[None] * d for _ in range(d)]
    for entry in data["mult"]:
        if not (isinstance(entry, list) and len(entry) == 3):
            raise FormatError(f"malformed mult entry {entry!r}")
        i, j, coords = entry
        if not (0 <= i < d and 0 <= j < d):
            raise FormatError(f"mult entry ({i}, {j}) out of range")
        if len(coords) != d:
            raise FormatError(f"mult entry ({i}, {j}) has wrong coordinate length")
        table[i][j] = [_parse_scalar(field, c) for c in coords]
    zero = [field.zero] * d
    mult = [[table[i][j] if table[i][j] is not None else list(zero) for j in range(d)] for i in range(d)]
    try:
        return Algebra(field, mult, unit, labels)
    except AlgebraError as exc:
        raise FormatError(str(exc)) from None


def module_to_json(M: Module):
    A = M.algebra
    return {
        "dim": M.dim,
        "action": {A.labels[i]: mat_to_json(M.action[i]) for i in range(A.dim)},
    }


def module_from_json(A: Algebra, data) -> Module:
    if "dim" not in data or "action" not in data:
        raise FormatError("module file needs dim and action")
    m = data["dim"]
    acts = []
    for i, label in enumerate(A.labels):
        if label not in data["action"]:
            raise FormatError(f"module action is missing basis element {label!r}")
        acts.append(mat_from_json(A.field, data["action"][label], nrows=m, ncols=m))
    try:
        return Module(A, m, acts)
    except AlgebraError as exc:
        raise FormatError(str(exc)) from None


def map_to_json(f: ModuleMap):
    return {
        "source": module_to_json(f.source),
        "target": module_to_json(f.target),
        "matrix": mat_to_json(f.mat),
    }


def map_from_json(A: Algebra, data) -> ModuleMap:
    for key in ("source", "target", "matrix"):
        if key not in data:
            raise FormatError(f"map file is missing {key!r}")
    src = module_from_json(A, data["source"])
    tgt = module_from_json(A, data["target"])
    mat = mat_from_json(A.field, data["matrix"], nrows=src.dim, ncols=tgt.dim)
    try:
        return ModuleMap(src, tgt, mat)
    except AlgebraError as exc:
        raise FormatError(str(exc)) from None


def automorphism_to_json(sigma: Automorphism):
    return mat_to_json(sigma.mat)


def automorphism_from_json(A: Algebra, data) -> Automorphism:
    if data == "id":
        return Automorphism.identity(A)
    mat = mat_from_json(A.field, data, nrows=A.dim, ncols=A.dim)
    try:
        return Automorphism(A, mat)
    except AlgebraError as exc:
        raise FormatError(str(exc)) from None


def complex_to_json(X: PeriodicComplex):
    return {
        "n": X.n,
        "objects": [module_to_json(obj) for obj in X.objects],
        "maps": [mat_to_json(f.mat) for f in X.maps],
        "sigma": "id" if X.susp.is_identity() else automorphism_to_json(X.susp.sigma),
    }


def complex_from_json(A: Algebra, data) -> PeriodicComplex:
    for key in ("n", "objects", "maps"):
        if key not in data:
            raise FormatError(f"angle file is missing {key!r}")
    sigma = automorphism_from_json(A, data.get("sigma", "id"))
    susp = Suspension(A, sigma)
    objects = [module_from_json(A, obj) for obj in data["objects"]]
    if len(objects) != data["n"] or len(data["maps"]) != data["n"]:
        raise FormatError("objects/maps count does not match n")
    maps = []
    for i, mdata in enumerate(data["maps"]):
        src = objects[i]
        tgt = objects[i + 1] if i < data["n"] - 1 else susp.apply_module(objects[0])
        mat = mat_from_json(A.field, mdata, nrows=src.dim, ncols=tgt.dim)
        maps.append(ModuleMap(src, tgt, mat, check=False))
    from .complexes import ComplexError

    try:
        return PeriodicComplex(susp, objects, maps)
    except ComplexError as exc:
        raise FormatError(str(exc)) from None


def chain_map_to_json(phi: ChainMap):
    return [mat_to_json(p.mat) for p in phi.parts]


def context_to_json(ctx):
    from .verify import context_info

    cache = []
    for M, (T, rho) in ctx._resolve_cache.items():
        cache.append(
            {
                "module": module_to_json(M),
                "resolution": complex_to_json(T),
                "rho": mat_to_json(rho.mat),
            }
        )
    out = {
        "algebra": algebra_to_json(ctx.algebra),
        "info": context_info(ctx),
        "mode": ctx.mode,
        "n": ctx.n,
        "forced": ctx.forced,
        "cache": cache,
    }
    if ctx.mode == "local-ring":
        out["unit"] = [_fmt_scalar(ctx.algebra.field, c) for c in ctx.data["unit"]]
    if ctx.pretwist is not None:
        out["pretwist"] = [_fmt_scalar(ctx.algebra.field, c) for c in ctx.pretwist]
    return out


def context_from_json(data):
    from .engine import build_context

    A = algebra_from_json(data["algebra"])
    unit = None
    if "unit" in data:
        unit = tuple(_parse_scalar(A.field, c) for c in data["unit"])
    ctx = build_context(A, data["n"], data["mode"], unit=unit, force=data.get("forced", False))
    if data.get("pretwist"):
        ctx = ctx.twisted(tuple(_parse_scalar(A.field, c) for c in data["pretwist"]))
    for entry in data.get("cache", ()):
        M = module_from_json(A, entry["module"])
        T = complex_from_json(A, entry["resolution"])
        from .complexes import z1

        K, _incl = z1(T)
        rho = ModuleMap(M, K, mat_from_json(A.field, entry["rho"], nrows=M.dim, ncols=K.dim), check=False)
        ctx._resolve_cache[M] = (T, rho)
    return ctx


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def load_json_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from None


def save_json_file(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))
