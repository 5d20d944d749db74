"""JSON file formats for algebras, modules, maps, complexes and contexts.

Scalars serialize as integers over F_p and as "num/den" strings over Q;
a JSON float or boolean is refused.  All matrices are row-major nested
lists.  Serialization sorts keys so that identical inputs produce
byte-identical files.

Everything read is validated, never trusted: a module's actions must satisfy
the structure constants, every map of an angle and every user-supplied map
must intertwine the actions (a map that is not A-linear is a FormatError,
exit 2 at the command line), and a sigma must be an automorphism.

Each value is validated once per ``Algebra`` object.  Modules, module maps
and suspensions are interned in tables held weakly on the algebra's cache,
keyed by their parsed value (modules by dimension and actions, maps by
source, target and matrix, suspensions by sigma's matrix): a value equal to
one already loaded over the same algebra object is that object, and is not
checked again.  A value that fails validation is never stored.  Equal
values loaded over distinct (even equal) algebra objects stay distinct.
"""

from __future__ import annotations

import json
import weakref

from .linalg import Mat, field_by_name
from .algebras import Algebra, AlgebraError, Automorphism, Module, ModuleMap
from .complexes import ChainMap, ComplexError, PeriodicComplex, Suspension


class FormatError(ValueError):
    pass


_KINDS = {int: "an integer", str: "a string", list: "a list", dict: "a JSON object", bool: "true or false"}


def _fields(data, what, **kinds):
    """Refuse data that is not a JSON object whose every named key holds a value of its kind."""
    if not isinstance(data, dict):
        raise FormatError(f"{what} must be a JSON object")
    for key, kind in kinds.items():
        if key not in data:
            raise FormatError(f"{what} is missing {key!r}")
        if not isinstance(data[key], kind) or (isinstance(data[key], bool) and kind is int):
            raise FormatError(f"{what}: {key!r} must be {_KINDS[kind]}, not {data[key]!r}")


def _fmt_scalar(field, a):
    return field.fmt(a)


def _parse_scalar(field, s):
    if type(s) is int:
        return field.parse(s)
    if isinstance(s, (bool, float)):
        raise FormatError(f"bad scalar {s!r}: scalars are integers, or \"num/den\" strings over Q")
    try:
        return field.parse(s)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise FormatError(f"bad scalar {s!r}: {exc}") from None


def _interned(A: Algebra, kind, key, build):
    """The value of this kind stored under key for the algebra object A.

    On a miss, ``build()`` makes and validates the value, which is then
    stored.  A value that fails validation raises FormatError and is never
    stored, so it is refused on every load.  The table holds its values
    weakly: it keeps nothing alive on its own.
    """
    table = A._cache.get(kind)
    if table is None:
        table = A._cache[kind] = weakref.WeakValueDictionary()
    value = table.get(key)
    if value is None:
        try:
            value = table[key] = build()
        except AlgebraError as exc:
            raise FormatError(str(exc)) from None
    return value


def mat_to_json(mat: Mat):
    return [[_fmt_scalar(mat.field, a) for a in row] for row in mat.rows]


def _rows_from_json(field, data, nrows=None, ncols=None):
    """The parsed rows of a matrix, as a tuple of tuples, checked against the shape given."""
    if not isinstance(data, list) or any(not isinstance(r, list) for r in data):
        raise FormatError("matrix must be a list of rows")
    rows = tuple(tuple(_parse_scalar(field, a) for a in row) for row in data)
    if nrows is not None and len(rows) != nrows:
        raise FormatError(f"expected {nrows} rows, found {len(rows)}")
    if ncols is None and rows:
        ncols = len(rows[0])
    for row in rows:
        if len(row) != ncols:
            raise FormatError(f"expected {ncols} columns, found {len(row)}")
    return rows


def mat_from_json(field, data, nrows=None, ncols=None):
    return Mat(field, _rows_from_json(field, data, nrows, ncols), ncols or 0)


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
    _fields(data, "algebra file", field=str, dim=int, basis=list, unit=list, mult=list)
    try:
        field = field_by_name(data["field"])
    except ValueError as exc:
        raise FormatError(str(exc)) from None
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
        if not (type(i) is type(j) is int and 0 <= i < d and 0 <= j < d):
            raise FormatError(f"mult entry ({i}, {j}) out of range")
        if not isinstance(coords, list) or len(coords) != d:
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
    _fields(data, "module file", dim=int, action=dict)
    m = data["dim"]
    acts = []
    for label in A.labels:
        if label not in data["action"]:
            raise FormatError(f"module action is missing basis element {label!r}")
        acts.append(_rows_from_json(A.field, data["action"][label], nrows=m, ncols=m))
    acts = tuple(acts)
    return _interned(A, "io_modules", (m, acts), lambda: Module(A, m, [Mat(A.field, rows, m) for rows in acts]))


def module_map_from_json(source: Module, target: Module, data) -> ModuleMap:
    """A bare matrix read as a module map source -> target, checked to intertwine the actions."""
    F = source.algebra.field
    rows = _rows_from_json(F, data, nrows=source.dim, ncols=target.dim)
    return _interned(
        source.algebra, "io_maps", (source, target, rows), lambda: ModuleMap(source, target, Mat(F, rows, target.dim))
    )


def automorphism_to_json(sigma: Automorphism):
    return mat_to_json(sigma.mat)


def _suspension_from_json(A: Algebra, data) -> Suspension:
    """The suspension of an angle's "sigma": "id", or the matrix of an automorphism of A."""
    if data == "id":
        return Suspension.identity(A)
    rows = _rows_from_json(A.field, data, nrows=A.dim, ncols=A.dim)
    return _interned(A, "io_suspensions", rows, lambda: Suspension(A, Automorphism(A, Mat(A.field, rows, A.dim))))


def complex_to_json(X: PeriodicComplex):
    return {
        "n": X.n,
        "objects": [module_to_json(obj) for obj in X.objects],
        "maps": [mat_to_json(f.mat) for f in X.maps],
        "sigma": "id" if X.susp.is_identity() else automorphism_to_json(X.susp.sigma),
    }


def complex_from_json(A: Algebra, data) -> PeriodicComplex:
    _fields(data, "angle file", n=int, objects=list, maps=list)
    susp = _suspension_from_json(A, data.get("sigma", "id"))
    objects = [module_from_json(A, obj) for obj in data["objects"]]
    if len(objects) != data["n"] or len(data["maps"]) != data["n"]:
        raise FormatError("objects/maps count does not match n")
    maps = []
    for i, mdata in enumerate(data["maps"]):
        tgt = objects[i + 1] if i < data["n"] - 1 else susp.apply_module(objects[0])
        try:
            maps.append(module_map_from_json(objects[i], tgt, mdata))
        except FormatError as exc:
            raise FormatError(f"map {i}: {exc}") from None
    try:
        return PeriodicComplex(susp, objects, maps)
    except ComplexError as exc:
        raise FormatError(str(exc)) from None


def chain_map_to_json(phi: ChainMap):
    return [mat_to_json(p.mat) for p in phi.parts]


def chain_map_from_json(X: PeriodicComplex, Y: PeriodicComplex, data) -> ChainMap:
    """A list of n matrices read as a chain map X -> Y, each a module map, all squares commuting."""
    if not isinstance(data, list) or len(data) != X.n:
        raise FormatError(f"chain map must be a list of {X.n} matrices")
    parts = []
    for i, mdata in enumerate(data):
        try:
            parts.append(module_map_from_json(X.objects[i], Y.objects[i], mdata))
        except FormatError as exc:
            raise FormatError(f"chain map component {i}: {exc}") from None
    try:
        return ChainMap(X, Y, parts)
    except ComplexError as exc:
        raise FormatError(f"chain map: {exc}") from None


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


def _scalars_from_json(field, data, key, dim):
    if not isinstance(data, list) or len(data) != dim:
        raise FormatError(f"context {key!r} must be a list of {dim} scalars")
    return tuple(_parse_scalar(field, c) for c in data)


def context_from_json(data):
    from .engine import build_context

    _fields(data, "context file", algebra=dict, mode=str, n=int)
    opts = {"forced": False, "cache": [], **data}
    _fields(opts, "context file", forced=bool, cache=list)
    A = algebra_from_json(data["algebra"])
    unit = _scalars_from_json(A.field, data["unit"], "unit", A.dim) if "unit" in data else None
    ctx = build_context(A, data["n"], data["mode"], unit=unit, force=opts["forced"])
    if data.get("pretwist"):
        ctx = ctx.twisted(_scalars_from_json(A.field, data["pretwist"], "pretwist", A.dim))
    # the cached pairs are derived data: replay each module in file order,
    # which also rebuilds the iso-class reuse, and refuse a file that differs
    for i, entry in enumerate(opts["cache"]):
        try:
            _replay_cache_entry(ctx, entry)
        except FormatError as exc:
            raise FormatError(f"context cache entry {i}: {exc}") from None
    return ctx


def _replay_cache_entry(ctx, entry):
    from .engine import EngineError

    A = ctx.algebra
    _fields(entry, "entry", module=dict, resolution=dict, rho=list)
    M = module_from_json(A, entry["module"])
    T = complex_from_json(A, entry["resolution"])
    try:
        T0, rho0 = ctx._resolve_base(M)
    except (ComplexError, EngineError, AlgebraError) as exc:
        raise FormatError(f"cached module has no fixed resolution: {exc}") from None
    if T != T0:
        raise FormatError("cached resolution is not the context's fixed resolution of its module")
    if mat_from_json(A.field, entry["rho"], nrows=M.dim, ncols=rho0.target.dim) != rho0.mat:
        raise FormatError("cached rho is not the context's fixed isomorphism onto Z_1")


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
