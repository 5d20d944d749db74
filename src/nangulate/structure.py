"""Radicals, socles, idempotents, covers and envelopes.

The radical of an algebra over F_p is computed by a descending chain of
subspaces cut out by p-power trace forms evaluated on integer lifts of the
left-regular representation; over Q the plain trace form suffices.  An
algebra may instead carry a structural rule (``_cache["radical_rule"]``, a
callable with no arguments returning spanning rows of the radical); over F_p
it replaces the chain.  Enveloping algebras carry one: over a perfect field
J(A^op (x) A) = J(A)^op (x) A + A^op (x) J(A).  Every candidate is certified
at runtime: it must be a two-sided nilpotent ideal (which pins it below the
radical, while the chain and the tensor formula never cut below it), so an
incorrect answer cannot escape silently.

Primitive idempotents split the semisimple quotient by factoring minimal
polynomials of its elements: over F_p in-house (square-free decomposition,
then Berlekamp), over Q through sympy, imported only there.

Injective envelopes are computed in the selfinjective regime only, by
dualizing projective covers over the opposite algebra.  The per-module
results (radical, socle, top, cover, envelope, projectivity) are memoized on
the module's algebra object, never across equal but distinct algebras.
"""

from __future__ import annotations

from functools import wraps

from .linalg import ENUMERATION_LIMIT, Mat, PrimeField, left_null_basis, row_space_basis, solve_xa_b
from .algebras import (
    Algebra,
    AlgebraError,
    Module,
    ModuleMap,
    direct_sum_modules,
    hom_basis,
    quotient_by_rows,
    solve_in_hom,
    submodule_from_rows,
)


class UnsupportedRegime(AlgebraError):
    """Raised when the input is outside the supported (desk-scale) regime."""


class IdempotentLiftingIncomplete(UnsupportedRegime):
    """The semisimple quotient contains a block we cannot split over this field."""

    def __init__(self, message, partial):
        super().__init__(message)
        self.partial = partial


def _module_memo(fn):
    """Cache fn(M) in M.algebra._cache, keyed by the module.

    The memo lives on the algebra object, so a module equal to one over
    another (equal but distinct) algebra never receives that algebra's
    results, and the entries go when the algebra does.
    """
    key = ("module_memo", fn.__name__)

    @wraps(fn)
    def memoized(M: Module):
        memo = M.algebra._cache.setdefault(key, {})
        if M not in memo:
            memo[M] = fn(M)
        return memo[M]

    return memoized


# -- radical -------------------------------------------------------------------


def _trace(mat: Mat):
    F = mat.field
    t = F.zero
    for i in range(mat.nrows):
        t = F.add(t, mat.rows[i][i])
    return t


def _int_power_trace_mod(rows, power, modulus):
    """trace(L^power) mod modulus for an integer matrix L, by square-and-multiply."""
    n = len(rows)
    if n == 0:
        return 0

    def mul(a, b):
        cols = list(zip(*b))
        return [[sum(x * y for x, y in zip(r, c)) % modulus for c in cols] for r in a]

    result = None
    base = [[a % modulus for a in r] for r in rows]
    e = power
    while e:
        if e & 1:
            result = base if result is None else mul(result, base)
        e >>= 1
        if e:
            base = mul(base, base)
    return sum(result[i][i] for i in range(n)) % modulus


def _subspace_is_ideal(A: Algebra, basis: Mat) -> bool:
    """Every product v*b_i and b_i*v of a row v with a basis vector stays in the span.

    One rank test: stacking all products under the rows must not raise the rank.
    """
    prods = []
    for v in basis.rows:
        for i in range(A.dim):
            b = A.basis_vector(i)
            prods.append(A.multiply(v, b))
            prods.append(A.multiply(b, v))
    return Mat(A.field, basis.rows + tuple(prods), A.dim).rank() == basis.rank()


def _subspace_is_nilpotent(A: Algebra, basis: Mat) -> bool:
    cur = basis
    for _ in range(A.dim + 1):
        if cur.nrows == 0:
            return True
        prods = []
        for r in range(cur.nrows):
            for s in range(basis.nrows):
                prods.append(list(A.multiply(tuple(cur.rows[r]), tuple(basis.rows[s]))))
        cur = row_space_basis(Mat(A.field, prods, A.dim))
    return cur.nrows == 0


def algebra_radical(A: Algebra) -> Mat:
    """Row basis of the Jacobson radical of A.  Cached on the algebra."""
    if "radical" in A._cache:
        return A._cache["radical"]
    F = A.field
    d = A.dim
    rule = A._cache.get("radical_rule")
    if isinstance(F, PrimeField) and rule is not None:
        # F_p is perfect, so the structural rule spans exactly the radical;
        # Q keeps Dickson's criterion below, whose basis is not in RREF.
        rad = row_space_basis(Mat(F, rule(), d))
    elif isinstance(F, PrimeField):
        p = F.p
        # Descending chain cut out by the p-power trace forms on integer lifts.
        # The chain never cuts below the radical (products inside the radical
        # act nilpotently, and nilpotent matrices have all p-power traces
        # divisible by p^{j+1}); certification below pins it from above.
        space = Mat.identity(F, d)
        j = 0
        while True:
            m = space.nrows
            if m == 0:
                break
            modulus = p ** (j + 1)
            gram_rows = []
            for s in range(m):
                row = []
                for t in range(m):
                    z = A.multiply(tuple(space.rows[s]), tuple(space.rows[t]))
                    lz = [[int(a) % p for a in A.multiply(z, A.basis_vector(r))] for r in range(d)]
                    # left-mult matrix rows: b_r |-> z * b_r, entries lifted to Z
                    val = _int_power_trace_mod(lz, p**j, modulus)
                    if val % (p**j):
                        raise AlgebraError("radical chain invariant violated (trace not divisible)")
                    row.append((val // (p**j)) % p)
                gram_rows.append(row)
            gram = Mat(F, gram_rows, m)
            ker = left_null_basis(gram)  # rows in current-space coordinates
            new_space = row_space_basis(ker @ space) if ker.nrows else Mat(F, [], ncols=d)
            shrank = new_space.nrows < space.nrows
            space = new_space
            if not shrank and p**j >= d:
                break
            j += 1
        rad = space
    else:
        # Dickson's criterion in characteristic zero.
        gram_rows = []
        for i in range(d):
            row = []
            for jj in range(d):
                z = A.mult[i][jj]
                lz = A.left_mult_mat(z)
                row.append(_trace(lz))
            gram_rows.append(row)
        rad = left_null_basis(Mat(F, gram_rows, d))
    if not _subspace_is_ideal(A, rad) or not _subspace_is_nilpotent(A, rad):
        raise AlgebraError("radical certification failed")
    A._cache["radical"] = rad
    return rad


def is_semisimple(A: Algebra) -> bool:
    return algebra_radical(A).nrows == 0


# -- radical / socle / top of modules -----------------------------------------


@_module_memo
def radical_module(M: Module):
    """(rad M, inclusion); rad M = M * rad(A)."""
    A = M.algebra
    rad = algebra_radical(A)
    if M.dim == 0 or rad.nrows == 0:
        Z = Module.zero(A)
        return Z, ModuleMap(Z, M, Mat(A.field, [], ncols=M.dim), check=False)
    return submodule_from_rows(M, Mat.vstack(*(M.act(r) for r in rad.rows)), closed=False)


@_module_memo
def socle_module(M: Module):
    """(soc M, inclusion); soc M = {m : m * rad(A) = 0}."""
    A = M.algebra
    rad = algebra_radical(A)
    if M.dim == 0:
        Z = Module.zero(A)
        return Z, ModuleMap(Z, M, Mat(A.field, [], ncols=M.dim), check=False)
    if rad.nrows == 0:
        return M, ModuleMap.identity(M)
    rows = left_null_basis(Mat.hstack(*(M.act(r) for r in rad.rows)))
    return submodule_from_rows(M, rows, closed=True)


@_module_memo
def top_module(M: Module):
    """(top M, projection) where top M = M / rad M."""
    _, incl = radical_module(M)
    return quotient_by_rows(M, incl.mat)


# -- idempotents ----------------------------------------------------------------


def _factor_poly(field, coeffs):
    """Distinct monic irreducible factors with multiplicities, low-first.

    Returns [(factor coefficients, multiplicity), ...] sorted by degree, then
    by the coefficients' text.  Over F_p the factorization is computed here,
    deterministically: a square-free decomposition (which handles f' = 0,
    i.e. f = g(x^p)), then Berlekamp's algorithm on each square-free part.
    Over Q it goes through sympy, imported lazily, since Berlekamp needs a
    finite field.  The import is rarely paid: a local algebra over Q (such
    as Q[x]/(x^3)) has a one-dimensional semisimple quotient, which is never
    factored, so only a Q-algebra whose semisimple quotient has dimension
    >= 2 reaches it.
    """
    if isinstance(field, PrimeField):
        out = [
            (tuple(fac), mult)
            for part, mult in _squarefree_parts(field, _poly_monic(field, coeffs))
            for fac in _berlekamp(field, part)
        ]
    else:
        import sympy

        x = sympy.Symbol("x")
        poly = sympy.Poly([sympy.Rational(c) for c in reversed(coeffs)], x, domain=sympy.QQ)
        out = []
        for fac, mult in poly.factor_list()[1]:
            cs = [field.parse(str(c)) for c in reversed(fac.all_coeffs())]
            out.append((tuple(_poly_monic(field, cs)), mult))
    out.sort(key=lambda t: (len(t[0]), tuple(str(c) for c in t[0])))
    return out


def _poly_monic(field, a):
    """a with trailing zeros dropped, scaled to leading coefficient one."""
    a = list(a)
    while len(a) > 1 and a[-1] == field.zero:
        a.pop()
    if a[-1] == field.zero or a[-1] == field.one:
        return a
    inv = field.inv(a[-1])
    return [field.mul(inv, c) for c in a]


def _squarefree_parts(field, f):
    """[(g, m), ...]: f = prod g^m over F_p, the g square-free, monic and coprime.

    Yun's decomposition on the separable part; what is left is a p-th power,
    whose root (a polynomial in x^p read as one in x, since a^p = a on F_p)
    is decomposed in turn with multiplicities scaled by p.
    """
    p = field.p
    if len(f) == 1:
        return []
    df = _poly_monic(field, [field.mul(i % p, c) for i, c in enumerate(f)][1:])
    if df == [field.zero]:
        return [(g, m * p) for g, m in _squarefree_parts(field, f[::p])]
    out = []
    c = _poly_gcdex(field, f, df)[0]
    w = _poly_divmod(field, f, c)[0]
    i = 1
    while len(w) > 1:
        y = _poly_gcdex(field, w, c)[0]
        fac = _poly_divmod(field, w, y)[0]
        if len(fac) > 1:
            out.append((fac, i))
        w = y
        c = _poly_divmod(field, c, y)[0]
        i += 1
    if len(c) > 1:
        out.extend((g, m * p) for g, m in _squarefree_parts(field, c[::p]))
    return out


def _berlekamp(field, f):
    """Monic irreducible factors of a monic square-free f over F_p.

    The polynomials v of degree < deg f with v^p = v mod f form the null
    space of Q - I, where row i of Q holds x^(ip) mod f.  Its dimension is
    the number of irreducible factors, and gcd(u, v - s) over s in F_p splits
    any reducible factor u for some basis vector v.
    """
    F = field
    d = len(f) - 1
    if d <= 1:
        return [f]
    xp = _poly_divmod(F, [F.zero] * F.p + [F.one], f)[1]
    rows, cur = [], [F.one]
    for _ in range(d):
        rows.append(cur + [F.zero] * (d - len(cur)))
        cur = _poly_divmod(F, _poly_mul(F, cur, xp), f)[1]
    null = left_null_basis(Mat(F, rows, d) - Mat.identity(F, d))
    factors = [f]
    for v in null.rows:
        if len(factors) == null.nrows:
            break
        split = []
        for u in factors:
            for s in F.elements():
                if len(u) == 1:
                    break
                g = _poly_gcdex(F, u, _poly_sub(F, v, [s]))[0]
                if len(g) > 1:
                    split.append(g)
                    u = _poly_divmod(F, u, g)[0]
        factors = split
    return factors


def _poly_mul(field, a, b):
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == field.zero:
            continue
        for j, bj in enumerate(b):
            out[i + j] = field.add(out[i + j], field.mul(ai, bj))
    return out


def _poly_divmod(field, a, b):
    a = list(a)
    deg_b = len(b) - 1
    inv_lead = field.inv(b[-1])
    q = [field.zero] * max(len(a) - deg_b, 0)
    while len(a) - 1 >= deg_b and any(c != field.zero for c in a):
        if a[-1] == field.zero:
            a.pop()
            continue
        shift = len(a) - 1 - deg_b
        c = field.mul(a[-1], inv_lead)
        q[shift] = c
        for i, bi in enumerate(b):
            a[shift + i] = field.sub(a[shift + i], field.mul(c, bi))
        a.pop()
    while len(a) > 1 and a[-1] == field.zero:
        a.pop()
    return q or [field.zero], a


def _poly_gcdex(field, a, b):
    """(g, s, t) with s*a + t*b = g, g monic."""
    r0, r1 = list(a), list(b)
    s0, s1 = [field.one], [field.zero]
    t0, t1 = [field.zero], [field.one]
    while any(c != field.zero for c in r1):
        q, r = _poly_divmod(field, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _poly_sub(field, s0, _poly_mul(field, q, s1))
        t0, t1 = t1, _poly_sub(field, t0, _poly_mul(field, q, t1))
    lead = r0[-1]
    if lead != field.one and lead != field.zero:
        inv = field.inv(lead)
        r0 = [field.mul(inv, c) for c in r0]
        s0 = [field.mul(inv, c) for c in s0]
        t0 = [field.mul(inv, c) for c in t0]
    return r0, s0, t0


def _poly_sub(field, a, b):
    n = max(len(a), len(b))
    a = list(a) + [field.zero] * (n - len(a))
    b = list(b) + [field.zero] * (n - len(b))
    out = [field.sub(x, y) for x, y in zip(a, b)]
    while len(out) > 1 and out[-1] == field.zero:
        out.pop()
    return out


def _split_by_element(A: Algebra, unit, z):
    """Try to split the unital subalgebra at z into CRT idempotents.

    unit is the identity of the (corner) algebra under consideration; returns
    a list of >= 2 orthogonal idempotents summing to unit, or None.  The CRT
    moduli are the primary parts f^m of the minimal polynomial mu, so a
    repeated factor (a nilpotent or unipotent part of z, as in M_r(F_q))
    still splits: each e is 1 mod its own f^m and 0 mod the others, hence
    mu divides e^2 - e and the e are idempotents of F[z].
    """
    F = A.field
    mu = _min_poly_coeffs_rel(A, unit, z)
    factors = _factor_poly(F, mu)
    if len(factors) < 2:
        return None
    idems = []
    for fac, mult in factors:
        q = [F.one]
        for _ in range(mult):
            q = _poly_mul(F, q, list(fac))
        co, _ = _poly_divmod(F, mu, q)
        g, s, _ = _poly_gcdex(F, co, q)
        if len(g) != 1 or g[0] != F.one:
            raise AlgebraError("cofactor not invertible modulo factor")
        e_poly = _poly_mul(F, co, s)
        # evaluate at z relative to the corner unit
        e = _poly_eval_rel(A, unit, e_poly, z)
        idems.append(e)
    return idems


def _min_poly_coeffs_rel(A: Algebra, unit, z):
    """Minimal polynomial of z with constant term against the given unit."""
    F = A.field
    powers = [unit]
    cur = unit
    while True:
        rows = Mat(F, [list(v) for v in powers], A.dim)
        cur = A.multiply(cur, z)
        sol = solve_xa_b(rows, Mat(F, [list(cur)], A.dim))
        if sol is not None:
            return [F.neg(c) for c in sol.rows[0]] + [F.one]
        powers.append(cur)


def _poly_eval_rel(A: Algebra, unit, coeffs, z):
    F = A.field
    acc = tuple(F.zero for _ in range(A.dim))
    for c in reversed(coeffs):
        acc = A.multiply(acc, z)
        if c:
            acc = tuple(F.add(a, F.mul(c, u)) for a, u in zip(acc, unit))
    return acc


def _corner_candidates(A: Algebra, unit, basis_rows):
    """Deterministic stream of candidate elements of a corner subalgebra."""
    F = A.field
    vecs = [tuple(r) for r in basis_rows]
    for v in vecs:
        yield v
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            yield tuple(F.add(a, b) for a, b in zip(vecs[i], vecs[j]))
    if isinstance(F, PrimeField) and F.p ** len(vecs) <= ENUMERATION_LIMIT:
        import itertools

        for coeffs in itertools.product(range(F.p), repeat=len(vecs)):
            acc = [F.zero] * A.dim
            for c, v in zip(coeffs, vecs):
                if c:
                    for k in range(A.dim):
                        acc[k] = F.add(acc[k], F.mul(c, v[k]))
            yield tuple(acc)


def _semisimple_primitive_idempotents(A: Algebra, unit, basis_rows):
    """Primitive idempotents of a semisimple corner unit*A*unit.

    basis_rows spans the corner as a subspace of A.  Splits commutative
    directions by factoring minimal polynomials; raises when a block resists.
    """
    F = A.field
    if basis_rows.nrows == 0:
        return []
    if basis_rows.nrows == 1:
        return [unit]
    for z in _corner_candidates(A, unit, basis_rows.rows):
        if all(c == F.zero for c in z):
            continue
        parts = _split_by_element(A, unit, z)
        if parts:
            out = []
            for e in parts:
                corner = _corner_subspace(A, e)
                out.extend(_semisimple_primitive_idempotents(A, e, corner))
            return out
    # no splitting element: corner should be a division algebra; by Wedderburn
    # over finite fields that means a field, so a commutative check suffices
    vecs = [tuple(r) for r in basis_rows.rows]
    commutative = all(
        A.multiply(u, v) == A.multiply(v, u) for i, u in enumerate(vecs) for v in vecs[i + 1 :]
    )
    if commutative:
        return [unit]
    raise IdempotentLiftingIncomplete(
        "idempotent lifting incomplete: a non-commutative block admits no "
        "splitting element over this field",
        partial=[unit],
    )


def _corner_subspace(A: Algebra, e) -> Mat:
    rows = []
    for i in range(A.dim):
        b = A.basis_vector(i)
        rows.append(list(A.multiply(A.multiply(e, b), e)))
    return row_space_basis(Mat(A.field, rows, A.dim))


def quotient_algebra(A: Algebra, ideal_rows: Mat):
    """(Abar, pi: Mat dim x q, section rows q x dim) for A / ideal."""
    F = A.field
    r = ideal_rows.nrows
    q = A.dim - r
    _, piv = ideal_rows.rref()
    free = [j for j in range(A.dim) if j not in piv]
    comp = Mat(F, [[F.one if j == c else F.zero for j in range(A.dim)] for c in free], A.dim)
    full = ideal_rows.vstack(comp) if r else comp
    inv = full.inverse()
    pi = inv.submatrix(range(A.dim), range(r, A.dim))
    mult = []
    for i in range(q):
        plane = []
        for j in range(q):
            prod = A.multiply(tuple(comp.rows[i]), tuple(comp.rows[j]))
            plane.append(list((Mat(F, [list(prod)], A.dim) @ pi).rows[0]))
        mult.append(plane)
    unit_q = list((Mat(F, [list(A.unit)], A.dim) @ pi).rows[0])
    Abar = Algebra(F, mult, unit_q, check=False)
    return Abar, pi, comp


def _newton_lift_idempotent(A: Algebra, x):
    """Iterate e <- 3e^2 - 2e^3 until exactly idempotent."""
    F = A.field
    three = F.of_int(3)
    two = F.of_int(2)
    e = x
    for _ in range(64):
        e2 = A.multiply(e, e)
        if e2 == e:
            return e
        e3 = A.multiply(e2, e)
        e = tuple(F.sub(F.mul(three, a), F.mul(two, b)) for a, b in zip(e2, e3))
    raise AlgebraError("idempotent lifting did not converge")


def primitive_idempotents(A: Algebra):
    """Complete list of orthogonal primitive idempotents summing to 1. Cached."""
    if "idempotents" in A._cache:
        return A._cache["idempotents"]
    F = A.field
    rad = algebra_radical(A)
    if rad.nrows == 0:
        idems = _semisimple_primitive_idempotents(A, A.unit, Mat.identity(F, A.dim))
    else:
        Abar, pi, section = quotient_algebra(A, rad)
        bar_idems = _semisimple_primitive_idempotents(
            Abar, Abar.unit, Mat.identity(F, Abar.dim)
        )
        idems = []
        s = tuple(F.zero for _ in range(A.dim))
        one = A.unit
        for ebar in bar_idems:
            # section rows give representatives: ebar coords combine section rows
            lift = [F.zero] * A.dim
            for c, row in zip(ebar, section.rows):
                if c != F.zero:
                    for k in range(A.dim):
                        lift[k] = F.add(lift[k], F.mul(c, row[k]))
            x = tuple(lift)
            comp = tuple(F.sub(a, b) for a, b in zip(one, s))
            x = A.multiply(A.multiply(comp, x), comp)
            e = _newton_lift_idempotent(A, x)
            idems.append(e)
            s = tuple(F.add(a, b) for a, b in zip(s, e))
    # certify: orthogonal, idempotent, summing to 1
    total = tuple(F.zero for _ in range(A.dim))
    for i, e in enumerate(idems):
        if A.multiply(e, e) != e:
            raise AlgebraError("lifted element is not idempotent")
        for j, f in enumerate(idems):
            if i != j:
                zero = tuple(F.zero for _ in range(A.dim))
                if A.multiply(e, f) != zero or A.multiply(f, e) != zero:
                    raise AlgebraError("idempotents are not orthogonal")
        total = tuple(F.add(a, b) for a, b in zip(total, e))
    if total != A.unit:
        raise AlgebraError("idempotents do not sum to 1")
    A._cache["idempotents"] = idems
    return idems


# -- projectives, covers, envelopes ---------------------------------------------


def principal_projective(A: Algebra, e):
    """The right module e*A with its inclusion rows into A.  Returns (P, rows)."""
    rows = Mat(A.field, [list(A.multiply(e, A.basis_vector(r))) for r in range(A.dim)], A.dim)
    P, incl = submodule_from_rows(A.regular_module(), rows, closed=False)
    return P, incl


def projective_indecomposables(A: Algebra):
    """[(e, P_i, incl into regular module, S_i simple top, top proj)] cached."""
    if "proj_indec" in A._cache:
        return A._cache["proj_indec"]
    out = []
    for e in primitive_idempotents(A):
        P, incl = principal_projective(A, e)
        S, proj = top_module(P)
        out.append((e, P, incl, S, proj))
    A._cache["proj_indec"] = out
    return out


def simple_modules(A: Algebra):
    """Distinct simples up to isomorphism, as (S, index list of idempotents)."""
    if "simples" in A._cache:
        return A._cache["simples"]
    data = projective_indecomposables(A)
    reps = []
    for idx, (_, _, _, S, _) in enumerate(data):
        placed = False
        for rep in reps:
            T = rep[0]
            if S.dim == T.dim and len(hom_basis(S, T)) > 0:
                rep[1].append(idx)
                placed = True
                break
        if not placed:
            reps.append([S, [idx]])
    A._cache["simples"] = [(S, tuple(ix)) for S, ix in reps]
    return A._cache["simples"]


class Cover:
    """A projective cover P -> M with its summand bookkeeping.

    summands[k] = (idempotent index, e_iA module); P is their direct sum in
    that order, epi is the covering map, and incls/projs address the summands.
    """

    def __init__(self, P, epi, summands, incls, projs):
        self.P = P
        self.epi = epi
        self.summands = summands
        self.incls = incls
        self.projs = projs


@_module_memo
def projective_cover(M: Module) -> Cover:
    """Minimal projective cover, built from the top of M."""
    A = M.algebra
    F = A.field
    data = projective_indecomposables(A)
    idems = primitive_idempotents(A)
    T, proj = top_module(M)
    if T.dim == 0:
        if M.dim != 0:
            raise AlgebraError("nonzero module equals its own radical")
        Z = Module.zero(A)
        return Cover(Z, ModuleMap(Z, M, Mat(F, [], ncols=M.dim), check=False), [], [], [])
    # pick generators adapted to the idempotent decomposition of the top;
    # a vector of the e_i-weight space generates a single copy of the simple
    # top(e_i A) (which may have dimension > 1 when the top does not split),
    # so select greedily by module closure rather than one per basis vector
    from .algebras import closure_under_action
    from .linalg import vec_in_row_space

    gens = []  # (idempotent index, generator row in M)
    covered = Mat(F, [], ncols=T.dim)
    for i, e in enumerate(idems):
        eT = T.act(e)
        basis_rows = row_space_basis(eT)
        for r in range(basis_rows.nrows):
            v = basis_rows.rows[r]
            if covered.nrows and vec_in_row_space(v, covered) is not None:
                continue
            copy = closure_under_action(T, Mat(F, [list(v)], T.dim))
            covered = row_space_basis(copy if covered.nrows == 0 else covered.vstack(copy))
            t = Mat(F, [list(v)], T.dim)
            sol = solve_xa_b(proj.mat, t)
            if sol is None:
                raise AlgebraError("top projection is not surjective")
            # multiply the lift by e so the generator sits in M*e
            m_row = (sol @ M.act(e)).rows[0]
            gens.append((i, m_row))
    if covered.nrows != T.dim:
        raise AlgebraError("generator selection did not cover the top")
    summands = []
    blocks = []
    for i, m_row in gens:
        e, P_i, incl_i, _, _ = data[i]
        summands.append((i, P_i))
        rows = []
        for r in range(P_i.dim):
            elem = tuple(incl_i.mat.rows[r])  # element of A
            img = (Mat(F, [list(m_row)], M.dim) @ M.act(elem)).rows[0]
            rows.append(list(img))
        blocks.append(Mat(F, rows, M.dim))
    P, incls, projs = direct_sum_modules([s[1] for s in summands])
    epi_mat = Mat.vstack(*blocks)
    epi = ModuleMap(P, M, epi_mat, check=False)
    if epi.rank() != M.dim:
        raise AlgebraError("constructed cover is not surjective")
    topP, _ = top_module(P)
    if topP.dim != T.dim:
        raise AlgebraError("constructed cover is not minimal")
    return Cover(P, epi, summands, incls, projs)


@_module_memo
def is_projective(M: Module) -> bool:
    if M.dim == 0:
        return True
    cover = projective_cover(M)
    return cover.P.dim == M.dim


def dual_module(M: Module) -> Module:
    """D(M) = Hom_k(M, k) as a right module over the opposite algebra."""
    Aop = M.algebra.opposite()
    return Module(Aop, M.dim, [a.transpose() for a in M.action], check=False)


def is_selfinjective(A: Algebra) -> bool:
    """Socle test: soc(P_i) simple and P |-> soc(P) injective on iso-classes."""
    if "selfinjective" in A._cache:
        return A._cache["selfinjective"]
    result = True
    simples = simple_modules(A)
    reps = {}  # iso-class index of projective -> iso-class index of its socle
    for cls_idx, (S, idxs) in enumerate(simples):
        _, P, _, _, _ = projective_indecomposables(A)[idxs[0]]
        soc, _ = socle_module(P)
        soc_cls = None
        for t_idx, (T, _) in enumerate(simples):
            if soc.dim == T.dim and len(hom_basis(T, soc)) > 0:
                soc_cls = t_idx
                break
        if soc_cls is None:
            result = False
            break
        reps[cls_idx] = soc_cls
    if result:
        result = len(set(reps.values())) == len(reps)
    A._cache["selfinjective"] = result
    return result


@_module_memo
def injective_envelope(M: Module):
    """(I, mono: M -> I) in the selfinjective regime; refuses otherwise."""
    A = M.algebra
    if not is_selfinjective(A):
        raise UnsupportedRegime("injective envelopes require a selfinjective algebra")
    DM = dual_module(M)
    cover = projective_cover(DM)
    # dualize: mono M = D(DM) -> D(P); D over A^op lands back над A
    I = dual_module(cover.P)
    mono = ModuleMap(M, I, cover.epi.mat.transpose(), check=False)
    # minimality certificate: socle of M maps onto socle of I
    socM, inclM = socle_module(M)
    socI, inclI = socle_module(I)
    if socM.dim != socI.dim:
        raise AlgebraError("envelope is not minimal")
    return I, mono


# -- stable maps -----------------------------------------------------------------


def stable_zero_witness(f: ModuleMap):
    """kappa: I_M -> N with f = mono . kappa, or None if f is not stably zero.

    A map factors through some projective iff it factors through the injective
    envelope of its source (envelopes are projective here).
    """
    M = f.source
    if M.dim == 0:
        Z = Module.zero(M.algebra)
        return ModuleMap(Z, f.target, Mat(M.algebra.field, [], ncols=f.target.dim), check=False)
    I, mono = injective_envelope(M)
    kappa = solve_in_hom(I, f.target, mono.mat, None, f.mat)
    return None if kappa is None else ModuleMap(I, f.target, kappa, check=False)


def stable_equal(f: ModuleMap, g: ModuleMap) -> bool:
    if f.source != g.source or f.target != g.target:
        raise AlgebraError("stable comparison needs equal sources and targets")
    return stable_zero_witness(f - g) is not None


# -- splitting through the image ------------------------------------------------


def split_through_image(f: ModuleMap):
    """(onto, incl, section, retraction) through the image of f, or None.

    onto.then(incl) == f, section.then(onto) == id_W and
    incl.then(retraction) == id_W; None when f does not split that way.
    """
    from .algebras import image

    W, incl, onto = image(f)
    Iw = Mat.identity(f.source.algebra.field, W.dim)
    section = solve_in_hom(W, f.source, None, onto.mat, Iw)
    retraction = solve_in_hom(f.target, W, incl.mat, None, Iw)
    if section is None or retraction is None:
        return None
    return onto, incl, ModuleMap(W, f.source, section, check=False), ModuleMap(f.target, W, retraction, check=False)

