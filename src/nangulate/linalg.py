"""Exact linear algebra over prime fields F_p and the rationals.

Everything downstream (algebras, modules, homotopy solvers) reduces to the
routines in this file, so the contract is strict: arithmetic is exact, row
reduction always picks the leftmost available pivot, and unsolvable systems
come with a certificate (a left null vector of A that does not kill B).

Matrices are immutable once built.  A matrix is stored row-major; entries are
plain ints in range(p) for F_p and `fractions.Fraction` for Q.  Either kind is
falsy exactly at zero, so hot loops test entries for zero by truthiness.

A reduction that needs no transform inserts row supports: `_rref_rows`
keys each row by its lowest column, reducing it by the lead rows it meets,
then clears the pivot columns from the highest pivot down.  F2 supports are
packed into ints and reduced by XOR; odd p and Q supports are dicts
{column: nonzero entry}.  `Mat.rref`, `solve_right`'s solvability test and
the hom-space systems (which build their rows as supports and never a dense
matrix) all take this route.  The RREF of a row space is unique, so it
gives the R and pivots of a column-by-column elimination.  Only a transform
T (`inverse` and the certificate of an unsolvable system) runs the list
loop, where T is the identity block appended past column n (over F2, bits
n..n+m-1), undergoing the same row operations while pivots are sought only
in the first n columns.  Sums c1 * M1 + c2 * M2 + ... go through
`linear_combination`, which, like the product, touches only nonzero entries
and reduces mod p once.

Echelon mark: the matrix `row_space_basis` returns carries its pivot columns.
Its rows are the nonzero rows of a reduced row echelon form, so they are
independent and hold the identity at the pivot columns.  Its `rref()` is
itself, and X @ A = B has at most one solution, read off B at the pivot
columns: `solve_xa_b` takes that X and keeps it only if X @ A == B, which
it checks at the free columns alone (the pivot columns agree already).  The
elimination route would return the same unique X, and None on exactly the
same inputs, so the mark changes no result, only its cost.
"""

from __future__ import annotations

from fractions import Fraction


# the most coefficient tuples (p ** k of them) an exhaustive search over F_p
# enumerates before it falls back on a partial one
ENUMERATION_LIMIT = 4096


class PrimeField:
    """F_p for a small prime p (p <= 97 is all we ever need)."""

    def __init__(self, p: int):
        if p < 2 or any(p % q == 0 for q in range(2, int(p**0.5) + 1)):
            raise ValueError(f"not a prime: {p}")
        if p > 97:
            raise ValueError(f"prime too large (max 97): {p}")
        self.p = p
        self.zero = 0
        self.one = 1 % p

    @property
    def name(self) -> str:
        return f"F{self.p}"

    def of_int(self, a) -> int:
        return int(a) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, -1, self.p)

    def parse(self, s) -> int:
        return int(s) % self.p

    def fmt(self, a):
        return a % self.p

    def elements(self):
        return range(self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return self.name


class RationalField:
    """Q with arbitrary-precision Fraction entries."""

    def __init__(self):
        self.p = 0
        self.zero = Fraction(0)
        self.one = Fraction(1)

    @property
    def name(self) -> str:
        return "Q"

    def of_int(self, a) -> Fraction:
        return Fraction(a)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / Fraction(a)

    def parse(self, s) -> Fraction:
        if isinstance(s, str) and "/" in s:
            num, den = s.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(s))

    def fmt(self, a):
        a = Fraction(a)
        if a.denominator == 1:
            return int(a)
        return f"{a.numerator}/{a.denominator}"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")

    def __repr__(self):
        return "Q"


QQ = RationalField()

_FIELDS = {"Q": QQ}


def field_by_name(name: str):
    if name in _FIELDS:
        return _FIELDS[name]
    if name.startswith("F"):
        f = PrimeField(int(name[1:]))
        _FIELDS[name] = f
        return f
    raise ValueError(f"unknown field {name!r} (use F<p> or Q)")


class Mat:
    """Immutable dense matrix over an exact field.

    Maps act on row vectors: a linear map k^m -> k^n is an m x n matrix F
    applied as v |-> v @ F, and `F @ G` is "apply F, then G".
    """

    # _pivots is the echelon mark: set only by row_space_basis, on a matrix
    # whose rows are already the nonzero rows of an RREF
    __slots__ = ("field", "nrows", "ncols", "rows", "_rref", "_pivots", "_hash", "_nz")

    def __init__(self, field, rows, ncols=None):
        self.field = field
        self.rows = rows = tuple(map(tuple, rows))
        self.nrows = len(rows)
        if rows:
            self.ncols = len(rows[0])
            if len(set(map(len, rows))) != 1:
                raise ValueError("ragged rows")
        else:
            if ncols is None:
                raise ValueError("empty matrix needs explicit ncols")
            self.ncols = ncols
        self._rref = None
        self._pivots = None
        self._hash = None
        self._nz = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_int_rows(field, rows, ncols=None):
        conv = field.of_int
        return Mat(field, [[conv(a) for a in r] for r in rows], ncols)

    @staticmethod
    def from_nonzeros(field, m, n, triples):
        """The m x n matrix with the distinct nonzero (i, j, value) entries given, kept as its nonzeros()."""
        rows = [[field.zero] * n for _ in range(m)]
        for i, j, a in triples:
            rows[i][j] = a
        M = Mat(field, rows, n)
        M._nz = tuple(triples)
        return M

    @staticmethod
    def zeros(field, m, n):
        z = field.zero
        return Mat(field, [[z] * n for _ in range(m)], n)

    @staticmethod
    def identity(field, n):
        z, o = field.zero, field.one
        return Mat(field, [[o if i == j else z for j in range(n)] for i in range(n)], n)

    # -- basic structure ---------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.field == other.field
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field, self.nrows, self.ncols, self.rows))
        return self._hash

    def __repr__(self):
        return f"Mat({self.field.name}, {self.nrows}x{self.ncols}, {list(map(list, self.rows))})"

    def row(self, i):
        return self.rows[i]

    def entry(self, i, j):
        return self.rows[i][j]

    def is_zero(self) -> bool:
        z = self.field.zero
        return all(a == z for r in self.rows for a in r)

    def to_lists(self):
        return [list(r) for r in self.rows]

    def nonzeros(self):
        """The nonzero entries as (i, j, value) triples, cached on the matrix."""
        if self._nz is None:
            self._nz = tuple((i, j, a) for i, r in enumerate(self.rows) for j, a in enumerate(r) if a)
        return self._nz

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        self._check_shape(other)
        add = self.field.add
        return Mat(
            self.field,
            [[add(a, b) for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
            self.ncols,
        )

    def __sub__(self, other):
        self._check_shape(other)
        sub = self.field.sub
        return Mat(
            self.field,
            [[sub(a, b) for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
            self.ncols,
        )

    def __neg__(self):
        neg = self.field.neg
        return Mat(self.field, [[neg(a) for a in r] for r in self.rows], self.ncols)

    def scale(self, c):
        mul = self.field.mul
        return Mat(self.field, [[mul(c, a) for a in r] for r in self.rows], self.ncols)

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}")
        F = self.field
        p = F.p
        # touch only nonzero products: row i of the result is the sum of
        # a * (row k of other) over the nonzero entries a = self[i][k], each
        # over that row's nonzeros; over F_p the sums are reduced once at the end
        support = [[(j, b) for j, b in enumerate(r) if b] for r in other.rows]
        out = []
        for r in self.rows:
            acc = [F.zero] * other.ncols
            for a, nz in zip(r, support):
                if a:
                    for j, b in nz:
                        acc[j] += a * b
            out.append([c % p for c in acc] if p else acc)
        return Mat(F, out, other.ncols)

    def transpose(self):
        if not self.nrows:
            return Mat(self.field, [[] for _ in range(self.ncols)] if self.ncols else [], 0)
        return Mat(self.field, list(zip(*self.rows)), self.nrows)

    def hstack(self, *others):
        """[self | others...]: the blocks side by side."""
        if any([o.nrows != self.nrows for o in others]):
            raise ValueError("hstack row mismatch")
        mats = (self,) + others
        return Mat(self.field, [sum(rs, ()) for rs in zip(*[m.rows for m in mats])], sum([m.ncols for m in mats]))

    def vstack(self, *others):
        """self above others..., in one pass over their rows."""
        if any([o.ncols != self.ncols for o in others]):
            raise ValueError("vstack col mismatch")
        return Mat(self.field, [r for m in (self,) + others for r in m.rows], self.ncols)

    @staticmethod
    def block_diag(field, blocks):
        m = sum(b.nrows for b in blocks)
        n = sum(b.ncols for b in blocks)
        z = field.zero
        rows = [[z] * n for _ in range(m)]
        i0 = j0 = 0
        for b in blocks:
            for i, r in enumerate(b.rows):
                rows[i0 + i][j0 : j0 + b.ncols] = list(r)
            i0 += b.nrows
            j0 += b.ncols
        return Mat(field, rows, n)

    @staticmethod
    def block(field, grid, row_dims, col_dims):
        """Assemble a matrix from a 2d grid of blocks (None = zero block)."""
        m, n = sum(row_dims), sum(col_dims)
        z = field.zero
        rows = [[z] * n for _ in range(m)]
        i0 = 0
        for bi, rd in enumerate(row_dims):
            j0 = 0
            for bj, cd in enumerate(col_dims):
                blk = grid[bi][bj]
                if blk is not None:
                    if blk.nrows != rd or blk.ncols != cd:
                        raise ValueError("block shape mismatch")
                    for i, r in enumerate(blk.rows):
                        rows[i0 + i][j0 : j0 + cd] = list(r)
                j0 += cd
            i0 += rd
        return Mat(field, rows, n)

    def submatrix(self, row_idx, col_idx):
        return Mat(
            self.field,
            [[self.rows[i][j] for j in col_idx] for i in row_idx],
            len(col_idx),
        )

    def flatten(self):
        """Row-major entry list."""
        return [a for r in self.rows for a in r]

    def _check_shape(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("shape mismatch")

    # -- reduction ---------------------------------------------------------

    def rref(self):
        """Reduced row echelon form with leftmost-pivot tie-breaking.

        Returns (R, pivots) and caches the result; a marked matrix (see
        row_space_basis) is its own RREF.
        """
        if self._pivots is not None:
            return self, self._pivots
        if self._rref is None:
            self._rref = _rref(self)
        return self._rref

    def rank(self) -> int:
        return len(self.rref()[1])

    def inverse(self):
        if self.nrows != self.ncols:
            raise ValueError("inverse of non-square matrix")
        n = self.nrows
        R, piv, T = _rref_with_transform(self)
        if len(piv) != n:
            raise ValueError("matrix not invertible")
        return T

    def is_invertible(self) -> bool:
        return self.nrows == self.ncols and self.rank() == self.nrows


# Byte <-> bit-character tables for the F2 packing: entry a becomes the digit
# of a & 1, and a digit character becomes the int 0 or 1.
_BITS_OF_BYTE = bytes(48 + (i & 1) for i in range(256))
_BYTE_OF_BIT = bytes.maketrans(b"01", b"\x00\x01")


def _pack_f2(rows, n):
    """Entry j of each row becomes bit j of an int (C-level conversion)."""
    if not n:
        return [0] * len(rows)
    table = _BITS_OF_BYTE
    return [int(bytes(row[::-1]).translate(table), 2) for row in rows]


def _unpack_f2(packed, n):
    """Inverse of _pack_f2: tuples of 0/1 ints of length n."""
    if not n:
        return [()] * len(packed)
    fmt = f"0{n}b"
    table = _BYTE_OF_BIT
    return [tuple(format(v, fmt)[::-1].encode().translate(table)) for v in packed]


def _rref_rows(F, rows):
    """The insertion kernel: (lead, pivots) of the RREF of the given rows.

    Over F2 a row is an int whose bit j is its entry at column j; over odd p
    and Q it is a dict {column: nonzero entry}, entries reduced, and it is
    consumed.  Each row is reduced by the lead rows it meets, lowest column
    first, until its lowest column has none; it is stored there, normalized.
    Every lead row then has entries only at and above its pivot, so clearing
    the pivot columns from the highest pivot down leaves each one clean.
    lead maps each pivot to its RREF row, in the rows' representation, and
    pivots ascend.  The RREF of a row space is unique, so these are the
    nonzero rows and pivots of the column-by-column elimination.
    """
    p = F.p
    lead = {}
    if p == 2:
        for v in rows:
            while v:
                c = (v & -v).bit_length() - 1
                if c not in lead:
                    lead[c] = v
                    break
                v ^= lead[c]
        pivots = sorted(lead)
        for k in range(len(pivots) - 1, 0, -1):
            bit = 1 << pivots[k]
            row = lead[pivots[k]]
            for c in pivots[:k]:
                if lead[c] & bit:
                    lead[c] ^= row
        return lead, pivots
    for row in rows:
        while row:
            c = min(row)
            if c not in lead:
                f = row[c]
                if f != 1:
                    inv = pow(f, -1, p) if p else F.one / f
                    row = {j: a * inv % p for j, a in row.items()} if p else {j: a * inv for j, a in row.items()}
                lead[c] = row
                break
            _subtract(row, row[c], lead[c], p)
    pivots = sorted(lead)
    for c in reversed(pivots):
        # the rows of the higher pivots are final: subtracting one clears
        # its pivot here and touches only free columns
        row = lead[c]
        for j in [j for j in row if j != c and j in lead]:
            _subtract(row, row[j], lead[j], p)
    return lead, pivots


def _subtract(row, f, lead_row, p):
    """row -= f * lead_row in place, over supports; zeros are dropped."""
    get = row.get
    if p:
        for j, b in lead_row.items():
            a = (get(j, 0) - f * b) % p
            if a:
                row[j] = a
            else:
                del row[j]
    else:
        for j, b in lead_row.items():
            a = get(j, 0) - f * b
            if a:
                row[j] = a
            else:
                del row[j]


def _bits(v):
    """The set bits of v, ascending."""
    out = []
    while v:
        low = v & -v
        out.append(low.bit_length() - 1)
        v ^= low
    return out


def rref_supports(F, rows):
    """_rref_rows for rows given as dicts {column: nonzero entry} over any field.

    Over F2 the supports are packed into ints by setting bits, and the lead
    rows come back as dicts, so callers read every field alike.
    """
    if F.p != 2:
        return _rref_rows(F, rows)
    lead, pivots = _rref_rows(F, [sum([1 << j for j in row]) for row in rows])
    return {c: dict.fromkeys(_bits(v), 1) for c, v in lead.items()}, pivots


def _rref(A: Mat):
    """(R, pivots) of A by the insertion kernel; R is m x n, zero rows last."""
    F = A.field
    m, n = A.nrows, A.ncols
    if F.p == 2:
        lead, pivots = _rref_rows(F, _pack_f2(A.rows, n))
        return Mat(F, _unpack_f2([lead[c] for c in pivots] + [0] * (m - len(pivots)), n), n), pivots
    lead, pivots = _rref_rows(F, [{j: a for j, a in enumerate(r) if a} for r in A.rows])
    z = F.zero
    rows = []
    for c in pivots:
        row = [z] * n
        for j, a in lead[c].items():
            row[j] = a
        rows.append(row)
    rows += [[z] * n] * (m - len(pivots))
    return Mat(F, rows, n), pivots


def _rref_with_transform(A: Mat):
    """The list loop: (R, pivots, T) with T @ A = R.

    Only a transform needs it.  T is the identity block appended past column
    n (over F2, bits n..n+m-1 of the packed rows), eliminated column by
    column with the rest while pivots are sought only in the first n
    columns; the block ends as T.  Over odd p and Q, once the lead row is
    normalized its support (the nonzero entries, all at columns >= the
    pivot) is collected, and each row that needs elimination is updated in
    place over that support only, reduced mod p over F_p.
    """
    F = A.field
    p = F.p
    m, n = A.nrows, A.ncols
    pivots = []
    r = 0
    if p == 2:
        packed = [v | 1 << (n + i) for i, v in enumerate(_pack_f2(A.rows, n))]
        for c in range(n):
            if r == m:
                break
            bit = 1 << c
            pr = next((i for i in range(r, m) if packed[i] & bit), None)
            if pr is None:
                continue
            packed[r], packed[pr] = packed[pr], packed[r]
            lead = packed[r]
            for i in range(m):
                if i != r and packed[i] & bit:
                    packed[i] ^= lead
            pivots.append(c)
            r += 1
        mask = (1 << n) - 1
        R = Mat(F, _unpack_f2([v & mask for v in packed], n), n)
        return R, pivots, Mat(F, _unpack_f2([v >> n for v in packed], m), m)
    width = n + m
    rows = [list(row) + [F.zero] * m for row in A.rows]
    for i, row in enumerate(rows):
        row[n + i] = F.one
    for c in range(n):
        if r == m:
            break
        pr = next((i for i in range(r, m) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        lead = rows[r]
        inv = pow(lead[c], -1, p) if p else 1 / Fraction(lead[c])
        support = [j for j in range(c, width) if lead[j]]
        if inv != 1:
            if p:
                for j in support:
                    lead[j] = lead[j] * inv % p
            else:
                for j in support:
                    lead[j] *= inv
        support = [(j, lead[j]) for j in support]
        for i in [i for i in range(m) if rows[i][c] and i != r]:
            row = rows[i]
            f = row[c]
            if p:
                for j, b in support:
                    row[j] = (row[j] - f * b) % p
            else:
                for j, b in support:
                    row[j] -= f * b
        pivots.append(c)
        r += 1
    return Mat(F, [row[:n] for row in rows], n), pivots, Mat(F, [row[n:] for row in rows], m)


def linear_combination(F, nrows, ncols, terms) -> Mat:
    """sum c * M over the (c, M) pairs of terms, each M nrows x ncols.

    Only nonzero c and nonzero entries of M are touched, and over F_p the
    sums are reduced once at the end, as in the product; the entries are
    those of the chain of additions M1.scale(c1) + M2.scale(c2) + ...
    """
    acc = [[F.zero] * ncols for _ in range(nrows)]
    for c, M in terms:
        if c:
            for row, mrow in zip(acc, M.rows):
                for j, a in enumerate(mrow):
                    if a:
                        row[j] += c * a
    p = F.p
    return Mat(F, [[a % p for a in row] for row in acc] if p else acc, ncols)


def null_right(A: Mat) -> Mat:
    """Basis of {x : A @ x = 0} as the columns of the returned matrix.

    Basis vectors are indexed by the free columns of rref(A) in increasing
    order, each normalized with a 1 in its free position.
    """
    F = A.field
    R, piv = A.rref()
    pivset = set(piv)
    free = [j for j in range(A.ncols) if j not in pivset]
    cols = []
    for j in free:
        v = [F.zero] * A.ncols
        v[j] = F.one
        for r, pc in enumerate(piv):
            v[pc] = F.neg(R.rows[r][j])
        cols.append(v)
    if not cols:
        return Mat(F, [[] for _ in range(A.ncols)] if A.ncols else [], 0)
    return Mat(F, list(zip(*cols)), len(cols))


def solve_right(A: Mat, B: Mat, want_cert=True):
    """Solve A @ X = B.

    Returns (X, None) on success, or (None, cert) when unsolvable; cert is a
    row vector v with v @ A = 0 and v @ B != 0.  Callers that only need to
    know solvability can switch the certificate off (it costs a second
    elimination); the kernel of A is null_right(A).
    """
    if A.nrows != B.nrows:
        raise ValueError("solve: A.rows must equal B.rows")
    F = A.field
    aug = A.hstack(B)
    R, piv = _rref(aug)
    bad = next((c for c in piv if c >= A.ncols), None)
    if bad is not None:
        cert = None
        if want_cert:
            _, piv2, T = _rref_with_transform(aug)
            r = piv2.index(bad)
            cert = Mat(F, [T.rows[r]], A.nrows)
        return None, cert
    z = F.zero
    xrows = [[z] * B.ncols for _ in range(A.ncols)]
    for r, pc in enumerate(piv):
        xrows[pc] = list(R.rows[r][A.ncols :])
    return Mat(F, xrows, B.ncols), None


def row_space_basis(A: Mat) -> Mat:
    """Nonzero rows of rref(A); deterministic basis of the row space.

    The result carries the echelon mark: its pivot columns, so that its own
    rref and solve_xa_b against it need no elimination.
    """
    R, piv = A.rref()
    basis = Mat(A.field, R.rows[: len(piv)], A.ncols)
    basis._pivots = piv
    return basis


def left_null_basis(A: Mat) -> Mat:
    """Rows spanning {v : v @ A = 0}."""
    K = null_right(A.transpose())
    return K.transpose()


def solve_xa_b(A: Mat, B: Mat):
    """Solve X @ A = B for X (row-vector world).  Returns X or None.

    Against a marked A (see row_space_basis) the only candidate is B read at
    the pivot columns; otherwise A is eliminated.  X @ A agrees with B at the
    pivot columns by construction, so only the free columns are compared.
    """
    piv = A._pivots
    if piv is not None:
        if A.ncols != B.ncols:
            raise ValueError("solve: A.rows must equal B.rows")
        F = A.field
        p = F.p
        X = Mat(F, [[r[c] for c in piv] for r in B.rows], A.nrows)
        pivset = set(piv)
        free = [j for j in range(A.ncols) if j not in pivset]
        support = [[(j, r[j]) for j in free if r[j]] for r in A.rows]
        for x, b in zip(X.rows, B.rows):
            acc = dict.fromkeys(free, F.zero)
            for a, nz in zip(x, support):
                if a:
                    for j, v in nz:
                        acc[j] += a * v
            if any((s % p if p else s) != b[j] for j, s in acc.items()):
                return None
        return X
    Xt, _ = solve_right(A.transpose(), B.transpose(), want_cert=False)
    if Xt is None:
        return None
    return Xt.transpose()


def vec_in_row_space(v, B: Mat):
    """Is the row vector v in the row space of B?  Returns coords or None."""
    V = Mat(B.field, [list(v)], B.ncols)
    X = solve_xa_b(B, V)
    return None if X is None else X.rows[0]
