"""Constructors for the small algebras the workbench is exercised on."""

from __future__ import annotations

from .algebras import Algebra, Automorphism, Module, ModuleMap, kernel
from .linalg import Mat, field_by_name


def truncated_polynomial_algebra(field, power=2) -> Algebra:
    """k[x]/(x^power) with basis 1, x, ..., x^{power-1}."""
    d = power
    F = field if not isinstance(field, str) else field_by_name(field)
    mult = []
    for i in range(d):
        plane = []
        for j in range(d):
            vec = [F.zero] * d
            if i + j < d:
                vec[i + j] = F.one
            plane.append(vec)
        mult.append(plane)
    unit = [F.one] + [F.zero] * (d - 1)
    labels = ["1"] + ["x" if k == 1 else f"x^{k}" for k in range(1, d)]
    return Algebra(F, mult, unit, labels)


def dual_numbers(field) -> Algebra:
    """k[x]/(x^2), the square-zero local ring used throughout."""
    return truncated_polynomial_algebra(field, 2)


def product_of_fields(field, count=2) -> Algebra:
    """k x k x ... x k with the coordinatewise product."""
    F = field if not isinstance(field, str) else field_by_name(field)
    d = count
    mult = []
    for i in range(d):
        plane = []
        for j in range(d):
            vec = [F.zero] * d
            if i == j:
                vec[i] = F.one
            plane.append(vec)
        mult.append(plane)
    unit = [F.one] * d
    labels = [f"e{i+1}" for i in range(d)]
    return Algebra(F, mult, unit, labels)


def path_algebra_a2(field) -> Algebra:
    """Path algebra of the quiver 1 -> 2: upper-triangular 2x2 matrices.

    Basis e1, e2, a with a = e1 * a * e2; not selfinjective.
    """
    F = field if not isinstance(field, str) else field_by_name(field)
    z, o = F.zero, F.one
    # indices: 0 = e1, 1 = e2, 2 = a
    table = {
        (0, 0): [o, z, z],
        (0, 2): [z, z, o],
        (1, 1): [z, o, z],
        (2, 1): [z, z, o],
    }
    mult = [[list(table.get((i, j), [z, z, z])) for j in range(3)] for i in range(3)]
    unit = [o, o, z]
    return Algebra(F, mult, unit, labels=["e1", "e2", "a"])


def nakayama_two_cycle(field) -> Algebra:
    """Selfinjective Nakayama algebra of the 2-cycle with rad^2 = 0.

    Basis e1, e2, a, b with e1 a e2 = a, e2 b e1 = b and ab = ba = 0.  Its
    bimodule syzygy at n = 3 is twisted by the automorphism swapping the
    idempotents, so it is quasi-periodic but not periodic.
    """
    F = field if not isinstance(field, str) else field_by_name(field)
    z, o = F.zero, F.one
    # indices: 0 = e1, 1 = e2, 2 = a, 3 = b
    table = {
        (0, 0): [o, z, z, z],
        (1, 1): [z, o, z, z],
        (0, 2): [z, z, o, z],
        (2, 1): [z, z, o, z],
        (1, 3): [z, z, z, o],
        (3, 0): [z, z, z, o],
    }
    mult = [[list(table.get((i, j), [z, z, z, z])) for j in range(4)] for i in range(4)]
    return Algebra(F, mult, [o, o, z, z], labels=["e1", "e2", "a", "b"])


def matrix_algebra_2x2(field) -> Algebra:
    """M_2(k) by matrix units e11, e12, e21, e22 (semisimple, nonsplit traces)."""
    F = field if not isinstance(field, str) else field_by_name(field)
    z, o = F.zero, F.one

    def unit_vec(k):
        v = [z] * 4
        v[k] = o
        return v

    # e_{ab} * e_{cd} = delta_{bc} e_{ad}; index (a,b) -> 2*a+b
    mult = []
    for i in range(4):
        a, b = divmod(i, 2)
        plane = []
        for j in range(4):
            c, d = divmod(j, 2)
            plane.append(unit_vec(2 * a + d) if b == c else [z, z, z, z])
        mult.append(plane)
    unit = [o, z, z, o]
    return Algebra(F, mult, unit, labels=["e11", "e12", "e21", "e22"])


def field_extension_f4() -> Algebra:
    """F_4 as an F_2-algebra with basis 1, w where w^2 = w + 1."""
    F = field_by_name("F2")
    mult = [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 1]],
    ]
    return Algebra(F, mult, [1, 0], labels=["1", "w"])


def f4_dual_numbers() -> Algebra:
    """F_4[x]/(x^2) as a 4-dim F_2-algebra: local with extension residue field.

    Basis 1, w, x, wx with w^2 = w + 1 and x^2 = 0.
    """
    F = field_by_name("F2")
    z = [0, 0, 0, 0]

    def v(*pairs):
        out = [0, 0, 0, 0]
        for i, c in pairs:
            out[i] = c
        return out

    t = {
        (0, 0): v((0, 1)), (0, 1): v((1, 1)), (0, 2): v((2, 1)), (0, 3): v((3, 1)),
        (1, 0): v((1, 1)), (1, 1): v((0, 1), (1, 1)),
        (1, 2): v((3, 1)), (1, 3): v((2, 1), (3, 1)),
        (2, 0): v((2, 1)), (2, 1): v((3, 1)), (2, 2): z, (2, 3): z,
        (3, 0): v((3, 1)), (3, 1): v((2, 1), (3, 1)), (3, 2): z, (3, 3): z,
    }
    mult = [[t[(i, j)] for j in range(4)] for i in range(4)]
    return Algebra(F, mult, [1, 0, 0, 0], labels=["1", "w", "x", "wx"])


def scaling_automorphism(A: Algebra, x_index: int, c) -> Automorphism:
    """x |-> c*x on a truncated polynomial algebra (fixes 1)."""
    F = A.field
    rows = Mat.identity(F, A.dim).to_lists()
    acc = F.one
    for k in range(1, A.dim):
        acc = F.mul(acc, c)
        rows[k] = [acc if j == k else F.zero for j in range(A.dim)]
    return Automorphism(A, Mat(F, rows, A.dim))


def simple_over_dual_numbers(A: Algebra) -> Module:
    """The unique simple k = A/(x) over k[x]/(x^2)."""
    reg = A.regular_module()
    x = A.basis_vector(1)
    f = ModuleMap(reg, reg, reg.act(x), check=False)
    K, _ = kernel(f)
    return K


def right_multiplication_map(A: Algebra, x) -> ModuleMap:
    """Right multiplication by x on the regular module."""
    reg = A.regular_module()
    return ModuleMap(reg, reg, reg.act(x), check=False)
