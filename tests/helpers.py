"""Shared builders for the test suite."""

from __future__ import annotations

from itertools import permutations, product

from lhc import BinaryOp, BooleanFn, GroupKind, Transversal, gen_iterated_group

# The two binary order-4 squares behind the layered example cubes: L0 has no
# transversals, Z4ADD is plain cyclic addition.
L0 = BinaryOp(4, ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 1, 0), (3, 2, 0, 1)))
Z4ADD = BinaryOp(4, tuple(tuple((i + j) % 4 for j in range(4)) for i in range(4)))


def addition_square(q: int) -> BinaryOp:
    return BinaryOp(q, tuple(tuple((i + j) % q for j in range(q)) for i in range(q)))


def xor_cube(n: int):
    return gen_iterated_group(GroupKind.Z2X2, n, 4)


def cyclic_cube(n: int, q: int = 4):
    kind = GroupKind.Z4 if q == 4 else GroupKind.CYCLIC
    return gen_iterated_group(kind, n, q)


def all_lambdas(n: int):
    """Every orientation function of arity n, in bit-string order."""
    width = 1 << n
    for code in range(1 << width):
        yield BooleanFn(n, tuple((code >> (width - 1 - i)) & 1 for i in range(width)))


def lambda_from_string(s: str) -> BooleanFn:
    return BooleanFn.from_string(s)


def brute_force_transversals(cube) -> set:
    """Every transversal of a cube with q <= 4 and n <= 3, found by trying
    all permutations of the inputs: cell k takes x1 = k and xi = p_i(k)."""
    n, q = cube.n, cube.q
    if q > 4 or n > 3:
        raise ValueError(f"brute force is for q <= 4 and n <= 3, got q={q} n={n}")
    found = set()
    for perms in product(permutations(range(q)), repeat=n - 1):
        inputs = [(k,) + tuple(p[k] for p in perms) for k in range(q)]
        outputs = [cube[x] for x in inputs]
        if len(set(outputs)) == q:
            found.add(Transversal.of((a,) + x for a, x in zip(outputs, inputs)))
    return found
