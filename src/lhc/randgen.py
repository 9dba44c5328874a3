"""Seeded random fixtures: latin squares, composition trees, transforms,
orientation functions, and assorted quasigroups.

Every generator takes an explicit random.Random so sweeps are reproducible.
Order-4 binary quasigroups come in exactly two flavours up to isotopy, one
with 8 transversals (the XOR square) and one with none (the cyclic square);
random squares are drawn as random isotopes of those bases.
"""

from __future__ import annotations

import random

from .algebra import (
    BinaryOp,
    CompositionSpec,
    GroupKind,
    Leaf,
    Node,
    TransformSpec,
    TwoLevelComposition,
    apply_transform,
    compose,
    gen_iterated_group,
)
from .core import LatinHypercube
from .semilinear import BooleanFn, gen_semilinear


def random_permutation(q: int, rng: random.Random) -> tuple[int, ...]:
    p = list(range(q))
    rng.shuffle(p)
    return tuple(p)


def random_binary_op(
    q: int, rng: random.Random, with_transversals: bool | None = None
) -> BinaryOp:
    """Random latin square as a random isotope of a fixed base.

    For q = 4, with_transversals picks the base: True forces the XOR square
    (8 transversals survive any isotopy), False the cyclic square (none).
    """
    if q == 4:
        if with_transversals is None:
            with_transversals = rng.random() < 0.5
        kind = GroupKind.Z2X2 if with_transversals else GroupKind.Z4
        base = gen_iterated_group(kind, 2, 4)
    else:
        base = gen_iterated_group(GroupKind.CYCLIC, 2, q)
    perms = tuple(random_permutation(q, rng) for _ in range(3))
    return BinaryOp.from_cube(apply_transform(base, TransformSpec(perms)))


def random_isotopy(n: int, q: int, rng: random.Random) -> tuple[tuple[int, ...], ...]:
    return tuple(random_permutation(q, rng) for _ in range(n + 1))


def random_parastrophe(n: int, rng: random.Random) -> tuple[int, ...]:
    return random_permutation(n + 1, rng)


def random_transform(n: int, q: int, rng: random.Random) -> TransformSpec:
    """Random isotopy, parastrophe, or both (never the empty transform)."""
    which = rng.randrange(3)
    iso = random_isotopy(n, q, rng) if which != 1 else None
    par = random_parastrophe(n, rng) if which != 0 else None
    return TransformSpec(iso, par)


def random_tree(
    n: int,
    q: int,
    rng: random.Random,
    leaf_pair_op: BinaryOp | None = None,
) -> CompositionSpec:
    """Random rooted composition tree on a shuffled variable order.

    When leaf_pair_op is given it is installed at one node whose children
    are both leaves (such a node always exists), pinning the operation that
    ends up innermost.
    """
    if n < 2:
        raise ValueError(f"a composition tree needs n >= 2, got {n}")
    variables = list(range(1, n + 1))
    rng.shuffle(variables)
    pinned = leaf_pair_op

    def build(vs):
        nonlocal pinned
        if len(vs) == 1:
            return Leaf(vs[0])
        k = rng.randint(1, len(vs) - 1)
        op = random_binary_op(q, rng)
        # nodes are reached in preorder; the first leaf pair takes the pin
        # after its own op is drawn, so the RNG stream is the unpinned one
        if len(vs) == 2 and pinned is not None:
            op, pinned = pinned, None
        return Node(op, build(vs[:k]), build(vs[k:]))

    return CompositionSpec(n, build(variables))


def random_lambda(n: int, rng: random.Random) -> BooleanFn:
    """2^n bits, each drawn as rng.randrange(2) draws it: two bits of
    getrandbits, drawn again while they exceed 1.  So a seed gives the same
    function, and leaves rng in the same state, as randrange(2) per bit."""
    bits = []
    draw = rng.getrandbits
    for _ in range(1 << n):
        r = draw(2)
        while r > 1:
            r = draw(2)
        bits.append(r)
    return BooleanFn(n, tuple(bits))


def random_quasigroup(n: int, q: int, rng: random.Random) -> LatinHypercube:
    """Assorted quasigroup: a composition tree or (order 4) a semilinear
    cube, optionally hit with a random transform."""
    if n == 1:
        values = bytes(random_permutation(q, rng))
        return LatinHypercube(1, q, values)
    if n == 2:
        cube = random_binary_op(q, rng).as_cube()
    elif q == 4 and rng.random() < 0.5:
        cube = gen_semilinear(random_lambda(n, rng))
    else:
        cube = compose(random_tree(n, q, rng))
    if rng.random() < 0.5:
        cube = apply_transform(cube, random_transform(n, q, rng))
    return cube


def random_two_level(n: int, q: int, rng: random.Random) -> TwoLevelComposition:
    """Random split f(x) = outer(inner(x_S), x_rest) with 2 <= |S| <= n-1."""
    if n < 3:
        raise ValueError(f"a two-level split needs n >= 3, got {n}")
    size = rng.randint(2, n - 1)
    subset = tuple(sorted(rng.sample(range(1, n + 1), size)))
    inner = random_quasigroup(size, q, rng)
    outer = random_quasigroup(n - size + 1, q, rng)
    return TwoLevelComposition(outer, inner, subset)
