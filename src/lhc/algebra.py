"""Constructors and transforms for n-ary quasigroups.

Covers iterated groups, composition of binary operations along a rooted
expression tree, isotopies (per-role symbol permutations) and parastrophes
(permutations of the n+1 graph roles), reducibility testing, transversal
lifting through a two-level composition, and the lower bound on transversal
counts of completely reducible quasigroups.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import cache
from itertools import combinations
from typing import TYPE_CHECKING

from .core import ENVELOPE_MAX_CELLS, EnvelopeError, LatinHypercube, Record, StructuralError, check_scale
from .core import inverse_slabs, slabs

if TYPE_CHECKING:
    from .engine import Transversal

# ---------------------------------------------------------------------------
# Permutations
# ---------------------------------------------------------------------------


def check_permutation(perm, size: int) -> tuple[int, ...]:
    p = tuple(perm)
    if sorted(p) != list(range(size)):
        raise ValueError(f"not a permutation of 0..{size - 1}: {p}")
    return p


def inverse_permutation(perm) -> tuple[int, ...]:
    inv = [0] * len(perm)
    for i, v in enumerate(perm):
        inv[v] = i
    return tuple(inv)


# ---------------------------------------------------------------------------
# Binary operations
# ---------------------------------------------------------------------------


class BinaryOp(Record):
    """A q x q latin square read as x1 * x2 = table[x1][x2]."""

    __slots__ = ("q", "table")
    q: int
    table: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        q = self.q
        if len(self.table) != q or any(len(row) != q for row in self.table):
            raise StructuralError(f"table must be {q}x{q}")
        want = list(range(q))
        for row in self.table:
            if sorted(row) != want:
                raise StructuralError(f"row {row} is not a permutation")
        for c in range(q):
            if sorted(row[c] for row in self.table) != want:
                raise StructuralError(f"column {c} is not a permutation")

    @classmethod
    def from_flat(cls, q: int, flat) -> "BinaryOp":
        flat = tuple(flat)
        if len(flat) != q * q:
            raise StructuralError(f"expected {q * q} entries, got {len(flat)}")
        return cls(q, tuple(tuple(flat[r * q : (r + 1) * q]) for r in range(q)))

    @classmethod
    def from_cube(cls, cube: LatinHypercube) -> "BinaryOp":
        if cube.n != 2:
            raise ValueError(f"expected a binary table, got arity {cube.n}")
        return cls.from_flat(cube.q, cube.values)

    def as_cube(self) -> LatinHypercube:
        return LatinHypercube(2, self.q, bytes(v for row in self.table for v in row))


# ---------------------------------------------------------------------------
# Iterated groups
# ---------------------------------------------------------------------------


class GroupKind(Enum):
    CYCLIC = "cyclic"
    Z4 = "z4"
    Z2X2 = "z22"


def gen_iterated_group(kind: GroupKind, n: int, q: int) -> LatinHypercube:
    """Cayley table of x0 = the group solution of x0 + x1 + ... + xn = 0.

    Z2X2 encodes the Klein group on 0..3 as bit pairs, so its addition is
    bitwise XOR and each element is self-inverse.
    """
    if n < 1:
        raise ValueError(f"arity must be >= 1, got {n}")
    if kind in (GroupKind.Z4, GroupKind.Z2X2) and q != 4:
        raise ValueError(f"group kind {kind.value} requires order 4, got {q}")
    check_scale(n, q)
    # the table over axes k..n is q copies of the one over axes k+1..n, the
    # copy for x_k = x with x subtracted from (Z2X2: XOR-ed into) every entry
    xor = kind is GroupKind.Z2X2
    maps = [bytes(v ^ x if xor else (v - x) % q for v in range(q)) + bytes(256 - q) for x in range(q)]
    table = b"\0"
    for _ in range(n):
        table = b"".join([table.translate(m) for m in maps])
    return LatinHypercube(n, q, table)


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------


class TransformSpec(Record):
    """Optional isotopy (n+1 symbol permutations, roles 0..n) and optional
    parastrophe (permutation of the n+1 roles).  Applied isotopy first."""

    __slots__ = ("isotopy", "parastrophe")
    _defaults = {"isotopy": None, "parastrophe": None}
    isotopy: tuple[tuple[int, ...], ...] | None
    parastrophe: tuple[int, ...] | None


def apply_isotopy(cube: LatinHypercube, perms) -> LatinHypercube:
    """R with R[s1^-1(x1)..sn^-1(xn)] = s0^-1(Q[x1..xn])."""
    return apply_transform(cube, TransformSpec(tuple(perms)))


def apply_parastrophe(cube: LatinHypercube, pi) -> LatinHypercube:
    """Re-read the graph with role i taking the old role pi(i)."""
    return apply_transform(cube, TransformSpec(None, tuple(pi)))


def apply_transform(cube: LatinHypercube, spec: TransformSpec) -> LatinHypercube:
    """The cube under the spec's isotopy, then its parastrophe, each when
    given, in one move per axis.  The isotopy is checked first."""
    n, q = cube.n, cube.q
    perms = spec.isotopy
    if perms is not None:
        perms = tuple(check_permutation(p, q) for p in perms)
        if len(perms) != n + 1:
            raise ValueError(f"expected {n + 1} permutations, got {len(perms)}")
    pi = range(n + 1) if spec.parastrophe is None else check_permutation(spec.parastrophe, n + 1)
    return LatinHypercube(n, q, _parastrophe(cube.values, n, q, pi, perms))


def _parastrophe(values, n: int, q: int, pi, perms=None) -> bytes:
    """apply_transform on a bare table: the isotopy `perms`, when given,
    then the parastrophe pi.  A move rebinds `values` to its slabs before
    joining them, so a table passed with no other reference is freed before
    the moved one is built."""
    roles = list(range(1, n + 1))  # the old role on each axis
    orders = [range(q)] * (n + 1)  # the slab order of each role as it moves
    if perms is not None:
        # cell y of the isotope reads the source cell (s1(y1), .., sn(yn))
        values = values.translate(bytes(inverse_permutation(perms[0])) + bytes(256 - q))
        orders[1:] = perms[1:]
    if pi[0]:
        # the output swaps roles with input pi(0), whose lines are inverted:
        # joined, their relabelled slabs put the old output role on the front axis
        parts = slabs(values, q, q ** (n - pi[0]))
        values = b"".join(inverse_slabs([parts[x] for x in orders[pi[0]]], range(q)))
        roles = [0] + [r for r in roles if r != pi[0]]
    # move axes to the front, the last wanted first; without an isotopy the
    # longest tail of pi that is in order already stays behind them
    keep = n if perms is not None else n - 1
    while perms is None and keep and roles.index(pi[keep]) < roles.index(pi[keep + 1]):
        keep -= 1
    for role in reversed(pi[1 : keep + 1]):
        axis = roles.index(role)
        values = slabs(values, q, q ** (n - 1 - axis))
        values = b"".join([values[x] for x in orders[role]])
        roles.insert(0, roles.pop(axis))
    return values


# ---------------------------------------------------------------------------
# Composition trees
# ---------------------------------------------------------------------------


class Leaf(Record):
    __slots__ = ("var",)
    var: int  # 1-based input index


class Node(Record):
    __slots__ = ("op", "left", "right")
    op: BinaryOp
    left: "Leaf | Node"
    right: "Leaf | Node"


class CompositionSpec(Record):
    """Rooted expression tree over the inputs x1..xn, each used once, with a
    binary operation at every internal node, plus an optional transform
    applied to the evaluated table."""

    __slots__ = ("n", "root", "post_transform")
    _defaults = {"post_transform": None}
    n: int
    root: Leaf | Node
    post_transform: TransformSpec | None


def _collect(node, leaves: list[int], ops: list[BinaryOp]) -> None:
    if isinstance(node, Leaf):
        leaves.append(node.var)
    elif isinstance(node, Node):
        ops.append(node.op)
        _collect(node.left, leaves, ops)
        _collect(node.right, leaves, ops)
    else:
        raise ValueError(f"not a tree node: {node!r}")


def _tree_table(node, q: int) -> bytes:
    """The node's table over its leaves, left to right: the right child's
    table relabelled through the operation's row x, for each x in the left's."""
    if isinstance(node, Leaf):
        return bytes(range(q))
    right = _tree_table(node.right, q)
    rows = [right.translate(bytes(row) + bytes(256 - q)) for row in node.op.table]
    return _substituted(rows, _tree_table(node.left, q))


def _substituted(parts, keys) -> bytes:
    """The table of g(h(a), b) over the axes of a, then b, from g's slabs
    along its first axis and h's table: parts[k] for each k in keys, joined.
    With more keys than cells in a part, the join's buffer per piece would
    outweigh the table, so the cells j, j + width, .. are written at once:
    the keys relabelled through the parts' j-th cells."""
    width = len(parts[0])
    if len(keys) <= width:
        return b"".join([parts[k] for k in keys])
    out = bytearray(len(keys) * width)
    for j in range(width):
        out[j::width] = keys.translate(bytes([part[j] for part in parts]) + bytes(256 - len(parts)))
    return bytes(out)


def compose(spec: CompositionSpec) -> LatinHypercube:
    """Evaluate the tree into an n-ary Cayley table, then apply the
    post-transform.  Rejects single-leaf specs: a composition has arity >= 2."""
    leaves: list[int] = []
    ops: list[BinaryOp] = []
    _collect(spec.root, leaves, ops)
    if sorted(leaves) != list(range(1, spec.n + 1)):
        raise ValueError(f"leaf labels {sorted(leaves)} are not a permutation of 1..{spec.n}")
    if not ops:
        raise ValueError("composition requires at least one binary node (arity >= 2)")
    qs = {op.q for op in ops}
    if len(qs) != 1:
        raise ValueError(f"mixed orders in tree: {sorted(qs)}")
    q = qs.pop()
    check_scale(spec.n, q)
    values = _parastrophe(_tree_table(spec.root, q), spec.n, q, inverse_permutation((0, *leaves)))
    cube = LatinHypercube(spec.n, q, values)
    if spec.post_transform is not None:
        cube = apply_transform(cube, spec.post_transform)
    return cube


# ---------------------------------------------------------------------------
# Two-level compositions and factorization
# ---------------------------------------------------------------------------


class TwoLevelComposition(Record):
    """f(x1..xn) = outer(inner(x_S), x_rest), the inner value being outer's
    first argument and the remaining variables keeping increasing order."""

    __slots__ = ("outer", "inner", "inner_vars")
    outer: LatinHypercube
    inner: LatinHypercube
    inner_vars: tuple[int, ...]

    def __post_init__(self):
        if self.outer.q != self.inner.q:
            raise ValueError("outer and inner orders differ")
        if tuple(sorted(set(self.inner_vars))) != self.inner_vars:
            raise ValueError(f"inner_vars must be a strictly increasing tuple, got {self.inner_vars!r}")
        if len(self.inner_vars) != self.inner.n:
            raise ValueError("inner_vars length must match inner arity")
        if self.inner.n < 1 or self.outer.n < 2:
            raise ValueError("inner needs arity >= 1 and outer arity >= 2")
        n = self.n
        if any(not 1 <= v <= n for v in self.inner_vars):
            raise ValueError(f"inner_vars must lie in 1..{n}")

    @property
    def n(self) -> int:
        return self.inner.n + self.outer.n - 1

    @property
    def rest_vars(self) -> tuple[int, ...]:
        s = set(self.inner_vars)
        return tuple(v for v in range(1, self.n + 1) if v not in s)

    def compose(self) -> LatinHypercube:
        n, q = self.n, self.inner.q
        check_scale(n, q)
        parts = slabs(self.outer.values, q, q ** (self.outer.n - 1))
        pi = inverse_permutation((0, *self.inner_vars, *self.rest_vars))
        return LatinHypercube(n, q, _parastrophe(_substituted(parts, self.inner.values), n, q, pi))


def factor_on_subset(cube: LatinHypercube, subset) -> TwoLevelComposition | None:
    """Try to write the cube as outer(inner(x_S), x_rest).

    The q^|S| input columns, read as functions of x_rest, must fall into
    exactly q equal-function classes; classes are labelled by their value at
    x_rest = 0, which is then automatically a bijection.  Both factors are
    automatically latin when the class count is q.
    """
    n, q = cube.n, cube.q
    subset = tuple(sorted(set(subset)))
    if not 2 <= len(subset) <= n - 1:
        raise ValueError(f"subset size must be in 2..{n - 1}, got {len(subset)}")
    if any(not 1 <= v <= n for v in subset):
        raise ValueError(f"subset must lie in 1..{n}")
    rest = tuple(v for v in range(1, n + 1) if v not in subset)
    # with the axes of S moved to the front, each column is one run
    table = _parastrophe(cube.values, n, q, (0, *subset, *rest))
    block = q ** len(rest)
    columns = set()
    for start in range(0, len(table), block):
        columns.add(table[start : start + block])
        if len(columns) > q:
            return None
    if len({col[0] for col in columns}) != q:
        return None
    # the label of a column is its first reading
    inner = LatinHypercube(len(subset), q, table[::block])
    outer = LatinHypercube(len(rest) + 1, q, b"".join(sorted(columns)))
    return TwoLevelComposition(outer, inner, subset)


def find_factorization(cube: LatinHypercube) -> TwoLevelComposition | None:
    """First factorization over input-variable subsets, smallest subset
    first.  Splitting the n+1 graph roles on any block is equivalent to
    splitting on its complement, and the complement of an all-input block
    holds the output role, so sweeping input subsets covers every
    parastrophic split.  Cubes above the search envelope's cell bound are
    refused before any subset is tried.

    A subset S passes the screen when block(i, j, k) holds for all i < j
    in S and k outside it; one cache reads each triple once.  block is the
    exact test on lam for a cube with a standard semilinear isotope, whose
    blocks are the cube's, and the necessary _restriction_screen for any
    other.  Only the subsets that pass go to factor_on_subset, in sweep
    order, so the result is the plain sweep's.
    """
    n = cube.n
    if n < 3:
        raise ValueError(f"reducibility needs arity >= 3, got {n}")
    if cube.size > ENVELOPE_MAX_CELLS:
        raise EnvelopeError(f"factorization supports q**n <= {ENVELOPE_MAX_CELLS}, got {cube.size}")
    from .semilinear import _block_test, _semilinear_isotope

    found = _semilinear_isotope(cube) if cube.q == 4 else None
    block = cache(_restriction_screen(cube) if found is None else _block_test(found[0]))
    for size in range(2, n):
        for subset in combinations(range(1, n + 1), size):
            rest = [k for k in range(1, n + 1) if k not in subset]
            if all(block(i, j, k) for i, j in combinations(subset, 2) for k in rest):
                fac = factor_on_subset(cube, subset)
                if fac is not None:
                    return fac
    return None


def _restriction_screen(cube: LatinHypercube):
    """The triple test that every block passes: block(i, j, k) holds when
    {i, j} is a block of the ternary restriction to (x_i, x_j, x_k) with
    the other inputs all at 0 and all at q-1, since fixing them anywhere
    turns outer(inner(x_S), x_rest) with i, j in S and k outside it into
    G(H(x_i, x_j), x_k).  At q = 4 the triple must also pass the exact test
    on the lam of each restriction to x_r = 0, r not in it, that has a
    semilinear isotope: S, or S without r, is a block of that restriction."""
    from .semilinear import _block_test, _semilinear_isotope

    n, q, values = cube.n, cube.q, cube.values
    stride = [q ** (n - v) for v in range(n + 1)]

    @cache
    def restricted(r: int):
        # the restriction numbers the inputs past r v - 1
        found = _semilinear_isotope(LatinHypercube(n - 1, q, bytes(slabs(values, q, stride[r], [0])[0])))
        return _block_test(found[0]) if found else lambda *triple: True

    def block(i: int, j: int, k: int) -> bool:
        si, sj, sk = stride[i], stride[j], stride[k]
        plane = [x * si + y * sj for x in range(q) for y in range(q)]
        # x_i, x_j and x_k at 0 at either corner; the column over x_k at
        # each (x_i, x_j) is an extended slice
        for start in {0, len(values) - 1 - (q - 1) * (si + sj + sk)}:
            if len({values[start + b : start + b + q * sk : sk] for b in plane}) > q:
                return False
        others = (r for r in range(1, n + 1) if r not in (i, j, k))
        return q != 4 or all(restricted(r)(*(v - (v > r) for v in (i, j, k))) for r in others)

    return block


# ---------------------------------------------------------------------------
# Fibers and slices
# ---------------------------------------------------------------------------


def fiber_quasigroup(cube: LatinHypercube, a: int) -> LatinHypercube:
    """(n-1)-ary quasigroup whose graph is the level set f(x) = a; the first
    original input becomes the output role."""
    n, q = cube.n, cube.q
    if n < 2:
        raise ValueError("fiber needs arity >= 2")
    if not 0 <= a < q:
        raise ValueError(f"symbol {a} out of range")
    # at each (x2..xn), the x1 with f = a: the lines along x1 inverted
    return LatinHypercube(n - 1, q, inverse_slabs(slabs(cube.values, q, q ** (n - 1)), [a])[0])


def slice_first(cube: LatinHypercube, a: int) -> LatinHypercube:
    """Fix the first input to a; remaining inputs keep their order."""
    n, q = cube.n, cube.q
    if n < 2:
        raise ValueError("slice needs arity >= 2")
    if not 0 <= a < q:
        raise ValueError(f"symbol {a} out of range")
    block = q ** (n - 1)
    return LatinHypercube(n - 1, q, cube.values[a * block : (a + 1) * block])


# ---------------------------------------------------------------------------
# Transversal lifting through a two-level composition
# ---------------------------------------------------------------------------


def lift_transversals_product(
    tg: Transversal, th: Transversal, split: TwoLevelComposition
) -> Transversal:
    """Combine a transversal of the outer factor with one of the inner
    factor into a transversal of the composed cube.

    The outer cell whose first argument is v is matched with the inner cell
    whose output is v, so distinct input pairs give distinct results.
    """
    from .engine import Transversal, verify_transversal

    if not verify_transversal(split.outer, tg):
        raise ValueError("tg is not a transversal of the outer factor")
    if not verify_transversal(split.inner, th):
        raise ValueError("th is not a transversal of the inner factor")
    by_arg = {cell[1]: cell for cell in tg.cells}
    by_out = {cell[0]: cell for cell in th.cells}
    return Transversal.of(
        _joined_cell(split, by_arg[v][0], by_out[v][1:], by_arg[v][2:]) for v in range(split.inner.q)
    )


def lift_transversals_fiber(
    t_h_a: Transversal,
    t_g_a: Transversal,
    tau,
    split: TwoLevelComposition,
    a: int,
) -> Transversal:
    """Lift transversals of the inner fiber at output a and of the outer
    slice at first-argument a, paired through the permutation tau.

    Fiber cells are exactly the inner argument tuples with inner value a, so
    any of the q! pairings produces a transversal of the composed cube, each
    pairing a different one.
    """
    from .engine import Transversal, verify_transversal

    q = split.inner.q
    tau = check_permutation(tau, q)
    fiber = fiber_quasigroup(split.inner, a)
    if not verify_transversal(fiber, t_h_a):
        raise ValueError("t_h_a is not a transversal of the inner fiber")
    outer_slice = slice_first(split.outer, a)
    if not verify_transversal(outer_slice, t_g_a):
        raise ValueError("t_g_a is not a transversal of the outer slice")
    gcells = [t_g_a.cells[t] for t in tau]
    return Transversal.of(_joined_cell(split, g[0], h, g[1:]) for h, g in zip(t_h_a.cells, gcells))


def _joined_cell(split: TwoLevelComposition, x0: int, inner_args, rest_args) -> tuple[int, ...]:
    """The graph cell of the composed cube with output x0, inner variables
    inner_args and remaining variables rest_args."""
    x = [x0] + [0] * split.n
    for var, v in zip(split.inner_vars + split.rest_vars, (*inner_args, *rest_args)):
        x[var] = v
    return tuple(x)


# ---------------------------------------------------------------------------
# Lower bound for completely reducible quasigroups
# ---------------------------------------------------------------------------


def lower_bound_completely_reducible(n: int, q: int, even_case_applicable: bool = False) -> int:
    """(q*q!)^((n-1)/2) for odd n.  For even n the floor-exponent bound only
    holds when some proper representation has an external binary factor with
    a transversal; without that assertion the bound is reported as 0."""
    if n < 1:
        raise ValueError(f"arity must be >= 1, got {n}")
    if q < 1:
        raise ValueError(f"order must be >= 1, got {q}")
    if n % 2 == 0 and not even_case_applicable:
        return 0
    return (q * math.factorial(q)) ** ((n - 1) // 2)
