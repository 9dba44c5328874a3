"""Constructors and transforms for n-ary quasigroups.

Covers iterated groups, composition of binary operations along a rooted
expression tree, isotopies (per-role symbol permutations) and parastrophes
(permutations of the n+1 graph roles), reducibility testing, transversal
lifting through a two-level composition, and the lower bound on transversal
counts of completely reducible quasigroups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import combinations, repeat
from operator import add, getitem, mul
from random import Random
from typing import TYPE_CHECKING

from .core import ENVELOPE_MAX_CELLS, EnvelopeError, LatinHypercube, StructuralError, cell_sums, check_scale

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
# Streams over the cells of a table, in index order (see core.cell_sums)
# ---------------------------------------------------------------------------


def _strided(strides, q: int) -> list[list[int]]:
    """Per-axis weights x * stride, for cell_sums."""
    return [[x * s for x in range(q)] for s in strides]


def _gather(table, indices):
    """table[i] for each i; unlike bytes.__getitem__, no argument tuple per item."""
    return map(getitem, repeat(table), indices)


def _index_stream(axes, n: int, q: int):
    """For every cell of an n-axis table, in index order, its index in the
    table over `axes` alone (0-based, in that order).  One axis gives that
    coordinate."""
    stride = dict(zip(reversed(axes), (q**k for k in range(len(axes)))))
    return cell_sums(_strided([stride.get(i, 0) for i in range(n)], q))


# ---------------------------------------------------------------------------
# Binary operations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BinaryOp:
    """A q x q latin square read as x1 * x2 = table[x1][x2]."""

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
        q = cube.q
        return cls(q, tuple(tuple(cube.values[r * q : (r + 1) * q]) for r in range(q)))

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
    if q < 2:
        raise ValueError(f"order must be >= 2, got {q}")
    if kind in (GroupKind.Z4, GroupKind.Z2X2) and q != 4:
        raise ValueError(f"group kind {kind.value} requires order 4, got {q}")
    check_scale(n, q)
    if kind is GroupKind.Z2X2:
        # each coordinate adds its low bit and n+1 times its high bit, so a
        # sum holds both bit counts and the table reads off their parities
        weights = (0, 1, n + 1, n + 2)
        table = [(s % (n + 1) & 1) | (s // (n + 1) & 1) << 1 for s in range((n + 1) ** 2)]
    else:
        weights = range(q)
        table = [-s % q for s in range(n * (q - 1) + 1)]
    return LatinHypercube(n, q, bytes(map(table.__getitem__, cell_sums([weights] * n))))


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransformSpec:
    """Optional isotopy (n+1 symbol permutations, roles 0..n) and optional
    parastrophe (permutation of the n+1 roles).  Applied isotopy first."""

    isotopy: tuple[tuple[int, ...], ...] | None = None
    parastrophe: tuple[int, ...] | None = None


def apply_isotopy(cube: LatinHypercube, perms) -> LatinHypercube:
    """R with R[s1^-1(x1)..sn^-1(xn)] = s0^-1(Q[x1..xn])."""
    n, q = cube.n, cube.q
    perms = tuple(check_permutation(p, q) for p in perms)
    if len(perms) != n + 1:
        raise ValueError(f"expected {n + 1} permutations, got {len(perms)}")
    inv0 = inverse_permutation(perms[0])
    # a gather: cell y reads the source cell (s1(y1), .., sn(yn))
    strides = [q ** (n - i) for i in range(1, n + 1)]
    sources = cell_sums([[p[y] * s for y in range(q)] for p, s in zip(perms[1:], strides)])
    return LatinHypercube(n, q, bytes(_gather(inv0, _gather(cube.values, sources))))


def apply_parastrophe(cube: LatinHypercube, pi) -> LatinHypercube:
    """Re-read the graph with role i taking the old role pi(i)."""
    n, q = cube.n, cube.q
    pi = check_permutation(pi, n + 1)
    # a scatter: the graph cell (x0..xn) lands at the index spelt by its
    # roles pi(1)..pi(n) and holds its role pi(0)
    stride = [0] * (n + 1)
    for i in range(1, n + 1):
        stride[pi[i]] = q ** (n - i)
    dests = map(add, cell_sums(_strided(stride[1:], q)), map(mul, repeat(stride[0]), cube.values))
    held = cube.values if pi[0] == 0 else _index_stream([pi[0] - 1], n, q)
    out = bytearray(cube.size)
    for dest, v in zip(dests, held):
        out[dest] = v
    return LatinHypercube(n, q, bytes(out))


def apply_transform(cube: LatinHypercube, spec: TransformSpec) -> LatinHypercube:
    if spec.isotopy is not None:
        cube = apply_isotopy(cube, spec.isotopy)
    if spec.parastrophe is not None:
        cube = apply_parastrophe(cube, spec.parastrophe)
    return cube


# ---------------------------------------------------------------------------
# Composition trees
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Leaf:
    var: int  # 1-based input index


@dataclass(frozen=True)
class Node:
    op: BinaryOp
    left: "Leaf | Node"
    right: "Leaf | Node"


@dataclass(frozen=True)
class CompositionSpec:
    """Rooted expression tree over the inputs x1..xn, each used once, with a
    binary operation at every internal node, plus an optional transform
    applied to the evaluated table."""

    n: int
    root: Leaf | Node
    post_transform: TransformSpec | None = None


def _collect(node, leaves: list[int], ops: list[BinaryOp]) -> None:
    if isinstance(node, Leaf):
        leaves.append(node.var)
    elif isinstance(node, Node):
        ops.append(node.op)
        _collect(node.left, leaves, ops)
        _collect(node.right, leaves, ops)
    else:
        raise ValueError(f"not a tree node: {node!r}")


def _tree_stream(node, n: int, q: int):
    """The node's value at every cell, in index order: a leaf is a
    coordinate stream, a node looks its two children up in its table."""
    if isinstance(node, Leaf):
        return _index_stream([node.var - 1], n, q)
    rows = _gather(node.op.table, _tree_stream(node.left, n, q))
    return map(getitem, rows, _tree_stream(node.right, n, q))


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
    cube = LatinHypercube(spec.n, q, bytes(_tree_stream(spec.root, spec.n, q)))
    if spec.post_transform is not None:
        cube = apply_transform(cube, spec.post_transform)
    return cube


# ---------------------------------------------------------------------------
# Two-level compositions and factorization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwoLevelComposition:
    """f(x1..xn) = outer(inner(x_S), x_rest), the inner value being outer's
    first argument and the remaining variables keeping increasing order."""

    outer: LatinHypercube
    inner: LatinHypercube
    inner_vars: tuple[int, ...]

    def __post_init__(self):
        if self.outer.q != self.inner.q:
            raise ValueError("outer and inner orders differ")
        if tuple(sorted(set(self.inner_vars))) != self.inner_vars:
            raise ValueError("inner_vars must be strictly increasing")
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
        ys = _gather(self.inner.values, _index_stream([v - 1 for v in self.inner_vars], n, q))
        # outer index = inner value * q^|rest| + the index of x_rest
        shifted = map(mul, repeat(q ** (self.outer.n - 1)), ys)
        outer_index = map(add, shifted, _index_stream([v - 1 for v in self.rest_vars], n, q))
        return LatinHypercube(n, q, bytes(_gather(self.outer.values, outer_index)))


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
    m = len(subset)
    rest = tuple(v for v in range(1, n + 1) if v not in set(subset))
    n_rest = n - m
    bases = list(cell_sums(_strided([q ** (n - v) for v in subset], q)))
    offsets = list(cell_sums(_strided([q ** (n - v) for v in rest], q)))
    columns = _distinct_columns(cube.values, q, bases, offsets)
    if columns is None or len({col[0] for col in columns}) != q:
        return None
    # the label of the column at base is its first reading, values[base]
    inner_vals = _gather(cube.values, bases)
    outer_vals = bytearray(q ** (n_rest + 1))
    block = q**n_rest
    for col in columns:
        outer_vals[col[0] * block : (col[0] + 1) * block] = col
    inner = LatinHypercube(m, q, bytes(inner_vals))
    outer = LatinHypercube(n_rest + 1, q, bytes(outer_vals))
    return TwoLevelComposition(outer, inner, subset)


def find_factorization(cube: LatinHypercube) -> TwoLevelComposition | None:
    """First factorization over input-variable subsets, smallest subset
    first.  Splitting the n+1 graph roles on any block is equivalent to
    splitting on its complement, and the complement of an all-input block
    holds the output role, so sweeping input subsets covers every
    parastrophic split.  Cubes above the search envelope's cell bound are
    refused before any subset is tried.

    S can be a block only if its q^|S| columns take at most q distinct
    values, and parts of the columns cannot take more values than the
    whole columns do.  So each subset is first probed: a small S has every
    column read at a few rest points, a large S has a few columns read in
    full, and more than q distinct readings rule S out.  The subsets that
    survive go to factor_on_subset in sweep order, so the result is the
    one the plain sweep gives.
    """
    n, q, values = cube.n, cube.q, cube.values
    if n < 3:
        raise ValueError(f"reducibility needs arity >= 3, got {n}")
    if cube.size > ENVELOPE_MAX_CELLS:
        raise EnvelopeError(f"factorization supports q**n <= {ENVELOPE_MAX_CELLS}, got {cube.size}")
    rng = Random(0)
    for size in range(2, n):
        for subset in combinations(range(1, n + 1), size):
            inner = [q ** (n - v) for v in subset]
            rest = [q ** (n - v) for v in range(1, n + 1) if v not in subset]
            if size <= n - size:
                bases = cell_sums(_strided(inner, q))
                offsets = list(_probe_offsets(rest, q, _PROBES, rng))
            else:
                bases = _probe_offsets(inner, q, _PROBES * q, rng)
                offsets = list(cell_sums(_strided(rest, q)))
            if _distinct_columns(values, q, bases, offsets) is None:
                continue
            fac = factor_on_subset(cube, subset)
            if fac is not None:
                return fac
    return None


# Rest points read per column of a small subset; a large subset has
# q times as many columns read in full.
_PROBES = 4


def _probe_offsets(strides, q: int, count: int, rng: Random):
    """Offsets of `count` distinct assignments to the axes of `strides`,
    drawn at random, or of all of them when there are no more; computed
    as they are consumed."""
    total = q ** len(strides)
    if total <= count:
        return cell_sums(_strided(strides, q))
    return (sum(k // q**j % q * s for j, s in enumerate(strides)) for k in rng.sample(range(total), count))


def _distinct_columns(values: bytes, q: int, bases, offsets) -> set[bytes] | None:
    """The distinct readings of values at base + offsets, one per base, or
    None as soon as there are more than q of them."""
    seen: set[bytes] = set()
    for base in bases:
        seen.add(bytes(_gather(values, map(add, repeat(base), offsets))))
        if len(seen) > q:
            return None
    return seen


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
    block = q ** (n - 1)
    out = bytearray(block)
    # cell index = x1 * q^(n-1) + the index of (x2..xn)
    for idx, v in enumerate(cube.values):
        if v == a:
            x1, rest = divmod(idx, block)
            out[rest] = x1
    return LatinHypercube(n - 1, q, bytes(out))


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
