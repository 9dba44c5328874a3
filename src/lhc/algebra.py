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
from itertools import combinations, product

from .core import LatinHypercube, StructuralError, check_scale, index_of
from .engine import Transversal, verify_transversal

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

    def apply(self, a: int, b: int) -> int:
        return self.table[a][b]

    def as_cube(self) -> LatinHypercube:
        return LatinHypercube(2, self.q, bytes(v for row in self.table for v in row))


def right_inverse(op: BinaryOp) -> BinaryOp:
    """The operation solving x1 from x1 * x2 = x0: table[x0][x2] = x1."""
    q = op.q
    t = [[0] * q for _ in range(q)]
    for x1 in range(q):
        row = op.table[x1]
        for x2 in range(q):
            t[row[x2]][x2] = x1
    return BinaryOp(q, tuple(tuple(r) for r in t))


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
    out = bytearray(check_scale(n, q))
    if kind is GroupKind.Z2X2:
        for idx, x in enumerate(product(range(q), repeat=n)):
            acc = 0
            for v in x:
                acc ^= v
            out[idx] = acc
    else:
        for idx, x in enumerate(product(range(q), repeat=n)):
            out[idx] = (-sum(x)) % q
    return LatinHypercube(n, q, bytes(out))


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransformSpec:
    """Optional isotopy (n+1 symbol permutations, roles 0..n) and optional
    parastrophe (permutation of the n+1 roles).  Applied isotopy first."""

    isotopy: tuple[tuple[int, ...], ...] | None = None
    parastrophe: tuple[int, ...] | None = None

    def inverse(self) -> "TransformSpec":
        iso, par = self.isotopy, self.parastrophe
        if par is None:
            inv_iso = None if iso is None else tuple(inverse_permutation(p) for p in iso)
            return TransformSpec(inv_iso, None)
        inv_par = inverse_permutation(par)
        inv_iso = None
        if iso is not None:
            # undoing "isotopy then parastrophe" in a single spec of the same
            # shape requires the inverse isotopy pre-permuted by the roles
            inv_iso = tuple(inverse_permutation(iso[par[j]]) for j in range(len(iso)))
        return TransformSpec(inv_iso, inv_par)


def apply_isotopy(cube: LatinHypercube, perms) -> LatinHypercube:
    """R with R[s1^-1(x1)..sn^-1(xn)] = s0^-1(Q[x1..xn])."""
    n, q = cube.n, cube.q
    perms = tuple(check_permutation(p, q) for p in perms)
    if len(perms) != n + 1:
        raise ValueError(f"expected {n + 1} permutations, got {len(perms)}")
    inv0 = inverse_permutation(perms[0])
    out = bytearray(cube.size)
    values = cube.values
    for idx, y in enumerate(product(range(q), repeat=n)):
        src = 0
        for i, yi in enumerate(y):
            src = src * q + perms[i + 1][yi]
        out[idx] = inv0[values[src]]
    return LatinHypercube(n, q, bytes(out))


def apply_parastrophe(cube: LatinHypercube, pi) -> LatinHypercube:
    """Re-read the graph with role i taking the old role pi(i)."""
    n, q = cube.n, cube.q
    pi = check_permutation(pi, n + 1)
    out = bytearray(cube.size)
    values = cube.values
    for idx, x in enumerate(product(range(q), repeat=n)):
        cell = (values[idx],) + x
        dest = 0
        for i in range(1, n + 1):
            dest = dest * q + cell[pi[i]]
        out[dest] = cell[pi[0]]
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


def _eval_tree(node, args: tuple[int, ...]) -> int:
    if isinstance(node, Leaf):
        return args[node.var - 1]
    return node.op.table[_eval_tree(node.left, args)][_eval_tree(node.right, args)]


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
    out = bytearray(check_scale(spec.n, q))
    root = spec.root
    for idx, x in enumerate(product(range(q), repeat=spec.n)):
        out[idx] = _eval_tree(root, x)
    cube = LatinHypercube(spec.n, q, bytes(out))
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
        inner_pos = tuple(v - 1 for v in self.inner_vars)
        rest_pos = tuple(v - 1 for v in self.rest_vars)
        out = bytearray(check_scale(n, q))
        inner, outer = self.inner, self.outer
        for idx, x in enumerate(product(range(q), repeat=n)):
            y = inner[tuple(x[p] for p in inner_pos)]
            out[idx] = outer[(y,) + tuple(x[p] for p in rest_pos)]
        return LatinHypercube(n, q, bytes(out))


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
    # flat-index weights per variable position
    weight = [q ** (n - i) for i in range(1, n + 1)]
    sub_w = [weight[v - 1] for v in subset]
    rest_w = [weight[v - 1] for v in rest]
    rest_offsets = []
    for xr in product(range(q), repeat=n_rest):
        rest_offsets.append(sum(w * c for w, c in zip(rest_w, xr)))
    values = cube.values

    signatures: dict[bytes, int] = {}
    inner_vals = bytearray(q**m)
    for s_idx, xs in enumerate(product(range(q), repeat=m)):
        base = sum(w * c for w, c in zip(sub_w, xs))
        col = bytes(values[base + off] for off in rest_offsets)
        if col not in signatures:
            signatures[col] = col[0]
            if len(signatures) > q:
                return None
        inner_vals[s_idx] = signatures[col]
    if len(signatures) != q:
        return None
    labels = [sig[0] for sig in signatures]
    if len(set(labels)) != q:
        return None
    outer_vals = bytearray(q ** (n_rest + 1))
    block = q**n_rest
    for sig, label in signatures.items():
        outer_vals[label * block : (label + 1) * block] = sig
    inner = LatinHypercube(m, q, bytes(inner_vals))
    outer = LatinHypercube(n_rest + 1, q, bytes(outer_vals))
    return TwoLevelComposition(outer, inner, subset)


def find_factorization(cube: LatinHypercube) -> TwoLevelComposition | None:
    """First factorization over input-variable subsets, smallest subset
    first.  Splitting the n+1 graph roles on any block is equivalent to
    splitting on its complement, and the complement of an all-input block
    holds the output role, so sweeping input subsets covers every
    parastrophic split."""
    n = cube.n
    if n < 3:
        raise ValueError(f"reducibility needs arity >= 3, got {n}")
    for size in range(2, n):
        for subset in combinations(range(1, n + 1), size):
            fac = factor_on_subset(cube, subset)
            if fac is not None:
                return fac
    return None


def is_reducible(cube: LatinHypercube) -> bool:
    """True iff some parastrophe of the cube factors on some input subset."""
    return find_factorization(cube) is not None


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
    out = bytearray(q ** (n - 1))
    values = cube.values
    for idx, x in enumerate(product(range(q), repeat=n)):
        if values[idx] == a:
            out[index_of(x[1:], n - 1, q)] = x[0]
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
    if not verify_transversal(split.outer, tg):
        raise ValueError("tg is not a transversal of the outer factor")
    if not verify_transversal(split.inner, th):
        raise ValueError("th is not a transversal of the inner factor")
    q = split.inner.q
    n = split.n
    by_arg = {cell[1]: cell for cell in tg.cells}
    by_out = {cell[0]: cell for cell in th.cells}
    cells = []
    for v in range(q):
        ocell = by_arg[v]
        icell = by_out[v]
        x = [0] * (n + 1)
        x[0] = ocell[0]
        for pos, var in enumerate(split.inner_vars):
            x[var] = icell[1 + pos]
        for pos, var in enumerate(split.rest_vars):
            x[var] = ocell[2 + pos]
        cells.append(tuple(x))
    return Transversal.of(cells)


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
    q = split.inner.q
    tau = check_permutation(tau, q)
    fiber = fiber_quasigroup(split.inner, a)
    if not verify_transversal(fiber, t_h_a):
        raise ValueError("t_h_a is not a transversal of the inner fiber")
    outer_slice = slice_first(split.outer, a)
    if not verify_transversal(outer_slice, t_g_a):
        raise ValueError("t_g_a is not a transversal of the outer slice")
    n = split.n
    hcells = t_h_a.cells
    gcells = t_g_a.cells
    cells = []
    for i in range(q):
        hcell = hcells[i]
        gcell = gcells[tau[i]]
        x = [0] * (n + 1)
        x[0] = gcell[0]
        for pos, var in enumerate(split.inner_vars):
            x[var] = hcell[pos]
        for pos, var in enumerate(split.rest_vars):
            x[var] = gcell[1 + pos]
        cells.append(tuple(x))
    return Transversal.of(cells)


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
