"""Shared builders for the test suite."""

from __future__ import annotations

from itertools import combinations, permutations, product

from lhc import (
    BinaryOp,
    BooleanFn,
    GroupKind,
    LatinHypercube,
    LineRef,
    PlaneParity,
    Quadruple,
    Transversal,
    TwoLevelComposition,
    ValidationReport,
    coords_of,
    enumerate_transversals,
    gen_iterated_group,
)
from lhc.algebra import Leaf, Node, check_permutation, inverse_permutation

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
    """Every transversal of a cube with n <= 2 (at most 8! permutations), or
    q <= 5 and n <= 3, found by trying all permutations of the inputs: cell
    k takes x1 = k and xi = p_i(k)."""
    n, q = cube.n, cube.q
    if n > (3 if q <= 5 else 2):
        raise ValueError(f"brute force is for n <= 2, or q <= 5 and n <= 3, got q={q} n={n}")
    found = set()
    for perms in product(permutations(range(q)), repeat=n - 1):
        inputs = [(k,) + tuple(p[k] for p in perms) for k in range(q)]
        outputs = [cube[x] for x in inputs]
        if len(set(outputs)) == q:
            found.add(Transversal.of((a,) + x for a, x in zip(outputs, inputs)))
    return found


# ---------------------------------------------------------------------------
# Cell-by-cell references for the whole-buffer routines in lhc.core and the
# linear brindled construction in lhc.semilinear
# ---------------------------------------------------------------------------


def reference_validate_latin(cube) -> ValidationReport:
    """validate_latin one line and one cell at a time."""
    n, q, values = cube.n, cube.q, cube.values
    violations = []
    for axis in range(1, n + 1):
        stride = q ** (n - axis)
        block = stride * q
        for outer in range(q ** (axis - 1)):
            for inner in range(stride):
                start = outer * block + inner
                seen = 0
                for v in range(q):
                    seen |= 1 << values[start + v * stride]
                if seen != (1 << q) - 1:
                    coords = coords_of(start, n, q)
                    violations.append(LineRef(axis, coords[: axis - 1] + coords[axis:]))
    return ValidationReport(not violations, tuple(violations))


def reference_serialize_lhc(cube) -> str:
    """serialize_lhc one row at a time."""
    n, q, values = cube.n, cube.q, cube.values
    out = [f"LHC {n} {q}"]
    if n == 1:
        out.append(" ".join(str(v) for v in values))
    else:
        layer_rows = q ** (n - 2)
        for r in range(q ** (n - 1)):
            if n >= 3 and r and r % layer_rows == 0:
                out.append("")
            out.append(" ".join(str(v) for v in values[r * q : (r + 1) * q]))
    return "\n".join(out) + "\n"


def reference_brindled_ints(n: int) -> list:
    """Sorted brindled quadruples of (n+1)-bit vectors by the triple loop
    over even vectors z1 < z2 < z3, with z4 = z1 ^ z2 ^ z3 forced."""
    full = (1 << (n + 1)) - 1
    ev = [v for v in range(full + 1) if v.bit_count() % 2 == 0]
    out = []
    for i, z1 in enumerate(ev):
        for j in range(i + 1, len(ev)):
            z2 = ev[j]
            for z3 in ev[j + 1 :]:
                z4 = z1 ^ z2 ^ z3
                if z4 > z3 and (z1 | z2 | z3 | z4) == full and not (z1 & z2 & z3 & z4):
                    out.append((z1, z2, z3, z4))
    return out


def reference_plane_parity(lam: BooleanFn) -> PlaneParity:
    """delta_report's plane parity from the listed C(n,2)*2^(n-2) index
    quadruples of the 2-dimensional planes of lam's domain."""
    n, bits = lam.n, lam.bits
    sums = set()
    for p1, p2 in combinations(range(n), 2):
        b1, b2 = 1 << (n - 1 - p1), 1 << (n - 1 - p2)
        for base in range(1 << n):
            if not base & (b1 | b2):
                sums.add(bits[base] ^ bits[base | b1] ^ bits[base | b2] ^ bits[base | b1 | b2])
    if sums == {0, 1}:
        return PlaneParity.MIXED
    return PlaneParity.ALL_ODD if sums == {1} else PlaneParity.ALL_EVEN


def reference_transversals_by_quadruple(cube) -> dict:
    """transversals_by_quadruple with one Quadruple.of of the pair-indicator
    images per transversal, in the order the enumerator yields them."""
    buckets: dict = {}
    for t in enumerate_transversals(cube):
        key = Quadruple.of(tuple(tuple(x >> 1 for x in c) for c in t.cells))
        buckets[key] = buckets.get(key, 0) + 1
    return buckets


# ---------------------------------------------------------------------------
# Independent oracles: the graph of a cube and the twin quadruples
# ---------------------------------------------------------------------------


def graph_cells(cube):
    """Yield the q**n graph cells (x0, x1..xn) in table-index order."""
    values = cube.values
    for idx, inputs in enumerate(product(range(cube.q), repeat=cube.n)):
        yield (values[idx],) + inputs


def enumerate_twin(n: int):
    """Yield the twin quadruples {z, z, ~z, ~z} of (n+1)-bit vectors, z
    even; none exist for even n."""
    m = n + 1
    if m % 2:
        return
    full = (1 << m) - 1
    for z in range(full + 1):
        zc = z ^ full
        if z.bit_count() % 2 == 0 and z < zc:
            v = tuple((z >> (m - 1 - i)) & 1 for i in range(m))
            vc = tuple(1 - b for b in v)
            yield Quadruple((v, v, vc, vc))


# ---------------------------------------------------------------------------
# Cell-by-cell references for the table builders, written from their
# definitions
# ---------------------------------------------------------------------------


def reference_iterated_group(kind, n: int, q: int):
    out = bytearray(q**n)
    for idx, x in enumerate(product(range(q), repeat=n)):
        if kind is GroupKind.Z2X2:
            acc = 0
            for v in x:
                acc ^= v
            out[idx] = acc
        else:
            out[idx] = (-sum(x)) % q
    return LatinHypercube(n, q, bytes(out))


def reference_semilinear(lam):
    """f(x) = x1 ^ .. ^ xn ^ lam(l(x1)..l(xn))."""
    n = lam.n
    out = bytearray(4**n)
    for idx, x in enumerate(product(range(4), repeat=n)):
        acc = 0
        for v in x:
            acc ^= v
        out[idx] = acc ^ lam(tuple(v >> 1 for v in x))
    return LatinHypercube(n, 4, bytes(out))


def reference_detect_semilinear(cube):
    """The orientation function, when every graph cell has even pair
    parity and the XOR of the whole cell is constant on each block."""
    n = cube.n
    bits = [None] * (1 << n)
    for x0, *x in graph_cells(cube):
        acc, par, block = x0, x0 >> 1, 0
        for v in x:
            acc ^= v
            par ^= v >> 1
            block = (block << 1) | (v >> 1)
        if par or bits[block] not in (None, acc):
            return None
        bits[block] = acc
    return BooleanFn(n, tuple(bits))


# The three ways to pair the symbols of order 4, each a label -> symbol map
# with the first pair labelled 0 and 1
_PAIRINGS = ((0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2))


def reference_semilinear_isotope(cube) -> bool:
    """Whether some isotopy turns an order-4 cube into one that
    reference_detect_semilinear accepts.  Each input ranges over its 3
    pairings: reordering an input within or across its pairs XORs its
    labels with a constant or with their pair bit, which lam and an output
    relabelling absorb.  So the output ranges over all 24 permutations;
    swapping an input's two pairs, say, flips the output's high bit."""
    return any(
        reference_detect_semilinear(reference_isotopy(cube, [out, *inputs])) is not None
        for out in permutations(range(4))
        for inputs in product(_PAIRINGS, repeat=cube.n)
    )


def reference_isotopy(cube, perms):
    """R[s1^-1(x1)..sn^-1(xn)] = s0^-1(Q[x1..xn])."""
    n, q = cube.n, cube.q
    perms = [check_permutation(p, q) for p in perms]
    out = bytearray(q**n)
    for x0, *x in graph_cells(cube):
        y = tuple(inverse_permutation(perms[i + 1])[v] for i, v in enumerate(x))
        out[_index(y, q)] = inverse_permutation(perms[0])[x0]
    return LatinHypercube(n, q, bytes(out))


def reference_parastrophe(cube, pi):
    """Role i of every new graph cell is role pi(i) of an old one."""
    n, q = cube.n, cube.q
    out = bytearray(q**n)
    for cell in graph_cells(cube):
        out[_index([cell[pi[i]] for i in range(1, n + 1)], q)] = cell[pi[0]]
    return LatinHypercube(n, q, bytes(out))


def reference_compose(spec):
    """Evaluate the tree cell by cell (no post-transform)."""

    def ev(node, x):
        if isinstance(node, Leaf):
            return x[node.var - 1]
        return node.op.table[ev(node.left, x)][ev(node.right, x)]

    ops = []
    node = spec.root
    while not isinstance(node, Leaf):
        ops.append(node.op)
        node = node.left
    q = ops[0].q
    return LatinHypercube(spec.n, q, bytes(ev(spec.root, x) for x in product(range(q), repeat=spec.n)))


def reference_replace_leaf_pair_op(node, op):
    """The tree with op installed at its first node, in preorder, whose two
    children are leaves."""
    if isinstance(node, Leaf):
        return node
    if isinstance(node.left, Leaf) and isinstance(node.right, Leaf):
        return Node(op, node.left, node.right)
    new_left = reference_replace_leaf_pair_op(node.left, op)
    if new_left is not node.left:
        return Node(node.op, new_left, node.right)
    return Node(node.op, node.left, reference_replace_leaf_pair_op(node.right, op))


def reference_two_level(split):
    """outer(inner(x_S), x_rest), cell by cell."""
    n, q = split.n, split.inner.q
    out = bytearray(q**n)
    for idx, x in enumerate(product(range(q), repeat=n)):
        y = split.inner[tuple(x[v - 1] for v in split.inner_vars)]
        out[idx] = split.outer[(y,) + tuple(x[v - 1] for v in split.rest_vars)]
    return LatinHypercube(n, q, bytes(out))


def reference_fiber(cube, a: int):
    """The level set f(x) = a, solved for x1."""
    n, q = cube.n, cube.q
    out = bytearray(q ** (n - 1))
    for x0, x1, *rest in graph_cells(cube):
        if x0 == a:
            out[_index(rest, q)] = x1
    return LatinHypercube(n - 1, q, bytes(out))


def _index(coords, q: int) -> int:
    idx = 0
    for x in coords:
        idx = idx * q + x
    return idx


# ---------------------------------------------------------------------------
# The plain factorization sweep, the reference for find_factorization
# ---------------------------------------------------------------------------


def reference_factor_on_subset(cube, subset):
    """factor_on_subset by a signature loop, cell by cell: each assignment
    to x_S reads its column over x_rest, a column first seen is labelled by
    its reading at x_rest = 0, and more than q columns rule S out."""
    n, q = cube.n, cube.q
    subset = tuple(sorted(set(subset)))
    rest = tuple(v for v in range(1, n + 1) if v not in subset)

    def value(xs, xr):
        x = dict(zip(subset + rest, xs + xr))
        return cube[tuple(x[v] for v in range(1, n + 1))]

    signatures: dict = {}
    inner_vals = bytearray()
    for xs in product(range(q), repeat=len(subset)):
        col = bytes(value(xs, xr) for xr in product(range(q), repeat=len(rest)))
        if col not in signatures:
            signatures[col] = col[0]
            if len(signatures) > q:
                return None
        inner_vals.append(signatures[col])
    if len(set(signatures.values())) != q:
        return None
    block = q ** len(rest)
    outer_vals = bytearray(q * block)
    for sig, label in signatures.items():
        outer_vals[label * block : (label + 1) * block] = sig
    inner = LatinHypercube(len(subset), q, bytes(inner_vals))
    outer = LatinHypercube(len(rest) + 1, q, bytes(outer_vals))
    return TwoLevelComposition(outer, inner, subset)


def all_corner_block_test(cube, subset) -> bool:
    """S passes when, for all i < j in S and k outside it, {i, j} is a block
    of the restriction to (x_i, x_j, x_k) with the other inputs fixed at
    every corner in turn: its q^2 columns over x_k take at most q values.
    That is exact for standard semilinear cubes and observed, not proved,
    on every other kind, a second route to factor_on_subset that sweeps no
    column classes of the whole table."""
    n, q, values = cube.n, cube.q, cube.values
    stride = [q ** (n - v) for v in range(n + 1)]
    for i, j in combinations(subset, 2):
        for k in (v for v in range(1, n + 1) if v not in subset):
            others = [stride[v] for v in range(1, n + 1) if v not in (i, j, k)]
            column = [stride[k] * c for c in range(q)]
            plane = [stride[i] * a + stride[j] * b for a in range(q) for b in range(q)]
            for corner in product(range(q), repeat=n - 3):
                start = sum(x * s for x, s in zip(corner, others))
                if len({bytes(values[start + b + c] for c in column) for b in plane}) > q:
                    return False
    return True


def screen_passes(block, n: int, subset) -> bool:
    """The subset rule of find_factorization's sweep on a triple test: S
    passes when block(i, j, k) holds for all i < j in S and k outside it."""
    rest = [k for k in range(1, n + 1) if k not in subset]
    return all(block(i, j, k) for i, j in combinations(subset, 2) for k in rest)


def reference_find_factorization(cube):
    """reference_factor_on_subset on every input subset, smallest first;
    the first factorization found."""
    n = cube.n
    for size in range(2, n):
        for subset in combinations(range(1, n + 1), size):
            fac = reference_factor_on_subset(cube, subset)
            if fac is not None:
                return fac
    return None


# ---------------------------------------------------------------------------
# Cubes outside the composition trees and the semilinear family
# ---------------------------------------------------------------------------


def generic_cube(n: int, q: int, rng, max_steps: int = 200_000):
    """A latin hypercube filled cell by cell in index order: each cell tries
    the symbols free on its n lines in a shuffled order, and a cell with
    none left sends the search back one cell.  None when max_steps symbol
    placements do not finish the table."""
    size = q**n
    strides = [q ** (n - a) for a in range(1, n + 1)]
    # the index of the line along each axis through each cell
    lines = [[idx // (s * q) * s + idx % s for s in strides] for idx in range(size)]
    used = [[0] * (size // q) for _ in strides]  # the symbols on each line
    values = bytearray(size)
    options: list = [None] * size
    idx = steps = 0
    while idx < size:
        if options[idx] is None:
            options[idx] = [v for v in range(q) if not any(u[line] >> v & 1 for u, line in zip(used, lines[idx]))]
            rng.shuffle(options[idx])
        if not options[idx]:
            options[idx] = None
            idx -= 1
            if idx < 0:
                return None
            for u, line in zip(used, lines[idx]):
                u[line] ^= 1 << values[idx]
            continue
        steps += 1
        if steps > max_steps:
            return None
        values[idx] = options[idx].pop()
        for u, line in zip(used, lines[idx]):
            u[line] |= 1 << values[idx]
        idx += 1
    return LatinHypercube(n, q, bytes(values))
