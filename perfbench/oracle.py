"""Reference results computed apart from `lhc`.

Everything here is written from the definitions, without calling the
package: the paper's closed forms, a brute-force transversal counter, a
transversal checker, and the tables of the cubes the command line writes.
The benchmark checks the program's outputs against these after its timed
phase.

Regenerate the stored counts (about 5 s) with

    python3 perfbench/oracle.py
"""

from __future__ import annotations

from itertools import permutations, product

# ---------------------------------------------------------------------------
# Closed forms from the paper
# ---------------------------------------------------------------------------


def iterated_group_count(group: str, n: int) -> int:
    """Transversals of the iterated order-4 group ('z4' or 'z22'), n >= 2."""
    if n % 2:
        return 3 * 24 ** (n - 1) // 8 + 5 * 8 ** (n - 2)
    return 0 if group == "z4" else 3 * 24 ** (n - 1) // 8 - 8 ** (n - 2)


def brindled_count(n: int) -> int:
    if n % 2 == 0:
        return (6**n - 2**n) // 32
    return (6**n - 3 * 2**n) // 32


def twin_count(n: int) -> int:
    return 2 ** (n - 1) if n % 2 else 0


def lambda_z22_bits(n: int) -> str:
    return "0" * (1 << n)


def lambda_z4_bits(n: int) -> str:
    """1 exactly at the points whose weight is 1 or 2 mod 4."""
    return "".join("1" if bin(z).count("1") % 4 in (1, 2) else "0" for z in range(1 << n))


# ---------------------------------------------------------------------------
# Brute force and the transversal checker
#
# A cube is (n, q, values) with values a bytes object in big-endian index
# order: cell (x1..xn) sits at sum(x_i * q**(n-i)).
# ---------------------------------------------------------------------------


def brute_force_count(n: int, q: int, values: bytes) -> int:
    """Count the tuples (p2..pn) of permutations for which
    j -> f(j, p2(j), ..., pn(j)) is a permutation: (q!)^(n-1) steps.

    Every transversal has exactly one cell with x1 = j for each j, so each
    is counted once."""
    perms = list(permutations(range(q)))
    base = [j * q ** (n - 1) for j in range(q)]
    shifts = [[tuple(p[j] * q ** (n - i) for j in range(q)) for p in perms] for i in range(2, n + 1)]
    if not shifts:
        return int(len({values[b] for b in base}) == q)
    count = 0
    for head in product(*shifts[:-1]):
        partial = [base[j] + sum(h[j] for h in head) for j in range(q)]
        for last in shifts[-1]:
            if len({values[a + b] for a, b in zip(partial, last)}) == q:
                count += 1
    return count


def check_transversal(n: int, q: int, values: bytes, flat: bytes) -> bool:
    """`flat` lists q cells (x0, x1..xn) back to back: is it a transversal?"""
    width = n + 1
    if len(flat) != q * width:
        return False
    cells = [flat[k * width : (k + 1) * width] for k in range(q)]
    for cell in cells:
        idx = 0
        for x in cell[1:]:
            if x >= q:
                return False
            idx = idx * q + x
        if values[idx] != cell[0]:
            return False
    return all(len({cell[i] for cell in cells}) == q for i in range(width))


# ---------------------------------------------------------------------------
# Tables built from the definitions
# ---------------------------------------------------------------------------


def _shifted(table: bytes, shift) -> bytes:
    return table.translate(bytes(shift(v) % 256 for v in range(256)))


def iterated_table(group: str, n: int, q: int) -> bytes:
    """x0 solving x0 + x1 + ... + xn = 0 in Z_q ('cyclic', 'z4') or in the
    Klein group coded as bit pairs ('z22')."""
    if group == "z22":
        table = bytes(range(4))
        for _ in range(n - 1):
            table = b"".join(_shifted(table, lambda v, x=x: v ^ x) for x in range(4))
        return table
    table = bytes((-x) % q for x in range(q))
    for _ in range(n - 1):
        table = b"".join(_shifted(table, lambda v, x=x: (v - x) % q) for x in range(q))
    return table


def semilinear_table(bits: str) -> bytes:
    """f(x) = x1 ^ ... ^ xn ^ lam(l(x1)..l(xn)) with l(s) = s >> 1; `bits`
    lists lam with z1 most significant."""
    if len(bits) == 1:
        return bytes([int(bits)])
    half = len(bits) // 2
    low, high = semilinear_table(bits[:half]), semilinear_table(bits[half:])
    return b"".join(_shifted(low if x < 2 else high, lambda v, x=x: v ^ x) for x in range(4))


def tree_table(n: int, q: int, tree) -> bytes:
    """Evaluate a composition tree: ('var', k) or (op_rows, left, right)."""

    def ev(node, xs):
        if node[0] == "var":
            return xs[node[1] - 1]
        return node[0][ev(node[1], xs)][ev(node[2], xs)]

    return bytes(ev(tree, xs) for xs in product(range(q), repeat=n))


def transformed_table(n: int, q: int, values: bytes, isotopy, parastrophe) -> bytes:
    """Isotopy first: R[y] = s0^-1(Q[s1(y1)..sn(yn)]); then the parastrophe
    re-reads the graph with role i taking the old role pi(i)."""
    if isotopy is not None:
        inv0 = [0] * q
        for i, v in enumerate(isotopy[0]):
            inv0[v] = i
        out = bytearray(q**n)
        for idx, ys in enumerate(product(range(q), repeat=n)):
            src = 0
            for perm, y in zip(isotopy[1:], ys):
                src = src * q + perm[y]
            out[idx] = inv0[values[src]]
        values = bytes(out)
    if parastrophe is not None:
        out = bytearray(q**n)
        for idx, xs in enumerate(product(range(q), repeat=n)):
            cell = (values[idx],) + xs
            dest = 0
            for role in parastrophe[1:]:
                dest = dest * q + cell[role]
            out[dest] = cell[parastrophe[0]]
        values = bytes(out)
    return values


def read_lhc_text(text: str) -> tuple[int, int, bytes]:
    """Header and symbols of a cube file, comments skipped."""
    tokens = [t for line in text.splitlines() if not line.lstrip().startswith("#") for t in line.split()]
    if len(tokens) < 3 or tokens[0] != "LHC":
        raise ValueError("not a cube file")
    n, q = int(tokens[1]), int(tokens[2])
    return n, q, bytes(int(t) for t in tokens[3:])


# Counts too slow to recompute on every run, with the cube they belong to.
# `python3 perfbench/oracle.py` recomputes them from brute_force_count.
STORED_COUNTS = {
    ("cyclic", 3, 6): 57024,
    ("cyclic", 4, 5): 321375,
}


def _regenerate() -> dict:
    return {(g, n, q): brute_force_count(n, q, iterated_table(g, n, q)) for g, n, q in STORED_COUNTS}


if __name__ == "__main__":
    fresh = _regenerate()
    for key, value in fresh.items():
        print(f"{key}: {value}" + ("" if STORED_COUNTS[key] == value else f"  (stored {STORED_COUNTS[key]})"))
