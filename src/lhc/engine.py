"""Exact transversal search over latin hypercubes.

A transversal takes one graph cell per output symbol a = 0..q-1, among the
q^(n-1) cells with x0 = a.  A cell's input tuple is packed into an integer
with one one-hot q-bit field per coordinate, so two cells collide in some
coordinate exactly when their packed masks intersect.  q cells with pairwise
disjoint masks set n bits each, q*n in all, so their union is the full mask
of all q*n bits; conversely every pick of one cell per symbol class whose
masks are disjoint is a transversal.

Counting is meet-in-the-middle.  For the classes 0..q//2-1 (table A) and
for the rest (table B), a table maps each union mask to the number of
disjoint picks with that union.  A first-half pick with union u and a
second-half pick with union w form a transversal exactly when u and w are
disjoint.  w then lies inside full ^ u and has as many bits, so w equals
full ^ u, and the count is the sum of A[u] * B[full ^ u].

Enumeration is a depth-first search over the classes 0..q-3 in table-index
order, testing masks directly; each node books its class size against the
same work budget as the tables.  The last two classes come from a table that
maps each union mask to its disjoint cell pairs in index order; the last
depth-first level looks it up at full ^ (mask used so far) for each cell it
accepts, without a node of its own.  The stream is lexicographic in the
flattened, x0-sorted cell list and bitwise reproducible between runs.

Bucketing an order-4 cube's transversals by block quadruple lists none of
them.  Each cell's mask carries its pair-indicator image (x0>>1, .., xn>>1)
above the mask bits, in one of two slots, so the half tables count picks by
union and images together and still test only masks.  A first-half state
and a second-half state of complementary unions contribute the product of
their counts to the bucket of their four images.  A table inserts a state
at its smallest pick, so walking both tables in insertion order reaches
each bucket first at its first transversal in the enumeration stream.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import islice, product
from typing import TYPE_CHECKING, Iterator

from .core import (
    ENVELOPE_MAX_CELLS,
    Cell,
    EnvelopeError,
    LatinHypercube,
    UnsupportedOrderError,
    cell_sums,
)

if TYPE_CHECKING:
    from .semilinear import Quadruple

ENVELOPE_MAX_ORDER = 6
# Mask tests one search may make: a level of a half table or of the tail
# table costs len(table) * len(class) of them, known before it runs.
MAX_MASK_TESTS = 1 << 26


@dataclass(frozen=True)
class Transversal:
    """q graph cells, sorted by x0, pairwise distinct in every coordinate."""

    cells: tuple[Cell, ...]

    @classmethod
    def of(cls, cells) -> "Transversal":
        return cls(tuple(sorted(tuple(c) for c in cells)))


@dataclass
class SearchStats:
    """What a count cost: nodes_visited is the number of partial states (union
    masks) the two half tables hold, summed over their levels, and
    mask_tests the number of (state, cell) pairs their levels tested."""

    nodes_visited: int = 0
    elapsed: float = 0.0
    mask_tests: int = 0


def verify_transversal(cube: LatinHypercube, t: Transversal) -> bool:
    """True iff every cell lies in the cube's graph and every coordinate
    column is a permutation of 0..q-1."""
    n, q = cube.n, cube.q
    if len(t.cells) != q:
        raise ValueError(f"expected {q} cells, got {len(t.cells)}")
    for cell in t.cells:
        if len(cell) != n + 1:
            raise ValueError(f"expected cells of length {n + 1}, got {len(cell)}")
        if any(not 0 <= x < q for x in cell):
            raise ValueError(f"cell {cell} has symbols out of range for order {q}")
    for cell in t.cells:
        if cube[cell[1:]] != cell[0]:
            return False
    for k in range(n + 1):
        if len({cell[k] for cell in t.cells}) != q:
            return False
    return True


# ---------------------------------------------------------------------------
# Search preparation
# ---------------------------------------------------------------------------


def _check_envelope(cube: LatinHypercube) -> None:
    if cube.q > ENVELOPE_MAX_ORDER:
        raise EnvelopeError(f"search supports order <= {ENVELOPE_MAX_ORDER}, got q={cube.q}")
    if cube.size > ENVELOPE_MAX_CELLS:
        raise EnvelopeError(
            f"search supports q**n <= {ENVELOPE_MAX_CELLS}, got {cube.size}"
        )


def _prepare(cube: LatinHypercube) -> list[list[int]]:
    """Per output symbol, the packed input masks of its cells in index order."""
    _check_envelope(cube)
    n, q = cube.n, cube.q
    classes: list[list[int]] = [[] for _ in range(q)]
    for a, m in zip(cube.values, cell_sums([[1 << (q * i + x) for x in range(q)] for i in range(n)])):
        classes[a].append(m)
    return classes


def _full_mask(cube: LatinHypercube) -> int:
    return (1 << (cube.q * cube.n)) - 1


def _charge(stats: SearchStats, tests: int) -> None:
    """Book the mask tests of the next level, refusing it when the running
    total would pass MAX_MASK_TESTS."""
    if stats.mask_tests + tests > MAX_MASK_TESTS:
        raise EnvelopeError(
            f"search supports at most {MAX_MASK_TESTS} mask tests, this cube needs at least "
            f"{stats.mask_tests + tests}"
        )
    stats.mask_tests += tests


# ---------------------------------------------------------------------------
# Counting
# ---------------------------------------------------------------------------


def _union_counts(classes, stats: SearchStats) -> dict[int, int]:
    """Union mask -> number of picks, one cell per class, pairwise disjoint."""
    table = {0: 1}
    for masks in classes:
        _charge(stats, len(table) * len(masks))
        nxt: dict[int, int] = {}
        for u, c in table.items():
            for m in masks:
                if not u & m:
                    v = u | m
                    nxt[v] = nxt.get(v, 0) + c
        table = nxt
        stats.nodes_visited += len(table)
    return table


def count_transversals_stats(cube: LatinHypercube) -> tuple[int, SearchStats]:
    """Exact transversal count with search statistics."""
    start = time.perf_counter()
    classes = _prepare(cube)
    stats = SearchStats()
    half = cube.q // 2
    first = _union_counts(classes[:half], stats)
    second = _union_counts(classes[half:], stats)
    full = _full_mask(cube)
    found = sum(c * second.get(full ^ u, 0) for u, c in first.items())
    stats.elapsed = time.perf_counter() - start
    return found, stats


def count_transversals(cube: LatinHypercube) -> int:
    return count_transversals_stats(cube)[0]


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def enumerate_transversals(cube: LatinHypercube, limit: int | None = None) -> Iterator[Transversal]:
    """Yield transversals in lexicographic order of the flattened, x0-sorted
    cell list; with a limit, a prefix of the unlimited stream."""
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    gen = _enumerate(cube)
    return gen if limit is None else islice(gen, limit)


def _tail_table(classes) -> dict[int, list[tuple[Cell, ...]]]:
    """Union mask -> disjoint picks from one or two classes, in index order."""
    table: dict[int, list[tuple[Cell, ...]]] = {0: [()]}
    for cells, masks in classes:
        nxt: dict[int, list[tuple[Cell, ...]]] = {}
        for u, picks in table.items():
            for cell, m in zip(cells, masks):
                if not u & m:
                    nxt.setdefault(u | m, []).extend(p + (cell,) for p in picks)
        table = nxt
    return table


def _enumerate(cube: LatinHypercube) -> Iterator[Transversal]:
    masks = _prepare(cube)
    depth = max(cube.q - 2, 0)
    # each cell of a class has its own nonzero mask, so the tail's levels cost
    # |C| and then |C| * |C'| mask tests: book them before any cell tuple is built
    stats, width = SearchStats(), 1
    for class_masks in masks[depth:]:
        width *= len(class_masks)
        _charge(stats, width)
    cells: list[list[Cell]] = [[] for _ in masks]
    for a, x in zip(cube.values, product(range(cube.q), repeat=cube.n)):
        cells[a].append((a,) + x)
    classes = list(zip(cells, masks))
    tail = _tail_table(classes[depth:])
    full = _full_mask(cube)

    def rec(level: int, used: int, chosen: tuple[Cell, ...]):
        cells, masks = classes[level]
        _charge(stats, len(masks))
        if level < depth - 1:
            for cell, m in zip(cells, masks):
                if not used & m:
                    yield from rec(level + 1, used | m, chosen + (cell,))
            return
        # the last depth-first level reads the tail itself
        rest = full ^ used
        for cell, m in zip(cells, masks):
            if not used & m and rest ^ m in tail:
                head = chosen + (cell,)
                for pick in tail[rest ^ m]:
                    yield Transversal(head + pick)

    if depth:
        yield from rec(0, 0, ())
    else:
        for pick in tail.get(full, ()):
            yield Transversal(pick)


# ---------------------------------------------------------------------------
# Bucketing by block quadruple
# ---------------------------------------------------------------------------


def transversals_by_quadruple(cube: LatinHypercube) -> dict[Quadruple, int]:
    """Bucket every transversal of a standardly semilinear cube by the
    quadruple of pair-indicator images of its four cells, the buckets in
    the order the enumerator first reaches them."""
    from .semilinear import Quadruple, _int_to_vec, detect_semilinear

    if cube.q != 4:
        raise UnsupportedOrderError(f"quadruple bucketing needs order 4, got q={cube.q}")
    if detect_semilinear(cube) is None:
        raise ValueError("cube is not standardly semilinear")
    n, m = cube.n, cube.n + 1
    low, shift = (1 << m) - 1, 4 * n
    masks = _prepare(cube)
    # a cell's image (x0>>1, .., xn>>1), position 0 the top bit, sits above
    # the mask bits in slot a % 2 of its half, so u & mask still tests masks
    images: list[list[int]] = [[] for _ in masks]
    for a, v in zip(cube.values, cell_sums([[(x >> 1) << (n - 1 - i) for x in range(4)] for i in range(n)])):
        images[a].append(((a >> 1) << n | v) << (shift + m * (a & 1)))
    classes = [[mk | v for mk, v in zip(ms, vs)] for ms, vs in zip(masks, images)]
    stats, full = SearchStats(), _full_mask(cube)

    def pair(s: int) -> int:
        """The two images of a half state, the larger in the high slot."""
        lo, hi = s >> shift & low, s >> shift + m
        return hi << m | lo if lo <= hi else lo << m | hi

    # union -> {image pair of the second half, shifted above the first: picks}
    by_union: dict[int, dict[int, int]] = {}
    for s, c in _union_counts(classes[2:], stats).items():
        group = by_union.setdefault(s & full, {})
        key = pair(s) << 2 * m
        group[key] = group.get(key, 0) + c
    # the images of the first half have position 0 clear, so a key lists
    # the sorted quadruple from its low bits up
    counts: dict[int, int] = {}
    for s, c in _union_counts(classes[:2], stats).items():
        head = pair(s)
        for tail, c2 in by_union.get(full ^ s & full, {}).items():
            key = head | tail
            counts[key] = counts.get(key, 0) + c * c2
    return {Quadruple(tuple(_int_to_vec(k >> m * j & low, m) for j in range(4))): c for k, c in counts.items()}
