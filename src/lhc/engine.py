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
full ^ u, and the count is the sum of A[u] * B[full ^ u].  Where it pays, a
level keys its states on their values in the first k coordinates and scans
for each state only the class's cells that miss that key, filtered once per
key in index order, so the tables fill in the same order as from whole
classes; each level still books len(table) * len(class) mask tests.  The
pair level, a half's second, reads a table kept per shape instead: its
states are the cells of the half's first class, and in a cube latin on its
last axis each class holds one cell per prefix (x1..x_{n-1}), in prefix
order, so the cells that can join a state are those at the prefixes that
differ from its own in every coordinate, whatever the cube, and their masks
are tested for the last coordinate alone.  It serves tables of at most
1024 cells that are latin on their last axis; the others key that level.

Enumeration is a depth-first search over the classes 0..q-3, padded below
order 4 to two levels with classes of one empty pick (mask 0, no cells, no
tests booked), in table-index order with forward checking: each node hands
its children, for every deeper depth-first class, the masks that miss its
pick, and books its class size against the same work budget as the tables
before anything is filtered for it.  The last two classes come from a table
that maps each union mask to its disjoint cell pairs in index order (at
order 1, the one class maps its one cell's mask to that cell).  A lookup
leaves two values of each coordinate free, so the pairs of one union share
their two x1 values; the table is filled one such pair of x1 values at a
time, when a lookup first misses on it, from the two classes' runs of
cells with those x1 values.  So a first transversal tests only the pairs
of the x1 values it reaches, not every pair of the two classes.  A node on
the last depth-first level gets no list or frame of its own: it walks its
parent's list for its class, skips the masks that meet its pick and looks
each other one up in that table at full ^ (mask used so far).  So one loop
serves every order, and one generator frame yields every transversal, each
a Transversal whose slot is filled directly rather than through the frozen
__init__.  The stream is lexicographic in the flattened, x0-sorted cell
list and bitwise reproducible between runs.

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
from functools import cache
from itertools import islice, product
from math import comb
from typing import TYPE_CHECKING, Iterator

from .core import (
    _ONE_HOT,
    ENVELOPE_MAX_CELLS,
    Cell,
    EnvelopeError,
    LatinHypercube,
    Record,
    cell_sums,
    slabs,
)

if TYPE_CHECKING:
    from .semilinear import Quadruple

# Mask tests one search may make: a level of a half table or of the tail
# table costs len(table) * len(class) of them, known before it runs.
MAX_MASK_TESTS = 1 << 26


class Transversal(Record):
    """q graph cells, sorted by x0, pairwise distinct in every coordinate."""

    __slots__ = ("cells",)
    cells: tuple[Cell, ...]

    @classmethod
    def of(cls, cells) -> "Transversal":
        return cls(tuple(sorted(tuple(c) for c in cells)))


class SearchStats:
    """What a count cost: nodes_visited is the number of partial states (union
    masks) the two half tables hold, summed over their levels, and
    mask_tests the booked budget, len(table) * len(class) per level: an
    upper bound on the (state, cell) pairs tested, since a keyed level tests
    only the cells left after its key, and a pair level only the cells at
    the prefixes its pair table lists.  elapsed is the whole call in
    seconds, prepare_ms its search preparation and search_ms the half tables
    and their join, both in milliseconds."""

    __slots__ = ("nodes_visited", "elapsed", "mask_tests", "prepare_ms", "search_ms")
    nodes_visited: int
    elapsed: float
    mask_tests: int
    prepare_ms: float
    search_ms: float

    def __init__(self):
        self.nodes_visited = self.mask_tests = 0
        self.elapsed = self.prepare_ms = self.search_ms = 0.0


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


# Tables of at most this many cells keep their shape's masks and coordinates
# (_shape) for the life of the process.  The cap alone bounds what is kept:
# 66 shapes (q = 1..8) fit under it, about 4 MB in all
_KEPT_SHAPE_CELLS = 4096


def _shape(q: int, n: int):
    """Per cell of a q^n table, in index order, its packed input mask and its
    coordinates.  Up to _KEPT_SHAPE_CELLS cells these are tuples, built once
    per shape, kept and only read; above that they stream, so nothing is
    held."""
    if q**n <= _KEPT_SHAPE_CELLS:
        return _kept_shape(q, n)
    return _cell_masks(q, n), product(range(q), repeat=n)


@cache
def _kept_shape(q: int, n: int) -> tuple[tuple[int, ...], tuple[Cell, ...]]:
    return tuple(_cell_masks(q, n)), tuple(product(range(q), repeat=n))


# Tables of at most this many cells also keep their shape's pair table
# (_disjoint_prefixes), read at the pair level of each half table: 58 shapes
# (q = 1..8), 47,328 entries, under 0.5 MB in all.  At 4096 cells xor n=6
# would keep 248,832 entries more, about 2 MB
_PAIR_TABLE_CELLS = 1024


@cache
def _disjoint_prefixes(q: int, m: int) -> tuple[tuple[int, ...], ...]:
    """Per prefix of m coordinates, in index order, the ascending indices of
    the prefixes that differ from it in every coordinate: the row of
    (x, rest) is y * q^(m-1) + j for each y != x and each j in the row of
    rest."""
    if not m:
        return ((0,),)
    rest, w = _disjoint_prefixes(q, m - 1), q ** (m - 1)
    return tuple(tuple(y * w + j for y in range(q) if y != x for j in row) for x in range(q) for row in rest)


def _pair_rows(cube: LatinHypercube) -> tuple[tuple[int, ...], ...] | None:
    """The pair table of the cube's shape, when it has at most
    _PAIR_TABLE_CELLS cells and its last axis is latin, so that each class
    holds one cell per prefix of the first n-1 coordinates, in prefix
    order; None otherwise."""
    if cube.size > _PAIR_TABLE_CELLS:
        return None
    q = cube.q
    seen = 0
    for part in slabs(cube.values.translate(_ONE_HOT), q, 1):
        seen |= int.from_bytes(part, "little")
    if seen != int.from_bytes(bytes([(1 << q) - 1]) * (cube.size // q), "little"):
        return None
    return _disjoint_prefixes(q, cube.n - 1)


def _cell_masks(q: int, n: int) -> Iterator[int]:
    return cell_sums([[1 << (q * i + x) for x in range(q)] for i in range(n)])


def _check_envelope(size: int) -> None:
    if size > ENVELOPE_MAX_CELLS:
        raise EnvelopeError(f"search supports q**n <= {ENVELOPE_MAX_CELLS}, got {size}")


def _prepare(cube: LatinHypercube) -> list[list[int]]:
    """Per output symbol, the packed input masks of its cells in index order."""
    _check_envelope(cube.size)
    classes: list[list[int]] = [[] for _ in range(cube.q)]
    for a, m in zip(cube.values, _shape(cube.q, cube.n)[0]):
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


def _key_width(states: int, size: int, picked: int, q: int, n: int) -> int:
    """The number k of coordinates a level keys its candidate lists on.  Every
    state holds `picked` of the q values of each coordinate, so there are at
    most min(states, C(q, picked)^k) keys to filter the class for, and below
    k = n a latin class projects evenly, so each state scans size * ((q -
    picked) / q)^k cells.  k grows while that total keeps falling, from
    states * size unkeyed; its first step pays exactly when states * picked
    > q * C(q, picked).  A pair level (picked == 1) keys only when the cube
    has no pair table (_pair_rows): above 1024 cells, or not latin on its
    last axis."""
    keys = comb(q, picked)
    if states * picked <= q * keys:
        return 0
    k, best = 0, states * size
    while k < n - 1:
        cost = min(states, keys ** (k + 1)) * size + states * size * ((q - picked) / q) ** (k + 1)
        if cost >= best:
            break
        k, best = k + 1, cost
    return k


def _union_counts(classes, stats: SearchStats, q: int, n: int, pairs) -> dict[int, int]:
    """Union mask -> number of picks, one cell per class, pairwise disjoint.
    A state scans only the cells that miss its values on the first k
    coordinates, from one list per key, filtered in index order, so the
    picks reach the next table in the same order as from the whole class.
    Given the cube's pair table (pairs, from _pair_rows), the second level
    reads each state's candidates from it instead: the states are then the first
    class's cells in prefix order, and a state's row lists, in index order,
    the cells of the second class whose prefixes miss its own."""
    table = {0: 1}
    for picked, masks in enumerate(classes):
        _charge(stats, len(table) * len(masks))
        # the next level books len(nxt) * its class size, and nxt only grows:
        # refuse as soon as that passes the budget left (never on a half's last level)
        ahead = len(classes[picked + 1]) if picked + 1 < len(classes) else 0
        room = MAX_MASK_TESTS - stats.mask_tests
        nxt: dict[int, int] = {}
        if picked == 1 and pairs is not None:
            for (u, c), row in zip(table.items(), pairs):
                if len(nxt) * ahead > room:
                    _charge(stats, len(nxt) * ahead)
                for j in row:
                    m = masks[j]
                    if not u & m:
                        v = u | m
                        nxt[v] = nxt.get(v, 0) + c
        else:
            k = _key_width(len(table), len(masks), picked, q, n) if picked else 0
            low, cand = (1 << q * k) - 1, masks
            lists: dict[int, list[int]] = {}
            for u, c in table.items():
                if len(nxt) * ahead > room:
                    _charge(stats, len(nxt) * ahead)
                if low:
                    key = u & low
                    cand = lists.get(key)
                    if cand is None:
                        cand = lists[key] = [m for m in masks if not m & key]
                for m in cand:
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
    prepared = time.perf_counter()
    stats = SearchStats()
    half = cube.q // 2
    # the larger half first: a count the budget refuses is mostly refused
    # while that table grows, before the smaller one has run in full
    pairs = _pair_rows(cube)
    second = _union_counts(classes[half:], stats, cube.q, cube.n, pairs)
    first = _union_counts(classes[:half], stats, cube.q, cube.n, pairs)
    full = _full_mask(cube)
    found = sum(c * second.get(full ^ u, 0) for u, c in first.items())
    end = time.perf_counter()
    stats.elapsed = end - start
    stats.prepare_ms = (prepared - start) * 1e3
    stats.search_ms = (end - prepared) * 1e3
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


def _fill_tail(tail, key: int, first, second) -> None:
    """Add to the tail table every disjoint pair from the last two classes
    whose x1 values are the two in key, each union's pairs in index order.
    first and second list each class's (cell, mask) pairs by x1 value.  Its
    tests were booked with the tail's pair level, |C| * |C'| for all keys."""
    lo, hi = (key & -key).bit_length() - 1, key.bit_length() - 1
    for x, y in ((lo, hi), (hi, lo)):
        others = second[y]
        for a, u in first[x]:
            for b, m in others:
                if not u & m:
                    v = u | m
                    got = tail.get(v)
                    if got is None:
                        tail[v] = [(a, b)]
                    else:
                        got.append((a, b))


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
    symbols = [(a,) for a in range(cube.q)]  # each cell is symbols[a] + x, one tuple built
    for a, x in zip(cube.values, _shape(cube.q, cube.n)[1]):
        cells[a].append(symbols[a] + x)
    full = _full_mask(cube)
    # union mask -> disjoint picks from the last one or two classes; from
    # order 2 on it is filled one pair of x1 values (the low q bits of a
    # lookup) at a time, from each tail class's cells and masks by x1 value
    tail: dict[int, list[tuple[Cell, ...]]] = {full: [(cells[0][0],)]} if cube.q == 1 else {}
    filled, low = set(), (1 << cube.q) - 1
    runs = [[[] for _ in range(cube.q)] for _ in masks[depth:]]
    for by_x1, cs, ms in zip(runs, cells[depth:], masks[depth:]):
        for c, m in zip(cs, ms):
            by_x1[c[1]].append((c, m))
    # a yielded value is the frozen Record with its one slot filled directly,
    # without the per-field object.__setattr__ of its __init__
    new, fill = object.__new__, Transversal.cells.__set__
    # masks becomes the depth-first classes, padded below order 4 with classes
    # that book no tests and pick mask 0, cells (): 1-tuples concatenate at every level
    pads = max(2 - depth, 0)
    cell_of = [{0: ()}] * pads + [dict(zip(ms, zip(cs))) for ms, cs in zip(masks[:depth], cells)]
    lists, masks = [[0]] * pads + masks[:depth], [[]] * pads + masks[:depth]
    depth += pads
    _charge(stats, len(masks[0]))
    last, last_size = cell_of[-1], len(masks[depth - 1])
    # a node: the mask and cells picked so far, and for its own level and each
    # deeper depth-first level the masks that miss them, in index order; it
    # books its class in full before anything is filtered for its children
    used, head = 0, ()
    frames = []  # per open level above the node: its picks left, used, head, deeper lists
    while True:
        if len(lists) > 2:
            frames.append((iter(lists[0]), used, head, lists[1:]))
        else:
            # the children are on the last depth-first level: each books its
            # class, then looks up in the tail each mask left that misses its pick
            here, ahead = cell_of[depth - 2], lists[1]
            for m in lists[0]:
                _charge(stats, last_size)
                rest, chosen = full ^ used ^ m, head + here[m]
                for x in ahead:
                    if not x & m:
                        picks = tail.get(rest ^ x)
                        if picks is None:
                            key = (rest ^ x) & low
                            if key in filled:
                                continue
                            filled.add(key)
                            _fill_tail(tail, key, *runs)
                            picks = tail.get(rest ^ x)
                        if picks:
                            at = chosen + last[x]
                            for pick in picks:
                                t = new(Transversal)
                                fill(t, at + pick)
                                yield t
        while frames:
            left, used, head, lists = frames[-1]
            m = next(left, None)
            if m is not None:
                break
            frames.pop()
        else:
            return
        level = depth - len(lists)
        _charge(stats, len(masks[level]))
        used, head = used | m, head + cell_of[level - 1][m]
        lists = [[x for x in deeper if not x & m] for deeper in lists]


# ---------------------------------------------------------------------------
# Bucketing by block quadruple
# ---------------------------------------------------------------------------


def transversals_by_quadruple(cube: LatinHypercube) -> dict[Quadruple, int]:
    """Bucket every transversal of a standardly semilinear cube by the
    quadruple of pair-indicator images of its four cells, the buckets in
    the order the enumerator first reaches them."""
    from .semilinear import Quadruple, _int_to_vec, detect_semilinear

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
    pairs = _pair_rows(cube)
    for s, c in _union_counts(classes[2:], stats, 4, n, pairs).items():
        group = by_union.setdefault(s & full, {})
        key = pair(s) << 2 * m
        group[key] = group.get(key, 0) + c
    # the images of the first half have position 0 clear, so a key lists
    # the sorted quadruple from its low bits up
    counts: dict[int, int] = {}
    for s, c in _union_counts(classes[:2], stats, 4, n, pairs).items():
        head = pair(s)
        for tail, c2 in by_union.get(full ^ s & full, {}).items():
            key = head | tail
            counts[key] = counts.get(key, 0) + c * c2
    return {Quadruple(tuple(_int_to_vec(k >> m * j & low, m) for j in range(4))): c for k, c in counts.items()}
