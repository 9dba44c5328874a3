"""Exact search: verification, counting, enumeration, bucketing."""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import pickle
import random
import tracemalloc

import pytest

from helpers import addition_square, all_lambdas, brute_force_transversals, cyclic_cube, xor_cube
from lhc import (
    BooleanFn,
    EnvelopeError,
    GroupKind,
    LatinHypercube,
    QuadrupleClass,
    StructuralError,
    Transversal,
    UnsupportedOrderError,
    classify_quadruple,
    compose,
    count_transversals,
    count_transversals_formula,
    count_transversals_stats,
    count_twin,
    engine,
    enumerate_transversals,
    gen_iterated_group,
    gen_semilinear,
    lambda_z4,
    lambda_z22,
    lower_bound_completely_reducible,
    transversals_by_quadruple,
    verify_transversal,
    zero_transversal_criterion,
)
from lhc.core import MAX_ARITY, MAX_ORDER, coords_of
from lhc.fixtures import EXAMPLE_CUBE_2, load_fixture
from lhc.randgen import random_lambda, random_quasigroup, random_tree


def test_verify_single_cell_order_one():
    cube = LatinHypercube(2, 1, bytes([0]))
    assert verify_transversal(cube, Transversal.of([(0, 0, 0)]))


def test_verify_diagonal_of_cyclic_square():
    sq = addition_square(3).as_cube()
    diag = Transversal.of([((2 * i) % 3, i, i) for i in range(3)])
    assert verify_transversal(sq, diag)


def test_transversal_is_a_frozen_slotted_value():
    t = Transversal.of([(1, 1, 0), (0, 0, 1)])
    for copied in (pickle.loads(pickle.dumps(t)), copy.deepcopy(t)):
        assert copied == t and hash(copied) == hash(t)
    assert not hasattr(t, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.cells = ()
    # refused; CPython 3.11 raises TypeError from the frozen __setattr__, whose
    # super() call names the class as it was before slots were added
    with pytest.raises((TypeError, AttributeError)):
        t.extra = 1


# orders 1 and 2 yield straight from the tail table, order 3 from its one
# depth-first level, orders 4 and 5 from the last of two and three
YIELD_SITES = [
    ("order 1", lambda: LatinHypercube(2, 1, bytes(1))),
    ("order 2 n=3", lambda: cyclic_cube(3, 2)),
    ("cyclic q=3 n=2", lambda: cyclic_cube(2, 3)),
    ("xor n=2", lambda: xor_cube(2)),
    ("cyclic q=5 n=2", lambda: cyclic_cube(2, 5)),
]


@pytest.mark.parametrize("make", [p[1] for p in YIELD_SITES], ids=[p[0] for p in YIELD_SITES])
def test_yielded_transversals_are_ordinary_values(make):
    listed = list(enumerate_transversals(make()))
    assert listed
    for t in listed:
        made = Transversal.of(t.cells)
        assert t == made and hash(t) == hash(made) and repr(t) == repr(made)
        for copied in (pickle.loads(pickle.dumps(t)), copy.deepcopy(t)):
            assert copied == t and hash(copied) == hash(t)
        assert not hasattr(t, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            t.cells = ()


def test_verify_rejects_shared_coordinate():
    cube = xor_cube(2)
    cells = [(0, 0, 0), (3, 1, 2), (1, 2, 3), (1, 3, 2)]  # x2 repeats 2
    assert all(cube[c[1:]] == c[0] for c in cells)
    assert not verify_transversal(cube, Transversal.of(cells))


def test_verify_rejects_non_graph_cell():
    cube = xor_cube(2)
    cells = [(1, 0, 0), (0, 1, 1), (2, 2, 3), (3, 3, 2)]
    assert not verify_transversal(cube, Transversal.of(cells))


def test_verify_shape_errors():
    cube = xor_cube(2)
    with pytest.raises(ValueError):
        verify_transversal(cube, Transversal.of([(0, 0, 0)]))
    with pytest.raises(ValueError):
        verify_transversal(cube, Transversal.of([(0, 0), (1, 1), (2, 2), (3, 3)]))
    with pytest.raises(ValueError):
        verify_transversal(cube, Transversal.of([(0, 0, 4), (1, 1, 0), (2, 2, 1), (3, 3, 2)]))


def test_count_binary_baselines():
    assert count_transversals(cyclic_cube(2)) == 0
    assert count_transversals(xor_cube(2)) == 8
    assert count_transversals(xor_cube(3)) == 256


def test_odd_arity_closed_form_at_seven():
    want = 3 * 24**6 // 8 + 5 * 8**5
    assert want == 71827456
    assert count_transversals(cyclic_cube(7)) == want
    assert count_transversals(xor_cube(7)) == want


def test_iterated_cyclic_groups_have_transversals_unless_order_and_arity_are_even():
    # the n-ary Hall-Paige parity (README, "Iterated cyclic groups"): summing
    # x0 + .. + xn = 0 over a transversal's q cells gives (n+1)*q/2 = 0 mod q
    # when q is even, so n is odd; pairing t with -t (and, at odd q and even
    # n, t, t, -2t) builds one otherwise.  The n = 2 counts at q = 3, 5 and 7
    # are those of cyclic squares (OEIS A006717).  At q = 2 a transversal is
    # a cell and its complement, 2^(n-1) of them at odd n; n = 12 and 13 sit
    # on either side of the 4096 cells whose shape the search keeps
    grid = {2: 13, 3: 6, 4: 6, 5: 4, 6: 4, 7: 3}
    counts = {(q, n): count_transversals(gen_iterated_group(GroupKind.CYCLIC, n, q))
              for q, top in grid.items() for n in range(1, top + 1)}
    assert {key for key, count in counts.items() if count == 0} == {
        (q, n) for q, n in counts if q % 2 == n % 2 == 0
    }
    assert [counts[q, 2] for q in (3, 5, 7)] == [3, 15, 133]
    assert [counts[2, n] for n in range(1, 14, 2)] == [2 ** (n - 1) for n in range(1, 14, 2)]


def test_enumerate_identity_permutation():
    cube = LatinHypercube(1, 4, bytes([0, 1, 2, 3]))
    ts = list(enumerate_transversals(cube))
    assert len(ts) == 1
    assert verify_transversal(cube, ts[0])


def test_enumerate_limit_is_prefix():
    cube = xor_cube(3)
    first5 = list(enumerate_transversals(cube, limit=5))
    full = list(enumerate_transversals(cube))
    assert len(first5) == 5
    assert full[:5] == first5
    assert len(full) == 256


def test_enumerate_full_xor_square():
    cube = xor_cube(2)
    ts = list(enumerate_transversals(cube))
    assert len(ts) == 8
    assert len({t.cells for t in ts}) == 8
    for t in ts:
        assert verify_transversal(cube, t)
    flattened = [sum(t.cells, ()) for t in ts]
    assert flattened == sorted(flattened)
    for t in ts:
        assert [c[0] for c in t.cells] == [0, 1, 2, 3]


def _stream_digest(cube) -> tuple[int, str]:
    """Length and sha256 of the enumeration stream, each transversal written
    as its flattened cells."""
    h = hashlib.sha256()
    count = 0
    for t in enumerate_transversals(cube):
        h.update(bytes(x for cell in t.cells for x in cell))
        count += 1
    return count, h.hexdigest()


# Digests of the lexicographic stream, recorded from an earlier, independent
# implementation of the search.  Any change to the enumeration order, or to
# the cells listed, shows up here.
PINNED_STREAMS = [
    ("xor n=3", lambda: xor_cube(3), 256, "e2bcc917a6ea74c09b7dec2068e9e7f1561910b63920e70a02c406dd7175954f"),
    ("cyclic q=5 n=3", lambda: cyclic_cube(3, 5), 3325, "81ca3704cccb4d84997cdac4f67e61281d8132567ef504b80f087c794c708acb"),
    ("example cube 2", lambda: load_fixture(EXAMPLE_CUBE_2), 96, "b30781ab23c30a08616980ccba5ed9549dfed3302b312f0c7dc787a01eb13109"),
    ("random q=4 n=4", lambda: random_quasigroup(4, 4, random.Random(2016)), 256, "88f860c93004310dd1a68d7d2376192d151e1b748fee67bfc0170603f9c26e6a"),
    ("order 1", lambda: LatinHypercube(3, 1, bytes(1)), 1, "df3f619804a92fdb4057192dc43dd748ea778adc52bc498ce80524c014b81119"),
    ("order 2 n=3", lambda: cyclic_cube(3, 2), 4, "07818b8b8cd9e9249e2d61bc57336e24a776430fa169fb438e5d338c15039d87"),
    ("order 2 n=4", lambda: cyclic_cube(4, 2), 0, hashlib.sha256().hexdigest()),
    # one depth-first level (q=3) and four (q=6) ahead of the tail
    ("random q=3 n=5", lambda: random_quasigroup(5, 3, random.Random(2016)), 891, "44c38436e96724fa0fcd4d6b1e4ca251d7176986e12027160c798d87fbb48ad2"),
    ("random q=6 n=3", lambda: random_quasigroup(3, 6, random.Random(2016)), 31680, "772bc24d0989f1826bdb2b56ac22636b55e6924d4c364b94758b94dc0ae325a7"),
]


@pytest.mark.parametrize("make,count,digest", [p[1:] for p in PINNED_STREAMS], ids=[p[0] for p in PINNED_STREAMS])
def test_enumeration_stream_is_pinned(make, count, digest):
    assert _stream_digest(make()) == (count, digest)


def test_determinism():
    cube = load_fixture(EXAMPLE_CUBE_2)
    c1, s1 = count_transversals_stats(cube)
    c2, s2 = count_transversals_stats(cube)
    assert (c1, s1.nodes_visited) == (c2, s2.nodes_visited)
    assert c1 == c2 == 96
    assert s1.nodes_visited > 0
    assert list(enumerate_transversals(cube)) == list(enumerate_transversals(cube))


def test_search_stats_split_the_elapsed_time():
    _, stats = count_transversals_stats(cyclic_cube(4, 5))
    assert stats.prepare_ms >= 0 and stats.search_ms >= 0
    # the two phases are timed inside the call; allow for float rounding
    assert stats.prepare_ms + stats.search_ms <= stats.elapsed * 1e3 + 1e-6


def test_envelope_order_limit():
    # the search takes every order a cube may have; order 9 is refused by
    # the cube itself, not by the search
    for q in (7, 8):
        assert count_transversals(LatinHypercube(1, q, bytes(range(q)))) == 1
    with pytest.raises(StructuralError, match="order must be in 1..8, got 9$"):
        LatinHypercube(1, 9, bytes(range(9)))


# 133 is the transversal count of the cyclic square of order 7 (OEIS
# A006717); an even cyclic square has none; xor is on 3-bit symbols
LARGE_ORDER_SQUARES = [
    ("cyclic q=7", lambda: cyclic_cube(2, 7), 133),
    ("cyclic q=8", lambda: cyclic_cube(2, 8), 0),
    ("xor q=8", lambda: LatinHypercube(2, 8, bytes(x ^ y for x in range(8) for y in range(8))), 384),
]


@pytest.mark.parametrize("make,count", [p[1:] for p in LARGE_ORDER_SQUARES], ids=[p[0] for p in LARGE_ORDER_SQUARES])
def test_orders_seven_and_eight_match_brute_force(make, count):
    cube = make()
    listed = list(enumerate_transversals(cube))
    assert count_transversals(cube) == len(listed) == count
    assert set(listed) == brute_force_transversals(cube)


def test_random_order_seven_cube_counts_its_enumeration():
    # a composition tree, perhaps transformed, so completely reducible: the
    # paper's lower bound (q * q!)^((n-1)/2) applies
    cube = random_quasigroup(3, 7, random.Random(0))
    count = count_transversals(cube)
    assert count == sum(1 for _ in enumerate_transversals(cube))
    assert count >= lower_bound_completely_reducible(3, 7)


# (count, nodes_visited, mask_tests), recorded from an implementation whose
# levels tested whole classes: a keyed level scans fewer cells but books the
# same budget and holds the same states
PINNED_SEARCH_STATS = [
    # classes of 16 cells, and each half table has 16 states after its first
    # level, so each half tests 16 + 16 * 16 masks
    ("xor n=3", lambda: xor_cube(3), (256, 136, 2 * (16 + 16 * 16))),
    ("cyclic q=5 n=4", lambda: cyclic_cube(4, 5), (321375, 6250, 281500)),
    ("cyclic q=3 n=7", lambda: cyclic_cube(7, 3), (31347, 2187, 532899)),
    ("xor n=6", lambda: xor_cube(6), (2981888, 25344, 2099200)),
    ("tree q=5 n=4", lambda: compose(random_tree(4, 5, random.Random(2016))), (85375, 18300, 546500)),
    # the largest tables under the pair table's 1024 cells; cyclic q=3 n=7
    # and xor n=6 above them key every level
    ("cyclic q=3 n=6", lambda: cyclic_cube(6, 3), (5103, 729, 59535)),
    ("xor n=5", lambda: xor_cube(5), (126976, 4384, 131584)),
    ("cyclic q=8 n=3", lambda: cyclic_cube(3, 8), (35061760, 133232, 3035264)),
]


@pytest.mark.parametrize("make,want", [p[1:] for p in PINNED_SEARCH_STATS], ids=[p[0] for p in PINNED_SEARCH_STATS])
def test_mask_tests_are_counted_per_level(make, want):
    count, stats = count_transversals_stats(make())
    assert (count, stats.nodes_visited, stats.mask_tests) == want


def test_work_budget_refuses_the_level_that_would_pass_it(monkeypatch):
    cube = xor_cube(3)
    monkeypatch.setattr(engine, "MAX_MASK_TESTS", 2 * (16 + 16 * 16))
    assert count_transversals(cube) == 256
    monkeypatch.setattr(engine, "MAX_MASK_TESTS", 2 * (16 + 16 * 16) - 1)
    with pytest.raises(EnvelopeError, match="mask tests"):
        count_transversals(cube)
    # enumeration books its tail's two levels first, before it tests a pair
    monkeypatch.setattr(engine, "MAX_MASK_TESTS", 16 + 16 * 16 - 1)
    with pytest.raises(EnvelopeError, match="mask tests"):
        next(enumerate_transversals(cube, limit=5))


def test_work_budget_covers_the_depth_first_part(monkeypatch):
    # xor n=3: the tail books 16 + 16 * 16 mask tests, the depth-first part
    # 16 at its root and 16 at each of the 16 picks from class 0, and each of
    # those picks leads to 16 transversals
    cube = xor_cube(3)
    stream = list(enumerate_transversals(cube))
    monkeypatch.setattr(engine, "MAX_MASK_TESTS", 2 * (16 + 16 * 16))
    assert list(enumerate_transversals(cube)) == stream
    monkeypatch.setattr(engine, "MAX_MASK_TESTS", 2 * (16 + 16 * 16) - 1)
    got = []
    with pytest.raises(EnvelopeError, match="mask tests"):
        for t in enumerate_transversals(cube):
            got.append(t)
    assert got == stream[: 15 * 16]


def test_an_oversized_count_is_refused_while_its_table_grows():
    # cyclic q=6 n=6: classes of 7776 cells, so the first half's second level
    # books 7776^2 mask tests and the third would pass the budget many times
    # over; the refusal comes once the second level's growing table times
    # 7776 passes what is left, not after that level has run in full
    cube = cyclic_cube(6, 6)
    tracemalloc.start()
    try:
        with pytest.raises(EnvelopeError, match="mask tests"):
            count_transversals(cube)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_the_larger_half_table_is_built_first():
    # cyclic q=5 n=6: classes of 3125 cells, split 2 + 3.  The three-class
    # half is refused while its second level grows; built second, it would
    # start only after the two-class half had run in full (200000 states,
    # a tracemalloc peak of 22 MB)
    cube = cyclic_cube(6, 5)
    tracemalloc.start()
    try:
        with pytest.raises(EnvelopeError, match="mask tests"):
            count_transversals(cube)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


# (transversals, bookings, their total) of list mode.  The tail's levels
# cost |C| and |C| * |C'| mask tests, then each depth-first node books its
# class: xor n=2 tests 4 + 16, then 4 at its root and 4 at each of its 4
# picks.  Orders 5 and 6 nest three and four depth-first levels; their
# figures were recorded from an implementation without forward checking.
PINNED_BOOKINGS = [
    ("xor n=2", lambda: xor_cube(2), 8, 7, 40),
    ("cyclic q=5 n=3", lambda: cyclic_cube(3, 5), 3325, 353, 9425),
    ("random q=6 n=3", lambda: random_quasigroup(3, 6, random.Random(2016)), 31680, 9003, 325368),
]


@pytest.mark.parametrize("make,count,bookings,total", [p[1:] for p in PINNED_BOOKINGS], ids=[p[0] for p in PINNED_BOOKINGS])
def test_list_mode_books_each_level_once_on_one_stats(monkeypatch, make, count, bookings, total):
    booked = []
    charge = engine._charge

    def logged(stats, tests):
        booked.append((id(stats), tests))
        charge(stats, tests)

    monkeypatch.setattr(engine, "_charge", logged)
    cube = make()
    assert sum(1 for _ in enumerate_transversals(cube)) == count
    size = cube.q ** (cube.n - 1)
    assert [tests for _, tests in booked] == [size, size * size] + [size] * (bookings - 2)
    assert sum(tests for _, tests in booked) == total
    assert len({key for key, _ in booked}) == 1


# (transversals, nonzero bookings, their total) of list mode below order 4:
# the tail books |C| and |C| * |C'|, then order 3 books class 0 once; a
# level with nothing to test may book 0, which is dropped here.
PINNED_SMALL_BOOKINGS = [
    (2, 3, 4, [4, 16], 20),
    (3, 3, 27, [9, 81, 9], 99),
    (3, 4, 135, [27, 729, 27], 783),
]


@pytest.mark.parametrize("q,n,count,bookings,total", PINNED_SMALL_BOOKINGS, ids=[f"cyclic q={p[0]} n={p[1]}" for p in PINNED_SMALL_BOOKINGS])
def test_list_mode_books_the_same_below_order_four(monkeypatch, q, n, count, bookings, total):
    booked = []
    charge = engine._charge

    def logged(stats, tests):
        booked.append(tests)
        charge(stats, tests)

    monkeypatch.setattr(engine, "_charge", logged)
    assert sum(1 for _ in enumerate_transversals(gen_iterated_group(GroupKind.CYCLIC, n, q))) == count
    assert [tests for tests in booked if tests] == bookings
    assert sum(booked) == total


def test_oversized_tail_is_refused_before_the_cells_are_built():
    # xor n=8: classes of 16384 cells, so the tail's pair level would test
    # 16384^2 masks; one tuple per cell would take about 20 MB
    cube = xor_cube(8)
    tracemalloc.start()
    try:
        with pytest.raises(EnvelopeError, match="needs at least 268451840$"):
            next(enumerate_transversals(cube))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


def test_a_first_transversal_fills_only_the_tail_it_reaches():
    # xor n=6: classes of 1024 cells.  The tail's pairs are filled one pair
    # of x1 values at a time as lookups reach them; a table of all 1024^2
    # cell pairs would take a tracemalloc peak of about 13.6 MB
    cube = xor_cube(6)
    tracemalloc.start()
    try:
        first = next(enumerate_transversals(cube))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verify_transversal(cube, first)
    assert peak < 6 * 2**20


@pytest.mark.parametrize(
    "q,n", [(2, 12), (4, 6), (8, 4), (2, 13), (1, MAX_ARITY)],
    ids=["q=2 n=12", "q=4 n=6", "q=8 n=4", "q=2 n=13", "q=1 n=24"],
)
def test_prepare_matches_a_per_cell_reference_at_the_kept_size(q, n):
    # 4096 cells is the most whose masks and coordinates are kept per shape;
    # q=2 n=13 is just above it and streams them afresh on every call.  Under
    # the cap a second call reads what the first kept
    cube = cyclic_cube(n, q)
    want: list[list[int]] = [[] for _ in range(q)]
    for index, a in enumerate(cube.values):
        want[a].append(sum(1 << (q * i + x) for i, x in enumerate(coords_of(index, n, q))))
    assert engine._prepare(cube) == want
    assert engine._prepare(cube) == want


def test_every_shape_under_the_kept_size_is_built_once_per_process():
    # the 4096-cell cap alone bounds what is kept: 66 shapes of orders
    # 1..8 (order 1 up to the arity bound), about 4 MB in all
    shapes = [(q, n) for q in range(1, MAX_ORDER + 1) for n in range(1, MAX_ARITY + 1) if q**n <= 4096]
    engine._kept_shape.cache_clear()
    tracemalloc.start()
    try:
        for q, n in shapes:
            engine._shape(q, n)
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    for q, n in shapes:
        engine._shape(q, n)
    engine._shape(2, 13)
    info = engine._kept_shape.cache_info()
    assert len(shapes) == 66
    assert (info.misses, info.hits, info.currsize) == (66, 66, 66)
    assert current < 5 * 2**20


@pytest.mark.parametrize("q,m", [(q, m) for q in range(1, 6) for m in range(5) if q**m <= 256])
def test_disjoint_prefixes_are_the_prefixes_that_differ_everywhere(q, m):
    prefixes = [coords_of(i, m, q) for i in range(q**m)]
    want = [[j for j, b in enumerate(prefixes) if all(x != y for x, y in zip(a, b))] for a in prefixes]
    assert [list(row) for row in engine._disjoint_prefixes(q, m)] == want


def test_every_pair_table_under_its_cap_is_small():
    # 58 shapes of orders 1..8 have at most 1024 cells, 47,328 entries
    shapes = [(q, n) for q in range(1, MAX_ORDER + 1) for n in range(1, MAX_ARITY + 1) if q**n <= 1024]
    engine._disjoint_prefixes.cache_clear()
    tracemalloc.start()
    try:
        tables = [engine._disjoint_prefixes(q, n - 1) for q, n in shapes]
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert engine._PAIR_TABLE_CELLS == 1024
    assert (len(shapes), engine._disjoint_prefixes.cache_info().currsize) == (58, 58)
    assert sum(len(row) for table in tables for row in table) == 47328
    assert current < 2**20


def test_pair_table_serves_only_small_cubes_latin_on_their_last_axis():
    assert engine._pair_rows(xor_cube(5)) is engine._disjoint_prefixes(4, 4)
    assert engine._pair_rows(xor_cube(6)) is None
    # latin on every axis but the last
    assert engine._pair_rows(LatinHypercube(2, 3, bytes([0, 0, 0, 1, 1, 1, 2, 2, 2]))) is None
    # latin on the last axis alone
    assert engine._pair_rows(LatinHypercube(2, 3, bytes([0, 1, 2] * 3))) is engine._disjoint_prefixes(3, 1)


def test_a_first_transversal_above_the_kept_size_keeps_nothing():
    # xor n=7: 16384 cells, above the 4096 whose shape is kept, so once the
    # generator is dropped no table of that size is left behind
    cube = xor_cube(7)
    tracemalloc.start()
    try:
        stream = enumerate_transversals(cube)
        first = next(stream)
        del stream
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert verify_transversal(cube, first)
    assert current < 2**20


def test_envelope_size_limit():
    # structurally fine, too many cells for the search (never silently truncated)
    cube = LatinHypercube(21, 2, bytes(2**21))
    with pytest.raises(EnvelopeError):
        count_transversals(cube)


def test_buckets_on_odd_xor_cube():
    buckets = transversals_by_quadruple(gen_semilinear(lambda_z22(3)))
    twin = {k: v for k, v in buckets.items() if classify_quadruple(k) is QuadrupleClass.TWIN}
    brindled = {k: v for k, v in buckets.items() if classify_quadruple(k) is QuadrupleClass.BRINDLED}
    assert len(twin) == count_twin(3) == 4
    assert sum(twin.values()) == 64
    assert set(twin.values()) == {16}
    assert sorted(brindled.values()) == [32] * 6
    assert len(buckets) == len(twin) + len(brindled)


def test_buckets_empty_for_even_cyclic_orientation():
    assert transversals_by_quadruple(gen_semilinear(lambda_z4(4))) == {}


def test_enumerator_at_the_zero_transversal_boundary():
    """The 32 arity-4 lambdas without transversals are lambda_z4(4) plus an
    affine function: on each the enumerator finds nothing, the counter gives
    0 and the criterion holds.  Every lambda one bit away from one of them
    has a first transversal that verifies, and the criterion fails."""
    z4 = lambda_z4(4).bits
    affine = [tuple(a0 ^ ((z & mask).bit_count() & 1) for z in range(16)) for a0 in range(2) for mask in range(16)]
    for aff in affine:
        zero = BooleanFn(4, tuple(x ^ y for x, y in zip(z4, aff)))
        cube = gen_semilinear(zero)
        assert next(enumerate_transversals(cube), None) is None
        assert count_transversals(cube) == 0
        assert zero_transversal_criterion(zero)
        for flip in range(16):
            lam = BooleanFn(4, tuple(b ^ (z == flip) for z, b in enumerate(zero.bits)))
            cube = gen_semilinear(lam)
            first = next(enumerate_transversals(cube), None)
            assert first is not None and verify_transversal(cube, first), lam.to_string()
            assert not zero_transversal_criterion(lam)


def test_buckets_require_standard_semilinearity():
    with pytest.raises(ValueError):
        transversals_by_quadruple(load_fixture(EXAMPLE_CUBE_2))
    with pytest.raises(UnsupportedOrderError):
        transversals_by_quadruple(cyclic_cube(2, 3))


def test_every_bucket_is_twin_or_brindled():
    rng = random.Random(42)
    lams = list(all_lambdas(2)) + [random_lambda(3, rng) for _ in range(6)] + [random_lambda(4, rng)]
    for lam in lams:
        for key in transversals_by_quadruple(gen_semilinear(lam)):
            assert classify_quadruple(key) in (QuadrupleClass.TWIN, QuadrupleClass.BRINDLED)


def test_brindled_bucket_sizes_are_all_or_nothing():
    rng = random.Random(9)
    for lam in [random_lambda(3, rng) for _ in range(4)]:
        buckets = transversals_by_quadruple(gen_semilinear(lam))
        for key, v in buckets.items():
            if classify_quadruple(key) is QuadrupleClass.BRINDLED:
                assert v == 2 * 4**2


def test_buckets_at_arity_six_hold_the_closed_form():
    lam = random_lambda(6, random.Random(6))
    buckets = transversals_by_quadruple(gen_semilinear(lam))
    assert sum(buckets.values()) == count_transversals_formula(lam)
    assert {classify_quadruple(key) for key in buckets} == {QuadrupleClass.BRINDLED}
    assert set(buckets.values()) == {2 * 4**5}


def test_buckets_at_arity_eight_are_refused_by_the_work_budget():
    # classes of 16384 cells: the second level of a half table would test
    # 16384^2 = 2^28 masks
    cube = gen_semilinear(random_lambda(8, random.Random(8)))
    with pytest.raises(EnvelopeError, match="needs at least 268451840$"):
        transversals_by_quadruple(cube)
