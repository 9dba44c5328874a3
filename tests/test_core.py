"""Representation, indexing, validation, and the text format."""

from __future__ import annotations

import tracemalloc
from itertools import combinations, product

import pytest

from helpers import cyclic_cube, graph_cells, xor_cube
from lhc import (
    LatinHypercube,
    LineRef,
    ParseError,
    StructuralError,
    coords_of,
    index_of,
    parse_lhc,
    serialize_lhc,
    validate_latin,
)
from lhc.fixtures import EXAMPLE_CUBE_1, load_fixture


def test_index_examples():
    assert index_of((0, 0, 0), 3, 4) == 0
    assert index_of((1, 2, 3), 3, 4) == 1 * 16 + 2 * 4 + 3 == 27
    assert coords_of(63, 3, 4) == (3, 3, 3)


@pytest.mark.parametrize("n,q", [(1, 5), (2, 4), (3, 4), (2, 8), (4, 3), (20, 2)])
def test_index_roundtrip(n, q):
    for i in range(min(q**n, 5000)):
        assert index_of(coords_of(i, n, q), n, q) == i
    # also the other direction on a coordinate sweep
    for coords in product(range(q), repeat=min(n, 3)):
        padded = coords + (0,) * (n - len(coords))
        assert coords_of(index_of(padded, n, q), n, q) == padded


def test_index_range_errors():
    with pytest.raises(ValueError):
        index_of((0, 4), 2, 4)
    with pytest.raises(ValueError):
        index_of((0,), 2, 4)
    with pytest.raises(ValueError):
        coords_of(16, 2, 4)


def test_first_example_cube_is_latin():
    assert validate_latin(load_fixture(EXAMPLE_CUBE_1)).ok


def test_validate_small_squares():
    ok = LatinHypercube(2, 2, bytes([0, 1, 1, 0]))
    assert validate_latin(ok).ok
    bad = LatinHypercube(2, 2, bytes([0, 0, 1, 0]))
    report = validate_latin(bad)
    assert not report.ok
    assert LineRef(axis=2, fixed=(0,)) in report.violations
    assert LineRef(axis=1, fixed=(1,)) in report.violations


def test_structural_errors_are_not_latin_violations():
    with pytest.raises(StructuralError):
        LatinHypercube(2, 2, bytes([0, 1, 1]))
    with pytest.raises(StructuralError):
        LatinHypercube(2, 2, bytes([0, 1, 1, 2]))
    with pytest.raises(StructuralError):
        LatinHypercube(0, 2, b"")
    with pytest.raises(StructuralError):
        LatinHypercube(2, 9, bytes(81))


def test_graph_cells_identity_permutation():
    cube = LatinHypercube(1, 2, bytes([0, 1]))
    assert set(graph_cells(cube)) == {(0, 0), (1, 1)}


@pytest.mark.parametrize("cube", [xor_cube(2), cyclic_cube(2, 3), cyclic_cube(2, 4), xor_cube(3)])
def test_graph_cells_pairwise_distance(cube):
    """The graph is a distance-2 code of size q**n.

    Small instances get the literal pairwise sweep; the 4096-cell cube is
    covered by the equivalent exhaustive check that no two cells collide in
    any drop-one-coordinate projection (a pair at distance < 2 would).
    """
    cells = list(graph_cells(cube))
    assert len(cells) == cube.q**cube.n
    if len(cells) <= 512:
        for a, b in combinations(cells, 2):
            assert sum(x != y for x, y in zip(a, b)) >= 2
    else:
        for k in range(cube.n + 1):
            projections = {c[:k] + c[k + 1 :] for c in cells}
            assert len(projections) == len(cells)


def test_parse_identity_permutation():
    cube = parse_lhc("LHC 1 2\n0 1")
    assert cube == LatinHypercube(1, 2, bytes([0, 1]))


def test_parse_comments_and_crlf():
    text = "# comment\r\nLHC 2 2\r\n0 1\r\n# mid comment\r\n1 0\r\n"
    cube = parse_lhc(text)
    assert cube.values == bytes([0, 1, 1, 0])


@pytest.mark.parametrize("cube", [xor_cube(3), cyclic_cube(1, 4), cyclic_cube(2, 3), xor_cube(4)])
def test_serialize_round_trip(cube):
    text = serialize_lhc(cube)
    assert parse_lhc(text) == cube
    # canonical: serializing the reparse reproduces the same bytes
    assert serialize_lhc(parse_lhc(text)) == text


def test_serialize_layer_layout():
    text = serialize_lhc(xor_cube(3))
    blocks = text.strip().split("\n\n")
    assert len(blocks) == 4  # header glued to the first layer, then 3 more
    assert blocks[0].splitlines()[0] == "LHC 3 4"


def test_parse_too_few_values():
    with pytest.raises(ParseError):
        parse_lhc("LHC 2 2\n0 1 1")


def test_parse_error_positions():
    with pytest.raises(ParseError) as exc:
        parse_lhc("LHC 2 2\n0 1\n1 x")
    assert exc.value.line == 3
    assert exc.value.column == 3
    with pytest.raises(ParseError) as exc:
        parse_lhc("LHC 2 2\n0 1\n1 7")
    assert exc.value.line == 3
    with pytest.raises(ParseError):
        parse_lhc("LHC 2 2\n0 1 1 0 0")
    with pytest.raises(ParseError):
        parse_lhc("CUBE 2 2\n0 1 1 0")
    with pytest.raises(ParseError):
        parse_lhc("")


# (text, message, line, column) recorded from the token-by-token parser that
# predates the whole-buffer route; every text here must keep its error.
MALFORMED = [
    ("LHC 2 2\n0 1\n1 0 1\n", "expected 4 symbols, found extra token '1'", 3, 5),
    ("LHC 2 2\n0 1\n1\n", "expected 4 symbols, got 3", 3, 1),
    ("LHC 2 2\n0 1\n1 x\n", "not an integer: 'x'", 3, 3),
    ("LHC 2 2\n0 1\n1 7\n", "symbol 7 out of range for order 2", 3, 3),
    ("LHC 2 2\n0 1 # note\n1 0\n", "expected 4 symbols, found extra token '1'", 3, 1),
    ("LHC 1 2\n0 #1\n", "not an integer: '#1'", 2, 3),
    ("CUBE 2 2\n0 1\n1 0\n", "expected 'LHC' header, got 'CUBE'", 1, 1),
    ("LHC 2\n0 1\n1 0\n", "header must be exactly 'LHC <n> <q>'", 1, 1),
    ("LHC two 2\n0 1\n1 0\n", "header arity/order must be integers", 1, 5),
    ("LHC 2 9\n0 1\n1 0\n", "unsupported arity/order n=2 q=9", 1, 5),
    ("LHC 25 2\n0\n", "q**n = 33554432 exceeds the supported scale", 1, 5),
    # the arity is bounded before q**n is computed, so no huge power is
    # built or printed
    ("LHC 20000 2\n0 1\n", "q**n = 2**20000 exceeds the supported scale", 1, 5),
    ("", "empty input, expected 'LHC <n> <q>' header", 1, 1),
    ("# nothing\n   # here\n", "empty input, expected 'LHC <n> <q>' header", 1, 1),
    ("# head\nLHC 2 2\n0 1\n# between\n1 5\n", "symbol 5 out of range for order 2", 5, 3),
    ("LHC 2 2\r\n0 1\r\n1 x\r\n", "not an integer: 'x'", 3, 3),
    ("LHC 2 2\r\n0 1\r\n\r\n", "expected 4 symbols, got 2", 3, 1),
    ("LHC 2 2\r0 1\r1 x", "not an integer: 'x'", 3, 3),
    ("LHC 2 2\n0 1\x0c1 x\n", "not an integer: 'x'", 3, 3),
    ("LHC 2 2\n0\x0b1\n1 x\n", "not an integer: 'x'", 4, 3),
    ("LHC 2 2\n0 1\x1f1 x\n", "not an integer: 'x'", 2, 7),
    ("LHC 2 2\n0 1\n1 \u00e9\n", "not an integer: '\u00e9'", 3, 3),
    ("LHC 2 2\n0\xa01\n1 x\n", "not an integer: 'x'", 3, 3),
    ("LHC 2 2\n0 1\n1 \uff17\n", "symbol 7 out of range for order 2", 3, 3),
    ("LHC 1 2\n01\n", "expected 2 symbols, got 1", 2, 1),
    ("# c\rLHC 1 2\nLHC 1 2\n0 1\n", "expected 2 symbols, found extra token '2'", 3, 7),
]


@pytest.mark.parametrize("text,message,line,column", MALFORMED)
def test_parse_error_corpus(text, message, line, column):
    with pytest.raises(ParseError) as exc:
        parse_lhc(text)
    assert str(exc.value) == f"line {line}, column {column}: {message}"
    assert (exc.value.line, exc.value.column) == (line, column)


# texts the token-by-token parser accepted, with the values it read
ACCEPTED = [
    ("# head\nLHC 2 2\n0 1\n# between\n1 0\n", 2, 2, bytes([0, 1, 1, 0])),
    ("LHC 2 2\r\n0 1\r\n1 0\r\n", 2, 2, bytes([0, 1, 1, 0])),
    ("LHC 2 2\n0\x0c1\n1\x0b0\n", 2, 2, bytes([0, 1, 1, 0])),
    ("LHC 2 2\n01 +1\n1 -0\n", 2, 2, bytes([1, 1, 1, 0])),
    ("LHC 2 2\n\uff10 \uff11\n1 0\n", 2, 2, bytes([0, 1, 1, 0])),
    ("LHC 1 3\n0 1 0_2\n", 1, 3, bytes([0, 1, 2])),
    ("\n  LHC\t2\t2  \n\t0 1\n1 0", 2, 2, bytes([0, 1, 1, 0])),
    ("# c\n\n# d\r\n LHC 1 4 \r\n3 2\t1\x0b0\x0c\r\n", 1, 4, bytes([3, 2, 1, 0])),
    ("# c\x0bLHC 1 2\n0 1\n", 1, 2, bytes([0, 1])),
    ("#\x1cLHC 1 2\n0 1\n", 1, 2, bytes([0, 1])),
    ("LHC 1 2\n0 1\n# tail\n", 1, 2, bytes([0, 1])),
    ("LHC 1 2\n0\x1c1\n", 1, 2, bytes([0, 1])),
]


@pytest.mark.parametrize("text,n,q,values", ACCEPTED)
def test_parse_accepted_corpus(text, n, q, values):
    assert parse_lhc(text) == LatinHypercube(n, q, values)


def test_parse_memory_is_linear_in_the_file():
    # 4^10 = 1,048,576 symbols, about 2 MB of text; the token-by-token
    # parser peaked near 100 MB here
    cube = LatinHypercube(10, 4, bytes(range(4)) * 4**9)
    text = serialize_lhc(cube)
    tracemalloc.start()
    try:
        parsed = parse_lhc(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert parsed == cube
    assert peak < 16 << 20
