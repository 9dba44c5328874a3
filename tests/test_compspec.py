"""Composition-spec text format."""

from __future__ import annotations

import random

import pytest

from helpers import L0, Z4ADD
from lhc import CompositionSpec, LatinHypercube, Leaf, Node, ParseError, TransformSpec, compose
from lhc.compspec import format_composition_spec, parse_composition_spec
from lhc.fixtures import EXAMPLE_CUBE_2, load_fixture
from lhc.randgen import random_parastrophe, random_permutation, random_tree

XOR_TABLE = "0 1 2 3 1 0 3 2 2 3 0 1 3 2 1 0"


def test_parse_minimal_tree():
    spec = parse_composition_spec(f'(op "{XOR_TABLE}" (var 1) (var 2))')
    assert spec.n == 2
    assert isinstance(spec.root, Node)
    assert spec.root.left == Leaf(1)
    cube = compose(spec)
    assert cube[(1, 2)] == 3


def test_parse_example_cube_two():
    l0 = " ".join(str(v) for row in L0.table for v in row)
    z4 = " ".join(str(v) for row in Z4ADD.table for v in row)
    text = f'(op "{l0}" (op "{z4}" (var 1) (var 2)) (var 3))'
    assert compose(parse_composition_spec(text)) == load_fixture(EXAMPLE_CUBE_2)


def test_parse_transform_clauses():
    text = (
        f'(op "{XOR_TABLE}" (var 1) (var 2))\n'
        "(parastrophe 1 0 2)\n"
        '(isotopy "0,1,2,3" "0,2,1,3" "1,0,3,2")\n'
    )
    spec = parse_composition_spec(text)
    assert spec.post_transform == TransformSpec(
        ((0, 1, 2, 3), (0, 2, 1, 3), (1, 0, 3, 2)), (1, 0, 2)
    )


def test_round_trip_random_specs():
    rng = random.Random(99)
    for _ in range(10):
        n = rng.choice([2, 3, 4])
        spec = random_tree(n, 4, rng)
        if rng.random() < 0.5:
            iso = tuple(random_permutation(4, rng) for _ in range(n + 1))
            spec = CompositionSpec(n, spec.root, TransformSpec(iso, random_parastrophe(n, rng)))
        reparsed = parse_composition_spec(format_composition_spec(spec))
        assert reparsed == spec
        assert compose(reparsed) == compose(spec)


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_composition_spec("(var 1)")  # no operation node
    with pytest.raises(ParseError):
        parse_composition_spec(f'(op "{XOR_TABLE}" (var 1) (var 3))')  # labels not 1..n
    with pytest.raises(ParseError):
        parse_composition_spec('(op "0 1 1 0 1" (var 1) (var 2))')  # not q*q entries
    with pytest.raises(ParseError):
        parse_composition_spec('(op "0 1 1 1" (var 1) (var 2))')  # not latin
    with pytest.raises(ParseError):
        parse_composition_spec(f'(op "{XOR_TABLE}" (var 1) (var 2)) (parastrophe 0 1)')
    with pytest.raises(ParseError):
        parse_composition_spec(f'(op "{XOR_TABLE}" (var 1) (var 2)) (isotopy "0,1,2,3")')
    with pytest.raises(ParseError):
        parse_composition_spec(f'(op "{XOR_TABLE}" (var 1) (var 2)')  # unbalanced
    with pytest.raises(ParseError):
        parse_composition_spec("")


OP = f'(op "{XOR_TABLE}" (var 1) (var 2))'
ID3 = '"0,1,2,3" "0,1,2,3"'
I3 = f'{ID3} "0,1,2,3"'


def test_clauses_parse_in_either_order():
    first = parse_composition_spec(f"{OP}\n(parastrophe 1 0 2)\n(isotopy {I3})")
    second = parse_composition_spec(f"{OP}\n(isotopy {I3})\n(parastrophe 1 0 2)")
    assert first == second
    assert second.post_transform == TransformSpec(((0, 1, 2, 3),) * 3, (1, 0, 2))


def _chain(ops: int, table: str) -> str:
    """A spec of `ops` operations, each nested in the left argument of the
    one before, over the leaves ops + 1, ops, .., 1."""
    text = f"(var {ops + 1})"
    for v in range(ops, 0, -1):
        text = f'(op "{table}" {text} (var {v}))'
    return text


def test_nesting_deeper_than_the_arity_bound_is_refused():
    # d nested operations have at least d + 1 leaves, more than the 24 any
    # cube may have once d reaches 24; the parser refuses the 24th "(op"
    # before it recurses into it, at every order
    for table in ("0", "0 1 1 0"):
        text = _chain(2000, table)
        with pytest.raises(ParseError) as exc:
            parse_composition_spec(text)
        column = 23 * len(f'(op "{table}" ') + 1
        assert str(exc.value) == f"line 1, column {column}: operations nested 24 deep need more than 24 variables"


def test_order_one_chain_of_twenty_four_leaves_composes():
    spec = parse_composition_spec(_chain(23, "0"))
    assert spec.n == 24
    assert compose(spec) == LatinHypercube(24, 1, bytes(1))


# (text, message, line, column) recorded from the parser as it stood before
# the three text formats shared one tokenizer; every text keeps its error.
MALFORMED = [
    ("", "empty composition spec", 1, 1),
    ("# only a comment\n   # another\n", "empty composition spec", 1, 1),
    ("# c\n\n  # d\n(var 1)\n", "a composition needs at least one operation node", 1, 1),
    (f'(op "{XOR_TABLE}" (var 1) (var 3))', "leaf labels [1, 3] are not 1..2", 1, 1),
    ('# table\n(op "0 1 1 0 1" (var 1) (var 2))', "operation table needs q*q entries, got 5", 2, 5),
    ('(op "0 1 1 1" (var 1) (var 2))', "row (1, 1) is not a permutation", 1, 5),
    ('(op "0 x 1 0" (var 1) (var 2))', "operation table entries must be integers", 1, 5),
    (OP[:-1], "unexpected end of input", 1, 53),
    (f'(op "{XOR_TABLE}"\n# between\n (var 1)\n  (var 2))\n(parastrophe 0 1)',
     "parastrophe must be a permutation of 0..2", 5, 2),
    (f"{OP}\n(parastrophe 0 1 2)\n(parastrophe 0 1 2)", "duplicate parastrophe clause", 3, 2),
    (f"{OP}\n(isotopy {ID3})\n(isotopy {ID3} {ID3})", "isotopy needs 3 permutations", 2, 2),
    (f"{OP}\n(isotopy {I3})\n(isotopy {I3})", "duplicate isotopy clause", 3, 2),
    (f"{OP} (parastrophe 0 x 2)", "expected an integer, got 'x'", 1, 71),
    (f"{OP} (isotopy 0,1,2,3 {ID3})", "expected a quoted permutation, got '0,1,2,3'", 1, 65),
    (f'{OP} (isotopy "0,1,x,3" {ID3})', "bad permutation '0,1,x,3'", 1, 65),
    (f'{OP} (isotopy "0,1,1,3" {ID3})', "'0,1,1,3' is not a permutation of 0..3", 1, 65),
    (f'{OP} (isotopy "0,1,2,3")', "isotopy needs 3 permutations", 1, 57),
    (f'(op "{XOR_TABLE}"\r\n (var 1)\r\n (vax 2))\r\n', "expected 'var' or 'op', got 'vax'", 3, 3),
    (f'(op "{XOR_TABLE}" (var 0) (var 1))', "variable index must be >= 1, got 0", 1, 40),
    ("(var x)", "expected an integer, got 'x'", 1, 6),
    ("(op 5 (var 1) (var 2))", "expected a quoted operation table, got '5'", 1, 5),
    (f"{OP}\n# c\n(rotate 1)", "expected 'parastrophe' or 'isotopy' clause, got 'rotate'", 3, 2),
    (f"{OP} (parastrophe 0 1", "unexpected end of input", 1, 71),
    (")", "expected '(', got ')'", 1, 1),
    # an unmatched quote is a token of its own, not skipped
    (f'(op "{XOR_TABLE}" (var "1) (var 2))', "expected an integer, got '\"'", 1, 44),
    (f'(op "{XOR_TABLE}" (var 1) (var 2"))', "expected ')', got '\"'", 1, 53),
    # every operation table has the order of the first one
    ('(op "0 1 1 0" (var 1) (op "0 1 2 1 2 0 2 0 1" (var 2) (var 3)))',
     "operation table has order 3, the first one has order 2", 1, 27),
]


@pytest.mark.parametrize("text,message,line,column", MALFORMED)
def test_parse_error_corpus(text, message, line, column):
    with pytest.raises(ParseError) as exc:
        parse_composition_spec(text)
    assert str(exc.value) == f"line {line}, column {column}: {message}"
    assert (exc.value.line, exc.value.column) == (line, column)
