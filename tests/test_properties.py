"""Property tests: the exact engine against a brute-force oracle and the
formula counter, on cubes drawn from randgen; the whole-buffer file routines
against their cell-by-cell references."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_force_transversals, reference_serialize_lhc, reference_validate_latin
from lhc import (
    LatinHypercube,
    ParseError,
    count_transversals,
    count_transversals_formula,
    enumerate_transversals,
    gen_semilinear,
    parse_lhc,
    serialize_lhc,
    validate_latin,
    verify_transversal,
)
from lhc.core import _parse_tokens
from lhc.randgen import random_lambda, random_quasigroup

PROPERTY = settings(max_examples=60, deadline=None, database=None)
seeds = st.integers(0, 2**32 - 1)


@PROPERTY
@given(n=st.integers(1, 3), q=st.integers(2, 4), seed=seeds)
def test_count_and_enumeration_match_brute_force(n, q, seed):
    cube = random_quasigroup(n, q, random.Random(seed))
    listed = list(enumerate_transversals(cube))
    oracle = brute_force_transversals(cube)
    assert count_transversals(cube) == len(oracle) == len(listed)
    assert set(listed) == oracle
    flattened = [sum(t.cells, ()) for t in listed]
    assert all(a < b for a, b in zip(flattened, flattened[1:]))


@PROPERTY
@given(n=st.integers(1, 3), q=st.integers(2, 5), seed=seeds)
def test_every_enumerated_transversal_verifies(n, q, seed):
    # order 5 reaches the half tables' third level, where a union can be
    # reached by more than one pick
    cube = random_quasigroup(n, q, random.Random(seed))
    listed = list(enumerate_transversals(cube))
    assert count_transversals(cube) == len(listed)
    assert all(verify_transversal(cube, t) for t in listed)


@settings(max_examples=30, deadline=None, database=None)
@given(n=st.integers(3, 5), seed=seeds)
def test_semilinear_count_matches_formula(n, seed):
    lam = random_lambda(n, random.Random(seed))
    assert count_transversals(gen_semilinear(lam)) == count_transversals_formula(lam)


def _random_table(n, q, rng):
    return LatinHypercube(n, q, bytes(rng.randrange(q) for _ in range(q**n)))


def _shapes(min_order):
    """(n, q) with q <= 8 and at most 4^4 = 256 or 8^3 = 512 cells."""
    orders = st.integers(min_order, 8)
    return orders.flatmap(lambda q: st.tuples(st.integers(1, 3 if q > 4 else 4), st.just(q)))


shapes = _shapes(1)


@PROPERTY
@given(shape=shapes, seed=seeds)
def test_serialize_matches_reference_and_round_trips(shape, seed):
    cube = _random_table(*shape, random.Random(seed))
    text = serialize_lhc(cube)
    assert text == reference_serialize_lhc(cube)
    assert parse_lhc(text) == cube


@PROPERTY
@given(shape=_shapes(2), corruptions=st.integers(0, 3), seed=seeds)
def test_validate_matches_reference_on_corrupted_cubes(shape, corruptions, seed):
    n, q = shape
    rng = random.Random(seed)
    values = bytearray(random_quasigroup(n, q, rng).values)
    for _ in range(corruptions):
        values[rng.randrange(len(values))] = rng.randrange(q)
    cube = LatinHypercube(n, q, bytes(values))
    assert validate_latin(cube) == reference_validate_latin(cube)


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except ParseError as e:
        return (str(e), e.line, e.column)


EDITS = [" ", "\t", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1f", "\xa0", "#", "# c\n", "# c\r",
         "#\x0b", "0", "1", "7", "9", "01", "+1", "x", "\u00e9", "\uff11"]
# None deletes a character (merging two tokens when it hits a separator);
# every other edit inserts its text
edit_lists = st.lists(st.tuples(st.floats(0, 1), st.one_of(st.none(), st.sampled_from(EDITS))), max_size=3)


@PROPERTY
@given(shape=shapes, seed=seeds, edits=edit_lists)
def test_parse_matches_token_route_on_edited_files(shape, seed, edits):
    chars = list(serialize_lhc(_random_table(*shape, random.Random(seed))))
    for where, edit in edits:
        pos = min(int(where * len(chars)), len(chars) - 1)
        if edit is None:
            del chars[pos]
        else:
            chars.insert(pos, edit)
    text = "".join(chars)
    assert _parse_outcome(parse_lhc, text) == _parse_outcome(_parse_tokens, text)
