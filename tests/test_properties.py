"""Property tests: the exact engine against a brute-force oracle and the
formula counter, on cubes drawn from randgen; the whole-buffer file routines
and the streamed table builders against their cell-by-cell references; the
factorization search against the plain subset sweep; the table-free
zero-sum brindled count against the listed quadruples; the bucketing by
block quadruple against one Quadruple per transversal; the count's
invariance under transforms, factorization of two-level splits, and
lifted transversals verified on the composed cube."""

from __future__ import annotations

import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    brute_force_transversals,
    reference_brindled_ints,
    reference_compose,
    reference_detect_semilinear,
    reference_factor_on_subset,
    reference_fiber,
    reference_find_factorization,
    reference_isotopy,
    reference_iterated_group,
    reference_parastrophe,
    reference_semilinear,
    reference_serialize_lhc,
    reference_transversals_by_quadruple,
    reference_two_level,
    reference_validate_latin,
)
from lhc import (
    BooleanFn,
    GroupKind,
    LatinHypercube,
    ParseError,
    apply_isotopy,
    apply_parastrophe,
    apply_transform,
    compose,
    count_transversals,
    count_transversals_formula,
    detect_semilinear,
    enumerate_transversals,
    factor_on_subset,
    fiber_quasigroup,
    find_factorization,
    gen_iterated_group,
    gen_semilinear,
    lambda_z4,
    lift_transversals_fiber,
    lift_transversals_product,
    parse_lhc,
    serialize_lhc,
    slice_first,
    transversals_by_quadruple,
    validate_latin,
    verify_transversal,
)
from lhc.core import _parse_tokens
from lhc.randgen import (
    random_isotopy,
    random_lambda,
    random_parastrophe,
    random_quasigroup,
    random_transform,
    random_tree,
    random_two_level,
)
from lhc.semilinear import _zero_sum_brindled_faces

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


# ---------------------------------------------------------------------------
# Streamed table builders against their cell-by-cell references
# ---------------------------------------------------------------------------

BUILDERS = settings(max_examples=30, deadline=None, database=None)


def _builder_shapes(min_arity):
    """(n, q) with arity min_arity..5 and order 2..6."""
    return st.tuples(st.integers(min_arity, 5), st.integers(2, 6))


@BUILDERS
@given(kind=st.sampled_from(GroupKind), shape=_builder_shapes(1))
def test_iterated_group_matches_reference(kind, shape):
    n, q = shape
    if kind is not GroupKind.CYCLIC:
        q = 4
    assert gen_iterated_group(kind, n, q).values == reference_iterated_group(kind, n, q).values


@BUILDERS
@given(n=st.integers(1, 5), seed=seeds)
def test_semilinear_matches_reference(n, seed):
    lam = random_lambda(n, random.Random(seed))
    assert gen_semilinear(lam).values == reference_semilinear(lam).values


@BUILDERS
@given(shape=_builder_shapes(1), seed=seeds)
def test_isotopy_matches_reference(shape, seed):
    n, q = shape
    rng = random.Random(seed)
    cube = _random_table(n, q, rng)
    perms = random_isotopy(n, q, rng)
    assert apply_isotopy(cube, perms).values == reference_isotopy(cube, perms).values


@BUILDERS
@given(shape=_builder_shapes(1), seed=seeds)
def test_parastrophe_matches_reference(shape, seed):
    n, q = shape
    rng = random.Random(seed)
    cube = random_quasigroup(n, q, rng)
    pi = random_parastrophe(n, rng)
    assert apply_parastrophe(cube, pi).values == reference_parastrophe(cube, pi).values


@BUILDERS
@given(shape=_builder_shapes(2), seed=seeds)
def test_compose_matches_reference(shape, seed):
    spec = random_tree(*shape, random.Random(seed))
    assert compose(spec).values == reference_compose(spec).values


@BUILDERS
@given(shape=_builder_shapes(3), seed=seeds)
def test_two_level_compose_matches_reference(shape, seed):
    split = random_two_level(*shape, random.Random(seed))
    assert split.compose().values == reference_two_level(split).values


@BUILDERS
@given(shape=_builder_shapes(2), seed=seeds, data=st.data())
def test_fiber_matches_reference(shape, seed, data):
    n, q = shape
    cube = random_quasigroup(n, q, random.Random(seed))
    a = data.draw(st.integers(0, q - 1))
    assert fiber_quasigroup(cube, a).values == reference_fiber(cube, a).values


@BUILDERS
@given(n=st.integers(1, 5), how=st.sampled_from(["semilinear", "transformed", "corners kept", "random"]),
       seed=seeds)
def test_detect_semilinear_matches_reference(n, how, seed):
    rng = random.Random(seed)
    if how == "random":
        cube = random_quasigroup(n, 4, rng)
    else:
        cube = gen_semilinear(random_lambda(n, rng))
        if how == "transformed":
            cube = apply_transform(cube, random_transform(n, 4, rng))
        elif how == "corners kept":
            # input permutations fixing 0 and 2 and an output one fixing 0
            # and 1 leave the cells x = 2h as they were, so the orientation
            # read there is the same and only the rest of the table differs
            perms = [rng.choice([(0, 1, 2, 3), (0, 1, 3, 2)])]
            perms += [rng.choice([(0, 1, 2, 3), (0, 3, 2, 1)]) for _ in range(n)]
            cube = apply_isotopy(cube, perms)
    assert detect_semilinear(cube) == reference_detect_semilinear(cube)


# ---------------------------------------------------------------------------
# Factorization by cheap rejection against the plain sweep
# ---------------------------------------------------------------------------


def _factorization_instance(n, q, how, rng):
    if how == "semilinear":
        return gen_semilinear(random_lambda(n, rng))
    if how == "random":
        return random_quasigroup(n, q, rng)
    if how == "two-level":
        return random_two_level(n, q, rng).compose()
    cube = compose(random_tree(n, q, rng))
    if how == "transformed tree":
        cube = apply_transform(cube, random_transform(n, q, rng))
    return cube


FACTORIZATION_KINDS = st.sampled_from(["tree", "random", "transformed tree", "semilinear", "two-level"])


@PROPERTY
@given(n=st.integers(3, 6), q=st.integers(2, 5), how=FACTORIZATION_KINDS, seed=seeds)
def test_find_factorization_matches_plain_sweep(n, q, how, seed):
    cube = _factorization_instance(n, q, how, random.Random(seed))
    # the same witness: subset, inner table and outer table
    assert find_factorization(cube) == reference_find_factorization(cube)


@PROPERTY
@given(n=st.integers(3, 6), q=st.integers(2, 5), how=FACTORIZATION_KINDS, seed=seeds)
def test_factor_on_subset_matches_signature_loop(n, q, how, seed):
    rng = random.Random(seed)
    cube = _factorization_instance(n, q, how, rng)
    subsets = [rng.sample(range(1, n + 1), rng.randint(2, n - 1)) for _ in range(4)]
    found = find_factorization(cube)
    if found is not None:
        subsets.append(found.inner_vars)  # one subset that does factor
    for subset in subsets:
        # equal outer, inner and inner_vars, or None for both
        assert factor_on_subset(cube, subset) == reference_factor_on_subset(cube, subset)


# ---------------------------------------------------------------------------
# The table-free zero-sum brindled count against the listed quadruples
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _reference_bar_quadruples(n):
    low = (1 << n) - 1
    return [tuple(z & low for z in quad) for quad in reference_brindled_ints(n)]


def _zero_sum_by_list(lam):
    bits = lam.bits
    return sum(1 for i1, i2, i3, i4 in _reference_bar_quadruples(lam.n)
               if not bits[i1] ^ bits[i2] ^ bits[i3] ^ bits[i4])


@PROPERTY
@given(n=st.integers(1, 8), seed=seeds)
def test_table_free_zero_sum_count_matches_the_listed_quadruples(n, seed):
    lam = random_lambda(n, random.Random(seed))
    assert _zero_sum_brindled_faces(lam) == _zero_sum_by_list(lam)


@pytest.mark.parametrize("n", range(1, 9))
def test_table_free_zero_sum_count_on_fixed_orientations(n):
    for lam in (BooleanFn(n, (0,) * (1 << n)), BooleanFn(n, (1,) * (1 << n)), lambda_z4(n)):
        assert _zero_sum_brindled_faces(lam) == _zero_sum_by_list(lam)


# ---------------------------------------------------------------------------
# Bucketing by block quadruple against one Quadruple per transversal
# ---------------------------------------------------------------------------


def _check_buckets(lam):
    cube = gen_semilinear(lam)
    buckets = transversals_by_quadruple(cube)
    # the same keys and counts, in the order of first appearance
    assert list(buckets.items()) == list(reference_transversals_by_quadruple(cube).items())
    # the closed form counts the same transversals without a search
    total = count_transversals_formula(lam) if lam.n >= 2 else count_transversals(cube)
    assert sum(buckets.values()) == total


@PROPERTY
@given(n=st.integers(1, 4), seed=seeds)
def test_quadruple_buckets_match_the_per_transversal_reference(n, seed):
    _check_buckets(random_lambda(n, random.Random(seed)))


def test_quadruple_buckets_at_arity_five():
    # 120 of the 240 brindled quadruples sum to zero: 65,536 transversals
    lam = BooleanFn.from_string("11100100101010101101011010000001")
    assert count_transversals_formula(lam) == 8**4 + 2 * 4**4 * 120
    _check_buckets(lam)


# ---------------------------------------------------------------------------
# Transforms, two-level splits and lifting on random instances
# ---------------------------------------------------------------------------


@PROPERTY
@given(n=st.integers(1, 4), q=st.integers(2, 4), seed=seeds)
def test_count_is_invariant_under_a_random_transform(n, q, seed):
    rng = random.Random(seed)
    cube = random_quasigroup(n, q, rng)
    spec = random_transform(n, q, rng)
    assert count_transversals(apply_transform(cube, spec)) == count_transversals(cube)


@PROPERTY
@given(n=st.integers(3, 5), q=st.integers(2, 4), seed=seeds)
def test_factor_on_subset_inverts_a_two_level_split(n, q, seed):
    split = random_two_level(n, q, random.Random(seed))
    cube = split.compose()
    found = factor_on_subset(cube, split.inner_vars)
    assert found is not None
    assert found.inner_vars == split.inner_vars
    assert found.compose() == cube


@PROPERTY
@given(n=st.integers(3, 4), q=st.integers(2, 4), seed=seeds, data=st.data())
def test_lifted_transversals_verify_on_the_composed_cube(n, q, seed, data):
    split = random_two_level(n, q, random.Random(seed))
    cube = split.compose()
    for tg in enumerate_transversals(split.outer, limit=3):
        for th in enumerate_transversals(split.inner, limit=3):
            assert verify_transversal(cube, lift_transversals_product(tg, th, split))
    a = data.draw(st.integers(0, q - 1))
    tau = data.draw(st.permutations(range(q)))
    fiber_ts = list(enumerate_transversals(fiber_quasigroup(split.inner, a), limit=3))
    slice_ts = list(enumerate_transversals(slice_first(split.outer, a), limit=3))
    for th in fiber_ts:
        for tg in slice_ts:
            assert verify_transversal(cube, lift_transversals_fiber(th, tg, tau, split, a))
