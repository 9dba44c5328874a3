"""Property tests: the exact engine against a brute-force oracle and the
formula counter, on cubes drawn from randgen."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_force_transversals
from lhc import count_transversals, count_transversals_formula, enumerate_transversals, gen_semilinear, verify_transversal
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
