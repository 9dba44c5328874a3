"""Orientation functions, quadruples, census, and the formula counter."""

from __future__ import annotations

import random
import tracemalloc
from itertools import combinations, product

import pytest

from helpers import all_lambdas, enumerate_twin, lambda_from_string, reference_brindled_ints, xor_cube
from lhc import (
    BooleanFn,
    DeltaClass,
    DeltaReport,
    EnvelopeError,
    LatinHypercube,
    ParseError,
    PlaneParity,
    Quadruple,
    QuadrupleClass,
    brindled_count_closed,
    census_recurrence,
    classify_quadruple,
    count_transversals,
    count_transversals_formula,
    count_twin,
    delta_report,
    detect_semilinear,
    enumerate_brindled,
    gen_iterated_group,
    gen_semilinear,
    lambda_z4,
    lambda_z22,
    parse_lambda,
    validate_latin,
    zero_transversal_criterion,
)
from lhc import semilinear
from lhc.algebra import GroupKind, apply_isotopy
from lhc.randgen import random_lambda
from lhc.semilinear import MAX_BRINDLED, _brindled_directions, _brindled_rows, _semilinear_isotope
from lhc.verify import _even_xor_count, _odd_group_count


# ---------------------------------------------------------------------------
# Orientation functions and generated cubes
# ---------------------------------------------------------------------------


def test_boolean_fn_indexing():
    lam = lambda_from_string("0111")
    assert lam.n == 2
    assert lam.bits[3] == 1
    with pytest.raises(ValueError):
        BooleanFn(2, (0, 1, 0))
    with pytest.raises(ValueError):
        BooleanFn.from_string("012")


def test_random_lambda_draws_the_bits_of_randrange():
    # the seeded lambdas of the claim suite were drawn with randrange(2) per
    # bit: the same bits, and the generator left in the same state
    for n in range(1, 7):
        for seed in range(21):
            rng, ref = random.Random(seed), random.Random(seed)
            assert random_lambda(n, rng).bits == tuple(ref.randrange(2) for _ in range(1 << n))
            assert rng.random() == ref.random()


def test_lambda_z4_bits():
    assert lambda_z4(2).to_string() == "0111"
    assert lambda_z22(3).to_string() == "0" * 8
    # weight 4 is 0 mod 4
    assert lambda_z4(4).bits[0b1111] == 0


def test_gen_semilinear_zero_is_xor():
    assert gen_semilinear(lambda_z22(2)) == xor_cube(2)
    assert gen_semilinear(lambda_z22(4)) == xor_cube(4)


def test_gen_semilinear_all_ones_flips_low_bit():
    base = xor_cube(2)
    flipped = gen_semilinear(lambda_from_string("1111"))
    for x in product(range(4), repeat=2):
        assert flipped[x] == base[x] ^ 1
    assert validate_latin(flipped).ok


def test_gen_semilinear_blocks_are_order2_subcubes():
    rng = random.Random(14)
    for lam in [random_lambda(2, rng), random_lambda(3, rng), lambda_z4(3)]:
        cube = gen_semilinear(lam)
        n = lam.n
        pairs = ((0, 1), (2, 3))
        for block in product((0, 1), repeat=n):
            symbols = {cube[x] for x in product(*(pairs[b] for b in block))}
            assert symbols in ({0, 1}, {2, 3})
            # within the block every line of every axis hits both symbols
            for axis in range(n):
                for x in product(*(pairs[b] for b in block)):
                    partner = list(x)
                    partner[axis] = x[axis] ^ 1
                    assert cube[tuple(partner)] == cube[x] ^ 1


def test_detect_roundtrip_all_n3():
    for lam in all_lambdas(3):
        assert detect_semilinear(gen_semilinear(lam)) == lam


def test_detect_rejects_raw_cyclic_group():
    assert detect_semilinear(gen_iterated_group(GroupKind.Z4, 2, 4)) is None


def test_detect_rejects_a_table_that_is_not_latin():
    # the line 0, 2, 3, 2 puts three input symbols on one side of the pairing
    # {0, 1} | {2, 3}, though both cells read for lambda lie on their sides
    cube = LatinHypercube(1, 4, bytes([0, 2, 3, 2]))
    assert detect_semilinear(cube) is None
    assert _semilinear_isotope(cube) is None


def test_isotoped_one_point_cubes_complete_one_table(monkeypatch):
    # the XOR cube is semilinear under all three pairings, so a wrong pairing
    # of these isotoped one-point cubes passes every read of lambda and is
    # dropped at the first axis where the table it builds leaves the cube's
    # prefix; detect_semilinear, whose first pairing's labels are not all
    # the identity, builds no table at all (the isotopy is that of the CI
    # step "Near-affine classify is fast")
    iso = "1,3,0,2 2,0,3,1 3,2,1,0 0,2,1,3 1,0,3,2 2,3,0,1 3,1,2,0 0,3,2,1 1,2,3,0 2,1,0,3 3,0,1,2"
    table = semilinear._semilinear_table
    built = []  # what each call returned: a whole table, or None

    def counted(*args):
        built.append(table(*args))
        return built[-1]

    monkeypatch.setattr(semilinear, "_semilinear_table", counted)
    for point in (960, 147, 266):
        lam = BooleanFn(10, tuple(int(z == point) for z in range(1024)))
        cube = apply_isotopy(gen_semilinear(lam), [tuple(map(int, p.split(","))) for p in iso.split()])
        built.clear()
        assert detect_semilinear(cube) is None
        assert built == []
        assert _semilinear_isotope(cube) is not None
        assert len([t for t in built if t is not None]) == 1


def test_parse_lambda_forms():
    assert parse_lambda("0111") == lambda_z4(2)
    assert parse_lambda("LAMBDA 2\n0111") == lambda_z4(2)
    assert parse_lambda("# note\n0111\n") == lambda_z4(2)
    with pytest.raises(ParseError):
        parse_lambda("LAMBDA 3\n0111")
    with pytest.raises(ParseError):
        parse_lambda("01x1")
    with pytest.raises(ParseError):
        parse_lambda("")


# (text, message, line, column) recorded from the parser as it stood before
# the three text formats shared one tokenizer; the column is always 1.
MALFORMED_LAMBDA = [
    ("", "empty orientation function", 1, 1),
    ("# c\n\n", "empty orientation function", 1, 1),
    ("LAMBDA 3\n0111", "bit string length 4 does not match arity 3", 2, 1),
    ("01x1", "bit string may contain only 0 and 1", 1, 1),
    ("0111 0111", "expected a single bit string", 1, 1),
    ("0111\n0111", "expected a single bit string", 2, 1),
    ("LAMBDA\n0111", "expected 'LAMBDA <n>' then one bit string", 1, 1),
    ("LAMBDA two\n0111", "arity must be an integer", 1, 1),
    ("# c\nLAMBDA 2\n# d\n011", "bit string length 3 is not a power of two >= 2", 4, 1),
    ("LAMBDA 2\r\n0111\r\n0000\r\n", "expected 'LAMBDA <n>' then one bit string", 1, 1),
    ("# c\r\n# d\r\n01x1\r\n", "bit string may contain only 0 and 1", 3, 1),
    ("LAMBDA 2 0111 1", "expected 'LAMBDA <n>' then one bit string", 1, 1),
    ("  # indented comment\n012", "bit string length 3 is not a power of two >= 2", 2, 1),
    ("LAMBDA 2\n\n\n01", "bit string length 2 does not match arity 2", 4, 1),
    ("# a\n0111 # trailing", "expected a single bit string", 2, 1),
    ("LAMBDA x y", "arity must be an integer", 1, 1),
]


@pytest.mark.parametrize("text,message,line,column", MALFORMED_LAMBDA)
def test_parse_lambda_error_corpus(text, message, line, column):
    with pytest.raises(ParseError) as exc:
        parse_lambda(text)
    assert str(exc.value) == f"line {line}, column {column}: {message}"
    assert (exc.value.line, exc.value.column) == (line, column)


# ---------------------------------------------------------------------------
# Quadruples
# ---------------------------------------------------------------------------


def test_classify_examples():
    brindled = Quadruple.of([(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)])
    assert classify_quadruple(brindled) is QuadrupleClass.BRINDLED
    twin = Quadruple.of([(0, 0), (0, 0), (1, 1), (1, 1)])
    assert classify_quadruple(twin) is QuadrupleClass.TWIN
    odd = Quadruple.of([(0, 0, 0), (0, 0, 0), (1, 1, 1), (1, 1, 1)])
    assert classify_quadruple(odd) is QuadrupleClass.PROPER_NOT_WORTHWHILE
    lopsided = Quadruple.of([(0, 0), (0, 1), (1, 0), (1, 0)])
    assert classify_quadruple(lopsided) is QuadrupleClass.NOT_PROPER


def test_enumerate_brindled_smallest_case():
    quads = list(enumerate_brindled(2))
    assert len(quads) == 1
    assert quads[0] == Quadruple.of([(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)])


def _brute_force_brindled(n):
    """Oracle: scan every 4-subset of (n+1)-vectors with literal column and
    weight checks."""
    vectors = list(product((0, 1), repeat=n + 1))
    found = set()
    for quad in combinations(vectors, 4):
        if any(sum(v[i] for v in quad) != 2 for i in range(n + 1)):
            continue
        if any(sum(v) % 2 for v in quad):
            continue
        found.add(tuple(sorted(quad)))
    return found


@pytest.mark.parametrize("n", [2, 3, 4])
def test_enumerate_brindled_matches_brute_force(n):
    enumerated = [q.vectors for q in enumerate_brindled(n)]
    assert len(set(enumerated)) == len(enumerated)
    assert enumerated == sorted(enumerated)
    # combinations() oracle only sees 4 *distinct* vectors, which is exactly
    # the brindled case
    assert set(enumerated) == _brute_force_brindled(n)


@pytest.mark.parametrize("n", range(1, 8))
def test_brindled_tables_match_triple_loop(n):
    expected = reference_brindled_ints(n)
    assert list(_brindled_rows(n)) == expected
    # the direction triples are the rows through the zero vector, position 0 dropped
    low = (1 << n) - 1
    through_zero = [(z2 & low, z3 & low, z4 & low) for z1, z2, z3, z4 in expected if z1 == 0]
    assert sorted(_brindled_directions(n)) == through_zero


def test_brindled_tables_are_bounded():
    # arity 10 (1.9M quadruples) is the last one listed; arity 11 would hold
    # 11.3M and is refused before anything is allocated
    assert brindled_count_closed(10) <= MAX_BRINDLED < brindled_count_closed(11)
    with pytest.raises(EnvelopeError, match="^arity 11 has 11337216 brindled quadruples"):
        enumerate_brindled(11)
    # the zero-sum count lists only the quadruples through the zero vector
    # and holds 4^n bits of shifted lam, refused above MAX_CELLS = 4^12 like
    # the cube of the same lam
    zero13, zero14 = BooleanFn(13, (0,) * 2**13), BooleanFn(14, (0,) * 2**14)
    for n, call in (
        (13, lambda: delta_report(zero13)),
        (13, lambda: count_transversals_formula(zero13)),
        (14, lambda: zero_transversal_criterion(zero14)),
    ):
        with pytest.raises(EnvelopeError, match=rf"^arity {n} needs 4\*\*{n} bits of shifted lambda, above the supported 16777216$"):
            call()


def test_enumerate_brindled_streams():
    # the whole arity-10 table is 1.9M quadruples; the first one needs none
    # of the others
    tracemalloc.start()
    try:
        first = next(enumerate_brindled(10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert classify_quadruple(first) is QuadrupleClass.BRINDLED
    assert peak < 1 << 20


def test_enumerate_twin_counts():
    assert count_twin(3) == 4
    assert count_twin(2) == 0
    assert count_twin(5) == 16
    for n in (2, 3, 4, 5):
        quads = list(enumerate_twin(n))
        assert len(quads) == count_twin(n)
        for qd in quads:
            assert classify_quadruple(qd) is QuadrupleClass.TWIN


def test_brindled_closed_form_values():
    assert brindled_count_closed(2) == 1
    assert brindled_count_closed(3) == 6
    assert brindled_count_closed(4) == (1296 - 16) // 32 == 40
    assert brindled_count_closed(5) == (7776 - 96) // 32 == 240


# ---------------------------------------------------------------------------
# Census
# ---------------------------------------------------------------------------


def test_census_base_values():
    assert census_recurrence(1).a01 == 24
    c2 = census_recurrence(2)
    assert c2.a00 == 24 and c2.b00 == 0 and c2.brindled == 1
    c3 = census_recurrence(3)
    assert c3.b00 == 24 and c3.brindled == 6


def test_census_parity_structure():
    for n in range(0, 9):
        c = census_recurrence(n)
        if n % 2 == 0:
            assert c.b00 == c.b11 == 0
        else:
            assert c.b01 == 0
        assert c.a00 == c.a11


@pytest.mark.parametrize("n", range(1, 9))
def test_census_matches_closed_form(n):
    assert census_recurrence(n).brindled == brindled_count_closed(n)


@pytest.mark.parametrize("n", range(2, 6))
def test_census_matches_enumeration(n):
    assert census_recurrence(n).brindled == sum(1 for _ in enumerate_brindled(n))


# ---------------------------------------------------------------------------
# Formula counter and zero criterion
# ---------------------------------------------------------------------------


def test_formula_small_values():
    assert count_transversals_formula(lambda_z22(2)) == 8
    assert count_transversals_formula(lambda_from_string("1000")) == 0
    assert count_transversals(gen_semilinear(lambda_from_string("1000"))) == 0
    assert count_transversals_formula(lambda_z22(3)) == 64 + 32 * 6 == 256
    with pytest.raises(ValueError):
        count_transversals_formula(BooleanFn(1, (0, 1)))


def test_group_formulas_hold_up_to_arity_twelve():
    # arity 12 is the last arity counted: its shifts hold 4^12 = MAX_CELLS bits
    for n in range(2, 13):
        want_z4, want_z22 = (_odd_group_count(n),) * 2 if n % 2 else (0, _even_xor_count(n))
        assert count_transversals_formula(lambda_z4(n)) == want_z4
        assert count_transversals_formula(lambda_z22(n)) == want_z22
    assert delta_report(lambda_z22(12)) == DeltaReport(DeltaClass.CONSTANT0, brindled_count_closed(12), PlaneParity.ALL_EVEN)


def test_zero_criterion():
    assert zero_transversal_criterion(lambda_z4(2)) is True
    assert zero_transversal_criterion(lambda_z22(4)) is False
    with pytest.raises(ValueError):
        zero_transversal_criterion(lambda_z22(3))


def test_zero_criterion_agrees_with_formula():
    for lam in all_lambdas(2):
        assert zero_transversal_criterion(lam) == (count_transversals_formula(lam) == 0)


def test_zero_criterion_holds_for_exactly_the_shifted_weight_rules_at_arity_four():
    # all 65536 lambdas: the criterion picks out lambda_z4(4) plus each of
    # the 32 affine functions, the set the enumerator is checked on in
    # test_enumerator_at_the_zero_transversal_boundary
    z4 = lambda_z4(4).bits
    affine = [tuple(a0 ^ ((z & mask).bit_count() & 1) for z in range(16)) for a0 in range(2) for mask in range(16)]
    zero = [lam.bits for lam in all_lambdas(4) if zero_transversal_criterion(lam)]
    assert sorted(zero) == sorted(tuple(x ^ y for x, y in zip(z4, aff)) for aff in affine)


# ---------------------------------------------------------------------------
# Delta reports
# ---------------------------------------------------------------------------


def test_delta_report_weight_rule_n4():
    rep = delta_report(lambda_z4(4))
    assert rep.delta_class is DeltaClass.CONSTANT1
    assert rep.zero_sum_brindled_count == 0
    assert rep.plane_parity is PlaneParity.ALL_ODD


def test_delta_report_zero_rule_n4():
    rep = delta_report(lambda_z22(4))
    assert rep.delta_class is DeltaClass.CONSTANT0
    assert rep.zero_sum_brindled_count == 40
    assert rep.plane_parity is PlaneParity.ALL_EVEN


def test_delta_report_n3_floor():
    for lam in all_lambdas(3):
        rep = delta_report(lam)
        assert rep.zero_sum_brindled_count >= 2
        assert rep.delta_class is not DeltaClass.CONSTANT1
        if rep.delta_class is DeltaClass.CONSTANT0:
            # odd arity: a constant quadruple sum forces uniform plane parity
            assert rep.plane_parity is not PlaneParity.MIXED


def test_maximum_count_at_n3_is_the_uniform_orientations():
    top = {lam.bits for lam in all_lambdas(3) if count_transversals_formula(lam) == 256}
    uniform = {lam.bits for lam in all_lambdas(3) if delta_report(lam).delta_class is DeltaClass.CONSTANT0}
    assert top == uniform
    assert len(top) == 32
    assert max(count_transversals_formula(lam) for lam in all_lambdas(3)) == 256
