"""Constructors, transforms, factorization, lifting, and bounds."""

from __future__ import annotations

import random
import tracemalloc
from itertools import combinations, permutations

import pytest

from helpers import (
    L0,
    Z4ADD,
    addition_square,
    cyclic_cube,
    generic_cube,
    graph_cells,
    lambda_from_string,
    reference_find_factorization,
    screen_passes,
    xor_cube,
)
from lhc import (
    BinaryOp,
    BooleanFn,
    CompositionSpec,
    GroupKind,
    LatinHypercube,
    Leaf,
    Node,
    StructuralError,
    TransformSpec,
    TwoLevelComposition,
    algebra,
    apply_isotopy,
    apply_parastrophe,
    apply_transform,
    compose,
    count_transversals,
    detect_semilinear,
    enumerate_transversals,
    factor_on_subset,
    fiber_quasigroup,
    find_factorization,
    gen_iterated_group,
    gen_semilinear,
    lambda_z4,
    lambda_z22,
    lift_transversals_fiber,
    lift_transversals_product,
    lower_bound_completely_reducible,
    semilinear,
    slice_first,
    validate_latin,
    verify_transversal,
)
from lhc.fixtures import EXAMPLE_CUBE_1, EXAMPLE_CUBE_2, load_fixture
from lhc.randgen import (
    random_binary_op,
    random_isotopy,
    random_lambda,
    random_quasigroup,
    random_transform,
    random_tree,
    random_two_level,
)

SIGMA = (0, 2, 1, 3)


def parastrophe_sweep_reducible(cube):
    """Oracle: factor every parastrophe of the cube on every input subset."""
    n = cube.n
    for pi in permutations(range(n + 1)):
        moved = apply_parastrophe(cube, pi)
        for size in range(2, n):
            for subset in combinations(range(1, n + 1), size):
                if factor_on_subset(moved, subset) is not None:
                    return True
    return False


# ---------------------------------------------------------------------------
# Iterated groups
# ---------------------------------------------------------------------------


def test_iterated_cyclic_formula():
    cube = gen_iterated_group(GroupKind.CYCLIC, 2, 3)
    for i in range(3):
        for j in range(3):
            assert cube[(i, j)] == (-i - j) % 3


def test_iterated_order4_counts():
    assert count_transversals(gen_iterated_group(GroupKind.Z2X2, 2, 4)) == 8
    assert count_transversals(gen_iterated_group(GroupKind.Z4, 2, 4)) == 0


def test_iterated_xor_group_at_the_largest_supported_table():
    # 4**12 cells is MAX_CELLS itself, far past what the cell-by-cell
    # reference reaches; sample cells against x1 ^ .. ^ x12
    n = 12
    cube = gen_iterated_group(GroupKind.Z2X2, n, 4)
    assert cube.size == 4**n
    rng = random.Random(12)
    for x in [(0,) * n, (3,) * n] + [tuple(rng.randrange(4) for _ in range(n)) for _ in range(200)]:
        acc = 0
        for v in x:
            acc ^= v
        assert cube[x] == acc


def test_generators_reject_oversized_tables_before_allocating():
    # 4**13 cells is just above MAX_CELLS; the check must come before the
    # table is allocated and filled, so the peak stays far below 4**13 bytes
    op = addition_square(4)
    root = Leaf(1)
    for v in range(2, 14):
        root = Node(op, root, Leaf(v))
    spec = CompositionSpec(13, root)
    half = xor_cube(7)
    split = TwoLevelComposition(half, half, tuple(range(1, 8)))
    lam = lambda_z22(13)
    # an order above MAX_ORDER is refused by the same check, with the
    # message LatinHypercube gives it
    wide = CompositionSpec(2, Node(addition_square(300), Leaf(1), Leaf(2)))
    scale, order = "exceeds the supported scale", "order must be in 1..8, got"
    builders = [
        (lambda: gen_iterated_group(GroupKind.Z2X2, 13, 4), scale),
        (lambda: gen_iterated_group(GroupKind.Z2X2, 10**9, 4), scale),
        (lambda: gen_semilinear(lam), scale),
        (lambda: compose(spec), scale),
        (split.compose, scale),
        (lambda: gen_iterated_group(GroupKind.CYCLIC, 2, 300), f"{order} 300$"),
        (lambda: gen_iterated_group(GroupKind.CYCLIC, 2, 0), f"{order} 0$"),
        (lambda: gen_iterated_group(GroupKind.CYCLIC, 7, 9), f"{order} 9$"),
        (lambda: gen_iterated_group(GroupKind.CYCLIC, 25, 1), "^arity 25 exceeds the supported maximum 24$"),
        (lambda: compose(wide), f"{order} 300$"),
    ]
    for build, message in builders:
        tracemalloc.start()
        try:
            with pytest.raises(StructuralError, match=message):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def _big_inputs():
    """Builders at 4^9 = 262,144 cells, their inputs made in advance."""
    n = 9
    lam = lambda_z4(n)
    cube = gen_semilinear(lam)
    spec = random_tree(n, 4, random.Random(9))
    # every left child holds all leaves but one, so each node's table has
    # many more cells in its left child than in its right
    deep = Leaf(n)
    for v in range(n - 1, 0, -1):
        deep = Node(addition_square(4), deep, Leaf(v))
    split = TwoLevelComposition(gen_semilinear(lambda_z4(5)), xor_cube(5), (1, 3, 5, 7, 9))
    return {
        "gen_iterated_group": lambda: gen_iterated_group(GroupKind.Z2X2, n, 4),
        "gen_semilinear": lambda: gen_semilinear(lam),
        "detect_semilinear": lambda: detect_semilinear(cube),
        "apply_isotopy": lambda: apply_isotopy(cube, [(1, 3, 0, 2)] * (n + 1)),
        "apply_parastrophe": lambda: apply_parastrophe(cube, (2, 0, 1) + tuple(range(3, n + 1))),
        "compose": lambda: compose(spec),
        "compose left-deep": lambda: compose(CompositionSpec(n, deep)),
        "TwoLevelComposition.compose": split.compose,
    }


@pytest.mark.parametrize(
    "name",
    ["gen_iterated_group", "gen_semilinear", "detect_semilinear", "apply_isotopy",
     "apply_parastrophe", "compose", "compose left-deep", "TwoLevelComposition.compose"],
)
def test_builders_hold_no_per_cell_list(name):
    # the table itself takes 0.25 MB; one Python int per cell would take
    # over 2 MB
    build = _big_inputs()[name]
    tracemalloc.start()
    try:
        built = build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert built is not None
    assert peak < 1 << 20


def test_order_one_builders():
    # the one-symbol cube of each arity, through the random square and tree
    for n in range(2, 5):
        assert random_quasigroup(n, 1, random.Random(n)) == LatinHypercube(n, 1, bytes(1))


def test_iterated_kind_order_consistency():
    with pytest.raises(ValueError):
        gen_iterated_group(GroupKind.Z4, 2, 3)
    with pytest.raises(ValueError):
        gen_iterated_group(GroupKind.Z2X2, 2, 5)
    with pytest.raises(ValueError):
        gen_iterated_group(GroupKind.CYCLIC, 0, 3)


# ---------------------------------------------------------------------------
# Composition
# ---------------------------------------------------------------------------


def xor_op():
    return BinaryOp.from_cube(xor_cube(2))


def test_compose_chain_matches_iterated():
    spec = CompositionSpec(3, Node(xor_op(), Node(xor_op(), Leaf(1), Leaf(2)), Leaf(3)))
    assert compose(spec) == gen_iterated_group(GroupKind.Z2X2, 3, 4)


def test_compose_reproduces_example_cubes():
    spec1 = CompositionSpec(3, Node(L0, Node(L0, Leaf(1), Leaf(2)), Leaf(3)))
    spec2 = CompositionSpec(3, Node(L0, Node(Z4ADD, Leaf(1), Leaf(2)), Leaf(3)))
    assert compose(spec1) == load_fixture(EXAMPLE_CUBE_1)
    assert compose(spec2) == load_fixture(EXAMPLE_CUBE_2)


def test_compose_rejects_single_leaf():
    with pytest.raises(ValueError):
        compose(CompositionSpec(1, Leaf(1)))


def test_compose_rejects_bad_leaf_labels():
    with pytest.raises(ValueError):
        compose(CompositionSpec(3, Node(xor_op(), Leaf(1), Leaf(1))))


def test_compose_rejects_mixed_orders():
    mixed = CompositionSpec(3, Node(xor_op(), Node(addition_square(3), Leaf(1), Leaf(2)), Leaf(3)))
    with pytest.raises(ValueError):
        compose(mixed)


def test_compose_output_is_latin():
    rng = random.Random(321)
    for _ in range(20):
        n = rng.choice([3, 4, 5])
        cube = compose(random_tree(n, 4, rng))
        assert validate_latin(cube).ok


def _random_shape(variables, op, rng):
    """A tree of op at every node, of random shape, over the leaves given,
    left to right."""
    if len(variables) == 1:
        return Leaf(variables[0])
    k = rng.randint(1, len(variables) - 1)
    return Node(op, _random_shape(variables[:k], op, rng), _random_shape(variables[k:], op, rng))


def test_xor_trees_of_arity_ten_are_the_iterated_group():
    # 4**10 cells, past the cell-by-cell reference: XOR is associative and
    # commutative, so every shape and leaf order gives x1 ^ .. ^ x10
    n = 10
    want = gen_iterated_group(GroupKind.Z2X2, n, 4)
    for seed in range(4):
        rng = random.Random(seed)
        variables = list(range(1, n + 1))
        rng.shuffle(variables)
        assert compose(CompositionSpec(n, _random_shape(variables, xor_op(), rng))) == want


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------


def test_isotopy_identity():
    cube = xor_cube(3)
    ident = (tuple(range(4)),) * 4
    assert apply_isotopy(cube, ident) == cube


def test_parastrophe_identity():
    cube = cyclic_cube(3)
    assert apply_parastrophe(cube, tuple(range(4))) == cube


def test_sigma_isotopy_reveals_weight_rule():
    for n in (2, 3):
        moved = apply_isotopy(gen_iterated_group(GroupKind.Z4, n, 4), (SIGMA,) * (n + 1))
        assert detect_semilinear(moved) == lambda_z4(n)


def test_arity_nine_isotopy_is_undone_by_its_inverse():
    # 4**9 cells, past the cell-by-cell reference: every axis is relabeled
    n = 9
    rng = random.Random(9)
    cube = gen_semilinear(random_lambda(n, rng))
    perms = random_isotopy(n, 4, rng)
    moved = apply_isotopy(cube, perms)
    assert moved != cube
    inverses = [algebra.inverse_permutation(p) for p in perms]
    for _ in range(200):
        x = tuple(rng.randrange(4) for _ in range(n))
        y = tuple(inverses[i + 1][v] for i, v in enumerate(x))
        assert moved[y] == inverses[0][cube[x]]
    assert validate_latin(moved).ok
    assert apply_isotopy(moved, inverses) == cube


def test_arity_nine_parastrophe_is_undone_by_its_inverse():
    # 4**9 cells: the output role swaps with input 4, whose lines are
    # inverted, and the inputs then move by contiguous runs and by extended
    # slices
    n = 9
    rng = random.Random(19)
    cube = gen_semilinear(random_lambda(n, rng))
    pi = (4, 7, 0, 9, 2, 5, 1, 8, 3, 6)
    moved = apply_parastrophe(cube, pi)
    assert moved != cube
    for _ in range(200):
        x = tuple(rng.randrange(4) for _ in range(n))
        cell = (cube[x],) + x
        assert moved[tuple(cell[pi[i]] for i in range(1, n + 1))] == cell[pi[0]]
    assert validate_latin(moved).ok
    assert apply_parastrophe(moved, algebra.inverse_permutation(pi)) == cube


def test_arity_nine_transform_is_undone_by_its_inverses():
    # 4**9 cells: one move per axis relabels it, and the output role swaps
    # with input 4, whose slabs are relabelled before its lines are inverted
    n = 9
    rng = random.Random(29)
    cube = gen_semilinear(random_lambda(n, rng))
    perms = random_isotopy(n, 4, rng)
    pi = (4, 7, 0, 9, 2, 5, 1, 8, 3, 6)
    moved = apply_transform(cube, TransformSpec(perms, pi))
    assert moved != cube
    inverses = [algebra.inverse_permutation(p) for p in perms]
    for _ in range(200):
        x = tuple(rng.randrange(4) for _ in range(n))
        cell = tuple(inverses[i][v] for i, v in enumerate((cube[x],) + x))
        assert moved[tuple(cell[pi[i]] for i in range(1, n + 1))] == cell[pi[0]]
    assert validate_latin(moved).ok
    assert apply_isotopy(apply_parastrophe(moved, algebra.inverse_permutation(pi)), inverses) == cube


def test_parastrophe_swap_roles_matches_graph_oracle():
    sq = addition_square(3).as_cube()
    swapped = apply_parastrophe(sq, (1, 0, 2))
    # independent re-read of the graph: (x0,x1,x2) in graph(sq) becomes
    # (x1,x0,x2), i.e. swapped solves x1 from x0 and x2
    graph = set(graph_cells(sq))
    regraph = {(c[1], c[0], c[2]) for c in graph}
    assert set(graph_cells(swapped)) == regraph
    for x0 in range(3):
        for x2 in range(3):
            assert sq[(swapped[(x0, x2)], x2)] == x0


def test_transform_count_invariance():
    rng = random.Random(60)
    for _ in range(25):
        n = rng.choice([2, 3])
        q = rng.choice([3, 4])
        cube = random_quasigroup(n, q, rng)
        moved = apply_transform(cube, random_transform(n, q, rng))
        assert validate_latin(moved).ok
        assert count_transversals(moved) == count_transversals(cube)


def test_isotopy_rejects_bad_permutation():
    with pytest.raises(ValueError):
        apply_isotopy(xor_cube(2), ((0, 1, 2, 2), (0, 1, 2, 3), (0, 1, 2, 3)))
    with pytest.raises(ValueError):
        apply_isotopy(xor_cube(2), ((0, 1, 2, 3),) * 2)
    with pytest.raises(ValueError):
        apply_parastrophe(xor_cube(2), (0, 1, 1))
    with pytest.raises(TypeError):
        apply_isotopy(xor_cube(2), None)
    with pytest.raises(TypeError):
        apply_parastrophe(xor_cube(2), None)
    # the isotopy is checked first: each permutation, then their count
    with pytest.raises(ValueError, match=r"0\.\.3: \(0, 1, 2, 2\)"):
        apply_transform(xor_cube(2), TransformSpec(((0, 1, 2, 2),) * 3, (0, 1, 1)))
    with pytest.raises(ValueError, match="expected 3 permutations"):
        apply_transform(xor_cube(2), TransformSpec(((0, 1, 2, 3),) * 2, (0, 1, 1)))


# ---------------------------------------------------------------------------
# Factorization and reducibility
# ---------------------------------------------------------------------------


def test_factor_xor_chain():
    cube = gen_iterated_group(GroupKind.Z2X2, 3, 4)
    split = factor_on_subset(cube, (1, 2))
    assert split is not None
    assert split.inner == xor_cube(2)
    assert split.outer == xor_cube(2)
    assert split.compose() == cube


def test_factor_roundtrip_on_example_cubes():
    for name in (EXAMPLE_CUBE_1, EXAMPLE_CUBE_2):
        cube = load_fixture(name)
        split = find_factorization(cube)
        assert split is not None
        assert split.compose() == cube


def test_two_level_split_of_arity_ten_round_trips():
    # 4**10 cells, past the cell-by-cell reference: the factors read off
    # the split's own subset compose to the same table
    for seed in range(3):
        split = random_two_level(10, 4, random.Random(seed))
        cube = split.compose()
        assert factor_on_subset(cube, split.inner_vars).compose() == cube


def test_two_level_inner_vars_must_be_a_tuple():
    assert TwoLevelComposition(xor_cube(2), xor_cube(2), (1, 3)).compose() == xor_cube(3)
    with pytest.raises(ValueError, match=r"must be a strictly increasing tuple, got \[1, 3\]$"):
        TwoLevelComposition(xor_cube(2), xor_cube(2), [1, 3])
    with pytest.raises(ValueError, match=r"must be a strictly increasing tuple, got \(3, 1\)$"):
        TwoLevelComposition(xor_cube(2), xor_cube(2), (3, 1))


def test_factor_size_bounds():
    cube = xor_cube(3)
    with pytest.raises(ValueError):
        factor_on_subset(cube, (1,))
    with pytest.raises(ValueError):
        factor_on_subset(cube, (1, 2, 3))
    with pytest.raises(ValueError):
        find_factorization(xor_cube(2))


def test_irreducible_orientation_has_no_split_anywhere():
    # frozen from a development sweep of all 256 arity-3 orientations
    cube = gen_semilinear(lambda_from_string("00000001"))
    for subset in ((1, 2), (1, 3), (2, 3)):
        assert factor_on_subset(cube, subset) is None
    assert find_factorization(cube) is None
    assert not parastrophe_sweep_reducible(cube)


def test_is_reducible_matches_parastrophe_sweep_oracle():
    rng = random.Random(77)
    cubes = [
        gen_semilinear(lambda_from_string("00000001")),
        gen_semilinear(lambda_from_string("00010111")),
        gen_semilinear(lambda_z4(3)),
        xor_cube(3),
        load_fixture(EXAMPLE_CUBE_2),
    ]
    cubes += [random_quasigroup(3, 4, rng) for _ in range(5)]
    cubes += [random_quasigroup(3, 3, rng) for _ in range(2)]
    for cube in cubes:
        assert (find_factorization(cube) is not None) == parastrophe_sweep_reducible(cube)


def _exact_checks(monkeypatch) -> list:
    """The subsets find_factorization passes to factor_on_subset from now on."""
    calls = []

    def counted(c, subset):
        calls.append(subset)
        return factor_on_subset(c, subset)

    monkeypatch.setattr(algebra, "factor_on_subset", counted)
    return calls


def _restriction_passes(cube) -> list:
    """The subsets that pass _restriction_screen, the screen find_factorization
    uses on every cube with no standard semilinear isotope (a reducible
    order-4 cube, say); a semilinear cube gets the exact test on lambda."""
    block = algebra._restriction_screen(cube)
    n = cube.n
    return [s for size in range(2, n) for s in combinations(range(1, n + 1), size) if screen_passes(block, n, s)]


def _one_point_cube(n: int, point: int):
    return gen_semilinear(BooleanFn(n, tuple(int(z == point) for z in range(1 << n))))


def test_factorization_rejects_most_subsets_without_reading_the_cube(monkeypatch):
    # irreducible cubes: the plain sweep reads the whole cube for each of
    # the 246 subsets at arity 8 and 501 at arity 9, and both screens rule
    # out every one; lambda the majority of nine inputs passes the
    # restriction screen's two corners for every subset, and fails the test
    # on the lambda of a restriction to one input at 0
    cubes = [
        gen_semilinear(random_lambda(8, random.Random(1))),
        gen_semilinear(BooleanFn(9, tuple(int(z.bit_count() >= 5) for z in range(512)))),
    ]
    calls = _exact_checks(monkeypatch)
    for cube in cubes:
        assert find_factorization(cube) is None
        assert _restriction_passes(cube) == []
    assert calls == []


def test_factorization_of_the_and_lambda_needs_no_exact_check(monkeypatch):
    # lambda the AND of all inputs differs from an affine one in one point
    # of 256; every ternary restriction at the all-3 corner is the
    # irreducible arity-3 AND cube, so both screens rule out every subset
    cube = gen_semilinear(lambda_from_string("0" * 255 + "1"))
    calls = _exact_checks(monkeypatch)
    assert find_factorization(cube) is None
    assert calls == []
    assert _restriction_passes(cube) == []


def test_factorization_of_one_point_lambdas_needs_no_exact_check(monkeypatch):
    # a lambda with a single one is near affine: the restrictions at the
    # all-0 and all-3 corners alone let 6062 subsets through to the exact
    # check over these 128 cubes, the tests on the lambdas of the
    # restrictions to one input at 0 none, and the test on lambda none either
    calls = _exact_checks(monkeypatch)
    for point in range(128):
        cube = _one_point_cube(7, point)
        assert find_factorization(cube) is None
        assert _restriction_passes(cube) == []
    assert calls == []


def test_factorization_of_isotoped_one_point_lambdas_needs_no_exact_check(monkeypatch):
    # an isotopy hides lambda from detect_semilinear, but find_factorization
    # reads it through a relabelling of each role, and the test on it rules
    # out every subset of these 19 cubes; the restriction screen's two
    # fixed corners alone would pass 921
    calls = _exact_checks(monkeypatch)
    monkeypatch.setattr(algebra, "_restriction_screen", None)
    for point in range(0, 128, 7):
        cube = apply_isotopy(_one_point_cube(7, point), random_isotopy(7, 4, random.Random(point)))
        assert detect_semilinear(cube) is None
        assert find_factorization(cube) is None
    assert calls == []


def test_factorization_of_a_hidden_near_affine_factor_needs_one_exact_check(monkeypatch):
    # Z4 over an isotoped one-point lambda cube of arity 7 or 8: Z4 pairs its
    # symbols only by parity, and the inner output pairing is another, so the
    # whole cube has no standard semilinear isotope and meets the restriction
    # screen; the tests on the lambdas of its restrictions to one input at 0
    # let no subset through before the witness, where the two corners alone
    # let 27 to 151 through, the witness included
    calls = _exact_checks(monkeypatch)
    for arity, inner_vars, seeds in ((7, tuple(range(1, 8)), (0, 1, 4, 5)), (8, tuple(range(2, 10)), (0, 1))):
        for seed in seeds:
            rng = random.Random(seed)
            inner = apply_isotopy(_one_point_cube(arity, rng.randrange(1 << arity)), random_isotopy(arity, 4, rng))
            cube = TwoLevelComposition(cyclic_cube(2), inner, inner_vars).compose()
            assert semilinear._semilinear_isotope(cube) is None
            calls.clear()
            assert find_factorization(cube).inner_vars == inner_vars
            assert calls == [inner_vars]


@pytest.mark.parametrize(
    "module, name, cube",
    [
        # an irreducible cube of order 5: the restriction screen
        (algebra, "_restriction_screen", generic_cube(4, 5, random.Random(14))),
        # a standard semilinear cube: the test on lambda
        (semilinear, "_block_test", gen_semilinear(random_lambda(8, random.Random(1)))),
    ],
)
def test_factorization_reads_each_triple_once(monkeypatch, module, name, cube):
    # a later subset asks for triples an earlier one read; the sweep's cache
    # answers them, whichever screen it holds
    screen = getattr(module, name)
    reads = []  # (argument, triple, verdict) of each triple read

    def counted(arg):
        block = screen(arg)

        def read(*triple):
            reads.append((arg, triple, block(*triple)))
            return reads[-1][2]

        return read

    monkeypatch.setattr(module, name, counted)
    assert find_factorization(cube) is None
    triples = [triple for _, triple, _ in reads]
    assert triples and len(set(triples)) == len(triples)
    for arg, triple, verdict in reads:
        assert screen(arg)(*triple) == verdict


def test_factorization_of_a_standard_semilinear_cube_reads_lambda(monkeypatch):
    # the arity-10 lambda that is 1 only at 0010010011 passes the
    # restriction screen on all 1012 subsets (10 s of exact checks); the
    # exact test on lambda passes none of them
    calls = _exact_checks(monkeypatch)
    assert find_factorization(gen_semilinear(lambda_from_string("0" * 147 + "1" + "0" * 876))) is None
    assert calls == []
    # AND(h1..h5, h6 ^ h7 ^ h8): the first block in sweep order is {6, 7},
    # and the one exact check, for the witness, is made there
    bits = tuple(int(z >> 3 == 31 and (z & 7).bit_count() % 2) for z in range(256))
    cube = gen_semilinear(BooleanFn(8, bits))
    found = find_factorization(cube)
    assert calls == [(6, 7)]
    sweep = (factor_on_subset(cube, s) for size in range(2, 8) for s in combinations(range(1, 9), size))
    assert found == next(f for f in sweep if f is not None)


def test_factorization_of_the_and_lambda_matches_the_plain_sweep():
    cube = gen_semilinear(lambda_from_string("0" * 63 + "1"))
    assert find_factorization(cube) == reference_find_factorization(cube) is None


# ---------------------------------------------------------------------------
# Fibers, slices, lifting
# ---------------------------------------------------------------------------


def test_fiber_solves_level_set():
    cube = cyclic_cube(3)
    for a in range(4):
        fib = fiber_quasigroup(cube, a)
        assert validate_latin(fib).ok
        for x2 in range(4):
            for x3 in range(4):
                assert cube[(fib[(x2, x3)], x2, x3)] == a


def test_slice_first_is_latin_plane():
    cube = cyclic_cube(3)
    for a in range(4):
        sl = slice_first(cube, a)
        assert validate_latin(sl).ok
        for x2 in range(4):
            for x3 in range(4):
                assert sl[(x2, x3)] == cube[(a, x2, x3)]


def test_lift_product_xor_two_level():
    split = TwoLevelComposition(xor_cube(2), xor_cube(2), (1, 2))
    f = split.compose()
    outer_ts = list(enumerate_transversals(split.outer))
    inner_ts = list(enumerate_transversals(split.inner))
    assert len(outer_ts) == len(inner_ts) == 8
    seen = set()
    for tg in outer_ts:
        for th in inner_ts:
            lifted = lift_transversals_product(tg, th, split)
            assert verify_transversal(f, lifted)
            seen.add(lifted.cells)
    assert len(seen) == 64
    assert count_transversals(f) >= 64


def test_lift_product_trivial_order_one():
    from lhc import LatinHypercube

    one = LatinHypercube(2, 1, bytes(1))
    split = TwoLevelComposition(one, one, (1, 2))
    t = next(enumerate_transversals(one))
    lifted = lift_transversals_product(t, t, split)
    assert lifted.cells == ((0, 0, 0, 0),)


def test_lift_fiber_trivial_order_one():
    from lhc import LatinHypercube

    one = LatinHypercube(2, 1, bytes(1))
    split = TwoLevelComposition(one, one, (1, 2))
    t_h = next(enumerate_transversals(fiber_quasigroup(one, 0)))
    t_g = next(enumerate_transversals(slice_first(one, 0)))
    lifted = lift_transversals_fiber(t_h, t_g, (0,), split, 0)
    assert lifted.cells == ((0, 0, 0, 0),)


def test_zero_count_is_preserved_by_transforms_of_even_cyclic_cube():
    rng = random.Random(404)
    z4 = gen_iterated_group(GroupKind.Z4, 4, 4)
    x22 = gen_iterated_group(GroupKind.Z2X2, 4, 4)
    for _ in range(3):
        assert count_transversals(apply_transform(z4, random_transform(4, 4, rng))) == 0
        assert count_transversals(apply_transform(x22, random_transform(4, 4, rng))) == 5120


def test_lift_fiber_all_taus_distinct():
    split = TwoLevelComposition(xor_cube(2), xor_cube(2), (1, 2))
    f = split.compose()
    a = 0
    t_h = next(enumerate_transversals(fiber_quasigroup(split.inner, a)))
    t_g = next(enumerate_transversals(slice_first(split.outer, a)))
    outs = set()
    for tau in permutations(range(4)):
        lifted = lift_transversals_fiber(t_h, t_g, tau, split, a)
        assert verify_transversal(f, lifted)
        outs.add(lifted.cells)
    assert len(outs) == 24


def test_lift_rejects_invalid_component():
    split = TwoLevelComposition(xor_cube(2), xor_cube(2), (1, 2))
    good = next(enumerate_transversals(split.inner))
    bad_cells = [(0, 0, 0), (1, 2, 3), (2, 3, 1), (3, 1, 2)]
    bad_cells[0] = (0, 0, 1)  # not a graph cell of xor
    from lhc import Transversal

    bad = Transversal.of(bad_cells)
    with pytest.raises(ValueError):
        lift_transversals_product(bad, good, split)


def test_random_two_level_bounds():
    rng = random.Random(5)
    for _ in range(5):
        split = random_two_level(3, 4, rng)
        f = split.compose()
        assert validate_latin(f).ok
        bound = count_transversals(split.outer) * count_transversals(split.inner)
        assert count_transversals(f) >= bound


# ---------------------------------------------------------------------------
# Completely reducible lower bound
# ---------------------------------------------------------------------------


def test_lower_bound_values():
    assert lower_bound_completely_reducible(3, 4) == 96
    assert lower_bound_completely_reducible(5, 4) == 9216
    assert lower_bound_completely_reducible(1, 4) == 1
    assert lower_bound_completely_reducible(1, 7) == 1
    assert lower_bound_completely_reducible(4, 4) == 0
    assert lower_bound_completely_reducible(4, 4, even_case_applicable=True) == 96
    assert lower_bound_completely_reducible(6, 4, even_case_applicable=True) == 96 * 96
    with pytest.raises(ValueError):
        lower_bound_completely_reducible(0, 4)


def test_binary_op_structural_checks():
    with pytest.raises(StructuralError):
        BinaryOp(2, ((0, 1), (0, 1)))
    with pytest.raises(StructuralError):
        BinaryOp.from_flat(2, (0, 1, 1))
    assert BinaryOp.from_flat(2, (0, 1, 1, 0)).table[1][0] == 1


def test_random_binary_op_transversal_control():
    rng = random.Random(3)
    for _ in range(5):
        rich = random_binary_op(4, rng, with_transversals=True)
        poor = random_binary_op(4, rng, with_transversals=False)
        assert count_transversals(rich.as_cube()) == 8
        assert count_transversals(poor.as_cube()) == 0
