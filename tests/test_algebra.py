"""Constructors, transforms, factorization, lifting, and bounds."""

from __future__ import annotations

import random
import tracemalloc
from itertools import combinations, permutations

import pytest

from helpers import L0, Z4ADD, addition_square, cyclic_cube, graph_cells, lambda_from_string, xor_cube
from lhc import (
    BinaryOp,
    CompositionSpec,
    GroupKind,
    Leaf,
    Node,
    StructuralError,
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
    slice_first,
    validate_latin,
    verify_transversal,
)
from lhc.fixtures import EXAMPLE_CUBE_1, EXAMPLE_CUBE_2, load_fixture
from lhc.randgen import (
    random_binary_op,
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
        (lambda: gen_iterated_group(GroupKind.CYCLIC, 7, 9), f"{order} 9$"),
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
    split = TwoLevelComposition(gen_semilinear(lambda_z4(5)), xor_cube(5), (1, 3, 5, 7, 9))
    return {
        "gen_iterated_group": lambda: gen_iterated_group(GroupKind.Z2X2, n, 4),
        "gen_semilinear": lambda: gen_semilinear(lam),
        "detect_semilinear": lambda: detect_semilinear(cube),
        "apply_isotopy": lambda: apply_isotopy(cube, [(1, 3, 0, 2)] * (n + 1)),
        "apply_parastrophe": lambda: apply_parastrophe(cube, (2, 0, 1) + tuple(range(3, n + 1))),
        "compose": lambda: compose(spec),
        "TwoLevelComposition.compose": split.compose,
    }


@pytest.mark.parametrize(
    "name",
    ["gen_iterated_group", "gen_semilinear", "detect_semilinear", "apply_isotopy",
     "apply_parastrophe", "compose", "TwoLevelComposition.compose"],
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


def test_factorization_rejects_most_subsets_without_reading_the_cube(monkeypatch):
    # an irreducible arity-8 cube: the plain sweep reads the whole cube for
    # each of its 246 subsets, the cheap probes leave few of them to check
    cube = gen_semilinear(random_lambda(8, random.Random(1)))
    calls = []

    def counted(c, subset):
        calls.append(subset)
        return factor_on_subset(c, subset)

    monkeypatch.setattr(algebra, "factor_on_subset", counted)
    assert find_factorization(cube) is None
    assert len(calls) < 25


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
