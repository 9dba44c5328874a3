"""`search`: the exact engine in-process, on instances outside the claim
suite.

Large instances are single cubes where the search itself dominates.  Small
instances are batches of `randgen` quasigroups, each counted and fully
enumerated, plus cyclic q=3 cubes of high arity whose time goes mostly to
search preparation.  A change to counting should move `large_ref` far more
than `small_ref`; no file I/O or formula code runs in the timed phase.
"""

from __future__ import annotations

import random
from math import factorial

import lhc
import lhc.randgen as randgen

import oracle
from common import Op

# Transversals taken from the front of one q=5 n=4 enumeration.  Every
# arity-4 order-5 quasigroup has at least 60843 (the catalog minimum lhc
# quotes), so the prefix is always full and the peak memory it sets does
# not depend on the seed.
PREFIX = 60000
# (q, n, cubes, cubes per batch).  Batches of the larger sizes are short so
# that no batch holds more transversals than the prefix; the q=5 n=4
# random cubes cost ~1 s each, so that size is only among the large ones.
SMALL = [(3, 2, 32, 32), (3, 3, 32, 32), (3, 4, 32, 32), (4, 2, 32, 32), (4, 3, 32, 32), (5, 2, 32, 32),
         (4, 4, 16, 4), (5, 3, 16, 4)]
PREP_BOUND = [(3, 6), (3, 7)]  # (q, n) of cyclic cubes
POOL_SEED = 2016  # the pool of random cubes that every seed transforms
# Both n=5 orientation functions are drawn with exactly ZERO_SUM of the 240
# brindled quadruples summing to zero (about one draw in ten), so every
# seed counts and lists 8^4 + 2*4^4*ZERO_SUM = 65536 transversals.
ZERO_SUM = 120
ORACLE_STEPS = 600  # brute-force every small cube up to (q!)^(n-1) steps...
ORACLE_SAMPLE = 1  # ...and this many of each batch of larger ones


def _lambda(rng):
    while True:
        lam = randgen.random_lambda(5, rng)
        if lhc.count_transversals_formula(lam) == 8**4 + 2 * 4**4 * ZERO_SUM:
            return lam


def build(seed: int) -> dict:
    """The seed draws a random transform of each cube of a fixed pool, and
    the two orientation functions: the cells move from seed to seed while
    the number of transversals to count and list stays put."""
    pool = random.Random(POOL_SEED)
    rng = random.Random(seed)

    def moved(cube):
        return lhc.apply_transform(cube, randgen.random_transform(cube.n, cube.q, rng))

    cyclic = lhc.GroupKind.CYCLIC
    lam_count = _lambda(rng)
    lam_buckets = _lambda(rng)
    return {
        "seed": seed,
        "cyclic_5_4": lhc.gen_iterated_group(cyclic, 4, 5),
        "cyclic_6_3": lhc.gen_iterated_group(cyclic, 3, 6),
        "tree_5_4": moved(lhc.compose(randgen.random_tree(4, 5, pool))),
        "lam_count": lam_count,
        "semi_count": lhc.gen_semilinear(lam_count),
        "lam_buckets": lam_buckets,
        "semi_buckets": lhc.gen_semilinear(lam_buckets),
        "batches": [
            (f"batch q={q} n={n} #{b}", [moved(randgen.random_quasigroup(n, q, pool)) for _ in range(per)])
            for q, n, k, per in SMALL
            for b in range(k // per)
        ],
        "prep": {(q, n): lhc.gen_iterated_group(cyclic, n, q) for q, n in PREP_BOUND},
    }


def _compact(transversals) -> bytes:
    """Each transversal as its flattened cells, back to back."""
    return b"".join(bytes(x for cell in t.cells for x in cell) for t in transversals)


def _count(cube):
    return lambda: lhc.count_transversals(cube)


def _count_and_list(cubes):
    return lambda: [(lhc.count_transversals(c), list(lhc.enumerate_transversals(c))) for c in cubes]


def ops(inp: dict, workdir=None, mode="timed") -> list[Op]:
    tree = inp["tree_5_4"]
    out = [
        Op("count cyclic q=5 n=4", "large", _count(inp["cyclic_5_4"])),
        Op("count tree q=5 n=4", "large", _count(tree)),
        Op("count semilinear n=5", "large", _count(inp["semi_count"])),
        Op("count cyclic q=6 n=3", "large", _count(inp["cyclic_6_3"])),
        Op("enumerate prefix tree q=5 n=4", "large",
           lambda: list(lhc.enumerate_transversals(tree, limit=PREFIX)), keep=_compact),
        Op("by quadruple semilinear n=5", "large",
           lambda: lhc.transversals_by_quadruple(inp["semi_buckets"]), keep=lambda b: sorted((k.vectors, v) for k, v in b.items())),
    ]
    for name, cubes in inp["batches"]:
        out.append(Op(name, "small", _count_and_list(cubes),
                      keep=lambda res: [(count, _compact(ts)) for count, ts in res]))
    for (q, n), cube in inp["prep"].items():
        out.append(Op(f"count cyclic q={q} n={n}", "small", _count(cube)))
    return out


def _stream_errors(name: str, cube, flat: bytes, want: int | None) -> list[str]:
    """Every record a transversal, strictly increasing, and as many as want."""
    width = cube.q * (cube.n + 1)
    records = [flat[i : i + width] for i in range(0, len(flat), width)]
    errors = []
    if want is not None and len(records) != want:
        errors.append(f"{name}: {len(records)} transversals listed, expected {want}")
    if any(a >= b for a, b in zip(records, records[1:])):
        errors.append(f"{name}: enumeration not strictly increasing")
    bad = sum(1 for r in records if not oracle.check_transversal(cube.n, cube.q, cube.values, r))
    if bad:
        errors.append(f"{name}: {bad} listed cell sets are not transversals")
    return errors


def _bucket_errors(n: int, buckets, total: int) -> list[str]:
    """Twin buckets hold 4^(n-1) transversals each and number 2^(n-1) (odd
    n); brindled buckets hold 2*4^(n-1) each."""
    errors = []
    twins = 0
    for vectors, value in buckets:
        if any(sum(col) != 2 for col in zip(*vectors)) or any(sum(v) % 2 for v in vectors):
            errors.append(f"bucket {vectors} is not a proper even quadruple")
        elif len(set(vectors)) == 2:
            twins += 1
            if value != 4 ** (n - 1):
                errors.append(f"twin bucket holds {value}, expected {4 ** (n - 1)}")
        elif value != 2 * 4 ** (n - 1):
            errors.append(f"brindled bucket holds {value}, expected {2 * 4 ** (n - 1)}")
    if twins != oracle.twin_count(n):
        errors.append(f"{twins} twin buckets, expected {oracle.twin_count(n)}")
    if sum(v for _, v in buckets) != total:
        errors.append(f"buckets total {sum(v for _, v in buckets)}, formula gives {total}")
    return errors


def _invariant(name: str, cube, count: int, rng) -> list[str]:
    moved = lhc.apply_transform(cube, randgen.random_transform(cube.n, cube.q, rng))
    again = lhc.count_transversals(moved)
    return [] if again == count else [f"{name}: {count} transversals, {again} after a random transform"]


def check(inp: dict, kept: dict) -> list[str]:
    rng = random.Random(inp["seed"] ^ 0x5EA4C4)
    errors = []

    def got(name):
        return kept.get(name)

    for name, key in (("count cyclic q=5 n=4", ("cyclic", 4, 5)), ("count cyclic q=6 n=3", ("cyclic", 3, 6))):
        if got(name) is not None and got(name) != oracle.STORED_COUNTS[key]:
            errors.append(f"{name}: {got(name)}, brute force gives {oracle.STORED_COUNTS[key]}")
    if got("count semilinear n=5") is not None:
        formula = lhc.count_transversals_formula(inp["lam_count"])
        if got("count semilinear n=5") != formula:
            errors.append(f"count semilinear n=5: {got('count semilinear n=5')}, formula gives {formula}")
    tree_count = got("count tree q=5 n=4")
    if tree_count is not None:
        errors += _invariant("count tree q=5 n=4", inp["tree_5_4"], tree_count, rng)
        if got("enumerate prefix tree q=5 n=4") is not None:
            errors += _stream_errors("enumerate prefix", inp["tree_5_4"], got("enumerate prefix tree q=5 n=4"),
                                     min(PREFIX, tree_count))
    if got("by quadruple semilinear n=5") is not None:
        errors += _bucket_errors(5, got("by quadruple semilinear n=5"),
                                 lhc.count_transversals_formula(inp["lam_buckets"]))
    for name, cubes in inp["batches"]:
        if got(name) is None:
            continue
        q, n = cubes[0].q, cubes[0].n
        sample = set(range(len(cubes)))
        if factorial(q) ** (n - 1) > ORACLE_STEPS:
            sample = set(rng.sample(sorted(sample), min(ORACLE_SAMPLE, len(cubes))))
        for i, (cube, (count, flat)) in enumerate(zip(cubes, got(name))):
            errors += _stream_errors(f"{name} #{i}", cube, flat, count)
            if i in sample and count != oracle.brute_force_count(cube.n, cube.q, cube.values):
                errors.append(f"{name} #{i}: {count} transversals, brute force disagrees")
        i = rng.randrange(len(cubes))
        errors += _invariant(f"{name} #{i}", cubes[i], got(name)[i][0], rng)
    for (q, n), cube in inp["prep"].items():
        name = f"count cyclic q={q} n={n}"
        if got(name) is not None and got(name) != oracle.brute_force_count(n, q, cube.values):
            errors.append(f"{name}: {got(name)}, brute force disagrees")
    return errors
