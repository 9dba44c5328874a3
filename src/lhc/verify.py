"""Verification suite.

Each claim recomputes one published or derived target from scratch and
compares exactly; `lhc verify` renders the results as a table plus a JSON
sidecar.  All randomness is seeded, so every run checks the identical set
of instances.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import asdict, dataclass
from itertools import permutations

from . import fixtures
from .algebra import (
    GroupKind,
    apply_transform,
    compose,
    fiber_quasigroup,
    gen_iterated_group,
    lift_transversals_fiber,
    lift_transversals_product,
    lower_bound_completely_reducible,
    slice_first,
)
from .engine import (
    count_transversals,
    enumerate_transversals,
    transversals_by_quadruple,
    verify_transversal,
)
from .randgen import (
    random_binary_op,
    random_lambda,
    random_quasigroup,
    random_transform,
    random_tree,
    random_two_level,
)
from .semilinear import (
    BooleanFn,
    DeltaClass,
    PlaneParity,
    QuadrupleClass,
    brindled_count_closed,
    census_recurrence,
    classify_quadruple,
    count_transversals_formula,
    count_twin,
    delta_report,
    enumerate_brindled,
    gen_semilinear,
    lambda_z4,
    lambda_z22,
    zero_transversal_criterion,
)

# Frozen from the exact enumerator on the shipped second example cube.
SECOND_EXAMPLE_GOLDEN_COUNT = 96

# Reported minimum transversal counts over *all* quasigroups of the given
# arity and order, from exhaustive catalogs computed elsewhere.  They are
# unverifiable-at-desk-scale documentation, never asserted by any claim.
EXTERNAL_CENSUS_MINIMA = {
    (3, 5): 859,
    (3, 6): 7632,
    (4, 5): 60843,
    (5, 5): 8096923,
}


@dataclass
class ClaimResult:
    claim_id: str
    subject: str
    expected: str
    got: str
    passed: bool
    millis: float
    skipped: bool = False
    skip_reason: str = ""


def _odd_group_count(n: int) -> int:
    return 3 * 24 ** (n - 1) // 8 + 5 * 8 ** (n - 2)


def _even_xor_count(n: int) -> int:
    return 3 * 24 ** (n - 1) // 8 - 8 ** (n - 2)


def _all_lambdas(n: int):
    for code in range(1 << (1 << n)):
        yield BooleanFn(n, tuple((code >> ((1 << n) - 1 - i)) & 1 for i in range(1 << n)))


def _affine_lambdas(n: int):
    """The 2^(n+1) orientation functions linear-plus-constant in the inputs;
    exactly the ones whose every 2-plane sum is even."""
    for a0 in range(2):
        for mask in range(1 << n):
            yield BooleanFn(n, tuple(a0 ^ ((z & mask).bit_count() & 1) for z in range(1 << n)))


def _xor_lambda(a: BooleanFn, b: BooleanFn) -> BooleanFn:
    return BooleanFn(a.n, tuple(x ^ y for x, y in zip(a.bits, b.bits)))


# ---------------------------------------------------------------------------
# Claims
# ---------------------------------------------------------------------------


def _claim_binary_baselines():
    a = count_transversals(gen_iterated_group(GroupKind.Z4, 2, 4))
    b = count_transversals(gen_iterated_group(GroupKind.Z2X2, 2, 4))
    return "cyclic=0 xor=8", f"cyclic={a} xor={b}", (a, b) == (0, 8)


def _claim_odd_group_counts():
    got = []
    ok = True
    for n in (3, 5):
        want = _odd_group_count(n)
        a = count_transversals(gen_iterated_group(GroupKind.Z4, n, 4))
        b = count_transversals(gen_iterated_group(GroupKind.Z2X2, n, 4))
        got.append(f"n={n}: cyclic={a} xor={b}")
        ok = ok and a == b == want
    return "n=3: 256 both; n=5: 126976 both", "; ".join(got), ok


def _claim_even_group_counts():
    a4 = count_transversals(gen_iterated_group(GroupKind.Z4, 4, 4))
    b4 = count_transversals(gen_iterated_group(GroupKind.Z2X2, 4, 4))
    b6 = count_transversals(gen_iterated_group(GroupKind.Z2X2, 6, 4))
    ok = a4 == 0 and b4 == 5120 == _even_xor_count(4) and b6 == 2981888 == _even_xor_count(6)
    return (
        "n=4: cyclic=0 xor=5120; n=6: xor=2981888",
        f"n=4: cyclic={a4} xor={b4}; n=6: xor={b6}",
        ok,
    )


def _claim_formula_vs_search():
    mismatches = 0
    checked = 0
    for n in (2, 3):
        for lam in _all_lambdas(n):
            checked += 1
            if count_transversals_formula(lam) != count_transversals(gen_semilinear(lam)):
                mismatches += 1
    rng = random.Random(40804)
    for _ in range(1000):
        lam = random_lambda(4, rng)
        checked += 1
        if count_transversals_formula(lam) != count_transversals(gen_semilinear(lam)):
            mismatches += 1
    return (
        "0 mismatches over 16 + 256 + 1000 orientation functions",
        f"{mismatches} mismatches over {checked}",
        mismatches == 0 and checked == 1272,
    )


def _claim_brindled_census():
    want = {2: 1, 3: 6, 4: 40, 5: 240, 6: 1456}
    got = []
    ok = True
    for n in range(2, 7):
        closed = brindled_count_closed(n)
        recurred = census_recurrence(n).brindled
        enumerated = sum(1 for _ in enumerate_brindled(n))
        got.append(f"n={n}: {closed}/{recurred}/{enumerated}")
        ok = ok and closed == recurred == enumerated == want[n]
    return "closed = recurrence = enumeration = 1,6,40,240,1456", "; ".join(got), ok


def _claim_quadruple_buckets():
    buckets = transversals_by_quadruple(gen_semilinear(lambda_z22(3)))
    twin = {k: v for k, v in buckets.items() if classify_quadruple(k) is QuadrupleClass.TWIN}
    brindled = {
        k: v for k, v in buckets.items() if classify_quadruple(k) is QuadrupleClass.BRINDLED
    }
    stray = len(buckets) - len(twin) - len(brindled)
    ok = (
        len(twin) == count_twin(3) == 4
        and sum(twin.values()) == 64
        and all(v == 16 for v in twin.values())
        and len(brindled) == 6
        and all(v == 32 for v in brindled.values())
        and stray == 0
    )
    got = (
        f"twin: {len(twin)} buckets totalling {sum(twin.values())}; "
        f"brindled: {sorted(brindled.values())}; stray: {stray}"
    )
    return "4 twin buckets of 16 (total 64); 6 brindled buckets of 32", got, ok


def _claim_zero_boundary():
    z4lam = lambda_z4(4)
    base = count_transversals(gen_semilinear(z4lam))
    ok = base == 0 and zero_transversal_criterion(z4lam)
    rng = random.Random(20260809)
    sample = [random_lambda(4, rng) for _ in range(1000)]
    sample.extend(_affine_lambdas(4))
    nonzero = 0
    for lam in sample:
        count = count_transversals(gen_semilinear(lam))
        crit = zero_transversal_criterion(lam)
        all_odd = delta_report(lam).plane_parity is PlaneParity.ALL_ODD
        # no transversals <=> every brindled quadruple sums to 1 <=> the
        # all-odd plane family (the cyclic-linear cubes)
        if (count == 0) != crit or crit != all_odd:
            ok = False
        if count > 0:
            nonzero += 1
    ok = ok and nonzero == len(sample)
    got = f"weight-rule count={base}, crit agree on {len(sample)} others, {nonzero} nonzero"
    return "weight-rule lambda counts 0; all 1032 sampled others nonzero, verdicts agree", got, ok


def _claim_odd_floor():
    ok = True
    details = []
    for n in (3, 5):
        floor = 8 ** (n - 1)
        for kind in (GroupKind.Z4, GroupKind.Z2X2):
            c = count_transversals(gen_iterated_group(kind, n, 4))
            ok = ok and c >= floor
    semi_floor = (16**2 + 2 * 8**2) // 3
    worst = min(count_transversals(gen_semilinear(lam)) for lam in _all_lambdas(3))
    ok = ok and worst >= semi_floor >= 64
    details.append(f"256 semilinear n=3 min={worst} (floor {semi_floor})")
    rng = random.Random(88)
    tree_min = {
        n: min(count_transversals(compose(random_tree(n, 4, rng))) for _ in range(reps))
        for n, reps in ((3, 30), (5, 20))
    }
    ok = ok and all(c >= 8 ** (n - 1) for n, c in tree_min.items())
    details.append(f"tree minima n=3:{tree_min[3]} n=5:{tree_min[5]}")
    n5_floor = (16**4 + 2 * 8**4) // 3
    worst5 = min(count_transversals_formula(random_lambda(5, rng)) for _ in range(200))
    ok = ok and worst5 >= n5_floor
    details.append(f"200 semilinear n=5 formula min={worst5} (floor {n5_floor})")
    return (
        "all n=3 fixtures >= 64 (semilinear >= 128); all n=5 >= 4096 (semilinear >= 24576)",
        "; ".join(details),
        ok,
    )


def _claim_two_level_lifting():
    rng = random.Random(31337)
    ok = True
    lifted_total = 0
    splits = [random_two_level(3, 4, rng) for _ in range(12)]
    splits += [random_two_level(4, 4, rng) for _ in range(8)]
    for split in splits:
        f = split.compose()
        count_f = count_transversals(f)
        outer_ts = list(enumerate_transversals(split.outer, limit=8))
        inner_ts = list(enumerate_transversals(split.inner, limit=8))
        t_outer = count_transversals(split.outer)
        t_inner = count_transversals(split.inner)
        ok = ok and count_f >= t_outer * t_inner
        seen = set()
        for tg in outer_ts:
            for th in inner_ts:
                lt = lift_transversals_product(tg, th, split)
                ok = ok and verify_transversal(f, lt)
                seen.add(lt.cells)
                lifted_total += 1
        ok = ok and len(seen) == len(outer_ts) * len(inner_ts)
        for a in range(4):
            fib = fiber_quasigroup(split.inner, a)
            sli = slice_first(split.outer, a)
            t_fib = count_transversals(fib)
            t_sli = count_transversals(sli)
            ok = ok and count_f >= 24 * t_fib * t_sli
            fib_ts = list(enumerate_transversals(fib, limit=2))
            sli_ts = list(enumerate_transversals(sli, limit=2))
            if fib_ts and sli_ts:
                outs = set()
                for tau in permutations(range(4)):
                    lt = lift_transversals_fiber(fib_ts[0], sli_ts[0], tau, split, a)
                    ok = ok and verify_transversal(f, lt)
                    outs.add(lt.cells)
                    lifted_total += 1
                ok = ok and len(outs) == 24
    got = f"{lifted_total} lifted transversals verified over {len(splits)} splits"
    return "every lift verifies; counts meet both product and fiber bounds", got, ok


def _claim_completely_reducible_bound():
    ok = (
        lower_bound_completely_reducible(3, 4) == 96
        and lower_bound_completely_reducible(5, 4) == 9216
        and lower_bound_completely_reducible(1, 4) == 1
        and lower_bound_completely_reducible(4, 4) == 0
        and lower_bound_completely_reducible(4, 4, even_case_applicable=True) == 96
    )
    details = []
    for n in (3, 5):
        bound = lower_bound_completely_reducible(n, 4)
        rng = random.Random(900 + n)
        groups = [gen_iterated_group(kind, n, 4) for kind in (GroupKind.Z4, GroupKind.Z2X2)]
        trees = [compose(random_tree(n, 4, rng)) for _ in range(10 if n == 3 else 6)]
        worst = min(map(count_transversals, groups + trees))
        ok = ok and worst >= bound
        details.append(f"n={n}: min={worst} bound={bound}")
    rng = random.Random(904)
    bound4 = lower_bound_completely_reducible(4, 4, even_case_applicable=True)
    # pin an XOR isotope innermost so the split-off binary factor has
    # transversals, making the even-arity bound applicable
    trees = [
        compose(random_tree(4, 4, rng, leaf_pair_op=random_binary_op(4, rng, with_transversals=True)))
        for _ in range(5)
    ]
    worst4 = min(map(count_transversals, [gen_iterated_group(GroupKind.Z2X2, 4, 4)] + trees))
    ok = ok and worst4 >= bound4
    details.append(f"n=4 applicable: min={worst4} bound={bound4}")
    return "bounds 96/9216/1; every fixture count meets its bound", "; ".join(details), ok


def _claim_example_cubes():
    c1 = fixtures.load_fixture(fixtures.EXAMPLE_CUBE_1)
    c2 = fixtures.load_fixture(fixtures.EXAMPLE_CUBE_2)
    n1 = count_transversals(c1)
    n2 = count_transversals(c2)
    ok = n1 == 256 and n2 == SECOND_EXAMPLE_GOLDEN_COUNT and n1 != n2
    return (
        f"first=256, second={SECOND_EXAMPLE_GOLDEN_COUNT}, different",
        f"first={n1}, second={n2}",
        ok,
    )


def _claim_transform_invariance():
    rng = random.Random(777)
    ok = True
    for _ in range(200):
        n = rng.choice([2, 3, 4])
        q = rng.choice([3, 4])
        cube = random_quasigroup(n, q, rng)
        moved = apply_transform(cube, random_transform(n, q, rng))
        if count_transversals(cube) != count_transversals(moved):
            ok = False
    return "200/200 random transforms preserve the count", f"ok={ok}", ok


def _claim_orientation_diagnostics():
    ok = True
    min_zero = None
    for lam in _all_lambdas(3):
        rep = delta_report(lam)
        ok = ok and rep.delta_class is not DeltaClass.CONSTANT1
        min_zero = (
            rep.zero_sum_brindled_count
            if min_zero is None
            else min(min_zero, rep.zero_sum_brindled_count)
        )
        ok = ok and rep.zero_sum_brindled_count >= 2
        if rep.delta_class is DeltaClass.CONSTANT0:
            ok = ok and rep.plane_parity is not PlaneParity.MIXED
    rng = random.Random(5150)
    n5 = [random_lambda(5, rng) for _ in range(2000)]
    n5 += [lambda_z4(5), lambda_z22(5)]
    n5 += list(_affine_lambdas(5))
    constant1_n5 = sum(1 for lam in n5 if delta_report(lam).delta_class is DeltaClass.CONSTANT1)
    ok = ok and constant1_n5 == 0
    n4 = [random_lambda(4, rng) for _ in range(1000)]
    n4 += list(_affine_lambdas(4))
    n4 += [_xor_lambda(lambda_z4(4), aff) for aff in _affine_lambdas(4)]
    for lam in n4:
        rep = delta_report(lam)
        ok = ok and (rep.delta_class is DeltaClass.CONSTANT1) == (
            rep.plane_parity is PlaneParity.ALL_ODD
        )
        ok = ok and (rep.delta_class is DeltaClass.CONSTANT0) == (
            rep.plane_parity is PlaneParity.ALL_EVEN
        )
    got = f"n=3 min zero-sum={min_zero}, n=5 constant-1 hits={constant1_n5}, n=4 swept {len(n4)}"
    return (
        "no constant-1 at n=3/n=5; n=3 zero-sums >= 2; n=4 parity matches delta class",
        got,
        ok,
    )


_CLAIMS: list[tuple[str, str, object, bool]] = [
    ("C01", "binary baselines", _claim_binary_baselines, False),
    ("C02", "odd-arity group counts", _claim_odd_group_counts, False),
    ("C03", "even-arity group counts", _claim_even_group_counts, True),
    ("C04", "formula vs search", _claim_formula_vs_search, False),
    ("C05", "brindled census", _claim_brindled_census, False),
    ("C06", "block quadruple buckets", _claim_quadruple_buckets, False),
    ("C07", "zero-transversal boundary", _claim_zero_boundary, False),
    ("C08", "odd-arity floor", _claim_odd_floor, False),
    ("C09", "two-level lifting", _claim_two_level_lifting, False),
    ("C10", "completely reducible bound", _claim_completely_reducible_bound, False),
    ("C11", "layered example cubes", _claim_example_cubes, False),
    ("C12", "transform invariance", _claim_transform_invariance, False),
    ("C13", "orientation diagnostics", _claim_orientation_diagnostics, False),
]

CLAIM_IDS = [cid for cid, _, _, _ in _CLAIMS]

# Stated runtime budgets, in milliseconds, for the claims that carry one.
# Sub-millisecond targets are guarded at 1s: at that scale wall-clock
# assertions measure interpreter noise, not the search.
CLAIM_BUDGETS_MS = {
    "C01": 1_000,
    "C02": 4_000,
    "C03": 30_000,
    "C04": 30_000,
    "C05": 10_000,
}


def run_claims(claim_ids=None, include_slow: bool = True) -> list[ClaimResult]:
    wanted = None
    if claim_ids is not None:
        wanted = set(claim_ids)
        unknown = wanted - set(CLAIM_IDS)
        if unknown:
            raise ValueError(f"unknown claim ids: {sorted(unknown)}")
    results = []
    for cid, subject, fn, slow in _CLAIMS:
        if wanted is not None and cid not in wanted:
            continue
        if slow and not include_slow:
            results.append(
                ClaimResult(cid, subject, "", "", False, 0.0, True, "skipped: slow claim excluded by --skip-slow")
            )
            continue
        t0 = time.perf_counter()
        expected, got, passed = fn()
        ms = (time.perf_counter() - t0) * 1000.0
        results.append(ClaimResult(cid, subject, expected, got, bool(passed), ms))
    return results


def format_report(results: list[ClaimResult]) -> str:
    lines = []
    for r in results:
        if r.skipped:
            lines.append(f"{r.claim_id} | {r.subject} | - | - | SKIP | 0  # {r.skip_reason}")
        else:
            verdict = "PASS" if r.passed else "FAIL"
            lines.append(
                f"{r.claim_id} | {r.subject} | {r.expected} | {r.got} | {verdict} | {r.millis:.0f}"
            )
    lines.append("")
    lines.append("# documentation only, unverifiable-at-desk-scale external census minima:")
    for (n, q), v in sorted(EXTERNAL_CENSUS_MINIMA.items()):
        lines.append(f"#   minimum over all arity-{n} order-{q} quasigroups: {v}")
    return "\n".join(lines) + "\n"


def sidecar_payload(results: list[ClaimResult]) -> dict:
    return {
        "claims": [asdict(r) for r in results],
        "external_census_minima": [
            {"arity": n, "order": q, "minimum": v, "status": "unverifiable-at-desk-scale"}
            for (n, q), v in sorted(EXTERNAL_CENSUS_MINIMA.items())
        ],
        "all_passed": all(r.passed for r in results if not r.skipped),
        "provenance": _provenance(),
    }


def _provenance() -> dict:
    """What produced the report: package and Python versions, the platform,
    and the UTC time it was written."""
    import platform
    from datetime import datetime, timezone

    from . import __version__

    return {
        "lhc": __version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def write_sidecar(results: list[ClaimResult], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(sidecar_payload(results), fh, indent=2)
        fh.write("\n")
