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
from itertools import permutations, product

from . import fixtures
from .algebra import GroupKind, apply_transform, compose, fiber_quasigroup, gen_iterated_group, slice_first
from .algebra import lift_transversals_fiber, lift_transversals_product, lower_bound_completely_reducible
from .core import LatinHypercube, Record, serialize_lhc
from .engine import count_transversals, enumerate_transversals, transversals_by_quadruple, verify_transversal
from .randgen import random_binary_op, random_lambda, random_quasigroup, random_transform, random_tree
from .randgen import random_two_level
from .semilinear import BooleanFn, DeltaClass, PlaneParity, QuadrupleClass, brindled_count_closed
from .semilinear import census_recurrence, classify_quadruple, count_transversals_formula, count_twin
from .semilinear import delta_report, enumerate_brindled, gen_semilinear, lambda_z4, lambda_z22
from .semilinear import zero_transversal_criterion

# Frozen from the exact enumerator on the shipped second example cube.
SECOND_EXAMPLE_GOLDEN_COUNT = 96

class ClaimResult(Record):
    __slots__ = ("claim_id", "subject", "expected", "got", "passed", "millis", "skipped", "skip_reason",
                 "instances", "failure")
    _defaults = {"skipped": False, "skip_reason": "", "instances": 0, "failure": None}
    claim_id: str
    subject: str
    expected: str
    got: str
    passed: bool
    millis: float
    skipped: bool
    skip_reason: str
    instances: int
    failure: tuple[str | None, str, str] | None


class _Recorder:
    """The checks of one claim, called as check(instance, got, want): counts
    them and keeps the first that fails as text, (instance, got, want).  A
    bound passes its own verdict as ok, which then replaces got == want."""

    instances, failure = 0, None

    def __call__(self, instance, got, want, ok=None) -> None:
        self.instances += 1
        if not (got == want if ok is None else ok) and self.failure is None:
            self.failure = (_render(instance), str(got), str(want))


def _render(instance) -> str:
    """A failing instance as text to replay it from: a lambda as its bits, a
    cube as .lhc text, a (transform, cube) pair as the cube's text under a
    comment line with the transform as `lhc apply` flags, else str()."""
    if isinstance(instance, BooleanFn):
        return instance.to_string()
    if isinstance(instance, LatinHypercube):
        return serialize_lhc(instance)
    if isinstance(instance, tuple):
        spec, cube = instance
        iso = " ".join(",".join(map(str, p)) for p in spec.isotopy or ())
        pi = ",".join(map(str, spec.parastrophe or ()))
        flags = (f" --isotopy {iso}" if iso else "") + (f" --parastrophe {pi}" if pi else "")
        return f"# lhc apply{flags}\n{serialize_lhc(cube)}"
    return str(instance)


_GROUPS = (GroupKind.Z4, GroupKind.Z2X2)


def _count(check, cube, want) -> int:
    """The cube's transversal count, checked to equal want."""
    c = count_transversals(cube)
    check(cube, c, want)
    return c


def _at_least(check, floor: int, count, instances) -> int:
    """The least count(x) over the instances, each checked to be >= floor."""
    want = f">= {floor}"

    def one(x):
        c = count(x)
        check(x, c, want, c >= floor)
        return c

    return min(map(one, instances))


def _odd_group_count(n: int) -> int:
    return 3 * 24 ** (n - 1) // 8 + 5 * 8 ** (n - 2)


def _even_xor_count(n: int) -> int:
    return 3 * 24 ** (n - 1) // 8 - 8 ** (n - 2)


def _all_lambdas(n: int):
    return (BooleanFn(n, bits) for bits in product((0, 1), repeat=1 << n))


def _affine_lambdas(n: int):
    """The 2^(n+1) orientation functions linear-plus-constant in the inputs;
    exactly the ones whose every 2-plane sum is even."""
    for a0 in range(2):
        for mask in range(1 << n):
            yield BooleanFn(n, tuple(a0 ^ ((z & mask).bit_count() & 1) for z in range(1 << n)))


# ---------------------------------------------------------------------------
# Claims: each takes the recorder and returns (expected, got) as text
# ---------------------------------------------------------------------------


def _claim_binary_baselines(check):
    a = _count(check, gen_iterated_group(GroupKind.Z4, 2, 4), 0)
    b = _count(check, gen_iterated_group(GroupKind.Z2X2, 2, 4), 8)
    return "cyclic=0 xor=8", f"cyclic={a} xor={b}"


def _claim_odd_group_counts(check):
    got = []
    for n in (3, 5):
        a, b = (_count(check, gen_iterated_group(kind, n, 4), _odd_group_count(n)) for kind in _GROUPS)
        got.append(f"n={n}: cyclic={a} xor={b}")
    return "n=3: 256 both; n=5: 126976 both", "; ".join(got)


def _claim_even_group_counts(check):
    a4 = _count(check, gen_iterated_group(GroupKind.Z4, 4, 4), 0)
    b4 = _count(check, gen_iterated_group(GroupKind.Z2X2, 4, 4), 5120)
    b6 = _count(check, gen_iterated_group(GroupKind.Z2X2, 6, 4), 2981888)
    check("closed form n=4", _even_xor_count(4), 5120)
    check("closed form n=6", _even_xor_count(6), 2981888)
    return "n=4: cyclic=0 xor=5120; n=6: xor=2981888", f"n=4: cyclic={a4} xor={b4}; n=6: xor={b6}"


def _claim_formula_vs_search(check):
    rng = random.Random(40804)
    lams = [*_all_lambdas(2), *_all_lambdas(3), *(random_lambda(4, rng) for _ in range(1000))]
    mismatches = 0
    for lam in lams:
        formula, search = count_transversals_formula(lam), count_transversals(gen_semilinear(lam))
        check(lam, formula, search)
        mismatches += formula != search
    check("orientation functions", len(lams), 1272)
    got = f"{mismatches} mismatches over {len(lams)}"
    return "0 mismatches over 16 + 256 + 1000 orientation functions", got


def _claim_brindled_census(check):
    want = {2: 1, 3: 6, 4: 40, 5: 240, 6: 1456}
    got = []
    for n in range(2, 7):
        enumerated = sum(1 for _ in enumerate_brindled(n))
        routes = (brindled_count_closed(n), census_recurrence(n).brindled, enumerated)
        check(f"n={n}", routes, (want[n],) * 3)
        got.append(f"n={n}: " + "/".join(map(str, routes)))
    return "closed = recurrence = enumeration = 1,6,40,240,1456", "; ".join(got)


def _claim_quadruple_buckets(check):
    buckets = transversals_by_quadruple(gen_semilinear(lambda_z22(3)))
    twin = {k: v for k, v in buckets.items() if classify_quadruple(k) is QuadrupleClass.TWIN}
    brindled = {k: v for k, v in buckets.items() if classify_quadruple(k) is QuadrupleClass.BRINDLED}
    stray = len(buckets) - len(twin) - len(brindled)
    check("twin buckets, count_twin(3)", (len(twin), count_twin(3)), (4, 4))
    check("twin total", sum(twin.values()), 64)
    check("brindled buckets", len(brindled), 6)
    check("stray buckets", stray, 0)
    for kind, size in ((twin, 16), (brindled, 32)):
        for k, v in kind.items():
            check(k, v, size)
    got = (
        f"twin: {len(twin)} buckets totalling {sum(twin.values())}; "
        f"brindled: {sorted(brindled.values())}; stray: {stray}"
    )
    return "4 twin buckets of 16 (total 64); 6 brindled buckets of 32", got


def _claim_zero_boundary(check):
    z4lam = lambda_z4(4)
    base = count_transversals(gen_semilinear(z4lam))
    check(z4lam, base, 0)
    check(z4lam, zero_transversal_criterion(z4lam), True)
    rng = random.Random(20260809)
    sample = [random_lambda(4, rng) for _ in range(1000)]
    sample.extend(_affine_lambdas(4))
    nonzero = 0
    for lam in sample:
        # existence needs only the enumerator's first transversal, not a count
        cube = gen_semilinear(lam)
        first = next(enumerate_transversals(cube), None)
        crit = zero_transversal_criterion(lam)
        all_odd = delta_report(lam).plane_parity is PlaneParity.ALL_ODD
        # no transversals <=> every brindled quadruple sums to 1 <=> the
        # all-odd plane family (the cyclic-linear cubes)
        check(lam, first is None, crit)
        check(lam, crit, all_odd)
        check(lam, first, "a transversal", first is not None and verify_transversal(cube, first))
        nonzero += first is not None
    got = f"weight-rule count={base}, crit agree on {len(sample)} others, {nonzero} nonzero"
    return "weight-rule lambda counts 0; all 1032 sampled others nonzero, verdicts agree", got


def _claim_odd_floor(check):
    for n in (3, 5):
        groups = [gen_iterated_group(kind, n, 4) for kind in _GROUPS]
        _at_least(check, 8 ** (n - 1), count_transversals, groups)
    semi_floor = (16**2 + 2 * 8**2) // 3
    check("n=3 semilinear floor", semi_floor, ">= 64", semi_floor >= 64)
    worst = _at_least(check, semi_floor, lambda lam: count_transversals(gen_semilinear(lam)), _all_lambdas(3))
    rng = random.Random(88)
    trees = {n: [compose(random_tree(n, 4, rng)) for _ in range(reps)] for n, reps in ((3, 30), (5, 20))}
    tree_min = {n: _at_least(check, 8 ** (n - 1), count_transversals, cubes) for n, cubes in trees.items()}
    n5_floor = (16**4 + 2 * 8**4) // 3
    n5 = [random_lambda(5, rng) for _ in range(200)]
    worst5 = _at_least(check, n5_floor, count_transversals_formula, n5)
    return (
        "all n=3 fixtures >= 64 (semilinear >= 128); all n=5 >= 4096 (semilinear >= 24576)",
        f"256 semilinear n=3 min={worst} (floor {semi_floor}); tree minima n=3:{tree_min[3]} n=5:{tree_min[5]}; "
        f"200 semilinear n=5 formula min={worst5} (floor {n5_floor})",
    )


def _claim_two_level_lifting(check):
    rng = random.Random(31337)
    lifted_total = 0
    splits = [random_two_level(3, 4, rng) for _ in range(12)]
    splits += [random_two_level(4, 4, rng) for _ in range(8)]
    for split in splits:
        f = split.compose()
        count_f = count_transversals(f)
        outer_ts = list(enumerate_transversals(split.outer, limit=8))
        inner_ts = list(enumerate_transversals(split.inner, limit=8))
        bound = count_transversals(split.outer) * count_transversals(split.inner)
        check(f, count_f, f">= {bound}", count_f >= bound)
        # each batch of lifts, and how many distinct transversals it must hold
        lifts = [lift_transversals_product(tg, th, split) for tg in outer_ts for th in inner_ts]
        batches = [(lifts, len(outer_ts) * len(inner_ts))]
        for a in range(4):
            fib = fiber_quasigroup(split.inner, a)
            sli = slice_first(split.outer, a)
            fiber = 24 * count_transversals(fib) * count_transversals(sli)
            check(f, count_f, f">= {fiber}", count_f >= fiber)
            fib_ts = list(enumerate_transversals(fib, limit=2))
            sli_ts = list(enumerate_transversals(sli, limit=2))
            if fib_ts and sli_ts:
                g, h = fib_ts[0], sli_ts[0]
                lifts = [lift_transversals_fiber(g, h, tau, split, a) for tau in permutations(range(4))]
                batches.append((lifts, 24))
        for lifts, distinct in batches:
            for lt in lifts:
                check(f, lt, "a transversal", verify_transversal(f, lt))
            check(f, len({lt.cells for lt in lifts}), distinct)
            lifted_total += len(lifts)
    got = f"{lifted_total} lifted transversals verified over {len(splits)} splits"
    return "every lift verifies; counts meet both product and fiber bounds", got


def _claim_completely_reducible_bound(check):
    for args, want in (((3, 4), 96), ((5, 4), 9216), ((1, 4), 1), ((4, 4), 0)):
        check(f"lower_bound_completely_reducible{args}", lower_bound_completely_reducible(*args), want)
    bound4 = lower_bound_completely_reducible(4, 4, even_case_applicable=True)
    check("lower_bound_completely_reducible(4, 4, even_case_applicable=True)", bound4, 96)
    details = []
    for n in (3, 5):
        bound = lower_bound_completely_reducible(n, 4)
        rng = random.Random(900 + n)
        groups = [gen_iterated_group(kind, n, 4) for kind in _GROUPS]
        trees = [compose(random_tree(n, 4, rng)) for _ in range(10 if n == 3 else 6)]
        worst = _at_least(check, bound, count_transversals, groups + trees)
        details.append(f"n={n}: min={worst} bound={bound}")
    rng = random.Random(904)
    # pin an XOR isotope innermost so the split-off binary factor has
    # transversals, making the even-arity bound applicable
    trees = [
        compose(random_tree(4, 4, rng, leaf_pair_op=random_binary_op(4, rng, with_transversals=True)))
        for _ in range(5)
    ]
    worst4 = _at_least(check, bound4, count_transversals, [gen_iterated_group(GroupKind.Z2X2, 4, 4)] + trees)
    details.append(f"n=4 applicable: min={worst4} bound={bound4}")
    return "bounds 96/9216/1; every fixture count meets its bound", "; ".join(details)


def _claim_example_cubes(check):
    n1 = _count(check, fixtures.load_fixture(fixtures.EXAMPLE_CUBE_1), 256)
    second = fixtures.load_fixture(fixtures.EXAMPLE_CUBE_2)
    n2 = _count(check, second, SECOND_EXAMPLE_GOLDEN_COUNT)
    check(second, n2, f"!= {n1}", n1 != n2)
    return f"first=256, second={SECOND_EXAMPLE_GOLDEN_COUNT}, different", f"first={n1}, second={n2}"


def _claim_transform_invariance(check):
    rng = random.Random(777)
    mismatches = 0
    for _ in range(200):
        n = rng.choice([2, 3, 4])
        q = rng.choice([3, 4])
        cube = random_quasigroup(n, q, rng)
        spec = random_transform(n, q, rng)
        before, after = count_transversals(cube), count_transversals(apply_transform(cube, spec))
        check((spec, cube), after, before)
        mismatches += after != before
    return "200/200 random transforms preserve the count", f"ok={mismatches == 0}"


def _claim_orientation_diagnostics(check):
    zero_sums = []
    for lam in _all_lambdas(3):
        rep = delta_report(lam)
        zero_sums.append(rep.zero_sum_brindled_count)
        check(lam, zero_sums[-1], ">= 2", zero_sums[-1] >= 2)
        check(lam, rep.delta_class, "not constant-1", rep.delta_class is not DeltaClass.CONSTANT1)
        mixed_constant0 = rep.delta_class is DeltaClass.CONSTANT0 and rep.plane_parity is PlaneParity.MIXED
        check(lam, rep.plane_parity, "not mixed under constant-0", not mixed_constant0)
    rng = random.Random(5150)
    n5 = [random_lambda(5, rng) for _ in range(2000)]
    n5 += [lambda_z4(5), lambda_z22(5)]
    n5 += list(_affine_lambdas(5))
    constant1_n5 = 0
    for lam in n5:
        delta = delta_report(lam).delta_class
        check(lam, delta, "not constant-1", delta is not DeltaClass.CONSTANT1)
        constant1_n5 += delta is DeltaClass.CONSTANT1
    n4 = [random_lambda(4, rng) for _ in range(1000)]
    n4 += list(_affine_lambdas(4))
    z4 = lambda_z4(4).bits
    n4 += [BooleanFn(4, tuple(x ^ y for x, y in zip(z4, aff.bits))) for aff in _affine_lambdas(4)]
    for lam in n4:
        rep = delta_report(lam)
        delta, parity = rep.delta_class, rep.plane_parity
        check(lam, delta, parity, (delta is DeltaClass.CONSTANT1) == (parity is PlaneParity.ALL_ODD))
        check(lam, delta, parity, (delta is DeltaClass.CONSTANT0) == (parity is PlaneParity.ALL_EVEN))
    got = f"n=3 min zero-sum={min(zero_sums)}, n=5 constant-1 hits={constant1_n5}, n=4 swept {len(n4)}"
    return "no constant-1 at n=3/n=5; n=3 zero-sums >= 2; n=4 parity matches delta class", got


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
    """Run the claims, each with its own recorder; a claim passes when it
    made at least one check and none failed.  A claim that raises fails
    with got "raised <type>: <message>", and the other claims still run."""
    wanted = set(CLAIM_IDS if claim_ids is None else claim_ids)
    unknown = wanted - set(CLAIM_IDS)
    if unknown:
        raise ValueError(f"unknown claim ids: {sorted(unknown)}")
    results = []
    for cid, subject, fn, slow in _CLAIMS:
        if cid not in wanted:
            continue
        if slow and not include_slow:
            results.append(
                ClaimResult(cid, subject, "", "", False, 0.0, True, "skipped: slow claim excluded by --skip-slow")
            )
            continue
        check = _Recorder()
        t0 = time.perf_counter()
        try:
            expected, got = fn(check)
        except Exception as e:
            expected, got = "-", f"raised {type(e).__name__}: {e}"
            check.failure = check.failure or (None, got, "no exception")
        ms = (time.perf_counter() - t0) * 1000.0
        passed = check.instances > 0 and check.failure is None
        results.append(
            ClaimResult(cid, subject, expected, got, passed, ms, False, "", check.instances, check.failure)
        )
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
    return "\n".join(lines) + "\n"


def sidecar_payload(results: list[ClaimResult]) -> dict:
    return {
        "claims": [{field: getattr(r, field) for field in r.__slots__} for r in results],
        "all_passed": all(r.passed for r in results if not r.skipped),
        "provenance": _provenance(),
    }


def _provenance() -> dict:
    """What produced the report: package and Python versions, the platform,
    the commit of the work tree holding the package (None outside one), and
    the UTC time it was written."""
    import os
    import platform
    import subprocess
    from datetime import datetime, timezone

    from . import __version__

    try:
        head = subprocess.run(
            ["git", "-C", os.path.dirname(__file__), "rev-parse", "-q", "--verify", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        git = head.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        git = None
    return {
        "lhc": __version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git": git,
        "utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def write_sidecar(results: list[ClaimResult], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(sidecar_payload(results), fh, indent=2)
        fh.write("\n")
