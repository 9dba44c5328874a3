"""`claims`: the paper reproduction, `lhc.verify.run_claims`, in-process.

One operation per claim, in suite order.  C03 (the xor n=4 and n=6 and
Z4 n=4 counts, the claim `--skip-slow` drops) is the large instance; the
other twelve, which `lhc verify --skip-slow` runs, are the small ones.
The claims fix their own seeds, so `--seed` changes nothing here.
"""

from __future__ import annotations

import lhc.verify

import oracle
from common import SRC, Op

LARGE = {"C03"}


def build(seed: int):
    return list(lhc.verify.CLAIM_IDS)


def _keep(result):
    return (result.claim_id, result.expected, result.got, result.passed, result.skipped)


def ops(claim_ids, workdir=None, mode="timed"):
    return [
        Op(cid, "large" if cid in LARGE else "small", lambda cid=cid: lhc.verify.run_claims([cid])[0], keep=_keep)
        for cid in claim_ids
    ]


def check(claim_ids, kept) -> list[str]:
    errors = []
    for cid in claim_ids:
        if cid not in kept:
            continue
        _, _, got, passed, skipped = kept[cid]
        if skipped or not passed:
            errors.append(f"{cid} did not pass: {got}")
    got = {cid: kept[cid][2] for cid in kept}

    def expect(cid, text, want):
        if cid in got and text not in got[cid]:
            errors.append(f"{cid}: expected {text!r} ({want}) in {got[cid]!r}")

    z4_2 = oracle.brute_force_count(2, 4, oracle.iterated_table("z4", 2, 4))
    xor_2 = oracle.brute_force_count(2, 4, oracle.iterated_table("z22", 2, 4))
    expect("C01", f"cyclic={z4_2} xor={xor_2}", "brute force")
    for n in (3, 5):
        c = oracle.iterated_group_count("z4", n)
        x = oracle.iterated_group_count("z22", n)
        expect("C02", f"n={n}: cyclic={c} xor={x}", "closed form")
    c4, x4, x6 = (oracle.iterated_group_count(g, n) for g, n in (("z4", 4), ("z22", 4), ("z22", 6)))
    expect("C03", f"n=4: cyclic={c4} xor={x4}; n=6: xor={x6}", "closed form")
    expect("C04", "0 mismatches over 1272", "formula route")
    for n in range(2, 7):
        b = oracle.brindled_count(n)
        expect("C05", f"n={n}: {b}/{b}/{b}", "closed form")
    n = 3
    twin_total = 8 ** (n - 1)
    per_brindled = 2 * 4 ** (n - 1)
    expect("C06", f"twin: {oracle.twin_count(n)} buckets totalling {twin_total}", "closed form")
    expect("C06", f"brindled: {[per_brindled] * oracle.brindled_count(n)}", "closed form")
    fixtures = SRC / "lhc" / "fixtures"
    counts = [
        oracle.brute_force_count(*oracle.read_lhc_text((fixtures / f"example_cube_{k}.lhc").read_text()))
        for k in (1, 2)
    ]
    expect("C11", f"first={counts[0]}, second={counts[1]}", "brute force")
    return errors
