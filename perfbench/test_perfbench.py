"""Quick tests of the benchmark's own parts: the oracle, the ref
arithmetic, the tracer and the fixed form of BENCHMARK.json."""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

import lhc
import oracle
import refclock
import run
import wl_cli
from tracing import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "group, n, q, want",
    [("z22", 2, 4, 8), ("z4", 2, 4, 0), ("z22", 3, 4, 256), ("z4", 4, 4, 0), ("cyclic", 3, 5, 3325)],
)
def test_brute_force_known_counts(group, n, q, want):
    assert oracle.brute_force_count(n, q, oracle.iterated_table(group, n, q)) == want


def test_closed_forms():
    assert [oracle.iterated_group_count("z22", n) for n in (2, 3, 4, 5, 6)] == [8, 256, 5120, 126976, 2981888]
    assert [oracle.iterated_group_count("z4", n) for n in (2, 3, 4, 5)] == [0, 256, 0, 126976]
    assert [oracle.brindled_count(n) for n in range(2, 7)] == [1, 6, 40, 240, 1456]
    assert [oracle.twin_count(n) for n in (3, 4, 5)] == [4, 0, 16]


def test_tables_match_definitions():
    assert oracle.iterated_table("z22", 2, 4) == bytes(a ^ b for a in range(4) for b in range(4))
    assert oracle.iterated_table("cyclic", 2, 5) == bytes((-a - b) % 5 for a in range(5) for b in range(5))
    bits = "0110"
    want = bytes(a ^ b ^ int(bits[(a >> 1) * 2 + (b >> 1)]) for a in range(4) for b in range(4))
    assert oracle.semilinear_table(bits) == want
    assert oracle.lambda_z4_bits(2) == "0111"


def test_transformed_table_matches_library():
    rng = random.Random(3)
    cube = lhc.randgen.random_quasigroup(3, 4, rng)
    iso = [lhc.randgen.random_permutation(4, rng) for _ in range(4)]
    par = lhc.randgen.random_permutation(4, rng)
    moved = lhc.apply_transform(cube, lhc.TransformSpec(tuple(iso), par))
    assert oracle.transformed_table(3, 4, cube.values, iso, par) == moved.values


def test_transversal_checker():
    values = oracle.iterated_table("z22", 2, 4)
    good = bytes([0, 0, 0, 1, 2, 3, 2, 3, 1, 3, 1, 2])
    assert oracle.check_transversal(2, 4, values, good)
    assert not oracle.check_transversal(2, 4, values, bytes([0, 0, 0, 1, 2, 3, 2, 3, 1, 3, 2, 1]))
    assert not oracle.check_transversal(2, 4, values, bytes([0, 0, 0, 0, 1, 1, 0, 2, 2, 0, 3, 3]))


def test_plane_parity_matches_library():
    rng = random.Random(5)
    for _ in range(20):
        lam = lhc.randgen.random_lambda(4, rng)
        assert wl_cli.plane_parity(lam.to_string()) == lhc.delta_report(lam).plane_parity.value


def test_ref_arithmetic():
    assert refclock.loop_of([0.001] * 7) == pytest.approx(refclock.CHUNKS * 0.001)
    clock = refclock.RefClock()
    result, seconds, ref, loop = clock.measure(lambda: sum(range(200000)))
    assert result == sum(range(200000))
    assert seconds > 0 and loop > 0
    assert ref == pytest.approx(seconds / loop)
    # a child's time is converted with the child's own chunks alone
    result, seconds, ref, loop = clock.measure(lambda: ("out", [0.001] * 4), in_child=True)
    assert result == "out"
    assert loop == pytest.approx(refclock.CHUNKS * 0.001)
    assert ref == pytest.approx(seconds / loop)


def test_tracer_counts_and_restores():
    original = lhc.verify.count_transversals
    cube = lhc.gen_iterated_group(lhc.GroupKind.Z2X2, 3, 4)
    tracer = Tracer()
    tracer.install()
    try:
        assert lhc.verify.count_transversals(cube) == 256
        assert len(list(lhc.enumerate_transversals(cube, limit=10))) == 10
    finally:
        tracer.uninstall()
    assert lhc.verify.count_transversals is original
    layers = layer_metrics(tracer.spans, tracer.counts)
    assert layers["engine.count.calls"] == 1
    assert layers["engine.count.nodes"] > 0
    assert layers["engine.enumerate.yielded"] == 10
    assert layers["engine.first.s"] > 0


def test_benchmark_json_form():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(spec) == ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert all(set(w) == {"name", "why"} for w in spec["workloads"])
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    assert {name: m["unit"] for name, m in e2e.items()} == run.END_TO_END
    assert all(m["better"] == "lower" and 0 < m["bound"] <= 0.25 for m in e2e.values())
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert all(set(m) == {"name", "unit", "better"} for m in spec["per_layer"])
