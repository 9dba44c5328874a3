"""Benchmark of `lhc`, driven through its public Python API and its command
line, one operation at a time.

    python3 perfbench/run.py [--workload claims|search|cli|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Untraced (`--trace 0`), a run repeats whole passes over the workload's
operations until S seconds have gone, at least one pass, and reports the
end-to-end metrics:

    setup_s      median of 7 fresh processes that import lhc and build the inputs
    wall_ref     large_ref + small_ref
    large_ref    large instances: sum over operations of the median per pass, in ref
    small_ref    small instances, likewise
    peak_rss_mb  peak resident set of this process (for cli: of its largest child)

`ref` is defined in refclock.py.  Traced (`--trace 1`), a run makes one
untraced and one traced pass and reports the per-layer metrics.  Outputs are
checked after the timed phase, apart from every metric.  The last line of
standard output is the result as JSON.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

from common import SRC, child_env

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("claims", "search", "cli")
SETUP_PROBES = 7
STARTUP_PROBES = 3
END_TO_END = {"setup_s": "s", "wall_ref": "ref", "large_ref": "ref", "small_ref": "ref", "peak_rss_mb": "MB"}

PER_LAYER_UNITS = {
    "engine.count.calls": "count", "engine.count.s": "s", "engine.count.nodes": "count",
    "engine.first.s": "s", "engine.enumerate.s": "s", "engine.enumerate.yielded": "count",
    "engine.by_quadruple.s": "s", "engine.verify_transversal.calls": "count",
    "semilinear.gen.calls": "count", "semilinear.gen.s": "s", "semilinear.detect.s": "s",
    "semilinear.formula.calls": "count", "semilinear.formula.s": "s",
    "semilinear.delta.calls": "count", "semilinear.delta.s": "s", "semilinear.delta.cold_s": "s",
    "semilinear.criterion.s": "s", "semilinear.census.s": "s",
    "core.parse.s": "s", "core.parse.cells": "count", "core.parse.peak_mb": "MB",
    "core.validate.s": "s", "core.validate.cells": "count",
    "core.serialize.s": "s", "core.serialize.bytes": "bytes",
    "algebra.gen_iterated.s": "s", "algebra.compose.calls": "count", "algebra.compose.s": "s",
    "algebra.transform.calls": "count", "algebra.transform.s": "s",
    "algebra.find_factorization.s": "s", "algebra.factor.calls": "count",
    "algebra.lift.calls": "count", "algebra.lift.s": "s", "algebra.fiber.calls": "count",
    "compspec.parse.s": "s", "randgen.s": "s",
    **{f"verify.C{k:02d}.s": "s" for k in range(1, 14)},
    "cli.startup.s": "s", "cli.gen.s": "s", "cli.apply.s": "s", "cli.validate.s": "s",
    "cli.classify.s": "s", "cli.quadruples.s": "s",
    "trace.wall_s": "s", "trace.untraced_wall_s": "s", "trace.overhead_s": "s", "trace.overhead_pct": "%",
    "ref.loop_ms": "ms",
}


def _child_seconds(argv, **kwargs) -> float:
    start = time.perf_counter()
    subprocess.run(argv, check=True, stdout=subprocess.DEVNULL, **kwargs)
    return time.perf_counter() - start


def setup_seconds(workload: str, seed: int) -> float:
    probe = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    return statistics.median(_child_seconds(probe, env=child_env()) for _ in range(SETUP_PROBES))


# ---------------------------------------------------------------------------
# Untraced run
# ---------------------------------------------------------------------------


def timed_run(mod, inputs, seconds: float, scratch: Path, workload: str) -> dict:
    from refclock import RefClock

    clock = RefClock()
    times = defaultdict(list)  # op name -> [(seconds, ref)], one per pass
    kept, errors, failures = {}, [], []
    attempted = passes = 0
    start = time.perf_counter()
    while True:
        workdir = scratch / f"pass{passes}"
        ops = mod.ops(inputs, workdir)
        sizes = {op.name: op.size for op in ops}
        attempted += len(ops)
        done, outputs = _one_pass(clock, ops, failures)
        for name, t in done.items():
            times[name].append(t)
            if name not in kept:
                kept[name] = outputs[name]
            elif kept[name] != outputs[name]:
                errors.append(f"{name}: output differs between passes")
        del outputs
        shutil.rmtree(workdir, ignore_errors=True)
        passes += 1
        if time.perf_counter() - start >= seconds:
            break
    errors += mod.check(inputs, kept)

    def total(size, field):
        return sum(statistics.median(t[field] for t in ts) for name, ts in times.items() if sizes[name] == size)

    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    metrics = {
        "large_ref": total("large", 1),
        "small_ref": total("small", 1),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    metrics["wall_ref"] = metrics["large_ref"] + metrics["small_ref"]
    info = {
        "passes": passes,
        "large_s": total("large", 0),
        "small_s": total("small", 0),
        "ref_loop_ms": 1000 * statistics.median(s / r for ts in times.values() for s, r in ts if r),
    }
    for name, ts in times.items():
        info[f"op {name}"] = f"{statistics.median(t[0] for t in ts):.4f} s, {statistics.median(t[1] for t in ts):.2f} ref"
    return {"metrics": metrics, "info": info, "attempted": attempted, "failures": failures, "errors": errors}


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------


def _one_pass(clock, ops, failures: list[str]) -> tuple[dict, dict]:
    """Run ops once; ({name: (seconds, ref)}, {name: kept output})."""
    times, kept = {}, {}
    for op in ops:
        try:
            out, s, ref, _ = clock.measure(op.run, op.in_child)
        except Exception as e:  # a failed operation is counted, not fatal
            failures.append(f"{op.name}: {e!r}")
            continue
        times[op.name] = (s, ref)
        kept[op.name] = op.keep(out)
    return times, kept


def traced_run(mod, inputs, scratch: Path, workload: str, seed: int) -> dict:
    from refclock import RefClock
    from tracing import Tracer, layer_metrics

    clock = RefClock()
    failures = []
    plain, plain_kept = _one_pass(clock, mod.ops(inputs, scratch / "plain"), failures)
    tracer = Tracer()
    traced_ops = mod.ops(inputs, scratch / "traced", mode="traced")
    if workload != "cli":
        tracer.install()
    try:
        traced, kept = _one_pass(clock, traced_ops, failures)
    finally:
        tracer.uninstall()
    errors = mod.check(inputs, kept)
    errors += [f"{name}: traced output differs" for name in kept if name in plain_kept and plain_kept[name] != kept[name]]

    trace_file = HERE / "out" / f"trace-{workload}-{seed}.json"
    if workload == "cli":
        # each command wrote its own spans; peak_mb is a maximum, not a sum
        dumps = {op.name: json.loads((scratch / "traced" / f"child{k}.json").read_text())
                 for k, op in enumerate(traced_ops) if op.name in kept}
        trace_file.write_text(json.dumps(dumps))
        layers = defaultdict(float)
        for dump in dumps.values():
            for name, value in layer_metrics(dump["spans"], dump["counts"]).items():
                layers[name] += value
        layers["core.parse.peak_mb"] = max(d["counts"].get("core.parse.peak_mb", 0.0) for d in dumps.values())
        for name, (s, _) in traced.items():
            layers[f"cli.{name.split()[0]}.s"] += s
        probe = [sys.executable, "-c", "import lhc.cli"]
        layers["cli.startup.s"] = statistics.median(
            _child_seconds(probe, env=child_env()) for _ in range(STARTUP_PROBES))
    else:
        tracer.dump(trace_file)
        layers = layer_metrics(tracer.spans, tracer.counts)
    if workload == "claims":
        for name, (s, _) in traced.items():
            layers[f"verify.{name}.s"] = s
    layers["trace.wall_s"] = sum(s for s, _ in traced.values())
    layers["trace.untraced_wall_s"] = sum(s for s, _ in plain.values())
    layers["trace.overhead_s"] = layers["trace.wall_s"] - layers["trace.untraced_wall_s"]
    layers["trace.overhead_pct"] = 100 * (sum(r for _, r in traced.values()) / sum(r for _, r in plain.values()) - 1)
    layers["ref.loop_ms"] = 1000 * statistics.median(s / r for s, r in [*plain.values(), *traced.values()] if r)
    metrics = {name: float(layers.get(name, 0.0)) for name in PER_LAYER_UNITS}
    return {
        "metrics": metrics,
        "info": {"trace_file": str(trace_file.relative_to(ROOT))},
        "attempted": 2 * len(traced_ops),
        "failures": failures,
        "errors": errors,
    }


# ---------------------------------------------------------------------------
# Entry
# ---------------------------------------------------------------------------


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    sys.path.insert(0, str(SRC))
    import lhc

    if Path(lhc.__file__).resolve().parent != SRC / "lhc":
        raise SystemExit(f"error: imported lhc from {lhc.__file__}, not from this checkout")
    mod = importlib.import_module("wl_" + workload)
    inputs = mod.build(seed)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        if trace:
            result = traced_run(mod, inputs, Path(tmp), workload, seed)
        else:
            result = timed_run(mod, inputs, seconds, Path(tmp), workload)
            result["metrics"]["setup_s"] = setup_seconds(workload, seed)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lhc" / "__init__.py").is_file():
        print(f"error: no lhc sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    units = PER_LAYER_UNITS if args.trace else END_TO_END
    for key, value in result["info"].items():
        print(f"# {args.workload} {key}: {value}")
    for failure in result["failures"]:
        print(f"operation failed: {failure}", file=sys.stderr)
    for error in result["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": not result["errors"],
        "attempted": result["attempted"],
        "failed": len(result["failures"]),
        "metrics": {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
