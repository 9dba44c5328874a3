"""Spans around the public functions of `lhc`, for the traced run.

Each wrapper replaces a function wherever its callers look the name up:
every `lhc` module that holds the original under some name gets the
wrapper instead (so `lhc.verify`'s own `count_transversals` and the
`factor_on_subset` that `find_factorization` reaches through the
`lhc.algebra` globals are both caught).  Nothing inside the package is
edited.

A span records its group, start, end, parent and self time (its duration
less the time its child spans took).  Spans stay in memory and are
written out when the run ends.  Enumeration is lazy, so an
`enumerate_transversals` span is charged only for the time spent inside
its iterator, and the first resumption gives `engine.first.s`.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time
from collections import Counter, defaultdict

_pc = time.perf_counter


class Tracer:
    def __init__(self):
        # [group, start, end, parent index, self seconds, outermost in its group]
        self.spans: list[list] = []
        self._stack: list[list] = []  # open stretches: [span index, child seconds]
        self.counts: Counter = Counter()
        self._delta_arities: set[int] = set()
        self._installed: list[tuple[object, str, object]] = []
        self._last_own = 0.0

    # -- spans ---------------------------------------------------------------

    def _open(self, group: str) -> int:
        outermost = all(self.spans[f[0]][0] != group for f in self._stack)
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append([group, _pc(), 0.0, parent, 0.0, outermost])
        return len(self.spans) - 1

    def _stretch(self, idx: int, fn, args, kwargs):
        """Run fn inside span idx; its self time is left in _last_own."""
        frame = [idx, 0.0]
        self._stack.append(frame)
        start = _pc()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _pc()
            self._stack.pop()
            span = self.spans[idx]
            span[2] = end
            own = (end - start) - frame[1]
            span[4] += own
            if self._stack:
                self._stack[-1][1] += end - start
            self._last_own = own

    def _call(self, group, fn, args, kwargs, hook):
        idx = self._open(group)
        result = self._stretch(idx, fn, args, kwargs)
        if hook is not None:
            hook(self, args, result, self._last_own)
        return result

    def _stream(self, idx: int, it):
        first = True
        while True:
            try:
                item = self._stretch(idx, next, (it,), {})
            except StopIteration:
                return
            if first:
                self.counts["engine.first.s"] += self._last_own
                first = False
            self.counts["engine.enumerate.yielded"] += 1
            yield item

    # -- wrappers ------------------------------------------------------------

    def traced(self, group: str, fn, hook=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(group, fn, args, kwargs, hook)

        return wrapper

    def traced_stream(self, group: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(group)
            it = self._stretch(idx, fn, args, kwargs)
            return self._stream(idx, it)

        return wrapper

    def counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        import lhc.algebra as algebra
        import lhc.cli  # noqa: F401  (its globals hold imported names too)
        import lhc.compspec as compspec
        import lhc.core as core
        import lhc.engine as engine
        import lhc.randgen as randgen
        import lhc.semilinear as semilinear

        t = self.traced
        plan = [
            (engine, "count_transversals_stats", t("engine.count", engine.count_transversals_stats, _nodes)),
            (engine, "count_transversals", t("engine.count", engine.count_transversals)),
            (engine, "enumerate_transversals", self.traced_stream("engine.enumerate", engine.enumerate_transversals)),
            (engine, "transversals_by_quadruple", t("engine.by_quadruple", engine.transversals_by_quadruple)),
            (engine, "verify_transversal", self.counted("engine.verify_transversal.calls", engine.verify_transversal)),
            (semilinear, "gen_semilinear", t("semilinear.gen", semilinear.gen_semilinear)),
            (semilinear, "detect_semilinear", t("semilinear.detect", semilinear.detect_semilinear)),
            (semilinear, "count_transversals_formula", t("semilinear.formula", semilinear.count_transversals_formula)),
            (semilinear, "delta_report", t("semilinear.delta", semilinear.delta_report, _cold_delta)),
            (semilinear, "zero_transversal_criterion", t("semilinear.criterion", semilinear.zero_transversal_criterion)),
            (semilinear, "census_recurrence", t("semilinear.census", semilinear.census_recurrence)),
            (core, "parse_lhc", t("core.parse", _rss_rise(self, core.parse_lhc), _cells_out)),
            (core, "validate_latin", t("core.validate", core.validate_latin, _cells_in)),
            (core, "serialize_lhc", t("core.serialize", core.serialize_lhc, _bytes_out)),
            (algebra, "gen_iterated_group", t("algebra.gen_iterated", algebra.gen_iterated_group)),
            (algebra, "compose", t("algebra.compose", algebra.compose)),
            (algebra.TwoLevelComposition, "compose", t("algebra.compose", algebra.TwoLevelComposition.compose)),
            (algebra, "apply_transform", t("algebra.transform", algebra.apply_transform)),
            (algebra, "apply_isotopy", t("algebra.transform", algebra.apply_isotopy)),
            (algebra, "apply_parastrophe", t("algebra.transform", algebra.apply_parastrophe)),
            (algebra, "find_factorization", t("algebra.find_factorization", algebra.find_factorization)),
            (algebra, "factor_on_subset", self.counted("algebra.factor.calls", algebra.factor_on_subset)),
            (algebra, "lift_transversals_product", t("algebra.lift", algebra.lift_transversals_product)),
            (algebra, "lift_transversals_fiber", t("algebra.lift", algebra.lift_transversals_fiber)),
            (algebra, "fiber_quasigroup", self.counted("algebra.fiber.calls", algebra.fiber_quasigroup)),
            (compspec, "parse_composition_spec", t("compspec.parse", compspec.parse_composition_spec)),
        ]
        plan += [
            (randgen, name, t("randgen", getattr(randgen, name)))
            for name in dir(randgen)
            if name.startswith("random_") and callable(getattr(randgen, name))
        ]
        modules = [m for name, m in sys.modules.items() if name == "lhc" or name.startswith("lhc.")]
        for owner, attr, wrapper in plan:
            original = getattr(owner, attr)
            if isinstance(owner, type):
                self._replace(owner, attr, original, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, name, original, wrapper)

    def _replace(self, owner, name, original, wrapper) -> None:
        self._installed.append((owner, name, original))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._installed):
            setattr(owner, name, original)
        self._installed.clear()

    # -- results -------------------------------------------------------------

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def layer_metrics(spans, counts) -> dict:
    """Per-layer numbers of one process: self seconds and outermost calls
    per group, plus the counters."""
    out = defaultdict(float)
    for group, _, _, _, own, outermost in spans:
        out[f"{group}.s"] += own
        if outermost:
            out[f"{group}.calls"] += 1
    for name, value in counts.items():
        out[name] += value
    return out


def _nodes(tracer, args, result, own):
    tracer.counts["engine.count.nodes"] += result[1].nodes_visited


def _cold_delta(tracer, args, result, own):
    n = args[0].n
    if n not in tracer._delta_arities:
        tracer._delta_arities.add(n)
        tracer.counts["semilinear.delta.cold_s"] += own


def _cells_out(tracer, args, result, own):
    tracer.counts["core.parse.cells"] += result.size


def _cells_in(tracer, args, result, own):
    tracer.counts["core.validate.cells"] += args[0].size


def _bytes_out(tracer, args, result, own):
    tracer.counts["core.serialize.bytes"] += len(result)


def _rss_rise(tracer, parse):
    """Peak-RSS rise across a parse.  tracemalloc would give the Python
    heap peak but slows parse_lhc 11-13 times, so the high-water mark of the
    resident set is read instead; it is exact when the parse sets the
    process's peak, as it does in a fresh `lhc` command."""

    @functools.wraps(parse)
    def wrapper(text):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        try:
            return parse(text)
        finally:
            rise = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024
            tracer.counts["core.parse.peak_mb"] = max(tracer.counts["core.parse.peak_mb"], rise)

    return wrapper
