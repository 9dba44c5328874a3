"""The package namespace: public names resolved lazily from their submodules."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lhc

PUBLIC = {
    "algebra": [
        "BinaryOp", "CompositionSpec", "GroupKind", "Leaf", "Node", "TransformSpec",
        "TwoLevelComposition", "apply_isotopy", "apply_parastrophe", "apply_transform",
        "compose", "factor_on_subset", "fiber_quasigroup", "find_factorization",
        "gen_iterated_group", "lift_transversals_fiber", "lift_transversals_product",
        "lower_bound_completely_reducible", "slice_first",
    ],
    "core": [
        "Cell", "EnvelopeError", "LatinHypercube", "LhcError", "LineRef", "ParseError",
        "StructuralError", "UnsupportedOrderError", "ValidationReport", "coords_of",
        "index_of", "l_cell", "l_of", "parse_lhc", "serialize_lhc", "validate_latin",
    ],
    "engine": [
        "SearchStats", "Transversal", "count_transversals", "count_transversals_stats",
        "enumerate_transversals", "transversals_by_quadruple", "verify_transversal",
    ],
    "semilinear": [
        "BooleanFn", "DeltaClass", "DeltaReport", "PlaneParity", "Quadruple",
        "QuadrupleCensus", "QuadrupleClass", "brindled_count_closed", "census_recurrence",
        "classify_quadruple", "count_transversals_formula", "count_twin", "delta_report",
        "detect_semilinear", "enumerate_brindled", "gen_semilinear", "lambda_z4",
        "lambda_z22", "parse_lambda", "zero_transversal_criterion",
    ],
}
NAMES = sorted(name for names in PUBLIC.values() for name in names)


def test_public_names_resolve_to_their_submodules():
    assert len(NAMES) == 62
    assert sorted(lhc.__all__) == NAMES
    for module, names in PUBLIC.items():
        sub = importlib.import_module(f"lhc.{module}")
        for name in names:
            assert getattr(lhc, name) is getattr(sub, name), name
    scope: dict = {}
    exec("from lhc import *", scope)
    assert set(NAMES) <= set(scope)
    assert set(NAMES) <= set(dir(lhc))
    assert lhc.__version__ == "0.1.0"


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'lhc'.*no_such_name"):
        lhc.no_such_name  # noqa: B018


def test_names_follow_a_patched_submodule(monkeypatch):
    sentinel = object()
    monkeypatch.setattr(lhc.engine, "count_transversals", sentinel)
    assert lhc.count_transversals is sentinel
    monkeypatch.undo()
    assert lhc.count_transversals is lhc.engine.count_transversals


SUBMODULES = ["algebra", "cli", "compspec", "core", "engine", "fixtures", "randgen", "semilinear", "verify"]


def test_bare_import_loads_submodules_on_access(tmp_path):
    probe = (
        "import sys, lhc\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('lhc'))\n"
        f"subs = [getattr(lhc, m) is sys.modules['lhc.' + m] for m in {SUBMODULES!r}]\n"
        "print(loaded, all(subs))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(lhc.__file__).resolve().parent.parent)}
    done = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["['lhc']", "True"]
