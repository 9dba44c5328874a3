"""Latin hypercubes of small order: construction, transforms, classification,
and exact transversal counting.

Two independent counting paths are exposed: an exact search (a
meet-in-the-middle counter and an ordered enumerator) that works on any cube
within the search envelope, and a closed-form counter
for order-4 cubes built from a Boolean orientation function.  The `lhc`
command line wraps both plus a verification suite.

Submodules are imported on first use: `lhc.X` imports the submodule that
defines X and reads X from it on every access, so a name patched in its
submodule is seen through the package too.
"""

import sys
from importlib import import_module

__version__ = "0.1.0"

_SUBMODULES = ("algebra", "cli", "compspec", "core", "engine", "fixtures", "randgen", "semilinear", "verify")

_EXPORTS = {
    "algebra": (
        "BinaryOp",
        "CompositionSpec",
        "GroupKind",
        "Leaf",
        "Node",
        "TransformSpec",
        "TwoLevelComposition",
        "apply_isotopy",
        "apply_parastrophe",
        "apply_transform",
        "compose",
        "factor_on_subset",
        "fiber_quasigroup",
        "find_factorization",
        "gen_iterated_group",
        "lift_transversals_fiber",
        "lift_transversals_product",
        "lower_bound_completely_reducible",
        "slice_first",
    ),
    "core": (
        "Cell",
        "EnvelopeError",
        "LatinHypercube",
        "LhcError",
        "LineRef",
        "ParseError",
        "StructuralError",
        "UnsupportedOrderError",
        "ValidationReport",
        "coords_of",
        "index_of",
        "l_cell",
        "l_of",
        "parse_lhc",
        "serialize_lhc",
        "validate_latin",
    ),
    "engine": (
        "SearchStats",
        "Transversal",
        "count_transversals",
        "count_transversals_stats",
        "enumerate_transversals",
        "transversals_by_quadruple",
        "verify_transversal",
    ),
    "semilinear": (
        "BooleanFn",
        "DeltaClass",
        "DeltaReport",
        "PlaneParity",
        "Quadruple",
        "QuadrupleCensus",
        "QuadrupleClass",
        "brindled_count_closed",
        "census_recurrence",
        "classify_quadruple",
        "count_transversals_formula",
        "count_twin",
        "delta_report",
        "detect_semilinear",
        "enumerate_brindled",
        "gen_semilinear",
        "lambda_z4",
        "lambda_z22",
        "parse_lambda",
        "zero_transversal_criterion",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def _submodule(module: str):
    # sys.modules first: import_module costs microseconds even when loaded
    return sys.modules.get(f"{__name__}.{module}") or import_module(f".{module}", __name__)


def __getattr__(name: str):
    # Not cached in the package globals, so a later patch of the submodule's
    # attribute (and its removal) shows through lhc.<name>.
    module = _HOME.get(name)
    if module is not None:
        return getattr(_submodule(module), name)
    if name in _SUBMODULES:
        return _submodule(name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_SUBMODULES))
