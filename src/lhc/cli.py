"""Command line interface.

    lhc gen iterated|semilinear|compose ...   write a cube file
    lhc validate PATH                         latin check with line reports
    lhc classify PATH                         structure report
    lhc transversals PATH [--mode count|list] exact search
    lhc apply PATH [transform flags] -o OUT   isotopy / parastrophe
    lhc quadruples --lambda BITS              orientation-function report
    lhc verify [--claim ID ...]               replay the claim suite

Exit codes: 0 success, 1 failed check or claim, 2 usage error, 3 malformed
input file.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

# Only core is imported here; each command imports the rest of what it
# calls, so a command compiles and runs only its own modules.
from .core import (
    EnvelopeError,
    LatinHypercube,
    ParseError,
    StructuralError,
    UnsupportedOrderError,
    parse_lhc,
    serialize_lhc,
    validate_latin,
)

USAGE_ERROR = 2
INPUT_ERROR = 3


class _InputError(Exception):
    """File-level problem: unreadable, unparsable, or not latin."""


class _OutputError(Exception):
    """An output file that cannot be written."""

    def __init__(self, path: str, error: OSError):
        super().__init__(f"cannot write {path}: {error.strerror or error}")


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise _InputError(f"cannot read {path}: {e}") from None


def _read_cube(path: str) -> LatinHypercube:
    cube = parse_lhc(_read_text(path))
    report = validate_latin(cube)
    if not report.ok:
        first = report.violations[0]
        raise _InputError(
            f"{path}: not latin ({len(report.violations)} bad lines; "
            f"first: axis {first.axis}, fixed {first.fixed})"
        )
    return cube


def _write_cube(cube: LatinHypercube, out: str | None) -> None:
    text = serialize_lhc(cube)
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as e:
            raise _OutputError(out, e) from None


def _read_lambda(args):
    from .semilinear import parse_lambda

    if getattr(args, "lambda_bits", None):
        return parse_lambda(args.lambda_bits)
    if getattr(args, "lambda_file", None):
        return parse_lambda(_read_text(args.lambda_file))
    raise ValueError("one of --lambda or --lambda-file is required")


def _criterion(n: int, zero_sum: int) -> str:
    """The zero-transversal verdict of an even arity from the delta report's
    count, which spares a second pass over the brindled quadruples."""
    from .semilinear import _formula_count

    return "no-transversals" if _formula_count(n, zero_sum) == 0 else "has-transversals"


def _parse_perm_arg(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"bad permutation {text!r}, expected comma-separated images") from None


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_gen(args) -> int:
    if args.kind == "iterated":
        from .algebra import GroupKind, gen_iterated_group

        kind = GroupKind(args.group)
        cube = gen_iterated_group(kind, args.n, args.q)
    elif args.kind == "semilinear":
        from .semilinear import gen_semilinear

        cube = gen_semilinear(_read_lambda(args))
    else:  # compose
        from .algebra import compose
        from .compspec import parse_composition_spec

        cube = compose(parse_composition_spec(_read_text(args.spec)))
    _write_cube(cube, args.out)
    return 0


def _cmd_validate(args) -> int:
    cube = parse_lhc(_read_text(args.path))
    report = validate_latin(cube)
    if report.ok:
        print(f"ok: latin hypercube, arity {cube.n}, order {cube.q}")
        return 0
    print(f"not latin: {len(report.violations)} violating lines")
    for ref in report.violations[:20]:
        print(f"  axis {ref.axis}, fixed {','.join(map(str, ref.fixed))}")
    if len(report.violations) > 20:
        print(f"  ... and {len(report.violations) - 20} more")
    return 1


def _cmd_transversals(args) -> int:
    from .engine import count_transversals_stats, enumerate_transversals

    cube = _read_cube(args.path)
    if args.mode == "count":
        count, stats = count_transversals_stats(cube)
        print(f"transversals: {count}")
        print(f"nodes visited: {stats.nodes_visited}")
        print(f"elapsed: {stats.elapsed:.3f}s")
    else:
        for t in enumerate_transversals(cube, limit=args.limit):
            print(" ".join("(" + ",".join(map(str, cell)) + ")" for cell in t.cells))
    return 0


def _cmd_classify(args) -> int:
    from .algebra import find_factorization
    from .semilinear import delta_report, detect_semilinear

    cube = _read_cube(args.path)
    # delta_report and find_factorization refuse oversized cubes: run them before printing
    lam = detect_semilinear(cube) if cube.q == 4 else None
    rep = delta_report(lam) if lam is not None else None
    fac = find_factorization(cube) if cube.n >= 3 else None
    print(f"arity: {cube.n}, order: {cube.q}")
    print("latin: ok")
    if cube.q != 4:
        print("standardly semilinear: not applicable (order 4 only)")
    elif lam is None:
        print("standardly semilinear: no")
    else:
        print("standardly semilinear: yes")
        print(f"lambda: {lam.to_string()}")
        print(f"delta class: {rep.delta_class.value}")
        print(f"zero-sum brindled quadruples: {rep.zero_sum_brindled_count}")
        print(f"plane parity: {rep.plane_parity.value}")
        if lam.n % 2 == 0:
            print(f"zero-transversal criterion: {_criterion(lam.n, rep.zero_sum_brindled_count)}")
    if cube.n < 3:
        print("reducible: not applicable (arity >= 3 only)")
    elif fac is None:
        print("reducible: no")
    else:
        inner = ",".join(map(str, fac.inner_vars))
        print(f"reducible: yes (inner variables {inner})")
    return 0


def _cmd_apply(args) -> int:
    from .algebra import TransformSpec, apply_transform

    cube = _read_cube(args.path)
    isotopy = None
    if args.isotopy:
        isotopy = tuple(_parse_perm_arg(p) for p in args.isotopy)
    parastrophe = _parse_perm_arg(args.parastrophe) if args.parastrophe else None
    if isotopy is None and parastrophe is None:
        transformed = cube
    else:
        transformed = apply_transform(cube, TransformSpec(isotopy, parastrophe))
    if args.show_counts:
        from .engine import count_transversals_stats

        before, _ = count_transversals_stats(cube)
        after, _ = count_transversals_stats(transformed)
        print(f"transversals before: {before}")
        print(f"transversals after: {after}")
    _write_cube(transformed, args.out)
    return 0


def _cmd_quadruples(args) -> int:
    from .semilinear import _formula_count, census_recurrence, count_twin, delta_report

    lam = _read_lambda(args)
    n = lam.n
    census = census_recurrence(n)
    rep = delta_report(lam)
    print(f"arity: {n}")
    print(f"twin quadruples: {count_twin(n)}")
    print(f"brindled quadruples: {census.brindled}")
    print(
        f"census: a00={census.a00} a01={census.a01} a11={census.a11} "
        f"b00={census.b00} b01={census.b01} b11={census.b11}"
    )
    print(f"zero-sum brindled quadruples: {rep.zero_sum_brindled_count}")
    print(f"delta class: {rep.delta_class.value}")
    print(f"plane parity: {rep.plane_parity.value}")
    if n >= 2:
        print(f"formula transversal count: {_formula_count(n, rep.zero_sum_brindled_count)}")
    if n >= 2 and n % 2 == 0:
        print(f"zero-transversal criterion: {_criterion(n, rep.zero_sum_brindled_count)}")
    return 0


def _cmd_verify(args) -> int:
    from . import verify as verify_mod

    results = verify_mod.run_claims(args.claim or None, include_slow=not args.skip_slow)
    sys.stdout.write(verify_mod.format_report(results))
    try:
        verify_mod.write_sidecar(results, args.json)
    except OSError as e:
        raise _OutputError(args.json, e) from None
    failed = [r for r in results if not r.skipped and not r.passed]
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lhc", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a cube file")
    gensub = gen.add_subparsers(dest="kind", required=True)
    g_iter = gensub.add_parser("iterated", help="iterated group table")
    # GroupKind's values, spelled out so that building the parser leaves algebra unloaded
    g_iter.add_argument("--group", choices=["cyclic", "z4", "z22"], required=True)
    g_iter.add_argument("--n", type=int, required=True)
    g_iter.add_argument("--q", type=int, required=True)
    g_semi = gensub.add_parser("semilinear", help="cube from an orientation function")
    g_semi.add_argument("--lambda", dest="lambda_bits", metavar="BITS")
    g_semi.add_argument("--lambda-file", dest="lambda_file", metavar="PATH")
    g_comp = gensub.add_parser("compose", help="cube from a composition spec")
    g_comp.add_argument("--spec", required=True, metavar="PATH")
    for p in (g_iter, g_semi, g_comp):
        p.add_argument("-o", "--out", metavar="PATH")
        p.set_defaults(func=_cmd_gen)

    val = sub.add_parser("validate", help="check the latin property")
    val.add_argument("path")
    val.set_defaults(func=_cmd_validate)

    tr = sub.add_parser("transversals", help="count or list transversals")
    tr.add_argument("path")
    tr.add_argument("--mode", choices=["count", "list"], default="count")
    tr.add_argument("--limit", type=int, default=None)
    tr.set_defaults(func=_cmd_transversals)

    cl = sub.add_parser("classify", help="structure report for a cube")
    cl.add_argument("path")
    cl.set_defaults(func=_cmd_classify)

    ap = sub.add_parser("apply", help="apply an isotopy and/or parastrophe")
    ap.add_argument("path")
    ap.add_argument(
        "--isotopy",
        nargs="+",
        metavar="PERM",
        help="n+1 comma-separated image lists, roles 0..n",
    )
    ap.add_argument("--parastrophe", metavar="PERM", help="comma-separated images of 0..n")
    ap.add_argument("--show-counts", action="store_true")
    ap.add_argument("-o", "--out", metavar="PATH")
    ap.set_defaults(func=_cmd_apply)

    qd = sub.add_parser("quadruples", help="orientation-function report")
    qd.add_argument("--lambda", dest="lambda_bits", metavar="BITS")
    qd.add_argument("--lambda-file", dest="lambda_file", metavar="PATH")
    qd.set_defaults(func=_cmd_quadruples)

    ver = sub.add_parser("verify", help="run the claim suite")
    ver.add_argument("--claim", nargs="+", metavar="ID", help="subset of claim ids")
    ver.add_argument("--skip-slow", action="store_true")
    ver.add_argument("--json", default="lhc_verify.json", metavar="PATH")
    ver.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, StructuralError, _InputError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return INPUT_ERROR
    except (EnvelopeError, UnsupportedOrderError, ValueError, _OutputError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
