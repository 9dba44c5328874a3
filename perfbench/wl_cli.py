"""`cli`: sequential `lhc` commands, each in a child process that runs
`lhc.cli.main` as `python -m lhc.cli` does (cli_child.py), on files in a
scratch directory, one at a time.  Each pass writes its files (`gen`,
`apply -o`) and then reads them (`validate`, `classify`, `quadruples`).

Large instances are order-4 files of arity 9 and 10 (262,144 and 1,048,576
cells), including an arity-9 orientation function whose first
`delta_report` in a fresh process builds the brindled-quadruple table.
Small instances are commands at arity <= 6 and orders 3-5, where
interpreter start-up and import dominate.  `lhc transversals` is left out
on purpose, so that an engine change predicts no change here.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import lhc.cli  # noqa: F401  (set-up pays for the import a command pays for)
import lhc.randgen as randgen
from lhc.algebra import Leaf
from lhc.compspec import format_composition_spec

import oracle
from common import Op, child_env

HERE = Path(__file__).resolve().parent
BIG_N = 9
HUGE_N = 10


def _perms(q: int, count: int, rng) -> list[tuple[int, ...]]:
    return [randgen.random_permutation(q, rng) for _ in range(count)]


def _bits(n: int, rng) -> str:
    return "".join(rng.choice("01") for _ in range(1 << n))


def _tree(node):
    """CompositionSpec root as nested tuples for oracle.tree_table."""
    if isinstance(node, Leaf):
        return ("var", node.var)
    return (node.op.table, _tree(node.left), _tree(node.right))


def build(seed: int) -> dict:
    rng = random.Random(seed)
    # Sizes are fixed so that every seed does the same amount of work; the
    # seed draws the orientation functions, trees, transforms and the bad cell.
    iterated = [("cyclic", 5, 3), ("cyclic", 4, 5), ("z4", 5, 4), ("z22", 6, 4)]
    trees = []
    for n, q in ((3, 3), (4, 4), (3, 5)):
        spec = randgen.random_tree(n, q, rng)
        trees.append((n, q, format_composition_spec(spec), _tree(spec.root)))
    small_lams = [_bits(n, rng) for n in (3, 4, 6)]
    n_bad = 4
    bad = bytearray(oracle.iterated_table("z22", n_bad, 4))
    cell = rng.randrange(len(bad))
    bad[cell] ^= 1 + rng.randrange(3)
    return {
        "big_lam": _bits(BIG_N, rng),
        "big_iso": _perms(4, BIG_N + 1, rng),
        "big_par": randgen.random_permutation(BIG_N + 1, rng),
        "huge_group": rng.choice(["z22", "z4"]),
        "iterated": iterated,
        "trees": trees,
        "small_lams": small_lams,
        "apply": [  # (source file index into iterated, isotopy, parastrophe)
            (k, _perms(q, n + 1, rng), randgen.random_permutation(n + 1, rng))
            for k, (_, n, q) in ((k, iterated[k]) for k in (1, 3))
        ],
        "bad": (n_bad, bytes(bad)),
        "quadruples": [("z22", 5), ("z4", 6), ("z4", 3), ("random", 4)],
        "quad_random": _bits(4, rng),
    }


def _perm_arg(p) -> str:
    return ",".join(map(str, p))


def commands(inp: dict) -> list[tuple[str, str, list[str], int]]:
    """(name, large|small, lhc arguments, expected exit code), writes first."""
    cmds = []
    big = ["s9.lhc", "a9.lhc", "x10.lhc"]
    cmds.append(("gen semilinear n=9", "large", ["gen", "semilinear", "--lambda", inp["big_lam"], "-o", big[0]], 0))
    cmds.append(("gen iterated n=10", "large",
                 ["gen", "iterated", "--group", inp["huge_group"], "--n", str(HUGE_N), "--q", "4", "-o", big[2]], 0))
    cmds.append(("apply n=9", "large", ["apply", big[0], "--isotopy", *map(_perm_arg, inp["big_iso"]),
                                        "--parastrophe", _perm_arg(inp["big_par"]), "-o", big[1]], 0))
    for k, (group, n, q) in enumerate(inp["iterated"]):
        cmds.append((f"gen iterated {k}", "small",
                     ["gen", "iterated", "--group", group, "--n", str(n), "--q", str(q), "-o", f"it{k}.lhc"], 0))
    for k, bits in enumerate(inp["small_lams"]):
        cmds.append((f"gen semilinear {k}", "small", ["gen", "semilinear", "--lambda", bits, "-o", f"sl{k}.lhc"], 0))
    for k in range(len(inp["trees"])):
        cmds.append((f"gen compose {k}", "small", ["gen", "compose", "--spec", f"tree{k}.sexp", "-o", f"tr{k}.lhc"], 0))
    for k, (src, iso, par) in enumerate(inp["apply"]):
        cmds.append((f"apply {k}", "small", ["apply", f"it{src}.lhc", "--isotopy", *map(_perm_arg, iso),
                                             "--parastrophe", _perm_arg(par), "-o", f"ap{k}.lhc"], 0))
    cmds.append(("classify n=9", "large", ["classify", big[0]], 0))
    cmds.append(("quadruples n=9", "large", ["quadruples", "--lambda", inp["big_lam"]], 0))
    cmds.append(("validate n=10", "large", ["validate", big[2]], 0))
    cmds.append(("validate apply n=9", "large", ["validate", big[1]], 0))
    cmds.append(("validate bad", "small", ["validate", "bad.lhc"], 1))
    cmds.append(("validate apply 0", "small", ["validate", "ap0.lhc"], 0))
    cmds.append(("validate compose 1", "small", ["validate", "tr1.lhc"], 0))
    for name, path in (("semilinear 0", "sl0.lhc"), ("semilinear 1", "sl1.lhc"),
                       ("compose 1", "tr1.lhc"), ("iterated 1", "it1.lhc")):
        cmds.append((f"classify {name}", "small", ["classify", path], 0))
    for k, (kind, n) in enumerate(inp["quadruples"]):
        bits = inp["quad_random"] if kind == "random" else (
            oracle.lambda_z22_bits(n) if kind == "z22" else oracle.lambda_z4_bits(n))
        cmds.append((f"quadruples {k}", "small", ["quadruples", "--lambda", bits], 0))
    return cmds


def prepare(inp: dict, workdir: Path) -> None:
    """Files the commands read but no command writes."""
    workdir.mkdir(parents=True, exist_ok=True)
    for k, (_, _, text, _) in enumerate(inp["trees"]):
        (workdir / f"tree{k}.sexp").write_text(text)
    n, values = inp["bad"]
    rows = [" ".join(map(str, values[i : i + 4])) for i in range(0, len(values), 4)]
    (workdir / "bad.lhc").write_text(f"LHC {n} 4\n" + "\n".join(rows) + "\n")


def _runner(argv: list[str], want: int, workdir: Path, side: Path):
    def run():
        proc = subprocess.run(argv, cwd=workdir, env=child_env(), capture_output=True, text=True)
        if proc.returncode != want:
            raise RuntimeError(f"exit {proc.returncode}, expected {want}: {proc.stderr.strip()[-300:]}")
        return proc.stdout, json.loads(side.read_text())["samples"]

    return run


def ops(inp: dict, workdir: Path, mode: str = "timed") -> list[Op]:
    """One child per command; with mode "traced" each child also records
    spans, into workdir/child<k>.json."""
    prepare(inp, workdir)
    out = []
    for k, (name, size, args, want) in enumerate(commands(inp)):
        side = workdir / f"child{k}.json"
        argv = [sys.executable, str(HERE / "cli_child.py"), "trace" if mode == "traced" else "sample", str(side), *args]
        out_file = workdir / args[args.index("-o") + 1] if "-o" in args else None
        keep = lambda stdout, f=out_file: (stdout, f.read_text() if f else None)  # noqa: E731
        out.append(Op(name, size, _runner(argv, want, workdir, side), keep=keep, in_child=True))
    return out


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def _report(stdout: str) -> dict[str, str]:
    return dict(line.split(": ", 1) for line in stdout.splitlines() if ": " in line)


def plane_parity(bits: str) -> str:
    n = len(bits).bit_length() - 1
    seen = set()
    for p1 in range(n):
        for p2 in range(p1 + 1, n):
            b1, b2 = 1 << (n - 1 - p1), 1 << (n - 1 - p2)
            for base in range(1 << n):
                if not base & (b1 | b2):
                    seen.add(sum(int(bits[z]) for z in (base, base | b1, base | b2, base | b1 | b2)) % 2)
    return "mixed" if len(seen) == 2 else ("all-odd" if seen == {1} else "all-even")


def _quadruple_errors(name: str, stdout: str, bits: str, want_count: int | None) -> list[str]:
    """The census, the count identity and the diagnostics, from closed forms."""
    n = len(bits).bit_length() - 1
    rep = _report(stdout)
    errors = []
    brindled = oracle.brindled_count(n)
    zero = int(rep["zero-sum brindled quadruples"])
    census = dict(kv.split("=") for kv in rep["census"].split())
    formula = int(rep["formula transversal count"])
    if int(rep["twin quadruples"]) != oracle.twin_count(n) or int(rep["brindled quadruples"]) != brindled:
        errors.append(f"{name}: twin/brindled counts differ from the closed forms")
    if int(census["a00"]) - int(census["b00"]) != 24 * brindled:
        errors.append(f"{name}: census a00 - b00 is not 24 x brindled")
    twin_total = 8 ** (n - 1) if n % 2 else 0
    if formula != twin_total + 2 * 4 ** (n - 1) * zero:
        errors.append(f"{name}: formula count {formula} does not match {zero} zero-sum quadruples")
    if want_count is not None and formula != want_count:
        errors.append(f"{name}: formula count {formula}, expected {want_count}")
    delta = "constant-0" if zero == brindled else ("constant-1" if zero == 0 else "not-constant")
    if rep["delta class"] != delta or rep["plane parity"] != plane_parity(bits):
        errors.append(f"{name}: delta class or plane parity wrong")
    if n % 2 == 0 and rep.get("zero-transversal criterion") != ("no-transversals" if formula == 0 else "has-transversals"):
        errors.append(f"{name}: zero-transversal criterion wrong")
    return errors


def check(inp: dict, kept: dict) -> list[str]:
    errors = []
    expected_tables = {}  # output file -> (n, q, values) computed here
    for k, (group, n, q) in enumerate(inp["iterated"]):
        expected_tables[f"gen iterated {k}"] = (n, q, oracle.iterated_table(group, n, q))
    for k, bits in enumerate(inp["small_lams"]):
        expected_tables[f"gen semilinear {k}"] = (len(bits).bit_length() - 1, 4, oracle.semilinear_table(bits))
    for k, (n, q, _, tree) in enumerate(inp["trees"]):
        expected_tables[f"gen compose {k}"] = (n, q, oracle.tree_table(n, q, tree))
    for k, (src, iso, par) in enumerate(inp["apply"]):
        n, q, values = expected_tables[f"gen iterated {src}"]
        expected_tables[f"apply {k}"] = (n, q, oracle.transformed_table(n, q, values, iso, par))
    big = oracle.semilinear_table(inp["big_lam"])
    expected_tables["gen semilinear n=9"] = (BIG_N, 4, big)
    expected_tables["gen iterated n=10"] = (HUGE_N, 4, oracle.iterated_table(inp["huge_group"], HUGE_N, 4))
    expected_tables["apply n=9"] = (BIG_N, 4, oracle.transformed_table(BIG_N, 4, big, inp["big_iso"], inp["big_par"]))
    for name, want in expected_tables.items():
        if name in kept and oracle.read_lhc_text(kept[name][1]) != want:
            errors.append(f"{name}: file differs from the table computed from the definition")

    def out(name):
        return kept[name][0] if name in kept else None

    for name, (n, q) in (("validate n=10", (HUGE_N, 4)), ("validate apply n=9", (BIG_N, 4)),
                         ("validate apply 0", expected_tables["apply 0"][:2]),
                         ("validate compose 1", expected_tables["gen compose 1"][:2])):
        if out(name) is not None and out(name) != f"ok: latin hypercube, arity {n}, order {q}\n":
            errors.append(f"{name}: {out(name)!r}")
    n_bad = inp["bad"][0]
    if out("validate bad") is not None and not out("validate bad").startswith(f"not latin: {n_bad} violating lines"):
        errors.append(f"validate bad: {out('validate bad')!r}")

    for k in (0, 1):
        rep = _report(out(f"classify semilinear {k}") or "")
        if out(f"classify semilinear {k}") is not None and (
                rep.get("standardly semilinear") != "yes" or rep.get("lambda") != inp["small_lams"][k]):
            errors.append(f"classify semilinear {k}: lambda not reported")
    for name in ("classify compose 1", "classify iterated 1"):
        rep = _report(out(name) or "")
        if out(name) is not None and rep.get("reducible", "").split(" (")[0] != "yes":
            errors.append(f"{name}: composition not reported reducible")
    rep = _report(out("classify n=9") or "")
    if out("classify n=9") is not None and (rep.get("lambda") != inp["big_lam"] or "reducible" not in rep):
        errors.append("classify n=9: lambda not reported")

    if out("quadruples n=9") is not None:
        errors += _quadruple_errors("quadruples n=9", out("quadruples n=9"), inp["big_lam"], None)
        big_rep = _report(out("quadruples n=9"))
        for key in ("delta class", "zero-sum brindled quadruples", "plane parity"):
            if out("classify n=9") is not None and rep.get(key) != big_rep[key]:
                errors.append(f"classify n=9 and quadruples n=9 disagree on {key}")
    for k, (kind, n) in enumerate(inp["quadruples"]):
        name = f"quadruples {k}"
        if out(name) is None:
            continue
        if kind == "random":
            bits = inp["quad_random"]
            want = oracle.brute_force_count(n, 4, oracle.semilinear_table(bits))
        else:
            bits = oracle.lambda_z22_bits(n) if kind == "z22" else oracle.lambda_z4_bits(n)
            want = oracle.iterated_group_count(kind, n)
        errors += _quadruple_errors(name, out(name), bits, want)
    return errors
