"""Command line behaviour and exit codes."""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import subprocess
import sys
import tracemalloc
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

import lhc
from lhc import LatinHypercube, algebra, engine, parse_lhc, lambda_z4, gen_semilinear, serialize_lhc, semilinear
from lhc.cli import build_parser, main


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_gen_iterated_and_count(tmp_path, capsys):
    path = tmp_path / "q3.lhc"
    rc, _, _ = run(capsys, "gen", "iterated", "--group", "z22", "--n", "3", "--q", "4", "-o", str(path))
    assert rc == 0
    rc, out, _ = run(capsys, "transversals", str(path))
    assert rc == 0
    assert "transversals: 256" in out
    assert "nodes visited:" in out


def test_gen_semilinear_matches_library(tmp_path, capsys):
    path = tmp_path / "s.lhc"
    rc, _, _ = run(capsys, "gen", "semilinear", "--lambda", "0111", "-o", str(path))
    assert rc == 0
    assert parse_lhc(path.read_text()) == gen_semilinear(lambda_z4(2))


def test_gen_semilinear_requires_lambda(capsys):
    rc, _, err = run(capsys, "gen", "semilinear")
    assert rc == 2
    assert "lambda" in err


@pytest.mark.parametrize("command", [["quadruples"], ["gen", "semilinear"]], ids=" ".join)
def test_lambda_needs_exactly_one_source(tmp_path, capsys, command):
    path = tmp_path / "l.txt"
    path.write_text("1111\n")
    rc, out, err = run(capsys, *command, "--lambda", "0000", "--lambda-file", str(path))
    assert (rc, out) == (2, "")
    assert "exactly one of --lambda or --lambda-file" in err
    rc, out, err = run(capsys, *command, "--lambda", "")
    assert (rc, out) == (3, "")
    assert "empty orientation function" in err


def test_gen_compose_from_spec(tmp_path, capsys):
    spec = tmp_path / "tree.sexp"
    spec.write_text('(op "0 1 2 3 1 0 3 2 2 3 0 1 3 2 1 0" (var 1) (var 2))\n')
    out = tmp_path / "c.lhc"
    rc, _, _ = run(capsys, "gen", "compose", "--spec", str(spec), "-o", str(out))
    assert rc == 0
    rc, text, _ = run(capsys, "transversals", str(out))
    assert "transversals: 8" in text


def test_validate_ok_and_violations(tmp_path, capsys):
    good = tmp_path / "good.lhc"
    good.write_text("LHC 2 2\n0 1\n1 0\n")
    rc, out, _ = run(capsys, "validate", str(good))
    assert rc == 0 and "ok" in out
    bad = tmp_path / "bad.lhc"
    bad.write_text("LHC 2 2\n0 0\n1 0\n")
    rc, out, _ = run(capsys, "validate", str(bad))
    assert rc == 1
    assert "not latin" in out


def test_parse_error_exit_code(tmp_path, capsys):
    broken = tmp_path / "broken.lhc"
    broken.write_text("LHC 2 2\n0 1 1\n")
    rc, _, err = run(capsys, "transversals", str(broken))
    assert rc == 3
    assert "input error" in err


def test_missing_file_exit_code(tmp_path, capsys):
    rc, _, err = run(capsys, "classify", str(tmp_path / "nope.lhc"))
    assert rc == 3


def test_non_utf8_file_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"LHC 1 2\n\xff 1\n")
    for argv in (
        ["validate", str(path)],
        ["classify", str(path)],
        ["quadruples", "--lambda-file", str(path)],
        ["gen", "semilinear", "--lambda-file", str(path)],
        ["gen", "compose", "--spec", str(path)],
    ):
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (3, "")
        assert err == (
            f"input error: cannot read {path}: 'utf-8' codec can't decode byte 0xff "
            "in position 8: invalid start byte\n"
        )


def test_envelope_exit_code(tmp_path, capsys):
    # every order a file may have is searched; the envelope is the cell bound
    path = tmp_path / "q7.lhc"
    path.write_text("LHC 1 7\n0 1 2 3 4 5 6\n")
    rc, out, _ = run(capsys, "transversals", str(path))
    assert rc == 0
    assert "transversals: 1\n" in out
    big = tmp_path / "c21.lhc"
    assert run(capsys, "gen", "iterated", "--group", "cyclic", "--n", "21", "--q", "2", "-o", str(big))[0] == 0
    rc, out, err = run(capsys, "transversals", str(big))
    assert (rc, out) == (2, "")
    assert "search supports q**n <= 1048576, got 2097152" in err


def test_a_size_above_the_envelope_is_refused_from_the_header(tmp_path, capsys):
    # the body is malformed, and parsing it would exit 3: classify and
    # transversals refuse the size the header gives before they read on
    path = tmp_path / "c21.lhc"
    path.write_text("# arity 21\n\n  LHC 21 2 \n0 9\n")
    for command, layer in (("classify", "factorization"), ("transversals", "search")):
        assert run(capsys, command, str(path)) == (2, "", f"error: {layer} supports q**n <= 1048576, got 2097152\n")
    rc, out, err = run(capsys, "transversals", str(path), "--mode", "list")
    assert (rc, out, err) == (2, "", "error: search supports q**n <= 1048576, got 2097152\n")
    # with a negative limit the file is read first, as before, so that the
    # limit is reported before the size: here the malformed body is
    assert run(capsys, "transversals", str(path), "--mode", "list", "--limit", "-1")[0] == 3
    # validate takes any size, and a bad header is still an input error
    assert run(capsys, "validate", str(path))[0] == 3
    path.write_text("LHC 21 9\n0 9\n")
    for command in ("classify", "transversals"):
        assert run(capsys, command, str(path)) == (3, "", "input error: line 1, column 5: unsupported arity/order n=21 q=9\n")


def test_gen_iterated_order_one_and_zero(tmp_path, capsys):
    path = tmp_path / "c1.lhc"
    rc, _, _ = run(capsys, "gen", "iterated", "--group", "cyclic", "--n", "3", "--q", "1", "-o", str(path))
    assert rc == 0
    assert parse_lhc(path.read_text()) == LatinHypercube(3, 1, bytes(1))
    assert run(capsys, "gen", "iterated", "--group", "cyclic", "--n", "3", "--q", "0") == (
        3, "", "input error: order must be in 1..8, got 0\n"
    )


def test_order_one_arity_is_bounded(tmp_path, capsys):
    # q**n is 1 at order 1: an unbounded arity would reach every layer
    path = tmp_path / "wide.lhc"
    path.write_text("LHC 10000000 1\n0\n")
    message = "input error: line 1, column 5: arity 10000000 exceeds the supported maximum 24\n"
    for command in ("classify", "transversals", "validate"):
        assert run(capsys, command, str(path)) == (3, "", message)
    assert run(capsys, "gen", "iterated", "--group", "cyclic", "--n", "10000000", "--q", "1") == (
        3, "", "input error: arity 10000000 exceeds the supported maximum 24\n"
    )


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_transversals_list_limit(tmp_path, capsys):
    path = tmp_path / "q2.lhc"
    run(capsys, "gen", "iterated", "--group", "z22", "--n", "2", "--q", "4", "-o", str(path))
    rc, out, _ = run(capsys, "transversals", str(path), "--mode", "list", "--limit", "1")
    assert rc == 0
    lines = [ln for ln in out.splitlines() if ln]
    assert len(lines) == 1
    assert lines[0].startswith("(0,")


def test_limit_outside_list_mode_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "q2.lhc"
    run(capsys, "gen", "iterated", "--group", "z22", "--n", "2", "--q", "4", "-o", str(path))
    for argv in (["--limit", "3"], ["--mode", "count", "--limit", "0"]):
        assert run(capsys, "transversals", str(path), *argv) == (2, "", "error: --limit applies only to --mode list\n")


def test_list_into_a_closed_pipe_exits_141_quietly(tmp_path, capsys):
    # z22 n=5 lists 126,976 lines, far more than a pipe buffer holds, so the
    # command is still writing when its reader closes the pipe after one line
    path = tmp_path / "x5.lhc"
    run(capsys, "gen", "iterated", "--group", "z22", "--n", "5", "--q", "4", "-o", str(path))
    env = {**os.environ, "PYTHONPATH": str(Path(lhc.__file__).resolve().parent.parent)}
    argv = [sys.executable, "-c", "from lhc.cli import entry; entry()", "transversals", str(path), "--mode", "list"]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"(0,0,0,0,0,0) (1,1,1,1,1,1) (2,2,2,2,2,2) (3,3,3,3,3,3)\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 141
        assert proc.stderr.read() == b""


def test_classify_iterated_xor(tmp_path, capsys):
    path = tmp_path / "q3.lhc"
    run(capsys, "gen", "iterated", "--group", "z22", "--n", "3", "--q", "4", "-o", str(path))
    rc, out, _ = run(capsys, "classify", str(path))
    assert rc == 0
    assert "standardly semilinear: yes" in out
    assert "lambda: 00000000" in out
    assert "plane parity: all-even" in out
    assert "reducible: yes" in out


def test_classify_sigma_transform_even_arity(tmp_path, capsys):
    z4 = tmp_path / "z4.lhc"
    run(capsys, "gen", "iterated", "--group", "z4", "--n", "4", "--q", "4", "-o", str(z4))
    moved = tmp_path / "moved.lhc"
    sigma = "0,2,1,3"
    rc, out, _ = run(
        capsys, "apply", str(z4), "--isotopy", sigma, sigma, sigma, sigma, sigma, "-o", str(moved)
    )
    assert rc == 0
    rc, out, _ = run(capsys, "classify", str(moved))
    assert rc == 0
    assert "lambda: 0111111011101000" in out
    assert "plane parity: all-odd" in out
    assert "zero-transversal criterion: no-transversals" in out


def test_classify_reducible_non_semilinear_cube(tmp_path, capsys):
    from lhc.fixtures import EXAMPLE_CUBE_2, load_fixture

    path = tmp_path / "c2.lhc"
    path.write_text(serialize_lhc(load_fixture(EXAMPLE_CUBE_2)))
    rc, out, _ = run(capsys, "classify", str(path))
    assert rc == 0
    assert "standardly semilinear: no" in out
    assert "reducible: yes (inner variables 1,2)" in out


def test_apply_identity_is_byte_identical(tmp_path, capsys):
    src = tmp_path / "src.lhc"
    run(capsys, "gen", "iterated", "--group", "cyclic", "--n", "2", "--q", "3", "-o", str(src))
    dst = tmp_path / "dst.lhc"
    rc, _, _ = run(capsys, "apply", str(src), "-o", str(dst))
    assert rc == 0
    assert dst.read_text() == serialize_lhc(parse_lhc(src.read_text()))


def test_apply_show_counts_invariance(tmp_path, capsys):
    src = tmp_path / "src.lhc"
    run(capsys, "gen", "iterated", "--group", "z22", "--n", "2", "--q", "4", "-o", str(src))
    rc, out, _ = run(
        capsys,
        "apply", str(src), "--parastrophe", "2,0,1", "--show-counts", "-o", str(tmp_path / "out.lhc"),
    )
    assert rc == 0
    assert "transversals before: 8" in out
    assert "transversals after: 8" in out


def test_apply_bad_permutation_is_usage_error(tmp_path, capsys):
    src = tmp_path / "src.lhc"
    run(capsys, "gen", "iterated", "--group", "z22", "--n", "2", "--q", "4", "-o", str(src))
    rc, _, err = run(capsys, "apply", str(src), "--parastrophe", "0,1,x", "-o", str(tmp_path / "o.lhc"))
    assert rc == 2
    rc, _, err = run(capsys, "apply", str(src), "--isotopy", "0,1,2,3", "-o", str(tmp_path / "o.lhc"))
    assert rc == 2  # wrong number of permutations


def test_apply_empty_permutation_is_usage_error(tmp_path, capsys):
    src = tmp_path / "src.lhc"
    run(capsys, "gen", "iterated", "--group", "z22", "--n", "2", "--q", "4", "-o", str(src))
    for flag in ("--parastrophe", "--isotopy"):
        out = tmp_path / "o.lhc"
        rc, _, err = run(capsys, "apply", str(src), flag, "", "-o", str(out))
        assert rc == 2
        assert err == "error: bad permutation '', expected comma-separated images\n"
        assert not out.exists()


def test_quadruples_report(capsys):
    rc, out, _ = run(capsys, "quadruples", "--lambda", "0" * 16)
    assert rc == 0
    assert "twin quadruples: 0" in out
    assert "brindled quadruples: 40" in out
    assert "zero-sum brindled quadruples: 40" in out
    assert "formula transversal count: 5120" in out
    assert "zero-transversal criterion: has-transversals" in out


def test_quadruples_above_the_cell_bound_fails_fast(capsys):
    # the zero-sum count holds 4^n bits of shifted lam (8 MB at arity 13),
    # so a random lam catches a count that allocates before the bound
    for n, bits in ((13, _random_bits(13)), (14, _random_bits(14))):
        tracemalloc.start()
        try:
            rc, out, err = run(capsys, "quadruples", "--lambda", bits)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2
        assert out == ""
        assert f"arity {n} needs 4**{n} bits of shifted lambda" in err
        assert peak < 1 << 20


def test_classify_above_the_cell_bound_prints_nothing(tmp_path, capsys, monkeypatch):
    # a cube file above the bound is refused when it is read, so the bound
    # the zero-sum count reads is lowered to put arity 6 above it
    path = tmp_path / "s6.lhc"
    run(capsys, "gen", "semilinear", "--lambda", "0" * 64, "-o", str(path))
    monkeypatch.setattr(semilinear, "MAX_CELLS", 4**6 - 1)
    rc, out, err = run(capsys, "classify", str(path))
    assert rc == 2
    assert out == ""
    assert "arity 6 needs 4**6 bits of shifted lambda, above the supported 4095" in err


def test_classify_above_the_factorization_bound_prints_nothing(tmp_path, capsys, monkeypatch):
    # an arity-11 cube takes seconds to build, so the search envelope's cell
    # bound is lowered to put arity 6 above it; no subset may be tried
    path = tmp_path / "x6.lhc"
    run(capsys, "gen", "iterated", "--group", "z22", "--n", "6", "--q", "4", "-o", str(path))
    monkeypatch.setattr(algebra, "ENVELOPE_MAX_CELLS", 4**6 - 1)
    monkeypatch.setattr(algebra, "factor_on_subset", None)
    rc, out, err = run(capsys, "classify", str(path))
    assert rc == 2
    assert out == ""
    assert "factorization supports q**n <= 4095" in err


def test_transversals_above_the_work_budget_fail_fast(tmp_path, capsys, monkeypatch):
    # xor n=8 passes the cell bound but needs 2^28 mask tests on one level;
    # timing it is left out, the budget is lowered to put xor n=3 above it
    path = tmp_path / "x3.lhc"
    run(capsys, "gen", "iterated", "--group", "z22", "--n", "3", "--q", "4", "-o", str(path))
    monkeypatch.setattr(engine, "MAX_MASK_TESTS", 100)
    for argv in (["transversals", str(path)], ["transversals", str(path), "--mode", "list", "--limit", "5"]):
        rc, out, err = run(capsys, *argv)
        assert rc == 2
        assert out == ""
        assert "search supports at most 100 mask tests" in err


def test_transversals_list_stops_at_the_work_budget(tmp_path, capsys, monkeypatch):
    # the depth-first part of the enumerator is charged too: with the budget
    # one test short of the whole stream, the lines of the first 15 picks
    # from class 0 are printed before the exit 2
    path = tmp_path / "x3.lhc"
    run(capsys, "gen", "iterated", "--group", "z22", "--n", "3", "--q", "4", "-o", str(path))
    rc, whole, _ = run(capsys, "transversals", str(path), "--mode", "list")
    assert rc == 0
    monkeypatch.setattr(engine, "MAX_MASK_TESTS", 2 * (16 + 16 * 16) - 1)
    rc, out, err = run(capsys, "transversals", str(path), "--mode", "list")
    assert rc == 2
    assert out.splitlines() == whole.splitlines()[: 15 * 16]
    assert "search supports at most 543 mask tests" in err


# The parent's exact text for an even arity, criterion line included: one
# orientation without transversals (Z4) and one random one with.
Z4_4 = "0111111011101000"
RANDOM_6 = "1010001000011000100001000011001000100001111111000011111001010110"
GOLDEN = {
    ("classify", Z4_4): (
        "arity: 4, order: 4\nlatin: ok\nstandardly semilinear: yes\nlambda: 0111111011101000\n"
        "delta class: constant-1\nzero-sum brindled quadruples: 0\nplane parity: all-odd\n"
        "zero-transversal criterion: no-transversals\nreducible: yes (inner variables 1,2)\n"
    ),
    ("quadruples", Z4_4): (
        "arity: 4\ntwin quadruples: 0\nbrindled quadruples: 40\n"
        "census: a00=960 a01=5856 a11=960 b00=0 b01=96 b11=0\nzero-sum brindled quadruples: 0\n"
        "delta class: constant-1\nplane parity: all-odd\nformula transversal count: 0\n"
        "zero-transversal criterion: no-transversals\n"
    ),
    ("classify", RANDOM_6): (
        f"arity: 6, order: 4\nlatin: ok\nstandardly semilinear: yes\nlambda: {RANDOM_6}\n"
        "delta class: not-constant\nzero-sum brindled quadruples: 721\nplane parity: mixed\n"
        "zero-transversal criterion: has-transversals\nreducible: no\n"
    ),
    ("quadruples", RANDOM_6): (
        "arity: 6\ntwin quadruples: 0\nbrindled quadruples: 1456\n"
        "census: a00=34944 a01=210048 a11=34944 b00=0 b01=384 b11=0\nzero-sum brindled quadruples: 721\n"
        "delta class: not-constant\nplane parity: mixed\nformula transversal count: 1476608\n"
        "zero-transversal criterion: has-transversals\n"
    ),
}


def _report(tmp_path, capsys, command, bits):
    """`lhc quadruples` of lam, or `lhc classify` of its cube."""
    if command == "classify":
        path = tmp_path / "s.lhc"
        run(capsys, "gen", "semilinear", "--lambda", bits, "-o", str(path))
        return run(capsys, "classify", str(path))
    return run(capsys, "quadruples", "--lambda", bits)


@pytest.mark.parametrize("command,bits", list(GOLDEN), ids=[f"{c}-{len(b).bit_length() - 1}" for c, b in GOLDEN])
def test_even_arity_reports_are_unchanged(tmp_path, capsys, command, bits):
    assert _report(tmp_path, capsys, command, bits) == (0, GOLDEN[command, bits], "")


def test_each_report_takes_one_zero_sum_pass(tmp_path, capsys, monkeypatch):
    # a pass is one _odd_cosets sweep over the brindled directions: the
    # report takes one, the formula line its own, and the criterion line
    # reads the report's count
    passes = []
    odd_cosets = semilinear._odd_cosets

    def counted(shifts, directions):
        if directions is semilinear._brindled_directions(len(shifts).bit_length() - 1):
            passes.append(directions)
        return odd_cosets(shifts, directions)

    monkeypatch.setattr(semilinear, "_odd_cosets", counted)
    for command, bits, want in [
        ("quadruples", Z4_4, 2),
        ("quadruples", RANDOM_6, 2),
        ("quadruples", _random_bits(7), 2),
        ("classify", Z4_4, 1),
        ("classify", RANDOM_6, 1),
    ]:
        passes.clear()
        assert _report(tmp_path, capsys, command, bits)[0] == 0
        assert len(passes) == want, (command, len(bits))


def _random_bits(n: int) -> str:
    """A fixed orientation function per arity, from Random(n)."""
    return format(random.Random(n).getrandbits(1 << n), f"0{1 << n}b")


# Exact text at arities 7, 9 and 10, recorded from the flat pass over the
# listed quadruples; odd arities (twin quadruples, no criterion line) included.
GOLDEN_LARGE = {
    ("quadruples", 7): (
        "arity: 7\ntwin quadruples: 64\nbrindled quadruples: 8736\n"
        "census: a00=210048 a01=1259520 a11=210048 b00=384 b01=0 b11=384\n"
        "zero-sum brindled quadruples: 4441\ndelta class: not-constant\nplane parity: mixed\n"
        "formula transversal count: 36642816\n"
    ),
    ("quadruples", 9): (
        "arity: 9\ntwin quadruples: 256\nbrindled quadruples: 314880\n"
        "census: a00=7558656 a01=45348864 a11=7558656 b00=1536 b01=0 b11=1536\n"
        "zero-sum brindled quadruples: 157510\ndelta class: not-constant\nplane parity: mixed\n"
        "formula transversal count: 20661927936\n"
    ),
    ("quadruples", 10): (
        "arity: 10\ntwin quadruples: 0\nbrindled quadruples: 1889536\n"
        "census: a00=45348864 a01=272099328 a11=45348864 b00=0 b01=6144 b11=0\n"
        "zero-sum brindled quadruples: 945338\ndelta class: not-constant\nplane parity: mixed\n"
        "formula transversal count: 495629369344\nzero-transversal criterion: has-transversals\n"
    ),
    ("classify", 7): (
        f"arity: 7, order: 4\nlatin: ok\nstandardly semilinear: yes\nlambda: {_random_bits(7)}\n"
        "delta class: not-constant\nzero-sum brindled quadruples: 4441\nplane parity: mixed\nreducible: no\n"
    ),
    ("classify", 9): (
        f"arity: 9, order: 4\nlatin: ok\nstandardly semilinear: yes\nlambda: {_random_bits(9)}\n"
        "delta class: not-constant\nzero-sum brindled quadruples: 157510\nplane parity: mixed\nreducible: no\n"
    ),
}


@pytest.mark.parametrize("command,n", list(GOLDEN_LARGE), ids=[f"{c}-{n}" for c, n in GOLDEN_LARGE])
def test_large_arity_reports_are_unchanged(tmp_path, capsys, command, n):
    assert _report(tmp_path, capsys, command, _random_bits(n)) == (0, GOLDEN_LARGE[command, n], "")


def test_quadruples_at_arity_ten_lists_no_quadruples(capsys):
    # listing the 1.9M brindled quadruples of arity 10 took about 190 MB;
    # the count from second differences of lam holds a few MB
    bits = format(random.Random(2024).getrandbits(1 << 10), "01024b")
    for cached in vars(semilinear).values():  # measure a cold call
        if hasattr(cached, "cache_clear"):
            cached.cache_clear()
    tracemalloc.start()
    try:
        rc, out, _ = run(capsys, "quadruples", "--lambda", bits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert "brindled quadruples: 1889536" in out
    assert peak < 8 << 20


def test_verify_subset(tmp_path, capsys):
    sidecar = tmp_path / "report.json"
    rc, out, _ = run(capsys, "verify", "--claim", "C01", "C05", "--json", str(sidecar))
    assert rc == 0
    lines = [ln for ln in out.splitlines() if ln.startswith("C")]
    assert len(lines) == 2
    for ln in lines:
        parts = [p.strip() for p in ln.split("|")]
        assert len(parts) == 6
        assert parts[4] == "PASS"
    payload = json.loads(sidecar.read_text())
    assert payload["all_passed"] is True
    assert {c["claim_id"] for c in payload["claims"]} == {"C01", "C05"}
    assert [(c["instances"] > 0, c["failure"]) for c in payload["claims"]] == [(True, None)] * 2
    assert set(payload) == {"claims", "all_passed", "provenance"}
    prov = payload["provenance"]
    assert set(prov) == {"lhc", "python", "platform", "git", "utc"}
    assert prov["lhc"] == lhc.__version__
    assert prov["python"] == platform.python_version()
    assert prov["platform"] == platform.platform()
    stamp = datetime.fromisoformat(prov["utc"])
    assert stamp.utcoffset() == timedelta(0)
    assert abs(datetime.now(timezone.utc) - stamp) < timedelta(minutes=10)


def test_sidecar_lists_each_claim_field_in_order():
    from lhc.verify import ClaimResult, sidecar_payload

    results = [
        ClaimResult("C01", "binary", "8", "8", True, 1.5, instances=2),
        ClaimResult("C02", "odd", "", "", False, 0.0, True, "slow"),
        ClaimResult("C04", "formula", "0", "1", False, 2.5, False, "", 7, ("0110", "8", "0")),
    ]
    assert [list(c.items()) for c in json.loads(json.dumps(sidecar_payload(results)))["claims"]] == [
        [("claim_id", "C01"), ("subject", "binary"), ("expected", "8"), ("got", "8"), ("passed", True),
         ("millis", 1.5), ("skipped", False), ("skip_reason", ""), ("instances", 2), ("failure", None)],
        [("claim_id", "C02"), ("subject", "odd"), ("expected", ""), ("got", ""), ("passed", False),
         ("millis", 0.0), ("skipped", True), ("skip_reason", "slow"), ("instances", 0), ("failure", None)],
        [("claim_id", "C04"), ("subject", "formula"), ("expected", "0"), ("got", "1"), ("passed", False),
         ("millis", 2.5), ("skipped", False), ("skip_reason", ""), ("instances", 7), ("failure", ["0110", "8", "0"])],
    ]


def test_provenance_git_names_the_package_work_tree_or_none(monkeypatch):
    from lhc import verify

    argv = ["git", "-C", str(Path(verify.__file__).parent), "rev-parse", "-q", "--verify", "HEAD"]
    try:
        head = subprocess.run(argv, capture_output=True, text=True).stdout.strip() or None
    except OSError:
        head = None
    assert verify.sidecar_payload([])["provenance"]["git"] == head

    def no_git(*args, **kwargs):
        raise FileNotFoundError("git")

    monkeypatch.setattr(subprocess, "run", no_git)
    assert verify.sidecar_payload([])["provenance"]["git"] is None


def test_raising_claim_fails_alone_and_the_rest_still_run(tmp_path, capsys, monkeypatch):
    from lhc import verify

    real = verify.count_transversals

    def boom(cube):
        if cube.n == 2:
            raise ValueError("boom")
        return real(cube)

    monkeypatch.setattr(verify, "count_transversals", boom)
    sidecar = tmp_path / "report.json"
    rc, out, err = run(capsys, "verify", "--claim", "C01", "C05", "--json", str(sidecar))
    assert rc == 1 and err == ""
    rows = [[p.strip() for p in ln.split("|")] for ln in out.splitlines()]
    assert rows[0][:5] == ["C01", "binary baselines", "-", "raised ValueError: boom", "FAIL"]
    assert rows[1][:5] == [
        "C05", "brindled census", "closed = recurrence = enumeration = 1,6,40,240,1456",
        "n=2: 1/1/1; n=3: 6/6/6; n=4: 40/40/40; n=5: 240/240/240; n=6: 1456/1456/1456", "PASS",
    ]
    assert len(rows) == 2
    payload = json.loads(sidecar.read_text())
    assert payload["all_passed"] is False
    c01, c05 = payload["claims"]
    assert (c01["passed"], c01["instances"], c01["failure"]) == (False, 0, [None, "raised ValueError: boom", "no exception"])
    assert (c05["passed"], c05["failure"]) == (True, None)


def test_verify_unknown_claim(tmp_path, capsys):
    rc, _, err = run(capsys, "verify", "--claim", "C99", "--json", str(tmp_path / "r.json"))
    assert rc == 2
    assert "unknown claim" in err


def test_verify_skip_slow_reports_reason(tmp_path, capsys):
    rc, out, _ = run(
        capsys, "verify", "--claim", "C03", "--skip-slow", "--json", str(tmp_path / "r.json")
    )
    assert rc == 0
    assert "SKIP" in out
    assert "skipped:" in out


@pytest.mark.parametrize("command", ["gen", "apply", "verify"])
def test_unwritable_output_is_a_usage_error(tmp_path, capsys, command):
    cube = tmp_path / "c.lhc"
    run(capsys, "gen", "iterated", "--group", "z22", "--n", "2", "--q", "4", "-o", str(cube))
    target = tmp_path / "missing" / "out"
    argv = {
        "gen": ["gen", "iterated", "--group", "z22", "--n", "2", "--q", "4", "-o", str(target)],
        "apply": ["apply", str(cube), "-o", str(target)],
        "verify": ["verify", "--claim", "C01", "--json", str(target)],
    }[command]
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert err.startswith(f"error: cannot write {target}: ")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err
    # verify has printed its report before it writes the sidecar
    assert ("C01" in out) == (command == "verify")


_CORE = ["lhc", "lhc.cli", "lhc.core"]
_FOOTPRINTS = [
    (["validate", "{cube}"], _CORE),
    (["gen", "iterated", "--group", "z4", "--n", "3", "--q", "4"], _CORE + ["lhc.algebra"]),
    (["apply", "{cube}", "--parastrophe", "1,0,2,3"], _CORE + ["lhc.algebra"]),
    (["apply", "{cube}", "--show-counts"], _CORE + ["lhc.algebra", "lhc.engine"]),
    (["gen", "semilinear", "--lambda", "0110"], _CORE + ["lhc.semilinear"]),
    (["quadruples", "--lambda", "0110"], _CORE + ["lhc.semilinear"]),
    (["gen", "compose", "--spec", "{spec}"], _CORE + ["lhc.algebra", "lhc.compspec"]),
    (["classify", "{cube}"], _CORE + ["lhc.algebra", "lhc.semilinear"]),
    (["transversals", "{cube}"], _CORE + ["lhc.engine"]),
]


def test_each_command_imports_only_its_modules(tmp_path, capsys):
    cube = tmp_path / "c.lhc"
    spec = tmp_path / "tree.sexp"
    assert run(capsys, "gen", "iterated", "--group", "z4", "--n", "3", "--q", "4", "-o", str(cube))[0] == 0
    spec.write_text('(op "0 1 2 3 1 0 3 2 2 3 0 1 3 2 1 0" (var 1) (var 2))\n')
    assert run(capsys, "gen", "compose", "--spec", str(spec))[0] == 0
    src = Path(lhc.__file__).resolve().parent.parent
    probe = (
        "import sys, contextlib, io, lhc.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = lhc.cli.main(sys.argv[1:])\n"
        "loaded = sorted(m for m in sys.modules if m == 'lhc' or m.startswith('lhc.'))\n"
        "print(rc, 'dataclasses' in sys.modules, *loaded)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    for argv, expected in _FOOTPRINTS:
        argv = [a.format(cube=cube, spec=spec) for a in argv]
        done = subprocess.run(
            [sys.executable, "-c", probe, *argv], cwd=tmp_path, env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["0", "False"] + sorted(expected), argv

    def sub(parser, name):
        action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return action.choices[name]

    iterated = sub(sub(build_parser(), "gen"), "iterated")
    group = next(a for a in iterated._actions if a.dest == "group")
    assert group.choices == [k.value for k in algebra.GroupKind]
