"""Acceptance gate: every claim of the verification suite, run at full size.

Each claim prints its own report line; the suite fails if any claim does.
All targets are exact integer equalities or inequalities, so there are no
tolerances to calibrate.
"""

from __future__ import annotations

import random

import pytest

from lhc import algebra, fixtures, verify
from lhc.cli import main
from lhc.core import parse_lhc, serialize_lhc
from lhc.engine import count_transversals, enumerate_transversals, verify_transversal
from lhc.randgen import random_quasigroup
from lhc.semilinear import gen_semilinear, parse_lambda
from lhc.verify import CLAIM_BUDGETS_MS, CLAIM_IDS, format_report, run_claims


@pytest.mark.parametrize("claim_id", CLAIM_IDS)
def test_claim(claim_id):
    results = run_claims([claim_id])
    assert len(results) == 1
    result = results[0]
    print(format_report(results).splitlines()[0])
    assert not result.skipped
    assert result.passed, f"{claim_id}: expected {result.expected}, got {result.got}, first failure {result.failure}"
    assert result.instances > 0 and result.failure is None
    budget = CLAIM_BUDGETS_MS.get(claim_id)
    if budget is not None:
        assert result.millis <= budget, f"{claim_id} took {result.millis:.0f}ms, budget {budget}ms"


def test_corrupted_fixture_fails_its_claim(monkeypatch, tmp_path, capsys):
    """Fault injection: swapping the shipped cubes must turn C11 red and
    make the verify command exit nonzero."""
    real_load = fixtures.load_fixture

    def swapped(name):
        other = {
            fixtures.EXAMPLE_CUBE_1: fixtures.EXAMPLE_CUBE_2,
            fixtures.EXAMPLE_CUBE_2: fixtures.EXAMPLE_CUBE_1,
        }[name]
        return real_load(other)

    monkeypatch.setattr(fixtures, "load_fixture", swapped)
    results = run_claims(["C11"])
    assert not results[0].passed
    assert results[0].failure == (serialize_lhc(real_load(fixtures.EXAMPLE_CUBE_2)), "96", "256")
    rc = main(["verify", "--claim", "C11", "--json", str(tmp_path / "r.json")])
    capsys.readouterr()
    assert rc == 1


def test_skipped_claims_are_reported_not_silent():
    results = run_claims(["C03"], include_slow=False)
    assert results[0].skipped
    assert "skip" in results[0].skip_reason.lower()


def _counting_checks(monkeypatch):
    """Count every check the claims make, through the recorder's own call."""
    calls = []
    record = verify._Recorder.__call__

    def counted(self, *args):
        calls.append(args)
        record(self, *args)

    monkeypatch.setattr(verify._Recorder, "__call__", counted)
    return calls


def test_formula_failure_is_named_and_replays(monkeypatch):
    """A formula route wrong on the arity-3 lambdas with z = 000 oriented 1:
    C04 fails, the sidecar names a lambda, and that lambda, parsed back from
    its bits, shows the same mismatch under the same patch."""
    real = verify.count_transversals_formula

    def wrong(lam):
        return real(lam) + (lam.n == 3 and lam.bits[0])

    monkeypatch.setattr(verify, "count_transversals_formula", wrong)
    calls = _counting_checks(monkeypatch)
    (result,) = run_claims(["C04"])
    assert not result.passed
    assert result.got == "128 mismatches over 1272"
    assert result.instances == len(calls) == 1273
    payload = verify.sidecar_payload([result])
    bits, got, want = payload["claims"][0]["failure"]
    lam = parse_lambda(bits)
    assert lam.n == 3 and lam.bits[0] == 1
    replayed = wrong(lam), count_transversals(gen_semilinear(lam))
    assert replayed[0] != replayed[1]
    assert (got, want) == tuple(map(str, replayed))


def test_existence_failure_is_named_and_replays(monkeypatch):
    """An enumerator that finds nothing on the arity-4 semilinear cubes whose
    lambda is 1 at z = 0000 (their first cell holds 1): C07 fails, the sidecar
    names such a lambda, and the cube built from its bits has a transversal
    the real enumerator finds and the patched one misses."""

    def blind(cube, limit=None):
        if cube.values[0] == 1:
            return iter(())
        return enumerate_transversals(cube, limit)

    monkeypatch.setattr(verify, "enumerate_transversals", blind)
    calls = _counting_checks(monkeypatch)
    (result,) = run_claims(["C07"])
    assert not result.passed
    assert result.instances == len(calls) == 3098
    bits, got, want = verify.sidecar_payload([result])["claims"][0]["failure"]
    lam = parse_lambda(bits)
    assert lam.n == 4 and lam.bits[0] == 1
    # the claim read "no transversal" where the criterion says there is one
    assert (got, want) == ("True", "False")
    cube = gen_semilinear(lam)
    first = next(enumerate_transversals(cube), None)
    assert first is not None and verify_transversal(cube, first)
    assert next(blind(cube), None) is None


def test_transform_failure_is_named_and_replays_with_lhc_apply(monkeypatch, tmp_path, capsys):
    """A transform route that returns an unrelated cube for parastrophe-only
    specs: C12 fails, the sidecar names the cube and the transform as an .lhc
    file whose comment holds lhc apply's flags, and lhc apply of that file
    with those flags shows the mismatch under the same patch."""
    real = algebra.apply_transform

    def wrong(cube, spec):
        if spec.isotopy is None:
            return random_quasigroup(cube.n, cube.q, random.Random(cube.values))
        return real(cube, spec)

    monkeypatch.setattr(verify, "apply_transform", wrong)
    monkeypatch.setattr(algebra, "apply_transform", wrong)
    calls = _counting_checks(monkeypatch)
    (result,) = run_claims(["C12"])
    assert not result.passed and result.got == "ok=False"
    assert result.instances == len(calls) == 200
    text, got, want = verify.sidecar_payload([result])["claims"][0]["failure"]
    comment, _, cube_text = text.partition("\n")
    assert comment.startswith("# lhc apply --parastrophe ")
    assert serialize_lhc(parse_lhc(text)) == cube_text
    path = tmp_path / "instance.lhc"
    path.write_text(text)
    argv = ["apply", str(path), *comment.split()[3:], "--show-counts", "-o", str(tmp_path / "moved.lhc")]
    assert main(argv) == 0
    before, after = (line.rsplit(" ", 1)[1] for line in capsys.readouterr().out.splitlines())
    assert (after, before) == (got, want) and got != want
