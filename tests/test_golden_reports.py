"""Pinned CLI reports: stdout and exit code, byte for byte, in both formats.

Each case's golden file holds the exit code on its first line and the exact
stdout after it.  The corrupted groupoid is I2's ordered groupoid with one
mirrored order pair removed, the composite of arrows 4 and 6 set to 4, and
arrow 6 put below identity 4; it fails seven axiom lines, so their witness
text is pinned too.  After an intended report change, rewrite the files with

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import os
import sys
from pathlib import Path

import pytest

from invhol.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

TABLES = ["chain2", "clifford4", "i2", "z2", "z3"]
# the zoo's largest holomorphs (S3: 60 pairs, V4: 64), from catalog.standard_examples()
LARGE = ["s3", "v4"]
POLY_CHECKS = ["arith", "bicyclic", "functors", "endo", "heap"]
BROKEN = ["nonassociative", "two_inverses", "noncommuting_idempotents"]


def _cases():
    cases = {}
    for fmt in ["text", "json"]:
        for cmd in ["verify", "hol", "sha", "esn", "flows"]:
            for t in TABLES:
                cases[f"{cmd}_{t}_{fmt}"] = [cmd, f"data/{t}.json", "--format", fmt]
        for cmd in ["hol", "sha"]:
            for t in LARGE:
                cases[f"{cmd}_{t}_{fmt}"] = [cmd, f"tests/golden/{t}.json", "--format", fmt]
        for check in POLY_CHECKS:
            cases[f"poly_{check}_{fmt}"] = [
                "poly", "--check", check, "--maxlen", "2", "--format", fmt
            ]
        # the twisted-product check, on a short window and on one letter
        cases[f"poly_zappa_maxlen2_{fmt}"] = [
            "poly", "--check", "zappa", "--maxlen", "2", "--format", fmt
        ]
        cases[f"poly_zappa_alphabet1_{fmt}"] = [
            "poly", "--check", "zappa", "--alphabet", "1", "--format", fmt
        ]
        # the top rung of the validation and ESN ladder below I4
        for cmd in ["verify", "esn"]:
            cases[f"{cmd}_i3_{fmt}"] = [cmd, "tests/golden/i3.json", "--format", fmt]
        # tables the constructor rejects: I2 with one product changed, the
        # two-element left-zero band, and a right-zero band with an identity
        # adjoined, whose idempotents e, f do not commute (ef = f, fe = e); in
        # a regular semigroup that shows first as an element with two inverses
        for broken in BROKEN:
            cases[f"verify_broken_{broken}_{fmt}"] = [
                "verify", f"tests/golden/broken_{broken}.json", "--format", fmt
            ]
        # three letters: the letter images past 'b' are padded with the
        # letters; the zappa sample map reaches them on any window
        cases[f"poly_zappa_alphabet3_{fmt}"] = [
            "poly", "--check", "zappa", "--alphabet", "3", "--maxlen", "1",
            "--samples", "1", "--format", fmt
        ]
        cases[f"poly_heap_alphabet3_{fmt}"] = [
            "poly", "--check", "heap", "--alphabet", "3", "--maxlen", "1", "--format", fmt
        ]
        cases[f"verify_corrupt_groupoid_{fmt}"] = [
            "verify", "tests/golden/corrupt_i2_groupoid.json", "--format", fmt
        ]
        cases[f"hol_i2_jobs2_{fmt}"] = ["hol", "data/i2.json", "--jobs", "2", "--format", fmt]
        for cmd in ["hol", "sha"]:
            cases[f"{cmd}_i2_budget150_{fmt}"] = [
                cmd, "data/i2.json", "--budget", "150", "--format", fmt
            ]
        # I2 has 7 elements and 8 flows: the table loads, the flow search stops
        cases[f"flows_i2_cap7_{fmt}"] = [
            "flows", "data/i2.json", "--cap-size", "7", "--format", fmt
        ]
    return cases


CASES = _cases()


def _golden_text(code, out):
    return f"exit {code}\n{out}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    code = main(CASES[name])
    out = capsys.readouterr().out
    want = (GOLDEN / f"{name}.out").read_text()
    assert _golden_text(code, out) == want


def _rewrite():
    import contextlib
    import io

    os.chdir(ROOT)
    for name, argv in sorted(CASES.items()):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        (GOLDEN / f"{name}.out").write_text(_golden_text(code, buf.getvalue()))
        print(f"wrote {name}.out (exit {code})", file=sys.stderr)


if __name__ == "__main__":
    _rewrite()
