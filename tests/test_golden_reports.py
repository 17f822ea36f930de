"""Pinned CLI reports: stdout, stderr and exit code, byte for byte, in both
formats.

Each case's golden file holds the exit code on its first line and the exact
stdout after it; where the run writes to stderr, a ``--- stderr ---`` line
follows with the exact stderr after it.  The corrupted groupoid is I2's ordered groupoid with one
mirrored order pair removed, the composite of arrows 4 and 6 set to 4, and
arrow 6 put below identity 4; it fails seven axiom lines, so their witness
text is pinned too.  Tables the constructor rejects and a groupoid missing a
composite pin the exit and error line of a structurally invalid input.  The ``--dump`` files of ``hol`` and ``sha`` are pinned
byte for byte as ``dump_<cmd>_<table>.json``.  After an intended report
change, rewrite the files with

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
POLY_EXPRESSIONS = [
    ("zero_product", "(ab)^-1 a * b^-1 1", "2"),
    ("juxtaposed", "a b", "2"),
    ("idempotent", "a^-1 a", "2"),
    ("mixed_products", "(ab)^-1 b * (b)^-1 ab a", "2"),
    ("nested_inverse", "((b a)^-1)^-1 * a^-1 b", "2"),
    ("identity", "1", "2"),
    ("three_letters", "c^-1 cab*(b)^-1 (ca)^-1 c", "3"),
    ("one_letter", "aa^-1 a * (a a)^-1 aaa", "1"),
    ("err_unclosed", "(ab", "2"),
    ("err_dangling_star", "a *", "2"),
    ("err_blank", "   ", "2"),
    ("err_empty", "", "2"),
    ("err_close_first", "a) b", "2"),
    ("err_leading_star", "* a", "2"),
    ("err_double_inverse", "a ^-1 ^-1", "2"),
    ("err_empty_parens", "a ()", "2"),
    ("err_letter_outside_alphabet", "ab c", "2"),
    ("err_bad_exponent", "a^-2", "2"),
]


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
        # the default window: on one letter the endo sweep fails (a -> empty
        # word preserves meets but is not injective) and so does the heap
        # check's affine line; on three letters the endo and functor sweeps
        for check, alphabet in [("endo", "1"), ("heap", "1"), ("endo", "3"), ("functors", "3")]:
            cases[f"poly_{check}_alphabet{alphabet}_{fmt}"] = [
                "poly", "--check", check, "--alphabet", alphabet, "--format", fmt
            ]
        cases[f"verify_corrupt_groupoid_{fmt}"] = [
            "verify", "tests/golden/corrupt_i2_groupoid.json", "--format", fmt
        ]
        # a table the constructor rejects is a usage error outside verify
        for cmd in ["hol", "sha", "esn", "flows"]:
            for broken in ["nonassociative", "two_inverses"]:
                cases[f"{cmd}_broken_{broken}_{fmt}"] = [
                    cmd, f"tests/golden/broken_{broken}.json", "--format", fmt
                ]
        # two arrows on one identity with the composite of arrow 1 with itself
        # missing: the associativity line names the triple the sweep flags
        cases[f"verify_missing_composite_groupoid_{fmt}"] = [
            "verify", "tests/golden/missing_composite_groupoid.json", "--format", fmt
        ]
        cases[f"hol_i2_jobs2_{fmt}"] = ["hol", "data/i2.json", "--jobs", "2", "--format", fmt]
        # I2's premorphism search takes 133 nodes and its heap search 102:
        # both fit 150, and at 120 the premorphism search stops
        for cmd in ["hol", "sha"]:
            for budget in ["120", "150"]:
                cases[f"{cmd}_i2_budget{budget}_{fmt}"] = [
                    cmd, "data/i2.json", "--budget", budget, "--format", fmt
                ]
        # I2 has 7 elements and 8 flows: the table loads, the flow search stops
        cases[f"flows_i2_cap7_{fmt}"] = [
            "flows", "data/i2.json", "--cap-size", "7", "--format", fmt
        ]
        # the cap also bounds the holomorph pairs: I2's 7 elements and 40
        # premorphisms load, its 39 pairs do not
        cases[f"hol_i2_cap20_{fmt}"] = [
            "hol", "data/i2.json", "--cap-size", "20", "--format", fmt
        ]
        # I3's 301 heap maps against its 191 premorphisms' compressed pairs
        cases[f"sha_i3_{fmt}"] = ["sha", "tests/golden/i3.json", "--format", fmt]
        # I3's 34,992 flows over four components, decided component by component
        cases[f"flows_i3_cap100000_{fmt}"] = [
            "flows", "tests/golden/i3.json", "--cap-size", "100000", "--format", fmt
        ]
        # expressions: valid ones print their value, malformed ones exit 2
        # with one error line, one case per parser message at least
        for label, expr, alphabet in POLY_EXPRESSIONS:
            cases[f"poly_expr_{label}_{fmt}"] = [
                "poly", expr, "--alphabet", alphabet, "--format", fmt
            ]
    return cases


CASES = _cases()
DUMPS = {
    f"{cmd}_{t}": [cmd, path]
    for cmd in ["hol", "sha"]
    for t, path in [("i2", "data/i2.json"), ("s3", "tests/golden/s3.json")]
}


def _golden_text(code, out, err):
    return f"exit {code}\n{out}" + (f"--- stderr ---\n{err}" if err else "")


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    code = main(CASES[name])
    captured = capsys.readouterr()
    want = (GOLDEN / f"{name}.out").read_text()
    assert _golden_text(code, captured.out, captured.err) == want


@pytest.mark.parametrize("name", sorted(DUMPS))
def test_dump_matches_golden(name, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(ROOT)
    dump = tmp_path / "dump.json"
    assert main([*DUMPS[name], "--dump", str(dump)]) == 0
    capsys.readouterr()
    assert dump.read_bytes() == (GOLDEN / f"dump_{name}.json").read_bytes()


def _rewrite():
    import contextlib
    import io

    os.chdir(ROOT)
    for name, argv in sorted(CASES.items()):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        (GOLDEN / f"{name}.out").write_text(_golden_text(code, out.getvalue(), err.getvalue()))
        print(f"wrote {name}.out (exit {code})", file=sys.stderr)
    for name, argv in sorted(DUMPS.items()):
        with contextlib.redirect_stdout(io.StringIO()):
            main([*argv, "--dump", str(GOLDEN / f"dump_{name}.json")])
        print(f"wrote dump_{name}.json", file=sys.stderr)


if __name__ == "__main__":
    _rewrite()
