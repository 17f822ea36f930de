"""How the command line is parsed.

``cli.main`` parses the common argv, ``COMMAND [POSITIONAL] (--OPTION
VALUE)*``, without argparse, and hands every other argv to
``cli.build_parser()``.  Here argparse's help and usage errors are pinned
byte for byte (files under ``tests/usage``, in the golden reports' format:
the exit code on the first line, then stdout, then stderr after a
``--- stderr ---`` line), the direct parse is compared with argparse on
drawn argv, and every argv the benchmark and the README send is checked to
take the direct parse.  After an intended change to the help or a usage
message, rewrite the pins with

    PYTHONPATH=src python tests/test_cli_parse.py
"""

import contextlib
import importlib.util
import io
import os
import shlex
import subprocess
import sys
import types
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invhol import cli
from invhol.cli import main

ROOT = Path(__file__).resolve().parent.parent
USAGE = Path(__file__).resolve().parent / "usage"

PINS = {
    "help_invhol": ["--help"],
    **{f"help_{cmd}": [cmd, "--help"]
       for cmd in ["verify", "hol", "sha", "flows", "esn", "poly"]},
    "error_no_command": [],
    "error_bogus_command": ["bogus"],
    "error_verify_no_path": ["verify"],
    "error_verify_two_paths": ["verify", "x", "y"],
    "error_cap_size_not_int": ["verify", "x", "--cap-size", "abc"],
    "error_format_choice": ["hol", "x", "--format", "xml"],
    "error_check_choice": ["poly", "--check", "nope"],
}


def _run(argv):
    """Exit code, stdout and stderr of main(argv), which argparse may end by
    raising SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _pin_text(code, out, err):
    return f"exit {code}\n{out}" + (f"--- stderr ---\n{err}" if err else "")


@pytest.mark.parametrize("name", sorted(PINS))
def test_help_and_usage_errors_match_pins(name, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert _pin_text(*_run(PINS[name])) == (USAGE / f"{name}.out").read_text()


PARSER = cli.build_parser()


def _argparse_vars(argv):
    """vars() of argparse's namespace for argv, or None where argparse exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(PARSER.parse_args(argv))
        except SystemExit:
            return None


COMMAND_WORDS = [*cli.COMMANDS, "bogus"]
OPTION_WORDS = [
    *cli.OPTIONS, *cli.POLY_OPTIONS,
    "--cap", "--che", "--format=json", "--seed=2", "--", "-h", "--help",
]
VALUE_WORDS = [
    "0", "2", "17", " 5", "-1", "-3", "", "abc", "text", "json", "xml",
    "arith", "all", "nope", "data/z2.json", "(ab)^-1 a",
]
# values each option takes; the drawn argv mostly use the command's own
# options and their values, so that a fair share of it takes the direct parse
GOOD_VALUES = {"--format": ["text", "json"], "--check": ["arith", "zappa", "all"],
               "--dump": ["g.json", ""]}


@st.composite
def argvs(draw):
    """A command and option/value pairs, then maybe a positional (most often
    right after the command) and a stray word, each put at any place."""
    def mostly(good, words):
        return draw(st.sampled_from(good if draw(st.integers(0, 3)) else words))

    argv = [draw(st.sampled_from(COMMAND_WORDS))]
    own = [*cli.OPTIONS, *(cli.POLY_OPTIONS if argv[0] == "poly" else [])]
    for _ in range(draw(st.integers(0, 4))):
        flag = mostly(own, OPTION_WORDS)
        argv += [flag, mostly(GOOD_VALUES.get(flag, ["1", "3", " 5"]), VALUE_WORDS + OPTION_WORDS)]
    if draw(st.integers(0, 2)):
        place = mostly([1], range(len(argv) + 1))
        argv.insert(place, draw(st.sampled_from(VALUE_WORDS)))
    if not draw(st.integers(0, 2)):
        stray = COMMAND_WORDS + OPTION_WORDS + VALUE_WORDS
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(stray)))
    return argv


@given(argvs())
@settings(max_examples=1000, deadline=None)
def test_direct_parse_agrees_with_argparse(argv):
    """Wherever the direct parse accepts, argparse accepts with equal vars()."""
    fast = cli._parse_common(argv)
    if fast is not None:
        assert vars(fast) == _argparse_vars(argv), argv


def _load_bench_jobs():
    spec = importlib.util.spec_from_file_location("bench_jobs", ROOT / "bench" / "jobs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench_argvs(tmp_path, monkeypatch):
    """Every argv the benchmark's CLI jobs pass to cli.main, at two seeds,
    taken from bench/jobs.py's run_job with the CLI replaced by a recorder."""
    jobs = _load_bench_jobs()
    seen = []
    monkeypatch.setattr(jobs, "cli", types.SimpleNamespace(main=lambda argv: seen.append(argv)))
    for workload in ["zoo", "ladder", "poly"]:
        for seed in [0, 1]:
            for job in jobs.workload_jobs(workload, seed):
                if not job.library:
                    assert "error" not in jobs.run_job(job, str(tmp_path)), job.id
    return seen


def _readme_argvs():
    """The command lines of the README's command-line section."""
    lines = (ROOT / "README.md").read_text().splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("invhol ")]


def test_benchmark_and_readme_argv_take_the_direct_parse(tmp_path, monkeypatch):
    bench = _bench_argvs(tmp_path, monkeypatch)
    readme = _readme_argvs()
    assert len(bench) == 2 * (82 + 2 + 6) and len(readme) == 9
    for argv in bench + readme:
        fast = cli._parse_common(argv)
        assert fast is not None, argv
        assert vars(fast) == _argparse_vars(argv), argv


def test_cli_process_imports_no_argparse():
    """A parsed-directly CLI call loads neither argparse nor the gettext and
    locale modules argparse's messages pull in."""
    code = (
        "import sys\n"
        "from invhol import cli\n"
        "cli.main(['verify', 'data/z2.json', '--format', 'json'])\n"
        "loaded = [m for m in ('argparse', 'gettext', 'locale') if m in sys.modules]\n"
        "print(loaded, file=sys.stderr)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=True)
    assert done.stderr == "[]\n"


def _rewrite():
    os.environ["COLUMNS"] = "80"
    USAGE.mkdir(exist_ok=True)
    for name, argv in sorted(PINS.items()):
        (USAGE / f"{name}.out").write_text(_pin_text(*_run(argv)))
        print(f"wrote {name}.out", file=sys.stderr)


if __name__ == "__main__":
    _rewrite()
