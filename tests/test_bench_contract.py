"""The benchmark's hooks into the program still resolve, and its known
answers still hold.

``bench/tracing.py`` wraps functions by module and attribute path, and
``bench/jobs.py`` calls library functions by name.  A rename in the program
would otherwise surface only as a crashed benchmark run; here it fails a
test.  The poly workload's jobs must stay the checks of ``poly --check all``,
and the zoo workload's jobs must give the verdicts ``bench/answers.json``
pins: a renamed report line fails here, not only in the benchmark.  Both
files are imported without running anything of the benchmark.
"""

import argparse
import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from invhol import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
jobs = _load("jobs")


@pytest.mark.parametrize("span", sorted(tracing.TRACED))
def test_traced_attribute_exists(span):
    mod, attr, _, _ = tracing.TRACED[span]
    owner = importlib.import_module(f"invhol.{mod}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner), span


@pytest.mark.parametrize("job", sorted(jobs.LIBRARY))
def test_library_function_exists(job):
    module, fn, _ = jobs.LIBRARY[job]
    assert module.__name__.startswith("invhol.")
    assert callable(getattr(module, fn)), job


def test_poly_jobs_are_the_checks_of_check_all():
    """The poly workload times `invhol poly --check all` split one job per check."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    check = next(a for a in sub.choices["poly"]._actions if a.dest == "check")
    assert jobs.POLY_CHECKS == tuple(c for c in check.choices if c != "all")


def test_zoo_jobs_give_the_pinned_verdicts(tmp_path):
    """Each zoo job, run in this process on the catalogue labelling (seed 0,
    variant 0), gives the exit code, counts and per-check verdicts that
    answers.json pins."""
    answers = json.loads((BENCH / "answers.json").read_text())["jobs"]
    jobs.write_inputs("zoo", 0, tmp_path)
    zoo_jobs = jobs.workload_jobs("zoo", 0)
    assert len(zoo_jobs) == 82
    for job in zoo_jobs:
        res = jobs.run_job(job, tmp_path)
        assert "error" not in res, (job.id, res.get("error"))
        want = answers[job.id]
        assert [res[k] for k in ("exit", "counts", "checks")] == [
            want[k] for k in ("exit", "counts", "checks")], job.id
