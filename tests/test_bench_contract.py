"""The benchmark's hooks into the program still resolve, and its known
answers still hold.

``bench/tracing.py`` wraps functions by module and attribute path, and
``bench/jobs.py`` calls library functions by name.  A rename in the program
would otherwise surface only as a crashed benchmark run; here it fails a
test.  The poly workload's jobs must stay the checks of ``poly --check all``,
and every job of the zoo, ladder and poly workloads must give the verdicts
and trace counts ``bench/answers.json`` pins: a renamed report line or a
changed count fails here, not only in the benchmark.  Both files are
imported without running anything of the benchmark.
"""

import argparse
import importlib
import importlib.util
import json
import os
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


VERDICT = ("exit", "counts", "checks")


def _assert_pinned(workload, count, directory, run, keys=VERDICT):
    """Each job of the workload at seed 0, its inputs written to directory
    and run by run(job, directory), gives the values answers.json pins
    under keys."""
    answers = json.loads((BENCH / "answers.json").read_text())["jobs"]
    jobs.write_inputs(workload, 0, directory)
    workload_jobs = jobs.workload_jobs(workload, 0)
    assert len(workload_jobs) == count
    for job in workload_jobs:
        res = run(job, directory)
        assert "error" not in res, (job.id, res.get("error"))
        want = answers[job.id]
        assert [res[k] for k in keys] == [want[k] for k in keys], job.id


def test_zoo_jobs_give_the_pinned_verdicts(tmp_path):
    """Each zoo job, run in this process on the catalogue labelling (seed 0,
    variant 0), gives the exit code, counts and per-check verdicts that
    answers.json pins."""
    _assert_pinned("zoo", 82, tmp_path, jobs.run_job)


def test_poly_jobs_give_the_pinned_verdicts(tmp_path):
    """Each poly job, one check of `poly --check all` at seed 0, gives the
    verdicts answers.json pins: exit 0, and exit 1 for the heap check."""
    _assert_pinned("poly", 6, tmp_path, jobs.run_job)


def _traced_run(job, directory):
    """run_job's result for one job with the trace counters, run traced in a
    forked child so that no wrapper that tracing.install sets stays in this
    process."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(r)
            tracer = tracing.Tracer(job.id)
            tracing.install(tracer)
            res = jobs.run_job(job, directory)
            os.write(w, json.dumps({**res, "trace_counts": dict(tracer.counters)}).encode())
        finally:
            os._exit(0)
    os.close(w)
    with os.fdopen(r) as f:
        data = f.read()
    os.waitpid(pid, 0)
    return json.loads(data)


def test_ladder_jobs_give_the_pinned_verdicts_and_trace_counts(tmp_path):
    """Each ladder job, traced in a forked child, gives the verdict and the
    counts of found maps, pairs and units that answers.json pins."""
    _assert_pinned("ladder", 5, tmp_path, _traced_run, (*VERDICT, "trace_counts"))


def test_zoo_jobs_give_the_pinned_trace_counts(tmp_path):
    """Each zoo job, traced in a forked child, counts the premorphisms,
    pairs, units, quadruples, heap maps and flows answers.json pins."""
    _assert_pinned("zoo", 82, tmp_path, _traced_run, ("trace_counts",))


def test_poly_jobs_give_the_pinned_trace_counts(tmp_path):
    """Each poly job, traced, counts the calls answers.json pins: the endo
    job runs endo_classification_check on its 49 letter maps and the heap
    job on its 16 affine representatives."""
    _assert_pinned("poly", 6, tmp_path, _traced_run, ("trace_counts",))
