"""invhol benchmark: time-to-verdict on the zoo, ladder and poly workloads.

    python3 bench/run.py --workload zoo|ladder|poly|all --seed N --seconds S --trace 0|1

Closed loop, one client: this process imports the program once, then forks
one process per job, so each job starts from fresh program state as a separate
CLI call does, and no two jobs overlap.  Every verdict is checked against
``bench/answers.json``.  With ``--trace 0`` the job list runs once, and jobs
are tried again, round-robin, while one still fits in ``--seconds``; each try
is scaled to full host speed (``hostspeed.py``), and the last stdout line is a
JSON object with the end-to-end metrics.  With ``--trace 1`` one untraced
round is followed by one traced round, and the JSON object holds the
per-layer metrics; the spans go to ``bench/_out/``.
``--workload all`` runs the three in turn.  The exit code is 1 when any
verdict differs from the known answers.
"""

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "_out"

# the whole run must end well within 180 s; one job may take at most this
DEADLINE_S = 165.0
JOB_LIMIT_S = 120.0
# set-up is timed SETUP_FIRST times before the jobs, then once every
# seconds / SETUP_SPREAD between jobs: the host's speed changes from one
# second to the next, so imports spread over the run vary less between runs
# than imports taken back to back
SETUP_FIRST = 3
SETUP_SPREAD = 9
WORKLOADS = ("zoo", "ladder", "poly")
IMPORT_CODE = (
    "import os, time; {pin}t = time.perf_counter(); import invhol; "
    "print(t, time.perf_counter()); print(invhol.__file__)"
)
# the layers expected to dominate self time; another largest layer is
# reported as a mismatch, not counted as a failed job
EXPECTED_TOP = {
    "zoo": {"holomorph.verify_hol_monoid", "holomorph.verify_interchange",
            "holomorph.verify_mon_hol"},
    "ladder": {"morphisms.enumerate_premorphisms", "heap.enumerate_sha",
               "holomorph.enumerate_holomorph", "holomorph.holomorph_units"},
    "poly": {"polycyclic.verify_zappa"},
}


def fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def import_program():
    if not (SRC / "invhol" / "__init__.py").is_file():
        fail(f"no program source at {SRC / 'invhol'}")
    sys.path.insert(0, str(SRC))
    import invhol

    if Path(invhol.__file__).resolve().parent != SRC / "invhol":
        fail(f"imported invhol from {invhol.__file__}, not from {SRC}")


def _read_until_eof(fd, limit):
    """Read a pipe to EOF; return (bytes, timed_out)."""
    chunks = []
    end = time.monotonic() + limit
    while True:
        left = end - time.monotonic()
        if left <= 0:
            return b"".join(chunks), True
        ready, _, _ = select.select([fd], [], [], left)
        if ready:
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                return b"".join(chunks), False
            chunks.append(chunk)


def _kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def in_child(fn, limit, cpu=None):
    """Run fn() in a forked process group; return (its JSON result, max RSS MB).

    With `cpu` the process runs on that CPU only.
    The result is an error record when the child dies or passes the time
    limit; in the latter case the whole group, process-pool workers
    included, is killed.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(r)
            os.setpgid(0, 0)
            if cpu is not None:
                os.sched_setaffinity(0, {cpu})
            try:
                payload = fn()
            except BaseException:  # a job's SystemExit or crash is its verdict
                payload = {"error": traceback.format_exc()}
            with os.fdopen(w, "wb") as f:
                f.write(json.dumps(payload).encode())
        finally:
            os._exit(0)
    os.close(w)
    try:
        os.setpgid(pid, pid)
    except (ProcessLookupError, PermissionError):
        pass  # the child already set it, or has exited
    try:
        data, timed_out = _read_until_eof(r, limit)
    except BaseException:  # interrupted: end the job before giving up
        _kill_group(pid)
        os.wait4(pid, 0)
        raise
    finally:
        os.close(r)
    if timed_out:
        _kill_group(pid)
    _, status, usage = os.wait4(pid, 0)
    rss_mb = usage.ru_maxrss / 1024.0
    if timed_out:
        return {"error": f"time limit of {limit:.0f} s reached"}, rss_mb
    if status != 0 or not data:
        return {"error": f"job process ended with status {status}"}, rss_mb
    return json.loads(data), rss_mb


def job_payload(job, workdir, traced, variant=0):
    import jobs
    import tracing

    tracer = None
    if traced:
        tracer = tracing.Tracer(job.id)
        tracing.install(tracer)
    res = jobs.run_job(job, workdir, variant)
    if tracer is not None:
        res["spans"] = tracer.spans
        res["trace_counts"] = dict(tracer.counters)
    return res


def verdict_errors(res, expected, traced):
    """Ways in which a job's verdict is missing or differs from the answer."""
    if "error" in res:
        return [res["error"].strip().splitlines()[-1]]
    errs = [
        f"{key}: got {res[key]!r}, expected {expected[key]!r}"
        for key in ("exit", "counts", "checks")
        if res[key] != expected[key]
    ]
    if traced and res["trace_counts"] != expected["trace_counts"]:
        errs.append(
            f"trace counts: got {res['trace_counts']}, expected {expected['trace_counts']}"
        )
    return errs


def measure_setup(runs, importtime, cpu=None):
    """Import of invhol in fresh interpreters, on `cpu` if given.

    Returns the (seconds, start, end) of each import and, with `importtime`,
    its -X importtime rows.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    pin = "" if cpu is None else f"os.sched_setaffinity(0, {{{cpu}}}); "
    cmd = ([sys.executable] + (["-X", "importtime"] if importtime else [])
           + ["-c", IMPORT_CODE.format(pin=pin)])
    tries, rows = [], []
    for _ in range(runs):
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=60, check=True)
        t0, t1, where = proc.stdout.split()
        if Path(where).resolve().parent != SRC / "invhol":
            fail(f"fresh interpreter imported invhol from {where}")
        tries.append((float(t1) - float(t0), float(t0), float(t1)))
        if importtime:
            rows.append(_import_split(proc.stderr))
    return tries, rows


def _import_split(stderr):
    """(numpy, invhol) cumulative import seconds from -X importtime output."""
    cum = {}
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cum[parts[2].strip()] = int(parts[1]) / 1e6
    return cum.get("numpy", 0.0), cum["invhol"]


class Run:
    """What one benchmark run measured."""

    def __init__(self, job_list, answers, cpu):
        self.jobs = job_list
        self.answers = answers
        self.cpu = cpu  # every job but a process-pool one runs on this CPU
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.tries = {j.id: [] for j in job_list}  # (seconds, start, end, variant)
        self.peak_rss_mb = 0.0
        self.traced = []  # (job id, seconds, spans, trace counts)
        self.setup_tries = []  # (seconds, start, end)
        self.setup_every = None
        self.next_setup = None  # when to time the next import; None: never

    def time_setup(self, every):
        """Time set-up now, and again between jobs once `every` seconds passed."""
        self.setup_tries += measure_setup(SETUP_FIRST, False, self.cpu)[0]
        self.setup_every = every
        self.next_setup = time.monotonic() + every

    def longest(self, job):
        return max(t[0] for t in self.tries[job.id])

    def run(self, job, workdir, traced, deadline):
        """Run one job and check its verdict; return its time-to-verdict."""
        import jobs

        self.attempted += 1
        # untraced tries cycle through the input labellings
        variant = 0
        if not traced and job.relabelled:
            variant = len(self.tries[job.id]) % jobs.VARIANTS
        left = deadline - time.monotonic()
        if left <= 0:
            res, rss = {"error": "run deadline reached before the job started"}, 0.0
        else:
            res, rss = in_child(lambda: job_payload(job, workdir, traced, variant),
                                min(JOB_LIMIT_S, left), None if job.pool else self.cpu)
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        errs = verdict_errors(res, self.answers[job.id], traced)
        if errs:
            self.failed += 1
            self.problems.append(f"{job.id}{' (traced)' if traced else ''}: {errs[0]}")
        seconds = res.get("seconds", 0.0)
        if traced:
            self.traced.append((job.id, seconds, res.get("spans", []),
                                res.get("trace_counts", {})))
        else:
            self.tries[job.id].append(
                (seconds, res.get("start", 0.0), res.get("end", 0.0), variant))
        if self.next_setup is not None and time.monotonic() >= self.next_setup:
            self.setup_tries += measure_setup(1, False, self.cpu)[0]
            self.next_setup = time.monotonic() + self.setup_every
        return seconds

    def round(self, workdir, traced, deadline):
        """Run every job once; return the summed time-to-verdict."""
        return sum(self.run(job, workdir, traced, deadline) for job in self.jobs)

    def repeat(self, workdir, until, deadline):
        """Try jobs again while one still fits before `until`; return how many.

        The next try goes first to a job that has a labelling of its input
        not yet tried, since the labelling changes the time of a search by
        up to a factor of two, while a try scaled to full speed repeats to
        within a few percent; then to a job with the fewest tries, and the
        shortest of those.  No job starts that would end the run late by its
        longest try so far.
        """
        import jobs

        def order(job):
            n = len(self.tries[job.id])
            return (not (job.relabelled and n < jobs.VARIANTS), n, self.longest(job))

        more = 0
        while True:
            left = until - time.monotonic()
            fitting = [j for j in self.jobs if self.longest(j) <= left]
            if not fitting:
                return more
            job = min(fitting, key=order)
            self.run(job, workdir, False, deadline)
            more += 1


def end_to_end(run, speed):
    """The bounded metrics, and the measured figures they were scaled from.

    Each try is scaled to full host speed by the probes of the CPUs it ran
    on.  A job counts with the mean, over the labellings it ran on, of the
    median of its tries on each.
    """
    everywhere = speed.cpus
    verdicts, measured = [], []
    for job in run.jobs:
        cpus = everywhere if job.pool else [run.cpu]
        tries = run.tries[job.id]
        scaled = {}
        for s, a, b, variant in tries:
            scaled.setdefault(variant, []).append(speed.scale(s, cpus, a, b))
        verdicts.append(statistics.fmean(statistics.median(v) for v in scaled.values()))
        measured.append(statistics.median(t[0] for t in tries))
        print(f"job {job.id}: measured " + " ".join(f"{t[0]:.3f}" for t in tries) + " s; "
              + "; ".join(f"labelling {v} at full speed " + " ".join(f"{x:.3f}" for x in xs)
                          for v, xs in sorted(scaled.items())) + " s")
    setup = [speed.scale(s, [run.cpu], a, b) for s, a, b in run.setup_tries]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (sum(verdicts), "s"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
    }
    printed = {
        "verdict_max_s": max(verdicts),
        "measured_setup_s": statistics.median(s for s, _, _ in run.setup_tries),
        "measured_wall_s": sum(measured),
        "probe_fastest_ms": speed.fastest(0.05) * 1e3,
        "host_slowdown": statistics.median(
            speed.slowdown([run.cpu], t[1], t[2]) for ts in run.tries.values() for t in ts),
    }
    return metrics, printed


def per_layer(run, untraced_wall, import_rows):
    import tracing

    totals = {name: [0.0, 0] for name in tracing.TRACED}
    counters = dict.fromkeys(tracing.COUNTERS, 0)
    uncovered = traced_wall = 0.0
    for _, seconds, spans, counts in run.traced:
        uncovered += seconds - tracing.self_times(spans, totals)
        traced_wall += seconds
        for k, v in counts.items():
            counters[k] += v
    metrics = {}
    for name, (secs, calls) in totals.items():
        metrics[f"{name}_s"] = (secs, "s")
        metrics[f"{name}_calls"] = (calls, "count")
    metrics[f"{tracing.UNCOVERED}_s"] = (uncovered, "s")
    for name, value in counters.items():
        metrics[name] = (value, "count")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    metrics["import.numpy_s"] = (statistics.median(r[0] for r in import_rows), "s")
    metrics["import.invhol_own_s"] = (statistics.median(r[1] - r[0] for r in import_rows), "s")
    top = max(totals, key=lambda n: totals[n][0])
    return metrics, top


def write_spans(workload, seed, run):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-seed{seed}.json"
    with open(path, "w") as f:
        json.dump(
            {"workload": workload, "seed": seed,
             "fields": ["name", "start", "end", "parent", "job"],
             "jobs": [{"id": j, "seconds": s, "spans": sp, "counts": c}
                      for j, s, sp, c in run.traced]},
            f,
        )
    return path


def run_all(args):
    """Each workload in its own run; a combined JSON line at the end."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", f"{args.seconds:g}", "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=200,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode not in (0, 1) or not lines:
            fail(f"{workload} run ended with code {proc.returncode}: {proc.stderr}")
        res = json.loads(lines[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    # a terminated run still removes its inputs and ends its job process
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.workload == "all":
        return run_all(args)
    deadline = time.monotonic() + DEADLINE_S

    import_program()
    import numpy

    import hostspeed
    import jobs

    answers = json.loads((BENCH / "answers.json").read_text())["jobs"]
    job_list = jobs.workload_jobs(args.workload, args.seed)
    missing = [j.id for j in job_list if j.id not in answers]
    if missing:
        fail(f"no known answer for {missing}")

    print(f"invhol benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"machine: python {platform.python_version()}, numpy {numpy.__version__}, "
          f"nproc {len(os.sched_getaffinity(0))}")

    cpus = sorted(os.sched_getaffinity(0))
    run = Run(job_list, answers, cpus[0])
    speed = hostspeed.HostSpeed(cpus)
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="inputs-", dir=OUT)
    try:
        if args.trace:
            import_rows = measure_setup(SETUP_FIRST, True)[1]
        else:
            speed.start()
            run.time_setup(args.seconds / SETUP_SPREAD)
        made, _ = in_child(lambda: jobs.write_inputs(args.workload, args.seed, workdir),
                           JOB_LIMIT_S)
        if made is not None and "error" in made:
            fail(f"could not write the inputs: {made['error']}")
        start = time.monotonic()
        untraced_wall = run.round(workdir, False, deadline)
        if args.trace:
            run.round(workdir, True, deadline)
        else:
            more = run.repeat(workdir, start + args.seconds, deadline)
    finally:
        speed.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"jobs: {len(job_list)} per round; 1 untraced round + "
          f"{'1 traced round' if args.trace else f'{more} more untraced tries'}; "
          f"{run.attempted} attempted, {run.failed} failed")
    for line in run.problems:
        print(f"WRONG VERDICT {line}")
    print(f"failed_frac {run.failed / run.attempted:.4f} ({run.failed}/{run.attempted})")

    if args.trace:
        metrics, top = per_layer(run, untraced_wall, import_rows)
        verdict = "as expected" if top in EXPECTED_TOP[args.workload] else (
            f"MISMATCH, expected one of {sorted(EXPECTED_TOP[args.workload])}")
        print(f"largest self-time layer: {top} ({metrics[top + '_s'][0]:.4f} s), {verdict}")
        print(f"spans written to {write_spans(args.workload, args.seed, run).relative_to(ROOT)}")
    else:
        metrics, printed = end_to_end(run, speed)
        # printed, not bounded: verdict_max_s is one job, the others unscaled
        for name, value in printed.items():
            print(f"{name} {value:.6g}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
