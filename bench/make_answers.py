"""Regenerate bench/answers.json, the known answers every benchmark run checks.

    python3 bench/make_answers.py

Each job of every workload runs traced, as the benchmark runs it, on seeds 0,
1 and 2, each in every labelling of its input (the first of seed 0 is the
catalogue's; S4 is never relabelled and poly has no input); all the verdicts
must agree, since counts and check outcomes do not depend on labelling.  The
counts are then checked against anchors fixed below and, for zoo structures
of at most 7 elements, against the brute-force oracles of ``tests/oracles.py``,
so that the answers do not rest on the code under test alone.
"""

import json
import platform
import shutil
import sys
import tempfile

import run

ANCHORS = {
    "hol/I2": {"premorphisms": 20, "holomorph_pairs": 39, "holomorph_units": 4},
    "sha/I2": {"heap_monoid_size": 23},
    "hol/S3": {"premorphisms": 10, "holomorph_pairs": 60, "holomorph_units": 36},
    "sha/S3": {"heap_monoid_size": 60},
    "hol/V4": {"premorphisms": 16, "holomorph_pairs": 64, "holomorph_units": 24},
    "sha/V4": {"heap_monoid_size": 64},
    "esn/I4": {"arrows": 209, "identities": 16},
    "enumerate_premorphisms/I2xchain2": {"premorphisms": 1130},
    "enumerate_sha/I3": {"heap_monoid_size": 301},
    "holomorph_units/S4": {"holomorph_units": 576},
}
TRACE_ANCHORS = {
    "holomorph_units/S4": {
        "morphisms.premorphisms_found": 58,
        "holomorph.pairs_found": 1392,
        "holomorph.units_found": 576,
    },
}
ORACLE_MAX_SIZE = 7


def verdicts(workload, seed):
    import jobs

    out = {}
    workdir = tempfile.mkdtemp(prefix="answers-", dir=run.OUT)
    try:
        run.in_child(lambda: jobs.write_inputs(workload, seed, workdir), run.JOB_LIMIT_S)
        for job in jobs.workload_jobs(workload, seed):
            for variant in range(jobs.VARIANTS if job.relabelled else 1):
                res, _ = run.in_child(lambda: run.job_payload(job, workdir, True, variant), 600)
                if "error" in res:
                    sys.exit(f"{job.id} (seed {seed}, labelling {variant}): {res['error']}")
                got = {k: res[k] for k in ("exit", "counts", "checks", "trace_counts")}
                if out.setdefault(job.id, got) != got:
                    sys.exit(f"{job.id}: seed {seed} labelling {variant} verdict differs "
                             f"from labelling 0")
                print(f"  {job.id} labelling {variant}: {res['seconds']:.2f} s", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return out


def check_anchors(answers):
    for job_id, counts in ANCHORS.items():
        got = {k: answers[job_id]["counts"].get(k) for k in counts}
        if got != counts:
            sys.exit(f"{job_id}: counts {got} differ from the anchor {counts}")
    for job_id, counts in TRACE_ANCHORS.items():
        got = {k: answers[job_id]["trace_counts"].get(k) for k in counts}
        if got != counts:
            sys.exit(f"{job_id}: trace counts {got} differ from the anchor {counts}")
    poly = {k: v for k, v in answers.items() if k.startswith("poly/")}
    exits = {k: v["exit"] for k, v in poly.items() if v["exit"] != 0}
    failing = [name for v in poly.values() for sec in v["checks"] for name, ok in sec if not ok]
    if exits != {"poly/heap": 1} or failing != ["constant_pair_zero_iff_w_eq_s_eq_t"]:
        sys.exit(f"poly: expected exit 1 on poly/heap only, with the single 8d failure; "
                 f"got non-zero exits {exits}, failing {failing}")


def check_oracles(answers):
    """Cross-check zoo counts of small structures by brute force."""
    sys.path.insert(0, str(run.ROOT / "tests"))
    import oracles
    from invhol import catalog

    for name, S in catalog.standard_examples().items():
        if S.size > ORACLE_MAX_SIZE:
            continue
        hol = answers[f"hol/{name}"]["counts"]
        sha = answers[f"sha/{name}"]["counts"]
        prems = oracles.premorphisms_by_filter(S)
        heaps = oracles.ordered_heap_maps_by_filter(S)
        bijective = [t for t in heaps if len(set(t)) == S.size]
        expect = {
            "premorphisms": (hol["premorphisms"], len(prems)),
            "heap_monoid_size": (sha["heap_monoid_size"], len(heaps)),
            "bijective_heap_maps": (sha["bijective_heap_maps"], len(bijective)),
        }
        if len(S.idempotents) == 1:  # a group: Hol(G) has |G| |Aut(G)| units
            expect["holomorph_units"] = (
                hol["holomorph_units"], S.size * len(oracles.automorphisms_by_filter(S)))
        for key, (got, brute) in expect.items():
            if got != brute:
                sys.exit(f"{name}: {key} is {got}, brute force gives {brute}")
        print(f"  oracles agree on {name} ({S.size} elements)", flush=True)


def main():
    run.import_program()
    import numpy

    run.OUT.mkdir(exist_ok=True)
    answers = {}
    for workload in run.WORKLOADS:
        print(f"{workload}, seed 0", flush=True)
        first = verdicts(workload, 0)
        for seed in (1, 2):
            print(f"{workload}, seed {seed}", flush=True)
            other = verdicts(workload, seed)
            for job_id, v in first.items():
                if other[job_id] != v:
                    sys.exit(f"{job_id}: seed {seed} verdict differs from seed 0")
        answers.update(first)
    check_anchors(answers)
    check_oracles(answers)
    doc = {
        "generated_with": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "seeds": [0, 1, 2],
        },
        "jobs": answers,
    }
    (run.BENCH / "answers.json").write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {len(answers)} known answers")


if __name__ == "__main__":
    main()
