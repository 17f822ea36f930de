"""Spans around calls into the program's public functions, from outside it.

``install`` replaces each traced function, wherever a module of the program
holds a reference to it, by a wrapper that records one span per call:
(name, start, end, parent span, job id).  It is only ever called in a
forked job process, so the benchmark process and the untraced runs keep the
original functions.  Spans stay in memory and ``run.py`` writes them out at
the end.
"""

import sys
import time
from collections import Counter


def _quadruples(rep):
    for c in rep.checks:
        if c.name == "interchange_law" and c.detail:
            return int(c.detail.split()[0])
    return 0


# span name -> (module, attribute path, counter name, counter value)
TRACED = {
    "io.read_semigroup": ("io", "read_semigroup", None, None),
    "core.natural_order": ("core", "NaturalOrder.__init__", None, None),
    "core.verify_semigroup_properties": ("core", "verify_semigroup_properties", None, None),
    "morphisms.enumerate_premorphisms": (
        "morphisms", "enumerate_premorphisms", "morphisms.premorphisms_found", len),
    "morphisms.verify_premorphism_laws": ("morphisms", "verify_premorphism_laws", None, None),
    "holomorph.enumerate_holomorph": (
        "holomorph", "enumerate_holomorph", "holomorph.pairs_found", len),
    "holomorph.holomorph_units": ("holomorph", "holomorph_units", "holomorph.units_found", len),
    "holomorph.verify_hol_monoid": ("holomorph", "verify_hol_monoid", None, None),
    "holomorph.verify_interchange": (
        "holomorph", "verify_interchange", "holomorph.quadruples_checked", _quadruples),
    "holomorph.verify_mon_hol": ("holomorph", "verify_mon_hol", None, None),
    "heap.enumerate_sha": ("heap", "enumerate_sha", "heap.sha_found", len),
    "heap.verify_sha_embedding": ("heap", "verify_sha_embedding", None, None),
    "heap.verify_sha_monoid_iso": ("heap", "verify_sha_monoid_iso", None, None),
    "groupoid.esn_forward": ("groupoid", "esn_forward", None, None),
    "groupoid.verify_ordered_groupoid": ("groupoid", "verify_ordered_groupoid", None, None),
    "groupoid.esn_back": ("groupoid", "esn_back", None, None),
    "groupoid.enumerate_flows": ("groupoid", "enumerate_flows", "groupoid.flows_found", len),
    "groupoid.ordered_flows": ("groupoid", "ordered_flows", None, None),
    "groupoid.check_flow_monoid_structure": (
        "groupoid", "check_flow_monoid_structure", None, None),
    "polycyclic.verify_poly_window": ("polycyclic", "verify_poly_window", None, None),
    "polycyclic.verify_bicyclic": ("polycyclic", "verify_bicyclic", None, None),
    "polycyclic.bicyclic_hol_check": ("polycyclic", "bicyclic_hol_check", None, None),
    "polycyclic.premorphism_ideal_check": ("polycyclic", "premorphism_ideal_check", None, None),
    "polycyclic.verify_zappa": ("polycyclic", "verify_zappa", None, None),
    "polycyclic.endo_classification_check": (
        "polycyclic", "endo_classification_check", "polycyclic.endo_maps_checked",
        lambda result: 1),
    "polycyclic.heap_type_check_polycyclic": (
        "polycyclic", "heap_type_check_polycyclic", None, None),
    "report.render": ("cli", "Output.render", None, None),
}
COUNTERS = sorted({spec[2] for spec in TRACED.values() if spec[2]})
# job time that no span covers: argument parsing and the CLI's own glue
UNCOVERED = "job.uncovered"


class Tracer:
    """In-memory span and counter store for one job process."""

    def __init__(self, job_id):
        self.job_id = job_id
        self.spans = []
        self.stack = []
        self.counters = Counter()

    def wrap(self, name, fn, counter, value):
        def traced(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else None
            self.stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[sid] = [name, start, end, parent, self.job_id]
            if counter:
                self.counters[counter] += value(result)
            return result

        return traced


def install(tracer):
    """Swap every traced function for its span-recording wrapper."""
    modules = [m for k, m in sys.modules.items() if k == "invhol" or k.startswith("invhol.")]
    for name, (mod, attr, counter, value) in TRACED.items():
        owner = sys.modules[f"invhol.{mod}"]
        if "." in attr:
            cls, meth = attr.split(".")
            klass = getattr(owner, cls)
            setattr(klass, meth, tracer.wrap(name, getattr(klass, meth), counter, value))
            continue
        orig = getattr(owner, attr)
        wrapped = tracer.wrap(name, orig, counter, value)
        for m in modules:
            for key, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, key, wrapped)


def self_times(spans, totals):
    """Add one job's spans to totals: name -> [self seconds, calls].

    A span's self time is its duration minus that of its child spans; the
    spans' parent fields index the same list.  Returns the seconds covered
    by top-level spans.
    """
    covered = [0.0] * len(spans)
    top = 0.0
    for name, start, end, parent, job in spans:
        if parent is None:
            top += end - start
        else:
            covered[parent] += end - start
    for (name, start, end, parent, job), inner in zip(spans, covered):
        entry = totals.setdefault(name, [0.0, 0])
        entry[0] += end - start - inner
        entry[1] += 1
    return top
