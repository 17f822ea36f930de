"""Command-line front end.

Subcommands: verify, hol, sha, flows, esn, poly.  Reports are deterministic
given identical inputs, caps and seed; exit codes are 0 for all-pass, 1 for
check failures, 2 for usage or parse errors, a `--dump` path that cannot be
written or is given to verify, flows or poly (which write none), and an
input that is not a valid structure (`verify` reports that as a check
failure), 3 for an exhausted budget or cap, or a word window whose integer
codes would overflow int64; such a stopped run prints the report so far
with the verdict `overall: incomplete` (`"ok": false` in JSON).
"""

import json
import sys
import types

from . import core, groupoid, heap, holomorph, io, morphisms, polycyclic
from .errors import (
    NotAssociative, NotInverse, ParseError, SearchBudgetExceeded, SizeCap, WindowExceeded,
)
from .report import CheckReport


class Output:
    def __init__(self, args):
        self.args = args
        self.sections = []
        self.counts = {}
        self.lines = []
        self.stopped = False  # a budget or cap ended the run early

    @property
    def ok(self):
        return not self.stopped and all(r.ok for r in self.sections)

    def render(self):
        a = self.args
        head = [
            "invhol report",
            f"command: {a.command}" + (f" {' '.join(a.inputs)}" if a.inputs else ""),
            f"caps: size={a.cap_size} budget={a.budget} maxlen={a.maxlen} "
            f"alphabet={a.alphabet} jobs={a.jobs}",
            f"seed: {a.seed}",
        ]
        if a.format == "json":
            obj = {
                "command": a.command,
                "inputs": a.inputs,
                "caps": {
                    "size": a.cap_size,
                    "budget": a.budget,
                    "maxlen": a.maxlen,
                    "alphabet": a.alphabet,
                    "jobs": a.jobs,
                },
                "seed": a.seed,
                "counts": self.counts,
                "output": self.lines,
                "sections": [r.to_dict() for r in self.sections],
                "ok": self.ok,
            }
            return json.dumps(obj, indent=1, separators=(",", ": "))
        out = list(head)
        for k, v in self.counts.items():
            out.append(f"{k}: {v}")
        out.extend(self.lines)
        for r in self.sections:
            out.extend(r.lines())
        out.append(f"overall: {'incomplete' if self.stopped else 'pass' if self.ok else 'FAIL'}")
        return "\n".join(out)


def _load_semigroup(args, obj=None):
    """The input table; one that the constructor rejects is a usage error
    here, and a failing report only under `verify`."""
    try:
        return io.read_semigroup(args.path, cap=args.cap_size, obj=obj)
    except (NotAssociative, NotInverse) as exc:
        raise ParseError(f"{args.path}: {exc}") from exc


def cmd_verify(args, out):
    path = args.path
    kind, obj = io.load_structure(path)
    if kind != "semigroup":
        out.sections.append(groupoid.verify_ordered_groupoid(io.read_groupoid(path, obj)))
        return
    rep = CheckReport(f"semigroup table {path}")
    out.sections.append(rep)
    try:
        S = io.read_semigroup(path, cap=args.cap_size, obj=obj)
    except (NotAssociative, NotInverse, SizeCap) as exc:
        rep.add("table_is_inverse_semigroup", False, str(exc))
        return
    rep.add("table_is_inverse_semigroup", True,
            detail=f"{S.size} elements, {len(S.idempotents)} idempotents")
    out.sections.append(core.verify_semigroup_properties(S))


def cmd_hol(args, out):
    S = _load_semigroup(args)
    prems = morphisms.enumerate_premorphisms(S, budget=args.budget)
    hol = holomorph.enumerate_holomorph(S, prems=prems, tau_cap=args.cap_size)
    table = holomorph.hol_table(S, hol)
    units = holomorph.holomorph_units(S, table)
    out.counts["premorphisms"] = len(prems)
    out.counts["holomorph_pairs"] = len(hol)
    out.counts["holomorph_units"] = len(units)
    out.sections.append(morphisms.verify_premorphism_laws(S, prems))
    out.sections.append(holomorph.verify_hol_monoid(S, table))
    out.sections.append(holomorph.verify_interchange(S, table))
    if S.identity is not None:
        mon = holomorph.mon_hol(S, morphisms.enumerate_premorphisms(S, budget=args.budget))
        out.sections.append(holomorph.verify_mon_hol(S, table, mon))
    if args.dump is not None:
        io._dump(
            {
                "elements": [
                    {"alpha": list(h.alpha), "tau": list(h.tau)} for h in hol
                ]
            },
            args.dump,
        )
        out.lines.append(f"dumped {len(hol)} elements to {args.dump}")


def cmd_sha(args, out):
    S = _load_semigroup(args)
    sha = heap.enumerate_sha(S, budget=args.budget)
    out.counts["heap_monoid_size"] = len(sha)
    out.counts["bijective_heap_maps"] = len(heap.bijective_heap_maps(sha))
    by_eta = {eta: heap.embed(S, eta) for eta in sha}
    out.sections.append(heap.verify_sha_embedding(S, sha, by_eta))
    if S.identity is not None:
        mon = holomorph.mon_hol(S, morphisms.enumerate_premorphisms(S, budget=args.budget))
        out.sections.append(heap.verify_sha_monoid_iso(S, sha, mon, by_eta))
    if args.dump is not None:
        io._dump({"elements": [{"eta": list(eta)} for eta in sha]}, args.dump)
        out.lines.append(f"dumped {len(sha)} maps to {args.dump}")


def cmd_flows(args, out):
    kind, obj = io.load_structure(args.path)
    if kind == "semigroup":
        G = groupoid.esn_forward(_load_semigroup(args, obj))
        out.lines.append("input is a semigroup table; using its ordered groupoid")
    else:
        G = io.read_groupoid(args.path, obj)
        bad = groupoid.verify_ordered_groupoid(G).failures()
        if bad:
            raise ParseError(f"{args.path}: not an ordered groupoid, "
                             f"{bad[0].name} fails: {bad[0].witness}")
    flows = groupoid.enumerate_flows(G, cap=args.cap_size)
    out.counts["flows"] = len(flows)
    out.counts["ordered_flows"] = len(groupoid.ordered_flows(G, flows))
    out.sections.append(groupoid.check_flow_monoid_structure(G, cap=args.cap_size))


def cmd_esn(args, out):
    S = _load_semigroup(args)
    G = groupoid.esn_forward(S)
    out.counts["arrows"] = G.n
    out.counts["identities"] = len(G.identities)
    out.sections.append(groupoid.verify_ordered_groupoid(G))
    rep = CheckReport("round trip through the ordered groupoid")
    T = groupoid.esn_back(G, cap=args.cap_size)
    same = T.mul == S.mul and T.names == S.names
    rep.add("pseudoproduct_recovers_table", same,
            None if same else "recovered table differs")
    out.sections.append(rep)
    if args.dump is not None:
        io.write_groupoid(args.dump, G)
        out.lines.append(f"wrote groupoid to {args.dump}")


# the window checks of `invhol poly`, each to the reports it adds, in the
# order `--check all` runs them
POLY_CHECK_REPORTS = {
    "arith": lambda a: [polycyclic.verify_poly_window(a.alphabet, a.maxlen, a.cap_size)] + (
        [polycyclic.verify_poly_window(1, max(a.maxlen, 6), a.cap_size)] if a.alphabet != 1 else []
    ),
    "bicyclic": lambda a: [polycyclic.verify_bicyclic(6, 4), polycyclic.bicyclic_hol_check(4, 6)],
    "functors": lambda a: [polycyclic.premorphism_ideal_check(a.alphabet, a.maxlen, a.cap_size)],
    "zappa": lambda a: [
        polycyclic.verify_zappa(a.alphabet, a.maxlen, a.samples, a.seed, a.cap_size)
    ],
    "endo": lambda a: [polycyclic.endo_sweep(a.alphabet, a.maxlen, a.cap_size)],
    "heap": lambda a: [polycyclic.heap_type_check_polycyclic(a.alphabet, 1, 2, a.cap_size)],
}
POLY_CHECKS = tuple(POLY_CHECK_REPORTS)


def cmd_poly(args, out):
    if args.expr is not None:
        val = polycyclic.parse_poly_expression(args.expr, args.alphabet)
        out.lines.append(f"value: {polycyclic.format_poly(val)}")
        out.counts["expression"] = args.expr
    checks = args.check or ([] if args.expr is not None else ["all"])
    for c in POLY_CHECKS if "all" in checks else checks:
        out.sections.extend(POLY_CHECK_REPORTS[c](args))


COMMANDS = {
    "verify": cmd_verify,
    "hol": cmd_hol,
    "sha": cmd_sha,
    "flows": cmd_flows,
    "esn": cmd_esn,
    "poly": cmd_poly,
}


# the options of every subcommand, and the ones poly adds, each flag to its
# (type, default, choices, help); build_parser and _parse_common read both
OPTIONS = {
    "--cap-size": (int, core.DEFAULT_SIZE_CAP, None, None),
    "--budget": (int, morphisms.DEFAULT_NODE_BUDGET, None, None),
    "--maxlen": (int, 3, None, "word-length window"),
    "--alphabet": (int, 2, None, "alphabet size"),
    "--jobs": (int, 1, None, "echoed in the report header; every search runs in one process"),
    "--format": (str, "text", ("text", "json"), None),
    "--seed": (int, 0, None, "seed for sampled checks"),
    "--dump": (str, None, None, "write elements/structures here"),
}
POLY_OPTIONS = {
    "--check": (str, None, (*POLY_CHECKS, "all"), "window checks to run (repeatable)"),
    "--samples": (int, 6, None, "sampled maps for checks"),
}


def _add_options(parser, options):
    for flag, (type_, default, choices, help_) in options.items():
        action = "append" if flag == "--check" else "store"
        parser.add_argument(flag, action=action, type=type_, default=default,
                            choices=choices, help=help_)


def build_parser():
    import argparse
    p = argparse.ArgumentParser(
        prog="invhol",
        description="inverse semigroup holomorph workbench",
    )
    shared = argparse.ArgumentParser(add_help=False)
    _add_options(shared, OPTIONS)

    sub = p.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cp = sub.add_parser(name, parents=[shared])
        if name != "poly":
            cp.add_argument("path")
    pp = sub.choices["poly"]
    pp.add_argument("expr", nargs="?", default=None, help="expression to evaluate")
    _add_options(pp, POLY_OPTIONS)
    return p


def _parse_common(argv):
    """`COMMAND [POSITIONAL] (--OPTION VALUE)*`, each option spelled in full
    and no value starting with '-', parsed as build_parser() parses it;
    None for any other argv, which argparse then parses, or answers with
    help or a usage error."""
    command, *rest = argv or [None]
    if command not in COMMANDS:
        return None
    options = {**OPTIONS, **POLY_OPTIONS} if command == "poly" else OPTIONS
    args = {flag[2:].replace("-", "_"): spec[1] for flag, spec in options.items()}
    positional = "expr" if command == "poly" else "path"
    args["command"], args[positional] = command, None
    if rest and not rest[0].startswith("-"):
        args[positional] = rest.pop(0)
    if len(rest) % 2 or args[positional] is None and command != "poly":
        return None
    for flag, value in zip(rest[::2], rest[1::2]):
        if flag not in options or value.startswith("-"):
            return None
        type_, _, choices, _ = options[flag]
        try:
            value = type_(value)
        except ValueError:
            return None
        if choices and value not in choices:
            return None
        dest = flag[2:].replace("-", "_")
        args[dest] = [*(args[dest] or []), value] if flag == "--check" else value
    return types.SimpleNamespace(**args)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_common(argv) or build_parser().parse_args(argv)
    args.inputs = ([args.path] if hasattr(args, "path")
                   else [] if args.expr is None else [args.expr])
    out = Output(args)
    try:
        if min(args.cap_size, args.budget, args.maxlen, args.jobs) <= 0:
            raise ParseError("caps, budget, window and jobs must be positive")
        if not 1 <= args.alphabet <= 26:
            raise ParseError("alphabet size must be between 1 and 26")
        if getattr(args, "samples", 0) < 0:
            raise ParseError("samples must not be negative")
        if args.dump is not None and args.command not in ("hol", "sha", "esn"):
            raise ParseError(f"--dump applies only to hol, sha and esn, not to {args.command}")
        COMMANDS[args.command](args, out)
    except SearchBudgetExceeded as exc:
        out.stopped = True
        print(out.render())
        print(
            f"search budget exceeded: visited {exc.nodes} nodes, "
            f"found {exc.found} results, budget {exc.budget}",
            file=sys.stderr,
        )
        return 3
    except (SizeCap, WindowExceeded) as exc:
        out.stopped = True
        print(out.render())
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(out.render())
    return 0 if out.ok else 1


if __name__ == "__main__":
    sys.exit(main())
