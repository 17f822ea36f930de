"""Command-line front end.

Subcommands: verify, hol, sha, flows, esn, poly.  Reports are deterministic
given identical inputs, caps and seed; exit codes are 0 for all-pass, 1 for
check failures, 2 for usage or parse errors, 3 for an exhausted budget or cap.
"""

import argparse
import json
import sys
from dataclasses import dataclass
from itertools import product

from . import core, groupoid, heap, holomorph, io, morphisms, polycyclic
from .errors import InvholError, ParseError, SearchBudgetExceeded, SizeCap


@dataclass
class RunConfig:
    command: str
    inputs: list
    cap_size: int
    budget: int
    maxlen: int
    alphabet: int
    jobs: int
    fmt: str
    seed: int
    dump: str | None

    def __post_init__(self):
        if self.cap_size <= 0 or self.budget <= 0 or self.maxlen <= 0 or self.jobs <= 0:
            raise ValueError("caps, budget, window and jobs must be positive")


class Output:
    def __init__(self, config):
        self.config = config
        self.sections = []
        self.counts = {}
        self.lines_extra = []

    def add_report(self, rep):
        self.sections.append(rep)

    def count(self, key, value):
        self.counts[key] = value

    def line(self, text):
        self.lines_extra.append(text)

    @property
    def ok(self):
        return all(r.ok for r in self.sections)

    def render(self):
        c = self.config
        head = [
            "invhol report",
            f"command: {c.command}" + (f" {' '.join(c.inputs)}" if c.inputs else ""),
            f"caps: size={c.cap_size} budget={c.budget} maxlen={c.maxlen} "
            f"alphabet={c.alphabet} jobs={c.jobs}",
            f"seed: {c.seed}",
        ]
        if c.fmt == "json":
            obj = {
                "command": c.command,
                "inputs": c.inputs,
                "caps": {
                    "size": c.cap_size,
                    "budget": c.budget,
                    "maxlen": c.maxlen,
                    "alphabet": c.alphabet,
                    "jobs": c.jobs,
                },
                "seed": c.seed,
                "counts": self.counts,
                "output": self.lines_extra,
                "sections": [r.to_dict() for r in self.sections],
                "ok": self.ok,
            }
            return json.dumps(obj, indent=1, separators=(",", ": "))
        out = list(head)
        for k, v in self.counts.items():
            out.append(f"{k}: {v}")
        out.extend(self.lines_extra)
        for r in self.sections:
            out.extend(r.lines())
        out.append(f"overall: {'pass' if self.ok else 'FAIL'}")
        return "\n".join(out)


def _load_semigroup(path, config):
    return io.read_semigroup(path, cap=config.cap_size)


def cmd_verify(config, out):
    path = config.inputs[0]
    kind = io.detect_kind(path)
    if kind == "semigroup":
        from .report import CheckReport

        rep = CheckReport(f"semigroup table {path}")
        try:
            S = _load_semigroup(path, config)
        except ParseError:
            raise
        except InvholError as exc:
            rep.add("table_is_inverse_semigroup", False, str(exc))
            out.add_report(rep)
            return
        rep.add("table_is_inverse_semigroup", True,
                detail=f"{S.size} elements, {len(S.idempotents)} idempotents")
        out.add_report(rep)
        out.add_report(core.verify_semigroup_properties(S))
    else:
        G = io.read_groupoid(path)
        out.add_report(groupoid.verify_ordered_groupoid(G))


def cmd_hol(config, out):
    S = _load_semigroup(config.inputs[0], config)
    prems = morphisms.enumerate_premorphisms(S, budget=config.budget)
    hol = holomorph.enumerate_holomorph(S, prems=prems)
    table = holomorph.hol_table(S, hol)
    units = holomorph.holomorph_units(S, table)
    out.count("premorphisms", len(prems))
    out.count("holomorph_pairs", len(hol))
    out.count("holomorph_units", len(units))
    out.add_report(morphisms.verify_premorphism_laws(S, prems))
    out.add_report(holomorph.verify_hol_monoid(S, table))
    out.add_report(holomorph.verify_interchange(S, table))
    if S.identity is not None:
        out.add_report(holomorph.verify_mon_hol(S, hol))
    if config.dump:
        io._dump(
            {
                "elements": [
                    {"alpha": list(h.alpha), "tau": list(h.tau)} for h in hol
                ]
            },
            config.dump,
        )
        out.line(f"dumped {len(hol)} elements to {config.dump}")


def cmd_sha(config, out):
    S = _load_semigroup(config.inputs[0], config)
    sha = heap.enumerate_sha(S, budget=config.budget)
    out.count("heap_monoid_size", len(sha))
    out.count("bijective_heap_maps", len(heap.bijective_heap_maps(sha)))
    out.add_report(heap.verify_sha_embedding(S, sha))
    if S.identity is not None:
        mon = holomorph.mon_hol(S, morphisms.enumerate_premorphisms(S, budget=config.budget))
        out.add_report(heap.verify_sha_monoid_iso(S, sha, mon))
    if config.dump:
        io._dump({"elements": [{"eta": list(m.eta)} for m in sha]}, config.dump)
        out.line(f"dumped {len(sha)} maps to {config.dump}")


def cmd_flows(config, out):
    path = config.inputs[0]
    if io.detect_kind(path) == "semigroup":
        S = _load_semigroup(path, config)
        G = groupoid.esn_forward(S)
        out.line("input is a semigroup table; using its ordered groupoid")
    else:
        G = io.read_groupoid(path)
    flows = groupoid.enumerate_flows(G, cap=config.cap_size)
    out.count("flows", len(flows))
    out.count("ordered_flows", len(groupoid.ordered_flows(G, flows)))
    out.add_report(groupoid.check_flow_monoid_structure(G, cap=config.cap_size))


def cmd_esn(config, out):
    from .report import CheckReport

    S = _load_semigroup(config.inputs[0], config)
    G = groupoid.esn_forward(S)
    out.count("arrows", G.n)
    out.count("identities", len(G.identities))
    out.add_report(groupoid.verify_ordered_groupoid(G))
    rep = CheckReport("round trip through the ordered groupoid")
    T = groupoid.esn_back(G, cap=config.cap_size)
    same = T.mul == S.mul and T.names == S.names
    rep.add("pseudoproduct_recovers_table", same,
            None if same else "recovered table differs")
    out.add_report(rep)
    if config.dump:
        io.write_groupoid(config.dump, G)
        out.line(f"wrote groupoid to {config.dump}")


# the window checks of `invhol poly`, in the order `--check all` runs them
POLY_CHECKS = ("arith", "bicyclic", "functors", "zappa", "endo", "heap")


def cmd_poly(config, out, args):
    n, L = config.alphabet, config.maxlen
    if args.expr:
        val = polycyclic.parse_poly_expression(args.expr, n)
        out.line(f"value: {polycyclic.format_poly(val)}")
        out.count("expression", args.expr)
    checks = args.check or ([] if args.expr else ["all"])
    if "all" in checks:
        checks = POLY_CHECKS
    for c in checks:
        if c == "arith":
            out.add_report(polycyclic.verify_poly_window(n, L))
            if n != 1:
                out.add_report(polycyclic.verify_poly_window(1, max(L, 6)))
        elif c == "bicyclic":
            out.add_report(polycyclic.verify_bicyclic(6, 4))
            out.add_report(polycyclic.bicyclic_hol_check(4, 6))
        elif c == "functors":
            out.add_report(polycyclic.premorphism_ideal_check(n, L))
        elif c == "zappa":
            out.add_report(
                polycyclic.verify_zappa(n, L, samples=args.samples, seed=config.seed)
            )
        elif c == "endo":
            from .report import CheckReport

            rep = CheckReport(
                f"endomorphism characterisation sweep, n={n}, window L={L}, "
                f"letter images up to length 2"
            )
            ws = polycyclic.words_upto(n, 2)
            bad = None
            count = 0
            for images in product(ws, repeat=n):
                sub = polycyclic.endo_classification_check(n, images, "", L)
                count += 1
                if not sub.ok and bad is None:
                    bad = f"letters->{images}: {sub.failures()[0].witness}"
            rep.add("sweep", bad is None, bad, detail=f"{count} letter maps")
            out.add_report(rep)
        elif c == "heap":
            out.add_report(polycyclic.heap_type_check_polycyclic(n, 1, 2))
        else:
            raise ParseError(f"unknown check {c!r}")


def build_parser():
    p = argparse.ArgumentParser(
        prog="invhol",
        description="inverse semigroup holomorph workbench",
    )
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--cap-size", type=int, default=core.DEFAULT_SIZE_CAP)
    shared.add_argument("--budget", type=int, default=morphisms.DEFAULT_NODE_BUDGET)
    shared.add_argument("--maxlen", type=int, default=3, help="word-length window")
    shared.add_argument("--alphabet", type=int, default=2, help="alphabet size")
    shared.add_argument(
        "--jobs", type=int, default=1,
        help="echoed in the report header; every search runs in one process",
    )
    shared.add_argument("--format", choices=["text", "json"], default="text")
    shared.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
    shared.add_argument("--dump", default=None, help="write elements/structures here")

    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("verify", parents=[shared]).add_argument("path")
    sub.add_parser("hol", parents=[shared]).add_argument("path")
    sub.add_parser("sha", parents=[shared]).add_argument("path")
    sub.add_parser("flows", parents=[shared]).add_argument("path")
    sub.add_parser("esn", parents=[shared]).add_argument("path")
    pp = sub.add_parser("poly", parents=[shared])
    pp.add_argument("expr", nargs="?", default=None, help="expression to evaluate")
    pp.add_argument(
        "--check",
        action="append",
        choices=[*POLY_CHECKS, "all"],
        help="window checks to run (repeatable)",
    )
    pp.add_argument("--samples", type=int, default=6, help="sampled maps for checks")
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    inputs = [args.path] if hasattr(args, "path") else []
    if args.command == "poly" and args.expr:
        inputs = [args.expr]
    try:
        config = RunConfig(
            command=args.command,
            inputs=inputs,
            cap_size=args.cap_size,
            budget=args.budget,
            maxlen=args.maxlen,
            alphabet=args.alphabet,
            jobs=args.jobs,
            fmt=args.format,
            seed=args.seed,
            dump=args.dump,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = Output(config)
    try:
        if args.command == "verify":
            cmd_verify(config, out)
        elif args.command == "hol":
            cmd_hol(config, out)
        elif args.command == "sha":
            cmd_sha(config, out)
        elif args.command == "flows":
            cmd_flows(config, out)
        elif args.command == "esn":
            cmd_esn(config, out)
        elif args.command == "poly":
            cmd_poly(config, out, args)
    except SearchBudgetExceeded as exc:
        print(out.render())
        print(
            f"search budget exceeded: visited {exc.nodes} nodes, "
            f"found {exc.found} results, budget {exc.budget}",
            file=sys.stderr,
        )
        return 3
    except SizeCap as exc:
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
