"""Command-line front end: generation, computation, and batch census over graph6.

Subcommands read graph6 records from --in (default stdin), one per line, and
write one record per graph, so generators and computations compose through
pipes: `zeroforcing gen heawood | zeroforcing bounds`.

Exit status: 0 on success, 1 on any computation error, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys

from . import families, spectral
from .forcing import closure, zero_forcing_number
from .graph6 import Graph6Error, parse_graph6, write_graph6
from .graphs import Graph, edge_connectivity
from .recognition import recognize_z3
from .spanning import degree_census, spanning_tree


class CliError(Exception):
    pass


def _fmt_set(vertices) -> str:
    return "{" + ",".join(map(str, sorted(vertices))) + "}"


def _iter_input(stream):
    for ln, raw in enumerate(stream, start=1):
        line = raw.strip()
        if line:
            yield ln, line


def _parse_record(ln: int, line: str) -> Graph:
    try:
        return parse_graph6(line)
    except Graph6Error as exc:
        raise CliError(f"line {ln}: {exc.message}") from None


def _gen_graphs(spec: list, order: int | None):
    """Resolve a generator mini-spec into (label, Graph) pairs.

    Grammar: `family t=T m=M n1,..,nT` or `family --order N`;
    `prism N [sigma=i,j]`; `necklace B`; `heawood`; `cex16`.
    """
    if not spec:
        raise CliError("gen needs a generator spec")
    kind, args = spec[0], spec[1:]
    if kind == "heawood":
        return [("heawood", families.heawood_graph())]
    if kind == "cex16":
        return [("cex16", families.counterexample16())]
    if kind == "necklace":
        if len(args) != 1:
            raise CliError("usage: gen necklace B")
        return [(f"necklace({args[0]})", families.necklace(int(args[0])))]
    if kind == "prism":
        if not args:
            raise CliError("usage: gen prism N [sigma=i,j]")
        n = int(args[0])
        sigma = None
        for extra in args[1:]:
            if extra.startswith("sigma="):
                i, j = extra[len("sigma="):].split(",")
                sigma = (int(i), int(j))
            else:
                raise CliError(f"unknown prism argument {extra!r}")
        label = f"prism({n},{sigma or 'id'})"
        return [(label, families.permutation_prism(n, sigma))]
    if kind == "family":
        if order is not None:
            return [(spec_.label(), g)
                    for spec_, g in families.family_members(order)]
        params = dict(token.split("=", 1) for token in args if "=" in token)
        plain = [token for token in args if "=" not in token]
        if "t" not in params or "m" not in params:
            raise CliError("usage: gen family t=T m=M [n1,..,nT] | "
                           "gen family --order N")
        t, m = int(params["t"]), int(params["m"])
        indices = []
        if plain:
            indices = [int(x) for x in plain[0].split(",")]
        if len(indices) != t:
            raise CliError(f"expected {t} ladder indices, got {len(indices)}")
        blocks = tuple([("M", ni) for ni in indices] + [("T", m)])
        return [(spec_.label(), g)
                for spec_, g, _ in families.distinct_assemblies(blocks).values()]
    raise CliError(f"unknown generator {kind!r}")


def _run_gen(args, out) -> int:
    for _, g in _gen_graphs(args.spec, args.order):
        print(write_graph6(g), file=out)
    return 0


def _run_closure(args, records, out) -> int:
    initial = [int(v) for v in args.black.split(",")] if args.black else []
    for ln, line in records:
        g = _parse_record(ln, line)
        derived = closure(g, initial)
        trace = ",".join(f"{u}>{v}" for u, v in derived.trace)
        print(f"{line}  black={_fmt_set(derived.black)}  trace=[{trace}]", file=out)
    return 0


def _run_zf(args, records, out) -> int:
    status = 0
    for ln, line in records:
        g = _parse_record(ln, line)
        result = zero_forcing_number(g, budget=args.budget)
        if result.exact:
            if args.format == "tsv":
                print(f"{line}\t{result.z}\t{_fmt_set(result.witness)}", file=out)
            else:
                print(f"{line}  Z={result.z}  witness={_fmt_set(result.witness)}",
                      file=out)
        else:
            print(f"{line}  Z>={result.lower_bound}  witness=-", file=out)
            status = 1
    return status


def _run_bounds(args, records, out) -> int:
    status = 0
    first = True
    for ln, line in records:
        g = _parse_record(ln, line)
        if not first:
            print(file=out)
        first = False
        report = spectral.bounds_report(g, budget=args.budget)
        print(report.to_text(), file=out)
        if report.m is None:
            status = 1 if report.upper is None else status
    return status


def _run_recognize(args, records, out) -> int:
    for ln, line in records:
        g = _parse_record(ln, line)
        result = recognize_z3(g)
        if result.member:
            print(f"{line}  member  spec={result.spec.label()}", file=out)
        elif result.edge_connectivity is not None:
            print(f"{line}  non-member  kappa={result.edge_connectivity}", file=out)
        else:
            print(f"{line}  non-member  Z={result.z}", file=out)
    return 0


def _run_spantree(args, records, out) -> int:
    for ln, line in records:
        g = _parse_record(ln, line)
        result = spanning_tree(g, args.root)
        if args.format == "graph6":
            print(write_graph6(result.tree), file=out)
            continue
        deleted = ",".join(f"({u},{v})" for u, v in sorted(result.deleted))
        extra = ""
        if all(result.tree.degree(v) <= 3 for v in range(result.tree.n)):
            census = degree_census(result)
            extra = f"  n1={census.n1} n2={census.n2} n3={census.n3}"
        print(f"{write_graph6(result.tree)}  root={args.root}  "
              f"deleted=[{deleted}]{extra}", file=out)
    return 0


def _run_census(args, records, out, err) -> int:
    status = 0
    for ln, line in records:
        try:
            g = parse_graph6(line)
        except Graph6Error as exc:
            print(f"line {ln}: {exc.message}", file=err)
            status = 1
            continue
        try:
            kappa = edge_connectivity(g)
            report = spectral.bounds_report(g, budget=args.budget)
            eig = dict(report.lower_bounds)["eigenvalue"]
            twin = dict(report.lower_bounds)["twin"]
            upper = str(report.upper) if report.upper is not None else \
                f">={report.upper_floor}"
            verdict = f"M={report.m}" if report.m is not None else \
                f"M in [{report.lower},{report.upper or '?'}]"
            if report.upper is None:
                status = 1
            row = [line, str(g.n), "1" if g.is_cubic() else "0", str(kappa),
                   upper, str(eig), str(twin), "-", verdict]
        except (ValueError, RuntimeError) as exc:
            print(f"line {ln}: {exc}", file=err)
            status = 1
            continue
        print("\t".join(row), file=out)
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zeroforcing",
        description="zero forcing numbers, cubic families, and nullity bounds")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=("text",)):
        p.add_argument("--in", dest="infile", default=None,
                       help="input file of graph6 records (default stdin)")
        p.add_argument("--out", dest="outfile", default=None,
                       help="output file (default stdout)")
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--budget", type=int, default=None,
                       help="largest witness size the solver may try")

    p = sub.add_parser("gen", help="emit generated graphs as graph6")
    p.add_argument("spec", nargs="*", help="heawood | cex16 | necklace B | "
                   "prism N [sigma=i,j] | family t=T m=M n1,..,nT")
    p.add_argument("--order", type=int, default=None,
                   help="with `family`: emit every member of this order")
    p.add_argument("--out", dest="outfile", default=None)

    p = sub.add_parser("closure", help="derived coloring of an initial set")
    common(p)
    p.add_argument("--black", default="", help="initial black set, e.g. 0,1,2")

    p = sub.add_parser("zf", help="exact zero forcing number")
    common(p, formats=("text", "tsv"))

    p = sub.add_parser("bounds", help="maximum-nullity sandwich report")
    common(p)

    p = sub.add_parser("recognize", help="zero-forcing-number-3 membership")
    common(p)

    p = sub.add_parser("spantree", help="layered spanning tree")
    common(p, formats=("text", "graph6"))
    p.add_argument("--root", type=int, default=0)

    p = sub.add_parser("census", help="TSV invariants over a graph6 stream")
    common(p, formats=("tsv",))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    instream = outstream = None
    try:
        if getattr(args, "infile", None):
            instream = open(args.infile)
        if getattr(args, "outfile", None):
            outstream = open(args.outfile, "w")
        out = outstream or sys.stdout
        if args.command == "gen":
            return _run_gen(args, out)
        records = _iter_input(instream or sys.stdin)
        if args.command == "closure":
            return _run_closure(args, records, out)
        if args.command == "zf":
            return _run_zf(args, records, out)
        if args.command == "bounds":
            return _run_bounds(args, records, out)
        if args.command == "recognize":
            return _run_recognize(args, records, out)
        if args.command == "spantree":
            return _run_spantree(args, records, out)
        if args.command == "census":
            return _run_census(args, records, out, sys.stderr)
        raise CliError(f"unhandled command {args.command}")
    except CliError as exc:
        print(f"zeroforcing: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"zeroforcing: {exc}", file=sys.stderr)
        return 1
    finally:
        if instream:
            instream.close()
        if outstream:
            outstream.close()


if __name__ == "__main__":
    sys.exit(main())
