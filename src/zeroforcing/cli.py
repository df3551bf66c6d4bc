"""Command-line front end: generation, computation, and batch census over graph6.

Subcommands read graph6 records from --in (default stdin), one per line, and
write one record per graph, so generators and computations compose through
pipes: `zeroforcing gen heawood | zeroforcing bounds`.

Every record subcommand follows one policy: a record that fails to parse or
compute is skipped with a `line N: <message>` note on stderr, and the rest
of the input is still processed.  An exhausted solver budget still prints
its `Z>=k` record.  Exit status: 0 on success, 1 if any record was skipped or
hit its budget (or on a generator or file error), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from . import families, spectral
from .forcing import closure, zero_forcing_number
from .graph6 import parse_graph6, write_graph6
from .graphs import edge_connectivity
from .recognition import recognize_z3
from .spanning import degree_census, spanning_tree


def _fmt_set(vertices) -> str:
    return "{" + ",".join(map(str, sorted(vertices))) + "}"


def _vertex_list(text: str) -> list:
    try:
        return [int(v) for v in text.split(",")] if text else []
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated vertex ids, got {text!r}") from None


def _gen_graphs(spec: list, order: int | None) -> list:
    """Resolve a generator mini-spec into Graphs.

    Grammar: `family t=T m=M n1,..,nT` or `family --order N`;
    `prism N [sigma=i,j]`; `necklace B`; `heawood`; `cex16`.
    """
    if not spec:
        raise ValueError("gen needs a generator spec")
    kind, args = spec[0], spec[1:]
    if kind in ("heawood", "cex16"):
        if args:
            raise ValueError(f"usage: gen {kind}")
        return [families.heawood_graph() if kind == "heawood"
                else families.counterexample16()]
    if kind == "necklace":
        if len(args) != 1:
            raise ValueError("usage: gen necklace B")
        return [families.necklace(int(args[0]))]
    if kind == "prism":
        if not args:
            raise ValueError("usage: gen prism N [sigma=i,j]")
        n = int(args[0])
        sigma = None
        for extra in args[1:]:
            if extra.startswith("sigma="):
                pair = extra[len("sigma="):].split(",")
                if len(pair) != 2:
                    raise ValueError("usage: gen prism N [sigma=i,j]")
                sigma = (int(pair[0]), int(pair[1]))
            else:
                raise ValueError("usage: gen prism N [sigma=i,j]")
        return [families.permutation_prism(n, sigma)]
    if kind == "family":
        if order is not None:
            return [g for _, g in families.family_members(order)]
        params = dict(token.split("=", 1) for token in args if "=" in token)
        plain = [token for token in args if "=" not in token]
        if set(params) != {"t", "m"} or len(plain) > 1 or len(args) != 2 + len(plain):
            raise ValueError("usage: gen family t=T m=M [n1,..,nT] | "
                             "gen family --order N")
        t, m = int(params["t"]), int(params["m"])
        indices = []
        if plain:
            indices = [int(x) for x in plain[0].split(",")]
        if len(indices) != t:
            raise ValueError(f"expected {t} ladder indices, got {len(indices)}")
        blocks = tuple([("M", ni) for ni in indices] + [("T", m)])
        return [g for _, g in families.distinct_assemblies(blocks)]
    raise ValueError(f"unknown generator {kind!r}")


# Record subcommands: (args, line, graph) -> (text, ok); ok is False when the
# solver budget ran out before the record's answer was exact.

def _closure(args, line, g):
    derived = closure(g, args.black)
    trace = ",".join(f"{u}>{v}" for u, v in derived.trace)
    return f"{line}  black={_fmt_set(derived.black)}  trace=[{trace}]", True


def _zf(args, line, g):
    result = zero_forcing_number(g, budget=args.budget)
    z = str(result.z) if result.exact else f">={result.lower_bound}"
    witness = _fmt_set(result.witness) if result.exact else "-"
    if args.format == "tsv":
        return f"{line}\t{z}\t{witness}", result.exact
    relation = "=" if result.exact else ""
    return f"{line}  Z{relation}{z}  witness={witness}", result.exact


def _bounds(args, line, g):
    report = spectral.bounds_report(g, budget=args.budget)
    return report.to_text(), report.upper is not None


def _recognize(args, line, g):
    result = recognize_z3(g)
    if result.member:
        return f"{line}  member  spec={result.spec.label()}", True
    if result.edge_connectivity is not None:
        return f"{line}  non-member  kappa={result.edge_connectivity}", True
    return f"{line}  non-member  Z={result.z}", True


def _spantree(args, line, g):
    result = spanning_tree(g, args.root)
    if args.format == "graph6":
        return write_graph6(result.tree), True
    deleted = ",".join(f"({u},{v})" for u, v in sorted(result.deleted))
    extra = ""
    if all(1 <= result.tree.degree(v) <= 3 for v in range(result.tree.n)):
        census = degree_census(result)
        extra = f"  n1={census.n1} n2={census.n2} n3={census.n3}"
    return (f"{write_graph6(result.tree)}  root={args.root}  "
            f"deleted=[{deleted}]{extra}"), True


def _census(args, line, g):
    kappa = edge_connectivity(g)
    report = spectral.bounds_report(g, budget=args.budget)
    sources = dict(report.lower_bounds)
    upper = str(report.upper) if report.upper is not None else \
        f">={report.upper_floor}"
    row = [line, str(g.n), "1" if g.is_cubic() else "0", str(kappa), upper,
           str(sources["eigenvalue"]), str(sources["twin"]), "-", report.verdict]
    return "\t".join(row), report.upper is not None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zeroforcing",
        description="zero forcing numbers, cubic families, and nullity bounds")
    sub = parser.add_subparsers(dest="command", required=True)

    def record_command(name, run, help, formats=None, budget=False, sep=""):
        # sep is printed between two output records; only subcommands that
        # read --format or --budget get them
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run, sep=sep)
        p.add_argument("--in", dest="infile", default=None,
                       help="input file of graph6 records (default stdin)")
        p.add_argument("--out", dest="outfile", default=None,
                       help="output file (default stdout)")
        if formats:
            p.add_argument("--format", choices=formats, default=formats[0])
        if budget:
            p.add_argument("--budget", type=int, default=None,
                           help="largest witness size the solver may try")
        return p

    p = sub.add_parser("gen", help="emit generated graphs as graph6")
    p.add_argument("spec", nargs="*", help="heawood | cex16 | necklace B | "
                   "prism N [sigma=i,j] | family t=T m=M n1,..,nT")
    p.add_argument("--order", type=int, default=None,
                   help="with `family`: emit every member of this order")
    p.add_argument("--out", dest="outfile", default=None)

    p = record_command("closure", _closure, "derived coloring of an initial set")
    p.add_argument("--black", type=_vertex_list, default="",
                   help="initial black set, e.g. 0,1,2")
    record_command("zf", _zf, "exact zero forcing number", formats=("text", "tsv"),
                   budget=True)
    record_command("bounds", _bounds, "maximum-nullity sandwich report",
                   budget=True, sep="\n")
    record_command("recognize", _recognize, "zero-forcing-number-3 membership")
    p = record_command("spantree", _spantree, "layered spanning tree",
                       formats=("text", "graph6"))
    p.add_argument("--root", type=int, default=0)
    record_command("census", _census, "TSV invariants over a graph6 stream",
                   budget=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "gen" and args.order is not None and args.spec != ["family"]:
        parser.error("gen: --order takes `family` and no block spec")
    try:
        with contextlib.ExitStack() as files:
            infile = getattr(args, "infile", None)
            instream = files.enter_context(open(infile)) if infile else sys.stdin
            out = files.enter_context(open(args.outfile, "w")) if args.outfile \
                else sys.stdout
            if args.command == "gen":
                for g in _gen_graphs(args.spec, args.order):
                    print(write_graph6(g), file=out)
                return 0
            status = 0
            sep = ""
            for ln, raw in enumerate(instream, start=1):
                line = raw.strip()
                if not line:
                    continue
                try:
                    text, ok = args.run(args, line, parse_graph6(line))
                except (ValueError, RuntimeError) as exc:
                    print(f"line {ln}: {exc}", file=sys.stderr)
                    status = 1
                    continue
                print(sep + text, file=out)
                sep = args.sep
                if not ok:
                    status = 1
            return status
    except (ValueError, OSError) as exc:
        print(f"zeroforcing: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
